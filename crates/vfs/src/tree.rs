//! The filesystem namespace: inodes, directory tree, symlink resolution.
//!
//! This module is purely functional over an owned tree structure; it knows
//! nothing about syscall counting or latency. [`crate::Vfs`] wraps it with
//! locking and accounting.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{VfsError, VfsResult};
use crate::path;

/// Maximum symlink traversals before `ELOOP`, matching Linux's limit.
pub const MAX_SYMLINK_HOPS: usize = 40;

/// A unique file identity. Hard identity (dev,ino) collapses to just the
/// inode number since the VFS models a single device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Inode(pub u64);

/// What kind of object an inode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    File,
    Dir,
    Symlink,
}

/// `stat`-style metadata returned to callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    pub inode: Inode,
    pub kind: FileKind,
    pub size: u64,
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    File { data: Arc<Vec<u8>> },
    Dir { entries: BTreeMap<String, Inode> },
    Symlink { target: String },
}

impl Node {
    fn kind(&self) -> FileKind {
        match self {
            Node::File { .. } => FileKind::File,
            Node::Dir { .. } => FileKind::Dir,
            Node::Symlink { .. } => FileKind::Symlink,
        }
    }

    fn size(&self) -> u64 {
        match self {
            Node::File { data } => data.len() as u64,
            Node::Dir { entries } => entries.len() as u64,
            Node::Symlink { target } => target.len() as u64,
        }
    }
}

/// The mutable namespace. One instance per [`crate::Vfs`].
///
/// Nodes live in a dense slab indexed by inode number: inodes are allocated
/// sequentially and never recycled, so `nodes[ino]` is a direct vector index
/// — every component hop during resolution is an O(1) array access instead
/// of a `BTreeMap` descent. Removal leaves a `None` tombstone (cheap; the
/// slab is bounded by the number of inodes ever created, which experiment
/// worlds keep in the tens of thousands).
///
/// Every mutation bumps [`Tree::generation`], so a resolution taken at one
/// generation (a [`crate::DirHandle`]) knows whether it still stands.
#[derive(Debug)]
pub(crate) struct Tree {
    nodes: Vec<Option<Node>>,
    root: Inode,
    live: usize,
    generation: u64,
}

impl Tree {
    pub fn new() -> Self {
        // Slot 0 is reserved so inode numbers start at 1, like real
        // filesystems; the root directory is inode 1.
        let nodes = vec![None, Some(Node::Dir { entries: BTreeMap::new() })];
        Tree { nodes, root: Inode(1), live: 1, generation: 0 }
    }

    /// How many mutations the tree has seen.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Look `name` up in the directory `dir`, one layer, following nothing:
    /// the entry's metadata, or `None` when `dir` has no such entry (or is
    /// not a directory).
    pub fn lookup(&self, dir: Inode, name: &str) -> Option<Metadata> {
        let Node::Dir { entries } = self.node(dir) else { return None };
        let ino = *entries.get(name)?;
        let n = self.node(ino);
        Some(Metadata { inode: ino, kind: n.kind(), size: n.size() })
    }

    fn alloc(&mut self, node: Node) -> Inode {
        let ino = Inode(self.nodes.len() as u64);
        self.nodes.push(Some(node));
        self.live += 1;
        ino
    }

    fn free(&mut self, ino: Inode) {
        if let Some(slot) = self.nodes.get_mut(ino.0 as usize) {
            if slot.take().is_some() {
                self.live -= 1;
            }
        }
    }

    fn node(&self, ino: Inode) -> &Node {
        self.nodes[ino.0 as usize].as_ref().expect("dangling inode")
    }

    fn node_mut(&mut self, ino: Inode) -> &mut Node {
        self.nodes[ino.0 as usize].as_mut().expect("dangling inode")
    }

    /// Resolve `path` to an inode, following symlinks in every non-final
    /// component, and in the final component iff `follow_final`.
    pub fn resolve(&self, p: &str, follow_final: bool) -> VfsResult<Inode> {
        let mut hops = 0usize;
        self.resolve_inner(p, follow_final, &mut hops)
    }

    fn resolve_inner(&self, p: &str, follow_final: bool, hops: &mut usize) -> VfsResult<Inode> {
        let comps = path::components(p).ok_or_else(|| VfsError::InvalidPath(p.to_string()))?;
        let mut cur = self.root;
        // The walked-so-far prefix is materialised only when an error
        // message or a relative symlink target needs it: `prefix` stands in
        // for the first `rebased` components (set after traversing a
        // symlink); the rest re-joins from `comps`. The plain success path
        // — every component a directory hop — allocates nothing.
        let mut prefix: Option<String> = None;
        let mut rebased = 0usize;
        let walked = |prefix: &Option<String>, rebased: usize, upto: usize| -> String {
            let mut s = prefix.clone().unwrap_or_default();
            for c in &comps[rebased..upto] {
                s.push('/');
                s.push_str(c);
            }
            s
        };
        for (i, comp) in comps.iter().enumerate() {
            let is_final = i + 1 == comps.len();
            let entries = match self.node(cur) {
                Node::Dir { entries } => entries,
                _ => return Err(VfsError::NotADirectory(walked(&prefix, rebased, i))),
            };
            let child = *entries
                .get(*comp)
                .ok_or_else(|| VfsError::NotFound(walked(&prefix, rebased, i + 1)))?;
            match self.node(child) {
                Node::Symlink { target } if !is_final || follow_final => {
                    *hops += 1;
                    if *hops > MAX_SYMLINK_HOPS {
                        return Err(VfsError::SymlinkLoop(p.to_string()));
                    }
                    let base = walked(&prefix, rebased, i);
                    let abs = path::join(&base, target);
                    cur = self.resolve_inner(&abs, true, hops)?;
                    // Continue the walk from the symlink's resolution.
                    prefix = Some(abs);
                    rebased = i + 1;
                }
                _ => cur = child,
            }
        }
        Ok(cur)
    }

    /// Canonicalize: resolve every symlink and return the normalized physical
    /// path. Errors if the path does not exist.
    pub fn canonicalize(&self, p: &str) -> VfsResult<String> {
        let comps = path::components(p).ok_or_else(|| VfsError::InvalidPath(p.to_string()))?;
        let mut cur = "/".to_string();
        for comp in comps {
            let candidate = path::join(&cur, comp);
            let mut hops = 0usize;
            let mut target = candidate.clone();
            loop {
                let ino = self.resolve_inner(&target, false, &mut 0)?;
                match self.node(ino) {
                    Node::Symlink { target: t } => {
                        hops += 1;
                        if hops > MAX_SYMLINK_HOPS {
                            return Err(VfsError::SymlinkLoop(p.to_string()));
                        }
                        target = path::join(&path::parent(&target), t);
                    }
                    _ => break,
                }
            }
            cur = target;
        }
        Ok(cur)
    }

    pub fn metadata(&self, p: &str, follow: bool) -> VfsResult<Metadata> {
        let ino = self.resolve(p, follow)?;
        let n = self.node(ino);
        Ok(Metadata { inode: ino, kind: n.kind(), size: n.size() })
    }

    pub fn mkdir_p(&mut self, p: &str) -> VfsResult<()> {
        self.generation += 1;
        let comps: Vec<String> = path::components(p)
            .ok_or_else(|| VfsError::InvalidPath(p.to_string()))?
            .into_iter()
            .map(|s| s.to_string())
            .collect();
        let mut cur = self.root;
        let mut walked = String::new();
        for comp in &comps {
            walked.push('/');
            walked.push_str(comp);
            let existing = match self.node(cur) {
                Node::Dir { entries } => entries.get(comp).copied(),
                _ => return Err(VfsError::NotADirectory(walked.clone())),
            };
            match existing {
                Some(child) => match self.node(child) {
                    Node::Dir { .. } => cur = child,
                    Node::Symlink { .. } => {
                        let ino = self.resolve(&walked, true)?;
                        match self.node(ino) {
                            Node::Dir { .. } => cur = ino,
                            _ => return Err(VfsError::NotADirectory(walked.clone())),
                        }
                    }
                    _ => return Err(VfsError::NotADirectory(walked.clone())),
                },
                None => {
                    let child = self.alloc(Node::Dir { entries: BTreeMap::new() });
                    match self.node_mut(cur) {
                        Node::Dir { entries } => {
                            entries.insert(comp.clone(), child);
                        }
                        _ => unreachable!(),
                    }
                    cur = child;
                }
            }
        }
        Ok(())
    }

    /// Create or overwrite a regular file. Parent directories must exist.
    pub fn write_file(&mut self, p: &str, data: Vec<u8>) -> VfsResult<Inode> {
        self.generation += 1;
        let dir = path::parent(p);
        let name = path::basename(p).to_string();
        if name.is_empty() {
            return Err(VfsError::InvalidPath(p.to_string()));
        }
        let dir_ino = self.resolve(&dir, true)?;
        let existing = match self.node(dir_ino) {
            Node::Dir { entries } => entries.get(&name).copied(),
            _ => return Err(VfsError::NotADirectory(dir)),
        };
        match existing {
            Some(ino) => match self.node_mut(ino) {
                Node::File { data: d } => {
                    *d = Arc::new(data);
                    Ok(ino)
                }
                Node::Dir { .. } => Err(VfsError::IsADirectory(p.to_string())),
                Node::Symlink { .. } => {
                    // Write through the symlink, like open(O_CREAT) would.
                    let target = self.canonicalize(p)?;
                    self.write_file(&target, data)
                }
            },
            None => {
                let ino = self.alloc(Node::File { data: Arc::new(data) });
                match self.node_mut(dir_ino) {
                    Node::Dir { entries } => {
                        entries.insert(name, ino);
                    }
                    _ => unreachable!(),
                }
                Ok(ino)
            }
        }
    }

    /// Create a symlink at `p` pointing to `target` (not resolved now).
    pub fn symlink(&mut self, p: &str, target: &str) -> VfsResult<()> {
        self.generation += 1;
        let dir = path::parent(p);
        let name = path::basename(p).to_string();
        if name.is_empty() {
            return Err(VfsError::InvalidPath(p.to_string()));
        }
        let dir_ino = self.resolve(&dir, true)?;
        match self.node_mut(dir_ino) {
            Node::Dir { entries } => {
                if entries.contains_key(&name) {
                    return Err(VfsError::AlreadyExists(p.to_string()));
                }
                let ino = self.alloc(Node::Symlink { target: target.to_string() });
                // Re-borrow after alloc: split into two steps.
                match self.node_mut(dir_ino) {
                    Node::Dir { entries } => {
                        entries.insert(name, ino);
                    }
                    _ => unreachable!(),
                }
                Ok(())
            }
            _ => Err(VfsError::NotADirectory(dir)),
        }
    }

    pub fn read_file(&self, p: &str) -> VfsResult<Arc<Vec<u8>>> {
        let ino = self.resolve(p, true)?;
        match self.node(ino) {
            Node::File { data } => Ok(Arc::clone(data)),
            Node::Dir { .. } => Err(VfsError::IsADirectory(p.to_string())),
            Node::Symlink { .. } => unreachable!("resolve follows final symlink"),
        }
    }

    pub fn readlink(&self, p: &str) -> VfsResult<String> {
        let ino = self.resolve(p, false)?;
        match self.node(ino) {
            Node::Symlink { target } => Ok(target.clone()),
            _ => Err(VfsError::InvalidPath(p.to_string())),
        }
    }

    pub fn list_dir(&self, p: &str) -> VfsResult<Vec<String>> {
        let ino = self.resolve(p, true)?;
        match self.node(ino) {
            Node::Dir { entries } => Ok(entries.keys().cloned().collect()),
            _ => Err(VfsError::NotADirectory(p.to_string())),
        }
    }

    pub fn remove(&mut self, p: &str) -> VfsResult<()> {
        self.generation += 1;
        let dir = path::parent(p);
        let name = path::basename(p).to_string();
        let dir_ino = self.resolve(&dir, true)?;
        let child = match self.node(dir_ino) {
            Node::Dir { entries } => {
                entries.get(&name).copied().ok_or_else(|| VfsError::NotFound(p.to_string()))?
            }
            _ => return Err(VfsError::NotADirectory(dir)),
        };
        if let Node::Dir { entries } = self.node(child) {
            if !entries.is_empty() {
                return Err(VfsError::NotEmpty(p.to_string()));
            }
        }
        match self.node_mut(dir_ino) {
            Node::Dir { entries } => {
                entries.remove(&name);
            }
            _ => unreachable!(),
        }
        self.free(child);
        Ok(())
    }

    /// Rename (move) an entry, replacing any existing file or symlink at the
    /// destination — the primitive behind atomic symlink switches (profile
    /// repointing). Fails if the destination is a non-empty directory.
    pub fn rename(&mut self, from: &str, to: &str) -> VfsResult<()> {
        self.generation += 1;
        let from_dir = self.resolve(&path::parent(from), true)?;
        let from_name = path::basename(from).to_string();
        let moved = match self.node(from_dir) {
            Node::Dir { entries } => entries
                .get(&from_name)
                .copied()
                .ok_or_else(|| VfsError::NotFound(from.to_string()))?,
            _ => return Err(VfsError::NotADirectory(path::parent(from))),
        };
        let to_dir = self.resolve(&path::parent(to), true)?;
        let to_name = path::basename(to).to_string();
        if to_name.is_empty() {
            return Err(VfsError::InvalidPath(to.to_string()));
        }
        if let Node::Dir { entries } = self.node(to_dir) {
            if let Some(&existing) = entries.get(&to_name) {
                if let Node::Dir { entries: e } = self.node(existing) {
                    if !e.is_empty() {
                        return Err(VfsError::NotEmpty(to.to_string()));
                    }
                }
                self.free(existing);
            }
        }
        match self.node_mut(from_dir) {
            Node::Dir { entries } => {
                entries.remove(&from_name);
            }
            _ => unreachable!(),
        }
        match self.node_mut(to_dir) {
            Node::Dir { entries } => {
                entries.insert(to_name, moved);
            }
            _ => unreachable!(),
        }
        Ok(())
    }

    /// Recursively remove a subtree (used for package uninstall simulation).
    pub fn remove_all(&mut self, p: &str) -> VfsResult<()> {
        self.generation += 1;
        let ino = self.resolve(p, false)?;
        let mut stack = vec![ino];
        let mut to_delete = vec![ino];
        while let Some(cur) = stack.pop() {
            if let Node::Dir { entries } = self.node(cur) {
                for &c in entries.values() {
                    stack.push(c);
                    to_delete.push(c);
                }
            }
        }
        for ino in to_delete {
            self.free(ino);
        }
        let dir = path::parent(p);
        let name = path::basename(p).to_string();
        if let Ok(dir_ino) = self.resolve(&dir, true) {
            if let Node::Dir { entries } = self.node_mut(dir_ino) {
                entries.remove(&name);
            }
        }
        Ok(())
    }

    pub fn node_count(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tree {
        Tree::new()
    }

    #[test]
    fn mkdir_and_stat() {
        let mut tr = t();
        tr.mkdir_p("/a/b/c").unwrap();
        let m = tr.metadata("/a/b/c", true).unwrap();
        assert_eq!(m.kind, FileKind::Dir);
        // idempotent
        tr.mkdir_p("/a/b/c").unwrap();
    }

    #[test]
    fn write_read_roundtrip() {
        let mut tr = t();
        tr.mkdir_p("/lib").unwrap();
        tr.write_file("/lib/x", vec![1, 2, 3]).unwrap();
        assert_eq!(*tr.read_file("/lib/x").unwrap(), vec![1, 2, 3]);
        // overwrite keeps same inode
        let i1 = tr.metadata("/lib/x", true).unwrap().inode;
        tr.write_file("/lib/x", vec![9]).unwrap();
        let i2 = tr.metadata("/lib/x", true).unwrap().inode;
        assert_eq!(i1, i2);
        assert_eq!(*tr.read_file("/lib/x").unwrap(), vec![9]);
    }

    #[test]
    fn missing_paths_err() {
        let tr = t();
        assert!(matches!(tr.metadata("/nope", true), Err(VfsError::NotFound(_))));
        assert!(matches!(tr.read_file("/nope"), Err(VfsError::NotFound(_))));
    }

    #[test]
    fn symlink_resolution_relative_and_absolute() {
        let mut tr = t();
        tr.mkdir_p("/usr/lib").unwrap();
        tr.write_file("/usr/lib/libm.so.6", vec![7]).unwrap();
        tr.symlink("/usr/lib/libm.so", "libm.so.6").unwrap();
        tr.mkdir_p("/alias").unwrap();
        tr.symlink("/alias/m", "/usr/lib/libm.so").unwrap();
        assert_eq!(*tr.read_file("/alias/m").unwrap(), vec![7]);
        assert_eq!(tr.canonicalize("/alias/m").unwrap(), "/usr/lib/libm.so.6");
        // lstat sees the link itself
        assert_eq!(tr.metadata("/alias/m", false).unwrap().kind, FileKind::Symlink);
        assert_eq!(tr.readlink("/alias/m").unwrap(), "/usr/lib/libm.so");
    }

    #[test]
    fn symlink_through_directories() {
        let mut tr = t();
        tr.mkdir_p("/store/pkg-1.0/lib").unwrap();
        tr.write_file("/store/pkg-1.0/lib/liba.so", vec![1]).unwrap();
        tr.mkdir_p("/opt").unwrap();
        tr.symlink("/opt/pkg", "/store/pkg-1.0").unwrap();
        assert_eq!(*tr.read_file("/opt/pkg/lib/liba.so").unwrap(), vec![1]);
    }

    #[test]
    fn symlink_loop_detected() {
        let mut tr = t();
        tr.mkdir_p("/d").unwrap();
        tr.symlink("/d/a", "b").unwrap();
        tr.symlink("/d/b", "a").unwrap();
        assert!(matches!(tr.read_file("/d/a"), Err(VfsError::SymlinkLoop(_))));
    }

    #[test]
    fn same_inode_through_hardlink_like_symlinks() {
        let mut tr = t();
        tr.mkdir_p("/lib").unwrap();
        tr.write_file("/lib/real.so", vec![5]).unwrap();
        tr.symlink("/lib/alias.so", "real.so").unwrap();
        let a = tr.metadata("/lib/alias.so", true).unwrap().inode;
        let b = tr.metadata("/lib/real.so", true).unwrap().inode;
        assert_eq!(a, b, "musl-style (dev,ino) dedup depends on this");
    }

    #[test]
    fn remove_and_remove_all() {
        let mut tr = t();
        tr.mkdir_p("/a/b").unwrap();
        tr.write_file("/a/b/f", vec![]).unwrap();
        assert!(matches!(tr.remove("/a/b"), Err(VfsError::NotEmpty(_))));
        tr.remove("/a/b/f").unwrap();
        tr.remove("/a/b").unwrap();
        tr.mkdir_p("/a/c/d").unwrap();
        tr.write_file("/a/c/d/f", vec![]).unwrap();
        let before = tr.node_count();
        tr.remove_all("/a/c").unwrap();
        assert!(tr.node_count() < before);
        assert!(tr.metadata("/a/c", true).is_err());
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut tr = t();
        tr.mkdir_p("/p").unwrap();
        tr.write_file("/p/old", vec![1]).unwrap();
        tr.rename("/p/old", "/p/new").unwrap();
        assert!(tr.metadata("/p/old", false).is_err());
        assert_eq!(*tr.read_file("/p/new").unwrap(), vec![1]);
        // replace an existing symlink atomically (the profile switch)
        tr.symlink("/p/current", "new").unwrap();
        tr.symlink("/p/current.tmp", "new").unwrap();
        tr.rename("/p/current.tmp", "/p/current").unwrap();
        assert_eq!(tr.readlink("/p/current").unwrap(), "new");
        // refuse to clobber a non-empty directory
        tr.mkdir_p("/p/dir/sub").unwrap();
        tr.write_file("/p/f", vec![]).unwrap();
        assert!(matches!(tr.rename("/p/f", "/p/dir"), Err(VfsError::NotEmpty(_))));
    }

    #[test]
    fn list_dir_sorted() {
        let mut tr = t();
        tr.mkdir_p("/d").unwrap();
        tr.write_file("/d/b", vec![]).unwrap();
        tr.write_file("/d/a", vec![]).unwrap();
        assert_eq!(tr.list_dir("/d").unwrap(), vec!["a".to_string(), "b".to_string()]);
    }
}
