//! libtree-style static dependency analysis (Listing 1).
//!
//! Unlike [`crate::GlibcLoader::load`], which models what the loader
//! actually does (including the soname dedup cache that *hides* broken
//! search paths), this analysis resolves every object's needed list
//! independently. A library that is only reachable because something else
//! loaded it earlier shows up here as `not found` — exactly the danger
//! `libtree /usr/bin/dbwrap_tool` exposes in the paper.
//!
//! Each request walks the loader's own search order,
//! [`crate::glibc::glibc_order`], over the depth-first path from the
//! executable to the requester, with the loader's accounted probes — so a
//! traced analysis shows every `openat` libtree would make. Only the dedup
//! cache is left out.

use depchaos_elf::{ElfObject, Machine};
use depchaos_vfs::Vfs;
use std::collections::HashSet;

use crate::env::Environment;
use crate::glibc::glibc_order;
use crate::ldcache::LdCache;
use crate::resolve::{probe_exact, Provenance};
use crate::result::LoadError;

/// One node in the printed tree.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// The needed string requested (or the executable path at the root).
    pub name: String,
    /// Resolved path, if any.
    pub path: Option<String>,
    /// How it resolved (`None` means not found).
    pub provenance: Option<Provenance>,
    /// Children (needed entries of the resolved object). Empty when the
    /// node is unresolved or its subtree was already expanded elsewhere.
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    /// True if this entry failed to resolve.
    pub fn not_found(&self) -> bool {
        self.path.is_none()
    }
}

/// The full analysis result.
#[derive(Debug, Clone)]
pub struct DepTree {
    pub root: TreeNode,
}

impl DepTree {
    /// All `not found` entries, with the requesting chain's leaf name.
    pub fn missing(&self) -> Vec<&TreeNode> {
        let mut out = Vec::new();
        fn walk<'a>(n: &'a TreeNode, out: &mut Vec<&'a TreeNode>) {
            if n.not_found() {
                out.push(n);
            }
            for c in &n.children {
                walk(c, out);
            }
        }
        walk(&self.root, &mut out);
        out
    }

    /// Total number of nodes (requests) in the tree.
    pub fn node_count(&self) -> usize {
        fn walk(n: &TreeNode) -> usize {
            1 + n.children.iter().map(walk).sum::<usize>()
        }
        walk(&self.root)
    }

    /// Render in the Listing 1 style:
    ///
    /// ```text
    /// /usr/bin/dbwrap_tool
    ///     libpopt-samba3-samba4.so [runpath]
    ///         libsamba-debug-samba4.so not found
    /// ```
    pub fn render(&self) -> String {
        let mut s = String::new();
        fn walk(n: &TreeNode, depth: usize, s: &mut String) {
            for _ in 0..depth {
                s.push_str("    ");
            }
            if depth == 0 {
                s.push_str(&n.name);
            } else if n.not_found() {
                s.push_str(&format!("{} not found", n.name));
            } else {
                s.push_str(&format!("{} [{}]", n.name, n.provenance.as_ref().unwrap().tag()));
            }
            s.push('\n');
            for c in &n.children {
                walk(c, depth + 1, s);
            }
        }
        walk(&self.root, 0, &mut s);
        s
    }
}

/// Analyze `exe_path` with glibc search semantics, per-object (no dedup
/// cache). Subtrees of an already-expanded path are pruned to keep the tree
/// finite, matching libtree's behaviour.
pub fn analyze_tree(
    fs: &Vfs,
    exe_path: &str,
    env: &Environment,
    cache: &LdCache,
) -> Result<DepTree, LoadError> {
    let bytes = fs.peek_file(exe_path).map_err(|_| LoadError::ExeNotFound(exe_path.to_string()))?;
    let exe =
        ElfObject::parse(&bytes).map_err(|_| LoadError::ExeUnparseable(exe_path.to_string()))?;
    let want_arch = exe.machine;
    let mut expanded: HashSet<String> = HashSet::new();
    expanded.insert(exe_path.to_string());

    // The depth-first path from the executable to the requester, as
    // (object, its path): the loader chain `glibc_order` walks, reversed.
    let mut chain: Vec<(ElfObject, String)> = vec![(exe, exe_path.to_string())];
    let children = expand(fs, env, cache, want_arch, &mut chain, &mut expanded);
    let root = TreeNode {
        name: exe_path.to_string(),
        path: Some(exe_path.to_string()),
        provenance: Some(Provenance::Executable),
        children,
    };
    Ok(DepTree { root })
}

fn expand(
    fs: &Vfs,
    env: &Environment,
    cache: &LdCache,
    want_arch: Machine,
    chain: &mut Vec<(ElfObject, String)>,
    expanded: &mut HashSet<String>,
) -> Vec<TreeNode> {
    let needed = chain.last().unwrap().0.needed.clone();
    let mut out = Vec::with_capacity(needed.len());
    for name in needed {
        let requester_first = chain.iter().rev().map(|(obj, path)| (obj, path.as_str()));
        let found = glibc_order(requester_first, &name, env, cache, want_arch, |path| {
            probe_exact(fs, path, want_arch)
        });
        match found {
            Some((cand, provenance)) => {
                let path = cand.path;
                let first_time = expanded.insert(path.clone());
                let children = if first_time {
                    chain.push((cand.object, path.clone()));
                    let c = expand(fs, env, cache, want_arch, chain, expanded);
                    chain.pop();
                    c
                } else {
                    Vec::new()
                };
                out.push(TreeNode {
                    name,
                    path: Some(path),
                    provenance: Some(provenance),
                    children,
                });
            }
            None => out.push(TreeNode { name, path: None, provenance: None, children: Vec::new() }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glibc::GlibcLoader;
    use depchaos_elf::io::install;

    /// The Listing 1 shape: a library whose own search paths cannot find a
    /// dependency that happens to be loaded earlier through a sibling.
    fn samba_like() -> Vfs {
        let fs = Vfs::local();
        install(
            &fs,
            "/usr/bin/tool",
            &ElfObject::exe("tool")
                .needs("libfirst.so")
                .needs("libbroken.so")
                .runpath("/samba/lib")
                .build(),
        )
        .unwrap();
        install(
            &fs,
            "/samba/lib/libfirst.so",
            &ElfObject::dso("libfirst.so").needs("libhidden.so").runpath("/samba/private").build(),
        )
        .unwrap();
        // libbroken has NO search path at all for libhidden.
        install(
            &fs,
            "/samba/lib/libbroken.so",
            &ElfObject::dso("libbroken.so").needs("libhidden.so").build(),
        )
        .unwrap();
        install(&fs, "/samba/private/libhidden.so", &ElfObject::dso("libhidden.so").build())
            .unwrap();
        fs
    }

    #[test]
    fn static_analysis_exposes_what_dedup_hides() {
        let fs = samba_like();
        // The dynamic loader succeeds...
        let r = GlibcLoader::new(&fs).load("/usr/bin/tool").unwrap();
        assert!(r.success());
        // ...but the tree shows the latent breakage.
        let tree =
            analyze_tree(&fs, "/usr/bin/tool", &Environment::default(), &LdCache::empty()).unwrap();
        let missing = tree.missing();
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].name, "libhidden.so");
        let text = tree.render();
        assert!(text.contains("libhidden.so not found"), "{text}");
        assert!(text.contains("libfirst.so [runpath]"), "{text}");
    }

    #[test]
    fn duplicate_subtrees_pruned() {
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("liba.so").needs("libb.so").runpath("/l").build(),
        )
        .unwrap();
        install(
            &fs,
            "/l/liba.so",
            &ElfObject::dso("liba.so").needs("libc6.so").runpath("/l").build(),
        )
        .unwrap();
        install(
            &fs,
            "/l/libb.so",
            &ElfObject::dso("libb.so").needs("libc6.so").runpath("/l").build(),
        )
        .unwrap();
        install(&fs, "/l/libc6.so", &ElfObject::dso("libc6.so").build()).unwrap();
        let tree =
            analyze_tree(&fs, "/bin/app", &Environment::default(), &LdCache::empty()).unwrap();
        // libc6 appears under both liba and libb, but only as a leaf the
        // second time; total node count is root + 2 libs + 2 libc refs.
        assert_eq!(tree.node_count(), 5);
        assert_eq!(tree.missing().len(), 0);
    }

    #[test]
    fn render_root_then_indented_children() {
        let fs = samba_like();
        let tree =
            analyze_tree(&fs, "/usr/bin/tool", &Environment::default(), &LdCache::empty()).unwrap();
        let text = tree.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "/usr/bin/tool");
        assert!(lines[1].starts_with("    libfirst.so"));
    }
}
