//! The public [`Vfs`] type: namespace + accounting + cost model.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::counters::CounterSnapshot;
use crate::error::{VfsError, VfsResult};
use crate::intern::{intern, PathId};
use crate::latency::{Backend, CostModel};
use crate::strace::{Op, Outcome, StraceLog, Syscall};
use crate::tree::{Inode, Metadata, Tree};

/// A thread-safe simulated filesystem.
///
/// **Accounted** operations model syscalls the dynamic loader issues at
/// runtime: [`Vfs::stat`], [`Vfs::try_open`], [`Vfs::open`], [`Vfs::read_file`],
/// [`Vfs::readlink`]. Each charges the cost model, advances the simulated
/// clock, counts itself and appends to the strace log when enabled, all
/// under one lock: the accounting record's.
///
/// **Unaccounted** (setup) operations build the world before the experiment
/// starts: [`Vfs::mkdir_p`], [`Vfs::write_file`], [`Vfs::symlink`],
/// [`Vfs::remove`], [`Vfs::list_dir`], [`Vfs::exists`]. Installing a package
/// is not part of process startup, so it costs nothing.
pub struct Vfs {
    tree: RwLock<Tree>,
    meter: Mutex<Meter>,
}

/// Everything an accounted operation updates, so that one lock covers it.
struct Meter {
    cost: CostModel,
    clock_ns: u64,
    counts: CounterSnapshot,
    log: Option<StraceLog>,
}

impl Vfs {
    /// Create an empty filesystem over the given storage backend.
    pub fn new(backend: Backend) -> Self {
        Vfs {
            tree: RwLock::new(Tree::new()),
            meter: Mutex::new(Meter {
                cost: CostModel::new(backend),
                clock_ns: 0,
                counts: CounterSnapshot::default(),
                log: None,
            }),
        }
    }

    /// Shortcut for a local-backend filesystem.
    pub fn local() -> Self {
        Vfs::new(Backend::local())
    }

    /// Shortcut for an NFS-backend filesystem (negative caching off).
    pub fn nfs() -> Self {
        Vfs::new(Backend::nfs())
    }

    // ---- accounting plumbing -------------------------------------------

    fn charge(&self, op: Op, path: &str, outcome: Outcome, bytes: u64) -> u64 {
        // One interner lookup per accounted op; the id then serves the cost
        // model's caches and the strace log without further allocation.
        let key = intern(path);
        self.charge_keyed(op, key, key, outcome, bytes)
    }

    /// Like [`Vfs::charge`] but with a distinct cache key, for charges that
    /// model a different span of the same file (e.g. mapping segments vs
    /// reading the header).
    fn charge_keyed(
        &self,
        op: Op,
        path: PathId,
        cache_key: PathId,
        outcome: Outcome,
        bytes: u64,
    ) -> u64 {
        let mut m = self.meter.lock();
        let cost = m.cost.op_cost(op, cache_key, outcome, bytes);
        m.clock_ns += cost;
        m.counts.record(op, outcome);
        if let Some(log) = m.log.as_mut() {
            log.push(Syscall { op, path, outcome, cost_ns: cost });
        }
        cost
    }

    fn outcome_of<T>(r: &VfsResult<T>) -> Outcome {
        match r {
            Ok(_) => Outcome::Ok,
            Err(e) if e.is_not_found() => Outcome::Enoent,
            Err(_) => Outcome::Error,
        }
    }

    /// The syscall counts so far; take [`CounterSnapshot::since`] deltas
    /// around a region of interest.
    pub fn snapshot(&self) -> CounterSnapshot {
        self.meter.lock().counts
    }

    /// Simulated elapsed time accumulated by accounted operations.
    pub fn elapsed_ns(&self) -> u64 {
        self.meter.lock().clock_ns
    }

    /// Reset the simulated clock (the counts keep running).
    pub fn reset_clock(&self) {
        self.meter.lock().clock_ns = 0;
    }

    /// Switch storage backend (caches are preserved; call
    /// [`Vfs::drop_caches`] for a cold start).
    pub fn set_backend(&self, backend: Backend) {
        self.meter.lock().cost.set_backend(backend);
    }

    /// Current storage backend.
    pub fn backend(&self) -> Backend {
        self.meter.lock().cost.backend()
    }

    /// Make every future access cold again.
    pub fn drop_caches(&self) {
        self.meter.lock().cost.drop_caches();
    }

    /// Begin recording an strace log (replaces any active log).
    pub fn start_trace(&self) {
        self.meter.lock().log = Some(StraceLog::new());
    }

    /// Stop recording and return the log (empty if tracing wasn't active).
    pub fn stop_trace(&self) -> StraceLog {
        self.meter.lock().log.take().unwrap_or_default()
    }

    // ---- accounted operations (the loader's syscalls) -------------------

    /// `stat(2)`: follow symlinks, return metadata.
    pub fn stat(&self, path: &str) -> VfsResult<Metadata> {
        let r = self.tree.read().metadata(path, true);
        self.charge(Op::Stat, path, Self::outcome_of(&r), 0);
        r
    }

    /// `lstat(2)`: do not follow a final symlink.
    pub fn lstat(&self, path: &str) -> VfsResult<Metadata> {
        let r = self.tree.read().metadata(path, false);
        self.charge(Op::Stat, path, Self::outcome_of(&r), 0);
        r
    }

    /// `openat(2)` on a file for reading; returns metadata of the opened
    /// inode. Fails on directories.
    pub fn open(&self, path: &str) -> VfsResult<Metadata> {
        let r = self.tree.read().metadata(path, true).and_then(|m| {
            if m.kind == crate::tree::FileKind::Dir {
                Err(VfsError::IsADirectory(path.to_string()))
            } else {
                Ok(m)
            }
        });
        self.charge(Op::Openat, path, Self::outcome_of(&r), 0);
        r
    }

    /// `openat` that treats ENOENT as `None` — the loader's probe of a
    /// search-path candidate.
    pub fn try_open(&self, path: &str) -> Option<Metadata> {
        self.open(path).ok()
    }

    /// `read(2)` of the whole file (the loader mapping an object).
    pub fn read_file(&self, path: &str) -> VfsResult<Arc<Vec<u8>>> {
        let r = self.tree.read().read_file(path);
        let bytes = r.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.charge(Op::Read, path, Self::outcome_of(&r), bytes);
        r
    }

    /// Charge an additional accounted read of `bytes` against `path`
    /// without materialising data — used for objects whose declared
    /// (virtual) size exceeds their stored representation, like the
    /// simulated 213 MiB Pynamic executable.
    pub fn charge_read(&self, path: &str, bytes: u64) {
        // Separate cache key: reading the ELF header does not page in the
        // mapped segments, so the first mapping is cold even after a read.
        // (One transient format per *mapping* charge — object loads, not
        // probe misses — so this stays off the per-op hot path.)
        self.charge_keyed(
            Op::Read,
            intern(path),
            intern(&format!("{path}#map")),
            Outcome::Ok,
            bytes,
        );
    }

    /// `readlink(2)`.
    pub fn readlink(&self, path: &str) -> VfsResult<String> {
        let r = self.tree.read().readlink(path);
        self.charge(Op::Readlink, path, Self::outcome_of(&r), 0);
        r
    }

    // ---- unaccounted (setup) operations ---------------------------------

    /// Create a directory chain (like `mkdir -p`). Not accounted.
    pub fn mkdir_p(&self, path: &str) -> VfsResult<()> {
        self.tree.write().mkdir_p(path)
    }

    /// Create or overwrite a file. Parent must exist. Not accounted.
    pub fn write_file(&self, path: &str, data: Vec<u8>) -> VfsResult<Inode> {
        self.tree.write().write_file(path, data)
    }

    /// Create parents then write. Not accounted.
    pub fn write_file_p(&self, path: &str, data: Vec<u8>) -> VfsResult<Inode> {
        self.tree.write().mkdir_p(&crate::path::parent(path))?;
        self.tree.write().write_file(path, data)
    }

    /// Create a symlink. Not accounted.
    pub fn symlink(&self, path: &str, target: &str) -> VfsResult<()> {
        self.tree.write().symlink(path, target)
    }

    /// Remove a file or empty directory. Not accounted.
    pub fn remove(&self, path: &str) -> VfsResult<()> {
        self.tree.write().remove(path)
    }

    /// Recursively remove a subtree. Not accounted.
    pub fn remove_all(&self, path: &str) -> VfsResult<()> {
        self.tree.write().remove_all(path)
    }

    /// Rename an entry, replacing any existing file/symlink at `to` in one
    /// step (the atomic-switch primitive). Not accounted.
    pub fn rename(&self, from: &str, to: &str) -> VfsResult<()> {
        self.tree.write().rename(from, to)
    }

    /// List directory entries (sorted). Not accounted — used by tooling, not
    /// by the load path.
    pub fn list_dir(&self, path: &str) -> VfsResult<Vec<String>> {
        self.tree.read().list_dir(path)
    }

    /// Existence check without accounting (test/bench setup convenience).
    pub fn exists(&self, path: &str) -> bool {
        self.tree.read().metadata(path, true).is_ok()
    }

    /// Metadata without accounting (tooling convenience).
    pub fn peek(&self, path: &str) -> VfsResult<Metadata> {
        self.tree.read().metadata(path, true)
    }

    /// Read file contents without accounting (tooling convenience).
    pub fn peek_file(&self, path: &str) -> VfsResult<Arc<Vec<u8>>> {
        self.tree.read().read_file(path)
    }

    /// Resolve all symlinks to the physical path. Not accounted.
    pub fn canonicalize(&self, path: &str) -> VfsResult<String> {
        self.tree.read().canonicalize(path)
    }

    /// Number of live inodes (diagnostics; dependency-view symlink-farm cost).
    pub fn inode_count(&self) -> usize {
        self.tree.read().node_count()
    }
}

impl std::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vfs")
            .field("inodes", &self.inode_count())
            .field("counters", &self.snapshot())
            .field("elapsed_ns", &self.elapsed_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounted_ops_bump_counters_and_clock() {
        let fs = Vfs::local();
        fs.mkdir_p("/lib").unwrap();
        fs.write_file("/lib/a", vec![1, 2, 3]).unwrap();
        let before = fs.snapshot();
        assert_eq!(before.total(), 0, "setup is unaccounted");
        fs.stat("/lib/a").unwrap();
        fs.open("/lib/a").unwrap();
        fs.read_file("/lib/a").unwrap();
        assert!(fs.stat("/lib/missing").is_err());
        let after = fs.snapshot();
        assert_eq!(after.stat, 2);
        assert_eq!(after.openat, 1);
        assert_eq!(after.read, 1);
        assert_eq!(after.misses, 1);
        assert!(fs.elapsed_ns() > 0);
    }

    #[test]
    fn trace_scope_captures_ops() {
        let fs = Vfs::local();
        fs.write_file_p("/lib/a", vec![]).unwrap();
        fs.start_trace();
        fs.try_open("/lib/nope");
        fs.try_open("/lib/a");
        let log = fs.stop_trace();
        assert_eq!(log.len(), 2);
        assert_eq!(log.misses(), 1);
        assert_eq!(log.stat_openat(), 2);
        // tracing off afterwards
        fs.try_open("/lib/a");
        assert!(fs.stop_trace().is_empty());
    }

    #[test]
    fn warm_cold_distinction_via_clock() {
        let fs = Vfs::nfs();
        fs.write_file_p("/nfs/lib/a", vec![]).unwrap();
        fs.stat("/nfs/lib/a").unwrap();
        let cold = fs.elapsed_ns();
        fs.reset_clock();
        fs.stat("/nfs/lib/a").unwrap();
        let warm = fs.elapsed_ns();
        assert!(cold > warm * 10, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn try_open_is_quiet_about_missing() {
        let fs = Vfs::local();
        fs.mkdir_p("/lib").unwrap();
        assert!(fs.try_open("/lib/ghost.so").is_none());
        assert_eq!(fs.snapshot().openat, 1);
    }

    #[test]
    fn open_directory_fails() {
        let fs = Vfs::local();
        fs.mkdir_p("/lib").unwrap();
        assert!(matches!(fs.open("/lib"), Err(VfsError::IsADirectory(_))));
    }

    #[test]
    fn write_file_p_creates_parents() {
        let fs = Vfs::local();
        fs.write_file_p("/a/b/c/file", vec![9]).unwrap();
        assert_eq!(*fs.peek_file("/a/b/c/file").unwrap(), vec![9]);
    }

    #[test]
    fn backend_switch_changes_costs() {
        let fs = Vfs::local();
        fs.write_file_p("/lib/a", vec![]).unwrap();
        fs.stat("/lib/a").unwrap();
        fs.reset_clock();
        fs.set_backend(Backend::nfs());
        assert!(matches!(fs.backend(), Backend::Nfs(_)));
        fs.drop_caches();
        fs.stat("/lib/a").unwrap();
        assert!(fs.elapsed_ns() >= 200_000, "cold NFS stat costs a round trip");
    }

    #[test]
    fn rename_through_vfs_facade() {
        let fs = Vfs::local();
        fs.write_file_p("/d/a", vec![1]).unwrap();
        fs.rename("/d/a", "/d/b").unwrap();
        assert!(!fs.exists("/d/a"));
        assert_eq!(*fs.peek_file("/d/b").unwrap(), vec![1]);
    }

    #[test]
    fn threads_share_counters() {
        let fs = std::sync::Arc::new(Vfs::local());
        fs.write_file_p("/lib/a", vec![]).unwrap();
        let mut handles = vec![];
        for _ in 0..8 {
            let fs = std::sync::Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    fs.stat("/lib/a").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fs.snapshot().stat, 800);
    }
}
