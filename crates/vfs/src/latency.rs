//! Simulated syscall cost models.
//!
//! The paper's performance results hinge on where binaries live:
//!
//! * **Local filesystem** — metadata operations are cheap; a cold dentry
//!   cache costs a few microseconds, a warm one well under one.
//! * **NFS** — every uncached metadata lookup is a network round trip. LLNL
//!   systems additionally run with *negative caching disabled* (the paper
//!   notes this explicitly), so repeated misses for the same nonexistent
//!   path pay the round trip every time. This is the regime in which a
//!   3,600-lookup `emacs` startup or a 512-rank Pynamic launch becomes
//!   catastrophically slow (Table II, Fig 6).
//!
//! Costs are deterministic simulated nanoseconds so experiments are exactly
//! reproducible. Absolute values are calibrated to commodity hardware; only
//! ratios matter for the reproduction.

use std::collections::HashSet;
use std::fmt;

use crate::intern::PathId;
use crate::strace::{Op, Outcome};

/// Parameters for the local-filesystem cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalParams {
    /// Cost of a metadata op that hits the dentry/page cache.
    pub warm_ns: u64,
    /// Cost of a metadata op that must touch the backing store.
    pub cold_ns: u64,
    /// Per-byte cost of reading file data (cold).
    pub read_ns_per_kib: u64,
}

impl Default for LocalParams {
    fn default() -> Self {
        // ~600ns warm stat, ~6us cold, ~1us/KiB cold read.
        LocalParams { warm_ns: 600, cold_ns: 6_000, read_ns_per_kib: 1_000 }
    }
}

/// Parameters for the NFS cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NfsParams {
    /// One metadata round trip to the server (LOOKUP/GETATTR/OPEN).
    pub rtt_ns: u64,
    /// Cost when the client attribute cache already has the answer.
    pub warm_ns: u64,
    /// Whether the client caches negative lookups. The paper's LLNL systems
    /// disable this, making failed searches maximally expensive.
    pub negative_caching: bool,
    /// Per-KiB cost of reading file data over the wire.
    pub read_ns_per_kib: u64,
}

impl Default for NfsParams {
    fn default() -> Self {
        // ~200us RTT (datacenter NFS under light load), 1us client-cache hit.
        NfsParams {
            rtt_ns: 200_000,
            warm_ns: 1_000,
            negative_caching: false,
            read_ns_per_kib: 4_000,
        }
    }
}

/// Which storage backend a [`crate::Vfs`] simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    Local(LocalParams),
    Nfs(NfsParams),
}

impl Backend {
    /// Local filesystem with default calibration.
    pub fn local() -> Self {
        Backend::Local(LocalParams::default())
    }

    /// NFS with default calibration (negative caching **off**, as on the
    /// paper's LLNL systems).
    pub fn nfs() -> Self {
        Backend::Nfs(NfsParams::default())
    }

    /// NFS with negative caching enabled, for ablations.
    pub fn nfs_with_negative_caching() -> Self {
        Backend::Nfs(NfsParams { negative_caching: true, ..NfsParams::default() })
    }
}

/// A *nameable* storage configuration — the data form of [`Backend`] that
/// experiment matrices enumerate, serialize, and print. Where [`Backend`]
/// carries calibration parameters, a `StorageModel` is pure identity: the
/// scenario axis "where do the binaries live".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageModel {
    /// Local filesystem (warm/cold dentry cache).
    Local,
    /// NFS with negative caching disabled — the paper's LLNL configuration
    /// and the regime Fig 6 measures.
    Nfs,
    /// NFS with negative caching enabled, the ablation the paper mentions.
    NfsNegativeCaching,
}

impl StorageModel {
    /// Every storage model, for sweeps.
    pub fn all() -> [StorageModel; 3] {
        [StorageModel::Local, StorageModel::Nfs, StorageModel::NfsNegativeCaching]
    }

    /// Stable display/report name.
    pub fn name(&self) -> &'static str {
        match self {
            StorageModel::Local => "local",
            StorageModel::Nfs => "nfs",
            StorageModel::NfsNegativeCaching => "nfs+negcache",
        }
    }

    /// Inverse of [`StorageModel::name`] — report and serve front ends
    /// parse the storage axis by the exact names the sweeps print.
    pub fn parse(s: &str) -> Option<StorageModel> {
        StorageModel::all().into_iter().find(|m| m.name() == s)
    }

    /// The calibrated [`Backend`] this model names.
    pub fn backend(&self) -> Backend {
        match self {
            StorageModel::Local => Backend::local(),
            StorageModel::Nfs => Backend::nfs(),
            StorageModel::NfsNegativeCaching => Backend::nfs_with_negative_caching(),
        }
    }
}

impl fmt::Display for StorageModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tracks which (path, outcome) pairs are cached, i.e. warm.
///
/// Keyed by interned [`PathId`] — recording a cache entry stores a 4-byte
/// id, not a cloned `String`, so the per-op cost of the model is a couple of
/// integer hash probes and zero allocation.
///
/// A positive entry means attributes are cached, a negative entry means the
/// *absence* is cached (only honoured when the backend enables negative
/// caching).
#[derive(Debug, Default)]
pub struct AttrCache {
    positive: HashSet<PathId>,
    negative: HashSet<PathId>,
    /// File *contents* cached (page cache) — separate from attributes: an
    /// `openat` warms the dentry/attr path but the first `read` still moves
    /// the bytes.
    data: HashSet<PathId>,
}

impl AttrCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop everything — simulates `echo 3 > /proc/sys/vm/drop_caches` or a
    /// fresh client mount. Benchmarks call this to measure cold-start.
    pub fn drop_caches(&mut self) {
        self.positive.clear();
        self.negative.clear();
        self.data.clear();
    }

    pub fn data_is_warm(&self, path: PathId) -> bool {
        self.data.contains(&path)
    }

    pub fn record_data(&mut self, path: PathId) {
        self.data.insert(path);
    }

    pub fn is_warm(&self, path: PathId, ok: bool, negative_caching: bool) -> bool {
        if ok {
            self.positive.contains(&path)
        } else {
            negative_caching && self.negative.contains(&path)
        }
    }

    pub fn record(&mut self, path: PathId, ok: bool) {
        if ok {
            self.positive.insert(path);
            self.negative.remove(&path);
        } else {
            self.negative.insert(path);
        }
    }

    /// Number of cached entries (diagnostics).
    pub fn len(&self) -> usize {
        self.positive.len() + self.negative.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positive.is_empty() && self.negative.is_empty()
    }
}

/// Computes simulated cost per syscall and maintains the cache.
#[derive(Debug)]
pub struct CostModel {
    backend: Backend,
    cache: AttrCache,
}

impl CostModel {
    pub fn new(backend: Backend) -> Self {
        CostModel { backend, cache: AttrCache::new() }
    }

    pub fn backend(&self) -> Backend {
        self.backend
    }

    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    pub fn drop_caches(&mut self) {
        self.cache.drop_caches();
    }

    pub fn cache(&self) -> &AttrCache {
        &self.cache
    }

    /// Cost of one metadata syscall (`stat`/`openat`/`readlink`) against
    /// `path` with the given outcome; updates the cache.
    pub fn metadata_cost(&mut self, path: PathId, outcome: Outcome) -> u64 {
        let ok = outcome == Outcome::Ok;
        let (warm_ns, cold_ns, negative_caching) = match self.backend {
            Backend::Local(p) => (p.warm_ns, p.cold_ns, true),
            Backend::Nfs(p) => (p.warm_ns, p.rtt_ns, p.negative_caching),
        };
        let warm = self.cache.is_warm(path, ok, negative_caching);
        self.cache.record(path, ok);
        if warm {
            warm_ns
        } else {
            cold_ns
        }
    }

    /// Cost of reading `bytes` of file data from `path`.
    pub fn read_cost(&mut self, path: PathId, bytes: u64) -> u64 {
        let (per_kib, base) = match self.backend {
            Backend::Local(p) => (p.read_ns_per_kib, p.warm_ns),
            Backend::Nfs(p) => (p.read_ns_per_kib, p.warm_ns),
        };
        let warm = self.cache.data_is_warm(path);
        self.cache.record_data(path);
        self.cache.record(path, true);
        let kib = bytes.div_ceil(1024).max(1);
        if warm {
            base + kib * per_kib / 8
        } else {
            base + kib * per_kib
        }
    }

    /// Cost of one op, dispatching on kind.
    pub fn op_cost(&mut self, op: Op, path: PathId, outcome: Outcome, bytes: u64) -> u64 {
        match op {
            Op::Read => self.read_cost(path, bytes),
            _ => self.metadata_cost(path, outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::intern;

    #[test]
    fn storage_models_name_their_backends() {
        assert_eq!(StorageModel::Local.backend(), Backend::local());
        assert_eq!(StorageModel::Nfs.backend(), Backend::nfs());
        assert_eq!(
            StorageModel::NfsNegativeCaching.backend(),
            Backend::nfs_with_negative_caching()
        );
        let names: Vec<&str> = StorageModel::all().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["local", "nfs", "nfs+negcache"]);
    }

    #[test]
    fn local_warm_after_first_touch() {
        let mut m = CostModel::new(Backend::local());
        let c1 = m.metadata_cost(intern("/lib/x"), Outcome::Ok);
        let c2 = m.metadata_cost(intern("/lib/x"), Outcome::Ok);
        assert!(c1 > c2, "first access cold ({c1}) then warm ({c2})");
    }

    #[test]
    fn nfs_negative_caching_off_pays_rtt_every_time() {
        let mut m = CostModel::new(Backend::nfs());
        let c1 = m.metadata_cost(intern("/lib/missing"), Outcome::Enoent);
        let c2 = m.metadata_cost(intern("/lib/missing"), Outcome::Enoent);
        assert_eq!(c1, c2, "misses never warm without negative caching");
        assert_eq!(c1, NfsParams::default().rtt_ns);
    }

    #[test]
    fn nfs_negative_caching_on_warms_misses() {
        let mut m = CostModel::new(Backend::nfs_with_negative_caching());
        let c1 = m.metadata_cost(intern("/lib/missing"), Outcome::Enoent);
        let c2 = m.metadata_cost(intern("/lib/missing"), Outcome::Enoent);
        assert!(c2 < c1);
    }

    #[test]
    fn drop_caches_makes_cold_again() {
        let mut m = CostModel::new(Backend::local());
        m.metadata_cost(intern("/lib/x"), Outcome::Ok);
        m.drop_caches();
        let c = m.metadata_cost(intern("/lib/x"), Outcome::Ok);
        assert_eq!(c, LocalParams::default().cold_ns);
    }

    #[test]
    fn reads_scale_with_size() {
        let mut m = CostModel::new(Backend::nfs());
        let small = m.read_cost(intern("/lib/a"), 1024);
        m.drop_caches();
        let big = m.read_cost(intern("/lib/b"), 1024 * 1024);
        assert!(big > small * 100);
    }

    #[test]
    fn success_then_failure_not_confused() {
        let mut m = CostModel::new(Backend::nfs_with_negative_caching());
        m.metadata_cost(intern("/p"), Outcome::Enoent);
        // Now the file "appears": positive lookup must not be treated warm.
        let c = m.metadata_cost(intern("/p"), Outcome::Ok);
        assert_eq!(c, NfsParams::default().rtt_ns);
        // and the positive result overwrites the negative entry
        let c2 = m.metadata_cost(intern("/p"), Outcome::Ok);
        assert!(c2 < c);
    }
}
