//! The experiment design space: scenario axes and their cross product.
//!
//! A [`Scenario`] is one point in (workload × loader backend × storage
//! model × wrap state × cache policy × service distribution × fault
//! model × server topology); an
//! [`ExperimentMatrix`] holds the axis values and expands the full cross
//! product. Execution lives in [`crate::experiment`], whose one pipeline
//! ([`ExperimentMatrix::run_with`]) batches the expanded grid through
//! [`crate::batch::BatchPlan`] passes — this module is purely the
//! *description* of what to run, plus the per-cell config derivation
//! ([`Scenario::launch_config`]), which is what
//! makes "Fig 6, but for every backend", "Fig 6, but on local disk with
//! a Spindle cache", or "Fig 6, but under a heavy-tailed metadata
//! server" one-line requests.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use depchaos_core::LoaderBackend;
use depchaos_loader::HashStoreService;
use depchaos_vfs::{StorageModel, Vfs};
use depchaos_workloads::{InstalledWorkload, Workload};

use crate::adaptive::AdaptiveControl;
use crate::config::{LaunchConfig, ServerTopology, ServiceDistribution};
use crate::experiment::scenario_seed;
use crate::fault::FaultModel;

/// The wrap-state axis: is the binary launched as built, or after
/// Shrinkwrap froze its closure?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WrapState {
    Plain,
    Wrapped,
}

impl WrapState {
    pub fn all() -> [WrapState; 2] {
        [WrapState::Plain, WrapState::Wrapped]
    }

    pub fn name(&self) -> &'static str {
        match self {
            WrapState::Plain => "plain",
            WrapState::Wrapped => "wrapped",
        }
    }

    /// Inverse of [`WrapState::name`] — the serve front door parses axis
    /// deltas by the exact names the reports print.
    pub fn parse(s: &str) -> Option<WrapState> {
        WrapState::all().into_iter().find(|w| w.name() == s)
    }
}

/// The cache-policy axis: every node pays the cold stream, or a
/// Spindle-style broadcast cache lets one node pay and the rest replay warm
/// (the paper's "combining Shrinkwrap with an approach like Spindle").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CachePolicy {
    Cold,
    Broadcast,
}

impl CachePolicy {
    pub fn all() -> [CachePolicy; 2] {
        [CachePolicy::Cold, CachePolicy::Broadcast]
    }

    pub fn name(&self) -> &'static str {
        match self {
            CachePolicy::Cold => "cold",
            CachePolicy::Broadcast => "broadcast",
        }
    }

    /// Inverse of [`CachePolicy::name`].
    pub fn parse(s: &str) -> Option<CachePolicy> {
        CachePolicy::all().into_iter().find(|c| c.name() == s)
    }

    /// Apply the policy to a launch configuration.
    pub fn apply(&self, mut cfg: LaunchConfig) -> LaunchConfig {
        cfg.broadcast_cache = matches!(self, CachePolicy::Broadcast);
        cfg
    }
}

/// The backend axis. Stock [`LoaderBackend`]s carry no per-world state and
/// are used as-is; the hash-store service must index the installed world
/// first, so it is built per cell from the install record.
#[derive(Clone)]
pub enum MatrixBackend {
    Stock(LoaderBackend),
    /// A [`HashStoreService`]-backed loader service whose index is
    /// populated from the workload's installed libraries (content digest +
    /// soname alias each).
    HashStore,
}

impl MatrixBackend {
    /// The four backends the per-backend Fig 6 compares.
    pub fn all() -> Vec<MatrixBackend> {
        let mut v: Vec<MatrixBackend> =
            LoaderBackend::all_stock().into_iter().map(MatrixBackend::Stock).collect();
        v.push(MatrixBackend::HashStore);
        v
    }

    pub fn glibc() -> Self {
        MatrixBackend::Stock(LoaderBackend::glibc())
    }

    pub fn musl() -> Self {
        MatrixBackend::Stock(LoaderBackend::musl())
    }

    pub fn name(&self) -> &str {
        match self {
            MatrixBackend::Stock(b) => b.name(),
            MatrixBackend::HashStore => "hash-store",
        }
    }

    /// Inverse of [`MatrixBackend::name`] over the sweepable backends
    /// ([`MatrixBackend::all`]).
    pub fn parse(s: &str) -> Option<MatrixBackend> {
        MatrixBackend::all().into_iter().find(|b| b.name() == s)
    }

    /// Resolve to a concrete [`LoaderBackend`] against an installed world.
    /// Index building is store-side setup, not launch work — but a world
    /// the store cannot index faithfully (e.g. two libraries sharing one
    /// soname) is an error, not a silently mis-indexed cell.
    pub fn backend_for(
        &self,
        fs: &Vfs,
        installed: &InstalledWorkload,
    ) -> Result<LoaderBackend, String> {
        match self {
            MatrixBackend::Stock(b) => Ok(b.clone()),
            MatrixBackend::HashStore => {
                let mut svc = HashStoreService::new();
                for lib in &installed.lib_paths {
                    svc.register_with_soname(fs, lib)
                        .map_err(|e| format!("hash-store index failed for {lib}: {e}"))?;
                }
                Ok(LoaderBackend::service_named("hash-store", Arc::new(svc)))
            }
        }
    }
}

impl std::fmt::Debug for MatrixBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MatrixBackend").field(&self.name()).finish()
    }
}

/// Identity of one *profiling* cell: the axes that change the captured op
/// stream. Wrap state is deliberately absent — one profiling run of a cell
/// captures the plain stream, wraps, and captures the wrapped stream, so
/// each unique (workload, backend, storage) triple is profiled exactly
/// once no matter how many scenarios share it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellKey {
    pub workload: String,
    pub backend: String,
    pub storage: StorageModel,
}

/// One point of the design space, ready to simulate.
#[derive(Clone)]
pub struct Scenario {
    pub workload: Arc<dyn Workload>,
    pub backend: MatrixBackend,
    pub storage: StorageModel,
    pub wrap: WrapState,
    pub cache: CachePolicy,
    pub dist: ServiceDistribution,
    pub fault: FaultModel,
    pub topology: ServerTopology,
}

impl Scenario {
    /// The profile-cache cell this scenario reads from.
    pub fn cell_key(&self) -> CellKey {
        CellKey {
            workload: self.workload.name().to_string(),
            backend: self.backend.name().to_string(),
            storage: self.storage,
        }
    }

    /// The launch configuration this scenario's cells simulate under:
    /// `base` with the cache policy, service distribution, fault model and
    /// topology applied, seeded from `(base.seed, label)` by
    /// [`scenario_seed`] — deterministic across runs and execution orders,
    /// and decorrelated across cells. The one derivation every run path
    /// uses.
    pub fn launch_config(&self, base: &LaunchConfig) -> LaunchConfig {
        LaunchConfig {
            service_dist: self.dist,
            fault: self.fault,
            topology: self.topology,
            seed: scenario_seed(base.seed, &self.spec().label()),
            ..self.cache.apply(base.clone())
        }
    }

    /// Serializable identity (names only) for reports.
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            workload: self.workload.name().to_string(),
            backend: self.backend.name().to_string(),
            storage: self.storage,
            wrap: self.wrap,
            cache: self.cache,
            dist: self.dist,
            fault: self.fault,
            topology: self.topology,
        }
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Scenario({} × {} × {} × {} × {} × {})",
            self.workload.name(),
            self.backend.name(),
            self.storage.name(),
            self.wrap.name(),
            self.cache.name(),
            self.dist.name()
        )
    }
}

/// The data identity of a scenario: every axis by name, serializable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScenarioSpec {
    pub workload: String,
    pub backend: String,
    pub storage: StorageModel,
    pub wrap: WrapState,
    pub cache: CachePolicy,
    pub dist: ServiceDistribution,
    /// Degraded-mode axis; [`FaultModel::None`] for healthy cells. Serde
    /// defaults keep reports written before the axis existed loadable.
    #[serde(default)]
    pub fault: FaultModel,
    /// Metadata-fleet axis; [`ServerTopology::single`] for the paper's one
    /// server. Serde defaults keep pre-axis reports loadable.
    #[serde(default)]
    pub topology: ServerTopology,
}

impl ScenarioSpec {
    /// One-line label, stable across renderers and TSV. Also the input of
    /// the per-cell seed derivation ([`crate::experiment::scenario_seed`]),
    /// which is what makes "reproducible from (seed, cell key)" literal.
    /// The fault segment is appended only for faulted cells, and the
    /// topology segment only for multi-server fleets, so every healthy
    /// single-server label — and therefore every such cell seed — is
    /// byte-identical to what it was before those axes existed.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}/{}/{}/{}",
            self.workload,
            self.backend,
            self.storage.name(),
            self.wrap.name(),
            self.cache.name(),
            self.dist.name()
        );
        if !self.fault.is_none() {
            label.push('/');
            label.push_str(&self.fault.name());
        }
        if !self.topology.is_single() {
            label.push('/');
            label.push_str(&self.topology.name());
        }
        label
    }
}

/// Default replicate count for stochastic scenarios — enough for stable
/// p50/p99 nearest-rank picks without drowning a CI sweep.
pub const DEFAULT_REPLICATES: usize = 11;

/// The experiment matrix: axis values plus the sweep parameters shared by
/// every scenario. `expand()` is the cross product; `run()` (in
/// [`crate::experiment`]) profiles each unique cell once and simulates the
/// whole matrix in batched passes.
#[derive(Clone)]
pub struct ExperimentMatrix {
    pub(crate) workloads: Vec<Arc<dyn Workload>>,
    pub(crate) backends: Vec<MatrixBackend>,
    pub(crate) storages: Vec<StorageModel>,
    pub(crate) wrap_states: Vec<WrapState>,
    pub(crate) cache_policies: Vec<CachePolicy>,
    pub(crate) distributions: Vec<ServiceDistribution>,
    pub(crate) faults: Vec<FaultModel>,
    pub(crate) topologies: Vec<ServerTopology>,
    pub(crate) rank_points: Vec<usize>,
    pub(crate) replicates: usize,
    pub(crate) adaptive: Option<AdaptiveControl>,
    pub(crate) base: LaunchConfig,
}

impl ExperimentMatrix {
    /// An empty matrix with the paper's sweep defaults: 512/1024/2048
    /// ranks, NFS storage, glibc backend, both wrap states, cold caches.
    /// Every axis can be overridden; axes left empty at `expand()` time
    /// fall back to these defaults so a matrix is always runnable.
    pub fn new() -> Self {
        ExperimentMatrix {
            workloads: Vec::new(),
            backends: Vec::new(),
            storages: Vec::new(),
            wrap_states: Vec::new(),
            cache_policies: Vec::new(),
            distributions: Vec::new(),
            faults: Vec::new(),
            topologies: Vec::new(),
            rank_points: Vec::new(),
            replicates: DEFAULT_REPLICATES,
            adaptive: None,
            base: LaunchConfig::default(),
        }
    }

    pub fn workload(mut self, w: impl Workload + 'static) -> Self {
        self.workloads.push(Arc::new(w));
        self
    }

    pub fn workload_arc(mut self, w: Arc<dyn Workload>) -> Self {
        self.workloads.push(w);
        self
    }

    pub fn backend(mut self, b: MatrixBackend) -> Self {
        self.backends.push(b);
        self
    }

    pub fn backends(mut self, bs: impl IntoIterator<Item = MatrixBackend>) -> Self {
        self.backends.extend(bs);
        self
    }

    pub fn storage(mut self, s: StorageModel) -> Self {
        self.storages.push(s);
        self
    }

    pub fn wrap_states(mut self, ws: impl IntoIterator<Item = WrapState>) -> Self {
        self.wrap_states.extend(ws);
        self
    }

    pub fn cache_policies(mut self, cs: impl IntoIterator<Item = CachePolicy>) -> Self {
        self.cache_policies.extend(cs);
        self
    }

    pub fn distribution(mut self, d: ServiceDistribution) -> Self {
        self.distributions.push(d);
        self
    }

    pub fn distributions(mut self, ds: impl IntoIterator<Item = ServiceDistribution>) -> Self {
        self.distributions.extend(ds);
        self
    }

    pub fn fault(mut self, f: FaultModel) -> Self {
        self.faults.push(f);
        self
    }

    /// The degraded-mode axis; an empty axis defaults to healthy
    /// ([`FaultModel::None`]) at `expand()` time.
    pub fn faults(mut self, fs: impl IntoIterator<Item = FaultModel>) -> Self {
        self.faults.extend(fs);
        self
    }

    pub fn topology(mut self, t: ServerTopology) -> Self {
        self.topologies.push(t);
        self
    }

    /// The metadata-fleet axis; an empty axis defaults to the paper's
    /// single server ([`ServerTopology::single`]) at `expand()` time.
    pub fn topologies(mut self, ts: impl IntoIterator<Item = ServerTopology>) -> Self {
        self.topologies.extend(ts);
        self
    }

    /// Replicates per (stochastic scenario, rank point); deterministic
    /// scenarios always run exactly once. Default
    /// [`DEFAULT_REPLICATES`].
    pub fn replicates(mut self, k: usize) -> Self {
        self.replicates = k.max(1);
        self
    }

    pub fn rank_points(mut self, pts: impl IntoIterator<Item = usize>) -> Self {
        self.rank_points.extend(pts);
        self
    }

    /// Override the base [`LaunchConfig`] (cluster calibration); the cache
    /// policy axis still toggles `broadcast_cache` per scenario.
    pub fn base_config(mut self, cfg: LaunchConfig) -> Self {
        self.base = cfg;
        self
    }

    /// The rank points this matrix will sweep — the explicit list, or the
    /// paper's 512/1024/2048 default when none were given. Public because
    /// the serve layer keys its store per (scenario, rank point) and must
    /// enumerate exactly what `run()` would simulate.
    pub fn effective_rank_points(&self) -> Vec<usize> {
        if self.rank_points.is_empty() {
            vec![512, 1024, 2048]
        } else {
            self.rank_points.clone()
        }
    }

    /// Run stochastic cells under the sequential stopping rule instead of
    /// a fixed replicate count: each `(scenario, rank point)` simulates
    /// seeded replicate batches until `ctl`'s precision target is met (or
    /// its `max_k` budget is exhausted). Deterministic, draw-free cells
    /// still clamp to one replicate. With the precision rule disabled
    /// (`target_rel_milli == 0`) and `max_k == replicates`, the run is
    /// byte-identical to the fixed-K matrix.
    pub fn adaptive(mut self, ctl: AdaptiveControl) -> Self {
        self.adaptive = Some(ctl.normalized());
        self
    }

    /// The stopping rule `run()` will apply, when one was requested via
    /// [`ExperimentMatrix::adaptive`]. Public because the serve layer must
    /// hash it into every stochastic cell's `ScenarioKey` — see
    /// `crates/serve`.
    pub fn adaptive_control(&self) -> Option<AdaptiveControl> {
        self.adaptive
    }

    /// The replicate count `run()` will request per stochastic rank point.
    pub fn replicate_count(&self) -> usize {
        self.replicates
    }

    /// The base launch configuration (cluster calibration + experiment
    /// seed) every scenario derives its per-cell config from.
    pub fn base(&self) -> &LaunchConfig {
        &self.base
    }

    /// Expand the full cross product. Empty axes default to: glibc, NFS,
    /// both wrap states, cold cache, deterministic service, no faults,
    /// one metadata server.
    /// (Workloads have no default — an empty workload axis expands to no
    /// scenarios.)
    pub fn expand(&self) -> Vec<Scenario> {
        let backends = if self.backends.is_empty() {
            vec![MatrixBackend::glibc()]
        } else {
            self.backends.clone()
        };
        let storages =
            if self.storages.is_empty() { vec![StorageModel::Nfs] } else { self.storages.clone() };
        let wraps = if self.wrap_states.is_empty() {
            WrapState::all().to_vec()
        } else {
            self.wrap_states.clone()
        };
        let caches = if self.cache_policies.is_empty() {
            vec![CachePolicy::Cold]
        } else {
            self.cache_policies.clone()
        };
        let dists = if self.distributions.is_empty() {
            vec![ServiceDistribution::Deterministic]
        } else {
            self.distributions.clone()
        };
        let faults =
            if self.faults.is_empty() { vec![FaultModel::None] } else { self.faults.clone() };
        let topologies = if self.topologies.is_empty() {
            vec![ServerTopology::single()]
        } else {
            self.topologies.clone()
        };

        let mut out = Vec::new();
        for w in &self.workloads {
            for b in &backends {
                for s in &storages {
                    for wr in &wraps {
                        for c in &caches {
                            for d in &dists {
                                for f in &faults {
                                    for t in &topologies {
                                        out.push(Scenario {
                                            workload: Arc::clone(w),
                                            backend: b.clone(),
                                            storage: *s,
                                            wrap: *wr,
                                            cache: *c,
                                            dist: *d,
                                            fault: *f,
                                            topology: *t,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl Default for ExperimentMatrix {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_workloads::{Emacs, Pynamic};

    #[test]
    fn expansion_is_the_cross_product() {
        let m = ExperimentMatrix::new()
            .workload(Pynamic::new(10))
            .workload(Emacs)
            .backends(MatrixBackend::all())
            .storage(StorageModel::Nfs)
            .storage(StorageModel::Local)
            .wrap_states(WrapState::all())
            .cache_policies(CachePolicy::all());
        let scenarios = m.expand();
        assert_eq!(scenarios.len(), 2 * 4 * 2 * 2 * 2);
        // Cell keys collapse the wrap and cache axes.
        let cells: std::collections::HashSet<CellKey> =
            scenarios.iter().map(|s| s.cell_key()).collect();
        assert_eq!(cells.len(), 2 * 4 * 2);
    }

    #[test]
    fn empty_axes_default_to_the_paper_cell() {
        let m = ExperimentMatrix::new().workload(Pynamic::new(10));
        let scenarios = m.expand();
        assert_eq!(scenarios.len(), 2, "glibc × nfs × (plain, wrapped) × cold");
        assert!(scenarios.iter().all(|s| s.backend.name() == "glibc"));
        assert!(scenarios.iter().all(|s| s.storage == StorageModel::Nfs));
        assert!(scenarios.iter().all(|s| s.cache == CachePolicy::Cold));
        assert_eq!(m.effective_rank_points(), vec![512, 1024, 2048]);
    }

    #[test]
    fn specs_and_labels_are_data() {
        let m = ExperimentMatrix::new().workload(Pynamic::new(10)).backend(MatrixBackend::glibc());
        let spec = m.expand()[0].spec();
        assert_eq!(spec.label(), "pynamic-10/glibc/nfs/plain/cold/deterministic");
    }

    #[test]
    fn distribution_axis_multiplies_scenarios_not_cells() {
        let m = ExperimentMatrix::new()
            .workload(Pynamic::new(10))
            .distributions(ServiceDistribution::all());
        let scenarios = m.expand();
        assert_eq!(scenarios.len(), 2 * 3, "(plain, wrapped) × 3 distributions");
        // The distribution changes simulation, not profiling: one cell.
        let cells: std::collections::HashSet<CellKey> =
            scenarios.iter().map(|s| s.cell_key()).collect();
        assert_eq!(cells.len(), 1);
        let labels: std::collections::HashSet<String> =
            scenarios.iter().map(|s| s.spec().label()).collect();
        assert_eq!(labels.len(), 6, "every scenario is addressable by label");
    }

    #[test]
    fn fault_axis_multiplies_scenarios_and_extends_labels_only_when_faulted() {
        let m = ExperimentMatrix::new().workload(Pynamic::new(10)).faults([
            FaultModel::None,
            FaultModel::ServerStall { at_ns: 2_000_000_000, duration_ns: 10_000_000_000 },
        ]);
        let scenarios = m.expand();
        assert_eq!(scenarios.len(), 2 * 2, "(plain, wrapped) × (healthy, stalled)");
        // Faults change simulation, not profiling: still one cell.
        let cells: std::collections::HashSet<CellKey> =
            scenarios.iter().map(|s| s.cell_key()).collect();
        assert_eq!(cells.len(), 1);
        // Healthy labels stay byte-identical to the pre-fault-axis format,
        // so healthy per-cell seeds are unchanged; faulted labels grow a
        // seventh segment that round-trips through FaultModel::parse.
        let labels: std::collections::HashSet<String> =
            scenarios.iter().map(|s| s.spec().label()).collect();
        assert!(labels.contains("pynamic-10/glibc/nfs/plain/cold/deterministic"));
        assert!(labels.contains(
            "pynamic-10/glibc/nfs/plain/cold/deterministic/stall-2000000000-10000000000"
        ));
    }

    #[test]
    fn topology_axis_multiplies_scenarios_and_extends_labels_only_for_fleets() {
        let m = ExperimentMatrix::new()
            .workload(Pynamic::new(10))
            .topologies([ServerTopology::single(), ServerTopology::hash(4)]);
        let scenarios = m.expand();
        assert_eq!(scenarios.len(), 2 * 2, "(plain, wrapped) × (1 server, 4 servers)");
        // Topology changes simulation, not profiling: still one cell.
        let cells: std::collections::HashSet<CellKey> =
            scenarios.iter().map(|s| s.cell_key()).collect();
        assert_eq!(cells.len(), 1);
        // Single-server labels stay byte-identical to the pre-axis format,
        // so their per-cell seeds are unchanged; fleet labels grow a
        // segment that round-trips through ServerTopology::parse.
        let labels: std::collections::HashSet<String> =
            scenarios.iter().map(|s| s.spec().label()).collect();
        assert!(labels.contains("pynamic-10/glibc/nfs/plain/cold/deterministic"));
        assert!(labels.contains("pynamic-10/glibc/nfs/plain/cold/deterministic/servers-4-hash"));
        assert_eq!(ServerTopology::parse("servers-4-hash"), Some(ServerTopology::hash(4)));
    }

    #[test]
    fn hash_store_backend_resolves_an_installed_world() {
        use depchaos_loader::LdCache;
        let w = Pynamic::new(8);
        let fs = Vfs::local();
        let installed = w.install(&fs).unwrap();
        let backend = MatrixBackend::HashStore.backend_for(&fs, &installed).unwrap();
        assert_eq!(backend.name(), "hash-store");
        let loader = backend.instantiate(&fs, &w.environment(), &LdCache::empty());
        let r = loader.load(&installed.exe_path).unwrap();
        assert!(r.success(), "{:?}", r.failures);
    }
}
