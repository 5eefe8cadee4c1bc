//! # depchaos-launch — scenario-matrix launch experiments (Fig 6 and beyond)
//!
//! Frings et al. (cited by the paper) showed that loading a large dynamic
//! application at scale can "flood the filesystem with requests" and push
//! startup into hours. Fig 6 measures exactly this: Pynamic (≈900 shared
//! libraries) launched on 512–2048 ranks with libraries on NFS, cold
//! caches, negative caching disabled. This crate reproduces that figure —
//! and generalises it into a *design-space sweep* over every axis the
//! paper's discussion names.
//!
//! The layers, bottom-up:
//!
//! 1. [`profile`] replays a loader backend (any [`depchaos_loader::Loader`])
//!    against a cold [`depchaos_vfs::Vfs`] and captures the strace-style op
//!    stream one rank issues at startup.
//! 2. [`des`] is a discrete-event simulation: a fleet of `S` FIFO metadata
//!    servers (a [`ServerTopology`] on the config — the default `S = 1` is
//!    the paper's model, bit for bit), requests routed by an
//!    [`AssignPolicy`] (seed-free hash-by-node, which splits the fleet into
//!    independent single-server lanes, or least-loaded with index
//!    tie-breaks); each *node* replays the op
//!    stream sequentially (the
//!    loader is serial), round-tripping every cold op. Ranks beyond the
//!    first on a node hit the node's page cache — which is why the unit of
//!    NFS load is the node, not the rank. The server's per-op service time
//!    follows `cfg.service_dist` (a [`ServiceDistribution`]): the paper's
//!    deterministic model, bounded uniform jitter, or a heavy-tailed
//!    log-normal, the stochastic variants drawing one seeded factor per
//!    (cold node, server op) from a dedicated RNG stream domain (see the
//!    [`des`] module's stream-domain map). [`fault`] layers degraded-mode
//!    operation on top: a [`FaultModel`] on the config injects server
//!    brownout stalls, RPC loss with timeout/retry/exponential backoff
//!    (retries are real extra server work), or seeded straggler nodes —
//!    all draws from their own FAULT stream domain so faulted and healthy
//!    cells share service draws (common random numbers), and
//!    [`FaultModel::None`] stays bit-identical to the healthy engine.
//!    Simulation is two-phase:
//!    [`ClassifiedStream::classify`] compacts the op stream into a
//!    per-server-op schedule exactly once (with its local-compute total
//!    and round-major verdict), and [`simulate_classified`] replays it
//!    through the cheapest exact regime, the [`SolverClass`] that
//!    [`SolverClass::of`] picks from the row's config and stream — the
//!    closed form when a symmetric all-cold fleet of two or more nodes is
//!    round-major (`O(server_ops)`, node-count independent, exact peak
//!    queue depth), otherwise the one per-server-op event loop, whose
//!    event queue is a ring kept sorted by inserting from its rear with a
//!    binary heap for the rare deep insert (O(1) per event at the back,
//!    never more than a heap's O(log nodes)), and whose fault model plugs
//!    in as a hook (the healthy hook is zero-sized) —
//!    coalescing the symmetric warm/serverless nodes analytically in every
//!    regime. That takes a 4M-rank point (broadcast *or* all-cold) to
//!    microseconds while staying bit-identical to the retained
//!    [`des::reference`] oracle (property-tested equivalence,
//!    deterministic *and* stochastic).
//! 3. [`batch`] is the batched execution layer over the DES: a
//!    [`BatchPlan`] gathers every pending (cell, rank point, replicate)
//!    as rows over shared segment schedules, classifies each row with the
//!    per-call rule, [`SolverClass::of`] — **coalesced** (no server
//!    segments — pure arithmetic), **analytic** (deterministic round-major
//!    fleets, one closed-form envelope recursion each), **stochastic**
//!    (per-seed heap replay), and **heap** (lone-cold-node, not round-major
//!    or faulted rows, plus envelope-cap demotions) — deduplicates the rows'
//!    lanes to unique (schedule, lane) kernels, and solves, folds and
//!    scatters them through the per-call kernel dispatch and per-row
//!    arithmetic.
//!    Outputs are bit-identical to per-row
//!    [`simulate_classified`]; every sweep layer below runs on it.
//! 4. [`adaptive`] and [`sweep`] add the stochastic dimension. Each
//!    (cell, rank point) simulates K seeded replicates
//!    ([`replicate_seed`]), summarised as [`LaunchStats`] p50/p95/p99 — K
//!    collapses to 1 when the run takes no draws
//!    ([`LaunchConfig::takes_draws`]). [`run_adaptive_units`] plans every
//!    replicate row: it runs replicates in seeded batches and stops each
//!    cell as soon as the t-based 95% half-width of its mean launch time
//!    meets a relative target ([`AdaptiveControl`]) —
//!    bit-reproducibly, because replicate `r`'s draws are a pure function
//!    of `(base seed, r)` (the batch-prefix property; see
//!    `docs/determinism.md`). Fixed K is the rule switched off
//!    ([`AdaptiveControl::fixed`]). [`sweep_paired`] is the
//!    common-random-numbers companion: both arms of a comparison run
//!    under shared replicate seeds and [`PairedDiff`] reports the
//!    CRN-tightened interval on their difference
//!    ([`render_fig6_paired`]).
//! 5. [`matrix`] describes a whole experiment: a [`Scenario`] is one point
//!    of (workload × loader backend × storage model × wrap state × cache
//!    policy × service distribution × fault model × server topology), and
//!    an [`ExperimentMatrix`] expands the cross product;
//!    [`Scenario::launch_config`] derives each cell's launch configuration.
//!    Workloads come from the
//!    [`depchaos_workloads::Workload`] trait (pynamic and its RPATH
//!    variant, emacs, the >200-package Axom stack, the ROCm module world);
//!    storage models are [`depchaos_vfs::StorageModel`]; backends are
//!    [`depchaos_core::LoaderBackend`]s plus the hash-store loader service.
//! 6. [`queueing`] is the independent cross-check: M/G/k service moments
//!    (closed-form second moments per distribution), Pollaczek–Khinchine
//!    mean waits (Lee–Longton-scaled for `k > 1` fleets at utilisation
//!    `λE[S]/k`), and hard capacity/work-conservation bounds on the mean
//!    launch time — [`validate_against_mg1`] flags any cell whose
//!    replicate mean escapes the envelope, so a modelling bug shared by
//!    the DES and its oracle would still be caught by theory.
//! 7. [`experiment`] executes a matrix through one pipeline
//!    ([`ExperimentMatrix::run_with`]): each unique (workload, backend,
//!    storage) cell is profiled **exactly once** into a shared, memoized
//!    [`ProfileCache`] (plain and wrapped streams captured in one run, each
//!    profiling run isolated against panics) and classified once per
//!    (cell, wrap state, latency calibration) — shared across cache
//!    policies, rank points, *and* stochastic replicates — then every
//!    cell's replicate rows are simulated in batched passes (profiling and
//!    kernel solving share one pool of `jobs` workers), summarised
//!    with the M/G/k check, and assembled into a [`SweepReport`] with
//!    per-backend Fig 6, per-distribution band, fault, fleet,
//!    queueing-check, and TSV renderers. An optional [`CellMemo`] answers
//!    cells a previous run computed — the serve layer's result store is
//!    one, and [`ExperimentMatrix::run`] is the pipeline without. Every
//!    stochastic cell draws from [`scenario_seed`]`(base seed, cell
//!    label)`, so any single cell reproduces standalone, byte for byte,
//!    from the experiment seed and its label.
//!
//! The paper's figure is one cell of the matrix (pynamic × glibc × nfs);
//! `depchaos-report fig6-backends` renders the same figure for glibc, musl,
//! the §III-C future loader, and a hash-store service side by side;
//! `fig6-dist` renders it under jittered and heavy-tailed metadata servers
//! with p50/p99 bands; `fig6-queueing` validates every cell against its
//! M/G/1 envelope (and fails CI on a violation); and the Spindle-broadcast
//! remark from §V-A is just the cache-policy axis.
//!
//! The simulated server and RTT constants are calibrated so the paper's
//! qualitative shape emerges (normal launch grows with scale; shrinkwrapped
//! stays near-flat; crossover factor in the 5–8× band at 2048 ranks).
//!
//! ```
//! use depchaos_launch::{CachePolicy, ExperimentMatrix, MatrixBackend, ProfileCache, WrapState};
//! use depchaos_vfs::StorageModel;
//! use depchaos_workloads::Pynamic;
//!
//! let cache = ProfileCache::new();
//! let report = ExperimentMatrix::new()
//!     .workload(Pynamic::new(40))
//!     .backends(MatrixBackend::all())
//!     .storage(StorageModel::Nfs)
//!     .wrap_states(WrapState::all())
//!     .cache_policies([CachePolicy::Cold])
//!     .rank_points([512usize, 1024])
//!     .run(&cache);
//! // 4 backends × 2 wrap states; 4 unique profile cells.
//! assert_eq!(report.results.len(), 8);
//! assert_eq!(report.cells_profiled, 4);
//! println!("{}", report.render_fig6_tables());
//! ```

pub mod adaptive;
pub mod batch;
pub mod config;
pub mod des;
pub mod experiment;
pub mod fault;
pub mod matrix;
mod pool;
pub mod profile;
pub mod queueing;
pub mod sweep;

pub use adaptive::{
    run_adaptive_units, stop_k, t_critical_95, AdaptiveControl, AdaptiveUnit, PairedDiff, Welford,
};
pub use batch::{BatchPlan, StreamId};
pub use config::{AssignPolicy, LaunchConfig, LaunchResult, ServerTopology, ServiceDistribution};
pub use des::{
    reference, simulate_classified, simulate_launch, ClassifiedStream, ClassifyParams, SolverClass,
    MAX_SERVICE_NS,
};
pub use experiment::{
    scenario_seed, CellAnswer, CellMemo, CellOutcome, CellProfile, ExecStats, ProfileCache,
    ProfileOutcome, ProfileSummary, ScenarioResult, SweepReport,
};
pub use fault::{FaultCounts, FaultModel};
pub use matrix::{
    CachePolicy, CellKey, ExperimentMatrix, MatrixBackend, Scenario, ScenarioSpec, WrapState,
    DEFAULT_REPLICATES,
};
pub use profile::profile_load_checked;
pub use queueing::{
    erlang_c, factor_second_moment, mg1_bounds, validate_against_mg1, Mg1Bounds, QueueingCheck,
};
pub use sweep::{
    render_fig6, render_fig6_paired, replicate_seed, sweep_paired, LaunchStats, PairedPoint,
};
