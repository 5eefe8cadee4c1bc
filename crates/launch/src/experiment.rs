//! Executing an [`ExperimentMatrix`]: memoized profiling, the launch
//! pipeline, and the [`SweepReport`] renderers.
//!
//! Execution is two-phase:
//!
//! 1. **Profile** — every unique [`CellKey`] (workload × backend × storage)
//!    is realised exactly once: build a fresh [`Vfs`] on the cell's storage
//!    backend, install the workload, capture the plain op stream, freeze
//!    that capture's resolution into the binary, capture the wrapped op
//!    stream — two loader passes. Both logs land in a shared, memoized
//!    [`ProfileCache`], so scenarios differing only in wrap state, cache
//!    policy, or rank points reuse one profile.
//! 2. **Sweep** — every scenario replays its cell's op stream through the
//!    DES at each rank point, the whole matrix's replicate rows batched
//!    into shared plans (the simulations are independent).
//!
//! [`ExperimentMatrix::run_with`] is the one pipeline behind both phases;
//! an optional [`CellMemo`] lets it skip the cells a previous run already
//! answered, which is all the serve layer's incremental executor adds.
//!
//! A backend that cannot resolve the workload is data, not a crash: the
//! cell records the unresolved count or wrap error and the report renders
//! the hole (that the future loader cannot see a RUNPATH-only world *is*
//! the §IV story).
//!
//! The [`SweepReport`] table renderers share one slicing path: results are
//! grouped, in result order, by every axis except the one a table varies
//! (wrap state, service distribution, fault model or fleet), and each
//! slice is headed by the axes its members share. The seconds, ratio and
//! `no series` cells and the TSV columns naming a cell are each written
//! once.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;

use depchaos_core::{freeze_load, wrap, ShrinkwrapOptions};
use depchaos_loader::{LdCache, LoadResult};
use depchaos_vfs::{StraceLog, Vfs};
use depchaos_workloads::{SplitMix, Workload};

use crate::adaptive::{run_adaptive_units_on, AdaptiveControl, AdaptiveUnit};
use crate::config::{LaunchConfig, LaunchResult, ServerTopology, ServiceDistribution};
use crate::des::{ClassifiedStream, ClassifyParams};
use crate::fault::FaultModel;
use crate::matrix::{
    CachePolicy, CellKey, ExperimentMatrix, MatrixBackend, Scenario, ScenarioSpec, WrapState,
    DEFAULT_REPLICATES,
};
use crate::pool;
use crate::profile::profile_load_checked;
use crate::queueing::{mg1_bounds, validate_against_mg1, QueueingCheck};
use crate::sweep::{cell, ratio_cell, render_fig6, secs_cell, LaunchStats};

/// The RNG seed one scenario simulates under: a stable FNV-1a digest of the
/// scenario label, taken through the [`SplitMix::WORKLOAD`] stream domain of
/// the experiment's base seed. Every cell of the matrix is therefore
/// reproducible from `(base seed, cell label)` alone — re-running a single
/// scenario standalone draws exactly what the full sweep drew — while
/// distinct cells get decorrelated streams that cannot collide with the
/// replicate ([`SplitMix::REPLICATE`]) or per-node ([`SplitMix::NODE`])
/// domains derived from them.
pub fn scenario_seed(base_seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix::split(base_seed, SplitMix::WORKLOAD, h).next_u64()
}

/// One captured op stream plus how the load went.
#[derive(Debug, Clone)]
pub struct ProfileOutcome {
    pub log: StraceLog,
    /// stat+openat count of the stream (the Table II metric).
    pub stat_openat: usize,
    /// Failed lookups in the stream.
    pub misses: usize,
    /// Did every dependency resolve? A load can run to completion with
    /// holes (future loader on a RUNPATH world, musl on a stripped image).
    pub complete: bool,
    /// Unresolved dependency count when `!complete`.
    pub unresolved: usize,
}

/// Everything one profiling run of a cell produced.
#[derive(Debug, Clone)]
pub struct CellProfile {
    pub key: CellKey,
    /// The as-built op stream, or the error that prevented capturing it.
    pub plain: Result<ProfileOutcome, String>,
    /// The post-Shrinkwrap op stream; `Err` when the wrap itself failed
    /// under this cell's backend semantics.
    pub wrapped: Result<ProfileOutcome, String>,
}

impl CellProfile {
    /// The outcome for one wrap state.
    pub fn outcome(&self, wrap: WrapState) -> &Result<ProfileOutcome, String> {
        match wrap {
            WrapState::Plain => &self.plain,
            WrapState::Wrapped => &self.wrapped,
        }
    }
}

/// The shared, memoized profile store. Cells are keyed by
/// (workload, backend, storage); asking twice for the same key performs
/// one profiling run — two loader passes, the plain and the wrapped
/// capture — and hands back the same [`Arc`]. Sharing one cache across
/// matrices (report sections, benches, tests) extends the memoization
/// across them.
#[derive(Default)]
pub struct ProfileCache {
    cells: Mutex<HashMap<CellKey, Arc<CellProfile>>>,
    /// Classified streams, memoized per (cell, wrap state, latency
    /// calibration): every scenario and rank point that shares those three
    /// shares one classification — cache policy, distribution, fault model
    /// and rank counts do not invalidate it.
    classified: Mutex<HashMap<(CellKey, WrapState, ClassifyParams), Arc<ClassifiedStream>>>,
}

impl ProfileCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// How many profiling runs filled the cache (its cell count) — the
    /// exactly-once accounting the matrix tests assert on.
    pub fn computed(&self) -> usize {
        self.cells.lock().len()
    }

    /// How many stream classifications filled the cache; bounded by (cells
    /// × wrap states × distinct latency calibrations), never by scenarios,
    /// distributions or rank points.
    pub fn classified_computed(&self) -> usize {
        self.classified.lock().len()
    }

    /// Fetch or compute the [`ClassifiedStream`] for one wrap state of a
    /// cell under `cfg`'s latency calibration.
    pub fn classified(
        &self,
        key: &CellKey,
        wrap: WrapState,
        log: &StraceLog,
        cfg: &LaunchConfig,
    ) -> Arc<ClassifiedStream> {
        let k = (key.clone(), wrap, ClassifyParams::of(cfg));
        if let Some(hit) = self.classified.lock().get(&k) {
            return Arc::clone(hit);
        }
        let stream = Arc::new(ClassifiedStream::classify(log, cfg));
        let mut map = self.classified.lock();
        if let Some(existing) = map.get(&k) {
            return Arc::clone(existing);
        }
        map.insert(k, Arc::clone(&stream));
        stream
    }

    /// A cell already in the cache, if any.
    pub fn get(&self, key: &CellKey) -> Option<Arc<CellProfile>> {
        self.cells.lock().get(key).cloned()
    }

    /// Fetch or produce the profile cell for (workload, backend, storage).
    pub fn get_or_profile(
        &self,
        workload: &dyn Workload,
        backend: &MatrixBackend,
        storage: depchaos_vfs::StorageModel,
    ) -> Arc<CellProfile> {
        self.get_or_profile_counted(workload, backend, storage).0
    }

    /// [`ProfileCache::get_or_profile`], also reporting whether *this call*
    /// performed the profiling run — the per-run accounting behind
    /// [`SweepReport::cells_profiled`], which must not miscount when the
    /// cache is shared by concurrently running matrices.
    pub fn get_or_profile_counted(
        &self,
        workload: &dyn Workload,
        backend: &MatrixBackend,
        storage: depchaos_vfs::StorageModel,
    ) -> (Arc<CellProfile>, bool) {
        let key = CellKey {
            workload: workload.name().to_string(),
            backend: backend.name().to_string(),
            storage,
        };
        if let Some(hit) = self.get(&key) {
            return (hit, false);
        }
        let profile = Arc::new(profile_cell(key.clone(), workload, backend, storage));
        let mut cells = self.cells.lock();
        // Under a parallel fill two threads can race to the same key; the
        // first insert wins and counts, the loser adopts it.
        if let Some(existing) = cells.get(&key) {
            return (Arc::clone(existing), false);
        }
        cells.insert(key, Arc::clone(&profile));
        (profile, true)
    }
}

/// One profiling run, two loader passes: install the workload, capture the
/// plain op stream, freeze that capture's resolution into the binary
/// ([`freeze_load`]), capture the wrapped op stream.
///
/// Freezing the plain capture's load instead of resolving again inside
/// [`fn@wrap`] changes no byte: a load only reads the filesystem, both run on
/// the same world with the same backend, environment and empty ld.so.cache,
/// and the wrapped capture drops caches before it starts. When the plain
/// capture fails there is no load to freeze, and the cell calls [`fn@wrap`],
/// so its error text is the one a plain wrap reports.
fn profile_cell(
    key: CellKey,
    workload: &dyn Workload,
    backend: &MatrixBackend,
    storage: depchaos_vfs::StorageModel,
) -> CellProfile {
    let fs = Vfs::new(storage.backend());
    let installed = match workload.install(&fs) {
        Ok(i) => i,
        Err(e) => {
            let msg = format!("install failed: {e}");
            return CellProfile { key, plain: Err(msg.clone()), wrapped: Err(msg) };
        }
    };
    let env = workload.environment();
    let loader_backend = match backend.backend_for(&fs, &installed) {
        Ok(b) => b,
        Err(e) => {
            let msg = format!("backend index failed: {e}");
            return CellProfile { key, plain: Err(msg.clone()), wrapped: Err(msg) };
        }
    };
    let exe = installed.exe_path.as_str();
    let capture = |label: &str| -> Result<(ProfileOutcome, LoadResult), String> {
        let loader = loader_backend.instantiate(&fs, &env, &LdCache::empty());
        profile_load_checked(&fs, exe, loader.as_ref())
            .map(|(log, r)| {
                let outcome = ProfileOutcome {
                    stat_openat: log.stat_openat(),
                    misses: log.misses(),
                    complete: r.success(),
                    unresolved: r.failures.len(),
                    log,
                };
                (outcome, r)
            })
            .map_err(|e| format!("{label} load failed: {e}"))
    };

    let opts = ShrinkwrapOptions::new().env(env.clone()).backend(loader_backend.clone());
    let (plain, frozen) = match capture("plain") {
        Ok((outcome, load)) => (Ok(outcome), freeze_load(&fs, exe, &opts, load)),
        Err(e) => (Err(e), wrap(&fs, exe, &opts)),
    };
    let wrapped = match frozen {
        Ok(_) => capture("wrapped").map(|(outcome, _)| outcome),
        Err(e) => Err(format!("wrap failed: {e}")),
    };
    CellProfile { key, plain, wrapped }
}

/// One scenario's sweep: its identity, a per-rank profile summary, the
/// simulated series (empty when the cell has no usable op stream), and —
/// per rank point — the replicate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    pub spec: ScenarioSpec,
    pub stat_openat: usize,
    pub misses: usize,
    pub complete: bool,
    /// Unresolved dependency count when `!complete`.
    pub unresolved: usize,
    /// Why there is no series, when there isn't.
    pub error: Option<String>,
    /// Replicate 0's full results, one per rank point.
    pub series: Vec<(usize, LaunchResult)>,
    /// p50/p95/p99/mean over the scenario's seeded replicates, one per rank
    /// point (replicate count 1 for deterministic scenarios).
    pub stats: Vec<(usize, LaunchStats)>,
    /// The M/G/1 envelope verdict per rank point
    /// ([`crate::queueing::validate_against_mg1`]): does the replicate mean
    /// sit inside what queueing theory allows for this cell?
    pub queueing: Vec<(usize, QueueingCheck)>,
}

impl ScenarioResult {
    /// The simulated launch at `ranks`, when swept.
    pub fn result_at(&self, ranks: usize) -> Option<&LaunchResult> {
        self.series.iter().find(|(r, _)| *r == ranks).map(|(_, l)| l)
    }

    /// Launch seconds at `ranks`, when simulated.
    pub fn seconds_at(&self, ranks: usize) -> Option<f64> {
        self.result_at(ranks).map(LaunchResult::seconds)
    }

    /// Replicate statistics at `ranks`, when swept.
    pub fn stats_at(&self, ranks: usize) -> Option<&LaunchStats> {
        self.stats.iter().find(|(r, _)| *r == ranks).map(|(_, s)| s)
    }

    /// The queueing verdict at `ranks`, when swept.
    pub fn queueing_at(&self, ranks: usize) -> Option<&QueueingCheck> {
        self.queueing.iter().find(|(r, _)| *r == ranks).map(|(_, q)| q)
    }
}

/// Everything an [`ExperimentMatrix::run`] produced, with the Fig 6 table
/// and TSV renderers.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    pub rank_points: Vec<usize>,
    pub results: Vec<ScenarioResult>,
    /// Profiling runs this matrix triggered (cache misses); always ≤ the
    /// number of unique cells across its scenarios.
    pub cells_profiled: usize,
    /// The sequential stopping rule the sweep ran under, when adaptive
    /// replicate control was requested — `None` for fixed-K sweeps. Each
    /// cell's stopped-at K is in its [`LaunchStats::replicates`].
    pub adaptive: Option<AdaptiveControl>,
}

impl SweepReport {
    /// Results matching a predicate over specs.
    pub fn find(&self, pred: impl Fn(&ScenarioSpec) -> bool) -> Vec<&ScenarioResult> {
        self.results.iter().filter(|r| pred(&r.spec)).collect()
    }

    /// The one result with exactly this spec.
    pub fn get(&self, spec: &ScenarioSpec) -> Option<&ScenarioResult> {
        self.results.iter().find(|r| &r.spec == spec)
    }

    /// The single result for `(wrap, cache)` — the common pick when the
    /// matrix covers one (workload, backend, storage) slice, as the Fig 6
    /// drivers do. `None` when absent *or* ambiguous.
    pub fn one(&self, wrap: WrapState, cache: CachePolicy) -> Option<&ScenarioResult> {
        let mut it = self.results.iter().filter(|r| r.spec.wrap == wrap && r.spec.cache == cache);
        let first = it.next()?;
        if it.next().is_some() {
            return None;
        }
        Some(first)
    }

    /// The replicate simulations this sweep spent, and what a fixed-K
    /// sweep of [`DEFAULT_REPLICATES`] would spend on the same points (one
    /// per point of a cell that takes no draws): adaptive stopping's
    /// saving.
    pub fn replicate_budget(&self) -> (usize, usize) {
        let spent = self.results.iter().flat_map(|r| &r.stats).map(|(_, st)| st.replicates).sum();
        let fixed = self
            .results
            .iter()
            .map(|r| {
                let per = LaunchConfig::default()
                    .with_service_dist(r.spec.dist)
                    .with_fault(r.spec.fault)
                    .effective_replicates(DEFAULT_REPLICATES);
                per * r.stats.len()
            })
            .sum();
        (spent, fixed)
    }

    /// One table per slice of `axis` — the results equal up to that axis,
    /// in first-appearance order: its heading, `table` over its members in
    /// the axis' table order, and a blank line.
    fn tables(&self, axis: Axis, table: impl Fn(&[&ScenarioResult]) -> String) -> String {
        let mut index: HashMap<ScenarioSpec, usize> = HashMap::new();
        let mut slices: Vec<(ScenarioSpec, Vec<&ScenarioResult>)> = Vec::new();
        for r in &self.results {
            let key = axis.reset(&r.spec);
            let i = *index.entry(key.clone()).or_insert_with(|| {
                slices.push((key, Vec::new()));
                slices.len() - 1
            });
            slices[i].1.push(r);
        }
        let mut out = String::new();
        for (slice, mut members) in slices {
            axis.order(&mut members);
            out.push_str(&axis.heading(&slice));
            out.push_str(&table(&members));
            out.push('\n');
        }
        out
    }

    /// A table with one row per member: a first column headed `label` and
    /// `width` wide, the launch seconds at each rank point, then a tail.
    /// `tail` is the tail's header; `row` gives a member's first cell and
    /// its tail.
    fn member_rows(
        &self,
        members: &[&ScenarioResult],
        label: &str,
        width: usize,
        tail: &str,
        row: impl Fn(&ScenarioResult) -> (String, String),
    ) -> String {
        let mut t = format!("{label:<width$}");
        for &p in &self.rank_points {
            t.push_str(&format!("  {:>10}", format!("{p}(s)")));
        }
        t.push_str(tail);
        t.push('\n');
        for m in members {
            let (name, tail) = row(m);
            t.push_str(&format!("{name:<width$}"));
            for &p in &self.rank_points {
                t.push_str(&format!("  {}", secs_cell(m.seconds_at(p), 10)));
            }
            t.push_str(&tail);
            t.push('\n');
        }
        t
    }

    /// Per-backend Fig 6 tables: for every slice of results that differ
    /// only in wrap state, the profile line of each wrap state and the
    /// normal-vs-wrapped table; a wrap state without a series shows its
    /// error in place of the profile line.
    pub fn render_fig6_tables(&self) -> String {
        self.tables(Axis::Wrap, |members| {
            let of = |w: WrapState| members.iter().find(|m| m.spec.wrap == w).copied();
            let (plain, wrapped) = (of(WrapState::Plain), of(WrapState::Wrapped));
            let mut t = String::new();
            for (state, res) in [("plain", plain), ("wrapped", wrapped)] {
                let Some(res) = res else { continue };
                let line = no_series(&[res]).unwrap_or_else(|| {
                    if res.complete {
                        format!("{} stat/openat ({} misses)\n", res.stat_openat, res.misses)
                    } else {
                        format!(
                            "{} stat/openat, INCOMPLETE ({} unresolved)\n",
                            res.stat_openat, res.unresolved
                        )
                    }
                });
                t.push_str(&format!("{state}: {line}"));
            }
            let [normal, wrapped] = [plain, wrapped].map(|r| r.map_or(&[][..], |r| &r.series[..]));
            t + &render_fig6(&self.rank_points, normal, wrapped)
        })
    }

    /// The whole sweep as TSV — one row per (scenario, rank point), the raw
    /// data behind every per-backend and per-distribution figure. The
    /// percentile columns repeat the point estimate when the scenario is
    /// deterministic (replicates = 1). The trailing `stopping` column is
    /// the stopping summary: `fixed@K` for fixed-K sweeps, or
    /// `adaptive-<target>m@K` with the K the sequential rule actually used
    /// for that cell (the same K the `replicates` column counts).
    pub fn render_tsv(&self) -> String {
        let mut s = format!(
            "{TSV_CELL_COLUMNS}\tseconds\tp50_s\tp95_s\tp99_s\treplicates\tserver_ops\tpeak_queue\
             \tretries\tstopping\n"
        );
        for r in &self.results {
            for (ranks, l) in &r.series {
                let st = r.stats_at(*ranks).copied().unwrap_or_else(|| LaunchStats::of(&[*l]));
                let stopping = match &self.adaptive {
                    None => format!("fixed@{}", st.replicates),
                    Some(c) => format!("adaptive-{}m@{}", c.target_rel_milli, st.replicates),
                };
                s.push_str(&format!(
                    "{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{}\t{stopping}\n",
                    tsv_cell(&r.spec, *ranks),
                    l.seconds(),
                    st.p50_s(),
                    st.p95_s(),
                    st.p99_s(),
                    st.replicates,
                    l.server_ops,
                    l.peak_queue_depth,
                    l.retries_issued
                ));
            }
        }
        s
    }

    /// Per-distribution Fig 6 tables — the `fig6-dist` section: for every
    /// slice swept across the distribution axis, a row per rank point with
    /// the deterministic curve next to each stochastic distribution's
    /// p50/p99 band.
    pub fn render_fig6_dist_tables(&self) -> String {
        let width = |m: &ScenarioResult| if m.spec.dist.is_deterministic() { 10 } else { 22 };
        self.tables(Axis::Dist, |members| {
            no_series(members).unwrap_or_else(|| {
                let mut t = String::from("ranks");
                for m in members {
                    let head = if m.spec.dist.is_deterministic() {
                        "det(s)".to_string()
                    } else {
                        format!("{} p50/p99(s)", m.spec.dist.name())
                    };
                    t.push_str(&format!("  {head:>w$}", w = width(m)));
                }
                t.push('\n');
                for &p in &self.rank_points {
                    t.push_str(&format!("{p:>5}"));
                    for m in members {
                        let v = if m.spec.dist.is_deterministic() {
                            m.seconds_at(p).map(|s| format!("{s:.1}"))
                        } else {
                            m.stats_at(p).map(|st| format!("{:.1}/{:.1}", st.p50_s(), st.p99_s()))
                        };
                        t.push_str(&format!("  {}", cell(v, width(m))));
                    }
                    t.push('\n');
                }
                t
            })
        })
    }

    /// Per-fault degraded-mode tables — the `fig6-faults` section: for
    /// every slice swept across the fault axis, a row per fault model with
    /// the launch seconds at each rank point, the slowdown over the
    /// healthy row at the largest point, and the fault accounting
    /// (retries, timeouts, straggler membership) from replicate 0 at that
    /// point.
    pub fn render_fault_tables(&self) -> String {
        let last = self.rank_points.last().copied();
        let tail =
            format!("  {:>9}  {:>9} {:>9} {:>7}", "slowdown", "retries", "timeouts", "slowed");
        self.tables(Axis::Fault, |members| {
            let healthy = members.iter().find(|m| m.spec.fault.is_none());
            no_series(members).unwrap_or_else(|| {
                self.member_rows(members, "fault", 42, &tail, |m| {
                    let name = if m.spec.fault.is_none() {
                        "healthy".to_string()
                    } else {
                        m.spec.fault.name()
                    };
                    let slowdown =
                        last.and_then(|p| Some(m.seconds_at(p)? / healthy?.seconds_at(p)?));
                    let acct = last.and_then(|p| m.result_at(p));
                    let tail = format!(
                        "  {}  {:>9} {:>9} {:>7}",
                        ratio_cell(slowdown, 2, 9),
                        acct.map_or(0, |l| l.retries_issued),
                        acct.map_or(0, |l| l.timeouts_hit),
                        acct.map_or(0, |l| l.slowed_nodes)
                    );
                    (name, tail)
                })
            })
        })
    }

    /// Per-topology fleet tables — the `fig6-servers` section: for every
    /// slice swept across the server-topology axis, a row per fleet with
    /// the launch seconds at each rank point and the speedup over the
    /// single-server row at the largest point — plus the *flattening
    /// point*, the smallest fleet within 5% of the best launch at the
    /// largest rank point (past it, more metadata servers buy nothing,
    /// because the launch has gone RTT- or client-bound).
    pub fn render_servers_tables(&self) -> String {
        let display = |t: &ServerTopology| {
            if *t == ServerTopology::single() {
                "1-server".to_string()
            } else {
                t.name()
            }
        };
        let last = self.rank_points.last().copied();
        let tail = format!("  {:>9}", "speedup");
        self.tables(Axis::Topology, |members| {
            let single = members.iter().find(|m| m.spec.topology.is_single());
            no_series(members).unwrap_or_else(|| {
                let mut t = self.member_rows(members, "topology", 18, &tail, |m| {
                    let speedup =
                        last.and_then(|p| Some(single?.seconds_at(p)? / m.seconds_at(p)?));
                    (display(&m.spec.topology), format!("  {}", ratio_cell(speedup, 2, 9)))
                });
                if let Some(p) = last {
                    let best = members
                        .iter()
                        .filter_map(|m| m.seconds_at(p))
                        .fold(f64::INFINITY, f64::min);
                    let flat =
                        members.iter().find(|m| m.seconds_at(p).is_some_and(|s| s <= best * 1.05));
                    if let Some(flat) = flat {
                        t.push_str(&format!(
                            "flattens at {} ({p} ranks, within 5% of best)\n",
                            display(&flat.spec.topology)
                        ));
                    }
                }
                t
            })
        })
    }

    /// Every `(scenario label, ranks)` whose replicate mean escaped the
    /// M/G/1 envelope — empty means the whole sweep is consistent with
    /// queueing theory.
    pub fn queueing_violations(&self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for r in &self.results {
            for (ranks, q) in &r.queueing {
                if !q.within {
                    out.push((r.spec.label(), *ranks));
                }
            }
        }
        out
    }

    /// Per-scenario M/G/1 validation tables — the `fig6-queueing` section:
    /// one row per rank point with the observed replicate mean, the hard
    /// envelope, the offered utilisation, the Pollaczek–Khinchine wait, and
    /// the verdict. A forfeited upper bound shows as `-`, the wait of a
    /// saturated cell (ρ ≥ 1) as `saturated`.
    pub fn render_queueing_tables(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&format!("--- {} ---\n", r.spec.label()));
            out.push_str(&no_series(&[r]).unwrap_or_else(|| {
                let mut t = format!(
                    "{:>7} {:>10} {:>10} {:>10} {:>7} {:>12}  verdict\n",
                    "ranks", "mean(s)", "lower(s)", "upper(s)", "rho", "mg1-wait(ms)"
                );
                for (ranks, q) in &r.queueing {
                    let (upper_s, wait_ms) = optional_fields(q);
                    t.push_str(&format!(
                        "{ranks:>7} {:>10.2} {:>10.2} {} {:>7.2} {:>12}  {}\n",
                        q.observed_mean_ns as f64 / 1e9,
                        q.bounds.lower_ns as f64 / 1e9,
                        cell(upper_s.map(|u| format!("{u:.2}")), 10),
                        q.bounds.utilisation,
                        wait_ms.map_or_else(|| "saturated".to_string(), |w| format!("{w:.3}")),
                        verdict(q, "ok", "VIOLATION")
                    ));
                }
                t
            }));
            out.push('\n');
        }
        out
    }

    /// The queueing validation as TSV — one row per (scenario, rank point),
    /// the raw data behind `fig6-queueing`. The `within` column is `n/a`
    /// for cells whose bounds are inapplicable (clamp-reaching tails): such
    /// cells pass vacuously and must not read as validated. A forfeited
    /// upper bound and the wait of a saturated cell (ρ ≥ 1, no finite
    /// open-system wait) are left empty — the TSV convention for a
    /// missing datum — rather than printing a non-numeric `inf` into a
    /// numeric column.
    pub fn render_queueing_tsv(&self) -> String {
        let mut s = format!(
            "{TSV_CELL_COLUMNS}\tmean_s\tlower_s\tupper_s\tutilisation\tmg1_wait_ms\treplicates\
             \twithin\n"
        );
        let field = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v:.3}"));
        for r in &self.results {
            for (ranks, q) in &r.queueing {
                let (upper_s, wait_ms) = optional_fields(q);
                s.push_str(&format!(
                    "{}\t{:.3}\t{:.3}\t{}\t{:.3}\t{}\t{}\t{}\n",
                    tsv_cell(&r.spec, *ranks),
                    q.observed_mean_ns as f64 / 1e9,
                    q.bounds.lower_ns as f64 / 1e9,
                    field(upper_s),
                    q.bounds.utilisation,
                    field(wait_ms),
                    r.stats_at(*ranks).map_or(1, |s| s.replicates),
                    verdict(q, "yes", "no")
                ));
            }
        }
        s
    }
}

/// The axis a slice table varies: its members differ only there.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Axis {
    Wrap,
    Dist,
    Fault,
    Topology,
}

impl Axis {
    /// `spec` with this axis at its default: the key of `spec`'s slice.
    fn reset(self, spec: &ScenarioSpec) -> ScenarioSpec {
        let mut key = spec.clone();
        match self {
            Axis::Wrap => key.wrap = WrapState::Plain,
            Axis::Dist => key.dist = ServiceDistribution::Deterministic,
            Axis::Fault => key.fault = FaultModel::None,
            Axis::Topology => key.topology = ServerTopology::single(),
        }
        key
    }

    /// Sort a slice's members into table order. The sort is stable, so
    /// ties keep result order, which follows the matrix's axis order: the
    /// deterministic or healthy member first, fleets smallest first with
    /// hash before least-loaded at equal size.
    fn order(self, members: &mut [&ScenarioResult]) {
        match self {
            Axis::Wrap => {}
            Axis::Dist => members.sort_by_key(|m| !m.spec.dist.is_deterministic()),
            Axis::Fault => members.sort_by_key(|m| !m.spec.fault.is_none()),
            Axis::Topology => {
                members.sort_by_key(|m| (m.spec.topology.servers, m.spec.topology.assign.name()))
            }
        }
    }

    /// The heading of `slice`'s table: workload, backend, storage and
    /// cache, then every axis but this one that the slice's members share.
    /// The wrap state is always named, and the distribution always in the
    /// fault and fleet tables; any other shared axis is named when off its
    /// default (the topology whenever it is not [`ServerTopology::single`],
    /// so a one-server least-loaded fleet is named too). So no two slices
    /// of one report share a heading.
    fn heading(self, slice: &ScenarioSpec) -> String {
        let mut h = format!(
            "--- {} × {} ({}, {} cache",
            slice.workload,
            slice.backend,
            slice.storage.name(),
            slice.cache.name()
        );
        let shared = [
            (Axis::Wrap, true, slice.wrap.name().to_string()),
            (
                Axis::Dist,
                matches!(self, Axis::Fault | Axis::Topology) || !slice.dist.is_deterministic(),
                slice.dist.name(),
            ),
            (Axis::Fault, !slice.fault.is_none(), slice.fault.name()),
            (Axis::Topology, slice.topology != ServerTopology::single(), slice.topology.name()),
        ];
        for (axis, named, name) in shared {
            if axis != self && named {
                h.push_str(", ");
                h.push_str(&name);
            }
        }
        h + ") ---\n"
    }
}

/// The line that stands in for a table whose members lack a series: the
/// first member's error.
fn no_series(members: &[&ScenarioResult]) -> Option<String> {
    members.iter().find_map(|m| m.error.as_ref()).map(|e| format!("no series — {e}\n"))
}

/// The leading TSV columns, naming a cell: every scenario axis, then the
/// rank point.
const TSV_CELL_COLUMNS: &str =
    "workload\tbackend\tstorage\twrap\tcache\tdist\tfault\ttopology\tranks";

/// `spec` at `ranks` as the [`TSV_CELL_COLUMNS`] fields.
fn tsv_cell(spec: &ScenarioSpec, ranks: usize) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{ranks}",
        spec.workload,
        spec.backend,
        spec.storage.name(),
        spec.wrap.name(),
        spec.cache.name(),
        spec.dist.name(),
        spec.fault.name(),
        spec.topology.name()
    )
}

/// A queueing check's fields that can be missing: the upper bound in
/// seconds, which faulted and least-loaded cells forfeit, and the M/G/k
/// wait in milliseconds, which a saturated cell (ρ ≥ 1) does not have.
fn optional_fields(q: &QueueingCheck) -> (Option<f64>, Option<f64>) {
    let upper_s = (q.bounds.upper_ns != u64::MAX).then(|| q.bounds.upper_ns as f64 / 1e9);
    let wait_ms = q.bounds.mean_wait_ns.is_finite().then(|| q.bounds.mean_wait_ns / 1e6);
    (upper_s, wait_ms)
}

/// A queueing check's verdict in a renderer's words for pass and fail;
/// `n/a` when the bounds do not apply.
fn verdict(q: &QueueingCheck, pass: &'static str, fail: &'static str) -> &'static str {
    match (q.bounds.applicable, q.within) {
        (false, _) => "n/a",
        (true, true) => pass,
        (true, false) => fail,
    }
}

/// The profile summary every cell of a scenario carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSummary {
    pub stat_openat: usize,
    pub misses: usize,
    pub complete: bool,
    pub unresolved: usize,
}

/// The simulated payload of a cell that has one (profile errors don't).
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    pub result: LaunchResult,
    pub stats: LaunchStats,
    pub queueing: QueueingCheck,
}

/// One `(scenario, rank point)` cell's answer: what the pipeline computes
/// per cold cell, what a [`CellMemo`] remembers, and what every
/// [`ScenarioResult`] is assembled from.
#[derive(Debug, Clone, PartialEq)]
pub struct CellAnswer {
    /// The scenario's profile summary (all zero when profiling failed).
    pub profile: ProfileSummary,
    /// Why the cell has no outcome, when it doesn't.
    pub error: Option<String>,
    pub outcome: Option<CellOutcome>,
}

/// A per-cell memo for [`ExperimentMatrix::run_with`]: the cells it
/// recalls are answered without profiling or simulating, and every cell
/// the run computes is offered back to it. The serve layer's result store
/// is the memo of its incremental executor.
pub trait CellMemo {
    /// The remembered answer for `spec` at `ranks` under `matrix`'s
    /// replicate plan and base configuration, if any.
    fn recall(
        &self,
        matrix: &ExperimentMatrix,
        spec: &ScenarioSpec,
        ranks: usize,
    ) -> Option<CellAnswer>;

    /// Remember a cell this run computed. Cells whose profiling panicked
    /// are never offered: a crash is not a result.
    fn record(
        &self,
        matrix: &ExperimentMatrix,
        spec: &ScenarioSpec,
        ranks: usize,
        cell: &CellAnswer,
    ) -> std::io::Result<()>;
}

/// What one [`ExperimentMatrix::run_with`] did — the hit/miss accounting
/// the serve front door reports per batch and CI asserts on (a warm replay
/// must show `cold_cells == 0`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Scenarios in the expanded matrix.
    pub scenarios: usize,
    /// `(scenario, rank point)` cells the matrix describes.
    pub cells_total: usize,
    /// Cells the memo answered.
    pub warm_hits: usize,
    /// Cells this run computed.
    pub cold_cells: usize,
    /// Worker threads the run used, the calling thread included: the
    /// larger of the profiling pool's and the busiest kernel-solving
    /// round's, each `jobs` capped at its number of items.
    pub jobs: usize,
    /// Profiling runs this call triggered.
    pub cells_profiled: usize,
    /// Cold cells whose profiling run panicked. Each is isolated by a
    /// per-cell `catch_unwind`, reported as a failed cell, and never
    /// offered to the memo — the rest of the run completes normally.
    pub panics: usize,
}

impl ExecStats {
    /// Warm fraction in `[0, 1]`; 1.0 for an empty matrix.
    pub fn hit_rate(&self) -> f64 {
        if self.cells_total == 0 {
            1.0
        } else {
            self.warm_hits as f64 / self.cells_total as f64
        }
    }
}

/// A cold scenario's prep, shared by every cold cell of the scenario: the
/// cell config and either (profile summary, classification) — the
/// classification an `Arc` straight out of the [`ProfileCache`] — or why
/// there is none.
struct Prep {
    cfg: LaunchConfig,
    outcome: Result<(ProfileSummary, Arc<ClassifiedStream>), String>,
    /// The error in `outcome` is a caught profiling panic.
    panicked: bool,
}

impl ExperimentMatrix {
    /// Run the matrix against a shared profile cache:
    /// [`ExperimentMatrix::run_with`] with no memo, profiling inline.
    pub fn run(&self, cache: &ProfileCache) -> SweepReport {
        self.run_with(cache, 1, None).expect("a run without a memo does no I/O").0
    }

    /// The launch pipeline every matrix run takes. For each `(scenario,
    /// rank point)` cell that `memo` does not recall:
    ///
    /// 1. **Profile** each unique (workload, backend, storage) cell once,
    ///    on up to `jobs` worker threads pulling cells off a shared counter.
    ///    Each run is isolated behind its own `catch_unwind`, so a workload
    ///    that panics poisons only its own cells, which answer as errors.
    /// 2. **Configure and classify** each cold scenario once
    ///    ([`Scenario::launch_config`], then the shared
    ///    `Arc<ClassifiedStream>` of `profiles`).
    /// 3. **Simulate** every cold cell's replicate rows through the
    ///    replicate driver ([`run_adaptive_units`](crate::run_adaptive_units)):
    ///    under the matrix's stopping rule, or with the rule off
    ///    ([`AdaptiveControl::fixed`]) for fixed K. Each round's unique
    ///    kernels are solved on the same pool of up to `jobs` workers,
    ///    largest first.
    /// 4. **Summarise** each cell ([`LaunchStats`] and the M/G/k check),
    ///    offer it to `memo`, and assemble the report in matrix order.
    ///
    /// `jobs` is the worker count of the whole run: the calling thread
    /// works alongside `jobs − 1` scoped threads, and `jobs <= 1`, or a
    /// phase with one item, runs inline. The output is bit-identical for
    /// every `jobs`; peak memory grows with `jobs` × the largest kernel in
    /// flight. Every cell simulates independently (per-cell config,
    /// replicate seeds derived from the scenario label), so a recalled
    /// cell, or any subset of cold cells, is bit-identical to the same cell
    /// of a full run.
    pub fn run_with(
        &self,
        profiles: &ProfileCache,
        jobs: usize,
        memo: Option<&dyn CellMemo>,
    ) -> std::io::Result<(SweepReport, ExecStats)> {
        let scenarios = self.expand();
        let rank_points = self.effective_rank_points();
        let specs: Vec<ScenarioSpec> = scenarios.iter().map(Scenario::spec).collect();
        let mut cells: Vec<Vec<Option<CellAnswer>>> = specs
            .iter()
            .map(|spec| rank_points.iter().map(|&ranks| memo?.recall(self, spec, ranks)).collect())
            .collect();
        let warm_hits = cells.iter().flatten().filter(|c| c.is_some()).count();
        let cold: Vec<usize> =
            (0..scenarios.len()).filter(|&i| cells[i].iter().any(Option::is_none)).collect();

        // Phase 1: profile every unique cold cell once.
        let mut unique: Vec<&Scenario> = Vec::new();
        let mut index: HashMap<CellKey, usize> = HashMap::new();
        let cell_of: Vec<usize> = cold
            .iter()
            .map(|&i| {
                *index.entry(scenarios[i].cell_key()).or_insert_with(|| {
                    unique.push(&scenarios[i]);
                    unique.len() - 1
                })
            })
            .collect();
        let profiled = profile_cells(&unique, profiles, jobs);
        let cells_profiled = profiled.iter().filter(|p| matches!(p, Ok((_, true)))).count();

        // Phase 2: each cold scenario's config, classified once.
        let preps: Vec<Prep> = cold
            .iter()
            .zip(&cell_of)
            .map(|(&i, &c)| {
                let s = &scenarios[i];
                let cfg = s.launch_config(&self.base);
                let (outcome, panicked) = match &profiled[c] {
                    Ok((cell, _)) => (
                        cell.outcome(s.wrap).as_ref().map_err(Clone::clone).map(|p| {
                            let summary = ProfileSummary {
                                stat_openat: p.stat_openat,
                                misses: p.misses,
                                complete: p.complete,
                                unresolved: p.unresolved,
                            };
                            (summary, profiles.classified(&cell.key, s.wrap, &p.log, &cfg))
                        }),
                        false,
                    ),
                    Err(e) => (Err(e.clone()), true),
                };
                Prep { cfg, outcome, panicked }
            })
            .collect();

        // Phase 3: every cold cell with a stream is one unit of the
        // replicate driver; fixed K is the stopping rule switched off.
        let mut units: Vec<AdaptiveUnit<'_>> = Vec::new();
        for (&i, prep) in cold.iter().zip(&preps) {
            if let Ok((_, stream)) = &prep.outcome {
                for (&ranks, cell) in rank_points.iter().zip(&cells[i]) {
                    if cell.is_none() {
                        units
                            .push(AdaptiveUnit { stream, cfg: prep.cfg.clone().with_ranks(ranks) });
                    }
                }
            }
        }
        let ctl = self.adaptive.unwrap_or(AdaptiveControl::fixed(self.replicates));
        let (samples, solve_workers) = run_adaptive_units_on(&units, ctl, jobs);
        let mut samples = samples.into_iter();

        // Phase 4: summarise every cold cell and offer it to the memo.
        let mut panics = 0usize;
        for (&i, prep) in cold.iter().zip(&preps) {
            for (&ranks, slot) in rank_points.iter().zip(&mut cells[i]) {
                if slot.is_some() {
                    continue;
                }
                let cell = match &prep.outcome {
                    Ok((profile, stream)) => {
                        let reps = samples.next().expect("one replicate vector per cold cell");
                        let stats = LaunchStats::of(&reps);
                        let bounds = mg1_bounds(stream, &prep.cfg.clone().with_ranks(ranks));
                        let queueing = validate_against_mg1(&bounds, &stats);
                        CellAnswer {
                            profile: *profile,
                            error: None,
                            outcome: Some(CellOutcome { result: reps[0], stats, queueing }),
                        }
                    }
                    Err(e) => CellAnswer {
                        profile: ProfileSummary::default(),
                        error: Some(e.clone()),
                        outcome: None,
                    },
                };
                match memo {
                    _ if prep.panicked => panics += 1,
                    Some(m) => m.record(self, &specs[i], ranks, &cell)?,
                    None => {}
                }
                *slot = Some(cell);
            }
        }

        let results: Vec<ScenarioResult> = specs
            .into_iter()
            .zip(cells)
            .map(|(spec, cells)| assemble(spec, &rank_points, cells))
            .collect();
        let cells_total = scenarios.len() * rank_points.len();
        let stats = ExecStats {
            scenarios: scenarios.len(),
            cells_total,
            warm_hits,
            cold_cells: cells_total - warm_hits,
            jobs: pool::workers(jobs, unique.len()).max(solve_workers),
            cells_profiled,
            panics,
        };
        let report = SweepReport { rank_points, results, cells_profiled, adaptive: self.adaptive };
        Ok((report, stats))
    }
}

/// Profile each of `cells` once on [`pool::map`]'s `jobs` workers. Each
/// run is isolated behind its own `catch_unwind`: a workload that panics
/// mid-install poisons only its own cell (the cache entry is simply never
/// filled — `parking_lot` mutexes don't poison) and comes back as the
/// error. `Ok` carries whether this call did the profiling run.
fn profile_cells(
    cells: &[&Scenario],
    profiles: &ProfileCache,
    jobs: usize,
) -> Vec<Result<(Arc<CellProfile>, bool), String>> {
    pool::map(jobs, cells, |s| {
        catch_unwind(AssertUnwindSafe(|| {
            profiles.get_or_profile_counted(s.workload.as_ref(), &s.backend, s.storage)
        }))
        .map_err(|e| format!("panic in profiling: {}", panic_msg(e)))
    })
}

/// Render a caught panic payload (the `&str`/`String` cases `panic!`
/// produces; anything else is named as such).
fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One scenario's result from its per-rank-point cells, in rank point
/// order. The first cell carries the profile summary; any error wins.
fn assemble(
    spec: ScenarioSpec,
    rank_points: &[usize],
    cells: Vec<Option<CellAnswer>>,
) -> ScenarioResult {
    let cells: Vec<CellAnswer> =
        cells.into_iter().map(|c| c.expect("every cell answered")).collect();
    let profile = cells.first().map(|c| c.profile).unwrap_or_default();
    let mut r = ScenarioResult {
        spec,
        stat_openat: profile.stat_openat,
        misses: profile.misses,
        complete: profile.complete,
        unresolved: profile.unresolved,
        error: cells.iter().find_map(|c| c.error.clone()),
        series: Vec::new(),
        stats: Vec::new(),
        queueing: Vec::new(),
    };
    if r.error.is_none() {
        for (&ranks, cell) in rank_points.iter().zip(cells) {
            if let Some(o) = cell.outcome {
                r.series.push((ranks, o.result));
                r.stats.push((ranks, o.stats));
                r.queueing.push((ranks, o.queueing));
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LaunchConfig;
    use crate::matrix::CachePolicy;
    use depchaos_vfs::StorageModel;
    use depchaos_workloads::Pynamic;

    fn small_matrix() -> ExperimentMatrix {
        ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states(WrapState::all())
            .cache_policies(CachePolicy::all())
            .rank_points([256usize, 512])
    }

    #[test]
    fn cells_profiled_once_across_wrap_and_cache_axes() {
        let cache = ProfileCache::new();
        let report = small_matrix().run(&cache);
        // 1 workload × 1 backend × 1 storage = 1 cell, 4 scenarios.
        assert_eq!(report.results.len(), 4);
        assert_eq!(report.cells_profiled, 1);
        assert_eq!(cache.computed(), 1);
        // Re-running the same matrix against the same cache re-profiles
        // nothing.
        let report2 = small_matrix().run(&cache);
        assert_eq!(report2.cells_profiled, 0);
        assert_eq!(cache.computed(), 1);
    }

    #[test]
    fn a_profiled_cell_runs_two_loader_passes() {
        // The plain capture and the wrapped capture. The wrap freezes the
        // plain capture's load; it runs none of its own.
        use depchaos_core::{LoaderBackend, LoaderFactory};
        use depchaos_loader::{Environment, LoadError, Loader};
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Counting<'fs>(Box<dyn Loader + 'fs>, Arc<AtomicUsize>);
        impl Loader for Counting<'_> {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn load(&self, exe: &str) -> Result<LoadResult, LoadError> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.load(exe)
            }
            fn resolves_by_soname(&self) -> bool {
                self.0.resolves_by_soname()
            }
        }
        struct CountingGlibc(Arc<AtomicUsize>);
        impl LoaderFactory for CountingGlibc {
            fn instantiate<'fs>(
                &self,
                fs: &'fs Vfs,
                env: &Environment,
                cache: &LdCache,
            ) -> Box<dyn Loader + 'fs> {
                let glibc = LoaderBackend::glibc().instantiate(fs, env, cache);
                Box::new(Counting(glibc, Arc::clone(&self.0)))
            }
        }

        let loads = Arc::new(AtomicUsize::new(0));
        let factory = Arc::new(CountingGlibc(Arc::clone(&loads)));
        let backend = MatrixBackend::Stock(LoaderBackend::new("counting-glibc", factory));
        let cell =
            ProfileCache::new().get_or_profile(&Pynamic::new(10), &backend, StorageModel::Nfs);
        assert!(cell.plain.is_ok() && cell.wrapped.is_ok());
        assert_eq!(loads.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn classification_shared_across_cache_policies_and_rank_points() {
        let cache = ProfileCache::new();
        small_matrix().run(&cache);
        // 1 cell × 2 wrap states × 1 calibration = 2 classifications, even
        // though 4 scenarios × 2 rank points replayed them.
        assert_eq!(cache.classified_computed(), 2);
        // Re-running reclassifies nothing.
        small_matrix().run(&cache);
        assert_eq!(cache.classified_computed(), 2);
        // A recalibrated base config is a different classification key.
        small_matrix()
            .base_config(LaunchConfig { rtt_ns: 400_000, ..LaunchConfig::default() })
            .run(&cache);
        assert_eq!(cache.classified_computed(), 4);
    }

    #[test]
    fn wrapped_beats_plain_in_the_report() {
        let cache = ProfileCache::new();
        let report = small_matrix()
            .base_config(LaunchConfig {
                base_overhead_ns: 0,
                per_rank_overhead_ns: 0,
                ..LaunchConfig::default()
            })
            .run(&cache);
        let plain = report
            .find(|s| s.wrap == WrapState::Plain && s.cache == CachePolicy::Cold)
            .pop()
            .unwrap();
        let wrapped = report
            .find(|s| s.wrap == WrapState::Wrapped && s.cache == CachePolicy::Cold)
            .pop()
            .unwrap();
        assert!(plain.complete && wrapped.complete);
        assert!(wrapped.stat_openat < plain.stat_openat / 5);
        for &ranks in &[256usize, 512] {
            assert!(wrapped.seconds_at(ranks).unwrap() < plain.seconds_at(ranks).unwrap());
        }
    }

    #[test]
    fn broadcast_cache_policy_reaches_the_des() {
        let cache = ProfileCache::new();
        let report = small_matrix()
            .base_config(LaunchConfig {
                base_overhead_ns: 0,
                per_rank_overhead_ns: 0,
                ..LaunchConfig::default()
            })
            .run(&cache);
        let cold = report
            .find(|s| s.wrap == WrapState::Plain && s.cache == CachePolicy::Cold)
            .pop()
            .unwrap();
        let bcast = report
            .find(|s| s.wrap == WrapState::Plain && s.cache == CachePolicy::Broadcast)
            .pop()
            .unwrap();
        assert!(bcast.seconds_at(512).unwrap() < cold.seconds_at(512).unwrap());
    }

    #[test]
    fn renderers_cover_every_slice() {
        let cache = ProfileCache::new();
        let report = small_matrix().run(&cache);
        let tables = report.render_fig6_tables();
        assert!(tables.contains("pynamic-30 × glibc (nfs, cold cache)"));
        assert!(tables.contains("pynamic-30 × glibc (nfs, broadcast cache)"));
        assert!(tables.contains("speedup"));
        let tsv = report.render_tsv();
        assert!(tsv.starts_with("workload\t"));
        // 4 scenarios × 2 rank points + header.
        assert_eq!(tsv.lines().count(), 9);
    }

    #[test]
    fn slice_headings_are_distinct_when_other_axes_vary() {
        // Every renderer over a matrix that also varies the axes its table
        // does not: each slice still gets a heading of its own. Returns
        // each renderer's headings.
        fn distinct_headings(report: &SweepReport) -> [Vec<String>; 4] {
            [
                report.render_fig6_tables(),
                report.render_fig6_dist_tables(),
                report.render_fault_tables(),
                report.render_servers_tables(),
            ]
            .map(|tables| {
                let headings: Vec<String> =
                    tables.lines().filter(|l| l.starts_with("--- ")).map(String::from).collect();
                let distinct: std::collections::HashSet<&String> = headings.iter().collect();
                assert_eq!(distinct.len(), headings.len(), "headings repeat:\n{tables}");
                headings
            })
        }
        let cache = ProfileCache::new();
        let report = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .wrap_states(WrapState::all())
            .distributions([
                ServiceDistribution::Deterministic,
                ServiceDistribution::log_normal(0.5),
            ])
            .faults([
                FaultModel::None,
                FaultModel::Stragglers { frac_milli: 200, slow_milli: 4000 },
            ])
            .topologies([ServerTopology::single(), ServerTopology::hash(4)])
            .replicates(3)
            .rank_points([256usize, 512])
            .run(&cache);
        // 16 scenarios, two members per slice.
        for headings in distinct_headings(&report) {
            assert_eq!(headings.len(), 8, "{headings:?}");
        }
        assert!(report.render_fig6_tables().contains(
            "--- pynamic-30 × glibc (nfs, cold cache, lognormal-500, stragglers-200-4000, \
             servers-4-hash) ---\n"
        ));
        assert!(report.render_servers_tables().contains(
            "--- pynamic-30 × glibc (nfs, cold cache, plain, deterministic, stragglers-200-4000) \
             ---\n"
        ));

        // A one-server least-loaded fleet has the default fleet's single
        // lane but is a different topology, so its slices are named apart.
        let report = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .wrap_states(WrapState::all())
            .topologies([ServerTopology::single(), ServerTopology::least_loaded(1)])
            .rank_points([256usize, 512])
            .run(&cache);
        let [fig6, dist, fault, servers] = distinct_headings(&report);
        // 4 scenarios: the wrap and fleet tables pair them, the others
        // give each its own slice.
        assert_eq!([fig6.len(), dist.len(), fault.len(), servers.len()], [2, 4, 4, 2]);
        assert_eq!(fig6[1], "--- pynamic-30 × glibc (nfs, cold cache, servers-1-least) ---");
        // The fleet table's rows tell them apart the same way.
        let rows: Vec<String> = report
            .render_servers_tables()
            .lines()
            .filter_map(|l| l.split_whitespace().next().map(String::from))
            .collect();
        assert_eq!(rows.iter().filter(|r| *r == "1-server").count(), 2, "{rows:?}");
        assert_eq!(rows.iter().filter(|r| *r == "servers-1-least").count(), 2, "{rows:?}");
    }

    #[test]
    fn distribution_axis_multiplies_simulation_not_profiling() {
        let cache = ProfileCache::new();
        let report = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states(WrapState::all())
            .distributions(ServiceDistribution::all())
            .replicates(5)
            .rank_points([256usize, 512])
            .run(&cache);
        // 2 wrap states × 3 distributions, one profiled cell.
        assert_eq!(report.results.len(), 6);
        assert_eq!(report.cells_profiled, 1);
        // Classification keys on (cell, wrap, latency calibration):
        // distributions, replicates and rank points reuse them.
        assert_eq!(cache.classified_computed(), 2);

        for r in &report.results {
            let expect_k = if r.spec.dist.is_deterministic() { 1 } else { 5 };
            for (ranks, st) in &r.stats {
                assert_eq!(st.replicates, expect_k, "{} at {ranks}", r.spec.label());
                assert!(st.p50_ns <= st.p99_ns);
                // Replicate 0 is the series entry.
                assert!(r.result_at(*ranks).is_some());
            }
        }

        let dist_tables = report.render_fig6_dist_tables();
        assert!(dist_tables.contains("det(s)"));
        assert!(dist_tables.contains("jitter-250 p50/p99(s)"));
        assert!(dist_tables.contains("lognormal-500 p50/p99(s)"));
        let tsv = report.render_tsv();
        assert!(tsv.starts_with("workload\tbackend\tstorage\twrap\tcache\tdist\t"));
        // 6 scenarios × 2 rank points + header.
        assert_eq!(tsv.lines().count(), 13);
    }

    #[test]
    fn queueing_checks_ride_every_swept_cell() {
        let cache = ProfileCache::new();
        let report = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states(WrapState::all())
            .distributions(ServiceDistribution::all())
            .replicates(5)
            .rank_points([512usize, 2048])
            .run(&cache);
        for r in &report.results {
            assert_eq!(r.queueing.len(), 2, "{}: one check per rank point", r.spec.label());
            for (ranks, q) in &r.queueing {
                assert_eq!(q.observed_mean_ns, r.stats_at(*ranks).unwrap().mean_ns);
                assert!(q.within, "{} at {ranks}: {q:?}", r.spec.label());
            }
        }
        assert!(report.queueing_violations().is_empty());
        let tables = report.render_queueing_tables();
        assert!(tables.contains("mg1-wait(ms)"));
        assert!(tables.contains(" ok"));
        assert!(!tables.contains("VIOLATION"));
        let tsv = report.render_queueing_tsv();
        assert!(tsv.starts_with("workload\t"));
        // 6 scenarios × 2 rank points + header.
        assert_eq!(tsv.lines().count(), 13);
    }

    #[test]
    fn fault_axis_degrades_cells_without_touching_healthy_ones() {
        let faults = [
            FaultModel::None,
            FaultModel::ServerStall { at_ns: 0, duration_ns: 30_000_000_000 },
            FaultModel::RpcLoss {
                loss_milli: 100,
                timeout_ns: 1_000_000_000,
                backoff_base_ns: 250_000_000,
                max_retries: 5,
            },
            FaultModel::Stragglers { frac_milli: 200, slow_milli: 4000 },
        ];
        let base = LaunchConfig {
            base_overhead_ns: 0,
            per_rank_overhead_ns: 0,
            ..LaunchConfig::default()
        };
        let cache = ProfileCache::new();
        let degraded = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states([WrapState::Plain])
            .faults(faults)
            .base_config(base.clone())
            .rank_points([256usize, 512])
            .run(&cache);
        // 1 wrap × 4 fault models; faults change simulation, not profiling.
        assert_eq!(degraded.results.len(), 4);
        assert_eq!(cache.computed(), 1);

        // Healthy cells are byte-identical to a matrix with no fault axis —
        // the label (and so the cell seed) never saw the new axis.
        let healthy = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states([WrapState::Plain])
            .base_config(base)
            .rank_points([256usize, 512])
            .run(&cache);
        assert_eq!(degraded.get(&healthy.results[0].spec), Some(&healthy.results[0]));

        // Every fault slows the launch, and the accounting says why.
        let healthy_s = healthy.results[0].seconds_at(512).unwrap();
        for r in &degraded.results {
            if r.spec.fault.is_none() {
                continue;
            }
            assert!(
                r.seconds_at(512).unwrap() > healthy_s,
                "{}: fault should cost time",
                r.spec.label()
            );
            let l = r.result_at(512).unwrap();
            match r.spec.fault {
                FaultModel::RpcLoss { .. } => {
                    assert!(l.retries_issued > 0 && l.timeouts_hit > 0)
                }
                FaultModel::Stragglers { .. } => assert!(l.slowed_nodes > 0),
                _ => {}
            }
            // The surviving lower bound still holds for every faulted cell.
            for (ranks, q) in &r.queueing {
                assert!(q.within, "{} at {ranks}: {q:?}", r.spec.label());
                assert_eq!(q.bounds.upper_ns, u64::MAX);
            }
        }

        let tables = degraded.render_fault_tables();
        assert!(tables.contains("healthy"));
        assert!(tables.contains("stall-0-30000000000"));
        assert!(tables.contains("slowdown"));
        let tsv = degraded.render_tsv();
        assert!(tsv.starts_with("workload\tbackend\tstorage\twrap\tcache\tdist\tfault\t"));
        // 4 scenarios × 2 rank points + header.
        assert_eq!(tsv.lines().count(), 9);
        let qtsv = degraded.render_queueing_tsv();
        // Faulted rows leave the forfeited upper bound empty.
        assert!(qtsv.lines().skip(1).any(|l| l.split('\t').nth(11) == Some("")));
    }

    #[test]
    fn topology_axis_flattens_cells_without_touching_single_server_ones() {
        let base = LaunchConfig {
            base_overhead_ns: 0,
            per_rank_overhead_ns: 0,
            ..LaunchConfig::default()
        };
        let cache = ProfileCache::new();
        let topologies = [
            ServerTopology::single(),
            ServerTopology::hash(2),
            ServerTopology::hash(8),
            ServerTopology::least_loaded(4),
        ];
        let fleet = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states([WrapState::Plain])
            .topologies(topologies)
            .base_config(base.clone())
            .rank_points([256usize, 512])
            .run(&cache);
        // 1 wrap × 4 fleets; topology changes simulation, not profiling.
        assert_eq!(fleet.results.len(), 4);
        assert_eq!(cache.computed(), 1);

        // Single-server cells are byte-identical to a matrix with no
        // topology axis — the label (and so the cell seed) never saw it.
        let single = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states([WrapState::Plain])
            .base_config(base)
            .rank_points([256usize, 512])
            .run(&cache);
        assert_eq!(fleet.get(&single.results[0].spec), Some(&single.results[0]));

        // Every fleet is at least as fast as the paper's one server, and
        // each multi-server cell carries a passing M/G/k check.
        let single_s = single.results[0].seconds_at(512).unwrap();
        for r in &fleet.results {
            assert!(
                r.seconds_at(512).unwrap() <= single_s,
                "{}: more servers must not slow the launch",
                r.spec.label()
            );
            for (ranks, q) in &r.queueing {
                assert_eq!(q.bounds.servers, r.spec.topology.servers);
                assert!(q.within, "{} at {ranks}: {q:?}", r.spec.label());
            }
        }
        assert!(fleet.queueing_violations().is_empty());

        let tables = fleet.render_servers_tables();
        assert!(tables.contains("1-server"));
        assert!(tables.contains("servers-8-hash"));
        assert!(tables.contains("speedup"));
        assert!(tables.contains("flattens at"));
        let tsv = fleet.render_tsv();
        assert!(tsv.starts_with("workload\tbackend\tstorage\twrap\tcache\tdist\tfault\ttopology\t"));
        assert!(tsv.contains("\tservers-4-least\t"));
        // 4 scenarios × 2 rank points + header.
        assert_eq!(tsv.lines().count(), 9);
    }

    #[test]
    fn adaptive_matrix_with_disabled_target_is_the_fixed_matrix() {
        let cache = ProfileCache::new();
        let m = || {
            ExperimentMatrix::new()
                .workload(Pynamic::new(30))
                .backend(MatrixBackend::glibc())
                .storage(StorageModel::Nfs)
                .wrap_states(WrapState::all())
                .distributions(ServiceDistribution::all())
                .replicates(5)
                .rank_points([256usize, 512])
        };
        let fixed = m().run(&cache);
        let ctl = AdaptiveControl { target_rel_milli: 0, min_k: 1, max_k: 5, batch: 2 };
        let adaptive = m().adaptive(ctl).run(&cache);
        assert_eq!(adaptive.results, fixed.results, "disabled target ⇒ fixed-K run");
        assert_eq!(adaptive.adaptive, Some(ctl));
        assert_eq!(fixed.adaptive, None);
        // The stopping column tells the two reports apart.
        assert!(fixed.render_tsv().contains("\tfixed@5\n"));
        assert!(adaptive.render_tsv().contains("\tadaptive-0m@5\n"));
    }

    #[test]
    fn adaptive_matrix_stops_early_and_keeps_the_deterministic_clamp() {
        let cache = ProfileCache::new();
        let report = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states([WrapState::Plain])
            .distributions(ServiceDistribution::all())
            .replicates(25)
            .adaptive(AdaptiveControl { target_rel_milli: 500, min_k: 2, max_k: 25, batch: 2 })
            .rank_points([256usize, 512])
            .run(&cache);
        let mut stopped_early = 0usize;
        for r in &report.results {
            for (ranks, st) in &r.stats {
                if r.spec.dist.is_deterministic() {
                    assert_eq!(st.replicates, 1, "clamp survives adaptive control");
                } else {
                    assert!(st.replicates >= 2, "{} at {ranks}", r.spec.label());
                    if st.replicates < 25 {
                        stopped_early += 1;
                    }
                    // The half-width the rule certified: within 50% of the
                    // mean at stop (loose target, loose check).
                    assert!(st.p50_ns > 0);
                }
                // Replicate 0 is still the series entry.
                assert!(r.result_at(*ranks).is_some());
            }
        }
        assert!(stopped_early > 0, "a 50% target must stop some cells early");
        // Queueing envelopes (widened by the smaller K) still hold.
        assert!(report.queueing_violations().is_empty());
    }

    #[test]
    fn scenario_seeds_are_stable_and_per_cell() {
        let a = scenario_seed(1, "pynamic-30/glibc/nfs/plain/cold/lognormal-500");
        let b = scenario_seed(1, "pynamic-30/glibc/nfs/plain/cold/lognormal-500");
        let c = scenario_seed(1, "pynamic-30/glibc/nfs/wrapped/cold/lognormal-500");
        let d = scenario_seed(2, "pynamic-30/glibc/nfs/plain/cold/lognormal-500");
        assert_eq!(a, b, "pure function of (seed, label)");
        assert_ne!(a, c, "cells draw decorrelated streams");
        assert_ne!(a, d, "the experiment seed moves every cell");
    }

    #[test]
    fn a_backend_that_cannot_wrap_is_reported_not_fatal() {
        use depchaos_core::LoaderBackend;
        // The future loader ignores RUNPATH, so it can neither resolve nor
        // wrap the stock pynamic world — the report carries the error.
        let cache = ProfileCache::new();
        let report = ExperimentMatrix::new()
            .workload(Pynamic::new(10))
            .backend(MatrixBackend::Stock(LoaderBackend::future()))
            .run(&cache);
        let wrapped = report.find(|s| s.wrap == WrapState::Wrapped).pop().unwrap();
        assert!(wrapped.error.as_deref().unwrap_or_default().contains("wrap failed"));
        let plain = report.find(|s| s.wrap == WrapState::Plain).pop().unwrap();
        assert!(!plain.complete, "future cannot see RUNPATH dirs");
        let tables = report.render_fig6_tables();
        assert!(tables.contains("wrap failed") || tables.contains("no series"));
    }
}
