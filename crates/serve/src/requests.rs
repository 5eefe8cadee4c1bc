//! The batched front door: what-if requests in, answers out.
//!
//! A batch is JSONL — one request per line:
//!
//! ```json
//! {"id":"q1","base":"pynamic-200"}
//! {"id":"q2","base":"pynamic-200","wrap":"wrapped","cache":"broadcast"}
//! {"id":"q3","base":"axom-7","dist":"lognormal-500","ranks":[512,4096],"servers":4}
//! {"id":"q4","base":"pynamic-200","fault":"stall-2000000000-10000000000"}
//! ```
//!
//! `id` and `base` are mandatory; everything else is a **delta** against
//! the named base scenario, which defaults to the paper cell: glibc
//! backend, NFS storage, plain binary, cold caches, deterministic server,
//! healthy (no fault), ranks 512/1024/2048, [`DEFAULT_REPLICATES`]
//! replicates. Recognised base workloads: `pynamic-N`, `pynamic-rpath-N`,
//! `axom-SEED`, `rocm-4.5`, `rocm-mixed`, `emacs` (plus `poison`, the
//! deliberately-panicking panic-isolation fixture — never useful outside
//! tests), each in its canonical spelling: `N` and `SEED` are plain
//! decimal, without a sign or a leading zero. Axis deltas take the exact
//! names the reports print (`wrap`, `cache`, `backend`, `storage`,
//! `dist`, `fault` — fault spellings are
//! [`FaultModel::parse`]'s: `none`, `stall-AT-DUR`,
//! `loss-MILLI-TIMEOUT-BACKOFF-RETRIES`, `stragglers-FRAC-SLOW`); `ranks`
//! replaces the rank-point list; `replicates` and `seed` override the
//! sweep parameters. `servers: N` runs the **modeled** N-server fleet —
//! the real [`ServerTopology`] axis of the DES, with `assign` picking the
//! request-routing policy (`hash`, the default, or `least`) — while
//! `servers_ideal: N` keeps the old perfect-scaling approximation (per-op
//! service time divided by N, coordination-free: an optimistic lower
//! bound the modeled fleet can approach but, contended, never beat).
//!
//! A request is read strictly, by the codec's one field reader: an
//! unknown, duplicate or nested field, a trailing comma, an integer that
//! is not plain ASCII digits, a 0 in `ranks`, `replicates`, `servers` or
//! `servers_ideal` (each takes values ≥ 1), a `servers` or
//! `servers_ideal` above [`MAX_SERVERS`], a rank count above
//! [`MAX_RANKS`] or a repeated rank point, a `replicates` above
//! [`MAX_REPLICATES`], a log-normal `dist` whose σ is above
//! [`MAX_SIGMA_MILLI`] milli, or a fault time above [`MAX_SERVICE_NS`] or
//! retry count above [`MAX_FAULT_RETRIES`] is an error naming its field. These
//! checks run before the store is consulted. It answers one error line
//! under the request's `id`, or `line-N` when none is readable. The batch
//! is split on `\n`, and a line that is not UTF-8 answers one error line
//! under `line-N`.
//!
//! Each answer is one JSONL line per `(query, rank point)` carrying only
//! simulator-deterministic integers (or the cell's error string), so a
//! warm replay of the same batch must produce a **byte-identical** answer
//! file — CI asserts exactly that. Hit/miss/latency accounting goes to a
//! separate stats document ([`BatchReport::stats_json`]), which is where
//! the nondeterministic numbers (wall-clock) live.

use std::sync::Arc;
use std::time::Instant;

use depchaos_launch::{
    AssignPolicy, CachePolicy, ExperimentMatrix, FaultModel, LaunchConfig, MatrixBackend,
    ProfileCache, ServerTopology, ServiceDistribution, WrapState, DEFAULT_REPLICATES,
    MAX_SERVICE_NS,
};
use depchaos_vfs::StorageModel;
use depchaos_workloads::{Axom, Emacs, Poison, Pynamic, PynamicRpath, Rocm, Workload};

use crate::codec::{esc, string, uint, uint_list, Fields, Shape};
use crate::exec::{run_matrix_incremental, ExecStats};
use crate::store::ResultStore;

/// The largest `servers` and `servers_ideal` a request may ask for. A
/// least-loaded fleet keeps one busy clock per server and the M/G/k check
/// sums over the servers, so an unbounded count could abort the whole batch
/// on one allocation; every report section and benchmark fleet is at most
/// 16 servers.
pub const MAX_SERVERS: u64 = 65_536;

/// The largest rank count a request may ask for: 2²² = 4,194,304, the
/// largest launch a `des_million_ranks/*` bench row simulates. A heap
/// kernel keeps state per node, so an unbounded count could abort the whole
/// batch on one allocation.
pub const MAX_RANKS: u64 = 1 << 22;

/// The largest `replicates` a request may ask for. The replicate runner
/// keeps a result per replicate, so an unbounded count could abort the
/// whole batch on one allocation; every report section, bench row and
/// benchmark workload runs at most [`DEFAULT_REPLICATES`].
pub const MAX_REPLICATES: u64 = 1024;

/// The largest log-normal σ, in milli-units, a request's `dist` may ask
/// for: σ = 20, the largest the heap kernel's release draw sweep covers.
/// The M/G/k check's `E[F²] = e^{σ²}` overflows from σ ≈ 26.6, so an
/// unbounded σ was answered with an infinite or NaN mean wait in its
/// stored record.
pub const MAX_SIGMA_MILLI: u32 = 20_000;

/// The largest `RETRIES` of a requested `loss-…` fault. With it and the
/// time bound ([`MAX_SERVICE_NS`], which also bounds the timeout and the
/// backoff base), one lost op's re-issues add less than 2⁶⁰ ns.
pub const MAX_FAULT_RETRIES: u32 = 16;

/// One parsed what-if query: a named base scenario plus axis deltas.
#[derive(Debug, Clone)]
pub struct WhatIfRequest {
    pub id: String,
    /// The base workload name (`pynamic-N`, `axom-SEED`, …).
    pub base: String,
    pub backend: MatrixBackend,
    pub storage: StorageModel,
    pub wrap: WrapState,
    pub cache: CachePolicy,
    pub dist: ServiceDistribution,
    pub fault: FaultModel,
    pub ranks: Vec<usize>,
    /// Metadata servers backing the service — the modeled
    /// [`ServerTopology`] axis.
    pub servers: u64,
    /// Request-routing policy for the modeled fleet (`hash` by default).
    pub assign: AssignPolicy,
    /// Perfect-scaling approximation: divide the per-op service time by
    /// this count instead of modeling the fleet. 1 = off.
    pub servers_ideal: u64,
    pub replicates: usize,
    /// Experiment seed override, when given.
    pub seed: Option<u64>,
}

/// Resolve a base-workload name to a workload instance, in its canonical
/// spelling only: the name must be the workload's own
/// [`Workload::name`], which labels its answers. `str::parse` alone would
/// read `pynamic-020` and `axom-+7` as `pynamic-20` and `axom-7`.
fn resolve_workload(name: &str) -> Result<Arc<dyn Workload>, String> {
    let workload = workload_named(name)?;
    if workload.name() != name {
        return Err(format!(
            "field \"base\": {name:?} is not a canonical name (the workload is {:?})",
            workload.name()
        ));
    }
    Ok(workload)
}

/// The workload a base name spells, canonically or not.
fn workload_named(name: &str) -> Result<Arc<dyn Workload>, String> {
    let libs = |n: &str| -> Result<usize, String> {
        let n: usize = n.parse().map_err(|_| format!("bad library count in {name:?}"))?;
        if n == 0 || n > 5000 {
            return Err(format!("library count out of range in {name:?} (1..=5000)"));
        }
        Ok(n)
    };
    if let Some(n) = name.strip_prefix("pynamic-rpath-") {
        return Ok(Arc::new(PynamicRpath::new(libs(n)?)));
    }
    if let Some(n) = name.strip_prefix("pynamic-") {
        return Ok(Arc::new(Pynamic::new(libs(n)?)));
    }
    if let Some(seed) = name.strip_prefix("axom-") {
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed in {name:?}"))?;
        return Ok(Arc::new(Axom::new(seed)));
    }
    match name {
        "emacs" => Ok(Arc::new(Emacs)),
        "rocm-4.5" => Ok(Arc::new(Rocm::matched())),
        "rocm-mixed" => Ok(Arc::new(Rocm::mixed())),
        // The panic-isolation fixture: installs by panicking. Accepted so
        // integration tests (and the curious) can poison one cell of a
        // batch; deliberately absent from the unknown-workload hint below.
        "poison" => Ok(Arc::new(Poison)),
        _ => Err(format!(
            "unknown base workload {name:?} \
             (try pynamic-N, pynamic-rpath-N, axom-SEED, rocm-4.5, rocm-mixed, emacs)"
        )),
    }
}

/// `dist` when it is not a log-normal above [`MAX_SIGMA_MILLI`].
fn bounded_dist(dist: ServiceDistribution) -> Result<ServiceDistribution, String> {
    match dist {
        ServiceDistribution::LogNormal { sigma_milli } if sigma_milli > MAX_SIGMA_MILLI => {
            Err(format!("field \"dist\" takes lognormal-S with S at most {MAX_SIGMA_MILLI}"))
        }
        _ => Ok(dist),
    }
}

/// `fault` when its times are at most [`MAX_SERVICE_NS`] and its retries at
/// most [`MAX_FAULT_RETRIES`]: past these the engine's clock sums could
/// wrap, and a wrapped time would be answered and stored as a launch time.
fn bounded_fault(fault: FaultModel) -> Result<FaultModel, String> {
    let (times, retries) = match fault {
        FaultModel::ServerStall { at_ns, duration_ns } => ([at_ns, duration_ns], 0),
        FaultModel::RpcLoss { timeout_ns, backoff_base_ns, max_retries, .. } => {
            ([timeout_ns, backoff_base_ns], max_retries)
        }
        FaultModel::None | FaultModel::Stragglers { .. } => ([0, 0], 0),
    };
    if times.iter().all(|&t| t <= MAX_SERVICE_NS) && retries <= MAX_FAULT_RETRIES {
        return Ok(fault);
    }
    Err(format!(
        "field \"fault\" takes times of at most {MAX_SERVICE_NS} ns and at most \
         {MAX_FAULT_RETRIES} retries"
    ))
}

/// `ranks` as rank points when none repeats: a repeated point would
/// simulate its cell again, and answer and store it twice.
fn distinct_ranks(ranks: Vec<u64>) -> Result<Vec<usize>, String> {
    let mut sorted = ranks.clone();
    sorted.sort_unstable();
    match sorted.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(format!("field \"ranks\" repeats the rank point {}", w[0])),
        None => Ok(ranks.into_iter().map(|n| n as usize).collect()),
    }
}

/// The axis delta `key`, if the request has one, in the axis's own
/// spelling; an unknown spelling is an error naming the field and `what`.
fn axis<T>(f: &mut Fields, key: &str, what: &str, parse: Shape<T>) -> Result<Option<T>, String> {
    let known = |s: String| parse(&s).ok_or(format!("field {key:?}: unknown {what} {s:?}"));
    f.get(key, string)?.map(known).transpose()
}

impl WhatIfRequest {
    /// Parse one request line through the codec's field reader. Errors
    /// name the offending field.
    pub fn parse(line: &str) -> Result<WhatIfRequest, String> {
        let mut f = Fields::parse(line);
        let (id, base) = (f.need("id", string)?, f.need("base", string)?);
        resolve_workload(&base)?;
        let bounded = |f: &mut Fields, key: &str, default: u64, max: u64| match f.get(key, uint)? {
            None => Ok(default),
            Some(0) => Err(format!("field {key:?} must be an integer ≥ 1")),
            Some(n) if n > max => Err(format!("field {key:?} must be at most {max}")),
            Some(n) => Ok(n),
        };
        let request = WhatIfRequest {
            id,
            base,
            backend: axis(&mut f, "backend", "backend", MatrixBackend::parse)?
                .unwrap_or_else(MatrixBackend::glibc),
            storage: axis(&mut f, "storage", "storage model", StorageModel::parse)?
                .unwrap_or(StorageModel::Nfs),
            wrap: axis(&mut f, "wrap", "wrap state", WrapState::parse)?.unwrap_or(WrapState::Plain),
            cache: axis(&mut f, "cache", "cache policy", CachePolicy::parse)?
                .unwrap_or(CachePolicy::Cold),
            dist: axis(&mut f, "dist", "distribution", ServiceDistribution::parse)?
                .map(bounded_dist)
                .transpose()?
                .unwrap_or(ServiceDistribution::Deterministic),
            fault: axis(&mut f, "fault", "fault model", FaultModel::parse)?
                .map(bounded_fault)
                .transpose()?
                .unwrap_or(FaultModel::None),
            ranks: match f.get("ranks", uint_list)? {
                None => vec![512, 1024, 2048],
                Some(r) if r.iter().all(|n| (1..=MAX_RANKS).contains(n)) => distinct_ranks(r)?,
                Some(_) => {
                    return Err(format!("field \"ranks\" must hold integers from 1 to {MAX_RANKS}"))
                }
            },
            servers: bounded(&mut f, "servers", 1, MAX_SERVERS)?,
            assign: axis(&mut f, "assign", "assign policy", AssignPolicy::parse)?
                .unwrap_or(AssignPolicy::HashByNode),
            servers_ideal: bounded(&mut f, "servers_ideal", 1, MAX_SERVERS)?,
            replicates: bounded(&mut f, "replicates", DEFAULT_REPLICATES as u64, MAX_REPLICATES)?
                as usize,
            seed: f.get("seed", uint)?,
        };
        f.finish()?;
        Ok(request)
    }

    /// The single-scenario matrix this query describes.
    pub fn matrix(&self) -> Result<ExperimentMatrix, String> {
        let workload = resolve_workload(&self.base)?;
        let mut base = LaunchConfig::default();
        if let Some(seed) = self.seed {
            base.seed = seed;
        }
        // The ideal-scaling what-if divides the per-op service time,
        // coordination-free; the `servers` axis below models the fleet.
        base.meta_service_ns = (base.meta_service_ns / self.servers_ideal).max(1);
        let topology = ServerTopology { servers: self.servers as usize, assign: self.assign };
        Ok(ExperimentMatrix::new()
            .workload_arc(workload)
            .backend(self.backend.clone())
            .storage(self.storage)
            .wrap_states([self.wrap])
            .cache_policies([self.cache])
            .distribution(self.dist)
            .fault(self.fault)
            .topologies([topology])
            .rank_points(self.ranks.iter().copied())
            .replicates(self.replicates)
            .base_config(base))
    }
}

/// One served query: its deterministic answer lines plus the accounting.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub id: String,
    /// JSONL answer lines (one per rank point; one error line for error
    /// cells or unparseable requests).
    pub answers: Vec<String>,
    pub stats: ExecStats,
    pub elapsed_us: u128,
    pub parse_error: Option<String>,
}

/// A served batch.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    pub queries: Vec<QueryOutcome>,
}

impl BatchReport {
    /// Every answer line, in batch order — simulator-deterministic, so a
    /// warm replay emits identical bytes.
    pub fn answers_jsonl(&self) -> String {
        let mut out = String::new();
        for q in &self.queries {
            for line in &q.answers {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Did anything go wrong serving this batch: a request that failed to
    /// parse, or a cell whose profiling **panicked** (isolated, reported,
    /// never persisted). Simulated error *cells* — loads the engine
    /// resolves to a failure — are data, not failures.
    pub fn had_errors(&self) -> bool {
        self.queries.iter().any(|q| q.parse_error.is_some() || q.stats.panics > 0)
    }

    /// The batch accounting as one JSON document: totals (including the
    /// `total_cold_cells` / `hit_rate` fields the CI smoke greps), the
    /// per-query counters, and the store's load stats.
    pub fn stats_json(&self, store: &ResultStore) -> String {
        let cells: usize = self.queries.iter().map(|q| q.stats.cells_total).sum();
        let warm: usize = self.queries.iter().map(|q| q.stats.warm_hits).sum();
        let cold: usize = self.queries.iter().map(|q| q.stats.cold_cells).sum();
        let parse_errors = self.queries.iter().filter(|q| q.parse_error.is_some()).count();
        let panics: usize = self.queries.iter().map(|q| q.stats.panics).sum();
        let elapsed: u128 = self.queries.iter().map(|q| q.elapsed_us).sum();
        let hit_rate = if cells == 0 { 1.0 } else { warm as f64 / cells as f64 };
        let mut s = format!(
            "{{\"queries\":{},\"cells\":{cells},\"total_warm_hits\":{warm},\
             \"total_cold_cells\":{cold},\"hit_rate\":{hit_rate:.3},\
             \"parse_errors\":{parse_errors},\"panics\":{panics},\"elapsed_us\":{elapsed},\n \
             \"per_query\":[",
            self.queries.len(),
        );
        for (i, q) in self.queries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n  {{\"id\":\"{}\",\"cells\":{},\"warm_hits\":{},\"cold_cells\":{},\
                 \"elapsed_us\":{}}}",
                esc(&q.id),
                q.stats.cells_total,
                q.stats.warm_hits,
                q.stats.cold_cells,
                q.elapsed_us,
            ));
        }
        let ls = store.load_stats();
        s.push_str(&format!(
            "],\n \"store\":{{\"records\":{},\"loaded\":{},\"corrupt_skipped\":{},\
             \"epoch_evicted\":{},\"duplicates\":{}}}}}\n",
            store.len(),
            ls.loaded,
            ls.corrupt_skipped,
            ls.epoch_evicted,
            ls.duplicates,
        ));
        s
    }
}

/// Serve one batch of JSONL requests, split on `\n`, against a store.
/// Queries run in batch order; each one profiles its cold cells and
/// batch-simulates its misses in one planner pass, both on `jobs` workers,
/// with answers bit-identical for every `jobs` and peak memory growing
/// with `jobs` × the largest kernel in flight. A request that fails to
/// parse, a line that is not UTF-8 among them, becomes an error answer and
/// marks the batch (exit code 1 at the CLI), without stopping later
/// queries. I/O errors from the store are real errors.
pub fn serve_batch(
    input: impl AsRef<[u8]>,
    store: &ResultStore,
    profiles: &ProfileCache,
    jobs: usize,
) -> std::io::Result<BatchReport> {
    let mut report = BatchReport::default();
    for (lineno, bytes) in input.as_ref().split(|&b| b == b'\n').enumerate() {
        let line = std::str::from_utf8(bytes);
        if line.is_ok_and(|l| l.trim().is_empty()) {
            continue;
        }
        let started = Instant::now();
        let parsed = line
            .map_err(|_| "line is not UTF-8".to_string())
            .and_then(WhatIfRequest::parse)
            .and_then(|r| r.matrix().map(|m| (r, m)));
        let (req, matrix) = match parsed {
            Ok(p) => p,
            Err(e) => {
                let id = line
                    .ok()
                    .and_then(|l| Fields::parse(l).need("id", string).ok())
                    .unwrap_or_else(|| format!("line-{}", lineno + 1));
                report.queries.push(QueryOutcome {
                    answers: vec![format!("{{\"id\":\"{}\",\"error\":\"{}\"}}", esc(&id), esc(&e))],
                    id,
                    stats: ExecStats::default(),
                    elapsed_us: started.elapsed().as_micros(),
                    parse_error: Some(e),
                });
                continue;
            }
        };
        let (sweep, stats) = run_matrix_incremental(&matrix, store, profiles, jobs)?;
        let id = esc(&req.id);
        let mut answers = Vec::new();
        for r in &sweep.results {
            let label = esc(&r.spec.label());
            if let Some(e) = &r.error {
                answers.push(format!(
                    "{{\"id\":\"{id}\",\"label\":\"{label}\",\"error\":\"{}\"}}",
                    esc(e)
                ));
                continue;
            }
            for &ranks in &sweep.rank_points {
                let (Some(l), Some(st), Some(q)) =
                    (r.result_at(ranks), r.stats_at(ranks), r.queueing_at(ranks))
                else {
                    continue;
                };
                answers.push(format!(
                    "{{\"id\":\"{id}\",\"label\":\"{label}\",\"ranks\":{ranks},\"launch_ns\":{},\
                     \"nodes\":{},\"server_ops\":{},\"local_ops\":{},\"peak_queue\":{},\
                     \"replicates\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\
                     \"p99_ns\":{},\"q_within\":{}}}",
                    l.time_to_launch_ns,
                    l.nodes,
                    l.server_ops,
                    l.local_ops,
                    l.peak_queue_depth,
                    st.replicates,
                    st.mean_ns,
                    st.p50_ns,
                    st.p95_ns,
                    st.p99_ns,
                    q.within,
                ));
            }
        }
        report.queries.push(QueryOutcome {
            id: req.id,
            answers,
            stats,
            elapsed_us: started.elapsed().as_micros(),
            parse_error: None,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `launch_ns` of a query's first answer line.
    fn launch_ns(q: &QueryOutcome) -> u64 {
        Fields::parse(&q.answers[0]).need("launch_ns", uint).unwrap()
    }

    #[test]
    fn requests_parse_with_defaults_and_deltas() {
        let q = WhatIfRequest::parse(r#"{"id":"q1","base":"pynamic-20"}"#).unwrap();
        assert_eq!(q.id, "q1");
        assert_eq!(q.ranks, vec![512, 1024, 2048]);
        assert_eq!(q.wrap, WrapState::Plain);
        assert_eq!(q.fault, FaultModel::None);
        assert_eq!(q.servers, 1);
        assert_eq!(q.assign, AssignPolicy::HashByNode);
        assert_eq!(q.servers_ideal, 1);
        assert_eq!(q.replicates, DEFAULT_REPLICATES);

        let q = WhatIfRequest::parse(
            r#"{"id":"q2","base":"pynamic-20","wrap":"wrapped","cache":"broadcast",
               "dist":"lognormal-500","backend":"musl","storage":"local",
               "fault":"stall-2000000000-10000000000","assign":"least",
               "ranks":[256, 512],"servers":4,"servers_ideal":2,"replicates":3,"seed":9}"#
                .replace('\n', " ")
                .as_str(),
        )
        .unwrap();
        assert_eq!(q.wrap, WrapState::Wrapped);
        assert_eq!(q.cache, CachePolicy::Broadcast);
        assert_eq!(q.dist, ServiceDistribution::log_normal(0.5));
        assert_eq!(q.backend.name(), "musl");
        assert_eq!(q.storage, StorageModel::Local);
        assert_eq!(
            q.fault,
            FaultModel::ServerStall { at_ns: 2_000_000_000, duration_ns: 10_000_000_000 }
        );
        assert_eq!(q.ranks, vec![256, 512]);
        assert_eq!(q.servers, 4);
        assert_eq!(q.assign, AssignPolicy::LeastLoaded);
        assert_eq!(q.servers_ideal, 2);
        assert_eq!(q.replicates, 3);
        assert_eq!(q.seed, Some(9));
    }

    #[test]
    fn bad_fields_name_themselves() {
        for (line, needle) in [
            (r#"{"base":"pynamic-20"}"#, "\"id\""),
            (r#"{"id":"q"}"#, "\"base\""),
            (r#"{"id":"q","base":"frobnicator"}"#, "unknown base workload"),
            (r#"{"id":"q","base":"pynamic-0"}"#, "out of range"),
            (
                r#"{"id":"q","base":"pynamic-020"}"#,
                r#"field "base": "pynamic-020" is not a canonical name"#,
            ),
            (r#"{"id":"q","base":"pynamic-+20"}"#, r#"field "base""#),
            (r#"{"id":"q","base":"axom-07"}"#, r#"field "base""#),
            (r#"{"id":"q","base":"pynamic-20","wrap":"sideways"}"#, "unknown wrap state"),
            (r#"{"id":"q","base":"pynamic-20","dist":"cauchy"}"#, "unknown distribution"),
            (
                r#"{"id":"q","base":"pynamic-20","dist":"lognormal-+500"}"#,
                r#"field "dist": unknown distribution "lognormal-+500""#,
            ),
            (r#"{"id":"q","base":"pynamic-20","dist":"lognormal-0500"}"#, r#"field "dist""#),
            (r#"{"id":"q","base":"pynamic-20","fault":"gremlins"}"#, "unknown fault model"),
            (
                r#"{"id":"q","base":"pynamic-20","fault":"stall-+0-1000"}"#,
                r#"field "fault": unknown fault model "stall-+0-1000""#,
            ),
            (r#"{"id":"q","base":"pynamic-20","servers":0}"#, "\"servers\""),
            (r#"{"id":"q","base":"pynamic-20","servers":8.9}"#, "\"servers\""),
            (r#"{"id":"q","base":"pynamic-20","seed":1e3}"#, "\"seed\""),
            (r#"{"id":"q","base":"pynamic-20","replicates":3.5}"#, "\"replicates\""),
            (r#"{"id":"q","base":"pynamic-20","servers_ideal":0}"#, "\"servers_ideal\""),
            (r#"{"id":"q","base":"pynamic-20","servers":65537}"#, "\"servers\" must be at most"),
            (
                r#"{"id":"q","base":"pynamic-20","servers":1000000000000,"assign":"least"}"#,
                "\"servers\" must be at most 65536",
            ),
            (
                r#"{"id":"q","base":"pynamic-20","servers_ideal":65537}"#,
                "\"servers_ideal\" must be at most",
            ),
            (r#"{"id":"q","base":"pynamic-20","assign":"roulette"}"#, "unknown assign policy"),
            (r#"{"id":"q","base":"pynamic-20","ranks":[a]}"#, "\"ranks\""),
            (r#"{"id":"q","base":"pynamic-20","ranks":[]}"#, "\"ranks\""),
            (r#"{"id":"q","base":"pynamic-20","ranks":[1,]}"#, "\"ranks\""),
            (r#"{"id":"q","base":"pynamic-20","ranks":[512,0]}"#, "\"ranks\" must hold"),
            (
                r#"{"id":"big","base":"pynamic-20","ranks":[18446744073709551615]}"#,
                "\"ranks\" must hold integers from 1 to 4194304",
            ),
            (r#"{"id":"q","base":"pynamic-20","ranks":[512,4194305]}"#, "\"ranks\" must hold"),
            (
                r#"{"id":"d","base":"pynamic-20","ranks":[512,512],"dist":"lognormal-500"}"#,
                "field \"ranks\" repeats the rank point 512",
            ),
            (r#"{"id":"q","base":"pynamic-20","ranks":[64,128,64]}"#, "\"ranks\" repeats"),
            (r#"{"id":"q","base":"pynamic-20","replicates":0}"#, "\"replicates\" must be"),
            (
                concat!(
                    r#"{"id":"reps","base":"pynamic-20","dist":"lognormal-500","ranks":[64],"#,
                    r#""replicates":18446744073709551615}"#
                ),
                "\"replicates\" must be at most 1024",
            ),
            (
                r#"{"id":"q","base":"pynamic-20","replicates":1025}"#,
                "\"replicates\" must be at most",
            ),
            (
                r#"{"id":"q","base":"pynamic-20","fault":"stall-0-18446744073709551615"}"#,
                "\"fault\" takes times of at most 1099511627776 ns and at most 16 retries",
            ),
            (
                r#"{"id":"q","base":"pynamic-20","fault":"loss-999-18446744073709551615-1-3"}"#,
                "\"fault\" takes times of at most 1099511627776 ns",
            ),
            (r#"{"id":"q","base":"pynamic-20","fault":"stall-1099511627777-1"}"#, "\"fault\""),
            (r#"{"id":"q","base":"pynamic-20","fault":"stall-0-1099511627777"}"#, "\"fault\""),
            (r#"{"id":"q","base":"pynamic-20","fault":"loss-50-1099511627777-1-3"}"#, "\"fault\""),
            (r#"{"id":"q","base":"pynamic-20","fault":"loss-50-1-1099511627777-3"}"#, "\"fault\""),
            (r#"{"id":"q","base":"pynamic-20","fault":"loss-50-1-1-17"}"#, "at most 16 retries"),
            (r#"{"id":"q","base":"pynamic-20","seed":+5}"#, "\"seed\""),
            (
                r#"{"id":"lz","base":"pynamic-20","ranks":[0512],"replicates":011}"#,
                "malformed field \"ranks\"",
            ),
            (
                r#"{"id":"q","base":"pynamic-20","replicates":011}"#,
                "malformed field \"replicates\"",
            ),
            (r#"{"id":"q","base":"pynamic-20","seed":18446744073709551616}"#, "\"seed\""),
            (r#"{"id":"q","base":"pynamic-20","severs":8}"#, "unknown field \"severs\""),
            (r#"{"id":"q","base":"pynamic-20","x":{"ranks":[64]}}"#, "nested value in field \"x\""),
            (r#"{"id":"q","base":"pynamic-20","ranks":[[64]]}"#, "nested value in field \"ranks\""),
            (
                r#"{"id":"q","base":"pynamic-20","ranks":[64],"ranks":[128]}"#,
                "duplicate field \"ranks\"",
            ),
            (r#"{"id":"q","base":"pynamic-20","seed":1,}"#, "trailing comma after field \"seed\""),
            (r#"{"id":"q","base":"pynamic-20" "seed":1}"#, "after field \"base\""),
            (r#"{"id":"q","base":"pynamic-20","seed"}"#, "after field \"seed\""),
            (r#"{"id":"q","base":"pynamic-20","wrap":"plain}"#, "\"wrap\""),
            (r#"{"id":7,"base":"pynamic-20"}"#, "\"id\""),
            (r#"{"id":"q","base":"pynamic-20"}}"#, "after field \"base\""),
            ("{}", "missing field \"id\""),
            ("not json", "not a JSON object"),
        ] {
            let err = WhatIfRequest::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
        let largest = r#"{"id":"q","base":"pynamic-20","servers":65536,"servers_ideal":65536}"#;
        let q = WhatIfRequest::parse(largest).unwrap();
        assert_eq!((q.servers, q.servers_ideal), (MAX_SERVERS, MAX_SERVERS));
        let q = WhatIfRequest::parse(r#"{"id":"q","base":"pynamic-20","ranks":[1,4194304]}"#);
        assert_eq!(q.unwrap().ranks, [1, MAX_RANKS as usize]);
        let q = WhatIfRequest::parse(r#"{"id":"q","base":"pynamic-20","replicates":1024}"#);
        assert_eq!(q.unwrap().replicates, MAX_REPLICATES as usize);
        for (fault, want) in [
            (
                "stall-1099511627776-1099511627776",
                FaultModel::ServerStall { at_ns: MAX_SERVICE_NS, duration_ns: MAX_SERVICE_NS },
            ),
            (
                "loss-1000-1099511627776-1099511627776-16",
                FaultModel::RpcLoss {
                    loss_milli: 1000,
                    timeout_ns: MAX_SERVICE_NS,
                    backoff_base_ns: MAX_SERVICE_NS,
                    max_retries: MAX_FAULT_RETRIES,
                },
            ),
        ] {
            let line = format!(r#"{{"id":"q","base":"pynamic-20","fault":"{fault}"}}"#);
            assert_eq!(WhatIfRequest::parse(&line).unwrap().fault, want);
        }
    }

    #[test]
    fn a_lognormal_sigma_above_20_is_refused_naming_dist_and_the_bound() {
        let line = |dist: &str| {
            format!(r#"{{"id":"s","base":"pynamic-20","ranks":[512],"dist":"{dist}"}}"#)
        };
        for dist in ["lognormal-20001", "lognormal-30000", "lognormal-4294967295"] {
            let err = WhatIfRequest::parse(&line(dist)).unwrap_err();
            assert_eq!(err, "field \"dist\" takes lognormal-S with S at most 20000", "{dist}");
        }
        for (dist, want) in [
            ("lognormal-20000", ServiceDistribution::LogNormal { sigma_milli: MAX_SIGMA_MILLI }),
            ("jitter-999", ServiceDistribution::UniformJitter { spread_milli: 999 }),
        ] {
            assert_eq!(WhatIfRequest::parse(&line(dist)).unwrap().dist, want);
        }
    }

    /// The exact bytes of a deterministic, a `lognormal-500`, an error-cell
    /// and an escaped-id request, cold and warm: rendering may not move a
    /// byte of an answer.
    #[test]
    fn answer_lines_are_pinned_byte_for_byte() {
        let batch = concat!(
            r#"{"id":"det","base":"pynamic-20","ranks":[256,512]}"#,
            "\n",
            r#"{"id":"logn","base":"pynamic-20","dist":"lognormal-500","ranks":[256,512]}"#,
            "\n",
            r#"{"id":"fut","base":"pynamic-20","backend":"future","wrap":"wrapped","ranks":[256]}"#,
            "\n",
            r#"{"id":"q\"\\x","base":"pynamic-20","ranks":[64]}"#,
            "\n",
        );
        let expected = concat!(
            r#"{"id":"det","label":"pynamic-20/glibc/nfs/plain/cold/deterministic","ranks":256,"#,
            r#""launch_ns":27406175375,"nodes":2,"server_ops":506,"local_ops":0,"peak_queue":2,"#,
            r#""replicates":1,"mean_ns":27406175375,"p50_ns":27406175375,"#,
            r#""p95_ns":27406175375,"p99_ns":27406175375,"q_within":true}"#,
            "\n",
            r#"{"id":"det","label":"pynamic-20/glibc/nfs/plain/cold/deterministic","ranks":512,"#,
            r#""launch_ns":27624287625,"nodes":4,"server_ops":1012,"local_ops":0,"peak_queue":4,"#,
            r#""replicates":1,"mean_ns":27624287625,"p50_ns":27624287625,"#,
            r#""p95_ns":27624287625,"p99_ns":27624287625,"q_within":true}"#,
            "\n",
            r#"{"id":"logn","label":"pynamic-20/glibc/nfs/plain/cold/lognormal-500","ranks":256,"#,
            r#""launch_ns":27460148366,"nodes":2,"server_ops":506,"local_ops":0,"peak_queue":2,"#,
            r#""replicates":11,"mean_ns":27460298227,"p50_ns":27460148366,"#,
            r#""p95_ns":27611230089,"p99_ns":27611230089,"q_within":true}"#,
            "\n",
            r#"{"id":"logn","label":"pynamic-20/glibc/nfs/plain/cold/lognormal-500","ranks":512,"#,
            r#""launch_ns":27649179252,"nodes":4,"server_ops":1012,"local_ops":0,"peak_queue":4,"#,
            r#""replicates":11,"mean_ns":27665681416,"p50_ns":27662183822,"#,
            r#""p95_ns":27897560366,"p99_ns":27897560366,"q_within":true}"#,
            "\n",
            r#"{"id":"fut","label":"pynamic-20/future/nfs/wrapped/cold/deterministic","#,
            r#""error":"wrap failed: cannot resolve libpymodule000.so (needed by pynamic-bigexe)"}"#,
            "\n",
            r#"{"id":"q\"\\x","label":"pynamic-20/glibc/nfs/plain/cold/deterministic","ranks":64,"#,
            r#""launch_ns":26656589000,"nodes":1,"server_ops":253,"local_ops":0,"peak_queue":1,"#,
            r#""replicates":1,"mean_ns":26656589000,"p50_ns":26656589000,"#,
            r#""p95_ns":26656589000,"p99_ns":26656589000,"q_within":true}"#,
            "\n",
        );
        let store = ResultStore::in_memory();
        let cold = serve_batch(batch, &store, &ProfileCache::new(), 1).unwrap();
        assert_eq!(cold.answers_jsonl(), expected);
        let warm = serve_batch(batch, &store, &ProfileCache::new(), 1).unwrap();
        assert!(warm.queries.iter().all(|q| q.stats.cold_cells == 0));
        assert_eq!(warm.answers_jsonl(), expected);
    }

    #[test]
    fn batch_serves_cold_then_byte_identical_warm() {
        let batch = concat!(
            r#"{"id":"base","base":"pynamic-20","ranks":[256,512]}"#,
            "\n",
            r#"{"id":"wrapped","base":"pynamic-20","wrap":"wrapped","ranks":[256,512]}"#,
            "\n",
        );
        let store = ResultStore::in_memory();
        let cold = serve_batch(batch, &store, &ProfileCache::new(), 2).unwrap();
        assert!(!cold.had_errors());
        assert_eq!(cold.queries.len(), 2);
        assert_eq!(cold.queries[0].stats.cold_cells, 2);
        assert_eq!(cold.answers_jsonl().lines().count(), 4);

        let warm = serve_batch(batch, &store, &ProfileCache::new(), 2).unwrap();
        assert_eq!(warm.answers_jsonl(), cold.answers_jsonl(), "warm replay is byte-identical");
        for q in &warm.queries {
            assert_eq!(q.stats.cold_cells, 0);
            assert_eq!(q.stats.warm_hits, 2);
        }
        let stats = warm.stats_json(&store);
        assert!(stats.contains("\"total_cold_cells\":0"), "{stats}");
        assert!(stats.contains("\"hit_rate\":1.000"), "{stats}");
    }

    #[test]
    fn server_scaling_and_wrapping_shrink_the_answer() {
        let batch = concat!(
            r#"{"id":"slow","base":"pynamic-20","ranks":[512]}"#,
            "\n",
            r#"{"id":"fast","base":"pynamic-20","ranks":[512],"servers":8}"#,
            "\n",
            r#"{"id":"wrapped","base":"pynamic-20","ranks":[512],"wrap":"wrapped"}"#,
            "\n",
        );
        let store = ResultStore::in_memory();
        let report = serve_batch(batch, &store, &ProfileCache::new(), 1).unwrap();
        let slow = launch_ns(&report.queries[0]);
        assert!(launch_ns(&report.queries[1]) < slow, "8 servers beat 1");
        assert!(launch_ns(&report.queries[2]) < slow, "shrinkwrap beats plain");
    }

    #[test]
    fn ideal_scaling_lower_bounds_the_modeled_fleet() {
        // `servers_ideal` is the coordination-free fantasy: dividing the
        // per-op service time should not lose to actually routing requests
        // across the same number of servers. Strictly true only where the
        // metadata floor dominates per-op service — the division lowers the
        // `meta_service_ns` floor but not the size-proportional read cost
        // (`cost_ns / 8`), which the modeled fleet *does* parallelise — so
        // the pin allows the read-cost share as slack.
        let batch = concat!(
            r#"{"id":"modeled","base":"pynamic-20","ranks":[512],"servers":8}"#,
            "\n",
            r#"{"id":"ideal","base":"pynamic-20","ranks":[512],"servers_ideal":8}"#,
            "\n",
        );
        let store = ResultStore::in_memory();
        let report = serve_batch(batch, &store, &ProfileCache::new(), 1).unwrap();
        assert!(!report.had_errors());
        let (modeled, ideal) = (launch_ns(&report.queries[0]), launch_ns(&report.queries[1]));
        assert!(
            ideal <= modeled + modeled / 20,
            "ideal 8-way division ({ideal}) must floor the modeled 8-server \
             fleet ({modeled}) up to the non-divided read-cost share"
        );
        // Distinct axes, distinct cells: the modeled fleet lives under a
        // topology label, the ideal one under a different base config.
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn fault_deltas_degrade_the_answer_and_key_separately() {
        let batch = concat!(
            r#"{"id":"healthy","base":"pynamic-20","ranks":[512]}"#,
            "\n",
            r#"{"id":"brownout","base":"pynamic-20","ranks":[512],"fault":"stall-0-10000000000"}"#,
            "\n",
        );
        let store = ResultStore::in_memory();
        let report = serve_batch(batch, &store, &ProfileCache::new(), 1).unwrap();
        assert!(!report.had_errors());
        let (healthy, faulted) = (launch_ns(&report.queries[0]), launch_ns(&report.queries[1]));
        assert!(
            faulted > healthy && faulted >= 10_000_000_000,
            "a from-boot 10s brownout gates the whole launch behind it \
             (healthy {healthy}, faulted {faulted})"
        );
        // Distinct fault models are distinct cells: both went cold.
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn a_poisoned_query_marks_the_batch_but_spares_its_neighbours() {
        let batch = concat!(
            r#"{"id":"ok","base":"pynamic-20","ranks":[256]}"#,
            "\n",
            r#"{"id":"boom","base":"poison","ranks":[256]}"#,
            "\n",
        );
        let store = ResultStore::in_memory();
        let report = serve_batch(batch, &store, &ProfileCache::new(), 2).unwrap();
        assert!(report.had_errors(), "a panicked cell must mark the batch");
        assert_eq!(report.queries.len(), 2, "the batch still completed");
        assert!(report.queries[0].answers[0].contains("launch_ns"));
        assert!(report.queries[1].answers[0].contains("panic in profiling"));
        assert_eq!(report.queries[1].stats.panics, 1);
        assert!(report.stats_json(&store).contains("\"panics\":1"));
        assert_eq!(store.len(), 1, "the poisoned cell is never persisted");
    }

    #[test]
    fn a_non_utf8_line_answers_one_error_and_spares_its_neighbours() {
        let mut batch = br#"{"id":"a","base":"pynamic-20","ranks":[256]}"#.to_vec();
        batch.extend_from_slice(b"\n\xff\n");
        batch.extend_from_slice(br#"{"id":"b","base":"pynamic-20","ranks":[256]}"#);
        let store = ResultStore::in_memory();
        let report = serve_batch(&batch, &store, &ProfileCache::new(), 1).unwrap();
        assert!(report.had_errors());
        let ids: Vec<&str> = report.queries.iter().map(|q| q.id.as_str()).collect();
        assert_eq!(ids, ["a", "line-2", "b"]);
        assert_eq!(report.queries[1].parse_error.as_deref(), Some("line is not UTF-8"));
        assert!(report.queries[0].answers[0].contains("launch_ns"));
        assert!(report.queries[2].answers[0].contains("launch_ns"));
        assert!(report.stats_json(&store).contains("\"parse_errors\":1"));
    }

    #[test]
    fn malformed_requests_answer_with_errors_and_mark_the_batch() {
        let batch = concat!(
            r#"{"id":"ok","base":"pynamic-20","ranks":[256]}"#,
            "\n",
            r#"{"id":"bad","base":"warp-drive"}"#,
            "\n",
            r#"{"id":"sev","base":"pynamic-20","ranks":[256],"severs":8}"#,
            "\n",
            r#"{"id":"nest","base":"pynamic-20","x":{"ranks":[64]}}"#,
            "\n",
            r#"{"id":"dup","base":"pynamic-20","ranks":[256],"ranks":[64]}"#,
            "\n",
            r#"{"id":"torn","base":"pynamic-20","wrap":"plain}"#,
            "\n",
            r#"{"id":7,"base":"pynamic-20"}"#,
            "\n",
        );
        let store = ResultStore::in_memory();
        let report = serve_batch(batch, &store, &ProfileCache::new(), 1).unwrap();
        assert!(report.had_errors());
        assert_eq!(report.queries.len(), 7);
        assert!(report.queries[1].answers[0].contains("unknown base workload"));
        assert!(report.stats_json(&store).contains("\"parse_errors\":6"));
        // The error line keeps its `id` when it is a readable string, also
        // ahead of a break in the line; otherwise it answers under its line
        // number.
        let ids: Vec<&str> = report.queries.iter().map(|q| q.id.as_str()).collect();
        assert_eq!(ids, ["ok", "bad", "sev", "nest", "dup", "torn", "line-7"]);
        let needles = ["\"severs\"", "\"x\"", "\"ranks\"", "\"wrap\"", "\"id\""];
        for (q, needle) in report.queries[2..].iter().zip(needles) {
            let error = q.parse_error.as_deref().unwrap();
            assert!(error.contains(needle), "{error}");
        }
    }
}
