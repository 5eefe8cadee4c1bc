//! Batch execution: simulate every pending (cell, rank point, replicate)
//! of a sweep in one pass, solving each distinct kernel once.
//!
//! The sweep layers above this module — [`crate::sweep`],
//! [`crate::experiment`], and through it the incremental executor in
//! `crates/serve` — used to issue one
//! [`simulate_classified`](crate::simulate_classified) call per pending
//! simulation. A full fig6-backends × dist × replicate matrix is thousands
//! of such calls, each re-deriving the same facts about the same handful
//! of segment schedules. [`BatchPlan`] turns that inside out:
//!
//! 1. **Gather.** Callers register each distinct [`ClassifiedStream`]
//!    once ([`BatchPlan::stream`]) and then push one *row* per pending
//!    simulation ([`BatchPlan::push`]): the stream id and the row's
//!    [`LaunchConfig`], checked against the stream's calibration.
//!
//! 2. **Split into kernels.** `des::kernels` splits each row's cold fleet
//!    into kernels, as [`simulate_classified`](crate::simulate_classified)
//!    does. A kernel is one *lane* of the fleet with all its solve reads
//!    besides the schedule: nodes, servers, distribution, fault model and
//!    seed. An S-server hash-routed fleet is `min(S, N)` independent
//!    single-server lanes, lane `l` holding nodes `l, l + S, …`; a
//!    single-server or `LeastLoaded` fleet is one lane of all its nodes. A
//!    draw-free kernel is named by its node count alone (node ids from 0,
//!    seed 0), so a deterministic hash row is the single-server kernel at
//!    `⌈N/S⌉` (and `⌊N/S⌋`) nodes. A row with no server segments has none.
//!
//! 3. **Solve each kernel once.** [`BatchPlan::execute`] collapses every
//!    row's kernels to unique `(schedule, kernel)` jobs, since
//!    `des::solve(stream, kernel)` reads nothing else, and solves each in
//!    the regime its own rule picks, whichever rows share it. Replicate 0
//!    of every rank point, every deterministic replicate, and every cell
//!    that only differs in overheads or warm fleet size all collapse onto
//!    the same kernels. Being pure, the kernels are independent work: the
//!    pipeline ([`ExperimentMatrix::run_with`](crate::ExperimentMatrix::run_with))
//!    solves them on its `jobs` workers, largest `lane nodes × server ops`
//!    first, and `execute` is the same path on one worker. The results are
//!    bit-identical for every `jobs`; peak memory grows with `jobs` × the
//!    largest kernel in flight.
//!
//! 4. **Scatter.** `des::scatter`, which
//!    [`simulate_classified`](crate::simulate_classified) uses too, folds
//!    each row's kernels into its `(cold finish, fault counts)` — the
//!    latest finish, the counts summed — and adds the warm-fleet replay,
//!    op accounting, peak queue, spawn and base overheads.
//!
//! # The four solver classes
//!
//! [`BatchPlan::class_counts`] reports each row's [`SolverClass::of`], the
//! regime of its busiest kernel:
//!
//! | class | busiest kernel | cost per kernel (one lane) |
//! |-------|------|-----------------|
//! | [`SolverClass::Coalesced`] | none: no server segments (fully warm / serverless) | no kernel: O(1) scatter arithmetic |
//! | [`SolverClass::Analytic`] | healthy, deterministic, a FIFO lane of ≥ 2 nodes, round-major schedule | one envelope recursion, O(server_ops) |
//! | [`SolverClass::Stochastic`] | healthy, jittered service distribution | one heap replay (seeds never collapse) |
//! | [`SolverClass::Heap`] | a deterministic one-node lane, least-loaded pool or schedule that is not round-major, or any fault model | one heap replay, under the fault's hook |
//!
//! A kernel the rule gives the envelope can still *demote* to the heap:
//! the envelope cap (`MAX_ENVELOPE_LINES` in [`crate::des`]) is only
//! discoverable during the recursion, and `des::solve` falls back to the
//! heap when it trips, in a plan exactly as per call.
//!
//! # Exactness
//!
//! Every numeric path here is the per-call one: every kernel goes through
//! `des::solve`, and every row through `des::scatter`.
//! `tests/des_equivalence.rs` pins the whole plan against per-call
//! [`simulate_classified`](crate::simulate_classified) and the
//! `des::reference` oracle property-by-property.

use std::cmp::Reverse;
use std::collections::HashMap;

use crate::config::{LaunchConfig, LaunchResult};
use crate::des::{self, ClassifiedStream, FleetRun, Kernel, SolverClass};
use crate::pool;

/// Handle to a segment schedule registered with [`BatchPlan::stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(usize);

/// One pending simulation.
struct Row {
    stream: usize,
    cfg: LaunchConfig,
}

/// A plan's unique `(stream, kernel)` jobs, and row `r`'s kernels
/// `of_rows[row_ends[r - 1]..row_ends[r]]`.
struct Kernels {
    jobs: Vec<(usize, Kernel)>,
    of_rows: Vec<usize>,
    row_ends: Vec<usize>,
}

/// A batch of pending simulations over shared segment schedules. See the
/// module docs for the execution model; the sweeps in [`crate::sweep`]
/// and every [`ExperimentMatrix`](crate::ExperimentMatrix) run (through
/// [`crate::run_adaptive_units`]) are its callers.
///
/// Row results come back from [`BatchPlan::execute`] in push order and
/// are bit-identical to calling
/// [`simulate_classified`](crate::simulate_classified) per row.
#[derive(Default)]
pub struct BatchPlan<'a> {
    streams: Vec<&'a ClassifiedStream>,
    rows: Vec<Row>,
}

impl<'a> BatchPlan<'a> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a classified stream. Registering the same
    /// `&ClassifiedStream` again (by address) is deduplicated and returns
    /// the original id.
    pub fn stream(&mut self, stream: &'a ClassifiedStream) -> StreamId {
        if let Some(i) = self.streams.iter().position(|&s| std::ptr::eq(s, stream)) {
            return StreamId(i);
        }
        self.streams.push(stream);
        StreamId(self.streams.len() - 1)
    }

    /// Push one pending simulation of `stream` under `cfg`. Returns the
    /// row index ([`execute`] returns results in push order).
    ///
    /// Panics like [`simulate_classified`](crate::simulate_classified) if
    /// `cfg`'s latency calibration differs from the stream's
    /// classification.
    ///
    /// [`execute`]: BatchPlan::execute
    pub fn push(&mut self, stream: StreamId, cfg: &LaunchConfig) -> usize {
        self.streams[stream.0].check_calibration(cfg);
        self.rows.push(Row { stream: stream.0, cfg: cfg.clone() });
        self.rows.len() - 1
    }

    /// Rows gathered so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row counts per solver class, in `[Coalesced, Analytic,
    /// Stochastic, Heap]` order: each row's [`SolverClass::of`], the
    /// regime of its busiest kernel, before any envelope-cap demotion
    /// during [`execute`](BatchPlan::execute).
    pub fn class_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for row in &self.rows {
            counts[SolverClass::of(&row.cfg, self.stream_of(row)) as usize] += 1;
        }
        counts
    }

    /// Solve every row on one worker: one solve per unique kernel, then
    /// the per-row scatter. Results are in push order, each bit-identical
    /// to [`simulate_classified`](crate::simulate_classified) on the row's
    /// (stream, cfg). The pipeline runs the same path on its `jobs`
    /// workers.
    pub fn execute(&self) -> Vec<LaunchResult> {
        self.execute_on(1).0
    }

    /// Solve every row: one solve per unique kernel, the kernels spread
    /// over `jobs` workers, then the per-row scatter in push order.
    /// Returns the rows' results and the workers the solve ran on. A
    /// kernel's solve reads nothing but its stream and itself, so the
    /// results do not depend on `jobs`.
    pub(crate) fn execute_on(&self, jobs: usize) -> (Vec<LaunchResult>, usize) {
        let kernels = self.kernels();
        // Largest kernel first (lane nodes × server ops, its event count on
        // the heap), so no worker is left with a big heap while the others
        // idle.
        let mut order: Vec<usize> = (0..kernels.jobs.len()).collect();
        order.sort_by_key(|&k| {
            let (stream, kernel) = kernels.jobs[k];
            Reverse(kernel.count as u64 * self.streams[stream].server_ops())
        });
        let solved = pool::map(jobs, &order, |&k| {
            let (stream, kernel) = kernels.jobs[k];
            des::solve(self.streams[stream], kernel)
        });
        let mut runs = vec![FleetRun::default(); kernels.jobs.len()];
        for (k, run) in order.into_iter().zip(solved) {
            runs[k] = run;
        }
        let mut start = 0;
        let results = self
            .rows
            .iter()
            .zip(&kernels.row_ends)
            .map(|(row, &end)| {
                let row_runs = kernels.of_rows[start..end].iter().map(|&k| runs[k]);
                start = end;
                des::scatter(self.stream_of(row), &row.cfg, row_runs)
            })
            .collect();
        (results, pool::workers(jobs, kernels.jobs.len()))
    }

    /// The plan's unique `(stream, kernel)` jobs and the kernels each row
    /// folds. A kernel carries all its solve reads besides the schedule,
    /// and [`des::kernels`] already names a draw-free kernel by its node
    /// count alone, so equal jobs are one solve. One schedule can carry
    /// rows of several distributions, since classification reads only the
    /// calibration.
    fn kernels(&self) -> Kernels {
        let mut index = HashMap::new();
        let mut kernels = Kernels { jobs: Vec::new(), of_rows: Vec::new(), row_ends: Vec::new() };
        for row in &self.rows {
            for kernel in des::kernels(&row.cfg, self.stream_of(row)) {
                let k = *index.entry((row.stream, kernel)).or_insert_with(|| {
                    kernels.jobs.push((row.stream, kernel));
                    kernels.jobs.len() - 1
                });
                kernels.of_rows.push(k);
            }
            kernels.row_ends.push(kernels.of_rows.len());
        }
        kernels
    }

    fn stream_of(&self, row: &Row) -> &'a ClassifiedStream {
        self.streams[row.stream]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServerTopology, ServiceDistribution};
    use crate::des::simulate_classified;
    use depchaos_vfs::strace::{Op, Outcome, StraceLog, Syscall};

    fn log_of(spec: &[(Op, u64)]) -> StraceLog {
        let mut log = StraceLog::new();
        for &(op, cost_ns) in spec {
            log.push(Syscall::new(op, "/p", Outcome::Ok, cost_ns));
        }
        log
    }

    /// `plan`'s rows must equal `expected` solved on one worker and pooled
    /// on 2, 3 and 64 workers (more workers than kernels).
    fn assert_rows_at_every_worker_count(
        plan: &BatchPlan<'_>,
        expected: &[LaunchResult],
        what: &str,
    ) {
        assert_eq!(plan.execute(), expected, "{what}");
        for jobs in [2, 3, 64] {
            assert_eq!(plan.execute_on(jobs).0, expected, "{what} jobs={jobs}");
        }
    }

    fn cfg_with(dist: ServiceDistribution, ranks: usize, broadcast: bool) -> LaunchConfig {
        let mut cfg = LaunchConfig::default().with_ranks(ranks);
        cfg.service_dist = dist;
        cfg.broadcast_cache = broadcast;
        cfg
    }

    /// A mixed plan — two streams, all four solver classes — matches
    /// per-call `simulate_classified` row for row.
    #[test]
    fn mixed_plan_matches_per_call_path() {
        let base = LaunchConfig::default();
        // Stream A: server-heavy (analytic / heap / stochastic rows).
        let ops_a = log_of(&[
            (Op::Stat, base.rtt_ns),
            (Op::Openat, base.rtt_ns * 2),
            (Op::Read, 4096),
            (Op::Stat, 10),
        ]);
        // Stream B: all-local (coalesced rows).
        let ops_b = log_of(&[(Op::Stat, 5), (Op::Stat, 7)]);

        let dists = ServiceDistribution::all();
        let streams: Vec<(ClassifiedStream, ClassifiedStream, LaunchConfig)> = dists
            .iter()
            .map(|&d| {
                let cfg = cfg_with(d, 1024, false);
                (
                    ClassifiedStream::classify(&ops_a, &cfg),
                    ClassifiedStream::classify(&ops_b, &cfg),
                    cfg,
                )
            })
            .collect();

        let mut plan = BatchPlan::new();
        let mut expected = Vec::new();
        for (sa, sb, cfg) in &streams {
            let ia = plan.stream(sa);
            let ib = plan.stream(sb);
            for &(ranks, broadcast, seed) in
                &[(64usize, false, 1u64), (64, true, 1), (4096, false, 2), (128, false, 1)]
            {
                let mut c = cfg.clone().with_ranks(ranks).with_seed(seed);
                c.broadcast_cache = broadcast;
                plan.push(ia, &c);
                expected.push(simulate_classified(sa, &c));
                plan.push(ib, &c);
                expected.push(simulate_classified(sb, &c));
            }
        }
        assert_eq!(plan.len(), expected.len());
        let counts = plan.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), plan.len());
        assert!(counts[0] > 0, "stream B rows coalesce: {counts:?}");
        assert!(counts[1] > 0, "multi-node deterministic rows are analytic: {counts:?}");
        assert!(counts[2] > 0, "jittered rows are stochastic: {counts:?}");
        assert!(counts[3] > 0, "broadcast deterministic rows fall back to the heap: {counts:?}");
        assert_rows_at_every_worker_count(&plan, &expected, "mixed plan");
    }

    /// Re-registering the same stream dedups; pushing a stream under a
    /// mismatched calibration panics like `simulate_classified`.
    #[test]
    fn stream_registration_dedups_by_address() {
        let ops = log_of(&[(Op::Stat, 10)]);
        let cfg = LaunchConfig::default();
        let stream = ClassifiedStream::classify(&ops, &cfg);
        let mut plan = BatchPlan::new();
        assert_eq!(plan.stream(&stream), plan.stream(&stream));
    }

    #[test]
    #[should_panic(expected = "different latency calibration")]
    fn mismatched_calibration_panics_at_push() {
        let ops = log_of(&[(Op::Stat, 10)]);
        let cfg = LaunchConfig::default();
        let stream = ClassifiedStream::classify(&ops, &cfg);
        let mut plan = BatchPlan::new();
        let id = plan.stream(&stream);
        let mut other = cfg;
        other.rtt_ns += 1;
        plan.push(id, &other);
    }

    /// Classification reads only the calibration, so one stream carries
    /// rows of every distribution. At one seed their lanes differ only in
    /// the distribution, which the kernel key must keep apart.
    #[test]
    fn one_stream_serves_every_distribution() {
        let base = LaunchConfig::default();
        let ops = log_of(&[(Op::Stat, base.rtt_ns), (Op::Openat, base.rtt_ns * 2)]);
        let stream = ClassifiedStream::classify(&ops, &base);
        let mut plan = BatchPlan::new();
        let id = plan.stream(&stream);
        let mut expected = Vec::new();
        for dist in ServiceDistribution::all() {
            for top in [ServerTopology::single(), ServerTopology::hash(4)] {
                let c = cfg_with(dist, 2048, false).with_topology(top).with_seed(7);
                plan.push(id, &c);
                expected.push(simulate_classified(&stream, &c));
            }
        }
        assert_rows_at_every_worker_count(&plan, &expected, "every distribution");
    }

    /// Fault-injected rows demote to the heap class, replay through the
    /// faulty engine, and still match per-call `simulate_classified` row
    /// for row — seeds collapsing only for draw-free models.
    #[test]
    fn faulted_rows_match_per_call_path() {
        use crate::fault::FaultModel;
        let base = LaunchConfig::default();
        let ops = log_of(&[(Op::Stat, base.rtt_ns), (Op::Openat, base.rtt_ns * 2)]);
        let faults = [
            FaultModel::None,
            FaultModel::ServerStall { at_ns: 1_000_000, duration_ns: 400_000_000 },
            FaultModel::RpcLoss {
                loss_milli: 200,
                timeout_ns: 2_000_000,
                backoff_base_ns: 500_000,
                max_retries: 4,
            },
            FaultModel::Stragglers { frac_milli: 300, slow_milli: 3000 },
        ];
        for dist in ServiceDistribution::all() {
            let cfg = cfg_with(dist, 1024, false);
            let stream = ClassifiedStream::classify(&ops, &cfg);
            let mut plan = BatchPlan::new();
            let id = plan.stream(&stream);
            let mut expected = Vec::new();
            for fault in faults {
                for seed in [1u64, 99] {
                    let c = cfg.clone().with_seed(seed).with_fault(fault);
                    plan.push(id, &c);
                    expected.push(simulate_classified(&stream, &c));
                }
            }
            assert_rows_at_every_worker_count(&plan, &expected, &dist.name());
        }
    }

    /// Kernel dedup: rows differing only in overheads, warm fleet, or
    /// (deterministic) seed share one kernel, yet scatter distinct
    /// results.
    #[test]
    fn deduped_kernels_still_scatter_per_row_results() {
        let base = LaunchConfig::default();
        let ops = log_of(&[(Op::Stat, base.rtt_ns), (Op::Openat, base.rtt_ns)]);
        let stream = ClassifiedStream::classify(&ops, &base);
        let mut plan = BatchPlan::new();
        let id = plan.stream(&stream);
        let mut cfgs = Vec::new();
        for seed in [1u64, 99] {
            let mut c = base.clone().with_ranks(512).with_seed(seed);
            c.base_overhead_ns = seed * 1000;
            cfgs.push(c);
        }
        for c in &cfgs {
            plan.push(id, c);
        }
        let got = plan.execute();
        assert_eq!(got[0], simulate_classified(&stream, &cfgs[0]));
        assert_eq!(got[1], simulate_classified(&stream, &cfgs[1]));
        assert_ne!(got[0].time_to_launch_ns, got[1].time_to_launch_ns);
    }

    /// Topology joins the kernel key: rows over every fleet shape (and
    /// both routing policies) plan and scatter bit-identically to the
    /// per-call path, with `LeastLoaded` multi-server rows demoted to
    /// the heap class.
    #[test]
    fn topology_rows_match_per_call_path() {
        let base = LaunchConfig::default();
        let ops = log_of(&[(Op::Stat, base.rtt_ns), (Op::Openat, base.rtt_ns * 2)]);
        let tops = [
            ServerTopology::single(),
            ServerTopology::hash(2),
            ServerTopology::hash(8),
            ServerTopology::least_loaded(3),
        ];
        for dist in ServiceDistribution::all() {
            let cfg = cfg_with(dist, 2048, false);
            let stream = ClassifiedStream::classify(&ops, &cfg);
            let mut plan = BatchPlan::new();
            let id = plan.stream(&stream);
            let mut expected = Vec::new();
            for top in tops {
                for ranks in [64usize, 2048] {
                    let c = cfg.clone().with_ranks(ranks).with_topology(top).with_seed(7);
                    plan.push(id, &c);
                    expected.push(simulate_classified(&stream, &c));
                }
            }
            if dist.is_deterministic() {
                let counts = plan.class_counts();
                assert!(counts[1] > 0, "hash fleets stay analytic: {counts:?}");
                assert!(counts[3] > 0, "least-loaded fleets demote to the heap: {counts:?}");
            }
            assert_rows_at_every_worker_count(&plan, &expected, &dist.name());
        }
    }

    /// A hash fleet is its lanes. A draw-free row's lanes depend on their
    /// node count alone, so a deterministic `hash(4)` row at 16 cold nodes
    /// and a single-server row at its 4-node lane size share one kernel; a
    /// jittered `hash(4)` row at 16 cold nodes draws per global node and
    /// solves four lane kernels of its own, beside the single-server row's.
    #[test]
    fn hash_rows_solve_as_lane_kernels() {
        let base = LaunchConfig { ranks_per_node: 16, ..LaunchConfig::default() };
        let ops = log_of(&[(Op::Stat, base.rtt_ns), (Op::Openat, base.rtt_ns * 2)]);
        for (dist, kernels) in [
            (ServiceDistribution::Deterministic, 1),
            (ServiceDistribution::UniformJitter { spread_milli: 250 }, 5),
        ] {
            let cfg = LaunchConfig { service_dist: dist, ..base.clone() };
            let stream = ClassifiedStream::classify(&ops, &cfg);
            let fleet = cfg.clone().with_ranks(16 * 16).with_topology(ServerTopology::hash(4));
            let lane = cfg.clone().with_ranks(4 * 16);
            assert_eq!((fleet.cold_nodes(), lane.cold_nodes()), (16, 4));
            let mut plan = BatchPlan::new();
            let id = plan.stream(&stream);
            plan.push(id, &fleet);
            plan.push(id, &lane);
            assert_eq!(plan.kernels().jobs.len(), kernels, "{}", dist.name());
            let expected =
                [simulate_classified(&stream, &fleet), simulate_classified(&stream, &lane)];
            assert_rows_at_every_worker_count(&plan, &expected, &dist.name());
        }
    }
}
