//! Batch execution: simulate every pending (cell, rank point, replicate)
//! of a sweep in one pass, solving each distinct cold fleet once.
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
//!    simulation ([`BatchPlan::push`]): the schedule id, the row's
//!    [`LaunchConfig`], and its solver class. Each registered schedule's
//!    round-major guard is evaluated once.
//!
//! 2. **Partition.** At push time every row is classified into one of
//!    four solver classes (see [`SolverClass`]) by the same rule
//!    [`simulate_classified`](crate::simulate_classified) applies.
//!
//! 3. **Solve each kernel once.** [`BatchPlan::execute`] collapses rows
//!    to unique *kernel jobs* — `(schedule, cold-node count, seed, fault,
//!    server topology)` tuples, with the seed normalised away for rows
//!    that take no draws, since the cold-fleet completion time is a pure
//!    function of that tuple. Replicate 0 of every rank point, every
//!    deterministic replicate, and every cell that only differs in
//!    overheads or warm fleet size all collapse onto the same kernel,
//!    which the per-call path's own kernel dispatch solves once.
//!
//! 4. **Scatter.** Each row combines its kernel's `(cold finish, peak
//!    queue, fault counts)` with the per-row arithmetic — warm-fleet
//!    replay, op accounting, spawn and base overheads — through the same
//!    function [`simulate_classified`](crate::simulate_classified) uses.
//!
//! # The four solver classes
//!
//! | class | rows | cost per kernel |
//! |-------|------|-----------------|
//! | [`SolverClass::Coalesced`] | no server segments (fully warm / serverless) | O(1) scatter arithmetic |
//! | [`SolverClass::Analytic`] | deterministic, ≥ 2 cold nodes, round-major schedule | one envelope recursion, O(server_ops) |
//! | [`SolverClass::Stochastic`] | jittered service distribution | one heap replay (seeds never collapse) |
//! | [`SolverClass::Heap`] | deterministic but lone-cold-node or guard-violating, or any fault-injected row | one heap replay, under the fault's hook |
//!
//! A row pushed as `Analytic` can still *demote* to the heap: the
//! envelope cap (`MAX_ENVELOPE_LINES` in [`crate::des`]) is only
//! discoverable during the recursion, and the shared kernel dispatch
//! falls back to the heap when it trips, in a plan exactly as per call.
//!
//! # Exactness
//!
//! Every numeric path here is the per-call one: every kernel goes through
//! the per-call kernel dispatch, and every row through the per-call
//! scatter.
//! `tests/des_equivalence.rs` pins the whole plan against per-call
//! [`simulate_classified`](crate::simulate_classified) and the
//! `des::reference` oracle property-by-property.

use std::collections::HashMap;

use crate::config::{LaunchConfig, LaunchResult, ServerTopology};
use crate::des::{self, ClassifiedStream, FleetRun, SolverClass};
use crate::fault::FaultModel;

/// Handle to a segment schedule registered with [`BatchPlan::stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(usize);

/// One registered segment schedule and its round-major guard verdict,
/// which holds for any fleet of ≥ 2 cold nodes or for none (the guard is
/// node-count independent).
struct Schedule<'a> {
    stream: &'a ClassifiedStream,
    round_major: bool,
}

/// One pending simulation.
struct Row {
    schedule: usize,
    cfg: LaunchConfig,
    class: SolverClass,
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
    schedules: Vec<Schedule<'a>>,
    rows: Vec<Row>,
}

impl<'a> BatchPlan<'a> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a classified stream and evaluate its round-major guard.
    /// Registering the same `&ClassifiedStream` again (by address) is
    /// deduplicated and returns the original id.
    pub fn stream(&mut self, stream: &'a ClassifiedStream) -> StreamId {
        if let Some(i) = self.schedules.iter().position(|s| std::ptr::eq(s.stream, stream)) {
            return StreamId(i);
        }
        let segs = stream.server_segments();
        let round_major = !segs.is_empty() && des::round_major(segs, stream.params().rtt_ns / 2);
        self.schedules.push(Schedule { stream, round_major });
        StreamId(self.schedules.len() - 1)
    }

    /// Push one pending simulation of `stream` under `cfg`, partitioning
    /// it into its solver class. Returns the row index ([`execute`]
    /// returns results in push order).
    ///
    /// Panics like [`simulate_classified`](crate::simulate_classified) if
    /// `cfg`'s latency calibration differs from the stream's
    /// classification.
    ///
    /// [`execute`]: BatchPlan::execute
    pub fn push(&mut self, stream: StreamId, cfg: &LaunchConfig) -> usize {
        let sched = &self.schedules[stream.0];
        sched.stream.check_calibration(cfg);
        let class = SolverClass::of(cfg, sched.stream.server_ops(), || sched.round_major);
        self.rows.push(Row { schedule: stream.0, cfg: cfg.clone(), class });
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
    /// Stochastic, Heap]` order — push-time partitioning, before any
    /// envelope-cap demotions during [`execute`](BatchPlan::execute).
    pub fn class_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for row in &self.rows {
            counts[row.class as usize] += 1;
        }
        counts
    }

    /// Solve every row: one kernel solve per unique kernel job, then the
    /// per-row scatter. Results are in push order, each bit-identical to
    /// [`simulate_classified`](crate::simulate_classified) on the row's
    /// (stream, cfg).
    pub fn execute(&self) -> Vec<LaunchResult> {
        // A kernel job is (schedule, cold-node count, seed, fault,
        // topology), the seed normalised to 0 for rows that take no draws:
        // the cold fleet's replay is a pure function of that tuple.
        let mut kernels: HashMap<(usize, usize, u64, FaultModel, ServerTopology), FleetRun> =
            HashMap::new();
        self.rows
            .iter()
            .map(|row| {
                let (stream, cfg) = (self.schedules[row.schedule].stream, &row.cfg);
                let seed = if cfg.takes_draws() { cfg.seed } else { 0 };
                let key = (row.schedule, cfg.cold_nodes(), seed, cfg.fault, cfg.topology);
                let run = *kernels
                    .entry(key)
                    .or_insert_with(|| des::solve_kernel(stream, cfg, row.class));
                des::scatter(stream, cfg, run)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceDistribution;
    use crate::des::simulate_classified;
    use depchaos_vfs::strace::{Op, Outcome, StraceLog, Syscall};

    fn log_of(spec: &[(Op, u64)]) -> StraceLog {
        let mut log = StraceLog::new();
        for &(op, cost_ns) in spec {
            log.push(Syscall::new(op, "/p", Outcome::Ok, cost_ns));
        }
        log
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
        assert_eq!(plan.execute(), expected);
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
            assert_eq!(plan.execute(), expected, "dist={}", dist.name());
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
            assert_eq!(plan.execute(), expected, "dist={}", dist.name());
        }
    }
}
