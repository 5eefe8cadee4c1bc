//! The coalesced DES is *exactly* the old DES, only faster.
//!
//! [`depchaos::launch::simulate_classified`] coalesces symmetric nodes
//! analytically and heap-schedules one event per server op; the retained
//! [`depchaos::launch::reference`] oracle walks every node through every op.
//! These properties pin the two to bit-identical [`LaunchResult`]s across
//! random streams, rank counts, node shapes, and cache policies — and the
//! smoke tests below hold the coalesced path to the scale target: 4M ranks,
//! sub-second, in release mode.

use std::time::Instant;

use depchaos::launch::{
    reference::simulate_launch_reference, replicate_seed, simulate_classified, simulate_launch,
    sweep_ranks_replicated, BatchPlan, ClassifiedStream, FaultModel, LaunchConfig, LaunchStats,
    ServiceDistribution,
};
use depchaos::vfs::{Op, Outcome, StraceLog, Syscall};
use proptest::prelude::*;

/// The distribution axis a selector index names in the properties below.
fn dist_of(sel: u8) -> ServiceDistribution {
    ServiceDistribution::all()[sel as usize % 3]
}

/// The fault axis a selector index names: healthy, a brownout inside the
/// fast streams' contention window, lossy RPC with retry/backoff, and a
/// straggler cohort — one of each [`FaultModel`] shape.
fn fault_of(sel: u8) -> FaultModel {
    [
        FaultModel::None,
        FaultModel::ServerStall { at_ns: 2_000_000, duration_ns: 300_000_000 },
        FaultModel::RpcLoss {
            loss_milli: 150,
            timeout_ns: 1_000_000,
            backoff_base_ns: 250_000,
            max_retries: 5,
        },
        FaultModel::Stragglers { frac_milli: 250, slow_milli: 4000 },
    ][sel as usize % 4]
}

/// Build a stream from `(kind, cost)` pairs. Kind picks the op; cost is
/// raw, so the classifier sees everything from sub-warm to multi-RTT and
/// payload-heavy reads.
fn stream_of(spec: &[(u8, u64)]) -> StraceLog {
    let mut log = StraceLog::new();
    for (i, &(kind, cost_ns)) in spec.iter().enumerate() {
        let (op, outcome) = match kind % 4 {
            0 => (Op::Stat, Outcome::Ok),
            1 => (Op::Openat, Outcome::Enoent),
            2 => (Op::Read, Outcome::Ok),
            _ => (Op::Readlink, Outcome::Ok),
        };
        log.push(Syscall::new(op, &format!("/p/{i}"), outcome, cost_ns));
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coalesced == reference, bit for bit, over the whole input space the
    /// sweep engine exercises — including the stochastic service
    /// distributions, whose per-(node, segment) draws the two
    /// implementations must take identically, and every fault model,
    /// whose FAULT-domain draws and stall/retry arithmetic must land
    /// event-for-event in both engines.
    #[test]
    fn coalesced_des_matches_reference(
        spec in prop::collection::vec((0u8..4, 0u64..2_000_000), 0..120),
        ranks in 1usize..6000,
        rpn_sel in 0usize..4,
        knobs in 0u8..8,
        dist_sel in 0u8..3,
        fault_sel in 0u8..4,
        seed in any::<u64>(),
    ) {
        let ops = stream_of(&spec);
        let cfg = LaunchConfig {
            ranks,
            ranks_per_node: [1, 16, 128, 997][rpn_sel],
            broadcast_cache: knobs & 1 != 0,
            base_overhead_ns: if knobs & 2 != 0 { 25_000_000_000 } else { 0 },
            per_rank_overhead_ns: if knobs & 4 != 0 { 10_000_000 } else { 0 },
            service_dist: dist_of(dist_sel),
            fault: fault_of(fault_sel),
            seed,
            ..LaunchConfig::default()
        };
        let fast = simulate_launch(&ops, &cfg);
        let slow = simulate_launch_reference(&ops, &cfg);
        prop_assert_eq!(fast, slow);
    }

    /// The pre-axis DES is exactly `Deterministic`: on any stream and any
    /// seed, the deterministic distribution reproduces the reference
    /// oracle's pre-distribution walk bit for bit, and the seed cannot leak
    /// into the result (no draws ever occur).
    #[test]
    fn deterministic_distribution_is_bit_identical_to_pre_axis_des(
        spec in prop::collection::vec((0u8..4, 0u64..2_000_000), 0..100),
        ranks in 1usize..6000,
        broadcast in any::<bool>(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let ops = stream_of(&spec);
        let base = LaunchConfig {
            ranks,
            broadcast_cache: broadcast,
            service_dist: ServiceDistribution::Deterministic,
            ..LaunchConfig::default()
        };
        let with_a = simulate_launch(&ops, &LaunchConfig { seed: seed_a, ..base.clone() });
        let with_b = simulate_launch(&ops, &LaunchConfig { seed: seed_b, ..base.clone() });
        prop_assert_eq!(&with_a, &with_b, "seed must not reach a deterministic simulation");
        prop_assert_eq!(with_a, simulate_launch_reference(&ops, &base));
    }

    /// Stochastic runs reproduce: the same (stream, config, seed) triple
    /// yields the same result on both paths, and a shared classification
    /// replayed per point still matches fresh per-point classification.
    #[test]
    fn stochastic_draws_are_pure_data(
        spec in prop::collection::vec((0u8..4, 0u64..1_000_000), 1..80),
        points in prop::collection::vec(1usize..5000, 1..4),
        dist_sel in 1u8..3, // only the stochastic variants
        seed in any::<u64>(),
    ) {
        let ops = stream_of(&spec);
        let base = LaunchConfig {
            service_dist: dist_of(dist_sel),
            seed,
            ..LaunchConfig::default()
        };
        let classified = ClassifiedStream::classify(&ops, &base);
        for ranks in points {
            let cfg = base.clone().with_ranks(ranks);
            let shared = simulate_classified(&classified, &cfg);
            prop_assert_eq!(&shared, &simulate_classified(&classified, &cfg));
            prop_assert_eq!(shared, simulate_launch_reference(&ops, &cfg));
        }
    }

    /// One classification serves every rank point of a sweep: replaying a
    /// shared [`ClassifiedStream`] equals classifying fresh at each point.
    #[test]
    fn shared_classification_matches_per_point(
        spec in prop::collection::vec((0u8..4, 0u64..1_000_000), 1..80),
        points in prop::collection::vec(1usize..5000, 1..5),
    ) {
        let ops = stream_of(&spec);
        let base = LaunchConfig::default();
        let classified = ClassifiedStream::classify(&ops, &base);
        for ranks in points {
            let cfg = base.clone().with_ranks(ranks);
            prop_assert_eq!(
                simulate_classified(&classified, &cfg),
                simulate_launch_reference(&ops, &cfg)
            );
        }
    }

    /// A columnar [`BatchPlan`] mixing every distribution, fault model,
    /// wrap-like stream shape, and cache policy in one batch equals
    /// per-call `simulate_classified` — and the reference oracle — row for
    /// row. This is the gather/partition/dedup/scatter machinery under
    /// test: rows land in all four solver classes (faulted rows demote to
    /// the heap class) and kernels collapse across rows, yet the output
    /// must be indistinguishable from never having batched at all.
    #[test]
    fn batch_plan_matches_per_call_and_reference(
        spec in prop::collection::vec((0u8..4, 0u64..1_000_000), 0..80),
        rows in prop::collection::vec(
            (1usize..5000, 0usize..4, any::<bool>(), 0u8..3, 0u8..4, any::<u64>()),
            1..8,
        ),
    ) {
        let ops = stream_of(&spec);
        // One classification per distribution (the distribution is part
        // of the calibration key); the plan holds all three at once.
        let streams: Vec<(ClassifiedStream, LaunchConfig)> = (0u8..3)
            .map(|d| {
                let cfg = LaunchConfig { service_dist: dist_of(d), ..LaunchConfig::default() };
                (ClassifiedStream::classify(&ops, &cfg), cfg)
            })
            .collect();
        let mut plan = BatchPlan::new();
        let ids: Vec<_> = streams.iter().map(|(s, _)| plan.stream(s)).collect();
        let mut cfgs = Vec::new();
        for &(ranks, rpn_sel, broadcast, dist_sel, fault_sel, seed) in &rows {
            let cfg = LaunchConfig {
                ranks,
                ranks_per_node: [1, 16, 128, 997][rpn_sel],
                broadcast_cache: broadcast,
                fault: fault_of(fault_sel),
                seed,
                ..streams[dist_sel as usize].1.clone()
            };
            plan.push(ids[dist_sel as usize], &cfg);
            cfgs.push((dist_sel as usize, cfg));
        }
        let got = plan.execute();
        prop_assert_eq!(got.len(), cfgs.len());
        for (row, (di, cfg)) in got.iter().zip(&cfgs) {
            prop_assert_eq!(row, &simulate_classified(&streams[*di].0, cfg));
            prop_assert_eq!(row, &simulate_launch_reference(&ops, cfg));
        }
    }

    /// The batched `sweep_ranks_replicated` is byte-identical to the
    /// per-call loop it replaced: per rank point, replicate `r` simulates
    /// under `replicate_seed(base, r)`, replicate 0 is the series value,
    /// and the stats summarise the replicate sample.
    #[test]
    fn batched_replicated_sweep_equals_per_call_loop(
        spec in prop::collection::vec((0u8..4, 0u64..1_000_000), 1..60),
        points in prop::collection::vec(1usize..5000, 1..4),
        dist_sel in 0u8..3,
        fault_sel in 0u8..4,
        replicates in 1usize..6,
        seed in any::<u64>(),
    ) {
        let ops = stream_of(&spec);
        let base = LaunchConfig {
            service_dist: dist_of(dist_sel),
            fault: fault_of(fault_sel),
            seed,
            ..LaunchConfig::default()
        };
        let stream = ClassifiedStream::classify(&ops, &base);
        let batched = sweep_ranks_replicated(&stream, &base, &points, replicates);
        // The sweep clamps to one replicate only when *no* draws occur:
        // deterministic service and a draw-free fault model.
        let k = if base.service_dist.is_deterministic() && !base.fault.takes_draws() {
            1
        } else {
            replicates
        };
        prop_assert_eq!(batched.len(), points.len());
        for (&(ranks, first, stats), &want_ranks) in batched.iter().zip(&points) {
            prop_assert_eq!(ranks, want_ranks);
            let mut samples: Vec<u64> = Vec::with_capacity(k);
            for r in 0..k {
                let cfg = base.clone().with_ranks(ranks).with_seed(replicate_seed(seed, r));
                let res = simulate_classified(&stream, &cfg);
                if r == 0 {
                    prop_assert_eq!(&first, &res);
                }
                samples.push(res.time_to_launch_ns);
            }
            prop_assert_eq!(stats, LaunchStats::from_samples(&mut samples));
        }
    }
}

/// A 500-op cold metadata stream, the ISSUE's acceptance shape.
fn cold_500() -> StraceLog {
    let mut log = StraceLog::new();
    for i in 0..500 {
        log.push(Syscall::new(Op::Openat, &format!("/lib/l{i}.so"), Outcome::Enoent, 200_000));
    }
    log
}

fn four_mi_ranks() -> LaunchConfig {
    LaunchConfig { ranks: 4_194_304, ranks_per_node: 16, ..LaunchConfig::default() }
}

/// The acceptance bar: 4,194,304 ranks (262,144 nodes), 500-op stream,
/// under one second. Spindle broadcast leaves one cold node; the other
/// 262,143 coalesce to arithmetic.
#[test]
fn four_million_rank_broadcast_simulates_subsecond() {
    let ops = cold_500();
    let cfg = LaunchConfig { broadcast_cache: true, ..four_mi_ranks() };
    let t0 = Instant::now();
    let r = simulate_launch(&ops, &cfg);
    let elapsed = t0.elapsed();
    assert_eq!(r.nodes, 262_144);
    assert_eq!(r.server_ops, 500);
    assert_eq!(r.local_ops, 262_143u64 * 500);
    assert!(r.peak_queue_depth <= 1, "one cold node never queues behind itself");
    if !cfg!(debug_assertions) {
        assert!(elapsed.as_secs_f64() < 1.0, "release-mode budget blown: {elapsed:?}");
    }
}

/// The shrinkwrapped shape at the same scale: a 500-op stream the node
/// caches absorb entirely. All 262,144 nodes are cold yet serverless, so
/// the whole fleet coalesces.
#[test]
fn four_million_rank_warm_stream_simulates_subsecond() {
    let mut ops = StraceLog::new();
    for i in 0..500 {
        ops.push(Syscall::new(Op::Stat, &format!("/wrapped/l{i}.so"), Outcome::Ok, 1_000));
    }
    let cfg = four_mi_ranks();
    let t0 = Instant::now();
    let r = simulate_launch(&ops, &cfg);
    let elapsed = t0.elapsed();
    assert_eq!(r.server_ops, 0);
    assert_eq!(r.local_ops, 262_144u64 * 500);
    if !cfg!(debug_assertions) {
        assert!(elapsed.as_secs_f64() < 1.0, "release-mode budget blown: {elapsed:?}");
    }
}

/// Scale sanity at full contention, sized so the reference can confirm it:
/// the coalesced heap still agrees with the oracle when *every* node is
/// cold and queueing.
#[test]
fn all_cold_contention_still_exact_at_scale() {
    let ops = cold_500();
    let cfg = LaunchConfig {
        ranks: 16_384,
        ranks_per_node: 16, // 1024 cold nodes
        ..LaunchConfig::default()
    };
    assert_eq!(simulate_launch(&ops, &cfg), simulate_launch_reference(&ops, &cfg));
}

/// Fixed-seed integration pin: a whole matrix — every wrap state, every
/// cache policy, all three service distributions — runs through the
/// batched `ExperimentMatrix::run`, and every series / stats / queueing
/// entry equals a from-scratch per-call recomputation (fresh
/// classification, per-replicate `simulate_classified`, the same M/G/1
/// check). If any layer of the batch path — gathering, partitioning,
/// kernel dedup, kernel solve, scatter — drifted by one bit, some
/// cell here would differ.
#[test]
fn batched_matrix_is_bit_identical_to_per_call_recomputation() {
    use depchaos::launch::{
        mg1_bounds, scenario_seed, validate_against_mg1, CachePolicy, ExperimentMatrix,
        MatrixBackend, ProfileCache, WrapState,
    };
    use depchaos::vfs::StorageModel;
    use depchaos::workloads::Pynamic;

    let replicates = 3usize;
    let rank_points = [256usize, 512];
    let matrix = ExperimentMatrix::new()
        .workload(Pynamic::new(20))
        .backend(MatrixBackend::glibc())
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .cache_policies(CachePolicy::all())
        .distributions(ServiceDistribution::all())
        .faults([
            FaultModel::None,
            FaultModel::ServerStall { at_ns: 2_000_000, duration_ns: 300_000_000 },
            FaultModel::RpcLoss {
                loss_milli: 150,
                timeout_ns: 1_000_000,
                backoff_base_ns: 250_000,
                max_retries: 5,
            },
        ])
        .replicates(replicates)
        .rank_points(rank_points);
    let cache = ProfileCache::new();
    let report = matrix.run(&cache);
    let scenarios = matrix.expand();
    assert_eq!(report.results.len(), scenarios.len());

    let base = matrix.base();
    for (s, r) in scenarios.iter().zip(&report.results) {
        let cell = cache.get_or_profile(s.workload.as_ref(), &s.backend, s.storage);
        let mut cfg = s.cache.apply(base.clone());
        cfg.service_dist = s.dist;
        cfg.fault = s.fault;
        cfg.seed = scenario_seed(base.seed, &s.spec().label());
        let p = match cell.outcome(s.wrap) {
            Ok(p) => p,
            Err(e) => {
                assert_eq!(r.error.as_ref(), Some(e));
                continue;
            }
        };
        assert!(r.error.is_none());
        // Classify from scratch — not through the cache the run used.
        let stream = ClassifiedStream::classify(&p.log, &cfg);
        let k = if s.dist.is_deterministic() && !s.fault.takes_draws() { 1 } else { replicates };
        for (pi, &ranks) in rank_points.iter().enumerate() {
            let mut samples: Vec<u64> = Vec::with_capacity(k);
            for rep in 0..k {
                let c = cfg.clone().with_ranks(ranks).with_seed(replicate_seed(cfg.seed, rep));
                let res = simulate_classified(&stream, &c);
                if rep == 0 {
                    assert_eq!(r.series[pi], (ranks, res));
                }
                samples.push(res.time_to_launch_ns);
            }
            let st = LaunchStats::from_samples(&mut samples);
            assert_eq!(r.stats[pi], (ranks, st));
            let b = mg1_bounds(&stream, &cfg.clone().with_ranks(ranks));
            assert_eq!(r.queueing[pi], (ranks, validate_against_mg1(&b, &st)));
        }
    }
}
