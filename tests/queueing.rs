//! The M/G/1 validation layer, cross-crate: queueing-theory bounds must
//! hold for the DES across random streams, every service distribution, and
//! arbitrary seeds — and the rows the regime rule calls analytic must
//! agree with the heap at the 4Mi-rank scale the sweeps actually run.

use std::time::Instant;

use depchaos::launch::{
    mg1_bounds, reference::simulate_launch_reference, run_adaptive_units, simulate_classified,
    validate_against_mg1, AdaptiveControl, AdaptiveUnit, ClassifiedStream, ExperimentMatrix,
    LaunchConfig, LaunchStats, MatrixBackend, ProfileCache, ServerTopology, ServiceDistribution,
    SolverClass, WrapState,
};
use depchaos::vfs::{Op, Outcome, StorageModel, StraceLog, Syscall};
use depchaos::workloads::{Axom, Pynamic, Rocm};
use proptest::prelude::*;

mod common;
use common::stream_of;

fn cold_stream(n: usize) -> StraceLog {
    let mut log = StraceLog::new();
    for i in 0..n {
        log.push(Syscall::new(Op::Openat, &format!("/lib/l{i}.so"), Outcome::Enoent, 200_000));
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance property: across all three distributions, random
    /// streams, rank counts, and seeds, the replicate mean of the DES sits
    /// inside the M/G/1 envelope.
    #[test]
    fn mg1_bounds_hold_across_distributions_and_seeds(
        spec in prop::collection::vec((0u8..4, 0u64..2_000_000), 1..80),
        ranks in 1usize..20_000,
        dist_sel in 0u8..3,
        seed in any::<u64>(),
        broadcast in any::<bool>(),
    ) {
        let ops = stream_of(&spec);
        let cfg = LaunchConfig {
            broadcast_cache: broadcast,
            service_dist: ServiceDistribution::all()[dist_sel as usize % 3],
            seed,
            ..LaunchConfig::default()
        };
        let stream = ClassifiedStream::classify(&ops, &cfg);
        let units = [AdaptiveUnit { stream: &stream, cfg: cfg.clone().with_ranks(ranks) }];
        let stats = LaunchStats::of(&run_adaptive_units(&units, AdaptiveControl::fixed(7))[0]);
        let b = mg1_bounds(&stream, &units[0].cfg);
        prop_assert!(b.lower_ns <= b.upper_ns);
        let check = validate_against_mg1(&b, &stats);
        prop_assert!(
            check.within,
            "dist={} ranks={ranks} seed={seed}: mean {} outside [{}, {}] slack {}",
            cfg.service_dist.name(), check.observed_mean_ns, b.lower_ns, b.upper_ns,
            check.slack_ns
        );
    }

    /// The deterministic DES result itself (not just the replicate mean)
    /// always sits inside the envelope — zero slack involved.
    #[test]
    fn deterministic_result_always_inside_the_envelope(
        spec in prop::collection::vec((0u8..4, 0u64..2_000_000), 0..80),
        ranks in 1usize..20_000,
        broadcast in any::<bool>(),
    ) {
        let ops = stream_of(&spec);
        let cfg = LaunchConfig { broadcast_cache: broadcast, ..LaunchConfig::default() }
            .with_ranks(ranks);
        let stream = ClassifiedStream::classify(&ops, &cfg);
        let r = simulate_classified(&stream, &cfg);
        let b = mg1_bounds(&stream, &cfg);
        prop_assert!(
            (b.lower_ns..=b.upper_ns).contains(&r.time_to_launch_ns),
            "{} outside [{}, {}]", r.time_to_launch_ns, b.lower_ns, b.upper_ns
        );
    }

    /// Every row the regime rule calls analytic is bit-identical to the
    /// reference oracle's full result.
    #[test]
    fn analytic_rows_match_the_oracle(
        spec in prop::collection::vec((0u8..4, 0u64..2_000_000), 1..80),
        ranks in 1usize..8_000,
    ) {
        let ops = stream_of(&spec);
        let cfg = LaunchConfig::default().with_ranks(ranks);
        let stream = ClassifiedStream::classify(&ops, &cfg);
        if SolverClass::of(&cfg, &stream) == SolverClass::Analytic {
            prop_assert_eq!(simulate_classified(&stream, &cfg), simulate_launch_reference(&ops, &cfg));
        }
    }
}

/// The ISSUE's smoke test: 4,194,304 ranks (262,144 cold nodes), analytic
/// vs the independent heap-walking oracle, exactly — on a stream short
/// enough that the O(nodes × ops) oracle stays affordable in debug mode.
#[test]
fn four_million_rank_all_cold_analytic_matches_the_heap_exactly() {
    let ops = cold_stream(8);
    let cfg = LaunchConfig { ranks: 4_194_304, ranks_per_node: 16, ..LaunchConfig::default() };
    let stream = ClassifiedStream::classify(&ops, &cfg);
    assert_eq!(SolverClass::of(&cfg, &stream), SolverClass::Analytic, "uniform cold stream");
    let analytic = simulate_classified(&stream, &cfg);
    assert_eq!(analytic, simulate_launch_reference(&ops, &cfg));
    assert_eq!(analytic.nodes, 262_144);
    assert_eq!(analytic.peak_queue_depth, 262_144);
}

/// At full stream length the analytic path carries the 4Mi-rank all-cold
/// point alone — sub-second where the heap would schedule 131M events.
#[test]
fn four_million_rank_all_cold_simulates_subsecond() {
    let ops = cold_stream(500);
    let cfg = LaunchConfig { ranks: 4_194_304, ranks_per_node: 16, ..LaunchConfig::default() };
    let stream = ClassifiedStream::classify(&ops, &cfg);
    let t0 = Instant::now();
    let r = simulate_classified(&stream, &cfg);
    let elapsed = t0.elapsed();
    assert_eq!(SolverClass::of(&cfg, &stream), SolverClass::Analytic);
    assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    assert_eq!(r.server_ops, 262_144 * 500);
    // The envelope brackets even this point: capacity below, total
    // serialization above.
    let b = mg1_bounds(&stream, &cfg);
    assert!((b.lower_ns..=b.upper_ns).contains(&r.time_to_launch_ns));
    assert!(b.utilisation > 1.0, "all-cold 262k nodes saturate the server");
}

/// The acceptance criterion on the sweep engine: every stochastic cell of
/// the fig6-dist sweep — all three workload shapes included — validates
/// against its M/G/1 envelope.
#[test]
fn fig6_dist_cells_validate_against_mg1() {
    let report = ExperimentMatrix::new()
        .workload(Pynamic::new(60))
        .workload(Axom::paper())
        .workload(Rocm::matched())
        .backend(MatrixBackend::glibc())
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .distributions(ServiceDistribution::all())
        .replicates(7)
        .rank_points([512usize, 2048, 16 * 1024])
        .run(&ProfileCache::new());
    assert_eq!(report.queueing_violations(), Vec::<(String, usize)>::new());
    for r in &report.results {
        assert_eq!(r.queueing.len(), 3, "{}", r.spec.label());
        for (ranks, q) in &r.queueing {
            assert!(q.within, "{} at {ranks}", r.spec.label());
            assert!(q.bounds.lower_ns <= q.bounds.upper_ns);
        }
    }
}

/// The largest σ a what-if request may ask for, 20, keeps the M/G/k mean
/// wait finite on the two Pynamic-20 cells whose stored wait was infinite
/// (512 ranks on one server) or NaN (524,288 ranks on 4,096 hash servers)
/// at σ = 30, where `E[F²] = e^{σ²}` overflows.
#[test]
fn mg1_wait_is_finite_at_the_largest_admitted_sigma() {
    let cell = ProfileCache::new().get_or_profile(
        &Pynamic::new(20),
        &MatrixBackend::glibc(),
        StorageModel::Nfs,
    );
    let log = &cell.plain.as_ref().expect("Pynamic-20 profiles on glibc").log;
    for (ranks, topology) in
        [(512, ServerTopology::single()), (524_288, ServerTopology::hash(4096))]
    {
        for (sigma, finite) in [(20.0, true), (30.0, false)] {
            let cfg = LaunchConfig::default()
                .with_ranks(ranks)
                .with_service_dist(ServiceDistribution::log_normal(sigma))
                .with_topology(topology);
            let stream = ClassifiedStream::classify(log, &cfg);
            let b = mg1_bounds(&stream, &cfg);
            assert!(b.utilisation < 1.0, "{ranks} ranks: ρ = {}", b.utilisation);
            assert_eq!(b.mean_wait_ns.is_finite(), finite, "{ranks} ranks at σ = {sigma}");
        }
    }
}
