//! Adaptive replicate control never changes what is simulated — only how
//! much of it.
//!
//! The stopping rule in [`depchaos::launch::adaptive`] decides *when* a
//! cell has enough replicates; it must never perturb the replicates
//! themselves. Two properties pin that, across random streams, all three
//! service distributions, and every fault-model shape:
//!
//! 1. **Degenerate rule ≡ fixed K, byte for byte.** With the precision
//!    target disabled (`target_rel_milli == 0`) the adaptive run drives
//!    every unit to `max_k` — and the result must equal
//!    [`run_adaptive_units`] under [`AdaptiveControl::fixed`]`(max_k)`
//!    exactly: same samples, same stats, same replicate-0 series entry.
//! 2. **Batch-prefix property.** Whatever K the live rule stops at, the
//!    adaptive sample is a *prefix* of the fixed-`max_k` sample vector:
//!    replicate `r`'s draws are a pure function of `(base seed, r)`
//!    ([`replicate_seed`]), so reaching `r` adaptively or under fixed K
//!    produces the same launch result. `docs/determinism.md` walks
//!    through why this is the whole bit-reproducibility argument.

use depchaos::launch::{
    replicate_seed, run_adaptive_units, stop_k, AdaptiveControl, AdaptiveUnit, BatchPlan,
    ClassifiedStream, FaultModel, LaunchConfig, LaunchResult, LaunchStats, ServiceDistribution,
};
use depchaos::vfs::{Op, Outcome, StraceLog, Syscall};
use proptest::prelude::*;

/// The distribution axis a selector index names.
fn dist_of(sel: u8) -> ServiceDistribution {
    ServiceDistribution::all()[sel as usize % 3]
}

/// The fault axis: healthy, brownout, lossy RPC, stragglers.
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

/// Build a stream from `(kind, cost)` pairs, as the DES equivalence
/// properties do.
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

/// Each rank point's replicate rows under `ctl`.
fn rows(
    stream: &ClassifiedStream,
    cfg: &LaunchConfig,
    points: &[usize],
    ctl: AdaptiveControl,
) -> Vec<Vec<LaunchResult>> {
    let units: Vec<AdaptiveUnit<'_>> = points
        .iter()
        .map(|&ranks| AdaptiveUnit { stream, cfg: cfg.clone().with_ranks(ranks) })
        .collect();
    run_adaptive_units(&units, ctl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: adaptive-at-max_k is the fixed-K sweep, byte for byte,
    /// across distributions × fault models.
    #[test]
    fn disabled_rule_is_fixed_k_byte_for_byte(
        spec in prop::collection::vec((0u8..4, 0u64..2_000_000), 1..80),
        dist_sel in 0u8..3,
        fault_sel in 0u8..4,
        seed in 0u64..1 << 40,
        max_k in 1usize..9,
        batch in 1usize..5,
    ) {
        let cfg = LaunchConfig {
            service_dist: dist_of(dist_sel),
            fault: fault_of(fault_sel),
            seed,
            ..LaunchConfig::default()
        };
        let stream = ClassifiedStream::classify(&stream_of(&spec), &cfg);
        let pts = [256usize, 1024];
        let ctl = AdaptiveControl { target_rel_milli: 0, min_k: 1, max_k, batch };
        let adaptive = rows(&stream, &cfg, &pts, ctl);
        let fixed = rows(&stream, &cfg, &pts, AdaptiveControl::fixed(max_k));
        prop_assert_eq!(adaptive, fixed);
    }

    /// Property 2: under a *live* rule, every replicate the adaptive run
    /// executed equals the corresponding row of the fixed-`max_k` grid —
    /// the adaptive sample is a prefix, and the K it stops at is exactly
    /// what [`stop_k`] replays from the full sample vector.
    #[test]
    fn live_rule_samples_are_a_prefix_of_the_fixed_grid(
        spec in prop::collection::vec((0u8..4, 0u64..2_000_000), 1..80),
        dist_sel in 0u8..3,
        fault_sel in 0u8..4,
        seed in 0u64..1 << 40,
        target in prop::sample::select(vec![10u32, 100, 500, 2000]),
    ) {
        let cfg = LaunchConfig {
            service_dist: dist_of(dist_sel),
            fault: fault_of(fault_sel),
            seed,
            ..LaunchConfig::default()
        };
        let stream = ClassifiedStream::classify(&stream_of(&spec), &cfg);
        let ctl = AdaptiveControl { target_rel_milli: target, min_k: 2, max_k: 9, batch: 3 };
        let adaptive = &rows(&stream, &cfg, &[512], ctl)[0];
        let stats = &LaunchStats::of(adaptive);
        let first = &adaptive[0];

        // The fixed max_k grid for the same point, one row per replicate.
        let mut plan = BatchPlan::new();
        let id = plan.stream(&stream);
        for r in 0..ctl.max_k {
            plan.push(id, &cfg.clone().with_ranks(512).with_seed(replicate_seed(cfg.seed, r)));
        }
        let grid = plan.execute();
        let samples: Vec<u64> = grid.iter().map(|l| l.time_to_launch_ns).collect();

        let takes_draws = !cfg.service_dist.is_deterministic() || cfg.fault.takes_draws();
        if takes_draws {
            prop_assert_eq!(stats.replicates, stop_k(ctl, &samples));
        } else {
            prop_assert_eq!(stats.replicates, 1, "exact cells keep the clamp");
        }
        prop_assert_eq!(first, &grid[0], "replicate 0 is the series entry either way");

        // And the adaptive run's summary is recomputable from the prefix
        // alone — nothing beyond the stopped-at K influenced it.
        let mut prefix: Vec<u64> = samples[..stats.replicates].to_vec();
        let recomputed = depchaos::launch::LaunchStats::from_samples(&mut prefix);
        prop_assert_eq!(stats, &recomputed);
    }
}
