//! The server-topology axis never perturbs what it doesn't model.
//!
//! Three contracts pin the multi-server refactor:
//!
//! 1. **S = 1 is the old engine, bit for bit.** A one-server topology —
//!    under either assignment policy — must reproduce the default-config
//!    result exactly, across every (distribution × fault × stream shape)
//!    cell. The refactor threaded `ServerTopology` through every regime;
//!    this is the proof no single-server cell moved.
//! 2. **The S-lane engines agree.** The coalescing heap, the reference
//!    oracle, and the columnar [`BatchPlan`] must emit identical
//!    [`LaunchResult`]s for S ∈ {2, 3, 8} fleets under both routing
//!    policies, faults included.
//! 3. **Hash routing is schedule-independent.** `HashByNode` assigns by
//!    node id alone, so the fleet decomposes into independent lanes: the
//!    whole launch finishes exactly when a single-server system loaded
//!    with the busiest lane's ⌈N/S⌉ nodes would. If assignment leaked any
//!    arrival-order state, the lane populations — and this equality —
//!    would drift.

use depchaos::launch::{
    reference::simulate_launch_reference, replicate_seed, simulate_classified, simulate_launch,
    AssignPolicy, BatchPlan, ClassifiedStream, FaultModel, LaunchConfig, ServerTopology,
    ServiceDistribution,
};
use depchaos::vfs::{Op, Outcome, StraceLog, Syscall};
use proptest::prelude::*;

/// How many distributions [`dist_of`] names.
const DISTS: u8 = 12;

/// The distribution axis a selector index names in the properties below:
/// deterministic at 0, then jitter spreads from none to nearly the whole
/// mean, and lognormal σ on a grid that crosses the heap draw's σ ≤ 4
/// bound, past which it samples through libm.
fn dist_of(sel: u8) -> ServiceDistribution {
    let jitter = |spread_milli| ServiceDistribution::UniformJitter { spread_milli };
    let log_normal = |sigma_milli| ServiceDistribution::LogNormal { sigma_milli };
    [
        ServiceDistribution::Deterministic,
        jitter(0),
        jitter(250),
        jitter(999),
        log_normal(1),
        log_normal(250),
        log_normal(500),
        log_normal(750),
        log_normal(1000),
        log_normal(4000),
        log_normal(4001),
        log_normal(8000),
    ][(sel % DISTS) as usize]
}

/// The fault axis: healthy, a brownout inside the contention window,
/// lossy RPC with retry/backoff, and a straggler cohort.
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

/// Build a stream from `(kind, cost)` pairs, same shape space as the
/// des_equivalence suite: everything from sub-warm to payload-heavy.
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

/// The fleet shapes contract 2 sweeps: both policies, lane counts that
/// divide the node population evenly, unevenly, and not at all.
fn fleets() -> [ServerTopology; 6] {
    [
        ServerTopology::hash(2),
        ServerTopology::hash(3),
        ServerTopology::hash(8),
        ServerTopology::least_loaded(2),
        ServerTopology::least_loaded(3),
        ServerTopology::least_loaded(8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: one server is the pre-topology engine, whatever the
    /// policy tag says, over the full (dist × fault × knobs) input space.
    #[test]
    fn single_server_topologies_are_bit_identical_to_the_default(
        spec in prop::collection::vec((0u8..4, 0u64..2_000_000), 0..100),
        ranks in 1usize..5000,
        rpn_sel in 0usize..4,
        knobs in 0u8..8,
        dist_sel in 0..DISTS,
        fault_sel in 0u8..4,
        seed in any::<u64>(),
    ) {
        let ops = stream_of(&spec);
        let base = LaunchConfig {
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
        let want = simulate_launch(&ops, &base);
        for assign in [AssignPolicy::HashByNode, AssignPolicy::LeastLoaded] {
            let cfg = LaunchConfig {
                topology: ServerTopology { servers: 1, assign },
                ..base.clone()
            };
            prop_assert_eq!(&simulate_launch(&ops, &cfg), &want, "assign={}", assign.name());
        }
    }

    /// Contract 2: heap == reference == batch for genuine fleets, both
    /// policies, faults and stochastic service included. The batch row
    /// rides a plan that also carries a single-server row, so kernel
    /// dedup cannot conflate topologies either, and the same fleet row at
    /// two more rank points (one with fewer cold nodes than servers, so
    /// some hash lanes are empty), under two more replicate seeds, and a
    /// single server loaded with the busiest hash lane, whose draw-free
    /// kernel the fleet's lanes share.
    #[test]
    fn fleet_heap_matches_reference_and_batch(
        spec in prop::collection::vec((0u8..4, 0u64..1_000_000), 0..80),
        ranks in 1usize..4000,
        fleet_sel in 0usize..6,
        dist_sel in 0..DISTS,
        fault_sel in 0u8..4,
        seed in any::<u64>(),
    ) {
        let ops = stream_of(&spec);
        let cfg = LaunchConfig {
            ranks,
            ranks_per_node: 16,
            service_dist: dist_of(dist_sel),
            fault: fault_of(fault_sel),
            topology: fleets()[fleet_sel],
            seed,
            ..LaunchConfig::default()
        };
        let classified = ClassifiedStream::classify(&ops, &cfg);
        let fast = simulate_classified(&classified, &cfg);
        prop_assert_eq!(&fast, &simulate_launch_reference(&ops, &cfg));

        let single = LaunchConfig { topology: ServerTopology::single(), ..cfg.clone() };
        let servers = cfg.topology.servers;
        let busiest_lane = LaunchConfig {
            ranks: cfg.cold_nodes().div_ceil(servers) * 16,
            ..single.clone()
        };
        let more = [
            cfg.clone().with_ranks(ranks * 2),
            cfg.clone().with_ranks((servers - 1) * 16),
            cfg.clone().with_seed(replicate_seed(seed, 1)),
            cfg.clone().with_seed(replicate_seed(seed, 2)),
            busiest_lane,
        ];
        let mut plan = BatchPlan::new();
        let id = plan.stream(&classified);
        plan.push(id, &cfg);
        plan.push(id, &single);
        for row in &more {
            plan.push(id, row);
        }
        let rows = plan.execute();
        prop_assert_eq!(&rows[0], &fast);
        prop_assert_eq!(&rows[1], &simulate_classified(&classified, &single));
        for (got, row) in rows[2..].iter().zip(&more) {
            prop_assert_eq!(
                got,
                &simulate_launch_reference(&ops, row),
                "ranks={} seed={}",
                row.ranks,
                row.seed
            );
        }
    }

    /// Contract 3: `HashByNode` assigns by node id alone, so the fleet's
    /// launch time equals a single server loaded with the busiest lane's
    /// ⌈N/S⌉ nodes. Draw-free cells only: per-node draws are seeded by
    /// global node id, which the lane reduction deliberately renumbers.
    #[test]
    fn hash_routing_decomposes_into_independent_lanes(
        spec in prop::collection::vec((0u8..4, 0u64..1_000_000), 1..80),
        nodes in 1usize..250,
        servers_sel in 0usize..3,
        stall in any::<bool>(),
    ) {
        let ops = stream_of(&spec);
        let servers = [2usize, 3, 8][servers_sel];
        let fault = if stall {
            FaultModel::ServerStall { at_ns: 2_000_000, duration_ns: 300_000_000 }
        } else {
            FaultModel::None
        };
        let fleet_cfg = LaunchConfig {
            ranks: nodes * 16,
            ranks_per_node: 16,
            fault,
            topology: ServerTopology::hash(servers),
            ..LaunchConfig::default()
        };
        let lane_cfg = LaunchConfig {
            ranks: nodes.div_ceil(servers) * 16,
            topology: ServerTopology::single(),
            ..fleet_cfg.clone()
        };
        prop_assert_eq!(
            simulate_launch(&ops, &fleet_cfg).time_to_launch_ns,
            simulate_launch(&ops, &lane_cfg).time_to_launch_ns,
            "an S={servers} hash fleet must finish exactly when its busiest lane does"
        );
    }
}
