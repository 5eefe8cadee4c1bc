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
//! 4. **A pool wider than its fleet never queues.** With at least as many
//!    servers as cold nodes, a least-loaded pool always has a server free
//!    at each arrival, as the hash fleet of that size gives every node its
//!    own: the two answer the same, except under `RpcLoss`.

use depchaos::launch::{
    reference::simulate_launch_reference, replicate_seed, simulate_classified, simulate_launch,
    AssignPolicy, BatchPlan, ClassifiedStream, FaultModel, LaunchConfig, ProfileCache,
    ServerTopology, SolverClass,
};
use depchaos::serve::WhatIfRequest;
use proptest::prelude::*;

mod common;
use common::{dist_of, fault_of, stream_of, DISTS};

/// The fleet shapes contract 2 sweeps: both policies, lane counts that
/// divide the node population evenly, unevenly, and not at all, and a
/// least-loaded pool both wider and narrower than its lane.
fn fleets() -> [ServerTopology; 7] {
    [
        ServerTopology::hash(2),
        ServerTopology::hash(3),
        ServerTopology::hash(8),
        ServerTopology::least_loaded(2),
        ServerTopology::least_loaded(3),
        ServerTopology::least_loaded(8),
        ServerTopology::least_loaded(64),
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
        fleet_sel in 0usize..7,
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

    /// Contract 4: at each arrival at most N − 1 other requests are still
    /// in service, so a pool of S ≥ N servers starts every request on
    /// arrival, as a node's own hash server does. Under `RpcLoss` a
    /// re-issued request can wait behind its own lost attempt on its hash
    /// server, so loss is left out.
    #[test]
    fn a_pool_at_least_as_wide_as_its_fleet_answers_like_hash(
        spec in prop::collection::vec((0u8..4, 0u64..1_000_000), 0..80),
        nodes in 1usize..100,
        spare in 0usize..4,
        dist_sel in 0..DISTS,
        fault_sel in prop::sample::select(vec![0u8, 1, 3]),
        seed in any::<u64>(),
    ) {
        let ops = stream_of(&spec);
        let servers = nodes + spare;
        let hash = LaunchConfig {
            ranks: nodes * 16,
            ranks_per_node: 16,
            service_dist: dist_of(dist_sel),
            fault: fault_of(fault_sel),
            topology: ServerTopology::hash(servers),
            seed,
            ..LaunchConfig::default()
        };
        let pool = LaunchConfig { topology: ServerTopology::least_loaded(servers), ..hash.clone() };
        prop_assert_eq!(
            simulate_launch(&ops, &pool),
            simulate_launch(&ops, &hash),
            "servers={} {}",
            servers,
            hash.fault.name()
        );
    }
}

/// A one-node lane takes the heap whichever row it belongs to, so the
/// order of a query's rank points cannot change a kernel's solver. The
/// 128-rank row of this query is one node, and its 512-rank row four
/// nodes on four hash servers: both rows are lone nodes, solved on the
/// heap, in a plan of either order as per call.
#[test]
fn one_node_lanes_take_the_heap_whatever_their_row() {
    let line = r#"{"id":"q","base":"pynamic-20","ranks":[128,512],"servers":4}"#;
    let matrix = WhatIfRequest::parse(line).unwrap().matrix().unwrap();
    let scenarios = matrix.expand();
    assert_eq!(scenarios.len(), 1);
    let scenario = &scenarios[0];
    let cell = ProfileCache::new().get_or_profile(
        scenario.workload.as_ref(),
        &scenario.backend,
        scenario.storage,
    );
    let profile = cell.outcome(scenario.wrap).as_ref().expect("pynamic-20 loads");
    let cfg = scenario.launch_config(matrix.base());
    let stream = ClassifiedStream::classify(&profile.log, &cfg);
    let rows: Vec<LaunchConfig> =
        matrix.effective_rank_points().into_iter().map(|r| cfg.clone().with_ranks(r)).collect();
    assert_eq!(rows.iter().map(LaunchConfig::cold_nodes).collect::<Vec<_>>(), [1, 4]);
    for row in &rows {
        assert_eq!(SolverClass::of(row, &stream), SolverClass::Heap, "ranks={}", row.ranks);
    }
    let per_call: Vec<_> = rows.iter().map(|row| simulate_classified(&stream, row)).collect();
    for order in [[0, 1], [1, 0]] {
        let mut plan = BatchPlan::new();
        let id = plan.stream(&stream);
        for i in order {
            plan.push(id, &rows[i]);
        }
        assert_eq!(plan.class_counts(), [0, 0, 0, 2]);
        let got = plan.execute();
        for (k, i) in order.into_iter().enumerate() {
            assert_eq!(got[k], per_call[i], "order={order:?}");
        }
    }
}
