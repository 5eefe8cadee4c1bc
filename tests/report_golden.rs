//! Golden text for every [`SweepReport`] renderer.
//!
//! Each case runs a small matrix shaped like one `depchaos-report` section
//! (Pynamic-30, two rank points) through the renderers that section prints,
//! and compares the text byte for byte with its file under `tests/golden/`.
//! Between them the cases cover the `future` backend's incomplete plain
//! series and failed wrap, the fleet table's flattening line, the upper
//! bound a faulted cell forfeits, a saturated M/G/k wait, and both TSVs
//! under fixed-K (`fixed@K`) and adaptive (`adaptive-…m@K`) stopping.
//!
//! After an intended output change, the failing test prints the rendered
//! text in full: copy it into the golden file and review the diff.

use std::path::Path;

use depchaos::launch::{
    AdaptiveControl, CachePolicy, ExperimentMatrix, FaultModel, MatrixBackend, ProfileCache,
    ServerTopology, ServiceDistribution, SweepReport, WrapState, DEFAULT_REPLICATES,
};
use depchaos::vfs::StorageModel;
use depchaos::workloads::Pynamic;

/// The Fig 6 cell every section sweeps: Pynamic-30 on cold NFS, plain and
/// wrapped, at two rank points.
fn cell() -> ExperimentMatrix {
    ExperimentMatrix::new()
        .workload(Pynamic::new(30))
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .cache_policies([CachePolicy::Cold])
}

/// The matrix's report run on one worker and on three: every golden file
/// must hold at both, since `jobs` spreads profiling and kernel solving
/// without changing a byte.
fn run(matrix: ExperimentMatrix) -> [SweepReport; 2] {
    [1, 3].map(|jobs| matrix.run_with(&ProfileCache::new(), jobs, None).expect("no memo, no I/O").0)
}

/// Compare `got` with the golden file `name`.
fn golden(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if want != got {
        let line = want.lines().zip(got.lines()).position(|(w, g)| w != g);
        panic!(
            "{name} drifted from its golden text (first differing line: {line:?})\n\
             --- golden\n{want}--- rendered\n{got}"
        );
    }
}

#[test]
fn fig6_tables_and_tsv() {
    for report in run(cell().rank_points([256usize, 512])) {
        golden("fig6.txt", &report.render_fig6_tables());
        golden("fig6.tsv", &report.render_tsv());
    }
}

#[test]
fn backend_tables_show_the_future_loader_hole() {
    for report in run(cell().backends(MatrixBackend::all()).rank_points([256usize, 512])) {
        let tables = report.render_fig6_tables();
        assert!(tables.contains("INCOMPLETE") && tables.contains("wrap failed"));
        golden("backends.txt", &tables);
        golden("backends.tsv", &report.render_tsv());
    }
}

#[test]
fn dist_tables_and_fixed_k_tsv() {
    for report in run(cell().distributions(ServiceDistribution::all()).rank_points([256usize, 512]))
    {
        let tsv = report.render_tsv();
        assert!(tsv.contains(&format!("\tfixed@{DEFAULT_REPLICATES}\n")));
        golden("dist.txt", &report.render_fig6_dist_tables());
        golden("dist.tsv", &tsv);
    }
}

#[test]
fn dist_tables_and_adaptive_tsv() {
    for report in run(cell()
        .distributions(ServiceDistribution::all())
        .adaptive(AdaptiveControl {
            target_rel_milli: 50,
            min_k: 3,
            max_k: DEFAULT_REPLICATES,
            batch: 4,
        })
        .rank_points([256usize, 512]))
    {
        let tsv = report.render_tsv();
        assert!(tsv.contains("\tadaptive-50m@1\n") && tsv.contains("\tadaptive-50m@"));
        golden("dist-adaptive.txt", &report.render_fig6_dist_tables());
        golden("dist-adaptive.tsv", &tsv);
    }
}

#[test]
fn queueing_tables_and_tsv() {
    for report in run(cell()
        .distributions(ServiceDistribution::all())
        .topologies([
            ServerTopology::single(),
            ServerTopology::hash(4),
            ServerTopology::least_loaded(4),
        ])
        .replicates(5)
        .rank_points([512usize, 2048]))
    {
        let tables = report.render_queueing_tables();
        assert!(tables.contains("saturated"));
        golden("queueing.txt", &tables);
        golden("queueing.tsv", &report.render_queueing_tsv());
    }
}

#[test]
fn fault_tables_tsv_and_forfeited_upper_bounds() {
    for report in run(cell()
        .faults([
            FaultModel::None,
            FaultModel::ServerStall { at_ns: 2_000_000_000, duration_ns: 10_000_000_000 },
            FaultModel::ServerStall { at_ns: 2_000_000_000, duration_ns: 60_000_000_000 },
            FaultModel::RpcLoss {
                loss_milli: 50,
                timeout_ns: 1_000_000_000,
                backoff_base_ns: 250_000_000,
                max_retries: 5,
            },
            FaultModel::Stragglers { frac_milli: 250, slow_milli: 4000 },
        ])
        .rank_points([512usize, 2048]))
    {
        golden("faults.txt", &report.render_fault_tables());
        golden("faults.tsv", &report.render_tsv());
        // Faulted cells forfeit the upper bound: `-` in the table, an empty
        // field in the TSV.
        let tables = report.render_queueing_tables();
        assert!(tables.lines().any(|l| l.split_whitespace().nth(3) == Some("-")));
        golden("faults-queueing.txt", &tables);
        golden("faults-queueing.tsv", &report.render_queueing_tsv());
    }
}

#[test]
fn fleet_tables_and_tsv() {
    for report in run(cell()
        .topologies([1usize, 2, 4, 8, 16].map(ServerTopology::hash))
        .rank_points([512usize, 2048]))
    {
        let tables = report.render_servers_tables();
        assert!(tables.contains("flattens at"));
        golden("servers.txt", &tables);
        golden("servers.tsv", &report.render_tsv());
    }
}
