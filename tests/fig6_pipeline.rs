//! Fig 6 end-to-end at test scale: one scenario-matrix run drives the
//! whole profile → simulate → compare pipeline.
//!
//! The full 900-library figure runs in the bench harness; here a reduced
//! instance checks every stage of the engine and the qualitative claims.

use depchaos::prelude::*;
use depchaos_launch::{CachePolicy, ExperimentMatrix, MatrixBackend, ProfileCache, WrapState};
use depchaos_vfs::StorageModel;
use depchaos_workloads::{pynamic, Pynamic};

const N_LIBS: usize = 120;

/// The paper's cell of the design space, fixed overheads stripped to
/// expose the loader-bound behaviour.
fn report() -> depchaos_launch::SweepReport {
    ExperimentMatrix::new()
        .workload(Pynamic::new(N_LIBS))
        .backend(MatrixBackend::glibc())
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .cache_policies([CachePolicy::Cold])
        .rank_points([512usize, 1024, 2048])
        .base_config(LaunchConfig {
            base_overhead_ns: 0,
            per_rank_overhead_ns: 0,
            ..LaunchConfig::default()
        })
        .run(&ProfileCache::new())
}

fn pick(report: &depchaos_launch::SweepReport, wrap: WrapState) -> depchaos_launch::ScenarioResult {
    report.one(wrap, CachePolicy::Cold).expect("scenario in matrix").clone()
}

#[test]
fn wrapped_op_stream_is_linear_not_quadratic() {
    let report = report();
    let normal = pick(&report, WrapState::Plain);
    let wrapped = pick(&report, WrapState::Wrapped);
    let quadratic = N_LIBS * (N_LIBS + 1) / 2;
    assert!(normal.stat_openat >= quadratic, "unwrapped search is quadratic");
    assert!(
        wrapped.stat_openat <= N_LIBS + 2,
        "wrapped is one open per dependency: {}",
        wrapped.stat_openat
    );
}

#[test]
fn speedup_grows_with_scale_and_wrapped_wins_everywhere() {
    let report = report();
    let normal = pick(&report, WrapState::Plain);
    let wrapped = pick(&report, WrapState::Wrapped);
    let mut last_speedup = 0.0;
    for &p in &report.rank_points {
        let tn = normal.seconds_at(p).unwrap();
        let tw = wrapped.seconds_at(p).unwrap();
        let speedup = tn / tw;
        assert!(speedup > 1.5, "wrapped must win at {p} ranks: {speedup:.2}");
        assert!(speedup >= last_speedup * 0.95, "gap widens (roughly) with scale");
        last_speedup = speedup;
    }
}

#[test]
fn server_op_accounting_consistent() {
    let report = report();
    let normal = pick(&report, WrapState::Plain);
    let wrapped = pick(&report, WrapState::Wrapped);
    let rn = *normal.result_at(512).unwrap(); // 4 nodes
    let rw = *wrapped.result_at(512).unwrap();
    assert_eq!(rn.nodes, 4);
    // Every cold op in the profile is paid once per node.
    assert!(rn.server_ops >= 4 * (N_LIBS * (N_LIBS + 1) / 2) as u64);
    assert!(rw.server_ops < rn.server_ops / 10);
    // Contention shows up as queue depth at scale.
    assert!(rn.peak_queue_depth >= 2);
}

#[test]
fn negative_caching_ablation() {
    // Negative caching pays off on *repeated* launches: the second load's
    // failed probes are client-cached when it is enabled. LLNL disables it,
    // so every launch repays the full miss storm — which is why the paper
    // measures with it off. This is the storage-model axis of the matrix;
    // asserted here at the loader level where the second (undropped) load
    // is observable.
    let env = Environment::bare();
    let second_load_ns = |storage: StorageModel| {
        let fs = Vfs::new(storage.backend());
        let w = pynamic::install(&fs, "/apps/p", N_LIBS).unwrap();
        let glibc = GlibcLoader::new(&fs).with_env(env.clone());
        profile_load_checked(&fs, &w.exe_path, &glibc).unwrap(); // cold first load
                                                                 // Second load without dropping caches.
        let t0 = fs.elapsed_ns();
        glibc.load(&w.exe_path).unwrap();
        fs.elapsed_ns() - t0
    };
    let off = second_load_ns(StorageModel::Nfs);
    let on = second_load_ns(StorageModel::NfsNegativeCaching);
    assert!(off > on * 5, "with negative caching off, relaunch repays the misses: {off} vs {on}");
}

#[test]
fn matrix_profiles_each_cell_exactly_once() {
    let cache = ProfileCache::new();
    let report = ExperimentMatrix::new()
        .workload(Pynamic::new(40))
        .backend(MatrixBackend::glibc())
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .cache_policies(CachePolicy::all())
        .rank_points([512usize])
        .run(&cache);
    assert_eq!(report.results.len(), 4, "2 wrap states × 2 cache policies");
    assert_eq!(report.cells_profiled, 1, "all four share one profile cell");
    // A second matrix over the same cell reuses the shared cache entirely.
    let again = ExperimentMatrix::new()
        .workload(Pynamic::new(40))
        .backend(MatrixBackend::glibc())
        .storage(StorageModel::Nfs)
        .rank_points([1024usize])
        .run(&cache);
    assert_eq!(again.cells_profiled, 0);
}
