//! The serve layer's headline guarantee, end to end through the facade:
//! a warm replay performs **zero** DES simulations yet yields a
//! `SweepReport` equal to a cold full run — through the on-disk store,
//! across processes-worth of reload, and under store damage.
//!
//! (`cells_profiled` is execution accounting, not result data — a warm
//! run profiles nothing by design — so equality here is over `results`
//! and `rank_points`, the simulated payload.)

use std::path::PathBuf;

use depchaos::launch::{
    CachePolicy, ExperimentMatrix, FaultModel, MatrixBackend, ProfileCache, ServiceDistribution,
    WrapState,
};
use depchaos::prelude::*;
use depchaos::serve::{run_matrix_incremental, serve_batch, ENGINE_EPOCH};
use depchaos::workloads::Pynamic;

fn matrix() -> ExperimentMatrix {
    ExperimentMatrix::new()
        .workload(Pynamic::new(25))
        .backend(MatrixBackend::glibc())
        .storage(StorageModel::Nfs)
        .wrap_states([WrapState::Plain, WrapState::Wrapped])
        .cache_policies([CachePolicy::Cold, CachePolicy::Broadcast])
        .distributions([ServiceDistribution::Deterministic, ServiceDistribution::log_normal(0.5)])
        .replicates(3)
        .rank_points([256usize, 512])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("depchaos-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_replay_from_disk_is_bit_identical_and_simulation_free() {
    let cold_direct = matrix().run(&ProfileCache::new());

    let dir = temp_dir("warmcold");
    // Cold pass: populate the store on disk.
    {
        let store = ResultStore::open(&dir).unwrap();
        let (report, stats) =
            run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 2).unwrap();
        assert_eq!(report.results, cold_direct.results);
        assert_eq!(stats.cold_cells, stats.cells_total);
        assert_eq!(stats.jobs, 2, "one profiling cell, but its kernels ran on both workers");
    }
    // Warm pass: a fresh store handle (fresh process, as far as the store
    // can tell) and a fresh profile cache. Zero profiling runs = zero
    // simulations — the pipeline cannot simulate a cell without profiling
    // it first, so the counter staying at zero proves the DES never ran.
    {
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.load_stats().corrupt_skipped, 0);
        let profiles = ProfileCache::new();
        let (report, stats) = run_matrix_incremental(&matrix(), &store, &profiles, 2).unwrap();
        assert_eq!(report.results, cold_direct.results, "warm == cold, through the disk");
        assert_eq!(report.rank_points, cold_direct.rank_points);
        assert_eq!(stats.cold_cells, 0);
        assert_eq!(stats.warm_hits, stats.cells_total);
        assert_eq!(stats.jobs, 1, "a warm run profiles and solves nothing");
        assert_eq!(profiles.computed(), 0, "no profiling ⇒ no simulation");
        assert_eq!(profiles.classified_computed(), 0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn damaged_stores_degrade_to_partial_warmth_never_wrong_answers() {
    let dir = temp_dir("damage");
    let cold = {
        let store = ResultStore::open(&dir).unwrap();
        run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap().0
    };

    // Tear the final record mid-line, as a crash during append would.
    let log = dir.join("store.jsonl");
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() - 25]).unwrap();

    let store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.load_stats().corrupt_skipped, 1, "exactly the torn line dropped");
    let (report, stats) =
        run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();
    assert_eq!(stats.cold_cells, 1, "only the damaged cell re-simulates");
    assert_eq!(report.results, cold.results, "answers identical regardless");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_appends_resolve_last_write_wins_across_reload() {
    let dir = temp_dir("dup");
    {
        let store = ResultStore::open(&dir).unwrap();
        run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();
        // Re-running the same matrix is all-warm: no re-append, no dups.
        run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();
    }
    {
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.load_stats().duplicates, 0);
        // Force duplicates: append every live record a second time.
        let line = std::fs::read_to_string(dir.join("store.jsonl")).unwrap();
        let first = depchaos::serve::CellRecord::decode(line.lines().next().unwrap()).unwrap();
        store.put(first.clone()).unwrap();
        store.put(first).unwrap();
    }
    let store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.load_stats().duplicates, 2, "last write wins, counted");
    let (_, stats) = run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();
    assert_eq!(stats.cold_cells, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn epoch_mismatch_evicts_wholesale_on_load() {
    let dir = temp_dir("epoch");
    {
        let store = ResultStore::open(&dir).unwrap();
        run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();
    }
    // Rewrite the log as if a previous engine epoch had produced it.
    let log = dir.join("store.jsonl");
    let old = std::fs::read_to_string(&log).unwrap();
    let stale = old.replace(
        &format!("\"epoch\":{ENGINE_EPOCH},"),
        &format!("\"epoch\":{},", ENGINE_EPOCH.wrapping_sub(1)),
    );
    assert_ne!(old, stale);
    std::fs::write(&log, stale).unwrap();

    let store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.len(), 0, "stale-epoch records never serve");
    assert_eq!(store.load_stats().epoch_evicted, 16);
    let (_, stats) = run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();
    assert_eq!(stats.cold_cells, 16, "everything re-simulates under the new epoch");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Panic isolation end to end through the batch front door and the disk
/// store: one deliberately-panicking cell (the `poison` workload) in the
/// middle of a batch must not take the process, its own query's other
/// cells' accounting, or its neighbours down. The poisoned cell answers
/// with an error line, is never persisted (so a later fixed engine gets
/// to retry it), and the batch reports errors — the CLI's exit-1.
#[test]
fn a_panicking_cell_is_isolated_and_the_rest_of_the_batch_answers() {
    let batch = concat!(
        r#"{"id":"before","base":"pynamic-25","ranks":[256]}"#,
        "\n",
        r#"{"id":"boom","base":"poison","ranks":[256]}"#,
        "\n",
        r#"{"id":"after","base":"pynamic-25","ranks":[256],"fault":"stall-0-5000000000"}"#,
        "\n",
    );
    let dir = temp_dir("poison");
    {
        let store = ResultStore::open(&dir).unwrap();
        let report = serve_batch(batch, &store, &ProfileCache::new(), 2).unwrap();
        assert!(report.had_errors(), "the panic marks the batch");
        assert_eq!(report.queries.len(), 3, "every query answered");
        assert!(report.queries[0].answers[0].contains("launch_ns"));
        assert!(report.queries[1].answers[0].contains("panic in profiling"));
        assert_eq!(report.queries[1].stats.panics, 1);
        assert!(
            report.queries[2].answers[0].contains("launch_ns"),
            "queries after the poisoned one still simulate: {:?}",
            report.queries[2].answers
        );
        assert_eq!(store.len(), 2, "healthy cells persisted; the poisoned one never");
    }
    // Across reload the poisoned cell is still a miss — it re-attempts
    // (and re-panics today; a fixed engine would heal it) while the
    // healthy cells replay warm.
    let store = ResultStore::open(&dir).unwrap();
    let report = serve_batch(batch, &store, &ProfileCache::new(), 2).unwrap();
    assert!(report.had_errors());
    assert_eq!(report.queries[0].stats.warm_hits, 1);
    assert_eq!(report.queries[1].stats.panics, 1);
    assert_eq!(report.queries[2].stats.warm_hits, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The fault axis rides the same warm/cold machinery: faulted cells key,
/// persist, and replay warm like any other cell, and a faulted replay is
/// byte-identical to its cold run.
#[test]
fn faulted_cells_persist_and_replay_warm() {
    let m = || {
        matrix().faults([
            FaultModel::None,
            FaultModel::RpcLoss {
                loss_milli: 100,
                timeout_ns: 1_000_000_000,
                backoff_base_ns: 250_000_000,
                max_retries: 5,
            },
        ])
    };
    let dir = temp_dir("faulted");
    let cold = {
        let store = ResultStore::open(&dir).unwrap();
        let (report, stats) =
            run_matrix_incremental(&m(), &store, &ProfileCache::new(), 2).unwrap();
        assert_eq!(stats.cold_cells, stats.cells_total);
        report
    };
    let store = ResultStore::open(&dir).unwrap();
    let (warm, stats) = run_matrix_incremental(&m(), &store, &ProfileCache::new(), 2).unwrap();
    assert_eq!(stats.cold_cells, 0, "every faulted cell replays warm");
    assert_eq!(warm.results, cold.results, "bit-identical through the disk");
    std::fs::remove_dir_all(&dir).unwrap();
}
