//! The incremental executor: the launch pipeline
//! ([`ExperimentMatrix::run_with`]) with the [`ResultStore`] as its per-cell
//! memo. Every cell the store holds is served, only the misses are
//! profiled and simulated, and the [`SweepReport`] comes back
//! bit-identical to a cold full run.
//!
//! Identity of warm and cold answers is not a best effort — it falls out
//! of the engine's structure:
//!
//! * every `(scenario, rank point)` is simulated independently (per-point
//!   config, per-point replicate seeds derived from the scenario label),
//!   so a *subset* of rank points is bit-identical to the matching slice
//!   of a full run;
//! * the store's [`ScenarioKey`] hashes every
//!   semantic input of a cell, so a hit can only be a result the cold
//!   path would have recomputed verbatim;
//! * floats round-trip the disk by bit pattern, so a record read back
//!   compares `==` to the record that was written.
//!
//! Profiling fans out over a pool of worker threads pulling unique cold
//! cells off a shared counter, each run isolated behind `catch_unwind`;
//! every cold `(scenario, rank point)` — the miss unit, so a skewed what-if
//! batch costs exactly its missing points — joins one batched simulation
//! pass. See [`ExperimentMatrix::run_with`] for the phases.

use depchaos_launch::{
    CellAnswer, CellMemo, ExperimentMatrix, ProfileCache, ScenarioSpec, SweepReport,
};

use crate::codec::CellRecord;
use crate::key::{CellIdentity, ScenarioKey, ENGINE_EPOCH};
use crate::store::ResultStore;

pub use depchaos_launch::ExecStats;

/// A sensible worker count when the caller has no opinion.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `matrix` against `store`: serve warm cells, profile cold cells on
/// `jobs` workers, simulate every miss in one batched pass, persist every
/// fresh record, and aggregate the report in matrix order. The report's
/// `results` are bit-identical to `matrix.run(profiles)` regardless of
/// how the warm/cold line falls (`cells_profiled` necessarily differs —
/// a warm run profiles nothing).
pub fn run_matrix_incremental(
    matrix: &ExperimentMatrix,
    store: &ResultStore,
    profiles: &ProfileCache,
    jobs: usize,
) -> std::io::Result<(SweepReport, ExecStats)> {
    matrix.run_with(profiles, jobs, Some(store))
}

/// The store cell of `spec` at `ranks` under `matrix`'s replicate plan.
fn cell_key(matrix: &ExperimentMatrix, spec: &ScenarioSpec, ranks: usize) -> ScenarioKey {
    CellIdentity {
        spec,
        ranks,
        replicates: matrix.replicate_count(),
        adaptive: matrix.adaptive_control(),
        base: matrix.base(),
    }
    .key()
}

impl CellMemo for ResultStore {
    fn recall(
        &self,
        matrix: &ExperimentMatrix,
        spec: &ScenarioSpec,
        ranks: usize,
    ) -> Option<CellAnswer> {
        let rec = self.get(cell_key(matrix, spec, ranks))?;
        Some(CellAnswer { profile: rec.profile, error: rec.error, outcome: rec.outcome })
    }

    fn record(
        &self,
        matrix: &ExperimentMatrix,
        spec: &ScenarioSpec,
        ranks: usize,
        cell: &CellAnswer,
    ) -> std::io::Result<()> {
        self.put(CellRecord {
            key: cell_key(matrix, spec, ranks),
            epoch: ENGINE_EPOCH,
            label: spec.label(),
            ranks,
            profile: cell.profile,
            error: cell.error.clone(),
            outcome: cell.outcome.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_launch::{
        CachePolicy, FaultModel, LaunchConfig, MatrixBackend, ServiceDistribution, WrapState,
    };
    use depchaos_vfs::StorageModel;
    use depchaos_workloads::Pynamic;

    /// One fault model of each kind: healthy, the draw-free stall, and the
    /// two draw-taking models.
    const FAULTS: [FaultModel; 4] = [
        FaultModel::None,
        FaultModel::ServerStall { at_ns: 1_000_000, duration_ns: 50_000_000 },
        FaultModel::RpcLoss {
            loss_milli: 100,
            timeout_ns: 1_000_000,
            backoff_base_ns: 250_000,
            max_retries: 5,
        },
        FaultModel::Stragglers { frac_milli: 250, slow_milli: 4000 },
    ];

    /// Scenarios in [`matrix`]: wrap × cache × distribution × fault.
    const SCENARIOS: usize = 2 * 2 * 2 * FAULTS.len();

    fn matrix() -> ExperimentMatrix {
        ExperimentMatrix::new()
            .workload(Pynamic::new(20))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states(WrapState::all())
            .cache_policies(CachePolicy::all())
            .distributions([
                ServiceDistribution::Deterministic,
                ServiceDistribution::log_normal(0.5),
            ])
            .faults(FAULTS)
            .replicates(3)
            .rank_points([256usize, 512])
    }

    /// Whether a cell of `spec` takes any RNG draw.
    fn takes_draws(spec: &ScenarioSpec) -> bool {
        LaunchConfig::default().with_service_dist(spec.dist).with_fault(spec.fault).takes_draws()
    }

    #[test]
    fn cold_run_matches_direct_run_and_warm_replay_simulates_nothing() {
        let direct = matrix().run(&ProfileCache::new());

        let store = ResultStore::in_memory();
        let (cold, cs) =
            run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 2).unwrap();
        assert_eq!(cold.results, direct.results);
        assert_eq!(cold.rank_points, direct.rank_points);
        assert_eq!(cs.cold_cells, cs.cells_total);
        assert_eq!(cs.warm_hits, 0);
        assert_eq!(cs.cells_total, SCENARIOS * 2);
        assert_eq!(store.len(), cs.cells_total);

        // In every (distribution × fault) cell the engine ran exactly the
        // replicates the cache key accounts for — both sides of the clamp.
        let m = matrix();
        let mut seen = std::collections::BTreeSet::new();
        for r in &cold.results {
            for &(ranks, st) in &r.stats {
                let id = CellIdentity {
                    spec: &r.spec,
                    ranks,
                    replicates: m.replicate_count(),
                    adaptive: None,
                    base: m.base(),
                };
                assert_eq!(
                    st.replicates,
                    id.effective_replicates(),
                    "{} at {ranks}",
                    r.spec.label()
                );
                seen.insert(st.replicates);
            }
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), [1, 3]);

        // Warm replay: fresh profile cache proves nothing re-profiles or
        // re-simulates — every answer comes off the store.
        let warm_profiles = ProfileCache::new();
        let (warm, ws) = run_matrix_incremental(&matrix(), &store, &warm_profiles, 2).unwrap();
        assert_eq!(warm.results, direct.results);
        assert_eq!(ws.cold_cells, 0);
        assert_eq!(ws.warm_hits, ws.cells_total);
        assert_eq!(ws.cells_profiled, 0);
        assert_eq!(warm_profiles.computed(), 0);
        assert!((ws.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_warmth_runs_exactly_the_missing_cells() {
        let store = ResultStore::in_memory();
        run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();

        // Grow the matrix by one rank point: only the new column is cold.
        let grown = matrix().rank_points([1024usize]);
        let (report, stats) =
            run_matrix_incremental(&grown, &store, &ProfileCache::new(), 4).unwrap();
        assert_eq!(stats.cells_total, SCENARIOS * 3);
        assert_eq!(stats.warm_hits, SCENARIOS * 2);
        assert_eq!(stats.cold_cells, SCENARIOS, "every scenario misses exactly its new point");

        // And the merged report equals a cold run of the grown matrix.
        let direct = grown.run(&ProfileCache::new());
        assert_eq!(report.results, direct.results);
    }

    #[test]
    fn editing_one_axis_invalidates_exactly_the_affected_cells() {
        let store = ResultStore::in_memory();
        let (_, cold) = run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();
        assert_eq!(cold.cold_cells, SCENARIOS * 2);

        // A new distribution value re-keys only the cells that carry it:
        // the deterministic half of the matrix stays warm.
        let edited = ExperimentMatrix::new()
            .workload(Pynamic::new(20))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states(WrapState::all())
            .cache_policies(CachePolicy::all())
            .distributions([
                ServiceDistribution::Deterministic,
                ServiceDistribution::log_normal(0.75),
            ])
            .faults(FAULTS)
            .replicates(3)
            .rank_points([256usize, 512]);
        let (_, stats) = run_matrix_incremental(&edited, &store, &ProfileCache::new(), 1).unwrap();
        assert_eq!(stats.warm_hits, SCENARIOS, "deterministic cells untouched");
        assert_eq!(stats.cold_cells, SCENARIOS, "exactly the lognormal cells re-ran");
    }

    #[test]
    fn adaptive_matrix_serves_warm_and_matches_the_direct_run() {
        use depchaos_launch::AdaptiveControl;
        let ctl = AdaptiveControl { target_rel_milli: 500, min_k: 2, max_k: 11, batch: 2 };
        let m = || matrix().replicates(11).adaptive(ctl);

        // Cold incremental == direct adaptive run, bit for bit — same
        // stopping Ks, same samples — even though the incremental path
        // batches only its misses.
        let direct = m().run(&ProfileCache::new());
        assert_eq!(direct.adaptive, Some(ctl));
        let store = ResultStore::in_memory();
        let (cold, cs) = run_matrix_incremental(&m(), &store, &ProfileCache::new(), 2).unwrap();
        assert_eq!(cold.results, direct.results);
        assert_eq!(cold.adaptive, Some(ctl));
        assert_eq!(cs.cold_cells, cs.cells_total);

        // Warm replay: the stored stopped-at K replays bit-identically
        // with zero simulation.
        let warm_profiles = ProfileCache::new();
        let (warm, ws) = run_matrix_incremental(&m(), &store, &warm_profiles, 2).unwrap();
        assert_eq!(warm.results, direct.results);
        assert_eq!(ws.cold_cells, 0);
        assert_eq!(warm_profiles.computed(), 0);

        // Stochastic cells actually stopped early somewhere (the loose
        // 50% target converges fast), and the stored stats record the K.
        let stochastic: Vec<_> = warm.find(|s| !s.dist.is_deterministic());
        assert!(!stochastic.is_empty());
        assert!(
            stochastic.iter().flat_map(|r| &r.stats).any(|(_, st)| st.replicates < 11),
            "no cell stopped early under a 50% target"
        );
        for r in warm.find(|s| !takes_draws(s)) {
            for (_, st) in &r.stats {
                assert_eq!(st.replicates, 1, "exact cells keep the clamp under adaptive control");
            }
        }
    }

    #[test]
    fn adaptive_and_fixed_plans_occupy_disjoint_store_cells() {
        use depchaos_launch::AdaptiveControl;
        let ctl = AdaptiveControl { target_rel_milli: 500, min_k: 2, max_k: 3, batch: 2 };
        let store = ResultStore::in_memory();
        run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();
        let fixed_cells = store.len();

        // The adaptive run re-keys exactly the draw-taking cells: the exact
        // ones (deterministic service, draw-free fault — adaptive
        // degenerates to the clamp) stay warm, everything else is a
        // distinct plan and a distinct cell.
        let (report, stats) =
            run_matrix_incremental(&matrix().adaptive(ctl), &store, &ProfileCache::new(), 1)
                .unwrap();
        let exact = report.find(|s| !takes_draws(s)).len() * 2;
        assert_eq!(exact, 2 * 2 * 2 * 2, "(none, stall) × wrap × cache × rank points");
        assert_eq!(stats.warm_hits, exact, "exact cells shared between plans");
        assert_eq!(stats.cold_cells, SCENARIOS * 2 - exact, "draw-taking cells re-keyed");
        assert_eq!(store.len(), fixed_cells + stats.cold_cells);
    }

    #[test]
    fn a_panicking_cell_is_isolated_reported_and_not_persisted() {
        use depchaos_workloads::Poison;
        // One poisoned workload next to a healthy one; both wrap states.
        let m = || {
            ExperimentMatrix::new()
                .workload(Poison)
                .workload(Pynamic::new(10))
                .rank_points([256usize])
        };
        let store = ResultStore::in_memory();
        let (report, stats) =
            run_matrix_incremental(&m(), &store, &ProfileCache::new(), 4).unwrap();

        // The poisoned cells are failures, counted and carried as errors…
        assert_eq!(stats.panics, 2, "poison × (plain, wrapped) × 1 rank point");
        let poisoned = report.find(|s| s.workload == "poison");
        assert_eq!(poisoned.len(), 2);
        for r in &poisoned {
            let e = r.error.as_deref().unwrap();
            assert!(e.contains("panic in profiling"), "{e}");
            assert!(e.contains("deliberate install panic"), "{e}");
        }
        // …while the rest of the batch completed normally and persisted.
        for r in report.find(|s| s.workload == "pynamic-10") {
            assert!(r.error.is_none());
            assert_eq!(r.series.len(), 1);
        }
        assert_eq!(store.len(), 2, "only the healthy cells are stored");

        // A replay still treats the poisoned cells as cold (crashes are
        // not results) and serves the healthy cells warm.
        let (_, again) = run_matrix_incremental(&m(), &store, &ProfileCache::new(), 1).unwrap();
        assert_eq!(again.warm_hits, 2);
        assert_eq!(again.panics, 2);

        // The memo-free run takes the same pipeline, so it isolates the
        // panic too: the poisoned cells answer as errors, not a crash.
        let direct = m().run(&ProfileCache::new());
        assert_eq!(direct.results, report.results);
        assert_eq!(direct.find(|s| s.workload == "poison").len(), 2);
    }

    #[test]
    fn error_cells_are_stored_and_served_warm() {
        use depchaos_core::LoaderBackend;
        // The future loader cannot resolve or wrap the stock pynamic world;
        // the cells are errors, and errors are results too.
        let m = ExperimentMatrix::new()
            .workload(Pynamic::new(10))
            .backend(MatrixBackend::Stock(LoaderBackend::future()))
            .rank_points([256usize]);
        let store = ResultStore::in_memory();
        let (cold, _) = run_matrix_incremental(&m, &store, &ProfileCache::new(), 1).unwrap();
        let warm_profiles = ProfileCache::new();
        let (warm, ws) = run_matrix_incremental(&m, &store, &warm_profiles, 1).unwrap();
        assert_eq!(warm.results, cold.results);
        assert_eq!(ws.cold_cells, 0);
        assert_eq!(warm_profiles.computed(), 0, "error cells answer without re-profiling");
        let wrapped = warm.find(|s| s.wrap == WrapState::Wrapped).pop().unwrap();
        assert!(wrapped.error.is_some());
    }
}
