//! Hot-path benchmarks: the allocation-free profile→simulate pipeline.
//!
//! Three surfaces the PR 3 optimisations target, timed directly:
//!
//! * `des_million_ranks` — [`simulate_classified`] at 1Mi–4Mi ranks, the
//!   scale the coalesced DES unlocked (warm-node coalescing + one heap
//!   event per server op).
//! * `vfs_resolve_deep` — slab-tree path resolution: deep component chains
//!   and symlink hops, with lazy error-path construction keeping the
//!   success path allocation-free.
//! * classification itself, since sweeps amortise it across rank points.
//! * `serve/*` — the result-store hot paths: a fully warm one-cell query
//!   (key derivation + store probe + aggregation, the latency every
//!   repeat what-if pays) and a cold cell through the incremental
//!   executor (sweep + record encode + store append, profiling amortised
//!   into a shared cache as the serve layer does).
//! * `batch/*` — the columnar batch planner: the full fig6-backends ×
//!   dist × replicate matrix simulated as one `BatchPlan` pass
//!   (profiling and classification pre-warmed, exactly what a repeat
//!   sweep pays), and raw per-row planner throughput over a
//!   thousand-row single-schedule plan.
//! * `faults/*` — the faulty heap engine on the contended 16Ki shape: a
//!   server brownout (stall-window bookkeeping per event) and a 10% RPC
//!   loss retry storm (a FAULT draw per served op plus the retried server
//!   work) — healthy rows never enter this engine, so these rows are its
//!   only perf gate.
//! * `servers/*` — the multi-server topology axis on the same contended
//!   shape: `flatten_sweep` runs the fig6-servers fleet ladder
//!   (S ∈ {1, 2, 4, 8, 16}, hash-routed) at 16Ki ranks back to back, and
//!   `s8_contended` isolates one S = 8 fleet pass. Its uniform cold stream
//!   is round-major, so both take the closed form per lane, next to the
//!   single-lane `contended_16Ki_cold500` baseline. `s4_jitter_2Ki` is the
//!   lane heap's per-event cost: 128 jittered cold nodes on 4 hash lanes,
//!   64,000 heap events in four 32-node heaps.
//! * `adaptive/*` — adaptive replicate control on the fig6-dist acceptance
//!   matrix: `full_matrix` times the multi-round stopping-rule driver
//!   end-to-end (profiling pre-warmed), and `savings_ratio` records the
//!   fixed-K-sims over adaptive-sims ratio as an integer milli-x — a
//!   deterministic constant per engine, so its bench-diff delta is zero
//!   unless the stopping rule's meaning changes.
//!
//! Besides the criterion `ns/iter` lines, this bench persists a
//! `BENCH_des.json` summary at the repo root — the first entry in the
//! measured perf trajectory. CI runs it in `--test` quick mode (fewer
//! samples, same coverage) and uploads the file as an artifact.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use depchaos_bench::banner;
use depchaos_launch::{
    simulate_classified, AdaptiveControl, BatchPlan, CachePolicy, ClassifiedStream,
    ExperimentMatrix, FaultModel, LaunchConfig, LaunchResult, MatrixBackend, ProfileCache,
    ServerTopology, ServiceDistribution, WrapState,
};
use depchaos_serve::{run_matrix_incremental, ResultStore};
use depchaos_vfs::{Op, Outcome, StorageModel, StraceLog, Syscall, Vfs};
use depchaos_workloads::{Axom, Pynamic, Rocm};

fn cold_stream(n: usize) -> StraceLog {
    let mut log = StraceLog::new();
    for i in 0..n {
        log.push(Syscall::new(Op::Openat, &format!("/lib/l{i}.so"), Outcome::Enoent, 200_000));
    }
    log
}

fn warm_stream(n: usize) -> StraceLog {
    let mut log = StraceLog::new();
    for i in 0..n {
        log.push(Syscall::new(Op::Stat, &format!("/wrapped/l{i}.so"), Outcome::Ok, 1_000));
    }
    log
}

/// One DES scenario in the persisted summary.
struct DesPoint {
    name: &'static str,
    cfg: LaunchConfig,
    ops: StraceLog,
}

fn des_points() -> Vec<DesPoint> {
    let mi = 1024 * 1024;
    vec![
        DesPoint {
            name: "broadcast_4Mi_cold500",
            cfg: LaunchConfig {
                ranks: 4 * mi,
                ranks_per_node: 16,
                broadcast_cache: true,
                ..LaunchConfig::default()
            },
            ops: cold_stream(500),
        },
        DesPoint {
            name: "warm_4Mi_local500",
            cfg: LaunchConfig { ranks: 4 * mi, ranks_per_node: 16, ..LaunchConfig::default() },
            ops: warm_stream(500),
        },
        DesPoint {
            name: "broadcast_1Mi_cold500",
            cfg: LaunchConfig {
                ranks: mi,
                ranks_per_node: 16,
                broadcast_cache: true,
                ..LaunchConfig::default()
            },
            ops: cold_stream(500),
        },
        DesPoint {
            name: "contended_16Ki_cold500",
            cfg: LaunchConfig { ranks: 16 * 1024, ranks_per_node: 16, ..LaunchConfig::default() },
            ops: cold_stream(500),
        },
        DesPoint {
            // The analytic all-cold path: 262,144 cold nodes, no broadcast
            // — the closed form does 500 envelope steps where the heap
            // would schedule 131M events.
            name: "allcold_4Mi_cold500",
            cfg: LaunchConfig { ranks: 4 * mi, ranks_per_node: 16, ..LaunchConfig::default() },
            ops: cold_stream(500),
        },
    ]
}

/// Batches per point: the summary records the *fastest batch's* mean
/// ns/iter. A plain mean over one long run absorbs every scheduler
/// hiccup of a shared CI box into the number the regression gate compares;
/// the min-of-batches estimator converges on the undisturbed cost, which
/// is the thing a code change actually moves.
const BATCHES: u32 = 10;

/// Best-batch mean ns over `iters` total runs, plus one result for the
/// summary row.
fn time_des(point: &DesPoint, iters: u32) -> (u128, LaunchResult) {
    let classified = ClassifiedStream::classify(&point.ops, &point.cfg);
    let result = simulate_classified(&classified, &point.cfg);
    let mean_ns = time_fn(
        || {
            std::hint::black_box(simulate_classified(&classified, &point.cfg));
        },
        iters,
    );
    (mean_ns, result)
}

/// Iterations per point in full mode; anything less is a quick run.
const FULL_ITERS: u32 = 200;

/// Best-batch mean ns of an arbitrary closure over `iters` total runs —
/// the same min-of-batches estimator [`time_des`] uses, for the
/// `vfs_resolve_deep/*` and `classify/*` summary rows the CI gate now
/// watches alongside the DES cases.
fn time_fn(mut f: impl FnMut(), iters: u32) -> u128 {
    let batch_iters = (iters / BATCHES).max(1);
    let mut best_ns = u128::MAX;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..batch_iters {
            f();
        }
        best_ns = best_ns.min(t0.elapsed().as_nanos() / batch_iters as u128);
    }
    best_ns
}

/// One persisted summary row: the DES cases carry their simulation
/// outcome, the plain cases just the timing.
enum SummaryRow<'a> {
    Des { point: &'a DesPoint, mean_ns: u128, result: LaunchResult, iters: u32 },
    Plain { name: String, mean_ns: u128, iters: u32 },
}

/// Persist the summary the CI step uploads; returns the JSON it wrote.
/// The recorded mode is derived from the iteration count the rows actually
/// ran with — not from re-sniffing argv — so the file cannot claim "full"
/// for a `--test` quick run (`bench-diff` refuses to compare summaries
/// whose modes differ, which makes an honest label load-bearing).
fn write_summary(rows: &[SummaryRow<'_>], iters: u32) -> String {
    let mut json = String::from("{\n  \"bench\": \"des_hot_path\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"results\": [\n",
        if iters >= FULL_ITERS { "full" } else { "quick" }
    ));
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        match row {
            SummaryRow::Des { point: p, mean_ns, result: r, iters } => {
                json.push_str(&format!(
                    "    {{\"name\": \"des_million_ranks/{}\", \"ranks\": {}, \"nodes\": {}, \
                     \"server_ops\": {}, \"simulated_launch_s\": {:.3}, \
                     \"mean_ns_per_iter\": {}, \"iters\": {}}}{comma}\n",
                    p.name,
                    p.cfg.ranks,
                    r.nodes,
                    r.server_ops,
                    r.seconds(),
                    mean_ns,
                    iters,
                ));
            }
            SummaryRow::Plain { name, mean_ns, iters } => {
                json.push_str(&format!(
                    "    {{\"name\": \"{name}\", \"mean_ns_per_iter\": {mean_ns}, \
                     \"iters\": {iters}}}{comma}\n",
                ));
            }
        }
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_des.json");
    std::fs::write(path, &json).expect("write BENCH_des.json");
    json
}

/// A 64-deep directory chain with a file at the bottom, reachable both
/// directly and through an 8-hop symlink ladder.
fn deep_world() -> (Vfs, String, String) {
    let fs = Vfs::local();
    let deep_dir: String = (0..64).map(|i| format!("/d{i}")).collect();
    fs.mkdir_p(&deep_dir).unwrap();
    let deep_file = format!("{deep_dir}/leaf.so");
    fs.write_file(&deep_file, vec![7; 64]).unwrap();
    fs.mkdir_p("/links").unwrap();
    fs.symlink("/links/hop0", &deep_file).unwrap();
    for i in 1..8 {
        fs.symlink(&format!("/links/hop{i}"), &format!("hop{}", i - 1)).unwrap();
    }
    (fs, deep_file, "/links/hop7".to_string())
}

fn bench(c: &mut Criterion) {
    banner("Hot path: coalesced DES at millions of ranks + slab VFS resolution");
    let quick = std::env::args().any(|a| a == "--test");
    let iters: u32 = if quick { 10 } else { FULL_ITERS };

    // The persisted DES summary (also printed for the bench log).
    let points = des_points();
    let mut rows = Vec::new();
    for p in &points {
        let (mean_ns, r) = time_des(p, iters);
        println!(
            "des_million_ranks/{:<24} ranks {:>8}  nodes {:>7}  sim {:>8.1}s  {:>10} ns/iter",
            p.name,
            p.cfg.ranks,
            r.nodes,
            r.seconds(),
            mean_ns
        );
        rows.push(SummaryRow::Des { point: p, mean_ns, result: r, iters });
    }

    // The vfs/classify rows the widened bench-diff gate watches: same
    // estimator, more inner iterations — these are nanosecond-scale ops,
    // so a batch must be long enough to swamp the timer read.
    let (fs, deep_file, link) = deep_world();
    let ops = cold_stream(500);
    let cfg = LaunchConfig::default();
    let fast_iters = iters.saturating_mul(500);
    let mut plain = |name: &str, mean_ns: u128, row_iters: u32| {
        println!("{name:<42} {mean_ns:>10} ns/iter");
        rows.push(SummaryRow::Plain { name: name.to_string(), mean_ns, iters: row_iters });
    };
    plain(
        "vfs_resolve_deep/stat_64_components",
        time_fn(
            || {
                std::hint::black_box(fs.stat(&deep_file).unwrap());
            },
            fast_iters,
        ),
        fast_iters,
    );
    plain(
        "vfs_resolve_deep/stat_8_symlink_hops",
        time_fn(
            || {
                std::hint::black_box(fs.stat(&link).unwrap());
            },
            fast_iters,
        ),
        fast_iters,
    );
    plain(
        "vfs_resolve_deep/canonicalize_symlink_ladder",
        time_fn(
            || {
                std::hint::black_box(fs.canonicalize(&link).unwrap());
            },
            fast_iters,
        ),
        fast_iters,
    );
    plain(
        "classify/cold500",
        time_fn(
            || {
                std::hint::black_box(ClassifiedStream::classify(&ops, &cfg));
            },
            iters,
        ),
        iters,
    );

    // The fault-injection rows: the contended 16Ki shape (1024 cold nodes
    // queueing on one server) under the two expensive degraded modes. A
    // brownout adds stall bookkeeping to every event; a 10% RPC loss adds
    // the FAULT-domain draw per served op plus ~11% retried server work —
    // both ride the faulty heap engine, which healthy rows never enter,
    // so this is the only place its cost is measured (and gated).
    let contended_cfg =
        LaunchConfig { ranks: 16 * 1024, ranks_per_node: 16, ..LaunchConfig::default() };
    let brownout_cfg = LaunchConfig {
        fault: FaultModel::ServerStall { at_ns: 2_000_000_000, duration_ns: 10_000_000_000 },
        ..contended_cfg.clone()
    };
    let storm_cfg = LaunchConfig {
        fault: FaultModel::RpcLoss {
            loss_milli: 100,
            timeout_ns: 1_000_000_000,
            backoff_base_ns: 250_000_000,
            max_retries: 5,
        },
        ..contended_cfg.clone()
    };
    let brownout_stream = ClassifiedStream::classify(&ops, &brownout_cfg);
    let storm_stream = ClassifiedStream::classify(&ops, &storm_cfg);
    plain(
        "faults/brownout_16Ki",
        time_fn(
            || {
                std::hint::black_box(simulate_classified(&brownout_stream, &brownout_cfg));
            },
            iters,
        ),
        iters,
    );
    plain(
        "faults/retry_storm",
        time_fn(
            || {
                std::hint::black_box(simulate_classified(&storm_stream, &storm_cfg));
            },
            iters,
        ),
        iters,
    );

    // The topology rows: the contended 16Ki shape (1024 cold nodes) routed
    // across metadata fleets. `flatten_sweep` prices the whole fig6-servers
    // ladder — five fleet sizes, every lane taking the analytic closed form
    // the round-major guard admits — and `s8_contended` pins the S = 8
    // pass alone, the multi-lane counterpart of `contended_16Ki_cold500`.
    // `s4_jitter_2Ki` is the stochastic lane heap: 2,048 ranks at 16 per
    // node on 4 hash lanes under ±25% jitter, 128 × 500 = 64,000 events.
    let fleet_cfgs: Vec<LaunchConfig> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&s| LaunchConfig { topology: ServerTopology::hash(s), ..contended_cfg.clone() })
        .collect();
    let fleet_stream = ClassifiedStream::classify(&ops, &fleet_cfgs[0]);
    plain(
        "servers/flatten_sweep",
        time_fn(
            || {
                for cfg in &fleet_cfgs {
                    std::hint::black_box(simulate_classified(&fleet_stream, cfg));
                }
            },
            iters,
        ),
        iters,
    );
    let s8_cfg = &fleet_cfgs[3];
    plain(
        "servers/s8_contended",
        time_fn(
            || {
                std::hint::black_box(simulate_classified(&fleet_stream, s8_cfg));
            },
            iters,
        ),
        iters,
    );
    let s4_jitter_cfg = LaunchConfig {
        ranks: 2048,
        service_dist: ServiceDistribution::UniformJitter { spread_milli: 250 },
        topology: ServerTopology::hash(4),
        ..contended_cfg.clone()
    };
    let s4_jitter_stream = ClassifiedStream::classify(&ops, &s4_jitter_cfg);
    plain(
        "servers/s4_jitter_2Ki",
        time_fn(
            || {
                std::hint::black_box(simulate_classified(&s4_jitter_stream, &s4_jitter_cfg));
            },
            iters,
        ),
        iters,
    );

    // The serve-layer rows the bench-diff gate watches. One deterministic
    // cell (effective replicates clamp to 1) keeps the cold row about the
    // executor's own overhead plus one DES pass, not a whole sweep; the
    // profile cache is pre-warmed once so neither row re-times profiling,
    // which the serve layer amortises across queries exactly this way.
    let serve_matrix = ExperimentMatrix::new()
        .workload(Pynamic::new(25))
        .wrap_states([WrapState::Plain])
        .cache_policies([CachePolicy::Cold])
        .rank_points([512usize]);
    let serve_profiles = ProfileCache::new();
    let warm_store = ResultStore::in_memory();
    run_matrix_incremental(&serve_matrix, &warm_store, &serve_profiles, 1).unwrap();
    plain(
        "serve/warm_query",
        time_fn(
            || {
                let (report, stats) =
                    run_matrix_incremental(&serve_matrix, &warm_store, &serve_profiles, 1).unwrap();
                assert_eq!(stats.cold_cells, 0);
                std::hint::black_box(report);
            },
            fast_iters,
        ),
        fast_iters,
    );
    plain(
        "serve/cold_cell",
        time_fn(
            || {
                let store = ResultStore::in_memory();
                let (report, stats) =
                    run_matrix_incremental(&serve_matrix, &store, &serve_profiles, 1).unwrap();
                assert_eq!(stats.cold_cells, stats.cells_total);
                std::hint::black_box(report);
            },
            iters,
        ),
        iters,
    );

    // The batch-planner rows. `full_matrix` is the ISSUE 7 acceptance
    // shape: the fig6-backends matrix widened by the full distribution
    // axis at the default replicate count, simulated end to end as one
    // BatchPlan pass — profiling and classification pre-warmed outside
    // the timed region (a repeat sweep pays exactly this). A cold run
    // of the same matrix is `cells_profiled` on top, which `serve/*`
    // already prices. The wall clock splits sharply: the deterministic
    // backbone (24 deduped analytic kernels over the musl quadratic
    // segment storm) is tens of milliseconds, and the rest is the 528
    // stochastic replicate sims, whose per-event heap + RNG cost is
    // irreducible under bit-identity and already gated per event by
    // `des_million_ranks/contended_16Ki_cold500`. Seconds per run, so
    // this row gets a reduced iteration count (`time_fn` still takes
    // the min over its ten batches) and stays out of the criterion
    // group. `row_throughput` isolates the planner itself: a thousand
    // rows over one shared cold-500 schedule, every row a distinct
    // cold fleet (no kernel collapse), reported per row.
    let batch_matrix = ExperimentMatrix::new()
        .workload(Pynamic::new(300))
        .backends(MatrixBackend::all())
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .cache_policies([CachePolicy::Cold])
        .distributions(ServiceDistribution::all());
    let batch_profiles = ProfileCache::new();
    batch_matrix.run(&batch_profiles);
    let fm_iters = (iters / 50).max(2);
    plain(
        "batch/full_matrix",
        time_fn(
            || {
                std::hint::black_box(batch_matrix.run(&batch_profiles));
            },
            fm_iters,
        ),
        fm_iters,
    );
    const PLAN_ROWS: usize = 1024;
    let batch_cfg = LaunchConfig { ranks_per_node: 16, ..LaunchConfig::default() };
    let batch_stream = ClassifiedStream::classify(&ops, &batch_cfg);
    let run_plan = || {
        let mut plan = BatchPlan::new();
        let id = plan.stream(&batch_stream);
        for i in 0..PLAN_ROWS {
            plan.push(id, &batch_cfg.clone().with_ranks(16 * (i + 1)));
        }
        plan.execute()
    };
    plain(
        "batch/row_throughput",
        time_fn(
            || {
                std::hint::black_box(run_plan());
            },
            iters,
        ) / PLAN_ROWS as u128,
        iters,
    );

    // The adaptive-control rows. `adaptive/full_matrix` times the
    // fig6-dist acceptance matrix (three real dependency worlds × both
    // wrap states × the full distribution axis) under adaptive replicate
    // control — profiling and classification pre-warmed, so the row
    // prices the multi-round driver plus the replicates the stopping
    // rule actually spends. `adaptive/savings_ratio` records what it
    // saved: replicate sims a fixed-K run would spend over sims the rule
    // spent, as an integer milli-ratio (2560 = 2.56x). The adaptive run
    // is bit-reproducible, so this row is a constant for a given engine
    // — the bench-diff gate's delta on it is zero unless the stopping
    // rule itself changes meaning, which is exactly when it should trip.
    let ctl = AdaptiveControl {
        target_rel_milli: 50,
        min_k: 3,
        max_k: depchaos_launch::DEFAULT_REPLICATES,
        batch: 4,
    };
    let adaptive_matrix = ExperimentMatrix::new()
        .workload(Pynamic::new(200))
        .workload(Axom::paper())
        .workload(Rocm::matched())
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .cache_policies([CachePolicy::Cold])
        .distributions(ServiceDistribution::all())
        .adaptive(ctl);
    let adaptive_profiles = ProfileCache::new();
    let adaptive_report = adaptive_matrix.run(&adaptive_profiles);
    plain(
        "adaptive/full_matrix",
        time_fn(
            || {
                std::hint::black_box(adaptive_matrix.run(&adaptive_profiles));
            },
            fm_iters,
        ),
        fm_iters,
    );
    let spent: usize =
        adaptive_report.results.iter().flat_map(|r| &r.stats).map(|(_, st)| st.replicates).sum();
    let fixed_budget: usize = adaptive_report
        .results
        .iter()
        .map(|r| {
            let per = LaunchConfig::default()
                .with_service_dist(r.spec.dist)
                .with_fault(r.spec.fault)
                .effective_replicates(depchaos_launch::DEFAULT_REPLICATES);
            per * r.stats.len()
        })
        .sum();
    plain("adaptive/savings_ratio", (fixed_budget as u128 * 1000) / spent.max(1) as u128, fm_iters);
    println!(
        "  (adaptive stopping: {spent} replicate sims vs {fixed_budget} fixed — the ratio \
         row above is milli-x, not nanoseconds)"
    );

    let json = write_summary(&rows, iters);
    println!("wrote BENCH_des.json ({} bytes)", json.len());

    let mut group = c.benchmark_group("des_million_ranks");
    group.sample_size(if quick { 3 } else { 10 });
    for p in &points {
        let classified = ClassifiedStream::classify(&p.ops, &p.cfg);
        group.bench_function(p.name, |b| b.iter(|| simulate_classified(&classified, &p.cfg)));
    }
    group.finish();

    let mut group = c.benchmark_group("vfs_resolve_deep");
    group.sample_size(if quick { 3 } else { 10 });
    group.bench_function("stat_64_components", |b| b.iter(|| fs.stat(&deep_file).unwrap()));
    group.bench_function("stat_8_symlink_hops", |b| b.iter(|| fs.stat(&link).unwrap()));
    group.bench_function("canonicalize_symlink_ladder", |b| {
        b.iter(|| fs.canonicalize(&link).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("classify");
    group.sample_size(if quick { 3 } else { 10 });
    group.bench_function("cold500", |b| b.iter(|| ClassifiedStream::classify(&ops, &cfg)));
    group.finish();

    let mut group = c.benchmark_group("faults");
    group.sample_size(if quick { 3 } else { 10 });
    group.bench_function("brownout_16Ki", |b| {
        b.iter(|| simulate_classified(&brownout_stream, &brownout_cfg))
    });
    group.bench_function("retry_storm", |b| {
        b.iter(|| simulate_classified(&storm_stream, &storm_cfg))
    });
    group.finish();

    let mut group = c.benchmark_group("servers");
    group.sample_size(if quick { 3 } else { 10 });
    group.bench_function("s8_contended", |b| b.iter(|| simulate_classified(&fleet_stream, s8_cfg)));
    group.bench_function("s4_jitter_2Ki", |b| {
        b.iter(|| simulate_classified(&s4_jitter_stream, &s4_jitter_cfg))
    });
    group.finish();

    let mut group = c.benchmark_group("serve");
    group.sample_size(if quick { 3 } else { 10 });
    group.bench_function("warm_query", |b| {
        b.iter(|| run_matrix_incremental(&serve_matrix, &warm_store, &serve_profiles, 1).unwrap())
    });
    group.bench_function("cold_cell", |b| {
        b.iter(|| {
            let store = ResultStore::in_memory();
            run_matrix_incremental(&serve_matrix, &store, &serve_profiles, 1).unwrap()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("batch");
    group.sample_size(if quick { 3 } else { 10 });
    group.bench_function("row_throughput", |b| b.iter(&run_plan));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
