//! `depchaos-report` — regenerate every paper table and figure as text.
//!
//! Usage: `depchaos-report [SECTION] [--tsv FILE] [--store DIR] [--jobs N]
//! [--adaptive TARGET]` (default `all`); `--help` or `-h` prints the
//! sections, the flags and the exit codes to stdout. Fig 6 at full scale
//! takes a few seconds in release mode; pass `fig6-small` for a reduced
//! run, `fig6-backends` for the per-backend scenario-matrix sweep (glibc,
//! musl, future, hash-store side by side), `fig6-dist` for the
//! service-distribution sweep (deterministic vs jittered vs heavy-tailed
//! metadata server, p50/p99 bands, pynamic + axom + rocm),
//! `fig6-queueing` for the M/G/k cross-check (single-server and
//! multi-server topologies against their Erlang-C envelopes; exits 1
//! when any cell's replicate mean escapes its queueing-theory envelope),
//! `fig6-faults` for the degraded-mode sweep (server brownouts, lossy
//! RPC with timeout/retry/backoff, straggler cohorts — plain vs
//! shrinkwrapped), or `fig6-servers` for the metadata-fleet sweep
//! (S ∈ {1, 2, 4, 8, 16} hash-routed servers × plain vs shrinkwrapped,
//! with the per-rank-point speedup over the single server and the
//! flattening point where more servers stop paying).
//! `--tsv FILE` additionally writes the section's raw `SweepReport` rows
//! as TSV — the artifact CI persists; sections that run no sweep ignore
//! it.
//!
//! `--store DIR` routes every sweep section through the persistent result
//! store (`depchaos-serve`'s content-addressed cache): cells already in
//! the store are served warm, only misses simulate, fresh results are
//! appended — rendered tables are bit-identical either way, and the
//! warm/cold counters print to stderr. `--jobs N` (default 1) runs every
//! section's cold pipeline on N worker threads: the profiling of cold
//! cells and the solving of the simulation kernels alike. The output is
//! bit-identical for every N; peak memory grows with N × the largest
//! kernel in flight. `--jobs` rejects 0 and values above the shared cap
//! with the exit-2 usage error.
//!
//! `--adaptive TARGET` switches `fig6-dist` from fixed-K replication to
//! adaptive replicate control: `TARGET` is the relative precision goal as
//! a fraction in `[0.001, 1)` (e.g. `0.05` = stop a stochastic cell once
//! the 95% half-width of its mean launch time falls under 5% of the
//! mean), with K between 3 and the default fixed budget per cell. The
//! sweep stays bit-reproducible — replicate `r`'s draws are a pure
//! function of the cell seed and `r` — and the `--tsv` artifact's
//! `stopping` column records the plan and the K every cell actually used
//! (`fixed@K` / `adaptive-TARGETm@K`). Other sections ignore the flag.
//! An out-of-range or unparsable `TARGET` is the exit-2 usage error, like
//! every other bad flag below.
//!
//! Exit codes (uniform across the depchaos CLIs):
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | the requested sections rendered |
//! | 1 | check violation — a queueing cell (single- or multi-server) escaped its M/G/k envelope |
//! | 2 | usage or I/O error — bad section/flags (`--adaptive` outside `[0.001, 1)` included), unwritable TSV, store failure |

use depchaos_core::{wrap, ShrinkwrapOptions};
use depchaos_graph::reuse_counts;
use depchaos_launch::{
    render_fig6_paired, sweep_paired, AdaptiveControl, CachePolicy, ExperimentMatrix, FaultModel,
    LaunchConfig, MatrixBackend, ProfileCache, ServerTopology, ServiceDistribution, SweepReport,
    WrapState,
};
use depchaos_loader::{Environment, GlibcLoader};
use depchaos_serve::{run_matrix_incremental, ResultStore};
use depchaos_vfs::{StorageModel, Vfs};
use depchaos_workloads::{debian, emacs, nix_ruby, paradox, pynamic, Axom, Pynamic, Rocm};

/// Where a sweep-producing section should drop its raw TSV, if anywhere,
/// and how to execute its matrix (direct, or incrementally against a
/// persistent store).
struct ReportOpts {
    tsv: Option<String>,
    store: Option<String>,
    jobs: usize,
    /// `--adaptive TARGET` as integer milli (e.g. `0.05` → 50): the
    /// relative precision goal adaptive replicate control stops at.
    /// `fig6-dist` consumes it; other sections ignore it.
    adaptive: Option<u32>,
}

impl ReportOpts {
    /// Execute a sweep matrix for one section: against the persistent
    /// store when `--store` was given (warm cells served, misses
    /// simulated and appended), in memory otherwise — one code path, so
    /// the rendered tables cannot depend on which way the cells came.
    fn run(&self, matrix: &ExperimentMatrix) -> SweepReport {
        let store = match &self.store {
            Some(dir) => match ResultStore::open(std::path::Path::new(dir)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open store {dir}: {e}");
                    std::process::exit(2);
                }
            },
            None => ResultStore::in_memory(),
        };
        match run_matrix_incremental(matrix, &store, &ProfileCache::new(), self.jobs) {
            Ok((report, stats)) => {
                if self.store.is_some() {
                    eprintln!(
                        "(store: {} cells — {} warm, {} simulated on {} jobs)",
                        stats.cells_total, stats.warm_hits, stats.cold_cells, stats.jobs
                    );
                }
                report
            }
            Err(e) => {
                eprintln!("store I/O error: {e}");
                std::process::exit(2);
            }
        }
    }
    /// Write `report`'s rows when `--tsv` was given; exit 2 on IO errors —
    /// a CI artifact silently missing is worse than a red step.
    fn persist_tsv(&self, report: &SweepReport) {
        self.persist_raw(&report.render_tsv());
    }

    /// Write a section-specific TSV rendering (same `--tsv` path and error
    /// policy as [`ReportOpts::persist_tsv`]).
    fn persist_raw(&self, content: &str) {
        if let Some(path) = &self.tsv {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("cannot write TSV {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("(wrote {path})");
        }
    }
}

type SectionFn = fn(&ReportOpts);

/// Every report section: name, whether `all` includes it, and its
/// renderer. One table drives dispatch and the valid-section listing
/// alike, so the two cannot drift apart (an unknown argument exits 2
/// instead of silently rendering nothing).
const SECTIONS: &[(&str, bool, SectionFn)] = &[
    ("fig1", true, fig1),
    ("fig2", true, fig2),
    ("fig3", true, fig3),
    ("fig4", true, fig4),
    ("table1", true, table1),
    ("table2", true, table2),
    ("fig6", true, fig6_paper),
    ("fig6-small", false, fig6_small),
    ("fig6-backends", true, fig6_backends),
    ("fig6-dist", true, fig6_dist),
    ("fig6-queueing", true, fig6_queueing),
    ("fig6-faults", true, fig6_faults),
    ("fig6-servers", true, fig6_servers),
    ("listing1", true, listing1),
    ("usecases", true, usecases),
    ("backends", true, backends),
];

/// The `--help` text: every section, every flag and the exit codes.
fn print_usage() {
    let names: Vec<&str> = SECTIONS.iter().map(|(n, _, _)| *n).collect();
    println!(
        "usage: depchaos-report [SECTION] [--tsv FILE] [--store DIR] [--jobs N] \
         [--adaptive TARGET]\n\
         \n\
         sections: all (the default), {}\n\
         \n\
         flags:\n  \
           --tsv FILE         write a sweep section's raw rows as TSV\n  \
           --store DIR        serve sweep cells from the result store in DIR, appending misses\n  \
           --jobs N           worker threads for profiling and kernel solving (default 1)\n  \
           --adaptive TARGET  fig6-dist: adaptive replicates, relative precision in [0.001, 1)\n  \
           -h, --help         print this help and exit\n\
         \n\
         exit codes:\n  \
           0  the requested sections rendered\n  \
           1  check violation: a queueing cell escaped its M/G/k envelope\n  \
           2  usage or I/O error: bad section or flag, unwritable TSV, store failure",
        names.join(", ")
    );
}

fn main() {
    let mut section_arg: Option<String> = None;
    let mut opts = ReportOpts { tsv: None, store: None, jobs: 1, adaptive: None };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--help" | "-h" => return print_usage(),
            "--tsv" => opts.tsv = Some(value("--tsv")),
            "--store" => opts.store = Some(value("--store")),
            "--jobs" => match depchaos_cli::parse_jobs(&value("--jobs")) {
                Ok(n) => opts.jobs = n,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            },
            "--adaptive" => {
                let v = value("--adaptive");
                match v.parse::<f64>() {
                    // The floor keeps the milli encoding nonzero: 0 is the
                    // rule's "disabled" sentinel, which would silently run
                    // the full fixed budget.
                    Ok(f) if (0.001..1.0).contains(&f) => {
                        opts.adaptive = Some((f * 1000.0).round() as u32);
                    }
                    _ => {
                        eprintln!(
                            "--adaptive needs a relative precision target in [0.001, 1), \
                             e.g. 0.05 for a 5% half-width: got {v:?}"
                        );
                        std::process::exit(2);
                    }
                }
            }
            _ => section_arg = Some(a),
        }
    }
    let arg = section_arg.unwrap_or_else(|| "all".to_string());
    if arg == "all" {
        // Several sections would take turns overwriting one TSV path;
        // refuse rather than hand back only the last section's rows.
        if opts.tsv.is_some() {
            eprintln!(
                "--tsv needs a single sweep section (fig6, fig6-backends, fig6-dist, \
                 fig6-queueing, fig6-faults, fig6-servers), not all"
            );
            std::process::exit(2);
        }
        for (_, in_all, section) in SECTIONS {
            if *in_all {
                section(&opts);
            }
        }
        return;
    }
    match SECTIONS.iter().find(|(name, _, _)| *name == arg) {
        Some((_, _, section)) => section(&opts),
        None => {
            let names: Vec<&str> = SECTIONS.iter().map(|(n, _, _)| *n).collect();
            eprintln!("unknown section {arg:?}; valid sections: all, {}", names.join(", "));
            std::process::exit(2);
        }
    }
}

fn fig6_paper(opts: &ReportOpts) {
    fig6(pynamic::N_LIBS_PAPER, opts);
}

fn fig6_small(opts: &ReportOpts) {
    fig6(200, opts);
}

/// One image, every loader backend — the cross-semantics comparison the
/// `Loader` trait makes a one-liner.
fn backends(_opts: &ReportOpts) {
    banner("Loader backends: emacs, plain vs shrinkwrapped");
    use depchaos_core::LoaderBackend;
    use depchaos_loader::LdCache;

    println!(
        "{:<10} {:>8} {:>14} {:>8} {:>14}  (soname dedup)",
        "backend", "plain", "stat/openat", "wrapped", "stat/openat"
    );
    for backend in LoaderBackend::all_stock() {
        let fs = Vfs::local();
        emacs::install(&fs).unwrap();
        let env = Environment::bare();
        let loader = backend.instantiate(&fs, &env, &LdCache::empty());
        let plain = loader.load(emacs::EXE_PATH).unwrap();

        let wrapped_fs = Vfs::local();
        emacs::install(&wrapped_fs).unwrap();
        wrap(&wrapped_fs, emacs::EXE_PATH, &ShrinkwrapOptions::new().env(env.clone())).unwrap();
        let loader = backend.instantiate(&wrapped_fs, &env, &LdCache::empty());
        let wrapped = loader.load(emacs::EXE_PATH).unwrap();

        println!(
            "{:<10} {:>8} {:>14} {:>8} {:>14}  ({})",
            backend.name(),
            if plain.success() { "ok" } else { "FAILS" },
            plain.stat_openat(),
            if wrapped.success() { "ok" } else { "FAILS" },
            wrapped.stat_openat(),
            if loader.resolves_by_soname() { "yes" } else { "no" },
        );
    }
    println!(
        "(musl has no soname cache, so the wrapped image costs it a re-search per \
         transitive request — and fails outright once search paths are gone: §IV)"
    );
}

fn banner(s: &str) {
    println!("\n===== {s} =====");
}

fn fig1(_opts: &ReportOpts) {
    banner("Fig 1: Debian package dependencies by type");
    let t = debian::fig1_tally(2021, 209_000);
    print!("{}", t.render_table());
    println!("unversioned fraction: {:.1}%", 100.0 * t.unversioned_fraction());
}

fn fig2(_opts: &ReportOpts) {
    banner("Fig 2: Nix Ruby closure (the snarl)");
    let g = nix_ruby::closure(2022);
    println!("nodes: {}   edges: {}", g.node_count(), g.edge_count());
    let ruby = g.lookup("ruby-2.7.5.drv").unwrap();
    println!("transitive closure of ruby: {} derivations", g.closure_bfs(ruby).len());
    let dot = depchaos_graph::dot::to_dot(&g, "ruby-2.7.5");
    println!("DOT export: {} lines (pipe to `dot -Tsvg` to render the snarl)", dot.lines().count());
}

fn fig3(_opts: &ReportOpts) {
    banner("Fig 3: the RUNPATH paradox");
    let fs = Vfs::local();
    paradox::install(&fs).unwrap();
    println!("any search-path ordering correct? {}", paradox::any_ordering_correct(&fs));
    println!("(Shrinkwrap-style absolute paths resolve it — see tests/fig3_paradox.rs)");
}

fn fig4(_opts: &ReportOpts) {
    banner("Fig 4: shared object reuse (3287 binaries)");
    let usages = debian::installed_system(2021, 3287, 1400);
    let h = reuse_counts(usages.iter().map(|(b, s)| (b.as_str(), s.iter().map(String::as_str))));
    print!("{}", h.render_summary(10));
}

fn table1(_opts: &ReportOpts) {
    banner("Table I: properties of RPATH and RUNPATH");
    use depchaos_elf::{io::install, ElfObject};

    // Experiment 1: which copy wins against LD_LIBRARY_PATH?
    let beats_env = |use_rpath: bool| -> bool {
        let fs = Vfs::local();
        install(&fs, "/emb/libx.so", &ElfObject::dso("libx.so").build()).unwrap();
        install(&fs, "/env/libx.so", &ElfObject::dso("libx.so").build()).unwrap();
        let exe = if use_rpath {
            ElfObject::exe("a").needs("libx.so").rpath("/emb").build()
        } else {
            ElfObject::exe("a").needs("libx.so").runpath("/emb").build()
        };
        install(&fs, "/bin/a", &exe).unwrap();
        let env = Environment::bare().with_ld_library_path("/env");
        let r = GlibcLoader::new(&fs).with_env(env).load("/bin/a").unwrap();
        r.objects[1].path == "/emb/libx.so"
    };
    // Experiment 2: does the attribute serve a *transitive* lookup?
    let propagates = |use_rpath: bool| -> bool {
        let fs = Vfs::local();
        install(&fs, "/l/libmid.so", &ElfObject::dso("libmid.so").needs("libleaf.so").build())
            .unwrap();
        install(&fs, "/d/libleaf.so", &ElfObject::dso("libleaf.so").build()).unwrap();
        let exe = if use_rpath {
            ElfObject::exe("a").needs("libmid.so").rpath("/l").rpath("/d").build()
        } else {
            ElfObject::exe("a").needs("libmid.so").runpath("/l").runpath("/d").build()
        };
        install(&fs, "/bin/a", &exe).unwrap();
        GlibcLoader::new(&fs).with_env(Environment::bare()).load("/bin/a").unwrap().success()
    };
    let yn = |b: bool| if b { "Yes" } else { "No" };
    println!("{:<32} {:>6} {:>8}", "Property", "RPATH", "RUNPATH");
    println!(
        "{:<32} {:>6} {:>8}",
        "Before LD_LIBRARY_PATH",
        yn(beats_env(true)),
        yn(beats_env(false))
    );
    println!(
        "{:<32} {:>6} {:>8}",
        "After LD_LIBRARY_PATH",
        yn(!beats_env(true)),
        yn(!beats_env(false))
    );
    println!("{:<32} {:>6} {:>8}", "Propagates", yn(propagates(true)), yn(propagates(false)));
    println!("(computed live against the glibc loader model)");
}

fn table2(_opts: &ReportOpts) {
    banner("Table II: emacs stat/openat syscalls");
    let fs = Vfs::local();
    emacs::install(&fs).unwrap();
    let env = Environment::bare();
    let before = GlibcLoader::new(&fs).with_env(env.clone()).load(emacs::EXE_PATH).unwrap();
    wrap(&fs, emacs::EXE_PATH, &ShrinkwrapOptions::new().env(env.clone())).unwrap();
    let after = GlibcLoader::new(&fs).with_env(env).load(emacs::EXE_PATH).unwrap();
    println!("{:<16} {:>16} {:>14}", "", "Calls (stat/openat)", "Time (seconds)");
    println!("{:<16} {:>16} {:>14.6}", "emacs", before.stat_openat(), before.time_ns as f64 / 1e9);
    println!(
        "{:<16} {:>16} {:>14.6}",
        "emacs-wrapped",
        after.stat_openat(),
        after.time_ns as f64 / 1e9
    );
    println!("reduction: {:.1}x", before.stat_openat() as f64 / after.stat_openat() as f64);
}

fn listing1(_opts: &ReportOpts) {
    banner("Listing 1: libtree dbwrap_tool");
    use depchaos_loader::{analyze_tree, LdCache};
    use depchaos_workloads::samba;
    let fs = Vfs::local();
    samba::install(&fs).unwrap();
    let tree =
        analyze_tree(&fs, samba::TOOL_PATH, &Environment::default(), &LdCache::empty()).unwrap();
    print!("{}", tree.render());
    let r = GlibcLoader::new(&fs).load(samba::TOOL_PATH).unwrap();
    println!(
        "(dynamic load nonetheless succeeds: {} objects, dedup hides the hole)",
        r.objects.len()
    );
}

fn usecases(_opts: &ReportOpts) {
    banner("§V-B use cases");
    use depchaos_workloads::{openmp, rocm};

    // ROCm.
    let fs = Vfs::local();
    rocm::install_scenario(&fs).unwrap();
    let mut ms = rocm::module_system();
    ms.load("rocm/4.3.0").unwrap();
    let env = ms.environment(Environment::default());
    let r = GlibcLoader::new(&fs).with_env(env.clone()).load(rocm::APP).unwrap();
    println!(
        "ROCm 4.5 app + rocm/4.3.0 module: versions loaded {:?} (the segfault)",
        rocm::versions_loaded(&r)
    );
    let mut ms2 = rocm::module_system();
    ms2.load("rocm/4.5.0").unwrap();
    wrap(&fs, rocm::APP, &ShrinkwrapOptions::new().env(ms2.environment(Environment::default())))
        .unwrap();
    let r2 = GlibcLoader::new(&fs).with_env(env).load(rocm::APP).unwrap();
    println!(
        "after shrinkwrap:                 versions loaded {:?} (fixed)",
        rocm::versions_loaded(&r2)
    );

    // OpenMP stubs.
    let fs = Vfs::local();
    openmp::install_scenario(&fs, false).unwrap();
    let rep =
        wrap(&fs, openmp::APP, &ShrinkwrapOptions::new().env(Environment::default())).unwrap();
    let dups = rep
        .warnings
        .iter()
        .filter(|w| matches!(w, depchaos_core::WrapWarning::DuplicateStrongSymbol { .. }))
        .count();
    let r = GlibcLoader::new(&fs).load(openmp::APP).unwrap();
    println!(
        "libomp/libompstubs: wrap succeeded with {} duplicate-symbol warnings; \
         omp_get_num_threads bound to {}",
        dups,
        openmp::winning_runtime(&r).unwrap()
    );
}

/// The Fig 6 cell every sweep section starts from: Pynamic with `n_libs`
/// libraries on NFS, plain vs wrapped, cold caches. The backend is left to
/// `expand()`'s glibc default, because `backend()` appends: naming glibc
/// here would repeat its slice in `fig6-backends`.
fn fig6_cell(n_libs: usize) -> ExperimentMatrix {
    ExperimentMatrix::new()
        .workload(Pynamic::new(n_libs))
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .cache_policies([CachePolicy::Cold])
}

fn fig6(n_libs: usize, opts: &ReportOpts) {
    banner("Fig 6: Pynamic time-to-launch (normal vs shrinkwrapped)");
    // The paper's figure is one cell of the scenario matrix: pynamic ×
    // glibc × NFS, plain vs wrapped, cold caches.
    let report = opts.run(&fig6_cell(n_libs));
    println!("({n_libs} shared libraries, cold NFS, negative caching off)");
    print!("{}", report.render_fig6_tables());
    opts.persist_tsv(&report);
}

/// The backend × wrap sweep: the same Fig 6 pipeline driven once, rendered
/// per loader backend — glibc, musl, the §III-C future loader, and the
/// hash-store loader service. 300 libraries keep the musl quadratic
/// profile affordable while preserving every qualitative contrast.
fn fig6_backends(opts: &ReportOpts) {
    let n_libs = 300;
    banner("Fig 6 backends: Pynamic time-to-launch per loader backend");
    let report = opts.run(&fig6_cell(n_libs).backends(MatrixBackend::all()));
    println!(
        "({n_libs} shared libraries, cold NFS; {} unique cells profiled once each)",
        report.cells_profiled
    );
    print!("{}", report.render_fig6_tables());
    println!(
        "(the future loader has no RUNPATH semantics, so the stock pynamic world is \
         unresolvable under it: its plain series is incomplete and the wrap fails — that \
         hole is the finding; the hash-store service resolves every request in one probe, \
         so its plain series already sits near the wrapped glibc line)"
    );
    opts.persist_tsv(&report);
}

/// The service-distribution sweep: three genuinely different dependency
/// shapes (Pynamic's RUNPATH search storm, the >200-package Axom store
/// stack, the ROCm module world) under a deterministic, a jittered, and a
/// heavy-tailed metadata server — every stochastic cell seeded, replicated,
/// and reported as p50/p99 bands next to the deterministic curve.
fn fig6_dist(opts: &ReportOpts) {
    banner("Fig 6 dist: time-to-launch under stochastic server latency");
    let mut matrix = fig6_cell(200)
        .workload(Axom::paper())
        .workload(Rocm::matched())
        .distributions(ServiceDistribution::all());
    if let Some(target_rel_milli) = opts.adaptive {
        matrix = matrix.adaptive(AdaptiveControl {
            target_rel_milli,
            min_k: 3,
            max_k: depchaos_launch::DEFAULT_REPLICATES,
            batch: 4,
        });
    }
    let report = opts.run(&matrix);
    match report.adaptive {
        Some(ctl) => println!(
            "(cold NFS, glibc; {} cells profiled once; adaptive replicate control: stop at \
             a ±{:.1}% relative 95% half-width, K in [{}..{}] per stochastic cell)",
            report.cells_profiled,
            ctl.target_rel_milli as f64 / 10.0,
            ctl.min_k,
            ctl.max_k
        ),
        None => println!(
            "(cold NFS, glibc; {} cells profiled once, stochastic cells over {} seeded \
             replicates)",
            report.cells_profiled,
            depchaos_launch::DEFAULT_REPLICATES
        ),
    }
    print!("{}", report.render_fig6_dist_tables());
    if report.adaptive.is_some() {
        // The stopping summary: what the rule actually spent against the
        // fixed budget it replaced. Per-cell Ks are in the TSV's
        // `stopping` column.
        let (spent, fixed) = report.replicate_budget();
        println!(
            "(adaptive stopping spent {spent} replicate simulations where fixed K would \
             spend {fixed} — {:.2}x fewer, bit-reproducibly)",
            fixed as f64 / spent as f64
        );
    }
    println!(
        "(jitter barely moves p50 — queueing averages it out — while the log-normal tail \
         stretches p99 on the search-heavy plain streams; wrapped streams barely feel \
         either, having almost no server ops left to jitter)"
    );

    // The common-random-numbers companion: the pynamic cell's plain and
    // wrapped arms swept under *shared* replicate seeds (unlike the matrix,
    // whose per-cell label-derived seeds decorrelate the arms by design),
    // so the paired estimator can cancel whatever noise the arms share.
    let cache = ProfileCache::new();
    let cfg = LaunchConfig {
        service_dist: ServiceDistribution::log_normal(0.5),
        ..LaunchConfig::default()
    };
    let cell = cache.get_or_profile(&Pynamic::new(200), &MatrixBackend::glibc(), StorageModel::Nfs);
    if let (Ok(p), Ok(w)) = (cell.outcome(WrapState::Plain), cell.outcome(WrapState::Wrapped)) {
        let plain = cache.classified(&cell.key, WrapState::Plain, &p.log, &cfg);
        let wrapped = cache.classified(&cell.key, WrapState::Wrapped, &w.log, &cfg);
        let pts = sweep_paired(
            &plain,
            &wrapped,
            &cfg,
            &[512, 1024, 2048],
            depchaos_launch::DEFAULT_REPLICATES,
        );
        println!(
            "\npynamic-200 wrapped-vs-plain speedup under the heavy-tailed server, CRN-paired:"
        );
        print!("{}", render_fig6_paired(&pts));
        println!(
            "(each replicate seeds both arms identically; the paired interval on the \
             difference is the one to trust — it narrows toward the unpaired interval as \
             the arms' draw overlap shrinks, and the wrap removes most of it here)"
        );
    }
    opts.persist_tsv(&report);
}

/// The queueing-theory cross-check: every stochastic cell's replicate mean
/// against its M/G/k envelope (hard capacity/work-conservation bounds plus
/// the Erlang-C / Lee–Longton descriptors; k = 1 is the classic M/G/1
/// Pollaczek–Khinchine case). The topology axis puts genuine multi-server
/// cells in the sweep, so the fleet model is cross-checked too — hash
/// routing as k independent lanes, least-loaded against the pooled
/// work-conservation floor. A violation means the DES and queueing theory
/// disagree about the same model — that is a bug by definition, so this
/// section exits 1 and fails CI rather than printing a table nobody reads.
fn fig6_queueing(opts: &ReportOpts) {
    banner("Fig 6 queueing: DES replicate means vs M/G/k envelope");
    let report = opts.run(
        &fig6_cell(150)
            .distributions(ServiceDistribution::all())
            .topologies([
                ServerTopology::single(),
                ServerTopology::hash(4),
                ServerTopology::least_loaded(4),
            ])
            .rank_points([512usize, 2048, 16 * 1024]),
    );
    println!(
        "(cold NFS, glibc; every swept cell checked over {} seeded replicates, single \
         server and 4-server fleets alike; rho ≥ 1 marks the contended regime where \
         the capacity bound binds)",
        depchaos_launch::DEFAULT_REPLICATES
    );
    print!("{}", report.render_queueing_tables());
    opts.persist_raw(&report.render_queueing_tsv());
    let violations = report.queueing_violations();
    if violations.is_empty() {
        println!("every cell within bounds — the stochastic DES is consistent with M/G/k");
    } else {
        for (label, ranks) in &violations {
            eprintln!("QUEUEING VIOLATION: {label} at {ranks} ranks");
        }
        std::process::exit(1);
    }
}

/// The degraded-mode sweep: the Fig 6 cell under injected faults — server
/// brownouts of growing severity, lossy RPC with timeout/retry/backoff,
/// and a straggler cohort — plain vs shrinkwrapped side by side. The
/// quantitative story: a metadata storm amplifies every server-side fault
/// (retries are real extra server work; a brownout gates the whole storm),
/// while the wrapped binary barely notices, having almost no server ops
/// left to degrade.
fn fig6_faults(opts: &ReportOpts) {
    banner("Fig 6 faults: degraded-mode launch sweeps, plain vs shrinkwrapped");
    let report = opts.run(
        &fig6_cell(150)
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
            .rank_points([512usize, 2048]),
    );
    println!(
        "(cold NFS, glibc; faults drawn from the dedicated FAULT seed domain, so the \
         healthy rows are bit-identical to the fault-free sweep)"
    );
    print!("{}", report.render_fault_tables());
    println!(
        "(every fault model punishes the plain launch through its metadata storm — a \
         brownout stalls thousands of queued lookups, loss amplifies offered load by \
         1/(1-p) in real retried server work — while the wrapped rows degrade only by \
         the fault's floor)"
    );
    opts.persist_tsv(&report);
}

/// The metadata-fleet sweep: the Fig 6 cell behind S hash-routed servers,
/// S ∈ {1, 2, 4, 8, 16}, plain vs shrinkwrapped. The quantitative question
/// is where the curve flattens — how many servers the storm is worth — and
/// the punchline is the contrast: the plain launch keeps paying for
/// servers long after the wrapped one has nothing left to parallelise.
fn fig6_servers(opts: &ReportOpts) {
    banner("Fig 6 servers: time-to-launch vs metadata-fleet size");
    let report =
        opts.run(&fig6_cell(150).topologies([1usize, 2, 4, 8, 16].map(ServerTopology::hash)));
    println!(
        "({} unique cells profiled once; hash-by-node routing, so every fleet \
         size replays the same classified op streams)",
        report.cells_profiled
    );
    print!("{}", report.render_servers_tables());
    println!(
        "(speedup is each fleet's launch time against the single server at the \
         largest rank point; the flattening line marks the first fleet within 5% \
         of the best — past it, extra metadata servers buy nothing the wrap \
         would not buy cheaper)"
    );
    opts.persist_tsv(&report);
}
