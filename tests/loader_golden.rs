//! Probe-order golden for every resolver that walks a library search order.
//!
//! Syscall counts alone do not pin *which* path each probe tried, in what
//! order, or what it found. For each (world, resolver) pair this records
//! one line: accounted ops, misses, objects, failures, and FNV-1a digests
//! of the rendered [`StraceLog`] (every op, path, outcome and cost, in
//! order) and of the resolved (path, provenance) list. Resolvers are the
//! loader backends, libtree's [`analyze_tree`] and Shrinkwrap's native
//! [`resolve_closure`]. The last two are traced as well: libtree's probes
//! are accounted, and the native walk must charge nothing.
//!
//! Worlds: every base `depchaos-serve` names, under every matrix backend;
//! the Listing 1 samba tool and the three Fig 3 search mechanisms under
//! every stock backend; and one hand-built world with a hwcaps
//! subdirectory, an ld.so.cache entry, a wrong-architecture candidate, an
//! `$ORIGIN` RUNPATH, a direct path, a preload and a missing library.
//!
//! The test only compares. On a mismatch it prints the rendered text.

use std::fmt::Write as _;
use std::path::Path;

use depchaos_core::native::resolve_closure;
use depchaos_core::LoaderBackend;
use depchaos_elf::{io::install, ElfEditor, ElfObject, Machine};
use depchaos_launch::{profile_load_checked, MatrixBackend};
use depchaos_loader::{analyze_tree, Environment, HashStoreService, LdCache, Provenance, TreeNode};
use depchaos_vfs::{StorageModel, StraceLog, Vfs};
use depchaos_workloads::{
    paradox, samba, Axom, Emacs, InstalledWorkload, Pynamic, PynamicRpath, Rocm, Workload,
};

/// A freshly installed world, ready for one resolver.
struct World {
    fs: Vfs,
    installed: InstalledWorkload,
    env: Environment,
    cache: LdCache,
}

/// A named world and the backends that load it. `build` installs it
/// afresh, so every resolver gets its own install.
struct Case {
    name: String,
    build: Box<dyn Fn() -> World>,
    backends: Vec<MatrixBackend>,
}

fn stock() -> Vec<MatrixBackend> {
    LoaderBackend::all_stock().into_iter().map(MatrixBackend::Stock).collect()
}

/// Every base workload `depchaos-serve` accepts, at the CI smoke's sizes,
/// installed on cold NFS as a profiled cell installs it.
fn serve_bases() -> Vec<Case> {
    let bases: Vec<fn() -> Box<dyn Workload>> = vec![
        || Box::new(Pynamic::new(25)),
        || Box::new(PynamicRpath::new(25)),
        || Box::new(Axom::new(7)),
        || Box::new(Rocm::matched()),
        || Box::new(Rocm::mixed()),
        || Box::new(Emacs),
    ];
    bases
        .into_iter()
        .map(|base| Case {
            name: base().name().to_string(),
            build: Box::new(move || {
                let workload = base();
                let fs = Vfs::new(StorageModel::Nfs.backend());
                let installed = workload.install(&fs).unwrap();
                World { fs, installed, env: workload.environment(), cache: LdCache::empty() }
            }),
            backends: MatrixBackend::all(),
        })
        .collect()
}

/// A world with no library list (stock backends only need the executable).
fn bare_world(fs: Vfs, exe: &str, env: Environment, cache: LdCache) -> World {
    World {
        fs,
        installed: InstalledWorkload { exe_path: exe.into(), lib_paths: vec![] },
        env,
        cache,
    }
}

/// Listing 1, and Fig 3's two directories behind each search mechanism
/// (RPATH, RUNPATH, `LD_LIBRARY_PATH`) in the order A, B.
fn paper_worlds() -> Vec<Case> {
    let mut cases = vec![Case {
        name: "samba".into(),
        build: Box::new(|| {
            let fs = Vfs::nfs();
            samba::install(&fs).unwrap();
            bare_world(fs, samba::TOOL_PATH, Environment::default(), LdCache::empty())
        }),
        backends: stock(),
    }];
    for mechanism in ["rpath", "runpath", "llp"] {
        cases.push(Case {
            name: format!("fig3-{mechanism}"),
            build: Box::new(move || {
                let fs = Vfs::nfs();
                paradox::install(&fs).unwrap();
                let dirs = vec![paradox::DIR_A.to_string(), paradox::DIR_B.to_string()];
                let mut env = Environment::bare();
                let editor = ElfEditor::open(&fs, paradox::EXE).unwrap();
                match mechanism {
                    "rpath" => drop(editor.set_rpath(dirs).unwrap()),
                    "runpath" => drop(editor.set_runpath(dirs).unwrap()),
                    _ => env = env.with_ld_library_path(&dirs.join(":")),
                }
                bare_world(fs, paradox::EXE, env, LdCache::empty())
            }),
            backends: stock(),
        });
    }
    cases
}

/// The corners of the order in one world. The executable's RPATH reaches
/// a hwcaps copy before the plain one, skips a wrong-architecture copy
/// (found later in a default directory), and misses a library that
/// `LD_LIBRARY_PATH` or the ld.so.cache supplies. A library's `$ORIGIN`
/// RUNPATH supplies its child, whose own request inherits the
/// executable's RPATH past that RUNPATH-carrying parent.
fn corners() -> Case {
    Case {
        name: "corners".into(),
        build: Box::new(|| {
            let fs = Vfs::nfs();
            let put = |path: &str, obj: ElfObject| install(&fs, path, &obj).unwrap();
            let dso = |name: &str| ElfObject::dso(name).build();
            put(
                "/bin/app",
                ElfObject::exe("app")
                    .needs("libhw.so")
                    .needs("libarch.so")
                    .needs("libcached.so.1")
                    .needs("liblp.so")
                    .needs("liba.so")
                    .needs("/abs/libabs.so")
                    .needs("libgone.so")
                    .rpath("/opt/hw")
                    .build(),
            );
            put("/opt/hw/glibc-hwcaps/x86-64-v3/libhw.so", dso("libhw.so"));
            put("/opt/hw/libhw.so", dso("libhw.so"));
            put("/opt/hw/libarch.so", ElfObject::dso("libarch.so").machine(Machine::X86).build());
            put("/usr/lib/libarch.so", dso("libarch.so"));
            put("/cached/libcached.so.1", dso("libcached.so.1"));
            put("/usr/lib/libcached.so.1", dso("libcached.so.1"));
            put("/llp/liblp.so", dso("liblp.so"));
            put(
                "/opt/hw/liba.so",
                ElfObject::dso("liba.so").needs("libsub.so").runpath("$ORIGIN/../sub").build(),
            );
            put("/opt/sub/libsub.so", ElfObject::dso("libsub.so").needs("libdeep.so").build());
            put("/opt/hw/libdeep.so", dso("libdeep.so"));
            put("/abs/libabs.so", dso("libabs.so"));
            put("/tools/libpre.so", dso("libpre.so"));
            let cache = LdCache::ldconfig(&fs, &["/cached".to_string()]);
            let env = Environment::default()
                .with_hwcaps(["glibc-hwcaps/x86-64-v3"])
                .with_ld_library_path("/llp")
                .with_preload("/tools/libpre.so");
            bare_world(fs, "/bin/app", env, cache)
        }),
        backends: stock(),
    }
}

fn digest(text: &str) -> String {
    HashStoreService::digest(text.as_bytes())
}

fn provenance(p: &Provenance) -> String {
    match p {
        Provenance::Rpath { owner } | Provenance::Runpath { owner } => {
            format!("{} of {owner}", p.tag())
        }
        _ => p.tag().to_string(),
    }
}

/// Run `f` on a cold cache under the strace log.
fn traced<T>(fs: &Vfs, f: impl FnOnce() -> T) -> (StraceLog, T) {
    fs.drop_caches();
    fs.start_trace();
    let out = f();
    (fs.stop_trace(), out)
}

/// One golden line. `listing` is the resolver's (path, provenance) list.
fn line(
    out: &mut String,
    world: &str,
    resolver: &str,
    log: &StraceLog,
    (objects, failures): (usize, usize),
    listing: &str,
) {
    writeln!(
        out,
        "{world:<16} {resolver:<10} ops={:<5} misses={:<5} objects={objects:<3} \
         failures={failures:<2} strace={} paths={}",
        log.len(),
        log.misses(),
        digest(&log.render()),
        digest(listing),
    )
    .unwrap();
}

fn record_backend(out: &mut String, case: &Case, backend: &MatrixBackend) {
    let w = (case.build)();
    let exe = w.installed.exe_path.as_str();
    let backend = backend.backend_for(&w.fs, &w.installed).unwrap();
    let loader = backend.instantiate(&w.fs, &w.env, &w.cache);
    let (log, load) = profile_load_checked(&w.fs, exe, &*loader).unwrap();
    let mut listing = String::new();
    for o in &load.objects {
        writeln!(listing, "{} {}", o.path, provenance(&o.provenance)).unwrap();
    }
    for f in &load.failures {
        writeln!(listing, "{} {} not found", f.requester, f.name).unwrap();
    }
    let counts = (load.objects.len(), load.failures.len());
    line(out, &case.name, backend.name(), &log, counts, &listing);
}

fn record_tree(out: &mut String, case: &Case) {
    fn walk(n: &TreeNode, depth: usize, listing: &mut String, resolved: &mut usize) {
        let found = match (&n.path, &n.provenance) {
            (Some(path), Some(p)) => {
                *resolved += 1;
                format!("{path} {}", provenance(p))
            }
            _ => "not found".to_string(),
        };
        writeln!(listing, "{depth} {} {found}", n.name).unwrap();
        for c in &n.children {
            walk(c, depth + 1, listing, resolved);
        }
    }
    let w = (case.build)();
    let exe = w.installed.exe_path.as_str();
    let (log, tree) = traced(&w.fs, || analyze_tree(&w.fs, exe, &w.env, &w.cache).unwrap());
    let (mut listing, mut resolved) = (String::new(), 0);
    walk(&tree.root, 0, &mut listing, &mut resolved);
    line(out, &case.name, "libtree", &log, (resolved, tree.missing().len()), &listing);
}

fn record_native(out: &mut String, case: &Case) {
    let w = (case.build)();
    let exe = w.installed.exe_path.as_str();
    let (log, rs) = traced(&w.fs, || resolve_closure(&w.fs, exe, &w.env, &w.cache).unwrap());
    let mut listing = String::new();
    for r in &rs {
        writeln!(
            listing,
            "{} {} {}",
            r.requester,
            r.name,
            r.path.as_deref().unwrap_or("not found")
        )
        .unwrap();
    }
    let resolved = rs.iter().filter(|r| r.path.is_some()).count();
    line(out, &case.name, "native", &log, (resolved, rs.len() - resolved), &listing);
}

fn render() -> String {
    let mut out = String::new();
    for case in serve_bases().into_iter().chain(paper_worlds()).chain([corners()]) {
        for backend in &case.backends {
            record_backend(&mut out, &case, backend);
        }
        record_tree(&mut out, &case);
        record_native(&mut out, &case);
    }
    out
}

#[test]
fn every_resolver_probes_in_the_golden_order() {
    let got = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/loader-probes.txt");
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if want != got {
        let line = want.lines().zip(got.lines()).position(|(w, g)| w != g);
        panic!(
            "loader-probes.txt drifted from its golden text (first differing line: {line:?})\n\
             --- golden\n{want}--- rendered\n{got}"
        );
    }
}
