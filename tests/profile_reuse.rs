//! A profiled cell freezes its plain capture's resolution instead of
//! resolving the binary a second time. This pins that the reuse changes
//! nothing: on twin worlds, freezing the plain capture's `LoadResult` and
//! calling `wrap` leave the same binary bytes, the same `WrapReport`, the
//! same wrapped op stream and the same error text — for every base the
//! serve front door names, under every matrix backend and storage model —
//! and the `ProfileCache` cell equals the three-pass profile it replaced.

use depchaos_core::{freeze_load, wrap, ShrinkwrapOptions, WrapWarning};
use depchaos_elf::{io::install, ElfObject};
use depchaos_launch::{profile_load_checked, MatrixBackend, ProfileCache, WrapState};
use depchaos_loader::{LdCache, LoadError, LoadResult};
use depchaos_vfs::{StorageModel, StraceLog, Syscall, Vfs, VfsError};
use depchaos_workloads::{Axom, Emacs, InstalledWorkload, Pynamic, PynamicRpath, Rocm, Workload};

/// Two libraries sharing one file name: a world the hash store cannot
/// index, so its cells carry the index error instead of a profile.
struct Shadowed;

impl Workload for Shadowed {
    fn name(&self) -> &str {
        "shadowed"
    }

    fn install(&self, fs: &Vfs) -> Result<InstalledWorkload, VfsError> {
        install(fs, "/a/libx.so", &ElfObject::dso("libx.so").build())?;
        install(fs, "/b/libx.so", &ElfObject::dso("libx.so").build())?;
        install(fs, "/bin/app", &ElfObject::exe("app").needs("libx.so").runpath("/a").build())?;
        Ok(InstalledWorkload {
            exe_path: "/bin/app".into(),
            lib_paths: vec!["/a/libx.so".into(), "/b/libx.so".into()],
        })
    }
}

/// Every base workload `depchaos-serve` accepts, at the CI smoke's sizes,
/// plus a world the hash store cannot index.
fn worlds() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Pynamic::new(25)),
        Box::new(PynamicRpath::new(25)),
        Box::new(Axom::new(7)),
        Box::new(Rocm::matched()),
        Box::new(Rocm::mixed()),
        Box::new(Emacs),
        Box::new(Shadowed),
    ]
}

/// A captured op stream and its unresolved count, or the capture's error.
type Capture = Result<(Vec<Syscall>, usize), String>;

/// A `WrapReport`'s frozen needed list, resolution pairs and warnings.
type Frozen = (Vec<String>, Vec<(String, String)>, Vec<WrapWarning>);

/// Everything one profiling arm produced on its own world.
#[derive(Debug, PartialEq)]
struct Arm {
    plain: Capture,
    /// The wrap's report, or its error text.
    wrap: Result<Frozen, String>,
    /// The binary's bytes after the wrap.
    binary: Vec<u8>,
    /// The wrapped capture, when the wrap succeeded.
    wrapped: Option<Capture>,
}

fn capture(label: &str, r: Result<(StraceLog, LoadResult), LoadError>) -> Capture {
    r.map(|(log, load)| (log.entries, load.failures.len()))
        .map_err(|e| format!("{label} load failed: {e}"))
}

/// Install `workload` into a fresh world, capture the plain stream, wrap
/// — freezing the plain capture's load when `reuse`, else through `wrap`
/// as a cell did before it kept the load — and capture the wrapped
/// stream. `Err` is a world the backend cannot index.
fn profile(
    workload: &dyn Workload,
    backend: &MatrixBackend,
    storage: StorageModel,
    reuse: bool,
) -> Result<Arm, String> {
    let fs = Vfs::new(storage.backend());
    let installed = workload.install(&fs).unwrap();
    let env = workload.environment();
    let backend = backend.backend_for(&fs, &installed)?;
    let exe = installed.exe_path.as_str();
    let load =
        || profile_load_checked(&fs, exe, &*backend.instantiate(&fs, &env, &LdCache::empty()));

    let opts = ShrinkwrapOptions::new().env(env.clone()).backend(backend.clone());
    let (plain, wrapped) = match load() {
        Ok((log, held)) => {
            let plain = capture("plain", Ok((log, held.clone())));
            (plain, if reuse { freeze_load(&fs, exe, &opts, held) } else { wrap(&fs, exe, &opts) })
        }
        Err(e) => (capture("plain", Err(e)), wrap(&fs, exe, &opts)),
    };
    let wrapped = wrapped.map_err(|e| format!("wrap failed: {e}"));
    Ok(Arm {
        plain,
        binary: fs.peek_file(exe).unwrap().to_vec(),
        wrapped: wrapped.is_ok().then(|| capture("wrapped", load())),
        wrap: wrapped.map(|r| (r.new_needed, r.resolved, r.warnings)),
    })
}

#[test]
fn freezing_the_plain_capture_equals_wrapping_again() {
    let (mut frozen, mut wrap_errors, mut index_errors) = (0, 0, 0);
    for workload in worlds() {
        for backend in MatrixBackend::all() {
            for storage in StorageModel::all() {
                let cell = format!("{}/{}/{}", workload.name(), backend.name(), storage.name());
                let reused = profile(workload.as_ref(), &backend, storage, true);
                let reference = profile(workload.as_ref(), &backend, storage, false);
                assert_eq!(reused, reference, "{cell}: freezing the held load diverged");

                // The profile cache's cell is the three-pass profile.
                let cached =
                    ProfileCache::new().get_or_profile(workload.as_ref(), &backend, storage);
                let outcome = |w: WrapState| -> Capture {
                    cached.outcome(w).clone().map(|o| (o.log.entries, o.unresolved))
                };
                match reference {
                    Ok(arm) => {
                        assert_eq!(outcome(WrapState::Plain), arm.plain, "{cell}: plain");
                        let wrapped = match &arm.wrap {
                            Ok(_) => arm.wrapped.clone().unwrap(),
                            Err(e) => Err(e.clone()),
                        };
                        assert_eq!(outcome(WrapState::Wrapped), wrapped, "{cell}: wrapped");
                        if arm.wrap.is_ok() {
                            frozen += 1;
                        } else {
                            wrap_errors += 1;
                        }
                    }
                    Err(e) => {
                        let e = format!("backend index failed: {e}");
                        assert_eq!(outcome(WrapState::Plain), Err(e.clone()), "{cell}");
                        assert_eq!(outcome(WrapState::Wrapped), Err(e), "{cell}");
                        index_errors += 1;
                    }
                }
            }
        }
    }
    // Every kind of cell is covered: frozen wraps, wraps the backend
    // cannot resolve (the future loader on a RUNPATH world), and worlds
    // the hash store cannot index.
    assert!(
        frozen > 0 && wrap_errors > 0 && index_errors > 0,
        "{frozen}/{wrap_errors}/{index_errors}"
    );
}
