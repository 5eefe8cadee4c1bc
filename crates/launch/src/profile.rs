//! Capturing one rank's startup op stream.
//!
//! This is the expensive, per-unique-cell step of a sweep: the matrix
//! engine and the serve layer profile each cell once (fanning the work
//! over their worker pools), cache the classified stream, and batch the
//! actual simulations in one [`crate::batch::BatchPlan`] pass — so a
//! profile captured here is reused across every rank point, replicate,
//! and repeat what-if that shares the cell.
//!
//! A cell's profiling run is two loader passes, both through
//! [`profile_load_checked`]: the plain capture, whose [`LoadResult`] the
//! cell then freezes into the binary ([`depchaos_core::freeze_load`])
//! instead of resolving it again, and the wrapped capture.

use depchaos_loader::{LoadError, LoadResult, Loader};
use depchaos_vfs::{StraceLog, Vfs};

/// Replay a cold-cache load of `exe` under any [`Loader`] backend and
/// return its op stream — the input to [`crate::simulate_launch`] — with
/// the [`LoadResult`], so callers can see *how* the load went: a backend
/// can run to completion with unresolved dependencies (musl on a
/// search-path-stripped image, the future loader on a RUNPATH-only world),
/// and the matrix engine records that per cell. The filesystem's backend
/// (local vs NFS, negative caching) determines the per-op costs recorded
/// in the stream.
///
/// Drops caches first, so back-to-back profiles are independent.
pub fn profile_load_checked(
    fs: &Vfs,
    exe: &str,
    loader: &dyn Loader,
) -> Result<(StraceLog, LoadResult), LoadError> {
    fs.drop_caches();
    fs.start_trace();
    let result = loader.load(exe);
    let log = fs.stop_trace();
    result.map(|r| (log, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_elf::io::install;
    use depchaos_elf::ElfObject;
    use depchaos_loader::{Environment, GlibcLoader};

    #[test]
    fn profile_captures_cold_stream() {
        let fs = Vfs::nfs();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("liba.so").runpath("/l").build())
            .unwrap();
        install(&fs, "/l/liba.so", &ElfObject::dso("liba.so").build()).unwrap();
        let glibc = GlibcLoader::new(&fs).with_env(Environment::bare());
        let (log, _) = profile_load_checked(&fs, "/bin/app", &glibc).unwrap();
        assert!(log.stat_openat() >= 2, "exe open + liba probe");
        // Cold NFS: the probes cost a full round trip each.
        assert!(log.entries.iter().any(|e| e.cost_ns >= 200_000));

        // Second profile is identical (drop_caches resets state).
        let (log2, _) = profile_load_checked(&fs, "/bin/app", &glibc).unwrap();
        assert_eq!(log.stat_openat(), log2.stat_openat());
        assert_eq!(log.total_ns(), log2.total_ns());
    }

    #[test]
    fn missing_exe_propagates() {
        let fs = Vfs::nfs();
        let glibc = GlibcLoader::new(&fs).with_env(Environment::bare());
        assert!(profile_load_checked(&fs, "/bin/ghost", &glibc).is_err());
    }

    #[test]
    fn backend_generic_profile_diverges_where_semantics_do() {
        use depchaos_loader::MuslLoader;
        // glibc checks RPATH before LD_LIBRARY_PATH; musl checks the
        // environment first — so the same world produces different op
        // streams, now observable through one profiling entry point.
        let fs = Vfs::nfs();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("liba.so").rpath("/rp").build())
            .unwrap();
        install(&fs, "/rp/liba.so", &ElfObject::dso("liba.so").build()).unwrap();
        install(&fs, "/llp/liba.so", &ElfObject::dso("liba.so").build()).unwrap();
        let env = Environment::bare().with_ld_library_path("/llp");

        let glibc = GlibcLoader::new(&fs).with_env(env.clone());
        let (g, _) = profile_load_checked(&fs, "/bin/app", &glibc).unwrap();
        let musl = MuslLoader::new(&fs).with_env(env);
        let (m, _) = profile_load_checked(&fs, "/bin/app", &musl).unwrap();

        // glibc probes /rp first and hits; musl goes straight to /llp.
        assert!(g.entries.iter().any(|e| e.path_str().starts_with("/rp/")));
        assert!(!m.entries.iter().any(|e| e.path_str().starts_with("/rp/")));
        assert!(m.entries.iter().any(|e| e.path_str().starts_with("/llp/")));
    }
}
