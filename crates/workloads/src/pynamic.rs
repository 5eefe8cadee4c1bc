//! The Fig 6 workload: a Pynamic-style MPI application.
//!
//! **Substitution note (DESIGN.md):** LLNL's Pynamic benchmark builds a
//! python/MPI executable with ~900 generated shared libraries. The paper's
//! "bigexe" configuration lists every module as a needed entry on the
//! executable and places "each of them in its own rpath directory" — the
//! worst case for directory-list search. We generate exactly that layout:
//! `n_libs` libraries, each alone in its own directory, all listed as bare
//! needed entries on the executable whose RUNPATH contains all `n_libs`
//! directories.

use depchaos_elf::{io, ElfObject};
use depchaos_vfs::{Vfs, VfsError};

/// Paper configuration: ~900 shared libraries, 213 MiB executable.
pub const N_LIBS_PAPER: usize = 900;
pub const EXE_SIZE_BYTES: u64 = 213 * 1024 * 1024;

/// The generated layout.
#[derive(Debug, Clone)]
pub struct PynamicWorkload {
    pub exe_path: String,
    pub n_libs: usize,
    pub lib_dirs: Vec<String>,
}

impl PynamicWorkload {
    /// Absolute path of every installed module library (one per directory).
    pub fn lib_paths(&self) -> Vec<String> {
        self.lib_dirs.iter().enumerate().map(|(i, d)| format!("{d}/{}", soname_of(i))).collect()
    }
}

fn dir_of(root: &str, i: usize) -> String {
    format!("{root}/pymodule-{i:03}")
}

fn soname_of(i: usize) -> String {
    format!("libpymodule{i:03}.so")
}

/// Install a Pynamic-like application under `root` with `n_libs` modules.
pub fn install(fs: &Vfs, root: &str, n_libs: usize) -> Result<PynamicWorkload, VfsError> {
    let mut lib_dirs = Vec::with_capacity(n_libs);
    for i in 0..n_libs {
        let dir = dir_of(root, i);
        let lib = ElfObject::dso(soname_of(i)).virtual_size(1 << 20).build();
        io::install(fs, &format!("{dir}/{}", soname_of(i)), &lib)?;
        lib_dirs.push(dir);
    }
    let exe_path = format!("{root}/bin/pynamic-bigexe");
    let exe = ElfObject::exe("pynamic-bigexe")
        .needs_all((0..n_libs).map(soname_of))
        .runpath_all(lib_dirs.clone())
        .virtual_size(EXE_SIZE_BYTES)
        .build();
    io::install(fs, &exe_path, &exe)?;
    Ok(PynamicWorkload { exe_path, n_libs, lib_dirs })
}

/// The RPATH variant: same per-directory module layout, but the executable
/// carries the directory list as `RPATH` rather than `RUNPATH`, and every
/// module is *also* staged into one flat directory (`{root}/flat`) meant for
/// `LD_LIBRARY_PATH`. Loader semantics then diverge observably: glibc
/// consults RPATH before the environment (quadratic directory scan), musl
/// consults the environment first (one flat-directory hit per module) — the
/// cross-backend contrast the scenario matrix measures.
pub fn install_rpath_variant(
    fs: &Vfs,
    root: &str,
    n_libs: usize,
) -> Result<PynamicWorkload, VfsError> {
    let flat = flat_dir(root);
    let mut lib_dirs = Vec::with_capacity(n_libs);
    for i in 0..n_libs {
        let dir = dir_of(root, i);
        let lib = ElfObject::dso(soname_of(i)).virtual_size(1 << 20).build();
        io::install(fs, &format!("{dir}/{}", soname_of(i)), &lib)?;
        io::install(fs, &format!("{flat}/{}", soname_of(i)), &lib)?;
        lib_dirs.push(dir);
    }
    let exe_path = format!("{root}/bin/pynamic-rpath");
    // A modest executable: this variant exists to expose *search-path*
    // semantics, so metadata traffic — not the 213 MiB bigexe transfer —
    // should dominate its launch profile.
    let exe = ElfObject::exe("pynamic-rpath")
        .needs_all((0..n_libs).map(soname_of))
        .rpath_all(lib_dirs.clone())
        .virtual_size(16 << 20)
        .build();
    io::install(fs, &exe_path, &exe)?;
    Ok(PynamicWorkload { exe_path, n_libs, lib_dirs })
}

/// The flat staging directory [`install_rpath_variant`] fills — the
/// `LD_LIBRARY_PATH` entry of that scenario's environment.
pub fn flat_dir(root: &str) -> String {
    format!("{root}/flat")
}

/// The dlopen variant: python modules loaded at runtime rather than linked.
/// "Shrinkwrap applies because even though the libraries and Python modules
/// are loaded dynamically by the application, they are known at build time
/// and included in the needed list" — this layout models the state *before*
/// that inclusion, for the `declare_dlopens` path.
pub fn install_dlopen_variant(
    fs: &Vfs,
    root: &str,
    n_libs: usize,
) -> Result<PynamicWorkload, VfsError> {
    let mut lib_dirs = Vec::with_capacity(n_libs);
    for i in 0..n_libs {
        let dir = dir_of(root, i);
        io::install(fs, &format!("{dir}/{}", soname_of(i)), &ElfObject::dso(soname_of(i)).build())?;
        lib_dirs.push(dir);
    }
    let exe_path = format!("{root}/bin/pynamic-dlopen");
    let mut b = ElfObject::exe("pynamic-dlopen").runpath_all(lib_dirs.clone());
    for i in 0..n_libs {
        b = b.dlopens(soname_of(i));
    }
    io::install(fs, &exe_path, &b.build())?;
    Ok(PynamicWorkload { exe_path, n_libs, lib_dirs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_loader::{Environment, GlibcLoader, Loader};

    #[test]
    fn small_instance_loads() {
        let fs = Vfs::local();
        let w = install(&fs, "/apps/pynamic", 30).unwrap();
        let r = GlibcLoader::new(&fs).with_env(Environment::bare()).load(&w.exe_path).unwrap();
        assert!(r.success(), "{:?}", r.failures);
        assert_eq!(r.library_count(), 30);
    }

    #[test]
    fn search_cost_is_quadratic_in_libs() {
        // Each lib i sits in directory i of the runpath: finding it costs
        // ~i+1 probes, so total stat/openat grows quadratically — the
        // pathology Fig 6 amplifies through NFS.
        let fs = Vfs::local();
        let w = install(&fs, "/apps/pynamic", 40).unwrap();
        let r = GlibcLoader::new(&fs).with_env(Environment::bare()).load(&w.exe_path).unwrap();
        let calls = r.stat_openat();
        let quadratic = (40 * 41) / 2;
        assert!(calls as usize >= quadratic, "expected ≥ {quadratic} probes, got {calls}");
    }

    #[test]
    fn dlopen_variant_wraps_via_declare_dlopens() {
        use depchaos_core::{wrap, OnMissing, ShrinkwrapOptions};
        let fs = Vfs::local();
        let w = install_dlopen_variant(&fs, "/apps/pyd", 25).unwrap();
        let env = Environment::bare();

        // A plain load links nothing: the modules are runtime loads.
        let plain = GlibcLoader::new(&fs).with_env(env.clone()).load(&w.exe_path).unwrap();
        assert_eq!(plain.library_count(), 0);
        // dlopen replay finds them all (searched per call).
        let dl = GlibcLoader::new(&fs).with_env(env.clone()).load_with_dlopen(&w.exe_path).unwrap();
        assert_eq!(dl.library_count(), 25);

        // Shrinkwrap without declaring dlopens freezes nothing but warns.
        // (Wrapping rewrites the binary, so each variant gets a fresh world.)
        let fs_a = Vfs::local();
        let wa = install_dlopen_variant(&fs_a, "/apps/pyd", 25).unwrap();
        let rep = wrap(
            &fs_a,
            &wa.exe_path,
            &ShrinkwrapOptions::new().env(env.clone()).on_missing(OnMissing::Keep),
        )
        .unwrap();
        assert_eq!(rep.frozen_count(), 0);
        assert_eq!(rep.warnings.len(), 25, "one UndeclaredDlopen per module");

        // With declare_dlopens, all 25 are promoted and frozen absolute.
        let rep2 = wrap(
            &fs,
            &w.exe_path,
            &ShrinkwrapOptions::new().env(env.clone()).declare_dlopens(true),
        )
        .unwrap();
        assert_eq!(rep2.frozen_count(), 25);
        let r = GlibcLoader::new(&fs).with_env(env).load(&w.exe_path).unwrap();
        assert_eq!(r.library_count(), 25, "now linked up-front, search-free");
        assert_eq!(r.syscalls.misses, 0);
    }

    #[test]
    fn rpath_variant_diverges_between_glibc_and_musl() {
        use depchaos_loader::MuslLoader;
        let fs = Vfs::local();
        let w = install_rpath_variant(&fs, "/apps/pyr", 20).unwrap();
        let env = Environment::bare().with_ld_library_path(&flat_dir("/apps/pyr"));
        let g = GlibcLoader::new(&fs).with_env(env.clone()).load(&w.exe_path).unwrap();
        let m = MuslLoader::new(&fs).with_env(env).load(&w.exe_path).unwrap();
        assert!(g.success() && m.success());
        // glibc honours RPATH first: quadratic probing of the per-lib dirs.
        assert!(g.stat_openat() as usize >= (20 * 21) / 2);
        // musl checks LD_LIBRARY_PATH first: one flat hit per module.
        assert!((m.stat_openat() as usize) < 3 * 20, "musl went flat: {}", m.stat_openat());
    }

    #[test]
    fn lib_paths_match_layout() {
        let fs = Vfs::local();
        let w = install(&fs, "/a", 5).unwrap();
        let paths = w.lib_paths();
        assert_eq!(paths.len(), 5);
        for p in &paths {
            assert!(fs.exists(p), "{p} installed");
        }
    }

    #[test]
    fn exe_lists_every_module_and_dir() {
        let fs = Vfs::local();
        let w = install(&fs, "/a", 12).unwrap();
        let exe = depchaos_elf::io::peek_object(&fs, &w.exe_path).unwrap();
        assert_eq!(exe.needed.len(), 12);
        assert_eq!(exe.runpath.len(), 12);
        assert_eq!(exe.virtual_size, EXE_SIZE_BYTES);
    }
}
