//! The musl `ld.so` model — the divergent semantics that make Shrinkwrap
//! glibc-only (§IV) — as an instantiation of the shared [`crate::engine`].
//!
//! Differences from glibc, all load-bearing for the paper and all encoded
//! in the two policy values below:
//!
//! * **No soname cache** ([`MuslDedup`]). Dedup happens by requested-name
//!   string (for bare names, against the *shortname* of libraries that were
//!   themselves loaded by bare name) and by `(dev,inode)` after opening a
//!   candidate. An object loaded via an absolute path does **not** satisfy
//!   a later bare-soname request unless the search happens to find the same
//!   file — so a shrinkwrapped binary may load duplicates or fail outright.
//! * **RPATH ≡ RUNPATH** ([`MuslSearch`]), both inherited through the
//!   `needed_by` chain but searched **after** `LD_LIBRARY_PATH` (musl
//!   `dynlink.c`: `env_path` first, then the requester chain's rpath, then
//!   the system path). The paper notes this meld "would actually solve a
//!   number of problems with RUNPATH, but ... is non-standard".
//! * No hwcaps subdirectories, no ld.so.cache.

use depchaos_vfs::{intern, Name, PathId, Vfs};

use crate::engine::{
    Ctx, DedupPolicy, Engine, EngineConfig, Identity, PreloadMode, SearchPolicy, State,
};
use crate::resolve::{Candidate, Entries, Provenance};

/// musl's probe plan: `LD_LIBRARY_PATH` first, then the requester chain's
/// melded RPATH+RUNPATH (inherited), then the system path. No hwcaps, no
/// cache.
pub struct MuslSearch;

impl SearchPolicy for MuslSearch {
    const NAME: &'static str = "musl";
    const HWCAPS: bool = false;

    fn locate(
        &self,
        cx: &Ctx,
        st: &State,
        requester: usize,
        name: &str,
    ) -> Option<(Candidate, Provenance)> {
        let probe = &cx.probe;
        let name = Name::new(name);
        // musl search order: env_path FIRST...
        if let Some(cand) = probe.first(&probe.ld_library_path(), name) {
            return Some((cand, Provenance::LdLibraryPath));
        }

        // ...then the requester chain's rpath (RPATH and RUNPATH melded,
        // both inherited)...
        for obj in st.chain(requester) {
            for entries in [Entries::Rpath, Entries::Runpath] {
                let dirs = probe.object(&obj.object, &obj.path, entries);
                if let Some(cand) = probe.first(&dirs, name) {
                    return Some((cand, Provenance::Rpath { owner: obj.object.name.clone() }));
                }
            }
        }

        // ...then the system path.
        probe.first(&probe.defaults(), name).map(|cand| (cand, Provenance::DefaultPath))
    }
}

/// musl's identity relation: shortnames (bare-name loads only) plus
/// `(dev,inode)` after open. Pathname requests are never pre-deduped — musl
/// opens first and compares inodes.
pub struct MuslDedup;

impl MuslDedup {
    /// musl sets a library's shortname only when the library was found by
    /// name *search* — an absolute needed entry never enters the table.
    fn by_search(provenance: &Provenance) -> bool {
        matches!(
            provenance,
            Provenance::Rpath { .. }
                | Provenance::Runpath { .. }
                | Provenance::LdLibraryPath
                | Provenance::LdSoCache
                | Provenance::DefaultPath
        )
    }
}

impl DedupPolicy for MuslDedup {
    const BY_SONAME: bool = false;

    fn lookup(
        &self,
        _cx: &Ctx,
        st: &mut State,
        name: PathId,
        _identity: &mut Option<Identity>,
    ) -> Option<usize> {
        if name.as_str().contains('/') {
            // Direct path: open, then (dev,ino) dedup only.
            return None;
        }
        // Bare name: shortname dedup (absolute-loaded objects not indexed).
        let idx = *st.by_name.get(&name)?;
        st.alias(idx, name.as_str());
        Some(idx)
    }

    fn absorb(
        &self,
        _cx: &Ctx,
        st: &mut State,
        name: &str,
        _cand: &Candidate,
        id: &Identity,
        provenance: &Provenance,
    ) -> Option<usize> {
        // (dev,ino) dedup after open — musl's only cross-name dedup.
        let inode = id.inode?;
        let idx = *st.by_inode.get(&inode)?;
        if Self::by_search(provenance) {
            st.by_name.entry(intern(name)).or_insert(idx);
        }
        st.alias(idx, name);
        Some(idx)
    }

    fn index(&self, _cx: &Ctx, st: &mut State, idx: usize, requested: &str) {
        if Self::by_search(&st.objects[idx].provenance) {
            st.by_name.entry(intern(requested)).or_insert(idx);
        }
        st.by_inode.entry(st.objects[idx].inode).or_insert(idx);
    }
}

/// A musl-semantics loader bound to one filesystem.
pub type MuslLoader<'fs> = Engine<'fs, MuslSearch, MuslDedup>;

impl<'fs> MuslLoader<'fs> {
    pub fn new(fs: &'fs Vfs) -> Self {
        Engine::with_policies(fs, MuslSearch, MuslDedup, EngineConfig::charged(PreloadMode::Always))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{assert_same_load, Loader};
    use crate::env::Environment;
    use crate::resolve::Resolution;
    use depchaos_elf::io::install;
    use depchaos_elf::ElfObject;

    #[test]
    fn env_path_beats_rpath_under_musl() {
        // Opposite priority from glibc's RPATH: Table I does not hold here.
        let fs = Vfs::local();
        install(&fs, "/rp/libx.so", &ElfObject::dso("libx.so").build()).unwrap();
        install(&fs, "/llp/libx.so", &ElfObject::dso("libx.so").build()).unwrap();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("libx.so").rpath("/rp").build())
            .unwrap();
        let env = Environment::bare().with_ld_library_path("/llp");
        let r = MuslLoader::new(&fs).with_env(env).load("/bin/app").unwrap();
        assert_eq!(r.objects[1].path, "/llp/libx.so");
    }

    #[test]
    fn runpath_propagates_under_musl() {
        // glibc would fail this (RUNPATH does not propagate); musl inherits.
        let fs = Vfs::local();
        install(&fs, "/usr/lib/liba.so", &ElfObject::dso("liba.so").needs("libdeep.so").build())
            .unwrap();
        install(&fs, "/deep/libdeep.so", &ElfObject::dso("libdeep.so").build()).unwrap();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("liba.so").runpath("/deep").build())
            .unwrap();
        let r = MuslLoader::new(&fs).load("/bin/app").unwrap();
        assert!(r.success(), "musl inherits runpath through the chain");
    }

    #[test]
    fn absolute_needed_does_not_satisfy_bare_request() {
        // The Shrinkwrap-on-musl incompatibility: /store/a/libac.so is
        // loaded by path; libxyz's bare request for libac.so is NOT deduped
        // by soname. With no search path to find it, the load fails.
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("/store/x/libxyz.so").needs("/store/a/libac.so").build(),
        )
        .unwrap();
        install(&fs, "/store/x/libxyz.so", &ElfObject::dso("libxyz.so").needs("libac.so").build())
            .unwrap();
        install(&fs, "/store/a/libac.so", &ElfObject::dso("libac.so").build()).unwrap();
        let r = MuslLoader::new(&fs).load("/bin/app").unwrap();
        assert!(!r.success(), "musl cannot resolve the bare libac.so");
        assert_eq!(r.failures[0].name, "libac.so");
    }

    #[test]
    fn inode_dedup_rescues_same_file() {
        // If the bare search finds the *same file* the absolute entry
        // loaded, musl dedups by inode and the program works.
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app")
                .needs("/store/x/libxyz.so")
                .needs("/store/a/libac.so")
                .rpath("/store/a")
                .build(),
        )
        .unwrap();
        install(
            &fs,
            "/store/x/libxyz.so",
            &ElfObject::dso("libxyz.so").needs("libac.so").rpath("/store/a").build(),
        )
        .unwrap();
        install(&fs, "/store/a/libac.so", &ElfObject::dso("libac.so").build()).unwrap();
        let r = MuslLoader::new(&fs).load("/bin/app").unwrap();
        assert!(r.success());
        assert_eq!(r.objects.len(), 3, "no duplicate copy of libac.so");
        let e = r.events.iter().find(|e| e.name == "libac.so" && e.requester == 1).unwrap();
        assert!(matches!(e.resolution, Resolution::Deduped { .. }));
    }

    #[test]
    fn musl_preload_interposes_too() {
        use depchaos_elf::Symbol;
        let fs = Vfs::local();
        install(
            &fs,
            "/usr/lib/libreal.so",
            &ElfObject::dso("libreal.so").defines(Symbol::strong("write")).build(),
        )
        .unwrap();
        install(
            &fs,
            "/tools/libshim.so",
            &ElfObject::dso("libshim.so").defines(Symbol::strong("write")).build(),
        )
        .unwrap();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("libreal.so").build()).unwrap();
        let env = Environment::default().with_preload("/tools/libshim.so");
        let r = MuslLoader::new(&fs).with_env(env).load("/bin/app").unwrap();
        assert!(r.success());
        assert_eq!(r.bindings()["write"], "/tools/libshim.so");
    }

    #[test]
    fn divergence_from_glibc_on_same_image() {
        // One filesystem, two loaders, different outcomes — the §IV claim.
        use crate::glibc::GlibcLoader;
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("/store/x/libxyz.so").needs("/store/a/libac.so").build(),
        )
        .unwrap();
        install(&fs, "/store/x/libxyz.so", &ElfObject::dso("libxyz.so").needs("libac.so").build())
            .unwrap();
        install(&fs, "/store/a/libac.so", &ElfObject::dso("libac.so").build()).unwrap();
        assert!(GlibcLoader::new(&fs).load("/bin/app").unwrap().success());
        assert!(!MuslLoader::new(&fs).load("/bin/app").unwrap().success());
    }

    #[test]
    fn loader_trait_reports_musl_capabilities() {
        // The hinted module exists, so a replay would load it.
        let world = || {
            let fs = Vfs::local();
            install(&fs, "/bin/app", &ElfObject::exe("app").dlopens("/usr/lib/libplug.so").build())
                .unwrap();
            install(&fs, "/usr/lib/libplug.so", &ElfObject::dso("libplug.so").build()).unwrap();
            fs
        };
        let (fs, fs2) = (world(), world());
        let musl = MuslLoader::new(&fs);
        let dyn_loader: &dyn Loader = &musl;
        assert_eq!(dyn_loader.name(), "musl");
        assert!(!dyn_loader.resolves_by_soname(), "the §IV incompatibility, queryable");
        assert!(!dyn_loader.supports_dlopen_replay());
        let plain = dyn_loader.load("/bin/app").unwrap();
        assert!(plain.success());
        let musl2 = MuslLoader::new(&fs2);
        let dyn_loader: &dyn Loader = &musl2;
        assert_same_load(&plain, &dyn_loader.load_with_dlopen("/bin/app").unwrap());
    }
}
