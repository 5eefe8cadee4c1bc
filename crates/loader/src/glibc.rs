//! The glibc `ld.so` model — an instantiation of the shared
//! [`crate::engine`] — and [`glibc_order`], the glibc library search order
//! written once.
//!
//! How a needed entry requested by object `O` resolves (ld.so(8)):
//!
//! 1. Entries containing `/` are opened directly — no search.
//! 2. Otherwise, the dedup cache ([`GlibcDedup`]) is consulted first: any
//!    already-loaded object whose requested name, soname, path, or inode
//!    matches satisfies the request with **zero filesystem work**
//!    (Listing 1's hidden-missing-path effect, and the mechanism Shrinkwrap
//!    relies on).
//! 3. `DT_RPATH` of `O` and its loader-chain ancestors — used only if `O`
//!    itself carries no `DT_RUNPATH`; an ancestor that carries `DT_RUNPATH`
//!    contributes nothing.
//! 4. `LD_LIBRARY_PATH`.
//! 5. `DT_RUNPATH` of `O` only (never inherited).
//! 6. The ld.so.cache.
//! 7. The built-in default directories.
//!
//! Steps 1 and 3–7 are [`glibc_order`], and three resolvers walk it: this
//! loader ([`GlibcSearch`], over the parent links of the objects it
//! mapped, with accounted probes), libtree ([`crate::analyze_tree`], over
//! its depth-first path, with the same probes but no dedup cache) and
//! Shrinkwrap's native strategy (`depchaos_core::native`, with
//! unaccounted peeks). All three walk it through one load's [`Prober`],
//! which resolves each search directory once. The engine opens a `/`
//! entry itself before it asks [`GlibcSearch`], so in the loader step 1
//! happens there.
//!
//! Loading proceeds breadth-first from the executable's needed list;
//! `LD_PRELOAD` objects load immediately after the executable — both driven
//! by [`crate::engine::Engine`], not re-implemented here.

use depchaos_elf::ElfObject;
use depchaos_vfs::{intern, Name, PathId, Vfs};

use crate::engine::{
    identity, Ctx, DedupPolicy, Engine, EngineConfig, Identity, PreloadMode, SearchPolicy, State,
};
use crate::ldcache::LdCache;
use crate::resolve::{Candidate, Entries, Prober, Provenance};

/// Resolve `name` in glibc's order (ld.so(8)): a name containing `/` is
/// opened directly; any other is searched in the RPATH of `chain`
/// (skipped when the requester has a RUNPATH; an ancestor with a RUNPATH
/// contributes nothing), then `LD_LIBRARY_PATH`, the requester's RUNPATH,
/// the ld.so.cache and the default directories, with the environment's
/// hwcaps subdirectories first inside every directory. `$ORIGIN` expands
/// against the path of the object whose entry it is.
///
/// `chain` is the requester followed by its loader-chain ancestors, each
/// with its path. `probe` is the load's prober, over the load's
/// environment: it opens each candidate, in order, and the order stops at
/// the first that exists, parses and matches the architecture.
/// [`GlibcSearch`] and [`crate::analyze_tree`] pass an accounted prober,
/// the native strategy a peeking one.
pub fn glibc_order<'a, C>(
    chain: C,
    name: &str,
    cache: &LdCache,
    probe: &Prober,
) -> Option<(Candidate, Provenance)>
where
    C: IntoIterator<Item = (&'a ElfObject, &'a str)>,
    C::IntoIter: Clone,
{
    if name.contains('/') {
        return probe.exact(name).map(|c| (c, Provenance::DirectPath));
    }
    let chain = chain.into_iter();
    let (requester, requester_path) = chain.clone().next()?;
    let name = Name::new(name);

    if requester.runpath.is_empty() {
        for (obj, path) in chain.filter(|(obj, _)| obj.runpath.is_empty()) {
            if let Some(c) = probe.first(&probe.object(obj, path, Entries::Rpath), name) {
                return Some((c, Provenance::Rpath { owner: obj.name.clone() }));
            }
        }
    }
    if let Some(c) = probe.first(&probe.ld_library_path(), name) {
        return Some((c, Provenance::LdLibraryPath));
    }
    let runpath = probe.object(requester, requester_path, Entries::Runpath);
    if let Some(c) = probe.first(&runpath, name) {
        return Some((c, Provenance::Runpath { owner: requester.name.clone() }));
    }
    if let Some(c) = cache.lookup(name.as_str(), probe.want_arch()).and_then(|p| probe.exact(p)) {
        return Some((c, Provenance::LdSoCache));
    }
    probe.first(&probe.defaults(), name).map(|c| (c, Provenance::DefaultPath))
}

/// glibc's probe plan: [`glibc_order`] over the requester's parent links,
/// with accounted probes.
pub struct GlibcSearch {
    pub cache: LdCache,
}

impl SearchPolicy for GlibcSearch {
    const NAME: &'static str = "glibc";
    const DLOPEN_REPLAY: bool = true;

    fn locate(
        &self,
        cx: &Ctx,
        st: &State,
        requester: usize,
        name: &str,
    ) -> Option<(Candidate, Provenance)> {
        let chain = st.chain(requester).map(|o| (&o.object, o.path.as_str()));
        glibc_order(chain, name, &self.cache, &cx.probe)
    }
}

/// glibc's identity relation: a request is satisfied by any loaded object
/// matching on requested name, soname, probed path, canonical path, or
/// inode.
pub struct GlibcDedup;

impl GlibcDedup {
    /// Record the alias and make `name` answerable from the soname cache.
    fn alias(&self, st: &mut State, idx: usize, name: PathId) {
        st.alias(idx, name.as_str());
        st.by_name.entry(name).or_insert(idx);
    }

    /// Path-identity check, first half: the probed path.
    fn by_path(&self, st: &mut State, path: PathId) -> Option<usize> {
        let idx = *st.by_path.get(&path)?;
        self.alias(st, idx, path);
        Some(idx)
    }

    /// Path-identity check, second half: the canonical path, then the
    /// inode (symlinked stores make all three distinct). `path` is the
    /// probed path whose identity `id` is.
    fn by_identity(&self, st: &mut State, path: PathId, id: &Identity) -> Option<usize> {
        let idx = st
            .by_path
            .get(&intern(&id.canonical))
            .copied()
            .or_else(|| id.inode.and_then(|i| st.by_inode.get(&i).copied()))?;
        self.alias(st, idx, path);
        Some(idx)
    }
}

impl DedupPolicy for GlibcDedup {
    fn lookup(
        &self,
        cx: &Ctx,
        st: &mut State,
        name: PathId,
        known: &mut Option<Identity>,
    ) -> Option<usize> {
        let text = name.as_str();
        if text.contains('/') {
            self.by_path(st, name).or_else(|| {
                let id = known.get_or_insert_with(|| identity(cx.fs, text));
                self.by_identity(st, name, id)
            })
        } else {
            let idx = *st.by_name.get(&name)?;
            self.alias(st, idx, name);
            Some(idx)
        }
    }

    fn absorb(
        &self,
        _cx: &Ctx,
        st: &mut State,
        _name: &str,
        cand: &Candidate,
        id: &Identity,
        _provenance: &Provenance,
    ) -> Option<usize> {
        // The search may have found a file that is already mapped under a
        // different name (hard identity): glibc checks dev/ino after open.
        let path = intern(&cand.path);
        self.by_path(st, path).or_else(|| self.by_identity(st, path, id))
    }

    fn index(&self, _cx: &Ctx, st: &mut State, idx: usize, requested: &str) {
        let soname = intern(st.objects[idx].object.effective_soname());
        let path = intern(&st.objects[idx].path);
        let canonical = intern(&st.objects[idx].canonical);
        let inode = st.objects[idx].inode;
        st.by_name.entry(intern(requested)).or_insert(idx);
        st.by_name.entry(soname).or_insert(idx);
        st.by_path.entry(path).or_insert(idx);
        st.by_path.entry(canonical).or_insert(idx);
        st.by_inode.entry(inode).or_insert(idx);
    }
}

/// A glibc-semantics loader bound to one filesystem.
pub type GlibcLoader<'fs> = Engine<'fs, GlibcSearch, GlibcDedup>;

impl<'fs> GlibcLoader<'fs> {
    pub fn new(fs: &'fs Vfs) -> Self {
        Engine::with_policies(
            fs,
            GlibcSearch { cache: LdCache::empty() },
            GlibcDedup,
            EngineConfig::charged(PreloadMode::SkipStatic),
        )
    }

    /// Verify the `PT_INTERP` interpreter exists before loading, like the
    /// kernel's `execve` does. Off by default (most fixtures don't install
    /// an ld.so); the NixOS §II-D compatibility tests turn it on.
    pub fn with_strict_interp(mut self, yes: bool) -> Self {
        self.config.strict_interp = yes;
        self
    }

    pub fn with_cache(mut self, cache: LdCache) -> Self {
        self.search.cache = cache;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Loader;
    use crate::env::Environment;
    use crate::resolve::Resolution;
    use crate::result::LoadError;
    use depchaos_elf::io::install;
    use depchaos_elf::{ElfObject, Machine};

    /// exe -> liba -> libb, all findable via default paths.
    fn simple_world() -> Vfs {
        let fs = Vfs::local();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("liba.so").build()).unwrap();
        install(&fs, "/usr/lib/liba.so", &ElfObject::dso("liba.so").needs("libb.so").build())
            .unwrap();
        install(&fs, "/usr/lib/libb.so", &ElfObject::dso("libb.so").build()).unwrap();
        fs
    }

    #[test]
    fn loads_transitive_closure_bfs() {
        let fs = simple_world();
        let r = GlibcLoader::new(&fs).load("/bin/app").unwrap();
        assert!(r.success());
        assert_eq!(r.paths(), vec!["/bin/app", "/usr/lib/liba.so", "/usr/lib/libb.so"]);
        assert_eq!(r.objects[1].provenance, Provenance::DefaultPath);
        assert_eq!(r.objects[2].parent, Some(1));
    }

    #[test]
    fn missing_exe() {
        let fs = Vfs::local();
        assert!(matches!(GlibcLoader::new(&fs).load("/bin/ghost"), Err(LoadError::ExeNotFound(_))));
    }

    #[test]
    fn missing_dep_recorded_not_fatal() {
        let fs = Vfs::local();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("libgone.so").build()).unwrap();
        let r = GlibcLoader::new(&fs).load("/bin/app").unwrap();
        assert!(!r.success());
        assert_eq!(r.failures[0].name, "libgone.so");
    }

    #[test]
    fn rpath_beats_ld_library_path_and_runpath_loses() {
        let fs = Vfs::local();
        install(&fs, "/rp/libx.so", &ElfObject::dso("libx.so").build()).unwrap();
        install(&fs, "/llp/libx.so", &ElfObject::dso("libx.so").build()).unwrap();
        install(
            &fs,
            "/bin/rp_app",
            &ElfObject::exe("rp_app").needs("libx.so").rpath("/rp").build(),
        )
        .unwrap();
        install(
            &fs,
            "/bin/runp_app",
            &ElfObject::exe("runp_app").needs("libx.so").runpath("/rp").build(),
        )
        .unwrap();
        let env = Environment::bare().with_ld_library_path("/llp");

        // Table I row 1: RPATH searched before LD_LIBRARY_PATH.
        let r = GlibcLoader::new(&fs).with_env(env.clone()).load("/bin/rp_app").unwrap();
        assert_eq!(r.objects[1].path, "/rp/libx.so");
        assert_eq!(r.objects[1].provenance, Provenance::Rpath { owner: "rp_app".into() });

        // Table I row 2: RUNPATH searched after LD_LIBRARY_PATH.
        let r = GlibcLoader::new(&fs).with_env(env).load("/bin/runp_app").unwrap();
        assert_eq!(r.objects[1].path, "/llp/libx.so");
        assert_eq!(r.objects[1].provenance, Provenance::LdLibraryPath);
    }

    #[test]
    fn rpath_propagates_runpath_does_not() {
        // exe needs liba; liba (no paths of its own) needs libdeep.
        // libdeep lives only in /deep, referenced from the exe's search path.
        for (attr, should_find) in [("rpath", true), ("runpath", false)] {
            let fs = Vfs::local();
            install(
                &fs,
                "/usr/lib/liba.so",
                &ElfObject::dso("liba.so").needs("libdeep.so").build(),
            )
            .unwrap();
            install(&fs, "/deep/libdeep.so", &ElfObject::dso("libdeep.so").build()).unwrap();
            let exe = if attr == "rpath" {
                ElfObject::exe("app").needs("liba.so").rpath("/deep").build()
            } else {
                ElfObject::exe("app").needs("liba.so").runpath("/deep").build()
            };
            install(&fs, "/bin/app", &exe).unwrap();
            let r = GlibcLoader::new(&fs).load("/bin/app").unwrap();
            assert_eq!(
                r.success(),
                should_find,
                "Table I row 3: {attr} propagation expected {should_find}"
            );
        }
    }

    #[test]
    fn runpath_on_requester_disables_whole_rpath_chain() {
        // exe has RPATH /deep (which contains libdeep); liba has a RUNPATH
        // (pointing anywhere) → when liba requests libdeep, the exe's RPATH
        // must NOT be consulted (the ROCm failure mode, §V-B.1).
        let fs = Vfs::local();
        install(
            &fs,
            "/usr/lib/liba.so",
            &ElfObject::dso("liba.so").needs("libdeep.so").runpath("/somewhere/else").build(),
        )
        .unwrap();
        install(&fs, "/deep/libdeep.so", &ElfObject::dso("libdeep.so").build()).unwrap();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("liba.so").rpath("/deep").rpath("/usr/lib").build(),
        )
        .unwrap();
        let r = GlibcLoader::new(&fs).load("/bin/app").unwrap();
        assert!(!r.success(), "libdeep must not be found through the suppressed chain");
    }

    #[test]
    fn soname_dedup_satisfies_missing_path() {
        // Listing 1: libfirst (correct runpath) loads libshared; libsecond
        // has NO search path for libshared but works because it was already
        // loaded — and no filesystem probing happens for the dedup.
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app")
                .needs("libfirst.so")
                .needs("libsecond.so")
                .runpath("/libs")
                .build(),
        )
        .unwrap();
        install(
            &fs,
            "/libs/libfirst.so",
            &ElfObject::dso("libfirst.so").needs("libshared.so").runpath("/hidden").build(),
        )
        .unwrap();
        install(
            &fs,
            "/libs/libsecond.so",
            &ElfObject::dso("libsecond.so").needs("libshared.so").build(),
        )
        .unwrap();
        install(&fs, "/hidden/libshared.so", &ElfObject::dso("libshared.so").build()).unwrap();
        let r = GlibcLoader::new(&fs).load("/bin/app").unwrap();
        assert!(r.success());
        let dedup_event =
            r.events.iter().find(|e| e.requester == 2 && e.name == "libshared.so").unwrap();
        assert!(matches!(dedup_event.resolution, Resolution::Deduped { .. }));
    }

    #[test]
    fn absolute_needed_loads_directly_and_dedups_by_soname() {
        // A shrinkwrapped binary: absolute path needed + transitive bare
        // request satisfied via soname dedup (Fig 5's libac.so example).
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
        let r = GlibcLoader::new(&fs).load("/bin/app").unwrap();
        assert!(r.success());
        assert_eq!(r.objects.len(), 3);
        let e = r.events.iter().find(|e| e.name == "libac.so").unwrap();
        assert!(matches!(e.resolution, Resolution::Deduped { .. }));
    }

    #[test]
    fn ld_so_cache_consulted_before_defaults() {
        let fs = Vfs::local();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("libz.so.1").build()).unwrap();
        install(&fs, "/cached/libz.so.1", &ElfObject::dso("libz.so.1").build()).unwrap();
        install(&fs, "/usr/lib/libz.so.1", &ElfObject::dso("libz.so.1").build()).unwrap();
        let cache = LdCache::ldconfig(&fs, &["/cached".to_string()]);
        let r = GlibcLoader::new(&fs).with_cache(cache).load("/bin/app").unwrap();
        assert_eq!(r.objects[1].path, "/cached/libz.so.1");
        assert_eq!(r.objects[1].provenance, Provenance::LdSoCache);
    }

    #[test]
    fn preload_loads_first_and_interposes() {
        use depchaos_elf::Symbol;
        let fs = Vfs::local();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("libreal.so").build()).unwrap();
        install(
            &fs,
            "/usr/lib/libreal.so",
            &ElfObject::dso("libreal.so").defines(Symbol::strong("malloc")).build(),
        )
        .unwrap();
        install(
            &fs,
            "/tools/libwrap.so",
            &ElfObject::dso("libwrap.so").defines(Symbol::strong("malloc")).build(),
        )
        .unwrap();
        let env = Environment::default().with_preload("/tools/libwrap.so");
        let r = GlibcLoader::new(&fs).with_env(env).load("/bin/app").unwrap();
        assert_eq!(r.objects[1].path, "/tools/libwrap.so");
        assert_eq!(r.bindings()["malloc"], "/tools/libwrap.so");
    }

    #[test]
    fn wrong_arch_candidate_shadowed_by_later_dir() {
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("libm.so").runpath("/mixed").runpath("/good").build(),
        )
        .unwrap();
        install(&fs, "/mixed/libm.so", &ElfObject::dso("libm.so").machine(Machine::X86).build())
            .unwrap();
        install(&fs, "/good/libm.so", &ElfObject::dso("libm.so").build()).unwrap();
        let r = GlibcLoader::new(&fs).load("/bin/app").unwrap();
        assert!(r.success());
        assert_eq!(r.objects[1].path, "/good/libm.so");
    }

    #[test]
    fn dlopen_uses_callers_paths() {
        // libplugin loadable only through libhost's runpath; the exe has no
        // path to it. dlopen from libhost works; from the exe it wouldn't.
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("libhost.so").runpath("/libs").build(),
        )
        .unwrap();
        install(
            &fs,
            "/libs/libhost.so",
            &ElfObject::dso("libhost.so").runpath("/plugins").dlopens("libplugin.so").build(),
        )
        .unwrap();
        install(&fs, "/plugins/libplugin.so", &ElfObject::dso("libplugin.so").build()).unwrap();
        let r = GlibcLoader::new(&fs).load_with_dlopen("/bin/app").unwrap();
        assert!(r.success());
        assert!(r.find("libplugin.so").is_some());
        // without dlopen replay it is not loaded
        let r2 = GlibcLoader::new(&fs).load("/bin/app").unwrap();
        assert!(r2.find("libplugin.so").is_none());
    }

    #[test]
    fn a_candidate_has_its_identity_computed_once() {
        use crate::engine::IDENTITIES;
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app")
                .needs("liba.so")
                .needs("/l/libb.so")
                .needs("/l/link.so")
                .needs("/l/gone.so")
                .runpath("/l")
                .build(),
        )
        .unwrap();
        install(&fs, "/l/liba.so", &ElfObject::dso("liba.so").needs("libb.so").build()).unwrap();
        install(&fs, "/l/libb.so", &ElfObject::dso("libb.so").build()).unwrap();
        fs.symlink("/l/link.so", "libb.so").unwrap();
        IDENTITIES.with(|n| n.set(0));
        let r = GlibcLoader::new(&fs).with_env(Environment::bare()).load("/bin/app").unwrap();
        assert_eq!(r.objects.len(), 3);
        assert!(matches!(r.events[2].resolution, Resolution::Deduped { .. }), "alias of libb");
        assert_eq!(r.failures.len(), 1);
        // One per opened candidate (the executable, liba, libb: the direct
        // path's pre-search check computes the identity its open reuses),
        // plus the pre-search checks of the alias and the missing path.
        // liba's bare `libb.so` is answered by soname, with no identity.
        assert_eq!(IDENTITIES.with(|n| n.get()), 5);
    }

    #[test]
    fn load_is_deterministic() {
        let fs = simple_world();
        let a = GlibcLoader::new(&fs).load("/bin/app").unwrap();
        let b = GlibcLoader::new(&fs).load("/bin/app").unwrap();
        assert_eq!(a.paths(), b.paths());
        // second run is warmer, never slower
        assert!(b.time_ns <= a.time_ns);
    }

    #[test]
    fn loader_trait_object_works() {
        let fs = simple_world();
        let plugged = ElfObject::exe("plugged").needs("liba.so").dlopens("libplug.so").build();
        install(&fs, "/bin/plugged", &plugged).unwrap();
        install(&fs, "/usr/lib/libplug.so", &ElfObject::dso("libplug.so").build()).unwrap();
        let glibc = GlibcLoader::new(&fs);
        let dyn_loader: &dyn Loader = &glibc;
        assert_eq!(dyn_loader.name(), "glibc");
        assert!(dyn_loader.resolves_by_soname());
        assert!(dyn_loader.supports_dlopen_replay());
        let r = dyn_loader.load("/bin/app").unwrap();
        assert!(r.success());
        assert_eq!(r.objects.len(), 3);
        let r = dyn_loader.load_with_dlopen("/bin/plugged").unwrap();
        assert_eq!(
            r.paths(),
            vec!["/bin/plugged", "/usr/lib/liba.so", "/usr/lib/libb.so", "/usr/lib/libplug.so"]
        );
        assert!(dyn_loader.load("/bin/plugged").unwrap().find("libplug.so").is_none());
    }
}
