//! The §III-C *future loader* — the paper's proposal, implemented as an
//! instantiation of the shared [`crate::engine`].
//!
//! > "The constraints we want to express are a combination of options to
//! > inject new paths into the library search path: prepend, append, and
//! > whether to inherit. All but one of the problems listed in Section
//! > III-A can be solved by offering prepend/append and a boolean
//! > propagation flag on each path added to the search space. ... Allowing
//! > the ability to dictate the search space per shared object would give
//! > fine-grained control over the search semantics. This would also solve
//! > the final issue: the ability to load libraries with conflicting
//! > filenames from paths deterministically."
//!
//! Semantics, encoded in [`FutureSearch`] / [`FutureDedup`]:
//!
//! * Each object carries [`depchaos_elf::SearchDir`] entries —
//!   `(dir, Prepend|Append, inherit)` — and [`depchaos_elf::DepPin`]s
//!   mapping a soname to an exact path.
//! * Resolution for a request by object `O`:
//!   1. pins of `O`, then inherited pins of ancestors (nearest first) —
//!      a pin *rewrites* the request to an exact path before dedup runs;
//!   2. prepend dirs of `O`, then inherited prepends of ancestors;
//!   3. `LD_LIBRARY_PATH`;
//!   4. append dirs of `O`, then inherited appends of ancestors;
//!   5. default directories.
//! * Dedup identical in spirit to glibc (request-name/soname/path cache
//!   plus post-open inode identity), so Shrinkwrap-style output still
//!   works.
//!
//! The problems this dissolves, each proven in the tests below:
//! the Qt plugin problem (propagation on demand, not all-or-nothing), the
//! ROCm interference (a library's own paths need not suppress its parent's),
//! the admin-override tension (append = user-overridable, prepend = pinned),
//! and Fig 3 (per-dependency pins).

use depchaos_elf::SearchPosition;
use depchaos_vfs::{intern, PathId, Vfs};

use crate::engine::{Ctx, DedupPolicy, Engine, EngineConfig, SearchPolicy, State};
use crate::resolve::{expand_entry, probe_dir, Candidate, Provenance};

/// The proposal's probe plan: pins rewrite the request; otherwise prepends
/// (own, then inherited), the environment, appends (own, then inherited),
/// then defaults.
pub struct FutureSearch;

impl SearchPolicy for FutureSearch {
    const NAME: &'static str = "future";

    fn rewrite(&self, _cx: &Ctx, st: &State, requester: usize, name: &str) -> Option<String> {
        // Pins are inheritable by default (the proposal leaves this open;
        // inheritance is the useful choice) with the nearest object winning.
        for obj in st.chain(requester) {
            for p in &obj.object.pins {
                if p.soname == name {
                    return Some(expand_entry(&p.path, &obj.path));
                }
            }
        }
        None
    }

    fn locate(
        &self,
        cx: &Ctx,
        st: &State,
        requester: usize,
        name: &str,
    ) -> Option<(Candidate, Provenance)> {
        // Assemble the search list: prepends (own, then inherited), the
        // environment, appends (own, then inherited), defaults.
        let mut dirs: Vec<(String, Provenance)> = Vec::new();
        let collect = |pos: SearchPosition, out: &mut Vec<(String, Provenance)>| {
            for (depth, obj) in st.chain(requester).enumerate() {
                for sd in &obj.object.search_dirs {
                    if sd.position == pos && (depth == 0 || sd.inherit) {
                        out.push((
                            expand_entry(&sd.dir, &obj.path),
                            Provenance::Rpath { owner: obj.object.name.clone() },
                        ));
                    }
                }
            }
        };
        collect(SearchPosition::Prepend, &mut dirs);
        for d in &cx.env.ld_library_path {
            dirs.push((d.clone(), Provenance::LdLibraryPath));
        }
        collect(SearchPosition::Append, &mut dirs);
        for d in &cx.env.default_paths {
            dirs.push((d.clone(), Provenance::DefaultPath));
        }

        for (dir, prov) in dirs {
            if let Some(cand) = probe_dir(cx.fs, &dir, name, cx.want_arch, &cx.env.hwcaps) {
                return Some((cand, prov));
            }
        }
        None
    }
}

/// The proposal keeps glibc's forgiving identity relation (so Shrinkwrap
/// output still loads): one `by_name` table over requested names, sonames,
/// and paths, plus post-open inode identity.
pub struct FutureDedup;

impl DedupPolicy for FutureDedup {
    fn lookup(&self, _cx: &Ctx, st: &mut State, name: PathId) -> Option<usize> {
        st.by_name.get(&name).copied()
    }

    fn absorb(
        &self,
        cx: &Ctx,
        st: &mut State,
        _name: &str,
        cand: &Candidate,
        _provenance: &Provenance,
    ) -> Option<usize> {
        let inode = cx.inode_of(&cand.path)?;
        st.by_inode.get(&inode).copied()
    }

    fn index(&self, _cx: &Ctx, st: &mut State, idx: usize, requested: &str) {
        let soname = intern(st.objects[idx].object.effective_soname());
        let path = intern(&st.objects[idx].path);
        let inode = st.objects[idx].inode;
        st.by_name.entry(intern(requested)).or_insert(idx);
        st.by_name.entry(soname).or_insert(idx);
        st.by_name.entry(path).or_insert(idx);
        st.by_inode.entry(inode).or_insert(idx);
    }
}

/// The proposed loader, bound to one filesystem.
pub type FutureLoader<'fs> = Engine<'fs, FutureSearch, FutureDedup>;

impl<'fs> FutureLoader<'fs> {
    pub fn new(fs: &'fs Vfs) -> Self {
        Engine::with_policies(fs, FutureSearch, FutureDedup, EngineConfig::uncharged())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{assert_same_load, Loader};
    use crate::env::Environment;
    use depchaos_elf::io::install;
    use depchaos_elf::ElfObject;
    use depchaos_elf::SearchPosition::{Append, Prepend};

    #[test]
    fn fig3_paradox_solved_by_pins() {
        let fs = Vfs::local();
        depchaos_workload_paradox(&fs);
        let exe = ElfObject::exe("app")
            .needs("liba.so")
            .needs("libb.so")
            .pin("liba.so", "/opt/dirA/liba.so")
            .pin("libb.so", "/opt/dirB/libb.so")
            .build();
        install(&fs, "/opt/bin/app", &exe).unwrap();
        let r = FutureLoader::new(&fs).with_env(Environment::bare()).load("/opt/bin/app").unwrap();
        assert!(r.success());
        assert_eq!(r.find("liba.so").unwrap().path, "/opt/dirA/liba.so");
        assert_eq!(r.find("libb.so").unwrap().path, "/opt/dirB/libb.so");
    }

    fn depchaos_workload_paradox(fs: &Vfs) {
        for (dir, name) in [
            ("/opt/dirA", "liba.so"),
            ("/opt/dirA", "libb.so"),
            ("/opt/dirB", "liba.so"),
            ("/opt/dirB", "libb.so"),
        ] {
            install(fs, &format!("{dir}/{name}"), &ElfObject::dso(name).build()).unwrap();
        }
    }

    #[test]
    fn qt_problem_solved_by_inheritable_prepend() {
        // RUNPATH's flaw: an app cannot hand search paths to a library's
        // internal loads. An inheritable prepend can.
        let fs = Vfs::local();
        install(
            &fs,
            "/qt/libqtgui.so",
            &ElfObject::dso("libqtgui.so").needs("libqtplugin.so").build(),
        )
        .unwrap();
        install(&fs, "/app/plugins/libqtplugin.so", &ElfObject::dso("libqtplugin.so").build())
            .unwrap();
        let exe = ElfObject::exe("app")
            .needs("libqtgui.so")
            .search_dir("/qt", Prepend, false) // for the direct dep only
            .search_dir("/app/plugins", Prepend, true) // inherited by QtGui
            .build();
        install(&fs, "/app/bin/app", &exe).unwrap();
        let r = FutureLoader::new(&fs).with_env(Environment::bare()).load("/app/bin/app").unwrap();
        assert!(r.success(), "{:?}", r.failures);
        assert_eq!(r.find("libqtplugin.so").unwrap().path, "/app/plugins/libqtplugin.so");
    }

    #[test]
    fn non_inherited_entry_stays_private() {
        // The flip side: a non-inherited prepend does NOT leak into
        // dependencies' searches (RUNPATH's one good property, kept).
        let fs = Vfs::local();
        install(&fs, "/priv/libleak.so", &ElfObject::dso("libleak.so").build()).unwrap();
        install(&fs, "/libs/libmid.so", &ElfObject::dso("libmid.so").needs("libleak.so").build())
            .unwrap();
        let exe = ElfObject::exe("app")
            .needs("libmid.so")
            .search_dir("/libs", Prepend, false)
            .search_dir("/priv", Prepend, false)
            .build();
        install(&fs, "/bin/app", &exe).unwrap();
        let r = FutureLoader::new(&fs).with_env(Environment::bare()).load("/bin/app").unwrap();
        assert!(!r.success(), "libleak must not be visible to libmid");
    }

    #[test]
    fn append_is_user_overridable_prepend_is_not() {
        // The admin-vs-packager tension from §III-A, resolved by choosing
        // the right position per entry.
        let fs = Vfs::local();
        install(&fs, "/pkg/libx.so", &ElfObject::dso("libx.so").build()).unwrap();
        install(&fs, "/override/libx.so", &ElfObject::dso("libx.so").build()).unwrap();
        let env = Environment::bare().with_ld_library_path("/override");

        let pinned =
            ElfObject::exe("pinned").needs("libx.so").search_dir("/pkg", Prepend, false).build();
        install(&fs, "/bin/pinned", &pinned).unwrap();
        let r = FutureLoader::new(&fs).with_env(env.clone()).load("/bin/pinned").unwrap();
        assert_eq!(r.objects[1].path, "/pkg/libx.so", "prepend beats the environment");

        let open =
            ElfObject::exe("open").needs("libx.so").search_dir("/pkg", Append, false).build();
        install(&fs, "/bin/open", &open).unwrap();
        let r = FutureLoader::new(&fs).with_env(env).load("/bin/open").unwrap();
        assert_eq!(r.objects[1].path, "/override/libx.so", "append lets the user override");
    }

    #[test]
    fn rocm_scenario_has_no_interference() {
        // Under glibc, the library's RUNPATH suppressed the app's RPATH and
        // let LD_LIBRARY_PATH hijack transitive loads. Here the library's
        // own (non-inherited) entry and the app's inheritable entry compose:
        // the app's prepend stays in force for the library's dependencies.
        let fs = Vfs::local();
        for v in ["4.3.0", "4.5.0"] {
            let dir = format!("/opt/rocm-{v}/lib");
            install(
                &fs,
                &format!("{dir}/libamdhip64.so"),
                &ElfObject::dso("libamdhip64.so")
                    .needs("libroctracer64.so")
                    .search_dir("$ORIGIN", Append, false)
                    .build(),
            )
            .unwrap();
            install(
                &fs,
                &format!("{dir}/libroctracer64.so"),
                &ElfObject::dso("libroctracer64.so").build(),
            )
            .unwrap();
        }
        let exe = ElfObject::exe("gpu_sim")
            .needs("libamdhip64.so")
            .search_dir("/opt/rocm-4.5.0/lib", Prepend, true)
            .build();
        install(&fs, "/bin/gpu_sim", &exe).unwrap();
        // Hostile module environment pointing at 4.3:
        let env = Environment::bare().with_ld_library_path("/opt/rocm-4.3.0/lib");
        let r = FutureLoader::new(&fs).with_env(env).load("/bin/gpu_sim").unwrap();
        assert!(r.success());
        assert!(
            r.objects.iter().skip(1).all(|o| o.path.starts_with("/opt/rocm-4.5.0")),
            "no mixed versions: {:?}",
            r.paths()
        );
    }

    #[test]
    fn soname_dedup_preserved() {
        // Shrinkwrap-style output still works under the future loader.
        let fs = Vfs::local();
        install(&fs, "/s/liba.so", &ElfObject::dso("liba.so").needs("libb.so").build()).unwrap();
        install(&fs, "/s/libb.so", &ElfObject::dso("libb.so").build()).unwrap();
        let exe = ElfObject::exe("app").needs("/s/liba.so").needs("/s/libb.so").build();
        install(&fs, "/bin/app", &exe).unwrap();
        let r = FutureLoader::new(&fs).with_env(Environment::bare()).load("/bin/app").unwrap();
        assert!(r.success());
        assert_eq!(r.objects.len(), 3);
    }

    #[test]
    fn usable_through_the_loader_trait() {
        // The hinted module exists, so a replay would load it.
        let world = || {
            let fs = Vfs::local();
            install(&fs, "/bin/app", &ElfObject::exe("app").dlopens("/plug/libplug.so").build())
                .unwrap();
            install(&fs, "/plug/libplug.so", &ElfObject::dso("libplug.so").build()).unwrap();
            fs
        };
        let (fs, fs2) = (world(), world());
        let fut = FutureLoader::new(&fs).with_env(Environment::bare());
        let dyn_loader: &dyn Loader = &fut;
        assert_eq!(dyn_loader.name(), "future");
        assert!(dyn_loader.resolves_by_soname());
        assert!(!dyn_loader.supports_dlopen_replay());
        let plain = dyn_loader.load("/bin/app").unwrap();
        assert!(plain.success());
        let fut2 = FutureLoader::new(&fs2).with_env(Environment::bare());
        let dyn_loader: &dyn Loader = &fut2;
        assert_same_load(&plain, &dyn_loader.load_with_dlopen("/bin/app").unwrap());
    }
}
