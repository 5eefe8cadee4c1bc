//! The wrap operation itself.
//!
//! A wrap is two steps: a *resolution* of the binary's closure, then a
//! *freeze-and-rewrite* of that closure into its `DT_NEEDED`. [`fn@wrap`]
//! runs both. [`freeze_load`] runs only the second, on a loader backend's
//! load the caller already holds — a caller that has just loaded the
//! binary (the launch profiler's plain capture) does not pay for the same
//! resolution twice. Both go through the one freeze-and-rewrite below.

use std::collections::{HashMap, HashSet};

use depchaos_elf::{io, ElfEditor, ElfObject, SymbolBinding};
use depchaos_loader::LoadResult;
use depchaos_vfs::Vfs;

use crate::native::resolve_closure;
use crate::options::{OnMissing, ShrinkwrapOptions, Strategy};
use crate::report::{WrapError, WrapReport, WrapWarning};

/// Shrinkwrap `binary_path` in place: resolve its full transitive closure
/// under the configured strategy, lift it to the top level, and freeze
/// every entry as an absolute path.
///
/// Under [`Strategy::Backend`] the resolution is one load of the binary
/// through the backend, under `opts`' environment and ld.so.cache, and
/// the rest is exactly [`freeze_load`] of that load. Under
/// [`Strategy::Native`] it is [`crate::native::resolve_closure`], the
/// glibc search order walked without loading.
///
/// With [`ShrinkwrapOptions::declare_dlopens`] the binary's `dlopen` hints
/// are first promoted into its needed list, so the resolution sees and
/// freezes them. A wrap that fails to resolve leaves the binary as it
/// found it, a promoted needed list included.
pub fn wrap(
    fs: &Vfs,
    binary_path: &str,
    opts: &ShrinkwrapOptions,
) -> Result<WrapReport, WrapError> {
    let target = Target::open(fs, binary_path)?;
    if !opts.declare_dlopens {
        return resolve(fs, binary_path, opts).and_then(|closure| target.freeze(closure, opts));
    }

    // §IV: "adding the names of these libraries to the needed section
    // before using Shrinkwrap allows Shrinkwrap to resolve them as well".
    // When the wrap then fails, the promotion is rolled back before the
    // error propagates.
    let mut extended = target.original.needed.clone();
    for d in &target.original.dlopens {
        if !extended.contains(d) {
            extended.push(d.clone());
        }
    }
    target.set_needed(extended)?;
    let wrapped = resolve(fs, binary_path, opts).and_then(|closure| target.freeze(closure, opts));
    if wrapped.is_err() {
        let _ = target.set_needed(target.original.needed.clone());
    }
    wrapped
}

/// Shrinkwrap `binary_path` in place from a load of it the caller already
/// ran: the freeze-and-rewrite half of [`fn@wrap`], with no resolution of
/// its own. It charges no accounted syscall.
///
/// Preconditions, each checked before anything is read or written and
/// rejected with its own [`WrapError`] (never by resolving afresh):
///
/// * `opts.declare_dlopens` is off — the promotion edits a needed list the
///   load never saw ([`WrapError::FreezeDeclaresDlopens`]);
/// * `opts.strategy` is a [`Strategy::Backend`] — only a loader's load can
///   be frozen ([`WrapError::FreezeNotBackend`]);
/// * the load's root object is `binary_path`
///   ([`WrapError::FreezeForeignLoad`]).
///
/// What it cannot check is the caller's to keep: `load` must come from
/// `opts`' backend, environment and ld.so.cache on this `fs`, with no
/// write to `fs` since. The result is then byte-for-byte what
/// [`fn@wrap`] would produce, because a load only reads the filesystem.
/// `load` is taken by value: its parsed objects feed the
/// duplicate-symbol scan.
pub fn freeze_load(
    fs: &Vfs,
    binary_path: &str,
    opts: &ShrinkwrapOptions,
    load: LoadResult,
) -> Result<WrapReport, WrapError> {
    if opts.declare_dlopens {
        return Err(WrapError::FreezeDeclaresDlopens(binary_path.to_string()));
    }
    if !matches!(opts.strategy, Strategy::Backend(_)) {
        return Err(WrapError::FreezeNotBackend {
            binary: binary_path.to_string(),
            strategy: opts.strategy.name().to_string(),
        });
    }
    let root = load.objects.first().map_or("", |o| o.path.as_str());
    if root != binary_path {
        return Err(WrapError::FreezeForeignLoad {
            binary: binary_path.to_string(),
            root: root.to_string(),
        });
    }
    Target::open(fs, binary_path)?.freeze(Closure::of_load(binary_path, load), opts)
}

/// A resolved closure: one `(requester, requested name, resolved path)`
/// entry per needed-entry request, in load order (the path `None` where
/// the request resolved nowhere), plus the objects the resolution already
/// parsed, keyed by path, so the symbol scan does not re-open them.
struct Closure {
    requests: Vec<(String, String, Option<String>)>,
    parsed: HashMap<String, ElfObject>,
}

impl Closure {
    /// What a backend load resolved: every object after the executable,
    /// under the first name it was requested as, then every failure.
    fn of_load(binary_path: &str, load: LoadResult) -> Closure {
        let mut requests: Vec<(String, String, Option<String>)> = load
            .objects
            .iter()
            .skip(1) // the executable itself
            .map(|o| {
                let requester = o
                    .parent
                    .map(|p| load.objects[p].path.clone())
                    .unwrap_or_else(|| binary_path.to_string());
                (requester, o.requested_as[0].clone(), Some(o.path.clone()))
            })
            .collect();
        for f in load.failures {
            requests.push((f.requester, f.name, None));
        }
        let parsed = load.objects.into_iter().map(|o| (o.path, o.object)).collect();
        Closure { requests, parsed }
    }
}

/// The resolution half of [`fn@wrap`], under the configured strategy.
fn resolve(fs: &Vfs, binary_path: &str, opts: &ShrinkwrapOptions) -> Result<Closure, WrapError> {
    match &opts.strategy {
        Strategy::Backend(backend) => {
            let loader = backend.instantiate(fs, &opts.env, &opts.cache);
            let load = loader
                .load(binary_path)
                .map_err(|_| WrapError::BadBinary(binary_path.to_string()))?;
            Ok(Closure::of_load(binary_path, load))
        }
        Strategy::Native => Ok(Closure {
            requests: resolve_closure(fs, binary_path, &opts.env, &opts.cache)
                .map_err(WrapError::BadBinary)?
                .into_iter()
                .map(|nr| (nr.requester, nr.name, nr.path))
                .collect(),
            parsed: HashMap::new(),
        }),
    }
}

/// The binary being wrapped: one editor session, through which every read
/// and rewrite goes, and the object as it was before the wrap touched it.
struct Target<'a> {
    fs: &'a Vfs,
    path: &'a str,
    editor: ElfEditor<'a>,
    original: ElfObject,
}

impl<'a> Target<'a> {
    fn open(fs: &'a Vfs, path: &'a str) -> Result<Target<'a>, WrapError> {
        let bad = || WrapError::BadBinary(path.to_string());
        let editor = ElfEditor::open(fs, path).map_err(|_| bad())?;
        let original = editor.object().map_err(|_| bad())?;
        Ok(Target { fs, path, editor, original })
    }

    fn set_needed(&self, needed: Vec<String>) -> Result<(), WrapError> {
        self.editor
            .set_needed(needed)
            .map_err(|_| WrapError::WriteFailed(self.path.to_string()))?;
        Ok(())
    }

    /// The freeze-and-rewrite: build the frozen needed list from `closure`,
    /// handle what stayed unresolved per [`ShrinkwrapOptions::on_missing`],
    /// scan for duplicate strong symbols, and rewrite the binary.
    fn freeze(&self, closure: Closure, opts: &ShrinkwrapOptions) -> Result<WrapReport, WrapError> {
        let mut warnings = Vec::new();
        if !opts.declare_dlopens {
            for d in &self.original.dlopens {
                warnings.push(WrapWarning::UndeclaredDlopen {
                    object: self.path.to_string(),
                    name: d.clone(),
                });
            }
        }

        // The set is a side-index over `new_needed` so membership checks
        // stay O(1) on large closures (Pynamic-sized wraps used to pay
        // O(n²) here).
        let requests = closure.requests;
        let mut new_needed: Vec<String> = Vec::with_capacity(requests.len());
        let mut frozen: HashSet<String> = HashSet::with_capacity(requests.len());
        let mut resolved: Vec<(String, String)> = Vec::new();
        for (requester, name, path) in requests {
            match path {
                Some(p) => {
                    if frozen.insert(p.clone()) {
                        new_needed.push(p.clone());
                    }
                    resolved.push((name, p));
                }
                None => match opts.on_missing {
                    OnMissing::Error => return Err(WrapError::Unresolved { requester, name }),
                    OnMissing::Keep => {
                        if frozen.insert(name.clone()) {
                            new_needed.push(name.clone());
                        }
                        warnings.push(WrapWarning::LeftUnresolved { requester, name });
                    }
                },
            }
        }

        // Advisory duplicate-strong-symbol scan over the frozen closure,
        // using the resolution's already-parsed objects where available.
        // Shrinkwrap "does not explicitly check symbol shadowing ... it
        // preserves the order the user set", so a duplicate is a warning.
        let mut owner: HashMap<String, String> = HashMap::new();
        for path in new_needed.iter().filter(|p| p.contains('/')) {
            let parsed;
            let obj = match closure.parsed.get(path) {
                Some(obj) => obj,
                None => match io::peek_object(self.fs, path) {
                    Ok(obj) => {
                        parsed = obj;
                        &parsed
                    }
                    Err(_) => continue,
                },
            };
            for sym in &obj.symbols {
                if sym.binding == SymbolBinding::Strong {
                    if let Some(first) = owner.get(&sym.name) {
                        warnings.push(WrapWarning::DuplicateStrongSymbol {
                            symbol: sym.name.clone(),
                            first: first.clone(),
                            second: path.clone(),
                        });
                    } else {
                        owner.insert(sym.name.clone(), path.clone());
                    }
                }
            }
        }

        self.set_needed(new_needed.clone())?;
        if opts.strip_search_paths {
            self.editor
                .remove_rpath()
                .map_err(|_| WrapError::WriteFailed(self.path.to_string()))?;
        }

        Ok(WrapReport {
            binary: self.path.to_string(),
            original_needed: self.original.needed.clone(),
            new_needed,
            resolved,
            warnings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::LoaderBackend;
    use depchaos_elf::io::install;
    use depchaos_elf::{ElfObject, Symbol};
    use depchaos_loader::{Environment, GlibcLoader, MuslLoader, Resolution};

    fn world() -> Vfs {
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app")
                .needs("liba.so")
                .needs("libb.so")
                .runpath("/l1")
                .runpath("/l2")
                .build(),
        )
        .unwrap();
        install(
            &fs,
            "/l1/liba.so",
            &ElfObject::dso("liba.so").needs("libc6.so").runpath("/l1").runpath("/l2").build(),
        )
        .unwrap();
        install(
            &fs,
            "/l2/libb.so",
            &ElfObject::dso("libb.so").needs("libc6.so").runpath("/l2").build(),
        )
        .unwrap();
        install(&fs, "/l2/libc6.so", &ElfObject::dso("libc6.so").build()).unwrap();
        fs
    }

    /// `default()` is `new()`: a binary wrapped under either loses its
    /// RUNPATH.
    #[test]
    fn wrap_freezes_absolute_paths_in_load_order() {
        for opts in [ShrinkwrapOptions::new(), ShrinkwrapOptions::default()] {
            let fs = world();
            let rep = wrap(&fs, "/bin/app", &opts.env(Environment::bare())).unwrap();
            assert_eq!(rep.new_needed, vec!["/l1/liba.so", "/l2/libb.so", "/l2/libc6.so"]);
            assert_eq!(rep.lifted(), vec!["/l2/libc6.so"]);
            let obj = io::peek_object(&fs, "/bin/app").unwrap();
            assert_eq!(obj.needed, rep.new_needed);
            assert!(obj.runpath.is_empty(), "search paths stripped");
        }
    }

    #[test]
    fn wrapped_binary_loads_without_searching() {
        let fs = world();
        wrap(&fs, "/bin/app", &ShrinkwrapOptions::new().env(Environment::bare())).unwrap();
        let r = GlibcLoader::new(&fs).with_env(Environment::bare()).load("/bin/app").unwrap();
        assert!(r.success());
        // Every load was direct or a dedup — zero search misses.
        assert_eq!(r.syscalls.misses, 0);
        // Transitive bare requests were satisfied from the soname cache.
        assert!(r
            .events
            .iter()
            .filter(|e| !e.name.contains('/'))
            .all(|e| matches!(e.resolution, Resolution::Deduped { .. })));
    }

    #[test]
    fn wrap_is_idempotent() {
        let fs = world();
        let opts = ShrinkwrapOptions::new().env(Environment::bare());
        let first = wrap(&fs, "/bin/app", &opts).unwrap();
        let second = wrap(&fs, "/bin/app", &opts).unwrap();
        assert_eq!(first.new_needed, second.new_needed);
        let obj = io::peek_object(&fs, "/bin/app").unwrap();
        assert_eq!(obj.needed, first.new_needed);
    }

    #[test]
    fn missing_dep_errors_by_default_keep_on_request() {
        let fs = Vfs::local();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("libghost.so").build()).unwrap();
        let err =
            wrap(&fs, "/bin/app", &ShrinkwrapOptions::new().env(Environment::bare())).unwrap_err();
        assert!(matches!(err, WrapError::Unresolved { .. }));

        let rep = wrap(
            &fs,
            "/bin/app",
            &ShrinkwrapOptions::new().env(Environment::bare()).on_missing(OnMissing::Keep),
        )
        .unwrap();
        assert_eq!(rep.new_needed, vec!["libghost.so"]);
        assert!(matches!(rep.warnings[0], WrapWarning::LeftUnresolved { .. }));
    }

    /// Table I's "Propagates: Yes" through an intermediate library:
    /// `libleaf` is reachable only through `liba`'s RPATH, which `liba`'s
    /// child `libb` inherits.
    fn inherited_rpath_world() -> Vfs {
        let fs = Vfs::local();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("liba.so").rpath("/l").build())
            .unwrap();
        install(
            &fs,
            "/l/liba.so",
            &ElfObject::dso("liba.so").needs("libb.so").rpath("/deep").build(),
        )
        .unwrap();
        install(&fs, "/l/libb.so", &ElfObject::dso("libb.so").needs("libleaf.so").build()).unwrap();
        install(&fs, "/deep/libleaf.so", &ElfObject::dso("libleaf.so").build()).unwrap();
        fs
    }

    #[test]
    fn native_strategy_matches_ldd_on_clean_closures() {
        for world in [world, inherited_rpath_world] {
            let opts = ShrinkwrapOptions::new().env(Environment::bare());
            let ldd = wrap(&world(), "/bin/app", &opts).unwrap();
            let native = wrap(&world(), "/bin/app", &opts.strategy(Strategy::Native)).unwrap();
            assert_eq!(ldd.new_needed, native.new_needed);
        }
    }

    #[test]
    fn same_binary_wraps_under_glibc_and_musl_backends() {
        // The acceptance scenario for the backend-generic API: the same
        // binary, the same wrap() call, two loader semantics. Store-like
        // layout: the exe's propagating RPATH serves the whole closure and
        // the libraries carry no search paths of their own.
        fn store_world() -> Vfs {
            let fs = Vfs::local();
            install(
                &fs,
                "/bin/app",
                &ElfObject::exe("app").needs("libx.so").needs("liby.so").rpath("/l").build(),
            )
            .unwrap();
            install(&fs, "/l/libx.so", &ElfObject::dso("libx.so").needs("libz.so").build())
                .unwrap();
            install(&fs, "/l/liby.so", &ElfObject::dso("liby.so").needs("libz.so").build())
                .unwrap();
            install(&fs, "/l/libz.so", &ElfObject::dso("libz.so").build()).unwrap();
            fs
        }

        let fs_glibc = store_world();
        let glibc_rep = wrap(
            &fs_glibc,
            "/bin/app",
            &ShrinkwrapOptions::new().env(Environment::bare()).backend(LoaderBackend::glibc()),
        )
        .unwrap();

        let fs_musl = store_world();
        let musl_rep = wrap(
            &fs_musl,
            "/bin/app",
            &ShrinkwrapOptions::new().env(Environment::bare()).backend(LoaderBackend::musl()),
        )
        .unwrap();

        // On a clean searchable closure both backends freeze the same list.
        assert_eq!(glibc_rep.new_needed, musl_rep.new_needed);

        // And the frozen output loads under glibc but NOT under musl — the
        // §IV incompatibility, now demonstrable end-to-end through one API.
        assert!(GlibcLoader::new(&fs_musl)
            .with_env(Environment::bare())
            .load("/bin/app")
            .unwrap()
            .success());
        assert!(!MuslLoader::new(&fs_musl)
            .with_env(Environment::bare())
            .load("/bin/app")
            .unwrap()
            .success());
    }

    #[test]
    fn future_backend_wraps_future_style_binaries() {
        // A binary carrying §III-C search_dirs instead of RUNPATH: only the
        // future backend can resolve it, and wrap() freezes what it reports.
        use depchaos_elf::SearchPosition::Prepend;
        let fs = Vfs::local();
        install(&fs, "/l/liba.so", &ElfObject::dso("liba.so").needs("libb.so").build()).unwrap();
        install(&fs, "/l/libb.so", &ElfObject::dso("libb.so").build()).unwrap();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("liba.so").search_dir("/l", Prepend, true).build(),
        )
        .unwrap();

        // The glibc backend cannot resolve it...
        let err =
            wrap(&fs, "/bin/app", &ShrinkwrapOptions::new().env(Environment::bare())).unwrap_err();
        assert!(matches!(err, WrapError::Unresolved { .. }));

        // ...the future backend can, through the very same wrap() API.
        let rep = wrap(
            &fs,
            "/bin/app",
            &ShrinkwrapOptions::new().env(Environment::bare()).backend(LoaderBackend::future()),
        )
        .unwrap();
        assert_eq!(rep.new_needed, vec!["/l/liba.so", "/l/libb.so"]);
        assert!(GlibcLoader::new(&fs)
            .with_env(Environment::bare())
            .load("/bin/app")
            .unwrap()
            .success());
    }

    #[test]
    fn service_backend_wraps_hash_addressed_binaries() {
        use depchaos_loader::HashStoreService;
        use std::sync::Arc;
        let fs = Vfs::local();
        let mut svc = HashStoreService::new();
        install(&fs, "/store/bb/libb.so", &ElfObject::dso("libb.so").build()).unwrap();
        let b_ref = svc.register(&fs, "/store/bb/libb.so").unwrap();
        install(&fs, "/store/aa/liba.so", &ElfObject::dso("liba.so").needs(b_ref).build()).unwrap();
        let a_ref = svc.register(&fs, "/store/aa/liba.so").unwrap();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs(a_ref).build()).unwrap();

        let backend = LoaderBackend::service(Arc::new(svc));
        let rep = wrap(
            &fs,
            "/bin/app",
            &ShrinkwrapOptions::new().env(Environment::bare()).backend(backend.clone()),
        )
        .unwrap();
        assert_eq!(rep.new_needed, vec!["/store/aa/liba.so", "/store/bb/libb.so"]);
        // The wrapped binary loads through the service backend with its
        // top-level entries opened directly; the libraries' own `sha:`
        // transitive requests still need the service (and dedup to the
        // already-loaded objects), while stock glibc has no way to answer
        // them — frozen paths don't erase hash addressing inside libraries.
        let loader =
            backend.instantiate(&fs, &Environment::bare(), &depchaos_loader::LdCache::empty());
        assert!(loader.load("/bin/app").unwrap().success());
        assert!(!GlibcLoader::new(&fs)
            .with_env(Environment::bare())
            .load("/bin/app")
            .unwrap()
            .success());
    }

    #[test]
    fn duplicate_symbols_warned_not_fatal() {
        let fs = Vfs::local();
        install(
            &fs,
            "/v/libomp.so",
            &ElfObject::dso("libomp.so").defines(Symbol::strong("omp_go")).build(),
        )
        .unwrap();
        install(
            &fs,
            "/v/libompstubs.so",
            &ElfObject::dso("libompstubs.so").defines(Symbol::strong("omp_go")).build(),
        )
        .unwrap();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("libompstubs.so").needs("libomp.so").runpath("/v").build(),
        )
        .unwrap();
        let rep =
            wrap(&fs, "/bin/app", &ShrinkwrapOptions::new().env(Environment::bare())).unwrap();
        assert!(rep
            .warnings
            .iter()
            .any(|w| matches!(w, WrapWarning::DuplicateStrongSymbol { .. })));
        // Order preserved: stubs stay first, exactly as the user linked it.
        assert_eq!(rep.new_needed, vec!["/v/libompstubs.so", "/v/libomp.so"]);
    }

    #[test]
    fn wrap_charges_one_load_and_freezing_a_held_load_none() {
        // The symbol scan runs on the load's already-parsed closure and the
        // rewrite goes through one editor session, so a wrap's entire
        // accounted cost is exactly one resolution load, and freezing a
        // load the caller holds costs nothing: the pass it saves, pinned
        // as a count. Both leave the same bytes and the same report.
        for backend in LoaderBackend::all_stock() {
            let opts = ShrinkwrapOptions::new()
                .env(Environment::bare())
                .on_missing(OnMissing::Keep)
                .backend(backend.clone());
            let fs = world();
            let load = backend.instantiate(&fs, &opts.env, &opts.cache).load("/bin/app").unwrap();
            let one_load = load.syscalls;
            assert!(one_load.total() > 0);
            let (before, before_ns) = (fs.snapshot(), fs.elapsed_ns());
            let frozen = freeze_load(&fs, "/bin/app", &opts, load).unwrap();
            assert_eq!(fs.snapshot(), before, "{}: freezing is unaccounted", backend.name());
            assert_eq!(fs.elapsed_ns(), before_ns);

            let twin = world();
            let before = twin.snapshot();
            let wrapped = wrap(&twin, "/bin/app", &opts).unwrap();
            assert_eq!(
                twin.snapshot().since(&before),
                one_load,
                "{}: wrap is one load",
                backend.name()
            );
            assert_eq!(frozen.new_needed, wrapped.new_needed);
            assert_eq!(frozen.resolved, wrapped.resolved);
            assert_eq!(frozen.warnings, wrapped.warnings);
            assert_eq!(fs.peek_file("/bin/app").unwrap(), twin.peek_file("/bin/app").unwrap());
        }
    }

    #[test]
    fn freeze_load_rejects_what_it_cannot_honour() {
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("liba.so").runpath("/l").dlopens("libplugin.so").build(),
        )
        .unwrap();
        install(&fs, "/bin/other", &ElfObject::exe("other").needs("liba.so").runpath("/l").build())
            .unwrap();
        install(&fs, "/l/liba.so", &ElfObject::dso("liba.so").build()).unwrap();
        install(&fs, "/l/libplugin.so", &ElfObject::dso("libplugin.so").build()).unwrap();
        let load =
            |exe: &str| GlibcLoader::new(&fs).with_env(Environment::bare()).load(exe).unwrap();
        let opts = ShrinkwrapOptions::new().env(Environment::bare());
        let (app, other) = (fs.peek_file("/bin/app").unwrap(), fs.peek_file("/bin/other").unwrap());

        let err =
            freeze_load(&fs, "/bin/app", &opts.clone().declare_dlopens(true), load("/bin/app"))
                .unwrap_err();
        assert_eq!(err, WrapError::FreezeDeclaresDlopens("/bin/app".into()));
        assert!(err.to_string().contains("never saw"));

        let err = freeze_load(
            &fs,
            "/bin/app",
            &opts.clone().strategy(Strategy::Native),
            load("/bin/app"),
        )
        .unwrap_err();
        assert_eq!(
            err,
            WrapError::FreezeNotBackend { binary: "/bin/app".into(), strategy: "native".into() }
        );

        let err = freeze_load(&fs, "/bin/app", &opts, load("/bin/other")).unwrap_err();
        assert_eq!(
            err,
            WrapError::FreezeForeignLoad { binary: "/bin/app".into(), root: "/bin/other".into() }
        );
        assert_eq!(err.to_string(), "cannot freeze a load of \"/bin/other\" into /bin/app");

        assert_eq!(fs.peek_file("/bin/app").unwrap(), app, "rejections never write");
        assert_eq!(fs.peek_file("/bin/other").unwrap(), other);
        // The precondition-free call still wraps.
        let rep = freeze_load(&fs, "/bin/app", &opts, load("/bin/app")).unwrap();
        assert_eq!(rep.new_needed, vec!["/l/liba.so"]);
    }

    #[test]
    fn declare_dlopens_freezes_runtime_loads() {
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").runpath("/l").dlopens("libplugin.so").build(),
        )
        .unwrap();
        install(&fs, "/l/libplugin.so", &ElfObject::dso("libplugin.so").build()).unwrap();

        // Without the option: warning only.
        let rep =
            wrap(&fs, "/bin/app", &ShrinkwrapOptions::new().env(Environment::bare())).unwrap();
        assert!(rep.warnings.iter().any(|w| matches!(w, WrapWarning::UndeclaredDlopen { .. })));
        assert!(rep.new_needed.is_empty());

        // With it: the plugin is frozen like any needed entry.
        let fs2 = Vfs::local();
        install(
            &fs2,
            "/bin/app",
            &ElfObject::exe("app").runpath("/l").dlopens("libplugin.so").build(),
        )
        .unwrap();
        install(&fs2, "/l/libplugin.so", &ElfObject::dso("libplugin.so").build()).unwrap();
        let rep2 = wrap(
            &fs2,
            "/bin/app",
            &ShrinkwrapOptions::new().env(Environment::bare()).declare_dlopens(true),
        )
        .unwrap();
        assert_eq!(rep2.new_needed, vec!["/l/libplugin.so"]);
    }

    #[test]
    fn failed_wrap_rolls_back_dlopen_promotion() {
        // declare_dlopens writes the promoted needed list before resolving;
        // if resolution then fails (common under non-glibc backends), the
        // binary must come back unmodified.
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app")
                .needs("libreal.so")
                .runpath("/l")
                .dlopens("libplugin.so")
                .build(),
        )
        .unwrap();
        install(&fs, "/l/libreal.so", &ElfObject::dso("libreal.so").build()).unwrap();
        // No /l/libplugin.so: the promoted entry cannot resolve.
        let err = wrap(
            &fs,
            "/bin/app",
            &ShrinkwrapOptions::new().env(Environment::bare()).declare_dlopens(true),
        )
        .unwrap_err();
        assert!(matches!(err, WrapError::Unresolved { .. }));
        let obj = io::peek_object(&fs, "/bin/app").unwrap();
        assert_eq!(obj.needed, vec!["libreal.so"], "failed wrap must be a no-op");
    }

    #[test]
    fn ld_preload_still_interposes_after_wrap() {
        // The paper: "The use of LD_PRELOAD remains viable ... traditional
        // preloaded tools continue to work as normal."
        let fs = Vfs::local();
        install(
            &fs,
            "/l/libreal.so",
            &ElfObject::dso("libreal.so").defines(Symbol::strong("MPI_Send")).build(),
        )
        .unwrap();
        install(
            &fs,
            "/tools/libpmpi.so",
            &ElfObject::dso("libpmpi.so").defines(Symbol::strong("MPI_Send")).build(),
        )
        .unwrap();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("libreal.so").runpath("/l").build())
            .unwrap();
        wrap(&fs, "/bin/app", &ShrinkwrapOptions::new().env(Environment::bare())).unwrap();
        let env = Environment::bare().with_preload("/tools/libpmpi.so");
        let r = GlibcLoader::new(&fs).with_env(env).load("/bin/app").unwrap();
        assert!(r.success());
        assert_eq!(r.bindings()["MPI_Send"], "/tools/libpmpi.so");
    }

    #[test]
    fn ld_library_path_no_longer_overrides() {
        // "Referencing dependencies by their absolute path makes it
        // impossible to swap out dependencies ... using LD_LIBRARY_PATH."
        let fs = world();
        install(&fs, "/override/liba.so", &ElfObject::dso("liba.so").build()).unwrap();
        wrap(&fs, "/bin/app", &ShrinkwrapOptions::new().env(Environment::bare())).unwrap();
        let env = Environment::bare().with_ld_library_path("/override");
        let r = GlibcLoader::new(&fs).with_env(env).load("/bin/app").unwrap();
        assert_eq!(r.find("liba.so").unwrap().path, "/l1/liba.so", "override ignored");
    }
}
