//! The shared breadth-first loader engine.
//!
//! Every loader the paper discusses — glibc, musl, the Zircon-style loader
//! service, and the §III-C proposal — runs the *same* algorithm: map the
//! executable, optionally inject `LD_PRELOAD` entries, then walk the
//! breadth-first closure of `DT_NEEDED` requests, answering each request
//! from a dedup cache when possible and from a search otherwise, while
//! recording every decision. What differs between loaders is only
//!
//! * **where a bare name may be found** — the probe plan
//!   ([`SearchPolicy`]): glibc's order ([`crate::glibc::glibc_order`]),
//!   musl's env-first meld, a service delegation, or the future loader's
//!   prepend/append/pin scheme (a request containing `/` is no search: the
//!   engine opens it directly, and policies never see it); and
//! * **when two requests are "the same library"** — the identity relation
//!   ([`DedupPolicy`]): glibc's name+soname+path+inode cache, musl's
//!   path+inode-only rule (the documented reason Shrinkwrap does not
//!   support musl), or a pure by-name table.
//!
//! [`Engine`] owns everything the four hand-written loaders used to
//! duplicate: the [`State`] maps, the event log, the failure list, the
//! syscall-snapshot bracketing, the static-executable and `PT_INTERP`
//! checks, direct-path opens, and the `dlopen` replay loop. A concrete
//! loader is nothing but a `(SearchPolicy, DedupPolicy, EngineConfig)`
//! triple: [`crate::GlibcLoader`] and friends are type aliases of
//! `Engine`, and their backend modules add only a constructor and the
//! builders of their own policy. The one [`Loader`] impl is the engine's;
//! it reads the backend's name and capabilities from the policies'
//! associated consts ([`SearchPolicy::NAME`],
//! [`SearchPolicy::DLOPEN_REPLAY`], [`DedupPolicy::BY_SONAME`]).
//!
//! # Performance
//!
//! The engine's request loop is allocation-free in the steady state. Both
//! request-string indexes ([`State::by_name`], [`State::by_path`]) key on
//! interned [`PathId`]s rather than owned `String`s — the workspace's one
//! interner, [`depchaos_vfs::intern`](mod@depchaos_vfs::intern) — and the
//! BFS frontier carries `(requester, PathId)` pairs, so a request's
//! pre-search dedup probe ([`DedupPolicy::lookup`]) is an integer hash
//! lookup with no re-hashing of path text. A needed entry's text is copied
//! into the interner at most once per *process*, no matter how many
//! objects request it or how many loads replay it (the Fig 6 profiling
//! loop replays thousands); recovering the text costs one shared-lock
//! index read per request. Only the cold side — indexing a freshly loaded
//! object, and result recording ([`LoadEvent`], [`LoadedObject`]) — still
//! touches strings, because it happens once per object, not once per
//! request, and results outlive the engine as public API.

use std::collections::{HashMap, VecDeque};

use depchaos_elf::{ElfObject, Machine};
use depchaos_vfs::{intern, Inode, PathId, Vfs};

use crate::api::Loader;
use crate::env::Environment;
use crate::resolve::{probe_exact, Candidate, Provenance, Resolution};
use crate::result::{Failure, LoadError, LoadEvent, LoadResult, LoadedObject};

/// Mutable load-time state shared by every backend: the mapped objects in
/// load order plus the dedup indexes policies may use. A policy uses only
/// the maps its loader's identity relation needs (musl, for example, keys
/// `by_name` with shortnames and ignores `by_path` entirely).
pub struct State {
    pub objects: Vec<LoadedObject>,
    /// Request-string index: requested names, sonames, shortnames — whatever
    /// the [`DedupPolicy`] decides names a loaded object. Keyed on interned
    /// ids so probes and inserts allocate nothing.
    pub by_name: HashMap<PathId, usize>,
    /// Probed-path and canonical-path index (interned).
    pub by_path: HashMap<PathId, usize>,
    /// File-identity index — the `(dev,ino)` check loaders do after `open`.
    pub by_inode: HashMap<Inode, usize>,
    pub events: Vec<LoadEvent>,
    pub failures: Vec<Failure>,
}

impl State {
    pub fn new() -> Self {
        State {
            objects: Vec::new(),
            by_name: HashMap::new(),
            by_path: HashMap::new(),
            by_inode: HashMap::new(),
            events: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Append a freshly mapped object (computing its canonical path and
    /// inode) without touching any dedup index — indexing is the
    /// [`DedupPolicy`]'s decision.
    pub fn push_object(
        &mut self,
        fs: &Vfs,
        requested: &str,
        cand: Candidate,
        parent: Option<usize>,
        provenance: Provenance,
    ) -> usize {
        let idx = self.objects.len();
        let (canonical, inode) = identity(fs, &cand.path);
        let inode = inode.unwrap_or(Inode(0));
        self.objects.push(LoadedObject {
            idx,
            path: cand.path,
            canonical,
            inode,
            object: cand.object,
            parent,
            requested_as: vec![requested.to_string()],
            provenance,
        });
        idx
    }

    /// `idx` and its loader-chain ancestors, nearest first: each object,
    /// then the object whose request loaded it, up to the executable.
    pub(crate) fn chain(&self, idx: usize) -> impl Iterator<Item = &LoadedObject> + Clone {
        std::iter::successors(Some(&self.objects[idx]), |o| o.parent.map(|p| &self.objects[p]))
    }

    /// Record that `idx` also satisfies requests for `name`.
    pub fn alias(&mut self, idx: usize, name: &str) {
        if !self.objects[idx].requested_as.iter().any(|r| r == name) {
            self.objects[idx].requested_as.push(name.to_string());
        }
    }
}

impl Default for State {
    fn default() -> Self {
        Self::new()
    }
}

/// Resolve a path to its canonical form (falling back to the path itself)
/// and its file identity, the `(dev,ino)` every loader compares after
/// `open`. Unaccounted, like the loaders' own post-open identity checks.
pub fn identity(fs: &Vfs, path: &str) -> (String, Option<Inode>) {
    let canonical = fs.canonicalize(path).unwrap_or_else(|_| path.to_string());
    let inode = fs.peek(&canonical).ok().map(|m| m.inode);
    (canonical, inode)
}

/// Read-only probing context handed to policies alongside the state.
pub struct Ctx<'a> {
    pub fs: &'a Vfs,
    pub env: &'a Environment,
    /// Architecture of the root executable; wrong-ABI candidates are
    /// silently skipped per the System V rule.
    pub want_arch: Machine,
}

impl Ctx<'_> {
    /// [`identity`] for the inode alone — the common dedup-policy question.
    pub fn inode_of(&self, path: &str) -> Option<Inode> {
        identity(self.fs, path).1
    }
}

/// Maps one `(requester, needed-name)` request to an ordered candidate probe
/// plan and executes it. Implementations own whatever configuration their
/// search consults (an [`crate::LdCache`], a delegate service, ...).
pub trait SearchPolicy {
    /// The backend's [`Loader::name`] (`"glibc"`, `"musl"`, ...).
    const NAME: &'static str;

    /// Whether [`Loader::load_with_dlopen`] replays `dlopen` hints; a
    /// backend without replay answers it with a plain load.
    const DLOPEN_REPLAY: bool = false;

    /// Rewrite a request before dedup and search run — the future loader's
    /// per-dependency pins turn a soname into an exact path here. Return
    /// `None` to leave the request unchanged.
    fn rewrite(&self, _cx: &Ctx, _st: &State, _requester: usize, _name: &str) -> Option<String> {
        None
    }

    /// Probe the filesystem for the bare name `name` on behalf of
    /// `requester`. The engine opens a request containing `/` itself, so
    /// `name` never contains one here. Every probe must go through the
    /// accounted [`crate::resolve`] helpers so syscall counts stay faithful.
    fn locate(
        &self,
        cx: &Ctx,
        st: &State,
        requester: usize,
        name: &str,
    ) -> Option<(Candidate, Provenance)>;
}

/// Decides when a request or a freshly opened candidate is an
/// already-loaded object, and how loaded objects are indexed for future
/// requests. Implementations are responsible for recording request aliases
/// ([`State::alias`]) exactly where their modelled loader would.
pub trait DedupPolicy {
    /// [`Loader::resolves_by_soname`]: whether a bare-soname request can be
    /// satisfied by an object loaded under a different name.
    const BY_SONAME: bool = true;

    /// Pre-search cache lookup for a request (bare soname or path,
    /// interned). A hit costs **zero filesystem work** — the Listing 1
    /// mechanism — and, this being the hot call of big-closure loads, the
    /// probe is an integer hash on the id.
    fn lookup(&self, cx: &Ctx, st: &mut State, name: PathId) -> Option<usize>;

    /// Post-open identity check on a candidate the search found — the
    /// `(dev,ino)` comparison loaders do after `open` catches aliased files
    /// the request-string cache cannot.
    fn absorb(
        &self,
        cx: &Ctx,
        st: &mut State,
        name: &str,
        cand: &Candidate,
        provenance: &Provenance,
    ) -> Option<usize>;

    /// Index the freshly registered object `idx` (requested as `requested`)
    /// into the [`State`] maps this policy consults.
    fn index(&self, cx: &Ctx, st: &mut State, idx: usize, requested: &str);
}

/// When `LD_PRELOAD` entries are honoured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreloadMode {
    /// The loader model ignores preloads (service and future loaders).
    Ignore,
    /// Preloads always load right after the executable (musl).
    Always,
    /// Preloads load unless the executable is fully static — a static
    /// binary never runs the dynamic loader, so `LD_PRELOAD` is inert
    /// (glibc; the §III-B trade-off).
    SkipStatic,
}

/// Fixed per-backend behaviour outside the two policies.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Verify `PT_INTERP` exists before loading, like the kernel's `execve`
    /// (the NixOS §II-D failure mode). Off by default.
    pub strict_interp: bool,
    /// Charge mapping the executable's declared virtual size as a read.
    pub charge_exe_read: bool,
    pub preload: PreloadMode,
}

impl EngineConfig {
    /// The glibc/musl-style default: charge the exe mapping, no interp check.
    pub fn charged(preload: PreloadMode) -> Self {
        EngineConfig { strict_interp: false, charge_exe_read: true, preload }
    }

    /// The analytic default used by the service and future loaders: no exe
    /// mapping charge, no preloads.
    pub fn uncharged() -> Self {
        EngineConfig { strict_interp: false, charge_exe_read: false, preload: PreloadMode::Ignore }
    }
}

/// The BFS driver. One engine instance is one loader bound to one
/// filesystem; each load simulates one `execve`.
pub struct Engine<'fs, S, D> {
    fs: &'fs Vfs,
    env: Environment,
    pub(crate) search: S,
    pub(crate) dedup: D,
    pub(crate) config: EngineConfig,
}

impl<'fs, S: SearchPolicy, D: DedupPolicy> Engine<'fs, S, D> {
    pub fn with_policies(fs: &'fs Vfs, search: S, dedup: D, config: EngineConfig) -> Self {
        Engine { fs, env: Environment::default(), search, dedup, config }
    }

    pub fn with_env(mut self, env: Environment) -> Self {
        self.env = env;
        self
    }

    /// Simulate `execve(exe_path)` without replaying `dlopen` hints — see
    /// [`Loader::load_with_dlopen`] for that.
    pub fn load(&self, exe_path: &str) -> Result<LoadResult, LoadError> {
        self.run(exe_path, false)
    }

    /// Simulate `execve(exe_path)`: map the executable, honour preloads per
    /// config, and drive the breadth-first closure of needed entries.
    /// With `dlopen`, additionally replay each loaded object's `dlopen`
    /// hints (in load order), which search with the *caller's* paths — the
    /// Qt plugin problem from §III-A.
    fn run(&self, exe_path: &str, dlopen: bool) -> Result<LoadResult, LoadError> {
        let before = self.fs.snapshot();
        let t0 = self.fs.elapsed_ns();
        let mut st = State::new();

        // Map the executable.
        if self.fs.try_open(exe_path).is_none() {
            return Err(LoadError::ExeNotFound(exe_path.to_string()));
        }
        let bytes = self
            .fs
            .read_file(exe_path)
            .map_err(|_| LoadError::ExeNotFound(exe_path.to_string()))?;
        let exe = ElfObject::parse(&bytes)
            .map_err(|_| LoadError::ExeUnparseable(exe_path.to_string()))?;
        if self.config.strict_interp {
            if let Some(interp) = &exe.interp {
                if self.fs.try_open(interp).is_none() {
                    return Err(LoadError::InterpreterNotFound {
                        exe: exe_path.to_string(),
                        interp: interp.clone(),
                    });
                }
            }
        }
        if self.config.charge_exe_read && exe.virtual_size > 0 {
            self.fs.charge_read(exe_path, exe.virtual_size);
        }
        {
            let cx = Ctx { fs: self.fs, env: &self.env, want_arch: exe.machine };
            let idx = st.push_object(
                self.fs,
                exe_path,
                Candidate { path: exe_path.to_string(), object: exe },
                None,
                Provenance::Executable,
            );
            self.dedup.index(&cx, &mut st, idx, exe_path);
        }

        // LD_PRELOAD entries load immediately after the executable and are
        // searched like bare names (or opened directly when they are paths).
        let preloads_active = match self.config.preload {
            PreloadMode::Ignore => false,
            PreloadMode::Always => true,
            PreloadMode::SkipStatic => {
                // A static executable (no PT_INTERP, no needed entries)
                // never runs the dynamic loader at all.
                !(st.objects[0].object.interp.is_none() && st.objects[0].object.needed.is_empty())
            }
        };
        if preloads_active {
            for entry in &self.env.ld_preload {
                self.request(&mut st, 0, intern(entry));
            }
        }

        // Breadth-first over needed entries. Matching the historical model:
        // the frontier starts from the executable's needed list only, after
        // preloads are mapped. The frontier carries interned ids — each
        // distinct needed name is copied at most once per process, not once
        // per request.
        let mut queue: VecDeque<(usize, PathId)> =
            st.objects[0].object.needed.iter().map(|n| (0usize, intern(n))).collect();
        let mut next_obj = st.objects.len();
        loop {
            while let Some((req, name)) = queue.pop_front() {
                self.request(&mut st, req, name);
                // Enqueue needed entries of anything newly loaded, in order.
                while next_obj < st.objects.len() {
                    for n in &st.objects[next_obj].object.needed {
                        queue.push_back((next_obj, intern(n)));
                    }
                    next_obj += 1;
                }
            }
            if !dlopen {
                break;
            }
            // Replay dlopen hints of every object not yet replayed; any new
            // object's needed entries go through the normal BFS above.
            let mut any = false;
            for idx in 0..st.objects.len() {
                for d in st.objects[idx].object.dlopens.clone() {
                    let already = st.events.iter().any(|e| e.requester == idx && e.name == d);
                    if !already {
                        queue.push_back((idx, intern(&d)));
                        any = true;
                    }
                }
                if any {
                    break;
                }
            }
            if !any {
                break;
            }
        }

        Ok(LoadResult {
            syscalls: self.fs.snapshot().since(&before),
            time_ns: self.fs.elapsed_ns() - t0,
            objects: st.objects,
            events: st.events,
            failures: st.failures,
        })
    }

    /// Resolve one request and record the outcome.
    fn request(&self, st: &mut State, requester: usize, name: PathId) {
        let resolution = self.resolve(st, requester, name);
        if let Resolution::NotFound = resolution {
            st.failures.push(Failure {
                requester: st.objects[requester].object.name.clone(),
                name: name.as_str().to_string(),
            });
        }
        st.events.push(LoadEvent { requester, name: name.as_str().to_string(), resolution });
    }

    fn resolve(&self, st: &mut State, requester: usize, name: PathId) -> Resolution {
        let cx = Ctx { fs: self.fs, env: &self.env, want_arch: st.objects[0].object.machine };
        let name_text = name.as_str();

        // 1. Request rewriting (pins).
        let rewritten = self.search.rewrite(&cx, st, requester, name_text);
        let key = match &rewritten {
            Some(s) => intern(s),
            None => name,
        };

        // 2. Dedup cache — a hit does zero filesystem work, and the probe
        // is an integer hash on the interned id.
        if let Some(idx) = self.dedup.lookup(&cx, st, key) {
            return Resolution::Deduped { path: st.objects[idx].path.clone() };
        }

        // 3. A request containing `/` is opened directly; any other goes to
        // the policy's probe plan.
        let key_text = rewritten.as_deref().unwrap_or(name_text);
        let found = if key_text.contains('/') {
            probe_exact(self.fs, key_text, cx.want_arch).map(|c| (c, Provenance::DirectPath))
        } else {
            self.search.locate(&cx, st, requester, key_text)
        };
        match found {
            Some((cand, provenance)) => {
                // 4. Post-open identity check: the search may have found a
                // file that is already mapped under a different name.
                if let Some(idx) = self.dedup.absorb(&cx, st, name_text, &cand, &provenance) {
                    return Resolution::Deduped { path: st.objects[idx].path.clone() };
                }
                let path = cand.path.clone();
                let idx =
                    st.push_object(self.fs, name_text, cand, Some(requester), provenance.clone());
                self.dedup.index(&cx, st, idx, name_text);
                Resolution::Loaded { path, provenance }
            }
            None => Resolution::NotFound,
        }
    }
}

impl<S: SearchPolicy, D: DedupPolicy> Loader for Engine<'_, S, D> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn load(&self, exe: &str) -> Result<LoadResult, LoadError> {
        self.run(exe, false)
    }

    fn load_with_dlopen(&self, exe: &str) -> Result<LoadResult, LoadError> {
        self.run(exe, S::DLOPEN_REPLAY)
    }

    fn resolves_by_soname(&self) -> bool {
        D::BY_SONAME
    }

    fn supports_dlopen_replay(&self) -> bool {
        S::DLOPEN_REPLAY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_elf::io::install;

    /// A deliberately tiny backend: no search at all, so only direct paths
    /// (which the engine opens itself) resolve; name-identity dedup.
    struct DirectOnly;

    impl SearchPolicy for DirectOnly {
        const NAME: &'static str = "direct-only";

        fn locate(
            &self,
            _cx: &Ctx,
            _st: &State,
            _requester: usize,
            _name: &str,
        ) -> Option<(Candidate, Provenance)> {
            None
        }
    }

    struct ByName;

    impl DedupPolicy for ByName {
        fn lookup(&self, _cx: &Ctx, st: &mut State, name: PathId) -> Option<usize> {
            st.by_name.get(&name).copied()
        }

        fn absorb(
            &self,
            _cx: &Ctx,
            _st: &mut State,
            _name: &str,
            _cand: &Candidate,
            _provenance: &Provenance,
        ) -> Option<usize> {
            None
        }

        fn index(&self, _cx: &Ctx, st: &mut State, idx: usize, requested: &str) {
            st.by_name.insert(intern(requested), idx);
        }
    }

    #[test]
    fn minimal_backend_drives_bfs_and_records_events() {
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("/l/liba.so").needs("/l/liba.so").build(),
        )
        .unwrap();
        install(&fs, "/l/liba.so", &ElfObject::dso("liba.so").needs("/l/gone.so").build()).unwrap();
        let engine = Engine::with_policies(&fs, DirectOnly, ByName, EngineConfig::uncharged());
        let r = engine.run("/bin/app", false).unwrap();
        assert_eq!(r.objects.len(), 2);
        assert_eq!(r.events.len(), 3, "two requests from app + one from liba");
        assert!(matches!(r.events[1].resolution, Resolution::Deduped { .. }));
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].name, "/l/gone.so");
    }

    #[test]
    fn missing_exe_is_an_error_not_a_failure() {
        let fs = Vfs::local();
        let engine = Engine::with_policies(&fs, DirectOnly, ByName, EngineConfig::uncharged());
        assert!(matches!(engine.run("/bin/ghost", false), Err(LoadError::ExeNotFound(_))));
    }
}
