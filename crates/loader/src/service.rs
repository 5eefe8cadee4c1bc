//! A Zircon-style loader service (§III-C) — resolution fully delegated to a
//! policy object, BFS driven by the shared [`crate::engine`].
//!
//! > "The Fuchsia kernel and Zircon system loader implement a service to
//! > request dynamic libraries at load time, allowing load configurations
//! > to be changed between libraries during loading. ... Given the option
//! > to change the way dependencies are encoded in binaries could allow a
//! > system like Nix or Spack to store the hash of the library being
//! > requested ... One can envision a system that would allow a user to
//! > take a binary set up that way and ask a tool to provide all of the
//! > dependencies it needs in place of distributing a static binary or a
//! > container."
//!
//! [`ServiceLoader`] delegates every needed-entry resolution to a
//! [`LoaderService`] policy object. [`HashStoreService`] implements the
//! paper's envisioned scheme: needed entries are `sha:<digest>` strings
//! resolved against a content-addressed index, and
//! [`HashStoreService::manifest`] answers the "provide all of the
//! dependencies it needs" question without running the binary.

use std::collections::HashMap;
use std::sync::Arc;

use depchaos_vfs::{intern, PathId, Vfs};

use crate::engine::{Ctx, DedupPolicy, Engine, EngineConfig, Identity, SearchPolicy, State};
use crate::resolve::{Candidate, Provenance};

/// A resolution policy consulted once per needed entry.
pub trait LoaderService {
    /// Map `(requester path, needed string)` to an absolute path, or `None`
    /// for "cannot supply".
    fn resolve(&self, requester: &str, name: &str) -> Option<String>;
}

/// Shared services work too — a backend factory can hand the same index to
/// many loader instances.
impl<S: LoaderService + ?Sized> LoaderService for Arc<S> {
    fn resolve(&self, requester: &str, name: &str) -> Option<String> {
        (**self).resolve(requester, name)
    }
}

/// Delegation as a [`SearchPolicy`]: symbolic requests — bare names, hash
/// references — go to the service; explicit paths (e.g. in shrinkwrapped
/// output) never reach it, because the engine opens them directly, as a
/// real loader service would. Either way the answer is opened and
/// ABI-checked like any other candidate.
pub struct ServiceSearch<S> {
    pub service: S,
}

impl<S: LoaderService> SearchPolicy for ServiceSearch<S> {
    const NAME: &'static str = "service";

    fn locate(
        &self,
        cx: &Ctx,
        st: &State,
        requester: usize,
        name: &str,
    ) -> Option<(Candidate, Provenance)> {
        self.service
            .resolve(&st.objects[requester].path, name)
            .and_then(|p| cx.probe.exact(&p))
            .map(|c| (c, Provenance::LdSoCache))
    }
}

/// Request-string + soname identity like glibc's front table, backed by
/// post-open inode identity so a hash reference and an explicit path to the
/// same store file dedup to one mapping.
pub struct ServiceDedup;

impl DedupPolicy for ServiceDedup {
    fn lookup(
        &self,
        _cx: &Ctx,
        st: &mut State,
        name: PathId,
        _identity: &mut Option<Identity>,
    ) -> Option<usize> {
        st.by_name.get(&name).copied()
    }

    fn absorb(
        &self,
        _cx: &Ctx,
        st: &mut State,
        name: &str,
        _cand: &Candidate,
        id: &Identity,
        _provenance: &Provenance,
    ) -> Option<usize> {
        let inode = id.inode?;
        let idx = *st.by_inode.get(&inode)?;
        st.by_name.insert(intern(name), idx);
        Some(idx)
    }

    fn index(&self, _cx: &Ctx, st: &mut State, idx: usize, requested: &str) {
        st.by_name.insert(intern(requested), idx);
        if !matches!(st.objects[idx].provenance, Provenance::Executable) {
            st.by_name.insert(intern(st.objects[idx].object.effective_soname()), idx);
        }
        st.by_inode.entry(st.objects[idx].inode).or_insert(idx);
    }
}

/// The loader half: BFS + dedup from the shared engine, resolution fully
/// delegated to the service.
pub type ServiceLoader<'fs, S> = Engine<'fs, ServiceSearch<S>, ServiceDedup>;

impl<'fs, S: LoaderService> ServiceLoader<'fs, S> {
    pub fn new(fs: &'fs Vfs, service: S) -> Self {
        Engine::with_policies(
            fs,
            ServiceSearch { service },
            ServiceDedup,
            EngineConfig::uncharged(),
        )
    }

    pub fn service(&self) -> &S {
        &self.search.service
    }
}

/// The paper's envisioned content-addressed scheme: needed entries are
/// `sha:<digest>`; the service owns the digest → store-path index. Binaries
/// not yet rewritten to `sha:` references can still resolve through the
/// store via [`HashStoreService::alias`] — the migration path for existing
/// soname-addressed needed lists.
#[derive(Debug, Default)]
pub struct HashStoreService {
    index: HashMap<String, String>,
    aliases: HashMap<String, String>,
}

impl HashStoreService {
    pub fn new() -> Self {
        Self::default()
    }

    /// A deterministic stand-in digest for `bytes` (FNV-1a hex).
    pub fn digest(bytes: &[u8]) -> String {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        format!("{h:016x}")
    }

    /// Register a store file under its content digest; returns the
    /// `sha:<digest>` needed-string to embed in dependents.
    pub fn register(&mut self, fs: &Vfs, path: &str) -> Result<String, String> {
        let bytes = fs.peek_file(path).map_err(|e| e.to_string())?;
        let d = Self::digest(&bytes);
        self.index.insert(d.clone(), path.to_string());
        Ok(format!("sha:{d}"))
    }

    /// "Ask a tool to provide all of the dependencies it needs": resolve the
    /// full transitive manifest of a binary without loading it.
    pub fn manifest(&self, fs: &Vfs, exe_path: &str) -> Result<Vec<(String, String)>, String> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut queue = vec![exe_path.to_string()];
        while let Some(p) = queue.pop() {
            let obj = depchaos_elf::io::peek_object(fs, &p).map_err(|e| e.to_string())?;
            for n in &obj.needed {
                if !seen.insert(n.clone()) {
                    continue;
                }
                match self.lookup(n) {
                    Some(path) => {
                        out.push((n.clone(), path.to_string()));
                        queue.push(path.to_string());
                    }
                    None => return Err(format!("unprovidable dependency: {n}")),
                }
            }
        }
        Ok(out)
    }

    /// Serve `name` requests (e.g. a bare soname) with the store file at
    /// `path` — how a binary whose needed list predates hash references
    /// still loads entirely through the service's index. Unlike digests,
    /// sonames can collide: the displaced mapping is returned so callers
    /// can detect that two store files claim the same name (the ambiguity
    /// content addressing exists to remove).
    pub fn alias(&mut self, name: impl Into<String>, path: impl Into<String>) -> Option<String> {
        self.aliases.insert(name.into(), path.into())
    }

    /// Register `path` under its content digest *and* under its basename,
    /// so both `sha:<digest>` and soname requests resolve to it. Errors —
    /// leaving the index untouched — if the basename already aliases a
    /// *different* store file.
    pub fn register_with_soname(&mut self, fs: &Vfs, path: &str) -> Result<String, String> {
        let base = path.rsplit('/').next();
        if let Some(base) = base {
            if let Some(existing) = self.aliases.get(base).filter(|old| old.as_str() != path) {
                return Err(format!("soname {base:?} already aliased to {existing}"));
            }
        }
        let r = self.register(fs, path)?;
        if let Some(base) = base {
            self.alias(base, path);
        }
        Ok(r)
    }

    fn lookup(&self, name: &str) -> Option<&str> {
        name.strip_prefix("sha:")
            .and_then(|d| self.index.get(d))
            .or_else(|| self.aliases.get(name))
            .map(String::as_str)
    }
}

impl LoaderService for HashStoreService {
    fn resolve(&self, _requester: &str, name: &str) -> Option<String> {
        self.lookup(name).map(String::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{assert_same_load, Loader};
    use depchaos_elf::io::install;
    use depchaos_elf::ElfObject;

    /// Build a hash-addressed world: libb, then liba needing sha(libb),
    /// then an exe needing sha(liba).
    fn world() -> (Vfs, HashStoreService, String) {
        let fs = Vfs::local();
        let mut svc = HashStoreService::new();
        install(&fs, "/store/bb/libb.so", &ElfObject::dso("libb.so").build()).unwrap();
        let b_ref = svc.register(&fs, "/store/bb/libb.so").unwrap();
        install(&fs, "/store/aa/liba.so", &ElfObject::dso("liba.so").needs(b_ref).build()).unwrap();
        let a_ref = svc.register(&fs, "/store/aa/liba.so").unwrap();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs(a_ref).build()).unwrap();
        (fs, svc, "/bin/app".to_string())
    }

    #[test]
    fn hash_addressed_load_works() {
        let (fs, svc, exe) = world();
        let r = ServiceLoader::new(&fs, svc).load(&exe).unwrap();
        assert!(r.success(), "{:?}", r.failures);
        assert_eq!(r.paths(), vec!["/bin/app", "/store/aa/liba.so", "/store/bb/libb.so"]);
    }

    #[test]
    fn missing_digest_is_a_precise_error() {
        let (fs, svc, exe) = world();
        // An exe requesting an unregistered digest fails with the digest in
        // hand — "determine with far greater detail which version is
        // expected if it is not available".
        install(&fs, "/bin/app2", &ElfObject::exe("app2").needs("sha:deadbeefdeadbeef").build())
            .unwrap();
        let r = ServiceLoader::new(&fs, svc).load("/bin/app2").unwrap();
        assert!(!r.success());
        assert_eq!(r.failures[0].name, "sha:deadbeefdeadbeef");
        let _ = exe;
    }

    #[test]
    fn manifest_without_loading() {
        let (fs, svc, exe) = world();
        let manifest = svc.manifest(&fs, &exe).unwrap();
        assert_eq!(manifest.len(), 2);
        assert!(manifest.iter().any(|(_, p)| p == "/store/bb/libb.so"));
        // No accounted loader work happened.
        assert_eq!(fs.snapshot().total(), 0);
    }

    #[test]
    fn manifest_reports_unprovidable() {
        let fs = Vfs::local();
        let svc = HashStoreService::new();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("sha:0000").build()).unwrap();
        let err = svc.manifest(&fs, "/bin/app").unwrap_err();
        assert!(err.contains("sha:0000"));
    }

    #[test]
    fn soname_aliases_serve_unmigrated_binaries() {
        let fs = Vfs::local();
        let mut svc = HashStoreService::new();
        install(&fs, "/store/bb/libb.so", &ElfObject::dso("libb.so").build()).unwrap();
        svc.register_with_soname(&fs, "/store/bb/libb.so").unwrap();
        // The exe still requests by bare soname — the index answers anyway.
        install(&fs, "/bin/old", &ElfObject::exe("old").needs("libb.so").build()).unwrap();
        let r = ServiceLoader::new(&fs, svc).load("/bin/old").unwrap();
        assert!(r.success(), "{:?}", r.failures);
        assert_eq!(r.paths(), vec!["/bin/old", "/store/bb/libb.so"]);
    }

    #[test]
    fn conflicting_soname_aliases_are_an_error() {
        let fs = Vfs::local();
        let mut svc = HashStoreService::new();
        install(&fs, "/store/aa/libx.so", &ElfObject::dso("libx.so").build()).unwrap();
        install(&fs, "/store/bb/libx.so", &ElfObject::dso("libx.so").soname("libx2").build())
            .unwrap();
        svc.register_with_soname(&fs, "/store/aa/libx.so").unwrap();
        // Re-registering the same file is fine; a different file under the
        // same basename is the ambiguity the store must reject.
        svc.register_with_soname(&fs, "/store/aa/libx.so").unwrap();
        let err = svc.register_with_soname(&fs, "/store/bb/libx.so").unwrap_err();
        assert!(err.contains("libx.so"), "{err}");
        // The rejection is a no-op: the original mapping still serves, and
        // the rejected file was not indexed under its digest either.
        assert_eq!(svc.resolve("", "libx.so").as_deref(), Some("/store/aa/libx.so"));
        let bb_digest = HashStoreService::digest(&fs.peek_file("/store/bb/libx.so").unwrap());
        assert_eq!(svc.resolve("", &format!("sha:{bb_digest}")), None);
    }

    #[test]
    fn digest_changes_with_content() {
        let a = HashStoreService::digest(b"one");
        let b = HashStoreService::digest(b"two");
        assert_ne!(a, b);
        assert_eq!(a, HashStoreService::digest(b"one"));
    }

    #[test]
    fn shared_service_through_arc_and_trait_object() {
        // `/bin/plugged` hints a module that exists, so a replay would load
        // it.
        let plugged_world = || {
            let (fs, svc, _) = world();
            install(&fs, "/store/cc/libplug.so", &ElfObject::dso("libplug.so").build()).unwrap();
            let exe = ElfObject::exe("plugged").dlopens("/store/cc/libplug.so").build();
            install(&fs, "/bin/plugged", &exe).unwrap();
            (fs, svc)
        };
        let ((fs, svc), (fs2, svc2)) = (plugged_world(), plugged_world());
        let shared = Arc::new(svc);
        let loader = ServiceLoader::new(&fs, shared.clone());
        let dyn_loader: &dyn Loader = &loader;
        assert_eq!(dyn_loader.name(), "service");
        assert!(dyn_loader.resolves_by_soname());
        assert!(!dyn_loader.supports_dlopen_replay());
        let plain = dyn_loader.load("/bin/plugged").unwrap();
        assert!(dyn_loader.load("/bin/app").unwrap().success());
        // The same index keeps serving other instances.
        assert!(ServiceLoader::new(&fs, shared).load("/bin/app").unwrap().success());
        let loader2 = ServiceLoader::new(&fs2, Arc::new(svc2));
        let dyn_loader: &dyn Loader = &loader2;
        assert_same_load(&plain, &dyn_loader.load_with_dlopen("/bin/plugged").unwrap());
    }
}
