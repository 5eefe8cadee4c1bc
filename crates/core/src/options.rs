//! Shrinkwrap configuration, including the loader-backend selector.

use std::fmt;
use std::sync::Arc;

use depchaos_loader::{
    Environment, FutureLoader, GlibcLoader, LdCache, Loader, LoaderService, MuslLoader,
    ServiceLoader,
};
use depchaos_vfs::Vfs;

/// Builds a [`Loader`] over the filesystem being wrapped. Implement this to
/// plug a custom backend into [`Strategy::Backend`]; the stock backends are
/// available via [`LoaderBackend::glibc`] and friends.
///
/// The factory is consulted once per wrap, with the wrap's environment and
/// ld.so.cache, because a loader borrows the [`Vfs`] it runs against —
/// options objects outlive any single filesystem.
pub trait LoaderFactory: Send + Sync {
    fn instantiate<'fs>(
        &self,
        fs: &'fs Vfs,
        env: &Environment,
        cache: &LdCache,
    ) -> Box<dyn Loader + 'fs>;
}

struct GlibcFactory;

impl LoaderFactory for GlibcFactory {
    fn instantiate<'fs>(
        &self,
        fs: &'fs Vfs,
        env: &Environment,
        cache: &LdCache,
    ) -> Box<dyn Loader + 'fs> {
        Box::new(GlibcLoader::new(fs).with_env(env.clone()).with_cache(cache.clone()))
    }
}

struct MuslFactory;

impl LoaderFactory for MuslFactory {
    fn instantiate<'fs>(
        &self,
        fs: &'fs Vfs,
        env: &Environment,
        _cache: &LdCache,
    ) -> Box<dyn Loader + 'fs> {
        Box::new(MuslLoader::new(fs).with_env(env.clone()))
    }
}

struct FutureFactory;

impl LoaderFactory for FutureFactory {
    fn instantiate<'fs>(
        &self,
        fs: &'fs Vfs,
        env: &Environment,
        _cache: &LdCache,
    ) -> Box<dyn Loader + 'fs> {
        Box::new(FutureLoader::new(fs).with_env(env.clone()))
    }
}

struct ServiceFactory<S>(Arc<S>);

impl<S: LoaderService + Send + Sync + 'static> LoaderFactory for ServiceFactory<S> {
    fn instantiate<'fs>(
        &self,
        fs: &'fs Vfs,
        _env: &Environment,
        _cache: &LdCache,
    ) -> Box<dyn Loader + 'fs> {
        Box::new(ServiceLoader::new(fs, self.0.clone()))
    }
}

/// A named, cloneable handle on a loader backend — the currency of
/// backend-generic wrapping. `wrap()`, `wrap_tree()`, the CLIs, and the
/// launch/bench harnesses all accept any backend, which is what makes
/// musl-wrap, hash-store-wrap, and future-loader comparisons first-class
/// scenarios.
#[derive(Clone)]
pub struct LoaderBackend {
    name: String,
    factory: Arc<dyn LoaderFactory>,
}

impl LoaderBackend {
    pub fn new(name: impl Into<String>, factory: Arc<dyn LoaderFactory>) -> Self {
        LoaderBackend { name: name.into(), factory }
    }

    /// The glibc model — the backend real Shrinkwrap runs against, and the
    /// default.
    pub fn glibc() -> Self {
        Self::new("glibc", Arc::new(GlibcFactory))
    }

    /// The musl model. Wrapping *through* musl semantics is how you observe
    /// the §IV incompatibility from the wrap side.
    pub fn musl() -> Self {
        Self::new("musl", Arc::new(MuslFactory))
    }

    /// The §III-C future-loader model.
    pub fn future() -> Self {
        Self::new("future", Arc::new(FutureFactory))
    }

    /// A loader-service backend sharing `service` across instantiations —
    /// e.g. a [`depchaos_loader::HashStoreService`] index.
    pub fn service<S: LoaderService + Send + Sync + 'static>(service: Arc<S>) -> Self {
        Self::service_named("service", service)
    }

    /// [`LoaderBackend::service`] under a caller-chosen display name, so a
    /// sweep can distinguish e.g. a `hash-store` index from other services.
    pub fn service_named<S: LoaderService + Send + Sync + 'static>(
        name: impl Into<String>,
        service: Arc<S>,
    ) -> Self {
        Self::new(name, Arc::new(ServiceFactory(service)))
    }

    /// Every stock backend, for sweeps and cross-backend tests.
    pub fn all_stock() -> Vec<LoaderBackend> {
        vec![Self::glibc(), Self::musl(), Self::future()]
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Build the loader this backend names, bound to `fs`.
    pub fn instantiate<'fs>(
        &self,
        fs: &'fs Vfs,
        env: &Environment,
        cache: &LdCache,
    ) -> Box<dyn Loader + 'fs> {
        self.factory.instantiate(fs, env, cache)
    }
}

impl fmt::Debug for LoaderBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoaderBackend").field("name", &self.name).finish_non_exhaustive()
    }
}

/// How dependencies are resolved to absolute paths.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Run a loader backend (like `ld.so --list`) and freeze what it
    /// reports. Exact for that backend's semantics, including its dedup
    /// effects. The glibc backend is what the paper calls the *ldd*
    /// strategy.
    Backend(LoaderBackend),
    /// Walk the filesystem the way the glibc loader would, without
    /// executing it. Works for foreign binaries; stricter about
    /// hidden-missing paths.
    Native,
}

impl Strategy {
    /// The paper's default strategy: ask the glibc loader model.
    pub fn ldd() -> Self {
        Strategy::Backend(LoaderBackend::glibc())
    }

    /// The strategy's display name (`"native"` or the backend name).
    pub fn name(&self) -> &str {
        match self {
            Strategy::Backend(b) => b.name(),
            Strategy::Native => "native",
        }
    }
}

impl Default for Strategy {
    fn default() -> Self {
        Self::ldd()
    }
}

/// Strategies compare by shape and backend name — enough for tests and
/// config plumbing; factories themselves are opaque.
impl PartialEq for Strategy {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Strategy::Native, Strategy::Native) => true,
            (Strategy::Backend(a), Strategy::Backend(b)) => a.name == b.name,
            _ => false,
        }
    }
}

impl Eq for Strategy {}

/// What to do when a dependency cannot be resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnMissing {
    /// Fail the wrap (default — a wrapped binary must be complete).
    #[default]
    Error,
    /// Keep the unresolved soname as-is and record a warning.
    Keep,
}

/// Options for [`crate::wrap()`]. `default()` and [`ShrinkwrapOptions::new`]
/// are one set: the glibc (*ldd*) strategy, a wrap that fails on a missing
/// dependency, search paths stripped and no `dlopen` promotion. Every wrap
/// also runs the advisory duplicate-strong-symbol scan.
#[derive(Debug, Clone)]
pub struct ShrinkwrapOptions {
    pub strategy: Strategy,
    pub on_missing: OnMissing,
    /// Environment the resolution runs under (the build environment the
    /// paper says you inspect and then rely on).
    pub env: Environment,
    /// ld.so.cache of the resolution system.
    pub cache: LdCache,
    /// Promote each object's `dlopen` hints into the needed list before
    /// resolving, so runtime-loaded modules are frozen too (the python-
    /// modules pattern from §IV).
    pub declare_dlopens: bool,
    /// Clear `RPATH`/`RUNPATH` on the wrapped binary (they are dead weight
    /// once every entry is absolute).
    pub strip_search_paths: bool,
}

impl Default for ShrinkwrapOptions {
    fn default() -> Self {
        ShrinkwrapOptions {
            strategy: Strategy::default(),
            on_missing: OnMissing::default(),
            env: Environment::default(),
            cache: LdCache::default(),
            declare_dlopens: false,
            strip_search_paths: true,
        }
    }
}

impl ShrinkwrapOptions {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Resolve through `backend` — shorthand for
    /// `.strategy(Strategy::Backend(backend))`.
    pub fn backend(mut self, backend: LoaderBackend) -> Self {
        self.strategy = Strategy::Backend(backend);
        self
    }

    pub fn on_missing(mut self, m: OnMissing) -> Self {
        self.on_missing = m;
        self
    }

    pub fn env(mut self, env: Environment) -> Self {
        self.env = env;
        self
    }

    pub fn cache(mut self, cache: LdCache) -> Self {
        self.cache = cache;
        self
    }

    pub fn declare_dlopens(mut self, yes: bool) -> Self {
        self.declare_dlopens = yes;
        self
    }

    pub fn strip_search_paths(mut self, yes: bool) -> Self {
        self.strip_search_paths = yes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_safe() {
        for o in [ShrinkwrapOptions::new(), ShrinkwrapOptions::default()] {
            assert_eq!(o.strategy, Strategy::ldd());
            assert_eq!(o.strategy.name(), "glibc");
            assert_eq!(o.on_missing, OnMissing::Error);
            assert!(o.strip_search_paths);
            assert!(!o.declare_dlopens);
        }
    }

    #[test]
    fn builder_chains() {
        let o = ShrinkwrapOptions::new()
            .strategy(Strategy::Native)
            .on_missing(OnMissing::Keep)
            .declare_dlopens(true)
            .strip_search_paths(false);
        assert_eq!(o.strategy, Strategy::Native);
        assert_eq!(o.strategy.name(), "native");
        assert_eq!(o.on_missing, OnMissing::Keep);
        assert!(o.declare_dlopens);
        assert!(!o.strip_search_paths);
    }

    #[test]
    fn backends_instantiate_their_namesakes() {
        let fs = Vfs::local();
        for backend in LoaderBackend::all_stock() {
            let loader = backend.instantiate(&fs, &Environment::bare(), &LdCache::empty());
            assert_eq!(loader.name(), backend.name());
        }
        let o = ShrinkwrapOptions::new().backend(LoaderBackend::musl());
        assert_eq!(o.strategy, Strategy::Backend(LoaderBackend::musl()));
        assert_ne!(o.strategy, Strategy::ldd());
        assert_ne!(o.strategy, Strategy::Native);
    }

    #[test]
    fn service_backend_shares_one_index() {
        use depchaos_loader::HashStoreService;
        let svc = Arc::new(HashStoreService::new());
        let backend = LoaderBackend::service(svc);
        assert_eq!(backend.name(), "service");
        let fs = Vfs::local();
        let a = backend.instantiate(&fs, &Environment::bare(), &LdCache::empty());
        let b = backend.instantiate(&fs, &Environment::bare(), &LdCache::empty());
        assert_eq!(a.name(), b.name());
    }
}
