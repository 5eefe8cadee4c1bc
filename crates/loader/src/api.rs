//! The backend-agnostic loader interface.
//!
//! Every loader model in this crate — and any future backend — implements
//! [`Loader`], so tools that *consume* a loader (Shrinkwrap, the launch
//! profiler, the report CLIs) can be written once and run against glibc
//! semantics, musl semantics, a loader service, or the §III-C proposal
//! interchangeably. The trait is object-safe: `Box<dyn Loader>` /
//! `&dyn Loader` are the currency of backend-generic code.
//!
//! The crate's four backends share one impl, the [`crate::Engine`]'s. It
//! answers the name and the two capability queries from its policies'
//! associated consts: [`crate::SearchPolicy::NAME`],
//! [`crate::DedupPolicy::BY_SONAME`] (`false` for musl only) and
//! [`crate::SearchPolicy::DLOPEN_REPLAY`] (`true` for glibc only).

use crate::result::{LoadError, LoadResult};

/// A dynamic-loader model bound to one filesystem.
pub trait Loader {
    /// Stable, human-readable backend name (`"glibc"`, `"musl"`, ...) for
    /// reports and CLI selection.
    fn name(&self) -> &'static str;

    /// Simulate `execve(exe)`: map the executable and the transitive
    /// closure of its needed entries under this backend's semantics.
    fn load(&self, exe: &str) -> Result<LoadResult, LoadError>;

    /// [`Loader::load`], then replay each loaded object's `dlopen` hints
    /// (in load order), which search with the *caller's* paths — the Qt
    /// plugin problem from §III-A. Backends without dlopen replay fall back
    /// to a plain load, so callers can request it unconditionally.
    fn load_with_dlopen(&self, exe: &str) -> Result<LoadResult, LoadError> {
        self.load(exe)
    }

    /// Whether a bare-soname request can be satisfied by an object that was
    /// loaded under a different name (glibc's soname cache). Shrinkwrap's
    /// correctness rests on this — backends answering `false` (musl) load
    /// shrinkwrapped output incorrectly, exactly as §IV documents.
    fn resolves_by_soname(&self) -> bool;

    /// Whether [`Loader::load_with_dlopen`] actually replays dlopen hints.
    fn supports_dlopen_replay(&self) -> bool {
        false
    }
}

/// Assert that two loads of one image are the same load: the same objects,
/// events, syscalls and simulated time. Compare loads of two identically
/// built filesystems — a second load of the same one runs warmer.
#[cfg(test)]
pub(crate) fn assert_same_load(a: &LoadResult, b: &LoadResult) {
    assert_eq!(a.paths(), b.paths());
    assert_eq!(format!("{:?}", a.events), format!("{:?}", b.events));
    assert_eq!(a.syscalls, b.syscalls);
    assert_eq!(a.time_ns, b.time_ns);
}
