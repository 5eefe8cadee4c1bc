//! # depchaos-core — Shrinkwrap
//!
//! The paper's contribution: *"freezing the required dependencies directly
//! into the `DT_NEEDED` section of the binary. Rather than listing the
//! soname each entry is an absolute path. Furthermore, the transitive
//! dependency list is lifted to the top-level binary."*
//!
//! After [`fn@wrap`], the executable:
//!
//! * opens every dependency directly (no directory search — Table II's 36×
//!   syscall reduction and Fig 6's launch speedups follow);
//! * loads the whole closure in a frozen, auditable order before any
//!   transitive request happens, so bare sonames inside libraries are
//!   satisfied from the loader's dedup cache (Fig 5) and
//!   `RPATH`/`RUNPATH` interference in transitive objects is moot
//!   (the ROCm fix, §V-B.1);
//! * never touches a link line, so duplicate-symbol pairs like
//!   `libomp`/`libompstubs` wrap fine and keep the user's order (§V-B.2).
//!
//! Resolution is **backend-generic**: [`Strategy::Backend`] accepts any
//! [`depchaos_loader::Loader`] via a [`LoaderBackend`] handle, so the same
//! `wrap()` call can freeze what the glibc model, the musl model, a
//! content-addressed loader service, or the §III-C future loader would
//! resolve — and the cross-semantics claims of the paper become runnable
//! comparisons instead of prose. Two strategies ship out of the box:
//!
//! * [`Strategy::ldd`] — ask a loader model what it would do under current
//!   conditions (the glibc backend by default); exact, including dedup
//!   effects. Select other backends with
//!   [`ShrinkwrapOptions::backend`].
//! * [`Strategy::Native`] — walk the loader's own glibc search order
//!   ([`depchaos_loader::glibc::glibc_order`]) with unaccounted peeks, for
//!   binaries that can't execute here; stricter, having no dedup cache (a
//!   dependency hidden behind it is reported missing, not inherited).
//!
//! A wrap is a resolution followed by a freeze-and-rewrite. [`fn@wrap`]
//! runs both. [`freeze_load`] runs only the second, on a backend's
//! [`depchaos_loader::LoadResult`] for the binary that the caller already
//! holds — the launch profiler freezes its plain capture's load this way,
//! so a profiled cell runs two loader passes, not three. Both share one
//! freeze path, so the output is the same bytes. What `freeze_load`
//! cannot honour (declared dlopens, the native strategy, a load of
//! another binary) is a named [`WrapError`], never a silent re-resolve.
//!
//! Limits faithfully reproduced: `LD_PRELOAD` still interposes (the PMPI
//! escape hatch keeps working), `LD_LIBRARY_PATH` no longer does, and musl
//! loads shrinkwrapped output incorrectly ([`audit::cross_loader_check`] —
//! or wrap *through* the musl backend and watch it diverge).

pub mod audit;
pub mod batch;
pub mod native;
pub mod options;
pub mod report;
pub mod wrap;

pub use audit::{audit, cross_loader_check, AuditReport};
pub use batch::{wrap_tree, TreeReport};
pub use options::{LoaderBackend, LoaderFactory, OnMissing, ShrinkwrapOptions, Strategy};
pub use report::{WrapError, WrapReport, WrapWarning};
pub use wrap::{freeze_load, wrap};
