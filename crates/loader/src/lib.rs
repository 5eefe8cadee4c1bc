//! # depchaos-loader — executable models of `ld.so`, one engine, many
//! backends
//!
//! Everything the paper says about loader behaviour is encoded here as a
//! deterministic interpreter over a [`depchaos_vfs::Vfs`] full of
//! [`depchaos_elf::ElfObject`]s — and since every dynamic loader runs the
//! same breadth-first algorithm, there is exactly **one** interpreter:
//! the [`engine`] module owns the BFS driver, the dedup state, the event
//! log, the failure record, and the syscall-snapshot bracketing. A
//! concrete loader is a pair of small policy values plugged into it:
//!
//! * a [`engine::SearchPolicy`] — *where* a request may be satisfied from
//!   (the probe plan), and
//! * a [`engine::DedupPolicy`] — *when* two requests are the same library
//!   (the identity relation).
//!
//! Four backends ship. Each is a type alias of [`Engine`] over its two
//! policies — `GlibcLoader<'fs>` is `Engine<'fs, GlibcSearch, GlibcDedup>`
//! — and its module adds only a constructor and the builders of its own
//! policy:
//!
//! * **glibc** ([`GlibcLoader`]): per-request search order `DT_RPATH` (of
//!   the requester and its loader-chain ancestors, suppressed by a
//!   `DT_RUNPATH` on the requester) → `LD_LIBRARY_PATH` → `DT_RUNPATH`
//!   (requester only, never inherited) → ld.so.cache → default dirs;
//!   dedup by requested name, soname, path, and inode — which is how a
//!   missing search path can hide inside a working binary (Listing 1);
//!   hwcaps subdirectories; silent skipping of wrong-architecture
//!   candidates; `LD_PRELOAD`; `dlopen` replay.
//! * **musl** ([`MuslLoader`]): dedup by pathname and inode only (no
//!   soname cache — the documented reason Shrinkwrap does not support
//!   musl), and RPATH/RUNPATH treated identically: inherited like RPATH
//!   but searched *after* `LD_LIBRARY_PATH`.
//! * **loader service** ([`ServiceLoader`]): §III-C's Zircon-style
//!   delegation — every request goes to a [`LoaderService`] policy object
//!   such as the content-addressed [`HashStoreService`].
//! * **future loader** ([`FutureLoader`]): the paper's proposal —
//!   prepend/append search dirs with per-entry propagation flags, plus
//!   per-dependency pins.
//!
//! All four implement the object-safe [`Loader`] trait through the
//! engine's one impl, so consumers (Shrinkwrap, the launch profiler, the
//! CLIs) are backend-generic: hand them any `&dyn Loader` and compare
//! semantics on the same filesystem image. Capability queries
//! ([`Loader::resolves_by_soname`], [`Loader::supports_dlopen_replay`])
//! expose the semantic differences the paper turns on — musl answering
//! `false` to soname resolution *is* the §IV incompatibility. The answers,
//! and the backend's name, are associated consts of the policies
//! ([`DedupPolicy::BY_SONAME`], [`SearchPolicy::DLOPEN_REPLAY`],
//! [`SearchPolicy::NAME`]), so a backend cannot be configured into a
//! different answer.
//!
//! [`tree`] is libtree-style per-object static resolution: the glibc
//! loader's own search order ([`glibc::glibc_order`], which Shrinkwrap's
//! native strategy walks too) without the dedup cache, revealing the
//! `not found` entries dynamic loading papers over (Listing 1's
//! `libsamba-debug-samba4.so`).
//!
//! The loaders charge every probe to the VFS cost model, so Table II
//! (syscall counts) and Fig 6 (NFS launch storms) fall out of the same code
//! path that answers the correctness questions.

pub mod api;
pub mod engine;
pub mod env;
pub mod future;
pub mod glibc;
pub mod ldcache;
pub mod musl;
pub mod resolve;
pub mod result;
pub mod service;
pub mod tree;

pub use api::Loader;
pub use engine::{Ctx, DedupPolicy, Engine, EngineConfig, PreloadMode, SearchPolicy, State};
pub use env::Environment;
pub use future::FutureLoader;
pub use glibc::GlibcLoader;
pub use ldcache::LdCache;
pub use musl::MuslLoader;
pub use resolve::{Provenance, Resolution};
pub use result::{LoadError, LoadResult, LoadedObject};
pub use service::{HashStoreService, LoaderService, ServiceLoader};
pub use tree::{analyze_tree, DepTree, TreeNode};
