//! # depchaos — a Rust reproduction of *Mapping Out the HPC Dependency Chaos* (SC22)
//!
//! This facade crate re-exports the whole workspace. The pieces:
//!
//! * [`vfs`] — simulated filesystem with syscall accounting and NFS/local
//!   latency models;
//! * [`elf`] — the dynamic-section view of ELF objects plus patchelf-style
//!   editing;
//! * [`graph`] — dependency-graph analytics (closures, constraint taxonomy,
//!   reuse histograms, DOT);
//! * [`loader`] — one breadth-first loader engine
//!   ([`loader::engine`]) with pluggable search and dedup policies, behind
//!   the object-safe [`loader::Loader`] trait: glibc and musl models, a
//!   Zircon-style loader service, the §III-C future loader, plus
//!   libtree-style static analysis;
//! * [`store`] — the §II deployment models: FHS, bundles, the Nix/Spack
//!   store, modules, dependency views;
//! * [`workloads`] — seeded generators for every evaluation artifact
//!   (Debian, Nix Ruby, emacs, Pynamic, ROCm, OpenMP, samba, Fig 3);
//! * [`shrinkwrap`] — the paper's contribution (crate `depchaos-core`),
//!   backend-generic: [`shrinkwrap::Strategy`] freezes whatever closure any
//!   [`loader::Loader`] resolves;
//! * [`launch`] — the Fig 6 parallel-launch discrete-event simulation,
//!   generalised into a scenario-matrix sweep engine
//!   ([`launch::ExperimentMatrix`]): workload × backend × storage × wrap
//!   state × cache policy × service distribution (deterministic, jittered,
//!   or heavy-tailed metadata server — seeded, replicated, reported as
//!   p50/p99 bands), with memoized profiling and per-backend renderers;
//! * [`serve`] — the persistent, incremental what-if service over that
//!   matrix: a content-addressed result store (128-bit scenario keys,
//!   JSONL log, corruption-tolerant load), a sharded executor that
//!   simulates only store misses yet aggregates reports bit-identical to
//!   cold runs, and a batched JSONL front door (`depchaos-serve`).
//!
//! ## Quickstart
//!
//! ```
//! use depchaos::prelude::*;
//!
//! // A world: one app in a Spack-like store.
//! let fs = Vfs::local();
//! let mut repo = Repo::new();
//! repo.add(PackageDef::new("zlib", "1.2").lib(LibDef::new("libz.so.1")));
//! repo.add(PackageDef::new("tool", "1.0").dep("zlib")
//!     .bin(BinDef::new("tool").needs("libz.so.1")));
//! let mut store = StoreInstaller::spack_like();
//! let tool = store.install(&fs, &repo, "tool").unwrap();
//! let bin = format!("{}/tool", tool.bin_dir);
//!
//! // Every loader model is a `Loader`; pick backends at runtime.
//! let glibc = GlibcLoader::new(&fs);
//! let musl = MuslLoader::new(&fs);
//! for loader in [&glibc as &dyn Loader, &musl] {
//!     let r = loader.load(&bin).unwrap();
//!     assert!(r.success(), "{} should load the store layout", loader.name());
//! }
//!
//! // Shrinkwrap through a backend (glibc is the default), then reload:
//! // fewer syscalls, and the musl incompatibility becomes observable.
//! let before = glibc.load(&bin).unwrap();
//! wrap(&fs, &bin, &ShrinkwrapOptions::new().backend(LoaderBackend::glibc())).unwrap();
//! let after = glibc.load(&bin).unwrap();
//! assert!(after.success());
//! assert!(after.syscalls.misses <= before.syscalls.misses);
//! assert!(glibc.resolves_by_soname() && !musl.resolves_by_soname());
//! ```

pub use depchaos_core as shrinkwrap;
pub use depchaos_elf as elf;
pub use depchaos_graph as graph;
pub use depchaos_launch as launch;
pub use depchaos_loader as loader;
pub use depchaos_serve as serve;
pub use depchaos_store as store;
pub use depchaos_vfs as vfs;
pub use depchaos_workloads as workloads;

/// The names most programs want in scope.
pub mod prelude {
    pub use depchaos_core::{
        audit, wrap, LoaderBackend, LoaderFactory, OnMissing, ShrinkwrapOptions, Strategy,
    };
    pub use depchaos_elf::{ElfEditor, ElfObject, Machine, Symbol};
    pub use depchaos_graph::{ConstraintTally, DepGraph, VersionConstraint};
    pub use depchaos_launch::{
        profile_load_checked, render_fig6, simulate_launch, CachePolicy, ExperimentMatrix,
        LaunchConfig, MatrixBackend, ProfileCache, SweepReport, WrapState,
    };
    pub use depchaos_loader::{
        analyze_tree, Environment, FutureLoader, GlibcLoader, HashStoreService, LdCache, Loader,
        MuslLoader, Provenance, Resolution, ServiceLoader,
    };
    pub use depchaos_serve::{
        run_matrix_incremental, serve_batch, CellIdentity, ExecStats, ResultStore, ScenarioKey,
        WhatIfRequest,
    };
    pub use depchaos_store::{
        build_view, gc, BinDef, BundleInstaller, FhsInstaller, LibDef, Module, ModuleSystem,
        PackageDef, Profile, Repo, StoreInstaller,
    };
    pub use depchaos_vfs::{Backend, StorageModel, Vfs};
    pub use depchaos_workloads::{InstalledWorkload, Workload};
}
