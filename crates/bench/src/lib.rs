//! # depchaos-bench — one measurement record and its regression gate
//!
//! The crate's one bench target, `hotpath` (`benches/hotpath.rs`, a plain
//! `main`), times every case with one min-of-batches estimator, sized by
//! time rather than by a call count, and writes the rows to
//! `BENCH_des.json` at the repo root, one `{"name", "mean_ns_per_iter"}`
//! line per case. The rows cover the DES kernels, VFS resolution,
//! classification, faults, fleets, the serve layer, the batch planner,
//! adaptive control, the loader engines, Shrinkwrap's own cost (§V) and
//! the store-layout ablations.
//!
//! The [`diff`] module and its `bench-diff` binary read two records with
//! the serve codec's field reader and gate the fresh one against the
//! checked-in baseline; a row that no gate names is an error. The paper's
//! tables and figures are rendered by `depchaos-report`, not here.

pub mod diff;
