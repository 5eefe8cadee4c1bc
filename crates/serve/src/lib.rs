//! # depchaos-serve — the persistent, incremental what-if service
//!
//! The sweep engine ([`depchaos_launch`]) answers "what does launch look
//! like across this matrix?" by simulating every cell from scratch. At
//! fleet scale the questions arrive as *deltas* — "same fleet, but wrap
//! X", "…but double the metadata servers", "…but a heavy-tailed server" —
//! and almost every cell of the implied matrix has been simulated before.
//! This crate makes the engine incremental: a content-addressed result
//! store, an executor that simulates only the misses, and a batched
//! front door for JSONL what-if queries (`depchaos-serve` in
//! `crates/cli`).
//!
//! ## The key schema ([`key`])
//!
//! A store cell is one `(scenario, rank point)` result. Its address, a
//! 128-bit [`ScenarioKey`], hashes the **full semantic identity** of the
//! cell — in order:
//!
//! | # | input | why |
//! |---|-------|-----|
//! | 1 | [`ENGINE_EPOCH`] | wholesale eviction when engine *semantics* change |
//! | 2 | workload name | the `Workload` trait makes the name the world identity |
//! | 3 | backend, storage, wrap, cache names | the discrete axes |
//! | 4 | distribution tag + integer milli parameter | never aliases on display names |
//! | 5 | fault-model tag + integer parameters | a brownout cell must never answer for a healthy one |
//! | 6 | server count + assignment-policy tag | an 8-server fleet must never answer for a single server; the policy tag keeps hash and least-loaded fleets apart |
//! | 7 | rank point, replicate **plan** (tagged: fixed effective count, or the adaptive stopping-rule parameters) | deterministic *and fault-draw-free* cells clamp to 1 under either plan, like the sweep; a draw-taking cell under [`AdaptiveControl`](depchaos_launch::AdaptiveControl) hashes the rule, never the K it stopped at |
//! | 8 | experiment seed + every calibration field of the base config | the seed domain and the cluster model |
//!
//! The hash is two independently keyed SipHash-2-4 lanes over a
//! length-prefixed field encoding; golden-vector tests pin the exact keys
//! (the on-disk format) and a property test pins the semantics: **two
//! cells share a key if and only if they would simulate identically.**
//! The full determinism story — what makes a warm hit safe to serve, and
//! why adaptive replicate control keeps cells bit-reproducible — is in
//! `docs/determinism.md` at the repository root.
//!
//! ## Invalidation rules
//!
//! Content addressing *is* the dependency tracking: every semantic input
//! is part of the address, so editing one axis value re-keys exactly the
//! affected cells — the edited cells miss, everything else stays warm.
//! There is no dependency graph to maintain and no stale-entry hazard.
//! Three rules cover the rest:
//!
//! * **Engine changes**: bump [`ENGINE_EPOCH`]; every record written under
//!   an older epoch is evicted (and counted) at store load.
//! * **Explicit eviction**: [`ResultStore::invalidate_where`] drops
//!   records by predicate (label, rank, …) without recomputing keys;
//!   [`ResultStore::compact`] makes the eviction durable.
//! * **Corruption**: a record that fails to decode (torn final append,
//!   bit rot) is skipped and counted, never served and never fatal.
//!
//! ## Incremental execution ([`exec`])
//!
//! [`run_matrix_incremental`] is the launch pipeline
//! ([`ExperimentMatrix::run_with`](depchaos_launch::ExperimentMatrix::run_with))
//! with the [`ResultStore`] as its per-cell memo: it looks every cell up,
//! fans the unique cold cells' *profiling* over a worker pool (`jobs`
//! threads pulling off a shared counter; `jobs <= 1` runs inline),
//! classifies each cold scenario once (the shared `Arc` its misses
//! borrow), simulates every cold `(scenario, rank point)` in batched
//! passes, persists each fresh record, and aggregates a
//! [`SweepReport`](depchaos_launch::SweepReport) in matrix order whose
//! `results` are **bit-identical** to a cold `matrix.run()` — floats
//! round-trip the disk by IEEE bit pattern, and subset runs are
//! bit-identical to slices of full runs because every rank point is
//! simulated independently. [`ExecStats`] carries the warm/cold counters
//! a warm replay is judged by (`cold_cells == 0`).
//!
//! ## The request format ([`requests`])
//!
//! One JSONL request per line: mandatory `id` and `base` (a named base
//! workload: `pynamic-N`, `pynamic-rpath-N`, `axom-SEED`, `rocm-4.5`,
//! `rocm-mixed`, `emacs`), plus axis deltas `wrap`, `cache`, `backend`,
//! `storage`, `dist`, `fault` (report spellings — `fault` takes
//! `stall-AT-DUR`, `loss-MILLI-TIMEOUT-BACKOFF-RETRIES`,
//! `stragglers-FRAC-SLOW`), `ranks` (list), `replicates`, `seed`,
//! `servers` (the modeled N-server metadata fleet — the DES topology
//! axis, with `assign` picking `hash` or `least` routing), and
//! `servers_ideal` (the coordination-free approximation:
//! `meta_service_ns / N`). Answers are one JSONL line per (query, rank
//! point) carrying only simulator-deterministic integers; batch and
//! per-query hit/miss/latency counters go to a separate stats document.
//! A cell whose profiling *panics* is isolated (`catch_unwind` per cell):
//! the rest of the batch completes, the cell answers with an error line,
//! it is never persisted, and the batch exits nonzero.
//! An example session:
//!
//! ```text
//! $ cat batch.jsonl
//! {"id":"status-quo","base":"pynamic-200"}
//! {"id":"wrap-everything","base":"pynamic-200","wrap":"wrapped"}
//! $ depchaos-serve --store /var/depchaos --requests batch.jsonl \
//!       --out answers.jsonl --stats stats.json --jobs 8
//! $ head -1 answers.jsonl
//! {"id":"status-quo","label":"pynamic-200/glibc/nfs/plain/cold/deterministic","ranks":512,"launch_ns":...,"q_within":true}
//! $ depchaos-serve --store /var/depchaos --requests batch.jsonl \
//!       --out answers2.jsonl --stats stats2.json
//! $ cmp answers.jsonl answers2.jsonl && grep -o '"total_cold_cells":0' stats2.json
//! "total_cold_cells":0
//! ```
//!
//! The second run simulated nothing — same bytes, all hits.

pub mod codec;
pub mod exec;
pub mod key;
pub mod requests;
pub mod store;

pub use codec::{CellOutcome, CellRecord, ProfileSummary};
pub use exec::{default_jobs, run_matrix_incremental, ExecStats};
pub use key::{CellIdentity, ScenarioKey, ENGINE_EPOCH};
pub use requests::{serve_batch, BatchReport, QueryOutcome, WhatIfRequest};
pub use store::{LoadStats, ResultStore};
