//! The discrete-event launch simulation.
//!
//! A fleet of `S` shared metadata servers (FIFO, deterministic service
//! time; `cfg.topology` — the default is the paper's single server), N
//! node clients each replaying the captured op stream *sequentially* — the
//! dynamic loader issues one syscall at a time, so a node cannot pipeline
//! its own lookups. Contention emerges naturally: every node's cold op
//! must pass through its server's queue. Requests route by the topology's
//! [`AssignPolicy`]. `HashByNode` pins node `i` to server `i % S`
//! (seed-free, schedule-independent), so the fleet is `min(S, N)`
//! independent FIFO lanes, lane `l` holding nodes `l, l + S, l + 2S, …`
//! (a `Lane`): every engine below solves each lane as a single-server
//! system, its draws still indexed by global node id, and the fleet
//! finishes with its latest lane. `LeastLoaded` picks the earliest-free
//! server at service time with index tie-breaks; that depends on the event
//! schedule, so its S servers share one lane of every node. `S = 1` is one
//! lane of the whole fleet, the pre-topology arithmetic bit for bit.
//!
//! # The hot path: classify once, then the cheapest exact regime
//!
//! Simulation is split into two phases so a rank sweep pays classification
//! exactly once:
//!
//! 1. [`ClassifiedStream::classify`] turns the raw [`StraceLog`] into a
//!    compact schedule: one segment per server round trip (its preceding
//!    local-compute time folded into a single number) plus aggregate
//!    counts, the local-compute total and the schedule's round-major
//!    verdict. This is the only pass that touches the op stream, and its
//!    output is immutable — the experiment engine shares one
//!    `ClassifiedStream` across every rank point and replicate of a cell
//!    instead of re-deriving (and re-allocating) it per point.
//! 2. [`simulate_classified`] takes the row's [`SolverClass`] from
//!    [`SolverClass::of`] — the cheapest of the regimes below, all of
//!    which produce **bit-identical results** — solves the cold fleet in
//!    it, and adds the per-row arithmetic (warm fleet, op accounting,
//!    overheads). That one rule, the heap dispatch and the per-row
//!    arithmetic are shared with [`crate::batch::BatchPlan`], which is
//!    what keeps a batched row and a per-call result equal:
//!
//!    * **Coalesced** — no server segments: every node replays the same
//!      local compute, so one replay covers the fleet.
//!    * **Analytic** — the symmetric all-cold fleet of two or more cold
//!      nodes under deterministic service: when the segment schedule is
//!      round-major (uniform metadata streams always are), each lane
//!      collapses to a max-plus line-envelope recursion over the
//!      segments, `O(server_ops)` independent of the node count, exact
//!      `peak_queue_depth` included. Warm and serverless nodes are always
//!      coalesced analytically (one replay, multiplied out).
//!    * **Heap** — a lane's cold nodes walk the segment schedule, one
//!      event per *server* op, through one event queue: a ring kept sorted
//!      by inserting from its rear, where a lane's next arrival mostly
//!      lands, and a binary heap for the inserts that belong more than 8
//!      places deep and for re-issued requests, which are due a client
//!      timeout later. An event that lands at the back costs O(1) and none
//!      costs more than O(8 + log lane nodes), so a lane pays `O(lane
//!      nodes × server_ops)` events at no more than a heap's cost each,
//!      and an S-lane hash fleet pays S small queues and no per-event
//!      routing. The engine of lone cold nodes, of schedules that are not
//!      round-major (payload-heavy gaps can break the ordering) or outgrow
//!      the envelope's cap, and of the stochastic and faulted classes.
//!    * **Reference** ([`reference`](mod@reference)) — the retained oracle: every node
//!      walks every op, `O(nodes × ops · log nodes)`. Never used by the
//!      sweeps; exists so the others have an independent ground truth
//!      (`tests/des_equivalence.rs` and the in-crate suite pin them all
//!      to bit-identical [`LaunchResult`]s by property test).
//!
//! # Stochastic service times
//!
//! `cfg.service_dist` selects the server's per-op service-time model (see
//! [`crate::ServiceDistribution`]). Under `Deterministic` the simulation takes the
//! exact, draw-free paths above — bit-identical to the pre-distribution DES
//! whatever the seed. The stochastic variants scale each segment's service
//! time by one factor drawn from the cold node's own
//! [`SplitMix::split`]`(cfg.seed, SplitMix::NODE, node)` stream, consumed
//! strictly in segment order, so:
//!
//! * every draw reproduces from `(seed, node, segment index)` alone —
//!   independent of heap interleaving, replicate fan-out, or how rows are
//!   batched;
//! * warm and serverless nodes take no draws and stay coalesced (they never
//!   occupy the server, so they remain symmetric even under jitter);
//! * the [`reference`](mod@reference) oracle draws the *same* per-(node, segment) factors,
//!   keeping the fast path property-testable bit-identical in the
//!   stochastic regimes too.
//!
//! What the outputs pin is the scaled integer service time, not libm's
//! bits, and the heap kernel certifies that integer
//! (`draw_service_ns`): a log-normal draw evaluates its cosine with a
//! branch-free polynomial, and a rounding check proves that libm's path
//! truncates to the same integer, or finishes through libm's `cos` when it
//! cannot. The [`reference`](mod@reference) oracle keeps `sample` and
//! libm, so every heap-versus-oracle property checks the certified draw.
//!
//! # The RNG stream-domain map
//!
//! Every random draw in the launch stack comes from a
//! [`SplitMix::split`]`(seed, domain, stream)` generator; the domain
//! constant says who owns the draw, and no two domains can alias (each
//! input goes through the full SplitMix finalizer):
//!
//! | domain | stream index | draws |
//! |---|---|---|
//! | [`SplitMix::NODE`] | cold node index | per-(node, segment) service factors, here |
//! | [`SplitMix::REPLICATE`] | replicate `r ≥ 1` | one `u64`: replicate `r`'s config seed ([`crate::replicate_seed`]) |
//! | [`SplitMix::WORKLOAD`] | scenario-label digest | one `u64`: the cell's base seed ([`crate::scenario_seed`]) |
//! | [`SplitMix::FAULT`] | cold node index | RPC-loss verdicts and straggler membership ([`FaultModel`]) |
//!
//! The flow is `experiment seed → WORKLOAD → cell seed → REPLICATE →
//! replicate seed → NODE → service factors`; each arrow is a domain hop,
//! so a value drawn at one level can never equal a state or a draw at
//! another. (The pre-domain scheme violated exactly this: replicate `r`'s
//! seed *was* node `r`'s first service draw of replicate 0, and node 0's
//! stream *was* the base generator — stochastic results produced before
//! the fix come from correlated streams and are not comparable.)
//!
//! The client-side payload time of a read (`client_extra_ns`) is fixed at
//! classification: jitter models server occupancy variance, not the
//! transfer the client has to absorb either way.
//!
//! # Fault injection
//!
//! `cfg.fault` (a [`FaultModel`]) plugs a fault hook into the one event
//! loop: server brownout stalls postpone service starts, lost RPC
//! responses are re-issued after client timeout plus exponential backoff
//! (each retry is real extra server work), and a seeded fraction of cold
//! nodes runs slow. Every fault draw comes from the FAULT domain, per cold
//! node in that node's own event order — decorrelated from the NODE-domain
//! service draws, so a faulted and a healthy cell of the same seed share
//! service times (common random numbers). [`FaultModel::None`] plugs in the
//! zero-sized healthy hook, whose every method is the identity, so the
//! healthy loop carries no per-event fault dispatch and its results are
//! bit-identical to the pre-fault DES. Any other model sends the row to the
//! heap: retries break the closed form's round-major symmetry and stalls
//! its service pacing. [`reference`](mod@reference) carries the same fault
//! semantics as the oracle, and `LaunchResult.server_ops` keeps counting
//! *distinct* ops — retried attempts are accounted separately in
//! `retries_issued`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::f64::consts::TAU;

use depchaos_vfs::{Op, StraceLog};
use depchaos_workloads::SplitMix;

use crate::config::{
    log_normal_factor, AssignPolicy, LaunchConfig, LaunchResult, ServiceDistribution,
};
use crate::fault::{backoff_ns, FaultCounts, FaultModel};

/// The [`LaunchConfig`] fields classification depends on: the latency
/// calibration. Two configs with equal `ClassifyParams` can share one
/// [`ClassifiedStream`] — rank count, node shape, overheads, cache policy,
/// service distribution, fault model and *seed* all vary freely across a
/// sweep (and across stochastic replicates) without reclassifying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassifyParams {
    pub rtt_ns: u64,
    pub meta_service_ns: u64,
    pub warm_ns: u64,
}

impl ClassifyParams {
    /// The classification-relevant slice of `cfg`.
    pub fn of(cfg: &LaunchConfig) -> Self {
        ClassifyParams {
            rtt_ns: cfg.rtt_ns,
            meta_service_ns: cfg.meta_service_ns,
            warm_ns: cfg.warm_ns,
        }
    }
}

/// Hard ceiling on one drawn service time: 2⁴⁰ ns, ~18 minutes. Far
/// beyond any physical metadata op, but low enough that even a
/// pathological stream (millions of server ops all drawn at the cap) sums
/// well inside `u64` nanoseconds — the event loop's clock arithmetic stays
/// overflow-free without saturating every addition. `depchaos-serve`
/// bounds a requested fault model's times by it too.
pub const MAX_SERVICE_NS: u64 = 1 << 40;

/// Apply a drawn factor to a base service time. Rounds toward zero and
/// clamps to `1..=MAX_SERVICE_NS`: a pathological tail draw can neither
/// produce a zero-occupancy server op nor overflow the simulation clocks.
pub(crate) fn scale_service_ns(base_ns: u64, factor: f64) -> u64 {
    let scaled = base_ns as f64 * factor;
    if scaled >= MAX_SERVICE_NS as f64 {
        return MAX_SERVICE_NS;
    }
    (scaled as u64).max(1)
}

/// 2⁻⁵³: [`SplitMix::unit`] is its draw's top 53 bits `k` times this.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// The largest σ, in milli-units, whose log-normal draws
/// [`draw_service_ns`] certifies without libm's `cos`; its error budget
/// assumes σ ≤ 4.
const CERTIFIED_SIGMA_MILLI: u32 = 4000;

/// One service time drawn for a `base_ns` segment: equal to
/// `scale_service_ns(base_ns, dist.sample(rng))` for every input, from
/// the same two `next_u64` draws. The heap kernel's draw;
/// [`reference`](mod@reference) keeps `sample`, so every heap-versus-oracle
/// proptest checks this against libm.
///
/// A log-normal draw with σ ≤ 4 skips libm's `cos`, most of the cost of
/// a draw. It evaluates the factor with [`cos_2pi`]'s polynomial, through
/// the libm `ln`, `sqrt` and `exp` that `sample` calls, and gets `p`, its
/// estimate of the scaled time `P` the libm path computes. It returns
/// `⌊p + m⌋` when `1 ≤ p − m`, `p + m < 2⁴⁰` and both bounds truncate to
/// one integer, with the margin `m = p·2⁻³⁶`; otherwise it finishes
/// through libm's `cos` and `sample`'s formula ([`log_normal_factor`]).
/// Ziv's rounding test (A. Ziv, ACM TOMS 17(3), 1991), and why it is
/// exact:
///
/// * The two cosines differ by at most 2⁻⁴⁷·⁶: the polynomial is within
///   2⁻⁴⁸ of cos(2π·u₂); libm evaluates cos at `t = fl(TAU·u₂)`, where
///   `|t − 2π·u₂| ≤ 2⁻⁵⁰·⁴`; and glibc documents `cos` as accurate to
///   1 ulp.
/// * `R = √(−2 ln u₁) < 8.6` and σ ≤ 4, and every later operation is the
///   same on both paths: ×R, ×σ, −σ²/2, libm `exp`, ×base. So
///   `|p − P| ≤ P·2⁻⁴²`.
/// * The margin 2⁻³⁶ is about 60× that bound, so `P` lies in
///   `[p − m, p + m]`: both paths truncate to the same integer, and
///   neither clamp of [`scale_service_ns`] engages.
///
/// A fallback is rare: 154 of the 59,003,604 log-normal draws of one
/// `fig6-queueing` pass.
#[inline]
pub(crate) fn draw_service_ns(dist: ServiceDistribution, rng: &mut SplitMix, base_ns: u64) -> u64 {
    match dist {
        ServiceDistribution::LogNormal { sigma_milli } if sigma_milli <= CERTIFIED_SIGMA_MILLI => {
            let k1 = rng.next_u64() >> 11;
            let k2 = rng.next_u64() >> 11;
            log_normal_ns(sigma_milli, k1, k2, base_ns)
        }
        _ => scale_service_ns(base_ns, dist.sample(rng)),
    }
}

/// [`draw_service_ns`]'s log-normal draw from the 53-bit draws `k1` and
/// `k2` behind `sample`'s `u1 = 1 − unit()` and `u2 = unit()`.
#[inline]
fn log_normal_ns(sigma_milli: u32, k1: u64, k2: u64, base_ns: u64) -> u64 {
    let u1 = 1.0 - k1 as f64 * UNIT;
    certified_ns(sigma_milli, u1, k2, base_ns)
        .unwrap_or_else(|| libm_ns(sigma_milli, u1, k2 as f64 * UNIT, base_ns))
}

/// `sample`'s scaled time from `u1` and `u2`, through libm's `cos`. Kept
/// out of line: inlined, the compiler evaluates it on every draw and
/// selects, which costs more than the polynomial saves.
#[cold]
#[inline(never)]
fn libm_ns(sigma_milli: u32, u1: f64, u2: f64, base_ns: u64) -> u64 {
    scale_service_ns(base_ns, log_normal_factor(sigma_milli, u1, (TAU * u2).cos()))
}

/// The integer [`draw_service_ns`] certifies from the polynomial cosine,
/// or `None` when Ziv's test cannot decide it.
#[inline]
fn certified_ns(sigma_milli: u32, u1: f64, k2: u64, base_ns: u64) -> Option<u64> {
    let p = base_ns as f64 * log_normal_factor(sigma_milli, u1, cos_2pi(k2));
    let m = p * (1.0 / (1u64 << 36) as f64);
    let (lo, hi) = (p - m, p + m);
    let certain = (1.0 <= lo) & (hi < MAX_SERVICE_NS as f64) & (lo as i64 == hi as i64);
    certain.then_some(hi as i64 as u64)
}

/// sin's odd Taylor coefficients (−1)ⁿ/(2n+1)!, n = 0..=9: every
/// factorial is exact in f64, so each is the correctly rounded quotient.
const SIN_TAYLOR: [f64; 10] = [
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
    1.0 / 355_687_428_096_000.0,
    -1.0 / 121_645_100_408_832_000.0,
];

/// cos(2π·k·2⁻⁵³) for a 53-bit `k`, within 2⁻⁴⁸ and without a branch.
/// The turn folds to `w = min(k, 2⁵³ − k)·2⁻⁵³ ∈ [0, ½]` exactly (cos is
/// even and one turn periodic), and cos 2πw = 1 − 2·sin²(πw) with
/// πw ∈ [0, π/2], where sin's Taylor polynomial through x¹⁹ is within its
/// first omitted term, 2⁻⁵¹·⁸. The polynomial runs in Estrin form, whose
/// dependency chains are short.
#[inline]
fn cos_2pi(k: u64) -> f64 {
    let w = k.min((1 << 53) - k) as f64 * UNIT;
    let x = std::f64::consts::PI * w;
    let c = SIN_TAYLOR;
    let y = x * x;
    let y2 = y * y;
    let y4 = y2 * y2;
    let p01 = c[0] + c[1] * y;
    let p23 = c[2] + c[3] * y;
    let p45 = c[4] + c[5] * y;
    let p67 = c[6] + c[7] * y;
    let p89 = c[8] + c[9] * y;
    let p0_7 = (p01 + p23 * y2) + (p45 + p67 * y2) * y4;
    let sin = x * (p0_7 + p89 * (y4 * y4));
    1.0 - 2.0 * sin * sin
}

/// One server round trip in the schedule: the local compute a node performs
/// since its previous server op, then the request itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ServerSeg {
    /// Client-local time spent before issuing this request.
    pub(crate) pre_local_ns: u64,
    /// Server-side occupancy of the request.
    pub(crate) service_ns: u64,
    /// Client-side time consuming the response after the server moves on
    /// (streaming transfer of read payloads).
    pub(crate) client_extra_ns: u64,
}

/// A classified, compacted op stream: the reusable input to
/// [`simulate_classified`]. Build one per (op stream, [`ClassifyParams`])
/// and sweep as many rank points over it as you like.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedStream {
    params: ClassifyParams,
    /// One entry per server-class op, in stream order.
    segments: Vec<ServerSeg>,
    /// Local compute after the last server op.
    tail_local_ns: u64,
    /// Total ops in the original stream.
    n_ops: u64,
    /// Ops classified client-local (for a cold node).
    n_local: u64,
    /// A cold node's total client-local compute.
    local_total_ns: u64,
    /// The schedule's verdict under [`round_major`].
    round_major: bool,
}

impl ClassifiedStream {
    /// Classify the profiled ops under `cfg`'s latency calibration.
    /// Anything the VFS charged at least an RTT for was a server round
    /// trip; reads ship their (size-derived) cost as the service time; the
    /// rest is client-local. The local-compute total and the round-major
    /// verdict every row reads are computed here, once.
    pub fn classify(ops: &StraceLog, cfg: &LaunchConfig) -> Self {
        let params = ClassifyParams::of(cfg);
        let mut segments = Vec::new();
        let (mut pre_local_ns, mut local_total_ns, mut n_local) = (0u64, 0u64, 0u64);
        for e in &ops.entries {
            if e.op == Op::Read {
                // Data reads are bandwidth-bound, not IOPS-bound: the server
                // streams to several clients at once, so its per-read
                // occupancy is a fraction of the client-perceived transfer
                // time; the client still spends the full cost receiving.
                let service = (e.cost_ns / 8).max(params.meta_service_ns);
                segments.push(ServerSeg {
                    pre_local_ns,
                    service_ns: service,
                    client_extra_ns: e.cost_ns.saturating_sub(service),
                });
                pre_local_ns = 0;
            } else if e.cost_ns >= params.rtt_ns {
                segments.push(ServerSeg {
                    pre_local_ns,
                    service_ns: params.meta_service_ns,
                    client_extra_ns: 0,
                });
                pre_local_ns = 0;
            } else {
                let cost = e.cost_ns.max(params.warm_ns);
                pre_local_ns += cost;
                local_total_ns += cost;
                n_local += 1;
            }
        }
        ClassifiedStream {
            params,
            round_major: round_major(&segments, params.rtt_ns / 2),
            segments,
            tail_local_ns: pre_local_ns,
            n_ops: ops.entries.len() as u64,
            n_local,
            local_total_ns,
        }
    }

    /// The parameters this stream was classified under.
    pub fn params(&self) -> ClassifyParams {
        self.params
    }

    /// Panics unless `cfg` has the latency calibration this stream was
    /// classified under (rank count, node shape, overheads, cache policy,
    /// service distribution and fault model may differ freely).
    pub(crate) fn check_calibration(&self, cfg: &LaunchConfig) {
        assert_eq!(
            self.params,
            ClassifyParams::of(cfg),
            "ClassifiedStream reused under a different latency calibration; reclassify"
        );
    }

    /// Server round trips one cold replay performs.
    pub fn server_ops(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Total ops in the underlying stream.
    pub fn len(&self) -> u64 {
        self.n_ops
    }

    pub fn is_empty(&self) -> bool {
        self.n_ops == 0
    }

    /// A cold node's total client-local compute (excludes server waits).
    pub fn local_total_ns(&self) -> u64 {
        self.local_total_ns
    }

    /// Wall time of one fully warm replay: every op, server-class or not,
    /// hits the node cache... except locals keep their own (higher) cost.
    pub(crate) fn warm_replay_ns(&self) -> u64 {
        self.local_total_ns() + self.server_ops() * self.params.warm_ns
    }

    /// The per-server-op schedule, for the in-crate analytic consumers
    /// ([`crate::queueing`]).
    pub(crate) fn server_segments(&self) -> &[ServerSeg] {
        &self.segments
    }

    /// Local compute after the last server op.
    pub(crate) fn tail_local(&self) -> u64 {
        self.tail_local_ns
    }
}

/// Simulate launching `cfg.ranks` ranks whose per-rank startup op stream is
/// `ops` (captured by [`crate::profile::profile_load_checked`] on a cold mount).
///
/// Classifies and simulates in one call; when sweeping several rank points
/// over one stream, build the [`ClassifiedStream`] once and call
/// [`simulate_classified`] per point instead.
pub fn simulate_launch(ops: &StraceLog, cfg: &LaunchConfig) -> LaunchResult {
    simulate_classified(&ClassifiedStream::classify(ops, cfg), cfg)
}

/// The DES over a pre-classified stream. Exact — bit-identical to
/// [`reference::simulate_launch_reference`] — but warm nodes cost O(1) and
/// cold nodes cost one event per *server* op, in event queues no larger
/// than one lane.
///
/// Panics if `cfg`'s latency calibration differs from the one the stream
/// was classified under (rank count, node shape, overheads, and cache
/// policy may differ freely).
pub fn simulate_classified(stream: &ClassifiedStream, cfg: &LaunchConfig) -> LaunchResult {
    let class = SolverClass::of(cfg, stream);
    let run = match class {
        // No cold node of a coalesced row ever occupies a server: it has
        // no lanes.
        SolverClass::Coalesced => fold_lanes(stream, []),
        _ => fold_lanes(stream, lanes(cfg).map(|lane| solve_lane(stream, cfg, class, lane))),
    };
    scatter(stream, cfg, run)
}

/// The solver class a simulation row takes: which of the bit-identical
/// regimes is cheapest for its (schedule, distribution, fault, cold-fleet,
/// topology) combination. [`SolverClass::of`] is the one rule;
/// [`simulate_classified`] and [`crate::batch::BatchPlan::push`] both call
/// it, and solve every lane of the row in its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverClass {
    /// No server segments: warm or serverless rows coalesce to pure
    /// segment arithmetic — no event, no draw, no fault can manifest.
    Coalesced,
    /// Deterministic service, ≥ 2 cold nodes, round-major schedule, and
    /// a hash-routed (or single-server) fleet: the max-plus line-envelope
    /// recursion per lane. `LeastLoaded` multi-server rows take
    /// [`SolverClass::Heap`] — their routing depends on the event
    /// schedule.
    Analytic,
    /// Jittered service distribution: an event-heap replay with the
    /// per-(node, segment) draw streams. Distinct seeds never collapse.
    Stochastic,
    /// Event-heap fallback: a lone cold node (the heap is cheaper than the
    /// envelope), a schedule that violates the round-major guard, or any
    /// fault-injected row — stalls and retries break the analytic
    /// symmetry, so every [`FaultModel`] other than `None` lands here
    /// whatever the distribution.
    Heap,
}

impl SolverClass {
    /// The class of a row simulating `cfg` over `stream`. The busiest lane
    /// decides whether a row is analytic: a lone node is always
    /// round-major, and the stream's verdict holds for any larger lane.
    /// Panics if `cfg`'s latency calibration differs from the stream's.
    pub fn of(cfg: &LaunchConfig, stream: &ClassifiedStream) -> SolverClass {
        stream.check_calibration(cfg);
        if stream.segments.is_empty() {
            SolverClass::Coalesced
        } else if !cfg.fault.is_none() {
            SolverClass::Heap
        } else if !cfg.service_dist.is_deterministic() {
            SolverClass::Stochastic
        } else if cfg.cold_nodes() > 1
            && lanes(cfg).next().is_some_and(|busiest| {
                busiest.servers == 1 && (busiest.count == 1 || stream.round_major)
            })
        {
            SolverClass::Analytic
        } else {
            SolverClass::Heap
        }
    }
}

/// One kernel of a row's cold fleet: the `count` cold nodes `first,
/// first + stride, …` (global node ids, which seed their NODE and FAULT
/// draws) on `servers` least-loaded servers. A hash-routed fleet of S
/// servers is `min(S, N)` FIFO lanes (`servers == 1`, stride S) that never
/// interact; a single server is one such lane of all N nodes. A
/// `LeastLoaded` fleet of S > 1 servers routes by the event schedule, so
/// it is one lane of all N nodes on its S servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Lane {
    first: usize,
    stride: usize,
    pub(crate) count: usize,
    servers: usize,
}

impl Lane {
    /// Global id of the lane's `j`-th node.
    fn node(&self, j: usize) -> u64 {
        (self.first + j * self.stride) as u64
    }
}

/// The lanes of `cfg`'s cold fleet, busiest first. A row that takes draws
/// gets every lane, lane `l` holding nodes `l, l + S, …`. A draw-free lane
/// is a function of its node count alone, and the lanes come in two sizes
/// (the first lane holds `⌈N/S⌉` nodes, the last `⌊N/S⌋`), so a draw-free
/// row gets its first lane and, when S does not divide N, its last, each
/// named by the first `count` nodes: every draw-free row's lanes of one
/// size are one kernel, the single-server fleet of that size included.
pub(crate) fn lanes(cfg: &LaunchConfig) -> impl Iterator<Item = Lane> {
    let n = cfg.cold_nodes();
    let (lanes, servers) = match cfg.topology.assign {
        AssignPolicy::LeastLoaded if cfg.topology.servers > 1 => (1, cfg.topology.servers),
        _ => (cfg.topology.servers.clamp(1, n), 1),
    };
    let draws = cfg.takes_draws();
    let solved = if draws { lanes } else { 1 + usize::from(!n.is_multiple_of(lanes)) };
    (0..solved).map(move |k| {
        let l = if draws || k == 0 { k } else { lanes - 1 };
        let count = (n - l).div_ceil(lanes);
        // Node ids matter only to draws, and a stride only to two or more
        // nodes.
        let (first, stride) = match (draws, count) {
            (false, _) => (0, 1),
            (true, 1) => (l, 1),
            (true, _) => (l, lanes),
        };
        Lane { first, stride, count, servers }
    })
}

/// One lane's replay, and a row's once its lanes are folded: `(slowest
/// cold finish, fault accounting)`.
pub(crate) type FleetRun = (u64, FaultCounts);

/// Solve one of `cfg`'s lanes over `stream` in `class`'s regime — the one
/// kernel dispatch [`simulate_classified`] and [`crate::batch::BatchPlan`]
/// share. An analytic lane whose envelope trips the line cap falls back to
/// the heap.
pub(crate) fn solve_lane(
    stream: &ClassifiedStream,
    cfg: &LaunchConfig,
    class: SolverClass,
    lane: Lane,
) -> FleetRun {
    if class == SolverClass::Analytic {
        if let Some(done) = closed_form(stream, cfg, lane.count) {
            return (done, FaultCounts::default());
        }
    }
    heap_kernel(stream, cfg, lane)
}

/// Fold a row's lane runs into the row's: the latest lane finish, and the
/// lanes' fault counts summed with the largest backoff kept. A lane
/// finishes no earlier than one replay of the local compute its nodes
/// also do, which is all a coalesced row (no lanes) does.
pub(crate) fn fold_lanes(
    stream: &ClassifiedStream,
    runs: impl IntoIterator<Item = FleetRun>,
) -> FleetRun {
    runs.into_iter().fold(
        (stream.local_total_ns(), FaultCounts::default()),
        |(done, fc), (lane_done, lane_fc)| (done.max(lane_done), fc.merge(lane_fc)),
    )
}

/// The per-row arithmetic around a cold fleet's replay: the coalesced warm
/// fleet, op accounting, the peak queue, and the spawn and base overheads.
/// The one scatter [`simulate_classified`] and [`crate::batch::BatchPlan`]
/// share.
pub(crate) fn scatter(
    stream: &ClassifiedStream,
    cfg: &LaunchConfig,
    (cold_done_ns, fc): FleetRun,
) -> LaunchResult {
    let nodes = cfg.nodes();
    let cold_nodes = cfg.cold_nodes();
    let warm_nodes = nodes - cold_nodes;
    // Warm nodes never interact with the server and replay identical
    // streams: one analytic replay covers them all. Every cold node
    // consumes the same local-class ops regardless of how the server
    // queue interleaves them.
    let warm_done_ns = if warm_nodes > 0 { stream.warm_replay_ns() } else { 0 };
    // Per-node completion plus serialized per-rank spawn overhead.
    let spawn_ns = cfg.per_rank_overhead_ns * cfg.ranks_per_node.min(cfg.ranks) as u64;
    // Every cold node queues its first request before the first service,
    // and none ever has two outstanding (a lost response is re-issued only
    // after its pop), so the queue peaks at the cold fleet.
    let peak_queue_depth = if stream.segments.is_empty() { 0 } else { cold_nodes };
    LaunchResult {
        time_to_launch_ns: cfg.base_overhead_ns + spawn_ns + cold_done_ns.max(warm_done_ns),
        nodes,
        server_ops: cold_nodes as u64 * stream.server_ops(),
        local_ops: warm_nodes as u64 * stream.n_ops + cold_nodes as u64 * stream.n_local,
        peak_queue_depth,
        retries_issued: fc.retries,
        timeouts_hit: fc.retries,
        max_backoff_ns: fc.max_backoff_ns,
        slowed_nodes: fc.slowed_nodes,
    }
}

/// The heap dispatch: replay `lane`'s cold nodes through
/// [`heap_schedule`] with the service draws `cfg.service_dist` asks for
/// (none under `Deterministic` — no generator is even constructed — else
/// one NODE-domain stream per node, by global id, consumed in segment
/// order) and `cfg.fault`'s hook. Each (distribution, hook) pair is its own
/// monomorphised loop.
fn heap_kernel(stream: &ClassifiedStream, cfg: &LaunchConfig, lane: Lane) -> FleetRun {
    fn with_draws(
        stream: &ClassifiedStream,
        cfg: &LaunchConfig,
        lane: Lane,
        hook: impl FaultHook,
    ) -> FleetRun {
        let dist = cfg.service_dist;
        if dist.is_deterministic() {
            return heap_schedule(stream, cfg, lane, hook, |_, seg| seg.service_ns);
        }
        let mut rngs: Vec<SplitMix> = (0..lane.count)
            .map(|j| SplitMix::split(cfg.seed, SplitMix::NODE, lane.node(j)))
            .collect();
        heap_schedule(stream, cfg, lane, hook, |j, seg| {
            draw_service_ns(dist, &mut rngs[j], seg.service_ns)
        })
    }
    if cfg.fault.is_none() {
        with_draws(stream, cfg, lane, Healthy)
    } else {
        with_draws(stream, cfg, lane, Faulty::new(cfg, lane))
    }
}

/// What a [`FaultModel`] does to the event loop, event by event. Every
/// method defaults to the identity, which is all the zero-sized healthy
/// hook is, so the healthy instance of [`heap_schedule`] compiles to the
/// plain loop.
trait FaultHook {
    /// Node `node`'s service time after the fault's own scaling (of the
    /// already distribution-scaled `svc_ns`).
    fn service(&self, _node: usize, svc_ns: u64) -> u64 {
        svc_ns
    }
    /// The instant service actually starts on a lane that could start at
    /// `start_ns`.
    fn start(&self, start_ns: u64) -> u64 {
        start_ns
    }
    /// The server finished `node`'s request that arrived at `arrival_ns`:
    /// `Some(re-arrival)` when the response was lost and the same request
    /// is re-issued, `None` when it got through.
    fn lost(&mut self, _node: usize, _arrival_ns: u64) -> Option<u64> {
        None
    }
    /// The fault accounting of the replay.
    fn counts(&self) -> FaultCounts {
        FaultCounts::default()
    }
}

/// [`FaultModel::None`]: nothing happens, at no cost.
struct Healthy;

impl FaultHook for Healthy {}

/// Every other [`FaultModel`], executed event-accurately. The semantics,
/// identical in [`reference`](mod@reference):
///
/// * **ServerStall** — an op whose service would *start* inside
///   `[at_ns, at_ns + duration_ns)` waits until the window closes;
///   in-flight service completes. Draw-free.
/// * **RpcLoss** — after the server finishes an op (the work is done and
///   the server-busy clock stands), the response is lost with probability
///   `loss_milli / 1000` unless this was the node's attempt `max_retries`
///   (forced success, no draw taken). A lost op is re-issued at
///   `t_send + timeout_ns + backoff_base_ns · 2^attempt` with the *same*
///   drawn service time — the retry is the same request, so no new NODE
///   draw — and the node's segment cursor does not advance.
/// * **Stragglers** — before any event, cold node `i` draws membership
///   (`below(1000) < frac_milli`); members scale every (possibly
///   dist-scaled) service time by `slow_milli / 1000` through the same
///   clamp as the distribution factor.
///
/// Fault draws come from `SplitMix::split(cfg.seed, FAULT, node)`, consumed
/// in the node's own event order — a node has exactly one outstanding
/// request, so its verdict sequence is heap-schedule-independent, which is
/// what keeps this hook and the reference oracle bit-identical.
struct Faulty {
    fault: FaultModel,
    half_rtt: u64,
    rngs: Vec<SplitMix>,
    /// Straggler membership per cold node (empty unless `Stragglers`).
    slow: Vec<bool>,
    slow_factor: f64,
    /// Retry attempt of each node's outstanding request (RpcLoss).
    attempts: Vec<u32>,
    counts: FaultCounts,
}

impl Faulty {
    /// The hook for `lane`'s nodes, each drawing from its global id's
    /// stream.
    fn new(cfg: &LaunchConfig, lane: Lane) -> Self {
        let fault = cfg.fault;
        let mut rngs: Vec<SplitMix> = if fault.takes_draws() {
            (0..lane.count)
                .map(|j| SplitMix::split(cfg.seed, SplitMix::FAULT, lane.node(j)))
                .collect()
        } else {
            Vec::new()
        };
        // Straggler membership: one FAULT draw per cold node, in node
        // order, before any event executes.
        let (slow, slow_factor) = match fault {
            FaultModel::Stragglers { frac_milli, slow_milli } => (
                rngs.iter_mut().map(|r| r.below(1000) < frac_milli as u64).collect::<Vec<bool>>(),
                slow_milli as f64 / 1000.0,
            ),
            _ => (Vec::new(), 1.0),
        };
        let counts =
            FaultCounts { slowed_nodes: slow.iter().filter(|&&s| s).count(), ..Default::default() };
        Faulty {
            fault,
            half_rtt: cfg.rtt_ns / 2,
            rngs,
            slow,
            slow_factor,
            attempts: vec![0; lane.count],
            counts,
        }
    }
}

impl FaultHook for Faulty {
    #[inline]
    fn service(&self, node: usize, svc_ns: u64) -> u64 {
        if self.slow.get(node).copied().unwrap_or(false) {
            scale_service_ns(svc_ns, self.slow_factor)
        } else {
            svc_ns
        }
    }

    #[inline]
    fn start(&self, start_ns: u64) -> u64 {
        if let FaultModel::ServerStall { at_ns, duration_ns } = self.fault {
            // A brownout stalls the whole fleet: every lane's start inside
            // the window waits for it to close.
            let end = at_ns.saturating_add(duration_ns);
            if start_ns >= at_ns && start_ns < end {
                return end;
            }
        }
        start_ns
    }

    #[inline]
    fn lost(&mut self, node: usize, arrival_ns: u64) -> Option<u64> {
        let FaultModel::RpcLoss { loss_milli, timeout_ns, backoff_base_ns, max_retries } =
            self.fault
        else {
            return None;
        };
        let attempt = &mut self.attempts[node];
        if *attempt < max_retries && self.rngs[node].below(1000) < loss_milli as u64 {
            // Response lost: the client never hears back. It times out
            // relative to its own send instant, sleeps its exponential
            // backoff, and re-issues the same request.
            let t_send = arrival_ns - self.half_rtt;
            let backoff = backoff_ns(backoff_base_ns, *attempt);
            self.counts.note_retry(backoff);
            *attempt += 1;
            let resend = t_send.saturating_add(timeout_ns).saturating_add(backoff);
            return Some(resend.saturating_add(self.half_rtt));
        }
        *attempt = 0;
        None
    }

    fn counts(&self) -> FaultCounts {
        self.counts
    }
}

/// How many places from the rear [`EventQueue::push`] may place an event
/// in its sorted ring; an event that belongs deeper goes to the overflow
/// heap instead.
const REAR_SCAN: usize = 8;

/// Whether the pending event `(a, n)` pops after the event `(arrival,
/// node)`: it arrives later, or at the same instant from a higher node.
#[inline]
fn pops_after((a, n): (u64, usize), arrival: u64, node: usize) -> bool {
    a > arrival || (a == arrival && n > node)
}

/// The pending events of one lane, popped in `(arrival, node)` order.
///
/// Most events are kept in a ring sorted by that order, filled from the
/// rear: on a FIFO lane a node's next arrival mostly lands at, or a few
/// places before, the back of the pending order (server completions are
/// monotone and a schedule has few distinct inter-op gaps). An event that
/// belongs more than [`REAR_SCAN`] places from the rear goes to a binary
/// heap instead, as does a re-issued request ([`EventQueue::park`]), so an
/// insert costs at most `REAR_SCAN` moves or one heap push, and a pop
/// takes the smaller of the ring's front and the heap's top. Each node has
/// at most one pending event, so the `(arrival, node)` pairs are distinct
/// and the queue pops exactly the sequence one binary heap of all the
/// events would.
struct EventQueue {
    /// A power-of-two ring of at least one slot per lane node; the `len`
    /// pending events from `head` on are sorted.
    ring: Vec<(u64, usize)>,
    head: usize,
    len: usize,
    /// The events that belonged deeper than [`REAR_SCAN`] places, and the
    /// parked ones.
    deep: BinaryHeap<Reverse<(u64, usize)>>,
}

impl EventQueue {
    /// An empty queue for a lane of `nodes` nodes: a lane never has more
    /// pending events than nodes, so the ring never grows.
    fn new(nodes: usize) -> Self {
        EventQueue {
            ring: vec![(0, 0); nodes.next_power_of_two()],
            head: 0,
            len: 0,
            deep: BinaryHeap::new(),
        }
    }

    /// The ring index of the `k`-th pending event.
    #[inline]
    fn slot(&self, k: usize) -> usize {
        (self.head + k) & (self.ring.len() - 1)
    }

    #[inline]
    fn push(&mut self, arrival: u64, node: usize) {
        // The ring is sorted, so one comparison tells whether the event
        // belongs more than REAR_SCAN places from its rear.
        if self.len > REAR_SCAN
            && pops_after(self.ring[self.slot(self.len - 1 - REAR_SCAN)], arrival, node)
        {
            self.deep.push(Reverse((arrival, node)));
            return;
        }
        let mut k = self.len;
        while k > 0 {
            let prev = self.ring[self.slot(k - 1)];
            if !pops_after(prev, arrival, node) {
                break;
            }
            let to = self.slot(k);
            self.ring[to] = prev;
            k -= 1;
        }
        let to = self.slot(k);
        self.ring[to] = (arrival, node);
        self.len += 1;
    }

    /// Queue an event due far behind the lane's flow (a re-issued request,
    /// a client timeout later) in the heap: at the ring's rear it would
    /// stand in front of every arrival due before it, and send those to
    /// the heap instead.
    #[inline]
    fn park(&mut self, arrival: u64, node: usize) {
        self.deep.push(Reverse((arrival, node)));
    }

    #[inline]
    fn pop(&mut self) -> Option<(u64, usize)> {
        if self.len == 0 {
            return self.deep.pop().map(|Reverse(e)| e);
        }
        let front = self.ring[self.head];
        if let Some(&Reverse(deep)) = self.deep.peek() {
            if deep < front {
                self.deep.pop();
                return Some(deep);
            }
        }
        self.head = self.slot(1);
        self.len -= 1;
        Some(front)
    }
}

/// The event loop every stochastic, faulted, and guard-declined lane
/// runs: one cursor per lane node over the segment schedule, one event
/// per server op, queued in an [`EventQueue`]. `draw(j, segment)`
/// supplies the distribution-scaled service time of the lane's `j`-th
/// node and `hook` the fault semantics ([`FaultHook`]). Ties break on
/// that local index, which orders the lane's nodes as their global ids
/// do, so the lane serves its requests in the order a heap over the whole
/// fleet would. Returns the lane's [`FleetRun`].
fn heap_schedule(
    stream: &ClassifiedStream,
    cfg: &LaunchConfig,
    lane: Lane,
    mut hook: impl FaultHook,
    mut draw: impl FnMut(usize, &ServerSeg) -> u64,
) -> FleetRun {
    let half_rtt = cfg.rtt_ns / 2;
    // Per-node cursor into the segment schedule, and the drawn service
    // time and client extra of the node's pending request. Only cold
    // nodes exist here, and only their server ops are events.
    struct Node {
        next_seg: usize,
        svc_ns: u64,
        extra_ns: u64,
    }
    let first = stream.segments[0];
    let mut events = EventQueue::new(lane.count);
    let mut node_state: Vec<Node> = (0..lane.count)
        .map(|i| {
            events.push(first.pre_local_ns + half_rtt, i);
            let svc_ns = hook.service(i, draw(i, &first));
            Node { next_seg: 0, svc_ns, extra_ns: first.client_extra_ns }
        })
        .collect();

    // The lane's busy-until clocks: one for a FIFO lane, S for a
    // least-loaded pool, which serves each request on its earliest-free
    // server, lowest index on ties.
    let mut busy_ns = vec![0u64; lane.servers];
    let mut done_max_ns = 0u64;
    while let Some((arrival, i)) = events.pop() {
        let mut server = 0;
        for s in 1..busy_ns.len() {
            if busy_ns[s] < busy_ns[server] {
                server = s;
            }
        }
        // FIFO after the server's previous work, never before `arrival`.
        let n = &mut node_state[i];
        let done = hook.start(busy_ns[server].max(arrival)) + n.svc_ns;
        busy_ns[server] = done;
        if let Some(rearrival) = hook.lost(i, arrival) {
            // The server did the work (its busy clock stands), but the
            // same request, with the same drawn service, arrives again.
            events.park(rearrival, i);
            continue;
        }
        // Client resumes after the response returns and it has consumed
        // the payload (reads stream for `extra` after the server moves
        // on), then computes locally until its next request.
        let resume_ns = done + half_rtt + n.extra_ns;
        n.next_seg += 1;
        match stream.segments.get(n.next_seg) {
            Some(seg) => {
                n.svc_ns = hook.service(i, draw(i, seg));
                n.extra_ns = seg.client_extra_ns;
                events.push(resume_ns + seg.pre_local_ns + half_rtt, i);
            }
            None => done_max_ns = done_max_ns.max(resume_ns + stream.tail_local_ns),
        }
    }
    (done_max_ns, hook.counts())
}

/// Upper bound on the line-envelope size before the closed form bails to
/// the heap. The envelope holds at most one line per *distinct* service
/// time still live, so real op streams (metadata ops share
/// `meta_service_ns`; reads bucket by size) stay in single digits — the cap
/// only guards adversarial streams where O(lines) per segment would
/// degenerate toward O(server_ops²).
const MAX_ENVELOPE_LINES: usize = 64;

/// Closed form for a FIFO lane of `nodes` identical cold nodes under
/// deterministic service, for a lane of an analytic row
/// ([`SolverClass::of`]; a least-loaded pool routes by the event schedule,
/// so it never is one): the nodes replay the segment schedule through the
/// lane's server, and the slowest cold finish is **bit-identical** to
/// [`heap_schedule`]'s, computed in `O(server_ops × envelope lines)`
/// independent of the node count. `None` when the envelope outgrows
/// [`MAX_ENVELOPE_LINES`]; the caller falls back to the heap.
///
/// # Why this is exact
///
/// Every node issues segment 0 at the same instant, so the heap serves
/// round 0 in node order, and completions within a round are the Lindley
/// recursion `D(i,k) = max(D(i-1,k), A(i,k)) + s_k` whose unrolled solution
/// is a **max-plus envelope of lines in the node index**: round 0 is the
/// single line `a₀ + (i+1)·s₀`. Each next round keeps the lines steeper
/// than `s_k` (arrival-paced nodes, shifted by the inter-op gap and one
/// service), folds the flatter ones into the server-paced chain line of
/// slope `s_k`, and the envelope never grows beyond one line per distinct
/// service time. The slowest finish is the envelope at `i = N-1` plus the
/// response/tail time.
///
/// # The round-major guard
///
/// The recursion assumes the server drains round `k` completely before
/// touching round `k+1` — true iff the *earliest* round-`k+1` arrival lands
/// strictly after the *latest* round-`k` arrival. Since
/// `D(0,k) ≥ D(N-1,k-1) + s_k`, the condition `s_k + gap_k > gap_{k-1}`
/// per consecutive segment pair guarantees it for any node count (gap =
/// rtt + client extra + next pre-local). Uniform metadata streams satisfy
/// it trivially; a payload-heavy read followed by a bare stat can violate
/// it (its huge gap lets node 0 lap the stragglers), and then the
/// stream's verdict is false and [`SolverClass::of`] sends the row to the
/// heap. A single cold node is always round-major.
fn closed_form(stream: &ClassifiedStream, cfg: &LaunchConfig, nodes: usize) -> Option<u64> {
    let segs = &stream.segments;
    let (half_rtt, last) = (cfg.rtt_ns / 2, nodes as u64 - 1);
    // The envelope: D(i, round) = max over lines of (c + i·slope), for
    // lane-local node index i in [0, last]. Round 0: every node arrives at
    // a₀ = pre_local₀ + rtt/2 and is served back to back — the single line
    // a₀ + (i+1)·s₀. Two buffers swap roles per round, so the whole
    // recursion allocates twice, total.
    let mut lines: Vec<(u64, u64)> = Vec::with_capacity(8);
    let mut scratch: Vec<(u64, u64)> = Vec::with_capacity(8);
    lines.push((segs[0].pre_local_ns + half_rtt + segs[0].service_ns, segs[0].service_ns));
    for j in 1..segs.len() {
        let (s, g_prev) = (segs[j].service_ns, seg_gap(&segs[j - 1], &segs[j], half_rtt));
        if !envelope_round(&mut lines, &mut scratch, s, g_prev, last) {
            return None;
        }
    }
    // The slowest node's completion, plus the response trip and the
    // stream's tail compute.
    let served_last = lines.iter().map(|&(c, m)| c + last * m).max().expect("nonempty");
    Some(served_last + half_rtt + segs[segs.len() - 1].client_extra_ns + stream.tail_local_ns)
}

/// Gap between finishing server op `seg` and arriving for op `next`,
/// exactly as the heap accumulates it (half_rtt twice, not rtt once:
/// integer halving must round the same way).
fn seg_gap(seg: &ServerSeg, next: &ServerSeg, half_rtt: u64) -> u64 {
    2 * half_rtt + seg.client_extra_ns + next.pre_local_ns
}

/// The round-major guard of `closed_form`, node-count independent for any
/// fleet of two or more cold nodes: the schedule is not empty, and every
/// consecutive segment pair satisfies `s_k + gap_k > gap_{k-1}`, the gap
/// before segment 0 taken as 0. [`ClassifiedStream::classify`] evaluates
/// it once per stream, stopping at the first pair that fails it.
fn round_major(segs: &[ServerSeg], half_rtt: u64) -> bool {
    let mut prev_gap = 0;
    for w in segs.windows(2) {
        let gap = seg_gap(&w[0], &w[1], half_rtt);
        if w[0].service_ns + gap <= prev_gap {
            return false;
        }
        prev_gap = gap;
    }
    !segs.is_empty()
}

/// One round of the max-plus envelope recursion: advance `lines` (the
/// completion envelope of the previous round) across a segment of service
/// time `s` reached over inter-op gap `g_prev`, for a fleet whose last
/// node index is `last`. Returns `false` — envelope abandoned — when the
/// line count exceeds [`MAX_ENVELOPE_LINES`]; the caller falls back to
/// the heap.
fn envelope_round(
    lines: &mut Vec<(u64, u64)>,
    scratch: &mut Vec<(u64, u64)>,
    s: u64,
    g_prev: u64,
    last: u64,
) -> bool {
    // Server-paced chain seed: the previous round's last completion —
    // the server cannot start round j before draining round j-1.
    let mut chain = lines.iter().map(|&(c, m)| c + last * m).max().expect("nonempty");
    scratch.clear();
    for &(c, m) in lines.iter() {
        if m > s {
            // Arrival-paced: these nodes arrive slower than the server
            // serves, so they are served on arrival (+ their service).
            scratch.push((c + g_prev + s, m));
        } else {
            // Arrivals at least as fast as service: the stragglers pile
            // behind the server-paced chain.
            chain = chain.max(c + g_prev);
        }
    }
    // The chain line: D = chain + (i+1)·s.
    scratch.push((chain + s, s));
    // Prune lines dominated across the whole index range [0, last]: a
    // line below another at both endpoints is below it everywhere.
    scratch.sort_unstable();
    scratch.dedup();
    lines.clear();
    for &(c, m) in scratch.iter() {
        let end = c + last * m;
        let dominated = scratch.iter().any(|&(c2, m2)| {
            (c2, m2) != (c, m) && c2 >= c && c2 + last * m2 >= end && (c2 > c || m2 > m)
        });
        if !dominated {
            lines.push((c, m));
        }
    }
    lines.len() <= MAX_ENVELOPE_LINES
}

pub mod reference {
    //! The retained pre-coalescing implementation: every node walks every
    //! op through an explicit per-node cursor, `O(nodes × ops · log
    //! nodes)`. Kept as the equivalence oracle for
    //! [`super::simulate_classified`] (`tests/des_equivalence.rs` asserts
    //! bit-identical [`LaunchResult`]s) — do not optimise this module. The
    //! post-freeze extensions are the stochastic service draw, which
    //! mirrors the fast path's per-(node, segment) [`SplitMix`] streams so
    //! the oracle covers the jittered regimes too, and the fault engine,
    //! which mirrors the semantics of `super::heap_schedule`'s `Faulty`
    //! hook (stall windows, loss/retry with the same drawn service and an
    //! unadvanced cursor, straggler membership) from the same FAULT-domain
    //! streams;
    //! under [`crate::ServiceDistribution::Deterministic`] with
    //! [`FaultModel::None`] no generator is constructed and the walk is
    //! the original, verbatim. The server fleet is the oracle's own: the
    //! whole fleet's busy clocks, routed without the fast path's lanes —
    //! `HashByNode` serves node `i` on server `i % S`, `LeastLoaded` on
    //! the server of least `(busy clock, index)` — and a single busy cell
    //! at `S = 1`.

    use super::*;

    /// Classification of one op for the simulation.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum OpClass {
        /// Round-trips to the server (cold metadata, or data reads).
        Server { service_ns: u64, client_extra_ns: u64 },
        /// Satisfied from the client cache.
        Local { cost_ns: u64 },
    }

    fn classify(ops: &StraceLog, cfg: &LaunchConfig) -> Vec<OpClass> {
        ops.entries
            .iter()
            .map(|e| {
                if e.op == Op::Read {
                    let service = (e.cost_ns / 8).max(cfg.meta_service_ns);
                    OpClass::Server {
                        service_ns: service,
                        client_extra_ns: e.cost_ns.saturating_sub(service),
                    }
                } else if e.cost_ns >= cfg.rtt_ns {
                    OpClass::Server { service_ns: cfg.meta_service_ns, client_extra_ns: 0 }
                } else {
                    OpClass::Local { cost_ns: e.cost_ns.max(cfg.warm_ns) }
                }
            })
            .collect()
    }

    /// The O(nodes × ops) oracle — see the module doc.
    pub fn simulate_launch_reference(ops: &StraceLog, cfg: &LaunchConfig) -> LaunchResult {
        let classes = classify(ops, cfg);
        let nodes = cfg.nodes();
        let cold_nodes = if cfg.broadcast_cache { 1 } else { nodes };

        // With no server-class op in the stream no fault can manifest (the
        // fast path skips its fault engine on an empty segment schedule and
        // takes no FAULT draws); degrade to the healthy walk.
        let has_server = classes.iter().any(|c| matches!(c, OpClass::Server { .. }));
        let fault = if has_server { cfg.fault } else { FaultModel::None };
        let half_rtt = cfg.rtt_ns / 2;
        let mut counts = FaultCounts::default();

        // Stochastic service draws: node i's stream is SplitMix::split(seed,
        // NODE, i), consumed once per server op it reaches, in op order —
        // the same (node, draw-index) → factor mapping as the fast path.
        let dist = cfg.service_dist;
        let mut rngs: Vec<SplitMix> = if dist.is_deterministic() {
            Vec::new()
        } else {
            (0..cold_nodes).map(|i| SplitMix::split(cfg.seed, SplitMix::NODE, i as u64)).collect()
        };
        // Fault draws: node i's FAULT-domain stream, consumed in the node's
        // own event order (membership first under Stragglers, per served op
        // under RpcLoss) — exactly the discipline of heap_schedule's
        // Faulty hook.
        let mut fault_rngs: Vec<SplitMix> = if fault.takes_draws() {
            (0..cold_nodes).map(|i| SplitMix::split(cfg.seed, SplitMix::FAULT, i as u64)).collect()
        } else {
            Vec::new()
        };
        let (slow, slow_factor) = match fault {
            FaultModel::Stragglers { frac_milli, slow_milli } => (
                (0..cold_nodes)
                    .map(|i| fault_rngs[i].below(1000) < frac_milli as u64)
                    .collect::<Vec<bool>>(),
                slow_milli as f64 / 1000.0,
            ),
            _ => (Vec::new(), 1.0),
        };
        counts.slowed_nodes = slow.iter().filter(|&&s| s).count();
        let mut attempts: Vec<u32> = vec![0; cold_nodes];

        let mut svc_draw = |i: usize, base_ns: u64| -> u64 {
            let mut svc = if dist.is_deterministic() {
                base_ns
            } else {
                scale_service_ns(base_ns, dist.sample(&mut rngs[i]))
            };
            if slow.get(i).copied().unwrap_or(false) {
                svc = scale_service_ns(svc, slow_factor);
            }
            svc
        };

        let mut server_ops = 0u64;
        let mut local_ops = 0u64;

        #[derive(Debug)]
        struct Node {
            next_op: usize,
            clock_ns: u64,
            done_ns: u64,
        }
        let mut node_state: Vec<Node> =
            (0..nodes).map(|_| Node { next_op: 0, clock_ns: 0, done_ns: 0 }).collect();

        fn advance(
            n: &mut Node,
            classes: &[OpClass],
            is_cold: bool,
            warm_ns: u64,
            local_ops: &mut u64,
        ) -> Option<(u64, u64, u64)> {
            while n.next_op < classes.len() {
                match classes[n.next_op] {
                    OpClass::Local { cost_ns } => {
                        n.clock_ns += cost_ns;
                        n.next_op += 1;
                        *local_ops += 1;
                    }
                    OpClass::Server { service_ns, client_extra_ns } => {
                        if !is_cold {
                            n.clock_ns += warm_ns;
                            n.next_op += 1;
                            *local_ops += 1;
                            continue;
                        }
                        n.next_op += 1;
                        return Some((n.clock_ns, service_ns, client_extra_ns));
                    }
                }
            }
            n.done_ns = n.clock_ns;
            None
        }

        let mut heap: BinaryHeap<Reverse<(u64, usize, u64, u64)>> = BinaryHeap::new();
        for (i, n) in node_state.iter_mut().enumerate() {
            let cold = i < cold_nodes;
            if let Some((t, svc, extra)) = advance(n, &classes, cold, cfg.warm_ns, &mut local_ops) {
                heap.push(Reverse((t + cfg.rtt_ns / 2, i, svc_draw(i, svc), extra)));
            }
        }

        let servers = cfg.topology.servers.max(1);
        let mut busy_ns = vec![0u64; servers];
        let mut peak_queue_depth = 0usize;
        while let Some(Reverse((arrival, i, svc, extra))) = heap.pop() {
            peak_queue_depth = peak_queue_depth.max(heap.len() + 1);
            let server = match cfg.topology.assign {
                AssignPolicy::HashByNode => i % servers,
                AssignPolicy::LeastLoaded => {
                    (0..servers).min_by_key(|&s| (busy_ns[s], s)).expect("one server at least")
                }
            };
            let mut start = busy_ns[server].max(arrival);
            if let FaultModel::ServerStall { at_ns, duration_ns } = fault {
                let end = at_ns.saturating_add(duration_ns);
                if start >= at_ns && start < end {
                    start = end;
                }
            }
            let done = start + svc;
            busy_ns[server] = done;
            if let FaultModel::RpcLoss { loss_milli, timeout_ns, backoff_base_ns, max_retries } =
                fault
            {
                if attempts[i] < max_retries && fault_rngs[i].below(1000) < loss_milli as u64 {
                    // Lost response: re-issue the same request (same drawn
                    // service, cursor unadvanced) after timeout + backoff.
                    let t_send = arrival - half_rtt;
                    let backoff = backoff_ns(backoff_base_ns, attempts[i]);
                    counts.note_retry(backoff);
                    attempts[i] += 1;
                    let resend = t_send.saturating_add(timeout_ns).saturating_add(backoff);
                    heap.push(Reverse((resend.saturating_add(half_rtt), i, svc, extra)));
                    continue;
                }
                attempts[i] = 0;
            }
            // server_ops counts *distinct* ops the stream issued; retried
            // attempts are accounted in `counts.retries`.
            server_ops += 1;
            let n = &mut node_state[i];
            n.clock_ns = done + cfg.rtt_ns / 2 + extra;
            let cold = i < cold_nodes;
            if let Some((t, s, e)) = advance(n, &classes, cold, cfg.warm_ns, &mut local_ops) {
                heap.push(Reverse((t + cfg.rtt_ns / 2, i, svc_draw(i, s), e)));
            }
        }

        let spawn_ns = cfg.per_rank_overhead_ns * cfg.ranks_per_node.min(cfg.ranks) as u64;
        let slowest = node_state.iter().map(|n| n.done_ns).max().unwrap_or(0);
        LaunchResult {
            time_to_launch_ns: cfg.base_overhead_ns + spawn_ns + slowest,
            nodes,
            server_ops,
            local_ops,
            peak_queue_depth,
            retries_issued: counts.retries,
            timeouts_hit: counts.retries,
            max_backoff_ns: counts.max_backoff_ns,
            slowed_nodes: counts.slowed_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::simulate_launch_reference;
    use super::*;
    use crate::config::ServerTopology;
    use depchaos_vfs::{Outcome, Syscall};

    fn stream(n_cold: usize, n_warm: usize) -> StraceLog {
        let mut log = StraceLog::new();
        for i in 0..n_cold {
            log.push(Syscall::new(Op::Openat, &format!("/lib/cold{i}"), Outcome::Enoent, 200_000));
        }
        for i in 0..n_warm {
            log.push(Syscall::new(Op::Stat, &format!("/lib/warm{i}"), Outcome::Ok, 1_000));
        }
        log
    }

    fn fast_cfg() -> LaunchConfig {
        LaunchConfig { base_overhead_ns: 0, per_rank_overhead_ns: 0, ..LaunchConfig::default() }
    }

    #[test]
    fn single_node_is_rtt_bound() {
        let cfg = fast_cfg().with_ranks(128); // one node
        let r = simulate_launch(&stream(100, 0), &cfg);
        // 100 sequential round trips: ≥ 100 × (rtt + service)
        let min = 100 * (cfg.rtt_ns + cfg.meta_service_ns);
        assert!(r.time_to_launch_ns >= min - cfg.rtt_ns, "{} vs {}", r.time_to_launch_ns, min);
        assert_eq!(r.server_ops, 100);
        assert_eq!(r.nodes, 1);
    }

    #[test]
    fn contention_grows_with_nodes() {
        let ops = stream(500, 0);
        let t4 = simulate_launch(&ops, &fast_cfg().with_ranks(512)).time_to_launch_ns;
        let t16 = simulate_launch(&ops, &fast_cfg().with_ranks(2048)).time_to_launch_ns;
        assert!(t16 > t4, "more nodes, more server queueing: {t4} vs {t16}");
    }

    #[test]
    fn local_ops_do_not_hit_server() {
        let r = simulate_launch(&stream(0, 1000), &fast_cfg().with_ranks(256));
        assert_eq!(r.server_ops, 0);
        assert_eq!(r.local_ops, 2000, "two nodes × 1000 warm ops");
    }

    #[test]
    fn broadcast_cache_collapses_server_load() {
        let ops = stream(400, 0);
        let normal = simulate_launch(&ops, &fast_cfg().with_ranks(2048));
        let mut cfg = fast_cfg().with_ranks(2048);
        cfg.broadcast_cache = true;
        let spindle = simulate_launch(&ops, &cfg);
        assert_eq!(normal.server_ops, 16 * 400);
        assert_eq!(spindle.server_ops, 400, "only one node pays cold");
        assert!(spindle.time_to_launch_ns < normal.time_to_launch_ns);
    }

    #[test]
    fn node_granularity_matters_not_rank_count() {
        // NFS load is per *node* (shared page cache): the same 1024 ranks
        // on fewer, fatter nodes hit the server less.
        let ops = stream(300, 0);
        let fat = LaunchConfig {
            ranks: 1024,
            ranks_per_node: 256, // 4 nodes
            base_overhead_ns: 0,
            per_rank_overhead_ns: 0,
            ..LaunchConfig::default()
        };
        let thin = LaunchConfig { ranks_per_node: 64, ..fat.clone() }; // 16 nodes
        let rf = simulate_launch(&ops, &fat);
        let rt = simulate_launch(&ops, &thin);
        assert_eq!(rf.server_ops, 4 * 300);
        assert_eq!(rt.server_ops, 16 * 300);
        assert!(rt.time_to_launch_ns >= rf.time_to_launch_ns);
    }

    #[test]
    fn read_heavy_stream_slower_than_meta_only() {
        // Same op count, but reads carry payload time the client must absorb.
        let mut meta = StraceLog::new();
        let mut reads = StraceLog::new();
        for i in 0..100 {
            meta.push(Syscall::new(Op::Openat, &format!("/l/{i}"), Outcome::Ok, 200_000));
            // 1 MiB over the wire
            reads.push(Syscall::new(Op::Read, &format!("/l/{i}"), Outcome::Ok, 4_000_000));
        }
        let cfg = fast_cfg().with_ranks(128);
        let tm = simulate_launch(&meta, &cfg).time_to_launch_ns;
        let tr = simulate_launch(&reads, &cfg).time_to_launch_ns;
        assert!(tr > tm * 5, "payload dominates: {tm} vs {tr}");
    }

    #[test]
    fn deterministic() {
        let ops = stream(200, 50);
        let a = simulate_launch(&ops, &fast_cfg());
        let b = simulate_launch(&ops, &fast_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn fixed_overheads_added_once() {
        let cfg = LaunchConfig { ranks: 128, ..LaunchConfig::default() };
        let r = simulate_launch(&stream(0, 0), &cfg);
        let expect = cfg.base_overhead_ns + cfg.per_rank_overhead_ns * 128;
        assert_eq!(r.time_to_launch_ns, expect);
    }

    #[test]
    fn matches_reference_on_representative_scenarios() {
        // The broad random sweep lives in tests/des_equivalence.rs; this is
        // the quick in-crate guard over the interesting regimes.
        let streams =
            [stream(0, 0), stream(100, 0), stream(0, 100), stream(37, 63), stream(1, 499)];
        for ops in &streams {
            for ranks in [1usize, 100, 512, 2048] {
                for broadcast in [false, true] {
                    let mut cfg = fast_cfg().with_ranks(ranks);
                    cfg.broadcast_cache = broadcast;
                    assert_eq!(
                        simulate_launch(ops, &cfg),
                        simulate_launch_reference(ops, &cfg),
                        "ranks={ranks} broadcast={broadcast} ops={}",
                        ops.len()
                    );
                }
            }
        }
    }

    #[test]
    fn classified_stream_is_reusable_across_rank_points() {
        let ops = stream(50, 50);
        let cfg = fast_cfg();
        let classified = ClassifiedStream::classify(&ops, &cfg);
        assert_eq!(classified.server_ops(), 50);
        assert_eq!(classified.len(), 100);
        for ranks in [128usize, 512, 4096] {
            let per_point = cfg.clone().with_ranks(ranks);
            assert_eq!(
                simulate_classified(&classified, &per_point),
                simulate_launch(&ops, &per_point)
            );
        }
    }

    #[test]
    #[should_panic(expected = "different latency calibration")]
    fn stale_classification_is_rejected() {
        let ops = stream(10, 0);
        let classified = ClassifiedStream::classify(&ops, &fast_cfg());
        let recalibrated = LaunchConfig { rtt_ns: 1, ..fast_cfg() };
        simulate_classified(&classified, &recalibrated);
    }

    #[test]
    fn deterministic_ignores_the_seed() {
        // No draws occur, so the seed cannot leak into the result.
        let ops = stream(80, 20);
        let a = simulate_launch(&ops, &fast_cfg().with_seed(1));
        let b = simulate_launch(&ops, &fast_cfg().with_seed(0xFFFF_FFFF));
        assert_eq!(a, b);
    }

    #[test]
    fn stochastic_paths_match_the_reference_oracle() {
        let streams = [stream(0, 0), stream(60, 0), stream(0, 60), stream(17, 43)];
        for dist in ServiceDistribution::all() {
            for ops in &streams {
                for ranks in [1usize, 300, 2048] {
                    for broadcast in [false, true] {
                        let mut cfg = fast_cfg().with_ranks(ranks).with_service_dist(dist);
                        cfg.broadcast_cache = broadcast;
                        cfg.seed = 99;
                        assert_eq!(
                            simulate_launch(ops, &cfg),
                            simulate_launch_reference(ops, &cfg),
                            "dist={} ranks={ranks} broadcast={broadcast} ops={}",
                            dist.name(),
                            ops.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stochastic_runs_reproduce_per_seed_and_vary_across_seeds() {
        let ops = stream(200, 0);
        let cfg = fast_cfg()
            .with_ranks(2048)
            .with_service_dist(ServiceDistribution::log_normal(0.5))
            .with_seed(7);
        assert_eq!(simulate_launch(&ops, &cfg), simulate_launch(&ops, &cfg));
        let other = simulate_launch(&ops, &cfg.clone().with_seed(8));
        assert_ne!(
            simulate_launch(&ops, &cfg).time_to_launch_ns,
            other.time_to_launch_ns,
            "200 heavy-tailed draws under contention cannot tie across seeds"
        );
    }

    #[test]
    fn jitter_moves_time_but_not_op_accounting() {
        let ops = stream(150, 50);
        let det = simulate_launch(&ops, &fast_cfg().with_ranks(1024));
        let jit = simulate_launch(
            &ops,
            &fast_cfg()
                .with_ranks(1024)
                .with_service_dist(ServiceDistribution::uniform_jitter(0.25)),
        );
        assert_eq!(det.nodes, jit.nodes);
        assert_eq!(det.server_ops, jit.server_ops);
        assert_eq!(det.local_ops, jit.local_ops);
        assert_ne!(det.time_to_launch_ns, jit.time_to_launch_ns);
        // Bounded jitter keeps the launch within the ±25% service envelope
        // (service is only part of the wall time, so much tighter in truth).
        let (lo, hi) = (det.time_to_launch_ns * 3 / 4, det.time_to_launch_ns * 5 / 4);
        assert!(
            (lo..=hi).contains(&jit.time_to_launch_ns),
            "{} vs {}",
            det.time_to_launch_ns,
            jit.time_to_launch_ns
        );
    }

    #[test]
    fn extreme_tail_draws_clamp_instead_of_overflowing() {
        // σ = 8 reaches factors around e^60 in a long sample; every drawn
        // service must clamp at MAX_SERVICE_NS and the simulation stay
        // exact against the oracle instead of wrapping the clock.
        let ops = stream(100, 0);
        for seed in 0..20u64 {
            let cfg = fast_cfg()
                .with_ranks(2048)
                .with_service_dist(ServiceDistribution::log_normal(8.0))
                .with_seed(seed);
            let r = simulate_launch(&ops, &cfg);
            assert_eq!(r, simulate_launch_reference(&ops, &cfg));
            assert!(r.time_to_launch_ns < 16 * 100 * (super::MAX_SERVICE_NS + cfg.rtt_ns));
        }
    }

    /// σ in milli-units on both sides of [`CERTIFIED_SIGMA_MILLI`].
    const SIGMAS_MILLI: [u32; 8] = [1, 250, 500, 750, 1000, 4000, 4001, 8000];
    /// Base service times from the clamp's floor to just under its cap.
    const BASES_NS: [u64; 7] = [1, 2, 3, 50_000, 1_250_000, 1 << 39, (1 << 40) - 1];
    /// The 53-bit draws at the polynomial's fold and quadrant edges.
    const EDGE_KS: [u64; 8] =
        [0, 1, (1 << 51) - 1, 1 << 51, (1 << 52) - 1, 1 << 52, 3 << 51, (1 << 53) - 1];

    #[test]
    fn polynomial_cosine_is_within_2_pow_minus_48_of_libm() {
        let mut rng = SplitMix::new(48);
        let random = (0..1_000_000).map(|_| rng.next_u64() >> 11);
        for k in EDGE_KS.into_iter().chain(random) {
            let libm = (TAU * (k as f64 * UNIT)).cos();
            let err = (cos_2pi(k) - libm).abs();
            assert!(err <= 2f64.powi(-48), "k = {k}: |poly − libm| = {err:e}");
        }
    }

    #[test]
    fn certified_draw_equals_libm_on_the_sigma_and_base_grid() {
        let mut rng = SplitMix::new(7);
        for sigma_milli in SIGMAS_MILLI.into_iter().filter(|&s| s <= CERTIFIED_SIGMA_MILLI) {
            for base_ns in BASES_NS {
                // k1 = 0 is u1 = 1, so R = 0 and the factor is e^(−σ²/2).
                let edges = EDGE_KS.iter().flat_map(|&k2| [(0, k2), (k2, k2), (k2, 0)]);
                let random: Vec<_> =
                    (0..2000).map(|_| (rng.next_u64() >> 11, rng.next_u64() >> 11)).collect();
                for (k1, k2) in edges.chain(random) {
                    assert_eq!(
                        log_normal_ns(sigma_milli, k1, k2, base_ns),
                        libm_ns(sigma_milli, 1.0 - k1 as f64 * UNIT, k2 as f64 * UNIT, base_ns),
                        "σ {sigma_milli}m, base {base_ns}, k1 {k1}, k2 {k2}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_heap_draw_is_samples_draw_for_every_distribution() {
        let dists = SIGMAS_MILLI
            .map(|sigma_milli| ServiceDistribution::LogNormal { sigma_milli })
            .into_iter()
            .chain(
                [0, 250, 999]
                    .map(|spread_milli| ServiceDistribution::UniformJitter { spread_milli }),
            )
            .chain([ServiceDistribution::Deterministic]);
        for dist in dists {
            for base_ns in BASES_NS {
                let mut heap = SplitMix::split(11, SplitMix::NODE, base_ns);
                let mut oracle = heap.clone();
                for _ in 0..500 {
                    assert_eq!(
                        draw_service_ns(dist, &mut heap, base_ns),
                        scale_service_ns(base_ns, dist.sample(&mut oracle)),
                        "{} at base {base_ns}",
                        dist.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fewer_than_one_draw_in_100_000_falls_back_to_libm() {
        let mut rng = SplitMix::new(5);
        let draws = 1_000_000;
        let fallbacks = (0..draws)
            .filter(|_| {
                let u1 = 1.0 - (rng.next_u64() >> 11) as f64 * UNIT;
                certified_ns(500, u1, rng.next_u64() >> 11, 50_000).is_none()
            })
            .count();
        assert!(fallbacks * 100_000 < draws, "{fallbacks} of {draws} draws fell back");
    }

    /// The long sweep: at least 10⁸ heap draws against `sample`'s, over
    /// σ ∈ (0, 20] and bases from 1 ns to 2³⁹ ns. Run it in release mode:
    /// `cargo test --release -p depchaos-launch -- --ignored`.
    #[test]
    #[ignore = "10⁸ draws; run in release with --ignored"]
    fn the_heap_draw_is_samples_draw_over_10e8_draws() {
        let sigmas_milli = [1, 100, 250, 500, 750, 1000, 2000, 4000, 8000, 16_000, 20_000];
        let bases_ns = [1, 2, 3, 1_000, 50_000, 123_457, 1_250_000, 1 << 30, 1 << 39];
        let per_pair = 1_020_000;
        // Per base: the draws with σ ≤ 4, and how many of them fell back.
        let mut fallbacks = [(0u64, 0u64); 9];
        for sigma_milli in sigmas_milli {
            let dist = ServiceDistribution::LogNormal { sigma_milli };
            for (base_ns, tally) in bases_ns.into_iter().zip(&mut fallbacks) {
                let mut heap = SplitMix::split(sigma_milli as u64, SplitMix::NODE, base_ns);
                let mut oracle = heap.clone();
                for _ in 0..per_pair {
                    if sigma_milli <= CERTIFIED_SIGMA_MILLI {
                        let mut peek = heap.clone();
                        let u1 = 1.0 - (peek.next_u64() >> 11) as f64 * UNIT;
                        let k2 = peek.next_u64() >> 11;
                        tally.0 += 1;
                        tally.1 += certified_ns(sigma_milli, u1, k2, base_ns).is_none() as u64;
                    }
                    let got = draw_service_ns(dist, &mut heap, base_ns);
                    assert_eq!(got, scale_service_ns(base_ns, dist.sample(&mut oracle)));
                }
            }
        }
        let draws = per_pair * (sigmas_milli.len() * bases_ns.len()) as u64;
        println!("{draws} heap draws equal sample's");
        for (base_ns, (certifiable, fell_back)) in bases_ns.into_iter().zip(fallbacks) {
            println!("base {base_ns} ns: {fell_back} of {certifiable} draws with σ ≤ 4 fell back");
        }
        assert!(draws >= 100_000_000);
    }

    fn fault_models() -> [FaultModel; 4] {
        [
            FaultModel::None,
            // Stall window inside the contention phase of the fast streams.
            FaultModel::ServerStall { at_ns: 2_000_000, duration_ns: 300_000_000 },
            FaultModel::RpcLoss {
                loss_milli: 150,
                timeout_ns: 1_000_000,
                backoff_base_ns: 250_000,
                max_retries: 5,
            },
            FaultModel::Stragglers { frac_milli: 250, slow_milli: 4000 },
        ]
    }

    #[test]
    fn faulty_fast_path_matches_the_reference_oracle() {
        let streams = [stream(0, 0), stream(60, 0), stream(0, 60), stream(17, 43)];
        for fault in fault_models() {
            for dist in ServiceDistribution::all() {
                for ops in &streams {
                    for ranks in [1usize, 300, 2048] {
                        for broadcast in [false, true] {
                            let mut cfg = fast_cfg()
                                .with_ranks(ranks)
                                .with_service_dist(dist)
                                .with_fault(fault)
                                .with_seed(99);
                            cfg.broadcast_cache = broadcast;
                            assert_eq!(
                                simulate_launch(ops, &cfg),
                                simulate_launch_reference(ops, &cfg),
                                "fault={} dist={} ranks={ranks} broadcast={broadcast} ops={}",
                                fault.name(),
                                dist.name(),
                                ops.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_impact_faults_reproduce_healthy_results() {
        // The faulty engine with a model that cannot fire must agree with
        // the healthy engine bit for bit — including under jitter, which
        // pins the common-random-numbers discipline: FAULT-domain draws
        // never perturb the NODE-domain service draws.
        let ops = stream(120, 30);
        let noops = [
            FaultModel::ServerStall { at_ns: 0, duration_ns: 0 },
            FaultModel::RpcLoss {
                loss_milli: 0,
                timeout_ns: 1_000_000,
                backoff_base_ns: 1_000,
                max_retries: 5,
            },
            FaultModel::Stragglers { frac_milli: 0, slow_milli: 4000 },
        ];
        for dist in ServiceDistribution::all() {
            for ranks in [128usize, 1024] {
                let healthy =
                    simulate_launch(&ops, &fast_cfg().with_ranks(ranks).with_service_dist(dist));
                for fault in noops {
                    let faulted = simulate_launch(
                        &ops,
                        &fast_cfg().with_ranks(ranks).with_service_dist(dist).with_fault(fault),
                    );
                    assert_eq!(
                        faulted.time_to_launch_ns,
                        healthy.time_to_launch_ns,
                        "fault={} dist={} ranks={ranks}",
                        fault.name(),
                        dist.name()
                    );
                    assert_eq!(faulted.retries_issued, 0);
                    assert_eq!(faulted.slowed_nodes, 0);
                }
            }
        }
    }

    #[test]
    fn server_stall_delays_only_when_it_overlaps_the_launch() {
        let ops = stream(200, 0);
        let cfg = fast_cfg().with_ranks(2048);
        let healthy = simulate_launch(&ops, &cfg);
        let brown = simulate_launch(
            &ops,
            &cfg.clone().with_fault(FaultModel::ServerStall {
                at_ns: 1_000_000,
                duration_ns: 10_000_000_000,
            }),
        );
        assert!(
            brown.time_to_launch_ns >= healthy.time_to_launch_ns + 10_000_000_000,
            "a mid-launch 10 s brownout costs at least the window: {} vs {}",
            healthy.time_to_launch_ns,
            brown.time_to_launch_ns
        );
        // A stall scheduled long after the last op never fires.
        let late = simulate_launch(
            &ops,
            &cfg.clone().with_fault(FaultModel::ServerStall {
                at_ns: healthy.time_to_launch_ns * 1000,
                duration_ns: 10_000_000_000,
            }),
        );
        assert_eq!(late, healthy, "a stall after the last service start is a no-op");
        assert_eq!(brown.server_ops, healthy.server_ops, "stalls add wait, not work");
    }

    #[test]
    fn rpc_loss_retries_are_real_extra_work_and_accounted() {
        let ops = stream(200, 0);
        let cfg = fast_cfg().with_ranks(2048);
        let healthy = simulate_launch(&ops, &cfg);
        let lossy = simulate_launch(
            &ops,
            &cfg.clone().with_fault(FaultModel::RpcLoss {
                loss_milli: 200,
                timeout_ns: 2_000_000,
                backoff_base_ns: 500_000,
                max_retries: 5,
            }),
        );
        assert!(lossy.retries_issued > 0, "20% loss over 3200 ops must lose some");
        assert_eq!(lossy.timeouts_hit, lossy.retries_issued);
        assert!(lossy.max_backoff_ns >= 500_000);
        assert_eq!(lossy.server_ops, healthy.server_ops, "distinct ops unchanged");
        assert!(lossy.time_to_launch_ns > healthy.time_to_launch_ns);
        // ~1/0.8 load amplification: retries land within a factor of the
        // expectation (binomial over 16 × 200 attempt chains).
        let attempts = lossy.server_ops + lossy.retries_issued;
        assert!(
            attempts as f64 > lossy.server_ops as f64 * 1.15
                && (attempts as f64) < lossy.server_ops as f64 * 1.40,
            "retry volume tracks the loss rate: {attempts} vs {}",
            lossy.server_ops
        );
    }

    #[test]
    fn stragglers_are_seeded_counted_and_slow_the_launch() {
        let ops = stream(200, 0);
        let fault = FaultModel::Stragglers { frac_milli: 250, slow_milli: 4000 };
        let cfg = fast_cfg().with_ranks(2048).with_fault(fault);
        let healthy = simulate_launch(&ops, &fast_cfg().with_ranks(2048));
        let r = simulate_launch(&ops, &cfg);
        assert!(
            r.slowed_nodes > 0 && r.slowed_nodes < 16,
            "~4 of 16 nodes slow: {}",
            r.slowed_nodes
        );
        assert!(r.time_to_launch_ns > healthy.time_to_launch_ns);
        assert_eq!(simulate_launch(&ops, &cfg), r, "reproduces per seed");
        let other = simulate_launch(&ops, &cfg.clone().with_seed(1234));
        assert_ne!(
            (r.slowed_nodes, r.time_to_launch_ns),
            (other.slowed_nodes, other.time_to_launch_ns),
            "membership is drawn from the seed"
        );
    }

    /// Push `(arrival, node)` into the event queue and the binary heap.
    fn push_both(
        q: &mut EventQueue,
        heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
        arrival: u64,
        node: usize,
    ) {
        q.push(arrival, node);
        heap.push(Reverse((arrival, node)));
    }

    /// Pop both; they must agree.
    fn pop_both(
        q: &mut EventQueue,
        heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
    ) -> Option<(u64, usize)> {
        let want = heap.pop().map(|Reverse(e)| e);
        assert_eq!(q.pop(), want);
        want
    }

    #[test]
    fn event_queue_pops_exactly_what_a_binary_heap_pops() {
        // The scan bound: of REAR_SCAN + 1 pending events at 10, 20, 30,
        // …, one that belongs exactly REAR_SCAN places from the rear is
        // placed in the ring, one that belongs a place deeper goes to the
        // heap, and both pop in order.
        let n = REAR_SCAN + 1;
        let mut q = EventQueue::new(n + 2);
        let mut heap = BinaryHeap::new();
        for node in 0..n {
            push_both(&mut q, &mut heap, 10 * (node as u64 + 1), node);
        }
        push_both(&mut q, &mut heap, 15, n);
        assert!(q.deep.is_empty(), "an insert REAR_SCAN places deep stays in the ring");
        push_both(&mut q, &mut heap, 12, n + 1);
        assert_eq!((q.len, q.deep.len()), (n + 1, 1), "one place deeper goes to the heap");
        let popped: Vec<u64> = std::iter::from_fn(|| pop_both(&mut q, &mut heap))
            .map(|(arrival, _)| arrival)
            .collect();
        assert_eq!((popped.len(), &popped[..4]), (n + 2, &[10, 12, 15, 20][..]));

        // Random interleavings of pops and inserts, one pending event per
        // node at most, as in the engine. A spread of 1 or 3 makes most
        // pending arrivals equal, so the order is the node tie-break; an
        // insert at the instant just popped lands at the front, deeper
        // than the scan bound whenever more than REAR_SCAN are pending;
        // one insert in 16 is parked; and every so often the queue drains
        // and refills.
        let (mut ties, mut deep_inserts) = (0, 0);
        for seed in 0..120u64 {
            let mut rng = SplitMix::new(seed);
            let nodes = [1usize, 2, 9, 64, 300][seed as usize % 5];
            let spread = [1u64, 3, 50, 1 << 20][(seed as usize / 5) % 4];
            let mut q = EventQueue::new(nodes);
            let mut heap = BinaryHeap::new();
            let mut now = 0u64;
            let mut idle: Vec<usize> = (0..nodes).collect();
            for _ in 0..3_000 {
                if rng.below(300) == 0 {
                    while let Some((_, node)) = pop_both(&mut q, &mut heap) {
                        idle.push(node);
                    }
                }
                while !idle.is_empty() && rng.below(4) != 0 {
                    let node = idle.swap_remove(rng.below(idle.len() as u64) as usize);
                    let arrival = if rng.below(8) == 0 { now } else { now + rng.below(spread) };
                    if rng.below(16) == 0 {
                        q.park(arrival, node);
                        heap.push(Reverse((arrival, node)));
                    } else {
                        let deep_before = q.deep.len();
                        push_both(&mut q, &mut heap, arrival, node);
                        deep_inserts += q.deep.len() - deep_before;
                    }
                }
                if let Some((arrival, node)) = pop_both(&mut q, &mut heap) {
                    ties += usize::from(heap.peek().is_some_and(|Reverse(e)| e.0 == arrival));
                    now = arrival;
                    idle.push(node);
                }
            }
            while pop_both(&mut q, &mut heap).is_some() {}
        }
        assert!(ties > 10_000, "only {ties} pops tied with the next pending arrival");
        assert!(deep_inserts > 1_000, "only {deep_inserts} inserts went past the scan bound");
    }

    /// Random op streams for the analytic-vs-heap comparison: kinds and
    /// costs driven by a seeded [`SplitMix`], spanning sub-warm locals,
    /// multi-RTT metadata, and payload reads.
    fn random_stream(seed: u64, len: usize) -> StraceLog {
        let mut rng = SplitMix::new(seed);
        let mut log = StraceLog::new();
        for i in 0..len {
            let (op, outcome) = match rng.below(4) {
                0 => (Op::Stat, Outcome::Ok),
                1 => (Op::Openat, Outcome::Enoent),
                2 => (Op::Read, Outcome::Ok),
                _ => (Op::Readlink, Outcome::Ok),
            };
            log.push(Syscall::new(op, &format!("/r/{i}"), outcome, rng.below(2_000_000)));
        }
        log
    }

    /// `cfg`'s row with every lane replayed on the heap, whatever its
    /// class.
    fn heap_row(stream: &ClassifiedStream, cfg: &LaunchConfig) -> LaunchResult {
        let runs = lanes(cfg).map(|lane| heap_kernel(stream, cfg, lane));
        scatter(stream, cfg, fold_lanes(stream, runs))
    }

    /// `cfg`'s row with every lane solved by the closed form, whatever its
    /// class: the envelope's own answer, `None` when it outgrows its cap.
    fn envelope_row(stream: &ClassifiedStream, cfg: &LaunchConfig) -> Option<LaunchResult> {
        let runs = lanes(cfg)
            .map(|lane| Some((closed_form(stream, cfg, lane.count)?, FaultCounts::default())))
            .collect::<Option<Vec<FleetRun>>>()?;
        Some(scatter(stream, cfg, fold_lanes(stream, runs)))
    }

    #[test]
    fn closed_form_matches_the_heap_bit_for_bit_whenever_it_engages() {
        // The in-module ground truth: whenever the rule calls a row
        // analytic, the envelope recursion must reproduce the heap's
        // (slowest finish, peak queue depth) exactly — same tie-breaks,
        // same integer halving. A lone cold node is a heap row, but the
        // envelope must answer it exactly too. Random streams exercise both
        // round-major verdicts; the uniform metadata stream must always
        // engage.
        let mut engaged = 0;
        for seed in 0..40u64 {
            let ops = random_stream(seed, (seed % 60) as usize + 1);
            for ranks in [1usize, 128, 2048, 8192] {
                let cfg = fast_cfg().with_ranks(ranks);
                let classified = ClassifiedStream::classify(&ops, &cfg);
                let class = SolverClass::of(&cfg, &classified);
                let lone = class == SolverClass::Heap && cfg.cold_nodes() == 1;
                if class != SolverClass::Analytic && !lone {
                    continue;
                }
                if let Some(analytic) = envelope_row(&classified, &cfg) {
                    engaged += 1;
                    assert_eq!(analytic, heap_row(&classified, &cfg), "seed={seed} ranks={ranks}");
                }
            }
        }
        assert!(engaged > 20, "the rule admitted only {engaged} cases — generator too hostile");
        for ranks in [512usize, 16 * 1024] {
            let cfg = fast_cfg().with_ranks(ranks);
            let classified = ClassifiedStream::classify(&stream(200, 50), &cfg);
            assert_eq!(
                SolverClass::of(&cfg, &classified),
                SolverClass::Analytic,
                "uniform cold metadata streams are always round-major"
            );
        }
    }

    #[test]
    fn uniform_streams_are_analytic_from_two_cold_nodes_and_exact() {
        // One cold node is a heap row, where the envelope would also be
        // exact: a lone node is always round-major.
        for (nc, nw) in [(1usize, 0usize), (100, 0), (37, 63), (1, 499), (200, 50)] {
            let ops = stream(nc, nw);
            for ranks in [1usize, 128, 2048] {
                let cfg = fast_cfg().with_ranks(ranks);
                let classified = ClassifiedStream::classify(&ops, &cfg);
                let want = if cfg.nodes() > 1 { SolverClass::Analytic } else { SolverClass::Heap };
                assert_eq!(SolverClass::of(&cfg, &classified), want, "ranks={ranks}");
                let r = simulate_classified(&classified, &cfg);
                assert_eq!(r, simulate_launch_reference(&ops, &cfg));
                assert_eq!(Some(r), envelope_row(&classified, &cfg));
                assert_eq!(r.peak_queue_depth, cfg.nodes(), "every cold node queues");
            }
        }
    }

    #[test]
    fn analytic_declines_what_it_cannot_prove() {
        // A payload-heavy read's huge client gap followed by a bare stat
        // breaks round-major ordering for a multi-node fleet: node 0 laps
        // the stragglers. The rule must send the row to the heap, and the
        // heap keep the result exact.
        let mut ops = StraceLog::new();
        ops.push(Syscall::new(Op::Read, "/data/big", Outcome::Ok, 4_000_000));
        for i in 0..10 {
            ops.push(Syscall::new(Op::Stat, &format!("/l/{i}"), Outcome::Enoent, 200_000));
        }
        let multi = fast_cfg().with_ranks(2048);
        let classified = ClassifiedStream::classify(&ops, &multi);
        assert!(!classified.round_major);
        assert_eq!(SolverClass::of(&multi, &classified), SolverClass::Heap);
        assert_eq!(
            simulate_classified(&classified, &multi),
            simulate_launch_reference(&ops, &multi),
            "the heap stays exact where the closed form cannot be proven"
        );
        // A lone cold node is a heap row too, though the envelope answers
        // it exactly: one node is always round-major.
        let single = fast_cfg().with_ranks(64); // one node
        let classified = ClassifiedStream::classify(&ops, &single);
        assert_eq!(SolverClass::of(&single, &classified), SolverClass::Heap);
        assert_eq!(envelope_row(&classified, &single), Some(heap_row(&classified, &single)));

        // Stochastic and broadcast regimes are out of the analytic scope by
        // construction.
        let jitter = fast_cfg()
            .with_ranks(2048)
            .with_service_dist(ServiceDistribution::uniform_jitter(0.25));
        let classified = ClassifiedStream::classify(&ops, &jitter);
        assert_eq!(SolverClass::of(&jitter, &classified), SolverClass::Stochastic);
        let mut bcast = fast_cfg().with_ranks(2048);
        bcast.broadcast_cache = true;
        let classified = ClassifiedStream::classify(&ops, &bcast);
        assert_eq!(SolverClass::of(&bcast, &classified), SolverClass::Heap);
    }

    #[test]
    fn classify_computes_the_row_facts_once() {
        // The local total is what summing the schedule gives, and an empty
        // schedule is not round-major.
        for seed in 0..8u64 {
            let classified = ClassifiedStream::classify(&random_stream(seed, 50), &fast_cfg());
            let summed = classified.segments.iter().map(|s| s.pre_local_ns).sum::<u64>()
                + classified.tail_local_ns;
            assert_eq!(classified.local_total_ns(), summed, "seed={seed}");
        }
        for (nc, nw) in [(0usize, 0usize), (0, 40), (1, 0), (37, 63)] {
            let classified = ClassifiedStream::classify(&stream(nc, nw), &fast_cfg());
            assert_eq!(classified.round_major, nc > 0, "{nc} cold, {nw} warm");
        }
    }

    #[test]
    fn million_node_all_cold_simulates_instantly() {
        // 262,144 cold nodes × 500 server ops — heap cost would be 131M
        // events; the closed form does 500 envelope steps.
        let ops = stream(500, 0);
        let mut cfg = fast_cfg();
        cfg.ranks = 4 * 1024 * 1024;
        cfg.ranks_per_node = 16;
        let t0 = std::time::Instant::now();
        let classified = ClassifiedStream::classify(&ops, &cfg);
        let r = simulate_classified(&classified, &cfg);
        assert!(t0.elapsed().as_secs_f64() < 1.0, "took {:?}", t0.elapsed());
        assert_eq!(SolverClass::of(&cfg, &classified), SolverClass::Analytic);
        assert_eq!(Some(r), envelope_row(&classified, &cfg), "the envelope stays under its cap");
        assert_eq!(r.nodes, 262_144);
        assert_eq!(r.peak_queue_depth, 262_144, "the whole fleet queues at once");
        // Sanity: the launch cannot beat the server's serial capacity.
        assert!(r.time_to_launch_ns >= 262_144 * 500 * cfg.meta_service_ns);
    }

    #[test]
    fn million_node_broadcast_sweep_is_instant() {
        // 4 Mi ranks on 16-rank nodes = 262,144 nodes. Under Spindle
        // broadcast only node 0 is cold: the other 262,143 are coalesced
        // analytically, so the simulation does O(server_ops) work.
        let ops = stream(500, 0);
        let mut cfg = fast_cfg();
        cfg.ranks = 4 * 1024 * 1024;
        cfg.ranks_per_node = 16;
        cfg.broadcast_cache = true;
        let t0 = std::time::Instant::now();
        let r = simulate_launch(&ops, &cfg);
        assert!(t0.elapsed().as_secs_f64() < 1.0, "took {:?}", t0.elapsed());
        assert_eq!(r.nodes, 262_144);
        assert_eq!(r.server_ops, 500);
        assert_eq!(r.local_ops, 262_143 * 500);
    }

    fn topologies() -> [ServerTopology; 5] {
        [
            ServerTopology::single(),
            ServerTopology::hash(2),
            ServerTopology::hash(8),
            ServerTopology::least_loaded(3),
            ServerTopology::least_loaded(8),
        ]
    }

    #[test]
    fn single_server_is_bit_identical_whatever_the_policy() {
        // One lane leaves nothing for the policy to pick: both S=1
        // topologies must reproduce the default-config result exactly,
        // across every (dist × fault) engine.
        let ops = stream(60, 20);
        for dist in ServiceDistribution::all() {
            for fault in fault_models() {
                for ranks in [1usize, 512, 2048] {
                    let base =
                        fast_cfg().with_ranks(ranks).with_service_dist(dist).with_fault(fault);
                    let want = simulate_launch(&ops, &base);
                    for assign in [AssignPolicy::HashByNode, AssignPolicy::LeastLoaded] {
                        let cfg = base.clone().with_topology(ServerTopology { servers: 1, assign });
                        assert_eq!(simulate_launch(&ops, &cfg), want, "assign={}", assign.name());
                    }
                }
            }
        }
    }

    #[test]
    fn multi_server_matches_the_reference_oracle() {
        let streams = [stream(40, 0), stream(17, 43), stream(0, 60)];
        for top in topologies() {
            for dist in ServiceDistribution::all() {
                for fault in fault_models() {
                    for ops in &streams {
                        for ranks in [1usize, 300, 2048] {
                            let cfg = fast_cfg()
                                .with_ranks(ranks)
                                .with_service_dist(dist)
                                .with_fault(fault)
                                .with_seed(99)
                                .with_topology(top);
                            assert_eq!(
                                simulate_launch(ops, &cfg),
                                simulate_launch_reference(ops, &cfg),
                                "top={} dist={} fault={} ranks={ranks} ops={}",
                                top.name(),
                                dist.name(),
                                fault.name(),
                                ops.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multi_server_closed_form_matches_the_heap_bit_for_bit() {
        // The per-lane analytic envelope against the per-lane heap and the
        // reference oracle's joint S-server heap, wherever the rule calls
        // the row analytic — including lanes of unequal size (cold % S ≠ 0).
        let mut engaged = 0;
        for seed in 0..20u64 {
            let ops = random_stream(seed, (seed % 40) as usize + 1);
            for servers in [2usize, 3, 8, 16] {
                for ranks in [128usize, 2048, 8192] {
                    let cfg =
                        fast_cfg().with_ranks(ranks).with_topology(ServerTopology::hash(servers));
                    let classified = ClassifiedStream::classify(&ops, &cfg);
                    if SolverClass::of(&cfg, &classified) != SolverClass::Analytic {
                        continue;
                    }
                    if let Some(analytic) = envelope_row(&classified, &cfg) {
                        engaged += 1;
                        let what = format!("seed={seed} servers={servers} ranks={ranks}");
                        assert_eq!(analytic, heap_row(&classified, &cfg), "{what}");
                        assert_eq!(analytic, simulate_launch_reference(&ops, &cfg), "{what}");
                    }
                }
            }
        }
        assert!(engaged > 40, "the rule admitted only {engaged} cases — generator too hostile");
    }

    #[test]
    fn least_loaded_is_never_analytic_and_stays_exact() {
        let ops = stream(120, 0);
        let cfg = fast_cfg().with_ranks(2048).with_topology(ServerTopology::least_loaded(4));
        let classified = ClassifiedStream::classify(&ops, &cfg);
        assert_eq!(
            SolverClass::of(&cfg, &classified),
            SolverClass::Heap,
            "schedule-dependent routing must decline the closed form"
        );
        assert_eq!(simulate_classified(&classified, &cfg), simulate_launch_reference(&ops, &cfg));
    }

    #[test]
    fn more_servers_flatten_the_launch_monotonically() {
        let ops = stream(300, 0);
        let mut prev = u64::MAX;
        for servers in [1usize, 2, 4, 8, 16] {
            let cfg = fast_cfg().with_ranks(2048).with_topology(ServerTopology::hash(servers));
            let t = simulate_launch(&ops, &cfg).time_to_launch_ns;
            assert!(t <= prev, "S={servers} slowed the launch: {t} > {prev}");
            prev = t;
        }
        // 16 servers over 16 cold nodes: every node has a private server,
        // so the launch is contention-free — far faster than S=1.
        let solo = simulate_launch(
            &ops,
            &fast_cfg().with_ranks(2048).with_topology(ServerTopology::hash(16)),
        );
        let jammed = simulate_launch(&ops, &fast_cfg().with_ranks(2048));
        // (Not 16×: with private servers each node is RTT-bound, and the
        // round trips don't shrink with S.)
        assert!(solo.time_to_launch_ns * 2 < jammed.time_to_launch_ns);
        assert_eq!(solo.server_ops, jammed.server_ops, "topology moves time, not work");
    }

    #[test]
    fn million_node_multi_server_still_simulates_instantly() {
        // The analytic fast path must survive the topology axis: 262,144
        // cold nodes over 8 hash lanes is still O(server_ops) work.
        let ops = stream(500, 0);
        let mut cfg = fast_cfg().with_topology(ServerTopology::hash(8));
        cfg.ranks = 4 * 1024 * 1024;
        cfg.ranks_per_node = 16;
        let t0 = std::time::Instant::now();
        let classified = ClassifiedStream::classify(&ops, &cfg);
        let r = simulate_classified(&classified, &cfg);
        assert!(t0.elapsed().as_secs_f64() < 1.0, "took {:?}", t0.elapsed());
        assert_eq!(SolverClass::of(&cfg, &classified), SolverClass::Analytic);
        assert_eq!(Some(r), envelope_row(&classified, &cfg), "the envelope stays under its cap");
        assert_eq!(r.peak_queue_depth, 262_144, "the whole fleet still queues at once");
        // Each lane serializes its own 32,768 nodes' ops...
        assert!(r.time_to_launch_ns >= (262_144 / 8) * 500 * cfg.meta_service_ns);
        // ...and 8 lanes beat one by nearly the lane count.
        let one = simulate_launch(&ops, &cfg.clone().with_topology(ServerTopology::single()));
        assert!(r.time_to_launch_ns < one.time_to_launch_ns / 6);
    }
}
