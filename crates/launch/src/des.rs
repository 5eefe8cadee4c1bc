//! The discrete-event launch simulation.
//!
//! A fleet of `S` shared metadata servers (FIFO, deterministic service
//! time; `cfg.topology` — the default is the paper's single server), N
//! node clients each replaying the captured op stream *sequentially* — the
//! dynamic loader issues one syscall at a time, so a node cannot pipeline
//! its own lookups. Contention emerges naturally: every node's cold op
//! must pass through its server's queue. Each server keeps its own
//! busy-until lane; requests route by the topology's
//! [`AssignPolicy`] — `HashByNode` pins node `i` to lane `i % S`
//! (seed-free, schedule-independent), `LeastLoaded` picks the earliest
//! lane at service time with index tie-breaks. `S = 1` reduces every
//! engine below to the pre-topology arithmetic bit for bit.
//!
//! # The hot path: classify once, then the cheapest exact regime
//!
//! Simulation is split into two phases so a rank sweep pays classification
//! exactly once:
//!
//! 1. [`ClassifiedStream::classify`] turns the raw [`StraceLog`] into a
//!    compact schedule: one segment per server round trip (its preceding
//!    local-compute time folded into a single number) plus aggregate
//!    counts. This is the only pass that touches the op stream, and its
//!    output is immutable — [`crate::sweep_ranks`] and the experiment
//!    engine share one `ClassifiedStream` across every rank point of a
//!    cell instead of re-deriving (and re-allocating) it per point.
//! 2. [`simulate_classified`] picks the row's [`SolverClass`] — the
//!    cheapest of the regimes below, all of which produce **bit-identical
//!    results** — solves the cold fleet in it, and adds the per-row
//!    arithmetic (warm fleet, op accounting, overheads). The class
//!    selection, the heap dispatch and that per-row arithmetic are single
//!    crate-internal functions shared with [`crate::batch::BatchPlan`],
//!    which is what keeps a batched row and a per-call result equal:
//!
//!    * **Coalesced** — no server segments: every node replays the same
//!      local compute, so one replay covers the fleet.
//!    * **Analytic** ([`analytic_all_cold`]) — the symmetric all-cold
//!      fleet under deterministic service: when the segment schedule is
//!      round-major (uniform metadata streams always are), the whole
//!      fleet collapses to a max-plus line-envelope recursion over the
//!      segments, `O(server_ops)` independent of the node count, exact
//!      `peak_queue_depth` included. Warm and serverless nodes are always
//!      coalesced analytically (one replay, multiplied out).
//!    * **Heap** — cold nodes walk the segment schedule through one binary
//!      event heap, one event per *server* op: `O(cold_nodes ×
//!      server_ops · log cold_nodes)`. The fallback whenever the closed
//!      form's guard declines (payload-heavy gaps can break round-major
//!      ordering), and the engine of the stochastic and faulted classes.
//!    * **Reference** ([`reference`](mod@reference)) — the retained oracle: every node
//!      walks every op, `O(nodes × ops · log nodes)`. Never used by the
//!      sweeps; exists so the others have an independent ground truth
//!      (`tests/des_equivalence.rs` and the in-crate suite pin them all
//!      to bit-identical [`LaunchResult`]s by property test).
//!
//! # Stochastic service times
//!
//! `cfg.service_dist` selects the server's per-op service-time model (see
//! [`ServiceDistribution`]). Under `Deterministic` the simulation takes the
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

use depchaos_vfs::{Op, StraceLog};
use depchaos_workloads::SplitMix;

use crate::config::{AssignPolicy, LaunchConfig, LaunchResult, ServiceDistribution};
use crate::fault::{backoff_ns, FaultCounts, FaultModel};

/// The per-server busy-until clocks of a [`crate::ServerTopology`] fleet,
/// plus the routing policy. `S = 1` degenerates to the pre-topology single
/// `server_busy_ns` cell exactly: one lane, always picked, same max/add
/// sequence. Shared by the event heap and the [`reference`](mod@reference)
/// oracle so both route identically.
pub(crate) struct ServerLanes {
    /// Busy-until clock per server, indexed by lane.
    pub(crate) busy_ns: Vec<u64>,
    assign: AssignPolicy,
}

impl ServerLanes {
    pub(crate) fn new(cfg: &LaunchConfig) -> Self {
        ServerLanes { busy_ns: vec![0; cfg.topology.servers.max(1)], assign: cfg.topology.assign }
    }

    /// The lane serving `node`'s request popped at this instant. Both
    /// policies are draw-free: `HashByNode` is a pure function of the node
    /// index, `LeastLoaded` of the current busy clocks (ties to the lowest
    /// lane index).
    pub(crate) fn pick(&self, node: usize) -> usize {
        match self.assign {
            AssignPolicy::HashByNode => node % self.busy_ns.len(),
            AssignPolicy::LeastLoaded => {
                let mut best = 0usize;
                for l in 1..self.busy_ns.len() {
                    if self.busy_ns[l] < self.busy_ns[best] {
                        best = l;
                    }
                }
                best
            }
        }
    }
}

/// The [`LaunchConfig`] fields classification depends on. Two configs with
/// equal `ClassifyParams` can share one [`ClassifiedStream`] — rank count,
/// node shape, overheads, cache policy, and *seed* all vary freely across a
/// sweep (and across stochastic replicates) without reclassifying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassifyParams {
    pub rtt_ns: u64,
    pub meta_service_ns: u64,
    pub warm_ns: u64,
    /// The service distribution the stream will be simulated under. It does
    /// not change the segment schedule itself, but keying it here keeps a
    /// memoized [`ClassifiedStream`] honest about what it will be replayed
    /// as — and deliberately excludes the seed, so replicates share one
    /// classification.
    pub dist: ServiceDistribution,
}

impl ClassifyParams {
    /// The classification-relevant slice of `cfg`.
    pub fn of(cfg: &LaunchConfig) -> Self {
        ClassifyParams {
            rtt_ns: cfg.rtt_ns,
            meta_service_ns: cfg.meta_service_ns,
            warm_ns: cfg.warm_ns,
            dist: cfg.service_dist,
        }
    }
}

/// Hard ceiling on one drawn service time: ~18 minutes. Far beyond any
/// physical metadata op, but low enough that even a pathological stream
/// (millions of server ops all drawn at the cap) sums well inside `u64`
/// nanoseconds — the event loop's clock arithmetic stays overflow-free
/// without saturating every addition.
const MAX_SERVICE_NS: u64 = 1 << 40;

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
}

impl ClassifiedStream {
    /// Classify the profiled ops under `cfg`'s latency calibration.
    /// Anything the VFS charged at least an RTT for was a server round
    /// trip; reads ship their (size-derived) cost as the service time; the
    /// rest is client-local.
    pub fn classify(ops: &StraceLog, cfg: &LaunchConfig) -> Self {
        let params = ClassifyParams::of(cfg);
        let mut segments = Vec::new();
        let mut pre_local_ns = 0u64;
        let mut n_local = 0u64;
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
                pre_local_ns += e.cost_ns.max(params.warm_ns);
                n_local += 1;
            }
        }
        ClassifiedStream {
            params,
            segments,
            tail_local_ns: pre_local_ns,
            n_ops: ops.entries.len() as u64,
            n_local,
        }
    }

    /// The parameters this stream was classified under.
    pub fn params(&self) -> ClassifyParams {
        self.params
    }

    /// Panics unless `cfg` has the latency calibration this stream was
    /// classified under (rank count, node shape, overheads, and cache
    /// policy may differ freely).
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
        self.segments.iter().map(|s| s.pre_local_ns).sum::<u64>() + self.tail_local_ns
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
/// `ops` (captured by [`crate::profile::profile_load`] on a cold mount).
///
/// Classifies and simulates in one call; when sweeping several rank points
/// over one stream, build the [`ClassifiedStream`] once and call
/// [`simulate_classified`] per point instead.
pub fn simulate_launch(ops: &StraceLog, cfg: &LaunchConfig) -> LaunchResult {
    simulate_classified(&ClassifiedStream::classify(ops, cfg), cfg)
}

/// The DES over a pre-classified stream. Exact — bit-identical to
/// [`reference::simulate_launch_reference`] — but warm nodes cost O(1) and
/// cold nodes cost one heap event per *server* op.
///
/// Panics if `cfg`'s latency calibration differs from the one the stream
/// was classified under (rank count, node shape, overheads, and cache
/// policy may differ freely).
pub fn simulate_classified(stream: &ClassifiedStream, cfg: &LaunchConfig) -> LaunchResult {
    stream.check_calibration(cfg);
    let class =
        SolverClass::of(cfg, stream.server_ops(), || round_major(&stream.segments, cfg.rtt_ns / 2));
    scatter(stream, cfg, solve_kernel(stream, cfg, class))
}

/// The solver class a simulation row takes: which of the bit-identical
/// regimes is cheapest for its (schedule, distribution, fault, cold-fleet,
/// topology) combination. [`simulate_classified`] and
/// [`crate::batch::BatchPlan::push`] both select it by the same rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverClass {
    /// No server segments: warm or serverless rows coalesce to pure
    /// segment arithmetic — no event, no draw, no fault can manifest.
    Coalesced,
    /// Deterministic service, ≥ 2 cold nodes, round-major schedule, and
    /// a hash-routed (or single-server) fleet: the max-plus line-envelope
    /// recursion over the busiest lane. `LeastLoaded` multi-server rows
    /// take [`SolverClass::Heap`] — their routing depends on the event
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
    /// The class of a row simulating `cfg` over a schedule of `server_ops`
    /// segments. `round_major` is the schedule's guard verdict
    /// ([`round_major`]); it is only evaluated when the class hinges on
    /// it.
    pub(crate) fn of(
        cfg: &LaunchConfig,
        server_ops: u64,
        round_major: impl FnOnce() -> bool,
    ) -> SolverClass {
        let cold_nodes = cfg.cold_nodes();
        if server_ops == 0 {
            SolverClass::Coalesced
        } else if !cfg.fault.is_none() {
            SolverClass::Heap
        } else if !cfg.service_dist.is_deterministic() {
            SolverClass::Stochastic
        } else if cold_nodes > 1 && closed_form_admits(cfg, round_major) {
            SolverClass::Analytic
        } else {
            SolverClass::Heap
        }
    }
}

/// One cold fleet's replay: `(slowest cold finish, peak queue depth, fault
/// accounting)` — everything a row needs from its kernel.
pub(crate) type FleetRun = (u64, usize, FaultCounts);

/// Solve `cfg`'s cold fleet over `stream` in `class`'s regime — the one
/// kernel dispatch [`simulate_classified`] and [`crate::batch::BatchPlan`]
/// share. An analytic row whose envelope trips the line cap falls back to
/// the heap.
pub(crate) fn solve_kernel(
    stream: &ClassifiedStream,
    cfg: &LaunchConfig,
    class: SolverClass,
) -> FleetRun {
    match class {
        SolverClass::Coalesced => (stream.local_total_ns(), 0, FaultCounts::default()),
        SolverClass::Analytic => match closed_form(stream, cfg) {
            Some(done) => (done, cfg.cold_nodes(), FaultCounts::default()),
            None => heap_kernel(stream, cfg),
        },
        SolverClass::Stochastic | SolverClass::Heap => heap_kernel(stream, cfg),
    }
}

/// The per-row arithmetic around a cold fleet's replay: the coalesced warm
/// fleet, op accounting, and the spawn and base overheads. The one
/// scatter [`simulate_classified`] and [`crate::batch::BatchPlan`] share.
pub(crate) fn scatter(
    stream: &ClassifiedStream,
    cfg: &LaunchConfig,
    (cold_done_ns, peak_queue_depth, fc): FleetRun,
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
    LaunchResult {
        time_to_launch_ns: cfg.base_overhead_ns + spawn_ns + cold_done_ns.max(warm_done_ns),
        nodes,
        server_ops: cold_nodes as u64 * stream.server_ops(),
        local_ops: warm_nodes as u64 * stream.n_ops + cold_nodes as u64 * stream.n_local,
        peak_queue_depth,
        retries_issued: fc.retries,
        timeouts_hit: fc.timeouts,
        max_backoff_ns: fc.max_backoff_ns,
        slowed_nodes: fc.slowed_nodes,
    }
}

/// The heap dispatch: replay `cfg`'s cold nodes through
/// [`heap_schedule`] with the service draws `cfg.service_dist` asks for
/// (none under `Deterministic` — no generator is even constructed — else
/// one NODE-domain stream per cold node, consumed in segment order) and
/// `cfg.fault`'s hook. Each (distribution, hook) pair is its own
/// monomorphised loop.
fn heap_kernel(stream: &ClassifiedStream, cfg: &LaunchConfig) -> FleetRun {
    fn with_draws(stream: &ClassifiedStream, cfg: &LaunchConfig, hook: impl FaultHook) -> FleetRun {
        let dist = cfg.service_dist;
        if dist.is_deterministic() {
            return heap_schedule(stream, cfg, hook, |_, seg| seg.service_ns);
        }
        let mut rngs: Vec<SplitMix> = (0..cfg.cold_nodes())
            .map(|i| SplitMix::split(cfg.seed, SplitMix::NODE, i as u64))
            .collect();
        heap_schedule(stream, cfg, hook, |i, seg| {
            scale_service_ns(seg.service_ns, dist.sample(&mut rngs[i]))
        })
    }
    if cfg.fault.is_none() {
        with_draws(stream, cfg, Healthy)
    } else {
        with_draws(stream, cfg, Faulty::new(cfg))
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
    fn new(cfg: &LaunchConfig) -> Self {
        let (fault, cold_nodes) = (cfg.fault, cfg.cold_nodes());
        let mut rngs: Vec<SplitMix> = if fault.takes_draws() {
            (0..cold_nodes).map(|i| SplitMix::split(cfg.seed, SplitMix::FAULT, i as u64)).collect()
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
            attempts: vec![0; cold_nodes],
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

/// The event loop — the one heap every stochastic, faulted, and
/// guard-declined row runs: one cursor per cold node over the segment
/// schedule, one heap event per server op. `draw(node, segment)` supplies
/// the distribution-scaled service time and `hook` the fault semantics
/// ([`FaultHook`]). Returns the [`FleetRun`].
fn heap_schedule(
    stream: &ClassifiedStream,
    cfg: &LaunchConfig,
    mut hook: impl FaultHook,
    mut draw: impl FnMut(usize, &ServerSeg) -> u64,
) -> FleetRun {
    let (cold_nodes, half_rtt) = (cfg.cold_nodes(), cfg.rtt_ns / 2);
    // Per-node cursor into the segment schedule and local clock. Only
    // cold nodes exist here, and only their server ops are events.
    struct Node {
        next_seg: usize,
        clock_ns: u64,
    }
    let mut node_state: Vec<Node> =
        (0..cold_nodes).map(|_| Node { next_seg: 0, clock_ns: 0 }).collect();

    // Event queue of (arrival at server, node, service time, client
    // extra) — the tuple layout (and so the tie-breaking order) of the
    // reference implementation.
    let mut heap: BinaryHeap<Reverse<(u64, usize, u64, u64)>> =
        BinaryHeap::with_capacity(cold_nodes);
    let first = stream.segments[0];
    for (i, n) in node_state.iter_mut().enumerate() {
        n.clock_ns = first.pre_local_ns;
        let svc = hook.service(i, draw(i, &first));
        heap.push(Reverse((n.clock_ns + half_rtt, i, svc, first.client_extra_ns)));
    }

    let mut peak_queue_depth = 0usize;
    let mut lanes = ServerLanes::new(cfg);
    let mut done_max_ns = 0u64;
    while let Some(Reverse((arrival, i, svc, extra))) = heap.pop() {
        peak_queue_depth = peak_queue_depth.max(heap.len() + 1);
        // FIFO after the lane's previous work, never before `arrival`.
        let lane = lanes.pick(i);
        let done = hook.start(lanes.busy_ns[lane].max(arrival)) + svc;
        lanes.busy_ns[lane] = done;
        if let Some(rearrival) = hook.lost(i, arrival) {
            // The server did the work (its busy clock stands), but the
            // same request, with the same drawn service, arrives again.
            heap.push(Reverse((rearrival, i, svc, extra)));
            continue;
        }
        // Client resumes after the response returns and it has consumed
        // the payload (reads stream for `extra` after the server moves
        // on), then computes locally until its next request.
        let n = &mut node_state[i];
        n.clock_ns = done + half_rtt + extra;
        n.next_seg += 1;
        match stream.segments.get(n.next_seg) {
            Some(seg) => {
                n.clock_ns += seg.pre_local_ns;
                let svc = hook.service(i, draw(i, seg));
                heap.push(Reverse((n.clock_ns + half_rtt, i, svc, seg.client_extra_ns)));
            }
            None => {
                n.clock_ns += stream.tail_local_ns;
                done_max_ns = done_max_ns.max(n.clock_ns);
            }
        }
    }
    (done_max_ns, peak_queue_depth, hook.counts())
}

/// The analytic all-cold fast path: `simulate_classified`'s deterministic
/// no-broadcast regime without the event heap. Returns the full
/// [`LaunchResult`] when the closed form applies (see `closed_form` for
/// why it is exact), `None` when the segment schedule forces a heap replay
/// — callers and tests can tell *whether* the analytic regime engaged, and
/// the result is bit-identical to [`simulate_classified`] whenever it does.
pub fn analytic_all_cold(stream: &ClassifiedStream, cfg: &LaunchConfig) -> Option<LaunchResult> {
    let half_rtt = cfg.rtt_ns / 2;
    if !cfg.service_dist.is_deterministic()
        || !cfg.fault.is_none()
        || cfg.broadcast_cache
        || stream.segments.is_empty()
        || !closed_form_admits(cfg, || round_major(&stream.segments, half_rtt))
    {
        return None;
    }
    let done = closed_form(stream, cfg)?;
    Some(scatter(stream, cfg, (done, cfg.cold_nodes(), FaultCounts::default())))
}

/// Upper bound on the line-envelope size before the closed form bails to
/// the heap. The envelope holds at most one line per *distinct* service
/// time still live, so real op streams (metadata ops share
/// `meta_service_ns`; reads bucket by size) stay in single digits — the cap
/// only guards adversarial streams where O(lines) per segment would
/// degenerate toward O(server_ops²).
const MAX_ENVELOPE_LINES: usize = 64;

/// The closed form's guard on `cfg`'s deterministic cold fleet under its
/// topology. Under an S-lane `HashByNode` fleet the lanes are fully
/// independent single-server systems over the same schedule (node `i` only
/// ever talks to lane `i % S`), so the closed form runs per lane and the
/// busiest lane — `ceil(cold / S)` nodes — finishes last (adding a node to
/// a FIFO lane never speeds it up). `LeastLoaded` routing depends on the
/// event schedule, so it is never analytic-eligible. A lane of two or more
/// nodes also needs the schedule to be round-major ([`round_major`],
/// evaluated only then); a single node always is.
fn closed_form_admits(cfg: &LaunchConfig, round_major: impl FnOnce() -> bool) -> bool {
    (cfg.topology.servers <= 1 || cfg.topology.assign == AssignPolicy::HashByNode)
        && (lane_last(cfg) == 0 || round_major())
}

/// Closed form for the symmetric all-cold fleet under deterministic
/// service, for a fleet [`closed_form_admits`]: `cfg`'s identical cold
/// nodes replay the segment schedule through the FIFO server, and the
/// slowest cold finish is **bit-identical** to [`heap_schedule`]'s,
/// computed in `O(server_ops × envelope lines)` independent of the node
/// count. `None` when the envelope outgrows [`MAX_ENVELOPE_LINES`]; the
/// caller falls back to the heap.
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
/// response/tail time, and the peak queue depth is exactly the cold node
/// count: from the first pop until the first node retires, every node
/// keeps one outstanding request in the calendar.
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
/// it (its huge gap lets node 0 lap the stragglers), and then the guard
/// declines and the heap replays the schedule. A single cold node is
/// always round-major.
fn closed_form(stream: &ClassifiedStream, cfg: &LaunchConfig) -> Option<u64> {
    let segs = &stream.segments;
    let (half_rtt, last) = (cfg.rtt_ns / 2, lane_last(cfg));
    // The envelope: D(i, round) = max over lines of (c + i·slope), for
    // lane-local node index i in [0, last]. Round 0: every node arrives at
    // a₀ = pre_local₀ + rtt/2 and is served back to back — the single line
    // a₀ + (i+1)·s₀. Two buffers swap roles per round, so the whole
    // recursion allocates twice, total.
    let mut lines: Vec<(u64, u64)> = Vec::with_capacity(8);
    let mut scratch: Vec<(u64, u64)> = Vec::with_capacity(8);
    lines.push((segs[0].pre_local_ns + half_rtt + segs[0].service_ns, segs[0].service_ns));
    for j in 1..segs.len() {
        let (s, g_prev) = (segs[j].service_ns, seg_gap(segs, half_rtt, j - 1));
        if !envelope_round(&mut lines, &mut scratch, s, g_prev, last) {
            return None;
        }
    }
    // The slowest node's completion, plus the response trip and the
    // stream's tail compute.
    let served_last = lines.iter().map(|&(c, m)| c + last * m).max().expect("nonempty");
    Some(served_last + half_rtt + segs[segs.len() - 1].client_extra_ns + stream.tail_local_ns)
}

/// The last node index of `cfg`'s busiest lane, `ceil(cold / S) − 1`: the
/// fleet [`closed_form`] solves for `cfg` (S = 1 is the whole cold fleet).
fn lane_last(cfg: &LaunchConfig) -> u64 {
    (cfg.cold_nodes().div_ceil(cfg.topology.servers.max(1)) - 1) as u64
}

/// Gap between finishing server op `j` and arriving for op `j + 1`,
/// exactly as the heap accumulates it (half_rtt twice, not rtt once:
/// integer halving must round the same way).
fn seg_gap(segs: &[ServerSeg], half_rtt: u64, j: usize) -> u64 {
    2 * half_rtt + segs[j].client_extra_ns + segs[j + 1].pre_local_ns
}

/// The round-major guard of `closed_form`, node-count independent for any
/// fleet of two or more cold nodes: every consecutive segment pair must
/// satisfy `s_k + gap_k > gap_{k-1}`.
pub(crate) fn round_major(segs: &[ServerSeg], half_rtt: u64) -> bool {
    let mut prev_gap = 0u64;
    for (j, seg) in segs[..segs.len() - 1].iter().enumerate() {
        let g = seg_gap(segs, half_rtt, j);
        if seg.service_ns + g <= prev_gap {
            return false;
        }
        prev_gap = g;
    }
    true
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
    //! which mirrors `super::heap_schedule_faulty` semantics (stall
    //! windows, loss/retry with the same drawn service and an unadvanced
    //! cursor, straggler membership) from the same FAULT-domain streams;
    //! under [`ServiceDistribution::Deterministic`] with
    //! [`FaultModel::None`] no generator is constructed and the walk is
    //! the original, verbatim. The server fleet is the shared
    //! `ServerLanes`: the same per-lane busy clocks and routing picker
    //! as the fast path, degenerating to the single busy cell at `S = 1`.

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
        // under RpcLoss) — exactly heap_schedule_faulty's discipline.
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

        let mut lanes = ServerLanes::new(cfg);
        let mut peak_queue_depth = 0usize;
        while let Some(Reverse((arrival, i, svc, extra))) = heap.pop() {
            peak_queue_depth = peak_queue_depth.max(heap.len() + 1);
            let lane = lanes.pick(i);
            let mut start = lanes.busy_ns[lane].max(arrival);
            if let FaultModel::ServerStall { at_ns, duration_ns } = fault {
                let end = at_ns.saturating_add(duration_ns);
                if start >= at_ns && start < end {
                    start = end;
                }
            }
            let done = start + svc;
            lanes.busy_ns[lane] = done;
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
            timeouts_hit: counts.timeouts,
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

    #[test]
    #[should_panic(expected = "different latency calibration")]
    fn distribution_mismatch_is_rejected() {
        // A stream classified for the deterministic model must not be
        // replayed as a stochastic one without reclassifying.
        let ops = stream(10, 0);
        let classified = ClassifiedStream::classify(&ops, &fast_cfg());
        let jittered = fast_cfg().with_service_dist(ServiceDistribution::uniform_jitter(0.1));
        simulate_classified(&classified, &jittered);
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

    #[test]
    fn closed_form_matches_the_heap_bit_for_bit_whenever_it_engages() {
        // The in-module ground truth: whenever the round-major guard admits
        // a stream, the envelope recursion must reproduce the heap's
        // (slowest finish, peak queue depth) exactly — same tie-breaks,
        // same integer halving. Random streams exercise both guard
        // verdicts; the uniform metadata stream must always engage.
        let mut engaged = 0;
        for seed in 0..40u64 {
            let ops = random_stream(seed, (seed % 60) as usize + 1);
            for ranks in [1usize, 128, 2048, 8192] {
                let cfg = fast_cfg().with_ranks(ranks);
                let classified = ClassifiedStream::classify(&ops, &cfg);
                if classified.segments.is_empty() {
                    continue;
                }
                if let Some(analytic) = analytic_all_cold(&classified, &cfg) {
                    engaged += 1;
                    let heap = scatter(&classified, &cfg, heap_kernel(&classified, &cfg));
                    assert_eq!(analytic, heap, "seed={seed} ranks={ranks}");
                }
            }
        }
        assert!(engaged > 20, "the guard admitted only {engaged} cases — generator too hostile");
        for ranks in [1usize, 512, 16 * 1024] {
            let cfg = fast_cfg().with_ranks(ranks);
            let classified = ClassifiedStream::classify(&stream(200, 50), &cfg);
            assert!(
                analytic_all_cold(&classified, &cfg).is_some(),
                "uniform cold metadata streams are always round-major"
            );
        }
    }

    #[test]
    fn analytic_all_cold_is_simulate_classified_when_it_engages() {
        for (nc, nw) in [(1usize, 0usize), (100, 0), (37, 63), (1, 499), (200, 50)] {
            let ops = stream(nc, nw);
            for ranks in [1usize, 128, 2048] {
                let cfg = fast_cfg().with_ranks(ranks);
                let classified = ClassifiedStream::classify(&ops, &cfg);
                let analytic = analytic_all_cold(&classified, &cfg)
                    .expect("uniform streams engage the closed form");
                assert_eq!(analytic, simulate_classified(&classified, &cfg));
                assert_eq!(analytic, simulate_launch_reference(&ops, &cfg));
                assert_eq!(analytic.peak_queue_depth, cfg.nodes(), "every cold node queues");
            }
        }
    }

    #[test]
    fn analytic_declines_what_it_cannot_prove() {
        // A payload-heavy read's huge client gap followed by a bare stat
        // breaks round-major ordering for a multi-node fleet: node 0 laps
        // the stragglers. The closed form must decline (and the heap keep
        // the result exact) — yet a single cold node is always admitted.
        let mut ops = StraceLog::new();
        ops.push(Syscall::new(Op::Read, "/data/big", Outcome::Ok, 4_000_000));
        for i in 0..10 {
            ops.push(Syscall::new(Op::Stat, &format!("/l/{i}"), Outcome::Enoent, 200_000));
        }
        let multi = fast_cfg().with_ranks(2048);
        let classified = ClassifiedStream::classify(&ops, &multi);
        assert!(analytic_all_cold(&classified, &multi).is_none());
        assert_eq!(
            simulate_classified(&classified, &multi),
            simulate_launch_reference(&ops, &multi),
            "the heap fallback stays exact where the closed form declines"
        );
        let single = fast_cfg().with_ranks(64); // one node
        let classified = ClassifiedStream::classify(&ops, &single);
        assert!(analytic_all_cold(&classified, &single).is_some());

        // Stochastic and broadcast regimes are out of the analytic scope by
        // construction.
        let jitter = fast_cfg()
            .with_ranks(2048)
            .with_service_dist(ServiceDistribution::uniform_jitter(0.25));
        assert!(analytic_all_cold(&ClassifiedStream::classify(&ops, &jitter), &jitter).is_none());
        let mut bcast = fast_cfg().with_ranks(2048);
        bcast.broadcast_cache = true;
        assert!(analytic_all_cold(&ClassifiedStream::classify(&ops, &bcast), &bcast).is_none());
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
        assert_eq!(r, analytic_all_cold(&classified, &cfg).expect("uniform stream engages"));
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
        // The S-lane analytic envelope (per-lane recursion, busiest lane
        // finishes last) against the S-lane heap, wherever the guard
        // admits — including lanes of unequal size (cold % S ≠ 0).
        let mut engaged = 0;
        for seed in 0..20u64 {
            let ops = random_stream(seed, (seed % 40) as usize + 1);
            for servers in [2usize, 3, 8, 16] {
                for ranks in [128usize, 2048, 8192] {
                    let cfg =
                        fast_cfg().with_ranks(ranks).with_topology(ServerTopology::hash(servers));
                    let classified = ClassifiedStream::classify(&ops, &cfg);
                    if classified.segments.is_empty() {
                        continue;
                    }
                    if let Some(analytic) = analytic_all_cold(&classified, &cfg) {
                        engaged += 1;
                        let heap = scatter(&classified, &cfg, heap_kernel(&classified, &cfg));
                        assert_eq!(analytic, heap, "seed={seed} servers={servers} ranks={ranks}");
                    }
                }
            }
        }
        assert!(engaged > 40, "the guard admitted only {engaged} cases — generator too hostile");
    }

    #[test]
    fn least_loaded_is_never_analytic_and_stays_exact() {
        let ops = stream(120, 0);
        let cfg = fast_cfg().with_ranks(2048).with_topology(ServerTopology::least_loaded(4));
        let classified = ClassifiedStream::classify(&ops, &cfg);
        assert!(
            analytic_all_cold(&classified, &cfg).is_none(),
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
        assert_eq!(r, analytic_all_cold(&classified, &cfg).expect("uniform stream engages"));
        assert_eq!(r.peak_queue_depth, 262_144, "the whole fleet still queues at once");
        // Each lane serializes its own 32,768 nodes' ops...
        assert!(r.time_to_launch_ns >= (262_144 / 8) * 500 * cfg.meta_service_ns);
        // ...and 8 lanes beat one by nearly the lane count.
        let one = simulate_launch(&ops, &cfg.clone().with_topology(ServerTopology::single()));
        assert!(r.time_to_launch_ns < one.time_to_launch_ns / 6);
    }
}
