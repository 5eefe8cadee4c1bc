//! Launch-simulation parameters and results.

use depchaos_workloads::SplitMix;

use crate::fault::FaultModel;

/// The metadata server's per-op service-time distribution.
///
/// The paper's Fig 6 model is
/// [`Deterministic`](ServiceDistribution::Deterministic): every op
/// occupies the server for exactly `meta_service_ns`. Real NFS/metadata
/// servers jitter and show heavy tails, so the DES also offers two
/// stochastic models. Both are *mean-preserving* multiplicative factors on
/// the classified service time — the expected server occupancy (and so the
/// asymptotic throughput) matches the deterministic model, only the
/// per-draw spread differs — and both are driven by an explicit
/// [`SplitMix`] stream, so every draw reproduces from `(seed, node,
/// draw index)`.
///
/// Parameters are stored in integer milli-units so the distribution can be
/// part of `Eq + Hash` cache keys ([`crate::ClassifyParams`], scenario
/// specs) without floating-point identity headaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceDistribution {
    /// Exactly `meta_service_ns` per op — the paper's model, and the only
    /// variant the coalesced fast path may take no draws for.
    Deterministic,
    /// Uniform in `[1 − s, 1 + s]` with `s = spread_milli / 1000`:
    /// bounded jitter, as from a lightly shared server.
    UniformJitter { spread_milli: u32 },
    /// `exp(σ·Z − σ²/2)` with `σ = sigma_milli / 1000` and `Z` standard
    /// normal: the heavy-tailed regime (a few ops stall far beyond the
    /// mean), normalised so the factor's expectation is 1.
    LogNormal { sigma_milli: u32 },
}

impl ServiceDistribution {
    /// Uniform jitter with half-width `spread` (fraction of the mean,
    /// `0.0 ≤ spread < 1.0`).
    pub fn uniform_jitter(spread: f64) -> Self {
        assert!((0.0..1.0).contains(&spread), "spread must be in [0, 1): {spread}");
        ServiceDistribution::UniformJitter { spread_milli: (spread * 1000.0).round() as u32 }
    }

    /// Log-normal with shape `sigma` (`sigma ≥ 0`).
    pub fn log_normal(sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be finite and ≥ 0: {sigma}");
        ServiceDistribution::LogNormal { sigma_milli: (sigma * 1000.0).round() as u32 }
    }

    /// The distributions `fig6-dist` compares by default.
    pub fn all() -> [ServiceDistribution; 3] {
        [
            ServiceDistribution::Deterministic,
            ServiceDistribution::uniform_jitter(0.25),
            ServiceDistribution::log_normal(0.5),
        ]
    }

    pub fn is_deterministic(&self) -> bool {
        matches!(self, ServiceDistribution::Deterministic)
    }

    /// Stable display/report/TSV name.
    pub fn name(&self) -> String {
        match self {
            ServiceDistribution::Deterministic => "deterministic".to_string(),
            ServiceDistribution::UniformJitter { spread_milli } => format!("jitter-{spread_milli}"),
            ServiceDistribution::LogNormal { sigma_milli } => format!("lognormal-{sigma_milli}"),
        }
    }

    /// Inverse of [`ServiceDistribution::name`]: `deterministic`,
    /// `jitter-SPREAD_MILLI`, or `lognormal-SIGMA_MILLI` — the spellings
    /// every report and TSV prints, which is what the serve front door
    /// accepts as a `dist` delta. Only those spellings: `parse(s) ==
    /// Some(d)` implies `d.name() == s`.
    pub fn parse(s: &str) -> Option<ServiceDistribution> {
        if s == "deterministic" {
            return Some(ServiceDistribution::Deterministic);
        }
        if let Some(milli) = s.strip_prefix("jitter-") {
            let spread_milli: u32 = canonical_number(milli)?;
            if spread_milli >= 1000 {
                return None;
            }
            return Some(ServiceDistribution::UniformJitter { spread_milli });
        }
        if let Some(milli) = s.strip_prefix("lognormal-") {
            return Some(ServiceDistribution::LogNormal { sigma_milli: canonical_number(milli)? });
        }
        None
    }

    /// One multiplicative service-time factor.
    /// [`Deterministic`](ServiceDistribution::Deterministic) returns 1.0
    /// without touching `rng` — callers on the exact path must not even
    /// construct a generator.
    pub fn sample(&self, rng: &mut SplitMix) -> f64 {
        match *self {
            ServiceDistribution::Deterministic => 1.0,
            ServiceDistribution::UniformJitter { spread_milli } => {
                let s = spread_milli as f64 / 1000.0;
                1.0 + s * (2.0 * rng.unit() - 1.0)
            }
            ServiceDistribution::LogNormal { sigma_milli } => {
                // Box–Muller; `1 - unit()` keeps the log argument in (0, 1].
                let u1 = 1.0 - rng.unit();
                let u2 = rng.unit();
                log_normal_factor(sigma_milli, u1, (std::f64::consts::TAU * u2).cos())
            }
        }
    }
}

/// The log-normal factor `exp(σ·Z − σ²/2)` of the Box–Muller normal
/// `Z = √(−2 ln u₁)·cos(2π·u₂)`, given `u1` and that cosine. The one
/// formula [`ServiceDistribution::sample`] evaluates, and the one the heap
/// kernel's service-time blocks fall back to for the draws their rounding
/// test cannot certify.
#[inline]
pub(crate) fn log_normal_factor(sigma_milli: u32, u1: f64, cos_2pi_u2: f64) -> f64 {
    let sigma = sigma_milli as f64 / 1000.0;
    let z = (-2.0 * u1.ln()).sqrt() * cos_2pi_u2;
    (sigma * z - sigma * sigma / 2.0).exp()
}

/// A name's number segment in its one spelling, `0` or `[1-9][0-9]*`:
/// `str::parse` alone also takes a sign and leading zeros, so two
/// spellings would name one value.
pub(crate) fn canonical_number<T: std::str::FromStr>(s: &str) -> Option<T> {
    let digits = !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if !digits || (s.starts_with('0') && s != "0") {
        return None;
    }
    s.parse().ok()
}

/// How cold-node requests are assigned to the metadata servers of a
/// [`ServerTopology`].
///
/// Both policies are deterministic given the event schedule; neither takes
/// RNG draws, so the topology axis never perturbs the NODE/FAULT stream
/// disciplines (common random numbers hold across topologies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AssignPolicy {
    /// Node `i` always talks to server `i % servers` — seed-free and
    /// schedule-independent (permuting the event order never changes any
    /// node's assignment), which is what admits the analytic all-cold
    /// closed form per lane.
    #[default]
    HashByNode,
    /// Each request goes to a server with the earliest busy-until clock
    /// at the moment the event is served. Which of two equally free
    /// servers takes it changes no clock's value, so ties are unobservable
    /// (the reference oracle breaks them by index). Depends on the event
    /// schedule, so it is never analytic-eligible.
    LeastLoaded,
}

impl AssignPolicy {
    /// Stable display/report/TSV name.
    pub fn name(&self) -> &'static str {
        match self {
            AssignPolicy::HashByNode => "hash",
            AssignPolicy::LeastLoaded => "least",
        }
    }

    /// Inverse of [`AssignPolicy::name`].
    pub fn parse(s: &str) -> Option<AssignPolicy> {
        match s {
            "hash" => Some(AssignPolicy::HashByNode),
            "least" => Some(AssignPolicy::LeastLoaded),
            _ => None,
        }
    }
}

/// The metadata-service fleet: how many servers, and how requests pick one.
///
/// The paper's Fig 6 setup (and this repo through PR 9) hard-coded exactly
/// one FIFO metadata server; `ServerTopology` makes the count a modeled
/// axis. Each server keeps its own busy-until clock ("lane"); requests are
/// routed by [`AssignPolicy`]. `S = 1` is bit-identical to the pre-axis
/// engine for either policy — there is only one lane to pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServerTopology {
    /// Number of independent metadata servers (`≥ 1`).
    pub servers: usize,
    /// Request-to-server assignment policy.
    pub assign: AssignPolicy,
}

impl Default for ServerTopology {
    fn default() -> Self {
        ServerTopology::single()
    }
}

impl ServerTopology {
    /// The classic single-server fleet — the paper's model and the default.
    pub fn single() -> Self {
        ServerTopology { servers: 1, assign: AssignPolicy::HashByNode }
    }

    /// `servers`-way fleet with [`AssignPolicy::HashByNode`] routing.
    pub fn hash(servers: usize) -> Self {
        assert!(servers >= 1, "a topology needs at least one server");
        ServerTopology { servers, assign: AssignPolicy::HashByNode }
    }

    /// `servers`-way fleet with [`AssignPolicy::LeastLoaded`] routing.
    pub fn least_loaded(servers: usize) -> Self {
        assert!(servers >= 1, "a topology needs at least one server");
        ServerTopology { servers, assign: AssignPolicy::LeastLoaded }
    }

    /// True for the default one-server fleet (any policy — with a single
    /// lane the assignment policy cannot matter).
    pub fn is_single(&self) -> bool {
        self.servers <= 1
    }

    /// Stable display/report/TSV name: `servers-S-POLICY`.
    pub fn name(&self) -> String {
        format!("servers-{}-{}", self.servers, self.assign.name())
    }

    /// Inverse of [`ServerTopology::name`]: `servers-S-hash` or
    /// `servers-S-least` with `S ≥ 1`, spelled as `name` spells it.
    pub fn parse(s: &str) -> Option<ServerTopology> {
        let rest = s.strip_prefix("servers-")?;
        let (count, policy) = rest.split_once('-')?;
        let servers: usize = canonical_number(count)?;
        if servers < 1 {
            return None;
        }
        Some(ServerTopology { servers, assign: AssignPolicy::parse(policy)? })
    }
}

/// Cluster and filesystem parameters for one launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchConfig {
    /// Total MPI ranks.
    pub ranks: usize,
    /// Ranks per node (the paper's smallest point is 512 ranks on 4 nodes).
    pub ranks_per_node: usize,
    /// Client↔server round-trip time for one metadata op.
    pub rtt_ns: u64,
    /// Server-side service time per metadata op (1/throughput).
    pub meta_service_ns: u64,
    /// Client-local cost of a warm (cached) op.
    pub warm_ns: u64,
    /// Fixed application startup cost outside the loader (MPI init, python
    /// imports) — paid by wrapped and unwrapped runs alike.
    pub base_overhead_ns: u64,
    /// Per-rank serialized startup cost within a node (process spawn).
    pub per_rank_overhead_ns: u64,
    /// Spindle-style broadcast cache: only one node pays the cold stream,
    /// the rest replay warm (ablation of the paper's "combining Shrinkwrap
    /// with an approach like Spindle" remark).
    pub broadcast_cache: bool,
    /// Per-op server service-time distribution.
    /// [`Deterministic`](ServiceDistribution::Deterministic) reproduces the
    /// paper's FIFO model bit for bit; the stochastic variants draw one
    /// factor per (cold node, server op) from
    /// [`SplitMix::split`]`(seed, SplitMix::NODE, node)`.
    pub service_dist: ServiceDistribution,
    /// Base RNG seed for stochastic service draws. Ignored (no draws occur)
    /// under [`ServiceDistribution::Deterministic`] with a draw-free
    /// [`FaultModel`].
    pub seed: u64,
    /// Fault-injection model (server brownouts, RPC loss/retry, stragglers).
    /// [`FaultModel::None`] reproduces the healthy-server engine bit for
    /// bit; the draw-taking variants pull from the dedicated
    /// [`SplitMix::FAULT`] stream domain so they never perturb service
    /// draws (common random numbers across fault/no-fault pairs).
    pub fault: FaultModel,
    /// Metadata-server fleet shape. The default single-server topology
    /// reproduces the pre-axis engine bit for bit; `S > 1` gives each
    /// server its own busy-until lane in every engine regime.
    pub topology: ServerTopology,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            ranks: 512,
            ranks_per_node: 128,
            rtt_ns: 200_000,         // 200 µs NFS round trip
            meta_service_ns: 50_000, // 20k metadata ops/s server
            warm_ns: 1_000,
            base_overhead_ns: 25_000_000_000, // 25 s of MPI/python startup
            per_rank_overhead_ns: 10_000_000, // 10 ms per rank, serial per node
            broadcast_cache: false,
            service_dist: ServiceDistribution::Deterministic,
            seed: 0xD15_7A5ED, // "dist-based" — any fixed value works
            fault: FaultModel::None,
            topology: ServerTopology::single(),
        }
    }
}

impl LaunchConfig {
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }

    pub fn with_service_dist(mut self, dist: ServiceDistribution) -> Self {
        self.service_dist = dist;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_fault(mut self, fault: FaultModel) -> Self {
        self.fault = fault;
        self
    }

    pub fn with_topology(mut self, topology: ServerTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Number of nodes (ceil division).
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.ranks_per_node).max(1)
    }

    /// Nodes that pay the cold op stream: all of them, or only node 0
    /// under a broadcast cache (the others replay warm).
    pub fn cold_nodes(&self) -> usize {
        if self.broadcast_cache {
            1
        } else {
            self.nodes()
        }
    }

    /// Whether a launch under this config takes any RNG draw: a stochastic
    /// service distribution or a draw-taking fault model. The one
    /// definition the engine, the sweeps and the serve cache key share —
    /// a config that takes no draws simulates identically under every
    /// seed.
    pub fn takes_draws(&self) -> bool {
        !self.service_dist.is_deterministic() || self.fault.takes_draws()
    }

    /// The replicate count a sweep of this config runs when `requested`
    /// are asked for: at least one, and exactly one when the config takes
    /// no draws — extra replicates could only repeat the same value.
    pub fn effective_replicates(&self, requested: usize) -> usize {
        if self.takes_draws() {
            requested.max(1)
        } else {
            1
        }
    }
}

/// Outcome of one simulated launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaunchResult {
    /// Wall time until every rank finished loading.
    pub time_to_launch_ns: u64,
    pub nodes: usize,
    /// Cold metadata/data ops that reached the server, totalled over nodes.
    pub server_ops: u64,
    /// Ops absorbed by client caches.
    pub local_ops: u64,
    /// Peak simulated server queue depth (contention indicator).
    pub peak_queue_depth: usize,
    /// RPC attempts re-issued after a lost response
    /// ([`FaultModel::RpcLoss`]); zero otherwise.
    pub retries_issued: u64,
    /// Client timeouts that fired waiting on a lost response.
    pub timeouts_hit: u64,
    /// Longest single exponential-backoff wait any client slept.
    pub max_backoff_ns: u64,
    /// Cold nodes the straggler draw slowed ([`FaultModel::Stragglers`]).
    pub slowed_nodes: usize,
}

impl LaunchResult {
    pub fn seconds(&self) -> f64 {
        self.time_to_launch_ns as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_rounding() {
        assert_eq!(LaunchConfig::default().with_ranks(512).nodes(), 4);
        assert_eq!(LaunchConfig::default().with_ranks(513).nodes(), 5);
        assert_eq!(LaunchConfig::default().with_ranks(1).nodes(), 1);
    }

    #[test]
    fn defaults_match_paper_testbed_scale() {
        let c = LaunchConfig::default();
        assert_eq!(c.ranks, 512);
        assert_eq!(c.nodes(), 4);
        assert!(!c.broadcast_cache);
        assert!(c.service_dist.is_deterministic(), "the paper's model is the default");
        assert!(c.topology.is_single(), "one metadata server is the paper's model");
    }

    #[test]
    fn jitter_factors_are_bounded_and_centered() {
        let dist = ServiceDistribution::uniform_jitter(0.25);
        let mut rng = SplitMix::new(3);
        let mut sum = 0.0;
        for _ in 0..4000 {
            let f = dist.sample(&mut rng);
            assert!((0.75..=1.25).contains(&f), "factor out of band: {f}");
            sum += f;
        }
        let mean = sum / 4000.0;
        assert!((mean - 1.0).abs() < 0.01, "jitter is mean-preserving: {mean}");
    }

    #[test]
    fn log_normal_is_mean_preserving_with_a_heavy_tail() {
        let dist = ServiceDistribution::log_normal(0.5);
        let mut rng = SplitMix::new(4);
        let n = 200_000;
        let (mut sum, mut above_double) = (0.0, 0usize);
        for _ in 0..n {
            let f = dist.sample(&mut rng);
            assert!(f > 0.0);
            sum += f;
            if f > 2.0 {
                above_double += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "σ-corrected log-normal has mean 1: {mean}");
        assert!(above_double > 0, "the tail reaches past 2× the mean");
    }

    #[test]
    fn distribution_names_are_stable() {
        assert_eq!(ServiceDistribution::Deterministic.name(), "deterministic");
        assert_eq!(ServiceDistribution::uniform_jitter(0.25).name(), "jitter-250");
        assert_eq!(ServiceDistribution::log_normal(0.5).name(), "lognormal-500");
    }

    #[test]
    fn topology_names_round_trip_and_default_is_single() {
        let def = ServerTopology::default();
        assert!(def.is_single());
        assert_eq!(def, ServerTopology::single());
        for top in
            [ServerTopology::single(), ServerTopology::hash(4), ServerTopology::least_loaded(16)]
        {
            assert_eq!(ServerTopology::parse(&top.name()), Some(top), "{}", top.name());
        }
        assert_eq!(ServerTopology::hash(4).name(), "servers-4-hash");
        assert_eq!(ServerTopology::least_loaded(8).name(), "servers-8-least");
        assert_eq!(ServerTopology::parse("servers-0-hash"), None);
        assert_eq!(ServerTopology::parse("servers-4-random"), None);
        assert_eq!(ServerTopology::parse("4-hash"), None);
    }

    #[test]
    fn sampling_reproduces_per_seed() {
        for dist in ServiceDistribution::all() {
            let mut a = SplitMix::split(9, SplitMix::NODE, 2);
            let mut b = SplitMix::split(9, SplitMix::NODE, 2);
            for _ in 0..50 {
                assert_eq!(dist.sample(&mut a).to_bits(), dist.sample(&mut b).to_bits());
            }
        }
    }
}
