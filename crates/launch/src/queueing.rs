//! M/G/k queueing-theory cross-checks for the stochastic DES.
//!
//! The DES is trusted because it is bit-identical to a slow reference
//! implementation — but both could share a modelling bug. This module
//! derives what queueing theory says the simulated launch *must* look like,
//! straight from the [`ClassifiedStream`] and the
//! [`ServiceDistribution`]'s closed-form moments, and
//! [`validate_against_mg1`] flags any sweep cell whose replicate mean
//! escapes the envelope. Three layers, from descriptive to binding:
//!
//! * **Moments**: the server's per-op service time is
//!   a classified base time scaled by a mean-one factor `F`, so `E[S] =
//!   mean(sₖ)` and `E[S²] = mean(sₖ²)·E[F²]`, with `E[F²]` closed-form per
//!   distribution — `1` (deterministic), `1 + spread²/3` (uniform jitter on
//!   `[1−spread, 1+spread]`), `exp(σ²)` (mean-one log-normal).
//! * **M/G/k descriptors**: treating each cold node's replay as the arrival
//!   process (one op per `free-replay/K` nanoseconds, `N` nodes) offered to
//!   the `S`-server fleet of [`ServerTopology`](crate::ServerTopology),
//!   the utilisation is
//!   `ρ = λ·E[S]/S = N·ΣS / (S · free-replay)` and the mean wait is
//!   Pollaczek–Khinchine `W = λ·E[S²] / 2(1−ρ)` for `S = 1`, and the
//!   Lee–Longton M/G/k approximation `W ≈ (1 + c²)/2 · W_{M/M/k}` for
//!   `S > 1` — the M/M/k wait built from the [`erlang_c`] delay
//!   probability, scaled by the service-time variability `c² =
//!   E[S²]/E[S]² − 1` (for `k = 1` the two expressions coincide exactly,
//!   so the single-server descriptor is unchanged). Both are infinite once
//!   the offered load saturates the fleet (`ρ ≥ 1`), which is exactly the
//!   contended regime the paper's Fig 6 lives in.
//! * **Bounds** ([`Mg1Bounds::lower_ns`] / [`Mg1Bounds::upper_ns`]): hard
//!   envelope on the *mean* launch time, rigorous for the DES's work
//!   conserving FIFO servers rather than asymptotic:
//!   - lower: the slower of a node's own unimpeded replay and the fleet's
//!     capacity (plus the last response's return path) — no schedule can
//!     beat either. Under [`AssignPolicy::HashByNode`] the lanes are
//!     independent single-server systems, so the floor is the busiest
//!     lane's serial work `⌈N/S⌉·K` ops; under
//!     [`AssignPolicy::LeastLoaded`] the fleet pools, so the floor is the
//!     work-conservation bound `N·K/S` ops (all `N·K` services must fit
//!     into `S` lanes between the first arrival and the last completion);
//!   - upper: a node's own replay plus the other nodes' server work that
//!     can stand in front of it — in a work-conserving FIFO lane each
//!     foreign op delays a node at most once, and under `HashByNode` only
//!     the node's own lane (`⌈N/S⌉ − 1` foreign replays) can hold its
//!     requests. A `LeastLoaded` fleet with `S > 1` routes each request by
//!     global state, so no per-lane accounting applies and the upper bound
//!     is forfeited (`u64::MAX`), exactly as under a fault model.
//!
//!   Under a stochastic distribution the drawn service `clamp(⌊sₖ·F⌋)`
//!   rounds toward zero and clamps to at least 1 ns, so the bounds carry a
//!   ±1 ns-per-draw allowance, and [`validate_against_mg1`] adds a
//!   `6σ/√draws` relative slack for the sampling noise of a finite
//!   replicate set. A distribution whose tail reaches the service clamp
//!   (log-normal `σ > 2`) truncates its own mean unboundedly; such cells
//!   are marked inapplicable instead of mis-flagged.
//!
//! # Fault injection
//!
//! Under a [`FaultModel`] the envelope degrades
//! asymmetrically. The *capacity lower bound stays rigorous* — stalls and
//! backoffs only add wait, retries only add server work, and a straggler
//! slowdown (`slow ≥ 1×`) only lengthens services, so no faulted schedule
//! can beat the healthy serial-capacity floor. The *upper bound is
//! forfeited* (`upper_ns = u64::MAX`): stall windows and retry backoff
//! waits are not work the work-conservation argument covers. The offered
//! load descriptors are retry-aware — `RpcLoss` multiplies the
//! utilisation and P-K arrival rate by `1/(1 − loss)`, every attempt
//! being independent server work. A straggler model with `slow < 1×`
//! (nodes sped *up*) would undercut the healthy floor, so such cells are
//! marked inapplicable.

use crate::config::{AssignPolicy, LaunchConfig, ServiceDistribution};
use crate::des::ClassifiedStream;
use crate::fault::FaultModel;
use crate::sweep::LaunchStats;

/// `E[F²]` of the mean-one service factor, closed-form per distribution.
pub fn factor_second_moment(dist: ServiceDistribution) -> f64 {
    match dist {
        ServiceDistribution::Deterministic => 1.0,
        ServiceDistribution::UniformJitter { spread_milli } => {
            let s = spread_milli as f64 / 1000.0;
            1.0 + s * s / 3.0
        }
        ServiceDistribution::LogNormal { sigma_milli } => {
            let sigma = sigma_milli as f64 / 1000.0;
            (sigma * sigma).exp()
        }
    }
}

/// Erlang-C: the probability that an arriving request must wait in an
/// M/M/k system with `servers` servers at offered load `a = λ·E[S]`
/// erlangs (requires `a < servers`; `servers ≥ 1`).
///
/// `C(k, a) = (aᵏ/k!) / ((1 − a/k)·Σₙ₌₀^{k−1} aⁿ/n! + aᵏ/k!)`, computed
/// with the usual running-term recurrence. For `k = 1` this is exactly
/// `a` (= ρ), which is what makes the Lee–Longton M/G/k wait collapse to
/// Pollaczek–Khinchine at a single server.
pub fn erlang_c(servers: usize, offered_load: f64) -> f64 {
    debug_assert!(servers >= 1);
    debug_assert!(offered_load < servers as f64);
    let mut term = 1.0; // aⁿ/n!, starting at n = 0
    let mut below = 0.0; // Σₙ₌₀^{k−1} aⁿ/n!
    for n in 0..servers {
        below += term;
        term *= offered_load / (n as f64 + 1.0);
    }
    // term is now aᵏ/k!.
    let rho = offered_load / servers as f64;
    let waiting = term / (1.0 - rho);
    waiting / (below + waiting)
}

/// The queueing-theory envelope for one (stream, config) cell at one rank
/// point: M/G/k descriptors plus hard mean-launch bounds. (The name keeps
/// the historical `Mg1` prefix from when the model was single-server; the
/// `servers` field says which fleet the bounds were computed for.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mg1Bounds {
    pub ranks: usize,
    pub cold_nodes: usize,
    /// Server round trips per cold replay (the stream's `K`).
    pub server_ops_per_node: u64,
    /// The metadata-fleet size `S` from [`crate::ServerTopology`] the
    /// envelope was derived for (1 = the paper's single server).
    pub servers: usize,
    /// Offered utilisation `ρ = λ·E[S]/S = N·ΣS / (S · free-replay)`,
    /// multiplied by the retry amplification `1/(1 − loss)` under
    /// [`FaultModel::RpcLoss`]; values ≥ 1 mean the cold fleet saturates
    /// the fleet (the contended regime).
    pub utilisation: f64,
    /// Mean wait per op at the offered load — Pollaczek–Khinchine for
    /// `S = 1`, the Lee–Longton M/G/k approximation (Erlang-C delay
    /// probability scaled by the service variability) for `S > 1`;
    /// `f64::INFINITY` once saturated.
    pub mean_wait_ns: f64,
    /// Hard lower bound on the mean launch time — still rigorous under
    /// every fault model (faults add wait and work, never remove any) and
    /// every topology (busiest hash lane, or the fleet-wide
    /// work-conservation floor under least-loaded routing).
    pub lower_ns: u64,
    /// Hard upper bound on the mean launch time; `u64::MAX` under a
    /// non-`None` fault model (stall and backoff waits escape the
    /// work-conservation argument) or a multi-server
    /// [`AssignPolicy::LeastLoaded`] fleet (globally routed requests
    /// escape the per-lane accounting).
    pub upper_ns: u64,
    /// Squared coefficient of variation of the service factor
    /// (`E[F²] − 1`).
    pub factor_cv2: f64,
    /// Standard deviation of one replicate's **total drawn server work**,
    /// `√(cv² · N · Σsₖ²)` — the sampling-slack scale for validation. The
    /// per-segment second moment matters: a stream dominated by a few large
    /// read services fluctuates like its big ops, not like `√(N·K)`
    /// interchangeable draws.
    pub work_sd_ns: f64,
    /// Whether the bounds are trustworthy for this distribution: a
    /// log-normal with `σ > 2` reaches the DES's service clamp and
    /// truncates its own mean, so the envelope would mis-flag it.
    pub applicable: bool,
}

/// Compute the envelope for `stream` under `cfg` (whose rank count selects
/// the point). Panics, like [`crate::simulate_classified`], when `cfg`'s
/// calibration differs from the one the stream was classified under.
pub fn mg1_bounds(stream: &ClassifiedStream, cfg: &LaunchConfig) -> Mg1Bounds {
    stream.check_calibration(cfg);
    let nodes = cfg.nodes();
    let cold = cfg.cold_nodes() as u64;
    let warm_done = if (nodes as u64) > cold { stream.warm_replay_ns() as u128 } else { 0 };
    let overhead = cfg.base_overhead_ns as u128
        + cfg.per_rank_overhead_ns as u128 * cfg.ranks_per_node.min(cfg.ranks) as u128;
    let dist = cfg.service_dist;
    let applicable = match dist {
        ServiceDistribution::LogNormal { sigma_milli } => sigma_milli <= 2000,
        _ => true,
    } && match cfg.fault {
        // A straggler *speed-up* would undercut the healthy capacity
        // floor; genuine slowdowns keep every bound argument intact.
        FaultModel::Stragglers { slow_milli, .. } => slow_milli >= 1000,
        _ => true,
    };
    let cv2 = factor_second_moment(dist) - 1.0;
    let amp = cfg.fault.load_amplification();
    let servers = cfg.topology.servers.max(1);

    let segs = stream.server_segments();
    let k = segs.len() as u64;
    if k == 0 {
        // No server traffic: the launch is exact whatever the distribution.
        let exact = overhead + (stream.local_total_ns() as u128).max(warm_done);
        let exact = exact.min(u64::MAX as u128) as u64;
        return Mg1Bounds {
            ranks: cfg.ranks,
            cold_nodes: cold as usize,
            server_ops_per_node: 0,
            servers,
            utilisation: 0.0,
            mean_wait_ns: 0.0,
            lower_ns: exact,
            upper_ns: exact,
            factor_cv2: cv2,
            work_sd_ns: 0.0,
            applicable,
        };
    }

    let half_rtt = cfg.rtt_ns as u128 / 2;
    // Every sum over the schedule, in one pass: the service total and its
    // squares, exact in u128 and in f64 in schedule order, and one
    // unimpeded cold replay — every pre-local, both half-RTTs, the service
    // itself, and the client-side payload time, plus the tail.
    let (mut service_total, mut service_sq, mut service_sq_f64) = (0u128, 0u128, 0f64);
    let mut free = stream.tail_local() as u128;
    for s in segs {
        let service = s.service_ns as u128;
        service_total += service;
        service_sq += service * service;
        service_sq_f64 += (s.service_ns as f64).powi(2);
        free += s.pre_local_ns as u128 + 2 * half_rtt + service + s.client_extra_ns as u128;
    }
    let first_arrival = segs[0].pre_local_ns as u128 + half_rtt;
    let return_path =
        half_rtt + segs[k as usize - 1].client_extra_ns as u128 + stream.tail_local() as u128;

    // ±1 ns per draw: the DES floors each drawn service toward zero (lower
    // allowance) and clamps it up to at least 1 ns (upper allowance). No
    // draws occur under the deterministic model.
    let draw_slack = |per: u128| if dist.is_deterministic() { 0 } else { per };
    // Capacity floor per routing policy. Hash-routed lanes are independent
    // single-server systems (node `i` only ever talks to lane `i mod S`),
    // so the busiest lane — ⌈N/S⌉ cold replays — must serve all its work
    // serially. A least-loaded fleet pools: all N·K services still have to
    // fit into S lanes between the first arrival and the last completion,
    // so the floor is the total work divided by S (rounded down — safe for
    // a lower bound).
    let lane_cold = (cold as u128).div_ceil(servers as u128);
    let capacity_work = match cfg.topology.assign {
        AssignPolicy::HashByNode => lane_cold * service_total,
        AssignPolicy::LeastLoaded => cold as u128 * service_total / servers as u128,
    };
    let lower_free = free.saturating_sub(draw_slack(k as u128));
    let lower_capacity = (first_arrival + capacity_work + return_path)
        .saturating_sub(draw_slack(cold as u128 * k as u128));
    let lower_cold = lower_free.max(lower_capacity);
    // Per-lane work conservation: under hash routing only the ⌈N/S⌉ − 1
    // other replays sharing the node's lane can ever stand in front of it
    // (for S = 1 that is all N − 1, the classic single-server bound). A
    // multi-server least-loaded fleet routes by global state, so no
    // per-lane accounting holds and the upper bound is forfeited below.
    let upper_forfeit = servers > 1 && cfg.topology.assign == AssignPolicy::LeastLoaded;
    let upper_cold = free + (lane_cold - 1) * service_total + draw_slack(cold as u128 * k as u128);

    let lower = overhead + lower_cold.max(warm_done);
    let upper = overhead + upper_cold.max(warm_done);

    // Descriptors: each cold node offers one op per free/K nanoseconds —
    // times the retry amplification, every lost attempt being independent
    // server work — to a fleet of S servers, so ρ = λ·E[S]/S. A degenerate
    // all-zero-cost calibration (free = 0) is instantaneous arrivals of
    // zero-length ops: report it as saturated rather than NaN (total RPC
    // loss likewise amplifies to saturation).
    let utilisation = if free > 0 {
        let rho = cold as f64 * service_total as f64 / (servers as f64 * free as f64) * amp;
        if rho.is_nan() {
            f64::INFINITY
        } else {
            rho
        }
    } else {
        f64::INFINITY
    };
    // E[S] = mean(sₖ) and E[S²] = mean(sₖ²)·E[F²].
    let mean = service_total as f64 / k as f64;
    let second_moment = service_sq as f64 / k as f64 * factor_second_moment(dist);
    let mean_wait_ns = if utilisation < 1.0 {
        let lambda = cold as f64 * k as f64 / free as f64 * amp;
        if servers == 1 {
            // Pollaczek–Khinchine, exact-form M/G/1.
            lambda * second_moment / (2.0 * (1.0 - utilisation))
        } else {
            // Lee–Longton M/G/k: the M/M/k wait (Erlang-C delay
            // probability over the spare capacity) scaled by the
            // service-time variability (1 + c²)/2. Collapses to the
            // branch above at k = 1, kept separate so single-server
            // descriptors stay bit-identical to the pre-topology code.
            let offered = lambda * mean; // erlangs; < servers since ρ < 1
            let service_cv2 = second_moment / (mean * mean) - 1.0;
            let w_mmk = erlang_c(servers, offered) * mean / (servers as f64 - offered);
            (1.0 + service_cv2) / 2.0 * w_mmk
        }
    } else {
        f64::INFINITY
    };

    // Any fault forfeits the work-conservation upper bound: stall windows
    // and retry backoffs are waits no foreign-op accounting covers. So
    // does least-loaded multi-server routing. The capacity lower bound
    // stands in every case.
    let upper = if cfg.fault.is_none() && !upper_forfeit {
        upper.min(u64::MAX as u128) as u64
    } else {
        u64::MAX
    };

    Mg1Bounds {
        ranks: cfg.ranks,
        cold_nodes: cold as usize,
        server_ops_per_node: k,
        servers,
        utilisation,
        mean_wait_ns,
        lower_ns: lower.min(u64::MAX as u128) as u64,
        upper_ns: upper,
        factor_cv2: cv2,
        work_sd_ns: (cv2 * cold as f64 * service_sq_f64).sqrt(),
        applicable,
    }
}

/// One cell's verdict: the envelope, what the DES replicates actually
/// averaged, and whether that mean sits inside the (slack-widened) bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueingCheck {
    pub bounds: Mg1Bounds,
    pub observed_mean_ns: u64,
    /// The absolute sampling slack applied (`6·work_sd/√replicates`, 0 when
    /// the factor is deterministic).
    pub slack_ns: f64,
    pub within: bool,
}

/// Check a replicate summary against the envelope. The bounds constrain the
/// *true* mean; a finite replicate sample fluctuates around it with a
/// standard error of at most [`Mg1Bounds::work_sd_ns`]`/√replicates` (the
/// launch time moves at most one-for-one with the total drawn server work,
/// in either regime), so the comparison widens the envelope by six of those
/// standard errors — tight enough to catch a modelling bug (which shifts
/// the mean by whole service quanta), loose enough never to flag honest
/// noise. Inapplicable bounds (see [`Mg1Bounds::applicable`]) always pass.
pub fn validate_against_mg1(bounds: &Mg1Bounds, stats: &LaunchStats) -> QueueingCheck {
    let slack_ns = 6.0 * bounds.work_sd_ns / (stats.replicates.max(1) as f64).sqrt();
    let mean = stats.mean_ns as f64;
    let within = !bounds.applicable
        || (mean >= bounds.lower_ns as f64 - slack_ns - 0.5
            && mean <= bounds.upper_ns as f64 + slack_ns + 0.5);
    QueueingCheck { bounds: *bounds, observed_mean_ns: stats.mean_ns, slack_ns, within }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{replicate_rank_points, AdaptiveControl};
    use crate::des::simulate_classified;
    use crate::sweep::LaunchStats;
    use depchaos_vfs::{Op, Outcome, StraceLog, Syscall};

    fn cold_stream(n: usize) -> StraceLog {
        let mut log = StraceLog::new();
        for i in 0..n {
            log.push(Syscall::new(Op::Openat, &format!("/l/{i}"), Outcome::Enoent, 200_000));
        }
        log
    }

    fn fast_cfg() -> LaunchConfig {
        LaunchConfig { base_overhead_ns: 0, per_rank_overhead_ns: 0, ..LaunchConfig::default() }
    }

    #[test]
    fn factor_second_moments_are_the_closed_forms() {
        assert_eq!(factor_second_moment(ServiceDistribution::Deterministic), 1.0);
        let jitter = factor_second_moment(ServiceDistribution::uniform_jitter(0.25));
        assert!((jitter - (1.0 + 0.0625 / 3.0)).abs() < 1e-12);
        let ln = factor_second_moment(ServiceDistribution::log_normal(0.5));
        assert!((ln - 0.25f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn second_moments_match_empirical_sampling() {
        use depchaos_workloads::SplitMix;
        for dist in ServiceDistribution::all() {
            let mut rng = SplitMix::new(17);
            let n = 200_000;
            let mut sum_sq = 0.0;
            for _ in 0..n {
                let f = dist.sample(&mut rng);
                sum_sq += f * f;
            }
            let empirical = sum_sq / n as f64;
            let closed = factor_second_moment(dist);
            assert!(
                (empirical - closed).abs() / closed < 0.02,
                "{}: E[F²] {empirical} vs closed form {closed}",
                dist.name()
            );
        }
    }

    #[test]
    fn deterministic_result_sits_inside_the_envelope() {
        let cfg = fast_cfg();
        let stream = ClassifiedStream::classify(&cold_stream(300), &cfg);
        for ranks in [1usize, 512, 2048, 16 * 1024] {
            let at = cfg.clone().with_ranks(ranks);
            let b = mg1_bounds(&stream, &at);
            let r = simulate_classified(&stream, &at);
            assert!(b.lower_ns <= b.upper_ns);
            assert!(
                (b.lower_ns..=b.upper_ns).contains(&r.time_to_launch_ns),
                "ranks={ranks}: {} outside [{}, {}]",
                r.time_to_launch_ns,
                b.lower_ns,
                b.upper_ns
            );
        }
    }

    #[test]
    fn contended_regime_reports_saturation() {
        let cfg = fast_cfg();
        let stream = ClassifiedStream::classify(&cold_stream(300), &cfg);
        // One node: the server is mostly idle between the node's round
        // trips; P-K wait is finite and small.
        let single = mg1_bounds(&stream, &cfg.clone().with_ranks(128));
        assert!(single.utilisation < 1.0);
        assert!(single.mean_wait_ns.is_finite());
        // 128 cold nodes: service alone (50 µs) dwarfs each node's 250 µs
        // inter-op cycle — deep saturation, infinite open-system wait.
        let fleet = mg1_bounds(&stream, &cfg.clone().with_ranks(16 * 1024));
        assert!(fleet.utilisation > 1.0, "ρ = {}", fleet.utilisation);
        assert!(fleet.mean_wait_ns.is_infinite());
        // And the capacity lower bound dominates: launch grows with N.
        assert!(fleet.lower_ns > single.lower_ns * 10);
    }

    #[test]
    fn stochastic_replicate_means_validate_across_distributions() {
        for dist in ServiceDistribution::all() {
            for seed in [7u64, 42, 0xD15_7A5ED] {
                let cfg = LaunchConfig { seed, ..fast_cfg() }.with_service_dist(dist);
                let stream = ClassifiedStream::classify(&cold_stream(200), &cfg);
                for (cell, reps) in replicate_rank_points(
                    &stream,
                    &cfg,
                    &[512, 2048, 8192],
                    AdaptiveControl::fixed(7),
                ) {
                    let (ranks, stats) = (cell.ranks, LaunchStats::of(&reps));
                    let b = mg1_bounds(&stream, &cell);
                    let check = validate_against_mg1(&b, &stats);
                    assert!(
                        check.within,
                        "{} seed={seed} ranks={ranks}: mean {} outside [{}, {}] (slack {})",
                        dist.name(),
                        check.observed_mean_ns,
                        b.lower_ns,
                        b.upper_ns,
                        check.slack_ns
                    );
                }
            }
        }
    }

    #[test]
    fn a_shifted_mean_is_flagged() {
        // The check must have teeth: a mean below the server's serial
        // capacity (as a lost-contention bug would produce) fails.
        let cfg = fast_cfg().with_service_dist(ServiceDistribution::uniform_jitter(0.25));
        let stream = ClassifiedStream::classify(&cold_stream(200), &cfg);
        let at = cfg.clone().with_ranks(16 * 1024);
        let b = mg1_bounds(&stream, &at);
        let bogus = LaunchStats {
            replicates: 11,
            mean_ns: b.lower_ns / 2,
            p50_ns: b.lower_ns / 2,
            p95_ns: b.lower_ns / 2,
            p99_ns: b.lower_ns / 2,
        };
        assert!(!validate_against_mg1(&b, &bogus).within);
        let above = LaunchStats { mean_ns: b.upper_ns * 2, ..bogus };
        assert!(!validate_against_mg1(&b, &above).within);
    }

    #[test]
    fn clamp_reaching_tails_are_marked_inapplicable() {
        let cfg = fast_cfg().with_service_dist(ServiceDistribution::log_normal(8.0));
        let stream = ClassifiedStream::classify(&cold_stream(50), &cfg);
        let b = mg1_bounds(&stream, &cfg.clone().with_ranks(2048));
        assert!(!b.applicable);
        // Inapplicable bounds never flag — vacuous pass, not a false alarm.
        let anything = LaunchStats { replicates: 5, mean_ns: 1, p50_ns: 1, p95_ns: 1, p99_ns: 1 };
        assert!(validate_against_mg1(&b, &anything).within);
    }

    #[test]
    fn serverless_streams_are_exact() {
        let mut warm = StraceLog::new();
        for i in 0..100 {
            warm.push(Syscall::new(Op::Stat, &format!("/w/{i}"), Outcome::Ok, 1_000));
        }
        let cfg = fast_cfg();
        let stream = ClassifiedStream::classify(&warm, &cfg);
        let at = cfg.clone().with_ranks(2048);
        let b = mg1_bounds(&stream, &at);
        assert_eq!(b.lower_ns, b.upper_ns);
        assert_eq!(b.lower_ns, simulate_classified(&stream, &at).time_to_launch_ns);
        assert_eq!(b.utilisation, 0.0);
    }

    #[test]
    fn rpc_loss_amplifies_offered_load_and_forfeits_the_upper_bound() {
        let cfg = fast_cfg();
        let stream = ClassifiedStream::classify(&cold_stream(200), &cfg);
        let healthy = mg1_bounds(&stream, &cfg.clone().with_ranks(2048));
        let lossy = cfg.clone().with_ranks(2048).with_fault(FaultModel::RpcLoss {
            loss_milli: 200,
            timeout_ns: 1_000_000_000,
            backoff_base_ns: 250_000_000,
            max_retries: 5,
        });
        let b = mg1_bounds(&stream, &lossy);
        // 200‰ loss: every op costs 1/(1 − 0.2) = 1.25 attempts in
        // expectation, and the offered-load descriptors say so.
        assert!((b.utilisation / healthy.utilisation - 1.25).abs() < 1e-12);
        assert_eq!(b.upper_ns, u64::MAX, "faulted cells keep no upper bound");
        assert_eq!(b.lower_ns, healthy.lower_ns, "the capacity floor is unchanged");
        assert!(b.applicable);
        // Total loss saturates rather than NaN-ing.
        let total = cfg.clone().with_ranks(2048).with_fault(FaultModel::RpcLoss {
            loss_milli: 1000,
            timeout_ns: 1_000_000_000,
            backoff_base_ns: 250_000_000,
            max_retries: 5,
        });
        assert!(mg1_bounds(&stream, &total).utilisation.is_infinite());
    }

    #[test]
    fn faulted_results_respect_the_surviving_lower_bound() {
        let faults = [
            FaultModel::ServerStall { at_ns: 2_000_000_000, duration_ns: 10_000_000_000 },
            FaultModel::RpcLoss {
                loss_milli: 100,
                timeout_ns: 1_000_000_000,
                backoff_base_ns: 250_000_000,
                max_retries: 5,
            },
            FaultModel::Stragglers { frac_milli: 100, slow_milli: 4000 },
        ];
        for fault in faults {
            // Deterministic service: one faulted run is the mean, and it
            // may never beat the healthy capacity floor.
            let cfg = fast_cfg().with_fault(fault);
            let stream = ClassifiedStream::classify(&cold_stream(200), &cfg);
            let at = cfg.clone().with_ranks(2048);
            let b = mg1_bounds(&stream, &at);
            assert!(b.applicable, "{fault:?} should stay applicable");
            let r = simulate_classified(&stream, &at);
            assert!(
                r.time_to_launch_ns >= b.lower_ns,
                "{fault:?}: {} beat the capacity floor {}",
                r.time_to_launch_ns,
                b.lower_ns
            );
            // Stochastic services: the bound constrains the true mean, so
            // check replicate means through the sampling-slack validator
            // (the forfeited upper bound makes this a lower-bound check).
            for dist in ServiceDistribution::all() {
                let cfg = fast_cfg().with_service_dist(dist).with_fault(fault);
                let stream = ClassifiedStream::classify(&cold_stream(200), &cfg);
                for (cell, reps) in
                    replicate_rank_points(&stream, &cfg, &[512, 2048], AdaptiveControl::fixed(7))
                {
                    let (ranks, stats) = (cell.ranks, LaunchStats::of(&reps));
                    let b = mg1_bounds(&stream, &cell);
                    let check = validate_against_mg1(&b, &stats);
                    assert!(
                        check.within,
                        "{fault:?} {} ranks={ranks}: mean {} under floor {} (slack {})",
                        dist.name(),
                        check.observed_mean_ns,
                        b.lower_ns,
                        check.slack_ns
                    );
                }
            }
        }
    }

    #[test]
    fn straggler_speedups_are_marked_inapplicable() {
        let cfg =
            fast_cfg().with_fault(FaultModel::Stragglers { frac_milli: 500, slow_milli: 500 });
        let stream = ClassifiedStream::classify(&cold_stream(50), &cfg);
        let b = mg1_bounds(&stream, &cfg.clone().with_ranks(2048));
        assert!(!b.applicable, "sped-up nodes can beat the healthy capacity floor");
    }

    #[test]
    fn erlang_c_matches_the_closed_forms() {
        // k = 1 collapses to ρ itself — the M/M/1 delay probability.
        assert!((erlang_c(1, 0.6) - 0.6).abs() < 1e-12);
        // M/M/2 at ρ = 0.5: C = 1/3 (textbook value).
        assert!((erlang_c(2, 1.0) - 1.0 / 3.0).abs() < 1e-12);
        // Pooling helps: at equal per-server utilisation, a bigger fleet
        // makes arrivals less likely to wait.
        assert!(erlang_c(4, 2.4) < erlang_c(2, 1.2));
        assert!(erlang_c(16, 9.6) < erlang_c(4, 2.4));
    }

    #[test]
    fn single_server_bounds_are_unchanged_by_the_topology_axis() {
        use crate::config::ServerTopology;
        let cfg = fast_cfg();
        let stream = ClassifiedStream::classify(&cold_stream(300), &cfg);
        for ranks in [512usize, 16 * 1024] {
            let base = mg1_bounds(&stream, &cfg.clone().with_ranks(ranks));
            assert_eq!(base.servers, 1);
            for topo in [ServerTopology::single(), ServerTopology::least_loaded(1)] {
                let again = mg1_bounds(&stream, &cfg.clone().with_ranks(ranks).with_topology(topo));
                assert_eq!(base, again, "S = 1 envelope must not depend on the policy");
            }
        }
    }

    #[test]
    fn multi_server_results_sit_inside_the_mgk_envelope() {
        use crate::config::ServerTopology;
        let cfg = fast_cfg();
        let stream = ClassifiedStream::classify(&cold_stream(300), &cfg);
        for topo in [
            ServerTopology::hash(2),
            ServerTopology::hash(8),
            ServerTopology::least_loaded(3),
            ServerTopology::least_loaded(8),
        ] {
            for ranks in [512usize, 2048, 16 * 1024] {
                let at = cfg.clone().with_ranks(ranks).with_topology(topo);
                let b = mg1_bounds(&stream, &at);
                assert_eq!(b.servers, topo.servers);
                let r = simulate_classified(&stream, &at);
                assert!(
                    (b.lower_ns..=b.upper_ns).contains(&r.time_to_launch_ns),
                    "{} ranks={ranks}: {} outside [{}, {}]",
                    topo.name(),
                    r.time_to_launch_ns,
                    b.lower_ns,
                    b.upper_ns
                );
                if topo.assign == AssignPolicy::LeastLoaded {
                    assert_eq!(b.upper_ns, u64::MAX, "least-loaded keeps no per-lane upper bound");
                } else {
                    assert_ne!(b.upper_ns, u64::MAX, "hash lanes keep a real upper bound");
                }
            }
        }
    }

    #[test]
    fn capacity_floor_and_utilisation_scale_down_with_the_fleet() {
        use crate::config::ServerTopology;
        let cfg = fast_cfg();
        let stream = ClassifiedStream::classify(&cold_stream(300), &cfg);
        // Deep contention at one server (128 cold nodes).
        let at = |s: usize| {
            let topo = if s == 1 { ServerTopology::single() } else { ServerTopology::hash(s) };
            mg1_bounds(&stream, &cfg.clone().with_ranks(16 * 1024).with_topology(topo))
        };
        let one = at(1);
        let eight = at(8);
        assert!(eight.lower_ns < one.lower_ns, "8 lanes shrink the capacity floor");
        assert!(eight.upper_ns < one.upper_ns, "and the per-lane work-conservation roof");
        assert!(
            (eight.utilisation - one.utilisation / 8.0).abs() < 1e-12,
            "ρ = λ·E[S]/S: {} vs {}",
            eight.utilisation,
            one.utilisation / 8.0
        );
        // A fleet big enough to desaturate the cold burst reports a finite
        // M/G/k wait where the single server reported an infinite one.
        assert!(one.mean_wait_ns.is_infinite());
        let big = mg1_bounds(
            &stream,
            &cfg.clone().with_ranks(16 * 1024).with_topology(ServerTopology::hash(512)),
        );
        assert!(big.utilisation < 1.0);
        assert!(big.mean_wait_ns.is_finite());
    }

    #[test]
    fn stochastic_multi_server_means_validate() {
        use crate::config::ServerTopology;
        for topo in [ServerTopology::hash(4), ServerTopology::least_loaded(4)] {
            for dist in ServiceDistribution::all() {
                let cfg = fast_cfg().with_service_dist(dist).with_topology(topo);
                let stream = ClassifiedStream::classify(&cold_stream(200), &cfg);
                for (cell, reps) in
                    replicate_rank_points(&stream, &cfg, &[512, 8192], AdaptiveControl::fixed(7))
                {
                    let (ranks, stats) = (cell.ranks, LaunchStats::of(&reps));
                    let b = mg1_bounds(&stream, &cell);
                    let check = validate_against_mg1(&b, &stats);
                    assert!(
                        check.within,
                        "{} {} ranks={ranks}: mean {} outside [{}, {}] (slack {})",
                        topo.name(),
                        dist.name(),
                        check.observed_mean_ns,
                        b.lower_ns,
                        b.upper_ns,
                        check.slack_ns
                    );
                }
            }
        }
    }

    #[test]
    fn faults_compose_with_the_fleet() {
        use crate::config::ServerTopology;
        // RpcLoss amplification applies per-lane: the amplified ρ is still
        // divided by S, the capacity floor still stands, and the upper
        // bound is forfeited for the fault (not the topology).
        let topo = ServerTopology::hash(4);
        let cfg = fast_cfg().with_topology(topo);
        let stream = ClassifiedStream::classify(&cold_stream(200), &cfg);
        let healthy = mg1_bounds(&stream, &cfg.clone().with_ranks(2048));
        let lossy = cfg.clone().with_ranks(2048).with_fault(FaultModel::RpcLoss {
            loss_milli: 200,
            timeout_ns: 1_000_000_000,
            backoff_base_ns: 250_000_000,
            max_retries: 5,
        });
        let b = mg1_bounds(&stream, &lossy);
        assert!((b.utilisation / healthy.utilisation - 1.25).abs() < 1e-12);
        assert_eq!(b.upper_ns, u64::MAX);
        assert_eq!(b.lower_ns, healthy.lower_ns);
        // And the faulted multi-server runs respect the surviving floor.
        let r = simulate_classified(&stream, &lossy);
        assert!(r.time_to_launch_ns >= b.lower_ns);
    }

    #[test]
    fn broadcast_bounds_cover_the_warm_fleet() {
        let mut cfg = fast_cfg();
        cfg.broadcast_cache = true;
        let stream = ClassifiedStream::classify(&cold_stream(300), &cfg);
        let at = cfg.clone().with_ranks(16 * 1024);
        let b = mg1_bounds(&stream, &at);
        assert_eq!(b.cold_nodes, 1);
        let r = simulate_classified(&stream, &at);
        assert!((b.lower_ns..=b.upper_ns).contains(&r.time_to_launch_ns));
    }
}
