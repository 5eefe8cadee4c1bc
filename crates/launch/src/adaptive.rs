//! Adaptive replicate control: a sequential stopping rule for stochastic
//! sweeps, bit-reproducibly.
//!
//! Fixed-K replication (the matrix default) spends the same simulation
//! budget on every stochastic cell no matter how concentrated its
//! launch-time distribution is. The SGMM-style alternative implemented
//! here drives the sample count by the estimator itself: run replicates in
//! seeded batches, maintain the running mean and variance online
//! ([`Welford`]), and stop a cell as soon as the t-based 95% confidence
//! half-width of the mean launch time falls under a relative target
//! ([`AdaptiveControl::target_rel_milli`]) — or at
//! [`AdaptiveControl::max_k`], whichever comes first.
//!
//! # Why adaptive K preserves bit-identity
//!
//! [`crate::sweep::replicate_seed`]`(base, r)` is a pure function of
//! `(base, r)`: replicate `r`'s draws do not depend on how many replicates
//! ran before it or after it. An adaptive run that stops at `K'` therefore
//! produces **exactly the first `K'` entries** of the fixed-K sample
//! vector — the batch-prefix property — and an adaptive run whose
//! precision rule never fires (`target_rel_milli == 0`) is byte-identical
//! to the fixed-`max_k` run. Both facts are proptest-pinned (see
//! `tests/adaptive_control.rs`; the full reproducibility contract lives in
//! `docs/determinism.md`).
//!
//! The stopping decision for a cell is likewise a pure function of that
//! cell's own sample prefix ([`stop_k`]), so running cells one at a time,
//! batched per sweep, or batched across a whole matrix
//! ([`run_adaptive_units`]) lands on the same K — which is what lets
//! [`crate::matrix::ExperimentMatrix`]`::run`, a CRN sweep and the serve
//! layer's incremental executor stay bit-identical to each other.
//!
//! [`run_adaptive_units`] also runs fixed K, and nothing else plans
//! replicate rows: under [`AdaptiveControl::fixed`] the rule is off and
//! every unit plans its K replicate rows in a single round, which is
//! exactly the fixed-K grid.
//!
//! Cells that take no draws ([`LaunchConfig::takes_draws`]) keep the
//! clamp to one replicate: the rule never engages where there is no
//! variance to chase.
//!
//! # Common random numbers
//!
//! Cells simulated under the **same base seed** share their
//! [`SplitMix`](depchaos_workloads::SplitMix) NODE-domain service-factor
//! streams by construction, so per-replicate *differences* between two
//! such cells (plain vs wrapped, healthy vs faulted) have most of the
//! common noise cancel. [`PairedDiff`] is the matching estimator: a
//! t-interval over the per-replicate deltas, typically far tighter than
//! the unpaired interval over the same samples.
//! [`crate::sweep::sweep_paired`] runs both arms under shared replicate
//! seeds and [`crate::sweep::render_fig6_paired`] renders the
//! CRN-tightened wrapped-vs-plain table.

use crate::batch::BatchPlan;
use crate::config::{LaunchConfig, LaunchResult};
use crate::des::ClassifiedStream;
use crate::sweep::replicate_seed;

/// The sequential stopping rule's parameters. Integer milli units keep the
/// struct `Eq + Hash`, so it can participate in scenario keys and cache
/// lookups exactly like
/// [`ServiceDistribution`](crate::config::ServiceDistribution) does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaptiveControl {
    /// Relative precision target in milli units: stop when the 95%
    /// half-width of the mean is at most `target_rel_milli / 1000` of the
    /// running mean. **Zero disables the precision rule** — the cell runs
    /// to `max_k`, which makes an adaptive run with `max_k = K` exactly
    /// the fixed-K run (the equivalence the proptests pin).
    pub target_rel_milli: u32,
    /// Never stop before this many replicates (clamped to ≥ 1).
    pub min_k: usize,
    /// Hard replicate budget per cell (clamped to ≥ `min_k`).
    pub max_k: usize,
    /// Replicates simulated per planning round (clamped to ≥ 1). The rule
    /// is tested at round boundaries only, so `batch` trades planner
    /// round-trips against overshoot past the earliest possible stop.
    pub batch: usize,
}

impl AdaptiveControl {
    /// Fixed-K replication as a stopping rule: the precision rule off and
    /// all `k` replicates in one round, so [`run_adaptive_units`] under it
    /// plans exactly the fixed-K row grid.
    pub fn fixed(k: usize) -> AdaptiveControl {
        AdaptiveControl { target_rel_milli: 0, min_k: 1, max_k: k, batch: k }.normalized()
    }

    /// The same rule with every bound made self-consistent; all consumers
    /// normalize on entry so `{min_k: 0, max_k: 0, batch: 0}` cannot hang
    /// a round loop.
    pub fn normalized(self) -> AdaptiveControl {
        let min_k = self.min_k.max(1);
        AdaptiveControl {
            target_rel_milli: self.target_rel_milli,
            min_k,
            max_k: self.max_k.max(min_k),
            batch: self.batch.max(1),
        }
    }

    /// Has this accumulator reached the precision target? False whenever
    /// the rule is disabled (`target_rel_milli == 0`) or the sample cannot
    /// yet bound its own variance (fewer than two replicates).
    pub fn precision_met(&self, w: &Welford) -> bool {
        if self.target_rel_milli == 0 {
            return false;
        }
        let hw = w.half_width_95();
        hw.is_finite() && hw <= w.mean() * (self.target_rel_milli as f64 / 1000.0)
    }
}

/// Welford's online mean/variance accumulator — numerically stable single
/// pass, no sample retention. Feeding launch times in replicate order
/// makes the accumulator state (and so the stopping decision) a pure
/// function of the sample prefix.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    pub fn new() -> Welford {
        Welford::default()
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; infinite below two samples — a
    /// single-replicate cell carries no variance information, so any
    /// precision rule must keep sampling rather than divide by zero.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::INFINITY
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Two-sided 95% confidence half-width of the mean:
    /// `t_{n-1, 0.975} · s / √n`. Infinite below two samples.
    pub fn half_width_95(&self) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        t_critical_95(self.n - 1) * (self.variance() / self.n as f64).sqrt()
    }
}

/// Two-sided 95% Student-t critical values, `t_{df, 0.975}`. Exact table
/// through 30 degrees of freedom, then the standard coarse brackets down
/// to the normal limit — replicate budgets here are small, so the table
/// region is the one that matters.
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=60 => 2.021,
        61..=120 => 2.000,
        _ => 1.960,
    }
}

/// The K the stopping rule lands on for a given replicate-ordered sample —
/// the reference the round loops must agree with. Pure data in, pure data
/// out: replays the round structure (batches of `ctl.batch`, rule tested
/// at round boundaries once `min_k` is reached) over a sample prefix and
/// returns how many replicates an adaptive run consumes. `samples` must
/// hold at least `ctl.max_k` entries.
pub fn stop_k(ctl: AdaptiveControl, samples: &[u64]) -> usize {
    let ctl = ctl.normalized();
    assert!(samples.len() >= ctl.max_k, "stop_k needs the full max_k sample vector");
    let mut w = Welford::new();
    let mut k = 0usize;
    while k < ctl.max_k {
        let step = ctl.batch.min(ctl.max_k - k);
        for &s in &samples[k..k + step] {
            w.push(s as f64);
        }
        k += step;
        if k >= ctl.min_k && ctl.precision_met(&w) {
            break;
        }
    }
    k
}

/// One adaptive work unit: a classified stream plus its fully derived
/// launch configuration (per-cell seed and rank count already applied; the
/// driver only swaps in per-replicate seeds).
pub struct AdaptiveUnit<'a> {
    pub stream: &'a ClassifiedStream,
    pub cfg: LaunchConfig,
}

/// Drive the stopping rule over any number of units at once: per round,
/// every still-active unit contributes its next batch of replicate rows to
/// **one** [`BatchPlan`] (kernel dedup across units preserved), the plan
/// executes, and each unit's rule is tested on its own accumulated sample.
/// Returns, per unit, the replicate-ordered [`LaunchResult`]s it consumed
/// — exactly the first `K'` entries of the fixed-`max_k` vector, by the
/// batch-prefix property of [`replicate_seed`].
///
/// Because the stopping decision is per-unit pure ([`stop_k`]), the
/// returned samples do not depend on which other units share the call:
/// one-cell-at-a-time, one sweep, or a whole matrix agree byte for byte.
pub fn run_adaptive_units(
    units: &[AdaptiveUnit<'_>],
    ctl: AdaptiveControl,
) -> Vec<Vec<LaunchResult>> {
    run_adaptive_units_on(units, ctl, 1).0
}

/// [`run_adaptive_units`] with each round's kernels solved on `jobs`
/// workers ([`BatchPlan::execute_on`]), also returning the most workers
/// any round ran on. The samples are the same for every `jobs`.
pub(crate) fn run_adaptive_units_on(
    units: &[AdaptiveUnit<'_>],
    ctl: AdaptiveControl,
    jobs: usize,
) -> (Vec<Vec<LaunchResult>>, usize) {
    let ctl = ctl.normalized();
    let mut out: Vec<Vec<LaunchResult>> = units.iter().map(|_| Vec::new()).collect();
    let mut acc: Vec<Welford> = units.iter().map(|_| Welford::new()).collect();
    let mut active: Vec<bool> = units.iter().map(|_| true).collect();
    let mut workers = 1usize;
    loop {
        let mut plan = BatchPlan::new();
        let mut pushed: Vec<(usize, usize)> = Vec::new();
        for (i, u) in units.iter().enumerate() {
            if !active[i] {
                continue;
            }
            let id = plan.stream(u.stream);
            let done = out[i].len();
            // A unit that takes no draws keeps the clamp to one replicate:
            // the rule never engages where there is no variance to chase.
            let step = if u.cfg.takes_draws() { ctl.batch.min(ctl.max_k - done) } else { 1 };
            for r in done..done + step {
                plan.push(id, &u.cfg.clone().with_seed(replicate_seed(u.cfg.seed, r)));
            }
            pushed.push((i, step));
        }
        if pushed.is_empty() {
            return (out, workers);
        }
        let (rows, round_workers) = plan.execute_on(jobs);
        workers = workers.max(round_workers);
        let mut cursor = 0usize;
        for &(i, n) in &pushed {
            for l in &rows[cursor..cursor + n] {
                acc[i].push(l.time_to_launch_ns as f64);
                out[i].push(*l);
            }
            cursor += n;
            let k = out[i].len();
            active[i] = units[i].cfg.takes_draws()
                && k < ctl.max_k
                && !(k >= ctl.min_k && ctl.precision_met(&acc[i]));
        }
    }
}

/// The paired-difference (common-random-numbers) estimator over two arms
/// simulated under **shared replicate seeds**: a t-interval on the mean of
/// the per-replicate deltas `baseline_r − variant_r`. When the arms share
/// their NODE-domain draw streams the common noise cancels in each delta,
/// so the paired half-width is typically far below the unpaired one — the
/// cell-vs-cell *difference* (the quantity Fig 6 plots) converges long
/// before either cell does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedDiff {
    /// Replicates in each arm.
    pub pairs: usize,
    pub mean_baseline_ns: f64,
    pub mean_variant_ns: f64,
    /// Mean of `baseline − variant` per replicate (positive = variant
    /// faster).
    pub mean_delta_ns: f64,
    /// 95% t half-width of the paired mean delta.
    pub half_width_ns: f64,
    /// 95% half-width the *unpaired* two-sample estimator would report on
    /// the same data — the baseline the CRN tightening is measured
    /// against.
    pub unpaired_half_width_ns: f64,
}

impl PairedDiff {
    /// Build from two equal-length, replicate-ordered sample vectors. The
    /// seeds must have been shared per replicate for the pairing to mean
    /// anything; the arithmetic itself only needs equal lengths.
    pub fn from_samples(baseline: &[u64], variant: &[u64]) -> PairedDiff {
        assert_eq!(baseline.len(), variant.len(), "paired arms need equal replicate counts");
        assert!(!baseline.is_empty(), "paired estimator needs at least one replicate");
        let n = baseline.len();
        let mut delta = Welford::new();
        let mut b = Welford::new();
        let mut v = Welford::new();
        for (&p, &w) in baseline.iter().zip(variant) {
            delta.push(p as f64 - w as f64);
            b.push(p as f64);
            v.push(w as f64);
        }
        let unpaired = if n < 2 {
            f64::INFINITY
        } else {
            t_critical_95(n as u64 - 1) * ((b.variance() + v.variance()) / n as f64).sqrt()
        };
        PairedDiff {
            pairs: n,
            mean_baseline_ns: b.mean(),
            mean_variant_ns: v.mean(),
            mean_delta_ns: delta.mean(),
            half_width_ns: delta.half_width_95(),
            unpaired_half_width_ns: unpaired,
        }
    }

    /// Baseline-over-variant speedup of the means; `None` when the variant
    /// mean is zero or the ratio is otherwise meaningless.
    pub fn speedup(&self) -> Option<f64> {
        let r = self.mean_baseline_ns / self.mean_variant_ns;
        r.is_finite().then_some(r)
    }
}

/// `ctl`'s replicates of `stream` at each of `rank_points`, with the config
/// each point ran under: one [`AdaptiveUnit`] per point. The unit tests'
/// rank sweep.
#[cfg(test)]
pub(crate) fn replicate_rank_points(
    stream: &ClassifiedStream,
    base: &LaunchConfig,
    rank_points: &[usize],
    ctl: AdaptiveControl,
) -> Vec<(LaunchConfig, Vec<LaunchResult>)> {
    let units: Vec<AdaptiveUnit<'_>> = rank_points
        .iter()
        .map(|&ranks| AdaptiveUnit { stream, cfg: base.clone().with_ranks(ranks) })
        .collect();
    let rows = run_adaptive_units(&units, ctl);
    units.into_iter().map(|u| u.cfg).zip(rows).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceDistribution;
    use depchaos_vfs::{Op, Outcome, StraceLog, Syscall};

    fn cold_stream(n: usize) -> StraceLog {
        let mut log = StraceLog::new();
        for i in 0..n {
            log.push(Syscall::new(Op::Openat, &format!("/l/{i}"), Outcome::Ok, 200_000));
        }
        log
    }

    #[test]
    fn welford_matches_two_pass_mean_and_variance() {
        let xs = [3.0f64, 7.0, 1.0, 9.0, 4.0, 4.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() as f64 - 1.0);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), xs.len() as u64);
    }

    #[test]
    fn single_sample_has_no_variance_and_never_satisfies_the_rule() {
        // K = 1: variance and half-width are infinite, so even a huge
        // relative target cannot stop the rule on one replicate.
        let mut w = Welford::new();
        w.push(1e9);
        assert!(w.variance().is_infinite());
        assert!(w.half_width_95().is_infinite());
        let ctl = AdaptiveControl { target_rel_milli: 900, min_k: 1, max_k: 8, batch: 1 };
        assert!(!ctl.precision_met(&w));
    }

    #[test]
    fn identical_samples_stop_at_min_k() {
        // Zero variance ⇒ zero half-width ⇒ the rule fires at the first
        // boundary where min_k is satisfied.
        let ctl = AdaptiveControl { target_rel_milli: 1, min_k: 3, max_k: 20, batch: 1 };
        assert_eq!(stop_k(ctl, &[500; 20]), 3);
        // Batched rounds overshoot to the round boundary, never past it.
        let batched = AdaptiveControl { batch: 4, ..ctl };
        assert_eq!(stop_k(batched, &[500; 20]), 4);
    }

    #[test]
    fn disabled_target_runs_to_max_k() {
        let ctl = AdaptiveControl { target_rel_milli: 0, min_k: 1, max_k: 13, batch: 5 };
        assert_eq!(stop_k(ctl, &[7; 13]), 13, "zero target means fixed-K");
    }

    #[test]
    fn high_variance_samples_exhaust_the_budget() {
        let noisy: Vec<u64> = (0..16).map(|i| if i % 2 == 0 { 1 } else { 1_000_000 }).collect();
        let ctl = AdaptiveControl { target_rel_milli: 10, min_k: 2, max_k: 16, batch: 2 };
        assert_eq!(stop_k(ctl, &noisy), 16);
    }

    #[test]
    fn degenerate_control_is_normalized_not_hung() {
        let ctl = AdaptiveControl { target_rel_milli: 0, min_k: 0, max_k: 0, batch: 0 };
        assert_eq!(stop_k(ctl, &[1, 2, 3]), 1, "all-zero bounds clamp to one replicate");
    }

    #[test]
    fn t_table_brackets_are_monotone_toward_the_normal_limit() {
        assert!(t_critical_95(0).is_infinite());
        for df in 1..200u64 {
            assert!(t_critical_95(df + 1) <= t_critical_95(df), "df {df}");
        }
        assert!((t_critical_95(10_000) - 1.96).abs() < 1e-9);
        assert!((t_critical_95(3) - 3.182).abs() < 1e-9);
    }

    #[test]
    fn adaptive_units_produce_a_prefix_of_the_fixed_sweep() {
        let cfg = LaunchConfig {
            service_dist: ServiceDistribution::log_normal(0.5),
            seed: 42,
            ..LaunchConfig::default()
        };
        let stream = ClassifiedStream::classify(&cold_stream(120), &cfg);
        let max_k = 12;
        let units = [AdaptiveUnit { stream: &stream, cfg: cfg.clone().with_ranks(1024) }];
        let fixed = run_adaptive_units(&units, AdaptiveControl::fixed(max_k));
        assert_eq!(fixed[0].len(), max_k);

        // A loose target stops early; the consumed sample must be a prefix
        // of the fixed-K run, and its length must match the pure stop_k
        // replay of the full vector.
        let ctl = AdaptiveControl { target_rel_milli: 500, min_k: 2, max_k, batch: 2 };
        let got = &run_adaptive_units(&units, ctl)[0];
        assert!(got.len() < max_k, "a 50% target must stop early on a concentrated sample");

        let mut replay = BatchPlan::new();
        let id = replay.stream(&stream);
        for r in 0..max_k {
            replay.push(id, &cfg.clone().with_ranks(1024).with_seed(replicate_seed(cfg.seed, r)));
        }
        let full = replay.execute();
        assert_eq!(got.as_slice(), &full[..got.len()], "batch-prefix property");
        let samples: Vec<u64> = full.iter().map(|l| l.time_to_launch_ns).collect();
        assert_eq!(got.len(), stop_k(ctl, &samples));
    }

    #[test]
    fn deterministic_units_clamp_to_one_replicate() {
        let cfg = LaunchConfig::default();
        let stream = ClassifiedStream::classify(&cold_stream(40), &cfg);
        let ctl = AdaptiveControl { target_rel_milli: 50, min_k: 4, max_k: 11, batch: 4 };
        let units = [AdaptiveUnit { stream: &stream, cfg: cfg.clone().with_ranks(512) }];
        let out = run_adaptive_units(&units, ctl);
        assert_eq!(out[0].len(), 1, "no draws, nothing to replicate");
    }

    #[test]
    fn paired_estimator_tightens_correlated_arms() {
        // Strongly correlated arms with a constant offset: the deltas are
        // nearly constant, so the paired half-width collapses while the
        // unpaired one stays wide.
        let noise = [100u64, 900, 350, 720, 510, 260, 840, 430];
        let baseline: Vec<u64> = noise.iter().map(|n| 10_000 + n).collect();
        let variant: Vec<u64> = noise.iter().map(|n| 7_000 + n).collect();
        let d = PairedDiff::from_samples(&baseline, &variant);
        assert_eq!(d.pairs, 8);
        assert!((d.mean_delta_ns - 3_000.0).abs() < 1e-9);
        assert!(d.half_width_ns < 1e-6, "constant deltas have zero variance");
        assert!(d.unpaired_half_width_ns > 100.0, "the arms themselves are noisy");
        let s = d.speedup().unwrap();
        assert!(s > 1.0 && s < 2.0);
    }
}
