//! Replicate statistics and the Fig 6 series tables.
//!
//! A stochastic rank point is simulated over K seeded replicates —
//! replicate `r` re-seeds the config from [`replicate_seed`], replicate 0
//! *being* the base seed — and summarised as [`LaunchStats`]:
//! p50/p95/p99/mean of the launch time. The replicate rows come from
//! [`run_adaptive_units`] alone, fixed K being its stopping rule switched
//! off; when a run takes no draws every replicate would be identical, so K
//! collapses to 1 and the stats degenerate to the single exact value.
//! [`sweep_paired`] drives two arms under shared replicate seeds, the
//! common-random-numbers design.
//!
//! [`render_fig6`] and [`render_fig6_paired`] render series tables; their
//! seconds and ratio cells are the ones every
//! [`SweepReport`](crate::SweepReport) table uses.

use depchaos_workloads::SplitMix;

use crate::adaptive::{run_adaptive_units, AdaptiveControl, AdaptiveUnit, PairedDiff};
use crate::config::{LaunchConfig, LaunchResult};
use crate::des::ClassifiedStream;

/// Launch-time summary statistics over K seeded replicates of one rank
/// point. All values are nanoseconds of `time_to_launch_ns`; percentiles
/// are nearest-rank over the sorted replicate sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchStats {
    /// How many replicates the sample holds (1 for deterministic runs).
    pub replicates: usize,
    pub mean_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

impl LaunchStats {
    /// Summarise a non-empty replicate vector's launch times.
    pub fn of(replicates: &[LaunchResult]) -> LaunchStats {
        let mut samples: Vec<u64> = replicates.iter().map(|l| l.time_to_launch_ns).collect();
        LaunchStats::from_samples(&mut samples)
    }

    /// Summarise a non-empty replicate sample (sorts in place).
    pub fn from_samples(samples: &mut [u64]) -> LaunchStats {
        assert!(!samples.is_empty(), "stats need at least one replicate");
        samples.sort_unstable();
        let pct = |p: f64| samples[(p / 100.0 * (samples.len() - 1) as f64).round() as usize];
        // Round to nearest: truncating division skewed the mean low by up
        // to 1 ns, so a perfectly symmetric sample disagreed with its own
        // median.
        let n = samples.len() as u128;
        let mean = (samples.iter().map(|&s| s as u128).sum::<u128>() + n / 2) / n;
        LaunchStats {
            replicates: samples.len(),
            mean_ns: mean as u64,
            p50_ns: pct(50.0),
            p95_ns: pct(95.0),
            p99_ns: pct(99.0),
        }
    }

    pub fn p50_s(&self) -> f64 {
        self.p50_ns as f64 / 1e9
    }

    pub fn p95_s(&self) -> f64 {
        self.p95_ns as f64 / 1e9
    }

    pub fn p99_s(&self) -> f64 {
        self.p99_ns as f64 / 1e9
    }
}

/// The seed replicate `r` of `base_seed` runs under: replicate 0 is the
/// base itself (so a 1-replicate sweep is exactly the plain sweep), later
/// replicates take independent [`SplitMix`] substreams in the
/// [`SplitMix::REPLICATE`] domain — decorrelated by construction from the
/// per-node service draws ([`SplitMix::NODE`]), which the pre-domain scheme
/// aliased: `replicate_seed(base, r)` used to equal the first service
/// factor node `r` drew in replicate 0.
pub fn replicate_seed(base_seed: u64, replicate: usize) -> u64 {
    if replicate == 0 {
        base_seed
    } else {
        SplitMix::split(base_seed, SplitMix::REPLICATE, replicate as u64).next_u64()
    }
}

/// One rank point of a common-random-numbers comparison: both arms'
/// replicate statistics plus the paired-difference estimator over their
/// shared-seed deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedPoint {
    pub ranks: usize,
    pub baseline: LaunchStats,
    pub variant: LaunchStats,
    pub diff: PairedDiff,
}

/// Sweep two arms of one experiment — e.g. the plain and wrapped streams
/// of a cell — under **shared replicate seeds**, the common-random-numbers
/// design. Replicate `r` of both arms runs under
/// `replicate_seed(base.seed, r)`, so their NODE-domain service factors
/// coincide and the per-replicate deltas cancel the common noise; the
/// returned [`PairedDiff`] carries the CRN-tightened confidence interval
/// on the arm difference. Arms that take no draws simulate once, and
/// their K replicates repeat that one value.
///
/// This deliberately does **not** use the matrix's per-cell seed
/// derivation ([`crate::experiment::scenario_seed`] hashes the wrap state
/// into the label, decorrelating the arms by design) — pairing is a
/// different experiment design, chosen here on purpose.
pub fn sweep_paired(
    baseline: &ClassifiedStream,
    variant: &ClassifiedStream,
    base: &LaunchConfig,
    rank_points: &[usize],
    replicates: usize,
) -> Vec<PairedPoint> {
    // Both arms share replicate r's seed — that sharing IS the
    // common-random-numbers design.
    let k = replicates.max(1);
    let units: Vec<AdaptiveUnit<'_>> = rank_points
        .iter()
        .flat_map(|&ranks| {
            [baseline, variant]
                .map(|stream| AdaptiveUnit { stream, cfg: base.clone().with_ranks(ranks) })
        })
        .collect();
    let rows = run_adaptive_units(&units, AdaptiveControl::fixed(k));
    rank_points
        .iter()
        .zip(rows.chunks(2))
        .map(|(&ranks, arms)| {
            let [bs, vs] = [&arms[0], &arms[1]].map(|rows| {
                let times: Vec<u64> = rows.iter().map(|l| l.time_to_launch_ns).collect();
                if times.len() == 1 {
                    vec![times[0]; k]
                } else {
                    times
                }
            });
            PairedPoint {
                ranks,
                baseline: LaunchStats::from_samples(&mut bs.clone()),
                variant: LaunchStats::from_samples(&mut vs.clone()),
                diff: PairedDiff::from_samples(&bs, &vs),
            }
        })
        .collect()
}

/// Render a [`sweep_paired`] comparison as the CRN Fig 6 table: per rank
/// point, both arm means, the speedup, and the 95% half-width of the mean
/// difference under the paired (CRN) and unpaired estimators — the last
/// two columns are the point of the exercise.
pub fn render_fig6_paired(points: &[PairedPoint]) -> String {
    let mut s = String::from(
        "ranks  plain(s)  wrapped(s)  speedup  ±delta paired(s)  ±delta unpaired(s)\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:>5}  {:>8.1}  {:>10.1}  {}  {:>17.3}  {:>19.3}\n",
            p.ranks,
            p.diff.mean_baseline_ns / 1e9,
            p.diff.mean_variant_ns / 1e9,
            ratio_cell(p.diff.speedup(), 1, 7),
            p.diff.half_width_ns / 1e9,
            p.diff.unpaired_half_width_ns / 1e9,
        ));
    }
    s
}

/// Render the Fig 6 series as an aligned table: one row per scale, normal
/// vs wrapped, with the speedup factor.
pub fn render_fig6(
    points: &[usize],
    normal: &[(usize, LaunchResult)],
    wrapped: &[(usize, LaunchResult)],
) -> String {
    let at = |series: &[(usize, LaunchResult)], p: usize| {
        series.iter().find(|(r, _)| *r == p).map(|(_, l)| l.seconds())
    };
    let mut s = String::from("ranks  normal(s)  wrapped(s)  speedup\n");
    for &p in points {
        let (n, w) = (at(normal, p), at(wrapped, p));
        s.push_str(&format!(
            "{p:>5}  {}  {}  {}\n",
            secs_cell(n, 9),
            secs_cell(w, 10),
            ratio_cell(n.zip(w).map(|(n, w)| n / w), 1, 7)
        ));
    }
    s
}

/// A right-aligned table cell `width` wide: the value, or `-` when it is
/// missing.
pub(crate) fn cell(v: Option<String>, width: usize) -> String {
    format!("{:>width$}", v.as_deref().unwrap_or("-"))
}

/// Launch seconds to one decimal, or `-`.
pub(crate) fn secs_cell(secs: Option<f64>, width: usize) -> String {
    cell(secs.map(|s| format!("{s:.1}")), width)
}

/// A speedup or slowdown factor to `prec` decimals, or `-` when it is
/// missing or not finite (a zero or missing denominator has no
/// meaningful ratio).
pub(crate) fn ratio_cell(x: Option<f64>, prec: usize, width: usize) -> String {
    cell(x.filter(|x| x.is_finite()).map(|x| format!("{x:.prec$}x")), width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::replicate_rank_points;
    use crate::config::ServiceDistribution;
    use crate::des::simulate_classified;
    use depchaos_vfs::{Op, Outcome, StraceLog, Syscall};

    fn cold_stream(n: usize) -> StraceLog {
        let mut log = StraceLog::new();
        for i in 0..n {
            log.push(Syscall::new(Op::Openat, &format!("/l/{i}"), Outcome::Ok, 200_000));
        }
        log
    }

    /// One replicate per rank point of a freshly classified stream.
    fn series(ops: &StraceLog, cfg: &LaunchConfig, points: &[usize]) -> Vec<(usize, LaunchResult)> {
        let stream = ClassifiedStream::classify(ops, cfg);
        replicate_rank_points(&stream, cfg, points, AdaptiveControl::fixed(1))
            .into_iter()
            .map(|(cell, reps)| (cell.ranks, reps[0]))
            .collect()
    }

    #[test]
    fn sweep_is_monotone_in_ranks() {
        let cfg =
            LaunchConfig { base_overhead_ns: 0, per_rank_overhead_ns: 0, ..Default::default() };
        let pts = [512usize, 1024, 2048];
        let res = series(&cold_stream(1000), &cfg, &pts);
        assert_eq!(res.len(), 3);
        let times: Vec<u64> = pts
            .iter()
            .map(|p| res.iter().find(|(r, _)| r == p).unwrap().1.time_to_launch_ns)
            .collect();
        assert!(times[0] <= times[1] && times[1] <= times[2], "{times:?}");
    }

    #[test]
    fn render_contains_speedup_column() {
        let cfg = LaunchConfig::default();
        let pts = [512usize];
        let normal = series(&cold_stream(100), &cfg, &pts);
        let wrapped = series(&cold_stream(10), &cfg, &pts);
        let table = render_fig6(&pts, &normal, &wrapped);
        assert!(table.contains("speedup"));
        assert!(table.contains("512"));
    }

    #[test]
    fn deterministic_sweep_collapses_to_one_replicate() {
        let cfg = LaunchConfig::default();
        let stream = ClassifiedStream::classify(&cold_stream(50), &cfg);
        for (cell, reps) in
            replicate_rank_points(&stream, &cfg, &[512, 1024], AdaptiveControl::fixed(32))
        {
            let stats = LaunchStats::of(&reps);
            assert_eq!(stats.replicates, 1, "no point replicating an exact model");
            assert_eq!(stats.p50_ns, reps[0].time_to_launch_ns);
            assert_eq!(stats.p99_ns, reps[0].time_to_launch_ns);
            assert_eq!(
                reps[0],
                series(&cold_stream(50), &cfg, &[cell.ranks])[0].1,
                "replicate 0 is the plain sweep"
            );
        }
    }

    #[test]
    fn stochastic_replicates_order_the_percentiles() {
        let cfg = LaunchConfig {
            base_overhead_ns: 0,
            per_rank_overhead_ns: 0,
            service_dist: ServiceDistribution::log_normal(0.5),
            ..Default::default()
        };
        let stream = ClassifiedStream::classify(&cold_stream(200), &cfg);
        let rows = replicate_rank_points(&stream, &cfg, &[2048], AdaptiveControl::fixed(25));
        let (cell, reps) = &rows[0];
        let stats = LaunchStats::of(reps);
        assert_eq!(stats.replicates, 25);
        assert!(stats.p50_ns <= stats.p95_ns && stats.p95_ns <= stats.p99_ns);
        assert!(stats.p99_ns > stats.p50_ns, "a heavy tail spreads the sample");
        assert_eq!(cell.ranks, 2048);
        assert_eq!(reps[0].time_to_launch_ns, simulate_classified(&stream, cell).time_to_launch_ns);
        // Byte-identical on re-run: the replicate seeds are pure data.
        assert_eq!(rows, replicate_rank_points(&stream, &cfg, &[2048], AdaptiveControl::fixed(25)));
    }

    #[test]
    fn stats_percentiles_are_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).collect();
        let st = LaunchStats::from_samples(&mut s);
        assert_eq!(st.replicates, 100);
        assert_eq!(st.p50_ns, 51); // index round(0.5 * 99) = 50
        assert_eq!(st.p95_ns, 95);
        assert_eq!(st.p99_ns, 99);
        let mut one = vec![42u64];
        let st1 = LaunchStats::from_samples(&mut one);
        assert_eq!((st1.p50_ns, st1.p95_ns, st1.p99_ns, st1.mean_ns), (42, 42, 42, 42));
    }

    #[test]
    fn stats_mean_rounds_to_nearest_ns() {
        // A symmetric two-point sample: the mean is 10.5 ns, which must
        // round to the same 11 ns nearest-rank p50 picks — truncation used
        // to report 10 and disagree with every percentile.
        let mut two = vec![10u64, 11];
        let st = LaunchStats::from_samples(&mut two);
        assert_eq!(st.p50_ns, 11);
        assert_eq!(st.mean_ns, 11, "mean rounds to nearest, not toward zero");
        // Larger symmetric sample: mean sits exactly on the midpoint value.
        let mut sym = vec![100u64, 200, 300];
        let st = LaunchStats::from_samples(&mut sym);
        assert_eq!(st.mean_ns, 200);
        assert_eq!(st.mean_ns, st.p50_ns, "p-stats and mean agree on symmetric samples");
        // Fraction below one half still truncates down.
        let mut low = vec![10u64, 10, 11];
        assert_eq!(LaunchStats::from_samples(&mut low).mean_ns, 10);
    }

    #[test]
    fn adaptive_sweep_with_disabled_target_is_the_fixed_sweep() {
        let cfg = LaunchConfig {
            service_dist: ServiceDistribution::uniform_jitter(0.25),
            seed: 7,
            ..LaunchConfig::default()
        };
        let stream = ClassifiedStream::classify(&cold_stream(150), &cfg);
        let fixed = replicate_rank_points(&stream, &cfg, &[512, 2048], AdaptiveControl::fixed(9));
        let ctl = AdaptiveControl { target_rel_milli: 0, min_k: 1, max_k: 9, batch: 4 };
        assert_eq!(replicate_rank_points(&stream, &cfg, &[512, 2048], ctl), fixed);
    }

    #[test]
    fn adaptive_sweep_stops_early_and_reports_the_k_used() {
        let cfg = LaunchConfig {
            service_dist: ServiceDistribution::log_normal(0.5),
            seed: 11,
            ..LaunchConfig::default()
        };
        let stream = ClassifiedStream::classify(&cold_stream(150), &cfg);
        let ctl = AdaptiveControl { target_rel_milli: 500, min_k: 2, max_k: 25, batch: 2 };
        let rows = replicate_rank_points(&stream, &cfg, &[2048], ctl);
        let reps = &rows[0].1;
        assert!(reps.len() < 25, "a 50% target stops well short of the budget");
        assert!(reps.len() >= 2);
        // Replicate 0 is still the series entry, identical to the fixed
        // sweep's.
        let fixed = replicate_rank_points(&stream, &cfg, &[2048], AdaptiveControl::fixed(25));
        assert_eq!(reps[0], fixed[0].1[0]);
        // Re-run: pure data.
        assert_eq!(rows, replicate_rank_points(&stream, &cfg, &[2048], ctl));
    }

    #[test]
    fn paired_sweep_tightens_the_difference_interval() {
        let cfg = LaunchConfig {
            service_dist: ServiceDistribution::log_normal(0.5),
            base_overhead_ns: 0,
            per_rank_overhead_ns: 0,
            seed: 3,
            ..LaunchConfig::default()
        };
        // The variant elides the tail 10% of the stream (a partial wrap).
        // High draw overlap is what CRN pays for: both arms consume the
        // same NODE-stream prefix per node, so their per-replicate noise
        // is almost entirely shared and the deltas cancel it. (Arms with
        // wildly different op counts — a full Shrinkwrap wrap — share too
        // little variance for pairing to bite; the estimator still
        // reports both intervals honestly there.)
        let plain = ClassifiedStream::classify(&cold_stream(400), &cfg);
        let wrapped = ClassifiedStream::classify(&cold_stream(360), &cfg);
        let pts = sweep_paired(&plain, &wrapped, &cfg, &[512, 2048], 9);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert_eq!(p.diff.pairs, 9);
            assert_eq!(p.baseline.replicates, 9);
            assert!(p.diff.mean_delta_ns > 0.0, "plain is slower");
            assert!(p.diff.speedup().unwrap() > 1.0);
            // Shared seeds correlate the arms, so pairing must not widen
            // the interval; on this workload it tightens it outright.
            assert!(
                p.diff.half_width_ns < p.diff.unpaired_half_width_ns,
                "paired {} vs unpaired {} at {}",
                p.diff.half_width_ns,
                p.diff.unpaired_half_width_ns,
                p.ranks
            );
        }
        let table = render_fig6_paired(&pts);
        assert!(table.contains("±delta paired"));
        assert!(table.contains("512"));
        assert!(!table.contains("inf"));

        // Draw-free arms simulate once but still report K exact pairs: a
        // zero-width interval, not the infinite one of a single sample.
        let exact = LaunchConfig { service_dist: ServiceDistribution::Deterministic, ..cfg };
        let plain = ClassifiedStream::classify(&cold_stream(400), &exact);
        let wrapped = ClassifiedStream::classify(&cold_stream(360), &exact);
        for p in sweep_paired(&plain, &wrapped, &exact, &[512], 9) {
            assert_eq!((p.diff.pairs, p.baseline.replicates, p.variant.replicates), (9, 9, 9));
            assert_eq!(p.diff.half_width_ns, 0.0);
        }
    }

    #[test]
    fn render_guards_degenerate_speedups() {
        let zero = LaunchResult { nodes: 1, ..Default::default() };
        let cfg = LaunchConfig::default();
        let pts = [512usize, 1024];
        let normal = series(&cold_stream(10), &cfg, &pts);
        // Wrapped series: a zero time at 512, no data at all for 1024.
        let wrapped = vec![(512usize, zero)];
        let table = render_fig6(&pts, &normal, &wrapped);
        assert!(!table.contains("inf"), "zero wrapped time must not print inf:\n{table}");
        assert!(!table.contains("NaN"), "missing point must not print NaN ratio:\n{table}");
        assert!(table.contains('-'));
    }
}
