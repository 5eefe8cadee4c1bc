//! Shared-object reuse analysis (Fig 4).
//!
//! The paper surveys a machine with 3,287 binaries and finds that "only 4%
//! of shared object files are used by more than 5% of the binaries" — the
//! empirical backbone of its §III-B challenge to dynamic linking. Given a
//! binary→shared-object usage relation, [`reuse_counts`] produces the
//! per-object user counts and [`ReuseHistogram`] summarises them the way
//! Fig 4 plots them (objects ranked by frequency of use).

use std::collections::HashMap;

/// Per-shared-object user counts plus the population size.
#[derive(Debug, Clone, Default)]
pub struct ReuseHistogram {
    /// `(shared object name, number of binaries using it)`, sorted by count
    /// descending then name — the Fig 4 x-axis order.
    pub ranked: Vec<(String, usize)>,
    /// Number of binaries surveyed.
    pub binary_count: usize,
}

impl ReuseHistogram {
    /// Number of distinct shared objects.
    pub fn object_count(&self) -> usize {
        self.ranked.len()
    }

    /// Number of objects used by strictly more than `frac` of binaries.
    pub fn objects_above_fraction(&self, frac: f64) -> usize {
        let threshold = frac * self.binary_count as f64;
        self.ranked.iter().filter(|(_, c)| (*c as f64) > threshold).count()
    }

    /// Fraction of objects used by more than `frac` of binaries — the
    /// paper's "only 4% used by more than 5%" headline.
    pub fn fraction_above(&self, frac: f64) -> f64 {
        if self.ranked.is_empty() {
            return 0.0;
        }
        self.objects_above_fraction(frac) as f64 / self.ranked.len() as f64
    }

    /// Median user count (most objects are used by almost nobody).
    pub fn median_users(&self) -> usize {
        if self.ranked.is_empty() {
            return 0;
        }
        self.ranked[self.ranked.len() / 2].1
    }

    /// The Fig 4 series: frequency by rank, ready to print or plot.
    pub fn series(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ranked.iter().enumerate().map(|(i, (_, c))| (i, *c))
    }

    /// Render the first `n` rows plus summary, paper-style.
    pub fn render_summary(&self, n: usize) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{} binaries, {} shared objects\n",
            self.binary_count,
            self.object_count()
        ));
        for (name, c) in self.ranked.iter().take(n) {
            s.push_str(&format!("{c:>6}  {name}\n"));
        }
        s.push_str(&format!(
            "objects used by >5% of binaries: {} ({:.1}%)\n",
            self.objects_above_fraction(0.05),
            100.0 * self.fraction_above(0.05)
        ));
        s
    }
}

/// Build the histogram from `(binary, used shared objects)` pairs.
///
/// Duplicate uses of the same object by one binary count once (a binary
/// links a library or it doesn't).
pub fn reuse_counts<'a, I, S>(usages: I) -> ReuseHistogram
where
    I: IntoIterator<Item = (&'a str, S)>,
    S: IntoIterator<Item = &'a str>,
{
    let mut users: HashMap<&str, Vec<&str>> = HashMap::new();
    let mut binaries = 0usize;
    for (bin, sos) in usages {
        binaries += 1;
        let mut seen: Vec<&str> = Vec::new();
        for so in sos {
            if !seen.contains(&so) {
                seen.push(so);
                users.entry(so).or_default().push(bin);
            }
        }
    }
    let mut ranked: Vec<(String, usize)> =
        users.into_iter().map(|(so, bins)| (so.to_string(), bins.len())).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ReuseHistogram { ranked, binary_count: binaries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_ranking() {
        let h = reuse_counts(vec![
            ("bin1", vec!["libc", "libm"]),
            ("bin2", vec!["libc"]),
            ("bin3", vec!["libc", "librare", "librare"]),
        ]);
        assert_eq!(h.binary_count, 3);
        assert_eq!(h.object_count(), 3);
        assert_eq!(h.ranked[0], ("libc".to_string(), 3));
        // duplicate mention of librare in bin3 counted once
        assert!(h.ranked.iter().any(|(n, c)| n == "librare" && *c == 1));
    }

    #[test]
    fn fraction_above_threshold() {
        // 10 binaries; libc used by all, 9 libs used by exactly 1.
        let mut usages: Vec<(String, Vec<String>)> = Vec::new();
        for i in 0..10 {
            usages.push((format!("bin{i}"), vec!["libc".to_string(), format!("libonly{i}")]));
        }
        let h = reuse_counts(
            usages.iter().map(|(b, sos)| (b.as_str(), sos.iter().map(|s| s.as_str()))),
        );
        // threshold 50%: only libc (1 of 11 objects ≈ 9%)
        assert_eq!(h.objects_above_fraction(0.5), 1);
        assert!((h.fraction_above(0.5) - 1.0 / 11.0).abs() < 1e-9);
        assert_eq!(h.median_users(), 1);
    }

    #[test]
    fn empty_is_safe() {
        let h = reuse_counts(Vec::<(&str, Vec<&str>)>::new());
        assert_eq!(h.fraction_above(0.05), 0.0);
        assert_eq!(h.median_users(), 0);
    }

    #[test]
    fn render_mentions_headline() {
        let h = reuse_counts(vec![("b", vec!["libc"])]);
        assert!(h.render_summary(5).contains(">5% of binaries"));
    }
}
