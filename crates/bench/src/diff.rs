//! Comparing `BENCH_des.json` records: the CI perf-regression gate.
//!
//! The `hotpath` bench writes the record as JSON lines, one
//! `{"name", "mean_ns_per_iter"}` line per case. [`parse_summary`] reads
//! every line with the serve codec's field reader ([`Fields`]), strictly:
//! a missing, unknown, duplicate or nested field, a number that is not
//! plain digits, or a repeated row name is an error naming the line and
//! the field. [`diff_gates`] compares a fresh record against the
//! checked-in baseline over any number of watched groups — each [`Gate`]
//! pairs a name prefix with its own regression threshold — and the
//! `bench-diff` binary turns the comparison into an exit code: any gated
//! case whose `mean_ns_per_iter` regresses beyond its group's threshold,
//! or that disappeared from the fresh run, fails the build. A row that no
//! gate names would pass unjudged whatever it reads, so [`diff_gates`]
//! refuses it instead of leaving it out of the report.

use std::collections::HashSet;

use depchaos_serve::codec::{string, uint, Fields};

/// One benchmark case from a summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchCase {
    pub name: String,
    pub mean_ns_per_iter: u64,
}

/// A parsed `BENCH_des.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSummary {
    pub cases: Vec<BenchCase>,
}

impl BenchSummary {
    pub fn get(&self, name: &str) -> Option<&BenchCase> {
        self.cases.iter().find(|c| c.name == name)
    }
}

/// Parse a `BENCH_des.json` record. Errors name the line and the field.
pub fn parse_summary(text: &str) -> Result<BenchSummary, String> {
    let (mut cases, mut names) = (Vec::new(), HashSet::new());
    for (n, line) in (1..).zip(text.lines()) {
        let case = read_row(line).map_err(|e| format!("line {n}: {e}"))?;
        if !names.insert(case.name.clone()) {
            return Err(format!("line {n}: field \"name\" repeats {:?}", case.name));
        }
        cases.push(case);
    }
    if cases.is_empty() {
        return Err("line 1: no row".to_string());
    }
    Ok(BenchSummary { cases })
}

/// One row line. Unknown fields are reported before missing ones, so a
/// misspelled field is named as it was written.
fn read_row(line: &str) -> Result<BenchCase, String> {
    let mut f = Fields::parse(line);
    let name = f.get("name", string)?;
    let mean_ns_per_iter = f.get("mean_ns_per_iter", uint)?;
    f.finish()?;
    let missing = |key: &str| format!("missing field {key:?}");
    Ok(BenchCase {
        name: name.ok_or_else(|| missing("name"))?,
        mean_ns_per_iter: mean_ns_per_iter.ok_or_else(|| missing("mean_ns_per_iter"))?,
    })
}

/// One watched benchmark group: every baseline case whose name starts with
/// `prefix` is gated at `threshold_pct`. Groups get their own thresholds
/// because their noise floors differ — the DES cases are long and stable,
/// the nanosecond-scale VFS probes wobble more even under the
/// min-of-batches estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub prefix: String,
    pub threshold_pct: f64,
}

impl Gate {
    pub fn new(prefix: &str, threshold_pct: f64) -> Gate {
        Gate { prefix: prefix.to_string(), threshold_pct }
    }
}

/// One case's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    pub name: String,
    pub baseline_ns: u64,
    pub current_ns: u64,
    /// Positive = slower than baseline.
    pub delta_pct: f64,
    /// The gate threshold this case was judged against.
    pub threshold_pct: f64,
    pub regressed: bool,
}

/// The gate's verdict over every baseline case under the watched prefixes.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    pub rows: Vec<DiffRow>,
    /// Baseline cases the current run no longer produces — a silent drop
    /// would otherwise read as "no regression".
    pub missing: Vec<String>,
    pub gates: Vec<Gate>,
}

impl DiffReport {
    /// Does the current run pass the gate?
    pub fn ok(&self) -> bool {
        self.missing.is_empty() && self.rows.iter().all(|r| !r.regressed)
    }

    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }

    /// The human-readable delta report CI uploads as an artifact.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<44} {:>12} {:>12} {:>9} {:>7}  verdict\n",
            "case", "baseline ns", "current ns", "delta", "gate"
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{:<44} {:>12} {:>12} {:>8.1}% {:>6.0}%  {}\n",
                r.name,
                r.baseline_ns,
                r.current_ns,
                r.delta_pct,
                r.threshold_pct,
                if r.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        for m in &self.missing {
            s.push_str(&format!("{m:<44} MISSING from current run\n"));
        }
        let gates: Vec<String> =
            self.gates.iter().map(|g| format!("{}>{:.0}%", g.prefix, g.threshold_pct)).collect();
        s.push_str(&format!(
            "gate: mean_ns_per_iter regression beyond [{}] fails; {}\n",
            gates.join(", "),
            if self.ok() { "PASS" } else { "FAIL" }
        ));
        s
    }
}

/// Compare `current` against `baseline` over the watched groups, each with
/// its own threshold. A case is judged by the **first** gate whose prefix
/// matches, so overlapping prefixes behave predictably. Errs, naming the
/// row, when a row of either record matches no gate.
pub fn diff_gates(
    baseline: &BenchSummary,
    current: &BenchSummary,
    gates: &[Gate],
) -> Result<DiffReport, String> {
    let gate_of = |name: &str| {
        let gate = gates.iter().find(|g| name.starts_with(&g.prefix));
        gate.ok_or_else(|| format!("row {name:?} matches no gate"))
    };
    for c in &current.cases {
        gate_of(&c.name)?;
    }
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for b in &baseline.cases {
        let gate = gate_of(&b.name)?;
        match current.get(&b.name) {
            Some(c) => {
                let delta_pct = (c.mean_ns_per_iter as f64 - b.mean_ns_per_iter as f64)
                    / (b.mean_ns_per_iter as f64).max(1.0)
                    * 100.0;
                rows.push(DiffRow {
                    name: b.name.clone(),
                    baseline_ns: b.mean_ns_per_iter,
                    current_ns: c.mean_ns_per_iter,
                    delta_pct,
                    threshold_pct: gate.threshold_pct,
                    regressed: delta_pct > gate.threshold_pct,
                });
            }
            None => missing.push(b.name.clone()),
        }
    }
    Ok(DiffReport { rows, missing, gates: gates.to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(cases: &[(&str, u64)]) -> BenchSummary {
        let mut s = String::new();
        for (name, mean) in cases {
            s.push_str(&format!("{{\"name\": \"{name}\", \"mean_ns_per_iter\": {mean}}}\n"));
        }
        parse_summary(&s).unwrap()
    }

    #[test]
    fn parses_the_writer_format() {
        let s = summary(&[("des_million_ranks/a", 4000), ("classify/b", 90)]);
        assert_eq!(s.cases.len(), 2);
        assert_eq!(s.get("des_million_ranks/a").unwrap().mean_ns_per_iter, 4000);
    }

    #[test]
    fn parse_errors_name_the_hole() {
        let row = r#"{"name": "a", "mean_ns_per_iter": 4000}"#;
        let after_row = |bad: &str| format!("{row}\n{bad}");
        for (text, err) in [
            (String::new(), "line 1: no row"),
            (
                after_row(r#"{"name": "b", "mean_ns_per_iter": 90, "iters": 200}"#),
                r#"line 2: unknown field "iters""#,
            ),
            (after_row(r#"{"name": "b", "mean_ns": 90}"#), r#"line 2: unknown field "mean_ns""#),
            (
                after_row(r#"{"name": "b", "mean_ns_per_iter": 90.5}"#),
                r#"line 2: malformed field "mean_ns_per_iter""#,
            ),
            (
                after_row(r#"{"name": "b", "name": "c", "mean_ns_per_iter": 90}"#),
                r#"line 2: duplicate field "name""#,
            ),
            (
                after_row(r#"{"name": "b", "mean_ns_per_iter": {"ns": 90}}"#),
                r#"line 2: nested value in field "mean_ns_per_iter""#,
            ),
            (after_row(r#"{"name": "b"}"#), r#"line 2: missing field "mean_ns_per_iter""#),
            (after_row(row), r#"line 2: field "name" repeats "a""#),
        ] {
            assert_eq!(parse_summary(&text).unwrap_err(), err, "{text}");
        }
    }

    #[test]
    fn synthetic_regression_over_threshold_fails_the_gate() {
        // The acceptance demonstration: a >25% des_million_ranks regression
        // must flip the report to FAIL.
        let base = summary(&[("des_million_ranks/hot", 4000)]);
        let slow = summary(&[("des_million_ranks/hot", 5100)]);
        let report = diff_gates(&base, &slow, &[Gate::new("des_million_ranks/", 25.0)]).unwrap();
        assert!(!report.ok());
        assert_eq!(report.regressions().len(), 1);
        assert!((report.rows[0].delta_pct - 27.5).abs() < 0.01);
        assert!(report.render().contains("REGRESSED"));
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn regressions_within_threshold_and_speedups_pass() {
        let base = summary(&[("des_million_ranks/hot", 4000), ("des_million_ranks/cool", 100)]);
        let cur = summary(&[("des_million_ranks/hot", 4900), ("des_million_ranks/cool", 10)]);
        let report = diff_gates(&base, &cur, &[Gate::new("des_million_ranks/", 25.0)]).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn an_ungated_row_is_an_error() {
        // A 10x slower row that no gate names must not pass as a clean report.
        let gates = [Gate::new("classify/", 40.0)];
        let base = summary(&[("classify/cold500", 100), ("newgroup/x", 100)]);
        let cur = summary(&[("classify/cold500", 100), ("newgroup/x", 1000)]);
        let err = diff_gates(&base, &cur, &gates).unwrap_err();
        assert_eq!(err, r#"row "newgroup/x" matches no gate"#);
        // A row new in the current record needs a gate too.
        let base = summary(&[("classify/cold500", 100)]);
        let err = diff_gates(&base, &cur, &gates).unwrap_err();
        assert_eq!(err, r#"row "newgroup/x" matches no gate"#);
    }

    #[test]
    fn a_vanished_case_fails_the_gate() {
        let base = summary(&[("des_million_ranks/hot", 4000), ("des_million_ranks/gone", 10)]);
        let cur = summary(&[("des_million_ranks/hot", 4000)]);
        let report = diff_gates(&base, &cur, &[Gate::new("des_million_ranks/", 25.0)]).unwrap();
        assert!(!report.ok());
        assert_eq!(report.missing, vec!["des_million_ranks/gone".to_string()]);
        assert!(report.render().contains("MISSING"));
    }

    #[test]
    fn per_group_thresholds_apply_independently() {
        // 30% on the DES case (gated at 25 → fails), 30% on the vfs case
        // (gated at 40 → passes): one report, two verdicts.
        let base = summary(&[("des_million_ranks/hot", 1000), ("vfs_resolve_deep/stat", 1000)]);
        let cur = summary(&[("des_million_ranks/hot", 1300), ("vfs_resolve_deep/stat", 1300)]);
        let gates = [Gate::new("des_million_ranks/", 25.0), Gate::new("vfs_resolve_deep/", 40.0)];
        let report = diff_gates(&base, &cur, &gates).unwrap();
        assert_eq!(report.rows.len(), 2);
        let des = report.rows.iter().find(|r| r.name.starts_with("des_")).unwrap();
        let vfs = report.rows.iter().find(|r| r.name.starts_with("vfs_")).unwrap();
        assert!(des.regressed && des.threshold_pct == 25.0);
        assert!(!vfs.regressed && vfs.threshold_pct == 40.0);
        assert!(!report.ok());
        let rendered = report.render();
        assert!(rendered.contains("des_million_ranks/>25%"), "{rendered}");
        assert!(rendered.contains("vfs_resolve_deep/>40%"), "{rendered}");
    }

    #[test]
    fn the_checked_in_baseline_parses() {
        // Guards the writer and parser against drifting apart: the real
        // repo-root baseline must always be readable, and it must hold every
        // group the hotpath bench times.
        let text = include_str!("../../../BENCH_des.json");
        let s = parse_summary(text).unwrap();
        for group in ["des_million_ranks/", "loader/", "shrinkwrap_cost/", "ablations/"] {
            assert!(s.cases.iter().any(|c| c.name.starts_with(group)), "no {group} rows");
        }
    }
}
