//! `bench-diff` — the CI perf-regression gate over `BENCH_des.json`.
//!
//! Usage:
//!
//! ```text
//! bench-diff <baseline.json> <current.json> --gate PREFIX=PCT... [--report FILE]
//! ```
//!
//! Compares the fresh summary against the checked-in baseline and exits
//! non-zero when any watched case's `mean_ns_per_iter` regressed beyond its
//! group's threshold or vanished. `--gate` is repeatable and names one
//! watched group with its own threshold (a case is judged by the first
//! matching gate); at least one is required, and every row of both
//! summaries must match one. Exit codes: 0 pass, 1 regression, 2 usage or
//! parse error (a missing `--gate` among them) or a row no gate names.

use depchaos_bench::diff::{diff_gates, parse_summary, Gate};

fn fail_usage(msg: &str) -> ! {
    eprintln!("bench-diff: {msg}");
    eprintln!(
        "usage: bench-diff <baseline.json> <current.json> --gate PREFIX=PCT... [--report FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut gates: Vec<Gate> = Vec::new();
    let mut report_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value_of = |flag: &str| {
            args.next().unwrap_or_else(|| fail_usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--gate" => {
                let spec = value_of("--gate");
                let Some((p, pct)) = spec.split_once('=') else {
                    fail_usage("--gate takes PREFIX=PCT");
                };
                let pct: f64 =
                    pct.parse().unwrap_or_else(|_| fail_usage("--gate threshold must be a number"));
                gates.push(Gate::new(p, pct));
            }
            "--report" => report_path = Some(value_of("--report")),
            flag if flag.starts_with("--") => fail_usage(&format!("unknown flag {flag}")),
            path => paths.push(path.to_string()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        fail_usage("expected exactly two summary paths");
    };
    if gates.is_empty() {
        fail_usage("at least one --gate PREFIX=PCT is required");
    }

    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| fail_usage(&format!("read {p}: {e}")))
    };
    let baseline = parse_summary(&read(baseline_path))
        .unwrap_or_else(|e| fail_usage(&format!("{baseline_path}: {e}")));
    let current = parse_summary(&read(current_path))
        .unwrap_or_else(|e| fail_usage(&format!("{current_path}: {e}")));

    let report = diff_gates(&baseline, &current, &gates).unwrap_or_else(|e| fail_usage(&e));
    let rendered = report.render();
    print!("{rendered}");
    if let Some(p) = report_path {
        if let Err(e) = std::fs::write(&p, &rendered) {
            fail_usage(&format!("write {p}: {e}"));
        }
    }
    std::process::exit(if report.ok() { 0 } else { 1 });
}
