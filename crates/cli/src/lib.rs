//! # depchaos-cli — command-line front ends
//!
//! Four binaries over the simulation:
//!
//! * `libtree` — builds the Listing 1 world and prints the per-object
//!   dependency tree with provenance tags, `not found` included.
//! * `shrinkwrap` — wraps a scenario binary and prints the before/after
//!   needed lists and syscall counts.
//! * `depchaos-report` — regenerates every paper table/figure as text
//!   (`fig1 fig2 fig3 fig4 table1 table2 fig6`, or `all`).
//! * `depchaos-serve` — answers JSONL what-if requests from a persistent
//!   result store, simulating only the cells the store lacks.
//!
//! The binaries operate on built-in scenario worlds (the VFS is in-memory);
//! they exist to make the experiments runnable and eyeballable without the
//! bench harness.

/// Upper bound a `--jobs N` request may ask for. Worker threads beyond
/// this are certainly a typo (`--jobs 100000`), and each one costs a
/// stack: reject with the usage error instead of silently clamping.
pub const MAX_JOBS: usize = 1024;

/// Parse and validate a `--jobs N` flag value, shared by
/// `depchaos-report` and `depchaos-serve`. Rejects non-integers, `0` (a
/// pool of zero workers cannot make progress — the old behaviour
/// silently clamped it to 1), and anything above [`MAX_JOBS`]. The `Err`
/// is the message to print before exiting with the documented usage
/// code 2.
pub fn parse_jobs(raw: &str) -> Result<usize, String> {
    let n: usize =
        raw.parse().map_err(|_| format!("--jobs needs a positive integer, got {raw:?}"))?;
    if n == 0 {
        return Err("--jobs must be at least 1".to_string());
    }
    if n > MAX_JOBS {
        return Err(format!("--jobs {n} exceeds the cap of {MAX_JOBS} worker threads"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jobs_accepts_the_sane_range_only() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs("64"), Ok(64));
        assert_eq!(parse_jobs(&MAX_JOBS.to_string()), Ok(MAX_JOBS));
        assert!(parse_jobs("0").is_err(), "zero workers is a usage error, not a clamp");
        assert!(parse_jobs(&(MAX_JOBS + 1).to_string()).is_err());
        assert!(parse_jobs("-3").is_err());
        assert!(parse_jobs("two").is_err());
        assert!(parse_jobs("").is_err());
    }
}
