//! The store's on-disk codec: one JSON object per line, hand-rolled.
//!
//! The workspace deliberately ships no JSON library (the vendored serde is
//! a marker-trait stand-in), so this module follows the `crates/bench`
//! `BENCH_des.json` idiom: the writer emits one fixed schema via
//! `format!`, and the reader is a scanner for exactly that schema which
//! fails loudly per record instead of guessing. Two properties the store
//! leans on:
//!
//! * **Exact round-trips.** Every float (M/G/1 bounds, sampling slack) is
//!   stored as its IEEE-754 bit pattern (`f64::to_bits`, an unsigned
//!   integer), never as decimal text — so a record read back compares
//!   `==` to the value that was written, including infinities, and the
//!   warm-vs-cold `SweepReport` equality guarantee survives the disk.
//! * **Line-local corruption.** A record is one `\n`-terminated line; a
//!   torn write (power loss mid-append) damages at most the final line,
//!   which the loader skips and counts rather than failing the store.
//!
//! [`CellRecord`] is the unit of storage: one `(scenario, rank point)`
//! result — the scenario-level profile summary plus, when the cell
//! simulated, the launch result, replicate statistics, and queueing check.

use depchaos_launch::{LaunchResult, LaunchStats, Mg1Bounds, QueueingCheck};

use crate::key::ScenarioKey;

/// The per-scenario profile summary every record of that scenario carries
/// (duplicating a few integers per rank point buys record independence:
/// any subset of a scenario's records is enough to serve that subset), and
/// the simulated payload of a cell that has one — the launch pipeline's own
/// per-cell types.
pub use depchaos_launch::{CellOutcome, ProfileSummary};

/// One stored `(scenario, rank point)` result.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    pub key: ScenarioKey,
    pub epoch: u32,
    /// The scenario label ([`depchaos_launch::ScenarioSpec::label`]) — not
    /// part of the address (the key already hashes every axis), but the
    /// handle predicate-based invalidation and store inspection work on.
    pub label: String,
    pub ranks: usize,
    pub profile: ProfileSummary,
    /// Why the cell has no outcome, when it doesn't (profile/wrap error —
    /// stored so warm replays answer error cells without re-profiling).
    pub error: Option<String>,
    pub outcome: Option<CellOutcome>,
}

/// Escape a string for a JSON string literal.
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Unescape the reader side of [`esc`]. Returns `None` on malformed
/// escapes — corrupt records must be skipped, not mis-read.
fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Extract the raw (still-escaped) JSON string following `"key":` — scans
/// for the closing quote respecting backslash escapes.
pub(crate) fn str_field(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\":"))?;
    let rest = &line[at + key.len() + 3..];
    let rest = rest.trim_start().strip_prefix('"')?;
    let mut end = None;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                end = Some(i);
                break;
            }
            _ => i += 1,
        }
    }
    unesc(&rest[..end?])
}

/// Extract the unsigned integer following `"key":`. Its digits must end the
/// JSON value — the next character is `,`, `}`, `]`, whitespace or the end
/// of the line — so `8.9`, `1e3` and `3x` are not read as their leading
/// digits.
pub(crate) fn u64_field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))?;
    let value = line[at + key.len() + 3..].trim_start();
    let end = value.find(|c: char| !c.is_ascii_digit()).unwrap_or(value.len());
    let (digits, rest) = value.split_at(end);
    let ends_value =
        rest.chars().next().is_none_or(|c| matches!(c, ',' | '}' | ']') || c.is_whitespace());
    if digits.is_empty() || !ends_value {
        None
    } else {
        digits.parse().ok()
    }
}

/// Extract the boolean following `"key":`.
fn bool_field(line: &str, key: &str) -> Option<bool> {
    let at = line.find(&format!("\"{key}\":"))?;
    let rest = line[at + key.len() + 3..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

impl CellRecord {
    /// Encode as one JSONL line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut s = format!(
            "{{\"key\":\"{}\",\"epoch\":{},\"label\":\"{}\",\"ranks\":{},\
             \"stat_openat\":{},\"misses\":{},\"complete\":{},\"unresolved\":{}",
            self.key.hex(),
            self.epoch,
            esc(&self.label),
            self.ranks,
            self.profile.stat_openat,
            self.profile.misses,
            self.profile.complete,
            self.profile.unresolved,
        );
        if let Some(e) = &self.error {
            s.push_str(&format!(",\"error\":\"{}\"", esc(e)));
        }
        if let Some(o) = &self.outcome {
            let (r, st, q, b) = (&o.result, &o.stats, &o.queueing, &o.queueing.bounds);
            s.push_str(&format!(
                ",\"launch_ns\":{},\"nodes\":{},\"server_ops\":{},\"local_ops\":{},\
                 \"peak_queue\":{},\"retries\":{},\"timeouts\":{},\"max_backoff_ns\":{},\
                 \"slowed_nodes\":{},\"reps\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\
                 \"p99_ns\":{},\"q_ranks\":{},\"q_cold_nodes\":{},\"q_ops_per_node\":{},\
                 \"q_servers\":{},\
                 \"q_util_bits\":{},\"q_wait_bits\":{},\"q_lower_ns\":{},\"q_upper_ns\":{},\
                 \"q_cv2_bits\":{},\"q_sd_bits\":{},\"q_applicable\":{},\"q_observed_ns\":{},\
                 \"q_slack_bits\":{},\"q_within\":{}",
                r.time_to_launch_ns,
                r.nodes,
                r.server_ops,
                r.local_ops,
                r.peak_queue_depth,
                r.retries_issued,
                r.timeouts_hit,
                r.max_backoff_ns,
                r.slowed_nodes,
                st.replicates,
                st.mean_ns,
                st.p50_ns,
                st.p95_ns,
                st.p99_ns,
                b.ranks,
                b.cold_nodes,
                b.server_ops_per_node,
                b.servers,
                b.utilisation.to_bits(),
                b.mean_wait_ns.to_bits(),
                b.lower_ns,
                b.upper_ns,
                b.factor_cv2.to_bits(),
                b.work_sd_ns.to_bits(),
                b.applicable,
                q.observed_mean_ns,
                q.slack_ns.to_bits(),
                q.within,
            ));
        }
        s.push('}');
        s
    }

    /// Decode one line. Errors name the first missing/malformed field; the
    /// store counts them as corrupt records and moves on.
    pub fn decode(line: &str) -> Result<CellRecord, String> {
        let line = line.trim_end();
        if !line.ends_with('}') {
            return Err("truncated record (no closing brace)".to_string());
        }
        let need_u64 =
            |key: &str| u64_field(line, key).ok_or_else(|| format!("missing field {key:?}"));
        let need_bool =
            |key: &str| bool_field(line, key).ok_or_else(|| format!("missing field {key:?}"));
        let key = str_field(line, "key")
            .and_then(|h| ScenarioKey::from_hex(&h))
            .ok_or("missing or malformed \"key\"")?;
        let epoch = need_u64("epoch")? as u32;
        let label = str_field(line, "label").ok_or("missing field \"label\"")?;
        let ranks = need_u64("ranks")? as usize;
        let profile = ProfileSummary {
            stat_openat: need_u64("stat_openat")? as usize,
            misses: need_u64("misses")? as usize,
            complete: need_bool("complete")?,
            unresolved: need_u64("unresolved")? as usize,
        };
        let error = str_field(line, "error");
        let outcome = if line.contains("\"launch_ns\":") {
            Some(CellOutcome {
                result: LaunchResult {
                    time_to_launch_ns: need_u64("launch_ns")?,
                    nodes: need_u64("nodes")? as usize,
                    server_ops: need_u64("server_ops")?,
                    local_ops: need_u64("local_ops")?,
                    peak_queue_depth: need_u64("peak_queue")? as usize,
                    retries_issued: need_u64("retries")?,
                    timeouts_hit: need_u64("timeouts")?,
                    max_backoff_ns: need_u64("max_backoff_ns")?,
                    slowed_nodes: need_u64("slowed_nodes")? as usize,
                },
                stats: LaunchStats {
                    replicates: need_u64("reps")? as usize,
                    mean_ns: need_u64("mean_ns")?,
                    p50_ns: need_u64("p50_ns")?,
                    p95_ns: need_u64("p95_ns")?,
                    p99_ns: need_u64("p99_ns")?,
                },
                queueing: QueueingCheck {
                    bounds: Mg1Bounds {
                        ranks: need_u64("q_ranks")? as usize,
                        cold_nodes: need_u64("q_cold_nodes")? as usize,
                        server_ops_per_node: need_u64("q_ops_per_node")?,
                        servers: need_u64("q_servers")? as usize,
                        utilisation: f64::from_bits(need_u64("q_util_bits")?),
                        mean_wait_ns: f64::from_bits(need_u64("q_wait_bits")?),
                        lower_ns: need_u64("q_lower_ns")?,
                        upper_ns: need_u64("q_upper_ns")?,
                        factor_cv2: f64::from_bits(need_u64("q_cv2_bits")?),
                        work_sd_ns: f64::from_bits(need_u64("q_sd_bits")?),
                        applicable: need_bool("q_applicable")?,
                    },
                    observed_mean_ns: need_u64("q_observed_ns")?,
                    slack_ns: f64::from_bits(need_u64("q_slack_bits")?),
                    within: need_bool("q_within")?,
                },
            })
        } else {
            None
        };
        Ok(CellRecord { key, epoch, label, ranks, profile, error, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ENGINE_EPOCH;

    fn sample_outcome() -> CellOutcome {
        CellOutcome {
            result: LaunchResult {
                time_to_launch_ns: 25_285_000_000,
                nodes: 4,
                server_ops: 500,
                local_ops: 1200,
                peak_queue_depth: 3,
                retries_issued: 42,
                timeouts_hit: 42,
                max_backoff_ns: 4_000_000_000,
                slowed_nodes: 2,
            },
            stats: LaunchStats {
                replicates: 11,
                mean_ns: 25_285_000_001,
                p50_ns: 25_285_000_000,
                p95_ns: 25_290_000_000,
                p99_ns: 25_299_999_999,
            },
            queueing: QueueingCheck {
                bounds: Mg1Bounds {
                    ranks: 512,
                    cold_nodes: 4,
                    server_ops_per_node: 500,
                    servers: 4,
                    utilisation: 0.37,
                    mean_wait_ns: f64::INFINITY,
                    lower_ns: 25_000_000_000,
                    upper_ns: 26_000_000_000,
                    factor_cv2: 0.2840254166877415,
                    work_sd_ns: 1.5e7,
                    applicable: true,
                },
                observed_mean_ns: 25_285_000_001,
                slack_ns: 2.7e7,
                within: true,
            },
        }
    }

    fn sample_record() -> CellRecord {
        CellRecord {
            key: ScenarioKey(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210),
            epoch: ENGINE_EPOCH,
            label: "pynamic-200/glibc/nfs/plain/cold/lognormal-500".to_string(),
            ranks: 512,
            profile: ProfileSummary {
                stat_openat: 4242,
                misses: 17,
                complete: true,
                unresolved: 0,
            },
            error: None,
            outcome: Some(sample_outcome()),
        }
    }

    #[test]
    fn round_trip_is_exact_including_floats() {
        let rec = sample_record();
        let line = rec.encode();
        assert!(!line.contains('\n'), "one record, one line");
        let back = CellRecord::decode(&line).unwrap();
        assert_eq!(back, rec);
        // The infinity survived (decimal formatting would have lost it).
        assert!(back.outcome.unwrap().queueing.bounds.mean_wait_ns.is_infinite());
    }

    #[test]
    fn error_records_round_trip_with_escapes() {
        let rec = CellRecord {
            error: Some("wrap failed: \"quoted\"\\path\n\ttail \u{1}".to_string()),
            outcome: None,
            ..sample_record()
        };
        let line = rec.encode();
        let back = CellRecord::decode(&line).unwrap();
        assert_eq!(back, rec);
        assert!(back.outcome.is_none());
    }

    #[test]
    fn truncation_is_detected_not_misread() {
        let line = sample_record().encode();
        for cut in [1usize, 7, line.len() / 2, line.len() - 1] {
            let torn = &line[..line.len() - cut];
            assert!(CellRecord::decode(torn).is_err(), "cut {cut} must not parse");
        }
    }

    #[test]
    fn missing_fields_name_themselves() {
        let line = sample_record().encode();
        let broken = line.replace("\"p95_ns\"", "\"p95_n*\"");
        let err = CellRecord::decode(&broken).unwrap_err();
        assert!(err.contains("p95_ns"), "{err}");
    }
}
