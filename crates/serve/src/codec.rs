//! The store's on-disk codec, and the workspace's one JSON-line reader.
//!
//! The workspace ships no JSON library (the vendored serde is a
//! marker-trait stand-in). Each writer emits one fixed schema via
//! `format!`, and one reader, [`Fields`], reads flat objects of strings,
//! unsigned integers, booleans and integer lists: store records, what-if
//! requests, and `crates/bench`'s `BENCH_des.json` rows alike. It fails
//! loudly instead of guessing: an unknown, duplicate or nested field is an
//! error naming the field, and integers are ASCII digits only. Two
//! properties the store leans on:
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

use std::collections::HashSet;

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
                if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return None;
                }
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// How a getter reads one raw value: `None` when it has another shape.
pub type Shape<T> = fn(&str) -> Option<T>;

/// One JSON object line as its top-level `"key": value` pairs, each value
/// still raw, read by a getter in one [`Shape`] (such as [`string`] or
/// [`uint`]), the getters' read marks, and the error where the line breaks
/// off, if it does.
pub struct Fields<'a>(Vec<(&'a str, &'a str, bool)>, Option<String>);

impl<'a> Fields<'a> {
    /// Split `line` in one pass, up to its first structural error: a nested
    /// object or list, a duplicate key, a trailing comma or text after a
    /// value, each naming its field. The pairs before the error stay
    /// readable (an error answer keeps its `id`).
    pub fn parse(line: &'a str) -> Fields<'a> {
        let mut f = Fields(Vec::new(), None);
        f.1 = f.split(line).err();
        f
    }

    fn split(&mut self, line: &'a str) -> Result<(), String> {
        let body = line.trim_ascii().strip_prefix('{').ok_or("not a JSON object")?;
        let (mut rest, mut seen) = (body.trim_ascii_start(), HashSet::new());
        while rest != "}" {
            let (key, after) = literal(rest).ok_or("expected a quoted field name")?;
            let bad = |what: &str| format!("{what} field {key:?}");
            let value = after.trim_ascii_start().strip_prefix(':').map(str::trim_ascii_start);
            let value = value.ok_or_else(|| bad("no ':' after"))?;
            let len = match value.as_bytes().first() {
                Some(b'"') => {
                    literal(value).ok_or_else(|| bad("unterminated string in"))?.0.len() + 2
                }
                Some(b'[') => match value.find(']') {
                    Some(n) if !value[1..n].contains(['[', '{', '"']) => n + 1,
                    Some(_) => return Err(bad("nested value in")),
                    None => return Err(bad("unterminated list in")),
                },
                Some(b'{') => return Err(bad("nested value in")),
                _ => value.find([',', '}']).unwrap_or(value.len()),
            };
            if !seen.insert(key) {
                return Err(bad("duplicate"));
            }
            self.0.push((key, value[..len].trim_ascii_end(), false));
            rest = value[len..].trim_ascii_start();
            match rest.strip_prefix(',').map(str::trim_ascii_start) {
                Some(next) if next.starts_with('}') => return Err(bad("trailing comma after")),
                Some(next) => rest = next,
                None if rest != "}" => return Err(bad("expected ',' or '}' after")),
                None => {}
            }
        }
        Ok(())
    }

    /// The value of `key` read in `shape`: `None` when an intact line has
    /// no `key`, the line's break when a broken one has none before it. A
    /// value of another shape is an error naming the field.
    pub fn get<T>(&mut self, key: &str, shape: Shape<T>) -> Result<Option<T>, String> {
        let Some(pair) = self.0.iter_mut().find(|p| p.0 == key) else {
            return self.1.clone().map_or(Ok(None), Err);
        };
        pair.2 = true;
        shape(pair.1).map(Some).ok_or_else(|| format!("malformed field {key:?}"))
    }

    /// [`Fields::get`] for a field the line must have.
    pub fn need<T>(&mut self, key: &str, shape: Shape<T>) -> Result<T, String> {
        self.get(key, shape)?.ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Names the first field no getter read, or else the line's break.
    pub fn finish(self) -> Result<(), String> {
        let unread = self.0.iter().find(|p| !p.2).map(|p| format!("unknown field {:?}", p.0));
        unread.or(self.1).map_or(Ok(()), Err)
    }
}

/// The escaped text of the string literal opening `s`, and the text after it.
fn literal(s: &str) -> Option<(&str, &str)> {
    let mut escaped = false;
    let end = s.strip_prefix('"')?.find(|c| {
        let end = c == '"' && !escaped;
        escaped = c == '\\' && !escaped;
        end
    })?;
    Some((&s[1..end + 1], &s[end + 2..]))
}

/// A string value: exactly one literal, unescaped.
pub fn string(raw: &str) -> Option<String> {
    unesc(raw.strip_prefix('"')?.strip_suffix('"')?)
}

/// An unsigned integer value: ASCII digits only, within `u64`, and no
/// leading zero unless the value is `0`, as JSON spells integers.
pub fn uint(raw: &str) -> Option<u64> {
    let canonical = raw == "0" || !raw.starts_with('0');
    (canonical && raw.bytes().all(|b| b.is_ascii_digit())).then(|| raw.parse().ok())?
}

/// A boolean value: `true` or `false`.
pub(crate) fn boolean(raw: &str) -> Option<bool> {
    raw.parse().ok()
}

/// A non-empty list of unsigned integers.
pub(crate) fn uint_list(raw: &str) -> Option<Vec<u64>> {
    raw.strip_prefix('[')?.strip_suffix(']')?.split(',').map(|n| uint(n.trim_ascii())).collect()
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

    /// Decode one line. Errors name the first missing, malformed or
    /// unknown field; the store counts them as corrupt records and moves
    /// on.
    pub fn decode(line: &str) -> Result<CellRecord, String> {
        let mut f = Fields::parse(line);
        let key = f.need("key", |v| ScenarioKey::from_hex(&string(v)?))?;
        let epoch = f.need("epoch", |v| u32::try_from(uint(v)?).ok())?;
        let label = f.need("label", string)?;
        let ranks = f.need("ranks", uint)? as usize;
        let profile = ProfileSummary {
            stat_openat: f.need("stat_openat", uint)? as usize,
            misses: f.need("misses", uint)? as usize,
            complete: f.need("complete", boolean)?,
            unresolved: f.need("unresolved", uint)? as usize,
        };
        let error = f.get("error", string)?;
        let outcome = match f.get("launch_ns", uint)? {
            None => None,
            Some(time_to_launch_ns) => Some(CellOutcome {
                result: LaunchResult {
                    time_to_launch_ns,
                    nodes: f.need("nodes", uint)? as usize,
                    server_ops: f.need("server_ops", uint)?,
                    local_ops: f.need("local_ops", uint)?,
                    peak_queue_depth: f.need("peak_queue", uint)? as usize,
                    retries_issued: f.need("retries", uint)?,
                    timeouts_hit: f.need("timeouts", uint)?,
                    max_backoff_ns: f.need("max_backoff_ns", uint)?,
                    slowed_nodes: f.need("slowed_nodes", uint)? as usize,
                },
                stats: LaunchStats {
                    replicates: f.need("reps", uint)? as usize,
                    mean_ns: f.need("mean_ns", uint)?,
                    p50_ns: f.need("p50_ns", uint)?,
                    p95_ns: f.need("p95_ns", uint)?,
                    p99_ns: f.need("p99_ns", uint)?,
                },
                queueing: QueueingCheck {
                    bounds: Mg1Bounds {
                        ranks: f.need("q_ranks", uint)? as usize,
                        cold_nodes: f.need("q_cold_nodes", uint)? as usize,
                        server_ops_per_node: f.need("q_ops_per_node", uint)?,
                        servers: f.need("q_servers", uint)? as usize,
                        utilisation: f64::from_bits(f.need("q_util_bits", uint)?),
                        mean_wait_ns: f64::from_bits(f.need("q_wait_bits", uint)?),
                        lower_ns: f.need("q_lower_ns", uint)?,
                        upper_ns: f.need("q_upper_ns", uint)?,
                        factor_cv2: f64::from_bits(f.need("q_cv2_bits", uint)?),
                        work_sd_ns: f64::from_bits(f.need("q_sd_bits", uint)?),
                        applicable: f.need("q_applicable", boolean)?,
                    },
                    observed_mean_ns: f.need("q_observed_ns", uint)?,
                    slack_ns: f64::from_bits(f.need("q_slack_bits", uint)?),
                    within: f.need("q_within", boolean)?,
                },
            }),
        };
        f.finish()?;
        Ok(CellRecord { key, epoch, label, ranks, profile, error, outcome })
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

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
        // `from_str_radix` alone would read `+001` as hex.
        let signed = line.replace("\\u0001", "\\u+001");
        assert_ne!(signed, line);
        assert_eq!(CellRecord::decode(&signed).unwrap_err(), "malformed field \"error\"");
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

    #[test]
    fn many_distinct_keys_read_in_linear_time() {
        let mut line = sample_record().encode();
        line.pop();
        for i in 0..200_000 {
            line.push_str(&format!(",\"x{i}\":0"));
        }
        line.push('}');
        let t0 = Instant::now();
        let err = CellRecord::decode(&line).unwrap_err();
        let elapsed = t0.elapsed();
        assert_eq!(err, "unknown field \"x0\"");
        // A pairwise duplicate check would take minutes here.
        assert!(elapsed.as_secs_f64() < 5.0, "2 MB line took {elapsed:?}");
    }

    /// No encoder writes a leading zero, so a record that has one was not
    /// written by this format: the line is malformed, naming the field, and
    /// a store skips and counts it.
    #[test]
    fn a_leading_zero_is_malformed() {
        assert_eq!(
            (uint("0"), uint("512"), uint("0512"), uint("00")),
            (Some(0), Some(512), None, None)
        );
        let line = sample_record().encode();
        let padded = line.replace("\"ranks\":512,", "\"ranks\":0512,");
        assert_ne!(padded, line);
        assert_eq!(CellRecord::decode(&padded).unwrap_err(), "malformed field \"ranks\"");
        let dir = std::env::temp_dir()
            .join(format!("depchaos-codec-test-{}-leading-zero", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("store.jsonl"), format!("{line}\n{padded}\n")).unwrap();
        let stats = crate::ResultStore::open(&dir).unwrap().load_stats();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(stats, crate::LoadStats { loaded: 1, corrupt_skipped: 1, ..Default::default() });
    }

    #[test]
    fn an_epoch_beyond_u32_is_malformed_not_truncated() {
        let line = sample_record().encode();
        let wide = line.replace(&format!("\"epoch\":{ENGINE_EPOCH},"), "\"epoch\":4294967300,");
        assert_ne!(wide, line);
        assert_eq!(4_294_967_300u64 as u32, ENGINE_EPOCH, "the value truncates to the live epoch");
        let err = CellRecord::decode(&wide).unwrap_err();
        assert!(err.contains("\"epoch\""), "{err}");
    }
}
