//! Properties of the serve crate's one JSON line reader, through the public
//! API: the what-if request parser ([`WhatIfRequest::parse`]), the store
//! record codec ([`CellRecord`]) and the store load ([`ResultStore::open`]).
//! Anything read from outside is read strictly: no input panics, every
//! valid line reads back the values it was written from, and a line with a
//! field removed, duplicated, renamed or nested is an error that names the
//! field, which the store skips and counts.

use depchaos_launch::{
    AssignPolicy, CachePolicy, CellOutcome, FaultModel, LaunchResult, LaunchStats, MatrixBackend,
    Mg1Bounds, ProfileSummary, QueueingCheck, ServiceDistribution, WrapState, MAX_SERVICE_NS,
};
use depchaos_serve::{
    CellRecord, LoadStats, ResultStore, ScenarioKey, WhatIfRequest, ENGINE_EPOCH,
    MAX_FAULT_RETRIES, MAX_RANKS, MAX_REPLICATES, MAX_SERVERS,
};
use depchaos_vfs::StorageModel;
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;

/// Characters a string field may hold, chosen to exercise every escape and
/// the reader's separators: quotes, backslashes, control characters,
/// JSON punctuation and multi-byte UTF-8.
const TEXT: &[char] = &[
    'a', 'z', '0', '9', ' ', '-', '/', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', ',', ':',
    '{', '}', '[', ']', 'é', '→', '😀',
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.usize_between(0, from.len())]
}

fn text(rng: &mut TestRng) -> String {
    (0..rng.usize_between(0, 12)).map(|_| pick(rng, TEXT)).collect()
}

/// A JSON string literal of `s`, escaped as a client would write it.
fn literal(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Whitespace a client may put between tokens.
fn ws(rng: &mut TestRng) -> &'static str {
    pick(rng, &["", "", " ", "  ", "\t"])
}

fn fault(rng: &mut TestRng) -> FaultModel {
    match rng.below(0, 4) {
        0 => FaultModel::None,
        1 => FaultModel::ServerStall {
            at_ns: rng.below(0, MAX_SERVICE_NS + 1),
            duration_ns: rng.below(0, MAX_SERVICE_NS + 1),
        },
        2 => FaultModel::RpcLoss {
            loss_milli: rng.below(0, 1001) as u32,
            timeout_ns: rng.below(0, MAX_SERVICE_NS + 1),
            backoff_base_ns: rng.below(0, MAX_SERVICE_NS + 1),
            max_retries: rng.below(0, MAX_FAULT_RETRIES as u64 + 1) as u32,
        },
        _ => FaultModel::Stragglers {
            frac_milli: rng.below(0, 1001) as u32,
            slow_milli: rng.below(0, 1 << 20) as u32,
        },
    }
}

fn dist(rng: &mut TestRng) -> ServiceDistribution {
    match rng.below(0, 3) {
        0 => ServiceDistribution::Deterministic,
        1 => ServiceDistribution::UniformJitter { spread_milli: rng.below(0, 1000) as u32 },
        _ => ServiceDistribution::LogNormal { sigma_milli: rng.next_u64() as u32 },
    }
}

/// A what-if request: the values, and a line spelling them with its keys
/// in random order and random whitespace between tokens. Each axis is
/// absent half the time.
#[derive(Debug, Clone)]
struct Request {
    id: String,
    base: String,
    backend: Option<MatrixBackend>,
    storage: Option<StorageModel>,
    wrap: Option<WrapState>,
    cache: Option<CachePolicy>,
    dist: Option<ServiceDistribution>,
    fault: Option<FaultModel>,
    assign: Option<AssignPolicy>,
    ranks: Option<Vec<usize>>,
    servers: Option<u64>,
    servers_ideal: Option<u64>,
    replicates: Option<usize>,
    seed: Option<u64>,
    line: String,
}

fn request() -> impl Strategy<Value = Request> {
    FnStrategy(|rng: &mut TestRng| {
        let base = match rng.below(0, 6) {
            0 => format!("pynamic-{}", rng.below(1, 5001)),
            1 => format!("pynamic-rpath-{}", rng.below(1, 5001)),
            2 => format!("axom-{}", rng.next_u64()),
            3 => "rocm-4.5".to_string(),
            4 => "rocm-mixed".to_string(),
            _ => "emacs".to_string(),
        };
        let mut r = Request {
            id: text(rng),
            base,
            backend: rng.bool().then(|| {
                let all = MatrixBackend::all();
                all[rng.usize_between(0, all.len())].clone()
            }),
            storage: rng.bool().then(|| pick(rng, &StorageModel::all())),
            wrap: rng.bool().then(|| pick(rng, &WrapState::all())),
            cache: rng.bool().then(|| pick(rng, &CachePolicy::all())),
            dist: rng.bool().then(|| dist(rng)),
            fault: rng.bool().then(|| fault(rng)),
            assign: rng
                .bool()
                .then(|| pick(rng, &[AssignPolicy::HashByNode, AssignPolicy::LeastLoaded])),
            ranks: rng.bool().then(|| {
                (0..rng.usize_between(1, 5)).map(|_| rng.below(1, MAX_RANKS + 1) as usize).collect()
            }),
            servers: rng.bool().then(|| rng.below(1, MAX_SERVERS + 1)),
            servers_ideal: rng.bool().then(|| rng.below(1, MAX_SERVERS + 1)),
            replicates: rng.bool().then(|| rng.below(1, MAX_REPLICATES + 1) as usize),
            seed: rng.bool().then(|| rng.next_u64()),
            line: String::new(),
        };
        let mut fields = vec![("id", literal(&r.id)), ("base", literal(&r.base))];
        let mut axis = |key, value: Option<String>| {
            if let Some(v) = value {
                fields.push((key, v));
            }
        };
        axis("backend", r.backend.as_ref().map(|b| literal(b.name())));
        axis("storage", r.storage.map(|s| literal(s.name())));
        axis("wrap", r.wrap.map(|w| literal(w.name())));
        axis("cache", r.cache.map(|c| literal(c.name())));
        axis("dist", r.dist.map(|d| literal(&d.name())));
        axis("fault", r.fault.map(|f| literal(&f.name())));
        axis("assign", r.assign.map(|a| literal(a.name())));
        axis(
            "ranks",
            r.ranks.as_ref().map(|ranks| {
                let items: Vec<String> = ranks.iter().map(|n| n.to_string()).collect();
                format!("[{}]", items.join(&format!("{},{}", ws(rng), ws(rng))))
            }),
        );
        axis("servers", r.servers.map(|n| n.to_string()));
        axis("servers_ideal", r.servers_ideal.map(|n| n.to_string()));
        axis("replicates", r.replicates.map(|n| n.to_string()));
        axis("seed", r.seed.map(|n| n.to_string()));
        // Shuffle the keys (Fisher–Yates).
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.usize_between(0, i + 1));
        }
        let pairs: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}\"{k}\"{}:{}{v}{}", ws(rng), ws(rng), ws(rng), ws(rng)))
            .collect();
        r.line = format!("{}{{{}}}{}", ws(rng), pairs.join(","), ws(rng));
        r
    })
}

/// An IEEE-754 value the codec must carry bit for bit: infinities, signed
/// zeros, extremes and ordinary finite values (never NaN, which `==`
/// cannot compare).
fn float(rng: &mut TestRng) -> f64 {
    let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN_POSITIVE];
    if rng.bool() {
        pick(rng, &special)
    } else {
        let x = f64::from_bits(rng.next_u64());
        if x.is_nan() {
            0.37
        } else {
            x
        }
    }
}

fn record(rng: &mut TestRng) -> CellRecord {
    let n = |rng: &mut TestRng| rng.next_u64() as usize;
    let outcome = rng.bool().then(|| CellOutcome {
        result: LaunchResult {
            time_to_launch_ns: rng.next_u64(),
            nodes: n(rng),
            server_ops: rng.next_u64(),
            local_ops: rng.next_u64(),
            peak_queue_depth: n(rng),
            retries_issued: rng.next_u64(),
            timeouts_hit: rng.next_u64(),
            max_backoff_ns: rng.next_u64(),
            slowed_nodes: n(rng),
        },
        stats: LaunchStats {
            replicates: n(rng),
            mean_ns: rng.next_u64(),
            p50_ns: rng.next_u64(),
            p95_ns: rng.next_u64(),
            p99_ns: rng.next_u64(),
        },
        queueing: QueueingCheck {
            bounds: Mg1Bounds {
                ranks: n(rng),
                cold_nodes: n(rng),
                server_ops_per_node: rng.next_u64(),
                servers: n(rng),
                utilisation: float(rng),
                mean_wait_ns: float(rng),
                lower_ns: rng.next_u64(),
                upper_ns: rng.next_u64(),
                factor_cv2: float(rng),
                work_sd_ns: float(rng),
                applicable: rng.bool(),
            },
            observed_mean_ns: rng.next_u64(),
            slack_ns: float(rng),
            within: rng.bool(),
        },
    });
    CellRecord {
        key: ScenarioKey(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())),
        epoch: if rng.bool() { ENGINE_EPOCH } else { rng.next_u64() as u32 },
        label: text(rng),
        ranks: n(rng),
        profile: ProfileSummary {
            stat_openat: n(rng),
            misses: n(rng),
            complete: rng.bool(),
            unresolved: n(rng),
        },
        error: rng.bool().then(|| text(rng)),
        outcome,
    }
}

/// An encoded record line split into its `"key":value` pairs, exactly as
/// the encoder joined them (string values are scanned escape-aware).
fn pairs(line: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = &line[1..line.len() - 1];
    while !rest.is_empty() {
        let key_end = rest[1..].find('"').unwrap() + 1;
        let key = rest[1..key_end].to_string();
        let value = &rest[key_end + 2..];
        let len = if let Some(quoted) = value.strip_prefix('"') {
            let mut escaped = false;
            let close = quoted
                .char_indices()
                .find(|&(_, c)| {
                    let end = c == '"' && !escaped;
                    escaped = c == '\\' && !escaped;
                    end
                })
                .unwrap()
                .0;
            close + 2
        } else {
            value.find(',').unwrap_or(value.len())
        };
        out.push((key, value[..len].to_string()));
        rest = value[len..].strip_prefix(',').unwrap_or("");
    }
    out
}

fn join(pairs: &[(String, String)]) -> String {
    let items: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", items.join(","))
}

/// Replace a few bytes of `line` with JSON punctuation, quotes, digits or
/// multi-byte characters, or delete or duplicate a stretch of it.
fn mangle(rng: &mut TestRng, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..rng.usize_between(1, 4) {
        if chars.is_empty() {
            break;
        }
        let at = rng.usize_between(0, chars.len());
        match rng.below(0, 3) {
            0 => chars[at] = pick(rng, TEXT),
            1 => {
                let end = (at + rng.usize_between(1, 8)).min(chars.len());
                chars.drain(at..end);
            }
            _ => {
                let end = (at + rng.usize_between(1, 8)).min(chars.len());
                let copy: Vec<char> = chars[at..end].to_vec();
                chars.splice(at..at, copy);
            }
        }
    }
    chars.into_iter().collect()
}

/// A fresh store directory per test and case.
fn store_dir(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("depchaos-prop-codec-{}-{tag}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Open a store whose log holds exactly `bytes`.
fn open_log(tag: &str, case: u64, bytes: &[u8]) -> LoadStats {
    let dir = store_dir(tag, case);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("store.jsonl"), bytes).unwrap();
    let stats = ResultStore::open(&dir).expect("a readable log always opens").load_stats();
    std::fs::remove_dir_all(&dir).unwrap();
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No byte string panics either reader, whether it is noise or a valid
    /// line with a few bytes mangled.
    #[test]
    fn no_input_panics_the_readers(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
        (req, rec, salt) in (request(), FnStrategy(record), any::<u64>()),
    ) {
        let noise = String::from_utf8_lossy(&bytes);
        let _ = WhatIfRequest::parse(&noise);
        let _ = CellRecord::decode(&noise);
        let mut rng = TestRng::new(salt);
        let _ = WhatIfRequest::parse(&mangle(&mut rng, &req.line));
        let _ = CellRecord::decode(&mangle(&mut rng, &rec.encode()));
    }

    /// A log of arbitrary bytes opens: every line is loaded, evicted or
    /// skipped and counted, and none is fatal.
    #[test]
    fn any_log_opens(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
        case in any::<u64>(),
    ) {
        let lines = bytes.split(|&b| b == b'\n').filter(|l| !l.trim_ascii().is_empty()).count();
        let stats = open_log("noise", case, &bytes);
        prop_assert!(stats.loaded + stats.corrupt_skipped + stats.epoch_evicted <= lines);
    }

    /// Every generated request, its keys in any order and any whitespace
    /// between its tokens, parses back to the values it was built from.
    #[test]
    fn requests_read_back_what_they_were_built_from(r in request()) {
        let q = WhatIfRequest::parse(&r.line).unwrap_or_else(|e| panic!("{}: {e}", r.line));
        prop_assert_eq!(&q.id, &r.id);
        prop_assert_eq!(&q.base, &r.base);
        prop_assert_eq!(q.backend.name(), r.backend.as_ref().map_or("glibc", |b| b.name()));
        prop_assert_eq!(q.storage, r.storage.unwrap_or(StorageModel::Nfs));
        prop_assert_eq!(q.wrap, r.wrap.unwrap_or(WrapState::Plain));
        prop_assert_eq!(q.cache, r.cache.unwrap_or(CachePolicy::Cold));
        prop_assert_eq!(q.dist, r.dist.unwrap_or(ServiceDistribution::Deterministic));
        prop_assert_eq!(q.fault, r.fault.unwrap_or(FaultModel::None));
        prop_assert_eq!(q.assign, r.assign.unwrap_or(AssignPolicy::HashByNode));
        prop_assert_eq!(&q.ranks, r.ranks.as_ref().unwrap_or(&vec![512, 1024, 2048]));
        prop_assert_eq!(q.servers, r.servers.unwrap_or(1));
        prop_assert_eq!(q.servers_ideal, r.servers_ideal.unwrap_or(1));
        prop_assert_eq!(q.replicates, r.replicates.unwrap_or(depchaos_launch::DEFAULT_REPLICATES));
        prop_assert_eq!(q.seed, r.seed);
    }

    /// Every generated record, infinities and escaped labels included,
    /// decodes to itself and re-encodes to the same bytes.
    #[test]
    fn records_round_trip(rec in FnStrategy(record)) {
        let line = rec.encode();
        let back = CellRecord::decode(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        prop_assert_eq!(&back, &rec);
        prop_assert_eq!(back.encode(), line);
    }

    /// A record line with any one field removed, duplicated, renamed to a
    /// key the format does not know, or nested is an error naming that
    /// field, and the store skips and counts every such line while still
    /// loading its neighbours.
    #[test]
    fn a_damaged_field_names_itself_and_is_skipped(rec in FnStrategy(record), case in any::<u64>()) {
        let line = rec.encode();
        let fields = pairs(&line);
        prop_assert_eq!(join(&fields), line.clone());
        let mut damaged_lines = Vec::new();
        for (i, key) in fields.iter().map(|(k, _)| k).enumerate() {
            for damage in 0..4 {
                let mut damaged = fields.clone();
                let needle = match damage {
                    // Without `error` a record is still whole.
                    0 if key == "error" => continue,
                    // Without `launch_ns` the outcome fields are unknown,
                    // and the first of them is named.
                    0 if key == "launch_ns" => {
                        damaged.remove(i);
                        "unknown field \"nodes\"".to_string()
                    }
                    0 => {
                        damaged.remove(i);
                        format!("missing field \"{key}\"")
                    }
                    1 => {
                        damaged.insert(i, fields[i].clone());
                        format!("duplicate field \"{key}\"")
                    }
                    2 => {
                        damaged[i].0 = format!("{key}_x");
                        format!("\"{key}")
                    }
                    _ => {
                        damaged[i].1 = format!("{{\"{key}\":{}}}", fields[i].1);
                        format!("nested value in field \"{key}\"")
                    }
                };
                let damaged = join(&damaged);
                let err = CellRecord::decode(&damaged).unwrap_err();
                prop_assert!(err.contains(&needle), "{} -> {}", damaged, err);
                damaged_lines.push(damaged);
            }
        }

        let live = |k: u128| CellRecord { key: ScenarioKey(k), epoch: ENGINE_EPOCH, ..rec.clone() };
        let log = format!("{}\n{}\n{}\n", live(1).encode(), damaged_lines.join("\n"), live(2).encode());
        let stats = open_log("damaged", case, log.as_bytes());
        let corrupt_skipped = damaged_lines.len();
        prop_assert_eq!(stats, LoadStats { loaded: 2, corrupt_skipped, ..LoadStats::default() });
    }
}
