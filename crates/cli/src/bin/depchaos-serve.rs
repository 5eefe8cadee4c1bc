//! `depchaos-serve` — the batched what-if front door over the persistent
//! result store.
//!
//! ```text
//! depchaos-serve --store DIR --requests FILE [--out FILE] [--stats FILE]
//!                [--jobs N] [--compact]
//! ```
//!
//! Reads one what-if request per JSONL line from `--requests` (`-` for
//! stdin) — see `depchaos_serve::requests` for the format: `servers: N`
//! models the N-server metadata fleet (the DES topology axis, with
//! `assign` choosing `hash` or `least` routing), while `servers_ideal: N`
//! keeps the old coordination-free division of the per-op service time —
//! answers warm queries straight from the store under `--store` (created
//! on first use), profiles only the cold cells, batch-simulates the misses
//! in one planner pass, and appends every fresh result to the store.
//! A request with an unknown, duplicate or nested field, an integer that
//! is not plain ASCII digits, a zero rank count or replicate count, or a
//! rank count or fleet above its bound answers one error line naming the
//! field, and a line that is not UTF-8 answers one error line under
//! `line-N` (exit code 1 either way). `--help` or `-h` prints the flags
//! and the exit codes to stdout.
//! `--jobs N` (default: the machine's parallelism; `0` or anything past
//! the shared cap is the exit-2 usage error) runs the misses on N worker
//! threads, profiling and kernel solving alike. Answers are bit-identical
//! for every N; peak memory grows with N × the largest kernel in flight.
//! Answers (simulator-deterministic JSONL, byte-identical across replays)
//! go to `--out` or stdout; the batch/per-query hit-miss-latency
//! accounting and the store's load stats go to `--stats` or stderr.
//! `--compact` rewrites the store log afterwards, shedding duplicate and
//! dead bytes.
//!
//! Exit codes (uniform across the depchaos CLIs):
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | every request parsed and was answered (error *cells* are answers) |
//! | 1 | partial failure — a request failed to parse, or a cell's profiling panicked (the panic is isolated: every other cell still answers, the poisoned cell answers with an error line and is never persisted) |
//! | 2 | usage or I/O error — bad flags, unreadable input, store failure |

use std::io::Read;
use std::path::Path;

use depchaos_launch::ProfileCache;
use depchaos_serve::{default_jobs, serve_batch, ResultStore};

const USAGE: &str = "usage: depchaos-serve --store DIR --requests FILE \
                     [--out FILE] [--stats FILE] [--jobs N] [--compact]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The `--help` text: the flags and the exit codes.
fn print_usage() {
    println!(
        "{USAGE}\n\
         \n\
         Answers one what-if request per JSONL line, warm cells from the store.\n\
         \n\
         flags:\n  \
           --store DIR      the result store's directory, created on first use\n  \
           --requests FILE  the JSONL requests (`-` for stdin)\n  \
           --out FILE       write the answers here (default: stdout)\n  \
           --stats FILE     write the hit/miss/latency accounting here (default: stderr)\n  \
           --jobs N         worker threads for profiling and kernel solving \
                            (default: the machine's parallelism)\n  \
           --compact        rewrite the store log afterwards, shedding dead bytes\n  \
           -h, --help       print this help and exit\n\
         \n\
         exit codes:\n  \
           0  every request parsed and was answered (error cells are answers)\n  \
           1  partial failure: a request failed to parse, or a cell's profiling panicked\n  \
           2  usage or I/O error: bad flags, unreadable input, store failure"
    );
}

fn main() {
    let mut store_dir: Option<String> = None;
    let mut requests: Option<String> = None;
    let mut out: Option<String> = None;
    let mut stats_path: Option<String> = None;
    let mut jobs = default_jobs();
    let mut compact = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--help" | "-h" => return print_usage(),
            "--store" => store_dir = Some(value("--store")),
            "--requests" => requests = Some(value("--requests")),
            "--out" => out = Some(value("--out")),
            "--stats" => stats_path = Some(value("--stats")),
            "--jobs" => match depchaos_cli::parse_jobs(&value("--jobs")) {
                Ok(n) => jobs = n,
                Err(e) => {
                    eprintln!("{e}");
                    usage()
                }
            },
            "--compact" => compact = true,
            _ => {
                eprintln!("unknown argument {a:?}");
                usage()
            }
        }
    }
    let Some(store_dir) = store_dir else {
        eprintln!("--store is required");
        usage()
    };
    let Some(requests) = requests else {
        eprintln!("--requests is required");
        usage()
    };

    let input = if requests == "-" {
        let mut buf = Vec::new();
        if let Err(e) = std::io::stdin().read_to_end(&mut buf) {
            eprintln!("cannot read stdin: {e}");
            std::process::exit(2);
        }
        buf
    } else {
        match std::fs::read(&requests) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {requests}: {e}");
                std::process::exit(2);
            }
        }
    };

    let store = match ResultStore::open(Path::new(&store_dir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open store {store_dir}: {e}");
            std::process::exit(2);
        }
    };

    let report = match serve_batch(&input, &store, &ProfileCache::new(), jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("store I/O error: {e}");
            std::process::exit(2);
        }
    };

    let answers = report.answers_jsonl();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &answers) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
        None => print!("{answers}"),
    }
    let stats = report.stats_json(&store);
    match &stats_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &stats) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
        None => eprint!("{stats}"),
    }

    if compact {
        match store.compact() {
            Ok(n) => eprintln!("(compacted store to {n} records)"),
            Err(e) => {
                eprintln!("compaction failed: {e}");
                std::process::exit(2);
            }
        }
    }

    if report.had_errors() {
        std::process::exit(1);
    }
}
