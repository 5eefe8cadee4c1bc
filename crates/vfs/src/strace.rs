//! strace-style syscall logging.
//!
//! The paper captures loader behaviour with `strace` (Table II). The VFS can
//! record an equivalent trace: one [`Syscall`] per operation with its path,
//! outcome, and simulated cost. Logging is off by default (big simulations
//! would otherwise accumulate millions of entries) and enabled per-scope.
//!
//! Paths are stored as interned [`PathKey`]s — a (directory, name) pair —
//! not owned `String`s: appending an entry allocates nothing beyond the
//! log's own vector growth, and a search-path miss logs the pair its probe
//! already holds, so tracing a million-op load interns only its distinct
//! directories and names. The path text is built only when an entry is
//! rendered ([`Syscall::path_str`], [`fmt::Display`]).

use std::fmt;

use crate::intern::PathKey;

/// Which syscall an entry models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Stat,
    Openat,
    Read,
    Readlink,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Stat => "stat",
            Op::Openat => "openat",
            Op::Read => "read",
            Op::Readlink => "readlink",
        };
        f.write_str(s)
    }
}

/// Success or the errno class the loader distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Enoent,
    /// Any other error (ELOOP, ENOTDIR, EISDIR...).
    Error,
}

/// One logged syscall. `path` is interned — compare with `==` against other
/// keys (equal iff the texts are), or render the text with
/// [`Syscall::path_str`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Syscall {
    pub op: Op,
    pub path: PathKey,
    pub outcome: Outcome,
    /// Simulated cost in nanoseconds under the active backend.
    pub cost_ns: u64,
}

impl Syscall {
    /// Build an entry from path text (interning it).
    pub fn new(op: Op, path: &str, outcome: Outcome, cost_ns: u64) -> Self {
        Syscall { op, path: PathKey::of(path), outcome, cost_ns }
    }

    /// The path text of this entry, rendered from its key.
    pub fn path_str(&self) -> String {
        self.path.to_string()
    }
}

impl fmt::Display for Syscall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rc = match self.outcome {
            Outcome::Ok => "0",
            Outcome::Enoent => "-1 ENOENT",
            Outcome::Error => "-1 ERR",
        };
        write!(f, "{}(\"{}\") = {} <{:.6}s>", self.op, self.path, rc, self.cost_ns as f64 / 1e9)
    }
}

/// An owned syscall trace with summary helpers.
#[derive(Debug, Clone, Default)]
pub struct StraceLog {
    pub entries: Vec<Syscall>,
}

impl StraceLog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, s: Syscall) {
        self.entries.push(s);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count of entries matching `op`.
    pub fn count(&self, op: Op) -> usize {
        self.entries.iter().filter(|e| e.op == op).count()
    }

    /// stat + openat count — the Table II metric.
    pub fn stat_openat(&self) -> usize {
        self.count(Op::Stat) + self.count(Op::Openat)
    }

    /// Total simulated time across all entries.
    pub fn total_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.cost_ns).sum()
    }

    /// Number of failed lookups — wasted search-path work.
    pub fn misses(&self) -> usize {
        self.entries.iter().filter(|e| e.outcome == Outcome::Enoent).count()
    }

    /// Render the whole log in strace-like lines.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for e in &self.entries {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(op: Op, path: &str, outcome: Outcome, cost_ns: u64) -> Syscall {
        Syscall::new(op, path, outcome, cost_ns)
    }

    #[test]
    fn counts_and_totals() {
        let mut log = StraceLog::new();
        log.push(sc(Op::Stat, "/a", Outcome::Enoent, 10));
        log.push(sc(Op::Openat, "/b", Outcome::Ok, 20));
        log.push(sc(Op::Read, "/b", Outcome::Ok, 30));
        assert_eq!(log.stat_openat(), 2);
        assert_eq!(log.misses(), 1);
        assert_eq!(log.total_ns(), 60);
    }

    #[test]
    fn render_resembles_strace() {
        let mut log = StraceLog::new();
        log.push(sc(Op::Openat, "/lib/libm.so", Outcome::Enoent, 200_000));
        let text = log.render();
        assert!(text.contains("openat(\"/lib/libm.so\") = -1 ENOENT"));
    }
}
