//! Syscall accounting.
//!
//! Table II of the paper reports `stat`/`openat` counts during process
//! startup, captured with `strace`. Every accounted [`crate::Vfs`]
//! operation records itself in a [`CounterSnapshot`] kept in the same
//! record, under the same lock, as the simulated clock, the cost model's
//! caches and the strace log; tests and benches take
//! [`CounterSnapshot::since`] deltas of [`crate::Vfs::snapshot`] around
//! the region of interest.

use crate::strace::{Op, Outcome};

/// Syscall counts at one point in time, with arithmetic for deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub stat: u64,
    pub openat: u64,
    pub read: u64,
    pub readlink: u64,
    /// Failed calls (ENOENT et al.) — the wasted work the paper
    /// attributes to long search paths.
    pub misses: u64,
}

impl CounterSnapshot {
    /// Count one accounted syscall.
    pub(crate) fn record(&mut self, op: Op, outcome: Outcome) {
        *match op {
            Op::Stat => &mut self.stat,
            Op::Openat => &mut self.openat,
            Op::Read => &mut self.read,
            Op::Readlink => &mut self.readlink,
        } += 1;
        if outcome != Outcome::Ok {
            self.misses += 1;
        }
    }

    /// Total of the syscalls the paper counts in Table II (stat + openat).
    pub fn stat_openat(&self) -> u64 {
        self.stat + self.openat
    }

    /// Grand total of all recorded syscalls.
    pub fn total(&self) -> u64 {
        self.stat + self.openat + self.read + self.readlink
    }

    /// Component-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            stat: self.stat.saturating_sub(earlier.stat),
            openat: self.openat.saturating_sub(earlier.openat),
            read: self.read.saturating_sub(earlier.read),
            readlink: self.readlink.saturating_sub(earlier.readlink),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let mut c = CounterSnapshot::default();
        c.record(Op::Stat, Outcome::Ok);
        c.record(Op::Stat, Outcome::Enoent);
        c.record(Op::Openat, Outcome::Ok);
        let s1 = c;
        assert_eq!(s1.stat, 2);
        assert_eq!(s1.stat_openat(), 3);
        assert_eq!(s1.misses, 1);
        c.record(Op::Openat, Outcome::Ok);
        let d = c.since(&s1);
        assert_eq!(d.openat, 1);
        assert_eq!(d.stat, 0);
        assert_eq!(d.misses, 0);
    }
}
