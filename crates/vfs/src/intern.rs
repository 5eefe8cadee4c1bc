//! A process-wide path string interner.
//!
//! The profile→simulate hot path used to copy every path it touched: each
//! accounted syscall cloned its path into the strace log, the cost model
//! cloned it again into the attribute caches, and the loader engines cloned
//! request strings into their dedup maps. Millions of simulated ops meant
//! millions of short-lived `String`s for what is, in any one experiment, a
//! few thousand *distinct* paths.
//!
//! [`intern`] maps a path to a [`PathId`] — a 4-byte, `Copy`, hash-friendly
//! handle. The first time a string is seen it is copied **once** and leaked
//! (interned strings live for the process; the set of distinct paths is
//! bounded by the worlds the experiments build, not by op counts), and every
//! later [`intern`] of the same text is a read-locked hash lookup returning
//! the same id. [`PathId::as_str`] resolves back to the text in O(1).
//!
//! Properties the rest of the workspace relies on:
//!
//! * **Content-addressed**: `intern(a) == intern(b)` iff `a == b`, across
//!   threads, for the life of the process — so `PathId` equality *is*
//!   string equality and dedup maps can key on it directly.
//! * **Stable**: ids never move or change meaning; `as_str` hands out
//!   `&'static str` without holding any lock beyond an index read.
//! * **Deterministic displays**: `Debug`/`Display` print the interned text,
//!   so assertion failures stay readable.
//!
//! This is the workspace's one interner. It lives in `depchaos-vfs`, the
//! bottom of the crate graph, because [`crate::Syscall`] stores a
//! [`PathId`]; every crate above imports it from here.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use parking_lot::RwLock;

/// An interned path: a dense `u32` handle into the process-wide interner.
///
/// The raw `u32` is meaningless outside the process that interned it:
/// anything persisted must carry the path text ([`PathId::as_str`]) and
/// re-intern it on the way back in ([`intern`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner { map: HashMap::new(), strings: Vec::new() }))
}

/// Intern `s`, returning the stable [`PathId`] for its text.
///
/// The common (already-interned) case is a shared-lock hash lookup with no
/// allocation; only the first sighting of a string takes the write lock and
/// copies it.
pub fn intern(s: &str) -> PathId {
    let lock = interner();
    if let Some(&id) = lock.read().map.get(s) {
        return PathId(id);
    }
    let mut w = lock.write();
    if let Some(&id) = w.map.get(s) {
        return PathId(id);
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    let id = u32::try_from(w.strings.len()).expect("interner overflow: > 4 billion paths");
    w.strings.push(leaked);
    w.map.insert(leaked, id);
    PathId(id)
}

impl PathId {
    /// The interned text. O(1); the returned reference is `'static` because
    /// interned strings are never freed.
    pub fn as_str(self) -> &'static str {
        interner().read().strings[self.0 as usize]
    }

    /// The raw handle value (diagnostics; dense from 0 in intern order).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PathId({:?})", self.as_str())
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for PathId {
    fn from(s: &str) -> Self {
        intern(s)
    }
}

impl PartialEq<&str> for PathId {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<PathId> for &str {
    fn eq(&self, other: &PathId) -> bool {
        *self == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_text_same_id() {
        let a = intern("/usr/lib/libm.so.6");
        let b = intern("/usr/lib/libm.so.6");
        let c = intern("/usr/lib/libm.so");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "/usr/lib/libm.so.6");
    }

    #[test]
    fn str_comparisons_and_display() {
        let id = intern("/opt/x");
        assert_eq!(id, "/opt/x");
        assert_eq!("/opt/x", id);
        assert_eq!(id.to_string(), "/opt/x");
        assert_eq!(format!("{id:?}"), "PathId(\"/opt/x\")");
    }

    #[test]
    fn concurrent_interning_converges() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..100).map(|i| intern(&format!("/race/{i}"))).collect::<Vec<_>>()
                })
            })
            .collect();
        let ids: Vec<Vec<PathId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &ids[1..] {
            assert_eq!(&ids[0], other, "every thread sees the same ids");
        }
    }
}
