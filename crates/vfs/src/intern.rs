//! A process-wide string interner, and the two keys built on it.
//!
//! The profile→simulate hot path used to copy every path it touched: each
//! accounted syscall cloned its path into the strace log, the cost model
//! cloned it again into the attribute caches, and the loader engines cloned
//! request strings into their dedup maps. Millions of simulated ops meant
//! millions of short-lived `String`s for what is, in any one experiment, a
//! few thousand *distinct* texts.
//!
//! [`intern`] maps a text to a [`PathId`] — a 4-byte, `Copy`, hash-friendly
//! handle. The first time a string is seen it is copied **once** and leaked
//! (interned strings live for the process), and every later [`intern`] of
//! the same text is a read-locked hash lookup returning the same id.
//! [`PathId::as_str`] resolves back to the text in O(1).
//!
//! What gets interned is directory texts and names, not every path an op
//! touches. A search-path probe looks one name up in one directory, so the
//! accounting keys on the pair: a [`PathKey`] is a path split at its last
//! `/` into two interned texts, and [`Name`] carries a bare name's id so a
//! request interns it once for all the directories it is probed in. The
//! Fig 6 storm probes 900 names in up to 900 directories; keyed by pair,
//! the interner holds those 1,800 texts, not the 404,550 joined miss paths.
//!
//! Properties the rest of the workspace relies on:
//!
//! * **Content-addressed**: `intern(a) == intern(b)` iff `a == b`, and
//!   `PathKey::of(a) == PathKey::of(b)` iff `a == b`, across threads, for
//!   the life of the process — so equality of ids and keys *is* string
//!   equality and maps can key on them directly.
//! * **Stable**: ids never move or change meaning; `as_str` hands out
//!   `&'static str` without holding any lock beyond an index read.
//! * **Deterministic displays**: `Debug`/`Display` print the text (a
//!   [`PathKey`] renders its path byte for byte), so assertion failures
//!   stay readable.
//!
//! This is the workspace's one interner. It lives in `depchaos-vfs`, the
//! bottom of the crate graph, because [`crate::Syscall`] stores a
//! [`PathKey`]; every crate above imports it from here.

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
    let id = u32::try_from(w.strings.len())
        .ok()
        .filter(|&id| id != NO_DIR)
        .expect("interner overflow: > 4 billion texts");
    w.strings.push(leaked);
    w.map.insert(leaked, id);
    PathId(id)
}

/// How many distinct texts the process has interned (diagnostics: the
/// interner never frees, so this is its size).
pub fn interned() -> usize {
    interner().read().strings.len()
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

/// The `dir` of a [`PathKey`] whose text has no `/`. [`intern`] never hands
/// out this id.
const NO_DIR: u32 = u32::MAX;

/// A path interned as the pair (text before its last `/`, text after it).
///
/// The accounting key of every op: the cost model's caches and the strace
/// log hold one, and a search-path probe builds one from its directory's id
/// and the name's id without joining them. The split is at the *last* `/`
/// of the text as given, so the pair is exact for any text: `/` is
/// `("", "")`, `//x` is `("/", "x")`, `/a/` is `("/a", "")`, and a text
/// without `/` keeps no directory. Two keys are equal iff their texts are,
/// and [`fmt::Display`] reproduces the text byte for byte; the text is only
/// built when rendered.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathKey {
    dir: u32,
    name: PathId,
}

impl PathKey {
    /// The key of `path`: both halves interned.
    pub fn of(path: &str) -> PathKey {
        match path.rfind('/') {
            Some(i) => PathKey { dir: intern(&path[..i]).0, name: intern(&path[i + 1..]) },
            None => PathKey { dir: NO_DIR, name: intern(path) },
        }
    }

    /// The key of `dir` + `/` + `name`, for a `name` without `/`: what
    /// [`PathKey::of`] returns for that text, without building it.
    pub(crate) fn join(dir: PathId, name: PathId) -> PathKey {
        PathKey { dir: dir.0, name }
    }
}

impl fmt::Display for PathKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dir != NO_DIR {
            f.write_str(PathId(self.dir).as_str())?;
            f.write_str("/")?;
        }
        f.write_str(self.name.as_str())
    }
}

impl fmt::Debug for PathKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PathKey({:?})", self.to_string())
    }
}

/// A bare name to look up in many directories: its text and its id,
/// interned once per request instead of once per probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name<'a> {
    text: &'a str,
    id: PathId,
}

impl<'a> Name<'a> {
    pub fn new(text: &'a str) -> Self {
        Name { text, id: intern(text) }
    }

    pub fn as_str(&self) -> &'a str {
        self.text
    }

    pub fn id(&self) -> PathId {
        self.id
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
    fn path_keys_split_at_the_last_slash_and_render_exactly() {
        for text in ["/", "//x", "/a/", "/usr/lib/libm.so", "rel", "", "a//b/", "x/", "/#map"] {
            let key = PathKey::of(text);
            assert_eq!(key.to_string(), text);
            assert_eq!(key, PathKey::of(&key.to_string()));
        }
        assert_ne!(PathKey::of("x"), PathKey::of("/x"));
        assert_ne!(PathKey::of("/a/"), PathKey::of("/a"));
        assert_eq!(
            PathKey::join(intern("/usr/lib"), intern("libm.so")),
            PathKey::of("/usr/lib/libm.so")
        );
        assert_eq!(PathKey::join(intern(""), intern("x")), PathKey::of("/x"));
        assert_eq!(format!("{:?}", PathKey::of("/a/b")), "PathKey(\"/a/b\")");
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
