//! Property-based tests: the VFS against a simple model, and a probe
//! against the full-path open it stands in for.

use std::collections::BTreeMap;

use depchaos_vfs::{path as vpath, Backend, FileKind, Name, Op, Outcome, PathKey, Syscall, Vfs};
use proptest::prelude::*;

/// Strategy for path segments: short lowercase names.
fn segment() -> impl Strategy<Value = String> {
    "[a-z]{1,6}".prop_map(|s| s)
}

/// Strategy for absolute paths of 1..=4 segments.
fn abs_path() -> impl Strategy<Value = String> {
    prop::collection::vec(segment(), 1..=4).prop_map(|segs| format!("/{}", segs.join("/")))
}

proptest! {
    /// Writing files through the VFS matches a flat map model, as long as no
    /// path is simultaneously used as both file and directory.
    #[test]
    fn write_read_matches_model(entries in prop::collection::btree_map(abs_path(), prop::collection::vec(any::<u8>(), 0..32), 1..20)) {
        // Filter out prefix conflicts (file at /a and file at /a/b).
        let keys: Vec<&String> = entries.keys().collect();
        let mut ok = BTreeMap::new();
        'outer: for (k, v) in &entries {
            for other in &keys {
                if *other != k && other.starts_with(&format!("{k}/")) {
                    continue 'outer;
                }
                if *other != k && k.starts_with(&format!("{other}/")) {
                    continue 'outer;
                }
            }
            ok.insert(k.clone(), v.clone());
        }
        let fs = Vfs::local();
        for (k, v) in &ok {
            fs.write_file_p(k, v.clone()).unwrap();
        }
        for (k, v) in &ok {
            prop_assert_eq!(&*fs.read_file(k).unwrap(), v);
        }
    }

    /// normalize is idempotent and always yields an absolute path.
    #[test]
    fn normalize_idempotent(p in "(/[a-z.]{0,8}){1,6}/?") {
        if let Some(n1) = vpath::normalize(&p) {
            let n2 = vpath::normalize(&n1).unwrap();
            prop_assert_eq!(&n1, &n2);
            prop_assert!(n1.starts_with('/'));
        }
    }

    /// join(base, rel) always produces a normalized absolute path under base
    /// when rel has no `..`.
    #[test]
    fn join_stays_under_base(base in abs_path(), rel in segment()) {
        let j = vpath::join(&base, &rel);
        prop_assert!(j.starts_with(&base));
        prop_assert_eq!(vpath::basename(&j), rel.as_str());
    }

    /// A chain of symlinks resolves to the final target's contents.
    #[test]
    fn symlink_chain_resolves(depth in 1usize..10) {
        let fs = Vfs::local();
        fs.mkdir_p("/links").unwrap();
        fs.write_file("/links/target", vec![42]).unwrap();
        let mut prev = "target".to_string();
        for i in 0..depth {
            let name = format!("l{i}");
            fs.symlink(&format!("/links/{name}"), &prev).unwrap();
            prev = name;
        }
        prop_assert_eq!(&*fs.read_file(&format!("/links/{prev}")).unwrap(), &vec![42]);
        prop_assert_eq!(fs.canonicalize(&format!("/links/{prev}")).unwrap(), "/links/target".to_string());
    }

    /// Every accounted call counts once under its syscall and, when it
    /// fails, once as a miss; with tracing on, the strace log holds exactly
    /// those calls and sums to the simulated clock.
    #[test]
    fn counters_are_exact(ops in prop::collection::vec((0u8..7, 0usize..4), 0..60)) {
        // A file, a symlink to it, a directory and a missing path.
        const PATHS: [&str; 4] = ["/lib/real", "/lib/link", "/lib", "/lib/ghost"];
        let fs = Vfs::local();
        fs.write_file_p("/lib/real", vec![1, 2, 3]).unwrap();
        fs.symlink("/lib/link", "real").unwrap();
        fs.start_trace();
        let (mut stat, mut openat, mut read, mut readlink, mut misses) = (0, 0, 0, 0, 0);
        for &(op, p) in &ops {
            let path = PATHS[p];
            let ok = match op {
                0 => { stat += 1; fs.stat(path).is_ok() }
                1 => { stat += 1; fs.lstat(path).is_ok() }
                2 => { openat += 1; fs.open(path).is_ok() }
                3 => { openat += 1; fs.try_open(path).is_some() }
                4 => { read += 1; fs.read_file(path).is_ok() }
                5 => { readlink += 1; fs.readlink(path).is_ok() }
                _ => { read += 1; fs.charge_read(path, 4096); true }
            };
            misses += u64::from(!ok);
        }
        let log = fs.stop_trace();
        let s = fs.snapshot();
        prop_assert_eq!(
            (s.stat, s.openat, s.read, s.readlink, s.misses),
            (stat, openat, read, readlink, misses)
        );
        prop_assert_eq!(log.len() as u64, s.total());
        let failed = log.entries.iter().filter(|e| e.outcome != Outcome::Ok).count();
        prop_assert_eq!(failed as u64, s.misses);
        prop_assert_eq!(log.total_ns(), fs.elapsed_ns());
    }
}

/// One step of building a world.
#[derive(Debug, Clone)]
enum Build {
    Dir(String),
    File(String),
    Link(String, String),
}

/// Components worlds are built from; `x` never exists.
const COMPS: [&str; 4] = ["a", "b", "c", "lib"];

fn tree_path() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(COMPS.to_vec()), 1..4)
        .prop_map(|c| format!("/{}", c.join("/")))
}

/// Symlink targets: relative (a sibling, or through `..`, which can loop
/// back to the link itself), absolute, or dangling.
fn link_target() -> impl Strategy<Value = String> {
    let rel = prop::collection::vec(prop::sample::select(vec!["a", "b", "c", "lib", ".."]), 1..4);
    (0u8..4, rel, tree_path()).prop_map(|(kind, rel, abs)| match kind {
        0 | 1 => rel.join("/"),
        2 => abs,
        _ => "/gone/x".to_string(),
    })
}

fn build() -> impl Strategy<Value = Build> {
    (0u8..3, tree_path(), link_target()).prop_map(|(kind, path, target)| match kind {
        0 => Build::Dir(path),
        1 => Build::File(path),
        _ => Build::Link(path, target),
    })
}

/// Apply a step; both twins fail or succeed alike, so errors are dropped.
fn apply(fs: &Vfs, b: &Build) {
    let _ = match b {
        Build::Dir(p) => fs.mkdir_p(p),
        Build::File(p) => fs.write_file_p(p, p.as_bytes().to_vec()).map(drop),
        Build::Link(p, t) => fs.mkdir_p(&vpath::parent(p)).and_then(|_| fs.symlink(p, t)),
    };
}

/// Directory texts as search paths spell them: absolute or relative, with
/// empty, `.` and `..` segments, a missing `x`, a trailing `/`; `/`, `//x`
/// and the empty text among them.
fn dir_text() -> impl Strategy<Value = String> {
    let segs = prop::collection::vec(
        prop::sample::select(vec!["a", "b", "c", "lib", "..", ".", "", "x"]),
        0..4,
    );
    (any::<bool>(), segs, any::<bool>()).prop_map(|(absolute, segs, trailing)| {
        let mut s = if absolute { "/".to_string() } else { String::new() };
        s.push_str(&segs.join("/"));
        if trailing {
            s.push('/');
        }
        s
    })
}

fn name() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["a", "b", "c", "lib", "x", "..", ".", "", "a/b", "/a", "b/"])
}

/// One step run on both built twins.
#[derive(Debug, Clone)]
enum Step {
    Probe(usize, &'static str),
    Peek(usize, &'static str),
    Write(Build),
    DropCaches,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..10, 0usize..6, name(), build()).prop_map(|(kind, dir, name, b)| match kind {
        0..=5 => Step::Probe(dir, name),
        6 | 7 => Step::Peek(dir, name),
        8 => Step::Write(b),
        _ => Step::DropCaches,
    })
}

fn backend() -> impl Strategy<Value = Backend> {
    prop::sample::select(vec![
        Backend::local(),
        Backend::nfs(),
        Backend::nfs_with_negative_caching(),
    ])
}

/// What `Syscall`'s rendering was before keys were pairs: the path text
/// verbatim.
fn text_rendering(op: Op, path: &str, outcome: Outcome, cost_ns: u64) -> String {
    let rc = match outcome {
        Outcome::Ok => "0",
        Outcome::Enoent => "-1 ENOENT",
        Outcome::Error => "-1 ERR",
    };
    format!("{op}(\"{path}\") = {rc} <{:.6}s>", cost_ns as f64 / 1e9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On twin filesystems, a probe through a handle and an open of the
    /// joined path return the same metadata, charge the same cost, count
    /// the same syscalls and log the same line, on every backend, cold or
    /// warm, and through writes made after the handles were taken; the
    /// unaccounted `peek_in` answers what the open would, charging nothing.
    #[test]
    fn probe_is_the_open_of_the_joined_path(
        world in prop::collection::vec(build(), 0..14),
        dirs in prop::collection::vec(dir_text(), 6),
        steps in prop::collection::vec(step(), 1..40),
        backend in backend(),
    ) {
        let (probed, opened) = (Vfs::new(backend), Vfs::new(backend));
        for b in &world {
            apply(&probed, b);
            apply(&opened, b);
        }
        let handles: Vec<_> = dirs.iter().map(|d| probed.dir(d)).collect();
        prop_assert_eq!(probed.snapshot().total(), 0, "taking a handle is unaccounted");
        probed.start_trace();
        opened.start_trace();
        for s in &steps {
            match s {
                Step::Probe(d, n) => {
                    let path = vpath::join(&dirs[*d], n);
                    prop_assert_eq!(handles[*d].join(n), path.clone());
                    let got = probed.probe(&handles[*d], Name::new(n));
                    let want = opened.try_open(&path);
                    prop_assert_eq!(got, want, "{:?} in {:?}", n, dirs[*d]);
                }
                Step::Peek(d, n) => {
                    let before = probed.snapshot();
                    let got = probed.peek_in(&handles[*d], n);
                    let path = vpath::join(&dirs[*d], n);
                    let want = opened.peek(&path).ok().filter(|m| m.kind != FileKind::Dir);
                    prop_assert_eq!(got, want, "peek {:?} in {:?}", n, dirs[*d]);
                    prop_assert_eq!(probed.snapshot(), before);
                }
                Step::Write(b) => {
                    apply(&probed, b);
                    apply(&opened, b);
                }
                Step::DropCaches => {
                    probed.drop_caches();
                    opened.drop_caches();
                }
            }
            prop_assert_eq!(probed.snapshot(), opened.snapshot());
            prop_assert_eq!(probed.elapsed_ns(), opened.elapsed_ns());
        }
        let (got, want) = (probed.stop_trace(), opened.stop_trace());
        prop_assert_eq!(&got.entries, &want.entries);
        prop_assert_eq!(got.render(), want.render());
    }

    /// A key renders its text byte for byte, logs it as the text-keyed log
    /// did, and two keys are equal iff their texts are.
    #[test]
    fn keys_are_their_texts(a in "[/ab.é]{0,6}", b in "[/ab.é]{0,6}", cost in 0u64..3_000_000) {
        let (ka, kb) = (PathKey::of(&a), PathKey::of(&b));
        prop_assert_eq!(ka.to_string(), a.clone());
        prop_assert_eq!(ka == kb, a == b, "{:?} vs {:?}", a, b);
        for (op, outcome) in [(Op::Openat, Outcome::Enoent), (Op::Stat, Outcome::Ok), (Op::Read, Outcome::Error)] {
            let entry = Syscall::new(op, &a, outcome, cost);
            prop_assert_eq!(entry.to_string(), text_rendering(op, &a, outcome, cost));
            prop_assert_eq!(entry.path_str(), a.clone());
        }
    }
}
