//! Property-based tests: the VFS against a simple model.

use std::collections::BTreeMap;

use depchaos_vfs::{path as vpath, Outcome, Vfs};
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
