//! The persistent, content-addressed result store.
//!
//! A [`ResultStore`] is an in-memory index over [`CellRecord`]s, optionally
//! backed by an append-only `store.jsonl` under a target directory:
//!
//! * **Load** reads the log line by line, as bytes. A line that is not
//!   UTF-8 or fails to decode (torn final write, bit rot, or an unknown,
//!   duplicate, nested or out-of-range field) is skipped and counted;
//!   records written under a different [`ENGINE_EPOCH`] are
//!   evicted and counted; duplicate keys resolve last-write-wins (the log
//!   is append-only, so the latest append is the latest truth). Loading
//!   never panics on store contents.
//! * **Append** writes one line per record in one `write_all` and flushes
//!   — a crash tears at most the final line, which the next load skips. A
//!   log that ends mid-line gets a `\n` before the first append, so the
//!   torn line never swallows a new record.
//! * **Compact** rewrites the log from the live index (dropping duplicate,
//!   corrupt, and wrong-epoch bytes) into a temporary file, fsyncs it, and
//!   atomically renames it over the old log, sorted by (label, ranks,
//!   key): records that share a label and a rank point (the same cell
//!   under another seed, replicate count or calibration) still have one
//!   order, so two stores of the same records compact to the same bytes
//!   and compacted stores diff cleanly. A crash at any instant leaves either
//!   the old log or the new one — never a mix, and a stale `.tmp` from a
//!   killed compaction is simply ignored (and overwritten) next time.
//!
//! Invalidation is mostly implicit — the key hashes every semantic input,
//! so an edited axis simply stops matching — but [`ResultStore::invalidate_where`]
//! exists for explicit eviction ("drop everything touching this workload")
//! without recomputing keys.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::codec::CellRecord;
use crate::key::{ScenarioKey, ENGINE_EPOCH};

/// What loading an on-disk log found — surfaced in store stats and the CI
/// artifact so corruption is visible, not silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Live records in the index after the load.
    pub loaded: usize,
    /// Lines that failed to decode and were skipped.
    pub corrupt_skipped: usize,
    /// Records evicted because their epoch is not [`ENGINE_EPOCH`].
    pub epoch_evicted: usize,
    /// Re-appended keys resolved last-write-wins.
    pub duplicates: usize,
}

struct Inner {
    index: HashMap<ScenarioKey, CellRecord>,
    /// Open append handle, lazily created on first write.
    writer: Option<File>,
    /// The log may end mid-line (a torn append found at load, or an append
    /// that failed part-way): the next append starts a fresh line first.
    torn_tail: bool,
}

/// The content-addressed result store. Cheap to share by reference across
/// executor threads — all state is behind one mutex, and the hot path
/// (warm lookup) is a hash probe plus a record clone.
pub struct ResultStore {
    path: Option<PathBuf>,
    inner: Mutex<Inner>,
    load_stats: LoadStats,
}

impl ResultStore {
    /// A store with no disk backing — same semantics, process lifetime.
    /// (The report CLI uses this when `--store` is absent so the warm/cold
    /// machinery is one code path.)
    pub fn in_memory() -> ResultStore {
        ResultStore {
            path: None,
            inner: Mutex::new(Inner { index: HashMap::new(), writer: None, torn_tail: false }),
            load_stats: LoadStats::default(),
        }
    }

    /// Open (creating if needed) the store under `dir`. The log lives at
    /// `dir/store.jsonl`. Corrupt lines and wrong-epoch records are
    /// counted in [`ResultStore::load_stats`], never fatal.
    pub fn open(dir: &Path) -> std::io::Result<ResultStore> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("store.jsonl");
        let mut index = HashMap::new();
        let mut stats = LoadStats::default();
        let mut torn_tail = false;
        if path.exists() {
            let mut reader = BufReader::new(File::open(&path)?);
            let mut line = Vec::new();
            loop {
                line.clear();
                if reader.read_until(b'\n', &mut line)? == 0 {
                    break;
                }
                torn_tail = line.last() != Some(&b'\n');
                let line = line.strip_suffix(b"\n").unwrap_or(&line);
                if line.trim_ascii().is_empty() {
                    continue;
                }
                let text = std::str::from_utf8(line).map_err(|e| e.to_string());
                match text.and_then(CellRecord::decode) {
                    Ok(rec) if rec.epoch == ENGINE_EPOCH => {
                        if index.insert(rec.key, rec).is_some() {
                            stats.duplicates += 1;
                        }
                    }
                    Ok(_) => stats.epoch_evicted += 1,
                    Err(_) => stats.corrupt_skipped += 1,
                }
            }
        }
        stats.loaded = index.len();
        Ok(ResultStore {
            path: Some(path),
            inner: Mutex::new(Inner { index, writer: None, torn_tail }),
            load_stats: stats,
        })
    }

    /// What the on-disk load found (all zeros for in-memory stores).
    pub fn load_stats(&self) -> LoadStats {
        self.load_stats
    }

    /// Live record count.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record at `key`, if stored.
    pub fn get(&self, key: ScenarioKey) -> Option<CellRecord> {
        self.inner.lock().index.get(&key).cloned()
    }

    pub fn contains(&self, key: ScenarioKey) -> bool {
        self.inner.lock().index.contains_key(&key)
    }

    /// Insert a record: index immediately, append to the log (when disk-
    /// backed) as one line in one write, and flush. A re-inserted key
    /// overwrites — last write wins in memory exactly as it does on reload.
    pub fn put(&self, rec: CellRecord) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        if let Some(path) = &self.path {
            if inner.writer.is_none() {
                inner.writer = Some(OpenOptions::new().create(true).append(true).open(path)?);
            }
            let mut line = rec.encode();
            line.push('\n');
            if inner.torn_tail {
                line.insert(0, '\n');
            }
            let w = inner.writer.as_mut().expect("writer just ensured");
            let written = w.write_all(line.as_bytes()).and_then(|()| w.flush());
            inner.torn_tail = written.is_err();
            written?;
        }
        inner.index.insert(rec.key, rec);
        Ok(())
    }

    /// Drop every record matching `pred`; returns how many were evicted.
    /// The disk log still holds the bytes until the next [`ResultStore::compact`],
    /// but reloads go through the index semantics only after compaction —
    /// call it when eviction must persist.
    pub fn invalidate_where(&self, pred: impl Fn(&CellRecord) -> bool) -> usize {
        let mut inner = self.inner.lock();
        let before = inner.index.len();
        inner.index.retain(|_, rec| !pred(rec));
        before - inner.index.len()
    }

    /// Rewrite the log from the live index (temp file + atomic rename),
    /// shedding duplicate, corrupt, wrong-epoch, and invalidated bytes.
    /// Returns the number of live records written. No-op in memory.
    pub fn compact(&self) -> std::io::Result<usize> {
        let mut inner = self.inner.lock();
        let Some(path) = &self.path else {
            return Ok(inner.index.len());
        };
        let mut records: Vec<&CellRecord> = inner.index.values().collect();
        records.sort_by(|a, b| (&a.label, a.ranks, a.key).cmp(&(&b.label, b.ranks, b.key)));
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut w = std::io::BufWriter::new(File::create(&tmp)?);
            for rec in &records {
                w.write_all(rec.encode().as_bytes())?;
                w.write_all(b"\n")?;
            }
            w.flush()?;
            // Durability before visibility: the rename below must never
            // publish a temp file whose bytes are still in the page cache —
            // a crash after rename but before writeback would replace a
            // good log with a torn one.
            w.get_ref().sync_all()?;
        }
        let written = records.len();
        // Drop the stale append handle before replacing the file it points
        // at — later appends must reopen the compacted log.
        inner.writer = None;
        std::fs::rename(&tmp, path)?;
        inner.torn_tail = false;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ProfileSummary;

    fn rec(key: u128, label: &str, ranks: usize, stat_openat: usize) -> CellRecord {
        CellRecord {
            key: ScenarioKey(key),
            epoch: ENGINE_EPOCH,
            label: label.to_string(),
            ranks,
            profile: ProfileSummary { stat_openat, misses: 0, complete: true, unresolved: 0 },
            error: None,
            outcome: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("depchaos-serve-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_put_get() {
        let store = ResultStore::in_memory();
        assert!(store.is_empty());
        store.put(rec(1, "a/b", 512, 10)).unwrap();
        assert_eq!(store.get(ScenarioKey(1)).unwrap().profile.stat_openat, 10);
        assert!(!store.contains(ScenarioKey(2)));
        // Last write wins in memory too.
        store.put(rec(1, "a/b", 512, 99)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(ScenarioKey(1)).unwrap().profile.stat_openat, 99);
    }

    #[test]
    fn disk_round_trip_and_reload() {
        let dir = temp_dir("roundtrip");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(rec(7, "x/y", 512, 3)).unwrap();
            store.put(rec(8, "x/y", 1024, 4)).unwrap();
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.load_stats(), LoadStats { loaded: 2, ..LoadStats::default() });
        assert_eq!(store.get(ScenarioKey(8)).unwrap().ranks, 1024);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_keys_resolve_last_write_wins_on_reload() {
        let dir = temp_dir("dups");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(rec(7, "x/y", 512, 3)).unwrap();
            store.put(rec(7, "x/y", 512, 42)).unwrap();
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.load_stats().duplicates, 1);
        assert_eq!(store.get(ScenarioKey(7)).unwrap().profile.stat_openat, 42);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_final_record_is_skipped_and_counted() {
        let dir = temp_dir("trunc");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(rec(1, "a", 512, 1)).unwrap();
            store.put(rec(2, "b", 512, 2)).unwrap();
        }
        // Tear the tail of the log, as a mid-append crash would.
        let path = dir.join("store.jsonl");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.load_stats().corrupt_skipped, 1);
        assert!(store.contains(ScenarioKey(1)));
        assert!(!store.contains(ScenarioKey(2)));
        // The next append starts on a fresh line: the torn line stays the
        // only corrupt one, and the new record loads.
        store.put(rec(3, "c", 512, 3)).unwrap();
        drop(store);
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(
            store.load_stats(),
            LoadStats { loaded: 2, corrupt_skipped: 1, ..LoadStats::default() }
        );
        assert!(store.contains(ScenarioKey(1)) && store.contains(ScenarioKey(3)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_non_utf8_line_is_skipped_and_counted() {
        let dir = temp_dir("non-utf8");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(rec(1, "a", 512, 1)).unwrap();
        }
        let path = dir.join("store.jsonl");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"\xff\xfe garbage\n");
        bytes.extend_from_slice(rec(2, "b", 512, 2).encode().as_bytes());
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(
            store.load_stats(),
            LoadStats { loaded: 2, corrupt_skipped: 1, ..LoadStats::default() }
        );
        assert!(store.contains(ScenarioKey(1)) && store.contains(ScenarioKey(2)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_mismatch_evicts_on_load() {
        let dir = temp_dir("epoch");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(rec(1, "a", 512, 1)).unwrap();
            store.put(CellRecord { epoch: ENGINE_EPOCH + 1, ..rec(2, "b", 512, 2) }).unwrap();
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.load_stats().epoch_evicted, 1);
        assert!(!store.contains(ScenarioKey(2)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_dead_bytes_and_appends_still_work() {
        let dir = temp_dir("compact");
        let path = dir.join("store.jsonl");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(rec(1, "a", 512, 1)).unwrap();
            store.put(rec(1, "a", 512, 2)).unwrap(); // duplicate
            store.put(rec(3, "c", 512, 3)).unwrap();
            assert_eq!(store.invalidate_where(|r| r.label == "c"), 1);
            assert_eq!(store.compact().unwrap(), 1);
            // Append after compaction reopens the new log.
            store.put(rec(4, "d", 512, 4)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.load_stats().duplicates, 0);
        assert_eq!(store.get(ScenarioKey(1)).unwrap().profile.stat_openat, 2);
        assert!(store.contains(ScenarioKey(4)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Records that share a label and a rank point (one cell under other
    /// seeds, say) compact to one order whatever order they were put in.
    #[test]
    fn compaction_writes_one_order_for_records_of_one_label_and_rank_point() {
        let recs: Vec<CellRecord> = (0..8).map(|i| rec(100 + i, "same", 512, i as usize)).collect();
        let mut logs = Vec::new();
        for (tag, puts) in
            [("order-fwd", recs.clone()), ("order-rev", recs.into_iter().rev().collect())]
        {
            let dir = temp_dir(tag);
            let store = ResultStore::open(&dir).unwrap();
            for r in puts {
                store.put(r).unwrap();
            }
            assert_eq!(store.compact().unwrap(), 8);
            logs.push(std::fs::read(dir.join("store.jsonl")).unwrap());
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(logs[0] == logs[1], "compacted logs differ");
    }

    #[test]
    fn a_compaction_killed_mid_write_loses_nothing() {
        let dir = temp_dir("killed-compact");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(rec(1, "a", 512, 1)).unwrap();
            store.put(rec(2, "b", 512, 2)).unwrap();
        }
        // A process killed mid-compaction leaves a partial temp file next
        // to an intact log: the rename never happened, so the log is whole.
        let tmp = dir.join("store.jsonl.tmp");
        std::fs::write(&tmp, b"{\"key\":\"torn mid-wri").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "the intact log is the truth; the temp file is noise");
        assert_eq!(store.load_stats(), LoadStats { loaded: 2, ..LoadStats::default() });
        // The next compaction overwrites the stale temp file and completes.
        assert_eq!(store.compact().unwrap(), 2);
        assert!(!tmp.exists(), "rename consumed the temp file");
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.contains(ScenarioKey(1)));
        assert!(store.contains(ScenarioKey(2)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
