//! Property tests for the durable log: recovery keeps exactly the
//! durable prefix under arbitrary byte-level damage of the records or
//! of the zero tail after them, a crash at any byte of a group commit —
//! or pages of it lost — loses only records of that (unacked) batch,
//! the fsync policy counts landed records, checkpoints never
//! change what replay reconstructs, and merging recovered segments is
//! order-independent — the same LWW algebra as the store.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rfh_serve::store::{NodeStore, Versioned};
use rfh_serve::wal::{FsyncPolicy, PersistenceConfig, ShardLog, StorageStats};

/// Bytes one framed record occupies on disk:
/// `[len u32][crc u32]` header + `[key u64][seq u64]` + value.
const HEADER: usize = 8;
const FIXED: usize = 16;
/// How far an active 1 MiB segment grows at a time, in zeros.
const ZERO_STEP: usize = 256 << 10;

/// Byte offset of each record's end, records laid back to back.
fn record_ends(records: &[(u64, u64, Vec<u8>)]) -> Vec<usize> {
    records
        .iter()
        .scan(0usize, |pos, (_, _, v)| {
            *pos += HEADER + FIXED + v.len();
            Some(*pos)
        })
        .collect()
}

fn zeros(bytes: &[u8]) -> bool {
    first_nonzero(bytes).is_none()
}

fn first_nonzero(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b != 0)
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rfh-walprop-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> (ShardLog, Vec<(u64, Versioned)>) {
    ShardLog::open(dir.to_path_buf(), FsyncPolicy::Never, 1 << 20, Arc::default()).unwrap()
}

/// LWW-fold `(key, seq, value)` triples in order: highest seq wins,
/// first writer wins a seq tie — the store's and the replay's algebra.
fn lww<'a>(records: impl IntoIterator<Item = &'a (u64, u64, Vec<u8>)>) -> BTreeMap<u64, Versioned> {
    let mut map: BTreeMap<u64, Versioned> = BTreeMap::new();
    for (key, seq, value) in records {
        match map.get(key) {
            Some(cur) if cur.seq >= *seq => {}
            _ => {
                map.insert(*key, Versioned { seq: *seq, value: value.clone() });
            }
        }
    }
    map
}

fn as_map(entries: Vec<(u64, Versioned)>) -> BTreeMap<u64, Versioned> {
    entries.into_iter().collect()
}

/// `(key, seq, value)` with the seq assigned from the position so every
/// record is distinct and later records win LWW.
fn seq_records(raw: Vec<(u64, Vec<u8>)>) -> Vec<(u64, u64, Vec<u8>)> {
    raw.into_iter().enumerate().map(|(i, (k, v))| (k, i as u64 + 1, v)).collect()
}

/// Deterministic Fisher–Yates from a seed (xorshift64*), so a shuffled
/// order is reproducible from the proptest inputs alone.
fn shuffled<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        out.swap(i, (seed as usize) % (i + 1));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Damage the log anywhere, zero tail included — truncate at an
    /// arbitrary byte, or flip an arbitrary byte — and recovery returns
    /// exactly the records that lie wholly before the damage, twice in a
    /// row.
    #[test]
    fn tail_damage_recovers_exactly_the_valid_prefix(
        raw in proptest::collection::vec(
            (0u64..8, proptest::collection::vec(any::<u8>(), 0..20)),
            1..40,
        ),
        at in any::<prop::sample::Index>(),
        in_zero_tail in any::<bool>(),
        truncate in any::<bool>(),
        mask in (1u32..=255).prop_map(|m| m as u8),
    ) {
        let records = seq_records(raw);
        let dir = scratch_dir("tail");
        {
            let (mut log, recovered) = open(&dir);
            prop_assert!(recovered.is_empty());
            for (k, s, v) in &records {
                log.append(*k, *s, v).unwrap();
            }
        }

        // Byte offset of each record boundary in the single segment.
        let seg = dir.join("seg-00000000.wal");
        let ends = record_ends(&records);
        let pos = *ends.last().unwrap();
        let data = fs::read(&seg).unwrap();
        prop_assert_eq!(data.len(), ZERO_STEP, "the records sit in one zero step");
        prop_assert!(zeros(&data[pos..]), "the written prefix is followed by zeros only");

        // Damage at an arbitrary byte offset, of the records or of the
        // zero tail (drawn separately: the tail dwarfs the records).
        let cut = if in_zero_tail { pos + at.index(data.len() - pos + 1) } else { at.index(pos) };
        let expect_prefix: usize;
        if truncate || cut == data.len() {
            // Records wholly before the cut survive.
            expect_prefix = ends.iter().filter(|&&e| e <= cut).count();
            let mut d = data.clone();
            d.truncate(cut);
            fs::write(&seg, d).unwrap();
        } else {
            // A flipped byte invalidates the record containing it (the
            // CRC covers the payload; a damaged length field cannot
            // frame a valid record either).
            expect_prefix = ends.iter().filter(|&&e| e <= cut).count();
            let mut d = data.clone();
            d[cut] ^= mask;
            fs::write(&seg, d).unwrap();
        }
        let expected = lww(&records[..expect_prefix]);

        let (_, recovered) = open(&dir);
        prop_assert_eq!(&as_map(recovered), &expected, "first recovery keeps the valid prefix");
        // Recovery physically truncated the damage, so a second pass
        // sees a clean log and agrees.
        let (_, again) = open(&dir);
        prop_assert_eq!(&as_map(again), &expected, "recovery is idempotent");

        fs::remove_dir_all(&dir).unwrap();
    }

    /// Any interleaving of buffer and commit, then a crash at any byte
    /// of the batch in flight — the rest of the batch still the zeros
    /// it was to overwrite, or the file cut short there — and recovery
    /// returns every committed record and, of the batch whose acks never
    /// left, exactly the records that reached the file whole — nothing
    /// else, twice in a row.
    #[test]
    fn a_crash_mid_batch_loses_only_uncommitted_records(
        raw in proptest::collection::vec(
            (0u64..8, proptest::collection::vec(any::<u8>(), 0..20)),
            1..40,
        ),
        commit_after in proptest::collection::vec(any::<bool>(), 40),
        at in any::<prop::sample::Index>(),
        truncate in any::<bool>(),
    ) {
        let records = seq_records(raw);
        let dir = scratch_dir("batch");
        let stats = Arc::new(StorageStats::default());
        let seg = dir.join("seg-00000000.wal");
        let (mut committed, mut commits) = (0usize, 0u64);
        {
            let (mut log, _) =
                ShardLog::open(dir.clone(), FsyncPolicy::Always, 1 << 20, Arc::clone(&stats))
                    .unwrap();
            for (i, (k, s, v)) in records.iter().enumerate() {
                log.buffer(*k, *s, v);
                if commit_after[i] {
                    log.commit().unwrap();
                    committed = i + 1;
                    commits += 1;
                }
            }
            let snap = stats.snapshot();
            prop_assert_eq!(snap.records_appended, committed as u64);
            prop_assert_eq!(snap.commits, commits);
            prop_assert_eq!(snap.fsyncs, commits, "always: one sync per commit");
            // The process dies with the last batch on its way to the
            // file: land it here, keep only some byte prefix below.
            log.commit().unwrap();
        }
        let ends = record_ends(&records);
        let durable = if committed == 0 { 0 } else { ends[committed - 1] };
        let end = *ends.last().unwrap();
        let mut data = fs::read(&seg).unwrap();
        prop_assert_eq!(data.len(), ZERO_STEP, "written prefix + zero tail");
        prop_assert!(zeros(&data[end..]));
        let cut = durable + at.index(end - durable + 1);
        let lost = if truncate {
            data.truncate(cut);
            cut
        } else {
            // A lost byte that was a zero anyway loses nothing.
            let lost = first_nonzero(&data[cut..end]).map_or(end, |i| cut + i);
            data[cut..end].fill(0);
            lost
        };
        fs::write(&seg, &data).unwrap();

        let survivors = ends.iter().filter(|&&e| e <= lost).count();
        prop_assert!(survivors >= committed, "a committed record can never be cut");
        let expected = lww(&records[..survivors]);
        let (_, recovered) = open(&dir);
        prop_assert_eq!(&as_map(recovered), &expected);
        let (_, again) = open(&dir);
        prop_assert_eq!(&as_map(again), &expected, "recovery is idempotent");

        fs::remove_dir_all(&dir).unwrap();
    }

    /// Lost pages: synced records, then a batch that lands unsynced and
    /// of which arbitrary byte ranges never reach the disk, reading back
    /// as the zeros they were to overwrite. Recovery keeps every synced
    /// record and, of the batch, exactly the records wholly before its
    /// first damaged byte — twice in a row.
    #[test]
    fn lost_pages_of_an_unsynced_batch_lose_only_that_batch(
        synced_raw in proptest::collection::vec(
            (0u64..8, proptest::collection::vec(any::<u8>(), 0..20)),
            0..20,
        ),
        batch_raw in proptest::collection::vec(
            (0u64..8, proptest::collection::vec(any::<u8>(), 0..20)),
            1..30,
        ),
        holes in proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            1..4,
        ),
    ) {
        let synced = synced_raw.len();
        let records = seq_records(synced_raw.into_iter().chain(batch_raw).collect());
        let dir = scratch_dir("pages");
        {
            let (mut log, _) =
                ShardLog::open(dir.clone(), FsyncPolicy::Always, 1 << 20, Arc::default())
                    .unwrap();
            for (k, s, v) in &records[..synced] {
                log.append(*k, *s, v).unwrap();
            }
        }
        {
            // A later incarnation resumes in the zero tail and lands
            // one batch without syncing it.
            let (mut log, _) =
                ShardLog::open(dir.clone(), FsyncPolicy::Never, 1 << 20, Arc::default())
                    .unwrap();
            for (k, s, v) in &records[synced..] {
                log.buffer(*k, *s, v);
            }
            log.commit().unwrap();
        }
        let ends = record_ends(&records);
        let durable = if synced == 0 { 0 } else { ends[synced - 1] };
        let end = *ends.last().unwrap();
        let seg = dir.join("seg-00000000.wal");
        let mut data = fs::read(&seg).unwrap();
        prop_assert_eq!(data.len(), ZERO_STEP);
        let mut damaged = end;
        for (a, b) in holes {
            let (x, y) = (a.index(end - durable), b.index(end - durable));
            let (lo, hi) = (durable + x.min(y), durable + x.max(y) + 1);
            if let Some(i) = first_nonzero(&data[lo..hi]) {
                damaged = damaged.min(lo + i);
            }
            data[lo..hi].fill(0);
        }
        fs::write(&seg, &data).unwrap();

        let survivors = ends.iter().filter(|&&e| e <= damaged).count();
        prop_assert!(survivors >= synced, "a synced record can never be lost");
        let expected = lww(&records[..survivors]);
        let (_, recovered) = open(&dir);
        prop_assert_eq!(&as_map(recovered), &expected);
        let (_, again) = open(&dir);
        prop_assert_eq!(&as_map(again), &expected, "recovery is idempotent");

        fs::remove_dir_all(&dir).unwrap();
    }

    /// `EveryN(n)` counts records, not commits: a sync falls due once
    /// at least `n` records have landed since the last one, however
    /// they were batched (an empty commit lands nothing and is free).
    #[test]
    fn every_n_syncs_once_n_records_have_landed(
        n in 1u64..12,
        batches in proptest::collection::vec(0u64..9, 1..30),
    ) {
        let dir = scratch_dir("everyn");
        let stats = Arc::new(StorageStats::default());
        let (mut log, _) =
            ShardLog::open(dir.clone(), FsyncPolicy::EveryN(n), 1 << 20, Arc::clone(&stats))
                .unwrap();
        let (mut since_sync, mut syncs, mut seq) = (0u64, 0u64, 0u64);
        for batch in batches {
            for _ in 0..batch {
                seq += 1;
                log.buffer(seq % 5, seq, b"x");
            }
            log.commit().unwrap();
            since_sync += batch;
            if since_sync >= n {
                syncs += 1;
                since_sync = 0;
            }
            prop_assert_eq!(stats.snapshot().fsyncs, syncs);
        }
        prop_assert_eq!(stats.snapshot().records_appended, seq);
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Interleaving checkpoints anywhere in the append stream never
    /// changes what recovery reconstructs: checkpoint + replay of the
    /// remaining segments ≡ pure replay of every record.
    #[test]
    fn checkpoint_plus_replay_equals_pure_replay(
        raw in proptest::collection::vec(
            (0u64..8, proptest::collection::vec(any::<u8>(), 0..20)),
            1..40,
        ),
        ckpt_after in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let records = seq_records(raw);
        let plain = scratch_dir("plain");
        let ckpt = scratch_dir("ckpt");
        {
            let (mut a, _) = open(&plain);
            let (mut b, _) = open(&ckpt);
            let mut live: BTreeMap<u64, Versioned> = BTreeMap::new();
            for (i, (k, s, v)) in records.iter().enumerate() {
                a.append(*k, *s, v).unwrap();
                b.append(*k, *s, v).unwrap();
                match live.get(k) {
                    Some(cur) if cur.seq >= *s => {}
                    _ => {
                        live.insert(*k, Versioned { seq: *s, value: v.clone() });
                    }
                }
                if ckpt_after[i] {
                    let entries: Vec<(u64, Versioned)> =
                        live.iter().map(|(k, v)| (*k, v.clone())).collect();
                    b.checkpoint(&entries).unwrap();
                }
            }
        }
        let (_, from_plain) = open(&plain);
        let (_, from_ckpt) = open(&ckpt);
        let expected = lww(&records);
        prop_assert_eq!(&as_map(from_plain), &expected);
        prop_assert_eq!(&as_map(from_ckpt), &expected, "checkpointing changed recovery");

        fs::remove_dir_all(&plain).unwrap();
        fs::remove_dir_all(&ckpt).unwrap();
    }

    /// Merging recovered segments is order-independent, exactly like
    /// the LWW store merge: any append order on disk and any merge
    /// order into a store converge to the same contents. Values are a
    /// function of (key, seq) — the writers' invariant — so seq ties
    /// carry identical bytes.
    #[test]
    fn segment_and_store_merge_are_order_independent(
        pairs in proptest::collection::vec((0u64..8, 1u64..12), 1..40),
        seed in any::<u64>(),
        split in any::<prop::sample::Index>(),
    ) {
        let records: Vec<(u64, u64, Vec<u8>)> = pairs
            .into_iter()
            .map(|(k, s)| (k, s, (k ^ (s << 8)).to_le_bytes().to_vec()))
            .collect();
        let permuted = shuffled(&records, seed);

        // Disk level: two logs fed the same records in different
        // orders recover identical contents.
        let fwd = scratch_dir("fwd");
        let rev = scratch_dir("rev");
        {
            let (mut a, _) = open(&fwd);
            for (k, s, v) in &records {
                a.append(*k, *s, v).unwrap();
            }
            let (mut b, _) = open(&rev);
            for (k, s, v) in &permuted {
                b.append(*k, *s, v).unwrap();
            }
        }
        let (_, from_fwd) = open(&fwd);
        let (_, from_rev) = open(&rev);
        prop_assert_eq!(&as_map(from_fwd), &as_map(from_rev), "replay depends on append order");

        // Store level: merging the two recovery batches in either
        // order converges, matching the pure LWW fold.
        let cut = split.index(records.len() + 1);
        let batch = |r: &[(u64, u64, Vec<u8>)]| -> Vec<(u64, Versioned)> {
            r.iter().map(|(k, s, v)| (*k, Versioned { seq: *s, value: v.clone() })).collect()
        };
        let (first, second) = (batch(&records[..cut]), batch(&records[cut..]));
        let ab = NodeStore::new();
        ab.merge(&first);
        ab.merge(&second);
        let ba = NodeStore::new();
        ba.merge(&second);
        ba.merge(&first);
        let expected = lww(&records);
        prop_assert_eq!(&as_map(ab.snapshot_all()), &expected);
        prop_assert_eq!(&as_map(ba.snapshot_all()), &expected, "merge depends on batch order");

        fs::remove_dir_all(&fwd).unwrap();
        fs::remove_dir_all(&rev).unwrap();
    }
}

/// Rotation is decided at commit: a batch lands whole in the active
/// segment, however far past `segment_bytes` it runs, and the segment
/// rotates once afterwards, sealed to exactly its records.
#[test]
fn rotation_fires_at_commit_granularity() {
    let dir = scratch_dir("rotate");
    let stats = Arc::new(StorageStats::default());
    let (mut log, _) =
        ShardLog::open(dir.clone(), FsyncPolicy::Never, 256, Arc::clone(&stats)).unwrap();
    assert_eq!(stats.snapshot().segments_written, 1);
    for k in 0..40u64 {
        log.buffer(k, 1, &[9u8; 40]); // 64 bytes framed: ten segments' worth
    }
    assert_eq!(stats.snapshot().segments_written, 1, "buffering touches no file");
    log.commit().unwrap();
    assert_eq!(stats.snapshot().segments_written, 2, "one batch, one rotation");
    assert_eq!(fs::metadata(dir.join("seg-00000000.wal")).unwrap().len(), 40 * 64);
    log.append(99, 1, b"next").unwrap();
    drop(log);
    // A 256-byte segment grows in 256-byte steps: the next record,
    // then zeros.
    let active = fs::read(dir.join("seg-00000001.wal")).unwrap();
    assert_eq!(active.len(), 256);
    assert!(!zeros(&active[..28]) && zeros(&active[28..]), "written prefix + zero tail");
    assert_eq!(stats.snapshot().bytes_zeroed, 11 * 256);
    let (_, recovered) = open(&dir);
    assert_eq!(recovered.len(), 41);
    fs::remove_dir_all(&dir).unwrap();
}

/// The `checkpoint_every` trigger is evaluated at commit too: a batch
/// that crosses the threshold several times over checkpoints once, and
/// the checkpoint holds the whole batch.
#[test]
fn checkpoint_trigger_fires_at_commit_granularity() {
    let dir = scratch_dir("trigger");
    let cfg = PersistenceConfig {
        checkpoint_every: 4,
        range_shards: 1,
        ..PersistenceConfig::with_dir(dir.to_string_lossy().into_owned())
    };
    let store = NodeStore::durable(&cfg, 0).unwrap();
    for k in 0..10u64 {
        assert_eq!(store.put_buffered(k, 1, b"v"), (true, Some(0)));
    }
    let stats = store.storage().unwrap();
    assert_eq!(stats.snapshot().checkpoints_written, 0, "nothing is due before a commit");
    assert_eq!(stats.snapshot().records_appended, 0);
    store.commit(0);
    let snap = stats.snapshot();
    assert_eq!((snap.records_appended, snap.commits, snap.checkpoints_written), (10, 1, 1));
    store.put(10, 1, b"v");
    assert_eq!(stats.snapshot().checkpoints_written, 1, "the count restarted at the checkpoint");
    drop(store);

    let reopened = NodeStore::durable(&cfg, 0).unwrap();
    assert_eq!(reopened.len(), 11, "checkpoint + tail replay the lot");
    fs::remove_dir_all(&dir).unwrap();
}
