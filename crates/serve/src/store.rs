//! Per-node key-value shards with last-writer-wins versions.
//!
//! Every node owns one [`NodeStore`]. Keys map to partitions by hash
//! ([`partition_of`]) — the same `PartitionId` space the ring, the
//! replica manager and the traffic equations use — so "node X holds
//! partition p" means X's store serves every key with
//! `partition_of(key) == p`.
//!
//! Values carry a client-chosen `seq`; a write applies only if its seq
//! is higher than the stored one, making put retries idempotent and
//! replica merges (transfers, archive restores) order-independent.
//!
//! A store built with [`NodeStore::durable`] additionally owns a
//! [`NodeWal`], and a write has two halves. [`NodeStore::put_buffered`]
//! applies it to the map and frames its record into the pending buffer
//! of its WAL range shard — under that shard's lock, so whatever is in
//! the map is also pending or on disk; [`NodeStore::commit`] lands
//! everything pending on a shard with one write and one policy sync.
//! [`NodeStore::put`] and [`NodeStore::merge`] do both before they
//! return ("logged before return": the control loop and outside
//! callers). The data plane calls the halves separately through
//! `TurnCommits`: it buffers a reactor turn's puts and commits each
//! dirtied shard once before any of the turn's replies is sent — the
//! turn's shards concurrently, one [`NodeStore::commit_log`] per sync
//! worker job, checkpoints after — so an ack still means "flushed on
//! every live replica" (see the durability contract in [`crate::wal`]).
//! Between the halves a write is readable but not durable — the
//! read-uncommitted window.
//!
//! Lock order is WAL shard → store map, everywhere (put, merge,
//! commit's checkpoint, replay), so the paths cannot deadlock.

use crate::wal::{NodeWal, PersistenceConfig, RecordSink, StorageStats};
use rfh_pool::WorkerPool;
use rfh_ring::splitmix64;
use rfh_types::{PartitionId, Result as RfhResult, RfhError};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sync workers per reactor thread. Throughput is flat past this: the
/// kernel folds concurrent `fdatasync`s into shared journal commits.
const SYNC_WORKERS: usize = 8;

/// The partition a key belongs to. Hash-distributes the key space over
/// `partitions` buckets.
#[inline]
pub fn partition_of(key: u64, partitions: u32) -> PartitionId {
    PartitionId::new((splitmix64(key) % partitions as u64) as u32)
}

/// One stored version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Versioned {
    /// Write version (last-writer-wins).
    pub seq: u64,
    /// The value bytes.
    pub value: Vec<u8>,
}

/// One node's shard map, internally synchronized; optionally backed by
/// a write-ahead log (see the module docs for the durability contract).
#[derive(Debug, Default)]
pub struct NodeStore {
    map: Mutex<HashMap<u64, Versioned>>,
    wal: Option<NodeWal>,
}

impl NodeStore {
    /// An empty in-memory store (no durability).
    pub fn new() -> Self {
        NodeStore::default()
    }

    /// Open a durable store: recovers the node's WAL under
    /// `<cfg.dir>/node-<node>/` and seeds the map with the replayed
    /// entries (exactly the durable prefix of each shard log).
    pub fn durable(cfg: &PersistenceConfig, node: usize) -> RfhResult<NodeStore> {
        let dir = std::path::Path::new(&cfg.dir).join(format!("node-{node}"));
        let (wal, recovered) = NodeWal::open(cfg, dir)
            .map_err(|e| RfhError::Io(format!("open node {node} wal: {e}")))?;
        let map = recovered.into_iter().collect();
        Ok(NodeStore { map: Mutex::new(map), wal: Some(wal) })
    }

    /// The storage counters of the durable backend, `None` for
    /// in-memory stores.
    pub fn storage(&self) -> Option<&Arc<StorageStats>> {
        self.wal.as_ref().map(|w| w.stats())
    }

    /// Read the current version of `key`.
    pub fn get(&self, key: u64) -> Option<Versioned> {
        self.map.lock().expect("store lock").get(&key).cloned()
    }

    /// Apply a write if `seq` beats the stored version. Returns whether
    /// the store now holds `seq` (so an equal-seq retry reports true).
    /// On a durable store the write — and anything else pending on its
    /// shard — is committed before returning. A write the LWW check
    /// rejects changes nothing and logs nothing.
    pub fn put(&self, key: u64, seq: u64, value: &[u8]) -> bool {
        let (holds, shard) = self.put_buffered(key, seq, value);
        if let Some(shard) = shard {
            self.commit(shard);
        }
        holds
    }

    /// The first half of [`put`](Self::put): apply the write and buffer
    /// its record, touching no file. Returns whether the store holds
    /// `seq`, and on a durable store the WAL shard the caller must
    /// [`commit`](Self::commit) before acknowledging — whatever the LWW
    /// outcome: the version an equal-seq retry or a stale write found
    /// in the map may itself still be pending, buffered by another
    /// thread.
    pub fn put_buffered(&self, key: u64, seq: u64, value: &[u8]) -> (bool, Option<usize>) {
        let Some(wal) = &self.wal else {
            return (self.apply(key, seq, value).0, None);
        };
        let shard = wal.shard_of(key);
        let mut log = wal.lock_shard(shard);
        let (holds, applied) = self.apply(key, seq, value);
        if applied {
            log.buffer(key, seq, value);
        }
        (holds, Some(shard))
    }

    /// The second half: land everything pending on WAL shard `shard`,
    /// checkpointing it when due. Log replay is LWW-merged, so batches
    /// need no ordering beyond "before the ack". A log that cannot be
    /// written would turn acks into lies, so WAL I/O errors are
    /// fail-stop.
    pub fn commit(&self, shard: usize) {
        let Some(wal) = &self.wal else {
            return;
        };
        wal.commit(shard, |put| self.feed_shard(wal, shard, put))
            .expect("wal commit failed; cannot guarantee acked durability");
    }

    /// [`commit`](Self::commit) minus the checkpoint: write, sync and
    /// rotate only, and report whether a checkpoint is now due — which
    /// a following `commit(shard)` writes.
    pub fn commit_log(&self, shard: usize) -> bool {
        let Some(wal) = &self.wal else {
            return false;
        };
        wal.commit_log(shard).expect("wal commit failed; cannot guarantee acked durability")
    }

    /// LWW-apply one write to the map: `(holds, applied)`.
    fn apply(&self, key: u64, seq: u64, value: &[u8]) -> (bool, bool) {
        let mut map = self.map.lock().expect("store lock");
        match map.get(&key) {
            Some(v) if v.seq > seq => (false, false),
            Some(v) if v.seq == seq => (true, false),
            _ => {
                map.insert(key, Versioned { seq, value: value.to_vec() });
                (true, true)
            }
        }
    }

    /// Checkpoint fodder: stream every entry of one WAL range shard
    /// into `put`. Called under that shard's lock, so the shard's part
    /// of the map cannot change; the map lock is held for the walk
    /// only, not for the checkpoint's fsync.
    fn feed_shard(&self, wal: &NodeWal, shard: usize, put: &mut RecordSink) -> std::io::Result<()> {
        let map = self.map.lock().expect("store lock");
        map.iter()
            .filter(|(&k, _)| wal.shard_of(k) == shard)
            .try_for_each(|(&k, v)| put(k, v.seq, &v.value))
    }

    /// Every entry the store holds (reconcile pass after a restart).
    pub fn snapshot_all(&self) -> Vec<(u64, Versioned)> {
        let map = self.map.lock().expect("store lock");
        map.iter().map(|(&k, v)| (k, v.clone())).collect()
    }

    /// Simulate a process restart: drop all in-memory state and replay
    /// the WAL from disk, keeping exactly the durable prefix. Returns
    /// the number of records replayed — `0` for an in-memory store,
    /// which simply loses everything (that *is* its restart semantics).
    /// The caller must keep the node quiescent (the controller restarts
    /// a node while its `alive` flag is still false, so no route sends
    /// writes here).
    pub fn restart_from_disk(&self) -> RfhResult<u64> {
        match &self.wal {
            None => {
                self.map.lock().expect("store lock").clear();
                Ok(0)
            }
            Some(wal) => {
                let (recovered, replayed) =
                    wal.replay_from_disk().map_err(|e| RfhError::Io(format!("wal replay: {e}")))?;
                let mut map = self.map.lock().expect("store lock");
                map.clear();
                map.extend(recovered);
                Ok(replayed)
            }
        }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.map.lock().expect("store lock").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys of one partition, for transfers.
    pub fn snapshot_partition(&self, p: PartitionId, partitions: u32) -> Vec<(u64, Versioned)> {
        let map = self.map.lock().expect("store lock");
        map.iter()
            .filter(|(&k, _)| partition_of(k, partitions) == p)
            .map(|(&k, v)| (k, v.clone()))
            .collect()
    }

    /// Merge transferred entries (LWW per key). Entries that win are
    /// logged — buffered as they apply, then committed once per shard —
    /// so a replicated partition is durable on its new host before the
    /// transfer completes; already-held entries are skipped and cost no
    /// log bytes. Returns how many entries were applied — the reconcile
    /// pass uses this to count healed entries.
    pub fn merge(&self, entries: &[(u64, Versioned)]) -> usize {
        let mut logs = self.wal.as_ref().map(|wal| (wal, wal.lock_all()));
        let mut applied = 0;
        {
            let mut map = self.map.lock().expect("store lock");
            for (k, v) in entries {
                if map.get(k).is_some_and(|cur| cur.seq >= v.seq) {
                    continue;
                }
                map.insert(*k, v.clone());
                applied += 1;
                if let Some((wal, logs)) = &mut logs {
                    logs[wal.shard_of(*k)].buffer(*k, v.seq, &v.value);
                }
            }
        }
        if let Some((wal, logs)) = &mut logs {
            for (shard, log) in logs.iter_mut().enumerate() {
                wal.commit_locked(log, |put| self.feed_shard(wal, shard, put))
                    .expect("wal commit failed; cannot guarantee merged durability");
            }
        }
        applied
    }
}

/// The WAL shards a turn — one reactor event-loop pass — has buffered
/// puts on and still owes a commit: `(node, shard)` pairs, a few dozen
/// at most. No ack may reach a socket while this is non-empty.
#[derive(Default)]
pub(crate) struct TurnCommits {
    shards: Vec<(usize, usize)>,
    /// This reactor's sync workers, spawned by the first turn that owes
    /// more than one shard — never on a cluster without a WAL. One pool
    /// per reactor: `WorkerPool::run` admits one batch at a time.
    pool: Option<WorkerPool>,
}

impl TurnCommits {
    /// Apply a replica write to `node`'s store, buffering its log
    /// record and noting the shard for [`commit`](Self::commit).
    pub fn put(&mut self, stores: &[NodeStore], node: usize, key: u64, seq: u64, value: &[u8]) {
        if let (_, Some(shard)) = stores[node].put_buffered(key, seq, value) {
            if !self.shards.contains(&(node, shard)) {
                self.shards.push((node, shard));
            }
        }
    }

    /// Whether nothing is owed.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// One write and one policy sync per noted shard, all shards at
    /// once: returns when the last of them has landed, so the turn
    /// waits for about one sync, not their sum. Each job takes its
    /// shard's lock on the worker and holds no other, so two reactors
    /// committing the same shards cannot deadlock; a commit that fails
    /// panics on its worker and the pool re-raises it here once the
    /// batch has drained, which keeps WAL I/O errors fail-stop.
    /// Checkpoints that fall due are written on this thread after the
    /// barrier: a worker that allocates a checkpoint's buffers grows a
    /// malloc arena of its own. A lone shard commits on this thread.
    pub fn commit(&mut self, stores: &[NodeStore]) {
        let Some(&(lead, _)) = self.shards.first() else {
            return;
        };
        let t0 = Instant::now();
        if let [(node, shard)] = self.shards[..] {
            stores[node].commit(shard);
        } else {
            let mut due = vec![false; self.shards.len()];
            let jobs = (self.shards.iter().zip(&mut due))
                .map(|(&(node, shard), due)| {
                    Box::new(move || *due = stores[node].commit_log(shard)) as Box<_>
                })
                .collect();
            self.pool.get_or_insert_with(|| WorkerPool::named("rfh-sync", SYNC_WORKERS)).run(jobs);
            for (&(node, shard), _) in self.shards.iter().zip(due).filter(|&(_, due)| due) {
                stores[node].commit(shard);
            }
        }
        if let Some(stats) = stores[lead].storage() {
            stats.commit_batches.fetch_add(1, Ordering::Relaxed);
            stats.commit_batch_shards.fetch_add(self.shards.len() as u64, Ordering::Relaxed);
            stats.commit_batch_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
        // Only now: a commit that unwinds is still owed.
        self.shards.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{FsyncPolicy, StorageSnapshot};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    #[test]
    fn partition_of_is_stable_and_in_range() {
        for key in 0..1000u64 {
            let p = partition_of(key, 64);
            assert!(p.0 < 64);
            assert_eq!(p, partition_of(key, 64));
        }
        // The hash actually spreads keys.
        let hit: std::collections::HashSet<u32> =
            (0..1000u64).map(|k| partition_of(k, 64).0).collect();
        assert!(hit.len() > 48, "only {} of 64 partitions hit", hit.len());
    }

    #[test]
    fn lww_and_idempotent_retries() {
        let s = NodeStore::new();
        assert!(s.put(1, 5, b"a"));
        assert!(!s.put(1, 4, b"stale"), "older seq must lose");
        assert!(s.put(1, 5, b"a"), "same-seq retry reports success");
        assert!(s.put(1, 6, b"b"));
        assert_eq!(s.get(1).unwrap(), Versioned { seq: 6, value: b"b".to_vec() });
        assert_eq!(s.get(2), None);
    }

    #[test]
    fn snapshot_and_merge_move_partitions() {
        let a = NodeStore::new();
        for key in 0..200u64 {
            a.put(key, 1, &key.to_le_bytes());
        }
        let p = partition_of(7, 16);
        let snap = a.snapshot_partition(p, 16);
        assert!(snap.iter().any(|&(k, _)| k == 7));
        assert!(snap.iter().all(|&(k, _)| partition_of(k, 16) == p));

        let b = NodeStore::new();
        b.put(7, 9, b"newer");
        b.merge(&snap);
        assert_eq!(b.get(7).unwrap().seq, 9, "merge must not clobber newer data");
        let other = snap.iter().find(|&&(k, _)| k != 7).expect("partition has >1 key");
        assert_eq!(b.get(other.0).unwrap(), other.1);
    }

    fn scratch_cfg(tag: &str) -> PersistenceConfig {
        let dir = std::env::temp_dir().join(format!("rfh-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        PersistenceConfig::with_dir(dir.to_string_lossy().into_owned())
    }

    #[test]
    fn durable_store_survives_reopen_and_restart() {
        let cfg = scratch_cfg("reopen");
        {
            let s = NodeStore::durable(&cfg, 0).unwrap();
            for k in 0..50u64 {
                assert!(s.put(k, k + 1, &k.to_le_bytes()));
            }
            s.merge(&[(1000, Versioned { seq: 3, value: b"merged".to_vec() })]);
        }
        // A new store over the same directory replays everything.
        let s = NodeStore::durable(&cfg, 0).unwrap();
        assert_eq!(s.len(), 51);
        assert_eq!(s.get(1000).unwrap().value, b"merged");
        assert_eq!(s.get(7).unwrap().seq, 8);

        // In-process restart: wipe memory, replay the durable prefix.
        s.put(2000, 1, b"late");
        let replayed = s.restart_from_disk().unwrap();
        assert!(replayed >= 52, "replays at least every applied record, got {replayed}");
        assert_eq!(s.len(), 52, "the late write was logged before put returned");
        assert_eq!(s.get(2000).unwrap().value, b"late");
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    /// The retry race: the first copy of a write is buffered by one
    /// thread and not yet committed when another thread's equal-seq
    /// retry finds it in the map. The retry logs nothing itself, but
    /// its commit must land the first copy — or its ack would promise a
    /// write no disk holds.
    #[test]
    fn a_retrys_commit_lands_the_original_another_thread_buffered() {
        let cfg = scratch_cfg("retry");
        let s = NodeStore::durable(&cfg, 0).unwrap();
        // Spawn-then-join forces the interleaving: A is done buffering
        // (and never commits) before B starts.
        let a = std::thread::scope(|t| t.spawn(|| s.put_buffered(7, 5, b"v")).join().unwrap());
        assert!(a.0);
        let b = std::thread::scope(|t| {
            t.spawn(|| {
                let (holds, shard) = s.put_buffered(7, 5, b"v");
                s.commit(shard.expect("a durable put always names its shard"));
                holds
            })
            .join()
            .unwrap()
        });
        assert!(b, "the retry is acked: the store holds seq 5");
        assert_eq!(s.storage().unwrap().snapshot().records_appended, 1, "logged once, by B");

        let reopened = NodeStore::durable(&cfg, 0).unwrap();
        assert_eq!(reopened.get(7), Some(Versioned { seq: 5, value: b"v".to_vec() }));

        // A stale write is acked too (the store holds something newer),
        // so it must name the shard as well.
        assert_eq!(s.put_buffered(7, 4, b"stale"), (false, a.1));
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn merge_commits_once_per_shard_not_once_per_entry() {
        let cfg = PersistenceConfig {
            fsync: FsyncPolicy::Always,
            range_shards: 2,
            ..scratch_cfg("merge")
        };
        let s = NodeStore::durable(&cfg, 0).unwrap();
        let entries: Vec<(u64, Versioned)> = (0..100u64)
            .map(|k| (k, Versioned { seq: 1, value: k.to_le_bytes().to_vec() }))
            .collect();
        assert_eq!(s.merge(&entries), 100);
        let snap = s.storage().unwrap().snapshot();
        assert_eq!(snap.records_appended, 100, "every winner is logged");
        assert!(snap.fsyncs <= 2, "one sync per range shard, got {}", snap.fsyncs);
        assert_eq!(snap.commits, snap.fsyncs);
        assert_eq!(s.merge(&entries), 0, "already held");
        assert_eq!(s.storage().unwrap().snapshot().fsyncs, snap.fsyncs, "no winners, no sync");

        s.restart_from_disk().unwrap();
        assert_eq!(s.len(), 100, "merge returned only after its commit");
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn memory_store_restart_loses_everything() {
        let s = NodeStore::new();
        s.put(1, 1, b"x");
        assert_eq!(s.restart_from_disk().unwrap(), 0);
        assert!(s.is_empty(), "no wal, no durability — that is the baseline semantics");
        assert!(s.storage().is_none());
    }

    #[test]
    fn rejected_writes_are_not_logged() {
        let cfg = scratch_cfg("reject");
        let s = NodeStore::durable(&cfg, 0).unwrap();
        s.put(5, 9, b"winner");
        s.put(5, 3, b"stale");
        let appended = s.storage().unwrap().snapshot().records_appended;
        assert_eq!(appended, 1, "the stale write changed nothing and cost no log bytes");
        s.restart_from_disk().unwrap();
        assert_eq!(s.get(5).unwrap().seq, 9);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    /// `nodes` fresh durable stores: `fsync = always`, 2 shards each,
    /// a checkpoint every 8 records so that turns cross that path too.
    fn durable_stores(tag: &str, nodes: usize) -> (PersistenceConfig, Vec<NodeStore>) {
        let cfg = PersistenceConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 8,
            ..scratch_cfg(tag)
        };
        let stores = (0..nodes).map(|n| NodeStore::durable(&cfg, n).unwrap()).collect();
        (cfg, stores)
    }

    fn storage_sum(stores: &[NodeStore]) -> StorageSnapshot {
        let mut sum = StorageSnapshot::default();
        for s in stores {
            sum.add(s.storage().expect("durable").snapshot());
        }
        sum
    }

    /// A turn over 3 nodes × 2 shards costs what the serial loop cost —
    /// one sync per dirtied shard — in one batch, and every record it
    /// buffered is on disk when `commit` returns.
    #[test]
    fn a_turns_commit_syncs_every_dirtied_shard_once_and_all_records_land() {
        let (cfg, stores) = durable_stores("batch", 3);
        let mut turn = TurnCommits::default();
        // A lone shard is a batch of one, committed on this thread.
        turn.put(&stores, 1, 7, 1, b"lone");
        turn.commit(&stores);
        let sum = storage_sum(&stores);
        assert_eq!((sum.fsyncs, sum.commit_batches, sum.commit_batch_shards), (1, 1, 1), "{sum:?}");
        assert!(turn.pool.is_none(), "one shard needs no worker");

        for node in 0..3 {
            for key in 0..40u64 {
                turn.put(&stores, node, key, key + 2, &key.to_le_bytes());
            }
        }
        assert_eq!(turn.shards.len(), 6, "40 keys reach both range shards of every node");
        turn.commit(&stores);
        assert!(turn.is_empty());
        assert!(turn.pool.is_some());
        let sum = storage_sum(&stores);
        assert_eq!((sum.fsyncs, sum.commits, sum.records_appended), (7, 7, 121), "{sum:?}");
        assert_eq!((sum.commit_batches, sum.commit_batch_shards), (2, 7), "{sum:?}");
        assert_eq!(sum.checkpoints_written, 6, "each shard took ≥ 8 records: {sum:?}");

        drop(stores);
        for node in 0..3 {
            let reopened = NodeStore::durable(&cfg, node).unwrap();
            assert_eq!(reopened.len(), 40, "node {node}");
            for key in 0..40u64 {
                let want = Versioned { seq: key + 2, value: key.to_le_bytes().to_vec() };
                assert_eq!(reopened.get(key), Some(want), "node {node} key {key}");
            }
        }
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    /// With the WAL off a turn owes nothing, so it never has workers.
    #[test]
    fn memory_stores_owe_no_commit_and_spawn_no_sync_worker() {
        let stores = [NodeStore::new(), NodeStore::new()];
        let mut turn = TurnCommits::default();
        for key in 0..40u64 {
            turn.put(&stores, (key % 2) as usize, key, 1, b"v");
        }
        assert!(turn.is_empty());
        turn.commit(&stores);
        assert!(turn.pool.is_none());
        assert_eq!(stores[0].len() + stores[1].len(), 40);
    }

    /// Two reactors' worth of turns, each with its own pool, dirty the
    /// same four shards in opposite first-touch order and commit at the
    /// same moment, 1 000 times. Jobs lock one shard each, on the
    /// worker, so no order of touching can deadlock them — and every
    /// record of every round must be on disk at the end.
    #[test]
    fn opposite_touch_orders_on_shared_shards_neither_deadlock_nor_lose_writes() {
        const ROUNDS: u64 = 1_000;
        let (cfg, stores) = durable_stores("order", 2);
        // Two keys per range shard, one for each thread (the shard of a
        // key is the same on every node).
        let mut keys: [Vec<u64>; 2] = Default::default();
        for key in 0.. {
            let (_, shard) = stores[0].put_buffered(key, 0, b"");
            let of_shard = &mut keys[shard.expect("durable")];
            if of_shard.len() < 2 {
                of_shard.push(key);
            }
            if keys.iter().all(|k| k.len() == 2) {
                break;
            }
        }
        let mine = |t: usize| [keys[0][t], keys[1][t]];

        // Plain threads, not a scope: a scope would wait for the very
        // threads whose deadlock the timeout is there to report.
        let stores = Arc::new(stores);
        let start = Arc::new(Barrier::new(2));
        let (done_tx, done_rx) = mpsc::channel();
        let threads: Vec<_> = (0..2)
            .map(|t| {
                let (stores, start, done_tx) = (stores.clone(), start.clone(), done_tx.clone());
                let mut touches: Vec<(usize, u64)> =
                    (0..2).flat_map(|node| mine(t).map(|key| (node, key))).collect();
                if t == 1 {
                    touches.reverse();
                }
                std::thread::spawn(move || {
                    let mut turn = TurnCommits::default();
                    for round in 1..=ROUNDS {
                        for &(node, key) in &touches {
                            turn.put(&stores, node, key, round, &round.to_le_bytes());
                        }
                        start.wait();
                        turn.commit(&stores);
                        assert!(turn.is_empty());
                    }
                    done_tx.send(()).unwrap();
                })
            })
            .collect();
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("two turns committing the same shards deadlocked");
        }
        threads.into_iter().for_each(|t| t.join().unwrap());
        let stores = Arc::into_inner(stores).expect("both threads joined");

        let sum = storage_sum(&stores);
        assert_eq!(sum.commit_batches, 2 * ROUNDS);
        assert_eq!(sum.commit_batch_shards, 2 * ROUNDS * 4);
        assert!(sum.checkpoints_written >= ROUNDS / 2, "{sum:?}");
        drop(stores);
        for node in 0..2 {
            let reopened = NodeStore::durable(&cfg, node).unwrap();
            for t in 0..2 {
                for key in mine(t) {
                    let want = Versioned { seq: ROUNDS, value: ROUNDS.to_le_bytes().to_vec() };
                    assert_eq!(reopened.get(key), Some(want), "node {node} key {key}");
                }
            }
        }
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }
}
