//! Log-structured persistence: per-shard append-only segment logs with
//! periodic checkpoints and torn-tail-truncating recovery.
//!
//! Every durable [`NodeStore`](crate::store::NodeStore) owns one
//! [`NodeWal`], which splits the node's key space into
//! `range_shards` equal hash ranges (top byte of `splitmix64(key)`, in
//! the style of rfs sharding: `00-7f=store1 80-ff=store2`). Each range
//! shard is an independent [`ShardLog`] directory:
//!
//! ```text
//! node-7/
//!   shard-0/
//!     ckpt-00000003.snap   # full LWW snapshot covering seg ids < 3
//!     seg-00000003.wal     # appended records since that checkpoint
//!     seg-00000004.wal
//!   shard-1/
//!     ...
//! ```
//!
//! ## Record format
//!
//! Segments and checkpoints share one framing, append-only:
//!
//! ```text
//! [len: u32 le] [crc: u32 le] [key: u64 le] [seq: u64 le] [value bytes]
//! ```
//!
//! `len` counts the payload (`key` onward, so ≥ 16); `crc` is CRC-32
//! (IEEE) of the payload. A record is valid iff its length is sane, the
//! payload is fully present, and the CRC matches — anything else marks
//! the end of the durable prefix.
//!
//! ## Durability contract
//!
//! Writes reach a segment by **group commit**. [`ShardLog::buffer`]
//! frames a record into the shard's in-memory pending buffer and
//! touches no file; [`ShardLog::commit`] lands everything pending with
//! one `write` and, per [`FsyncPolicy`], one `fdatasync` — `always`
//! syncs every commit, `every(n)` once at least `n` records have landed
//! since the last sync, `never` (the default) leaves the OS page cache
//! as the durability boundary (survives `SIGKILL`, not power loss).
//! Segment rotation and the `checkpoint_every` trigger are evaluated at
//! commit, so a segment may overshoot `segment_bytes` by one batch.
//!
//! Who commits when:
//!
//! * The reactor plane buffers every put of an event-loop turn — the
//!   coordinator's local write and every `ForwardPut` it serves — and
//!   commits each shard it dirtied once, all of them concurrently on
//!   its sync workers, after the turn's events and before the turn's
//!   socket flush. The acks of those puts are still
//!   sitting in write queues at that point, so **no ack, client or
//!   forward, is written to a socket before every record its put
//!   caused on this node is written and synced per policy**; nothing
//!   holds a reply back by hand. Forward *requests* carry no
//!   acknowledgement and may leave before the commit.
//! * Everything else — the threaded plane, `NodeStore::put` called from
//!   outside, `merge` — buffers and commits before returning.
//!
//! A record is encoded under the same shard lock that applies it to
//! the store map (lock order shard → map), so "in the map" implies "in
//! the pending buffer or on disk", and a commit drains *everything*
//! pending on the shard, whichever thread buffered it. Between buffer
//! and commit a write is visible to reads (of any reactor thread) but
//! not yet durable: a **read-uncommitted window** of at most one turn.
//! A reader can therefore see a value whose put is never acknowledged
//! because the process died first — the same outcome as a put whose
//! ack was lost on the wire.
//!
//! A crash (`SIGKILL`) mid-batch leaves at most a torn tail made of
//! records whose acks had not left the process; recovery truncates it.
//! Checkpoints are always written to a temp file, fsynced and renamed,
//! so a checkpoint is atomic.
//!
//! ## Recovery
//!
//! [`ShardLog::open`] replays the newest checkpoint, then every segment
//! at or above its id in order, LWW-merging records. The first invalid
//! record ends recovery: the segment is physically truncated to the
//! last valid record and any later segments are deleted — recovery
//! keeps **exactly the durable prefix**, and appends continue from it.

use crate::store::Versioned;
use rfh_obs::MetricsRegistry;
use rfh_ring::splitmix64;
use rfh_types::{Result as RfhResult, RfhError};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Record header bytes: `len` + `crc`.
const HEADER: usize = 8;
/// Fixed payload bytes before the value: `key` + `seq`.
const FIXED: usize = 16;
/// Upper bound on one record's payload — larger lengths mark a corrupt
/// header before any allocation happens.
const MAX_RECORD: u32 = 1 << 26;
/// A shard's pending buffer is freed after a commit once it has grown
/// past this, so `range_shards × nodes` shards never each sit on their
/// largest batch.
const PENDING_KEEP: usize = 4096;
/// Checkpoints stream through a buffer flushed at this size.
const CKPT_CHUNK: usize = 64 << 10;

/// Where a checkpoint's records go: called once per `(key, seq, value)`.
pub type RecordSink<'a> = dyn FnMut(u64, u64, &[u8]) -> io::Result<()> + 'a;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, hand-rolled: the container has no
// registry access, so no crc crate.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the checksum guarding every WAL record.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// When segment appends reach the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append — survives power loss.
    Always,
    /// `fdatasync` every `n` appends per shard (and at rotation).
    EveryN(u64),
    /// Never fsync: the OS page cache is the durability boundary —
    /// survives process `SIGKILL`, not power loss.
    Never,
}

/// Knobs for the durable backend. Absent (`persistence` off) a cluster
/// runs purely in memory, byte-identical to a build without this
/// module.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistenceConfig {
    /// Root data directory; each node logs under `<dir>/node-<id>/`.
    pub dir: String,
    /// Fsync cadence for segment appends.
    pub fsync: FsyncPolicy,
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Checkpoint a shard after this many appended records.
    pub checkpoint_every: u64,
    /// Hash-range shards per node (1..=256 equal top-byte ranges).
    pub range_shards: u32,
}

impl PersistenceConfig {
    /// Defaults rooted at `dir`: no fsync (page-cache durability), 1 MiB
    /// segments, checkpoint every 4096 records, 2 range shards.
    pub fn with_dir(dir: impl Into<String>) -> Self {
        PersistenceConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Never,
            segment_bytes: 1 << 20,
            checkpoint_every: 4096,
            range_shards: 2,
        }
    }

    /// Domain checks beyond parsing.
    pub fn validate(&self) -> RfhResult<()> {
        let err = |reason: &str| RfhError::InvalidConfig {
            parameter: "persistence",
            reason: reason.to_string(),
        };
        if self.dir.is_empty() {
            return Err(err("dir must not be empty"));
        }
        if self.segment_bytes < 1024 {
            return Err(err("segment_bytes must be at least 1024"));
        }
        if self.checkpoint_every == 0 {
            return Err(err("checkpoint_every must be at least 1"));
        }
        if !(1..=256).contains(&self.range_shards) {
            return Err(err("range_shards must be in 1..=256"));
        }
        if let FsyncPolicy::EveryN(n) = self.fsync {
            if n == 0 {
                return Err(err("fsync wants \"always\", \"never\" or an int ≥ 1"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Storage counters
// ---------------------------------------------------------------------

/// Lifetime storage counters for one node, shared by its shard logs.
/// Everything is monotone, so scrapes are idempotent.
#[derive(Debug, Default)]
pub struct StorageStats {
    /// Segment files created (including recovery reopens).
    pub segments_written: AtomicU64,
    /// Records appended to segments.
    pub records_appended: AtomicU64,
    /// Bytes appended to segments (headers included).
    pub bytes_appended: AtomicU64,
    /// `fdatasync` calls issued by the fsync policy.
    pub fsyncs: AtomicU64,
    /// Commits that landed at least one record (`records_appended /
    /// commits` is the mean batch).
    pub commits: AtomicU64,
    /// Microseconds spent in those commits — write, policy sync and
    /// rotation, checkpoints excluded — summed. A reactor turn runs its
    /// shard commits concurrently, so this is a sum of overlapping
    /// intervals, not time a thread was held up: that is
    /// `commit_batch_us`, and `commit_us / commit_batch_us` is the
    /// overlap.
    pub commit_us: AtomicU64,
    /// Microseconds inside `fdatasync` alone (policy syncs and
    /// rotation's; checkpoint files excluded), summed like `commit_us`.
    pub sync_us: AtomicU64,
    /// Reactor-turn commits: one per turn that owed any shard a commit.
    /// The three `commit_batch_*` counters of a turn land on the node
    /// whose shard leads the batch, so they are exact summed over the
    /// cluster and a sample per node.
    pub commit_batches: AtomicU64,
    /// Shards those turns committed (`/ commit_batches` is the width
    /// of the mean batch).
    pub commit_batch_shards: AtomicU64,
    /// Wall-clock microseconds the reactor threads spent in those
    /// commits, barrier included, checkpoints included.
    pub commit_batch_us: AtomicU64,
    /// Checkpoint files written.
    pub checkpoints_written: AtomicU64,
    /// Bytes written into checkpoint files.
    pub bytes_checkpointed: AtomicU64,
    /// Records replayed during recovery (checkpoint + segments).
    pub records_replayed: AtomicU64,
    /// Invalid tails dropped during recovery (segment truncations and
    /// checkpoint suffixes ignored).
    pub torn_tails_truncated: AtomicU64,
    /// Microseconds spent in recovery scans, summed over shards.
    pub recovery_us: AtomicU64,
}

/// A plain-value copy of [`StorageStats`], for aggregation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageSnapshot {
    /// See [`StorageStats::segments_written`].
    pub segments_written: u64,
    /// See [`StorageStats::records_appended`].
    pub records_appended: u64,
    /// See [`StorageStats::bytes_appended`].
    pub bytes_appended: u64,
    /// See [`StorageStats::fsyncs`].
    pub fsyncs: u64,
    /// See [`StorageStats::commits`].
    pub commits: u64,
    /// See [`StorageStats::commit_us`].
    pub commit_us: u64,
    /// See [`StorageStats::sync_us`].
    pub sync_us: u64,
    /// See [`StorageStats::commit_batches`].
    pub commit_batches: u64,
    /// See [`StorageStats::commit_batch_shards`].
    pub commit_batch_shards: u64,
    /// See [`StorageStats::commit_batch_us`].
    pub commit_batch_us: u64,
    /// See [`StorageStats::checkpoints_written`].
    pub checkpoints_written: u64,
    /// See [`StorageStats::bytes_checkpointed`].
    pub bytes_checkpointed: u64,
    /// See [`StorageStats::records_replayed`].
    pub records_replayed: u64,
    /// See [`StorageStats::torn_tails_truncated`].
    pub torn_tails_truncated: u64,
    /// See [`StorageStats::recovery_us`].
    pub recovery_us: u64,
}

impl StorageSnapshot {
    /// Accumulate another node's counters into this one.
    pub fn add(&mut self, o: StorageSnapshot) {
        self.segments_written += o.segments_written;
        self.records_appended += o.records_appended;
        self.bytes_appended += o.bytes_appended;
        self.fsyncs += o.fsyncs;
        self.commits += o.commits;
        self.commit_us += o.commit_us;
        self.sync_us += o.sync_us;
        self.commit_batches += o.commit_batches;
        self.commit_batch_shards += o.commit_batch_shards;
        self.commit_batch_us += o.commit_batch_us;
        self.checkpoints_written += o.checkpoints_written;
        self.bytes_checkpointed += o.bytes_checkpointed;
        self.records_replayed += o.records_replayed;
        self.torn_tails_truncated += o.torn_tails_truncated;
        self.recovery_us += o.recovery_us;
    }

    /// Publish as `serve.storage.*` series.
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        registry.counter_total("serve.storage.segments_written", self.segments_written);
        registry.counter_total("serve.storage.records_appended", self.records_appended);
        registry.counter_total("serve.storage.bytes_appended", self.bytes_appended);
        registry.counter_total("serve.storage.fsyncs", self.fsyncs);
        registry.counter_total("serve.storage.commits", self.commits);
        registry.counter_total("serve.storage.commit_us", self.commit_us);
        registry.counter_total("serve.storage.sync_us", self.sync_us);
        registry.counter_total("serve.storage.commit_batches", self.commit_batches);
        registry.counter_total("serve.storage.commit_batch_shards", self.commit_batch_shards);
        registry.counter_total("serve.storage.commit_batch_us", self.commit_batch_us);
        registry.counter_total("serve.storage.checkpoints_written", self.checkpoints_written);
        registry.counter_total("serve.storage.bytes_checkpointed", self.bytes_checkpointed);
        registry.counter_total("serve.storage.records_replayed", self.records_replayed);
        registry.counter_total("serve.storage.torn_tails_truncated", self.torn_tails_truncated);
        registry.counter_total("serve.storage.recovery_us", self.recovery_us);
    }
}

impl StorageStats {
    /// Current counter values.
    pub fn snapshot(&self) -> StorageSnapshot {
        StorageSnapshot {
            segments_written: self.segments_written.load(Ordering::Relaxed),
            records_appended: self.records_appended.load(Ordering::Relaxed),
            bytes_appended: self.bytes_appended.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            commit_us: self.commit_us.load(Ordering::Relaxed),
            sync_us: self.sync_us.load(Ordering::Relaxed),
            commit_batches: self.commit_batches.load(Ordering::Relaxed),
            commit_batch_shards: self.commit_batch_shards.load(Ordering::Relaxed),
            commit_batch_us: self.commit_batch_us.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            bytes_checkpointed: self.bytes_checkpointed.load(Ordering::Relaxed),
            records_replayed: self.records_replayed.load(Ordering::Relaxed),
            torn_tails_truncated: self.torn_tails_truncated.load(Ordering::Relaxed),
            recovery_us: self.recovery_us.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

/// Append one framed record to `buf`.
fn encode_record(buf: &mut Vec<u8>, key: u64, seq: u64, value: &[u8]) {
    let len = (FIXED + value.len()) as u32;
    let start = buf.len();
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // crc placeholder
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(value);
    let crc = crc32(&buf[start + HEADER..]);
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Walk the framed records in `data`, calling `f` for each valid one.
/// Returns the byte length of the valid prefix — the offset of the
/// first invalid record, or `data.len()` if everything parses.
fn scan_records(data: &[u8], mut f: impl FnMut(u64, u64, &[u8])) -> usize {
    let mut pos = 0usize;
    while data.len() - pos >= HEADER + FIXED {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
        if len < FIXED as u32 || len > MAX_RECORD {
            break;
        }
        let end = pos + HEADER + len as usize;
        if end > data.len() {
            break;
        }
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let payload = &data[pos + HEADER..end];
        if crc32(payload) != crc {
            break;
        }
        let key = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let seq = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        f(key, seq, &payload[16..]);
        pos = end;
    }
    pos
}

// ---------------------------------------------------------------------
// One range shard's log
// ---------------------------------------------------------------------

fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.wal"))
}

fn ckpt_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("ckpt-{id:08}.snap"))
}

/// Parse `seg-NNNNNNNN.wal` / `ckpt-NNNNNNNN.snap` names back to ids.
fn file_id(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// The append-only log of one hash-range shard: rotating segment files
/// plus the newest checkpoint. All mutation happens behind the owning
/// [`NodeWal`]'s per-shard mutex.
#[derive(Debug)]
pub struct ShardLog {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    stats: Arc<StorageStats>,
    /// Id of the active segment (monotone; checkpoints cover ids below
    /// their own).
    seg_id: u64,
    file: File,
    file_bytes: u64,
    /// Records landed in the segment since the last sync.
    records_since_sync: u64,
    /// Records appended since the last checkpoint, across rotations.
    records_since_ckpt: u64,
    /// Framed records buffered since the last commit, in buffer order.
    pending: Vec<u8>,
    pending_records: u64,
}

impl ShardLog {
    /// Open (or create) the shard at `dir`, replaying checkpoint +
    /// segments. Returns the log positioned for appending and the
    /// recovered entries (LWW-merged).
    pub fn open(
        dir: PathBuf,
        policy: FsyncPolicy,
        segment_bytes: u64,
        stats: Arc<StorageStats>,
    ) -> io::Result<(ShardLog, Vec<(u64, Versioned)>)> {
        let t0 = std::time::Instant::now();
        fs::create_dir_all(&dir)?;

        // Inventory the directory.
        let mut seg_ids: Vec<u64> = Vec::new();
        let mut ckpt_ids: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = file_id(&name, "seg-", ".wal") {
                seg_ids.push(id);
            } else if let Some(id) = file_id(&name, "ckpt-", ".snap") {
                ckpt_ids.push(id);
            } else if name.ends_with(".tmp") {
                // A checkpoint that never reached its rename — garbage.
                let _ = fs::remove_file(entry.path());
            }
        }
        seg_ids.sort_unstable();
        ckpt_ids.sort_unstable();

        let mut map: std::collections::HashMap<u64, Versioned> = std::collections::HashMap::new();
        let mut lww = |key: u64, seq: u64, value: &[u8]| {
            stats.records_replayed.fetch_add(1, Ordering::Relaxed);
            match map.get(&key) {
                Some(cur) if cur.seq >= seq => {}
                _ => {
                    map.insert(key, Versioned { seq, value: value.to_vec() });
                }
            }
        };

        // Newest checkpoint first (rename made it atomic; a corrupt
        // suffix is still dropped defensively, keeping the valid
        // prefix).
        let ckpt_floor = ckpt_ids.last().copied();
        if let Some(id) = ckpt_floor {
            let data = fs::read(ckpt_path(&dir, id))?;
            let valid = scan_records(&data, &mut lww);
            if valid < data.len() {
                stats.torn_tails_truncated.fetch_add(1, Ordering::Relaxed);
            }
        }
        for &id in &ckpt_ids {
            if Some(id) != ckpt_floor {
                let _ = fs::remove_file(ckpt_path(&dir, id));
            }
        }

        // Segments at or above the checkpoint floor, in id order. The
        // first invalid record ends the durable prefix: truncate there,
        // drop everything after.
        let mut open_id: Option<u64> = None;
        let mut open_bytes = 0u64;
        let mut cut = false;
        for (i, &id) in seg_ids.iter().enumerate() {
            let path = seg_path(&dir, id);
            if cut || ckpt_floor.is_some_and(|c| id < c) {
                fs::remove_file(&path)?;
                continue;
            }
            let data = fs::read(&path)?;
            let valid = scan_records(&data, &mut lww);
            if valid < data.len() {
                stats.torn_tails_truncated.fetch_add(1, Ordering::Relaxed);
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid as u64)?;
                cut = true; // later segments are past the durable prefix
            }
            // A gap in segment ids means the tail was lost wholesale
            // (e.g. deleted by a test): everything after it is past the
            // durable prefix too.
            if !cut && i + 1 < seg_ids.len() && seg_ids[i + 1] != id + 1 {
                cut = true;
            }
            open_id = Some(id);
            open_bytes = valid as u64;
        }

        // Position the active segment: continue the last one if it has
        // room, else start the next id.
        let (seg_id, fresh) = match open_id {
            Some(id) if open_bytes < segment_bytes => (id, false),
            Some(id) => (id + 1, true),
            None => (ckpt_floor.unwrap_or(0), true),
        };
        let file = OpenOptions::new().create(true).append(true).open(seg_path(&dir, seg_id))?;
        if fresh {
            stats.segments_written.fetch_add(1, Ordering::Relaxed);
            open_bytes = 0;
        }

        stats.recovery_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        let log = ShardLog {
            dir,
            policy,
            segment_bytes,
            stats,
            seg_id,
            file,
            file_bytes: open_bytes,
            records_since_sync: 0,
            records_since_ckpt: 0,
            pending: Vec::new(),
            pending_records: 0,
        };
        Ok((log, map.into_iter().collect()))
    }

    /// Re-run recovery from disk, discarding in-memory position and
    /// the pending buffer — the restart verb's replay. Counters
    /// accumulate.
    pub fn reopen(&mut self) -> io::Result<Vec<(u64, Versioned)>> {
        let (log, entries) = ShardLog::open(
            self.dir.clone(),
            self.policy,
            self.segment_bytes,
            Arc::clone(&self.stats),
        )?;
        *self = log;
        Ok(entries)
    }

    /// Frame one record into the pending buffer. Nothing reaches the
    /// file until [`commit`](Self::commit).
    pub fn buffer(&mut self, key: u64, seq: u64, value: &[u8]) {
        encode_record(&mut self.pending, key, seq, value);
        self.pending_records += 1;
    }

    /// Land everything pending: one `write`, then one `fdatasync` if
    /// the policy asks for it, then rotation if the segment is full.
    /// With nothing pending this is free.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.pending_records == 0 {
            return Ok(());
        }
        let t0 = std::time::Instant::now();
        self.file.write_all(&self.pending)?;
        let (records, bytes) = (self.pending_records, self.pending.len() as u64);
        if self.pending.capacity() > PENDING_KEEP {
            self.pending = Vec::new();
        } else {
            self.pending.clear();
        }
        self.pending_records = 0;
        self.file_bytes += bytes;
        self.records_since_ckpt += records;
        self.records_since_sync += records;
        self.stats.records_appended.fetch_add(records, Ordering::Relaxed);
        self.stats.bytes_appended.fetch_add(bytes, Ordering::Relaxed);
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.records_since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        if self.file_bytes >= self.segment_bytes {
            self.rotate()?;
        }
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        self.stats.commit_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Append one record on its own: buffer, then commit.
    pub fn append(&mut self, key: u64, seq: u64, value: &[u8]) -> io::Result<()> {
        self.buffer(key, seq, value);
        self.commit()
    }

    /// Records appended to this shard since its last checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_ckpt
    }

    /// Write a checkpoint of `entries`, which must be the shard's full
    /// current contents. See [`checkpoint_with`](Self::checkpoint_with).
    pub fn checkpoint(&mut self, entries: &[(u64, Versioned)]) -> io::Result<()> {
        self.checkpoint_with(|put| entries.iter().try_for_each(|(k, v)| put(*k, v.seq, &v.value)))
    }

    /// Write a checkpoint covering everything buffered or appended so
    /// far. `feed` must pass the shard's full current contents to the
    /// sink, one record at a time (the caller holds this shard's lock,
    /// so nothing can be buffered meanwhile); they stream into the file
    /// through one bounded buffer. Older segments and checkpoints are
    /// deleted.
    pub fn checkpoint_with(
        &mut self,
        feed: impl FnOnce(&mut RecordSink) -> io::Result<()>,
    ) -> io::Result<()> {
        // Seal the current segment first: the checkpoint covers all ids
        // below the new active segment.
        self.commit()?;
        self.rotate()?;
        let cover = self.seg_id;

        let tmp = self.dir.join(format!("ckpt-{cover:08}.snap.tmp"));
        let final_path = ckpt_path(&self.dir, cover);
        let mut written = 0u64;
        {
            let mut f = File::create(&tmp)?;
            let mut chunk = Vec::with_capacity(CKPT_CHUNK);
            feed(&mut |key, seq, value| {
                encode_record(&mut chunk, key, seq, value);
                if chunk.len() >= CKPT_CHUNK {
                    f.write_all(&chunk)?;
                    written += chunk.len() as u64;
                    chunk.clear();
                }
                Ok(())
            })?;
            f.write_all(&chunk)?;
            written += chunk.len() as u64;
            f.sync_data()?;
        }
        fs::rename(&tmp, &final_path)?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all(); // durable rename, best effort
        }
        self.stats.checkpoints_written.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_checkpointed.fetch_add(written, Ordering::Relaxed);

        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().to_string();
            let stale = file_id(&name, "seg-", ".wal").is_some_and(|id| id < cover)
                || file_id(&name, "ckpt-", ".snap").is_some_and(|id| id < cover);
            if stale {
                fs::remove_file(entry.path())?;
            }
        }
        self.records_since_ckpt = 0;
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Seal the outgoing segment, unless the commit just before has
        // synced everything in it (always, under `always`).
        if self.policy != FsyncPolicy::Never && self.records_since_sync > 0 {
            self.sync()?;
        }
        self.seg_id += 1;
        self.file =
            OpenOptions::new().create(true).append(true).open(seg_path(&self.dir, self.seg_id))?;
        self.file_bytes = 0;
        self.stats.segments_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let t0 = std::time::Instant::now();
        self.file.sync_data()?;
        self.records_since_sync = 0;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.stats.sync_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Per-node WAL: hash-range → shard mapping
// ---------------------------------------------------------------------

/// One node's durable backend: `range_shards` independent
/// [`ShardLog`]s, selected by the top byte of `splitmix64(key)`.
#[derive(Debug)]
pub struct NodeWal {
    shards: Vec<Mutex<ShardLog>>,
    range_shards: u32,
    checkpoint_every: u64,
    stats: Arc<StorageStats>,
}

impl NodeWal {
    /// Open the node's WAL under `node_dir`, recovering every shard.
    /// Returns the recovered entries of all shards (disjoint ranges).
    pub fn open(
        cfg: &PersistenceConfig,
        node_dir: PathBuf,
    ) -> io::Result<(NodeWal, Vec<(u64, Versioned)>)> {
        let stats = Arc::new(StorageStats::default());
        let mut shards = Vec::with_capacity(cfg.range_shards as usize);
        let mut recovered = Vec::new();
        for s in 0..cfg.range_shards {
            let (log, entries) = ShardLog::open(
                node_dir.join(format!("shard-{s}")),
                cfg.fsync,
                cfg.segment_bytes,
                Arc::clone(&stats),
            )?;
            shards.push(Mutex::new(log));
            recovered.extend(entries);
        }
        let wal = NodeWal {
            shards,
            range_shards: cfg.range_shards,
            checkpoint_every: cfg.checkpoint_every,
            stats,
        };
        Ok((wal, recovered))
    }

    /// Which range shard holds `key`: equal top-byte ranges of the same
    /// `splitmix64` the partition hash uses.
    pub fn shard_of(&self, key: u64) -> usize {
        (((splitmix64(key) >> 56) as usize) * self.range_shards as usize) / 256
    }

    /// Number of range shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The node's storage counters.
    pub fn stats(&self) -> &Arc<StorageStats> {
        &self.stats
    }

    /// Lock one range shard's log. Callers that also need the store
    /// map take it *after* this (lock order shard → map).
    pub fn lock_shard(&self, idx: usize) -> MutexGuard<'_, ShardLog> {
        self.shards[idx].lock().expect("shard lock")
    }

    /// Lock every shard, in index order.
    pub fn lock_all(&self) -> Vec<MutexGuard<'_, ShardLog>> {
        self.shards.iter().map(|s| s.lock().expect("shard lock")).collect()
    }

    /// Commit shard `idx`: land everything pending on it, whichever
    /// thread buffered it. When the shard then crosses its checkpoint
    /// threshold, `feed` is called (under the shard lock) for the
    /// shard's full contents and a checkpoint is written.
    pub fn commit(
        &self,
        idx: usize,
        feed: impl FnOnce(&mut RecordSink) -> io::Result<()>,
    ) -> io::Result<()> {
        self.commit_locked(&mut self.lock_shard(idx), feed)
    }

    /// [`commit`](Self::commit) without the checkpoint: returns whether
    /// the shard has crossed its checkpoint threshold, for the caller
    /// to follow up with `commit` from a thread of its choosing.
    pub fn commit_log(&self, idx: usize) -> io::Result<bool> {
        let mut log = self.lock_shard(idx);
        log.commit()?;
        Ok(log.records_since_checkpoint() >= self.checkpoint_every)
    }

    /// [`commit`](Self::commit) for a caller already holding the lock.
    pub fn commit_locked(
        &self,
        log: &mut ShardLog,
        feed: impl FnOnce(&mut RecordSink) -> io::Result<()>,
    ) -> io::Result<()> {
        log.commit()?;
        if log.records_since_checkpoint() >= self.checkpoint_every {
            log.checkpoint_with(feed)?;
        }
        Ok(())
    }

    /// Discard in-memory log positions — and anything still pending,
    /// as a crash would — and replay every shard from disk: the
    /// restart verb. Returns the recovered entries and how
    /// many records were replayed.
    pub fn replay_from_disk(&self) -> io::Result<(Vec<(u64, Versioned)>, u64)> {
        // Take every shard lock before touching anything, in index
        // order; nested lock order elsewhere is shard → store map, so
        // this cannot deadlock against the append/checkpoint path.
        let mut guards = self.lock_all();
        let before = self.stats.records_replayed.load(Ordering::Relaxed);
        let mut recovered = Vec::new();
        for g in guards.iter_mut() {
            recovered.extend(g.reopen()?);
        }
        let replayed = self.stats.records_replayed.load(Ordering::Relaxed) - before;
        Ok((recovered, replayed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering as AtomOrd};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, AtomOrd::Relaxed);
        let dir = std::env::temp_dir().join(format!("rfh-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> (ShardLog, Vec<(u64, Versioned)>) {
        ShardLog::open(dir.to_path_buf(), FsyncPolicy::Never, 1 << 20, Arc::default()).unwrap()
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_recover_roundtrips() {
        let dir = scratch_dir("roundtrip");
        {
            let (mut log, recovered) = open(&dir);
            assert!(recovered.is_empty());
            for k in 0..100u64 {
                log.append(k, k + 1, &k.to_le_bytes()).unwrap();
            }
            log.append(7, 99, b"newer").unwrap();
        }
        let (_, recovered) = open(&dir);
        assert_eq!(recovered.len(), 100);
        let v7 = recovered.iter().find(|(k, _)| *k == 7).unwrap();
        assert_eq!(v7.1, Versioned { seq: 99, value: b"newer".to_vec() }, "LWW on replay");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_valid_record() {
        let dir = scratch_dir("torn");
        let stats = Arc::new(StorageStats::default());
        {
            let (mut log, _) =
                ShardLog::open(dir.clone(), FsyncPolicy::Always, 1 << 20, Arc::clone(&stats))
                    .unwrap();
            for k in 0..10u64 {
                log.append(k, 1, b"value").unwrap();
            }
        }
        // Tear the tail mid-record.
        let seg = seg_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let after = Arc::new(StorageStats::default());
        let (_, recovered) =
            ShardLog::open(dir.clone(), FsyncPolicy::Never, 1 << 20, Arc::clone(&after)).unwrap();
        assert_eq!(recovered.len(), 9, "exactly the durable prefix");
        assert_eq!(after.torn_tails_truncated.load(Ordering::Relaxed), 1);
        assert_eq!(after.records_replayed.load(Ordering::Relaxed), 9);
        let record = (fs::metadata(&seg).unwrap().len()) % (HEADER as u64 + 16 + 5);
        assert_eq!(record, 0, "file physically truncated to whole records");

        // Appending after recovery continues the log cleanly.
        let (mut log, _) = open(&dir);
        log.append(99, 1, b"after").unwrap();
        drop(log);
        let (_, recovered) = open(&dir);
        assert_eq!(recovered.len(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_checkpoint_prune_old_segments() {
        let dir = scratch_dir("ckpt");
        let stats = Arc::new(StorageStats::default());
        let (mut log, _) =
            ShardLog::open(dir.clone(), FsyncPolicy::Never, 256, Arc::clone(&stats)).unwrap();
        let mut entries = Vec::new();
        for k in 0..50u64 {
            log.append(k, 1, &[7u8; 16]).unwrap();
            entries.push((k, Versioned { seq: 1, value: vec![7u8; 16] }));
        }
        assert!(stats.segments_written.load(Ordering::Relaxed) > 1, "tiny segments rotate");
        log.checkpoint(&entries).unwrap();
        log.append(100, 1, b"post").unwrap();
        drop(log);

        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.iter().filter(|n| n.starts_with("ckpt-")).count(), 1);
        assert!(
            names.iter().filter(|n| n.starts_with("seg-")).count() <= 2,
            "pre-checkpoint segments pruned: {names:?}"
        );

        let fresh = Arc::new(StorageStats::default());
        let (_, recovered) =
            ShardLog::open(dir.clone(), FsyncPolicy::Never, 256, Arc::clone(&fresh)).unwrap();
        assert_eq!(recovered.len(), 51, "checkpoint + tail segments replay completely");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn node_wal_shards_by_hash_range_and_replays() {
        let dir = scratch_dir("node");
        let cfg = PersistenceConfig {
            range_shards: 4,
            ..PersistenceConfig::with_dir(dir.to_string_lossy().into_owned())
        };
        let (wal, recovered) = NodeWal::open(&cfg, dir.clone()).unwrap();
        assert!(recovered.is_empty());
        for k in 0..200u64 {
            wal.lock_shard(wal.shard_of(k)).buffer(k, 1, b"v");
        }
        for s in 0..wal.shards() {
            wal.commit(s, |_| unreachable!("no checkpoint this early")).unwrap();
        }
        assert_eq!(wal.stats().snapshot().commits, 4, "one commit per shard, not per record");
        let hit: std::collections::HashSet<usize> = (0..200u64).map(|k| wal.shard_of(k)).collect();
        assert_eq!(hit.len(), 4, "keys spread over every range shard");

        let (recovered, replayed) = wal.replay_from_disk().unwrap();
        assert_eq!(recovered.len(), 200);
        assert_eq!(replayed, 200);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policies_count_syncs() {
        let dir = scratch_dir("fsync");
        let stats = Arc::new(StorageStats::default());
        let (mut log, _) =
            ShardLog::open(dir.clone(), FsyncPolicy::EveryN(4), 1 << 20, Arc::clone(&stats))
                .unwrap();
        for k in 0..8u64 {
            log.append(k, 1, b"x").unwrap();
        }
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 2, "every 4th append syncs");
        // Rotation seals the outgoing segment only if something in it
        // is still unsynced.
        log.rotate().unwrap();
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 2, "nothing outstanding, no sync");
        log.append(8, 1, b"x").unwrap();
        log.rotate().unwrap();
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 3, "one record outstanding: sealed");
        drop(log);
        fs::remove_dir_all(&dir).unwrap();

        // `always`: the commit has synced, so neither a full segment's
        // rotation nor a checkpoint's adds an fsync to the count.
        let stats = Arc::new(StorageStats::default());
        let (mut log, _) =
            ShardLog::open(dir.clone(), FsyncPolicy::Always, 1024, Arc::clone(&stats)).unwrap();
        for k in 0..40u64 {
            log.append(k, 1, &[7u8; 100]).unwrap();
        }
        let snap = stats.snapshot();
        assert!(snap.segments_written > 3, "1 KiB segments rotate: {snap:?}");
        assert_eq!(snap.fsyncs, 40, "one sync per commit, none per rotation");
        log.checkpoint(&[]).unwrap();
        assert_eq!(stats.snapshot().fsyncs, 40, "a checkpoint's seal re-syncs nothing");
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }
}
