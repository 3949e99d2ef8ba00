//! The append/replay engine: framed records on disk, appended into a
//! zero-filled tail, durable snapshot installation with log truncation,
//! and torn-tail-tolerant recovery.

use crate::config::{DurabilityConfig, DurabilityMode};
use crate::record::WalRecord;
use crate::snapshot::{ShardSnapshot, ShardSnapshotRef, SNAPSHOT_STAGE};
use idea_types::codec::Codec;
use idea_types::{NodeId, Update};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File magics: 8 bytes of identity + format version, so a snapshot file
/// handed to the log replayer (or vice versa) fails loudly.
const LOG_MAGIC: &[u8; 8] = b"IDEAWAL1";
const SNAP_MAGIC: &[u8; 8] = b"IDEASNP1";

/// Frame header: `[len: u32 LE][crc32: u32 LE]` before the payload.
const FRAME_HEADER: usize = 8;

/// Bytes of zeros an append writes past the log's end when its frame does
/// not fit in the zero-filled space left. Later frames overwrite those
/// zeros in place, so the file's size stays put and a group-commit
/// `fdatasync` flushes data only: no inode-size change to commit through
/// the filesystem journal. The extension pays that commit once per chunk,
/// in the first sync after it, which also flushes the chunk's zeros: at
/// 256 KiB that stall is a quarter of a 1 MiB chunk's, and on `served_write`
/// (a 2-core VM, ext4) 256 KiB beat 1 MiB in 8 of 10 pairs.
const ZERO_CHUNK: usize = 1 << 18;

/// The zeros one extension writes.
static ZEROS: [u8; ZERO_CHUNK] = [0; ZERO_CHUNK];

// ---------------------------------------------------------------- CRC-32

/// The CRC-32 (IEEE 802.3) slicing-by-8 tables, built at compile time — no
/// dependency, no unsafe, and the same polynomial every standard tool
/// (`cksum -o3`, zlib) can verify a WAL file against. `CRC_TABLES[0]` is
/// the bytewise table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so one step folds eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// The CRC-32 of the bytes `crc` covers followed by `bytes`, so a stream
/// can be checksummed piece by piece: `crc32_update(crc32(a), b)` is
/// `crc32` of `a` then `b`, and `crc32_update(0, b)` is `crc32(b)`.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------- errors

/// A durability-plane failure.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file I/O failed.
    Io(std::io::Error),
    /// A file was structurally corrupt beyond torn-tail tolerance: bad
    /// magic, or a checksum-valid frame whose payload does not decode.
    Corrupt {
        /// What was found corrupt.
        what: &'static str,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O failure: {e}"),
            WalError::Corrupt { what } => write!(f, "WAL corrupt: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Durability-plane result.
pub type WalResult<T> = std::result::Result<T, WalError>;

// --------------------------------------------------------------- recovery

/// What a shard's files held at open time.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// The last durable snapshot, if one was installed.
    pub snapshot: Option<ShardSnapshot>,
    /// Records appended after that snapshot, in append order.
    pub tail: Vec<WalRecord>,
    /// Non-zero bytes past the valid prefix (a torn final frame — the
    /// crash point). The zero-filled tail an append reserved is not
    /// counted, so this is zero after a clean shutdown and after a crash
    /// between whole appends.
    pub torn_bytes: u64,
    /// Byte length of the valid log prefix (magic + intact frames).
    valid_len: u64,
    /// Byte length of the whole log file, zero tail included.
    log_len: u64,
}

impl Recovered {
    /// True when nothing durable existed (fresh directory).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.tail.is_empty()
    }
}

/// Makes `dir`'s entries durable: a file created or renamed in it.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// `create_dir_all(dir)`; under `Sync` also fsyncs the parent of each
/// directory it created, so a host crash cannot lose a new directory (and
/// every acknowledged record later written into it).
fn create_dir_durable(dir: &Path, mode: DurabilityMode) -> std::io::Result<()> {
    let created: Vec<&Path> = dir.ancestors().take_while(|d| !d.exists()).collect();
    std::fs::create_dir_all(dir)?;
    if mode == DurabilityMode::Sync {
        for parent in created.iter().filter_map(|d| d.parent()) {
            // A relative path's last parent is the empty path: the cwd.
            sync_dir(if parent.as_os_str().is_empty() { Path::new(".") } else { parent })?;
        }
    }
    Ok(())
}

/// A frame header: `[len: u32 LE][crc32: u32 LE]`.
fn frame_header(len: usize, crc: u32) -> [u8; FRAME_HEADER] {
    let mut header = [0; FRAME_HEADER];
    header[..4].copy_from_slice(&(len as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Appends one frame to `out`, letting `encode` write the payload straight
/// into it: the header is reserved first and filled in once the payload's
/// length and checksum are known, so nothing is encoded into a buffer of
/// its own and copied.
fn append_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    encode(out);
    let payload = header + FRAME_HEADER;
    let filled = frame_header(out.len() - payload, crc32(&out[payload..]));
    out[header..payload].copy_from_slice(&filled);
}

/// One frame scanned out of `buf` at `pos`: `Some((payload, next_pos))`
/// when intact, `None` at the end of the log: a zero-length header (the
/// zero-filled tail; no payload is empty, since record tags start at 1)
/// or a torn tail (short header, short payload, or checksum mismatch).
fn scan_frame(buf: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let header = buf.get(pos..pos + FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    if len == 0 {
        return None;
    }
    let want = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let payload = buf.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len)?;
    if crc32(payload) != want {
        return None;
    }
    Some((payload, pos + FRAME_HEADER + len))
}

// --------------------------------------------------------------- ShardWal

/// The append handle to one shard's WAL, plus its snapshot installer.
///
/// Frames go into space the handle has already zero-filled: an append
/// that would cross the file's end first writes `ZERO_CHUNK` (256 KiB) of
/// zeros past it. Recovery reads a zero-length header as the end of the
/// log, `open` and `install_snapshot` cut the file back to its valid
/// prefix or to the magic, and dropping the handle (a clean close) trims
/// the unused zeros, so only a crashed log carries a zero tail.
///
/// I/O failures on the append path surface as [`WalError`] from the store
/// layer's wrapper, which treats them as fail-stop (a replica that cannot
/// persist must not acknowledge writes).
#[derive(Debug)]
pub struct ShardWal {
    log_path: PathBuf,
    snap_path: PathBuf,
    mode: DurabilityMode,
    snapshot_every: u64,
    /// One `fdatasync` per this many Sync-mode appends (1 = every append).
    group_commit: u64,
    shard: u32,
    /// Positioned at `end` between appends.
    file: File,
    /// The write cursor: bytes of magic and frames.
    end: u64,
    /// The file's length: `end` plus the zeros not yet written over.
    filled: u64,
    tail_records: u64,
    /// Updates held by the snapshot on disk (0 when there is none): the
    /// tail is allowed to grow to this before the next one is due.
    snapshot_records: u64,
    /// Appends written since the last `fdatasync` (group-commit window).
    unsynced: u64,
    /// The frame being appended, or the stage a snapshot streams through
    /// (`SNAPSHOT_STAGE`, 64 KiB); kept for its allocation.
    frame: Vec<u8>,
}

impl ShardWal {
    /// The per-node directory under the configured root.
    pub(crate) fn node_dir(cfg: &DurabilityConfig, node: NodeId) -> PathBuf {
        cfg.dir.join(format!("node-{}", node.index()))
    }

    fn paths(cfg: &DurabilityConfig, node: NodeId, shard: u32) -> (PathBuf, PathBuf, PathBuf) {
        let dir = Self::node_dir(cfg, node);
        let log = dir.join(format!("wal-{shard}.log"));
        let snap = dir.join(format!("snap-{shard}.bin"));
        (dir, log, snap)
    }

    /// Reads (without modifying) whatever the shard's files hold: the last
    /// durable snapshot and the valid log tail. Missing files read as
    /// empty. Test and tooling entry point; [`ShardWal::open`] uses the
    /// same scan and then truncates the torn tail for appending.
    ///
    /// # Errors
    /// Fails on I/O errors or structural corruption (bad magic, a
    /// checksum-valid frame that does not decode).
    pub fn load(cfg: &DurabilityConfig, node: NodeId, shard: u32) -> WalResult<Recovered> {
        let (_, log_path, snap_path) = Self::paths(cfg, node, shard);
        let mut out = Recovered::default();

        if snap_path.exists() {
            let bytes = std::fs::read(&snap_path)?;
            let body = bytes
                .strip_prefix(SNAP_MAGIC)
                .ok_or(WalError::Corrupt { what: "snapshot magic" })?;
            let (payload, next) =
                scan_frame(body, 0).ok_or(WalError::Corrupt { what: "snapshot frame" })?;
            if next != body.len() {
                return Err(WalError::Corrupt { what: "trailing bytes after snapshot frame" });
            }
            let snap = ShardSnapshot::from_bytes(payload)
                .map_err(|_| WalError::Corrupt { what: "snapshot payload" })?;
            out.snapshot = Some(snap);
        }

        if log_path.exists() {
            let bytes = std::fs::read(&log_path)?;
            if bytes.len() < LOG_MAGIC.len() {
                // A crash can tear even the magic of a brand-new log.
                out.torn_bytes = bytes.len() as u64;
                return Ok(out);
            }
            if &bytes[..LOG_MAGIC.len()] != LOG_MAGIC {
                return Err(WalError::Corrupt { what: "log magic" });
            }
            let mut pos = LOG_MAGIC.len();
            while let Some((payload, next)) = scan_frame(&bytes, pos) {
                // An intact frame that does not decode is corruption, not a
                // torn tail — fail loudly instead of silently dropping
                // acknowledged history.
                let rec = WalRecord::from_bytes(payload)
                    .map_err(|_| WalError::Corrupt { what: "record payload" })?;
                out.tail.push(rec);
                pos = next;
            }
            out.torn_bytes = bytes[pos..].iter().filter(|&&b| b != 0).count() as u64;
            out.valid_len = pos as u64;
            out.log_len = bytes.len() as u64;
        }
        Ok(out)
    }

    /// Opens the shard's WAL for appending, recovering whatever the files
    /// hold: returns the handle (positioned after the valid prefix, torn
    /// and zero tails truncated) and the recovered state. A fresh
    /// directory yields an empty [`Recovered`].
    ///
    /// # Errors
    /// Fails on I/O errors or structural corruption.
    pub fn open(
        cfg: &DurabilityConfig,
        node: NodeId,
        shard: u32,
    ) -> WalResult<(ShardWal, Recovered)> {
        let (dir, log_path, snap_path) = Self::paths(cfg, node, shard);
        create_dir_durable(&dir, cfg.mode)?;
        let recovered = Self::load(cfg, node, shard)?;

        // `truncate(false)`: the valid prefix must survive; only the torn
        // and zero tails (if any) are cut below, via `set_len`.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)?;
        let restarted = recovered.valid_len == 0;
        if restarted {
            // New file, or one torn before the magic completed: restart it.
            file.set_len(0)?;
            file.write_all(LOG_MAGIC)?;
        } else if recovered.log_len > recovered.valid_len {
            file.set_len(recovered.valid_len)?;
        }
        let end = file.seek(SeekFrom::End(0))?;
        if cfg.mode == DurabilityMode::Sync {
            file.sync_data()?;
            if restarted {
                sync_dir(&dir)?;
            }
        }

        let mut wal = Self::handle(cfg, shard, log_path, snap_path, file, end);
        wal.tail_records = recovered.tail.len() as u64;
        wal.snapshot_records = recovered.snapshot.as_ref().map_or(0, |s| s.borrowed().records());
        Ok((wal, recovered))
    }

    /// Opens the shard's WAL as a **fresh genesis**: any existing log and
    /// snapshot are discarded first. Restarting an existing identity goes
    /// through [`ShardWal::open`] + replay (`IdeaNode::recover`).
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn create(cfg: &DurabilityConfig, node: NodeId, shard: u32) -> WalResult<ShardWal> {
        let mut wals = Self::create_shards(cfg, node, shard..shard + 1)?;
        Ok(wals.pop().expect("one shard was asked for"))
    }

    /// [`ShardWal::create`] for the shards `shards` of one node, in order:
    /// under `Sync` the node directory is fsynced once for all of their
    /// logs, not once per log. This is what a brand-new node identity uses
    /// (`IdeaNode::try_new`).
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn create_shards(
        cfg: &DurabilityConfig,
        node: NodeId,
        shards: Range<u32>,
    ) -> WalResult<Vec<ShardWal>> {
        let dir = Self::node_dir(cfg, node);
        create_dir_durable(&dir, cfg.mode)?;
        let wals = shards
            .map(|shard| {
                let (_, log_path, snap_path) = Self::paths(cfg, node, shard);
                if snap_path.exists() {
                    std::fs::remove_file(&snap_path)?;
                }
                let mut file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(&log_path)?;
                file.set_len(0)?;
                file.write_all(LOG_MAGIC)?;
                if cfg.mode == DurabilityMode::Sync {
                    file.sync_data()?;
                }
                let end = LOG_MAGIC.len() as u64;
                Ok(Self::handle(cfg, shard, log_path, snap_path, file, end))
            })
            .collect::<WalResult<Vec<_>>>()?;
        if cfg.mode == DurabilityMode::Sync {
            // The new logs' names (and the old snapshots' removal).
            sync_dir(&dir)?;
        }
        Ok(wals)
    }

    /// A handle on `file`, positioned at `end` with nothing past it.
    fn handle(
        cfg: &DurabilityConfig,
        shard: u32,
        log_path: PathBuf,
        snap_path: PathBuf,
        file: File,
        end: u64,
    ) -> ShardWal {
        ShardWal {
            log_path,
            snap_path,
            mode: cfg.mode,
            snapshot_every: cfg.snapshot_every,
            group_commit: cfg.group_commit.max(1),
            shard,
            file,
            end,
            filled: end,
            tail_records: 0,
            snapshot_records: 0,
            unsynced: 0,
            frame: Vec::new(),
        }
    }

    /// Appends one record; under [`DurabilityMode::Sync`] an `fdatasync`
    /// runs once the group-commit window fills (every append when the
    /// window is 1, the default). A snapshot install drains a partially
    /// filled window. A frame that does not fit in the zero-filled space
    /// left first extends it by one `ZERO_CHUNK` (256 KiB) of zeros.
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn append(&mut self, rec: &WalRecord) -> WalResult<()> {
        self.frame.clear();
        append_frame(&mut self.frame, |out| rec.encode(out));
        let end = self.end + self.frame.len() as u64;
        if end > self.filled {
            self.zero_fill(end)?;
        }
        self.file.write_all(&self.frame)?;
        self.end = end;
        self.unsynced += 1;
        if self.mode == DurabilityMode::Sync && self.unsynced >= self.group_commit {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        self.tail_records += 1;
        Ok(())
    }

    /// Writes whole chunks of zeros past the filled end until it reaches
    /// `upto`, then puts the file position back at the write cursor.
    fn zero_fill(&mut self, upto: u64) -> WalResult<()> {
        self.file.seek(SeekFrom::Start(self.filled))?;
        while self.filled < upto {
            self.file.write_all(&ZEROS)?;
            self.filled += ZERO_CHUNK as u64;
        }
        self.file.seek(SeekFrom::Start(self.end))?;
        Ok(())
    }

    /// Appends written since the last `fdatasync` (at most
    /// `group_commit - 1` after any Sync-mode append returns).
    pub fn unsynced_records(&self) -> u64 {
        self.unsynced
    }

    /// True once the tail holds at least `snapshot_every` records **and**
    /// at least as many as the snapshot on disk holds updates — time for
    /// the owner to call [`ShardWal::install_snapshot`]. Rewriting the
    /// whole state only after as much again has been logged (the
    /// append-only-file rewrite rule) keeps the bytes written to snapshots
    /// over `N` records at `O(N)`, where a fixed period costs
    /// `O(N² / period)`; recovery never replays more records than it
    /// loads, and the log never outgrows the snapshot by more than the
    /// `snapshot_every` floor.
    pub fn should_snapshot(&self) -> bool {
        self.snapshot_every > 0
            && self.tail_records >= self.snapshot_every.max(self.snapshot_records)
    }

    /// Records appended since the last durable snapshot (the "WAL tail").
    /// Zero right after a snapshot — the clean-shutdown invariant.
    pub fn tail_records(&self) -> u64 {
        self.tail_records
    }

    /// Installs a durable snapshot: stream it to a temporary file, fsync,
    /// rename over the previous snapshot (under [`DurabilityMode::Sync`],
    /// fsync the directory so the rename is durable before the log
    /// shrinks), then truncate the log to its magic; the next append
    /// zero-fills again.
    ///
    /// No buffer the size of the snapshot is built: the file gets the
    /// magic and a zero frame header, then the payload is encoded through
    /// the handle's 64 KiB stage (the append frame's buffer), checksummed
    /// and written a stage at a time, and the real `[len][crc]` header is
    /// patched in last, before the fsync. A crash before the rename leaves
    /// only the `.tmp` file, which recovery never reads; one between rename
    /// and truncate only leaves already-snapshotted records in the log —
    /// replaying them over the snapshot is idempotent for every record the
    /// store writes after a snapshot boundary.
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn install_snapshot<'a, P>(&mut self, snap: &ShardSnapshotRef<'a, P>) -> WalResult<()>
    where
        P: ExactSizeIterator<Item = &'a Update> + Clone,
    {
        let tmp = self.snap_path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(SNAP_MAGIC)?;
            f.write_all(&[0; FRAME_HEADER])?;
            let (mut len, mut crc) = (0, 0);
            self.frame.clear();
            self.frame.reserve_exact(SNAPSHOT_STAGE);
            snap.encode_chunked(&mut self.frame, |stage| {
                len += stage.len();
                crc = crc32_update(crc, stage);
                f.write_all(stage)?;
                stage.clear();
                Ok::<_, std::io::Error>(())
            })?;
            f.seek(SeekFrom::Start(SNAP_MAGIC.len() as u64))?;
            f.write_all(&frame_header(len, crc))?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.snap_path)?;
        if self.mode == DurabilityMode::Sync {
            sync_dir(self.snap_path.parent().expect("the snapshot lives in the node directory"))?;
        }
        self.end = LOG_MAGIC.len() as u64;
        self.filled = self.end;
        self.file.set_len(self.end)?;
        self.file.seek(SeekFrom::Start(self.end))?;
        if self.mode == DurabilityMode::Sync {
            self.file.sync_data()?;
        }
        self.tail_records = 0;
        self.snapshot_records = snap.records();
        self.unsynced = 0;
        Ok(())
    }

    /// The log file path (introspection/tests).
    pub fn log_path(&self) -> &std::path::Path {
        &self.log_path
    }

    /// The shard index this handle persists (stamps snapshots).
    pub fn shard(&self) -> u32 {
        self.shard
    }
}

impl Drop for ShardWal {
    /// A clean close trims the zeros no frame has written over, so a
    /// closed log holds exactly its magic and frames. A crash skips this;
    /// recovery reads the zero tail as the end of the log.
    fn drop(&mut self) {
        if self.filled > self.end {
            // Best effort: the zeros read as the log's end if they stay.
            let _ = self.file.set_len(self.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::{ObjectId, SimTime, Update, UpdateId, UpdatePayload, WriterId};

    fn tmp_cfg(tag: &str) -> DurabilityConfig {
        let dir = std::env::temp_dir().join(format!("idea-wal-log-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DurabilityConfig::sync(dir)
    }

    fn upd(seq: u64) -> Update {
        Update {
            object: ObjectId(3),
            id: UpdateId { writer: WriterId(0), seq },
            at: SimTime::from_secs(seq),
            meta_delta: 1,
            payload: UpdatePayload::Opaque(bytes::Bytes::from(vec![9; 4])),
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC-32 the slicing-by-8 form must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// `n` bytes of a fixed xorshift stream.
    fn noise(n: usize, mut x: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_form_at_every_length_and_alignment() {
        let buf = noise(64 + 8, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_form_on_random_buffers() {
        for seed in 1..=64u64 {
            let bytes = noise((seed * 977 % 5_000) as usize, seed);
            let whole = crc32(&bytes);
            assert_eq!(whole, crc32_bytewise(&bytes), "seed {seed}");
            // Checksummed in two pieces split anywhere, as a snapshot stream is.
            let cut = (seed * 31) as usize % (bytes.len() + 1);
            assert_eq!(crc32_update(crc32(&bytes[..cut]), &bytes[cut..]), whole, "seed {seed}");
        }
    }

    #[test]
    fn append_then_open_recovers_records() {
        let cfg = tmp_cfg("roundtrip");
        let recs = vec![
            WalRecord::Open { object: ObjectId(3) },
            WalRecord::Write { update: upd(1) },
            WalRecord::Ingest { update: upd(2) },
        ];
        {
            let (mut wal, r) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
            assert!(r.is_empty());
            for rec in &recs {
                wal.append(rec).unwrap();
            }
            assert_eq!(wal.tail_records(), 3);
        }
        let (_, r) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        assert_eq!(r.tail, recs);
        assert_eq!(r.torn_bytes, 0);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    /// Byte offset of the end of the `n`-th frame (1-based) in `bytes`.
    fn frame_end(bytes: &[u8], n: usize) -> usize {
        (0..n).fold(LOG_MAGIC.len(), |pos, _| {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos + FRAME_HEADER + len
        })
    }

    #[test]
    fn torn_tail_is_dropped_and_appending_resumes() {
        let cfg = tmp_cfg("torn");
        let (mut wal, _) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        wal.append(&WalRecord::Open { object: ObjectId(3) }).unwrap();
        wal.append(&WalRecord::Write { update: upd(1) }).unwrap();
        let log_path = wal.log_path().to_path_buf();
        // A crash: no clean close trims the zero tail.
        std::mem::forget(wal);
        // Tear the final frame mid-payload in place, as a crash would: its
        // last bytes never left the zeros the append wrote over.
        let mut bytes = std::fs::read(&log_path).unwrap();
        let end = frame_end(&bytes, 2);
        bytes[end - 5..end].fill(0);
        std::fs::write(&log_path, &bytes).unwrap();

        let (mut wal, r) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        assert_eq!(r.tail, vec![WalRecord::Open { object: ObjectId(3) }]);
        assert!(r.torn_bytes > 0, "the torn frame is reported");
        // The tail was truncated: appending after recovery yields a clean log.
        wal.append(&WalRecord::Write { update: upd(1) }).unwrap();
        drop(wal);
        let (_, r) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        assert_eq!(r.tail.len(), 2);
        assert_eq!(r.torn_bytes, 0);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn zero_tail_after_clean_appends_is_not_torn() {
        let cfg = tmp_cfg("zerotail");
        let recs =
            vec![WalRecord::Open { object: ObjectId(3) }, WalRecord::Write { update: upd(1) }];
        let (mut wal, _) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        for rec in &recs {
            wal.append(rec).unwrap();
        }
        let log_path = wal.log_path().to_path_buf();
        let bytes = std::fs::read(&log_path).unwrap();
        let valid = frame_end(&bytes, recs.len());
        assert_eq!(bytes.len(), LOG_MAGIC.len() + ZERO_CHUNK, "one chunk reserved");
        assert!(bytes[valid..].iter().all(|&b| b == 0));
        // Read while the handle is live, then after a crash.
        let r = ShardWal::load(&cfg, NodeId(0), 0).unwrap();
        assert_eq!((&r.tail, r.torn_bytes), (&recs, 0));
        std::mem::forget(wal);
        let (wal, r) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        assert_eq!((&r.tail, r.torn_bytes), (&recs, 0));
        assert_eq!(std::fs::metadata(&log_path).unwrap().len(), valid as u64, "cut to the prefix");
        drop(wal);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn clean_close_trims_the_zero_tail() {
        let cfg = tmp_cfg("trim");
        let (mut wal, _) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        wal.append(&WalRecord::Open { object: ObjectId(3) }).unwrap();
        let log_path = wal.log_path().to_path_buf();
        drop(wal);
        let bytes = std::fs::read(&log_path).unwrap();
        assert_eq!(bytes.len(), frame_end(&bytes, 1), "only magic and frames remain");
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_log_and_survives_reopen() {
        let cfg = tmp_cfg("snap");
        let snap = ShardSnapshot {
            node: NodeId(0),
            writer: WriterId(0),
            shard: 0,
            objects: vec![crate::ObjectSnapshot {
                object: ObjectId(3),
                next_seq: 2,
                log: vec![upd(1)],
                pending: vec![],
            }],
        };
        {
            let (mut wal, _) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
            wal.append(&WalRecord::Open { object: ObjectId(3) }).unwrap();
            wal.append(&WalRecord::Write { update: upd(1) }).unwrap();
            wal.install_snapshot(&snap.borrowed()).unwrap();
            assert_eq!(wal.tail_records(), 0, "snapshot empties the tail");
            wal.append(&WalRecord::Write { update: upd(2) }).unwrap();
        }
        let (_, r) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        assert_eq!(r.snapshot, Some(snap));
        assert_eq!(r.tail, vec![WalRecord::Write { update: upd(2) }]);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn snapshot_truncation_then_re_extension_recovers() {
        let cfg = tmp_cfg("reextend");
        let snap = ShardSnapshot {
            node: NodeId(0),
            writer: WriterId(0),
            shard: 0,
            objects: vec![crate::ObjectSnapshot {
                object: ObjectId(3),
                next_seq: 2,
                log: vec![upd(1)],
                pending: vec![],
            }],
        };
        let (mut wal, _) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        let log_path = wal.log_path().to_path_buf();
        let len = || std::fs::metadata(&log_path).unwrap().len();
        wal.append(&WalRecord::Open { object: ObjectId(3) }).unwrap();
        wal.append(&WalRecord::Write { update: upd(1) }).unwrap();
        wal.install_snapshot(&snap.borrowed()).unwrap();
        assert_eq!(len(), LOG_MAGIC.len() as u64, "the snapshot cuts the log to its magic");
        let tail: Vec<_> = (2..5).map(|seq| WalRecord::Write { update: upd(seq) }).collect();
        for rec in &tail {
            wal.append(rec).unwrap();
        }
        assert_eq!(len(), (LOG_MAGIC.len() + ZERO_CHUNK) as u64, "the next append re-extends it");
        std::mem::forget(wal);
        let (_, r) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        assert_eq!(r.snapshot, Some(snap));
        assert_eq!((&r.tail, r.torn_bytes), (&tail, 0));
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn create_discards_previous_identity() {
        let cfg = tmp_cfg("create");
        {
            let (mut wal, _) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
            wal.append(&WalRecord::Open { object: ObjectId(3) }).unwrap();
        }
        let wal = ShardWal::create(&cfg, NodeId(0), 0).unwrap();
        assert_eq!(wal.tail_records(), 0);
        drop(wal);
        let (_, r) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        assert!(r.is_empty());
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    /// Under `Sync` both entry points make the whole missing path and
    /// fsync each new directory's parent on the way.
    #[test]
    fn create_and_open_make_a_missing_root_two_levels_deep() {
        let base = tmp_cfg("deep").dir;
        let cfg = DurabilityConfig::sync(base.join("a").join("b"));
        assert!(!base.exists());
        let mut created = ShardWal::create(&cfg, NodeId(0), 0).unwrap();
        created.append(&WalRecord::Open { object: ObjectId(3) }).unwrap();
        drop(created);
        let (_, fresh) = ShardWal::open(&cfg, NodeId(1), 0).unwrap();
        assert!(fresh.is_empty());
        let (_, r) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        assert_eq!(r.tail, vec![WalRecord::Open { object: ObjectId(3) }]);
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// A node's genesis creates each shard's log in order, discarding what
    /// a previous identity left.
    #[test]
    fn create_shards_makes_one_fresh_log_per_shard() {
        let cfg = tmp_cfg("shards");
        {
            let (mut wal, _) = ShardWal::open(&cfg, NodeId(0), 1).unwrap();
            wal.append(&WalRecord::Open { object: ObjectId(3) }).unwrap();
        }
        let wals = ShardWal::create_shards(&cfg, NodeId(0), 0..3).unwrap();
        let names: Vec<_> = wals.iter().map(|w| w.log_path().file_name().unwrap()).collect();
        assert_eq!(names, ["wal-0.log", "wal-1.log", "wal-2.log"]);
        drop(wals);
        for shard in 0..3 {
            let (_, r) = ShardWal::open(&cfg, NodeId(0), shard).unwrap();
            assert!(r.is_empty(), "shard {shard}");
        }
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn group_commit_window_coalesces_syncs_and_loses_nothing() {
        let cfg = DurabilityConfig { group_commit: 3, ..tmp_cfg("group") };
        {
            let (mut wal, _) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
            wal.append(&WalRecord::Open { object: ObjectId(3) }).unwrap();
            assert_eq!(wal.unsynced_records(), 1);
            wal.append(&WalRecord::Write { update: upd(1) }).unwrap();
            assert_eq!(wal.unsynced_records(), 2);
            // The window fills: this append carries the fdatasync.
            wal.append(&WalRecord::Write { update: upd(2) }).unwrap();
            assert_eq!(wal.unsynced_records(), 0);
            wal.append(&WalRecord::Write { update: upd(3) }).unwrap();
            assert_eq!(wal.unsynced_records(), 1);
        }
        let (_, r) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        assert_eq!(r.tail.len(), 4, "every append survives the reopen");
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn should_snapshot_tracks_the_threshold() {
        let cfg = DurabilityConfig { snapshot_every: 2, ..tmp_cfg("thresh") };
        let (mut wal, _) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
        assert!(!wal.should_snapshot());
        wal.append(&WalRecord::Open { object: ObjectId(3) }).unwrap();
        assert!(!wal.should_snapshot());
        wal.append(&WalRecord::Write { update: upd(1) }).unwrap();
        assert!(wal.should_snapshot());
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }
}
