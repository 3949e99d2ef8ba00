//! The durability plane under the sharded store: a per-shard append-only
//! write-ahead log plus periodic snapshots, so a node survives a crash and
//! re-enters the deployment by **recovery + rejoin-by-delta** instead of a
//! full state transfer.
//!
//! Layering: this crate sits between `idea-vv` and `idea-store` — it knows
//! the serializable substrate types ([`idea_types::Update`],
//! [`idea_vv::VersionVector`]) but nothing about replicas or the protocol.
//! `idea-store` attaches a [`ShardWal`] to each `StoreShard` and feeds it
//! [`WalRecord`]s; `idea-core` owns the policy ([`DurabilityConfig`]) and
//! the recovery/rejoin choreography.
//!
//! On-disk layout under `DurabilityConfig::dir`:
//!
//! ```text
//! <dir>/node-<n>/wal-<s>.log    # magic "IDEAWAL1" + framed records + zero tail
//! <dir>/node-<n>/snap-<s>.bin   # magic "IDEASNP1" + one framed snapshot
//! ```
//!
//! The log is preallocated: an append that would cross the file's end
//! first writes `ZERO_CHUNK` (256 KiB) of zeros past it, and frames then
//! overwrite those zeros in place. The file's size changes once per chunk
//! instead of once per append, so a group-commit `fdatasync` flushes data
//! only and skips the journal commit of a new inode size. `open` and a
//! snapshot install cut the file back to its valid prefix or to the
//! magic, and a clean close trims the zeros left over; a crashed log ends
//! in up to one chunk of them.
//!
//! Every frame is `[len: u32 LE][crc32: u32 LE][payload]`. The payload is
//! a [`WalRecord`] or [`ShardSnapshot`] in the workspace's one binary
//! codec, [`idea_types::codec::Codec`] — the encoding client frames use
//! too, so an [`idea_types::Update`] has the same bytes on the service
//! wire and on disk. Replay stops at the first zero-length header: no
//! payload is empty (record tags start at 1), so that is the zero tail,
//! the log's end. Replay is torn-tail tolerant: a truncated or
//! checksum-corrupt final frame marks the crash point and everything
//! before it is recovered, with the non-zero bytes past the valid prefix
//! reported as [`Recovered::torn_bytes`]; a checksum-*valid*, non-empty
//! frame that fails to decode is real corruption and surfaces as an
//! error. Under [`DurabilityMode::Sync`] the node directory is fsynced
//! after a node's new logs are created and after a snapshot's rename, so
//! neither name change can be lost behind a later data sync, and the
//! parent of every directory the WAL creates is fsynced too, so a new
//! node directory cannot be lost either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod config;
pub mod hash;
pub(crate) mod log;
pub(crate) mod record;
pub(crate) mod snapshot;

pub use config::{DurabilityConfig, DurabilityMode};
pub use log::{crc32, Recovered, ShardWal, WalError, WalResult};
pub use record::WalRecord;
pub use snapshot::{ObjectSnapshot, ObjectSnapshotRef, ShardSnapshot, ShardSnapshotRef};
