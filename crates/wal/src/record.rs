//! The log record vocabulary: every mutation a `StoreShard` can perform is
//! captured as one [`WalRecord`], so snapshot + tail replay reconstructs
//! the shard exactly.

use idea_types::codec::{Codec, CodecError, Reader};
use idea_types::{ObjectId, Update};
use idea_vv::VersionVector;

/// One durable store mutation. Replay order is append order; each variant
/// replays to exactly the store call that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A replica of `object` was created (first `open`).
    Open {
        /// The object whose replica was created.
        object: ObjectId,
    },
    /// A sanctioned local write (carries the assigned sequence number, so
    /// replay restores both the log and the writer's `next_seq`).
    Write {
        /// The locally issued update.
        update: Update,
    },
    /// An adopted remote delta (gossip, fetch, resolution transfer).
    Ingest {
        /// The remote update applied (or buffered) at the replica.
        update: Update,
    },
    /// Loser invalidation: updates beyond the sanctioned per-writer
    /// `counts` were dropped (the reference/resolution transition).
    DropExtras {
        /// The object truncated.
        object: ObjectId,
        /// The sanctioned per-writer counts.
        counts: VersionVector,
    },
    /// Local sequencing resumed after `seq` (post-reconciliation).
    ResumeSeq {
        /// The object whose write sequence moved.
        object: ObjectId,
        /// The last sanctioned local sequence number.
        seq: u64,
    },
}

// Tags start at 1 so a zeroed disk block never decodes as a record. Tag 4
// was a wholesale reconciliation and tag 7 a rollback's truncation; nothing
// writes either any more, and both stay unassigned, so an old log holding
// one fails to decode instead of replaying as something else.
const T_OPEN: u8 = 1;
const T_WRITE: u8 = 2;
const T_INGEST: u8 = 3;
const T_DROP_EXTRAS: u8 = 5;
const T_RESUME_SEQ: u8 = 6;

impl Codec for WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Open { object } => {
                T_OPEN.encode(out);
                object.encode(out);
            }
            WalRecord::Write { update } => {
                T_WRITE.encode(out);
                update.encode(out);
            }
            WalRecord::Ingest { update } => {
                T_INGEST.encode(out);
                update.encode(out);
            }
            WalRecord::DropExtras { object, counts } => {
                T_DROP_EXTRAS.encode(out);
                object.encode(out);
                counts.encode(out);
            }
            WalRecord::ResumeSeq { object, seq } => {
                T_RESUME_SEQ.encode(out);
                object.encode(out);
                seq.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            T_OPEN => Ok(WalRecord::Open { object: ObjectId::decode(r)? }),
            T_WRITE => Ok(WalRecord::Write { update: Update::decode(r)? }),
            T_INGEST => Ok(WalRecord::Ingest { update: Update::decode(r)? }),
            T_DROP_EXTRAS => Ok(WalRecord::DropExtras {
                object: ObjectId::decode(r)?,
                counts: VersionVector::decode(r)?,
            }),
            T_RESUME_SEQ => {
                Ok(WalRecord::ResumeSeq { object: ObjectId::decode(r)?, seq: u64::decode(r)? })
            }
            _ => Err(r.err("unknown WAL record tag")),
        }
    }
}
