//! Durable shard snapshots: the full replica map in its existing
//! serializable form (the applied log per object — the EVV, hashes and
//! meta are deterministic folds over it and are rebuilt on load), plus the
//! local write sequencing and any buffered out-of-order arrivals.
//!
//! Each form exists twice: owned ([`ShardSnapshot`], what recovery decodes)
//! and borrowed ([`ShardSnapshotRef`], what a live shard hands to
//! [`crate::ShardWal::install_snapshot`] so its logs are serialised in
//! place, never cloned). The borrowed form owns the one encoder, a chunked
//! one: it stages values in a buffer and hands the buffer to a sink each
//! time it passes `STAGE_FLUSH` bytes, so the installer streams a
//! snapshot to disk through a 64 KiB buffer (`SNAPSHOT_STAGE`) instead
//! of encoding it whole. [`ShardSnapshotRef::encode`] runs the same
//! encoder into a `Vec` whose sink keeps every byte.

use idea_types::codec::{Codec, CodecError, Reader};
use idea_types::{NodeId, ObjectId, Update, WriterId};
use std::convert::Infallible;

/// The staging buffer a snapshot install streams through.
pub(crate) const SNAPSHOT_STAGE: usize = 64 << 10;

/// Staged bytes at which the chunked encoder calls its sink: half the
/// stage, so no update under 32 KiB makes a full stage grow.
const STAGE_FLUSH: usize = SNAPSHOT_STAGE / 2;

/// One replica's durable form.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSnapshot {
    /// The object.
    pub object: ObjectId,
    /// The local writer's next sequence number (0 when this node never
    /// wrote the object — the entry is absent, not 0, in memory).
    pub next_seq: u64,
    /// The applied update log, in application order. Replaying it rebuilds
    /// the extended version vector and the rolling state hash.
    pub log: Vec<Update>,
    /// Out-of-order arrivals still waiting for a predecessor.
    pub pending: Vec<Update>,
}

/// Everything one `StoreShard` needs to be reconstructed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// The owning node.
    pub node: NodeId,
    /// The local writer identity.
    pub writer: WriterId,
    /// The shard index within the node.
    pub shard: u32,
    /// Per-object state, in object-id order.
    pub objects: Vec<ObjectSnapshot>,
}

/// [`ObjectSnapshot`] borrowed from a live replica. `P` walks the buffered
/// arrivals where they are kept (a slice for the owned form, the replica's
/// pending map for a live one), so nothing is collected to encode them.
#[derive(Debug, Clone)]
pub struct ObjectSnapshotRef<'a, P = std::slice::Iter<'a, Update>> {
    /// The object.
    pub object: ObjectId,
    /// The local writer's next sequence number (0 when never written).
    pub next_seq: u64,
    /// The applied update log, in application order.
    pub log: &'a [Update],
    /// Out-of-order arrivals still waiting for a predecessor.
    pub pending: P,
}

/// [`ShardSnapshot`] borrowed from a live shard.
#[derive(Debug, Clone)]
pub struct ShardSnapshotRef<'a, P = std::slice::Iter<'a, Update>> {
    /// The owning node.
    pub node: NodeId,
    /// The local writer identity.
    pub writer: WriterId,
    /// The shard index within the node.
    pub shard: u32,
    /// Per-object state, in object-id order.
    pub objects: Vec<ObjectSnapshotRef<'a, P>>,
}

/// The sink of an encode into a `Vec`: every staged byte stays.
fn keep(_: &mut Vec<u8>) -> Result<(), Infallible> {
    Ok(())
}

/// A sequence in the `Vec<Update>` form (count, then the updates), handing
/// the stage to `sink` whenever it holds `STAGE_FLUSH` bytes or more.
fn encode_updates<'a, E>(
    updates: impl ExactSizeIterator<Item = &'a Update>,
    stage: &mut Vec<u8>,
    sink: &mut impl FnMut(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E> {
    updates.len().encode(stage);
    for u in updates {
        u.encode(stage);
        if stage.len() >= STAGE_FLUSH {
            sink(stage)?;
        }
    }
    Ok(())
}

impl<'a, P: ExactSizeIterator<Item = &'a Update> + Clone> ObjectSnapshotRef<'a, P> {
    fn encode_chunked<E>(
        &self,
        stage: &mut Vec<u8>,
        sink: &mut impl FnMut(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.object.encode(stage);
        self.next_seq.encode(stage);
        encode_updates(self.log.iter(), stage, sink)?;
        encode_updates(self.pending.clone(), stage, sink)
    }
}

impl<'a, P: ExactSizeIterator<Item = &'a Update> + Clone> ShardSnapshotRef<'a, P> {
    /// Encodes the snapshot through `stage`: values are appended to it, and
    /// `sink` is handed it each time it holds `STAGE_FLUSH` bytes or more,
    /// and once at the end. A sink that writes the staged bytes out and
    /// clears them keeps the stage near its flush mark; one that leaves
    /// them builds the whole encoding in `stage`.
    ///
    /// # Errors
    /// Stops at the first error `sink` returns.
    pub(crate) fn encode_chunked<E>(
        &self,
        stage: &mut Vec<u8>,
        mut sink: impl FnMut(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.node.encode(stage);
        self.writer.encode(stage);
        self.shard.encode(stage);
        (self.objects.len() as u64).encode(stage);
        for o in &self.objects {
            o.encode_chunked(stage, &mut sink)?;
        }
        sink(stage)
    }

    /// Appends the snapshot's encoding — byte-identical to the owned
    /// form's, which decodes it.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let Ok(()) = self.encode_chunked(out, keep);
    }

    /// Updates held (applied and buffered, over all objects): what a
    /// recovery loads from this snapshot before it replays the tail.
    pub(crate) fn records(&self) -> u64 {
        self.objects.iter().map(|o| (o.log.len() + o.pending.len()) as u64).sum()
    }
}

impl ObjectSnapshot {
    fn borrowed(&self) -> ObjectSnapshotRef<'_> {
        ObjectSnapshotRef {
            object: self.object,
            next_seq: self.next_seq,
            log: &self.log,
            pending: self.pending.iter(),
        }
    }
}

impl ShardSnapshot {
    /// The borrowed view of this snapshot.
    pub fn borrowed(&self) -> ShardSnapshotRef<'_> {
        ShardSnapshotRef {
            node: self.node,
            writer: self.writer,
            shard: self.shard,
            objects: self.objects.iter().map(ObjectSnapshot::borrowed).collect(),
        }
    }
}

impl Codec for ObjectSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        let Ok(()) = self.borrowed().encode_chunked(out, &mut keep);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ObjectSnapshot {
            object: ObjectId::decode(r)?,
            next_seq: u64::decode(r)?,
            log: Vec::<Update>::decode(r)?,
            pending: Vec::<Update>::decode(r)?,
        })
    }
}

impl Codec for ShardSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.borrowed().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ShardSnapshot {
            node: NodeId::decode(r)?,
            writer: WriterId::decode(r)?,
            shard: u32::decode(r)?,
            objects: Vec::<ObjectSnapshot>::decode(r)?,
        })
    }
}
