//! Durable shard snapshots: the full replica map in its existing
//! serializable form (the applied log per object — the EVV, hashes and
//! meta are deterministic folds over it and are rebuilt on load), plus the
//! local write sequencing and any buffered out-of-order arrivals.
//!
//! Each form exists twice: owned ([`ShardSnapshot`], what recovery decodes)
//! and borrowed ([`ShardSnapshotRef`], what a live shard hands to
//! [`crate::ShardWal::install_snapshot`] so its logs are serialised in
//! place, never cloned). The borrowed form owns the one encoder.

use idea_types::codec::{encode_seq, Codec, CodecError, Reader};
use idea_types::{NodeId, ObjectId, Update, WriterId};

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

/// [`ObjectSnapshot`] borrowed from a live replica.
#[derive(Debug, Clone)]
pub struct ObjectSnapshotRef<'a> {
    /// The object.
    pub object: ObjectId,
    /// The local writer's next sequence number (0 when never written).
    pub next_seq: u64,
    /// The applied update log, in application order.
    pub log: &'a [Update],
    /// Out-of-order arrivals still waiting for a predecessor.
    pub pending: Vec<&'a Update>,
}

/// [`ShardSnapshot`] borrowed from a live shard.
#[derive(Debug, Clone)]
pub struct ShardSnapshotRef<'a> {
    /// The owning node.
    pub node: NodeId,
    /// The local writer identity.
    pub writer: WriterId,
    /// The shard index within the node.
    pub shard: u32,
    /// Per-object state, in object-id order.
    pub objects: Vec<ObjectSnapshotRef<'a>>,
}

impl ObjectSnapshotRef<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.object.encode(out);
        self.next_seq.encode(out);
        encode_seq(self.log.iter(), out);
        encode_seq(self.pending.iter().copied(), out);
    }
}

impl ShardSnapshotRef<'_> {
    /// Appends the snapshot's encoding — byte-identical to the owned
    /// form's, which decodes it.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.writer.encode(out);
        self.shard.encode(out);
        (self.objects.len() as u64).encode(out);
        for o in &self.objects {
            o.encode(out);
        }
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
            pending: self.pending.iter().collect(),
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
        self.borrowed().encode(out);
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
