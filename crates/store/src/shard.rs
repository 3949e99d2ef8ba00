//! One shard of a node's store: the replicas whose [`ObjectId`] hashes to
//! this shard and their local write sequencing.
//!
//! A [`StoreShard`] is the unit the protocol layer (`idea-core`) owns per
//! shard worker: it never touches objects of other shards, so two shards of
//! the same node can be mutated concurrently without coordination. The
//! routing itself — which shard owns which object — lives in
//! [`idea_types::ShardId`] so every layer agrees on it. Callers that never
//! shard (the baselines) hold one `StoreShard` for the whole node.

use crate::replica::{ApplyOutcome, Replica};
use idea_types::{
    IdeaError, NodeId, ObjectId, ObjectTable, Result, SimTime, Update, UpdateId, UpdatePayload,
    WriterId,
};
use idea_vv::{ExtendedVersionVector, VersionVector};
use idea_wal::{ObjectSnapshotRef, Recovered, ShardSnapshotRef, ShardWal, WalRecord};

/// What a read returns: the replica's current value view (owned).
///
/// Cloning the full [`ExtendedVersionVector`] per read is only warranted
/// when the caller keeps the version; level-only readers should use
/// [`StoreShard::read_view`] / the borrowing [`SnapshotView`] instead.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The object read.
    pub object: ObjectId,
    /// Number of updates reflected in the snapshot.
    pub updates: usize,
    /// Critical metadata value at read time.
    pub meta: i64,
    /// The replica's extended version vector at read time.
    pub version: ExtendedVersionVector,
    /// Timestamp of the most recent local application (issue time of the
    /// newest update), if any.
    pub latest_update: Option<SimTime>,
}

/// A read that borrows the replica instead of cloning its version vector.
///
/// This is the allocation-free sibling of [`Snapshot`] for callers that only
/// need the value view (meta, update count, recency) — the common case for
/// level probes and application polling loops. [`SnapshotView::to_owned`]
/// upgrades to a full [`Snapshot`] when the version must outlive the borrow.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    /// The object read.
    pub object: ObjectId,
    /// Number of updates reflected in the snapshot.
    pub updates: usize,
    /// Critical metadata value at read time.
    pub meta: i64,
    /// The replica's extended version vector (borrowed).
    pub version: &'a ExtendedVersionVector,
    /// Timestamp of the most recent local application, if any.
    pub latest_update: Option<SimTime>,
}

impl SnapshotView<'_> {
    /// Upgrades to an owned [`Snapshot`] (clones the version vector).
    pub fn to_owned(&self) -> Snapshot {
        Snapshot {
            object: self.object,
            updates: self.updates,
            meta: self.meta,
            version: self.version.clone(),
            latest_update: self.latest_update,
        }
    }
}

/// What a shard keeps per hosted object. Most hosted objects never see an
/// update, so a slot holds a replica that allocates on its first one.
#[derive(Debug, Clone)]
struct StoreSlot {
    replica: Replica,
    /// Next local sequence number; 0 until the first local write or
    /// resume sets it.
    next_seq: u64,
}

// There is one per (node, object), mostly holding no update: the table
// entry, id included, stays within 32 bytes.
const _: () = assert!(std::mem::size_of::<(ObjectId, StoreSlot)>() <= 32);

/// The replicas of one shard, behind the same read/write API as the whole
/// store.
#[derive(Debug)]
pub struct StoreShard {
    node: NodeId,
    writer: WriterId,
    /// One slot per hosted object, in id order.
    slots: ObjectTable<StoreSlot>,
    /// The attached write-ahead log, when durability is on. Every sanctioned
    /// mutation appends a [`WalRecord`] before it is applied; the handle
    /// also owns snapshot installation ([`StoreShard::snapshot_now`]).
    wal: Option<ShardWal>,
}

impl Clone for StoreShard {
    /// Clones the in-memory state only: the clone has **no** attached WAL
    /// (a file handle cannot be meaningfully duplicated, and a cloned shard
    /// appending to the original's log would corrupt replay order). Clones
    /// are in-memory working copies — baselines, tests, harness snapshots.
    fn clone(&self) -> Self {
        StoreShard { node: self.node, writer: self.writer, slots: self.slots.clone(), wal: None }
    }
}

impl StoreShard {
    /// An empty shard for `node`, writing as `writer`.
    pub fn new(node: NodeId, writer: WriterId) -> Self {
        Self::with_capacity(node, writer, 0)
    }

    /// An empty shard with room for `objects` replicas, so opening that
    /// many allocates nothing more.
    pub fn with_capacity(node: NodeId, writer: WriterId, objects: usize) -> Self {
        StoreShard { node, writer, slots: ObjectTable::with_capacity(objects), wal: None }
    }

    /// The local writer identity.
    pub fn writer(&self) -> WriterId {
        self.writer
    }

    /// The slot of `object`, opening it first when absent (the first
    /// creation is WAL-logged, before it is applied).
    fn open_slot(&mut self, object: ObjectId) -> usize {
        match self.slots.find(object) {
            Ok(slot) => slot,
            Err(slot) => {
                // Logging never adds or removes a slot, so `slot` stays
                // the insertion point.
                self.log_wal(WalRecord::Open { object });
                let fresh = StoreSlot { replica: Replica::new(object), next_seq: 0 };
                self.slots.insert_at(slot, object, fresh);
                slot
            }
        }
    }

    /// The slot of `object`.
    fn hosted(&self, object: ObjectId) -> Result<usize> {
        self.slots.find(object).map_err(|_| IdeaError::UnknownObject(object))
    }

    /// Creates (or returns) the replica of `object`. First creation is a
    /// sanctioned transition and is WAL-logged when durability is on.
    pub fn open(&mut self, object: ObjectId) -> &mut Replica {
        let slot = self.open_slot(object);
        &mut self.slots.slot_mut(slot).replica
    }

    /// Immutable access to a replica.
    pub fn replica(&self, object: ObjectId) -> Result<&Replica> {
        self.slots.get(object).map(|s| &s.replica).ok_or(IdeaError::UnknownObject(object))
    }

    /// Objects hosted by this shard, in id order (no per-call allocation).
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slots.ids()
    }

    /// Issues a local write: assigns the next sequence number, applies it to
    /// the local replica and returns the update for dissemination. Opens the object first when this shard does not
    /// host it yet.
    pub fn write(
        &mut self,
        object: ObjectId,
        at: SimTime,
        meta_delta: i64,
        payload: UpdatePayload,
    ) -> Update {
        let slot = self.open_slot(object);
        let next = &mut self.slots.slot_mut(slot).next_seq;
        let seq = (*next).max(1);
        *next = seq + 1;
        let update =
            Update { object, id: UpdateId { writer: self.writer, seq }, at, meta_delta, payload };
        if self.wal.is_some() {
            self.log_wal(WalRecord::Write { update: update.clone() });
        }
        let s = self.slots.slot_mut(slot);
        let outcome = s.replica.apply(update.clone()).expect("own write applies");
        debug_assert_eq!(outcome, ApplyOutcome::Applied, "local writes are in order");
        update
    }

    /// Applies a remote update to the local replica.
    ///
    /// # Errors
    /// Fails when no replica of the object exists (`open` it first).
    pub fn ingest(&mut self, update: Update) -> Result<ApplyOutcome> {
        let slot = self.hosted(update.object)?;
        let seen = self.slots.slot(slot).replica.version().count(update.writer());
        // Already-applied duplicates are not re-logged; new updates are —
        // including out-of-order ones the replica will buffer as pending.
        if seen < update.seq() && self.wal.is_some() {
            self.log_wal(WalRecord::Ingest { update: update.clone() });
        }
        self.slots.slot_mut(slot).replica.apply(update)
    }

    /// Reads the current snapshot of `object` (owned; clones the version).
    ///
    /// # Errors
    /// Fails when no replica of the object exists.
    pub fn read(&self, object: ObjectId) -> Result<Snapshot> {
        self.read_view(object).map(|v| v.to_owned())
    }

    /// Reads the current snapshot of `object` without cloning the version.
    ///
    /// # Errors
    /// Fails when no replica of the object exists.
    pub fn read_view(&self, object: ObjectId) -> Result<SnapshotView<'_>> {
        let r = self.replica(object)?;
        Ok(SnapshotView {
            object,
            updates: r.len(),
            meta: r.meta(),
            version: r.version(),
            latest_update: r.version().latest_update_time(),
        })
    }

    /// Resets the local write sequence to continue after `seq` (used after a
    /// reconciliation re-sequenced this writer's extra updates). Opens the
    /// object first when this shard does not host it yet.
    pub fn resume_writes_after(&mut self, object: ObjectId, seq: u64) {
        let slot = self.open_slot(object);
        // A resume that moves nothing (the common case after an `Inform`
        // that sanctioned everything held) is not a transition to log.
        if self.slots.slot(slot).next_seq == seq + 1 {
            return;
        }
        self.log_wal(WalRecord::ResumeSeq { object, seq });
        self.slots.slot_mut(slot).next_seq = seq + 1;
    }

    // ------------------------------------------------------- durability

    /// Attaches a WAL handle: every sanctioned mutation from here on is
    /// appended before it is applied. A fresh identity attaches
    /// [`ShardWal::create`]'s genesis log; a restart replays first
    /// ([`StoreShard::recover`]) and then reattaches [`ShardWal::open`]'s
    /// handle.
    pub fn attach_wal(&mut self, wal: ShardWal) {
        self.wal = Some(wal);
    }

    /// The attached WAL, if durability is on (introspection/tests).
    pub fn wal(&self) -> Option<&ShardWal> {
        self.wal.as_ref()
    }

    /// Appends `rec` when a WAL is attached, installing a snapshot first
    /// when the tail is due one ([`ShardWal::should_snapshot`]: it has
    /// reached `snapshot_every` records and the size of the last
    /// snapshot). Append-path I/O failure is fail-stop: a replica that
    /// cannot persist must not acknowledge writes.
    fn log_wal(&mut self, rec: WalRecord) {
        if self.wal.is_none() {
            return;
        }
        // Snapshot *before* appending: records are logged ahead of their
        // in-memory application, so right now every record already in the
        // tail is applied — snapshotting here is consistent, and `rec`
        // lands in the fresh tail instead of being truncated unapplied.
        if self.wal.as_ref().expect("checked above").should_snapshot() {
            self.snapshot_now();
        }
        self.wal
            .as_mut()
            .expect("checked above")
            .append(&rec)
            .expect("WAL append failed: cannot guarantee durability");
    }

    /// Installs a durable snapshot now and truncates the log behind it
    /// (no-op without a WAL). Clean shutdown ends with this so a restart
    /// sees an empty tail. The shard's full in-memory state — next
    /// sequence numbers, applied logs, buffered out-of-order updates — is
    /// serialised from where it lives; no log is cloned.
    pub fn snapshot_now(&mut self) {
        let Some(wal) = self.wal.as_mut() else { return };
        let snap = ShardSnapshotRef {
            node: self.node,
            writer: self.writer,
            shard: wal.shard(),
            objects: self
                .slots
                .iter()
                .map(|(object, s)| ObjectSnapshotRef {
                    object,
                    next_seq: s.next_seq,
                    log: s.replica.log(),
                    pending: s.replica.pending_updates(),
                })
                .collect(),
        };
        wal.install_snapshot(&snap).expect("WAL snapshot failed: cannot guarantee durability");
    }

    /// Rebuilds a shard from recovered durable state: the snapshot first,
    /// then the log tail replayed in append order. Each decoded update is
    /// moved into its replica, so the recovered state is never held twice.
    /// The result has no WAL attached — the caller reattaches the
    /// truncated handle afterwards.
    pub fn recover(node: NodeId, writer: WriterId, recovered: Recovered) -> StoreShard {
        let Recovered { snapshot, tail, .. } = recovered;
        let objects = snapshot.as_ref().map_or(0, |snap| snap.objects.len());
        let mut s = StoreShard::with_capacity(node, writer, objects);
        for os in snapshot.into_iter().flat_map(|snap| snap.objects) {
            let slot = s.open_slot(os.object);
            let slot = s.slots.slot_mut(slot);
            for u in os.log.into_iter().chain(os.pending) {
                let _ = slot.replica.apply(u);
            }
            slot.next_seq = os.next_seq;
        }
        for rec in tail {
            s.replay(rec);
        }
        s
    }

    /// Re-applies one logged record to in-memory state. Replay is exactly
    /// the mutation the record describes — no WAL appends (none is
    /// attached yet).
    fn replay(&mut self, rec: WalRecord) {
        match rec {
            WalRecord::Open { object } => {
                self.open(object);
            }
            WalRecord::Write { update } => {
                let slot = self.open_slot(update.object);
                let s = self.slots.slot_mut(slot);
                s.next_seq = s.next_seq.max(update.seq() + 1);
                let _ = s.replica.apply(update);
            }
            WalRecord::Ingest { update } => {
                let _ = self.open(update.object).apply(update);
            }
            WalRecord::DropExtras { object, counts } => {
                self.open(object).drop_extras(&counts);
            }
            WalRecord::ResumeSeq { object, seq } => {
                let slot = self.open_slot(object);
                self.slots.slot_mut(slot).next_seq = seq + 1;
            }
        }
    }

    /// Drops updates beyond the sanctioned `counts`, WAL-logging the
    /// transition first. See `Replica::drop_extras`.
    ///
    /// # Errors
    /// Fails when no replica of the object exists.
    pub fn drop_extras(&mut self, object: ObjectId, counts: &VersionVector) -> Result<Vec<Update>> {
        let slot = self.hosted(object)?;
        let r = &self.slots.slot(slot).replica;
        let beyond = r.count_beyond(counts);
        // Logged only when it changes the replica: something is beyond
        // `counts`, or buffered arrivals are about to be discarded.
        if self.wal.is_some() && (beyond > 0 || r.pending_len() > 0) {
            self.log_wal(WalRecord::DropExtras { object, counts: counts.clone() });
        }
        Ok(self.slots.slot_mut(slot).replica.drop_beyond(counts, beyond))
    }

    /// The rolling content digest of every replica in this shard: each
    /// object's `Replica::state_hash` folded through
    /// [`idea_wal::hash::object_hash`] and XOR-combined, so the node-level
    /// digest is independent of shard count and delivery interleaving.
    pub fn state_hash(&self) -> u64 {
        self.slots
            .iter()
            .fold(0, |acc, (o, s)| acc ^ idea_wal::hash::object_hash(o, s.replica.state_hash()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn shard(node: u32) -> StoreShard {
        StoreShard::new(NodeId(node), WriterId(node))
    }

    fn payload() -> UpdatePayload {
        UpdatePayload::Opaque(Bytes::new())
    }

    #[test]
    fn read_view_borrows_and_upgrades() {
        let mut s = shard(0);
        s.open(ObjectId(1));
        s.write(ObjectId(1), SimTime::from_secs(1), 5, payload());
        let view = s.read_view(ObjectId(1)).unwrap();
        assert_eq!(view.meta, 5);
        assert_eq!(view.updates, 1);
        assert_eq!(view.latest_update, Some(SimTime::from_secs(1)));
        let owned = view.to_owned();
        assert_eq!(owned.meta, view.meta);
        assert_eq!(&owned.version, view.version);
        assert!(matches!(s.read_view(ObjectId(9)), Err(IdeaError::UnknownObject(_))));
    }

    #[test]
    fn writes_assign_consecutive_seqs() {
        let mut s = shard(0);
        s.open(ObjectId(1));
        let u1 = s.write(ObjectId(1), SimTime::from_secs(1), 5, payload());
        let u2 = s.write(ObjectId(1), SimTime::from_secs(2), 5, payload());
        assert_eq!(u1.seq(), 1);
        assert_eq!(u2.seq(), 2);
        assert_eq!(u1.writer(), WriterId(0));
        let snap = s.read(ObjectId(1)).unwrap();
        assert_eq!(snap.updates, 2);
        assert_eq!(snap.meta, 10);
        assert_eq!(snap.latest_update, Some(SimTime::from_secs(2)));
    }

    #[test]
    fn seqs_are_per_object() {
        let mut s = shard(0);
        s.open(ObjectId(1));
        s.open(ObjectId(2));
        let a = s.write(ObjectId(1), SimTime::from_secs(1), 0, payload());
        let b = s.write(ObjectId(2), SimTime::from_secs(1), 0, payload());
        assert_eq!(a.seq(), 1);
        assert_eq!(b.seq(), 1);
    }

    #[test]
    fn ingest_requires_open_replica() {
        let mut a = shard(0);
        let mut b = shard(1);
        a.open(ObjectId(1));
        let u = a.write(ObjectId(1), SimTime::from_secs(1), 3, payload());
        assert!(matches!(b.ingest(u.clone()), Err(IdeaError::UnknownObject(_))));
        b.open(ObjectId(1));
        assert_eq!(b.ingest(u).unwrap(), ApplyOutcome::Applied);
        assert_eq!(b.read(ObjectId(1)).unwrap().meta, 3);
    }

    #[test]
    fn read_unknown_object_fails() {
        let s = shard(0);
        assert!(matches!(s.read(ObjectId(9)), Err(IdeaError::UnknownObject(_))));
    }

    #[test]
    fn two_stores_exchange_and_converge() {
        let mut a = shard(0);
        let mut b = shard(1);
        a.open(ObjectId(1));
        b.open(ObjectId(1));
        let ua = a.write(ObjectId(1), SimTime::from_secs(1), 1, payload());
        let ub = b.write(ObjectId(1), SimTime::from_secs(2), 2, payload());
        a.ingest(ub).unwrap();
        b.ingest(ua).unwrap();
        let sa = a.read(ObjectId(1)).unwrap();
        let sb = b.read(ObjectId(1)).unwrap();
        assert_eq!(sa.meta, sb.meta);
        assert!(sa.version.triple_against(&sb.version).is_zero());
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn resume_writes_after_reconciliation() {
        let mut s = shard(0);
        s.open(ObjectId(1));
        let keep = s.write(ObjectId(1), SimTime::from_secs(1), 1, payload());
        s.write(ObjectId(1), SimTime::from_secs(2), 1, payload());
        // Invalidation kept only seq 1 of this writer (the reference never
        // sanctioned seq 2); local sequencing must continue from 2 again.
        let counts = VersionVector::from_pairs([(keep.writer(), keep.seq())]);
        let extras = s.drop_extras(ObjectId(1), &counts).unwrap();
        assert_eq!(extras.len(), 1);
        s.resume_writes_after(ObjectId(1), 1);
        let u = s.write(ObjectId(1), SimTime::from_secs(3), 1, payload());
        assert_eq!(u.seq(), 2);
        assert_eq!(s.read(ObjectId(1)).unwrap().updates, 2);
    }

    #[test]
    fn objects_lists_hosted_replicas() {
        let mut s = shard(0);
        s.open(ObjectId(3));
        s.open(ObjectId(1));
        assert_eq!(s.objects().collect::<Vec<_>>(), vec![ObjectId(1), ObjectId(3)]);
        assert_eq!(s.writer(), WriterId(0));
    }

    #[test]
    fn state_hash_is_shard_count_independent() {
        // A node XOR-folds its shards' digests (`IdeaNode::state_hash`), so
        // the value must not depend on how its objects are partitioned.
        let run = |shards: usize| {
            let mut parts: Vec<StoreShard> = (0..shards).map(|_| shard(0)).collect();
            for obj in 0..16u64 {
                let s = &mut parts[idea_types::ShardId::of(ObjectId(obj), shards).index()];
                s.open(ObjectId(obj));
                s.write(ObjectId(obj), SimTime::from_secs(obj), obj as i64, payload());
            }
            parts.iter().fold(0, |acc, s| acc ^ s.state_hash())
        };
        assert_eq!(run(1), run(4), "the digest must not depend on partitioning");
        assert_ne!(run(1), 0);
        assert_ne!(run(1), shard(0).state_hash());
    }

    #[test]
    fn len_tracks_replicas() {
        let mut s = shard(0);
        assert_eq!(s.objects().count(), 0);
        s.open(ObjectId(1));
        s.open(ObjectId(2));
        assert_eq!(s.objects().count(), 2);
    }

    // --------------------------------------------------- durability tests

    use idea_wal::DurabilityConfig;

    fn tmp_cfg(tag: &str) -> DurabilityConfig {
        let dir =
            std::env::temp_dir().join(format!("idea-store-shard-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DurabilityConfig::sync(dir)
    }

    fn remote(object: u64, writer: u32, seq: u64, delta: i64) -> Update {
        Update {
            object: ObjectId(object),
            id: UpdateId { writer: WriterId(writer), seq },
            at: SimTime::from_secs(seq),
            meta_delta: delta,
            payload: payload(),
        }
    }

    fn reopen(cfg: &DurabilityConfig) -> StoreShard {
        let (wal, recovered) = ShardWal::open(cfg, NodeId(0), 0).unwrap();
        let mut s = StoreShard::recover(NodeId(0), WriterId(0), recovered);
        s.attach_wal(wal);
        s
    }

    #[test]
    fn wal_replay_rebuilds_writes_ingests_and_pending() {
        let cfg = tmp_cfg("replay");
        let mut s = shard(0);
        s.attach_wal(ShardWal::create(&cfg, NodeId(0), 0).unwrap());
        s.open(ObjectId(1));
        s.write(ObjectId(1), SimTime::from_secs(1), 3, payload());
        s.write(ObjectId(1), SimTime::from_secs(2), -1, payload());
        // A remote writer arriving out of order: seq 2 buffers as pending,
        // seq 1 releases both.
        s.ingest(remote(1, 9, 2, 10)).unwrap();
        s.ingest(remote(1, 9, 1, 4)).unwrap();
        // A duplicate must not be re-logged (replay would still dedup, but
        // the log should stay minimal).
        s.ingest(remote(1, 9, 1, 4)).unwrap();
        let expect_hash = s.state_hash();
        let expect_meta = s.read(ObjectId(1)).unwrap().meta;
        drop(s);

        let mut r = reopen(&cfg);
        assert_eq!(r.state_hash(), expect_hash, "recovered digest pins equality");
        assert_eq!(r.read(ObjectId(1)).unwrap().meta, expect_meta);
        // Local sequencing also recovered: the next write continues at 3.
        let u = r.write(ObjectId(1), SimTime::from_secs(3), 1, payload());
        assert_eq!(u.seq(), 3);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn pending_survives_via_snapshot() {
        let cfg = tmp_cfg("pending-snap");
        let mut s = shard(0);
        s.attach_wal(ShardWal::create(&cfg, NodeId(0), 0).unwrap());
        s.open(ObjectId(1));
        // seq 2 with no seq 1: stays pending (not part of the applied log).
        s.ingest(remote(1, 9, 2, 10)).unwrap();
        let hash_with_pending = s.state_hash();
        s.snapshot_now();
        assert_eq!(s.wal().unwrap().tail_records(), 0);
        drop(s);

        let mut r = reopen(&cfg);
        assert_eq!(r.state_hash(), hash_with_pending);
        // The buffered update is still live: seq 1 releases both.
        r.ingest(remote(1, 9, 1, 4)).unwrap();
        assert_eq!(r.read(ObjectId(1)).unwrap().updates, 2);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn reference_transitions_replay_exactly() {
        let cfg = tmp_cfg("reference");
        let mut s = shard(0);
        s.attach_wal(ShardWal::create(&cfg, NodeId(0), 0).unwrap());
        s.open(ObjectId(1));
        for i in 1..=4 {
            s.write(ObjectId(1), SimTime::from_secs(i), 1, payload());
        }
        // A sanctioned reference keeps only this writer's first two updates.
        let counts = VersionVector::from_pairs([(WriterId(0), 2)]);
        let invalidated = s.drop_extras(ObjectId(1), &counts).unwrap();
        assert_eq!(invalidated.len(), 2);
        s.resume_writes_after(ObjectId(1), 2);
        let expect_hash = s.state_hash();
        drop(s);

        let mut r = reopen(&cfg);
        assert_eq!(r.state_hash(), expect_hash);
        let u = r.write(ObjectId(1), SimTime::from_secs(9), 1, payload());
        assert_eq!(u.seq(), 3, "ResumeSeq replays");
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn drop_extras_and_rollback_replay() {
        let cfg = tmp_cfg("dropex");
        let mut s = shard(0);
        s.attach_wal(ShardWal::create(&cfg, NodeId(0), 0).unwrap());
        s.open(ObjectId(1));
        s.write(ObjectId(1), SimTime::from_secs(1), 1, payload());
        s.write(ObjectId(1), SimTime::from_secs(2), 1, payload());
        s.ingest(remote(1, 9, 1, 7)).unwrap();
        let counts = idea_vv::VersionVector::from_pairs([(WriterId(0), 1), (WriterId(9), 1)]);
        let dropped = s.drop_extras(ObjectId(1), &counts).unwrap();
        assert_eq!(dropped.len(), 1);
        let expect_hash = s.state_hash();
        drop(s);

        let r = reopen(&cfg);
        assert_eq!(r.state_hash(), expect_hash);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn drop_extras_replays_over_a_snapshot() {
        let cfg = DurabilityConfig { snapshot_every: 4, ..tmp_cfg("dropex-snap") };
        let mut s = shard(0);
        s.attach_wal(ShardWal::create(&cfg, NodeId(0), 0).unwrap());
        s.open(ObjectId(1));
        for i in 1..=6 {
            s.write(ObjectId(1), SimTime::from_secs(i), 1, payload());
            s.ingest(remote(1, 9, i, 10)).unwrap();
        }
        // A tail of at most the last five records (I4 W5 I5 W6 I6) means the
        // threshold snapshot holds w0's fourth update, which the drop
        // removes: the replay cuts across the snapshot and the tail.
        assert!(s.wal().unwrap().tail_records() <= 5, "a threshold snapshot was taken");
        // Both writers lose their newest updates, which alternate with each
        // other and with w9's surviving fourth.
        let counts = idea_vv::VersionVector::from_pairs([(WriterId(0), 3), (WriterId(9), 4)]);
        let dropped = s.drop_extras(ObjectId(1), &counts).unwrap();
        let order: Vec<(u32, u64)> = dropped.iter().map(|u| (u.writer().0, u.seq())).collect();
        assert_eq!(order, [(0, 4), (0, 5), (9, 5), (0, 6), (9, 6)]);
        let (expect_hash, expect_log) =
            (s.state_hash(), s.replica(ObjectId(1)).unwrap().log().to_vec());
        drop(s);

        let r = reopen(&cfg);
        assert_eq!(r.state_hash(), expect_hash);
        assert_eq!(r.replica(ObjectId(1)).unwrap().log(), &expect_log[..]);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn threshold_snapshot_truncates_and_recovers() {
        let cfg = DurabilityConfig { snapshot_every: 4, ..tmp_cfg("threshold") };
        let mut s = shard(0);
        s.attach_wal(ShardWal::create(&cfg, NodeId(0), 0).unwrap());
        s.open(ObjectId(1));
        for i in 1..=20 {
            s.write(ObjectId(1), SimTime::from_secs(i), 1, payload());
        }
        assert!(s.wal().unwrap().tail_records() < 20, "threshold snapshots keep the tail bounded");
        let expect_hash = s.state_hash();
        drop(s);

        let r = reopen(&cfg);
        assert_eq!(r.state_hash(), expect_hash);
        assert_eq!(r.read(ObjectId(1)).unwrap().updates, 20);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn snapshots_are_amortised_and_a_long_tail_recovers() {
        const RECORDS: u64 = 100_000;
        // No per-append fsync: the rule under test is the snapshot
        // schedule, and snapshots are written durably in every mode.
        let cfg = DurabilityConfig::buffered(tmp_cfg("amortised").dir);
        let mut s = shard(0);
        s.attach_wal(ShardWal::create(&cfg, NodeId(0), 0).unwrap());
        s.open(ObjectId(1));
        let (mut snapshots, mut tail) = (0u32, s.wal().unwrap().tail_records());
        for i in 1..RECORDS {
            s.write(ObjectId(1), SimTime::from_secs(i), 1, payload());
            let now = s.wal().unwrap().tail_records();
            if now <= tail {
                snapshots += 1;
            }
            tail = now;
        }
        // Each snapshot waits for the tail to match the one before it, so
        // the state doubles between snapshots: log2(N / snapshot_every) of
        // them, where a fixed period would have written N / snapshot_every.
        let doublings = (RECORDS as f64 / cfg.snapshot_every as f64).log2().ceil() as u32;
        assert!(snapshots >= 2, "the minimum tail still triggers snapshots");
        assert!(snapshots <= doublings + 1, "{snapshots} snapshots over {RECORDS} records");
        assert!(tail > cfg.snapshot_every, "the tail outgrew the minimum: {tail}");
        let expect_hash = s.state_hash();
        drop(s);

        let mut r = reopen(&cfg);
        assert_eq!(r.state_hash(), expect_hash, "snapshot + long tail replays bit-identically");
        assert_eq!(r.wal().unwrap().tail_records(), tail);
        // The reopened handle knows the size of the snapshot on disk: the
        // next one is still due only once the tail has caught up with it.
        let held = RECORDS - 1 - tail;
        for i in 0..held - tail {
            assert!(r.wal().unwrap().tail_records() > 0, "early snapshot after reopen");
            r.write(ObjectId(1), SimTime::from_secs(RECORDS + i), 1, payload());
        }
        r.write(ObjectId(1), SimTime::from_secs(2 * RECORDS), 1, payload());
        assert_eq!(r.wal().unwrap().tail_records(), 1, "due exactly at the snapshot's size");
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn unchanged_transitions_are_not_logged() {
        let cfg = tmp_cfg("noop-records");
        let mut s = shard(0);
        s.attach_wal(ShardWal::create(&cfg, NodeId(0), 0).unwrap());
        s.write(ObjectId(1), SimTime::from_secs(1), 1, payload());
        s.write(ObjectId(1), SimTime::from_secs(2), 1, payload());
        let logged = |s: &StoreShard| s.wal().unwrap().tail_records();
        let before = logged(&s);
        // Everything held is sanctioned and sequencing already continues
        // at 3: neither call is a transition.
        let counts = VersionVector::from_pairs([(WriterId(0), 2)]);
        assert!(s.drop_extras(ObjectId(1), &counts).unwrap().is_empty());
        s.resume_writes_after(ObjectId(1), 2);
        assert_eq!(logged(&s), before);
        // A buffered arrival makes the same drop a real transition (it
        // discards the buffer), and a moved sequence a real resume.
        s.ingest(remote(1, 9, 2, 10)).unwrap();
        let before = logged(&s);
        assert!(s.drop_extras(ObjectId(1), &counts).unwrap().is_empty());
        s.resume_writes_after(ObjectId(1), 5);
        assert_eq!(logged(&s), before + 2);
        let expect_hash = s.state_hash();
        drop(s);

        let r = reopen(&cfg);
        assert_eq!(r.state_hash(), expect_hash);
        assert_eq!(r.replica(ObjectId(1)).unwrap().pending_len(), 0, "the discard replayed");
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn clone_detaches_the_wal() {
        let cfg = tmp_cfg("clone");
        let mut s = shard(0);
        s.attach_wal(ShardWal::create(&cfg, NodeId(0), 0).unwrap());
        s.write(ObjectId(1), SimTime::from_secs(1), 1, payload());
        let c = s.clone();
        assert!(c.wal().is_none(), "clones are in-memory working copies");
        assert_eq!(c.state_hash(), s.state_hash());
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn rollback_replays_to_the_same_replica() {
        let cfg = tmp_cfg("rollback-replay");
        let mut s = shard(0);
        s.attach_wal(ShardWal::create(&cfg, NodeId(0), 0).unwrap());
        for i in 1..=3 {
            s.write(ObjectId(1), SimTime::from_secs(i), 1, payload());
            s.ingest(remote(1, 9, i, 2)).unwrap();
        }
        let counts = s.replica(ObjectId(1)).unwrap().version().counters().clone();
        s.ingest(remote(1, 7, 1, 5)).unwrap();
        s.write(ObjectId(1), SimTime::from_secs(4), -1, payload());
        s.ingest(remote(1, 9, 4, 3)).unwrap();
        assert_eq!(s.drop_extras(ObjectId(1), &counts).unwrap().len(), 3);
        // A buffered arrival after the cut: the pending set replays too.
        s.ingest(remote(1, 7, 3, 1)).unwrap();
        let live = s.replica(ObjectId(1)).unwrap().clone();
        let expect_hash = s.state_hash();
        drop(s);

        let r = reopen(&cfg);
        let replayed = r.replica(ObjectId(1)).unwrap();
        assert_eq!(replayed.log(), live.log());
        assert!(replayed.version() == live.version());
        assert_eq!(r.state_hash(), expect_hash);
        assert_eq!(replayed.pending_len(), 1);
        assert!(replayed.pending_updates().eq(live.pending_updates()));
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    /// One step of the slot-table proptest.
    #[derive(Debug, Clone)]
    enum Op {
        Open(u64),
        Write(u64),
        Ingest(u64, u64),
        Lookup(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..4, 0u64..12, 1u64..4).prop_map(|(kind, o, seq)| match kind {
            0 => Op::Open(o),
            1 => Op::Write(o),
            2 => Op::Ingest(o, seq),
            _ => Op::Lookup(o),
        })
    }

    /// The map-per-field layout the slots replaced: a replica, a next
    /// sequence number per object.
    #[derive(Default)]
    struct Reference {
        replicas: BTreeMap<ObjectId, Replica>,
        next_seq: BTreeMap<ObjectId, u64>,
    }

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// The slot table against the `BTreeMap` layout under random open,
        /// write, ingest and lookup orders: same objects in id order, same
        /// sequence numbers, same digest.
        #[test]
        fn slots_match_the_btreemap_layout(ops in prop::collection::vec(op(), 1..80)) {
            let mut s = shard(0);
            let mut m = Reference::default();
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Open(o) => {
                        s.open(ObjectId(o));
                        m.replicas.entry(ObjectId(o)).or_insert_with(|| Replica::new(ObjectId(o)));
                    }
                    Op::Write(o) => {
                        let object = ObjectId(o);
                        let at = SimTime::from_secs(i as u64);
                        let u = s.write(object, at, 1, payload());
                        let next = m.next_seq.entry(object).or_insert(1);
                        prop_assert_eq!(u.seq(), *next);
                        *next += 1;
                        let r = m.replicas.entry(object).or_insert_with(|| Replica::new(object));
                        r.apply(u).unwrap();
                    }
                    Op::Ingest(o, seq) => {
                        let got = s.ingest(remote(o, 9, seq, 2));
                        match m.replicas.get_mut(&ObjectId(o)) {
                            Some(r) => prop_assert_eq!(got.unwrap(), r.apply(remote(o, 9, seq, 2)).unwrap()),
                            None => prop_assert!(got.is_err()),
                        }
                    }
                    Op::Lookup(o) => {
                        let got = s.replica(ObjectId(o)).ok().map(Replica::state_hash);
                        prop_assert_eq!(got, m.replicas.get(&ObjectId(o)).map(Replica::state_hash));
                    }
                }
            }
            prop_assert!(s.objects().eq(m.replicas.keys().copied()));
            let hash = m.replicas.iter().fold(0, |acc, (o, r)| {
                acc ^ idea_wal::hash::object_hash(*o, r.state_hash())
            });
            prop_assert_eq!(s.state_hash(), hash);
            prop_assert_eq!(s.objects().count(), m.replicas.len());
        }
    }
}
