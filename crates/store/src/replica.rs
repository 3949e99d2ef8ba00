//! One node's replica of one shared object.
//!
//! The applied log holds each writer's updates `1..=count` exactly once, in
//! per-writer sequence order. Batching a transfer leans on that: the number
//! of updates beyond some counts is known from the counters alone, they sit
//! near the log's end, and the scan back from the end stops once all of
//! them are found. Rolling back cuts the log's suffix off and takes exactly
//! those updates out of the vector and the digest. Both cost
//! `O(writers + divergence)`, never a pass over the log. Loser invalidation
//! ([`Replica::drop_extras`]) costs `O(writers)` when it drops nothing;
//! otherwise it cuts the log and the digest in the same
//! `O(writers + divergence)` and rebuilds only the vector from the
//! surviving log. The wholesale [`Replica::reconcile_to`] always rebuilds.

use idea_types::{IdeaError, ObjectId, Result, SimTime, Update, UpdateId, WriterId};
use idea_vv::ExtendedVersionVector;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Result of offering an update to a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The update extended the log.
    Applied,
    /// The update was buffered: an earlier update of the same writer is
    /// still missing (network reordering).
    Buffered,
    /// The update was already present (duplicate delivery).
    Duplicate,
}

/// A restorable point in a replica's history (rollback support, §4.4.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Log length at checkpoint time.
    log_len: usize,
    /// Virtual time the checkpoint was taken.
    pub at: SimTime,
}

impl Checkpoint {
    /// The retained log length (the WAL logs rollbacks as a truncation to
    /// this many entries).
    pub(crate) fn log_len(&self) -> usize {
        self.log_len
    }
}

/// A replica: the applied update log plus its extended version vector.
#[derive(Debug, Clone)]
pub struct Replica {
    object: ObjectId,
    log: Vec<Update>,
    evv: ExtendedVersionVector,
    /// Out-of-order arrivals waiting for their per-writer predecessor,
    /// keyed by (writer, seq).
    pending: BTreeMap<(WriterId, u64), Update>,
    /// Rolling content digest: XOR of [`idea_wal::hash::update_hash`] over
    /// the applied log. Order-independent (two replicas holding the same
    /// update *set* hash identically regardless of delivery interleaving),
    /// maintained incrementally: XORed in on apply, XORed back out on
    /// rollback and loser invalidation, recomputed in the pass reconcile
    /// already makes.
    hash: u64,
}

impl Replica {
    /// An empty replica of `object`.
    pub fn new(object: ObjectId) -> Self {
        Replica {
            object,
            log: Vec::new(),
            evv: ExtendedVersionVector::new(),
            pending: BTreeMap::new(),
            hash: 0,
        }
    }

    /// The object this replica holds.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The applied update log, in application order.
    pub fn log(&self) -> &[Update] {
        &self.log
    }

    /// Number of applied updates.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True when no update has been applied.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// The extended version vector describing this replica.
    pub fn version(&self) -> &ExtendedVersionVector {
        &self.evv
    }

    /// Current critical-metadata value.
    pub fn meta(&self) -> i64 {
        self.evv.meta()
    }

    /// Number of updates buffered waiting for predecessors.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The buffered out-of-order arrivals, in (writer, seq) order — the
    /// durability plane snapshots them alongside the applied log so a
    /// recovered replica buffers exactly what the crashed one did.
    pub fn pending_updates(&self) -> impl Iterator<Item = &Update> + '_ {
        self.pending.values()
    }

    /// The rolling content digest of the applied log (see the field docs):
    /// equal hashes ⇔ equal applied update sets, w.h.p. One `u64` pins
    /// recovery and rejoin equivalence.
    pub fn state_hash(&self) -> u64 {
        self.hash
    }

    /// True when the update has been applied (not merely buffered).
    pub fn has(&self, id: UpdateId) -> bool {
        self.evv.count(id.writer) >= id.seq
    }

    /// Offers an update. Out-of-order updates (per writer) are buffered and
    /// drained automatically once the gap closes.
    ///
    /// # Errors
    /// Rejects updates for a different object.
    pub fn apply(&mut self, update: Update) -> Result<ApplyOutcome> {
        if update.object != self.object {
            return Err(IdeaError::UnknownObject(update.object));
        }
        let have = self.evv.count(update.writer());
        if update.seq() <= have {
            return Ok(ApplyOutcome::Duplicate);
        }
        if update.seq() > have + 1 {
            self.pending.insert((update.writer(), update.seq()), update);
            return Ok(ApplyOutcome::Buffered);
        }
        let writer = update.writer();
        self.apply_in_order(update);
        self.drain_pending(writer);
        Ok(ApplyOutcome::Applied)
    }

    fn apply_in_order(&mut self, update: Update) {
        self.evv.record(update.writer(), update.seq(), update.at, update.meta_delta);
        self.hash ^= idea_wal::hash::update_hash(&update);
        self.log.push(update);
    }

    /// Applies the buffered successors of `writer`'s update that was just
    /// applied. Nothing else can have become applicable: the buffer never
    /// holds an update whose predecessor is already applied, and only
    /// `writer`'s count moved.
    fn drain_pending(&mut self, writer: WriterId) {
        let mut next = self.evv.count(writer) + 1;
        while let Some(u) = self.pending.remove(&(writer, next)) {
            self.apply_in_order(u);
            next += 1;
        }
    }

    /// Number of applied updates beyond the per-writer `counts`.
    pub fn count_beyond(&self, counts: &idea_vv::VersionVector) -> u64 {
        counts.missing_from(self.evv.counters())
    }

    /// Log index from which the suffix holds every update beyond `counts`
    /// (`len` when there is none): scans back from the end only until the
    /// number the counters promise has been seen.
    fn beyond_from(&self, counts: &idea_vv::VersionVector) -> usize {
        let mut left = self.count_beyond(counts);
        let mut i = self.log.len();
        while left > 0 && i > 0 {
            i -= 1;
            let u = &self.log[i];
            if u.seq() > counts.get(u.writer()) {
                left -= 1;
            }
        }
        i
    }

    /// Updates this replica holds that `peer` (described by its vector) is
    /// missing — the transfer batch resolution ships (§4.5.2: members
    /// "update their copies by acquiring any missing updates").
    pub fn updates_missing_at(&self, peer: &ExtendedVersionVector) -> Vec<Update> {
        self.updates_beyond(peer.counters())
    }

    /// Replaces this replica's content with the reference state: applied
    /// log and vector become exactly the reference's. Extra local updates
    /// (not sanctioned by the reference) are returned so the caller can
    /// surface them to the application (e.g. re-issue or discard).
    pub fn reconcile_to(&mut self, reference_log: &[Update]) -> Vec<Update> {
        let mut evv = ExtendedVersionVector::new();
        let mut hash = 0u64;
        for u in reference_log {
            evv.record(u.writer(), u.seq(), u.at, u.meta_delta);
            hash ^= idea_wal::hash::update_hash(u);
        }
        let extras = self.log.iter().filter(|u| evv.count(u.writer()) < u.seq()).cloned().collect();
        self.log = reference_log.to_vec();
        self.evv = evv;
        self.hash = hash;
        self.pending.clear();
        extras
    }

    /// Updates this replica holds beyond the per-writer `counts`, in log
    /// order — the transfer batch for a peer that advertised bare counters.
    pub fn updates_beyond(&self, counts: &idea_vv::VersionVector) -> Vec<Update> {
        let from = self.beyond_from(counts);
        self.log[from..].iter().filter(|u| u.seq() > counts.get(u.writer())).cloned().collect()
    }

    /// Drops every applied update beyond the per-writer `counts` — the
    /// "loser invalidation" step of resolution: after a reference state is
    /// chosen, updates the reference never sanctioned are rolled back
    /// (§4.5.1, *invalidate both* and the losing side of *user-ID based*).
    /// Returns the invalidated updates in log order; buffered out-of-order
    /// arrivals are discarded either way.
    ///
    /// When nothing is beyond `counts` — most members' `Inform`s — the
    /// counters say so in `O(writers)` and log, vector and digest are left
    /// untouched. Otherwise the dropped updates are cut out of the log's
    /// suffix in place, survivors keeping their order, and their hashes
    /// XORed out of the digest: `O(writers + divergence)`, the scan back
    /// [`Replica::updates_beyond`] makes. The vector is still rebuilt from
    /// the surviving log, `O(history)`: the in-place vector cut waits on
    /// the benchmark's memory accounting (ROADMAP item 1(b), step 2b).
    pub fn drop_extras(&mut self, counts: &idea_vv::VersionVector) -> Vec<Update> {
        self.drop_beyond(counts, self.count_beyond(counts))
    }

    /// [`Replica::drop_extras`] for a caller that already knows
    /// `beyond == self.count_beyond(counts)`.
    pub(crate) fn drop_beyond(
        &mut self,
        counts: &idea_vv::VersionVector,
        beyond: u64,
    ) -> Vec<Update> {
        debug_assert_eq!(beyond, self.count_beyond(counts));
        self.pending.clear();
        if beyond == 0 {
            // Keeping every update in order would rebuild an equal vector
            // and the same digest.
            return Vec::new();
        }
        let from = self.beyond_from(counts);
        let dropped: Vec<Update> =
            self.log.extract_if(from.., |u| u.seq() > counts.get(u.writer())).collect();
        for u in &dropped {
            self.hash ^= idea_wal::hash::update_hash(u);
        }
        // The vector is still rebuilt from the surviving log. Cutting it in
        // place (`truncate_to`, as `truncate` does) is several times faster
        // again, but lets a benchmark pass fit more revisits into its fixed
        // time, and the harness keeps every revisit's vectors: `peak_rss_mb`
        // then outgrows its bound (ROADMAP 1(a)(ii)).
        let mut evv = ExtendedVersionVector::new();
        for u in &self.log {
            evv.record(u.writer(), u.seq(), u.at, u.meta_delta);
        }
        self.evv = evv;
        dropped
    }

    /// Takes a checkpoint that [`Replica::rollback`] can later restore.
    pub fn checkpoint(&self, at: SimTime) -> Checkpoint {
        Checkpoint { log_len: self.log.len(), at }
    }

    /// Rolls back to `cp`, discarding every update applied after it and
    /// returning the discarded suffix (newest last).
    ///
    /// # Errors
    /// Fails if the checkpoint is ahead of the current log (it belongs to a
    /// different replica or the log was already reconciled shorter).
    pub fn rollback(&mut self, cp: &Checkpoint) -> Result<Vec<Update>> {
        if cp.log_len > self.log.len() {
            return Err(IdeaError::RollbackBeyondLog);
        }
        Ok(self.truncate(cp.log_len))
    }

    /// Keeps the first `len` applied updates and cuts the rest in place,
    /// returning them (newest last); buffered arrivals are discarded. The
    /// cut costs the dropped suffix, not the history. A `len` past the
    /// log keeps everything.
    pub(crate) fn truncate(&mut self, len: usize) -> Vec<Update> {
        self.pending.clear();
        let dropped: Vec<Update> = self.log.split_off(len.min(self.log.len()));
        // Each writer's dropped updates are the newest of its run, in
        // sequence order: the first one met fixes the surviving count.
        let mut cut: BTreeMap<WriterId, u64> = BTreeMap::new();
        let mut meta = 0;
        for u in &dropped {
            cut.entry(u.writer()).or_insert(u.seq() - 1);
            meta += u.meta_delta;
            self.hash ^= idea_wal::hash::update_hash(u);
        }
        let keep = self.evv.counters().with_overrides(&cut.into_iter().collect::<Vec<_>>());
        self.evv.truncate_to(&keep, meta);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::UpdatePayload;
    use proptest::prelude::*;

    const OBJ: ObjectId = ObjectId(7);

    fn upd(writer: u32, seq: u64, at_s: u64, delta: i64) -> Update {
        Update {
            object: OBJ,
            id: UpdateId { writer: WriterId(writer), seq },
            at: SimTime::from_secs(at_s),
            meta_delta: delta,
            payload: UpdatePayload::Opaque(bytes::Bytes::new()),
        }
    }

    #[test]
    fn in_order_apply_extends_log() {
        let mut r = Replica::new(OBJ);
        assert_eq!(r.apply(upd(0, 1, 1, 5)).unwrap(), ApplyOutcome::Applied);
        assert_eq!(r.apply(upd(0, 2, 2, 3)).unwrap(), ApplyOutcome::Applied);
        assert_eq!(r.len(), 2);
        assert_eq!(r.meta(), 8);
        assert!(r.has(UpdateId { writer: WriterId(0), seq: 2 }));
        assert!(!r.has(UpdateId { writer: WriterId(0), seq: 3 }));
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut r = Replica::new(OBJ);
        r.apply(upd(0, 1, 1, 5)).unwrap();
        assert_eq!(r.apply(upd(0, 1, 1, 5)).unwrap(), ApplyOutcome::Duplicate);
        assert_eq!(r.len(), 1);
        assert_eq!(r.meta(), 5);
    }

    #[test]
    fn out_of_order_buffers_then_drains() {
        let mut r = Replica::new(OBJ);
        assert_eq!(r.apply(upd(0, 3, 3, 1)).unwrap(), ApplyOutcome::Buffered);
        assert_eq!(r.apply(upd(0, 2, 2, 1)).unwrap(), ApplyOutcome::Buffered);
        assert_eq!(r.len(), 0);
        assert_eq!(r.pending_len(), 2);
        assert_eq!(r.apply(upd(0, 1, 1, 1)).unwrap(), ApplyOutcome::Applied);
        assert_eq!(r.len(), 3, "gap closed, buffer drained");
        assert_eq!(r.pending_len(), 0);
        assert_eq!(r.version().count(WriterId(0)), 3);
    }

    #[test]
    fn interleaved_writers_drain_in_per_writer_order() {
        let mut r = Replica::new(OBJ);
        for (w, s) in [(0, 3), (1, 2), (0, 2), (1, 3)] {
            assert_eq!(r.apply(upd(w, s, s, 1)).unwrap(), ApplyOutcome::Buffered);
        }
        // Closing w1's gap releases w1's run only; w0's stays buffered.
        assert_eq!(r.apply(upd(1, 1, 1, 1)).unwrap(), ApplyOutcome::Applied);
        assert_eq!(r.pending_len(), 2);
        assert_eq!(r.apply(upd(0, 1, 1, 1)).unwrap(), ApplyOutcome::Applied);
        assert_eq!(r.pending_len(), 0);
        let order: Vec<(u32, u64)> = r.log().iter().map(|u| (u.writer().0, u.seq())).collect();
        assert_eq!(order, vec![(1, 1), (1, 2), (1, 3), (0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn wrong_object_is_rejected() {
        let mut r = Replica::new(OBJ);
        let mut u = upd(0, 1, 1, 1);
        u.object = ObjectId(99);
        assert!(matches!(r.apply(u), Err(IdeaError::UnknownObject(_))));
    }

    #[test]
    fn transfer_batch_is_exact_gap() {
        let mut a = Replica::new(OBJ);
        let mut b = Replica::new(OBJ);
        for s in 1..=4 {
            a.apply(upd(0, s, s, 1)).unwrap();
        }
        b.apply(upd(0, 1, 1, 1)).unwrap();
        b.apply(upd(1, 1, 2, 1)).unwrap();
        let batch = a.updates_missing_at(b.version());
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|u| u.writer() == WriterId(0) && u.seq() >= 2));
        // Applying the batch converges a's updates into b.
        for u in batch {
            b.apply(u).unwrap();
        }
        assert_eq!(b.version().count(WriterId(0)), 4);
    }

    #[test]
    fn reconcile_adopts_reference_and_reports_extras() {
        let mut reference = Replica::new(OBJ);
        reference.apply(upd(0, 1, 1, 1)).unwrap();
        reference.apply(upd(1, 1, 2, 2)).unwrap();

        let mut r = Replica::new(OBJ);
        r.apply(upd(0, 1, 1, 1)).unwrap();
        r.apply(upd(2, 1, 3, 7)).unwrap(); // the extra the reference lacks

        let extras = r.reconcile_to(reference.log());
        assert_eq!(extras.len(), 1);
        assert_eq!(extras[0].writer(), WriterId(2));
        assert_eq!(r.log(), reference.log());
        assert_eq!(r.meta(), reference.meta());
        assert!(r.version().triple_against(reference.version()).is_zero());
    }

    #[test]
    fn drop_extras_truncates_to_sanctioned_counts() {
        let mut r = Replica::new(OBJ);
        r.apply(upd(0, 1, 1, 1)).unwrap();
        r.apply(upd(0, 2, 2, 2)).unwrap();
        r.apply(upd(1, 1, 3, 4)).unwrap();
        // Reference sanctions only w0:1 — w0's second update and all of w1
        // are invalidated.
        let counts = idea_vv::VersionVector::from_pairs([(WriterId(0), 1)]);
        let dropped = r.drop_extras(&counts);
        assert_eq!(dropped.len(), 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.meta(), 1);
        assert_eq!(r.version().count(WriterId(0)), 1);
        assert_eq!(r.version().count(WriterId(1)), 0);
        // Idempotent once truncated.
        assert!(r.drop_extras(&counts).is_empty());
    }

    #[test]
    fn rollback_restores_prefix() {
        let mut r = Replica::new(OBJ);
        r.apply(upd(0, 1, 1, 1)).unwrap();
        r.apply(upd(0, 2, 2, 10)).unwrap();
        let cp = r.checkpoint(SimTime::from_secs(2));
        r.apply(upd(1, 1, 3, 100)).unwrap();
        r.apply(upd(0, 3, 4, 1000)).unwrap();
        assert_eq!(r.meta(), 1111);

        let dropped = r.rollback(&cp).unwrap();
        assert_eq!(dropped.len(), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.meta(), 11);
        assert_eq!(r.version().count(WriterId(1)), 0);
    }

    #[test]
    fn rollback_beyond_log_fails() {
        let mut r = Replica::new(OBJ);
        r.apply(upd(0, 1, 1, 1)).unwrap();
        let cp = r.checkpoint(SimTime::from_secs(1));
        let reference = Replica::new(OBJ);
        r.reconcile_to(reference.log()); // log now shorter than checkpoint
        assert_eq!(r.rollback(&cp), Err(IdeaError::RollbackBeyondLog));
    }

    #[test]
    fn checkpoint_then_noop_rollback_is_identity() {
        let mut r = Replica::new(OBJ);
        r.apply(upd(0, 1, 1, 4)).unwrap();
        let cp = r.checkpoint(SimTime::from_secs(1));
        let before_log = r.log().to_vec();
        let dropped = r.rollback(&cp).unwrap();
        assert!(dropped.is_empty());
        assert_eq!(r.log(), &before_log[..]);
    }

    #[test]
    fn rollback_cuts_across_vector_chunks() {
        // Deep enough that the vector's history spans several frozen
        // chunks, whatever their size.
        let mut r = Replica::new(OBJ);
        for s in 1..=1_500 {
            r.apply(upd(0, s, s, 2)).unwrap();
            if s % 500 == 0 {
                r.apply(upd(1, s / 500, s, 5)).unwrap();
            }
        }
        let cp = Checkpoint { log_len: 1_001, at: SimTime::from_secs(1) };
        let (want, want_dropped) = rebuilt_rollback(&r, &cp);
        assert_eq!(r.rollback(&cp).unwrap(), want_dropped);
        assert_same(&r, &want);
    }

    #[test]
    fn drop_extras_that_drops_nothing_leaves_the_log_in_place() {
        let mut r = Replica::new(OBJ);
        for s in 1..=5 {
            r.apply(upd(0, s, s, 1)).unwrap();
            r.apply(upd(1, s, s, 2)).unwrap();
        }
        // Buffered, and discarded by the drop.
        r.apply(upd(1, 9, 9, 4)).unwrap();
        // At w0's count, above w1's, and a writer the replica never saw.
        let counts = idea_vv::VersionVector::from_pairs([
            (WriterId(0), 5),
            (WriterId(1), 7),
            (WriterId(2), 1),
        ]);
        let (want, _) = rebuilt_drop_extras(&r, &counts);
        let (ptr, cap) = (r.log.as_ptr(), r.log.capacity());
        assert!(r.drop_extras(&counts).is_empty());
        assert_same(&r, &want);
        assert_eq!((r.log.as_ptr(), r.log.capacity()), (ptr, cap), "log not rebuilt");
    }

    #[test]
    fn drop_extras_cuts_the_log_in_place() {
        let mut r = Replica::new(OBJ);
        for s in 1..=10 {
            for w in 0..3 {
                r.apply(upd(w, s, s, w as i64 + 1)).unwrap();
            }
        }
        // w0 and w2 lose their newest updates; w1 keeps all of its own,
        // which sit between the dropped ones past the cut point.
        let counts = idea_vv::VersionVector::from_pairs([
            (WriterId(0), 4),
            (WriterId(1), 10),
            (WriterId(2), 6),
        ]);
        let (want, want_dropped) = rebuilt_drop_extras(&r, &counts);
        let (ptr, cap) = (r.log.as_ptr(), r.log.capacity());
        let dropped = r.drop_extras(&counts);
        assert_eq!((r.log.as_ptr(), r.log.capacity()), (ptr, cap), "log cut in place");
        let order: Vec<(u32, u64)> = dropped.iter().map(|u| (u.writer().0, u.seq())).collect();
        let mut want_order = vec![(0, 5), (0, 6)];
        want_order.extend((7..=10).flat_map(|s| [(0, s), (2, s)]));
        assert_eq!(order, want_order, "log order");
        assert_eq!(dropped, want_dropped);
        assert_same(&r, &want);
    }

    #[test]
    fn drop_extras_matches_the_rebuild_over_a_long_history() {
        use rand::{Rng, SeedableRng};
        // Past two of the vector's 256-timestamp history chunks per writer.
        const PREFILL: u64 = 600;
        const WRITERS: u32 = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        let mut r = Replica::new(OBJ);
        let mut at = 0;
        let mut grow = |r: &mut Replica, n: u64, rng: &mut rand::rngs::StdRng| {
            for _ in 0..n {
                let w = WriterId(rng.gen_range(0..WRITERS));
                at += 1;
                r.apply(upd(w.0, r.version().count(w) + 1, at, rng.gen_range(-4i64..5))).unwrap();
            }
        };
        grow(&mut r, PREFILL * WRITERS as u64, &mut rng);
        let mut dropped_any = 0;
        for step in 0..240 {
            if step % 2 == 0 {
                let n = rng.gen_range(10..30);
                grow(&mut r, n, &mut rng);
                assert_same(&r, &rebuilt_from(r.log.clone()));
                continue;
            }
            // Buffered, and discarded by the drop.
            r.apply(upd(3, r.version().count(WriterId(3)) + 2, 0, 1)).unwrap();
            // Sanctioned counts below, at and above each writer's count; now
            // and then a cut deep into the history.
            let deep = step % 120 == 1;
            let counts = idea_vv::VersionVector::from_pairs((0..WRITERS).map(|w| {
                let w = WriterId(w);
                let offset = if deep { -128 } else { rng.gen_range(-6i64..=3) };
                (w, r.version().count(w).saturating_add_signed(offset))
            }));
            let (want, want_dropped) = rebuilt_drop_extras(&r, &counts);
            let dropped = r.drop_extras(&counts);
            assert_eq!(dropped, want_dropped, "step {step}");
            assert_same(&r, &want);
            dropped_any += usize::from(!dropped.is_empty());
        }
        assert!(dropped_any > 100, "most drop steps drop something: {dropped_any}");
        for w in 0..WRITERS {
            assert!(r.version().count(WriterId(w)) > 512, "history stays long");
        }
    }

    /// The rebuild-from-scratch `rollback` the in-place one replaced.
    fn rebuilt_rollback(r: &Replica, cp: &Checkpoint) -> (Replica, Vec<Update>) {
        (rebuilt_from(r.log[..cp.log_len].to_vec()), r.log[cp.log_len..].to_vec())
    }

    /// The always-rebuild `drop_extras` the no-op early return sits in
    /// front of.
    fn rebuilt_drop_extras(r: &Replica, counts: &idea_vv::VersionVector) -> (Replica, Vec<Update>) {
        let (keep, dropped) =
            r.log.iter().cloned().partition(|u| u.seq() <= counts.get(u.writer()));
        (rebuilt_from(keep), dropped)
    }

    fn rebuilt_from(log: Vec<Update>) -> Replica {
        let mut out = Replica::new(OBJ);
        for u in &log {
            out.evv.record(u.writer(), u.seq(), u.at, u.meta_delta);
            out.hash ^= idea_wal::hash::update_hash(u);
        }
        out.log = log;
        out
    }

    fn assert_same(got: &Replica, want: &Replica) {
        assert_eq!(got.log(), want.log());
        assert_eq!(got.version(), want.version(), "structural vector equality");
        assert_eq!(got.state_hash(), want.state_hash());
        assert_eq!(got.pending_len(), want.pending_len());
    }

    /// Random per-writer streams delivered in arbitrary interleavings.
    fn arb_streams() -> impl Strategy<Value = Vec<Update>> {
        prop::collection::vec((0u32..4, 1u64..60, -4i64..5), 1..40).prop_map(|raw| {
            let mut next_seq = [1u64; 4];
            let mut out = Vec::new();
            for (w, at, delta) in raw {
                let seq = next_seq[w as usize];
                next_seq[w as usize] += 1;
                out.push(upd(w, seq, at, delta));
            }
            out
        })
    }

    proptest! {
        #[test]
        fn any_delivery_order_converges(updates in arb_streams(), seed in 0u64..32) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

            let mut in_order = Replica::new(OBJ);
            for u in &updates {
                in_order.apply(u.clone()).unwrap();
            }

            let mut shuffled = updates.clone();
            shuffled.shuffle(&mut rng);
            let mut reordered = Replica::new(OBJ);
            for u in shuffled {
                reordered.apply(u).unwrap();
            }

            prop_assert_eq!(reordered.pending_len(), 0);
            prop_assert_eq!(reordered.meta(), in_order.meta());
            prop_assert!(reordered
                .version()
                .triple_against(in_order.version())
                .is_zero());
            // The rolling digest is delivery-order independent: same update
            // set, same hash.
            prop_assert_eq!(reordered.state_hash(), in_order.state_hash());
        }

        #[test]
        fn anti_entropy_exchange_converges(updates in arb_streams(), split in 0usize..40) {
            // Partition the stream between two replicas, then exchange
            // missing batches both ways: they must end identical.
            let cut = split.min(updates.len());
            let mut a = Replica::new(OBJ);
            let mut b = Replica::new(OBJ);
            for u in &updates[..cut] {
                a.apply(u.clone()).unwrap();
            }
            for u in &updates[cut..] {
                b.apply(u.clone()).unwrap();
            }
            for u in a.updates_missing_at(b.version()) {
                b.apply(u).unwrap();
            }
            for u in b.updates_missing_at(a.version()) {
                a.apply(u).unwrap();
            }
            prop_assert_eq!(a.pending_len(), 0);
            prop_assert_eq!(b.pending_len(), 0);
            prop_assert!(a.version().triple_against(b.version()).is_zero());
            prop_assert_eq!(a.meta(), b.meta());
        }

        /// The scan back from the log's end finds exactly what a filter
        /// over the whole log finds — which is what `drop_extras` removes —
        /// on random logs and random sanctioned counts (below, at and above
        /// what is held, and for writers the replica never saw).
        #[test]
        fn scan_back_finds_what_drop_extras_removes(
            updates in arb_streams(),
            sanctioned in prop::collection::vec(0u64..14, 5..6),
            seed in 0u64..32,
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut shuffled = updates.clone();
            shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            let mut r = Replica::new(OBJ);
            for u in shuffled {
                r.apply(u).unwrap();
            }
            let counts = idea_vv::VersionVector::from_pairs(
                sanctioned.iter().enumerate().map(|(w, c)| (WriterId(w as u32), *c)),
            );
            let beyond: Vec<Update> =
                r.log.iter().filter(|u| u.seq() > counts.get(u.writer())).cloned().collect();
            prop_assert_eq!(r.count_beyond(&counts), beyond.len() as u64);
            prop_assert_eq!(&r.updates_beyond(&counts), &beyond);
            prop_assert_eq!(r.drop_extras(&counts), beyond, "same extras, same order");
            prop_assert_eq!(r.count_beyond(&counts), 0);
        }

        /// In-place `rollback` equals the rebuild at every checkpoint.
        #[test]
        fn in_place_rollback_equals_the_rebuild(updates in arb_streams(), cut in 0usize..40) {
            let mut r = Replica::new(OBJ);
            for u in &updates {
                r.apply(u.clone()).unwrap();
            }
            r.apply(upd(3, r.version().count(WriterId(3)) + 2, 70, 1)).unwrap(); // buffered
            let cp = Checkpoint { log_len: cut.min(r.len()), at: SimTime::from_secs(999) };
            let (want, want_dropped) = rebuilt_rollback(&r, &cp);
            let dropped = r.rollback(&cp).unwrap();
            prop_assert_eq!(dropped, want_dropped);
            assert_same(&r, &want);
        }

        /// `drop_extras` equals the rebuild whether or not it drops
        /// anything: counts below, at and above each writer's count, and
        /// writers the replica or the counts never saw.
        #[test]
        fn drop_extras_equals_the_rebuild(
            updates in arb_streams(),
            offsets in prop::collection::vec(-3i64..3, 5..6),
        ) {
            let mut r = Replica::new(OBJ);
            for u in &updates {
                r.apply(u.clone()).unwrap();
            }
            r.apply(upd(3, r.version().count(WriterId(3)) + 2, 70, 1)).unwrap(); // buffered
            let counts = idea_vv::VersionVector::from_pairs(offsets.iter().enumerate().map(|(w, d)| {
                let w = WriterId(w as u32);
                (w, r.version().count(w).saturating_add_signed(*d))
            }));
            let (want, want_dropped) = rebuilt_drop_extras(&r, &counts);
            prop_assert_eq!(r.drop_extras(&counts), want_dropped);
            assert_same(&r, &want);
        }

        #[test]
        fn rollback_is_exact_inverse(updates in arb_streams(), cut in 0usize..40) {
            let mut r = Replica::new(OBJ);
            let cut = cut.min(updates.len());
            for u in &updates[..cut] {
                r.apply(u.clone()).unwrap();
            }
            let snapshot_log = r.log().to_vec();
            let snapshot_meta = r.meta();
            let cp = r.checkpoint(SimTime::from_secs(999));
            for u in &updates[cut..] {
                r.apply(u.clone()).unwrap();
            }
            let hash_at_cp = {
                let mut fresh = Replica::new(OBJ);
                for u in &snapshot_log {
                    fresh.apply(u.clone()).unwrap();
                }
                fresh.state_hash()
            };
            r.rollback(&cp).unwrap();
            prop_assert_eq!(r.log(), &snapshot_log[..]);
            prop_assert_eq!(r.meta(), snapshot_meta);
            // Rollback's hash recomputation lands exactly on the prefix's
            // incrementally-maintained digest.
            prop_assert_eq!(r.state_hash(), hash_at_cp);
        }
    }
}
