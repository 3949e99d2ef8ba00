//! One node's replica of one shared object.
//!
//! The applied log holds each writer's updates `1..=count` exactly once, in
//! per-writer sequence order. Batching a transfer leans on that: the number
//! of updates beyond some counts is known from the counters alone, they sit
//! near the log's end, and the scan back from the end stops once all of
//! them are found. Loser invalidation ([`Replica::drop_extras`]) leans on it
//! too: it costs `O(writers)` when it drops nothing; otherwise it cuts the
//! dropped updates out of the log's suffix in place and takes exactly those
//! out of the vector and the digest, `O(writers + divergence)`, never a
//! pass over the log.

use idea_types::{IdeaError, ObjectId, Result, Update, WriterId};
#[cfg(test)]
use idea_types::{SimTime, UpdateId};
use idea_vv::ExtendedVersionVector;
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

/// A replica: the applied update log plus its extended version vector.
///
/// A node hosts every object of its deployment from the start, but on a
/// large fleet few of its replicas ever see an update. So a replica holds
/// only its object id until the first update is applied or buffered; the
/// log, vector, buffer and digest (`Body`) live behind one box created by
/// that update. Every read of a replica without one sees `EMPTY`, one
/// shared `static` empty body, so an empty replica costs 16 bytes and its
/// reads allocate nothing. A duplicate, or a loser invalidation that finds
/// nothing to drop, never creates a body.
#[derive(Debug, Clone)]
pub struct Replica {
    object: ObjectId,
    /// `None` until the first update is applied or buffered.
    body: Option<Box<Body>>,
}

/// What a replica holds once it has seen an update.
#[derive(Debug, Clone)]
struct Body {
    log: Vec<Update>,
    evv: ExtendedVersionVector,
    /// Out-of-order arrivals waiting for their per-writer predecessor,
    /// keyed by (writer, seq).
    pending: BTreeMap<(WriterId, u64), Update>,
    /// Rolling content digest: XOR of [`idea_wal::hash::update_hash`] over
    /// the applied log. Order-independent (two replicas holding the same
    /// update *set* hash identically regardless of delivery interleaving),
    /// maintained incrementally: XORed in on apply, XORed back out on
    /// loser invalidation.
    hash: u64,
}

/// The body every replica without one reads (see [`Replica`]).
static EMPTY: Body = Body::EMPTY;

impl Replica {
    /// An empty replica of `object`. Allocates nothing.
    pub fn new(object: ObjectId) -> Self {
        Replica { object, body: None }
    }

    /// What the replica holds: its own body, or the shared empty one.
    #[inline]
    fn body(&self) -> &Body {
        self.body.as_deref().unwrap_or(&EMPTY)
    }

    /// The body to change, created on first use.
    fn body_mut(&mut self) -> &mut Body {
        self.body.get_or_insert_with(|| Box::new(Body::EMPTY))
    }

    /// The applied update log, in application order.
    #[inline]
    pub fn log(&self) -> &[Update] {
        &self.body().log
    }

    /// Number of applied updates.
    #[inline]
    pub fn len(&self) -> usize {
        self.body().log.len()
    }

    /// True when no update has been applied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.body().log.is_empty()
    }

    /// The extended version vector describing this replica.
    #[inline]
    pub fn version(&self) -> &ExtendedVersionVector {
        &self.body().evv
    }

    /// Current critical-metadata value.
    #[inline]
    pub fn meta(&self) -> i64 {
        self.body().evv.meta()
    }

    /// Number of updates buffered waiting for predecessors.
    pub(crate) fn pending_len(&self) -> usize {
        self.body().pending.len()
    }

    /// The buffered out-of-order arrivals, in (writer, seq) order — the
    /// durability plane snapshots them alongside the applied log so a
    /// recovered replica buffers exactly what the crashed one did.
    pub(crate) fn pending_updates(&self) -> impl ExactSizeIterator<Item = &Update> + Clone + '_ {
        self.body().pending.values()
    }

    /// The rolling content digest of the applied log (see [`Body`]):
    /// equal hashes ⇔ equal applied update sets, w.h.p. One `u64` pins
    /// recovery and rejoin equivalence.
    pub(crate) fn state_hash(&self) -> u64 {
        self.body().hash
    }

    /// True when the update has been applied (not merely buffered).
    #[cfg(test)]
    pub(crate) fn has(&self, id: UpdateId) -> bool {
        self.version().count(id.writer) >= id.seq
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
        let have = self.version().count(update.writer());
        if update.seq() <= have {
            return Ok(ApplyOutcome::Duplicate);
        }
        let body = self.body_mut();
        if update.seq() > have + 1 {
            body.pending.insert((update.writer(), update.seq()), update);
            return Ok(ApplyOutcome::Buffered);
        }
        let writer = update.writer();
        body.apply_in_order(update);
        body.drain_pending(writer);
        Ok(ApplyOutcome::Applied)
    }

    /// Number of applied updates beyond the per-writer `counts`.
    pub(crate) fn count_beyond(&self, counts: &idea_vv::VersionVector) -> u64 {
        counts.missing_from(self.version().counters())
    }

    /// Updates this replica holds that `peer` (described by its vector) is
    /// missing — the transfer batch resolution ships (§4.5.2: members
    /// "update their copies by acquiring any missing updates").
    #[cfg(test)]
    pub(crate) fn updates_missing_at(&self, peer: &ExtendedVersionVector) -> Vec<Update> {
        self.updates_beyond(peer.counters())
    }

    /// Updates this replica holds beyond the per-writer `counts`, in log
    /// order — the transfer batch for a peer that advertised bare counters.
    pub fn updates_beyond(&self, counts: &idea_vv::VersionVector) -> Vec<Update> {
        let body = self.body();
        let from = body.beyond_from(counts);
        body.log[from..].iter().filter(|u| u.seq() > counts.get(u.writer())).cloned().collect()
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
    /// suffix in place, survivors keeping their order, their hashes XORed
    /// out of the digest and the vector truncated back to `counts`, its
    /// history chunks below the cut kept as they are:
    /// `O(writers + divergence)`, the scan back [`Replica::updates_beyond`]
    /// makes.
    pub(crate) fn drop_extras(&mut self, counts: &idea_vv::VersionVector) -> Vec<Update> {
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
        // A replica without a body has nothing to drop or discard.
        let Some(body) = self.body.as_deref_mut() else { return Vec::new() };
        body.pending.clear();
        if beyond == 0 {
            // Nothing to cut: log, vector and digest stay as they are.
            return Vec::new();
        }
        let from = body.beyond_from(counts);
        let dropped: Vec<Update> =
            body.log.extract_if(from.., |u| u.seq() > counts.get(u.writer())).collect();
        let mut dropped_meta = 0;
        for u in &dropped {
            dropped_meta += u.meta_delta;
            body.hash ^= idea_wal::hash::update_hash(u);
        }
        body.evv.truncate_to(counts, dropped_meta);
        dropped
    }
}

impl Body {
    /// No update applied or buffered; allocates nothing.
    const EMPTY: Body = Body {
        log: Vec::new(),
        evv: ExtendedVersionVector::new(),
        pending: BTreeMap::new(),
        hash: 0,
    };

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

    /// Log index from which the suffix holds every update beyond `counts`
    /// (`len` when there is none): scans back from the end only until the
    /// number the counters promise has been seen.
    fn beyond_from(&self, counts: &idea_vv::VersionVector) -> usize {
        let mut left = counts.missing_from(self.evv.counters());
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

    /// An empty replica holds no body, and every read of it borrows the
    /// one shared empty body: two empty replicas hand out the same
    /// vector, and nothing they return owns a buffer.
    #[test]
    fn empty_replicas_share_one_body_and_allocate_nothing() {
        let (a, b) = (Replica::new(OBJ), Replica::new(ObjectId(8)));
        assert!(std::ptr::eq(a.version(), b.version()));
        assert!(std::ptr::eq(a.version(), &EMPTY.evv));
        assert!(std::ptr::eq(a.log(), b.log()));
        assert_eq!((a.len(), a.is_empty(), a.meta(), a.state_hash()), (0, true, 0, 0));
        assert_eq!((a.pending_len(), a.pending_updates().count()), (0, 0));
        let counts = idea_vv::VersionVector::from_pairs([(WriterId(0), 3)]);
        assert_eq!(a.count_beyond(&counts), 0);
        assert!(a.updates_beyond(&counts).is_empty());
        assert!(!a.has(UpdateId { writer: WriterId(0), seq: 1 }));
        assert_eq!(a.version().counters().writers(), 0);
        assert_eq!((EMPTY.log.capacity(), EMPTY.evv.counters().writers()), (0, 0));
        assert!(a.body.is_none() && b.body.is_none(), "reads create no body");
    }

    /// Only an update that is applied or buffered creates the body: a
    /// wrong-object offer, a loser invalidation of an empty replica and a
    /// duplicate do not.
    #[test]
    fn the_first_update_creates_the_body() {
        let mut r = Replica::new(OBJ);
        let counts = idea_vv::VersionVector::from_pairs([(WriterId(0), 2)]);
        assert!(r.drop_extras(&counts).is_empty());
        assert!(r.drop_beyond(&idea_vv::VersionVector::new(), 0).is_empty());
        let mut stray = upd(0, 1, 1, 1);
        stray.object = ObjectId(99);
        assert!(r.apply(stray).is_err());
        assert!(r.body.is_none(), "nothing applied, nothing created");

        assert_eq!(r.apply(upd(0, 1, 1, 5)).unwrap(), ApplyOutcome::Applied);
        let body: *const Body = r.body.as_deref().expect("the first apply creates the body");
        assert!(!std::ptr::eq(r.version(), Replica::new(OBJ).version()));
        assert_eq!(r.apply(upd(0, 1, 1, 5)).unwrap(), ApplyOutcome::Duplicate);
        assert!(std::ptr::eq(r.body(), body), "the body is created once");

        let mut buffered = Replica::new(OBJ);
        assert_eq!(buffered.apply(upd(0, 2, 2, 1)).unwrap(), ApplyOutcome::Buffered);
        assert!(buffered.body.is_some(), "buffering creates the body too");
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
        let counts = r.version().counters().clone();
        r.apply(upd(1, 1, 3, 100)).unwrap();
        r.apply(upd(0, 3, 4, 1000)).unwrap();
        assert_eq!(r.meta(), 1111);

        let dropped = r.drop_extras(&counts);
        assert_eq!(dropped.len(), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.meta(), 11);
        assert_eq!(r.version().count(WriterId(1)), 0);
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
        // The first 1,001 log entries: w0's 1..=1000 and w1's first.
        let counts = idea_vv::VersionVector::from_pairs([(WriterId(0), 1_000), (WriterId(1), 1)]);
        let (want, want_dropped) = rebuilt_drop_extras(&r, &counts);
        assert_eq!(want.len(), 1_001);
        assert_eq!(r.drop_extras(&counts), want_dropped);
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
        let (ptr, cap) = (r.body().log.as_ptr(), r.body().log.capacity());
        assert!(r.drop_extras(&counts).is_empty());
        assert_same(&r, &want);
        assert_eq!((r.body().log.as_ptr(), r.body().log.capacity()), (ptr, cap), "log not rebuilt");
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
        let (ptr, cap) = (r.body().log.as_ptr(), r.body().log.capacity());
        let dropped = r.drop_extras(&counts);
        assert_eq!(
            (r.body().log.as_ptr(), r.body().log.capacity()),
            (ptr, cap),
            "log cut in place"
        );
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
                assert_same(&r, &rebuilt_from(r.log().to_vec()));
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

    /// The rebuild-from-scratch `drop_extras` the in-place cut replaced:
    /// partition the log, record the survivors into a fresh vector.
    fn rebuilt_drop_extras(r: &Replica, counts: &idea_vv::VersionVector) -> (Replica, Vec<Update>) {
        let (keep, dropped) =
            r.log().iter().cloned().partition(|u| u.seq() <= counts.get(u.writer()));
        (rebuilt_from(keep), dropped)
    }

    fn rebuilt_from(log: Vec<Update>) -> Replica {
        let mut out = Replica::new(OBJ);
        let body = out.body_mut();
        for u in &log {
            body.evv.record(u.writer(), u.seq(), u.at, u.meta_delta);
            body.hash ^= idea_wal::hash::update_hash(u);
        }
        body.log = log;
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
                r.log().iter().filter(|u| u.seq() > counts.get(u.writer())).cloned().collect();
            prop_assert_eq!(r.count_beyond(&counts), beyond.len() as u64);
            prop_assert_eq!(&r.updates_beyond(&counts), &beyond);
            prop_assert_eq!(r.drop_extras(&counts), beyond, "same extras, same order");
            prop_assert_eq!(r.count_beyond(&counts), 0);
        }

        /// Loser invalidation back to the counts of a log prefix — a
        /// rollback cutting every writer at once — equals the rebuild at
        /// every cut.
        #[test]
        fn in_place_rollback_equals_the_rebuild(updates in arb_streams(), cut in 0usize..40) {
            let mut r = Replica::new(OBJ);
            for u in &updates {
                r.apply(u.clone()).unwrap();
            }
            r.apply(upd(3, r.version().count(WriterId(3)) + 2, 70, 1)).unwrap(); // buffered
            let counts = rebuilt_from(r.log()[..cut.min(r.len())].to_vec()).version().counters().clone();
            let (want, want_dropped) = rebuilt_drop_extras(&r, &counts);
            prop_assert_eq!(want.len(), cut.min(r.len()));
            prop_assert_eq!(r.drop_extras(&counts), want_dropped);
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

        /// Loser invalidation back to the counts of a prefix rolls back
        /// exactly to that prefix: log, meta and the incrementally
        /// maintained digest.
        #[test]
        fn rollback_is_exact_inverse(updates in arb_streams(), cut in 0usize..40) {
            let mut r = Replica::new(OBJ);
            let cut = cut.min(updates.len());
            for u in &updates[..cut] {
                r.apply(u.clone()).unwrap();
            }
            let snapshot_log = r.log().to_vec();
            let snapshot_meta = r.meta();
            let snapshot_hash = r.state_hash();
            let counts = r.version().counters().clone();
            for u in &updates[cut..] {
                r.apply(u.clone()).unwrap();
            }
            r.drop_extras(&counts);
            prop_assert_eq!(r.log(), &snapshot_log[..]);
            prop_assert_eq!(r.meta(), snapshot_meta);
            prop_assert_eq!(r.state_hash(), snapshot_hash);
        }
    }
}
