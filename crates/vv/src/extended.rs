//! Extended version vectors (§4.4.1, Figure 5 of the paper).
//!
//! IDEA extends the classic vector in three ways:
//!
//! 1. each counted update carries its **timestamp**, e.g. `A:2(1, 2)` means
//!    user A's two updates happened at times 1 and 2;
//! 2. a **critical metadata** value in square brackets (`\[5\]`) summarises the
//!    application effect of the updates (ASCII sum of recent strokes for a
//!    white board, total sale price for ticket booking);
//! 3. a `<numerical error, order error, staleness>` **triple** is attached,
//!    computed against a chosen *reference consistent state*.
//!
//! The worked example of Figure 4 is reproduced verbatim in the tests below.
//!
//! The triple computation is a merge-walk over the per-writer histories —
//! it never materialises or sorts a combined event list, so a pairwise
//! comparison allocates nothing. Each history is a run of frozen chunks
//! shared behind `Arc` plus a small tail (the `history` module): cloning a
//! vector, rebuilding a peer's from a delta and cutting one back copy
//! pointers below the divergence point, and the walk skips the chunks two
//! vectors share and those lying wholly past their divergence, so all of
//! them cost `O(writers + chunks)` plus the chunk the divergence falls in
//! rather than a pass over the history (two vectors that share nothing
//! still pay one vector compare over their common prefix).
//!
//! The writers are flat: the classic counter view is one sorted run of
//! `(writer, count)` pairs, and the histories sit writer by writer beside
//! it in two flat buffers whose offsets the counts determine, so one binary
//! search finds both and a clone, a prefix or a reconstruction allocates
//! two buffers whatever the number of writers (none at all when
//! `clone_from` or [`ExtendedVersionVector::reconstruct_into`] refill a
//! vector that held one as large). The counter view is maintained
//! incrementally by [`ExtendedVersionVector::record`] and
//! [`ExtendedVersionVector::adopt`], so [`ExtendedVersionVector::counters`]
//! is a free borrow. Compact wire forms live in [`crate::wire`].

use crate::classic::{VersionVector, VvOrdering};
use crate::history::{Histories, History, Start};
use idea_types::{ErrorTriple, SimTime, UpdateId, WriterId};
use std::fmt::{self, Write as _};

/// The extended version vector of one replica.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct ExtendedVersionVector {
    /// Per-writer timestamp histories, writer by writer in the order of
    /// `counters`, whose counts also say where each one starts.
    histories: Histories,
    /// Cumulative critical-metadata value (the `\[5\]` column of Figure 5).
    meta: i64,
    /// The classic counter view: the writers in order, each with its
    /// history's length.
    counters: VersionVector,
}

impl Clone for ExtendedVersionVector {
    fn clone(&self) -> Self {
        ExtendedVersionVector {
            histories: self.histories.clone(),
            meta: self.meta,
            counters: self.counters.clone(),
        }
    }

    /// Reuses `self`'s buffers when they are large enough: a snapshot
    /// retaken into the same vector allocates nothing in steady state.
    fn clone_from(&mut self, source: &Self) {
        self.histories.clone_from(&source.histories);
        self.meta = source.meta;
        self.counters.clone_from(&source.counters);
    }
}

/// The smallest divergent event between two event sets, as a `(time, id)`
/// pair — everything chronologically before it is the common prefix.
pub(crate) type Divergence = Option<(SimTime, UpdateId)>;

/// Tracks the minimum divergent entry seen so far.
#[inline]
pub(crate) fn note_divergence(d: &mut Divergence, t: SimTime, writer: WriterId, seq: u64) {
    let e = (t, UpdateId { writer, seq });
    if d.is_none_or(|cur| e < cur) {
        *d = Some(e);
    }
}

/// Walks the union of two vectors' writers in writer order, handing `f`
/// the two (possibly empty) histories of each writer — the merge-walk
/// primitive shared by the triple computations.
fn walk_writer_pairs<'a>(
    a: &'a ExtendedVersionVector,
    b: &'a ExtendedVersionVector,
    mut f: impl FnMut(WriterId, History<'a>, History<'a>),
) {
    use std::cmp::Ordering::{Greater, Less};
    let (wa, wb) = (a.counters.pairs(), b.counters.pairs());
    let (mut i, mut j) = (0, 0);
    let (mut sa, mut sb) = (Start::default(), Start::default());
    loop {
        let order = match (wa.get(i), wb.get(j)) {
            (None, None) => break,
            (Some(_), None) => Less,
            (None, Some(_)) => Greater,
            (Some(x), Some(y)) => x.0.cmp(&y.0),
        };
        let ha = match order {
            Greater => History::default(),
            _ => a.histories.get(sa, wa[i].1 as usize),
        };
        let hb = match order {
            Less => History::default(),
            _ => b.histories.get(sb, wb[j].1 as usize),
        };
        let w = if order == Greater { wb[j].0 } else { wa[i].0 };
        f(w, ha, hb);
        if order != Greater {
            sa = sa.skip(wa[i].1 as usize);
            i += 1;
        }
        if order != Less {
            sb = sb.skip(wb[j].1 as usize);
            j += 1;
        }
    }
}

impl ExtendedVersionVector {
    /// The empty extended vector. Allocates nothing, and is `const`, so
    /// an empty vector can live in a `static`.
    pub const fn new() -> Self {
        ExtendedVersionVector {
            histories: Histories::new(),
            meta: 0,
            counters: VersionVector::new(),
        }
    }

    /// The parts the wire-form reconstruction rebuilds in place: the
    /// histories, the metadata value and the counters.
    pub(crate) fn parts_mut(&mut self) -> (&mut Histories, &mut i64, &mut VersionVector) {
        (&mut self.histories, &mut self.meta, &mut self.counters)
    }

    /// `writer`'s history (empty when it recorded nothing).
    pub(crate) fn history(&self, writer: WriterId) -> History<'_> {
        let pairs = self.counters.pairs();
        match self.counters.position(writer) {
            Ok(i) => self.histories.get(Start::after(&pairs[..i]), pairs[i].1 as usize),
            Err(_) => History::default(),
        }
    }

    /// Every writer with its history, in writer order.
    pub(crate) fn writers(&self) -> impl Iterator<Item = (WriterId, History<'_>)> + '_ {
        let pairs = self.counters.pairs();
        pairs.iter().map(|p| p.0).zip(self.histories.iter(pairs))
    }

    /// Raw per-writer histories, keyed by writer (test introspection).
    #[cfg(test)]
    pub(crate) fn raw_histories(&self) -> RawHistories<'_> {
        let writers = self.counters.pairs();
        RawHistories { writers, histories: self.histories.iter(writers).collect() }
    }

    /// Records the replica applying `writer`'s update with sequence `seq`
    /// (1-based, must be the next in sequence for that writer), issued at
    /// `at`, shifting the metadata value by `meta_delta`.
    ///
    /// # Panics
    /// Panics in debug builds if `seq` is not consecutive; release builds
    /// tolerate replays (`seq <= count`) by ignoring them.
    pub fn record(&mut self, writer: WriterId, seq: u64, at: SimTime, meta_delta: i64) {
        let pos = self.counters.position(writer);
        let pairs = self.counters.pairs();
        // A new writer starts, empty, where its successor does.
        let (i, count) = pos.map_or_else(|i| (i, 0), |i| (i, pairs[i].1));
        if seq <= count {
            // Replay of an already-recorded update: ignore.
            return;
        }
        debug_assert_eq!(seq, count + 1, "update for {writer} skipped seq {count}+1 -> {seq}");
        self.histories.push(Start::after(&pairs[..i]), count as usize, at);
        self.counters.increment_at(pos, writer);
        self.meta += meta_delta;
    }

    /// The classic counter view of this vector (cached; a free borrow).
    pub fn counters(&self) -> &VersionVector {
        &self.counters
    }

    /// The counter for a single writer.
    pub fn count(&self, writer: WriterId) -> u64 {
        self.counters.get(writer)
    }

    /// The critical metadata value.
    pub fn meta(&self) -> i64 {
        self.meta
    }

    /// Total number of recorded updates.
    pub fn total(&self) -> u64 {
        self.counters.total()
    }

    /// Timestamp of the most recent recorded update (`None` when empty).
    pub fn latest_update_time(&self) -> Option<SimTime> {
        self.histories.iter(self.counters.pairs()).filter_map(|h| h.last()).max()
    }

    /// Chronologically largest recorded timestamp — equals
    /// [`ExtendedVersionVector::latest_update_time`] for monotone per-writer
    /// histories, but robust to out-of-order issue times.
    pub(crate) fn max_event_time(&self) -> Option<SimTime> {
        self.histories.iter(self.counters.pairs()).filter_map(|h| h.max_time()).max()
    }

    /// Compares the counter views under the domination order.
    pub fn compare(&self, other: &ExtendedVersionVector) -> VvOrdering {
        self.counters.compare(&other.counters)
    }

    /// All recorded update identities with their timestamps, sorted
    /// chronologically (ties broken by update id). Retained for tests and
    /// diagnostics; the triple computation no longer materialises it.
    pub fn events(&self) -> Vec<(SimTime, UpdateId)> {
        let mut out: Vec<(SimTime, UpdateId)> = Vec::with_capacity(self.total() as usize);
        for (w, h) in self.writers() {
            for (i, t) in h.iter_from(0) {
                out.push((t, UpdateId { writer: w, seq: i as u64 + 1 }));
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        out
    }

    /// The instant this replica was last consistent with `reference`: the end
    /// of the longest common prefix of the two chronological event lists
    /// (`SimTime::ZERO` when they diverge immediately).
    ///
    /// Computed as a merge-walk: the prefix ends at the chronologically
    /// first event held by only one side (or held by both under different
    /// timestamps), so one pass finds that divergence point and a second
    /// finds the newest common event before it — no sort, no intermediate
    /// event list. Both passes go chunk by chunk and read only the chunk the
    /// divergence falls in (see the `history` module for the skip rules).
    pub fn last_consistent_with(&self, reference: &ExtendedVersionVector) -> SimTime {
        let mut d: Divergence = None;
        walk_writer_pairs(self, reference, |w, a, b| a.note_divergence(&b, w, &mut d));
        let Some(d) = d else {
            // Identical event sets: consistent through the newest event.
            return self.max_event_time().unwrap_or(SimTime::ZERO);
        };
        let mut last = SimTime::ZERO;
        walk_writer_pairs(self, reference, |w, a, b| a.newest_common_before(&b, w, d, &mut last));
        last
    }

    /// Computes the TACT triple of this replica **against a reference
    /// consistent state** (§4.4.1):
    ///
    /// * numerical error — gap between the metadata values;
    /// * order error — updates missed plus extra updates held;
    /// * staleness — most recent update in the reference minus the last
    ///   point this replica was consistent with it.
    pub fn triple_against(&self, reference: &ExtendedVersionVector) -> ErrorTriple {
        let numerical = (reference.meta - self.meta).abs() as f64;

        let missed = self.counters.missing_from(&reference.counters);
        let extra = reference.counters.missing_from(&self.counters);
        let order = (missed + extra) as f64;

        let staleness = match reference.latest_update_time() {
            Some(latest) => {
                let last_ok = self.last_consistent_with(reference);
                latest.saturating_since(last_ok)
            }
            // An empty reference has no update to be stale against.
            None => idea_types::SimDuration::ZERO,
        };

        ErrorTriple::new(numerical, order, staleness)
    }

    /// Absorbs every update the reference has that this replica misses
    /// (per-writer suffixes), adjusting the metadata value by
    /// `meta_of_reference − meta_of_self` so both end identical. Returns the
    /// number of updates absorbed.
    ///
    /// This models the paper's "let the smaller one learn from the larger
    /// one" resolution when vectors are comparable, and the post-reference
    /// reconciliation after a resolution round otherwise. Extra updates this
    /// replica holds that the reference lacks must be handled by the store
    /// (invalidated or re-sequenced) — the vector itself keeps them only if
    /// the reference also has them. Reuses this vector's buffers.
    pub fn adopt(&mut self, reference: &ExtendedVersionVector) -> u64 {
        let absorbed = self.counters.missing_from(&reference.counters);
        self.clone_from(reference);
        absorbed
    }

    /// Cuts every writer's history back to at most `counts` — the vector
    /// side of a rollback. `dropped_meta` is the summed metadata delta of
    /// the updates being removed (the caller holds them; the vector keeps
    /// only timestamps). Writers cut to zero leave no
    /// entry behind, so the result is structurally equal to a vector that
    /// only ever recorded the surviving updates. Costs `O(writers)` plus
    /// one partial chunk per writer actually cut, and allocates nothing.
    pub fn truncate_to(&mut self, counts: &VersionVector, dropped_meta: i64) {
        // Back to front, so removing a writer leaves the indices and
        // offsets of the writers still to visit in place.
        for i in (0..self.counters.writers()).rev() {
            let pairs = self.counters.pairs();
            let (w, have) = pairs[i];
            let keep = counts.get(w);
            if keep < have {
                self.histories.truncate(Start::after(&pairs[..i]), have as usize, keep as usize);
                self.counters.set(w, keep);
            }
        }
        self.meta -= dropped_meta;
    }

    /// Renders in the paper's Figure-5 style:
    /// `<A:2(1, 2) B:0> <\[5\]> <num, order, stale>` (triple omitted — it is
    /// relative to a reference, not intrinsic).
    pub(crate) fn paper_format(&self) -> String {
        let mut s = String::from("<");
        for (i, (w, h)) in self.writers().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            let _ = write!(s, "{w}:{}", h.len());
            s.push('(');
            for (j, t) in h.iter_from(0) {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{}", t.as_secs_f64());
            }
            s.push(')');
        }
        let _ = write!(s, "> <[{}]>", self.meta);
        s
    }
}

impl fmt::Display for ExtendedVersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.paper_format())
    }
}

/// A vector's histories keyed by writer, in the shape of the map the flat
/// layout replaced (test introspection: the boundary tests read chunks
/// through it).
#[cfg(test)]
pub(crate) struct RawHistories<'a> {
    writers: &'a [(WriterId, u64)],
    histories: Vec<History<'a>>,
}

#[cfg(test)]
impl<'a> RawHistories<'a> {
    fn index(&self, w: WriterId) -> Option<usize> {
        self.writers.binary_search_by_key(&w, |p| p.0).ok()
    }

    /// `w`'s history, if it recorded anything.
    pub(crate) fn get(&self, w: &WriterId) -> Option<&History<'a>> {
        self.index(*w).map(|i| &self.histories[i])
    }

    /// The writers, ascending.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &'a WriterId> + use<'a> {
        self.writers.iter().map(|p| &p.0)
    }
}

#[cfg(test)]
impl<'a> std::ops::Index<&WriterId> for RawHistories<'a> {
    type Output = History<'a>;

    fn index(&self, w: &WriterId) -> &History<'a> {
        self.get(w).expect("writer recorded")
    }
}

#[cfg(test)]
impl<'a> IntoIterator for RawHistories<'a> {
    type Item = (&'a WriterId, History<'a>);
    type IntoIter = std::iter::Zip<
        std::iter::Map<std::slice::Iter<'a, (WriterId, u64)>, fn(&(WriterId, u64)) -> &WriterId>,
        std::vec::IntoIter<History<'a>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        let key: fn(&(WriterId, u64)) -> &WriterId = |p| &p.0;
        self.writers.iter().map(key).zip(self.histories)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::SimDuration;
    use proptest::prelude::*;

    const A: WriterId = WriterId(0);
    const B: WriterId = WriterId(1);

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Builds the Figure-4 worked example:
    ///
    /// Replica a: A's updates at times 1 and 2 (meta 5 total).
    /// Replica b (reference): B's update... the paper's concrete numbers:
    /// after comparing, replica a has numerical error 3, order error 3
    /// ("misses one update and has two extra ones"), staleness 2 (last
    /// consistent at time 1, reference's latest at time 3).
    fn figure4() -> (ExtendedVersionVector, ExtendedVersionVector) {
        // Common prefix: B:1 at time 1 (both replicas saw it) — this makes
        // "the last time point when a is consistent" time 1, as in the paper.
        let mut a = ExtendedVersionVector::new();
        let mut b = ExtendedVersionVector::new();
        a.record(B, 1, t(1), 2);
        b.record(B, 1, t(1), 2);
        // Replica a then applies two local updates from A (the "two extra
        // ones"), shifting its meta by +3.
        a.record(A, 1, t(2), 1);
        a.record(A, 2, t(2), 2);
        // Replica b (the reference, higher node id) applies one more update
        // from B at time 3 (the one a "misses"), shifting its meta by +6 so
        // the final metadata gap |b.meta - a.meta| = |8 - 5| = 3.
        b.record(B, 2, t(3), 6);
        (a, b)
    }

    #[test]
    fn figure4_triple_matches_paper() {
        let (a, b) = figure4();
        let triple = a.triple_against(&b);
        assert_eq!(triple.numerical, 3.0, "numerical error");
        assert_eq!(triple.order, 3.0, "order error: 1 missed + 2 extra");
        assert_eq!(triple.staleness, SimDuration::from_secs(2), "staleness: 3 - 1");
    }

    #[test]
    fn reference_sees_mirror_order_error() {
        let (a, b) = figure4();
        let triple_b = b.triple_against(&a);
        // Order error is symmetric (missed and extra swap roles).
        assert_eq!(triple_b.order, 3.0);
        assert_eq!(triple_b.numerical, 3.0);
    }

    #[test]
    fn triple_against_self_is_zero() {
        let (a, _) = figure4();
        assert!(a.triple_against(&a).is_zero());
    }

    #[test]
    fn record_accumulates_meta_and_counts() {
        let mut v = ExtendedVersionVector::new();
        v.record(A, 1, t(1), 10);
        v.record(A, 2, t(2), -4);
        assert_eq!(v.meta(), 6);
        assert_eq!(v.count(A), 2);
        assert_eq!(v.total(), 2);
        assert_eq!(v.latest_update_time(), Some(t(2)));
    }

    #[test]
    fn replayed_updates_are_ignored() {
        let mut v = ExtendedVersionVector::new();
        v.record(A, 1, t(1), 10);
        v.record(A, 1, t(1), 10); // replay
        assert_eq!(v.meta(), 10);
        assert_eq!(v.count(A), 1);
    }

    #[test]
    fn events_are_chronological() {
        let (a, _) = figure4();
        let ev = a.events();
        assert_eq!(ev.len(), 3);
        assert!(ev.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ev[0].1, UpdateId { writer: B, seq: 1 });
    }

    #[test]
    fn cached_counters_track_history() {
        let (a, b) = figure4();
        let rebuilt =
            VersionVector::from_pairs(a.events().iter().map(|(_, id)| (id.writer, id.seq)));
        assert_eq!(a.counters(), &rebuilt);
        let mut c = a.clone();
        c.adopt(&b);
        assert_eq!(c.counters(), b.counters());
    }

    #[test]
    fn empty_reference_has_no_staleness() {
        let (a, _) = figure4();
        let empty = ExtendedVersionVector::new();
        let triple = a.triple_against(&empty);
        assert_eq!(triple.staleness, SimDuration::ZERO);
        assert_eq!(triple.order, 3.0); // all three of a's updates are "extra"
    }

    #[test]
    fn fresh_replica_is_fully_stale() {
        let (_, b) = figure4();
        let fresh = ExtendedVersionVector::new();
        let triple = fresh.triple_against(&b);
        // Never consistent -> last consistent at time zero.
        assert_eq!(triple.staleness, SimDuration::from_secs(3));
        assert_eq!(triple.order, 2.0); // misses both of b's updates
        assert_eq!(triple.numerical, 8.0);
    }

    #[test]
    fn adopt_makes_replicas_identical() {
        let (mut a, b) = figure4();
        let absorbed = a.adopt(&b);
        assert_eq!(absorbed, 1); // B's second update was the only one missed
        assert_eq!(a.compare(&b), VvOrdering::Equal);
        assert_eq!(a.meta(), b.meta());
        assert!(a.triple_against(&b).is_zero());
    }

    #[test]
    fn compare_views_match_classic() {
        let (a, b) = figure4();
        assert_eq!(a.compare(&b), VvOrdering::Concurrent);
        assert_eq!(a.counters().compare(b.counters()), VvOrdering::Concurrent);
    }

    #[test]
    fn paper_format_renders() {
        let mut v = ExtendedVersionVector::new();
        v.record(A, 1, t(1), 2);
        v.record(A, 2, t(2), 3);
        let s = v.paper_format();
        assert!(s.contains("w0:2(1, 2)"), "got {s}");
        assert!(s.contains("[5]"), "got {s}");
        assert_eq!(v.to_string(), s);
    }

    /// Reference implementation of the last-consistent point: the sorted
    /// event lists the pre-merge-walk code materialised.
    fn last_consistent_reference(a: &ExtendedVersionVector, b: &ExtendedVersionVector) -> SimTime {
        let ea = a.events();
        let eb = b.events();
        let mut last = SimTime::ZERO;
        for (x, y) in ea.iter().zip(eb.iter()) {
            if x == y {
                last = x.0;
            } else {
                break;
            }
        }
        last
    }

    /// Random interleaved histories for property tests.
    fn arb_evv() -> impl Strategy<Value = ExtendedVersionVector> {
        prop::collection::vec((0u32..4, 0u64..50, -5i64..5), 0..24).prop_map(|ops| {
            let mut v = ExtendedVersionVector::new();
            for (w, at, delta) in ops {
                let writer = WriterId(w);
                let next = v.count(writer) + 1;
                v.record(writer, next, SimTime::from_secs(at), delta);
            }
            v
        })
    }

    proptest! {
        #[test]
        fn triple_members_are_nonnegative(a in arb_evv(), b in arb_evv()) {
            let t = a.triple_against(&b);
            prop_assert!(t.numerical >= 0.0);
            prop_assert!(t.order >= 0.0);
        }

        #[test]
        fn order_error_is_symmetric(a in arb_evv(), b in arb_evv()) {
            prop_assert_eq!(
                a.triple_against(&b).order,
                b.triple_against(&a).order
            );
        }

        #[test]
        fn numerical_error_is_symmetric(a in arb_evv(), b in arb_evv()) {
            prop_assert_eq!(
                a.triple_against(&b).numerical,
                b.triple_against(&a).numerical
            );
        }

        #[test]
        fn zero_triple_iff_equal_counters_and_meta(a in arb_evv(), b in arb_evv()) {
            let t = a.triple_against(&b);
            if t.is_zero() {
                prop_assert_eq!(a.counters().compare(b.counters()), VvOrdering::Equal);
                prop_assert_eq!(a.meta(), b.meta());
            }
        }

        #[test]
        fn adopt_always_converges(mut a in arb_evv(), b in arb_evv()) {
            a.adopt(&b);
            prop_assert!(a.triple_against(&b).is_zero());
            prop_assert_eq!(a.compare(&b), VvOrdering::Equal);
        }

        #[test]
        fn order_error_equals_counter_gaps(a in arb_evv(), b in arb_evv()) {
            let t = a.triple_against(&b);
            let expected = a.counters().missing_from(b.counters())
                + b.counters().missing_from(a.counters());
            prop_assert_eq!(t.order, expected as f64);
        }

        #[test]
        fn staleness_bounded_by_reference_latest(a in arb_evv(), b in arb_evv()) {
            let t = a.triple_against(&b);
            match b.latest_update_time() {
                Some(latest) => prop_assert!(t.staleness <= latest.saturating_since(SimTime::ZERO)),
                None => prop_assert!(t.staleness.is_zero()),
            }
        }

        /// The allocation-free merge-walk must agree bit-for-bit with the
        /// sorted-event-list computation it replaced, including on
        /// non-monotonic per-writer timestamps.
        #[test]
        fn merge_walk_matches_sorted_event_lists(a in arb_evv(), b in arb_evv()) {
            prop_assert_eq!(a.last_consistent_with(&b), last_consistent_reference(&a, &b));
            prop_assert_eq!(b.last_consistent_with(&a), last_consistent_reference(&b, &a));
            prop_assert_eq!(a.last_consistent_with(&a), last_consistent_reference(&a, &a));
        }
    }
}
