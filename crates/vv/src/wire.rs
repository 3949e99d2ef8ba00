//! Compact wire forms of the extended version vector.
//!
//! Detection traffic used to ship the full [`ExtendedVersionVector`] — a
//! per-writer timestamp *history* whose size grows with the total number of
//! updates ever applied, not with how far two replicas have diverged. The
//! TACT observation (Yu & Vahdat) is that conit error bounds need only
//! compact per-writer counters, and Bayou's anti-entropy ships only the
//! per-writer suffixes a peer is missing. These two forms apply that here:
//!
//! * [`VvSummary`] — counters + metadata + newest-update time + a bounded
//!   per-writer timestamp **tail**. Self-contained: a receiver that holds
//!   its own full history can compute the exact TACT triple against the
//!   summarised replica as long as the divergence per writer fits in the
//!   tail; beyond the tail the unknown events are conservatively treated as
//!   maximally stale (the level estimate can only drop, never inflate).
//! * [`VvDelta`] — counters + metadata + newest-update time + the **exact**
//!   per-writer suffixes beyond a baseline the receiver advertised
//!   ([`ExtendedVersionVector::suffix_since`]). A receiver holding the
//!   baseline history reconstructs the sender's full vector losslessly
//!   ([`ExtendedVersionVector::reconstruct`]).
//!
//! Both forms cost `O(writers + suffix)` bytes instead of `O(history)`.
//! In memory each holds its per-writer timestamps in one flat
//! [`Suffixes`] buffer, so building one allocates two buffers (counters
//! and runs) whatever the number of writers; a detection or collect round
//! builds its probe summary once and every request of the round shares it.

use crate::classic::VersionVector;
use crate::extended::{note_divergence, Divergence, ExtendedVersionVector};
use crate::history::History;
use idea_types::{ErrorTriple, SimDuration, SimTime, UpdateId, WriterId};

/// Timestamps of one writer's newest updates: the `start_seq`-th update
/// onwards (1-based, contiguous through the writer's current count),
/// borrowed from a [`Suffixes`] buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterSuffix<'a> {
    /// The writer the suffix belongs to.
    pub writer: WriterId,
    /// Sequence number of the first timestamp in `times` (1-based).
    pub start_seq: u64,
    /// Issue timestamps of updates `start_seq..start_seq + times.len()`.
    pub times: &'a [SimTime],
}

/// Per-writer timestamp runs of a wire form, in the order they were
/// pushed, in one buffer: each run is a three-slot header — writer, first
/// sequence number, timestamp count — followed by its timestamps. The
/// headers share the timestamps' 64-bit slot so a run's times stay one
/// borrowable slice; a form carries a handful of runs, so finding one is a
/// short hop from header to header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Suffixes {
    slots: Vec<SimTime>,
}

/// Header slots before each run's timestamps.
const HEADER: usize = 3;

impl Suffixes {
    /// No runs. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Room for `runs` runs holding `times` timestamps in all.
    pub fn with_capacity(runs: usize, times: usize) -> Self {
        Suffixes { slots: Vec::with_capacity(HEADER * runs + times) }
    }

    /// Appends `writer`'s run of `times` starting at update `start_seq`.
    pub fn push(
        &mut self,
        writer: WriterId,
        start_seq: u64,
        times: impl IntoIterator<Item = SimTime>,
    ) {
        let header = self.open_run(writer, start_seq);
        self.slots.extend(times);
        self.close_run(header);
    }

    /// Appends `writer`'s run copied out of `history` from 0-based
    /// position `from` on, a slice at a time.
    pub(crate) fn push_history(&mut self, writer: WriterId, history: History<'_>, from: usize) {
        let header = self.open_run(writer, from as u64 + 1);
        for run in history.runs_from(from) {
            self.slots.extend_from_slice(run);
        }
        self.close_run(header);
    }

    fn open_run(&mut self, writer: WriterId, start_seq: u64) -> usize {
        let header = self.slots.len();
        self.slots.extend([SimTime(u64::from(writer.0)), SimTime(start_seq), SimTime::ZERO]);
        header
    }

    fn close_run(&mut self, header: usize) {
        self.slots[header + 2] = SimTime((self.slots.len() - header - HEADER) as u64);
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no run is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total timestamps over all runs.
    pub fn total_times(&self) -> usize {
        self.slots.len() - HEADER * self.len()
    }

    /// The runs, in push order.
    pub fn iter(&self) -> impl Iterator<Item = WriterSuffix<'_>> + '_ {
        let mut rest = &self.slots[..];
        std::iter::from_fn(move || {
            let (header, after) = rest.split_first_chunk::<HEADER>()?;
            let (times, after) = after.split_at(header[2].0 as usize);
            rest = after;
            let (writer, start_seq) = (WriterId(header[0].0 as u32), header[1].0);
            Some(WriterSuffix { writer, start_seq, times })
        })
    }

    /// `writer`'s first run.
    pub fn get(&self, writer: WriterId) -> Option<WriterSuffix<'_>> {
        self.iter().find(|r| r.writer == writer)
    }
}

/// Compact, self-contained wire form of an extended version vector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VvSummary {
    /// Per-writer update counters (the classic vector).
    pub counters: VersionVector,
    /// Critical-metadata value.
    pub meta: i64,
    /// Timestamp of the newest recorded update (`None` when empty).
    pub latest: Option<SimTime>,
    /// Bounded per-writer timestamp tails (newest updates only), in writer
    /// order.
    pub tail: Suffixes,
}

/// Exact per-writer suffixes beyond a baseline counter vector the receiver
/// advertised.
#[derive(Debug, Clone, PartialEq)]
pub struct VvDelta {
    /// The sender's full per-writer counters.
    pub counters: VersionVector,
    /// The sender's critical-metadata value.
    pub meta: i64,
    /// Timestamp of the sender's newest recorded update.
    pub latest: Option<SimTime>,
    /// Per-writer timestamps beyond the baseline, in writer order.
    pub suffixes: Suffixes,
}

/// Shared wire-size model: meta + latest header, per-writer counter
/// entries, then the carried suffixes (a writer id + start_seq header plus
/// one timestamp per carried update each).
fn form_bytes(counters: &VersionVector, suffixes: &Suffixes) -> usize {
    16 + 12 * counters.writers() + 12 * suffixes.len() + 8 * suffixes.total_times()
}

impl VvSummary {
    /// Approximate serialized size in bytes.
    pub fn wire_bytes(&self) -> usize {
        form_bytes(&self.counters, &self.tail)
    }

    /// The tail's coverage of `writer`: `(first, times)` with `first >= 1`,
    /// meaning the summarised replica recorded `times[i]` for the writer's
    /// update `first + i`. Empty when the tail skips the writer.
    fn coverage(&self, writer: WriterId) -> (u64, &[SimTime]) {
        match self.tail.get(writer) {
            // Sequence numbers are 1-based; a (malformed) zero start
            // covers nothing with its first slot.
            Some(s) if s.start_seq == 0 => (1, s.times.get(1..).unwrap_or(&[])),
            Some(s) => (s.start_seq, s.times),
            None => (1, &[]),
        }
    }

    /// Triple of the summarised replica against `reference` (a full vector)
    /// — the mirror direction of
    /// [`ExtendedVersionVector::triple_against_summary`].
    pub fn triple_against(&self, reference: &ExtendedVersionVector) -> ErrorTriple {
        let (numerical, order) = scalar_errors(reference, self);
        let staleness = match reference.latest_update_time() {
            Some(latest) => latest.saturating_since(reference.last_consistent_with_summary(self)),
            None => SimDuration::ZERO,
        };
        ErrorTriple::new(numerical, order, staleness)
    }
}

impl VvDelta {
    /// Approximate serialized size in bytes.
    pub fn wire_bytes(&self) -> usize {
        form_bytes(&self.counters, &self.suffixes)
    }
}

/// Numerical and order error between a full vector and a summarised one
/// (both are symmetric in direction).
fn scalar_errors(evv: &ExtendedVersionVector, summary: &VvSummary) -> (f64, f64) {
    let numerical = (summary.meta - evv.meta()).abs() as f64;
    let order = evv.counters().missing_from(&summary.counters)
        + summary.counters.missing_from(evv.counters());
    (numerical, order as f64)
}

impl ExtendedVersionVector {
    /// Builds the compact wire summary, carrying at most `tail_len`
    /// timestamps per writer (the newest ones).
    pub fn summary(&self, tail_len: usize) -> VvSummary {
        let mut out = VvSummary::default();
        self.summary_into(tail_len, &mut out);
        out
    }

    /// [`ExtendedVersionVector::summary`] written over `out`, reusing its
    /// buffers.
    pub fn summary_into(&self, tail_len: usize, out: &mut VvSummary) {
        out.counters.clone_from(self.counters());
        out.meta = self.meta();
        out.latest = self.latest_update_time();
        out.tail.slots.clear();
        if tail_len > 0 {
            let times: usize = self.writers().map(|(_, h)| h.len().min(tail_len)).sum();
            out.tail.slots.reserve_exact(HEADER * self.counters().writers() + times);
            for (w, h) in self.writers() {
                out.tail.push_history(w, h, h.len().saturating_sub(tail_len));
            }
        }
    }

    /// The exact per-writer suffixes a peer holding `have` is missing —
    /// Bayou-style anti-entropy for the vector itself.
    ///
    /// Each suffix overlaps the baseline by one **anchor** timestamp (the
    /// newest update the receiver claims to share). Resolution
    /// re-sequencing rewrites a contiguous suffix of a writer's updates, so
    /// if the receiver's copy of any shared update was superseded, its copy
    /// of the anchor was too — shipping the sender's anchor lets
    /// [`ExtendedVersionVector::reconstruct`] carry the authoritative
    /// timestamp and the triple walk detect the divergence, instead of the
    /// receiver silently vouching its stale copy.
    pub fn suffix_since(&self, have: &VersionVector) -> VvDelta {
        // Where each writer's suffix starts, when it has one.
        let start = |w: WriterId, h: &History<'_>| {
            let base = (have.get(w) as usize).min(h.len());
            (base < h.len()).then(|| base.saturating_sub(1))
        };
        let runs = || self.writers().filter_map(|(w, h)| start(w, &h).map(|s| (w, h, s)));
        let times = runs().map(|(_, h, s)| h.len() - s).sum();
        let mut suffixes = Suffixes::with_capacity(runs().count(), times);
        for (w, h, s) in runs() {
            suffixes.push_history(w, h, s);
        }
        VvDelta {
            counters: self.counters().clone(),
            meta: self.meta(),
            latest: self.latest_update_time(),
            suffixes,
        }
    }

    /// Rebuilds the sender's full vector from a delta whose baseline this
    /// vector covers: timestamps below each suffix come from the local
    /// history (identical updates carry identical issue times) — as shared
    /// chunks, not copies — the rest from the delta. Positions the local
    /// history cannot vouch for (it was truncated by a reconciliation after
    /// the baseline was advertised) are filled with [`SimTime::ZERO`],
    /// which makes the later triple computation conservatively treat them
    /// as immediately-divergent.
    pub fn reconstruct(&self, delta: &VvDelta) -> ExtendedVersionVector {
        let mut out = ExtendedVersionVector::new();
        self.reconstruct_into(delta, &mut out);
        out
    }

    /// [`ExtendedVersionVector::reconstruct`] written over `out`, reusing
    /// its buffers: rebuilding into a vector that already held one as large
    /// allocates nothing.
    pub fn reconstruct_into(&self, delta: &VvDelta, out: &mut ExtendedVersionVector) {
        let (histories, meta, counters) = out.parts_mut();
        histories.reset(delta.counters.pairs());
        for (w, c) in delta.counters.iter() {
            let c = c as usize;
            let sfx = delta.suffixes.get(w);
            let end = sfx.map_or(c, |s| (s.start_seq - 1) as usize).min(c);
            histories.push_writer(c, self.history(w), end, sfx.map_or(&[], |s| s.times));
        }
        *meta = delta.meta;
        counters.clone_from(&delta.counters);
    }

    /// The last-consistent point against a summarised replica: the
    /// merge-walk of [`ExtendedVersionVector::last_consistent_with`] with
    /// the remote timestamps drawn from the tail. Remote events in the
    /// common per-writer range but outside the tail are assumed to match
    /// the local copy (same update id ⇒ same issue time); remote events
    /// *beyond* the local count whose timestamp the tail does not cover are
    /// treated as divergent at time zero — staleness saturates rather than
    /// being under-reported. Only positions the tail covers are compared
    /// one by one; the assumed-equal range below it is read per chunk.
    pub(crate) fn last_consistent_with_summary(&self, summary: &VvSummary) -> SimTime {
        // Per writer the summary counts: the local history, the common
        // range `1..=m`, and the tail's coverage `lo..hi` with its times.
        let spans = || {
            summary.counters.iter().map(|(w, cr)| {
                let local = self.history(w);
                let (lo, times) = summary.coverage(w);
                let hi = lo.saturating_add(times.len() as u64);
                (w, cr, local, (local.len() as u64).min(cr), lo, hi, times)
            })
        };
        let mut d: Divergence = None;
        let note = note_divergence;
        for (w, cr, local, m, lo, hi, times) in spans() {
            let remote = |seq: u64| times[(seq - lo) as usize];
            // Timestamp mismatches detectable inside the tail's coverage.
            for seq in lo..hi.min(m + 1) {
                let (t, rt) = (local.get(seq as usize - 1).expect("seq <= len"), remote(seq));
                if rt != t {
                    note(&mut d, t, w, seq);
                    note(&mut d, rt, w, seq);
                }
            }
            // Remote-only suffix: known times from the tail. The unknown
            // ones are all pinned to time zero (conservative), so only the
            // lowest-numbered of them can be the divergence point.
            for seq in lo.max(m + 1)..hi.min(cr.saturating_add(1)) {
                note(&mut d, remote(seq), w, seq);
            }
            let unknown = if (lo..hi).contains(&(m + 1)) { hi } else { m + 1 };
            if unknown <= cr {
                note(&mut d, SimTime::ZERO, w, unknown);
            }
        }
        // Local-only suffixes (writers or updates the summary lacks).
        for (w, h) in self.writers() {
            let cr = summary.counters.get(w) as usize;
            for (s, t) in h.iter_from(cr.min(h.len())) {
                note(&mut d, t, w, s as u64 + 1);
            }
        }
        let Some(d) = d else {
            return self.max_event_time().unwrap_or(SimTime::ZERO);
        };
        let mut last = SimTime::ZERO;
        for (w, _, local, m, lo, hi, times) in spans() {
            local.newest_before(0, (lo - 1).min(m) as usize, w, d, &mut last);
            for seq in lo..hi.min(m + 1) {
                let t = local.get(seq as usize - 1).expect("seq <= len");
                if times[(seq - lo) as usize] == t && (t, UpdateId { writer: w, seq }) < d {
                    last = last.max(t);
                }
            }
            local.newest_before((hi - 1) as usize, m as usize, w, d, &mut last);
        }
        last
    }

    /// Triple of `self` against a summarised replica as the reference —
    /// exact whenever the per-writer divergence fits the summary's tail.
    pub fn triple_against_summary(&self, reference: &VvSummary) -> ErrorTriple {
        let (numerical, order) = scalar_errors(self, reference);
        let staleness = match reference.latest {
            Some(latest) => latest.saturating_since(self.last_consistent_with_summary(reference)),
            None => SimDuration::ZERO,
        };
        ErrorTriple::new(numerical, order, staleness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn evv(updates: &[(u32, u64, i64)]) -> ExtendedVersionVector {
        let mut v = ExtendedVersionVector::new();
        for &(w, at, delta) in updates {
            let writer = WriterId(w);
            let next = v.count(writer) + 1;
            v.record(writer, next, t(at), delta);
        }
        v
    }

    #[test]
    fn summary_preserves_scalars() {
        let a = evv(&[(0, 1, 2), (1, 2, 3), (0, 4, 1)]);
        let s = a.summary(8);
        assert_eq!(&s.counters, a.counters());
        assert_eq!(s.meta, a.meta());
        assert_eq!(s.latest, a.latest_update_time());
        assert_eq!(s.tail.len(), 2);
    }

    #[test]
    fn summary_tail_is_bounded() {
        let mut a = ExtendedVersionVector::new();
        for s in 1..=20 {
            a.record(WriterId(0), s, t(s), 1);
        }
        let s = a.summary(4);
        assert_eq!(s.tail.len(), 1);
        let w0 = s.tail.get(WriterId(0)).expect("writer 0's tail");
        assert_eq!(w0.start_seq, 17);
        assert_eq!(w0.times, [t(17), t(18), t(19), t(20)]);
        assert!(s.wire_bytes() < a.summary(100).wire_bytes());
    }

    #[test]
    fn covering_summary_triple_is_exact() {
        let a = evv(&[(0, 1, 2), (0, 2, 1), (1, 3, 5)]);
        let b = evv(&[(0, 1, 2), (1, 2, 4)]);
        let s = b.summary(16);
        assert_eq!(a.triple_against_summary(&s), a.triple_against(&b));
        assert_eq!(s.triple_against(&a), b.triple_against(&a));
    }

    #[test]
    fn truncated_tail_saturates_staleness() {
        // Remote is 20 updates ahead with a 2-entry tail: the unknown
        // events pin the divergence point to time zero, so staleness spans
        // the whole reference history rather than being under-reported.
        let mut remote = ExtendedVersionVector::new();
        for s in 1..=20 {
            remote.record(WriterId(0), s, t(s), 1);
        }
        let local = evv(&[(0, 1, 1)]);
        let exact = local.triple_against(&remote);
        let compact = local.triple_against_summary(&remote.summary(2));
        assert_eq!(compact.numerical, exact.numerical);
        assert_eq!(compact.order, exact.order);
        assert!(compact.staleness >= exact.staleness);
    }

    #[test]
    fn suffix_since_ships_only_the_gap_plus_anchor() {
        let b = evv(&[(0, 1, 1), (0, 2, 1), (1, 3, 2), (0, 4, 1)]);
        let have = VersionVector::from_pairs([(WriterId(0), 2)]);
        let d = b.suffix_since(&have);
        assert_eq!(d.suffixes.len(), 2);
        // Writer 0: the missing seq 3 plus the seq-2 anchor the receiver
        // claims to share.
        let w0 = d.suffixes.get(WriterId(0)).expect("writer 0's suffix");
        assert_eq!((w0.writer, w0.start_seq), (WriterId(0), 2));
        assert_eq!(w0.times, [t(2), t(4)]);
        let w1 = d.suffixes.get(WriterId(1)).expect("writer 1's suffix");
        assert_eq!((w1.writer, w1.start_seq), (WriterId(1), 1));
        assert!(d.wire_bytes() < b.summary(100).wire_bytes());
    }

    #[test]
    fn anchor_exposes_re_sequenced_baseline_updates() {
        // Both replicas share (w0, seq 1). The receiver `a` still holds an
        // invalidated copy of (w0, seq 2) issued at t=2; after a
        // resolution, the writer re-issued seq 2 at t=9 and appended seq 3
        // — the sender `b` holds the re-issued versions. The old
        // full-vector wire detected the timestamp mismatch at seq 2; the
        // anchor keeps that detection: the reconstructed vector carries the
        // sender's authoritative t=9, so the triple walk sees the
        // divergence at seq 2 instead of vouching a's stale copy.
        let a = evv(&[(0, 1, 1), (0, 2, 2)]);
        let mut b = evv(&[(0, 1, 1)]);
        b.record(WriterId(0), 2, t(9), 1);
        b.record(WriterId(0), 3, t(10), 1);

        let delta = b.suffix_since(a.counters());
        let rebuilt = a.reconstruct(&delta);
        assert_eq!(rebuilt, b, "anchor must carry the sender's re-issued timestamp");
        assert_eq!(
            a.last_consistent_with(&rebuilt),
            t(1),
            "divergence must anchor at the shared prefix, not the stale copy"
        );
    }

    #[test]
    fn reconstruct_is_lossless_over_a_shared_baseline() {
        let base = evv(&[(0, 1, 1), (1, 2, 2)]);
        let mut b = base.clone();
        b.record(WriterId(0), 2, t(5), 3);
        b.record(WriterId(2), 1, t(6), 1);
        let d = b.suffix_since(base.counters());
        assert_eq!(base.reconstruct(&d), b);
    }

    #[test]
    fn reconstruct_drops_unsanctioned_local_extras() {
        // The sender's counters are authoritative: local updates beyond
        // them disappear, mirroring `adopt`.
        let b = evv(&[(0, 1, 1)]);
        let a = evv(&[(0, 1, 1), (0, 2, 2), (1, 3, 3)]);
        let d = b.suffix_since(a.counters());
        let rebuilt = a.reconstruct(&d);
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn malformed_delta_still_produces_consistent_counters() {
        let a = evv(&[(0, 1, 1)]);
        let delta = VvDelta {
            counters: VersionVector::from_pairs([(WriterId(0), 3)]),
            meta: 9,
            latest: Some(t(9)),
            suffixes: Suffixes::new(), // claims 3 updates, ships no timestamps
        };
        let rebuilt = a.reconstruct(&delta);
        assert_eq!(rebuilt.count(WriterId(0)), 3);
        assert_eq!(rebuilt.meta(), 9);
    }

    /// A divergent pair drawn from global per-writer update streams: every
    /// `(writer, seq)` has one fixed issue timestamp (as real updates do),
    /// and each replica has applied an arbitrary per-writer prefix of each
    /// stream — the general shape of divergence under IDEA's per-writer
    /// FIFO application.
    fn arb_divergent_pair() -> impl Strategy<Value = (ExtendedVersionVector, ExtendedVersionVector)>
    {
        let streams =
            prop::collection::vec(prop::collection::vec((0u64..50, -5i64..5), 0..12), 4..5);
        let take_a = prop::collection::vec(0usize..13, 4..5);
        let take_b = prop::collection::vec(0usize..13, 4..5);
        (streams, take_a, take_b).prop_map(|(streams, take_a, take_b)| {
            let mut a = ExtendedVersionVector::new();
            let mut b = ExtendedVersionVector::new();
            for (w, stream) in streams.iter().enumerate() {
                let writer = WriterId(w as u32);
                for (i, &(at, delta)) in stream.iter().enumerate() {
                    if i < take_a[w] {
                        a.record(writer, i as u64 + 1, t(at), delta);
                    }
                    if i < take_b[w] {
                        b.record(writer, i as u64 + 1, t(at), delta);
                    }
                }
            }
            (a, b)
        })
    }

    /// Fully independent histories — same-id updates may carry *different*
    /// timestamps (the post-invalidation re-sequencing corner).
    fn arb_evv() -> impl Strategy<Value = ExtendedVersionVector> {
        prop::collection::vec((0u32..4, 0u64..50, -5i64..5), 0..24).prop_map(|ops| {
            let mut v = ExtendedVersionVector::new();
            for (w, at, delta) in ops {
                let writer = WriterId(w);
                v.record(writer, v.count(writer) + 1, t(at), delta);
            }
            v
        })
    }

    proptest! {
        /// Reconstructing a peer from its delta over our own baseline is
        /// lossless when both grew from a shared prefix.
        #[test]
        fn reconstruct_round_trips((a, b) in arb_divergent_pair()) {
            let delta = b.suffix_since(a.counters());
            let rebuilt = a.reconstruct(&delta);
            prop_assert_eq!(&rebuilt, &b);
            prop_assert!(rebuilt.triple_against(&b).is_zero());
        }

        /// With a tail long enough to cover every writer's history the
        /// summary triple is bit-identical to the full computation.
        #[test]
        fn covering_summary_matches_full_triple((a, b) in arb_divergent_pair()) {
            let s = b.summary(64);
            prop_assert_eq!(a.triple_against_summary(&s), a.triple_against(&b));
            prop_assert_eq!(s.triple_against(&a), b.triple_against(&a));
        }

        /// The covering-tail equivalence holds even when same-id updates
        /// carry mismatched timestamps (re-sequencing divergence): the tail
        /// exposes the remote timestamps, so the mismatch is detected at
        /// the same point the full walk detects it.
        #[test]
        fn covering_summary_exact_under_mismatches(a in arb_evv(), b in arb_evv()) {
            let s = b.summary(64);
            prop_assert_eq!(a.triple_against_summary(&s), a.triple_against(&b));
            prop_assert_eq!(s.triple_against(&a), b.triple_against(&a));
        }

        /// A bounded tail never *under*-reports: numerical and order errors
        /// stay exact, staleness can only saturate upwards.
        #[test]
        fn bounded_tail_is_conservative((a, b) in arb_divergent_pair(), tail in 0usize..4) {
            let s = b.summary(tail);
            let exact = a.triple_against(&b);
            let compact = a.triple_against_summary(&s);
            prop_assert_eq!(compact.numerical, exact.numerical);
            prop_assert_eq!(compact.order, exact.order);
            prop_assert!(compact.staleness >= exact.staleness);
        }
    }
}
