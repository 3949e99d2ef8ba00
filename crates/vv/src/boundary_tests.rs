//! Equivalence of the chunked representation with flat per-writer
//! histories, exercised where it can go wrong: lengths of `CHUNK − 1`,
//! `CHUNK`, `CHUNK + 1` and their doubles, vectors cloned and then
//! diverged, cuts across a chunk, vectors equal by content but sharing no
//! chunk, and non-monotone per-writer times. The references below are the
//! pre-chunking algorithms, kept here only to be compared against.

use crate::history::CHUNK;
use crate::{ExtendedVersionVector, VersionVector, VvSummary};
use idea_types::{SimTime, UpdateId, WriterId};
use proptest::prelude::*;

const LENS: [usize; 6] = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1];

fn flat(v: &ExtendedVersionVector, w: WriterId) -> Vec<SimTime> {
    v.raw_histories().get(&w).map(|h| h.copy_from(0)).unwrap_or_default()
}

/// The same events recorded into a fresh vector: equal by content, no
/// chunk shared with `v`.
fn rebuilt(v: &ExtendedVersionVector) -> ExtendedVersionVector {
    let mut out = ExtendedVersionVector::new();
    for w in v.raw_histories().keys() {
        for (i, t) in flat(v, *w).into_iter().enumerate() {
            out.record(*w, i as u64 + 1, t, 1);
        }
    }
    out
}

/// A two-writer base whose histories end right around chunk boundaries.
/// `spike > 0` lifts a few entries far above their neighbours so the
/// per-writer times are not monotone.
fn base(len0: usize, len1: usize, spike: u64) -> ExtendedVersionVector {
    let mut v = ExtendedVersionVector::new();
    for (w, len) in [(0u32, len0), (1, len1)] {
        for i in 0..len as u64 {
            let lift = if i % (CHUNK as u64 / 2 + 7) == 3 { 5_000 * spike } else { 0 };
            v.record(WriterId(w), i + 1, SimTime(10 * i + u64::from(w) + lift), 1);
        }
    }
    v
}

/// Cuts `w` back to `keep` updates through the public truncation.
fn cut(v: &mut ExtendedVersionVector, w: WriterId, keep: u64) {
    let dropped = v.count(w).saturating_sub(keep);
    let mut counts = v.counters().clone();
    counts.set(w, keep.min(v.count(w)));
    v.truncate_to(&counts, dropped as i64);
}

/// Grows and cuts `v`: appends (with jittered, possibly out-of-order
/// times), short cuts, cuts to just around a chunk boundary, and deep
/// re-issues (cut anywhere, then regrow to the old length under shifted
/// times, so whole frozen chunks lie past the divergence).
fn diverge(v: &mut ExtendedVersionVector, ops: &[(u8, u64)]) {
    for &(kind, x) in ops {
        let w = WriterId((x % 2) as u32);
        let have = v.count(w);
        match kind {
            0 | 1 => v.record(w, have + 1, SimTime(10 * have + x), 1),
            2 => cut(v, w, have.saturating_sub(x / 2 % 4)),
            3 => cut(v, w, (have / CHUNK as u64 * CHUNK as u64 + 1).saturating_sub(x / 2 % 3)),
            _ => {
                cut(v, w, have * x / 40);
                for seq in v.count(w) + 1..=have {
                    v.record(w, seq, SimTime(10 * seq + x % 7), 1);
                }
            }
        }
    }
    assert_eq!(v.meta(), v.total() as i64, "meta by subtraction tracks the survivors");
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..5, 0u64..40), 0..12)
}

/// Two vectors grown from one base — `b` optionally rebuilt so it shares
/// nothing with `a` by pointer.
fn arb_deep_pair() -> impl Strategy<Value = (ExtendedVersionVector, ExtendedVersionVector)> {
    (0usize..6, 0usize..6, 0u64..3, arb_ops(), arb_ops(), prop::bool::ANY).prop_map(
        |(l0, l1, spike, ops_a, ops_b, unshare)| {
            let root = base(LENS[l0], LENS[l1], spike);
            let (mut a, mut b) = (root.clone(), root);
            diverge(&mut a, &ops_a);
            diverge(&mut b, &ops_b);
            if unshare {
                b = rebuilt(&b);
            }
            (a, b)
        },
    )
}

/// Sorted event lists, longest common prefix (the original definition).
fn sorted_list_reference(a: &ExtendedVersionVector, b: &ExtendedVersionVector) -> SimTime {
    let mut last = SimTime::ZERO;
    for (x, y) in a.events().iter().zip(b.events().iter()) {
        if x != y {
            break;
        }
        last = x.0;
    }
    last
}

/// The positional summary walk this crate shipped before chunking: every
/// local position looked up in the tail.
fn positional_summary_reference(v: &ExtendedVersionVector, summary: &VvSummary) -> SimTime {
    let time_of = |w: WriterId, seq: u64| -> Option<SimTime> {
        let s = summary.tail.iter().find(|s| s.writer == w)?;
        if seq < s.start_seq {
            return None;
        }
        s.times.get((seq - s.start_seq) as usize).copied()
    };
    let mut d: Option<(SimTime, UpdateId)> = None;
    let mut note = |t: SimTime, writer: WriterId, seq: u64| {
        let e = (t, UpdateId { writer, seq });
        if d.is_none_or(|cur| e < cur) {
            d = Some(e);
        }
    };
    for (w, cr) in summary.counters.iter() {
        let local = flat(v, w);
        let m = local.len().min(cr as usize);
        for (s, t) in local.iter().enumerate().take(m) {
            if let Some(rt) = time_of(w, s as u64 + 1) {
                if rt != *t {
                    note(*t, w, s as u64 + 1);
                    note(rt, w, s as u64 + 1);
                }
            }
        }
        for seq in (m as u64 + 1)..=cr {
            note(time_of(w, seq).unwrap_or(SimTime::ZERO), w, seq);
        }
    }
    for w in v.raw_histories().keys() {
        let local = flat(v, *w);
        let cr = summary.counters.get(*w) as usize;
        for (s, t) in local.iter().enumerate().skip(cr.min(local.len())) {
            note(*t, *w, s as u64 + 1);
        }
    }
    let Some(d) = d else {
        return v.events().iter().map(|e| e.0).max().unwrap_or(SimTime::ZERO);
    };
    let mut last = SimTime::ZERO;
    for (w, cr) in summary.counters.iter() {
        let local = flat(v, w);
        let m = local.len().min(cr as usize);
        for (s, t) in local.iter().enumerate().take(m) {
            let agreed = time_of(w, s as u64 + 1).is_none_or(|rt| rt == *t);
            if agreed && (*t, UpdateId { writer: w, seq: s as u64 + 1 }) < d {
                last = last.max(*t);
            }
        }
    }
    last
}

#[test]
fn clone_shares_every_frozen_chunk() {
    let v = base(3 * CHUNK + 5, CHUNK - 1, 0);
    let c = v.clone();
    for (w, h) in v.raw_histories() {
        assert_eq!(h.shared_chunks(&c.raw_histories()[w]), h.frozen_chunks());
    }
    assert_eq!(v.raw_histories()[&WriterId(0)].frozen_chunks(), 3);
}

#[test]
fn reconstruct_and_apply_delta_share_all_chunks_below_the_suffix() {
    let mine = base(3 * CHUNK + 5, 2 * CHUNK + 9, 0);
    // The peer is 40 updates behind on w0 (so its suffix anchors inside
    // the third chunk) and 3 ahead on w1.
    let mut peer = mine.clone();
    cut(&mut peer, WriterId(0), 3 * CHUNK as u64 - 35);
    for s in 1..=3 {
        peer.record(WriterId(1), 2 * CHUNK as u64 + 9 + s, SimTime(90_000 + s), 1);
    }
    let peer = rebuilt(&peer);
    let delta = peer.suffix_since(mine.counters());
    let theirs = mine.reconstruct(&delta);
    assert_eq!(theirs, peer);
    let shared = |w: u32| {
        theirs.raw_histories()[&WriterId(w)].shared_chunks(&mine.raw_histories()[&WriterId(w)])
    };
    assert_eq!(shared(0), 2, "w0: both whole chunks below the cut come from the baseline");
    assert_eq!(shared(1), 2, "w1: the suffix (anchor included) starts in the baseline's tail");
}

#[test]
fn truncate_to_zero_leaves_no_writer_entry() {
    let mut v = base(CHUNK + 1, 4, 0);
    v.truncate_to(&VersionVector::from_pairs([(WriterId(0), 2)]), CHUNK as i64 - 1 + 4);
    let mut want = ExtendedVersionVector::new();
    want.record(WriterId(0), 1, SimTime(0), 1);
    want.record(WriterId(0), 2, SimTime(10), 1);
    assert_eq!(v, want, "structural equality: no empty history, no zero counter");
    assert_eq!(v.counters().writers(), 1);
}

proptest! {
    #[test]
    fn walk_matches_sorted_lists_at_chunk_boundaries((a, b) in arb_deep_pair()) {
        prop_assert_eq!(a.last_consistent_with(&b), sorted_list_reference(&a, &b));
        prop_assert_eq!(b.last_consistent_with(&a), sorted_list_reference(&b, &a));
        prop_assert_eq!(a.last_consistent_with(&a), sorted_list_reference(&a, &a));
        // Sharing is invisible: the same comparison against an unshared
        // copy gives the same triple.
        prop_assert_eq!(a.triple_against(&b), a.triple_against(&rebuilt(&b)));
        prop_assert_eq!(a.triple_against(&b), rebuilt(&a).triple_against(&b));
    }

    #[test]
    fn summary_walk_matches_the_positional_walk(
        (a, b) in arb_deep_pair(),
        tail in 0usize..4,
    ) {
        let tail = [0, 1, 8, CHUNK + 3][tail];
        let s = b.summary(tail);
        prop_assert_eq!(
            a.last_consistent_with_summary(&s),
            positional_summary_reference(&a, &s)
        );
        let s = a.summary(tail);
        prop_assert_eq!(
            b.last_consistent_with_summary(&s),
            positional_summary_reference(&b, &s)
        );
    }

    #[test]
    fn truncated_vectors_equal_their_rebuild((a, b) in arb_deep_pair()) {
        // `diverge` cut both through `truncate_to`; a fresh recording of the
        // survivors must be structurally identical (canonical chunks, no
        // empty writers, same counters).
        prop_assert_eq!(&rebuilt(&a), &a);
        prop_assert_eq!(&rebuilt(&b), &b);
    }

    #[test]
    fn reconstruct_round_trips_across_chunks((a, b) in arb_deep_pair()) {
        // Per-writer times here are a function of (writer, seq) only up to
        // jitter, so restrict to the lossless case: b's own delta over b's
        // own earlier state.
        let mut earlier = b.clone();
        cut(&mut earlier, WriterId(0), b.count(WriterId(0)).saturating_sub(CHUNK as u64 + 2));
        cut(&mut earlier, WriterId(1), b.count(WriterId(1)).saturating_sub(1));
        let delta = b.suffix_since(earlier.counters());
        prop_assert_eq!(&earlier.reconstruct(&delta), &b);
        // And adopting an unrelated vector converges onto it exactly.
        let mut c = a.clone();
        c.adopt(&b);
        prop_assert_eq!(&c, &b);
    }
}
