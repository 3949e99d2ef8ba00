//! Classic version vectors (Parker et al., IEEE TSE 1983).
//!
//! A version vector "tracks the number of times a file is updated by a
//! certain user and uses that to detect conflict" (§4.3). Two replicas are
//! inconsistent iff their vectors differ; two vectors are *comparable* iff
//! one dominates the other, e.g. `(A:5, B:3)` is not comparable with
//! `(A:3, B:6)` (§4.5.1).
//!
//! ## Representation
//!
//! An object has few writers (4 to 16 in every experiment here), and its
//! vector rides on every gossip body, probe summary and WAL record, so it is
//! one flat `Vec` of `(writer, count)` pairs, sorted by writer with zero
//! counts elided. A lookup is a binary search; every two-vector operation
//! ([`VersionVector::compare`], [`VersionVector::merge_with`],
//! [`VersionVector::missing_from`], [`VersionVector::diff_from`]) is one
//! lock-step walk over both runs. The price is paid when a writer first
//! appears in a vector: an O(W) insert (or, for a merge, one exactly sized
//! reallocation), once per writer per vector. [`VersionVector::new`]
//! allocates nothing.

use idea_types::WriterId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Outcome of comparing two version vectors under the domination order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VvOrdering {
    /// Identical counters: the replicas are consistent.
    Equal,
    /// `self` is dominated: every counter ≤ the other's, at least one <.
    Less,
    /// `self` dominates: every counter ≥ the other's, at least one >.
    Greater,
    /// Neither dominates: the replicas conflict ("not comparable").
    Concurrent,
}

/// A classic version vector: one update counter per writer.
///
/// Writers absent from the vector implicitly have counter 0, so vectors over
/// different writer sets compare correctly.
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VersionVector {
    /// `(writer, count)` pairs, strictly ascending by writer, no zero count.
    counters: Vec<(WriterId, u64)>,
}

/// Two sorted counter runs walked in lock-step: every writer either run
/// lists, in writer order, with both counts (zero where a run lacks it).
struct Zip<'a> {
    a: &'a [(WriterId, u64)],
    b: &'a [(WriterId, u64)],
}

impl Iterator for Zip<'_> {
    type Item = (WriterId, u64, u64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        // Which run holds the next writer: `Less` = only `a`, `Greater` =
        // only `b`, `Equal` = both.
        let next = match (self.a.first(), self.b.first()) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((wa, _)), Some((wb, _))) => wa.cmp(wb),
        };
        let (mut writer, mut ca, mut cb) = (WriterId(0), 0, 0);
        if next != Ordering::Greater {
            (writer, ca) = self.a[0];
            self.a = &self.a[1..];
        }
        if next != Ordering::Less {
            (writer, cb) = self.b[0];
            self.b = &self.b[1..];
        }
        Some((writer, ca, cb))
    }
}

fn zip<'a>(a: &'a [(WriterId, u64)], b: &'a [(WriterId, u64)]) -> Zip<'a> {
    Zip { a, b }
}

impl VersionVector {
    /// The empty vector (all counters zero). Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from `(writer, count)` pairs; zero counts are elided.
    /// When a writer is listed more than once, its last non-zero count wins.
    /// Input already sorted by writer without repeats (what every encoder
    /// emits) is taken over in one pass, reusing a `Vec`'s buffer.
    pub fn from_pairs<I: IntoIterator<Item = (WriterId, u64)>>(pairs: I) -> Self {
        let mut counters: Vec<(WriterId, u64)> =
            pairs.into_iter().filter(|&(_, c)| c > 0).collect();
        if !counters.windows(2).all(|p| p[0].0 < p[1].0) {
            // The sort is stable, so each writer's run keeps input order and
            // the fold leaves the run's last count.
            counters.sort_by_key(|&(w, _)| w);
            counters.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 = later.1;
                }
                same
            });
        }
        VersionVector { counters }
    }

    /// Index of `writer`'s entry, or where it would be inserted.
    #[inline]
    fn position(&self, writer: WriterId) -> Result<usize, usize> {
        self.counters.binary_search_by_key(&writer, |&(w, _)| w)
    }

    /// The counter for `writer` (zero if absent).
    #[inline]
    pub fn get(&self, writer: WriterId) -> u64 {
        self.position(writer).map_or(0, |i| self.counters[i].1)
    }

    /// Sets `writer`'s counter to `max(current, seq)` — used when observing a
    /// writer's `seq`-th update out of order.
    pub fn observe(&mut self, writer: WriterId, seq: u64) {
        if seq == 0 {
            return;
        }
        match self.position(writer) {
            Ok(i) => {
                let count = &mut self.counters[i].1;
                *count = (*count).max(seq);
            }
            Err(i) => self.counters.insert(i, (writer, seq)),
        }
    }

    /// Sets `writer`'s counter to exactly `count` (zero removes the entry,
    /// keeping the vector zero-elided) — the in-place form of a one-entry
    /// [`VersionVector::with_overrides`].
    pub(crate) fn set(&mut self, writer: WriterId, count: u64) {
        match (self.position(writer), count) {
            (Ok(i), 0) => {
                self.counters.remove(i);
            }
            (Ok(i), _) => self.counters[i].1 = count,
            (Err(_), 0) => {}
            (Err(i), _) => self.counters.insert(i, (writer, count)),
        }
    }

    /// Total updates across all writers.
    pub fn total(&self) -> u64 {
        self.counters.iter().map(|&(_, c)| c).sum()
    }

    /// Number of writers with a non-zero counter.
    pub fn writers(&self) -> usize {
        self.counters.len()
    }

    /// Iterates `(writer, count)` pairs in writer order.
    pub fn iter(&self) -> impl Iterator<Item = (WriterId, u64)> + Clone + '_ {
        self.counters.iter().copied()
    }

    /// Compares under the domination partial order.
    pub fn compare(&self, other: &VersionVector) -> VvOrdering {
        let mut less = false;
        let mut greater = false;
        for (_, a, b) in zip(&self.counters, &other.counters) {
            less |= a < b;
            greater |= a > b;
            if less && greater {
                break;
            }
        }
        match (less, greater) {
            (false, false) => VvOrdering::Equal,
            (true, false) => VvOrdering::Less,
            (false, true) => VvOrdering::Greater,
            (true, true) => VvOrdering::Concurrent,
        }
    }

    /// Component-wise maximum (the join of the domination lattice).
    pub(crate) fn merge(&mut self, other: &VersionVector) {
        self.merge_with(other, |_, _, _| {});
    }

    /// `VersionVector::merge` that reports every counter it raises:
    /// `on_advance(writer, old, new)` runs once per writer whose count in
    /// `other` exceeds ours, in writer order. One lock-step walk over the
    /// two sorted runs, in place while every writer of `other` is already
    /// ours; the first writer we lack switches to building the joined
    /// vector in one exactly sized allocation.
    pub fn merge_with(
        &mut self,
        other: &VersionVector,
        mut on_advance: impl FnMut(WriterId, u64, u64),
    ) {
        let mine = &mut self.counters;
        let mut i = 0;
        for (j, &(writer, theirs)) in other.counters.iter().enumerate() {
            while i < mine.len() && mine[i].0 < writer {
                i += 1;
            }
            match mine.get_mut(i) {
                Some((w, count)) if *w == writer => {
                    if theirs > *count {
                        on_advance(writer, *count, theirs);
                        *count = theirs;
                    }
                    i += 1;
                }
                _ => {
                    let (done, tail) = mine.split_at(i);
                    let rest = &other.counters[j..];
                    let mut joined = Vec::with_capacity(done.len() + zip(tail, rest).count());
                    joined.extend_from_slice(done);
                    for (w, ours, theirs) in zip(tail, rest) {
                        if theirs > ours {
                            on_advance(w, ours, theirs);
                        }
                        joined.push((w, ours.max(theirs)));
                    }
                    *mine = joined;
                    return;
                }
            }
        }
    }

    /// Returns the merged copy without mutating `self`.
    pub fn merged(&self, other: &VersionVector) -> VersionVector {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Updates `other` has that `self` misses: `Σ max(0, other_w − self_w)`.
    pub fn missing_from(&self, other: &VersionVector) -> u64 {
        zip(&self.counters, &other.counters)
            .map(|(_, mine, theirs)| theirs.saturating_sub(mine))
            .sum()
    }

    /// The per-writer overrides that turn `base` into `self`: one
    /// `(writer, count)` entry per writer whose counter differs, drawn from
    /// `self` (explicit zeros where `base` holds a writer `self` lacks —
    /// the invalidated-writer case), in writer order.
    /// `base.with_overrides(diff)` round-trips back to `self`.
    pub fn diff_from(&self, base: &VersionVector) -> Vec<(WriterId, u64)> {
        zip(&self.counters, &base.counters)
            .filter(|&(_, mine, theirs)| mine != theirs)
            .map(|(w, mine, _)| (w, mine))
            .collect()
    }

    /// Applies per-writer overrides on top of `self`: listed writers take
    /// the override value verbatim (zero removes the entry, keeping the
    /// vector zero-elided), unlisted writers keep their counter. The
    /// reconstruction dual of [`VersionVector::diff_from`].
    pub fn with_overrides(&self, overrides: &[(WriterId, u64)]) -> VersionVector {
        let mut out = self.clone();
        for &(w, c) in overrides {
            out.set(w, c);
        }
        out
    }
}

impl fmt::Display for VersionVector {
    /// Paper-style rendering: `(w0:3 w1:5)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (w, c)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w}:{c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for VersionVector {
    /// `VersionVector { counters: {WriterId(0): 3, WriterId(1): 5} }` — the
    /// writer → count map shape, whatever the storage.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Counters<'a>(&'a [(WriterId, u64)]);
        impl fmt::Debug for Counters<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter().map(|(w, c)| (w, c))).finish()
            }
        }
        f.debug_struct("VersionVector").field("counters", &Counters(&self.counters)).finish()
    }
}

impl FromIterator<(WriterId, u64)> for VersionVector {
    fn from_iter<I: IntoIterator<Item = (WriterId, u64)>>(iter: I) -> Self {
        VersionVector::from_pairs(iter)
    }
}

#[cfg(test)]
mod reference {
    //! The map-backed vector the flat one replaced, as it was (minus docs
    //! and what the proptests below do not call): the equivalence
    //! reference.

    use super::VvOrdering;
    use idea_types::WriterId;
    use std::collections::BTreeMap;
    use std::fmt;

    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct VersionVector {
        counters: BTreeMap<WriterId, u64>,
    }

    impl VersionVector {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn from_pairs<I: IntoIterator<Item = (WriterId, u64)>>(pairs: I) -> Self {
            let mut vv = VersionVector::new();
            for (w, c) in pairs {
                if c > 0 {
                    vv.counters.insert(w, c);
                }
            }
            vv
        }

        pub fn get(&self, writer: WriterId) -> u64 {
            self.counters.get(&writer).copied().unwrap_or(0)
        }

        pub fn increment(&mut self, writer: WriterId) -> u64 {
            let c = self.counters.entry(writer).or_insert(0);
            *c += 1;
            *c
        }

        pub fn observe(&mut self, writer: WriterId, seq: u64) {
            if seq == 0 {
                return;
            }
            let c = self.counters.entry(writer).or_insert(0);
            *c = (*c).max(seq);
        }

        pub fn set(&mut self, writer: WriterId, count: u64) {
            if count == 0 {
                self.counters.remove(&writer);
            } else {
                self.counters.insert(writer, count);
            }
        }

        pub fn total(&self) -> u64 {
            self.counters.values().sum()
        }

        pub fn writers(&self) -> usize {
            self.counters.len()
        }

        pub fn iter(&self) -> impl Iterator<Item = (WriterId, u64)> + '_ {
            self.counters.iter().map(|(w, c)| (*w, *c))
        }

        pub fn compare(&self, other: &VersionVector) -> VvOrdering {
            let mut less = false;
            let mut greater = false;
            let mut keys: Vec<WriterId> = self.counters.keys().copied().collect();
            for k in other.counters.keys() {
                if !self.counters.contains_key(k) {
                    keys.push(*k);
                }
            }
            for k in keys {
                let a = self.get(k);
                let b = other.get(k);
                if a < b {
                    less = true;
                } else if a > b {
                    greater = true;
                }
            }
            match (less, greater) {
                (false, false) => VvOrdering::Equal,
                (true, false) => VvOrdering::Less,
                (false, true) => VvOrdering::Greater,
                (true, true) => VvOrdering::Concurrent,
            }
        }

        pub fn merge_with(
            &mut self,
            other: &VersionVector,
            mut on_advance: impl FnMut(WriterId, u64, u64),
        ) {
            let mut absent = Vec::new();
            let mut mine = self.counters.iter_mut().peekable();
            for (&writer, &theirs) in &other.counters {
                while mine.next_if(|(w, _)| **w < writer).is_some() {}
                let have = mine.next_if(|(w, _)| **w == writer).map(|(_, count)| count);
                let old = have.as_deref().copied().unwrap_or(0);
                if theirs > old {
                    on_advance(writer, old, theirs);
                    match have {
                        Some(count) => *count = theirs,
                        None => absent.push((writer, theirs)),
                    }
                }
            }
            self.counters.extend(absent);
        }

        pub fn missing_from(&self, other: &VersionVector) -> u64 {
            let mut sum = 0;
            for (w, c) in &other.counters {
                sum += c.saturating_sub(self.get(*w));
            }
            sum
        }

        pub fn diff_from(&self, base: &VersionVector) -> Vec<(WriterId, u64)> {
            let mut diffs = Vec::new();
            for (w, c) in &self.counters {
                if base.get(*w) != *c {
                    diffs.push((*w, *c));
                }
            }
            for w in base.counters.keys() {
                if self.get(*w) == 0 {
                    diffs.push((*w, 0));
                }
            }
            diffs.sort_unstable_by_key(|&(w, _)| w);
            diffs
        }

        pub fn with_overrides(&self, overrides: &[(WriterId, u64)]) -> VersionVector {
            let mut out = self.clone();
            for &(w, c) in overrides {
                out.set(w, c);
            }
            out
        }
    }

    impl fmt::Display for VersionVector {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "(")?;
            for (i, (w, c)) in self.counters.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{w}:{c}")?;
            }
            write!(f, ")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vv(pairs: &[(u32, u64)]) -> VersionVector {
        VersionVector::from_pairs(pairs.iter().map(|&(w, c)| (WriterId(w), c)))
    }

    #[test]
    fn empty_vectors_are_equal() {
        assert_eq!(VersionVector::new().compare(&VersionVector::new()), VvOrdering::Equal);
    }

    #[test]
    fn paper_example_is_concurrent() {
        // (A:5, B:3) is not comparable with (A:3, B:6) — §4.5.1.
        let a = vv(&[(0, 5), (1, 3)]);
        let b = vv(&[(0, 3), (1, 6)]);
        assert_eq!(a.compare(&b), VvOrdering::Concurrent);
    }

    #[test]
    fn domination_orders() {
        // (A:3 B:5) is earlier than (A:4 B:7) — §4.3 example.
        let older = vv(&[(0, 3), (1, 5)]);
        let newer = vv(&[(0, 4), (1, 7)]);
        assert_eq!(older.compare(&newer), VvOrdering::Less);
        assert_eq!(newer.compare(&older), VvOrdering::Greater);
    }

    #[test]
    fn absent_writers_count_as_zero() {
        let a = vv(&[(0, 1)]);
        let b = vv(&[(1, 1)]);
        assert_eq!(a.compare(&b), VvOrdering::Concurrent);
        let c = vv(&[]);
        assert_eq!(c.compare(&a), VvOrdering::Less);
    }

    #[test]
    fn increment_and_observe() {
        let mut v = VersionVector::new();
        v.observe(WriterId(0), 2);
        v.observe(WriterId(1), 5);
        assert_eq!(v.get(WriterId(1)), 5);
        v.observe(WriterId(1), 3); // observing an older seq is a no-op
        assert_eq!(v.get(WriterId(1)), 5);
        v.observe(WriterId(2), 0); // zero is elided
        assert_eq!(v.get(WriterId(2)), 0);
        assert_eq!(v.total(), 7);
        assert_eq!(v.writers(), 2);
    }

    #[test]
    fn merge_takes_component_max() {
        let mut a = vv(&[(0, 5), (1, 3)]);
        let b = vv(&[(0, 3), (1, 6), (2, 1)]);
        a.merge(&b);
        assert_eq!(a, vv(&[(0, 5), (1, 6), (2, 1)]));
    }

    #[test]
    fn merge_with_reports_each_raised_counter_in_writer_order() {
        let mut a = vv(&[(1, 3), (3, 2), (5, 9)]);
        let b = vv(&[(0, 4), (1, 3), (3, 6), (5, 1), (7, 2)]);
        let mut seen = Vec::new();
        a.merge_with(&b, |w, old, new| seen.push((w.0, old, new)));
        assert_eq!(seen, vec![(0, 0, 4), (3, 2, 6), (7, 0, 2)]);
        assert_eq!(a, vv(&[(0, 4), (1, 3), (3, 6), (5, 9), (7, 2)]));
    }

    /// A merge that adds no writer edits the counters where they are; one
    /// that adds writers allocates once, exactly sized.
    #[test]
    fn merge_reallocates_only_when_a_writer_joins() {
        let mut a = vv(&[(0, 1), (2, 1), (4, 1)]);
        let before = a.counters.as_ptr();
        a.merge(&vv(&[(0, 3), (4, 2)]));
        assert_eq!(a.counters.as_ptr(), before, "no writer joined: edited in place");
        a.merge(&vv(&[(1, 1), (4, 5), (9, 2)]));
        assert_eq!(a, vv(&[(0, 3), (1, 1), (2, 1), (4, 5), (9, 2)]));
        assert_eq!(a.counters.capacity(), a.counters.len());
    }

    #[test]
    fn new_allocates_nothing() {
        assert_eq!(VersionVector::new().counters.capacity(), 0);
        assert_eq!(VersionVector::from_pairs([]).counters.capacity(), 0);
    }

    #[test]
    fn missing_from_counts_gap() {
        let a = vv(&[(0, 2), (1, 1)]);
        let r = vv(&[(0, 3), (1, 1), (2, 2)]);
        assert_eq!(a.missing_from(&r), 3); // one from w0, two from w2
        assert_eq!(r.missing_from(&a), 0);
    }

    #[test]
    fn display_matches_paper_style() {
        let v = vv(&[(0, 3), (1, 5)]);
        assert_eq!(v.to_string(), "(w0:3 w1:5)");
        assert_eq!(VersionVector::new().to_string(), "()");
    }

    #[test]
    fn debug_keeps_the_map_shape() {
        let v = vv(&[(1, 5), (0, 3)]);
        assert_eq!(
            format!("{v:?}"),
            "VersionVector { counters: {WriterId(0): 3, WriterId(1): 5} }"
        );
    }

    #[test]
    fn from_pairs_keeps_the_last_nonzero_count_of_a_repeated_writer() {
        let v = vv(&[(2, 4), (0, 1), (2, 7), (1, 0), (0, 0), (2, 3)]);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![(WriterId(0), 1), (WriterId(2), 3)]);
    }

    #[test]
    fn diff_from_lists_only_changed_writers_with_explicit_zeros() {
        let reference = vv(&[(0, 3), (2, 1)]);
        let base = vv(&[(0, 3), (1, 2)]);
        // w0 unchanged, w1 invalidated down to zero, w2 newly sanctioned.
        assert_eq!(reference.diff_from(&base), vec![(WriterId(1), 0), (WriterId(2), 1)]);
        assert_eq!(reference.diff_from(&reference), vec![]);
    }

    #[test]
    fn with_overrides_round_trips_and_stays_zero_elided() {
        let reference = vv(&[(0, 3), (2, 1)]);
        let base = vv(&[(0, 3), (1, 2)]);
        let rebuilt = base.with_overrides(&reference.diff_from(&base));
        assert_eq!(rebuilt, reference);
        // The zero override removed w1 entirely: same writer set, not a
        // zero-valued entry.
        assert_eq!(rebuilt.writers(), 2);
    }

    fn arb_vv() -> impl Strategy<Value = VersionVector> {
        prop::collection::btree_map(0u32..6, 0u64..8, 0..6)
            .prop_map(|m| VersionVector::from_pairs(m.into_iter().map(|(w, c)| (WriterId(w), c))))
    }

    /// Raw pair lists: repeated writers, zero counts, any order.
    fn arb_pairs() -> impl Strategy<Value = Vec<(WriterId, u64)>> {
        prop::collection::vec((0u32..7, 0u64..6), 0..10)
            .prop_map(|v| v.into_iter().map(|(w, c)| (WriterId(w), c)).collect())
    }

    /// Everything observable about a vector equals the reference's.
    fn assert_same(got: &VersionVector, want: &reference::VersionVector) {
        assert_eq!(got.iter().collect::<Vec<_>>(), want.iter().collect::<Vec<_>>());
        assert_eq!(got.to_string(), want.to_string());
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(got.writers(), want.writers());
        assert_eq!(got.total(), want.total());
        for w in 0..8 {
            assert_eq!(got.get(WriterId(w)), want.get(WriterId(w)));
        }
        assert!(got.counters.iter().all(|&(_, c)| c > 0), "zero stored: {got:?}");
        assert!(got.counters.windows(2).all(|p| p[0].0 < p[1].0), "unsorted: {got:?}");
    }

    proptest! {
        /// Every public operation of the flat vector against the map-backed
        /// one it replaced: construction from messy pairs, then random
        /// mutation sequences, each step compared in full, plus every
        /// two-vector operation against a second messy vector.
        #[test]
        fn flat_vector_matches_the_map_reference(
            start in arb_pairs(),
            ops in prop::collection::vec((0u8..5, 0u32..7, 0u64..9, arb_pairs()), 0..24),
        ) {
            let mut got = VersionVector::from_pairs(start.clone());
            let mut want = reference::VersionVector::from_pairs(start.clone());
            assert_same(&got, &want);
            prop_assert_eq!(start.iter().copied().collect::<VersionVector>(), got.clone());
            for (op, w, c, pairs) in ops {
                let writer = WriterId(w);
                let other = VersionVector::from_pairs(pairs.clone());
                let other_ref = reference::VersionVector::from_pairs(pairs.clone());
                assert_same(&other, &other_ref);
                prop_assert_eq!(got.compare(&other), want.compare(&other_ref));
                prop_assert_eq!(other.compare(&got), other_ref.compare(&want));
                prop_assert_eq!(got.missing_from(&other), want.missing_from(&other_ref));
                prop_assert_eq!(other.missing_from(&got), other_ref.missing_from(&want));
                prop_assert_eq!(got.diff_from(&other), want.diff_from(&other_ref));
                prop_assert_eq!(other.diff_from(&got), other_ref.diff_from(&want));
                prop_assert_eq!(got == other, want == other_ref);
                match op {
                    0 => {
                        let next = got.get(writer) + 1;
                        got.observe(writer, next);
                        prop_assert_eq!(next, want.increment(writer));
                    }
                    1 => {
                        got.observe(writer, c);
                        want.observe(writer, c);
                    }
                    2 => {
                        got.set(writer, c);
                        want.set(writer, c);
                    }
                    3 => {
                        let mut calls = Vec::new();
                        let mut want_calls = Vec::new();
                        got.merge_with(&other, |w, old, new| calls.push((w, old, new)));
                        want.merge_with(&other_ref, |w, old, new| want_calls.push((w, old, new)));
                        prop_assert_eq!(calls, want_calls);
                    }
                    _ => {
                        // Overrides straight from raw pairs: unsorted,
                        // repeated writers, explicit zeros.
                        got = got.with_overrides(&pairs);
                        want = want.with_overrides(&pairs);
                    }
                }
                assert_same(&got, &want);
            }
        }

        /// The lock-step walk against the per-writer `get`/`observe` loop
        /// it replaces: same result, same advances in the same order.
        #[test]
        fn merge_with_matches_per_writer_lookup(a in arb_vv(), b in arb_vv()) {
            let mut want = a.clone();
            let mut want_calls = Vec::new();
            for (w, c) in b.iter() {
                let have = want.get(w);
                if c > have {
                    want_calls.push((w, have, c));
                    want.observe(w, c);
                }
            }
            let mut got = a.clone();
            let mut calls = Vec::new();
            got.merge_with(&b, |w, old, new| calls.push((w, old, new)));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(calls, want_calls);
            prop_assert_eq!(got, a.merged(&b));
        }

        #[test]
        fn compare_is_reflexive(v in arb_vv()) {
            prop_assert_eq!(v.compare(&v), VvOrdering::Equal);
        }

        #[test]
        fn compare_is_antisymmetric(a in arb_vv(), b in arb_vv()) {
            let ab = a.compare(&b);
            let ba = b.compare(&a);
            let expected = match ab {
                VvOrdering::Equal => VvOrdering::Equal,
                VvOrdering::Less => VvOrdering::Greater,
                VvOrdering::Greater => VvOrdering::Less,
                VvOrdering::Concurrent => VvOrdering::Concurrent,
            };
            prop_assert_eq!(ba, expected);
        }

        #[test]
        fn merge_is_commutative(a in arb_vv(), b in arb_vv()) {
            prop_assert_eq!(a.merged(&b), b.merged(&a));
        }

        #[test]
        fn merge_is_associative(a in arb_vv(), b in arb_vv(), c in arb_vv()) {
            prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
        }

        #[test]
        fn merge_is_idempotent(a in arb_vv()) {
            prop_assert_eq!(a.merged(&a), a.clone());
        }

        #[test]
        fn merge_dominates_both(a in arb_vv(), b in arb_vv()) {
            let m = a.merged(&b);
            prop_assert!(matches!(m.compare(&a), VvOrdering::Greater | VvOrdering::Equal));
            prop_assert!(matches!(m.compare(&b), VvOrdering::Greater | VvOrdering::Equal));
        }

        #[test]
        fn equal_vectors_have_no_missing(a in arb_vv()) {
            prop_assert_eq!(a.missing_from(&a), 0);
        }

        #[test]
        fn missing_from_merge_bound(a in arb_vv(), b in arb_vv()) {
            let m = a.merged(&b);
            // a misses from the merge exactly what it misses from b.
            prop_assert_eq!(a.missing_from(&m), a.missing_from(&b));
        }

        /// Overrides reconstruct exactly: `base.with_overrides(a.diff_from(base)) == a`
        /// for arbitrary vectors, and an empty diff means equality.
        #[test]
        fn diff_override_round_trips(a in arb_vv(), base in arb_vv()) {
            let diff = a.diff_from(&base);
            prop_assert_eq!(base.with_overrides(&diff), a.clone());
            prop_assert_eq!(a.diff_from(&base).is_empty(), a == base);
        }
    }
}
