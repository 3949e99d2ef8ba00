//! Classic version vectors (Parker et al., IEEE TSE 1983).
//!
//! A version vector "tracks the number of times a file is updated by a
//! certain user and uses that to detect conflict" (§4.3). Two replicas are
//! inconsistent iff their vectors differ; two vectors are *comparable* iff
//! one dominates the other, e.g. `(A:5, B:3)` is not comparable with
//! `(A:3, B:6)` (§4.5.1).

use idea_types::WriterId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
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

impl VvOrdering {
    /// True for `Less`, `Greater` or `Equal` (the paper's "comparable").
    pub fn is_comparable(self) -> bool {
        !matches!(self, VvOrdering::Concurrent)
    }
}

/// A classic version vector: one update counter per writer.
///
/// Writers absent from the map implicitly have counter 0, so vectors over
/// different writer sets compare correctly.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VersionVector {
    counters: BTreeMap<WriterId, u64>,
}

impl VersionVector {
    /// The empty vector (all counters zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from `(writer, count)` pairs; zero counts are elided.
    pub fn from_pairs<I: IntoIterator<Item = (WriterId, u64)>>(pairs: I) -> Self {
        let mut vv = VersionVector::new();
        for (w, c) in pairs {
            if c > 0 {
                vv.counters.insert(w, c);
            }
        }
        vv
    }

    /// The counter for `writer` (zero if absent).
    #[inline]
    pub fn get(&self, writer: WriterId) -> u64 {
        self.counters.get(&writer).copied().unwrap_or(0)
    }

    /// Increments `writer`'s counter and returns the new value.
    pub fn increment(&mut self, writer: WriterId) -> u64 {
        let c = self.counters.entry(writer).or_insert(0);
        *c += 1;
        *c
    }

    /// Sets `writer`'s counter to `max(current, seq)` — used when observing a
    /// writer's `seq`-th update out of order.
    pub fn observe(&mut self, writer: WriterId, seq: u64) {
        if seq == 0 {
            return;
        }
        let c = self.counters.entry(writer).or_insert(0);
        *c = (*c).max(seq);
    }

    /// Sets `writer`'s counter to exactly `count` (zero removes the entry,
    /// keeping the vector zero-elided) — the in-place form of a one-entry
    /// [`VersionVector::with_overrides`].
    pub(crate) fn set(&mut self, writer: WriterId, count: u64) {
        if count == 0 {
            self.counters.remove(&writer);
        } else {
            self.counters.insert(writer, count);
        }
    }

    /// Total updates across all writers.
    pub fn total(&self) -> u64 {
        self.counters.values().sum()
    }

    /// Number of writers with a non-zero counter.
    pub fn writers(&self) -> usize {
        self.counters.len()
    }

    /// Iterates `(writer, count)` pairs in writer order.
    pub fn iter(&self) -> impl Iterator<Item = (WriterId, u64)> + '_ {
        self.counters.iter().map(|(w, c)| (*w, *c))
    }

    /// Compares under the domination partial order.
    pub fn compare(&self, other: &VersionVector) -> VvOrdering {
        let mut less = false;
        let mut greater = false;
        // Union of writer keys; BTreeMap keeps this deterministic.
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

    /// True when `self` dominates or equals `other`.
    pub fn dominates(&self, other: &VersionVector) -> bool {
        matches!(self.compare(other), VvOrdering::Equal | VvOrdering::Greater)
    }

    /// Component-wise maximum (the join of the domination lattice).
    pub fn merge(&mut self, other: &VersionVector) {
        self.merge_with(other, |_, _, _| {});
    }

    /// [`VersionVector::merge`] that reports every counter it raises:
    /// `on_advance(writer, old, new)` runs once per writer whose count in
    /// `other` exceeds ours, in writer order. One lock-step walk over the
    /// two sorted maps — no per-writer lookup.
    pub fn merge_with(
        &mut self,
        other: &VersionVector,
        mut on_advance: impl FnMut(WriterId, u64, u64),
    ) {
        // Writers we lack entirely: inserted once the walk lets go of the map.
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

    /// Returns the merged copy without mutating `self`.
    pub fn merged(&self, other: &VersionVector) -> VersionVector {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Updates `other` has that `self` misses: `Σ max(0, other_w − self_w)`.
    pub fn missing_from(&self, other: &VersionVector) -> u64 {
        let mut sum = 0;
        for (w, c) in &other.counters {
            sum += c.saturating_sub(self.get(*w));
        }
        sum
    }

    /// The per-writer overrides that turn `base` into `self`: one
    /// `(writer, count)` entry per writer whose counter differs, drawn from
    /// `self` (explicit zeros where `base` holds a writer `self` lacks —
    /// the invalidated-writer case). `base.with_overrides(diff)` round-trips
    /// back to `self`.
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
        for (i, (w, c)) in self.counters.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w}:{c}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<(WriterId, u64)> for VersionVector {
    fn from_iter<I: IntoIterator<Item = (WriterId, u64)>>(iter: I) -> Self {
        VersionVector::from_pairs(iter)
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
        assert!(!a.compare(&b).is_comparable());
    }

    #[test]
    fn domination_orders() {
        // (A:3 B:5) is earlier than (A:4 B:7) — §4.3 example.
        let older = vv(&[(0, 3), (1, 5)]);
        let newer = vv(&[(0, 4), (1, 7)]);
        assert_eq!(older.compare(&newer), VvOrdering::Less);
        assert_eq!(newer.compare(&older), VvOrdering::Greater);
        assert!(newer.dominates(&older));
        assert!(!older.dominates(&newer));
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
        assert_eq!(v.increment(WriterId(0)), 1);
        assert_eq!(v.increment(WriterId(0)), 2);
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

    proptest! {
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
            prop_assert!(m.dominates(&a));
            prop_assert!(m.dominates(&b));
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
