//! The map-backed extended vector the flat layout replaced, reduced to its
//! definitions: one plain timestamp list per writer in a `BTreeMap`, the
//! triple from sorted event lists, the wire forms built writer by writer.
//! It exists only to be compared against: the proptest below drives both
//! through random histories and checks every public operation agrees.

use crate::wire::Suffixes;
use crate::{ExtendedVersionVector, VersionVector, VvDelta, VvSummary};
use idea_types::{ErrorTriple, SimDuration, SimTime, UpdateId, WriterId};
use std::collections::BTreeMap;

/// Per-writer timestamp lists (no empty list) and the metadata value.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MapVector {
    histories: BTreeMap<WriterId, Vec<SimTime>>,
    meta: i64,
}

impl MapVector {
    pub(crate) fn record(&mut self, writer: WriterId, seq: u64, at: SimTime, meta_delta: i64) {
        let count = self.histories.get(&writer).map_or(0, Vec::len) as u64;
        if seq <= count {
            return;
        }
        self.histories.entry(writer).or_default().push(at);
        self.meta += meta_delta;
    }

    pub(crate) fn counters(&self) -> VersionVector {
        VersionVector::from_pairs(self.histories.iter().map(|(w, h)| (*w, h.len() as u64)))
    }

    pub(crate) fn adopt(&mut self, reference: &MapVector) -> u64 {
        let absorbed = self.counters().missing_from(&reference.counters());
        *self = reference.clone();
        absorbed
    }

    pub(crate) fn truncate_to(&mut self, counts: &VersionVector, dropped_meta: i64) {
        for (w, h) in &mut self.histories {
            h.truncate(counts.get(*w) as usize);
        }
        self.histories.retain(|_, h| !h.is_empty());
        self.meta -= dropped_meta;
    }

    fn events(&self) -> Vec<(SimTime, UpdateId)> {
        let mut out: Vec<_> = self
            .histories
            .iter()
            .flat_map(|(w, h)| {
                h.iter().enumerate().map(|(i, t)| (*t, UpdateId { writer: *w, seq: i as u64 + 1 }))
            })
            .collect();
        out.sort();
        out
    }

    /// End of the longest common prefix of the sorted event lists.
    pub(crate) fn last_consistent_with(&self, reference: &MapVector) -> SimTime {
        let (a, b) = (self.events(), reference.events());
        let common = a.iter().zip(&b).take_while(|(x, y)| x == y).last();
        common.map_or(SimTime::ZERO, |(x, _)| x.0)
    }

    pub(crate) fn triple_against(&self, reference: &MapVector) -> ErrorTriple {
        let (mine, theirs) = (self.counters(), reference.counters());
        let numerical = (reference.meta - self.meta).abs() as f64;
        let order = (mine.missing_from(&theirs) + theirs.missing_from(&mine)) as f64;
        let latest = reference.histories.values().filter_map(|h| h.last()).max();
        let staleness = latest.map_or(SimDuration::ZERO, |l| {
            l.saturating_since(self.last_consistent_with(reference))
        });
        ErrorTriple::new(numerical, order, staleness)
    }

    fn latest(&self) -> Option<SimTime> {
        self.histories.values().filter_map(|h| h.last().copied()).max()
    }

    pub(crate) fn summary(&self, tail_len: usize) -> VvSummary {
        let mut tail = Suffixes::new();
        for (w, h) in &self.histories {
            if tail_len > 0 {
                let skip = h.len().saturating_sub(tail_len);
                tail.push(*w, skip as u64 + 1, h[skip..].iter().copied());
            }
        }
        VvSummary { counters: self.counters(), meta: self.meta, latest: self.latest(), tail }
    }

    pub(crate) fn suffix_since(&self, have: &VersionVector) -> VvDelta {
        let mut suffixes = Suffixes::new();
        for (w, h) in &self.histories {
            let base = (have.get(*w) as usize).min(h.len());
            if base < h.len() {
                let start = base.saturating_sub(1);
                suffixes.push(*w, start as u64 + 1, h[start..].iter().copied());
            }
        }
        VvDelta { counters: self.counters(), meta: self.meta, latest: self.latest(), suffixes }
    }

    pub(crate) fn reconstruct(&self, delta: &VvDelta) -> MapVector {
        let mut histories = BTreeMap::new();
        for (w, c) in delta.counters.iter() {
            let c = c as usize;
            let sfx = delta.suffixes.get(w);
            let end = sfx.map_or(c, |s| (s.start_seq - 1) as usize).min(c);
            let local = self.histories.get(&w).map_or(&[][..], |h| &h[..end.min(h.len())]);
            let mut h = local.to_vec();
            h.resize(end, SimTime::ZERO);
            h.extend(sfx.map_or(&[][..], |s| s.times).iter().take(c - end));
            h.resize(c, SimTime::ZERO);
            histories.insert(w, h);
        }
        MapVector { histories, meta: delta.meta }
    }

    /// True when `v` holds exactly this vector's writers, timestamps and
    /// metadata value.
    pub(crate) fn matches(&self, v: &ExtendedVersionVector) -> bool {
        let flat: BTreeMap<WriterId, Vec<SimTime>> =
            v.writers().map(|(w, h)| (w, h.iter_from(0).map(|(_, t)| t).collect())).collect();
        flat == self.histories && v.meta() == self.meta && v.counters() == &self.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::CHUNK;
    use proptest::prelude::*;

    /// One step of the random walk: `(op, writer, x, y)`.
    type Op = (u8, u32, u64, u64);

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec((0u8..8, 0u32..4, 0u64..600, 0u64..40), 1..40)
    }

    /// The two vectors under test (flat and reference, side by side).
    struct Pair {
        flat: [ExtendedVersionVector; 2],
        map: [MapVector; 2],
    }

    impl Pair {
        fn apply(&mut self, (op, w, x, y): Op) {
            let w = WriterId(w);
            let (i, j) = ((x % 2) as usize, 1 - (x % 2) as usize);
            match op {
                // Appends, replays included: `seq` may repeat a recorded one.
                0 | 1 => {
                    let seq = (self.flat[i].count(w) + 1).saturating_sub(y % 3);
                    let at = SimTime(x * 7 + y);
                    self.flat[i].record(w, seq, at, y as i64 - 20);
                    self.map[i].record(w, seq, at, y as i64 - 20);
                }
                // A burst long enough to freeze chunks.
                2 => {
                    for k in 0..x {
                        let seq = self.flat[i].count(w) + 1;
                        let at = SimTime(seq * 10 + (k * y) % 13);
                        self.flat[i].record(w, seq, at, 1);
                        self.map[i].record(w, seq, at, 1);
                    }
                }
                // A cut: every writer back to `have − y`, or to `x % 3`
                // chunks plus a little.
                3 => {
                    let counts =
                        VersionVector::from_pairs(self.flat[i].counters().iter().map(|(w, c)| {
                            let keep = if y % 2 == 0 {
                                c.saturating_sub(y)
                            } else {
                                (x % 3) * CHUNK as u64 + y
                            };
                            (w, keep.min(c))
                        }));
                    self.flat[i].truncate_to(&counts, y as i64);
                    self.map[i].truncate_to(&counts, y as i64);
                }
                4 => {
                    let (a, b) = (self.flat[j].clone(), self.map[j].clone());
                    assert_eq!(self.flat[i].adopt(&a), self.map[i].adopt(&b));
                }
                // Rebuild `i` from `j`'s delta over `i`'s counters.
                5 | 6 => {
                    let delta = self.flat[j].suffix_since(self.flat[i].counters());
                    assert_eq!(delta, self.map[j].suffix_since(&self.map[i].counters()));
                    self.flat[i] = self.flat[i].reconstruct(&delta);
                    self.map[i] = self.map[i].reconstruct(&delta);
                }
                // Rebuild `i` from a clone of itself, cut and re-grown.
                _ => {
                    let mut earlier = self.flat[i].clone();
                    let counts = VersionVector::from_pairs(
                        earlier.counters().iter().map(|(w, c)| (w, c.saturating_sub(y))),
                    );
                    earlier.truncate_to(&counts, 0);
                    let delta = self.flat[i].suffix_since(earlier.counters());
                    let rebuilt = earlier.reconstruct(&delta);
                    assert_eq!(rebuilt, self.flat[i]);
                }
            }
        }

        fn check(&self) {
            let ([a, b], [ra, rb]) = (&self.flat, &self.map);
            prop_assert!(ra.matches(a));
            prop_assert!(rb.matches(b));
            prop_assert_eq!(a == b, ra == rb);
            prop_assert_eq!(a.triple_against(b), ra.triple_against(rb));
            prop_assert_eq!(b.triple_against(a), rb.triple_against(ra));
            prop_assert_eq!(a.last_consistent_with(b), ra.last_consistent_with(rb));
            prop_assert_eq!(a.last_consistent_with(a), ra.last_consistent_with(ra));
            for tail in [0, 1, 3, CHUNK + 2] {
                prop_assert_eq!(a.summary(tail), ra.summary(tail));
            }
            prop_assert_eq!(a.suffix_since(b.counters()), ra.suffix_since(&rb.counters()));
        }
    }

    proptest! {
        /// Every public operation of the flat vector agrees with the map
        /// reference over random walks of appends (replays included),
        /// chunk-freezing bursts, cuts across chunks, adoptions and
        /// rebuilds from deltas — as do equality, the triple, the
        /// last-consistent point and both wire forms after each step.
        #[test]
        fn flat_vector_matches_the_map_reference(ops in arb_ops()) {
            let mut pair = Pair { flat: Default::default(), map: Default::default() };
            for op in ops {
                pair.apply(op);
                pair.check();
            }
        }
    }
}
