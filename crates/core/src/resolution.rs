//! Inconsistency resolution: policies, reference-state selection, and the
//! bookkeeping records the evaluation measures (§4.5).
//!
//! Resolution has two triggers — periodic **background** rounds and
//! user-demanded **active** rounds (two-phase: call-for-attention, then
//! collect/inform) — but one core: pick a *reference consistent state* from
//! the collected version vectors and bring every member to it.
//!
//! The seam with `protocol::resolution`: this module is pure policy and
//! the wire-visible types (reference choice, [`ReferenceWire`], the
//! records), tested without a `Context`; that one is the message-driven
//! driver that sends, times and applies them.

use idea_types::{NodeId, SimDuration, SimTime, WriterId};
use idea_vv::{ExtendedVersionVector, VersionVector};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Conflict-resolution policies of §4.5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionPolicy {
    /// Both conflicting versions are invalidated; everyone rolls back to the
    /// last commonly-sanctioned prefix.
    InvalidateBoth,
    /// The replica held by the largest node id wins (ids are randomly
    /// assigned, so this is fair in expectation) — the policy the paper's
    /// evaluation uses ("we simply choose the one with higher ID as the
    /// perfect image", §6).
    HighestIdWins,
    /// The replica of the highest-priority node wins; ties break by id.
    PriorityWins,
}

impl ResolutionPolicy {
    /// Decodes the Table-1 `set_resolution(r)` integer parameter.
    pub fn from_code(r: u8) -> Option<ResolutionPolicy> {
        match r {
            1 => Some(ResolutionPolicy::InvalidateBoth),
            2 => Some(ResolutionPolicy::HighestIdWins),
            3 => Some(ResolutionPolicy::PriorityWins),
            _ => None,
        }
    }

    /// The Table-1 integer code of this policy.
    pub(crate) fn code(self) -> u8 {
        match self {
            ResolutionPolicy::InvalidateBoth => 1,
            ResolutionPolicy::HighestIdWins => 2,
            ResolutionPolicy::PriorityWins => 3,
        }
    }
}

/// The chosen reference consistent state of one resolution round.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceState {
    /// The node whose replica is the reference, when a replica wins;
    /// `None` for [`ResolutionPolicy::InvalidateBoth`] (the reference is
    /// the common prefix, which nobody needs to fetch).
    pub winner: Option<NodeId>,
    /// Per-writer sanctioned update counts. Members drop updates beyond
    /// these counts and fetch the ones they miss from the winner.
    pub counts: VersionVector,
}

/// Wire encoding of a [`ReferenceState`] inside an `Inform`.
///
/// The initiator holds every member's collected counters, so instead of
/// shipping the full sanctioned vector it can ship only the per-writer
/// **overrides** against what that member itself reported — usually a
/// handful of entries, independent of how many writers the object has.
/// [`ReferenceWire::Delta`] carries those overrides (explicit zeros mark
/// invalidated writers); [`ReferenceWire::Full`] is the self-contained
/// fallback for a member the delta would not shrink.
#[derive(Debug, Clone, PartialEq)]
pub enum ReferenceWire {
    /// Self-contained: the complete reference state.
    Full(ReferenceState),
    /// Overrides against the counters the receiving member reported in its
    /// own collect answer of the same round.
    Delta {
        /// The winning node, as in [`ReferenceState::winner`].
        winner: Option<NodeId>,
        /// `(writer, sanctioned count)` overrides; unlisted writers keep
        /// the count the member reported.
        diffs: Vec<(WriterId, u64)>,
    },
}

impl ReferenceWire {
    /// Picks the smaller encoding of `reference` for a member that reported
    /// `acked` in its collect answer: the delta against `acked` when it
    /// beats the full vector on the wire, the full form otherwise.
    pub(crate) fn encode(reference: &ReferenceState, acked: &VersionVector) -> ReferenceWire {
        let diffs = reference.counts.diff_from(acked);
        if diffs.len() < reference.counts.writers() {
            ReferenceWire::Delta { winner: reference.winner, diffs }
        } else {
            ReferenceWire::Full(reference.clone())
        }
    }

    /// Reconstructs the exact [`ReferenceState`] on the member side.
    /// `acked` is the counter snapshot the member stored when it answered
    /// the round's collect; it is only consulted by the delta form.
    pub(crate) fn resolve(&self, acked: &VersionVector) -> ReferenceState {
        match self {
            ReferenceWire::Full(reference) => reference.clone(),
            ReferenceWire::Delta { winner, diffs } => {
                ReferenceState { winner: *winner, counts: acked.with_overrides(diffs) }
            }
        }
    }

    /// Whether this form needs the member's acked-counter snapshot to
    /// resolve (the delta form is meaningless without it).
    pub(crate) fn needs_snapshot(&self) -> bool {
        matches!(self, ReferenceWire::Delta { .. })
    }

    /// Approximate serialized size in bytes: an 8-byte winner/tag header
    /// plus 12 bytes per carried `(writer, count)` entry.
    pub(crate) fn wire_bytes(&self) -> usize {
        match self {
            ReferenceWire::Full(reference) => 8 + 12 * reference.counts.writers(),
            ReferenceWire::Delta { diffs, .. } => 8 + 12 * diffs.len(),
        }
    }
}

/// Selects the reference state from the collected `(node, vector)` pairs
/// according to `policy`. `priorities` maps nodes to a priority rank
/// (higher wins) and is only consulted by [`ResolutionPolicy::PriorityWins`].
///
/// # Panics
/// Panics if `candidates` is empty — a resolution round always includes at
/// least the initiator's own replica.
pub(crate) fn choose_reference<V: Borrow<ExtendedVersionVector>>(
    policy: ResolutionPolicy,
    candidates: &[(NodeId, V)],
    priorities: &BTreeMap<NodeId, u8>,
) -> ReferenceState {
    assert!(!candidates.is_empty(), "resolution requires at least one replica");
    match policy {
        ResolutionPolicy::InvalidateBoth => {
            // Common prefix: component-wise minimum over all candidates.
            let mut counts: Option<BTreeMap<idea_types::WriterId, u64>> = None;
            for (_, evv) in candidates {
                let these: BTreeMap<_, _> = evv.borrow().counters().iter().collect();
                counts = Some(match counts {
                    None => these,
                    Some(acc) => acc
                        .into_iter()
                        .filter_map(|(w, c)| these.get(&w).map(|&o| (w, c.min(o))))
                        .collect(),
                });
            }
            let counts = VersionVector::from_pairs(counts.unwrap_or_default());
            ReferenceState { winner: None, counts }
        }
        ResolutionPolicy::HighestIdWins => {
            let (node, evv) =
                candidates.iter().max_by_key(|(n, _)| *n).expect("non-empty candidates");
            ReferenceState { winner: Some(*node), counts: evv.borrow().counters().clone() }
        }
        ResolutionPolicy::PriorityWins => {
            let (node, evv) = candidates
                .iter()
                .max_by_key(|(n, _)| (priorities.get(n).copied().unwrap_or(0), *n))
                .expect("non-empty candidates");
            ReferenceState { winner: Some(*node), counts: evv.borrow().counters().clone() }
        }
    }
}

/// How a resolution round was initiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolutionKind {
    /// Periodic background round (§4.5.2).
    Background,
    /// User-demanded active round (two-phase).
    Active,
}

/// Timing record of one completed resolution round — the raw material of
/// Table 2, Figure 9 and Formula 2/3.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionRecord {
    /// Correlation id of the round.
    pub(crate) rid: u64,
    /// Background or active.
    pub(crate) kind: ResolutionKind,
    /// Number of top-layer members contacted (excluding the initiator).
    pub members: usize,
    /// When the round started.
    pub(crate) started: SimTime,
    /// Phase-1 dispatch cost: time to fan out call-for-attention messages
    /// (zero for background rounds, which skip phase 1).
    pub phase1_dispatch: SimDuration,
    /// Phase-1 completion including acknowledgements (one WAN RTT); zero
    /// for background rounds.
    pub phase1_acked: SimDuration,
    /// Phase-2 duration: sequential collect + decide + inform dispatch.
    pub phase2: SimDuration,
    /// Whether the round actually changed any replica.
    pub resolved_conflict: bool,
}

impl ResolutionRecord {
    /// Total round delay as the paper reports it: phase-1 dispatch plus
    /// phase 2 (Formula 2 adds exactly these two terms).
    pub fn total_delay(&self) -> SimDuration {
        self.phase1_dispatch + self.phase2
    }
}

/// Formula 2 of the paper: extrapolated active-resolution delay (ms) for a
/// top layer of size `n`, fitted from the Table-2 measurement
/// (`0.46825 + 104.747 · (n − 1)`).
pub fn formula2_active_delay_ms(n: usize) -> f64 {
    0.46825 + 104.747 * (n.saturating_sub(1)) as f64
}

/// Formula 4: optimal background-resolution rate (rounds per second) given
/// available bandwidth `b` (bits/s), the cap fraction `x` (e.g. `0.2` for
/// 20 %), and the per-round communication cost `c` (bits).
pub fn formula4_optimal_rate(b: f64, x: f64, c: f64) -> f64 {
    if c <= 0.0 || b <= 0.0 || x <= 0.0 {
        return 0.0;
    }
    b * x / c
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::WriterId;

    fn evv(updates: &[(u32, u64, u64, i64)]) -> ExtendedVersionVector {
        let mut v = ExtendedVersionVector::new();
        for &(w, seq, at, delta) in updates {
            v.record(WriterId(w), seq, SimTime::from_secs(at), delta);
        }
        v
    }

    #[test]
    fn policy_codes_round_trip() {
        for p in [
            ResolutionPolicy::InvalidateBoth,
            ResolutionPolicy::HighestIdWins,
            ResolutionPolicy::PriorityWins,
        ] {
            assert_eq!(ResolutionPolicy::from_code(p.code()), Some(p));
        }
        assert_eq!(ResolutionPolicy::from_code(0), None);
        assert_eq!(ResolutionPolicy::from_code(9), None);
    }

    #[test]
    fn highest_id_wins_picks_largest_node() {
        let candidates = vec![
            (NodeId(2), evv(&[(0, 1, 1, 1)])),
            (NodeId(7), evv(&[(1, 1, 2, 5)])),
            (NodeId(4), evv(&[(2, 1, 3, 2)])),
        ];
        let r = choose_reference(ResolutionPolicy::HighestIdWins, &candidates, &BTreeMap::new());
        assert_eq!(r.winner, Some(NodeId(7)));
        assert_eq!(r.counts.get(WriterId(1)), 1);
        assert_eq!(r.counts.get(WriterId(0)), 0);
    }

    #[test]
    fn priority_wins_overrides_id() {
        let candidates = vec![(NodeId(2), evv(&[(0, 1, 1, 1)])), (NodeId(7), evv(&[(1, 1, 2, 5)]))];
        let mut prio = BTreeMap::new();
        prio.insert(NodeId(2), 10); // the supervisor of §4.5.1
        let r = choose_reference(ResolutionPolicy::PriorityWins, &candidates, &prio);
        assert_eq!(r.winner, Some(NodeId(2)));
        // Ties fall back to id.
        let r2 = choose_reference(ResolutionPolicy::PriorityWins, &candidates, &BTreeMap::new());
        assert_eq!(r2.winner, Some(NodeId(7)));
    }

    #[test]
    fn invalidate_both_takes_common_prefix() {
        let candidates = vec![
            (NodeId(0), evv(&[(0, 1, 1, 1), (0, 2, 2, 1), (1, 1, 3, 1)])),
            (NodeId(1), evv(&[(0, 1, 1, 1), (2, 1, 4, 1)])),
        ];
        let r = choose_reference(ResolutionPolicy::InvalidateBoth, &candidates, &BTreeMap::new());
        assert_eq!(r.winner, None);
        assert_eq!(r.counts.get(WriterId(0)), 1, "only the shared w0:1 survives");
        assert_eq!(r.counts.get(WriterId(1)), 0);
        assert_eq!(r.counts.get(WriterId(2)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_candidates_panic() {
        let none: &[(NodeId, ExtendedVersionVector)] = &[];
        let _ = choose_reference(ResolutionPolicy::HighestIdWins, none, &BTreeMap::new());
    }

    #[test]
    fn reference_wire_delta_resolves_exactly() {
        let reference = ReferenceState {
            winner: Some(NodeId(3)),
            counts: VersionVector::from_pairs([(WriterId(0), 5), (WriterId(2), 1)]),
        };
        // The member reported w0:4 w1:2 — the delta must raise w0, zero out
        // the invalidated w1 and introduce w2.
        let acked = VersionVector::from_pairs([(WriterId(0), 4), (WriterId(1), 2)]);
        let wire = ReferenceWire::encode(&reference, &acked);
        assert_eq!(wire.resolve(&acked), reference);
        // A member already at the reference gets an empty (minimal) delta.
        let at_ref = ReferenceWire::encode(&reference, &reference.counts);
        assert!(matches!(&at_ref, ReferenceWire::Delta { diffs, .. } if diffs.is_empty()));
        assert_eq!(at_ref.resolve(&reference.counts), reference);
        assert!(at_ref.wire_bytes() <= wire.wire_bytes());
    }

    #[test]
    fn reference_wire_falls_back_to_full_when_delta_is_larger() {
        // A member that reported a disjoint writer set would need one
        // override per reference writer *plus* zeroing entries — the full
        // form is strictly smaller, and self-contained.
        let reference = ReferenceState {
            winner: None,
            counts: VersionVector::from_pairs([(WriterId(0), 1), (WriterId(1), 1)]),
        };
        let acked = VersionVector::from_pairs([(WriterId(5), 3), (WriterId(6), 4)]);
        let wire = ReferenceWire::encode(&reference, &acked);
        assert!(matches!(wire, ReferenceWire::Full(_)));
        assert!(!wire.needs_snapshot());
        assert_eq!(wire.resolve(&acked), reference);
        assert_eq!(wire.wire_bytes(), 8 + 12 * 2);
    }

    #[test]
    fn formula2_matches_paper_anchors() {
        // Table 2's top layer of four: 0.468 + 104.747·3 ≈ 314.7 ms.
        let d4 = formula2_active_delay_ms(4);
        assert!((d4 - 314.709).abs() < 0.1, "got {d4}");
        // Figure 9's headline: even at n = 10 the cost stays under 1 s.
        assert!(formula2_active_delay_ms(10) < 1_000.0);
        assert!((formula2_active_delay_ms(1) - 0.46825).abs() < 1e-9);
    }

    #[test]
    fn formula4_examples() {
        // 1 Mbit/s available, 20 % cap, 44 KB per round (paper's estimate of
        // 44 messages × 1 KB): rate = 10^6 · 0.2 / (44 · 8192) ≈ 0.55 Hz.
        let rate = formula4_optimal_rate(1e6, 0.2, 44.0 * 8192.0);
        assert!((rate - 0.5549).abs() < 0.01, "got {rate}");
        assert_eq!(formula4_optimal_rate(0.0, 0.2, 1.0), 0.0);
        assert_eq!(formula4_optimal_rate(1e6, 0.2, 0.0), 0.0);
    }

    #[test]
    fn record_total_delay_adds_dispatch_and_phase2() {
        let rec = ResolutionRecord {
            rid: 1,
            kind: ResolutionKind::Active,
            members: 3,
            started: SimTime::ZERO,
            phase1_dispatch: SimDuration::from_micros(468),
            phase1_acked: SimDuration::from_millis(100),
            phase2: SimDuration::from_millis(314),
            resolved_conflict: true,
        };
        assert_eq!(rec.total_delay(), SimDuration::from_micros(314_468));
    }
}
