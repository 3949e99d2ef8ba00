//! Top-layer detection rounds.
//!
//! A round starts when a node updates (or deliberately probes) a shared
//! object: it sends its extended version vector to every top-layer peer and
//! collects theirs. [`DetectRound`] tracks an in-flight round and marks a
//! replica conflicted when its vector differs from the initiator's;
//! [`DetectReport`] is the aggregate the IDEA protocol quantifies with
//! Formula 1.
//!
//! The *reference consistent state* is, per §4.4.1, "the replica with higher
//! ID value": among all replicas seen in the round (initiator included) the
//! one held by the largest [`NodeId`] wins. Priority-based selection is
//! layered on in `idea-core`'s resolution policies.

use idea_types::{ErrorTriple, NodeId, SimTime};
use idea_vv::{ExtendedVersionVector, VvOrdering};
use serde::{Deserialize, Serialize};

/// Per-replica line of a completed round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaLine {
    /// The node holding the replica.
    pub node: NodeId,
    /// Error triple of this replica against the round's reference state.
    pub triple: ErrorTriple,
    /// Whether this replica conflicted with the initiator.
    pub conflicted: bool,
}

/// Aggregate of one completed detection round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectReport {
    /// Node whose replica was chosen as the reference consistent state.
    pub reference: NodeId,
    /// Per-replica triples against the reference (initiator included).
    pub lines: Vec<ReplicaLine>,
    /// True when at least one pair of vectors differed.
    pub any_inconsistency: bool,
    /// Virtual time the round started.
    pub started: SimTime,
    /// Virtual time the last reply arrived.
    pub completed: SimTime,
}

impl DetectReport {
    /// The triple of `node` against the reference, if it participated.
    pub fn triple_of(&self, node: NodeId) -> Option<ErrorTriple> {
        self.lines.iter().find(|l| l.node == node).map(|l| l.triple)
    }

    /// The worst (component-wise maximum) triple across all replicas.
    pub fn worst_triple(&self) -> ErrorTriple {
        self.lines.iter().fold(ErrorTriple::ZERO, |acc, l| acc.component_max(&l.triple))
    }

    /// Round-trip detection delay.
    pub fn delay(&self) -> idea_types::SimDuration {
        self.completed.saturating_since(self.started)
    }
}

/// An in-flight detection round at the initiator.
#[derive(Debug, Clone)]
pub struct DetectRound {
    /// Initiator identity.
    me: NodeId,
    /// Correlation id carried by request/reply messages.
    pub round_id: u64,
    started: SimTime,
    /// The initiator's vector as probed: peers answer with suffix deltas
    /// relative to its counters, so this snapshot is what reconstructs
    /// their full vectors (the replica may advance mid-round).
    baseline: ExtendedVersionVector,
    expected: Vec<NodeId>,
    replies: Vec<(NodeId, ExtendedVersionVector)>,
}

impl DetectRound {
    /// Starts a round from `me` towards `peers` (the top-layer peers),
    /// probing with the replica state `baseline`.
    pub fn start(
        me: NodeId,
        round_id: u64,
        peers: &[NodeId],
        now: SimTime,
        baseline: ExtendedVersionVector,
    ) -> Self {
        DetectRound {
            me,
            round_id,
            started: now,
            baseline,
            expected: peers.to_vec(),
            replies: Vec::with_capacity(peers.len()),
        }
    }

    /// The initiator's vector as sent with the probe — the baseline peer
    /// deltas are relative to.
    pub fn baseline(&self) -> &ExtendedVersionVector {
        &self.baseline
    }

    /// Peers whose reply is still outstanding.
    pub fn outstanding(&self) -> Vec<NodeId> {
        self.expected
            .iter()
            .copied()
            .filter(|p| !self.replies.iter().any(|(n, _)| n == p))
            .collect()
    }

    /// Records a reply. Returns `true` when the round is complete.
    pub fn on_reply(&mut self, from: NodeId, evv: ExtendedVersionVector) -> bool {
        if self.expected.contains(&from) && !self.replies.iter().any(|(n, _)| *n == from) {
            self.replies.push((from, evv));
        }
        self.replies.len() == self.expected.len()
    }

    /// Completes the round (all replies in, or deadline expired — the report
    /// then covers whoever answered). `mine` is the initiator's vector.
    pub fn complete(self, mine: &ExtendedVersionVector, now: SimTime) -> DetectReport {
        // Reference = highest node id among participants (§4.4.1).
        let mut participants: Vec<(NodeId, &ExtendedVersionVector)> = vec![(self.me, mine)];
        for (n, evv) in &self.replies {
            participants.push((*n, evv));
        }
        let (ref_node, ref_evv) = participants
            .iter()
            .max_by_key(|(n, _)| *n)
            .map(|(n, e)| (*n, *e))
            .expect("initiator always participates");

        let mut any = false;
        let lines = participants
            .iter()
            .map(|(n, evv)| {
                // §4.3: two replicas are inconsistent iff their vectors differ.
                let conflicted = *n != self.me && mine.compare(evv) != VvOrdering::Equal;
                if conflicted {
                    any = true;
                }
                ReplicaLine { node: *n, triple: evv.triple_against(ref_evv), conflicted }
            })
            .collect();

        DetectReport {
            reference: ref_node,
            lines,
            any_inconsistency: any,
            started: self.started,
            completed: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::{SimDuration, WriterId};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn evv(updates: &[(u32, u64, u64, i64)]) -> ExtendedVersionVector {
        let mut v = ExtendedVersionVector::new();
        for &(w, seq, at, delta) in updates {
            v.record(WriterId(w), seq, t(at), delta);
        }
        v
    }

    #[test]
    fn round_tracks_outstanding_replies() {
        let peers = [NodeId(1), NodeId(2), NodeId(3)];
        let mut round = DetectRound::start(NodeId(0), 7, &peers, t(0), evv(&[]));
        assert_eq!(round.outstanding().len(), 3);
        assert!(!round.on_reply(NodeId(1), evv(&[])));
        assert!(!round.on_reply(NodeId(1), evv(&[]))); // duplicate ignored
        assert_eq!(round.outstanding(), vec![NodeId(2), NodeId(3)]);
        assert!(!round.on_reply(NodeId(9), evv(&[]))); // stranger ignored
        assert!(!round.on_reply(NodeId(2), evv(&[])));
        assert!(round.on_reply(NodeId(3), evv(&[])));
    }

    #[test]
    fn report_uses_highest_id_as_reference() {
        let mine = evv(&[(0, 1, 1, 1)]);
        let mut round =
            DetectRound::start(NodeId(0), 1, &[NodeId(5), NodeId(2)], t(0), mine.clone());
        round.on_reply(NodeId(5), evv(&[(1, 1, 2, 4)]));
        round.on_reply(NodeId(2), evv(&[(0, 1, 1, 1)]));
        let report = round.complete(&mine, t(1));
        assert_eq!(report.reference, NodeId(5));
        assert!(report.any_inconsistency);
        // Node 5 is the reference: its own triple is zero.
        assert!(report.triple_of(NodeId(5)).unwrap().is_zero());
        // The initiator differs from the reference.
        assert!(!report.triple_of(NodeId(0)).unwrap().is_zero());
        assert_eq!(report.delay(), SimDuration::from_secs(1));
    }

    #[test]
    fn consistent_round_reports_no_inconsistency() {
        let shared = evv(&[(0, 1, 1, 2), (1, 1, 2, 3)]);
        let mut round =
            DetectRound::start(NodeId(3), 1, &[NodeId(1), NodeId(2)], t(0), shared.clone());
        round.on_reply(NodeId(1), shared.clone());
        round.on_reply(NodeId(2), shared.clone());
        let report = round.complete(&shared, t(1));
        assert!(!report.any_inconsistency);
        assert!(report.worst_triple().is_zero());
        for line in &report.lines {
            assert!(!line.conflicted);
        }
    }

    #[test]
    fn partial_round_still_reports() {
        // Deadline expiry: complete with only one of two replies.
        let mine = evv(&[(0, 1, 1, 1), (0, 2, 3, 2)]);
        let mut round =
            DetectRound::start(NodeId(0), 1, &[NodeId(1), NodeId(2)], t(0), mine.clone());
        round.on_reply(NodeId(1), evv(&[(0, 1, 1, 1)]));
        let report = round.complete(&mine, t(2));
        assert_eq!(report.lines.len(), 2); // me + the one replier
        assert!(report.any_inconsistency);
    }

    #[test]
    fn worst_triple_is_component_max() {
        let mine = evv(&[(0, 1, 1, 10)]);
        let mut round = DetectRound::start(NodeId(9), 1, &[NodeId(1)], t(0), mine.clone());
        round.on_reply(NodeId(1), evv(&[(1, 1, 5, 2)]));
        let report = round.complete(&mine, t(6));
        let worst = report.worst_triple();
        let l0 = report.triple_of(NodeId(9)).unwrap();
        let l1 = report.triple_of(NodeId(1)).unwrap();
        assert!(worst.numerical >= l0.numerical.max(l1.numerical) - 1e-9);
        assert!(worst.order >= l0.order.max(l1.order) - 1e-9);
    }

    #[test]
    fn duplicate_replies_never_complete_a_round_early() {
        let peers = [NodeId(1), NodeId(2), NodeId(3)];
        let mut round = DetectRound::start(NodeId(0), 1, &peers, t(0), evv(&[(0, 1, 1, 1)]));
        // One peer answering three times is still one reply.
        assert!(!round.on_reply(NodeId(1), evv(&[(0, 1, 1, 1)])));
        assert!(!round.on_reply(NodeId(1), evv(&[(0, 1, 1, 1)])));
        assert!(!round.on_reply(NodeId(1), evv(&[(1, 1, 2, 9)])));
        assert_eq!(round.outstanding(), vec![NodeId(2), NodeId(3)]);
        assert!(!round.on_reply(NodeId(2), evv(&[])));
        assert!(round.on_reply(NodeId(3), evv(&[])));
        // The duplicate did not smuggle a second line into the report: one
        // line per participant (initiator + 3 peers), first answer retained.
        let report = round.complete(&evv(&[(0, 1, 1, 1)]), t(1));
        assert_eq!(report.lines.len(), 4);
        let node1_lines = report.lines.iter().filter(|l| l.node == NodeId(1)).count();
        assert_eq!(node1_lines, 1, "duplicate reply duplicated a line");
    }

    #[test]
    fn missing_replies_leave_participants_out_of_the_report() {
        // Deadline with one of three peers silent: the report covers the
        // initiator and the two responders only, and the silent peer is
        // still listed as outstanding at completion time.
        let mine = evv(&[(0, 1, 1, 1)]);
        let mut round = DetectRound::start(
            NodeId(0),
            4,
            &[NodeId(1), NodeId(2), NodeId(3)],
            t(0),
            mine.clone(),
        );
        round.on_reply(NodeId(1), evv(&[(0, 1, 1, 1)]));
        round.on_reply(NodeId(3), evv(&[(0, 1, 1, 1)]));
        assert_eq!(round.outstanding(), vec![NodeId(2)]);
        let report = round.complete(&mine, t(2));
        assert_eq!(report.lines.len(), 3);
        assert!(report.triple_of(NodeId(2)).is_none(), "silent peer must not appear");
        assert!(!report.any_inconsistency, "responders all matched");
    }

    #[test]
    fn zero_reply_deadline_reports_initiator_alone() {
        // Everyone timed out: the report degenerates to the initiator's own
        // replica as the reference — no inconsistency observable.
        let mine = evv(&[(0, 1, 1, 5)]);
        let round = DetectRound::start(NodeId(7), 9, &[NodeId(1), NodeId(2)], t(0), mine.clone());
        assert_eq!(round.outstanding().len(), 2);
        let report = round.complete(&mine, t(3));
        assert_eq!(report.reference, NodeId(7));
        assert_eq!(report.lines.len(), 1);
        assert!(!report.any_inconsistency);
        assert!(report.triple_of(NodeId(7)).unwrap().is_zero());
        assert_eq!(report.delay(), SimDuration::from_secs(3));
    }

    #[test]
    fn figure4_numbers_flow_through_report() {
        // Reference replica b at node 1 (higher id), replica a at node 0 —
        // reproduces the Figure 4 walk-through end to end.
        let mut a = ExtendedVersionVector::new();
        let mut b = ExtendedVersionVector::new();
        a.record(WriterId(1), 1, t(1), 2);
        b.record(WriterId(1), 1, t(1), 2);
        a.record(WriterId(0), 1, t(2), 1);
        a.record(WriterId(0), 2, t(2), 2);
        b.record(WriterId(1), 2, t(3), 6);

        let mut round = DetectRound::start(NodeId(0), 1, &[NodeId(1)], t(3), a.clone());
        round.on_reply(NodeId(1), b);
        let report = round.complete(&a, t(4));
        assert_eq!(report.reference, NodeId(1));
        let ta = report.triple_of(NodeId(0)).unwrap();
        assert_eq!(ta.numerical, 3.0);
        assert_eq!(ta.order, 3.0);
        assert_eq!(ta.staleness, SimDuration::from_secs(2));
    }
}
