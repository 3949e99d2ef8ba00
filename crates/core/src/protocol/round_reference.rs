//! The detection round as it was before it was folded into the detection
//! plane: every participant's triple against the reference, aggregated
//! into a report the plane then read one line of. Kept verbatim (minus the
//! conflict flags, timestamps and accessors nothing here calls) as the
//! equivalence reference for the folded `DetectRound`.

use idea_types::{ErrorTriple, NodeId};
use idea_vv::ExtendedVersionVector;

/// Per-replica line of a completed round.
struct ReplicaLine {
    node: NodeId,
    triple: ErrorTriple,
}

/// Aggregate of one completed detection round.
pub(super) struct DetectReport {
    lines: Vec<ReplicaLine>,
}

impl DetectReport {
    /// The triple of `node` against the reference, if it participated.
    pub fn triple_of(&self, node: NodeId) -> Option<ErrorTriple> {
        self.lines.iter().find(|l| l.node == node).map(|l| l.triple)
    }
}

/// An in-flight detection round at the initiator, fed full vectors.
pub(super) struct DetectRound {
    me: NodeId,
    expected: Vec<NodeId>,
    replies: Vec<(NodeId, ExtendedVersionVector)>,
}

impl DetectRound {
    pub fn start(me: NodeId, peers: &[NodeId]) -> Self {
        DetectRound { me, expected: peers.to_vec(), replies: Vec::with_capacity(peers.len()) }
    }

    /// Records a reply. Returns `true` when the round is complete.
    pub fn on_reply(&mut self, from: NodeId, evv: ExtendedVersionVector) -> bool {
        if self.expected.contains(&from) && !self.replies.iter().any(|(n, _)| *n == from) {
            self.replies.push((from, evv));
        }
        self.replies.len() == self.expected.len()
    }

    /// Completes the round with whoever answered. `mine` is the initiator's
    /// vector.
    pub fn complete(self, mine: &ExtendedVersionVector) -> DetectReport {
        // Reference = highest node id among participants (§4.4.1).
        let mut participants: Vec<(NodeId, &ExtendedVersionVector)> = vec![(self.me, mine)];
        for (n, evv) in &self.replies {
            participants.push((*n, evv));
        }
        let ref_evv = participants
            .iter()
            .max_by_key(|(n, _)| *n)
            .map(|(_, e)| *e)
            .expect("initiator always participates");
        let lines = participants
            .iter()
            .map(|(n, evv)| ReplicaLine { node: *n, triple: evv.triple_against(ref_evv) })
            .collect();
        DetectReport { lines }
    }
}
