//! Messages shared by the baseline protocols.

use idea_net::{MsgClass, Wire};
use idea_types::{ObjectId, Update, UpdateId};
use idea_vv::VersionVector;

/// Wire messages of the three baseline protocols.
#[derive(Debug, Clone)]
pub(crate) enum BaselineMsg {
    /// Optimistic anti-entropy: "here are my counters" (one-way pull).
    SyncDigest {
        /// Object being synchronised.
        object: ObjectId,
        /// The sender's counters.
        counters: VersionVector,
    },
    /// Anti-entropy response / TACT push: the updates the peer was missing.
    SyncUpdates {
        /// Updates shipped.
        updates: Vec<Update>,
    },
    /// Strong consistency: eager synchronous propagation of one update.
    Propagate {
        /// The update itself.
        update: Update,
    },
    /// Strong consistency: acknowledgement of a propagated update.
    PropagateAck {
        /// Identity of the acknowledged update.
        id: UpdateId,
    },
}

impl Wire for BaselineMsg {
    fn class(&self) -> MsgClass {
        match self {
            BaselineMsg::SyncDigest { .. } => MsgClass::Detect,
            BaselineMsg::SyncUpdates { .. } => MsgClass::Transfer,
            BaselineMsg::Propagate { .. } => MsgClass::Transfer,
            BaselineMsg::PropagateAck { .. } => MsgClass::ResolutionCtl,
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            BaselineMsg::SyncDigest { counters, .. } => 16 + 12 * counters.writers(),
            BaselineMsg::SyncUpdates { updates, .. } => {
                16 + updates.iter().map(|u| u.wire_size()).sum::<usize>()
            }
            BaselineMsg::Propagate { update, .. } => 16 + update.wire_size(),
            BaselineMsg::PropagateAck { .. } => 24,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::{SimTime, WriterId};

    #[test]
    fn classes_and_sizes() {
        let digest = BaselineMsg::SyncDigest {
            object: ObjectId(0),
            counters: VersionVector::from_pairs([(WriterId(0), 3)]),
        };
        assert_eq!(digest.class(), MsgClass::Detect);
        assert!(digest.wire_size() > 16);

        let u = Update::opaque(ObjectId(0), WriterId(0), 1, SimTime::ZERO, 1);
        let push = BaselineMsg::SyncUpdates { updates: vec![u.clone()] };
        assert_eq!(push.class(), MsgClass::Transfer);
        let prop = BaselineMsg::Propagate { update: u };
        assert_eq!(push.wire_size(), prop.wire_size());
        assert_eq!(
            BaselineMsg::PropagateAck { id: prop_id(&prop) }.class(),
            MsgClass::ResolutionCtl
        );
    }

    fn prop_id(m: &BaselineMsg) -> idea_types::UpdateId {
        match m {
            BaselineMsg::Propagate { update, .. } => update.id,
            _ => unreachable!(),
        }
    }
}
