//! Wire messages of the IDEA protocol.
//!
//! One enum covers all sub-protocols so a single [`idea_net::Proto`] node
//! can run them together; [`idea_net::Wire`] classifies each variant for the
//! per-class accounting Table 3 relies on.
//!
//! Detection traffic is **compact**: probes carry a [`VvSummary`]
//! (counters, metadata and a bounded timestamp tail) and answers carry a
//! [`VvDelta`] (the exact per-writer suffixes beyond the probe's
//! counters), so detection cost scales with divergence, not with total
//! update history. The resolution plane follows the same
//! divergence-proportional rule: [`IdeaMsg::CollectRequest`] piggybacks
//! the initiator's summary so members answer with an
//! [`IdeaMsg::CollectDelta`] (suffixes beyond the probe, reconstructed
//! losslessly on the initiator), [`IdeaMsg::Inform`] encodes the chosen
//! reference as per-writer overrides against the member's own collect
//! answer ([`ReferenceWire`]), and [`IdeaMsg::FetchReply`] streams missing
//! updates in bounded chunks driven by a `done` continuation flag.
//!
//! Gossip is one transport: [`IdeaMsg::SweepRumor`] bodies on a node's
//! eager links, rumor ids on its lazy links (piggybacked on detect frames
//! as [`DigestGroup`]s or flushed in an [`IdeaMsg::GossipDigest`]),
//! [`IdeaMsg::GossipPull`] for a body a node was advertised but missed,
//! and [`IdeaMsg::GossipPrune`] to demote a link a duplicate body arrived
//! on.

use crate::resolution::ReferenceWire;
use idea_net::{MsgClass, Wire};
use idea_overlay::gossip::{RumorId, DIGEST_ENTRY_BYTES};
use idea_types::{ObjectId, Update};
use idea_vv::{VersionVector, VvDelta, VvSummary};
use std::sync::Arc;

/// One object's worth of piggybacked lazy-gossip advertisements.
///
/// A detect frame carries at most one group: the probed object's pending
/// IHAVEs bound for the frame's peer. Other objects' advertisements wait
/// for their own detect traffic or the flush timer, so when an advert is
/// delivered never depends on which objects share a shard. The list form
/// lets a receiver apply any number of groups. Each group costs an 8-byte
/// object header plus [`DIGEST_ENTRY_BYTES`] per advertised rumor; an
/// empty group list costs zero bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestGroup {
    /// Object the advertised rumors sweep.
    pub(crate) object: ObjectId,
    /// Advertised rumor ids with their remaining hop budgets.
    pub(crate) ids: Vec<(RumorId, u8)>,
}

impl DigestGroup {
    /// Approximate serialized size: object header + compact entries.
    pub(crate) fn wire_bytes(&self) -> usize {
        8 + DIGEST_ENTRY_BYTES * self.ids.len()
    }
}

fn digest_bytes(groups: &[DigestGroup]) -> usize {
    groups.iter().map(DigestGroup::wire_bytes).sum()
}

/// All messages exchanged by [`crate::protocol::IdeaNode`]s.
#[derive(Debug, Clone)]
pub enum IdeaMsg {
    // ---- detection (§4.3) ----
    /// Initiator → top-layer peer: "here is my vector, send me yours".
    DetectRequest {
        /// Round correlation id (initiator-local).
        round: u64,
        /// Object being checked.
        object: ObjectId,
        /// Compact summary of the initiator's extended version vector,
        /// built once per round and shared by all of its requests.
        summary: Arc<VvSummary>,
        /// Piggybacked lazy-gossip advertisements: the probed object's
        /// pending IHAVEs for this peer, if any (see `DigestGroup`).
        digests: Vec<DigestGroup>,
    },
    /// Peer → initiator: the peer's vector, as a delta against the probe.
    DetectReply {
        /// Echoed round id.
        round: u64,
        /// Object being checked.
        object: ObjectId,
        /// The peer's per-writer suffixes beyond the probe's counters.
        delta: VvDelta,
        /// Piggybacked lazy-gossip advertisements (see
        /// [`IdeaMsg::DetectRequest::digests`]).
        digests: Vec<DigestGroup>,
    },

    // ---- active resolution, phase 1 (§4.5.2) ----
    /// Initiator → members, in parallel: call for attention.
    CallForAttention {
        /// Resolution correlation id.
        rid: u64,
        /// Object being resolved.
        object: ObjectId,
    },
    /// Member → initiator: positive or negative acknowledgement.
    Attention {
        /// Echoed resolution id.
        rid: u64,
        /// Object being resolved.
        object: ObjectId,
        /// `true` when the member granted attention; `false` when another
        /// initiator already holds it (the caller must back off).
        granted: bool,
    },

    // ---- resolution phase 2 (shared by active and background) ----
    /// Initiator → one member: send me your version information.
    CollectRequest {
        /// Resolution id.
        rid: u64,
        /// Object being resolved.
        object: ObjectId,
        /// Compact summary of the initiator's own vector, built once per
        /// round and shared by all of its requests; the member answers
        /// with an [`IdeaMsg::CollectDelta`] against it.
        probe: Arc<VvSummary>,
    },
    /// Member → initiator: the member's vector as suffixes beyond the
    /// request's probe. The initiator reconstructs the full vector
    /// losslessly against the snapshot it probed with
    /// ([`idea_vv::ExtendedVersionVector::reconstruct`]), so reference
    /// selection sees every member's whole vector at a fraction of the
    /// bytes.
    CollectDelta {
        /// Echoed resolution id.
        rid: u64,
        /// Object being resolved.
        object: ObjectId,
        /// The member's per-writer suffixes beyond the probe's counters.
        delta: VvDelta,
    },
    /// Initiator → members: the chosen reference consistent state.
    Inform {
        /// Resolution id.
        rid: u64,
        /// Object being resolved.
        object: ObjectId,
        /// Winner + sanctioned counts, encoded full or as overrides
        /// against this member's own collect answer — whichever is
        /// smaller on the wire.
        reference: ReferenceWire,
    },

    // ---- update transfer ----
    /// Member → reference holder: ship me what I miss.
    FetchRequest {
        /// Object to fetch.
        object: ObjectId,
        /// The requester's current counters.
        have: VersionVector,
    },
    /// Reference holder → member: the missing updates (batched, bounded
    /// by `max_fetch_updates` per frame when chunking is configured).
    FetchReply {
        /// Object fetched.
        object: ObjectId,
        /// Updates the requester was missing — in log order, so any
        /// prefix is per-writer seq-consecutive and ingests cleanly.
        updates: Vec<Update>,
        /// `false` when the holder truncated the backlog to the chunk
        /// bound: the requester answers with a continuation
        /// [`IdeaMsg::FetchRequest`] carrying its advanced counters.
        done: bool,
    },

    // ---- bottom-layer sweep (§4.4.2) ----
    /// TTL-bounded gossip rumor probing the bottom layer.
    SweepRumor {
        /// Gossip rumor identity (origin + sequence).
        id: RumorId,
        /// Remaining hop budget.
        ttl: u8,
        /// Object being swept.
        object: ObjectId,
        /// The origin's counters; receivers holding more reply directly.
        /// One allocation per rumor: every relayed copy, cache entry and
        /// pull reply in a process shares the originator's body.
        counters: Arc<VersionVector>,
    },
    /// Bottom node → sweep origin: "I hold updates you have not seen".
    SweepDivergence {
        /// Object swept.
        object: ObjectId,
        /// Echo of the sweep's rumor sequence, so the origin can route the
        /// reply to the right collector.
        sweep: u64,
        /// The diverging node's suffixes beyond the sweep's counters.
        delta: VvDelta,
    },

    // ---- lazy gossip plane (IHAVE / pull) ----
    /// Standalone digest flush: rumor ids this node holds bodies for,
    /// advertised on lazy links when no detect traffic was available to
    /// piggyback on. Encoded at [`DIGEST_ENTRY_BYTES`] per entry.
    GossipDigest {
        /// Object the advertised rumors sweep.
        object: ObjectId,
        /// Advertised rumor ids with their remaining hop budgets.
        ids: Vec<(RumorId, u8)>,
    },
    /// Digest receiver → advertiser: "send me the body of this rumor".
    GossipPull {
        /// Object the rumor sweeps.
        object: ObjectId,
        /// The rumor whose body is missing here.
        id: RumorId,
    },
    /// Duplicate-body receiver → redundant pusher: "your eager link to me
    /// is not load-bearing — demote it to the lazy side". The Plumtree
    /// repair signal that trims the eager overlay towards a spanning tree.
    GossipPrune {
        /// Object whose gossip overlay the link belongs to.
        object: ObjectId,
    },
}

impl IdeaMsg {
    /// The object this message is about. Every IDEA message is
    /// object-addressed, which is what lets the engines route it to the
    /// store shard owning the object.
    pub(crate) fn object(&self) -> ObjectId {
        match self {
            IdeaMsg::DetectRequest { object, .. }
            | IdeaMsg::DetectReply { object, .. }
            | IdeaMsg::CallForAttention { object, .. }
            | IdeaMsg::Attention { object, .. }
            | IdeaMsg::CollectRequest { object, .. }
            | IdeaMsg::CollectDelta { object, .. }
            | IdeaMsg::Inform { object, .. }
            | IdeaMsg::FetchRequest { object, .. }
            | IdeaMsg::FetchReply { object, .. }
            | IdeaMsg::SweepRumor { object, .. }
            | IdeaMsg::SweepDivergence { object, .. }
            | IdeaMsg::GossipDigest { object, .. }
            | IdeaMsg::GossipPull { object, .. }
            | IdeaMsg::GossipPrune { object } => *object,
        }
    }
}

impl Wire for IdeaMsg {
    fn class(&self) -> MsgClass {
        match self {
            IdeaMsg::DetectRequest { .. } | IdeaMsg::DetectReply { .. } => MsgClass::Detect,
            IdeaMsg::CallForAttention { .. }
            | IdeaMsg::Attention { .. }
            | IdeaMsg::CollectRequest { .. }
            | IdeaMsg::CollectDelta { .. }
            | IdeaMsg::Inform { .. }
            | IdeaMsg::FetchRequest { .. } => MsgClass::ResolutionCtl,
            IdeaMsg::FetchReply { .. } => MsgClass::Transfer,
            IdeaMsg::SweepRumor { .. }
            | IdeaMsg::SweepDivergence { .. }
            | IdeaMsg::GossipDigest { .. }
            | IdeaMsg::GossipPull { .. }
            | IdeaMsg::GossipPrune { .. } => MsgClass::Gossip,
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            IdeaMsg::DetectRequest { summary, digests, .. } => {
                24 + summary.wire_bytes() + digest_bytes(digests)
            }
            IdeaMsg::DetectReply { delta, digests, .. } => {
                24 + delta.wire_bytes() + digest_bytes(digests)
            }
            IdeaMsg::SweepDivergence { delta, .. } => 24 + delta.wire_bytes(),
            IdeaMsg::CollectDelta { delta, .. } => 24 + delta.wire_bytes(),
            IdeaMsg::CallForAttention { .. } | IdeaMsg::Attention { .. } => 24,
            IdeaMsg::CollectRequest { probe, .. } => 24 + probe.wire_bytes(),
            IdeaMsg::Inform { reference, .. } => 24 + reference.wire_bytes(),
            IdeaMsg::FetchRequest { have, .. } => 24 + 12 * have.writers(),
            IdeaMsg::FetchReply { updates, .. } => {
                25 + updates.iter().map(|u| u.wire_size()).sum::<usize>()
            }
            IdeaMsg::SweepRumor { counters, .. } => 32 + 12 * counters.writers(),
            IdeaMsg::GossipDigest { ids, .. } => 16 + DIGEST_ENTRY_BYTES * ids.len(),
            IdeaMsg::GossipPull { .. } => 24,
            IdeaMsg::GossipPrune { .. } => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::{SimTime, WriterId};
    use idea_vv::ExtendedVersionVector;

    fn sample_evv() -> ExtendedVersionVector {
        let mut v = ExtendedVersionVector::new();
        v.record(WriterId(0), 1, SimTime::from_secs(1), 5);
        v.record(WriterId(1), 1, SimTime::from_secs(2), 3);
        v
    }

    #[test]
    fn classes_match_protocol_roles() {
        let evv = sample_evv();
        assert_eq!(
            IdeaMsg::DetectRequest {
                round: 1,
                object: ObjectId(0),
                summary: Arc::new(evv.summary(8)),
                digests: vec![],
            }
            .class(),
            MsgClass::Detect
        );
        assert_eq!(
            IdeaMsg::CallForAttention { rid: 1, object: ObjectId(0) }.class(),
            MsgClass::ResolutionCtl
        );
        assert_eq!(
            IdeaMsg::CollectDelta {
                rid: 1,
                object: ObjectId(0),
                delta: evv.suffix_since(&VersionVector::new()),
            }
            .class(),
            MsgClass::ResolutionCtl
        );
        assert_eq!(
            IdeaMsg::FetchReply { object: ObjectId(0), updates: vec![], done: true }.class(),
            MsgClass::Transfer
        );
        assert_eq!(
            IdeaMsg::SweepDivergence {
                object: ObjectId(0),
                sweep: 0,
                delta: evv.suffix_since(&VersionVector::new()),
            }
            .class(),
            MsgClass::Gossip
        );
    }

    #[test]
    fn sizes_scale_with_content() {
        let small = IdeaMsg::DetectRequest {
            round: 1,
            object: ObjectId(0),
            summary: Arc::new(ExtendedVersionVector::new().summary(8)),
            digests: vec![],
        };
        let big = IdeaMsg::DetectRequest {
            round: 1,
            object: ObjectId(0),
            summary: Arc::new(sample_evv().summary(8)),
            digests: vec![],
        };
        assert!(big.wire_size() > small.wire_size());

        let empty_fetch = IdeaMsg::FetchReply { object: ObjectId(0), updates: vec![], done: true };
        let full_fetch = IdeaMsg::FetchReply {
            object: ObjectId(0),
            updates: vec![idea_types::Update::opaque(
                ObjectId(0),
                WriterId(0),
                1,
                SimTime::ZERO,
                1,
            )],
            done: false,
        };
        assert!(full_fetch.wire_size() > empty_fetch.wire_size());
    }

    #[test]
    fn control_messages_stay_small() {
        // Table 3's bandwidth argument rests on control packets ≤ ~1 KB.
        let cfa = IdeaMsg::CallForAttention { rid: 1, object: ObjectId(0) };
        assert!(cfa.wire_size() <= 1024);
        let rumor = IdeaMsg::SweepRumor {
            id: RumorId { origin: idea_types::NodeId(0), seq: 0 },
            ttl: 4,
            object: ObjectId(0),
            counters: Arc::new(sample_evv().counters().clone()),
        };
        assert!(rumor.wire_size() <= 1024);
    }

    /// The acceptance criterion of the wire compaction: detection-class
    /// messages never grow with total history, only with divergence.
    #[test]
    fn detect_messages_are_history_independent() {
        let mut long = ExtendedVersionVector::new();
        for s in 1..=500 {
            long.record(WriterId(0), s, SimTime::from_secs(s), 1);
        }
        let probe = IdeaMsg::DetectRequest {
            round: 1,
            object: ObjectId(0),
            summary: Arc::new(long.summary(8)),
            digests: vec![],
        };
        // A full-history probe would weigh 16 + 12 + 8·500 ≈ 4 KB.
        assert!(probe.wire_size() < 200, "got {}", probe.wire_size());

        // A peer one update behind gets a one-timestamp delta.
        let mut have = idea_vv::VersionVector::new();
        have.observe(WriterId(0), 499);
        let reply = IdeaMsg::DetectReply {
            round: 1,
            object: ObjectId(0),
            delta: long.suffix_since(&have),
            digests: vec![],
        };
        assert!(reply.wire_size() < 96, "got {}", reply.wire_size());
    }

    /// Piggybacked digests are free when absent and cost exactly their
    /// group header plus the compact encoding per entry otherwise.
    #[test]
    fn piggybacked_digests_cost_exactly_their_encoding() {
        let base = IdeaMsg::DetectRequest {
            round: 1,
            object: ObjectId(0),
            summary: Arc::new(sample_evv().summary(8)),
            digests: vec![],
        };
        let id = RumorId { origin: idea_types::NodeId(3), seq: 7 };
        let loaded = IdeaMsg::DetectRequest {
            round: 1,
            object: ObjectId(0),
            summary: Arc::new(sample_evv().summary(8)),
            digests: vec![DigestGroup { object: ObjectId(0), ids: vec![(id, 4), (id, 3)] }],
        };
        assert_eq!(loaded.wire_size(), base.wire_size() + 8 + 2 * DIGEST_ENTRY_BYTES);
        // A second object's group rides the same frame for one more
        // header — cheaper than the 24-byte frame a standalone
        // GossipDigest would cost.
        let batched = IdeaMsg::DetectRequest {
            round: 1,
            object: ObjectId(0),
            summary: Arc::new(sample_evv().summary(8)),
            digests: vec![
                DigestGroup { object: ObjectId(0), ids: vec![(id, 4), (id, 3)] },
                DigestGroup { object: ObjectId(9), ids: vec![(id, 2)] },
            ],
        };
        assert_eq!(batched.wire_size(), loaded.wire_size() + 8 + DIGEST_ENTRY_BYTES);

        let digest = IdeaMsg::GossipDigest { object: ObjectId(0), ids: vec![(id, 4)] };
        assert_eq!(digest.class(), MsgClass::Gossip);
        assert_eq!(digest.wire_size(), 16 + DIGEST_ENTRY_BYTES);
        let pull = IdeaMsg::GossipPull { object: ObjectId(0), id };
        assert_eq!(pull.class(), MsgClass::Gossip);
        assert!(pull.wire_size() <= 32);

        let prune = IdeaMsg::GossipPrune { object: ObjectId(0) };
        assert_eq!(prune.class(), MsgClass::Gossip);
        assert_eq!(prune.object(), ObjectId(0));
        assert_eq!(prune.wire_size(), 16);
    }

    /// The resolution-plane analogue of
    /// [`detect_messages_are_history_independent`]: a collect answer to a
    /// nearly-caught-up initiator costs bytes proportional to the gap, not
    /// to the 500-update history it has.
    #[test]
    fn collect_delta_scales_with_divergence_not_history() {
        let mut long = ExtendedVersionVector::new();
        for s in 1..=500 {
            long.record(WriterId(0), s, SimTime::from_secs(s), 1);
        }

        // The initiator is one update behind; its probe advertises w0:499.
        let mut probe_state = ExtendedVersionVector::new();
        for s in 1..=499 {
            probe_state.record(WriterId(0), s, SimTime::from_secs(s), 1);
        }
        let probe = probe_state.summary(8);
        let request =
            IdeaMsg::CollectRequest { rid: 1, object: ObjectId(0), probe: Arc::new(probe.clone()) };
        assert_eq!(request.wire_size(), 24 + probe.wire_bytes());
        assert!(request.wire_size() < 200, "got {}", request.wire_size());

        let compact = IdeaMsg::CollectDelta {
            rid: 1,
            object: ObjectId(0),
            delta: long.suffix_since(&probe.counters),
        };
        assert!(compact.wire_size() < 96, "got {}", compact.wire_size());

        // An Inform whose member already acked the sanctioned counts is a
        // near-empty override list; the full fallback form costs exactly
        // what the pre-compaction Inform did.
        let reference = crate::resolution::ReferenceState {
            winner: Some(idea_types::NodeId(2)),
            counts: long.counters().clone(),
        };
        let delta_inform = IdeaMsg::Inform {
            rid: 1,
            object: ObjectId(0),
            reference: ReferenceWire::encode(&reference, long.counters()),
        };
        let full_inform = IdeaMsg::Inform {
            rid: 1,
            object: ObjectId(0),
            reference: ReferenceWire::Full(reference.clone()),
        };
        assert_eq!(delta_inform.wire_size(), 32);
        assert_eq!(full_inform.wire_size(), 32 + 12 * reference.counts.writers());
    }
}
