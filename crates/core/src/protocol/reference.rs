//! Helpers shared by both resolution kinds: the phase-2 fan-out policy,
//! the reconciliation that adopts a chosen reference consistent state, and
//! the contention back-off delay (§4.5.2).

use super::NodeCore;
use crate::messages::IdeaMsg;
use crate::resolution::ReferenceState;
use idea_net::Context;
use idea_types::{ConsistencyLevel, NodeId, ObjectId};
use rand::Rng;

/// Phase-2 fan-out: all members at once when `parallel_phase2` is set, one
/// member at a time (the paper's design) otherwise. `probe` is the
/// initiator's own vector summary — members answer with a delta against
/// it instead of their full vector.
pub(super) fn send_collects(
    core: &NodeCore,
    object: ObjectId,
    rid: u64,
    members: &[NodeId],
    from_index: usize,
    probe: &idea_vv::VvSummary,
    ctx: &mut dyn Context<IdeaMsg>,
) {
    if core.cfg.parallel_phase2 {
        if from_index == 0 {
            for &m in members {
                ctx.send(m, IdeaMsg::CollectRequest { rid, object, probe: probe.clone() });
            }
        }
    } else if let Some(&m) = members.get(from_index) {
        ctx.send(m, IdeaMsg::CollectRequest { rid, object, probe: probe.clone() });
    }
}

/// Brings the local replica to the reference state: drop unsanctioned
/// updates, fetch missing ones from the winner.
pub(super) fn apply_reference(
    core: &mut NodeCore,
    object: ObjectId,
    reference: &ReferenceState,
    ctx: &mut dyn Context<IdeaMsg>,
) {
    let my_writer = core.store.writer();
    core.open(object);
    // Through the store wrapper so the transition is WAL-logged when
    // durability is on (a recovering node must not resurrect updates the
    // reference dropped).
    let _invalidated = core.store.drop_extras(object, &reference.counts).expect("opened above");
    let have = core.store.replica(object).expect("opened above").version().counters().clone();
    // Local sequencing resumes from the sanctioned count (see module docs
    // on sequence reuse).
    let resume = reference.counts.get(my_writer).max(have.get(my_writer));
    core.store.resume_writes_after(object, resume);

    let need = have.missing_from(&reference.counts);
    match reference.winner {
        Some(w) if w != core.me && need > 0 => {
            ctx.send(w, IdeaMsg::FetchRequest { object, have });
            // Level settles when the fetch lands.
        }
        _ => {
            core.obj_mut(object).level = ConsistencyLevel::PERFECT;
        }
    }
}

/// Uniform back-off delay in `[backoff_min, backoff_max)` (§4.5.2).
pub(super) fn backoff_delay(
    core: &NodeCore,
    ctx: &mut dyn Context<IdeaMsg>,
) -> idea_types::SimDuration {
    let lo = core.cfg.backoff_min.as_micros();
    let hi = core.cfg.backoff_max.as_micros().max(lo + 1);
    idea_types::SimDuration::from_micros(ctx.rng().gen_range(lo..hi))
}
