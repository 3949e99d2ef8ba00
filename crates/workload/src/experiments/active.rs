//! Shared machinery for the active-resolution delay experiments
//! (Table 2, Figure 9, ablation A3).

use idea_core::{IdeaConfig, IdeaNode, ResolutionRecord};
use idea_net::{SimConfig, SimEngine, Topology};
use idea_types::{NodeId, ObjectId, SimDuration, UpdatePayload};

const OBJ: ObjectId = ObjectId(1);

/// Builds a warmed cluster whose top layer is exactly the `writers` nodes.
pub(crate) fn warmed_cluster(
    nodes: usize,
    writers: usize,
    seed: u64,
    parallel_phase2: bool,
) -> SimEngine<IdeaNode> {
    assert!(writers >= 2 && writers <= nodes);
    let cfg = IdeaConfig { parallel_phase2, ..Default::default() };
    let protos: Vec<IdeaNode> =
        (0..nodes).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ])).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(nodes, seed),
        SimConfig { seed, ..Default::default() },
        protos,
    );
    // Three write waves form and stabilise the top layer.
    for _ in 0..3 {
        for w in 0..writers {
            eng.with_node(NodeId(w as u32), |p, ctx| {
                p.local_write(OBJ, 1, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
            });
            eng.run_for(SimDuration::from_millis(400));
        }
    }
    eng.run_for(SimDuration::from_secs(3));
    eng
}

/// Runs one active resolution per initiator (the paper runs the scheme four
/// times, "each time we pick a different writer to initiate"), returning
/// the per-run records.
pub(crate) fn measure_active_rounds(
    nodes: usize,
    writers: usize,
    seed: u64,
    parallel_phase2: bool,
) -> Vec<ResolutionRecord> {
    let mut eng = warmed_cluster(nodes, writers, seed, parallel_phase2);
    let mut records = Vec::new();
    for initiator in 0..writers {
        // Fresh divergence: one conflicting write per writer.
        for w in 0..writers {
            eng.with_node(NodeId(w as u32), |p, ctx| {
                p.local_write(OBJ, 1, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
            });
        }
        eng.run_for(SimDuration::from_secs(1));
        let before = eng.node(NodeId(initiator as u32)).resolution_count();
        eng.with_node(NodeId(initiator as u32), |p, ctx| {
            p.demand_active_resolution(OBJ, ctx);
        });
        eng.run_for(SimDuration::from_secs(8));
        let log = eng.node(NodeId(initiator as u32)).resolution_log();
        assert!(log.len() > before, "initiator {initiator} never completed its resolution");
        records.push(log[log.len() - 1].clone());
    }
    records
}

/// Mean of a duration-valued field over records, in milliseconds.
pub(crate) fn mean_ms(records: &[ResolutionRecord], f: impl Fn(&ResolutionRecord) -> f64) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().map(f).sum::<f64>() / records.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmed_cluster_has_expected_top_layer() {
        let eng = warmed_cluster(8, 4, 1, false);
        let members = eng.node(NodeId(0)).report(OBJ).top_members;
        assert_eq!(members.len(), 4);
    }

    #[test]
    fn measure_runs_one_round_per_initiator() {
        let records = measure_active_rounds(8, 3, 2, false);
        assert_eq!(records.len(), 3);
        for r in &records {
            assert_eq!(r.members, 2);
            assert!(r.phase2 > SimDuration::from_millis(50));
        }
    }

    #[test]
    fn mean_ms_averages() {
        let records = measure_active_rounds(8, 3, 3, false);
        let m = mean_ms(&records, |r| r.phase2.as_millis_f64());
        assert!(m > 0.0);
    }
}
