//! The Table-1 developer interface in action (§4.7): casting an
//! application onto IDEA's consistency metric, re-weighting, switching
//! resolution policies and background frequencies at runtime — each
//! Table-1 setter is one `ConsistencySpec` builder call.
//!
//! ```bash
//! cargo run --example adaptive_tuning
//! ```

use idea::prelude::*;

fn main() {
    let object = ObjectId(1);
    let mut node = IdeaNode::new(NodeId(0), IdeaConfig::default(), &[object]);

    let spec = ConsistencySpec::builder()
        // set_consistency_metric: a numerical gap of 500, an order error of
        // 20 or 30 s of staleness each saturate their member.
        .metric(500.0, 20.0, SimDuration::from_secs(30))
        // set_weight: this application cares mostly about ordering.
        .weights(0.2, 0.7, 0.1)
        // set_resolution: 1 = invalidate both, 2 = user-ID based, 3 = priority.
        .resolution_code(3)
        // set_hint: hint-based control at 88 %.
        .hint(0.88)
        // set_background_freq: a safety net every 30 s.
        .background_every(SimDuration::from_secs(30))
        .build()
        .expect("every field is in its domain");
    spec.apply_to(&mut node).unwrap();
    node.set_priority(NodeId(2), 9); // node 2 is the supervisor

    println!("configured: {:?}", node.config().policy);
    println!("weights: {:?}", node.quantifier().weights());
    println!("bounds:  {:?}", node.quantifier().bounds());
    println!("hint floor: {}", node.hint().floor());

    // Quantify a few hypothetical error triples under this configuration.
    for (num, order, stale) in [(0.0, 0.0, 0), (100.0, 2.0, 5), (400.0, 10.0, 20)] {
        let triple = ErrorTriple::new(num, order, SimDuration::from_secs(stale));
        println!(
            "triple <num {num}, order {order}, stale {stale}s> -> level {}",
            node.quantifier().level(&triple)
        );
    }

    // The same spec drives a live cluster: drop the node into an engine and
    // keep tuning while it runs.
    let nodes: Vec<IdeaNode> =
        (0..4).map(|i| IdeaNode::new(NodeId(i), IdeaConfig::default(), &[object])).collect();
    let mut net = SimEngine::new(Topology::lan(4), SimConfig::default(), nodes);
    let retune = ConsistencySpec::builder().hint(0.95).resolution_code(2).build().unwrap();
    net.with_node(NodeId(1), |n, _| retune.apply_to(n).unwrap());
    net.run_for(SimDuration::from_secs(1));
    println!("\nlive node 1 hint floor: {}", net.node(NodeId(1)).hint().floor());
}
