//! Cross-crate integration: the full IDEA stack on the simulator.

use idea::prelude::*;

const OBJ: ObjectId = ObjectId(1);

fn cluster(n: usize, cfg: IdeaConfig, seed: u64) -> SimEngine<IdeaNode> {
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ])).collect();
    SimEngine::new(Topology::planetlab(n, seed), SimConfig { seed, ..Default::default() }, nodes)
}

fn write(eng: &mut SimEngine<IdeaNode>, node: u32, delta: i64) {
    eng.with_node(NodeId(node), |p, ctx| {
        p.local_write(OBJ, delta, UpdatePayload::none(), ctx);
    });
}

fn warm(eng: &mut SimEngine<IdeaNode>, writers: usize) {
    for _ in 0..3 {
        for w in 0..writers as u32 {
            write(eng, w, 1);
            eng.run_for(SimDuration::from_millis(400));
        }
    }
    eng.run_for(SimDuration::from_secs(2));
}

#[test]
fn detect_quantify_resolve_lifecycle() {
    let mut eng = cluster(12, IdeaConfig::default(), 1);
    warm(&mut eng, 4);

    // Divergence shows up as sub-perfect levels on non-reference writers.
    for w in 0..4 {
        write(&mut eng, w, 3);
    }
    eng.run_for(SimDuration::from_secs(2));
    let before: Vec<ConsistencyLevel> = (0..4).map(|w| eng.node(NodeId(w)).level(OBJ)).collect();
    assert!(before.iter().any(|l| *l < ConsistencyLevel::PERFECT));

    // Resolution restores agreement end to end.
    eng.with_node(NodeId(2), |p, ctx| p.demand_active_resolution(OBJ, ctx));
    eng.run_for(SimDuration::from_secs(6));
    let metas: Vec<i64> = (0..4).map(|w| eng.node(NodeId(w)).report(OBJ).meta).collect();
    assert!(metas.windows(2).all(|m| m[0] == m[1]), "metas {metas:?}");
    let vv3 = eng.node(NodeId(3)).replica(OBJ).unwrap().version().clone();
    for w in 0..3 {
        let vvw = eng.node(NodeId(w)).replica(OBJ).unwrap().version().clone();
        assert_eq!(vvw.compare(&vv3), VvOrdering::Equal, "node {w} vector diverges");
    }
}

#[test]
fn hint_learning_survives_user_complaints() {
    let mut cfg = IdeaConfig::whiteboard(0.90);
    cfg.hint_delta = 0.03;
    let mut eng = cluster(8, cfg, 2);
    warm(&mut eng, 4);
    let floor0 = eng.node(NodeId(1)).hint().floor();
    for _ in 0..2 {
        eng.with_node(NodeId(1), |p, ctx| p.user_dissatisfied(OBJ, None, ctx));
        eng.run_for(SimDuration::from_secs(3));
    }
    let floor1 = eng.node(NodeId(1)).hint().floor();
    assert!(floor1 > floor0);
    assert_eq!(eng.node(NodeId(1)).hint().complaints(), 2);
}

#[test]
fn message_loss_does_not_wedge_the_protocol() {
    let mut eng = cluster(8, IdeaConfig::default(), 3);
    warm(&mut eng, 4);
    eng.set_loss_rate(0.15);
    for _ in 0..4 {
        for w in 0..4 {
            write(&mut eng, w, 1);
        }
        eng.run_for(SimDuration::from_secs(5));
    }
    // Detection deadlines cope with lost replies; a demanded resolution may
    // need retries but the system keeps making progress.
    eng.set_loss_rate(0.0);
    eng.with_node(NodeId(0), |p, ctx| p.demand_active_resolution(OBJ, ctx));
    eng.run_for(SimDuration::from_secs(8));
    let metas: Vec<i64> = (0..4).map(|w| eng.node(NodeId(w)).report(OBJ).meta).collect();
    assert!(metas.windows(2).all(|m| m[0] == m[1]), "metas {metas:?}");
    assert!(eng.stats().dropped() > 0, "loss injection must have bitten");
}

#[test]
fn paused_node_catches_up_after_resume() {
    let mut eng = cluster(8, IdeaConfig::default(), 4);
    warm(&mut eng, 4);
    eng.pause(NodeId(1));
    for w in 0..4 {
        write(&mut eng, w, 2);
    }
    eng.run_for(SimDuration::from_secs(3));
    eng.with_node(NodeId(0), |p, ctx| p.demand_active_resolution(OBJ, ctx));
    eng.run_for(SimDuration::from_secs(8));
    // Node 1 was paused through the whole round; resume replays its inbox.
    eng.resume(NodeId(1));
    eng.run_for(SimDuration::from_secs(8));
    let m1 = eng.node(NodeId(1)).report(OBJ).meta;
    let m3 = eng.node(NodeId(3)).report(OBJ).meta;
    assert_eq!(m1, m3, "resumed node must reconcile");
}

#[test]
fn spec_reconfigures_live_cluster() {
    let mut eng = cluster(6, IdeaConfig::default(), 5);
    warm(&mut eng, 4);
    let spec = ConsistencySpec::builder()
        .metric(100.0, 10.0, SimDuration::from_secs(20))
        .weights(0.5, 0.5, 0.0)
        .resolution_code(1)
        .hint(0.8)
        .background_every(SimDuration::from_secs(15))
        .build()
        .unwrap();
    eng.with_node(NodeId(0), |p, _| spec.apply_to(p).unwrap());
    let node = eng.node(NodeId(0));
    assert_eq!(node.config().policy, ResolutionPolicy::InvalidateBoth);
    assert_eq!(node.quantifier().bounds().order, 10.0);
    assert!((node.hint().floor().value() - 0.8).abs() < 1e-9);
}

#[test]
fn multiple_objects_have_independent_top_layers() {
    let a = ObjectId(1);
    let b = ObjectId(2);
    let cfg = IdeaConfig::default();
    let nodes: Vec<IdeaNode> =
        (0..8).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[a, b])).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(8, 6),
        SimConfig { seed: 6, ..Default::default() },
        nodes,
    );
    // Nodes 0-1 write object a; nodes 4-5 write object b.
    for _ in 0..4 {
        for (node, object) in [(0u32, a), (1, a), (4, b), (5, b)] {
            eng.with_node(NodeId(node), |p, ctx| {
                p.local_write(object, 1, UpdatePayload::none(), ctx);
            });
        }
        eng.run_for(SimDuration::from_secs(2));
    }
    eng.run_for(SimDuration::from_secs(3));
    let top_a = eng.node(NodeId(0)).report(a).top_members;
    let top_b = eng.node(NodeId(4)).report(b).top_members;
    assert!(top_a.contains(&NodeId(0)) && top_a.contains(&NodeId(1)));
    assert!(!top_a.contains(&NodeId(4)), "object a's layer leaked writer of b: {top_a:?}");
    assert!(top_b.contains(&NodeId(4)) && top_b.contains(&NodeId(5)));
    assert!(!top_b.contains(&NodeId(0)), "object b's layer leaked writer of a: {top_b:?}");
}

#[test]
fn bottom_layer_sweep_rescues_hidden_updates() {
    let cfg = IdeaConfig {
        sweep_every: Some(1),
        sweep_deadline: SimDuration::from_secs(3),
        rollback_resolve: true,
        ..Default::default()
    };
    let mut eng = cluster(16, cfg, 7);
    warm(&mut eng, 4);
    // A bottom-layer node writes; nobody in the top layer knows.
    write(&mut eng, 12, 99);
    eng.run_for(SimDuration::from_secs(1));
    for _ in 0..5 {
        for w in 0..4 {
            write(&mut eng, w, 1);
        }
        eng.run_for(SimDuration::from_secs(5));
    }
    let rollbacks: u64 = (0..4).map(|w| eng.node(NodeId(w)).report(OBJ).rollbacks).sum();
    assert!(rollbacks >= 1, "the sweep must confirm the bottom-layer discrepancy");
}
