//! The same IDEA protocol on real OS threads — driven through the typed
//! client layer. `drive()` below is written once against [`EngineHandle`]
//! and runs on the [`ShardedEngine`] twice: with one worker per node, then
//! with four shard workers per node.
//!
//! ```bash
//! cargo run --example threaded_cluster
//! ```

use idea::prelude::*;
use std::thread;
use std::time::Duration;

const OBJECT: ObjectId = ObjectId(1);
const N: usize = 4;

/// The engine-agnostic application: warm the top layer, diverge, resolve —
/// all through sessions. `sleep` maps virtual time onto the engine's clock.
fn drive<E: EngineHandle>(eng: &mut E, sleep: impl Fn(&E, SimDuration)) {
    println!("warming up on {} nodes...", eng.nodes());
    for _ in 0..3 {
        for w in 0..N as u32 {
            Session::open(eng, NodeId(w)).object(OBJECT).post(1, UpdatePayload::none());
            sleep(eng, SimDuration::from_millis(400));
        }
    }
    sleep(eng, SimDuration::from_secs(3));

    let top = Session::open(eng, NodeId(0)).object(OBJECT).report().expect("report");
    println!("top layer: {:?}", top.top_members);

    // Conflicting writes, then a demanded resolution.
    for w in 0..N as u32 {
        Session::open(eng, NodeId(w)).object(OBJECT).post(5, UpdatePayload::none());
    }
    sleep(eng, SimDuration::from_secs(2));
    Session::open(eng, NodeId(0)).object(OBJECT).demand_resolution().expect("resolution");
    sleep(eng, SimDuration::from_secs(6));

    println!("\nafter resolution:");
    for w in 0..N as u32 {
        let rep = Session::open(eng, NodeId(w)).object(OBJECT).report().expect("report");
        println!("node {w}: meta {} updates {} level {}", rep.meta, rep.updates, rep.level);
    }
}

fn metas_converged(metas: &[i64]) -> bool {
    metas.windows(2).all(|w| w[0] == w[1])
}

fn main() {
    for shards in [1, 4] {
        // time_scale 0.01: one virtual second takes 10 wall milliseconds.
        let tcfg = ThreadedConfig { seed: 3, time_scale: 0.01, shards };
        let idea_cfg = IdeaConfig { store_shards: shards, ..Default::default() };
        let nodes: Vec<IdeaNode> =
            (0..N).map(|i| IdeaNode::new(NodeId(i as u32), idea_cfg.clone(), &[OBJECT])).collect();

        println!("running on ShardedEngine ({shards} shard worker(s) per node)");
        let mut net = ShardedEngine::start(Topology::planetlab(N, 3), tcfg, nodes);
        drive(&mut net, |e, d| e.sleep_virtual(d));
        thread::sleep(Duration::from_millis(200)); // stragglers
        let states = net.stop();
        let metas: Vec<i64> = states.iter().map(|s| s.report(OBJECT).meta).collect();

        if metas_converged(&metas) {
            println!("\nall replicas converged on the threaded runtime ✓\n");
        } else {
            println!("\nreplicas still settling (threaded runs are not deterministic)\n");
        }
    }
}
