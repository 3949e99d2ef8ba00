//! A served IDEA cluster: the [`ShardedEngine`] behind a TCP
//! [`IdeaServer`], driven by remote white-board clients over real sockets.
//!
//! One client thread per node connects a [`RemoteEngine`] pool and draws
//! through the *same* `Session` API every in-process example uses — the
//! transport changes where the engine runs, not how applications talk to
//! it. After concurrent drawing diverges the replicas, one remote client
//! demands a resolution and everyone converges.
//!
//! ```bash
//! cargo run --release --example served_cluster
//! ```

use idea::prelude::*;
use std::sync::Arc;
use std::thread;

const OBJECT: ObjectId = ObjectId(1);
const N: usize = 4;
/// Shard workers per node.
const SHARDS: usize = 2;

fn main() {
    // time_scale 0.01: one virtual second takes 10 wall milliseconds.
    let tcfg = ThreadedConfig { seed: 7, time_scale: 0.01, shards: SHARDS };
    let idea_cfg = IdeaConfig { store_shards: SHARDS, ..IdeaConfig::whiteboard(0.0) };
    let nodes: Vec<IdeaNode> =
        (0..N).map(|i| IdeaNode::new(NodeId(i as u32), idea_cfg.clone(), &[OBJECT])).collect();

    let engine = Arc::new(ShardedEngine::start(Topology::planetlab(N, 7), tcfg, nodes));
    let server = IdeaServer::bind("127.0.0.1:0", engine.clone()).expect("bind loopback");
    let addr = server.local_addr();
    println!("serving a {N}-node cluster ({SHARDS} shard workers per node) on {addr}");

    // One remote client per node: connect, draw three strokes, disconnect.
    let mut clients = Vec::new();
    for w in 0..N as u32 {
        let pacing = Arc::clone(&engine);
        clients.push(thread::spawn(move || {
            let mut remote = RemoteEngine::connect_pool(addr, 2).expect("connect client");
            assert_eq!(EngineHandle::nodes(&remote), N, "Hello carries the deployment size");
            for round in 0..3u16 {
                let mut session = Session::open(&mut remote, NodeId(w));
                session
                    .object(OBJECT)
                    .write(
                        1,
                        UpdatePayload::Stroke {
                            x: u16::from(w as u8),
                            y: round,
                            text: "hi".into(),
                        },
                    )
                    .expect("remote write");
                pacing.sleep_virtual(SimDuration::from_millis(400));
            }
        }));
    }
    for client in clients {
        client.join().expect("client thread");
    }
    engine.sleep_virtual(SimDuration::from_secs(3));
    println!("warm-up strokes drawn by {N} remote clients");

    // Conflicting writes, then a remotely demanded resolution.
    let mut remote = RemoteEngine::connect(addr).expect("connect driver");
    for w in 0..N as u32 {
        Session::open(&mut remote, NodeId(w)).object(OBJECT).post(5, UpdatePayload::none());
    }
    engine.sleep_virtual(SimDuration::from_secs(2));
    Session::open(&mut remote, NodeId(0)).object(OBJECT).demand_resolution().expect("resolution");
    engine.sleep_virtual(SimDuration::from_secs(6));

    println!("\nafter the remotely demanded resolution:");
    let mut metas = Vec::new();
    for w in 0..N as u32 {
        let rep = Session::open(&mut remote, NodeId(w)).object(OBJECT).report().expect("report");
        println!("node {w}: meta {} updates {} level {}", rep.meta, rep.updates, rep.level);
        metas.push(rep.meta);
    }
    println!("client traffic: {:?}", remote.stats());

    drop(remote);
    server.stop();
    let engine = Arc::try_unwrap(engine).ok().expect("server released the engine");
    let _ = engine.stop();

    // The threaded runtime is not deterministic; a straggler is tolerated,
    // majority convergence is not negotiable (this gates the CI smoke).
    let reference = metas[metas.len() - 1];
    let agreeing = metas.iter().filter(|m| **m == reference).count();
    if agreeing >= N - 1 {
        println!("\nreplicas converged over TCP ✓");
    } else {
        eprintln!("\nreplicas diverged: {metas:?}");
        std::process::exit(1);
    }
}
