//! The IDEA protocol under real concurrency: the threaded engine drives the
//! same state machines over `std::sync::mpsc` channels with injected WAN
//! latency. Every test runs at one worker per node **and** at four, so
//! neither partitioning of a node's state depends on a CI matrix to be
//! exercised.

use idea::prelude::*;
use std::thread;
use std::time::Duration;

const OBJ: ObjectId = ObjectId(1);

/// Worker counts per node every test below runs at.
const SHARD_COUNTS: [usize; 2] = [1, 4];

fn threaded_cluster(
    n: usize,
    seed: u64,
    shards: usize,
    objects: &[ObjectId],
) -> ShardedEngine<IdeaNode> {
    let cfg = IdeaConfig { store_shards: shards, ..Default::default() };
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), objects)).collect();
    ShardedEngine::start(
        Topology::planetlab(n, seed),
        ThreadedConfig { seed, time_scale: 0.02, shards },
        nodes,
    )
}

/// Fire-and-forget write on the worker owning `object`.
fn write(net: &ShardedEngine<IdeaNode>, node: u32, object: ObjectId, delta: i64) {
    net.invoke(NodeId(node), net.shard_for_object(object), move |shard, ctx| {
        shard.local_write(object, delta, UpdatePayload::none(), ctx);
    });
}

/// Every node writes every object a few times so the top layers form.
fn warm_up(net: &ShardedEngine<IdeaNode>, objects: &[ObjectId]) {
    for _ in 0..3 {
        for w in 0..net.len() as u32 {
            for &obj in objects {
                write(net, w, obj, 1);
            }
            net.sleep_virtual(SimDuration::from_millis(400));
        }
    }
    net.sleep_virtual(SimDuration::from_secs(4));
}

/// Diverges every replica, demands a resolution per object and lets the
/// two-phase protocol settle.
fn diverge_and_resolve(net: &ShardedEngine<IdeaNode>, objects: &[ObjectId]) {
    for w in 0..net.len() as u32 {
        for &obj in objects {
            write(net, w, obj, 5);
        }
    }
    net.sleep_virtual(SimDuration::from_secs(2));
    for &obj in objects {
        net.invoke(NodeId(0), net.shard_for_object(obj), move |shard, ctx| {
            shard.demand_active_resolution(obj, ctx)
        });
    }
    net.sleep_virtual(SimDuration::from_secs(8));
    thread::sleep(Duration::from_millis(300));
}

/// Threaded runs are not deterministic; allow late stragglers but demand
/// that a majority agrees with the highest-id reference.
fn assert_majority_agrees(states: &[IdeaNode], object: ObjectId) {
    let metas: Vec<i64> = states.iter().map(|s| s.report(object).meta).collect();
    let reference = metas[3];
    let agreeing = metas.iter().filter(|m| **m == reference).count();
    assert!(agreeing >= 3, "object {object}: metas {metas:?}");
}

#[test]
fn threaded_cluster_forms_top_layer_and_resolves() {
    for shards in SHARD_COUNTS {
        let net = threaded_cluster(4, 1, shards, &[OBJ]);
        warm_up(&net, &[OBJ]);
        let owner = net.shard_for_object(OBJ);
        let members = net.query(NodeId(0), owner, |s, _| s.report(OBJ).top_members);
        assert!(members.len() >= 3, "top layer too small on threads: {members:?}");
        diverge_and_resolve(&net, &[OBJ]);
        assert_majority_agrees(&net.stop(), OBJ);
    }
}

#[test]
fn threaded_engine_reports_stats() {
    for shards in SHARD_COUNTS {
        let net = threaded_cluster(3, 2, shards, &[OBJ]);
        for w in 0..3 {
            write(&net, w, OBJ, 1);
        }
        net.sleep_virtual(SimDuration::from_secs(2));
        thread::sleep(Duration::from_millis(200));
        let snap = net.stats();
        let total: u64 = snap.per_class.iter().map(|(_, m, _)| *m).sum();
        assert!(total > 0, "traffic must be accounted");
        net.stop();
    }
}

/// Sharded mailboxes: disjoint objects are processed concurrently while
/// per-object ordering holds (each worker holds early arrivals until their
/// link delay has passed), so every object still converges through its own
/// detection/resolution rounds.
#[test]
fn sharded_threaded_cluster_converges_per_object() {
    let objects: Vec<ObjectId> = (0..8u64).map(ObjectId).collect();
    for shards in SHARD_COUNTS {
        let n = 4usize;
        let net = threaded_cluster(n, 9, shards, &objects);
        assert_eq!(net.shards(), shards);
        assert_eq!(net.len(), n);
        warm_up(&net, &objects);
        diverge_and_resolve(&net, &objects);

        // A query observes the same state the worker wrote.
        let first = objects[0];
        let owner = net.shard_for_object(first);
        let meta = net.query(NodeId(0), owner, move |shard, _| shard.report(first).meta);
        assert!(meta > 0, "worker-owned replica must reflect writes");

        let states = net.stop();
        assert_eq!(states.len(), n, "stop() reassembles every node from its shards");
        for &obj in &objects {
            assert_majority_agrees(&states, obj);
        }
    }
}

#[test]
fn query_reads_consistent_state_from_node_thread() {
    for shards in SHARD_COUNTS {
        let net = threaded_cluster(3, 3, shards, &[OBJ]);
        write(&net, 1, OBJ, 42);
        // query is serialised on the owning worker, so it observes the write.
        let meta = net.query(NodeId(1), net.shard_for_object(OBJ), |s, _| s.report(OBJ).meta);
        assert_eq!(meta, 42);
        net.stop();
    }
}
