//! The gossip plane's memory model as assertions: what one router holds
//! is bounded by its own configuration (view, suppression window, body
//! cache), never by the deployment size; pending pulls drain once a run
//! settles; and one rumor is one allocation however many hops, cache
//! entries and pull replies carry it.

use idea_core::{IdeaConfig, IdeaMsg, IdeaNode};
use idea_net::{Context, Proto, SimConfig, SimEngine, TimerId, Topology};
use idea_overlay::RumorId;
use idea_types::{NodeId, ObjectId, SimDuration, SimTime, UpdatePayload, WriterId};
use idea_vv::VersionVector;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// `LazyPlane`'s body-cache capacity (private to `idea-core`).
const CACHE_CAP: usize = 1024;

#[test]
fn per_router_state_is_bounded_by_the_view_not_the_deployment() {
    const N: usize = 256;
    const WRITERS: u32 = 16;
    const WRITES: u32 = 400;
    let objects: Vec<ObjectId> = (1..=8).map(ObjectId).collect();
    let mut cfg = IdeaConfig::whiteboard(0.95);
    // A window small enough that 400 writes rotate the generations: the
    // 2 × seen_cap bound is approached, not merely far away.
    cfg.gossip.seen_cap = 16;
    let gossip = cfg.gossip;
    let nodes: Vec<IdeaNode> =
        (0..N).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &objects)).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(N, 7),
        SimConfig { seed: 7, ..Default::default() },
        nodes,
    );
    // Pulls pending anywhere in the deployment, summed over objects.
    let pending = |eng: &SimEngine<IdeaNode>| -> usize {
        (0..N as u32)
            .flat_map(|node| objects.iter().map(move |&o| (NodeId(node), o)))
            .map(|(node, object)| eng.node(node).gossip_footprint(object).missing)
            .sum()
    };
    let mut peak_pending = 0;
    for i in 0..WRITES {
        let object = objects[(i as usize * 5) % objects.len()];
        eng.with_node(NodeId(i % WRITERS), |p, ctx| {
            p.local_write(object, 1, UpdatePayload::none(), ctx);
        });
        eng.run_for(SimDuration::from_millis(100));
        if i % 10 == 0 {
            peak_pending = peak_pending.max(pending(&eng));
        }
    }
    eng.run_for(SimDuration::from_secs(10));
    // Every pull settled (body arrived or advertisers ran out), so each
    // shard's pending-pull table drained: nothing is left per object.
    assert!(peak_pending > 0, "no pull was ever pending");
    assert_eq!(pending(&eng), 0, "pulls still pending after the run settled");

    let (mut full_views, mut pruned, mut cached, mut rotated) = (0, 0, 0, 0);
    for node in (0..N as u32).map(NodeId) {
        for &object in &objects {
            let f = eng.node(node).gossip_footprint(object);
            assert!(f.view <= gossip.fanout, "{node} {object}: {f:?}");
            assert!(f.lazy_links <= f.view, "{node} {object}: {f:?}");
            assert!(f.cached_bodies <= CACHE_CAP, "{node} {object}: {f:?}");
            assert!(f.seen_ids <= 2 * gossip.seen_cap, "{node} {object}: {f:?}");
            full_views += usize::from(f.view == gossip.fanout);
            pruned += f.lazy_links;
            cached += f.cached_bodies;
            rotated += usize::from(f.seen_ids > gossip.seen_cap);
        }
    }
    // The bounds above were exercised, not vacuous.
    assert!(full_views > N, "only {full_views} routers ever sampled a full view");
    assert!(pruned > 0, "no link was ever pruned");
    assert!(cached > 0, "no body was ever cached");
    assert!(rotated > 0, "no suppression window ever rotated");
}

/// A context that records what the node sends.
struct Recorder {
    sent: Vec<(NodeId, IdeaMsg)>,
    rng: StdRng,
    timers: u64,
}

impl Context<IdeaMsg> for Recorder {
    fn now(&self) -> SimTime {
        SimTime::from_secs(1)
    }
    fn me(&self) -> NodeId {
        NodeId(1)
    }
    fn node_count(&self) -> usize {
        8
    }
    fn send(&mut self, to: NodeId, msg: IdeaMsg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _delay: SimDuration, _kind: u64) -> TimerId {
        self.timers += 1;
        TimerId(self.timers)
    }
    fn cancel_timer(&mut self, _timer: TimerId) {}
    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

/// Every copy of a rumor a node hands on — the eager pushes of the relay
/// and the later answer to a pull — is the allocation the rumor arrived
/// in, not a copy of its counters.
#[test]
fn pushed_and_pulled_bodies_share_the_arriving_allocation() {
    const OBJ: ObjectId = ObjectId(1);
    let mut node = IdeaNode::new(NodeId(1), IdeaConfig::default(), &[OBJ]);
    let mut ctx = Recorder { sent: Vec::new(), rng: StdRng::seed_from_u64(5), timers: 0 };
    let body = Arc::new(VersionVector::from_pairs([(WriterId(0), 2), (WriterId(3), 1)]));
    let id = RumorId { origin: NodeId(0), seq: 0 };

    let rumor = IdeaMsg::SweepRumor { id, ttl: 4, object: OBJ, counters: Arc::clone(&body) };
    node.on_message(NodeId(0), rumor, &mut ctx);
    node.on_message(NodeId(5), IdeaMsg::GossipPull { object: OBJ, id }, &mut ctx);

    let copies: Vec<(NodeId, u8, &Arc<VersionVector>)> = ctx
        .sent
        .iter()
        .filter_map(|(to, msg)| match msg {
            IdeaMsg::SweepRumor { ttl, counters, .. } => Some((*to, *ttl, counters)),
            _ => None,
        })
        .collect();
    let pushed = copies.iter().filter(|(_, ttl, _)| *ttl == 3).count();
    assert!(pushed >= 1, "the fresh rumor must be relayed, sent {:?}", ctx.sent);
    assert_eq!(copies.last().map(|c| (c.0, c.1)), Some((NodeId(5), 0)), "pull answered, ttl 0");
    for (to, _, counters) in &copies {
        assert!(Arc::ptr_eq(counters, &body), "the copy sent to {to} is a fresh allocation");
    }
    assert_eq!(node.gossip_footprint(OBJ).cached_bodies, 1);
    // This test's handle, the cache entry and one per copy: nothing else.
    assert_eq!(Arc::strong_count(&body), 1 + 1 + copies.len());
}
