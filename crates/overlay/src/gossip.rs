//! Lightweight probabilistic broadcast for the bottom layer.
//!
//! "In the bottom layer, it uses gossip-based protocol \[6\] to check in the
//! background any missed inconsistency by the top-layer" (§4.3), with a TTL
//! bounding the traversal so detection delay stays bounded (§4.4.2:
//! "Currently, we use TTL (Time to Live) to control the traversal of the
//! bottom-layer detection messages").
//!
//! ## Eager vs lazy dissemination
//!
//! The original plane flooded full rumor bodies to every chosen peer —
//! `O(fanout · N)` bodies per rumor, the dominant traffic at scale. The
//! router now supports a Plumtree-style split ([`GossipMode::Lazy`]): each
//! node keeps a **stable view** of `fanout` gossip neighbours, and every
//! view link is persistently either **eager** (full bodies) or **lazy**
//! (a compact [`RumorId`] digest — "IHAVE"). Links start eager, so the
//! first rumors flood exactly like the classic plane; a duplicate body is
//! answered with a *prune*, demoting the link on **both** ends — the
//! sender stops pushing bodies down it (the direction that wasted the
//! copy) and the receiver stops pushing back. The surviving eager links
//! converge toward a spanning tree carrying `~N` bodies per rumor while
//! the pruned links pay only digest bytes. A digest receiver missing the
//! body pulls it from the advertiser, which *grafts* the link back to
//! eager on both sides — pruning can never partition the dissemination.
//!
//! [`GossipRouter`] is engine-agnostic: the caller hands it received rumor
//! ids and it answers with a [`RelayPlan`]; the detection protocol (in
//! `idea-core`) turns plans into actual messages, owns the rumor bodies,
//! and runs the pull timers.

use idea_types::{FastSet, NodeId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a relay plan transports rumors to its chosen peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GossipMode {
    /// Full rumor bodies to every chosen peer (the classic flood).
    Eager,
    /// Plumtree-style per-peer link split over a stable view: bodies on
    /// eager links, compact id digests on pruned (lazy) links, missing
    /// bodies pulled on demand. Links start eager and duplicates prune
    /// them, so body traffic converges toward one copy per node.
    Lazy,
}

/// Gossip configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GossipConfig {
    /// Number of peers each node forwards a fresh rumor to.
    pub fanout: usize,
    /// Initial time-to-live (hop budget) of a rumor.
    pub ttl: u8,
    /// Duplicate-suppression window: the router remembers between
    /// `seen_cap` and `2 × seen_cap` of the most recent rumor ids (two
    /// generations, evicted wholesale), so memory stays bounded no matter
    /// how many rumors a long run produces. A rumor older than the window
    /// may be relayed once more — its TTL still bounds the re-spread, and
    /// in-flight copies (the correctness case) are far younger than any
    /// realistic window.
    pub seen_cap: usize,
    /// Transport split for relay plans. [`GossipMode::Eager`] reproduces
    /// the original flood exactly; [`GossipMode::Lazy`] keeps a stable
    /// `fanout`-sized view with persistent per-peer eager/lazy link state.
    pub mode: GossipMode,
    /// In lazy mode, the eager floor: when *every* view link has been
    /// pruned, this many links are grafted back so bodies keep moving
    /// (a rumor must never stall on an all-lazy view). Clamped to the
    /// view size; values below 1 are treated as 1.
    pub eager_fanout: usize,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            fanout: 3,
            ttl: 4,
            seen_cap: 4096,
            // Lazy by default: measured at N ∈ {160, 320, 640} it moves
            // 0.56–0.81× the eager flood's gossip bytes for the same
            // sweeps. Pinned traces that predate the flip set
            // `GossipMode::Eager` explicitly.
            mode: GossipMode::Lazy,
            eager_fanout: 1,
        }
    }
}

/// Unique rumor identity: (origin node, origin-local sequence), 8 bytes.
///
/// The sequence is a wrapping `u32`. An id only has to be unique while
/// something can still confuse it with another: inside the receivers'
/// duplicate-suppression window (at most `2 × seen_cap` ids per router)
/// and while one rumor's copies, cached bodies and pulls are alive. A
/// router reuses a sequence only after 2³² originations of its own, far
/// outside both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RumorId {
    /// Node that started the rumor.
    pub origin: NodeId,
    /// Origin-local sequence number (wrapping).
    pub seq: u32,
}

/// Encoded bytes per digest entry: origin (4) + seq (8) + ttl (1). The
/// wire keeps eight bytes for the sequence.
pub const DIGEST_ENTRY_BYTES: usize = 13;

/// Encodes `(rumor id, remaining ttl)` advertisements into the compact
/// wire form ([`DIGEST_ENTRY_BYTES`] per entry, little-endian, the
/// sequence widened to eight bytes). This is the byte layout the
/// accounting layer charges for digests, kept as a real codec so the cost
/// model and any future external transport agree.
pub fn encode_digest(entries: &[(RumorId, u8)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * DIGEST_ENTRY_BYTES);
    for (id, ttl) in entries {
        out.extend_from_slice(&id.origin.0.to_le_bytes());
        out.extend_from_slice(&u64::from(id.seq).to_le_bytes());
        out.push(*ttl);
    }
    out
}

/// Decodes a digest produced by [`encode_digest`]. Returns `None` when the
/// buffer is not a whole number of entries or a sequence exceeds
/// `u32::MAX`.
pub fn decode_digest(bytes: &[u8]) -> Option<Vec<(RumorId, u8)>> {
    if !bytes.len().is_multiple_of(DIGEST_ENTRY_BYTES) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / DIGEST_ENTRY_BYTES);
    for chunk in bytes.chunks_exact(DIGEST_ENTRY_BYTES) {
        let origin = NodeId(u32::from_le_bytes(chunk[0..4].try_into().ok()?));
        let seq = u64::from_le_bytes(chunk[4..12].try_into().ok()?).try_into().ok()?;
        out.push((RumorId { origin, seq }, chunk[12]));
    }
    Some(out)
}

/// Forwarding decision for one rumor: which peers get the full body
/// (eager links), which get only its id (lazy links), and the TTL to stamp
/// on the forwarded copies. In [`GossipMode::Eager`] `lazy` is always
/// empty and the plan degenerates to the classic flood.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelayPlan {
    /// Peers receiving the full rumor body.
    pub eager: Vec<NodeId>,
    /// Peers receiving only the id digest ("IHAVE").
    pub lazy: Vec<NodeId>,
    /// TTL to stamp on the forwarded copies (bodies and digests alike).
    pub ttl: u8,
}

impl RelayPlan {
    /// Total peers contacted by this plan.
    pub fn contacts(&self) -> usize {
        self.eager.len() + self.lazy.len()
    }

    /// True when the plan contacts nobody.
    pub fn is_empty(&self) -> bool {
        self.eager.is_empty() && self.lazy.is_empty()
    }
}

/// What a received rumor body meant to the router
/// ([`GossipRouter::on_receive`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Receipt {
    /// The body was already processed here. The link it arrived on was
    /// demoted (the push was pure redundancy); nothing else changed.
    Duplicate,
    /// First delivery, nothing to relay: the TTL is exhausted or no
    /// eligible peer remains.
    Terminal,
    /// First delivery: relay per the plan.
    Relay(RelayPlan),
}

/// Who a router gossips among: the deployment's nodes `0..n`, the router's
/// own node `me` excluded. Callers pass it on every call instead of a peer
/// list, so no router keeps (or copies) one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Peers {
    /// The router's own node.
    pub me: NodeId,
    /// Deployment size: peers are drawn from `NodeId(0)..NodeId(n)`.
    pub n: usize,
}

/// Per-node gossip state: duplicate suppression, fanout selection, and (in
/// lazy mode) the stable view with its persistent eager/lazy link split.
///
/// One router exists per (node, object), so it holds only what differs
/// between them: the settings ([`GossipConfig`]) and the router's identity
/// and population ([`Peers`]) come in with every call.
///
/// Duplicate suppression is **generational**: ids go into a current
/// generation; when it reaches `seen_cap` it becomes the previous
/// generation (whose ids are still recognised) and the oldest generation is
/// dropped wholesale. Memory is therefore bounded by `2 × seen_cap` ids —
/// an unbounded `HashSet` here used to grow by one entry per rumor ever
/// relayed, a real leak for long-lived nodes.
#[derive(Debug, Clone)]
pub struct GossipRouter {
    /// Current duplicate-suppression generation.
    seen: FastSet<RumorId>,
    /// Previous generation (read-only until evicted).
    seen_prev: FastSet<RumorId>,
    /// Lazy mode's stable gossip neighbourhood in sampling order, each
    /// link with whether it is pruned to the lazy side (a duplicate body
    /// arrived on it): up to `fanout` peers, sampled once on first use and
    /// stored exactly sized. Eager mode never populates it (it keeps the
    /// classic per-rumor random pick).
    links: Vec<(NodeId, bool)>,
    /// Sequence of the next originated rumor (wrapping; see [`RumorId`]).
    next_seq: u32,
}

impl GossipRouter {
    /// An empty router, checked against the settings every later call
    /// will pass.
    pub fn new(cfg: &GossipConfig) -> Self {
        assert!(cfg.seen_cap > 0, "duplicate suppression needs a positive window");
        GossipRouter {
            seen: FastSet::default(),
            seen_prev: FastSet::default(),
            links: Vec::new(),
            next_seq: 0,
        }
    }

    /// Records `id` as seen; returns `false` when it was already known.
    fn note_seen(&mut self, cfg: &GossipConfig, id: RumorId) -> bool {
        if self.seen_prev.contains(&id) || !self.seen.insert(id) {
            return false;
        }
        if self.seen.len() >= cfg.seen_cap {
            // Rotate generations: drop the old one wholesale.
            self.seen_prev = std::mem::take(&mut self.seen);
        }
        true
    }

    /// Starts a new rumor at `peers.me`; returns its id, the initial TTL,
    /// and the first hop plan chosen among `peers`.
    pub fn originate<R: Rng + ?Sized>(
        &mut self,
        cfg: &GossipConfig,
        peers: Peers,
        rng: &mut R,
    ) -> (RumorId, u8, RelayPlan) {
        let id = RumorId { origin: peers.me, seq: self.next_seq };
        self.next_seq = self.next_seq.wrapping_add(1);
        self.note_seen(cfg, id);
        let plan = match cfg.mode {
            GossipMode::Eager => RelayPlan {
                eager: pick_peers(cfg.fanout, peers, None, rng),
                lazy: Vec::new(),
                ttl: cfg.ttl,
            },
            GossipMode::Lazy => {
                self.ensure_view(cfg, peers, rng);
                self.view_plan(cfg, None, cfg.ttl)
            }
        };
        (id, cfg.ttl, plan)
    }

    /// Processes a received rumor body and decides whether to relay it.
    ///
    /// `from` is the peer the body arrived from: it is excluded from the
    /// relay targets (pushing a rumor straight back to its sender is pure
    /// redundancy), and a duplicate arrival demotes it. Pass `None` for
    /// locally injected bodies.
    ///
    /// The duplicate check is the call's own: a caller that must react to
    /// a duplicate (the prune notification) matches on
    /// [`Receipt::Duplicate`] instead of probing [`GossipRouter::has_seen`]
    /// first.
    pub fn on_receive<R: Rng + ?Sized>(
        &mut self,
        cfg: &GossipConfig,
        id: RumorId,
        ttl: u8,
        from: Option<NodeId>,
        peers: Peers,
        rng: &mut R,
    ) -> Receipt {
        if !self.note_seen(cfg, id) {
            // Duplicate body: the sender wasted a full push on us — prune
            // that link to the lazy side from now on.
            if let Some(p) = from {
                self.demote(p);
            }
            return Receipt::Duplicate;
        }
        if cfg.mode == GossipMode::Lazy {
            self.ensure_view(cfg, peers, rng);
        }
        if ttl == 0 {
            return Receipt::Terminal;
        }
        let plan = match cfg.mode {
            GossipMode::Eager => RelayPlan {
                eager: pick_peers(cfg.fanout, peers, from, rng),
                lazy: Vec::new(),
                ttl: ttl - 1,
            },
            GossipMode::Lazy => self.view_plan(cfg, from, ttl - 1),
        };
        if plan.is_empty() {
            Receipt::Terminal
        } else {
            Receipt::Relay(plan)
        }
    }

    /// True when this node still remembers processing the rumor (ids older
    /// than the suppression window are forgotten).
    pub fn has_seen(&self, id: RumorId) -> bool {
        self.seen.contains(&id) || self.seen_prev.contains(&id)
    }

    /// True when a digest for `id` should trigger a pull: the body has not
    /// been processed here yet.
    pub fn wants_body(&self, id: RumorId) -> bool {
        !self.has_seen(id)
    }

    /// Number of distinct rumor ids currently remembered (bounded by
    /// `2 × seen_cap`).
    pub fn seen_count(&self) -> usize {
        self.seen.len() + self.seen_prev.len()
    }

    /// Rumor ids currently remembered, sorted (test/harness introspection
    /// for delivery-set comparisons).
    pub fn seen_ids(&self) -> Vec<RumorId> {
        let mut ids: Vec<RumorId> = self.seen.union(&self.seen_prev).copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The view link to `peer`, if `peer` is in the view.
    fn link(&mut self, peer: NodeId) -> Option<&mut bool> {
        self.links.iter_mut().find(|l| l.0 == peer).map(|l| &mut l.1)
    }

    /// Prunes the view link to `peer` to the lazy side — called when a
    /// duplicate body arrives on it (the push was pure redundancy).
    /// Ignored for peers outside the view, so repair state stays bounded
    /// by the view size.
    pub fn demote(&mut self, peer: NodeId) {
        if let Some(pruned) = self.link(peer) {
            *pruned = true;
        }
    }

    /// Re-promotes the link to `peer` to eager (graft) — called when the
    /// peer pulls a body from us or answers our pull, proving the lazy
    /// link was load-bearing.
    pub fn graft(&mut self, peer: NodeId) {
        if let Some(pruned) = self.link(peer) {
            *pruned = false;
        }
    }

    /// True when the view link to `peer` is currently pruned.
    pub fn is_demoted(&self, peer: NodeId) -> bool {
        self.links.contains(&(peer, true))
    }

    /// The stable lazy-mode view in sampling order (empty in eager mode or
    /// before first use).
    pub fn view(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.links.iter().map(|l| l.0)
    }

    /// Number of view links currently pruned to the lazy side (bounded by
    /// the view).
    pub fn lazy_link_count(&self) -> usize {
        self.links.iter().filter(|l| l.1).count()
    }

    /// Samples the stable view on first use: up to `fanout` distinct peers.
    /// Membership is assumed stable (all engines pass the same deployment
    /// size for the lifetime of a run).
    fn ensure_view<R: Rng + ?Sized>(&mut self, cfg: &GossipConfig, peers: Peers, rng: &mut R) {
        if self.links.is_empty() {
            let view = pick_peers(cfg.fanout, peers, None, rng);
            self.links = view.into_iter().map(|p| (p, false)).collect();
        }
    }

    /// A relay plan over the stable view: eager links carry the body, lazy
    /// links the digest, the arrival link (`from`) is excluded. When every
    /// candidate is pruned, the first [`GossipConfig::eager_fanout`] links
    /// (at least one) are grafted back so the rumor keeps moving.
    fn view_plan(&mut self, cfg: &GossipConfig, from: Option<NodeId>, ttl: u8) -> RelayPlan {
        let mut eager = Vec::new();
        let mut lazy = Vec::new();
        for &(p, pruned) in &self.links {
            if Some(p) == from {
                continue;
            }
            if pruned {
                lazy.push(p);
            } else {
                eager.push(p);
            }
        }
        if eager.is_empty() && !lazy.is_empty() {
            let floor = cfg.eager_fanout.max(1).min(lazy.len());
            for p in lazy.drain(..floor) {
                self.graft(p);
                eager.push(p);
            }
        }
        RelayPlan { eager, lazy, ttl }
    }
}

/// Uniformly picks up to `fanout` distinct peers among `peers`, never
/// `from`. This is a partial Fisher–Yates over the candidates listed in id
/// order, run without the list: candidate slot `c` holds the `c`-th id of
/// `0..n` that is neither `me` nor `from`, and only the slots a swap moved
/// a value into are stored (at most `fanout` of them). Same `gen_range`
/// draws, same picks, O(fanout) memory whatever the deployment size. The
/// result is exactly sized: lazy mode keeps it as the router's view.
fn pick_peers<R: Rng + ?Sized>(
    fanout: usize,
    peers: Peers,
    from: Option<NodeId>,
    rng: &mut R,
) -> Vec<NodeId> {
    let n = peers.n;
    // The ids the candidates skip, ascending and distinct, all below `n`.
    let mut skip = [peers.me.index(), from.map_or(usize::MAX, NodeId::index)];
    skip.sort_unstable();
    let skip = match skip {
        [a, b] if a == b || b >= n => &skip[..usize::from(a < n)],
        _ => &skip[..],
    };
    let candidates = n - skip.len();
    let id_of = |slot: usize| {
        let id = skip.iter().fold(slot, |id, &s| id + usize::from(id >= s));
        NodeId(id as u32)
    };
    let k = fanout.min(candidates);
    let mut picked = Vec::with_capacity(k);
    // (slot, candidate) for every slot a swap moved a value into; a slot
    // not listed still holds its own index.
    let mut moved: Vec<(usize, usize)> = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.gen_range(i..candidates);
        let at = |slot: usize| moved.iter().find(|m| m.0 == slot).map_or(slot, |m| m.1);
        let (at_i, at_j) = (at(i), at(j));
        // Swap: slot `i` takes `at_j` for good (later draws start past
        // it), slot `j` takes `at_i`.
        match moved.iter_mut().find(|m| m.0 == j) {
            Some(m) => m.1 = at_i,
            None => moved.push((j, at_i)),
        }
        picked.push(id_of(at_j));
    }
    picked
}

/// Message/coverage tallies of one simulated spread.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpreadStats {
    /// Nodes that processed the rumor body.
    pub covered: usize,
    /// Delivery waves until the spread died out.
    pub hops: usize,
    /// Total messages: bodies + digests + pulls + pull replies.
    pub messages: usize,
    /// Full-body messages (eager pushes plus pull replies).
    pub bodies: usize,
    /// Digest messages sent on lazy links.
    pub digests: usize,
    /// Pull requests issued by digest receivers missing the body.
    pub pulls: usize,
    /// Prune notifications sent back to duplicate pushers.
    pub prunes: usize,
}

/// Synchronous multi-rumor spread simulation: the tests' oracle for what
/// the routers do together. Routers persist across rumors, so lazy mode's
/// prune/graft link state accumulates exactly as it does in the engines:
/// the first rumor floods (all links eager), later rumors ride the pruned
/// link split. Digest receivers missing the body pull it from the
/// advertiser once the flood dies out (loss-free semantics; loss
/// injection is the network engines' job).
#[cfg(test)]
pub struct SpreadSim {
    cfg: GossipConfig,
    routers: Vec<GossipRouter>,
}

#[cfg(test)]
impl SpreadSim {
    /// A fresh `n`-node population with per-node routers.
    pub fn new(n: usize, cfg: GossipConfig) -> Self {
        SpreadSim { cfg, routers: (0..n).map(|_| GossipRouter::new(&cfg)).collect() }
    }

    fn peers(&self, me: NodeId) -> Peers {
        Peers { me, n: self.routers.len() }
    }

    /// Spreads one rumor from `origin` through the current link state and
    /// tallies its traffic.
    ///
    /// Bodies move in synchronous waves; digests are noted as they arrive
    /// but — modelling the engines' pull timer — a node only pulls once
    /// the body flood has died out without reaching it. A pull grafts the
    /// link eager on both ends (it was load-bearing), so the next rumor
    /// rides the repaired tree and pruning never strands coverage.
    pub fn spread<R: Rng + ?Sized>(&mut self, origin: NodeId, rng: &mut R) -> SpreadStats {
        let mut stats = SpreadStats::default();

        // A full-body delivery in flight: receiver, stamped TTL, sender.
        struct Body {
            node: NodeId,
            ttl: u8,
            from: NodeId,
        }
        // Digest advertisements, in arrival order: (receiver, advertiser).
        let mut advertised: Vec<(NodeId, NodeId)> = Vec::new();

        let mut frontier: Vec<Body> = Vec::new();
        let queue_plan = |plan: &RelayPlan,
                          from: NodeId,
                          frontier: &mut Vec<Body>,
                          advertised: &mut Vec<(NodeId, NodeId)>,
                          stats: &mut SpreadStats| {
            stats.messages += plan.contacts();
            stats.bodies += plan.eager.len();
            stats.digests += plan.lazy.len();
            for &t in &plan.eager {
                frontier.push(Body { node: t, ttl: plan.ttl, from });
            }
            for &t in &plan.lazy {
                advertised.push((t, from));
            }
        };

        let peers = self.peers(origin);
        let (id, _ttl, first) = self.routers[origin.index()].originate(&self.cfg, peers, rng);
        queue_plan(&first, origin, &mut frontier, &mut advertised, &mut stats);

        loop {
            // Body waves until the flood dies out.
            while !frontier.is_empty() {
                stats.hops += 1;
                let mut next = Vec::new();
                for c in frontier {
                    let peers = self.peers(c.node);
                    let router = &mut self.routers[c.node.index()];
                    match router.on_receive(&self.cfg, id, c.ttl, Some(c.from), peers, rng) {
                        Receipt::Relay(plan) => {
                            queue_plan(&plan, c.node, &mut next, &mut advertised, &mut stats);
                        }
                        Receipt::Duplicate if self.cfg.mode == GossipMode::Lazy => {
                            // Duplicate push: answer with a PRUNE so the
                            // *sender* demotes its outgoing link — that is
                            // the link that wasted the body.
                            stats.messages += 1;
                            stats.prunes += 1;
                            self.routers[c.from.index()].demote(c.node);
                        }
                        Receipt::Duplicate | Receipt::Terminal => {}
                    }
                }
                frontier = next;
            }
            // Pull timers fire: nodes the flood missed fetch the body from
            // their first advertiser. Pull replies are terminal (TTL 0):
            // they repair exactly the missed delivery and must not re-flood
            // past the sweep's TTL budget — the graft handles future rumors.
            let pending = std::mem::take(&mut advertised);
            let mut pulled = false;
            let mut pulled_by: FastSet<NodeId> = FastSet::default();
            for (node, from) in pending {
                if !self.routers[node.index()].wants_body(id) || !pulled_by.insert(node) {
                    continue;
                }
                stats.messages += 2;
                stats.pulls += 1;
                stats.bodies += 1;
                self.routers[from.index()].graft(node);
                self.routers[node.index()].graft(from);
                frontier.push(Body { node, ttl: 0, from });
                pulled = true;
            }
            if !pulled {
                break;
            }
        }
        stats.covered = self.routers.iter().filter(|r| r.has_seen(id)).count();
        stats
    }
}

/// One-shot spread of a single rumor through a fresh population, as
/// `(covered, hops, messages)` — in lazy mode this is the cold-start wave
/// (all links still eager); use [`SpreadSim`] for steady-state behaviour.
#[cfg(test)]
pub fn simulate_spread<R: Rng + ?Sized>(
    n: usize,
    origin: NodeId,
    cfg: GossipConfig,
    rng: &mut R,
) -> (usize, usize, usize) {
    let s = SpreadSim::new(n, cfg).spread(origin, rng);
    (s.covered, s.hops, s.messages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn lazy_cfg(fanout: usize, eager_fanout: usize, ttl: u8) -> GossipConfig {
        GossipConfig { fanout, ttl, mode: GossipMode::Lazy, eager_fanout, ..Default::default() }
    }

    /// The classic flood these shape tests were written against — pinned
    /// explicitly now that the default mode is lazy.
    fn eager_cfg(fanout: usize, ttl: u8) -> GossipConfig {
        GossipConfig { fanout, ttl, mode: GossipMode::Eager, ..Default::default() }
    }

    /// Node `me` of an `n`-node deployment.
    fn at(me: u32, n: usize) -> Peers {
        Peers { me: NodeId(me), n }
    }

    #[test]
    fn originate_marks_seen_and_picks_fanout() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = eager_cfg(3, 4);
        let mut r = GossipRouter::new(&cfg);
        let (id, ttl, plan) = r.originate(&cfg, at(0, 10), &mut rng);
        assert_eq!(id.origin, NodeId(0));
        assert_eq!(ttl, 4);
        assert_eq!(plan.ttl, 4);
        assert!(plan.lazy.is_empty(), "eager mode never plans digests");
        assert_eq!(plan.eager.len(), 3);
        assert!(!plan.eager.contains(&NodeId(0)), "never forwards to self");
        assert!(r.has_seen(id));
        // Distinct targets.
        let mut t = plan.eager.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicates_are_dropped_and_demote_the_sender() {
        let mut rng = StdRng::seed_from_u64(2);
        // fanout 4 over 4 other nodes: the view is the whole population,
        // so every sender below is a view link.
        let cfg = lazy_cfg(4, 1, 3);
        let mut r = GossipRouter::new(&cfg);
        let id = RumorId { origin: NodeId(0), seq: 9 };
        let first = r.on_receive(&cfg, id, 3, Some(NodeId(0)), at(1, 5), &mut rng);
        assert!(matches!(first, Receipt::Relay(_)));
        let second = r.on_receive(&cfg, id, 3, Some(NodeId(3)), at(1, 5), &mut rng);
        assert_eq!(second, Receipt::Duplicate);
        assert_eq!(r.seen_count(), 1);
        // The duplicate pusher's link got pruned; the first sender's did not.
        assert!(r.is_demoted(NodeId(3)));
        assert!(!r.is_demoted(NodeId(0)));
        // A pull from the pruned peer grafts it back.
        r.graft(NodeId(3));
        assert!(!r.is_demoted(NodeId(3)));
    }

    #[test]
    fn ttl_zero_is_terminal() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = GossipConfig::default();
        let mut r = GossipRouter::new(&cfg);
        let id = RumorId { origin: NodeId(0), seq: 1 };
        assert_eq!(r.on_receive(&cfg, id, 0, None, at(1, 5), &mut rng), Receipt::Terminal);
        // Still marked seen so a later copy with budget is also dropped.
        assert_eq!(r.on_receive(&cfg, id, 5, None, at(1, 5), &mut rng), Receipt::Duplicate);
    }

    #[test]
    fn forwarded_ttl_decrements() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = eager_cfg(2, 8);
        let mut r = GossipRouter::new(&cfg);
        let id = RumorId { origin: NodeId(0), seq: 0 };
        match r.on_receive(&cfg, id, 5, None, at(2, 6), &mut rng) {
            Receipt::Relay(plan) => {
                assert_eq!(plan.ttl, 4);
                assert_eq!(plan.eager.len(), 2);
            }
            other => panic!("fresh rumor with budget must forward, got {other:?}"),
        }
    }

    /// Sender exclusion on a 3-node line: node 0 originates with fanout 2,
    /// so every relay's candidate pool is {the third node} — a rumor is
    /// never pushed back to the peer it just arrived from, and the spread
    /// costs exactly 4 messages (0→1, 0→2, 1→2, 2→1) instead of the 6 a
    /// sender-oblivious flood could emit.
    #[test]
    fn sender_exclusion_on_three_node_line() {
        let cfg = eager_cfg(2, 8);
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut routers: Vec<GossipRouter> = (0..3).map(|_| GossipRouter::new(&cfg)).collect();
            let (id, _ttl, plan) = routers[0].originate(&cfg, at(0, 3), &mut rng);
            let mut total = plan.eager.len();
            let mut frontier: Vec<(NodeId, u8, NodeId)> =
                plan.eager.iter().map(|&t| (t, plan.ttl, NodeId(0))).collect();
            while let Some((node, ttl, from)) = frontier.pop() {
                let peers = at(node.0, 3);
                if let Receipt::Relay(p) =
                    routers[node.index()].on_receive(&cfg, id, ttl, Some(from), peers, &mut rng)
                {
                    assert!(!p.eager.contains(&from), "pushed rumor back to its sender");
                    total += p.eager.len();
                    frontier.extend(p.eager.iter().map(|&t| (t, p.ttl, node)));
                }
            }
            assert_eq!(total, 4, "seed {seed}: line spread must cost exactly 4 messages");
            assert!(routers.iter().all(|r| r.has_seen(id)));
        }
    }

    /// Fresh lazy routers start with every view link eager (the cold-start
    /// wave floods like the classic plane); pruning a link moves it to the
    /// lazy side of subsequent plans, persistently.
    #[test]
    fn pruned_view_links_move_to_the_lazy_side() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = lazy_cfg(4, 1, 6);
        let mut r = GossipRouter::new(&cfg);
        let (_id, _ttl, plan) = r.originate(&cfg, at(0, 10), &mut rng);
        assert_eq!(plan.eager.len(), 4, "links start eager");
        assert!(plan.lazy.is_empty());
        let pruned = plan.eager[0];
        r.demote(pruned);
        let (_id, _ttl, plan) = r.originate(&cfg, at(0, 10), &mut rng);
        assert_eq!(plan.eager.len(), 3);
        assert_eq!(plan.lazy, vec![pruned]);
        // Disjoint link sets, and the split is stable without randomness.
        assert!(plan.eager.iter().all(|e| !plan.lazy.contains(e)));
        let (_id, _ttl, again) = r.originate(&cfg, at(0, 10), &mut rng);
        assert_eq!(again.lazy, vec![pruned]);
    }

    #[test]
    fn demoted_peers_drift_to_lazy_links() {
        let cfg = lazy_cfg(3, 1, 6);
        let mut r = GossipRouter::new(&cfg);
        let mut rng = StdRng::seed_from_u64(1);
        // First originate samples the view: all 3 other nodes.
        let _ = r.originate(&cfg, at(0, 4), &mut rng);
        r.demote(NodeId(1));
        r.demote(NodeId(2));
        // The split is persistent state, identical on every later rumor.
        for round in 0..8 {
            let (_id, _ttl, plan) = r.originate(&cfg, at(0, 4), &mut rng);
            assert_eq!(plan.eager, vec![NodeId(3)], "round {round}");
            assert_eq!(plan.lazy.len(), 2);
        }
    }

    #[test]
    fn all_demoted_still_fills_eager_floor() {
        let cfg = lazy_cfg(3, 2, 6);
        let mut r = GossipRouter::new(&cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = r.originate(&cfg, at(0, 4), &mut rng);
        for p in 1..4 {
            r.demote(NodeId(p));
        }
        let (_id, _ttl, plan) = r.originate(&cfg, at(0, 4), &mut rng);
        assert_eq!(plan.eager.len(), 2, "bodies must still move when every link is pruned");
        assert_eq!(plan.lazy.len(), 1);
        // The floor grafts the promoted links: the state is repaired, not
        // overridden per plan.
        assert_eq!(plan.eager.iter().filter(|&&p| r.is_demoted(p)).count(), 0);
    }

    #[test]
    fn digest_codec_round_trips() {
        let entries = vec![
            (RumorId { origin: NodeId(0), seq: 0 }, 4),
            (RumorId { origin: NodeId(7), seq: u32::MAX }, 0),
            (RumorId { origin: NodeId(u32::MAX), seq: 12345 }, 255),
        ];
        let bytes = encode_digest(&entries);
        assert_eq!(bytes.len(), entries.len() * DIGEST_ENTRY_BYTES);
        assert_eq!(decode_digest(&bytes), Some(entries));
        assert_eq!(decode_digest(&[0u8; 5]), None, "partial entries must be rejected");
        assert_eq!(decode_digest(&[]), Some(vec![]));
    }

    #[test]
    fn rumor_ids_are_eight_bytes() {
        assert_eq!(std::mem::size_of::<RumorId>(), 8);
    }

    /// The wire keeps eight bytes for a sequence, but no router can issue
    /// one past `u32::MAX`: such an entry is malformed, not a rumor.
    #[test]
    fn decode_digest_rejects_a_seq_past_u32() {
        let mut bytes = encode_digest(&[(RumorId { origin: NodeId(2), seq: u32::MAX }, 3)]);
        assert_eq!(bytes.len(), DIGEST_ENTRY_BYTES);
        assert!(decode_digest(&bytes).is_some());
        bytes[8] = 1; // the low byte of the sequence's upper half
        assert_eq!(decode_digest(&bytes), None);
    }

    /// A router whose sequence wraps keeps originating distinct ids, and
    /// the receivers keep suppressing duplicates and relaying fresh ids
    /// across the wrap.
    #[test]
    fn sequences_wrap_without_breaking_suppression() {
        let mut rng = StdRng::seed_from_u64(13);
        let cfg = eager_cfg(2, 3);
        let mut origin = GossipRouter::new(&cfg);
        origin.next_seq = u32::MAX - 2;
        let mut relay = GossipRouter::new(&cfg);
        let mut ids = Vec::new();
        for _ in 0..6 {
            let (id, ttl, _) = origin.originate(&cfg, at(0, 8), &mut rng);
            let mut receive =
                |rng: &mut StdRng| relay.on_receive(&cfg, id, ttl, None, at(1, 8), rng);
            assert!(matches!(receive(&mut rng), Receipt::Relay(_)));
            assert_eq!(receive(&mut rng), Receipt::Duplicate);
            ids.push(id.seq);
        }
        assert_eq!(ids, [u32::MAX - 2, u32::MAX - 1, u32::MAX, 0, 1, 2]);
        assert!(ids.iter().all(|&seq| relay.has_seen(RumorId { origin: NodeId(0), seq })));
    }

    #[test]
    fn spread_covers_most_nodes_with_modest_ttl() {
        // lpbcast's pitch: fanout 3, TTL ~log(n) reaches nearly everyone.
        let mut rng = StdRng::seed_from_u64(7);
        let (covered, hops, messages) = simulate_spread(64, NodeId(0), eager_cfg(3, 6), &mut rng);
        assert!(covered > 57, "covered only {covered}/64");
        assert!(hops <= 7);
        assert!(messages < 64 * 4, "messages {messages} should stay near n·fanout");
    }

    /// The Plumtree payoff in steady state: after a few rumors have pruned
    /// the redundant links, a lazy spread moves far fewer bodies than the
    /// eager flood for comparable coverage — the redundancy rides on
    /// digests.
    #[test]
    fn lazy_spread_moves_fewer_bodies_for_same_coverage() {
        let mut eager_rng = StdRng::seed_from_u64(21);
        let mut lazy_rng = StdRng::seed_from_u64(21);
        let mut eager_sim = SpreadSim::new(64, eager_cfg(3, 6));
        let mut lazy_sim = SpreadSim::new(64, lazy_cfg(3, 1, 6));
        // Warm-up: let duplicates prune the lazy link state.
        for _ in 0..8 {
            let _ = eager_sim.spread(NodeId(0), &mut eager_rng);
            let _ = lazy_sim.spread(NodeId(0), &mut lazy_rng);
        }
        let eager = eager_sim.spread(NodeId(0), &mut eager_rng);
        let lazy = lazy_sim.spread(NodeId(0), &mut lazy_rng);
        assert!(
            lazy.covered + 8 >= eager.covered,
            "lazy coverage collapsed: {lazy:?} vs {eager:?}"
        );
        assert!(
            2 * lazy.bodies < eager.bodies,
            "steady-state lazy bodies {} should be well under eager bodies {}",
            lazy.bodies,
            eager.bodies
        );
        // Each node pulls a body at most once per rumor.
        assert!(lazy.pulls <= lazy.covered);
    }

    #[test]
    fn ttl_bounds_hops() {
        let mut rng = StdRng::seed_from_u64(8);
        let (_, hops, _) = simulate_spread(128, NodeId(0), eager_cfg(2, 3), &mut rng);
        assert!(hops <= 4, "TTL 3 allows at most 4 delivery waves, got {hops}");
    }

    #[test]
    fn tiny_ttl_limits_coverage() {
        let mut rng = StdRng::seed_from_u64(9);
        let (covered, _, _) = simulate_spread(128, NodeId(0), eager_cfg(2, 1), &mut rng);
        // origin + 2 first-hop + ≤4 second-hop.
        assert!(covered <= 7, "covered {covered}");
    }

    /// The duplicate-suppression memory bound: a long-lived router that
    /// relays rumors forever must hold at most `2 × seen_cap` ids — the
    /// unbounded `HashSet` it replaced grew by one entry per rumor ever
    /// seen.
    #[test]
    fn seen_set_is_bounded_by_generations() {
        let mut rng = StdRng::seed_from_u64(10);
        let cap = 64;
        let cfg = GossipConfig {
            fanout: 2,
            ttl: 3,
            seen_cap: cap,
            mode: GossipMode::Eager,
            ..Default::default()
        };
        let mut r = GossipRouter::new(&cfg);
        for seq in 0..100_000u32 {
            let id = RumorId { origin: NodeId(0), seq };
            let _ = r.on_receive(&cfg, id, 3, None, at(1, 8), &mut rng);
            assert!(
                r.seen_count() <= 2 * cap,
                "seen grew to {} after {} rumors (cap {})",
                r.seen_count(),
                seq + 1,
                cap
            );
        }
        // Recent rumors are still suppressed...
        let recent = RumorId { origin: NodeId(0), seq: 99_999 };
        assert!(r.has_seen(recent));
        assert_eq!(r.on_receive(&cfg, recent, 3, None, at(1, 8), &mut rng), Receipt::Duplicate);
        // ...while ids far outside the window have been evicted.
        let ancient = RumorId { origin: NodeId(0), seq: 0 };
        assert!(!r.has_seen(ancient), "eviction must eventually forget old ids");
    }

    /// Duplicates arriving while an id straddles the generation rotation
    /// are still suppressed (the previous generation stays searchable).
    #[test]
    fn duplicates_across_rotation_are_suppressed() {
        let mut rng = StdRng::seed_from_u64(11);
        let cap = 16;
        let cfg = GossipConfig {
            fanout: 2,
            ttl: 3,
            seen_cap: cap,
            mode: GossipMode::Eager,
            ..Default::default()
        };
        let mut r = GossipRouter::new(&cfg);
        let marked = RumorId { origin: NodeId(0), seq: 0 };
        let receipt = r.on_receive(&cfg, marked, 3, None, at(1, 8), &mut rng);
        assert!(matches!(receipt, Receipt::Relay(_)));
        // Fill exactly up to one rotation: `marked` moves to the previous
        // generation but must still be recognised.
        for seq in 1..cap as u32 {
            let id = RumorId { origin: NodeId(0), seq };
            let _ = r.on_receive(&cfg, id, 3, None, at(1, 8), &mut rng);
        }
        assert!(r.has_seen(marked));
        assert_eq!(r.on_receive(&cfg, marked, 3, None, at(1, 8), &mut rng), Receipt::Duplicate);
    }

    /// Prune state stays bounded by the view no matter how many distinct
    /// peers push duplicates.
    #[test]
    fn demoted_set_is_bounded_by_the_view() {
        let cfg = lazy_cfg(3, 1, 4);
        let mut r = GossipRouter::new(&cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = r.originate(&cfg, at(0, 10_000), &mut rng);
        for p in 1..10_000u32 {
            r.demote(NodeId(p));
            assert!(r.lazy_link_count() <= r.view().len());
            assert_eq!(r.links.len(), cfg.fanout, "a demotion added a link");
        }
        assert_eq!(r.lazy_link_count(), cfg.fanout);
    }

    /// The view a router keeps for the whole run owns exactly the chosen
    /// links — never the deployment-sized candidate range it was drawn
    /// from.
    #[test]
    fn stored_view_is_exactly_sized() {
        let cfg = lazy_cfg(3, 1, 4);
        let mut r = GossipRouter::new(&cfg);
        let mut rng = StdRng::seed_from_u64(12);
        r.ensure_view(&cfg, at(0, 10_000), &mut rng);
        assert_eq!(r.links.capacity(), r.links.len());
        assert!(!r.links.is_empty() && r.links.len() <= cfg.fanout);
    }

    /// The pool-based `pick_peers` the index-based one replaced: list the
    /// candidates, run a partial Fisher–Yates over the list, keep its head.
    fn pick_peers_reference(
        fanout: usize,
        me: NodeId,
        peers: &[NodeId],
        from: Option<NodeId>,
        rng: &mut StdRng,
    ) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> =
            peers.iter().copied().filter(|&p| p != me && Some(p) != from).collect();
        let k = fanout.min(pool.len());
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// Pre-change `on_receive`: `None` for duplicate and terminal alike, so
    /// callers had to probe `has_seen` first to tell them apart.
    fn on_receive_reference(
        r: &mut GossipRouter,
        cfg: &GossipConfig,
        id: RumorId,
        ttl: u8,
        from: Option<NodeId>,
        peers: &[NodeId],
        rng: &mut StdRng,
    ) -> Option<RelayPlan> {
        if !r.note_seen(cfg, id) {
            if let Some(p) = from {
                r.demote(p);
            }
            return None;
        }
        if cfg.mode == GossipMode::Lazy && r.links.is_empty() {
            let view = pick_peers_reference(cfg.fanout, NodeId(0), peers, None, rng);
            r.links = view.into_iter().map(|p| (p, false)).collect();
        }
        if ttl == 0 {
            return None;
        }
        let plan = match cfg.mode {
            GossipMode::Eager => RelayPlan {
                eager: pick_peers_reference(cfg.fanout, NodeId(0), peers, from, rng),
                lazy: Vec::new(),
                ttl: ttl - 1,
            },
            GossipMode::Lazy => r.view_plan(cfg, from, ttl - 1),
        };
        (!plan.is_empty()).then_some(plan)
    }

    /// Every pinned trace depends on the chosen peers and on the RNG
    /// position `pick_peers` leaves behind: both must match the old body.
    #[test]
    fn pick_peers_matches_the_truncating_reference() {
        let fanout = 3;
        for n in [1usize, 2, fanout, fanout + 1, 640] {
            let peers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            for from in [None, Some(NodeId(n as u32 - 1))] {
                for seed in 0..8 {
                    let mut new_rng = StdRng::seed_from_u64(seed);
                    let mut old_rng = StdRng::seed_from_u64(seed);
                    let picked = pick_peers(fanout, at(0, n), from, &mut new_rng);
                    let want = pick_peers_reference(fanout, NodeId(0), &peers, from, &mut old_rng);
                    assert_eq!(picked, want, "n {n} from {from:?} seed {seed}");
                    assert_eq!(picked.capacity(), picked.len());
                    assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "rng position diverged");
                }
            }
        }
    }

    proptest! {
        /// The index-based pick against the pool it no longer builds: the
        /// same peers in the same order, the RNG left at the same position,
        /// whoever the router and the sender are — including a sender that
        /// is the router itself, and fanouts past the population.
        #[test]
        fn index_pick_matches_the_pool_pick(
            n in 1usize..700,
            me in 0usize..700,
            sender in 0usize..3,
            other in 0usize..700,
            fanout in 0usize..8,
            seed in 0u64..1_000,
        ) {
            let me = NodeId((me % n) as u32);
            let from = match sender {
                0 => None,
                1 => Some(NodeId((other % n) as u32)),
                _ => Some(me),
            };
            let peers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            let mut new_rng = StdRng::seed_from_u64(seed);
            let mut old_rng = StdRng::seed_from_u64(seed);
            let picked = pick_peers(fanout, Peers { me, n }, from, &mut new_rng);
            let want = pick_peers_reference(fanout, me, &peers, from, &mut old_rng);
            prop_assert_eq!(&picked, &want);
            prop_assert_eq!(picked.capacity(), picked.len());
            prop_assert_eq!(new_rng.next_u64(), old_rng.next_u64());
        }

        /// The three-way receipt against the old two-call protocol
        /// (`has_seen`, then an `on_receive` that answered `None` for
        /// duplicate and terminal alike, picking from a listed pool) over
        /// rumor sequences with repeats, exhausted TTLs, local injections
        /// and generation rotation.
        #[test]
        fn receipt_matches_has_seen_then_reference(
            lazy in prop::bool::ANY,
            seed in 0u64..64,
            n in 2u32..12,
            arrivals in prop::collection::vec((0u32..24, 0u8..3, 0u32..13), 1..120),
        ) {
            let cfg = GossipConfig {
                fanout: 3,
                ttl: 4,
                seen_cap: 8,
                mode: if lazy { GossipMode::Lazy } else { GossipMode::Eager },
                eager_fanout: 1,
            };
            let peers: Vec<NodeId> = (0..n).map(NodeId).collect();
            let mut new = GossipRouter::new(&cfg);
            let mut old = GossipRouter::new(&cfg);
            let mut new_rng = StdRng::seed_from_u64(seed);
            let mut old_rng = StdRng::seed_from_u64(seed);
            for (seq, ttl, sender) in arrivals {
                let id = RumorId { origin: NodeId(1), seq };
                // Senders past the population stand for local injection.
                let from = (sender < n).then_some(NodeId(sender));
                let was_dup = old.has_seen(id);
                let want = match on_receive_reference(&mut old, &cfg, id, ttl, from, &peers, &mut old_rng) {
                    Some(plan) => Receipt::Relay(plan),
                    None if was_dup => Receipt::Duplicate,
                    None => Receipt::Terminal,
                };
                prop_assert_eq!(new.on_receive(&cfg, id, ttl, from, at(0, n as usize), &mut new_rng), want);
                for &p in &peers {
                    prop_assert_eq!(new.is_demoted(p), old.is_demoted(p));
                }
                prop_assert_eq!(new.seen_ids(), old.seen_ids());
                prop_assert_eq!(new.view().collect::<Vec<_>>(), old.view().collect::<Vec<_>>());
            }
            prop_assert_eq!(new_rng.next_u64(), old_rng.next_u64());
        }

        #[test]
        fn spread_never_exceeds_population(n in 2usize..80, seed in 0u64..32,
                                           fanout in 1usize..5, ttl in 0u8..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (covered, _, _) =
                simulate_spread(n, NodeId(0), GossipConfig { fanout, ttl, mode: GossipMode::Eager, ..Default::default() }, &mut rng);
            prop_assert!(covered <= n);
            prop_assert!(covered >= 1); // origin always counts
        }

        #[test]
        fn message_complexity_is_fanout_bounded(n in 4usize..64, seed in 0u64..16) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = eager_cfg(3, 5);
            let (_, _, messages) = simulate_spread(n, NodeId(0), cfg, &mut rng);
            // Each node forwards a rumor at most once to ≤ fanout peers.
            prop_assert!(messages <= n * cfg.fanout);
        }

        /// Lazy and eager modes deliver the body to exactly the same node
        /// set when the fanout spans the population: the transport split
        /// changes *how* bodies move (push vs digest+pull), never *whether*
        /// they arrive. Checked over several successive rumors so the
        /// pruned-link steady state is exercised, not just the cold-start
        /// flood.
        #[test]
        fn lazy_delivers_the_exact_set_eager_delivers(n in 2usize..40, seed in 0u64..32,
                                                      eager_fanout in 0usize..3) {
            let mut eager_rng = StdRng::seed_from_u64(seed);
            let mut lazy_rng = StdRng::seed_from_u64(seed);
            let full = GossipConfig { fanout: n, ttl: 4, mode: GossipMode::Eager, ..Default::default() };
            let mut eager_sim = SpreadSim::new(n, full);
            let mut lazy_sim = SpreadSim::new(
                n,
                GossipConfig { mode: GossipMode::Lazy, eager_fanout, ..full },
            );
            for round in 0..4 {
                let eager = eager_sim.spread(NodeId(0), &mut eager_rng);
                let lazy = lazy_sim.spread(NodeId(0), &mut lazy_rng);
                prop_assert_eq!(eager.covered, n, "round {}", round);
                prop_assert_eq!(lazy.covered, n, "round {}", round);
                // Body traffic: eager floods ~n·(n-1) copies every round;
                // lazy never moves more and converges toward one per node.
                prop_assert!(lazy.bodies <= eager.bodies);
            }
        }

        /// In lazy mode steady state, bodies scale with coverage (~N), not
        /// with fanout × N: the redundancy rides on digests.
        #[test]
        fn lazy_bodies_scale_with_coverage(n in 8usize..64, seed in 0u64..16) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = GossipConfig {
                fanout: 4, ttl: 6, mode: GossipMode::Lazy, eager_fanout: 1, ..Default::default()
            };
            let mut sim = SpreadSim::new(n, cfg);
            for _ in 0..6 {
                let _ = sim.spread(NodeId(0), &mut rng);
            }
            let s = sim.spread(NodeId(0), &mut rng);
            // Every covered non-origin node needs at least one body; after
            // pruning, pushes land where they are needed plus one pull
            // reply per digest-served node — within 2× coverage instead of
            // fanout × coverage.
            prop_assert!(s.bodies >= s.covered - 1);
            prop_assert!(s.bodies <= 2 * s.covered);
            prop_assert!(s.messages <= n * cfg.fanout + 2 * n);
        }
    }
}
