//! Lightweight probabilistic broadcast for the bottom layer.
//!
//! "In the bottom layer, it uses gossip-based protocol \[6\] to check in the
//! background any missed inconsistency by the top-layer" (§4.3), with a TTL
//! bounding the traversal so detection delay stays bounded (§4.4.2:
//! "Currently, we use TTL (Time to Live) to control the traversal of the
//! bottom-layer detection messages").
//!
//! ## Push on a tree, advertise on the rest
//!
//! Flooding full rumor bodies to every chosen peer costs `O(fanout · N)`
//! bodies per rumor, the dominant traffic at scale. The router instead
//! runs a Plumtree-style split: each node keeps a **stable view** of
//! `fanout` gossip neighbours, and every view link is persistently either
//! **eager** (full bodies) or **lazy** (a compact [`RumorId`] digest —
//! "IHAVE"). Links start eager, so the first rumor floods the view; a
//! duplicate body is answered with a *prune*, demoting the link on
//! **both** ends — the sender stops pushing bodies down it (the direction
//! that wasted the copy) and the receiver stops pushing back. The
//! surviving eager links converge toward a spanning tree carrying `~N`
//! bodies per rumor while the pruned links pay only digest bytes. A
//! digest receiver missing the body pulls it from the advertiser, which
//! *grafts* the link back to eager on both sides — pruning can never
//! partition the dissemination.
//!
//! [`GossipRouter`] is engine-agnostic: the caller hands it received rumor
//! ids and it answers with a [`RelayPlan`]; the detection protocol (in
//! `idea-core`) turns plans into actual messages, owns the rumor bodies,
//! and runs the pull timers.

#[cfg(test)]
use idea_types::FastSet;
use idea_types::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Gossip configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GossipConfig {
    /// Number of peers each node forwards a fresh rumor to.
    pub fanout: usize,
    /// Initial time-to-live (hop budget) of a rumor.
    pub ttl: u8,
    /// The eager floor: when *every* view link has been pruned, this many
    /// links are grafted back so bodies keep moving (a rumor must never
    /// stall on an all-lazy view). Clamped to the view size; values below
    /// 1 are treated as 1.
    pub eager_fanout: usize,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig { fanout: 3, ttl: 4, eager_fanout: 1 }
    }
}

/// Unique rumor identity: (origin node, origin-local sequence), 8 bytes.
///
/// The sequence is a wrapping `u32`, consecutive per originating router.
/// An id only has to be unique while something can still confuse it with
/// another: inside the receivers' duplicate-suppression window (the
/// [`WINDOW`] newest sequences of its origin) and while one rumor's copies,
/// cached bodies and pulls are alive. A router reuses a sequence only
/// after 2³² originations of its own, far outside both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RumorId {
    /// Node that started the rumor.
    pub origin: NodeId,
    /// Origin-local sequence number (wrapping).
    pub seq: u32,
}

/// Sequences per origin a router tells apart: one `u64` of bits.
pub const WINDOW: u32 = 64;

/// One origin's duplicate-suppression window, 16 bytes: bit `k` of `bits`
/// set means rumor `newest − k` of `origin` was processed here. Bit 0 is
/// always set (the newest sequence is the newest one processed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    origin: NodeId,
    newest: u32,
    bits: u64,
}

impl Window {
    /// Where `seq` falls: `Ok(age)` for a sequence at or behind `newest`,
    /// `Err(d)` for one `d` ahead of it (wrapping, so half the sequence
    /// space counts as ahead).
    fn age(&self, seq: u32) -> Result<u32, u32> {
        let d = seq.wrapping_sub(self.newest);
        if (d as i32) > 0 {
            Err(d)
        } else {
            Ok(self.newest.wrapping_sub(seq))
        }
    }

    /// True when `seq` counts as processed: its bit is set, or it is too
    /// far behind for the window to tell.
    fn holds(&self, seq: u32) -> bool {
        match self.age(seq) {
            Err(_) => false,
            Ok(age) => age >= WINDOW || self.bits & (1 << age) != 0,
        }
    }

    /// Marks `seq` processed; returns `false` when it already counted as
    /// processed ([`Window::holds`]).
    fn note(&mut self, seq: u32) -> bool {
        match self.age(seq) {
            Err(d) => {
                self.bits = if d >= WINDOW { 1 } else { self.bits << d | 1 };
                self.newest = seq;
                true
            }
            Ok(age) if age >= WINDOW => false,
            Ok(age) => {
                let bit = 1 << age;
                let fresh = self.bits & bit == 0;
                self.bits |= bit;
                fresh
            }
        }
    }

    /// The processed sequences the window still tells apart.
    fn ids(&self) -> impl Iterator<Item = RumorId> + '_ {
        (0..WINDOW)
            .filter(|&k| self.bits & (1 << k) != 0)
            .map(|k| RumorId { origin: self.origin, seq: self.newest.wrapping_sub(k) })
    }
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
/// on the forwarded copies.
///
/// A plan borrows the router's view rather than copying it out: its eager
/// peers are the view's unpruned links and its lazy peers the pruned ones,
/// each in view order with the arrival link left out. Making one calls the
/// allocator zero times whatever the fanout, and the borrow ends before
/// the router is touched again.
#[derive(Debug, Clone, Copy)]
pub struct RelayPlan<'a> {
    /// The router's view links, each with whether it is pruned.
    links: &'a [(NodeId, bool)],
    /// The link the rumor arrived on, which gets nothing.
    from: Option<NodeId>,
    /// TTL to stamp on the forwarded copies (bodies and digests alike).
    pub ttl: u8,
}

impl<'a> RelayPlan<'a> {
    /// The view's links on one side of the split, the arrival link left
    /// out.
    fn side(&self, pruned: bool) -> impl Iterator<Item = NodeId> + 'a {
        let from = self.from;
        self.links.iter().filter(move |l| l.1 == pruned && Some(l.0) != from).map(|l| l.0)
    }

    /// Peers receiving the full rumor body.
    pub fn eager(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.side(false)
    }

    /// Peers receiving only the id digest ("IHAVE").
    pub fn lazy(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.side(true)
    }

    /// Total peers contacted by this plan.
    #[cfg(test)]
    pub(crate) fn contacts(&self) -> usize {
        self.links.iter().filter(|l| Some(l.0) != self.from).count()
    }

    /// True when the plan contacts nobody.
    fn is_empty(&self) -> bool {
        self.links.iter().all(|l| Some(l.0) == self.from)
    }
}

/// Two plans are equal when they send the same peers the same things.
impl PartialEq for RelayPlan<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.ttl == other.ttl && self.eager().eq(other.eager()) && self.lazy().eq(other.lazy())
    }
}

impl Eq for RelayPlan<'_> {}

/// What a received rumor body meant to the router
/// ([`GossipRouter::on_receive`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Receipt<'a> {
    /// The body was already processed here. The link it arrived on was
    /// demoted (the push was pure redundancy); nothing else changed.
    Duplicate,
    /// First delivery, nothing to relay: the TTL is exhausted or no
    /// eligible peer remains.
    Terminal,
    /// First delivery: relay per the plan.
    Relay(RelayPlan<'a>),
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

/// Per-node gossip state: duplicate suppression and the stable view with
/// its persistent eager/lazy link split.
///
/// One router exists per (node, object), so it holds only what differs
/// between them: the settings ([`GossipConfig`]) and the router's identity
/// and population ([`Peers`]) come in with every call.
///
/// Duplicate suppression is **one window per origin**: an origin's rumor
/// sequences are consecutive, so the router keeps, per origin it has heard
/// from, the newest sequence and a [`WINDOW`]-bit map of the ones just
/// behind it. A rumor further behind than that counts as a duplicate and
/// is never relayed again. Memory is 16 bytes per origin — the object's
/// writers and sweep initiators — however many rumors a long run produces.
///
/// A warm router — its view sampled, a window for every origin — handles a
/// receipt without calling the allocator: the windows change in place and
/// the [`RelayPlan`] borrows the view.
#[derive(Debug, Clone, Default)]
pub struct GossipRouter {
    /// The windows, sorted by origin. The vector grows geometrically (room
    /// for four, then doubling), so a router reallocates about twice while
    /// its origins accumulate, and never once they have all been heard.
    seen: Vec<Window>,
    /// The stable gossip neighbourhood in sampling order, each link with
    /// whether it is pruned to the lazy side (a duplicate body arrived on
    /// it): up to `fanout` peers, sampled once on first use into one
    /// exactly sized allocation.
    links: Vec<(NodeId, bool)>,
    /// Sequence of the next originated rumor (wrapping; see [`RumorId`]).
    next_seq: u32,
}

impl GossipRouter {
    /// The index of `origin`'s window, or where it would go.
    fn find(&self, origin: NodeId) -> Result<usize, usize> {
        self.seen.binary_search_by_key(&origin, |w| w.origin)
    }

    /// Records `id` as seen; returns `false` when it already counted as
    /// seen.
    fn note_seen(&mut self, id: RumorId) -> bool {
        match self.find(id.origin) {
            Ok(i) => self.seen[i].note(id.seq),
            Err(at) => {
                self.seen.insert(at, Window { origin: id.origin, newest: id.seq, bits: 1 });
                true
            }
        }
    }

    /// Starts a new rumor at `peers.me`; returns its id, the initial TTL,
    /// and the first hop plan chosen among `peers`.
    pub fn originate<R: Rng + ?Sized>(
        &mut self,
        cfg: &GossipConfig,
        peers: Peers,
        rng: &mut R,
    ) -> (RumorId, u8, RelayPlan<'_>) {
        let id = RumorId { origin: peers.me, seq: self.next_seq };
        self.next_seq = self.next_seq.wrapping_add(1);
        self.note_seen(id);
        self.ensure_view(cfg, peers, rng);
        let plan = self.view_plan(cfg, None, cfg.ttl);
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
    /// [`Receipt::Duplicate`] instead of probing `GossipRouter::has_seen`
    /// first.
    pub fn on_receive<R: Rng + ?Sized>(
        &mut self,
        cfg: &GossipConfig,
        id: RumorId,
        ttl: u8,
        from: Option<NodeId>,
        peers: Peers,
        rng: &mut R,
    ) -> Receipt<'_> {
        if !self.note_seen(id) {
            // Duplicate body: the sender wasted a full push on us — prune
            // that link to the lazy side from now on.
            if let Some(p) = from {
                self.demote(p);
            }
            return Receipt::Duplicate;
        }
        self.ensure_view(cfg, peers, rng);
        if ttl == 0 {
            return Receipt::Terminal;
        }
        let plan = self.view_plan(cfg, from, ttl - 1);
        if plan.is_empty() {
            Receipt::Terminal
        } else {
            Receipt::Relay(plan)
        }
    }

    /// True when the rumor counts as processed here: it was, or it is more
    /// than [`WINDOW`] sequences behind the newest of its origin processed
    /// here.
    pub(crate) fn has_seen(&self, id: RumorId) -> bool {
        self.find(id.origin).is_ok_and(|i| self.seen[i].holds(id.seq))
    }

    /// True when a digest for `id` should trigger a pull: the body does not
    /// count as processed here yet.
    pub fn wants_body(&self, id: RumorId) -> bool {
        !self.has_seen(id)
    }

    /// Number of rumor ids the windows tell apart as processed (at most
    /// [`WINDOW`] per origin).
    pub fn seen_count(&self) -> usize {
        self.seen.iter().map(|w| w.bits.count_ones() as usize).sum()
    }

    /// Rumor ids the windows tell apart as processed, sorted
    /// (test/harness introspection for delivery-set comparisons).
    pub fn seen_ids(&self) -> Vec<RumorId> {
        let mut ids: Vec<RumorId> = self.seen.iter().flat_map(Window::ids).collect();
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
    #[cfg(test)]
    pub(crate) fn is_demoted(&self, peer: NodeId) -> bool {
        self.links.contains(&(peer, true))
    }

    /// The stable view in sampling order (empty before first use).
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
            self.links = pick_peers(cfg.fanout, peers, rng);
        }
    }

    /// A relay plan over the stable view: eager links carry the body, lazy
    /// links the digest, the arrival link (`from`) is excluded. When every
    /// candidate is pruned, the first [`GossipConfig::eager_fanout`] links
    /// (at least one) are grafted back so the rumor keeps moving.
    fn view_plan(&mut self, cfg: &GossipConfig, from: Option<NodeId>, ttl: u8) -> RelayPlan<'_> {
        let candidate = |l: &(NodeId, bool)| Some(l.0) != from;
        if self.links.iter().filter(|l| candidate(l)).all(|l| l.1) {
            let floor = cfg.eager_fanout.max(1);
            for l in self.links.iter_mut().filter(|l| candidate(l)).take(floor) {
                l.1 = false;
            }
        }
        RelayPlan { links: &self.links, from, ttl }
    }
}

/// Uniformly picks up to `fanout` distinct peers among `peers`, returned
/// as fresh (eager) view links in one exactly sized allocation: the router
/// keeps it as its view.
///
/// This is a partial Fisher–Yates over the candidates listed in id order,
/// run without the list: candidate slot `c` holds the `c`-th id of `0..n`
/// other than `me`. The draws come first, each parked in the link it will
/// become (a slot is below `n`, so it fits a `NodeId`). Pick `i` is what
/// slot `j_i` held after swaps `0..i`, found by undoing those swaps from
/// `j_i`; resolving the picks last first reads only draws still parked.
/// Same `gen_range` draws, same picks, no memory beyond the view whatever
/// the deployment size.
fn pick_peers<R: Rng + ?Sized>(fanout: usize, peers: Peers, rng: &mut R) -> Vec<(NodeId, bool)> {
    let (n, me) = (peers.n, peers.me.index());
    let candidates = n - usize::from(me < n);
    let k = fanout.min(candidates);
    let mut view = Vec::with_capacity(k);
    for i in 0..k {
        view.push((NodeId(rng.gen_range(i..candidates) as u32), false));
    }
    for i in (0..k).rev() {
        let mut slot = view[i].0.index();
        for t in (0..i).rev() {
            let j = view[t].0.index();
            if slot == t {
                slot = j;
            } else if slot == j {
                slot = t;
            }
        }
        view[i].0 = NodeId((slot + usize::from(slot >= me)) as u32);
    }
    view
}

/// Message/coverage tallies of one simulated spread.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SpreadStats {
    /// Nodes that processed the rumor body.
    pub(crate) covered: usize,
    /// Delivery waves until the spread died out.
    pub(crate) hops: usize,
    /// Total messages: bodies + digests + pulls + pull replies.
    pub(crate) messages: usize,
    /// Full-body messages (eager pushes plus pull replies).
    pub(crate) bodies: usize,
    /// Digest messages sent on lazy links.
    pub(crate) digests: usize,
    /// Pull requests issued by digest receivers missing the body.
    pub(crate) pulls: usize,
    /// Prune notifications sent back to duplicate pushers.
    pub(crate) prunes: usize,
}

/// Synchronous multi-rumor spread simulation: the tests' oracle for what
/// the routers do together. Routers persist across rumors, so the
/// prune/graft link state accumulates exactly as it does in the engines:
/// the first rumor floods (all links eager), later rumors ride the pruned
/// link split. Digest receivers missing the body pull it from the
/// advertiser once the flood dies out (loss-free semantics; loss
/// injection is the network engines' job).
#[cfg(test)]
pub(crate) struct SpreadSim {
    cfg: GossipConfig,
    routers: Vec<GossipRouter>,
}

#[cfg(test)]
impl SpreadSim {
    /// A fresh `n`-node population with per-node routers.
    pub(crate) fn new(n: usize, cfg: GossipConfig) -> Self {
        SpreadSim { cfg, routers: (0..n).map(|_| GossipRouter::default()).collect() }
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
    pub(crate) fn spread<R: Rng + ?Sized>(&mut self, origin: NodeId, rng: &mut R) -> SpreadStats {
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
            stats.bodies += plan.eager().count();
            stats.digests += plan.lazy().count();
            for t in plan.eager() {
                frontier.push(Body { node: t, ttl: plan.ttl, from });
            }
            for t in plan.lazy() {
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
                        Receipt::Duplicate => {
                            // Duplicate push: answer with a PRUNE so the
                            // *sender* demotes its outgoing link — that is
                            // the link that wasted the body.
                            stats.messages += 1;
                            stats.prunes += 1;
                            self.routers[c.from.index()].demote(c.node);
                        }
                        Receipt::Terminal => {}
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

/// One-shot spread of a single rumor through a fresh population — the
/// cold-start wave (all links still eager); use [`SpreadSim`] for
/// steady-state behaviour.
#[cfg(test)]
pub(crate) fn simulate_spread<R: Rng + ?Sized>(
    n: usize,
    origin: NodeId,
    cfg: GossipConfig,
    rng: &mut R,
) -> SpreadStats {
    SpreadSim::new(n, cfg).spread(origin, rng)
}

#[cfg(test)]
mod reference {
    //! The two-generation duplicate suppression the per-origin windows
    //! replaced, as it was, in front of the same view and link code, and
    //! the relay plan as it was before plans borrowed the view: the
    //! equivalence references.

    use super::{GossipConfig, GossipRouter, Peers, Receipt, RumorId};
    use idea_types::{FastSet, NodeId};
    use rand::Rng;

    /// A relay plan that owns its two peer lists.
    pub struct OwnedPlan {
        pub eager: Vec<NodeId>,
        pub lazy: Vec<NodeId>,
        pub ttl: u8,
    }

    /// The plan over `r`'s view as it was built with owned lists: eager
    /// links carry the body, lazy links the digest, `from` is excluded,
    /// and when every candidate is pruned the first `eager_fanout` (at
    /// least one) are grafted back.
    pub fn view_plan(
        r: &mut GossipRouter,
        cfg: &GossipConfig,
        from: Option<NodeId>,
        ttl: u8,
    ) -> OwnedPlan {
        let mut eager = Vec::new();
        let mut lazy = Vec::new();
        for &(p, pruned) in &r.links {
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
                r.graft(p);
                eager.push(p);
            }
        }
        OwnedPlan { eager, lazy, ttl }
    }

    pub struct GenerationalRouter {
        /// Ids went into the current generation; at `cap` it became the
        /// previous one and the one before was dropped wholesale.
        cap: usize,
        seen: FastSet<RumorId>,
        seen_prev: FastSet<RumorId>,
        /// Only its view and links are used: its own windows stay empty.
        links: GossipRouter,
    }

    impl GenerationalRouter {
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "duplicate suppression needs a positive window");
            GenerationalRouter {
                cap,
                seen: FastSet::default(),
                seen_prev: FastSet::default(),
                links: GossipRouter::default(),
            }
        }

        fn note_seen(&mut self, id: RumorId) -> bool {
            if self.seen_prev.contains(&id) || !self.seen.insert(id) {
                return false;
            }
            if self.seen.len() >= self.cap {
                self.seen_prev = std::mem::take(&mut self.seen);
            }
            true
        }

        pub fn on_receive<R: Rng + ?Sized>(
            &mut self,
            cfg: &GossipConfig,
            id: RumorId,
            ttl: u8,
            from: Option<NodeId>,
            peers: Peers,
            rng: &mut R,
        ) -> Receipt<'_> {
            if !self.note_seen(id) {
                if let Some(p) = from {
                    self.links.demote(p);
                }
                return Receipt::Duplicate;
            }
            self.links.ensure_view(cfg, peers, rng);
            if ttl == 0 {
                return Receipt::Terminal;
            }
            let plan = self.links.view_plan(cfg, from, ttl - 1);
            if plan.is_empty() {
                Receipt::Terminal
            } else {
                Receipt::Relay(plan)
            }
        }

        pub fn has_seen(&self, id: RumorId) -> bool {
            self.seen.contains(&id) || self.seen_prev.contains(&id)
        }

        pub fn wants_body(&self, id: RumorId) -> bool {
            !self.has_seen(id)
        }

        pub fn seen_ids(&self) -> Vec<RumorId> {
            let mut ids: Vec<RumorId> = self.seen.union(&self.seen_prev).copied().collect();
            ids.sort_unstable();
            ids
        }

        /// The links, for the view and prune-state comparisons (and for
        /// the demotion a receipt outside the window makes).
        pub fn links(&mut self) -> &mut GossipRouter {
            &mut self.links
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn lazy_cfg(fanout: usize, eager_fanout: usize, ttl: u8) -> GossipConfig {
        GossipConfig { fanout, ttl, eager_fanout }
    }

    /// Node `me` of an `n`-node deployment.
    fn at(me: u32, n: usize) -> Peers {
        Peers { me: NodeId(me), n }
    }

    /// Which kind of receipt `r` is, without the plan it borrows.
    fn kind(r: Receipt) -> &'static str {
        match r {
            Receipt::Duplicate => "duplicate",
            Receipt::Terminal => "terminal",
            Receipt::Relay(_) => "relay",
        }
    }

    /// A plan's eager and lazy peers, listed.
    fn sides(plan: &RelayPlan) -> (Vec<NodeId>, Vec<NodeId>) {
        (plan.eager().collect(), plan.lazy().collect())
    }

    #[test]
    fn originate_marks_seen_and_picks_fanout() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = lazy_cfg(3, 1, 4);
        let mut r = GossipRouter::default();
        let (id, ttl, plan) = r.originate(&cfg, at(0, 10), &mut rng);
        assert_eq!(id.origin, NodeId(0));
        assert_eq!(ttl, 4);
        assert_eq!(plan.ttl, 4);
        let (eager, lazy) = sides(&plan);
        assert!(lazy.is_empty(), "a fresh view's links are all eager");
        assert_eq!(eager.len(), 3);
        assert!(!eager.contains(&NodeId(0)), "never forwards to self");
        assert!(r.has_seen(id));
        // Distinct targets.
        let mut t = eager;
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
        let mut r = GossipRouter::default();
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
        let mut r = GossipRouter::default();
        let id = RumorId { origin: NodeId(0), seq: 1 };
        assert_eq!(r.on_receive(&cfg, id, 0, None, at(1, 5), &mut rng), Receipt::Terminal);
        // Still marked seen so a later copy with budget is also dropped.
        assert_eq!(r.on_receive(&cfg, id, 5, None, at(1, 5), &mut rng), Receipt::Duplicate);
    }

    #[test]
    fn forwarded_ttl_decrements() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = lazy_cfg(2, 1, 8);
        let mut r = GossipRouter::default();
        let id = RumorId { origin: NodeId(0), seq: 0 };
        match r.on_receive(&cfg, id, 5, None, at(2, 6), &mut rng) {
            Receipt::Relay(plan) => {
                assert_eq!(plan.ttl, 4);
                assert_eq!(plan.eager().count(), 2);
            }
            other => panic!("fresh rumor with budget must forward, got {other:?}"),
        }
    }

    /// Sender exclusion on a 3-node line: node 0 originates with fanout 2,
    /// so every view is both other nodes and every relay's eager links
    /// minus the sender are {the third node} — a rumor is never pushed
    /// back to the peer it just arrived from, and the spread costs exactly
    /// 4 bodies (0→1, 0→2, 1→2, 2→1) instead of the 6 a sender-oblivious
    /// flood could emit.
    #[test]
    fn sender_exclusion_on_three_node_line() {
        let cfg = lazy_cfg(2, 1, 8);
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut routers: Vec<GossipRouter> = (0..3).map(|_| GossipRouter::default()).collect();
            let (id, _ttl, plan) = routers[0].originate(&cfg, at(0, 3), &mut rng);
            let mut total = plan.eager().count();
            let mut frontier: Vec<(NodeId, u8, NodeId)> =
                plan.eager().map(|t| (t, plan.ttl, NodeId(0))).collect();
            while let Some((node, ttl, from)) = frontier.pop() {
                let peers = at(node.0, 3);
                if let Receipt::Relay(p) =
                    routers[node.index()].on_receive(&cfg, id, ttl, Some(from), peers, &mut rng)
                {
                    assert!(p.eager().all(|t| t != from), "pushed rumor back to its sender");
                    total += p.eager().count();
                    frontier.extend(p.eager().map(|t| (t, p.ttl, node)));
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
        let mut r = GossipRouter::default();
        let (_id, _ttl, plan) = r.originate(&cfg, at(0, 10), &mut rng);
        let (eager, lazy) = sides(&plan);
        assert_eq!(eager.len(), 4, "links start eager");
        assert!(lazy.is_empty());
        let pruned = eager[0];
        r.demote(pruned);
        let (_id, _ttl, plan) = r.originate(&cfg, at(0, 10), &mut rng);
        let (eager, lazy) = sides(&plan);
        assert_eq!(eager.len(), 3);
        assert_eq!(lazy, vec![pruned]);
        // Disjoint link sets, and the split is stable without randomness.
        assert!(eager.iter().all(|e| !lazy.contains(e)));
        let (_id, _ttl, again) = r.originate(&cfg, at(0, 10), &mut rng);
        assert_eq!(sides(&again).1, vec![pruned]);
    }

    #[test]
    fn demoted_peers_drift_to_lazy_links() {
        let cfg = lazy_cfg(3, 1, 6);
        let mut r = GossipRouter::default();
        let mut rng = StdRng::seed_from_u64(1);
        // First originate samples the view: all 3 other nodes.
        let _ = r.originate(&cfg, at(0, 4), &mut rng);
        r.demote(NodeId(1));
        r.demote(NodeId(2));
        // The split is persistent state, identical on every later rumor.
        for round in 0..8 {
            let (_id, _ttl, plan) = r.originate(&cfg, at(0, 4), &mut rng);
            let (eager, lazy) = sides(&plan);
            assert_eq!(eager, vec![NodeId(3)], "round {round}");
            assert_eq!(lazy.len(), 2);
        }
    }

    #[test]
    fn all_demoted_still_fills_eager_floor() {
        let cfg = lazy_cfg(3, 2, 6);
        let mut r = GossipRouter::default();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = r.originate(&cfg, at(0, 4), &mut rng);
        for p in 1..4 {
            r.demote(NodeId(p));
        }
        let (_id, _ttl, plan) = r.originate(&cfg, at(0, 4), &mut rng);
        let (eager, lazy) = sides(&plan);
        assert_eq!(eager.len(), 2, "bodies must still move when every link is pruned");
        assert_eq!(lazy.len(), 1);
        // The floor grafts the promoted links: the state is repaired, not
        // overridden per plan.
        assert_eq!(eager.iter().filter(|&&p| r.is_demoted(p)).count(), 0);
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
        let cfg = lazy_cfg(2, 1, 3);
        let mut origin = GossipRouter { next_seq: u32::MAX - 2, ..Default::default() };
        let mut relay = GossipRouter::default();
        let mut ids = Vec::new();
        for _ in 0..6 {
            let (id, ttl, _) = origin.originate(&cfg, at(0, 8), &mut rng);
            let mut receive =
                |rng: &mut StdRng| kind(relay.on_receive(&cfg, id, ttl, None, at(1, 8), rng));
            assert_eq!(receive(&mut rng), "relay");
            assert_eq!(receive(&mut rng), "duplicate");
            ids.push(id.seq);
        }
        assert_eq!(ids, [u32::MAX - 2, u32::MAX - 1, u32::MAX, 0, 1, 2]);
        assert!(ids.iter().all(|&seq| relay.has_seen(RumorId { origin: NodeId(0), seq })));
    }

    #[test]
    fn spread_covers_most_nodes_with_modest_ttl() {
        // lpbcast's pitch: fanout 3, TTL ~log(n) reaches nearly everyone.
        let mut rng = StdRng::seed_from_u64(7);
        let s = simulate_spread(64, NodeId(0), lazy_cfg(3, 1, 6), &mut rng);
        assert!(s.covered > 57, "covered only {}/64", s.covered);
        assert!(s.hops <= 7);
        // Prunes answering duplicate pushes are messages too; the bound is
        // on the bodies, the traffic that scales with fanout.
        assert!(s.bodies < 64 * 4, "bodies {} should stay near n·fanout", s.bodies);
    }

    #[test]
    fn ttl_bounds_hops() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = simulate_spread(128, NodeId(0), lazy_cfg(2, 1, 3), &mut rng);
        assert!(s.hops <= 4, "TTL 3 allows at most 4 delivery waves, got {}", s.hops);
    }

    #[test]
    fn tiny_ttl_limits_coverage() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = simulate_spread(128, NodeId(0), lazy_cfg(2, 1, 1), &mut rng);
        // origin + 2 first-hop + ≤4 second-hop.
        assert!(s.covered <= 7, "covered {}", s.covered);
    }

    /// The duplicate-suppression memory bound: a long-lived router that
    /// relays rumors forever holds one window per origin — the unbounded
    /// `HashSet` it once had grew by one entry per rumor ever seen, the
    /// two generations after it by up to 8,192 ids.
    #[test]
    fn seen_state_is_one_window_per_origin() {
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = lazy_cfg(2, 1, 3);
        let mut r = GossipRouter::default();
        let mut buffer = None;
        for seq in 0..100_000u32 {
            for origin in [NodeId(0), NodeId(5)] {
                let _ = r.on_receive(&cfg, RumorId { origin, seq }, 3, None, at(1, 8), &mut rng);
            }
            assert!(r.seen.len() <= 2, "{} windows for two origins", r.seen.len());
            assert!(r.seen_count() <= 2 * WINDOW as usize);
            // Once both origins have a window, the windows change in place.
            assert_eq!(*buffer.get_or_insert(r.seen.as_ptr()), r.seen.as_ptr(), "seq {seq}");
        }
        assert!(r.seen.capacity() <= (2 * r.seen.len()).max(4), "geometric growth");
        assert_eq!(r.seen_count(), 2 * WINDOW as usize);
        // Recent rumors are still suppressed...
        let recent = RumorId { origin: NodeId(0), seq: 99_999 };
        assert!(r.has_seen(recent));
        assert_eq!(r.on_receive(&cfg, recent, 3, None, at(1, 8), &mut rng), Receipt::Duplicate);
        // ...and so are ids far behind the window: they count as processed
        // and are never relayed again.
        let ancient = RumorId { origin: NodeId(0), seq: 0 };
        assert!(r.has_seen(ancient), "ids behind the window count as processed");
        assert!(!r.wants_body(ancient));
        assert_eq!(r.on_receive(&cfg, ancient, 3, None, at(1, 8), &mut rng), Receipt::Duplicate);
    }

    /// The window's edge: a rumor 63 sequences behind its origin's newest
    /// is still told apart (fresh once, then a duplicate); one 64 behind
    /// is a duplicate without ever having been processed.
    #[test]
    fn duplicates_at_the_window_edge_are_suppressed() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = lazy_cfg(2, 1, 3);
        let mut r = GossipRouter::default();
        let mut receive =
            |r: &mut GossipRouter, id| kind(r.on_receive(&cfg, id, 3, None, at(1, 8), &mut rng));
        let id = |seq| RumorId { origin: NodeId(0), seq };
        let (newest, age_63, age_64) = (id(100), id(37), id(36));
        assert_eq!(receive(&mut r, newest), "relay");
        assert!(r.wants_body(age_63));
        assert_eq!(receive(&mut r, age_63), "relay");
        assert_eq!(receive(&mut r, age_63), "duplicate");
        assert!(!r.wants_body(age_64));
        assert_eq!(receive(&mut r, age_64), "duplicate");
        assert_eq!(r.seen_ids(), vec![age_63, newest]);
        // One step more slides the processed age-63 id out of the window:
        // still suppressed, no longer listed.
        assert_eq!(receive(&mut r, id(101)), "relay");
        assert_eq!(r.seen_ids(), vec![newest, id(101)]);
        assert_eq!(receive(&mut r, age_63), "duplicate");
    }

    /// Prune state stays bounded by the view no matter how many distinct
    /// peers push duplicates.
    #[test]
    fn demoted_set_is_bounded_by_the_view() {
        let cfg = lazy_cfg(3, 1, 4);
        let mut r = GossipRouter::default();
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
        let mut r = GossipRouter::default();
        let mut rng = StdRng::seed_from_u64(12);
        r.ensure_view(&cfg, at(0, 10_000), &mut rng);
        assert_eq!(r.links.capacity(), r.links.len());
        assert!(r.links.iter().all(|l| !l.1), "a sampled link starts eager");
        assert!(!r.links.is_empty() && r.links.len() <= cfg.fanout);
    }

    /// The pool-based `pick_peers` the index-based one replaced: list the
    /// candidates, run a partial Fisher–Yates over the list, keep its head.
    fn pick_peers_reference(
        fanout: usize,
        me: NodeId,
        peers: &[NodeId],
        rng: &mut StdRng,
    ) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> = peers.iter().copied().filter(|&p| p != me).collect();
        let k = fanout.min(pool.len());
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// `peers` as fresh view links, all eager.
    fn eager_links(peers: &[NodeId]) -> Vec<(NodeId, bool)> {
        peers.iter().map(|&p| (p, false)).collect()
    }

    /// Pre-change `on_receive`: `None` for duplicate and terminal alike, so
    /// callers had to probe `has_seen` first to tell them apart.
    fn on_receive_reference<'r>(
        r: &'r mut GossipRouter,
        cfg: &GossipConfig,
        id: RumorId,
        ttl: u8,
        from: Option<NodeId>,
        peers: &[NodeId],
        rng: &mut StdRng,
    ) -> Option<RelayPlan<'r>> {
        if !r.note_seen(id) {
            if let Some(p) = from {
                r.demote(p);
            }
            return None;
        }
        if r.links.is_empty() {
            let view = pick_peers_reference(cfg.fanout, NodeId(0), peers, rng);
            r.links = view.into_iter().map(|p| (p, false)).collect();
        }
        if ttl == 0 {
            return None;
        }
        let plan = r.view_plan(cfg, from, ttl - 1);
        (!plan.is_empty()).then_some(plan)
    }

    /// Every pinned trace depends on the chosen peers and on the RNG
    /// position `pick_peers` leaves behind: both must match the old body.
    #[test]
    fn pick_peers_matches_the_truncating_reference() {
        let fanout = 3;
        for n in [1usize, 2, fanout, fanout + 1, 640] {
            let peers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            for seed in 0..8 {
                let mut new_rng = StdRng::seed_from_u64(seed);
                let mut old_rng = StdRng::seed_from_u64(seed);
                let picked = pick_peers(fanout, at(0, n), &mut new_rng);
                let want = pick_peers_reference(fanout, NodeId(0), &peers, &mut old_rng);
                assert_eq!(picked, eager_links(&want), "n {n} seed {seed}");
                assert_eq!(picked.capacity(), picked.len());
                assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "rng position diverged");
            }
        }
    }

    proptest! {
        /// The index-based pick against the pool it no longer builds: the
        /// same peers in the same order, the RNG left at the same position,
        /// whoever the router is — and for fanouts past the population.
        #[test]
        fn index_pick_matches_the_pool_pick(
            n in 1usize..700,
            me in 0usize..700,
            fanout in 0usize..8,
            seed in 0u64..1_000,
        ) {
            let me = NodeId((me % n) as u32);
            let peers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            let mut new_rng = StdRng::seed_from_u64(seed);
            let mut old_rng = StdRng::seed_from_u64(seed);
            let picked = pick_peers(fanout, Peers { me, n }, &mut new_rng);
            let want = pick_peers_reference(fanout, me, &peers, &mut old_rng);
            prop_assert_eq!(&picked, &eager_links(&want));
            prop_assert_eq!(picked.capacity(), picked.len());
            prop_assert_eq!(new_rng.next_u64(), old_rng.next_u64());
        }

        /// The three-way receipt against the old two-call protocol
        /// (`has_seen`, then an `on_receive` that answered `None` for
        /// duplicate and terminal alike, picking from a listed pool) over
        /// rumor sequences with repeats, exhausted TTLs and local
        /// injections.
        #[test]
        fn receipt_matches_has_seen_then_reference(
            seed in 0u64..64,
            n in 2u32..12,
            arrivals in prop::collection::vec((0u32..24, 0u8..3, 0u32..13), 1..120),
        ) {
            let cfg = GossipConfig { fanout: 3, ttl: 4, eager_fanout: 1 };
            let peers: Vec<NodeId> = (0..n).map(NodeId).collect();
            let mut new = GossipRouter::default();
            let mut old = GossipRouter::default();
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

        /// The per-origin windows against the two generations they
        /// replaced (with room for every id), over several origins with
        /// duplicates, reordering inside the window, jumps past it, an
        /// origin restarting at seq 0 after fewer than 64 rumors and seqs
        /// wrapping past `u32::MAX`. While an id is within 64 of its
        /// origin's newest, the receipt, `has_seen`, `wants_body` and the
        /// listed ids all agree; further behind, the receipt is
        /// `Duplicate` (the reference would have relayed it once more).
        #[test]
        fn windows_match_the_generational_reference(
            seed in 0u64..64,
            wrap in prop::collection::vec(0u8..2, 3..4),
            arrivals in prop::collection::vec((0usize..3, 0u8..5, 0u32..80, 0u8..3, 0u32..9), 1..160),
        ) {
            let cfg = GossipConfig { fanout: 3, ttl: 4, eager_fanout: 1 };
            let peers = at(0, 8);
            let mut new = GossipRouter::default();
            let mut old = reference::GenerationalRouter::new(4096);
            let mut new_rng = StdRng::seed_from_u64(seed);
            let mut old_rng = StdRng::seed_from_u64(seed);
            let origins = [NodeId(1), NodeId(4), NodeId(6)];
            // Each origin's next sequence (near the wrap for some), and the
            // newest sequence of it any receipt was asked about.
            let mut next: Vec<u32> = wrap.iter().map(|&w| if w == 1 { u32::MAX - 40 } else { 0 }).collect();
            let mut newest: Vec<Option<u32>> = vec![None; 3];
            let in_window = |newest: Option<u32>, seq: u32| {
                newest.is_none_or(|n| (seq.wrapping_sub(n) as i32) > 0 || n.wrapping_sub(seq) < WINDOW)
            };
            for (o, kind, amount, ttl, sender) in arrivals {
                let seq = match kind {
                    // A rumor behind the newest: a duplicate, a late copy
                    // inside the window, or one past it.
                    2 => next[o].wrapping_sub(1 + amount),
                    // The origin restarts at 0 while its newest is young.
                    3 => {
                        if newest[o].is_some_and(|n| n < WINDOW - 1) {
                            next[o] = 0;
                        }
                        next[o]
                    }
                    // The origin's next rumor, after no gap, a short one or
                    // a long one.
                    _ => {
                        let gap = match kind {
                            0 => 0,
                            1 => amount,
                            _ => amount << 12,
                        };
                        let seq = next[o].wrapping_add(gap);
                        next[o] = seq.wrapping_add(1);
                        seq
                    }
                };
                let id = RumorId { origin: origins[o], seq };
                // Senders past the population stand for local injection.
                let from = (sender < 8).then_some(NodeId(sender));
                let got = new.on_receive(&cfg, id, ttl, from, peers, &mut new_rng);
                if in_window(newest[o], seq) {
                    prop_assert_eq!(&got, &old.on_receive(&cfg, id, ttl, from, peers, &mut old_rng));
                } else {
                    prop_assert_eq!(&got, &Receipt::Duplicate);
                    if let Some(p) = from {
                        old.links().demote(p);
                    }
                }
                if newest[o].is_none_or(|n| (seq.wrapping_sub(n) as i32) > 0) {
                    newest[o] = Some(seq);
                }
                for p in (0..8).map(NodeId) {
                    prop_assert_eq!(new.is_demoted(p), old.links().is_demoted(p));
                }
                prop_assert_eq!(new.view().collect::<Vec<_>>(), old.links().view().collect::<Vec<_>>());
                let held = |id: &RumorId| {
                    let o = origins.iter().position(|&x| x == id.origin).unwrap();
                    in_window(newest[o], id.seq)
                };
                let want: Vec<RumorId> = old.seen_ids().into_iter().filter(held).collect();
                prop_assert_eq!(new.seen_ids(), want);
                prop_assert_eq!(new.seen_count(), new.seen_ids().len());
                // Probes around every origin's newest, on both sides of the
                // window's edge.
                for (p, &origin) in origins.iter().enumerate() {
                    let Some(n) = newest[p] else { continue };
                    for back in [0, 1, amount, WINDOW - 1, WINDOW, WINDOW + 3] {
                        let probe = RumorId { origin, seq: n.wrapping_sub(back) };
                        if in_window(newest[p], probe.seq) {
                            prop_assert_eq!(new.has_seen(probe), old.has_seen(probe));
                            prop_assert_eq!(new.wants_body(probe), old.wants_body(probe));
                        } else {
                            prop_assert!(new.has_seen(probe) && !new.wants_body(probe));
                        }
                    }
                    let ahead = RumorId { origin, seq: n.wrapping_add(1) };
                    prop_assert!(!new.has_seen(ahead) && !old.has_seen(ahead));
                }
            }
            prop_assert_eq!(new_rng.next_u64(), old_rng.next_u64());
        }

        /// The borrowed plan against the owned lists it replaced, over
        /// views of up to eight links with random pruned flags, arrivals
        /// from inside the view, from outside it and local injections,
        /// floors of zero to three, and demotions between plans: same
        /// peers on each side in the same order, same emptiness, and the
        /// eager-floor graft leaves the same link state.
        #[test]
        fn borrowed_plan_matches_the_owned_reference(
            view in prop::collection::vec((0u32..12, 0u8..4), 0..9),
            eager_fanout in 0usize..4,
            steps in prop::collection::vec((0u32..14, 0u8..5, 0u32..12), 1..12),
        ) {
            let mut links: Vec<(NodeId, bool)> = Vec::new();
            for (p, pruned) in view {
                if links.iter().all(|l| l.0 != NodeId(p)) {
                    links.push((NodeId(p), pruned != 0));
                }
            }
            let cfg = GossipConfig { fanout: links.len(), ttl: 4, eager_fanout };
            let mut new = GossipRouter { links: links.clone(), ..Default::default() };
            let mut old = GossipRouter { links, ..Default::default() };
            for (sender, ttl, demoted) in steps {
                // Peer 12 is in no view; 13 stands for local injection.
                let from = (sender < 13).then_some(NodeId(sender));
                new.demote(NodeId(demoted));
                old.demote(NodeId(demoted));
                let want = reference::view_plan(&mut old, &cfg, from, ttl);
                let got = new.view_plan(&cfg, from, ttl);
                prop_assert_eq!(got.eager().collect::<Vec<_>>(), want.eager.clone());
                prop_assert_eq!(got.lazy().collect::<Vec<_>>(), want.lazy.clone());
                prop_assert_eq!(got.ttl, want.ttl);
                prop_assert_eq!(got.is_empty(), want.eager.is_empty() && want.lazy.is_empty());
                prop_assert_eq!(got.contacts(), want.eager.len() + want.lazy.len());
                prop_assert_eq!(&new.links, &old.links);
            }
        }

        #[test]
        fn spread_never_exceeds_population(n in 2usize..80, seed in 0u64..32,
                                           fanout in 1usize..5, ttl in 0u8..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = simulate_spread(n, NodeId(0), GossipConfig { fanout, ttl, ..Default::default() }, &mut rng);
            prop_assert!(s.covered <= n);
            prop_assert!(s.covered >= 1); // origin always counts
        }

        #[test]
        fn message_complexity_is_fanout_bounded(n in 4usize..64, seed in 0u64..16) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = lazy_cfg(3, 1, 5);
            let s = simulate_spread(n, NodeId(0), cfg, &mut rng);
            // Each node forwards a rumor body at most once to ≤ fanout
            // peers (prunes answering duplicates are not bodies).
            prop_assert!(s.bodies <= n * cfg.fanout);
        }

        /// With the fanout spanning the population, every node gets the
        /// body of every rumor: the link split changes *how* bodies move
        /// (push vs digest+pull), never *whether* they arrive. Checked over
        /// several successive rumors so the pruned-link steady state is
        /// exercised, not just the cold-start flood. Bodies never exceed
        /// the `(n-1)²` a full flood pushes (`n-1` from the origin, `n-2`
        /// from every relay).
        #[test]
        fn full_fanout_spread_reaches_every_node(n in 2usize..40, seed in 0u64..32,
                                                 eager_fanout in 0usize..3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let full = GossipConfig { fanout: n, ttl: 4, eager_fanout };
            let mut sim = SpreadSim::new(n, full);
            for round in 0..4 {
                let s = sim.spread(NodeId(0), &mut rng);
                prop_assert_eq!(s.covered, n, "round {}", round);
                prop_assert!(s.bodies <= (n - 1) * (n - 1), "round {}: {:?}", round, s);
            }
        }

        /// In steady state, bodies scale with coverage (~N), not with
        /// fanout × N: the redundancy rides on digests.
        #[test]
        fn lazy_bodies_scale_with_coverage(n in 8usize..64, seed in 0u64..16) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = lazy_cfg(4, 1, 6);
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
