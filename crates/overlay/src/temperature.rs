//! Updating "temperature" and per-object top-layer membership (§4.1).
//!
//! The top layer for a file — the paper's "temperature overlay" — contains
//! the nodes that "update this file sufficiently frequently and/or recently
//! (hence the term updating 'temperature')". We score each node with an
//! exponentially decayed update count:
//!
//! ```text
//! T(t) = T(t₀) · 2^−(t−t₀)/half_life,   T += 1 on every update
//! ```
//!
//! so frequency and recency both feed the score. Membership uses hysteresis
//! (join above `join_threshold`, leave below `leave_threshold`) so the
//! overlay does not flap, and is capped at `max_size` hottest nodes because
//! the whole point of the top layer is to stay small (§4.1: "it is possible
//! to capture all the active writers with a much smaller subset of the whole
//! network").
//!
//! Every observed update refreshes membership at its time: each score is
//! decayed to `now`, a member stays while it is at or above
//! `leave_threshold`, a non-member joins at `join_threshold`, a score at or
//! below the drop floor (`leave_threshold / 16`) goes cold, and when more
//! scores than `max_size` are hot the members are ranked and cut to the cap.
//!
//! # Deferred refresh
//!
//! A rumor delivery observes a couple of updates, and refreshing every
//! score for each would cost a `powf` per score per observation. The table
//! instead keeps the time `P` of the latest refresh, and each entry owes
//! the refreshes since it was last evaluated. That debt is exactly one
//! refresh, the one at `P`: between its own observations an entry's
//! temperature only falls, so a member that fell below `leave_threshold`
//! stays out, a non-member (below `join_threshold` when last evaluated)
//! cannot rise to it, and a score that reached the floor stays there —
//! the last refresh of a run decides what the whole run would have. An
//! observation settles its own entry at `P`, raises the score, and decides
//! it at `now`, where the decay is 0.5⁰ = 1 and the refresh sees the new
//! value exactly; then `P = now`. Reads evaluate entries at `P` without
//! changing them.
//!
//! The argument needs every refresh it skips to be unranked and monotone,
//! so an observation settles every entry at `P` and runs the full refresh
//! instead when
//!
//! * `leave_threshold ≤ 0`: a score that underflows to zero is dropped
//!   while still a member, and the refresh that drops it lists it until
//!   the next one (a cold entry with its member flag set);
//! * more than `max_size` entries would be hot: the refresh may rank. This
//!   also covers a refresh right after one that ranked someone out, since
//!   such a ranking leaves more than `max_size` members, all hot;
//! * `now < P`: a skewed clock stepped back, and decaying to `now` would
//!   undo part of the decay the refresh at `P` applied.

use idea_types::{NodeId, SimDuration, SimTime};

/// Top-layer membership configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopLayerConfig {
    /// Decay half-life of the temperature score.
    pub half_life: SimDuration,
    /// Score at which a node joins the top layer.
    pub join_threshold: f64,
    /// Score below which a member leaves (must be ≤ `join_threshold`).
    pub leave_threshold: f64,
    /// Hard cap on top-layer size (hottest nodes win).
    pub max_size: usize,
}

impl Default for TopLayerConfig {
    fn default() -> Self {
        TopLayerConfig {
            // A writer updating every 5 s (the paper's workload) sustains a
            // score ≈ rate · half_life / ln2 ≈ 0.2 · 30 / 0.69 ≈ 8.7, far
            // above the join threshold; a node silent for two minutes decays
            // out.
            half_life: SimDuration::from_secs(30),
            join_threshold: 1.5,
            leave_threshold: 0.5,
            max_size: 16,
        }
    }
}

/// One node's entry in an object's table: the highest count of the node's
/// writes seen in any counter vector, and its temperature — a decayed
/// score with its last-touch time and whether the node was in the top
/// layer when the entry was last evaluated. A score that decays to the
/// drop floor goes cold (not `hot`) but the entry stays, so the table
/// grows once per node it ever sees.
///
/// There is one table per (node, object), so an entry is 28 bytes, packed
/// to 4-byte alignment: the two flags live in the top bits of the node-id
/// word (`member` in bit 31, `hot` in bit 30), so a node id must stay below
/// 2^30, which [`Heat::new`] asserts. A packed struct lends no reference
/// to a field, so every field is read and written by value.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Heat {
    /// The node id in bits 0–29, then the `hot` and `member` flags.
    word: u32,
    known: u64,
    value: f64,
    at: SimTime,
}

const _: () = assert!(std::mem::size_of::<Heat>() == 28);

/// The `member` flag of [`Heat::word`].
const MEMBER: u32 = 1 << 31;
/// The `hot` flag of [`Heat::word`].
const HOT: u32 = 1 << 30;
/// The node-id bits of [`Heat::word`]: the largest id an entry holds.
const NODE_MASK: u32 = HOT - 1;

impl Heat {
    /// A cold entry for `node` that knows no count.
    ///
    /// # Panics
    /// Panics when the id does not fit below the flag bits (≥ 2^30).
    fn new(node: NodeId) -> Heat {
        assert!(
            node.0 <= NODE_MASK,
            "node id {} does not fit a temperature entry (< 2^30)",
            node.0
        );
        Heat { word: node.0, known: 0, value: 0.0, at: SimTime::ZERO }
    }

    fn node(&self) -> NodeId {
        NodeId(self.word & NODE_MASK)
    }

    fn member(&self) -> bool {
        self.word & MEMBER != 0
    }

    fn hot(&self) -> bool {
        self.word & HOT != 0
    }

    fn set_member(&mut self, on: bool) {
        self.word = self.word & !MEMBER | if on { MEMBER } else { 0 };
    }

    fn set_hot(&mut self, on: bool) {
        self.word = self.word & !HOT | if on { HOT } else { 0 };
    }

    fn decayed(&self, now: SimTime, half_life: SimDuration) -> f64 {
        let dt = now.saturating_since(self.at).as_micros();
        if dt == 0 {
            // Exact: 0.5⁰ = 1, and a rumor's observations share one `now`.
            return self.value;
        }
        let dt = dt as f64;
        let hl = half_life.as_micros() as f64;
        if hl <= 0.0 {
            return self.value;
        }
        self.value * 0.5f64.powf(dt / hl)
    }

    /// Whether the refresh at `at` left this entry in the top layer.
    fn listed(&self, cfg: &TopLayerConfig, at: SimTime) -> bool {
        // A cold member is a node the refresh at `at` dropped while it
        // still qualified (`leave_threshold ≤ 0`): it stays listed until
        // the next refresh.
        self.member() && (!self.hot() || self.decayed(at, cfg.half_life) >= cfg.leave_threshold)
    }

    /// Applies the refresh at `at` that this entry still owes (see the
    /// module docs); returns whether the score went cold.
    fn settle(&mut self, cfg: &TopLayerConfig, at: SimTime) -> bool {
        if !self.hot() {
            return false;
        }
        let t = self.decayed(at, cfg.half_life);
        self.set_member(self.member() && t >= cfg.leave_threshold);
        self.set_hot(t > floor(cfg));
        !self.hot()
    }
}

/// Score at or below which an entry goes cold.
fn floor(cfg: &TopLayerConfig) -> f64 {
    cfg.leave_threshold / 16.0
}

/// The two-layer view of one shared object: per-node known counts,
/// temperatures and membership in one table.
///
/// One exists per (node, object), so it holds only what differs between
/// them. The settings are the caller's — one [`TopLayerConfig`] per shard,
/// passed by reference to every call that decays a score.
///
/// The table grows in batches: a counter vector that brings `k` nodes the
/// table has not seen reserves room for all `k` at once, rounded up to an
/// even capacity, so a delivery reallocates at most once and the capacity
/// is at most one entry more than the nodes seen. A delivery that brings
/// none calls the allocator zero times.
///
/// Tables learn an object's writers one or two at a time over a whole run
/// and there is one per (node, object), so the rounding is the trade: it
/// halves the reallocations of growing to exactly the nodes seen, for at
/// most one spare 28-byte entry per table, where doubling would leave a
/// quarter of a table spare on average. The entries stay one vector of
/// whole entries (one allocation, one growth per table): keeping node
/// ids, counts and scores in three vectors grew three buffers per table,
/// and read slower and peaked higher on the 640-node workload.
///
/// Node ids must stay below 2^30: an entry keeps its two flags in the top
/// bits of the id's word (see `Heat`).
#[derive(Debug, Clone)]
pub struct TopLayer {
    /// One entry per node ever seen, sorted by node id; the capacity is the
    /// length rounded up to even.
    entries: Vec<Heat>,
    /// Time of the latest refresh; every entry is exact as of it once it
    /// applies the refresh it owes (see the module docs).
    refreshed: SimTime,
    /// Entries with `hot` set: at least the scores the latest refresh
    /// kept, since an entry owing that refresh may still go cold under it.
    hot: u32,
}

impl TopLayer {
    /// An empty view, checked against the settings every later call will
    /// pass.
    pub fn new(cfg: &TopLayerConfig) -> Self {
        assert!(cfg.leave_threshold <= cfg.join_threshold, "hysteresis requires leave ≤ join");
        assert!(cfg.max_size >= 1, "top layer must allow at least one member");
        TopLayer { entries: Vec::new(), refreshed: SimTime::ZERO, hot: 0 }
    }

    /// Index of `node`'s entry, which is at `at` or belongs there; a new
    /// one is inserted cold, knowing no count. `batch` is how many new
    /// entries the caller is about to insert, this one included: a full
    /// table reserves that many, rounded up to an even capacity.
    fn entry(&mut self, node: NodeId, at: usize, batch: impl FnOnce(&Self) -> usize) -> usize {
        if self.entries.get(at).is_some_and(|e| e.node() == node) {
            return at;
        }
        if self.entries.len() == self.entries.capacity() {
            // One of these per (node, object): doubling would leave up to
            // half of every table empty for good.
            let batch = batch(self);
            self.entries.reserve_exact(batch + (self.entries.len() + batch) % 2);
        }
        self.entries.insert(at, Heat::new(node));
        at
    }

    /// Records that `node` updated the object at `now` (observed locally or
    /// learned from a detection message), then refreshes membership.
    pub fn observe_update(&mut self, cfg: &TopLayerConfig, node: NodeId, now: SimTime) {
        let at = self.entries.partition_point(|e| e.node() < node);
        let i = self.entry(node, at, |_| 1);
        self.observe(cfg, i, now);
    }

    /// Learns per-node write counts from a counter vector: one
    /// [`TopLayer::observe_update`] per count a node advanced beyond what
    /// this table knew, in node order. `counts` must be sorted by node;
    /// one forward walk over it and the table finds every entry. The first
    /// new node of a full table reserves room for every new node of
    /// `counts` (see [`TopLayer`] for the rounding).
    pub fn observe_counts<I>(&mut self, cfg: &TopLayerConfig, counts: I, now: SimTime)
    where
        I: IntoIterator<Item = (NodeId, u64)>,
        I::IntoIter: Clone,
    {
        let mut counts = counts.into_iter();
        let mut i = 0;
        while let Some((node, count)) = counts.next() {
            while self.entries.get(i).is_some_and(|e| e.node() < node) {
                i += 1;
            }
            debug_assert!(i == 0 || self.entries[i - 1].node() < node, "counts sorted by node");
            let known = self.entries.get(i).filter(|e| e.node() == node).map_or(0, |e| e.known);
            if count <= known {
                continue;
            }
            let rest = counts.clone();
            i = self.entry(node, i, |layer| 1 + layer.unseen(rest, i));
            for _ in known..count {
                self.observe(cfg, i, now);
            }
            self.entries[i].known = count;
        }
    }

    /// The highest write count seen per node, in node order.
    pub fn known_counts(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.entries.iter().filter(|e| e.known > 0).map(|e| (e.node(), e.known))
    }

    /// One observed update of entry `i` at `now`, and the refresh that
    /// follows it: deferred when the module docs allow, applied to every
    /// entry otherwise.
    fn observe(&mut self, cfg: &TopLayerConfig, i: usize, now: SimTime) {
        let last = self.refreshed;
        self.hot -= u32::from(self.entries[i].settle(cfg, last));
        let warming = u32::from(!self.entries[i].hot());
        let full = cfg.leave_threshold <= 0.0
            || (self.hot + warming) as usize > cfg.max_size
            || now < last;
        if full {
            for heat in &mut self.entries {
                self.hot -= u32::from(heat.settle(cfg, last));
            }
        }
        let heat = &mut self.entries[i];
        heat.value = if heat.hot() { heat.decayed(now, cfg.half_life) + 1.0 } else { 1.0 };
        heat.at = now;
        heat.set_hot(true);
        self.hot += warming;
        if full {
            self.refresh_settled(cfg, now);
        } else {
            // The refresh at `now` decides this entry from its fresh score
            // (decayed by 0.5⁰ = 1: exactly `value`); every other entry
            // owes it.
            let t = heat.value;
            heat.set_member(
                t >= if heat.member() { cfg.leave_threshold } else { cfg.join_threshold },
            );
            if t <= floor(cfg) {
                heat.set_hot(false);
                self.hot -= 1;
            }
            self.refreshed = now;
        }
    }

    /// How many nodes of `counts` (sorted by node, all past the entry
    /// before `from`) with a nonzero count have no entry yet.
    fn unseen(&self, counts: impl Iterator<Item = (NodeId, u64)>, mut from: usize) -> usize {
        let mut unseen = 0;
        for (node, count) in counts {
            while self.entries.get(from).is_some_and(|e| e.node() < node) {
                from += 1;
            }
            unseen +=
                usize::from(count > 0 && self.entries.get(from).is_none_or(|e| e.node() != node));
        }
        unseen
    }

    /// Current temperature of `node`.
    pub fn temperature(&self, cfg: &TopLayerConfig, node: NodeId, now: SimTime) -> f64 {
        self.find(node)
            .filter(|e| e.hot() && e.decayed(self.refreshed, cfg.half_life) > floor(cfg))
            .map_or(0.0, |e| e.decayed(now, cfg.half_life))
    }

    /// Recomputes membership at `now` over every entry (exposed for
    /// periodic sweeps so silent nodes decay out).
    pub fn refresh(&mut self, cfg: &TopLayerConfig, now: SimTime) {
        let last = self.refreshed;
        for heat in &mut self.entries {
            self.hot -= u32::from(heat.settle(cfg, last));
        }
        self.refresh_settled(cfg, now);
    }

    /// The full refresh at `now` of a table that owes no earlier one. One
    /// pass decays each hot score once, and that value decides both
    /// membership and whether the score stays hot.
    fn refresh_settled(&mut self, cfg: &TopLayerConfig, now: SimTime) {
        let TopLayerConfig { half_life, join_threshold, leave_threshold, max_size } = *cfg;
        let floor = floor(cfg);
        // Candidates can outnumber the cap only when scores do; only then
        // must they be ranked, which needs their temperatures.
        let rank = self.hot as usize > max_size;
        let mut ranked: Vec<(NodeId, f64)> = Vec::new();
        let mut hot = 0;
        for heat in &mut self.entries {
            if !heat.hot() {
                // A member the previous refresh dropped leaves now.
                heat.set_member(false);
                continue;
            }
            let t = heat.decayed(now, half_life);
            // Current members stay while above leave_threshold
            // (hysteresis); non-members join above join_threshold.
            heat.set_member(t >= if heat.member() { leave_threshold } else { join_threshold });
            if heat.member() && rank {
                ranked.push((heat.node(), t));
            }
            // Stone-cold scores go cold; the entry keeps its known count.
            heat.set_hot(t > floor);
            hot += u32::from(heat.hot());
        }
        if rank {
            // Hottest first; cap at max_size.
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            ranked.truncate(max_size);
            ranked.sort_unstable_by_key(|&(node, _)| node);
            for heat in self.entries.iter_mut().filter(|h| h.member()) {
                let kept = ranked.binary_search_by_key(&heat.node(), |&(node, _)| node).is_ok();
                heat.set_member(kept);
            }
        }
        self.hot = hot;
        self.refreshed = now;
    }

    fn find(&self, node: NodeId) -> Option<&Heat> {
        self.entries.binary_search_by_key(&node, |e| e.node()).ok().map(|i| &self.entries[i])
    }

    /// Current top-layer members, sorted by node id.
    pub fn top_members<'a>(&'a self, cfg: &'a TopLayerConfig) -> impl Iterator<Item = NodeId> + 'a {
        self.entries.iter().filter(|e| e.listed(cfg, self.refreshed)).map(|e| e.node())
    }

    /// True when `node` is currently in the top layer.
    pub fn is_top(&self, cfg: &TopLayerConfig, node: NodeId) -> bool {
        self.find(node).is_some_and(|e| e.listed(cfg, self.refreshed))
    }

    /// Top-layer peers of `node` (members minus itself).
    pub fn top_peers(&self, cfg: &TopLayerConfig, node: NodeId) -> Vec<NodeId> {
        self.top_members(cfg).filter(|&m| m != node).collect()
    }

    /// True when the top layer holds a member other than `node`.
    pub fn has_top_peer(&self, cfg: &TopLayerConfig, node: NodeId) -> bool {
        self.top_members(cfg).any(|m| m != node)
    }

    /// Bottom-layer members: everyone in `0..n` not currently in the top
    /// layer. The bottom layer "covers all the nodes in the network" minus
    /// the hot writers (§4.1).
    #[cfg(test)]
    pub(crate) fn bottom_members(&self, cfg: &TopLayerConfig, n: usize) -> Vec<NodeId> {
        (0..n as u32).map(NodeId).filter(|&node| !self.is_top(cfg, node)).collect()
    }
}

#[cfg(test)]
mod reference {
    //! The map-backed table the flat one replaced, as it was (minus what
    //! the proptest below does not call): the equivalence reference.

    use super::TopLayerConfig;
    use idea_types::{NodeId, SimDuration, SimTime};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Score {
        value: f64,
        at: SimTime,
    }

    impl Score {
        fn decayed(&self, now: SimTime, half_life: SimDuration) -> f64 {
            let dt = now.saturating_since(self.at).as_micros() as f64;
            let hl = half_life.as_micros() as f64;
            if hl <= 0.0 {
                return self.value;
            }
            self.value * 0.5f64.powf(dt / hl)
        }
    }

    pub struct TwoLayer {
        cfg: TopLayerConfig,
        scores: BTreeMap<NodeId, Score>,
        members: Vec<NodeId>,
    }

    impl TwoLayer {
        pub fn new(cfg: TopLayerConfig) -> Self {
            TwoLayer { cfg, scores: BTreeMap::new(), members: Vec::new() }
        }

        pub fn observe_update(&mut self, node: NodeId, now: SimTime) {
            let hl = self.cfg.half_life;
            let e = self.scores.entry(node).or_insert(Score { value: 0.0, at: now });
            let decayed = e.decayed(now, hl);
            *e = Score { value: decayed + 1.0, at: now };
            self.refresh(now);
        }

        pub fn temperature(&self, node: NodeId, now: SimTime) -> f64 {
            self.scores.get(&node).map_or(0.0, |s| s.decayed(now, self.cfg.half_life))
        }

        pub fn refresh(&mut self, now: SimTime) {
            let hl = self.cfg.half_life;
            let mut candidates: Vec<(NodeId, f64)> = Vec::new();
            for (&node, score) in &self.scores {
                let t = score.decayed(now, hl);
                let is_member = self.members.contains(&node);
                let keep = if is_member {
                    t >= self.cfg.leave_threshold
                } else {
                    t >= self.cfg.join_threshold
                };
                if keep {
                    candidates.push((node, t));
                }
            }
            candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            candidates.truncate(self.cfg.max_size);
            let mut members: Vec<NodeId> = candidates.into_iter().map(|(n, _)| n).collect();
            members.sort_unstable();
            self.members = members;
            let floor = self.cfg.leave_threshold / 16.0;
            self.scores.retain(|_, s| s.decayed(now, hl) > floor);
        }

        pub fn top_members(&self) -> &[NodeId] {
            &self.members
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::ObjectId;
    use proptest::prelude::*;

    fn cfg() -> TopLayerConfig {
        TopLayerConfig::default()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A [`TopLayer`] that carries its own settings, for the tests below that
    /// drive one view on its own (the object id is only a label there). The
    /// rest of [`TopLayer`] it reaches through `Deref`.
    struct TwoLayer {
        cfg: TopLayerConfig,
        layer: TopLayer,
    }

    impl TwoLayer {
        fn new(_object: ObjectId, cfg: TopLayerConfig) -> Self {
            TwoLayer { cfg, layer: TopLayer::new(&cfg) }
        }

        fn observe_update(&mut self, node: NodeId, now: SimTime) {
            self.layer.observe_update(&self.cfg, node, now);
        }

        fn temperature(&self, node: NodeId, now: SimTime) -> f64 {
            self.layer.temperature(&self.cfg, node, now)
        }

        fn refresh(&mut self, now: SimTime) {
            self.layer.refresh(&self.cfg, now);
        }

        fn top_members(&self) -> Vec<NodeId> {
            self.layer.top_members(&self.cfg).collect()
        }

        fn is_top(&self, node: NodeId) -> bool {
            self.layer.is_top(&self.cfg, node)
        }

        fn top_peers(&self, node: NodeId) -> Vec<NodeId> {
            self.layer.top_peers(&self.cfg, node)
        }

        fn bottom_members(&self, n: usize) -> Vec<NodeId> {
            self.layer.bottom_members(&self.cfg, n)
        }
    }

    impl std::ops::Deref for TwoLayer {
        type Target = TopLayer;
        fn deref(&self) -> &TopLayer {
            &self.layer
        }
    }

    #[test]
    fn paper_workload_forms_four_node_top_layer() {
        // Four writers update every 5 s; after warm-up the top layer is
        // exactly those four (§6.1).
        let mut layer = TwoLayer::new(ObjectId(0), cfg());
        for step in 0..12u64 {
            let now = t(step * 5);
            for w in 0..4u32 {
                layer.observe_update(NodeId(w), now);
            }
        }
        assert_eq!(layer.top_members(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert!(layer.is_top(NodeId(2)));
        assert!(!layer.is_top(NodeId(17)));
    }

    #[test]
    fn silent_node_decays_out() {
        let mut layer = TwoLayer::new(ObjectId(0), cfg());
        for step in 0..6u64 {
            layer.observe_update(NodeId(0), t(step * 5));
        }
        assert!(layer.is_top(NodeId(0)));
        // Two half-life-free minutes later the score is ~2^-4 of ~5.
        layer.refresh(t(30 + 120));
        assert!(!layer.is_top(NodeId(0)));
        assert!(layer.temperature(NodeId(0), t(150)) < cfg().leave_threshold);
    }

    #[test]
    fn hysteresis_keeps_members_between_thresholds() {
        let c = TopLayerConfig {
            half_life: SimDuration::from_secs(30),
            join_threshold: 2.0,
            leave_threshold: 0.5,
            max_size: 8,
        };
        let mut layer = TwoLayer::new(ObjectId(0), c);
        layer.observe_update(NodeId(0), t(0));
        layer.observe_update(NodeId(0), t(1));
        layer.observe_update(NodeId(0), t(2));
        assert!(layer.is_top(NodeId(0)), "joined above join_threshold");
        // Decay to between leave (0.5) and join (2.0): still a member.
        layer.refresh(t(2 + 45));
        let temp = layer.temperature(NodeId(0), t(47));
        assert!(temp < 2.0 && temp > 0.5, "temp {temp}");
        assert!(layer.is_top(NodeId(0)), "hysteresis holds membership");
        // A fresh node with the same temperature would not join.
        let mut other = TwoLayer::new(ObjectId(0), c);
        other.observe_update(NodeId(1), t(0));
        other.refresh(t(10));
        assert!(!other.is_top(NodeId(1)));
    }

    #[test]
    fn max_size_keeps_hottest() {
        let c = TopLayerConfig { max_size: 2, ..cfg() };
        let mut layer = TwoLayer::new(ObjectId(0), c);
        // Node 5 updates most, node 3 moderately, node 9 barely enough.
        for i in 0..8 {
            layer.observe_update(NodeId(5), t(i));
        }
        for i in 0..4 {
            layer.observe_update(NodeId(3), t(i));
        }
        for i in 0..2 {
            layer.observe_update(NodeId(9), t(i));
        }
        layer.refresh(t(8));
        assert_eq!(layer.top_members(), &[NodeId(3), NodeId(5)]);
    }

    #[test]
    fn peers_exclude_self_and_bottom_is_complement() {
        let mut layer = TwoLayer::new(ObjectId(0), cfg());
        for step in 0..8u64 {
            for w in 0..3u32 {
                layer.observe_update(NodeId(w), t(step * 5));
            }
        }
        assert_eq!(layer.top_peers(NodeId(1)), vec![NodeId(0), NodeId(2)]);
        let bottom = layer.bottom_members(6);
        assert_eq!(bottom, vec![NodeId(3), NodeId(4), NodeId(5)]);
    }

    #[test]
    fn temperature_decays_by_half_life() {
        let mut layer = TwoLayer::new(ObjectId(0), cfg());
        layer.observe_update(NodeId(0), t(0));
        let t0 = layer.temperature(NodeId(0), t(0));
        let t30 = layer.temperature(NodeId(0), t(30));
        assert!((t0 - 1.0).abs() < 1e-9);
        assert!((t30 - 0.5).abs() < 1e-9, "one half-life halves the score");
    }

    /// Once warm, observations change the table in place: no allocation
    /// per observation while the cap cannot bind.
    #[test]
    fn warm_refresh_reuses_its_buffers() {
        let mut layer = TwoLayer::new(ObjectId(0), cfg());
        for step in 0..4u64 {
            for w in 0..4u32 {
                layer.observe_update(NodeId(w), t(step));
            }
        }
        assert_eq!(layer.top_members().len(), 4);
        let table = (layer.entries.as_ptr(), layer.entries.capacity());
        for step in 4..40u64 {
            for w in 0..4u32 {
                layer.observe_update(NodeId(w), t(step));
            }
        }
        assert_eq!(layer.top_members().len(), 4);
        assert_eq!((layer.entries.as_ptr(), layer.entries.capacity()), table);
    }

    /// The table keeps one entry per node it has seen and grows in batches
    /// rounded up to an even capacity: nodes observed on their own grow it
    /// two slots at a time, a counter vector bringing several new nodes
    /// grows it once for all of them, and a node whose score went cold and
    /// warmed back up never grows it again. Its capacity is always its
    /// length rounded up to even.
    #[test]
    fn table_capacity_follows_its_peak_length() {
        let c = cfg();
        let mut layer = TopLayer::new(&c);
        let sized = |layer: &TopLayer| {
            let len = layer.entries.len();
            (len, layer.entries.capacity()) == (len, len + len % 2)
        };
        for w in [9u32, 2, 5, 0, 7] {
            layer.observe_update(&c, NodeId(w), t(0));
            assert!(
                sized(&layer),
                "{} entries, capacity {}",
                layer.entries.len(),
                layer.entries.capacity()
            );
        }
        assert_eq!(layer.entries.capacity(), 6);
        // Five minutes of silence decay every score cold; the entries stay.
        layer.refresh(&c, t(300));
        assert_eq!((layer.entries.len(), layer.hot), (5, 0));
        // Cold scores warming again reuse their entries in place, and a
        // node never seen before takes the spare slot...
        let buffer = layer.entries.as_ptr();
        for w in [9u32, 2, 5, 0, 7] {
            layer.observe_update(&c, NodeId(w), t(300));
        }
        assert_eq!((layer.entries.len(), layer.hot), (5, 5));
        layer.observe_update(&c, NodeId(4), t(300));
        assert_eq!((layer.entries.len(), layer.entries.capacity()), (6, 6));
        assert_eq!(layer.entries.as_ptr(), buffer);
        // ...a vector bringing four new nodes among known ones grows it
        // once, by four, wherever they land; one bringing a single new node
        // grows it by two...
        let counts = [1u32, 2, 3, 7, 8, 11].map(|w| (NodeId(w), u64::from(w % 3 + 1)));
        layer.observe_counts(&c, counts, t(301));
        assert_eq!((layer.entries.len(), layer.entries.capacity()), (10, 10));
        layer.observe_counts(&c, [(NodeId(6), 1)], t(301));
        assert_eq!((layer.entries.len(), layer.entries.capacity()), (11, 12));
        // ...and one bringing none, only higher counts, keeps the buffer.
        let buffer = layer.entries.as_ptr();
        layer.observe_counts(&c, counts.map(|(w, n)| (w, n + 2)), t(302));
        assert_eq!((layer.entries.len(), layer.entries.capacity()), (11, 12));
        assert_eq!(layer.entries.as_ptr(), buffer);
    }

    /// An id at the flag bits does not fit an entry: the table refuses it
    /// where the entry would be created.
    #[test]
    #[should_panic(expected = "does not fit a temperature entry")]
    fn node_ids_from_two_to_the_thirty_are_refused() {
        let c = cfg();
        let mut layer = TopLayer::new(&c);
        layer.observe_update(&c, NodeId(NODE_MASK), t(0));
        layer.observe_counts(&c, [(NodeId(NODE_MASK + 1), 1)], t(0));
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn invalid_thresholds_panic() {
        let _ = TwoLayer::new(
            ObjectId(0),
            TopLayerConfig { join_threshold: 0.1, leave_threshold: 0.5, ..cfg() },
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
        /// The flat table against the map-backed one it replaced, over
        /// random observation sequences: same-`now` repeats, gaps long
        /// enough to drop stone-cold scores, bare refreshes, caps that bind
        /// (1–4 against 5 writers), half-life 0 and a zero leave threshold.
        /// After every step the members are equal and every temperature is
        /// bit-equal.
        #[test]
        fn flat_table_matches_the_map_reference(
            half_life_s in 0u64..3,
            max_size in 1usize..5,
            thresholds in 0usize..4,
            steps in prop::collection::vec((0u32..5, 0u8..4, 0u64..3000), 0..80),
        ) {
            let (join_threshold, leave_threshold) =
                [(1.5, 0.5), (2.0, 0.0), (0.5, 0.5), (1.0, 0.25)][thresholds];
            let c = TopLayerConfig {
                half_life: SimDuration::from_secs([0, 1, 30][half_life_s as usize]),
                join_threshold,
                leave_threshold,
                max_size,
            };
            let mut got = TwoLayer::new(ObjectId(0), c);
            let mut want = reference::TwoLayer::new(c);
            let mut now = SimTime::ZERO;
            for (node, kind, gap) in steps {
                let node = NodeId(node);
                match kind {
                    0 => {}
                    1 => now += SimDuration::from_millis(gap),
                    _ => now += SimDuration::from_millis(gap * 100),
                }
                if kind == 3 {
                    got.refresh(now);
                    want.refresh(now);
                } else {
                    got.observe_update(node, now);
                    want.observe_update(node, now);
                }
                prop_assert_eq!(got.top_members(), want.top_members());
                for n in 0..6u32 {
                    for probe in [now, now + SimDuration::from_secs(7)] {
                        prop_assert_eq!(
                            got.temperature(NodeId(n), probe).to_bits(),
                            want.temperature(NodeId(n), probe).to_bits()
                        );
                    }
                }
            }
        }

        /// Every id below 2^30 comes back out of an entry whatever its
        /// flags, and each flag reads back as last set.
        #[test]
        fn node_ids_round_trip_with_every_flag(id in 0u32..(1 << 30), from in 0u8..4) {
            let flags = |bits: u8| (bits & 1 != 0, bits & 2 != 0);
            let mut heat = Heat::new(NodeId(id));
            prop_assert_eq!((heat.node(), heat.member(), heat.hot()), (NodeId(id), false, false));
            // Every combination, entered from a random one.
            let (member, hot) = flags(from);
            heat.set_member(member);
            heat.set_hot(hot);
            for bits in 0..4u8 {
                let (member, hot) = flags(bits);
                heat.set_member(member);
                heat.set_hot(hot);
                prop_assert_eq!((heat.node(), heat.member(), heat.hot()), (NodeId(id), member, hot));
            }
        }

        #[test]
        fn membership_is_sorted_and_capped(
            updates in prop::collection::vec((0u32..20, 0u64..300), 0..120),
            max_size in 1usize..6,
        ) {
            let c = TopLayerConfig { max_size, ..cfg() };
            let mut layer = TwoLayer::new(ObjectId(0), c);
            let mut ordered = updates;
            ordered.sort_by_key(|&(_, at)| at);
            for (w, at) in ordered {
                layer.observe_update(NodeId(w), t(at));
            }
            let members = layer.top_members();
            prop_assert!(members.len() <= max_size);
            prop_assert!(members.windows(2).all(|w| w[0] < w[1]));
        }

        #[test]
        fn temperature_never_negative(
            updates in prop::collection::vec((0u32..8, 0u64..100), 0..60),
            probe in 0u64..200,
        ) {
            let mut layer = TwoLayer::new(ObjectId(0), cfg());
            let mut ordered = updates;
            ordered.sort_by_key(|&(_, at)| at);
            for (w, at) in ordered {
                layer.observe_update(NodeId(w), t(at));
            }
            for w in 0..8u32 {
                prop_assert!(layer.temperature(NodeId(w), t(probe)) >= 0.0);
            }
        }
    }
}
