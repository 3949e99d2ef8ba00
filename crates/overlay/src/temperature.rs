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

use idea_types::{NodeId, ObjectId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Top-layer membership configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// One node's temperature: a decayed score with its last-touch time, and
/// whether the node is in the top layer now. The flag sits in what would
/// otherwise be padding and mirrors `members` exactly, so a refresh tests
/// membership without searching it.
#[derive(Debug, Clone, Copy)]
struct Heat {
    node: NodeId,
    member: bool,
    value: f64,
    at: SimTime,
}

impl Heat {
    fn decayed(&self, now: SimTime, half_life: SimDuration) -> f64 {
        let dt = now.saturating_since(self.at).as_micros() as f64;
        let hl = half_life.as_micros() as f64;
        if hl <= 0.0 {
            return self.value;
        }
        self.value * 0.5f64.powf(dt / hl)
    }
}

/// The two-layer view of one shared object: temperatures plus membership.
#[derive(Debug, Clone)]
pub struct TwoLayer {
    object: ObjectId,
    cfg: TopLayerConfig,
    /// Scored nodes, sorted by node id.
    scores: Vec<Heat>,
    members: Vec<NodeId>,
}

impl TwoLayer {
    /// Builds an empty two-layer view of `object`.
    pub fn new(object: ObjectId, cfg: TopLayerConfig) -> Self {
        assert!(cfg.leave_threshold <= cfg.join_threshold, "hysteresis requires leave ≤ join");
        assert!(cfg.max_size >= 1, "top layer must allow at least one member");
        TwoLayer { object, cfg, scores: Vec::new(), members: Vec::new() }
    }

    /// The object this view tracks.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The configuration in force.
    pub fn config(&self) -> &TopLayerConfig {
        &self.cfg
    }

    /// Records that `node` updated the object at `now` (observed locally or
    /// learned from a detection message), then refreshes membership.
    pub fn observe_update(&mut self, node: NodeId, now: SimTime) {
        let i = match self.scores.binary_search_by_key(&node, |h| h.node) {
            Ok(i) => i,
            Err(i) => {
                let member = self.members.binary_search(&node).is_ok();
                self.scores.insert(i, Heat { node, member, value: 0.0, at: now });
                i
            }
        };
        let heat = &mut self.scores[i];
        heat.value = heat.decayed(now, self.cfg.half_life) + 1.0;
        heat.at = now;
        self.refresh(now);
    }

    /// Current temperature of `node`.
    pub fn temperature(&self, node: NodeId, now: SimTime) -> f64 {
        self.scores
            .binary_search_by_key(&node, |h| h.node)
            .map_or(0.0, |i| self.scores[i].decayed(now, self.cfg.half_life))
    }

    /// Recomputes membership at `now` (called by `observe_update`; exposed
    /// for periodic sweeps so silent nodes decay out). One pass decays each
    /// score once, and that value decides both membership and whether the
    /// score is kept.
    pub fn refresh(&mut self, now: SimTime) {
        let TopLayerConfig { half_life, join_threshold, leave_threshold, max_size } = self.cfg;
        let floor = leave_threshold / 16.0;
        // Candidates can outnumber the cap only when scores do; only then
        // must they be ranked, which needs their temperatures.
        let rank = self.scores.len() > max_size;
        let mut ranked: Vec<(NodeId, f64)> = Vec::new();
        let members = &mut self.members;
        members.clear();
        self.scores.retain_mut(|heat| {
            let t = heat.decayed(now, half_life);
            // Current members stay while above leave_threshold
            // (hysteresis); non-members join above join_threshold.
            heat.member = t >= if heat.member { leave_threshold } else { join_threshold };
            if heat.member {
                if rank {
                    ranked.push((heat.node, t));
                } else {
                    members.push(heat.node);
                }
            }
            // Drop stone-cold scores so the table stays small.
            t > floor
        });
        if rank {
            // Hottest first; cap at max_size; store sorted by id for
            // determinism.
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            ranked.truncate(max_size);
            members.extend(ranked.iter().map(|&(node, _)| node));
            members.sort_unstable();
            for heat in &mut self.scores {
                heat.member = members.binary_search(&heat.node).is_ok();
            }
        }
    }

    /// Current top-layer members, sorted by node id.
    pub fn top_members(&self) -> &[NodeId] {
        &self.members
    }

    /// True when `node` is currently in the top layer.
    pub fn is_top(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Top-layer peers of `node` (members minus itself).
    pub fn top_peers(&self, node: NodeId) -> Vec<NodeId> {
        self.members.iter().copied().filter(|&m| m != node).collect()
    }

    /// Bottom-layer members: everyone in `0..n` not currently in the top
    /// layer. The bottom layer "covers all the nodes in the network" minus
    /// the hot writers (§4.1).
    pub fn bottom_members(&self, n: usize) -> Vec<NodeId> {
        (0..n as u32).map(NodeId).filter(|node| !self.is_top(*node)).collect()
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
    use proptest::prelude::*;

    fn cfg() -> TopLayerConfig {
        TopLayerConfig::default()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
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

    /// Once warm, a refresh rebuilds membership in the buffers it has: no
    /// allocation per observation while the cap cannot bind.
    #[test]
    fn warm_refresh_reuses_its_buffers() {
        let mut layer = TwoLayer::new(ObjectId(0), cfg());
        for step in 0..4u64 {
            for w in 0..4u32 {
                layer.observe_update(NodeId(w), t(step));
            }
        }
        assert_eq!(layer.top_members().len(), 4);
        let (scores, members) = (layer.scores.as_ptr(), layer.members.as_ptr());
        for step in 4..40u64 {
            for w in 0..4u32 {
                layer.observe_update(NodeId(w), t(step));
            }
        }
        assert_eq!(layer.top_members().len(), 4);
        assert_eq!(layer.scores.as_ptr(), scores);
        assert_eq!(layer.members.as_ptr(), members);
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
