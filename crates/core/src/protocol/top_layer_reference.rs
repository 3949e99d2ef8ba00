//! The temperature table and the known counts as they were before one
//! table held both and refreshes were deferred, kept verbatim (minus what
//! nothing here calls) as the equivalence reference for [`TopLayer`](idea_overlay::TopLayer) and
//! [`ObjShared::note_counters`](super::ObjShared::note_counters).

use super::{NodeCore, ObjShared};
use crate::config::IdeaConfig;
use idea_overlay::temperature::TopLayerConfig;
use idea_types::{NodeId, SimDuration, SimTime, WriterId};
use idea_vv::VersionVector;

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
///
/// One exists per (node, object), so it holds only what differs between
/// them: the scores and the members. The settings are the caller's — one
/// [`TopLayerConfig`] per shard, passed by reference to every call that
/// decays a score.
#[derive(Debug, Clone)]
pub struct TopLayer {
    /// Scored nodes, sorted by node id. Grown one slot at a time, so its
    /// capacity is the most scores it ever held, not the next power of two.
    scores: Vec<Heat>,
    members: Vec<NodeId>,
}

impl TopLayer {
    /// An empty view, checked against the settings every later call will
    /// pass.
    pub fn new(cfg: &TopLayerConfig) -> Self {
        assert!(cfg.leave_threshold <= cfg.join_threshold, "hysteresis requires leave ≤ join");
        assert!(cfg.max_size >= 1, "top layer must allow at least one member");
        TopLayer { scores: Vec::new(), members: Vec::new() }
    }

    /// Records that `node` updated the object at `now` (observed locally or
    /// learned from a detection message), then refreshes membership.
    pub fn observe_update(&mut self, cfg: &TopLayerConfig, node: NodeId, now: SimTime) {
        let i = match self.scores.binary_search_by_key(&node, |h| h.node) {
            Ok(i) => i,
            Err(i) => {
                let member = self.members.binary_search(&node).is_ok();
                if self.scores.len() == self.scores.capacity() {
                    // One of these per (node, object): doubling would leave
                    // up to half of every table empty for good.
                    self.scores.reserve_exact(1);
                }
                self.scores.insert(i, Heat { node, member, value: 0.0, at: now });
                i
            }
        };
        let heat = &mut self.scores[i];
        heat.value = heat.decayed(now, cfg.half_life) + 1.0;
        heat.at = now;
        self.refresh(cfg, now);
    }

    /// Current temperature of `node`.
    pub fn temperature(&self, cfg: &TopLayerConfig, node: NodeId, now: SimTime) -> f64 {
        self.scores
            .binary_search_by_key(&node, |h| h.node)
            .map_or(0.0, |i| self.scores[i].decayed(now, cfg.half_life))
    }

    /// Recomputes membership at `now` (called by `observe_update`; exposed
    /// for periodic sweeps so silent nodes decay out). One pass decays each
    /// score once, and that value decides both membership and whether the
    /// score is kept.
    pub fn refresh(&mut self, cfg: &TopLayerConfig, now: SimTime) {
        let TopLayerConfig { half_life, join_threshold, leave_threshold, max_size } = *cfg;
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
}

/// What an `ObjShared` learned from passing counters, as it was: the
/// table plus a separate vector of known counts.
pub(super) struct Learned {
    pub layer: TopLayer,
    pub known_counts: VersionVector,
}

impl Learned {
    pub fn new(cfg: &TopLayerConfig) -> Self {
        Learned { layer: TopLayer::new(cfg), known_counts: VersionVector::new() }
    }

    /// `ObjShared::note_counters` as it was.
    pub fn note_counters(&mut self, cfg: &TopLayerConfig, counters: &VersionVector, now: SimTime) {
        let layer = &mut self.layer;
        self.known_counts.merge_with(counters, |writer, known, count| {
            let node = NodeCore::home(writer);
            for _ in known..count {
                layer.observe_update(cfg, node, now);
            }
        });
    }
}

/// One step of the equivalence run.
enum Step {
    /// A counter vector passes by.
    Counters(Vec<(u32, u64)>),
    /// The node itself writes.
    Local(u32),
    /// An explicit refresh.
    Refresh,
    /// Reads only.
    Read,
}

/// Counter vectors half the time, local writes a quarter, refreshes and
/// bare reads an eighth each.
fn step() -> impl proptest::strategy::Strategy<Value = Step> {
    use proptest::prelude::*;
    (0u8..8, 0u32..6, prop::collection::vec((0u32..6, 0u64..12), 0..6)).prop_map(
        |(kind, node, pairs)| match kind {
            0..=3 => Step::Counters(pairs),
            4 | 5 => Step::Local(node),
            6 => Step::Refresh,
            _ => Step::Read,
        },
    )
}

/// Moves the clock: repeat, a few ms, seconds, past the drop floor, far
/// enough that a 1 s half-life underflows every score to zero, or back.
fn advance(now: SimTime, kind: u8, amount: u64) -> SimTime {
    let us = now.as_micros();
    SimTime::from_micros(match kind {
        0 => us,
        1 => us + amount * 1_000,
        2 => us + amount * 100_000,
        3 => us + amount * 2_000_000,
        4 => us + amount * 60_000_000,
        _ => us.saturating_sub(amount * 100_000),
    })
}

/// Compares every read of the two after a step.
fn same_reads(cfg: &TopLayerConfig, got: &ObjShared, want: &Learned, now: SimTime) {
    let members: Vec<NodeId> = got.layer.top_members(cfg).collect();
    proptest::prop_assert_eq!(&members[..], want.layer.top_members());
    let known: Vec<(NodeId, u64)> = got.layer.known_counts().collect();
    let want_known: Vec<(NodeId, u64)> =
        want.known_counts.iter().map(|(w, c)| (NodeCore::home(w), c)).collect();
    proptest::prop_assert_eq!(known, want_known);
    for node in (0..7).map(NodeId) {
        proptest::prop_assert_eq!(got.layer.is_top(cfg, node), want.layer.is_top(node));
        proptest::prop_assert_eq!(
            got.layer.top_peers(cfg, node),
            want.layer.top_peers(node),
            "peers of {:?}",
            node
        );
        proptest::prop_assert_eq!(
            got.layer.has_top_peer(cfg, node),
            !want.layer.top_peers(node).is_empty()
        );
        for probe in [now, now + SimDuration::from_secs(7)] {
            proptest::prop_assert_eq!(
                got.layer.temperature(cfg, node, probe).to_bits(),
                want.layer.temperature(cfg, node, probe).to_bits(),
                "temperature of {:?} at {:?}",
                node,
                probe
            );
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig {
        cases: 512,
        ..proptest::prelude::ProptestConfig::default()
    })]
    /// The one-table, deferred-refresh view against the two tables it
    /// replaced, over random runs of counter vectors, local writes,
    /// explicit refreshes and bare reads, with clock steps that repeat,
    /// jump past the drop floor and go backwards (a skewed clock). The
    /// configurations cover every fallback: a zero leave threshold (ghost
    /// members), caps of 1–4 that rank, half-lives of 0, 1 s and 30 s,
    /// and leave thresholds ≥ 16 (a fresh score drops at once). After
    /// every step the members, `is_top` and peers of every node, the known
    /// counts and the temperature bits at two probe times are equal.
    #[test]
    fn deferred_table_matches_the_eager_reference(
        half_life in 0usize..3,
        max_size in 0usize..5,
        thresholds in 0usize..6,
        steps in proptest::collection::vec((step(), 0u8..7, 0u64..40), 0..60),
    ) {
        let (join_threshold, leave_threshold) =
            [(1.5, 0.5), (2.0, 0.0), (0.5, 0.5), (1.0, 0.25), (16.0, 16.0), (24.0, 20.0)]
                [thresholds];
        let c = TopLayerConfig {
            half_life: [SimDuration::ZERO, SimDuration::from_secs(1), SimDuration::from_secs(30)]
                [half_life],
            join_threshold,
            leave_threshold,
            max_size: [1, 2, 3, 4, 16][max_size],
        };
        let cfg = IdeaConfig { top_layer: c, ..IdeaConfig::default() };
        let mut got = ObjShared::new(&cfg);
        let mut want = Learned::new(&c);
        let mut now = SimTime::ZERO;
        for (step, kind, amount) in steps {
            now = advance(now, kind, amount);
            match step {
                Step::Counters(pairs) => {
                    let counters = VersionVector::from_pairs(
                        pairs.into_iter().map(|(w, count)| (WriterId(w), count)),
                    );
                    got.note_counters(&c, &counters, now);
                    want.note_counters(&c, &counters, now);
                }
                Step::Local(node) => {
                    got.layer.observe_update(&c, NodeId(node), now);
                    want.layer.observe_update(&c, NodeId(node), now);
                }
                Step::Refresh => {
                    got.layer.refresh(&c, now);
                    want.layer.refresh(&c, now);
                }
                Step::Read => {}
            }
            same_reads(&c, &got, &want, now);
        }
    }
}
