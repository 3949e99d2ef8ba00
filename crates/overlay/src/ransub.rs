//! RanSub: scalable distribution of uniform random subsets.
//!
//! The paper constructs the temperature overlay "by leveraging the RanSub
//! protocol \[9\] to include nodes that update this file sufficiently
//! frequently and/or recently" (§4.1). RanSub runs over a tree in two
//! phases per round:
//!
//! * **collect** — leaves send a sample of themselves up; interior nodes
//!   merge their children's samples with themselves, weighting by subtree
//!   size so the merged sample stays uniform over the subtree;
//! * **distribute** — the root pushes down a uniform sample of the whole
//!   tree; each node hands its children a re-mixed sample.
//!
//! The result: every node receives, each round, a bounded-size uniform
//! random subset of the entire membership — the candidate set from which
//! hot writers are discovered without any node knowing the full membership.
//!
//! [`RansubTree::round`] executes one full round synchronously (used by the
//! detection layer between protocol steps and by the property tests that
//! check uniformity).

use idea_types::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// RanSub configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RansubConfig {
    /// Sample size `s` carried by collect/distribute messages.
    pub sample_size: usize,
    /// Tree fan-out `k`.
    pub fanout: usize,
}

impl Default for RansubConfig {
    fn default() -> Self {
        RansubConfig { sample_size: 5, fanout: 4 }
    }
}

/// A weighted uniform sample: `members` uniformly represent `population`
/// underlying nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// The sampled node ids.
    pub members: Vec<NodeId>,
    /// How many nodes the sample represents.
    pub population: usize,
}

impl Sample {
    /// A sample of a single node (itself).
    pub fn singleton(node: NodeId) -> Self {
        Sample { members: vec![node], population: 1 }
    }

    /// Merges child samples (plus `own`) into one sample of size ≤ `s`,
    /// drawing each slot from a child with probability proportional to the
    /// child's population — the weighting that keeps RanSub samples uniform.
    pub fn merge<R: Rng + ?Sized>(parts: &[Sample], s: usize, rng: &mut R) -> Sample {
        let population: usize = parts.iter().map(|p| p.population).sum();
        if population == 0 {
            return Sample { members: Vec::new(), population: 0 };
        }
        let mut members = Vec::with_capacity(s);
        let mut guard = 0;
        while members.len() < s.min(population) && guard < s * 20 {
            guard += 1;
            // Pick a part weighted by population, then a uniform member.
            let mut ticket = rng.gen_range(0..population);
            let mut chosen = None;
            for p in parts {
                if ticket < p.population {
                    chosen = Some(p);
                    break;
                }
                ticket -= p.population;
            }
            let part = chosen.expect("ticket within total population");
            if part.members.is_empty() {
                continue;
            }
            let m = part.members[rng.gen_range(0..part.members.len())];
            if !members.contains(&m) {
                members.push(m);
            }
        }
        Sample { members, population }
    }
}

/// A k-ary RanSub tree over nodes `0..n`, executing rounds synchronously.
///
/// Node `i`'s children are `k·i + 1 ..= k·i + k` (heap layout), so the tree
/// is balanced and implicit — no membership state beyond `n` is needed.
#[derive(Debug, Clone)]
pub struct RansubTree {
    n: usize,
    cfg: RansubConfig,
}

impl RansubTree {
    /// Builds a tree over `n` nodes.
    pub fn new(n: usize, cfg: RansubConfig) -> Self {
        assert!(cfg.fanout >= 1, "fanout must be at least 1");
        assert!(cfg.sample_size >= 1, "sample size must be at least 1");
        RansubTree { n, cfg }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Children of `node` in the implicit heap layout.
    pub fn children(&self, node: NodeId) -> Vec<NodeId> {
        let i = node.index();
        (1..=self.cfg.fanout)
            .map(|c| self.cfg.fanout * i + c)
            .filter(|&c| c < self.n)
            .map(|c| NodeId(c as u32))
            .collect()
    }

    /// Parent of `node` (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let i = node.index();
        if i == 0 {
            None
        } else {
            Some(NodeId(((i - 1) / self.cfg.fanout) as u32))
        }
    }

    /// Depth of the tree (rounds of messages per phase).
    pub fn depth(&self) -> usize {
        if self.n <= 1 {
            return 0;
        }
        let mut d = 0;
        let mut covered = 1usize;
        let mut level = 1usize;
        while covered < self.n {
            level *= self.cfg.fanout;
            covered += level;
            d += 1;
        }
        d
    }

    /// Runs the collect phase, returning each node's merged sample
    /// (`result[i]` covers node `i`'s whole subtree, itself included).
    pub fn collect<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Sample> {
        let mut out: Vec<Option<Sample>> = vec![None; self.n];
        // Post-order: children have larger indices than parents in the heap
        // layout, so a reverse index sweep visits children first.
        for i in (0..self.n).rev() {
            let node = NodeId(i as u32);
            let mut parts = vec![Sample::singleton(node)];
            for c in self.children(node) {
                parts.push(out[c.index()].clone().expect("child computed first"));
            }
            out[i] = Some(Sample::merge(&parts, self.cfg.sample_size, rng));
        }
        out.into_iter().map(|s| s.expect("all computed")).collect()
    }

    /// Runs one full round: collect up, then distribute down. Returns the
    /// uniform random subset delivered to every node.
    pub fn round<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Sample> {
        if self.n == 0 {
            return Vec::new();
        }
        let collected = self.collect(rng);
        // Distribute: the root's sample covers everyone; each node re-mixes
        // what its parent handed down with its own collect result so deep
        // nodes still see a uniform global sample.
        let mut delivered: Vec<Option<Sample>> = vec![None; self.n];
        delivered[0] = Some(collected[0].clone());
        for i in 0..self.n {
            let node = NodeId(i as u32);
            let down = delivered[i].clone().expect("parent set before children");
            for c in self.children(node) {
                let mut remix =
                    Sample::merge(&[down.clone(), collected[0].clone()], self.cfg.sample_size, rng);
                // Both inputs already represent the whole tree; merging them
                // re-mixes membership but must not double-count population.
                remix.population = self.n;
                delivered[c.index()] = Some(remix);
            }
        }
        delivered.into_iter().map(|s| s.expect("all delivered")).collect()
    }

    /// Messages exchanged per round: one collect message per non-root node
    /// plus one distribute message per non-root node.
    pub fn messages_per_round(&self) -> usize {
        if self.n <= 1 {
            0
        } else {
            2 * (self.n - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::FastMap;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tree_shape_is_heap_like() {
        let t = RansubTree::new(10, RansubConfig { sample_size: 3, fanout: 3 });
        assert_eq!(t.children(NodeId(0)), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.children(NodeId(1)), vec![NodeId(4), NodeId(5), NodeId(6)]);
        assert_eq!(t.children(NodeId(3)), vec![]); // 10..12 out of range
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.parent(NodeId(5)), Some(NodeId(1)));
        assert_eq!(t.depth(), 2);
        assert_eq!(t.messages_per_round(), 18);
    }

    #[test]
    fn singleton_tree_trivia() {
        let t = RansubTree::new(1, RansubConfig::default());
        assert_eq!(t.depth(), 0);
        assert_eq!(t.messages_per_round(), 0);
        let mut rng = StdRng::seed_from_u64(0);
        let out = t.round(&mut rng);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].members, vec![NodeId(0)]);
    }

    #[test]
    fn collect_covers_whole_population() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = RansubTree::new(40, RansubConfig { sample_size: 6, fanout: 4 });
        let collected = t.collect(&mut rng);
        assert_eq!(collected[0].population, 40);
        assert_eq!(collected[0].members.len(), 6);
        // Samples never contain duplicates.
        for s in &collected {
            let mut m = s.members.clone();
            m.sort_unstable();
            m.dedup();
            assert_eq!(m.len(), s.members.len());
        }
    }

    #[test]
    fn round_delivers_to_everyone() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = RansubTree::new(25, RansubConfig { sample_size: 4, fanout: 2 });
        let out = t.round(&mut rng);
        assert_eq!(out.len(), 25);
        for s in &out {
            assert!(!s.members.is_empty());
            assert!(s.members.len() <= 4);
        }
    }

    #[test]
    fn samples_are_roughly_uniform() {
        // Over many rounds, every node should appear in delivered samples
        // with comparable frequency — RanSub's headline guarantee.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 30;
        let t = RansubTree::new(n, RansubConfig { sample_size: 5, fanout: 3 });
        let mut freq: FastMap<NodeId, usize> = FastMap::default();
        let rounds = 400;
        for _ in 0..rounds {
            for s in t.round(&mut rng) {
                for m in s.members {
                    *freq.entry(m).or_insert(0) += 1;
                }
            }
        }
        assert_eq!(freq.len(), n, "every node must eventually be sampled");
        let counts: Vec<usize> = freq.values().copied().collect();
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        // Re-mixing biases mildly towards the root's neighbourhood; a 3.5x
        // spread over 400 rounds is comfortably uniform enough for hot-writer
        // discovery (each node still appears hundreds of times).
        assert!(max / min < 3.5, "sample frequencies too skewed: min {min}, max {max}");
    }

    #[test]
    fn merge_respects_sample_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let parts: Vec<Sample> = (0..10u32).map(|i| Sample::singleton(NodeId(i))).collect();
        let m = Sample::merge(&parts, 4, &mut rng);
        assert_eq!(m.population, 10);
        assert_eq!(m.members.len(), 4);
    }

    #[test]
    fn merge_of_empty_is_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Sample::merge(&[], 4, &mut rng);
        assert_eq!(m.population, 0);
        assert!(m.members.is_empty());
    }

    proptest! {
        #[test]
        fn round_never_invents_nodes(n in 1usize..60, seed in 0u64..32,
                                     fanout in 2usize..5, s in 1usize..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = RansubTree::new(n, RansubConfig { sample_size: s, fanout });
            for sample in t.round(&mut rng) {
                prop_assert!(sample.population <= n);
                for m in sample.members {
                    prop_assert!(m.index() < n);
                }
            }
        }

        #[test]
        fn collect_population_equals_subtree(n in 1usize..40, seed in 0u64..16) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = RansubTree::new(n, RansubConfig { sample_size: 4, fanout: 2 });
            let collected = t.collect(&mut rng);
            // Root represents everyone; populations are consistent with the
            // implicit subtree sizes.
            prop_assert_eq!(collected[0].population, n);
            for i in 0..n {
                let node = NodeId(i as u32);
                let child_total: usize = t
                    .children(node)
                    .iter()
                    .map(|c| collected[c.index()].population)
                    .sum();
                prop_assert_eq!(collected[i].population, child_total + 1);
            }
        }
    }
}
