//! WAN topologies.
//!
//! [`Topology::planetlab`] reproduces the paper's testbed shape: nodes
//! spread over North-American regions, "carefully chosen so that they are
//! far apart from each other" (§6.1). Region assignment is round-robin, so
//! the first four nodes — the concurrent writers in the paper's experiments —
//! always land in four distinct regions, giving cross-continent RTTs near
//! the ~100 ms per sequential hop implied by Table 2 (314 ms for three
//! sequential visits).

use crate::latency::{Jitter, LatencyModel};
use idea_types::{NodeId, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Coarse geographic region of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// US east coast.
    UsEast,
    /// US west coast.
    UsWest,
    /// US central.
    UsCentral,
    /// Canada.
    Canada,
}

impl Region {
    /// All regions in assignment order.
    pub const ALL: [Region; 4] =
        [Region::UsEast, Region::UsWest, Region::UsCentral, Region::Canada];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Region::UsEast => "us-east",
            Region::UsWest => "us-west",
            Region::UsCentral => "us-central",
            Region::Canada => "canada",
        }
    }
}

/// A node deployment: per-node regions plus the pairwise latency model.
#[derive(Debug, Clone)]
pub struct Topology {
    regions: Vec<Region>,
    latency: LatencyModel,
    jitter: Jitter,
}

impl Topology {
    /// PlanetLab-like topology over `n` nodes.
    ///
    /// One-way base delays (before jitter): 8–12 ms within a region,
    /// 40–55 ms across regions — symmetric per unordered pair, drawn
    /// deterministically from `seed`.
    pub fn planetlab(n: usize, seed: u64) -> Topology {
        let regions: Vec<Region> = (0..n).map(|i| Region::ALL[i % Region::ALL.len()]).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70_70_1a_b5);
        // Sample the upper triangle, mirror for symmetry.
        let mut us = vec![0u32; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                // Drawn as u64: the draw type decides the stream, so only
                // the stored cell is narrowed.
                let one_way_ms: u64 = if regions[i] == regions[j] {
                    rng.gen_range(8..=12)
                } else {
                    rng.gen_range(40..=55)
                };
                let cell = u32::try_from(one_way_ms * 1_000).expect("at most 55 ms");
                us[i * n + j] = cell;
                us[j * n + i] = cell;
            }
        }
        Topology {
            regions,
            latency: LatencyModel::Matrix { n, us },
            jitter: Jitter::Proportional { frac: 0.08 },
        }
    }

    /// A flat low-latency deployment (0.5 ms one-way, no jitter) for tests.
    pub fn lan(n: usize) -> Topology {
        Topology {
            regions: vec![Region::UsEast; n],
            latency: LatencyModel::Constant(SimDuration::from_micros(500)),
            jitter: Jitter::None,
        }
    }

    /// A topology with a custom latency model (uniform region labels).
    pub fn custom(n: usize, latency: LatencyModel, jitter: Jitter) -> Topology {
        Topology { regions: vec![Region::UsEast; n], latency, jitter }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Region of `node`.
    pub fn region(&self, node: NodeId) -> Region {
        self.regions[node.index()]
    }

    /// The latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The per-message jitter.
    pub fn jitter(&self) -> Jitter {
        self.jitter
    }

    /// Samples the one-way delay for one message.
    pub fn sample_delay<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut R,
    ) -> SimDuration {
        self.latency.sample(from, to, self.jitter, rng)
    }

    /// Mean base RTT between nodes in *different* regions (reporting aid).
    pub fn mean_cross_region_rtt(&self) -> SimDuration {
        let n = self.len();
        let mut sum = 0u128;
        let mut cnt = 0u128;
        for i in 0..n {
            for j in 0..n {
                if i != j && self.regions[i] != self.regions[j] {
                    let fwd = self.latency.base(NodeId(i as u32), NodeId(j as u32));
                    let back = self.latency.base(NodeId(j as u32), NodeId(i as u32));
                    sum += (fwd + back).as_micros() as u128;
                    cnt += 1;
                }
            }
        }
        match sum.checked_div(cnt) {
            Some(avg) => SimDuration::from_micros(avg as u64),
            None => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planetlab_first_four_nodes_span_distinct_regions() {
        let t = Topology::planetlab(40, 7);
        let regions: idea_types::FastSet<_> = (0..4).map(|i| t.region(NodeId(i))).collect();
        assert_eq!(regions.len(), 4, "paper's four writers must be far apart");
    }

    #[test]
    fn planetlab_is_deterministic_in_seed() {
        let a = Topology::planetlab(10, 42);
        let b = Topology::planetlab(10, 42);
        for i in 0..10u32 {
            for j in 0..10u32 {
                assert_eq!(
                    a.latency().base(NodeId(i), NodeId(j)),
                    b.latency().base(NodeId(i), NodeId(j))
                );
            }
        }
    }

    #[test]
    fn planetlab_delays_are_symmetric_and_in_band() {
        let t = Topology::planetlab(12, 3);
        for i in 0..12u32 {
            for j in 0..12u32 {
                let d = t.latency().base(NodeId(i), NodeId(j));
                let r = t.latency().base(NodeId(j), NodeId(i));
                assert_eq!(d, r);
                if i == j {
                    assert_eq!(d, SimDuration::ZERO);
                } else if t.region(NodeId(i)) == t.region(NodeId(j)) {
                    assert!(d >= SimDuration::from_millis(8) && d <= SimDuration::from_millis(12));
                } else {
                    assert!(d >= SimDuration::from_millis(40) && d <= SimDuration::from_millis(55));
                }
            }
        }
    }

    #[test]
    fn cross_region_rtt_supports_table2_shape() {
        // Sequential per-member cost in Table 2 is ~105 ms; our cross-region
        // RTT must sit in that neighbourhood.
        let t = Topology::planetlab(40, 7);
        let rtt = t.mean_cross_region_rtt();
        assert!(rtt >= SimDuration::from_millis(80), "rtt {rtt}");
        assert!(rtt <= SimDuration::from_millis(115), "rtt {rtt}");
    }

    /// FNV-1a over every ordered pair's base delay in microseconds,
    /// row-major: a fingerprint of the whole matrix that does not depend
    /// on how the cells are stored.
    fn matrix_checksum(t: &Topology) -> u64 {
        let n = t.len() as u32;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..n {
            for j in 0..n {
                for b in t.latency().base(NodeId(i), NodeId(j)).as_micros().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The testbeds the benchmark and the experiments run on, pinned cell
    /// by cell: a change to how the matrix is drawn or stored must not
    /// move a single delay.
    #[test]
    fn planetlab_testbeds_are_pinned() {
        for (n, checksum, mean_us) in
            [(640, 0xe9d2_519b_780b_18c5u64, 38_152u64), (40, 0x0628_2681_3aa3_f1e5u64, 38_641u64)]
        {
            let t = Topology::planetlab(n, 7);
            assert_eq!(
                (matrix_checksum(&t), t.latency().mean_base().as_micros()),
                (checksum, mean_us),
                "planetlab({n}, 7) drew a different matrix"
            );
        }
    }

    #[test]
    fn lan_topology_is_flat() {
        let t = Topology::lan(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.latency().base(NodeId(0), NodeId(3)), SimDuration::from_micros(500));
        assert_eq!(t.mean_cross_region_rtt(), SimDuration::ZERO); // single region
    }

    #[test]
    fn region_names_are_stable() {
        assert_eq!(Region::UsEast.name(), "us-east");
        assert_eq!(Region::Canada.name(), "canada");
    }
}
