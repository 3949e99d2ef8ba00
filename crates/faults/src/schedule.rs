//! The scenario DSL: typed fault events on a virtual-time schedule.
//!
//! A [`Scenario`] is a *value* — a named, seeded list of [`Scheduled`]
//! events plus a settle budget. Running the same value twice on fresh
//! fleets must produce bit-identical traces; shrinking one is just
//! dropping elements of `events` (any subsequence of a monotonic schedule
//! is a valid schedule). [`Scenario::random`] derives an arbitrary but
//! fully reproducible schedule from one seed, which is what the explorer
//! and the proptest sweep feed the runner.

use idea_types::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injectable fault (or interleaved workload step).
///
/// Node references are raw indices (`u32`, dense from 0) rather than
/// `NodeId` so schedules stay plain data — the runner maps them onto the
/// engine and silently ignores references that make no sense in the
/// current fleet state (crashing a crashed node, working a down node).
/// That tolerance is what keeps every subsequence of a schedule runnable,
/// which the shrinker depends on.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Split the fleet into the given groups; traffic flows only within a
    /// group. Nodes listed in no group are fully isolated. Replaces any
    /// partition layout installed earlier.
    Partition {
        /// Connectivity classes, each a list of node indices.
        groups: Vec<Vec<u32>>,
    },
    /// Remove every partition (link loss and skew are untouched).
    Heal,
    /// Set the loss probability of one directed link.
    Loss {
        /// Sending node index.
        from: u32,
        /// Receiving node index.
        to: u32,
        /// Per-message drop probability in `[0, 1]`.
        p: f64,
    },
    /// Set the global reorder window: every remote delivery gets an extra
    /// uniform delay in `[0, window]`, perturbing arrival order.
    Reorder {
        /// Extra-delay window; zero restores FIFO-per-link delivery.
        window: SimDuration,
    },
    /// Set the global duplicate probability for remote deliveries.
    Duplicate {
        /// Per-message duplication probability in `[0, 1]`.
        p: f64,
    },
    /// Kill a node: parked and in-flight state vanish, timers stop. What
    /// survives is exactly what its WAL (if any) holds.
    Crash {
        /// Victim node index.
        node: u32,
    },
    /// Restart a crashed node. With `via_wal` the replacement is rebuilt
    /// through `IdeaNode::recover` (real WAL replay); without, it comes
    /// back amnesiac (fresh genesis) and must relearn everything from
    /// peers.
    Recover {
        /// Node index to restart.
        node: u32,
        /// Rebuild from the write-ahead log instead of from scratch.
        via_wal: bool,
    },
    /// Skew one node's view of the clock by `ppm` parts per million.
    /// Engine event times are untouched — only the node's `now()` drifts.
    ClockSkew {
        /// Node index whose clock drifts.
        node: u32,
        /// Drift rate; ±500_000 is a clock running 1.5×/0.5× real speed.
        ppm: i64,
    },
    /// An interleaved workload step — faults are only interesting while
    /// the application is writing.
    Work(WorkOp),
}

/// Application work interleaved with the faults.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkOp {
    /// Apply the host's `op`-th workload operation on one node.
    Apply {
        /// Node index that performs the operation.
        node: u32,
        /// Opaque operation selector, interpreted by the host.
        op: u64,
    },
    /// Force an on-demand resolution round from one node.
    DemandResolution {
        /// Node index that initiates the round.
        node: u32,
    },
}

/// A fault event pinned to a point in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// When the event fires (events must be non-decreasing in `at`).
    pub(crate) at: SimTime,
    /// What happens.
    pub event: FaultEvent,
}

/// A complete, replayable fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable name for reports.
    pub name: String,
    /// Seed this scenario was derived from (0 for hand-written ones).
    pub(crate) seed: u64,
    /// The schedule, non-decreasing in `at`.
    pub events: Vec<Scheduled>,
    /// Extra virtual time granted after the final event (and the healing
    /// epilogue) for the fleet to converge.
    pub settle: SimDuration,
}

impl Scenario {
    /// Builds a hand-written scenario.
    pub(crate) fn named(name: &str, events: Vec<Scheduled>, settle: SimDuration) -> Self {
        let s = Scenario { name: name.to_string(), seed: 0, events, settle };
        debug_assert!(s.is_monotonic(), "schedule times must be non-decreasing");
        s
    }

    /// Derives a random — but fully seed-determined — schedule for an
    /// `n`-node fleet with roughly `len` events.
    ///
    /// The generator keeps the schedule *runnable*: it only crashes nodes
    /// that are up, only recovers nodes that are down (always `via_wal`,
    /// so recovery exercises real WAL replay), and never takes the whole
    /// fleet down at once. Workload steps dominate the mix so faults land
    /// on a system that is actually writing.
    pub fn random(seed: u64, n: usize, len: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1DEA_FA01);
        let n32 = n as u32;
        let mut at = SimTime::ZERO;
        let mut down: Vec<bool> = vec![false; n];
        let mut events = Vec::with_capacity(len);
        for _ in 0..len {
            at += SimDuration::from_millis(rng.gen_range(50..2_000));
            let up: Vec<u32> = (0..n32).filter(|i| !down[*i as usize]).collect();
            let downed: Vec<u32> = (0..n32).filter(|i| down[*i as usize]).collect();
            let roll = rng.gen_range(0u32..100);
            let event = match roll {
                // Workload pressure: the majority of the schedule.
                0..=44 => FaultEvent::Work(WorkOp::Apply {
                    node: up[rng.gen_range(0..up.len())],
                    op: rng.gen_range(0..1_000),
                }),
                45..=54 => FaultEvent::Work(WorkOp::DemandResolution {
                    node: up[rng.gen_range(0..up.len())],
                }),
                // Connectivity faults.
                55..=64 => {
                    let cut = rng.gen_range(1..n32.max(2));
                    let (a, b): (Vec<u32>, Vec<u32>) = (0..n32).partition(|i| *i < cut);
                    FaultEvent::Partition { groups: vec![a, b] }
                }
                65..=72 => FaultEvent::Heal,
                73..=79 => FaultEvent::Loss {
                    from: rng.gen_range(0..n32),
                    to: rng.gen_range(0..n32),
                    p: rng.gen_range(0.1..0.9),
                },
                80..=84 => {
                    FaultEvent::Reorder { window: SimDuration::from_millis(rng.gen_range(0..500)) }
                }
                85..=88 => FaultEvent::Duplicate { p: rng.gen_range(0.0..0.5) },
                // Process faults: keep a majority of the fleet up.
                89..=93 if up.len() > n / 2 + 1 => {
                    let victim = up[rng.gen_range(0..up.len())];
                    down[victim as usize] = true;
                    FaultEvent::Crash { node: victim }
                }
                94..=97 if !downed.is_empty() => {
                    let node = downed[rng.gen_range(0..downed.len())];
                    down[node as usize] = false;
                    FaultEvent::Recover { node, via_wal: true }
                }
                _ => FaultEvent::ClockSkew {
                    node: rng.gen_range(0..n32),
                    ppm: rng.gen_range(-500_000..=500_000),
                },
            };
            events.push(Scheduled { at, event });
        }
        Scenario {
            name: format!("random-{seed}"),
            seed,
            events,
            settle: SimDuration::from_secs(120),
        }
    }

    /// True when event times never decrease.
    pub(crate) fn is_monotonic(&self) -> bool {
        self.events.windows(2).all(|w| w[0].at <= w[1].at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedules_are_reproducible_values() {
        let a = Scenario::random(7, 4, 60);
        let b = Scenario::random(7, 4, 60);
        assert_eq!(a, b, "same seed, same schedule value");
        let c = Scenario::random(8, 4, 60);
        assert_ne!(a.events, c.events, "different seed, different schedule");
    }

    #[test]
    fn random_schedules_are_monotonic_and_runnable() {
        for seed in 0..20 {
            let s = Scenario::random(seed, 5, 80);
            assert!(s.is_monotonic(), "seed {seed}");
            assert_eq!(s.events.len(), 80);
            // Crash/recover bookkeeping: recovery always goes through the
            // WAL, and no event references a node outside the fleet.
            let mut down = [false; 5];
            for ev in &s.events {
                match &ev.event {
                    FaultEvent::Crash { node } => {
                        assert!(!down[*node as usize], "seed {seed}: crashed a down node");
                        down[*node as usize] = true;
                    }
                    FaultEvent::Recover { node, via_wal } => {
                        assert!(down[*node as usize], "seed {seed}: recovered an up node");
                        assert!(*via_wal);
                        down[*node as usize] = false;
                    }
                    FaultEvent::Work(WorkOp::Apply { node, .. })
                    | FaultEvent::Work(WorkOp::DemandResolution { node })
                    | FaultEvent::ClockSkew { node, .. } => assert!(*node < 5),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn subsequences_stay_monotonic() {
        let mut s = Scenario::random(3, 4, 40);
        s.events.retain(|e| !matches!(e.event, FaultEvent::Work(_)));
        assert!(s.is_monotonic());
    }
}
