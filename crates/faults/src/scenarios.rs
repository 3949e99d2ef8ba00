//! The curated named-scenario suite — four adversarial schedules that each
//! aim at a different seam of the protocol, sized for the
//! [`crate::BookingFleetSpec::standard`] 4-node fleet.

use crate::schedule::{FaultEvent, Scenario, Scheduled, WorkOp};
use idea_types::{SimDuration, SimTime};

fn s(at_ms: u64, event: FaultEvent) -> Scheduled {
    Scheduled { at: SimTime::from_millis(at_ms), event }
}

fn work(node: u32, op: u64) -> FaultEvent {
    FaultEvent::Work(WorkOp::Apply { node, op })
}

fn demand(node: u32) -> FaultEvent {
    FaultEvent::Work(WorkOp::DemandResolution { node })
}

/// Split-brain write race: the fleet splits in two, both halves sell
/// aggressively past their stale global views, both halves resolve
/// internally, then the brain heals. Escrow must hold the capacity bound
/// throughout; resolution must converge the halves afterwards.
pub fn split_brain_write_race() -> Scenario {
    let mut ev = vec![s(1_000, FaultEvent::Partition { groups: vec![vec![0, 1], vec![2, 3]] })];
    for round in 0u64..3 {
        for node in 0u32..4 {
            ev.push(s(
                2_000 + round * 1_500 + node as u64 * 100,
                work(node, round * 4 + node as u64),
            ));
        }
    }
    ev.push(s(7_000, demand(0)));
    ev.push(s(7_100, demand(2)));
    ev.push(s(9_000, FaultEvent::Heal));
    ev.push(s(10_000, demand(0)));
    Scenario::named("split-brain-write-race", ev, SimDuration::from_secs(120))
}

/// Flapping link: node 0's connectivity comes and goes five times while
/// the whole fleet keeps selling, with loss, reordering and duplication
/// layered on during the flaps. Exercises retry paths and at-most-once
/// delivery assumptions.
pub(crate) fn flapping_link() -> Scenario {
    let mut ev = vec![
        s(500, FaultEvent::Reorder { window: SimDuration::from_millis(100) }),
        s(501, FaultEvent::Duplicate { p: 0.2 }),
    ];
    for flap in 0u64..5 {
        let base = 1_000 + flap * 4_000;
        ev.push(s(base, FaultEvent::Partition { groups: vec![vec![0], vec![1, 2, 3]] }));
        ev.push(s(base + 200, FaultEvent::Loss { from: 1, to: 2, p: 0.6 }));
        for node in 0u32..4 {
            ev.push(s(base + 1_000 + node as u64 * 100, work(node, flap * 4 + node as u64)));
        }
        ev.push(s(base + 2_000, FaultEvent::Heal));
        ev.push(s(base + 2_100, FaultEvent::Loss { from: 1, to: 2, p: 0.0 }));
        ev.push(s(base + 3_000, demand(flap as u32 % 4)));
    }
    Scenario::named("flapping-link", ev, SimDuration::from_secs(120))
}

/// Crash during resolution: a two-phase resolution round is demanded and
/// a participant is killed moments later, mid-round; the survivors keep
/// writing, then the victim recovers through its WAL and rejoins. The
/// round's locking and the recovery delta must both unwind cleanly.
pub fn crash_during_resolution() -> Scenario {
    let mut ev = Vec::new();
    for round in 0u64..2 {
        for node in 0u32..4 {
            ev.push(s(500 + round * 800 + node as u64 * 100, work(node, round * 4 + node as u64)));
        }
    }
    ev.push(s(3_000, demand(1)));
    ev.push(s(3_050, FaultEvent::Crash { node: 2 }));
    for node in [0u32, 1, 3] {
        ev.push(s(4_000 + node as u64 * 150, work(node, 100 + node as u64)));
    }
    ev.push(s(8_000, FaultEvent::Recover { node: 2, via_wal: true }));
    ev.push(s(9_000, work(2, 200)));
    ev.push(s(10_000, demand(0)));
    Scenario::named("crash-during-resolution", ev, SimDuration::from_secs(120))
}

/// Skewed-clock sweep: two nodes' clocks drift hard in opposite
/// directions (±40 % rate) while the fleet sells and resolves. Staleness
/// estimates and timer-driven behaviour see wildly different local times;
/// replicated state must still converge.
pub(crate) fn skewed_clock_sweep() -> Scenario {
    let mut ev = vec![
        s(1_000, FaultEvent::ClockSkew { node: 1, ppm: 400_000 }),
        s(1_001, FaultEvent::ClockSkew { node: 3, ppm: -400_000 }),
    ];
    for round in 0u64..3 {
        for node in 0u32..4 {
            ev.push(s(
                2_000 + round * 2_000 + node as u64 * 100,
                work(node, round * 4 + node as u64),
            ));
        }
        ev.push(s(3_500 + round * 2_000, demand((round % 4) as u32)));
    }
    ev.push(s(9_000, demand(0)));
    Scenario::named("skewed-clock-sweep", ev, SimDuration::from_secs(120))
}

/// The whole curated suite, in canonical order.
pub fn named_suite() -> Vec<Scenario> {
    vec![split_brain_write_race(), flapping_link(), crash_during_resolution(), skewed_clock_sweep()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_is_well_formed() {
        let suite = named_suite();
        assert_eq!(suite.len(), 4);
        for sc in &suite {
            assert!(sc.is_monotonic(), "{}", sc.name);
            assert!(!sc.events.is_empty(), "{}", sc.name);
        }
        let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "split-brain-write-race",
                "flapping-link",
                "crash-during-resolution",
                "skewed-clock-sweep"
            ]
        );
    }
}
