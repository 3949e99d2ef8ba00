//! Design-choice ablations (DESIGN.md A1–A4).
//!
//! These probe the claims the paper leans on but does not plot:
//!
//! * **A1** — the ref-\[16\] claim that the top layer catches > 95 % of
//!   inconsistencies, as a function of activity skew and layer size;
//! * **A2** — the §4.4.2 rollback machinery: TTL vs bottom-layer detection
//!   coverage and rollback frequency when a bottom-layer writer exists;
//! * **A3** — §6.2's remark that phase 2 could run in parallel: measured
//!   sequential vs parallel delays;
//! * **A4** — §5.2's under/oversell frequency-bounds learning.

use super::active::{mean_ms, measure_active_rounds};
use crate::coverage::{min_top_size_for, top_layer_catch_probability, zipf_rates};
use crate::report::markdown_table;
use idea_core::{IdeaConfig, IdeaNode};
use idea_net::{MsgClass, SimConfig, SimEngine, Topology};
use idea_types::{NodeId, ObjectId, SimDuration, UpdatePayload};

const OBJ: ObjectId = ObjectId(1);

// ---------------------------------------------------------------- A1

/// One row of the coverage ablation.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Zipf exponent of the activity profile.
    pub(crate) zipf_s: f64,
    /// Smallest top layer reaching 95 % catch probability.
    pub(crate) min_size_95: usize,
    /// Catch probability at a 4-member top layer.
    pub(crate) p_at_4: f64,
}

/// A1: coverage vs activity skew over `n` nodes.
pub fn run_coverage(n: usize) -> Vec<CoverageRow> {
    [0.8, 1.0, 1.2, 1.5, 2.0, 2.5]
        .iter()
        .map(|&s| {
            let rates = zipf_rates(n, s);
            CoverageRow {
                zipf_s: s,
                min_size_95: min_top_size_for(&rates, 0.95),
                p_at_4: top_layer_catch_probability(&rates, &[0, 1, 2, 3]),
            }
        })
        .collect()
}

/// Renders A1.
pub fn report_coverage(rows: &[CoverageRow]) -> String {
    let mut out = String::new();
    out.push_str("A1: top-layer coverage vs activity skew (ref [16]'s >95 % claim)\n\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.zipf_s),
                r.min_size_95.to_string(),
                format!("{:.1} %", r.p_at_4 * 100.0),
            ]
        })
        .collect();
    out.push_str(&markdown_table(
        &["zipf exponent", "min top size for 95 %", "P(caught) with top-4"],
        &table,
    ));
    out.push_str(
        "\nSkewed activity (the regime the paper assumes) needs only a handful of members.\n",
    );
    out
}

// ---------------------------------------------------------------- A2

/// One row of the rollback ablation.
#[derive(Debug, Clone)]
pub struct RollbackRow {
    /// Gossip TTL of the sweep.
    pub(crate) ttl: u8,
    /// Rollback events confirmed during the run.
    pub(crate) rollbacks: u64,
    /// Gossip messages spent.
    pub(crate) gossip_messages: u64,
}

/// A2: rollback detection vs sweep TTL with one bottom-layer writer.
pub fn run_rollback(seed: u64) -> Vec<RollbackRow> {
    [1u8, 2, 4, 6]
        .iter()
        .map(|&ttl| {
            let mut cfg = IdeaConfig {
                sweep_every: Some(1),
                sweep_deadline: SimDuration::from_secs(3),
                rollback_resolve: false,
                ..Default::default()
            };
            cfg.gossip.ttl = ttl;
            let nodes: Vec<IdeaNode> =
                (0..20).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ])).collect();
            let mut eng = SimEngine::new(
                Topology::planetlab(20, seed),
                SimConfig { seed, ..Default::default() },
                nodes,
            );
            // Warm the 4-writer top layer.
            for _ in 0..3 {
                for w in 0..4u32 {
                    eng.with_node(NodeId(w), |p, ctx| {
                        p.local_write(OBJ, 1, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
                    });
                    eng.run_for(SimDuration::from_millis(400));
                }
            }
            eng.run_for(SimDuration::from_secs(2));
            let gossip_before = eng.stats().messages(MsgClass::Gossip);
            // A bottom-layer node writes, invisible to the top layer.
            eng.with_node(NodeId(15), |p, ctx| {
                p.local_write(OBJ, 100, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
            });
            // Top writers keep probing; their sweeps should find node 15.
            for _ in 0..6 {
                for w in 0..4u32 {
                    eng.with_node(NodeId(w), |p, ctx| {
                        p.local_write(OBJ, 1, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
                    });
                }
                eng.run_for(SimDuration::from_secs(5));
            }
            let rollbacks: u64 = (0..4u32).map(|w| eng.node(NodeId(w)).report(OBJ).rollbacks).sum();
            RollbackRow {
                ttl,
                rollbacks,
                gossip_messages: eng.stats().messages(MsgClass::Gossip) - gossip_before,
            }
        })
        .collect()
}

/// Renders A2.
pub fn report_rollback(rows: &[RollbackRow]) -> String {
    let mut out = String::new();
    out.push_str("A2: bottom-layer sweep TTL vs rollback detection (one hidden bottom writer)\n\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.ttl.to_string(), r.rollbacks.to_string(), r.gossip_messages.to_string()])
        .collect();
    out.push_str(&markdown_table(&["TTL", "rollbacks confirmed", "gossip msgs"], &table));
    out.push_str("\nHigher TTL buys coverage (rollbacks found) at higher gossip cost — §4.4.2's \"trade-off between accuracy and responsiveness\".\n");
    out
}

// ---------------------------------------------------------------- A3

/// One row of the phase-2 parallelism ablation.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// Top-layer size.
    pub(crate) n: usize,
    /// Sequential phase-2 delay (ms).
    pub sequential_ms: f64,
    /// Parallel phase-2 delay (ms).
    pub parallel_ms: f64,
}

/// A3: sequential vs parallel phase 2 across top-layer sizes (from 4 —
/// with a single member the two strategies coincide).
pub fn run_parallel(max_n: usize, seed: u64) -> Vec<ParallelRow> {
    (4..=max_n)
        .step_by(2)
        .map(|n| {
            let seq = measure_active_rounds(n + 6, n, seed + n as u64, false);
            let par = measure_active_rounds(n + 6, n, seed + n as u64, true);
            ParallelRow {
                n,
                sequential_ms: mean_ms(&seq, |r| r.phase2.as_millis_f64()),
                parallel_ms: mean_ms(&par, |r| r.phase2.as_millis_f64()),
            }
        })
        .collect()
}

/// Renders A3.
pub fn report_parallel(rows: &[ParallelRow]) -> String {
    let mut out = String::new();
    out.push_str("A3: phase-2 parallelism (§6.2's suggested optimisation)\n\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.1} ms", r.sequential_ms),
                format!("{:.1} ms", r.parallel_ms),
                format!("{:.1}x", r.sequential_ms / r.parallel_ms.max(1e-9)),
            ]
        })
        .collect();
    out.push_str(&markdown_table(
        &["top-layer size", "sequential", "parallel", "speed-up"],
        &table,
    ));
    out.push_str("\nSequential grows linearly (Formula 2); parallel stays near one RTT.\n");
    out
}

// ---------------------------------------------------------------- A4

/// Trajectory of the automatic controller's learned window.
#[derive(Debug, Clone)]
pub struct BoundsTrace {
    /// `(event index, period seconds, window min, window max)` after each
    /// feedback event.
    pub(crate) steps: Vec<(usize, f64, f64, f64)>,
}

/// A4: feed alternating oversell/undersell events into the §5.2 controller
/// and record the converging window.
pub fn run_bounds() -> BoundsTrace {
    let mut auto = idea_core::AutoController::default();
    let mut steps = Vec::new();
    // Phase 1: repeated oversells (frequency too low).
    for i in 0..4 {
        auto.on_oversell();
        let (lo, hi) = auto.window();
        steps.push((i, auto.period().as_secs_f64(), lo.as_secs_f64(), hi.as_secs_f64()));
    }
    // Phase 2: an undersell (locked too often).
    for i in 4..6 {
        auto.on_undersell();
        let (lo, hi) = auto.window();
        steps.push((i, auto.period().as_secs_f64(), lo.as_secs_f64(), hi.as_secs_f64()));
    }
    // Phase 3: load adaptation inside the learned window.
    for (k, bw) in [1e6, 1e5, 1e4].iter().enumerate() {
        auto.adjust_for_load(*bw, 15.0 * 8192.0);
        let (lo, hi) = auto.window();
        steps.push((6 + k, auto.period().as_secs_f64(), lo.as_secs_f64(), hi.as_secs_f64()));
    }
    BoundsTrace { steps }
}

/// Renders A4.
pub fn report_bounds(trace: &BoundsTrace) -> String {
    let mut out = String::new();
    out.push_str("A4: automatic frequency-bounds learning (§5.2)\n\n");
    let table: Vec<Vec<String>> = trace
        .steps
        .iter()
        .map(|(i, p, lo, hi)| {
            vec![i.to_string(), format!("{p:.1} s"), format!("[{lo:.1}, {hi:.1}] s")]
        })
        .collect();
    out.push_str(&markdown_table(&["event", "period", "learned window"], &table));
    out.push_str("\nOversells shrink the maximum period; undersells raise the minimum; load\nadaptation then moves only inside the learned window.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_skew_reduces_required_top_size() {
        let rows = run_coverage(40);
        assert!(rows.windows(2).all(|w| w[1].min_size_95 <= w[0].min_size_95));
        assert!(rows.last().unwrap().p_at_4 > 0.9, "{rows:?}");
        assert!(report_coverage(&rows).contains("zipf"));
    }

    #[test]
    fn a2_higher_ttl_finds_the_hidden_writer() {
        // Aggregated over a few seeds: single-seed rollback counts are
        // near-tied now that sender exclusion makes even TTL 1 sweeps
        // reach most of a 20-node deployment; the *trend* is the claim.
        let (mut low_roll, mut high_roll) = (0, 0);
        let (mut low_msgs, mut high_msgs) = (0, 0);
        for seed in 5..8 {
            let rows = run_rollback(seed);
            let low = rows.first().unwrap();
            let high = rows.last().unwrap();
            low_roll += low.rollbacks;
            high_roll += high.rollbacks;
            low_msgs += low.gossip_messages;
            high_msgs += high.gossip_messages;
        }
        assert!(
            high_roll >= low_roll,
            "TTL 6 found {high_roll} vs TTL 1 found {low_roll} across seeds"
        );
        assert!(high_roll >= 1, "TTL 6 must reach the bottom writer");
        assert!(high_msgs > low_msgs);
    }

    #[test]
    fn a3_parallel_beats_sequential_at_scale() {
        let rows = run_parallel(8, 7);
        for r in &rows {
            assert!(
                r.parallel_ms < r.sequential_ms,
                "n={} parallel {} vs sequential {}",
                r.n,
                r.parallel_ms,
                r.sequential_ms
            );
        }
        // The gap widens with n.
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert!(last.sequential_ms / last.parallel_ms > first.sequential_ms / first.parallel_ms);
    }

    #[test]
    fn a4_window_converges() {
        let trace = run_bounds();
        let (_, _, lo, hi) = *trace.steps.last().unwrap();
        assert!(lo <= hi);
        // The learned window is strictly tighter than the initial [2, 120].
        assert!(hi < 120.0);
        assert!(lo > 2.0);
        assert!(report_bounds(&trace).contains("learned window"));
    }
}
