//! Table 2: the two-phase breakdown of active resolution.
//!
//! Paper setup (§6.2): four concurrent writers in the top layer; the
//! resolution scheme runs four times, each initiated by a different writer;
//! the result is the average. Reported: phase 1 = 0.46825 ms (the parallel
//! call-for-attention dispatch), phase 2 = 314.241 ms (sequentially visiting
//! the three other members).

use super::active::{mean_ms, measure_active_rounds};
use crate::report::markdown_table;
use idea_core::resolution::formula2_active_delay_ms;

/// Measured Table-2 quantities (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct Table2Result {
    /// Phase-1 dispatch cost (paper's "Phase 1").
    pub(crate) phase1_dispatch_ms: f64,
    /// Phase-1 completion including acknowledgements (one WAN RTT) — a
    /// second reading the paper's sub-RTT number cannot include; reported
    /// for completeness.
    pub(crate) phase1_acked_ms: f64,
    /// Phase-2 duration (paper's "Phase 2").
    pub(crate) phase2_ms: f64,
    /// Initiators averaged.
    pub(crate) runs: usize,
}

/// Paper anchors.
pub(crate) const PAPER_PHASE1_MS: f64 = 0.46825;
/// Paper's phase-2 anchor.
pub(crate) const PAPER_PHASE2_MS: f64 = 314.241;

/// Runs the Table-2 experiment: 40 nodes, top layer of 4, one resolution
/// per initiator, averaged.
pub fn run(seed: u64) -> Table2Result {
    let records = measure_active_rounds(40, 4, seed, false);
    Table2Result {
        phase1_dispatch_ms: mean_ms(&records, |r| r.phase1_dispatch.as_millis_f64()),
        phase1_acked_ms: mean_ms(&records, |r| r.phase1_acked.as_millis_f64()),
        phase2_ms: mean_ms(&records, |r| r.phase2.as_millis_f64()),
        runs: records.len(),
    }
}

/// Renders the paper-vs-measured table.
pub fn report(r: &Table2Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 2: active-resolution phase breakdown (top layer = 4, mean of {} initiators)\n\n",
        r.runs
    ));
    out.push_str(&markdown_table(
        &["phase", "paper", "measured"],
        &[
            vec![
                "Phase 1 (parallel call-for-attention, dispatch)".into(),
                format!("{PAPER_PHASE1_MS:.5} ms"),
                format!("{:.5} ms", r.phase1_dispatch_ms),
            ],
            vec![
                "Phase 1 incl. acknowledgements (one WAN RTT)".into(),
                "(not separately reported)".into(),
                format!("{:.1} ms", r.phase1_acked_ms),
            ],
            vec![
                "Phase 2 (sequential collect + inform)".into(),
                format!("{PAPER_PHASE2_MS:.3} ms"),
                format!("{:.1} ms", r.phase2_ms),
            ],
        ],
    ));
    out.push_str(&format!(
        "\nFormula 2 fit at n = 4: paper {:.1} ms, measured {:.1} ms\n",
        formula2_active_delay_ms(4),
        r.phase1_dispatch_ms + r.phase2_ms,
    ));
    out
}

/// Shape check: phase 1 is sub-millisecond and orders of magnitude below
/// phase 2, which sits in the paper's few-hundred-ms band.
pub fn shape_holds(r: &Table2Result) -> bool {
    r.phase1_dispatch_ms < 1.0
        && r.phase2_ms > 50.0 * r.phase1_dispatch_ms
        && r.phase2_ms > 150.0
        && r.phase2_ms < 650.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let r = run(7);
        assert_eq!(r.runs, 4);
        assert!(shape_holds(&r), "{r:?}");
        // The dispatch model is calibrated to the paper's 0.468 ms.
        assert!((r.phase1_dispatch_ms - PAPER_PHASE1_MS).abs() < 0.05, "{r:?}");
        // Phase 2 should land within ~40 % of the paper's 314 ms (three
        // sequential cross-region RTTs).
        assert!(
            (r.phase2_ms - PAPER_PHASE2_MS).abs() / PAPER_PHASE2_MS < 0.4,
            "phase2 {} ms",
            r.phase2_ms
        );
    }

    #[test]
    fn acked_phase1_is_a_round_trip() {
        let r = run(8);
        assert!(r.phase1_acked_ms > 50.0, "{r:?}");
        assert!(r.phase1_acked_ms < 300.0, "{r:?}");
    }

    #[test]
    fn report_has_both_phases() {
        let text = report(&run(7));
        assert!(text.contains("Phase 1"));
        assert!(text.contains("Phase 2"));
        assert!(text.contains("314.241"));
    }
}
