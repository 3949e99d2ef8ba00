//! Table 3: communication overhead of background resolution.
//!
//! Paper setup (§6.3.1): the automatic airline-booking system over 100 s,
//! background resolution every 20 s (168 messages) vs every 40 s
//! (96 messages); under a flat 1 KB per packet the 20 s run costs
//! 1.68 KB/s — "a very minimal bandwidth cost even for dial-up
//! connections". §6.3.2 then derives the per-round cost (Formula 5:
//! (168+96)/6 = 44) and the Formula-4 optimal rate.
//!
//! Our transfers are batched (one `FetchReply` per member per round) where
//! the authors' prototype appears to count finer-grained packets, so our
//! absolute counts sit lower; the *ratio* between the two periods, the
//! constancy of the per-round cost, and the bandwidth argument are the
//! reproduced shape.

use crate::report::markdown_table;
use crate::runner::{run_booking, BookingRunConfig, BookingRunResult};
use idea_core::resolution::formula4_optimal_rate;
use idea_types::SimDuration;

/// Both Table-3 rows plus the derived quantities.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// The 20 s-period run.
    pub fast: BookingRunResult,
    /// The 40 s-period run.
    pub slow: BookingRunResult,
}

impl Table3Result {
    /// Formula 5: mean messages per round over both runs.
    pub(crate) fn msgs_per_round(&self) -> f64 {
        let rounds = self.fast.rounds + self.slow.rounds;
        if rounds == 0 {
            return 0.0;
        }
        (self.fast.resolution_messages + self.slow.resolution_messages) as f64 / rounds as f64
    }
}

/// Runs both Table-3 configurations.
pub fn run(seed: u64) -> Table3Result {
    let base = BookingRunConfig { seed, ..Default::default() };
    Table3Result {
        fast: run_booking(&BookingRunConfig { period: SimDuration::from_secs(20), ..base.clone() }),
        slow: run_booking(&BookingRunConfig { period: SimDuration::from_secs(40), ..base }),
    }
}

/// Renders the paper-vs-measured table plus the Formula-4/5 derivations.
pub fn report(r: &Table3Result) -> String {
    let mut out = String::new();
    out.push_str("Table 3: background-resolution overhead over 100 s (booking system)\n\n");
    out.push_str(&markdown_table(
        &[
            "frequency",
            "paper (# msgs)",
            "measured (# msgs)",
            "measured rounds",
            "measured KB/s @1KB",
        ],
        &[
            vec![
                "every 20 s".into(),
                "168".into(),
                r.fast.resolution_messages.to_string(),
                r.fast.rounds.to_string(),
                format!("{:.2}", r.fast.bandwidth_bps / 8.0 / 1024.0),
            ],
            vec![
                "every 40 s".into(),
                "96".into(),
                r.slow.resolution_messages.to_string(),
                r.slow.rounds.to_string(),
                format!("{:.2}", r.slow.bandwidth_bps / 8.0 / 1024.0),
            ],
        ],
    ));
    let ratio = r.fast.resolution_messages as f64 / r.slow.resolution_messages.max(1) as f64;
    out.push_str(&format!("\nmessage ratio 20 s : 40 s — paper 1.75, measured {ratio:.2}\n"));
    out.push_str(&format!(
        "Formula 5 (mean msgs/round): paper 44 (finer-grained packets), measured {:.1} (batched transfers)\n",
        r.msgs_per_round()
    ));
    // Formula 4 worked example at our measured round cost.
    let c_bits = r.msgs_per_round() * 1024.0 * 8.0;
    let rate = formula4_optimal_rate(1e6, 0.2, c_bits);
    out.push_str(&format!(
        "Formula 4 example: 1 Mbit/s available, 20 % cap, c = {:.0} bits → optimal rate {:.2} rounds/s\n",
        c_bits, rate
    ));
    out.push_str("Paper's bandwidth verdict: minimal even for dial-up — both measured rows are far below 56 kbit/s.\n");
    out
}

/// Shape checks: the 20 s run sends more messages at roughly the period
/// ratio (the paper's 1.75 reflects fractional rounds in its window; whole-
/// round quantization puts ours between 2 and ~2.7), per-round cost is
/// stable across periods (the Formula-5 premise), and bandwidth is far
/// below dial-up.
pub fn shape_holds(r: &Table3Result) -> bool {
    let ratio = r.fast.resolution_messages as f64 / r.slow.resolution_messages.max(1) as f64;
    let per_round_fast = r.fast.msgs_per_round;
    let per_round_slow = r.slow.msgs_per_round;
    let per_round_stable = per_round_fast > 0.0
        && per_round_slow > 0.0
        && (per_round_fast - per_round_slow).abs() / per_round_slow < 0.5;
    (1.4..=3.0).contains(&ratio)
        && per_round_stable
        && r.fast.bandwidth_bps < 56_000.0
        && r.slow.bandwidth_bps < 56_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> Table3Result {
        // Smaller fleet for test speed; the bench runs the 40-node setup.
        let base = BookingRunConfig { nodes: 12, seed, ..Default::default() };
        Table3Result {
            fast: run_booking(&BookingRunConfig {
                period: SimDuration::from_secs(20),
                ..base.clone()
            }),
            slow: run_booking(&BookingRunConfig { period: SimDuration::from_secs(40), ..base }),
        }
    }

    #[test]
    fn table3_shape_holds() {
        let r = quick(7);
        assert!(shape_holds(&r), "fast {:?} slow {:?}", r.fast.rounds, r.slow.rounds);
        // ~5 rounds at 20 s, ~2-3 at 40 s over 100 s.
        assert!(r.fast.rounds >= 4);
        assert!(r.slow.rounds >= 2);
        assert!(r.fast.rounds > r.slow.rounds);
    }

    #[test]
    fn formula5_round_cost_is_positive() {
        let r = quick(8);
        let c = r.msgs_per_round();
        assert!(c > 5.0 && c < 60.0, "per-round cost {c}");
    }

    #[test]
    fn report_cites_paper_numbers() {
        let text = report(&quick(7));
        assert!(text.contains("168"));
        assert!(text.contains("96"));
        assert!(text.contains("Formula 4"));
        assert!(text.contains("Formula 5"));
    }
}
