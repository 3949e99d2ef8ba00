//! Figure 7(a)/(b): the adaptive interface under hint levels 95 % and 85 %.
//!
//! Paper setup (§6.1): 40 PlanetLab nodes, four concurrent writers of one
//! file updating every 5 s over 100 s, sampled every 5 s. With the hint at
//! 95 % the lowest user-visible level is ~94 %; at 85 % it is ~84 % — IDEA
//! kicks in just under the hint and pulls consistency back "in less than
//! one second" (the 5 s-sample plots show the next sample already
//! recovered).

use crate::report::{ascii_chart, markdown_table};
use crate::runner::{run_hint, HintRunConfig, HintRunResult};

/// Paper anchor points for Figure 7.
pub struct Fig7Anchors {
    /// The hint level of the run.
    pub hint: f64,
    /// The paper's reported lowest user-visible consistency.
    pub(crate) paper_min: f64,
}

/// Figure 7(a): hint 95 %.
pub const FIG7A: Fig7Anchors = Fig7Anchors { hint: 0.95, paper_min: 0.94 };
/// Figure 7(b): hint 85 %.
pub const FIG7B: Fig7Anchors = Fig7Anchors { hint: 0.85, paper_min: 0.84 };

/// Runs the Figure-7 experiment at `hint`.
pub fn run(hint: f64, seed: u64) -> HintRunResult {
    run_hint(&HintRunConfig { hint, seed, ..Default::default() })
}

/// Renders the paper-vs-measured report with the sampled series chart.
pub fn report(anchors: &Fig7Anchors, result: &HintRunResult) -> String {
    let user: Vec<(f64, f64)> = result.series.iter().map(|p| (p.t_secs, p.worst * 100.0)).collect();
    let avg: Vec<(f64, f64)> =
        result.series.iter().map(|p| (p.t_secs, p.average * 100.0)).collect();
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 7 (hint = {:.0} %): consistency level vs time, 40 nodes, 4 writers, update/5 s\n\n",
        anchors.hint * 100.0
    ));
    out.push_str(&ascii_chart(
        &[("view from the user", &user), ("system average", &avg)],
        72,
        14,
        (anchors.hint - 0.12) * 100.0,
        100.5,
    ));
    out.push('\n');
    out.push_str(&markdown_table(
        &["quantity", "paper", "measured"],
        &[
            vec![
                "lowest user-visible level".into(),
                format!("{:.0} %", anchors.paper_min * 100.0),
                format!("{:.1} %", result.min_worst * 100.0),
            ],
            vec![
                "mean system average".into(),
                "~hint level or above".into(),
                format!("{:.1} %", result.mean_average * 100.0),
            ],
            vec![
                "resolutions in 100 s".into(),
                "(not reported)".into(),
                format!("{}", result.resolutions),
            ],
        ],
    ));
    out
}

/// Shape check used by tests and the bench harness: the minimum should sit
/// just below the hint (IDEA fires under the floor, recovers within a
/// sample), within `tolerance`.
pub fn shape_holds(anchors: &Fig7Anchors, result: &HintRunResult, tolerance: f64) -> bool {
    let min = result.min_worst;
    min < anchors.hint && min >= anchors.hint - tolerance && result.resolutions > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_shape_holds() {
        let r = run(FIG7A.hint, 7);
        assert!(shape_holds(&FIG7A, &r, 0.08), "min {} vs hint {}", r.min_worst, FIG7A.hint);
        // 100 s / 5 s sampling inclusive of t=0.
        assert_eq!(r.series.len(), 21);
    }

    #[test]
    fn fig7b_shape_holds() {
        let r = run(FIG7B.hint, 7);
        assert!(shape_holds(&FIG7B, &r, 0.10), "min {} vs hint {}", r.min_worst, FIG7B.hint);
    }

    #[test]
    fn fig7b_dips_deeper_and_resolves_less_than_fig7a() {
        let a = run(FIG7A.hint, 7);
        let b = run(FIG7B.hint, 7);
        assert!(b.min_worst < a.min_worst);
        assert!(b.resolutions <= a.resolutions);
    }

    #[test]
    fn report_mentions_both_curves() {
        let r = run(FIG7A.hint, 7);
        let text = report(&FIG7A, &r);
        assert!(text.contains("view from the user"));
        assert!(text.contains("system average"));
        assert!(text.contains("paper"));
    }
}
