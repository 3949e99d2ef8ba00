//! Figure 9: scalability of active resolution with top-layer size.
//!
//! The paper extrapolates Formula 2 — `0.46825 + 104.747 · (n − 1)` ms —
//! from the Table-2 measurement and plots it for n up to 10, arguing the
//! cost stays below one second. We *measure* the delay at every size and
//! print it against the formula.

use super::active::{mean_ms, measure_active_rounds};
use crate::report::{ascii_chart, markdown_table};
use idea_core::resolution::formula2_active_delay_ms;

/// One point of the scalability curve.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Point {
    /// Top-layer size.
    pub(crate) n: usize,
    /// Measured mean total delay (phase-1 dispatch + phase 2), ms.
    pub(crate) measured_ms: f64,
    /// Formula-2 extrapolation, ms.
    pub(crate) formula_ms: f64,
}

/// Runs the sweep over top-layer sizes `2..=max_n`.
pub fn run(max_n: usize, seed: u64) -> Vec<Fig9Point> {
    (2..=max_n)
        .map(|n| {
            let records = measure_active_rounds(n + 6, n, seed + n as u64, false);
            let measured_ms = mean_ms(&records, |r| r.total_delay().as_millis_f64());
            Fig9Point { n, measured_ms, formula_ms: formula2_active_delay_ms(n) }
        })
        .collect()
}

/// Renders the curve and the comparison table.
pub fn report(points: &[Fig9Point]) -> String {
    let measured: Vec<(f64, f64)> = points.iter().map(|p| (p.n as f64, p.measured_ms)).collect();
    let formula: Vec<(f64, f64)> = points.iter().map(|p| (p.n as f64, p.formula_ms)).collect();
    let mut out = String::new();
    out.push_str("Figure 9: active-resolution delay vs top-layer size\n\n");
    out.push_str(&ascii_chart(
        &[("measured", &measured), ("formula 2", &formula)],
        64,
        12,
        0.0,
        1_100.0,
    ));
    out.push('\n');
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                format!("{:.1} ms", p.formula_ms),
                format!("{:.1} ms", p.measured_ms),
            ]
        })
        .collect();
    out.push_str(&markdown_table(&["top-layer size", "paper (formula 2)", "measured"], &rows));
    out.push_str(
        "\nPaper claim: even with ten simultaneous writers the cost stays below one second.\n",
    );
    out
}

/// Shape checks: the curve grows monotonically (within jitter), tracks the
/// formula within `rel_tol`, and stays under a second at n = 10.
pub fn shape_holds(points: &[Fig9Point], rel_tol: f64) -> bool {
    let tracks =
        points.iter().all(|p| (p.measured_ms - p.formula_ms).abs() / p.formula_ms < rel_tol);
    let under_a_second = points.iter().all(|p| p.n != 10 || p.measured_ms < 1_000.0);
    let grows = points.windows(2).all(|w| w[1].measured_ms > w[0].measured_ms * 0.9);
    tracks && under_a_second && grows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_tracks_formula2() {
        // A reduced sweep keeps the test quick; the bench runs the full one.
        let points = run(6, 7);
        assert_eq!(points.len(), 5);
        assert!(shape_holds(&points, 0.45), "{points:?}");
    }

    #[test]
    fn report_prints_every_size() {
        let points = run(4, 7);
        let text = report(&points);
        for p in &points {
            assert!(text.contains(&format!("{:.1} ms", p.formula_ms)));
        }
        assert!(text.contains("below one second"));
    }
}
