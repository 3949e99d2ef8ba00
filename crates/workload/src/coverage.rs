//! Analytic top-layer coverage model (the authors' ref \[16\]).
//!
//! The paper leans on a prior result: "most inconsistencies can be caught in
//! the top layer with a very high probability (more than 95 % in a variety
//! of scenarios)" and "as small as 0.04 %" miss rates (§6). The model here
//! derives that probability from first principles:
//!
//! An inconsistency is a *pair of concurrent conflicting updates*. If writer
//! `i` contributes a fraction `wᵢ` of all update activity, a conflicting
//! pair involves writers `(i, j)` with probability `wᵢ·wⱼ`; the top layer
//! catches the pair immediately iff **both** writers are top-layer members
//! (their vectors meet in the next exchange). Hence
//!
//! ```text
//! P(caught) = (Σ_{i ∈ T} wᵢ)²
//! ```
//!
//! With hot-writer activity following a Zipf-like law, a handful of top
//! nodes captures nearly all activity and `P` clears 95 % — exactly the
//! regime the paper's experiments run in (all four writers in the top
//! layer → `P = 1`).

/// Probability that an inconsistency (a concurrent update pair) surfaces in
/// the top layer, given per-node update `rates` and the `top` member set
/// (indices into `rates`).
///
/// Returns 1.0 when there is no update activity at all (nothing to miss).
pub(crate) fn top_layer_catch_probability(rates: &[f64], top: &[usize]) -> f64 {
    let total: f64 = rates.iter().copied().filter(|r| *r > 0.0).sum();
    if total <= 0.0 {
        return 1.0;
    }
    let captured: f64 =
        top.iter().filter_map(|&i| rates.get(i)).copied().filter(|r| *r > 0.0).sum();
    let q = (captured / total).clamp(0.0, 1.0);
    q * q
}

/// Zipf-like activity profile: `n` nodes, exponent `s`; rate of rank-`k`
/// node ∝ 1/(k+1)^s. Useful for coverage studies.
pub(crate) fn zipf_rates(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect()
}

/// Smallest top-layer size (taking the most active writers first) whose
/// catch probability reaches `target`.
pub(crate) fn min_top_size_for(rates: &[f64], target: f64) -> usize {
    let mut order: Vec<usize> = (0..rates.len()).collect();
    order.sort_by(|&a, &b| rates[b].partial_cmp(&rates[a]).unwrap());
    let mut top = Vec::new();
    for idx in order {
        top.push(idx);
        if top_layer_catch_probability(rates, &top) >= target {
            return top.len();
        }
    }
    rates.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_scenario_all_writers_in_top_layer() {
        // §6.1: only the four writers update; all four are in the top layer.
        let mut rates = vec![0.0; 40];
        for r in rates.iter_mut().take(4) {
            *r = 0.2; // one update per 5 s
        }
        let p = top_layer_catch_probability(&rates, &[0, 1, 2, 3]);
        assert_eq!(p, 1.0, "every conflict is between top-layer members");
    }

    #[test]
    fn hot_writers_dominate_zipf_traffic() {
        // With sharply skewed (Zipf s=2) activity over 40 nodes, a top layer
        // well under half the network clears the paper's 95 % claim.
        let rates = zipf_rates(40, 2.0);
        let size = min_top_size_for(&rates, 0.95);
        assert!(size <= 16, "needed {size} members for 95 %");
        let top: Vec<usize> = (0..size).collect();
        assert!(top_layer_catch_probability(&rates, &top) >= 0.95);
        // A gentler skew needs more members — the model is sensitive to the
        // activity profile, as ref [16] studies.
        let gentle = zipf_rates(40, 1.2);
        assert!(min_top_size_for(&gentle, 0.95) > size);
    }

    #[test]
    fn hot_plus_cold_tail_matches_paper_regime() {
        // Four hot writers plus a long cold tail (each cold node updates
        // 400x less): the four-node top layer catches > 95 %.
        let mut rates = vec![0.0005; 40];
        for r in rates.iter_mut().take(4) {
            *r = 0.2;
        }
        let p = top_layer_catch_probability(&rates, &[0, 1, 2, 3]);
        assert!(p > 0.95, "p = {p}");
    }

    #[test]
    fn miss_rate_can_reach_paper_floor() {
        // "as small as 0.04 %": capture 99.98 % of activity.
        let mut rates = vec![0.0001; 100];
        rates[0] = 100.0;
        rates[1] = 100.0;
        let p = top_layer_catch_probability(&rates, &[0, 1]);
        assert!(1.0 - p < 0.001, "miss rate {:.5}", 1.0 - p);
    }

    #[test]
    fn empty_activity_is_trivially_covered() {
        assert_eq!(top_layer_catch_probability(&[0.0, 0.0], &[0]), 1.0);
        assert_eq!(top_layer_catch_probability(&[], &[]), 1.0);
    }

    #[test]
    fn bogus_top_indices_are_ignored() {
        let rates = vec![1.0, 1.0];
        let p = top_layer_catch_probability(&rates, &[0, 7]);
        assert_eq!(p, 0.25);
    }

    #[test]
    fn zipf_rates_decrease() {
        let r = zipf_rates(10, 1.0);
        assert!(r.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(r.len(), 10);
    }

    proptest! {
        #[test]
        fn probability_is_in_unit_interval(
            rates in prop::collection::vec(0.0f64..10.0, 1..30),
            picks in prop::collection::vec(0usize..30, 0..30),
        ) {
            let p = top_layer_catch_probability(&rates, &picks);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        #[test]
        fn adding_members_never_hurts(
            rates in prop::collection::vec(0.01f64..10.0, 2..20),
        ) {
            let n = rates.len();
            let mut top: Vec<usize> = Vec::new();
            let mut last = top_layer_catch_probability(&rates, &top);
            for i in 0..n {
                top.push(i);
                let p = top_layer_catch_probability(&rates, &top);
                prop_assert!(p >= last - 1e-12);
                last = p;
            }
            prop_assert!((last - 1.0).abs() < 1e-9, "full membership catches all");
        }
    }
}
