//! Formula 1: collapsing the TACT triple to a single consistency level.
//!
//! §4.4.1 of the paper:
//!
//! ```text
//! Consistency = (Max_num   − num_error)   / Max_num   × num_weight
//!             + (Max_order − order_error) / Max_order × order_weight
//!             + (Max_stale − staleness)   / Max_stale × stale_weight
//! ```
//!
//! IDEA "predefines a maximum value for each member of the triple" (errors
//! above the maximum saturate) and "gets input from users and sets weight
//! for the three members". Weights are normalised so the level lands in
//! `[0, 1]`; a metric can be switched off by giving it weight 0 (paper
//! example: `weight<0.4, 0, 0.6>`).

use idea_types::{ConsistencyLevel, ErrorTriple, SimDuration};

/// Weights of the three triple members. Need not sum to one — the
/// quantifier normalises — but must be non-negative and not all zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// Weight of the numerical error.
    pub numerical: f64,
    /// Weight of the order error.
    pub order: f64,
    /// Weight of staleness.
    pub staleness: f64,
}

impl Weights {
    /// Equal thirds — the paper's "treat the three members equally".
    pub const EQUAL: Weights = Weights { numerical: 1.0, order: 1.0, staleness: 1.0 };

    /// White-board preset from §5.1: order preservation dominates
    /// ("such as 0.7 to order error and 0.1 to staleness").
    pub const WHITEBOARD: Weights = Weights { numerical: 0.2, order: 0.7, staleness: 0.1 };

    /// Builds weights, verifying the domain.
    ///
    /// # Panics
    /// Panics if any weight is negative, non-finite, or all are zero.
    pub fn new(numerical: f64, order: f64, staleness: f64) -> Self {
        let w = Weights { numerical, order, staleness };
        w.validate();
        w
    }

    fn validate(&self) {
        assert!(
            self.numerical >= 0.0 && self.order >= 0.0 && self.staleness >= 0.0,
            "weights must be non-negative"
        );
        assert!(
            self.numerical.is_finite() && self.order.is_finite() && self.staleness.is_finite(),
            "weights must be finite"
        );
        assert!(self.sum() > 0.0, "at least one weight must be positive");
    }

    fn sum(&self) -> f64 {
        self.numerical + self.order + self.staleness
    }

    /// The weights scaled to sum to one.
    pub(crate) fn normalized(&self) -> Weights {
        let s = self.sum();
        Weights {
            numerical: self.numerical / s,
            order: self.order / s,
            staleness: self.staleness / s,
        }
    }
}

impl Default for Weights {
    fn default() -> Self {
        Weights::EQUAL
    }
}

/// Saturation maxima for the three triple members (`set_consistency_metric`
/// in the Table-1 API: "cast applications to IDEA's consistency metric").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxBounds {
    /// Numerical error at (or beyond) which that member contributes zero.
    pub numerical: f64,
    /// Order error saturation point.
    pub order: f64,
    /// Staleness saturation point.
    pub staleness: SimDuration,
}

impl MaxBounds {
    /// The worked example of §4.4.1: "the maximum error for all three
    /// metrics are 10" (staleness in seconds there).
    pub const PAPER_EXAMPLE: MaxBounds =
        MaxBounds { numerical: 10.0, order: 10.0, staleness: SimDuration::from_secs(10) };

    /// Builds bounds, verifying the domain.
    ///
    /// # Panics
    /// Panics on non-positive numerical/order maxima or zero staleness.
    pub fn new(numerical: f64, order: f64, staleness: SimDuration) -> Self {
        assert!(numerical > 0.0 && order > 0.0, "maxima must be positive");
        assert!(!staleness.is_zero(), "staleness maximum must be positive");
        MaxBounds { numerical, order, staleness }
    }
}

impl Default for MaxBounds {
    fn default() -> Self {
        // Calibrated for the paper's workload (4 writers, one update per
        // 5 s): levels hover in the 85–100 % band of Figures 7, 8 and 10.
        MaxBounds { numerical: 40.0, order: 40.0, staleness: SimDuration::from_secs(60) }
    }
}

/// The Formula-1 quantifier: weights + bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantifier {
    weights: Weights,
    bounds: MaxBounds,
}

impl Quantifier {
    /// Builds a quantifier (weights are normalised internally).
    pub fn new(weights: Weights, bounds: MaxBounds) -> Self {
        weights.validate();
        Quantifier { weights: weights.normalized(), bounds }
    }

    /// The normalised weights in force.
    pub fn weights(&self) -> Weights {
        self.weights
    }

    /// The saturation bounds in force.
    pub fn bounds(&self) -> MaxBounds {
        self.bounds
    }

    /// Replaces the weights (the `set_weight` API).
    pub(crate) fn set_weights(&mut self, weights: Weights) {
        weights.validate();
        self.weights = weights.normalized();
    }

    /// Replaces the bounds (the `set_consistency_metric` API).
    pub(crate) fn set_bounds(&mut self, bounds: MaxBounds) {
        self.bounds = bounds;
    }

    /// Formula 1: the consistency level of a replica whose error triple
    /// against the reference state is `t`.
    pub fn level(&self, t: &ErrorTriple) -> ConsistencyLevel {
        let num = component(t.numerical, self.bounds.numerical);
        let ord = component(t.order, self.bounds.order);
        let stale =
            component(t.staleness.as_micros() as f64, self.bounds.staleness.as_micros() as f64);
        ConsistencyLevel::new(
            num * self.weights.numerical
                + ord * self.weights.order
                + stale * self.weights.staleness,
        )
    }
}

impl Default for Quantifier {
    fn default() -> Self {
        Quantifier::new(Weights::default(), MaxBounds::default())
    }
}

/// One member's contribution: `(max − min(err, max)) / max` ∈ `[0, 1]`.
fn component(err: f64, max: f64) -> f64 {
    if max <= 0.0 {
        return 1.0;
    }
    (max - err.min(max)).max(0.0) / max
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triple(num: f64, ord: f64, stale_s: u64) -> ErrorTriple {
        ErrorTriple::new(num, ord, SimDuration::from_secs(stale_s))
    }

    #[test]
    fn paper_figure4e_example() {
        // Replica a's triple is <3, 3, 2>, maxima all 10, equal weights:
        // level = ((10-3)/10 + (10-3)/10 + (10-2)/10) / 3 = 0.7333…
        let q = Quantifier::new(Weights::EQUAL, MaxBounds::PAPER_EXAMPLE);
        let level = q.level(&triple(3.0, 3.0, 2));
        assert!((level.value() - 0.7333).abs() < 1e-3, "got {level}");
        // Replica b is the reference: zero triple, perfect level.
        assert_eq!(q.level(&ErrorTriple::ZERO), ConsistencyLevel::PERFECT);
    }

    #[test]
    fn errors_saturate_at_bounds() {
        let q = Quantifier::new(Weights::EQUAL, MaxBounds::PAPER_EXAMPLE);
        let at_max = q.level(&triple(10.0, 10.0, 10));
        let beyond = q.level(&triple(1e9, 1e9, 10_000));
        assert_eq!(at_max, ConsistencyLevel::WORST);
        assert_eq!(beyond, ConsistencyLevel::WORST);
    }

    #[test]
    fn zero_weight_disables_metric() {
        // weight<0.4, 0, 0.6> from the paper: order error is ignored.
        let q = Quantifier::new(Weights::new(0.4, 0.0, 0.6), MaxBounds::PAPER_EXAMPLE);
        let a = q.level(&triple(0.0, 0.0, 0));
        let b = q.level(&triple(0.0, 10.0, 0));
        assert_eq!(a, b, "order error must not matter at weight 0");
    }

    #[test]
    fn weights_are_normalised() {
        let q = Quantifier::new(Weights::new(2.0, 2.0, 2.0), MaxBounds::PAPER_EXAMPLE);
        let w = q.weights();
        assert!((w.numerical - 1.0 / 3.0).abs() < 1e-12);
        assert!((w.numerical + w.order + w.staleness - 1.0).abs() < 1e-12);
        // Same level as the unscaled equal weights.
        let q2 = Quantifier::new(Weights::EQUAL, MaxBounds::PAPER_EXAMPLE);
        let t = triple(3.0, 1.0, 4);
        assert_eq!(q.level(&t), q2.level(&t));
    }

    #[test]
    fn setters_replace_configuration() {
        let mut q = Quantifier::default();
        let t = triple(5.0, 0.0, 0);
        let before = q.level(&t);
        q.set_bounds(MaxBounds::new(5.0, 40.0, SimDuration::from_secs(60)));
        let after = q.level(&t);
        assert!(after < before, "tighter bound makes the same error worse");
        q.set_weights(Weights::new(0.0, 1.0, 0.0));
        assert_eq!(q.level(&t), ConsistencyLevel::PERFECT, "numerical now ignored");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let _ = Weights::new(-0.1, 0.5, 0.6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn all_zero_weights_rejected() {
        let _ = Weights::new(0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bounds_rejected() {
        let _ = MaxBounds::new(0.0, 1.0, SimDuration::from_secs(1));
    }

    #[test]
    fn whiteboard_preset_prioritises_order() {
        let q = Quantifier::new(Weights::WHITEBOARD, MaxBounds::PAPER_EXAMPLE);
        let order_hurt = q.level(&triple(0.0, 5.0, 0));
        let stale_hurt = q.level(&triple(0.0, 0.0, 5));
        assert!(
            order_hurt < stale_hurt,
            "same relative error must hurt more on the heavier metric"
        );
    }

    #[test]
    fn collapse_matches_hand_computed_formula() {
        // weight<0.4, 0.2, 0.4>, maxima <20, 10, 5 s>, triple <5, 4, 2 s>:
        // level = (20-5)/20·0.4 + (10-4)/10·0.2 + (5-2)/5·0.4
        //       = 0.75·0.4 + 0.6·0.2 + 0.6·0.4 = 0.66
        let q = Quantifier::new(
            Weights::new(0.4, 0.2, 0.4),
            MaxBounds::new(20.0, 10.0, SimDuration::from_secs(5)),
        );
        let level = q.level(&triple(5.0, 4.0, 2));
        assert!((level.value() - 0.66).abs() < 1e-12, "got {level}");
    }

    #[test]
    fn two_zero_weights_reduce_to_single_metric() {
        // Staleness-only quantifier: numerical and order errors are ignored
        // entirely, and the level is linear in staleness up to the bound.
        let q = Quantifier::new(
            Weights::new(0.0, 0.0, 1.0),
            MaxBounds::new(1.0, 1.0, SimDuration::from_secs(10)),
        );
        assert_eq!(q.level(&triple(1e9, 1e9, 0)), ConsistencyLevel::PERFECT);
        let half = q.level(&triple(0.0, 0.0, 5));
        assert!((half.value() - 0.5).abs() < 1e-12, "got {half}");
        assert_eq!(q.level(&triple(0.0, 0.0, 10)), ConsistencyLevel::WORST);
    }

    #[test]
    fn max_bound_edges_saturate_exactly() {
        let q = Quantifier::new(Weights::EQUAL, MaxBounds::PAPER_EXAMPLE);
        // Exactly at the bound on one member: that member contributes zero,
        // the others full weight — level collapses to 2/3.
        let at_edge = q.level(&triple(10.0, 0.0, 0));
        assert!((at_edge.value() - 2.0 / 3.0).abs() < 1e-12, "got {at_edge}");
        // Just below and beyond the bound bracket the edge value.
        assert!(q.level(&triple(10.0 - 1e-9, 0.0, 0)) > at_edge);
        assert_eq!(q.level(&triple(10.0 + 1e9, 0.0, 0)), at_edge);
        // All members at their bound — the floor, regardless of weights.
        let q2 = Quantifier::new(Weights::new(0.1, 0.7, 0.2), MaxBounds::PAPER_EXAMPLE);
        assert_eq!(q2.level(&triple(10.0, 10.0, 10)), ConsistencyLevel::WORST);
    }

    proptest! {
        #[test]
        fn level_is_always_in_unit_interval(
            num in 0.0f64..1e6, ord in 0.0f64..1e6, stale in 0u64..1_000_000,
            wn in 0.0f64..5.0, wo in 0.0f64..5.0, ws in 0.01f64..5.0,
        ) {
            let q = Quantifier::new(Weights::new(wn, wo, ws), MaxBounds::default());
            let l = q.level(&triple(num, ord, stale));
            prop_assert!((0.0..=1.0).contains(&l.value()));
        }

        #[test]
        fn level_is_monotone_in_each_error(
            num in 0.0f64..50.0, ord in 0.0f64..50.0, stale in 0u64..80,
            bump in 0.1f64..20.0,
        ) {
            let q = Quantifier::default();
            let base = q.level(&triple(num, ord, stale));
            prop_assert!(q.level(&triple(num + bump, ord, stale)) <= base);
            prop_assert!(q.level(&triple(num, ord + bump, stale)) <= base);
            prop_assert!(q.level(&triple(num, ord, stale + 10)) <= base);
        }

        #[test]
        fn perfect_iff_zero_triple_under_positive_weights(
            num in 0.0f64..100.0, ord in 0.0f64..100.0, stale in 0u64..100,
        ) {
            let q = Quantifier::default();
            let t = triple(num, ord, stale);
            let perfect = q.level(&t) == ConsistencyLevel::PERFECT;
            prop_assert_eq!(perfect, t.is_zero());
        }
    }
}
