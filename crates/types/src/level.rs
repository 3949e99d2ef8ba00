//! Consistency-level value types shared across the workspace.
//!
//! The paper quantifies inconsistency with the TACT-style triple
//! `<numerical error, order error, staleness>` (§4.4) and collapses it to a
//! single percentage ("such as 90%") via Formula 1. [`ErrorTriple`] carries
//! the raw triple; [`ConsistencyLevel`] is the collapsed number, clamped to
//! `[0, 1]`.

use crate::time::SimDuration;
use std::fmt;

/// The TACT error triple for one replica relative to a reference state.
///
/// All three members are non-negative; zero in all members means the replica
/// is identical to the reference consistent state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorTriple {
    /// Gap between the replica's critical-metadata value and the reference's
    /// (e.g. difference of total sale price). `|meta_ref - meta_replica|`.
    pub numerical: f64,
    /// Number of updates out of place: updates the replica misses plus extra
    /// updates the reference has not (yet) sanctioned. In the §4.4.1 worked
    /// example replica *a* "misses one update and has two extra ones", so its
    /// order error is 3.
    pub order: f64,
    /// Time since the replica was last identical to a prefix of the
    /// reference: `latest_ref_update_time - last_consistent_time`.
    pub staleness: SimDuration,
}

impl ErrorTriple {
    /// The all-zero triple (replica == reference).
    pub const ZERO: ErrorTriple =
        ErrorTriple { numerical: 0.0, order: 0.0, staleness: SimDuration::ZERO };

    /// Builds a triple from raw parts.
    pub fn new(numerical: f64, order: f64, staleness: SimDuration) -> Self {
        debug_assert!(numerical >= 0.0 && order >= 0.0);
        ErrorTriple { numerical, order, staleness }
    }

    /// True when all members are zero.
    pub fn is_zero(&self) -> bool {
        self.numerical == 0.0 && self.order == 0.0 && self.staleness.is_zero()
    }
}

impl fmt::Display for ErrorTriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<num {:.2}, order {:.2}, stale {}>", self.numerical, self.order, self.staleness)
    }
}

/// A consistency level in `[0, 1]`; `1.0` is perfectly consistent.
///
/// Construction clamps, so downstream arithmetic can stay unchecked. Ordering
/// is total (levels are never NaN by construction).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct ConsistencyLevel(f64);

impl ConsistencyLevel {
    /// Perfect consistency.
    pub const PERFECT: ConsistencyLevel = ConsistencyLevel(1.0);
    /// Total inconsistency.
    pub const WORST: ConsistencyLevel = ConsistencyLevel(0.0);

    /// Builds a level, clamping into `[0, 1]` and mapping NaN to 0.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            ConsistencyLevel(0.0)
        } else {
            ConsistencyLevel(v.clamp(0.0, 1.0))
        }
    }

    /// The raw value in `[0, 1]`.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The value as a percentage in `[0, 100]`.
    #[inline]
    pub(crate) fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// True when this level satisfies (is at least) `floor`.
    #[inline]
    pub fn satisfies(self, floor: ConsistencyLevel) -> bool {
        self.0 >= floor.0
    }

    /// The lower of two levels.
    pub fn min(self, other: ConsistencyLevel) -> ConsistencyLevel {
        ConsistencyLevel(self.0.min(other.0))
    }

    /// The higher of two levels.
    pub fn max(self, other: ConsistencyLevel) -> ConsistencyLevel {
        ConsistencyLevel(self.0.max(other.0))
    }
}

impl Eq for ConsistencyLevel {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for ConsistencyLevel {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Values are clamped and never NaN, so partial_cmp is total.
        self.0.partial_cmp(&other.0).expect("consistency levels are never NaN")
    }
}

impl fmt::Display for ConsistencyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.percent())
    }
}

impl From<f64> for ConsistencyLevel {
    fn from(v: f64) -> Self {
        ConsistencyLevel::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clamping() {
        assert_eq!(ConsistencyLevel::new(1.5), ConsistencyLevel::PERFECT);
        assert_eq!(ConsistencyLevel::new(-0.2), ConsistencyLevel::WORST);
        assert_eq!(ConsistencyLevel::new(f64::NAN), ConsistencyLevel::WORST);
        assert_eq!(ConsistencyLevel::new(0.9).value(), 0.9);
    }

    #[test]
    fn satisfies_floor() {
        let l = ConsistencyLevel::new(0.95);
        assert!(l.satisfies(ConsistencyLevel::new(0.95)));
        assert!(l.satisfies(ConsistencyLevel::new(0.90)));
        assert!(!l.satisfies(ConsistencyLevel::new(0.96)));
    }

    #[test]
    fn display_as_percent() {
        assert_eq!(ConsistencyLevel::new(0.845).to_string(), "84.5%");
        assert_eq!(ErrorTriple::ZERO.to_string(), "<num 0.00, order 0.00, stale 0us>");
    }

    #[test]
    fn triple_zero_detection() {
        assert!(ErrorTriple::ZERO.is_zero());
        let t = ErrorTriple::new(1.0, 0.0, SimDuration::ZERO);
        assert!(!t.is_zero());
    }

    #[test]
    fn ordering_is_total() {
        let mut v =
            [ConsistencyLevel::new(0.5), ConsistencyLevel::new(0.95), ConsistencyLevel::new(0.0)];
        v.sort();
        assert_eq!(v[0], ConsistencyLevel::WORST);
        assert_eq!(v[2], ConsistencyLevel::new(0.95));
    }

    proptest! {
        #[test]
        fn new_always_in_unit_interval(v in prop::num::f64::ANY) {
            let l = ConsistencyLevel::new(v);
            prop_assert!((0.0..=1.0).contains(&l.value()));
        }

        #[test]
        fn min_max_consistent(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let la = ConsistencyLevel::new(a);
            let lb = ConsistencyLevel::new(b);
            prop_assert_eq!(la.min(lb).value(), a.min(b));
            prop_assert_eq!(la.max(lb).value(), a.max(b));
            prop_assert!(la.max(lb).satisfies(la.min(lb)));
        }
    }
}
