//! Adaptive consistency control (§4.6): the three application schemes.
//!
//! * **On-demand** — users explicitly request resolution; IDEA only runs
//!   background rounds otherwise. (No controller state needed: the node
//!   exposes `demand_active_resolution`.)
//! * **Hint-based** — [`HintController`]: users give an approximate floor
//!   `L1`; IDEA resolves whenever the level drops below it, and when a user
//!   is still unsatisfied the floor *learns upward* by `Δ` ("L1 + Δ will
//!   then become the new desired consistency level … to avoid annoying the
//!   user again in the future", §2).
//! * **Fully automatic** — [`AutoController`]: no user in the loop; the
//!   background frequency is adjusted inside learned bounds (oversell ⇒
//!   frequency must stay *above* the offending rate; undersell ⇒ *below*),
//!   subject to the Formula-4 bandwidth cap (§4.6, §5.2).

use crate::resolution::formula4_optimal_rate;
use idea_types::{ConsistencyLevel, SimDuration};

/// What the adaptive layer asks the protocol to do after a new sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdaptAction {
    /// Nothing to do.
    None,
    /// Trigger an active resolution now.
    Resolve,
}

/// Hint-based adaptation (§4.6 "Hint-based", §6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct HintController {
    /// Current floor `L1` (0 disables the controller).
    floor: f64,
    /// Learning step `Δ` applied on user dissatisfaction.
    delta: f64,
    /// Dissatisfaction events absorbed so far.
    complaints: u64,
}

impl HintController {
    /// Builds a controller with initial hint `floor` and step `delta`.
    ///
    /// # Panics
    /// Panics if the floor is outside `[0, 1]` or delta is negative.
    pub(crate) fn new(floor: f64, delta: f64) -> Self {
        assert!((0.0..=1.0).contains(&floor), "hint must be within [0, 1]");
        assert!(delta >= 0.0, "delta must be non-negative");
        HintController { floor, delta, complaints: 0 }
    }

    /// True when hint-based control is active.
    pub(crate) fn enabled(&self) -> bool {
        self.floor > 0.0
    }

    /// The current floor.
    pub fn floor(&self) -> ConsistencyLevel {
        ConsistencyLevel::new(self.floor)
    }

    /// Dissatisfaction events absorbed.
    pub fn complaints(&self) -> u64 {
        self.complaints
    }

    /// Replaces the hint (the `set_hint` API — including the Figure-8 reset
    /// from 95 % to 90 % mid-run).
    pub(crate) fn set_hint(&mut self, floor: f64) {
        assert!((0.0..=1.0).contains(&floor), "hint must be within [0, 1]");
        self.floor = floor;
    }

    /// Feeds a fresh consistency sample; asks for resolution when the level
    /// has fallen below the floor.
    pub(crate) fn on_sample(&mut self, level: ConsistencyLevel) -> AdaptAction {
        if self.enabled() && !level.satisfies(self.floor()) {
            AdaptAction::Resolve
        } else {
            AdaptAction::None
        }
    }

    /// A user explicitly said the current consistency is not good enough:
    /// raise the floor by `Δ` (clamped to 1) and resolve immediately.
    pub(crate) fn on_user_dissatisfied(&mut self) -> AdaptAction {
        self.complaints += 1;
        self.floor = (self.floor + self.delta).min(1.0);
        AdaptAction::Resolve
    }
}

impl Default for HintController {
    fn default() -> Self {
        HintController::new(0.0, 0.02)
    }
}

/// Fully-automatic frequency control for background resolution (§5.2).
///
/// Periods (not frequencies) are stored: `period = 1 / frequency`. The
/// learned window is `[min_period, max_period]`: overselling events shrink
/// `max_period` (resolve more often), underselling events raise
/// `min_period` (resolve less often).
#[derive(Debug, Clone, PartialEq)]
pub struct AutoController {
    period: SimDuration,
    /// Lower bound learned from underselling (locking too often).
    min_period: SimDuration,
    /// Upper bound learned from overselling (resolving too rarely).
    max_period: SimDuration,
    /// Fraction of available bandwidth IDEA may consume (Formula 4's `x`).
    bandwidth_cap: f64,
}

impl AutoController {
    /// Builds a controller starting at `period`, free to move within
    /// `[hard_min, hard_max]` until events tighten the window.
    pub fn new(period: SimDuration, hard_min: SimDuration, hard_max: SimDuration) -> Self {
        assert!(hard_min <= hard_max, "period window must be ordered");
        assert!(!hard_min.is_zero(), "period must stay positive");
        AutoController {
            period: period.max(hard_min).min(hard_max),
            min_period: hard_min,
            max_period: hard_max,
            bandwidth_cap: 0.2,
        }
    }

    /// Current background-resolution period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The learned `[min, max]` period window.
    pub fn window(&self) -> (SimDuration, SimDuration) {
        (self.min_period, self.max_period)
    }

    /// Sets the bandwidth cap fraction `x` of Formula 4.
    #[cfg(test)]
    pub(crate) fn set_bandwidth_cap(&mut self, x: f64) {
        assert!((0.0..=1.0).contains(&x), "cap must be a fraction");
        self.bandwidth_cap = x;
    }

    /// An oversell was detected while running at the current period: the
    /// frequency was too low. Keep the frequency *above* this point from now
    /// on (§5.2): the offending period becomes (just under) the new maximum.
    pub fn on_oversell(&mut self) {
        let new_max = self.period.mul_f64(0.9).max(self.min_period);
        self.max_period = new_max;
        self.period = self.period.min(self.max_period);
    }

    /// An undersell was detected (resolution locking blocked sales): the
    /// frequency was too high. Keep it *below* this point: the offending
    /// period becomes (just above) the new minimum.
    pub fn on_undersell(&mut self) {
        let new_min = self.period.mul_f64(1.1).min(self.max_period);
        self.min_period = new_min;
        self.period = self.period.max(self.min_period);
    }

    /// Adjusts the period to the Formula-4 optimal rate given currently
    /// `available_bps` of bandwidth and a measured per-round cost of
    /// `round_cost_bits`, clamped into the learned window. Returns the
    /// period now in force.
    pub fn adjust_for_load(&mut self, available_bps: f64, round_cost_bits: f64) -> SimDuration {
        let rate = formula4_optimal_rate(available_bps, self.bandwidth_cap, round_cost_bits);
        if rate > 0.0 {
            let ideal = SimDuration::from_secs_f64(1.0 / rate);
            self.period = ideal.max(self.min_period).min(self.max_period);
        }
        self.period
    }
}

impl Default for AutoController {
    fn default() -> Self {
        AutoController::new(
            SimDuration::from_secs(20),
            SimDuration::from_secs(2),
            SimDuration::from_secs(120),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lvl(v: f64) -> ConsistencyLevel {
        ConsistencyLevel::new(v)
    }

    #[test]
    fn hint_triggers_below_floor() {
        let mut h = HintController::new(0.95, 0.02);
        assert!(h.enabled());
        assert_eq!(h.on_sample(lvl(0.97)), AdaptAction::None);
        assert_eq!(h.on_sample(lvl(0.95)), AdaptAction::None, "at floor is fine");
        assert_eq!(h.on_sample(lvl(0.93)), AdaptAction::Resolve);
    }

    #[test]
    fn zero_hint_disables_control() {
        let mut h = HintController::new(0.0, 0.02);
        assert!(!h.enabled());
        assert_eq!(h.on_sample(lvl(0.01)), AdaptAction::None);
    }

    #[test]
    fn dissatisfaction_learns_upward() {
        let mut h = HintController::new(0.90, 0.02);
        assert_eq!(h.on_user_dissatisfied(), AdaptAction::Resolve);
        assert!((h.floor().value() - 0.92).abs() < 1e-9);
        assert_eq!(h.complaints(), 1);
        // The floor saturates at 1.
        for _ in 0..10 {
            h.on_user_dissatisfied();
        }
        assert_eq!(h.floor(), ConsistencyLevel::PERFECT);
    }

    #[test]
    fn figure8_hint_reset_mid_run() {
        let mut h = HintController::new(0.95, 0.02);
        assert_eq!(h.on_sample(lvl(0.93)), AdaptAction::Resolve);
        h.set_hint(0.90); // the t = 100 s reset of Figure 8
        assert_eq!(h.on_sample(lvl(0.93)), AdaptAction::None);
        assert_eq!(h.on_sample(lvl(0.89)), AdaptAction::Resolve);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn hint_out_of_range_rejected() {
        let _ = HintController::new(1.2, 0.02);
    }

    #[test]
    fn oversell_shrinks_max_period() {
        let mut a = AutoController::default();
        let before = a.period();
        a.on_oversell();
        assert!(a.period() <= before);
        assert!(a.window().1 < SimDuration::from_secs(120));
    }

    #[test]
    fn undersell_raises_min_period() {
        let mut a = AutoController::default();
        a.on_undersell();
        assert!(a.window().0 > SimDuration::from_secs(2));
        assert!(a.period() >= a.window().0);
    }

    #[test]
    fn window_never_inverts() {
        let mut a = AutoController::new(
            SimDuration::from_secs(10),
            SimDuration::from_secs(8),
            SimDuration::from_secs(12),
        );
        for _ in 0..20 {
            a.on_oversell();
            a.on_undersell();
        }
        let (min, max) = a.window();
        assert!(min <= max, "window inverted: {min} > {max}");
        assert!(a.period() >= min && a.period() <= max);
    }

    #[test]
    fn formula4_drives_load_adaptation() {
        let mut a = AutoController::new(
            SimDuration::from_secs(20),
            SimDuration::from_secs(1),
            SimDuration::from_secs(300),
        );
        a.set_bandwidth_cap(0.2);
        // 1 Mbit/s available, 15 messages × 1 KB per round = 122 880 bits:
        // optimal rate ≈ 1.63 Hz → period ≈ 0.61 s → clamps to min 1 s.
        let p = a.adjust_for_load(1e6, 15.0 * 8192.0);
        assert_eq!(p, SimDuration::from_secs(1));
        // Starved bandwidth pushes the period up towards the max.
        let p2 = a.adjust_for_load(1e3, 15.0 * 8192.0);
        assert!(p2 > SimDuration::from_secs(100));
    }

    #[test]
    fn zero_rate_keeps_period() {
        let mut a = AutoController::default();
        let before = a.period();
        assert_eq!(a.adjust_for_load(0.0, 1000.0), before);
    }

    proptest! {
        #[test]
        fn auto_controller_period_always_in_window(
            events in prop::collection::vec(prop::bool::ANY, 0..40),
            bw in 0.0f64..1e7, cost in 1.0f64..1e6,
        ) {
            let mut a = AutoController::default();
            for oversell in events {
                if oversell { a.on_oversell() } else { a.on_undersell() }
                a.adjust_for_load(bw, cost);
                let (min, max) = a.window();
                prop_assert!(min <= max);
                prop_assert!(a.period() >= min && a.period() <= max);
            }
        }

        #[test]
        fn hint_floor_is_monotone_under_complaints(
            start in 0.5f64..0.99, delta in 0.001f64..0.1, n in 1usize..30,
        ) {
            let mut h = HintController::new(start, delta);
            let mut last = h.floor();
            for _ in 0..n {
                h.on_user_dissatisfied();
                prop_assert!(h.floor() >= last);
                last = h.floor();
            }
        }
    }
}
