//! One-way latency models.
//!
//! The paper's 40 PlanetLab nodes "span US and Canada", giving one-way
//! delays from a few ms (same site) to ~60 ms (cross-continent). A
//! [`LatencyModel`] yields the *base* one-way delay for an ordered node
//! pair; [`Jitter`] perturbs it per message.

use idea_types::{NodeId, SimDuration};
use rand::Rng;

/// Per-message perturbation applied on top of the base pair delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Jitter {
    /// No perturbation: delivery takes exactly the base delay.
    None,
    /// Uniform multiplicative jitter: base × U(1−f, 1+f).
    Proportional {
        /// Fractional half-width, e.g. 0.2 for ±20 %.
        frac: f64,
    },
}

impl Jitter {
    /// Applies the jitter to `base` using `rng`.
    pub(crate) fn apply<R: Rng + ?Sized>(&self, base: SimDuration, rng: &mut R) -> SimDuration {
        match *self {
            Jitter::None => base,
            Jitter::Proportional { frac } => {
                let f = frac.clamp(0.0, 0.99);
                let k = rng.gen_range((1.0 - f)..=(1.0 + f));
                base.mul_f64(k)
            }
        }
    }
}

impl Default for Jitter {
    fn default() -> Self {
        Jitter::Proportional { frac: 0.1 }
    }
}

/// Base one-way delay for an ordered node pair.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LatencyModel {
    /// Every pair has the same base delay.
    Constant(SimDuration),
    /// Dense per-pair matrix (row = from, column = to), whole milliseconds.
    Matrix {
        /// Number of nodes (matrix is `n × n`).
        n: usize,
        /// Row-major one-way delays in whole milliseconds; diagonal is
        /// local. One byte a cell: WAN one-way delays are tens of ms (the
        /// PlanetLab testbed draws 8–55 ms), `n²` cells are the model's
        /// whole size, and every simulated message reads one, so a denser
        /// matrix misses the cache less (640 nodes: 0.41 MB).
        ms: Vec<u8>,
    },
}

impl LatencyModel {
    /// Builds a matrix model from a closure over ordered pairs.
    ///
    /// # Panics
    /// Panics when a delay is not a whole number of milliseconds, or
    /// exceeds 255 ms.
    #[cfg(test)]
    pub(crate) fn from_fn(n: usize, mut f: impl FnMut(NodeId, NodeId) -> SimDuration) -> Self {
        let mut ms = Vec::with_capacity(n * n);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                let d = f(NodeId(i), NodeId(j));
                match u8::try_from(d.as_micros() / 1_000) {
                    Ok(cell) if d.as_micros().is_multiple_of(1_000) => ms.push(cell),
                    _ => panic!("delay {d} from n{i} to n{j} is not a whole ms up to 255 ms"),
                }
            }
        }
        LatencyModel::Matrix { n, ms }
    }

    /// Base one-way delay from `from` to `to`.
    pub(crate) fn base(&self, from: NodeId, to: NodeId) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Matrix { n, ms } => {
                let (i, j) = (from.index(), to.index());
                assert!(i < *n && j < *n, "pair ({from},{to}) outside {n}-node matrix");
                SimDuration::from_millis(u64::from(ms[i * n + j]))
            }
        }
    }

    /// Samples the delay for one message.
    pub(crate) fn sample<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        jitter: Jitter,
        rng: &mut R,
    ) -> SimDuration {
        jitter.apply(self.base(from, to), rng)
    }

    /// Mean base one-way delay over all ordered pairs (excluding diagonal).
    #[cfg(test)]
    pub(crate) fn mean_base(&self) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Matrix { n, ms } => {
                if *n < 2 {
                    return SimDuration::ZERO;
                }
                let mut sum = 0u128;
                let mut cnt = 0u128;
                for i in 0..*n {
                    for j in 0..*n {
                        if i != j {
                            sum += u128::from(ms[i * n + j]) * 1_000;
                            cnt += 1;
                        }
                    }
                }
                SimDuration::from_micros((sum / cnt) as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_model_is_flat() {
        let m = LatencyModel::Constant(SimDuration::from_millis(50));
        assert_eq!(m.base(NodeId(0), NodeId(1)), SimDuration::from_millis(50));
        assert_eq!(m.base(NodeId(3), NodeId(2)), SimDuration::from_millis(50));
        assert_eq!(m.mean_base(), SimDuration::from_millis(50));
    }

    #[test]
    fn matrix_model_is_directional() {
        let m = LatencyModel::from_fn(2, |a, b| {
            SimDuration::from_millis(if a.0 < b.0 { 10 } else { 30 })
        });
        assert_eq!(m.base(NodeId(0), NodeId(1)), SimDuration::from_millis(10));
        assert_eq!(m.base(NodeId(1), NodeId(0)), SimDuration::from_millis(30));
        assert_eq!(m.mean_base(), SimDuration::from_millis(20));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn matrix_rejects_out_of_range() {
        let m = LatencyModel::from_fn(2, |_, _| SimDuration::from_millis(1));
        let _ = m.base(NodeId(0), NodeId(5));
    }

    #[test]
    fn matrix_cells_hold_whole_ms_up_to_255() {
        let top = SimDuration::from_millis(255);
        let m = LatencyModel::from_fn(2, |a, b| if a == b { SimDuration::ZERO } else { top });
        assert_eq!(m.base(NodeId(1), NodeId(0)), top);
        assert_eq!(m.base(NodeId(1), NodeId(1)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "not a whole ms up to 255 ms")]
    fn matrix_rejects_a_delay_past_255_ms() {
        let _ =
            LatencyModel::from_fn(2, |a, b| SimDuration::from_millis(if a == b { 0 } else { 256 }));
    }

    #[test]
    #[should_panic(expected = "not a whole ms up to 255 ms")]
    fn matrix_rejects_a_fractional_ms() {
        let _ = LatencyModel::from_fn(2, |_, _| SimDuration::from_micros(10_500));
    }

    #[test]
    fn no_jitter_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = SimDuration::from_millis(40);
        assert_eq!(Jitter::None.apply(base, &mut rng), base);
    }

    proptest! {
        #[test]
        fn proportional_jitter_stays_in_band(seed in 0u64..256, frac in 0.0f64..0.5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = SimDuration::from_millis(100);
            let d = Jitter::Proportional { frac }.apply(base, &mut rng);
            let lo = base.mul_f64(1.0 - frac);
            let hi = base.mul_f64(1.0 + frac);
            prop_assert!(d >= lo - SimDuration::from_micros(1));
            prop_assert!(d <= hi + SimDuration::from_micros(1));
        }

        #[test]
        fn sample_uses_base_pair(seed in 0u64..64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = LatencyModel::from_fn(4, |a, b| {
                SimDuration::from_millis(1 + (a.0 + b.0) as u64)
            });
            let d = m.sample(NodeId(1), NodeId(2), Jitter::None, &mut rng);
            prop_assert_eq!(d, SimDuration::from_millis(4));
        }
    }
}
