//! One-way latency models.
//!
//! The paper's 40 PlanetLab nodes "span US and Canada", giving one-way
//! delays from a few ms (same site) to ~60 ms (cross-continent). A
//! [`LatencyModel`] yields the *base* one-way delay for an ordered node
//! pair; [`Jitter`] perturbs it per message.

use idea_types::{NodeId, SimDuration};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-message perturbation applied on top of the base pair delay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Jitter {
    /// No perturbation: delivery takes exactly the base delay.
    None,
    /// Uniform multiplicative jitter: base × U(1−f, 1+f).
    Proportional {
        /// Fractional half-width, e.g. 0.2 for ±20 %.
        frac: f64,
    },
    /// Additive uniform jitter in microseconds: base + U(0, extra).
    Additive {
        /// Maximum extra delay in microseconds.
        extra_us: u64,
    },
}

impl Jitter {
    /// Applies the jitter to `base` using `rng`.
    pub fn apply<R: Rng + ?Sized>(&self, base: SimDuration, rng: &mut R) -> SimDuration {
        match *self {
            Jitter::None => base,
            Jitter::Proportional { frac } => {
                let f = frac.clamp(0.0, 0.99);
                let k = rng.gen_range((1.0 - f)..=(1.0 + f));
                base.mul_f64(k)
            }
            Jitter::Additive { extra_us } => {
                if extra_us == 0 {
                    base
                } else {
                    base + SimDuration::from_micros(rng.gen_range(0..=extra_us))
                }
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every pair has the same base delay.
    Constant(SimDuration),
    /// Dense per-pair matrix (row = from, column = to), microseconds.
    Matrix {
        /// Number of nodes (matrix is `n × n`).
        n: usize,
        /// Row-major one-way delays in microseconds; diagonal is local.
        /// Four bytes a cell: a one-way delay above `u32::MAX` µs (~71
        /// minutes) is no WAN, and `n²` cells are the model's whole size.
        us: Vec<u32>,
    },
}

impl LatencyModel {
    /// A flat model with the given one-way delay.
    pub fn constant_ms(ms: u64) -> Self {
        LatencyModel::Constant(SimDuration::from_millis(ms))
    }

    /// Builds a matrix model from a closure over ordered pairs.
    ///
    /// # Panics
    /// Panics when a delay exceeds `u32::MAX` microseconds.
    pub fn from_fn(n: usize, mut f: impl FnMut(NodeId, NodeId) -> SimDuration) -> Self {
        let mut us = Vec::with_capacity(n * n);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                let d = f(NodeId(i), NodeId(j));
                us.push(u32::try_from(d.as_micros()).unwrap_or_else(|_| {
                    panic!("delay {d} from n{i} to n{j} exceeds the matrix cell's u32::MAX µs")
                }));
            }
        }
        LatencyModel::Matrix { n, us }
    }

    /// Base one-way delay from `from` to `to`.
    pub fn base(&self, from: NodeId, to: NodeId) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Matrix { n, us } => {
                let (i, j) = (from.index(), to.index());
                assert!(i < *n && j < *n, "pair ({from},{to}) outside {n}-node matrix");
                SimDuration::from_micros(u64::from(us[i * n + j]))
            }
        }
    }

    /// Samples the delay for one message.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        jitter: Jitter,
        rng: &mut R,
    ) -> SimDuration {
        jitter.apply(self.base(from, to), rng)
    }

    /// Mean base one-way delay over all ordered pairs (excluding diagonal).
    pub fn mean_base(&self) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Matrix { n, us } => {
                if *n < 2 {
                    return SimDuration::ZERO;
                }
                let mut sum = 0u128;
                let mut cnt = 0u128;
                for i in 0..*n {
                    for j in 0..*n {
                        if i != j {
                            sum += u128::from(us[i * n + j]);
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
        let m = LatencyModel::constant_ms(50);
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
    fn matrix_cells_hold_up_to_u32_max_micros() {
        let top = SimDuration::from_micros(u64::from(u32::MAX));
        let m = LatencyModel::from_fn(2, |_, _| top);
        assert_eq!(m.base(NodeId(1), NodeId(0)), top);
    }

    #[test]
    #[should_panic(expected = "exceeds the matrix cell's u32::MAX µs")]
    fn matrix_rejects_a_delay_past_u32_micros() {
        let _ = LatencyModel::from_fn(2, |a, b| {
            SimDuration::from_micros(if a == b { 0 } else { u64::from(u32::MAX) + 1 })
        });
    }

    #[test]
    fn no_jitter_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = SimDuration::from_millis(40);
        assert_eq!(Jitter::None.apply(base, &mut rng), base);
    }

    #[test]
    fn additive_jitter_only_adds() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = SimDuration::from_millis(40);
        for _ in 0..100 {
            let d = Jitter::Additive { extra_us: 5_000 }.apply(base, &mut rng);
            assert!(d >= base);
            assert!(d <= base + SimDuration::from_micros(5_000));
        }
        assert_eq!(Jitter::Additive { extra_us: 0 }.apply(base, &mut rng), base);
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
