//! The harness's own order statistics: percentiles over sorted raw
//! samples, medians and quartile spreads over repeats, and the
//! mean-subtraction rule for a layer's self time.

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples strictly beyond percentile `pct` among `n`.
fn beyond(n: usize, pct: f64) -> usize {
    // Integer arithmetic in 1/100 of a percent: 99.99 → 1 part in 10,000.
    let parts = (10_000.0 - pct * 100.0).round() as usize;
    n * parts / 10_000
}

/// The highest percentile that still has at least ten samples beyond it
/// (a tail estimated from fewer is one outlier away from meaningless);
/// `None` below 20 samples, where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS.iter().copied().find(|&p| beyond(n, p) >= 10)
}

/// Whether percentile `pct` has at least ten samples beyond it among `n`.
pub fn supports(n: usize, pct: f64) -> bool {
    beyond(n, pct) >= 10
}

/// Raw latency samples of one stage; sorted once, then queried.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples { values: Vec::with_capacity(n), sorted: true }
    }

    #[cfg(test)]
    pub fn from_vec(values: Vec<u64>) -> Self {
        Samples { values, sorted: false }
    }

    #[inline]
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile (`0` on an empty set, which callers report
    /// as "layer bypassed").
    pub fn percentile(&mut self, pct: f64) -> f64 {
        self.sort();
        let n = self.values.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1] as f64
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().map(|&v| v as f64).sum::<f64>() / self.values.len() as f64
    }
}

/// Level estimates bucketed to 1/1000, so percentiles cost no sort and two
/// runs compare exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LevelHistogram {
    fn default() -> Self {
        LevelHistogram { buckets: vec![0; 1_001], count: 0 }
    }
}

impl LevelHistogram {
    pub fn record(&mut self, level: f64) {
        self.buckets[(level.clamp(0.0, 1.0) * 1_000.0) as usize] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &LevelHistogram) {
        self.buckets.iter_mut().zip(&other.buckets).for_each(|(a, b)| *a += b);
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples at or above `floor`.
    pub fn at_least(&self, floor: f64) -> u64 {
        self.buckets[(floor * 1_000.0) as usize..].iter().sum()
    }

    /// Mean of the lowest `pct` percent of the samples, each taken at the
    /// lower edge of its bucket (1.0 with no samples). Unlike a percentile
    /// it moves smoothly when the tail is sparse, so two seeds agree on it.
    pub fn tail_mean(&self, pct: f64) -> f64 {
        let want = ((pct / 100.0) * self.count as f64).ceil() as u64;
        if want == 0 {
            return 1.0;
        }
        let (mut left, mut sum) = (want, 0.0);
        for (bucket, n) in self.buckets.iter().enumerate() {
            let take = left.min(*n);
            sum += take as f64 * bucket as f64 / 1_000.0;
            left -= take;
        }
        sum / want as f64
    }

    /// Nearest-rank percentile, as the lower edge of its bucket (1.0 with
    /// no samples: nothing was ever seen below perfect).
    pub fn percentile(&self, pct: f64) -> f64 {
        let rank = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bucket, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank && *n > 0 {
                return bucket as f64 / 1_000.0;
            }
        }
        1.0
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Self time of a layer from means: the layer's own mean span minus the
/// mean of the child span it contains. Means subtract exactly (every
/// request has one of each), percentiles do not — which is why the
/// transport's self time is reported as a mean only.
pub fn self_time_mean(outer_mean: f64, child_mean: f64) -> f64 {
    outer_mean - child_mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn percentiles_are_nearest_rank_over_sorted_samples() {
        let mut s = Samples::from_vec((1..=1000).rev().collect());
        assert_eq!(s.percentile(50.0), 500.0);
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.percentile(100.0), 1000.0);
        assert_eq!(s.len(), 1000);
        assert_eq!(Samples::default().percentile(99.0), 0.0);
    }

    #[test]
    fn level_histogram_percentiles_and_floors() {
        let mut h = LevelHistogram::default();
        assert_eq!(h.percentile(1.0), 1.0);
        for i in 0..1_000 {
            h.record(i as f64 / 1_000.0 + 0.000_5);
        }
        assert_eq!(h.count(), 1_000);
        assert_eq!(h.percentile(1.0), 0.009);
        assert_eq!(h.percentile(50.0), 0.499);
        assert_eq!(h.at_least(0.95), 50);
        // Lowest 1 % of 0.000..0.999 is 0.000..0.009.
        assert!((h.tail_mean(1.0) - 0.0045).abs() < 1e-12);
        assert!((h.tail_mean(100.0) - 0.4995).abs() < 1e-12);
        assert_eq!(LevelHistogram::default().tail_mean(1.0), 1.0);
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!(twice.count(), 2_000);
        assert_eq!(twice.percentile(50.0), 0.499);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_means_exactly() {
        // Per-request rtt = own + child; the means must subtract to the
        // mean of `own` with no residue.
        let own = [10u64, 20, 30, 40];
        let child = [1u64, 2, 3, 994];
        let rtt: Vec<u64> = own.iter().zip(child).map(|(a, b)| a + b).collect();
        let got =
            self_time_mean(Samples::from_vec(rtt).mean(), Samples::from_vec(child.to_vec()).mean());
        assert_eq!(got, Samples::from_vec(own.to_vec()).mean());
    }
}
