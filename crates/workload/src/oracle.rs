//! The cross-protocol consistency oracle.
//!
//! IDEA estimates its own level from detection rounds; the baselines don't
//! estimate anything. For the Figure-2 trade-off study every protocol must
//! be judged by the *same* yardstick, so the harness keeps a global view of
//! every update ever issued and scores each replica's extended version
//! vector against it with the same Formula-1 quantifier.

use idea_core::Quantifier;
#[cfg(test)]
use idea_types::ConsistencyLevel;
use idea_types::Update;
use idea_vv::ExtendedVersionVector;

/// Global union state built from every issued update.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConsistencyOracle {
    union: ExtendedVersionVector,
    quant: Quantifier,
}

impl ConsistencyOracle {
    /// An oracle with the default quantifier.
    pub(crate) fn new(quant: Quantifier) -> Self {
        ConsistencyOracle { union: ExtendedVersionVector::new(), quant }
    }

    /// Records an issued update (replays — e.g. reissued sequence numbers
    /// after invalidation — are ignored, keeping the union well-formed).
    pub(crate) fn record(&mut self, update: &Update) {
        self.union.record(update.writer(), update.seq(), update.at, update.meta_delta);
    }

    /// Total updates recorded.
    #[cfg(test)]
    pub(crate) fn total(&self) -> u64 {
        self.union.total()
    }

    /// Scores a replica's vector against the union state.
    #[cfg(test)]
    pub(crate) fn level_of(&self, replica: &ExtendedVersionVector) -> ConsistencyLevel {
        self.quant.level(&replica.triple_against(&self.union))
    }

    /// Mean level over several replicas.
    #[cfg(test)]
    pub(crate) fn mean_level(&self, replicas: &[&ExtendedVersionVector]) -> f64 {
        if replicas.is_empty() {
            return 1.0;
        }
        replicas.iter().map(|r| self.level_of(r).value()).sum::<f64>() / replicas.len() as f64
    }

    /// Mean *mutual* consistency: every replica scored against the replica
    /// of the highest node id (IDEA's reference rule of §4.4.1, applied
    /// uniformly so the metric is protocol-agnostic). Unlike the vs-union
    /// score, this does not penalise protocols whose *resolution* discards
    /// conflicting updates — mutual agreement is what consistency means in
    /// the paper.
    pub(crate) fn mutual_mean_level(&self, replicas_by_id: &[&ExtendedVersionVector]) -> f64 {
        let Some(reference) = replicas_by_id.last() else {
            return 1.0;
        };
        let sum: f64 = replicas_by_id.iter().map(|r| self.quant_level(r, reference)).sum();
        sum / replicas_by_id.len() as f64
    }

    fn quant_level(
        &self,
        replica: &ExtendedVersionVector,
        reference: &ExtendedVersionVector,
    ) -> f64 {
        self.quant.level(&replica.triple_against(reference)).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::{ObjectId, SimTime, WriterId};

    fn upd(w: u32, seq: u64, at: u64, delta: i64) -> Update {
        Update::opaque(ObjectId(0), WriterId(w), seq, SimTime::from_secs(at), delta)
    }

    #[test]
    fn replica_with_everything_scores_perfect() {
        let mut oracle = ConsistencyOracle::new(Quantifier::default());
        let mut evv = ExtendedVersionVector::new();
        for (w, s, t) in [(0, 1, 1), (1, 1, 2), (0, 2, 3)] {
            let u = upd(w, s, t, 1);
            oracle.record(&u);
            evv.record(u.writer(), u.seq(), u.at, u.meta_delta);
        }
        assert_eq!(oracle.level_of(&evv), ConsistencyLevel::PERFECT);
        assert_eq!(oracle.total(), 3);
    }

    #[test]
    fn missing_updates_lower_the_score() {
        let mut oracle = ConsistencyOracle::new(Quantifier::default());
        let mut evv = ExtendedVersionVector::new();
        let u1 = upd(0, 1, 1, 1);
        oracle.record(&u1);
        evv.record(u1.writer(), u1.seq(), u1.at, u1.meta_delta);
        oracle.record(&upd(1, 1, 60, 10)); // replica never sees this
        let level = oracle.level_of(&evv);
        assert!(level < ConsistencyLevel::PERFECT);
    }

    #[test]
    fn replayed_records_are_ignored() {
        let mut oracle = ConsistencyOracle::new(Quantifier::default());
        oracle.record(&upd(0, 1, 1, 5));
        oracle.record(&upd(0, 1, 9, 5)); // reissued seq after invalidation
        assert_eq!(oracle.total(), 1);
    }

    #[test]
    fn mean_level_averages() {
        let mut oracle = ConsistencyOracle::new(Quantifier::default());
        let u = upd(0, 1, 1, 1);
        oracle.record(&u);
        let mut full = ExtendedVersionVector::new();
        full.record(u.writer(), u.seq(), u.at, u.meta_delta);
        let empty = ExtendedVersionVector::new();
        let mean = oracle.mean_level(&[&full, &empty]);
        let lone = oracle.level_of(&empty).value();
        assert!((mean - (1.0 + lone) / 2.0).abs() < 1e-12);
        assert_eq!(oracle.mean_level(&[]), 1.0);
    }
}
