//! Convergence oracles over a fleet.
//!
//! The fault runner delegates *application* predicates to
//! [`idea_apps::FleetInvariant`] checkers; this module holds the
//! protocol-level oracles that apply to any [`crate::FaultHost`] fleet:
//! state-hash convergence.

use idea_types::SimTime;

/// One observed invariant violation, timestamped in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// When the violation was observed.
    pub(crate) at: SimTime,
    /// Which invariant broke (its stable `name()`).
    pub(crate) invariant: String,
    /// Human-readable description, actionable on its own.
    pub(crate) detail: String,
}

/// True when every node reports the same state hash (vacuously true for
/// an empty fleet).
pub(crate) fn converged(hashes: &[u64]) -> bool {
    hashes.windows(2).all(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_is_hash_equality() {
        assert!(converged(&[]));
        assert!(converged(&[7]));
        assert!(converged(&[7, 7, 7]));
        assert!(!converged(&[7, 7, 8]));
    }
}
