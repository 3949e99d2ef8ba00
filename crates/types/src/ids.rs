//! Identifier newtypes for nodes, writers and shared objects.
//!
//! All identifiers are plain integers wrapped in newtypes: comparisons are
//! total, hashing is trivial, and the "higher ID wins" resolution policy of
//! the paper (§4.5.1) maps onto the derived `Ord`.

use std::fmt;

/// Identity of a participating node (a machine holding replicas).
///
/// In the paper's PlanetLab deployment every node is a physical host; in this
/// reproduction a node is a simulated process driven by one of the engines in
/// `idea-net`. The paper's *user-ID based* resolution policy assigns each
/// node "a randomly chosen ID, such as the hash value of their IP address";
/// here IDs are dense integers and the random assignment is done by the
/// topology builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw index, useful for indexing dense per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identity of a writer (a user issuing updates).
///
/// The paper's extended version vectors are keyed by writer (user A, user B
/// in the worked example of §4.4.1). A writer usually *resides* on a node;
/// the mapping is maintained by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WriterId(pub u32);

impl fmt::Display for WriterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl From<u32> for WriterId {
    fn from(v: u32) -> Self {
        WriterId(v)
    }
}

/// Identity of a shared, replicated object (a "file" in the paper).
///
/// Consistency, the top/bottom-layer split and resolution are all *per
/// object* (§4.1: "different files may have different top layers — and
/// different top layers do not interfere with one another").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FastSet;

    #[test]
    fn node_id_ordering_is_numeric() {
        assert!(NodeId(3) < NodeId(10));
        assert!(NodeId(10) > NodeId(3));
        assert_eq!(NodeId(7), NodeId(7));
    }

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(WriterId(2).to_string(), "w2");
        assert_eq!(ObjectId(9).to_string(), "obj9");
    }

    #[test]
    fn ids_hash_distinctly() {
        let set: FastSet<NodeId> = (0..100).map(NodeId).collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(NodeId(42).index(), 42);
        assert_eq!(ObjectId(11).index(), 11);
    }

    #[test]
    fn from_impls() {
        assert_eq!(NodeId::from(5u32), NodeId(5));
        assert_eq!(WriterId::from(5u32), WriterId(5));
        assert_eq!(ObjectId::from(5u64), ObjectId(5));
    }
}
