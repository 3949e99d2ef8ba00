//! The replicated object store substrate.
//!
//! IDEA "is assumed to work with a general distributed file system that
//! handles the ordinary read/write operations" (§2); this crate is that
//! substrate. Each node holds a [`Replica`] per shared object: an ordered
//! log of applied [`idea_types::Update`]s, the matching
//! [`idea_vv::ExtendedVersionVector`], the in-place loser invalidation that
//! rolls back what a resolution's reference never sanctioned (§4.5.1), and
//! the transfer helpers resolution uses to ship missing updates. A replica
//! allocates on its first update: until then it reads as one shared empty
//! body, since most replicas of a large deployment never see an update.
//!
//! [`StoreShard`] bundles the replicas of one shard behind the read/write
//! API the protocol calls. A node's objects are partitioned by `ObjectId`
//! hash into independent shards so disjoint objects never contend; a node
//! that never shards holds a single `StoreShard`. IDEA sits on top,
//! consulted on writes and reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod replica;
pub(crate) mod shard;

pub use replica::{ApplyOutcome, Replica};
pub use shard::{Snapshot, SnapshotView, StoreShard};
