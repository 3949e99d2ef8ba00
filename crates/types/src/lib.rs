//! Core identifiers, virtual time, updates and shared value types for the
//! IDEA reproduction.
//!
//! Every other crate in the workspace builds on these definitions. The types
//! are deliberately small, `Copy` where possible, and deterministic in their
//! `Ord`/`Hash` behaviour so that simulation runs are reproducible.
//!
//! The paper ("IDEA: An Infrastructure for Detection-based Adaptive
//! Consistency Control in Replicated Services", Lu, Lu & Jiang, HPDC 2007)
//! works in terms of *nodes* holding *replicas* of shared *objects* (files),
//! mutated by *writers* (users). [`NodeId`], [`ObjectId`], [`WriterId`] and
//! [`Update`] mirror that vocabulary directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub(crate) mod error;
pub(crate) mod hash;
pub(crate) mod ids;
pub(crate) mod level;
pub(crate) mod shard;
pub(crate) mod size;
pub(crate) mod table;
pub(crate) mod time;
pub(crate) mod update;

pub use error::{IdeaError, WireError};
pub use hash::{mix64, FastMap, FastSet, FoldHasher};
pub use ids::{NodeId, ObjectId, WriterId};
pub use level::{ConsistencyLevel, ErrorTriple};
pub use shard::{shard_hash, ShardId};
pub use size::MessageSizeModel;
pub use table::ObjectTable;
pub use time::{SimDuration, SimTime};
pub use update::{Update, UpdateId, UpdatePayload};

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, IdeaError>;

/// Locks `m`, recovering the guard if a panicking holder poisoned it.
///
/// Recovery is sound because no lock in the tree guards state that a panic
/// can leave half-written: each critical section pushes, takes, swaps or
/// inserts one value, or makes one call on the guarded value, which a panic
/// leaves no worse than the same call made without a lock. Recovering keeps
/// one panicking request from turning every later request on that lock
/// into a second panic. This is the one way to lock a `Mutex` under
/// `crates/`: `clippy.toml` rejects a direct `Mutex::lock`.
#[allow(clippy::disallowed_methods)]
pub fn lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
