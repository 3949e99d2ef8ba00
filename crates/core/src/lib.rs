//! IDEA — the Infrastructure for DEtection-based Adaptive consistency
//! control (the paper's primary contribution).
//!
//! IDEA sits between replicated applications and the object store, and
//! instead of enforcing a predefined consistency level it:
//!
//! 1. **detects** inconsistency when it arises — fast among the top-layer
//!    hot writers, exhaustively (in the background) over the bottom layer;
//! 2. **quantifies** it with the TACT triple collapsed to a single level
//!    ([`quantify`], Formula 1);
//! 3. **resolves** it only when the application's *current* requirement
//!    demands ([`resolution`]): on explicit user demand (active, two-phase)
//!    or periodically (background);
//! 4. **adapts** the requirement itself from user feedback ([`adapt`]):
//!    hint floors that learn upward, or the fully-automatic frequency
//!    controller with under/oversell bounds and the Formula-4 rate cap.
//!
//! [`protocol::IdeaNode`] wires all of it into one [`idea_net::Proto`] state
//! machine; [`client`] exposes the typed application surface (sessions,
//! commands, consistency-aware reads) over every engine, with the paper's
//! Table-1 developer interface as one validated [`ConsistencySpec`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod client;
mod codec;
pub mod config;
pub mod messages;
pub mod protocol;
pub mod quantify;
pub mod resolution;

pub use adapt::{AutoController, HintController};
pub use client::{
    apply_to_node, apply_to_shard, Command, CommandError, CommandExecutor, ConsistencySpec,
    EngineHandle, IdeaHost, LockedEngine, ObjectHandle, ReadConsistency, ReadResult, ReplyFn,
    Response, Session,
};
pub use config::IdeaConfig;
pub use idea_wal::{DurabilityConfig, DurabilityMode};
pub use messages::IdeaMsg;
pub use protocol::{GossipFootprint, IdeaNode, NodeReport};
pub use quantify::{MaxBounds, Quantifier, Weights};
pub use resolution::{ReferenceState, ResolutionPolicy, ResolutionRecord};
