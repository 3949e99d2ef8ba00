//! The two-layer infrastructure of IDEA (§4.1).
//!
//! For each shared object, IDEA splits the network into a small **top layer**
//! ("temperature overlay") of nodes that update the object frequently and/or
//! recently, and a **bottom layer** containing everyone else:
//!
//! * [`temperature`] implements the updating-"temperature" score
//!   (exponentially decayed update rate) and the per-object top-layer
//!   membership with join/leave hysteresis. The paper builds this overlay
//!   "by leveraging RanSub"; here a node learns hot writers transitively
//!   from write-path announces and the counters piggybacked on detection
//!   digests (`idea-core`'s write path), so no separate random-subset
//!   protocol runs.
//! * [`gossip`] implements the lightweight probabilistic broadcast
//!   (lpbcast, Eugster et al., DSN 2001) used for TTL-bounded background
//!   detection in the bottom layer (§4.3, §4.4.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gossip;
pub mod temperature;

pub use gossip::{GossipConfig, GossipRouter, Peers, Receipt, RelayPlan, RumorId};
pub use temperature::{TopLayer, TopLayerConfig};
