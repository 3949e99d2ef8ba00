//! The two-layer infrastructure of IDEA (§4.1).
//!
//! For each shared object, IDEA splits the network into a small **top layer**
//! ("temperature overlay") of nodes that update the object frequently and/or
//! recently, and a **bottom layer** containing everyone else:
//!
//! * [`ransub`] implements the RanSub protocol (Kostić et al., USITS 2003)
//!   the paper leverages to construct the overlay: every round, each node
//!   receives a uniform random subset of the whole membership, from which it
//!   discovers current hot writers.
//! * [`temperature`] implements the updating-"temperature" score
//!   (exponentially decayed update rate) and the per-object top-layer
//!   membership with join/leave hysteresis.
//! * [`gossip`] implements the lightweight probabilistic broadcast
//!   (lpbcast, Eugster et al., DSN 2001) used for TTL-bounded background
//!   detection in the bottom layer (§4.3, §4.4.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gossip;
pub mod ransub;
pub mod temperature;

pub use gossip::{GossipConfig, GossipMode, GossipRouter, Receipt, RelayPlan, RumorId};
pub use ransub::{RansubConfig, RansubTree};
pub use temperature::{TopLayerConfig, TwoLayer};
