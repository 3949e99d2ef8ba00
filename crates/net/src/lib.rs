//! Network substrate for the IDEA reproduction.
//!
//! The paper evaluated IDEA on PlanetLab (40 nodes spanning the US and
//! Canada). This crate replaces that testbed with two interchangeable
//! engines driving the *same* protocol code:
//!
//! * [`sim::SimEngine`] — a deterministic discrete-event simulator in virtual
//!   time. All figures and tables of the paper are regenerated on it; a
//!   seed fully determines a run.
//! * [`threaded::ShardedEngine`] — OS threads (one worker per node and
//!   state shard), `std::sync::mpsc` channels for links, and the same
//!   latency model in wall-clock time: a sender stamps each message with
//!   its due time and the receiving worker holds it until then. This is
//!   the engine a served deployment runs on; examples and integration
//!   tests also use it to demonstrate the protocol under real concurrency.
//!
//! Protocol logic implements [`Proto`] and interacts with the world only
//! through [`Context`] (time, identity, sends, timers, RNG), which is what
//! makes the two engines interchangeable.
//!
//! [`topology::Topology`] captures the WAN shape (per-pair one-way delays);
//! `latency::LatencyModel` adds per-message jitter; [`stats::NetStats`]
//! counts messages and bytes per protocol class — the quantity Table 3 of
//! the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod latency;
pub(crate) mod proto;
pub(crate) mod sim;
pub(crate) mod stats;
pub(crate) mod threaded;
pub(crate) mod topology;

pub use proto::{Context, Proto, ShardedProto, TimerId, Wire};
pub use sim::{Quiescence, SimConfig, SimEngine};
pub use stats::{MsgClass, NetStats, StatsSnapshot};
pub use threaded::{ShardedEngine, ThreadedConfig};
pub use topology::{Region, Topology};
