//! Deterministic fault-injection harness over the simulated engine.
//!
//! The paper's claims (§5, §6) are about behaviour *under* divergence:
//! what the detection plane sees, how resolution reconverges, what the
//! application-level damage is. This crate turns those conditions into
//! first-class, replayable values:
//!
//! * `schedule` — the scenario DSL: a [`Scenario`] is a seeded list of
//!   typed [`FaultEvent`]s (partitions, per-link loss, reordering,
//!   duplication, crashes with WAL-replay recovery, clock skew) pinned to
//!   virtual times, interleaved with application work.
//! * `runner` — executes a scenario against a fleet, swapping crashed
//!   nodes for WAL-recovered replacements, checking fleet invariants
//!   after every event, and driving a healing epilogue to convergence.
//! * `oracle` — protocol-level oracles: state-hash convergence.
//! * `fleet` — canonical booking deployments ([`BookingFleetSpec`])
//!   whose construction is a pure function of the spec, so any schedule
//!   replays bit-identically.
//! * [`scenarios`] — the curated named suite: split-brain write race,
//!   flapping link, crash-during-resolution, skewed-clock sweep.
//! * `explorer` — delta-debugging shrinker reducing a failing schedule
//!   to a 1-minimal reproducer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod explorer;
pub(crate) mod fleet;
pub(crate) mod oracle;
pub(crate) mod runner;
pub mod scenarios;
pub(crate) mod schedule;

pub use explorer::minimize;
pub use fleet::{BookingFleetSpec, BOOKING_OBJ, FLIGHT};
pub use runner::{FaultHost, FaultRunner, RunReport, TraceStep};
pub use scenarios::named_suite;
pub use schedule::{FaultEvent, Scenario, Scheduled, WorkOp};
