//! Workload generation, experiment runners and report emitters.
//!
//! This crate is the bridge between the IDEA library and the paper's
//! evaluation (§6): it wires applications onto the simulator, replays the
//! paper's synthetic workloads ("uniform distribution of the updating
//! frequency", four concurrent writers updating every 5 seconds), samples
//! the metrics the paper reports (delay, consistency level, message
//! overhead), and renders them as tables, CSV and ASCII charts.
//!
//! One module per experiment lives under [`experiments`]; the
//! `idea-bench` binaries are thin wrappers over those functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod baselines;
pub(crate) mod coverage;
pub mod experiments;
pub(crate) mod oracle;
pub(crate) mod report;
pub mod runner;
