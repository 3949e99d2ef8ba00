//! The inconsistency detection framework (IDF) of the paper's §4.3,
//! originally presented in the authors' refs [14, 15].
//!
//! The framework's job is a single powerful API: `detect(update)` — "given
//! an update, this operation will return *success* when there is no
//! inconsistency or *fail* when there is conflict (thus inconsistency)
//! detected". Detection compares version vectors; the pairwise test runs
//! inside each round rather than as a call of its own:
//!
//! * [`round`] — the fast path: on every update the issuer exchanges
//!   extended version vectors with its **top-layer** peers and aggregates a
//!   [`round::DetectReport`] with the per-replica TACT triples;
//! * [`bottom`] — the background path: TTL-bounded gossip sweeps the
//!   **bottom layer** to catch what the top layer missed, feeding the
//!   rollback decision of §4.4.2;
//! * [`coverage`] — the analytic model of the authors' ref \[16\] predicting
//!   the probability that the top layer catches an inconsistency (the basis
//!   of the ">95 % in a variety of scenarios" claim).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottom;
pub mod coverage;
pub mod round;

pub use bottom::{BottomReport, SweepCollector};
pub use coverage::top_layer_catch_probability;
pub use round::{DetectReport, DetectRound};
