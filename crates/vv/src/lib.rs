//! Version vectors for the IDEA reproduction.
//!
//! Inconsistency in IDEA is "detected through exchanging version vectors
//! among replicas" (§4.3, after Parker et al. 1983). This crate provides:
//!
//! * [`VersionVector`] — the classic per-writer counters with their partial
//!   order ([`VvOrdering`]) and merge, stored as one flat run of
//!   `(writer, count)` pairs sorted by writer: lookups binary-search it,
//!   two-vector operations walk both runs in lock-step, and a writer joining
//!   a vector costs one O(W) insert (see [`classic`]);
//! * [`ExtendedVersionVector`] — the paper's extension (§4.4.1, Figure 5):
//!   per-update timestamps, a critical-metadata value, and computation of the
//!   TACT `<numerical error, order error, staleness>` triple against a chosen
//!   *reference consistent state*;
//! * [`VvSummary`] / [`VvDelta`] — compact wire forms (counters + metadata +
//!   bounded/exact per-writer timestamp suffixes) so detection traffic never
//!   ships full update histories.
//!
//! Each form implements the shared binary [`idea_types::codec::Codec`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod boundary_tests;
pub mod classic;
mod codec;
pub mod extended;
mod history;
#[cfg(test)]
mod reference;
pub mod wire;

pub use classic::{VersionVector, VvOrdering};
pub use extended::ExtendedVersionVector;
pub use wire::{Suffixes, VvDelta, VvSummary, WriterSuffix};
