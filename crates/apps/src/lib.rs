//! The paper's two emulated applications (§3, §5).
//!
//! * `whiteboard` — a distributed white board: synchronous collaboration,
//!   order-error-dominated consistency semantics, on-demand/hint-based
//!   adaptation via direct user interaction.
//! * `booking` — an airline ticket booking system: asynchronous
//!   e-business workload, numerical-error (total sale) semantics,
//!   fully-automatic background-resolution control balancing overselling
//!   against underselling.
//!
//! Both applications wrap an [`idea_core::IdeaNode`] and *delegate* the
//! [`idea_net::Proto`] implementation to it, so they run unchanged on the
//! simulator and on the threaded engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod booking;
pub(crate) mod invariant;
pub(crate) mod whiteboard;

pub use booking::{BookOutcome, BookingServer};
pub use invariant::{FleetInvariant, NoOverbooking};
pub use whiteboard::{ascii_sum, Stroke, WhiteboardClient};
