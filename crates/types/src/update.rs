//! Updates: the unit of mutation on a replicated object.
//!
//! Every write issued by an application becomes an [`Update`]. Updates carry
//! the writer identity and a per-writer sequence number (together the unique
//! [`UpdateId`]), the issue timestamp used for staleness accounting, and a
//! signed *metadata delta* feeding the paper's "critical meta-data" column of
//! the extended version vector (§4.4.1): the ASCII sum of recent strokes for
//! the white board, the sale price for the booking system.

use crate::ids::{ObjectId, WriterId};
use crate::time::SimTime;
use bytes::Bytes;
use std::fmt;

/// Globally unique identity of an update: writer plus per-writer sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UpdateId {
    /// The writer that issued the update.
    pub writer: WriterId,
    /// Per-writer sequence number, starting at 1 (matching the version-vector
    /// counter: an update with `seq == k` is the writer's k-th update).
    pub seq: u64,
}

impl fmt::Display for UpdateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.writer, self.seq)
    }
}

/// Application payload carried by an update.
///
/// IDEA itself treats payloads as opaque; applications encode what they need.
/// The two emulated applications of the paper are given dedicated variants so
/// examples and tests stay readable without an extra codec layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UpdatePayload {
    /// Raw bytes, for applications outside the two emulated ones.
    Opaque(Bytes),
    /// A white-board stroke: freehand text drawn at a board position.
    Stroke {
        /// Horizontal board coordinate.
        x: u16,
        /// Vertical board coordinate.
        y: u16,
        /// The drawn text (its ASCII sum contributes to the metadata value).
        text: String,
    },
    /// An airline booking: seats sold at a price (in cents).
    Booking {
        /// Flight identifier within the booking system.
        flight: u32,
        /// Number of seats sold by this booking.
        seats: u32,
        /// Total price of the booking, in cents; feeds the metadata value.
        price_cents: i64,
    },
}

impl UpdatePayload {
    /// An empty opaque payload — convenient for metadata-only updates and
    /// synthetic workloads.
    pub fn none() -> Self {
        UpdatePayload::Opaque(Bytes::new())
    }

    /// Approximate wire size of the payload in bytes.
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            UpdatePayload::Opaque(b) => b.len(),
            UpdatePayload::Stroke { text, .. } => 4 + text.len(),
            UpdatePayload::Booking { .. } => 16,
        }
    }
}

/// A single write operation on a replicated object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Update {
    /// The shared object being mutated.
    pub object: ObjectId,
    /// Unique identity (writer + per-writer sequence).
    pub id: UpdateId,
    /// Virtual timestamp at which the writer issued the update. The paper
    /// assumes clocks disciplined to within seconds (§4.4.1); the simulator
    /// models the residual skew per node (`SimEngine::set_clock_skew`).
    pub at: SimTime,
    /// Signed change to the object's critical metadata value.
    pub meta_delta: i64,
    /// Application payload.
    pub payload: UpdatePayload,
}

impl Update {
    /// Convenience constructor for an opaque-payload update.
    pub fn opaque(
        object: ObjectId,
        writer: WriterId,
        seq: u64,
        at: SimTime,
        meta_delta: i64,
    ) -> Self {
        Update {
            object,
            id: UpdateId { writer, seq },
            at,
            meta_delta,
            payload: UpdatePayload::Opaque(Bytes::new()),
        }
    }

    /// The writer that issued this update.
    #[inline]
    pub fn writer(&self) -> WriterId {
        self.id.writer
    }

    /// The per-writer sequence number.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.id.seq
    }

    /// Approximate wire size of the whole update (header + payload).
    pub fn wire_size(&self) -> usize {
        // object(8) + writer(4) + seq(8) + time(8) + delta(8)
        36 + self.payload.wire_size()
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}[{}]", self.id, self.object, self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(writer: u32, seq: u64, at_us: u64) -> Update {
        Update::opaque(ObjectId(1), WriterId(writer), seq, SimTime(at_us), 1)
    }

    #[test]
    fn update_id_display() {
        let u = upd(3, 7, 100);
        assert_eq!(u.id.to_string(), "w3#7");
    }

    #[test]
    fn wire_size_accounts_for_payload() {
        let base = upd(1, 1, 0).wire_size();
        let stroke = Update {
            payload: UpdatePayload::Stroke { x: 1, y: 2, text: "hello".into() },
            ..upd(1, 1, 0)
        };
        assert_eq!(stroke.wire_size(), base + 4 + 5);
        let booking = Update {
            payload: UpdatePayload::Booking { flight: 9, seats: 2, price_cents: 45_000 },
            ..upd(1, 1, 0)
        };
        assert_eq!(booking.wire_size(), base + 16);
    }

    #[test]
    fn accessors() {
        let u = upd(5, 9, 10);
        assert_eq!(u.writer(), WriterId(5));
        assert_eq!(u.seq(), 9);
    }
}
