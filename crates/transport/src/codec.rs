//! The binary codec for the service API's wire types.
//!
//! Every type that crosses the TCP boundary implements [`WireCodec`]: a
//! deterministic little-endian binary form with length-prefixed strings,
//! byte buffers and sequences, and one-byte tags for enum variants. The
//! encoding is the runtime realisation of the `serde` annotations the wire
//! types already carry — the offline `serde` stand-in cannot drive
//! serialization (see `vendor/README.md`), so the adapter is hand-written
//! against the same field layout the derives describe. Round-trip equality
//! over every [`Command`]/[`Response`] variant is property-tested in
//! `tests/codec_roundtrip.rs`.
//!
//! Decoding is strict: unknown enum tags, out-of-domain values (a
//! resolution-policy code outside 1..=3, a non-finite weight) and trailing
//! bytes are [`CodecError`]s, which the transport surfaces as
//! [`WireError::Protocol`] — a malformed peer can reject a command, never
//! corrupt an engine.

use bytes::Bytes;
use idea_core::client::{BackgroundFreq, ReadConsistency};
use idea_core::quantify::{MaxBounds, Weights};
use idea_core::resolution::{ReferenceState, ReferenceWire, ResolutionPolicy};
use idea_core::{Command, ConsistencySpec, NodeReport, ReadResult, Response};
use idea_types::{
    ConsistencyLevel, NodeId, ObjectId, SimDuration, SimTime, Update, UpdateId, UpdatePayload,
    WireError, WriterId,
};
use idea_vv::{VersionVector, VvDelta, VvSummary, WriterSuffix};
use std::fmt;

/// A decode failure: where in the buffer and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset the decoder had reached.
    pub at: usize,
    /// What was malformed.
    pub what: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Protocol(e.to_string())
    }
}

/// Cursor over a received buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn err(&self, what: &'static str) -> CodecError {
        CodecError { at: self.pos, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(self.err("unexpected end of payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Fails unless every byte was consumed — a frame must contain exactly
    /// one value.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError { at: self.pos, what: "trailing bytes after payload" });
        }
        Ok(())
    }
}

/// Deterministic binary encoding for one wire type.
pub trait WireCodec: Sized {
    /// Appends the encoded form to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    /// Fails on truncation, unknown tags or out-of-domain values.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must span the whole buffer.
    ///
    /// # Errors
    /// Fails on any decode error or trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

// ====================================================================
// Primitives
// ====================================================================

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl WireCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i64);

impl WireCodec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl WireCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.err("bool out of domain")),
        }
    }
}

impl WireCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::decode(r)?).map_err(|_| r.err("length exceeds platform usize"))
    }
}

/// Sequence lengths are bounded so a malformed frame cannot trigger a huge
/// pre-allocation; real payloads (top-member lists, strings) are far
/// smaller than the frame cap anyway.
fn decode_len(r: &mut WireReader<'_>) -> Result<usize, CodecError> {
    let len = usize::decode(r)?;
    if len > r.remaining() {
        return Err(r.err("length prefix exceeds payload"));
    }
    Ok(len)
}

impl WireCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| r.err("string is not UTF-8"))
    }
}

impl WireCodec for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        Ok(Bytes::from(r.take(len)?.to_vec()))
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(r.err("Option tag out of domain")),
        }
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

// ====================================================================
// Identifier / time / level newtypes
// ====================================================================

macro_rules! newtype_codec {
    ($($t:ident($inner:ty)),*) => {$(
        impl WireCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
                Ok($t(<$inner>::decode(r)?))
            }
        }
    )*};
}

newtype_codec!(NodeId(u32), WriterId(u32), ObjectId(u64), SimTime(u64), SimDuration(u64));

impl WireCodec for ConsistencyLevel {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let v = f64::decode(r)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(r.err("consistency level outside [0, 1]"));
        }
        Ok(ConsistencyLevel::new(v))
    }
}

impl WireCodec for UpdateId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.writer.encode(out);
        self.seq.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(UpdateId { writer: WriterId::decode(r)?, seq: u64::decode(r)? })
    }
}

impl WireCodec for UpdatePayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            UpdatePayload::Opaque(bytes) => {
                out.push(0);
                bytes.encode(out);
            }
            UpdatePayload::Stroke { x, y, text } => {
                out.push(1);
                x.encode(out);
                y.encode(out);
                text.encode(out);
            }
            UpdatePayload::Booking { flight, seats, price_cents } => {
                out.push(2);
                flight.encode(out);
                seats.encode(out);
                price_cents.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(UpdatePayload::Opaque(Bytes::decode(r)?)),
            1 => Ok(UpdatePayload::Stroke {
                x: u16::decode(r)?,
                y: u16::decode(r)?,
                text: String::decode(r)?,
            }),
            2 => Ok(UpdatePayload::Booking {
                flight: u32::decode(r)?,
                seats: u32::decode(r)?,
                price_cents: i64::decode(r)?,
            }),
            _ => Err(r.err("UpdatePayload tag out of domain")),
        }
    }
}

impl WireCodec for Update {
    fn encode(&self, out: &mut Vec<u8>) {
        self.object.encode(out);
        self.id.encode(out);
        self.at.encode(out);
        self.meta_delta.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(Update {
            object: ObjectId::decode(r)?,
            id: UpdateId::decode(r)?,
            at: SimTime::decode(r)?,
            meta_delta: i64::decode(r)?,
            payload: UpdatePayload::decode(r)?,
        })
    }
}

// ====================================================================
// Resolution-plane vector forms
// ====================================================================

/// A version vector is a run of `(writer, counter)` pairs, strictly
/// ascending by writer. Zero counters are elided and writers are unique by
/// construction ([`VersionVector`] stores neither), so a zero, a repeated
/// writer or a writer out of order on the wire is a malformed frame, not a
/// representable value — rejecting them keeps encode/decode a bijection.
/// A well-formed run becomes the vector's storage as it stands.
impl WireCodec for VersionVector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.writers().encode(out);
        for (w, c) in self.iter() {
            w.encode(out);
            c.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let mut pairs = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            let w = WriterId::decode(r)?;
            let c = u64::decode(r)?;
            if c == 0 {
                return Err(r.err("zero counter in version vector"));
            }
            if pairs.last().is_some_and(|&(prev, _)| prev >= w) {
                return Err(r.err("version vector writers not strictly ascending"));
            }
            pairs.push((w, c));
        }
        Ok(VersionVector::from_pairs(pairs))
    }
}

impl WireCodec for WriterSuffix {
    fn encode(&self, out: &mut Vec<u8>) {
        self.writer.encode(out);
        self.start_seq.encode(out);
        self.times.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(WriterSuffix {
            writer: WriterId::decode(r)?,
            start_seq: u64::decode(r)?,
            times: Vec::<SimTime>::decode(r)?,
        })
    }
}

impl WireCodec for VvSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.counters.encode(out);
        self.meta.encode(out);
        self.latest.encode(out);
        self.tail.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(VvSummary {
            counters: VersionVector::decode(r)?,
            meta: i64::decode(r)?,
            latest: Option::<SimTime>::decode(r)?,
            tail: Vec::<WriterSuffix>::decode(r)?,
        })
    }
}

impl WireCodec for VvDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.counters.encode(out);
        self.meta.encode(out);
        self.latest.encode(out);
        self.suffixes.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(VvDelta {
            counters: VersionVector::decode(r)?,
            meta: i64::decode(r)?,
            latest: Option::<SimTime>::decode(r)?,
            suffixes: Vec::<WriterSuffix>::decode(r)?,
        })
    }
}

impl WireCodec for ReferenceState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.winner.encode(out);
        self.counts.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(ReferenceState {
            winner: Option::<NodeId>::decode(r)?,
            counts: VersionVector::decode(r)?,
        })
    }
}

impl WireCodec for ReferenceWire {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReferenceWire::Full(reference) => {
                out.push(0);
                reference.encode(out);
            }
            ReferenceWire::Delta { winner, diffs } => {
                out.push(1);
                winner.encode(out);
                diffs.len().encode(out);
                for (w, c) in diffs {
                    w.encode(out);
                    // Unlike a vector entry, a zero *override* is
                    // meaningful: it erases the writer from the base.
                    c.encode(out);
                }
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(ReferenceWire::Full(ReferenceState::decode(r)?)),
            1 => {
                let winner = Option::<NodeId>::decode(r)?;
                let len = decode_len(r)?;
                let mut diffs = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    diffs.push((WriterId::decode(r)?, u64::decode(r)?));
                }
                Ok(ReferenceWire::Delta { winner, diffs })
            }
            _ => Err(r.err("ReferenceWire tag out of domain")),
        }
    }
}

// ====================================================================
// Client-layer configuration types
// ====================================================================

impl WireCodec for ReadConsistency {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReadConsistency::Any => out.push(0),
            ReadConsistency::AtLeast(level) => {
                out.push(1);
                level.encode(out);
            }
            ReadConsistency::Fresh => out.push(2),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(ReadConsistency::Any),
            1 => Ok(ReadConsistency::AtLeast(ConsistencyLevel::decode(r)?)),
            2 => Ok(ReadConsistency::Fresh),
            _ => Err(r.err("ReadConsistency tag out of domain")),
        }
    }
}

impl WireCodec for MaxBounds {
    fn encode(&self, out: &mut Vec<u8>) {
        self.numerical.encode(out);
        self.order.encode(out);
        self.staleness.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(MaxBounds {
            numerical: f64::decode(r)?,
            order: f64::decode(r)?,
            staleness: SimDuration::decode(r)?,
        })
    }
}

impl WireCodec for Weights {
    fn encode(&self, out: &mut Vec<u8>) {
        self.numerical.encode(out);
        self.order.encode(out);
        self.staleness.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(Weights {
            numerical: f64::decode(r)?,
            order: f64::decode(r)?,
            staleness: f64::decode(r)?,
        })
    }
}

impl WireCodec for ResolutionPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.code().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let code = u8::decode(r)?;
        ResolutionPolicy::from_code(code)
            .ok_or_else(|| r.err("resolution policy code out of domain"))
    }
}

impl WireCodec for BackgroundFreq {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BackgroundFreq::Disabled => out.push(0),
            BackgroundFreq::Every(period) => {
                out.push(1);
                period.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(BackgroundFreq::Disabled),
            1 => Ok(BackgroundFreq::Every(SimDuration::decode(r)?)),
            _ => Err(r.err("BackgroundFreq tag out of domain")),
        }
    }
}

impl WireCodec for ConsistencySpec {
    fn encode(&self, out: &mut Vec<u8>) {
        let (bounds, weights, policy, hint, background) = self.parts();
        bounds.encode(out);
        weights.encode(out);
        policy.encode(out);
        hint.encode(out);
        background.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let bounds = Option::<MaxBounds>::decode(r)?;
        let weights = Option::<Weights>::decode(r)?;
        let policy = Option::<ResolutionPolicy>::decode(r)?;
        let hint = Option::<f64>::decode(r)?;
        let background = Option::<BackgroundFreq>::decode(r)?;
        ConsistencySpec::from_parts(bounds, weights, policy, hint, background)
            .map_err(|_| r.err("consistency spec fields out of domain"))
    }
}

// ====================================================================
// Command / Response
// ====================================================================

impl WireCodec for Command {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Command::Write { object, meta_delta, payload } => {
                out.push(0);
                object.encode(out);
                meta_delta.encode(out);
                payload.encode(out);
            }
            Command::Read { object, consistency } => {
                out.push(1);
                object.encode(out);
                consistency.encode(out);
            }
            Command::Peek { object } => {
                out.push(2);
                object.encode(out);
            }
            Command::Level { object } => {
                out.push(3);
                object.encode(out);
            }
            Command::Report { object } => {
                out.push(4);
                object.encode(out);
            }
            Command::DemandResolution { object } => {
                out.push(5);
                object.encode(out);
            }
            Command::Dissatisfied { object, new_weights } => {
                out.push(6);
                object.encode(out);
                new_weights.encode(out);
            }
            Command::SetConsistencyMetric { numerical_max, order_max, staleness_max } => {
                out.push(7);
                numerical_max.encode(out);
                order_max.encode(out);
                staleness_max.encode(out);
            }
            Command::SetWeight { numerical, order, staleness } => {
                out.push(8);
                numerical.encode(out);
                order.encode(out);
                staleness.encode(out);
            }
            Command::SetResolution { code } => {
                out.push(9);
                code.encode(out);
            }
            Command::SetHint { hint } => {
                out.push(10);
                hint.encode(out);
            }
            Command::SetBackgroundFreq { period } => {
                out.push(11);
                period.encode(out);
            }
            Command::SetPriority { node, priority } => {
                out.push(12);
                node.encode(out);
                priority.encode(out);
            }
            Command::Configure { spec } => {
                out.push(13);
                spec.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(Command::Write {
                object: ObjectId::decode(r)?,
                meta_delta: i64::decode(r)?,
                payload: UpdatePayload::decode(r)?,
            }),
            1 => Ok(Command::Read {
                object: ObjectId::decode(r)?,
                consistency: ReadConsistency::decode(r)?,
            }),
            2 => Ok(Command::Peek { object: ObjectId::decode(r)? }),
            3 => Ok(Command::Level { object: ObjectId::decode(r)? }),
            4 => Ok(Command::Report { object: ObjectId::decode(r)? }),
            5 => Ok(Command::DemandResolution { object: ObjectId::decode(r)? }),
            6 => Ok(Command::Dissatisfied {
                object: ObjectId::decode(r)?,
                new_weights: Option::<Weights>::decode(r)?,
            }),
            7 => Ok(Command::SetConsistencyMetric {
                numerical_max: f64::decode(r)?,
                order_max: f64::decode(r)?,
                staleness_max: SimDuration::decode(r)?,
            }),
            8 => Ok(Command::SetWeight {
                numerical: f64::decode(r)?,
                order: f64::decode(r)?,
                staleness: f64::decode(r)?,
            }),
            9 => Ok(Command::SetResolution { code: u8::decode(r)? }),
            10 => Ok(Command::SetHint { hint: f64::decode(r)? }),
            11 => Ok(Command::SetBackgroundFreq { period: Option::<SimDuration>::decode(r)? }),
            12 => Ok(Command::SetPriority { node: NodeId::decode(r)?, priority: u8::decode(r)? }),
            13 => Ok(Command::Configure { spec: ConsistencySpec::decode(r)? }),
            _ => Err(r.err("Command tag out of domain")),
        }
    }
}

impl WireCodec for ReadResult {
    fn encode(&self, out: &mut Vec<u8>) {
        self.object.encode(out);
        self.meta.encode(out);
        self.updates.encode(out);
        self.latest_update.encode(out);
        self.level.encode(out);
        self.probed.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(ReadResult {
            object: ObjectId::decode(r)?,
            meta: i64::decode(r)?,
            updates: usize::decode(r)?,
            latest_update: Option::<SimTime>::decode(r)?,
            level: ConsistencyLevel::decode(r)?,
            probed: bool::decode(r)?,
        })
    }
}

impl WireCodec for NodeReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.level.encode(out);
        self.hint_floor.encode(out);
        self.resolutions_initiated.encode(out);
        self.rollbacks.encode(out);
        self.top_members.encode(out);
        self.meta.encode(out);
        self.updates.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(NodeReport {
            node: NodeId::decode(r)?,
            level: ConsistencyLevel::decode(r)?,
            hint_floor: ConsistencyLevel::decode(r)?,
            resolutions_initiated: u64::decode(r)?,
            rollbacks: u64::decode(r)?,
            top_members: Vec::<NodeId>::decode(r)?,
            meta: i64::decode(r)?,
            updates: usize::decode(r)?,
        })
    }
}

impl WireCodec for WireError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireError::UnknownNode(n) => {
                out.push(0);
                n.encode(out);
            }
            WireError::UnknownObject(o) => {
                out.push(1);
                o.encode(out);
            }
            WireError::NonConsecutiveSeq { writer, expected, got } => {
                out.push(2);
                writer.encode(out);
                expected.encode(out);
                got.encode(out);
            }
            WireError::RollbackBeyondLog => out.push(3),
            WireError::InvalidParameter(what) => {
                out.push(4);
                what.encode(out);
            }
            WireError::InvalidConfig { field, reason } => {
                out.push(5);
                field.encode(out);
                reason.encode(out);
            }
            WireError::NothingToResolve => out.push(6),
            WireError::ResolutionContended => out.push(7),
            WireError::HorizonExceeded => out.push(8),
            WireError::EngineUnavailable(what) => {
                out.push(9);
                what.encode(out);
            }
            WireError::Transport(what) => {
                out.push(10);
                what.encode(out);
            }
            WireError::Protocol(what) => {
                out.push(11);
                what.encode(out);
            }
            // Appended after tags 0..=11 were pinned: existing encodings
            // are untouched, old decoders reject tag 12 as out-of-domain.
            WireError::ServerAtCapacity { limit } => {
                out.push(12);
                limit.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(WireError::UnknownNode(NodeId::decode(r)?)),
            1 => Ok(WireError::UnknownObject(ObjectId::decode(r)?)),
            2 => Ok(WireError::NonConsecutiveSeq {
                writer: WriterId::decode(r)?,
                expected: u64::decode(r)?,
                got: u64::decode(r)?,
            }),
            3 => Ok(WireError::RollbackBeyondLog),
            4 => Ok(WireError::InvalidParameter(String::decode(r)?)),
            5 => Ok(WireError::InvalidConfig {
                field: String::decode(r)?,
                reason: String::decode(r)?,
            }),
            6 => Ok(WireError::NothingToResolve),
            7 => Ok(WireError::ResolutionContended),
            8 => Ok(WireError::HorizonExceeded),
            9 => Ok(WireError::EngineUnavailable(String::decode(r)?)),
            10 => Ok(WireError::Transport(String::decode(r)?)),
            11 => Ok(WireError::Protocol(String::decode(r)?)),
            12 => Ok(WireError::ServerAtCapacity { limit: u32::decode(r)? }),
            _ => Err(r.err("WireError tag out of domain")),
        }
    }
}

impl WireCodec for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Done => out.push(0),
            Response::Written { update } => {
                out.push(1);
                update.encode(out);
            }
            Response::Value { read } => {
                out.push(2);
                read.encode(out);
            }
            Response::Level { level } => {
                out.push(3);
                level.encode(out);
            }
            Response::Report { report } => {
                out.push(4);
                report.encode(out);
            }
            Response::Rejected { error } => {
                out.push(5);
                error.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(Response::Done),
            1 => Ok(Response::Written { update: Update::decode(r)? }),
            2 => Ok(Response::Value { read: ReadResult::decode(r)? }),
            3 => Ok(Response::Level { level: ConsistencyLevel::decode(r)? }),
            4 => Ok(Response::Report { report: NodeReport::decode(r)? }),
            5 => Ok(Response::Rejected { error: WireError::decode(r)? }),
            _ => Err(r.err("Response tag out of domain")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        0xABu8.encode(&mut out);
        0xBEEFu16.encode(&mut out);
        7u32.encode(&mut out);
        u64::MAX.encode(&mut out);
        (-3i64).encode(&mut out);
        1.5f64.encode(&mut out);
        true.encode(&mut out);
        "héllo".to_string().encode(&mut out);
        let mut r = WireReader::new(&out);
        assert_eq!(u8::decode(&mut r).unwrap(), 0xAB);
        assert_eq!(u16::decode(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::decode(&mut r).unwrap(), 7);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::decode(&mut r).unwrap(), -3);
        assert_eq!(f64::decode(&mut r).unwrap(), 1.5);
        assert!(bool::decode(&mut r).unwrap());
        assert_eq!(String::decode(&mut r).unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let bytes = 42u64.to_bytes();
        assert!(u64::from_bytes(&bytes[..7]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(u64::from_bytes(&long).is_err());
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocation() {
        // A length prefix claiming u64::MAX elements must fail fast.
        let mut buf = Vec::new();
        u64::MAX.encode(&mut buf);
        assert!(Vec::<u8>::from_bytes(&buf).is_err());
        assert!(String::from_bytes(&buf).is_err());
    }

    #[test]
    fn resolution_vector_forms_round_trip() {
        let vv = VersionVector::from_pairs([(WriterId(1), 4), (WriterId(9), 2)]);
        assert_eq!(VersionVector::from_bytes(&vv.to_bytes()).unwrap(), vv);

        let summary = VvSummary {
            counters: vv.clone(),
            meta: -7,
            latest: Some(SimTime::from_micros(42)),
            tail: vec![WriterSuffix {
                writer: WriterId(9),
                start_seq: 1,
                times: vec![SimTime::from_micros(40), SimTime::from_micros(42)],
            }],
        };
        assert_eq!(VvSummary::from_bytes(&summary.to_bytes()).unwrap(), summary);

        let delta = VvDelta {
            counters: vv.clone(),
            meta: 3,
            latest: None,
            suffixes: vec![WriterSuffix {
                writer: WriterId(1),
                start_seq: 4,
                times: vec![SimTime::ZERO],
            }],
        };
        assert_eq!(VvDelta::from_bytes(&delta.to_bytes()).unwrap(), delta);

        let full = ReferenceWire::Full(ReferenceState { winner: Some(NodeId(3)), counts: vv });
        assert_eq!(ReferenceWire::from_bytes(&full.to_bytes()).unwrap(), full);
        // A zero override is meaningful in a Delta (it erases the writer).
        let compact =
            ReferenceWire::Delta { winner: None, diffs: vec![(WriterId(1), 0), (WriterId(2), 5)] };
        assert_eq!(ReferenceWire::from_bytes(&compact.to_bytes()).unwrap(), compact);
    }

    #[test]
    fn zero_vector_counter_is_rejected() {
        // VersionVector elides zero counters, so a zero entry can only come
        // from a malformed frame.
        let mut buf = Vec::new();
        1usize.encode(&mut buf);
        WriterId(5).encode(&mut buf);
        0u64.encode(&mut buf);
        assert!(VersionVector::from_bytes(&buf).is_err());
        // An unknown ReferenceWire tag is out of domain.
        assert!(ReferenceWire::from_bytes(&[2]).is_err());
    }

    /// `pairs` in the vector wire form verbatim, however malformed.
    fn raw_vector(pairs: &[(u32, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        pairs.len().encode(&mut buf);
        for &(w, c) in pairs {
            WriterId(w).encode(&mut buf);
            c.encode(&mut buf);
        }
        buf
    }

    /// Writers out of order or repeated are as malformed as a zero counter:
    /// `[(w1, 5), (w0, 3)]` used to decode and re-encode as different bytes.
    #[test]
    fn non_canonical_vector_runs_are_rejected() {
        for pairs in [&[(1, 5), (0, 3)][..], &[(2, 1), (2, 4)][..]] {
            let err = VersionVector::from_bytes(&raw_vector(pairs)).unwrap_err();
            assert_eq!(err.what, "version vector writers not strictly ascending", "{pairs:?}");
        }
        let sorted = raw_vector(&[(0, 3), (1, 5)]);
        assert_eq!(VersionVector::from_bytes(&sorted).unwrap().to_bytes(), sorted);
    }

    proptest::proptest! {
        /// Vector decoding is a bijection: whatever raw run of pairs decodes
        /// re-encodes to exactly its own bytes.
        #[test]
        fn decoded_vectors_re_encode_to_the_same_bytes(
            pairs in proptest::collection::vec((0u32..5, 0u64..4), 0..6),
        ) {
            let bytes = raw_vector(&pairs);
            if let Ok(vv) = VersionVector::from_bytes(&bytes) {
                proptest::prop_assert_eq!(vv.to_bytes(), bytes);
            }
        }
    }

    #[test]
    fn out_of_domain_values_are_rejected() {
        assert!(bool::from_bytes(&[9]).is_err());
        // Resolution policy code 0 is unassigned.
        assert!(ResolutionPolicy::from_bytes(&[0]).is_err());
        // Consistency level outside the unit interval.
        let bytes = 1.5f64.to_bytes();
        assert!(ConsistencyLevel::from_bytes(&bytes).is_err());
        // An out-of-domain hint inside a spec fails revalidation on decode.
        let mut buf = Vec::new();
        Option::<MaxBounds>::None.encode(&mut buf);
        Option::<Weights>::None.encode(&mut buf);
        Option::<ResolutionPolicy>::None.encode(&mut buf);
        Some(7.5f64).encode(&mut buf);
        Option::<BackgroundFreq>::None.encode(&mut buf);
        assert!(ConsistencySpec::from_bytes(&buf).is_err());
    }
}
