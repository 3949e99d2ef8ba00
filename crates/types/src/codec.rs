//! The one binary codec: every value that crosses a process boundary —
//! a client frame on the service wire, a record or snapshot in the
//! per-shard WAL — is encoded through [`Codec`].
//!
//! The form is deterministic little-endian binary: integers at their
//! natural width, `u64` length prefixes on strings, byte buffers and
//! sequences, one-byte tags for enum variants and `Option`. It is the
//! runtime realisation of the `serde` annotations the types carry — the
//! offline `serde` stand-in cannot drive serialization (see
//! `vendor/README.md`), so each impl is hand-written against the field
//! layout the derives describe.
//!
//! Each impl lives in the crate that owns its type: primitives, ids, time,
//! [`Update`] and [`WireError`] here; the version-vector forms in
//! `idea-vv`; the service-API types in `idea-core`; WAL records and
//! snapshots in `idea-wal`; frames in `idea-transport`.
//!
//! Decoding is strict: it consumes exactly the encoded bytes. Truncated
//! input, trailing bytes (`Reader::finish`) and out-of-domain values
//! (unknown tags, invalid UTF-8, a length prefix beyond the remaining
//! input, a consistency level outside `[0, 1]`) are all [`CodecError`]s,
//! never silent best-effort. The transport surfaces them as
//! [`WireError::Protocol`]: a malformed peer can reject a command, never
//! corrupt an engine.

use crate::error::WireError;
use crate::ids::{NodeId, ObjectId, WriterId};
use crate::level::ConsistencyLevel;
use crate::time::{SimDuration, SimTime};
use crate::update::{Update, UpdateId, UpdatePayload};
use bytes::Bytes;
use std::fmt;

/// A decode failure: where in the buffer, and what was wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Cursor over a borrowed buffer with bounds-checked reads.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// An error located at the current position.
    #[inline]
    pub fn err(&self, what: &'static str) -> CodecError {
        CodecError { at: self.pos, what }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    /// Fails when fewer than `n` bytes remain.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(self.err("unexpected end of input"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Asserts the buffer was fully consumed (strict decoding).
    ///
    /// # Errors
    /// Fails when trailing bytes remain.
    #[inline]
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(self.err("trailing bytes after value"));
        }
        Ok(())
    }
}

/// Deterministic binary encode/decode for one type.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    /// Fails on truncation, unknown tags or out-of-domain values.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must span the whole buffer.
    ///
    /// # Errors
    /// Fails on truncated, out-of-domain, or trailing input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
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
        impl Codec for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i64);

impl Codec for f64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Codec for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.err("bool out of domain")),
        }
    }
}

/// A `usize` travels as a `u64`, whatever the platform width.
impl Codec for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::decode(r)?).map_err(|_| r.err("length exceeds platform usize"))
    }
}

/// Reads a length prefix. Each counted element needs at least one byte, so
/// a length beyond the remaining input is corrupt, not a huge allocation.
///
/// # Errors
/// Fails on truncation or a length exceeding the remaining input.
#[inline]
pub fn decode_len(r: &mut Reader<'_>) -> Result<usize, CodecError> {
    let len = usize::decode(r)?;
    if len > r.remaining() {
        return Err(r.err("length exceeds remaining input"));
    }
    Ok(len)
}

/// Encodes a sequence in the `Vec<T>` form (count, then the items) from
/// borrowed items, so a caller holding `&[T]` or scattered `&T`s need not
/// collect an owned `Vec` first.
pub fn encode_seq<'a, T: Codec + 'a>(
    items: impl ExactSizeIterator<Item = &'a T>,
    out: &mut Vec<u8>,
) {
    items.len().encode(out);
    for item in items {
        item.encode(out);
    }
}

impl Codec for String {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| r.err("invalid UTF-8 in string"))
    }
}

impl Codec for Bytes {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        Ok(Bytes::from(r.take(len)?.to_vec()))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(r.err("Option tag out of domain")),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let mut v = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

// ====================================================================
// Identifier / time / level newtypes
// ====================================================================

macro_rules! newtype_codec {
    ($($t:ident($inner:ty)),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($t(<$inner>::decode(r)?))
            }
        }
    )*};
}

newtype_codec!(NodeId(u32), WriterId(u32), ObjectId(u64), SimTime(u64), SimDuration(u64));

impl Codec for ConsistencyLevel {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.value().encode(out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = f64::decode(r)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(r.err("consistency level outside [0, 1]"));
        }
        Ok(ConsistencyLevel::new(v))
    }
}

// ====================================================================
// Updates
// ====================================================================

impl Codec for UpdateId {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.writer.encode(out);
        self.seq.encode(out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(UpdateId { writer: WriterId::decode(r)?, seq: u64::decode(r)? })
    }
}

impl Codec for UpdatePayload {
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
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
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

impl Codec for Update {
    fn encode(&self, out: &mut Vec<u8>) {
        self.object.encode(out);
        self.id.encode(out);
        self.at.encode(out);
        self.meta_delta.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
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
// Wire errors
// ====================================================================

impl Codec for WireError {
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
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(WireError::UnknownNode(NodeId::decode(r)?)),
            1 => Ok(WireError::UnknownObject(ObjectId::decode(r)?)),
            2 => Ok(WireError::NonConsecutiveSeq {
                writer: WriterId::decode(r)?,
                expected: u64::decode(r)?,
                got: u64::decode(r)?,
            }),
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
            // Tag 3 was a rollback past the log, which nothing raises any
            // more: it stays unassigned, so an old peer's tag 3 is
            // rejected instead of read as something else.
            _ => Err(r.err("WireError tag out of domain")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_round_trip_little_endian() {
        let mut out = Vec::new();
        0xAABBu16.encode(&mut out);
        assert_eq!(out, vec![0xBB, 0xAA]);
        assert_eq!(u16::from_bytes(&out).unwrap(), 0xAABB);
    }

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
        let mut r = Reader::new(&out);
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
    fn trailing_bytes_are_rejected() {
        let mut out = Vec::new();
        7u32.encode(&mut out);
        out.push(0);
        assert_eq!(u32::from_bytes(&out).unwrap_err().what, "trailing bytes after value");
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut out = Vec::new();
        u64::MAX.encode(&mut out);
        let err = Vec::<u8>::from_bytes(&out).unwrap_err();
        assert_eq!(err.what, "length exceeds remaining input");
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
    fn out_of_domain_values_are_rejected() {
        assert!(bool::from_bytes(&[9]).is_err());
        // Consistency level outside the unit interval.
        let bytes = 1.5f64.to_bytes();
        assert!(ConsistencyLevel::from_bytes(&bytes).is_err());
    }
}
