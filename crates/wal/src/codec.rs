//! The WAL's binary codec: the same little-endian, length-prefixed,
//! strict-decode idioms as the transport wire codec, re-stated here because
//! the transport crate sits *above* this one in the dependency DAG (it
//! depends on `idea-core`, which depends on `idea-store`, which depends on
//! this crate).
//!
//! Strictness contract (matching `idea-transport`): decoding consumes
//! exactly the encoded bytes; truncated input, trailing bytes
//! ([`WalReader::finish`]) and out-of-domain values (unknown tags, invalid
//! UTF-8, oversized lengths) are all errors, never silent best-effort.

use bytes::Bytes;
use idea_types::{NodeId, ObjectId, SimTime, Update, UpdateId, UpdatePayload, WriterId};
use idea_vv::VersionVector;
use std::fmt;

/// A decode failure: where in the buffer, and what was expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset the decoder had reached.
    pub at: usize,
    /// What the decoder was trying to read.
    pub what: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WAL decode failed at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for CodecError {}

/// Cursor over a borrowed buffer with bounds-checked reads.
#[derive(Debug)]
pub struct WalReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WalReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        WalReader { buf, pos: 0 }
    }

    /// An error located at the current position.
    pub fn err(&self, what: &'static str) -> CodecError {
        CodecError { at: self.pos, what }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    /// Fails when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
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
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(self.err("trailing bytes after value"));
        }
        Ok(())
    }
}

/// Binary encode/decode for WAL record and snapshot payloads.
pub trait WalCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    /// Fails on truncated or out-of-domain input.
    fn decode(r: &mut WalReader<'_>) -> Result<Self, CodecError>;

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
        let mut r = WalReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl WalCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WalReader<'_>) -> Result<Self, CodecError> {
                let n = std::mem::size_of::<$t>();
                let b = r.take(n)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("take returned n bytes")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i64);

/// Bounds a decoded element count: each element needs at least one byte, so
/// a length exceeding the remaining buffer is corrupt, not a huge alloc.
fn decode_len(r: &mut WalReader<'_>) -> Result<usize, CodecError> {
    let raw = u64::decode(r)?;
    let len = usize::try_from(raw).map_err(|_| r.err("length overflows usize"))?;
    if len > r.remaining() {
        return Err(r.err("length exceeds remaining input"));
    }
    Ok(len)
}

/// Encodes a sequence in the `Vec<T>` wire form (count, then the items)
/// from borrowed items, so a caller holding `&[T]` or scattered `&T`s
/// need not collect an owned `Vec` first.
pub(crate) fn encode_seq<'a, T: WalCodec + 'a>(
    items: impl ExactSizeIterator<Item = &'a T>,
    out: &mut Vec<u8>,
) {
    (items.len() as u64).encode(out);
    for item in items {
        item.encode(out);
    }
}

impl<T: WalCodec> WalCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out);
    }
    fn decode(r: &mut WalReader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let mut v = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl WalCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WalReader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let raw = r.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| r.err("invalid UTF-8 in string"))
    }
}

impl WalCodec for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self);
    }
    fn decode(r: &mut WalReader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        Ok(Bytes::from(r.take(len)?.to_vec()))
    }
}

macro_rules! newtype_codec {
    ($($t:ident($inner:ty)),*) => {$(
        impl WalCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut WalReader<'_>) -> Result<Self, CodecError> {
                Ok($t(<$inner>::decode(r)?))
            }
        }
    )*};
}

newtype_codec!(NodeId(u32), WriterId(u32), ObjectId(u64), SimTime(u64));

impl WalCodec for UpdatePayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            UpdatePayload::Opaque(b) => {
                0u8.encode(out);
                b.encode(out);
            }
            UpdatePayload::Stroke { x, y, text } => {
                1u8.encode(out);
                x.encode(out);
                y.encode(out);
                text.encode(out);
            }
            UpdatePayload::Booking { flight, seats, price_cents } => {
                2u8.encode(out);
                flight.encode(out);
                seats.encode(out);
                price_cents.encode(out);
            }
        }
    }
    fn decode(r: &mut WalReader<'_>) -> Result<Self, CodecError> {
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
            _ => Err(r.err("unknown payload tag")),
        }
    }
}

impl WalCodec for Update {
    fn encode(&self, out: &mut Vec<u8>) {
        self.object.encode(out);
        self.id.writer.encode(out);
        self.id.seq.encode(out);
        self.at.encode(out);
        self.meta_delta.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut WalReader<'_>) -> Result<Self, CodecError> {
        Ok(Update {
            object: ObjectId::decode(r)?,
            id: UpdateId { writer: WriterId::decode(r)?, seq: u64::decode(r)? },
            at: SimTime::decode(r)?,
            meta_delta: i64::decode(r)?,
            payload: UpdatePayload::decode(r)?,
        })
    }
}

/// The strictly ascending, zero-free run the transport codec carries too:
/// no encoder writes anything else, so anything else is corrupt. A
/// well-formed run becomes the vector's storage as it stands.
impl WalCodec for VersionVector {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.writers() as u64).encode(out);
        for (w, c) in self.iter() {
            w.encode(out);
            c.encode(out);
        }
    }
    fn decode(r: &mut WalReader<'_>) -> Result<Self, CodecError> {
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
    fn oversized_length_is_rejected_without_allocating() {
        let mut out = Vec::new();
        u64::MAX.encode(&mut out);
        let err = Vec::<u8>::from_bytes(&out).unwrap_err();
        assert_eq!(err.what, "length exceeds remaining input");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut out = Vec::new();
        7u32.encode(&mut out);
        out.push(0);
        assert_eq!(u32::from_bytes(&out).unwrap_err().what, "trailing bytes after value");
    }

    #[test]
    fn version_vector_round_trips() {
        let vv = VersionVector::from_pairs([(WriterId(3), 9), (WriterId(0), 2)]);
        assert_eq!(VersionVector::from_bytes(&vv.to_bytes()).unwrap(), vv);
        assert_eq!(VersionVector::from_bytes(&VersionVector::new().to_bytes()).unwrap().total(), 0);
    }
}
