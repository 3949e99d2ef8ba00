//! Every top-level decoder of the shared binary codec, fed arbitrary bytes:
//! client commands and responses, frames (bare bodies and through
//! `parse_frame`'s header checks), WAL records and shard snapshots.
//!
//! None may panic, and whatever decodes — the whole input, or a prefix of
//! it — must be a fixed point of the codec: encoding it, decoding that and encoding again yields the same
//! bytes.

use idea_core::{Command, Response};
use idea_transport::frame::{frame_bytes, parse_frame, Frame, MAGIC, VERSION};
use idea_types::codec::{Codec, Reader};
use idea_wal::{ShardSnapshot, WalRecord};
use proptest::prelude::*;

/// 0 to 256 bytes. Each case draws a share of small bytes — none, half or
/// nine in ten, mostly zeros, the rest below 8 — so tags, `None`s and
/// short length prefixes turn up often enough for the decoders to get
/// past their first fields.
fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    (0u8..3, prop::collection::vec((0u16..256, 0u8..10), 0..257)).prop_map(|(density, raw)| {
        let zeros = [0, 5, 9][usize::from(density)];
        raw.into_iter()
            .map(|(byte, coin)| match coin {
                0 if zeros > 0 => byte as u8 % 8,
                _ if coin < zeros => 0,
                _ => byte as u8,
            })
            .collect()
    })
}

/// Decodes `bytes` as `T`, strictly and as a prefix (trailing bytes
/// left unread, so most inputs reach past the first few fields); when a
/// value decodes, checks its re-encoding is a fixed point.
fn check<T: Codec + std::fmt::Debug>(bytes: &[u8]) {
    let strict = T::from_bytes(bytes);
    let mut r = Reader::new(bytes);
    let prefix = T::decode(&mut r);
    assert!(strict.is_err() || r.remaining() == 0, "a strict decode left bytes unread");
    if let Ok(value) = prefix {
        let first = value.to_bytes();
        let again = T::from_bytes(&first)
            .unwrap_or_else(|e| panic!("{value:?} re-encodes to undecodable bytes: {e}"));
        assert_eq!(again.to_bytes(), first, "{value:?} is not a fixed point");
    }
}

/// `parse_frame` on `buf`; a frame it yields must re-frame to bytes that
/// parse back to a frame that re-frames identically.
fn check_parse_frame(buf: &[u8]) {
    if let Ok(Some((frame, consumed))) = parse_frame(buf) {
        assert!(consumed <= buf.len());
        let first = frame_bytes(&frame).expect("a parsed frame fits the cap");
        let (again, used) = parse_frame(&first).unwrap().expect("a whole frame");
        assert_eq!(used, first.len());
        assert_eq!(frame_bytes(&again).unwrap(), first, "{frame:?} is not a fixed point");
    }
}

/// `body` behind a valid frame header.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in arb_input()) {
        check::<Command>(&bytes);
        check::<Response>(&bytes);
        check::<Frame>(&bytes);
        check::<WalRecord>(&bytes);
        check::<ShardSnapshot>(&bytes);
        // Raw, the bytes mostly exercise the header checks; behind a valid
        // header they reach the body decoder — once as a whole body, once
        // cut to the frame a prefix decodes to, when one does.
        check_parse_frame(&bytes);
        check_parse_frame(&framed(&bytes));
        let mut r = Reader::new(&bytes);
        if Frame::decode(&mut r).is_ok() {
            check_parse_frame(&framed(&bytes[..bytes.len() - r.remaining()]));
        }
    }
}
