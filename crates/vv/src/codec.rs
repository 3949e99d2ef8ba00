//! [`Codec`] impls for the version-vector forms: the classic vector (WAL
//! `DropExtras` records, resolution references) and the compact
//! [`VvSummary`]/[`VvDelta`] wire forms.

use crate::classic::VersionVector;
use crate::wire::{Suffixes, VvDelta, VvSummary};
use idea_types::codec::{decode_len, encode_seq, Codec, CodecError, Reader};
use idea_types::{SimTime, WriterId};

/// A version vector is a run of `(writer, counter)` pairs, strictly
/// ascending by writer. Zero counters are elided and writers are unique by
/// construction ([`VersionVector`] stores neither), so a zero, a repeated
/// writer or a writer out of order in the input is malformed, not a
/// representable value — rejecting them keeps encode/decode a bijection.
/// A well-formed run becomes the vector's storage as it stands.
impl Codec for VersionVector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.writers().encode(out);
        for (w, c) in self.iter() {
            w.encode(out);
            c.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
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

/// A run list encodes as it did when each run was its own
/// `(writer, start_seq, Vec<SimTime>)` struct in a `Vec`: the run count,
/// then per run its writer, first sequence number and counted timestamps.
impl Codec for Suffixes {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for run in self.iter() {
            run.writer.encode(out);
            run.start_seq.encode(out);
            encode_seq(run.times.iter(), out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let runs = decode_len(r)?;
        let mut out = Suffixes::with_capacity(runs.min(1024), 0);
        for _ in 0..runs {
            let writer = WriterId::decode(r)?;
            let start_seq = u64::decode(r)?;
            let n = decode_len(r)?;
            let mut times = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                times.push(SimTime::decode(r)?);
            }
            out.push(writer, start_seq, times);
        }
        Ok(out)
    }
}

impl Codec for VvSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.counters.encode(out);
        self.meta.encode(out);
        self.latest.encode(out);
        self.tail.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(VvSummary {
            counters: VersionVector::decode(r)?,
            meta: i64::decode(r)?,
            latest: Option::<SimTime>::decode(r)?,
            tail: Suffixes::decode(r)?,
        })
    }
}

impl Codec for VvDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.counters.encode(out);
        self.meta.encode(out);
        self.latest.encode(out);
        self.suffixes.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(VvDelta {
            counters: VersionVector::decode(r)?,
            meta: i64::decode(r)?,
            latest: Option::<SimTime>::decode(r)?,
            suffixes: Suffixes::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_vector_round_trips() {
        let vv = VersionVector::from_pairs([(WriterId(3), 9), (WriterId(0), 2)]);
        assert_eq!(VersionVector::from_bytes(&vv.to_bytes()).unwrap(), vv);
        assert_eq!(VersionVector::from_bytes(&VersionVector::new().to_bytes()).unwrap().total(), 0);
    }

    fn suffixes(writer: WriterId, start_seq: u64, times: &[SimTime]) -> Suffixes {
        let mut s = Suffixes::new();
        s.push(writer, start_seq, times.iter().copied());
        s
    }

    #[test]
    fn resolution_vector_forms_round_trip() {
        let vv = VersionVector::from_pairs([(WriterId(1), 4), (WriterId(9), 2)]);
        assert_eq!(VersionVector::from_bytes(&vv.to_bytes()).unwrap(), vv);

        let summary = VvSummary {
            counters: vv.clone(),
            meta: -7,
            latest: Some(SimTime::from_micros(42)),
            tail: suffixes(WriterId(9), 1, &[SimTime::from_micros(40), SimTime::from_micros(42)]),
        };
        assert_eq!(VvSummary::from_bytes(&summary.to_bytes()).unwrap(), summary);

        let delta = VvDelta {
            counters: vv,
            meta: 3,
            latest: None,
            suffixes: suffixes(WriterId(1), 4, &[SimTime::ZERO]),
        };
        assert_eq!(VvDelta::from_bytes(&delta.to_bytes()).unwrap(), delta);
    }

    /// The flat run list encodes byte for byte as the `Vec` of
    /// `(writer, start_seq, Vec<SimTime>)` runs it replaced.
    #[test]
    fn flat_suffixes_encode_as_the_run_list_did() {
        let mut flat = Suffixes::new();
        flat.push(WriterId(2), 5, [SimTime(7), SimTime(9)]);
        flat.push(WriterId(0), 1, []);
        let mut old = Vec::new();
        2usize.encode(&mut old);
        for (w, start, times) in [(2u32, 5u64, vec![SimTime(7), SimTime(9)]), (0, 1, vec![])] {
            WriterId(w).encode(&mut old);
            start.encode(&mut old);
            times.encode(&mut old);
        }
        assert_eq!(flat.to_bytes(), old);
        assert_eq!(Suffixes::from_bytes(&old).unwrap(), flat);
    }

    #[test]
    fn zero_vector_counter_is_rejected() {
        // VersionVector elides zero counters, so a zero entry can only come
        // from malformed input.
        let mut buf = Vec::new();
        1usize.encode(&mut buf);
        WriterId(5).encode(&mut buf);
        0u64.encode(&mut buf);
        assert!(VersionVector::from_bytes(&buf).is_err());
    }

    /// `pairs` in the vector form verbatim, however malformed.
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
}
