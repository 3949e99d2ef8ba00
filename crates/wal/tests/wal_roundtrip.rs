//! Durability codec pins, mirroring `idea-transport`'s
//! `codec_roundtrip.rs`: every `WalRecord` variant and the snapshot forms
//! survive encode → decode bit-for-bit, no prefix of a valid encoding
//! decodes, trailing bytes are rejected, and the frame layer distinguishes
//! a torn tail (tolerated crash) from real corruption (loud failure).
//!
//! One deterministic exhaustive pass covers each variant at least once
//! (so a forgotten tag fails loudly, not probabilistically), and a
//! proptest drives randomized records/snapshots through the same trip.

use bytes::Bytes;
use idea_types::codec::Codec;
use idea_types::{NodeId, ObjectId, SimTime, Update, UpdateId, UpdatePayload, WriterId};
use idea_vv::VersionVector;
use idea_wal::{
    crc32, DurabilityConfig, ObjectSnapshot, ShardSnapshot, ShardWal, WalError, WalRecord,
};
use proptest::prelude::*;

// ====================================================================
// Strategies (same payload/update shapes as the transport suite)
// ====================================================================

fn arb_payload() -> impl Strategy<Value = UpdatePayload> {
    (0u8..3, prop::collection::vec(0u8..255, 0..12), (0u16..500, 0u16..500), 1i64..100_000)
        .prop_map(|(tag, bytes, (x, y), price)| match tag {
            0 => UpdatePayload::Opaque(Bytes::from(bytes)),
            1 => UpdatePayload::Stroke {
                x,
                y,
                text: bytes.iter().map(|b| char::from(b'a' + b % 26)).collect(),
            },
            _ => UpdatePayload::Booking {
                flight: u32::from(x),
                seats: u32::from(y),
                price_cents: price,
            },
        })
}

fn arb_update() -> impl Strategy<Value = Update> {
    (
        (0u64..64).prop_map(ObjectId),
        (0u32..8, 1u64..1_000),
        0u64..600_000_000,
        -1_000i64..1_000,
        arb_payload(),
    )
        .prop_map(|(object, (writer, seq), at, meta_delta, payload)| Update {
            object,
            id: UpdateId { writer: WriterId(writer), seq },
            at: SimTime(at),
            meta_delta,
            payload,
        })
}

fn arb_vv() -> impl Strategy<Value = VersionVector> {
    prop::collection::btree_map(0u32..16, 1u64..500, 0..6)
        .prop_map(|m| VersionVector::from_pairs(m.into_iter().map(|(w, c)| (WriterId(w), c))))
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    (0u8..5, (0u64..64).prop_map(ObjectId), arb_update(), arb_vv(), 0u64..1_000).prop_map(
        |(tag, object, update, counts, n)| match tag {
            0 => WalRecord::Open { object },
            1 => WalRecord::Write { update },
            2 => WalRecord::Ingest { update },
            3 => WalRecord::DropExtras { object, counts },
            _ => WalRecord::ResumeSeq { object, seq: n },
        },
    )
}

fn arb_snapshot() -> impl Strategy<Value = ShardSnapshot> {
    (
        0u32..8,
        0u32..8,
        0u32..4,
        prop::collection::vec(
            ((0u64..64).prop_map(ObjectId), 0u64..100, prop::collection::vec(arb_update(), 0..4)),
            0..4,
        ),
    )
        .prop_map(|(node, writer, shard, objects)| ShardSnapshot {
            node: NodeId(node),
            writer: WriterId(writer),
            shard,
            objects: objects
                .into_iter()
                .map(|(object, next_seq, log)| ObjectSnapshot {
                    object,
                    next_seq,
                    pending: log.iter().take(1).cloned().collect(),
                    log,
                })
                .collect(),
        })
}

// ====================================================================
// Deterministic exhaustive pass: one fixture per variant
// ====================================================================

fn upd(seq: u64, payload: UpdatePayload) -> Update {
    Update {
        object: ObjectId(7),
        id: UpdateId { writer: WriterId(2), seq },
        at: SimTime::from_millis(1_234 + seq),
        meta_delta: -3,
        payload,
    }
}

fn fixture_records() -> Vec<WalRecord> {
    let obj = ObjectId(7);
    vec![
        WalRecord::Open { object: obj },
        WalRecord::Write { update: upd(1, UpdatePayload::Opaque(Bytes::from(vec![1, 2, 3]))) },
        WalRecord::Write {
            update: upd(2, UpdatePayload::Stroke { x: 3, y: 9, text: "hi".into() }),
        },
        WalRecord::Ingest {
            update: upd(3, UpdatePayload::Booking { flight: 12, seats: 2, price_cents: 45_000 }),
        },
        WalRecord::DropExtras {
            object: obj,
            counts: VersionVector::from_pairs([(WriterId(0), 4), (WriterId(2), 1)]),
        },
        WalRecord::DropExtras { object: obj, counts: VersionVector::new() },
        WalRecord::ResumeSeq { object: obj, seq: 17 },
    ]
}

fn fixture_snapshot() -> ShardSnapshot {
    ShardSnapshot {
        node: NodeId(3),
        writer: WriterId(3),
        shard: 1,
        objects: vec![
            ObjectSnapshot {
                object: ObjectId(7),
                next_seq: 4,
                log: vec![
                    upd(1, UpdatePayload::Opaque(Bytes::from(vec![5; 6]))),
                    upd(2, UpdatePayload::Stroke { x: 1, y: 2, text: "snap".into() }),
                ],
                pending: vec![upd(9, UpdatePayload::none())],
            },
            ObjectSnapshot { object: ObjectId(8), next_seq: 0, log: vec![], pending: vec![] },
        ],
    }
}

#[test]
fn every_record_variant_round_trips() {
    for rec in fixture_records() {
        let bytes = rec.to_bytes();
        assert_eq!(WalRecord::from_bytes(&bytes).unwrap(), rec, "{rec:?}");
    }
}

/// One record of each variant and the two-object snapshot, with the exact
/// bytes the codec wrote when the format was fixed. A WAL file on disk is
/// only recoverable while these stay put: a round trip alone would pass a
/// change that re-encodes both sides differently.
const PINNED_RECORDS: [(usize, &str); 5] = [
    (0, "010700000000000000"),
    (
        1,
        "02070000000000000002000000010000000000000038d8120000000000fdffffffffffff\
         ff000300000000000000010203",
    ),
    (
        3,
        "03070000000000000002000000030000000000000008e0120000000000fdffffffffffff\
         ff020c00000002000000c8af000000000000",
    ),
    (
        4,
        "050700000000000000020000000000000000000000040000000000000002000000010000\
         0000000000",
    ),
    (6, "0607000000000000001100000000000000"),
];

const PINNED_SNAPSHOT: &str = "\
    03000000030000000100000002000000000000000700000000000000040000000000000002000000\
    00000000070000000000000002000000010000000000000038d8120000000000fdffffffffffffff\
    000600000000000000050505050505070000000000000002000000020000000000000020dc120000\
    000000fdffffffffffffff01010002000400000000000000736e6170010000000000000007000000\
    0000000002000000090000000000000078f7120000000000fdffffffffffffff0000000000000000\
    000800000000000000000000000000000000000000000000000000000000000000";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

#[test]
fn fixtures_encode_to_the_pinned_bytes() {
    let records = fixture_records();
    let mut variants = Vec::new();
    for (i, pinned) in PINNED_RECORDS {
        let rec = &records[i];
        let variant = std::mem::discriminant(rec);
        assert!(!variants.contains(&variant), "two pins of one variant: {rec:?}");
        variants.push(variant);
        assert_eq!(hex(&rec.to_bytes()), pinned, "{rec:?}");
        assert_eq!(&WalRecord::from_bytes(&unhex(pinned)).unwrap(), rec);
    }
    assert_eq!(variants.len(), 5, "one pin per record variant");
    let snap = fixture_snapshot();
    assert_eq!(snap.objects.len(), 2);
    assert_eq!(hex(&snap.to_bytes()), PINNED_SNAPSHOT);
    let mut borrowed = Vec::new();
    snap.borrowed().encode(&mut borrowed);
    assert_eq!(hex(&borrowed), PINNED_SNAPSHOT);
    assert_eq!(ShardSnapshot::from_bytes(&unhex(PINNED_SNAPSHOT)).unwrap(), snap);
}

#[test]
fn snapshot_round_trips() {
    let snap = fixture_snapshot();
    assert_eq!(ShardSnapshot::from_bytes(&snap.to_bytes()).unwrap(), snap);
}

/// Decoding must reject every truncation of every fixture — no prefix of a
/// valid encoding is itself valid (self-delimiting check).
#[test]
fn no_fixture_prefix_decodes() {
    for rec in fixture_records() {
        let bytes = rec.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                WalRecord::from_bytes(&bytes[..cut]).is_err(),
                "{rec:?} decoded from a {cut}-byte prefix of {} bytes",
                bytes.len()
            );
        }
    }
    let bytes = fixture_snapshot().to_bytes();
    for cut in 0..bytes.len() {
        assert!(ShardSnapshot::from_bytes(&bytes[..cut]).is_err());
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    for rec in fixture_records() {
        let mut bytes = rec.to_bytes();
        bytes.push(0);
        let err = WalRecord::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.what, "trailing bytes after value", "{rec:?}");
    }
    let mut bytes = fixture_snapshot().to_bytes();
    bytes.push(0);
    assert!(ShardSnapshot::from_bytes(&bytes).is_err());
}

#[test]
fn unknown_tag_is_rejected() {
    // Tag 0 is deliberately unassigned (a zeroed disk block never decodes);
    // tag 4 was a wholesale reconciliation and tag 7 a rollback's
    // truncation, which nothing writes any more.
    for tag in [0u8, 4, 7, 8, 200] {
        assert!(WalRecord::from_bytes(&[tag]).is_err(), "tag {tag} decoded");
    }
}

/// A `DropExtras` payload carrying `pairs` verbatim as its vector, however
/// malformed.
fn drop_extras_bytes(pairs: &[(u32, u64)]) -> Vec<u8> {
    let mut out =
        WalRecord::DropExtras { object: ObjectId(7), counts: VersionVector::new() }.to_bytes();
    out.truncate(out.len() - 8); // drop the empty vector's count
    (pairs.len() as u64).encode(&mut out);
    for &(w, c) in pairs {
        WriterId(w).encode(&mut out);
        c.encode(&mut out);
    }
    out
}

/// No encoder writes a zero counter or a writer out of order or twice, so
/// the decoder refuses them: accepting `[(w1, 5), (w0, 3)]` used to re-encode
/// as different bytes, and a zero counter used to vanish on decode.
#[test]
fn non_canonical_version_vectors_are_rejected() {
    assert!(WalRecord::from_bytes(&drop_extras_bytes(&[(0, 4), (2, 1)])).is_ok());
    for (pairs, what) in [
        (&[(0, 4), (2, 0)][..], "zero counter in version vector"),
        (&[(1, 5), (0, 3)][..], "version vector writers not strictly ascending"),
        (&[(2, 1), (2, 4)][..], "version vector writers not strictly ascending"),
    ] {
        let err = WalRecord::from_bytes(&drop_extras_bytes(pairs)).unwrap_err();
        assert_eq!(err.what, what, "{pairs:?}");
    }
}

// ====================================================================
// Frame layer: torn tail vs corruption
// ====================================================================

fn tmp_cfg(tag: &str) -> DurabilityConfig {
    let dir = std::env::temp_dir().join(format!("idea-wal-rt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    DurabilityConfig::sync(dir)
}

/// Writes the fixture records into a fresh WAL and returns the log path.
fn write_fixture_log(cfg: &DurabilityConfig) -> std::path::PathBuf {
    let (mut wal, r) = ShardWal::open(cfg, NodeId(0), 0).unwrap();
    assert!(r.is_empty());
    for rec in fixture_records() {
        wal.append(&rec).unwrap();
    }
    wal.log_path().to_path_buf()
}

/// Flipping a byte inside the *final* frame's payload makes its checksum
/// fail — indistinguishable from a crash mid-append, so it is tolerated as
/// a torn tail rather than surfaced as corruption.
#[test]
fn checksum_corrupt_final_frame_is_a_torn_tail() {
    let cfg = tmp_cfg("tornsum");
    let log = write_fixture_log(&cfg);
    let mut bytes = std::fs::read(&log).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&log, &bytes).unwrap();

    let r = ShardWal::load(&cfg, NodeId(0), 0).unwrap();
    let all = fixture_records();
    assert_eq!(r.tail, all[..all.len() - 1], "everything before the bad frame survives");
    assert!(r.torn_bytes > 0, "the bad frame is reported as torn");
    std::fs::remove_dir_all(&cfg.dir).unwrap();
}

/// A checksum-corrupt frame *mid-log* also ends the valid prefix — the
/// scan cannot resynchronise past it, so recovery keeps the prefix and
/// reports the rest as torn (`open` then truncates it for appending).
#[test]
fn checksum_corrupt_middle_frame_ends_the_valid_prefix() {
    let cfg = tmp_cfg("tornmid");
    let log = write_fixture_log(&cfg);
    let mut bytes = std::fs::read(&log).unwrap();
    // The first frame starts after the 8-byte magic: [len][crc][payload].
    // Flip a payload byte of the *second* frame.
    let first_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let second_payload = 8 + 8 + first_len + 8;
    bytes[second_payload] ^= 0xFF;
    std::fs::write(&log, &bytes).unwrap();

    let r = ShardWal::load(&cfg, NodeId(0), 0).unwrap();
    assert_eq!(r.tail, fixture_records()[..1], "only the intact prefix survives");
    assert!(r.torn_bytes > 0);
    std::fs::remove_dir_all(&cfg.dir).unwrap();
}

/// A frame whose checksum *matches* but whose payload does not decode is
/// real corruption (the bytes were acknowledged as durable), never a torn
/// tail — recovery must fail loudly instead of silently dropping history.
#[test]
fn checksum_valid_undecodable_frame_is_corruption() {
    let cfg = tmp_cfg("corrupt");
    let log = write_fixture_log(&cfg);
    let mut bytes = std::fs::read(&log).unwrap();
    // Append a frame with a correct CRC over an undecodable payload.
    let garbage = [0u8, 0, 0]; // tag 0 is unassigned
    bytes.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&garbage).to_le_bytes());
    bytes.extend_from_slice(&garbage);
    std::fs::write(&log, &bytes).unwrap();

    let err = ShardWal::load(&cfg, NodeId(0), 0).unwrap_err();
    assert!(matches!(err, WalError::Corrupt { what: "record payload" }), "{err}");
    std::fs::remove_dir_all(&cfg.dir).unwrap();
}

/// A durable frame holding a non-canonical vector is corruption, not a
/// vector to repair.
#[test]
fn checksum_valid_non_canonical_vector_is_corruption() {
    let cfg = tmp_cfg("noncanon");
    let log = write_fixture_log(&cfg);
    let mut bytes = std::fs::read(&log).unwrap();
    let payload = drop_extras_bytes(&[(1, 5), (0, 3)]);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    std::fs::write(&log, &bytes).unwrap();

    let err = ShardWal::load(&cfg, NodeId(0), 0).unwrap_err();
    assert!(matches!(err, WalError::Corrupt { what: "record payload" }), "{err}");
    std::fs::remove_dir_all(&cfg.dir).unwrap();
}

#[test]
fn bad_log_magic_is_corruption() {
    let cfg = tmp_cfg("magic");
    let log = write_fixture_log(&cfg);
    let mut bytes = std::fs::read(&log).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&log, &bytes).unwrap();
    let err = ShardWal::load(&cfg, NodeId(0), 0).unwrap_err();
    assert!(matches!(err, WalError::Corrupt { what: "log magic" }), "{err}");
    std::fs::remove_dir_all(&cfg.dir).unwrap();
}

// ====================================================================
// Property pass
// ====================================================================

proptest! {
    #[test]
    fn random_records_round_trip(rec in arb_record()) {
        let bytes = rec.to_bytes();
        prop_assert_eq!(WalRecord::from_bytes(&bytes).unwrap(), rec);
    }

    #[test]
    fn random_snapshots_round_trip(snap in arb_snapshot()) {
        let bytes = snap.to_bytes();
        prop_assert_eq!(ShardSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    /// Vector decoding is a bijection: whatever raw run of pairs decodes
    /// re-encodes to exactly its own bytes.
    #[test]
    fn decoded_vectors_re_encode_to_the_same_bytes(
        pairs in prop::collection::vec((0u32..5, 0u64..4), 0..6),
    ) {
        let bytes = drop_extras_bytes(&pairs);
        if let Ok(rec) = WalRecord::from_bytes(&bytes) {
            prop_assert_eq!(rec.to_bytes(), bytes);
        }
    }

    /// Random single-byte flips anywhere after the magic never produce a
    /// silent wrong answer: recovery either returns a prefix of the written
    /// records (torn-tail tolerance) or fails loudly as corruption.
    #[test]
    fn random_byte_flip_never_misdecodes(pos_seed in 0usize..10_000, flip in 1u8..255) {
        let cfg = tmp_cfg(&format!("flip-{pos_seed}-{flip}"));
        let log = write_fixture_log(&cfg);
        let mut bytes = std::fs::read(&log).unwrap();
        let pos = 8 + pos_seed % (bytes.len() - 8);
        bytes[pos] ^= flip;
        std::fs::write(&log, &bytes).unwrap();

        let all = fixture_records();
        match ShardWal::load(&cfg, NodeId(0), 0) {
            Ok(r) => prop_assert!(
                r.tail == all[..r.tail.len()],
                "recovered tail is not a prefix of what was written"
            ),
            Err(WalError::Corrupt { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }
}

// ====================================================================
// Streamed snapshot files
// ====================================================================

/// The snapshot installer's staging buffer.
const STAGE: usize = 64 << 10;

/// Installs `snap` through a fresh WAL and returns the snapshot file's bytes.
fn installed_bytes(tag: &str, snap: &ShardSnapshot) -> Vec<u8> {
    let cfg = DurabilityConfig::buffered(tmp_cfg(tag).dir);
    let (mut wal, _) = ShardWal::open(&cfg, NodeId(0), 0).unwrap();
    wal.install_snapshot(&snap.borrowed()).unwrap();
    drop(wal);
    let bytes = std::fs::read(cfg.dir.join("node-0").join("snap-0.bin")).unwrap();
    std::fs::remove_dir_all(&cfg.dir).unwrap();
    bytes
}

/// What the installer must write: the magic, then one frame holding the
/// in-memory encoding.
fn framed_snapshot(snap: &ShardSnapshot) -> Vec<u8> {
    let payload = snap.to_bytes();
    let mut out = b"IDEASNP1".to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

#[test]
fn streamed_snapshot_of_an_empty_shard_is_the_framed_encoding() {
    let snap = ShardSnapshot { node: NodeId(0), writer: WriterId(0), shard: 0, objects: vec![] };
    assert_eq!(installed_bytes("stream-empty", &snap), framed_snapshot(&snap));
}

#[test]
fn streamed_snapshot_of_one_object_is_the_framed_encoding() {
    let mut snap = fixture_snapshot();
    snap.objects.truncate(1);
    assert_eq!(installed_bytes("stream-one", &snap), framed_snapshot(&snap));
}

#[test]
fn streamed_snapshot_over_several_stages_is_the_framed_encoding() {
    // Payload sizes vary, so updates straddle the stage's flush points.
    let log = |object: u64| -> Vec<Update> {
        (1..=40)
            .map(|seq| Update {
                object: ObjectId(object),
                id: UpdateId { writer: WriterId(1), seq },
                at: SimTime::from_secs(seq),
                meta_delta: 1,
                payload: UpdatePayload::Opaque(Bytes::from(vec![seq as u8; 1 + seq as usize * 97])),
            })
            .collect()
    };
    let snap = ShardSnapshot {
        node: NodeId(1),
        writer: WriterId(1),
        shard: 2,
        objects: (0..6)
            .map(|o| {
                let mut log = log(o);
                let pending = log.split_off(38);
                ObjectSnapshot { object: ObjectId(o), next_seq: 0, log, pending }
            })
            .collect(),
    };
    let bytes = installed_bytes("stream-big", &snap);
    assert!(bytes.len() > 3 * STAGE, "{} bytes span at least three stages", bytes.len());
    assert_eq!(bytes, framed_snapshot(&snap));
    assert_eq!(ShardSnapshot::from_bytes(&bytes[16..]).unwrap(), snap);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn streamed_random_snapshots_are_the_framed_encoding(snap in arb_snapshot()) {
        prop_assert_eq!(installed_bytes("stream-random", &snap), framed_snapshot(&snap));
    }
}
