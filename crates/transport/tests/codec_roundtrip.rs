//! Codec pins: every `Command`/`Response` variant survives
//! encode → decode bit-for-bit, both bare and framed.
//!
//! One deterministic exhaustive pass covers each variant at least once
//! (so a forgotten tag fails loudly, not probabilistically), and a
//! proptest drives randomized payloads through the same round trip.

use bytes::Bytes;
use idea_core::client::ReadConsistency;
use idea_core::quantify::Weights;
use idea_core::resolution::ResolutionPolicy;
use idea_core::resolution::{ReferenceState, ReferenceWire};
use idea_core::{Command, ConsistencySpec, NodeReport, ReadResult, Response};
use idea_transport::frame::{frame_bytes, parse_frame, read_frame, Frame, FramePayload, NO_REPLY};
use idea_types::codec::Codec;
use idea_types::{
    ConsistencyLevel, NodeId, ObjectId, SimDuration, SimTime, Update, UpdateId, UpdatePayload,
    WireError, WriterId,
};
use idea_vv::{Suffixes, VersionVector, VvDelta, VvSummary};
use proptest::prelude::*;

// ====================================================================
// Strategies
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

fn arb_level() -> impl Strategy<Value = ConsistencyLevel> {
    (0u64..1_000_001).prop_map(|ppm| ConsistencyLevel::new(ppm as f64 / 1e6))
}

fn arb_consistency() -> impl Strategy<Value = ReadConsistency> {
    (0u8..3, arb_level()).prop_map(|(tag, level)| match tag {
        0 => ReadConsistency::Any,
        1 => ReadConsistency::AtLeast(level),
        _ => ReadConsistency::Fresh,
    })
}

fn arb_weights() -> impl Strategy<Value = Weights> {
    (0u32..100, 0u32..100, 1u32..100).prop_map(|(a, b, c)| Weights {
        numerical: f64::from(a) / 10.0,
        order: f64::from(b) / 10.0,
        staleness: f64::from(c) / 10.0,
    })
}

fn arb_spec() -> impl Strategy<Value = ConsistencySpec> {
    ((0u8..2, 0u8..2, 0u8..2), (1u32..1000, 1u64..100, 1u64..120), arb_weights(), 0u32..101)
        .prop_map(|((has_metric, has_policy, has_background), (max, stale, period), w, hint)| {
            let mut b = ConsistencySpec::builder().weights(w.numerical, w.order, w.staleness);
            if has_metric == 1 {
                b = b.metric(f64::from(max), f64::from(max) / 2.0, SimDuration::from_secs(stale));
            }
            if has_policy == 1 {
                b = b.resolution(ResolutionPolicy::PriorityWins);
            }
            b = match has_background {
                1 => b.background_every(SimDuration::from_secs(period)),
                _ => b.hint(f64::from(hint) / 100.0),
            };
            b.build().expect("strategy emits valid specs")
        })
}

fn arb_command() -> impl Strategy<Value = Command> {
    (
        0u8..14,
        (0u64..64).prop_map(ObjectId),
        (-1_000i64..1_000, arb_payload()),
        (arb_consistency(), arb_weights(), 0u8..2),
        (1u64..3_600, 0u32..101, 1u8..4),
        arb_spec(),
    )
        .prop_map(
            |(
                tag,
                object,
                (meta_delta, payload),
                (consistency, w, opt),
                (secs, pct, code),
                spec,
            )| {
                match tag {
                    0 => Command::Write { object, meta_delta, payload },
                    1 => Command::Read { object, consistency },
                    2 => Command::Peek { object },
                    3 => Command::Level { object },
                    4 => Command::Report { object },
                    5 => Command::DemandResolution { object },
                    6 => Command::Dissatisfied { object, new_weights: (opt == 1).then_some(w) },
                    7 => Command::SetConsistencyMetric {
                        numerical_max: f64::from(pct) + 1.0,
                        order_max: f64::from(pct) + 2.0,
                        staleness_max: SimDuration::from_secs(secs),
                    },
                    8 => Command::SetWeight {
                        numerical: w.numerical,
                        order: w.order,
                        staleness: w.staleness,
                    },
                    9 => Command::SetResolution { code },
                    10 => Command::SetHint { hint: f64::from(pct) / 100.0 },
                    11 => Command::SetBackgroundFreq {
                        period: (opt == 1).then_some(SimDuration::from_secs(secs)),
                    },
                    12 => Command::SetPriority { node: NodeId(u32::from(code)), priority: code },
                    _ => Command::Configure { spec },
                }
            },
        )
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

fn arb_wire_error() -> impl Strategy<Value = WireError> {
    (0u8..12, 0u32..100, prop::collection::vec(0u8..255, 0..20)).prop_map(|(tag, n, bytes)| {
        let text: String = bytes.iter().map(|b| char::from(b' ' + b % 95)).collect();
        match tag {
            0 => WireError::UnknownNode(NodeId(n)),
            1 => WireError::UnknownObject(ObjectId(u64::from(n))),
            2 => WireError::NonConsecutiveSeq {
                writer: WriterId(n),
                expected: u64::from(n) + 1,
                got: u64::from(n) + 3,
            },
            3 => WireError::InvalidParameter(text),
            4 => WireError::InvalidConfig { field: text.clone(), reason: text },
            5 => WireError::NothingToResolve,
            6 => WireError::ResolutionContended,
            7 => WireError::HorizonExceeded,
            8 => WireError::EngineUnavailable(text),
            9 => WireError::Transport(text),
            10 => WireError::Protocol(text),
            _ => WireError::ServerAtCapacity { limit: n },
        }
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..6,
        arb_update(),
        (arb_level(), arb_level(), 0u8..2),
        (0u64..20, 0usize..5_000, -1_000i64..1_000),
        prop::collection::vec((0u32..64).prop_map(NodeId), 0..8),
        arb_wire_error(),
    )
        .prop_map(
            |(tag, update, (level, floor, probed), (counts, updates, meta), members, error)| {
                match tag {
                    0 => Response::Done,
                    1 => Response::Written { update },
                    2 => Response::Value {
                        read: ReadResult {
                            object: update.object,
                            meta,
                            updates,
                            latest_update: (probed == 1).then_some(update.at),
                            level,
                            probed: probed == 1,
                        },
                    },
                    3 => Response::Level { level },
                    4 => Response::Report {
                        report: NodeReport {
                            node: NodeId(3),
                            level,
                            hint_floor: floor,
                            resolutions_initiated: counts,
                            rollbacks: counts / 2,
                            top_members: members,
                            meta,
                            updates,
                        },
                    },
                    _ => Response::Rejected { error },
                }
            },
        )
}

fn arb_vv() -> impl Strategy<Value = VersionVector> {
    prop::collection::btree_map(0u32..16, 1u64..500, 0..6)
        .prop_map(|m| VersionVector::from_pairs(m.into_iter().map(|(w, c)| (WriterId(w), c))))
}

fn arb_suffixes() -> impl Strategy<Value = Suffixes> {
    prop::collection::vec(
        (0u32..16, 1u64..100, prop::collection::vec(0u64..600_000_000, 0..5)),
        0..4,
    )
    .prop_map(|v| {
        let mut suffixes = Suffixes::new();
        for (w, start_seq, times) in v {
            suffixes.push(WriterId(w), start_seq, times.into_iter().map(SimTime));
        }
        suffixes
    })
}

fn arb_reference_wire() -> impl Strategy<Value = ReferenceWire> {
    (0u8..2, 0u8..2, 0u32..8, arb_vv(), prop::collection::vec((0u32..16, 0u64..500), 0..5))
        .prop_map(|(tag, has_winner, winner, counts, diffs)| {
            let winner = (has_winner == 1).then_some(NodeId(winner));
            match tag {
                0 => ReferenceWire::Full(ReferenceState { winner, counts }),
                _ => ReferenceWire::Delta {
                    winner,
                    diffs: diffs.into_iter().map(|(w, c)| (WriterId(w), c)).collect(),
                },
            }
        })
}

// ====================================================================
// Deterministic exhaustive pass: one fixture per variant
// ====================================================================

fn fixture_commands() -> Vec<Command> {
    let obj = ObjectId(7);
    vec![
        Command::Write {
            object: obj,
            meta_delta: -42,
            payload: UpdatePayload::Stroke { x: 3, y: 9, text: "hi".into() },
        },
        Command::Write {
            object: obj,
            meta_delta: 1,
            payload: UpdatePayload::Booking { flight: 12, seats: 2, price_cents: 45_000 },
        },
        Command::Write { object: obj, meta_delta: 0, payload: UpdatePayload::none() },
        Command::Read { object: obj, consistency: ReadConsistency::Any },
        Command::Read {
            object: obj,
            consistency: ReadConsistency::AtLeast(ConsistencyLevel::new(0.87)),
        },
        Command::Read { object: obj, consistency: ReadConsistency::Fresh },
        Command::Peek { object: obj },
        Command::Level { object: obj },
        Command::Report { object: obj },
        Command::DemandResolution { object: obj },
        Command::Dissatisfied { object: obj, new_weights: None },
        Command::Dissatisfied { object: obj, new_weights: Some(Weights::WHITEBOARD) },
        Command::SetConsistencyMetric {
            numerical_max: 10.0,
            order_max: 10.0,
            staleness_max: SimDuration::from_secs(10),
        },
        Command::SetWeight { numerical: 0.2, order: 0.7, staleness: 0.1 },
        Command::SetResolution { code: 2 },
        Command::SetHint { hint: 0.9 },
        Command::SetBackgroundFreq { period: Some(SimDuration::from_secs(20)) },
        Command::SetBackgroundFreq { period: None },
        Command::SetPriority { node: NodeId(5), priority: 9 },
        Command::Configure {
            spec: ConsistencySpec::builder()
                .metric(10.0, 10.0, SimDuration::from_secs(10))
                .weights(0.4, 0.0, 0.6)
                .resolution(ResolutionPolicy::HighestIdWins)
                .hint(0.85)
                .background_every(SimDuration::from_secs(30))
                .build()
                .unwrap(),
        },
        Command::Configure { spec: ConsistencySpec::default() },
    ]
}

fn fixture_responses() -> Vec<Response> {
    vec![
        Response::Done,
        Response::Written {
            update: Update {
                object: ObjectId(7),
                id: UpdateId { writer: WriterId(2), seq: 11 },
                at: SimTime::from_millis(1_234),
                meta_delta: 5,
                payload: UpdatePayload::Opaque(Bytes::from(vec![1, 2, 3])),
            },
        },
        Response::Value {
            read: ReadResult {
                object: ObjectId(7),
                meta: -9,
                updates: 14,
                latest_update: Some(SimTime::from_secs(3)),
                level: ConsistencyLevel::new(0.93),
                probed: true,
            },
        },
        Response::Level { level: ConsistencyLevel::PERFECT },
        Response::Report {
            report: NodeReport {
                node: NodeId(1),
                level: ConsistencyLevel::new(0.5),
                hint_floor: ConsistencyLevel::WORST,
                resolutions_initiated: 3,
                rollbacks: 1,
                top_members: vec![NodeId(0), NodeId(1), NodeId(3)],
                meta: 77,
                updates: 5,
            },
        },
        Response::Rejected { error: WireError::UnknownObject(ObjectId(99)) },
        Response::Rejected { error: WireError::EngineUnavailable("engine worker stopped".into()) },
        Response::Rejected { error: WireError::ServerAtCapacity { limit: 4_096 } },
    ]
}

#[test]
fn every_command_variant_round_trips() {
    for cmd in fixture_commands() {
        let bytes = cmd.to_bytes();
        assert_eq!(Command::from_bytes(&bytes).unwrap(), cmd, "{cmd:?}");
    }
}

#[test]
fn every_response_variant_round_trips() {
    for resp in fixture_responses() {
        let bytes = resp.to_bytes();
        assert_eq!(Response::from_bytes(&bytes).unwrap(), resp, "{resp:?}");
    }
}

/// Decoding must reject every truncation of every fixture — no prefix of a
/// valid encoding is itself valid (self-delimiting check).
#[test]
fn no_fixture_prefix_decodes() {
    for cmd in fixture_commands() {
        let bytes = cmd.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Command::from_bytes(&bytes[..cut]).is_err(),
                "{cmd:?} decoded from a {cut}-byte prefix of {} bytes",
                bytes.len()
            );
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A framed write and its reply, with the exact bytes — header and body —
/// the frame codec wrote when the format was fixed. A round trip alone
/// would pass a change that re-encodes both sides differently; a peer
/// built from another commit would not.
#[test]
fn framed_write_and_reply_match_the_pinned_bytes() {
    let write = Frame {
        request_id: 42,
        node: NodeId(3),
        payload: FramePayload::Command(Command::Write {
            object: ObjectId(7),
            meta_delta: -2,
            payload: UpdatePayload::Stroke { x: 3, y: 9, text: "hi".into() },
        }),
    };
    let written = Frame {
        request_id: 42,
        node: NodeId(3),
        payload: FramePayload::Response(Response::Written {
            update: Update {
                object: ObjectId(7),
                id: UpdateId { writer: WriterId(3), seq: 5 },
                at: SimTime::from_micros(1_234_567),
                meta_delta: -2,
                payload: UpdatePayload::Booking { flight: 12, seats: 2, price_cents: 45_000 },
            },
        }),
    };
    let pins = [
        (
            write,
            "4944454101002d0000002a000000000000000300000001000700000000000000feffffffffffffff01\
             0300090002000000000000006869",
        ),
        (
            written,
            "494445410100430000002a00000000000000030000000201070000000000000003000000050000000000\
             000087d6120000000000feffffffffffffff020c00000002000000c8af000000000000",
        ),
    ];
    for (frame, pinned) in pins {
        let bytes = frame_bytes(&frame).unwrap();
        assert_eq!(hex(&bytes), pinned, "{frame:?}");
        assert_eq!(parse_frame(&bytes).unwrap(), Some((frame, bytes.len())));
    }
}

// ====================================================================
// Property pass
// ====================================================================

proptest! {
    #[test]
    fn random_commands_round_trip(cmd in arb_command()) {
        let bytes = cmd.to_bytes();
        prop_assert_eq!(Command::from_bytes(&bytes).unwrap(), cmd);
    }

    #[test]
    fn random_responses_round_trip(resp in arb_response()) {
        let bytes = resp.to_bytes();
        prop_assert_eq!(Response::from_bytes(&bytes).unwrap(), resp);
    }

    /// The resolution-plane vector forms (PR-8 compaction wire) are
    /// bijective: random summaries, deltas and reference encodings all
    /// survive encode → decode bit-for-bit.
    #[test]
    fn random_vector_forms_round_trip(
        counters in arb_vv(),
        meta in -1_000i64..1_000,
        latest_raw in (0u8..2, 0u64..600_000_000),
        suffixes in arb_suffixes(),
        reference in arb_reference_wire(),
    ) {
        let latest = (latest_raw.0 == 1).then_some(latest_raw.1);
        prop_assert_eq!(
            VersionVector::from_bytes(&counters.to_bytes()).unwrap(),
            counters.clone()
        );
        let summary = VvSummary {
            counters: counters.clone(),
            meta,
            latest: latest.map(SimTime),
            tail: suffixes.clone(),
        };
        prop_assert_eq!(VvSummary::from_bytes(&summary.to_bytes()).unwrap(), summary);
        let delta = VvDelta { counters, meta, latest: latest.map(SimTime), suffixes };
        prop_assert_eq!(VvDelta::from_bytes(&delta.to_bytes()).unwrap(), delta);
        prop_assert_eq!(ReferenceWire::from_bytes(&reference.to_bytes()).unwrap(), reference);
    }

    #[test]
    fn framed_commands_round_trip(cmd in arb_command(), id in 0u64..1_000, node in 0u32..64) {
        let frame = Frame {
            request_id: id,
            node: NodeId(node),
            payload: FramePayload::Command(cmd),
        };
        let wire = frame_bytes(&frame).unwrap();
        prop_assert_eq!(read_frame(&mut &wire[..]).unwrap().unwrap(), frame);
    }

    #[test]
    fn framed_responses_round_trip(resp in arb_response(), id in 1u64..1_000) {
        let frame = Frame {
            request_id: id,
            node: NodeId(0),
            payload: FramePayload::Response(resp),
        };
        let wire = frame_bytes(&frame).unwrap();
        prop_assert_eq!(read_frame(&mut &wire[..]).unwrap().unwrap(), frame);
    }
}

/// A `Rejected` response carrying error tag `tag` and nothing after it.
fn rejected_with_error_tag(tag: u8) -> Vec<u8> {
    let mut bytes = Response::Rejected { error: WireError::NothingToResolve }.to_bytes();
    *bytes.last_mut().unwrap() = tag;
    bytes
}

/// Error tags no variant owns are rejected. Tag 3 was a rollback past the
/// log, which nothing raises any more; past 12 nothing was ever assigned.
#[test]
fn unknown_wire_error_tag_is_rejected() {
    let known = rejected_with_error_tag(6);
    assert_eq!(
        Response::from_bytes(&known).unwrap(),
        Response::Rejected { error: WireError::NothingToResolve }
    );
    for tag in [3u8, 13, 200] {
        let err = Response::from_bytes(&rejected_with_error_tag(tag)).unwrap_err();
        assert_eq!(err.what, "WireError tag out of domain", "tag {tag}");
    }
}

#[test]
fn no_reply_id_is_zero() {
    // The pipelining contract hangs off this constant; pin it.
    assert_eq!(NO_REPLY, 0);
}
