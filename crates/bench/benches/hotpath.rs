//! Criterion micro-benchmarks of the detection hot path at realistic
//! history depths.
//!
//! Complements `microbench.rs`: these sweep history size (10 / 100 / 1 000
//! updates) over exactly the operations the wire-compaction work rewrote —
//! `record`, the cached `counters` view, the merge-walk `triple_against`,
//! `adopt`, the compact `summary`/`suffix_since` encodes, and classic
//! `missing_from` — so regressions in the allocation-free paths show up
//! directly. The timer-wheel and gossip-digest groups cover the two
//! structures the lazy-gossip work added to the hot path: the engine's
//! `(at, seq)`-ordered timer queue and the IHAVE advertisement codec.
//! The collect-delta and fetch-chunk groups time the shared binary codec
//! (`idea_types::codec`) on the resolution plane's compact forms: the
//! `VvDelta` collect answer (cost must track divergence, not history
//! depth) and the chunked `FetchReply` batch. Node-to-node `IdeaMsg`s are
//! never encoded today — the simulated wire charges `IdeaMsg::wire_size`'s
//! estimate — so these groups price the encoding those forms would get.
//! The frame group times the one encoding that does ship on every served
//! request: a framed `Command::Write` and its `Response::Written`.
//! The gossip-receipt group times the per-layer work of one rumor receipt
//! on warm state: the top layer learning a 16-writer counter vector, and
//! the router's duplicate check and plan on its terminal and relay paths.
//! The object-table group times a dense `ObjectTable` lookup when the
//! tables do not fit in cache, the case where the probe's cache lines are
//! the cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use idea_core::{Command, Response};
use idea_net::TimerWheel;
use idea_overlay::gossip::{decode_digest, encode_digest, Receipt, RumorId};
use idea_overlay::{GossipConfig, GossipRouter, Peers, TopLayer, TopLayerConfig};
use idea_transport::frame::{encode_into, frame_bytes, parse_frame, Frame, FramePayload};
use idea_types::codec::Codec;
use idea_types::{
    FastSet, NodeId, ObjectId, ObjectTable, SimDuration, SimTime, Update, UpdateId, UpdatePayload,
    WriterId,
};
use idea_vv::{ExtendedVersionVector, VersionVector, VvDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// History sizes swept: total updates spread over four writers.
const SIZES: [u64; 3] = [10, 100, 1_000];

fn evv_total(total: u64) -> ExtendedVersionVector {
    let mut v = ExtendedVersionVector::new();
    for i in 0..total {
        let w = WriterId((i % 4) as u32);
        v.record(w, i / 4 + 1, SimTime::from_secs(i + 1), 1);
    }
    v
}

/// A copy of `base` with one extra update per writer (small divergence —
/// the steady-state shape detection sees).
fn diverged(base: &ExtendedVersionVector) -> ExtendedVersionVector {
    let mut v = base.clone();
    for w in 0..4u32 {
        let writer = WriterId(w);
        v.record(writer, v.count(writer) + 1, SimTime::from_secs(10_000 + w as u64), 1);
    }
    v
}

fn bench_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("evv-record");
    for &total in &SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(total), &total, |b, &total| {
            b.iter(|| black_box(evv_total(total)))
        });
    }
    group.finish();
}

fn bench_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("evv-counters");
    for &total in &SIZES {
        let v = evv_total(total);
        group.bench_with_input(BenchmarkId::from_parameter(total), &total, |b, _| {
            // Cached view: must be O(1) regardless of history depth.
            b.iter(|| black_box(v.counters().total()))
        });
    }
    group.finish();
}

fn bench_triple_against(c: &mut Criterion) {
    let mut group = c.benchmark_group("evv-triple-against");
    for &total in &SIZES {
        let a = evv_total(total);
        let b = diverged(&a);
        group.bench_with_input(BenchmarkId::from_parameter(total), &total, |bench, _| {
            bench.iter(|| black_box(a.triple_against(&b)))
        });
    }
    group.finish();
}

fn bench_adopt(c: &mut Criterion) {
    let mut group = c.benchmark_group("evv-adopt");
    for &total in &SIZES {
        let a = evv_total(total);
        let b = diverged(&a);
        group.bench_with_input(BenchmarkId::from_parameter(total), &total, |bench, _| {
            bench.iter(|| {
                let mut v = a.clone();
                black_box(v.adopt(&b))
            })
        });
    }
    group.finish();
}

fn bench_wire_forms(c: &mut Criterion) {
    let mut group = c.benchmark_group("evv-wire");
    for &total in &SIZES {
        let a = evv_total(total);
        let b = diverged(&a);
        group.bench_with_input(BenchmarkId::new("summary", total), &total, |bench, _| {
            bench.iter(|| black_box(b.summary(8)))
        });
        group.bench_with_input(BenchmarkId::new("suffix_since", total), &total, |bench, _| {
            bench.iter(|| black_box(b.suffix_since(a.counters())))
        });
    }
    group.finish();
}

fn bench_missing_from(c: &mut Criterion) {
    let mut group = c.benchmark_group("vv-missing-from");
    for &total in &SIZES {
        let a = evv_total(total);
        let b = diverged(&a);
        let (ca, cb): (&VersionVector, &VersionVector) = (a.counters(), b.counters());
        group.bench_with_input(BenchmarkId::from_parameter(total), &total, |bench, _| {
            bench.iter(|| black_box(ca.missing_from(cb)))
        });
    }
    group.finish();
}

/// Timer counts swept for the wheel benches: a busy shard's in-flight
/// timer population (detect deadlines, sweep deadlines, pull and flush
/// timers) sits in the hundreds-to-tens-of-thousands range.
const TIMERS: [u64; 3] = [100, 1_000, 10_000];

/// Spread deadline for timer `i`: multiplicative-hash scatter over a ~1 M
/// tick horizon, exercising all wheel levels instead of one hot slot.
fn deadline(i: u64) -> u64 {
    (i.wrapping_mul(7919)) % 1_048_576
}

fn wheel_with(n: u64) -> TimerWheel<u64> {
    let mut w = TimerWheel::new();
    for i in 0..n {
        w.push(deadline(i), i, i);
    }
    w
}

/// The `SimEngine` timer-queue operations the heap-to-wheel swap rewrote:
/// schedule (push at scattered deadlines), fire (drain in `(at, seq)`
/// order, cascading across levels), and cancel (the engine's tombstone
/// set, checked as each entry pops). A drained wheel is not reusable, so
/// `fire` and `cancel` rebuild inside the measured routine — subtract the
/// `schedule` entry for the pop-side cost alone.
fn bench_timer_wheel(c: &mut Criterion) {
    let mut group = c.benchmark_group("timer-wheel");
    for &n in &TIMERS {
        group.bench_with_input(BenchmarkId::new("schedule", n), &n, |bench, &n| {
            bench.iter(|| black_box(wheel_with(n)))
        });
        group.bench_with_input(BenchmarkId::new("fire", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut w = wheel_with(n);
                while let Some(e) = w.pop() {
                    black_box(e);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("cancel", n), &n, |bench, &n| {
            bench.iter(|| {
                // Half the timers are cancelled before they fire —
                // tombstoned exactly like `SimEngine::cancel_timer`.
                let mut w = wheel_with(n);
                let mut cancelled: FastSet<u64> = (0..n).filter(|i| i % 2 == 0).collect();
                while let Some((at, seq, id)) = w.pop() {
                    if cancelled.remove(&id) {
                        continue;
                    }
                    black_box((at, seq, id));
                }
            })
        });
    }
    group.finish();
}

/// Advertisement batch sizes swept for the digest codec: a piggybacked
/// entry or two is the common case, a flush-timer batch the tail.
const DIGESTS: [usize; 3] = [1, 16, 128];

fn digest_entries(len: usize) -> Vec<(RumorId, u8)> {
    (0..len).map(|i| (RumorId { origin: NodeId((i % 64) as u32), seq: i as u32 }, 4)).collect()
}

/// The lazy gossip plane's wire codec: IHAVE advertisements encode at
/// [`idea_overlay::gossip::DIGEST_ENTRY_BYTES`] per entry and decode on
/// every detect message carrying piggybacked digests.
fn bench_digest_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("gossip-digest");
    for &len in &DIGESTS {
        let entries = digest_entries(len);
        let bytes = encode_digest(&entries);
        group.bench_with_input(BenchmarkId::new("encode", len), &len, |bench, _| {
            bench.iter(|| black_box(encode_digest(&entries)))
        });
        group.bench_with_input(BenchmarkId::new("decode", len), &len, |bench, _| {
            bench.iter(|| black_box(decode_digest(&bytes)))
        });
    }
    group.finish();
}

/// Per-writer suffix depths swept for the collect-delta codec: how far
/// the probed member is ahead of the initiator's summary. One extra
/// update per writer is the steady-state divergence; hundreds is the
/// catching-up-after-partition tail.
const DELTA_DEPTHS: [u64; 3] = [1, 16, 256];

/// The compact collect answer: a [`VvDelta`] carved by `suffix_since`
/// from a 1,000-update history, through the shared [`Codec`]. Cost must
/// scale with the *divergence*, never the history depth — that is the
/// whole point of the delta form.
fn bench_collect_delta_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("collect-delta-wire");
    for &depth in &DELTA_DEPTHS {
        let base = evv_total(1_000);
        let mut ahead = base.clone();
        for w in 0..4u32 {
            let writer = WriterId(w);
            for i in 0..depth {
                ahead.record(writer, ahead.count(writer) + 1, SimTime::from_secs(20_000 + i), 1);
            }
        }
        let delta = ahead.suffix_since(base.counters());
        let bytes = delta.to_bytes();
        group.bench_with_input(BenchmarkId::new("encode", depth), &depth, |bench, _| {
            bench.iter(|| black_box(delta.to_bytes()))
        });
        group.bench_with_input(BenchmarkId::new("decode", depth), &depth, |bench, _| {
            bench.iter(|| black_box(VvDelta::from_bytes(&bytes).expect("round trip")))
        });
    }
    group.finish();
}

/// Fetch chunk sizes swept: the `max_fetch_updates` bounds the
/// end-to-end tests pin, with 64 as the large-chunk tail.
const FETCH_CHUNKS: [usize; 3] = [1, 7, 64];

fn update_chunk(len: usize) -> Vec<Update> {
    (0..len)
        .map(|i| Update {
            object: ObjectId(1),
            id: UpdateId { writer: WriterId((i % 4) as u32), seq: (i / 4 + 1) as u64 },
            at: SimTime::from_secs(i as u64 + 1),
            meta_delta: 1,
            payload: UpdatePayload::none(),
        })
        .collect()
}

/// One chunked `FetchReply`'s update batch through the shared [`Codec`] —
/// the encoding cost of splitting a backlog into `max_fetch_updates`-sized
/// chunks instead of one unbounded reply.
fn bench_fetch_chunk_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("fetch-chunk-wire");
    for &len in &FETCH_CHUNKS {
        let chunk = update_chunk(len);
        let bytes = chunk.to_bytes();
        group.bench_with_input(BenchmarkId::new("encode", len), &len, |bench, _| {
            bench.iter(|| black_box(chunk.to_bytes()))
        });
        group.bench_with_input(BenchmarkId::new("decode", len), &len, |bench, _| {
            bench.iter(|| black_box(Vec::<Update>::from_bytes(&bytes).expect("round trip")))
        });
    }
    group.finish();
}

/// The served write path's two frames: the client's `Command::Write` and
/// the server's `Response::Written`, header and body, encoded in place
/// and parsed back — what the benchmark's `transport.encode_ns_p50` and
/// `transport.decode_ns_p50` time end to end.
fn bench_frame_codec(c: &mut Criterion) {
    let update = update_chunk(1).remove(0);
    let frames = [
        (
            "write",
            FramePayload::Command(Command::Write {
                object: update.object,
                meta_delta: update.meta_delta,
                payload: update.payload.clone(),
            }),
        ),
        ("written", FramePayload::Response(Response::Written { update })),
    ];
    let mut group = c.benchmark_group("frame-codec");
    for (name, payload) in frames {
        let frame = Frame { request_id: 42, node: NodeId(3), payload };
        let bytes = frame_bytes(&frame).expect("under the frame cap");
        let mut out = Vec::with_capacity(bytes.len());
        group.bench_function(BenchmarkId::new("encode", name), |bench| {
            bench.iter(|| {
                out.clear();
                encode_into(black_box(&frame), &mut out).expect("under the frame cap");
                black_box(out.len())
            })
        });
        group.bench_function(BenchmarkId::new("parse", name), |bench| {
            bench.iter(|| black_box(parse_frame(black_box(&bytes)).expect("well formed")))
        });
    }
    group.finish();
}

/// Writers per object on `sim_gossip_fanout`, and the deployment size.
const RECEIPT_WRITERS: u32 = 16;
const RECEIPT_NODES: usize = 640;

/// One rumor receipt's layers on warm state. `observe_counts` learns a
/// 16-writer counter vector in which one writer advanced (what a sweep
/// rumor usually brings); `on_receive` takes a fresh rumor from one of 16
/// origins it already holds a window for, on the terminal path (ttl 0)
/// and on the relay path, whose plan is walked as the sender would.
fn bench_gossip_receipt(c: &mut Criterion) {
    let mut group = c.benchmark_group("gossip-receipt");
    let cfg = TopLayerConfig::default();
    let mut layer = TopLayer::new(&cfg);
    let mut counts: Vec<(NodeId, u64)> = (0..RECEIPT_WRITERS).map(|w| (NodeId(w), 1)).collect();
    let mut now = SimTime::from_secs(1);
    layer.observe_counts(&cfg, counts.iter().copied(), now);
    let mut k = 0;
    group.bench_function(BenchmarkId::from_parameter("observe-counts"), |bench| {
        bench.iter(|| {
            k += 1;
            counts[k % RECEIPT_WRITERS as usize].1 += 1;
            now += SimDuration::from_millis(5);
            layer.observe_counts(&cfg, black_box(counts.iter().copied()), now);
        })
    });
    let gossip = GossipConfig::default();
    let peers = Peers { me: NodeId(17), n: RECEIPT_NODES };
    for (name, ttl) in [("receive-terminal", 0u8), ("receive-relay", 3)] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut router = GossipRouter::default();
        let mut seq = 0u32;
        let mut next = || {
            seq += 1;
            RumorId { origin: NodeId(seq % RECEIPT_WRITERS), seq: seq / RECEIPT_WRITERS }
        };
        for _ in 0..RECEIPT_WRITERS {
            let _ = router.on_receive(&gossip, next(), 3, None, peers, &mut rng);
        }
        group.bench_function(BenchmarkId::from_parameter(name), |bench| {
            bench.iter(|| {
                let id = next();
                match router.on_receive(&gossip, id, ttl, Some(NodeId(1)), peers, &mut rng) {
                    Receipt::Relay(plan) => {
                        black_box(plan.eager().chain(plan.lazy()).map(|p| p.0).sum::<u32>())
                    }
                    _ => 0,
                }
            })
        });
    }
    group.finish();
}

/// Ids per table (objects per node on `sim_gossip_fanout`), and tables
/// enough that together they outgrow any L2.
const TABLE_IDS: u64 = 64;
const TABLES: usize = 512;

/// `ObjectTable::get` on dense 64-id tables of 240-byte entries (an
/// `ObjShared`'s size), 8 MB in all, visited in a scattered order so
/// nearly every lookup starts cold.
fn bench_object_table(c: &mut Criterion) {
    let tables: Vec<ObjectTable<[u64; 30]>> = (0..TABLES)
        .map(|t| {
            let mut table = ObjectTable::with_capacity(TABLE_IDS as usize);
            for (slot, id) in (1..=TABLE_IDS).enumerate() {
                table.insert_at(slot, ObjectId(id), [t as u64 ^ id; 30]);
            }
            table
        })
        .collect();
    let mut group = c.benchmark_group("object-table");
    let mut i = 0usize;
    group.bench_function(BenchmarkId::from_parameter("get-dense-cold"), |bench| {
        bench.iter(|| {
            // A stride coprime to both sizes walks every (table, id) pair.
            i = i.wrapping_add(7_919);
            let table = &tables[i % TABLES];
            let id = ObjectId(1 + (i / TABLES) as u64 % TABLE_IDS);
            black_box(table.get(id).map_or(0, |e| e[29]))
        })
    });
    group.finish();
}

criterion_group!(
    hotpath,
    bench_record,
    bench_counters,
    bench_triple_against,
    bench_adopt,
    bench_wire_forms,
    bench_missing_from,
    bench_timer_wheel,
    bench_digest_codec,
    bench_collect_delta_codec,
    bench_fetch_chunk_codec,
    bench_frame_codec,
    bench_gossip_receipt,
    bench_object_table
);
criterion_main!(hotpath);
