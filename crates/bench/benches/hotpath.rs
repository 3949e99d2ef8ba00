//! Criterion micro-benchmarks of the detection hot path at realistic
//! history depths.
//!
//! Complements `microbench.rs`: these sweep history size (10 / 100 / 1 000
//! updates) over exactly the operations the wire-compaction work rewrote —
//! `record`, the cached `counters` view, the merge-walk `triple_against`,
//! `adopt`, the copies a detection or collect round makes (a snapshot
//! `clone`, a cut `prefix`, a `reconstruct`ed peer), the compact
//! `summary`/`suffix_since` encodes, and classic `missing_from` — so
//! regressions in the allocation-free paths show up directly. The event-queue group times `SimEngine`'s `(at, seq)`-ordered
//! queue through its public API, and the gossip-digest and body-cache
//! groups the two structures the lazy-gossip plane adds to the hot path:
//! the IHAVE advertisement codec and the ring of bodies kept for pulls.
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
//! the cost. The WAL group times the last hop of a served write: one
//! group-commit window of appends into a log in the temp directory,
//! `fdatasync` included, so the figure is the disk's as much as the code's.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use idea_core::{Command, Response};
use idea_net::{Context, MsgClass, Proto, SimConfig, SimEngine, Topology, Wire};
use idea_overlay::gossip::{decode_digest, encode_digest, Receipt, RumorCache, RumorId};
use idea_overlay::{GossipConfig, GossipRouter, Peers, TopLayer, TopLayerConfig};
use idea_transport::frame::{encode_into, frame_bytes, parse_frame, Frame, FramePayload};
use idea_types::codec::Codec;
use idea_types::{
    NodeId, ObjectId, ObjectTable, SimDuration, SimTime, Update, UpdateId, UpdatePayload, WriterId,
};
use idea_vv::{ExtendedVersionVector, VersionVector, VvDelta};
use idea_wal::{DurabilityConfig, ShardWal, WalRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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

/// What a round copies: a snapshot of the replica's vector (`clone`), a
/// vector cut back to half of every writer's history (`prefix`, a clone
/// then `truncate_to`) and a peer's vector rebuilt from its delta over the
/// snapshot (`reconstruct`, one update ahead per writer).
fn bench_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("evv-clone");
    for &total in &SIZES {
        let a = evv_total(total);
        let half = VersionVector::from_pairs(a.counters().iter().map(|(w, n)| (w, n.div_ceil(2))));
        let delta = diverged(&a).suffix_since(a.counters());
        group.bench_with_input(BenchmarkId::new("clone", total), &total, |bench, _| {
            bench.iter(|| black_box(a.clone()))
        });
        group.bench_with_input(BenchmarkId::new("prefix", total), &total, |bench, _| {
            bench.iter(|| {
                let mut v = a.clone();
                v.truncate_to(&half, 0);
                black_box(v)
            })
        });
        group.bench_with_input(BenchmarkId::new("reconstruct", total), &total, |bench, _| {
            bench.iter(|| black_box(a.reconstruct(&delta)))
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

/// Timer counts swept for the event-queue benches: a busy shard's
/// in-flight timer population (detect deadlines, sweep deadlines, pull and
/// flush timers) sits in the hundreds-to-tens-of-thousands range.
const TIMERS: [u64; 3] = [100, 1_000, 10_000];

/// Spread delay for timer `i`: multiplicative-hash scatter over a ~1 M
/// µs horizon, so pushes and pops land all over the queue.
fn deadline(i: u64) -> u64 {
    (i.wrapping_mul(7919)) % 1_048_576
}

/// A protocol that only owns timers, so the event-queue group times
/// nothing but `SimEngine`'s queue.
struct Idle;

/// `Idle`'s message type: never sent.
#[derive(Debug, Clone)]
struct Never;

impl Wire for Never {
    fn class(&self) -> MsgClass {
        MsgClass::App
    }
}

impl Proto for Idle {
    type Msg = Never;
    fn on_message(&mut self, _: NodeId, _: Never, _: &mut dyn Context<Never>) {}
}

/// A one-node engine with `n` timers armed at scattered deadlines, every
/// even one cancelled right away when `cancel_half`.
fn engine_with(n: u64, cancel_half: bool) -> SimEngine<Idle> {
    let mut eng = SimEngine::new(Topology::lan(1), SimConfig::default(), vec![Idle]);
    eng.with_node(NodeId(0), |_, ctx| {
        for i in 0..n {
            let timer = ctx.set_timer(SimDuration::from_micros(deadline(i)), i);
            if cancel_half && i % 2 == 0 {
                ctx.cancel_timer(timer);
            }
        }
    });
    eng
}

/// The engine's timer-queue operations: schedule (arm at scattered
/// deadlines), fire (run every timer in `(at, seq)` order) and cancel
/// (half the timers tombstoned, skipped as they pop). Each routine builds
/// its engine, so subtract the `schedule` entry for the pop-side cost.
fn bench_event_queue(c: &mut Criterion) {
    let horizon = SimTime::from_micros(1 << 20);
    let mut group = c.benchmark_group("event-queue");
    for &n in &TIMERS {
        group.bench_with_input(BenchmarkId::new("schedule", n), &n, |bench, &n| {
            bench.iter(|| black_box(engine_with(n, false)))
        });
        group.bench_with_input(BenchmarkId::new("fire", n), &n, |bench, &n| {
            bench.iter(|| engine_with(n, false).run_until(horizon))
        });
        group.bench_with_input(BenchmarkId::new("cancel", n), &n, |bench, &n| {
            bench.iter(|| engine_with(n, true).run_until(horizon))
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

/// Bodies the lazy plane keeps per object for answering pulls.
const BODY_CAP: usize = 1024;

/// Rumor `seq` of one origin.
fn rumor(seq: u32) -> RumorId {
    RumorId { origin: NodeId(7), seq }
}

/// The lazy plane's body cache, full: per iteration, one turn of relays
/// (1,024 fresh inserts, each evicting the oldest), then 1,024 pulls of
/// held bodies (each id once, so the scan depth averages out) and 1,024
/// pulls of a body no longer held.
fn bench_body_cache(c: &mut Criterion) {
    let body = Arc::new(evv_total(64).counters().clone());
    let mut cache = RumorCache::<Arc<VersionVector>, BODY_CAP>::default();
    let mut next = 0u32;
    for _ in 0..BODY_CAP {
        cache.insert(rumor(next), Arc::clone(&body), true);
        next += 1;
    }
    let mut group = c.benchmark_group("body-cache");
    group.bench_function(BenchmarkId::from_parameter("insert-at-cap"), |bench| {
        bench.iter(|| {
            for _ in 0..BODY_CAP {
                cache.insert(rumor(next), Arc::clone(&body), true);
                next += 1;
            }
        })
    });
    let held = next - BODY_CAP as u32..next;
    group.bench_function(BenchmarkId::from_parameter("pull-hit-at-cap"), |bench| {
        bench.iter(|| held.clone().filter(|&seq| cache.get(rumor(seq)).is_some()).count())
    });
    group.bench_function(BenchmarkId::from_parameter("pull-miss-at-cap"), |bench| {
        bench.iter(|| (0..BODY_CAP as u32).filter(|&seq| cache.get(rumor(seq)).is_some()).count())
    });
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

/// The served deployment's group-commit window.
const WAL_WINDOW: u64 = 32;

/// One full group-commit window on a served shard's WAL: 32 appends of a
/// whiteboard-stroke write record, the last one carrying the window's
/// `fdatasync`. The log keeps growing across iterations, so appends cross
/// zero-filled chunk boundaries at the rate a served shard does.
fn bench_wal_sync_window(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("idea-bench-wal-{}", std::process::id()));
    let cfg = DurabilityConfig::sync_grouped(&dir, WAL_WINDOW);
    let mut wal = ShardWal::create(&cfg, NodeId(0), 0).expect("create the bench WAL");
    let mut update = update_chunk(1).remove(0);
    update.payload = UpdatePayload::Stroke { x: 12, y: 34, text: "abcdefghijklmnop".into() };
    let rec = WalRecord::Write { update };
    let mut group = c.benchmark_group("wal-sync-window");
    group.bench_function(BenchmarkId::from_parameter("32-appends"), |bench| {
        bench.iter(|| {
            for _ in 0..WAL_WINDOW {
                wal.append(black_box(&rec)).expect("append");
            }
        })
    });
    group.finish();
    drop(wal);
    std::fs::remove_dir_all(&dir).expect("remove the bench WAL");
}

criterion_group!(
    hotpath,
    bench_record,
    bench_counters,
    bench_triple_against,
    bench_adopt,
    bench_clone,
    bench_wire_forms,
    bench_missing_from,
    bench_event_queue,
    bench_digest_codec,
    bench_collect_delta_codec,
    bench_fetch_chunk_codec,
    bench_frame_codec,
    bench_gossip_receipt,
    bench_object_table,
    bench_body_cache,
    bench_wal_sync_window
);
criterion_main!(hotpath);
