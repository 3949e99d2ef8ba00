//! Post-run probes: call one layer's public functions directly, on inputs
//! the workload produced, so a layer's unit cost is visible apart from the
//! pipeline it normally runs in.

use crate::stats::Samples;
use idea::prelude::{
    ExtendedVersionVector, IdeaConfig, NodeId, ObjectId, SimTime, Update, UpdatePayload, WriterId,
};
use idea::store::StoreShard;
use idea_wal::{DurabilityConfig, ShardWal, WalRecord};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Updates each probe replays.
pub const PROBE_UPDATES: usize = 10_000;

/// One generated write, as the store sees it.
pub struct ProbeWrite {
    pub object: ObjectId,
    pub meta_delta: i64,
    pub payload: UpdatePayload,
}

#[derive(Debug, Default)]
pub struct StoreProbe {
    pub write_ns_p50: f64,
    pub ingest_ns_p50: f64,
    pub read_ns_p50: f64,
}

/// Replays `writes` into a fresh `StoreShard` (timing `write`), ingests
/// the resulting updates into a second one (timing `ingest`), then reads
/// every written object back (timing `read`). Returns the updates too, as
/// input for the WAL probe.
pub fn store(writes: &[ProbeWrite]) -> (StoreProbe, Vec<Update>) {
    let mut local = StoreShard::new(NodeId(0), WriterId(0));
    let mut remote = StoreShard::new(NodeId(1), WriterId(1));
    let mut write_ns = Samples::with_capacity(writes.len());
    let mut updates = Vec::with_capacity(writes.len());
    for (i, w) in writes.iter().enumerate() {
        let at = SimTime(i as u64 * 1_000);
        let t = Instant::now();
        let update = local.write(w.object, at, w.meta_delta, w.payload.clone());
        write_ns.push(t.elapsed().as_nanos() as u64);
        updates.push(update);
    }
    let mut ingest_ns = Samples::with_capacity(updates.len());
    for update in &updates {
        remote.open(update.object);
        let update = update.clone();
        let t = Instant::now();
        black_box(remote.ingest(update).expect("replica opened"));
        ingest_ns.push(t.elapsed().as_nanos() as u64);
    }
    let mut read_ns = Samples::with_capacity(writes.len());
    for w in writes {
        let t = Instant::now();
        black_box(remote.read(w.object).expect("replica opened"));
        read_ns.push(t.elapsed().as_nanos() as u64);
    }
    let probe = StoreProbe {
        write_ns_p50: write_ns.percentile(50.0),
        ingest_ns_p50: ingest_ns.percentile(50.0),
        read_ns_p50: read_ns.percentile(50.0),
    };
    (probe, updates)
}

#[derive(Debug, Default)]
pub struct WalProbe {
    /// Appends that only reached the page cache.
    pub append_us_p50: f64,
    /// Appends that closed a group-commit window and paid its `fdatasync`.
    pub sync_us_p50: f64,
}

/// Appends `updates` to a fresh `ShardWal` under `cfg`, timing each call.
pub fn wal(cfg: &DurabilityConfig, updates: &[Update]) -> WalProbe {
    let mut wal = ShardWal::create(cfg, NodeId(0), 0).expect("create probe WAL");
    let (mut plain, mut synced) = (Samples::default(), Samples::default());
    for update in updates {
        let record = WalRecord::Write { update: update.clone() };
        let t = Instant::now();
        wal.append(&record).expect("append to probe WAL");
        let ns = t.elapsed().as_nanos() as u64;
        if wal.unsynced_records() == 0 {
            synced.push(ns);
        } else {
            plain.push(ns);
        }
    }
    WalProbe {
        append_us_p50: plain.percentile(50.0) / 1e3,
        sync_us_p50: synced.percentile(50.0) / 1e3,
    }
}

#[derive(Debug, Default)]
pub struct VvProbe {
    pub triple_against_ns: f64,
    pub summary_encode_ns: f64,
}

/// Times `triple_against` over every ordered pair of `vectors`, and
/// building each vector's wire summary with the default `summary_tail`.
pub fn vv(vectors: &[ExtendedVersionVector]) -> VvProbe {
    // Deep histories make one pass cost milliseconds; repeat only until
    // the total is long enough to time.
    const ENOUGH: Duration = Duration::from_millis(50);
    let summary_tail = IdeaConfig::default().summary_tail;
    let pairs: Vec<(usize, usize)> = (0..vectors.len())
        .flat_map(|a| (0..vectors.len()).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    if pairs.is_empty() {
        return VvProbe::default();
    }
    let per_call_ns = |pass: &dyn Fn(), calls: usize| {
        let (t, mut passes) = (Instant::now(), 0);
        while passes == 0 || t.elapsed() < ENOUGH {
            pass();
            passes += 1;
        }
        t.elapsed().as_nanos() as f64 / (passes * calls) as f64
    };
    let triple_against_ns = per_call_ns(
        &|| {
            for &(a, b) in &pairs {
                black_box(black_box(&vectors[a]).triple_against(black_box(&vectors[b])));
            }
        },
        pairs.len(),
    );
    let summary_encode_ns = per_call_ns(
        &|| {
            for v in vectors {
                black_box(black_box(v).summary(summary_tail));
            }
        },
        vectors.len(),
    );
    VvProbe { triple_against_ns, summary_encode_ns }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
