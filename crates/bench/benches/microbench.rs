//! Criterion micro-benchmarks of IDEA's building blocks.
//!
//! These time the computational cost of the pieces the paper's delays are
//! made of (vector comparison, triple computation — a settled detection
//! round costs one — Formula-1 quantification, store operations); the
//! end-to-end table/figure scenarios live in `figures.rs`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use idea_core::{MaxBounds, Quantifier, Weights};
use idea_store::Replica;
use idea_types::{ObjectId, SimTime, Update, WriterId};
use idea_vv::{ExtendedVersionVector, VersionVector};

fn evv_with(writers: u32, updates_each: u64) -> ExtendedVersionVector {
    let mut v = ExtendedVersionVector::new();
    for w in 0..writers {
        for s in 1..=updates_each {
            v.record(WriterId(w), s, SimTime::from_secs(s), 1);
        }
    }
    v
}

fn bench_version_vectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("version-vector");
    for writers in [4u32, 16, 64] {
        let a = VersionVector::from_pairs((0..writers).map(|w| (WriterId(w), w as u64 + 1)));
        let b = VersionVector::from_pairs((0..writers).map(|w| (WriterId(w), w as u64 + 2)));
        group.bench_with_input(BenchmarkId::new("compare", writers), &writers, |bench, _| {
            bench.iter(|| black_box(a.compare(&b)))
        });
        group.bench_with_input(BenchmarkId::new("merge", writers), &writers, |bench, _| {
            bench.iter(|| black_box(a.merged(&b)))
        });
    }
    group.finish();
}

fn bench_triple(c: &mut Criterion) {
    let mut group = c.benchmark_group("extended-vv");
    for updates in [10u64, 50, 200] {
        let a = evv_with(4, updates);
        let b = evv_with(4, updates + 3);
        group.bench_with_input(
            BenchmarkId::new("triple_against", updates * 4),
            &updates,
            |bench, _| bench.iter(|| black_box(a.triple_against(&b))),
        );
    }
    group.finish();
}

fn bench_quantify(c: &mut Criterion) {
    let q = Quantifier::new(Weights::EQUAL, MaxBounds::PAPER_EXAMPLE);
    let a = evv_with(4, 40);
    let b = evv_with(4, 43);
    let triple = a.triple_against(&b);
    c.bench_function("formula1_quantify", |bench| {
        bench.iter(|| black_box(q.level(black_box(&triple))))
    });
}

fn bench_store(c: &mut Criterion) {
    c.bench_function("replica_apply_100", |bench| {
        bench.iter(|| {
            let mut r = Replica::new(ObjectId(1));
            for s in 1..=100u64 {
                let u = Update::opaque(ObjectId(1), WriterId(0), s, SimTime::from_secs(s), 1);
                r.apply(u).expect("in order");
            }
            black_box(r.len())
        })
    });
}

criterion_group!(benches, bench_version_vectors, bench_triple, bench_quantify, bench_store,);
criterion_main!(benches);
