//! Criterion micro-benchmarks for the encoding stage (paper §2.2).
//!
//! Backs the per-operation latencies behind the Figure 8/9 efficiency
//! model: encoding cost scales with `n × D`, and the binary encoding adds
//! only a sign-quantisation pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use encoding::{Encoder, IdLevelEncoder, NonlinearEncoder, ProjectionEncoder, RffEncoder};
use hdc::rng::HdRng;

fn input(n: usize) -> Vec<f32> {
    let mut rng = HdRng::seed_from(1);
    (0..n).map(|_| rng.next_gaussian() as f32).collect()
}

fn bench_encoders(c: &mut Criterion) {
    let n = 10;
    let x = input(n);
    let mut group = c.benchmark_group("encode/by-encoder");
    let dim = 2048;
    let nonlinear = NonlinearEncoder::new(n, dim, 0);
    let rff = RffEncoder::new(n, dim, 1.0, 0);
    let proj = ProjectionEncoder::new(n, dim, 0);
    let idl = IdLevelEncoder::new(n, dim, 32, (-3.0, 3.0), 0);
    group.bench_function("nonlinear(cos*sin)", |b| b.iter(|| nonlinear.encode(&x)));
    group.bench_function("rff(cos)", |b| b.iter(|| rff.encode(&x)));
    group.bench_function("projection(linear)", |b| b.iter(|| proj.encode(&x)));
    group.bench_function("id-level", |b| b.iter(|| idl.encode(&x)));
    group.finish();
}

fn bench_encode_dims(c: &mut Criterion) {
    let n = 10;
    let x = input(n);
    let mut group = c.benchmark_group("encode/by-dimension");
    for dim in [512usize, 1024, 2048, 4096] {
        let enc = NonlinearEncoder::new(n, dim, 0);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| enc.encode(&x))
        });
    }
    group.finish();
}

fn bench_encode_binary(c: &mut Criterion) {
    let n = 10;
    let x = input(n);
    let dim = 2048;
    let enc = NonlinearEncoder::new(n, dim, 0);
    let mut group = c.benchmark_group("encode/precision");
    group.bench_function("real-only", |b| b.iter(|| enc.encode(&x)));
    group.bench_function("real+binary", |b| b.iter(|| enc.encode(&x).binarize()));
    group.finish();
}

criterion_group!(
    benches,
    bench_encoders,
    bench_encode_dims,
    bench_encode_binary
);
criterion_main!(benches);
