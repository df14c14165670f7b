//! Row-parallel scaling of the encode→score hot path: `encode_batch` and
//! batch `predict` throughput at dim ∈ {2048, 8192} for 1/2/4/8 threads.
//! Reports rows/sec per configuration and the speedup over the
//! single-thread baseline, and writes a JSON summary to
//! `results/parallel.json`.
//!
//! Plain `main` harness (no criterion): the subject is wall-clock batch
//! throughput, and the parallel layer guarantees bit-identical outputs,
//! which this bench re-asserts on every configuration it times.
//!
//! The recorded speedups are only meaningful relative to the `cores`
//! field: on a single-core host every thread count collapses to ~1.0×
//! (the chunks run back-to-back on one CPU); multi-core hosts show the
//! near-linear scaling the layer is built for.

use hdc::rng::HdRng;
use reghd::config::RegHdConfig;
use reghd::{RegHdRegressor, Regressor};

const FEATURES: usize = 8;
const K: usize = 4;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn workload(rows: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
    let mut rng = HdRng::seed_from(seed);
    let xs: Vec<Vec<f32>> = (0..rows)
        .map(|_| (0..FEATURES).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let ys = xs.iter().map(|x| x[0] + x[1] * x[2]).collect();
    (xs, ys)
}

fn trained(dim: usize, xs: &[Vec<f32>], ys: &[f32]) -> RegHdRegressor {
    let cfg = RegHdConfig::builder()
        .dim(dim)
        .models(K)
        .max_epochs(2)
        .min_epochs(1)
        .seed(31)
        .build();
    let mut m = RegHdRegressor::new(
        cfg,
        Box::new(encoding::NonlinearEncoder::new(FEATURES, dim, 31)),
    );
    m.fit(&xs[..xs.len().min(200)], &ys[..ys.len().min(200)]);
    m
}

struct Sample {
    dim: usize,
    threads: usize,
    encode_rps: f64,
    predict_rps: f64,
}

fn bench_dim(dim: usize, rows: usize, out: &mut Vec<Sample>) {
    let (xs, ys) = workload(rows, 77);
    let model = trained(dim, &xs, &ys);

    // Warm-up + sequential reference for the bit-exactness assertion.
    model.set_threads(1);
    let reference: Vec<u32> = model.predict(&xs).iter().map(|p| p.to_bits()).collect();
    let enc_reference = model.encoder().encode_batch(&xs[..xs.len().min(64)], 1);

    for threads in THREADS {
        let start = std::time::Instant::now();
        let encoded = model.encoder().encode_batch(&xs, threads);
        let encode_rps = xs.len() as f64 / start.elapsed().as_secs_f64();
        for (a, b) in encoded.iter().zip(&enc_reference) {
            assert_eq!(a.as_slice(), b.as_slice(), "encode diverged at {threads}t");
        }

        model.set_threads(threads);
        let start = std::time::Instant::now();
        let preds = model.predict(&xs);
        let predict_rps = xs.len() as f64 / start.elapsed().as_secs_f64();
        let got: Vec<u32> = preds.iter().map(|p| p.to_bits()).collect();
        assert_eq!(got, reference, "predict diverged at {threads} threads");

        out.push(Sample {
            dim,
            threads,
            encode_rps,
            predict_rps,
        });
    }
    model.set_threads(1);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let rows = if quick { 64 } else { 2_000 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut samples = Vec::new();
    for dim in [2048usize, 8192] {
        bench_dim(dim, rows, &mut samples);
    }

    let simd = hdc::simd::active_label();
    println!("parallel scaling (k={K}, rows={rows}, cores={cores}, simd={simd})");
    let mut json = format!(
        "{{\n  \"k\": {K},\n  \"rows\": {rows},\n  \"cores\": {cores},\n  \
         \"simd\": \"{simd}\",\n  \"samples\": [\n"
    );
    for (i, s) in samples.iter().enumerate() {
        let base = samples
            .iter()
            .find(|b| b.dim == s.dim && b.threads == 1)
            .expect("1-thread baseline present");
        println!(
            "  dim={:<5} threads={} : encode {:>9.0} rows/sec ({:.2}x)  predict {:>9.0} rows/sec ({:.2}x)",
            s.dim,
            s.threads,
            s.encode_rps,
            s.encode_rps / base.encode_rps,
            s.predict_rps,
            s.predict_rps / base.predict_rps,
        );
        json.push_str(&format!(
            "    {{\"dim\": {}, \"threads\": {}, \"encode_rows_per_sec\": {:.1}, \
             \"predict_rows_per_sec\": {:.1}, \"encode_speedup\": {:.3}, \
             \"predict_speedup\": {:.3}}}{}\n",
            s.dim,
            s.threads,
            s.encode_rps,
            s.predict_rps,
            s.encode_rps / base.encode_rps,
            s.predict_rps / base.predict_rps,
            if i + 1 == samples.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/parallel.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("summary written to {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
