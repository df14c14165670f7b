//! Single-thread throughput of the blocked encode kernels: scalar
//! (per-row `encode`) vs cache-blocked batch (`encode_batch_into`,
//! threads=1) vs blocked + `TrigMode::Fast`, at dim ∈ {2048, 8192} and
//! batch ∈ {1, 32, 256}. Writes a JSON summary to
//! `results/encode_kernels.json`.
//!
//! Plain `main` harness (no criterion): the subject is wall-clock rows/sec,
//! and the blocked path guarantees bit-identical outputs in Exact mode,
//! which this bench re-asserts on every configuration it times.
//!
//! Unlike `parallel_scaling`, every number here is **single-thread**: the
//! blocked speedup comes from weight-tile reuse (cache blocking) and
//! unrolled independent accumulators (instruction-level parallelism), not
//! from extra cores, so it holds on a 1-core host. Fast trig adds a
//! second, opt-in multiplier on top by replacing libm `sin`/`cos` with the
//! `hdc::kernels::fast_sin`/`fast_cos` polynomial pair (all-f32 range
//! reduction, 8 AVX2 / 4 NEON lanes; error bound
//! `hdc::kernels::FAST_TRIG_MAX_ABS_ERROR`).

use encoding::Encoder;
use hdc::rng::HdRng;
use hdc::{RealHv, TrigMode};

const FEATURES: usize = 64;
const DIMS: [usize; 2] = [2048, 8192];
const BATCHES: [usize; 3] = [1, 32, 256];

fn workload(rows: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = HdRng::seed_from(seed);
    (0..rows)
        .map(|_| (0..FEATURES).map(|_| rng.next_gaussian() as f32).collect())
        .collect()
}

struct Sample {
    dim: usize,
    batch: usize,
    scalar_rps: f64,
    blocked_rps: f64,
    fast_rps: f64,
}

/// Times `f` over `iters` repetitions and returns rows/sec.
fn time_rps(rows_per_iter: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    (rows_per_iter * iters) as f64 / start.elapsed().as_secs_f64()
}

fn bench_config(dim: usize, batch: usize, target_rows: usize, out: &mut Vec<Sample>) {
    let enc = encoding::NonlinearEncoder::new(FEATURES, dim, 41);
    let xs = workload(batch, 41 + dim as u64 + batch as u64);
    // Scale the repeat count so every configuration touches roughly the
    // same number of rows (at least one pass each).
    let iters = (target_rows / batch).max(1);

    // Correctness gate before timing: the blocked path must be
    // bit-identical to the scalar one in Exact mode.
    let mut buf = vec![RealHv::default(); batch];
    enc.encode_batch_into(&xs, &mut buf, 1);
    for (x, got) in xs.iter().zip(&buf) {
        let want = enc.encode(x);
        assert_eq!(
            want.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            got.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "blocked kernel diverged at dim={dim} batch={batch}"
        );
    }

    let scalar_rps = time_rps(batch, iters, || {
        for x in &xs {
            std::hint::black_box(enc.encode(x));
        }
    });
    let blocked_rps = time_rps(batch, iters, || {
        enc.encode_batch_into(&xs, &mut buf, 1);
        std::hint::black_box(&buf);
    });
    enc.set_trig_mode(TrigMode::Fast);
    let fast_rps = time_rps(batch, iters, || {
        enc.encode_batch_into(&xs, &mut buf, 1);
        std::hint::black_box(&buf);
    });
    enc.set_trig_mode(TrigMode::Exact);

    out.push(Sample {
        dim,
        batch,
        scalar_rps,
        blocked_rps,
        fast_rps,
    });
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let target_rows = if quick { 32 } else { 2_048 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut samples = Vec::new();
    for dim in DIMS {
        for batch in BATCHES {
            bench_config(dim, batch, target_rows, &mut samples);
        }
    }

    let simd = hdc::simd::active_label();
    println!("encode kernels (features={FEATURES}, target_rows={target_rows}, cores={cores}, simd={simd}, single-thread)");
    let mut json = format!(
        "{{\n  \"features\": {FEATURES},\n  \"target_rows\": {target_rows},\n  \
         \"cores\": {cores},\n  \"simd\": \"{simd}\",\n  \"threads\": 1,\n  \"samples\": [\n"
    );
    for (i, s) in samples.iter().enumerate() {
        let blocked_speedup = s.blocked_rps / s.scalar_rps;
        let fast_speedup = s.fast_rps / s.scalar_rps;
        println!(
            "  dim={:<5} batch={:<4}: scalar {:>9.0} rows/s  blocked {:>9.0} rows/s ({:.2}x)  \
             blocked+fast {:>9.0} rows/s ({:.2}x)",
            s.dim, s.batch, s.scalar_rps, s.blocked_rps, blocked_speedup, s.fast_rps, fast_speedup,
        );
        json.push_str(&format!(
            "    {{\"dim\": {}, \"batch\": {}, \"scalar_rows_per_sec\": {:.1}, \
             \"blocked_rows_per_sec\": {:.1}, \"fast_rows_per_sec\": {:.1}, \
             \"blocked_speedup\": {:.3}, \"fast_speedup\": {:.3}}}{}\n",
            s.dim,
            s.batch,
            s.scalar_rps,
            s.blocked_rps,
            s.fast_rps,
            blocked_speedup,
            fast_speedup,
            if i + 1 == samples.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/encode_kernels.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("summary written to {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
