//! Cross-crate bit-exactness of the blocked encode→predict kernels.
//!
//! The contract (see `hdc::kernels` and DESIGN.md): the cache-blocked batch
//! kernels reorder *loops*, never *arithmetic* — every output component is
//! accumulated over `k` in ascending order from `+0.0`, the fold that the
//! scalar `encode()` runs on a batch of one. So the blocked path must be
//! **bit-identical** to the scalar one for every encoder, any dimension
//! (including non-multiples of the tile sizes), any batch size, any thread
//! count, and rows whose projection is a signed zero — and the
//! zero-allocation `predict_batch_with` must be bit-identical to `predict`
//! for every `ClusterMode` × `PredictionMode` combination.
//! `TrigMode::Fast` is the one knob allowed to move results, and only
//! within its documented error bound.

use hdc::kernels::FAST_TRIG_MAX_ABS_ERROR;
use hdc::TrigMode;
use reghd::PredictScratch;
use reghd_repro::prelude::*;

/// Deterministic synthetic rows (no RNG dependency needed).
fn rows(n: usize, f: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..f)
                .map(|j| ((i * 7 + j * 13) % 19) as f32 / 9.5 - 1.0)
                .collect()
        })
        .collect()
}

fn hv_bits(hv: &RealHv) -> Vec<u32> {
    hv.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|p| p.to_bits()).collect()
}

/// Every encoder's blocked batch path must reproduce its scalar `encode`
/// bit for bit — across dims that don't divide the tile sizes, batch
/// sizes around the row-tile width, and thread counts. Each batch also
/// carries an all-`+0.0` and an all-`-0.0` row, whose projections are
/// signed zeros: both paths must start the `k` sum from the same zero.
#[test]
fn blocked_batch_encoding_is_bit_identical_to_scalar_for_every_encoder() {
    for &dim in &[64usize, 127, 128, 129, 257] {
        let encoders: Vec<(&str, Box<dyn Encoder>)> = vec![
            ("nonlinear", Box::new(NonlinearEncoder::new(5, dim, 7))),
            ("rff", Box::new(RffEncoder::new(5, dim, 1.0, 7))),
            ("projection", Box::new(ProjectionEncoder::new(5, dim, 7))),
        ];
        for (name, enc) in &encoders {
            for &n in &[1usize, 3, 4, 5, 11] {
                let mut xs = rows(n, 5);
                xs.push(vec![0.0; 5]);
                xs.push(vec![-0.0; 5]);
                let n = xs.len();
                let want: Vec<Vec<u32>> = xs.iter().map(|x| hv_bits(&enc.encode(x))).collect();
                let mut out = vec![RealHv::default(); n];
                for threads in [1usize, 2, 3] {
                    enc.encode_batch_into(&xs, &mut out, threads);
                    let got: Vec<Vec<u32>> = out.iter().map(hv_bits).collect();
                    assert_eq!(got, want, "{name} dim={dim} n={n} threads={threads}");
                }
            }
        }
    }
}

/// Fast trig is opt-in and bounded: each encoded component stays within a
/// small multiple of `FAST_TRIG_MAX_ABS_ERROR` of the exact value (the
/// nonlinear encoder multiplies two approximated factors, hence the
/// slack), and switching back restores bit-exactness.
#[test]
fn fast_trig_stays_within_documented_bound_and_is_reversible() {
    let xs = rows(9, 5);
    let encoders: Vec<(&str, Box<dyn Encoder>, f32)> = vec![
        (
            "nonlinear",
            Box::new(NonlinearEncoder::new(5, 257, 3)),
            2.5 * FAST_TRIG_MAX_ABS_ERROR,
        ),
        (
            "rff",
            Box::new(RffEncoder::new(5, 257, 1.0, 3)),
            FAST_TRIG_MAX_ABS_ERROR,
        ),
    ];
    for (name, enc, tol) in &encoders {
        let exact: Vec<RealHv> = xs.iter().map(|x| enc.encode(x)).collect();
        enc.set_trig_mode(TrigMode::Fast);
        assert_eq!(enc.trig_mode(), TrigMode::Fast);
        let mut fast = vec![RealHv::default(); xs.len()];
        enc.encode_batch_into(&xs, &mut fast, 1);
        for (i, (e, f)) in exact.iter().zip(&fast).enumerate() {
            for (a, b) in e.as_slice().iter().zip(f.as_slice()) {
                assert!(
                    (a - b).abs() <= *tol,
                    "{name} row {i}: exact={a} fast={b} tol={tol}"
                );
            }
        }
        // The scalar path honours the same knob as the batch path.
        for (x, f) in xs.iter().zip(&fast) {
            assert_eq!(hv_bits(&enc.encode(x)), hv_bits(f), "{name} scalar/batch");
        }
        enc.set_trig_mode(TrigMode::Exact);
        let mut back = vec![RealHv::default(); xs.len()];
        enc.encode_batch_into(&xs, &mut back, 1);
        for (e, b) in exact.iter().zip(&back) {
            assert_eq!(hv_bits(e), hv_bits(b), "{name} must restore exact bits");
        }
    }
}

/// The zero-allocation scratch API must be bit-identical to the plain
/// `predict_batch` for every quantisation combination, with the scratch
/// reused across calls and thread counts.
#[test]
fn predict_batch_with_scratch_is_bit_identical_in_every_mode() {
    let xs = rows(40, 4);
    let ys: Vec<f32> = xs.iter().map(|x| x[0] + 2.0 * x[1] - 0.5 * x[3]).collect();
    let mut scratch = PredictScratch::default();
    for cluster in [
        ClusterMode::Integer,
        ClusterMode::FrameworkBinary,
        ClusterMode::NaiveBinary,
    ] {
        for pred in [
            PredictionMode::Full,
            PredictionMode::BinaryQuery,
            PredictionMode::BinaryModel,
            PredictionMode::BinaryBoth,
        ] {
            let cfg = RegHdConfig::builder()
                .dim(256)
                .models(2)
                .max_epochs(3)
                .min_epochs(1)
                .seed(5)
                .cluster_mode(cluster)
                .prediction_mode(pred)
                .build();
            let mut m = RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(4, 256, 5)));
            m.fit(&xs, &ys);
            let want = m.predict(&xs);
            for threads in [1usize, 2, 4] {
                m.set_threads(threads);
                assert_eq!(
                    bits(&m.predict_batch_with(&xs, &mut scratch)),
                    bits(&want),
                    "{cluster:?}/{pred:?} threads={threads}"
                );
            }
            m.set_threads(1);
            // Degraded (binary-query) replies go through the same engine.
            let deg = m.predict_batch_binary_with(&xs, &mut scratch);
            assert_eq!(deg.len(), xs.len());
            assert!(deg.iter().all(|p| p.is_finite()));
        }
    }
}

/// End-to-end: fast trig moves a trained model's predictions only within
/// a small relative envelope of the exact-mode answers.
#[test]
fn fast_trig_predictions_stay_close_end_to_end() {
    let xs = rows(50, 4);
    let ys: Vec<f32> = xs.iter().map(|x| x[0] - x[2]).collect();
    let cfg = RegHdConfig::builder()
        .dim(512)
        .models(2)
        .max_epochs(4)
        .min_epochs(1)
        .seed(13)
        .build();
    let mut m = RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(4, 512, 13)));
    m.fit(&xs, &ys);
    let exact = m.predict(&xs);
    m.set_trig_mode(TrigMode::Fast);
    assert_eq!(m.trig_mode(), TrigMode::Fast);
    let fast = m.predict(&xs);
    for (e, f) in exact.iter().zip(&fast) {
        assert!(f.is_finite());
        assert!(
            (e - f).abs() <= 0.02 * (1.0 + e.abs()),
            "exact={e} fast={f}"
        );
    }
    m.set_trig_mode(TrigMode::Exact);
    assert_eq!(bits(&m.predict(&xs)), bits(&exact));
}
