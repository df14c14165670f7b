//! Integration tests for the §3 quantisation framework across crates:
//! every cluster-mode × prediction-mode combination must train, stay
//! finite, and land in a sane quality band.

use reghd_repro::prelude::*;
use reghd_repro::reghd::PredictScratch;

fn task() -> (Vec<Vec<f32>>, Vec<f32>) {
    // Smooth nonlinear 3-feature task with mild noise.
    let mut rng = reghd_repro::hdc::rng::HdRng::seed_from(21);
    let xs: Vec<Vec<f32>> = (0..400)
        .map(|_| (0..3).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let ys = xs
        .iter()
        .map(|x: &Vec<f32>| {
            x[0] - 0.5 * x[1] + (1.5 * x[2]).sin() + 0.05 * rng.next_gaussian() as f32
        })
        .collect();
    (xs, ys)
}

fn fit_mse(cluster: ClusterMode, pred: PredictionMode, seed: u64) -> f32 {
    let (xs, ys) = task();
    let cfg = RegHdConfig::builder()
        .dim(1024)
        .models(4)
        .max_epochs(20)
        .cluster_mode(cluster)
        .prediction_mode(pred)
        .seed(seed)
        .build();
    let enc = NonlinearEncoder::new(3, 1024, seed);
    let mut m = RegHdRegressor::new(cfg, Box::new(enc));
    m.fit(&xs, &ys);
    datasets::metrics::mse(&m.predict(&xs), &ys)
}

#[test]
fn every_mode_combination_trains_and_stays_finite() {
    for cluster in [
        ClusterMode::Integer,
        ClusterMode::FrameworkBinary,
        ClusterMode::NaiveBinary,
    ] {
        for pred in PredictionMode::ALL {
            let mse = fit_mse(cluster, pred, 1);
            assert!(
                mse.is_finite(),
                "{cluster:?} × {pred:?} produced non-finite MSE"
            );
        }
    }
}

#[test]
fn variance_floor_holds_for_all_quantised_modes() {
    let (_, ys) = task();
    let mean: f32 = ys.iter().sum::<f32>() / ys.len() as f32;
    let var: f32 = ys.iter().map(|&y| (y - mean) * (y - mean)).sum::<f32>() / ys.len() as f32;
    for pred in PredictionMode::ALL {
        let mse = fit_mse(ClusterMode::FrameworkBinary, pred, 2);
        assert!(
            mse < var,
            "{pred:?}: quantised training failed to beat the variance floor ({mse} vs {var})"
        );
    }
}

#[test]
fn binary_query_is_close_to_full_precision() {
    // The paper's preferred quantised configuration loses only ~1.5%.
    // Allow a generous band here, but it must be *close*.
    let full = fit_mse(ClusterMode::FrameworkBinary, PredictionMode::Full, 3);
    let bq = fit_mse(ClusterMode::FrameworkBinary, PredictionMode::BinaryQuery, 3);
    assert!(
        bq < full * 1.6 + 0.01,
        "binary-query mse {bq} strayed too far from full {full}"
    );
}

#[test]
fn quantize_batch_controls_feedback_granularity() {
    // With a whole-epoch quantize_batch the binary-model feedback loop goes
    // stale and quality degrades versus a per-64-samples refresh.
    let (xs, ys) = task();
    let run = |batch: usize| {
        let cfg = RegHdConfig::builder()
            .dim(1024)
            .models(4)
            .max_epochs(15)
            .prediction_mode(PredictionMode::BinaryModel)
            .quantize_batch(batch)
            .seed(4)
            .build();
        let enc = NonlinearEncoder::new(3, 1024, 4);
        let mut m = RegHdRegressor::new(cfg, Box::new(enc));
        m.fit(&xs, &ys);
        datasets::metrics::mse(&m.predict(&xs), &ys)
    };
    let fine = run(64);
    let stale = run(100_000); // effectively per-epoch
    assert!(
        fine < stale,
        "per-batch refresh ({fine}) must beat stale per-epoch refresh ({stale})"
    );
}

#[test]
fn binarize_then_rebinarize_is_stable() {
    // Quantisation idempotence at the bank level, through the public API:
    // predicting twice gives identical results (no hidden mutable state in
    // the prediction path).
    let (xs, ys) = task();
    let cfg = RegHdConfig::builder()
        .dim(512)
        .models(4)
        .max_epochs(8)
        .prediction_mode(PredictionMode::BinaryBoth)
        .seed(5)
        .build();
    let enc = NonlinearEncoder::new(3, 512, 5);
    let mut m = RegHdRegressor::new(cfg, Box::new(enc));
    m.fit(&xs, &ys);
    let p1 = m.predict_one(&xs[0]);
    let p2 = m.predict_one(&xs[0]);
    assert_eq!(p1, p2);
}

#[test]
fn hamming_and_cosine_search_agree_on_sign_patterns() {
    // Cross-crate consistency: for ±1 data the quantised cluster search
    // must rank candidates exactly as the cosine search does.
    use reghd_repro::hdc::rng::HdRng;
    use reghd_repro::hdc::similarity::{cosine, hamming_similarity};
    let mut rng = HdRng::seed_from(6);
    let dim = 2048;
    let q = BipolarHv::random(dim, &mut rng);
    let candidates: Vec<BipolarHv> = (0..10).map(|_| BipolarHv::random(dim, &mut rng)).collect();
    let cos_rank: Vec<usize> = {
        let mut idx: Vec<usize> = (0..10).collect();
        idx.sort_by(|&a, &b| {
            cosine(&candidates[b].to_real(), &q.to_real())
                .total_cmp(&cosine(&candidates[a].to_real(), &q.to_real()))
        });
        idx
    };
    let ham_rank: Vec<usize> = {
        let mut idx: Vec<usize> = (0..10).collect();
        idx.sort_by(|&a, &b| {
            hamming_similarity(&candidates[b].to_binary(), &q.to_binary()).total_cmp(
                &hamming_similarity(&candidates[a].to_binary(), &q.to_binary()),
            )
        });
        idx
    };
    assert_eq!(cos_rank, ham_rank);
}

/// Property: the bit-packed popcount tier is *exactly* the unpacked §3.2
/// computation, across every `ClusterMode` × `PredictionMode` combination.
///
/// For a handful of rows this rebuilds the whole binary-tier pipeline from
/// public pieces with naive, unpacked arithmetic — per-bit sign threshold
/// instead of the movemask pack, per-bit Hamming counts instead of XOR +
/// popcount, an i64 ±1 signed dot instead of `D − 2·ham` — and demands the
/// served prediction match bit-for-bit. A prime dimension keeps the partial
/// final `u64` word of every packed buffer in play.
#[test]
fn packed_popcount_tier_matches_unpacked_computation() {
    use reghd_repro::hdc::{simd, similarity};
    let (xs, ys) = task();
    let dim = 257;
    for cluster in [
        ClusterMode::Integer,
        ClusterMode::FrameworkBinary,
        ClusterMode::NaiveBinary,
    ] {
        for pred in PredictionMode::ALL {
            let cfg = RegHdConfig::builder()
                .dim(dim)
                .models(4)
                .max_epochs(6)
                .cluster_mode(cluster)
                .prediction_mode(pred)
                .seed(11)
                .build();
            let enc = NonlinearEncoder::new(3, dim, 11);
            let mut m = RegHdRegressor::new(cfg, Box::new(enc));
            m.fit(&xs, &ys);

            let rows = &xs[..8];
            let got = m.predict_batch_binary_with(rows, &mut PredictScratch::default());
            for (i, x) in rows.iter().enumerate() {
                // Encode + centre exactly like the tier does.
                let mut vals = vec![0.0f32; dim];
                if !m.encoder().encode_quantized_into(x, &mut vals) {
                    vals.copy_from_slice(m.encoder().encode(x).as_slice());
                }
                if let Some(center) = m.center() {
                    for (v, &c) in vals.iter_mut().zip(center.as_slice()) {
                        *v -= c;
                    }
                }

                // Pack two ways: naive per-bit thresholding vs the
                // SIMD-dispatched sign pack (seeded with garbage to prove
                // the pack overwrites every word).
                let naive = BinaryHv::from_bits(dim, vals.iter().map(|&v| v > 0.0));
                let mut words = vec![u64::MAX; dim.div_ceil(64)];
                simd::pack_signs(&vals, &mut words);
                assert_eq!(
                    words.as_slice(),
                    naive.as_words(),
                    "{cluster:?} x {pred:?} row {i}: packed words diverge from per-bit pack"
                );

                // Amplitude statistic (same fixed-order fused sums the tier
                // uses; their agreement with a naive sum is covered by the
                // hdc unit tests).
                let (sum_abs, sum_sq) = simd::abs_sq_sums(&vals);
                let mut s_amp = (sum_abs / dim as f64) as f32;
                if m.config().normalize_encodings {
                    let norm = sum_sq.sqrt();
                    if norm > 0.0 {
                        s_amp = ((sum_abs / dim as f64) / norm) as f32;
                    }
                }

                // Cluster confidences from naive per-bit Hamming counts.
                let sims: Vec<f32> = m
                    .clusters()
                    .binary_clusters()
                    .iter()
                    .map(|c| {
                        let ham = (0..dim).filter(|&d| naive.get(d) != c.get(d)).count();
                        assert_eq!(
                            ham,
                            similarity::hamming_distance(&naive, c),
                            "{cluster:?} x {pred:?} row {i}: popcount Hamming diverges"
                        );
                        1.0 - 2.0 * ham as f32 / dim as f32
                    })
                    .collect();
                let mut conf = Vec::new();
                similarity::softmax_into(&sims, m.config().softmax_beta, &mut conf);

                // §3.2 scores from the unpacked ±1 views: an i64 signed dot
                // must equal D − 2·ham of the packed copies, then one
                // multiply by the paired amplitudes.
                let scores: Vec<f32> = m
                    .models()
                    .integer_models()
                    .iter()
                    .map(|mi| {
                        let a = (mi.as_slice().iter().map(|&v| v.abs() as f64).sum::<f64>()
                            / dim as f64) as f32;
                        let dot: i64 = vals
                            .iter()
                            .zip(mi.as_slice())
                            .map(|(&q, &w)| {
                                let qs: i64 = if q > 0.0 { 1 } else { -1 };
                                let ws: i64 = if w > 0.0 { 1 } else { -1 };
                                qs * ws
                            })
                            .sum();
                        let ham = similarity::hamming_distance(&mi.binarize(), &naive) as i64;
                        assert_eq!(
                            dot,
                            dim as i64 - 2 * ham,
                            "{cluster:?} x {pred:?} row {i}: ±1 dot != D − 2·popcount"
                        );
                        a * s_amp * dot as f32
                    })
                    .collect();

                let want: f32 =
                    conf.iter().zip(&scores).map(|(&c, &s)| c * s).sum::<f32>() + m.intercept();
                assert_eq!(
                    got[i].to_bits(),
                    want.to_bits(),
                    "{cluster:?} x {pred:?} row {i}: tier {} != unpacked {}",
                    got[i],
                    want
                );
            }
        }
    }
}
