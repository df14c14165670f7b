//! Golden output bits of fixed-seed models.
//!
//! Everything a trained bundle serves without `TrigMode::Fast` — the exact
//! full-precision predictions, the bit-packed binary tier, and the int8
//! encodings behind that tier — is a pure function of the training data
//! and seed, and so is every training path: the batch `fit` (with its
//! stopping rule), `refine`, the streaming `OnlineRegHd` (updates,
//! cluster eviction, checkpoint bytes, snapshots) and the single-model
//! learner, and so are the `.rghd` v2 bundle and RGDL delta bytes those
//! models serialise to. This test pins those outputs to checksums recorded
//! once, so a refactor of the trig, SIMD, scoring, training or codec code
//! that claims to leave them alone is checked against the previous code's
//! bits, not only against itself. The values hold at every SIMD dispatch level (the
//! kernels are bit-identical across levels; CI runs this file under both
//! `REGHD_SIMD=scalar` and `REGHD_SIMD=auto`). If a change is *meant* to
//! move these bits, re-record the constants and say why in the change log.

use reghd_repro::encoding::EncoderSpec;
use reghd_repro::hdc::rng::HdRng;
use reghd_repro::prelude::*;
use reghd_repro::reghd::{persist, PredictScratch};
use reghd_serve::bundle;
use reghd_store::ModelDelta;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn checksum(vals: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A closed-form regression set (no RNG): six features, a smooth
/// nonlinear target.
fn rows(n: usize, offset: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
    let xs: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let t = (i + offset) as f32;
            (0..6)
                .map(|j| (t * 0.37 + j as f32 * 1.3).sin() * 2.0 + j as f32 * 0.1)
                .collect()
        })
        .collect();
    let ys = xs
        .iter()
        .map(|x| 3.0 * x[0] - 2.0 * (x[1] * x[2]).sin() + x[3] * x[3] * 0.5 + x[4] - x[5])
        .collect();
    (xs, ys)
}

#[test]
fn exact_and_binary_tier_outputs_match_recorded_bits() {
    let (xs, ys) = rows(240, 0);
    let ds = Dataset::new("golden", xs, ys);
    let (bundle, _) = bundle::train(&ds, 512, 4, 6, 7, false).unwrap();
    let (held_out, _) = rows(64, 1000);

    let exact = bundle.predict(&held_out).unwrap();
    let binary = bundle.predict_binary(&held_out).unwrap();

    // One int8-tier encoding straight from the bundle's encoder (the
    // product-to-sum nonlinear post-op) and one from an RFF encoder (the
    // fast cosine post-op the int8 tier shares with `TrigMode::Fast`).
    let enc = bundle.model().encoder();
    let mut quant = vec![0.0f32; enc.dim()];
    assert!(enc.encode_quantized_into(&held_out[3], &mut quant));
    let rff = RffEncoder::new(6, 517, 1.3, 11);
    let mut rff_quant = vec![0.0f32; rff.dim()];
    assert!(rff.encode_quantized_into(&held_out[5], &mut rff_quant));

    let got = [
        checksum(&exact),
        checksum(&binary),
        checksum(&quant),
        checksum(&rff_quant),
    ];
    let want = [
        0x008c_9174_ccdb_5ab0, // predict (Exact)
        0xf7d9_28a7_9979_fb16, // predict_binary
        0xb8d6_3ef2_7ae4_92d6, // nonlinear encode_quantized_into
        0xadc1_1a87_8717_5e1d, // RFF encode_quantized_into
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}

/// FNV-1a over raw bytes (saved model files).
fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`checksum`] over f64 values (the stream's per-cluster error state).
fn checksum_f64(vals: &[f64]) -> u64 {
    let bytes: Vec<u8> = vals
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    checksum_bytes(&bytes)
}

fn nonlinear_spec(seed: u64) -> EncoderSpec {
    EncoderSpec::Nonlinear {
        input_dim: 6,
        dim: 512,
        seed,
    }
}

/// Everything a stream exposes at one point: the errors `update`
/// returned, the prequential EWMA, the per-cluster errors, the eviction
/// candidate, the `save_online` bytes, and the live and snapshot
/// predictions on `probe`.
fn stream_state(
    online: &OnlineRegHd,
    spec: &EncoderSpec,
    errs: &[f32],
    probe: &[Vec<f32>],
) -> [u64; 7] {
    let mut saved = Vec::new();
    persist::save_online(online, spec, &mut saved).unwrap();
    [
        checksum(errs),
        checksum(&[online.prequential_mse()]),
        checksum_f64(online.cluster_errors()),
        online.worst_cluster() as u64,
        checksum_bytes(&saved),
        checksum(&online.predict(probe)),
        checksum(&online.snapshot(spec).predict(probe)),
    ]
}

#[test]
fn online_stream_matches_recorded_bits() {
    let (xs, ys) = rows(200, 0);
    let (more_xs, more_ys) = rows(64, 300);
    let (probe, _) = rows(32, 500);
    let spec = nonlinear_spec(21);
    let configs = [
        RegHdConfig::builder().dim(512).models(4).seed(21).build(),
        RegHdConfig::builder()
            .dim(512)
            .models(4)
            .cluster_mode(ClusterMode::FrameworkBinary)
            .prediction_mode(PredictionMode::BinaryModel)
            .update_rule(UpdateRule::SharedError)
            .quantize_batch(16)
            .seed(21)
            .build(),
    ];
    let mut got = Vec::new();
    for cfg in configs {
        let mut online = OnlineRegHd::new(cfg, spec.build());
        let errs: Vec<f32> = xs
            .iter()
            .zip(&ys)
            .map(|(x, &y)| online.update(x, y))
            .collect();
        online.quantize_now();
        got.push(stream_state(&online, &spec, &errs, &probe));
        online.reset_cluster(online.worst_cluster());
        let errs: Vec<f32> = more_xs
            .iter()
            .zip(&more_ys)
            .map(|(x, &y)| online.update(x, y))
            .collect();
        got.push(stream_state(&online, &spec, &errs, &probe));
    }
    // Per check: errors, prequential MSE, cluster errors, worst cluster,
    // `save_online` bytes, live predictions, snapshot predictions.
    let want: [[u64; 7]; 4] = [
        // Integer clusters, full scores, confidence-weighted: after
        // `quantize_now`, then after the eviction and 64 more updates.
        [
            0x86ac_6e1b_811a_467b,
            0xef37_1407_6434_7831,
            0xafe1_2b30_d22a_1107,
            2,
            0x4d58_2fd1_0672_897e,
            0xade1_7fa3_0a87_124e,
            0xade1_7fa3_0a87_124e,
        ],
        [
            0x610f_a6c4_5352_94a0,
            0xb11f_2d9a_3ffc_8483,
            0x9056_3dd3_7e5a_d107,
            1,
            0xc9c1_098e_9723_50c9,
            0x65d5_7121_fcab_57cb,
            0x65d5_7121_fcab_57cb,
        ],
        // Binary clusters, binary models re-quantised every 16 samples,
        // shared error: the same two checks.
        [
            0xc2b6_28a8_e693_2061,
            0x7d4d_7f41_9c47_e58f,
            0xfbc7_7057_adbb_8852,
            1,
            0xebe8_e23a_96b3_9efb,
            0xd34e_09f5_0b7f_04ca,
            0xd34e_09f5_0b7f_04ca,
        ],
        [
            0xbfff_d147_86e3_ba99,
            0xa6b6_f912_c6ae_2851,
            0xdf75_85df_fc64_b506,
            2,
            0xbff4_aa2f_668e_bf54,
            0xaf9d_6be2_0bbe_2feb,
            0xddd9_9d45_4a1e_7924,
        ],
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}

#[test]
fn batch_training_paths_match_recorded_bits() {
    let (xs, ys) = rows(240, 0);
    let (new_xs, new_ys) = rows(96, 2000);
    let (probe, _) = rows(32, 1000);
    let saved = |m: &RegHdRegressor, spec: &EncoderSpec| {
        let mut buf = Vec::new();
        persist::save(m, spec, &mut buf).unwrap();
        checksum_bytes(&buf)
    };

    // A quantised fit that stops on the patience rule.
    let spec = nonlinear_spec(31);
    let cfg = RegHdConfig::builder()
        .dim(512)
        .models(4)
        .max_epochs(40)
        .min_epochs(3)
        .convergence_tol(0.05)
        .patience(2)
        .cluster_mode(ClusterMode::FrameworkBinary)
        .prediction_mode(PredictionMode::BinaryQuery)
        .update_rule(UpdateRule::ArgmaxOnly)
        .seed(31)
        .build();
    let mut quant = RegHdRegressor::new(cfg, spec.build());
    let report = quant.fit(&xs, &ys);
    let mut scratch = PredictScratch::default();
    let mut noise = HdRng::seed_from(5);
    let noisy: Vec<f32> = probe
        .iter()
        .map(|x| quant.predict_one_with_noise(x, 0.05, &mut noise))
        .collect();
    let diag = quant.diagnostics(&probe);
    let quant_got = [
        report.epochs as u64,
        u64::from(report.converged),
        checksum(&report.train_mse_history),
        checksum(&quant.predict(&probe)),
        checksum(&quant.predict_batch_binary_with(&probe, &mut scratch)),
        checksum(&noisy),
        checksum(&[diag.mean_confidence_entropy]),
        saved(&quant, &spec),
    ];

    // `refine` on a fitted model whose binary model copies re-quantise
    // every 16 samples inside the epoch.
    let spec = nonlinear_spec(41);
    let cfg = RegHdConfig::builder()
        .dim(512)
        .models(4)
        .max_epochs(5)
        .prediction_mode(PredictionMode::BinaryBoth)
        .update_rule(UpdateRule::SharedError)
        .quantize_batch(16)
        .seed(41)
        .build();
    let mut refined = RegHdRegressor::new(cfg, spec.build());
    let fit = refined.fit(&xs, &ys);
    let refine = refined.refine(&new_xs, &new_ys, 3);
    let refine_got = [
        checksum(&fit.train_mse_history),
        checksum(&refine.train_mse_history),
        checksum(&refined.predict(&probe)),
        checksum(&refined.predict_batch_binary_with(&probe, &mut scratch)),
        saved(&refined, &spec),
    ];

    // The single-model learner of §2.3.
    let cfg = RegHdConfig::builder()
        .dim(512)
        .max_epochs(40)
        .convergence_tol(0.05)
        .patience(2)
        .seed(51)
        .build();
    let mut single = SingleHdRegressor::new(cfg, nonlinear_spec(51).build());
    let report = single.fit(&xs, &ys);
    let single_got = [
        report.epochs as u64,
        u64::from(report.converged),
        checksum(&report.train_mse_history),
        checksum(&single.predict(&probe)),
    ];

    let got = (quant_got, refine_got, single_got);
    let want = (
        [
            13,                    // epochs
            1,                     // converged
            0xfbb0_a31a_8cd2_28d2, // train MSE history
            0x8b52_0a93_3e65_d225, // predict
            0xdd3e_13df_0482_f320, // binary tier
            0xd51c_d373_2137_d2d7, // predict_one_with_noise
            0xaeb0_e55d_ac87_0e47, // diagnostics entropy
            0xb9f8_4230_3354_1934, // persist::save bytes
        ],
        [
            0xae7f_55ce_c5f7_bfff, // fit MSE history
            0xf20b_0fa4_f625_4b62, // refine MSE history
            0x9cee_7fdb_7373_faef, // predict
            0xf050_1805_0786_e49f, // binary tier
            0x5c5f_8597_1c5f_9951, // persist::save bytes
        ],
        [
            8,                     // epochs
            1,                     // converged
            0x7d9b_51aa_e3ec_d470, // train MSE history
            0x0b20_8ca4_284d_1a12, // predict
        ],
    );
    assert_eq!(got, want, "got {got:#018x?}");
}

/// Two bundles trained with one config on shifted rows, and the RGDL delta
/// between them: the `.rghd` v2 and RGDL bytes are pinned, and decoding
/// each image and encoding it again reproduces it byte for byte.
#[test]
fn bundle_and_delta_bytes_match_recorded_bits() {
    let train = |offset| {
        let (xs, ys) = rows(240, offset);
        let (b, _) = bundle::train(&Dataset::new("golden", xs, ys), 512, 4, 6, 7, false).unwrap();
        b.to_bytes().unwrap()
    };
    let (base, next) = (train(0), train(100));
    let delta = ModelDelta::compute(&base, 1, &next)
        .unwrap()
        .expect("one shape, so the images have one length");
    let wire = delta.to_bytes();

    for image in [&base, &next] {
        let decoded = bundle::ModelBundle::from_bytes(image).unwrap();
        assert_eq!(&decoded.to_bytes().unwrap(), image);
    }
    assert_eq!(ModelDelta::from_bytes(&wire).unwrap(), delta);
    assert_eq!(delta.apply(&base).unwrap(), next);

    let got = [
        base.len() as u64,
        checksum_bytes(&base),
        next.len() as u64,
        checksum_bytes(&next),
        wire.len() as u64,
        checksum_bytes(&wire),
    ];
    let want = [
        18_952,                // base image length
        0x0100_44d1_8a44_b1bf, // base image bytes
        18_952,                // next image length
        0xa59b_ab8b_e773_e0d4, // next image bytes
        18_883,                // delta length
        0xaed3_66b1_23b8_50d1, // delta bytes
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}
