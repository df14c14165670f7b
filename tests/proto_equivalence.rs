//! RGNP vs in-process equivalence: the network front-end must be
//! behaviour-free. For every quantisation mode (ClusterMode ×
//! PredictionMode), an RGNP reply carries exactly the bits that
//! `ModelBundle::predict` (full tier) or `ModelBundle::predict_binary`
//! (binary tier, requested or server-degraded) compute in process, and the
//! `LIST` payload is exactly the `model_line` rendering of the registry.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use reghd_repro::prelude::*;
use reghd_repro::reghd_net::client::PredictReply;
use reghd_repro::reghd_net::frame::PredictionTier;
use reghd_repro::reghd_net::{serve_rgnp, NetConfig, RgnpClient};
use reghd_repro::reghd_serve::admin::model_line;
use reghd_repro::reghd_serve::bundle::ModelBundle;
use reghd_repro::reghd_serve::registry::ModelRegistry;
use reghd_repro::{encoding::EncoderSpec, reghd::RegHdConfig};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn trained(cm: ClusterMode, pm: PredictionMode, seed: u64) -> ModelBundle {
    let rows: Vec<Vec<f32>> = (0..60)
        .map(|i| vec![i as f32 / 30.0, (i % 5) as f32])
        .collect();
    let ys: Vec<f32> = rows.iter().map(|r| 2.0 * r[0] - r[1]).collect();
    let spec = EncoderSpec::Nonlinear {
        input_dim: 2,
        dim: 128,
        seed: seed ^ 0xC11,
    };
    let cfg = RegHdConfig::builder()
        .dim(128)
        .models(2)
        .seed(seed)
        .max_epochs(4)
        .cluster_mode(cm)
        .prediction_mode(pm)
        .build();
    let mut model = RegHdRegressor::new(cfg, spec.build());
    model.fit(&rows, &ys);
    ModelBundle::from_trained(model, vec![0.0; 2], vec![1.0; 2], 0.0, 1.0, &rows).unwrap()
}

/// The f32 bits of a reply with the expected status, panicking otherwise.
fn reply_bits(reply: PredictReply, want_degraded: bool, what: &str) -> u32 {
    match (reply, want_degraded) {
        (PredictReply::Ok(y), false) | (PredictReply::Degraded(y), true) => y.to_bits(),
        (other, _) => panic!("{what}: unexpected reply {other:?}"),
    }
}

#[test]
fn rgnp_predicts_bit_identically_to_in_process_across_all_modes() {
    let cluster_modes = [
        ClusterMode::Integer,
        ClusterMode::FrameworkBinary,
        ClusterMode::NaiveBinary,
    ];
    let prediction_modes = [
        PredictionMode::Full,
        PredictionMode::BinaryQuery,
        PredictionMode::BinaryModel,
        PredictionMode::BinaryBoth,
    ];
    let registry = Arc::new(ModelRegistry::new());
    let mut names = Vec::new();
    let mut seed = 40u64;
    for cm in cluster_modes {
        for pm in prediction_modes {
            let name = format!("m-{cm:?}-{pm:?}").to_lowercase();
            let bundle = trained(cm, pm, seed);
            registry
                .load_bytes(&name, &bundle.to_bytes().unwrap())
                .unwrap();
            names.push(name);
            seed += 1;
        }
    }
    assert_eq!(names.len(), 12);

    let handle = serve_rgnp(
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            pollers: 2,
            ..NetConfig::default()
        },
        registry.clone(),
    )
    .unwrap();
    let mut rgnp = RgnpClient::connect(&handle.local_addr().to_string()).unwrap();
    rgnp.set_timeout(Some(Duration::from_secs(10))).unwrap();

    let probe_rows: Vec<Vec<f32>> = vec![vec![0.25, 1.0], vec![1.5, 3.0], vec![-0.5, 4.0]];
    for name in &names {
        let served = registry.get(name).unwrap();
        let full = served.bundle.predict(&probe_rows).unwrap();
        let binary = served.bundle.predict_binary(&probe_rows).unwrap();
        for (i, row) in probe_rows.iter().enumerate() {
            // Full-precision tier through the batcher.
            let got = reply_bits(rgnp.predict(name, row).unwrap(), false, name);
            assert_eq!(got, full[i].to_bits(), "{name} full row {row:?}");
            // Binary tier requested by the client.
            let got = reply_bits(
                rgnp.predict_tier(name, row, PredictionTier::Binary)
                    .unwrap(),
                true,
                name,
            );
            assert_eq!(got, binary[i].to_bits(), "{name} binary row {row:?}");
        }
        // Binary tier chosen by the server: a corrupt-flagged model is
        // answered through the same §3.2 fallback.
        served.corrupt.store(true, Ordering::Relaxed);
        for (i, row) in probe_rows.iter().enumerate() {
            let got = reply_bits(rgnp.predict(name, row).unwrap(), true, name);
            assert_eq!(got, binary[i].to_bits(), "{name} degraded row {row:?}");
        }
        served.corrupt.store(false, Ordering::Relaxed);
    }

    // The inventory is the registry's `model_line` rendering, name-sorted.
    let want: Vec<String> = registry.list().iter().map(model_line).collect();
    assert_eq!(rgnp.list().unwrap(), want.join("\n"));

    handle.shutdown();
}

/// Lower-case hex of `bytes`.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Golden RGNP frames: the codec's bytes for fixed requests and replies,
/// recorded once, so a change to the encoders or decoders cannot move the
/// wire format unnoticed. Every frame also decodes back to its inputs.
#[test]
fn rgnp_frames_match_recorded_bytes() {
    use reghd_repro::reghd_net::frame::{self, status, FrameBuf, Step, DEFAULT_MAX_FRAME};

    let row = [1.5f32, -0.25, 3.0e-39];
    let rows = [vec![0.5f32, -1.0], vec![f32::MAX, 0.0]];
    let replies = [(status::OK, 2.5f32), (status::DEGRADED, -0.125)];
    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); 6];
    frame::encode_predict_tier(&mut frames[0], 1, "m-1", &row, PredictionTier::Full);
    frame::encode_predict_tier(&mut frames[1], 2, "m-1", &row, PredictionTier::Binary);
    frame::encode_predict_batch_tier(&mut frames[2], 3, "fleet", &rows, PredictionTier::Full);
    frame::encode_predict_batch_tier(&mut frames[3], 4, "fleet", &rows, PredictionTier::Binary);
    frame::encode_value_reply(&mut frames[4], status::DEGRADED, u64::MAX, -7.75);
    frame::encode_batch_reply(&mut frames[5], 0x0102_0304_0506_0708, &replies);

    let got: Vec<String> = frames.iter().map(|f| hex(f)).collect();
    let want = [
        // PREDICT, full tier: no tier byte.
        "1e00000001010000000000000003006d2d31030000000000c03f000080bec8aa2000",
        // PREDICT, binary tier: the trailing tier byte 01.
        "1f00000001020000000000000003006d2d31030000000000c03f000080bec8aa200001",
        // PREDICT_BATCH, full tier, 2 rows × 2 columns.
        "280000000203000000000000000500666c65657402000000020000000000003f000080bfffff7f7f00000000",
        // PREDICT_BATCH, binary tier.
        "290000000204000000000000000500666c65657402000000020000000000003f000080bfffff7f7f0000000001",
        // DEGRADED value reply.
        "0d00000001ffffffffffffffff0000f8c0",
        // Batch reply: frame status DEGRADED, then (status, value) rows.
        "1700000001080706050403020102000000000000204001000000be",
    ];
    assert_eq!(got, want);

    let mut buf = FrameBuf::new();
    buf.extend(&frames.concat());
    let mut next = || match buf.next_frame(DEFAULT_MAX_FRAME) {
        Step::Ready(f) => f,
        other => panic!("expected a frame, got {other:?}"),
    };
    for (id, tier) in [(1, PredictionTier::Full), (2, PredictionTier::Binary)] {
        let f = next();
        assert_eq!(f.req_id, id);
        let req = frame::decode_predict(&f.payload).unwrap();
        assert_eq!(
            (req.model, req.row.as_slice(), req.tier),
            ("m-1", &row[..], tier)
        );
    }
    for (id, tier) in [(3, PredictionTier::Full), (4, PredictionTier::Binary)] {
        let f = next();
        assert_eq!(f.req_id, id);
        let req = frame::decode_predict_batch(&f.payload).unwrap();
        assert_eq!(
            (req.model, req.rows.as_slice(), req.tier),
            ("fleet", &rows[..], tier)
        );
    }
    let f = next();
    assert_eq!((f.kind, f.req_id), (status::DEGRADED, u64::MAX));
    assert_eq!(frame::decode_value_reply(&f.payload).unwrap(), -7.75);
    let f = next();
    assert_eq!(
        f.kind,
        status::DEGRADED,
        "a batch reply's status is its worst row's"
    );
    assert_eq!(frame::decode_batch_reply(&f.payload).unwrap(), replies);
    assert!(buf.is_empty());
}
