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
