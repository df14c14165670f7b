//! End-to-end train-while-serve: an RGNP server answers predictions out of
//! a live registry while, in the same process, the streaming trainer chases
//! an abruptly drifting stream — detecting the drift, republishing
//! checkpoints into the registry (canary-gated), and exposing its counters
//! through the `train-status` opcode.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use datasets::drift::{DriftKind, DriftStream};
use reghd_net::client::PredictReply;
use reghd_net::{serve_rgnp, NetConfig, RgnpClient};
use reghd_serve::registry::ModelRegistry;
use reghd_train::detect::EwmaDetector;
use reghd_train::pipeline::{DriftAction, PublishTarget, Trainer, TrainerConfig};
use reghd_train::source::DriftSource;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Root-mean-square of an error window.
fn rmse(errs: &[f32]) -> f32 {
    (errs.iter().map(|e| e * e).sum::<f32>() / errs.len() as f32).sqrt()
}

#[test]
fn trainer_chases_abrupt_drift_while_serving() {
    const FEATURES: usize = 3;
    const PERIOD: usize = 1500; // one abrupt drift mid-run
    const SAMPLES: u64 = 3000;

    let registry = Arc::new(ModelRegistry::new());
    let stream = DriftStream::new(FEATURES, PERIOD, DriftKind::Abrupt, 42);
    let mut source = DriftSource::new(stream, FEATURES, "drift:abrupt:e2e");

    let cfg = TrainerConfig {
        dim: 1024,
        models: 2,
        seed: 42,
        max_samples: Some(SAMPLES),
        checkpoint_every: Some(500),
        checkpoint_dir: None, // registry-only publication
        drift_action: DriftAction::ResetWorstCluster,
        record_errors: true,
        ..TrainerConfig::default()
    };
    let mut trainer = Trainer::new(cfg, FEATURES)
        .with_detector(Box::new(EwmaDetector::default()))
        .with_publish(PublishTarget {
            registry: registry.clone(),
            name: "live".to_string(),
        });
    let status = trainer.status();

    let server = serve_rgnp(
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            train_status: Some(status.clone()),
            ..NetConfig::default()
        },
        registry.clone(),
    )
    .unwrap();
    let addr = server.local_addr();

    let trainer_thread = std::thread::spawn(move || {
        let report = trainer.run(&mut source).unwrap();
        (trainer, report)
    });

    // While the trainer runs: wait for the first publication, then serve
    // predictions from the just-published model over the wire.
    let mut conn = RgnpClient::connect(&addr.to_string()).unwrap();
    conn.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while registry.get("live").is_none() {
        assert!(Instant::now() < deadline, "trainer never published");
        std::thread::sleep(Duration::from_millis(10));
    }
    let y = match conn.predict("live", &[0.1, -0.2, 0.3]).unwrap() {
        PredictReply::Ok(y) | PredictReply::Degraded(y) => y,
        other => panic!("expected an answer, got {other:?}"),
    };
    assert!(y.is_finite());

    // The live status is visible over the protocol mid-run.
    let ts = conn.train_status().unwrap().unwrap();
    assert!(ts.starts_with("train samples="), "{ts}");

    let (_trainer, report) = trainer_thread.join().unwrap();

    // --- the acceptance criteria ---

    // Drift was detected …
    assert!(report.drift_events >= 1, "no drift detected: {report:?}");
    let first_drift = status.last_drift_sample().expect("status records drift");
    assert!(
        (PERIOD as u64..SAMPLES).contains(&first_drift) || report.drift_events > 1,
        "drift recorded at {first_drift}, concept switches at {PERIOD}"
    );

    // … checkpoints were republished into the live registry with zero
    // canary failures …
    assert_eq!(report.canary_failures, 0, "{report:?}");
    assert!(report.publications >= 2, "{report:?}");
    let served = registry.get("live").unwrap();
    assert!(
        served.meta.version >= 2,
        "republication must bump the served version: {:?}",
        served.meta
    );

    // … and the prequential error recovered: the post-drift steady state
    // is within 1.5× of the pre-drift steady state.
    let errs = &report.errors;
    assert_eq!(errs.len(), SAMPLES as usize);
    let pre = rmse(&errs[PERIOD - 300..PERIOD]);
    let spike = rmse(&errs[PERIOD..PERIOD + 100]);
    let post = rmse(&errs[SAMPLES as usize - 300..]);
    assert!(
        spike > pre,
        "abrupt drift must spike the error: pre {pre}, spike {spike}"
    );
    assert!(
        post < 1.5 * pre,
        "post-drift steady state {post} did not recover within 1.5x of pre-drift {pre}"
    );

    // Final protocol check: train-status reflects the finished run.
    let ts = conn.train_status().unwrap().unwrap();
    assert!(ts.contains(&format!("samples={SAMPLES}")), "{ts}");
    assert!(ts.contains("canary_failures=0"), "{ts}");
    let list = conn.list().unwrap();
    assert!(list.starts_with("model live v"), "{list}");

    server.shutdown();
}
