//! Cross-crate persistence integration tests: a model trained on the
//! datasets-crate workloads, saved with `reghd::persist`, must reload
//! bit-exactly and keep working across the public API surface.

use reghd_repro::encoding::EncoderSpec;
use reghd_repro::prelude::*;
use reghd_repro::reghd::persist;

fn trained_on_paper_data(
    pred: PredictionMode,
) -> (RegHdRegressor, EncoderSpec, Vec<Vec<f32>>, Vec<f32>) {
    let ds = datasets::paper::airfoil(5);
    let (train, test) = datasets::split::train_test_split(&ds, 0.2, 5);
    let train = train.select(&(0..400).collect::<Vec<_>>());
    let std = datasets::normalize::Standardizer::fit(&train);
    let train_n = std.transform(&train);
    let test_n = std.transform(&test);
    let scaler = datasets::normalize::TargetScaler::fit(&train.targets);
    let train_y: Vec<f32> = train.targets.iter().map(|&y| scaler.transform(y)).collect();
    let test_y: Vec<f32> = test.targets.iter().map(|&y| scaler.transform(y)).collect();

    let spec = EncoderSpec::Nonlinear {
        input_dim: ds.num_features(),
        dim: 1024,
        seed: 5,
    };
    let cfg = RegHdConfig::builder()
        .dim(1024)
        .models(4)
        .max_epochs(10)
        .prediction_mode(pred)
        .cluster_mode(ClusterMode::FrameworkBinary)
        .seed(5)
        .build();
    let mut model = RegHdRegressor::new(cfg, spec.build());
    model.fit(&train_n.features, &train_y);
    (model, spec, test_n.features, test_y)
}

#[test]
fn roundtrip_preserves_predictions_on_real_workload() {
    for pred in PredictionMode::ALL {
        let (model, spec, test_x, _) = trained_on_paper_data(pred);
        let mut buf = Vec::new();
        persist::save(&model, &spec, &mut buf).expect("save");
        let (loaded, _) = persist::load(&buf, spec.input_dim()).expect("load");
        for x in test_x.iter().take(20) {
            assert_eq!(
                loaded.predict_one(x),
                model.predict_one(x),
                "mismatch in mode {pred:?}"
            );
        }
    }
}

#[test]
fn roundtrip_preserves_quality() {
    let (model, spec, test_x, test_y) = trained_on_paper_data(PredictionMode::Full);
    let mut buf = Vec::new();
    persist::save(&model, &spec, &mut buf).expect("save");
    let (loaded, _) = persist::load(&buf, spec.input_dim()).expect("load");
    let mse_orig = datasets::metrics::mse(&model.predict(&test_x), &test_y);
    let mse_loaded = datasets::metrics::mse(&loaded.predict(&test_x), &test_y);
    assert_eq!(mse_orig, mse_loaded);
}

#[test]
fn loaded_model_supports_refinement() {
    // A reloaded model is a first-class trained model: refine() must work.
    let (model, spec, test_x, test_y) = trained_on_paper_data(PredictionMode::Full);
    let mut buf = Vec::new();
    persist::save(&model, &spec, &mut buf).expect("save");
    let (mut loaded, _) = persist::load(&buf, spec.input_dim()).expect("load");
    let report = loaded.refine(&test_x[..50], &test_y[..50], 3);
    assert_eq!(report.epochs, 3);
    assert!(report.train_mse_history.iter().all(|m| m.is_finite()));
}

#[test]
fn loaded_model_supports_sparsification_and_diagnostics() {
    let (model, spec, test_x, _) = trained_on_paper_data(PredictionMode::Full);
    let mut buf = Vec::new();
    persist::save(&model, &spec, &mut buf).expect("save");
    let (mut loaded, _) = persist::load(&buf, spec.input_dim()).expect("load");
    let diag = loaded.diagnostics(&test_x[..50]);
    assert_eq!(diag.cluster_histogram.iter().sum::<usize>(), 50);
    let report = loaded.sparsify_models(0.5);
    assert!((report.density - 0.5).abs() < 0.05);
    assert!(loaded.predict_one(&test_x[0]).is_finite());
}

#[test]
fn file_size_is_compact() {
    // The encoder is stored as a spec (a few integers), so the file is
    // dominated by the k + k hypervectors + centre: ≈ (2k+1)·4·D bytes.
    let (model, spec, _, _) = trained_on_paper_data(PredictionMode::Full);
    let mut buf = Vec::new();
    persist::save(&model, &spec, &mut buf).expect("save");
    let expected = (2 * 4 + 1) * 4 * 1024; // 9 hypervectors of f32
    assert!(
        buf.len() < expected + 4096,
        "file unexpectedly large: {} bytes",
        buf.len()
    );
    assert!(buf.len() > expected / 2);
}
