//! Property-based tests for the reghd crate's public API.

use encoding::{EncoderSpec, NonlinearEncoder};
use proptest::prelude::*;
use reghd::config::{ClusterMode, PredictionMode, RegHdConfig, UpdateRule};
use reghd::{persist, OnlineRegHd, RegHdRegressor, Regressor, SingleHdRegressor};

fn small_problem() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<f32>)> {
    (10usize..40).prop_flat_map(|n| {
        (
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, 2), n),
            prop::collection::vec(-2.0f32..2.0, n),
        )
    })
}

fn any_cluster_mode() -> impl Strategy<Value = ClusterMode> {
    prop_oneof![
        Just(ClusterMode::Integer),
        Just(ClusterMode::FrameworkBinary),
        Just(ClusterMode::NaiveBinary),
    ]
}

fn any_pred_mode() -> impl Strategy<Value = PredictionMode> {
    prop_oneof![
        Just(PredictionMode::Full),
        Just(PredictionMode::BinaryQuery),
        Just(PredictionMode::BinaryModel),
        Just(PredictionMode::BinaryBoth),
    ]
}

fn any_update_rule() -> impl Strategy<Value = UpdateRule> {
    prop_oneof![
        Just(UpdateRule::ConfidenceWeighted),
        Just(UpdateRule::SharedError),
        Just(UpdateRule::ArgmaxOnly),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_configuration_trains_finite(
        (xs, ys) in small_problem(),
        cluster in any_cluster_mode(),
        pred in any_pred_mode(),
        rule in any_update_rule(),
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        let cfg = RegHdConfig::builder()
            .dim(128)
            .models(k)
            .max_epochs(3)
            .min_epochs(1)
            .cluster_mode(cluster)
            .prediction_mode(pred)
            .update_rule(rule)
            .seed(seed)
            .build();
        let mut m = RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(2, 128, seed)));
        let report = m.fit(&xs, &ys);
        prop_assert!(report.epochs >= 1);
        prop_assert!(report.train_mse_history.iter().all(|v| v.is_finite()));
        prop_assert!(m.predict_one(&xs[0]).is_finite());
    }

    #[test]
    fn persist_roundtrip_any_shape(
        (xs, ys) in small_problem(),
        k in 1usize..4,
        pred in any_pred_mode(),
        seed in any::<u64>(),
    ) {
        let spec = EncoderSpec::Nonlinear { input_dim: 2, dim: 128, seed };
        let cfg = RegHdConfig::builder()
            .dim(128)
            .models(k)
            .max_epochs(2)
            .min_epochs(1)
            .prediction_mode(pred)
            .seed(seed)
            .build();
        let mut m = RegHdRegressor::new(cfg, spec.build());
        m.fit(&xs, &ys);
        let mut buf = Vec::new();
        persist::save(&m, &spec, &mut buf).unwrap();
        let (loaded, _) = persist::load(&buf, spec.input_dim()).unwrap();
        for x in xs.iter().take(5) {
            prop_assert_eq!(loaded.predict_one(x), m.predict_one(x));
        }
    }

    #[test]
    fn persist_roundtrip_every_mode_combination(
        (xs, ys) in small_problem(),
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Exhaustive sweep: every ClusterMode × PredictionMode pair must
        // survive a save/load round-trip with bit-exact predictions.
        let cluster_modes = [
            ClusterMode::Integer,
            ClusterMode::FrameworkBinary,
            ClusterMode::NaiveBinary,
        ];
        for cluster in cluster_modes {
            for pred in PredictionMode::ALL {
                let spec = EncoderSpec::Nonlinear { input_dim: 2, dim: 128, seed };
                let cfg = RegHdConfig::builder()
                    .dim(128)
                    .models(k)
                    .max_epochs(2)
                    .min_epochs(1)
                    .cluster_mode(cluster)
                    .prediction_mode(pred)
                    .seed(seed)
                    .build();
                let mut m = RegHdRegressor::new(cfg, spec.build());
                m.fit(&xs, &ys);
                let mut buf = Vec::new();
                persist::save(&m, &spec, &mut buf).unwrap();
                let (loaded, _) = persist::load(&buf, spec.input_dim()).unwrap();
                let orig_cfg = m.config();
                let loaded_cfg = loaded.config();
                prop_assert_eq!(loaded_cfg.cluster_mode, orig_cfg.cluster_mode);
                prop_assert_eq!(loaded_cfg.prediction_mode, orig_cfg.prediction_mode);
                for x in xs.iter().take(5) {
                    prop_assert_eq!(
                        loaded.predict_one(x),
                        m.predict_one(x),
                        "round-trip drift under {:?}/{:?}",
                        cluster,
                        pred
                    );
                }
                // The batched path must agree with the loaded model too.
                let batch: Vec<Vec<f32>> = xs.iter().take(5).cloned().collect();
                prop_assert_eq!(loaded.predict(&batch), m.predict(&batch));
            }
        }
    }

    #[test]
    fn online_stream_stays_finite(
        (xs, ys) in small_problem(),
        seed in any::<u64>(),
    ) {
        let cfg = RegHdConfig::builder().dim(128).models(2).seed(seed).build();
        let mut m = OnlineRegHd::new(cfg, Box::new(NonlinearEncoder::new(2, 128, seed)));
        for (x, &y) in xs.iter().zip(&ys) {
            let e = m.update(x, y);
            prop_assert!(e.is_finite());
        }
        prop_assert!(m.prequential_mse().is_finite());
        prop_assert_eq!(m.samples_seen(), xs.len() as u64);
    }

    #[test]
    fn single_model_prediction_is_deterministic_function(
        (xs, ys) in small_problem(),
        seed in any::<u64>(),
    ) {
        let cfg = RegHdConfig::builder()
            .dim(128)
            .max_epochs(2)
            .min_epochs(1)
            .seed(seed)
            .build();
        let mut m = SingleHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(2, 128, seed)));
        m.fit(&xs, &ys);
        for x in xs.iter().take(5) {
            prop_assert_eq!(m.predict_one(x), m.predict_one(x));
        }
    }

    #[test]
    fn sparsify_density_matches_request(
        (xs, ys) in small_problem(),
        keep in 0.05f32..1.0,
    ) {
        let cfg = RegHdConfig::builder()
            .dim(256)
            .models(2)
            .max_epochs(3)
            .min_epochs(1)
            .build();
        let mut m = RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(2, 256, 1)));
        m.fit(&xs, &ys);
        let report = m.sparsify_models(keep);
        // Ceil-based keep: density within one component of the request.
        prop_assert!(report.density <= keep + 0.01, "{:?} vs keep {}", report, keep);
        prop_assert!(m.predict_one(&xs[0]).is_finite());
    }

    #[test]
    fn constant_targets_learn_the_constant(
        rows in prop::collection::vec(prop::collection::vec(-2.0f32..2.0, 2), 10..30),
        c in -5.0f32..5.0,
    ) {
        let ys = vec![c; rows.len()];
        let cfg = RegHdConfig::builder().dim(256).models(2).max_epochs(10).build();
        let mut m = RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(2, 256, 3)));
        m.fit(&rows, &ys);
        let pred = m.predict_one(&rows[0]);
        prop_assert!((pred - c).abs() < 0.5_f32.max(c.abs() * 0.2), "pred {} vs c {}", pred, c);
    }
}
