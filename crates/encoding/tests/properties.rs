//! Property-based tests for the encoder family.

use encoding::{
    Encoder, EncoderSpec, IdLevelEncoder, NonlinearEncoder, ProjectionEncoder, RffEncoder,
    TemporalEncoder,
};
use hdc::similarity::cosine;
use proptest::prelude::*;

fn input(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n)
}

fn all_encoders(dim: usize, seed: u64) -> Vec<Box<dyn Encoder>> {
    vec![
        Box::new(NonlinearEncoder::new(4, dim, seed)),
        Box::new(RffEncoder::new(4, dim, 1.0, seed)),
        Box::new(ProjectionEncoder::new(4, dim, seed)),
        Box::new(IdLevelEncoder::new(4, dim, 16, (-3.0, 3.0), seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn encoders_are_deterministic(x in input(4), seed in any::<u64>()) {
        for enc in all_encoders(128, seed) {
            prop_assert_eq!(enc.encode(&x), enc.encode(&x));
        }
    }

    #[test]
    fn encodings_are_finite(x in input(4), seed in any::<u64>()) {
        for enc in all_encoders(128, seed) {
            let h = enc.encode(&x);
            prop_assert!(h.as_slice().iter().all(|v| v.is_finite()));
            prop_assert_eq!(h.dim(), 128);
        }
    }

    #[test]
    fn binary_encoding_matches_sign(x in input(4), seed in any::<u64>()) {
        for enc in all_encoders(96, seed) {
            let real = enc.encode(&x);
            let bin = enc.encode_binary(&x);
            for d in 0..96 {
                prop_assert_eq!(bin.get(d), real.as_slice()[d] > 0.0);
            }
        }
    }

    #[test]
    fn small_perturbations_keep_high_similarity(x in input(4), seed in any::<u64>()) {
        // Lipschitz-style similarity preservation for the smooth encoders.
        let near: Vec<f32> = x.iter().map(|&v| v + 0.005).collect();
        for enc in [
            Box::new(NonlinearEncoder::new(4, 2048, seed)) as Box<dyn Encoder>,
            Box::new(RffEncoder::new(4, 2048, 1.0, seed)),
            Box::new(ProjectionEncoder::new(4, 2048, seed)),
        ] {
            let a = enc.encode(&x);
            let b = enc.encode(&near);
            // Degenerate zero encodings (all-zero input for cos·sin) have
            // undefined cosine; skip those.
            if a.norm() > 1e-3 && b.norm() > 1e-3 {
                let sim = cosine(&a, &b);
                prop_assert!(sim > 0.95, "sim = {}", sim);
            }
        }
    }

    #[test]
    fn spec_builds_equal_encoders(x in input(4), seed in any::<u64>()) {
        let specs = [
            EncoderSpec::Nonlinear { input_dim: 4, dim: 64, seed },
            EncoderSpec::Rff { input_dim: 4, dim: 64, bandwidth: 2.0, seed },
            EncoderSpec::Projection { input_dim: 4, dim: 64, seed },
            EncoderSpec::IdLevel { input_dim: 4, dim: 64, levels: 8, range: (-3.0, 3.0), seed },
        ];
        for spec in &specs {
            prop_assert_eq!(spec.build().encode(&x), spec.build().encode(&x));
        }
    }

    #[test]
    fn temporal_encoder_flattens_consistently(
        steps in prop::collection::vec(input(2), 3..6),
        seed in any::<u64>(),
    ) {
        let window = steps.len();
        let enc = TemporalEncoder::new(Box::new(NonlinearEncoder::new(2, 256, seed)), window);
        let flat: Vec<f32> = steps.iter().flatten().copied().collect();
        let h = enc.encode(&flat);
        prop_assert_eq!(h.dim(), 256);
        prop_assert!(h.as_slice().iter().all(|v| v.is_finite()));
        // Same window twice → identical encodings.
        prop_assert_eq!(h, enc.encode(&flat));
    }

    #[test]
    fn id_level_is_piecewise_constant(v in -3.0f32..3.0, seed in any::<u64>()) {
        // Values inside the same quantisation cell encode identically.
        let enc = IdLevelEncoder::new(1, 128, 8, (-3.0, 3.0), seed);
        let level = enc.quantize(v);
        // Probe a nearby value in the same cell.
        let cell_width = 6.0f32 / 7.0;
        let nudge = (cell_width * 0.05).copysign(0.0 - v);
        let v2 = v + nudge;
        if enc.quantize(v2) == level {
            prop_assert_eq!(enc.encode(&[v]), enc.encode(&[v2]));
        }
    }
}
