//! Bundles whose checksums are valid but whose encoder spec or config
//! shape is hostile.
//!
//! A section CRC is a checksum, not a MAC: anyone can rewrite the model
//! section and re-sign it. Both bundle decoders must answer such bytes
//! with a typed error — never a panic, an allocation abort, or a bundle
//! that decodes and then panics on every predict.

use std::sync::OnceLock;

use datasets::Dataset;
use proptest::prelude::*;
use reghd_serve::bundle::{self, crc32, ModelBundle};

/// Offsets inside the persisted model blob (`reghd::persist`, version 1):
/// magic (4) and version (2), then the 74-byte config block whose first
/// fields are `dim` and `models`, then the spec block `tag u8 | input_dim
/// u64 | dim u64 | seed u64`.
const CFG_DIM: usize = 6;
const CFG_MODELS: usize = 14;
const SPEC_TAG: usize = 80;
const SPEC_INPUT_DIM: usize = 81;
const SPEC_DIM: usize = 89;

/// A small trained two-feature bundle (D=128, k=2).
fn trained_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let features: Vec<Vec<f32>> = (0..60)
            .map(|i| vec![i as f32 * 0.1, (i % 5) as f32])
            .collect();
        let targets = features.iter().map(|r| 2.0 * r[0] - r[1]).collect();
        let ds = Dataset::new("hostile", features, targets);
        let (b, _) = bundle::train(&ds, 128, 2, 3, 7, false).unwrap();
        b.to_bytes().unwrap()
    })
}

/// Start of the model section's payload: it follows the magic, the
/// version, and the scalers and canary frames (`len u64 | payload | crc`).
fn model_payload_start(bytes: &[u8]) -> usize {
    let mut off = 6;
    for _ in 0..2 {
        off += 8 + u64_at(bytes, off) as usize + 4;
    }
    off + 8
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Overwrites `u64` fields of the model blob, then re-signs the section so
/// every checksum still verifies.
fn resigned(edits: &[(usize, u64)]) -> Vec<u8> {
    let mut out = trained_bytes().to_vec();
    let start = model_payload_start(&out);
    let end = out.len() - 4;
    for &(at, v) in edits {
        out[start + at..start + at + 8].copy_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&out[start..end]);
    out[end..].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Both decoders refuse `bytes` with an error containing `needle`.
fn assert_refused(bytes: &[u8], needle: &str) {
    let verdicts = [
        ("from_bytes", ModelBundle::from_bytes(bytes)),
        ("decode_serving", ModelBundle::decode_serving(bytes)),
    ];
    for (decoder, verdict) in verdicts {
        match verdict {
            Ok(_) => panic!("{decoder} accepted a hostile spec"),
            Err(e) => assert!(e.contains(needle), "{decoder}: {e}"),
        }
    }
}

#[test]
fn offsets_match_the_persist_layout() {
    let bytes = trained_bytes();
    let blob = &bytes[model_payload_start(bytes)..bytes.len() - 4];
    assert_eq!(&blob[..4], b"RGHD");
    assert_eq!(blob[SPEC_TAG], 0, "Nonlinear spec tag");
    assert_eq!(u64_at(blob, SPEC_INPUT_DIM), 2);
    assert_eq!(u64_at(blob, SPEC_DIM), 128);
    assert_eq!(u64_at(blob, CFG_DIM), 128);
    assert_eq!(u64_at(blob, CFG_MODELS), 2);
    assert_eq!(
        resigned(&[]),
        bytes,
        "re-signing without edits is the identity"
    );
}

#[test]
fn zero_input_dim_is_a_typed_error() {
    assert_refused(
        &resigned(&[(SPEC_INPUT_DIM, 0)]),
        "implausible encoder shape",
    );
}

#[test]
fn huge_input_dim_is_a_typed_error_not_an_abort() {
    assert_refused(
        &resigned(&[(SPEC_INPUT_DIM, 1 << 40)]),
        "implausible encoder shape",
    );
}

#[test]
fn input_dim_disagreeing_with_the_scalers_is_refused() {
    assert_refused(&resigned(&[(SPEC_INPUT_DIM, 3)]), "scalers carry 2");
}

#[test]
fn huge_model_count_is_a_typed_error_not_an_abort() {
    for models in [1u64 << 40, 1 << 61] {
        assert_refused(
            &resigned(&[(CFG_MODELS, models)]),
            "implausible model count",
        );
    }
}

/// A dim field: the real value (so some cases decode and must serve),
/// small values, values near the real one, or anything at all.
fn dim_field(real: u64) -> impl Strategy<Value = u64> {
    prop_oneof![Just(real), 0u64..5, 126u64..131, any::<u64>()]
}

/// A model-count field: the real value, small counts, counts whose bank
/// cannot fit in memory, or anything at all.
fn models_field(real: u64) -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(real),
        0u64..5,
        Just(1u64 << 40),
        Just(1u64 << 61),
        any::<u64>()
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn resigned_spec_and_config_dims_never_panic(
        input_dim in dim_field(2),
        spec_dim in dim_field(128),
        cfg_dim in dim_field(128),
        models in models_field(2),
    ) {
        let bytes = resigned(&[
            (SPEC_INPUT_DIM, input_dim),
            (SPEC_DIM, spec_dim),
            (CFG_DIM, cfg_dim),
            (CFG_MODELS, models),
        ]);
        let decoded = [ModelBundle::from_bytes(&bytes), ModelBundle::decode_serving(&bytes)];
        // Anything accepted must serve: predicts answer, not panic.
        for b in decoded.into_iter().flatten() {
            prop_assert!(b.predict(&[vec![0.5, 1.0]]).is_ok());
            prop_assert!(b.predict_binary(&[vec![0.5, 1.0]]).is_ok());
        }
    }
}
