//! Golden output bits of a fixed-seed bundle.
//!
//! Everything a trained bundle serves without `TrigMode::Fast` — the exact
//! full-precision predictions, the bit-packed binary tier, and the int8
//! encodings behind that tier — is a pure function of the training data
//! and seed. This test pins those outputs to checksums recorded once, so a
//! refactor of the trig, SIMD or scoring code that claims to leave them
//! alone is checked against the previous code's bits, not only against
//! itself. The values hold at every SIMD dispatch level (the kernels are
//! bit-identical across levels). If a change is *meant* to move these
//! bits, re-record the constants and say why in the change log.

use reghd_repro::prelude::*;
use reghd_serve::bundle;

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
