//! Property tests over untrusted RGDL delta bytes.
//!
//! A delta's CRC is a checksum, not a MAC: anyone can rewrite a field and
//! re-sign it. So [`ModelDelta::from_bytes`] must never panic on arbitrary
//! bytes, and a valid delta with one byte or one field rewritten and its
//! CRC re-signed must either be refused with a typed `StoreError` or decode
//! to a delta that serialises back to exactly those bytes — and applying
//! such a delta to its base must never panic either.

use std::sync::OnceLock;

use datasets::Dataset;
use proptest::prelude::*;
use reghd_serve::bundle::{self, crc32};
use reghd_store::ModelDelta;

/// Upper bound on generated arbitrary input.
const MAX_INPUT: usize = 512;

/// Bytes before the CRC-covered body: magic (4) and version (2).
const BODY_START: usize = 6;

/// A small two-feature bundle image (D=64, k=2) trained on a line whose
/// slope and offset `shift` moves, so two shifts differ in every section.
fn bundle_bytes(shift: f32) -> Vec<u8> {
    let features: Vec<Vec<f32>> = (0..48)
        .map(|i| vec![i as f32 * 0.1 + shift, (i % 5) as f32])
        .collect();
    let targets = features
        .iter()
        .map(|r| (2.0 + shift) * r[0] - r[1])
        .collect();
    let ds = Dataset::new("delta", features, targets);
    let (b, _) = bundle::train(&ds, 64, 2, 3, 7, false).unwrap();
    b.to_bytes().unwrap()
}

/// The base image every delta below applies to.
fn base() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| bundle_bytes(0.0))
}

/// Two valid deltas on [`base`]: one patching runs in every section
/// (scalers, canary and model) and the empty one.
fn valid_deltas() -> &'static [Vec<u8>; 2] {
    static DELTAS: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    DELTAS.get_or_init(|| {
        let full = ModelDelta::compute(base(), 1, &bundle_bytes(0.5))
            .unwrap()
            .expect("same config must be delta-able");
        let empty = ModelDelta::compute(base(), 1, base()).unwrap().unwrap();
        [full.to_bytes(), empty.to_bytes()]
    })
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// Every header field of a valid delta as `(offset, width)`, walked from
/// the layout in `reghd_store::delta`'s docs. Each run's bytes are
/// represented by the first one.
fn fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut f = vec![
        (0, 4),  // magic
        (4, 2),  // version
        (6, 8),  // base_hash
        (14, 8), // base_version
        (22, 8), // expected_hash
        (30, 8), // image_len
        (38, 4), // run count
    ];
    let mut at = 42;
    for _ in 0..u32_at(bytes, 38) {
        f.extend([(at, 8), (at + 8, 4), (at + 12, 1)]);
        at += 12 + u32_at(bytes, at + 8);
    }
    assert_eq!(at + 4, bytes.len(), "walk must end at the CRC");
    f.push((at, 4));
    f
}

/// Recomputes the trailing CRC over the body, as a forger would.
fn resign(bytes: &mut [u8]) {
    let end = bytes.len() - 4;
    let crc = crc32(&bytes[BODY_START..end]);
    bytes[end..].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes `bytes`: a refusal is fine; a decoded delta must serialise back
/// to exactly `bytes`, and applying it to the base must not panic.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(delta) = ModelDelta::from_bytes(bytes) {
        prop_assert_eq!(&delta.to_bytes()[..], bytes);
        let _ = delta.apply(base());
    }
    Ok(())
}

/// Values a rewritten field takes: small counts, offsets and lengths,
/// large powers of two, the `u32` and `u64` limits, and arbitrary words.
fn field_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        prop_oneof![
            Just(1u64 << 16),
            Just((1u64 << 16) + 1),
            Just(1u64 << 20),
            Just(1u64 << 24),
            Just((1u64 << 24) + 1),
            Just(u64::from(u32::MAX)),
            Just(u64::MAX),
        ],
        any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..MAX_INPUT + 1),
    ) {
        check(&bytes)?;
    }

    #[test]
    fn resigned_arbitrary_bodies_decode_or_refuse(
        hashes in prop::collection::vec(any::<u8>(), 24),
        image_len in 0u64..64,
        count in 0u32..4,
        tail in prop::collection::vec(any::<u8>(), 0..MAX_INPUT + 1),
    ) {
        // A small image and run count, so the random tail reaches the run
        // parser.
        let mut bytes = b"RGDL".to_vec();
        bytes.extend(2u16.to_le_bytes());
        bytes.extend(hashes);
        bytes.extend(image_len.to_le_bytes());
        bytes.extend(count.to_le_bytes());
        bytes.extend(tail);
        bytes.extend([0; 4]);
        resign(&mut bytes);
        check(&bytes)?;
    }

    #[test]
    fn resigned_byte_mutations_decode_or_refuse(
        which in 0usize..2,
        at in any::<u64>(),
        value in any::<u8>(),
    ) {
        let mut bytes = valid_deltas()[which].clone();
        let at = at as usize % (bytes.len() - 4);
        bytes[at] = value;
        resign(&mut bytes);
        check(&bytes)?;
    }

    #[test]
    fn resigned_field_mutations_decode_or_refuse(
        which in 0usize..2,
        field in any::<u64>(),
        value in field_value(),
    ) {
        let mut bytes = valid_deltas()[which].clone();
        let fields = fields(&bytes);
        let (at, width) = fields[field as usize % fields.len()];
        bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        if at + width < bytes.len() {
            resign(&mut bytes);
        }
        check(&bytes)?;
    }
}

#[test]
fn unmutated_deltas_roundtrip_and_apply() {
    for bytes in valid_deltas() {
        let delta = ModelDelta::from_bytes(bytes).unwrap();
        assert_eq!(&delta.to_bytes(), bytes);
        delta.apply(base()).unwrap();
    }
}
