//! Property tests over untrusted `.rghd` bundle bytes.
//!
//! A section CRC is a checksum, not a MAC, and a v1 image has none: anyone
//! can rewrite a field and re-sign every section. So each bundle decoder —
//! [`ModelBundle::from_bytes`], [`ModelBundle::decode_serving`], and the
//! serving decode followed by [`ModelBundle::attach_canary_from`] — must
//! never panic or abort on arbitrary bytes. It refuses them with an error,
//! or returns a bundle that round-trips: its `to_bytes` image decodes to a
//! bundle that serialises to that same image and predicts the same bits
//! on both tiers.

use std::sync::OnceLock;

use datasets::Dataset;
use proptest::prelude::*;
use reghd_serve::bundle::{self, crc32, ModelBundle};

/// Upper bound on generated arbitrary input.
const MAX_INPUT: usize = 512;

/// The probe row every decoded bundle predicts (the images below carry
/// two features; a bundle of another width must refuse it identically).
const PROBE: [f32; 2] = [0.5, 1.0];

/// Offsets of the config and spec fields inside the persisted model blob
/// (`reghd::persist`, version 1): magic (4) and version (2), the 74-byte
/// config block, then `tag u8 | input_dim u64 | dim u64 | seed u64`, the
/// intercept and the centre flag.
const BLOB_FIELDS: [(usize, usize); 26] = [
    (0, 4),   // magic
    (4, 2),   // version
    (6, 8),   // dim
    (14, 8),  // models
    (22, 4),  // learning_rate
    (26, 8),  // max_epochs
    (34, 8),  // min_epochs
    (42, 4),  // convergence_tol
    (46, 8),  // patience
    (54, 4),  // softmax_beta
    (58, 8),  // quantize_batch
    (66, 1),  // cluster_mode
    (67, 1),  // prediction_mode
    (68, 1),  // update_rule
    (69, 1),  // normalize_encodings
    (70, 1),  // center_encodings
    (71, 1),  // intercept flag
    (72, 8),  // config seed
    (80, 1),  // spec tag
    (81, 8),  // spec input_dim
    (89, 8),  // spec dim
    (97, 8),  // spec seed
    (105, 4), // intercept
    (109, 1), // centre flag
    (110, 8), // first hypervector's dim
    (118, 4), // its first component
];

/// Offset of the spec seed inside the persisted model blob.
const SPEC_SEED: usize = 97;

/// A small trained two-feature v2 image (D=64, k=2).
fn v2_image() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let features: Vec<Vec<f32>> = (0..48)
            .map(|i| vec![i as f32 * 0.1, (i % 5) as f32])
            .collect();
        let targets = features.iter().map(|r| 2.0 * r[0] - r[1]).collect();
        let ds = Dataset::new("untrusted", features, targets);
        let (b, _) = bundle::train(&ds, 64, 2, 3, 7, false).unwrap();
        b.to_bytes().unwrap()
    })
}

/// The same model in the legacy v1 layout: the v2 image's scalers and
/// model payloads inline, no checksums, no canary section.
fn v1_image() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let frames = bundle::SectionFrames::parse(v2_image()).unwrap();
        let mut out = b"RGCL".to_vec();
        out.extend(1u16.to_le_bytes());
        out.extend(frames.scalers().unwrap());
        out.extend(frames.model().unwrap());
        out
    })
}

fn image(which: usize) -> &'static [u8] {
    [v2_image(), v1_image()][which]
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// The v2 frames as `(length field offset, payload length)`, walked from
/// the length prefixes; stops at the first frame that overruns the bytes.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 6;
    for _ in 0..3 {
        if bytes.len() < at + 12 {
            break;
        }
        let len = u64_at(bytes, at);
        if len > bytes.len() - at - 12 {
            break;
        }
        out.push((at, len));
        at += 8 + len + 4;
    }
    out
}

/// Recomputes every v2 section CRC the length prefixes still locate, as a
/// forger would. v1 images carry no checksums.
fn resign(bytes: &mut [u8]) {
    if bytes.get(4..6) != Some(&2u16.to_le_bytes()[..]) {
        return;
    }
    for (at, len) in frames(bytes) {
        let payload = at + 8..at + 8 + len;
        let crc = crc32(&bytes[payload.clone()]);
        bytes[payload.end..payload.end + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Every field a forger might rewrite in a valid image, as `(offset,
/// width)`: the version, the section lengths, the scaler and canary counts
/// and their first values, and every config and spec field of the model
/// blob.
fn fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut f = vec![(4, 2)];
    // The scaler block: `n u64 | n means | n stds | target mean | std`.
    let mut scalers = |s: usize| {
        let n = u64_at(bytes, s);
        f.extend([(s, 8), (s + 8, 4), (s + 8 + 8 * n, 4), (s + 12 + 8 * n, 4)]);
    };
    if bytes[4] == 1 {
        scalers(6);
    } else {
        let [s, c, m] = frames(bytes)[..] else {
            panic!("a valid v2 image has three frames")
        };
        scalers(s.0 + 8);
        f.extend([s.0, c.0, m.0].map(|at| (at, 8)));
        let c0 = c.0 + 8;
        f.extend([(c0, 8), (c0 + 8, 4), (c0 + c.1 - 4, 4)]);
    }
    let blob = blob_start(bytes);
    f.extend(BLOB_FIELDS.iter().map(|&(at, w)| (blob + at, w)));
    f
}

/// Offset of the model blob inside a valid image.
fn blob_start(bytes: &[u8]) -> usize {
    if bytes[4] == 1 {
        6 + 16 + 8 * u64_at(bytes, 6)
    } else {
        frames(bytes)[2].0 + 8
    }
}

/// The probe's answers, bit for bit, or the error text.
fn answers(b: &ModelBundle) -> [Result<Vec<u32>, String>; 2] {
    let rows = [PROBE.to_vec()];
    let bits = |r: Result<Vec<f32>, String>| r.map(|v| v.iter().map(|p| p.to_bits()).collect());
    [bits(b.predict(&rows)), bits(b.predict_binary(&rows))]
}

/// Decodes `bytes` through each decoder. A refusal is fine; a bundle must
/// round-trip through `to_bytes` and `from_bytes` to the same image and
/// the same predictions.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let decoded = [
        ModelBundle::from_bytes(bytes),
        ModelBundle::decode_serving(bytes),
        ModelBundle::decode_serving(bytes).and_then(|mut b| {
            b.attach_canary_from(bytes)?;
            Ok(b)
        }),
    ];
    for b in decoded.into_iter().flatten() {
        let image = b.to_bytes().map_err(TestCaseError::fail)?;
        let again = ModelBundle::from_bytes(&image).map_err(TestCaseError::fail)?;
        prop_assert_eq!(again.to_bytes().map_err(TestCaseError::fail)?, image);
        prop_assert_eq!(answers(&again), answers(&b));
    }
    Ok(())
}

/// Values a rewritten field takes: small counts, tags and flags, the
/// decoders' plausibility limits and their neighbours, and arbitrary words.
fn field_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        prop_oneof![
            Just(8u64),
            Just(9u64),
            Just(1u64 << 20),
            Just((1u64 << 20) + 1),
            Just(1u64 << 28),
            Just(u64::from(u32::MAX)),
            Just(u64::MAX),
        ],
        any::<u64>(),
    ]
}

#[test]
fn unmutated_images_roundtrip() {
    for which in 0..2 {
        check(image(which)).unwrap();
        let b = ModelBundle::from_bytes(image(which)).unwrap();
        b.run_canary().unwrap();
    }
    assert_eq!(
        ModelBundle::from_bytes(v2_image())
            .unwrap()
            .to_bytes()
            .unwrap(),
        v2_image()
    );
}

#[test]
fn field_walk_matches_the_layouts() {
    for which in 0..2 {
        let bytes = image(which);
        let blob = blob_start(bytes);
        assert_eq!(&bytes[blob..blob + 4], b"RGHD", "image {which}");
        assert_eq!(u64_at(bytes, blob + 81), 2, "spec input_dim");
        assert_eq!(u64_at(bytes, blob + 89), 64, "spec dim");
        let mut resigned = bytes.to_vec();
        resign(&mut resigned);
        assert_eq!(resigned, bytes, "re-signing without edits is the identity");
    }
}

#[test]
fn resigned_spec_seed_is_what_the_bundle_keeps() {
    // Evidence that a decoded bundle writes the spec it encodes with: flip
    // one bit of the persisted seed and re-sign. The image still decodes;
    // re-serialising it must reproduce it byte for byte instead of writing
    // a re-derived seed the model does not use.
    for which in 0..2 {
        let mut bytes = image(which).to_vec();
        let at = blob_start(&bytes) + SPEC_SEED;
        bytes[at] ^= 1;
        resign(&mut bytes);
        let b = ModelBundle::from_bytes(&bytes).unwrap();
        let again = ModelBundle::from_bytes(&b.to_bytes().unwrap()).unwrap();
        assert_eq!(answers(&again), answers(&b), "image {which}");
        if which == 0 {
            assert_eq!(b.to_bytes().unwrap(), bytes);
            // The recorded canary was predicted under the original seed,
            // so the replay refuses the forged one.
            assert!(b.run_canary().is_err());
        }
    }
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
    fn arbitrary_bodies_behind_a_valid_header_never_panic(
        version in 1u16..3,
        tail in prop::collection::vec(any::<u8>(), 0..MAX_INPUT + 1),
    ) {
        let mut bytes = b"RGCL".to_vec();
        bytes.extend(version.to_le_bytes());
        bytes.extend(tail);
        resign(&mut bytes);
        check(&bytes)?;
    }

    #[test]
    fn truncations_are_refused_or_roundtrip(
        which in 0usize..2,
        cut in any::<u64>(),
    ) {
        let bytes = image(which);
        check(&bytes[..cut as usize % bytes.len()])?;
    }

    #[test]
    fn resigned_byte_mutations_decode_or_refuse(
        which in 0usize..2,
        at in any::<u64>(),
        value in any::<u8>(),
    ) {
        let mut bytes = image(which).to_vec();
        let at = at as usize % bytes.len();
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
        let mut bytes = image(which).to_vec();
        let fields = fields(&bytes);
        let (at, width) = fields[field as usize % fields.len()];
        bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        resign(&mut bytes);
        check(&bytes)?;
    }
}
