//! Allocation bounds for every decoder of untrusted bytes.
//!
//! A count or length read from untrusted bytes may size a buffer only once
//! the bytes it announces are known to be there. So when a decoder refuses
//! an input of `L` bytes, no single allocation it requested along the way
//! may exceed `max(1 MiB, 4·L)`. A global allocator records the largest
//! request on the calling thread, so each case measures exactly the
//! decoder call it wraps, whatever the other test threads do.
//!
//! The inputs are the hostile images that once over-allocated (a
//! hypervector `dim` near the plausibility cap with no components behind
//! it, a scaler count with no values, an RGDL delta announcing data it
//! does not carry, an encoder spec wider than the bundle's scalers or the
//! caller's rows), plus truncations and count-field rewrites of a small
//! trained bundle, model file, delta and set of RGNP frames.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::OnceLock;

use reghd_repro::datasets::Dataset;
use reghd_repro::encoding::EncoderSpec;
use reghd_repro::reghd::{persist, OnlineRegHd, RegHdConfig, RegHdRegressor};
use reghd_repro::reghd_net::frame;
use reghd_repro::reghd_serve::bundle::{self, crc32, ModelBundle};
use reghd_repro::reghd_store::ModelDelta;

/// Forwards to [`System`], recording the largest request of each thread.
struct Recording;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // A const-initialised `Cell` needs no allocation and no destructor, so
    // this never re-enters the allocator.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each upholds `GlobalAlloc`'s contract exactly as `System` does; the only
// other work is `record`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` meets `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` meet `realloc`'s
        // contract, as the caller guarantees, and `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// The largest single allocation a refusal of `len` bytes may request.
fn bound(len: usize) -> usize {
    (1usize << 20).max(4 * len)
}

/// Decodes `bytes` and, when the decoder refuses them, returns a failure
/// line if any single allocation during the call exceeded [`bound`].
fn over_allocation<T, E: Debug>(
    what: &str,
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, E>,
) -> Option<String> {
    LARGEST.with(|l| l.set(0));
    let verdict = decode(bytes);
    let largest = LARGEST.with(Cell::get);
    match verdict {
        Err(e) if largest > bound(bytes.len()) => Some(format!(
            "{what}: refused {} bytes ({e:?}) after a {largest}-byte allocation",
            bytes.len()
        )),
        _ => None,
    }
}

/// Every bundle decoder over one input.
fn bundle_decoders(what: &str, bytes: &[u8]) -> Vec<String> {
    [
        over_allocation(
            &format!("{what} from_bytes"),
            bytes,
            ModelBundle::from_bytes,
        ),
        over_allocation(
            &format!("{what} decode_serving"),
            bytes,
            ModelBundle::decode_serving,
        ),
    ]
    .into_iter()
    .flatten()
    .collect()
}

fn assert_none(failures: Vec<String>) {
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// A v2 image of the given scalers, canary and model payloads, each
/// section signed with its CRC.
fn v2_image(sections: [&[u8]; 3]) -> Vec<u8> {
    let mut out = b"RGCL".to_vec();
    out.extend(2u16.to_le_bytes());
    for payload in sections {
        out.extend((payload.len() as u64).to_le_bytes());
        out.extend(payload);
        out.extend(crc32(payload).to_le_bytes());
    }
    out
}

/// A scalers payload for `n` features: zero means, unit stds, an identity
/// target scaler.
fn scalers(n: usize) -> Vec<u8> {
    let values = std::iter::repeat_n(0.0f32, n)
        .chain(std::iter::repeat_n(1.0, n))
        .chain([0.0, 1.0]);
    let mut p = (n as u64).to_le_bytes().to_vec();
    p.extend(values.flat_map(f32::to_le_bytes));
    p
}

/// An empty canary payload.
const NO_CANARY: [u8; 8] = [0; 8];

/// Offsets inside a persisted batch blob (`reghd::persist`, version 1):
/// the config's `dim` and `models`, the Nonlinear spec's `input_dim` and
/// `dim`, the centre-present flag, and the field after it — the first
/// hypervector's `dim` when no centre is stored.
const CFG_DIM: usize = 6;
const CFG_MODELS: usize = 14;
const SPEC_INPUT_DIM: usize = 81;
const SPEC_DIM: usize = 89;
const CENTRE_FLAG: usize = 109;
const FIRST_HV_DIM: usize = 110;

/// The persisted blob of an untrained one-model regressor: `input_dim`
/// features, `dim` components, no centre.
fn blob(input_dim: usize, dim: usize) -> Vec<u8> {
    let cfg = RegHdConfig::builder().dim(dim).models(1).seed(3).build();
    let spec = EncoderSpec::Nonlinear {
        input_dim,
        dim,
        seed: 3,
    };
    let model = RegHdRegressor::new(cfg, spec.build());
    let mut out = Vec::new();
    persist::save(&model, &spec, &mut out).unwrap();
    assert_eq!(out[CENTRE_FLAG], 0, "an untrained model stores no centre");
    out
}

/// Evidence 1: a blob whose config and spec ask for 2^27 components and
/// which ends after the first hypervector's `dim` field (118 bytes).
fn blob_with_unbacked_dim() -> Vec<u8> {
    let mut b = blob(1, 64);
    for at in [CFG_DIM, SPEC_DIM, FIRST_HV_DIM] {
        put_u64(&mut b, at, 1 << 27);
    }
    b.truncate(FIRST_HV_DIM + 8);
    b
}

#[test]
fn crafted_images_have_their_documented_shapes() {
    let b = blob(1, 64);
    assert_eq!(&b[..4], b"RGHD");
    let u64_at = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    assert_eq!(
        [CFG_DIM, CFG_MODELS, SPEC_INPUT_DIM, SPEC_DIM, FIRST_HV_DIM].map(u64_at),
        [64, 1, 1, 64, 64]
    );
    assert_eq!(blob_with_unbacked_dim().len(), 118);
    let e1 = v2_image([&scalers(1), &NO_CANARY, &blob_with_unbacked_dim()]);
    assert_eq!(e1.len(), 192);
    let e2 = v2_image([
        &(1u64 << 20).to_le_bytes(),
        &NO_CANARY,
        &blob_with_unbacked_dim(),
    ]);
    assert_eq!(e2.len(), 176);
    // The untouched images decode.
    let clean = v2_image([&scalers(1), &NO_CANARY, &blob(1, 64)]);
    ModelBundle::from_bytes(&clean).unwrap();
    persist::load(&blob(1, 64), 1).unwrap();
    ModelDelta::from_bytes(&delta_with_unbacked_run(64)).unwrap();
}

#[test]
fn hypervector_dim_without_components_allocates_nothing_for_it() {
    // Evidence 1: the cap admits 2^27 components, 512 MiB of f32s, and
    // the bytes carry none of them.
    let image = v2_image([&scalers(1), &NO_CANARY, &blob_with_unbacked_dim()]);
    let mut failures = bundle_decoders("evidence 1", &image);
    failures.extend(over_allocation(
        "evidence 1 persist::load",
        &blob_with_unbacked_dim(),
        |b| persist::load(b, 1),
    ));
    assert_none(failures);
}

#[test]
fn scaler_count_without_values_allocates_nothing_for_it() {
    // Evidence 2: 2^20 features announced, no values behind the count.
    let image = v2_image([
        &(1u64 << 20).to_le_bytes(),
        &NO_CANARY,
        &blob_with_unbacked_dim(),
    ]);
    assert_none(bundle_decoders("evidence 2", &image));
}

/// A re-signed RGDL delta for a `len`-byte image carrying one run of `len`
/// bytes at offset 0 with no bytes behind its header (Evidence 3 at `len`
/// = `u32::MAX`); at a small `len`, the same layout with the run's bytes.
fn delta_with_unbacked_run(len: u32) -> Vec<u8> {
    let mut body = vec![0u8; 24]; // base hash, base version, expected hash
    body.extend(u64::from(len).to_le_bytes()); // image length
    body.extend(1u32.to_le_bytes()); // one run …
    body.extend(0u64.to_le_bytes()); // … at offset 0 …
    body.extend(len.to_le_bytes()); // … of `len` bytes
    if len < 1 << 10 {
        body.extend(vec![0u8; len as usize]);
    }
    let mut out = b"RGDL".to_vec();
    out.extend(2u16.to_le_bytes());
    out.extend(&body);
    out.extend(crc32(&body).to_le_bytes());
    out
}

#[test]
fn delta_vector_without_data_allocates_nothing_for_it() {
    // Evidence 3: a 58-byte delta announcing one run of u32::MAX bytes.
    let delta = delta_with_unbacked_run(u32::MAX);
    assert_eq!(delta.len(), 58);
    assert_none(
        over_allocation("evidence 3", &delta, ModelDelta::from_bytes)
            .into_iter()
            .collect(),
    );
}

#[test]
fn predict_count_without_features_allocates_nothing_for_it() {
    // Evidence 4: seven bytes announcing u32::MAX features.
    let mut payload = vec![1, 0, b'm'];
    payload.extend(u32::MAX.to_le_bytes());
    assert_none(
        over_allocation("evidence 4", &payload, |b| {
            frame::decode_predict(b).map(drop)
        })
        .into_iter()
        .collect(),
    );
}

#[test]
fn spec_wider_than_the_scalers_is_refused_before_the_encoder_is_built() {
    // Evidence 5: a complete, re-signed image whose spec is 2^21 features
    // wide at D = 128 — 2^28 cells, exactly the cap — beside 1-wide
    // scalers. The width check must answer before a 1 GiB encoder table
    // is built.
    let mut b = blob(1, 128);
    put_u64(&mut b, SPEC_INPUT_DIM, 1 << 21);
    let image = v2_image([&scalers(1), &NO_CANARY, &b]);
    for (what, verdict) in [
        ("from_bytes", ModelBundle::from_bytes as fn(&[u8]) -> _),
        ("decode_serving", ModelBundle::decode_serving),
    ] {
        LARGEST.with(|l| l.set(0));
        let err = verdict(&image).unwrap_err();
        let largest = LARGEST.with(Cell::get);
        assert!(err.contains("scalers carry 1"), "{what}: {err}");
        assert!(largest <= 1 << 20, "{what}: {largest}-byte allocation");
    }
}

/// A small trained bundle: four features, D = 128, two models.
fn trained(shift: f32) -> ModelBundle {
    let features: Vec<Vec<f32>> = (0..48)
        .map(|i| {
            let t = i as f32 * 0.1 + shift;
            vec![t, (i % 5) as f32, t.sin(), (i % 3) as f32 - shift]
        })
        .collect();
    let targets = features
        .iter()
        .map(|r| 2.0 * r[0] - r[1] + r[2] * r[3])
        .collect();
    let ds = Dataset::new("alloc", features, targets);
    bundle::train(&ds, 128, 2, 3, 7, false).unwrap().0
}

/// The small images every generated case starts from.
struct Images {
    v2: Vec<u8>,
    v1: Vec<u8>,
    blob: Vec<u8>,
    online: Vec<u8>,
    delta: Vec<u8>,
    predict: Vec<u8>,
    batch: Vec<u8>,
    reply: Vec<u8>,
}

fn images() -> &'static Images {
    static IMAGES: OnceLock<Images> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let base = trained(0.0);
        let v2 = base.to_bytes().unwrap();
        let frames = bundle::SectionFrames::parse(&v2).unwrap();
        let blob = frames.model().unwrap().to_vec();
        let mut v1 = b"RGCL".to_vec();
        v1.extend(1u16.to_le_bytes());
        v1.extend(frames.scalers().unwrap());
        v1.extend(&blob);

        let spec = base.spec().clone();
        let mut online = OnlineRegHd::new(base.model().config().clone(), spec.build());
        for i in 0..20 {
            let x = [i as f32 * 0.1, 1.0, 0.5, -1.0];
            online.update(&x, x[0] * 2.0);
        }
        let mut online_blob = Vec::new();
        persist::save_online(&online, &spec, &mut online_blob).unwrap();

        let next = trained(0.5).to_bytes().unwrap();
        let delta = ModelDelta::compute(&v2, 1, &next)
            .unwrap()
            .unwrap()
            .to_bytes();

        let payload = |f: &[u8]| f[4 + frame::HEADER_AFTER_LEN..].to_vec();
        let mut out = Vec::new();
        frame::encode_predict(&mut out, 1, "user-7", &[0.5, 1.0, -2.0, 3.5]);
        let predict = payload(&out);
        out.clear();
        frame::encode_predict_batch(&mut out, 2, "user-7", &[vec![0.5; 4], vec![1.5; 4]]);
        let batch = payload(&out);
        out.clear();
        frame::encode_batch_reply(&mut out, 3, &[(0, 1.0), (1, 2.0), (0, 3.0)]);
        let reply = payload(&out);
        Images {
            v2,
            v1,
            blob,
            online: online_blob,
            delta,
            predict,
            batch,
            reply,
        }
    })
}

/// 128 evenly spaced proper prefixes of `bytes`.
fn truncations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..128).map(move |i| bytes[..i * bytes.len() / 128].to_vec())
}

/// Values a rewritten count takes: zero, small, near the decoders' caps
/// and far beyond any input.
const COUNTS: [u64; 10] = [
    0,
    3,
    1 << 16,
    1 << 20,
    1 << 24,
    1 << 27,
    1 << 28,
    u32::MAX as u64,
    1 << 40,
    u64::MAX,
];

/// 128 rewrites of the count fields of `bytes`: each offset where a
/// little-endian integer of `width` bytes holds a small nonzero value —
/// the format's counts, lengths and dims, and the odd coincidence, which
/// is only more fuzz — takes each of [`COUNTS`] in turn, then `resign`
/// recomputes whatever checksum covers it.
fn count_rewrites<'a>(
    bytes: &'a [u8],
    width: usize,
    resign: fn(&mut [u8]),
) -> impl Iterator<Item = Vec<u8>> + 'a {
    let fields: Vec<usize> = (0..=bytes.len() - width)
        .filter(|&at| {
            let mut v = [0u8; 8];
            v[..width].copy_from_slice(&bytes[at..at + width]);
            (1..=1 << 20).contains(&u64::from_le_bytes(v))
        })
        .collect();
    let cases = fields.len() * COUNTS.len();
    (0..128).map(move |i| {
        let case = i * cases / 128;
        let (at, value) = (fields[case / COUNTS.len()], COUNTS[case % COUNTS.len()]);
        let mut out = bytes.to_vec();
        out[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        resign(&mut out);
        out
    })
}

/// Re-signs every v2 section the length prefixes still locate.
fn resign_v2(bytes: &mut [u8]) {
    let mut at = 6;
    for _ in 0..3 {
        let Some(len) = bytes.get(at..at + 8) else {
            return;
        };
        let len = u64::from_le_bytes(len.try_into().unwrap());
        let start = at + 8;
        let Some(end) = usize::try_from(len).ok().and_then(|l| start.checked_add(l)) else {
            return;
        };
        if end + 4 > bytes.len() {
            return;
        }
        let crc = crc32(&bytes[start..end]);
        bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        at = end + 4;
    }
}

/// Re-signs an RGDL delta's trailing CRC.
fn resign_delta(bytes: &mut [u8]) {
    let end = bytes.len() - 4;
    let crc = crc32(&bytes[6..end]);
    bytes[end..].copy_from_slice(&crc.to_le_bytes());
}

/// Formats without a checksum.
fn unsigned(_: &mut [u8]) {}

#[test]
fn bundle_decoders_stay_bounded_on_generated_images() {
    let im = images();
    let inputs = truncations(&im.v2)
        .take(64)
        .chain(truncations(&im.v1).take(64))
        .chain(count_rewrites(&im.v2, 8, resign_v2).take(64))
        .chain(count_rewrites(&im.v1, 8, unsigned).take(64));
    assert_none(inputs.flat_map(|b| bundle_decoders("bundle", &b)).collect());
}

#[test]
fn spec_wider_than_the_rows_is_refused_before_the_encoder_is_built() {
    // A 2.7 KB trained model file (four features, D = 128) whose spec
    // `input_dim` is rewritten to 2^20: within the spec cap, so only the
    // caller's width stands between it and a 512 MiB encoder table.
    let mut b = images().blob.clone();
    assert_eq!(b.len(), 2_710);
    put_u64(&mut b, SPEC_INPUT_DIM, 1 << 20);
    LARGEST.with(|l| l.set(0));
    let err = persist::load(&b, 4).unwrap_err();
    let largest = LARGEST.with(Cell::get);
    assert!(
        matches!(err, persist::PersistError::Width { encoded, expected: 4 } if encoded == 1 << 20),
        "{err}"
    );
    assert!(largest <= 1 << 20, "{largest}-byte allocation");
}

#[test]
fn persist_loaders_stay_bounded_on_generated_files() {
    let im = images();
    let mut failures = Vec::new();
    for b in truncations(&im.blob).chain(count_rewrites(&im.blob, 8, unsigned)) {
        failures.extend(over_allocation("persist::load", &b, |b| {
            persist::load(b, 4)
        }));
    }
    for b in truncations(&im.online).chain(count_rewrites(&im.online, 8, unsigned)) {
        failures.extend(over_allocation("persist::load_online", &b, |b| {
            persist::load_online(b, 4)
        }));
    }
    assert_none(failures);
}

#[test]
fn delta_decoder_stays_bounded_on_generated_deltas() {
    let im = images();
    let inputs = truncations(&im.delta)
        .chain(count_rewrites(&im.delta, 8, resign_delta).take(64))
        .chain(count_rewrites(&im.delta, 4, resign_delta).take(64));
    assert_none(
        inputs
            .filter_map(|b| over_allocation("delta", &b, ModelDelta::from_bytes))
            .collect(),
    );
}

#[test]
fn frame_decoders_stay_bounded_on_generated_payloads() {
    let im = images();
    let mut failures = Vec::new();
    for b in truncations(&im.predict).chain(count_rewrites(&im.predict, 4, unsigned)) {
        failures.extend(over_allocation("decode_predict", &b, |b| {
            frame::decode_predict(b).map(drop)
        }));
    }
    for b in truncations(&im.batch).chain(count_rewrites(&im.batch, 4, unsigned)) {
        failures.extend(over_allocation("decode_predict_batch", &b, |b| {
            frame::decode_predict_batch(b).map(drop)
        }));
    }
    for b in truncations(&im.reply).chain(count_rewrites(&im.reply, 4, unsigned)) {
        failures.extend(over_allocation(
            "decode_batch_reply",
            &b,
            frame::decode_batch_reply,
        ));
    }
    assert_none(failures);
}
