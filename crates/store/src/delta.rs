//! Delta publication: ship only the bytes that changed.
//!
//! A streaming checkpoint (§2.3) usually changes a few of a model's
//! hypervectors, so most bytes of its `.rghd` image equal those of the
//! image published before it. A [`ModelDelta`] is a patch of that image:
//! the runs of bytes in which the new image differs from its base, and the
//! hashes of both images. It does not know the bundle's layout; only
//! `reghd_serve::bundle` and `reghd::persist` do.
//!
//! ```text
//! magic "RGDL" | version u16 = 2
//! base_hash u64 | base_version u64 | expected_hash u64 | image_len u64
//! runs: count u32, then per run: offset u64 | len u32 | len bytes
//! crc32 over everything after the version field
//! ```
//!
//! Runs are non-empty, ascending, non-overlapping and inside the
//! `image_len`-byte image. [`ModelDelta::compute`] merges two runs when
//! the equal bytes between them number no more than one run header, so
//! merging never lengthens the wire form, and a delta is never longer
//! than its new image plus the fixed fields and one run header.
//!
//! **Bit-exactness is enforced, not hoped for**: `base_hash` and
//! `expected_hash` are the FNV-1a of the two images, and
//! [`ModelDelta::apply`] refuses a base that hashes differently and a
//! patched image that does not hash to `expected_hash`. A base+delta load
//! is therefore byte-identical to a full-image load. Neither `compute` nor
//! `apply` decodes an image: the store's publication gate decodes the
//! patched image once and replays its canary, as for a full publish.

use crate::{fnv1a, StoreError};
use hdc::wire::{crc32, Reader, WireError};

const MAGIC: &[u8; 4] = b"RGDL";
const VERSION: u16 = 2;
/// Wire bytes of a run's header, `offset u64 | len u32`: shipping a gap of
/// this many equal bytes costs no more than a second header.
const RUN_HEADER: usize = 12;

/// A byte patch from one published image to the next.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDelta {
    /// FNV-1a of the full bundle bytes this delta applies on top of.
    pub base_hash: u64,
    /// Store version the base was published as.
    pub base_version: u64,
    /// FNV-1a the patched full bundle bytes must hash to.
    pub expected_hash: u64,
    /// Length of the base image, and of the patched one.
    image_len: usize,
    /// Each run's offset in the image and its new bytes, ascending and
    /// non-overlapping.
    runs: Vec<(usize, Vec<u8>)>,
}

impl ModelDelta {
    /// Diffs two full images without decoding either. Returns `None` when
    /// their lengths differ, which no patch of equal-length runs can
    /// express: the caller publishes the full image instead.
    ///
    /// # Errors
    ///
    /// None: any two images of one length have a delta.
    pub fn compute(
        base_bytes: &[u8],
        base_version: u64,
        new_bytes: &[u8],
    ) -> Result<Option<ModelDelta>, StoreError> {
        if base_bytes.len() != new_bytes.len() {
            return Ok(None);
        }
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let pairs = base_bytes.iter().zip(new_bytes).enumerate();
        for (at, _) in pairs.filter(|(_, (b, n))| b != n) {
            match spans.last_mut() {
                Some((_, end)) if at - *end <= RUN_HEADER => *end = at + 1,
                _ => spans.push((at, at + 1)),
            }
        }
        Ok(Some(ModelDelta {
            base_hash: fnv1a(base_bytes),
            base_version,
            expected_hash: fnv1a(new_bytes),
            image_len: new_bytes.len(),
            runs: spans
                .into_iter()
                .map(|(start, end)| (start, new_bytes[start..end].to_vec()))
                .collect(),
        }))
    }

    /// Number of image bytes the delta rewrites.
    pub fn patched_bytes(&self) -> usize {
        self.runs.iter().map(|(_, run)| run.len()).sum()
    }

    /// Applies the delta to its base image, returning the patched **full**
    /// bundle bytes — verified to hash to [`ModelDelta::expected_hash`],
    /// i.e. bit-identical to the full bundle the sender diffed against.
    ///
    /// # Errors
    ///
    /// Base hash mismatch (delta applied to the wrong version), a base of
    /// another length than the delta patches, or a result-hash mismatch.
    pub fn apply(&self, base_bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        let got = fnv1a(base_bytes);
        if got != self.base_hash {
            return Err(StoreError::Delta(format!(
                "base hash mismatch: delta expects {:016x}, image is {got:016x}",
                self.base_hash
            )));
        }
        if base_bytes.len() != self.image_len {
            return Err(StoreError::Delta(format!(
                "delta patches a {}-byte image, the base has {} bytes",
                self.image_len,
                base_bytes.len()
            )));
        }
        let mut bytes = base_bytes.to_vec();
        // In range: `compute` and the decoder keep every run inside
        // `image_len` bytes.
        for (at, run) in &self.runs {
            bytes[*at..*at + run.len()].copy_from_slice(run);
        }
        let got = fnv1a(&bytes);
        if got != self.expected_hash {
            return Err(StoreError::Delta(format!(
                "patched bundle hashes {got:016x}, delta promised {:016x}",
                self.expected_hash
            )));
        }
        Ok(bytes)
    }

    /// Serialises the delta (see the module docs for the layout).
    ///
    /// # Panics
    ///
    /// On a run, or a run count, beyond `u32::MAX`: only an image over
    /// 4 GiB has one, and the store holds none (a pack location's length
    /// is a `u32`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let u32_of = |n: usize| u32::try_from(n).expect("a stored image is under 4 GiB");
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.base_hash.to_le_bytes());
        out.extend_from_slice(&self.base_version.to_le_bytes());
        out.extend_from_slice(&self.expected_hash.to_le_bytes());
        out.extend_from_slice(&(self.image_len as u64).to_le_bytes());
        out.extend_from_slice(&u32_of(self.runs.len()).to_le_bytes());
        for (at, run) in &self.runs {
            out.extend_from_slice(&(*at as u64).to_le_bytes());
            out.extend_from_slice(&u32_of(run.len()).to_le_bytes());
            out.extend_from_slice(run);
        }
        let crc = crc32(&out[MAGIC.len() + 2..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a serialised delta, verifying its trailing checksum and that
    /// every run is non-empty, ascending, non-overlapping and inside the
    /// image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::decode(bytes).map_err(StoreError::Delta)
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        if r.bytes(4)? != MAGIC {
            return Err("not a model delta".to_string());
        }
        let v = r.u16()?;
        if v != VERSION {
            return Err(format!("unsupported delta version {v}"));
        }
        // The body is everything between the version and the CRC trailer.
        let body = r.bytes(r.remaining().saturating_sub(4))?;
        let stored = r.u32()?;
        let computed = crc32(body);
        if stored != computed {
            return Err(format!(
                "delta checksum mismatch (stored {stored:08x}, computed {computed:08x})"
            ));
        }
        let mut r = Reader::new(body);
        let base_hash = r.u64()?;
        let base_version = r.u64()?;
        let expected_hash = r.u64()?;
        let image_len = r.usize()?;
        let count = r.u32()? as usize;
        // A run takes at least its header and one byte, so the count sizes
        // the table only once that many bytes are there.
        if count > r.remaining() / (RUN_HEADER + 1) {
            return Err(WireError::Truncated.into());
        }
        let mut runs = Vec::with_capacity(count);
        let mut end = 0;
        for _ in 0..count {
            let at = r.usize()?;
            let len = r.u32()? as usize;
            end = at
                .checked_add(len)
                .filter(|&run_end| len > 0 && at >= end && run_end <= image_len)
                .ok_or_else(|| {
                    format!(
                        "run of {len} bytes at {at} is empty, out of order \
                         or outside the {image_len}-byte image"
                    )
                })?;
            runs.push((at, r.bytes(len)?.to_vec()));
        }
        r.finish()?;
        Ok(ModelDelta {
            base_hash,
            base_version,
            expected_hash,
            image_len,
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reghd::config::{ClusterMode, PredictionMode, RegHdConfig};
    use reghd::{RegHdRegressor, Regressor};
    use reghd_serve::bundle::{encoder_spec, ModelBundle, SectionFrames};

    /// Wire bytes outside the runs: magic, version, four `u64` fields, the
    /// run count and the CRC.
    const FIXED: usize = 4 + 2 + 4 * 8 + 4 + 4;

    /// Diffs `base` against `new` and checks the patch: it roundtrips
    /// through its wire form, which is at most one run header and the
    /// fixed fields longer than `new`, and applied to `base` it gives
    /// exactly `new`.
    fn patch(base: &[u8], new: &[u8]) -> ModelDelta {
        let delta = ModelDelta::compute(base, 1, new)
            .unwrap()
            .expect("equal lengths are delta-able");
        let wire = delta.to_bytes();
        assert!(
            wire.len() <= new.len() + FIXED + RUN_HEADER,
            "{} wire bytes for a {}-byte image",
            wire.len(),
            new.len()
        );
        let decoded = ModelDelta::from_bytes(&wire).unwrap();
        assert_eq!(decoded, delta);
        assert_eq!(decoded.apply(base).unwrap(), new);
        delta
    }

    /// Trains a small bundle in the given quantisation modes.
    fn trained(cm: ClusterMode, pm: PredictionMode, seed: u64) -> ModelBundle {
        let rows: Vec<Vec<f32>> = (0..60)
            .map(|i| vec![i as f32 / 30.0, (i % 5) as f32])
            .collect();
        let ys: Vec<f32> = rows.iter().map(|r| 2.0 * r[0] - r[1]).collect();
        let cfg = RegHdConfig::builder()
            .dim(128)
            .models(2)
            .seed(seed)
            .max_epochs(4)
            .cluster_mode(cm)
            .prediction_mode(pm)
            .build();
        let spec = encoder_spec(2, &cfg);
        let mut model = RegHdRegressor::new(cfg, spec.build());
        model.fit(&rows, &ys);
        ModelBundle::from_trained(model, vec![0.0; 2], vec![1.0; 2], 0.0, 1.0, &rows).unwrap()
    }

    /// A same-config "next training step": one cluster and one model
    /// vector perturbed, canary recaptured.
    fn perturbed(base: &ModelBundle) -> ModelBundle {
        let cfg = base.model().config().clone();
        let mut clusters = base.model().clusters().integer_clusters().to_vec();
        let mut models = base.model().models().integer_models().to_vec();
        let mut c0: Vec<f32> = clusters[0].as_slice().to_vec();
        for v in &mut c0 {
            *v += 0.25;
        }
        clusters[0] = hdc::RealHv::from_vec(c0);
        let mut m1: Vec<f32> = models[1].as_slice().to_vec();
        for v in &mut m1 {
            *v -= 0.125;
        }
        models[1] = hdc::RealHv::from_vec(m1);
        let model = RegHdRegressor::from_parts(
            cfg,
            base.spec().build(),
            clusters,
            models,
            base.model().center().cloned(),
            base.model().intercept() + 0.5,
        );
        let rows = base.canary_rows().to_vec();
        ModelBundle::from_trained(model, vec![0.0; 2], vec![1.0; 2], 0.0, 1.0, &rows).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn patch_reproduces_edited_images(
            base in prop::collection::vec(any::<u8>(), 1..600),
            edits in prop::collection::vec((any::<u64>(), 1usize..40, 1u8..255), 0..12),
        ) {
            // Runs of edits at random offsets, some close enough to merge.
            let mut new = base.clone();
            for (at, len, xor) in edits {
                let at = at as usize % new.len();
                for b in new.iter_mut().skip(at).take(len) {
                    *b ^= xor;
                }
            }
            patch(&base, &new);
        }

        #[test]
        fn patch_reproduces_unrelated_images(
            (base, new) in (0usize..600).prop_flat_map(|n| {
                (prop::collection::vec(any::<u8>(), n), prop::collection::vec(any::<u8>(), n))
            }),
        ) {
            patch(&base, &new);
        }

        #[test]
        fn unequal_lengths_are_not_delta_able(
            base in prop::collection::vec(any::<u8>(), 0..64),
            new in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assume!(base.len() != new.len());
            prop_assert!(ModelDelta::compute(&base, 1, &new).unwrap().is_none());
        }
    }

    #[test]
    fn roundtrips_bit_exact_across_all_mode_combinations() {
        let probe: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32 / 4.0, 1.0]).collect();
        let cluster_modes = [
            ClusterMode::Integer,
            ClusterMode::FrameworkBinary,
            ClusterMode::NaiveBinary,
        ];
        for (ci, cm) in cluster_modes.into_iter().enumerate() {
            for (pi, pm) in PredictionMode::ALL.into_iter().enumerate() {
                let seed = 100 + (ci * 4 + pi) as u64;
                let base = trained(cm, pm, seed);
                let new = perturbed(&base);
                let (base_bytes, new_bytes) = (base.to_bytes().unwrap(), new.to_bytes().unwrap());
                // Wire roundtrip, then application — byte-identical to the
                // full publish, hence identical predictions.
                let delta = patch(&base_bytes, &new_bytes);
                // Sparse: the two perturbed vectors travel, with the
                // intercept, canary predictions and section CRCs.
                assert!(
                    delta.patched_bytes() <= 3 * 128 * 4,
                    "{cm:?}/{pm:?}: {} bytes patched",
                    delta.patched_bytes()
                );
                let loaded = ModelBundle::from_bytes(&new_bytes).unwrap();
                loaded.run_canary().unwrap();
                assert_eq!(
                    loaded.predict(&probe).unwrap(),
                    new.predict(&probe).unwrap(),
                    "{cm:?}/{pm:?}"
                );
            }
        }
    }

    #[test]
    fn delta_is_much_smaller_than_full_bundle() {
        let base = trained(ClusterMode::Integer, PredictionMode::Full, 7);
        let new = perturbed(&base);
        let (base_bytes, new_bytes) = (base.to_bytes().unwrap(), new.to_bytes().unwrap());
        let delta = ModelDelta::compute(&base_bytes, 1, &new_bytes)
            .unwrap()
            .unwrap();
        let wire = delta.to_bytes();
        assert!(
            wire.len() * 2 < new_bytes.len(),
            "delta {} vs full {}",
            wire.len(),
            new_bytes.len()
        );
    }

    #[test]
    fn merged_runs_ship_no_more_than_the_changed_vectors_did() {
        // 1,209 bytes is what the previous format, which shipped the
        // changed hypervectors, intercept and canary, took for this pair.
        // Unmerged, the ~200 runs between coincidentally equal bytes would
        // take more than the whole image.
        let base = trained(ClusterMode::Integer, PredictionMode::Full, 7);
        let new_bytes = perturbed(&base).to_bytes().unwrap();
        let delta = patch(&base.to_bytes().unwrap(), &new_bytes);
        assert!(
            delta.to_bytes().len() <= 1_209,
            "{}",
            delta.to_bytes().len()
        );
    }

    #[test]
    fn equal_length_config_change_patches_to_the_new_image() {
        // Another cluster and prediction mode: the same image length, so
        // a delta, gated like any other by both hashes and by the store's
        // canary replay of the patched image.
        let a = trained(ClusterMode::Integer, PredictionMode::Full, 8);
        let b = trained(ClusterMode::FrameworkBinary, PredictionMode::BinaryQuery, 8);
        let (a, b) = (a.to_bytes().unwrap(), b.to_bytes().unwrap());
        assert_eq!(a.len(), b.len());
        patch(&a, &b);
        ModelBundle::from_bytes(&b).unwrap().run_canary().unwrap();
    }

    #[test]
    fn length_change_is_not_delta_able() {
        // Fewer canary rows make a shorter image, published whole.
        let a = trained(ClusterMode::Integer, PredictionMode::Full, 14);
        let a_bytes = a.to_bytes().unwrap();
        let (rows, preds) = (
            a.canary_rows()[..4].to_vec(),
            a.canary_preds()[..4].to_vec(),
        );
        let b = ModelBundle::from_bytes(&a_bytes)
            .unwrap()
            .with_canary(rows, preds)
            .unwrap();
        let d = ModelDelta::compute(&a_bytes, 1, &b.to_bytes().unwrap()).unwrap();
        assert!(d.is_none());
    }

    #[test]
    fn spec_change_with_an_empty_canary_is_not_delta_able() {
        // Same config and learned state under another encoder seed, in a
        // bundle with no canary rows: the missing rows shorten the image,
        // which is why no delta can express the change. A spec change
        // alone keeps the length and patches like any other change.
        let a = trained(ClusterMode::Integer, PredictionMode::Full, 13);
        let a_bytes = a.to_bytes().unwrap();
        let encoding::EncoderSpec::Nonlinear {
            input_dim,
            dim,
            seed,
        } = *a.spec()
        else {
            panic!("trained bundles use the Nonlinear spec");
        };
        let spec = encoding::EncoderSpec::Nonlinear {
            input_dim,
            dim,
            seed: seed ^ 1,
        };
        let model = RegHdRegressor::from_parts(
            a.model().config().clone(),
            spec.build(),
            a.model().clusters().integer_clusters().to_vec(),
            a.model().models().integer_models().to_vec(),
            a.model().center().cloned(),
            a.model().intercept(),
        );
        // A v1 image (scalers, then the model blob) carries no canary.
        let mut v1 = b"RGCL".to_vec();
        v1.extend(1u16.to_le_bytes());
        v1.extend(SectionFrames::parse(&a_bytes).unwrap().scalers().unwrap());
        reghd::persist::save(&model, &spec, &mut v1).unwrap();
        let b = ModelBundle::from_bytes(&v1).unwrap();
        assert_eq!(b.spec(), &spec);
        let d = ModelDelta::compute(&a_bytes, 1, &b.to_bytes().unwrap()).unwrap();
        assert!(d.is_none());
    }

    #[test]
    fn wrong_base_is_rejected() {
        let base = trained(ClusterMode::Integer, PredictionMode::Full, 9);
        let new = perturbed(&base);
        let other = trained(ClusterMode::Integer, PredictionMode::Full, 10);
        let delta = ModelDelta::compute(&base.to_bytes().unwrap(), 1, &new.to_bytes().unwrap())
            .unwrap()
            .unwrap();
        let err = delta.apply(&other.to_bytes().unwrap()).unwrap_err();
        assert!(err.to_string().contains("base hash"), "{err}");
    }

    #[test]
    fn delta_for_another_image_length_is_refused() {
        // A forged `image_len`, re-signed: the runs still fit inside it,
        // so the delta decodes, and `apply` refuses the base's length.
        let base = trained(ClusterMode::Integer, PredictionMode::Full, 12);
        let base_bytes = base.to_bytes().unwrap();
        let delta = ModelDelta::compute(&base_bytes, 1, &perturbed(&base).to_bytes().unwrap())
            .unwrap()
            .unwrap();
        let mut wire = delta.to_bytes();
        let image_len = (base_bytes.len() as u64 + 1).to_le_bytes();
        wire[30..38].copy_from_slice(&image_len);
        let end = wire.len() - 4;
        let crc = crc32(&wire[6..end]);
        wire[end..].copy_from_slice(&crc.to_le_bytes());
        let forged = ModelDelta::from_bytes(&wire).unwrap();
        let err = forged.apply(&base_bytes).unwrap_err();
        assert!(err.to_string().contains("-byte image"), "{err}");
    }

    #[test]
    fn tampered_delta_is_rejected_by_checksum() {
        let base = trained(ClusterMode::Integer, PredictionMode::Full, 11);
        let new = perturbed(&base);
        let delta = ModelDelta::compute(&base.to_bytes().unwrap(), 1, &new.to_bytes().unwrap())
            .unwrap()
            .unwrap();
        let mut wire = delta.to_bytes();
        let mid = wire.len() / 2;
        wire[mid] ^= 0x08;
        let err = ModelDelta::from_bytes(&wire).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn identical_bundles_produce_empty_delta() {
        let base = trained(ClusterMode::Integer, PredictionMode::Full, 12);
        let bytes = base.to_bytes().unwrap();
        let delta = ModelDelta::compute(&bytes, 3, &bytes).unwrap().unwrap();
        assert_eq!(delta.patched_bytes(), 0);
        assert_eq!(delta.base_version, 3);
        assert_eq!(delta.apply(&bytes).unwrap(), bytes);
    }
}
