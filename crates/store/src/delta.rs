//! Delta publication: ship only the hypervectors that changed.
//!
//! A RegHD model is `k` cluster hypervectors, `k` model hypervectors, an
//! optional centre vector, an intercept, scalers, and a canary section.
//! Streaming training between two publishes usually touches a *few*
//! clusters (the ones recent samples routed to), so republishing the full
//! bundle for every checkpoint moves mostly unchanged bytes. A
//! [`ModelDelta`] carries the changed vectors only:
//!
//! ```text
//! magic "RGDL" | version u16 = 1
//! base_hash u64 | base_version u64 | expected_hash u64
//! intercept f32 | dim u64 | k u64
//! changed clusters: count u32, then per entry idx u32 | dim × f32
//! changed models:   count u32, then per entry idx u32 | dim × f32
//! center  flag u8 (0 unchanged, 1 replaced → dim × f32)
//! scalers flag u8 (0 unchanged, 1 replaced → n u64 | means | stds | tm | ts)
//! canary  flag u8 (0 unchanged, 1 replaced → rows u64 | width u64 | rows×width f32 | rows f32)
//! crc32 over everything after the version field
//! ```
//!
//! **Bit-exactness is enforced, not hoped for**: `expected_hash` is the
//! FNV-1a of the full bundle bytes the trainer would have published, and
//! [`ModelDelta::apply`] re-serialises the patched bundle and refuses to
//! return bytes that hash differently. A base+delta load is therefore
//! byte-identical to a full-bundle load — same predictions in every
//! cluster/prediction mode, same canary replay, same artefact hash in
//! `list` output.

use crate::{fnv1a, StoreError};
use hdc::wire::{crc32, Reader, WireError};
use reghd::RegHdRegressor;
use reghd_serve::bundle::ModelBundle;

const MAGIC: &[u8; 4] = b"RGDL";
const VERSION: u16 = 1;

/// A sparse model update from one published version to the next.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDelta {
    /// FNV-1a of the full bundle bytes this delta applies on top of.
    pub base_hash: u64,
    /// Store version the base was published as.
    pub base_version: u64,
    /// FNV-1a the patched full bundle bytes must hash to.
    pub expected_hash: u64,
    intercept: f32,
    dim: usize,
    k: usize,
    clusters: Vec<(u32, Vec<f32>)>,
    models: Vec<(u32, Vec<f32>)>,
    center: Option<Vec<f32>>,
    scalers: Option<(Vec<f32>, Vec<f32>, f32, f32)>,
    canary: Option<(Vec<Vec<f32>>, Vec<f32>)>,
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl ModelDelta {
    /// Diffs two full bundle images. Returns `None` when a delta cannot
    /// represent the change (different config, encoder spec — which fixes
    /// the feature width — or model shape) — the caller publishes the full
    /// bundle instead.
    ///
    /// # Errors
    ///
    /// Either image failing to parse (these are trusted, already-validated
    /// publish artefacts, so a parse failure is a caller bug worth
    /// surfacing rather than silently full-publishing).
    pub fn compute(
        base_bytes: &[u8],
        base_version: u64,
        new_bytes: &[u8],
    ) -> Result<Option<ModelDelta>, StoreError> {
        let base = ModelBundle::from_bytes(base_bytes).map_err(StoreError::Bundle)?;
        let new = ModelBundle::from_bytes(new_bytes).map_err(StoreError::Bundle)?;
        let (bcfg, ncfg) = (base.model().config(), new.model().config());
        if bcfg != ncfg || base.spec() != new.spec() {
            return Ok(None);
        }
        let (bc, nc) = (
            base.model().clusters().integer_clusters(),
            new.model().clusters().integer_clusters(),
        );
        let (bm, nm) = (
            base.model().models().integer_models(),
            new.model().models().integer_models(),
        );
        if bc.len() != nc.len() || bm.len() != nm.len() {
            return Ok(None);
        }
        let center = match (base.model().center(), new.model().center()) {
            (None, None) => None,
            (Some(b), Some(n)) if bits_eq(b.as_slice(), n.as_slice()) => None,
            (Some(_), Some(n)) => Some(n.as_slice().to_vec()),
            // A centre appearing or vanishing means a different
            // normalisation setup — not a delta.
            _ => return Ok(None),
        };
        let clusters: Vec<(u32, Vec<f32>)> = bc
            .iter()
            .zip(nc)
            .enumerate()
            .filter(|(_, (b, n))| !bits_eq(b.as_slice(), n.as_slice()))
            .map(|(i, (_, n))| (i as u32, n.as_slice().to_vec()))
            .collect();
        let models: Vec<(u32, Vec<f32>)> = bm
            .iter()
            .zip(nm)
            .enumerate()
            .filter(|(_, (b, n))| !bits_eq(b.as_slice(), n.as_slice()))
            .map(|(i, (_, n))| (i as u32, n.as_slice().to_vec()))
            .collect();
        let scalers_same = bits_eq(base.feat_means(), new.feat_means())
            && bits_eq(base.feat_stds(), new.feat_stds())
            && base.target_mean().to_bits() == new.target_mean().to_bits()
            && base.target_std().to_bits() == new.target_std().to_bits();
        let scalers = (!scalers_same).then(|| {
            (
                new.feat_means().to_vec(),
                new.feat_stds().to_vec(),
                new.target_mean(),
                new.target_std(),
            )
        });
        let canary_same = base.canary_rows().len() == new.canary_rows().len()
            && base
                .canary_rows()
                .iter()
                .zip(new.canary_rows())
                .all(|(b, n)| bits_eq(b, n))
            && bits_eq(base.canary_preds(), new.canary_preds());
        let canary =
            (!canary_same).then(|| (new.canary_rows().to_vec(), new.canary_preds().to_vec()));
        Ok(Some(ModelDelta {
            base_hash: fnv1a(base_bytes),
            base_version,
            expected_hash: fnv1a(new_bytes),
            intercept: new.model().intercept(),
            dim: ncfg.dim,
            k: ncfg.models,
            clusters,
            models,
            center,
            scalers,
            canary,
        }))
    }

    /// Number of changed cluster + model hypervectors the delta carries.
    pub fn changed_vectors(&self) -> usize {
        self.clusters.len() + self.models.len()
    }

    /// Applies the delta to its base image, returning the patched **full**
    /// bundle bytes — verified to hash to [`ModelDelta::expected_hash`],
    /// i.e. bit-identical to the full bundle the sender diffed against.
    ///
    /// # Errors
    ///
    /// Base hash mismatch (delta applied to the wrong version), malformed
    /// base, out-of-range patch indices, a changed feature count, or a
    /// result-hash mismatch.
    pub fn apply(&self, base_bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        let got = fnv1a(base_bytes);
        if got != self.base_hash {
            return Err(StoreError::Delta(format!(
                "base hash mismatch: delta expects {:016x}, image is {got:016x}",
                self.base_hash
            )));
        }
        let base = ModelBundle::from_bytes(base_bytes).map_err(StoreError::Corrupt)?;
        let cfg = base.model().config().clone();
        if cfg.dim != self.dim || cfg.models != self.k {
            return Err(StoreError::Delta(format!(
                "shape mismatch: delta is {}x{}, base is {}x{}",
                self.k, self.dim, cfg.models, cfg.dim
            )));
        }
        let mut clusters = base.model().clusters().integer_clusters().to_vec();
        let mut models = base.model().models().integer_models().to_vec();
        for (idx, data) in &self.clusters {
            let slot = clusters
                .get_mut(*idx as usize)
                .ok_or_else(|| StoreError::Delta(format!("cluster index {idx} out of range")))?;
            *slot = hdc::RealHv::from_vec(data.clone());
        }
        for (idx, data) in &self.models {
            let slot = models
                .get_mut(*idx as usize)
                .ok_or_else(|| StoreError::Delta(format!("model index {idx} out of range")))?;
            *slot = hdc::RealHv::from_vec(data.clone());
        }
        let center = match &self.center {
            Some(c) => Some(hdc::RealHv::from_vec(c.clone())),
            None => base.model().center().cloned(),
        };
        let (feat_means, feat_stds, target_mean, target_std) = match &self.scalers {
            // `compute` never changes the feature width, and the base's
            // encoder is built for it: refuse before rebuilding the model.
            Some((m, ..)) if m.len() != base.num_features() => {
                return Err(StoreError::Delta(format!(
                    "delta changes the feature count from {} to {}",
                    base.num_features(),
                    m.len()
                )));
            }
            Some((m, s, tm, ts)) => (m.clone(), s.clone(), *tm, *ts),
            None => (
                base.feat_means().to_vec(),
                base.feat_stds().to_vec(),
                base.target_mean(),
                base.target_std(),
            ),
        };
        let (canary_rows, canary_preds) = match &self.canary {
            Some((r, p)) => (r.clone(), p.clone()),
            None => (base.canary_rows().to_vec(), base.canary_preds().to_vec()),
        };
        let spec = base.spec().clone();
        let model =
            RegHdRegressor::from_parts(cfg, spec.build(), clusters, models, center, self.intercept);
        let patched = ModelBundle::from_parts_with_canary(
            model,
            spec,
            feat_means,
            feat_stds,
            target_mean,
            target_std,
            canary_rows,
            canary_preds,
        )
        .map_err(StoreError::Delta)?;
        let bytes = patched.to_bytes().map_err(StoreError::Delta)?;
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
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body: Vec<u8> = Vec::new();
        body.extend_from_slice(&self.base_hash.to_le_bytes());
        body.extend_from_slice(&self.base_version.to_le_bytes());
        body.extend_from_slice(&self.expected_hash.to_le_bytes());
        body.extend_from_slice(&self.intercept.to_le_bytes());
        body.extend_from_slice(&(self.dim as u64).to_le_bytes());
        body.extend_from_slice(&(self.k as u64).to_le_bytes());
        for group in [&self.clusters, &self.models] {
            body.extend_from_slice(&(group.len() as u32).to_le_bytes());
            for (idx, data) in group {
                body.extend_from_slice(&idx.to_le_bytes());
                for &v in data {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        match &self.center {
            None => body.push(0),
            Some(c) => {
                body.push(1);
                for &v in c {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        match &self.scalers {
            None => body.push(0),
            Some((m, s, tm, ts)) => {
                body.push(1);
                body.extend_from_slice(&(m.len() as u64).to_le_bytes());
                for &v in m.iter().chain(s) {
                    body.extend_from_slice(&v.to_le_bytes());
                }
                body.extend_from_slice(&tm.to_le_bytes());
                body.extend_from_slice(&ts.to_le_bytes());
            }
        }
        match &self.canary {
            None => body.push(0),
            Some((rows, preds)) => {
                body.push(1);
                body.extend_from_slice(&(rows.len() as u64).to_le_bytes());
                let width = rows.first().map_or(0, Vec::len) as u64;
                body.extend_from_slice(&width.to_le_bytes());
                for row in rows {
                    for &v in row {
                        body.extend_from_slice(&v.to_le_bytes());
                    }
                }
                for &p in preds {
                    body.extend_from_slice(&p.to_le_bytes());
                }
            }
        }
        let mut out = Vec::with_capacity(6 + body.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Parses a serialised delta, verifying its trailing checksum.
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
        let intercept = r.f32()?;
        let dim = r.usize()?;
        let k = r.usize()?;
        if dim == 0 || dim > 1 << 24 || k == 0 || k > 1 << 16 {
            return Err(format!("implausible shape {k}x{dim}"));
        }
        let mut group = || -> Result<Vec<(u32, Vec<f32>)>, String> {
            let count = r.u32()? as usize;
            if count > 2 * k {
                return Err(format!("implausible changed-vector count {count}"));
            }
            Ok((0..count)
                .map(|_| Ok((r.u32()?, r.f32s(dim)?)))
                .collect::<Result<_, WireError>>()?)
        };
        let clusters = group()?;
        let models = group()?;
        let center = if r.flag()? { Some(r.f32s(dim)?) } else { None };
        let scalers = if r.flag()? {
            let n = r.usize()?;
            if n > 1 << 20 {
                return Err(format!("implausible feature count {n}"));
            }
            Some((r.f32s(n)?, r.f32s(n)?, r.f32()?, r.f32()?))
        } else {
            None
        };
        let canary = if r.flag()? {
            let rows = r.usize()?;
            let width = r.usize()?;
            if rows > 64 || width > 1 << 20 {
                return Err(format!("implausible canary shape {rows}x{width}"));
            }
            let rs = (0..rows).map(|_| r.f32s(width)).collect::<Result<_, _>>()?;
            Some((rs, r.f32s(rows)?))
        } else {
            None
        };
        r.finish()?;
        Ok(ModelDelta {
            base_hash,
            base_version,
            expected_hash,
            intercept,
            dim,
            k,
            clusters,
            models,
            center,
            scalers,
            canary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reghd::config::{ClusterMode, PredictionMode, RegHdConfig};
    use reghd::Regressor;
    use reghd_serve::bundle::encoder_spec;

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
                let delta = ModelDelta::compute(&base_bytes, 1, &new_bytes)
                    .unwrap()
                    .expect("same config must be delta-able");
                // Sparse: only the two perturbed vectors travel.
                assert!(
                    delta.changed_vectors() <= 4,
                    "{cm:?}/{pm:?}: {} changed",
                    delta.changed_vectors()
                );
                // Wire roundtrip, then application — byte-identical to the
                // full publish, hence identical predictions.
                let wire = ModelDelta::from_bytes(&delta.to_bytes()).unwrap();
                assert_eq!(wire, delta);
                let patched = wire.apply(&base_bytes).unwrap();
                assert_eq!(patched, new_bytes, "{cm:?}/{pm:?} not bit-exact");
                let loaded = ModelBundle::from_bytes(&patched).unwrap();
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
    fn config_change_is_not_delta_able() {
        let a = trained(ClusterMode::Integer, PredictionMode::Full, 8);
        let b = trained(ClusterMode::FrameworkBinary, PredictionMode::BinaryQuery, 8);
        let d = ModelDelta::compute(&a.to_bytes().unwrap(), 1, &b.to_bytes().unwrap()).unwrap();
        assert!(d.is_none());
    }

    #[test]
    fn spec_change_is_not_delta_able() {
        // Same config and learned state under another encoder seed: a
        // delta carries no spec, so it cannot express the change.
        let a = trained(ClusterMode::Integer, PredictionMode::Full, 13);
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
        let (m, s) = (a.feat_means().to_vec(), a.feat_stds().to_vec());
        let b = ModelBundle::from_parts_with_canary(model, spec, m, s, 0.0, 1.0, vec![], vec![])
            .unwrap();
        let d = ModelDelta::compute(&a.to_bytes().unwrap(), 1, &b.to_bytes().unwrap()).unwrap();
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
    fn delta_changing_the_feature_count_is_rejected() {
        let base = trained(ClusterMode::Integer, PredictionMode::Full, 12);
        let base_bytes = base.to_bytes().unwrap();
        let mut delta = ModelDelta::compute(&base_bytes, 1, &perturbed(&base).to_bytes().unwrap())
            .unwrap()
            .unwrap();
        delta.scalers = Some((vec![0.0; 3], vec![1.0; 3], 0.0, 1.0));
        let err = delta.apply(&base_bytes).unwrap_err();
        assert!(err.to_string().contains("feature count"), "{err}");
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
        assert_eq!(delta.changed_vectors(), 0);
        assert_eq!(delta.base_version, 3);
        assert_eq!(delta.apply(&bytes).unwrap(), bytes);
    }
}
