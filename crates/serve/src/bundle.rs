//! The deployable model bundle: a trained RegHD model together with the
//! feature/target scalers fitted on the training data, so serving and
//! command-line tools accept and emit values in **original units**.
//!
//! # File layout
//!
//! Version 2 (written by this crate) wraps every payload in a CRC32-guarded
//! section so that a flipped bit anywhere in a stored bundle is caught at
//! load time rather than silently served:
//!
//! ```text
//! magic "RGCL" | version: u16 = 2
//! [scalers section] [canary section] [model section]
//! section := len: u64 | payload (len bytes) | crc32(payload): u32
//! ```
//!
//! * **scalers** — feature means/stds and the target scaler (v1 body).
//! * **canary** — up to [`CANARY_ROWS`] raw-unit reference rows captured at
//!   training time together with the model's own predictions for them. A
//!   reloaded bundle replays these rows and must reproduce the stored
//!   predictions **bit-exactly** before it is allowed to serve (see
//!   [`ModelBundle::run_canary`]); the registry rolls back to the previous
//!   version on mismatch.
//! * **model** — the embedded `reghd::persist` blob, which carries the
//!   spec of the encoder the model encodes with. A decoded bundle keeps
//!   that spec and writes it back unchanged.
//!
//! Version 1 bundles (no checksums, no canary) remain loadable; they simply
//! skip the canary replay.
//!
//! The format is bit-exact across a round-trip: a loaded bundle predicts
//! identically to the one that was saved (see `reghd::persist` for why).
//!
//! This module originated in `reghd-cli` and moved here so the serving
//! registry and the CLI share one implementation.

use datasets::normalize::{Standardizer, TargetScaler};
use datasets::Dataset;
use encoding::EncoderSpec;
use hdc::rng::HdRng;
use hdc::wire::{Crc32, Reader};
use reghd::config::{ClusterMode, PredictionMode, RegHdConfig};
use reghd::persist::{self, PersistError};
use reghd::traits::FitReport;
use reghd::{RegHdRegressor, Regressor};
use std::io::{Read, Write};

/// The checksum written after each v2 section (see [`hdc::wire::crc32`]).
pub use hdc::wire::crc32;

const MAGIC: &[u8; 4] = b"RGCL";
const VERSION: u16 = 2;
/// Maximum number of reference rows stored in a bundle's canary section.
pub const CANARY_ROWS: usize = 8;

/// A trained model plus its data scalers and canary reference rows.
pub struct ModelBundle {
    // (Debug via the manual impl below: the model itself is the interesting
    // field, scalers are summarised.)
    model: RegHdRegressor,
    spec: EncoderSpec,
    feat_means: Vec<f32>,
    feat_stds: Vec<f32>,
    target_mean: f32,
    target_std: f32,
    canary_rows: Vec<Vec<f32>>,
    canary_preds: Vec<f32>,
}

impl std::fmt::Debug for ModelBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelBundle")
            .field("model", &self.model)
            .field("features", &self.feat_means.len())
            .field("target_mean", &self.target_mean)
            .field("target_std", &self.target_std)
            .field("canary_rows", &self.canary_rows.len())
            .finish()
    }
}

/// Trains a bundle on a raw-unit dataset. Returns the bundle together with
/// the fit report so callers (CLI, tests) decide what to print.
///
/// Up to [`CANARY_ROWS`] evenly spaced training rows are captured, together
/// with the freshly trained model's predictions for them, as the bundle's
/// canary section.
pub fn train(
    ds: &Dataset,
    dim: usize,
    models: usize,
    epochs: usize,
    seed: u64,
    quantized: bool,
) -> Result<(ModelBundle, FitReport), String> {
    train_with_threads(ds, dim, models, epochs, seed, quantized, 1)
}

/// [`train`] with a row-parallelism knob: the per-epoch encoding pass and
/// all batch predictions (including the canary capture) run on `threads`
/// threads (`0` = available parallelism, `1` = sequential). Rows are split
/// into contiguous chunks with per-row arithmetic unchanged, so the trained
/// bundle is **bit-identical** to [`train`]'s for every setting; the knob
/// stays set on the returned bundle.
#[allow(clippy::too_many_arguments)]
pub fn train_with_threads(
    ds: &Dataset,
    dim: usize,
    models: usize,
    epochs: usize,
    seed: u64,
    quantized: bool,
    threads: usize,
) -> Result<(ModelBundle, FitReport), String> {
    if ds.len() < 4 {
        return Err("need at least 4 samples to train".to_string());
    }
    let std = Standardizer::fit(ds);
    let normalised = std.transform(ds);
    let scaler = TargetScaler::fit(&ds.targets);
    let train_y: Vec<f32> = ds.targets.iter().map(|&y| scaler.transform(y)).collect();

    let mut builder = RegHdConfig::builder()
        .dim(dim)
        .models(models)
        .max_epochs(epochs)
        .seed(seed);
    if quantized {
        builder = builder
            .cluster_mode(ClusterMode::FrameworkBinary)
            .prediction_mode(PredictionMode::BinaryQuery);
    }
    let config = builder.build();
    let spec = encoder_spec(ds.num_features(), &config);
    let mut model = RegHdRegressor::new(config, spec.build());
    model.set_threads(threads);
    let report = model.fit(&normalised.features, &train_y);

    // Recover the fitted per-feature statistics by probing the
    // standardizer (a zero row maps to −μ/σ; a one row lets us solve σ).
    let zeros = vec![0.0f32; ds.num_features()];
    let ones = vec![1.0f32; ds.num_features()];
    let z = std.transform_row(&zeros);
    let o = std.transform_row(&ones);
    let mut feat_means = Vec::with_capacity(z.len());
    let mut feat_stds = Vec::with_capacity(z.len());
    for (&a, &b) in z.iter().zip(&o) {
        let inv_sigma = b - a; // (1−μ)/σ − (0−μ)/σ = 1/σ
        let sigma = if inv_sigma.abs() > 1e-12 {
            1.0 / inv_sigma
        } else {
            1.0
        };
        feat_stds.push(sigma);
        feat_means.push(-a * sigma);
    }

    // The canary rows are raw training rows, so the replay exercises the
    // scalers too.
    let bundle = ModelBundle::from_trained(
        model,
        feat_means,
        feat_stds,
        scaler.mean(),
        scaler.std(),
        &ds.features,
    )?;
    Ok((bundle, report))
}

/// The encoder spec a model gets when it is first built for a bundle: the
/// Eq. 1 nonlinear encoder for `input_dim` features at the config's
/// dimensionality, seeded `config.seed ^ 0xC11`. [`train`],
/// [`ModelBundle::from_trained`] and the streaming trainer build with it;
/// a decoded bundle keeps the spec its blob carries instead.
pub fn encoder_spec(input_dim: usize, config: &RegHdConfig) -> EncoderSpec {
    EncoderSpec::Nonlinear {
        input_dim,
        dim: config.dim,
        seed: config.seed ^ 0xC11,
    }
}

impl ModelBundle {
    /// Wraps a freshly trained model (the batch trainer's and the streaming
    /// trainer's snapshot path) into a bundle, capturing up to
    /// [`CANARY_ROWS`] evenly spaced rows of `canary_source` (raw units) —
    /// together with the model's own predictions for them — as the canary
    /// section.
    ///
    /// The model **must** have been built with [`encoder_spec`] for the
    /// scalers' feature count: that is the spec the bundle records. A model
    /// built differently would serialise a spec it does not encode with and
    /// fail its own canary replay on reload — caught, but late.
    ///
    /// # Errors
    ///
    /// Rejects mismatched scaler lengths, a model whose encoder expects a
    /// different feature count than the scalers carry, rows whose width
    /// disagrees with the scalers, and non-finite canary rows.
    pub fn from_trained(
        model: RegHdRegressor,
        feat_means: Vec<f32>,
        feat_stds: Vec<f32>,
        target_mean: f32,
        target_std: f32,
        canary_source: &[Vec<f32>],
    ) -> Result<Self, String> {
        let spec = encoder_spec(feat_means.len(), model.config());
        let mut bundle =
            Self::assemble(model, spec, feat_means, feat_stds, target_mean, target_std)?;
        let step = (canary_source.len() / CANARY_ROWS).max(1);
        let rows: Vec<Vec<f32>> = canary_source
            .iter()
            .step_by(step)
            .take(CANARY_ROWS)
            .cloned()
            .collect();
        bundle.canary_preds = bundle.predict(&rows)?;
        bundle.canary_rows = rows;
        Ok(bundle)
    }

    /// Number of raw input features a prediction row must have.
    pub fn num_features(&self) -> usize {
        self.feat_means.len()
    }

    /// The trained regressor (configuration inspection for registry
    /// metadata).
    pub fn model(&self) -> &RegHdRegressor {
        &self.model
    }

    /// The spec of the encoder the model encodes with — the one
    /// [`ModelBundle::to_bytes`] records.
    pub fn spec(&self) -> &EncoderSpec {
        &self.spec
    }

    /// Sets the row-parallelism knob on the embedded model (`0` = available
    /// parallelism, `1` = sequential). Prediction batches are split across
    /// threads with per-row arithmetic unchanged, so [`ModelBundle::predict`]
    /// stays bit-identical for every setting — the canary replay in
    /// particular is unaffected. Takes `&self` so serving can turn the knob
    /// on a bundle already behind an `Arc`.
    pub fn set_threads(&self, threads: usize) {
        self.model.set_threads(threads);
    }

    /// Sets the encoder's trig evaluation mode (see [`hdc::TrigMode`]).
    /// `Fast` trades the documented bounded trig error for throughput on
    /// the inference path; [`ModelBundle::run_canary`] always forces
    /// `Exact` for its replay, so the knob never breaks bit-exact rollback
    /// checks. Takes `&self`, like the thread knob.
    pub fn set_trig_mode(&self, mode: hdc::TrigMode) {
        self.model.set_trig_mode(mode);
    }

    /// The embedded model's current trig evaluation mode.
    pub fn trig_mode(&self) -> hdc::TrigMode {
        self.model.trig_mode()
    }

    /// The target scaler's standard deviation — converts a standardised
    /// training RMSE back to original units.
    pub fn target_std(&self) -> f32 {
        self.target_std
    }

    /// Number of canary reference rows stored in this bundle (0 for
    /// bundles loaded from the v1 format).
    pub fn canary_len(&self) -> usize {
        self.canary_rows.len()
    }

    /// Per-feature means of the fitted standardizer (raw → model units).
    pub fn feat_means(&self) -> &[f32] {
        &self.feat_means
    }

    /// Per-feature standard deviations of the fitted standardizer.
    pub fn feat_stds(&self) -> &[f32] {
        &self.feat_stds
    }

    /// The target scaler's mean — pairs with [`ModelBundle::target_std`].
    pub fn target_mean(&self) -> f32 {
        self.target_mean
    }

    /// The stored canary reference rows (raw units).
    pub fn canary_rows(&self) -> &[Vec<f32>] {
        &self.canary_rows
    }

    /// The predictions recorded for the canary rows at save time.
    pub fn canary_preds(&self) -> &[f32] {
        &self.canary_preds
    }

    /// Approximate resident memory of the decoded bundle, in bytes: the
    /// integer and binary copies of both hypervector banks, the optional
    /// centre vector, scalers, and canary rows. Deterministic for a given
    /// shape, so eviction accounting and the `list` protocol report stable
    /// numbers.
    pub fn approx_mem_bytes(&self) -> usize {
        let cfg = self.model.config();
        let (dim, k) = (cfg.dim, cfg.models);
        let n = self.feat_means.len();
        // Integer (f32) + binary (packed bits) copies of k clusters and k
        // models, plus per-bank amplitude scalars.
        let banks = 2 * k * (dim * 4 + dim / 8 + 8);
        let center = if self.model.center().is_some() {
            dim * 4
        } else {
            0
        };
        let scalers = 2 * n * 4 + 8;
        let canary = self.canary_rows.len() * (n + 1) * 4;
        banks + center + scalers + canary + 256
    }

    /// Standardises raw-unit rows, validating width and finiteness.
    fn scale_rows(&self, rows: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, String> {
        let expected = self.feat_means.len();
        let mut scaled = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if row.len() != expected {
                return Err(format!(
                    "row has {} features, model expects {expected}",
                    row.len()
                ));
            }
            if let Some(j) = row.iter().position(|v| !v.is_finite()) {
                return Err(format!("row {i} has a non-finite feature at index {j}"));
            }
            scaled.push(
                row.iter()
                    .zip(self.feat_means.iter().zip(&self.feat_stds))
                    .map(|(&x, (&m, &s))| if s != 0.0 { (x - m) / s } else { x - m })
                    .collect::<Vec<f32>>(),
            );
        }
        Ok(scaled)
    }

    /// Predicts in original units for raw-unit feature rows. Rows with the
    /// wrong width or non-finite (NaN/Inf) features are rejected.
    pub fn predict(&self, rows: &[Vec<f32>]) -> Result<Vec<f32>, String> {
        let mut scratch = reghd::PredictScratch::default();
        self.predict_with(rows, &mut scratch)
    }

    /// [`ModelBundle::predict`] with caller-owned scratch buffers — the
    /// serving worker loop keeps one [`reghd::PredictScratch`] alive across
    /// micro-batches so the steady-state hot path allocates no encoded
    /// hypervectors per request. Bit-identical to `predict`.
    pub fn predict_with(
        &self,
        rows: &[Vec<f32>],
        scratch: &mut reghd::PredictScratch,
    ) -> Result<Vec<f32>, String> {
        let scaled = self.scale_rows(rows)?;
        // One blocked batched pass through the model — the hot path of the
        // serving worker pool.
        Ok(self
            .model
            .predict_batch_with(&scaled, scratch)
            .into_iter()
            .map(|y_std| y_std * self.target_std + self.target_mean)
            .collect())
    }

    /// Predicts through the **bit-packed binary tier** (§3.2 binary–binary:
    /// int8 encode, sign-packed query, Hamming similarity, popcount scores)
    /// regardless of the bundle's configured prediction mode. Serving uses
    /// the same implementation both when a client *requests* the
    /// low-latency tier and as its **degraded-mode** fallback when the
    /// full-precision path is unavailable (worker timeout, queue
    /// saturation, or a model flagged corrupt, where the binary path's
    /// holographic robustness is exactly the property the paper argues
    /// for).
    pub fn predict_binary(&self, rows: &[Vec<f32>]) -> Result<Vec<f32>, String> {
        let mut scratch = reghd::PredictScratch::default();
        self.predict_binary_with(rows, &mut scratch)
    }

    /// [`ModelBundle::predict_binary`] with caller-owned scratch buffers —
    /// the binary tier's zero-allocation serving entry point, matching
    /// [`ModelBundle::predict_with`].
    pub fn predict_binary_with(
        &self,
        rows: &[Vec<f32>],
        scratch: &mut reghd::PredictScratch,
    ) -> Result<Vec<f32>, String> {
        let scaled = self.scale_rows(rows)?;
        Ok(self
            .model
            .predict_batch_binary_with(&scaled, scratch)
            .into_iter()
            .map(|y_std| y_std * self.target_std + self.target_mean)
            .collect())
    }

    /// Replays the stored canary rows and checks the predictions against
    /// the values recorded at save time, **bit-exactly**. `Ok` for bundles
    /// without a canary section (v1). The registry runs this after every
    /// load/reload and refuses to swap in a model that fails.
    pub fn run_canary(&self) -> Result<(), String> {
        if self.canary_rows.is_empty() {
            return Ok(());
        }
        // The recorded predictions were captured in Exact trig mode; force
        // it for the replay so an operator's `Fast` knob cannot turn a
        // healthy bundle into a false canary failure, then restore.
        let saved = self.model.trig_mode();
        self.model.set_trig_mode(hdc::TrigMode::Exact);
        let got = self.predict(&self.canary_rows);
        self.model.set_trig_mode(saved);
        let got = got?;
        for (i, (&g, &e)) in got.iter().zip(&self.canary_preds).enumerate() {
            if g.to_bits() != e.to_bits() {
                return Err(format!("canary row {i} predicted {g}, bundle recorded {e}"));
            }
        }
        Ok(())
    }

    /// Replaces the canary section (lengths must agree). Test hook for
    /// crafting bundles whose checksums are valid but whose canary replay
    /// fails — the scenario that distinguishes the canary check from the
    /// load-time CRC check.
    pub fn with_canary(mut self, rows: Vec<Vec<f32>>, preds: Vec<f32>) -> Result<Self, String> {
        if rows.len() != preds.len() {
            return Err(format!(
                "canary rows ({}) and predictions ({}) disagree",
                rows.len(),
                preds.len()
            ));
        }
        if rows.len() > CANARY_ROWS {
            return Err(format!("at most {CANARY_ROWS} canary rows"));
        }
        if rows.iter().any(|r| r.len() != self.num_features()) {
            return Err("canary row width mismatch".to_string());
        }
        self.canary_rows = rows;
        self.canary_preds = preds;
        Ok(self)
    }

    /// Returns a copy of this bundle whose served hypervector state
    /// (cluster and model banks) has each component's sign flipped
    /// independently with probability `rate` — the §3 component-fault
    /// model applied to the *stored model* rather than the query. Also
    /// returns the number of flipped components. Scalers and canary rows
    /// are carried over unchanged, so the corrupted copy fails its canary
    /// replay (with overwhelming probability for any meaningful rate).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    pub fn with_model_faults(&self, rate: f64, seed: u64) -> (Self, usize) {
        let mut rng = HdRng::seed_from(seed);
        let mut clusters = self.model.clusters().integer_clusters().to_vec();
        let mut models = self.model.models().integer_models().to_vec();
        let mut flips = 0;
        for hv in clusters.iter_mut().chain(models.iter_mut()) {
            flips += hdc::noise::flip_signs_in_place(hv, rate, &mut rng);
        }
        let model = RegHdRegressor::from_parts(
            self.model.config().clone(),
            self.spec.build(),
            clusters,
            models,
            self.model.center().cloned(),
            self.model.intercept(),
        );
        (
            Self {
                model,
                spec: self.spec.clone(),
                feat_means: self.feat_means.clone(),
                feat_stds: self.feat_stds.clone(),
                target_mean: self.target_mean,
                target_std: self.target_std,
                canary_rows: self.canary_rows.clone(),
                canary_preds: self.canary_preds.clone(),
            },
            flips,
        )
    }

    /// CRC32 over the bundle's in-memory learned state (intercept, centre,
    /// cluster/model hypervectors, scalers). The registry records this at
    /// load time and periodically recomputes it to detect in-memory
    /// corruption of a served model.
    pub fn state_checksum(&self) -> u32 {
        let mut crc = Crc32::new();
        crc.update(&self.model.intercept().to_le_bytes());
        if let Some(c) = self.model.center() {
            update_f32s(&mut crc, c.as_slice());
        }
        for hv in self.model.clusters().integer_clusters() {
            update_f32s(&mut crc, hv.as_slice());
        }
        for hv in self.model.models().integer_models() {
            update_f32s(&mut crc, hv.as_slice());
        }
        update_f32s(&mut crc, &self.feat_means);
        update_f32s(&mut crc, &self.feat_stds);
        crc.update(&self.target_mean.to_le_bytes());
        crc.update(&self.target_std.to_le_bytes());
        crc.finalize()
    }

    /// Serialises the bundle to bytes (v2: CRC32-guarded sections).
    pub fn to_bytes(&self) -> Result<Vec<u8>, String> {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());

        let mut scalers: Vec<u8> = Vec::new();
        scalers.extend_from_slice(&(self.feat_means.len() as u64).to_le_bytes());
        for &m in &self.feat_means {
            scalers.extend_from_slice(&m.to_le_bytes());
        }
        for &s in &self.feat_stds {
            scalers.extend_from_slice(&s.to_le_bytes());
        }
        scalers.extend_from_slice(&self.target_mean.to_le_bytes());
        scalers.extend_from_slice(&self.target_std.to_le_bytes());
        write_section(&mut buf, &scalers);

        let mut canary: Vec<u8> = Vec::new();
        canary.extend_from_slice(&(self.canary_rows.len() as u64).to_le_bytes());
        for row in &self.canary_rows {
            for &v in row {
                canary.extend_from_slice(&v.to_le_bytes());
            }
        }
        for &p in &self.canary_preds {
            canary.extend_from_slice(&p.to_le_bytes());
        }
        write_section(&mut buf, &canary);

        let mut blob: Vec<u8> = Vec::new();
        persist::save(&self.model, &self.spec, &mut blob).map_err(|e| e.to_string())?;
        write_section(&mut buf, &blob);
        Ok(buf)
    }

    /// Deserialises a bundle from bytes (the hot-reload entry point: the
    /// registry hashes and loads from one in-memory copy): the serving
    /// decode ([`ModelBundle::decode_serving`]) plus the canary section
    /// ([`ModelBundle::attach_canary_from`]). Reads both the checksummed v2
    /// layout and the legacy v1 layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut bundle = Self::decode_serving(bytes)?;
        bundle.attach_canary_from(bytes)?;
        Ok(bundle)
    }

    /// Decodes only the sections the serving path needs — scalers and
    /// model — verifying each one's checksum on this first touch and
    /// leaving the canary section's bytes **unread and unverified**. This
    /// is the model store's lazy-CRC load path: a bundle whose canary
    /// section is corrupt on disk still loads and serves (the store
    /// already gated publication on a full-validation canary replay);
    /// the rot is surfaced the first time something *touches* that
    /// section ([`ModelBundle::attach_canary_from`]).
    ///
    /// The returned bundle has an empty canary section, so it must not be
    /// re-serialised as a source of truth — the store keeps the original
    /// bytes for that.
    ///
    /// v1 images (scalers and model blob inline, no checksums, no canary)
    /// have no section frames to skip and decode whole.
    ///
    /// The scalers are read first, so a model blob whose encoder expects
    /// another feature count is refused before its encoder is built.
    pub fn decode_serving(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let (scalers, blob) = if read_header(&mut r)? == 1 {
            (read_scalers(&mut r)?, r.bytes(r.remaining())?)
        } else {
            let frames = SectionFrames::parse(bytes)?;
            (decode_scalers_payload(frames.scalers()?)?, frames.model()?)
        };
        let (feat_means, feat_stds, target_mean, target_std) = scalers;
        let n = feat_means.len();
        let (model, spec) = persist::load(blob, n).map_err(|e| match e {
            PersistError::Width { encoded, .. } => width_mismatch(encoded, n),
            e => e.to_string(),
        })?;
        Self::assemble(model, spec, feat_means, feat_stds, target_mean, target_std)
    }

    /// The deferred counterpart of [`ModelBundle::decode_serving`]:
    /// verifies the canary section's checksum (the section's first touch)
    /// and decodes it into this bundle, after which
    /// [`ModelBundle::run_canary`] replays it as usual. A v1 image has no
    /// canary section, so there is nothing to attach.
    ///
    /// # Errors
    ///
    /// Checksum mismatch or malformed canary payload — the caller (the
    /// store's audit path) treats either as bundle rot and rolls the key
    /// back to its last-good version.
    pub fn attach_canary_from(&mut self, bytes: &[u8]) -> Result<(), String> {
        if read_header(&mut Reader::new(bytes))? == 1 {
            return Ok(());
        }
        let frames = SectionFrames::parse(bytes)?;
        let (rows, preds) = decode_canary_payload(frames.canary()?, self.num_features())?;
        self.canary_rows = rows;
        self.canary_preds = preds;
        Ok(())
    }

    /// Joins a model, the spec it encodes with, and its scalers — the one
    /// constructor every bundle goes through, with an empty canary section.
    /// Rejects scaler lengths that disagree and a model whose encoder
    /// expects a different feature count than the scalers carry: a decoded
    /// bundle's scalers and model come from separately checksummed
    /// sections, and a mismatch would otherwise build fine and then panic
    /// on every predict.
    fn assemble(
        model: RegHdRegressor,
        spec: EncoderSpec,
        feat_means: Vec<f32>,
        feat_stds: Vec<f32>,
        target_mean: f32,
        target_std: f32,
    ) -> Result<Self, String> {
        if feat_means.len() != feat_stds.len() {
            return Err(format!(
                "feature means ({}) and stds ({}) disagree",
                feat_means.len(),
                feat_stds.len()
            ));
        }
        let encoded = model.encoder().input_dim();
        if encoded != feat_means.len() {
            return Err(width_mismatch(encoded, feat_means.len()));
        }
        Ok(Self {
            model,
            spec,
            feat_means,
            feat_stds,
            target_mean,
            target_std,
            canary_rows: Vec::new(),
            canary_preds: Vec::new(),
        })
    }

    /// Writes the bundle to a file.
    pub fn save(&self, path: &str) -> Result<(), String> {
        let buf = self.to_bytes()?;
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(&buf))
            .map_err(|e| format!("cannot write {path}: {e}"))
    }

    /// Reads a bundle from a file.
    pub fn load(path: &str) -> Result<Self, String> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::from_bytes(&bytes)
    }
}

/// The refusal of a model whose encoder expects `encoded` features
/// beside scalers for `carried`.
fn width_mismatch(encoded: usize, carried: usize) -> String {
    format!("model encodes {encoded} features but the scalers carry {carried}")
}

/// Reads the magic and the format version (1 or 2).
fn read_header(r: &mut Reader) -> Result<u16, String> {
    if r.bytes(4) != Ok(&MAGIC[..]) {
        return Err("not a reghd-cli model bundle".to_string());
    }
    match r.u16()? {
        v @ (1 | VERSION) => Ok(v),
        v => Err(format!("unsupported bundle version {v}")),
    }
}

/// Feature means, feature stds, target mean, target std.
type Scalers = (Vec<f32>, Vec<f32>, f32, f32);

/// Shared scaler-block layout (v1 body / v2 scalers section payload).
fn read_scalers(r: &mut Reader) -> Result<Scalers, String> {
    let n = r.usize()?;
    if n > 1 << 20 {
        return Err(format!("implausible feature count {n}"));
    }
    Ok((r.f32s(n)?, r.f32s(n)?, r.f32()?, r.f32()?))
}

/// The v2 scalers-section payload: the scaler block and nothing after it.
fn decode_scalers_payload(payload: &[u8]) -> Result<Scalers, String> {
    let mut r = Reader::new(payload);
    let scalers = read_scalers(&mut r)?;
    r.finish().map_err(|e| format!("{e} in scalers section"))?;
    Ok(scalers)
}

/// Shared canary-section payload layout (`rows:u64 | rows×n f32 | rows
/// f32`), decoded with the feature count from the scalers section.
fn decode_canary_payload(payload: &[u8], n: usize) -> Result<(Vec<Vec<f32>>, Vec<f32>), String> {
    let mut r = Reader::new(payload);
    let rows = r.usize()?;
    if rows > CANARY_ROWS {
        return Err(format!("implausible canary row count {rows}"));
    }
    let canary_rows = (0..rows).map(|_| r.f32s(n)).collect::<Result<_, _>>()?;
    let canary_preds = r.f32s(rows)?;
    r.finish().map_err(|e| format!("{e} in canary section"))?;
    Ok((canary_rows, canary_preds))
}

/// One `len | payload | crc` frame whose payload has been located but not
/// yet verified.
#[derive(Clone, Copy)]
struct Frame<'a> {
    payload: &'a [u8],
    stored_crc: u32,
}

impl<'a> Frame<'a> {
    /// Verifies the stored checksum and returns the payload — the point at
    /// which the section's bytes are actually read.
    fn verify(&self, name: &str) -> Result<&'a [u8], String> {
        let computed = crc32(self.payload);
        if self.stored_crc != computed {
            return Err(format!(
                "checksum mismatch in {name} section (stored {:08x}, computed {computed:08x})",
                self.stored_crc
            ));
        }
        Ok(self.payload)
    }
}

/// The three sections of a v2 bundle image, located by walking the length
/// prefixes only — **no checksum is computed** until a section accessor is
/// called. The model store memory-maps packfiles holding up to millions of
/// bundles; sweeping every image's full CRC at index-build time would read
/// every page, so integrity is checked per section on first touch instead.
pub struct SectionFrames<'a> {
    scalers: Frame<'a>,
    canary: Frame<'a>,
    model: Frame<'a>,
}

impl<'a> SectionFrames<'a> {
    /// Walks the section headers of a v2 image. Cheap: reads the magic,
    /// version, and three length fields — O(1) regardless of bundle size.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let v = read_header(&mut r)?;
        if v != VERSION {
            return Err(format!("section frames need a v2 bundle (got v{v})"));
        }
        let scalers = locate_frame(&mut r, "scalers")?;
        let canary = locate_frame(&mut r, "canary")?;
        let model = locate_frame(&mut r, "model")?;
        r.finish().map_err(|e| format!("{e} after model section"))?;
        Ok(Self {
            scalers,
            canary,
            model,
        })
    }

    /// Verifies and returns the scalers section payload.
    pub fn scalers(&self) -> Result<&'a [u8], String> {
        self.scalers.verify("scalers")
    }

    /// Verifies and returns the canary section payload.
    pub fn canary(&self) -> Result<&'a [u8], String> {
        self.canary.verify("canary")
    }

    /// Verifies and returns the model section payload.
    pub fn model(&self) -> Result<&'a [u8], String> {
        self.model.verify("model")
    }

    /// The canary section's row-count header, read **without** verifying
    /// the section checksum — metadata for lazily decoded store entries,
    /// where touching (and thus CRC-sweeping) the canary bytes is exactly
    /// what the lazy path avoids. `0` for an empty/malformed header.
    pub fn canary_rows_hint(&self) -> usize {
        match Reader::new(self.canary.payload).usize() {
            Ok(rows) if rows <= CANARY_ROWS => rows,
            _ => 0,
        }
    }
}

/// Locates one `len | payload | crc` frame without computing the checksum.
fn locate_frame<'a>(r: &mut Reader<'a>, name: &str) -> Result<Frame<'a>, String> {
    let truncated = |_| format!("truncated bundle ({name} section)");
    let len = r.usize().map_err(truncated)?;
    let payload = r.bytes(len).map_err(truncated)?;
    let stored_crc = r.u32().map_err(truncated)?;
    Ok(Frame {
        payload,
        stored_crc,
    })
}

fn write_section(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Feeds `vals` as little-endian bytes, staged through a stack block so
/// the CRC runs over long slices instead of one 4-byte update per float.
fn update_f32s(crc: &mut Crc32, vals: &[f32]) {
    const BLOCK: usize = 256;
    let mut buf = [0u8; BLOCK * 4];
    for block in vals.chunks(BLOCK) {
        for (dst, v) in buf.chunks_exact_mut(4).zip(block) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        crc.update(&buf[..block.len() * 4]);
    }
}

/// 64-bit FNV-1a of `bytes` — a bundle's artefact identity hash. The
/// registry's `list` output and the model store's index both report it,
/// so they must hash with this one function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{corrupt_bytes, ByteFault};

    fn toy_dataset() -> Dataset {
        let features: Vec<Vec<f32>> = (0..80)
            .map(|i| vec![i as f32, (i % 7) as f32 * 10.0])
            .collect();
        let targets: Vec<f32> = features.iter().map(|r| 3.0 * r[0] - r[1] + 100.0).collect();
        Dataset::new("toy", features, targets)
    }

    /// Serialises `b` in the legacy v1 layout (inline scalers + blob, no
    /// checksums) so backward compatibility is tested without a fixture
    /// file.
    fn to_bytes_v1(b: &ModelBundle) -> Vec<u8> {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&(b.feat_means.len() as u64).to_le_bytes());
        for &m in &b.feat_means {
            buf.extend_from_slice(&m.to_le_bytes());
        }
        for &s in &b.feat_stds {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        buf.extend_from_slice(&b.target_mean.to_le_bytes());
        buf.extend_from_slice(&b.target_std.to_le_bytes());
        persist::save(&b.model, &b.spec, &mut buf).unwrap();
        buf
    }

    #[test]
    fn train_predict_in_original_units() {
        let ds = toy_dataset();
        let (bundle, report) = train(&ds, 512, 2, 15, 1, false).unwrap();
        assert!(report.epochs >= 1);
        let preds = bundle.predict(&ds.features).unwrap();
        let mse = datasets::metrics::mse(&preds, &ds.targets);
        let var = ds.target_variance();
        assert!(mse < 0.1 * var, "mse {mse} vs var {var}");
    }

    #[test]
    fn threaded_training_is_bit_identical_to_sequential() {
        let ds = toy_dataset();
        let (seq, _) = train(&ds, 512, 2, 10, 1, false).unwrap();
        for threads in [0, 2, 4] {
            let (par, _) = train_with_threads(&ds, 512, 2, 10, 1, false, threads).unwrap();
            // Same bytes on disk, same predictions to the bit.
            assert_eq!(par.to_bytes().unwrap(), seq.to_bytes().unwrap());
            assert_eq!(
                par.predict(&ds.features).unwrap(),
                seq.predict(&ds.features).unwrap(),
                "threads={threads}"
            );
            par.run_canary().unwrap();
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 512, 2, 10, 2, true).unwrap();
        let path = std::env::temp_dir().join("reghd_serve_bundle_test.rghd");
        let path_str = path.to_str().unwrap();
        bundle.save(path_str).unwrap();
        let loaded = ModelBundle::load(path_str).unwrap();
        let a = bundle.predict(&ds.features[..5]).unwrap();
        let b = loaded.predict(&ds.features[..5]).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_roundtrip_is_bit_exact() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 9, false).unwrap();
        let bytes = bundle.to_bytes().unwrap();
        let loaded = ModelBundle::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.to_bytes().unwrap(), bytes);
        assert_eq!(
            bundle.predict(&ds.features[..3]).unwrap(),
            loaded.predict(&ds.features[..3]).unwrap()
        );
    }

    #[test]
    fn v1_bundle_still_loads() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 4, false).unwrap();
        let legacy = to_bytes_v1(&bundle);
        let loaded = ModelBundle::from_bytes(&legacy).unwrap();
        assert_eq!(loaded.canary_len(), 0);
        loaded.run_canary().unwrap(); // vacuous for v1, must not error
        assert_eq!(
            bundle.predict(&ds.features[..5]).unwrap(),
            loaded.predict(&ds.features[..5]).unwrap()
        );
        // Re-saving a v1 load upgrades it to the checksummed v2 layout.
        let upgraded = loaded.to_bytes().unwrap();
        assert_eq!(&upgraded[4..6], &2u16.to_le_bytes());
    }

    #[test]
    fn flipped_payload_byte_rejected_with_checksum_error() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 5, false).unwrap();
        let bytes = bundle.to_bytes().unwrap();
        // Flip a byte deep inside the model section payload.
        let mut corrupted = bytes.clone();
        let idx = corrupted.len() - 100;
        corrupted[idx] ^= 0x40;
        let err = ModelBundle::from_bytes(&corrupted).unwrap_err();
        assert!(err.contains("checksum mismatch"), "err: {err}");
        // And the scalers section near the front.
        let mut corrupted = bytes.clone();
        corrupted[20] ^= 0x01;
        let err = ModelBundle::from_bytes(&corrupted).unwrap_err();
        assert!(err.contains("checksum mismatch"), "err: {err}");
    }

    #[test]
    fn random_corruption_never_loads() {
        // Whatever a random flip or truncation hits (payload, length
        // field, crc), the load must fail — never a silently wrong model.
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 1, 5, 6, false).unwrap();
        let bytes = bundle.to_bytes().unwrap();
        let mut rng = HdRng::seed_from(77);
        for _ in 0..20 {
            let mut b = bytes.clone();
            corrupt_bytes(&mut b, ByteFault::FlipByte, &mut rng);
            assert!(ModelBundle::from_bytes(&b).is_err());
        }
        for _ in 0..20 {
            let mut b = bytes.clone();
            corrupt_bytes(&mut b, ByteFault::Truncate, &mut rng);
            assert!(ModelBundle::from_bytes(&b).is_err());
        }
        // A section length near u64::MAX must not overflow the bounds check.
        for len in [u64::MAX, u64::MAX - 3] {
            let mut b = bytes.clone();
            b[6..14].copy_from_slice(&len.to_le_bytes());
            assert!(ModelBundle::from_bytes(&b).is_err());
            assert!(ModelBundle::decode_serving(&b).is_err());
        }
    }

    #[test]
    fn from_trained_online_snapshot_roundtrips_with_passing_canary() {
        // Mirror the streaming trainer's checkpoint path: train online,
        // quantise, snapshot, wrap with identity scalers, round-trip.
        let cfg = RegHdConfig::builder().dim(256).models(2).seed(21).build();
        let spec = encoder_spec(2, &cfg);
        let mut online = reghd::OnlineRegHd::new(cfg, spec.build());
        let rows: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32 / 50.0, 1.0]).collect();
        for r in &rows {
            online.update(r, r[0] * 3.0 - 1.0);
        }
        online.quantize_now();
        let snapshot = online.snapshot(&spec);

        let bundle =
            ModelBundle::from_trained(snapshot, vec![0.0; 2], vec![1.0; 2], 0.0, 1.0, &rows)
                .unwrap();
        assert!(bundle.canary_len() > 0);
        bundle.run_canary().unwrap();

        let loaded = ModelBundle::from_bytes(&bundle.to_bytes().unwrap()).unwrap();
        loaded.run_canary().unwrap();
        assert_eq!(
            bundle.predict(&rows[..5]).unwrap(),
            loaded.predict(&rows[..5]).unwrap()
        );
    }

    #[test]
    fn from_trained_rejects_mismatched_scalers() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 1, 5, 3, false).unwrap();
        let model = ModelBundle::from_bytes(&bundle.to_bytes().unwrap())
            .unwrap()
            .model;
        let err =
            ModelBundle::from_trained(model, vec![0.0; 2], vec![1.0; 3], 0.0, 1.0, &ds.features)
                .unwrap_err();
        assert!(err.contains("disagree"), "err: {err}");
    }

    #[test]
    fn from_trained_rejects_a_model_wider_than_its_scalers() {
        // A 3-feature model with 2-wide scalers and rows: the width check
        // answers before the canary capture feeds 2-wide rows to a
        // 3-wide encoder.
        let cfg = RegHdConfig::builder().dim(128).models(2).seed(5).build();
        let spec = encoder_spec(3, &cfg);
        let model = RegHdRegressor::new(cfg, spec.build());
        let rows = vec![vec![0.5, 1.0]; 4];
        let err = ModelBundle::from_trained(model, vec![0.0; 2], vec![1.0; 2], 0.0, 1.0, &rows)
            .unwrap_err();
        assert!(err.contains("encodes 3 features"), "err: {err}");
    }

    #[test]
    fn canary_replay_passes_on_clean_roundtrip() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 7, false).unwrap();
        assert!(bundle.canary_len() > 0);
        bundle.run_canary().unwrap();
        let loaded = ModelBundle::from_bytes(&bundle.to_bytes().unwrap()).unwrap();
        assert_eq!(loaded.canary_len(), bundle.canary_len());
        loaded.run_canary().unwrap();
    }

    #[test]
    fn canary_detects_model_faults() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 8, false).unwrap();
        let (faulty, flips) = bundle.with_model_faults(0.2, 99);
        assert!(flips > 0);
        let err = faulty.run_canary().unwrap_err();
        assert!(err.contains("canary row"), "err: {err}");
    }

    #[test]
    fn crafted_canary_mismatch_fails_despite_valid_checksums() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 10, false).unwrap();
        let rows = vec![ds.features[0].clone()];
        let wrong = vec![bundle.predict(&rows).unwrap()[0] + 1.0];
        let crafted = bundle.with_canary(rows, wrong).unwrap();
        // The bytes are internally consistent — checksums pass …
        let loaded = ModelBundle::from_bytes(&crafted.to_bytes().unwrap()).unwrap();
        // … but the replay does not.
        assert!(loaded.run_canary().is_err());
    }

    /// Byte offset of the canary section's payload within a v2 image.
    fn canary_payload_offset(bytes: &[u8]) -> usize {
        let scalers_len = u64::from_le_bytes(bytes[6..14].try_into().unwrap()) as usize;
        6 + 8 + scalers_len + 4 + 8
    }

    #[test]
    fn decode_serving_skips_canary_checksum() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 13, false).unwrap();
        let mut bytes = bundle.to_bytes().unwrap();
        // Rot a byte inside the canary payload: the eager loader rejects
        // the image …
        let rot = canary_payload_offset(&bytes) + 9;
        bytes[rot] ^= 0x80;
        let err = ModelBundle::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("canary section"), "err: {err}");
        // … but the serving decode never touches that section, loads, and
        // predicts identically to the clean bundle.
        let served = ModelBundle::decode_serving(&bytes).unwrap();
        assert_eq!(served.canary_len(), 0);
        assert_eq!(
            served.predict(&ds.features[..5]).unwrap(),
            bundle.predict(&ds.features[..5]).unwrap()
        );
        // First touch of the rotten section fails cleanly.
        let mut served = served;
        let err = served.attach_canary_from(&bytes).unwrap_err();
        assert!(err.contains("checksum mismatch"), "err: {err}");
    }

    #[test]
    fn trailing_bytes_after_the_model_blob_are_refused() {
        // Eight junk bytes after the persisted blob: inside a re-signed v2
        // model section, and at the end of a v1 image. Accepting either
        // would decode a bundle whose `to_bytes` differs from its input.
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 19, false).unwrap();
        let bytes = bundle.to_bytes().unwrap();
        let blob = SectionFrames::parse(&bytes).unwrap().model().unwrap();
        let mut v2 = bytes[..bytes.len() - 12 - blob.len()].to_vec();
        write_section(&mut v2, &[blob, &[0u8; 8]].concat());
        let mut v1 = to_bytes_v1(&bundle);
        v1.extend([0u8; 8]);
        for image in [v2, v1] {
            for err in [
                ModelBundle::from_bytes(&image).unwrap_err(),
                ModelBundle::decode_serving(&image).unwrap_err(),
            ] {
                assert!(err.contains("8 trailing bytes"), "err: {err}");
            }
        }
    }

    #[test]
    fn decode_serving_rejects_corrupt_model_section() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 14, false).unwrap();
        let mut bytes = bundle.to_bytes().unwrap();
        let idx = bytes.len() - 100;
        bytes[idx] ^= 0x20;
        let err = ModelBundle::decode_serving(&bytes).unwrap_err();
        assert!(err.contains("model section"), "err: {err}");
    }

    #[test]
    fn attach_canary_restores_replayable_canary() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 15, false).unwrap();
        let bytes = bundle.to_bytes().unwrap();
        let mut served = ModelBundle::decode_serving(&bytes).unwrap();
        assert_eq!(served.canary_len(), 0);
        served.run_canary().unwrap(); // vacuous without the section
        served.attach_canary_from(&bytes).unwrap();
        assert_eq!(served.canary_len(), bundle.canary_len());
        served.run_canary().unwrap();
    }

    #[test]
    fn decode_serving_loads_v1_images() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 1, 5, 16, false).unwrap();
        let legacy = to_bytes_v1(&bundle);
        let served = ModelBundle::decode_serving(&legacy).unwrap();
        assert_eq!(
            served.predict(&ds.features[..3]).unwrap(),
            bundle.predict(&ds.features[..3]).unwrap()
        );
    }

    #[test]
    fn approx_mem_is_stable_and_plausible() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 512, 2, 6, 18, false).unwrap();
        let mem = bundle.approx_mem_bytes();
        // 2 banks × 2 copies × 512 dims of f32 is the dominant term.
        assert!(mem > 2 * 2 * 512 * 4, "mem {mem}");
        assert!(mem < 1 << 20, "mem {mem}");
        let loaded = ModelBundle::from_bytes(&bundle.to_bytes().unwrap()).unwrap();
        assert_eq!(loaded.approx_mem_bytes(), mem);
    }

    #[test]
    fn state_checksum_tracks_corruption() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 2, 6, 11, false).unwrap();
        let clean = bundle.state_checksum();
        // Stable across serialisation.
        let loaded = ModelBundle::from_bytes(&bundle.to_bytes().unwrap()).unwrap();
        assert_eq!(loaded.state_checksum(), clean);
        // Changed by even a low-rate fault.
        let (faulty, _) = bundle.with_model_faults(0.01, 3);
        assert_ne!(faulty.state_checksum(), clean);
    }

    #[test]
    fn degraded_predictions_are_finite_original_units() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 512, 2, 15, 12, false).unwrap();
        let full = bundle.predict(&ds.features[..10]).unwrap();
        let degraded = bundle.predict_binary(&ds.features[..10]).unwrap();
        assert_eq!(degraded.len(), 10);
        assert!(degraded.iter().all(|p| p.is_finite()));
        // Same units, same regime: both should straddle the target range.
        let var = ds.target_variance();
        for (f, d) in full.iter().zip(&degraded) {
            assert!((f - d).abs() < 4.0 * var.sqrt(), "full {f} vs degraded {d}");
        }
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 1, 5, 3, false).unwrap();
        let err = bundle.predict(&[vec![1.0]]).unwrap_err();
        assert!(err.contains("expects 2"));
    }

    #[test]
    fn predict_rejects_non_finite_features() {
        let ds = toy_dataset();
        let (bundle, _) = train(&ds, 256, 1, 5, 3, false).unwrap();
        let err = bundle.predict(&[vec![1.0, f32::NAN]]).unwrap_err();
        assert!(err.contains("non-finite"), "err: {err}");
        let err = bundle
            .predict(&[vec![1.0, 2.0], vec![f32::INFINITY, 0.0]])
            .unwrap_err();
        assert!(err.contains("row 1"), "err: {err}");
        let err = bundle.predict_binary(&[vec![1.0, f32::NAN]]).unwrap_err();
        assert!(err.contains("non-finite"), "err: {err}");
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join("reghd_serve_garbage_test.rghd");
        std::fs::write(&path, b"not a model").unwrap();
        let err = ModelBundle::load(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("not a reghd-cli"), "err: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_dataset_rejected() {
        let ds = Dataset::new("t", vec![vec![1.0]; 2], vec![0.0; 2]);
        assert!(train(&ds, 64, 1, 2, 0, false).is_err());
    }

    /// A bundle built from fixed seeded parts — no training, hence no trig
    /// — so its learned state is the same bytes on every platform.
    fn fixed_parts_bundle() -> ModelBundle {
        let (dim, k) = (257, 3);
        let cfg = RegHdConfig::builder().dim(dim).models(k).seed(41).build();
        let mut rng = HdRng::seed_from(0x601D);
        let mut hv =
            || hdc::RealHv::from_vec((0..dim).map(|_| rng.next_gaussian() as f32).collect());
        let clusters = (0..k).map(|_| hv()).collect();
        let models = (0..k).map(|_| hv()).collect();
        let center = Some(hv());
        let spec = encoder_spec(5, &cfg);
        let model = RegHdRegressor::from_parts(cfg, spec.build(), clusters, models, center, 0.375);
        ModelBundle::assemble(
            model,
            spec,
            vec![0.5, -1.25, 2.0, 0.0, 3.5],
            vec![1.0, 0.5, 2.25, 1.5, 0.75],
            10.5,
            2.5,
        )
        .unwrap()
    }

    #[test]
    fn state_checksum_golden_value_is_unchanged() {
        // Recorded with the byte-at-a-time CRC and one update per float;
        // slicing-by-8 over blocked floats must reproduce it exactly.
        assert_eq!(fixed_parts_bundle().state_checksum(), 0x3257_A0D8);
    }

    #[test]
    fn bundle_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelBundle>();
    }
}
