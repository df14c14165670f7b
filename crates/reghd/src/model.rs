//! Multi-model hyperdimensional regression — the main RegHD algorithm
//! (paper §2.4, Fig. 4) with the quantisation framework of §3.
//!
//! Training, per sample `(x, y)`:
//!
//! 1. encode `x` into `S` (integer) and `S^b` (binary)       — ①
//! 2. similarity of `S` with every cluster `C_i` (Eq. 5,
//!    or Hamming against `C_i^b` in quantised-cluster mode)   — ②
//! 3. softmax-normalise similarities into confidences `δ′`    — ③
//! 4. predict `ŷ = Σ_i δ′_i · (M_i ⋅ S)` (Eq. 6, in the
//!    configured precision mode)                              — ④
//! 5. update all models with the shared error `y − ŷ`
//!    (Eq. 7; see [`UpdateRule`] for the weighting reading)   — ⑤
//! 6. update the argmax cluster `C_l ← C_l + (1 − δ_l)·S`
//!    (Eq. 8/9)
//!
//! Epochs repeat over shuffled data until the training MSE stabilises
//! ("the quality of regression stabilizes during the last few iterations").
//!
//! [`RegHdRegressor`] is the one owner of this arithmetic: steps ②–④ are
//! one forward pass that every prediction path runs, and steps ②–⑥ are one
//! per-sample step that `fit`, `refine` and the single-pass
//! [`crate::OnlineRegHd`] all learn through.

use crate::banks::{ClusterBank, EncodedQuery, ModelBank};
use crate::config::{RegHdConfig, UpdateRule};
use crate::traits::{FitReport, Regressor};
use encoding::Encoder;
use hdc::rng::HdRng;
use hdc::similarity::{argmax, softmax_into};
use hdc::{RealHv, TrigMode};

/// Seed salt of the batch trainer's stream: cluster initialisation, then
/// the per-epoch shuffles of `fit`.
const FIT_SEED_SALT: u64 = 0xC1_05_7E_12;

/// Seed salt of `refine`'s shuffle stream.
const REFINE_SEED_SALT: u64 = 0x4E_F1_4E;

/// Reusable per-caller buffers for the forward pass and
/// [`RegHdRegressor::predict_batch_with`].
///
/// Holds the encoded-hypervector slots the blocked batch encoder writes
/// into plus the per-row similarity/confidence/score buffers. A caller that
/// keeps one `PredictScratch` alive across calls (the `reghd-serve` worker
/// loop does) gets a steady-state prediction path with **no `RealHv`
/// allocations per request** — the remaining per-row allocation is the
/// 8×-smaller binary view built by [`EncodedQuery::new`].
#[derive(Debug, Default)]
pub struct PredictScratch {
    /// Output slots for the batch encoder; grown on demand, never shrunk.
    encoded: Vec<RealHv>,
    /// Cluster similarities of the last forward pass (Eq. 5).
    pub(crate) sims: Vec<f32>,
    /// Softmax confidences `δ′` of the last forward pass.
    pub(crate) conf: Vec<f32>,
    scores: Vec<f32>,
    /// Staging buffer for the quantised tier's encoded f32 values
    /// ([`RegHdRegressor::predict_batch_binary_with`]).
    vals: Vec<f32>,
    /// Bit-packed sign words for the quantised tier, round-tripped through
    /// [`hdc::BinaryHv::from_words`]/[`hdc::BinaryHv::into_words`] so the
    /// steady state allocates nothing per row.
    words: Vec<u64>,
}

/// The RegHD multi-model regressor.
///
/// # Examples
///
/// ```
/// use reghd::{RegHdRegressor, Regressor, config::RegHdConfig};
/// use encoding::NonlinearEncoder;
///
/// // Two regimes: y = +2 around x = -1, y = -2 around x = +1.
/// let xs: Vec<Vec<f32>> = (0..100)
///     .map(|i| {
///         let c = if i % 2 == 0 { -1.0 } else { 1.0 };
///         vec![c + 0.05 * ((i % 10) as f32 - 5.0) / 5.0]
///     })
///     .collect();
/// let ys: Vec<f32> = xs.iter().map(|x| if x[0] < 0.0 { 2.0 } else { -2.0 }).collect();
///
/// let cfg = RegHdConfig::builder().dim(1024).models(4).max_epochs(20).build();
/// let enc = NonlinearEncoder::new(1, 1024, 3);
/// let mut model = RegHdRegressor::new(cfg, Box::new(enc));
/// let report = model.fit(&xs, &ys);
/// assert!(report.final_mse().unwrap() < 0.5);
/// ```
pub struct RegHdRegressor {
    config: RegHdConfig,
    encoder: Box<dyn Encoder>,
    clusters: ClusterBank,
    models: ModelBank,
    intercept: f32,
    /// Training-set mean encoding, subtracted from every encoding when
    /// `config.center_encodings` is on (see that field's docs).
    center: Option<hdc::RealHv>,
    trained: bool,
    /// Row-parallelism knob for the batch paths (`0` = available
    /// parallelism, `1` = sequential). Atomic so serving can set it through
    /// a shared reference after the model is behind an `Arc`.
    threads: std::sync::atomic::AtomicUsize,
}

impl std::fmt::Debug for RegHdRegressor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegHdRegressor")
            .field("dim", &self.config.dim)
            .field("models", &self.config.models)
            .field("cluster_mode", &self.config.cluster_mode)
            .field("prediction_mode", &self.config.prediction_mode)
            .field("trained", &self.trained)
            .finish()
    }
}

impl RegHdRegressor {
    /// Creates an untrained multi-model regressor.
    ///
    /// # Panics
    ///
    /// Panics if `encoder.dim() != config.dim` or the config is invalid.
    pub fn new(config: RegHdConfig, encoder: Box<dyn Encoder>) -> Self {
        Self::with_seed_salt(config, encoder, FIT_SEED_SALT)
    }

    /// [`Self::new`] with the clusters drawn from the `config.seed ^ salt`
    /// stream (the streaming trainer keeps its own stream).
    pub(crate) fn with_seed_salt(
        config: RegHdConfig,
        encoder: Box<dyn Encoder>,
        salt: u64,
    ) -> Self {
        config.assert_valid_for(encoder.dim());
        let (clusters, models, _) = Self::fresh_banks(&config, salt);
        Self {
            config,
            encoder,
            clusters,
            models,
            intercept: 0.0,
            center: None,
            trained: false,
            threads: std::sync::atomic::AtomicUsize::new(1),
        }
    }

    /// Untrained banks (§2.4: random binary clusters, zero models) drawn
    /// from the `config.seed ^ salt` stream, which is returned for the
    /// caller to continue.
    fn fresh_banks(config: &RegHdConfig, salt: u64) -> (ClusterBank, ModelBank, HdRng) {
        let mut rng = HdRng::seed_from(config.seed ^ salt);
        let clusters = ClusterBank::new(config.models, config.dim, config.cluster_mode, &mut rng);
        let models = ModelBank::new(config.models, config.dim, config.prediction_mode);
        (clusters, models, rng)
    }

    /// Forgets everything learned so repeated fits are independent: fresh
    /// banks from the `config.seed ^ salt` stream, a zero intercept and no
    /// centre. Returns the stream, which `fit` continues for its shuffles.
    pub(crate) fn reset(&mut self, salt: u64) -> HdRng {
        let (clusters, models, rng) = Self::fresh_banks(&self.config, salt);
        self.clusters = clusters;
        self.models = models;
        self.intercept = 0.0;
        self.center = None;
        rng
    }

    /// Sets the number of threads the batch paths (`predict`, the
    /// `fit`/`refine` encoding passes) may use. `0` means "use available
    /// parallelism"; `1` restores the exact single-threaded behavior.
    ///
    /// Rows are split across threads in contiguous chunks with the per-row
    /// arithmetic order unchanged ([`hdc::par`]), so predictions are
    /// **bit-identical** for every setting. Takes `&self` so the knob can be
    /// turned after the model is shared behind an `Arc`.
    pub fn set_threads(&self, threads: usize) {
        self.threads
            .store(threads, std::sync::atomic::Ordering::Relaxed);
    }

    /// The configured thread knob, as set by [`Self::set_threads`]
    /// (`0` = available parallelism). New models default to `1`.
    pub fn threads(&self) -> usize {
        self.threads.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The thread knob resolved to an actual thread count.
    fn effective_threads(&self) -> usize {
        hdc::par::resolve_threads(self.threads())
    }

    /// The configuration this regressor was built with.
    pub fn config(&self) -> &RegHdConfig {
        &self.config
    }

    /// The encoder this regressor encodes queries with (benchmarks drive
    /// `Encoder::encode_batch` on it directly).
    pub fn encoder(&self) -> &dyn encoding::Encoder {
        self.encoder.as_ref()
    }

    /// The cluster bank (inspection access).
    pub fn clusters(&self) -> &ClusterBank {
        &self.clusters
    }

    /// The model bank (inspection access).
    pub fn models(&self) -> &ModelBank {
        &self.models
    }

    /// Mutable model-bank access for out-of-band edits (sparsification).
    pub(crate) fn models_mut(&mut self) -> &mut ModelBank {
        &mut self.models
    }

    /// The learned intercept.
    pub fn intercept(&self) -> f32 {
        self.intercept
    }

    /// The training-set mean encoding subtracted from queries, if centring
    /// is enabled and the model has been fitted.
    pub fn center(&self) -> Option<&hdc::RealHv> {
        self.center.as_ref()
    }

    /// Rebuilds a trained regressor from persisted state (see
    /// [`crate::persist`]). The banks' binary copies and amplitudes are
    /// re-derived from the integer copies.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid, the encoder/bank/config shapes
    /// disagree, or the bank vectors are empty.
    pub fn from_parts(
        config: RegHdConfig,
        encoder: Box<dyn Encoder>,
        clusters_int: Vec<hdc::RealHv>,
        models_int: Vec<hdc::RealHv>,
        center: Option<hdc::RealHv>,
        intercept: f32,
    ) -> Self {
        config.assert_valid_for(encoder.dim());
        assert_eq!(clusters_int.len(), config.models, "cluster count mismatch");
        assert_eq!(models_int.len(), config.models, "model count mismatch");
        assert!(
            clusters_int
                .iter()
                .chain(&models_int)
                .all(|v| v.dim() == config.dim),
            "bank vectors must match config.dim"
        );
        if let Some(c) = &center {
            assert_eq!(c.dim(), config.dim, "center width mismatch");
        }
        let clusters = ClusterBank::from_parts(config.cluster_mode, clusters_int);
        let models = ModelBank::from_parts(config.prediction_mode, models_int);
        Self {
            config,
            encoder,
            clusters,
            models,
            intercept,
            center,
            trained: true,
            threads: std::sync::atomic::AtomicUsize::new(1),
        }
    }

    /// Predicts with hardware-fault emulation: each component of the
    /// encoded query hypervector has its sign flipped independently with
    /// probability `flip_rate` before the similarity search and prediction
    /// run. This is the §3 fault model ("errors in its components") used by
    /// the robustness evaluation; because the dot product sees the product
    /// of query and model components, faults here are interchangeable with
    /// faults in the stored model.
    ///
    /// # Panics
    ///
    /// Panics if `flip_rate` is not within `[0, 1]` or `x` has the wrong
    /// width.
    pub fn predict_one_with_noise(&self, x: &[f32], flip_rate: f64, rng: &mut HdRng) -> f32 {
        let q = self.encode(x);
        let noisy = hdc::noise::flip_signs(&q.real, flip_rate, rng);
        self.forward(&EncodedQuery::new(noisy), &mut PredictScratch::default())
    }

    /// Batched prediction through the **bit-packed binary tier** with
    /// caller-owned scratch: int8 integer encode (where the encoder
    /// supports it, see [`encoding::Encoder::encode_quantized_into`]),
    /// sign-packed query words, Hamming similarity against the clusters'
    /// binary copies, and the pure popcount model scores of §3.2's
    /// binary–binary configuration — regardless of the configured
    /// [`crate::config::PredictionMode`]. No f32 multiply-accumulate
    /// touches the `D`-wide vectors after the encode.
    ///
    /// The tier is *approximate by design* (quantised projection, fast
    /// polynomial trig, sign-only similarity); accuracy bounds are measured
    /// in `EXPERIMENTS.md` against the paper's §3.2 quality-loss claims.
    /// The model's binary copies are refreshed at the end of every
    /// `fit`/`refine` in every mode, so the tier is always coherent with the
    /// full-precision path. Non-finite input rows short-circuit to `NaN`
    /// exactly like [`Self::predict_batch_with`], and the
    /// [`Self::set_threads`] knob applies with the same contiguous chunking
    /// (and therefore bit-identical output).
    pub fn predict_batch_binary_with(
        &self,
        xs: &[Vec<f32>],
        scratch: &mut PredictScratch,
    ) -> Vec<f32> {
        self.predict_chunked(xs, scratch, Self::predict_binary_chunk_into)
    }

    /// Runs `chunk` over `xs` on the configured thread count. Rows are
    /// split into the same contiguous chunks as the encoder's own batch
    /// path, so per-row arithmetic (and therefore every output bit) matches
    /// the sequential run; each worker carries its own scratch, and the
    /// caller's scratch serves the sequential case.
    fn predict_chunked(
        &self,
        xs: &[Vec<f32>],
        scratch: &mut PredictScratch,
        chunk: fn(&Self, &[Vec<f32>], &mut [f32], &mut PredictScratch),
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; xs.len()];
        let threads = self.effective_threads();
        if threads > 1 && xs.len() > 1 {
            hdc::par::chunked_zip_mut(xs, &mut out, threads, |part, out_part| {
                chunk(self, part, out_part, &mut PredictScratch::default());
            });
        } else {
            chunk(self, xs, &mut out, scratch);
        }
        out
    }

    /// One contiguous chunk of the binary tier. Per row: integer encode
    /// into `scratch.vals` (falling back to the f32 encoder when the
    /// encoder has no quantised path), centre-subtract, derive the
    /// amplitude statistic, pack the signs into `scratch.words`, then
    /// Hamming similarities → softmax → popcount scores.
    ///
    /// Normalisation never rescales the values: Hamming similarity is
    /// invariant to positive scaling, so only the amplitude statistic is
    /// divided by the norm when `normalize_encodings` is on.
    fn predict_binary_chunk_into(
        &self,
        xs: &[Vec<f32>],
        out: &mut [f32],
        scratch: &mut PredictScratch,
    ) {
        let dim = self.config.dim;
        scratch.vals.resize(dim, 0.0);
        for (i, x) in xs.iter().enumerate() {
            if !x.iter().all(|v| v.is_finite()) {
                out[i] = f32::NAN;
                continue;
            }
            if !self.encoder.encode_quantized_into(x, &mut scratch.vals) {
                // Encoder without an integer path (ID-level, temporal):
                // fall back to the f32 encode and binarise that instead.
                scratch
                    .vals
                    .copy_from_slice(self.encoder.encode(x).as_slice());
            }
            if let Some(center) = &self.center {
                for (v, &c) in scratch.vals.iter_mut().zip(center.as_slice()) {
                    *v -= c;
                }
            }
            // One fused pass derives both amplitude statistics (f64, fixed
            // 4-lane accumulation order — see `hdc::simd::abs_sq_sums`).
            let (sum_abs, sum_sq) = hdc::simd::abs_sq_sums(&scratch.vals);
            let mut amp = (sum_abs / dim as f64) as f32;
            if self.config.normalize_encodings {
                let norm = sum_sq.sqrt();
                if norm > 0.0 {
                    amp = ((sum_abs / dim as f64) / norm) as f32;
                }
            }
            // Pack the signs (the `> 0` threshold of `RealHv::binarize`).
            scratch.words.resize(dim.div_ceil(64), 0);
            hdc::simd::pack_signs(&scratch.vals, &mut scratch.words);
            let bin = hdc::BinaryHv::from_words(dim, std::mem::take(&mut scratch.words));
            self.clusters
                .binary_similarities_into(&bin, &mut scratch.sims);
            softmax_into(&scratch.sims, self.config.softmax_beta, &mut scratch.conf);
            self.models
                .binary_scores_into(&bin, amp, &mut scratch.scores);
            out[i] = self.combine(scratch);
            // Hand the word buffer back for the next row.
            scratch.words = bin.into_words();
        }
    }

    /// Batched full-precision prediction with caller-owned scratch buffers
    /// — the zero-allocation serving entry point. [`Regressor::predict`] is
    /// this method with throwaway scratch.
    ///
    /// When [`Self::set_threads`] asks for more than one thread, rows are
    /// split across scoped threads in contiguous chunks with the per-row
    /// arithmetic unchanged, so the output is **bit-identical** to the
    /// single-threaded run.
    pub fn predict_batch_with(&self, xs: &[Vec<f32>], scratch: &mut PredictScratch) -> Vec<f32> {
        self.predict_chunked(xs, scratch, Self::predict_chunk_into)
    }

    /// One contiguous chunk of the batch path: kernel-encode every row into
    /// the scratch slots (bit-identical to scalar `encode`), then run the
    /// forward pass per row with every intermediate buffer reused, handing
    /// each slot's buffer back for the next call. Non-finite rows
    /// short-circuit to `NaN`.
    fn predict_chunk_into(&self, xs: &[Vec<f32>], out: &mut [f32], scratch: &mut PredictScratch) {
        if scratch.encoded.len() < xs.len() {
            scratch.encoded.resize(xs.len(), RealHv::default());
        }
        self.encoder
            .encode_batch_into(xs, &mut scratch.encoded[..xs.len()], 1);
        for (i, x) in xs.iter().enumerate() {
            if !x.iter().all(|v| v.is_finite()) {
                out[i] = f32::NAN;
                continue;
            }
            let q = self.prepare(std::mem::take(&mut scratch.encoded[i]));
            out[i] = self.forward(&q, scratch);
            // Hand the encoded buffer back to its slot so the next batch
            // through this scratch reuses the allocation.
            scratch.encoded[i] = q.real;
        }
    }

    /// Forwards to the encoder's trig knob (see [`TrigMode`]): `Fast` swaps
    /// `libm` sin/cos for the bounded-error polynomial path during
    /// inference. Training and canary replay always force `Exact`.
    pub fn set_trig_mode(&self, mode: TrigMode) {
        self.encoder.set_trig_mode(mode);
    }

    /// The encoder's current trig evaluation mode.
    pub fn trig_mode(&self) -> TrigMode {
        self.encoder.trig_mode()
    }

    /// Encodes and prepares one query (step ①).
    pub(crate) fn encode(&self, x: &[f32]) -> EncodedQuery {
        self.prepare(self.encoder.encode(x))
    }

    /// The query preparation every full-precision path shares: subtract the
    /// fitted centre (if any), normalise if configured, then derive the
    /// binary view and amplitude.
    fn prepare(&self, mut s: RealHv) -> EncodedQuery {
        if let Some(center) = &self.center {
            s.add_scaled(center, -1.0);
        }
        if self.config.normalize_encodings {
            s.normalize();
        }
        EncodedQuery::new(s)
    }

    /// Continues training an already-fitted model on additional data for
    /// `epochs` passes **without resetting** the learned state — the
    /// incremental-retraining capability HD systems advertise for model
    /// maintenance on devices. The stored encoding centre from the original
    /// fit is reused (new data is assumed to come from a similar input
    /// distribution); cluster and model banks keep accumulating.
    ///
    /// Refining on data from a *shifted* distribution adapts the model
    /// toward it, trading away old-distribution precision like any online
    /// learner under drift; interleave old samples ("replay") to retain
    /// both.
    ///
    /// Returns the per-epoch training MSE on the new data.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted yet, the inputs are empty or
    /// mismatched, or `epochs == 0`.
    pub fn refine(&mut self, features: &[Vec<f32>], targets: &[f32], epochs: usize) -> FitReport {
        assert!(
            self.trained,
            "refine requires a fitted model; call fit first"
        );
        assert_eq!(
            features.len(),
            targets.len(),
            "features and targets must have the same length"
        );
        assert!(!features.is_empty(), "cannot refine on empty data");
        assert!(epochs > 0, "epochs must be nonzero");

        // Blocked batch encode (bit-identical to per-row `encode`).
        let encoded: Vec<EncodedQuery> = self
            .encoder
            .encode_batch(features, self.effective_threads())
            .into_iter()
            .map(|s| self.prepare(s))
            .collect();
        let rng = HdRng::seed_from(self.config.seed ^ REFINE_SEED_SALT);
        self.train(&encoded, targets, rng, |epoch| FitReport {
            epochs,
            train_mse_history: (0..epochs).map(|_| epoch()).collect(),
            converged: false,
        })
    }

    /// Steps ②–④ for one encoded query: the similarities and confidences
    /// land in `s.sims`/`s.conf`, the model scores in `s.scores`, and the
    /// confidence-weighted prediction of Eq. 6 is returned. Every
    /// full-precision prediction and training path runs this one forward
    /// pass.
    pub(crate) fn forward(&self, q: &EncodedQuery, s: &mut PredictScratch) -> f32 {
        self.clusters
            .similarities_into(&q.real, &q.binary, &mut s.sims);
        softmax_into(&s.sims, self.config.softmax_beta, &mut s.conf);
        self.models
            .scores_into(&q.real, &q.binary, q.amp, &mut s.scores);
        self.combine(s)
    }

    /// Eq. 6's confidence-weighted sum of the model scores plus the
    /// intercept — the last step of both tiers.
    fn combine(&self, s: &PredictScratch) -> f32 {
        s.conf
            .iter()
            .zip(&s.scores)
            .map(|(&c, &v)| c * v)
            .sum::<f32>()
            + self.intercept
    }

    /// Steps ②–⑥ for one training sample: the forward pass, the Eq. 7
    /// model update per the configured [`UpdateRule`], the intercept step,
    /// and the Eq. 8 update of the most similar cluster. Returns the error
    /// `y − ŷ` and that cluster. `fit`, `refine` and
    /// [`crate::OnlineRegHd::update`] all learn through here.
    pub(crate) fn step(
        &mut self,
        q: &EncodedQuery,
        y: f32,
        s: &mut PredictScratch,
    ) -> (f32, Option<usize>) {
        let err = y - self.forward(q, s);
        let alpha = self.config.learning_rate;
        match self.config.update_rule {
            UpdateRule::ConfidenceWeighted => {
                for (i, &c) in s.conf.iter().enumerate() {
                    if c > 1e-6 {
                        self.models.update(i, alpha * c * err, &q.real);
                    }
                }
            }
            UpdateRule::SharedError => {
                for i in 0..s.conf.len() {
                    self.models.update(i, alpha * err, &q.real);
                }
            }
            UpdateRule::ArgmaxOnly => {
                if let Some(l) = argmax(&s.conf) {
                    self.models.update(l, alpha * err, &q.real);
                }
            }
        }
        if self.config.intercept {
            self.intercept += alpha * 0.1 * err;
        }
        let l = argmax(&s.sims);
        if let Some(l) = l {
            self.clusters.update(l, s.sims[l], &q.real);
        }
        (err, l)
    }

    /// Quantisation boundary: re-binarise the clusters' binary copies and,
    /// in the binary-model modes, the models' (Fig. 5).
    pub(crate) fn end_epoch(&mut self) {
        self.clusters.end_epoch();
        self.models.end_epoch();
    }

    /// Re-initialises cluster/model pair `l` (the cluster from `rng`, the
    /// model to zero) — the streaming trainer's drift eviction.
    pub(crate) fn reset_pair(&mut self, l: usize, rng: &mut HdRng) {
        self.clusters.reset(l, rng);
        self.models.reset(l);
    }

    /// The epoch loop `fit` and `refine` share. Each epoch shuffles the
    /// sample order with `rng`, runs [`Self::step`] per sample —
    /// re-binarising the binary-model copies every `quantize_batch` samples
    /// (§3.2 "or a batch") so the quantised prediction path stays
    /// responsive — and ends on [`Self::end_epoch`], returning its MSE.
    /// `schedule` decides how many epochs run and builds the report.
    ///
    /// Afterwards the models' binary copies are refreshed in every
    /// [`crate::config::PredictionMode`], because the bit-packed tier
    /// scores against them even in modes whose `end_epoch` leaves them be.
    fn train(
        &mut self,
        encoded: &[EncodedQuery],
        targets: &[f32],
        mut rng: HdRng,
        schedule: impl FnOnce(&mut dyn FnMut() -> f32) -> FitReport,
    ) -> FitReport {
        let mut order: Vec<usize> = (0..encoded.len()).collect();
        let mut scratch = PredictScratch::default();
        let report = schedule(&mut || {
            for i in (1..order.len()).rev() {
                let j = rng.next_below(i + 1);
                order.swap(i, j);
            }
            let mut sq_err = 0.0f64;
            for (pos, &i) in order.iter().enumerate() {
                let (err, _) = self.step(&encoded[i], targets[i], &mut scratch);
                sq_err += (err as f64) * (err as f64);
                if (pos + 1) % self.config.quantize_batch == 0 {
                    self.models.end_epoch();
                }
            }
            self.end_epoch();
            (sq_err / order.len() as f64) as f32
        });
        self.models.end_epoch_forced();
        self.trained = true;
        report
    }
}

impl Regressor for RegHdRegressor {
    fn fit(&mut self, features: &[Vec<f32>], targets: &[f32]) -> FitReport {
        assert_eq!(
            features.len(),
            targets.len(),
            "features and targets must have the same length"
        );
        assert!(!features.is_empty(), "cannot fit on empty data");

        let rng = self.reset(FIT_SEED_SALT);
        // Fit the encoding centre (see `RegHdConfig::center_encodings`),
        // then encode the training set once. The encoding pass is the
        // per-epoch-independent bulk of fit's cost and rows are independent,
        // so it goes through the bit-exact row-parallel batch encoder.
        let raw = self
            .encoder
            .encode_batch(features, self.effective_threads());
        if self.config.center_encodings {
            let mut mean = hdc::RealHv::zeros(self.config.dim);
            for s in &raw {
                mean.add_scaled(s, 1.0 / raw.len() as f32);
            }
            self.center = Some(mean);
        }
        let encoded: Vec<EncodedQuery> = raw.into_iter().map(|s| self.prepare(s)).collect();
        let cfg = self.config.clone();
        self.train(&encoded, targets, rng, |epoch| {
            FitReport::until_stable(&cfg, epoch)
        })
    }

    fn predict_one(&self, x: &[f32]) -> f32 {
        self.forward(&self.encode(x), &mut PredictScratch::default())
    }

    /// Batched prediction through the cache-blocked encode kernel with
    /// every per-row buffer reused: [`RegHdRegressor::predict_batch_with`]
    /// with throwaway scratch, honouring [`RegHdRegressor::set_threads`].
    fn predict(&self, xs: &[Vec<f32>]) -> Vec<f32> {
        self.predict_batch_with(xs, &mut PredictScratch::default())
    }

    fn name(&self) -> String {
        format!(
            "RegHD-{}({},{})",
            self.config.models,
            self.config.cluster_mode.label(),
            self.config.prediction_mode.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterMode, PredictionMode};
    use encoding::NonlinearEncoder;

    /// Multi-regime task: `k` well-separated input clusters with opposite
    /// local slopes — the workload single-model RegHD cannot fit (§2.3).
    fn multimodal(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rng = HdRng::seed_from(seed);
        let centers = [
            ([-2.0f32, -2.0], 3.0f32, 1.0f32),
            ([2.0, 2.0], -3.0, -1.0),
            ([-2.0, 2.0], 0.0, 2.5),
            ([2.0, -2.0], 1.5, -2.5),
        ];
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let (c, slope, offset) = centers[rng.next_below(4)];
            let x = [
                c[0] + 0.3 * rng.next_gaussian() as f32,
                c[1] + 0.3 * rng.next_gaussian() as f32,
            ];
            let y = offset + slope * (x[0] - c[0]) + 0.05 * rng.next_gaussian() as f32;
            xs.push(x.to_vec());
            ys.push(y);
        }
        (xs, ys)
    }

    fn make(models: usize, seed: u64) -> RegHdRegressor {
        let cfg = RegHdConfig::builder()
            .dim(2048)
            .models(models)
            .max_epochs(30)
            .seed(seed)
            .build();
        let enc = NonlinearEncoder::new(2, 2048, seed);
        RegHdRegressor::new(cfg, Box::new(enc))
    }

    fn make_with(
        models: usize,
        cluster: ClusterMode,
        pred: PredictionMode,
        seed: u64,
    ) -> RegHdRegressor {
        let cfg = RegHdConfig::builder()
            .dim(2048)
            .models(models)
            .max_epochs(30)
            .cluster_mode(cluster)
            .prediction_mode(pred)
            .seed(seed)
            .build();
        let enc = NonlinearEncoder::new(2, 2048, seed);
        RegHdRegressor::new(cfg, Box::new(enc))
    }

    /// The binary tier with throwaway scratch.
    fn binary(m: &RegHdRegressor, xs: &[Vec<f32>]) -> Vec<f32> {
        m.predict_batch_binary_with(xs, &mut PredictScratch::default())
    }

    fn test_mse(model: &RegHdRegressor, xs: &[Vec<f32>], ys: &[f32]) -> f32 {
        let preds = model.predict(xs);
        preds
            .iter()
            .zip(ys)
            .map(|(&p, &y)| (p - y) * (p - y))
            .sum::<f32>()
            / ys.len() as f32
    }

    #[test]
    fn learns_multimodal_task() {
        let (xs, ys) = multimodal(400, 1);
        let mut m = make(8, 1);
        let report = m.fit(&xs, &ys);
        let var = {
            let mean = ys.iter().sum::<f32>() / ys.len() as f32;
            ys.iter().map(|&y| (y - mean) * (y - mean)).sum::<f32>() / ys.len() as f32
        };
        let mse = report.final_mse().unwrap();
        assert!(mse < 0.1 * var, "mse {mse} vs variance {var}");
    }

    #[test]
    fn multi_model_beats_single_on_multimodal() {
        // Figure 3b's content. The gap appears under capacity pressure
        // (§2.3): at small D a single hypervector saturates on a
        // multi-regime task while the clustered models specialise.
        let (xs, ys) = multimodal(400, 2);
        let dim = 192;
        let build = |models: usize| {
            let cfg = RegHdConfig::builder()
                .dim(dim)
                .models(models)
                .max_epochs(30)
                .seed(2)
                .build();
            RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(2, dim, 2)))
        };
        let mut single = build(1);
        let mut multi = build(8);
        single.fit(&xs, &ys);
        multi.fit(&xs, &ys);
        let mse_single = test_mse(&single, &xs, &ys);
        let mse_multi = test_mse(&multi, &xs, &ys);
        assert!(
            mse_multi < mse_single,
            "multi {mse_multi} should beat single {mse_single}"
        );
    }

    #[test]
    fn quantized_cluster_close_to_full_precision() {
        // Figure 6's content: the framework's binary clusters track the
        // integer clusters' quality.
        let (xs, ys) = multimodal(300, 3);
        let mut full = make_with(8, ClusterMode::Integer, PredictionMode::Full, 3);
        let mut quant = make_with(8, ClusterMode::FrameworkBinary, PredictionMode::Full, 3);
        full.fit(&xs, &ys);
        quant.fit(&xs, &ys);
        let mse_full = test_mse(&full, &xs, &ys);
        let mse_quant = test_mse(&quant, &xs, &ys);
        assert!(
            mse_quant < mse_full * 2.0 + 0.05,
            "quantized {mse_quant} should be close to full {mse_full}"
        );
    }

    #[test]
    fn binary_query_mode_trains() {
        let (xs, ys) = multimodal(300, 4);
        let mut m = make_with(8, ClusterMode::Integer, PredictionMode::BinaryQuery, 4);
        let report = m.fit(&xs, &ys);
        let var = 4.0; // roughly, for this task
        assert!(
            report.final_mse().unwrap() < var,
            "binary-query should still learn: {:?}",
            report.final_mse()
        );
    }

    #[test]
    fn all_prediction_modes_predict_finite() {
        let (xs, ys) = multimodal(150, 5);
        for mode in PredictionMode::ALL {
            let mut m = make_with(4, ClusterMode::Integer, mode, 5);
            m.fit(&xs, &ys);
            let p = m.predict_one(&xs[0]);
            assert!(p.is_finite(), "{mode:?} produced {p}");
        }
    }

    #[test]
    fn predictions_deterministic() {
        let (xs, ys) = multimodal(100, 6);
        let mut a = make(4, 6);
        let mut b = make(4, 6);
        a.fit(&xs, &ys);
        b.fit(&xs, &ys);
        for x in xs.iter().take(5) {
            assert_eq!(a.predict_one(x), b.predict_one(x));
        }
    }

    #[test]
    fn refit_is_independent() {
        let (xs, ys) = multimodal(100, 7);
        let mut m = make(4, 7);
        m.fit(&xs, &ys);
        let first = m.predict_one(&xs[0]);
        m.fit(&xs, &ys);
        let second = m.predict_one(&xs[0]);
        assert_eq!(first, second);
    }

    #[test]
    fn clusters_specialise_to_input_regimes() {
        // After training, different input regimes should activate different
        // argmax clusters (the run-time clustering claim of §2.4).
        let (xs, ys) = multimodal(400, 8);
        let mut m = make(8, 8);
        m.fit(&xs, &ys);
        let probe = |x: &[f32]| {
            let mut s = PredictScratch::default();
            m.forward(&m.encode(x), &mut s);
            argmax(&s.sims).unwrap()
        };
        let c1 = probe(&[-2.0, -2.0]);
        let c2 = probe(&[2.0, 2.0]);
        let c3 = probe(&[-2.0, 2.0]);
        // At least two distinct regimes must map to distinct clusters.
        assert!(
            c1 != c2 || c2 != c3,
            "all regimes mapped to cluster {c1} — no specialisation"
        );
    }

    #[test]
    fn refine_improves_on_new_regime() {
        // Fit on two regimes, then refine with data from a third; the
        // refined model must fit the new regime without forgetting the old
        // ones entirely.
        let (xs, ys) = multimodal(300, 11);
        let mut m = make(8, 11);
        m.fit(&xs, &ys);
        let base_mse = test_mse(&m, &xs, &ys);

        // New regime around (0, 0) with its own response.
        let mut rng = HdRng::seed_from(77);
        let new_x: Vec<Vec<f32>> = (0..150)
            .map(|_| {
                vec![
                    0.3 * rng.next_gaussian() as f32,
                    0.3 * rng.next_gaussian() as f32,
                ]
            })
            .collect();
        let new_y: Vec<f32> = new_x.iter().map(|x| 5.0 + x[0]).collect();
        let before_new: f32 = new_x
            .iter()
            .zip(&new_y)
            .map(|(x, &y)| {
                let e = m.predict_one(x) - y;
                e * e
            })
            .sum::<f32>()
            / new_y.len() as f32;
        m.refine(&new_x, &new_y, 10);
        let after_new: f32 = new_x
            .iter()
            .zip(&new_y)
            .map(|(x, &y)| {
                let e = m.predict_one(x) - y;
                e * e
            })
            .sum::<f32>()
            / new_y.len() as f32;
        assert!(
            after_new < 0.3 * before_new,
            "refine should fit the new regime: {before_new} -> {after_new}"
        );
        // Refinement on new-distribution-only data is *adaptation*: old-task
        // precision is traded away (as in any drifting online learner). The
        // bound is that the old task does not collapse below the mean
        // predictor's floor.
        let old_after = test_mse(&m, &xs, &ys);
        let mean: f32 = ys.iter().sum::<f32>() / ys.len() as f32;
        let var: f32 = ys.iter().map(|&y| (y - mean) * (y - mean)).sum::<f32>() / ys.len() as f32;
        assert!(
            old_after < 1.5 * var,
            "old task collapsed far below the mean floor: {base_mse} -> {old_after} (var {var})"
        );
    }

    #[test]
    #[should_panic(expected = "requires a fitted model")]
    fn refine_before_fit_panics() {
        make(2, 0).refine(&[vec![0.0, 0.0]], &[1.0], 1);
    }

    #[test]
    fn predict_batch_matches_predict_one_in_every_mode() {
        // The buffer-reusing batched path must be bit-identical to the
        // scalar path, in every quantisation mode (the serving layer
        // depends on this equivalence).
        let (xs, ys) = multimodal(150, 12);
        for cluster in [
            ClusterMode::Integer,
            ClusterMode::FrameworkBinary,
            ClusterMode::NaiveBinary,
        ] {
            for pred in PredictionMode::ALL {
                let mut m = make_with(4, cluster, pred, 12);
                m.fit(&xs, &ys);
                let batched = m.predict(&xs[..20]);
                for (x, &b) in xs[..20].iter().zip(&batched) {
                    assert_eq!(
                        m.predict_one(x),
                        b,
                        "batched path diverged under {cluster:?}/{pred:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn threaded_predict_batch_is_bit_identical() {
        let (xs, ys) = multimodal(120, 21);
        let mut m = make(4, 21);
        m.fit(&xs, &ys);
        let seq = m.predict(&xs);
        let seq_degraded = binary(&m, &xs);
        for threads in [0usize, 2, 4, 8] {
            m.set_threads(threads);
            assert_eq!(m.threads(), threads);
            assert_eq!(m.predict(&xs), seq, "threads={threads}");
            assert_eq!(binary(&m, &xs), seq_degraded, "degraded threads={threads}");
        }
        m.set_threads(1);
    }

    #[test]
    fn threaded_fit_is_bit_identical() {
        let (xs, ys) = multimodal(120, 22);
        let mut seq = make(4, 22);
        seq.fit(&xs, &ys);
        let mut par = make(4, 22);
        par.set_threads(4);
        par.fit(&xs, &ys);
        for x in xs.iter().take(10) {
            assert_eq!(seq.predict_one(x), par.predict_one(x));
        }
    }

    #[test]
    fn predict_batch_with_reuses_scratch_and_matches() {
        let (xs, ys) = multimodal(80, 23);
        let mut m = make(4, 23);
        m.fit(&xs, &ys);
        let base = m.predict(&xs[..20]);
        let mut scratch = PredictScratch::default();
        assert_eq!(m.predict_batch_with(&xs[..20], &mut scratch), base);
        // Steady state: the encoded slots keep their allocations across
        // calls through the same scratch.
        let ptrs: Vec<*const f32> = scratch
            .encoded
            .iter()
            .map(|o| o.as_slice().as_ptr())
            .collect();
        assert_eq!(m.predict_batch_with(&xs[..20], &mut scratch), base);
        let now: Vec<*const f32> = scratch
            .encoded
            .iter()
            .map(|o| o.as_slice().as_ptr())
            .collect();
        assert_eq!(ptrs, now, "scratch slots must be reused across calls");
        // NaN rows leave their slot untouched but still predict NaN.
        let mixed = vec![xs[0].clone(), vec![f32::NAN, 0.0], xs[1].clone()];
        let preds = m.predict_batch_with(&mixed, &mut scratch);
        assert!(preds[0].is_finite() && preds[1].is_nan() && preds[2].is_finite());
    }

    #[test]
    fn trig_mode_forwards_to_encoder_and_fast_stays_close() {
        let (xs, ys) = multimodal(120, 24);
        let mut m = make(4, 24);
        m.fit(&xs, &ys);
        assert_eq!(m.trig_mode(), TrigMode::Exact);
        let exact = m.predict(&xs[..20]);
        m.set_trig_mode(TrigMode::Fast);
        assert_eq!(m.trig_mode(), TrigMode::Fast);
        let fast = m.predict(&xs[..20]);
        m.set_trig_mode(TrigMode::Exact);
        for (e, f) in exact.iter().zip(&fast) {
            assert!(
                (e - f).abs() < 0.02 * (1.0 + e.abs()),
                "fast-trig prediction drifted: exact={e} fast={f}"
            );
        }
    }

    #[test]
    fn regressor_is_send_and_sync() {
        // reghd-serve shares one trained regressor across worker threads
        // behind an Arc; that is only sound while the model (including its
        // boxed encoder) stays Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RegHdRegressor>();
    }

    #[test]
    fn name_encodes_configuration() {
        let m = make_with(
            8,
            ClusterMode::FrameworkBinary,
            PredictionMode::BinaryQuery,
            0,
        );
        let n = m.name();
        assert!(n.contains("RegHD-8"));
        assert!(n.contains("bin-cluster"));
        assert!(n.contains("bin-query"));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fit_empty_panics() {
        make(2, 0).fit(&[], &[]);
    }

    #[test]
    fn history_is_monotonic_enough() {
        // Iterative training must improve substantially from epoch 1.
        let (xs, ys) = multimodal(300, 9);
        let mut m = make(8, 9);
        let report = m.fit(&xs, &ys);
        let first = report.train_mse_history[0];
        let last = *report.train_mse_history.last().unwrap();
        assert!(last < first, "no improvement: first {first}, last {last}");
    }

    #[test]
    fn non_finite_rows_predict_nan_not_poison() {
        let (xs, ys) = multimodal(200, 13);
        let mut m = make(4, 13);
        m.fit(&xs, &ys);
        let batch = vec![
            xs[0].clone(),
            vec![f32::NAN, 1.0],
            vec![1.0, f32::INFINITY],
            xs[1].clone(),
        ];
        let preds = m.predict(&batch);
        assert_eq!(preds.len(), 4);
        assert!(preds[0].is_finite());
        assert!(preds[1].is_nan());
        assert!(preds[2].is_nan());
        assert!(preds[3].is_finite());
        // Bad rows must not perturb neighbouring predictions.
        assert_eq!(preds[0], m.predict_one(&xs[0]));
        assert_eq!(preds[3], m.predict_one(&xs[1]));
    }

    #[test]
    fn binary_tier_is_finite_and_deterministic_in_every_mode() {
        let (xs, ys) = multimodal(200, 16);
        for cluster in [
            ClusterMode::Integer,
            ClusterMode::FrameworkBinary,
            ClusterMode::NaiveBinary,
        ] {
            for pred in PredictionMode::ALL {
                let mut m = make_with(4, cluster, pred, 16);
                m.fit(&xs, &ys);
                let a = binary(&m, &xs[..10]);
                assert!(
                    a.iter().all(|p| p.is_finite()),
                    "non-finite tier output under {cluster:?}/{pred:?}"
                );
                assert_eq!(a, binary(&m, &xs[..10]));
            }
        }
    }

    #[test]
    fn binary_tier_scratch_reuse_matches_and_handles_nan() {
        let (xs, ys) = multimodal(120, 17);
        let mut m = make(4, 17);
        m.fit(&xs, &ys);
        let base = binary(&m, &xs[..20]);
        let mut scratch = PredictScratch::default();
        assert_eq!(m.predict_batch_binary_with(&xs[..20], &mut scratch), base);
        assert_eq!(m.predict_batch_binary_with(&xs[..20], &mut scratch), base);
        let mixed = vec![xs[0].clone(), vec![f32::NAN, 0.0], xs[1].clone()];
        let preds = m.predict_batch_binary_with(&mixed, &mut scratch);
        assert!(preds[0].is_finite() && preds[1].is_nan() && preds[2].is_finite());
    }

    #[test]
    fn degraded_path_is_finite_and_close_for_full_models() {
        let (xs, ys) = multimodal(300, 15);
        let mut m = make(4, 15);
        m.fit(&xs, &ys);
        let full = m.predict(&xs[..50]);
        let degraded = binary(&m, &xs[..50]);
        assert!(degraded.iter().all(|p| p.is_finite()));
        // Quantisation costs accuracy but the estimate stays in the same
        // regime (the paper reports <4% quality loss for binary paths).
        let var = {
            let mean = ys.iter().sum::<f32>() / ys.len() as f32;
            ys.iter().map(|&y| (y - mean) * (y - mean)).sum::<f32>() / ys.len() as f32
        };
        let mse: f32 = full
            .iter()
            .zip(&degraded)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f32>()
            / 50.0;
        assert!(mse < var, "degraded path diverged: mse {mse} vs var {var}");
        let nan_row = binary(&m, &[vec![f32::NAN, 0.0]]);
        assert!(nan_row[0].is_nan());
    }
}
