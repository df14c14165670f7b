//! Single-pass / streaming RegHD.
//!
//! HD computing's signature capability (and the reason the paper targets
//! IoT systems) is **single-pass, online learning**: each sample updates
//! the model once and is never revisited. [`OnlineRegHd`] exposes RegHD in
//! that regime: [`OnlineRegHd::update`] consumes one `(x, y)` pair,
//! returns the *prequential* (predict-then-train) error, and keeps running
//! quality statistics. Used as a [`Regressor`], `fit` performs exactly one
//! pass — the paper's "single-pass model" of §2.3, whose accuracy gap to
//! iterative training is part of Figure 3a's story.
//!
//! The learner is a [`RegHdRegressor`] — the same query encoding, banks,
//! forward pass and per-sample Eq. 7/8 step the batch trainer runs — plus
//! the stream statistics. Differences from the batch trainer: encodings cannot be
//! mean-centred (the mean is unknown upfront), so the encoder bias is
//! absorbed by the always-on intercept, and there is no convergence rule —
//! the stream decides when to stop.

use crate::banks::{ClusterBank, ModelBank};
use crate::config::RegHdConfig;
use crate::model::{PredictScratch, RegHdRegressor};
use crate::traits::{FitReport, Regressor};
use encoding::Encoder;
use hdc::rng::HdRng;

/// Streaming RegHD: one update per sample, no second pass.
///
/// # Examples
///
/// ```
/// use reghd::{OnlineRegHd, config::RegHdConfig};
/// use encoding::NonlinearEncoder;
///
/// let cfg = RegHdConfig::builder().dim(1024).models(2).build();
/// let mut model = OnlineRegHd::new(cfg, Box::new(NonlinearEncoder::new(1, 1024, 7)));
/// // Stream y = 2x; the prequential error shrinks as samples arrive.
/// let mut late_err = 0.0;
/// for i in 0..500 {
///     let x = [(i % 100) as f32 / 50.0 - 1.0];
///     let err = model.update(&x, 2.0 * x[0]);
///     if i >= 400 { late_err += err.abs(); }
/// }
/// assert!(late_err / 100.0 < 0.2);
/// ```
pub struct OnlineRegHd {
    /// The learner, built with `center_encodings = false`, `intercept =
    /// true` and the streaming seed salt.
    model: RegHdRegressor,
    /// Forward-pass buffers reused across updates.
    scratch: PredictScratch,
    samples_seen: u64,
    /// Exponentially weighted prequential squared error.
    ewma_sq_err: f64,
    /// Per-cluster EWMA of the absolute prequential error, attributed to
    /// the argmax cluster of each sample. Drift responders use this to
    /// pick the worst-performing cluster to evict.
    cluster_err: Vec<f64>,
}

impl std::fmt::Debug for OnlineRegHd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineRegHd")
            .field("dim", &self.config().dim)
            .field("models", &self.config().models)
            .field("samples_seen", &self.samples_seen)
            .finish()
    }
}

/// The streaming form of a config: no centring, always an intercept.
fn streaming(mut config: RegHdConfig) -> RegHdConfig {
    config.center_encodings = false;
    config.intercept = true;
    config
}

impl OnlineRegHd {
    /// Creates a streaming regressor. `config.center_encodings` is ignored
    /// (a stream has no precomputable mean); the intercept is always
    /// learned.
    ///
    /// # Panics
    ///
    /// Panics if `encoder.dim() != config.dim` or the config is invalid.
    pub fn new(config: RegHdConfig, encoder: Box<dyn Encoder>) -> Self {
        let k = config.models;
        let model = RegHdRegressor::with_seed_salt(streaming(config), encoder, ONLINE_SEED_SALT);
        Self {
            model,
            scratch: PredictScratch::default(),
            samples_seen: 0,
            ewma_sq_err: 0.0,
            cluster_err: vec![0.0; k],
        }
    }

    /// Rebuilds a streaming regressor from persisted state (see
    /// [`crate::persist::load_online`]). Binary bank copies are re-derived
    /// from the integer copies, so a model saved at a quantisation
    /// boundary (see [`OnlineRegHd::quantize_now`]) round-trips bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or any shape disagrees with it.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        config: RegHdConfig,
        encoder: Box<dyn Encoder>,
        clusters_int: Vec<hdc::RealHv>,
        models_int: Vec<hdc::RealHv>,
        intercept: f32,
        samples_seen: u64,
        ewma_sq_err: f64,
        cluster_err: Vec<f64>,
    ) -> Self {
        let model = RegHdRegressor::from_parts(
            streaming(config),
            encoder,
            clusters_int,
            models_int,
            None,
            intercept,
        );
        assert_eq!(
            cluster_err.len(),
            model.config().models,
            "cluster_err mismatch"
        );
        Self {
            model,
            scratch: PredictScratch::default(),
            samples_seen,
            ewma_sq_err,
            cluster_err,
        }
    }

    /// Number of samples consumed so far.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// The configuration this regressor runs with (after the streaming
    /// normalisation applied by [`OnlineRegHd::new`]).
    pub fn config(&self) -> &RegHdConfig {
        self.model.config()
    }

    /// The learned intercept.
    pub fn intercept(&self) -> f32 {
        self.model.intercept()
    }

    /// The cluster bank (inspection and persistence access).
    pub fn clusters(&self) -> &ClusterBank {
        self.model.clusters()
    }

    /// The model bank (inspection and persistence access).
    pub fn models(&self) -> &ModelBank {
        self.model.models()
    }

    /// Per-cluster EWMA of the absolute prequential error (attributed to
    /// each sample's argmax cluster).
    pub fn cluster_errors(&self) -> &[f64] {
        &self.cluster_err
    }

    /// Exponentially weighted moving average of the prequential squared
    /// error (0 before any update).
    pub fn prequential_mse(&self) -> f32 {
        self.ewma_sq_err as f32
    }

    /// The raw f64 prequential EWMA state ([`crate::persist`] stores this
    /// bit-exactly so a resumed trainer continues the same statistic).
    pub(crate) fn ewma_sq_err_raw(&self) -> f64 {
        self.ewma_sq_err
    }

    /// Consumes one sample: predicts, measures the prequential error,
    /// applies the RegHD updates (Eq. 7/8), and returns `y − ŷ`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong feature width.
    pub fn update(&mut self, x: &[f32], y: f32) -> f32 {
        let q = self.model.encode(x);
        let (err, l) = self.model.step(&q, y, &mut self.scratch);
        if let Some(l) = l {
            let b = CLUSTER_ERR_ALPHA;
            self.cluster_err[l] = (1.0 - b) * self.cluster_err[l] + b * (err.abs() as f64);
        }
        self.samples_seen += 1;
        if self
            .samples_seen
            .is_multiple_of(self.config().quantize_batch as u64)
        {
            self.quantize_now();
        }
        let a = PREQUENTIAL_ALPHA;
        self.ewma_sq_err = (1.0 - a) * self.ewma_sq_err + a * (err as f64) * (err as f64);
        err
    }

    /// Index of the cluster with the highest attributed prequential error
    /// — the eviction candidate when a drift detector fires.
    pub fn worst_cluster(&self) -> usize {
        self.cluster_err
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Evicts cluster `l`: the cluster hypervector is re-initialised to
    /// fresh random binary values, its model hypervector to zero, and its
    /// error attribution cleared — the drift-recovery hook. The fresh
    /// random vector is deterministic given the config seed and the number
    /// of samples seen, so a checkpointed-and-resumed trainer resets
    /// identically.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn reset_cluster(&mut self, l: usize) {
        let mut rng = HdRng::seed_from(
            self.config().seed
                ^ ONLINE_SEED_SALT
                ^ (self.samples_seen.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        self.model.reset_pair(l, &mut rng);
        self.cluster_err[l] = 0.0;
    }

    /// Forces a quantisation boundary now: binary bank copies and
    /// amplitudes are refreshed from the integer copies, exactly as at a
    /// `quantize_batch` boundary. Checkpointing calls this first so the
    /// persisted integer state fully determines prediction behaviour (the
    /// binary copies are re-derived on load).
    pub fn quantize_now(&mut self) {
        self.model.end_epoch();
    }

    /// Snapshots the current learned state as a batch [`RegHdRegressor`]
    /// (binary copies re-derived), the form the serving bundle embeds.
    /// `spec` must describe this model's encoder; predictions of the
    /// snapshot match the live model bit-exactly when taken at a
    /// quantisation boundary ([`OnlineRegHd::quantize_now`]).
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not match the config's dimensionality.
    pub fn snapshot(&self, spec: &encoding::EncoderSpec) -> RegHdRegressor {
        RegHdRegressor::from_parts(
            self.config().clone(),
            spec.build(),
            self.clusters().integer_clusters().to_vec(),
            self.models().integer_models().to_vec(),
            None,
            self.intercept(),
        )
    }
}

impl Regressor for OnlineRegHd {
    /// Single pass over the data, in the order given (no shuffling — the
    /// stream's order is the stream's order). Resets any previous state.
    fn fit(&mut self, features: &[Vec<f32>], targets: &[f32]) -> FitReport {
        assert_eq!(
            features.len(),
            targets.len(),
            "features and targets must have the same length"
        );
        assert!(!features.is_empty(), "cannot fit on empty data");
        self.model.reset(ONLINE_SEED_SALT);
        self.samples_seen = 0;
        self.ewma_sq_err = 0.0;
        self.cluster_err.fill(0.0);

        let mut sq = 0.0f64;
        for (x, &y) in features.iter().zip(targets) {
            let e = self.update(x, y);
            sq += (e as f64) * (e as f64);
        }
        self.quantize_now();
        FitReport {
            epochs: 1,
            train_mse_history: vec![(sq / targets.len() as f64) as f32],
            converged: false,
        }
    }

    fn predict_one(&self, x: &[f32]) -> f32 {
        self.model.predict_one(x)
    }

    fn name(&self) -> String {
        format!("RegHD-online-{}", self.config().models)
    }
}

/// Seed salt separating the streaming trainer's RNG stream from the batch
/// trainer's.
const ONLINE_SEED_SALT: u64 = 0x04_71_13_E5;

/// EWMA rate for the per-cluster error attribution.
const CLUSTER_ERR_ALPHA: f64 = 0.05;

/// EWMA rate of the prequential squared error.
const PREQUENTIAL_ALPHA: f64 = 0.02;

#[cfg(test)]
mod tests {
    use super::*;
    use encoding::NonlinearEncoder;

    fn make(k: usize, seed: u64) -> OnlineRegHd {
        let cfg = RegHdConfig::builder()
            .dim(1024)
            .models(k)
            .seed(seed)
            .build();
        OnlineRegHd::new(cfg, Box::new(NonlinearEncoder::new(2, 1024, seed)))
    }

    fn stream(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rng = HdRng::seed_from(seed);
        let xs: Vec<Vec<f32>> = (0..n)
            .map(|_| vec![rng.next_f32() * 2.0 - 1.0, rng.next_f32() * 2.0 - 1.0])
            .collect();
        let ys = xs.iter().map(|x| x[0] + (2.0 * x[1]).sin()).collect();
        (xs, ys)
    }

    #[test]
    fn prequential_error_shrinks() {
        let (xs, ys) = stream(800, 1);
        let mut m = make(2, 1);
        let mut early = 0.0f64;
        let mut late = 0.0f64;
        for (i, (x, &y)) in xs.iter().zip(&ys).enumerate() {
            let e = m.update(x, y) as f64;
            if i < 100 {
                early += e * e;
            }
            if i >= 700 {
                late += e * e;
            }
        }
        assert!(
            late < 0.3 * early,
            "streaming should learn: early={early:.2} late={late:.2}"
        );
        assert_eq!(m.samples_seen(), 800);
        assert!(m.prequential_mse() > 0.0);
    }

    #[test]
    fn single_pass_fit_learns_but_less_than_iterative() {
        // Figure 3a's premise: one pass learns something; iterations help.
        let (xs, ys) = stream(500, 2);
        let mut online = make(2, 2);
        online.fit(&xs, &ys);
        let preds = online.predict(&xs);
        let mse_online: f32 = preds
            .iter()
            .zip(&ys)
            .map(|(&p, &y)| (p - y) * (p - y))
            .sum::<f32>()
            / ys.len() as f32;

        let cfg = RegHdConfig::builder()
            .dim(1024)
            .models(2)
            .max_epochs(20)
            .seed(2)
            .build();
        let mut iterative =
            crate::RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(2, 1024, 2)));
        iterative.fit(&xs, &ys);
        let preds = iterative.predict(&xs);
        let mse_iter: f32 = preds
            .iter()
            .zip(&ys)
            .map(|(&p, &y)| (p - y) * (p - y))
            .sum::<f32>()
            / ys.len() as f32;

        let var = {
            let mean: f32 = ys.iter().sum::<f32>() / ys.len() as f32;
            ys.iter().map(|&y| (y - mean) * (y - mean)).sum::<f32>() / ys.len() as f32
        };
        assert!(
            mse_online < 0.5 * var,
            "single pass must learn: {mse_online} vs {var}"
        );
        assert!(
            mse_iter <= mse_online * 1.05,
            "iterative ({mse_iter}) should not lose to single-pass ({mse_online})"
        );
    }

    #[test]
    fn adapts_to_concept_drift() {
        // The function flips sign mid-stream; online updates track it.
        let mut m = make(2, 3);
        let mut rng = HdRng::seed_from(3);
        for _ in 0..600 {
            let x = [rng.next_f32() * 2.0 - 1.0, 0.0];
            m.update(&x, 2.0 * x[0]);
        }
        let before = m.predict_one(&[0.5, 0.0]);
        for _ in 0..1200 {
            let x = [rng.next_f32() * 2.0 - 1.0, 0.0];
            m.update(&x, -2.0 * x[0]);
        }
        let after = m.predict_one(&[0.5, 0.0]);
        assert!(before > 0.4, "before drift: {before}");
        assert!(after < -0.4, "after drift: {after}");
    }

    #[test]
    fn fit_resets_state() {
        let (xs, ys) = stream(200, 4);
        let mut m = make(2, 4);
        m.fit(&xs, &ys);
        let p1 = m.predict_one(&xs[0]);
        m.fit(&xs, &ys);
        assert_eq!(m.predict_one(&xs[0]), p1);
        assert_eq!(m.samples_seen(), 200);
    }

    #[test]
    fn name_reflects_streaming() {
        assert_eq!(make(4, 0).name(), "RegHD-online-4");
    }

    #[test]
    fn cluster_error_attribution_and_reset() {
        let (xs, ys) = stream(400, 5);
        let mut m = make(3, 5);
        for (x, &y) in xs.iter().zip(&ys) {
            m.update(x, y);
        }
        assert!(m.cluster_errors().iter().any(|&e| e > 0.0));
        let worst = m.worst_cluster();
        assert!(worst < 3);
        m.reset_cluster(worst);
        assert_eq!(m.cluster_errors()[worst], 0.0);
        // The evicted pair contributes a zero model score; the regressor
        // keeps predicting finite values and keeps learning.
        assert!(m.predict_one(&xs[0]).is_finite());
        let mut late = 0.0f64;
        for (x, &y) in xs.iter().zip(&ys) {
            late += m.update(x, y).abs() as f64;
        }
        assert!(late.is_finite());
    }

    #[test]
    fn reset_is_deterministic_in_sample_position() {
        let (xs, ys) = stream(100, 6);
        let mut a = make(2, 6);
        let mut b = make(2, 6);
        for (x, &y) in xs.iter().zip(&ys) {
            a.update(x, y);
            b.update(x, y);
        }
        a.reset_cluster(0);
        b.reset_cluster(0);
        assert_eq!(
            a.clusters().integer_clusters()[0],
            b.clusters().integer_clusters()[0]
        );
    }

    #[test]
    fn snapshot_predicts_identically_at_quantization_boundary() {
        use encoding::EncoderSpec;
        let spec = EncoderSpec::Nonlinear {
            input_dim: 2,
            dim: 1024,
            seed: 7,
        };
        let cfg = RegHdConfig::builder().dim(1024).models(2).seed(7).build();
        let mut m = OnlineRegHd::new(cfg, spec.build());
        let (xs, ys) = stream(300, 7);
        for (x, &y) in xs.iter().zip(&ys) {
            m.update(x, y);
        }
        m.quantize_now();
        let snap = m.snapshot(&spec);
        for x in xs.iter().take(20) {
            assert_eq!(snap.predict_one(x).to_bits(), m.predict_one(x).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_fit_panics() {
        make(1, 0).fit(&[], &[]);
    }
}
