//! Configuration for RegHD models.
//!
//! [`RegHdConfig`] gathers every hyper-parameter and architectural switch of
//! the paper: hypervector dimensionality `D`, model count `k`, learning rate
//! `α`, softmax sharpness, the iterative-training stopping rule, the cluster
//! quantisation mode (§3.1), the prediction quantisation mode (§3.2), and
//! the model-update rule (see [`UpdateRule`] for the Eq. 7 interpretation
//! note).

/// How cluster hypervectors are stored and searched (paper §3.1, Fig. 5a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusterMode {
    /// Full-precision clusters searched with cosine similarity (Eq. 5).
    #[default]
    Integer,
    /// The paper's quantisation framework: binary copies searched with
    /// Hamming distance, integer copies updated, re-binarised each epoch
    /// (Eq. 9).
    FrameworkBinary,
    /// Naive binarisation: the cluster *is* binary and every update is
    /// immediately re-binarised, losing accumulation capacity. Included as
    /// the paper's Figure 6 strawman.
    NaiveBinary,
}

impl ClusterMode {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ClusterMode::Integer => "int-cluster",
            ClusterMode::FrameworkBinary => "bin-cluster",
            ClusterMode::NaiveBinary => "naive-bin-cluster",
        }
    }
}

/// How predictions are computed from query and model (paper §3.2, Fig. 5b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredictionMode {
    /// Integer query × integer model: full-precision dot product.
    #[default]
    Full,
    /// Binary query × integer model: multiply-free conditional
    /// add/subtract. The paper's preferred quantised configuration
    /// (≈1.5% quality loss).
    BinaryQuery,
    /// Integer query × binary model: multiply-free, ≈5.2% quality loss in
    /// the paper.
    BinaryModel,
    /// Binary query × binary model: pure popcount arithmetic, maximum
    /// efficiency and maximum quality loss.
    BinaryBoth,
}

impl PredictionMode {
    /// Whether the mode binarises the query hypervector.
    pub fn query_is_binary(self) -> bool {
        matches!(
            self,
            PredictionMode::BinaryQuery | PredictionMode::BinaryBoth
        )
    }

    /// Whether the mode binarises the model hypervectors.
    pub fn model_is_binary(self) -> bool {
        matches!(
            self,
            PredictionMode::BinaryModel | PredictionMode::BinaryBoth
        )
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PredictionMode::Full => "full",
            PredictionMode::BinaryQuery => "bin-query",
            PredictionMode::BinaryModel => "bin-model",
            PredictionMode::BinaryBoth => "bin-both",
        }
    }

    /// All four modes, in the order Figure 7 reports them.
    pub const ALL: [PredictionMode; 4] = [
        PredictionMode::Full,
        PredictionMode::BinaryQuery,
        PredictionMode::BinaryModel,
        PredictionMode::BinaryBoth,
    ];
}

/// How the `k` regression models incorporate the shared prediction error.
///
/// The paper's Eq. 7 prints `M_i ← M_i + α(y − ŷ)S` for every `i`, but the
/// surrounding text and Fig. 4 describe confidence-weighted behaviour; an
/// unweighted update applied to *all* models would make every model
/// identical, collapsing the mixture. We therefore default to weighting the
/// update by each model's confidence `δ′_i` and keep the other readings as
/// ablations (`--bin ablation` in the bench crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UpdateRule {
    /// `M_i ← M_i + α·δ′_i·(y − ŷ)·S` — mixture-of-experts style; our
    /// default reading of Eq. 7.
    #[default]
    ConfidenceWeighted,
    /// Eq. 7 exactly as printed: every model receives the full unweighted
    /// update.
    SharedError,
    /// Only the argmax-similarity model updates (hard clustering).
    ArgmaxOnly,
}

impl UpdateRule {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            UpdateRule::ConfidenceWeighted => "conf-weighted",
            UpdateRule::SharedError => "shared-error",
            UpdateRule::ArgmaxOnly => "argmax-only",
        }
    }
}

/// Complete RegHD hyper-parameter set.
///
/// Construct with [`RegHdConfig::builder`]; the defaults reproduce the
/// paper's main configuration (`D = 4096`, `k = 8`, full precision).
///
/// # Examples
///
/// ```
/// use reghd::config::{RegHdConfig, ClusterMode, PredictionMode};
///
/// let cfg = RegHdConfig::builder()
///     .dim(2048)
///     .models(8)
///     .cluster_mode(ClusterMode::FrameworkBinary)
///     .prediction_mode(PredictionMode::BinaryQuery)
///     .build();
/// assert_eq!(cfg.dim, 2048);
/// assert_eq!(cfg.models, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegHdConfig {
    /// Hypervector dimensionality `D`.
    pub dim: usize,
    /// Number of cluster/model pairs `k` (1 = single-model regression).
    pub models: usize,
    /// Learning rate `α` of Eq. 2 / Eq. 7.
    pub learning_rate: f32,
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Minimum epochs before the stopping rule may fire.
    pub min_epochs: usize,
    /// Relative train-MSE improvement below which an epoch counts as
    /// "minor change" for the stopping rule.
    pub convergence_tol: f32,
    /// Number of consecutive minor-change epochs required to stop.
    pub patience: usize,
    /// Softmax inverse temperature β for confidence normalisation.
    pub softmax_beta: f32,
    /// How many training samples are processed between re-binarisations of
    /// the quantised model copies (§3.2: "after going through all training
    /// data **(or a batch)**, RegHD binarizes the model"). Training-time
    /// predictions in the binary-model modes read the binary copies, so
    /// refreshing them per batch keeps the error feedback loop live; a
    /// whole-epoch refresh would let the integer models over-accumulate
    /// against a stale prediction and diverge.
    pub quantize_batch: usize,
    /// Cluster storage/search mode (§3.1).
    pub cluster_mode: ClusterMode,
    /// Prediction quantisation mode (§3.2).
    pub prediction_mode: PredictionMode,
    /// Model-update rule (Eq. 7 interpretation).
    pub update_rule: UpdateRule,
    /// Whether encoded hypervectors are scaled to unit norm before use.
    /// Keeps the effective learning rate independent of `D` and of the
    /// encoder's output scale.
    pub normalize_encodings: bool,
    /// Whether encodings are mean-centred using the training-set mean
    /// encoding. Eq. 1 expands to `½·sin(2f·B+b) − ½·sin(b)`, whose second
    /// term is an input-independent bias shared by every encoding; centring
    /// removes that dominant shared direction, which dramatically improves
    /// the conditioning of the delta-rule updates.
    pub center_encodings: bool,
    /// Whether a scalar intercept is learned alongside the hypervector
    /// models (useful when targets are not pre-centred).
    pub intercept: bool,
    /// Seed for cluster initialisation and epoch shuffling.
    pub seed: u64,
}

impl Default for RegHdConfig {
    fn default() -> Self {
        Self {
            dim: 4096,
            models: 8,
            learning_rate: 0.3,
            max_epochs: 40,
            min_epochs: 5,
            convergence_tol: 1e-3,
            patience: 3,
            softmax_beta: 8.0,
            quantize_batch: 64,
            cluster_mode: ClusterMode::Integer,
            prediction_mode: PredictionMode::Full,
            update_rule: UpdateRule::ConfidenceWeighted,
            normalize_encodings: true,
            center_encodings: true,
            intercept: true,
            seed: 0,
        }
    }
}

impl RegHdConfig {
    /// Starts a builder initialised with the defaults.
    pub fn builder() -> RegHdConfigBuilder {
        RegHdConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be nonzero".into());
        }
        if self.models == 0 {
            return Err("models must be nonzero".into());
        }
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err("learning_rate must be positive and finite".into());
        }
        if self.max_epochs == 0 {
            return Err("max_epochs must be nonzero".into());
        }
        if !(self.convergence_tol >= 0.0 && self.convergence_tol.is_finite()) {
            return Err("convergence_tol must be nonnegative and finite".into());
        }
        if !(self.softmax_beta > 0.0 && self.softmax_beta.is_finite()) {
            return Err("softmax_beta must be positive and finite".into());
        }
        if self.quantize_batch == 0 {
            return Err("quantize_batch must be nonzero".into());
        }
        Ok(())
    }

    /// The precondition of every learner's constructor: a valid config and
    /// an encoder of width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or `encoder_dim != self.dim`.
    pub(crate) fn assert_valid_for(&self, encoder_dim: usize) {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid RegHdConfig: {e}"));
        assert_eq!(
            encoder_dim, self.dim,
            "encoder dim {encoder_dim} does not match config dim {}",
            self.dim
        );
    }
}

/// Builder for [`RegHdConfig`].
#[derive(Debug, Clone)]
pub struct RegHdConfigBuilder {
    cfg: RegHdConfig,
}

impl RegHdConfigBuilder {
    /// Sets the hypervector dimensionality `D`.
    pub fn dim(mut self, dim: usize) -> Self {
        self.cfg.dim = dim;
        self
    }

    /// Sets the number of cluster/model pairs `k`.
    pub fn models(mut self, models: usize) -> Self {
        self.cfg.models = models;
        self
    }

    /// Sets the learning rate `α`.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.cfg.learning_rate = lr;
        self
    }

    /// Sets the maximum number of training epochs.
    pub fn max_epochs(mut self, e: usize) -> Self {
        self.cfg.max_epochs = e;
        self
    }

    /// Sets the minimum number of epochs before early stopping may fire.
    pub fn min_epochs(mut self, e: usize) -> Self {
        self.cfg.min_epochs = e;
        self
    }

    /// Sets the convergence tolerance of the stopping rule.
    pub fn convergence_tol(mut self, tol: f32) -> Self {
        self.cfg.convergence_tol = tol;
        self
    }

    /// Sets the patience of the stopping rule.
    pub fn patience(mut self, p: usize) -> Self {
        self.cfg.patience = p;
        self
    }

    /// Sets the softmax inverse temperature β.
    pub fn softmax_beta(mut self, b: f32) -> Self {
        self.cfg.softmax_beta = b;
        self
    }

    /// Sets the re-binarisation batch size for quantised training.
    pub fn quantize_batch(mut self, b: usize) -> Self {
        self.cfg.quantize_batch = b;
        self
    }

    /// Sets the cluster quantisation mode.
    pub fn cluster_mode(mut self, m: ClusterMode) -> Self {
        self.cfg.cluster_mode = m;
        self
    }

    /// Sets the prediction quantisation mode.
    pub fn prediction_mode(mut self, m: PredictionMode) -> Self {
        self.cfg.prediction_mode = m;
        self
    }

    /// Sets the model-update rule.
    pub fn update_rule(mut self, r: UpdateRule) -> Self {
        self.cfg.update_rule = r;
        self
    }

    /// Sets whether encodings are normalised to unit norm.
    pub fn normalize_encodings(mut self, on: bool) -> Self {
        self.cfg.normalize_encodings = on;
        self
    }

    /// Sets whether encodings are mean-centred with the training-set mean.
    pub fn center_encodings(mut self, on: bool) -> Self {
        self.cfg.center_encodings = on;
        self
    }

    /// Sets whether a scalar intercept is learned.
    pub fn intercept(mut self, on: bool) -> Self {
        self.cfg.intercept = on;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; see [`RegHdConfig::validate`]
    /// for the checked constraints.
    pub fn build(self) -> RegHdConfig {
        if let Err(e) = self.cfg.validate() {
            panic!("invalid RegHdConfig: {e}");
        }
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(RegHdConfig::default().validate().is_ok());
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = RegHdConfig::builder()
            .dim(512)
            .models(32)
            .learning_rate(0.1)
            .max_epochs(5)
            .convergence_tol(0.01)
            .patience(2)
            .softmax_beta(4.0)
            .cluster_mode(ClusterMode::NaiveBinary)
            .prediction_mode(PredictionMode::BinaryBoth)
            .update_rule(UpdateRule::ArgmaxOnly)
            .normalize_encodings(false)
            .intercept(false)
            .seed(99)
            .build();
        assert_eq!(cfg.dim, 512);
        assert_eq!(cfg.models, 32);
        assert_eq!(cfg.learning_rate, 0.1);
        assert_eq!(cfg.max_epochs, 5);
        assert_eq!(cfg.patience, 2);
        assert_eq!(cfg.cluster_mode, ClusterMode::NaiveBinary);
        assert_eq!(cfg.prediction_mode, PredictionMode::BinaryBoth);
        assert_eq!(cfg.update_rule, UpdateRule::ArgmaxOnly);
        assert!(!cfg.normalize_encodings);
        assert!(!cfg.intercept);
        assert_eq!(cfg.seed, 99);
    }

    #[test]
    #[should_panic(expected = "dim must be nonzero")]
    fn zero_dim_panics() {
        RegHdConfig::builder().dim(0).build();
    }

    #[test]
    #[should_panic(expected = "models must be nonzero")]
    fn zero_models_panics() {
        RegHdConfig::builder().models(0).build();
    }

    #[test]
    fn validate_reports_bad_lr() {
        let mut cfg = RegHdConfig {
            learning_rate: -1.0,
            ..RegHdConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.learning_rate = f32::NAN;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn prediction_mode_flags() {
        assert!(!PredictionMode::Full.query_is_binary());
        assert!(!PredictionMode::Full.model_is_binary());
        assert!(PredictionMode::BinaryQuery.query_is_binary());
        assert!(!PredictionMode::BinaryQuery.model_is_binary());
        assert!(!PredictionMode::BinaryModel.query_is_binary());
        assert!(PredictionMode::BinaryModel.model_is_binary());
        assert!(PredictionMode::BinaryBoth.query_is_binary());
        assert!(PredictionMode::BinaryBoth.model_is_binary());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = PredictionMode::ALL.iter().map(|m| m.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
