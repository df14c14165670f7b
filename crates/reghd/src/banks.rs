//! Cluster and model hypervector banks, including the quantisation
//! framework of paper §3.
//!
//! * [`ClusterBank`] owns the `k` cluster hypervectors (`C_i`), performs the
//!   similarity search in the configured [`ClusterMode`], applies the
//!   saturation-aware update of Eq. 8/9, and re-binarises at epoch
//!   boundaries when running the §3.1 framework.
//! * [`ModelBank`] owns the `k` regression model hypervectors (`M_i`),
//!   computes per-model prediction scores in the configured
//!   [`PredictionMode`], always applies updates to the integer copies
//!   (§3.2: "the precision of the model update has an important impact on
//!   RegHD convergence"), and refreshes the binary copies each epoch.
//!
//! ### Binarisation scale factors
//!
//! The paper's binary prediction modes drop all magnitude information from
//! the binarised operand. To keep the predicted scalar on the target scale
//! we attach one scalar amplitude per binarised hypervector — the mean
//! absolute component value, the standard XNOR-Net-style scale factor. This
//! is one extra multiply per (model × query), preserving the modes'
//! multiply-free inner loops; `DESIGN.md` records it as an implementation
//! interpretation.

use crate::config::{ClusterMode, PredictionMode};
use hdc::rng::HdRng;
use hdc::similarity::{cosine, hamming_similarity};
use hdc::{BinaryHv, BipolarHv, RealHv};

/// Mean absolute component value — the scalar amplitude paired with a
/// binarised hypervector.
fn amplitude(hv: &RealHv) -> f32 {
    if hv.is_empty() {
        return 0.0;
    }
    (hv.as_slice().iter().map(|&v| v.abs() as f64).sum::<f64>() / hv.dim() as f64) as f32
}

/// The `k` cluster hypervectors with quantisation support (§3.1).
#[derive(Debug, Clone)]
pub struct ClusterBank {
    mode: ClusterMode,
    /// Integer (full-precision) cluster copies `C_i`. In `NaiveBinary` mode
    /// this holds the ±1 view of the binary state instead of an accumulator.
    int: Vec<RealHv>,
    /// Binary copies `C_i^b` (empty in `Integer` mode).
    bin: Vec<BinaryHv>,
}

impl ClusterBank {
    /// Creates `k` cluster hypervectors initialised to random binary values
    /// (paper §2.4: "cluster hypervectors are initialized to random binary
    /// values").
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `dim == 0`.
    pub fn new(k: usize, dim: usize, mode: ClusterMode, rng: &mut HdRng) -> Self {
        assert!(k > 0, "cluster count must be nonzero");
        assert!(dim > 0, "dim must be nonzero");
        let int = (0..k)
            .map(|_| BipolarHv::random(dim, rng).to_real())
            .collect();
        Self::from_parts(mode, int)
    }

    /// Rebuilds a bank from persisted integer clusters; the binary copies
    /// are re-derived by binarisation.
    ///
    /// # Panics
    ///
    /// Panics if `int` is empty or the clusters disagree in width.
    pub fn from_parts(mode: ClusterMode, int: Vec<RealHv>) -> Self {
        assert!(!int.is_empty(), "cluster count must be nonzero");
        let dim = int[0].dim();
        assert!(
            int.iter().all(|c| c.dim() == dim),
            "clusters must share a dimensionality"
        );
        let bin = int.iter().map(RealHv::binarize).collect();
        Self { mode, int, bin }
    }

    /// Number of clusters `k`.
    pub fn len(&self) -> usize {
        self.int.len()
    }

    /// Whether the bank is empty (never true for a constructed bank).
    pub fn is_empty(&self) -> bool {
        self.int.is_empty()
    }

    /// The quantisation mode.
    pub fn mode(&self) -> ClusterMode {
        self.mode
    }

    /// The integer cluster copies.
    pub fn integer_clusters(&self) -> &[RealHv] {
        &self.int
    }

    /// The binary cluster copies (empty in `Integer` mode semantics, but
    /// kept in sync for inspection).
    pub fn binary_clusters(&self) -> &[BinaryHv] {
        &self.bin
    }

    /// Similarity of an encoded point to every cluster, in the bank's mode:
    /// cosine over integer clusters, or Hamming similarity over binary
    /// clusters (Eq. 5 vs §3.1). Clears `out` and fills it with one
    /// similarity per cluster, so callers reuse one buffer across rows.
    pub fn similarities_into(&self, s: &RealHv, s_bin: &BinaryHv, out: &mut Vec<f32>) {
        out.clear();
        match self.mode {
            ClusterMode::Integer => out.extend(self.int.iter().map(|c| cosine(s, c))),
            ClusterMode::FrameworkBinary | ClusterMode::NaiveBinary => {
                self.binary_similarities_into(s_bin, out)
            }
        }
    }

    /// Hamming similarity of a binarised query to every **binary** cluster
    /// copy, regardless of the bank's mode — the cluster search of the
    /// bit-packed inference tier. The binary copies are kept coherent with
    /// the integer ones at every [`ClusterBank::end_epoch`] (all modes), so
    /// the tier can use them even on an `Integer`-mode bank.
    pub fn binary_similarities_into(&self, s_bin: &BinaryHv, out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.bin.iter().map(|c| hamming_similarity(s_bin, c)));
    }

    /// Applies the saturation-aware cluster update of Eq. 8/9 to cluster
    /// `l`: `C_l ← C_l + (1 − δ_l) · S`.
    ///
    /// * `Integer`/`FrameworkBinary`: the integer copy accumulates; the
    ///   binary copy is refreshed lazily at [`ClusterBank::end_epoch`].
    /// * `NaiveBinary`: the update is applied to the ±1 view and
    ///   immediately re-binarised, discarding accumulation history — the
    ///   Figure 6 strawman showing why the two-copy framework is needed.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range or dimensions mismatch.
    pub fn update(&mut self, l: usize, delta_l: f32, s: &RealHv) {
        let weight = 1.0 - delta_l;
        match self.mode {
            ClusterMode::Integer | ClusterMode::FrameworkBinary => {
                self.int[l].add_scaled(s, weight);
            }
            ClusterMode::NaiveBinary => {
                // Binary state → ±1 view, single update, immediate
                // re-binarisation. Magnitude history is lost by design.
                let mut view = self.bin[l].to_real_signed();
                view.add_scaled(s, weight);
                self.bin[l] = view.binarize();
                self.int[l] = self.bin[l].to_real_signed();
            }
        }
    }

    /// Re-initialises cluster `l` to fresh random binary values — the same
    /// initialisation a newly constructed bank uses (§2.4). Streaming
    /// trainers call this on concept drift to evict a cluster whose region
    /// of input space no longer exists; the next samples that land nearest
    /// to the fresh random vector re-grow it under the new concept.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn reset(&mut self, l: usize, rng: &mut HdRng) {
        let dim = self.int[l].dim();
        self.int[l] = BipolarHv::random(dim, rng).to_real();
        self.bin[l] = self.int[l].binarize();
    }

    /// Epoch boundary: re-quantise binary copies from the integer copies
    /// (the single-comparison binarisation step of Fig. 5a). `Integer`
    /// banks refresh them too, which keeps the inspection copies and the
    /// bit-packed tier coherent; `NaiveBinary` banks re-binarise on every
    /// update instead.
    pub fn end_epoch(&mut self) {
        if self.mode != ClusterMode::NaiveBinary {
            for (b, c) in self.bin.iter_mut().zip(&self.int) {
                *b = c.binarize();
            }
        }
    }
}

/// The `k` regression model hypervectors with quantised prediction support
/// (§3.2).
#[derive(Debug, Clone)]
pub struct ModelBank {
    mode: PredictionMode,
    /// Integer models `M_i` — always the update target.
    int: Vec<RealHv>,
    /// Binary models `M_i^b` (refreshed per epoch when the mode needs them).
    bin: Vec<BinaryHv>,
    /// Scalar amplitudes paired with the binary models.
    amps: Vec<f32>,
}

impl ModelBank {
    /// Creates `k` zero-initialised model hypervectors (paper §2.4: "model
    /// hypervectors are initialized as zero hypervectors").
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `dim == 0`.
    pub fn new(k: usize, dim: usize, mode: PredictionMode) -> Self {
        assert!(k > 0, "model count must be nonzero");
        assert!(dim > 0, "dim must be nonzero");
        Self {
            mode,
            int: vec![RealHv::zeros(dim); k],
            bin: vec![BinaryHv::zeros(dim); k],
            amps: vec![0.0; k],
        }
    }

    /// Rebuilds a bank from persisted integer models; binary copies and
    /// amplitudes are re-derived.
    ///
    /// # Panics
    ///
    /// Panics if `int` is empty or the models disagree in width.
    pub fn from_parts(mode: PredictionMode, int: Vec<RealHv>) -> Self {
        assert!(!int.is_empty(), "model count must be nonzero");
        let dim = int[0].dim();
        assert!(
            int.iter().all(|m| m.dim() == dim),
            "models must share a dimensionality"
        );
        let mut bank = Self {
            mode,
            bin: vec![BinaryHv::zeros(dim); int.len()],
            amps: vec![0.0; int.len()],
            int,
        };
        // Populate binary copies/amps regardless of mode so inspection and
        // the bit-packed tier are coherent.
        bank.end_epoch_forced();
        bank
    }

    /// Number of models `k`.
    pub fn len(&self) -> usize {
        self.int.len()
    }

    /// Whether the bank is empty (never true for a constructed bank).
    pub fn is_empty(&self) -> bool {
        self.int.is_empty()
    }

    /// The prediction mode.
    pub fn mode(&self) -> PredictionMode {
        self.mode
    }

    /// The integer model copies.
    pub fn integer_models(&self) -> &[RealHv] {
        &self.int
    }

    /// Per-model raw prediction scores `M_i ⋅ S` in the bank's mode.
    ///
    /// `s`/`s_bin` are the integer and binary encodings of the query and
    /// `s_amp` the query's scalar amplitude (mean |component|), used by the
    /// binary-query modes. Clears `out` and fills it with one raw score per
    /// model, so callers reuse one buffer across rows.
    pub fn scores_into(&self, s: &RealHv, s_bin: &BinaryHv, s_amp: f32, out: &mut Vec<f32>) {
        self.scores_into_mode(self.mode, s, s_bin, s_amp, out);
    }

    /// Like [`ModelBank::scores_into`] but in an explicit mode rather than
    /// the bank's configured one. Note that the binary model copies are
    /// refreshed per epoch only in the binary-model modes, so forcing
    /// `BinaryModel`/`BinaryBoth` on a bank built in another mode reads
    /// copies derived at construction ([`ModelBank::from_parts`]).
    pub fn scores_into_mode(
        &self,
        mode: PredictionMode,
        s: &RealHv,
        s_bin: &BinaryHv,
        s_amp: f32,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        match mode {
            PredictionMode::Full => out.extend(self.int.iter().map(|m| m.dot(s))),
            PredictionMode::BinaryQuery => {
                out.extend(self.int.iter().map(|m| s_amp * s_bin.signed_dot(m)))
            }
            PredictionMode::BinaryModel => out.extend(
                self.bin
                    .iter()
                    .zip(&self.amps)
                    .map(|(mb, &a)| a * mb.signed_dot(s)),
            ),
            PredictionMode::BinaryBoth => self.binary_scores_into(s_bin, s_amp, out),
        }
    }

    /// The binary-binary (§3.2 `BinaryBoth`) scores against the **binary**
    /// model copies, regardless of the bank's mode — the scoring loop of the
    /// bit-packed inference tier: XOR + popcount per model plus one multiply
    /// by the paired amplitudes.
    ///
    /// On banks whose mode never refreshes the binary copies during
    /// training, callers must force coherence first (see
    /// [`ModelBank::end_epoch_forced`]); `RegHdRegressor` does this at the
    /// end of every fit.
    pub fn binary_scores_into(&self, s_bin: &BinaryHv, s_amp: f32, out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.bin.iter().zip(&self.amps).map(|(mb, &a)| {
            // ±1 · ±1 dot = D − 2·hamming: XOR + popcount only.
            let dim = mb.dim() as i64;
            let ham = hdc::similarity::hamming_distance(mb, s_bin) as i64;
            a * s_amp * (dim - 2 * ham) as f32
        }))
    }

    /// Applies the model update `M_i ← M_i + delta · S` to the integer copy
    /// (always full precision, per §3.2).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or dimensions mismatch.
    pub fn update(&mut self, i: usize, delta: f32, s: &RealHv) {
        self.int[i].add_scaled(s, delta);
    }

    /// Re-initialises model `i` to the zero hypervector — the same state a
    /// newly constructed bank starts from (§2.4). Paired with
    /// [`ClusterBank::reset`] when a streaming trainer evicts a stale
    /// cluster/model pair on concept drift.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn reset(&mut self, i: usize) {
        let dim = self.int[i].dim();
        self.int[i] = RealHv::zeros(dim);
        self.bin[i] = BinaryHv::zeros(dim);
        self.amps[i] = 0.0;
    }

    /// Epoch boundary: refresh binary copies and amplitudes from the
    /// integer models (the binarisation step of Fig. 5b).
    pub fn end_epoch(&mut self) {
        if self.mode.model_is_binary() {
            self.end_epoch_forced();
        }
    }

    /// Refreshes binary copies and amplitudes unconditionally (used after
    /// out-of-band model edits such as sparsification).
    pub fn end_epoch_forced(&mut self) {
        for ((b, a), m) in self.bin.iter_mut().zip(&mut self.amps).zip(&self.int) {
            *b = m.binarize();
            *a = amplitude(m);
        }
    }

    /// Mutable access to one integer model (for out-of-band edits like
    /// sparsification); call [`ModelBank::end_epoch_forced`] afterwards so
    /// the binary copies stay coherent.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn integer_model_mut(&mut self, i: usize) -> &mut RealHv {
        &mut self.int[i]
    }
}

/// Query-side encoding bundle: integer form, binary form, and scalar
/// amplitude, produced once per sample and consumed by both banks.
#[derive(Debug, Clone)]
pub struct EncodedQuery {
    /// Full-precision encoding `S` (normalised if the config says so).
    pub real: RealHv,
    /// Sign-binarised encoding `S^b`.
    pub binary: BinaryHv,
    /// Mean absolute component value of `real`.
    pub amp: f32,
}

impl EncodedQuery {
    /// Builds the bundle from a real encoding.
    pub fn new(real: RealHv) -> Self {
        let binary = real.binarize();
        let amp = amplitude(&real);
        Self { real, binary, amp }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::similarity::argmax;

    fn sims_of(bank: &ClusterBank, q: &EncodedQuery) -> Vec<f32> {
        let mut out = Vec::new();
        bank.similarities_into(&q.real, &q.binary, &mut out);
        out
    }

    fn scores_of(bank: &ModelBank, q: &EncodedQuery) -> Vec<f32> {
        let mut out = Vec::new();
        bank.scores_into(&q.real, &q.binary, q.amp, &mut out);
        out
    }

    fn rng() -> HdRng {
        HdRng::seed_from(11)
    }

    #[test]
    fn cluster_bank_initialises_randomly() {
        let mut r = rng();
        let bank = ClusterBank::new(4, 512, ClusterMode::Integer, &mut r);
        assert_eq!(bank.len(), 4);
        // Random ±1 init: clusters pairwise nearly orthogonal.
        let c = bank.integer_clusters();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(cosine(&c[i], &c[j]).abs() < 0.2);
            }
        }
    }

    #[test]
    fn integer_similarities_are_cosine() {
        let mut r = rng();
        let bank = ClusterBank::new(3, 256, ClusterMode::Integer, &mut r);
        let q = EncodedQuery::new(bank.integer_clusters()[1].clone());
        let sims = sims_of(&bank, &q);
        assert_eq!(argmax(&sims), Some(1));
        assert!((sims[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn binary_similarities_are_hamming() {
        let mut r = rng();
        let bank = ClusterBank::new(3, 256, ClusterMode::FrameworkBinary, &mut r);
        let q = EncodedQuery::new(bank.integer_clusters()[2].clone());
        let sims = sims_of(&bank, &q);
        assert_eq!(argmax(&sims), Some(2));
        assert!((sims[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn framework_update_accumulates_then_rebinarizes() {
        let mut r = rng();
        let mut bank = ClusterBank::new(2, 128, ClusterMode::FrameworkBinary, &mut r);
        let before_bin = bank.binary_clusters()[0].clone();
        let s = EncodedQuery::new(BipolarHv::random(128, &mut r).to_real());
        // Low similarity → near-full-weight update on the integer copy.
        bank.update(0, 0.0, &s.real);
        // Binary copy unchanged until the epoch boundary.
        assert_eq!(bank.binary_clusters()[0], before_bin);
        bank.end_epoch();
        // After several aligned updates the binary copy must drift toward s.
        for _ in 0..5 {
            bank.update(0, 0.0, &s.real);
        }
        bank.end_epoch();
        let sim = hamming_similarity(&bank.binary_clusters()[0], &s.binary);
        assert!(sim > 0.8, "sim = {sim}");
    }

    #[test]
    fn naive_update_saturates() {
        // The §3.1 argument: naive binarisation cannot accumulate. A small
        // repeated update that would win out over epochs in the framework
        // mode is erased every step in naive mode.
        let mut r = rng();
        let mut naive = ClusterBank::new(1, 4096, ClusterMode::NaiveBinary, &mut r);
        let mut fw_rng = HdRng::seed_from(11);
        let mut framework2 = ClusterBank::new(1, 4096, ClusterMode::FrameworkBinary, &mut fw_rng);
        let s = EncodedQuery::new(BipolarHv::random(4096, &mut r).to_real());
        // Weight 0.4 < 1: never enough to flip a ±1 component in one step
        // for the naive bank, but accumulates in the framework bank.
        for _ in 0..10 {
            naive.update(0, 0.6, &s.real);
            framework2.update(0, 0.6, &s.real);
            naive.end_epoch();
            framework2.end_epoch();
        }
        let naive_sim = hamming_similarity(&naive.binary_clusters()[0], &s.binary);
        let fw_sim = hamming_similarity(&framework2.binary_clusters()[0], &s.binary);
        assert!(
            fw_sim > naive_sim + 0.3,
            "framework {fw_sim} should beat naive {naive_sim}"
        );
    }

    #[test]
    fn high_similarity_damps_cluster_update() {
        // Eq. 8's (1 − δ) factor: an already-matching input barely moves
        // the cluster.
        let mut r = rng();
        let mut bank = ClusterBank::new(1, 256, ClusterMode::Integer, &mut r);
        let before = bank.integer_clusters()[0].clone();
        let s = EncodedQuery::new(before.clone());
        bank.update(0, 0.99, &s.real);
        let after = &bank.integer_clusters()[0];
        let drift = hdc::similarity::squared_euclidean(&before, after);
        assert!(drift < 0.05 * before.dim() as f32);
    }

    #[test]
    fn model_bank_starts_at_zero() {
        let bank = ModelBank::new(3, 128, PredictionMode::Full);
        let q = EncodedQuery::new(RealHv::from_vec(vec![1.0; 128]));
        assert!(scores_of(&bank, &q).iter().all(|&s| s == 0.0));
    }

    #[test]
    fn full_scores_are_dots() {
        let mut bank = ModelBank::new(2, 64, PredictionMode::Full);
        let s = EncodedQuery::new(RealHv::from_vec(vec![0.5; 64]));
        bank.update(0, 1.0, &s.real);
        let scores = scores_of(&bank, &s);
        assert!((scores[0] - 64.0 * 0.25).abs() < 1e-3);
        assert_eq!(scores[1], 0.0);
    }

    #[test]
    fn binary_model_scores_track_full_after_end_epoch() {
        // With a rich enough model the binarised score should correlate
        // strongly with the full-precision score.
        let mut r = rng();
        let mut full = ModelBank::new(1, 2048, PredictionMode::Full);
        let mut binm = ModelBank::new(1, 2048, PredictionMode::BinaryModel);
        // Accumulate a few random updates into both.
        for _ in 0..10 {
            let u = EncodedQuery::new(BipolarHv::random(2048, &mut r).to_real());
            full.update(0, 0.7, &u.real);
            binm.update(0, 0.7, &u.real);
        }
        full.end_epoch();
        binm.end_epoch();
        let q = EncodedQuery::new(BipolarHv::random(2048, &mut r).to_real());
        let f = scores_of(&full, &q)[0];
        let b = scores_of(&binm, &q)[0];
        // Same order of magnitude and same sign tendency.
        assert!(
            (f - b).abs() < 0.5 * f.abs().max(b.abs()).max(10.0),
            "full {f} vs binary-model {b}"
        );
    }

    #[test]
    fn binary_both_uses_popcount_identity() {
        let mut bank = ModelBank::new(1, 128, PredictionMode::BinaryBoth);
        let s = EncodedQuery::new(RealHv::from_vec(vec![1.0; 128]));
        bank.update(0, 1.0, &s.real);
        bank.end_epoch();
        // Model binarises to all-ones; query binary is all-ones; dot should
        // be amp_model · amp_query · D.
        let score = scores_of(&bank, &s)[0];
        assert!((score - 1.0 * 1.0 * 128.0).abs() < 1e-3, "score = {score}");
    }

    #[test]
    fn amplitude_is_mean_abs() {
        assert_eq!(amplitude(&RealHv::from_vec(vec![1.0, -3.0])), 2.0);
        assert_eq!(amplitude(&RealHv::zeros(0)), 0.0);
    }

    #[test]
    fn encoded_query_bundles_consistently() {
        let v = RealHv::from_vec(vec![0.5, -0.5, 2.0]);
        let q = EncodedQuery::new(v.clone());
        assert_eq!(q.binary, v.binarize());
        assert!((q.amp - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "cluster count must be nonzero")]
    fn zero_clusters_panics() {
        ClusterBank::new(0, 16, ClusterMode::Integer, &mut rng());
    }

    #[test]
    #[should_panic(expected = "model count must be nonzero")]
    fn zero_models_panics() {
        ModelBank::new(0, 16, PredictionMode::Full);
    }
}
