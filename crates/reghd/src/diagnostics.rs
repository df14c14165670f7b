//! Model introspection — backing the paper's claim that HD computing
//! "offers an intuitive and human-interpretable model" (§1, point ii).
//!
//! [`RegHdRegressor::diagnostics`] summarises what the trained mixture
//! actually learned: how the input space is partitioned across clusters,
//! how confident the gating is, and how much each regression model has
//! accumulated. Typical uses:
//!
//! * **capacity sizing** — if one cluster absorbs almost everything,
//!   `k` is too large (or the data is uni-modal) and Table 1's smaller-k
//!   configurations will match quality at lower cost;
//! * **gating health** — mean confidence entropy near `ln k` means the
//!   softmax is effectively uniform (β too low or clusters
//!   undifferentiated), near 0 means hard routing;
//! * **saturation monitoring** — model norms growing without bound signal
//!   a learning-rate problem.

use crate::model::{PredictScratch, RegHdRegressor};
use hdc::similarity::argmax;

/// Summary statistics of a trained model over a probe set.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostics {
    /// How many probe inputs route (argmax) to each cluster.
    pub cluster_histogram: Vec<usize>,
    /// Mean Shannon entropy (nats) of the softmax confidences; range
    /// `[0, ln k]`.
    pub mean_confidence_entropy: f32,
    /// Euclidean norm of each regression model hypervector.
    pub model_norms: Vec<f32>,
    /// The learned intercept.
    pub intercept: f32,
}

impl Diagnostics {
    /// Fraction of probes routed to the busiest cluster — 1.0 means the
    /// mixture collapsed to a single expert.
    pub fn max_cluster_share(&self) -> f32 {
        let total: usize = self.cluster_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        *self.cluster_histogram.iter().max().expect("nonempty") as f32 / total as f32
    }

    /// Number of clusters that received at least one probe.
    pub fn active_clusters(&self) -> usize {
        self.cluster_histogram.iter().filter(|&&c| c > 0).count()
    }
}

impl std::fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "clusters active: {}/{} (busiest holds {:.0}%)",
            self.active_clusters(),
            self.cluster_histogram.len(),
            100.0 * self.max_cluster_share()
        )?;
        writeln!(
            f,
            "mean gating entropy: {:.3} nats (uniform would be {:.3})",
            self.mean_confidence_entropy,
            (self.cluster_histogram.len() as f32).ln()
        )?;
        write!(f, "model norms: ")?;
        for (i, n) in self.model_norms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n:.2}")?;
        }
        write!(f, "; intercept {:.3}", self.intercept)
    }
}

impl RegHdRegressor {
    /// Computes routing and gating statistics over a probe set (typically
    /// the training or validation inputs).
    ///
    /// # Panics
    ///
    /// Panics if `probes` is empty or rows have the wrong feature width.
    pub fn diagnostics(&self, probes: &[Vec<f32>]) -> Diagnostics {
        assert!(!probes.is_empty(), "need at least one probe input");
        let mut histogram = vec![0usize; self.config().models];
        let mut entropy_sum = 0.0f64;
        let mut s = PredictScratch::default();
        for x in probes {
            self.forward(&self.encode(x), &mut s);
            if let Some(l) = argmax(&s.sims) {
                histogram[l] += 1;
            }
            entropy_sum += s
                .conf
                .iter()
                .filter(|&&c| c > 0.0)
                .map(|&c| -(c as f64) * (c as f64).ln())
                .sum::<f64>();
        }
        let model_norms = self
            .models()
            .integer_models()
            .iter()
            .map(|m| m.norm())
            .collect();
        Diagnostics {
            cluster_histogram: histogram,
            mean_confidence_entropy: (entropy_sum / probes.len() as f64) as f32,
            model_norms,
            intercept: self.intercept(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegHdConfig;
    use crate::Regressor;
    use encoding::NonlinearEncoder;
    use hdc::rng::HdRng;

    fn multimodal(n: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rng = HdRng::seed_from(5);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let c = if rng.next_bool(0.5) { -2.0f32 } else { 2.0 };
            let x = vec![c + 0.2 * rng.next_gaussian() as f32];
            ys.push(if c < 0.0 { 1.0 } else { -1.0 });
            xs.push(x);
        }
        (xs, ys)
    }

    fn trained(k: usize, beta: f32) -> (RegHdRegressor, Vec<Vec<f32>>) {
        let (xs, ys) = multimodal(200);
        let cfg = RegHdConfig::builder()
            .dim(1024)
            .models(k)
            .max_epochs(10)
            .softmax_beta(beta)
            .seed(5)
            .build();
        let mut m = RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(1, 1024, 5)));
        m.fit(&xs, &ys);
        (m, xs)
    }

    #[test]
    fn histogram_covers_all_probes() {
        let (m, xs) = trained(4, 8.0);
        let d = m.diagnostics(&xs);
        assert_eq!(d.cluster_histogram.iter().sum::<usize>(), xs.len());
        assert_eq!(d.model_norms.len(), 4);
        assert!(d.active_clusters() >= 1);
    }

    #[test]
    fn two_regimes_use_at_least_two_clusters() {
        let (m, xs) = trained(4, 8.0);
        let d = m.diagnostics(&xs);
        assert!(
            d.active_clusters() >= 2,
            "bimodal input should activate ≥ 2 clusters: {:?}",
            d.cluster_histogram
        );
        assert!(d.max_cluster_share() < 1.0);
    }

    #[test]
    fn entropy_bounded_by_ln_k() {
        let (m, xs) = trained(8, 4.0);
        let d = m.diagnostics(&xs);
        let max_entropy = (8f32).ln();
        assert!(d.mean_confidence_entropy >= 0.0);
        assert!(
            d.mean_confidence_entropy <= max_entropy + 1e-4,
            "{} > ln 8",
            d.mean_confidence_entropy
        );
    }

    #[test]
    fn sharper_beta_lowers_entropy() {
        let (soft, xs) = trained(4, 1.0);
        let (sharp, _) = trained(4, 64.0);
        let e_soft = soft.diagnostics(&xs).mean_confidence_entropy;
        let e_sharp = sharp.diagnostics(&xs).mean_confidence_entropy;
        assert!(
            e_sharp < e_soft,
            "beta=64 entropy {e_sharp} should be below beta=1 entropy {e_soft}"
        );
    }

    #[test]
    fn display_is_informative() {
        let (m, xs) = trained(2, 8.0);
        let text = m.diagnostics(&xs).to_string();
        assert!(text.contains("clusters active"));
        assert!(text.contains("gating entropy"));
        assert!(text.contains("intercept"));
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn empty_probes_panics() {
        let (m, _) = trained(2, 8.0);
        m.diagnostics(&[]);
    }
}
