//! Single-model hyperdimensional regression (paper §2.3).
//!
//! One model hypervector `M`, initialised to zero, trained with the
//! perceptron-style delta rule of Eq. 2:
//!
//! ```text
//! ŷ = M · S
//! M ← M + α (y − ŷ) S
//! ```
//!
//! iterated over the training data until the model stabilises. This is the
//! simplest RegHD variant; its capacity limit on multi-regime tasks (§2.3
//! "hypervector capacity") is what motivates the multi-model design in
//! [`crate::model`].

use crate::config::RegHdConfig;
use crate::traits::{FitReport, Regressor};
use encoding::Encoder;
use hdc::rng::HdRng;
use hdc::RealHv;

/// Single-hypervector RegHD regressor (Eq. 2).
///
/// # Examples
///
/// ```
/// use reghd::{SingleHdRegressor, Regressor, config::RegHdConfig};
/// use encoding::NonlinearEncoder;
///
/// // y = x0 + x1 on a toy grid.
/// let xs: Vec<Vec<f32>> = (0..50)
///     .map(|i| vec![(i % 7) as f32 / 7.0, (i % 5) as f32 / 5.0])
///     .collect();
/// let ys: Vec<f32> = xs.iter().map(|x| x[0] + x[1]).collect();
///
/// let cfg = RegHdConfig::builder().dim(1024).max_epochs(30).build();
/// let enc = NonlinearEncoder::new(2, 1024, 1);
/// let mut model = SingleHdRegressor::new(cfg, Box::new(enc));
/// let report = model.fit(&xs, &ys);
/// assert!(report.final_mse().unwrap() < 0.05);
/// ```
pub struct SingleHdRegressor {
    config: RegHdConfig,
    encoder: Box<dyn Encoder>,
    model: RealHv,
    intercept: f32,
    /// Training-set mean encoding, subtracted from every encoding when
    /// `config.center_encodings` is on (see that field's docs).
    center: Option<RealHv>,
    trained: bool,
}

impl std::fmt::Debug for SingleHdRegressor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleHdRegressor")
            .field("dim", &self.config.dim)
            .field("trained", &self.trained)
            .finish()
    }
}

impl SingleHdRegressor {
    /// Creates an untrained single-model regressor.
    ///
    /// # Panics
    ///
    /// Panics if `encoder.dim() != config.dim` or the config is invalid.
    pub fn new(config: RegHdConfig, encoder: Box<dyn Encoder>) -> Self {
        config.assert_valid_for(encoder.dim());
        let dim = config.dim;
        Self {
            config,
            encoder,
            model: RealHv::zeros(dim),
            intercept: 0.0,
            center: None,
            trained: false,
        }
    }

    /// The model hypervector `M` (all zeros before training).
    pub fn model(&self) -> &RealHv {
        &self.model
    }

    /// The learned intercept (0 when `config.intercept` is off).
    pub fn intercept(&self) -> f32 {
        self.intercept
    }

    /// The configuration this regressor was built with.
    pub fn config(&self) -> &RegHdConfig {
        &self.config
    }

    fn encode(&self, x: &[f32]) -> RealHv {
        let mut s = self.encoder.encode(x);
        if let Some(center) = &self.center {
            s.add_scaled(center, -1.0);
        }
        if self.config.normalize_encodings {
            s.normalize();
        }
        s
    }
}

impl Regressor for SingleHdRegressor {
    fn fit(&mut self, features: &[Vec<f32>], targets: &[f32]) -> FitReport {
        assert_eq!(
            features.len(),
            targets.len(),
            "features and targets must have the same length"
        );
        assert!(!features.is_empty(), "cannot fit on empty data");

        // Reset state so repeated fits are independent.
        self.model = RealHv::zeros(self.config.dim);
        self.intercept = 0.0;
        self.center = None;

        // Fit the encoding centre on this training set (see
        // `RegHdConfig::center_encodings`), then encode once; epochs then
        // cost only dot products and updates.
        let mut encoded: Vec<RealHv> = features.iter().map(|x| self.encoder.encode(x)).collect();
        if self.config.center_encodings {
            let mut mean = RealHv::zeros(self.config.dim);
            for s in &encoded {
                mean.add_scaled(s, 1.0 / encoded.len() as f32);
            }
            for s in &mut encoded {
                s.add_scaled(&mean, -1.0);
            }
            self.center = Some(mean);
        }
        if self.config.normalize_encodings {
            for s in &mut encoded {
                s.normalize();
            }
        }

        let mut rng = HdRng::seed_from(self.config.seed ^ 0x51_4e_67_1e);
        let mut order: Vec<usize> = (0..features.len()).collect();
        let report = FitReport::until_stable(&self.config, || {
            // Fresh shuffle each epoch avoids order bias (§2.3 notes that
            // single-pass training lets late inputs dominate).
            for i in (1..order.len()).rev() {
                let j = rng.next_below(i + 1);
                order.swap(i, j);
            }
            let mut sq_err = 0.0f64;
            for &i in &order {
                let s = &encoded[i];
                let pred = self.model.dot(s) + self.intercept;
                let err = targets[i] - pred;
                sq_err += (err as f64) * (err as f64);
                self.model.add_scaled(s, self.config.learning_rate * err);
                if self.config.intercept {
                    self.intercept += self.config.learning_rate * 0.1 * err;
                }
            }
            (sq_err / order.len() as f64) as f32
        });
        self.trained = true;
        report
    }

    fn predict_one(&self, x: &[f32]) -> f32 {
        let s = self.encode(x);
        self.model.dot(&s) + self.intercept
    }

    fn name(&self) -> String {
        "RegHD-single".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegHdConfig;
    use encoding::NonlinearEncoder;

    fn toy_linear(n: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rng = HdRng::seed_from(7);
        let xs: Vec<Vec<f32>> = (0..n)
            .map(|_| vec![rng.next_f32() * 2.0 - 1.0, rng.next_f32() * 2.0 - 1.0])
            .collect();
        let ys = xs.iter().map(|x| 2.0 * x[0] - x[1] + 0.5).collect();
        (xs, ys)
    }

    fn make(dim: usize, seed: u64) -> SingleHdRegressor {
        let cfg = RegHdConfig::builder()
            .dim(dim)
            .max_epochs(40)
            .seed(seed)
            .build();
        let enc = NonlinearEncoder::new(2, dim, seed);
        SingleHdRegressor::new(cfg, Box::new(enc))
    }

    #[test]
    fn learns_linear_function() {
        let (xs, ys) = toy_linear(200);
        let mut m = make(2048, 1);
        let report = m.fit(&xs, &ys);
        assert!(
            report.final_mse().unwrap() < 0.02,
            "final mse = {:?}",
            report.final_mse()
        );
    }

    #[test]
    fn learns_nonlinear_function() {
        // The encoder's nonlinearity lets the *linear* HD learner fit a
        // nonlinear target — the core claim of §2.2.
        let mut rng = HdRng::seed_from(3);
        let xs: Vec<Vec<f32>> = (0..300)
            .map(|_| vec![rng.next_f32() * 2.0 - 1.0, rng.next_f32() * 2.0 - 1.0])
            .collect();
        let ys: Vec<f32> = xs
            .iter()
            .map(|x| (3.0 * x[0]).sin() + x[1] * x[1])
            .collect();
        let mut m = make(4096, 5);
        let report = m.fit(&xs, &ys);
        let var = {
            let mean = ys.iter().sum::<f32>() / ys.len() as f32;
            ys.iter().map(|&y| (y - mean) * (y - mean)).sum::<f32>() / ys.len() as f32
        };
        let mse = report.final_mse().unwrap();
        assert!(
            mse < 0.2 * var,
            "mse {mse} should be well under variance {var}"
        );
    }

    #[test]
    fn iterative_training_improves_mse() {
        // Figure 3a's qualitative content: MSE decreases over iterations.
        let (xs, ys) = toy_linear(150);
        let mut m = make(1024, 2);
        let report = m.fit(&xs, &ys);
        let first = report.train_mse_history[0];
        let last = *report.train_mse_history.last().unwrap();
        assert!(
            last < 0.5 * first,
            "training should improve: first={first} last={last}"
        );
    }

    #[test]
    fn convergence_stops_early() {
        let (xs, ys) = toy_linear(100);
        let cfg = RegHdConfig::builder()
            .dim(1024)
            .max_epochs(200)
            .convergence_tol(0.05)
            .patience(2)
            .build();
        let enc = NonlinearEncoder::new(2, 1024, 0);
        let mut m = SingleHdRegressor::new(cfg, Box::new(enc));
        let report = m.fit(&xs, &ys);
        assert!(report.converged);
        assert!(report.epochs < 200);
    }

    #[test]
    fn refit_resets_state() {
        let (xs, ys) = toy_linear(100);
        let mut m = make(1024, 4);
        m.fit(&xs, &ys);
        let pred_a = m.predict_one(&xs[0]);
        // Refit on shifted targets: predictions must track the new data,
        // not accumulate on top of the old model.
        let ys_shift: Vec<f32> = ys.iter().map(|&y| y + 100.0).collect();
        m.fit(&xs, &ys_shift);
        let pred_b = m.predict_one(&xs[0]);
        assert!(
            (pred_b - pred_a - 100.0).abs() < 5.0,
            "pred_a={pred_a} pred_b={pred_b}"
        );
    }

    #[test]
    fn untrained_model_predicts_zero() {
        let m = make(512, 0);
        assert_eq!(m.predict_one(&[0.3, -0.3]), 0.0);
    }

    #[test]
    fn batch_predict_matches_single() {
        let (xs, ys) = toy_linear(80);
        let mut m = make(1024, 6);
        m.fit(&xs, &ys);
        let batch = m.predict(&xs[..5]);
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(b, m.predict_one(&xs[i]));
        }
    }

    #[test]
    #[should_panic(expected = "does not match config dim")]
    fn encoder_dim_mismatch_panics() {
        let cfg = RegHdConfig::builder().dim(1024).build();
        let enc = NonlinearEncoder::new(2, 512, 0);
        SingleHdRegressor::new(cfg, Box::new(enc));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fit_empty_panics() {
        make(256, 0).fit(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn fit_mismatched_panics() {
        make(256, 0).fit(&[vec![0.0, 0.0]], &[1.0, 2.0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = toy_linear(60);
        let mut a = make(512, 9);
        let mut b = make(512, 9);
        a.fit(&xs, &ys);
        b.fit(&xs, &ys);
        assert_eq!(a.predict_one(&xs[0]), b.predict_one(&xs[0]));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(make(256, 0).name(), "RegHD-single");
    }
}
