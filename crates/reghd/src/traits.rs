//! The [`Regressor`] interface shared by RegHD and every comparator in the
//! `baselines` crate, plus the [`FitReport`] returned by training and the
//! stopping rule the iterative RegHD trainers share.

use crate::config::RegHdConfig;

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Number of epochs actually run.
    pub epochs: usize,
    /// Training-set MSE measured after each epoch (drives the Figure 3a
    /// reproduction).
    pub train_mse_history: Vec<f32>,
    /// Whether the stopping rule fired before `max_epochs`.
    pub converged: bool,
}

impl FitReport {
    /// The final training MSE, if at least one epoch ran.
    pub fn final_mse(&self) -> Option<f32> {
        self.train_mse_history.last().copied()
    }

    /// Runs `epoch` — one training epoch, returning its MSE — until the
    /// iterative trainers' stopping rule fires or `cfg.max_epochs` epochs
    /// have run. The rule ("minor changes during a few consecutive
    /// iterations") compares each epoch with the best MSE so far: only an
    /// improvement by more than `cfg.convergence_tol` resets the patience
    /// counter, so training that oscillates around its floor still stops
    /// (a last-epoch-relative rule never fires on noisy quantised
    /// training).
    pub(crate) fn until_stable(cfg: &RegHdConfig, mut epoch: impl FnMut() -> f32) -> Self {
        let mut history: Vec<f32> = Vec::new();
        let mut calm_epochs = 0usize;
        let mut converged = false;
        for _ in 0..cfg.max_epochs {
            let epoch_mse = epoch();
            match history.iter().copied().fold(f32::INFINITY, f32::min) {
                best if epoch_mse < best * (1.0 - cfg.convergence_tol) => calm_epochs = 0,
                best if best.is_finite() => calm_epochs += 1,
                _ => {}
            }
            history.push(epoch_mse);
            if history.len() >= cfg.min_epochs && calm_epochs >= cfg.patience {
                converged = true;
                break;
            }
        }
        Self {
            epochs: history.len(),
            train_mse_history: history,
            converged,
        }
    }
}

/// A trainable regression model over raw feature vectors.
///
/// All learners in this workspace — RegHD variants and the Table 1
/// baselines — implement this trait, which is what lets the bench harness
/// sweep them uniformly. The trait is object-safe.
pub trait Regressor {
    /// Trains on the given samples, replacing any previous state.
    ///
    /// # Panics
    ///
    /// Implementations panic if `features.len() != targets.len()`, the
    /// inputs are empty, or rows do not match the model's expected feature
    /// width.
    fn fit(&mut self, features: &[Vec<f32>], targets: &[f32]) -> FitReport;

    /// Predicts the target for a single feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the expected feature width.
    fn predict_one(&self, x: &[f32]) -> f32;

    /// Predicts targets for a batch of feature vectors.
    ///
    /// The default implementation loops over [`Regressor::predict_one`];
    /// learners with a cheaper amortised path override it
    /// (`RegHdRegressor` runs its blocked batch encoder with reused
    /// buffers). Serving does not go through this trait: its workers call
    /// `RegHdRegressor::predict_batch_with` with their own scratch.
    fn predict(&self, features: &[Vec<f32>]) -> Vec<f32> {
        features.iter().map(|x| self.predict_one(x)).collect()
    }

    /// Human-readable model name used in reports.
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MeanModel {
        mean: f32,
    }

    impl Regressor for MeanModel {
        fn fit(&mut self, features: &[Vec<f32>], targets: &[f32]) -> FitReport {
            assert_eq!(features.len(), targets.len());
            self.mean = targets.iter().sum::<f32>() / targets.len() as f32;
            FitReport {
                epochs: 1,
                train_mse_history: vec![0.0],
                converged: true,
            }
        }

        fn predict_one(&self, _x: &[f32]) -> f32 {
            self.mean
        }

        fn name(&self) -> String {
            "mean".into()
        }
    }

    #[test]
    fn default_batch_predict_delegates() {
        let mut m = MeanModel { mean: 0.0 };
        m.fit(&[vec![1.0], vec![2.0]], &[10.0, 20.0]);
        assert_eq!(m.predict(&[vec![0.0], vec![9.0]]), vec![15.0, 15.0]);
        assert!(m.predict(&[]).is_empty());
    }

    #[test]
    fn predict_batch_is_object_safe() {
        // `predict` is the batch entry point.
        let m: Box<dyn Regressor> = Box::new(MeanModel { mean: 3.0 });
        assert_eq!(m.predict(&[vec![1.0], vec![2.0]]), vec![3.0, 3.0]);
    }

    #[test]
    fn trait_is_object_safe() {
        let m: Box<dyn Regressor> = Box::new(MeanModel { mean: 1.0 });
        assert_eq!(m.predict_one(&[0.0]), 1.0);
        assert_eq!(m.name(), "mean");
    }

    #[test]
    fn fit_report_final_mse() {
        let r = FitReport {
            epochs: 2,
            train_mse_history: vec![2.0, 1.0],
            converged: false,
        };
        assert_eq!(r.final_mse(), Some(1.0));
        let empty = FitReport {
            epochs: 0,
            train_mse_history: vec![],
            converged: false,
        };
        assert_eq!(empty.final_mse(), None);
    }
}
