//! Random-Fourier-feature encoder: `H[d] = cos(w_d · F + b_d)`.
//!
//! This is the encoder used by much of the HD-learning literature that
//! followed RegHD (and by the authors' released code for later systems). It
//! approximates a Gaussian-kernel feature map (Rahimi & Recht, 2007): with
//! `w_d ~ N(0, σ⁻²I)` and `b_d ~ U[0, 2π)`,
//! `E[cos(wᵀx+b)·cos(wᵀy+b)] = ½·exp(−‖x−y‖²/2σ²)` — an explicitly
//! similarity-preserving map. Included here to ablate against the paper's
//! Eq. 1 form ([`crate::NonlinearEncoder`]).

use crate::projection_core::{Kind, ProjectionCore, TrigKnob};
use crate::Encoder;
use hdc::{RealHv, TrigMode};

/// Gaussian random-projection + cosine encoder (random Fourier features).
///
/// # Examples
///
/// ```
/// use encoding::{Encoder, RffEncoder};
///
/// let enc = RffEncoder::new(4, 2048, 1.0, 11);
/// let h = enc.encode(&[0.0, 0.5, -0.5, 1.0]);
/// assert_eq!(h.dim(), 2048);
/// // Components are bounded by the cosine range.
/// assert!(h.max_abs() <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct RffEncoder {
    core: ProjectionCore,
    bandwidth: f32,
    trig: TrigKnob,
}

impl RffEncoder {
    /// Creates an RFF encoder. `bandwidth` is the kernel length-scale σ:
    /// larger values make the encoder smoother (inputs must move further to
    /// decorrelate).
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0`, `dim == 0`, or `bandwidth <= 0`.
    pub fn new(input_dim: usize, dim: usize, bandwidth: f32, seed: u64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        let kind = Kind::Rff {
            bandwidth_bits: bandwidth.to_bits(),
        };
        Self {
            core: ProjectionCore::new(kind, input_dim, dim, seed),
            bandwidth,
            trig: TrigKnob::default(),
        }
    }

    /// The kernel length-scale σ this encoder was built with.
    pub fn bandwidth(&self) -> f32 {
        self.bandwidth
    }

    /// The RFF post-op over the projected values `p`: `cos(p + b)`, through
    /// `libm` or the fast polynomial.
    fn post(&self, mode: TrigMode, vals: &mut [f32]) {
        let phases = self.core.phases();
        match mode {
            TrigMode::Exact => {
                for (v, &b) in vals.iter_mut().zip(phases) {
                    *v = (*v + b).cos();
                }
            }
            // Bit-identical to the scalar `fast_cos(p + b)` at every
            // dispatch level.
            TrigMode::Fast => hdc::simd::cos_phase_post_fast(vals, phases),
        }
    }
}

impl Encoder for RffEncoder {
    fn input_dim(&self) -> usize {
        self.core.input_dim()
    }

    fn dim(&self) -> usize {
        self.core.dim()
    }

    fn encode(&self, features: &[f32]) -> RealHv {
        let mode = self.trig_mode();
        self.core.encode(features, |v| self.post(mode, v))
    }

    fn encode_batch_into(&self, rows: &[Vec<f32>], out: &mut [RealHv], threads: usize) {
        let mode = self.trig_mode();
        self.core
            .encode_batch_into(rows, out, threads, |v| self.post(mode, v));
    }

    fn encode_quantized_into(&self, features: &[f32], out: &mut [f32]) -> bool {
        self.core.project_quantized_into(features, out);
        // Always the fast polynomial cos, whatever the encoder's TrigMode
        // knob says: the quantised tier is approximate by design, and it
        // shares the `TrigMode::Fast` post-op.
        self.post(TrigMode::Fast, out);
        true
    }

    fn trig_mode(&self) -> TrigMode {
        self.trig.get()
    }

    fn set_trig_mode(&self, mode: TrigMode) {
        self.trig.set(mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::similarity::cosine;

    #[test]
    fn deterministic() {
        let a = RffEncoder::new(3, 256, 1.0, 5);
        let b = RffEncoder::new(3, 256, 1.0, 5);
        let x = [0.2, -0.4, 0.9];
        assert_eq!(a.encode(&x), b.encode(&x));
    }

    #[test]
    fn components_bounded_by_one() {
        let enc = RffEncoder::new(4, 512, 1.0, 7);
        let h = enc.encode(&[3.0, -8.0, 0.1, 100.0]);
        assert!(h.max_abs() <= 1.0);
    }

    #[test]
    fn kernel_approximation() {
        // E[h(x)·h(y)]/D ≈ ½·exp(−‖x−y‖²/2σ²): check at a couple of
        // distances with a wide encoder.
        let sigma = 1.5f32;
        let enc = RffEncoder::new(2, 20_000, sigma, 13);
        let x = [0.0f32, 0.0];
        for &d in &[0.5f32, 1.5] {
            let y = [d, 0.0];
            let hx = enc.encode(&x);
            let hy = enc.encode(&y);
            let emp = hx.dot(&hy) / 20_000.0;
            let theory = 0.5 * (-(d * d) / (2.0 * sigma * sigma)).exp();
            assert!(
                (emp - theory).abs() < 0.03,
                "d={d}: empirical {emp} vs theory {theory}"
            );
        }
    }

    #[test]
    fn similarity_decays_with_distance() {
        let enc = RffEncoder::new(5, 4096, 1.0, 3);
        let x = [0.1f32, 0.2, 0.3, 0.4, 0.5];
        let h = enc.encode(&x);
        let mut prev = 1.0f32;
        for eps in [0.05f32, 0.3, 1.0, 3.0] {
            let y: Vec<f32> = x.iter().map(|&v| v + eps).collect();
            let s = cosine(&h, &enc.encode(&y));
            assert!(s < prev + 0.05, "eps={eps}: s={s} prev={prev}");
            prev = s;
        }
    }

    #[test]
    fn bandwidth_controls_smoothness() {
        let x = [0.0f32, 0.0];
        let y = [1.0f32, 1.0];
        let narrow = RffEncoder::new(2, 4096, 0.5, 21);
        let wide = RffEncoder::new(2, 4096, 5.0, 21);
        let s_narrow = cosine(&narrow.encode(&x), &narrow.encode(&y));
        let s_wide = cosine(&wide.encode(&x), &wide.encode(&y));
        assert!(
            s_wide > s_narrow,
            "wider bandwidth should preserve more similarity: {s_wide} vs {s_narrow}"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        RffEncoder::new(2, 16, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "expected 2 features")]
    fn wrong_input_len_panics() {
        RffEncoder::new(2, 16, 1.0, 0).encode(&[1.0]);
    }

    #[test]
    fn accessor() {
        assert_eq!(RffEncoder::new(2, 16, 2.5, 0).bandwidth(), 2.5);
    }

    #[test]
    fn batch_kernel_is_bit_identical_to_scalar_in_both_trig_modes() {
        use hdc::TrigMode;
        let enc = RffEncoder::new(3, 261, 1.3, 41);
        let rows: Vec<Vec<f32>> = (0..6)
            .map(|i| vec![i as f32 * 0.4 - 1.0, (i as f32).sin(), -0.6])
            .collect();
        for mode in [TrigMode::Exact, TrigMode::Fast] {
            enc.set_trig_mode(mode);
            let mut out = vec![RealHv::default(); rows.len()];
            enc.encode_batch_into(&rows, &mut out, 1);
            for (row, got) in rows.iter().zip(&out) {
                let want = enc.encode(row);
                let gb: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "{mode:?}");
            }
        }
        enc.set_trig_mode(TrigMode::Exact);
    }

    #[test]
    fn fast_trig_mode_stays_close_to_exact() {
        use hdc::TrigMode;
        let enc = RffEncoder::new(3, 1024, 1.0, 43);
        let x = [0.7, -1.1, 0.4];
        let exact = enc.encode(&x);
        enc.set_trig_mode(TrigMode::Fast);
        let fast = enc.encode(&x);
        enc.set_trig_mode(TrigMode::Exact);
        for (e, f) in exact.as_slice().iter().zip(fast.as_slice()) {
            assert!(
                (e - f).abs() <= hdc::kernels::FAST_TRIG_MAX_ABS_ERROR,
                "exact={e} fast={f}"
            );
        }
    }
}
