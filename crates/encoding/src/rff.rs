//! Random-Fourier-feature encoder: `H[d] = cos(w_d · F + b_d)`.
//!
//! This is the encoder used by much of the HD-learning literature that
//! followed RegHD (and by the authors' released code for later systems). It
//! approximates a Gaussian-kernel feature map (Rahimi & Recht, 2007): with
//! `w_d ~ N(0, σ⁻²I)` and `b_d ~ U[0, 2π)`,
//! `E[cos(wᵀx+b)·cos(wᵀy+b)] = ½·exp(−‖x−y‖²/2σ²)` — an explicitly
//! similarity-preserving map. Included here to ablate against the paper's
//! Eq. 1 form ([`crate::NonlinearEncoder`]).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::Encoder;
use hdc::kernels::{fast_cos, project_blocked};
use hdc::quant::{quantize_i8, QuantizedWeights};
use hdc::rng::HdRng;
use hdc::simd::{PackedProjection, SimdLevel};
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
#[derive(Debug)]
pub struct RffEncoder {
    /// Row-major projection matrix, `dim` rows of `input_dim` weights.
    weights: Vec<f32>,
    phases: Vec<f32>,
    input_dim: usize,
    dim: usize,
    bandwidth: f32,
    /// Trig evaluation mode ([`TrigMode`] as a byte, atomic knob).
    trig: AtomicU8,
    /// §3.2 int8 copy of the projection matrix, backing
    /// [`Encoder::encode_quantized_into`].
    quant: QuantizedWeights,
    /// Lane-major weight packing, built at the first batch encode under a
    /// SIMD level so the per-call transpose cost disappears from the
    /// serving path. It is never built while the active level is scalar,
    /// so an encoder first used under `scalar` still packs once the
    /// detected level is activated — the only SIMD level a process can run.
    packed: OnceLock<Option<PackedProjection>>,
}

impl Clone for RffEncoder {
    fn clone(&self) -> Self {
        Self {
            weights: self.weights.clone(),
            phases: self.phases.clone(),
            input_dim: self.input_dim,
            dim: self.dim,
            bandwidth: self.bandwidth,
            trig: AtomicU8::new(self.trig.load(Ordering::Relaxed)),
            quant: self.quant.clone(),
            packed: OnceLock::new(),
        }
    }
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
        assert!(input_dim > 0, "input_dim must be nonzero");
        assert!(dim > 0, "dim must be nonzero");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        let mut rng = HdRng::seed_from(seed);
        let weights: Vec<f32> = (0..dim * input_dim)
            .map(|_| (rng.next_gaussian() as f32) / bandwidth)
            .collect();
        let phases = (0..dim)
            .map(|_| (rng.next_f64() * std::f64::consts::TAU) as f32)
            .collect();
        let quant = QuantizedWeights::from_f32(&weights, input_dim, dim);
        Self {
            weights,
            phases,
            input_dim,
            dim,
            bandwidth,
            trig: AtomicU8::new(TrigMode::Exact.as_u8()),
            quant,
            packed: OnceLock::new(),
        }
    }

    /// The kernel length-scale σ this encoder was built with.
    pub fn bandwidth(&self) -> f32 {
        self.bandwidth
    }

    /// The SIMD weight packing for the active dispatch level, or `None`
    /// when the active level is scalar.
    fn packed_for_active(&self) -> Option<&PackedProjection> {
        let level = hdc::simd::active();
        if level == SimdLevel::Scalar {
            return None;
        }
        self.packed
            .get_or_init(|| {
                PackedProjection::for_level(level, &self.weights, self.input_dim, self.dim)
            })
            .as_ref()
            .filter(|p| p.level() == level)
    }
}

impl Encoder for RffEncoder {
    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn encode(&self, features: &[f32]) -> RealHv {
        assert_eq!(
            features.len(),
            self.input_dim,
            "encode: expected {} features, got {}",
            self.input_dim,
            features.len()
        );
        let fast = self.trig_mode() == TrigMode::Fast;
        let mut out = Vec::with_capacity(self.dim);
        for d in 0..self.dim {
            let row = &self.weights[d * self.input_dim..(d + 1) * self.input_dim];
            let proj: f32 = row.iter().zip(features).map(|(&w, &f)| w * f).sum();
            out.push(if fast {
                fast_cos(proj + self.phases[d])
            } else {
                (proj + self.phases[d]).cos()
            });
        }
        RealHv::from_vec(out)
    }

    fn encode_batch_into(&self, rows: &[Vec<f32>], out: &mut [RealHv], threads: usize) {
        let threads = hdc::par::resolve_threads(threads);
        let mode = self.trig_mode();
        hdc::par::chunked_zip_mut(rows, out, threads, |part, out_part| {
            let row_refs: Vec<&[f32]> = part.iter().map(Vec::as_slice).collect();
            match self.packed_for_active() {
                Some(packed) => packed.project_into(&row_refs, out_part),
                None => {
                    project_blocked(&self.weights, self.input_dim, self.dim, &row_refs, out_part)
                }
            }
            // Same post-op expression as the scalar `encode` loop, so the
            // blocked path stays bit-identical to it (the fast arm's SIMD
            // lanes are bit-identical to scalar `fast_cos` by construction).
            for hv in out_part.iter_mut() {
                match mode {
                    TrigMode::Exact => {
                        for (v, &b) in hv.as_mut_slice().iter_mut().zip(&self.phases) {
                            *v = (*v + b).cos();
                        }
                    }
                    TrigMode::Fast => {
                        hdc::simd::cos_phase_post_fast(hv.as_mut_slice(), &self.phases);
                    }
                }
            }
        });
    }

    fn encode_quantized_into(&self, features: &[f32], out: &mut [f32]) -> bool {
        assert_eq!(
            features.len(),
            self.input_dim,
            "encode: expected {} features, got {}",
            self.input_dim,
            features.len()
        );
        assert_eq!(out.len(), self.dim, "output width must match dim");
        let mut row_q = Vec::with_capacity(self.input_dim);
        let row_scale = quantize_i8(features, &mut row_q);
        self.quant.project_row_into(&row_q, row_scale, out);
        // Always the fast polynomial cos, whatever the encoder's TrigMode
        // knob says: the quantised tier is approximate by design, and it
        // shares the `TrigMode::Fast` post-op.
        hdc::simd::cos_phase_post_fast(out, &self.phases);
        true
    }

    fn trig_mode(&self) -> TrigMode {
        TrigMode::from_u8(self.trig.load(Ordering::Relaxed))
    }

    fn set_trig_mode(&self, mode: TrigMode) {
        self.trig.store(mode.as_u8(), Ordering::Relaxed);
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
    fn packing_first_touched_under_scalar_still_packs_at_the_detected_level() {
        let detected = hdc::simd::detect();
        if detected == SimdLevel::Scalar {
            return; // no SIMD level on this CPU: nothing to pack
        }
        let _guard = crate::tests::SIMD_LEVEL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = hdc::simd::active();
        let enc = RffEncoder::new(5, 77, 1.2, 0x5EED_0006);
        let rows: Vec<Vec<f32>> = (0..3).map(|i| vec![0.1 * i as f32; 5]).collect();
        let mut scalar = vec![RealHv::default(); rows.len()];
        let mut packed = vec![RealHv::default(); rows.len()];
        hdc::simd::set_level(SimdLevel::Scalar).unwrap();
        enc.encode_batch_into(&rows, &mut scalar, 1);
        hdc::simd::set_level(detected).unwrap();
        enc.encode_batch_into(&rows, &mut packed, 1);
        let level = enc.packed_for_active().map(PackedProjection::level);
        hdc::simd::set_level(prev).unwrap();
        assert_eq!(level, Some(detected));
        let bits =
            |hv: &RealHv| -> Vec<u32> { hv.as_slice().iter().map(|v| v.to_bits()).collect() };
        for (s, p) in scalar.iter().zip(&packed) {
            assert_eq!(bits(s), bits(p));
        }
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
