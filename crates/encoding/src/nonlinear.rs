//! RegHD's similarity-preserving nonlinear encoder (paper §2.2, Eq. 1).
//!
//! For an input `F = {f_1, …, f_n}` the encoded hypervector is
//!
//! ```text
//! H[d] = cos(⟨F, W_d⟩ + b[d]) · sin(⟨F, W_d⟩)
//! ```
//!
//! where `W_d` is a random Gaussian projection row and `b` a random phase
//! hypervector drawn uniformly from `[0, 2π)`.
//!
//! ### Relation to the printed Eq. 1
//!
//! The paper prints the encoder as a per-feature sum
//! `Σ_k cos(f_k·B_k[d] + b[d])·sin(f_k·B_k[d])` over *bipolar* base
//! hypervectors `B_k ∈ {−1,+1}^D`. Taken literally, that form is
//! representationally degenerate: because `B_k[d] = ±1`, every component
//! sees the same unit frequency, so the span of the map collapses to
//! `{sin(f_k), cos(f_k)}` per feature — it cannot fit even a linear target
//! accurately. The authors' released implementations of this encoder
//! (e.g. the RegHD model in `torchhd`) use the Gaussian-projection form
//! above, which is what we implement; the literal printed form is available
//! in the ablation suite through [`crate::ProjectionEncoder`] composition
//! and is discussed in `DESIGN.md`.
//!
//! The product expands to `½·sin(2p + b) − ½·sin(b)` with `p = ⟨F, W_d⟩`:
//! a phase-shifted random Fourier feature at twice the projection frequency
//! plus an input-independent bias. The RFF part makes the map
//! similarity-preserving (§2.2's common-sense principle); the bias is an
//! artefact that downstream learners remove by mean-centring (see
//! `reghd::RegHdConfig::center_encodings`).

use crate::projection_core::{Kind, ProjectionCore, TrigKnob};
use crate::Encoder;
use hdc::{RealHv, TrigMode};

/// RegHD's default encoder: Gaussian projection through the
/// `cos(p + b)·sin(p)` nonlinearity.
///
/// Inputs are assumed standardised (zero mean, unit variance per feature);
/// the projection variance is `1/n` so the projected scalar `p` has unit
/// variance regardless of the feature count.
///
/// The projection and every table derived from it are a pure function of
/// `(input_dim, dim, seed)`, so all live encoders of one spec share a
/// single copy (an item memory generated once, not per model): building a
/// second encoder of a live spec costs a map lookup instead of
/// `dim × input_dim` Gaussian draws. Only the trig knob is per encoder.
///
/// # Examples
///
/// ```
/// use encoding::{Encoder, NonlinearEncoder};
///
/// let enc = NonlinearEncoder::new(3, 1024, 42);
/// let a = enc.encode(&[0.5, 0.2, -0.1]);
/// let b = enc.encode(&[0.5, 0.2, -0.1]);
/// assert_eq!(a, b); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct NonlinearEncoder {
    core: ProjectionCore,
    trig: TrigKnob,
}

impl NonlinearEncoder {
    /// Creates an encoder for `input_dim` features producing `dim`-wide
    /// hypervectors, with all randomness derived from `seed`. Shares the
    /// tables of any live encoder of the same spec.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0` or `dim == 0`.
    pub fn new(input_dim: usize, dim: usize, seed: u64) -> Self {
        Self {
            core: ProjectionCore::new(Kind::Nonlinear, input_dim, dim, seed),
            trig: TrigKnob::default(),
        }
    }

    /// How many live encoders (clones included) share the tables of the
    /// spec `(input_dim, dim, seed)`; `0` once the last one is dropped and
    /// its tables are freed.
    pub fn table_holders(input_dim: usize, dim: usize, seed: u64) -> usize {
        ProjectionCore::holders(Kind::Nonlinear, input_dim, dim, seed)
    }

    /// The random phase hypervector `b`.
    pub fn phases(&self) -> &[f32] {
        self.core.phases()
    }

    /// The projection row `W_d` for output component `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= dim()`.
    pub fn projection_row(&self, d: usize) -> &[f32] {
        let (n, dim) = (self.core.input_dim(), self.core.dim());
        assert!(d < dim, "component index {d} out of range {dim}");
        &self.core.weights()[d * n..(d + 1) * n]
    }

    /// Eq. 1's post-op over the projected values `p`:
    /// `cos(p + b)·sin(p)`, through `libm` or the fast polynomial.
    fn post(&self, mode: TrigMode, vals: &mut [f32]) {
        let phases = self.core.phases();
        match mode {
            TrigMode::Exact => {
                for (v, &b) in vals.iter_mut().zip(phases) {
                    let p = *v;
                    *v = (p + b).cos() * p.sin();
                }
            }
            // Bit-identical to the scalar `fast_cos(p + b)·fast_sin(p)` at
            // every dispatch level.
            TrigMode::Fast => hdc::simd::nonlinear_post_fast(vals, phases),
        }
    }
}

impl Encoder for NonlinearEncoder {
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
        // The quantised tier is approximate by design, so it always takes
        // the fast polynomial trig regardless of the encoder's TrigMode —
        // the knob continues to govern only the full-precision paths. The
        // product-to-sum form (module docs) plus the precomputed bias table
        // costs one `fast_sin` per component instead of a sin·cos pair.
        hdc::simd::nonlinear_post_quant(out, self.core.phases(), self.core.half_sin_phases());
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
    use crate::projection_core::{table_cache, MIN_PRUNE_LEN};
    use hdc::rng::HdRng;
    use hdc::simd::{PackedProjection, SimdLevel};
    use hdc::similarity::cosine;
    use std::sync::{Arc, PoisonError};

    #[test]
    fn deterministic_given_seed() {
        let a = NonlinearEncoder::new(4, 512, 9);
        let b = NonlinearEncoder::new(4, 512, 9);
        let x = [0.1, 0.7, -0.3, 0.0];
        assert_eq!(a.encode(&x), b.encode(&x));
    }

    #[test]
    fn different_seeds_differ() {
        let a = NonlinearEncoder::new(4, 512, 1);
        let b = NonlinearEncoder::new(4, 512, 2);
        let x = [0.1, 0.7, -0.3, 0.0];
        assert_ne!(a.encode(&x), b.encode(&x));
    }

    #[test]
    fn similarity_preservation() {
        // The common-sense principle of §2.2: closer inputs → more similar
        // hypervectors, monotone in input distance.
        let enc = NonlinearEncoder::new(6, 4096, 3);
        let x0 = [0.2, -0.1, 0.5, 0.8, -0.6, 0.3];
        let h0 = enc.encode(&x0);
        let mut prev_sim = 1.0f32;
        for eps in [0.01f32, 0.1, 0.5, 2.0] {
            let xe: Vec<f32> = x0.iter().map(|&v| v + eps).collect();
            let sim = cosine(&h0, &enc.encode(&xe));
            assert!(
                sim < prev_sim + 0.02,
                "similarity should decay with distance: eps={eps} sim={sim} prev={prev_sim}"
            );
            prev_sim = sim;
        }
        // Tiny perturbation stays very similar.
        let near: Vec<f32> = x0.iter().map(|&v| v + 0.01).collect();
        assert!(cosine(&h0, &enc.encode(&near)) > 0.95);
    }

    #[test]
    fn distant_inputs_decorrelate_relative_to_near() {
        // The product expands to ½·sin(2p+b) − ½·sin(b): the second term is
        // a constant per-component bias shared by every encoding, so two
        // unrelated inputs retain a baseline similarity rather than 0. What
        // matters for learning is the *relative* decay, asserted here.
        let enc = NonlinearEncoder::new(8, 4096, 11);
        let mut rng = HdRng::seed_from(99);
        let a: Vec<f32> = (0..8).map(|_| rng.next_gaussian() as f32 * 3.0).collect();
        let b: Vec<f32> = (0..8).map(|_| rng.next_gaussian() as f32 * 3.0).collect();
        let near: Vec<f32> = a.iter().map(|&v| v + 0.02).collect();
        let ha = enc.encode(&a);
        let sim_far = cosine(&ha, &enc.encode(&b));
        let sim_near = cosine(&ha, &enc.encode(&near));
        assert!(sim_far < 0.9, "sim_far = {sim_far}");
        assert!(sim_near > sim_far + 0.05, "near={sim_near} far={sim_far}");
    }

    #[test]
    fn zero_input_encodes_to_zero() {
        // With p = 0: sin(0) = 0, so every component vanishes — a
        // structural property of the cos·sin form.
        let enc = NonlinearEncoder::new(3, 256, 4);
        let h = enc.encode(&[0.0, 0.0, 0.0]);
        assert!(h.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn output_components_bounded_by_one() {
        let enc = NonlinearEncoder::new(5, 512, 8);
        let h = enc.encode(&[10.0, -20.0, 3.0, 0.5, 100.0]);
        assert!(h.max_abs() <= 1.0 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "expected 3 features")]
    fn wrong_feature_count_panics() {
        NonlinearEncoder::new(3, 64, 0).encode(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "input_dim must be nonzero")]
    fn zero_input_dim_panics() {
        NonlinearEncoder::new(0, 64, 0);
    }

    #[test]
    #[should_panic(expected = "dim must be nonzero")]
    fn zero_dim_panics() {
        NonlinearEncoder::new(3, 0, 0);
    }

    #[test]
    fn accessors_expose_structure() {
        let enc = NonlinearEncoder::new(3, 128, 0);
        assert_eq!(enc.projection_row(0).len(), 3);
        assert_eq!(enc.phases().len(), 128);
        assert!(enc
            .phases()
            .iter()
            .all(|&p| (0.0..std::f32::consts::TAU + 1e-4).contains(&p)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn projection_row_out_of_range_panics() {
        NonlinearEncoder::new(3, 16, 0).projection_row(16);
    }

    #[test]
    fn matches_reference_formula() {
        // Independent scalar implementation of the encoder map.
        let enc = NonlinearEncoder::new(2, 16, 123);
        let x = [0.4f32, -0.9];
        let h = enc.encode(&x);
        for d in 0..16 {
            let row = enc.projection_row(d);
            let p = row[0] * x[0] + row[1] * x[1];
            let expect = (p + enc.phases()[d]).cos() * p.sin();
            assert!((h.as_slice()[d] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn projection_variance_is_feature_count_invariant() {
        // The 1/sqrt(n) weight scale keeps ⟨F, W_d⟩ at unit variance for
        // standardised inputs regardless of n.
        for n in [2usize, 8, 32] {
            let enc = NonlinearEncoder::new(n, 4096, 7);
            let mut rng = HdRng::seed_from(n as u64);
            let x: Vec<f32> = (0..n).map(|_| rng.next_gaussian() as f32).collect();
            let var: f64 = (0..4096)
                .map(|d| {
                    let p: f32 = enc
                        .projection_row(d)
                        .iter()
                        .zip(&x)
                        .map(|(&w, &f)| w * f)
                        .sum();
                    (p as f64) * (p as f64)
                })
                .sum::<f64>()
                / 4096.0;
            assert!(
                (0.2..5.0).contains(&var),
                "n={n}: projected variance {var} far from 1"
            );
        }
    }

    #[test]
    fn binary_encoding_is_sign_of_real() {
        let enc = NonlinearEncoder::new(4, 256, 17);
        let x = [0.3, 1.0, -0.7, 0.2];
        let real = enc.encode(&x);
        let bin = enc.encode_binary(&x);
        for d in 0..256 {
            assert_eq!(bin.get(d), real.as_slice()[d] > 0.0);
        }
    }

    #[test]
    fn batch_kernel_is_bit_identical_to_scalar_in_both_trig_modes() {
        let enc = NonlinearEncoder::new(3, 259, 31);
        let rows: Vec<Vec<f32>> = (0..7)
            .map(|i| vec![i as f32 * 0.3 - 1.0, (i as f32).cos(), 0.8])
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
        let enc = NonlinearEncoder::new(4, 1024, 37);
        let x = [1.3, -0.8, 2.2, 0.1];
        let exact = enc.encode(&x);
        enc.set_trig_mode(TrigMode::Fast);
        let fast = enc.encode(&x);
        enc.set_trig_mode(TrigMode::Exact);
        // Product of two approximations, each within the documented bound
        // and magnitude ≤ 1: |ab − a'b'| ≤ |a−a'| + |b−b'| + ε².
        let tol = 2.5 * hdc::kernels::FAST_TRIG_MAX_ABS_ERROR;
        for (e, f) in exact.as_slice().iter().zip(fast.as_slice()) {
            assert!((e - f).abs() <= tol, "exact={e} fast={f}");
        }
    }

    fn bits(hv: &RealHv) -> Vec<u32> {
        hv.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn encoders_of_one_spec_share_tables_and_other_seeds_do_not() {
        let a = NonlinearEncoder::new(3, 256, 0x5EED_0001);
        let b = NonlinearEncoder::new(3, 256, 0x5EED_0001);
        let other = NonlinearEncoder::new(3, 256, 0x5EED_0002);
        assert!(Arc::ptr_eq(&a.core.tables, &b.core.tables));
        assert!(Arc::ptr_eq(&a.core.tables, &a.clone().core.tables));
        assert!(!Arc::ptr_eq(&a.core.tables, &other.core.tables));
        assert_eq!(NonlinearEncoder::table_holders(3, 256, 0x5EED_0001), 2);
        assert_eq!(NonlinearEncoder::table_holders(3, 256, 0x5EED_0002), 1);
    }

    #[test]
    fn dropping_every_holder_frees_the_tables() {
        let a = NonlinearEncoder::new(2, 128, 0x5EED_0003);
        let b = a.clone();
        let weak = Arc::downgrade(&a.core.tables);
        assert_eq!(NonlinearEncoder::table_holders(2, 128, 0x5EED_0003), 2);
        drop(a);
        assert!(weak.upgrade().is_some(), "a live clone keeps the tables");
        drop(b);
        assert!(
            weak.upgrade().is_none(),
            "tables outlived their last holder"
        );
        assert_eq!(NonlinearEncoder::table_holders(2, 128, 0x5EED_0003), 0);
    }

    #[test]
    fn trig_mode_stays_per_encoder_when_tables_are_shared() {
        let spec = (4, 300, 0x5EED_0004);
        let fast = NonlinearEncoder::new(spec.0, spec.1, spec.2);
        let sibling = NonlinearEncoder::new(spec.0, spec.1, spec.2);
        fast.set_trig_mode(TrigMode::Fast);
        let fresh = NonlinearEncoder::new(spec.0, spec.1, spec.2);
        assert_eq!(sibling.trig_mode(), TrigMode::Exact);
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| vec![0.3 * i as f32, -0.7, 1.1, (i as f32).sin()])
            .collect();
        let mut got = vec![RealHv::default(); rows.len()];
        let mut want = vec![RealHv::default(); rows.len()];
        sibling.encode_batch_into(&rows, &mut got, 1);
        fresh.encode_batch_into(&rows, &mut want, 1);
        for (row, (g, w)) in rows.iter().zip(got.iter().zip(&want)) {
            assert_eq!(bits(g), bits(w));
            assert_eq!(bits(&sibling.encode(row)), bits(&fresh.encode(row)));
        }
        // The fast encoder really is in the other mode.
        assert_ne!(bits(&fast.encode(&rows[1])), bits(&fresh.encode(&rows[1])));
    }

    #[test]
    fn packing_first_touched_under_scalar_still_packs_at_the_detected_level() {
        let detected = hdc::simd::detect();
        if detected == SimdLevel::Scalar {
            return; // no SIMD level on this CPU: nothing to pack
        }
        let _guard = crate::tests::SIMD_LEVEL_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let prev = hdc::simd::active();
        let enc = NonlinearEncoder::new(5, 77, 0x5EED_0005);
        let rows: Vec<Vec<f32>> = (0..3).map(|i| vec![0.1 * i as f32; 5]).collect();
        let mut scalar = vec![RealHv::default(); rows.len()];
        let mut packed = vec![RealHv::default(); rows.len()];
        hdc::simd::set_level(SimdLevel::Scalar).unwrap();
        enc.encode_batch_into(&rows, &mut scalar, 1);
        hdc::simd::set_level(detected).unwrap();
        enc.encode_batch_into(&rows, &mut packed, 1);
        let level = enc.core.packed_for_active().map(PackedProjection::level);
        hdc::simd::set_level(prev).unwrap();
        assert_eq!(level, Some(detected));
        for (s, p) in scalar.iter().zip(&packed) {
            assert_eq!(bits(s), bits(p));
        }
    }

    #[test]
    fn churning_distinct_seeds_keeps_the_cache_bounded() {
        for seed in 0..1000u64 {
            let enc = NonlinearEncoder::new(2, 16, 0x5EED_1000 + seed);
            assert_eq!(enc.dim(), 16);
        }
        // Entries stay within twice the live specs seen at a prune (or the
        // floor); without pruning this map would hold all 1000 seeds.
        let entries = table_cache().map.len();
        assert!(
            entries <= 2 * MIN_PRUNE_LEN,
            "cache holds {entries} entries"
        );
    }

    #[test]
    fn clone_carries_the_trig_mode() {
        let enc = NonlinearEncoder::new(2, 64, 1);
        enc.set_trig_mode(TrigMode::Fast);
        let cloned = enc.clone();
        assert_eq!(cloned.trig_mode(), TrigMode::Fast);
        let x = [0.2, -0.4];
        assert_eq!(cloned.encode(&x), enc.encode(&x));
    }
}
