//! # encoding — similarity-preserving HD encoders
//!
//! Implements the encoding stage of the RegHD pipeline (paper §2.2): mapping
//! an `n`-dimensional feature vector into a `D`-dimensional hypervector such
//! that inputs that are close in the original space stay close in HD space
//! and unrelated inputs become nearly orthogonal ("the common-sense
//! principle").
//!
//! Five encoders are provided. The first three are one random projection
//! `p = ⟨F, W_d⟩` followed by a per-component post-op, and share one
//! crate-private projection core: the spec-keyed weight, phase and int8
//! tables, the lazily built SIMD packing, and the one-row, batch and int8
//! matvecs. Each encoder's scalar `encode` is the batch matvec on a batch of
//! one followed by the same post-op, so the two paths are bit-identical.
//!
//! * [`NonlinearEncoder`] — RegHD's default, the paper's Eq. 1 map
//!   `H[d] = cos(⟨F, W_d⟩ + b[d]) · sin(⟨F, W_d⟩)` over a Gaussian
//!   projection (see that module's docs for the relation to the printed
//!   per-feature bipolar form, which is representationally degenerate).
//! * [`RffEncoder`] — the widely used random-Fourier-feature variant
//!   `H[d] = cos(w_d·F + b_d)`; kept for ablation against Eq. 1.
//! * [`ProjectionEncoder`] — plain signed random projection (the identity
//!   post-op over ±1 weights); isolates the contribution of the
//!   trigonometric nonlinearity in ablations.
//! * [`IdLevelEncoder`] — the classic ID–level HDC record encoding used by
//!   pre-RegHD classification systems; it is the substrate for the
//!   Baseline-HD comparator (paper ref. \[18\]).
//! * [`TemporalEncoder`] — permutation-binding window encoder turning any
//!   of the above into a sequence/time-series encoder.
//!
//! [`EncoderSpec`] gives every encoder a compact serialisable description
//! (used by `reghd::persist`).
//!
//! All encoders implement the object-safe [`Encoder`] trait and are fully
//! deterministic given a seed.
//!
//! ## Example
//!
//! ```
//! use encoding::{Encoder, NonlinearEncoder};
//!
//! let enc = NonlinearEncoder::new(4, 2048, 7);
//! let h = enc.encode(&[0.1, -0.4, 0.9, 0.0]);
//! assert_eq!(h.dim(), 2048);
//!
//! // Similarity preservation: a nearby input encodes to a similar
//! // hypervector, a far one to a dissimilar one.
//! let near = enc.encode(&[0.12, -0.41, 0.88, 0.01]);
//! let far = enc.encode(&[-3.0, 2.5, -1.7, 4.0]);
//! let sim_near = hdc::similarity::cosine(&h, &near);
//! let sim_far = hdc::similarity::cosine(&h, &far);
//! assert!(sim_near > sim_far);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod id_level;
pub mod nonlinear;
pub mod projection;
mod projection_core;
pub mod rff;
pub mod spec;
pub mod temporal;

pub use id_level::IdLevelEncoder;
pub use nonlinear::NonlinearEncoder;
pub use projection::ProjectionEncoder;
pub use rff::RffEncoder;
pub use spec::EncoderSpec;
pub use temporal::TemporalEncoder;

use hdc::{BinaryHv, RealHv};

pub use hdc::TrigMode;

/// A similarity-preserving map from feature vectors to hypervectors.
///
/// Implementations are deterministic: encoding the same input twice yields
/// exactly the same hypervector. The trait is object-safe so learners can
/// hold `Box<dyn Encoder>`.
pub trait Encoder: Send + Sync {
    /// Number of input features `n` the encoder expects.
    fn input_dim(&self) -> usize;

    /// Hypervector dimensionality `D` this encoder produces.
    fn dim(&self) -> usize;

    /// Encodes a feature vector into a real hypervector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.input_dim()`.
    fn encode(&self, features: &[f32]) -> RealHv;

    /// Encodes into the binary (sign-quantised) form used by the
    /// quantized-prediction modes of §3.2. The default implementation
    /// binarises [`Encoder::encode`]; implementations may override with a
    /// cheaper direct path.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.input_dim()`.
    fn encode_binary(&self, features: &[f32]) -> BinaryHv {
        self.encode(features).binarize()
    }

    /// Encodes a batch of rows, splitting the rows across up to `threads`
    /// scoped threads.
    ///
    /// Delegates to [`Encoder::encode_batch_into`], so encoders with a
    /// blocked-kernel override get it here too. Chunk boundaries never
    /// change per-row arithmetic, so the result is **bit-identical** to
    /// `rows.iter().map(|r| self.encode(r)).collect()` for every thread
    /// count. `threads == 0` means "use available parallelism"; `1` is the
    /// exact old sequential behavior.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from [`Encoder::input_dim`].
    fn encode_batch(&self, rows: &[Vec<f32>], threads: usize) -> Vec<RealHv> {
        let mut out = vec![RealHv::default(); rows.len()];
        self.encode_batch_into(rows, &mut out, threads);
        out
    }

    /// Encodes a batch of rows **into pre-allocated output slots**, reusing
    /// each slot's existing buffer — the zero-allocation entry point of the
    /// serving hot path. Rows are split across up to `threads` scoped
    /// threads ([`hdc::par::chunked_zip_mut`]).
    ///
    /// The default implementation runs the scalar [`Encoder::encode`] per
    /// row; `NonlinearEncoder`, `RffEncoder`, and `ProjectionEncoder`
    /// override it with their shared projection core, whose batch matvec is
    /// the one their scalar `encode` runs on a batch of one, followed by the
    /// same post-op. So every implementation of this method yields results
    /// bit-identical to `encode` at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `out` disagree in length or any row's length
    /// differs from [`Encoder::input_dim`].
    fn encode_batch_into(&self, rows: &[Vec<f32>], out: &mut [RealHv], threads: usize) {
        let threads = hdc::par::resolve_threads(threads);
        hdc::par::chunked_zip_mut(rows, out, threads, |part, out_part| {
            for (row, slot) in part.iter().zip(out_part.iter_mut()) {
                *slot = self.encode(row);
            }
        });
    }

    /// Encodes one row through the **int8 quantised path** (§3.2): the
    /// projection matvec runs in integer arithmetic
    /// ([`hdc::quant::QuantizedWeights`]) and any trigonometric stage uses
    /// the fast polynomial forms unconditionally. Returns `false` (leaving
    /// `out` untouched) when the encoder has no quantised path — callers
    /// fall back to [`Encoder::encode`] and binarise that instead.
    ///
    /// The output approximates [`Encoder::encode`]; the bit-packed
    /// inference tier consumes only its signs plus one amplitude statistic,
    /// so implementations trade exactness for integer throughput.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.input_dim()` or
    /// `out.len() != self.dim()`.
    fn encode_quantized_into(&self, _features: &[f32], _out: &mut [f32]) -> bool {
        false
    }

    /// How this encoder evaluates `sin`/`cos` (see [`TrigMode`]). Encoders
    /// without a trigonometric stage always report
    /// [`TrigMode::Exact`].
    fn trig_mode(&self) -> TrigMode {
        TrigMode::Exact
    }

    /// Switches the trig evaluation mode. The knob is atomic (usable
    /// through `&self` on a shared encoder, like the thread knobs). The
    /// default implementation is a no-op for encoders without a
    /// trigonometric stage.
    fn set_trig_mode(&self, _mode: TrigMode) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that flip the process-wide SIMD dispatch
    /// level, so one test's flip cannot land between another's flip and
    /// its check.
    pub(crate) static SIMD_LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn encoder_is_object_safe() {
        let enc: Box<dyn Encoder> = Box::new(NonlinearEncoder::new(3, 256, 1));
        assert_eq!(enc.input_dim(), 3);
        assert_eq!(enc.dim(), 256);
        let h = enc.encode(&[0.0, 1.0, -1.0]);
        assert_eq!(h.dim(), 256);
    }

    #[test]
    fn encode_batch_is_bit_identical_across_thread_counts() {
        let enc = NonlinearEncoder::new(3, 512, 9);
        let rows: Vec<Vec<f32>> = (0..37)
            .map(|i| vec![i as f32 * 0.1, (i as f32).sin(), -0.5 + i as f32 * 0.02])
            .collect();
        let seq: Vec<_> = rows.iter().map(|r| enc.encode(r)).collect();
        for threads in [0usize, 1, 2, 4, 8] {
            let par = enc.encode_batch(&rows, threads);
            assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(&seq) {
                let ab: Vec<u32> = a.as_slice().iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb, "threads={threads}");
            }
        }
    }

    #[test]
    fn encode_batch_into_reuses_buffers_and_matches_encode() {
        let enc = NonlinearEncoder::new(3, 257, 21);
        let rows: Vec<Vec<f32>> = (0..9)
            .map(|i| vec![i as f32 * 0.2, -1.0 + i as f32 * 0.1, 0.5])
            .collect();
        let mut out = vec![RealHv::zeros(257); rows.len()];
        let ptrs: Vec<*const f32> = out.iter().map(|o| o.as_slice().as_ptr()).collect();
        for threads in [0usize, 1, 2, 4] {
            enc.encode_batch_into(&rows, &mut out, threads);
            for (row, got) in rows.iter().zip(&out) {
                let want = enc.encode(row);
                let gb: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "threads={threads}");
            }
        }
        // Pre-sized slots keep their allocations across calls.
        let now: Vec<*const f32> = out.iter().map(|o| o.as_slice().as_ptr()).collect();
        assert_eq!(ptrs, now, "encode_batch_into must reuse the output buffers");
    }

    #[test]
    fn trig_mode_knob_defaults_to_exact_and_is_object_safe() {
        let enc: Box<dyn Encoder> = Box::new(NonlinearEncoder::new(2, 64, 3));
        assert_eq!(enc.trig_mode(), TrigMode::Exact);
        enc.set_trig_mode(TrigMode::Fast);
        assert_eq!(enc.trig_mode(), TrigMode::Fast);
        enc.set_trig_mode(TrigMode::Exact);
        assert_eq!(enc.trig_mode(), TrigMode::Exact);
        // An encoder without a trig stage ignores the knob.
        let proj: Box<dyn Encoder> = Box::new(ProjectionEncoder::new(2, 64, 3));
        proj.set_trig_mode(TrigMode::Fast);
        assert_eq!(proj.trig_mode(), TrigMode::Exact);
    }
}
