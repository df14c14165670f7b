//! Plain random-projection encoder (no nonlinearity).
//!
//! `H[d] = Σ_k f_k · B_k[d]` — a linear signed projection through random
//! bipolar base hypervectors `B_k ∈ {−1,+1}^D` (the bases of the printed
//! Eq. 1), with the trigonometric nonlinearity removed. The bases are the
//! ±1.0 rows of the shared projection core, so this encoder is that core
//! with the identity post-op. A linear learner over this encoding is
//! equivalent to a linear learner over the raw features, so the gap between
//! this encoder and Eq. 1 in the ablation benches isolates the value of the
//! encoder's nonlinearity (the property the paper credits for RegHD
//! "learning a regression model in an efficient and linear way").

use crate::projection_core::{Kind, ProjectionCore};
use crate::Encoder;
use hdc::RealHv;

/// Linear signed random projection into HD space.
///
/// # Examples
///
/// ```
/// use encoding::{Encoder, ProjectionEncoder};
///
/// let enc = ProjectionEncoder::new(2, 512, 3);
/// // Linearity: encode(a + b) == encode(a) + encode(b).
/// let ab = enc.encode(&[0.3, 0.6]);
/// let a = enc.encode(&[0.3, 0.0]);
/// let b = enc.encode(&[0.0, 0.6]);
/// let sum = a.checked_add(&b)?;
/// for (x, y) in ab.as_slice().iter().zip(sum.as_slice()) {
///     assert!((x - y).abs() < 1e-6);
/// }
/// # Ok::<(), hdc::DimensionMismatchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProjectionEncoder {
    core: ProjectionCore,
}

impl ProjectionEncoder {
    /// Creates a projection encoder with seeded random bipolar bases.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0` or `dim == 0`.
    pub fn new(input_dim: usize, dim: usize, seed: u64) -> Self {
        Self {
            core: ProjectionCore::new(Kind::Projection, input_dim, dim, seed),
        }
    }
}

/// The linear encoder's post-op: the identity.
fn post(_: &mut [f32]) {}

impl Encoder for ProjectionEncoder {
    fn input_dim(&self) -> usize {
        self.core.input_dim()
    }

    fn dim(&self) -> usize {
        self.core.dim()
    }

    fn encode(&self, features: &[f32]) -> RealHv {
        self.core.encode(features, post)
    }

    fn encode_batch_into(&self, rows: &[Vec<f32>], out: &mut [RealHv], threads: usize) {
        self.core.encode_batch_into(rows, out, threads, post);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::similarity::cosine;

    #[test]
    fn linearity() {
        let enc = ProjectionEncoder::new(3, 256, 1);
        let a = [0.5f32, -0.2, 0.8];
        let b = [0.1f32, 0.9, -0.3];
        let sum: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let h_sum = enc.encode(&sum);
        let h_parts = enc.encode(&a).checked_add(&enc.encode(&b)).unwrap();
        for (x, y) in h_sum.as_slice().iter().zip(h_parts.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn preserves_inner_products_in_expectation() {
        // Johnson–Lindenstrauss-style: <enc(x), enc(y)>/D ≈ <x, y>.
        let enc = ProjectionEncoder::new(4, 20_000, 2);
        let x = [1.0f32, 0.5, -0.5, 0.0];
        let y = [0.2f32, -1.0, 0.3, 0.7];
        let raw: f32 = x.iter().zip(&y).map(|(&a, &b)| a * b).sum();
        let emp = enc.encode(&x).dot(&enc.encode(&y)) / 20_000.0;
        assert!((emp - raw).abs() < 0.1, "raw={raw} emp={emp}");
    }

    #[test]
    fn deterministic() {
        let a = ProjectionEncoder::new(2, 64, 9);
        let b = ProjectionEncoder::new(2, 64, 9);
        assert_eq!(a.encode(&[1.0, 2.0]), b.encode(&[1.0, 2.0]));
    }

    #[test]
    fn similarity_decays() {
        let enc = ProjectionEncoder::new(3, 4096, 5);
        let x = [1.0f32, 1.0, 1.0];
        let h = enc.encode(&x);
        let near = enc.encode(&[1.1, 0.9, 1.0]);
        let far = enc.encode(&[-1.0, 2.0, -3.0]);
        assert!(cosine(&h, &near) > cosine(&h, &far));
    }

    #[test]
    #[should_panic(expected = "expected 2 features")]
    fn wrong_len_panics() {
        ProjectionEncoder::new(2, 16, 0).encode(&[0.0; 3]);
    }

    #[test]
    fn batch_kernel_is_bit_identical_to_scalar() {
        use crate::Encoder;
        let enc = ProjectionEncoder::new(4, 263, 19);
        let rows: Vec<Vec<f32>> = (0..7)
            .map(|i| vec![i as f32 * 0.5 - 1.5, (i as f32).sin(), 0.2, -0.9])
            .collect();
        let mut out = vec![RealHv::default(); rows.len()];
        for threads in [1usize, 3] {
            enc.encode_batch_into(&rows, &mut out, threads);
            for (row, got) in rows.iter().zip(&out) {
                let want = enc.encode(row);
                let gb: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "threads={threads}");
            }
        }
    }
}
