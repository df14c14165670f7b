//! Cache-blocked batch kernels for the encode hot path, plus opt-in fast
//! trigonometry.
//!
//! # Blocked projection
//!
//! The projection encoders (Eq. 1, random Fourier features, the linear
//! projection) are one `D × n` matvec per row (`P = X·Wᵀ` over a batch)
//! followed by a per-component post-op, and this is their one matvec
//! family: [`project_blocked`] is the portable reference, and
//! [`crate::simd::PackedProjection`] runs the same arithmetic on SIMD lanes.
//! A naive per-row loop walks one output dimension at a time with a single
//! `f32` accumulator, which (a) re-streams the whole weight matrix from
//! memory for every row and (b) serialises the adds into one latency-bound
//! dependency chain. [`project_blocked`] fixes both without changing a
//! single result bit:
//!
//! * **tiling** — output dimensions are processed in tiles of [`DIM_TILE`]
//!   and rows in tiles of [`ROW_TILE`], so one weight tile is loaded once
//!   and reused across every row in the batch instead of being re-streamed
//!   per row;
//! * **multi-accumulator unrolling** — inside a tile, `ROW_TILE × 2`
//!   independent `f32` accumulators run side by side, giving the CPU
//!   instruction-level parallelism (and LLVM a clean autovectorisation
//!   target) where the scalar loop had a single serial add chain.
//!
//! **Bit-exactness.** Every accumulator sums its `k` (feature) terms in
//! ascending order, starting from `+0.0f32`: the per-row fold
//! `acc = acc + w[k]·x[k]`. The unroll only interleaves *independent*
//! accumulators (different rows / output dims); it never re-associates the
//! reduction over `k`, and Rust never contracts `mul + add` into a
//! fused-multiply-add. So the kernel output is bit-identical to that fold
//! for every tile size, batch size, and row/dim remainder — which is what
//! lets the row-parallel equivalence guarantees of `hdc::par` carry over
//! unchanged. The `+0.0` start matters on rows whose products are all
//! signed zeros: `Iterator::sum::<f32>` may start from `-0.0` and then
//! returns `-0.0` where the fold returns `+0.0`.
//!
//! # Fast trigonometry
//!
//! [`TrigMode::Fast`] swaps `libm` sin/cos for a polynomial evaluation
//! ([`fast_sin`]/[`fast_cos`]) after an all-f32 Cody–Waite range
//! reduction, with absolute error bounded by [`FAST_TRIG_MAX_ABS_ERROR`].
//! It is the only approximate trig in the workspace: the int8 inference
//! tier runs the same pair. It is strictly opt-in for the full-precision
//! paths: the default [`TrigMode::Exact`] keeps the bit-exact `libm` path,
//! and anything that must replay bit-exactly (training, canary replay)
//! always runs `Exact`.

use crate::dense::RealHv;

/// Rows processed together in one tile: each weight value loaded in the
/// inner loop is reused across this many batch rows.
pub const ROW_TILE: usize = 4;

/// Output dimensions per tile: one tile of weight rows (`DIM_TILE × n`
/// floats) stays cache-hot while every row tile of the batch streams
/// through it.
pub const DIM_TILE: usize = 128;

/// How the encoders evaluate `sin`/`cos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrigMode {
    /// `libm` sin/cos — bit-exact, the default everywhere.
    #[default]
    Exact,
    /// Polynomial sin/cos ([`fast_sin`]/[`fast_cos`]) with absolute error
    /// bounded by [`FAST_TRIG_MAX_ABS_ERROR`]. Opt-in, inference-only.
    Fast,
}

impl TrigMode {
    /// Encodes the mode as a byte for storage in an `AtomicU8` knob.
    pub fn as_u8(self) -> u8 {
        match self {
            TrigMode::Exact => 0,
            TrigMode::Fast => 1,
        }
    }

    /// Decodes a byte written by [`TrigMode::as_u8`] (unknown values fall
    /// back to `Exact`, the safe default).
    pub fn from_u8(v: u8) -> Self {
        if v == 1 {
            TrigMode::Fast
        } else {
            TrigMode::Exact
        }
    }
}

/// Absolute error bound for [`fast_sin`] and [`fast_cos`] versus the `f64`
/// reference, valid for arguments `|x| ≤ 1e4` (the encoders' projections
/// plus a phase in `[0, 2π)` sit far inside that). Asserted over a dense
/// argument sweep in this module's tests and in the repo-level
/// `kernel_equivalence` suite.
pub const FAST_TRIG_MAX_ABS_ERROR: f32 = 1.5e-6;

// Cody–Waite split of π/2 for the all-f32 range reduction: the three pieces
// sum to π/2. `PI2_A` has 8 significant bits and `PI2_B` 11, so `k · PI2_A`
// and `k · PI2_B` are exact for `|k| < 2¹³`, i.e. `|x| ≲ 1.28e4`, which
// covers the documented domain. Shared with the SIMD backends so every lane
// runs the identical op sequence.
pub(crate) const PI2_A: f32 = 1.570_312_5;
// The written digits are the exact decimal values of the f32 pieces; the
// truncations clippy suggests round to the same bits but hide the split.
#[allow(clippy::excessive_precision)]
pub(crate) const PI2_B: f32 = 4.837_512_97e-4;
#[allow(clippy::excessive_precision)]
pub(crate) const PI2_C: f32 = 7.549_789_95e-8;

/// Range reduction: writes `x = k·π/2 + r` with `r` in (about)
/// `[−π/4, π/4]` and returns `(k mod 4, r)`. All f32: `k` is rounded
/// ties-to-even so the SIMD lanes (`_mm256_round_ps` / `vrndnq_f32`) match
/// bit-for-bit, and `r` is peeled off in three Cody–Waite steps.
#[inline]
fn reduce(x: f32) -> (i32, f32) {
    let k = (x * std::f32::consts::FRAC_2_PI).round_ties_even();
    let r = ((x - k * PI2_A) - k * PI2_B) - k * PI2_C;
    // `as` saturates (NaN → 0); `k` is integral so in-range casts are exact
    // and the quadrant agrees with the SIMD lanes' `cvtps` conversions. The
    // NaN remainder propagates. `& 3` is `rem_euclid(4)` on two's
    // complement.
    ((k as i32) & 3, r)
}

/// Taylor sine on the reduced range `[−π/4, π/4]`.
#[inline]
fn sin_poly(r: f32) -> f32 {
    let r2 = r * r;
    r * (1.0 + r2 * (-1.0 / 6.0 + r2 * (1.0 / 120.0 + r2 * (-1.0 / 5040.0))))
}

/// Taylor cosine on the reduced range `[−π/4, π/4]`.
#[inline]
fn cos_poly(r: f32) -> f32 {
    let r2 = r * r;
    1.0 + r2 * (-1.0 / 2.0 + r2 * (1.0 / 24.0 + r2 * (-1.0 / 720.0 + r2 * (1.0 / 40320.0))))
}

/// Polynomial `sin(x)` with absolute error ≤ [`FAST_TRIG_MAX_ABS_ERROR`]
/// for `|x| ≤ 1e4`; outside that the reduction degrades gracefully. NaN
/// and infinite inputs return NaN, like `libm`.
#[inline]
pub fn fast_sin(x: f32) -> f32 {
    let (q, r) = reduce(x);
    // Both polynomials are evaluated and the quadrant picks between them
    // with selects: the quadrant is data-dependent, so a branch here
    // mispredicts on essentially every element and blocks vectorization,
    // while two cheap polynomials plus selects pipeline cleanly.
    let s = sin_poly(r);
    let c = cos_poly(r);
    let v = if q & 1 == 0 { s } else { c };
    if q & 2 == 0 {
        v
    } else {
        -v
    }
}

/// Polynomial `cos(x)` with the range reduction of [`fast_sin`]; same
/// error bound and domain. NaN and infinite inputs return NaN.
#[inline]
pub fn fast_cos(x: f32) -> f32 {
    let (q, r) = reduce(x);
    // Branchless quadrant selection — see `fast_sin`. cos is negative in
    // quadrants 1 and 2, i.e. exactly when bit 1 of `q + 1` is set.
    let s = sin_poly(r);
    let c = cos_poly(r);
    let v = if q & 1 == 0 { c } else { s };
    if (q + 1) & 2 == 0 {
        v
    } else {
        -v
    }
}

/// Cache-blocked batch projection `outs[r][d] = Σ_k rows[r][k] ·
/// weights[d·n + k]` for a **row-major** `dim × input_dim` weight matrix
/// (the layout every projection encoder shares).
///
/// Each output vector in `outs` is reset to `dim` zeros (reusing its
/// allocation) and then fully overwritten. Results are bit-identical to the
/// per-row ascending-`k` fold from `+0.0` — see the module docs for why the
/// tiling cannot change the reduction order.
///
/// This is the portable scalar reference: the SIMD levels run the same
/// matvec through a pre-packed [`crate::simd::PackedProjection`], which
/// must match it bit-for-bit, and encoders fall back to it only when no
/// packing serves the active level.
///
/// # Panics
///
/// Panics when `rows` and `outs` disagree in length, a row is not
/// `input_dim` wide, or the weight matrix is not `dim × input_dim`.
pub fn project_blocked(
    weights: &[f32],
    input_dim: usize,
    dim: usize,
    rows: &[&[f32]],
    outs: &mut [RealHv],
) {
    assert_eq!(rows.len(), outs.len(), "rows/outs length mismatch");
    assert_eq!(
        weights.len(),
        dim * input_dim,
        "weight matrix must be dim × input_dim"
    );
    for row in rows {
        assert_eq!(row.len(), input_dim, "row width must match input_dim");
    }
    for out in outs.iter_mut() {
        out.reset(dim);
    }
    let mut d0 = 0;
    while d0 < dim {
        let d1 = (d0 + DIM_TILE).min(dim);
        for (row_tile, out_tile) in rows.chunks(ROW_TILE).zip(outs.chunks_mut(ROW_TILE)) {
            match (row_tile, &mut *out_tile) {
                ([x0, x1, x2, x3], [o0, o1, o2, o3]) => project_tile4(
                    weights,
                    input_dim,
                    d0,
                    d1,
                    [x0, x1, x2, x3],
                    [
                        o0.as_mut_slice(),
                        o1.as_mut_slice(),
                        o2.as_mut_slice(),
                        o3.as_mut_slice(),
                    ],
                ),
                _ => {
                    for (x, o) in row_tile.iter().zip(out_tile.iter_mut()) {
                        project_tile1(weights, input_dim, d0, d1, x, o.as_mut_slice());
                    }
                }
            }
        }
        d0 = d1;
    }
}

/// One `ROW_TILE × [dlo, dhi)` tile: dims in pairs, `4 × 2 = 8`
/// independent accumulators, each summing over `k` in ascending order from
/// `0.0` exactly like the scalar loop.
fn project_tile4(
    weights: &[f32],
    n: usize,
    dlo: usize,
    dhi: usize,
    x: [&[f32]; ROW_TILE],
    o: [&mut [f32]; ROW_TILE],
) {
    let [x0, x1, x2, x3] = [&x[0][..n], &x[1][..n], &x[2][..n], &x[3][..n]];
    let [o0, o1, o2, o3] = o;
    let mut d = dlo;
    while d + 2 <= dhi {
        let wa = &weights[d * n..(d + 1) * n];
        let wb = &weights[(d + 1) * n..(d + 2) * n];
        let (mut a0a, mut a0b, mut a1a, mut a1b) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let (mut a2a, mut a2b, mut a3a, mut a3b) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for k in 0..n {
            let (va, vb) = (wa[k], wb[k]);
            a0a += x0[k] * va;
            a0b += x0[k] * vb;
            a1a += x1[k] * va;
            a1b += x1[k] * vb;
            a2a += x2[k] * va;
            a2b += x2[k] * vb;
            a3a += x3[k] * va;
            a3b += x3[k] * vb;
        }
        o0[d] = a0a;
        o0[d + 1] = a0b;
        o1[d] = a1a;
        o1[d + 1] = a1b;
        o2[d] = a2a;
        o2[d + 1] = a2b;
        o3[d] = a3a;
        o3[d + 1] = a3b;
        d += 2;
    }
    if d < dhi {
        let wa = &weights[d * n..(d + 1) * n];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for k in 0..n {
            let va = wa[k];
            a0 += x0[k] * va;
            a1 += x1[k] * va;
            a2 += x2[k] * va;
            a3 += x3[k] * va;
        }
        o0[d] = a0;
        o1[d] = a1;
        o2[d] = a2;
        o3[d] = a3;
    }
}

/// Remainder-row tile (fewer than [`ROW_TILE`] rows left): one row, dims in
/// pairs so there are still two independent accumulator chains.
fn project_tile1(weights: &[f32], n: usize, dlo: usize, dhi: usize, x: &[f32], o: &mut [f32]) {
    let x = &x[..n];
    let mut d = dlo;
    while d + 2 <= dhi {
        let wa = &weights[d * n..(d + 1) * n];
        let wb = &weights[(d + 1) * n..(d + 2) * n];
        let (mut aa, mut ab) = (0.0f32, 0.0f32);
        for k in 0..n {
            aa += x[k] * wa[k];
            ab += x[k] * wb[k];
        }
        o[d] = aa;
        o[d + 1] = ab;
        d += 2;
    }
    if d < dhi {
        let wa = &weights[d * n..(d + 1) * n];
        let mut aa = 0.0f32;
        for k in 0..n {
            aa += x[k] * wa[k];
        }
        o[d] = aa;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::HdRng;

    /// The scalar reference: one ascending-`k` fold per output dim from
    /// `+0.0`. (`Iterator::sum::<f32>` is not this reference: it may start
    /// from `-0.0`, which changes the sign of an all-zero-product sum.)
    fn scalar_project(weights: &[f32], n: usize, dim: usize, row: &[f32]) -> Vec<f32> {
        (0..dim)
            .map(|d| {
                weights[d * n..(d + 1) * n]
                    .iter()
                    .zip(row)
                    .fold(0.0f32, |acc, (&w, &f)| acc + w * f)
            })
            .collect()
    }

    fn gaussian(len: usize, rng: &mut HdRng) -> Vec<f32> {
        (0..len).map(|_| rng.next_gaussian() as f32).collect()
    }

    #[test]
    fn blocked_projection_is_bit_identical_to_scalar() {
        let mut rng = HdRng::seed_from(11);
        // Dims and batch sizes straddling the tile boundaries: 1, tile−1,
        // tile, tile+1, primes, and non-divisors of DIM_TILE/ROW_TILE.
        for &(n, dim) in &[(1usize, 1usize), (3, 127), (7, 128), (5, 129), (13, 257)] {
            let weights = gaussian(dim * n, &mut rng);
            for &batch in &[1usize, 3, 4, 5, 11] {
                let rows: Vec<Vec<f32>> = (0..batch).map(|_| gaussian(n, &mut rng)).collect();
                let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
                let mut outs = vec![RealHv::default(); batch];
                project_blocked(&weights, n, dim, &row_refs, &mut outs);
                for (row, out) in rows.iter().zip(&outs) {
                    let want = scalar_project(&weights, n, dim, row);
                    let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    let got_bits: Vec<u32> = out.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got_bits, want_bits, "n={n} dim={dim} batch={batch}");
                }
            }
        }
    }

    #[test]
    fn blocked_projection_reuses_output_allocations() {
        let mut rng = HdRng::seed_from(5);
        let (n, dim) = (4, 64);
        let weights = gaussian(dim * n, &mut rng);
        let rows: Vec<Vec<f32>> = (0..6).map(|_| gaussian(n, &mut rng)).collect();
        let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        // Pre-sized outputs keep their allocation; stale contents must not
        // leak into the result.
        let mut outs = vec![RealHv::from_vec(vec![99.0; dim]); 6];
        let ptrs: Vec<*const f32> = outs.iter().map(|o| o.as_slice().as_ptr()).collect();
        project_blocked(&weights, n, dim, &row_refs, &mut outs);
        for (out, ptr) in outs.iter().zip(ptrs) {
            assert_eq!(out.as_slice().as_ptr(), ptr, "allocation must be reused");
            assert!(out.as_slice().iter().all(|v| *v != 99.0));
        }
    }

    #[test]
    fn fast_trig_honours_documented_error_bound() {
        // Dense sweep over the encoders' working range, a finer one over the
        // int8 tier's ±1e3, and a coarser one out to the documented
        // |x| ≤ 1e4 limit.
        let mut max_err = 0.0f64;
        let mut check = |xf: f32| {
            max_err = max_err.max((f64::from(fast_sin(xf)) - f64::from(xf).sin()).abs());
            max_err = max_err.max((f64::from(fast_cos(xf)) - f64::from(xf).cos()).abs());
        };
        let mut x = -20.0f64;
        while x <= 20.0 {
            check(x as f32);
            x += 1e-3;
        }
        for (lim, step) in [(1e3f64, 0.037f64), (1e4, 0.37)] {
            let mut x = -lim;
            while x <= lim {
                check(x as f32);
                x += step;
            }
        }
        check(1e4);
        check(-1e4);
        assert!(
            max_err <= f64::from(FAST_TRIG_MAX_ABS_ERROR),
            "measured max error {max_err:e} exceeds the documented bound"
        );
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(fast_sin(bad).is_nan());
            assert!(fast_cos(bad).is_nan());
        }
    }

    #[test]
    fn trig_mode_roundtrips_through_u8() {
        assert_eq!(TrigMode::from_u8(TrigMode::Exact.as_u8()), TrigMode::Exact);
        assert_eq!(TrigMode::from_u8(TrigMode::Fast.as_u8()), TrigMode::Fast);
        assert_eq!(TrigMode::from_u8(250), TrigMode::Exact);
        assert_eq!(TrigMode::default(), TrigMode::Exact);
    }
}
