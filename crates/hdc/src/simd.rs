//! Explicit-SIMD kernel dispatch: AVX2 (x86_64) and NEON (aarch64)
//! implementations of the projection kernels and the fast trigonometry,
//! selected once at startup and **bit-identical** to the scalar blocked
//! kernels.
//!
//! # Dispatch
//!
//! The active instruction set is a process-wide atomic knob:
//!
//! * [`detect`] probes the CPU once (`is_x86_feature_detected!("avx2")` on
//!   x86_64 — AVX2 paths also require `popcnt`; aarch64 always has NEON).
//! * The first call to [`active`] initialises the knob from the
//!   `REGHD_SIMD` environment variable (`auto`, `avx2`, `neon`, `scalar`;
//!   anything else, or a level the CPU cannot run, falls back to `scalar`)
//!   or from [`detect`] when the variable is unset.
//! * [`set_preference`] implements the `--simd` CLI flag: `auto` selects
//!   [`detect`], a named level is validated against the CPU and rejected
//!   with an error if unsupported.
//!
//! # Bit-identity by construction
//!
//! Every SIMD projection kernel vectorises **across output dimensions**:
//! each SIMD lane is the accumulator of one output dim, the `k` (feature)
//! reduction stays a scalar-ordered loop, and multiplies and adds are
//! issued as separate (non-fused) instructions. Per lane this is exactly
//! the scalar sequence `acc = (acc + x[k]·w[k])` in ascending `k` from
//! `+0.0f32`, so the result is bit-identical to the scalar reference
//! [`crate::kernels::project_blocked`] — the property the repo-wide
//! equivalence suite asserts.
//!
//! The fast-trig post-ops run the scalar [`crate::kernels::fast_sin`]/
//! [`crate::kernels::fast_cos`] op sequence per lane, all in f32 (8 lanes
//! on AVX2, 4 on NEON): the hardware nearest-even rounding
//! (`_mm256_round_ps` / `vrndnq_f32`) is the scalar `round_ties_even`, the
//! Cody–Waite steps and the Horner chains issue every multiply, add and
//! subtract as its own instruction, and the f32 → i32 conversion of the
//! integral quadrant index is exact. So every lane reproduces the scalar expression bit-for-bit on
//! finite inputs. (Non-finite inputs produce NaN on both paths; the NaN
//! sign bit is unspecified.)
//!
//! # Quantised-tier primitives
//!
//! The int8 dot kernel ([`dot_i8`]) and the popcount helpers
//! ([`popcount_words`], [`hamming_words`]) back the bit-packed inference
//! tier; both are integer-exact, so dispatch never changes their results.
//!
//! # Safety of the dispatch sites
//!
//! Every `unsafe` block in this file calls one `avx2::*`/`neon::*` kernel
//! from a match on a dispatch level, and relies on two invariants:
//!
//! * **The level is runnable.** [`set_level`] refuses a level the CPU
//!   cannot run, `REGHD_SIMD` falls back to `scalar` for one, and
//!   [`PackedProjection::for_level`] builds no packing for one. So the
//!   `Avx2` arm is reached only when [`detect`] found AVX2 and `popcnt`,
//!   and the `Neon` arm only on aarch64, where NEON is mandatory.
//! * **The shapes hold.** Each entry point asserts the slice lengths the
//!   kernel's `# Safety` section names before it dispatches.

#![allow(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

use std::sync::atomic::{AtomicU8, Ordering};

use crate::dense::RealHv;

/// Instruction-set level the kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar blocked kernels — the reference implementation.
    Scalar,
    /// 256-bit AVX2 (+`popcnt`) paths, x86_64 only.
    Avx2,
    /// 128-bit NEON paths, aarch64 only.
    Neon,
}

impl SimdLevel {
    /// Stable label used in result JSONs and the `stats` output.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2 => 2,
            SimdLevel::Neon => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(SimdLevel::Scalar),
            2 => Some(SimdLevel::Avx2),
            3 => Some(SimdLevel::Neon),
            _ => None,
        }
    }
}

/// `0` = uninitialised; otherwise `SimdLevel::as_u8`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The best level this CPU can run, probed at most once per process.
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            return SimdLevel::Avx2;
        }
        SimdLevel::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is mandatory in AArch64.
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

fn supported(level: SimdLevel) -> bool {
    level == SimdLevel::Scalar || level == detect()
}

fn init_from_env() -> SimdLevel {
    let level = match std::env::var("REGHD_SIMD").ok().as_deref() {
        Some("scalar") => SimdLevel::Scalar,
        Some("avx2") if supported(SimdLevel::Avx2) => SimdLevel::Avx2,
        Some("neon") if supported(SimdLevel::Neon) => SimdLevel::Neon,
        Some("auto") | None => detect(),
        // Unknown value, or a level this CPU cannot run: the conservative
        // choice keeps forced-environment runs (CI) predictable.
        Some(_) => SimdLevel::Scalar,
    };
    ACTIVE.store(level.as_u8(), Ordering::Relaxed);
    level
}

/// The instruction set the kernels currently dispatch to.
pub fn active() -> SimdLevel {
    match SimdLevel::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(level) => level,
        None => init_from_env(),
    }
}

/// Label of [`active`] — the `"simd"` field every perf-result JSON records.
pub fn active_label() -> &'static str {
    active().label()
}

/// Forces a dispatch level. Fails (leaving the knob unchanged) when the CPU
/// cannot run `level`. Used by benches and the forced-level tests; serving
/// selects once at startup via [`set_preference`].
pub fn set_level(level: SimdLevel) -> Result<(), String> {
    if !supported(level) {
        return Err(format!(
            "simd level '{}' is not supported on this CPU (detected: '{}')",
            level.label(),
            detect().label()
        ));
    }
    ACTIVE.store(level.as_u8(), Ordering::Relaxed);
    Ok(())
}

/// Applies a `--simd auto|avx2|neon|scalar` preference. `auto` resolves to
/// [`detect`]; a named level must be runnable on this CPU. Returns the level
/// that became active.
pub fn set_preference(pref: &str) -> Result<SimdLevel, String> {
    let level = match pref {
        "auto" => detect(),
        "scalar" => SimdLevel::Scalar,
        "avx2" => SimdLevel::Avx2,
        "neon" => SimdLevel::Neon,
        other => {
            return Err(format!(
                "unknown simd preference '{other}' (expected auto|avx2|neon|scalar)"
            ))
        }
    };
    set_level(level)?;
    Ok(level)
}

// ---------------------------------------------------------------------------
// Packed projection: weights re-laid-out lane-major once, so the SIMD
// projection needs no per-call transpose.
// ---------------------------------------------------------------------------

/// A row-major `dim × n` projection matrix re-packed for the active SIMD
/// level: full groups of `lanes` output dims are stored `k`-major
/// (`wt[(g·n + k)·lanes + j] = weights[(g·lanes + j)·n + k]`), and the final
/// partial group is kept row-major in `rem`. Encoders build one of these
/// lazily and fall back to [`crate::kernels::project_blocked`] whenever the
/// active level changes from the packed one.
#[derive(Debug)]
pub struct PackedProjection {
    level: SimdLevel,
    wt: Vec<f32>,
    /// Row-major rows for the `dim % lanes` remainder output dims.
    rem: Vec<f32>,
    input_dim: usize,
    dim: usize,
}

impl PackedProjection {
    /// Packs `weights` for `level`; `None` when `level` is scalar or this
    /// CPU cannot run it (so [`PackedProjection::project_into`] never
    /// reaches an unsupported instruction set).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != dim * input_dim`.
    pub fn for_level(
        level: SimdLevel,
        weights: &[f32],
        input_dim: usize,
        dim: usize,
    ) -> Option<Self> {
        assert_eq!(weights.len(), dim * input_dim, "weights must be dim × n");
        if !supported(level) {
            return None;
        }
        let lanes = match level {
            SimdLevel::Scalar => return None,
            SimdLevel::Avx2 => 8,
            SimdLevel::Neon => 4,
        };
        let full = dim / lanes * lanes;
        let mut wt = vec![0.0f32; full * input_dim];
        for g in 0..dim / lanes {
            for j in 0..lanes {
                let row = &weights[(g * lanes + j) * input_dim..(g * lanes + j + 1) * input_dim];
                for (k, &w) in row.iter().enumerate() {
                    wt[(g * input_dim + k) * lanes + j] = w;
                }
            }
        }
        let rem = weights[full * input_dim..].to_vec();
        Some(Self {
            level,
            wt,
            rem,
            input_dim,
            dim,
        })
    }

    /// The level this packing targets.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Projects a batch of rows: `outs[r][d] = Σ_k rows[r][k] · W[d][k]`,
    /// bit-identical to the scalar path. Callers must have validated row
    /// widths; each output is resized to `dim` and fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `outs` disagree in length or a row is not
    /// `input_dim` wide.
    pub fn project_into(&self, rows: &[&[f32]], outs: &mut [RealHv]) {
        assert_eq!(rows.len(), outs.len(), "rows/outs length mismatch");
        for row in rows {
            assert_eq!(row.len(), self.input_dim, "row width must match input_dim");
        }
        for out in outs.iter_mut() {
            out.reset(self.dim);
        }
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `for_level` packs only for a level this CPU runs, and
            // built `wt`/`rem` in the 8-lane layout for `input_dim × dim`;
            // the asserts above check the rows and reset the outputs.
            SimdLevel::Avx2 => unsafe {
                avx2::project_packed(&self.wt, &self.rem, self.input_dim, self.dim, rows, outs)
            },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is mandatory on aarch64; `for_level` built
            // `wt`/`rem` in the 4-lane layout for `input_dim × dim`, and the
            // asserts above check the rows and reset the outputs.
            SimdLevel::Neon => unsafe {
                neon::project_packed(&self.wt, &self.rem, self.input_dim, self.dim, rows, outs)
            },
            _ => unreachable!("PackedProjection is only built for SIMD levels"),
        }
    }
}

// ---------------------------------------------------------------------------
// Fast-trig post-ops: `TrigMode::Fast` and the int8 tier (the Exact path
// stays libm).
// ---------------------------------------------------------------------------

/// In-place `v[d] = fast_cos(v[d] + phases[d]) · fast_sin(v[d])` — the
/// `NonlinearEncoder` post-op under `TrigMode::Fast` — dispatched to the
/// active level and bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if `vals` and `phases` differ in length.
pub fn nonlinear_post_fast(vals: &mut [f32], phases: &[f32]) {
    assert_eq!(vals.len(), phases.len(), "vals/phases length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the active level is runnable (module docs); lengths are
        // asserted equal above.
        SimdLevel::Avx2 => unsafe { avx2::nonlinear_post(vals, phases) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is mandatory on aarch64; lengths are asserted equal
        // above.
        SimdLevel::Neon => unsafe { neon::nonlinear_post(vals, phases) },
        _ => {
            for (v, &b) in vals.iter_mut().zip(phases) {
                let p = *v;
                *v = crate::kernels::fast_cos(p + b) * crate::kernels::fast_sin(p);
            }
        }
    }
}

/// In-place `v[d] = fast_cos(v[d] + phases[d])` — the `RffEncoder` post-op,
/// shared by its `TrigMode::Fast` path and its int8 tier. Bit-identical
/// across dispatch levels.
///
/// # Panics
///
/// Panics if `vals` and `phases` differ in length.
pub fn cos_phase_post_fast(vals: &mut [f32], phases: &[f32]) {
    assert_eq!(vals.len(), phases.len(), "vals/phases length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the active level is runnable (module docs); lengths are
        // asserted equal above.
        SimdLevel::Avx2 => unsafe { avx2::cos_phase_post(vals, phases) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is mandatory on aarch64; lengths are asserted equal
        // above.
        SimdLevel::Neon => unsafe { neon::cos_phase_post(vals, phases) },
        _ => {
            for (v, &b) in vals.iter_mut().zip(phases) {
                *v = crate::kernels::fast_cos(*v + b);
            }
        }
    }
}

/// In-place quantised-tier nonlinear post-op over the int8 projection:
///
/// ```text
/// v[d] = 0.5 · fast_sin(2·v[d] + phases[d]) − half_sin_phases[d]
/// ```
///
/// which is `cos(v + b) · sin(v)` rewritten through the product-to-sum
/// identity `sin(p)·cos(p + b) = ½·sin(2p + b) − ½·sin(b)` — one trig
/// evaluation per element instead of two, with `½·sin(b)` precomputed per
/// dimension by the encoder. Bit-identical across dispatch levels
/// (elementwise op, identical per-lane sequence). Only the int8 tier uses
/// this: rounding `2p + b` to f32 costs up to ~7e-4 of accuracy at
/// `|p| = 1e4`, so the full-precision `TrigMode::Fast` path keeps
/// [`nonlinear_post_fast`]'s two evaluations.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn nonlinear_post_quant(vals: &mut [f32], phases: &[f32], half_sin_phases: &[f32]) {
    assert_eq!(vals.len(), phases.len(), "vals/phases length mismatch");
    assert_eq!(
        vals.len(),
        half_sin_phases.len(),
        "vals/half_sin_phases length mismatch"
    );
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the active level is runnable (module docs); all three
        // lengths are asserted equal above.
        SimdLevel::Avx2 => unsafe { avx2::nonlinear_post_quant(vals, phases, half_sin_phases) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is mandatory on aarch64; all three lengths are
        // asserted equal above.
        SimdLevel::Neon => unsafe { neon::nonlinear_post_quant(vals, phases, half_sin_phases) },
        _ => {
            for ((v, &b), &hs) in vals.iter_mut().zip(phases).zip(half_sin_phases) {
                let p = *v;
                *v = 0.5 * crate::kernels::fast_sin(2.0 * p + b) - hs;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Quantised-tier integer primitives (dispatch never changes results —
// integer arithmetic is exact in any order).
// ---------------------------------------------------------------------------

/// Dot product of two i8 slices with i32 accumulation. The AVX2 path widens
/// to i16 and uses `pmaddwd`; sums of `len ≤ 2²⁵` products stay exact in
/// i32, far above any hypervector feature count.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8: length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the active level is runnable (module docs); lengths are
        // asserted equal above.
        SimdLevel::Avx2 => unsafe { avx2::dot_i8(a, b) },
        _ => a
            .iter()
            .zip(b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum(),
    }
}

/// Integer projection of one quantised row against row-major i8 weights:
/// `out[d] = dot(w_d, row) · (scales[d] · row_scale)`, dispatched **once**
/// for the whole matvec — per-dim `dot_i8` calls would pay dispatch plus a
/// horizontal reduction per output component, which dominates at serving
/// widths. Bit-identical across levels: the integer dots are exact in any
/// order and every path scales with the same per-dim parenthesisation.
///
/// # Panics
///
/// Panics if `q` is not `out.len()·n` long, `scales` is not `out.len()`
/// long, or `row` is not `n` long.
pub fn project_i8_rowmajor(
    q: &[i8],
    n: usize,
    scales: &[f32],
    row: &[i8],
    row_scale: f32,
    out: &mut [f32],
) {
    assert_eq!(q.len(), out.len() * n, "weight matrix must be dim × n");
    assert_eq!(scales.len(), out.len(), "one scale per output dim");
    assert_eq!(row.len(), n, "row width must match n");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the active level is runnable (module docs); the three
        // shape asserts above are the kernel's preconditions.
        SimdLevel::Avx2 => unsafe { avx2::project_i8(q, n, scales, row, row_scale, out) },
        _ => {
            for (d, o) in out.iter_mut().enumerate() {
                let w = &q[d * n..(d + 1) * n];
                let dot: i32 = w
                    .iter()
                    .zip(row)
                    .map(|(&x, &y)| i32::from(x) * i32::from(y))
                    .sum();
                *o = dot as f32 * (scales[d] * row_scale);
            }
        }
    }
}

/// Packs the strict-positive mask of `vals` into little-endian bit words:
/// bit `d % 64` of `words[d / 64]` is set iff `vals[d] > 0.0` — the
/// `RealHv::binarize` threshold, vectorised (8 lanes compare + movemask per
/// iteration on AVX2). Comparison against zero is exact, so dispatch can
/// never change a bit. NaN compares false, like the scalar `>`.
///
/// # Panics
///
/// Panics if `words` is not exactly `vals.len().div_ceil(64)` long.
pub fn pack_signs(vals: &[f32], words: &mut [u64]) {
    assert_eq!(
        words.len(),
        vals.len().div_ceil(64),
        "pack_signs: one word per 64 values"
    );
    words.fill(0);
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the active level is runnable (module docs); `words` has
        // the asserted length and was zeroed above.
        SimdLevel::Avx2 => unsafe { avx2::pack_signs(vals, words) },
        _ => {
            for (d, &v) in vals.iter().enumerate() {
                if v > 0.0 {
                    words[d / 64] |= 1u64 << (d % 64);
                }
            }
        }
    }
}

/// One-pass `(Σ|v|, Σv²)` over f32 values with **f64 accumulation in four
/// fixed lanes**: lane `l` accumulates elements `l, l+4, l+8, …` (tail
/// element `j` of a non-multiple-of-4 slice lands in lane `j`), and the
/// lanes combine as `((l0 + l1) + l2) + l3`. The scalar fallback simulates
/// the identical lane assignment, so dispatch never changes a bit — the
/// binary tier derives its amplitude statistic and encoding norm from this.
pub fn abs_sq_sums(vals: &[f32]) -> (f64, f64) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the active level is runnable (module docs); the kernel
        // reads any slice.
        SimdLevel::Avx2 => unsafe { avx2::abs_sq_sums(vals) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is mandatory on aarch64; the kernel reads any slice.
        SimdLevel::Neon => unsafe { neon::abs_sq_sums(vals) },
        _ => scalar_abs_sq_sums(vals),
    }
}

/// The 4-lane-blocked reference for [`abs_sq_sums`] — also the tail/cleanup
/// path of the SIMD backends.
fn scalar_abs_sq_sums(vals: &[f32]) -> (f64, f64) {
    let mut abs_l = [0.0f64; 4];
    let mut sq_l = [0.0f64; 4];
    let mut chunks = vals.chunks_exact(4);
    for c in chunks.by_ref() {
        for (l, &v) in c.iter().enumerate() {
            let v = f64::from(v);
            abs_l[l] += v.abs();
            sq_l[l] += v * v;
        }
    }
    for (l, &v) in chunks.remainder().iter().enumerate() {
        let v = f64::from(v);
        abs_l[l] += v.abs();
        sq_l[l] += v * v;
    }
    (
        ((abs_l[0] + abs_l[1]) + abs_l[2]) + abs_l[3],
        ((sq_l[0] + sq_l[1]) + sq_l[2]) + sq_l[3],
    )
}

/// Total set bits across packed words (`popcnt`-accelerated where the
/// dispatch level allows).
pub fn popcount_words(words: &[u64]) -> usize {
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the `Avx2` level is active only when `popcnt` was
        // detected too (module docs).
        SimdLevel::Avx2 => unsafe { avx2::popcount(words) },
        _ => words.iter().map(|w| w.count_ones() as usize).sum(),
    }
}

/// Hamming distance between two packed-word slices: `popcount(a ⊕ b)`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "hamming_words: length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the `Avx2` level is active only when `popcnt` was
        // detected too (module docs); lengths are asserted equal above.
        SimdLevel::Avx2 => unsafe { avx2::hamming(a, b) },
        _ => a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (x ^ y).count_ones() as usize)
            .sum(),
    }
}

// ---------------------------------------------------------------------------
// AVX2 backend
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::RealHv;
    use core::arch::x86_64::*;

    /// Lane-major projection of one 8-dim group for every row: each lane is
    /// one output dim's accumulator, `k` ascends scalar-order, mul and add
    /// stay separate instructions — bit-identical to the scalar loop.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2, `tr.len() >= n*8`, every row `n` wide, and
    /// `d + 8 <= out.dim` for every out slice.
    #[target_feature(enable = "avx2")]
    unsafe fn project_group(tr: &[f32], n: usize, d: usize, rows: &[&[f32]], outs: &mut [RealHv]) {
        for (x, o) in rows.iter().zip(outs.iter_mut()) {
            let x = &x[..n];
            let mut acc = _mm256_setzero_ps();
            for (k, &xk) in x.iter().enumerate() {
                let w = _mm256_loadu_ps(tr.as_ptr().add(k * 8));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(xk), w));
            }
            _mm256_storeu_ps(o.as_mut_slice().as_mut_ptr().add(d), acc);
        }
    }

    /// Scalar remainder dims (fewer than 8 left): ascending-`k` accumulator
    /// per (row, dim), exactly the blocked kernel's remainder loop.
    fn project_rem(
        weights_rows: &[f32],
        n: usize,
        d0: usize,
        ndims: usize,
        rows: &[&[f32]],
        outs: &mut [RealHv],
    ) {
        for j in 0..ndims {
            let w = &weights_rows[j * n..(j + 1) * n];
            for (x, o) in rows.iter().zip(outs.iter_mut()) {
                let x = &x[..n];
                let mut a = 0.0f32;
                for k in 0..n {
                    a += x[k] * w[k];
                }
                o.as_mut_slice()[d0 + j] = a;
            }
        }
    }

    /// Pre-packed (lane-major) projection: full groups from `wt`, remainder
    /// dims from the row-major `rem` copy.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2 and the `PackedProjection` layout invariants.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn project_packed(
        wt: &[f32],
        rem: &[f32],
        n: usize,
        dim: usize,
        rows: &[&[f32]],
        outs: &mut [RealHv],
    ) {
        let full = dim / 8 * 8;
        for g in 0..dim / 8 {
            project_group(&wt[g * n * 8..(g + 1) * n * 8], n, g * 8, rows, outs);
        }
        if full < dim {
            project_rem(rem, n, full, dim - full, rows, outs);
        }
    }

    // -- fast trig (all-f32 range reduction, 8 lanes) ----------------------

    /// 8-lane Taylor sine on the reduced range — the scalar `sin_poly`
    /// Horner chain, per lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sin_poly8(r: __m256) -> __m256 {
        let r2 = _mm256_mul_ps(r, r);
        let mut p = _mm256_set1_ps(-1.0 / 5040.0);
        p = _mm256_add_ps(_mm256_set1_ps(1.0 / 120.0), _mm256_mul_ps(r2, p));
        p = _mm256_add_ps(_mm256_set1_ps(-1.0 / 6.0), _mm256_mul_ps(r2, p));
        p = _mm256_add_ps(_mm256_set1_ps(1.0), _mm256_mul_ps(r2, p));
        _mm256_mul_ps(r, p)
    }

    /// 8-lane Taylor cosine on the reduced range — the scalar `cos_poly`
    /// chain.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cos_poly8(r: __m256) -> __m256 {
        let r2 = _mm256_mul_ps(r, r);
        let mut p = _mm256_set1_ps(1.0 / 40320.0);
        p = _mm256_add_ps(_mm256_set1_ps(-1.0 / 720.0), _mm256_mul_ps(r2, p));
        p = _mm256_add_ps(_mm256_set1_ps(1.0 / 24.0), _mm256_mul_ps(r2, p));
        p = _mm256_add_ps(_mm256_set1_ps(-1.0 / 2.0), _mm256_mul_ps(r2, p));
        _mm256_add_ps(_mm256_set1_ps(1.0), _mm256_mul_ps(r2, p))
    }

    /// The scalar quadrant selects: odd quadrants take `odd`, and the sign
    /// flips when bit 1 of `q + neg_plus` is set.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quadrant_select8(q: __m256i, even: __m256, odd: __m256, neg_plus: i32) -> __m256 {
        let q_odd = _mm256_cmpeq_epi32(
            _mm256_and_si256(q, _mm256_set1_epi32(1)),
            _mm256_set1_epi32(1),
        );
        let v = _mm256_blendv_ps(even, odd, _mm256_castsi256_ps(q_odd));
        let qn = _mm256_add_epi32(q, _mm256_set1_epi32(neg_plus));
        let neg = _mm256_cmpeq_epi32(
            _mm256_and_si256(qn, _mm256_set1_epi32(2)),
            _mm256_set1_epi32(2),
        );
        let signbit = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
        _mm256_xor_ps(v, _mm256_and_ps(_mm256_castsi256_ps(neg), signbit))
    }

    /// 8-lane Cody–Waite reduction of `fast_sin`/`fast_cos`: the same f32
    /// op sequence per lane (`_mm256_round_ps` nearest-even is scalar
    /// `round_ties_even`; `cvtps` of the integral `k` is exact, and maps
    /// NaN to a quadrant-0 index exactly like the scalar `as` cast).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce8(x: __m256) -> (__m256i, __m256) {
        let k = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::FRAC_2_PI)),
        );
        let mut r = _mm256_sub_ps(x, _mm256_mul_ps(k, _mm256_set1_ps(crate::kernels::PI2_A)));
        r = _mm256_sub_ps(r, _mm256_mul_ps(k, _mm256_set1_ps(crate::kernels::PI2_B)));
        r = _mm256_sub_ps(r, _mm256_mul_ps(k, _mm256_set1_ps(crate::kernels::PI2_C)));
        let q = _mm256_and_si256(_mm256_cvtps_epi32(k), _mm256_set1_epi32(3));
        (q, r)
    }

    /// 8-lane `fast_sin`, bit-identical to the scalar version per lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fast_sin8(x: __m256) -> __m256 {
        let (q, r) = reduce8(x);
        quadrant_select8(q, sin_poly8(r), cos_poly8(r), 0)
    }

    /// 8-lane `fast_cos`, bit-identical to the scalar version per lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fast_cos8(x: __m256) -> __m256 {
        let (q, r) = reduce8(x);
        quadrant_select8(q, cos_poly8(r), sin_poly8(r), 1)
    }

    /// # Safety
    ///
    /// Caller guarantees AVX2 and equal slice lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nonlinear_post(vals: &mut [f32], phases: &[f32]) {
        let n = vals.len();
        let mut i = 0;
        while i + 8 <= n {
            let p = _mm256_loadu_ps(vals.as_ptr().add(i));
            let b = _mm256_loadu_ps(phases.as_ptr().add(i));
            let v = _mm256_mul_ps(fast_cos8(_mm256_add_ps(p, b)), fast_sin8(p));
            _mm256_storeu_ps(vals.as_mut_ptr().add(i), v);
            i += 8;
        }
        while i < n {
            let p = vals[i];
            vals[i] = crate::kernels::fast_cos(p + phases[i]) * crate::kernels::fast_sin(p);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Caller guarantees AVX2 and equal slice lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cos_phase_post(vals: &mut [f32], phases: &[f32]) {
        let n = vals.len();
        let mut i = 0;
        while i + 8 <= n {
            let p = _mm256_loadu_ps(vals.as_ptr().add(i));
            let b = _mm256_loadu_ps(phases.as_ptr().add(i));
            _mm256_storeu_ps(vals.as_mut_ptr().add(i), fast_cos8(_mm256_add_ps(p, b)));
            i += 8;
        }
        while i < n {
            vals[i] = crate::kernels::fast_cos(vals[i] + phases[i]);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Caller guarantees AVX2 and equal slice lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nonlinear_post_quant(
        vals: &mut [f32],
        phases: &[f32],
        half_sin_phases: &[f32],
    ) {
        let n = vals.len();
        let half = _mm256_set1_ps(0.5);
        let two = _mm256_set1_ps(2.0);
        let mut i = 0;
        while i + 8 <= n {
            let p = _mm256_loadu_ps(vals.as_ptr().add(i));
            let b = _mm256_loadu_ps(phases.as_ptr().add(i));
            let hs = _mm256_loadu_ps(half_sin_phases.as_ptr().add(i));
            let s = fast_sin8(_mm256_add_ps(_mm256_mul_ps(two, p), b));
            let v = _mm256_sub_ps(_mm256_mul_ps(half, s), hs);
            _mm256_storeu_ps(vals.as_mut_ptr().add(i), v);
            i += 8;
        }
        while i < n {
            let p = vals[i];
            vals[i] = 0.5 * crate::kernels::fast_sin(2.0 * p + phases[i]) - half_sin_phases[i];
            i += 1;
        }
    }

    // -- sign packing and amplitude sums -----------------------------------

    /// # Safety
    ///
    /// Caller guarantees AVX2 and `words.len() == vals.len().div_ceil(64)`,
    /// with `words` pre-zeroed.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_signs(vals: &[f32], words: &mut [u64]) {
        let zero = _mm256_setzero_ps();
        let n = vals.len();
        let mut d = 0;
        while d + 64 <= n {
            let mut w = 0u64;
            for j in 0..8 {
                let v = _mm256_loadu_ps(vals.as_ptr().add(d + 8 * j));
                // `movemask` of the `> 0` compare: bit i = lane i, so the
                // packed order matches the scalar `1 << (d % 64)` exactly.
                let m = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(v, zero)) as u32;
                w |= u64::from(m) << (8 * j);
            }
            words[d / 64] = w;
            d += 64;
        }
        while d < n {
            if vals[d] > 0.0 {
                words[d / 64] |= 1u64 << (d % 64);
            }
            d += 1;
        }
    }

    /// # Safety
    ///
    /// Caller guarantees AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn abs_sq_sums(vals: &[f32]) -> (f64, f64) {
        let absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
        let mut abs_acc = _mm256_setzero_pd();
        let mut sq_acc = _mm256_setzero_pd();
        let n = vals.len() / 4 * 4;
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_cvtps_pd(_mm_loadu_ps(vals.as_ptr().add(i)));
            abs_acc = _mm256_add_pd(abs_acc, _mm256_and_pd(v, absmask));
            sq_acc = _mm256_add_pd(sq_acc, _mm256_mul_pd(v, v));
            i += 4;
        }
        let mut abs_l = [0.0f64; 4];
        let mut sq_l = [0.0f64; 4];
        _mm256_storeu_pd(abs_l.as_mut_ptr(), abs_acc);
        _mm256_storeu_pd(sq_l.as_mut_ptr(), sq_acc);
        for (l, &v) in vals[n..].iter().enumerate() {
            let v = f64::from(v);
            abs_l[l] += v.abs();
            sq_l[l] += v * v;
        }
        (
            ((abs_l[0] + abs_l[1]) + abs_l[2]) + abs_l[3],
            ((sq_l[0] + sq_l[1]) + sq_l[2]) + sq_l[3],
        )
    }

    // -- integer primitives ------------------------------------------------

    /// # Safety
    ///
    /// Caller guarantees AVX2 and equal slice lengths. Exact for
    /// `len ≤ 2²⁵` (i32 accumulator headroom over ±127² products).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i) as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += 16;
        }
        let s = _mm_add_epi32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256(acc, 1),
        );
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
        let mut sum = _mm_cvtsi128_si32(s);
        while i < n {
            sum += i32::from(a[i]) * i32::from(b[i]);
            i += 1;
        }
        sum
    }

    /// Whole-matvec int8 projection:
    /// `out[d] = dot(q[d·n..], row) · (scales[d] · row_scale)`.
    ///
    /// One call covers every output dim — dispatching `dot_i8` per dim
    /// costs more in call and horizontal-reduction overhead than the
    /// ~`n`-element dot itself at serving widths (`n` in the tens). Four
    /// output dims share each widened row load, and their four i32
    /// accumulators collapse through one `hadd` tree into a single 4-lane
    /// vector that is converted and scaled together. Integer accumulation
    /// is exact in any order, and the float scaling keeps the scalar
    /// path's `dot as f32 * (scales[d] * row_scale)` parenthesisation per
    /// lane, so results are bit-identical to the scalar fallback.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2, `q.len() == out.len()·n`,
    /// `scales.len() == out.len()`, and `row.len() == n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn project_i8(
        q: &[i8],
        n: usize,
        scales: &[f32],
        row: &[i8],
        row_scale: f32,
        out: &mut [f32],
    ) {
        let dim = out.len();
        let rs = _mm_set1_ps(row_scale);
        let mut d = 0;
        while d + 4 <= dim {
            let w0 = q.as_ptr().add(d * n);
            let w1 = q.as_ptr().add((d + 1) * n);
            let w2 = q.as_ptr().add((d + 2) * n);
            let w3 = q.as_ptr().add((d + 3) * n);
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut acc2 = _mm256_setzero_si256();
            let mut acc3 = _mm256_setzero_si256();
            let mut k = 0;
            while k + 16 <= n {
                let r =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(row.as_ptr().add(k) as *const __m128i));
                let l0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(w0.add(k) as *const __m128i));
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(r, l0));
                let l1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(w1.add(k) as *const __m128i));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(r, l1));
                let l2 = _mm256_cvtepi8_epi16(_mm_loadu_si128(w2.add(k) as *const __m128i));
                acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(r, l2));
                let l3 = _mm256_cvtepi8_epi16(_mm_loadu_si128(w3.add(k) as *const __m128i));
                acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(r, l3));
                k += 16;
            }
            // hadd tree: lanes of `t` end up [s0 s1 s2 s3 | s0' s1' s2' s3'],
            // so one cross-half add yields the four dot products in order.
            let t = _mm256_hadd_epi32(_mm256_hadd_epi32(acc0, acc1), _mm256_hadd_epi32(acc2, acc3));
            let s = _mm_add_epi32(_mm256_castsi256_si128(t), _mm256_extracti128_si256(t, 1));
            let mut sums = [0i32; 4];
            _mm_storeu_si128(sums.as_mut_ptr() as *mut __m128i, s);
            while k < n {
                let r = i32::from(row[k]);
                sums[0] += r * i32::from(*w0.add(k));
                sums[1] += r * i32::from(*w1.add(k));
                sums[2] += r * i32::from(*w2.add(k));
                sums[3] += r * i32::from(*w3.add(k));
                k += 1;
            }
            let f = _mm_cvtepi32_ps(_mm_loadu_si128(sums.as_ptr() as *const __m128i));
            let sc = _mm_mul_ps(_mm_loadu_ps(scales.as_ptr().add(d)), rs);
            _mm_storeu_ps(out.as_mut_ptr().add(d), _mm_mul_ps(f, sc));
            d += 4;
        }
        while d < dim {
            let w = &q[d * n..(d + 1) * n];
            out[d] = dot_i8(w, row) as f32 * (scales[d] * row_scale);
            d += 1;
        }
    }

    /// # Safety
    ///
    /// Caller guarantees the `popcnt` feature (implied by the Avx2 level).
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn popcount(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// # Safety
    ///
    /// Caller guarantees `popcnt` and equal slice lengths.
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn hamming(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x ^ y).count_ones() as usize)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// NEON backend (aarch64). Structure mirrors the AVX2 backend at 4 f32
// lanes; `vmulq`/`vaddq` stay separate instructions so no lane ever sees a
// fused multiply-add.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::RealHv;
    use core::arch::aarch64::*;

    /// # Safety
    ///
    /// `tr.len() >= n*4`, rows `n` wide, `d + 4 <= out.dim`.
    unsafe fn project_group(tr: &[f32], n: usize, d: usize, rows: &[&[f32]], outs: &mut [RealHv]) {
        for (x, o) in rows.iter().zip(outs.iter_mut()) {
            let x = &x[..n];
            let mut acc = vdupq_n_f32(0.0);
            for (k, &xk) in x.iter().enumerate() {
                let w = vld1q_f32(tr.as_ptr().add(k * 4));
                acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(xk), w));
            }
            vst1q_f32(o.as_mut_slice().as_mut_ptr().add(d), acc);
        }
    }

    fn project_rem(
        weights_rows: &[f32],
        n: usize,
        d0: usize,
        ndims: usize,
        rows: &[&[f32]],
        outs: &mut [RealHv],
    ) {
        for j in 0..ndims {
            let w = &weights_rows[j * n..(j + 1) * n];
            for (x, o) in rows.iter().zip(outs.iter_mut()) {
                let x = &x[..n];
                let mut a = 0.0f32;
                for k in 0..n {
                    a += x[k] * w[k];
                }
                o.as_mut_slice()[d0 + j] = a;
            }
        }
    }

    /// # Safety
    ///
    /// `PackedProjection` layout invariants (lanes = 4).
    pub(super) unsafe fn project_packed(
        wt: &[f32],
        rem: &[f32],
        n: usize,
        dim: usize,
        rows: &[&[f32]],
        outs: &mut [RealHv],
    ) {
        let full = dim / 4 * 4;
        for g in 0..dim / 4 {
            project_group(&wt[g * n * 4..(g + 1) * n * 4], n, g * 4, rows, outs);
        }
        if full < dim {
            project_rem(rem, n, full, dim - full, rows, outs);
        }
    }

    // -- fast trig (all-f32 range reduction, 4 lanes) ----------------------

    /// 4-lane Taylor sine on the reduced range — the scalar `sin_poly`
    /// Horner chain, per lane.
    #[inline]
    unsafe fn sin_poly4(r: float32x4_t) -> float32x4_t {
        let r2 = vmulq_f32(r, r);
        let mut p = vdupq_n_f32(-1.0 / 5040.0);
        p = vaddq_f32(vdupq_n_f32(1.0 / 120.0), vmulq_f32(r2, p));
        p = vaddq_f32(vdupq_n_f32(-1.0 / 6.0), vmulq_f32(r2, p));
        p = vaddq_f32(vdupq_n_f32(1.0), vmulq_f32(r2, p));
        vmulq_f32(r, p)
    }

    /// 4-lane Taylor cosine on the reduced range — the scalar `cos_poly`
    /// chain.
    #[inline]
    unsafe fn cos_poly4(r: float32x4_t) -> float32x4_t {
        let r2 = vmulq_f32(r, r);
        let mut p = vdupq_n_f32(1.0 / 40320.0);
        p = vaddq_f32(vdupq_n_f32(-1.0 / 720.0), vmulq_f32(r2, p));
        p = vaddq_f32(vdupq_n_f32(1.0 / 24.0), vmulq_f32(r2, p));
        p = vaddq_f32(vdupq_n_f32(-1.0 / 2.0), vmulq_f32(r2, p));
        vaddq_f32(vdupq_n_f32(1.0), vmulq_f32(r2, p))
    }

    /// The scalar quadrant selects: odd quadrants take `odd`, and the sign
    /// flips when bit 1 of `q + neg_plus` is set.
    #[inline]
    unsafe fn quadrant_select(
        q: int32x4_t,
        even: float32x4_t,
        odd: float32x4_t,
        neg_plus: i32,
    ) -> float32x4_t {
        let q_odd = vceqq_s32(vandq_s32(q, vdupq_n_s32(1)), vdupq_n_s32(1));
        let v = vbslq_f32(q_odd, odd, even);
        let qn = vaddq_s32(q, vdupq_n_s32(neg_plus));
        let neg = vceqq_s32(vandq_s32(qn, vdupq_n_s32(2)), vdupq_n_s32(2));
        let flip = vandq_u32(neg, vdupq_n_u32(0x8000_0000));
        vreinterpretq_f32_u32(veorq_u32(vreinterpretq_u32_f32(v), flip))
    }

    /// 4-lane Cody–Waite reduction of `fast_sin`/`fast_cos`: `vrndnq_f32`
    /// is the scalar `round_ties_even`, and `vcvtq_s32_f32` of the integral
    /// `k` is exact (NaN → 0, like the scalar `as` cast).
    #[inline]
    unsafe fn reduce4(x: float32x4_t) -> (int32x4_t, float32x4_t) {
        let k = vrndnq_f32(vmulq_f32(x, vdupq_n_f32(std::f32::consts::FRAC_2_PI)));
        let mut r = vsubq_f32(x, vmulq_f32(k, vdupq_n_f32(crate::kernels::PI2_A)));
        r = vsubq_f32(r, vmulq_f32(k, vdupq_n_f32(crate::kernels::PI2_B)));
        r = vsubq_f32(r, vmulq_f32(k, vdupq_n_f32(crate::kernels::PI2_C)));
        let q = vandq_s32(vcvtq_s32_f32(k), vdupq_n_s32(3));
        (q, r)
    }

    /// 4-lane `fast_sin`, bit-identical to the scalar version per lane.
    #[inline]
    unsafe fn fast_sin4(x: float32x4_t) -> float32x4_t {
        let (q, r) = reduce4(x);
        quadrant_select(q, sin_poly4(r), cos_poly4(r), 0)
    }

    /// 4-lane `fast_cos`, bit-identical to the scalar version per lane.
    #[inline]
    unsafe fn fast_cos4(x: float32x4_t) -> float32x4_t {
        let (q, r) = reduce4(x);
        quadrant_select(q, cos_poly4(r), sin_poly4(r), 1)
    }

    /// # Safety
    ///
    /// Equal slice lengths.
    pub(super) unsafe fn nonlinear_post(vals: &mut [f32], phases: &[f32]) {
        let n = vals.len();
        let mut i = 0;
        while i + 4 <= n {
            let p = vld1q_f32(vals.as_ptr().add(i));
            let b = vld1q_f32(phases.as_ptr().add(i));
            let v = vmulq_f32(fast_cos4(vaddq_f32(p, b)), fast_sin4(p));
            vst1q_f32(vals.as_mut_ptr().add(i), v);
            i += 4;
        }
        while i < n {
            let p = vals[i];
            vals[i] = crate::kernels::fast_cos(p + phases[i]) * crate::kernels::fast_sin(p);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Equal slice lengths.
    pub(super) unsafe fn cos_phase_post(vals: &mut [f32], phases: &[f32]) {
        let n = vals.len();
        let mut i = 0;
        while i + 4 <= n {
            let p = vld1q_f32(vals.as_ptr().add(i));
            let b = vld1q_f32(phases.as_ptr().add(i));
            vst1q_f32(vals.as_mut_ptr().add(i), fast_cos4(vaddq_f32(p, b)));
            i += 4;
        }
        while i < n {
            vals[i] = crate::kernels::fast_cos(vals[i] + phases[i]);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Equal slice lengths.
    pub(super) unsafe fn nonlinear_post_quant(
        vals: &mut [f32],
        phases: &[f32],
        half_sin_phases: &[f32],
    ) {
        let n = vals.len();
        let half = vdupq_n_f32(0.5);
        let two = vdupq_n_f32(2.0);
        let mut i = 0;
        while i + 4 <= n {
            let p = vld1q_f32(vals.as_ptr().add(i));
            let b = vld1q_f32(phases.as_ptr().add(i));
            let hs = vld1q_f32(half_sin_phases.as_ptr().add(i));
            let s = fast_sin4(vaddq_f32(vmulq_f32(two, p), b));
            vst1q_f32(vals.as_mut_ptr().add(i), vsubq_f32(vmulq_f32(half, s), hs));
            i += 4;
        }
        while i < n {
            let p = vals[i];
            vals[i] = 0.5 * crate::kernels::fast_sin(2.0 * p + phases[i]) - half_sin_phases[i];
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Any slice. Lane assignment matches `scalar_abs_sq_sums`: f64 lanes
    /// (0,1) live in one `float64x2_t`, lanes (2,3) in another.
    pub(super) unsafe fn abs_sq_sums(vals: &[f32]) -> (f64, f64) {
        let mut abs01 = vdupq_n_f64(0.0);
        let mut abs23 = vdupq_n_f64(0.0);
        let mut sq01 = vdupq_n_f64(0.0);
        let mut sq23 = vdupq_n_f64(0.0);
        let n = vals.len() / 4 * 4;
        let mut i = 0;
        while i + 4 <= n {
            let v = vld1q_f32(vals.as_ptr().add(i));
            let lo = vcvt_f64_f32(vget_low_f32(v));
            let hi = vcvt_high_f64_f32(v);
            abs01 = vaddq_f64(abs01, vabsq_f64(lo));
            abs23 = vaddq_f64(abs23, vabsq_f64(hi));
            sq01 = vaddq_f64(sq01, vmulq_f64(lo, lo));
            sq23 = vaddq_f64(sq23, vmulq_f64(hi, hi));
            i += 4;
        }
        let mut abs_l = [
            vgetq_lane_f64(abs01, 0),
            vgetq_lane_f64(abs01, 1),
            vgetq_lane_f64(abs23, 0),
            vgetq_lane_f64(abs23, 1),
        ];
        let mut sq_l = [
            vgetq_lane_f64(sq01, 0),
            vgetq_lane_f64(sq01, 1),
            vgetq_lane_f64(sq23, 0),
            vgetq_lane_f64(sq23, 1),
        ];
        for (l, &v) in vals[n..].iter().enumerate() {
            let v = f64::from(v);
            abs_l[l] += v.abs();
            sq_l[l] += v * v;
        }
        (
            ((abs_l[0] + abs_l[1]) + abs_l[2]) + abs_l[3],
            ((sq_l[0] + sq_l[1]) + sq_l[2]) + sq_l[3],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{fast_cos, fast_sin, project_blocked};
    use crate::rng::HdRng;

    fn gaussian(len: usize, rng: &mut HdRng) -> Vec<f32> {
        (0..len).map(|_| rng.next_gaussian() as f32).collect()
    }

    /// Runs `body` once per level this CPU can actually execute, restoring
    /// the auto-detected level afterwards. Serialised via a lock because the
    /// dispatch knob is process-global and `cargo test` is multi-threaded.
    fn with_levels(mut body: impl FnMut(SimdLevel)) {
        let _guard = DISPATCH_LOCK.lock().unwrap();
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Neon] {
            if set_level(level).is_ok() {
                body(level);
            }
        }
        set_level(detect()).unwrap();
    }

    // Every level is bit-identical, so tests running at whatever level is
    // momentarily active (kernels', encoders') stay correct while these
    // tests flip the knob — the lock only serialises the flip-and-restore
    // sections against each other.
    static DISPATCH_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn labels_roundtrip() {
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Neon] {
            assert_eq!(SimdLevel::from_u8(level.as_u8()), Some(level));
        }
        assert_eq!(SimdLevel::from_u8(0), None);
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
    }

    #[test]
    fn preference_parsing() {
        let _guard = DISPATCH_LOCK.lock().unwrap();
        assert!(set_preference("bogus").is_err());
        assert_eq!(set_preference("scalar").unwrap(), SimdLevel::Scalar);
        assert_eq!(set_preference("auto").unwrap(), detect());
        let unsupported = if detect() == SimdLevel::Avx2 {
            "neon"
        } else {
            "avx2"
        };
        assert!(set_preference(unsupported).is_err());
        set_level(detect()).unwrap();
    }

    /// Packs random `dim × n` weights at every runnable level and asserts
    /// the packed projection of `batches`-row inputs is bit-identical to
    /// the scalar reference [`project_blocked`]; scalar must not pack.
    fn assert_packed_matches_blocked(seed: u64, shapes: &[(usize, usize)], batches: &[usize]) {
        let mut rng = HdRng::seed_from(seed);
        for &(n, dim) in shapes {
            let weights = gaussian(dim * n, &mut rng);
            for &batch in batches {
                let rows: Vec<Vec<f32>> = (0..batch).map(|_| gaussian(n, &mut rng)).collect();
                let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
                let mut want = vec![RealHv::default(); batch];
                project_blocked(&weights, n, dim, &row_refs, &mut want);
                with_levels(|level| {
                    let packed = PackedProjection::for_level(level, &weights, n, dim);
                    if level == SimdLevel::Scalar {
                        assert!(packed.is_none());
                        return;
                    }
                    let packed = packed.expect("SIMD level must pack");
                    assert_eq!(packed.level(), level);
                    let mut got = vec![RealHv::default(); batch];
                    packed.project_into(&row_refs, &mut got);
                    for (x, y) in got.iter().zip(&want) {
                        let xb: Vec<u32> = x.as_slice().iter().map(|v| v.to_bits()).collect();
                        let yb: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
                        assert_eq!(xb, yb, "level {level:?} n={n} dim={dim} batch={batch}");
                    }
                });
            }
        }
    }

    #[test]
    fn simd_projection_bit_identical_across_levels() {
        // Prime dims and dims straddling every vector width (4, 8):
        // non-multiples exercise the remainder paths.
        let shapes = [(1, 7), (3, 127), (7, 131), (5, 257), (13, 521)];
        assert_packed_matches_blocked(41, &shapes, &[1, 3, 5]);
    }

    #[test]
    fn packed_projection_matches_blocked() {
        assert_packed_matches_blocked(43, &[(4, 61), (6, 128), (9, 263)], &[5]);
    }

    #[test]
    fn simd_fast_trig_bit_identical_to_scalar() {
        // Every trig post-op against its scalar loop at every level. Random
        // lengths 1–257 exercise the 8-lane (AVX2) and 4-lane (NEON)
        // remainders; a dense sweep covers the encoders' working range; the
        // fixed set adds the quadrant boundaries (multiples of π/4, where
        // the nearest-even rounding must agree), the edges of the
        // documented domain, signed zeros, the smallest normal value and
        // non-finite inputs.
        let mut rng = HdRng::seed_from(61);
        let mut cases: Vec<Vec<f32>> = (0..24)
            .map(|_| {
                let len = 1 + rng.next_below(257);
                (0..len)
                    .map(|_| (rng.next_gaussian() * 4.0) as f32)
                    .collect()
            })
            .collect();
        cases.push((0..4380).map(|i| -30.0 + i as f32 * 0.0137).collect());
        let mut edges: Vec<f32> = (-200i32..=200)
            .map(|q| q as f32 * std::f32::consts::FRAC_PI_4)
            .collect();
        edges.extend([1e4, -1e4, 0.0, -0.0, f32::MIN_POSITIVE]);
        edges.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0]);
        cases.push(edges);
        for args in &cases {
            let phases: Vec<f32> = (0..args.len())
                .map(|_| (rng.next_f64() * std::f64::consts::TAU) as f32)
                .collect();
            let half_sin: Vec<f32> = phases.iter().map(|&b| 0.5 * fast_sin(b)).collect();
            let zip = || args.iter().zip(&phases);
            let want: [Vec<f32>; 3] = [
                zip()
                    .map(|(&p, &b)| fast_cos(p + b) * fast_sin(p))
                    .collect(),
                zip().map(|(&p, &b)| fast_cos(p + b)).collect(),
                zip()
                    .zip(&half_sin)
                    .map(|((&p, &b), &hs)| 0.5 * fast_sin(2.0 * p + b) - hs)
                    .collect(),
            ];
            // Non-finite inputs give NaN on every path.
            for w in &want {
                for (v, x) in w.iter().zip(args) {
                    assert!(x.is_finite() || v.is_nan(), "{x} gave {v}, not NaN");
                }
            }
            with_levels(|level| {
                let mut got = [args.clone(), args.clone(), args.clone()];
                nonlinear_post_fast(&mut got[0], &phases);
                cos_phase_post_fast(&mut got[1], &phases);
                nonlinear_post_quant(&mut got[2], &phases, &half_sin);
                let ops = ["nonlinear", "cos-phase", "quant"];
                for ((op, g), w) in ops.iter().zip(&got).zip(&want) {
                    for ((a, b), x) in g.iter().zip(w).zip(args) {
                        // NaN payloads and signs are unspecified: NaN must
                        // stay NaN, every other value must match its bits.
                        let same = if b.is_nan() {
                            a.is_nan()
                        } else {
                            a.to_bits() == b.to_bits()
                        };
                        assert!(same, "{op} at level {level:?}: {x} gave {a}, scalar {b}");
                    }
                }
            });
        }
    }

    #[test]
    fn dot_i8_matches_reference_across_levels() {
        let mut rng = HdRng::seed_from(53);
        for len in [0usize, 1, 15, 16, 17, 64, 127, 1000] {
            let a: Vec<i8> = (0..len)
                .map(|_| (rng.next_below(255) as i32 - 127) as i8)
                .collect();
            let b: Vec<i8> = (0..len)
                .map(|_| (rng.next_below(255) as i32 - 127) as i8)
                .collect();
            let want: i32 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| i32::from(x) * i32::from(y))
                .sum();
            with_levels(|level| {
                assert_eq!(dot_i8(&a, &b), want, "level {level:?} len={len}");
            });
        }
    }

    #[test]
    fn project_i8_rowmajor_is_bit_identical_across_levels() {
        let mut rng = HdRng::seed_from(61);
        // Dims and widths straddle the 4-dim group and 16-lane chunk sizes,
        // including primes and the scalar remainder paths.
        for (dim, n) in [
            (1usize, 1usize),
            (3, 7),
            (4, 16),
            (7, 17),
            (13, 31),
            (64, 32),
            (97, 33),
        ] {
            let q: Vec<i8> = (0..dim * n)
                .map(|_| (rng.next_below(255) as i32 - 127) as i8)
                .collect();
            let scales: Vec<f32> = (0..dim).map(|_| rng.next_f64() as f32 + 0.1).collect();
            let row: Vec<i8> = (0..n)
                .map(|_| (rng.next_below(255) as i32 - 127) as i8)
                .collect();
            let row_scale = 0.037f32;
            let mut want = vec![0.0f32; dim];
            for (d, o) in want.iter_mut().enumerate() {
                let dot: i32 = q[d * n..(d + 1) * n]
                    .iter()
                    .zip(&row)
                    .map(|(&x, &y)| i32::from(x) * i32::from(y))
                    .sum();
                *o = dot as f32 * (scales[d] * row_scale);
            }
            let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            with_levels(|level| {
                let mut out = vec![0.0f32; dim];
                project_i8_rowmajor(&q, n, &scales, &row, row_scale, &mut out);
                let got_bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_bits, want_bits, "level {level:?} dim={dim} n={n}");
            });
        }
    }

    #[test]
    fn popcount_and_hamming_match_reference_across_levels() {
        let mut rng = HdRng::seed_from(59);
        let a: Vec<u64> = (0..37).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..37).map(|_| rng.next_u64()).collect();
        let pop: usize = a.iter().map(|w| w.count_ones() as usize).sum();
        let ham: usize = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x ^ y).count_ones() as usize)
            .sum();
        with_levels(|level| {
            assert_eq!(popcount_words(&a), pop, "level {level:?}");
            assert_eq!(hamming_words(&a, &b), ham, "level {level:?}");
        });
    }

    #[test]
    fn pack_signs_matches_threshold_across_levels() {
        let mut rng = HdRng::seed_from(67);
        for len in [1usize, 63, 64, 65, 127, 256, 300] {
            let mut vals: Vec<f32> = (0..len).map(|_| rng.next_gaussian() as f32).collect();
            // Exercise the exact threshold edge cases.
            vals[0] = 0.0;
            if len > 2 {
                vals[1] = -0.0;
                vals[2] = f32::NAN;
            }
            let mut want = vec![0u64; len.div_ceil(64)];
            for (d, &v) in vals.iter().enumerate() {
                if v > 0.0 {
                    want[d / 64] |= 1u64 << (d % 64);
                }
            }
            with_levels(|level| {
                let mut words = vec![u64::MAX; len.div_ceil(64)];
                pack_signs(&vals, &mut words);
                assert_eq!(words, want, "level {level:?} len={len}");
            });
        }
    }

    #[test]
    fn abs_sq_sums_bit_identical_across_levels() {
        let mut rng = HdRng::seed_from(71);
        for len in [0usize, 1, 3, 4, 7, 64, 127, 513] {
            let vals: Vec<f32> = (0..len).map(|_| rng.next_gaussian() as f32).collect();
            let naive_abs: f64 = vals.iter().map(|&v| f64::from(v).abs()).sum();
            let naive_sq: f64 = vals.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
            let mut want: Option<(u64, u64)> = None;
            with_levels(|level| {
                let (a, s) = abs_sq_sums(&vals);
                // Lane-blocked accumulation must agree with the naive sum to
                // rounding, and bit-exactly across levels.
                assert!(
                    (a - naive_abs).abs() <= 1e-9 * naive_abs.max(1.0),
                    "level {level:?}"
                );
                assert!(
                    (s - naive_sq).abs() <= 1e-9 * naive_sq.max(1.0),
                    "level {level:?}"
                );
                match &want {
                    None => want = Some((a.to_bits(), s.to_bits())),
                    Some(w) => {
                        assert_eq!((a.to_bits(), s.to_bits()), *w, "level {level:?} len={len}")
                    }
                }
            });
        }
    }

    #[test]
    fn unsupported_level_is_rejected() {
        let _guard = DISPATCH_LOCK.lock().unwrap();
        let unsupported = match detect() {
            SimdLevel::Avx2 => SimdLevel::Neon,
            _ => SimdLevel::Avx2,
        };
        let before = active();
        assert!(set_level(unsupported).is_err());
        assert_eq!(active(), before, "failed set must not change the knob");
    }
}
