//! The projection core shared by the three projection encoders.
//!
//! [`crate::NonlinearEncoder`] (Eq. 1), [`crate::RffEncoder`] and
//! [`crate::ProjectionEncoder`] are one random projection `p = ⟨F, W_d⟩`
//! followed by a per-component post-op — `cos(p + b)·sin(p)`, `cos(p + b)`
//! and the identity. [`ProjectionCore`] owns everything but the post-op:
//!
//! * the row-major `dim × input_dim` f32 weights and the phases `b`;
//! * the §3.2 int8 copy of the weights, for the encoders with an int8 tier;
//! * the lane-major SIMD packing, built lazily for the active level;
//! * the process-wide, spec-keyed cache through which every live encoder
//!   of one spec shares these tables.
//!
//! The one-row projection is the batch matvec on a batch of one, so an
//! encoder's scalar `encode` and its batch path run the same arithmetic:
//! every component sums its `k` terms in ascending order from `+0.0`
//! (see [`hdc::kernels`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use hdc::kernels::{fast_sin, project_blocked};
use hdc::quant::{quantize_i8, QuantizedWeights};
use hdc::rng::HdRng;
use hdc::simd::{PackedProjection, SimdLevel};
use hdc::{BipolarHv, RealHv, TrigMode};

/// Which encoder the tables belong to. Each kind draws its weights with
/// its own expression, and the cache key carries the kind, so encoders of
/// different kinds never share tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Kind {
    /// Eq. 1: `scale · g` Gaussian weights with `scale = 1/√n`, then phases.
    Nonlinear,
    /// Random Fourier features: `g / σ` Gaussian weights, then phases. The
    /// bandwidth σ is keyed by its f32 bits.
    Rff { bandwidth_bits: u32 },
    /// Linear projection: one bipolar base hypervector per feature, drawn
    /// feature-major and stored as ±1.0 rows; no phases.
    Projection,
}

type SpecKey = (Kind, usize, usize, u64);

/// The spec-derived state shared by every encoder of one spec.
#[derive(Debug)]
pub(crate) struct Tables {
    /// Row-major projection matrix: `dim` rows × `input_dim`.
    weights: Vec<f32>,
    /// `b`: random phase offsets, uniform in `[0, 2π)` (empty for
    /// [`Kind::Projection`]).
    phases: Vec<f32>,
    /// §3.2 int8 copy of the weights (one scale per output dim), for the
    /// kinds with an int8 tier.
    quant: Option<QuantizedWeights>,
    /// `½·sin(b[d])` per dimension, [`Kind::Nonlinear`] only: the bias term
    /// of Eq. 1's product-to-sum expansion, precomputed so its int8 tier
    /// evaluates one sine per component instead of a sin·cos pair.
    half_sin_phases: Vec<f32>,
    /// Lane-major weight packing, built at the first projection under a
    /// SIMD level so the per-call transpose cost disappears from the
    /// serving path. It is never built while the active level is scalar,
    /// so a spec first touched under `scalar` still packs once the
    /// detected level is activated — the only SIMD level a process can run.
    packed: OnceLock<Option<PackedProjection>>,
}

impl Tables {
    fn generate(kind: Kind, input_dim: usize, dim: usize, seed: u64) -> Self {
        let mut rng = HdRng::seed_from(seed);
        let weights: Vec<f32> = match kind {
            Kind::Nonlinear => {
                let scale = 1.0 / (input_dim as f32).sqrt();
                (0..dim * input_dim)
                    .map(|_| scale * rng.next_gaussian() as f32)
                    .collect()
            }
            Kind::Rff { bandwidth_bits } => {
                let bandwidth = f32::from_bits(bandwidth_bits);
                (0..dim * input_dim)
                    .map(|_| (rng.next_gaussian() as f32) / bandwidth)
                    .collect()
            }
            Kind::Projection => {
                let mut weights = vec![0.0f32; dim * input_dim];
                for k in 0..input_dim {
                    let base = BipolarHv::random(dim, &mut rng);
                    for (d, &b) in base.as_slice().iter().enumerate() {
                        weights[d * input_dim + k] = f32::from(b);
                    }
                }
                weights
            }
        };
        let phased = kind != Kind::Projection;
        let phases: Vec<f32> = if phased {
            (0..dim)
                .map(|_| (rng.next_f64() * std::f64::consts::TAU) as f32)
                .collect()
        } else {
            Vec::new()
        };
        let quant = phased.then(|| QuantizedWeights::from_f32(&weights, input_dim, dim));
        let half_sin_phases = if kind == Kind::Nonlinear {
            phases.iter().map(|&b| 0.5 * fast_sin(b)).collect()
        } else {
            Vec::new()
        };
        Self {
            weights,
            phases,
            quant,
            half_sin_phases,
            packed: OnceLock::new(),
        }
    }
}

/// Process-wide `spec → tables` map. It holds only `Weak` handles, so the
/// tables die with the last encoder using them; dead entries are pruned
/// whenever the map has doubled since the last prune, which keeps the map
/// within a constant factor of the live specs at O(1) amortised cost per
/// build.
#[derive(Default)]
pub(crate) struct TableCache {
    pub(crate) map: HashMap<SpecKey, Weak<Tables>>,
    /// Map length right after the last prune.
    pruned_len: usize,
}

/// Below this many entries the cache is never pruned.
pub(crate) const MIN_PRUNE_LEN: usize = 64;

pub(crate) fn table_cache() -> MutexGuard<'static, TableCache> {
    static CACHE: OnceLock<Mutex<TableCache>> = OnceLock::new();
    // Every update (insert, retain) leaves the map of weak handles valid,
    // so a guard poisoned by a panicking holder is safe to reuse.
    CACHE
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

impl TableCache {
    fn live(&self, key: &SpecKey) -> Option<Arc<Tables>> {
        self.map.get(key).and_then(Weak::upgrade)
    }

    fn insert(&mut self, key: SpecKey, tables: &Arc<Tables>) {
        self.map.insert(key, Arc::downgrade(tables));
        if self.map.len() >= (2 * self.pruned_len).max(MIN_PRUNE_LEN) {
            self.map.retain(|_, t| t.strong_count() > 0);
            self.pruned_len = self.map.len();
        }
    }
}

/// The shared tables of `key`, generating them if no live encoder holds
/// them.
fn shared_tables(key: SpecKey) -> Arc<Tables> {
    if let Some(tables) = table_cache().live(&key) {
        return tables;
    }
    // Generated outside the lock: lookups of other specs must not queue
    // behind `dim × input_dim` random draws. A thread racing on the same
    // spec generated identical tables; the first one inserted wins.
    let (kind, input_dim, dim, seed) = key;
    let built = Arc::new(Tables::generate(kind, input_dim, dim, seed));
    let mut cache = table_cache();
    if let Some(tables) = cache.live(&key) {
        return tables;
    }
    cache.insert(key, &built);
    built
}

/// The shared projection of one encoder: the spec's tables plus the
/// one-row, batch and int8 matvecs over them. Encoders supply only the
/// per-component post-op.
#[derive(Debug, Clone)]
pub(crate) struct ProjectionCore {
    pub(crate) tables: Arc<Tables>,
    input_dim: usize,
    dim: usize,
}

impl ProjectionCore {
    /// The core of spec `(kind, input_dim, dim, seed)`, sharing the tables
    /// of any live encoder of that spec.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0` or `dim == 0`.
    pub(crate) fn new(kind: Kind, input_dim: usize, dim: usize, seed: u64) -> Self {
        assert!(input_dim > 0, "input_dim must be nonzero");
        assert!(dim > 0, "dim must be nonzero");
        Self {
            tables: shared_tables((kind, input_dim, dim, seed)),
            input_dim,
            dim,
        }
    }

    /// How many live cores (clones included) share the tables of the spec;
    /// `0` once the last one is dropped and its tables are freed.
    pub(crate) fn holders(kind: Kind, input_dim: usize, dim: usize, seed: u64) -> usize {
        table_cache()
            .map
            .get(&(kind, input_dim, dim, seed))
            .map_or(0, Weak::strong_count)
    }

    pub(crate) fn input_dim(&self) -> usize {
        self.input_dim
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// The row-major `dim × input_dim` weights.
    pub(crate) fn weights(&self) -> &[f32] {
        &self.tables.weights
    }

    /// The phases `b` (empty for [`Kind::Projection`]).
    pub(crate) fn phases(&self) -> &[f32] {
        &self.tables.phases
    }

    /// `½·sin(b[d])` per dimension (empty unless [`Kind::Nonlinear`]).
    pub(crate) fn half_sin_phases(&self) -> &[f32] {
        &self.tables.half_sin_phases
    }

    /// The SIMD weight packing for the active dispatch level, or `None`
    /// when the active level is scalar.
    pub(crate) fn packed_for_active(&self) -> Option<&PackedProjection> {
        let level = hdc::simd::active();
        if level == SimdLevel::Scalar {
            return None;
        }
        let t = &*self.tables;
        t.packed
            .get_or_init(|| {
                PackedProjection::for_level(level, &t.weights, self.input_dim, self.dim)
            })
            .as_ref()
            .filter(|p| p.level() == level)
    }

    /// `outs[r][d] = ⟨rows[r], W_d⟩`: the pre-packed SIMD layout skips the
    /// per-call weight transpose; on level mismatch (or scalar dispatch)
    /// `project_blocked` runs the same matvec bit-identically.
    fn project(&self, rows: &[&[f32]], outs: &mut [RealHv]) {
        match self.packed_for_active() {
            Some(packed) => packed.project_into(rows, outs),
            None => project_blocked(&self.tables.weights, self.input_dim, self.dim, rows, outs),
        }
    }

    fn check_width(&self, features: &[f32]) {
        assert_eq!(
            features.len(),
            self.input_dim,
            "encode: expected {} features, got {}",
            self.input_dim,
            features.len()
        );
    }

    /// Projects one row and applies `post` to the projected values.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != input_dim`.
    pub(crate) fn encode(&self, features: &[f32], post: impl FnOnce(&mut [f32])) -> RealHv {
        self.check_width(features);
        let mut out = [RealHv::default()];
        self.project(&[features], &mut out);
        let [mut hv] = out;
        post(hv.as_mut_slice());
        hv
    }

    /// Projects a batch into the pre-allocated `out` slots, split across up
    /// to `threads` scoped threads, and applies `post` to every slot.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `out` disagree in length or a row is not
    /// `input_dim` wide.
    pub(crate) fn encode_batch_into(
        &self,
        rows: &[Vec<f32>],
        out: &mut [RealHv],
        threads: usize,
        post: impl Fn(&mut [f32]) + Sync,
    ) {
        let threads = hdc::par::resolve_threads(threads);
        hdc::par::chunked_zip_mut(rows, out, threads, |part, out_part| {
            let row_refs: Vec<&[f32]> = part.iter().map(Vec::as_slice).collect();
            self.project(&row_refs, out_part);
            for hv in out_part.iter_mut() {
                post(hv.as_mut_slice());
            }
        });
    }

    /// The int8 projection of one row into `out` (§3.2), for the caller to
    /// apply its int8-tier post-op to.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != input_dim`, `out.len() != dim`, or the
    /// spec's kind has no int8 tier.
    pub(crate) fn project_quantized_into(&self, features: &[f32], out: &mut [f32]) {
        self.check_width(features);
        assert_eq!(out.len(), self.dim, "output width must match dim");
        let quant = self
            .tables
            .quant
            .as_ref()
            .expect("int8 weights exist for every phased kind");
        let mut row_q = Vec::with_capacity(self.input_dim);
        let row_scale = quantize_i8(features, &mut row_q);
        quant.project_row_into(&row_q, row_scale, out);
    }
}

/// A per-encoder [`TrigMode`] knob, atomic so it is flippable through
/// `&self` on a shared encoder; a clone starts in the original's mode.
#[derive(Debug)]
pub(crate) struct TrigKnob(AtomicU8);

impl Default for TrigKnob {
    fn default() -> Self {
        Self(AtomicU8::new(TrigMode::Exact.as_u8()))
    }
}

impl Clone for TrigKnob {
    fn clone(&self) -> Self {
        Self(AtomicU8::new(self.0.load(Ordering::Relaxed)))
    }
}

impl TrigKnob {
    pub(crate) fn get(&self) -> TrigMode {
        TrigMode::from_u8(self.0.load(Ordering::Relaxed))
    }

    pub(crate) fn set(&self, mode: TrigMode) {
        self.0.store(mode.as_u8(), Ordering::Relaxed);
    }
}
