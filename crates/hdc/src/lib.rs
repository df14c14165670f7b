//! # hdc — hyperdimensional computing substrate
//!
//! This crate provides the low-level vector machinery that the RegHD
//! regression system (Hernandez-Cano et al., DAC 2021) is built on:
//! hypervector types in several precisions, similarity metrics,
//! bundling/binding/permutation operators, deterministic seeded generation of
//! random base hypervectors, a capacity analysis module implementing the
//! paper's Eq. 3–4, and noise-injection utilities used to validate the
//! robustness claims of §3.
//!
//! Hyperdimensional (HD) computing represents information as very wide
//! vectors (typically `D` in the thousands). Because information is spread
//! holographically across all components, HD representations are robust to
//! per-component noise, and the core learning operations reduce to cheap,
//! embarrassingly parallel element-wise arithmetic.
//!
//! ## Vector types
//!
//! | Type | Element | Storage | Used for |
//! |---|---|---|---|
//! | [`RealHv`] | `f32` | `Vec<f32>` | encoded queries, integer/float models |
//! | [`BipolarHv`] | `{-1,+1}` | `Vec<i8>` | random base hypervectors `B_k` |
//! | [`BinaryHv`] | `{0,1}` | bit-packed `Vec<u64>` | quantized clusters / models / queries |
//!
//! ## Example
//!
//! ```
//! use hdc::{BipolarHv, BinaryHv, similarity};
//! use hdc::rng::HdRng;
//!
//! let mut rng = HdRng::seed_from(42);
//! let a = BipolarHv::random(1024, &mut rng);
//! let b = BipolarHv::random(1024, &mut rng);
//! // Independent random bipolar hypervectors are nearly orthogonal:
//! let cos = similarity::cosine(&a.to_real(), &b.to_real());
//! assert!(cos.abs() < 0.2);
//!
//! // Binary hypervectors support fast Hamming similarity via popcount:
//! let p = BinaryHv::random(1024, &mut rng);
//! assert_eq!(similarity::hamming_distance(&p, &p), 0);
//! ```

// `deny` rather than `forbid`: the `simd` module (and only that module)
// carries an `allow` for the `std::arch` intrinsic kernels; everything else
// in the crate still refuses unsafe code at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod bipolar;
pub mod capacity;
pub mod dense;
pub mod error;
pub mod item_memory;
pub mod kernels;
pub mod noise;
pub mod ops;
pub mod par;
pub mod quant;
pub mod rng;
pub mod simd;
pub mod similarity;
pub mod wire;

pub use binary::BinaryHv;
pub use bipolar::BipolarHv;
pub use dense::RealHv;
pub use error::{DimensionMismatchError, HdcError};
pub use kernels::TrigMode;
