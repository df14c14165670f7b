//! # reghd-repro — reproduction of RegHD (DAC 2021)
//!
//! Umbrella crate tying the workspace together. It re-exports every
//! sub-crate so examples and integration tests can use one dependency:
//!
//! * [`hdc`] — hyperdimensional computing substrate (hypervectors,
//!   similarity metrics, bundling, capacity analysis, noise injection).
//! * [`encoding`] — similarity-preserving encoders (paper §2.2).
//! * [`datasets`] — the seven evaluation workloads as synthetic
//!   equivalents, plus metrics and data plumbing.
//! * [`reghd`] — the paper's contribution: single-model (§2.3),
//!   multi-model (§2.4), and quantised (§3) hyperdimensional regression.
//! * [`baselines`] — the Table 1 comparators (DNN, linear, tree, SVR,
//!   Baseline-HD), all from scratch.
//! * [`hwmodel`] — the operation-level hardware cost model that stands in
//!   for the paper's FPGA/RPi measurements.
//! * [`reghd_serve`] — concurrent inference: hot-swappable registry,
//!   micro-batching, admin verbs, fault tolerance.
//! * [`reghd_net`] — the RGNP network front-end: epoll poller pool,
//!   pipelined binary protocol, open-loop load generator (see
//!   `docs/PROTOCOL.md`).
//! * [`reghd_store`] — sharded per-user model store: mmap packfiles with
//!   lazily verified sections, hot LRU, canary-gated delta publication.
//! * [`reghd_train`] — streaming training: prequential pipeline, drift
//!   detection, checkpointing, hot-swap publication.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ```
//! use reghd_repro::prelude::*;
//!
//! let ds = datasets::paper::boston(7);
//! let (train, test) = datasets::split::train_test_split(&ds, 0.2, 7);
//! let cfg = RegHdConfig::builder().dim(1024).models(4).max_epochs(10).build();
//! let enc = NonlinearEncoder::new(ds.num_features(), 1024, 7);
//! let mut model = RegHdRegressor::new(cfg, Box::new(enc));
//! model.fit(&train.features, &train.targets);
//! let mse = datasets::metrics::mse(&model.predict(&test.features), &test.targets);
//! assert!(mse < 2.0 * test.target_variance());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use datasets;
pub use encoding;
pub use hdc;
pub use hwmodel;
pub use reghd;
pub use reghd_net;
pub use reghd_serve;
pub use reghd_store;
pub use reghd_train;
pub use rl;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use baselines::{
        BaselineHd, ForestRegressor, GbtRegressor, KnnRegressor, LinearRegressor, MeanRegressor,
        MlpRegressor, SvrRegressor, TreeRegressor,
    };
    pub use datasets::{self, Dataset};
    pub use encoding::{Encoder, IdLevelEncoder, NonlinearEncoder, ProjectionEncoder, RffEncoder};
    pub use hdc::{BinaryHv, BipolarHv, RealHv};
    pub use hwmodel::{DeviceProfile, OpCount};
    pub use reghd::{
        config::{ClusterMode, PredictionMode, UpdateRule},
        FitReport, OnlineRegHd, RegHdConfig, RegHdRegressor, Regressor, SingleHdRegressor,
    };
    pub use rl::{Environment, HdQAgent, LineWorld, MountainCar, QConfig};
}
