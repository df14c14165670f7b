//! # reghd-serve — concurrent inference for trained RegHD models
//!
//! The serving subsystem: a [`registry::ModelRegistry`] of hot-swappable
//! named models loaded from `.rghd` bundles, a [`batcher::Batcher`] that
//! micro-batches incoming rows, a fixed [`worker::WorkerPool`] executing
//! batched predictions, lock-free [`metrics`], and the protocol-independent
//! [`admin`] surface (stats rendering, integrity sweeps, admin verbs). The
//! network front-end that puts these on a socket is the RGNP server in
//! `reghd-net`.
//!
//! Everything is built on `std` (threads, channels, atomics) — no
//! external runtime. A trained [`bundle::ModelBundle`] is immutable while
//! served, so one copy of the learned state is shared by every worker
//! thread; hot swaps replace the `Arc` atomically and in-flight requests
//! finish on the version they resolved.
//!
//! ```no_run
//! use reghd_serve::admin;
//! use reghd_serve::registry::ModelRegistry;
//! use reghd_serve::MetricsHub;
//!
//! let registry = ModelRegistry::new();
//! registry.load("demo", "model.rghd").unwrap();
//! let y = registry.get("demo").unwrap().bundle.predict(&[vec![0.5, 1.5]]).unwrap();
//! println!("demo predicts {}", y[0]);
//! // The same sweep the server's `sweep` admin verb runs:
//! let report = admin::run_sweep(&registry, &MetricsHub::new());
//! assert_eq!(report.checked, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod batcher;
pub mod bundle;
pub mod faults;
pub mod metrics;
pub mod registry;
pub mod shed;
pub mod status;
pub mod worker;

pub use batcher::{Batcher, BatcherConfig, EnqueueResult};
pub use bundle::{ModelBundle, SectionFrames};
pub use faults::FaultInjector;
pub use metrics::{LatencyHistogram, MetricsHub, ModelMetrics};
pub use registry::{
    ModelMeta, ModelRegistry, ModelResolver, ResolverHealth, ResolverPolicy, ServedModel,
    SweepReport,
};
pub use shed::{ShedConfig, ShedController};
pub use status::TrainStatus;
pub use worker::{Batch, CompletionGuard, ReplySink, WorkError, WorkItem, WorkerPool};

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a mutex, recovering from poisoning.
///
/// Every mutex in this crate guards state that stays structurally valid
/// even if a holder panicked mid-critical-section (atomic counters, maps of
/// `Arc`s, queues of self-contained items), so the right response to poison
/// is to keep serving rather than propagate the panic to every other
/// thread — a poisoned batcher lock must not take the whole server down.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks an `RwLock`, recovering from poisoning (see
/// [`lock_unpoisoned`] for why recovery is sound here).
pub(crate) fn read_unpoisoned<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks an `RwLock`, recovering from poisoning (see
/// [`lock_unpoisoned`]).
pub(crate) fn write_unpoisoned<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Errors surfaced by the serving subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem or socket failure.
    Io(std::io::Error),
    /// A bundle failed to parse or validate (including `.rghd` v2
    /// checksum mismatches).
    Bundle(String),
    /// No model is loaded under the requested name.
    NotFound(String),
    /// A model is already loaded under the requested name.
    AlreadyLoaded(String),
    /// A reloaded bundle parsed but failed its canary replay; the
    /// previously served version was kept (automatic rollback).
    Canary(String),
    /// A background thread could not be spawned.
    Spawn(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Bundle(msg) => write!(f, "bad bundle: {msg}"),
            Self::NotFound(name) => write!(f, "unknown model {name}"),
            Self::AlreadyLoaded(name) => write!(f, "model {name} already loaded"),
            Self::Canary(msg) => write!(f, "canary check failed: {msg}"),
            Self::Spawn(e) => write!(f, "cannot spawn thread: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelRegistry>();
        assert_send_sync::<ModelBundle>();
        assert_send_sync::<MetricsHub>();
        assert_send_sync::<WorkerPool>();
        assert_send_sync::<Batcher>();
    }

    #[test]
    fn errors_render_with_context() {
        let e = ServeError::NotFound("m".to_string());
        assert_eq!(e.to_string(), "unknown model m");
        let e = ServeError::Bundle("bad magic".to_string());
        assert!(e.to_string().contains("bad magic"));
        let e = ServeError::Canary("row 0 drifted".to_string());
        assert!(e.to_string().contains("canary"), "{e}");
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        // Poison the mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison");
        })
        .join();
        assert!(m.lock().is_err(), "mutex must actually be poisoned");
        assert_eq!(*lock_unpoisoned(&m), 7);

        let l = std::sync::Arc::new(RwLock::new(3u32));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write().unwrap();
            panic!("poison");
        })
        .join();
        assert_eq!(*read_unpoisoned(&l), 3);
        *write_unpoisoned(&l) = 4;
        assert_eq!(*read_unpoisoned(&l), 4);
    }
}
