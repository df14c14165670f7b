//! Deterministic storage fault injection for the model store.
//!
//! The serving crate's [`reghd_serve::faults::FaultInjector`] stresses the
//! compute path (worker kills, stalls, panics); this module
//! is its disk-side twin. A [`StoreFaultInjector`] shared by a store's
//! shards arms **counted** faults — each armed unit is consumed by exactly
//! one I/O operation, so a chaos run can say "the next three appends hit
//! ENOSPC" and assert precisely what survives:
//!
//! * **ENOSPC appends** — a pack append fails before any byte is written;
//! * **short writes** — a pack append persists only a prefix of the blob,
//!   then fails (torn blob; the tracked pack length advances by the bytes
//!   actually written so later appends stay consistent);
//! * **fsync failures** — [`PackSet::sync_active`] or the index-log
//!   append's durability sync reports `EIO`;
//! * **torn renames** — [`pack::rewrite_index_log`] writes and syncs the
//!   temp file but "crashes" before the rename commits, leaving the old
//!   log in place.
//!
//! Counters (not probabilities) keep runs reproducible without any RNG:
//! the fault fires on the next matching operation, full stop. All knobs
//! default to off; an unarmed injector costs one relaxed atomic load per
//! I/O operation.
//!
//! [`PackSet::sync_active`]: crate::pack::PackSet::sync_active
//! [`pack::rewrite_index_log`]: crate::pack::rewrite_index_log

use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shared, counted storage-fault state consulted by the pack layer.
///
/// Designed to sit behind an `Arc` shared by every shard of one
/// [`crate::ModelStore`] (and the chaos harness arming it).
#[derive(Debug, Default)]
pub struct StoreFaultInjector {
    /// Pending appends that fail with ENOSPC before writing.
    enospc_appends: AtomicUsize,
    /// Pending appends that persist only a prefix, then fail.
    short_writes: AtomicUsize,
    /// Pending durability syncs (pack or index log) that fail with EIO.
    fsync_failures: AtomicUsize,
    /// Pending index-log rewrites whose commit rename is lost.
    torn_renames: AtomicUsize,
    /// Total faults actually fired (for chaos-run accounting).
    injected: AtomicU64,
}

impl StoreFaultInjector {
    /// Creates an inert injector; every knob starts at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `n` ENOSPC append failures.
    pub fn arm_enospc_appends(&self, n: usize) {
        self.enospc_appends.fetch_add(n, Ordering::Relaxed);
    }

    /// Arms `n` short (torn-blob) writes.
    pub fn arm_short_writes(&self, n: usize) {
        self.short_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Arms `n` fsync failures.
    pub fn arm_fsync_failures(&self, n: usize) {
        self.fsync_failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Arms `n` torn index-log renames.
    pub fn arm_torn_renames(&self, n: usize) {
        self.torn_renames.fetch_add(n, Ordering::Relaxed);
    }

    /// Consumes one pending ENOSPC append, if armed.
    pub fn take_enospc_append(&self) -> bool {
        self.fire(&self.enospc_appends)
    }

    /// Consumes one pending short write, if armed.
    pub fn take_short_write(&self) -> bool {
        self.fire(&self.short_writes)
    }

    /// Consumes one pending fsync failure, if armed.
    pub fn take_fsync_failure(&self) -> bool {
        self.fire(&self.fsync_failures)
    }

    /// Consumes one pending torn rename, if armed.
    pub fn take_torn_rename(&self) -> bool {
        self.fire(&self.torn_renames)
    }

    /// Resets every knob to off; pending faults are discarded. The
    /// `injected` total is kept — it counts history, not state.
    pub fn clear(&self) {
        self.enospc_appends.store(0, Ordering::Relaxed);
        self.short_writes.store(0, Ordering::Relaxed);
        self.fsync_failures.store(0, Ordering::Relaxed);
        self.torn_renames.store(0, Ordering::Relaxed);
    }

    /// Whether any fault is currently armed.
    pub fn any_armed(&self) -> bool {
        self.enospc_appends.load(Ordering::Relaxed) != 0
            || self.short_writes.load(Ordering::Relaxed) != 0
            || self.fsync_failures.load(Ordering::Relaxed) != 0
            || self.torn_renames.load(Ordering::Relaxed) != 0
    }

    /// Total faults fired since construction.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn fire(&self, counter: &AtomicUsize) -> bool {
        if take_one(counter) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

/// The error an injected ENOSPC append surfaces.
pub fn enospc_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        "injected: no space left on device",
    )
}

/// The error an injected short write surfaces after persisting `wrote` of
/// `total` bytes.
pub fn short_write_error(wrote: usize, total: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::WriteZero,
        format!("injected: short write ({wrote} of {total} bytes)"),
    )
}

/// The error an injected fsync failure surfaces.
pub fn fsync_error() -> io::Error {
    io::Error::other("injected: fsync failed")
}

/// The error an injected torn rename surfaces.
pub fn torn_rename_error() -> io::Error {
    io::Error::other("injected: crash before index.log rename committed")
}

/// Decrements `counter` if positive; returns whether it did. Lock-free
/// compare-exchange loop so concurrent shards never double-consume.
fn take_one(counter: &AtomicUsize) -> bool {
    let mut cur = counter.load(Ordering::Relaxed);
    while cur > 0 {
        match counter.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_by_default() {
        let inj = StoreFaultInjector::new();
        assert!(!inj.any_armed());
        assert!(!inj.take_enospc_append());
        assert!(!inj.take_short_write());
        assert!(!inj.take_fsync_failure());
        assert!(!inj.take_torn_rename());
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn armed_faults_are_consumed_exactly() {
        let inj = StoreFaultInjector::new();
        inj.arm_enospc_appends(2);
        inj.arm_short_writes(1);
        inj.arm_fsync_failures(1);
        inj.arm_torn_renames(1);
        assert!(inj.any_armed());
        assert!(inj.take_enospc_append());
        assert!(inj.take_enospc_append());
        assert!(!inj.take_enospc_append());
        assert!(inj.take_short_write());
        assert!(!inj.take_short_write());
        assert!(inj.take_fsync_failure());
        assert!(inj.take_torn_rename());
        assert!(!inj.any_armed());
        assert_eq!(inj.injected(), 5);
    }

    #[test]
    fn clear_discards_pending_but_keeps_history() {
        let inj = StoreFaultInjector::new();
        inj.arm_enospc_appends(5);
        assert!(inj.take_enospc_append());
        inj.clear();
        assert!(!inj.any_armed());
        assert!(!inj.take_enospc_append());
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn errors_identify_themselves_as_injected() {
        assert!(enospc_error().to_string().contains("injected"));
        assert_eq!(enospc_error().kind(), io::ErrorKind::StorageFull);
        assert!(short_write_error(3, 10).to_string().contains("3 of 10"));
        assert!(fsync_error().to_string().contains("fsync"));
        assert!(torn_rename_error().to_string().contains("rename"));
    }

    #[test]
    fn injector_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreFaultInjector>();
    }
}
