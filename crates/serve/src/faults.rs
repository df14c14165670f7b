//! Seeded, deterministic fault injection for the serving subsystem.
//!
//! The paper's robustness claim (§3: "hypervectors store information across
//! all their components so that no component is more responsible for
//! storing any piece of information than another") is evaluated offline by
//! `hdc::noise` and the `robustness` bench. This module carries the same
//! fault model **online**: a [`FaultInjector`] shared between the server,
//! worker pool, and test harnesses can
//!
//! * flip bits (sign-flip components) in *served* model hypervectors —
//!   via [`crate::registry::ModelRegistry::inject_model_faults`], which
//!   reuses `hdc::noise` on a cloned model state;
//! * corrupt or truncate bundle bytes before a load ([`corrupt_bytes`]);
//! * delay, kill, or panic worker threads mid-batch.
//!
//! Every random choice takes an explicit seed (the bit-flip seed, the
//! [`HdRng`] handed to [`corrupt_bytes`]), so a chaos run is reproducible.
//! All knobs default to *off*; a default injector is inert and costs one
//! relaxed atomic load per check.

use hdc::rng::HdRng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Byte-level bundle corruption modes used by load-integrity tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteFault {
    /// XOR one randomly chosen payload byte with a random nonzero mask.
    FlipByte,
    /// Drop a random-length tail of the buffer.
    Truncate,
}

/// Corrupts `bytes` in place per `fault`, deterministically from `rng`.
/// Returns the affected offset (flip) or the new length (truncate).
///
/// The first six bytes (magic + version) are left intact so the corruption
/// exercises the *checksum* path rather than the format-detection path.
pub fn corrupt_bytes(bytes: &mut Vec<u8>, fault: ByteFault, rng: &mut HdRng) -> usize {
    match fault {
        ByteFault::FlipByte => {
            if bytes.len() <= 6 {
                return 0;
            }
            let idx = 6 + rng.next_below(bytes.len() - 6);
            let mask = (rng.next_below(255) + 1) as u8;
            bytes[idx] ^= mask;
            idx
        }
        ByteFault::Truncate => {
            if bytes.len() <= 6 {
                return bytes.len();
            }
            let keep = 6 + rng.next_below(bytes.len() - 6);
            bytes.truncate(keep);
            keep
        }
    }
}

/// Shared fault state consulted by the worker pool.
///
/// All methods take `&self`; the injector is designed to sit behind an
/// `Arc` shared by every thread in the server.
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Per-batch worker sleep, in microseconds. 0 = off.
    worker_delay_us: AtomicU64,
    /// Number of pending worker kills (each worker that picks one up
    /// exits, dropping its current batch).
    pending_kills: AtomicUsize,
    /// Number of pending deliberate worker panics (each panics mid-batch
    /// inside the pool's containment boundary).
    pending_panics: AtomicUsize,
}

impl FaultInjector {
    /// Creates an inert injector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every knob to off. Pending kills/panics are discarded.
    pub fn clear(&self) {
        self.worker_delay_us.store(0, Ordering::Relaxed);
        self.pending_kills.store(0, Ordering::Relaxed);
        self.pending_panics.store(0, Ordering::Relaxed);
    }

    /// Makes every worker sleep for `d` before executing each batch
    /// (emulating a stalled model call). `Duration::ZERO` turns it off.
    pub fn set_worker_delay(&self, d: Duration) {
        self.worker_delay_us.store(
            d.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// The currently configured per-batch delay, if any.
    pub fn worker_delay(&self) -> Option<Duration> {
        match self.worker_delay_us.load(Ordering::Relaxed) {
            0 => None,
            us => Some(Duration::from_micros(us)),
        }
    }

    /// Schedules `n` worker kills. Each is consumed by one worker thread,
    /// which exits as if it crashed (its in-flight batch is dropped, so
    /// waiting clients observe a disconnected reply channel). The pool
    /// refuses to kill its last live worker.
    pub fn kill_workers(&self, n: usize) {
        self.pending_kills.fetch_add(n, Ordering::Relaxed);
    }

    /// Consumes one pending kill, if any.
    pub fn take_kill(&self) -> bool {
        take_one(&self.pending_kills)
    }

    /// Schedules `n` deliberate worker panics (testing the pool's panic
    /// containment boundary).
    pub fn panic_batches(&self, n: usize) {
        self.pending_panics.fetch_add(n, Ordering::Relaxed);
    }

    /// Consumes one pending panic, if any.
    pub fn take_panic(&self) -> bool {
        take_one(&self.pending_panics)
    }

    /// Whether any fault is currently armed (for `stats` reporting).
    pub fn any_armed(&self) -> bool {
        self.worker_delay_us.load(Ordering::Relaxed) != 0
            || self.pending_kills.load(Ordering::Relaxed) != 0
            || self.pending_panics.load(Ordering::Relaxed) != 0
    }
}

/// Decrements `counter` if positive; returns whether it did. Lock-free
/// compare-exchange loop so concurrent workers never double-consume.
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
        let inj = FaultInjector::new();
        assert!(inj.worker_delay().is_none());
        assert!(!inj.take_kill());
        assert!(!inj.take_panic());
        assert!(!inj.any_armed());
    }

    #[test]
    fn kills_and_panics_are_consumed_exactly() {
        let inj = FaultInjector::new();
        inj.kill_workers(2);
        inj.panic_batches(1);
        assert!(inj.any_armed());
        assert!(inj.take_kill());
        assert!(inj.take_kill());
        assert!(!inj.take_kill());
        assert!(inj.take_panic());
        assert!(!inj.take_panic());
        assert!(!inj.any_armed());
    }

    #[test]
    fn delay_round_trips() {
        let inj = FaultInjector::new();
        inj.set_worker_delay(Duration::from_millis(7));
        assert_eq!(inj.worker_delay(), Some(Duration::from_millis(7)));
        inj.set_worker_delay(Duration::ZERO);
        assert!(inj.worker_delay().is_none());
    }

    #[test]
    fn corrupt_flip_changes_one_byte_past_header() {
        let mut rng = HdRng::seed_from(4);
        let original: Vec<u8> = (0..200u8).collect();
        let mut bytes = original.clone();
        let idx = corrupt_bytes(&mut bytes, ByteFault::FlipByte, &mut rng);
        assert!(idx >= 6);
        assert_eq!(bytes.len(), original.len());
        let diffs: Vec<usize> = (0..bytes.len())
            .filter(|&i| bytes[i] != original[i])
            .collect();
        assert_eq!(diffs, vec![idx]);
    }

    #[test]
    fn corrupt_truncate_keeps_header() {
        let mut rng = HdRng::seed_from(5);
        let mut bytes: Vec<u8> = (0..100u8).collect();
        let keep = corrupt_bytes(&mut bytes, ByteFault::Truncate, &mut rng);
        assert_eq!(bytes.len(), keep);
        assert!(keep >= 6);
        assert!(keep < 100);
    }

    #[test]
    fn injector_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultInjector>();
    }
}
