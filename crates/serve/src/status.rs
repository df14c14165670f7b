//! Shared training-status surface.
//!
//! The streaming trainer (the `reghd-train` crate) and the serving
//! front-end run in the same process but must not depend on each other in
//! the wrong direction: `reghd-train` depends on this crate for the
//! registry, so the status type the server renders lives *here*. The
//! trainer updates a [`TrainStatus`] through `Arc`-shared atomics as it
//! consumes samples; the server exposes the latest snapshot through the
//! `train-status` protocol command. All counters are monotone and
//! individually atomic — a reader may observe a momentarily inconsistent
//! combination (e.g. a drift counted before the matching checkpoint), which
//! is fine for an observability surface.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Live counters describing an attached streaming trainer.
///
/// Constructed by the trainer, shared with the server via
/// `reghd_net::NetConfig::train_status`.
#[derive(Debug, Default)]
pub struct TrainStatus {
    samples: AtomicU64,
    drift_events: AtomicU64,
    last_drift_sample: AtomicU64, // sample index + 1; 0 = never
    checkpoints: AtomicU64,
    publications: AtomicU64,
    canary_failures: AtomicU64,
    store_publish_retries: AtomicU64,
    cluster_resets: AtomicU64,
    promotions: AtomicU64,
    shadow_active: AtomicBool,
    prequential_mse_bits: AtomicU64,
}

impl TrainStatus {
    /// Creates a zeroed status block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one consumed sample and the trainer's current prequential
    /// MSE (the EWMA of squared predict-then-train errors).
    pub fn record_sample(&self, prequential_mse: f64) {
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.prequential_mse_bits
            .store(prequential_mse.to_bits(), Ordering::Relaxed);
    }

    /// Records a detected drift at `sample` (0-based sample index).
    pub fn record_drift(&self, sample: u64) {
        self.drift_events.fetch_add(1, Ordering::Relaxed);
        self.last_drift_sample.store(sample + 1, Ordering::Relaxed);
    }

    /// Records one checkpoint written to disk.
    pub fn record_checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one successful publication into the registry.
    pub fn record_publication(&self) {
        self.publications.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a publication refused by the canary replay.
    pub fn record_canary_failure(&self) {
        self.canary_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retried store publication attempt (a transient store
    /// failure that was re-tried with backoff rather than surfaced).
    pub fn record_store_publish_retry(&self) {
        self.store_publish_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a drift response that reset a cluster/model pair.
    pub fn record_cluster_reset(&self) {
        self.cluster_resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a shadow model promoted over the primary.
    pub fn record_promotion(&self) {
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks whether a shadow model is currently being trained.
    pub fn set_shadow_active(&self, active: bool) {
        self.shadow_active.store(active, Ordering::Relaxed);
    }

    /// Samples consumed so far.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Drift events detected so far.
    pub fn drift_events(&self) -> u64 {
        self.drift_events.load(Ordering::Relaxed)
    }

    /// Sample index of the most recent drift, if any.
    pub fn last_drift_sample(&self) -> Option<u64> {
        match self.last_drift_sample.load(Ordering::Relaxed) {
            0 => None,
            s => Some(s - 1),
        }
    }

    /// Checkpoints written so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Successful registry publications so far.
    pub fn publications(&self) -> u64 {
        self.publications.load(Ordering::Relaxed)
    }

    /// Publications refused by the canary replay so far.
    pub fn canary_failures(&self) -> u64 {
        self.canary_failures.load(Ordering::Relaxed)
    }

    /// Store publication attempts retried after transient failures.
    pub fn store_publish_retries(&self) -> u64 {
        self.store_publish_retries.load(Ordering::Relaxed)
    }

    /// Cluster resets performed in response to drift.
    pub fn cluster_resets(&self) -> u64 {
        self.cluster_resets.load(Ordering::Relaxed)
    }

    /// Shadow models promoted so far.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Whether a shadow model is currently training.
    pub fn shadow_active(&self) -> bool {
        self.shadow_active.load(Ordering::Relaxed)
    }

    /// The trainer's latest prequential MSE.
    pub fn prequential_mse(&self) -> f64 {
        f64::from_bits(self.prequential_mse_bits.load(Ordering::Relaxed))
    }

    /// Renders the status as the single `train-status` reply line.
    pub fn summary(&self) -> String {
        format!(
            "train samples={} preq_mse={:.6} drift_events={} last_drift={} \
             checkpoints={} publications={} canary_failures={} \
             store_publish_retries={} cluster_resets={} promotions={} \
             shadow={}",
            self.samples(),
            self.prequential_mse(),
            self.drift_events(),
            self.last_drift_sample()
                .map_or_else(|| "never".to_string(), |s| s.to_string()),
            self.checkpoints(),
            self.publications(),
            self.canary_failures(),
            self.store_publish_retries(),
            self.cluster_resets(),
            self.promotions(),
            u8::from(self.shadow_active()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let s = TrainStatus::new();
        assert_eq!(s.last_drift_sample(), None);
        assert!(s.summary().contains("last_drift=never"));

        s.record_sample(0.25);
        s.record_sample(0.16);
        s.record_drift(1);
        s.record_checkpoint();
        s.record_publication();
        s.record_cluster_reset();
        s.set_shadow_active(true);

        assert_eq!(s.samples(), 2);
        assert_eq!(s.drift_events(), 1);
        assert_eq!(s.last_drift_sample(), Some(1));
        assert_eq!(s.checkpoints(), 1);
        assert_eq!(s.publications(), 1);
        assert_eq!(s.canary_failures(), 0);
        assert_eq!(s.cluster_resets(), 1);
        assert!(s.shadow_active());
        assert!((s.prequential_mse() - 0.16).abs() < 1e-12);

        let line = s.summary();
        assert!(line.starts_with("train samples=2"), "{line}");
        assert!(line.contains("drift_events=1"), "{line}");
        assert!(line.contains("last_drift=1"), "{line}");
        assert!(line.contains("shadow=1"), "{line}");
    }

    #[test]
    fn status_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TrainStatus>();
    }
}
