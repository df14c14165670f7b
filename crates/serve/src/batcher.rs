//! Micro-batching queue in front of the worker pool.
//!
//! Policy: when a worker is idle, pending rows are dispatched immediately
//! (fall-through — no batching tax on a lightly loaded server). When every
//! worker is busy, the dispatcher coalesces arrivals for up to
//! `max_wait` or until `max_batch` rows accumulate, amortising the
//! per-call overhead exactly when throughput matters.
//!
//! The queue is bounded: [`Batcher::enqueue`] refuses rows once
//! `queue_cap` is reached ([`EnqueueResult::Full`] → the server answers
//! `busy`) so a slow model sheds load instead of growing latency without
//! bound. Rows carry an optional deadline: the dispatcher sheds
//! already-expired rows at drain time (before they cost a batch slot),
//! orders dispatch most-urgent-first, and feeds every surviving row's
//! queue wait to the adaptive [`ShedController`] when one is attached.
//! On shutdown the queue drains gracefully: rows still queued get an
//! explicit [`WorkError::Draining`] reply rather than a dropped channel.

use crate::metrics::ModelMetrics;
use crate::registry::ServedModel;
use crate::shed::ShedController;
use crate::worker::{Batch, WorkError, WorkItem, WorkerPool};
use crate::{lock_unpoisoned, ServeError};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the batcher.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Largest number of rows coalesced into one model call.
    pub max_batch: usize,
    /// Longest time a row may wait for companions when all workers are busy.
    pub max_wait: Duration,
    /// Bound on queued rows; beyond it [`Batcher::enqueue`] sheds.
    pub queue_cap: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_micros(500),
            queue_cap: 1024,
        }
    }
}

/// Why (or whether) [`Batcher::enqueue`] accepted a row. The two refusal
/// reasons demand different protocol replies: a full queue is overload
/// (`busy` — retry later), a stopping batcher is shutdown (`draining` —
/// this server is going away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// Row queued; the answer arrives on the item's reply channel.
    Accepted,
    /// Queue at capacity — the row was shed (counted via
    /// [`ModelMetrics::record_shed`]).
    Full,
    /// The batcher is draining for shutdown (counted via
    /// [`ModelMetrics::record_stopped`]).
    Stopping,
}

/// A queued row bound to the model version resolved at enqueue time.
struct Pending {
    model: Arc<ServedModel>,
    metrics: Arc<ModelMetrics>,
    item: WorkItem,
}

struct QueueState {
    items: VecDeque<Pending>,
    stop: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    cond: Condvar,
    cfg: BatcherConfig,
    pool: Arc<WorkerPool>,
    /// When present, every drained row's queue wait feeds the adaptive
    /// shed controller.
    shed: Option<Arc<ShedController>>,
}

/// Queue + dispatcher thread implementing the micro-batching policy.
pub struct Batcher {
    shared: Arc<Shared>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("cfg", &self.shared.cfg)
            .finish_non_exhaustive()
    }
}

/// Groups drained rows by model identity (name + version, so rows pinned
/// to different versions around a hot swap never share a batch) and splits
/// each group into `max_batch`-sized chunks.
fn into_batches(drained: Vec<Pending>, max_batch: usize) -> Vec<Batch> {
    let mut groups: HashMap<(String, u64), Batch> = HashMap::new();
    let mut order: Vec<(String, u64)> = Vec::new();
    let mut out = Vec::new();
    for p in drained {
        let key = (p.model.meta.name.clone(), p.model.meta.version);
        let batch = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            Batch {
                model: p.model.clone(),
                metrics: p.metrics.clone(),
                items: Vec::new(),
            }
        });
        batch.items.push(p.item);
        if batch.items.len() >= max_batch {
            // The entry was just inserted/updated above, but a panic here
            // would take down the dispatcher thread and strand every queued
            // request — flush defensively instead of unwrapping.
            if let Some(full) = groups.remove(&key) {
                out.push(full);
                order.retain(|k| k != &key);
            }
        }
    }
    // Emit remaining partial groups in first-seen order for determinism.
    for key in order {
        if let Some(b) = groups.remove(&key) {
            out.push(b);
        }
    }
    out
}

fn dispatcher_loop(shared: &Shared) {
    loop {
        let (drained, stopping): (Vec<Pending>, bool) = {
            // All waits recover from poisoning: a worker/connection thread
            // that panicked while holding the queue lock must not silence
            // the dispatcher — the queue itself (a VecDeque of
            // self-contained items) stays structurally valid.
            let mut q = lock_unpoisoned(&shared.queue);
            // Sleep until there is work or we are asked to stop.
            while q.items.is_empty() && !q.stop {
                q = shared.cond.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if q.stop {
                // Graceful drain: batches already submitted to the pool
                // complete, but rows still queued are answered `Draining`
                // below instead of being dispatched.
                (q.items.drain(..).collect(), true)
            } else {
                // Coalesce only when it can pay off: all workers busy and
                // the window isn't already full. Idle workers get rows at
                // once. Loop on a fixed deadline: every arrival's
                // `notify_one` (and any spurious wakeup) ends a single
                // `wait_timeout`, so without the loop a saturated pool
                // would emit 1–2-row batches and the window would never
                // fill.
                let deadline = Instant::now() + shared.cfg.max_wait;
                while !shared.pool.has_idle_worker()
                    && q.items.len() < shared.cfg.max_batch
                    && !q.stop
                {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _timeout) = shared
                        .cond
                        .wait_timeout(q, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    q = guard;
                }
                (q.items.drain(..).collect(), q.stop)
            }
        };
        if stopping {
            for p in drained {
                p.metrics.record_stopped();
                p.item.reply.send(Err(WorkError::Draining));
            }
            return;
        }
        if drained.is_empty() {
            continue;
        }
        // Shed already-expired rows before they cost a batch slot, and
        // feed every surviving row's queue wait to the shed controller —
        // the p95 of exactly these waits is the demote/promote signal.
        let now = Instant::now();
        let mut live: Vec<Pending> = Vec::with_capacity(drained.len());
        for p in drained {
            if p.item.is_expired(now) {
                p.metrics.record_expired();
                p.item.reply.send(Err(WorkError::Expired));
                continue;
            }
            if let Some(shed) = &shared.shed {
                shed.observe_wait(now.duration_since(p.item.enqueued_at));
            }
            live.push(p);
        }
        // Deadline-aware assembly: most-urgent rows first, so the batches
        // that reach the pool earliest are the ones with the least slack.
        // The sort is stable — rows without deadlines keep FIFO order.
        live.sort_by_key(|p| p.item.deadline.unwrap_or(now + Duration::from_secs(3600)));
        for batch in into_batches(live, shared.cfg.max_batch) {
            // `submit` blocks when the pool's channel is full; backpressure
            // then propagates to `enqueue` via the bounded queue above.
            if shared.pool.submit(batch).is_err() {
                return; // pool shut down underneath us
            }
        }
    }
}

impl Batcher {
    /// Starts the dispatcher thread over `pool`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] if the dispatcher thread cannot be created.
    pub fn new(cfg: BatcherConfig, pool: Arc<WorkerPool>) -> Result<Self, ServeError> {
        Self::with_shed(cfg, pool, None)
    }

    /// Like [`Batcher::new`], but every drained row's queue wait also
    /// feeds `shed`, the adaptive degraded-tier controller.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] if the dispatcher thread cannot be created.
    pub fn with_shed(
        cfg: BatcherConfig,
        pool: Arc<WorkerPool>,
        shed: Option<Arc<ShedController>>,
    ) -> Result<Self, ServeError> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                stop: false,
            }),
            cond: Condvar::new(),
            cfg,
            pool,
            shed,
        });
        let dispatcher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("reghd-batcher".to_string())
                .spawn(move || dispatcher_loop(&shared))
                .map_err(ServeError::Spawn)?
        };
        Ok(Self {
            shared,
            dispatcher: Mutex::new(Some(dispatcher)),
        })
    }

    /// Queues one row for `model`. The two refusal reasons are counted
    /// separately so load dashboards don't read a shutdown as overload: a
    /// full queue records a **shed** (answer `busy`), a stopping batcher
    /// records a **stop-time rejection** (answer `draining`,
    /// [`ModelMetrics::record_stopped`]).
    pub fn enqueue(
        &self,
        model: Arc<ServedModel>,
        metrics: Arc<ModelMetrics>,
        item: WorkItem,
    ) -> EnqueueResult {
        let mut q = lock_unpoisoned(&self.shared.queue);
        if q.stop {
            drop(q);
            metrics.record_stopped();
            return EnqueueResult::Stopping;
        }
        if q.items.len() >= self.shared.cfg.queue_cap {
            drop(q);
            metrics.record_shed();
            return EnqueueResult::Full;
        }
        q.items.push_back(Pending {
            model,
            metrics,
            item,
        });
        drop(q);
        self.shared.cond.notify_one();
        EnqueueResult::Accepted
    }

    /// Rows currently waiting for dispatch.
    pub fn depth(&self) -> usize {
        lock_unpoisoned(&self.shared.queue).items.len()
    }

    /// Stops accepting rows without joining the dispatcher: new enqueues
    /// are refused as [`EnqueueResult::Stopping`], and the dispatcher
    /// answers everything still queued with an explicit
    /// [`WorkError::Draining`] reply (batches already at the pool
    /// complete normally). The server calls this *before* joining its
    /// connection threads so waiting clients receive `draining` lines
    /// instead of dropped connections.
    pub fn begin_drain(&self) {
        lock_unpoisoned(&self.shared.queue).stop = true;
        self.shared.cond.notify_all();
    }

    /// [`Batcher::begin_drain`] plus joining the dispatcher thread.
    /// Called automatically on drop.
    pub fn shutdown(&self) {
        self.begin_drain();
        if let Some(h) = lock_unpoisoned(&self.dispatcher).take() {
            let _ = h.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle;
    use crate::registry::ModelRegistry;
    use datasets::Dataset;
    use std::sync::mpsc::sync_channel;
    use std::time::Instant;

    fn served(seed: u64) -> Arc<ServedModel> {
        let features: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32, (i * 2) as f32]).collect();
        let targets: Vec<f32> = features.iter().map(|r| r[0] + r[1]).collect();
        let ds = Dataset::new("toy", features, targets);
        let (b, _) = bundle::train(&ds, 128, 2, 3, seed, false).unwrap();
        let reg = ModelRegistry::new();
        reg.load_bytes("m", &b.to_bytes().unwrap()).unwrap();
        reg.get("m").unwrap()
    }

    fn item(row: Vec<f32>) -> (WorkItem, std::sync::mpsc::Receiver<Result<f32, WorkError>>) {
        let (tx, rx) = sync_channel(1);
        (
            WorkItem {
                row,
                enqueued_at: Instant::now(),
                deadline: None,
                reply: tx.into(),
            },
            rx,
        )
    }

    fn accepted(r: EnqueueResult) -> bool {
        r == EnqueueResult::Accepted
    }

    /// A batcher with no dispatcher thread: the queue's accept/shed logic
    /// can be exercised deterministically, with nothing draining it.
    fn undispatched(cfg: BatcherConfig) -> Batcher {
        let pool = Arc::new(WorkerPool::new(1, 1).unwrap());
        Batcher {
            shared: Arc::new(Shared {
                queue: Mutex::new(QueueState {
                    items: VecDeque::new(),
                    stop: false,
                }),
                cond: Condvar::new(),
                cfg,
                pool,
                shed: None,
            }),
            dispatcher: Mutex::new(None),
        }
    }

    #[test]
    fn enqueued_rows_get_answers() {
        let model = served(1);
        let metrics = Arc::new(ModelMetrics::default());
        let pool = Arc::new(WorkerPool::new(2, 8).unwrap());
        let batcher = Batcher::new(BatcherConfig::default(), pool).unwrap();
        let mut rxs = Vec::new();
        for i in 0..20 {
            let (it, rx) = item(vec![i as f32, (i + 1) as f32]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
            rxs.push(rx);
        }
        for rx in rxs {
            assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().is_ok());
        }
        assert_eq!(metrics.ok.load(std::sync::atomic::Ordering::Relaxed), 20);
    }

    #[test]
    fn full_queue_sheds() {
        let model = served(2);
        let metrics = Arc::new(ModelMetrics::default());
        // Pool with a dead-slow start: 1 worker, but we just make the queue
        // tiny so the third enqueue before dispatch can shed. Stop the
        // dispatcher first so nothing drains.
        let pool = Arc::new(WorkerPool::new(1, 1).unwrap());
        let batcher = Batcher::new(
            BatcherConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                queue_cap: 2,
            },
            pool,
        )
        .unwrap();
        // Freeze the dispatcher by taking the queue lock while we overfill.
        {
            let mut q = batcher.shared.queue.lock().unwrap();
            for i in 0..2 {
                let (tx, _rx) = sync_channel(1);
                q.items.push_back(Pending {
                    model: model.clone(),
                    metrics: metrics.clone(),
                    item: WorkItem {
                        row: vec![i as f32, 0.0],
                        enqueued_at: Instant::now(),
                        deadline: None,
                        reply: tx.into(),
                    },
                });
            }
        }
        let (it, _rx) = item(vec![9.0, 9.0]);
        assert_eq!(
            batcher.enqueue(model, metrics.clone(), it),
            EnqueueResult::Full
        );
        assert_eq!(metrics.shed.load(std::sync::atomic::Ordering::Relaxed), 1);
        batcher.shutdown();
    }

    #[test]
    fn shutdown_answers_every_queued_row_explicitly() {
        // Graceful drain: a row accepted before shutdown is either served
        // (it made it into a dispatched batch) or answered with an
        // explicit `Draining` — never silently dropped.
        let model = served(3);
        let metrics = Arc::new(ModelMetrics::default());
        let pool = Arc::new(WorkerPool::new(1, 8).unwrap());
        let batcher = Batcher::new(BatcherConfig::default(), pool).unwrap();
        let mut rxs = Vec::new();
        for i in 0..10 {
            let (it, rx) = item(vec![i as f32, i as f32]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
            rxs.push(rx);
        }
        batcher.shutdown();
        for rx in rxs {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Ok(_) | Err(WorkError::Draining) => {}
                other => panic!("row must be served or told `draining`, got {other:?}"),
            }
        }
    }

    #[test]
    fn drain_replies_draining_to_rows_still_queued() {
        // Deterministic version of the drain contract: with no dispatcher
        // running, every queued row is still in the queue when drain
        // begins, so all of them must be answered `Draining` (and counted
        // as stop-time rejections, not sheds) once a dispatcher pass runs.
        let model = served(11);
        let metrics = Arc::new(ModelMetrics::default());
        let batcher = undispatched(BatcherConfig::default());
        let mut rxs = Vec::new();
        for i in 0..4 {
            let (it, rx) = item(vec![i as f32, 0.0]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
            rxs.push(rx);
        }
        batcher.begin_drain();
        dispatcher_loop(&batcher.shared); // returns immediately after the drain
        for rx in rxs {
            assert_eq!(rx.try_recv().unwrap(), Err(WorkError::Draining));
        }
        assert_eq!(
            metrics.stopped.load(std::sync::atomic::Ordering::Relaxed),
            4
        );
        assert_eq!(metrics.shed.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn expired_rows_are_shed_at_drain_not_dispatched() {
        // A row whose deadline passed while it waited in the queue is
        // answered `Expired` by the dispatcher without costing a batch
        // slot; rows with slack dispatch normally.
        let model = served(12);
        let metrics = Arc::new(ModelMetrics::default());
        let pool = Arc::new(WorkerPool::new(1, 4).unwrap());
        let batcher = Batcher::new(BatcherConfig::default(), pool).unwrap();
        let (tx, expired_rx) = sync_channel(1);
        // Freeze the dispatcher while we stage an already-expired row and
        // a live one behind it.
        let live_rx = {
            let mut q = batcher.shared.queue.lock().unwrap();
            q.items.push_back(Pending {
                model: model.clone(),
                metrics: metrics.clone(),
                item: WorkItem {
                    row: vec![1.0, 2.0],
                    enqueued_at: Instant::now(),
                    deadline: Some(Instant::now() - Duration::from_millis(1)),
                    reply: tx.into(),
                },
            });
            let (it, rx) = item(vec![3.0, 4.0]);
            q.items.push_back(Pending {
                model: model.clone(),
                metrics: metrics.clone(),
                item: it,
            });
            rx
        };
        batcher.shared.cond.notify_one();
        assert_eq!(
            expired_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Err(WorkError::Expired)
        );
        assert!(live_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .is_ok());
        assert_eq!(
            metrics.expired.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(metrics.ok.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn drained_rows_dispatch_most_urgent_deadline_first() {
        // Two rows for the same model with inverted arrival/deadline
        // order: the tighter deadline must come out first in the
        // assembled batches.
        let model = served(13);
        let metrics = Arc::new(ModelMetrics::default());
        let now = Instant::now();
        let mk = |ms: u64| {
            let (tx, _rx) = sync_channel(1);
            Pending {
                model: model.clone(),
                metrics: metrics.clone(),
                item: WorkItem {
                    row: vec![ms as f32, 0.0],
                    enqueued_at: now,
                    deadline: Some(now + Duration::from_millis(ms)),
                    reply: tx.into(),
                },
            }
        };
        let mut live = vec![mk(500), mk(20), mk(100)];
        live.sort_by_key(|p| p.item.deadline.unwrap_or(now + Duration::from_secs(3600)));
        let batches = into_batches(live, 2);
        // max_batch 2: the two most urgent rows share the first batch.
        let first: Vec<f32> = batches[0].items.iter().map(|i| i.row[0]).collect();
        assert_eq!(first, vec![20.0, 100.0]);
    }

    #[test]
    fn batches_respect_max_batch_and_version_grouping() {
        let features: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32, (i * 2) as f32]).collect();
        let targets: Vec<f32> = features.iter().map(|r| r[0] + r[1]).collect();
        let ds = Dataset::new("toy", features, targets);
        let reg = ModelRegistry::new();
        let (ba, _) = bundle::train(&ds, 128, 2, 3, 4, false).unwrap();
        let (bb, _) = bundle::train(&ds, 128, 2, 3, 5, false).unwrap();
        reg.load_bytes("a", &ba.to_bytes().unwrap()).unwrap();
        reg.load_bytes("b", &bb.to_bytes().unwrap()).unwrap();
        let a = reg.get("a").unwrap();
        let b = reg.get("b").unwrap();
        let metrics = Arc::new(ModelMetrics::default());
        let mut drained = Vec::new();
        for i in 0..5 {
            let (tx, _rx) = sync_channel(1);
            let model = if i % 2 == 0 { a.clone() } else { b.clone() };
            drained.push(Pending {
                model,
                metrics: metrics.clone(),
                item: WorkItem {
                    row: vec![i as f32, 0.0],
                    enqueued_at: Instant::now(),
                    deadline: None,
                    reply: tx.into(),
                },
            });
        }
        let batches = into_batches(drained, 2);
        let total: usize = batches.iter().map(|b| b.items.len()).sum();
        assert_eq!(total, 5, "no row may be lost in grouping");
        assert!(batches.iter().all(|b| b.items.len() <= 2));
        // 3 rows for "a" (split 2+1) and 2 for "b" → exactly 3 batches,
        // proving rows for different models never share a batch.
        assert_eq!(batches.len(), 3);
    }

    #[test]
    fn zero_max_wait_still_answers_everything() {
        // max_wait == 0 collapses the coalescing window entirely; the
        // dispatcher must spin through wait_timeout(0) without hanging or
        // busy-dropping rows.
        let model = served(6);
        let metrics = Arc::new(ModelMetrics::default());
        let pool = Arc::new(WorkerPool::new(1, 4).unwrap());
        let batcher = Batcher::new(
            BatcherConfig {
                max_batch: 8,
                max_wait: Duration::ZERO,
                queue_cap: 64,
            },
            pool,
        )
        .unwrap();
        let mut rxs = Vec::new();
        for i in 0..16 {
            let (it, rx) = item(vec![i as f32, i as f32]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
            rxs.push(rx);
        }
        for rx in rxs {
            assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().is_ok());
        }
    }

    #[test]
    fn queue_exactly_at_capacity_accepts_then_sheds() {
        // Boundary check on the cap: the row that *reaches* capacity is
        // accepted, the row that would *exceed* it is shed.
        let model = served(7);
        let metrics = Arc::new(ModelMetrics::default());
        let batcher = undispatched(BatcherConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_cap: 3,
        });
        for i in 0..3 {
            let (it, _rx) = item(vec![i as f32, 0.0]);
            assert!(
                accepted(batcher.enqueue(model.clone(), metrics.clone(), it)),
                "row {i} is within capacity"
            );
        }
        assert_eq!(batcher.depth(), 3);
        let (it, _rx) = item(vec![99.0, 0.0]);
        assert_eq!(
            batcher.enqueue(model.clone(), metrics.clone(), it),
            EnqueueResult::Full
        );
        assert_eq!(metrics.shed.load(std::sync::atomic::Ordering::Relaxed), 1);
        // Shedding must not have evicted anything already accepted.
        assert_eq!(batcher.depth(), 3);
    }

    #[test]
    fn saturated_pool_coalesces_toward_max_batch() {
        // Regression test for the collapsed coalescing window: a single
        // `wait_timeout` call ended the window on every arrival's
        // `notify_one`, so a saturated pool got 1–2-row batches. With the
        // deadline loop, a slow 1-worker pool under a steady arrival stream
        // must see a mean batch size of at least `max_batch / 2`.
        let model = served(9);
        let metrics = Arc::new(ModelMetrics::default());
        let inj = Arc::new(crate::faults::FaultInjector::new());
        let pool = Arc::new(WorkerPool::with_injector(1, 1, inj.clone()).unwrap());
        inj.set_worker_delay(Duration::from_millis(10));
        let max_batch = 8usize;
        let batcher = Batcher::new(
            BatcherConfig {
                max_batch,
                max_wait: Duration::from_millis(30),
                queue_cap: 1024,
            },
            pool,
        )
        .unwrap();
        let mut rxs = Vec::new();
        for i in 0..48 {
            let (it, rx) = item(vec![i as f32, 0.0]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
            rxs.push(rx);
            // Steady trickle: rows arrive one by one while the worker is
            // pinned, exactly the notify-per-arrival pattern that broke the
            // single-wait window.
            std::thread::sleep(Duration::from_micros(500));
        }
        for rx in rxs {
            assert!(rx.recv_timeout(Duration::from_secs(20)).unwrap().is_ok());
        }
        let batches = metrics.batches.load(std::sync::atomic::Ordering::Relaxed);
        let rows = metrics
            .batched_rows
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(rows, 48);
        let mean = rows as f64 / batches as f64;
        assert!(
            mean >= (max_batch / 2) as f64,
            "saturated pool should coalesce: mean batch {mean:.2} over {batches} batches"
        );
    }

    #[test]
    fn stop_time_rejection_is_not_counted_as_shed() {
        let model = served(10);
        let metrics = Arc::new(ModelMetrics::default());
        let batcher = undispatched(BatcherConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_cap: 2,
        });
        // Full queue → shed (the overload signal).
        for i in 0..2 {
            let (it, _rx) = item(vec![i as f32, 0.0]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
        }
        let (it, _rx) = item(vec![9.0, 0.0]);
        assert_eq!(
            batcher.enqueue(model.clone(), metrics.clone(), it),
            EnqueueResult::Full
        );
        assert_eq!(metrics.shed.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(
            metrics.stopped.load(std::sync::atomic::Ordering::Relaxed),
            0
        );

        // Stopping batcher → rejection counted separately, never as shed.
        lock_unpoisoned(&batcher.shared.queue).stop = true;
        let (it, _rx) = item(vec![10.0, 0.0]);
        assert_eq!(
            batcher.enqueue(model, metrics.clone(), it),
            EnqueueResult::Stopping
        );
        assert_eq!(metrics.shed.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(
            metrics.stopped.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn shed_then_drain_preserves_fifo_and_reopens_queue() {
        let model = served(8);
        let metrics = Arc::new(ModelMetrics::default());
        let batcher = undispatched(BatcherConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            queue_cap: 3,
        });
        for i in 0..3 {
            let (it, _rx) = item(vec![i as f32, 0.0]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
        }
        let (it, _rx) = item(vec![99.0, 0.0]);
        assert_eq!(
            batcher.enqueue(model.clone(), metrics.clone(), it),
            EnqueueResult::Full
        );

        // Drain exactly as the dispatcher would and check the shed row
        // left no hole: survivors come out in arrival order.
        let drained: Vec<Pending> = lock_unpoisoned(&batcher.shared.queue)
            .items
            .drain(..)
            .collect();
        let order: Vec<f32> = drained.iter().map(|p| p.item.row[0]).collect();
        assert_eq!(order, vec![0.0, 1.0, 2.0]);
        let batches = into_batches(drained, 8);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].items.len(), 3);

        // After the drain the queue is open for business again.
        let (it, _rx) = item(vec![7.0, 0.0]);
        assert!(accepted(batcher.enqueue(model, metrics, it)));
        assert_eq!(batcher.depth(), 1);
    }
}
