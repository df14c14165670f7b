//! Fixed-size worker pool over `std::thread` and channels.
//!
//! Workers pull [`Batch`]es from a shared receiver, run the model's batched
//! predict, and answer each row's reply channel. The pool tracks how many
//! workers are currently executing so the batcher can decide between
//! immediate dispatch (a worker is idle) and coalescing (all busy).
//!
//! # Fault containment
//!
//! Each batch runs inside `std::panic::catch_unwind`: a panic (whether
//! organic or injected through a [`FaultInjector`]) is contained to that
//! batch — its reply senders drop, so waiting clients observe a
//! disconnected channel and fall back to the degraded path, while the
//! worker thread survives to take the next batch. An injected *kill* makes
//! a worker exit as if it crashed, except that the pool refuses to kill its
//! last live worker.

use crate::faults::FaultInjector;
use crate::metrics::ModelMetrics;
use crate::registry::ServedModel;
use crate::{lock_unpoisoned, ServeError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Why a row was answered without a prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkError {
    /// The row's deadline passed before any model arithmetic ran; it was
    /// shed pre-compute. The front-end answers through the degraded path.
    Expired,
    /// The batcher was draining at shutdown; the row was never dispatched.
    Draining,
    /// The row's [`ReplySink`] was dropped without ever being answered —
    /// the worker executing it panicked or exited. Front-ends treat this
    /// exactly like a disconnected reply channel: fall back to the
    /// degraded path.
    Dropped,
    /// The model call itself failed (bad row width, etc.).
    Failed(String),
}

impl std::fmt::Display for WorkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Expired => write!(f, "deadline expired"),
            Self::Draining => write!(f, "server draining"),
            Self::Dropped => write!(f, "reply sink dropped without an answer"),
            Self::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

/// Where a row's answer goes.
///
/// A synchronous caller (the serve bench, unit tests) blocks on a
/// rendezvous channel per request; the RGNP front-end cannot block, so it hands
/// over a callback that routes the completion back to the poller that owns
/// the connection. Both variants deliver **exactly one** terminal signal:
/// the channel disconnects if its sender drops unanswered, and the callback
/// variant is wrapped in a drop guard that fires [`WorkError::Dropped`] if
/// a panicking worker unwinds past it.
pub enum ReplySink {
    /// Rendezvous channel; the sender is waited on with `recv_timeout`.
    Channel(SyncSender<Result<f32, WorkError>>),
    /// Callback invoked exactly once, from whichever thread settles the
    /// row (worker, batcher drain, or the drop guard during an unwind).
    Callback(CompletionGuard),
}

impl ReplySink {
    /// Wraps a callback so the row is *guaranteed* an answer: if the sink
    /// is dropped before [`ReplySink::send`] runs (worker panic, dropped
    /// batch), the callback fires with [`WorkError::Dropped`].
    pub fn from_fn<F>(f: F) -> Self
    where
        F: FnOnce(Result<f32, WorkError>) + Send + 'static,
    {
        Self::Callback(CompletionGuard(Some(Box::new(f))))
    }

    /// Delivers the row's one answer. Consumes the sink so a double send
    /// is unrepresentable. A disconnected channel receiver (client hung
    /// up) is fine; the error is ignored.
    pub fn send(self, result: Result<f32, WorkError>) {
        match self {
            Self::Channel(tx) => {
                let _ = tx.send(result);
            }
            Self::Callback(mut guard) => {
                if let Some(f) = guard.0.take() {
                    f(result);
                }
            }
        }
    }
}

impl From<SyncSender<Result<f32, WorkError>>> for ReplySink {
    fn from(tx: SyncSender<Result<f32, WorkError>>) -> Self {
        Self::Channel(tx)
    }
}

impl std::fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Channel(_) => f.write_str("ReplySink::Channel"),
            Self::Callback(_) => f.write_str("ReplySink::Callback"),
        }
    }
}

/// Boxed completion callback: consumes the row's one terminal result.
type CompletionFn = Box<dyn FnOnce(Result<f32, WorkError>) + Send>;

/// Drop guard around a completion callback (see [`ReplySink::from_fn`]).
pub struct CompletionGuard(Option<CompletionFn>);

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            // This drop can run mid-unwind (worker panic); the callback
            // must still not be allowed to escalate a panic into an abort.
            let _ = catch_unwind(AssertUnwindSafe(|| f(Err(WorkError::Dropped))));
        }
    }
}

/// One pending prediction row plus its reply channel.
#[derive(Debug)]
pub struct WorkItem {
    /// Raw (unscaled) feature row.
    pub row: Vec<f32>,
    /// When the row entered the queue — start of the latency measurement.
    pub enqueued_at: Instant,
    /// Answer-by time. A row whose deadline has passed is shed before any
    /// model arithmetic runs — at drain time in the batcher and again just
    /// before compute in the worker (`None`: never expires).
    pub deadline: Option<Instant>,
    /// Where the answer goes (blocking channel or poller callback).
    pub reply: ReplySink,
}

impl WorkItem {
    /// Whether the row's deadline has already passed.
    pub fn is_expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// A group of rows bound for the same model version.
#[derive(Debug)]
pub struct Batch {
    /// The model version every row in this batch is evaluated against.
    pub model: Arc<ServedModel>,
    /// Metrics cell the results are recorded into.
    pub metrics: Arc<ModelMetrics>,
    /// The rows.
    pub items: Vec<WorkItem>,
}

/// Fixed pool of prediction threads.
#[derive(Debug)]
pub struct WorkerPool {
    tx: Option<SyncSender<Batch>>,
    handles: Vec<JoinHandle<()>>,
    busy: Arc<AtomicUsize>,
    alive: Arc<AtomicUsize>,
    workers: usize,
}

/// Executes one batch: batched predict, then one reply per row.
///
/// `scratch` is the worker's long-lived prediction scratch: its buffers are
/// reused across every batch the worker serves, so the steady-state hot path
/// performs no per-request hypervector allocations.
fn run_batch(batch: Batch, scratch: &mut reghd::PredictScratch) {
    // Last-chance deadline check: a row can expire while its batch sat in
    // the dispatch channel. Shedding here keeps expired rows from paying
    // for encode/predict arithmetic nobody is waiting for.
    let now = Instant::now();
    let (live, expired): (Vec<WorkItem>, Vec<WorkItem>) =
        batch.items.into_iter().partition(|i| !i.is_expired(now));
    for item in expired {
        batch.metrics.record_expired();
        item.reply.send(Err(WorkError::Expired));
    }
    if live.is_empty() {
        return;
    }
    let rows: Vec<Vec<f32>> = live.iter().map(|i| i.row.clone()).collect();
    batch.metrics.record_batch(rows.len());
    match batch.model.bundle.predict_with(&rows, scratch) {
        Ok(preds) => {
            for (item, pred) in live.into_iter().zip(preds) {
                batch.metrics.record_ok(item.enqueued_at.elapsed());
                item.reply.send(Ok(pred));
            }
        }
        Err(msg) => {
            for item in live {
                batch.metrics.record_error();
                item.reply.send(Err(WorkError::Failed(msg.clone())));
            }
        }
    }
}

/// The per-thread worker loop. Returns when the dispatch channel closes or
/// an injected kill is consumed.
fn worker_loop(
    rx: Arc<Mutex<Receiver<Batch>>>,
    busy: Arc<AtomicUsize>,
    alive: Arc<AtomicUsize>,
    injector: Option<Arc<FaultInjector>>,
) {
    // One scratch per worker thread, reused for the thread's lifetime. Every
    // buffer in it is fully overwritten before use, so it needs no reset
    // even after a contained panic.
    let mut scratch = reghd::PredictScratch::default();
    loop {
        // Holding the mutex only while waiting for one batch keeps the
        // other workers free to grab the next.
        let batch = match lock_unpoisoned(&rx).recv() {
            Ok(b) => b,
            Err(_) => {
                // Pool dropped its sender: orderly shutdown.
                alive.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        };
        busy.fetch_add(1, Ordering::SeqCst);
        let mut injected_panic = false;
        if let Some(inj) = &injector {
            if let Some(d) = inj.worker_delay() {
                std::thread::sleep(d);
            }
            if inj.take_kill() {
                // Exit as if crashed — unless this is the last live
                // worker, in which case the kill is dropped (a pool that
                // can never make progress again is an outage, not a
                // recoverable fault).
                if alive.fetch_sub(1, Ordering::SeqCst) > 1 {
                    busy.fetch_sub(1, Ordering::SeqCst);
                    // `batch` drops here: its reply senders disconnect and
                    // waiting clients take the degraded path.
                    return;
                }
                alive.fetch_add(1, Ordering::SeqCst);
            }
            injected_panic = inj.take_panic();
        }
        let metrics = batch.metrics.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if injected_panic {
                panic!("injected worker panic");
            }
            run_batch(batch, &mut scratch);
        }));
        if outcome.is_err() {
            // The batch was consumed by the unwind; its reply senders are
            // gone, which is exactly the disconnect signal clients expect.
            metrics.record_panic();
        }
        busy.fetch_sub(1, Ordering::SeqCst);
    }
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to at least 1) with a dispatch
    /// channel holding at most `queue_depth` batches.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] if the OS refuses a thread; any threads
    /// already spawned are shut down before returning.
    pub fn new(workers: usize, queue_depth: usize) -> Result<Self, ServeError> {
        Self::build(workers, queue_depth, None)
    }

    /// Like [`WorkerPool::new`], but every worker consults `injector`
    /// before each batch (delay / kill / panic faults).
    ///
    /// # Errors
    ///
    /// See [`WorkerPool::new`].
    pub fn with_injector(
        workers: usize,
        queue_depth: usize,
        injector: Arc<FaultInjector>,
    ) -> Result<Self, ServeError> {
        Self::build(workers, queue_depth, Some(injector))
    }

    fn build(
        workers: usize,
        queue_depth: usize,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<Self, ServeError> {
        let workers = workers.max(1);
        let (tx, rx) = sync_channel::<Batch>(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let busy = Arc::new(AtomicUsize::new(0));
        let alive = Arc::new(AtomicUsize::new(workers));
        let mut pool = Self {
            tx: Some(tx),
            handles: Vec::with_capacity(workers),
            busy: busy.clone(),
            alive: alive.clone(),
            workers,
        };
        for i in 0..workers {
            let rx = rx.clone();
            let busy = busy.clone();
            let worker_alive = alive.clone();
            let injector = injector.clone();
            let handle = std::thread::Builder::new()
                .name(format!("reghd-worker-{i}"))
                .spawn(move || worker_loop(rx, busy, worker_alive, injector));
            match handle {
                Ok(h) => pool.handles.push(h),
                Err(e) => {
                    // Threads we did spawn believe `workers` are alive;
                    // correct the count, then let shutdown join them.
                    alive.fetch_sub(workers - i, Ordering::SeqCst);
                    pool.shutdown();
                    return Err(ServeError::Spawn(e));
                }
            }
        }
        Ok(pool)
    }

    /// Number of worker threads the pool was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of workers currently alive (spawned minus injected kills).
    pub fn alive_workers(&self) -> usize {
        self.alive.load(Ordering::SeqCst)
    }

    /// Whether at least one live worker is idle right now. Advisory — the
    /// answer can be stale by the time the caller acts on it, which only
    /// costs a slightly suboptimal coalescing decision, never correctness.
    pub fn has_idle_worker(&self) -> bool {
        self.busy.load(Ordering::SeqCst) < self.alive.load(Ordering::SeqCst)
    }

    /// Submits a batch, blocking if the dispatch channel is full.
    ///
    /// # Errors
    ///
    /// Returns the batch back if the pool has shut down.
    pub fn submit(&self, batch: Batch) -> Result<(), Batch> {
        match &self.tx {
            Some(tx) => tx.send(batch).map_err(|e| e.0),
            None => Err(batch),
        }
    }

    /// Stops accepting work and joins all workers after they drain the
    /// channel. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.tx.take(); // closing the channel ends every worker loop
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
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
    use std::time::Duration;

    fn toy_model() -> (ModelRegistry, Arc<ServedModel>) {
        let features: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32, (i * 3) as f32]).collect();
        let targets: Vec<f32> = features.iter().map(|r| r[0] * 2.0).collect();
        let ds = Dataset::new("toy", features, targets);
        let (b, _) = bundle::train(&ds, 128, 2, 3, 9, false).unwrap();
        let reg = ModelRegistry::new();
        reg.load_bytes("m", &b.to_bytes().unwrap()).unwrap();
        let served = reg.get("m").unwrap();
        (reg, served)
    }

    fn item(row: Vec<f32>) -> (WorkItem, Receiver<Result<f32, WorkError>>) {
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

    #[test]
    fn pool_answers_batches_and_matches_direct_predict() {
        let (_reg, served) = toy_model();
        let metrics = Arc::new(ModelMetrics::default());
        let pool = WorkerPool::new(2, 8).unwrap();
        let rows: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32, i as f32 + 1.0]).collect();
        let direct = served.bundle.predict(&rows).unwrap();

        let mut receivers = Vec::new();
        let mut items = Vec::new();
        for row in &rows {
            let (it, rx) = item(row.clone());
            receivers.push(rx);
            items.push(it);
        }
        pool.submit(Batch {
            model: served,
            metrics: metrics.clone(),
            items,
        })
        .unwrap();
        for (rx, want) in receivers.iter().zip(&direct) {
            let got = rx.recv().unwrap().unwrap();
            assert_eq!(got, *want, "pooled result must be bit-exact");
        }
        assert_eq!(metrics.ok.load(Ordering::Relaxed), 6);
        assert_eq!(metrics.batches.load(Ordering::Relaxed), 1);
        assert!(metrics.latency.count() >= 6);
    }

    #[test]
    fn bad_row_width_reports_error_per_item() {
        let (_reg, served) = toy_model();
        let metrics = Arc::new(ModelMetrics::default());
        let pool = WorkerPool::new(1, 4).unwrap();
        let (it, rx) = item(vec![1.0, 2.0, 3.0]); // model expects 2 features
        pool.submit(Batch {
            model: served,
            metrics: metrics.clone(),
            items: vec![it],
        })
        .unwrap();
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.to_string().contains("features"), "{err}");
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shutdown_joins_and_rejects_new_work() {
        let (_reg, served) = toy_model();
        let mut pool = WorkerPool::new(2, 4).unwrap();
        pool.shutdown();
        let res = pool.submit(Batch {
            model: served,
            metrics: Arc::new(ModelMetrics::default()),
            items: Vec::new(),
        });
        assert!(res.is_err());
    }

    #[test]
    fn dropped_reply_receiver_does_not_poison_pool() {
        let (_reg, served) = toy_model();
        let metrics = Arc::new(ModelMetrics::default());
        let pool = WorkerPool::new(1, 4).unwrap();
        let (tx, rx) = sync_channel::<Result<f32, WorkError>>(1);
        drop(rx); // client hung up before the answer
        pool.submit(Batch {
            model: served.clone(),
            metrics: metrics.clone(),
            items: vec![WorkItem {
                row: vec![1.0, 2.0],
                enqueued_at: Instant::now(),
                deadline: None,
                reply: tx.into(),
            }],
        })
        .unwrap();
        // The pool must still serve a later, healthy request.
        let (it, rx2) = item(vec![3.0, 4.0]);
        pool.submit(Batch {
            model: served,
            metrics,
            items: vec![it],
        })
        .unwrap();
        assert!(rx2.recv().unwrap().is_ok());
    }

    #[test]
    fn injected_panic_is_contained() {
        let (_reg, served) = toy_model();
        let metrics = Arc::new(ModelMetrics::default());
        let inj = Arc::new(FaultInjector::new());
        let pool = WorkerPool::with_injector(1, 4, inj.clone()).unwrap();

        inj.panic_batches(1);
        let (it, rx) = item(vec![1.0, 2.0]);
        pool.submit(Batch {
            model: served.clone(),
            metrics: metrics.clone(),
            items: vec![it],
        })
        .unwrap();
        // The panicked batch's reply channel disconnects without an answer.
        assert!(rx.recv().is_err());

        // The same (sole) worker survives and answers the next batch.
        let (it, rx) = item(vec![3.0, 4.0]);
        pool.submit(Batch {
            model: served,
            metrics: metrics.clone(),
            items: vec![it],
        })
        .unwrap();
        assert!(rx.recv().unwrap().is_ok());
        assert_eq!(metrics.panics.load(Ordering::Relaxed), 1);
        assert_eq!(pool.alive_workers(), 1);
    }

    #[test]
    fn injected_kill_removes_worker_but_never_the_last() {
        let (_reg, served) = toy_model();
        let metrics = Arc::new(ModelMetrics::default());
        let inj = Arc::new(FaultInjector::new());
        let pool = WorkerPool::with_injector(2, 8, inj.clone()).unwrap();
        assert_eq!(pool.alive_workers(), 2);

        // First kill: one worker exits, its batch is dropped.
        inj.kill_workers(1);
        let (it, rx) = item(vec![1.0, 2.0]);
        pool.submit(Batch {
            model: served.clone(),
            metrics: metrics.clone(),
            items: vec![it],
        })
        .unwrap();
        assert!(rx.recv().is_err(), "killed worker's batch must drop");
        // Wait for the exit to be visible.
        for _ in 0..100 {
            if pool.alive_workers() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.alive_workers(), 1);

        // Second kill: refused, the last worker keeps serving.
        inj.kill_workers(1);
        let (it, rx) = item(vec![3.0, 4.0]);
        pool.submit(Batch {
            model: served.clone(),
            metrics: metrics.clone(),
            items: vec![it],
        })
        .unwrap();
        assert!(rx.recv().unwrap().is_ok(), "last worker must survive");
        assert_eq!(pool.alive_workers(), 1);

        // And it continues to answer after the refused kill.
        let (it, rx) = item(vec![5.0, 6.0]);
        pool.submit(Batch {
            model: served,
            metrics,
            items: vec![it],
        })
        .unwrap();
        assert!(rx.recv().unwrap().is_ok());
    }

    #[test]
    fn expired_item_inside_assembled_batch_is_shed_pre_compute() {
        // A row can expire after batch assembly but before compute (e.g.
        // while the batch sat behind a slow predecessor in the dispatch
        // channel). It must be answered `Expired` without being predicted,
        // while live companions in the same batch are served normally.
        let (_reg, served) = toy_model();
        let metrics = Arc::new(ModelMetrics::default());
        let pool = WorkerPool::new(1, 4).unwrap();
        let (expired_tx, expired_rx) = sync_channel(1);
        let (live, live_rx) = item(vec![3.0, 4.0]);
        pool.submit(Batch {
            model: served,
            metrics: metrics.clone(),
            items: vec![
                WorkItem {
                    row: vec![1.0, 2.0],
                    enqueued_at: Instant::now(),
                    deadline: Some(Instant::now() - Duration::from_millis(1)),
                    reply: expired_tx.into(),
                },
                live,
            ],
        })
        .unwrap();
        assert_eq!(expired_rx.recv().unwrap(), Err(WorkError::Expired));
        assert!(live_rx.recv().unwrap().is_ok());
        assert_eq!(metrics.expired.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.ok.load(Ordering::Relaxed), 1);
        // Only the live row was counted into (and paid for) the model call.
        assert_eq!(metrics.batched_rows.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn injected_delay_slows_batches() {
        let (_reg, served) = toy_model();
        let metrics = Arc::new(ModelMetrics::default());
        let inj = Arc::new(FaultInjector::new());
        let pool = WorkerPool::with_injector(1, 4, inj.clone()).unwrap();
        inj.set_worker_delay(Duration::from_millis(50));
        let start = Instant::now();
        let (it, rx) = item(vec![1.0, 2.0]);
        pool.submit(Batch {
            model: served,
            metrics,
            items: vec![it],
        })
        .unwrap();
        assert!(rx.recv().unwrap().is_ok());
        assert!(start.elapsed() >= Duration::from_millis(50));
    }
}
