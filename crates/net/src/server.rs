//! The RGNP event-loop front-end: a fixed poller pool multiplexing
//! thousands of connections over epoll.
//!
//! # Architecture
//!
//! * One **accept thread** owns the listener, enforces the connection cap,
//!   and hands accepted sockets round-robin to the pollers.
//! * A fixed pool of **poller threads** (default: up to 4), each owning a
//!   private epoll set, a slab of connections, and a [`sys::WakePipe`].
//!   Pollers parse frames, answer cheap requests inline (stats, list,
//!   ping, admin verbs, degraded-tier predictions), and enqueue
//!   full-precision rows into the shared [`Batcher`].
//! * **Workers** complete rows through a [`ReplySink::from_fn`] callback
//!   that pushes the result into the owning poller's inbox and wakes it —
//!   the poller turns completions into reply frames on its own thread, so
//!   no worker ever blocks on a slow client socket.
//!
//! Backpressure is per-connection: a connection whose write buffer exceeds
//! [`NetConfig::write_budget`] stops being read (its requests back up into
//! the kernel socket buffer and eventually the client), and is re-armed
//! when the buffer drains below half the budget. Admission control:
//! queue-full enqueues answer `BUSY`, drain answers `DRAINING`,
//! per-request deadlines expire rows into the degraded tier.
//!
//! Admin verbs (`ADMIN` frames: reload, sweep, inject) run inline on the
//! poller that received them; they are rare operator actions, so the
//! other connections of that poller simply wait out a reload.

use crate::frame::{self, opcode, status, FrameBuf, Step};
use reghd_serve::admin::{self, degraded_value, model_line, render_stats};
use reghd_serve::batcher::{Batcher, BatcherConfig, EnqueueResult};
use reghd_serve::faults::FaultInjector;
use reghd_serve::metrics::{MetricsHub, ModelMetrics};
use reghd_serve::registry::{ModelRegistry, ServedModel};
use reghd_serve::shed::{ShedConfig, ShedController};
use reghd_serve::status::TrainStatus;
use reghd_serve::worker::{ReplySink, WorkError, WorkItem, WorkerPool};
use reghd_serve::ServeError;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for [`serve_rgnp`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; port `0` picks a free port.
    pub addr: String,
    /// Poller threads. `0` (default) uses `min(available cores, 4)`.
    pub pollers: usize,
    /// Worker threads running model predictions.
    pub workers: usize,
    /// Row-parallelism inside each model call: batches are split across
    /// this many scoped threads with per-row arithmetic unchanged
    /// (bit-identical results). `0` uses available parallelism. Applied to
    /// every model in the registry at startup and inherited by later
    /// loads and reloads.
    pub threads: usize,
    /// Trigonometry mode for encoding. `Fast` evaluates the polynomial
    /// [`hdc::kernels::fast_sin`]/[`hdc::kernels::fast_cos`] pair, trading
    /// a documented error bound ([`hdc::kernels::FAST_TRIG_MAX_ABS_ERROR`])
    /// for throughput; canary replays always force `Exact`. Applied like
    /// `threads`.
    pub trig: hdc::TrigMode,
    /// Micro-batching knobs.
    pub batcher: BatcherConfig,
    /// Connections idle this long are closed.
    pub idle_timeout: Duration,
    /// A request unanswered for this long is settled through the degraded
    /// path; its late completion is discarded.
    pub reply_timeout: Duration,
    /// Per-request deadline from enqueue. A row still queued when it
    /// passes is shed before any model arithmetic and answered through the
    /// degraded tier. `None` disables expiry.
    pub deadline: Option<Duration>,
    /// Hard cap on concurrently open connections. Over the cap, a
    /// connection gets one `BUSY` frame and is closed. `0`: unlimited.
    pub max_connections: usize,
    /// Adaptive shed thresholds; `None` disables adaptive shedding.
    pub shed: Option<ShedConfig>,
    /// Frames whose length field exceeds this are a protocol violation:
    /// the connection receives one `ERR` frame and is closed.
    pub max_frame: u32,
    /// Per-connection write-buffer budget in bytes; reading stops above
    /// it and resumes once the buffer drains below half.
    pub write_budget: usize,
    /// Streaming-trainer status for the `train-status` opcode.
    pub train_status: Option<Arc<TrainStatus>>,
    /// Run a registry integrity sweep this often. `None` disables the
    /// background sweeper; the `sweep` admin verb always works.
    pub sweep_interval: Option<Duration>,
    /// Accept the `inject` admin verb. Off by default: fault injection is
    /// a test and chaos facility, not a production surface.
    pub enable_inject: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7979".to_string(),
            pollers: 0,
            workers: 4,
            threads: 1,
            trig: hdc::TrigMode::Exact,
            batcher: BatcherConfig::default(),
            idle_timeout: Duration::from_secs(30),
            reply_timeout: Duration::from_secs(10),
            deadline: None,
            max_connections: 0,
            shed: Some(ShedConfig::default()),
            max_frame: frame::DEFAULT_MAX_FRAME,
            write_budget: 256 * 1024,
            train_status: None,
            sweep_interval: None,
            enable_inject: false,
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::*;
    use crate::sys::{Epoll, WakePipe, EPOLLIN, EPOLLOUT};
    use std::collections::HashMap;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::{Mutex, PoisonError};
    use std::thread::JoinHandle;

    /// Token the poller's wake pipe is registered under (never a conn).
    const WAKE_TOKEN: u64 = u64::MAX;
    /// Events decoded per `epoll_wait`.
    const EVENT_CAPACITY: usize = 1024;
    /// Upper bound on the poll sleep, so idle/reply-timeout scans run.
    const TICK_MS: i32 = 50;

    fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A completed row routed back from a worker (or the batcher's drain
    /// path, or a drop guard) to the poller owning the connection.
    struct Completion {
        token: u64,
        req_id: u64,
        slot: u32,
        result: Result<f32, WorkError>,
    }

    #[derive(Default)]
    struct Inbox {
        conns: Vec<TcpStream>,
        completions: Vec<Completion>,
    }

    /// The cross-thread face of one poller.
    pub(super) struct PollerShared {
        stop: AtomicBool,
        inbox: Mutex<Inbox>,
        wake: WakePipe,
    }

    /// Immutable state shared by every poller.
    struct NetCtx {
        registry: Arc<ModelRegistry>,
        hub: Arc<MetricsHub>,
        batcher: Arc<Batcher>,
        shed: Option<Arc<ShedController>>,
        injector: Arc<FaultInjector>,
        enable_inject: bool,
        train_status: Option<Arc<TrainStatus>>,
        deadline: Option<Duration>,
        reply_timeout: Duration,
        idle_timeout: Duration,
        max_frame: u32,
        write_budget: usize,
        active: Arc<AtomicUsize>,
    }

    /// One request awaiting worker completions.
    struct PendingReq {
        served: Arc<ServedModel>,
        metrics: Arc<ModelMetrics>,
        rows: Vec<Vec<f32>>,
        results: Vec<Option<(u8, f32)>>,
        err: Option<String>,
        remaining: usize,
        single: bool,
        timeout_at: Instant,
    }

    struct Conn {
        stream: TcpStream,
        fd: i32,
        inbuf: FrameBuf,
        out: Vec<u8>,
        out_pos: usize,
        pending: HashMap<u64, PendingReq>,
        last_activity: Instant,
        paused: bool,
        closing: bool,
        interest: u32,
    }

    impl Conn {
        fn outstanding(&self) -> usize {
            self.out.len() - self.out_pos
        }

        /// Writes until the buffer empties or the socket would block.
        /// Returns `false` when the socket died.
        fn flush(&mut self) -> bool {
            while self.out_pos < self.out.len() {
                match self.stream.write(&self.out[self.out_pos..]) {
                    Ok(0) => return false,
                    Ok(n) => self.out_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            if self.out_pos == self.out.len() {
                self.out.clear();
                self.out_pos = 0;
            } else if self.out_pos > 64 * 1024 {
                self.out.drain(..self.out_pos);
                self.out_pos = 0;
            }
            true
        }

        fn desired_interest(&self) -> u32 {
            let mut mask = 0;
            if !self.paused && !self.closing {
                mask |= EPOLLIN;
            }
            if self.outstanding() > 0 {
                mask |= EPOLLOUT;
            }
            mask
        }
    }

    /// Settles one row of a pending request, consuming the slot exactly
    /// once. Expired/dropped rows fall back to the inline degraded path.
    fn settle_slot(p: &mut PendingReq, slot: usize, result: Result<f32, WorkError>) {
        if slot >= p.results.len() || p.results[slot].is_some() {
            return; // duplicate or out-of-range: already settled
        }
        let (st, value) = match result {
            Ok(y) => (status::OK, y),
            Err(WorkError::Expired) | Err(WorkError::Dropped) => {
                match degraded_value(&p.served, &p.metrics, &p.rows[slot]) {
                    Ok(y) => (status::DEGRADED, y),
                    Err(msg) => {
                        if p.err.is_none() {
                            p.err = Some(msg);
                        }
                        (status::ERR, 0.0)
                    }
                }
            }
            Err(WorkError::Draining) => (status::DRAINING, 0.0),
            Err(WorkError::Failed(msg)) => {
                if p.err.is_none() {
                    p.err = Some(msg);
                }
                (status::ERR, 0.0)
            }
        };
        p.results[slot] = Some((st, value));
        p.remaining -= 1;
    }

    /// Renders a fully-settled request into its reply frame.
    fn emit_reply(out: &mut Vec<u8>, req_id: u64, p: &PendingReq) {
        debug_assert_eq!(p.remaining, 0);
        if p.single {
            match p.results[0].expect("settled") {
                (status::OK, y) => frame::encode_value_reply(out, status::OK, req_id, y),
                (status::DEGRADED, y) => {
                    frame::encode_value_reply(out, status::DEGRADED, req_id, y)
                }
                (status::ERR, _) => frame::encode_text_reply(
                    out,
                    status::ERR,
                    req_id,
                    p.err.as_deref().unwrap_or("prediction failed"),
                ),
                (st, _) => frame::encode_empty_reply(out, st, req_id),
            }
        } else {
            let rows: Vec<(u8, f32)> = p.results.iter().map(|r| r.expect("settled")).collect();
            frame::encode_batch_reply(out, req_id, &rows);
        }
    }

    /// Enqueues one row into the batcher with a completion callback that
    /// routes back to this poller. Returns the admission result.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_row(
        ctx: &NetCtx,
        shared: &Arc<PollerShared>,
        served: &Arc<ServedModel>,
        metrics: &Arc<ModelMetrics>,
        row: Vec<f32>,
        token: u64,
        req_id: u64,
        slot: u32,
    ) -> EnqueueResult {
        let now = Instant::now();
        let cb_shared = shared.clone();
        let sink = ReplySink::from_fn(move |result| {
            lock_unpoisoned(&cb_shared.inbox)
                .completions
                .push(Completion {
                    token,
                    req_id,
                    slot,
                    result,
                });
            cb_shared.wake.wake();
        });
        let item = WorkItem {
            row,
            enqueued_at: now,
            deadline: ctx.deadline.map(|d| now + d),
            reply: sink,
        };
        ctx.batcher.enqueue(served.clone(), metrics.clone(), item)
    }

    /// Handles one decoded request frame against `conn`.
    #[allow(clippy::too_many_lines)]
    fn handle_frame(
        ctx: &NetCtx,
        shared: &Arc<PollerShared>,
        token: u64,
        conn: &mut Conn,
        f: Frame,
    ) {
        match f.kind {
            opcode::PING => frame::encode_empty_reply(&mut conn.out, status::OK, f.req_id),
            opcode::STATS => {
                let lines = render_stats(
                    &ctx.registry,
                    &ctx.hub,
                    ctx.batcher.depth(),
                    ctx.shed.as_deref(),
                );
                frame::encode_text_reply(&mut conn.out, status::OK, f.req_id, &lines.join("\n"));
            }
            opcode::LIST => {
                let lines: Vec<String> = ctx.registry.list().iter().map(model_line).collect();
                frame::encode_text_reply(&mut conn.out, status::OK, f.req_id, &lines.join("\n"));
            }
            opcode::TRAIN_STATUS => match &ctx.train_status {
                Some(ts) => {
                    frame::encode_text_reply(&mut conn.out, status::OK, f.req_id, &ts.summary());
                }
                None => frame::encode_text_reply(
                    &mut conn.out,
                    status::ERR,
                    f.req_id,
                    "no trainer attached",
                ),
            },
            opcode::ADMIN => {
                let (st, text) = match admin::execute(
                    &f.payload,
                    &ctx.registry,
                    &ctx.hub,
                    &ctx.injector,
                    ctx.enable_inject,
                ) {
                    Ok(text) => (status::OK, text),
                    Err(msg) => (status::ERR, msg),
                };
                frame::encode_text_reply(&mut conn.out, st, f.req_id, &text);
            }
            opcode::PREDICT | opcode::PREDICT_BATCH => {
                handle_predict(ctx, shared, token, conn, f);
            }
            other => {
                ctx.hub.bad_requests.fetch_add(1, Ordering::Relaxed);
                frame::encode_text_reply(
                    &mut conn.out,
                    status::ERR,
                    f.req_id,
                    &format!("unknown opcode {other}"),
                );
            }
        }
    }

    /// The predict / predict-batch path: validation, the inline binary
    /// tier, and admission into the batcher.
    fn handle_predict(
        ctx: &NetCtx,
        shared: &Arc<PollerShared>,
        token: u64,
        conn: &mut Conn,
        f: Frame,
    ) {
        let single = f.kind == opcode::PREDICT;
        let (model_name, rows, tier) = if single {
            match frame::decode_predict(&f.payload) {
                Ok(req) => (req.model.to_string(), vec![req.row], req.tier),
                Err(msg) => {
                    ctx.hub.bad_requests.fetch_add(1, Ordering::Relaxed);
                    frame::encode_text_reply(&mut conn.out, status::ERR, f.req_id, msg);
                    return;
                }
            }
        } else {
            match frame::decode_predict_batch(&f.payload) {
                Ok(req) => (req.model.to_string(), req.rows, req.tier),
                Err(msg) => {
                    ctx.hub.bad_requests.fetch_add(1, Ordering::Relaxed);
                    frame::encode_text_reply(&mut conn.out, status::ERR, f.req_id, msg);
                    return;
                }
            }
        };
        if rows.iter().flatten().any(|v| !v.is_finite()) {
            // NaN/Inf would poison the encoded hypervector; client bug.
            ctx.hub.bad_requests.fetch_add(1, Ordering::Relaxed);
            frame::encode_text_reply(
                &mut conn.out,
                status::ERR,
                f.req_id,
                "non-finite feature value",
            );
            return;
        }
        let Some(served) = ctx.registry.get(&model_name) else {
            frame::encode_text_reply(
                &mut conn.out,
                status::ERR,
                f.req_id,
                &format!("unknown model {model_name}"),
            );
            return;
        };
        if conn.pending.contains_key(&f.req_id) {
            ctx.hub.bad_requests.fetch_add(1, Ordering::Relaxed);
            frame::encode_text_reply(&mut conn.out, status::ERR, f.req_id, "duplicate request id");
            return;
        }
        let metrics = ctx.hub.for_model(&model_name);
        if tier == frame::PredictionTier::Binary
            || served.is_corrupt()
            || ctx.shed.as_ref().is_some_and(|s| s.should_degrade())
        {
            // Requested binary tier, corrupt-flagged model, or adaptive
            // shed: the §3.2 bit-packed binary path is cheap enough to run
            // inline on the poller. The DEGRADED status tells the client
            // which precision answered.
            let mut results = Vec::with_capacity(rows.len());
            let mut err: Option<String> = None;
            for row in &rows {
                match degraded_value(&served, &metrics, row) {
                    Ok(y) => results.push((status::DEGRADED, y)),
                    Err(msg) => {
                        if err.is_none() {
                            err = Some(msg);
                        }
                        results.push((status::ERR, 0.0));
                    }
                }
            }
            if single {
                match (results[0], err) {
                    ((status::ERR, _), Some(msg)) => {
                        frame::encode_text_reply(&mut conn.out, status::ERR, f.req_id, &msg);
                    }
                    ((_, y), _) => {
                        frame::encode_value_reply(&mut conn.out, status::DEGRADED, f.req_id, y);
                    }
                }
            } else {
                frame::encode_batch_reply(&mut conn.out, f.req_id, &results);
            }
            return;
        }
        let n = rows.len();
        let pending = PendingReq {
            served: served.clone(),
            metrics: metrics.clone(),
            rows: rows.clone(),
            results: vec![None; n],
            err: None,
            remaining: n,
            single,
            timeout_at: Instant::now() + ctx.reply_timeout,
        };
        conn.pending.insert(f.req_id, pending);
        for (slot, row) in rows.into_iter().enumerate() {
            let res = enqueue_row(
                ctx,
                shared,
                &served,
                &metrics,
                row,
                token,
                f.req_id,
                slot as u32,
            );
            let admission = match res {
                EnqueueResult::Accepted => continue,
                EnqueueResult::Full => status::BUSY,
                EnqueueResult::Stopping => status::DRAINING,
            };
            let p = conn.pending.get_mut(&f.req_id).expect("just inserted");
            if p.results[slot].is_none() {
                p.results[slot] = Some((admission, 0.0));
                p.remaining -= 1;
            }
        }
        let p = conn.pending.get_mut(&f.req_id).expect("just inserted");
        if p.remaining == 0 {
            emit_reply(&mut conn.out, f.req_id, p);
            conn.pending.remove(&f.req_id);
        }
    }

    use crate::frame::Frame;

    /// Reads everything available, parses frames, and handles them.
    /// Returns `false` when the connection must be torn down.
    fn on_readable(
        ctx: &NetCtx,
        shared: &Arc<PollerShared>,
        token: u64,
        conn: &mut Conn,
        scratch: &mut [u8],
        now: Instant,
    ) -> bool {
        loop {
            if conn.paused || conn.closing {
                return true;
            }
            match conn.stream.read(scratch) {
                Ok(0) => return conn.outstanding() > 0 && conn.flush(),
                Ok(n) => {
                    conn.last_activity = now;
                    conn.inbuf.extend(&scratch[..n]);
                    loop {
                        match conn.inbuf.next_frame(ctx.max_frame) {
                            Step::Ready(f) => handle_frame(ctx, shared, token, conn, f),
                            Step::Incomplete => break,
                            Step::Violation(msg) => {
                                // The stream cannot be resynchronised: one
                                // terminal ERR frame, then close. req_id 0
                                // because the offender's id is unknowable.
                                ctx.hub.bad_requests.fetch_add(1, Ordering::Relaxed);
                                frame::encode_text_reply(&mut conn.out, status::ERR, 0, msg);
                                conn.closing = true;
                                break;
                            }
                        }
                    }
                    if conn.outstanding() > ctx.write_budget {
                        conn.paused = true; // backpressure: stop reading
                    }
                    if n < scratch.len() {
                        return true; // socket drained
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Applies queued completions and registers newly accepted sockets.
    fn process_inbox(
        ctx: &NetCtx,
        shared: &Arc<PollerShared>,
        epoll: &Epoll,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
        touched: &mut Vec<u64>,
    ) {
        shared.wake.drain();
        let Inbox {
            conns: new_conns,
            completions,
        } = std::mem::take(&mut *lock_unpoisoned(&shared.inbox));
        for stream in new_conns {
            let token = *next_token;
            *next_token += 1;
            if stream.set_nonblocking(true).is_err() {
                ctx.active.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            if epoll.add(fd, token, EPOLLIN).is_err() {
                ctx.active.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            conns.insert(
                token,
                Conn {
                    stream,
                    fd,
                    inbuf: FrameBuf::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    pending: HashMap::new(),
                    last_activity: Instant::now(),
                    paused: false,
                    closing: false,
                    interest: EPOLLIN,
                },
            );
        }
        for c in completions {
            let Some(conn) = conns.get_mut(&c.token) else {
                continue; // connection already closed: discard
            };
            let Some(p) = conn.pending.get_mut(&c.req_id) else {
                continue; // reply-timeout already answered it: discard
            };
            settle_slot(p, c.slot as usize, c.result);
            if p.remaining == 0 {
                let p = conn.pending.remove(&c.req_id).expect("present");
                emit_reply(&mut conn.out, c.req_id, &p);
                touched.push(c.token);
            }
        }
    }

    /// Flushes, re-arms reading after a drain, syncs epoll interest, and
    /// closes finished connections.
    fn after_work(ctx: &NetCtx, epoll: &Epoll, conns: &mut HashMap<u64, Conn>, token: u64) {
        let Some(conn) = conns.get_mut(&token) else {
            return;
        };
        if !conn.flush() {
            close_conn(ctx, epoll, conns, token);
            return;
        }
        if conn.paused && conn.outstanding() <= ctx.write_budget / 2 {
            conn.paused = false; // drained: resume reading
        }
        if conn.closing && conn.outstanding() == 0 {
            close_conn(ctx, epoll, conns, token);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.interest && epoll.modify(conn.fd, token, desired).is_ok() {
            conn.interest = desired;
        }
    }

    fn close_conn(ctx: &NetCtx, epoll: &Epoll, conns: &mut HashMap<u64, Conn>, token: u64) {
        if let Some(conn) = conns.remove(&token) {
            let _ = epoll.delete(conn.fd);
            ctx.active.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Periodic maintenance: idle-timeout closes and reply-timeout
    /// settlement through the degraded path.
    fn scan(ctx: &NetCtx, epoll: &Epoll, conns: &mut HashMap<u64, Conn>, now: Instant) {
        let mut idle: Vec<u64> = Vec::new();
        let mut touched: Vec<u64> = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            if now.duration_since(conn.last_activity) >= ctx.idle_timeout && conn.pending.is_empty()
            {
                idle.push(token);
                continue;
            }
            let overdue: Vec<u64> = conn
                .pending
                .iter()
                .filter(|(_, p)| now >= p.timeout_at)
                .map(|(&id, _)| id)
                .collect();
            for req_id in overdue {
                let mut p = conn.pending.remove(&req_id).expect("present");
                // Timed out (slow worker, lost completion): every
                // unsettled row is answered degraded. A completion
                // arriving later finds no pending entry and is discarded.
                for slot in 0..p.results.len() {
                    if p.results[slot].is_none() {
                        settle_slot(&mut p, slot, Err(WorkError::Expired));
                    }
                }
                emit_reply(&mut conn.out, req_id, &p);
                touched.push(token);
            }
        }
        for token in idle {
            close_conn(ctx, epoll, conns, token);
        }
        for token in touched {
            after_work(ctx, epoll, conns, token);
        }
    }

    fn poller_loop(ctx: Arc<NetCtx>, shared: Arc<PollerShared>) {
        let Ok(mut epoll) = Epoll::new(EVENT_CAPACITY) else {
            return;
        };
        if epoll
            .add(shared.wake.read_fd(), WAKE_TOKEN, EPOLLIN)
            .is_err()
        {
            return;
        }
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token: u64 = 0;
        let mut scratch = vec![0u8; 64 * 1024];
        let mut touched: Vec<u64> = Vec::new();
        let mut last_scan = Instant::now();
        loop {
            let events: Vec<(u64, bool, bool, bool)> = match epoll.wait(TICK_MS) {
                Ok(evs) => evs
                    .iter()
                    .map(|e| (e.token, e.readable, e.writable, e.closed))
                    .collect(),
                Err(_) => Vec::new(),
            };
            let now = Instant::now();
            touched.clear();
            process_inbox(
                &ctx,
                &shared,
                &epoll,
                &mut conns,
                &mut next_token,
                &mut touched,
            );
            for (token, readable, writable, closed) in events {
                if token == WAKE_TOKEN {
                    continue; // inbox already drained above
                }
                if !conns.contains_key(&token) {
                    continue;
                }
                let mut alive = true;
                if readable || writable {
                    if let Some(conn) = conns.get_mut(&token) {
                        if readable {
                            alive = on_readable(&ctx, &shared, token, conn, &mut scratch, now);
                        }
                    }
                }
                if !alive || closed {
                    close_conn(&ctx, &epoll, &mut conns, token);
                    continue;
                }
                touched.push(token);
            }
            for &token in touched.iter() {
                after_work(&ctx, &epoll, &mut conns, token);
            }
            if shared.stop.load(Ordering::SeqCst) {
                // Final drain: deliver the completions the batcher
                // settled while shutting down and those of rows still
                // running on the workers (each bounded by its reply
                // timeout, after which `scan` answers it degraded), then
                // flush best-effort and close.
                loop {
                    touched.clear();
                    process_inbox(
                        &ctx,
                        &shared,
                        &epoll,
                        &mut conns,
                        &mut next_token,
                        &mut touched,
                    );
                    for &token in touched.iter() {
                        after_work(&ctx, &epoll, &mut conns, token);
                    }
                    scan(&ctx, &epoll, &mut conns, Instant::now());
                    if conns.values().all(|c| c.pending.is_empty()) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                let tokens: Vec<u64> = conns.keys().copied().collect();
                for token in tokens {
                    if let Some(conn) = conns.get_mut(&token) {
                        let _ = conn.flush();
                    }
                    close_conn(&ctx, &epoll, &mut conns, token);
                }
                return;
            }
            if now.duration_since(last_scan) >= Duration::from_millis(TICK_MS as u64) {
                last_scan = now;
                scan(&ctx, &epoll, &mut conns, now);
            }
        }
    }

    /// Running RGNP server. Dropping the handle shuts it down.
    pub struct NetServerHandle {
        local_addr: SocketAddr,
        stop: Arc<AtomicBool>,
        accept_thread: Option<JoinHandle<()>>,
        sweeper_thread: Option<JoinHandle<()>>,
        pollers: Vec<(Arc<PollerShared>, Option<JoinHandle<()>>)>,
        hub: Arc<MetricsHub>,
        batcher: Arc<Batcher>,
        shed: Option<Arc<ShedController>>,
        injector: Arc<FaultInjector>,
    }

    impl std::fmt::Debug for NetServerHandle {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("NetServerHandle")
                .field("local_addr", &self.local_addr)
                .field("pollers", &self.pollers.len())
                .finish_non_exhaustive()
        }
    }

    impl NetServerHandle {
        /// The address the server actually bound (resolves port `0`).
        pub fn local_addr(&self) -> SocketAddr {
            self.local_addr
        }

        /// The server's metrics hub.
        pub fn metrics(&self) -> Arc<MetricsHub> {
            self.hub.clone()
        }

        /// The adaptive shed controller, when enabled.
        pub fn shed(&self) -> Option<Arc<ShedController>> {
            self.shed.clone()
        }

        /// The worker-pool fault injector (chaos harness).
        pub fn injector(&self) -> Arc<FaultInjector> {
            self.injector.clone()
        }

        /// Gracefully stops the server: accepting stops, queued rows are
        /// answered `DRAINING`, in-flight rows finish and their reply
        /// frames are flushed best-effort before sockets close. Returns
        /// the final `stat` lines.
        pub fn shutdown(mut self) -> Vec<String> {
            self.stop_and_join();
            self.hub.render_all()
        }

        fn stop_and_join(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            for h in [self.accept_thread.take(), self.sweeper_thread.take()]
                .into_iter()
                .flatten()
            {
                let _ = h.join();
            }
            // Settle every queued and in-flight row *before* stopping the
            // pollers, so the resulting completions still reach client
            // sockets as DRAINING / OK frames.
            self.batcher.begin_drain();
            self.batcher.shutdown();
            for (shared, handle) in &mut self.pollers {
                shared.stop.store(true, Ordering::SeqCst);
                shared.wake.wake();
                if let Some(h) = handle.take() {
                    let _ = h.join();
                }
            }
        }
    }

    impl Drop for NetServerHandle {
        fn drop(&mut self) {
            self.stop_and_join();
        }
    }

    /// Binds `cfg.addr` and starts the RGNP front-end.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound or epoll is
    /// unavailable, [`ServeError::Spawn`] when a thread cannot start.
    pub fn serve_rgnp(
        cfg: NetConfig,
        registry: Arc<ModelRegistry>,
    ) -> Result<NetServerHandle, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        registry.set_default_threads(cfg.threads);
        registry.set_default_trig(cfg.trig);

        let hub = Arc::new(MetricsHub::new());
        let injector = Arc::new(FaultInjector::new());
        let pool = Arc::new(WorkerPool::with_injector(
            cfg.workers,
            cfg.workers * 2,
            injector.clone(),
        )?);
        let shed = cfg.shed.clone().map(|c| Arc::new(ShedController::new(c)));
        let batcher = Arc::new(Batcher::with_shed(cfg.batcher.clone(), pool, shed.clone())?);
        let active = Arc::new(AtomicUsize::new(0));

        let pollers_n = if cfg.pollers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4)
        } else {
            cfg.pollers
        }
        .max(1);

        let stop = Arc::new(AtomicBool::new(false));
        let sweeper_thread = cfg
            .sweep_interval
            .map(|interval| {
                admin::spawn_sweeper(registry.clone(), hub.clone(), interval, stop.clone())
            })
            .transpose()?;

        let ctx = Arc::new(NetCtx {
            registry,
            hub: hub.clone(),
            batcher: batcher.clone(),
            shed: shed.clone(),
            injector: injector.clone(),
            enable_inject: cfg.enable_inject,
            train_status: cfg.train_status.clone(),
            deadline: cfg.deadline,
            reply_timeout: cfg.reply_timeout,
            idle_timeout: cfg.idle_timeout,
            max_frame: cfg.max_frame,
            write_budget: cfg.write_budget.max(4096),
            active: active.clone(),
        });

        let mut pollers = Vec::with_capacity(pollers_n);
        for i in 0..pollers_n {
            let shared = Arc::new(PollerShared {
                stop: AtomicBool::new(false),
                inbox: Mutex::new(Inbox::default()),
                wake: WakePipe::new()?,
            });
            let ctx = ctx.clone();
            let shared2 = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("reghd-poller-{i}"))
                .spawn(move || poller_loop(ctx, shared2))
                .map_err(ServeError::Spawn)?;
            pollers.push((shared, Some(handle)));
        }

        let stop_accept = stop.clone();
        let accept_hub = hub.clone();
        let accept_active = active;
        let accept_shared: Vec<Arc<PollerShared>> =
            pollers.iter().map(|(s, _)| s.clone()).collect();
        let max_connections = cfg.max_connections;
        let accept_thread = std::thread::Builder::new()
            .name("reghd-rgnp-accept".to_string())
            .spawn(move || {
                let mut next = 0usize;
                while !stop_accept.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((mut stream, _peer)) => {
                            if max_connections > 0
                                && accept_active.load(Ordering::SeqCst) >= max_connections
                            {
                                // Over the cap: one explicit BUSY frame,
                                // then close (the socket is still in its
                                // default blocking mode here).
                                accept_hub
                                    .connections_rejected
                                    .fetch_add(1, Ordering::Relaxed);
                                let mut busy = Vec::with_capacity(13);
                                frame::encode_empty_reply(&mut busy, status::BUSY, 0);
                                let _ = stream.write_all(&busy);
                                continue;
                            }
                            accept_hub.connections.fetch_add(1, Ordering::Relaxed);
                            accept_active.fetch_add(1, Ordering::SeqCst);
                            let shard = &accept_shared[next % accept_shared.len()];
                            next += 1;
                            lock_unpoisoned(&shard.inbox).conns.push(stream);
                            shard.wake.wake();
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
            .map_err(ServeError::Spawn)?;

        Ok(NetServerHandle {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            sweeper_thread,
            pollers,
            hub,
            batcher,
            shed,
            injector,
        })
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::*;

    /// Placeholder handle on platforms without the epoll fast path; cannot
    /// be constructed because [`serve_rgnp`] always errors there.
    #[derive(Debug)]
    pub struct NetServerHandle {
        never: std::convert::Infallible,
    }

    impl NetServerHandle {
        /// The bound address (unreachable on this platform).
        pub fn local_addr(&self) -> SocketAddr {
            match self.never {}
        }

        /// The metrics hub (unreachable on this platform).
        pub fn metrics(&self) -> Arc<MetricsHub> {
            match self.never {}
        }

        /// The shed controller (unreachable on this platform).
        pub fn shed(&self) -> Option<Arc<ShedController>> {
            match self.never {}
        }

        /// The fault injector (unreachable on this platform).
        pub fn injector(&self) -> Arc<FaultInjector> {
            match self.never {}
        }

        /// Shutdown (unreachable on this platform).
        pub fn shutdown(self) -> Vec<String> {
            match self.never {}
        }
    }

    /// Serving requires the Linux epoll poller (x86_64/aarch64); there is
    /// no network front-end on other platforms.
    ///
    /// # Errors
    ///
    /// Always `ServeError::Io(Unsupported)` on this platform.
    pub fn serve_rgnp(
        _cfg: NetConfig,
        _registry: Arc<ModelRegistry>,
    ) -> Result<NetServerHandle, ServeError> {
        Err(ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "serving requires Linux on x86_64 or aarch64: the RGNP front-end is \
             built on epoll, and there is no other network front-end",
        )))
    }
}

pub use imp::{serve_rgnp, NetServerHandle};
