//! The checked load generator: one thread, two pipelined RGNP
//! connections, single-row `PREDICT` frames.
//!
//! In the open loop, sends follow a fixed schedule whether or not earlier
//! replies have arrived, and latency is measured from the *scheduled* send
//! time, so a server stall is charged to every request it delays (no
//! coordinated omission). The closed loop keeps a fixed number of requests
//! outstanding per connection, to measure saturation throughput. Every
//! reply is kept with the request it answers so the caller can check its
//! value bit for bit afterwards. Only `reghd_net::frame` is reused from
//! the repository; the socket loop is this file's own.

use reghd_net::frame::{self, status, FrameBuf, Step};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Marks a sample whose reply never arrived.
pub const NO_REPLY: u8 = 0xFF;

/// One scheduled request and what came back for it. Times are
/// nanoseconds since the phase origin.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Pool row the request carried.
    pub row: u32,
    /// Model key index (store workload) or 0.
    pub key: u32,
    pub scheduled: u64,
    pub sent: u64,
    pub replied: u64,
    /// Reply status byte, or [`NO_REPLY`].
    pub status: u8,
    /// Reply value bits for `OK`/`DEGRADED` replies.
    pub bits: u32,
}

impl Sample {
    /// Whether the reply carried a value (`OK` or `DEGRADED`).
    pub fn answered(&self) -> bool {
        self.status == status::OK || self.status == status::DEGRADED
    }

    /// Latency from the scheduled send to the reply, ns; `u64::MAX` when
    /// the request got no usable answer (it misses any latency limit).
    pub fn latency_ns(&self) -> u64 {
        if self.answered() {
            self.replied.saturating_sub(self.scheduled)
        } else {
            u64::MAX
        }
    }
}

/// What one open-loop phase produced.
#[derive(Debug)]
pub struct PhaseRun {
    /// The instant sample times are measured from.
    pub origin: Instant,
    pub samples: Vec<Sample>,
    /// Frames that could not be parsed or matched to a request.
    pub protocol_errors: u64,
}

impl PhaseRun {
    /// Wall-clock instant of a sample timestamp.
    pub fn at(&self, ns: u64) -> Instant {
        self.origin + Duration::from_nanos(ns)
    }
}

struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    out: Vec<u8>,
    out_pos: usize,
    dead: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            inbuf: FrameBuf::new(),
            out: Vec::new(),
            out_pos: 0,
            dead: false,
        })
    }

    fn flush(&mut self) {
        while self.out_pos < self.out.len() && !self.dead {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => self.dead = true,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        self.out.clear();
        self.out_pos = 0;
    }
}

/// Connections a phase drives.
pub const CONNECTIONS: usize = 2;

/// Appends the `i`-th request's frame under `req_id` and returns the
/// request's `(row, key)`.
pub type Encode<'a> = dyn FnMut(&mut Vec<u8>, u64, u64) -> (u32, u32) + 'a;

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop: `rate` requests per second on a fixed schedule.
    Open { rate: f64 },
    /// Closed loop: every connection keeps `in_flight` requests
    /// outstanding, sending the next one as each reply arrives.
    Closed { in_flight: usize },
}

/// Runs one phase against `addr` for `duration`, then waits up to
/// `grace` for outstanding replies.
///
/// # Errors
///
/// Connection set-up failures.
pub fn run_phase(
    addr: SocketAddr,
    load: Load,
    duration: Duration,
    grace: Duration,
    encode: &mut Encode<'_>,
) -> io::Result<PhaseRun> {
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<_>>()?;
    let origin = Instant::now() + Duration::from_millis(1);
    let end_ns = duration.as_nanos() as u64;
    let hard_stop = origin + duration + grace;
    let (period_ns, total) = match load {
        Load::Open { rate } => (1e9 / rate, (duration.as_secs_f64() * rate).floor() as u64),
        Load::Closed { .. } => (0.0, u64::MAX),
    };
    let mut run = PhaseRun {
        origin,
        samples: Vec::with_capacity(total.min(1 << 20) as usize),
        protocol_errors: 0,
    };
    let mut outstanding = [0usize; CONNECTIONS];
    let mut answered = 0u64;
    let mut scratch = vec![0u8; 64 * 1024];
    let ns_since = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    loop {
        let now_ns = ns_since(Instant::now());
        let mut i = run.samples.len() as u64;
        let mut send =
            |c: usize, i: u64, scheduled: u64, conns: &mut [Conn], run: &mut PhaseRun| {
                let (row, key) = encode(&mut conns[c].out, i + 1, i);
                run.samples.push(Sample {
                    row,
                    key,
                    scheduled,
                    sent: now_ns,
                    replied: 0,
                    status: NO_REPLY,
                    bits: 0,
                });
            };
        match load {
            // Open loop: fire every send whose slot has come, replies or
            // not.
            Load::Open { .. } => {
                while i < total && (i as f64 * period_ns) as u64 <= now_ns {
                    let c = (i % CONNECTIONS as u64) as usize;
                    send(c, i, (i as f64 * period_ns) as u64, &mut conns, &mut run);
                    outstanding[c] += 1;
                    i += 1;
                }
            }
            Load::Closed { in_flight } if now_ns < end_ns => {
                for c in 0..CONNECTIONS {
                    while outstanding[c] < in_flight && !conns[c].dead {
                        send(c, i, now_ns, &mut conns, &mut run);
                        outstanding[c] += 1;
                        i += 1;
                    }
                }
            }
            Load::Closed { .. } => {}
        }
        for conn in &mut conns {
            conn.flush();
        }
        for (c, conn) in conns.iter_mut().enumerate().filter(|(_, c)| !c.dead) {
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        let at = ns_since(Instant::now());
                        conn.inbuf.extend(&scratch[..n]);
                        loop {
                            match conn.inbuf.next_frame(frame::DEFAULT_MAX_FRAME) {
                                Step::Ready(f) => {
                                    if record(&mut run.samples, &f, at) {
                                        answered += 1;
                                        outstanding[c] = outstanding[c].saturating_sub(1);
                                    } else {
                                        run.protocol_errors += 1;
                                    }
                                }
                                Step::Incomplete => break,
                                Step::Violation(_) => {
                                    run.protocol_errors += 1;
                                    conn.dead = true;
                                    break;
                                }
                            }
                        }
                        if conn.dead || n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
        }
        let now = Instant::now();
        let sending = match load {
            Load::Open { .. } => (run.samples.len() as u64) < total,
            Load::Closed { .. } => ns_since(now) < end_ns,
        };
        let all_answered = answered == run.samples.len() as u64;
        if (!sending && all_answered) || now >= hard_stop || conns.iter().all(|c| c.dead) {
            break;
        }
        let wait = match load {
            Load::Open { .. } if sending => {
                let next_ns = (run.samples.len() as f64 * period_ns) as u64;
                Duration::from_nanos(next_ns.saturating_sub(ns_since(now)))
            }
            Load::Closed { .. } if sending => {
                Duration::from_nanos(end_ns.saturating_sub(ns_since(now)))
            }
            _ => hard_stop.saturating_duration_since(now),
        };
        poll::wait_readable(&conns, wait.min(Duration::from_millis(5)));
    }
    Ok(run)
}

/// Matches a reply frame to its request. `false` for a frame that answers
/// no outstanding request or has a malformed payload.
fn record(samples: &mut [Sample], f: &frame::Frame, at: u64) -> bool {
    let Some(s) = (f.req_id as usize)
        .checked_sub(1)
        .and_then(|i| samples.get_mut(i))
    else {
        return false;
    };
    if s.status != NO_REPLY {
        return false;
    }
    match f.kind {
        status::OK | status::DEGRADED => match frame::decode_value_reply(&f.payload) {
            Ok(v) => s.bits = v.to_bits(),
            Err(_) => return false,
        },
        status::BUSY | status::DRAINING | status::ERR => {}
        _ => return false,
    }
    s.status = f.kind;
    s.replied = at;
    true
}

mod poll {
    //! Sleeping until a connection is readable (or writable with pending
    //! output) with sub-millisecond timeouts. `std` has no readiness
    //! wait, and `poll(2)`'s millisecond timeout is coarser than the send
    //! period, so this calls `ppoll(2)` from the C library `std` already
    //! links.

    use super::{Conn, CONNECTIONS};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        // Linux, 64-bit: `nfds_t` is `unsigned long`, `time_t` and `long`
        // are 64-bit.
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    /// Blocks until a live connection is readable, one with unflushed
    /// output is writable, or `timeout` passes. Errors and signals just
    /// end the wait early; the caller's loop re-checks everything.
    pub(super) fn wait_readable(conns: &[Conn], timeout: Duration) {
        let mut fds: Vec<PollFd> = Vec::with_capacity(CONNECTIONS);
        for c in conns.iter().filter(|c| !c.dead) {
            let mut events = POLLIN;
            if c.out_pos < c.out.len() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, initialised array of `fds.len()`
        // `struct pollfd`-layout records (`#[repr(C)]`, i32/i16/i16) whose
        // descriptors stay open for the call because `conns` borrows the
        // sockets; `ts` is a valid `struct timespec` on the stack; a null
        // signal mask is allowed and leaves the mask unchanged. The call
        // writes only the `revents` fields inside `fds`.
        unsafe {
            ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
        }
    }
}

/// Pings an idle server `n` times through the repository's blocking
/// client and returns the median round trip in µs.
///
/// # Errors
///
/// Connection or ping failures.
pub fn ping_rtt_p50_us(addr: SocketAddr, n: usize) -> io::Result<f64> {
    let mut client = reghd_net::RgnpClient::connect(&addr.to_string())?;
    let mut rtts: Vec<f64> = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        client.ping()?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&rtts))
}
