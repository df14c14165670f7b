//! Raw `epoll`/`pipe2` syscalls — the only `unsafe` in the crate.
//!
//! The workspace is `std`-only and `std` exposes no readiness API, so the
//! four syscalls the event loop needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`/`epoll_pwait`, `pipe2`) are issued directly via inline
//! assembly, the same approach `reghd-store` uses for `mmap`. Everything
//! above this module works with safe wrappers: [`Epoll`] (a registration
//! table plus a `wait` that yields decoded [`Event`]s) and [`WakePipe`]
//! (a non-blocking self-pipe that lets worker threads interrupt a poller
//! blocked in `epoll_wait`).
//!
//! This module only compiles on Linux x86_64/aarch64; the crate's public
//! entry points return an `Unsupported` error elsewhere.
//!
//! Every `unsafe` block issues one syscall through `syscall6` (or reads
//! back what `epoll_pwait` wrote) and states why its pointer arguments are
//! valid for the kernel's access. The fds the calls name are owned by the
//! wrapper that issues them and are closed only in its `Drop`.
#![allow(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

use std::io;

/// Issues raw syscall `nr` with six arguments and returns the kernel's
/// result (`-errno` on failure).
///
/// # Safety
///
/// Every pointer argument must be valid for the access syscall `nr` makes
/// through it (reads or writes of the length it is given) for the duration
/// of the call, and the call must not close, remap or otherwise invalidate
/// an fd or memory that other code still relies on.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

/// The aarch64 form of the x86_64 `syscall6`.
///
/// # Safety
///
/// As for the x86_64 form: pointer arguments valid for the syscall's
/// access, and no fd or memory other code relies on invalidated.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") nr,
        inlateout("x0") a => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        options(nostack),
    );
    ret
}

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CREATE1: usize = 291;
    pub const PIPE2: usize = 293;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EPOLL_CREATE1: usize = 20;
    pub const PIPE2: usize = 59;
}

const EPOLL_CLOEXEC: usize = 0o2000000;
const O_CLOEXEC: usize = 0o2000000;
const O_NONBLOCK: usize = 0o4000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EINTR: i32 = 4;
const EAGAIN: i32 = 11;

/// Converts a raw syscall return into `io::Result`.
fn check(ret: isize) -> io::Result<usize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// The kernel's `epoll_event`. On x86_64 the ABI packs the struct (12
/// bytes); every other architecture uses natural alignment (16 bytes).
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct RawEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct RawEvent {
    events: u32,
    data: u64,
}

/// One decoded readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (`EPOLLIN`) — includes a peer half-close (`EPOLLRDHUP`),
    /// which surfaces as a zero-byte read.
    pub readable: bool,
    /// Writable (`EPOLLOUT`).
    pub writable: bool,
    /// Error or hang-up (`EPOLLERR`/`EPOLLHUP`/`EPOLLRDHUP`): the
    /// connection is (half-)dead and should be torn down after the final
    /// read drains.
    pub closed: bool,
}

/// An epoll instance plus its event buffer.
#[derive(Debug)]
pub struct Epoll {
    fd: i32,
    raw: Vec<u64>, // RawEvent storage, kept as u64s for easy zero-init
    decoded: Vec<Event>,
}

impl Epoll {
    /// Creates an epoll instance sized to decode up to `capacity` events
    /// per [`Epoll::wait`] call.
    pub fn new(capacity: usize) -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointer; the new fd is owned by
        // the returned `Epoll`.
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        let decoded = Vec::with_capacity(capacity.max(1));
        // `wait` asks the kernel for up to `decoded.capacity()` events (which
        // may exceed the requested capacity) and `raw` must hold that many:
        // RawEvent is at most 16 bytes, two words, plus slack.
        let words = decoded.capacity() * 2 + 2;
        Ok(Self {
            fd: fd as i32,
            raw: vec![0u64; words],
            decoded,
        })
    }

    fn ctl(&self, op: usize, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let ev = RawEvent {
            events,
            data: token,
        };
        let ptr = if op == EPOLL_CTL_DEL {
            0usize
        } else {
            std::ptr::addr_of!(ev) as usize
        };
        // SAFETY: `ptr` is null for EPOLL_CTL_DEL, which ignores the event,
        // and otherwise points at `ev`, a live `RawEvent` in the kernel's
        // `epoll_event` layout that epoll_ctl only reads during the call.
        check(unsafe { syscall6(nr::EPOLL_CTL, self.fd as usize, op, fd as usize, ptr, 0, 0) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest mask.
    pub fn add(&self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest | EPOLLRDHUP, token)
    }

    /// Changes the interest mask of an already-registered `fd`.
    pub fn modify(&self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest | EPOLLRDHUP, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks for up to `timeout_ms` (`-1`: forever) and returns the ready
    /// events. An interrupting signal yields an empty slice.
    pub fn wait(&mut self, timeout_ms: i32) -> io::Result<&[Event]> {
        // `decoded` never grows past its capacity (at most `max` pushes per
        // call after a `clear`), so `max` is the capacity `new` sized `raw`
        // for.
        let max = self.decoded.capacity();
        // `epoll_pwait` with a null sigmask behaves exactly like
        // `epoll_wait`; aarch64 only provides the former.
        // SAFETY: `raw` holds `2·max + 2` u64s, room for `max` RawEvents of
        // at most 16 bytes each, and the kernel writes at most `max` events
        // into it; the sigmask pointer is null, so nothing else is read.
        let n = match check(unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                self.fd as usize,
                self.raw.as_mut_ptr() as usize,
                max,
                timeout_ms as isize as usize,
                0,
                8,
            )
        }) {
            Ok(n) => n,
            Err(e) if e.raw_os_error() == Some(EINTR) => 0,
            Err(e) => return Err(e),
        };
        self.decoded.clear();
        let base = self.raw.as_ptr() as *const RawEvent;
        for i in 0..n.min(max) {
            // SAFETY: in bounds and initialised: the kernel wrote `n <= max`
            // events into `raw`, whose allocation covers `max` RawEvents.
            // Unaligned, because `raw`'s u64 alignment need not match the
            // packed x86_64 layout.
            let ev = unsafe { std::ptr::read_unaligned(base.add(i)) };
            let bits = ev.events;
            self.decoded.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(&self.decoded)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: close takes no pointer, and `self.fd` is owned by this
        // `Epoll`, which never uses it again.
        unsafe {
            let _ = syscall6(nr::CLOSE, self.fd as usize, 0, 0, 0, 0, 0);
        }
    }
}

/// A non-blocking self-pipe used to wake a poller out of `epoll_wait`.
///
/// The read end is registered in the poller's epoll set; any thread
/// holding the pipe can [`WakePipe::wake`] it. Writes that find the pipe
/// full are dropped — one pending byte is enough to wake the poller, which
/// drains the pipe completely on every wakeup.
#[derive(Debug)]
pub struct WakePipe {
    read_fd: i32,
    write_fd: i32,
}

impl WakePipe {
    /// Creates the pipe with both ends non-blocking.
    pub fn new() -> io::Result<Self> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live `[i32; 2]`, the two ints pipe2 writes;
        // the new fds are owned by the returned pipe.
        check(unsafe {
            syscall6(
                nr::PIPE2,
                fds.as_mut_ptr() as usize,
                O_NONBLOCK | O_CLOEXEC,
                0,
                0,
                0,
                0,
            )
        })?;
        Ok(Self {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The fd to register for `EPOLLIN` in the poller's epoll set.
    pub fn read_fd(&self) -> i32 {
        self.read_fd
    }

    /// Wakes the poller. Never blocks; a full pipe already guarantees a
    /// pending wakeup, so `EAGAIN` is success.
    pub fn wake(&self) {
        let byte = [1u8];
        loop {
            // SAFETY: `byte` is a live 1-byte buffer that write only reads,
            // and `write_fd` is owned by this pipe.
            let ret = unsafe {
                syscall6(
                    nr::WRITE,
                    self.write_fd as usize,
                    byte.as_ptr() as usize,
                    1,
                    0,
                    0,
                    0,
                )
            };
            match check(ret) {
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                _ => return, // written, EAGAIN (pipe full), or a dead pipe
            }
        }
    }

    /// Drains every pending wakeup byte.
    pub fn drain(&self) {
        let mut buf = [0u8; 256];
        loop {
            // SAFETY: read writes at most `buf.len()` bytes into the live
            // `buf`, and `read_fd` is owned by this pipe.
            let ret = unsafe {
                syscall6(
                    nr::READ,
                    self.read_fd as usize,
                    buf.as_mut_ptr() as usize,
                    buf.len(),
                    0,
                    0,
                    0,
                )
            };
            match check(ret) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                Err(e) if e.raw_os_error() == Some(EAGAIN) => return,
                Err(_) => return,
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: close takes no pointer, and both fds are owned by this
        // pipe, which never uses them again.
        unsafe {
            let _ = syscall6(nr::CLOSE, self.read_fd as usize, 0, 0, 0, 0, 0);
            let _ = syscall6(nr::CLOSE, self.write_fd as usize, 0, 0, 0, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn wake_pipe_roundtrip() {
        let pipe = WakePipe::new().unwrap();
        let mut ep = Epoll::new(8).unwrap();
        ep.add(pipe.read_fd(), 42, EPOLLIN).unwrap();
        // Nothing pending: zero-timeout wait sees nothing.
        assert!(ep.wait(0).unwrap().is_empty());
        pipe.wake();
        pipe.wake(); // coalesces
        let evs = ep.wait(1000).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].token, 42);
        assert!(evs[0].readable);
        pipe.drain();
        assert!(ep.wait(0).unwrap().is_empty());
    }

    #[test]
    fn epoll_sees_tcp_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut ep = Epoll::new(8).unwrap();
        use std::os::fd::AsRawFd;
        ep.add(server_side.as_raw_fd(), 7, EPOLLIN).unwrap();
        assert!(ep.wait(0).unwrap().is_empty());

        client.write_all(b"ping").unwrap();
        let evs = ep.wait(1000).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].token, 7);
        assert!(evs[0].readable);

        let mut s = server_side;
        let mut buf = [0u8; 8];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Interest can be switched to write-only and back.
        ep.modify(s.as_raw_fd(), 7, EPOLLOUT).unwrap();
        let evs = ep.wait(1000).unwrap();
        assert!(evs.iter().any(|e| e.token == 7 && e.writable));
        ep.delete(s.as_raw_fd()).unwrap();
        drop(client);
        assert!(ep.wait(50).unwrap().is_empty());
    }
}
