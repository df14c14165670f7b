//! `reghd-net` — event-driven RGNP front-end for the RegHD serving stack.
//!
//! The one network front-end of the serving stack. It puts the
//! `reghd-serve` machinery (registry, batcher, workers, shed, deadlines,
//! admin verbs) behind a readiness-model transport, so 10k connections
//! cost a few poller threads rather than 10k stacks:
//!
//! * [`sys`]: a dependency-free epoll + wakeup-pipe layer built on raw
//!   Linux syscalls (the same direct-syscall idiom as `reghd-store`'s
//!   mmap layer), gated to `linux` on `x86_64`/`aarch64`.
//! * [`frame`]: the **RGNP v1** codec — length-prefixed binary frames
//!   with explicit request ids, so clients pipeline requests and the
//!   server completes them out of order (see `docs/PROTOCOL.md`).
//! * [`server`]: a fixed poller-thread pool multiplexing all
//!   connections, with per-connection write-budget backpressure and
//!   idle/reply timeouts; model math still runs on the worker pool.
//! * [`client`]: a small blocking RGNP client for tests, the CLI, and
//!   the chaos harness.
//! * [`loadgen`]: an open-loop (fixed offered rate) load generator that
//!   reports latency quantiles without coordinated omission.
//!
//! Serving is Linux-only (x86_64/aarch64). On other platforms the codec,
//! client and config types still build, but [`server::serve_rgnp`] and the
//! loadgen return `Unsupported` errors.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod sys;

pub mod client;
pub mod frame;
pub mod loadgen;
pub mod server;

pub use client::RgnpClient;
pub use loadgen::{LoadConfig, LoadReport};
pub use server::{serve_rgnp, NetConfig, NetServerHandle};
