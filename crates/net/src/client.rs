//! Blocking RGNP v1 client.
//!
//! One request in flight at a time (the loadgen drives its own pipelined
//! sockets; this client exists for the CLI, the chaos harness, and
//! tests). Portable — it only needs `std::net::TcpStream`.

use crate::frame::{self, opcode, status, Frame, FrameBuf, Step};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Outcome of a single-row prediction: one variant per reply status.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictReply {
    /// Full-precision answer.
    Ok(f32),
    /// §3.2 binary-fallback answer.
    Degraded(f32),
    /// Admission control refused the row.
    Busy,
    /// Server is draining; the row was never dispatched.
    Draining,
    /// Request failed with a message.
    Err(String),
}

/// A blocking RGNP connection.
#[derive(Debug)]
pub struct RgnpClient {
    stream: TcpStream,
    buf: FrameBuf,
    next_id: u64,
}

impl RgnpClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:7979"`).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: FrameBuf::new(),
            next_id: 1,
        })
    }

    /// Sets the socket read timeout for subsequent requests.
    ///
    /// # Errors
    ///
    /// Propagates the `setsockopt` failure.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn roundtrip(&mut self, encode: impl FnOnce(&mut Vec<u8>, u64)) -> io::Result<Frame> {
        let req_id = self.next_id;
        self.next_id += 1;
        let mut out = Vec::new();
        encode(&mut out, req_id);
        self.stream.write_all(&out)?;
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match self.buf.next_frame(frame::DEFAULT_MAX_FRAME) {
                Step::Ready(f) => {
                    if f.req_id == req_id {
                        return Ok(f);
                    }
                    // A stale reply (e.g. from an earlier timed-out
                    // request) — skip it and keep reading.
                    continue;
                }
                Step::Incomplete => {}
                Step::Violation(msg) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
                }
            }
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            self.buf.extend(&scratch[..n]);
        }
    }

    fn decode_err(f: &Frame) -> String {
        String::from_utf8_lossy(&f.payload).into_owned()
    }

    /// Predicts one row on the full-precision tier.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed reply frames.
    pub fn predict(&mut self, model: &str, row: &[f32]) -> io::Result<PredictReply> {
        self.predict_tier(model, row, frame::PredictionTier::Full)
    }

    /// Predicts one row on an explicit tier. Requesting
    /// [`frame::PredictionTier::Binary`] asks for the bit-packed popcount
    /// path; the reply arrives as [`PredictReply::Degraded`] because the
    /// status byte reports the precision that answered.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed reply frames.
    pub fn predict_tier(
        &mut self,
        model: &str,
        row: &[f32],
        tier: frame::PredictionTier,
    ) -> io::Result<PredictReply> {
        let f = self.roundtrip(|out, id| frame::encode_predict_tier(out, id, model, row, tier))?;
        let value = |f: &Frame| {
            frame::decode_value_reply(&f.payload)
                .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
        };
        Ok(match f.kind {
            status::OK => PredictReply::Ok(value(&f)?),
            status::DEGRADED => PredictReply::Degraded(value(&f)?),
            status::BUSY => PredictReply::Busy,
            status::DRAINING => PredictReply::Draining,
            status::ERR => PredictReply::Err(Self::decode_err(&f)),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown reply status {other}"),
                ))
            }
        })
    }

    /// Predicts a row block; returns one `(status, value)` per row.
    ///
    /// # Errors
    ///
    /// I/O failures, server-side `ERR` frames, malformed replies.
    pub fn predict_batch(&mut self, model: &str, rows: &[Vec<f32>]) -> io::Result<Vec<(u8, f32)>> {
        let f = self.roundtrip(|out, id| frame::encode_predict_batch(out, id, model, rows))?;
        if f.kind == status::ERR {
            return Err(io::Error::other(Self::decode_err(&f)));
        }
        if f.kind == status::BUSY || f.kind == status::DRAINING {
            // Whole-request admission refusal carries no row payload.
            if f.payload.is_empty() {
                return Ok(vec![(f.kind, 0.0); rows.len()]);
            }
        }
        frame::decode_batch_reply(&f.payload)
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
    }

    fn text_request(&mut self, op: u8, payload: &[u8]) -> io::Result<Result<String, String>> {
        let f = self.roundtrip(|out, id| frame::encode(out, op, id, payload))?;
        let text = String::from_utf8_lossy(&f.payload).into_owned();
        Ok(if f.kind == status::ERR {
            Err(text)
        } else {
            Ok(text)
        })
    }

    /// Fetches the server statistics block (`model`, `stat`, optional
    /// `store`/`resolver`, and `server` lines, newline-joined).
    ///
    /// # Errors
    ///
    /// I/O failures and malformed replies.
    pub fn stats(&mut self) -> io::Result<String> {
        self.text_request(opcode::STATS, &[])?
            .map_err(io::Error::other)
    }

    /// Fetches the model inventory (`model` lines, name-sorted).
    ///
    /// # Errors
    ///
    /// I/O failures and malformed replies.
    pub fn list(&mut self) -> io::Result<String> {
        self.text_request(opcode::LIST, &[])?
            .map_err(io::Error::other)
    }

    /// Fetches the streaming-trainer status. `Ok(Err(msg))` is a
    /// server-side error such as `no trainer attached`.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed replies.
    pub fn train_status(&mut self) -> io::Result<Result<String, String>> {
        self.text_request(opcode::TRAIN_STATUS, &[])
    }

    /// Runs one admin verb line (`reload <model> <path>`, `sweep`,
    /// `inject …`). `Ok(Err(msg))` is the server's refusal, e.g.
    /// `inject disabled` or a reload's checksum mismatch.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed replies.
    pub fn admin(&mut self, line: &str) -> io::Result<Result<String, String>> {
        self.text_request(opcode::ADMIN, line.as_bytes())
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// I/O failures; `InvalidData` when the server answers non-OK.
    pub fn ping(&mut self) -> io::Result<()> {
        let f = self.roundtrip(|out, id| frame::encode(out, opcode::PING, id, &[]))?;
        if f.kind == status::OK {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ping answered with status {}", f.kind),
            ))
        }
    }
}
