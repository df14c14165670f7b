//! RGNP v1 — the length-prefixed binary wire format.
//!
//! Every frame, request or reply, is:
//!
//! ```text
//! u32 LE  len      — number of bytes after this field (kind + id + payload)
//! u8      kind     — request: opcode; reply: status code
//! u64 LE  req_id   — client-chosen, echoed verbatim in the reply
//! [u8]    payload  — opcode/status-specific, len - 9 bytes
//! ```
//!
//! Requests on one connection may be pipelined arbitrarily deep, and
//! replies may come back in any order — the `req_id` is the correlation
//! key. See `docs/PROTOCOL.md` for the full specification.
//!
//! The decoders read through [`hdc::wire::Reader`], so an announced count
//! is checked against the bytes behind it before anything is allocated.

use hdc::wire::Reader;

/// Request opcodes.
pub mod opcode {
    /// One row: `u16 name_len | name | u32 n | n × f32` → f32 reply.
    pub const PREDICT: u8 = 0x01;
    /// Row block: `u16 name_len | name | u32 rows | u32 cols | rows×cols × f32`.
    pub const PREDICT_BATCH: u8 = 0x02;
    /// Server statistics: newline-joined `model`/`stat`/`server` lines.
    pub const STATS: u8 = 0x03;
    /// Model inventory: newline-joined `model` lines, name-sorted.
    pub const LIST: u8 = 0x04;
    /// Streaming-trainer status block.
    pub const TRAIN_STATUS: u8 = 0x05;
    /// Liveness probe; empty OK reply.
    pub const PING: u8 = 0x06;
    /// Admin verb: UTF-8 `reload <model> <path>` / `sweep` / `inject …`
    /// line → `OK` or `ERR` text reply.
    pub const ADMIN: u8 = 0x07;
}

/// Reply status codes. Ordered by severity: a batch reply's frame status
/// is the numeric maximum of its per-row statuses.
pub mod status {
    /// Full-precision answer.
    pub const OK: u8 = 0x00;
    /// Answered on the §3.2 bit-packed binary tier — either because the
    /// client requested it ([`super::PredictionTier::Binary`]) or because
    /// the server demoted the request (timeout, shed, expiry, dead worker,
    /// corrupt-flagged model).
    pub const DEGRADED: u8 = 0x01;
    /// Admission control refused the request; back off and retry.
    pub const BUSY: u8 = 0x02;
    /// Server is shutting down; the row was never dispatched.
    pub const DRAINING: u8 = 0x03;
    /// Request failed; payload is a UTF-8 message.
    pub const ERR: u8 = 0x04;
}

/// Which prediction path a `PREDICT`/`PREDICT_BATCH` request asks for,
/// carried as an **optional trailing byte** on the request payload (absent
/// = `Full`, so v1 clients are unchanged on the wire).
///
/// `Binary` selects the bit-packed popcount tier (§3.2 binary–binary):
/// int8 encode, Hamming similarity, popcount scores. Replies answered on
/// the binary tier carry [`status::DEGRADED`] whether the tier was
/// requested or the server demoted the request under overload — the status
/// byte tells the client which precision actually answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictionTier {
    /// Full-precision f32 path (the default; no wire byte).
    #[default]
    Full,
    /// Bit-packed popcount tier (wire byte `0x01`).
    Binary,
}

impl PredictionTier {
    /// The wire byte appended to request payloads.
    pub fn wire_byte(self) -> u8 {
        match self {
            PredictionTier::Full => 0x00,
            PredictionTier::Binary => 0x01,
        }
    }

    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// A static description for unknown tier bytes.
    pub fn from_wire_byte(b: u8) -> Result<Self, &'static str> {
        match b {
            0x00 => Ok(PredictionTier::Full),
            0x01 => Ok(PredictionTier::Binary),
            _ => Err("unknown prediction tier"),
        }
    }

    /// Short label used in reports and result JSON.
    pub fn label(self) -> &'static str {
        match self {
            PredictionTier::Full => "full",
            PredictionTier::Binary => "binary",
        }
    }
}

/// Frame header bytes after the length field: kind (1) + req_id (8).
pub const HEADER_AFTER_LEN: usize = 9;

/// Default cap on `len` — frames above it are a protocol violation and
/// close the connection.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Opcode (requests) or status code (replies).
    pub kind: u8,
    /// Correlation id, echoed verbatim.
    pub req_id: u64,
    /// Opcode/status-specific bytes.
    pub payload: Vec<u8>,
}

/// Outcome of one [`FrameBuf::next_frame`] step.
#[derive(Debug)]
pub enum Step {
    /// Not enough buffered bytes for a complete frame yet.
    Incomplete,
    /// One complete frame, consumed from the buffer.
    Ready(Frame),
    /// The announced length violates the protocol (`len < 9` or
    /// `len > max`). Unrecoverable: the stream cannot be resynchronised.
    Violation(&'static str),
}

/// An incremental frame decoder over a growable byte buffer.
///
/// Bytes arrive in arbitrary fragments (`extend`); complete frames are
/// taken off the front (`next_frame`). Consumed bytes are reclaimed lazily
/// so steady-state pipelined traffic does not shift the buffer per frame.
#[derive(Debug, Default)]
pub struct FrameBuf {
    data: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.data.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// Whether no unconsumed bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn compact(&mut self) {
        // Reclaim consumed prefix once it dominates the buffer.
        if self.start > 4096 && self.start * 2 >= self.data.len() {
            self.data.drain(..self.start);
            self.start = 0;
        }
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        }
    }

    /// Attempts to decode the next frame, honouring `max_frame`.
    pub fn next_frame(&mut self, max_frame: u32) -> Step {
        let mut r = Reader::new(&self.data[self.start..]);
        let Ok(len) = r.u32() else {
            return Step::Incomplete;
        };
        if (len as usize) < HEADER_AFTER_LEN {
            return Step::Violation("frame length below header size");
        }
        if len > max_frame {
            return Step::Violation("frame exceeds maximum size");
        }
        let payload_len = len as usize - HEADER_AFTER_LEN;
        let (Ok(kind), Ok(req_id), Ok(payload)) = (r.u8(), r.u64(), r.bytes(payload_len)) else {
            return Step::Incomplete;
        };
        let frame = Frame {
            kind,
            req_id,
            payload: payload.to_vec(),
        };
        self.start += 4 + len as usize;
        self.compact();
        Step::Ready(frame)
    }
}

/// Appends one frame to `out`.
pub fn encode(out: &mut Vec<u8>, kind: u8, req_id: u64, payload: &[u8]) {
    let len = (HEADER_AFTER_LEN + payload.len()) as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends a `predict` request frame (full-precision tier; the v1 wire
/// form, no tier byte).
pub fn encode_predict(out: &mut Vec<u8>, req_id: u64, model: &str, row: &[f32]) {
    encode_predict_tier(out, req_id, model, row, PredictionTier::Full);
}

/// Appends a `predict` request frame with an explicit tier. `Full` emits
/// the v1 form (no trailing byte); `Binary` appends the tier byte.
pub fn encode_predict_tier(
    out: &mut Vec<u8>,
    req_id: u64,
    model: &str,
    row: &[f32],
    tier: PredictionTier,
) {
    let mut p = Vec::with_capacity(2 + model.len() + 4 + row.len() * 4 + 1);
    p.extend_from_slice(&(model.len() as u16).to_le_bytes());
    p.extend_from_slice(model.as_bytes());
    p.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        p.extend_from_slice(&v.to_le_bytes());
    }
    if tier != PredictionTier::Full {
        p.push(tier.wire_byte());
    }
    encode(out, opcode::PREDICT, req_id, &p);
}

/// Appends a `predict-batch` request frame (full-precision tier). Every
/// row must have `cols` features; rows beyond `u32::MAX` are
/// unrepresentable.
pub fn encode_predict_batch(out: &mut Vec<u8>, req_id: u64, model: &str, rows: &[Vec<f32>]) {
    encode_predict_batch_tier(out, req_id, model, rows, PredictionTier::Full);
}

/// Appends a `predict-batch` request frame with an explicit tier (see
/// [`encode_predict_tier`]).
pub fn encode_predict_batch_tier(
    out: &mut Vec<u8>,
    req_id: u64,
    model: &str,
    rows: &[Vec<f32>],
    tier: PredictionTier,
) {
    let cols = rows.first().map_or(0, |r| r.len());
    let mut p = Vec::with_capacity(2 + model.len() + 8 + rows.len() * cols * 4 + 1);
    p.extend_from_slice(&(model.len() as u16).to_le_bytes());
    p.extend_from_slice(model.as_bytes());
    p.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    p.extend_from_slice(&(cols as u32).to_le_bytes());
    for row in rows {
        for v in row {
            p.extend_from_slice(&v.to_le_bytes());
        }
    }
    if tier != PredictionTier::Full {
        p.push(tier.wire_byte());
    }
    encode(out, opcode::PREDICT_BATCH, req_id, &p);
}

/// Decoded `predict` request payload.
#[derive(Debug, PartialEq)]
pub struct PredictReq<'a> {
    /// Model name.
    pub model: &'a str,
    /// The feature row.
    pub row: Vec<f32>,
    /// Requested prediction tier (`Full` when the request has no tier
    /// byte).
    pub tier: PredictionTier,
}

/// Decoded `predict-batch` request payload.
#[derive(Debug, PartialEq)]
pub struct PredictBatchReq<'a> {
    /// Model name.
    pub model: &'a str,
    /// The feature rows (all the same width).
    pub rows: Vec<Vec<f32>>,
    /// Requested prediction tier (`Full` when the request has no tier
    /// byte).
    pub tier: PredictionTier,
}

/// The refusal of feature bytes that disagree with the announced count.
const COUNT_MISMATCH: &str = "feature bytes do not match announced count";

/// The `u16 name_len | name` prefix of both predict payloads.
fn read_name<'a>(r: &mut Reader<'a>) -> Result<&'a str, &'static str> {
    let len = r
        .u16()
        .map_err(|_| "payload truncated before name length")?;
    if len == 0 {
        return Err("empty model name");
    }
    let name = r
        .bytes(len.into())
        .map_err(|_| "payload truncated inside name")?;
    std::str::from_utf8(name).map_err(|_| "model name not UTF-8")
}

/// The optional tier byte that may follow the features: none means
/// `Full`, one byte names the tier, and more is a malformed payload.
fn read_tier(mut r: Reader<'_>) -> Result<PredictionTier, &'static str> {
    match r.remaining() {
        0 => Ok(PredictionTier::Full),
        1 => PredictionTier::from_wire_byte(r.u8().map_err(|_| COUNT_MISMATCH)?),
        _ => Err(COUNT_MISMATCH),
    }
}

/// Parses a `predict` payload.
///
/// # Errors
///
/// A static description of the malformation, rendered into an `ERR` reply.
pub fn decode_predict(payload: &[u8]) -> Result<PredictReq<'_>, &'static str> {
    let mut r = Reader::new(payload);
    let model = read_name(&mut r)?;
    let n = r
        .u32()
        .map_err(|_| "payload truncated before feature count")?;
    if n == 0 {
        return Err("empty feature row");
    }
    let row = r.f32s(n as usize).map_err(|_| COUNT_MISMATCH)?;
    let tier = read_tier(r)?;
    Ok(PredictReq { model, row, tier })
}

/// Parses a `predict-batch` payload.
///
/// # Errors
///
/// A static description of the malformation, rendered into an `ERR` reply.
pub fn decode_predict_batch(payload: &[u8]) -> Result<PredictBatchReq<'_>, &'static str> {
    let mut r = Reader::new(payload);
    let model = read_name(&mut r)?;
    let (Ok(rows), Ok(cols)) = (r.u32(), r.u32()) else {
        return Err("payload truncated before batch dimensions");
    };
    let (rows, cols) = (rows as usize, cols as usize);
    if rows == 0 || cols == 0 {
        return Err("empty batch");
    }
    let n = rows.checked_mul(cols).ok_or("batch size overflow")?;
    let flat = r.f32s(n).map_err(|_| COUNT_MISMATCH)?;
    let tier = read_tier(r)?;
    Ok(PredictBatchReq {
        model,
        rows: flat.chunks_exact(cols).map(<[f32]>::to_vec).collect(),
        tier,
    })
}

/// Appends an f32 reply (`OK`/`DEGRADED` predict answer).
pub fn encode_value_reply(out: &mut Vec<u8>, st: u8, req_id: u64, value: f32) {
    encode(out, st, req_id, &value.to_le_bytes());
}

/// Appends a UTF-8 text reply (stats/list/train-status payloads and `ERR`
/// messages).
pub fn encode_text_reply(out: &mut Vec<u8>, st: u8, req_id: u64, text: &str) {
    encode(out, st, req_id, text.as_bytes());
}

/// Appends an empty reply (`BUSY`/`DRAINING`, and `OK` for ping).
pub fn encode_empty_reply(out: &mut Vec<u8>, st: u8, req_id: u64) {
    encode(out, st, req_id, &[]);
}

/// Appends a `predict-batch` reply: frame status is the maximum of the
/// per-row statuses; payload is `u32 rows | rows × (u8 status, f32 value)`.
pub fn encode_batch_reply(out: &mut Vec<u8>, req_id: u64, rows: &[(u8, f32)]) {
    let frame_status = rows.iter().map(|(s, _)| *s).max().unwrap_or(status::OK);
    let mut p = Vec::with_capacity(4 + rows.len() * 5);
    p.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for (s, v) in rows {
        p.push(*s);
        p.extend_from_slice(&v.to_le_bytes());
    }
    encode(out, frame_status, req_id, &p);
}

/// Parses a `predict-batch` reply payload into `(status, value)` rows.
///
/// # Errors
///
/// A static description of the malformation.
pub fn decode_batch_reply(payload: &[u8]) -> Result<Vec<(u8, f32)>, &'static str> {
    const MISMATCH: &str = "batch reply rows do not match announced count";
    let mut r = Reader::new(payload);
    let n = r
        .u32()
        .map_err(|_| "batch reply truncated before row count")? as usize;
    if n.checked_mul(5) != Some(r.remaining()) {
        return Err(MISMATCH);
    }
    (0..n)
        .map(|_| Ok((r.u8()?, r.f32()?)))
        .collect::<Result<_, hdc::wire::WireError>>()
        .map_err(|_| MISMATCH)
}

/// Parses an f32 value reply payload.
///
/// # Errors
///
/// A static description of the malformation.
pub fn decode_value_reply(payload: &[u8]) -> Result<f32, &'static str> {
    let mut r = Reader::new(payload);
    match (r.f32(), r.finish()) {
        (Ok(value), Ok(())) => Ok(value),
        _ => Err("value reply must be 4 bytes"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let mut wire = Vec::new();
        encode(&mut wire, opcode::STATS, 77, b"");
        let mut buf = FrameBuf::new();
        buf.extend(&wire);
        match buf.next_frame(DEFAULT_MAX_FRAME) {
            Step::Ready(f) => {
                assert_eq!(f.kind, opcode::STATS);
                assert_eq!(f.req_id, 77);
                assert!(f.payload.is_empty());
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            buf.next_frame(DEFAULT_MAX_FRAME),
            Step::Incomplete
        ));
        assert!(buf.is_empty());
    }

    #[test]
    fn byte_at_a_time_fragmentation() {
        let mut wire = Vec::new();
        encode_predict(&mut wire, u64::MAX, "model-x", &[1.5, -2.5, 3.25]);
        let mut buf = FrameBuf::new();
        for (i, b) in wire.iter().enumerate() {
            if i + 1 < wire.len() {
                buf.extend(std::slice::from_ref(b));
                assert!(
                    matches!(buf.next_frame(DEFAULT_MAX_FRAME), Step::Incomplete),
                    "complete frame before final byte"
                );
            } else {
                buf.extend(std::slice::from_ref(b));
            }
        }
        let Step::Ready(f) = buf.next_frame(DEFAULT_MAX_FRAME) else {
            panic!("frame must complete on final byte");
        };
        assert_eq!(f.req_id, u64::MAX);
        let req = decode_predict(&f.payload).unwrap();
        assert_eq!(req.model, "model-x");
        assert_eq!(req.row, vec![1.5, -2.5, 3.25]);
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut wire = Vec::new();
        for id in 0..100u64 {
            encode_predict(&mut wire, id, "m", &[id as f32]);
        }
        let mut buf = FrameBuf::new();
        buf.extend(&wire);
        for id in 0..100u64 {
            let Step::Ready(f) = buf.next_frame(DEFAULT_MAX_FRAME) else {
                panic!("frame {id} missing");
            };
            assert_eq!(f.req_id, id);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_and_undersized_lengths_are_violations() {
        let mut buf = FrameBuf::new();
        buf.extend(&(8u32).to_le_bytes()); // < 9: no room for kind+id
        assert!(matches!(buf.next_frame(1024), Step::Violation(_)));

        let mut buf = FrameBuf::new();
        buf.extend(&(1025u32).to_le_bytes());
        assert!(matches!(buf.next_frame(1024), Step::Violation(_)));

        // Exactly at the cap is legal.
        let mut wire = Vec::new();
        encode(
            &mut wire,
            opcode::PING,
            1,
            &vec![0u8; 1024 - HEADER_AFTER_LEN],
        );
        let mut buf = FrameBuf::new();
        buf.extend(&wire);
        assert!(matches!(buf.next_frame(1024), Step::Ready(_)));
    }

    #[test]
    fn predict_batch_roundtrip_and_reply() {
        let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let mut wire = Vec::new();
        encode_predict_batch(&mut wire, 9, "mm", &rows);
        let mut buf = FrameBuf::new();
        buf.extend(&wire);
        let Step::Ready(f) = buf.next_frame(DEFAULT_MAX_FRAME) else {
            panic!("incomplete");
        };
        let req = decode_predict_batch(&f.payload).unwrap();
        assert_eq!(req.model, "mm");
        assert_eq!(req.rows, rows);

        let mut reply = Vec::new();
        encode_batch_reply(&mut reply, 9, &[(status::OK, 1.5), (status::DEGRADED, 2.5)]);
        let mut buf = FrameBuf::new();
        buf.extend(&reply);
        let Step::Ready(f) = buf.next_frame(DEFAULT_MAX_FRAME) else {
            panic!("incomplete");
        };
        // Frame status is the max of row statuses.
        assert_eq!(f.kind, status::DEGRADED);
        let rows = decode_batch_reply(&f.payload).unwrap();
        assert_eq!(rows, vec![(status::OK, 1.5), (status::DEGRADED, 2.5)]);
    }

    #[test]
    fn tier_byte_roundtrips_and_defaults_to_full() {
        // v1 form (no byte) decodes as Full.
        let mut wire = Vec::new();
        encode_predict(&mut wire, 1, "m", &[1.0, 2.0]);
        let mut buf = FrameBuf::new();
        buf.extend(&wire);
        let Step::Ready(f) = buf.next_frame(DEFAULT_MAX_FRAME) else {
            panic!("incomplete");
        };
        assert_eq!(
            decode_predict(&f.payload).unwrap().tier,
            PredictionTier::Full
        );

        // Explicit binary tier round-trips on both opcodes.
        let mut wire = Vec::new();
        encode_predict_tier(&mut wire, 2, "m", &[1.0], PredictionTier::Binary);
        encode_predict_batch_tier(
            &mut wire,
            3,
            "m",
            &[vec![1.0], vec![2.0]],
            PredictionTier::Binary,
        );
        let mut buf = FrameBuf::new();
        buf.extend(&wire);
        let Step::Ready(f) = buf.next_frame(DEFAULT_MAX_FRAME) else {
            panic!("incomplete");
        };
        let req = decode_predict(&f.payload).unwrap();
        assert_eq!(req.tier, PredictionTier::Binary);
        assert_eq!(req.row, vec![1.0]);
        let Step::Ready(f) = buf.next_frame(DEFAULT_MAX_FRAME) else {
            panic!("incomplete");
        };
        let req = decode_predict_batch(&f.payload).unwrap();
        assert_eq!(req.tier, PredictionTier::Binary);
        assert_eq!(req.rows.len(), 2);

        // An explicit Full tier byte is also accepted.
        let mut p = Vec::new();
        p.extend_from_slice(&(1u16).to_le_bytes());
        p.push(b'm');
        p.extend_from_slice(&(1u32).to_le_bytes());
        p.extend_from_slice(&1.0f32.to_le_bytes());
        p.push(PredictionTier::Full.wire_byte());
        assert_eq!(decode_predict(&p).unwrap().tier, PredictionTier::Full);

        // Unknown tier bytes are request errors, not silently Full.
        *p.last_mut().unwrap() = 0x7F;
        assert_eq!(decode_predict(&p).unwrap_err(), "unknown prediction tier");
        assert_eq!(PredictionTier::Binary.label(), "binary");
        assert_eq!(
            PredictionTier::from_wire_byte(1).unwrap(),
            PredictionTier::Binary
        );
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_predict(b"").is_err());
        assert!(decode_predict(&[0, 0]).is_err(), "empty name");
        // Name length larger than payload.
        assert!(decode_predict(&[10, 0, b'a']).is_err());
        // Feature count mismatch.
        let mut p = Vec::new();
        p.extend_from_slice(&(1u16).to_le_bytes());
        p.push(b'm');
        p.extend_from_slice(&(3u32).to_le_bytes());
        p.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(decode_predict(&p).is_err());
        // Non-UTF-8 name.
        assert!(decode_predict(&[1, 0, 0xFF, 0, 0, 0, 0]).is_err());
        assert!(decode_predict_batch(&[1, 0, b'm', 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(decode_batch_reply(&[1, 0, 0, 0]).is_err());
        assert!(decode_value_reply(&[0, 0]).is_err());
    }

    #[test]
    fn value_reply_is_bit_exact() {
        let y = f32::from_bits(0x7F80_0001u32 ^ 0x0040_0000); // odd payload
        let mut wire = Vec::new();
        encode_value_reply(&mut wire, status::OK, 3, y);
        let mut buf = FrameBuf::new();
        buf.extend(&wire);
        let Step::Ready(f) = buf.next_frame(DEFAULT_MAX_FRAME) else {
            panic!("incomplete");
        };
        assert_eq!(
            decode_value_reply(&f.payload).unwrap().to_bits(),
            y.to_bits()
        );
    }

    #[test]
    fn compaction_reclaims_consumed_prefix() {
        let mut buf = FrameBuf::new();
        for id in 0..2000u64 {
            let mut wire = Vec::new();
            encode_predict(&mut wire, id, "m", &[0.0; 8]);
            buf.extend(&wire);
            let Step::Ready(f) = buf.next_frame(DEFAULT_MAX_FRAME) else {
                panic!("incomplete");
            };
            assert_eq!(f.req_id, id);
        }
        // After 2000 consumed frames the retained storage must not have
        // grown linearly with total traffic.
        assert!(
            buf.data.len() < 64 * 1024,
            "buffer grew: {}",
            buf.data.len()
        );
    }
}
