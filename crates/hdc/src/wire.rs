//! Bounded reads over untrusted bytes, and the CRC-32 that guards them.
//!
//! Every decoder in the workspace — `.rghd` model files and bundles, RGDL
//! deltas and RGNP frames — reads its little-endian fields through one
//! [`Reader`]: a cursor over a byte slice that knows how many bytes
//! remain. A count read from the bytes can only size an allocation after
//! the reader has checked, with checked arithmetic, that `count × width`
//! bytes are actually there, so a forged length costs nothing to refuse.
//! Formats still cap counts that size tables no bytes back (an encoder
//! built from a spec), but they need no cap to bound what they copy.
//!
//! ```
//! use hdc::wire::{Reader, WireError};
//!
//! let bytes = [2u8, 0, 0, 0, 0xc0, 0x3f, 0, 0, 0x20, 0x40];
//! let mut r = Reader::new(&bytes);
//! let n = r.u16()? as usize;
//! assert_eq!(r.f32s(n)?, [1.5, 2.5]);
//! r.finish()?;
//!
//! // A count larger than the bytes behind it is refused before anything
//! // is allocated for it.
//! let mut r = Reader::new(&[0xff, 0xff, 0, 0]);
//! let n = r.u16()? as usize;
//! assert_eq!(r.f32s(n), Err(WireError::Truncated));
//! # Ok::<(), WireError>(())
//! ```

use std::fmt;

/// Why a [`Reader`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A read needs more bytes than remain.
    Truncated,
    /// A `u64` length or count does not fit a `usize`.
    Range(u64),
    /// A flag byte is neither 0 nor 1.
    Flag(u8),
    /// Bytes remain after the last field.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated input"),
            WireError::Range(v) => write!(f, "length {v} out of range"),
            WireError::Flag(b) => write!(f, "flag byte {b} is neither 0 nor 1"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl From<WireError> for String {
    fn from(e: WireError) -> Self {
        e.to_string()
    }
}

/// A little-endian cursor over a byte slice. Each read consumes its bytes
/// or, when too few remain, fails with [`WireError::Truncated`] and
/// consumes nothing.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.rest.len() {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// `n` consecutive `N`-byte values, after checking that all
    /// `n × N` bytes are there.
    fn chunks<const N: usize>(&mut self, n: usize) -> Result<&'a [[u8; N]], WireError> {
        let len = n.checked_mul(N).ok_or(WireError::Truncated)?;
        Ok(self.bytes(len)?.as_chunks::<N>().0)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u64` length or count field, which must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Range(v))
    }

    /// A little-endian `f32`, bit for bit.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian `f64`, bit for bit.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A boolean stored as one byte, 0 or 1; any other value is refused so
    /// that every accepted image re-encodes to itself.
    pub fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Flag(b)),
        }
    }

    /// `n` little-endian `f32`s. Allocates only once the `4n` bytes are
    /// known to be there.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        Ok(self
            .chunks(n)?
            .iter()
            .map(|&c| f32::from_le_bytes(c))
            .collect())
    }

    /// `n` little-endian `f64`s. Allocates only once the `8n` bytes are
    /// known to be there.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        Ok(self
            .chunks(n)?
            .iter()
            .map(|&c| f64::from_le_bytes(c))
            .collect())
    }

    /// Ends the read, refusing any bytes left over: an accepted image has
    /// no bytes its encoder would not write.
    pub fn finish(self) -> Result<(), WireError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

// CRC-32 (IEEE 802.3 polynomial, reflected). Implemented locally: the
// workspace takes no external dependency for 40 lines of table-driven
// arithmetic, and integrity checks must not hinge on an optional crate.
//
// Slicing-by-8: `CRC_TABLES[0]` is the classic byte-at-a-time table and
// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
// eight input bytes fold into the state with eight independent lookups per
// step instead of eight dependent ones. Same polynomial, same result as
// the bytewise loop for every input.

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Streaming CRC-32 state, for checksums over data that is never
/// serialised in one piece (a bundle's in-memory learned state).
#[derive(Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The state before any bytes.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let (blocks, tail) = bytes.as_chunks::<8>();
        for c in blocks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in tail {
            crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The CRC of every byte folded in so far.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::HdRng;

    #[test]
    fn reads_are_little_endian_and_bit_exact() {
        let mut bytes = vec![7u8, 1];
        bytes.extend(0xBEEFu16.to_le_bytes());
        bytes.extend(0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend(u64::MAX.to_le_bytes());
        bytes.extend(f32::from_bits(0x7FC0_0001).to_le_bytes());
        bytes.extend((-0.0f64).to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.flag(), Ok(true));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f32().map(f32::to_bits), Ok(0x7FC0_0001));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn short_reads_fail_and_consume_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        assert_eq!(r.bytes(4), Err(WireError::Truncated));
        assert_eq!(r.f32s(1), Err(WireError::Truncated));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.finish(), Err(WireError::Trailing(1)));
        let mut r = Reader::new(&[3]);
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }

    #[test]
    fn counts_beyond_the_bytes_are_refused_without_overflow() {
        let bytes = [0u8; 16];
        let mut r = Reader::new(&bytes);
        for n in [5, 1 << 40, usize::MAX / 4 + 1, usize::MAX] {
            assert_eq!(r.f32s(n), Err(WireError::Truncated), "{n}");
        }
        for n in [3, usize::MAX / 8 + 1, usize::MAX] {
            assert_eq!(r.f64s(n), Err(WireError::Truncated), "{n}");
        }
        assert_eq!(r.f32s(2), Ok(vec![0.0; 2]));
        assert_eq!(r.f64s(1), Ok(vec![0.0]));
        assert_eq!(r.f32s(0), Ok(Vec::new()));
        r.finish().unwrap();
    }

    #[test]
    fn flags_accept_only_zero_and_one() {
        let mut r = Reader::new(&[0, 1, 2, 7]);
        assert_eq!(r.flag(), Ok(false));
        assert_eq!(r.flag(), Ok(true));
        assert_eq!(r.flag(), Err(WireError::Flag(2)));
        assert_eq!(r.flag(), Err(WireError::Flag(7)));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Bitwise CRC32 reference: the polynomial division with no table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_slicing_matches_bitwise_reference() {
        let mut rng = HdRng::seed_from(0xC3C3);
        let buf: Vec<u8> = (0..1024 + 8).map(|_| rng.next_u64() as u8).collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {offset} len {len}");
            }
        }
        for _ in 0..24 {
            let len = rng.next_below(64 * 1024 + 1);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let want = crc32_bitwise(&data);
            assert_eq!(crc32(&data), want, "len {len}");
            // Streaming in two uneven pieces folds to the same value.
            let cut = rng.next_below(len + 1);
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finalize(), want, "len {len} cut {cut}");
        }
    }
}
