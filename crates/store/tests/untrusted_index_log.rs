//! Property tests over untrusted `index.log` bytes.
//!
//! A shard's index log is replayed on every open, after whatever a crash,
//! a full disk or bit rot left behind. [`read_index_log`] must never panic
//! on any bytes, UTF-8 or not. It either refuses them as
//! [`io::ErrorKind::InvalidData`], or returns records that survive being
//! written back through [`format_record`], and on a truncated valid log
//! exactly the complete lines before the cut, flagging a cut that is not
//! at a line boundary as a torn tail.

use std::io;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use reghd_store::pack::{format_record, read_index_log, LogRecord, PackLoc};

/// Upper bound on generated arbitrary input.
const MAX_INPUT: usize = 512;

/// A fresh directory per test, so the parallel tests never share a log.
fn dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reghd_store_index_log_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `bytes` as the directory's log and replays it.
fn replay(dir: &Path, bytes: &[u8]) -> io::Result<(Vec<LogRecord>, bool)> {
    std::fs::write(dir.join("index.log"), bytes).unwrap();
    read_index_log(dir)
}

/// The lines a log of `records` is made of.
fn render(records: &[LogRecord]) -> Vec<u8> {
    records
        .iter()
        .flat_map(|r| format!("{}\n", format_record(r)).into_bytes())
        .collect()
}

/// A valid multi-record log: puts and rollbacks over a few keys.
fn valid_records() -> Vec<LogRecord> {
    let put =
        |key: &str, gen: u32, offset: u64, len: u32, hash: u64, version: u64| LogRecord::Put {
            key: key.to_string(),
            loc: PackLoc { gen, offset, len },
            hash,
            version,
        };
    vec![
        put("user-1", 1, 0, 4096, 0xdead_beef, 1),
        put("d", 0, 0, 10, 0xff, 12),
        put("user-1", 1, 4096, 4100, u64::MAX, 2),
        LogRecord::Rollback {
            key: "user-1".to_string(),
        },
        put(
            "k.a:b_c-9",
            3,
            1 << 40,
            u32::MAX,
            0x0123_4567_89ab_cdef,
            1 << 33,
        ),
        LogRecord::Rollback {
            key: "d".to_string(),
        },
    ]
}

/// Replays `bytes` in the test's directory `name`: a refusal must be
/// `InvalidData`; replayed records must come back unchanged through
/// `format_record`.
fn check(name: &str, bytes: &[u8]) -> Result<(), TestCaseError> {
    let dir = dir(name);
    let outcome = (|| {
        match replay(&dir, bytes) {
            Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e),
            Ok((records, _)) => {
                let again = replay(&dir, &render(&records))
                    .map_err(|e| TestCaseError::fail(format!("re-rendered log refused: {e}")))?;
                prop_assert_eq!(again, (records, false));
            }
        }
        Ok(())
    })();
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// Log-shaped bytes: record words, keys, numbers, separators, and bytes
/// that are not UTF-8, in any order.
fn log_piece() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop_oneof![
            Just(b"put ".to_vec()),
            Just(b"rollback ".to_vec()),
            Just(b"pux ".to_vec()),
            Just(b"user-1 ".to_vec()),
            Just(b"00000000000000ff ".to_vec()),
            Just(b"+7 ".to_vec()),
            Just(b"\n".to_vec()),
            Just(b"\r\n".to_vec()),
            Just(vec![0xff, 0xfe]),
        ],
        (0u64..1 << 34).prop_map(|n| format!("{n} ").into_bytes()),
        prop::collection::vec(any::<u8>(), 1..4),
    ]
}

#[test]
fn every_truncation_replays_the_complete_lines_before_the_cut() {
    let dir = dir("truncations");
    let records = valid_records();
    let log = render(&records);
    for cut in 0..=log.len() {
        let (got, torn) = replay(&dir, &log[..cut]).unwrap();
        let complete = log[..cut].iter().filter(|&&b| b == b'\n').count();
        assert_eq!(got, records[..complete], "cut at {cut}");
        assert_eq!(torn, cut > 0 && log[cut - 1] != b'\n', "cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_valid_log_replays_whole() {
    let dir = dir("valid");
    let records = valid_records();
    assert_eq!(replay(&dir, &render(&records)).unwrap(), (records, false));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..MAX_INPUT + 1),
    ) {
        check("arbitrary", &bytes)?;
    }

    #[test]
    fn log_shaped_bytes_replay_or_refuse(
        pieces in prop::collection::vec(log_piece(), 0..40),
    ) {
        check("shaped", &pieces.concat())?;
    }

    #[test]
    fn single_byte_mutations_replay_or_refuse(
        at in any::<u64>(),
        value in any::<u8>(),
    ) {
        let mut log = render(&valid_records());
        let at = at as usize % log.len();
        log[at] = value;
        check("mutations", &log)?;
    }
}
