//! Packfile layer: append-only blob files plus a replayable index log.
//!
//! Each store shard owns one directory:
//!
//! ```text
//! shard-<i>/pack-<gen>.bin   back-to-back .rghd bundle images
//! shard-<i>/index.log        text log, one record per publish/rollback
//! ```
//!
//! Pack files are **append-only** within a generation; compaction writes
//! the live blobs into a fresh generation, atomically rewrites `index.log`
//! (write-temp-then-rename), and deletes retired generations — a crash at
//! any point leaves either the old complete state or the new complete
//! state. Opened packs are memory-mapped read-only; reads inside the
//! mapped snapshot are zero-copy, reads beyond it (bytes appended since
//! the map was taken) fall back to positioned reads until the next
//! [`PackSet::remap_active`].
//!
//! Durability ordering: blob bytes are fsynced ([`PackSet::sync_active`])
//! before the index record that points at them is appended (itself
//! fsynced), so a power failure may orphan blob bytes but never commits
//! an index entry whose blob was lost.
//!
//! Nothing here interprets bundle bytes — integrity is the bundle layer's
//! lazily verified per-section CRCs, identity is the index log's FNV hash.

use crate::faults::{self, StoreFaultInjector};
use crate::mmap::MappedFile;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Location of one blob inside a [`PackSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackLoc {
    /// Pack generation the blob lives in.
    pub gen: u32,
    /// Byte offset of the blob within that pack.
    pub offset: u64,
    /// Blob length in bytes.
    pub len: u32,
}

/// One replayed `index.log` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A publish: `key`'s current image became the blob at `loc`.
    Put {
        /// Store key the blob was published under.
        key: String,
        /// Where the blob landed.
        loc: PackLoc,
        /// FNV-1a of the blob bytes.
        hash: u64,
        /// Monotonic per-key version.
        version: u64,
    },
    /// A validation-triggered rollback: `key` reverted to its last-good
    /// image.
    Rollback {
        /// Store key that rolled back.
        key: String,
    },
}

/// One opened pack generation.
#[derive(Debug)]
struct Pack {
    file: File,
    map: MappedFile,
    /// Tracked file length — appends advance it ahead of the mapped
    /// snapshot.
    len: u64,
}

/// A shard's set of pack generations plus the append handle for the
/// active one.
#[derive(Debug)]
pub struct PackSet {
    dir: PathBuf,
    packs: HashMap<u32, Pack>,
    active: u32,
    writer: File,
    /// Chaos-testing seam; `None` (the default) costs nothing on the
    /// write path beyond an `Option` check.
    faults: Option<Arc<StoreFaultInjector>>,
}

fn pack_path(dir: &Path, gen: u32) -> PathBuf {
    dir.join(format!("pack-{gen}.bin"))
}

fn open_pack(dir: &Path, gen: u32) -> io::Result<Pack> {
    let path = pack_path(dir, gen);
    let file = File::open(&path)?;
    let len = file.metadata()?.len();
    let map = MappedFile::map(&file, len as usize)?;
    Ok(Pack { file, map, len })
}

/// Positioned read of `len` bytes at `offset` — the fallback for blobs
/// beyond the mapped snapshot.
fn read_at(file: &File, offset: u64, len: usize) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; len];
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(&mut buf, offset)?;
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file.try_clone()?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(&mut buf)?;
    }
    Ok(buf)
}

impl PackSet {
    /// Opens (creating if absent) the pack set in `dir`. Existing
    /// generations are scanned from the directory; appends go to the
    /// highest one.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut gens: Vec<u32> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(g) = name
                .strip_prefix("pack-")
                .and_then(|s| s.strip_suffix(".bin"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                gens.push(g);
            }
        }
        let active = match gens.iter().max() {
            Some(&g) => g,
            None => {
                File::create(pack_path(dir, 1))?;
                gens.push(1);
                1
            }
        };
        let mut packs = HashMap::new();
        for g in gens {
            packs.insert(g, open_pack(dir, g)?);
        }
        let writer = OpenOptions::new()
            .append(true)
            .open(pack_path(dir, active))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            packs,
            active,
            writer,
            faults: None,
        })
    }

    /// Attaches a fault injector consulted by every write-path operation
    /// (see [`crate::faults`]). Reads are never faulted here — read-side
    /// corruption is the bundle layer's CRC territory.
    pub fn set_faults(&mut self, faults: Option<Arc<StoreFaultInjector>>) {
        self.faults = faults;
    }

    /// The attached fault injector, if any — shared with the index-log
    /// helpers so one seam covers the whole write path.
    pub fn faults(&self) -> Option<&StoreFaultInjector> {
        self.faults.as_deref()
    }

    /// Appends a blob to the active generation and returns its location.
    ///
    /// An injected ENOSPC fails before any byte lands; an injected short
    /// write persists a prefix of the blob and then fails, advancing the
    /// tracked pack length by exactly the bytes written so later appends
    /// (and the orphaned prefix) stay addressable and non-overlapping.
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<PackLoc> {
        let pack = self
            .packs
            .get_mut(&self.active)
            .expect("active pack is always open");
        let offset = pack.len;
        if let Some(f) = &self.faults {
            if f.take_enospc_append() {
                return Err(faults::enospc_error());
            }
            if f.take_short_write() {
                let wrote = bytes.len() / 2;
                self.writer.write_all(&bytes[..wrote])?;
                self.writer.flush()?;
                pack.len += wrote as u64;
                return Err(faults::short_write_error(wrote, bytes.len()));
            }
        }
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        pack.len += bytes.len() as u64;
        Ok(PackLoc {
            gen: self.active,
            offset,
            len: bytes.len() as u32,
        })
    }

    /// Fsyncs the active generation's appended bytes. Callers sync the
    /// pack **before** writing the index record that points into it, so a
    /// power failure can lose a blob-without-record (harmless) but never
    /// commit a record-without-blob.
    pub fn sync_active(&self) -> io::Result<()> {
        if let Some(f) = &self.faults {
            if f.take_fsync_failure() {
                return Err(faults::fsync_error());
            }
        }
        self.writer.sync_data()
    }

    /// Reads the blob at `loc`: zero-copy from the mapped snapshot when
    /// covered, positioned read for bytes appended since the last remap.
    pub fn read(&self, loc: PackLoc) -> io::Result<Cow<'_, [u8]>> {
        let pack = self.packs.get(&loc.gen).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("pack generation {} not open", loc.gen),
            )
        })?;
        let end = loc
            .offset
            .checked_add(u64::from(loc.len))
            .filter(|&e| e <= pack.len)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "blob {}+{} outside pack {} (len {})",
                        loc.offset, loc.len, loc.gen, pack.len
                    ),
                )
            })?;
        if end as usize <= pack.map.len() {
            let s = loc.offset as usize;
            Ok(Cow::Borrowed(&pack.map.as_slice()[s..s + loc.len as usize]))
        } else {
            read_at(&pack.file, loc.offset, loc.len as usize).map(Cow::Owned)
        }
    }

    /// Re-maps the active generation so appends since the last map become
    /// zero-copy reads. Cheap enough to call after every compaction and
    /// periodically under sustained publishing.
    pub fn remap_active(&mut self) -> io::Result<()> {
        let pack = self
            .packs
            .get_mut(&self.active)
            .expect("active pack is always open");
        pack.map = MappedFile::map(&pack.file, pack.len as usize)?;
        Ok(())
    }

    /// Starts a fresh generation; subsequent appends land there. Used by
    /// compaction to rewrite live blobs before retiring old generations.
    pub fn start_new_gen(&mut self) -> io::Result<u32> {
        let gen = self.active + 1;
        File::create(pack_path(&self.dir, gen))?;
        self.packs.insert(gen, open_pack(&self.dir, gen)?);
        self.writer = OpenOptions::new()
            .append(true)
            .open(pack_path(&self.dir, gen))?;
        self.active = gen;
        Ok(gen)
    }

    /// Deletes every generation except `keep` (compaction's final step).
    pub fn retire_except(&mut self, keep: &[u32]) -> io::Result<()> {
        let retired: Vec<u32> = self
            .packs
            .keys()
            .copied()
            .filter(|g| !keep.contains(g))
            .collect();
        for g in retired {
            self.packs.remove(&g);
            std::fs::remove_file(pack_path(&self.dir, g))?;
        }
        Ok(())
    }

    /// The generation currently receiving appends.
    pub fn active_gen(&self) -> u32 {
        self.active
    }

    /// Total bytes across all open generations.
    pub fn total_bytes(&self) -> u64 {
        self.packs.values().map(|p| p.len).sum()
    }

    /// Number of open generations.
    pub fn generations(&self) -> usize {
        self.packs.len()
    }

    /// Whether the active generation's snapshot is a true kernel mapping.
    pub fn kernel_mapped(&self) -> bool {
        self.packs
            .get(&self.active)
            .is_some_and(|p| p.map.is_kernel_mapping() || p.map.is_empty())
    }
}

// ---------------------------------------------------------------------------
// Index log

fn log_path(dir: &Path) -> PathBuf {
    dir.join("index.log")
}

/// Renders one record as its log line.
pub fn format_record(rec: &LogRecord) -> String {
    match rec {
        LogRecord::Put {
            key,
            loc,
            hash,
            version,
        } => format!(
            "put {key} {} {} {} {hash:016x} {version}",
            loc.gen, loc.offset, loc.len
        ),
        LogRecord::Rollback { key } => format!("rollback {key}"),
    }
}

fn parse_record(line: &str) -> Option<LogRecord> {
    let mut parts = line.split_whitespace();
    match parts.next()? {
        "put" => {
            let key = parts.next()?.to_string();
            let gen = parts.next()?.parse().ok()?;
            let offset = parts.next()?.parse().ok()?;
            let len = parts.next()?.parse().ok()?;
            let hash = u64::from_str_radix(parts.next()?, 16).ok()?;
            let version = parts.next()?.parse().ok()?;
            if parts.next().is_some() {
                return None;
            }
            Some(LogRecord::Put {
                key,
                loc: PackLoc { gen, offset, len },
                hash,
                version,
            })
        }
        "rollback" => {
            let key = parts.next()?.to_string();
            if parts.next().is_some() {
                return None;
            }
            Some(LogRecord::Rollback { key })
        }
        _ => None,
    }
}

/// Replays `index.log`. Returns the parsed records and whether a torn
/// tail was dropped. Only newline-terminated lines are records: a crash
/// mid-append leaves an unterminated tail, which is torn even when it
/// happens to parse (a record cut inside its version digits still reads as
/// a record), so a crash costs at most the record being written. A
/// terminated line that does not parse is corruption, not a torn tail:
/// replay fails with [`io::ErrorKind::InvalidData`] naming the line rather
/// than dropping it and every record after it.
pub fn read_index_log(dir: &Path) -> io::Result<(Vec<LogRecord>, bool)> {
    let content = match std::fs::read(log_path(dir)) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        Err(e) => return Err(e),
    };
    let mut lines = content.split(|&b| b == b'\n');
    // `split` yields the bytes after the last newline last: empty when the
    // log ends on a record boundary, the torn tail otherwise.
    let torn = lines.next_back().is_some_and(|tail| !tail.is_empty());
    let mut records = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let rec = std::str::from_utf8(line).ok().and_then(parse_record);
        records.push(rec.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "index.log line {}: malformed record {:?}",
                    i + 1,
                    String::from_utf8_lossy(line)
                ),
            )
        })?);
    }
    Ok((records, torn))
}

/// Appends one record to `index.log` (newline-delimited, fsynced). The
/// blob the record points at must already be synced — see
/// [`PackSet::sync_active`].
///
/// An injected fsync failure fires **before** the record bytes are
/// written: after a real failed fsync the caller must assume the record
/// was lost, so the injection models the conservative (and recoverable)
/// reading — on-disk state and the caller's restored in-memory state
/// agree that the record never landed.
pub fn append_index_log(
    dir: &Path,
    rec: &LogRecord,
    faults: Option<&StoreFaultInjector>,
) -> io::Result<()> {
    if let Some(f) = faults {
        if f.take_fsync_failure() {
            return Err(faults::fsync_error());
        }
    }
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(log_path(dir))?;
    // One write for the record and its terminator: only a terminated line
    // replays.
    f.write_all(format!("{}\n", format_record(rec)).as_bytes())?;
    f.sync_data()
}

/// Atomically replaces `index.log` with `records` (write temp, rename) —
/// compaction's commit point.
///
/// An injected torn rename "crashes" after the temp file is written and
/// synced but before the rename commits: the previous `index.log` stays
/// authoritative, exactly the crash window the rename scheme defends.
pub fn rewrite_index_log(
    dir: &Path,
    records: &[LogRecord],
    faults: Option<&StoreFaultInjector>,
) -> io::Result<()> {
    let tmp = dir.join("index.log.tmp");
    {
        let mut f = File::create(&tmp)?;
        for r in records {
            f.write_all(format_record(r).as_bytes())?;
            f.write_all(b"\n")?;
        }
        f.sync_all()?;
    }
    if let Some(f) = faults {
        if f.take_torn_rename() {
            return Err(faults::torn_rename_error());
        }
    }
    std::fs::rename(&tmp, log_path(dir))?;
    // Persist the rename itself; without this a power loss can revive the
    // pre-rewrite log.
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reghd_store_pack_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn append_read_roundtrip_and_tail_reads() {
        let dir = tmpdir("roundtrip");
        let mut ps = PackSet::open(&dir).unwrap();
        let a = ps.append(b"alpha").unwrap();
        let b = ps.append(b"bravo-bytes").unwrap();
        // Both blobs were appended after the (empty) map snapshot — reads
        // take the positioned-read path.
        assert_eq!(&*ps.read(a).unwrap(), b"alpha");
        assert_eq!(&*ps.read(b).unwrap(), b"bravo-bytes");
        // After a remap they come from the mapping.
        ps.remap_active().unwrap();
        assert!(matches!(ps.read(a).unwrap(), Cow::Borrowed(_)));
        assert_eq!(&*ps.read(b).unwrap(), b"bravo-bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_lengths_and_blobs() {
        let dir = tmpdir("reopen");
        let loc = {
            let mut ps = PackSet::open(&dir).unwrap();
            ps.append(b"persistent").unwrap()
        };
        let ps = PackSet::open(&dir).unwrap();
        assert_eq!(&*ps.read(loc).unwrap(), b"persistent");
        assert_eq!(ps.active_gen(), 1);
        assert_eq!(ps.total_bytes(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_bounds_read_fails() {
        let dir = tmpdir("oob");
        let mut ps = PackSet::open(&dir).unwrap();
        ps.append(b"tiny").unwrap();
        let bad = PackLoc {
            gen: 1,
            offset: 2,
            len: 100,
        };
        assert!(ps.read(bad).is_err());
        let missing_gen = PackLoc {
            gen: 9,
            offset: 0,
            len: 1,
        };
        assert!(ps.read(missing_gen).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn new_gen_and_retire() {
        let dir = tmpdir("gens");
        let mut ps = PackSet::open(&dir).unwrap();
        let old = ps.append(b"old-blob").unwrap();
        let gen2 = ps.start_new_gen().unwrap();
        assert_eq!(gen2, 2);
        let new = ps.append(b"new-blob").unwrap();
        assert_eq!(new.gen, 2);
        // Old gen still readable until retired.
        assert_eq!(&*ps.read(old).unwrap(), b"old-blob");
        ps.retire_except(&[2]).unwrap();
        assert!(ps.read(old).is_err());
        assert_eq!(&*ps.read(new).unwrap(), b"new-blob");
        assert_eq!(ps.generations(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_log_roundtrip_and_torn_tail() {
        let dir = tmpdir("log");
        std::fs::create_dir_all(&dir).unwrap();
        let put = LogRecord::Put {
            key: "user-1".into(),
            loc: PackLoc {
                gen: 1,
                offset: 128,
                len: 64,
            },
            hash: 0xdeadbeef,
            version: 3,
        };
        let rb = LogRecord::Rollback {
            key: "user-1".into(),
        };
        append_index_log(&dir, &put, None).unwrap();
        append_index_log(&dir, &rb, None).unwrap();
        let (recs, torn) = read_index_log(&dir).unwrap();
        assert_eq!(recs, vec![put.clone(), rb.clone()]);
        assert!(!torn);

        // Simulate a crash mid-append: a torn half-record at the tail.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("index.log"))
            .unwrap();
        f.write_all(b"put user-2 1 99").unwrap();
        let (recs, torn) = read_index_log(&dir).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(torn);

        // Compaction rewrite drops the torn tail for good.
        rewrite_index_log(&dir, &recs, None).unwrap();
        let (recs2, torn2) = read_index_log(&dir).unwrap();
        assert_eq!(recs2, recs);
        assert!(!torn2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unterminated_tail_is_torn_even_when_it_parses() {
        let dir = tmpdir("log_cut_tail");
        std::fs::create_dir_all(&dir).unwrap();
        let kept = LogRecord::Rollback { key: "a".into() };
        append_index_log(&dir, &kept, None).unwrap();
        // Records cut inside their version digits or their key still
        // parse — as a different record than the one being written.
        for cut in ["put d 0 0 10 00000000000000ff 1", "rollback user-1"] {
            let mut log = format!("{}\n", format_record(&kept));
            log.push_str(cut);
            std::fs::write(dir.join("index.log"), log).unwrap();
            let (recs, torn) = read_index_log(&dir).unwrap();
            assert_eq!(recs, vec![kept.clone()], "{cut}");
            assert!(torn, "{cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_terminated_line_is_corruption_not_a_torn_tail() {
        let dir = tmpdir("log_mid_corruption");
        std::fs::create_dir_all(&dir).unwrap();
        let log = "put a 1 0 10 00000000000000ff 1\npux b 1 10 10 00000000000000ff 1\n\
                   put c 1 20 10 00000000000000ff 1\n";
        std::fs::write(dir.join("index.log"), log).unwrap();
        let err = read_index_log(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_enospc_append_writes_nothing() {
        let dir = tmpdir("fault_enospc");
        let mut ps = PackSet::open(&dir).unwrap();
        let inj = Arc::new(StoreFaultInjector::new());
        ps.set_faults(Some(inj.clone()));
        inj.arm_enospc_appends(1);
        let err = ps.append(b"doomed").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(ps.total_bytes(), 0);
        // The very next append succeeds at offset 0.
        let loc = ps.append(b"fine").unwrap();
        assert_eq!(loc.offset, 0);
        assert_eq!(&*ps.read(loc).unwrap(), b"fine");
        assert_eq!(inj.injected(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_short_write_advances_len_by_bytes_written() {
        let dir = tmpdir("fault_short");
        let mut ps = PackSet::open(&dir).unwrap();
        let inj = Arc::new(StoreFaultInjector::new());
        ps.set_faults(Some(inj.clone()));
        inj.arm_short_writes(1);
        let err = ps.append(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // Half the blob landed; the orphaned prefix stays addressable.
        assert_eq!(ps.total_bytes(), 5);
        // A follow-up append must not overlap the torn prefix...
        let loc = ps.append(b"next").unwrap();
        assert_eq!(loc.offset, 5);
        assert_eq!(&*ps.read(loc).unwrap(), b"next");
        // ...and the file length agrees with the tracked length, so a
        // reopen sees the same layout.
        drop(ps);
        let ps = PackSet::open(&dir).unwrap();
        assert_eq!(ps.total_bytes(), 9);
        assert_eq!(&*ps.read(loc).unwrap(), b"next");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_fsync_failure_fails_sync_and_log_append() {
        let dir = tmpdir("fault_fsync");
        let mut ps = PackSet::open(&dir).unwrap();
        let inj = Arc::new(StoreFaultInjector::new());
        ps.set_faults(Some(inj.clone()));
        inj.arm_fsync_failures(2);
        assert!(ps.sync_active().is_err());
        let rec = LogRecord::Rollback { key: "k".into() };
        assert!(append_index_log(&dir, &rec, Some(&inj)).is_err());
        // The failed log append left no record behind.
        let (recs, torn) = read_index_log(&dir).unwrap();
        assert!(recs.is_empty());
        assert!(!torn);
        // Fully consumed: both paths work again.
        ps.sync_active().unwrap();
        append_index_log(&dir, &rec, Some(&inj)).unwrap();
        assert_eq!(read_index_log(&dir).unwrap().0.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_torn_rename_keeps_old_log_authoritative() {
        let dir = tmpdir("fault_torn_rename");
        std::fs::create_dir_all(&dir).unwrap();
        let old = LogRecord::Rollback { key: "old".into() };
        append_index_log(&dir, &old, None).unwrap();
        let inj = StoreFaultInjector::new();
        inj.arm_torn_renames(1);
        let new = vec![LogRecord::Rollback { key: "new".into() }];
        assert!(rewrite_index_log(&dir, &new, Some(&inj)).is_err());
        // The crash window: temp written, rename lost, old log intact.
        let (recs, _) = read_index_log(&dir).unwrap();
        assert_eq!(recs, vec![old]);
        assert!(dir.join("index.log.tmp").exists());
        // Retried rewrite commits and the temp is consumed by the rename.
        rewrite_index_log(&dir, &new, Some(&inj)).unwrap();
        assert_eq!(read_index_log(&dir).unwrap().0, new);
        assert!(!dir.join("index.log.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_log_is_empty() {
        let dir = tmpdir("nolog");
        std::fs::create_dir_all(&dir).unwrap();
        let (recs, torn) = read_index_log(&dir).unwrap();
        assert!(recs.is_empty());
        assert!(!torn);
        std::fs::remove_dir_all(&dir).ok();
    }
}
