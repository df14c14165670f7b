//! The sharded model store: key → shard → packfile blob → decoded model.
//!
//! # Resolution path
//!
//! [`ModelStore::get`] hashes the key onto a shard, takes that shard's
//! lock (shards never contend with each other), and:
//!
//! 1. returns the hot LRU entry if the decoded model is resident;
//! 2. otherwise reads the blob from the shard's packfiles (zero-copy from
//!    the mmap snapshot when covered) and decodes it **lazily** —
//!    [`ModelBundle::decode_serving`] verifies only the scalers and model
//!    section CRCs, leaving the canary section untouched;
//! 3. on decode failure, rolls the key back to its last-good image (the
//!    previous publish), records the rollback in the index log, and
//!    serves that — per-key rollback that cannot disturb any other
//!    resident model.
//!
//! # Publication
//!
//! [`ModelStore::publish_full`] and [`ModelStore::publish_delta`] are
//! canary-gated: the incoming (or patched) bundle must parse, pass every
//! section checksum, and replay its canary bit-exactly *before* the index
//! is updated. The previous image becomes the key's last-good fallback.
//! A delta is a byte patch of the key's current image, checked against
//! the hashes of that image and of the full bundle the sender diffed
//! ([`ModelDelta::apply`], which decodes nothing); the patched image then
//! passes the same gate as a full publish, so a base+delta chain can
//! never drift from full publishes.

use crate::delta::ModelDelta;
use crate::faults::StoreFaultInjector;
use crate::lru::LruCache;
use crate::pack::{self, LogRecord, PackLoc, PackSet};
use crate::{fnv1a, StoreError};
use reghd_serve::bundle::{ModelBundle, SectionFrames};
use reghd_serve::registry::{ModelMeta, ModelResolver, ServedModel};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Remap the active pack after this many appended bytes, so sustained
/// publishing keeps reads on the zero-copy path.
const REMAP_AFTER_BYTES: u64 = 4 << 20;

/// Sizing knobs for a [`ModelStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of shards (independent lock + packfiles + hot cache).
    pub shards: usize,
    /// Total hot-cache budget in bytes, split evenly across shards.
    pub hot_budget_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            hot_budget_bytes: 64 << 20,
        }
    }
}

/// Index entry for one key.
#[derive(Debug, Clone, Copy)]
struct ImageRef {
    version: u64,
    loc: PackLoc,
    hash: u64,
}

#[derive(Debug, Clone, Copy)]
struct KeyState {
    current: ImageRef,
    last_good: Option<ImageRef>,
}

#[derive(Debug)]
struct Shard {
    dir: PathBuf,
    packs: PackSet,
    index: HashMap<String, KeyState>,
    hot: LruCache<Arc<ServedModel>>,
    appended_since_remap: u64,
}

/// Point-in-time operational counters for the whole store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Resident keys across all shards.
    pub keys: usize,
    /// Decoded models currently hot.
    pub hot_entries: usize,
    /// Bytes charged against the hot budget.
    pub hot_bytes: usize,
    /// Total hot budget.
    pub hot_budget: usize,
    /// Hot-cache hits.
    pub hits: u64,
    /// Hot-cache misses (each one paid a cold decode).
    pub misses: u64,
    /// Hot-cache evictions.
    pub evictions: u64,
    /// Keys rolled back to last-good after a validation failure.
    pub rollbacks: u64,
    /// Images that failed first-touch validation.
    pub decode_failures: u64,
    /// Full-bundle publishes admitted.
    pub publishes: u64,
    /// Delta publishes admitted.
    pub delta_publishes: u64,
    /// Bytes across all pack generations.
    pub pack_bytes: u64,
    /// Whether active packs are true kernel mappings.
    pub kernel_mapped: bool,
}

/// Sharded per-user model store (see the crate docs for the design).
#[derive(Debug)]
pub struct ModelStore {
    shards: Vec<Mutex<Shard>>,
    rollbacks: AtomicU64,
    decode_failures: AtomicU64,
    publishes: AtomicU64,
    delta_publishes: AtomicU64,
}

fn lock_shard(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    // Shard state stays structurally valid across a panicking holder
    // (same reasoning as the serving registry's lock recovery).
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Keys must survive a whitespace-delimited text log.
fn validate_key(key: &str) -> Result<(), StoreError> {
    let ok = !key.is_empty()
        && key.len() <= 200
        && key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'));
    if ok {
        Ok(())
    } else {
        Err(StoreError::BadKey(key.to_string()))
    }
}

/// Decodes a blob for serving (lazy canary) and wraps it as a registry
/// entry. The metadata hash comes from the index entry, which holds the
/// blob's FNV-1a (computed at admit, replayed from the log, or set by
/// `bulk_alias`), so a cold load does not re-hash the blob; the canary row
/// count comes from the unverified section header.
fn build_served(key: &str, image: ImageRef, blob: &[u8]) -> Result<ServedModel, String> {
    let bundle = ModelBundle::decode_serving(blob)?;
    let canary_rows = SectionFrames::parse(blob)
        .map(|f| f.canary_rows_hint())
        .unwrap_or(0);
    let meta = ModelMeta::new(
        key,
        image.version,
        image.hash,
        blob.len(),
        canary_rows,
        &bundle,
    );
    Ok(ServedModel::new(meta, bundle))
}

/// The publication gate: full (eager) validation — every section checksum
/// and a bit-exact canary replay. Publication is the trust boundary; the
/// lazy CRC path on reads exists because this already ran.
fn canary_checked(bytes: &[u8]) -> Result<ModelBundle, StoreError> {
    let bundle = ModelBundle::from_bytes(bytes).map_err(StoreError::Bundle)?;
    bundle.run_canary().map_err(StoreError::Canary)?;
    Ok(bundle)
}

impl ModelStore {
    /// Opens (creating if absent) a store rooted at `root`, replaying each
    /// shard's index log. A torn log tail (crash mid-append) drops at most
    /// the record being written: the log is truncated to its complete
    /// records before the shard accepts new appends, so a later record can
    /// never fuse with the partial one. A malformed complete record is
    /// corruption, not a crash: open fails with the log untouched
    /// ([`pack::read_index_log`]).
    ///
    /// The shard count is part of the on-disk layout (key → shard routing
    /// is `hash % shards`), so an existing store is always reopened with
    /// the shard count it was created with; `cfg.shards` only sizes a
    /// fresh store.
    pub fn open(root: &Path, cfg: StoreConfig) -> Result<Self, StoreError> {
        let existing = Self::count_shard_dirs(root)?;
        let shards = if existing > 0 {
            existing
        } else {
            cfg.shards.max(1)
        };
        let per_shard_budget = (cfg.hot_budget_bytes / shards).max(1);
        let mut out = Vec::with_capacity(shards);
        for i in 0..shards {
            let dir = root.join(format!("shard-{i}"));
            let packs = PackSet::open(&dir)?;
            let (records, torn) = pack::read_index_log(&dir)?;
            if torn {
                // Crash mid-append left a partial, newline-less record at
                // the tail. Rewrite the log to the complete records now —
                // appending after the partial record would fuse the two
                // into one malformed line and fail the next replay.
                pack::rewrite_index_log(&dir, &records, None)?;
            }
            let mut index: HashMap<String, KeyState> = HashMap::new();
            for rec in records {
                match rec {
                    LogRecord::Put {
                        key,
                        loc,
                        hash,
                        version,
                    } => {
                        let image = ImageRef { version, loc, hash };
                        index
                            .entry(key)
                            .and_modify(|s| {
                                s.last_good = Some(s.current);
                                s.current = image;
                            })
                            .or_insert(KeyState {
                                current: image,
                                last_good: None,
                            });
                    }
                    LogRecord::Rollback { key } => {
                        if let Some(s) = index.get_mut(&key) {
                            if let Some(lg) = s.last_good.take() {
                                s.current = lg;
                            }
                        }
                    }
                }
            }
            out.push(Mutex::new(Shard {
                dir,
                packs,
                index,
                hot: LruCache::new(per_shard_budget),
                appended_since_remap: 0,
            }));
        }
        Ok(Self {
            shards: out,
            rollbacks: AtomicU64::new(0),
            decode_failures: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            delta_publishes: AtomicU64::new(0),
        })
    }

    /// Attaches (or detaches, with `None`) a write-path fault injector to
    /// every shard — the chaos-testing seam (see [`crate::faults`]). Reads
    /// are never faulted; injected failures surface as [`StoreError::Io`]
    /// from publishes, audits, and compaction, and the store's in-memory
    /// index is restored to the pre-operation state whenever durability
    /// fails, so a faulted publish is simply *absent* rather than
    /// half-visible.
    pub fn attach_faults(&self, faults: Option<Arc<StoreFaultInjector>>) {
        for shard in &self.shards {
            lock_shard(shard).packs.set_faults(faults.clone());
        }
    }

    /// Counts contiguous `shard-<i>` directories under `root` (the layout
    /// [`ModelStore::open`] creates).
    fn count_shard_dirs(root: &Path) -> Result<usize, StoreError> {
        let mut n = 0;
        while root.join(format!("shard-{n}")).is_dir() {
            n += 1;
        }
        Ok(n)
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        let h = fnv1a(key.as_bytes()) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Resolves `key` to its decoded model, decoding from the packfiles on
    /// a cache miss. A current image that fails its (lazily validated)
    /// scalers/model checksums triggers a per-key rollback to the
    /// last-good image; every other key's resident decode is untouched.
    pub fn get(&self, key: &str) -> Result<Arc<ServedModel>, StoreError> {
        let mut shard = lock_shard(self.shard_for(key));
        if let Some(hit) = shard.hot.get(key) {
            return Ok(hit.clone());
        }
        let state = *shard
            .index
            .get(key)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        match self.decode_into_hot(&mut shard, key, state.current) {
            Ok(served) => Ok(served),
            Err(first_err) => {
                // Only validation failures demote the key: a transient
                // read error (e.g. EIO) says nothing about the bytes, so
                // rolling back durably would discard a good image.
                if !matches!(first_err, StoreError::Corrupt(_)) {
                    return Err(first_err);
                }
                self.decode_failures.fetch_add(1, Ordering::Relaxed);
                let Some(lg) = state.last_good else {
                    return Err(first_err);
                };
                self.roll_back(&mut shard, key, lg)?;
                self.decode_into_hot(&mut shard, key, lg)
            }
        }
    }

    /// Makes `key`'s last-good image current, durably — the rollback of
    /// both [`ModelStore::get`] and [`ModelStore::audit`] — and drops the
    /// key's hot decode.
    fn roll_back(
        &self,
        shard: &mut Shard,
        key: &str,
        last_good: ImageRef,
    ) -> Result<(), StoreError> {
        let rolled = KeyState {
            current: last_good,
            last_good: None,
        };
        shard.index.insert(key.to_string(), rolled);
        pack::append_index_log(
            &shard.dir,
            &LogRecord::Rollback {
                key: key.to_string(),
            },
            shard.packs.faults(),
        )?;
        shard.hot.remove(key);
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reads, decodes, and caches one image. Shared by the fresh-load and
    /// rollback paths of [`ModelStore::get`].
    fn decode_into_hot(
        &self,
        shard: &mut Shard,
        key: &str,
        image: ImageRef,
    ) -> Result<Arc<ServedModel>, StoreError> {
        let blob = shard.packs.read(image.loc)?;
        let served = build_served(key, image, &blob).map_err(StoreError::Corrupt)?;
        let mem = served.meta.mem;
        let served = Arc::new(served);
        drop(blob);
        shard.hot.insert(key, served.clone(), mem);
        Ok(served)
    }

    /// Validates and admits full bundle bytes under `key`, bumping its
    /// version. Gated exactly like a registry publish: the bundle must
    /// parse, pass all section checksums, and replay its canary
    /// bit-exactly before the index is touched. The previous image becomes
    /// the key's last-good fallback.
    pub fn publish_full(&self, key: &str, bytes: &[u8]) -> Result<ModelMeta, StoreError> {
        validate_key(key)?;
        let bundle = canary_checked(bytes)?;
        self.publishes.fetch_add(1, Ordering::Relaxed);
        let hash = fnv1a(bytes);
        let mut shard = lock_shard(self.shard_for(key));
        self.admit(&mut shard, key, bytes, hash, &bundle)
    }

    /// Applies a delta to `key`'s current image and admits the patched
    /// full bundle. The delta must target the key's current version and
    /// hash, and the patched bytes must hash to the full bundle the
    /// sender diffed — so base+delta is bit-identical to a full publish —
    /// and pass the same canary gate; that gate is the one decode.
    pub fn publish_delta(&self, key: &str, delta: &ModelDelta) -> Result<ModelMeta, StoreError> {
        validate_key(key)?;
        let mut shard = lock_shard(self.shard_for(key));
        let state = *shard
            .index
            .get(key)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        if state.current.version != delta.base_version {
            return Err(StoreError::Delta(format!(
                "delta targets v{}, key is at v{}",
                delta.base_version, state.current.version
            )));
        }
        let patched = delta.apply(&shard.packs.read(state.current.loc)?)?;
        let bundle = canary_checked(&patched)?;
        self.delta_publishes.fetch_add(1, Ordering::Relaxed);
        // `apply` has checked the patched bytes against this hash.
        self.admit(&mut shard, key, &patched, delta.expected_hash, &bundle)
    }

    /// Appends an already-validated image, whose FNV-1a is `hash`, and
    /// updates index, log, and hot cache.
    fn admit(
        &self,
        shard: &mut Shard,
        key: &str,
        bytes: &[u8],
        hash: u64,
        bundle: &ModelBundle,
    ) -> Result<ModelMeta, StoreError> {
        let loc = shard.packs.append(bytes)?;
        shard.appended_since_remap += u64::from(loc.len);
        if shard.appended_since_remap >= REMAP_AFTER_BYTES {
            shard.packs.remap_active()?;
            shard.appended_since_remap = 0;
        }
        let prev = shard.index.get(key).copied();
        let version = prev.map(|s| s.current.version + 1).unwrap_or(1);
        let image = ImageRef { version, loc, hash };
        let state = KeyState {
            current: image,
            last_good: prev.map(|s| s.current),
        };
        shard.index.insert(key.to_string(), state);
        // Blob bytes must be durable before the record pointing at them.
        let durable = shard
            .packs
            .sync_active()
            .and_then(|()| {
                pack::append_index_log(
                    &shard.dir,
                    &LogRecord::Put {
                        key: key.to_string(),
                        loc,
                        hash,
                        version,
                    },
                    shard.packs.faults(),
                )
            })
            .map_err(StoreError::Io);
        if let Err(e) = durable {
            // The record never landed, so a reopen replays the *previous*
            // state; restore the in-memory index to match — a failed
            // publish must be absent, not half-visible until restart.
            match prev {
                Some(p) => shard.index.insert(key.to_string(), p),
                None => shard.index.remove(key),
            };
            return Err(e);
        }
        // The old decode (if hot) keeps serving for whoever pinned its
        // Arc; later gets decode the new image.
        shard.hot.remove(key);
        let canary_rows = bundle.canary_len();
        Ok(ModelMeta::new(
            key,
            version,
            hash,
            bytes.len(),
            canary_rows,
            bundle,
        ))
    }

    /// Fully validates `key`'s current image — the **first touch** of the
    /// canary section the serving path deliberately skips: its checksum is
    /// verified, it is decoded, and the canary is replayed bit-exactly.
    /// A failure rolls the key back to its last-good image (durably, like
    /// the read path) and reports the error.
    pub fn audit(&self, key: &str) -> Result<(), StoreError> {
        let mut shard = lock_shard(self.shard_for(key));
        let state = *shard
            .index
            .get(key)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        let blob = shard.packs.read(state.current.loc)?.into_owned();
        let verdict = (|| -> Result<(), String> {
            let mut bundle = ModelBundle::decode_serving(&blob)?;
            bundle.attach_canary_from(&blob)?;
            bundle.run_canary()
        })();
        match verdict {
            Ok(()) => Ok(()),
            Err(msg) => {
                self.decode_failures.fetch_add(1, Ordering::Relaxed);
                if let Some(lg) = state.last_good {
                    self.roll_back(&mut shard, key, lg)?;
                }
                Err(StoreError::Corrupt(msg))
            }
        }
    }

    /// Registers `count` synthetic keys (`<prefix>0 … <prefix>count-1`)
    /// all aliasing one validated bundle image appended once per shard —
    /// the benchmark/test helper for standing up a million-key resident
    /// fleet without writing a million blobs. Alias entries live in the
    /// in-memory index only (not the log): they model *resident index
    /// scale*, not durable state.
    pub fn bulk_alias(&self, prefix: &str, count: usize, bytes: &[u8]) -> Result<(), StoreError> {
        validate_key(prefix)?;
        canary_checked(bytes)?;
        let mut locs = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let mut s = lock_shard(shard);
            let loc = s.packs.append(bytes)?;
            s.packs.remap_active()?;
            locs.push(loc);
        }
        let hash = fnv1a(bytes);
        for i in 0..count {
            let key = format!("{prefix}{i}");
            let h = fnv1a(key.as_bytes()) as usize % self.shards.len();
            let mut s = lock_shard(&self.shards[h]);
            s.index.insert(
                key,
                KeyState {
                    current: ImageRef {
                        version: 1,
                        loc: locs[h],
                        hash,
                    },
                    last_good: None,
                },
            );
        }
        Ok(())
    }

    /// Rewrites every shard's live blobs (current + last-good per key)
    /// into a fresh pack generation, atomically replaces the index log,
    /// and deletes retired generations. Safe against crashes at any point:
    /// the rename of `index.log` is the commit.
    pub fn compact(&self) -> Result<(), StoreError> {
        for shard in &self.shards {
            let mut s = lock_shard(shard);
            let gen = s.packs.start_new_gen()?;
            let mut keys: Vec<String> = s.index.keys().cloned().collect();
            keys.sort();
            let mut records = Vec::with_capacity(keys.len() * 2);
            for key in keys {
                let state = s.index[&key];
                let mut moved = state;
                if let Some(lg) = state.last_good {
                    let blob = s.packs.read(lg.loc)?.into_owned();
                    let loc = s.packs.append(&blob)?;
                    moved.last_good = Some(ImageRef { loc, ..lg });
                    records.push(LogRecord::Put {
                        key: key.clone(),
                        loc,
                        hash: lg.hash,
                        version: lg.version,
                    });
                }
                let blob = s.packs.read(state.current.loc)?.into_owned();
                let loc = s.packs.append(&blob)?;
                moved.current = ImageRef {
                    loc,
                    ..state.current
                };
                records.push(LogRecord::Put {
                    key: key.clone(),
                    loc,
                    hash: state.current.hash,
                    version: state.current.version,
                });
                s.index.insert(key, moved);
            }
            // Rewritten blobs must hit disk before the log rename commits
            // references to them.
            s.packs.sync_active()?;
            pack::rewrite_index_log(&s.dir, &records, s.packs.faults())?;
            s.packs.retire_except(&[gen])?;
            s.packs.remap_active()?;
            s.appended_since_remap = 0;
        }
        Ok(())
    }

    /// Number of resident keys across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).index.len()).sum()
    }

    /// Whether no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters across all shards.
    pub fn stats(&self) -> StoreStats {
        let mut st = StoreStats {
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            decode_failures: self.decode_failures.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            delta_publishes: self.delta_publishes.load(Ordering::Relaxed),
            kernel_mapped: true,
            ..StoreStats::default()
        };
        for shard in &self.shards {
            let s = lock_shard(shard);
            st.keys += s.index.len();
            st.hot_entries += s.hot.len();
            st.hot_bytes += s.hot.resident_bytes();
            st.hot_budget += s.hot.budget_bytes();
            let lru = s.hot.stats();
            st.hits += lru.hits;
            st.misses += lru.misses;
            st.evictions += lru.evictions;
            st.pack_bytes += s.packs.total_bytes();
            st.kernel_mapped &= s.packs.kernel_mapped();
        }
        st
    }
}

impl ModelResolver for ModelStore {
    fn resolve(&self, key: &str) -> Result<Option<Arc<ServedModel>>, String> {
        match self.get(key) {
            Ok(served) => Ok(Some(served)),
            // Authoritative answers — retrying cannot change them: the key
            // is absent, or its image is corrupt with no fallback.
            Err(StoreError::NotFound(_) | StoreError::Corrupt(_)) => Ok(None),
            // Everything else (I/O, injected faults) is transient: the
            // registry's retry/breaker layer decides what happens next.
            Err(e) => Err(e.to_string()),
        }
    }

    fn hot_models(&self) -> Vec<ModelMeta> {
        let mut metas = Vec::new();
        for shard in &self.shards {
            let s = lock_shard(shard);
            s.hot.for_each(|_, m| metas.push(m.meta.clone()));
        }
        metas.sort_by(|a, b| a.name.cmp(&b.name));
        metas
    }

    fn stats_line(&self) -> String {
        let st = self.stats();
        format!(
            "shards={} keys={} hot={} hot_bytes={} budget={} hits={} misses={} \
             evictions={} rollbacks={} decode_failures={} publishes={} \
             delta_publishes={} pack_bytes={} mmap={}",
            self.shards.len(),
            st.keys,
            st.hot_entries,
            st.hot_bytes,
            st.hot_budget,
            st.hits,
            st.misses,
            st.evictions,
            st.rollbacks,
            st.decode_failures,
            st.publishes,
            st.delta_publishes,
            st.pack_bytes,
            st.kernel_mapped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reghd::config::RegHdConfig;
    use reghd::{RegHdRegressor, Regressor};
    use reghd_serve::bundle::encoder_spec;

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reghd_store_store_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Trains a small bundle; different seeds give byte-distinct models.
    fn bundle(seed: u64) -> ModelBundle {
        let rows: Vec<Vec<f32>> = (0..50)
            .map(|i| vec![i as f32 / 25.0, (i % 4) as f32])
            .collect();
        let ys: Vec<f32> = rows.iter().map(|r| 1.5 * r[0] + r[1]).collect();
        let cfg = RegHdConfig::builder()
            .dim(128)
            .models(2)
            .seed(seed)
            .max_epochs(3)
            .build();
        let spec = encoder_spec(2, &cfg);
        let mut model = RegHdRegressor::new(cfg, spec.build());
        model.fit(&rows, &ys);
        ModelBundle::from_trained(model, vec![0.0; 2], vec![1.0; 2], 0.0, 1.0, &rows).unwrap()
    }

    fn one_shard(budget: usize) -> StoreConfig {
        StoreConfig {
            shards: 1,
            hot_budget_bytes: budget,
        }
    }

    /// Offset of the canary section payload within a v2 blob.
    fn canary_payload_offset(bytes: &[u8]) -> usize {
        let scalers_len = u64::from_le_bytes(bytes[6..14].try_into().unwrap()) as usize;
        6 + 8 + scalers_len + 4 + 8
    }

    #[test]
    fn publish_get_and_reopen_roundtrip() {
        let root = tmp_root("roundtrip");
        let store = ModelStore::open(&root, StoreConfig::default()).unwrap();
        let a = bundle(1).to_bytes().unwrap();
        let b = bundle(2).to_bytes().unwrap();
        let meta = store.publish_full("user-a", &a).unwrap();
        assert_eq!(meta.version, 1);
        assert_eq!(meta.hash, format!("{:016x}", fnv1a(&a)));
        store.publish_full("user-b", &b).unwrap();
        let got = store.get("user-a").unwrap();
        assert_eq!(got.meta.bytes, a.len());
        // Lazy decode: canary section untouched, hint still reported.
        assert_eq!(got.bundle.canary_len(), 0);
        assert!(got.meta.canary_rows > 0);
        assert!(matches!(store.get("nope"), Err(StoreError::NotFound(_))));
        drop(store);

        // Reopen with a *different* configured shard count: the on-disk
        // layout wins, and index log replay restores both keys.
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        assert_eq!(store.shards.len(), StoreConfig::default().shards);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("user-a").unwrap().meta.bytes, a.len());
        assert_eq!(store.get("user-b").unwrap().meta.bytes, b.len());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn hot_swap_leaves_other_keys_decoded_models_untouched() {
        let root = tmp_root("hotswap");
        let store = ModelStore::open(&root, StoreConfig::default()).unwrap();
        store
            .publish_full("a", &bundle(10).to_bytes().unwrap())
            .unwrap();
        store
            .publish_full("b", &bundle(11).to_bytes().unwrap())
            .unwrap();
        let a1 = store.get("a").unwrap();
        let b1 = store.get("b").unwrap();

        store
            .publish_full("a", &bundle(12).to_bytes().unwrap())
            .unwrap();

        // Other keys' decoded models: same Arc, same version.
        let b2 = store.get("b").unwrap();
        assert!(Arc::ptr_eq(&b1, &b2));
        assert_eq!(b2.meta.version, 1);

        // The swapped key re-decodes at the new version...
        let a2 = store.get("a").unwrap();
        assert!(!Arc::ptr_eq(&a1, &a2));
        assert_eq!(a2.meta.version, 2);
        // ...while the pinned old Arc is untouched.
        assert_eq!(a1.meta.version, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn keys_aliasing_one_image_share_encoder_tables_after_cold_loads() {
        let root = tmp_root("shared_tables");
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        let seed = 0x7AB1E5;
        store
            .bulk_alias("alias-", 2, &bundle(seed).to_bytes().unwrap())
            .unwrap();
        // `bundle` encodes with the spec (2, 128, seed ^ 0xC11); the
        // validation decodes inside `bulk_alias` are gone by now.
        let holders = || encoding::NonlinearEncoder::table_holders(2, 128, seed ^ 0xC11);
        assert_eq!(holders(), 0);
        let a = store.get("alias-0").unwrap();
        assert_eq!(holders(), 1);
        let b = store.get("alias-1").unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "two keys, two cold loads");
        assert_eq!(holders(), 2, "the second cold load reused the tables");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_unused_canary_serves_then_audit_rolls_back() {
        let root = tmp_root("canary_rot");
        let v1 = bundle(20).to_bytes().unwrap();
        let v2 = bundle(21).to_bytes().unwrap();
        {
            let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
            store.publish_full("u", &v1).unwrap();
            store.publish_full("u", &v2).unwrap();
        }
        // Rot one byte inside v2's canary *data* on disk. v2 was appended
        // right after v1 in shard-0/pack-1.bin.
        let pack = root.join("shard-0").join("pack-1.bin");
        let mut raw = std::fs::read(&pack).unwrap();
        let rot = v1.len() + canary_payload_offset(&v2) + 9;
        raw[rot] ^= 0x80;
        std::fs::write(&pack, &raw).unwrap();

        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        // The corrupt section is unused on the serving path: loads fine.
        let served = store.get("u").unwrap();
        assert_eq!(served.meta.version, 2);
        // First touch of the canary section fails cleanly...
        let err = store.audit("u").unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err}");
        // ...and rolled the key back to the last-good image.
        let after = store.get("u").unwrap();
        assert_eq!(after.meta.version, 1);
        assert_eq!(after.meta.bytes, v1.len());
        store.audit("u").unwrap();
        let st = store.stats();
        assert_eq!(st.rollbacks, 1);
        assert_eq!(st.decode_failures, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn v1_image_publishes_serves_and_audits_clean() {
        // The legacy layout: the v2 image's scalers and model payloads
        // inline, with no checksums and no canary section.
        let v2 = bundle(25).to_bytes().unwrap();
        let frames = SectionFrames::parse(&v2).unwrap();
        let mut v1 = b"RGCL".to_vec();
        v1.extend(1u16.to_le_bytes());
        v1.extend(frames.scalers().unwrap());
        v1.extend(frames.model().unwrap());

        let root = tmp_root("v1_audit");
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        store.publish_full("u", &v1).unwrap();
        let served = store.get("u").unwrap();
        assert_eq!(served.meta.canary_rows, 0);
        store.audit("u").unwrap();
        let st = store.stats();
        assert_eq!(st.decode_failures, 0);
        assert_eq!(st.rollbacks, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_model_section_rolls_back_on_get() {
        let root = tmp_root("model_rot");
        let v1 = bundle(30).to_bytes().unwrap();
        let v2 = bundle(31).to_bytes().unwrap();
        {
            let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
            store.publish_full("u", &v1).unwrap();
            store.publish_full("u", &v2).unwrap();
        }
        // Rot a byte near the end of v2 — inside the model section, which
        // the serving decode *does* verify.
        let pack = root.join("shard-0").join("pack-1.bin");
        let mut raw = std::fs::read(&pack).unwrap();
        let n = raw.len();
        raw[n - 12] ^= 0xFF;
        std::fs::write(&pack, &raw).unwrap();

        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        let served = store.get("u").unwrap();
        assert_eq!(served.meta.version, 1, "rolled back to last-good");
        let st = store.stats();
        assert_eq!(st.rollbacks, 1);
        assert_eq!(st.decode_failures, 1);
        // The rollback is durable: a reopen serves v1 without re-failing.
        drop(store);
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        assert_eq!(store.get("u").unwrap().meta.version, 1);
        assert_eq!(store.stats().rollbacks, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_image_without_fallback_errors_cleanly() {
        let root = tmp_root("no_fallback");
        let v1 = bundle(40).to_bytes().unwrap();
        {
            let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
            store.publish_full("u", &v1).unwrap();
        }
        let pack = root.join("shard-0").join("pack-1.bin");
        let mut raw = std::fs::read(&pack).unwrap();
        let n = raw.len();
        raw[n - 12] ^= 0xFF;
        std::fs::write(&pack, &raw).unwrap();

        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        assert!(matches!(store.get("u"), Err(StoreError::Corrupt(_))));
        let st = store.stats();
        assert_eq!(st.rollbacks, 0);
        assert_eq!(st.decode_failures, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_log_tail_is_repaired_on_open() {
        use std::io::Write;
        let root = tmp_root("torn_tail");
        let v1 = bundle(46).to_bytes().unwrap();
        let v2 = bundle(47).to_bytes().unwrap();
        {
            let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
            store.publish_full("a", &v1).unwrap();
        }
        // Crash mid-append: a partial, newline-less record at the tail.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join("shard-0").join("index.log"))
            .unwrap();
        f.write_all(b"put b 1 99").unwrap();
        drop(f);

        // Reopen repairs the tail, so a publish made after the crash must
        // survive the *next* reopen instead of fusing with the torn
        // record and being dropped.
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        assert_eq!(store.len(), 1);
        store.publish_full("b", &v2).unwrap();
        drop(store);
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("a").unwrap().meta.bytes, v1.len());
        assert_eq!(store.get("b").unwrap().meta.bytes, v2.len());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn mid_log_corruption_fails_open_and_leaves_the_log_alone() {
        let root = tmp_root("mid_log_corruption");
        let bytes = bundle(49).to_bytes().unwrap();
        {
            let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
            for key in ["a", "b", "c"] {
                store.publish_full(key, &bytes).unwrap();
            }
        }
        let log = root.join("shard-0").join("index.log");
        let text = std::fs::read_to_string(&log).unwrap();
        let flipped = text.replacen("put b", "pux b", 1);
        std::fs::write(&log, &flipped).unwrap();
        // Replaying the prefix would drop `b` and `c` for good once open
        // rewrote the log; the corruption must surface instead.
        let err = ModelStore::open(&root, one_shard(64 << 20)).unwrap_err();
        assert!(
            matches!(&err, StoreError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData),
            "got {err}"
        );
        assert_eq!(std::fs::read_to_string(&log).unwrap(), flipped);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn transient_read_error_does_not_roll_back() {
        use std::io::Write;
        let root = tmp_root("io_no_rollback");
        let v1 = bundle(48).to_bytes().unwrap();
        {
            let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
            store.publish_full("u", &v1).unwrap();
            store.publish_full("u", &v1).unwrap(); // gives u a last-good
        }
        // Forge a current image in a pack generation that is not on disk:
        // reads of it fail with Io, not Corrupt.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join("shard-0").join("index.log"))
            .unwrap();
        writeln!(f, "put u 9 0 {} {:016x} 3", v1.len(), fnv1a(&v1)).unwrap();
        drop(f);

        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        let err = store.get("u").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "got {err}");
        // The read failure must not have demoted the key.
        let st = store.stats();
        assert_eq!(st.rollbacks, 0);
        assert_eq!(st.decode_failures, 0);
        drop(store);
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        assert!(matches!(store.get("u").unwrap_err(), StoreError::Io(_)));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn delta_publish_matches_full_publish_bit_exactly() {
        let root = tmp_root("delta_pub");
        let store = ModelStore::open(&root, StoreConfig::default()).unwrap();
        let base = bundle(50).to_bytes().unwrap();
        store.publish_full("u", &base).unwrap();

        // The "next training step": the base with one cluster perturbed.
        let mut next = ModelBundle::from_bytes(&base).unwrap();
        let rows = next.canary_rows().to_vec();
        let model = next.model();
        let cfg = model.config().clone();
        let mut clusters = model.clusters().integer_clusters().to_vec();
        let mut c0: Vec<f32> = clusters[0].as_slice().to_vec();
        for v in &mut c0 {
            *v += 0.5;
        }
        clusters[0] = hdc::RealHv::from_vec(c0);
        let patched = RegHdRegressor::from_parts(
            cfg,
            next.spec().build(),
            clusters,
            model.models().integer_models().to_vec(),
            model.center().cloned(),
            model.intercept(),
        );
        next = ModelBundle::from_trained(patched, vec![0.0; 2], vec![1.0; 2], 0.0, 1.0, &rows)
            .unwrap();
        let next_bytes = next.to_bytes().unwrap();

        let d = ModelDelta::compute(&base, 1, &next_bytes)
            .unwrap()
            .expect("same-config update must be delta-able");
        let meta = store.publish_delta("u", &d).unwrap();
        assert_eq!(meta.version, 2);
        // Bit-exact: the admitted image hashes as the full bundle would.
        assert_eq!(meta.hash, format!("{:016x}", fnv1a(&next_bytes)));
        assert_eq!(store.get("u").unwrap().meta.hash, meta.hash);

        // Stale delta (still targeting v1) is refused.
        assert!(matches!(
            store.publish_delta("u", &d),
            Err(StoreError::Delta(_))
        ));
        let st = store.stats();
        assert_eq!(st.publishes, 1);
        assert_eq!(st.delta_publishes, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn compact_drops_dead_bytes_and_survives_reopen() {
        let root = tmp_root("compact");
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        let images: Vec<Vec<u8>> = (60..65).map(|s| bundle(s).to_bytes().unwrap()).collect();
        for img in &images {
            store.publish_full("u", img).unwrap();
        }
        store.publish_full("v", &images[0]).unwrap();
        let before = store.stats().pack_bytes;
        store.compact().unwrap();
        let after = store.stats().pack_bytes;
        // Live set is u's current+last-good plus v's current: 3 images
        // out of 6 appended.
        assert!(after < before, "compaction must shrink packs");
        assert_eq!(store.get("u").unwrap().meta.version, 5);
        assert_eq!(store.get("v").unwrap().meta.version, 1);
        drop(store);
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        assert_eq!(store.get("u").unwrap().meta.version, 5);
        assert_eq!(store.get("v").unwrap().meta.version, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn lru_budget_bounds_hot_set() {
        let root = tmp_root("budget");
        let bytes = bundle(70).to_bytes().unwrap();
        let mem = ModelBundle::from_bytes(&bytes).unwrap().approx_mem_bytes();
        // Budget for ~3 decoded models on a single shard.
        let store = ModelStore::open(&root, one_shard(mem * 3 + mem / 2)).unwrap();
        store.bulk_alias("k", 10, &bytes).unwrap();
        assert_eq!(store.len(), 10);
        for i in 0..10 {
            store.get(&format!("k{i}")).unwrap();
        }
        let st = store.stats();
        assert!(st.hot_entries <= 3, "hot={}", st.hot_entries);
        assert!(st.hot_bytes <= st.hot_budget);
        assert_eq!(st.misses, 10);
        assert!(st.evictions >= 7);
        // Keys beyond the hot set still resolve (cold decode).
        store.get("k0").unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn resolver_lists_hot_models_sorted() {
        let root = tmp_root("resolver");
        let store = ModelStore::open(&root, StoreConfig::default()).unwrap();
        for (i, seed) in [80u64, 81, 82].iter().enumerate() {
            store
                .publish_full(&format!("m{i}"), &bundle(*seed).to_bytes().unwrap())
                .unwrap();
        }
        // Touch out of order; listing is still sorted.
        store.get("m2").unwrap();
        store.get("m0").unwrap();
        store.get("m1").unwrap();
        let resolver: &dyn ModelResolver = &store;
        let names: Vec<String> = resolver
            .hot_models()
            .iter()
            .map(|m| m.name.clone())
            .collect();
        assert_eq!(names, ["m0", "m1", "m2"]);
        assert!(resolver.resolve("m1").unwrap().is_some());
        assert!(resolver.resolve("absent").unwrap().is_none());
        assert!(resolver.stats_line().contains("keys=3"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn faulted_publish_is_absent_not_half_visible() {
        use crate::faults::StoreFaultInjector;
        let root = tmp_root("faulted_publish");
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        let v1 = bundle(95).to_bytes().unwrap();
        let v2 = bundle(96).to_bytes().unwrap();
        store.publish_full("u", &v1).unwrap();

        let inj = Arc::new(StoreFaultInjector::new());
        store.attach_faults(Some(inj.clone()));

        // ENOSPC on the blob append: the publish fails before the index is
        // touched and the key still serves v1.
        inj.arm_enospc_appends(1);
        assert!(matches!(
            store.publish_full("u", &v2),
            Err(StoreError::Io(_))
        ));
        assert_eq!(store.get("u").unwrap().meta.version, 1);

        // Fsync failure *after* the in-memory index was updated: the
        // restore path must roll the map back so the failed publish is
        // absent, not visible-until-restart.
        inj.arm_fsync_failures(1);
        assert!(matches!(
            store.publish_full("u", &v2),
            Err(StoreError::Io(_))
        ));
        assert_eq!(store.get("u").unwrap().meta.version, 1);
        assert_eq!(store.get("u").unwrap().meta.bytes, v1.len());

        // A brand-new key under the same fault must not linger either.
        inj.arm_fsync_failures(1);
        assert!(store.publish_full("fresh", &v2).is_err());
        assert!(matches!(store.get("fresh"), Err(StoreError::NotFound(_))));

        // On-disk state agrees with the restored in-memory state.
        drop(store);
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("u").unwrap().meta.version, 1);
        assert_eq!(inj.injected(), 3);

        // With faults drained, publishing works again and versions resume
        // from the durable state.
        store.attach_faults(Some(inj.clone()));
        let meta = store.publish_full("u", &v2).unwrap();
        assert_eq!(meta.version, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn short_write_fails_publish_and_later_publishes_stay_readable() {
        use crate::faults::StoreFaultInjector;
        let root = tmp_root("short_write_publish");
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        let v1 = bundle(97).to_bytes().unwrap();
        let inj = Arc::new(StoreFaultInjector::new());
        store.attach_faults(Some(inj.clone()));

        // The torn blob fails its publish cleanly...
        inj.arm_short_writes(1);
        assert!(matches!(
            store.publish_full("u", &v1),
            Err(StoreError::Io(_))
        ));
        assert!(matches!(store.get("u"), Err(StoreError::NotFound(_))));

        // ...and the orphaned prefix never corrupts later publishes, whose
        // offsets account for the bytes that did land.
        store.publish_full("u", &v1).unwrap();
        assert_eq!(store.get("u").unwrap().meta.bytes, v1.len());
        drop(store);
        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        assert_eq!(store.get("u").unwrap().meta.bytes, v1.len());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn resolver_maps_store_errors_onto_retry_semantics() {
        use std::io::Write;
        let root = tmp_root("resolver_semantics");
        let v1 = bundle(98).to_bytes().unwrap();
        {
            let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
            store.publish_full("u", &v1).unwrap();
        }
        // Forge a key whose image lives in a pack generation that is not
        // on disk: reads of it fail with Io — transient infrastructure
        // failure, not an authoritative answer about the key.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join("shard-0").join("index.log"))
            .unwrap();
        writeln!(f, "put flaky 9 0 {} {:016x} 1", v1.len(), fnv1a(&v1)).unwrap();
        drop(f);

        let store = ModelStore::open(&root, one_shard(64 << 20)).unwrap();
        let resolver: &dyn ModelResolver = &store;
        // Found and authoritative-miss answers pass through as Ok.
        assert!(resolver.resolve("u").unwrap().is_some());
        assert!(resolver.resolve("ghost").unwrap().is_none());
        // A transient read failure surfaces as Err so the registry's
        // retry/breaker layer takes over.
        let err = resolver.resolve("flaky").unwrap_err();
        assert!(err.contains("io error"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn rejects_hostile_keys() {
        let root = tmp_root("keys");
        let store = ModelStore::open(&root, StoreConfig::default()).unwrap();
        let bytes = bundle(90).to_bytes().unwrap();
        for bad in ["", "has space", "new\nline", "../escape", "a/b"] {
            assert!(
                matches!(store.publish_full(bad, &bytes), Err(StoreError::BadKey(_))),
                "key {bad:?} must be rejected"
            );
        }
        store.publish_full("ok.user:42_x-y", &bytes).unwrap();
        std::fs::remove_dir_all(&root).ok();
    }
}
