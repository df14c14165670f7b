//! Hot-swappable model registry with integrity checking.
//!
//! Models live behind `Arc` pointers inside an `RwLock<HashMap>`; a lookup
//! clones the `Arc` and releases the lock before any prediction work, and a
//! [`ModelRegistry::reload`] swaps the pointer under a brief write lock.
//! In-flight requests therefore keep predicting against the version they
//! resolved — a hot swap drops **zero** requests, it only changes what
//! later lookups observe (the `ArcSwap` pattern, built on `std` only).
//!
//! # Integrity
//!
//! Every load and reload must pass the bundle's **canary replay**
//! ([`crate::bundle::ModelBundle::run_canary`]) before the swap happens; a
//! reload whose canary fails returns [`ServeError::Canary`] and leaves the
//! previous version serving — automatic rollback by never switching.
//!
//! Each served entry also records a CRC32 of its in-memory learned state at
//! load time ([`ServedModel::state_crc`]). [`ModelRegistry::sweep`]
//! recomputes those checksums; an entry that no longer matches (silent
//! in-memory corruption, or a fault injected via
//! [`ModelRegistry::inject_model_faults`]) is flagged corrupt and, when a
//! distinct last-good version exists, atomically rolled back to it.

use crate::bundle::{fnv1a, ModelBundle};
use crate::{lock_unpoisoned, read_unpoisoned, write_unpoisoned, ServeError};
use hdc::TrigMode;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Metadata describing one loaded model version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelMeta {
    /// Registry name the model is served under.
    pub name: String,
    /// Monotonic version, starting at 1 and bumped by every reload.
    pub version: u64,
    /// FNV-1a hash of the bundle bytes (hex) — identifies the artefact.
    pub hash: String,
    /// Size of the bundle in bytes.
    pub bytes: usize,
    /// Raw feature width a `predict` row must have.
    pub input_dim: usize,
    /// Hypervector dimensionality `D`.
    pub dim: usize,
    /// Number of cluster/model pairs `k`.
    pub models: usize,
    /// Cluster quantisation mode label.
    pub cluster_mode: &'static str,
    /// Prediction quantisation mode label.
    pub prediction_mode: &'static str,
    /// Number of canary reference rows the bundle carries (0 for v1).
    pub canary_rows: usize,
    /// Approximate resident memory of the decoded model in bytes
    /// ([`ModelBundle::approx_mem_bytes`]) — what the `list` protocol
    /// reports and what the store's LRU budget charges per hot entry.
    pub mem: usize,
}

/// Resolves model keys the in-process registry does not hold — the
/// attachment point for the `reghd-store` sharded per-user model store,
/// defined here so `serve` needs no dependency on the store crate.
///
/// [`ModelRegistry::get`] consults the local map first and falls through to
/// the attached resolver, so explicitly loaded models always shadow
/// store-backed ones of the same name.
pub trait ModelResolver: Send + Sync + std::fmt::Debug {
    /// Resolves a key to a served model.
    ///
    /// The three outcomes carry distinct retry semantics:
    /// * `Ok(Some(_))` — found;
    /// * `Ok(None)` — **authoritatively** unknown (or failed validation
    ///   with no last-good fallback): retrying cannot help;
    /// * `Err(_)` — transient infrastructure failure (I/O, injected store
    ///   fault): the registry retries with backoff and, on sustained
    ///   failure, opens a per-key circuit breaker
    ///   (see [`ResolverPolicy`]).
    fn resolve(&self, key: &str) -> Result<Option<Arc<ServedModel>>, String>;

    /// Metadata for the currently *hot* (decoded, cache-resident) models —
    /// a registry `list` must stay O(hot), not O(resident keys).
    fn hot_models(&self) -> Vec<ModelMeta>;

    /// One-line operational stats (hits, misses, evictions, resident
    /// bytes) appended to the `stats` protocol reply.
    fn stats_line(&self) -> String;
}

/// Retry and circuit-breaker knobs for store-backed cold loads (the
/// attached [`ModelResolver`]).
///
/// A transient resolver failure (`Err`) is retried up to `attempts` times
/// with exponential backoff starting at `backoff`. When
/// `breaker_threshold` consecutive *exhausted* resolves fail for one key,
/// that key's breaker opens: lookups short-circuit to a miss (no store
/// I/O, no backoff sleeps on the serving thread) until `breaker_cooldown`
/// elapses, after which the next lookup probes the store again
/// (half-open). Any successful resolve — including an authoritative
/// `Ok(None)` — closes the key's breaker and resets its failure count.
#[derive(Debug, Clone)]
pub struct ResolverPolicy {
    /// Total resolve attempts per lookup (clamped to at least 1).
    pub attempts: u32,
    /// Delay before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// Consecutive exhausted lookups that open a key's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker short-circuits lookups for its key.
    pub breaker_cooldown: Duration,
}

impl Default for ResolverPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff: Duration::from_micros(500),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(2),
        }
    }
}

/// Point-in-time counters for the resolver retry/breaker layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverHealth {
    /// Individual retry attempts made after a transient failure.
    pub retries: u64,
    /// Lookups that exhausted every attempt without an answer.
    pub failures: u64,
    /// Times a key's circuit breaker opened.
    pub breaker_trips: u64,
    /// Lookups short-circuited by an open breaker (no store I/O).
    pub short_circuits: u64,
    /// Keys whose breaker is currently open.
    pub open_breakers: usize,
}

/// Per-key breaker state (guarded by the registry's breaker mutex).
#[derive(Debug, Default)]
struct BreakerState {
    /// Consecutive exhausted lookups since the last success.
    consecutive: u32,
    /// While set, lookups short-circuit until this instant passes.
    open_until: Option<Instant>,
}

/// One immutable, shareable loaded model version.
#[derive(Debug)]
pub struct ServedModel {
    /// The deserialised bundle (model + scalers + canary rows).
    pub bundle: ModelBundle,
    /// Metadata snapshot taken at load time.
    pub meta: ModelMeta,
    /// CRC32 of the in-memory learned state recorded when the entry was
    /// built. [`ModelRegistry::sweep`] recomputes the state checksum and
    /// compares against this to detect silent corruption.
    pub state_crc: u32,
    /// Set once the sweep finds this entry's state diverged from
    /// [`ServedModel::state_crc`]. The server routes requests for a
    /// corrupt-flagged model through the degraded (binary) path.
    pub corrupt: AtomicBool,
}

impl ModelMeta {
    /// Describes `bundle`, decoded from an image of `bytes` bytes whose
    /// FNV-1a is `hash`, served as `name` at `version`. `canary_rows` is
    /// the canary-section row count, which a lazily decoded bundle (no
    /// canary attached) reads from the section header instead.
    pub fn new(
        name: &str,
        version: u64,
        hash: u64,
        bytes: usize,
        canary_rows: usize,
        bundle: &ModelBundle,
    ) -> Self {
        let cfg = bundle.model().config();
        Self {
            name: name.to_string(),
            version,
            hash: format!("{hash:016x}"),
            bytes,
            input_dim: bundle.num_features(),
            dim: cfg.dim,
            models: cfg.models,
            cluster_mode: cfg.cluster_mode.label(),
            prediction_mode: cfg.prediction_mode.label(),
            canary_rows,
            mem: bundle.approx_mem_bytes(),
        }
    }
}

impl ServedModel {
    /// Wraps a decoded bundle as a served entry, recording its state
    /// checksum for the sweep.
    pub fn new(meta: ModelMeta, bundle: ModelBundle) -> Self {
        Self {
            state_crc: bundle.state_checksum(),
            bundle,
            meta,
            corrupt: AtomicBool::new(false),
        }
    }

    /// Whether the sweep has flagged this entry as corrupted.
    pub fn is_corrupt(&self) -> bool {
        self.corrupt.load(Ordering::Relaxed)
    }
}

/// What one [`ModelRegistry::sweep`] pass found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepReport {
    /// Models whose state checksum was recomputed.
    pub checked: usize,
    /// Models whose state no longer matched their recorded checksum.
    pub corrupted: usize,
    /// Corrupted models that were rolled back to a distinct last-good
    /// version (the remainder stay flagged and serve degraded).
    pub rolled_back: usize,
}

/// One registry slot: the serving version plus the most recent version
/// known good at swap time, kept for sweep rollback.
#[derive(Debug)]
struct Slot {
    current: Arc<ServedModel>,
    last_good: Arc<ServedModel>,
}

/// Named collection of served models with atomic hot-swap semantics.
#[derive(Debug)]
pub struct ModelRegistry {
    inner: RwLock<HashMap<String, Slot>>,
    /// Optional fall-through resolver for keys the map does not hold (the
    /// model store). Swapped in once at startup; lookups clone the `Arc`
    /// and release the lock before resolving.
    resolver: RwLock<Option<Arc<dyn ModelResolver>>>,
    /// Retry/breaker knobs for resolver lookups.
    resolver_policy: RwLock<ResolverPolicy>,
    /// Per-key circuit breakers. Only keys with at least one exhausted
    /// lookup since their last success have an entry, so the map stays
    /// O(currently failing keys), not O(traffic).
    breakers: Mutex<HashMap<String, BreakerState>>,
    /// Retry attempts made after transient resolver failures.
    resolver_retries: AtomicU64,
    /// Lookups that exhausted every attempt.
    resolver_failures: AtomicU64,
    /// Times a key's breaker opened.
    breaker_trips: AtomicU64,
    /// Lookups short-circuited by an open breaker.
    breaker_short_circuits: AtomicU64,
    /// Thread knob applied to every bundle this registry loads or swaps in
    /// (`0` = available parallelism). Predictions are bit-identical at any
    /// setting ([`crate::bundle::ModelBundle::set_threads`]).
    default_threads: AtomicUsize,
    /// Trig-mode knob applied to every bundle this registry loads or swaps
    /// in, stored as [`TrigMode::as_u8`]. Unlike the thread knob, `Fast`
    /// changes results (within the documented error bound); canary replays
    /// always pin `Exact`, so integrity checks are unaffected.
    default_trig: AtomicU8,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self {
            inner: RwLock::new(HashMap::new()),
            resolver: RwLock::new(None),
            resolver_policy: RwLock::new(ResolverPolicy::default()),
            breakers: Mutex::new(HashMap::new()),
            resolver_retries: AtomicU64::new(0),
            resolver_failures: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_short_circuits: AtomicU64::new(0),
            default_threads: AtomicUsize::new(1),
            default_trig: AtomicU8::new(TrigMode::Exact.as_u8()),
        }
    }
}

/// How [`ModelRegistry::install`] treats a name that is (or is not)
/// already loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Install {
    /// Only a new name: [`ModelRegistry::load_bytes`].
    Insert,
    /// Only a loaded name: [`ModelRegistry::reload_bytes`].
    Replace,
    /// Either: [`ModelRegistry::publish_bytes`].
    Upsert,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread knob applied to every loaded bundle (`0` = available
    /// parallelism, `1` = sequential; default `1`). Applies immediately to
    /// all models already in the registry and to every future
    /// load/reload/publish. Safe at any time: the parallel schedule is
    /// bit-identical to the sequential one, so in-flight requests and
    /// canary replays are unaffected.
    pub fn set_default_threads(&self, threads: usize) {
        self.default_threads.store(threads, Ordering::Relaxed);
        let map = read_unpoisoned(&self.inner);
        for slot in map.values() {
            slot.current.bundle.set_threads(threads);
            slot.last_good.bundle.set_threads(threads);
        }
    }

    /// The thread knob new loads inherit (see
    /// [`ModelRegistry::set_default_threads`]).
    pub fn default_threads(&self) -> usize {
        self.default_threads.load(Ordering::Relaxed)
    }

    /// Sets the trigonometry mode applied to every loaded bundle (default
    /// [`TrigMode::Exact`]). Applies immediately to all models already in
    /// the registry, to every future load/reload/publish, and to models the
    /// attached resolver returns (on their next lookup). `Fast` swaps libm
    /// for the polynomial [`hdc::kernels::fast_sin`]/
    /// [`hdc::kernels::fast_cos`] pair, trading a bounded per-component
    /// error ([`hdc::kernels::FAST_TRIG_MAX_ABS_ERROR`]) for throughput;
    /// canary replays force `Exact` regardless, so hot-swap integrity
    /// checks stay bit-exact.
    pub fn set_default_trig(&self, mode: TrigMode) {
        self.default_trig.store(mode.as_u8(), Ordering::Relaxed);
        let map = read_unpoisoned(&self.inner);
        for slot in map.values() {
            slot.current.bundle.set_trig_mode(mode);
            slot.last_good.bundle.set_trig_mode(mode);
        }
    }

    /// The trig mode new loads inherit (see
    /// [`ModelRegistry::set_default_trig`]).
    pub fn default_trig(&self) -> TrigMode {
        TrigMode::from_u8(self.default_trig.load(Ordering::Relaxed))
    }

    /// Loads a new model under `name` from raw bundle bytes. The bundle's
    /// canary rows are replayed before the model becomes visible.
    ///
    /// # Errors
    ///
    /// [`ServeError::AlreadyLoaded`] if the name is taken (use
    /// [`ModelRegistry::reload_bytes`] to swap), [`ServeError::Bundle`]
    /// if the bytes do not parse or fail a section checksum, or
    /// [`ServeError::Canary`] if the canary replay mismatches.
    pub fn load_bytes(&self, name: &str, bytes: &[u8]) -> Result<ModelMeta, ServeError> {
        self.install(name, bytes, Install::Insert)
    }

    /// Loads a new model under `name` from a `.rghd` bundle file.
    ///
    /// # Errors
    ///
    /// See [`ModelRegistry::load_bytes`]; additionally [`ServeError::Io`]
    /// on filesystem failure.
    pub fn load(&self, name: &str, path: &str) -> Result<ModelMeta, ServeError> {
        let bytes = std::fs::read(path)?;
        self.load_bytes(name, &bytes)
    }

    /// Hot-swaps the model under `name` with new bundle bytes. The swap is
    /// atomic: lookups before it complete against the old version, lookups
    /// after it observe the new one; no request is dropped. The new bundle
    /// is parsed, checksum-verified, and canary-replayed **before** the
    /// write lock is taken, so a corrupt or drifted artefact leaves the
    /// running version untouched — rollback by never switching.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotFound`] when nothing is loaded under `name`,
    /// [`ServeError::Bundle`] when the bytes do not parse or fail a
    /// section checksum, [`ServeError::Canary`] when the staged bundle's
    /// canary replay mismatches (the old version keeps serving).
    pub fn reload_bytes(&self, name: &str, bytes: &[u8]) -> Result<ModelMeta, ServeError> {
        self.install(name, bytes, Install::Replace)
    }

    /// Publishes bundle bytes under `name`, creating the entry when absent
    /// and hot-swapping it when present — the streaming trainer's upsert
    /// path (it cannot know whether an operator already loaded the name).
    /// Exactly like [`ModelRegistry::load_bytes`]/[`ModelRegistry::reload_bytes`],
    /// the bundle must pass checksum verification and its canary replay
    /// **before** the swap; a failing artefact leaves the registry
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bundle`] when the bytes do not parse or fail a
    /// section checksum, [`ServeError::Canary`] when the canary replay
    /// mismatches.
    pub fn publish_bytes(&self, name: &str, bytes: &[u8]) -> Result<ModelMeta, ServeError> {
        self.install(name, bytes, Install::Upsert)
    }

    /// The one install body behind [`ModelRegistry::load_bytes`],
    /// [`ModelRegistry::reload_bytes`] and [`ModelRegistry::publish_bytes`]:
    /// decodes `bytes`, replays the canary, and gives the bundle the
    /// registry's thread and trig knobs — all outside the lock (it
    /// deserialises megabytes of weights) — then, under the write lock,
    /// applies `mode` to the slot and swaps in the new entry as both
    /// current and last-good version.
    fn install(&self, name: &str, bytes: &[u8], mode: Install) -> Result<ModelMeta, ServeError> {
        let bundle = ModelBundle::from_bytes(bytes).map_err(ServeError::Bundle)?;
        bundle.run_canary().map_err(ServeError::Canary)?;
        bundle.set_threads(self.default_threads());
        bundle.set_trig_mode(self.default_trig());
        let canary_rows = bundle.canary_len();
        let meta = ModelMeta::new(name, 1, fnv1a(bytes), bytes.len(), canary_rows, &bundle);
        let mut entry = ServedModel::new(meta, bundle);
        let mut map = write_unpoisoned(&self.inner);
        match (map.get(name), mode) {
            (Some(_), Install::Insert) => {
                return Err(ServeError::AlreadyLoaded(name.to_string()));
            }
            (None, Install::Replace) => return Err(ServeError::NotFound(name.to_string())),
            (Some(slot), _) => entry.meta.version = slot.current.meta.version + 1,
            (None, _) => {}
        }
        let meta = entry.meta.clone();
        let entry = Arc::new(entry);
        map.insert(
            name.to_string(),
            Slot {
                current: entry.clone(),
                last_good: entry,
            },
        );
        Ok(meta)
    }

    /// Hot-swaps the model under `name` from a `.rghd` bundle file. See
    /// [`ModelRegistry::reload_bytes`].
    ///
    /// # Errors
    ///
    /// See [`ModelRegistry::reload_bytes`]; additionally
    /// [`ServeError::Io`] on filesystem failure.
    pub fn reload(&self, name: &str, path: &str) -> Result<ModelMeta, ServeError> {
        let bytes = std::fs::read(path)?;
        self.reload_bytes(name, &bytes)
    }

    /// Removes the model under `name`. In-flight requests holding the Arc
    /// finish normally; the weights are freed when the last holder drops.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotFound`] when nothing is loaded under `name`.
    pub fn unload(&self, name: &str) -> Result<ModelMeta, ServeError> {
        let mut map = write_unpoisoned(&self.inner);
        map.remove(name)
            .map(|s| s.current.meta.clone())
            .ok_or_else(|| ServeError::NotFound(name.to_string()))
    }

    /// Attaches a fall-through resolver (the model store) consulted by
    /// [`ModelRegistry::get`] and [`ModelRegistry::list`] for keys the
    /// in-process map does not hold. Replaces any previous resolver.
    pub fn attach_resolver(&self, resolver: Arc<dyn ModelResolver>) {
        *write_unpoisoned(&self.resolver) = Some(resolver);
    }

    /// The attached resolver's stats line, if one is attached.
    pub fn resolver_stats(&self) -> Option<String> {
        let resolver = read_unpoisoned(&self.resolver).clone();
        resolver.map(|r| r.stats_line())
    }

    /// Replaces the retry/breaker knobs applied to resolver lookups.
    /// Existing breaker state is kept; only future decisions use the new
    /// policy.
    pub fn set_resolver_policy(&self, policy: ResolverPolicy) {
        *write_unpoisoned(&self.resolver_policy) = policy;
    }

    /// Counters for the resolver retry/breaker layer.
    pub fn resolver_health(&self) -> ResolverHealth {
        let now = Instant::now();
        let open_breakers = lock_unpoisoned(&self.breakers)
            .values()
            .filter(|b| b.open_until.is_some_and(|t| now < t))
            .count();
        ResolverHealth {
            retries: self.resolver_retries.load(Ordering::Relaxed),
            failures: self.resolver_failures.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            short_circuits: self.breaker_short_circuits.load(Ordering::Relaxed),
            open_breakers,
        }
    }

    /// Resolves `name` to its current version. The returned `Arc` pins
    /// that version for the caller's lifetime regardless of later swaps.
    /// Names absent from the in-process map fall through to the attached
    /// resolver (the model store), so explicitly loaded models shadow
    /// store-backed ones. Transient resolver failures are retried per the
    /// registry's [`ResolverPolicy`]; a key whose lookups keep failing has
    /// its circuit breaker opened and resolves as a fast miss until the
    /// cooldown passes.
    pub fn get(&self, name: &str) -> Option<Arc<ServedModel>> {
        if let Some(found) = read_unpoisoned(&self.inner)
            .get(name)
            .map(|s| s.current.clone())
        {
            return Some(found);
        }
        let resolver = read_unpoisoned(&self.resolver).clone()?;
        let served = self.resolve_with_retry(&*resolver, name)?;
        // Resolved models bypass the load paths that apply the registry's
        // trig mode, so apply it here — writing only on a mismatch, so a
        // hot hit stays a read.
        let mode = self.default_trig();
        if served.bundle.trig_mode() != mode {
            served.bundle.set_trig_mode(mode);
        }
        Some(served)
    }

    /// The retry + circuit-breaker wrapper around one resolver lookup.
    fn resolve_with_retry(
        &self,
        resolver: &dyn ModelResolver,
        key: &str,
    ) -> Option<Arc<ServedModel>> {
        let policy = read_unpoisoned(&self.resolver_policy).clone();
        {
            let mut breakers = lock_unpoisoned(&self.breakers);
            if let Some(state) = breakers.get_mut(key) {
                if let Some(until) = state.open_until {
                    if Instant::now() < until {
                        drop(breakers);
                        self.breaker_short_circuits.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                    // Cooldown elapsed: half-open — let this lookup probe
                    // the store. A failure re-trips immediately (the
                    // consecutive count is already at threshold's worth of
                    // history), a success closes the breaker.
                    state.open_until = None;
                }
            }
        }
        let mut delay = policy.backoff;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                self.resolver_retries.fetch_add(1, Ordering::Relaxed);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                delay = delay.checked_mul(2).unwrap_or(delay);
            }
            if let Ok(found) = resolver.resolve(key) {
                // Success — even an authoritative miss proves the store is
                // answering; close the key's breaker.
                lock_unpoisoned(&self.breakers).remove(key);
                return found;
            }
        }
        self.resolver_failures.fetch_add(1, Ordering::Relaxed);
        let mut breakers = lock_unpoisoned(&self.breakers);
        let state = breakers.entry(key.to_string()).or_default();
        state.consecutive += 1;
        if state.consecutive >= policy.breaker_threshold.max(1) {
            state.open_until = Some(Instant::now() + policy.breaker_cooldown);
            drop(breakers);
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Metadata for every loaded model — plus, when a resolver is
    /// attached, its currently hot models (in-process entries shadow
    /// same-named store entries) — in stable name order.
    pub fn list(&self) -> Vec<ModelMeta> {
        let mut metas: Vec<ModelMeta> = {
            let map = read_unpoisoned(&self.inner);
            map.values().map(|s| s.current.meta.clone()).collect()
        };
        let resolver = read_unpoisoned(&self.resolver).clone();
        if let Some(r) = resolver {
            let local: std::collections::HashSet<String> =
                metas.iter().map(|m| m.name.clone()).collect();
            metas.extend(
                r.hot_models()
                    .into_iter()
                    .filter(|m| !local.contains(&m.name)),
            );
        }
        metas.sort_by(|a, b| a.name.cmp(&b.name));
        metas
    }

    /// Number of loaded models.
    pub fn len(&self) -> usize {
        read_unpoisoned(&self.inner).len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        read_unpoisoned(&self.inner).is_empty()
    }

    /// Recomputes every served model's state checksum against the value
    /// recorded at load time. A mismatching entry is flagged corrupt and,
    /// when its slot holds a distinct last-good version, rolled back to it
    /// atomically (in-flight requests on the corrupted Arc finish, then it
    /// drops). The server runs this periodically; the `sweep` protocol
    /// command runs it on demand.
    pub fn sweep(&self) -> SweepReport {
        let mut report = SweepReport::default();
        let mut map = write_unpoisoned(&self.inner);
        for slot in map.values_mut() {
            report.checked += 1;
            if slot.current.bundle.state_checksum() == slot.current.state_crc {
                continue;
            }
            report.corrupted += 1;
            slot.current.corrupt.store(true, Ordering::Relaxed);
            if !Arc::ptr_eq(&slot.current, &slot.last_good) {
                slot.current = slot.last_good.clone();
                report.rolled_back += 1;
            }
        }
        report
    }

    /// Swaps the model under `name` for a copy whose hypervector state has
    /// random sign flips at `rate` (seeded) — emulating silent memory
    /// corruption of served weights, the paper's §3 component-fault model.
    /// The entry keeps the **clean** recorded checksum and the slot keeps
    /// its last-good version, so a subsequent [`ModelRegistry::sweep`]
    /// detects the divergence and rolls back. Returns the number of
    /// flipped components.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotFound`] when nothing is loaded under `name`.
    pub fn inject_model_faults(
        &self,
        name: &str,
        rate: f64,
        seed: u64,
    ) -> Result<usize, ServeError> {
        let mut map = write_unpoisoned(&self.inner);
        let slot = map
            .get_mut(name)
            .ok_or_else(|| ServeError::NotFound(name.to_string()))?;
        let (faulty, flips) = slot.current.bundle.with_model_faults(rate, seed);
        slot.current = Arc::new(ServedModel {
            bundle: faulty,
            meta: slot.current.meta.clone(),
            // Deliberately the pre-fault checksum: corruption is silent
            // until a sweep recomputes the state hash.
            state_crc: slot.current.state_crc,
            corrupt: AtomicBool::new(false),
        });
        Ok(flips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle;
    use datasets::Dataset;

    fn toy_dataset() -> Dataset {
        let features: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32, (i * 2) as f32]).collect();
        let targets: Vec<f32> = features.iter().map(|r| r[0] + r[1]).collect();
        Dataset::new("toy", features, targets)
    }

    fn toy_bundle(seed: u64) -> bundle::ModelBundle {
        let (b, _) = bundle::train(&toy_dataset(), 128, 2, 3, seed, false).unwrap();
        b
    }

    fn toy_bytes(seed: u64) -> Vec<u8> {
        toy_bundle(seed).to_bytes().unwrap()
    }

    #[test]
    fn load_get_list_unload() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let meta = reg.load_bytes("a", &toy_bytes(1)).unwrap();
        assert_eq!(meta.version, 1);
        assert_eq!(meta.input_dim, 2);
        assert_eq!(meta.dim, 128);
        assert_eq!(meta.models, 2);
        assert_eq!(meta.hash.len(), 16);
        assert!(meta.canary_rows > 0);
        assert!(reg.get("a").is_some());
        assert!(reg.get("b").is_none());
        assert_eq!(reg.list().len(), 1);
        assert_eq!(reg.unload("a").unwrap().name, "a");
        assert!(matches!(reg.unload("a"), Err(ServeError::NotFound(_))));
    }

    #[test]
    fn duplicate_load_rejected() {
        let reg = ModelRegistry::new();
        let bytes = toy_bytes(2);
        reg.load_bytes("m", &bytes).unwrap();
        assert!(matches!(
            reg.load_bytes("m", &bytes),
            Err(ServeError::AlreadyLoaded(_))
        ));
    }

    #[test]
    fn reload_bumps_version_and_preserves_in_flight_arc() {
        let reg = ModelRegistry::new();
        reg.load_bytes("m", &toy_bytes(3)).unwrap();
        let pinned = reg.get("m").unwrap();
        let meta = reg.reload_bytes("m", &toy_bytes(4)).unwrap();
        assert_eq!(meta.version, 2);
        // The pinned Arc still serves the old version.
        assert_eq!(pinned.meta.version, 1);
        assert_eq!(reg.get("m").unwrap().meta.version, 2);
        // Different bytes → different hash.
        assert_ne!(pinned.meta.hash, meta.hash);
    }

    #[test]
    fn publish_upserts_and_bumps_versions() {
        let reg = ModelRegistry::new();
        // First publish creates the entry …
        let meta = reg.publish_bytes("m", &toy_bytes(30)).unwrap();
        assert_eq!(meta.version, 1);
        // … later publishes hot-swap it, bumping the version.
        let meta = reg.publish_bytes("m", &toy_bytes(31)).unwrap();
        assert_eq!(meta.version, 2);
        assert_eq!(reg.get("m").unwrap().meta.version, 2);
        // A corrupt publish leaves the serving version untouched.
        assert!(matches!(
            reg.publish_bytes("m", b"garbage"),
            Err(ServeError::Bundle(_))
        ));
        assert_eq!(reg.get("m").unwrap().meta.version, 2);
    }

    #[test]
    fn list_is_sorted_by_name() {
        let reg = ModelRegistry::new();
        for name in ["zeta", "alpha", "mid"] {
            reg.publish_bytes(name, &toy_bytes(33)).unwrap();
        }
        let names: Vec<String> = reg.list().into_iter().map(|m| m.name).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn reload_of_missing_name_fails() {
        let reg = ModelRegistry::new();
        assert!(matches!(
            reg.reload_bytes("ghost", &toy_bytes(5)),
            Err(ServeError::NotFound(_))
        ));
    }

    #[test]
    fn corrupt_reload_leaves_old_version_running() {
        let reg = ModelRegistry::new();
        reg.load_bytes("m", &toy_bytes(6)).unwrap();
        assert!(matches!(
            reg.reload_bytes("m", b"garbage"),
            Err(ServeError::Bundle(_))
        ));
        assert_eq!(reg.get("m").unwrap().meta.version, 1);
    }

    #[test]
    fn checksum_corrupted_reload_leaves_old_version_running() {
        let reg = ModelRegistry::new();
        reg.load_bytes("m", &toy_bytes(6)).unwrap();
        let mut bad = toy_bytes(7);
        let idx = bad.len() - 60;
        bad[idx] ^= 0x10;
        let err = reg.reload_bytes("m", &bad).unwrap_err();
        assert!(matches!(err, ServeError::Bundle(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(reg.get("m").unwrap().meta.version, 1);
    }

    #[test]
    fn canary_failing_reload_is_rolled_back() {
        let reg = ModelRegistry::new();
        reg.load_bytes("m", &toy_bytes(8)).unwrap();
        let before = reg.get("m").unwrap();

        // Craft a bundle whose checksums are valid but whose recorded
        // canary predictions do not match its own model.
        let b = toy_bundle(9);
        let rows = vec![vec![1.0_f32, 2.0], vec![3.0, 4.0]];
        let mut preds = b.predict(&rows).unwrap();
        preds[1] += 0.5;
        let drifted = b.with_canary(rows, preds).unwrap().to_bytes().unwrap();

        let err = reg.reload_bytes("m", &drifted).unwrap_err();
        assert!(matches!(err, ServeError::Canary(_)), "{err}");
        // Old version untouched — same Arc, same predictions.
        let after = reg.get("m").unwrap();
        assert!(Arc::ptr_eq(&before, &after));
        assert_eq!(after.meta.version, 1);
    }

    #[test]
    fn canary_failing_initial_load_is_refused() {
        let b = toy_bundle(10);
        let rows = vec![vec![0.0_f32, 0.0]];
        let preds = vec![b.predict(&rows).unwrap()[0] + 1.0];
        let bad = b.with_canary(rows, preds).unwrap().to_bytes().unwrap();
        let reg = ModelRegistry::new();
        assert!(matches!(
            reg.load_bytes("m", &bad),
            Err(ServeError::Canary(_))
        ));
        assert!(reg.is_empty());
    }

    #[test]
    fn sweep_on_clean_registry_reports_zero() {
        let reg = ModelRegistry::new();
        reg.load_bytes("a", &toy_bytes(11)).unwrap();
        reg.load_bytes("b", &toy_bytes(12)).unwrap();
        let report = reg.sweep();
        assert_eq!(
            report,
            SweepReport {
                checked: 2,
                corrupted: 0,
                rolled_back: 0
            }
        );
    }

    #[test]
    fn injected_faults_are_swept_and_rolled_back_bit_exact() {
        let reg = ModelRegistry::new();
        reg.load_bytes("m", &toy_bytes(13)).unwrap();
        let probe = vec![vec![5.0_f32, 10.0], vec![20.0, 40.0]];
        let clean = reg.get("m").unwrap();
        let clean_preds = clean.bundle.predict(&probe).unwrap();

        let flips = reg.inject_model_faults("m", 0.2, 42).unwrap();
        assert!(flips > 0);
        // Corruption is silent until a sweep: the swapped entry reports
        // the clean checksum and no corrupt flag.
        let faulty = reg.get("m").unwrap();
        assert!(!faulty.is_corrupt());
        assert_ne!(
            faulty.bundle.predict(&probe).unwrap(),
            clean_preds,
            "fault injection should perturb predictions"
        );

        let report = reg.sweep();
        assert_eq!(report.checked, 1);
        assert_eq!(report.corrupted, 1);
        assert_eq!(report.rolled_back, 1);

        // Post-rollback predictions match the pre-fault model bit-exactly.
        let restored = reg.get("m").unwrap();
        assert!(Arc::ptr_eq(&restored, &clean));
        let restored_preds = restored.bundle.predict(&probe).unwrap();
        for (a, b) in clean_preds.iter().zip(&restored_preds) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A second sweep finds nothing.
        assert_eq!(reg.sweep().corrupted, 0);
    }

    #[test]
    fn inject_on_missing_name_fails() {
        let reg = ModelRegistry::new();
        assert!(matches!(
            reg.inject_model_faults("ghost", 0.1, 1),
            Err(ServeError::NotFound(_))
        ));
    }

    #[test]
    fn default_threads_apply_to_loaded_and_future_models() {
        let reg = ModelRegistry::new();
        reg.load_bytes("a", &toy_bytes(40)).unwrap();
        assert_eq!(reg.get("a").unwrap().bundle.model().threads(), 1);
        // Applies retroactively to already-loaded models …
        reg.set_default_threads(4);
        assert_eq!(reg.default_threads(), 4);
        assert_eq!(reg.get("a").unwrap().bundle.model().threads(), 4);
        // … and is inherited by later loads and swaps.
        reg.publish_bytes("b", &toy_bytes(41)).unwrap();
        assert_eq!(reg.get("b").unwrap().bundle.model().threads(), 4);
        reg.reload_bytes("a", &toy_bytes(42)).unwrap();
        assert_eq!(reg.get("a").unwrap().bundle.model().threads(), 4);
    }

    #[test]
    fn default_trig_applies_to_loaded_and_future_models() {
        let reg = ModelRegistry::new();
        reg.load_bytes("a", &toy_bytes(50)).unwrap();
        assert_eq!(reg.get("a").unwrap().bundle.trig_mode(), TrigMode::Exact);
        // Applies retroactively to already-loaded models …
        reg.set_default_trig(TrigMode::Fast);
        assert_eq!(reg.default_trig(), TrigMode::Fast);
        assert_eq!(reg.get("a").unwrap().bundle.trig_mode(), TrigMode::Fast);
        // … and is inherited by later loads and swaps. Crucially, those
        // loads still pass their canary replay: the replay pins Exact
        // internally, so Fast mode never trips the integrity gate.
        reg.publish_bytes("b", &toy_bytes(51)).unwrap();
        assert_eq!(reg.get("b").unwrap().bundle.trig_mode(), TrigMode::Fast);
        reg.reload_bytes("a", &toy_bytes(52)).unwrap();
        assert_eq!(reg.get("a").unwrap().bundle.trig_mode(), TrigMode::Fast);
        // A sweep over fast-mode models is clean — the state checksum
        // covers learned weights, not the runtime trig knob.
        assert_eq!(reg.sweep().corrupted, 0);
    }

    /// Minimal resolver serving one fixed entry — stands in for the model
    /// store in fall-through tests.
    #[derive(Debug)]
    struct FixedResolver {
        entry: Arc<ServedModel>,
    }

    impl ModelResolver for FixedResolver {
        fn resolve(&self, key: &str) -> Result<Option<Arc<ServedModel>>, String> {
            Ok((key == self.entry.meta.name).then(|| self.entry.clone()))
        }

        fn hot_models(&self) -> Vec<ModelMeta> {
            vec![self.entry.meta.clone()]
        }

        fn stats_line(&self) -> String {
            "store shards=1".to_string()
        }
    }

    /// Resolver that fails transiently `failures` times per key before
    /// serving — stands in for a store with flaky disks.
    #[derive(Debug)]
    struct FlakyResolver {
        entry: Arc<ServedModel>,
        failures: AtomicUsize,
        calls: AtomicUsize,
    }

    impl ModelResolver for FlakyResolver {
        fn resolve(&self, key: &str) -> Result<Option<Arc<ServedModel>>, String> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let left = self.failures.load(Ordering::Relaxed);
            if left > 0 {
                self.failures.store(left - 1, Ordering::Relaxed);
                return Err("injected: disk on fire".to_string());
            }
            Ok((key == self.entry.meta.name).then(|| self.entry.clone()))
        }

        fn hot_models(&self) -> Vec<ModelMeta> {
            Vec::new()
        }

        fn stats_line(&self) -> String {
            "store flaky".to_string()
        }
    }

    /// A zero-sleep policy so breaker tests never stall the suite.
    fn fast_policy(attempts: u32, threshold: u32, cooldown: Duration) -> ResolverPolicy {
        ResolverPolicy {
            attempts,
            backoff: Duration::ZERO,
            breaker_threshold: threshold,
            breaker_cooldown: cooldown,
        }
    }

    fn served_entry(name: &str, seed: u64) -> Arc<ServedModel> {
        let bundle = toy_bundle(seed);
        let bytes = bundle.to_bytes().unwrap();
        let canary_rows = bundle.canary_len();
        let meta = ModelMeta::new(name, 7, fnv1a(&bytes), bytes.len(), canary_rows, &bundle);
        Arc::new(ServedModel::new(meta, bundle))
    }

    #[test]
    fn resolver_backs_unknown_keys_and_is_shadowed_by_local_loads() {
        let reg = ModelRegistry::new();
        reg.load_bytes("local", &toy_bytes(60)).unwrap();
        assert!(reg.get("user-42").is_none());
        assert!(reg.resolver_stats().is_none());

        let entry = served_entry("user-42", 61);
        reg.attach_resolver(Arc::new(FixedResolver {
            entry: entry.clone(),
        }));
        // Unknown key falls through to the resolver …
        let got = reg.get("user-42").unwrap();
        assert!(Arc::ptr_eq(&got, &entry));
        // … while locally loaded names never do.
        assert_eq!(reg.get("local").unwrap().meta.version, 1);
        assert!(reg.get("ghost").is_none());
        assert_eq!(reg.resolver_stats().unwrap(), "store shards=1");

        // list merges hot store models in stable name order.
        let names: Vec<String> = reg.list().into_iter().map(|m| m.name).collect();
        assert_eq!(names, ["local", "user-42"]);
    }

    #[test]
    fn default_trig_reaches_resolver_backed_models() {
        let reg = ModelRegistry::new();
        reg.attach_resolver(Arc::new(FixedResolver {
            entry: served_entry("user-7", 62),
        }));
        assert_eq!(
            reg.get("user-7").unwrap().bundle.trig_mode(),
            TrigMode::Exact
        );
        reg.set_default_trig(TrigMode::Fast);
        assert_eq!(
            reg.get("user-7").unwrap().bundle.trig_mode(),
            TrigMode::Fast
        );
        reg.set_default_trig(TrigMode::Exact);
        assert_eq!(
            reg.get("user-7").unwrap().bundle.trig_mode(),
            TrigMode::Exact
        );
    }

    #[test]
    fn local_name_shadows_same_named_resolver_entry_in_list() {
        let reg = ModelRegistry::new();
        reg.load_bytes("m", &toy_bytes(62)).unwrap();
        reg.attach_resolver(Arc::new(FixedResolver {
            entry: served_entry("m", 63),
        }));
        let metas = reg.list();
        assert_eq!(metas.len(), 1);
        // The local entry (version 1) wins over the store's version 7.
        assert_eq!(metas[0].version, 1);
        assert_eq!(reg.get("m").unwrap().meta.version, 1);
    }

    #[test]
    fn transient_resolver_failures_are_retried_within_one_lookup() {
        let reg = ModelRegistry::new();
        reg.set_resolver_policy(fast_policy(3, 3, Duration::from_secs(60)));
        let entry = served_entry("user-1", 70);
        let flaky = Arc::new(FlakyResolver {
            entry: entry.clone(),
            failures: AtomicUsize::new(2),
            calls: AtomicUsize::new(0),
        });
        reg.attach_resolver(flaky.clone());
        // Two transient failures, then success — all inside one get().
        let got = reg.get("user-1").unwrap();
        assert!(Arc::ptr_eq(&got, &entry));
        assert_eq!(flaky.calls.load(Ordering::Relaxed), 3);
        let health = reg.resolver_health();
        assert_eq!(health.retries, 2);
        assert_eq!(health.failures, 0);
        assert_eq!(health.breaker_trips, 0);
    }

    #[test]
    fn sustained_failures_trip_breaker_and_short_circuit() {
        let reg = ModelRegistry::new();
        reg.set_resolver_policy(fast_policy(2, 3, Duration::from_secs(60)));
        let flaky = Arc::new(FlakyResolver {
            entry: served_entry("user-2", 71),
            failures: AtomicUsize::new(usize::MAX),
            calls: AtomicUsize::new(0),
        });
        reg.attach_resolver(flaky.clone());
        // Three exhausted lookups (2 attempts each) open the breaker.
        for _ in 0..3 {
            assert!(reg.get("user-2").is_none());
        }
        assert_eq!(flaky.calls.load(Ordering::Relaxed), 6);
        let health = reg.resolver_health();
        assert_eq!(health.failures, 3);
        assert_eq!(health.breaker_trips, 1);
        assert_eq!(health.open_breakers, 1);
        // While open, lookups short-circuit without touching the store.
        assert!(reg.get("user-2").is_none());
        assert!(reg.get("user-2").is_none());
        assert_eq!(flaky.calls.load(Ordering::Relaxed), 6);
        assert_eq!(reg.resolver_health().short_circuits, 2);
        // Other keys are unaffected (per-key breakers); this lookup still
        // reaches the resolver and fails on its own account.
        assert!(reg.get("user-other").is_none());
        assert_eq!(flaky.calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_closes_on_success() {
        let reg = ModelRegistry::new();
        reg.set_resolver_policy(fast_policy(1, 2, Duration::from_millis(20)));
        let entry = served_entry("user-3", 72);
        let flaky = Arc::new(FlakyResolver {
            entry: entry.clone(),
            failures: AtomicUsize::new(2),
            calls: AtomicUsize::new(0),
        });
        reg.attach_resolver(flaky.clone());
        // Two exhausted single-attempt lookups trip the breaker.
        assert!(reg.get("user-3").is_none());
        assert!(reg.get("user-3").is_none());
        assert_eq!(reg.resolver_health().breaker_trips, 1);
        assert!(reg.get("user-3").is_none(), "open breaker short-circuits");
        assert_eq!(flaky.calls.load(Ordering::Relaxed), 2);
        // After the cooldown the next lookup probes the (now healthy)
        // store, succeeds, and closes the breaker.
        std::thread::sleep(Duration::from_millis(25));
        let got = reg.get("user-3").unwrap();
        assert!(Arc::ptr_eq(&got, &entry));
        let health = reg.resolver_health();
        assert_eq!(health.open_breakers, 0);
        // Follow-up lookups go straight through.
        assert!(reg.get("user-3").is_some());
        assert_eq!(reg.resolver_health().short_circuits, 1);
    }

    #[test]
    fn authoritative_miss_is_not_retried() {
        let reg = ModelRegistry::new();
        reg.set_resolver_policy(fast_policy(5, 3, Duration::from_secs(60)));
        let flaky = Arc::new(FlakyResolver {
            entry: served_entry("known", 73),
            failures: AtomicUsize::new(0),
            calls: AtomicUsize::new(0),
        });
        reg.attach_resolver(flaky.clone());
        // Ok(None) is an answer: one call, no retries, no breaker state.
        assert!(reg.get("absent").is_none());
        assert_eq!(flaky.calls.load(Ordering::Relaxed), 1);
        let health = reg.resolver_health();
        assert_eq!(health.retries, 0);
        assert_eq!(health.failures, 0);
    }

    #[test]
    fn list_reports_stable_memory_footprints() {
        let reg = ModelRegistry::new();
        reg.load_bytes("a", &toy_bytes(64)).unwrap();
        let first = reg.list();
        assert!(first[0].mem > 0);
        assert_eq!(first[0].mem, reg.list()[0].mem);
    }

    #[test]
    fn registry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelRegistry>();
    }
}
