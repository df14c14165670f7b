//! The streaming training pipeline.
//!
//! [`Trainer::run`] drives one [`reghd::OnlineRegHd`] over a
//! [`SampleSource`] in the paper's single-pass regime (§2.3): each sample
//! is **predicted first, then trained on** (prequential evaluation), so
//! the error stream measures generalisation, not memorisation. On top of
//! that loop the pipeline layers:
//!
//! * **drift detection** — the absolute prequential error feeds a
//!   [`DriftDetector`]; an alarm triggers the configured [`DriftAction`]:
//!   either reset the cluster/model pair with the worst attributed error
//!   (fast, in-place forgetting) or train a fresh *shadow* model alongside
//!   the primary and promote it once its prequential error wins;
//! * **checkpointing** — every `checkpoint_every` samples the model is
//!   quantised, snapshotted into a canary-carrying `.rghd` bundle, written
//!   to disk **atomically** (temp file + rename), and — when a registry is
//!   attached — published into it, where the canary replay gates the swap;
//!   alongside the bundle, the raw online state is saved through
//!   `reghd::persist::save_online` so a later trainer can resume
//!   bit-exactly;
//! * **status** — counters stream into a shared
//!   [`reghd_serve::TrainStatus`], which the serve front-end renders for
//!   the `train-status` protocol command.
//!
//! Training always encodes in `TrigMode::Exact` (the trainer never flips
//! the knob, and freshly built encoders default to it): checkpoints,
//! canary predictions, and bit-exact resume all assume the training-time
//! arithmetic. The opt-in fast-trig mode is a *serving* knob
//! (`--trig fast`), and even there canary replays pin exact mode. The
//! per-sample update itself runs inside [`reghd::OnlineRegHd`], which
//! encodes through the same query preparation as the batch trainer.

use crate::detect::DriftDetector;
use crate::source::SampleSource;
use encoding::EncoderSpec;
use reghd::config::RegHdConfig;
use reghd::{persist, OnlineRegHd};
use reghd_serve::bundle::encoder_spec;
use reghd_serve::registry::ModelRegistry;
use reghd_serve::status::TrainStatus;
use reghd_serve::ModelBundle;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

/// How many recent raw rows are retained as canary candidates for the next
/// checkpoint's bundle.
const CANARY_WINDOW: usize = 64;

/// Total attempts (first try + retries) for a full store publication hit
/// by a transient I/O failure.
const STORE_PUBLISH_ATTEMPTS: usize = 3;

/// Backoff before the first store-publish retry; doubles per retry.
const STORE_PUBLISH_BACKOFF: std::time::Duration = std::time::Duration::from_micros(500);

/// How the pipeline responds to a detected drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftAction {
    /// Re-randomise the cluster (and zero the model) with the worst
    /// per-cluster prequential error — in-place forgetting of the stalest
    /// region of the input space.
    ResetWorstCluster,
    /// Start a fresh model training in parallel on the same stream and
    /// atomically promote it over the primary once it is old enough and
    /// its prequential error is lower.
    ShadowPromote,
}

/// Where checkpoints are published.
#[derive(Clone)]
pub struct PublishTarget {
    /// The live registry to publish into.
    pub registry: Arc<ModelRegistry>,
    /// Registry name the trainer owns (upserted on every checkpoint).
    pub name: String,
}

impl std::fmt::Debug for PublishTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishTarget")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Where checkpoints are additionally published into a persistent model
/// store ([`reghd_store::ModelStore`]).
#[derive(Clone)]
pub struct StoreTarget {
    /// The store to publish into.
    pub store: Arc<reghd_store::ModelStore>,
    /// Store key the trainer owns.
    pub key: String,
}

impl std::fmt::Debug for StoreTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreTarget")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// Static configuration of a [`Trainer`].
#[derive(Debug)]
pub struct TrainerConfig {
    /// Hypervector dimensionality `D`.
    pub dim: usize,
    /// Cluster/model pairs `k`.
    pub models: usize,
    /// Master seed (the encoder is [`reghd_serve::bundle::encoder_spec`]
    /// of the model config built from it).
    pub seed: u64,
    /// Stop after this many samples (`None`: run until the source ends).
    pub max_samples: Option<u64>,
    /// Checkpoint + publish every N samples (`None` disables).
    pub checkpoint_every: Option<u64>,
    /// Directory for checkpoint artefacts (`None`: no on-disk artefacts;
    /// publication into the registry still happens).
    pub checkpoint_dir: Option<PathBuf>,
    /// Drift response; only meaningful when a detector is attached.
    pub drift_action: DriftAction,
    /// Minimum samples a shadow model must see before it can be promoted.
    pub shadow_min_age: u64,
    /// Record every |prequential error| in the report (tests/benches;
    /// unbounded memory on endless runs, so off by default).
    pub record_errors: bool,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            dim: 2048,
            models: 4,
            seed: 0,
            max_samples: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            drift_action: DriftAction::ResetWorstCluster,
            shadow_min_age: 200,
            record_errors: false,
        }
    }
}

/// What one [`Trainer::run`] did.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Samples consumed.
    pub samples: u64,
    /// Drift alarms raised by the detector.
    pub drift_events: u64,
    /// Checkpoints taken (bundle built; disk write and publication both
    /// hang off a checkpoint).
    pub checkpoints: u64,
    /// Successful registry publications.
    pub publications: u64,
    /// Publications refused by the registry's canary replay.
    pub canary_failures: u64,
    /// Successful store publications (full and delta).
    pub store_publications: u64,
    /// Store publications that shipped as a sparse delta instead of the
    /// full bundle (always `<= store_publications`).
    pub store_delta_publications: u64,
    /// Store publication attempts retried after transient I/O failures
    /// (each retry backs off exponentially before re-trying).
    pub store_publish_retries: u64,
    /// Cluster resets performed ([`DriftAction::ResetWorstCluster`]).
    pub cluster_resets: u64,
    /// Shadow models promoted ([`DriftAction::ShadowPromote`]).
    pub promotions: u64,
    /// Final prequential MSE (EWMA of squared predict-then-train errors).
    pub final_prequential_mse: f32,
    /// Per-sample |prequential error| (only with
    /// [`TrainerConfig::record_errors`]).
    pub errors: Vec<f32>,
}

struct Shadow {
    model: OnlineRegHd,
    age: u64,
}

/// Streaming trainer: owns the online model and the drift/checkpoint/
/// publication machinery around it.
pub struct Trainer {
    // (No Debug derive: the boxed detector and encoder trait objects
    // aren't Debug; render the status block instead.)
    cfg: TrainerConfig,
    spec: EncoderSpec,
    model: OnlineRegHd,
    detector: Option<Box<dyn DriftDetector>>,
    shadow: Option<Shadow>,
    publish: Option<PublishTarget>,
    store_publish: Option<StoreTarget>,
    /// Bytes and store version of the last successful store publication —
    /// the base the next checkpoint's delta is computed against.
    last_store_image: Option<(Vec<u8>, u64)>,
    status: Arc<TrainStatus>,
    recent: VecDeque<Vec<f32>>,
    report: TrainReport,
    last_checkpoint_at: u64,
}

impl Trainer {
    /// Builds a trainer for `input_dim`-wide samples. The encoder is the
    /// bundle convention's ([`reghd_serve::bundle::encoder_spec`]), the spec
    /// [`ModelBundle::from_trained`] records in every checkpoint.
    ///
    /// # Panics
    ///
    /// Panics when the derived [`RegHdConfig`] is invalid (zero dim/models).
    pub fn new(cfg: TrainerConfig, input_dim: usize) -> Self {
        let model_cfg = RegHdConfig::builder()
            .dim(cfg.dim)
            .models(cfg.models)
            .seed(cfg.seed)
            .build();
        let spec = encoder_spec(input_dim, &model_cfg);
        let model = OnlineRegHd::new(model_cfg, spec.build());
        Self {
            cfg,
            spec,
            model,
            detector: None,
            shadow: None,
            publish: None,
            store_publish: None,
            last_store_image: None,
            status: Arc::new(TrainStatus::new()),
            recent: VecDeque::with_capacity(CANARY_WINDOW),
            report: TrainReport::default(),
            last_checkpoint_at: 0,
        }
    }

    /// Builds a trainer that resumes from an online checkpoint written by
    /// a previous run's checkpoint directory (`resume.rghd`). The persisted
    /// training cursor (samples seen, prequential EWMA, per-cluster errors)
    /// carries over bit-exactly.
    ///
    /// The trainer keeps the encoder spec the checkpoint carries.
    ///
    /// # Errors
    ///
    /// Propagates `reghd::persist` errors as strings, including a
    /// checkpoint whose feature width disagrees with `input_dim` (refused
    /// before its encoder is built); additionally rejects one whose shape
    /// disagrees with `cfg`.
    pub fn resume(cfg: TrainerConfig, input_dim: usize, path: &str) -> Result<Self, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (model, spec) = persist::load_online(&bytes, input_dim).map_err(|e| e.to_string())?;
        let mut t = Self::new(cfg, input_dim);
        if model.config().dim != t.cfg.dim || model.config().models != t.cfg.models {
            return Err(format!(
                "checkpoint shape (dim {}, k {}) disagrees with config (dim {}, k {})",
                model.config().dim,
                model.config().models,
                t.cfg.dim,
                t.cfg.models
            ));
        }
        t.spec = spec;
        t.model = model;
        Ok(t)
    }

    /// Attaches a drift detector (none attached: drift handling is off).
    pub fn with_detector(mut self, detector: Box<dyn DriftDetector>) -> Self {
        self.detector = Some(detector);
        self
    }

    /// Attaches a publication target: every checkpoint is pushed into the
    /// registry under the target's name.
    pub fn with_publish(mut self, target: PublishTarget) -> Self {
        self.publish = Some(target);
        self
    }

    /// Attaches a store target: every checkpoint is also published into
    /// the persistent model store under the target's key. The first
    /// checkpoint ships the full bundle; subsequent ones ship a sparse
    /// [`reghd_store::ModelDelta`] (only the byte runs of the image that
    /// changed), falling back to a full publish whenever the image's
    /// length changed or the delta is refused.
    pub fn with_store_publish(mut self, target: StoreTarget) -> Self {
        self.store_publish = Some(target);
        self
    }

    /// The shared status block (hand a clone to
    /// `reghd_net::NetConfig::train_status` to expose it over the
    /// protocol).
    pub fn status(&self) -> Arc<TrainStatus> {
        self.status.clone()
    }

    /// The model being trained (inspection in tests).
    pub fn model(&self) -> &OnlineRegHd {
        &self.model
    }

    /// The running report. [`Trainer::run`] returns a clone of this on
    /// success; the accessor exposes counters even after a failed run.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// Consumes samples from `source` until it ends or
    /// [`TrainerConfig::max_samples`] is reached, then takes a final
    /// checkpoint (when checkpointing is configured) and returns the run
    /// report.
    ///
    /// # Errors
    ///
    /// I/O failures writing checkpoint artefacts. Canary-refused
    /// publications are **not** errors — they are counted and the previous
    /// registry version keeps serving.
    pub fn run(&mut self, source: &mut dyn SampleSource) -> Result<TrainReport, String> {
        debug_assert_eq!(
            source.num_features(),
            self.spec.input_dim(),
            "source width must match the trainer's encoder"
        );
        while self
            .cfg
            .max_samples
            .is_none_or(|cap| self.report.samples < cap)
        {
            let Some((x, y)) = source.next_sample() else {
                break;
            };
            self.step(&x, y)?;
        }
        if self.cfg.checkpoint_every.is_some() {
            self.checkpoint()?;
        }
        self.report.final_prequential_mse = self.model.prequential_mse();
        Ok(self.report.clone())
    }

    /// One predict-then-train step plus the drift/checkpoint machinery.
    fn step(&mut self, x: &[f32], y: f32) -> Result<(), String> {
        let err = self.model.update(x, y);
        self.report.samples += 1;
        self.status
            .record_sample(f64::from(self.model.prequential_mse()));
        if self.cfg.record_errors {
            self.report.errors.push(err.abs());
        }

        if self.recent.len() == CANARY_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(x.to_vec());

        self.advance_shadow(x, y);

        if let Some(det) = self.detector.as_mut() {
            if det.observe(f64::from(err.abs())) {
                det.reset();
                self.report.drift_events += 1;
                self.status.record_drift(self.report.samples - 1);
                self.respond_to_drift();
            }
        }

        if let Some(every) = self.cfg.checkpoint_every {
            if self.report.samples.is_multiple_of(every) {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Trains the shadow (when one is active) and promotes it the moment
    /// it is old enough and prequentially better than the primary.
    fn advance_shadow(&mut self, x: &[f32], y: f32) {
        let Some(shadow) = self.shadow.as_mut() else {
            return;
        };
        shadow.model.update(x, y);
        shadow.age += 1;
        if shadow.age >= self.cfg.shadow_min_age
            && shadow.model.prequential_mse() < self.model.prequential_mse()
        {
            let Shadow { model, .. } = self.shadow.take().expect("shadow present");
            self.model = model;
            self.report.promotions += 1;
            self.status.record_promotion();
            self.status.set_shadow_active(false);
        }
    }

    fn respond_to_drift(&mut self) {
        match self.cfg.drift_action {
            DriftAction::ResetWorstCluster => {
                let worst = self.model.worst_cluster();
                self.model.reset_cluster(worst);
                self.report.cluster_resets += 1;
                self.status.record_cluster_reset();
            }
            DriftAction::ShadowPromote => {
                if self.shadow.is_some() {
                    return; // one shadow at a time; it is already chasing
                }
                // Same config/seed as the primary: a fresh model under the
                // *same* encoder, so a promoted shadow still satisfies the
                // bundle's spec-derivation convention.
                let model_cfg = RegHdConfig::builder()
                    .dim(self.cfg.dim)
                    .models(self.cfg.models)
                    .seed(self.cfg.seed)
                    .build();
                self.shadow = Some(Shadow {
                    model: OnlineRegHd::new(model_cfg, self.spec.build()),
                    age: 0,
                });
                self.status.set_shadow_active(true);
            }
        }
    }

    /// Quantises, snapshots, writes artefacts atomically, and publishes.
    fn checkpoint(&mut self) -> Result<(), String> {
        if self.report.samples == 0 || self.last_checkpoint_at == self.report.samples {
            return Ok(()); // nothing learned yet, or already checkpointed here
        }
        self.last_checkpoint_at = self.report.samples;
        self.model.quantize_now();
        self.report.checkpoints += 1;
        self.status.record_checkpoint();

        // Streaming has no precomputed dataset statistics: the bundle
        // carries identity scalers and the model consumes raw units.
        let snapshot = self.model.snapshot(&self.spec);
        let input_dim = self.spec.input_dim();
        let canary_rows: Vec<Vec<f32>> = self.recent.iter().cloned().collect();
        let bundle = ModelBundle::from_trained(
            snapshot,
            vec![0.0; input_dim],
            vec![1.0; input_dim],
            0.0,
            1.0,
            &canary_rows,
        )?;
        let bytes = bundle.to_bytes()?;

        if let Some(dir) = self.cfg.checkpoint_dir.clone() {
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let versioned = dir.join(format!("checkpoint-{:08}.rghd", self.report.samples));
            atomic_write(&versioned, &bytes)?;
            // The bit-exact resume artefact rides along under a fixed name.
            let resume_tmp = dir.join("resume.rghd.tmp");
            persist::save_online_to_file(&self.model, &self.spec, &resume_tmp)
                .map_err(|e| e.to_string())?;
            std::fs::rename(&resume_tmp, dir.join("resume.rghd"))
                .map_err(|e| format!("cannot finalise resume checkpoint: {e}"))?;
        }

        if let Some(target) = &self.publish {
            match target.registry.publish_bytes(&target.name, &bytes) {
                Ok(_) => {
                    self.report.publications += 1;
                    self.status.record_publication();
                }
                Err(reghd_serve::ServeError::Canary(_)) => {
                    self.report.canary_failures += 1;
                    self.status.record_canary_failure();
                }
                Err(e) => return Err(format!("publish failed: {e}")),
            }
        }

        if self.store_publish.is_some() {
            self.publish_to_store(&bytes)?;
        }
        Ok(())
    }

    /// Publishes checkpoint `bytes` into the attached store: a sparse
    /// delta against the last published image when possible, the full
    /// bundle otherwise. Canary refusals are counted, not fatal.
    /// Transient I/O failures of the full publish are retried up to
    /// [`STORE_PUBLISH_ATTEMPTS`] times with exponential backoff (a
    /// checkpoint is too expensive to drop over a blip the store already
    /// rolled back cleanly); only an exhausted retry budget surfaces the
    /// error.
    fn publish_to_store(&mut self, bytes: &[u8]) -> Result<(), String> {
        let target = self.store_publish.as_ref().expect("checked by caller");
        let mut published = None;
        if let Some((base, version)) = self.last_store_image.as_ref() {
            if let Ok(Some(delta)) = reghd_store::ModelDelta::compute(base, *version, bytes) {
                if let Ok(meta) = target.store.publish_delta(&target.key, &delta) {
                    self.report.store_delta_publications += 1;
                    published = Some(meta);
                }
            }
        }
        if published.is_none() {
            let mut delay = STORE_PUBLISH_BACKOFF;
            let mut attempt = 0;
            published = loop {
                match target.store.publish_full(&target.key, bytes) {
                    Ok(meta) => break Some(meta),
                    Err(reghd_store::StoreError::Canary(_)) => {
                        self.report.canary_failures += 1;
                        self.status.record_canary_failure();
                        return Ok(());
                    }
                    Err(reghd_store::StoreError::Io(_)) if attempt + 1 < STORE_PUBLISH_ATTEMPTS => {
                        attempt += 1;
                        self.report.store_publish_retries += 1;
                        self.status.record_store_publish_retry();
                        std::thread::sleep(delay);
                        delay = delay.checked_mul(2).unwrap_or(delay);
                    }
                    Err(e) => return Err(format!("store publish failed: {e}")),
                }
            };
        }
        if let Some(meta) = published {
            self.report.store_publications += 1;
            self.last_store_image = Some((bytes.to_vec(), meta.version));
        }
        Ok(())
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// then rename, so a reader (or a crash) never observes a half-written
/// checkpoint.
fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("rghd.tmp");
    std::fs::write(&tmp, bytes).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot finalise {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{EwmaDetector, PageHinkley};
    use crate::source::DriftSource;
    use datasets::drift::{DriftKind, DriftStream};

    fn drift_source(kind: DriftKind, period: usize, seed: u64) -> DriftSource {
        DriftSource::new(DriftStream::new(3, period, kind, seed), 3, "drift:test")
    }

    fn small_cfg() -> TrainerConfig {
        TrainerConfig {
            dim: 512,
            models: 2,
            seed: 7,
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn prequential_training_reduces_error_on_stationary_stream() {
        // A huge period ≈ stationary within the run.
        let mut src = drift_source(DriftKind::Abrupt, 1_000_000, 1);
        let cfg = TrainerConfig {
            max_samples: Some(1500),
            record_errors: true,
            ..small_cfg()
        };
        let mut t = Trainer::new(cfg, 3);
        let report = t.run(&mut src).unwrap();
        assert_eq!(report.samples, 1500);
        let early: f32 = report.errors[50..150].iter().sum::<f32>() / 100.0;
        let late: f32 = report.errors[1400..].iter().sum::<f32>() / 100.0;
        assert!(late < early, "no learning: early {early}, late {late}");
        assert_eq!(report.drift_events, 0, "no detector attached");
    }

    #[test]
    fn drift_is_detected_and_worst_cluster_reset() {
        let mut src = drift_source(DriftKind::Abrupt, 800, 2);
        let cfg = TrainerConfig {
            max_samples: Some(2400),
            ..small_cfg()
        };
        let mut t = Trainer::new(cfg, 3).with_detector(Box::new(EwmaDetector::default()));
        let report = t.run(&mut src).unwrap();
        assert!(report.drift_events >= 1, "abrupt drift must be detected");
        assert_eq!(report.cluster_resets, report.drift_events);
        assert_eq!(t.status().drift_events(), report.drift_events);
    }

    #[test]
    fn shadow_is_spawned_and_promoted() {
        let mut src = drift_source(DriftKind::Abrupt, 800, 3);
        let cfg = TrainerConfig {
            max_samples: Some(3200),
            drift_action: DriftAction::ShadowPromote,
            shadow_min_age: 100,
            ..small_cfg()
        };
        let mut t = Trainer::new(cfg, 3).with_detector(Box::new(PageHinkley::default()));
        let report = t.run(&mut src).unwrap();
        assert!(report.drift_events >= 1);
        assert!(
            report.promotions >= 1,
            "a fresh model must eventually beat the drifted primary"
        );
        assert_eq!(report.cluster_resets, 0);
    }

    #[test]
    fn checkpoints_are_written_versioned_and_resumable() {
        let dir = std::env::temp_dir().join("reghd_train_ckpt_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut src = drift_source(DriftKind::Abrupt, 1_000_000, 4);
        let cfg = TrainerConfig {
            max_samples: Some(600),
            checkpoint_every: Some(250),
            checkpoint_dir: Some(dir.clone()),
            ..small_cfg()
        };
        let mut t = Trainer::new(cfg, 3);
        let report = t.run(&mut src).unwrap();
        // 250, 500, and the final checkpoint at 600.
        assert_eq!(report.checkpoints, 3);
        for n in [250u64, 500, 600] {
            let p = dir.join(format!("checkpoint-{n:08}.rghd"));
            assert!(p.exists(), "missing {}", p.display());
            // Every on-disk bundle must parse and pass its canary.
            let bundle = ModelBundle::load(p.to_str().unwrap()).unwrap();
            bundle.run_canary().unwrap();
        }
        // No temp files left behind by the atomic writes.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");

        // Resume continues the exact training cursor.
        let resumed = Trainer::resume(
            TrainerConfig {
                max_samples: Some(600),
                ..small_cfg()
            },
            3,
            dir.join("resume.rghd").to_str().unwrap(),
        )
        .unwrap();
        assert_eq!(resumed.model().samples_seen(), 600);
        assert_eq!(
            resumed.model().prequential_mse(),
            t.model().prequential_mse()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publication_reaches_the_registry_with_zero_canary_failures() {
        let registry = Arc::new(ModelRegistry::new());
        let mut src = drift_source(DriftKind::Abrupt, 1_000_000, 5);
        let cfg = TrainerConfig {
            max_samples: Some(500),
            checkpoint_every: Some(200),
            ..small_cfg()
        };
        let mut t = Trainer::new(cfg, 3).with_publish(PublishTarget {
            registry: registry.clone(),
            name: "live".to_string(),
        });
        let report = t.run(&mut src).unwrap();
        assert_eq!(report.canary_failures, 0);
        assert_eq!(report.publications, 3); // 200, 400, final 500
        let served = registry.get("live").expect("model must be published");
        assert_eq!(served.meta.version, 3, "each publish bumps the version");
        // The published model predicts finitely on fresh stream rows.
        let (x, _) = src.next_sample().unwrap();
        let preds = served.bundle.predict(&[x]).unwrap();
        assert!(preds[0].is_finite());
    }

    #[test]
    fn store_publication_ships_deltas_after_the_first_full_image() {
        use reghd_store::{ModelStore, StoreConfig};
        let dir = std::env::temp_dir().join("reghd_train_store_pub_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ModelStore::open(&dir, StoreConfig::default()).unwrap());
        let registry = Arc::new(ModelRegistry::new());
        let mut src = drift_source(DriftKind::Abrupt, 1_000_000, 9);
        let cfg = TrainerConfig {
            max_samples: Some(600),
            checkpoint_every: Some(200),
            ..small_cfg()
        };
        let mut t = Trainer::new(cfg, 3)
            .with_publish(PublishTarget {
                registry: registry.clone(),
                name: "stream".to_string(),
            })
            .with_store_publish(crate::StoreTarget {
                store: store.clone(),
                key: "stream".to_string(),
            });
        let report = t.run(&mut src).unwrap();
        // 200, 400, final 600 — first is full, the rest ship as deltas.
        assert_eq!(report.store_publications, 3);
        assert_eq!(report.store_delta_publications, 2);
        assert_eq!(report.canary_failures, 0);
        let served = store.get("stream").unwrap();
        assert_eq!(served.meta.version, 3);
        // The store image is bit-identical to the registry publication:
        // same artefact hash for the same checkpoint.
        assert_eq!(served.meta.hash, registry.get("stream").unwrap().meta.hash);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_publish_retries_transient_faults_and_surfaces_exhaustion() {
        use reghd_store::{ModelStore, StoreConfig, StoreFaultInjector};
        let dir = std::env::temp_dir().join("reghd_train_store_retry_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ModelStore::open(&dir, StoreConfig::default()).unwrap());
        let faults = Arc::new(StoreFaultInjector::new());
        store.attach_faults(Some(faults.clone()));

        // One injected ENOSPC: the first publish attempt fails, the retry
        // lands, and the checkpoint is not lost.
        faults.arm_enospc_appends(1);
        let mut src = drift_source(DriftKind::Abrupt, 1_000_000, 10);
        let cfg = TrainerConfig {
            max_samples: Some(100),
            checkpoint_every: Some(100),
            ..small_cfg()
        };
        let mut t = Trainer::new(cfg, 3).with_store_publish(StoreTarget {
            store: store.clone(),
            key: "retry".to_string(),
        });
        let report = t.run(&mut src).unwrap();
        assert_eq!(report.store_publications, 1);
        assert_eq!(report.store_publish_retries, 1);
        assert_eq!(t.status().store_publish_retries(), 1);
        assert!(t.status().summary().contains("store_publish_retries=1"));
        assert_eq!(store.get("retry").unwrap().meta.version, 1);

        // Enough faults to exhaust every attempt: the failure surfaces.
        faults.arm_enospc_appends(STORE_PUBLISH_ATTEMPTS);
        let mut src = drift_source(DriftKind::Abrupt, 1_000_000, 11);
        let cfg = TrainerConfig {
            max_samples: Some(100),
            checkpoint_every: Some(100),
            ..small_cfg()
        };
        let mut t = Trainer::new(cfg, 3).with_store_publish(StoreTarget {
            store: store.clone(),
            key: "exhausted".to_string(),
        });
        let err = t.run(&mut src).expect_err("retry budget must be finite");
        assert!(err.contains("store publish failed"), "err: {err}");
        assert_eq!(
            t.report().store_publish_retries,
            STORE_PUBLISH_ATTEMPTS as u64 - 1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_shapes() {
        let dir = std::env::temp_dir().join("reghd_train_resume_shape_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut src = drift_source(DriftKind::Abrupt, 1_000_000, 6);
        let cfg = TrainerConfig {
            max_samples: Some(100),
            checkpoint_every: Some(100),
            checkpoint_dir: Some(dir.clone()),
            ..small_cfg()
        };
        Trainer::new(cfg, 3).run(&mut src).unwrap();
        let path = dir.join("resume.rghd");
        let err = match Trainer::resume(
            TrainerConfig {
                dim: 256, // disagrees with the checkpoint's 512
                ..small_cfg()
            },
            3,
            path.to_str().unwrap(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("shape mismatch must be rejected"),
        };
        assert!(err.contains("disagrees"), "err: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_checkpoint_of_another_width() {
        let dir = std::env::temp_dir().join("reghd_train_resume_width_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut src = drift_source(DriftKind::Abrupt, 1_000_000, 8);
        let cfg = TrainerConfig {
            max_samples: Some(100),
            checkpoint_every: Some(100),
            checkpoint_dir: Some(dir.clone()),
            ..small_cfg()
        };
        Trainer::new(cfg, 3).run(&mut src).unwrap();
        let path = dir.join("resume.rghd");
        // A 4-feature source against a 3-feature checkpoint: refused up
        // front, not a panic on the first sample of `run`.
        let err = match Trainer::resume(small_cfg(), 4, path.to_str().unwrap()) {
            Err(e) => e,
            Ok(_) => panic!("width mismatch must be rejected"),
        };
        assert!(
            err.contains("3 features") && err.contains("has 4"),
            "err: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
