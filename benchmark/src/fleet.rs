//! The `store-zipf` fleet: many per-user keys aliasing one model image,
//! a cycle of model versions built from online-learning snapshots, the
//! Zipf key popularity, and the writer thread that publishes deltas to
//! the hottest keys while reads are served.

use reghd::config::RegHdConfig;
use reghd::OnlineRegHd;
use reghd_serve::bundle::ModelBundle;
use reghd_store::{ModelDelta, ModelStore, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shape of the fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub keys: usize,
    pub dim: usize,
    pub models: usize,
    pub shards: usize,
    pub hot_budget_bytes: usize,
    /// Rows of the single online pass that produces version 0.
    pub base_rows: usize,
    /// Versions in the publish cycle (version 0 included).
    pub versions: usize,
    /// Online updates between consecutive versions.
    pub updates_per_version: usize,
    /// Keys the writer publishes to: the most popular ones.
    pub hot_keys: usize,
    pub publishes_per_s: f64,
    pub zipf_s: f64,
}

/// Key name of the `i`-th most popular key.
pub fn key_name(i: u32) -> String {
    format!("user{i}")
}

/// Zipf(s) popularity over `n` keys; key 0 is the most popular.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// The key whose cumulative share first reaches `u` in `[0, 1)`.
    pub fn sample(&self, u: f64) -> u32 {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32
    }
}

/// The fleet built by [`build`]: the store, its directory (removed on
/// drop) and the delta from each model version to the next.
#[derive(Debug)]
pub struct Fleet {
    pub store: Arc<ModelStore>,
    pub dir: PathBuf,
    pub deltas: Vec<ModelDelta>,
    pub zipf: Zipf,
    pub shape: FleetShape,
    /// Seconds of the online pass that produced version 0.
    pub base_pass_s: f64,
    /// Mean `OnlineRegHd::update` time while building the cycle, µs.
    pub update_us: f64,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn mean_std(values: impl Iterator<Item = f32> + Clone) -> (f32, f32) {
    let n = values.clone().count().max(1) as f64;
    let mean = values.clone().map(f64::from).sum::<f64>() / n;
    let var = values.map(|v| (f64::from(v) - mean).powi(2)).sum::<f64>() / n;
    let std = var.sqrt();
    (mean as f32, if std > 1e-12 { std as f32 } else { 1.0 })
}

/// Trains version 0 with one online pass over `rows[..base_rows]`, then
/// derives each later version from `updates_per_version` further updates,
/// publishes version 0 under every key and precomputes the delta cycle
/// `v0 → v1 → … → v(n-1) → v0`. Returns the fleet and every version's
/// bundle bytes.
///
/// # Errors
///
/// Store I/O, bundle or delta failures, as text.
pub fn build(
    dir: &Path,
    shape: FleetShape,
    rows: &[Vec<f32>],
    targets: &[f32],
    seed: u64,
) -> Result<(Fleet, Vec<Vec<u8>>), String> {
    let features = rows[0].len();
    let base = &rows[..shape.base_rows];
    let stats: Vec<(f32, f32)> = (0..features)
        .map(|j| mean_std(base.iter().map(move |r| r[j])))
        .collect();
    let (t_mean, t_std) = mean_std(targets[..shape.base_rows].iter().copied());
    let means: Vec<f32> = stats.iter().map(|s| s.0).collect();
    let stds: Vec<f32> = stats.iter().map(|s| s.1).collect();
    let scale = |i: usize| -> (Vec<f32>, f32) {
        let x = rows[i]
            .iter()
            .zip(means.iter().zip(&stds))
            .map(|(&x, (&m, &s))| (x - m) / s)
            .collect();
        (x, (targets[i] - t_mean) / t_std)
    };

    let cfg = RegHdConfig::builder()
        .dim(shape.dim)
        .models(shape.models)
        .seed(seed)
        .build();
    // Bundles re-derive their encoder from `config.seed ^ 0xC11`.
    let spec = encoding::EncoderSpec::Nonlinear {
        input_dim: features,
        dim: shape.dim,
        seed: seed ^ 0xC11,
    };
    let mut online = OnlineRegHd::new(cfg, spec.build());
    let image = |online: &OnlineRegHd| -> Result<Vec<u8>, String> {
        ModelBundle::from_trained(
            online.snapshot(&spec),
            means.clone(),
            stds.clone(),
            t_mean,
            t_std,
            base,
        )?
        .to_bytes()
    };

    let t = Instant::now();
    for i in 0..shape.base_rows {
        let (x, y) = scale(i);
        online.update(&x, y);
    }
    let base_pass_s = t.elapsed().as_secs_f64();
    let mut images = vec![image(&online)?];
    let mut update_ns = 0u128;
    let mut next = shape.base_rows;
    for _ in 1..shape.versions {
        for _ in 0..shape.updates_per_version {
            let (x, y) = scale(next);
            next += 1;
            let t = Instant::now();
            online.update(&x, y);
            update_ns += t.elapsed().as_nanos();
        }
        images.push(image(&online)?);
    }
    let updates = (shape.versions - 1) * shape.updates_per_version;
    let update_us = update_ns as f64 / 1e3 / updates.max(1) as f64;
    let deltas = (0..images.len())
        .map(|j| {
            let to = &images[(j + 1) % images.len()];
            ModelDelta::compute(&images[j], 0, to)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| "versions differ in shape; no delta".to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;

    let _ = std::fs::remove_dir_all(dir);
    let store = ModelStore::open(
        dir,
        StoreConfig {
            shards: shape.shards,
            hot_budget_bytes: shape.hot_budget_bytes,
        },
    )
    .map_err(|e| e.to_string())?;
    store
        .bulk_alias("user", shape.keys, &images[0])
        .map_err(|e| e.to_string())?;
    let fleet = Fleet {
        store: Arc::new(store),
        dir: dir.to_path_buf(),
        deltas,
        zipf: Zipf::new(shape.keys, shape.zipf_s),
        shape,
        base_pass_s,
        update_us,
    };
    Ok((fleet, images))
}

/// One admitted publish: key `key` moved to version `image` at some
/// instant inside `[start, end]`.
#[derive(Debug, Clone, Copy)]
pub struct Publish {
    pub key: u32,
    pub image: u16,
    pub start: Instant,
    pub end: Instant,
}

/// What the writer did.
#[derive(Debug)]
pub struct WriterLog {
    pub publishes: Vec<Publish>,
    pub failed: u64,
    /// Wall time of every `publish_delta` call, ns.
    pub call_ns: Vec<u64>,
}

/// The running writer thread; [`Writer::stop`] joins it.
#[derive(Debug)]
pub struct Writer {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<WriterLog>,
}

impl Writer {
    /// Starts publishing `publishes_per_s` deltas round-robin over the hot
    /// keys until stopped.
    pub fn start(fleet: &Fleet) -> Writer {
        let stop = Arc::new(AtomicBool::new(false));
        let store = fleet.store.clone();
        let deltas = fleet.deltas.clone();
        let shape = fleet.shape;
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut log = WriterLog {
                publishes: Vec::new(),
                failed: 0,
                call_ns: Vec::new(),
            };
            let period = Duration::from_secs_f64(1.0 / shape.publishes_per_s);
            // Every hot key starts at store version 1 holding image 0.
            let mut version = vec![1u64; shape.hot_keys];
            let mut images = vec![0usize; shape.hot_keys];
            let mut next = Instant::now();
            let mut tick = 0usize;
            while !flag.load(Ordering::SeqCst) {
                let key = tick % shape.hot_keys;
                tick += 1;
                let from = images[key];
                let mut delta = deltas[from].clone();
                delta.base_version = version[key];
                let start = Instant::now();
                let res = store.publish_delta(&key_name(key as u32), &delta);
                let end = Instant::now();
                log.call_ns.push((end - start).as_nanos() as u64);
                match res {
                    Ok(_) => {
                        version[key] += 1;
                        images[key] = (from + 1) % deltas.len();
                        log.publishes.push(Publish {
                            key: key as u32,
                            image: images[key] as u16,
                            start,
                            end,
                        });
                    }
                    Err(_) => log.failed += 1,
                }
                next += period;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                } else {
                    next = now;
                }
            }
            log
        });
        Writer { stop, handle }
    }

    /// Stops and joins the writer.
    ///
    /// # Errors
    ///
    /// The writer thread panicked.
    pub fn stop(self) -> Result<WriterLog, String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "delta writer thread panicked".to_string())
    }
}

/// The versions a key may have served to a request resolved at some
/// instant in `[sent, replied]`: a version is visible from the start of
/// the publish that installed it until the end of the publish that
/// replaced it. `history` is that key's publishes in time order.
pub fn candidate_images(history: &[Publish], sent: Instant, replied: Instant) -> Vec<u16> {
    let mut out = Vec::new();
    let mut image = 0u16;
    let mut visible_from: Option<Instant> = None;
    for p in history {
        let starts_before_reply = visible_from.is_none_or(|t| t <= replied);
        if starts_before_reply && p.end >= sent {
            out.push(image);
        }
        image = p.image;
        visible_from = Some(p.start);
    }
    if visible_from.is_none_or(|t| t <= replied) {
        out.push(image);
    }
    out.dedup();
    out
}
