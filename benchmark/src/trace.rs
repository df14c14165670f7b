//! The per-layer replay of a traced run.
//!
//! After traffic stops, the workload's rows are replayed in batches of the
//! observed mean batch through each layer's public entry points: the
//! `net` frame codec, the `serve` registry, bundle and batcher, the
//! `reghd` model, the `encoding` encoder and the `store`. Every call is a
//! span (name, start, end, parent, batch id) kept in memory; a layer's
//! self time is derived by subtracting the calls nested inside it (for
//! example, `ModelBundle::predict_with` minus
//! `RegHdRegressor::predict_batch_with` is the bundle's scaling). Spans
//! inside the program are not recorded here; these are timed from
//! outside, around the calls.
//!
//! The replay also checks the `hwmodel` cost tables stage by stage:
//! predicted time per row against the measured encode, cluster-search,
//! score and binary-tier spans.

use crate::json::Json;
use crate::names::Values;
use crate::stats::nearest_rank;
use hwmodel::algos::{
    binary_tier_infer_cost, cluster_search_cost, encode_cost, prediction_cost, softmax_cost,
    RegHdShape,
};
use hwmodel::device::DeviceProfile;
use reghd::banks::EncodedQuery;
use reghd::config::ClusterMode;
use reghd::PredictScratch;
use reghd_net::frame::{self, status, FrameBuf, PredictionTier, Step};
use reghd_serve::batcher::{Batcher, BatcherConfig, EnqueueResult};
use reghd_serve::bundle::ModelBundle;
use reghd_serve::metrics::ModelMetrics;
use reghd_serve::registry::ModelRegistry;
use reghd_serve::worker::{ReplySink, WorkItem, WorkerPool};
use reghd_store::ModelStore;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Nominal clock for the `hwmodel` time predictions; the host's real
/// frequency is unknown, which the ±2× band absorbs.
const HOST_FREQ_HZ: f64 = 3.0e9;
/// Rows replayed per traced run.
const REPLAY_ROWS: usize = 1024;
const QUICK_REPLAY_ROWS: usize = 128;

/// The rows a traced run replays.
pub fn replay_rows(pool: &[Vec<f32>], quick: bool) -> &[Vec<f32>] {
    let n = if quick {
        QUICK_REPLAY_ROWS
    } else {
        REPLAY_ROWS
    };
    &pool[..n.min(pool.len())]
}

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u64>,
    batch: u64,
}

/// Spans in memory, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    fn open(&mut self, name: &'static str, parent: Option<u64>, batch: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        id
    }

    fn close(&mut self, id: u64) {
        let end = self.now_ns();
        self.spans[(id - 1) as usize].end_ns = end;
    }

    /// One pass of an entry point: `f(start, end)` once per batch, each
    /// call a span named `name` under one `replay.pass` root span.
    pub fn pass(
        &mut self,
        batches: &[(usize, usize)],
        name: &'static str,
        f: &mut dyn FnMut(usize, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        let root = self.open("replay.pass", None, 0);
        for (b, &(start, end)) in batches.iter().enumerate() {
            let id = self.open(name, Some(root), b as u64);
            f(start, end)?;
            self.close(id);
        }
        self.close(root);
        Ok(())
    }

    /// Summed duration of every span called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::from(s.id)),
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("batch", Json::from(s.batch)),
                    ])
                })
                .collect(),
        )
    }
}

/// What the replay runs over.
pub struct ReplayInput<'a> {
    /// The model the compute spans run on.
    pub bundle: &'a ModelBundle,
    /// Must resolve every name in `names`.
    pub registry: &'a ModelRegistry,
    /// Model name of each replayed row, cycled.
    pub names: &'a [String],
    pub rows: &'a [Vec<f32>],
    pub batch: usize,
    /// Whether served traffic takes the binary tier (decides which calls
    /// the self-time table charges).
    pub binary_tier: bool,
    pub store: Option<&'a ModelStore>,
}

/// Per-layer values, the trace document part, and replay checks.
pub struct ReplayOutput {
    pub values: Values,
    pub doc: Json,
    pub notes: Vec<String>,
    /// Batcher hand-off answers that differed from the bundle's.
    pub mismatches: u64,
}

/// One `hwmodel` stage check.
struct Stage {
    stage: &'static str,
    predicted_us: f64,
    measured_us: f64,
}

impl Stage {
    fn ratio(&self) -> f64 {
        self.predicted_us / self.measured_us
    }

    fn flagged(&self) -> bool {
        !(0.5..=2.0).contains(&self.ratio())
    }
}

/// Standardises raw rows exactly like `ModelBundle::predict_with` does
/// before it calls the model.
pub fn scale_rows(bundle: &ModelBundle, rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .zip(bundle.feat_means().iter().zip(bundle.feat_stds()))
                .map(|(&x, (&m, &s))| if s != 0.0 { (x - m) / s } else { x - m })
                .collect()
        })
        .collect()
}

/// Replays `input.rows` through every layer and derives the per-layer
/// values.
///
/// # Errors
///
/// Prediction or worker-pool failures, as text.
pub fn replay(input: &ReplayInput<'_>) -> Result<ReplayOutput, String> {
    let bundle = input.bundle;
    let model = bundle.model();
    let cfg = model.config();
    let rows = input.rows;
    let n = rows.len();
    let batch = input.batch.max(1);
    let scaled = scale_rows(bundle, rows);
    let name_of = |i: usize| input.names[i % input.names.len()].as_str();
    let tier = if input.binary_tier {
        PredictionTier::Binary
    } else {
        PredictionTier::Full
    };
    let mut wire = Vec::new();
    let mut frame_ends = Vec::with_capacity(n + 1);
    frame_ends.push(0);
    for (i, row) in rows.iter().enumerate() {
        frame::encode_predict_tier(&mut wire, i as u64 + 1, name_of(i), row, tier);
        frame_ends.push(wire.len());
    }

    // The batcher hand-off replays against the model the first name
    // resolves to.
    let served = input
        .registry
        .get(name_of(0))
        .ok_or_else(|| format!("replay: {} does not resolve", name_of(0)))?;
    let pool = Arc::new(WorkerPool::new(2, 4).map_err(|e| e.to_string())?);
    let batcher = Batcher::new(BatcherConfig::default(), pool).map_err(|e| e.to_string())?;
    let metrics = Arc::new(ModelMetrics::default());

    // One pass per entry point over every batch, so each call runs with
    // its own data warm in cache; interleaving them per batch would charge
    // each call for the cache misses of the one before.
    let batches: Vec<(usize, usize)> = (0..n)
        .step_by(batch)
        .map(|s| (s, (s + batch).min(n)))
        .collect();
    let mut tracer = Tracer::new();
    let mut scratch = PredictScratch::default();
    let mut pass = |name: &'static str, f: &mut dyn FnMut(usize, usize) -> Result<(), String>| {
        tracer.pass(&batches, name, f)
    };

    pass("net.frame_decode", &mut |s, e| {
        let mut buf = FrameBuf::new();
        buf.extend(&wire[frame_ends[s]..frame_ends[e]]);
        while let Step::Ready(f) = buf.next_frame(frame::DEFAULT_MAX_FRAME) {
            let _ = black_box(frame::decode_predict(&f.payload));
        }
        Ok(())
    })?;
    let mut cold_ns: Vec<u64> = Vec::new();
    let mut hot_ns: Vec<u64> = Vec::new();
    if let Some(store) = input.store {
        pass("store.get", &mut |s, e| {
            // Classify each get by whether it missed the hot cache.
            for i in s..e {
                let misses = store.stats().misses;
                let t = Instant::now();
                black_box(store.get(name_of(i)).map_err(|e| e.to_string())?);
                let ns = t.elapsed().as_nanos() as u64;
                if store.stats().misses > misses {
                    cold_ns.push(ns);
                } else {
                    hot_ns.push(ns);
                }
            }
            Ok(())
        })?;
    }
    pass("serve.registry_get", &mut |s, e| {
        for i in s..e {
            black_box(input.registry.get(name_of(i)));
        }
        Ok(())
    })?;
    let mut full = Vec::with_capacity(n);
    pass("serve.predict_with", &mut |s, e| {
        full.extend(bundle.predict_with(&rows[s..e], &mut scratch)?);
        Ok(())
    })?;
    pass("reghd.predict_batch_with", &mut |s, e| {
        black_box(model.predict_batch_with(&scaled[s..e], &mut scratch));
        Ok(())
    })?;
    let mut encoded = vec![hdc::RealHv::zeros(cfg.dim); n];
    pass("encoding.encode_batch_into", &mut |s, e| {
        model
            .encoder()
            .encode_batch_into(&scaled[s..e], &mut encoded[s..e], 1);
        Ok(())
    })?;
    // The forward pass after the encode, split into cluster search (with
    // softmax) and model scores, the same steps the model runs.
    let mut queries: Vec<EncodedQuery> = Vec::with_capacity(n);
    let (mut sims, mut conf, mut scores) = (Vec::new(), Vec::new(), Vec::new());
    pass("reghd.search", &mut |s, e| {
        for slot in &mut encoded[s..e] {
            let mut real = std::mem::take(slot);
            if let Some(center) = model.center() {
                real.add_scaled(center, -1.0);
            }
            if cfg.normalize_encodings {
                real.normalize();
            }
            let q = EncodedQuery::new(real);
            model
                .clusters()
                .similarities_into(&q.real, &q.binary, &mut sims);
            hdc::similarity::softmax_into(&sims, cfg.softmax_beta, &mut conf);
            queries.push(q);
        }
        Ok(())
    })?;
    pass("reghd.score", &mut |s, e| {
        for q in &queries[s..e] {
            let bank = model.models();
            bank.scores_into_mode(bank.mode(), &q.real, &q.binary, q.amp, &mut scores);
            black_box(&scores);
        }
        Ok(())
    })?;
    pass("serve.predict_binary_with", &mut |s, e| {
        black_box(bundle.predict_binary_with(&rows[s..e], &mut scratch)?);
        Ok(())
    })?;
    pass("reghd.predict_batch_binary_with", &mut |s, e| {
        black_box(model.predict_batch_binary_with(&scaled[s..e], &mut scratch));
        Ok(())
    })?;
    let mut vals = vec![0.0f32; cfg.dim];
    pass("encoding.encode_quantized_into", &mut |s, e| {
        for z in &scaled[s..e] {
            black_box(model.encoder().encode_quantized_into(z, &mut vals));
        }
        Ok(())
    })?;
    // Batcher hand-off: enqueue each batch, wait for every worker
    // completion callback, and check the answers against the model.
    let expect = served.bundle.predict_with(rows, &mut scratch)?;
    let mut got: Vec<u32> = vec![0; n];
    pass("serve.handoff", &mut |s, e| {
        let (tx, rx) = mpsc::channel::<(usize, Result<f32, String>)>();
        for (i, x) in rows[s..e].iter().enumerate() {
            let tx = tx.clone();
            let item = WorkItem {
                row: x.clone(),
                enqueued_at: Instant::now(),
                deadline: None,
                reply: ReplySink::from_fn(move |r| {
                    let _ = tx.send((s + i, r.map_err(|e| format!("{e:?}"))));
                }),
            };
            if batcher.enqueue(served.clone(), metrics.clone(), item) != EnqueueResult::Accepted {
                return Err("replay: batcher refused a row".to_string());
            }
        }
        for _ in s..e {
            let (i, r) = rx.recv().map_err(|e| e.to_string())?;
            got[i] = r?.to_bits();
        }
        Ok(())
    })?;
    batcher.shutdown();
    let mismatches = got
        .iter()
        .zip(&expect)
        .filter(|(g, e)| **g != e.to_bits())
        .count() as u64;
    let mut reply = Vec::new();
    pass("net.reply_encode", &mut |s, e| {
        reply.clear();
        for (i, y) in full[s..e].iter().enumerate() {
            frame::encode_value_reply(&mut reply, status::OK, (s + i) as u64, *y);
        }
        black_box(&reply);
        Ok(())
    })?;

    // Batch-1 prediction, for the batching comparison.
    let b1_ns = if batch == 1 {
        tracer.total_ns("reghd.predict_batch_with")
    } else {
        let t = Instant::now();
        for z in &scaled {
            black_box(model.predict_batch_with(std::slice::from_ref(z), &mut scratch));
        }
        t.elapsed().as_nanos() as u64
    };

    let per_row_us = |name: &str| tracer.total_ns(name) as f64 / 1e3 / n as f64;
    let encode_us = per_row_us("encoding.encode_batch_into");
    let pbw_us = per_row_us("reghd.predict_batch_with");
    let pw_us = per_row_us("serve.predict_with");
    let pbin_us = per_row_us("serve.predict_binary_with");
    let pbbw_us = per_row_us("reghd.predict_batch_binary_with");
    let quant_us = per_row_us("encoding.encode_quantized_into");
    let handoff_us = per_row_us("serve.handoff");
    let registry_us = per_row_us("serve.registry_get");
    let net_us = per_row_us("net.frame_decode") + per_row_us("net.reply_encode");
    let store_us = per_row_us("store.get");

    let shape = RegHdShape {
        dim: cfg.dim as u64,
        models: cfg.models as u64,
        features: bundle.num_features() as u64,
        cluster_binary: cfg.cluster_mode != ClusterMode::Integer,
        query_binary: cfg.prediction_mode.query_is_binary(),
        model_binary: cfg.prediction_mode.model_is_binary(),
    };
    let device = DeviceProfile::host_cpu(hdc::simd::active_label(), HOST_FREQ_HZ);
    let predict_us = |ops| device.time_s(&ops) * 1e6;
    let stages = [
        Stage {
            stage: "encode",
            predicted_us: predict_us(encode_cost(&shape)),
            measured_us: encode_us,
        },
        Stage {
            stage: "search",
            predicted_us: predict_us(cluster_search_cost(&shape) + softmax_cost(&shape)),
            measured_us: per_row_us("reghd.search"),
        },
        Stage {
            stage: "score",
            predicted_us: predict_us(prediction_cost(&shape)),
            measured_us: per_row_us("reghd.score"),
        },
        Stage {
            stage: "binary",
            predicted_us: predict_us(binary_tier_infer_cost(&shape)),
            measured_us: pbbw_us,
        },
    ];
    let encode_ops = encode_cost(&shape);
    let encode_flops = (encode_ops.f32_mul + encode_ops.f32_add + encode_ops.transcendental) as f64;

    // Self time per row along the path served traffic takes. Binary-tier
    // requests are answered inline on the poller, so no batcher hand-off.
    let clamp = |v: f64| v.max(0.0);
    // A store-backed registry lookup resolves through the store: charge
    // the store its own gets and the registry only the rest.
    let registry_us = clamp(registry_us - store_us);
    let (serve_us, reghd_us, encoding_us) = if input.binary_tier {
        (
            registry_us + clamp(pbin_us - pbbw_us),
            clamp(pbbw_us - quant_us),
            quant_us,
        )
    } else {
        (
            registry_us + clamp(pw_us - pbw_us) + clamp(handoff_us - pw_us),
            clamp(pbw_us - encode_us),
            encode_us,
        )
    };
    let self_us = [
        ("net", net_us),
        ("serve", serve_us),
        ("reghd", reghd_us),
        ("encoding", encoding_us),
        ("store", store_us),
    ];

    let mut values = Values::default();
    values.set("net.frame_decode_ns", per_row_us("net.frame_decode") * 1e3);
    values.set("net.reply_encode_ns", per_row_us("net.reply_encode") * 1e3);
    values.set(
        "serve.registry_get_ns",
        per_row_us("serve.registry_get") * 1e3,
    );
    values.set("serve.scale_us_per_row", clamp(pw_us - pbw_us));
    values.set("serve.handoff_us", clamp(handoff_us - pw_us));
    values.set("reghd.predict_us_per_row.b1", b1_ns as f64 / 1e3 / n as f64);
    values.set("reghd.predict_us_per_row.bmean", pbw_us);
    values.set("reghd.score_us_per_row", clamp(pbw_us - encode_us));
    values.set("reghd.predict_binary_us_per_row", pbbw_us);
    values.set("encoding.encode_us_per_row", encode_us);
    values.set("encoding.encode_quantized_us_per_row", quant_us);
    values.set("hdc.encode_gflops", encode_flops / (encode_us * 1e-6) / 1e9);
    for s in &stages {
        let name = match s.stage {
            "encode" => "hwmodel.encode_pred_over_meas",
            "search" => "hwmodel.search_pred_over_meas",
            "score" => "hwmodel.score_pred_over_meas",
            _ => "hwmodel.binary_pred_over_meas",
        };
        values.set(name, s.ratio());
    }
    values.set(
        "hwmodel.stages_flagged",
        stages.iter().filter(|s| s.flagged()).count() as f64,
    );
    if input.store.is_some() {
        cold_ns.sort_unstable();
        hot_ns.sort_unstable();
        let us = |v: Option<u64>| v.map_or(0.0, |ns| ns as f64 / 1e3);
        values.set("store.get_hot_p50_us", us(nearest_rank(&hot_ns, 0.5)));
        values.set("store.get_cold_p50_us", us(nearest_rank(&cold_ns, 0.5)));
        values.set("store.get_cold_p99_us", us(nearest_rank(&cold_ns, 0.99)));
    }
    set_self_shares(&mut values, &self_us);

    let mut notes: Vec<String> =
        stages
            .iter()
            .map(|s| {
                format!(
                "hwmodel {:<6}: predicted {:>8.2} us/row, measured {:>8.2} us/row, ratio {:.2}{}",
                s.stage,
                s.predicted_us,
                s.measured_us,
                s.ratio(),
                if s.flagged() { "  <- more than 2x off" } else { "" }
            )
            })
            .collect();
    notes.push(self_time_line(&self_us));
    if input.store.is_some() {
        notes.push(format!(
            "store replay: {} hot gets, {} cold gets",
            hot_ns.len(),
            cold_ns.len()
        ));
    }
    let doc = Json::obj([
        ("rows", Json::from(n)),
        ("batch", Json::from(batch)),
        ("spans", tracer.to_json()),
        ("self_time_us_per_row", self_time_json(&self_us)),
        ("largest_self_layer", Json::from(largest(&self_us))),
        (
            "hwmodel",
            Json::Arr(
                stages
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("stage", Json::from(s.stage)),
                            ("predicted_us_per_row", Json::Num(s.predicted_us)),
                            ("measured_us_per_row", Json::Num(s.measured_us)),
                            ("pred_over_meas", Json::Num(s.ratio())),
                            ("flagged", Json::from(s.flagged())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(ReplayOutput {
        values,
        doc,
        notes,
        mismatches,
    })
}

/// Layer with the largest self time.
pub fn largest(self_us: &[(&'static str, f64)]) -> &'static str {
    self_us
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(l, _)| l)
}

/// Sets `trace.self_share.<layer>` from per-row self times.
pub fn set_self_shares(values: &mut Values, self_us: &[(&'static str, f64)]) {
    let total: f64 = self_us
        .iter()
        .map(|(_, v)| v)
        .sum::<f64>()
        .max(f64::MIN_POSITIVE);
    for (layer, us) in self_us {
        let name = match *layer {
            "net" => "trace.self_share.net",
            "serve" => "trace.self_share.serve",
            "reghd" => "trace.self_share.reghd",
            "encoding" => "trace.self_share.encoding",
            _ => "trace.self_share.store",
        };
        values.set(name, us / total);
    }
}

pub fn self_time_json(self_us: &[(&'static str, f64)]) -> Json {
    Json::obj(self_us.iter().map(|(l, v)| (*l, Json::Num(*v))))
}

pub fn self_time_line(self_us: &[(&'static str, f64)]) -> String {
    let parts: Vec<String> = self_us.iter().map(|(l, v)| format!("{l} {v:.2}")).collect();
    format!(
        "self time us/row: {}; largest: {}",
        parts.join(", "),
        largest(self_us)
    )
}
