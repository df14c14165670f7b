//! The three RGNP serving workloads.
//!
//! Each one runs the real front-end (`reghd_net::serve_rgnp`) inside this
//! process and drives it with the checked load generator:
//!
//! * a nominal phase — open loop at the workload's nominal rate: warm-up,
//!   then three windows, giving `p50_ms`;
//! * a saturation phase — closed loop with a fixed number of requests in
//!   flight on a fresh server, giving `rows_per_s`;
//! * in traced runs, a knee search — open-loop bisection steps inside the
//!   workload's rate bracket, each on a fresh server so one step's
//!   overload (queue, shed controller) cannot leak into the next, giving
//!   the highest rate that met the SLO.
//!
//! Every reply of every phase is then checked bit for bit against the
//! model evaluated in-process.

use crate::fleet::{self, Fleet, FleetShape, Publish, Writer, WriterLog};
use crate::gen::{self, Load, PhaseRun, Sample};
use crate::json::Json;
use crate::names::Values;
use crate::stats::{median, nearest_rank};
use crate::trace::{self, ReplayInput};
use crate::workload::{Opts, Outcome};
use datasets::synthetic::SyntheticSpec;
use hdc::rng::HdRng;
use reghd_net::frame::{self, status, PredictionTier};
use reghd_net::{serve_rgnp, NetConfig, NetServerHandle};
use reghd_serve::bundle::{self, ModelBundle};
use reghd_serve::metrics::MetricsHub;
use reghd_serve::registry::ModelRegistry;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One model, full-precision tier.
    FullTier,
    /// The same model, every frame asking for the binary tier.
    BinaryTier,
    /// 100k per-user keys in the model store, Zipf-popular, with a
    /// writer publishing deltas to the hottest keys.
    StoreZipf,
}

/// The SLO a knee-search step must meet.
const SLO_P99_NS: u64 = 20_000_000;
const SLO_FAILED_SHARE: f64 = 0.001;
const SLO_DEGRADED_SHARE: f64 = 0.01;
const SLO_ACHIEVED: f64 = 0.99;
/// Sends later than this at p99 mean the latency numbers partly measure
/// the generator or the host; such runs are flagged in the notes.
const LAG_WARN_P99_NS: u64 = 1_000_000;
/// Requests each connection keeps outstanding in the saturation phase:
/// enough to keep the workers busy, few enough that queue waits stay
/// under the shed controller's demotion threshold on every workload.
const IN_FLIGHT: usize = 16;
/// Sub-windows of the saturation phase; `rows_per_s` is their median.
const SATURATION_WINDOWS: usize = 8;

/// Model name of the single-model workloads.
const MODEL: &str = "m";
const POOL_ROWS: usize = 4096;
/// The task is fixed: every seed draws its training rows, pool rows and
/// key sequence from the same synthetic population, so a seed changes the
/// inputs, not the problem being learned.
pub const POPULATION_SEED: u64 = 0x5EED_7A5C;
const POPULATION_ROWS: usize = 16_384;

/// Rates and model shape of one workload, fixed in advance (calibrated
/// on a 2-core host, never derived at run time).
#[derive(Debug, Clone, Copy)]
struct Plan {
    nominal_rate: f64,
    bracket: (f64, f64),
    dim: usize,
    models: usize,
    train_rows: usize,
    epochs: usize,
    pool_rows: usize,
    fleet: Option<FleetShape>,
}

fn plan(kind: Kind, quick: bool) -> Plan {
    let (nominal_rate, bracket) = match kind {
        Kind::FullTier => (5000.0, (4000.0, 16000.0)),
        Kind::BinaryTier => (8000.0, (8000.0, 48000.0)),
        Kind::StoreZipf => (1000.0, (500.0, 4500.0)),
    };
    let fleet = (kind == Kind::StoreZipf).then_some(FleetShape {
        keys: if quick { 5_000 } else { 100_000 },
        dim: if quick { 256 } else { 1024 },
        models: 4,
        shards: 8,
        hot_budget_bytes: if quick { 1 << 20 } else { 16 << 20 },
        base_rows: if quick { 200 } else { 1000 },
        versions: if quick { 8 } else { 32 },
        updates_per_version: 20,
        hot_keys: 64,
        publishes_per_s: 10.0,
        zipf_s: 1.1,
    });
    Plan {
        nominal_rate: if quick {
            nominal_rate / 4.0
        } else {
            nominal_rate
        },
        bracket: if quick {
            (bracket.0 / 4.0, bracket.1 / 4.0)
        } else {
            bracket
        },
        dim: if quick { 512 } else { 2048 },
        models: 8,
        train_rows: if quick { 300 } else { 2000 },
        epochs: if quick { 3 } else { 10 },
        pool_rows: if quick { 512 } else { POOL_ROWS },
        fleet,
    }
}

/// Phase lengths, as shares of the run length.
struct Timing {
    warm: Duration,
    window: Duration,
    windows: usize,
    saturation: Duration,
    step: Duration,
    steps: usize,
    grace: Duration,
}

fn timing(seconds: f64, trace: bool) -> Timing {
    let s = |share: f64| Duration::from_secs_f64(seconds * share);
    Timing {
        warm: s(0.05),
        // Traced runs measure two nominal windows (plain and traced) and
        // the knee search; untraced runs three windows and saturation.
        window: if trace { s(0.2) } else { s(0.15) },
        windows: if trace { 1 } else { 3 },
        saturation: s(0.4),
        step: s(0.09),
        steps: 5,
        grace: Duration::from_secs(1),
    }
}

/// `n` distinct population rows chosen by `seed`.
fn draw_rows(population: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..population).collect();
    let mut rng = HdRng::seed_from(seed);
    for i in 0..n {
        let j = i + rng.next_below(population - i);
        idx.swap(i, j);
    }
    idx.truncate(n);
    idx
}

/// The system under test plus everything needed to check its answers.
struct System {
    kind: Kind,
    registry: Arc<ModelRegistry>,
    pool: Vec<Vec<f32>>,
    targets: Vec<f32>,
    /// Bundle bytes of every model version that can be served.
    images: Vec<Vec<u8>>,
    fleet: Option<Fleet>,
    /// Training time per epoch of the served model, s.
    epoch_s: f64,
    update_us: f64,
}

fn start_server(registry: &Arc<ModelRegistry>) -> Result<NetServerHandle, String> {
    serve_rgnp(
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            pollers: 1,
            workers: 2,
            threads: 1,
            trig: hdc::TrigMode::Exact,
            reply_timeout: Duration::from_secs(5),
            deadline: None,
            ..NetConfig::default()
        },
        registry.clone(),
    )
    .map_err(|e| format!("serve_rgnp: {e}"))
}

/// Builds the model(s), registry and store, and binds the first server.
fn setup(kind: Kind, plan: &Plan, opts: &Opts) -> Result<(System, NetServerHandle), String> {
    let registry = Arc::new(ModelRegistry::new());
    let sys = match plan.fleet {
        None => {
            // Boston-shaped: 13 features, four regimes.
            let population = SyntheticSpec {
                name: "boston-shaped".into(),
                samples: POPULATION_ROWS,
                features: 13,
                clusters: 4,
                nonlinearity: 0.5,
                noise_std: 0.44,
                target_mean: 22.5,
                target_std: 9.2,
                skew: 0.4,
                seed: POPULATION_SEED,
            }
            .generate();
            let rows = draw_rows(POPULATION_ROWS, plan.train_rows + plan.pool_rows, opts.seed);
            let ds = population.select(&rows);
            let train_idx: Vec<usize> = (0..plan.train_rows).collect();
            let t = Instant::now();
            let (model, report) = bundle::train(
                &ds.select(&train_idx),
                plan.dim,
                plan.models,
                plan.epochs,
                opts.seed,
                false,
            )?;
            let epoch_s = t.elapsed().as_secs_f64() / report.epochs.max(1) as f64;
            let bytes = model.to_bytes()?;
            registry
                .load_bytes(MODEL, &bytes)
                .map_err(|e| e.to_string())?;
            System {
                kind,
                registry: registry.clone(),
                pool: ds.features[plan.train_rows..].to_vec(),
                targets: ds.targets[plan.train_rows..].to_vec(),
                images: vec![bytes],
                fleet: None,
                epoch_s,
                update_us: 0.0,
            }
        }
        Some(shape) => {
            let train = shape.base_rows + (shape.versions - 1) * shape.updates_per_version;
            let population = SyntheticSpec {
                name: "fleet".into(),
                samples: POPULATION_ROWS,
                features: 8,
                clusters: 3,
                nonlinearity: 0.5,
                noise_std: 0.5,
                target_mean: 50.0,
                target_std: 10.0,
                skew: 0.2,
                seed: POPULATION_SEED,
            }
            .generate();
            let ds = population.select(&draw_rows(
                POPULATION_ROWS,
                train + plan.pool_rows,
                opts.seed,
            ));
            let (fleet, images) = fleet::build(
                &opts.work_dir.join("store"),
                shape,
                &ds.features,
                &ds.targets,
                opts.seed,
            )?;
            registry.attach_resolver(fleet.store.clone());
            System {
                kind,
                registry: registry.clone(),
                pool: ds.features[train..].to_vec(),
                targets: ds.targets[train..].to_vec(),
                images,
                epoch_s: fleet.base_pass_s,
                update_us: fleet.update_us,
                fleet: Some(fleet),
            }
        }
    };
    let server = start_server(&registry)?;
    Ok((sys, server))
}

impl System {
    fn tier(&self) -> PredictionTier {
        if self.kind == Kind::BinaryTier {
            PredictionTier::Binary
        } else {
            PredictionTier::Full
        }
    }

    /// Reply status of an answer on the requested tier.
    fn tier_status(&self) -> u8 {
        if self.kind == Kind::BinaryTier {
            status::DEGRADED
        } else {
            status::OK
        }
    }

    /// One phase. Rows cycle through the pool; store keys are drawn from
    /// the Zipf popularity with a generator seeded by `salt`.
    fn phase(
        &self,
        addr: SocketAddr,
        load: Load,
        duration: Duration,
        grace: Duration,
        salt: u64,
    ) -> Result<PhaseRun, String> {
        let tier = self.tier();
        let mut rng = HdRng::seed_from(salt);
        let pool = &self.pool;
        let fleet = self.fleet.as_ref();
        let mut encode = |out: &mut Vec<u8>, req_id: u64, i: u64| -> (u32, u32) {
            let row = (i % pool.len() as u64) as u32;
            let x = &pool[row as usize];
            match fleet {
                Some(f) => {
                    let key = f.zipf.sample(rng.next_f64());
                    frame::encode_predict_tier(out, req_id, &fleet::key_name(key), x, tier);
                    (row, key)
                }
                None => {
                    frame::encode_predict_tier(out, req_id, MODEL, x, tier);
                    (row, 0)
                }
            }
        };
        gen::run_phase(addr, load, duration, grace, &mut encode)
            .map_err(|e| format!("load generator: {e}"))
    }
}

/// Reference values, computed in-process from the same bundle bytes the
/// server loaded, memoised per (version, tier, row).
struct Checker<'a> {
    sys: &'a System,
    memo: HashMap<(u16, bool, u32), u32>,
    /// Publish history per hot key (store workload).
    history: HashMap<u32, Vec<Publish>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct CheckCounts {
    checked: u64,
    mismatches: u64,
}

impl<'a> Checker<'a> {
    fn new(sys: &'a System, log: Option<&WriterLog>) -> Self {
        let mut history: HashMap<u32, Vec<Publish>> = HashMap::new();
        for p in log.map_or(&[][..], |l| &l.publishes) {
            history.entry(p.key).or_default().push(*p);
        }
        Self {
            sys,
            memo: HashMap::new(),
            history,
        }
    }

    /// Versions the sample's key may have served while it was in flight.
    fn candidates(&self, run: &PhaseRun, s: &Sample) -> Vec<u16> {
        match self.history.get(&s.key) {
            Some(h) if self.sys.fleet.is_some() => {
                fleet::candidate_images(h, run.at(s.sent), run.at(s.replied))
            }
            _ => vec![0],
        }
    }

    /// Evaluates every (version, tier, row) the runs need that is not
    /// memoised yet, one batch per (version, tier).
    fn fill(&mut self, runs: &[&PhaseRun]) -> Result<(), String> {
        let mut need: HashMap<(u16, bool), HashSet<u32>> = HashMap::new();
        for run in runs {
            for s in run.samples.iter().filter(|s| s.answered()) {
                let binary = s.status == status::DEGRADED;
                for image in self.candidates(run, s) {
                    if !self.memo.contains_key(&(image, binary, s.row)) {
                        need.entry((image, binary)).or_default().insert(s.row);
                    }
                }
            }
        }
        for ((image, binary), rows) in need {
            let bundle = ModelBundle::from_bytes(&self.sys.images[image as usize])?;
            // Row-parallel prediction is bit-identical to sequential.
            bundle.set_threads(2);
            let rows: Vec<u32> = rows.into_iter().collect();
            let xs: Vec<Vec<f32>> = rows
                .iter()
                .map(|&r| self.sys.pool[r as usize].clone())
                .collect();
            let ys = if binary {
                bundle.predict_binary(&xs)?
            } else {
                bundle.predict(&xs)?
            };
            for (r, y) in rows.into_iter().zip(ys) {
                self.memo.insert((image, binary, r), y.to_bits());
            }
        }
        Ok(())
    }

    /// Compares every answered sample with its reference value(s).
    fn check(&mut self, runs: &[&PhaseRun]) -> Result<CheckCounts, String> {
        self.fill(runs)?;
        let mut counts = CheckCounts::default();
        for run in runs {
            for s in run.samples.iter().filter(|s| s.answered()) {
                let binary = s.status == status::DEGRADED;
                counts.checked += 1;
                let ok = self
                    .candidates(run, s)
                    .into_iter()
                    .any(|image| self.memo.get(&(image, binary, s.row)) == Some(&s.bits));
                if !ok {
                    counts.mismatches += 1;
                }
            }
        }
        Ok(counts)
    }
}

/// Outcome counts of one phase.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    sent: u64,
    ok: u64,
    degraded: u64,
    busy: u64,
    draining: u64,
    err: u64,
    lost: u64,
}

impl Tally {
    fn of(samples: &[Sample]) -> Self {
        let mut t = Tally {
            sent: samples.len() as u64,
            ..Tally::default()
        };
        for s in samples {
            match s.status {
                status::OK => t.ok += 1,
                status::DEGRADED => t.degraded += 1,
                status::BUSY => t.busy += 1,
                status::DRAINING => t.draining += 1,
                status::ERR => t.err += 1,
                _ => t.lost += 1,
            }
        }
        t
    }

    fn failed(&self) -> u64 {
        self.busy + self.draining + self.err + self.lost
    }

    fn share(&self, n: u64) -> f64 {
        n as f64 / self.sent.max(1) as f64
    }
}

/// p50 and p99 of a set of samples, failures counting as infinitely late.
fn latency_quantiles(samples: &[Sample]) -> (u64, u64) {
    let mut lat: Vec<u64> = samples.iter().map(Sample::latency_ns).collect();
    lat.sort_unstable();
    (
        nearest_rank(&lat, 0.50).unwrap_or(u64::MAX),
        nearest_rank(&lat, 0.99).unwrap_or(u64::MAX),
    )
}

/// p99 of how late the generator sent, ns.
fn lag_p99(samples: &[Sample]) -> u64 {
    let mut lag: Vec<u64> = samples
        .iter()
        .map(|s| s.sent.saturating_sub(s.scheduled))
        .collect();
    lag.sort_unstable();
    nearest_rank(&lag, 0.99).unwrap_or(0)
}

/// Samples scheduled inside `[from, from + len)`.
fn window(run: &PhaseRun, from: Duration, len: Duration) -> &[Sample] {
    let (a, b) = (from.as_nanos() as u64, (from + len).as_nanos() as u64);
    let lo = run.samples.partition_point(|s| s.scheduled < a);
    let hi = run.samples.partition_point(|s| s.scheduled < b);
    &run.samples[lo..hi]
}

/// Root-mean-square error of the served values against the pool targets.
fn served_rmse(samples: &[Sample], targets: &[f32]) -> f64 {
    let (mut se, mut n) = (0.0f64, 0u64);
    for s in samples.iter().filter(|s| s.answered()) {
        let d = f64::from(f32::from_bits(s.bits)) - f64::from(targets[s.row as usize]);
        se += d * d;
        n += 1;
    }
    (se / n.max(1) as f64).sqrt()
}

/// One knee-search step.
struct Step {
    offered: f64,
    /// Answered requests per second from the first scheduled send to the
    /// last reply.
    completion_rate: f64,
    p99_ns: u64,
    failed_share: f64,
    degraded_share: f64,
    achieved: f64,
    pass: bool,
}

fn evaluate_step(kind: Kind, run: &PhaseRun, offered: f64, len: Duration) -> Step {
    let t = Tally::of(&run.samples);
    let (_, p99_ns) = latency_quantiles(&run.samples);
    let failed_share = t.share(t.failed() + run.protocol_errors);
    // The binary tier answers DEGRADED by request; only demotions count.
    let degraded_share = if kind == Kind::BinaryTier {
        0.0
    } else {
        t.share(t.degraded)
    };
    let answered = (t.ok + t.degraded) as f64;
    let achieved = answered / len.as_secs_f64();
    let last_reply = run
        .samples
        .iter()
        .filter(|s| s.answered())
        .map(|s| s.replied)
        .max()
        .unwrap_or(0);
    Step {
        offered,
        completion_rate: answered / (last_reply as f64 / 1e9).max(1e-9),
        p99_ns,
        failed_share,
        degraded_share,
        achieved,
        pass: p99_ns <= SLO_P99_NS
            && failed_share <= SLO_FAILED_SHARE
            && degraded_share <= SLO_DEGRADED_SHARE
            && achieved >= SLO_ACHIEVED * offered,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs one serving workload.
///
/// # Errors
///
/// Set-up, server or generator failures, as text.
pub fn run(kind: Kind, opts: &Opts) -> Result<Outcome, String> {
    let plan = plan(kind, opts.quick);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..opts.setups() {
        // Tear the previous set-up down first: its store directory is
        // reused.
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(kind, &plan, opts)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (sys, server) = built.expect("at least one set-up");
    let writer = sys.fleet.as_ref().map(Writer::start);
    if opts.trace {
        traced(&sys, &plan, server, writer, opts)
    } else {
        untraced(&sys, &plan, server, writer, opts, &setup_s)
    }
}

fn stop_writer(writer: Option<Writer>) -> Result<Option<WriterLog>, String> {
    writer.map(Writer::stop).transpose()
}

/// Open-loop bisection inside the workload's bracket, each step on a
/// fresh server. Returns the completion rate of the highest step that met
/// the SLO (`None` when none did) and every step's run.
fn knee_search(
    sys: &System,
    plan: &Plan,
    t: &Timing,
    seed: u64,
    notes: &mut Vec<String>,
) -> Result<(Option<f64>, Vec<PhaseRun>), String> {
    let (mut lo, mut hi) = plan.bracket;
    let mut best = None;
    let mut runs = Vec::new();
    for k in 0..t.steps {
        let rate = (lo + hi) / 2.0;
        let srv = start_server(&sys.registry)?;
        let run = sys.phase(
            srv.local_addr(),
            Load::Open { rate },
            t.step,
            t.grace,
            seed ^ (k as u64 + 1),
        )?;
        srv.shutdown();
        let step = evaluate_step(sys.kind, &run, rate, t.step);
        notes.push(format!(
            "knee step {k}: offered {:.0}/s achieved {:.0}/s p99 {:.2} ms failed {:.4} \
             degraded {:.4} -> {}",
            step.offered,
            step.achieved,
            ms(step.p99_ns),
            step.failed_share,
            step.degraded_share,
            if step.pass { "pass" } else { "miss" }
        ));
        if step.pass {
            lo = rate;
            best = Some(step.completion_rate);
        } else {
            hi = rate;
        }
        runs.push(run);
    }
    Ok((best, runs))
}

fn untraced(
    sys: &System,
    plan: &Plan,
    server: NetServerHandle,
    writer: Option<Writer>,
    opts: &Opts,
    setup_s: &[f64],
) -> Result<Outcome, String> {
    let t = timing(opts.seconds, false);
    let mut notes = Vec::new();
    let nominal = sys.phase(
        server.local_addr(),
        Load::Open {
            rate: plan.nominal_rate,
        },
        t.warm + t.window * t.windows as u32,
        t.grace,
        opts.seed ^ 0x4E4F_4D49,
    )?;
    server.shutdown();
    // Peak memory through set-up and steady serving; later phases
    // saturate the server and pin queued models, which would dominate.
    let rss_mb = crate::envelope::peak_rss_mib();

    // Saturation: a fixed number of requests in flight, on a fresh server.
    let srv = start_server(&sys.registry)?;
    let saturation = sys.phase(
        srv.local_addr(),
        Load::Closed {
            in_flight: IN_FLIGHT,
        },
        t.warm + t.saturation,
        t.grace,
        opts.seed ^ 0x5A7,
    )?;
    srv.shutdown();
    let log = stop_writer(writer)?;
    // The median over sub-windows, so a host stall in part of the phase
    // does not move the result.
    let sub = t.saturation / SATURATION_WINDOWS as u32;
    let rates: Vec<f64> = (0..SATURATION_WINDOWS)
        .map(|w| {
            let from = (t.warm + sub * w as u32).as_nanos() as u64;
            let to = from + sub.as_nanos() as u64;
            let n = saturation
                .samples
                .iter()
                .filter(|s| s.status == sys.tier_status() && (from..to).contains(&s.replied))
                .count();
            n as f64 / sub.as_secs_f64()
        })
        .collect();
    let rows_per_s = median(&rates);

    let runs: [&PhaseRun; 2] = [&nominal, &saturation];
    let counts = Checker::new(sys, log.as_ref()).check(&runs)?;
    let protocol_errors: u64 = runs.iter().map(|r| r.protocol_errors).sum();

    let mut p50s = Vec::new();
    let mut measured: Vec<Sample> = Vec::new();
    for w in 0..t.windows {
        let win = window(&nominal, t.warm + t.window * w as u32, t.window);
        let (p50, p99) = latency_quantiles(win);
        notes.push(format!(
            "window {w}: {} samples, p50 {:.3} ms, p99 {:.3} ms",
            win.len(),
            ms(p50),
            ms(p99)
        ));
        p50s.push(ms(p50));
        measured.extend_from_slice(win);
    }
    let tally = Tally::of(&nominal.samples);
    let lag = lag_p99(&nominal.samples);
    notes.push(format!(
        "nominal {:.0}/s: sent {} ok {} degraded {} busy {} draining {} err {} lost {}; \
         generator lag p99 {:.3} ms{}",
        plan.nominal_rate,
        tally.sent,
        tally.ok,
        tally.degraded,
        tally.busy,
        tally.draining,
        tally.err,
        tally.lost,
        ms(lag),
        if lag > LAG_WARN_P99_NS {
            "  <- generator ran late; latency includes host stalls"
        } else {
            ""
        }
    ));
    let sat = Tally::of(&saturation.samples);
    notes.push(format!(
        "saturation, {} in flight: {:.0} rows/s median of {SATURATION_WINDOWS} windows \
         ({:.0}..{:.0}); {} sent, {} degraded, {} failed",
        IN_FLIGHT * gen::CONNECTIONS,
        rows_per_s,
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
        sat.sent,
        sat.degraded,
        sat.failed()
    ));
    notes.push(format!(
        "checked {} replies bit for bit: {} mismatches, {} protocol errors",
        counts.checked, counts.mismatches, protocol_errors
    ));

    let mut values = Values::default();
    values.set("setup_s", median(setup_s));
    values.set("p50_ms", median(&p50s));
    values.set("rows_per_s", rows_per_s);
    values.set("rmse", served_rmse(&measured, &sys.targets));
    values.set("rss_mb", rss_mb);
    Ok(Outcome {
        correct: counts.mismatches == 0 && protocol_errors == 0,
        attempted: tally.sent,
        failed: tally.failed() + counts.mismatches + nominal.protocol_errors,
        values,
        notes,
        trace: None,
    })
}

/// Sums of the per-model counters of every model the server has served.
#[derive(Debug, Default, Clone, Copy)]
struct HubTotals {
    expired: u64,
    shed: u64,
    degraded: u64,
    batches: u64,
    batched_rows: u64,
}

fn hub_totals(hub: &MetricsHub) -> HubTotals {
    let mut t = HubTotals::default();
    // One `stat <name> …` line per model with counters (on the store
    // workload, one per key touched).
    for line in hub.render_all() {
        let Some(name) = line.split_whitespace().nth(1) else {
            continue;
        };
        let m = hub.for_model(name);
        let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        t.expired += get(&m.expired);
        t.shed += get(&m.shed);
        t.degraded += get(&m.degraded);
        t.batches += get(&m.batches);
        t.batched_rows += get(&m.batched_rows);
    }
    t
}

/// Once a second while a phase runs: the server's counters, the shed
/// controller, the store and the resolver health.
fn snapshot(sys: &System, server: &NetServerHandle, origin: Instant) -> Json {
    let t = hub_totals(&server.metrics());
    let mut fields: Vec<(&str, Json)> = vec![
        ("t_ms", Json::Num(origin.elapsed().as_secs_f64() * 1e3)),
        ("expired", Json::from(t.expired)),
        ("shed", Json::from(t.shed)),
        ("degraded", Json::from(t.degraded)),
        ("batches", Json::from(t.batches)),
        ("batched_rows", Json::from(t.batched_rows)),
    ];
    if let Some(shed) = server.shed() {
        fields.push(("shed_degraded", Json::from(shed.is_degraded())));
        fields.push(("demotions", Json::from(shed.demotions())));
        fields.push(("promotions", Json::from(shed.promotions())));
    }
    let h = sys.registry.resolver_health();
    fields.push(("resolver_retries", Json::from(h.retries)));
    fields.push(("breaker_trips", Json::from(h.breaker_trips)));
    fields.push(("open_breakers", Json::from(h.open_breakers)));
    if let Some(f) = &sys.fleet {
        let st = f.store.stats();
        fields.push(("store_hits", Json::from(st.hits)));
        fields.push(("store_misses", Json::from(st.misses)));
        fields.push(("store_evictions", Json::from(st.evictions)));
        fields.push(("store_hot_entries", Json::from(st.hot_entries)));
    }
    Json::obj(fields)
}

fn traced(
    sys: &System,
    plan: &Plan,
    server: NetServerHandle,
    writer: Option<Writer>,
    opts: &Opts,
) -> Result<Outcome, String> {
    let t = timing(opts.seconds, true);
    let len = t.warm + t.window;
    let salt = opts.seed ^ 0x4E4F_4D49;
    let nominal = Load::Open {
        rate: plan.nominal_rate,
    };
    // Untraced reference phase, then the same load with the snapshot
    // thread running, each on its own server.
    let plain = sys.phase(server.local_addr(), nominal, len, t.grace, salt)?;
    server.shutdown();
    let server = start_server(&sys.registry)?;
    let store_before = sys.fleet.as_ref().map(|f| f.store.stats());
    let origin = Instant::now();
    let stop = AtomicBool::new(false);
    let (traced_run, snapshots) = std::thread::scope(|scope| {
        let snapper = scope.spawn(|| {
            let mut snaps = Vec::new();
            let mut next = origin;
            while !stop.load(Ordering::SeqCst) {
                if Instant::now() >= next {
                    snaps.push(snapshot(sys, &server, origin));
                    next += Duration::from_secs(1);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            snaps.push(snapshot(sys, &server, origin));
            snaps
        });
        let run = sys.phase(server.local_addr(), nominal, len, t.grace, salt);
        stop.store(true, Ordering::SeqCst);
        let snaps = snapper.join();
        (run, snaps)
    });
    let traced_run = traced_run?;
    let snapshots = snapshots.map_err(|_| "snapshot thread panicked".to_string())?;

    let phase_s = len.as_secs_f64();
    let hub = server.metrics();
    let totals = hub_totals(&hub);
    let hottest = if sys.fleet.is_some() {
        fleet::key_name(0)
    } else {
        MODEL.to_string()
    };
    let server_p99_us = hub
        .for_model(&hottest)
        .latency
        .percentile_us(0.99)
        .unwrap_or(0);
    let demotions = server.shed().map_or(0, |s| s.demotions());
    let ping_us =
        gen::ping_rtt_p50_us(server.local_addr(), 200).map_err(|e| format!("ping: {e}"))?;
    server.shutdown();
    let health = sys.registry.resolver_health();
    let mut notes = Vec::new();
    let (knee, steps) = knee_search(sys, plan, &t, opts.seed, &mut notes)?;
    let log = stop_writer(writer)?;

    let mut runs: Vec<&PhaseRun> = vec![&plain, &traced_run];
    runs.extend(steps.iter());
    let counts = Checker::new(sys, log.as_ref()).check(&runs)?;
    let protocol_errors: u64 = runs.iter().map(|r| r.protocol_errors).sum();
    let measured = window(&traced_run, t.warm, t.window);
    let (p50_traced, p99_traced) = latency_quantiles(measured);
    let (p50_plain, _) = latency_quantiles(window(&plain, t.warm, t.window));
    let tally = Tally::of(&traced_run.samples);
    let lag = lag_p99(&traced_run.samples);
    let mean_batch = if totals.batches > 0 {
        totals.batched_rows as f64 / totals.batches as f64
    } else {
        0.0
    };

    let mut values = Values::default();
    values.set("gen.p99_ms", ms(p99_traced));
    values.set("gen.max_rps_at_slo", knee.unwrap_or(0.0));
    values.set("gen.lag_p99_ms", ms(lag));
    values.set("gen.checked_rows", counts.checked as f64);
    values.set(
        "gen.failed_share",
        tally.share(tally.failed() + traced_run.protocol_errors),
    );
    if sys.kind != Kind::BinaryTier {
        values.set("gen.degraded_share", tally.share(tally.degraded));
    }
    values.set("net.ping_rtt_p50_us", ping_us);
    values.set("serve.mean_batch", mean_batch);
    values.set("serve.batches_per_s", totals.batches as f64 / phase_s);
    values.set("serve.server_p99_us", server_p99_us as f64);
    values.set("serve.expired", totals.expired as f64);
    values.set("serve.shed", totals.shed as f64);
    values.set("serve.degraded", totals.degraded as f64);
    values.set("serve.demotions", demotions as f64);
    values.set("serve.resolver_retries", health.retries as f64);
    values.set("serve.breaker_trips", health.breaker_trips as f64);
    values.set("reghd.fit_epoch_s", sys.epoch_s);
    values.set("reghd.online_update_us", sys.update_us);
    values.set("trace.overhead_p50_ms", ms(p50_traced) - ms(p50_plain));
    if let (Some(f), Some(before), Some(log)) = (&sys.fleet, store_before, &log) {
        let after = f.store.stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        values.set(
            "store.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        values.set(
            "store.evictions_per_s",
            (after.evictions - before.evictions) as f64 / phase_s,
        );
        let mut calls = log.call_ns.clone();
        calls.sort_unstable();
        values.set(
            "store.publish_delta_p50_ms",
            ms(nearest_rank(&calls, 0.5).unwrap_or(0)),
        );
        values.set(
            "store.publish_delta_p99_ms",
            ms(nearest_rank(&calls, 0.99).unwrap_or(0)),
        );
        values.set("store.publish_failed", log.failed as f64);
    }

    // Replay the pool through each layer's public entry points in
    // batches of the observed mean batch.
    let reference = ModelBundle::from_bytes(&sys.images[0])?;
    let replay_names: Vec<String> = match &sys.fleet {
        Some(_) => traced_run
            .samples
            .iter()
            .map(|s| fleet::key_name(s.key))
            .collect(),
        None => vec![MODEL.to_string()],
    };
    let rows = trace::replay_rows(&sys.pool, opts.quick);
    let replay = trace::replay(&ReplayInput {
        bundle: &reference,
        registry: &sys.registry,
        names: &replay_names,
        rows,
        batch: mean_batch.round().max(1.0) as usize,
        binary_tier: sys.kind == Kind::BinaryTier,
        store: sys.fleet.as_ref().map(|f| f.store.as_ref()),
    })?;
    for (name, v) in replay.values.iter() {
        values.set(name, v);
    }
    notes.push(format!(
        "traced phase: {} samples, p50 {:.3} ms (untraced {:.3} ms), p99 {:.3} ms, \
         lag p99 {:.3} ms{}",
        measured.len(),
        ms(p50_traced),
        ms(p50_plain),
        ms(p99_traced),
        ms(lag),
        if lag > LAG_WARN_P99_NS {
            "  <- generator ran late; latency includes host stalls"
        } else {
            ""
        }
    ));
    notes.push(format!(
        "checked {} replies bit for bit: {} mismatches, {} protocol errors; replay: {} mismatches",
        counts.checked, counts.mismatches, protocol_errors, replay.mismatches
    ));
    notes.extend(replay.notes.iter().cloned());

    let client: Vec<Json> = traced_run
        .samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::Arr(vec![
                Json::from(i as u64 + 1),
                Json::from(s.scheduled),
                Json::from(s.sent),
                Json::from(s.replied),
                Json::from(u64::from(s.status)),
            ])
        })
        .collect();
    let doc = Json::obj([
        (
            "client_fields",
            Json::Arr(
                ["id", "scheduled_ns", "sent_ns", "replied_ns", "status"]
                    .into_iter()
                    .map(Json::from)
                    .collect(),
            ),
        ),
        ("client", Json::Arr(client)),
        ("snapshots", Json::Arr(snapshots)),
        ("overhead_p50_ms", Json::Num(ms(p50_traced) - ms(p50_plain))),
        ("replay", replay.doc),
    ]);
    Ok(Outcome {
        correct: counts.mismatches == 0 && replay.mismatches == 0 && protocol_errors == 0,
        attempted: tally.sent,
        failed: tally.failed() + counts.mismatches + traced_run.protocol_errors,
        values,
        notes,
        trace: Some(doc),
    })
}
