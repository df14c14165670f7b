//! The `fit` workload: training, the paper's other efficiency claim.
//!
//! Fits `bundle::train_with_threads` on the 80% split of the CCPP-shaped
//! dataset back to back for the run length, and checks each fit: the
//! held-out predictions must be bit-identical across fits (training is
//! deterministic for a seed), the bundle's canary must replay, and the
//! held-out RMSE must beat predicting the mean. This is the only workload
//! where the cluster/model update loop and `hdc::par` do the work, so
//! serving changes should leave it flat.

use crate::json::Json;
use crate::names::Values;
use crate::stats::median;
use crate::trace::{self, ReplayInput};
use crate::workload::{Opts, Outcome};
use datasets::Dataset;
use reghd_serve::bundle::{self, ModelBundle};
use reghd_serve::registry::ModelRegistry;
use std::time::Instant;

const MODELS: usize = 8;
const EPOCHS: usize = 10;
const THREADS: usize = 2;

/// D=2048 rather than 4096: a fit then takes about 4 s on a 2-core host,
/// so a 20 s run holds five fits and their median shrugs off a host
/// stall during one of them.
fn dim(quick: bool) -> usize {
    if quick {
        512
    } else {
        2048
    }
}

/// The dataset and the seed's 80/20 split of it. The dataset itself is
/// fixed, so a seed changes which rows train and test, not the task.
fn setup(opts: &Opts) -> (Dataset, Dataset) {
    let ds = datasets::paper::ccpp(crate::serving::POPULATION_SEED);
    let ds = if opts.quick {
        ds.select(&(0..1000).collect::<Vec<_>>())
    } else {
        ds
    };
    datasets::split::train_test_split(&ds, 0.2, opts.seed)
}

/// One timed fit with its checks.
struct Fit {
    seconds: f64,
    epochs: usize,
    bundle: ModelBundle,
    preds: Vec<f32>,
}

fn fit(train: &Dataset, test: &Dataset, opts: &Opts) -> Result<Fit, String> {
    let t = Instant::now();
    let (bundle, report) = bundle::train_with_threads(
        train,
        dim(opts.quick),
        MODELS,
        if opts.quick { 3 } else { EPOCHS },
        opts.seed,
        false,
        THREADS,
    )?;
    let seconds = t.elapsed().as_secs_f64();
    let preds = bundle.predict(&test.features)?;
    Ok(Fit {
        seconds,
        epochs: report.epochs,
        bundle,
        preds,
    })
}

fn std_dev(v: &[f32]) -> f64 {
    let n = v.len().max(1) as f64;
    let mean = v.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
    (v.iter()
        .map(|&x| (f64::from(x) - mean).powi(2))
        .sum::<f64>()
        / n)
        .sqrt()
}

/// Runs the fit workload.
///
/// # Errors
///
/// Training or prediction failures, as text.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut data = None;
    // Set-up takes milliseconds; more repetitions steady its median.
    for _ in 0..opts.setups() * 3 {
        let t = Instant::now();
        data = Some(setup(opts));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (train, test) = data.expect("at least one set-up");
    if opts.trace {
        return traced(&train, &test, opts);
    }

    let mut fits: Vec<Fit> = Vec::new();
    let mut failed = 0u64;
    let mut notes = Vec::new();
    let start = Instant::now();
    let target_std = std_dev(&test.targets);
    while fits.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let f = fit(&train, &test, opts)?;
        let rmse = f64::from(datasets::metrics::rmse(&f.preds, &test.targets));
        let same_as_first = fits.first().is_none_or(|first| {
            first
                .preds
                .iter()
                .zip(&f.preds)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        let canary = f.bundle.run_canary();
        let ok = same_as_first && canary.is_ok() && rmse.is_finite() && rmse < target_std;
        notes.push(format!(
            "fit {}: {:.3} s, {} epochs, held-out RMSE {:.4} (target std {:.4}){}",
            fits.len(),
            f.seconds,
            f.epochs,
            rmse,
            target_std,
            if ok { "" } else { "  <- check failed" }
        ));
        if !ok {
            failed += 1;
        }
        fits.push(f);
    }
    let secs: Vec<f64> = fits.iter().map(|f| f.seconds).collect();
    let rates: Vec<f64> = fits
        .iter()
        .map(|f| (train.len() * f.epochs) as f64 / f.seconds)
        .collect();
    let mut values = Values::default();
    values.set("setup_s", median(&setup_s));
    values.set("p50_ms", median(&secs) * 1e3);
    values.set("rows_per_s", median(&rates));
    values.set(
        "rmse",
        f64::from(datasets::metrics::rmse(&fits[0].preds, &test.targets)),
    );
    values.set("rss_mb", crate::envelope::peak_rss_mib());
    Ok(Outcome {
        correct: failed == 0,
        attempted: fits.len() as u64,
        failed,
        values,
        notes,
        trace: None,
    })
}

/// One traced fit, split into the encoding pass and the rest of training,
/// then the replay of the fitted model's predict path.
fn traced(train: &Dataset, test: &Dataset, opts: &Opts) -> Result<Outcome, String> {
    let f = fit(train, test, opts)?;
    let epochs = f.epochs.max(1);
    // Training encodes every row once per epoch on `THREADS` threads;
    // time that pass alone to split the fit's time between layers.
    let model = f.bundle.model();
    let scaled = trace::scale_rows(&f.bundle, &train.features);
    let t = Instant::now();
    std::hint::black_box(model.encoder().encode_batch(&scaled, THREADS));
    let encode_pass_s = t.elapsed().as_secs_f64();

    let registry = ModelRegistry::new();
    registry
        .load_bytes("m", &f.bundle.to_bytes()?)
        .map_err(|e| e.to_string())?;
    let replay = trace::replay(&ReplayInput {
        bundle: &f.bundle,
        registry: &registry,
        names: &["m".to_string()],
        rows: trace::replay_rows(&test.features, opts.quick),
        batch: 1,
        binary_tier: false,
        store: None,
    })?;
    let mut values = Values::default();
    for (name, v) in replay.values.iter() {
        values.set(name, v);
    }
    values.set("reghd.fit_epoch_s", f.seconds / epochs as f64);
    // Per training row and epoch: encoding versus everything else.
    let rows_epochs = (train.len() * epochs) as f64;
    let encoding_us = encode_pass_s * epochs as f64 / rows_epochs * 1e6;
    let reghd_us = (f.seconds * 1e6 / rows_epochs - encoding_us).max(0.0);
    let self_us = [
        ("net", 0.0),
        ("serve", 0.0),
        ("reghd", reghd_us),
        ("encoding", encoding_us),
        ("store", 0.0),
    ];
    trace::set_self_shares(&mut values, &self_us);
    let mut notes = vec![format!(
        "traced fit: {:.3} s, {} epochs; encode pass {:.3} s per epoch",
        f.seconds, f.epochs, encode_pass_s
    )];
    notes.extend(replay.notes.iter().cloned());
    notes.push(format!("fit path {}", trace::self_time_line(&self_us)));
    let doc = Json::obj([
        ("fit_s", Json::Num(f.seconds)),
        ("epochs", Json::from(f.epochs)),
        ("encode_pass_s", Json::Num(encode_pass_s)),
        (
            "fit_self_time_us_per_row_epoch",
            trace::self_time_json(&self_us),
        ),
        (
            "fit_largest_self_layer",
            Json::from(trace::largest(&self_us)),
        ),
        ("replay", replay.doc),
    ]);
    Ok(Outcome {
        correct: replay.mismatches == 0 && f.bundle.run_canary().is_ok(),
        attempted: 1,
        failed: u64::from(replay.mismatches > 0),
        values,
        notes,
        trace: Some(doc),
    })
}
