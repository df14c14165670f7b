//! `reghd-cli` — train, evaluate, run, and serve RegHD models on CSV data.
//!
//! ```text
//! reghd-cli train   --csv data.csv --out model.rghd [--dim 2048] [--models 8]
//!                   [--epochs 40] [--seed 0] [--threads N] [--quantized]
//! reghd-cli train   --source drift:abrupt:4:1000|csv:data.csv|tcp:HOST:PORT:N
//!                   [--samples N] [--checkpoint-every N] [--checkpoint-dir DIR]
//!                   [--drift ph|ewma|off] [--drift-action reset|shadow]
//!                   [--publish-to NAME] [--serve-addr HOST:PORT]
//!                   [--resume state.rghd] [--dim N] [--models K] [--seed N]
//!                   [--threads N]
//! reghd-cli eval    --csv data.csv --model model.rghd [--trig exact|fast]
//! reghd-cli predict --csv data.csv --model model.rghd [--trig exact|fast]
//! reghd-cli serve   --model model.rghd --addr 127.0.0.1:7878
//!                   [--name NAME] [--workers N] [--threads N]
//!                   [--trig exact|fast] [--max-batch N] [--max-wait-us N]
//!                   [--queue-cap N] [--max-conns N] [--deadline-us N]
//!                   [--shed-p95-us N] [--pollers N] [--max-frame N]
//!                   [--write-budget N] [--canary] [--chaos]
//!                   [--sweep-interval-ms N]
//! reghd-cli loadgen --addr HOST:PORT --model NAME [--row f32,f32,...]
//!                   [--conns N] [--rate RPS] [--secs N] [--json PATH]
//! reghd-cli ctl     --addr HOST:PORT --cmd "<stats|list|train-status|ping|
//!                   predict MODEL f32,…|reload MODEL PATH|sweep|inject FAULT …>"
//! ```
//!
//! CSV format: numeric columns, optional header, **last column is the
//! target** (ignored by `predict` if present). The tool standardises
//! features and targets on the training data and stores the scalers inside
//! the model bundle, so evaluation and prediction accept raw units.
//!
//! `train --source` switches to the **streaming** pipeline (`reghd-train`):
//! single-pass predict-then-train over a pluggable sample source with drift
//! detection, periodic canary-carrying checkpoints, and optional hot-swap
//! publication into an in-process serving registry (`--publish-to` +
//! `--serve-addr`). Sources: `drift:<abrupt|gradual|incremental>:<features>:
//! <period>` (synthetic non-stationary stream), `csv:<path>` (replay), and
//! `tcp:<host>:<port>:<features>` (a TCP feed of CSV rows, one per line,
//! target last).
//!
//! `--threads N` sets row-parallelism for batch encoding/prediction
//! (`0`, the default, uses all available cores; `1` is sequential).
//! Chunked rows keep outputs **bit-identical** at every setting.
//!
//! `--trig fast` (eval/predict/serve) swaps the encoder's `sin`/`cos` for
//! the polynomial approximation the binary tier also runs
//! (`hdc::kernels::fast_sin`/`fast_cos`, error bound
//! `hdc::kernels::FAST_TRIG_MAX_ABS_ERROR`, 1.5e-6 per component) in
//! exchange for encoding throughput. The default `exact` reproduces the
//! training-time arithmetic bit for bit; canary replays always force exact
//! mode, so bundle integrity checks are unaffected by this knob.
//!
//! `serve` speaks the **RGNP** binary protocol (`docs/PROTOCOL.md`): an
//! epoll poller pool multiplexing pipelined length-prefixed frames
//! (`reghd-net`, Linux x86_64/aarch64). `loadgen` drives a running server
//! open-loop at a fixed offered rate and reports latency quantiles.
//! `serve --canary` replays the bundle's embedded canary rows before
//! binding the socket; `serve --chaos` enables the `inject` admin verb so
//! a running server can be fault-tested. `ctl` is the operator client: it
//! sends one command line and prints the reply (`ok …`, `degraded …`,
//! `busy`, `draining` or `err …`; multi-line bodies end with `ok`).

use reghd_serve::bundle::{self, ModelBundle};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  reghd-cli train   --csv <data.csv> --out <model.rghd> \
         [--dim N] [--models K] [--epochs N] [--seed N] [--threads N] [--quantized]\n  \
         reghd-cli train   --source <drift:KIND:FEATURES:PERIOD|csv:PATH|tcp:HOST:PORT:FEATURES> \
         [--samples N] [--checkpoint-every N] [--checkpoint-dir DIR] [--drift ph|ewma|off] \
         [--drift-action reset|shadow] [--publish-to NAME] [--serve-addr HOST:PORT] \
         [--resume state.rghd] [--dim N] [--models K] [--seed N] [--threads N]\n  \
         reghd-cli eval    --csv <data.csv> --model <model.rghd> [--trig exact|fast] \
         [--tier full|binary] [--simd auto|avx2|neon|scalar]\n  \
         reghd-cli predict --csv <data.csv> --model <model.rghd> [--trig exact|fast] \
         [--tier full|binary] [--simd auto|avx2|neon|scalar]\n  \
         reghd-cli serve   [--model <model.rghd>] [--store DIR] [--name NAME] [--addr HOST:PORT] \
         [--workers N] [--threads N] [--trig exact|fast] \
         [--simd auto|avx2|neon|scalar] [--max-batch N] \
         [--max-wait-us N] [--queue-cap N] [--max-conns N] [--deadline-us N] [--shed-p95-us N] \
         [--pollers N] [--max-frame N] [--write-budget N] \
         [--canary] [--chaos] [--sweep-interval-ms N]\n  \
         reghd-cli loadgen --addr <HOST:PORT> --model NAME [--row f32,f32,...] \
         [--conns N] [--rate RPS] [--secs N] [--tier full|binary] [--json PATH]\n  \
         reghd-cli store   <init|ingest|stats|compact|predict> --dir DIR \
         [--shards N] [--hot-budget-mb N] [--model model.rghd] [--key KEY] [--copies N] \
         [--csv data.csv]\n  \
         reghd-cli ctl     --addr <HOST:PORT> --cmd \"<stats|list|train-status|ping|\
         predict MODEL ROW|reload MODEL PATH|sweep|inject FAULT ...>\""
    );
    std::process::exit(2);
}

/// Minimal flag parser: `--key value` pairs plus boolean `--flags`.
#[derive(Debug)]
struct Args {
    flags: Vec<(String, Option<String>)>,
}

/// A token following `--key` counts as its value unless it is itself a
/// flag. Numeric lookalikes (`-3`, `-0.5`, even a pathological `--5`) are
/// values, so `--threshold -0.5` parses the way the user meant it. Only
/// *finite* numbers qualify: `--inf`, `--nan`, and `--infinity` happen to
/// parse as `f64`, but nobody passes infinity on a command line — they are
/// flag names.
fn is_flag_token(tok: &str) -> bool {
    match tok.strip_prefix("--") {
        Some(rest) => !rest.parse::<f64>().is_ok_and(|v| v.is_finite()),
        None => false,
    }
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if !is_flag_token(a) {
                return Err(format!("unexpected argument: {a}"));
            }
            let key = a.trim_start_matches("--");
            if flags.iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate flag --{key}"));
            }
            let value = args.get(i + 1).filter(|v| !is_flag_token(v)).cloned();
            if value.is_some() {
                i += 1;
            }
            flags.push((key.to_string(), value));
            i += 1;
        }
        Ok(Self { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    fn require(&self, key: &str) -> &str {
        self.get(key).unwrap_or_else(|| {
            eprintln!("missing required flag --{key}");
            usage();
        })
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: {v}");
                usage();
            }),
        }
    }
}

/// Maps the `--trig` flag to a [`hdc::TrigMode`] (`exact` when absent).
fn parse_trig(args: &Args) -> Result<hdc::TrigMode, String> {
    match args.get("trig") {
        None => Ok(hdc::TrigMode::Exact),
        Some("exact") => Ok(hdc::TrigMode::Exact),
        Some("fast") => Ok(hdc::TrigMode::Fast),
        Some(other) => Err(format!("unknown trig mode {other:?} (expected exact|fast)")),
    }
}

/// Applies the `--simd` flag (`auto|avx2|neon|scalar`) as the process-wide
/// dispatch level. Absent flag keeps the default (the `REGHD_SIMD`
/// environment variable, else auto-detect).
fn apply_simd(args: &Args) -> Result<(), String> {
    if let Some(pref) = args.get("simd") {
        hdc::simd::set_preference(pref)?;
    }
    Ok(())
}

/// Which prediction tier `eval`/`predict` should run: the full-precision
/// Eq. 6 path or the §3.2 bit-packed popcount tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CliTier {
    Full,
    Binary,
}

/// Maps the `--tier` flag to a [`CliTier`] (`full` when absent).
fn parse_tier(args: &Args) -> Result<CliTier, String> {
    match args.get("tier") {
        None | Some("full") => Ok(CliTier::Full),
        Some("binary") => Ok(CliTier::Binary),
        Some(other) => Err(format!("unknown tier {other:?} (expected full|binary)")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    // `store` takes an action word before its flags; everything else goes
    // straight to flag parsing.
    let flag_start = if cmd == "store" { 2.min(argv.len()) } else { 1 };
    let args = match Args::parse(&argv[flag_start..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    let result = match cmd.as_str() {
        "train" => cmd_train(&args),
        "eval" => cmd_eval(&args),
        "predict" => cmd_predict(&args),
        "serve" => cmd_serve(&args),
        "loadgen" => cmd_loadgen(&args),
        "store" => cmd_store(argv.get(1).map(String::as_str).unwrap_or(""), &args),
        "ctl" => cmd_ctl(&args),
        _ => {
            eprintln!("unknown command: {cmd}");
            usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_train(args: &Args) -> Result<(), String> {
    if args.has("source") {
        return cmd_train_stream(args);
    }
    let csv = args.require("csv");
    let out = args.require("out");
    let dim: usize = args.parse_num("dim", 2048);
    let models: usize = args.parse_num("models", 8);
    let epochs: usize = args.parse_num("epochs", 40);
    let seed: u64 = args.parse_num("seed", 0);
    let threads: usize = args.parse_num("threads", 0);
    let quantized = args.has("quantized");

    let ds = datasets::csv::load_csv(csv).map_err(|e| e.to_string())?;
    println!(
        "loaded {}: {} samples × {} features",
        ds.name,
        ds.len(),
        ds.num_features()
    );
    let (bundle, report) =
        bundle::train_with_threads(&ds, dim, models, epochs, seed, quantized, threads)?;
    println!(
        "trained: {} epochs, converged: {}, final train MSE (scaled): {:.6}",
        report.epochs,
        report.converged,
        report.final_mse().unwrap_or(f32::NAN)
    );
    bundle.save(out)?;
    println!("model written to {out}");
    Ok(())
}

/// A parsed `--source` specification (separate from the opened source so
/// the string → spec mapping is testable without touching disk or network).
#[derive(Debug, PartialEq, Eq)]
enum SourceSpec {
    Drift {
        kind: datasets::drift::DriftKind,
        features: usize,
        period: usize,
    },
    Csv(String),
    Tcp {
        addr: String,
        features: usize,
    },
}

fn parse_source_spec(spec: &str) -> Result<SourceSpec, String> {
    use datasets::drift::DriftKind;
    if let Some(rest) = spec.strip_prefix("drift:") {
        let parts: Vec<&str> = rest.split(':').collect();
        let [kind, features, period] = parts.as_slice() else {
            return Err(format!(
                "bad drift source {spec:?} (expected drift:<abrupt|gradual|incremental>:<features>:<period>)"
            ));
        };
        let kind = match *kind {
            "abrupt" => DriftKind::Abrupt,
            "gradual" => DriftKind::Gradual,
            "incremental" => DriftKind::Incremental,
            other => return Err(format!("unknown drift kind {other:?}")),
        };
        let features: usize = features
            .parse()
            .map_err(|_| format!("bad feature count in {spec:?}"))?;
        let period: usize = period
            .parse()
            .map_err(|_| format!("bad period in {spec:?}"))?;
        if features == 0 || period == 0 {
            return Err("drift features and period must be nonzero".to_string());
        }
        Ok(SourceSpec::Drift {
            kind,
            features,
            period,
        })
    } else if let Some(path) = spec.strip_prefix("csv:") {
        Ok(SourceSpec::Csv(path.to_string()))
    } else if let Some(rest) = spec.strip_prefix("tcp:") {
        // The address itself contains a colon, so the feature count is the
        // segment after the LAST colon: tcp:<host>:<port>:<features>.
        let Some((addr, features)) = rest.rsplit_once(':') else {
            return Err(format!(
                "bad tcp source {spec:?} (expected tcp:<host>:<port>:<features>)"
            ));
        };
        let features: usize = features
            .parse()
            .map_err(|_| format!("bad feature count in {spec:?}"))?;
        if features == 0 || !addr.contains(':') {
            return Err(format!(
                "bad tcp source {spec:?} (expected tcp:<host>:<port>:<features>)"
            ));
        }
        Ok(SourceSpec::Tcp {
            addr: addr.to_string(),
            features,
        })
    } else {
        Err(format!(
            "unknown source {spec:?} (expected drift:…, csv:…, or tcp:…)"
        ))
    }
}

fn open_source(spec: &SourceSpec, seed: u64) -> Result<Box<dyn reghd_train::SampleSource>, String> {
    use datasets::drift::DriftStream;
    use reghd_train::{CsvReplaySource, DriftSource, TcpFeedSource};
    match spec {
        SourceSpec::Drift {
            kind,
            features,
            period,
        } => {
            let stream = DriftStream::new(*features, *period, *kind, seed);
            Ok(Box::new(DriftSource::new(
                stream,
                *features,
                format!("drift:{kind:?}:{features}:{period}"),
            )))
        }
        SourceSpec::Csv(path) => Ok(Box::new(CsvReplaySource::from_path(path)?)),
        SourceSpec::Tcp { addr, features } => {
            Ok(Box::new(TcpFeedSource::connect(addr, *features)?))
        }
    }
}

fn cmd_train_stream(args: &Args) -> Result<(), String> {
    use reghd_net::{serve_rgnp, NetConfig};
    use reghd_serve::registry::ModelRegistry;
    use reghd_train::{
        DriftAction, EwmaDetector, PageHinkley, PublishTarget, Trainer, TrainerConfig,
    };
    use std::sync::Arc;

    let spec = parse_source_spec(args.require("source"))?;
    let dim: usize = args.parse_num("dim", 2048);
    let models: usize = args.parse_num("models", 4);
    let seed: u64 = args.parse_num("seed", 0);
    let samples: u64 = args.parse_num("samples", 10_000);
    let checkpoint_every: u64 = args.parse_num("checkpoint-every", 0);
    let threads: usize = args.parse_num("threads", 0);

    let mut source = open_source(&spec, seed)?;
    let cfg = TrainerConfig {
        dim,
        models,
        seed,
        max_samples: Some(samples),
        checkpoint_every: (checkpoint_every > 0).then_some(checkpoint_every),
        checkpoint_dir: args.get("checkpoint-dir").map(Into::into),
        drift_action: match args.get("drift-action").unwrap_or("reset") {
            "reset" => DriftAction::ResetWorstCluster,
            "shadow" => DriftAction::ShadowPromote,
            other => return Err(format!("unknown drift action {other:?} (reset|shadow)")),
        },
        ..TrainerConfig::default()
    };
    let mut trainer = match args.get("resume") {
        Some(path) => {
            let t = Trainer::resume(cfg, source.num_features(), path)?;
            println!("resumed from {path} at sample {}", t.model().samples_seen());
            t
        }
        None => Trainer::new(cfg, source.num_features()),
    };
    match args.get("drift").unwrap_or("ph") {
        "ph" => trainer = trainer.with_detector(Box::new(PageHinkley::default())),
        "ewma" => trainer = trainer.with_detector(Box::new(EwmaDetector::default())),
        "off" => {}
        other => return Err(format!("unknown drift detector {other:?} (ph|ewma|off)")),
    }

    let registry = Arc::new(ModelRegistry::new());
    // Published checkpoints (and any model served from --serve-addr)
    // predict on `--threads`.
    registry.set_default_threads(threads);
    if let Some(name) = args.get("publish-to") {
        trainer = trainer.with_publish(PublishTarget {
            registry: registry.clone(),
            name: name.to_string(),
        });
    }
    let server = match args.get("serve-addr") {
        Some(addr) => {
            let handle = serve_rgnp(
                NetConfig {
                    addr: addr.to_string(),
                    threads,
                    train_status: Some(trainer.status()),
                    ..NetConfig::default()
                },
                registry.clone(),
            )
            .map_err(|e| e.to_string())?;
            println!("serving on {} while training", handle.local_addr());
            Some(handle)
        }
        None => None,
    };

    println!(
        "streaming from {} ({} features)",
        source.label(),
        source.num_features()
    );
    let report = trainer.run(source.as_mut())?;
    println!(
        "trained {} samples: preq MSE {:.6}, drift events {}, checkpoints {}, \
         publications {} ({} canary failures), cluster resets {}, promotions {}",
        report.samples,
        report.final_prequential_mse,
        report.drift_events,
        report.checkpoints,
        report.publications,
        report.canary_failures,
        report.cluster_resets,
        report.promotions,
    );
    for meta in registry.list() {
        println!(
            "published model {} v{} (dim={}, k={}, hash={})",
            meta.name, meta.version, meta.dim, meta.models, meta.hash
        );
    }
    if let Some(h) = server {
        h.shutdown();
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let csv = args.require("csv");
    let model_path = args.require("model");
    let trig = parse_trig(args)?;
    let tier = parse_tier(args)?;
    apply_simd(args)?;
    let ds = datasets::csv::load_csv(csv).map_err(|e| e.to_string())?;
    let bundle = ModelBundle::load(model_path)?;
    bundle.set_trig_mode(trig);
    let preds = match tier {
        CliTier::Full => bundle.predict(&ds.features)?,
        CliTier::Binary => bundle.predict_binary(&ds.features)?,
    };
    let mse = datasets::metrics::mse(&preds, &ds.targets);
    let rmse = datasets::metrics::rmse(&preds, &ds.targets);
    let r2 = datasets::metrics::r2(&preds, &ds.targets);
    println!("samples: {}", ds.len());
    println!("MSE:  {mse:.6}");
    println!("RMSE: {rmse:.6}");
    println!("R²:   {r2:.4}");
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    let csv = args.require("csv");
    let model_path = args.require("model");
    let trig = parse_trig(args)?;
    let tier = parse_tier(args)?;
    apply_simd(args)?;
    let ds = datasets::csv::load_csv(csv).map_err(|e| e.to_string())?;
    let bundle = ModelBundle::load(model_path)?;
    bundle.set_trig_mode(trig);
    let preds = match tier {
        CliTier::Full => bundle.predict(&ds.features)?,
        CliTier::Binary => bundle.predict_binary(&ds.features)?,
    };
    print_predictions(&preds);
    Ok(())
}

/// Prints one prediction per line, stopping quietly if stdout goes away
/// (`predict … | head` must not panic on the broken pipe).
fn print_predictions(preds: &[f32]) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for p in preds {
        if writeln!(out, "{p}").is_err() {
            return;
        }
    }
}

/// Opens a [`reghd_store::ModelStore`] at `dir` with the CLI's sizing
/// flags.
fn open_store_at(
    dir: &str,
    args: &Args,
) -> Result<std::sync::Arc<reghd_store::ModelStore>, String> {
    use reghd_store::{ModelStore, StoreConfig};
    let cfg = StoreConfig {
        shards: args.parse_num("shards", StoreConfig::default().shards),
        hot_budget_bytes: args.parse_num::<usize>("hot-budget-mb", 64) << 20,
    };
    ModelStore::open(std::path::Path::new(dir), cfg)
        .map(std::sync::Arc::new)
        .map_err(|e| format!("cannot open store at {dir}: {e}"))
}

fn cmd_store(action: &str, args: &Args) -> Result<(), String> {
    use reghd_serve::registry::ModelResolver;
    match action {
        "init" => {
            let store = open_store_at(args.require("dir"), args)?;
            println!("store initialised: {}", store.stats_line());
            Ok(())
        }
        "ingest" => {
            let store = open_store_at(args.require("dir"), args)?;
            let path = args.require("model");
            let key = args.require("key");
            let copies: usize = args.parse_num("copies", 1);
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            if copies <= 1 {
                let meta = store.publish_full(key, &bytes).map_err(|e| e.to_string())?;
                println!(
                    "published {} v{} ({} bytes, hash={})",
                    meta.name, meta.version, meta.bytes, meta.hash
                );
            } else {
                // Fleet ingest: the same artefact under key0..keyN-1, each
                // a durable publish in its own right.
                for i in 0..copies {
                    store
                        .publish_full(&format!("{key}{i}"), &bytes)
                        .map_err(|e| e.to_string())?;
                }
                println!("published {copies} keys {key}0..{key}{}", copies - 1);
            }
            println!("store: {}", store.stats_line());
            Ok(())
        }
        "stats" => {
            let store = open_store_at(args.require("dir"), args)?;
            println!("{}", store.stats_line());
            Ok(())
        }
        "compact" => {
            let store = open_store_at(args.require("dir"), args)?;
            let before = store.stats().pack_bytes;
            store.compact().map_err(|e| e.to_string())?;
            let after = store.stats().pack_bytes;
            println!("compacted: {before} -> {after} pack bytes");
            Ok(())
        }
        "predict" => {
            // Store-backed resolution without a server: resolve the key,
            // predict the CSV rows, print one prediction per line.
            let store = open_store_at(args.require("dir"), args)?;
            let key = args.require("key");
            let csv = args.require("csv");
            let ds = datasets::csv::load_csv(csv).map_err(|e| e.to_string())?;
            let served = store.get(key).map_err(|e| e.to_string())?;
            print_predictions(&served.bundle.predict(&ds.features)?);
            Ok(())
        }
        other => Err(format!(
            "unknown store action {other:?} (expected init|ingest|stats|compact|predict)"
        )),
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use reghd_net::{serve_rgnp, NetConfig};
    use reghd_serve::batcher::BatcherConfig;
    use reghd_serve::registry::ModelRegistry;
    use reghd_serve::shed::ShedConfig;
    use std::sync::Arc;
    use std::time::Duration;

    let model_path = match args.get("model") {
        Some(p) => Some(p),
        None if args.has("store") => None,
        None => {
            eprintln!("serve needs --model, --store, or both");
            usage();
        }
    };
    let default_name = model_path
        .map(|p| {
            std::path::Path::new(p)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("default")
                .to_string()
        })
        .unwrap_or_else(|| "default".to_string());
    let name = args.get("name").unwrap_or(&default_name).to_string();
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let workers: usize = args.parse_num("workers", 4);
    let threads: usize = args.parse_num("threads", 0);
    let trig = parse_trig(args)?;
    apply_simd(args)?;
    let max_batch: usize = args.parse_num("max-batch", 32);
    let max_wait_us: u64 = args.parse_num("max-wait-us", 500);
    let queue_cap: usize = args.parse_num("queue-cap", BatcherConfig::default().queue_cap);
    // Overload knobs: 0 means "off" for the connection cap and the
    // deadline; --shed-p95-us 0 disables the adaptive shed controller
    // (default: the library's 50ms demote threshold).
    let max_conns: usize = args.parse_num("max-conns", 0);
    let deadline_us: u64 = args.parse_num("deadline-us", 0);
    let shed_p95_us: u64 = args.parse_num(
        "shed-p95-us",
        ShedConfig::default().demote_p95.as_micros() as u64,
    );
    let sweep_interval_ms: u64 = args.parse_num("sweep-interval-ms", 0);
    let chaos = args.has("chaos");

    if args.has("canary") {
        // Verbose pre-flight: replay the bundle's embedded reference rows
        // before touching the network. (The registry canaries every load
        // and reload anyway; this surfaces the verdict up front.)
        if let Some(path) = model_path {
            let b = ModelBundle::load(path)?;
            match b.canary_len() {
                0 => println!("canary: bundle carries no reference rows (pre-v2 bundle?)"),
                n => {
                    b.run_canary()?;
                    println!("canary: {n} reference rows replayed bit-exact");
                }
            }
        }
    }

    let registry = Arc::new(ModelRegistry::new());
    if let Some(path) = model_path {
        let meta = registry.load(&name, path).map_err(|e| e.to_string())?;
        println!(
            "loaded model {} v{} (dim={}, k={}, {} features, hash={})",
            meta.name, meta.version, meta.dim, meta.models, meta.input_dim, meta.hash
        );
    }
    if args.has("store") {
        // Registry lookups fall through to the store for any key the
        // in-process map does not hold.
        use reghd_serve::registry::ModelResolver;
        let store = open_store_at(args.require("store"), args)?;
        println!("store attached: {}", store.stats_line());
        registry.attach_resolver(store);
    }
    let batcher = BatcherConfig {
        max_batch,
        max_wait: Duration::from_micros(max_wait_us),
        queue_cap,
    };
    let shed = (shed_p95_us > 0).then(|| ShedConfig {
        demote_p95: Duration::from_micros(shed_p95_us),
        // Promote at half the demote threshold — the same 2:1
        // hysteresis band as the library default.
        promote_p95: Duration::from_micros(shed_p95_us / 2),
        ..ShedConfig::default()
    });
    let deadline = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
    let threads_label = if threads == 0 {
        "auto".to_string()
    } else {
        threads.to_string()
    };
    let cfg = NetConfig {
        addr,
        pollers: args.parse_num("pollers", 0),
        workers,
        threads,
        trig,
        batcher,
        max_connections: max_conns,
        deadline,
        shed,
        max_frame: args.parse_num("max-frame", NetConfig::default().max_frame),
        write_budget: args.parse_num("write-budget", NetConfig::default().write_budget),
        sweep_interval: (sweep_interval_ms > 0).then(|| Duration::from_millis(sweep_interval_ms)),
        enable_inject: chaos,
        ..NetConfig::default()
    };
    let handle = serve_rgnp(cfg, registry).map_err(|e| e.to_string())?;
    println!(
        "serving RGNP on {} with {workers} workers (threads={threads_label}, \
         max_batch={max_batch}, max_wait={max_wait_us}µs)",
        handle.local_addr(),
    );
    if chaos {
        println!("chaos mode: the `inject` admin verb is ENABLED");
    }
    if sweep_interval_ms > 0 {
        println!("integrity sweep every {sweep_interval_ms}ms");
    }
    println!(
        "protocol: RGNP v1 binary frames (see docs/PROTOCOL.md); drive with \
         `reghd-cli ctl` or `reghd-cli loadgen`"
    );
    // Serve until the process is killed; Ctrl-C terminates the listener.
    loop {
        std::thread::sleep(Duration::from_secs(60));
    }
}

/// Parses a comma-separated f32 row, e.g. `--row 0.5,1.5`.
fn parse_row(spec: &str) -> Result<Vec<f32>, String> {
    spec.split(',')
        .map(|t| {
            t.trim()
                .parse::<f32>()
                .map_err(|_| format!("bad feature value {t:?} in --row"))
        })
        .collect()
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
    use reghd_net::frame::PredictionTier;
    use reghd_net::loadgen::{self, LoadConfig};
    use std::time::Duration;

    let tier = match parse_tier(args)? {
        CliTier::Full => PredictionTier::Full,
        CliTier::Binary => PredictionTier::Binary,
    };
    let cfg = LoadConfig {
        addr: args.require("addr").to_string(),
        model: args.require("model").to_string(),
        row: parse_row(args.get("row").unwrap_or("0.5,0.5"))?,
        connections: args.parse_num("conns", 100),
        rate: args.parse_num("rate", 1000.0),
        duration: Duration::from_secs(args.parse_num("secs", 5)),
        grace: Duration::from_secs(args.parse_num("grace-secs", 2)),
        threads: args.parse_num("threads", 0),
        tier,
    };
    println!(
        "offering {} rows/s over {} connections to {} for {:?}",
        cfg.rate, cfg.connections, cfg.addr, cfg.duration
    );
    let report = loadgen::run(&cfg).map_err(|e| e.to_string())?;
    println!(
        "sent {} → ok {} degraded {} busy {} draining {} err {} lost {} proto_err {}",
        report.sent,
        report.ok,
        report.degraded,
        report.busy,
        report.draining,
        report.errors,
        report.lost,
        report.protocol_errors,
    );
    println!(
        "availability {:.4}  achieved {:.0} rows/s  p50 {}µs  p95 {}µs  p99 {}µs  max {}µs",
        report.availability(),
        report.achieved_rps,
        report.p50_us,
        report.p95_us,
        report.p99_us,
        report.max_us,
    );
    if let Some(path) = args.get("json") {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let simd = hdc::simd::active_label();
        let json = format!(
            "{{\n  \"cores\": {cores},\n  \"simd\": \"{simd}\",\n  \
             \"requested_tier\": \"{}\",\n  \"connections\": {},\n  \"offered_rps\": {:.1},\n  \
             \"duration_secs\": {:.1},\n  \"sent\": {},\n  \"ok\": {},\n  \"degraded\": {},\n  \
             \"tier_full\": {},\n  \"tier_binary\": {},\n  \
             \"busy\": {},\n  \"draining\": {},\n  \"errors\": {},\n  \
             \"protocol_errors\": {},\n  \"lost\": {},\n  \"conn_failures\": {},\n  \
             \"availability\": {:.4},\n  \"achieved_rps\": {:.1},\n  \"p50_us\": {},\n  \
             \"p95_us\": {},\n  \"p99_us\": {},\n  \"max_us\": {}\n}}\n",
            cfg.tier.label(),
            report.connections,
            cfg.rate,
            cfg.duration.as_secs_f64(),
            report.sent,
            report.ok,
            report.degraded,
            report.tier_full(),
            report.tier_binary(),
            report.busy,
            report.draining,
            report.errors,
            report.protocol_errors,
            report.lost,
            report.conn_failures,
            report.availability(),
            report.achieved_rps,
            report.p50_us,
            report.p95_us,
            report.p99_us,
            report.max_us,
        );
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("report written to {path}");
    }
    Ok(())
}

/// Renders a text reply the way `ctl` prints it: `ok <text>` for one
/// line, the body followed by `ok` for several, `err <msg>` on refusal.
/// Returns the rendering and whether the server accepted the command.
fn render_text_reply(reply: Result<String, String>) -> (String, bool) {
    match reply {
        Ok(text) if text.is_empty() => ("ok".to_string(), true),
        Ok(text) if text.contains('\n') => (format!("{text}\nok"), true),
        Ok(text) => (format!("ok {text}"), true),
        Err(msg) => (format!("err {msg}"), false),
    }
}

/// Sends one `ctl` command line: `stats`, `list`, `train-status`, `ping`
/// and `predict <model> <f32,…>` through their own opcodes, everything
/// else as an admin verb.
fn run_ctl(client: &mut reghd_net::RgnpClient, cmd: &str) -> std::io::Result<(String, bool)> {
    use reghd_net::client::PredictReply;
    let mut words = cmd.split_whitespace();
    Ok(match words.next() {
        Some("stats") => render_text_reply(Ok(client.stats()?)),
        Some("list") => render_text_reply(Ok(client.list()?)),
        Some("train-status") => render_text_reply(client.train_status()?),
        Some("ping") => {
            client.ping()?;
            ("ok".to_string(), true)
        }
        Some("predict") => {
            let (Some(model), Some(csv)) = (words.next(), words.next()) else {
                return Ok((
                    "err usage: predict <model> <f32,f32,...>".to_string(),
                    false,
                ));
            };
            let row = match parse_row(csv) {
                Ok(row) => row,
                Err(msg) => return Ok((format!("err {msg}"), false)),
            };
            match client.predict(model, &row)? {
                PredictReply::Ok(y) => (format!("ok {y}"), true),
                PredictReply::Degraded(y) => (format!("degraded {y}"), true),
                PredictReply::Busy => ("busy".to_string(), false),
                PredictReply::Draining => ("draining".to_string(), false),
                PredictReply::Err(msg) => (format!("err {msg}"), false),
            }
        }
        _ => render_text_reply(client.admin(cmd)?),
    })
}

fn cmd_ctl(args: &Args) -> Result<(), String> {
    let addr = args.require("addr");
    let cmd = args.require("cmd");
    let mut client =
        reghd_net::RgnpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let (reply, accepted) = run_ctl(&mut client, cmd).map_err(|e| e.to_string())?;
    println!("{reply}");
    if accepted {
        Ok(())
    } else {
        Err("command refused".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn parse(args: &[&str]) -> Args {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn parse_err(args: &[&str]) -> String {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = parse(&["--csv", "data.csv", "--dim", "1024"]);
        assert_eq!(a.get("csv"), Some("data.csv"));
        assert_eq!(a.get("dim"), Some("1024"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn parses_boolean_flags() {
        let a = parse(&["--quantized", "--csv", "x.csv"]);
        assert!(a.has("quantized"));
        assert!(!a.has("csv-missing"));
        assert_eq!(a.get("csv"), Some("x.csv"));
    }

    #[test]
    fn flag_followed_by_flag_is_boolean() {
        let a = parse(&["--quantized", "--models", "4"]);
        assert!(a.has("quantized"));
        assert_eq!(a.get("quantized"), None);
        assert_eq!(a.get("models"), Some("4"));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let a = parse(&["--threshold", "-0.5", "--offset", "-3"]);
        assert_eq!(a.get("threshold"), Some("-0.5"));
        assert_eq!(a.get("offset"), Some("-3"));
    }

    #[test]
    fn double_dash_numeric_token_is_a_value() {
        // Pathological but unambiguous: "--5" is a number, not a flag name.
        let a = parse(&["--seed", "--5"]);
        assert_eq!(a.get("seed"), Some("--5"));
    }

    #[test]
    fn non_finite_numeric_lookalikes_are_flags() {
        // "inf", "nan", and "infinity" all parse as f64, but a flag named
        // --inf must not be swallowed as the previous flag's value.
        for tok in ["--inf", "--nan", "--infinity", "--NaN", "--Inf"] {
            assert!(super::is_flag_token(tok), "{tok} must be a flag");
        }
        let a = parse(&["--quantized", "--inf", "--nan"]);
        assert!(a.has("quantized"));
        assert_eq!(a.get("quantized"), None);
        assert!(a.has("inf"));
        assert!(a.has("nan"));
        // Finite values still bind: scientific notation included.
        let a = parse(&["--threshold", "-1e-3"]);
        assert_eq!(a.get("threshold"), Some("-1e-3"));
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        let err = parse_err(&["--dim", "512", "--dim", "1024"]);
        assert!(err.contains("duplicate flag --dim"), "{err}");
    }

    #[test]
    fn positional_arguments_are_rejected() {
        let err = parse_err(&["stray"]);
        assert!(err.contains("unexpected argument"), "{err}");
    }

    #[test]
    fn parse_num_defaults_and_overrides() {
        let a = parse(&["--dim", "512"]);
        assert_eq!(a.parse_num::<usize>("dim", 2048), 512);
        assert_eq!(a.parse_num::<usize>("models", 8), 8);
    }

    #[test]
    fn text_replies_render_in_line_grammar() {
        use super::render_text_reply;
        assert_eq!(
            render_text_reply(Ok(String::new())),
            ("ok".to_string(), true)
        );
        assert_eq!(
            render_text_reply(Ok("swept checked=1 corrupted=0 rolled_back=0".to_string())),
            (
                "ok swept checked=1 corrupted=0 rolled_back=0".to_string(),
                true
            )
        );
        assert_eq!(
            render_text_reply(Ok("model a v1\nmodel b v1".to_string())),
            ("model a v1\nmodel b v1\nok".to_string(), true)
        );
        assert_eq!(
            render_text_reply(Err("inject disabled".to_string())),
            ("err inject disabled".to_string(), false)
        );
    }

    #[test]
    fn source_specs_parse_per_scheme() {
        use super::{parse_source_spec, SourceSpec};
        use datasets::drift::DriftKind;
        assert_eq!(
            parse_source_spec("drift:abrupt:4:1000"),
            Ok(SourceSpec::Drift {
                kind: DriftKind::Abrupt,
                features: 4,
                period: 1000
            })
        );
        assert_eq!(
            parse_source_spec("drift:gradual:2:50"),
            Ok(SourceSpec::Drift {
                kind: DriftKind::Gradual,
                features: 2,
                period: 50
            })
        );
        assert_eq!(
            parse_source_spec("csv:data/train.csv"),
            Ok(SourceSpec::Csv("data/train.csv".to_string()))
        );
        assert_eq!(
            parse_source_spec("tcp:127.0.0.1:9000:3"),
            Ok(SourceSpec::Tcp {
                addr: "127.0.0.1:9000".to_string(),
                features: 3
            })
        );
    }

    #[test]
    fn bad_source_specs_are_rejected() {
        use super::parse_source_spec;
        for bad in [
            "drift:meteoric:4:1000", // unknown kind
            "drift:abrupt:4",        // missing period
            "drift:abrupt:0:100",    // zero features
            "tcp:9000:3",            // no host:port
            "tcp:127.0.0.1:9000",    // feature count not numeric? (port eaten)
            "stdin",                 // unknown scheme
        ] {
            assert!(parse_source_spec(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn trig_flag_parses_and_rejects_unknown_modes() {
        use hdc::TrigMode;
        assert_eq!(super::parse_trig(&parse(&[])), Ok(TrigMode::Exact));
        assert_eq!(
            super::parse_trig(&parse(&["--trig", "exact"])),
            Ok(TrigMode::Exact)
        );
        assert_eq!(
            super::parse_trig(&parse(&["--trig", "fast"])),
            Ok(TrigMode::Fast)
        );
        let err = super::parse_trig(&parse(&["--trig", "approximate"])).unwrap_err();
        assert!(err.contains("unknown trig mode"), "{err}");
    }
}
