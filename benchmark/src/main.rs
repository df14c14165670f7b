//! The repository benchmark: one command, four workloads, checked answers.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload full-tier|binary-tier|store-zipf|fit|all] [--seed N]
//!     [--seconds N] [--trace [0|1]] [--repeat N] [--quick] [--out FILE]
//! ```
//!
//! Each workload run executes in a re-executed child process of this
//! binary, so memory high-water marks and global state never leak from
//! one workload into the next. The last line of standard output is one
//! JSON object: for a single run, `{"correct", "attempted", "failed",
//! "metrics"}` with every end-to-end metric (or, with `--trace 1`, every
//! per-layer metric) by name with its unit. Human-readable detail goes to
//! standard error. The exit code is non-zero when any check failed. See
//! `benchmark/README.md`.

mod envelope;
mod fit;
mod fleet;
mod gen;
mod json;
mod names;
mod serving;
mod stats;
mod trace;
mod workload;

use json::Json;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Opts, Outcome};

const WORKLOADS: [&str; 4] = ["full-tier", "binary-tier", "store-zipf", "fit"];
const DEFAULT_SECONDS: u64 = 20;
const QUICK_SECONDS: u64 = 2;
/// A child still running after this is killed and its run counts as
/// failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);
/// Output directory, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    quick: bool,
    out: Option<PathBuf>,
    child: bool,
}

const USAGE: &str = "usage: reghd-benchmark [--workload NAME|all] [--seed N] [--seconds N] \
                     [--trace [0|1]] [--repeat N] [--quick] [--out FILE]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 0,
        trace: false,
        repeat: 1,
        quick: false,
        out: None,
        child: false,
    };
    let mut seconds = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |s: String, flag: &str| -> Result<u64, String> {
        s.parse::<u64>()
            .map_err(|_| format!("{flag}: not a whole number: {s}"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                args.workloads = if w == "all" {
                    WORKLOADS.to_vec()
                } else {
                    vec![*WORKLOADS
                        .iter()
                        .find(|n| **n == w)
                        .ok_or_else(|| format!("unknown workload {w}; one of {WORKLOADS:?}"))?]
                };
            }
            "--seed" => args.seed = number(value(&mut i, "--seed")?, "--seed")?,
            "--seconds" => seconds = Some(number(value(&mut i, "--seconds")?, "--seconds")?),
            "--trace" => {
                // `--trace` alone means on; an explicit 0/1 may follow.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                args.repeat = number(value(&mut i, "--repeat")?, "--repeat")?.max(1) as usize;
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut i, "--out")?)),
            "--child" => args.child = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
        i += 1;
    }
    args.seconds = seconds
        .unwrap_or(if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
        .max(1);
    Ok(args)
}

/// The result line of one run.
fn result_line(outcome: &Outcome, trace: bool) -> Json {
    let defs = if trace {
        names::PER_LAYER
    } else {
        names::END_TO_END
    };
    Json::obj([
        ("correct", Json::from(outcome.correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", outcome.values.to_json(defs)),
    ])
}

/// Runs one workload in this process and prints its result line.
fn child(args: &Args) -> ExitCode {
    let name = args.workloads[0];
    let work_dir = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("{name}: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        quick: args.quick,
        work_dir: work_dir.clone(),
    };
    let result = match name {
        "full-tier" => serving::run(serving::Kind::FullTier, &opts),
        "binary-tier" => serving::run(serving::Kind::BinaryTier, &opts),
        "store-zipf" => serving::run(serving::Kind::StoreZipf, &opts),
        _ => fit::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        eprintln!("{name}: {note}");
    }
    if let Some(doc) = &outcome.trace {
        let doc = Json::obj([
            ("workload", Json::from(name)),
            (
                "envelope",
                envelope::envelope(args.seed, 1, args.seconds, args.quick, Path::new(OUT_DIR)),
            ),
            ("trace", doc.clone()),
        ]);
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        match std::fs::write(&path, doc.to_string()) {
            Ok(()) => eprintln!("{name}: wrote {}", path.display()),
            Err(e) => eprintln!("{name}: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_line(&outcome, args.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: CHECK FAILED");
        ExitCode::FAILURE
    }
}

/// One child run as the parent saw it.
struct ChildRun {
    workload: &'static str,
    seed: u64,
    ok: bool,
    result: Option<Json>,
    line: Option<String>,
}

/// Re-executes this binary for one workload run and waits for it.
fn spawn_child(args: &Args, workload: &'static str, seed: u64) -> ChildRun {
    let mut run = ChildRun {
        workload,
        seed,
        ok: false,
        result: None,
        line: None,
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return run;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let mut proc = match cmd.spawn() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{workload}: cannot start child: {e}");
            return run;
        }
    };
    let mut stdout = proc.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) | Err(_) => {
                eprintln!("{workload}: child exceeded {CHILD_TIMEOUT:?}; killing it");
                let _ = proc.kill();
                let _ = proc.wait();
                break None;
            }
        }
    };
    let out = reader.join().unwrap_or_default();
    run.line = out.lines().last().map(str::to_string);
    run.result = run.line.as_deref().and_then(|l| json::parse(l).ok());
    run.ok = status.is_some_and(|s| s.success())
        && run
            .result
            .as_ref()
            .and_then(|r| r.get("correct"))
            .and_then(Json::as_bool)
            == Some(true);
    run
}

/// Metric values of a run: name, value, unit.
fn metric_values(result: &Json) -> Vec<(String, f64, String)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| {
                    Some((
                        k.clone(),
                        v.get("value")?.as_f64()?,
                        v.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Median, quartiles and spreads of each metric over a workload's runs.
fn summarize(runs: &[&ChildRun]) -> Json {
    let mut by_metric: Vec<(String, String, Vec<f64>)> = Vec::new();
    for run in runs {
        let Some(result) = &run.result else { continue };
        for (name, value, unit) in metric_values(result) {
            match by_metric.iter_mut().find(|(n, _, _)| *n == name) {
                Some(slot) => slot.2.push(value),
                None => by_metric.push((name, unit, vec![value])),
            }
        }
    }
    Json::Obj(
        by_metric
            .into_iter()
            .map(|(name, unit, vals)| {
                let med = stats::median(&vals);
                let (lo, hi) = vals
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                        (a.min(v), b.max(v))
                    });
                let share = |d: f64| if med != 0.0 { d / med.abs() } else { 0.0 };
                let mut fields = vec![
                    ("unit", Json::Str(unit)),
                    ("n", Json::from(vals.len())),
                    ("median", Json::Num(med)),
                ];
                if let Some([q1, _, q3]) = stats::quartiles(&vals) {
                    fields.push(("q1", Json::Num(q1)));
                    fields.push(("q3", Json::Num(q3)));
                    fields.push(("iqr_share", Json::Num(share(q3 - q1))));
                }
                fields.push(("max_spread_share", Json::Num(share(hi - lo))));
                fields.push((
                    "values",
                    Json::Arr(vals.into_iter().map(Json::Num).collect()),
                ));
                (name, Json::obj(fields))
            })
            .collect(),
    )
}

fn print_summary(workload: &str, summary: &Json) {
    eprintln!("== {workload}");
    eprintln!(
        "   {:<40} {:>14} {:>14} {:>14} {:>9} {:>9}  unit (better)",
        "metric", "median", "q1", "q3", "iqr/med", "max/med"
    );
    for (name, s) in summary.as_obj().unwrap_or_default() {
        let f = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let better = names::END_TO_END
            .iter()
            .chain(names::PER_LAYER)
            .find(|d| d.name == name)
            .map_or("?", |d| d.better);
        eprintln!(
            "   {:<40} {:>14.6} {:>14.6} {:>14.6} {:>9.4} {:>9.4}  {} ({better})",
            name,
            f("median"),
            f("q1"),
            f("q3"),
            f("iqr_share"),
            f("max_spread_share"),
            s.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
}

fn parent(args: &Args) -> ExitCode {
    let mut runs: Vec<ChildRun> = Vec::new();
    for &w in &args.workloads {
        for r in 0..args.repeat {
            let seed = args.seed + r as u64;
            eprintln!("-- {w} seed {seed}");
            let run = spawn_child(args, w, seed);
            if let Some(result) = &run.result {
                for (name, value, unit) in metric_values(result) {
                    eprintln!("   {name:<40} {value:>16.6} {unit}");
                }
            }
            runs.push(run);
        }
    }
    let all_ok = runs.iter().all(|r| r.ok);
    let summaries: Vec<(&str, Json)> = args
        .workloads
        .iter()
        .map(|&w| {
            let of_w: Vec<&ChildRun> = runs.iter().filter(|r| r.workload == w).collect();
            (w, summarize(&of_w))
        })
        .collect();
    if args.repeat > 1 {
        for (w, s) in &summaries {
            print_summary(w, s);
        }
    }
    let runs_json = || {
        Json::Arr(
            runs.iter()
                .map(|r| {
                    Json::obj([
                        ("workload", Json::from(r.workload)),
                        ("seed", Json::from(r.seed)),
                        ("ok", Json::from(r.ok)),
                        ("result", r.result.clone().unwrap_or(Json::Null)),
                    ])
                })
                .collect(),
        )
    };
    if let Some(path) = &args.out {
        let doc = Json::obj([
            (
                "envelope",
                envelope::envelope(
                    args.seed,
                    args.repeat,
                    args.seconds,
                    args.quick,
                    Path::new(OUT_DIR),
                ),
            ),
            ("trace", Json::from(args.trace)),
            ("runs", runs_json()),
            (
                "summary",
                Json::obj(summaries.iter().map(|(w, s)| (*w, s.clone()))),
            ),
        ]);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    if let [only] = runs.as_slice() {
        // One run: relay the child's result line verbatim.
        if let (Some(line), Some(_)) = (&only.line, &only.result) {
            println!("{line}");
        }
    } else {
        println!(
            "{}",
            Json::obj([("correct", Json::from(all_ok)), ("runs", runs_json())])
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}
