//! The protocol-independent control surface of a running server: the text
//! renderings behind `stats` and `list`, the §3.2 degraded fallback, the
//! registry integrity sweep (on demand and in the background), and the
//! admin verbs a front-end carries to the registry and fault injector.
//!
//! Admin verbs are one UTF-8 line of whitespace-separated words:
//!
//! ```text
//! reload <model> <path>                →  reloaded <model> v<version>
//! sweep                                →  swept checked=N corrupted=N rolled_back=N
//! inject bitflip <model> <rate> <seed> →  injected flips=N
//! inject delay <ms> | kill <n> | panic <n> | clear   →  (empty text)
//! ```
//!
//! [`execute`] answers `Ok(text)` or `Err(message)`; the front-end wraps
//! the text in its success or error reply. `inject` is refused with
//! `inject disabled` unless the server was started with injection enabled.

use crate::faults::FaultInjector;
use crate::metrics::{MetricsHub, ModelMetrics};
use crate::registry::{ModelMeta, ModelRegistry, ServedModel, SweepReport};
use crate::shed::ShedController;
use crate::ServeError;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One `model …` inventory line (shared by `stats` and `list`). The
/// registry returns metas name-sorted, so replies built from it are
/// deterministic for a given set of loaded models.
pub fn model_line(m: &ModelMeta) -> String {
    format!(
        "model {} v{} hash={} dim={} k={} cluster={} prediction={} bytes={} canary={} mem={}",
        m.name,
        m.version,
        m.hash,
        m.dim,
        m.models,
        m.cluster_mode,
        m.prediction_mode,
        m.bytes,
        m.canary_rows,
        m.mem,
    )
}

/// The `stats` payload: registry inventory plus per-model counters, the
/// store/resolver lines when a store is attached, and one `server` line.
pub fn render_stats(
    registry: &ModelRegistry,
    hub: &MetricsHub,
    queue_depth: usize,
    shed: Option<&ShedController>,
) -> Vec<String> {
    let mut lines: Vec<String> = registry.list().iter().map(model_line).collect();
    lines.extend(hub.render_all());
    if let Some(store) = registry.resolver_stats() {
        lines.push(format!("store {store}"));
        let h = registry.resolver_health();
        lines.push(format!(
            "resolver retries={} failures={} breaker_trips={} short_circuits={} \
             open_breakers={}",
            h.retries, h.failures, h.breaker_trips, h.short_circuits, h.open_breakers,
        ));
    }
    let (tier, demotions, promotions) = match shed {
        Some(s) => (
            if s.is_degraded() { "degraded" } else { "full" },
            s.demotions(),
            s.promotions(),
        ),
        None => ("full", 0, 0),
    };
    lines.push(format!(
        "server connections={} connections_rejected={} bad_requests={} queue_depth={} \
         canary_failures={} rollbacks={} sweeps={} tier={tier} demotions={demotions} \
         promotions={promotions}",
        hub.connections.load(Ordering::Relaxed),
        hub.connections_rejected.load(Ordering::Relaxed),
        hub.bad_requests.load(Ordering::Relaxed),
        queue_depth,
        hub.canary_failures.load(Ordering::Relaxed),
        hub.rollbacks.load(Ordering::Relaxed),
        hub.sweeps.load(Ordering::Relaxed),
    ));
    lines
}

/// Answers one row through the bit-packed binary tier (§3.2), recording
/// the outcome into `metrics`. Every degraded reply, whatever triggered
/// it, is this value.
///
/// # Errors
///
/// The message of the failed model call (or a non-finite estimate); the
/// caller renders it as a protocol error.
pub fn degraded_value(
    served: &ServedModel,
    metrics: &ModelMetrics,
    row: &[f32],
) -> Result<f32, String> {
    match served.bundle.predict_binary(&[row.to_vec()]) {
        Ok(preds) if preds.first().is_some_and(|p| p.is_finite()) => {
            metrics.record_degraded();
            Ok(preds[0])
        }
        Ok(_) => {
            metrics.record_error();
            Err("degraded prediction not finite".to_string())
        }
        Err(msg) => {
            metrics.record_error();
            Err(msg)
        }
    }
}

/// Runs one registry sweep and folds the result into the hub counters.
pub fn run_sweep(registry: &ModelRegistry, hub: &MetricsHub) -> SweepReport {
    let report = registry.sweep();
    hub.sweeps.fetch_add(1, Ordering::Relaxed);
    hub.rollbacks
        .fetch_add(report.rolled_back as u64, Ordering::Relaxed);
    report
}

/// Starts the background sweeper: one [`run_sweep`] every `interval`
/// until `stop` is set.
///
/// # Errors
///
/// [`ServeError::Spawn`] when the thread cannot be created.
pub fn spawn_sweeper(
    registry: Arc<ModelRegistry>,
    hub: Arc<MetricsHub>,
    interval: Duration,
    stop: Arc<AtomicBool>,
) -> Result<JoinHandle<()>, ServeError> {
    std::thread::Builder::new()
        .name("reghd-sweeper".to_string())
        .spawn(move || {
            let mut since_sweep = Duration::ZERO;
            let tick = Duration::from_millis(10).min(interval.max(Duration::from_millis(1)));
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(tick);
                since_sweep += tick;
                if since_sweep >= interval {
                    since_sweep = Duration::ZERO;
                    run_sweep(&registry, &hub);
                }
            }
        })
        .map_err(ServeError::Spawn)
}

/// One fault the `inject` verb arms.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Sign-flip `rate` of a served model's components (seeded).
    Bitflip {
        /// Target model.
        model: String,
        /// Fraction of components to flip, in `[0, 1]`.
        rate: f64,
        /// Flip-pattern seed.
        seed: u64,
    },
    /// Stall every worker this many milliseconds per batch.
    Delay(u64),
    /// Kill this many workers.
    Kill(usize),
    /// Panic this many batches inside the pool's containment boundary.
    Panic(usize),
    /// Disarm every worker fault.
    Clear,
}

/// One parsed admin verb.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminVerb {
    /// Canary-gated hot swap of `model` from the bundle at `path`.
    Reload {
        /// Model name.
        model: String,
        /// Bundle path on the server's filesystem.
        path: String,
    },
    /// On-demand integrity sweep.
    Sweep,
    /// Arm a fault (only with injection enabled).
    Inject(Fault),
}

/// Renders the canonical verb line, which [`parse_verb`] maps back to the
/// same verb.
impl fmt::Display for AdminVerb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Reload { model, path } => write!(f, "reload {model} {path}"),
            Self::Sweep => f.write_str("sweep"),
            Self::Inject(Fault::Bitflip { model, rate, seed }) => {
                write!(f, "inject bitflip {model} {rate} {seed}")
            }
            Self::Inject(Fault::Delay(ms)) => write!(f, "inject delay {ms}"),
            Self::Inject(Fault::Kill(n)) => write!(f, "inject kill {n}"),
            Self::Inject(Fault::Panic(n)) => write!(f, "inject panic {n}"),
            Self::Inject(Fault::Clear) => f.write_str("inject clear"),
        }
    }
}

const INJECT_USAGE: &str =
    "usage: inject bitflip <model> <rate> <seed> | delay <ms> | kill <n> | panic <n> | clear";

/// Parses one admin verb line from untrusted bytes.
///
/// # Errors
///
/// A message for non-UTF-8 input, unknown verbs, and wrong or extra
/// arguments.
pub fn parse_verb(bytes: &[u8]) -> Result<AdminVerb, String> {
    let line = std::str::from_utf8(bytes).map_err(|_| "admin verb not UTF-8".to_string())?;
    let mut words = line.split_whitespace();
    let verb = match words.next() {
        Some("reload") => match (words.next(), words.next()) {
            (Some(model), Some(path)) => AdminVerb::Reload {
                model: model.to_string(),
                path: path.to_string(),
            },
            _ => return Err("usage: reload <model> <path>".to_string()),
        },
        Some("sweep") => AdminVerb::Sweep,
        Some("inject") => AdminVerb::Inject(parse_fault(&mut words)?),
        Some(other) => return Err(format!("unknown command {other}")),
        None => return Err("usage: reload <model> <path> | sweep | inject <fault>".to_string()),
    };
    match words.next() {
        None => Ok(verb),
        Some(extra) => Err(format!("unexpected argument {extra}")),
    }
}

fn parse_fault<'a>(words: &mut impl Iterator<Item = &'a str>) -> Result<Fault, String> {
    fn num<T: std::str::FromStr>(word: Option<&str>) -> Result<T, String> {
        word.and_then(|w| w.parse().ok())
            .ok_or_else(|| INJECT_USAGE.to_string())
    }
    Ok(match words.next() {
        Some("bitflip") => {
            let model = words.next().ok_or_else(|| INJECT_USAGE.to_string())?;
            let rate: f64 = num(words.next())?;
            let seed = num(words.next())?;
            if !(0.0..=1.0).contains(&rate) {
                return Err("rate must be in [0,1]".to_string());
            }
            Fault::Bitflip {
                model: model.to_string(),
                rate,
                seed,
            }
        }
        Some("delay") => Fault::Delay(num(words.next())?),
        Some("kill") => Fault::Kill(num(words.next())?),
        Some("panic") => Fault::Panic(num(words.next())?),
        Some("clear") => Fault::Clear,
        _ => return Err(INJECT_USAGE.to_string()),
    })
}

/// Parses and runs one admin verb against a server's registry, counters
/// and fault injector. Malformed verbs count as bad requests; a reload
/// refused by its canary counts as a canary failure.
///
/// # Errors
///
/// The reply message: a parse error, `inject disabled`, or the failure of
/// the verb itself (e.g. a checksum mismatch on reload).
pub fn execute(
    payload: &[u8],
    registry: &ModelRegistry,
    hub: &MetricsHub,
    injector: &FaultInjector,
    enable_inject: bool,
) -> Result<String, String> {
    let verb = parse_verb(payload).inspect_err(|_| {
        hub.bad_requests.fetch_add(1, Ordering::Relaxed);
    })?;
    match verb {
        AdminVerb::Reload { model, path } => match registry.reload(&model, &path) {
            Ok(meta) => Ok(format!("reloaded {} v{}", meta.name, meta.version)),
            Err(e) => {
                if matches!(e, ServeError::Canary(_)) {
                    hub.canary_failures.fetch_add(1, Ordering::Relaxed);
                }
                Err(e.to_string())
            }
        },
        AdminVerb::Sweep => {
            let r = run_sweep(registry, hub);
            Ok(format!(
                "swept checked={} corrupted={} rolled_back={}",
                r.checked, r.corrupted, r.rolled_back
            ))
        }
        AdminVerb::Inject(_) if !enable_inject => Err("inject disabled".to_string()),
        AdminVerb::Inject(fault) => {
            match fault {
                Fault::Bitflip { model, rate, seed } => {
                    let flips = registry
                        .inject_model_faults(&model, rate, seed)
                        .map_err(|e| e.to_string())?;
                    return Ok(format!("injected flips={flips}"));
                }
                Fault::Delay(ms) => injector.set_worker_delay(Duration::from_millis(ms)),
                Fault::Kill(n) => injector.kill_workers(n),
                Fault::Panic(n) => injector.panic_batches(n),
                Fault::Clear => injector.clear(),
            }
            Ok(String::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse_and_render_canonically() {
        for line in [
            "reload toy /tmp/toy.rghd",
            "sweep",
            "inject bitflip toy 0.2 9",
            "inject delay 300",
            "inject kill 1",
            "inject panic 2",
            "inject clear",
        ] {
            let verb = parse_verb(line.as_bytes()).unwrap();
            assert_eq!(verb.to_string(), line);
        }
        assert_eq!(
            parse_verb(b"  sweep \t").unwrap(),
            AdminVerb::Sweep,
            "surrounding whitespace is insignificant"
        );
    }

    #[test]
    fn malformed_verbs_are_typed_errors() {
        let err = |line: &[u8]| parse_verb(line).unwrap_err();
        assert_eq!(err(b"frobnicate"), "unknown command frobnicate");
        assert_eq!(err(b"reload toy"), "usage: reload <model> <path>");
        assert_eq!(err(b"sweep now"), "unexpected argument now");
        assert_eq!(err(b"inject bitflip toy 1.5 3"), "rate must be in [0,1]");
        assert_eq!(err(b"inject bitflip toy NaN 3"), "rate must be in [0,1]");
        assert_eq!(err(b"inject delay soon"), INJECT_USAGE);
        assert_eq!(err(b"inject meteor 0.5"), INJECT_USAGE);
        assert_eq!(err(&[0xFF, b's']), "admin verb not UTF-8");
        assert!(err(b"").starts_with("usage:"));
    }
}
