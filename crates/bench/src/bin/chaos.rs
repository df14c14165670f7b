//! Chaos/soak harness for the overload-survival layer: open-loop load at
//! 2× the measured full-precision capacity against a live server whose
//! model store is under concurrent fault injection (ENOSPC, short writes,
//! fsync failures, torn renames), plus periodic worker stalls.
//!
//! Survivability contract under test (ISSUE 7 acceptance criteria):
//!
//! 1. **No panics, no deadlocks** — every request gets exactly one
//!    well-formed reply, and the per-model `panics` counter stays 0.
//! 2. **Availability** — `(ok + degraded) / sent ≥ 99%` while overloaded
//!    and faulted. Admission-control refusals (`busy`, `draining`) and
//!    errors count against availability.
//! 3. **Expired requests are shed pre-compute** — the deadline spike
//!    window must drive the `expired` counter above zero.
//! 4. **Bounded latency** — p50/p95/p99 of answered requests are measured
//!    client-side from real samples (no sentinel values by construction)
//!    and recorded in the summary.
//! 5. **Degraded replies are bit-identical** to
//!    `ModelBundle::predict_binary` (the §3.2 binary tier): every degraded
//!    value observed during the soak is bit-compared against the
//!    precomputed expected output, and a deterministic post-soak check
//!    forces one more via an injected worker stall.
//! 6. **Store integrity** — after the fault storm clears, every store key
//!    passes `audit` and is still readable: faulted publications rolled
//!    back cleanly instead of leaving torn state.
//!
//! ```text
//! cargo run -p reghd-bench --release --bin chaos \
//!     [-- --test | --duration-secs N]
//! ```
//!
//! The storm runs against the RGNP front-end (`reghd-net`). `--test` runs
//! a short CI-sized soak (~3 s); the default is 15 s. The summary is
//! written to `results/chaos.json`; the process exits non-zero if any
//! invariant above is violated, so CI can gate on the exit code.

use reghd_bench::report::banner;
use reghd_net::client::PredictReply;
use reghd_net::{serve_rgnp, NetConfig, RgnpClient};
use reghd_serve::registry::ModelRegistry;
use reghd_serve::{bundle, BatcherConfig, FaultInjector, ShedConfig};
use reghd_store::{ModelStore, StoreConfig, StoreFaultInjector};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0xC4A05;
const STORE_KEYS: usize = 8;
const SOAK_CLIENTS: usize = 16;
const OVERLOAD_FACTOR: f64 = 2.0;

struct Args {
    soak: Duration,
    baseline: Duration,
}

fn parse_args() -> Args {
    let mut args = Args {
        soak: Duration::from_secs(15),
        baseline: Duration::from_secs(2),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = || -> ! {
        eprintln!("usage: chaos [--test | --duration-secs N]");
        std::process::exit(2);
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--test" => {
                args.soak = Duration::from_secs(3);
                args.baseline = Duration::from_secs(1);
            }
            "--duration-secs" => {
                i += 1;
                let value = argv.get(i).unwrap_or_else(|| usage());
                let secs: u64 = value.parse().unwrap_or_else(|_| {
                    eprintln!("invalid value for --duration-secs: {value}");
                    std::process::exit(2);
                });
                args.soak = Duration::from_secs(secs.max(1));
            }
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn toy_dataset() -> datasets::Dataset {
    let features: Vec<Vec<f32>> = (0..60)
        .map(|i| vec![i as f32 * 0.5, (i % 7) as f32, (i * 3 % 11) as f32])
        .collect();
    let targets: Vec<f32> = features
        .iter()
        .map(|r| 2.0 * r[0] - r[1] + 0.5 * r[2])
        .collect();
    datasets::Dataset::new("chaos", features, targets)
}

fn connect(addr: SocketAddr) -> std::io::Result<RgnpClient> {
    let mut c = RgnpClient::connect(&addr.to_string())?;
    c.set_timeout(Some(Duration::from_secs(5)))?;
    Ok(c)
}

/// Per-client tally of one load phase.
#[derive(Debug, Default, Clone)]
struct Tally {
    sent: u64,
    ok: u64,
    degraded: u64,
    busy: u64,
    draining: u64,
    errs: u64,
    lost: u64,
    /// Degraded replies whose value disagreed with the precomputed
    /// `predict_binary` output for that row (must end at 0).
    degraded_mismatches: u64,
    /// Latencies (µs) of answered (`ok` or `degraded`) requests.
    answered_us: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.busy += other.busy;
        self.draining += other.draining;
        self.errs += other.errs;
        self.lost += other.lost;
        self.degraded_mismatches += other.degraded_mismatches;
        self.answered_us.extend(other.answered_us);
    }

    /// Classifies one reply for the request of `row_idx` (an index into
    /// the expected-degraded table, or `usize::MAX` for store-backed keys
    /// whose degraded value is not cross-checked). `None` is a lost reply.
    fn observe(&mut self, reply: Option<PredictReply>, us: u64, row_idx: usize, expected: &[f32]) {
        self.sent += 1;
        match reply {
            None => self.lost += 1,
            Some(PredictReply::Ok(_)) => {
                self.ok += 1;
                self.answered_us.push(us);
            }
            Some(PredictReply::Degraded(y)) => {
                self.degraded += 1;
                self.answered_us.push(us);
                if row_idx != usize::MAX && y.to_bits() != expected[row_idx].to_bits() {
                    self.degraded_mismatches += 1;
                }
            }
            Some(PredictReply::Busy) => self.busy += 1,
            Some(PredictReply::Draining) => self.draining += 1,
            Some(PredictReply::Err(_)) => self.errs += 1,
        }
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

/// Closed-loop baseline: `n` clients hammer full-precision predicts for
/// `dur`; returns achieved requests/second (the capacity estimate the
/// overload factor multiplies).
fn measure_capacity(addr: SocketAddr, rows: &[Vec<f32>], n: usize, dur: Duration) -> f64 {
    let done = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..n)
        .map(|c| {
            let rows = rows.to_vec();
            let done = done.clone();
            let total = total.clone();
            std::thread::spawn(move || {
                let mut client = connect(addr).expect("baseline connect");
                let mut i = c;
                while !done.load(Ordering::Relaxed) {
                    let row = &rows[i % rows.len()];
                    i += 1;
                    if client.predict("toy", row).is_ok() {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(dur);
    done.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("baseline client panicked");
    }
    total.load(Ordering::Relaxed) as f64 / dur.as_secs_f64()
}

/// One open-loop soak client: sends on a fixed schedule (no backoff when
/// the server is slow — that is the point), mixing full-precision `toy`
/// requests with store-backed cold/hot lookups.
#[allow(clippy::too_many_arguments)]
fn soak_client(
    addr: SocketAddr,
    rows: Vec<Vec<f32>>,
    expected_degraded: Vec<f32>,
    interval: Duration,
    end: Instant,
    client_id: usize,
) -> Tally {
    let mut tally = Tally::default();
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(_) => {
            // Connection-cap refusal at connect time: treat the whole
            // schedule as lost so it still counts against availability.
            tally.lost += 1;
            tally.sent += 1;
            return tally;
        }
    };
    let start = Instant::now();
    let mut state = SEED ^ (client_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut n: u32 = 0;
    loop {
        let due = start + interval.mul_f64(f64::from(n));
        let now = Instant::now();
        if now >= end {
            break;
        }
        if due > now {
            std::thread::sleep(due - now);
            if Instant::now() >= end {
                break;
            }
        }
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let idx = (state >> 33) as usize % rows.len();
        let (model, check_idx) = if n % 8 == 7 {
            // Store-backed key: exercises the registry resolver (retry +
            // circuit breaker) against the faulted store.
            let key = (state >> 17) as usize % STORE_KEYS;
            (format!("u{key}"), usize::MAX)
        } else {
            ("toy".to_string(), idx)
        };
        let t0 = Instant::now();
        let reply = client.predict(&model, &rows[idx]).ok();
        let us = t0.elapsed().as_micros() as u64;
        let reconnect = reply.is_none();
        tally.observe(reply, us, check_idx, &expected_degraded);
        if reconnect {
            match connect(addr) {
                Ok(c) => client = c,
                Err(_) => break,
            }
        }
        n += 1;
    }
    tally
}

/// The fault storm: every tick, re-arms store write-path faults and pushes
/// a publication through them (consuming the armed faults and exercising
/// rollback); periodically stalls workers, with one hard mid-soak spike
/// that forces queued rows past their deadline.
fn fault_storm(
    store: &ModelStore,
    faults: &StoreFaultInjector,
    injector: &FaultInjector,
    image: &[u8],
    end: Instant,
    publish_ok: &AtomicU64,
    publish_failed: &AtomicU64,
) {
    let start = Instant::now();
    let soak = end.saturating_duration_since(start);
    let spike_at = start + soak / 2;
    let spike_until = spike_at + Duration::from_millis(600).min(soak / 4);
    let mut tick: usize = 0;
    let mut spiked = false;
    while Instant::now() < end {
        // Write-path faults for this tick: each publication below sees at
        // most one, so the store's own retry-free `publish_full` fails (and
        // must roll back) roughly every other tick.
        match tick % 4 {
            0 => faults.arm_enospc_appends(1),
            1 => faults.arm_short_writes(1),
            2 => faults.arm_fsync_failures(1),
            _ => faults.arm_torn_renames(1),
        }
        let key = format!("u{}", tick % STORE_KEYS);
        match store.publish_full(&key, image) {
            Ok(_) => publish_ok.fetch_add(1, Ordering::Relaxed),
            Err(_) => publish_failed.fetch_add(1, Ordering::Relaxed),
        };
        if tick % 8 == 3 {
            // Compaction rewrites the index log — the only path where an
            // armed torn-rename fault can fire. Failures are tolerated (the
            // old log stays authoritative); the post-soak audit checks that.
            let _ = store.compact();
        }

        let now = Instant::now();
        if !spiked && now >= spike_at {
            // Deadline spike: a long worker stall while load keeps
            // arriving, so queued rows age past the deadline and must be
            // shed pre-compute (the `expired` counter).
            injector.set_worker_delay(Duration::from_millis(50));
            spiked = true;
        } else if spiked && now >= spike_until {
            injector.clear();
            spiked = false;
        } else if !spiked && tick % 5 == 4 {
            // Background jitter: brief mild stalls to keep the shed
            // controller honest.
            injector.set_worker_delay(Duration::from_millis(2));
        } else if !spiked {
            injector.clear();
        }
        tick += 1;
        std::thread::sleep(Duration::from_millis(100));
    }
    injector.clear();
    faults.clear();
}

/// Parses `name=value` fields out of a stats line.
fn stat_field(line: &str, name: &str) -> u64 {
    line.split(&format!("{name}="))
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn main() {
    banner(
        "Chaos soak — overload + store faults survivability",
        "ISSUE 7 acceptance: availability ≥ 99%, zero panics, expired shed, bounded p99",
    );
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let simd = hdc::simd::active_label();
    let workers = cores.clamp(2, 4);
    println!(
        "cores {cores}, simd {simd}, workers {workers}, soak {:?}, \
         overload {OVERLOAD_FACTOR}×",
        args.soak
    );

    // ---- World: one trained bundle, a faulted store, a live server. ----
    let ds = toy_dataset();
    let (bundle, _) = bundle::train(&ds, 256, 4, 4, SEED, false).expect("train toy bundle");
    let bytes = bundle.to_bytes().expect("serialise bundle");
    let expected_degraded: Vec<f32> = bundle
        .predict_binary(&ds.features)
        .expect("degraded baseline");

    let dir = std::env::temp_dir().join(format!("reghd-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ModelStore::open(&dir, StoreConfig::default()).expect("open store"));
    let faults = Arc::new(StoreFaultInjector::new());
    store.attach_faults(Some(faults.clone()));
    for k in 0..STORE_KEYS {
        store
            .publish_full(&format!("u{k}"), &bytes)
            .expect("seed store key");
    }

    let registry = Arc::new(ModelRegistry::new());
    registry.load_bytes("toy", &bytes).expect("load toy");
    registry.attach_resolver(store.clone());

    // Overload posture: tight reply timeout, 30 ms deadline, bounded
    // queue, aggressive shed thresholds, and a connection cap just above
    // the fleet size.
    let handle = serve_rgnp(
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            reply_timeout: Duration::from_millis(250),
            deadline: Some(Duration::from_millis(30)),
            max_connections: SOAK_CLIENTS + workers + 8,
            batcher: BatcherConfig {
                queue_cap: 512,
                ..BatcherConfig::default()
            },
            shed: Some(ShedConfig {
                demote_p95: Duration::from_millis(10),
                promote_p95: Duration::from_millis(5),
                ..ShedConfig::default()
            }),
            ..NetConfig::default()
        },
        registry.clone(),
    )
    .expect("start RGNP server");
    let addr = handle.local_addr();

    // ---- Baseline capacity (clean, closed-loop, full precision). ----
    let capacity = measure_capacity(addr, &ds.features, workers, args.baseline);
    let offered = capacity * OVERLOAD_FACTOR;
    println!("baseline capacity {capacity:.0} req/s → offering {offered:.0} req/s");

    // ---- Soak: open-loop overload + fault storm, concurrently. ----
    let end = Instant::now() + args.soak;
    let publish_ok = Arc::new(AtomicU64::new(0));
    let publish_failed = Arc::new(AtomicU64::new(0));
    let storm = {
        let (store, faults, image) = (store.clone(), faults.clone(), bytes.clone());
        let (publish_ok, publish_failed) = (publish_ok.clone(), publish_failed.clone());
        let injector = handle.injector();
        std::thread::scope(|scope| {
            let storm = scope.spawn(move || {
                fault_storm(
                    &store,
                    &faults,
                    &injector,
                    &image,
                    end,
                    &publish_ok,
                    &publish_failed,
                )
            });
            let interval = Duration::from_secs_f64(SOAK_CLIENTS as f64 / offered.max(1.0));
            let clients: Vec<_> = (0..SOAK_CLIENTS)
                .map(|c| {
                    let rows = ds.features.clone();
                    let expected = expected_degraded.clone();
                    scope.spawn(move || soak_client(addr, rows, expected, interval, end, c))
                })
                .collect();
            let mut tally = Tally::default();
            for c in clients {
                tally.merge(c.join().expect("soak client panicked"));
            }
            storm.join().expect("fault storm panicked");
            tally
        })
    };

    // ---- Post-soak: deterministic degraded bit-identity check. ----
    std::thread::sleep(Duration::from_millis(300)); // drain the spike tail
    let mut admin = connect(addr).expect("admin connect");
    handle
        .injector()
        .set_worker_delay(Duration::from_millis(400));
    let forced = admin
        .predict("toy", &ds.features[0])
        .expect("forced degraded reply");
    handle.injector().clear();
    let forced_matches = matches!(forced, PredictReply::Degraded(y) if y.to_bits() == expected_degraded[0].to_bits());
    std::thread::sleep(Duration::from_millis(500)); // flush the stalled batch

    // ---- Post-soak: store integrity after the fault storm. ----
    let mut audit_failures = 0u64;
    for k in 0..STORE_KEYS {
        let key = format!("u{k}");
        if store.audit(&key).is_err() || store.get(&key).is_err() {
            audit_failures += 1;
        }
    }

    // ---- Collect server-side counters. ----
    let stats = admin.stats().expect("stats request");
    let lines: Vec<&str> = stats.lines().collect();
    let (mut panics, mut expired, mut shed) = (0u64, 0u64, 0u64);
    for l in lines.iter().filter(|l| l.starts_with("stat ")) {
        panics += stat_field(l, "panics");
        expired += stat_field(l, "expired");
        shed += stat_field(l, "shed");
    }
    let server = lines
        .iter()
        .find(|l| l.starts_with("server "))
        .expect("server stats line");
    let resolver = lines
        .iter()
        .find(|l| l.starts_with("resolver "))
        .expect("resolver stats line");
    let demotions = stat_field(server, "demotions");
    let promotions = stat_field(server, "promotions");
    let connections_rejected = stat_field(server, "connections_rejected");
    let resolver_retries = stat_field(resolver, "retries");
    let resolver_failures = stat_field(resolver, "failures");
    let breaker_trips = stat_field(resolver, "breaker_trips");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Survivability report. ----
    let mut answered = storm.answered_us.clone();
    answered.sort_unstable();
    let (p50, p95, p99) = (
        percentile(&answered, 0.50),
        percentile(&answered, 0.95),
        percentile(&answered, 0.99),
    );
    let availability = if storm.sent == 0 {
        0.0
    } else {
        (storm.ok + storm.degraded) as f64 / storm.sent as f64
    };
    println!(
        "sent {} → ok {} degraded {} busy {} draining {} err {} lost {}",
        storm.sent, storm.ok, storm.degraded, storm.busy, storm.draining, storm.errs, storm.lost
    );
    println!(
        "availability {:.4}  p50 {p50}µs  p95 {p95}µs  p99 {p99}µs",
        availability
    );
    println!(
        "expired {expired}  shed {shed}  panics {panics}  demotions {demotions}  \
         promotions {promotions}  conns_rejected {connections_rejected}"
    );
    println!(
        "store: faults_injected {}  publish_ok {}  publish_failed {}  audit_failures \
         {audit_failures}",
        faults.injected(),
        publish_ok.load(Ordering::Relaxed),
        publish_failed.load(Ordering::Relaxed),
    );
    println!(
        "resolver: retries {resolver_retries}  failures {resolver_failures}  breaker_trips \
         {breaker_trips}"
    );
    println!(
        "degraded bit-identity: {} checked in-soak, {} mismatches, forced check {}",
        storm.degraded,
        storm.degraded_mismatches,
        if forced_matches { "ok" } else { "MISMATCH" }
    );

    let json = format!(
        "{{\n  \"soak_secs\": {:.1},\n  \"cores\": {cores},\n  \
         \"simd\": \"{simd}\",\n  \"workers\": {workers},\n  \
         \"clients\": {SOAK_CLIENTS},\n  \"baseline_rps\": {capacity:.0},\n  \
         \"offered_rps\": {offered:.0},\n  \"overload_factor\": {OVERLOAD_FACTOR:.1},\n  \
         \"sent\": {},\n  \"ok\": {},\n  \"degraded\": {},\n  \
         \"tier_full\": {},\n  \"tier_binary\": {},\n  \"busy\": {},\n  \
         \"draining\": {},\n  \"errors\": {},\n  \"lost\": {},\n  \
         \"availability\": {availability:.4},\n  \"p50_us\": {p50},\n  \"p95_us\": {p95},\n  \
         \"p99_us\": {p99},\n  \"expired\": {expired},\n  \"queue_shed\": {shed},\n  \
         \"panics\": {panics},\n  \"demotions\": {demotions},\n  \
         \"promotions\": {promotions},\n  \"connections_rejected\": {connections_rejected},\n  \
         \"store_faults_injected\": {},\n  \"store_publish_ok\": {},\n  \
         \"store_publish_failed\": {},\n  \"store_audit_failures\": {audit_failures},\n  \
         \"resolver_retries\": {resolver_retries},\n  \
         \"resolver_failures\": {resolver_failures},\n  \
         \"breaker_trips\": {breaker_trips},\n  \
         \"degraded_mismatches\": {},\n  \"forced_degraded_bit_identical\": {}\n}}\n",
        args.soak.as_secs_f64(),
        storm.sent,
        storm.ok,
        storm.degraded,
        // Which prediction tier answered: OK replies come off the full
        // Eq. 6 path, DEGRADED replies off the bit-packed binary tier.
        storm.ok,
        storm.degraded,
        storm.busy,
        storm.draining,
        storm.errs,
        storm.lost,
        faults.injected(),
        publish_ok.load(Ordering::Relaxed),
        publish_failed.load(Ordering::Relaxed),
        storm.degraded_mismatches,
        forced_matches,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/chaos.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("summary written to {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }

    // ---- Gate: the acceptance invariants, enforced by exit code. ----
    let mut violations = Vec::new();
    if availability < 0.99 {
        violations.push(format!("availability {availability:.4} < 0.99"));
    }
    if panics != 0 {
        violations.push(format!("panics = {panics}"));
    }
    if storm.lost != 0 {
        violations.push(format!("lost replies = {}", storm.lost));
    }
    if expired == 0 {
        violations.push("expired = 0 (deadline spike never shed a queued row)".to_string());
    }
    if storm.degraded_mismatches != 0 || !forced_matches {
        violations.push(format!(
            "degraded replies diverged from predict_binary ({} in-soak, forced ok={})",
            storm.degraded_mismatches, forced_matches
        ));
    }
    if audit_failures != 0 {
        violations.push(format!("store audit failures = {audit_failures}"));
    }
    if faults.injected() == 0 {
        violations.push("no store fault ever fired".to_string());
    }
    if violations.is_empty() {
        println!("PASS: all survivability invariants held");
    } else {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        std::process::exit(1);
    }
}
