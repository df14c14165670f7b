//! Chaos end-to-end test: a full RGNP server under a randomized-but-seeded
//! fault storm, driven through the admin verbs. The invariants under test
//! are the serving layer's robustness contract:
//!
//! 1. **Zero panics.** No client or server thread may panic, no matter
//!    which faults fire (worker delays, kills, deliberate batch panics,
//!    bit-flipped model state, corrupted bundles).
//! 2. **Bounded, well-formed replies.** Every request receives exactly one
//!    reply, and it is `OK <finite>`, `DEGRADED <finite>`, or `ERR
//!    <reason>` — never silence.
//! 3. **Full recovery.** After the fault window closes (faults cleared,
//!    corrupted model swept and rolled back), predictions are bit-exact
//!    identical to the pre-fault baseline.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use datasets::Dataset;
use reghd_net::client::PredictReply;
use reghd_net::{serve_rgnp, NetConfig, NetServerHandle, RgnpClient};
use reghd_serve::bundle::{self, ModelBundle};
use reghd_serve::registry::ModelRegistry;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 424_242;
const STORM_CLIENTS: usize = 3;
const STORM_REQUESTS: usize = 8;

fn toy_dataset() -> Dataset {
    let features: Vec<Vec<f32>> = (0..60)
        .map(|i| vec![i as f32 * 0.5, (i % 7) as f32, (i * 3 % 11) as f32])
        .collect();
    let targets: Vec<f32> = features
        .iter()
        .map(|r| 2.0 * r[0] - r[1] + 0.5 * r[2])
        .collect();
    Dataset::new("chaos", features, targets)
}

fn train_bundle(seed: u64) -> ModelBundle {
    let (b, _) = bundle::train(&toy_dataset(), 256, 4, 4, seed, false).unwrap();
    b
}

fn connect(addr: SocketAddr) -> RgnpClient {
    let mut c = RgnpClient::connect(&addr.to_string()).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    c
}

/// One prediction as `(status, value bits)` — equality is bit-exactness.
fn predict_bits(client: &mut RgnpClient, row: &[f32]) -> (&'static str, u32) {
    match client
        .predict("toy", row)
        .expect("server dropped a request")
    {
        PredictReply::Ok(y) => ("ok", y.to_bits()),
        PredictReply::Degraded(y) => ("degraded", y.to_bits()),
        other => panic!("unexpected reply {other:?}"),
    }
}

/// Invariant 2: classifies a reply, panicking on anything malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    Ok,
    Degraded,
    Err,
}

fn classify(reply: PredictReply) -> Reply {
    match reply {
        PredictReply::Ok(y) => {
            assert!(y.is_finite(), "non-finite ok reply: {y}");
            Reply::Ok
        }
        PredictReply::Degraded(y) => {
            assert!(y.is_finite(), "non-finite degraded reply: {y}");
            Reply::Degraded
        }
        PredictReply::Err(msg) => {
            assert!(!msg.trim().is_empty(), "empty err reply");
            Reply::Err
        }
        other => panic!("malformed reply: {other:?}"),
    }
}

/// Fires `STORM_CLIENTS` concurrent clients, each sending
/// `STORM_REQUESTS` predict requests over seeded row indices. Returns the
/// classified replies; panics (failing the test) on any malformed one.
fn storm(addr: SocketAddr, rows: &[Vec<f32>], phase: u64) -> Vec<Reply> {
    let handles: Vec<_> = (0..STORM_CLIENTS)
        .map(|c| {
            let rows = rows.to_vec();
            std::thread::spawn(move || {
                let mut client = connect(addr);
                // Simple seeded LCG so each phase/client walks its own
                // deterministic row sequence.
                let mut state = SEED
                    .wrapping_mul(phase * 31 + c as u64 + 1)
                    .wrapping_add(0x9E37_79B9);
                (0..STORM_REQUESTS)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let idx = (state >> 33) as usize % rows.len();
                        classify(client.predict("toy", &rows[idx]).unwrap())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("storm client panicked"))
        .collect()
}

/// Invariant 3 helper: the server's current answers for every row.
fn snapshot(client: &mut RgnpClient, rows: &[Vec<f32>]) -> Vec<(&'static str, u32)> {
    rows.iter().map(|r| predict_bits(client, r)).collect()
}

fn admin(client: &mut RgnpClient, line: &str) -> Result<String, String> {
    client.admin(line).unwrap()
}

fn start_chaos_server() -> (NetServerHandle, Arc<ModelRegistry>, ModelBundle) {
    let b = train_bundle(101);
    let registry = Arc::new(ModelRegistry::new());
    registry.load_bytes("toy", &b.to_bytes().unwrap()).unwrap();
    let handle = serve_rgnp(
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 3,
            pollers: 2,
            // Short reply timeout so delay faults trip the degraded path
            // quickly instead of stretching the test.
            reply_timeout: Duration::from_millis(100),
            enable_inject: true,
            ..NetConfig::default()
        },
        registry.clone(),
    )
    .unwrap();
    (handle, registry, b)
}

#[test]
fn seeded_fault_storm_recovers_bit_exact() {
    let (handle, _registry, baseline_bundle) = start_chaos_server();
    let addr = handle.local_addr();
    let rows = toy_dataset().features;
    let mut ctl = connect(addr);

    // ---- Baseline: clean server, every reply `ok` and bit-exact. ----
    let baseline = snapshot(&mut ctl, &rows);
    for (reply, want) in baseline.iter().zip(baseline_bundle.predict(&rows).unwrap()) {
        assert_eq!(*reply, ("ok", want.to_bits()));
    }

    // ---- Fault window 1: stalled workers → degraded replies. ----
    assert_eq!(admin(&mut ctl, "inject delay 300"), Ok(String::new()));
    let replies = storm(addr, &rows, 1);
    assert_eq!(replies.len(), STORM_CLIENTS * STORM_REQUESTS);
    assert!(
        replies.contains(&Reply::Degraded),
        "a 300ms stall against a 100ms reply timeout must degrade: {replies:?}"
    );
    assert!(
        replies.iter().all(|r| *r != Reply::Err),
        "stalls must degrade, not error: {replies:?}"
    );
    assert_eq!(admin(&mut ctl, "inject clear"), Ok(String::new()));

    // ---- Fault window 2: kill a worker mid-traffic. ----
    assert_eq!(admin(&mut ctl, "inject kill 1"), Ok(String::new()));
    let replies = storm(addr, &rows, 2);
    assert_eq!(replies.len(), STORM_CLIENTS * STORM_REQUESTS);
    assert!(
        replies.iter().all(|r| *r != Reply::Err),
        "a killed worker's dropped batch must degrade, not error: {replies:?}"
    );

    // ---- Fault window 3: deliberate worker panics (containment). ----
    assert_eq!(admin(&mut ctl, "inject panic 2"), Ok(String::new()));
    let replies = storm(addr, &rows, 3);
    assert_eq!(replies.len(), STORM_CLIENTS * STORM_REQUESTS);
    assert!(
        replies.iter().all(|r| *r != Reply::Err),
        "a contained panic must degrade, not error: {replies:?}"
    );
    handle.injector().clear();

    // ---- Recovery A: faults cleared, untouched model — bit-exact. ----
    assert_eq!(snapshot(&mut ctl, &rows), baseline);

    // ---- Fault window 4: bit flips in served hypervectors. ----
    let reply = admin(&mut ctl, &format!("inject bitflip toy 0.25 {SEED}")).unwrap();
    assert!(reply.starts_with("injected flips="), "{reply}");
    let faulted = snapshot(&mut ctl, &rows);
    assert_ne!(faulted, baseline, "flips must perturb some prediction");
    // Every faulted reply is still well-formed and finite.
    for row in &rows {
        classify(ctl.predict("toy", row).unwrap());
    }

    // ---- Recovery B: sweep detects the corruption and rolls back. ----
    assert_eq!(
        admin(&mut ctl, "sweep"),
        Ok("swept checked=1 corrupted=1 rolled_back=1".to_string())
    );
    assert_eq!(
        snapshot(&mut ctl, &rows),
        baseline,
        "post-rollback predictions must match the pre-fault model bit-exactly"
    );

    // ---- Fault window 5: corrupted bundle bytes are refused at load. ----
    let v2 = train_bundle(202);
    let mut bytes = v2.to_bytes().unwrap();
    let idx = bytes.len() - 100;
    bytes[idx] ^= 0x40;
    let dir = std::env::temp_dir();
    let bad_path = dir.join(format!("reghd-chaos-bad-{}.rghd", std::process::id()));
    std::fs::write(&bad_path, &bytes).unwrap();
    let err = admin(&mut ctl, &format!("reload toy {}", bad_path.display())).unwrap_err();
    assert!(
        err.contains("checksum mismatch"),
        "corrupt bundle must be rejected with a checksum error: {err}"
    );
    assert_eq!(
        snapshot(&mut ctl, &rows),
        baseline,
        "a refused reload must leave the old version serving"
    );

    // ---- Fault window 6: canary-failing bundle is refused at load. ----
    let lying = train_bundle(303)
        .with_canary(vec![rows[0].clone()], vec![123_456.0])
        .unwrap();
    let lie_path = dir.join(format!("reghd-chaos-lie-{}.rghd", std::process::id()));
    lying.save(lie_path.to_str().unwrap()).unwrap();
    let err = admin(&mut ctl, &format!("reload toy {}", lie_path.display())).unwrap_err();
    assert!(
        err.starts_with("canary check failed"),
        "canary mismatch must be refused: {err}"
    );
    assert_eq!(
        snapshot(&mut ctl, &rows),
        baseline,
        "a canary-refused reload must leave the old version serving"
    );

    // ---- A clean reload still works after the whole storm. ----
    let good_path = dir.join(format!("reghd-chaos-good-{}.rghd", std::process::id()));
    v2.save(good_path.to_str().unwrap()).unwrap();
    assert_eq!(
        admin(&mut ctl, &format!("reload toy {}", good_path.display())),
        Ok("reloaded toy v2".to_string())
    );
    let v2_want: Vec<(&str, u32)> = v2
        .predict(&rows)
        .unwrap()
        .into_iter()
        .map(|y| ("ok", y.to_bits()))
        .collect();
    assert_eq!(snapshot(&mut ctl, &rows), v2_want);

    // ---- Bookkeeping: the storm is visible in the metrics. ----
    let stats = ctl.stats().unwrap();
    let stat = stats
        .lines()
        .find(|l| l.starts_with("stat toy "))
        .unwrap_or_else(|| panic!("no stat line in {stats}"));
    let field = |name: &str| -> u64 {
        stat.split(&format!("{name}="))
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no {name}= in {stat}"))
    };
    assert!(field("degraded") >= 1, "{stat}");
    assert!(field("panics") >= 1, "{stat}");
    let server = stats
        .lines()
        .find(|l| l.starts_with("server "))
        .unwrap_or_else(|| panic!("no server line in {stats}"));
    assert!(server.contains("canary_failures=1"), "{server}");
    assert!(server.contains("rollbacks=1"), "{server}");
    assert!(server.contains("sweeps=1"), "{server}");

    handle.shutdown();
    for p in [&bad_path, &lie_path, &good_path] {
        let _ = std::fs::remove_file(p);
    }
}
