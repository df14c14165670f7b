//! End-to-end serving test over loopback RGNP: train a tiny model, serve
//! it, hammer it from concurrent clients, hot-swap the model mid-stream
//! through the `reload` admin verb, and verify that every request gets a
//! correct answer for whichever version it resolved — zero drops, zero
//! cross-version corruption.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use datasets::Dataset;
use reghd_net::client::PredictReply;
use reghd_net::{serve_rgnp, NetConfig, RgnpClient};
use reghd_serve::bundle::{self, ModelBundle};
use reghd_serve::registry::ModelRegistry;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const CLIENTS: usize = 4;
const PHASE1: usize = 100; // requests before the swap window opens
const PHASE2: usize = 150; // requests racing the hot swap
const PHASE3: usize = 50; // requests strictly after the swap confirmed

fn toy_dataset() -> Dataset {
    let features: Vec<Vec<f32>> = (0..60)
        .map(|i| vec![i as f32 * 0.5, (i % 7) as f32, (i * 3 % 11) as f32])
        .collect();
    let targets: Vec<f32> = features
        .iter()
        .map(|r| 2.0 * r[0] - r[1] + 0.5 * r[2])
        .collect();
    Dataset::new("e2e", features, targets)
}

fn train_bundle(seed: u64) -> ModelBundle {
    let (b, _) = bundle::train(&toy_dataset(), 256, 4, 4, seed, false).unwrap();
    b
}

/// The exact full-precision reply bits the server must produce per row.
fn expected_bits(b: &ModelBundle, rows: &[Vec<f32>]) -> Vec<u32> {
    b.predict(rows)
        .unwrap()
        .into_iter()
        .map(f32::to_bits)
        .collect()
}

fn connect(addr: SocketAddr) -> RgnpClient {
    let mut c = RgnpClient::connect(&addr.to_string()).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    c
}

fn predict_bits(client: &mut RgnpClient, row: &[f32]) -> u32 {
    match client
        .predict("toy", row)
        .expect("server dropped a request")
    {
        PredictReply::Ok(y) => y.to_bits(),
        other => panic!("expected a full-precision answer, got {other:?}"),
    }
}

#[test]
fn concurrent_clients_with_mid_stream_hot_swap() {
    let v1 = train_bundle(101);
    let v2 = train_bundle(202);
    let rows: Vec<Vec<f32>> = toy_dataset().features;
    let want_v1 = expected_bits(&v1, &rows);
    let want_v2 = expected_bits(&v2, &rows);
    // The two models must actually disagree somewhere, otherwise the
    // version assertions below are vacuous.
    assert_ne!(want_v1, want_v2, "seeds produced identical models");

    let v2_path = std::env::temp_dir().join(format!("reghd-e2e-{}.rghd", std::process::id()));
    v2.save(v2_path.to_str().unwrap()).unwrap();

    let registry = Arc::new(ModelRegistry::new());
    registry.load_bytes("toy", &v1.to_bytes().unwrap()).unwrap();
    let handle = serve_rgnp(
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 3,
            pollers: 2,
            // The adaptive shed controller would answer some rows on the
            // binary tier under this burst; the test pins full precision.
            shed: None,
            ..NetConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = handle.local_addr();

    // Barrier holds every client at the phase-1/phase-2 boundary so the
    // hot swap provably races phase-2 traffic; `swapped` gates phase 3.
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let swapped = Arc::new(AtomicBool::new(false));

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = barrier.clone();
            let swapped = swapped.clone();
            let rows = rows.clone();
            let want_v1 = want_v1.clone();
            let want_v2 = want_v2.clone();
            std::thread::spawn(move || {
                let mut client = connect(addr);
                let mut v1_seen = 0usize;
                let mut v2_seen = 0usize;
                // Phase 1: the swap has not happened yet — every reply
                // must match version 1 exactly.
                for i in 0..PHASE1 {
                    let idx = (c * 31 + i) % rows.len();
                    let got = predict_bits(&mut client, &rows[idx]);
                    assert_eq!(got, want_v1[idx], "phase 1 mismatch at idx {idx}");
                    v1_seen += 1;
                }
                barrier.wait();
                // Phase 2: racing the hot swap — each reply must match
                // exactly one of the two versions, never a blend.
                for i in 0..PHASE2 {
                    let idx = (c * 17 + i) % rows.len();
                    let got = predict_bits(&mut client, &rows[idx]);
                    if got == want_v1[idx] {
                        v1_seen += 1;
                    } else if got == want_v2[idx] {
                        v2_seen += 1;
                    } else {
                        panic!("phase 2 reply matches neither version at idx {idx}: {got:#x}");
                    }
                }
                // Phase 3: strictly after the swap — must be version 2.
                while !swapped.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                for i in 0..PHASE3 {
                    let idx = (c * 7 + i) % rows.len();
                    let got = predict_bits(&mut client, &rows[idx]);
                    assert_eq!(got, want_v2[idx], "phase 3 mismatch at idx {idx}");
                    v2_seen += 1;
                }
                (v1_seen, v2_seen)
            })
        })
        .collect();

    // Release phase 2, then swap while requests are in flight.
    barrier.wait();
    let mut ctl = connect(addr);
    let reply = ctl
        .admin(&format!("reload toy {}", v2_path.display()))
        .unwrap();
    assert_eq!(reply, Ok("reloaded toy v2".to_string()));
    swapped.store(true, Ordering::SeqCst);

    let mut total_v1 = 0;
    let mut total_v2 = 0;
    for h in clients {
        let (v1_seen, v2_seen) = h.join().expect("client thread panicked");
        assert_eq!(
            v1_seen + v2_seen,
            PHASE1 + PHASE2 + PHASE3,
            "a client lost replies"
        );
        total_v1 += v1_seen;
        total_v2 += v2_seen;
    }
    // Both versions must have actually served traffic.
    assert!(total_v1 >= CLIENTS * PHASE1);
    assert!(total_v2 >= CLIENTS * PHASE3);

    // The stats dump must account for every row and a live histogram.
    let stats = ctl.stats().unwrap();
    let total = CLIENTS * (PHASE1 + PHASE2 + PHASE3);
    let stat = stats
        .lines()
        .find(|l| l.starts_with("stat toy "))
        .unwrap_or_else(|| panic!("no stat line in {stats}"));
    assert!(stat.contains(&format!("ok={total}")), "{stat}");
    assert!(stat.contains("shed=0"), "{stat}");
    let p50: u64 = stat
        .split("p50us=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(p50 > 0, "latency histogram must be non-empty: {stat}");
    assert!(
        stats.lines().any(|l| l.starts_with("model toy v2")),
        "{stats}"
    );

    let final_stats = handle.shutdown();
    assert!(final_stats
        .iter()
        .any(|l| l.contains(&format!("ok={total}"))));
    let _ = std::fs::remove_file(&v2_path);
}
