//! Live-socket tests for the RGNP front-end: framing robustness
//! (fragmented reads, pipelined bursts, oversized frames), protocol
//! semantics, admin verbs, the serving knobs, and admission control.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use reghd_net::client::PredictReply;
use reghd_net::frame::{self, status, FrameBuf, Step};
use reghd_net::{serve_rgnp, NetConfig, NetServerHandle, RgnpClient};
use reghd_serve::bundle;
use reghd_serve::registry::ModelRegistry;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn toy_registry() -> Arc<ModelRegistry> {
    let features: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32, (i * 2) as f32]).collect();
    let targets: Vec<f32> = features.iter().map(|r| r[0] + r[1]).collect();
    let ds = datasets::Dataset::new("toy", features, targets);
    let (b, _) = bundle::train(&ds, 128, 2, 3, 11, false).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.load_bytes("toy", &b.to_bytes().unwrap()).unwrap();
    registry
}

fn start_server(cfg_mut: impl FnOnce(&mut NetConfig)) -> (NetServerHandle, Arc<ModelRegistry>) {
    let registry = toy_registry();
    let mut cfg = NetConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        pollers: 2,
        ..NetConfig::default()
    };
    cfg_mut(&mut cfg);
    let handle = serve_rgnp(cfg, registry.clone()).unwrap();
    (handle, registry)
}

/// Reads frames from a raw stream until `n` have arrived.
fn read_frames(stream: &mut TcpStream, n: usize) -> Vec<frame::Frame> {
    let mut buf = FrameBuf::new();
    let mut scratch = [0u8; 4096];
    let mut out = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    while out.len() < n {
        loop {
            match buf.next_frame(frame::DEFAULT_MAX_FRAME) {
                Step::Ready(f) => out.push(f),
                Step::Incomplete => break,
                Step::Violation(msg) => panic!("client saw violation: {msg}"),
            }
        }
        if out.len() >= n {
            break;
        }
        let got = stream.read(&mut scratch).unwrap();
        assert!(got > 0, "server closed early after {} frames", out.len());
        buf.extend(&scratch[..got]);
    }
    out
}

#[test]
fn predict_and_control_opcodes_over_loopback() {
    let (handle, _registry) = start_server(|_| {});
    let addr = handle.local_addr().to_string();
    let mut c = RgnpClient::connect(&addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    c.ping().unwrap();
    match c.predict("toy", &[3.0, 4.0]).unwrap() {
        PredictReply::Ok(y) => assert!(y.is_finite()),
        other => panic!("expected ok, got {other:?}"),
    }
    assert_eq!(
        c.predict("ghost", &[1.0, 2.0]).unwrap(),
        PredictReply::Err("unknown model ghost".to_string())
    );
    assert_eq!(
        c.predict("toy", &[f32::NAN, 1.0]).unwrap(),
        PredictReply::Err("non-finite feature value".to_string())
    );
    let stats = c.stats().unwrap();
    assert!(stats.contains("server connections="), "{stats}");
    let list = c.list().unwrap();
    assert!(list.contains("model toy"), "{list}");
    assert_eq!(
        c.train_status().unwrap(),
        Err("no trainer attached".to_string())
    );
    let final_stats = handle.shutdown();
    assert!(!final_stats.is_empty());
}

#[test]
fn batch_predict_matches_singles_bit_exactly() {
    let (handle, _registry) = start_server(|_| {});
    let addr = handle.local_addr().to_string();
    let mut c = RgnpClient::connect(&addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let rows = vec![vec![1.0, 2.0], vec![3.5, -1.0], vec![0.0, 9.0]];
    let batch = c.predict_batch("toy", &rows).unwrap();
    assert_eq!(batch.len(), 3);
    for (row, (st, y)) in rows.iter().zip(&batch) {
        assert_eq!(*st, status::OK);
        match c.predict("toy", row).unwrap() {
            PredictReply::Ok(single) => assert_eq!(single.to_bits(), y.to_bits()),
            other => panic!("expected ok, got {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn fragmented_byte_at_a_time_request_still_parses() {
    let (handle, _registry) = start_server(|_| {});
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    let mut req = Vec::new();
    frame::encode_predict(&mut req, 7, "toy", &[3.0, 4.0]);
    for b in &req {
        s.write_all(std::slice::from_ref(b)).unwrap();
        s.flush().unwrap();
    }
    let frames = read_frames(&mut s, 1);
    assert_eq!(frames[0].req_id, 7);
    assert_eq!(frames[0].kind, status::OK);
    let y = frame::decode_value_reply(&frames[0].payload).unwrap();
    assert!(y.is_finite());
    handle.shutdown();
}

#[test]
fn pipelined_burst_of_100_frames_all_answered() {
    let (handle, _registry) = start_server(|_| {});
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    let mut burst = Vec::new();
    for id in 1..=100u64 {
        burst.extend_from_slice(&{
            let mut one = Vec::new();
            frame::encode_predict(&mut one, id, "toy", &[id as f32, 2.0 * id as f32]);
            one
        });
    }
    s.write_all(&burst).unwrap();
    let frames = read_frames(&mut s, 100);
    let mut seen = [false; 101];
    for f in &frames {
        assert!(f.kind == status::OK || f.kind == status::DEGRADED, "{f:?}");
        let id = f.req_id as usize;
        assert!((1..=100).contains(&id), "unexpected req id {id}");
        assert!(!seen[id], "req id {id} answered twice");
        seen[id] = true;
        frame::decode_value_reply(&f.payload).unwrap();
    }
    handle.shutdown();
}

#[test]
fn oversized_frame_gets_err_and_close_but_server_survives() {
    let (handle, _registry) = start_server(|c| c.max_frame = 4096);
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    // Declare a frame far over the cap; the server must not buffer it.
    s.write_all(&8192u32.to_le_bytes()).unwrap();
    s.write_all(&[0u8; 64]).unwrap();
    let frames = read_frames(&mut s, 1);
    assert_eq!(frames[0].kind, status::ERR);
    assert_eq!(frames[0].req_id, 0);
    // After the terminal ERR the connection closes.
    let mut rest = Vec::new();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    // The server itself is unharmed: a new connection predicts fine.
    let mut c = RgnpClient::connect(&handle.local_addr().to_string()).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        c.predict("toy", &[1.0, 2.0]).unwrap(),
        PredictReply::Ok(_)
    ));
    assert!(
        handle
            .metrics()
            .bad_requests
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown();
}

#[test]
fn zero_length_frame_is_a_violation() {
    let (handle, _registry) = start_server(|_| {});
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    // len < 9 can never hold the kind + req-id header.
    s.write_all(&3u32.to_le_bytes()).unwrap();
    s.write_all(&[0u8; 3]).unwrap();
    let frames = read_frames(&mut s, 1);
    assert_eq!(frames[0].kind, status::ERR);
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_with_busy_frame() {
    let (handle, _registry) = start_server(|c| c.max_connections = 1);
    let addr = handle.local_addr().to_string();
    let mut first = RgnpClient::connect(&addr).unwrap();
    first.set_timeout(Some(Duration::from_secs(10))).unwrap();
    first.ping().unwrap(); // ensure the first conn is registered
    let mut second = TcpStream::connect(handle.local_addr()).unwrap();
    let frames = read_frames(&mut second, 1);
    assert_eq!(frames[0].kind, status::BUSY);
    let mut rest = Vec::new();
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    second.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "rejected conn must be closed");
    assert_eq!(
        handle
            .metrics()
            .connections_rejected
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // The accepted connection still works.
    first.ping().unwrap();
    // Closing it frees the slot again.
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while client_ping(&addr).is_err() {
        assert!(
            std::time::Instant::now() < deadline,
            "slot must free after close"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}

fn client_ping(addr: &str) -> std::io::Result<()> {
    let mut c = RgnpClient::connect(addr)?;
    c.set_timeout(Some(Duration::from_secs(5)))?;
    c.ping()
}

#[test]
fn corrupt_flagged_model_answers_degraded_inline() {
    let (handle, registry) = start_server(|_| {});
    registry
        .get("toy")
        .unwrap()
        .corrupt
        .store(true, std::sync::atomic::Ordering::Relaxed);
    let mut c = RgnpClient::connect(&handle.local_addr().to_string()).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match c.predict("toy", &[3.0, 4.0]).unwrap() {
        PredictReply::Degraded(y) => assert!(y.is_finite()),
        other => panic!("expected degraded, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn requested_binary_tier_answers_degraded_with_binary_value() {
    let (handle, registry) = start_server(|_| {});
    let mut c = RgnpClient::connect(&handle.local_addr().to_string()).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let row = vec![3.0f32, 4.0];
    let expected = registry
        .get("toy")
        .unwrap()
        .bundle
        .predict_binary(std::slice::from_ref(&row))
        .unwrap()[0];
    match c
        .predict_tier("toy", &row, frame::PredictionTier::Binary)
        .unwrap()
    {
        PredictReply::Degraded(y) => assert_eq!(y, expected),
        other => panic!("expected degraded (binary tier), got {other:?}"),
    }
    // The same row on the default tier still answers OK at full precision.
    match c.predict("toy", &row).unwrap() {
        PredictReply::Ok(y) => assert!(y.is_finite()),
        other => panic!("expected ok, got {other:?}"),
    }
    handle.shutdown();
}

fn client(handle: &NetServerHandle) -> RgnpClient {
    let mut c = RgnpClient::connect(&handle.local_addr().to_string()).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

fn ok_bits(reply: PredictReply) -> u32 {
    match reply {
        PredictReply::Ok(y) => y.to_bits(),
        other => panic!("expected ok, got {other:?}"),
    }
}

#[test]
fn unknown_opcode_and_admin_verb_are_request_errors() {
    let (handle, _registry) = start_server(|_| {});
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    let mut req = Vec::new();
    frame::encode(&mut req, 0x7E, 5, &[]);
    s.write_all(&req).unwrap();
    let frames = read_frames(&mut s, 1);
    assert_eq!(frames[0].kind, status::ERR);
    assert_eq!(frames[0].payload, b"unknown opcode 126");
    let mut c = client(&handle);
    assert_eq!(
        c.admin("frobnicate").unwrap(),
        Err("unknown command frobnicate".to_string())
    );
    // The connection stays usable after request errors.
    c.ping().unwrap();
    handle.shutdown();
}

#[test]
fn non_finite_features_are_request_errors() {
    let (handle, _registry) = start_server(|_| {});
    let mut c = client(&handle);
    for row in [
        [f32::NAN, 1.0],
        [1.0, f32::INFINITY],
        [f32::NEG_INFINITY, 0.0],
    ] {
        assert_eq!(
            c.predict("toy", &row).unwrap(),
            PredictReply::Err("non-finite feature value".to_string())
        );
    }
    // The model itself is untouched — a clean row still predicts.
    ok_bits(c.predict("toy", &[2.0, 4.0]).unwrap());
    assert!(
        handle.metrics().bad_requests.load(Ordering::Relaxed) >= 3,
        "non-finite rows must count as bad requests"
    );
    handle.shutdown();
}

#[test]
fn admin_sweep_reports_and_inject_is_gated() {
    let (handle, _registry) = start_server(|_| {});
    let mut c = client(&handle);
    assert_eq!(
        c.admin("sweep").unwrap(),
        Ok("swept checked=1 corrupted=0 rolled_back=0".to_string())
    );
    // inject is refused unless the server enables it.
    assert_eq!(
        c.admin("inject delay 10").unwrap(),
        Err("inject disabled".to_string())
    );
    assert_eq!(handle.metrics().sweeps.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn admin_bitflip_then_sweep_recovers_bit_exact() {
    let (handle, _registry) = start_server(|c| c.enable_inject = true);
    let mut c = client(&handle);
    let clean = ok_bits(c.predict("toy", &[3.0, 4.0]).unwrap());
    let reply = c.admin("inject bitflip toy 0.3 7").unwrap().unwrap();
    assert!(reply.starts_with("injected flips="), "{reply}");
    let faulty = ok_bits(c.predict("toy", &[3.0, 4.0]).unwrap());
    assert_ne!(clean, faulty, "bit flips must perturb the prediction");
    assert_eq!(
        c.admin("sweep").unwrap(),
        Ok("swept checked=1 corrupted=1 rolled_back=1".to_string())
    );
    let recovered = ok_bits(c.predict("toy", &[3.0, 4.0]).unwrap());
    assert_eq!(recovered, clean, "rollback must be bit-exact");
    handle.shutdown();
}

#[test]
fn stats_lists_models_and_counters() {
    let (handle, _registry) = start_server(|_| {});
    let mut c = client(&handle);
    ok_bits(c.predict("toy", &[1.0, 2.0]).unwrap());
    let stats = c.stats().unwrap();
    let lines: Vec<&str> = stats.lines().collect();
    assert!(
        lines.iter().any(|l| l.starts_with("model toy v1")),
        "{lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("stat toy ") && l.contains("ok=1")),
        "{lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("server ")
            && l.contains("sweeps=")
            && l.contains("tier=full")
            && l.contains("connections_rejected=0")),
        "{lines:?}"
    );
    handle.shutdown();
}

#[test]
fn zero_deadline_expires_rows_pre_compute_and_degrades() {
    let (handle, _registry) = start_server(|c| c.deadline = Some(Duration::ZERO));
    let mut c = client(&handle);
    match c.predict("toy", &[3.0, 4.0]).unwrap() {
        PredictReply::Degraded(y) => assert!(y.is_finite()),
        other => panic!("expected degraded, got {other:?}"),
    }
    let m = handle.metrics().for_model("toy");
    assert_eq!(m.expired.load(Ordering::Relaxed), 1);
    assert_eq!(
        m.ok.load(Ordering::Relaxed),
        0,
        "an expired row must never reach the full-precision path"
    );
    handle.shutdown();
}

#[test]
fn overload_replies_busy_and_drain_replies_draining() {
    // One worker pinned on a slow batch, a 2-row queue, and a long
    // coalescing window: rows 2–3 wait in the queue, row 4 is refused
    // with BUSY, and shutdown answers the queued rows DRAINING.
    let (handle, _registry) = start_server(|c| {
        c.workers = 1;
        c.shed = None;
        c.batcher = reghd_serve::BatcherConfig {
            max_batch: 32,
            max_wait: Duration::from_secs(5),
            queue_cap: 2,
        };
    });
    handle
        .injector()
        .set_worker_delay(Duration::from_millis(1500));
    let addr = handle.local_addr().to_string();
    let send = |row: [f32; 2]| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = RgnpClient::connect(&addr).unwrap();
            c.set_timeout(Some(Duration::from_secs(10))).unwrap();
            c.predict("toy", &row).unwrap()
        })
    };
    let c1 = send([1.0, 2.0]);
    std::thread::sleep(Duration::from_millis(200));
    let c2 = send([3.0, 4.0]);
    let c3 = send([5.0, 6.0]);
    std::thread::sleep(Duration::from_millis(200));

    // Queue full (rows 2–3): explicit admission-control refusal.
    let mut c = client(&handle);
    assert_eq!(c.predict("toy", &[7.0, 8.0]).unwrap(), PredictReply::Busy);

    let hub = handle.metrics();
    handle.shutdown();
    assert!(matches!(c1.join().unwrap(), PredictReply::Ok(_)));
    assert_eq!(c2.join().unwrap(), PredictReply::Draining);
    assert_eq!(c3.join().unwrap(), PredictReply::Draining);
    let m = hub.for_model("toy");
    assert_eq!(m.shed.load(Ordering::Relaxed), 1);
    assert_eq!(
        m.stopped.load(Ordering::Relaxed),
        2,
        "queued rows answered at drain must count as stopped, not shed"
    );
}

#[test]
fn list_replies_name_sorted() {
    let (handle, registry) = start_server(|_| {});
    let features: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32, (i * 3) as f32]).collect();
    let targets: Vec<f32> = features.iter().map(|r| r[0] - r[1]).collect();
    let ds = datasets::Dataset::new("extra", features, targets);
    let (b, _) = bundle::train(&ds, 128, 2, 3, 12, false).unwrap();
    registry
        .load_bytes("alpha", &b.to_bytes().unwrap())
        .unwrap();
    let list = client(&handle).list().unwrap();
    let lines: Vec<&str> = list.lines().collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].starts_with("model alpha v1 "), "{lines:?}");
    assert!(lines[1].starts_with("model toy v1 "), "{lines:?}");
    handle.shutdown();
}

#[test]
fn train_status_renders_attached_trainer() {
    let status = Arc::new(reghd_serve::TrainStatus::new());
    status.record_sample(0.5);
    status.record_drift(0);
    let (handle, _registry) = start_server(|c| c.train_status = Some(status.clone()));
    let mut c = client(&handle);
    let reply = c.train_status().unwrap().unwrap();
    assert!(reply.starts_with("train samples=1"), "{reply}");
    assert!(reply.contains("drift_events=1"), "{reply}");
    status.record_checkpoint();
    let reply = c.train_status().unwrap().unwrap();
    assert!(reply.contains("checkpoints=1"), "{reply}");
    handle.shutdown();
}

#[test]
fn background_sweeper_rolls_back_injected_faults() {
    let (handle, registry) = start_server(|c| c.sweep_interval = Some(Duration::from_millis(25)));
    registry.inject_model_faults("toy", 0.3, 5).unwrap();
    let hub = handle.metrics();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while hub.rollbacks.load(Ordering::Relaxed) == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        hub.rollbacks.load(Ordering::Relaxed) >= 1,
        "sweeper must roll the injected fault back"
    );
    assert!(hub.sweeps.load(Ordering::Relaxed) >= 1);
    handle.shutdown();
}

#[test]
fn threaded_server_predictions_match_sequential() {
    // The threads knob must not change a single reply bit: the parallel
    // schedule is bit-identical.
    let rows = [[3.0f32, 4.0], [10.5, -2.25]];
    let mut replies = Vec::new();
    for threads in [1usize, 4] {
        let (handle, registry) = start_server(|c| c.threads = threads);
        assert_eq!(registry.default_threads(), threads);
        assert_eq!(
            registry.get("toy").unwrap().bundle.model().threads(),
            threads
        );
        let mut c = client(&handle);
        let got: Vec<u32> = rows
            .iter()
            .map(|r| ok_bits(c.predict("toy", r).unwrap()))
            .collect();
        replies.push(got);
        handle.shutdown();
    }
    assert_eq!(replies[0], replies[1]);
}

#[test]
fn fast_trig_server_predictions_stay_close_to_exact() {
    // Fast trig may move replies, but only within the fast-trig error
    // envelope: finite and numerically close to the exact-mode answers.
    let rows = [[3.0f32, 4.0], [10.5, -2.25]];
    let mut replies: Vec<Vec<f32>> = Vec::new();
    for trig in [hdc::TrigMode::Exact, hdc::TrigMode::Fast] {
        let (handle, registry) = start_server(|c| c.trig = trig);
        assert_eq!(registry.default_trig(), trig);
        assert_eq!(
            registry.get("toy").unwrap().bundle.trig_mode(),
            trig,
            "startup must push the trig knob into loaded models"
        );
        let mut c = client(&handle);
        let got: Vec<f32> = rows
            .iter()
            .map(|r| f32::from_bits(ok_bits(c.predict("toy", r).unwrap())))
            .collect();
        replies.push(got);
        handle.shutdown();
    }
    for (e, f) in replies[0].iter().zip(&replies[1]) {
        assert!(f.is_finite());
        assert!(
            (e - f).abs() <= 0.05 * (1.0 + e.abs()),
            "exact={e} fast={f}"
        );
    }
}
