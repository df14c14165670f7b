//! Cross-crate bit-exactness of the row-parallel execution layer.
//!
//! The contract (see `hdc::par`): batches are split into contiguous row
//! chunks, each row is computed with exactly the sequential arithmetic,
//! and chunk results are concatenated in order — so `encode_batch` and
//! `predict_batch` must be **bit-identical** at every thread count, for
//! every `ClusterMode` × `PredictionMode` combination, all the way up
//! through a train-then-serve RGNP roundtrip.

use proptest::prelude::*;
use reghd_net::client::PredictReply;
use reghd_net::{serve_rgnp, NetConfig, RgnpClient};
use reghd_repro::prelude::*;
use reghd_repro::reghd::PredictScratch;
use reghd_serve::{bundle, ModelRegistry};
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 4];

/// Deterministic synthetic regression rows (no RNG dependency needed).
fn rows(n: usize, f: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
    let xs: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..f)
                .map(|j| ((i * 7 + j * 13) % 19) as f32 / 9.5 - 1.0)
                .collect()
        })
        .collect();
    let ys = xs
        .iter()
        .map(|x| x[0] + (2.0 * x[1]).sin() - 0.5 * x[f - 1])
        .collect();
    (xs, ys)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn predict_batch_is_bit_identical_in_every_mode_at_every_thread_count() {
    let (xs, ys) = rows(60, 4);
    for cluster in [
        ClusterMode::Integer,
        ClusterMode::FrameworkBinary,
        ClusterMode::NaiveBinary,
    ] {
        for pred in [
            PredictionMode::Full,
            PredictionMode::BinaryQuery,
            PredictionMode::BinaryModel,
            PredictionMode::BinaryBoth,
        ] {
            let cfg = RegHdConfig::builder()
                .dim(256)
                .models(2)
                .max_epochs(3)
                .min_epochs(1)
                .seed(5)
                .cluster_mode(cluster)
                .prediction_mode(pred)
                .build();
            let mut m = RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(4, 256, 5)));
            m.fit(&xs, &ys);
            let mut scratch = PredictScratch::default();
            let seq = m.predict(&xs);
            let seq_deg = m.predict_batch_binary_with(&xs, &mut scratch);
            for threads in THREADS {
                m.set_threads(threads);
                assert_eq!(
                    bits(&m.predict(&xs)),
                    bits(&seq),
                    "{cluster:?}/{pred:?} threads={threads}"
                );
                assert_eq!(
                    bits(&m.predict_batch_binary_with(&xs, &mut scratch)),
                    bits(&seq_deg),
                    "degraded {cluster:?}/{pred:?} threads={threads}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary (bounded) rows encode and fit identically regardless of
    /// the thread count.
    #[test]
    fn encode_and_fit_are_bit_identical_across_threads(
        xs in prop::collection::vec(prop::collection::vec(-2.0f32..2.0, 3), 10..40)
    ) {
        let enc = NonlinearEncoder::new(3, 256, 11);
        let seq: Vec<Vec<u32>> = enc
            .encode_batch(&xs, 1)
            .iter()
            .map(|hv| hv.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        for threads in THREADS {
            let par: Vec<Vec<u32>> = enc
                .encode_batch(&xs, threads)
                .iter()
                .map(|hv| hv.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect();
            prop_assert_eq!(&par, &seq, "threads={}", threads);
        }

        let ys: Vec<f32> = xs.iter().map(|x| x[0] - x[2]).collect();
        let fit = |threads: usize| {
            let cfg = RegHdConfig::builder()
                .dim(256).models(2).max_epochs(2).min_epochs(1).seed(11).build();
            let mut m = RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(3, 256, 11)));
            m.set_threads(threads);
            m.fit(&xs, &ys);
            m.set_threads(1);
            bits(&m.predict(&xs))
        };
        let seq = fit(1);
        for threads in THREADS {
            prop_assert_eq!(fit(threads), seq.clone(), "threads={}", threads);
        }
    }
}

/// One `PREDICT` frame per row against a running RGNP server; replies
/// come back as f32 bits.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn serve_and_predict(threads: usize, xs: &[Vec<f32>]) -> Vec<u32> {
    let (train_xs, train_ys) = rows(80, 4);
    let ds = datasets::Dataset::new("par-eq", train_xs, train_ys);
    let (bundle, _) = bundle::train(&ds, 256, 2, 6, 3, false).unwrap();
    let bytes = bundle.to_bytes().unwrap();

    let registry = Arc::new(ModelRegistry::new());
    registry.set_default_threads(threads);
    registry.load_bytes("m", &bytes).unwrap();
    let handle = serve_rgnp(
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            threads,
            ..NetConfig::default()
        },
        registry,
    )
    .unwrap();

    let mut client = RgnpClient::connect(&handle.local_addr().to_string()).unwrap();
    client
        .set_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let replies = xs
        .iter()
        .map(|x| match client.predict("m", x).unwrap() {
            PredictReply::Ok(y) => y.to_bits(),
            other => panic!("reply: {other:?}"),
        })
        .collect();
    drop(client);
    handle.shutdown();
    replies
}

#[test]
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn train_then_serve_roundtrip_matches_sequential_exactly() {
    let (xs, _) = rows(12, 4);
    let sequential = serve_and_predict(1, &xs);
    let threaded = serve_and_predict(4, &xs);
    assert_eq!(threaded, sequential);
}
