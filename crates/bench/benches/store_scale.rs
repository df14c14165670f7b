//! Store scale: a million resident per-user models on one box.
//!
//! Stands up a [`reghd_store::ModelStore`] with 1M resident keys (bundle
//! headers indexed, bodies cold in mmap'd packfiles), then measures the
//! numbers that justify the design:
//!
//! * **resident overhead** — RSS before/after indexing 1M keys: the
//!   per-key cost of *residency* (index entry + shard routing), as
//!   opposed to the per-key cost of a *decoded* model (LRU-bounded);
//! * **cold-load latency** — p50/p99 of `get()` on keys outside the hot
//!   set: mmap read + lazy section verification + decode;
//! * **hot-hit latency** — p50/p99 of `get()` on a resident decode;
//! * **hot-swap latency** — p50/p99 of a canary-gated `publish_full` to
//!   one key, and an assertion that the swap leaves every other key's
//!   decoded model untouched (pointer identity).
//!
//! Plain `main` harness; `--test` runs a small configuration. Writes
//! `results/store.json` (including `cores` — latency percentiles are only
//! comparable within a machine class).

use reghd::config::RegHdConfig;
use reghd::{RegHdRegressor, Regressor};
use reghd_serve::bundle::{encoder_spec, ModelBundle};
use reghd_store::{ModelStore, StoreConfig};
use std::sync::Arc;
use std::time::Instant;

const FEATURES: usize = 4;
const DIM: usize = 256;

/// Resident set size in bytes from /proc/self/statm (0 where absent).
fn rss_bytes() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

fn trained_bytes(seed: u64) -> Vec<u8> {
    let rows: Vec<Vec<f32>> = (0..80)
        .map(|i| {
            (0..FEATURES)
                .map(|j| ((i * 7 + j * 3 + seed as usize) % 17) as f32 / 8.5 - 1.0)
                .collect()
        })
        .collect();
    let ys: Vec<f32> = rows
        .iter()
        .map(|r| 2.0 * r[0] - r[1] + 0.5 * r[2])
        .collect();
    let cfg = RegHdConfig::builder()
        .dim(DIM)
        .models(2)
        .seed(seed)
        .max_epochs(4)
        .build();
    let spec = encoder_spec(FEATURES, &cfg);
    let mut model = RegHdRegressor::new(cfg, spec.build());
    model.fit(&rows, &ys);
    ModelBundle::from_trained(
        model,
        vec![0.0; FEATURES],
        vec![1.0; FEATURES],
        0.0,
        1.0,
        &rows,
    )
    .unwrap()
    .to_bytes()
    .unwrap()
}

/// Deterministic key-index sequence (no clock, no rand).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % bound as u64) as usize
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn time_us(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let keys: usize = if quick { 20_000 } else { 1_000_000 };
    let probes: usize = if quick { 500 } else { 2_000 };
    let swaps: usize = if quick { 20 } else { 200 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = hdc::simd::active_label();

    let dir = std::env::temp_dir().join("reghd_store_scale_bench");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(
        &dir,
        StoreConfig {
            shards: 64,
            hot_budget_bytes: 64 << 20,
        },
    )
    .unwrap();

    let bytes = trained_bytes(5);
    let rss_start = rss_bytes();
    let start = Instant::now();
    store.bulk_alias("u", keys, &bytes).unwrap();
    let index_secs = start.elapsed().as_secs_f64();
    let rss_indexed = rss_bytes();
    let per_key = (rss_indexed.saturating_sub(rss_start)) as f64 / keys as f64;
    println!(
        "indexed {keys} resident keys in {index_secs:.2}s: RSS {:.1} MiB -> {:.1} MiB \
         ({per_key:.0} bytes/key)",
        rss_start as f64 / (1 << 20) as f64,
        rss_indexed as f64 / (1 << 20) as f64,
    );

    // Cold loads: never-touched keys — each get is pack read + lazy-CRC
    // decode. The hot budget (64 MiB) holds every decode at this model
    // size, so distinct fresh keys stay cold on first touch.
    let mut lcg = Lcg(0x5eed);
    let mut cold_us: Vec<f64> = Vec::with_capacity(probes);
    let mut seen = std::collections::HashSet::new();
    while cold_us.len() < probes {
        let i = lcg.next(keys);
        if !seen.insert(i) {
            continue;
        }
        let key = format!("u{i}");
        cold_us.push(time_us(|| {
            store.get(&key).unwrap();
        }));
    }
    cold_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (cold_p50, cold_p99) = (percentile(&cold_us, 0.5), percentile(&cold_us, 0.99));
    println!("cold load: p50 {cold_p50:.1}µs  p99 {cold_p99:.1}µs  (n={probes})");
    assert!(
        cold_p99 < 1_000.0,
        "cold-load p99 must stay under 1ms, got {cold_p99:.1}µs"
    );

    // Hot hits: re-resolve keys that are now resident.
    let hot_keys: Vec<String> = seen.iter().take(probes).map(|i| format!("u{i}")).collect();
    let mut hot_us: Vec<f64> = hot_keys
        .iter()
        .map(|key| {
            time_us(|| {
                store.get(key).unwrap();
            })
        })
        .collect();
    hot_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (hot_p50, hot_p99) = (percentile(&hot_us, 0.5), percentile(&hot_us, 0.99));
    println!("hot hit:   p50 {hot_p50:.2}µs  p99 {hot_p99:.2}µs");

    // Hot swap: canary-gated full publish to one key, while pinning the
    // decoded models of two bystander keys. The swap must not disturb
    // them — same Arc before and after.
    let bystander_a: Arc<_> = store.get("u0").unwrap();
    let bystander_b: Arc<_> = store.get("u1").unwrap();
    let swap_image = trained_bytes(6);
    let mut swap_us: Vec<f64> = Vec::with_capacity(swaps);
    for i in 0..swaps {
        // Alternate images so every publish really changes the bytes.
        let img = if i % 2 == 0 { &swap_image } else { &bytes };
        swap_us.push(time_us(|| {
            store.publish_full("u2", img).unwrap();
        }));
    }
    swap_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (swap_p50, swap_p99) = (percentile(&swap_us, 0.5), percentile(&swap_us, 0.99));
    println!("hot swap:  p50 {swap_p50:.1}µs  p99 {swap_p99:.1}µs  ({swaps} publishes)");
    assert!(
        Arc::ptr_eq(&bystander_a, &store.get("u0").unwrap())
            && Arc::ptr_eq(&bystander_b, &store.get("u1").unwrap()),
        "hot swap must leave other keys' decoded models untouched"
    );
    assert_eq!(store.get("u2").unwrap().meta.version, 1 + swaps as u64);

    let rss_final = rss_bytes();
    let st = store.stats();
    println!(
        "final: RSS {:.1} MiB, hot {} models / {:.1} MiB (budget {:.0} MiB), \
         hits {} misses {} evictions {}",
        rss_final as f64 / (1 << 20) as f64,
        st.hot_entries,
        st.hot_bytes as f64 / (1 << 20) as f64,
        st.hot_budget as f64 / (1 << 20) as f64,
        st.hits,
        st.misses,
        st.evictions,
    );

    let json = format!(
        "{{\n  \"keys\": {keys},\n  \"cores\": {cores},\n  \
         \"simd\": \"{simd}\",\n  \"dim\": {DIM},\n  \
         \"bundle_bytes\": {},\n  \"index_secs\": {index_secs:.3},\n  \
         \"rss_start_mb\": {:.1},\n  \"rss_indexed_mb\": {:.1},\n  \"rss_final_mb\": {:.1},\n  \
         \"index_bytes_per_key\": {per_key:.1},\n  \
         \"cold_load_p50_us\": {cold_p50:.1},\n  \"cold_load_p99_us\": {cold_p99:.1},\n  \
         \"hot_hit_p50_us\": {hot_p50:.2},\n  \"hot_hit_p99_us\": {hot_p99:.2},\n  \
         \"hot_swap_p50_us\": {swap_p50:.1},\n  \"hot_swap_p99_us\": {swap_p99:.1},\n  \
         \"hot_entries\": {},\n  \"hot_bytes\": {},\n  \"hot_budget_bytes\": {},\n  \
         \"evictions\": {}\n}}\n",
        bytes.len(),
        rss_start as f64 / (1 << 20) as f64,
        rss_indexed as f64 / (1 << 20) as f64,
        rss_final as f64 / (1 << 20) as f64,
        st.hot_entries,
        st.hot_bytes,
        st.hot_budget,
        st.evictions,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/store.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("summary written to {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
