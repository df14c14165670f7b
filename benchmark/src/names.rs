//! Every metric the benchmark emits, with its unit and direction. The
//! result line is built from these tables, so the names printed always
//! equal the names `BENCHMARK.json` declares (a test checks the pair).

use crate::json::Json;

/// One metric's name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics a user of the system sees; printed by untraced runs. Every
/// workload reports each one (see the README for the per-workload
/// definitions).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("p50_ms", "ms", "lower"),
    m("rows_per_s", "rows/s", "higher"),
    m("rmse", "target", "lower"),
    m("rss_mb", "MiB", "lower"),
];

/// Metrics of single layers; printed by traced runs. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    m("gen.p99_ms", "ms", "lower"),
    m("gen.max_rps_at_slo", "rows/s", "higher"),
    m("gen.lag_p99_ms", "ms", "lower"),
    m("gen.checked_rows", "count", "higher"),
    m("gen.failed_share", "fraction", "lower"),
    m("gen.degraded_share", "fraction", "lower"),
    m("net.ping_rtt_p50_us", "us", "lower"),
    m("net.frame_decode_ns", "ns", "lower"),
    m("net.reply_encode_ns", "ns", "lower"),
    m("serve.mean_batch", "rows", "higher"),
    m("serve.batches_per_s", "1/s", "lower"),
    m("serve.server_p99_us", "us", "lower"),
    m("serve.handoff_us", "us", "lower"),
    m("serve.registry_get_ns", "ns", "lower"),
    m("serve.scale_us_per_row", "us", "lower"),
    m("serve.expired", "count", "lower"),
    m("serve.shed", "count", "lower"),
    m("serve.degraded", "count", "lower"),
    m("serve.demotions", "count", "lower"),
    m("serve.resolver_retries", "count", "lower"),
    m("serve.breaker_trips", "count", "lower"),
    m("reghd.predict_us_per_row.b1", "us", "lower"),
    m("reghd.predict_us_per_row.bmean", "us", "lower"),
    m("reghd.score_us_per_row", "us", "lower"),
    m("reghd.predict_binary_us_per_row", "us", "lower"),
    m("reghd.fit_epoch_s", "s", "lower"),
    m("reghd.online_update_us", "us", "lower"),
    m("encoding.encode_us_per_row", "us", "lower"),
    m("encoding.encode_quantized_us_per_row", "us", "lower"),
    m("hdc.encode_gflops", "GFLOP/s", "higher"),
    m("hwmodel.encode_pred_over_meas", "ratio", "higher"),
    m("hwmodel.search_pred_over_meas", "ratio", "higher"),
    m("hwmodel.score_pred_over_meas", "ratio", "higher"),
    m("hwmodel.binary_pred_over_meas", "ratio", "higher"),
    m("hwmodel.stages_flagged", "count", "lower"),
    m("store.hit_ratio", "fraction", "higher"),
    m("store.evictions_per_s", "1/s", "lower"),
    m("store.get_hot_p50_us", "us", "lower"),
    m("store.get_cold_p50_us", "us", "lower"),
    m("store.get_cold_p99_us", "us", "lower"),
    m("store.publish_delta_p50_ms", "ms", "lower"),
    m("store.publish_delta_p99_ms", "ms", "lower"),
    m("store.publish_failed", "count", "lower"),
    m("trace.overhead_p50_ms", "ms", "lower"),
    m("trace.self_share.net", "fraction", "lower"),
    m("trace.self_share.serve", "fraction", "lower"),
    m("trace.self_share.reghd", "fraction", "lower"),
    m("trace.self_share.encoding", "fraction", "lower"),
    m("trace.self_share.store", "fraction", "lower"),
];

/// Measured values by metric name, in the order they were recorded.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: exactly the metrics of
    /// `defs`, each with its unit. A metric a workload did not measure is
    /// reported as 0 (per-layer metrics of layers it does not exercise).
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let value = self.get(d.name).unwrap_or(0.0);
                    (
                        d.name.to_string(),
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let list = doc
                .get(section)
                .and_then(Json::as_arr)
                .expect("metric list");
            let declared: Vec<(&str, &str, &str)> = list
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(&str, &str, &str)> =
                defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
            assert_eq!(declared, ours, "{section} differs from BENCHMARK.json");
        }
    }
}
