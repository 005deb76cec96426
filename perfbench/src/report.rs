//! The metric registry and the result line.
//!
//! Every metric the benchmark can emit is listed here once, by name and
//! unit, in the order `BENCHMARK.json` lists it. A run fills a
//! [`Values`] for its mode, and the result line prints exactly the
//! registry for that mode: nothing named elsewhere can reach the output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("op_p50_s", "s"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.queue_peak", "count"),
    ("sim.queue_growth", "count"),
    ("sim.wheel", "flag"),
    ("wireless.new_s", "s"),
    ("wireless.run_s", "s"),
    ("wireless.rreq_tx", "count"),
    ("wireless.rrep_tx", "count"),
    ("wireless.rerr_tx", "count"),
    ("wireless.bcast_collisions", "count"),
    ("wireless.rts_collisions", "count"),
    ("wireless.atim_tx", "count"),
    ("wireless.events_per_delivered", "ratio"),
    ("wireless.delivery_ratio", "ratio"),
    ("radio.enetwork_j", "J"),
    ("serve.cycles", "count"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.first_record_ms_p50", "ms"),
    ("serve.record_gap_ms_p50", "ms"),
    ("serve.bytes_streamed", "bytes"),
    ("serve.resubmit_ms_p50", "ms"),
    ("serve.aggregate_cold_ms_p50", "ms"),
    ("serve.aggregate_warm_ms_p50", "ms"),
    ("serve.ttfr_p50_ms", "ms"),
    ("serve.ttfr_tail_ms", "ms"),
    ("serve.ttfr_tail_pct", "%"),
    ("serve.aggregate_hit_ratio", "ratio"),
    ("campaign.jobs_requested", "count"),
    ("campaign.jobs_executed", "count"),
    ("campaign.reuse_ratio", "ratio"),
    ("campaign.aggregate_requests", "count"),
    ("campaign.aggregates_computed", "count"),
    ("campaign.active_tasks_mean", "count"),
    ("opt.requests", "count"),
    ("opt.executed", "count"),
    ("opt.cache_hit_ratio", "ratio"),
    ("core.evaluate_s", "s"),
    ("opt.cache_s", "s"),
    ("opt.search_self_s", "s"),
    ("opt.cache_open_s", "s"),
    ("trace.overhead_pct", "%"),
    ("load.nproc", "count"),
    ("load.client_threads", "count"),
    ("load.peak_connections", "count"),
];

/// Metric values of one run, restricted to one registry.
#[derive(Debug, Clone)]
pub struct Values {
    registry: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Values for the end-to-end registry.
    pub fn end_to_end() -> Values {
        Values {
            registry: END_TO_END,
            values: BTreeMap::new(),
        }
    }

    /// Values for the per-layer registry.
    pub fn per_layer() -> Values {
        Values {
            registry: PER_LAYER,
            values: BTreeMap::new(),
        }
    }

    /// Sets `name`, which must be in this registry.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.registry.iter().any(|(n, _)| *n == name),
            "metric {name} is not in the registry"
        );
        self.values.insert(name, value);
    }

    /// `(name, unit, value)` for every registry entry, in registry
    /// order; unset entries read 0.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.registry
            .iter()
            .map(|&(n, u)| (n, u, self.values.get(n).copied().unwrap_or(0.0)))
            .collect()
    }

    /// Scales every timing to reference host speed: seconds times
    /// `factor`, rates (`1/s`) divided by it; other units stay.
    pub fn at_host_speed(&mut self, factor: f64) {
        for &(name, unit) in self.registry {
            if let Some(v) = self.values.get_mut(name) {
                match unit {
                    "s" | "ms" => *v *= factor,
                    "1/s" => *v /= factor,
                    _ => {}
                }
            }
        }
    }

    /// Registry entries that were never set.
    pub fn missing(&self) -> Vec<&'static str> {
        self.registry
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }
}

/// Renders the final result line. Non-finite values cannot be written
/// as JSON numbers, so they are written as 0 and flagged by the caller.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in values.rows().into_iter().enumerate() {
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    /// The file is flat and written by hand, so a scan for the keys
    /// suffices and keeps the benchmark free of a JSON dependency.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn registry(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn registries_match_benchmark_json() {
        assert_eq!(registry(END_TO_END), listed("end_to_end"));
        assert_eq!(registry(PER_LAYER), listed("per_layer"));
    }

    #[test]
    fn result_line_emits_exactly_the_registry() {
        for mut values in [Values::end_to_end(), Values::per_layer()] {
            let registry = values.registry;
            values.set(registry[0].0, 1.25);
            let line = result_line(true, 3, 0, &values);
            let emitted: Vec<&str> = line
                .split("{\"value\"")
                .map(|s| s.rsplit('"').nth(1).unwrap())
                .collect();
            let names: Vec<&str> = registry.iter().map(|(n, _)| *n).collect();
            assert_eq!(emitted[..emitted.len() - 1], names[..]);
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.25,", registry[0].0)));
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        }
    }

    #[test]
    fn host_speed_scales_times_and_rates_only() {
        let mut values = Values::end_to_end();
        values.set("setup_s", 2.0);
        values.set("peak_rss_mb", 80.0);
        values.set("throughput_per_s", 3.0);
        values.at_host_speed(0.5);
        let rows = values.rows();
        let value = |name| rows.iter().find(|r| r.0 == name).unwrap().2;
        assert_eq!(value("setup_s"), 1.0);
        assert_eq!(value("peak_rss_mb"), 80.0);
        assert_eq!(value("throughput_per_s"), 6.0);
        assert_eq!(value("op_p50_s"), 0.0);
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unregistered_metric_is_refused() {
        Values::end_to_end().set("sim.events", 1.0);
    }
}
