//! The metric catalogue: every end-to-end and per-layer metric by name and
//! unit, in print order.  `BENCHMARK.json` lists exactly these (a test
//! holds the two together).

use crate::report::Report;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_cpu_s", "ops/cpu-s"),
    ("p50_us", "us"),
    ("hits_per_cpu_s", "hits/cpu-s"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.  A layer the
/// workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spectm.ro2_ns", "ns"),
    ("spectm.rw2_ns", "ns"),
    ("spectm.ro_commits", "count"),
    ("spectm.ro_conflicts", "count"),
    ("spectm.rw_commits", "count"),
    ("spectm.rw_conflicts", "count"),
    ("spectm.full_commits", "count"),
    ("spectm.full_aborts", "count"),
    ("spectm.commit_ratio", "ratio"),
    ("map.get_ns", "ns"),
    ("map.put_ns", "ns"),
    ("map.load_factor", "ratio"),
    ("map.probe_within_1", "ratio"),
    ("store.get_ns", "ns"),
    ("store.put_ttl_ns", "ns"),
    ("lockfree.get_ns", "ns"),
    ("lockfree.put_ns", "ns"),
    ("batch.execute_ns_per_op", "ns"),
    ("batch.multi_ns_per_op", "ns"),
    ("wire.encode_request_ns", "ns"),
    ("wire.decode_request_ns", "ns"),
    ("wire.encode_response_ns", "ns"),
    ("wire.decode_response_ns", "ns"),
    ("serve.frames", "count"),
    ("serve.dispatches", "count"),
    ("serve.coalesced_frames_mean", "frames"),
    ("serve.wire_errors", "count"),
    ("serve.io_errors", "count"),
    ("serve.worker_busy_share", "ratio"),
    ("serve.rtt_self_us", "us"),
    ("loadgen.busy_share", "ratio"),
    ("loadgen.p99_us", "us"),
    ("loadgen.open_p50_us", "us"),
    ("loadgen.open_late_us", "us"),
    ("loadgen.open_p99_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evicted", "count"),
    ("cache.expired", "count"),
    ("cache.live_bytes", "B"),
    ("ttl.sweep_step_us", "us"),
    ("ttl.reclaimer_busy_share", "ratio"),
    ("value.live_cells", "count"),
    ("txepoch.retired", "count"),
    ("txepoch.reclaimed", "count"),
    ("txepoch.pending", "count"),
    ("trace.ops_per_cpu_s", "ops/cpu-s"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values gathered during a traced run; anything not set is
/// printed as 0.
#[derive(Debug)]
pub struct Layers {
    values: Vec<f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Self {
            values: vec![0.0; PER_LAYER.len()],
        }
    }
}

impl Layers {
    /// Sets `name`; panics on a name missing from [`PER_LAYER`], which is a
    /// bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values[i] = value;
    }

    /// Pushes every per-layer metric into `report`, in catalogue order.
    pub fn into_report(self, report: &mut Report) {
        for ((name, unit), value) in PER_LAYER.iter().zip(self.values) {
            report.push(name, value, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<n>"` entries of one top-level array of BENCHMARK.json.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layers);
        assert_eq!(names_in(&json, "workloads"), ["store-get", "cache-churn"]);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} with unit {unit}"
            );
        }
    }

    #[test]
    fn unset_layers_print_as_zero() {
        let mut layers = Layers::default();
        layers.set("map.get_ns", 12.0);
        let mut report = Report::default();
        layers.into_report(&mut report);
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        assert_eq!(report.metrics[9].name, "map.get_ns");
        assert_eq!(report.metrics[9].value, 12.0);
        assert_eq!(report.metrics[0].value, 0.0);
    }
}
