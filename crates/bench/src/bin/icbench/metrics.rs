//! The metric catalogue: every reported metric with its unit, direction
//! and regression bound. `BENCHMARK.json` at the repository root mirrors
//! these tables (a unit test keeps the two in step); README.md explains
//! each metric and the end-to-end metric each layer metric moves.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, set-up time, memory).
    Lower,
    /// Larger is better (throughput, hit rates, yields).
    Higher,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as the result JSON key.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change is a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a caller of the service sees, measured untraced. Every workload
/// reports every one of them: the read request is `compare` on the
/// compare workloads and `search` on the search workloads. The timing
/// bounds are the widest allowed below `setup_s`'s, because the shared
/// 2-core host itself drifts between runs. The median latency is not
/// among them: on that host the latency distribution has a fast and a
/// slow mode, and the median jumps between them from run to run, while
/// throughput and the 90th percentile move only with the host (README.md,
/// "Measured spread").
pub const END_TO_END: [MetricDef; 4] = [
    e2e("read_rps", "1/s", Higher, 0.24),
    e2e("read_p90_ms", "ms", Lower, 0.24),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The per-layer split, from the traced pass. A layer a workload does not
/// exercise reports 0 (no patches, no WAL appends, no searches).
pub const PER_LAYER: [MetricDef; 29] = [
    layer("serve.overhead_us_p50", "us", Lower),
    layer("serve.overhead_us_p99", "us", Lower),
    layer("serve.codec_us", "us", Lower),
    layer("serve.coalesced_per_response", "ratio", Higher),
    layer("serve.sigcache_hit_rate", "ratio", Higher),
    layer("serve.first_request_s", "s", Lower),
    layer("core.compute_us", "us", Lower),
    layer("core.sigmap_build_us", "us", Lower),
    layer("core.probe_us", "us", Lower),
    layer("core.complete_us", "us", Lower),
    layer("core.score_us", "us", Lower),
    layer("core.probe_yield", "ratio", Higher),
    layer("core.complete_yield", "ratio", Higher),
    layer("index.topk_us_p50", "us", Lower),
    layer("index.sync_us", "us", Lower),
    layer("index.full_compare_us", "us", Lower),
    layer("index.compared_frac", "ratio", Lower),
    layer("index.maps_built_per_search", "count", Lower),
    layer("store.open_s", "s", Lower),
    layer("store.snapshot_install_s", "s", Lower),
    layer("store.wal_append_us_p50", "us", Lower),
    layer("store.wal_append_us_p99", "us", Lower),
    layer("store.wal_bytes_per_patch", "bytes", Lower),
    layer("catalog.patch_p50_ms", "ms", Lower),
    layer("catalog.patch_p99_ms", "ms", Lower),
    layer("catalog.visible_p50_ms", "ms", Lower),
    layer("catalog.patch_prewal_us_p50", "us", Lower),
    layer("catalog.patch_postpublish_us_p50", "us", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// The definition of end-to-end metric `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `trace.overhead_frac`: the share of untraced throughput lost with the
/// tracing collectors installed.
pub fn trace_overhead(untraced_rps: f64, traced_rps: f64) -> f64 {
    1.0 - crate::stats::ratio(traced_rps, untraced_rps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_serve::json::{parse, Json};

    /// `BENCHMARK.json` must list exactly these metrics, with the same
    /// units, directions and bounds, and `run`'s window.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let doc = parse(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| -> Vec<Json> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
                .to_vec()
        };
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = list(key);
            assert_eq!(entries.len(), defs.len(), "{key} length");
            for (entry, def) in entries.iter().zip(defs) {
                let field = |f: &str| entry.get(f).and_then(Json::as_str).unwrap_or_default();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                let better = match def.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(field("better"), better, "{}", def.name);
                if key == "end_to_end" {
                    let bound = entry.get("bound").and_then(Json::as_f64);
                    assert_eq!(bound, Some(def.bound), "{}", def.name);
                }
            }
        }
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            })
            .collect();
        let ours: Vec<&str> = crate::plan::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(crate::RUN_SECONDS.as_secs_f64()));
    }

    #[test]
    fn overhead_is_the_lost_share_of_throughput() {
        assert!((trace_overhead(1000.0, 900.0) - 0.1).abs() < 1e-12);
        assert_eq!(trace_overhead(0.0, 5.0), 1.0);
    }
}
