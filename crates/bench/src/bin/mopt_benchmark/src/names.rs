//! The benchmark's vocabulary: every workload and metric name, with unit,
//! better direction and (for end-to-end metrics) regression bound. A test
//! holds `BENCHMARK.json` at the repo root to these tables; README.md beside
//! this package is the glossary with the definitions.

use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const PLAN_SESSION: &str = "plan_session";
pub const SERVE_WARM: &str = "serve_warm";
pub const SERVE_DB: &str = "serve_db";
pub const EXEC_CONV: &str = "exec_conv";

/// In the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: PLAN_SESSION,
        why: "13 cold planning requests into a fresh moptd: the solver tier does nearly all the work, the db is written; wire and event loop are under 0.01% of every request",
    },
    Workload {
        name: SERVE_WARM,
        why: "68 keys into a 4096-entry cache, two closed-loop connections: every request is a cache hit, so parse, key, cache clone, serialize, event loop and socket are the whole cost",
    },
    Workload {
        name: SERVE_DB,
        why: "204 keys in shuffled rounds into a 16-entry cache: at least 95% of requests miss it, are re-ranked from the schedule database and evict an entry; zero solves",
    },
    Workload {
        name: EXEC_CONV,
        why: "No server: TiledConv runs the optimizer's own schedule for 4 dense and 3 depthwise shapes on the wall clock; conv_exec does all the work, the serving stack none",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Every workload reports every one of these; what an "operation" is on each
/// workload is defined in README.md.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "throughput_ops_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "latency_p50_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.10 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The seven shapes `exec_conv` runs, by the name used in metric names
/// (`R4*` is written `R4`: `*` is not a metric-name character).
pub const EXEC_DENSE: [(&str, &str); 4] =
    [("R3", "R3"), ("R4", "R4*"), ("R6", "R6"), ("R12", "R12")];
pub const EXEC_DEPTHWISE: [(&str, &str); 3] = [("V3", "V3"), ("M5", "M5"), ("D5", "D5")];

/// Per-layer metrics, grouped by the layer (crate or module) they measure.
/// A traced run of a workload reports every name; a metric the workload does
/// not exercise reads 0 there (README.md says which workload measures what).
pub const PER_LAYER: &[PerLayer] = &[
    // What the user-visible numbers of each workload are made of.
    layer("plan.optimize_cold_s", "s", Lower),
    layer("plan.explain_p50_ms", "ms", Lower),
    layer("plan.network_cold_s", "s", Lower),
    layer("plan.network_warm_p50_us", "us", Lower),
    layer("plan.graph_cold_s", "s", Lower),
    layer("plan.cold_total_s", "s", Lower),
    layer("plan.solver_share", "ratio", Higher),
    layer("quality.schedule_cost_geomean", "cycles", Lower),
    layer("exec.dense_gflops", "GFLOP/s", Higher),
    layer("exec.depthwise_gflops", "GFLOP/s", Higher),
    // vendored serde_json + server::{Request, Response}
    layer("wire.parse_us", "us", Lower),
    layer("wire.serialize_us", "us", Lower),
    layer("wire.response_bytes", "bytes", Lower),
    // mopt_service::server
    layer("service.key_us", "us", Lower),
    layer("service.handle_us", "us", Lower),
    layer("service.handle_line_us", "us", Lower),
    layer("service.decomposition_gap_share", "ratio", Lower),
    // mopt_service::cache
    layer("cache.get_hit_us", "us", Lower),
    layer("cache.insert_evict_us", "us", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    layer("cache.evictions", "count", Lower),
    // mopt_service::dbtier, mopt_db, conv_spec::canonical
    layer("dbtier.lookup_us", "us", Lower),
    layer("db.canonicalize_us", "us", Lower),
    layer("db.rerank_us", "us", Lower),
    layer("dbtier.record_us", "us", Lower),
    layer("db.flush_ms", "ms", Lower),
    layer("db.open_ms", "ms", Lower),
    layer("db.hits", "count", Higher),
    layer("db.misses", "count", Lower),
    layer("db.pages_loaded", "count", Lower),
    // mopt_core, read off the wire
    layer("core.optimize_t1_ms", "ms", Lower),
    layer("core.optimize_t4_ms", "ms", Lower),
    layer("core.optimize_t4_search_ms", "ms", Lower),
    layer("core.enumerated", "count", Lower),
    layer("core.capacity_pruned", "count", Lower),
    layer("core.candidates", "count", Lower),
    layer("core.us_per_eval", "us", Lower),
    // mopt_model
    layer("model.build_us", "us", Lower),
    layer("model.scaled_cost_ns", "ns", Lower),
    layer("model.predict_config_us", "us", Lower),
    layer("model.wallclock_spearman", "ratio", Higher),
    layer("model.top1_loss", "ratio", Lower),
    // mopt_service::{batch, singleflight}
    layer("batch.solve_seconds_sum", "s", Lower),
    layer("batch.parallel_efficiency", "ratio", Higher),
    layer("flight.led", "count", Lower),
    layer("flight.coalesced", "count", Higher),
    // mopt_service::eventloop + miniepoll
    layer("eventloop.ping_rtt_us", "us", Lower),
    layer("eventloop.overhead_us", "us", Lower),
    layer("eventloop.pipelined_rps", "1/s", Higher),
    // The server's own span tree ("trace": true), as a cross-check.
    layer("server.queue_wait_us", "us", Lower),
    layer("server.parse_us", "us", Lower),
    layer("server.cache_probe_us", "us", Lower),
    layer("server.db_lookup_us", "us", Lower),
    layer("server.solve_ms", "ms", Lower),
    layer("server.cache_insert_us", "us", Lower),
    layer("server.db_record_us", "us", Lower),
    layer("server.serialize_us", "us", Lower),
    layer("server.span_coverage", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    // The load generator itself: the noise floor.
    layer("client.all_windows_p50_us", "us", Lower),
    layer("client.latency_p95_us", "us", Lower),
    layer("client.latency_p99_us", "us", Lower),
    layer("client.latency_max_us", "us", Lower),
    layer("client.window_spread", "ratio", Lower),
    layer("client.requests", "count", Higher),
    layer("client.db_tier_share", "ratio", Higher),
    // conv_exec, baselines
    layer("exec.tiled.R3_gflops", "GFLOP/s", Higher),
    layer("exec.tiled.R4_gflops", "GFLOP/s", Higher),
    layer("exec.tiled.R6_gflops", "GFLOP/s", Higher),
    layer("exec.tiled.R12_gflops", "GFLOP/s", Higher),
    layer("exec.tiled.V3_gflops", "GFLOP/s", Higher),
    layer("exec.tiled.M5_gflops", "GFLOP/s", Higher),
    layer("exec.tiled.D5_gflops", "GFLOP/s", Higher),
    layer("exec.tiled_scalar_gflops", "GFLOP/s", Higher),
    layer("exec.simd_vs_scalar", "ratio", Higher),
    layer("exec.nchwc_gflops", "GFLOP/s", Higher),
    layer("exec.nchwc_pack_share", "ratio", Lower),
    layer("exec.partiled2_gflops", "GFLOP/s", Higher),
    layer("exec.pack_kernel_us", "us", Lower),
    layer("exec.naive_gflops", "GFLOP/s", Higher),
    layer("exec.speedup_vs_naive", "ratio", Higher),
    layer("exec.onednn_like_gflops", "GFLOP/s", Higher),
    layer("exec.speedup_vs_onednn_like", "ratio", Higher),
    layer("exec.flops", "count", Higher),
    layer("exec.model_dram_bytes", "bytes", Lower),
    layer("exec.ops_per_byte", "flop/byte", Higher),
    layer("exec.max_abs_err", "abs", Lower),
    // Share of per-operation self time by layer (no better direction: the
    // intended layer must dominate on its workload).
    layer("share.eventloop", "ratio", Lower),
    layer("share.wire", "ratio", Lower),
    layer("share.service", "ratio", Lower),
    layer("share.cache", "ratio", Lower),
    layer("share.db", "ratio", Lower),
    layer("share.solver", "ratio", Lower),
    layer("share.exec", "ratio", Lower),
];

/// Per-layer metrics that are counts or model quantities of a fixed script:
/// `--repeat` requires them to be identical across repeats on the workloads
/// named.
pub const EXACT: &[(&str, &[&str])] = &[
    ("quality.schedule_cost_geomean", &[PLAN_SESSION, SERVE_WARM, SERVE_DB, EXEC_CONV]),
    ("wire.response_bytes", &[SERVE_WARM, SERVE_DB]),
    ("core.enumerated", &[PLAN_SESSION]),
    ("core.capacity_pruned", &[PLAN_SESSION]),
    ("core.candidates", &[PLAN_SESSION]),
    ("flight.led", &[PLAN_SESSION]),
    ("flight.coalesced", &[PLAN_SESSION]),
    ("db.misses", &[PLAN_SESSION, SERVE_WARM, SERVE_DB]),
    ("exec.flops", &[EXEC_CONV]),
    ("exec.model_dram_bytes", &[EXEC_CONV]),
];

/// A measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub n: u64,
}

/// Metric values by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<&'static str, Sample>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, n: u64) {
        self.0.insert(name, Sample { value, n });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|s| s.value)
    }
}

/// Unit, better direction and (end-to-end only) bound of a declared metric.
/// A name that is not declared is a bug in the harness.
pub fn describe(name: &str) -> (&'static str, Better, Option<f64>) {
    END_TO_END
        .iter()
        .map(|m| (m.name, (m.unit, m.better, Some(m.bound))))
        .chain(PER_LAYER.iter().map(|m| (m.name, (m.unit, m.better, None))))
        .find(|(n, _)| *n == name)
        .map(|(_, described)| described)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (name, workloads) in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
            assert!(workloads.iter().all(|w| WORKLOADS.iter().any(|x| x.name == *w)));
        }
        for (metric_name, op) in EXEC_DENSE.iter().chain(&EXEC_DEPTHWISE) {
            assert!(conv_spec::benchmarks::by_name(op).is_some());
            let row = format!("exec.tiled.{metric_name}_gflops");
            assert!(PER_LAYER.iter().any(|m| m.name == row), "{row}");
        }
    }

    fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
        object.get(key).unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
    }

    fn text<'a>(object: &'a Value, key: &str) -> &'a str {
        field(object, key).as_str().unwrap_or_else(|| panic!("{key} is not a string"))
    }

    /// `BENCHMARK.json` names exactly what the harness emits, and vice versa.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let json = serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = json.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let paths: Vec<&str> =
            field(&json, "paths").as_array().unwrap().iter().map(|p| p.as_str().unwrap()).collect();
        assert_eq!(paths, ["crates/bench/src/bin/mopt_benchmark"]);
        let command: Vec<&str> = field(&json, "command")
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert!(command.contains(&"crates/bench/src/bin/mopt_benchmark/Cargo.toml"));
        let seconds = field(&json, "run_seconds").as_u64().unwrap();
        assert!((1..=60).contains(&seconds));
        assert_eq!(seconds as f64, crate::DEFAULT_SECONDS);

        let workloads = field(&json, "workloads").as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, ours) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(listed.as_object().unwrap().len(), 2);
            assert_eq!(text(listed, "name"), ours.name);
            assert_eq!(text(listed, "why"), ours.why);
        }
        let end_to_end = field(&json, "end_to_end").as_array().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (listed, ours) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(listed.as_object().unwrap().len(), 4);
            assert_eq!(text(listed, "name"), ours.name);
            assert_eq!(text(listed, "unit"), ours.unit);
            assert_eq!(text(listed, "better"), ours.better.as_str());
            assert_eq!(field(listed, "bound").as_f64().unwrap(), ours.bound);
        }
        let per_layer = field(&json, "per_layer").as_array().unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (listed, ours) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(listed.as_object().unwrap().len(), 3);
            assert_eq!(text(listed, "name"), ours.name);
            assert_eq!(text(listed, "unit"), ours.unit);
            assert_eq!(text(listed, "better"), ours.better.as_str());
        }
    }
}
