//! Prometheus text-exposition rendering for the `Metrics` verb.
//!
//! `{"Metrics": {"format": "prometheus"}}` answers with a plain-text body
//! in the Prometheus exposition format: every non-comment line is
//! `name{labels} value`, histograms are emitted as cumulative
//! `_bucket{le="..."}` series closed by `le="+Inf"` plus `_sum`/`_count`.
//! The internal histograms store *per-bucket* counts keyed by each bucket's
//! inclusive upper bound (`u64::MAX` for the overflow bucket), so this
//! module converts to cumulative counts and folds the overflow bucket into
//! `+Inf` at render time.
//!
//! Counts are taken from one snapshot per histogram; within a snapshot the
//! bucket sum can exceed the recorded count under concurrent writers (the
//! snapshot reads `count` first), so `_count` and `+Inf` are both derived
//! from the bucket sum, keeping the series internally consistent — the
//! invariant Prometheus clients actually rely on.

use std::fmt::Write as _;

use mopt_trace::LatencySnapshot;

use crate::metrics::Verb;
use crate::server::ServiceState;
use crate::wire::Tier;

/// Render the full metric family set for `state`.
pub fn render(state: &ServiceState) -> String {
    let mut out = String::with_capacity(4096);
    let metrics = state.metrics();

    family(
        &mut out,
        "moptd_build_info",
        "gauge",
        "Constant 1, labeled with the serving crate's version.",
    );
    let _ = writeln!(out, "moptd_build_info{{version=\"{}\"}} 1", env!("CARGO_PKG_VERSION"));

    family(&mut out, "moptd_uptime_seconds", "gauge", "Seconds since the service started.");
    let _ = writeln!(out, "moptd_uptime_seconds {}", fmt_f64(state.uptime_seconds()));

    family(
        &mut out,
        "moptd_configured_workers",
        "gauge",
        "Worker threads the transport serves with (1 for stdio).",
    );
    let _ = writeln!(out, "moptd_configured_workers {}", state.configured_workers());

    family(&mut out, "moptd_cache_shards", "gauge", "Shard count of the schedule cache.");
    let _ = writeln!(out, "moptd_cache_shards {}", crate::cache::ScheduleCache::SHARDS);

    family(&mut out, "moptd_requests_total", "counter", "Requests served, by verb.");
    for verb in Verb::ALL {
        let count = metrics.verb_latency(verb).count;
        if count > 0 {
            let _ = writeln!(out, "moptd_requests_total{{verb=\"{}\"}} {count}", verb.name());
        }
    }

    family(
        &mut out,
        "moptd_request_errors_total",
        "counter",
        "Requests answered with an Error response, by verb.",
    );
    for verb in Verb::ALL {
        let count = metrics.verb_errors(verb);
        if count > 0 {
            let _ = writeln!(out, "moptd_request_errors_total{{verb=\"{}\"}} {count}", verb.name());
        }
    }

    family(
        &mut out,
        "moptd_parse_errors_total",
        "counter",
        "Request lines that failed to parse into any verb.",
    );
    let _ = writeln!(out, "moptd_parse_errors_total {}", metrics.parse_errors());

    family(
        &mut out,
        "moptd_request_duration_micros",
        "histogram",
        "Request latency in microseconds, by verb.",
    );
    for verb in Verb::ALL {
        let snap = metrics.verb_latency(verb);
        if snap.count > 0 {
            histogram(&mut out, "moptd_request_duration_micros", &[("verb", verb.name())], &snap);
        }
    }

    family(
        &mut out,
        "moptd_tier_hits_total",
        "counter",
        "Schedule answers served, by tier (coalesced requests count under their leader's tier).",
    );
    let hits = state.tier_hits();
    for tier in [Tier::Cache, Tier::Db, Tier::Solver] {
        let _ = writeln!(
            out,
            "moptd_tier_hits_total{{tier=\"{}\"}} {}",
            tier.label(),
            hits[tier as usize]
        );
    }

    let flight = state.flight_stats();
    family(
        &mut out,
        "moptd_flight_total",
        "counter",
        "Single-flight outcomes, by coalescing group and role.",
    );
    for (group, stats) in [("optimize", &flight.optimize), ("graph", &flight.graph)] {
        let _ =
            writeln!(out, "moptd_flight_total{{group=\"{group}\",outcome=\"led\"}} {}", stats.led);
        let _ = writeln!(
            out,
            "moptd_flight_total{{group=\"{group}\",outcome=\"coalesced\"}} {}",
            stats.coalesced
        );
        let _ = writeln!(
            out,
            "moptd_flight_total{{group=\"{group}\",outcome=\"error\"}} {}",
            stats.errors
        );
    }

    family(
        &mut out,
        "moptd_flight_in_flight",
        "gauge",
        "Keys with a computation currently in flight, by coalescing group.",
    );
    for (group, stats) in [("optimize", &flight.optimize), ("graph", &flight.graph)] {
        let _ = writeln!(out, "moptd_flight_in_flight{{group=\"{group}\"}} {}", stats.in_flight);
    }

    family(
        &mut out,
        "moptd_flight_wait_micros",
        "histogram",
        "How long coalesced callers waited on a leader's result, by group.",
    );
    for (group, stats) in [("optimize", &flight.optimize), ("graph", &flight.graph)] {
        if let Some(waits) = &stats.waiter_wait {
            if waits.count > 0 {
                histogram(&mut out, "moptd_flight_wait_micros", &[("group", group)], waits);
            }
        }
    }

    family(&mut out, "moptd_in_flight_requests", "gauge", "Requests currently inside a handler.");
    let _ = writeln!(out, "moptd_in_flight_requests {}", metrics.in_flight_requests());

    family(&mut out, "moptd_open_connections", "gauge", "Connections currently open.");
    let _ = writeln!(out, "moptd_open_connections {}", metrics.open_connections());

    family(
        &mut out,
        "moptd_connections_accepted_total",
        "counter",
        "Connections accepted since startup.",
    );
    let _ = writeln!(out, "moptd_connections_accepted_total {}", metrics.connections_accepted());

    let cache = state.cache.stats();
    family(&mut out, "moptd_schedule_cache_entries", "gauge", "Schedule-cache entries resident.");
    let _ = writeln!(out, "moptd_schedule_cache_entries {}", cache.entries);
    family(
        &mut out,
        "moptd_schedule_cache_ops_total",
        "counter",
        "Schedule-cache operations, by kind.",
    );
    for (kind, value) in [
        ("hit", cache.hits),
        ("miss", cache.misses),
        ("insert", cache.insertions),
        ("evict", cache.evictions),
    ] {
        let _ = writeln!(out, "moptd_schedule_cache_ops_total{{op=\"{kind}\"}} {value}");
    }

    if let Some(db) = state.db() {
        let db = db.stats();
        family(&mut out, "moptd_db_tier_total", "counter", "Database-tier outcomes, by kind.");
        for (kind, value) in
            [("hit", db.hits), ("miss", db.misses), ("insert", db.inserts), ("error", db.errors)]
        {
            let _ = writeln!(out, "moptd_db_tier_total{{op=\"{kind}\"}} {value}");
        }
    }

    family(
        &mut out,
        "moptd_slow_traces_total",
        "counter",
        "Requests whose trace crossed the --slow-ms threshold.",
    );
    let _ = writeln!(out, "moptd_slow_traces_total {}", state.slow_traces_recorded());

    out
}

/// Emit the `# HELP` / `# TYPE` header of one metric family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Emit one histogram series: cumulative `_bucket` lines closed by
/// `le="+Inf"`, then `_sum` and `_count`.
fn histogram(out: &mut String, name: &str, labels: &[(&str, &str)], snap: &LatencySnapshot) {
    let prefix: String =
        labels.iter().map(|(k, v)| format!("{k}=\"{v}\",")).collect::<Vec<_>>().join("");
    let mut cumulative = 0u64;
    for bucket in &snap.buckets {
        cumulative += bucket.count;
        if bucket.le_micros == u64::MAX {
            // The overflow bucket IS +Inf; fold it in rather than emitting
            // an impossible finite bound.
            continue;
        }
        let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"{}\"}} {cumulative}", bucket.le_micros);
    }
    let total: u64 = snap.buckets.iter().map(|b| b.count).sum();
    let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"+Inf\"}} {total}");
    let _ = writeln!(out, "{name}_sum{{{}}} {}", prefix.trim_end_matches(','), snap.sum_micros);
    let _ = writeln!(out, "{name}_count{{{}}} {total}", prefix.trim_end_matches(','));
}

/// Format a float the exposition parser accepts (no exotic formatting —
/// Rust's default `Display` for `f64` is valid).
fn fmt_f64(value: f64) -> String {
    format!("{value}")
}

#[cfg(test)]
mod tests {
    use crate::server::ServiceState;
    use crate::wire::Response;

    /// Structural check mirroring the CI exposition-syntax gate: every line
    /// is a comment or `name{labels} value`.
    fn assert_exposition_syntax(body: &str) {
        for line in body.lines() {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                continue;
            }
            let (series, value) =
                line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
            assert!(
                value.parse::<f64>().is_ok(),
                "value `{value}` of line `{line}` is not a number"
            );
            let name = series.split('{').next().unwrap();
            assert!(
                !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in line `{line}`"
            );
            if let Some(rest) = series.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(
                        rest.starts_with('{') && rest.ends_with('}'),
                        "bad label block in line `{line}`"
                    );
                }
            }
        }
    }

    #[test]
    fn exposition_is_syntactically_valid_and_cumulative() {
        let state = ServiceState::new(16);
        state.set_configured_workers(3);
        state.handle_line("\"Ping\"");
        state.handle_line("\"Ping\"");
        state.handle_line("{\"Optimize\": {\"machine\": {\"Preset\": \"vax\"}}}");
        let response: Response =
            serde_json::from_str(&state.handle_line("{\"Metrics\": {\"format\": \"prometheus\"}}"))
                .unwrap();
        let body = match response {
            Response::MetricsText { body } => body,
            other => panic!("expected MetricsText, got {other:?}"),
        };
        assert_exposition_syntax(&body);
        assert!(body.contains("moptd_requests_total{verb=\"Ping\"} 2"));
        assert!(body.contains("moptd_request_errors_total{verb=\"Optimize\"} 1"));
        assert!(body.contains("moptd_configured_workers 3"));
        assert!(
            body.contains(&format!("moptd_cache_shards {}", crate::cache::ScheduleCache::SHARDS))
        );
        // Histogram series close with +Inf and agree with _count.
        let ping_inf = body
            .lines()
            .find(|l| {
                l.starts_with("moptd_request_duration_micros_bucket{verb=\"Ping\",le=\"+Inf\"}")
            })
            .expect("+Inf bucket present");
        let ping_count = body
            .lines()
            .find(|l| l.starts_with("moptd_request_duration_micros_count{verb=\"Ping\"}"))
            .expect("_count present");
        assert_eq!(ping_inf.rsplit(' ').next().unwrap(), ping_count.rsplit(' ').next().unwrap());
        assert_eq!(ping_count.rsplit(' ').next().unwrap(), "2");
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in body
            .lines()
            .filter(|l| l.starts_with("moptd_request_duration_micros_bucket{verb=\"Ping\""))
        {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "bucket counts must be cumulative: {line}");
            last = value;
        }
    }

    #[test]
    fn unknown_formats_are_rejected() {
        let state = ServiceState::new(16);
        let response: Response =
            serde_json::from_str(&state.handle_line("{\"Metrics\": {\"format\": \"xml\"}}"))
                .unwrap();
        match response {
            Response::Error { message } => assert!(message.contains("unknown metrics format")),
            other => panic!("expected Error, got {other:?}"),
        }
    }
}
