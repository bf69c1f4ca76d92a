//! The output-correctness gate: what a reply must look like to count as a
//! completed operation.

use conv_spec::{benchmarks, ConvShape, MachineModel};
use mopt_core::{OptimizeResult, OptimizedConfig};
use mopt_model::{CostOptions, MultiLevelModel, ParallelSpec};
use mopt_service::{Response, Tier};

/// Attempted and failed operation counts of one workload run, with the first
/// few failure messages kept for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one operation; `outcome` is its failure, if any.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.fail(message);
        }
    }

    /// Count `n` operations that were checked and passed.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// A failed check that is not an operation of its own (a counter that
    /// does not match, a server that did not exit 0).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.messages {
            if self.messages.len() < 20 {
                self.messages.push(message);
            }
        }
    }
}

pub fn machine() -> MachineModel {
    MachineModel::i7_9700k()
}

pub fn shape_of(op: &str) -> ConvShape {
    benchmarks::by_name(op).unwrap_or_else(|| panic!("{op} is not a catalog op")).shape
}

/// Re-derive a fixed-layout schedule's price in the harness, with the model
/// built the way `handle_explain` builds it: `with_options` from the
/// request's `line_elems`, `with_parallel` from the request's thread count
/// and the configuration's own parallel factors. Must match bit for bit.
pub fn recertify(
    shape: &ConvShape,
    best: &OptimizedConfig,
    threads: usize,
    line_elems: usize,
) -> Result<(), String> {
    let parallel = ParallelSpec { threads, factors: best.config.parallel.as_array() };
    let price = MultiLevelModel::new(*shape, machine(), best.config.permutation.clone())
        .with_options(CostOptions { line_elems })
        .with_parallel(parallel)
        .predict_config(&best.config)
        .bottleneck_cost;
    if price.to_bits() == best.predicted_cost.to_bits() {
        Ok(())
    } else {
        Err(format!("served price {} re-derives as {price}", best.predicted_cost))
    }
}

/// A served schedule must be non-empty, ranked, valid for its shape and —
/// under the fixed layout — honestly priced.
pub fn check_schedule(
    shape: &ConvShape,
    result: &OptimizeResult,
    threads: usize,
    fixed_layout: bool,
) -> Result<(), String> {
    let best = result.ranked.first().ok_or("empty ranking")?;
    if !result.ranked.windows(2).all(|w| w[0].predicted_cost <= w[1].predicted_cost) {
        return Err("ranking is not sorted by predicted cost".into());
    }
    if !(best.predicted_cost.is_finite() && best.predicted_cost > 0.0) {
        return Err(format!("non-positive or non-finite price {}", best.predicted_cost));
    }
    best.config.validate(shape).map_err(|e| format!("invalid schedule: {e}"))?;
    if fixed_layout {
        recertify(shape, best, threads, 1)?;
    }
    Ok(())
}

/// Parse an `Optimize` reply and check tier and schedule.
pub fn check_optimized(
    reply: &str,
    op: &str,
    threads: usize,
    expected: Tier,
    fixed_layout: bool,
) -> Result<OptimizeResult, String> {
    match serde_json::from_str::<Response>(reply).map_err(|e| format!("unparsable reply: {e}"))? {
        Response::Optimized { tier, shape, result, .. } => {
            if tier != Some(expected) {
                return Err(format!("{op}@{threads}: tier {tier:?}, expected {expected:?}"));
            }
            if shape != shape_of(op) {
                return Err(format!("{op}: reply is for another shape"));
            }
            check_schedule(&shape, &result, threads, fixed_layout)
                .map_err(|e| format!("{op}@{threads}: {e}"))?;
            Ok(result)
        }
        Response::Error { message } => Err(format!("{op}@{threads}: Error reply: {message}")),
        other => Err(format!("{op}@{threads}: unexpected reply {}", verb_of(&other))),
    }
}

pub fn verb_of(response: &Response) -> &'static str {
    match response {
        Response::Optimized { .. } => "Optimized",
        Response::Planned { .. } => "Planned",
        Response::GraphPlanned { .. } => "GraphPlanned",
        Response::Explained { .. } => "Explained",
        Response::Stats { .. } => "Stats",
        Response::Metrics { .. } => "Metrics",
        Response::MetricsText { .. } => "MetricsText",
        Response::Traced { .. } => "Traced",
        Response::Suites { .. } => "Suites",
        Response::Saved { .. } => "Saved",
        Response::Pong { .. } => "Pong",
        Response::Error { .. } => "Error",
    }
}

/// An `Optimize` reply is `<head>"optimize_seconds":<number>},"trace":…}}`
/// where `<head>` — op, spec, shape, cached, tier and the whole ranking — is
/// the same bytes every time the same tier answers the same key (the span
/// tree of a traced reply comes after it). Comparing heads checks a reply in
/// the timed loop for the cost of a `memcmp`, where parsing it would cost the
/// client more CPU than the server spent producing it.
pub fn reply_head(reply: &str) -> Option<&str> {
    reply.rfind("\"optimize_seconds\":").map(|at| &reply[..at])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_heads_ignore_only_the_solve_time() {
        let a = r#"{"Optimized":{"op":"R2","tier":"Db","result":{"ranked":[1,2],"optimize_seconds":0.00012},"trace":null}}"#;
        let b = r#"{"Optimized":{"op":"R2","tier":"Db","result":{"ranked":[1,2],"optimize_seconds":0.5},"trace":null}}"#;
        let c = r#"{"Optimized":{"op":"R2","tier":"Cache","result":{"ranked":[1,2],"optimize_seconds":0.5},"trace":null}}"#;
        assert_eq!(reply_head(a), reply_head(b));
        assert_ne!(reply_head(a), reply_head(c));
        assert!(reply_head(a).unwrap().ends_with("\"ranked\":[1,2],"));
        assert_eq!(reply_head(r#"{"Error":{"message":"x"}}"#), None);
        let traced = a.replace("\"trace\":null", "\"trace\":{\"name\":\"Optimize\"}");
        assert_eq!(reply_head(&traced), reply_head(a));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        tally.record(Err("bad".into()));
        tally.passed(3);
        tally.expect(true, || unreachable!());
        tally.expect(false, || "counter mismatch".into());
        assert_eq!((tally.attempted, tally.failed), (5, 2));
        assert_eq!(tally.messages, vec!["bad".to_string(), "counter mismatch".to_string()]);
    }

    #[test]
    fn an_optimizer_result_passes_and_a_tampered_price_fails() {
        let shape = ConvShape::new(1, 16, 8, 3, 3, 12, 12, 1).unwrap();
        let options = mopt_core::OptimizerOptions { max_classes: 1, ..Default::default() };
        let mut result = mopt_core::MOptOptimizer::new(shape, machine(), options).optimize();
        check_schedule(&shape, &result, 1, true).unwrap();
        result.ranked[0].predicted_cost *= 0.5;
        assert!(check_schedule(&shape, &result, 1, true).unwrap_err().contains("re-derives"));
    }
}
