//! Acceptance: with tracing disabled, the warm-hit path allocates no trace
//! state at all.
//!
//! [`mopt_trace`] counts every span-state allocation in a global counter
//! (`span_allocations`); a disabled [`mopt_trace::TraceContext`] is an
//! `Option::None` and every span/tag/record call on it is a no-op. This
//! test lives in its own integration-test binary (its own process) because
//! the counter is process-global: any concurrently running test that
//! enables tracing — and the service tests do — would race the delta.

use mopt_core::OptimizerOptions;
use mopt_service::{Response, ServiceState};

#[test]
fn warm_hits_without_tracing_allocate_no_spans() {
    let state = ServiceState::new(64);
    let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() };
    let line = format!(
        "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
        serde_json::to_string(&options).unwrap(),
    );
    // Warm the cache (the cold solve also runs with tracing disabled, but
    // only the warm path is the latency-critical one the guarantee is for).
    let cold: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
    assert!(matches!(cold, Response::Optimized { cached: false, .. }));

    let before = mopt_trace::span_allocations();
    for _ in 0..100 {
        let warm: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        assert!(matches!(warm, Response::Optimized { cached: true, trace: None, .. }));
    }
    assert_eq!(
        mopt_trace::span_allocations() - before,
        0,
        "disabled tracing must not allocate span state on the warm-hit path"
    );

    // Sanity check on the counter itself: a traced request moves it.
    let traced_line = line.replace(", \"options\"", ", \"trace\": true, \"options\"");
    let traced: Response = serde_json::from_str(&state.handle_line(&traced_line)).unwrap();
    assert!(matches!(traced, Response::Optimized { trace: Some(_), .. }));
    assert!(
        mopt_trace::span_allocations() > before,
        "an enabled context must be visible to the counter"
    );
}
