//! A disabled [`TraceContext`] allocates no span state.
//!
//! [`mopt_trace::span_allocations`] is a process-global counter, and the
//! crate's unit tests enable tracing on parallel threads, so the delta can
//! only be asserted from a process that runs nothing else: this binary holds
//! this one test (`mopt_service`'s `trace_zero_alloc` does the same for the
//! warm-hit path).

use std::time::Duration;

use mopt_trace::{span_allocations, TraceContext};

#[test]
fn disabled_context_never_allocates() {
    let before = span_allocations();
    let ctx = TraceContext::disabled();
    {
        let _outer = ctx.span("outer");
        let _inner = ctx.span("inner");
        ctx.record("late", Duration::from_micros(5));
        ctx.tag("key", "value");
    }
    assert_eq!(ctx.finish(), None);
    assert_eq!(span_allocations(), before, "disabled path must not allocate");

    // The counter itself works: an enabled context moves it.
    let _enabled = TraceContext::enabled("root");
    assert!(span_allocations() > before);
}
