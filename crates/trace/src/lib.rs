//! `mopt_trace` — lightweight structured tracing for the serving stack.
//!
//! Three building blocks, shared by the service layer and the bench harness:
//!
//! * [`TraceContext`] / [`SpanNode`] — a request-scoped span tree with
//!   monotonic microsecond timestamps. A context is either *enabled* (backed
//!   by a mutex-protected tree) or *disabled* (a `None` — every operation is
//!   a branch and nothing else, so the warm-hit path pays no allocation when
//!   tracing is off; [`span_allocations`] lets tests assert that).
//! * [`LatencyHistogram`] — a lock-free log2-bucketed latency histogram
//!   (moved here from the service crate so single-flight wait times and
//!   per-verb latency share one implementation).
//! * [`TraceRing`] — a bounded overwrite-oldest ring for retaining the last
//!   N slow-request traces.
//!
//! Timestamps come from [`std::time::Instant`] only — wall-clock time never
//! enters a trace, so spans are immune to clock steps.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Counts every heap-allocating trace operation (context creation, span
/// opening, retroactive recording) across the process lifetime.
static SPAN_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Total trace operations that allocated since process start.
///
/// Disabled contexts never bump this, which is exactly what the
/// zero-overhead test asserts: serving untraced warm hits leaves the counter
/// untouched.
pub fn span_allocations() -> u64 {
    SPAN_ALLOCATIONS.load(Ordering::Relaxed)
}

fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One key/value annotation on a span (e.g. `role = "led"`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanTag {
    /// Tag name.
    pub key: String,
    /// Tag value, always a string on the wire.
    pub value: String,
}

/// One completed span: a named interval with tags and child spans.
///
/// `start_micros` is the offset from the trace root's creation (monotonic
/// clock), so sibling spans can be ordered and gaps attributed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Span name (e.g. `"cache_probe"`, `"solve"`).
    pub name: String,
    /// Microseconds from the root's start to this span's start.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
    /// Key/value annotations.
    pub tags: Vec<SpanTag>,
    /// Child spans, in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &str, start_micros: u64) -> Self {
        SpanNode {
            name: name.to_string(),
            start_micros,
            duration_micros: 0,
            tags: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Depth-first search for a descendant span (or self) named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|child| child.find(name))
    }

    /// Value of tag `key` on this span, if present.
    pub fn tag_value(&self, key: &str) -> Option<&str> {
        self.tags.iter().find(|t| t.key == key).map(|t| t.value.as_str())
    }
}

#[derive(Debug)]
struct TraceState {
    base: Instant,
    root: SpanNode,
    /// Open spans, innermost last. Closed spans move into their parent's
    /// `children` (or the root's, when the stack empties).
    stack: Vec<SpanNode>,
}

/// A request-scoped trace handle, cheap to clone and thread through the
/// answer path.
///
/// A disabled context (the default) is a `None`: every method is a branch
/// with no allocation, no locking, and no clock read. An enabled context
/// shares one mutex-protected span tree across clones, so spans opened
/// inside a single-flight closure land in the same tree as the caller's.
#[derive(Debug, Clone, Default)]
pub struct TraceContext {
    inner: Option<Arc<Mutex<TraceState>>>,
}

impl TraceContext {
    /// A context that records nothing and never allocates.
    pub fn disabled() -> Self {
        TraceContext { inner: None }
    }

    /// A recording context whose root span is named `root_name`; the
    /// monotonic clock starts now.
    pub fn enabled(root_name: &str) -> Self {
        SPAN_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        TraceContext {
            inner: Some(Arc::new(Mutex::new(TraceState {
                base: Instant::now(),
                root: SpanNode::new(root_name, 0),
                stack: Vec::new(),
            }))),
        }
    }

    /// Whether this context records spans.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span named `name`; it closes (and attaches to its parent) when
    /// the returned guard drops. A no-op on disabled contexts.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let Some(inner) = &self.inner else {
            return SpanGuard { inner: None };
        };
        SPAN_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let mut state = lock_recover(inner);
        let start = state.base.elapsed().as_micros() as u64;
        let node = SpanNode::new(name, start);
        state.stack.push(node);
        SpanGuard { inner: Some(inner) }
    }

    /// Retroactively record a completed interval of `duration` ending now,
    /// as a child of the innermost open span (or the root). Used for work
    /// measured before the context existed, like request parsing or
    /// queue wait.
    pub fn record(&self, name: &str, duration: Duration) {
        let Some(inner) = &self.inner else { return };
        SPAN_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let mut state = lock_recover(inner);
        let now = state.base.elapsed().as_micros() as u64;
        let micros = duration.as_micros().min(u64::MAX as u128) as u64;
        let mut node = SpanNode::new(name, now.saturating_sub(micros));
        node.duration_micros = micros;
        match state.stack.last_mut() {
            Some(open) => open.children.push(node),
            None => state.root.children.push(node),
        }
    }

    /// Annotate the innermost open span (or the root) with `key = value`.
    pub fn tag(&self, key: &str, value: &str) {
        let Some(inner) = &self.inner else { return };
        let mut state = lock_recover(inner);
        let tag = SpanTag { key: key.to_string(), value: value.to_string() };
        match state.stack.last_mut() {
            Some(open) => open.tags.push(tag),
            None => state.root.tags.push(tag),
        }
    }

    /// Close the trace: any still-open spans are closed at the current
    /// instant, the root's duration is set to now, and a clone of the
    /// finished tree is returned. `None` on disabled contexts.
    pub fn finish(&self) -> Option<SpanNode> {
        let inner = self.inner.as_ref()?;
        let mut state = lock_recover(inner);
        let now = state.base.elapsed().as_micros() as u64;
        while let Some(mut node) = state.stack.pop() {
            node.duration_micros = now.saturating_sub(node.start_micros);
            match state.stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => state.root.children.push(node),
            }
        }
        state.root.duration_micros = now;
        Some(state.root.clone())
    }
}

/// RAII guard that closes the span opened by [`TraceContext::span`].
#[derive(Debug)]
pub struct SpanGuard<'a> {
    inner: Option<&'a Arc<Mutex<TraceState>>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner else { return };
        let mut state = lock_recover(inner);
        let Some(mut node) = state.stack.pop() else { return };
        let now = state.base.elapsed().as_micros() as u64;
        node.duration_micros = now.saturating_sub(node.start_micros);
        match state.stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => state.root.children.push(node),
        }
    }
}

/// A bounded overwrite-oldest ring of trace entries.
///
/// Writers claim a slot with one atomic increment and store under that
/// slot's own mutex, so pushes never contend with each other (different
/// slots) and snapshots never observe a torn entry (slot mutex). Used for
/// the last-N slow-request log behind the `Trace` verb.
#[derive(Debug)]
pub struct TraceRing<T> {
    slots: Vec<Mutex<Option<(u64, T)>>>,
    head: AtomicU64,
}

impl<T: Clone> TraceRing<T> {
    /// An empty ring holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Append `entry`, overwriting the oldest retained entry when full.
    pub fn push(&self, entry: T) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *lock_recover(slot) = Some((seq, entry));
    }

    /// Entries pushed since creation (not capped at capacity).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Clone of the retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        let mut entries: Vec<(u64, T)> =
            self.slots.iter().filter_map(|slot| lock_recover(slot).clone()).collect();
        entries.sort_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, entry)| entry).collect()
    }
}

/// Number of log2 buckets: bucket 63 absorbs everything ≥ 2^63 µs.
const BUCKETS: usize = 64;

/// A lock-free latency histogram with log2 microsecond buckets.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` microseconds, so one fixed-size array
/// of atomics spans sub-microsecond cache hits and multi-second cold solves
/// with zero allocation on the record path. The wire snapshot lists only
/// non-empty buckets, keyed by their inclusive upper bound.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, elapsed: Duration) {
        let micros = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Serializable snapshot (non-empty buckets only).
    ///
    /// `record` bumps the bucket before the count, and this reads the count
    /// before the buckets — so under concurrent recording a snapshot's
    /// bucket sum is always ≥ its count (never a phantom observation).
    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum_micros.load(Ordering::Relaxed);
        LatencySnapshot {
            count,
            sum_micros: sum,
            mean_micros: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            max_micros: self.max_micros.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then(|| HistogramBucket {
                        le_micros: if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 },
                        count: c,
                    })
                })
                .collect(),
        }
    }
}

/// One non-empty histogram bucket on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Upper bound of the bucket, inclusive, in microseconds.
    pub le_micros: u64,
    /// Observations in the bucket (this bucket alone, not cumulative).
    pub count: u64,
}

/// Wire form of one latency distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations in microseconds.
    pub sum_micros: u64,
    /// Mean latency in microseconds.
    pub mean_micros: f64,
    /// Worst observed latency in microseconds.
    pub max_micros: u64,
    /// Non-empty log2 buckets, ascending.
    pub buckets: Vec<HistogramBucket>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_context_records_nothing() {
        // That it also allocates nothing is asserted on the process-global
        // counter, from a binary of its own: `tests/disabled_zero_alloc.rs`.
        let ctx = TraceContext::disabled();
        assert!(!ctx.is_enabled());
        {
            let _outer = ctx.span("outer");
            let _inner = ctx.span("inner");
            ctx.record("late", Duration::from_micros(5));
            ctx.tag("key", "value");
        }
        assert_eq!(ctx.finish(), None);
    }

    #[test]
    fn spans_nest_and_attach_in_completion_order() {
        let ctx = TraceContext::enabled("request");
        {
            let _probe = ctx.span("cache_probe");
        }
        {
            let _flight = ctx.span("flight");
            ctx.tag("role", "led");
            {
                let _solve = ctx.span("solve");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        ctx.record("serialize", Duration::from_micros(40));
        let root = ctx.finish().expect("enabled trace finishes");
        assert_eq!(root.name, "request");
        assert_eq!(
            root.children.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            vec!["cache_probe", "flight", "serialize"]
        );
        let flight = root.find("flight").unwrap();
        assert_eq!(flight.tag_value("role"), Some("led"));
        let solve = flight.find("solve").unwrap();
        assert!(solve.duration_micros >= 2_000, "solve slept 2ms");
        assert!(flight.duration_micros >= solve.duration_micros);
        assert!(root.duration_micros >= flight.duration_micros);
        assert!(solve.start_micros >= flight.start_micros);
        assert!(root.find("missing").is_none());
    }

    #[test]
    fn clones_share_one_tree() {
        let ctx = TraceContext::enabled("request");
        let clone = ctx.clone();
        {
            let _span = clone.span("from_clone");
        }
        let root = ctx.finish().unwrap();
        assert!(root.find("from_clone").is_some());
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let ctx = TraceContext::enabled("request");
        let guard = ctx.span("open");
        let root = ctx.finish().unwrap();
        assert!(root.find("open").is_some());
        drop(guard);
    }

    #[test]
    fn span_tree_serializes_and_round_trips() {
        let ctx = TraceContext::enabled("request");
        {
            let _a = ctx.span("a");
            ctx.tag("k", "v");
        }
        let root = ctx.finish().unwrap();
        let text = serde_json::to_string(&root).unwrap();
        let back: SpanNode = serde_json::from_str(&text).unwrap();
        assert_eq!(back, root);
    }

    #[test]
    fn ring_retains_the_newest_entries_in_order() {
        let ring: TraceRing<u32> = TraceRing::new(4);
        assert_eq!(ring.capacity(), 4);
        assert!(ring.snapshot().is_empty());
        for i in 0..10 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot(), vec![6, 7, 8, 9]);
        assert_eq!(ring.pushed(), 10);
    }

    #[test]
    fn histogram_snapshot_carries_the_sum() {
        let hist = LatencyHistogram::default();
        hist.record(Duration::from_micros(3));
        hist.record(Duration::from_micros(7));
        let snap = hist.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_micros, 10);
        assert_eq!(snap.max_micros, 7);
        assert!((snap.mean_micros - 5.0).abs() < 1e-9);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Writers hammer `record` while readers take snapshots: every
        /// snapshot is internally consistent (bucket sum ≥ count, both
        /// bounded by the true total, max from the recorded value set), and
        /// the final quiescent snapshot is exact — no observation is torn
        /// across count/sum/bucket updates.
        #[test]
        fn histogram_snapshots_are_never_torn(
            seed in 0u64..1_000_000,
            writers in 1usize..5,
        ) {
            let hist = LatencyHistogram::default();
            let per_writer = 200u64;
            let total = writers as u64 * per_writer;
            let value = |x: u64| x % 50_000;
            std::thread::scope(|scope| {
                for t in 0..writers {
                    let hist = &hist;
                    scope.spawn(move || {
                        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(t as u64 + 1);
                        for _ in 0..per_writer {
                            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                            hist.record(Duration::from_micros(value(x)));
                        }
                    });
                }
                let hist = &hist;
                scope.spawn(move || {
                    for _ in 0..400 {
                        let snap = hist.snapshot();
                        let bucket_sum: u64 = snap.buckets.iter().map(|b| b.count).sum();
                        assert!(bucket_sum >= snap.count, "bucket before count in record()");
                        assert!(snap.count <= total);
                        assert!(bucket_sum <= total);
                        assert!(snap.max_micros < 50_000);
                        for b in &snap.buckets {
                            assert!(
                                b.le_micros == u64::MAX || (b.le_micros + 1).is_power_of_two(),
                                "bucket bounds are 2^k - 1"
                            );
                        }
                        std::hint::spin_loop();
                    }
                });
            });
            // Quiescent: totals are exact.
            let mut x_check = 0u64;
            let mut expected_sum = 0u64;
            let mut expected_max = 0u64;
            for t in 0..writers {
                let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(t as u64 + 1);
                for _ in 0..per_writer {
                    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                    expected_sum += value(x);
                    expected_max = expected_max.max(value(x));
                    x_check = x_check.wrapping_add(x);
                }
            }
            let snap = hist.snapshot();
            prop_assert_eq!(snap.count, total);
            prop_assert_eq!(snap.sum_micros, expected_sum);
            prop_assert_eq!(snap.max_micros, expected_max);
            prop_assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), total);
        }

        /// Writers push tagged (value, checksum) pairs while readers
        /// snapshot: every observed entry has a valid checksum (no torn
        /// entry), snapshots never exceed capacity, and the final snapshot
        /// holds exactly min(total, capacity) distinct entries.
        #[test]
        fn ring_snapshots_are_never_torn(
            seed in 0u64..1_000_000,
            writers in 1usize..5,
            capacity in 1usize..33,
        ) {
            let ring: TraceRing<(u64, u64)> = TraceRing::new(capacity);
            let per_writer = 100u64;
            let total = writers as u64 * per_writer;
            let checksum = |v: u64| v.wrapping_mul(31).wrapping_add(7);
            std::thread::scope(|scope| {
                for t in 0..writers {
                    let ring = &ring;
                    scope.spawn(move || {
                        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(t as u64 + 1);
                        for _ in 0..per_writer {
                            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                            ring.push((x, checksum(x)));
                        }
                    });
                }
                let ring = &ring;
                scope.spawn(move || {
                    for _ in 0..200 {
                        let snap = ring.snapshot();
                        assert!(snap.len() <= capacity);
                        for (v, c) in &snap {
                            assert_eq!(*c, checksum(*v), "entry observed un-torn");
                        }
                        std::hint::spin_loop();
                    }
                });
            });
            let snap = ring.snapshot();
            prop_assert_eq!(snap.len() as u64, total.min(capacity as u64));
            prop_assert_eq!(ring.pushed(), total);
            for (v, c) in &snap {
                prop_assert_eq!(*c, checksum(*v));
            }
        }
    }
}
