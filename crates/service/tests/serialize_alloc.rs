//! Acceptance: printing a reply allocates its output `String` and nothing
//! else.
//!
//! Before `Serialize` streamed, `to_string` built a `Value` tree — a `String`
//! per key and per string value, a `Vec` per object and array — and then a
//! temporary `String` per number: over 450 allocations for one warm
//! `Optimized` reply. This binary installs a counting `#[global_allocator]`
//! (which is why it is a binary of its own, as `trace_zero_alloc.rs` isolates
//! its counter); the count is per thread, so the tests here cannot disturb
//! each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use conv_spec::{ConvShape, DType, Spec};
use mopt_core::OptimizerOptions;
use mopt_service::{CacheKey, Request, Response, ServiceState};
use serde::{Deserialize, Serialize};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump,
// which neither allocates (const-initialized `Cell`, no destructor) nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls (`alloc` + `realloc`) this thread makes inside `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn fixture_responses() -> Vec<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/legacy_responses.jsonl");
    std::fs::read_to_string(path).unwrap().lines().map(str::to_string).collect()
}

#[test]
fn an_optimized_reply_allocates_only_its_output() {
    // The fixture's `Optimized` replies, and a live warm one.
    let mut replies: Vec<Response> = fixture_responses()
        .iter()
        .filter_map(|line| serde_json::from_str::<Response>(line).ok())
        .filter(|reply| matches!(reply, Response::Optimized { .. }))
        .collect();
    assert_eq!(replies.len(), 4);
    let state = ServiceState::new(64);
    let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() };
    let line = format!(
        "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
        serde_json::to_string(&options).unwrap(),
    );
    let request: Request = serde_json::from_str(&line).unwrap();
    state.handle(&request);
    let warm = state.handle(&request);
    assert!(matches!(warm, Response::Optimized { cached: true, .. }));
    replies.push(warm);

    for reply in &replies {
        let (text, count) = allocations(|| serde_json::to_string(reply).unwrap());
        assert!(text.len() > 600, "{text}");
        assert!(count <= 3, "{count} allocations for {} bytes", text.len());
        // The counter does count: the tree of the same reply takes dozens to hundreds.
        let (_, tree) = allocations(|| serde::to_value(reply));
        assert!(tree > 50, "{tree}");
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Derived {
    id: u64,
    delta: i32,
    ratio: f64,
    label: String,
    maybe: Option<u8>,
    pair: (u8, bool),
    items: Vec<DerivedEnum>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapper(u8, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum DerivedEnum {
    Plain,
    One(f32),
    Two(u8, Wrapper),
    Named { x: i64, unit: Unit },
}

/// Streaming `value` gives the text of its tree, which is the literal
/// `expected`, and allocates nothing the tree route's hundreds would hide.
fn assert_text<T: Serialize>(value: &T, expected: &str) {
    let (text, count) = allocations(|| serde_json::to_string(value).unwrap());
    assert_eq!(text, expected);
    assert_eq!(serde_json::to_string(&serde::to_value(value)).unwrap(), expected);
    assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        serde_json::to_string_pretty(&serde::to_value(value)).unwrap()
    );
    assert_eq!(count, 1, "{expected}");
}

#[test]
fn derived_struct_and_enum_agree_with_their_trees() {
    let value = Derived {
        id: u64::MAX,
        delta: -7,
        ratio: 2.0,
        label: "a \"b\"".to_string(),
        maybe: None,
        pair: (3, true),
        items: vec![
            DerivedEnum::Plain,
            DerivedEnum::One(0.5),
            DerivedEnum::Two(9, Wrapper(1, "w".to_string())),
            DerivedEnum::Named { x: i64::MIN, unit: Unit },
        ],
    };
    assert_text(
        &value,
        "{\"id\":18446744073709551615,\"delta\":-7,\"ratio\":2.0,\"label\":\"a \\\"b\\\"\",\
         \"maybe\":null,\"pair\":[3,true],\"items\":[\"Plain\",{\"One\":0.5},{\"Two\":[9,[1,\"w\"]]},\
         {\"Named\":{\"x\":-9223372036854775808,\"unit\":{}}}]}",
    );
    let back: Derived = serde_json::from_str(&serde_json::to_string(&value).unwrap()).unwrap();
    assert_eq!(back, value);
}

#[test]
fn hand_written_impls_agree_with_their_trees() {
    let shape = ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap();
    let conv = "{\"n\":1,\"k\":8,\"c\":4,\"r\":3,\"s\":3,\"h\":10,\"w\":10,\"stride\":1,\"dilation\":1,\"groups\":1}";
    assert_text(&shape, conv);
    assert_text(&Spec::Conv(shape), &format!("{{\"Conv\":{conv}}}"));
    let matmul = Spec::Matmul { m: 8, n: 4, k: 6, dtype: DType::F32 };
    assert_text(&matmul, "{\"Matmul\":{\"m\":8,\"n\":4,\"k\":6,\"dtype\":\"F32\"}}");

    // `CacheKey` (and `NamedLayer`, in the `Planned` fixture reply) embed the
    // problem by `Spec::serialize_field`: a conv is the flat legacy `shape`.
    let options = OptimizerOptions::fast();
    let machine = conv_spec::MachineModel::tiny_test_machine();
    for spec in [Spec::Conv(shape), matmul] {
        let key = CacheKey::new(spec, &machine, &options);
        let text = serde_json::to_string(&key).unwrap();
        let field = match spec {
            Spec::Conv(_) => format!("{{\"shape\":{conv},\"machine_fingerprint\":"),
            _ => "{\"spec\":{\"Matmul\":{".to_string(),
        };
        assert!(text.starts_with(&field), "{text}");
        assert_text(&key, &text);
        assert_eq!(serde_json::from_str::<CacheKey>(&text).unwrap(), key);
    }

    // `TileConfig` omits its default layout; every schedule in the fixture
    // replies goes through it.
    for line in fixture_responses() {
        if let Ok(reply) = serde_json::from_str::<Response>(&line) {
            let text = serde_json::to_string(&reply).unwrap();
            assert!(!text.contains("\"layout\":"), "{text}");
        }
    }
}
