//! Wire back-compat gate: requests and database pages written before the
//! spec generalization must keep working, bit-identically.
//!
//! `tests/fixtures/` at the repository root holds artifacts captured from a
//! pre-spec `moptd`:
//!
//! * `legacy_requests.jsonl` / `legacy_responses.jsonl` — a request script
//!   and its pinned responses. Replayed here through a real `moptd --stdio`
//!   child; every field the old server emitted (tier, cached, shapes,
//!   schedule configs, certified costs) must come back unchanged. New
//!   response fields (`spec`, `deprecated`) may appear; pinned ones may not
//!   drift.
//! * `legacy_db/` — database pages keyed by pre-spec conv fingerprints.
//!   Must serve a cold process from the db tier without a single solve.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use conv_spec::{LayoutConfig, MachineModel};
use mopt_service::{Response, ServiceState, Tier};
use serde::Value;

/// The machine fingerprint every fixture was captured against. If
/// `MachineModel::fingerprint()` drifts, old db pages silently
/// stop matching — pin it.
const TINY_MACHINE_FINGERPRINT: u64 = 8713081057233441346;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn fixture_lines(name: &str) -> Vec<String> {
    let path = fixture_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    text.lines().filter(|l| !l.trim().is_empty()).map(|l| l.to_string()).collect()
}

/// Timing fields vary run to run; everything else is pinned.
fn is_volatile(key: &str) -> bool {
    matches!(
        key,
        "optimize_seconds" | "solve_seconds" | "wall_seconds" | "plan_seconds" | "uptime_seconds"
    )
}

/// Assert every non-volatile field of `pinned` is present in `live` with an
/// identical value. `live` may carry *extra* fields (the spec redesign added
/// `spec` and `deprecated` to responses); the pinned ones may not change.
fn assert_pinned_subset(pinned: &Value, live: &Value, path: &str) {
    match (pinned, live) {
        (Value::Object(pinned_fields), Value::Object(_)) => {
            for (key, pinned_value) in pinned_fields {
                if is_volatile(key) {
                    continue;
                }
                let live_value = live
                    .get(key)
                    .unwrap_or_else(|| panic!("{path}.{key}: pinned field missing from reply"));
                assert_pinned_subset(pinned_value, live_value, &format!("{path}.{key}"));
            }
        }
        (Value::Array(pinned_items), Value::Array(live_items)) => {
            assert_eq!(pinned_items.len(), live_items.len(), "{path}: pinned array length changed");
            for (i, (p, l)) in pinned_items.iter().zip(live_items).enumerate() {
                assert_pinned_subset(p, l, &format!("{path}[{i}]"));
            }
        }
        _ => assert_eq!(pinned, live, "{path}: pinned value changed"),
    }
}

/// Acceptance (PR 9): every pre-redesign request replayed through a real
/// `moptd` returns bit-identical certified costs and schedules to its pinned
/// pre-redesign output.
#[test]
fn legacy_requests_replay_bit_identically_through_moptd() {
    let requests = fixture_lines("legacy_requests.jsonl");
    let pinned = fixture_lines("legacy_responses.jsonl");
    assert_eq!(requests.len(), pinned.len(), "fixture files out of sync");

    // The capture ran with an (initially empty) db attached — the
    // write-through from request 0 makes request 3 a db-tier hit, and the
    // final `"Save"` reports the resident cache entry count. Reproduce that
    // stack with a throwaway db.
    let db = std::env::temp_dir().join(format!("moptd-backcompat-db-{}", std::process::id()));
    std::fs::remove_dir_all(&db).ok();

    let mut child = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .arg("--stdio")
        .arg("--db")
        .arg(&db)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("moptd spawns");
    {
        let stdin = child.stdin.as_mut().expect("moptd stdin");
        for line in &requests {
            stdin.write_all(line.as_bytes()).unwrap();
            stdin.write_all(b"\n").unwrap();
        }
    }
    child.stdin.take();
    let stdout = BufReader::new(child.stdout.take().expect("moptd stdout"));
    let replies: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert!(child.wait().unwrap().success());
    std::fs::remove_dir_all(&db).ok();
    assert_eq!(replies.len(), pinned.len(), "one reply per request");

    for (i, (pinned_line, live_line)) in pinned.iter().zip(&replies).enumerate() {
        let pinned_value = serde_json::parse_value(pinned_line)
            .unwrap_or_else(|e| panic!("pinned response {i} unparsable: {e}"));
        let live_value = serde_json::parse_value(live_line)
            .unwrap_or_else(|e| panic!("live response {i} unparsable: {e}"));
        assert_pinned_subset(&pinned_value, &live_value, &format!("response[{i}]"));
    }
}

/// Pre-spec database pages (conv-fingerprint keyed) serve a cold process
/// from the db tier: same canonicalization, same fingerprints, no solve.
#[test]
fn legacy_db_pages_serve_a_cold_process() {
    assert_eq!(
        MachineModel::tiny_test_machine().fingerprint(),
        TINY_MACHINE_FINGERPRINT,
        "machine fingerprint drifted: every captured db page would go cold"
    );
    let dir =
        std::env::temp_dir().join(format!("moptd-backcompat-legacy-db-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(fixture_dir().join("legacy_db")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let state = ServiceState::new(64).with_db(dir.clone()).unwrap();
    // Replay the legacy Optimize requests whose solves were recorded into
    // the fixture db: by shape, by table-1 name, and by deprecated alias.
    for request in &fixture_lines("legacy_requests.jsonl")[0..3] {
        let response: Response = serde_json::from_str(&state.handle_line(request)).unwrap();
        match response {
            Response::Optimized { cached, tier, result, .. } => {
                assert!(!cached);
                assert_eq!(tier, Some(Tier::Db), "request {request} must hit the db tier");
                assert!(!result.ranked.is_empty());
            }
            other => panic!("expected Optimized, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// New with the layout axis: a layout-less legacy request must resolve to the
/// paper's default layout. The parsed schedule reports `is_default()`, the
/// wire form omits the `layout` field entirely for default-layout schedules
/// (database page checksums cover the re-serialized record list, so the
/// pre-layout byte form must be preserved exactly), and every pinned field
/// of the legacy fixture response is still served unchanged.
#[test]
fn legacy_layoutless_requests_resolve_to_the_default_layout() {
    let state = ServiceState::new(64);
    let requests = fixture_lines("legacy_requests.jsonl");
    let pinned = fixture_lines("legacy_responses.jsonl");
    for (request, pinned_line) in requests[0..3].iter().zip(&pinned[0..3]) {
        let line = state.handle_line(request);
        let response: Response = serde_json::from_str(&line).unwrap();
        let result = match response {
            Response::Optimized { result, .. } => result,
            other => panic!("expected Optimized, got {other:?}"),
        };
        for candidate in &result.ranked {
            assert!(
                candidate.config.layout.is_default(),
                "layout-less request {request} served a non-default layout {:?}",
                candidate.config.layout
            );
        }

        // Default layouts are resolved semantically, never spelled on the
        // wire: the schedule object must serialize exactly as it did before
        // the layout axis existed.
        let value = serde_json::parse_value(&line).unwrap();
        let config = value
            .get("Optimized")
            .and_then(|r| r.get("result"))
            .and_then(|r| r.get("ranked"))
            .and_then(|r| r.as_array())
            .and_then(|ranked| ranked.first())
            .and_then(|c| c.get("config"))
            .expect("reply carries a ranked schedule");
        assert!(
            config.get("layout").is_none(),
            "default layout must be omitted from the wire form, got {:?}",
            config.get("layout")
        );
        // A non-default layout does get spelled out.
        let best = result.best().config.clone().with_layout(LayoutConfig::blocked(8));
        let spelled = serde_json::to_string(&best).unwrap();
        assert!(spelled.contains("\"layout\""), "non-default layout missing: {spelled}");

        // And the pinned pre-layout fixture fields still hold around it.
        let pinned_value = serde_json::parse_value(pinned_line).unwrap();
        assert_pinned_subset(&pinned_value, &value, "response");
    }
}
