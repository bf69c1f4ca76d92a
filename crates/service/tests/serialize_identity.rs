//! Byte identity of the streaming serializer on the typed forms of the wire
//! back-compat fixtures.
//!
//! `serde_json`'s own `write_oracle` holds the text writer to the old
//! tree-then-print route over [`serde::Value`] trees. This test closes the
//! loop for the types the server really prints: every fixture document is
//! parsed into its typed form (`Request`, `Response`, `Snapshot`, db
//! records), and streaming that value straight to text must give the bytes of
//! the old route — build its tree with [`serde::to_value`], print the tree —
//! compact and pretty.

use std::path::{Path, PathBuf};

use mopt_core::OptimizerOptions;
use mopt_db::SpecRecord;
use mopt_service::{Request, Response, ServiceState, Snapshot};
use serde::{Deserialize, Serialize};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures").join(name)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Stream `value` to text and compare with the text of its tree; returns the
/// compact text.
fn assert_streams_like_its_tree<T: Serialize>(value: &T, what: &str) -> String {
    let tree = serde::to_value(value);
    let compact = serde_json::to_string(value).unwrap();
    assert_eq!(compact, serde_json::to_string(&tree).unwrap(), "compact {what}");
    assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap(),
        "pretty {what}"
    );
    compact
}

/// Parse `text` as a `T`, check it streams like its tree, and check the text
/// it prints parses back to the same value.
fn check_document<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(text: &str) {
    let typed: T = serde_json::from_str(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let compact = assert_streams_like_its_tree(&typed, text);
    assert_eq!(serde_json::from_str::<T>(&compact).unwrap(), typed, "{text}");
}

#[test]
fn legacy_requests_and_responses_stream_like_their_trees() {
    // The pinned `Explained` and `GraphPlanned` lines predate fields their
    // typed forms now require (`live_replies_…` below covers both variants;
    // `serde_json`'s oracle covers their trees).
    let responses = read(&fixture("legacy_responses.jsonl"));
    let typed: Vec<&str> =
        responses.lines().filter(|l| serde_json::from_str::<Response>(l).is_ok()).collect();
    assert_eq!(typed.len(), 6, "four Optimized, one Planned, one Saved");
    typed.into_iter().for_each(check_document::<Response>);
    // `Request` only serializes (its parser is hand-written and lenient).
    for line in read(&fixture("legacy_requests.jsonl")).lines() {
        let request: Request = serde_json::from_str(line).unwrap();
        assert_streams_like_its_tree(&request, line);
    }
}

/// One live reply of every verb, traced and untraced, plus an `Error`.
#[test]
fn live_replies_of_every_verb_stream_like_their_trees() {
    let state = ServiceState::new(64).with_slow_ms(1);
    let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() };
    let target = format!(
        "\"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}",
        serde_json::to_string(&options).unwrap()
    );
    let lines = [
        format!("{{\"Optimize\": {{\"op\": \"M9\", {target}}}}}"),
        format!("{{\"Optimize\": {{\"op\": \"M9\", {target}, \"trace\": true}}}}"),
        format!("{{\"Optimize\": {{\"spec\": {{\"Matmul\": {{\"m\": 8, \"n\": 4, \"k\": 6, \"dtype\": \"F32\"}}}}, {target}}}}}"),
        format!("{{\"Explain\": {{\"op\": \"M9\", {target}}}}}"),
        format!("{{\"PlanNetwork\": {{\"suite\": \"dilated\", {target}, \"trace\": true}}}}"),
        format!("{{\"PlanGraph\": {{\"block\": \"mbv2-block1\", {target}, \"trace\": true}}}}"),
        "\"Stats\"".to_string(),
        "\"Metrics\"".to_string(),
        "{\"Metrics\": {\"format\": \"prometheus\"}}".to_string(),
        "\"Trace\"".to_string(),
        "\"Suites\"".to_string(),
        "\"Save\"".to_string(),
        "\"Ping\"".to_string(),
        "{\"Optimize\": {\"op\": \"no \\\"such\\\" op\"}}".to_string(),
    ];
    for line in &lines {
        let reply = state.handle_line(line);
        check_document::<Response>(&reply);
        // What the server wrote is what its typed form streams to.
        let typed: Response = serde_json::from_str(&reply).unwrap();
        assert_eq!(serde_json::to_string(&typed).unwrap(), reply, "{line}");
    }
}

#[test]
fn legacy_snapshot_streams_like_its_tree() {
    check_document::<Snapshot>(&read(&fixture("legacy_snapshot.json")));
}

/// A page's checksum is the FNV-1a of its re-serialized record list: the
/// stored checksums pin the streamed bytes to what the old writer wrote.
#[test]
fn legacy_db_pages_stream_to_their_stored_checksums() {
    let mut pages = 0;
    for entry in std::fs::read_dir(fixture("legacy_db")).unwrap() {
        let path = entry.unwrap().path();
        if !path.file_name().unwrap().to_string_lossy().starts_with("page-") {
            continue;
        }
        let text = read(&path);
        let page = serde_json::parse_value(&text).unwrap();
        let records = Vec::<SpecRecord>::from_value(page.get("records").unwrap()).unwrap();
        let compact = assert_streams_like_its_tree(&records, &text);
        assert_eq!(
            format!("{:016x}", mopt_db::fnv1a(compact.as_bytes())),
            page.get("checksum").unwrap().as_str().unwrap(),
            "{}",
            path.display()
        );
        // The whole page document is the records between a fixed head and tail.
        assert!(text.trim_end().ends_with(&format!("\"records\":{compact}}}")));
        pages += 1;
    }
    assert_eq!(pages, 4);
}
