//! The request lines the workloads send. Everything the program under test
//! sees is generated here, from fixed op lists and the seeded generator.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::rng::SplitMix64;

/// The machine every request targets.
pub const MACHINE: &str = r#"{"Preset":"i7-9700k"}"#;

/// The 17 named ops `plan_session` solves cold; its flushed database is the
/// fixture the `serve_*` workloads copy. Dense 3×3 (`R2`), pointwise (`R3`,
/// `Y5`), strided (`R4*`), small-spatial wide-channel (`R12`), dilated
/// (`D1`), the two parallel-search ops (`R6`, `R8`) and the nine MobileNetV2
/// depthwise stages.
pub const FIXTURE_OPS: [&str; 17] = [
    "R2", "R3", "R4*", "R6", "R8", "R12", "Y5", "D1", "V1", "V2*", "V3", "V4*", "V5", "V6*", "V7",
    "V8*", "V9",
];

/// Thread counts of the `serve_warm` key set: 17 × 4 = 68 keys, far below the
/// 4096-entry schedule cache.
pub const WARM_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Thread counts of the `serve_db` key set: 17 × 12 = 204 keys, far above the
/// 16-entry schedule cache that workload's server runs with.
pub const DB_THREADS: std::ops::RangeInclusive<usize> = 1..=12;

/// One `Optimize` key: an op at a thread count, and the line that asks for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    pub op: &'static str,
    pub threads: usize,
    pub line: String,
}

pub fn optimize_line(op: &str, threads: usize) -> String {
    format!("{{\"Optimize\":{{\"op\":\"{op}\",\"machine\":{MACHINE},\"threads\":{threads}}}}}\n")
}

pub fn key_set(threads: impl IntoIterator<Item = usize> + Clone) -> Vec<Key> {
    FIXTURE_OPS
        .iter()
        .flat_map(|&op| {
            threads.clone().into_iter().map(move |t| Key {
                op,
                threads: t,
                line: optimize_line(op, t),
            })
        })
        .collect()
}

/// `serve_warm`: each connection draws keys uniformly from its own stream.
pub fn uniform_order(seed: u64, connection: u64, keys: usize) -> impl FnMut() -> usize {
    let mut rng = SplitMix64::fork(seed, 0x5741_524D + connection);
    move || rng.below(keys)
}

/// `serve_db`: one shared sequence of whole-key-list shuffles, so a key's
/// reuse distance is about the size of the key list.
pub fn shuffled_rounds(seed: u64, keys: usize, rounds: usize) -> Vec<u16> {
    let mut rng = SplitMix64::fork(seed, 0x4442);
    let mut order: Vec<u16> = (0..keys as u16).collect();
    let mut sequence = Vec::with_capacity(keys * rounds);
    for _ in 0..rounds {
        rng.shuffle(&mut order);
        sequence.extend_from_slice(&order);
    }
    sequence
}

/// All connections consume `sequence` through one cursor, cyclically.
pub fn shared_order<'a>(
    sequence: &'a [u16],
    cursor: &'a AtomicUsize,
) -> impl FnMut() -> usize + 'a {
    move || sequence[cursor.fetch_add(1, Ordering::Relaxed) % sequence.len()] as usize
}

/// The same request with `"trace": true`, which makes the server return the
/// request's span tree inline.
pub fn traced(line: &str) -> String {
    let body = line.trim_end().strip_suffix("}}").expect("a tagged request object");
    format!("{body},\"trace\":true}}}}\n")
}

/// What one step of the `plan_session` script is, which decides what its
/// reply must look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A cold `Optimize` at one thread, default options.
    OptimizeT1,
    /// A cold `Optimize` at four threads (both parallel axes are searched).
    OptimizeT4,
    /// A cold `Optimize` at four threads with `layout_policy: Search`.
    OptimizeT4Search,
    /// `Explain` of an op already in the cache.
    Explain,
    PlanNetworkCold,
    PlanGraphCold,
}

pub const PLAN_NETWORK_SUITE: &str = "mobilenetv2";
pub const PLAN_GRAPH_BLOCK: &str = "mbv2-block5";
/// After the script, the same `PlanNetwork` again, now warm: this many
/// discarded repeats, then this many timed ones.
pub const PLAN_NETWORK_WARM_DISCARDED: usize = 50;
pub const PLAN_NETWORK_WARM_REPEATS: usize = 5000;

pub fn plan_network_line() -> String {
    format!(
        "{{\"PlanNetwork\":{{\"suite\":\"{PLAN_NETWORK_SUITE}\",\"machine\":{MACHINE},\"workers\":2}}}}\n"
    )
}

/// The fixed cold script: 8 `Optimize`, 3 `Explain`, one `PlanNetwork`, one
/// `PlanGraph` — 13 requests, each paying for at least one solve.
pub fn plan_script() -> Vec<(Step, &'static str, String)> {
    let mut script = Vec::new();
    for op in ["R2", "R3", "R4*", "R12", "Y5", "D1"] {
        script.push((Step::OptimizeT1, op, optimize_line(op, 1)));
    }
    script.push((Step::OptimizeT4, "R6", optimize_line("R6", 4)));
    script.push((
        Step::OptimizeT4Search,
        "R8",
        format!(
            "{{\"Optimize\":{{\"op\":\"R8\",\"machine\":{MACHINE},\"options\":{{\"threads\":4,\
             \"multistart\":2,\"line_elems\":1,\"keep_top\":5,\"max_classes\":8,\"thorough\":false,\
             \"layout_policy\":\"Search\"}}}}}}\n"
        ),
    ));
    for op in ["R2", "Y5", "R12"] {
        script.push((
            Step::Explain,
            op,
            format!("{{\"Explain\":{{\"op\":\"{op}\",\"machine\":{MACHINE},\"threads\":1}}}}\n"),
        ));
    }
    script.push((Step::PlanNetworkCold, PLAN_NETWORK_SUITE, plan_network_line()));
    script.push((
        Step::PlanGraphCold,
        PLAN_GRAPH_BLOCK,
        format!(
            "{{\"PlanGraph\":{{\"block\":\"{PLAN_GRAPH_BLOCK}\",\"machine\":{MACHINE},\"workers\":2}}}}\n"
        ),
    ));
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt_service::Request;

    #[test]
    fn key_sets_have_the_documented_sizes_and_parse() {
        let warm = key_set(WARM_THREADS);
        let db = key_set(DB_THREADS);
        assert_eq!(warm.len(), 68);
        assert_eq!(db.len(), 204);
        for key in warm.iter().chain(&db) {
            match serde_json::from_str::<Request>(key.line.trim_end()).unwrap() {
                Request::Optimize { op, threads, options: None, .. } => {
                    assert_eq!(op.as_deref(), Some(key.op));
                    assert_eq!(threads, Some(key.threads));
                }
                other => panic!("unexpected request {other:?}"),
            }
            assert!(conv_spec::benchmarks::by_name(key.op).is_some(), "{}", key.op);
        }
    }

    #[test]
    fn the_cold_script_covers_the_fixture_ops_and_parses() {
        let script = plan_script();
        assert_eq!(script.len(), 13);
        assert_eq!(script[11].0, Step::PlanNetworkCold);
        for (_, _, line) in &script {
            serde_json::from_str::<Request>(line.trim_end()).unwrap();
        }
        let network: Vec<String> =
            conv_spec::benchmarks::mobilenet_v2().iter().map(|op| op.name.clone()).collect();
        for op in FIXTURE_OPS {
            let scripted = script.iter().any(|(step, name, _)| {
                *name == op && !matches!(step, Step::Explain | Step::PlanNetworkCold)
            });
            assert!(scripted || network.iter().any(|n| n == op), "{op} is never solved");
        }
    }

    #[test]
    fn same_seed_same_lines_other_seed_other_order_same_keys() {
        let keys = key_set(DB_THREADS);
        let lines = |seed: u64| -> Vec<String> {
            shuffled_rounds(seed, keys.len(), 3)
                .iter()
                .map(|&k| keys[k as usize].line.clone())
                .collect()
        };
        assert_eq!(lines(1).concat().into_bytes(), lines(1).concat().into_bytes());
        assert_ne!(lines(1), lines(2));
        let (mut a, mut b) = (lines(1), lines(2));
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Every round is a permutation of the whole key list.
        let round: std::collections::BTreeSet<u16> =
            shuffled_rounds(5, keys.len(), 2)[keys.len()..].iter().copied().collect();
        assert_eq!(round.len(), keys.len());

        let draws = |seed, connection, n: usize| -> Vec<usize> {
            let mut next = uniform_order(seed, connection, 68);
            (0..n).map(|_| next()).collect()
        };
        assert_eq!(draws(1, 0, 500), draws(1, 0, 500));
        assert_ne!(draws(1, 0, 500), draws(1, 1, 500));
        assert_ne!(draws(1, 0, 500), draws(2, 0, 500));
        let drawn: std::collections::BTreeSet<usize> = draws(9, 0, 5000).into_iter().collect();
        assert_eq!(drawn.len(), 68);

        // Two consumers of the shared order split one sequence between them.
        let sequence = shuffled_rounds(1, 204, 2);
        let cursor = AtomicUsize::new(0);
        let mut a = shared_order(&sequence, &cursor);
        let mut b = shared_order(&sequence, &cursor);
        let taken: Vec<usize> = (0..204).flat_map(|_| [a(), b()]).collect();
        assert_eq!(taken, sequence.iter().map(|&k| k as usize).collect::<Vec<_>>());
        assert_eq!(a(), sequence[0] as usize);
    }

    #[test]
    fn traced_lines_still_parse_and_ask_for_the_trace() {
        let line = traced(&optimize_line("R4*", 2));
        match serde_json::from_str::<Request>(line.trim_end()).unwrap() {
            Request::Optimize { trace, op, .. } => {
                assert_eq!(trace, Some(true));
                assert_eq!(op.as_deref(), Some("R4*"));
            }
            other => panic!("unexpected request {other:?}"),
        }
        assert!(matches!(
            serde_json::from_str::<Request>(traced(&plan_network_line()).trim_end()).unwrap(),
            Request::PlanNetwork { trace: Some(true), .. }
        ));
    }
}
