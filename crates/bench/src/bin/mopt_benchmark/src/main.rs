//! `mopt_benchmark` — the benchmark every performance or simplicity claim in
//! this repository is judged by. Four workloads, four end-to-end metrics each,
//! and a traced run whose per-layer numbers account for the end-to-end ones.
//! README.md beside this package is the glossary; `BENCHMARK.json` at the
//! repository root is the machine-readable contract.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/mopt_benchmark/Cargo.toml -- --seed 1
//!
//! mopt_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--repeat N] [--moptd PATH]
//! ```
//!
//! Without `--workload` all four run, in order. Without `--trace` each
//! workload's untraced measurement is followed by its probe pass; `--trace 0`
//! skips the probe and `--trace 1` reports the probe's numbers. With
//! `--workload`, the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; otherwise it is the last
//! line of the summary document, `"claim": null`.

mod affinity;
mod checks;
mod daemon;
mod exec_conv;
mod names;
mod plan_session;
mod probe;
mod requests;
mod rng;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use checks::Tally;
use names::{
    Metrics, END_TO_END, EXACT, EXEC_CONV, PER_LAYER, PLAN_SESSION, SERVE_DB, SERVE_WARM, WORKLOADS,
};

/// Seconds of timed windows on the time-boxed workloads; `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// What every workload needs to know about this invocation.
pub struct Context {
    pub seed: u64,
    /// Length of the timed phase of the time-boxed workloads (`serve_*`).
    /// `plan_session` and `exec_conv` are fixed scripts.
    pub seconds: f64,
    /// Whether to run the probe pass after the untraced measurement.
    pub trace: bool,
    pub moptd: PathBuf,
    /// Where fixtures, scratch directories and reports go: the
    /// `mopt_benchmark` directory of the Cargo target directory this
    /// executable was built into.
    pub out_dir: PathBuf,
    pub nproc: usize,
    /// Closed-loop connections: `min(2, nproc)`.
    pub connections: usize,
    /// `None` when the CPU set cannot be read or there is one CPU anyway.
    pub affinity: Option<affinity::Affinity>,
}

impl Context {
    /// Put every thread of the server and of this process on the one
    /// measurement CPU (see [`affinity`]); threads started afterwards inherit
    /// it. Best effort: where the kernel refuses, the run goes on unpinned.
    pub fn pin(&self, server: &daemon::Moptd) {
        if let Some(affinity) = &self.affinity {
            let _ = affinity.pin(server.pid()).and_then(|()| affinity.pin(std::process::id()));
        }
    }

    /// Undo [`pin`](Self::pin) for this process and, if given, the server.
    pub fn release(&self, server: Option<&daemon::Moptd>) {
        if let Some(affinity) = &self.affinity {
            if let Some(server) = server {
                let _ = affinity.release(server.pid());
            }
            let _ = affinity.release(std::process::id());
        }
    }
}

/// One run of one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub tally: Tally,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Share of per-operation self time by layer, from the probe.
    pub shares: Vec<(&'static str, f64)>,
    pub spans: Vec<spans::Span>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            tally: Tally::default(),
            end_to_end: Metrics::default(),
            per_layer: Metrics::default(),
            shares: Vec::new(),
            spans: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Make the outcome report exactly the declared names: every end-to-end
    /// metric must have been measured; a per-layer metric this workload does
    /// not exercise reads 0.
    fn finish(&mut self, traced: bool) {
        for (name, share) in self.shares.clone() {
            self.per_layer.set(name, share, 1);
        }
        for metric in &END_TO_END {
            match self.end_to_end.0.get(metric.name) {
                Some(sample) if sample.value.is_finite() && sample.value > 0.0 => {}
                other => self.tally.fail(format!("{} is {other:?}", metric.name)),
            }
        }
        for name in self.end_to_end.0.keys().chain(self.per_layer.0.keys()) {
            names::describe(name);
        }
        if traced {
            for metric in PER_LAYER {
                if !self.per_layer.0.contains_key(metric.name) {
                    self.per_layer.set(metric.name, 0.0, 0);
                }
            }
        }
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0
    }
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
    moptd: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
        moptd: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| w.name == name);
                args.workload = Some(known.ok_or(format!("unknown workload `{name}`"))?.name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                })
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("bad --repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--moptd" => args.moptd = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The Cargo target directory this executable was built into:
/// `<target>/release/mopt_benchmark`.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().and_then(Path::parent).ok_or("the executable has no grandparent")?;
    Ok(dir.to_path_buf())
}

/// The repository root: the working directory when it looks like one (the
/// driver runs the benchmark from the root of a checkout), else where this
/// package was when it was compiled.
fn repo_root() -> Result<PathBuf, String> {
    let is_root = |p: &Path| p.join("crates/service/Cargo.toml").is_file();
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    if is_root(&cwd) {
        return Ok(cwd);
    }
    let built_at = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
    if is_root(&built_at) {
        return built_at.canonicalize().map_err(|e| e.to_string());
    }
    Err("cannot find the repository (run from its root)".into())
}

/// Build the release `moptd` of the repository into the same target
/// directory as this executable and return its path. Cargo makes this a
/// no-op when it is up to date.
fn build_moptd(target: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "mopt_service",
            "--bin",
            "moptd",
            "--target-dir",
        ])
        .arg(target)
        .current_dir(repo_root()?)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building moptd failed with {status}"));
    }
    Ok(target.join("release/moptd"))
}

/// The fixture database of a `moptd` binary: keyed by the binary's bytes, so
/// a rebuilt server never reads schedules an older build solved.
fn fixture_path(out_dir: &Path, moptd: &Path) -> Result<PathBuf, String> {
    let bytes = std::fs::read(moptd).map_err(|e| format!("{}: {e}", moptd.display()))?;
    Ok(out_dir.join(format!("fixture-{:016x}", mopt_db::fnv1a(&bytes))))
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn environment(ctx: &Context) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let text = |s: String| Value::String(s);
    Value::Object(vec![
        ("nproc".into(), Value::UInt(ctx.nproc as u64)),
        ("cpu".into(), text(cpu)),
        ("simd_backend".into(), text(conv_exec::active_backend().name().into())),
        ("rustc".into(), text(command_output("rustc", &["-V"]))),
        ("git_commit".into(), text(command_output("git", &["rev-parse", "HEAD"]))),
        ("seed".into(), Value::UInt(ctx.seed)),
        ("seconds".into(), Value::Float(ctx.seconds)),
        ("connections".into(), Value::UInt(ctx.connections as u64)),
        ("moptd_workers".into(), Value::UInt(daemon::WORKERS as u64)),
        ("pinned_to_one_cpu".into(), Value::Bool(ctx.affinity.is_some())),
        ("moptd".into(), text(ctx.moptd.display().to_string())),
    ])
}

fn run_workload(ctx: &Context, name: &str, fixture: &Path) -> Result<Outcome, String> {
    if matches!(name, SERVE_WARM | SERVE_DB) && !fixture.exists() {
        // The fixture is plan_session's database. Building it is not part of
        // any measurement.
        eprintln!("mopt_benchmark: building the fixture database (a plan_session, untimed)");
        let built = plan_session::run(ctx, false, fixture)?;
        if !built.correct() || !fixture.exists() {
            return Err(format!("the fixture session failed: {:?}", built.tally.messages));
        }
    }
    let mut outcome = match name {
        PLAN_SESSION => plan_session::run(ctx, ctx.trace, fixture),
        SERVE_WARM => serve::run(ctx, serve::Mode::Warm, fixture),
        SERVE_DB => serve::run(ctx, serve::Mode::Db, fixture),
        EXEC_CONV => exec_conv::run(ctx),
        other => unreachable!("{other} was checked by parse_args"),
    }?;
    outcome.finish(ctx.trace);
    Ok(outcome)
}

fn metrics_json(metrics: &Metrics) -> Value {
    Value::Object(
        metrics
            .0
            .iter()
            .map(|(name, sample)| {
                let fields = vec![
                    ("value".to_string(), Value::Float(sample.value)),
                    ("unit".to_string(), Value::String(names::describe(name).0.into())),
                ];
                (name.to_string(), Value::Object(fields))
            })
            .collect(),
    )
}

fn print_outcome(outcome: &Outcome) {
    for metrics in [&outcome.end_to_end, &outcome.per_layer] {
        for (name, sample) in &metrics.0 {
            let (unit, better, bound) = names::describe(name);
            let bound = bound.map_or(String::new(), |b| format!(", bound {b}"));
            println!(
                "{} {name} {} {unit} n={} ({} is better{bound})",
                outcome.workload,
                sample.value,
                sample.n,
                better.as_str()
            );
        }
    }
    if !outcome.shares.is_empty() {
        let shares: Vec<String> = outcome
            .shares
            .iter()
            .map(|(name, share)| {
                format!("{} {:.1}%", name.trim_start_matches("share."), share * 100.0)
            })
            .collect();
        println!("{} self time per operation by layer: {}", outcome.workload, shares.join(", "));
    }
    for note in &outcome.notes {
        println!("{} note: {note}", outcome.workload);
    }
    println!(
        "{} operations attempted {} failed {}",
        outcome.workload, outcome.tally.attempted, outcome.tally.failed
    );
    for message in &outcome.tally.messages {
        println!("{} FAILED: {message}", outcome.workload);
    }
}

/// The one-line result the driver reads.
fn result_line(outcome: &Outcome, metrics: &Metrics) -> String {
    let object = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.correct())),
        ("attempted".into(), Value::UInt(outcome.tally.attempted.max(1))),
        ("failed".into(), Value::UInt(outcome.tally.failed)),
        ("metrics".into(), metrics_json(metrics)),
    ]);
    serde_json::to_string(&object).expect("a Value serializes")
}

fn summary(ctx: &Context, outcomes: &[Outcome]) -> Value {
    let workloads = outcomes
        .iter()
        .map(|o| {
            Value::Object(vec![
                ("name".into(), Value::String(o.workload.into())),
                ("correct".into(), Value::Bool(o.correct())),
                ("attempted".into(), Value::UInt(o.tally.attempted)),
                ("failed".into(), Value::UInt(o.tally.failed)),
                (
                    "failures".into(),
                    Value::Array(o.tally.messages.iter().cloned().map(Value::String).collect()),
                ),
                ("end_to_end".into(), metrics_json(&o.end_to_end)),
                ("per_layer".into(), metrics_json(&o.per_layer)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("environment".into(), environment(ctx)),
        ("workloads".into(), Value::Array(workloads)),
        ("claim".into(), Value::Null),
    ])
}

/// `--repeat N`: the A/A check. Every timing metric of every workload must
/// repeat within its bound (by the driver's quartile measure from four
/// repeats on, by `(max − min) ÷ median` below that), every exact metric
/// exactly.
fn compare_repeats(runs: &[Vec<Outcome>]) -> bool {
    let mut pass = true;
    for (w, first) in runs[0].iter().enumerate() {
        let column = |pick: &dyn Fn(&Outcome) -> Option<f64>| -> Vec<f64> {
            runs.iter().filter_map(|run| pick(&run[w])).collect()
        };
        for metric in &END_TO_END {
            let values = column(&|o| o.end_to_end.get(metric.name));
            let spread = stats::quartile_spread(&values);
            // As the driver does it: set-up time is reported, not held to its
            // bound (a 3 ms process start has no quiet moment to pick).
            let verdict = match (metric.name, spread <= metric.bound) {
                ("setup_s", _) => "EXEMPT",
                (_, true) => "PASS",
                (_, false) => "FAIL",
            };
            pass &= verdict != "FAIL";
            println!(
                "repeat {} {} {:?} spread {spread:.4} bound {} {verdict}",
                first.workload, metric.name, values, metric.bound
            );
        }
        for (name, workloads) in EXACT {
            if !workloads.contains(&first.workload) {
                continue;
            }
            let values = column(&|o| o.per_layer.get(name));
            let ok = values.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
            pass &= ok;
            println!(
                "repeat {} {name} {values:?} exact {}",
                first.workload,
                if ok { "PASS" } else { "FAIL" }
            );
        }
        let failed: Vec<u64> = runs.iter().map(|run| run[w].tally.failed).collect();
        let ok = failed.iter().all(|&f| f == 0);
        pass &= ok;
        println!(
            "repeat {} failed {failed:?} exact {}",
            first.workload,
            if ok { "PASS" } else { "FAIL" }
        );
    }
    pass
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let target = target_dir()?;
    let out_dir = target.join("mopt_benchmark");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let moptd = match args.moptd {
        Some(path) => path,
        None => build_moptd(&target)?,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Context {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.unwrap_or(true),
        out_dir,
        nproc,
        connections: nproc.min(2),
        affinity: affinity::Affinity::detect().ok().filter(|_| nproc > 1),
        moptd,
    };
    let fixture = fixture_path(&ctx.out_dir, &ctx.moptd)?;
    println!(
        "environment {}",
        serde_json::to_string(&environment(&ctx)).expect("a Value serializes")
    );
    if nproc == 1 {
        println!(
            "note: one core — one closed-loop connection instead of two; no parallel executor row"
        );
    }

    let names: Vec<&str> = match args.workload {
        Some(name) => vec![name],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut runs = Vec::new();
    for _ in 0..args.repeat {
        let mut outcomes = Vec::new();
        for name in &names {
            let why = WORKLOADS.iter().find(|w| w.name == *name).expect("a declared workload").why;
            println!("{name}: {why}");
            let outcome = run_workload(&ctx, name, &fixture)?;
            print_outcome(&outcome);
            outcomes.push(outcome);
        }
        runs.push(outcomes);
    }
    let mut pass = runs.iter().flatten().all(Outcome::correct);
    if args.repeat > 1 {
        pass &= compare_repeats(&runs);
    }

    let last = runs.last().expect("--repeat is at least 1");
    let all_spans: Vec<(String, Vec<spans::Span>)> =
        last.iter().map(|o| (o.workload.to_string(), o.spans.clone())).collect();
    let report = serde_json::to_string_pretty(&summary(&ctx, last)).expect("a Value serializes");
    let write = |file: &str, text: &str| {
        std::fs::write(ctx.out_dir.join(file), text).map_err(|e| format!("{file}: {e}"))
    };
    write("report.json", &report)?;
    write(
        "spans.json",
        &serde_json::to_string(&spans::to_json(&all_spans)).expect("a Value serializes"),
    )?;
    println!("report and spans written to {}", ctx.out_dir.display());

    match (args.workload, last.as_slice()) {
        (Some(_), [outcome]) => {
            // With both passes run, report both sets; the driver always says
            // which one it wants.
            let mut metrics = Metrics::default();
            if args.trace != Some(true) {
                metrics.0.extend(outcome.end_to_end.0.clone());
            }
            if args.trace != Some(false) {
                metrics.0.extend(outcome.per_layer.0.clone());
            }
            println!("{}", result_line(outcome, &metrics));
        }
        _ => println!("{report}"),
    }
    Ok(pass)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("mopt_benchmark: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            // No result line: the driver must not mistake a broken run for a
            // measurement.
            eprintln!("mopt_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured() -> Outcome {
        let mut outcome = Outcome::new(SERVE_WARM);
        for metric in &END_TO_END {
            outcome.end_to_end.set(metric.name, 1.5, 10);
        }
        outcome.per_layer.set("wire.parse_us", 1.4, 100);
        outcome.shares = vec![("share.wire", 0.8)];
        outcome.tally.passed(10);
        outcome
    }

    /// Every name in `BENCHMARK.json` is emitted and nothing else is (the
    /// file is held to the tables in `names`).
    #[test]
    fn a_finished_outcome_reports_exactly_the_declared_names() {
        let mut outcome = measured();
        outcome.finish(true);
        assert!(outcome.correct());
        let emitted: Vec<&str> = outcome.end_to_end.0.keys().copied().collect();
        let mut declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        declared.sort_unstable();
        assert_eq!(emitted, declared);
        let emitted: Vec<&str> = outcome.per_layer.0.keys().copied().collect();
        let mut declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        declared.sort_unstable();
        assert_eq!(emitted, declared);
        assert_eq!(outcome.per_layer.get("share.wire"), Some(0.8));
        assert_eq!(outcome.per_layer.get("exec.flops"), Some(0.0));

        let line = result_line(&outcome, &outcome.end_to_end);
        let parsed = serde_json::parse_value(&line).unwrap();
        let keys: Vec<&str> = parsed.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_fails_the_run() {
        let mut outcome = measured();
        outcome.end_to_end.0.remove("peak_rss_mb");
        outcome.end_to_end.set("setup_s", 0.0, 1);
        outcome.finish(false);
        assert_eq!(outcome.tally.failed, 2);
        assert!(outcome.per_layer.get("exec.flops").is_none());
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn an_undeclared_metric_name_is_a_bug() {
        let mut outcome = measured();
        outcome.per_layer.set("wire.parse_usec", 1.0, 1);
        outcome.finish(true);
    }

    #[test]
    fn repeats_pass_within_bounds_and_fail_outside_them() {
        let run = |p50: f64, cost: f64| {
            let mut outcome = measured();
            outcome.end_to_end.set("latency_p50_us", p50, 10);
            outcome.per_layer.set("quality.schedule_cost_geomean", cost, 68);
            vec![outcome]
        };
        assert!(compare_repeats(&[run(70.0, 5.0), run(74.0, 5.0)]));
        assert!(!compare_repeats(&[run(70.0, 5.0), run(95.0, 5.0)]));
        assert!(!compare_repeats(&[run(70.0, 5.0), run(70.0, 5.000001)]));
    }
}
