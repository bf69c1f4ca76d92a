//! `mopt-plan-world` — offline populator for the persistent schedule
//! database.
//!
//! Solves every operator of the selected benchmark suites for every
//! selected machine preset and thread count, and writes the canonicalized
//! top-k entries into a [`mopt_db::SpecDb`] directory. A `moptd --db` pointed
//! at the result answers those shapes *cold* — first request, empty cache —
//! from stored entries, without invoking the optimizer.
//!
//! Shapes that canonicalize to a spec already present in the database are
//! skipped (the run is incremental and restartable), and distinct raw
//! shapes sharing one canonical spec are solved only once per run.
//!
//! ```text
//! mopt-plan-world --db specs.db [--suite table1]... [--preset i7]... \
//!                 [--threads 1,4,8] [--classes N] [--multistart N] [--keep-top N]
//! ```
//!
//! Defaults: every suite (`extended`), presets `i7` and `i9`, threads
//! `1,4,8`, full optimizer settings. The paper's point is that analytical
//! solves are cheap; planning the whole benchmark world is minutes, and
//! serving it afterwards is microseconds.

use std::collections::HashSet;
use std::time::Instant;

use conv_spec::{benchmarks, canonicalize_spec, MachineModel, Spec};
use mopt_core::{MOptOptimizer, OptimizerOptions};
use mopt_graph::builders;
use mopt_service::batch::NamedLayer;
use mopt_service::{DbTier, MachineSpec};

/// The graph-backed suites this tool adds to the benchmark catalog's: every
/// conv, pooling, and matmul-head spec of a whole network, so `PlanGraph`
/// over the full network serves from the db tier without a single cold
/// solve.
const NETWORK_SUITES: [&str; 3] = ["resnet50", "mbv2full", "networks"];

/// Every accepted suite name: the catalog's, with the network suites ahead
/// of `extended` (which here includes them).
fn suite_names() -> Vec<&'static str> {
    let catalog: Vec<&str> = benchmarks::suite_names().collect();
    let (extended, suites) = catalog.split_last().expect("the catalog lists suites");
    suites.iter().chain(&NETWORK_SUITES).chain([extended]).copied().collect()
}

/// Every schedulable node of a builder network graph (convolutions,
/// poolings, and the fully-connected matmul head), as specs to solve.
fn graph_ops(graph: &mopt_graph::Graph) -> Vec<Spec> {
    let layers = NamedLayer::of_graph(graph).expect("builder graphs are valid");
    layers.into_iter().map(|layer| layer.spec).collect()
}

struct Args {
    db: std::path::PathBuf,
    suites: Vec<String>,
    presets: Vec<String>,
    threads: Vec<usize>,
    classes: Option<usize>,
    multistart: Option<usize>,
    keep_top: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut db = None;
    let mut args = Args {
        db: std::path::PathBuf::new(),
        suites: Vec::new(),
        presets: Vec::new(),
        threads: Vec::new(),
        classes: None,
        multistart: None,
        keep_top: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--db" => db = Some(it.next().ok_or("--db needs a directory path")?.into()),
            "--suite" => args.suites.push(it.next().ok_or("--suite needs a name")?),
            "--preset" => args.presets.push(it.next().ok_or("--preset needs a name")?),
            "--threads" => {
                for part in it.next().ok_or("--threads needs a comma-separated list")?.split(',') {
                    let n: usize =
                        part.trim().parse().map_err(|e| format!("bad --threads `{part}`: {e}"))?;
                    args.threads.push(n.max(1));
                }
            }
            "--classes" => {
                args.classes = Some(
                    it.next()
                        .ok_or("--classes needs a number")?
                        .parse()
                        .map_err(|e| format!("bad --classes: {e}"))?,
                );
            }
            "--multistart" => {
                args.multistart = Some(
                    it.next()
                        .ok_or("--multistart needs a number")?
                        .parse()
                        .map_err(|e| format!("bad --multistart: {e}"))?,
                );
            }
            "--keep-top" => {
                args.keep_top = Some(
                    it.next()
                        .ok_or("--keep-top needs a number")?
                        .parse()
                        .map_err(|e| format!("bad --keep-top: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "mopt-plan-world — pre-populate the MOpt schedule database\n\n\
                     USAGE:\n  mopt-plan-world --db DIR [--suite NAME]... [--preset NAME]...\n  \
                     \x20                [--threads N,N,...] [--classes N] [--multistart N] [--keep-top N]\n\n\
                     Suites: {} (extended includes the networks).\n\
                     Presets: {}. Defaults: --suite extended --preset i7 --preset i9 \
                     --threads 1,4,8.\n\
                     Serve the result with: moptd --stdio --db DIR",
                    suite_names().join(", "),
                    MachineModel::PRESET_NAMES.join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    args.db = db.ok_or("--db DIR is required")?;
    if args.suites.is_empty() {
        args.suites.push("extended".into());
    }
    if args.presets.is_empty() {
        args.presets = vec!["i7".into(), "i9".into()];
    }
    if args.threads.is_empty() {
        args.threads = vec![1, 4, 8];
    }
    Ok(args)
}

fn suite_ops(name: &str) -> Result<Vec<Spec>, String> {
    let resnet50 = || graph_ops(&builders::resnet50("resnet50"));
    let mbv2full = || graph_ops(&builders::mobilenet_v2_full("mobilenet-v2"));
    let key = conv_spec::normalized_name(name);
    let mut ops: Vec<Spec> = match key.as_str() {
        "resnet50" => return Ok(resnet50()),
        "mobilenetv2full" | "mbv2full" => return Ok(mbv2full()),
        "networks" => Vec::new(),
        _ => benchmarks::suite_by_name(name)
            .ok_or_else(|| benchmarks::unknown_suite(name, suite_names()))?
            .into_iter()
            .map(|op| Spec::Conv(op.shape))
            .collect(),
    };
    if key == "networks" || key == "extended" {
        ops.extend(resnet50());
        ops.extend(mbv2full());
    }
    Ok(ops)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("mopt-plan-world: {message}");
            std::process::exit(2);
        }
    };
    let mut ops: Vec<Spec> = Vec::new();
    for name in &args.suites {
        match suite_ops(name) {
            Ok(mut suite) => ops.append(&mut suite),
            Err(message) => {
                eprintln!("mopt-plan-world: {message}");
                std::process::exit(2);
            }
        }
    }
    let resolved = args.presets.iter().map(|name| MachineSpec::Preset(name.clone()).resolve());
    let presets: Vec<MachineModel> = match resolved.collect() {
        Ok(presets) => presets,
        Err(message) => {
            eprintln!("mopt-plan-world: {message}");
            std::process::exit(2);
        }
    };
    let tier = match DbTier::open(&args.db) {
        Ok(tier) => tier,
        Err(e) => {
            eprintln!("mopt-plan-world: cannot open database {}: {e}", args.db.display());
            std::process::exit(1);
        }
    };

    let started = Instant::now();
    let mut solved = 0usize;
    let mut skipped = 0usize;
    // One solve per (canonical spec, machine, threads): raw shapes sharing a
    // canonical spec are solved once per thread count; specs stored by an
    // *earlier run* are skipped outright, but a spec first solved in this
    // run still gets its remaining thread counts (each merge can add
    // parallel-fitted candidates to the top-k).
    let mut planned: HashSet<(u64, u64, usize)> = HashSet::new();
    let mut fresh: HashSet<(u64, u64)> = HashSet::new();
    for machine in &presets {
        for &threads in &args.threads {
            let mut options = OptimizerOptions { threads, ..OptimizerOptions::default() };
            if let Some(classes) = args.classes {
                options.max_classes = classes.max(1);
            }
            if let Some(multistart) = args.multistart {
                options.multistart = multistart;
            }
            if let Some(keep_top) = args.keep_top {
                options.keep_top = keep_top.max(1);
            }
            for spec in &ops {
                let (canonical, _) = canonicalize_spec(spec);
                let spec_key = (canonical.fingerprint(), machine.fingerprint());
                if !planned.insert((spec_key.0, spec_key.1, threads)) {
                    skipped += 1;
                    continue;
                }
                if !fresh.contains(&spec_key) {
                    let already = tier
                        .db()
                        .lookup(spec_key.0, spec_key.1)
                        .ok()
                        .flatten()
                        .is_some_and(|entries| !entries.is_empty());
                    if already {
                        skipped += 1;
                        continue;
                    }
                    fresh.insert(spec_key);
                }
                let result = MOptOptimizer::optimize_spec(spec, machine.clone(), options.clone());
                tier.record(spec, machine, threads, &result);
                solved += 1;
            }
        }
    }
    let pages = match tier.flush() {
        Ok(pages) => pages,
        Err(e) => {
            eprintln!("mopt-plan-world: database flush failed: {e}");
            std::process::exit(1);
        }
    };
    let stats = tier.stats();
    println!(
        "mopt-plan-world: {} ops x {} presets x {:?} threads -> {} solves, {} skipped, \
         {} inserts, {} pages flushed in {:.1}s ({})",
        ops.len(),
        presets.len(),
        args.threads,
        solved,
        skipped,
        stats.inserts,
        pages,
        started.elapsed().as_secs_f64(),
        args.db.display(),
    );
    if stats.errors > 0 {
        eprintln!("mopt-plan-world: {} database errors during population", stats.errors);
        std::process::exit(1);
    }
}
