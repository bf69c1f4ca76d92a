//! Reproduce the Sec. 12 search-cost comparison: MOpt's optimization time is
//! roughly independent of the operator's size, while an auto-tuner's time per
//! trial grows with the operator because every trial executes the candidate
//! (here: simulates it).
//!
//! Usage: exp_searchcost [--trials N] [--full] [--ops Y0,Y23]

use conv_spec::MachineModel;
use mopt_bench::{format_table, searchcost_comparison, ExpArgs};

fn main() {
    let args = ExpArgs::parse("--trials", 16);
    let ops = args.ops_or(&["Y0", "Y23"]);
    let machine = MachineModel::i7_9700k();
    let rows = searchcost_comparison(&machine, args.scale, args.count, &ops);
    println!("== Sec. 12 — search cost: MOpt vs auto-tuning ==");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}s", r.mopt_seconds),
                format!("{:.2}s", r.tuner_seconds),
                r.tuner_trials.to_string(),
            ]
        })
        .collect();
    println!("{}", format_table(&["Operator", "MOpt search", "Tuner search", "trials"], &table));
    println!("(paper: MOpt 9 s for Yolo stage 0 vs 23 s for stage 23; TVM 1 min vs 109 min for 1000 trials)");
}
