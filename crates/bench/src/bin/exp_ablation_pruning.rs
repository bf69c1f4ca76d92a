//! Ablation: verify empirically that restricting the permutation search to
//! the 8 pruned equivalence classes (Sec. 4) loses nothing relative to the
//! exhaustive 5040-permutation search, on a grid of sampled tile sizes.
//!
//! Usage: exp_ablation_pruning [--samples N] [--ops R12,M9,...]

use mopt_bench::{ablation_pruning, format_table, ExpArgs, ExperimentScale};

fn main() {
    let args = ExpArgs::parse("--samples", 6);
    let ops = args.ops_or(&["R12", "M9", "Y19"]);
    let rows = ablation_pruning(ExperimentScale::Scaled { hw: 14, ch: 64 }, args.count, &ops);
    println!("== Ablation — 8 pruned permutation classes vs exhaustive 5040 permutations ==");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.3e}", r.pruned_best),
                format!("{:.3e}", r.exhaustive_best),
                format!("{:.4}", r.ratio()),
                r.exhaustive_count.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["Operator", "best (8 classes)", "best (5040 perms)", "ratio", "perms"],
            &table
        )
    );
    println!("(ratio 1.0 = pruning loses nothing, as the paper's algebraic argument guarantees)");
}
