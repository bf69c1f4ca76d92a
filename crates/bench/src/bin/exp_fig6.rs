//! Reproduce Figure 6: model-predicted rank ordering versus measured
//! performance and per-level data-movement counters for three representative
//! operators (Resnet9, Mobnet2, Yolo5 in the paper).
//!
//! Usage: exp_fig6 [--samples N] [--full] [--ops R9,M2,Y5]

use conv_spec::MachineModel;
use mopt_bench::{fig6_rank_correlation, format_table, ExpArgs};

fn main() {
    let args = ExpArgs::parse("--samples", 40);
    let ops = args.ops_or(&["R9", "M2", "Y5"]);
    let machine = MachineModel::i7_9700k();
    let reports = fig6_rank_correlation(&machine, args.scale, args.count, &ops);
    println!("== Figure 6 — rank ordering of model prediction vs measurement ==");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}", r.performance_correlation),
                format!("{:.2}", r.volume_correlations[0]),
                format!("{:.2}", r.volume_correlations[1]),
                format!("{:.2}", r.volume_correlations[2]),
                format!("{:.2}", r.volume_correlations[3]),
                format!("{}", r.predicted_bottleneck),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["Operator", "perf corr", "Reg corr", "L1 corr", "L2 corr", "L3 corr", "bottleneck"],
            &rows
        )
    );
    println!(
        "(performance correlation is negative: lower predicted cost = higher measured GFLOPS;"
    );
    println!(" the paper reports strong correlation for the predicted bottleneck resource)");

    for r in &reports {
        println!(
            "\n-- {}: configurations ordered by predicted performance (best first) --",
            r.name
        );
        println!("{:>6}  {:>14}  {:>12}", "rank", "pred. cost", "meas. GFLOPS");
        for (i, (cost, gflops)) in r.ordered_points.iter().enumerate() {
            println!("{:>6}  {:>14.3e}  {:>12.2}", i + 1, cost, gflops);
        }
    }
}
