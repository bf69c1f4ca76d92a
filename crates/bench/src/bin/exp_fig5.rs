//! Reproduce Figure 5: model-prediction loss of performance (top-1/2/5)
//! against the best of a uniformly sampled set of tile configurations, for
//! every conv2d operator of MobileNet, Yolo-9000 and ResNet-18.
//!
//! Usage:
//!   exp_fig5 [--samples N] [--full] [--ops Y0,R9,...]
//!
//! `--full` uses the unscaled Table-1 shapes (slow); the default uses
//! structure-preserving scaled shapes so the experiment finishes in minutes.

use conv_spec::MachineModel;
use mopt_bench::{fig5_model_loss, format_table, ExpArgs, ExperimentScale};

fn main() {
    let args = ExpArgs::parse("--samples", 40);
    let machine = MachineModel::i7_9700k();
    let rows = fig5_model_loss(&machine, args.scale, args.count, args.ops.as_deref());
    println!(
        "== Figure 5 — model-prediction loss over {} sampled configurations ({}) ==",
        args.count,
        match args.scale {
            ExperimentScale::Full => "full Table-1 shapes".to_string(),
            ExperimentScale::Scaled { hw, ch } => format!("scaled shapes hw<={hw} ch<={ch}"),
        }
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.1}%", r.top1_loss * 100.0),
                format!("{:.1}%", r.top2_loss * 100.0),
                format!("{:.1}%", r.top5_loss * 100.0),
                format!("{:.2}", r.rank_correlation),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["Operator", "Top-1 loss", "Top-2 loss", "Top-5 loss", "rank corr"], &table)
    );
    let worst_top5 = rows.iter().map(|r| r.top5_loss).fold(0.0, f64::max);
    let worst_top1 = rows.iter().map(|r| r.top1_loss).fold(0.0, f64::max);
    println!(
        "worst top-1 loss: {:.1}%   worst top-5 loss: {:.1}%",
        worst_top1 * 100.0,
        worst_top5 * 100.0
    );
    println!("(paper: top-1 loss < 4.5% on all 32 operators, < 3% on 30 of 32)");
}
