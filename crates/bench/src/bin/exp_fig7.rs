//! Reproduce Figure 7: performance of MOpt-1, MOpt-5 and the oneDNN-like
//! library baseline relative to an AutoTVM-like auto-tuner, for all 32
//! operators, on the i7-9700K machine model (8 threads).
//!
//! Usage: exp_fig7 [--trials N] [--full] [--ops Y0,R9,...]

use conv_spec::MachineModel;
use mopt_bench::{fig7_performance_comparison, print_fig7, ExpArgs};

fn main() {
    let args = ExpArgs::parse("--trials", 24);
    let machine = MachineModel::i7_9700k();
    let rows = fig7_performance_comparison(&machine, args.scale, args.count, args.ops.as_deref());
    print_fig7(
        &format!(
            "== Figure 7 — i7-9700K (8 threads) — performance relative to the AutoTVM-like tuner ({} trials) ==",
            args.count
        ),
        &rows,
        true,
        "(paper, i7-9700K: MOpt vs TVM 1.40–1.73x, MOpt vs oneDNN 1.16–1.37x geomean)",
    );
}
