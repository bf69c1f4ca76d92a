//! Reproduce Figure 8: the same comparison as Figure 7 on the i9-10980XE
//! (CascadeLake, AVX-512, 16 threads) machine model.
//!
//! Usage: exp_fig8 [--trials N] [--full] [--ops Y0,R9,...]

use conv_spec::MachineModel;
use mopt_bench::{fig7_performance_comparison, print_fig7, ExpArgs};

fn main() {
    let args = ExpArgs::parse("--trials", 24);
    let machine = MachineModel::i9_10980xe();
    let rows = fig7_performance_comparison(&machine, args.scale, args.count, args.ops.as_deref());
    print_fig7(
        "== Figure 8 — i9-10980XE (16 threads) — performance relative to the AutoTVM-like tuner ==",
        &rows,
        false,
        "(paper, i9-10980XE: MOpt vs TVM 1.53–1.84x, MOpt vs oneDNN 1.08–1.26x geomean)",
    );
}
