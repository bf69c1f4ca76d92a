//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Sec. 9 and 10), plus ablations.
//!
//! Each `exp_*` binary in `src/bin/` is a thin wrapper over a function in
//! this library so the experiment logic is unit-testable. All experiments
//! print plain-text tables whose rows correspond to the rows/series of the
//! paper's tables and figures.
//!
//! Because the original evaluation runs for ~96 hours on two specific Intel
//! CPUs, every experiment here accepts a scaling knob:
//!
//! * `scale` — caps the spatial/channel extents of the 32 benchmark
//!   operators so the experiments finish in minutes while preserving each
//!   operator's structure (kernel size, stride, channel ratio),
//! * `samples` / `trials` — number of sampled configurations (Fig. 5/6) and
//!   auto-tuner trials (Fig. 7/8; the paper uses 100 and 1000 respectively).
//!
//! Run with `--full` (where supported) to use the unscaled Table-1 shapes.
//!
//! These binaries reproduce the paper's evidence; they are not the
//! performance yardstick. Speed is measured in one place, the repo benchmark
//! in `src/bin/mopt_benchmark/` (a package of its own, declared by
//! `BENCHMARK.json` at the repository root), whose per-layer rows time the
//! microkernel, the executors, the model, the solver and the planners.

pub mod experiments;
pub mod report;
pub mod validation;

pub use experiments::{
    ablation_pruning, fig5_model_loss, fig6_rank_correlation, fig7_performance_comparison,
    searchcost_comparison, AblationRow, ExpArgs, ExperimentScale, Fig5Row, Fig6Report, Fig7Row,
    SearchCostRow,
};
pub use report::{format_table, geomean, print_fig7};
pub use validation::{validate_operator, ValidationPoint, ValidationReport};
