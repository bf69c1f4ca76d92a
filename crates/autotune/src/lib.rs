//! Empirical auto-tuning (the AutoTVM stand-in).
//!
//! The paper compares MOpt against TVM's AutoTVM, which searches a template-
//! constrained space of tile sizes using actual execution of candidates on
//! the target machine, guided by a machine-learning cost model (XGBoost) and
//! a trial budget (1000 trials in the paper). TVM itself is an external
//! system; this crate reproduces the *behavioural* ingredients the comparison
//! depends on:
//!
//! * [`space::SearchSpace`] — a template-constrained configuration space over
//!   tile sizes (factor-based, like TVM's `split` knobs) and a small set of
//!   loop-order templates,
//! * [`tuner`] — two search strategies with a trial budget: pure random
//!   search and an ε-greedy model-guided tuner with an
//!   incrementally (re)trained linear cost model over log-tile features
//!   ([`cost_model::OnlineCostModel`]) standing in for the XGBoost ranker,
//! * an `Evaluator` callback so the caller decides what "measuring a
//!   candidate" means: wall-clock execution of `conv-exec` (as TVM does) or a
//!   simulated cost from `mopt_bench::sim` (for machine-independent
//!   experiments).
//!
//! # Example
//!
//! ```
//! use autotune::{space::SearchSpace, tuner::{RandomTuner, Tuner}};
//! use conv_spec::{ConvShape, MachineModel};
//!
//! let shape = ConvShape::new(1, 16, 16, 3, 3, 14, 14, 1)?;
//! let machine = MachineModel::i7_9700k();
//! let space = SearchSpace::new(&shape, &machine);
//! // Cheap synthetic evaluator: prefer larger register tiles.
//! let mut tuner = RandomTuner::new(7);
//! let result = tuner.tune(&space, &mut |cfg| {
//!     1.0 / (cfg.level(conv_spec::TilingLevel::Register).output_footprint() as f64)
//! }, 20);
//! assert_eq!(result.trials.len(), 20);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cost_model;
pub mod space;
pub mod tuner;

pub use cost_model::OnlineCostModel;
pub use space::SearchSpace;
pub use tuner::{ModelGuidedTuner, RandomTuner, TuneResult, Tuner};
