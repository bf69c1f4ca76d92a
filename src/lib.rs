//! Umbrella crate for the MOpt reproduction workspace.
//!
//! This crate exists so that repository-level `examples/` and `tests/` can
//! exercise the public API of every workspace crate through a single
//! dependency. It re-exports the member crates under stable names.
//!
//! See `README.md` for the architecture overview, the crate inventory, and
//! the `moptd` server quickstart.

pub use autotune;
pub use baselines;
pub use cache_sim;
pub use conv_exec;
pub use conv_spec;
pub use mopt_core;
pub use mopt_model;
pub use mopt_service;
