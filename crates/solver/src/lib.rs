//! Constrained non-linear optimization substrate.
//!
//! The paper formulates tile-size selection as small constrained non-linear
//! optimization problems (minimize a parametric data-movement expression
//! subject to cache-capacity constraints) and solves them with AMPL + Ipopt.
//! Those tools are proprietary / external; this crate provides a from-scratch
//! replacement sufficient for the problem class that arises here:
//!
//! * at most a few dozen variables (7 tile sizes × up to 4 levels),
//! * smooth objectives and inequality constraints built from products and
//!   ratios of the variables (posynomial-like),
//! * simple box bounds `1 ≤ T_j ≤ N_j`.
//!
//! A [`Problem`] is a box and one function: [`Problem::evaluate`] prices the
//! objective and every constraint at a point together, because for the tile
//! problems they are all arithmetic on the same few per-level costs. Each
//! solver makes exactly one evaluation per point it visits (the penalty
//! merit, the barrier function and the feasibility measure all read
//! objective and constraints off the same evaluation), and the iteration
//! loops allocate nothing. The penalty merit, the barrier
//! function and the barrier solver's feasibility phase are all minimized by
//! one projected-gradient step with a backtracking line search (the private
//! `descent` module).
//!
//! Provided solvers:
//!
//! * [`barrier::BarrierSolver`] — a log-barrier interior-point method with
//!   projected-gradient inner iterations and backtracking line search,
//! * [`penalty::PenaltySolver`] — a quadratic-penalty method used as a
//!   fallback and for infeasible starts,
//! * [`multistart::MultiStart`] — random-restart wrapper that makes the local
//!   solvers robust on the non-convex instances produced by multi-level
//!   tiling, in the two effort profiles the optimizer selects
//!   ([`MultiStart::cheap`], [`MultiStart::with_starts`]).
//!
//! Converting a continuous solution into integer tile sizes (Algorithm 1,
//! line 23) needs the whole assembled schedule and the model that prices it,
//! so it lives with the optimizer (`mopt_core`'s integer stage), not here.
//!
//! # Example
//!
//! ```
//! use mopt_solver::{Problem, barrier::BarrierSolver, NlpSolver};
//!
//! // minimize x + y  subject to  x*y >= 4  (i.e. 4 - x*y <= 0), 0.1 <= x,y <= 10
//! let problem = Problem::new(2)
//!     .with_bounds(vec![0.1, 0.1], vec![10.0, 10.0])
//!     .with_objective(|x| x[0] + x[1])
//!     .with_constraint(|x| 4.0 - x[0] * x[1]);
//! let result = BarrierSolver::default().solve(&problem, &[5.0, 5.0]);
//! assert!(result.feasible);
//! assert!((result.x[0] - 2.0).abs() < 0.05 && (result.x[1] - 2.0).abs() < 0.05);
//! ```

pub mod barrier;
mod descent;
pub mod gradient;
pub mod multistart;
pub mod penalty;
pub mod problem;

pub use barrier::BarrierSolver;
pub use multistart::MultiStart;
pub use penalty::PenaltySolver;
pub use problem::{NlpSolver, Problem, SolveResult};
