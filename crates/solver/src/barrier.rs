//! Log-barrier interior-point solver with projected-gradient inner iterations.
//!
//! This is the primary Ipopt substitute. For each barrier parameter μ it
//! minimizes
//!
//! ```text
//! φ_μ(x) = f(x) - μ Σ_i log(-g_i(x))
//! ```
//!
//! over the box bounds by projected gradient descent with backtracking line
//! search, then shrinks μ. If the starting point violates a constraint, a
//! feasibility phase first minimizes the squared violation.

use crate::descent::{Descent, LineSearch};
use crate::problem::{NlpSolver, Problem, SolveResult};

/// Initial barrier weight (times the objective's magnitude at the start).
const MU0: f64 = 1.0;
/// Shrink factor applied to μ after each outer iteration.
const MU_SHRINK: f64 = 0.2;
/// Gradient tolerance: relative to `φ_μ` in the barrier iterations, absolute
/// in the feasibility phase.
const TOL: f64 = 1e-8;
/// Feasibility tolerance for the reported result.
const FEAS_TOL: f64 = 1e-6;
const SEARCH: LineSearch = LineSearch { backtracks: 40, min_decrease: 1e-12, max_step: 1e9 };
/// The feasibility phase accepts any decrease of the squared violation.
const RESTORE_SEARCH: LineSearch = LineSearch { backtracks: 30, min_decrease: 0.0, max_step: 1e6 };

/// Log-barrier interior-point solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierSolver {
    /// Number of outer (barrier) iterations.
    pub outer_iters: usize,
    /// Maximum inner projected-gradient iterations per outer iteration.
    pub inner_iters: usize,
}

impl Default for BarrierSolver {
    fn default() -> Self {
        BarrierSolver { outer_iters: 12, inner_iters: 200 }
    }
}

impl BarrierSolver {
    /// A cheaper configuration for use inside multi-start loops.
    pub fn fast() -> Self {
        BarrierSolver { outer_iters: 8, inner_iters: 80 }
    }

    /// Move `x` inside the feasible region if possible, by minimizing the
    /// squared constraint violation: up to `inner_iters` descent steps, the
    /// merit carried from one accepted step to the next, until none is left.
    fn restore_feasibility(&self, problem: &Problem, descent: &mut Descent, x: &mut Vec<f64>) {
        problem.project(x);
        let mut constraints = problem.constraint_buffer();
        let mut squared_violation = |y: &[f64]| -> f64 {
            problem.evaluate(y, &mut constraints);
            constraints.iter().map(|g| g.max(0.0).powi(2)).sum()
        };
        let mut f0 = squared_violation(x);
        let mut step = 1.0;
        for _ in 0..self.inner_iters {
            if f0 <= 0.0 {
                break;
            }
            match descent.step(&mut squared_violation, x, f0, TOL, &mut step, &RESTORE_SEARCH) {
                Some(accepted) => f0 = accepted,
                None => break,
            }
        }
    }
}

/// `φ_μ` from one evaluation's values: infinite unless every constraint is
/// strictly satisfied.
fn barrier_value(objective: f64, constraints: &[f64], mu: f64) -> f64 {
    let mut phi = objective;
    for &g in constraints {
        if g >= 0.0 {
            return f64::INFINITY;
        }
        phi -= mu * (-g).ln();
    }
    phi
}

impl NlpSolver for BarrierSolver {
    fn solve(&self, problem: &Problem, x0: &[f64]) -> SolveResult {
        assert_eq!(x0.len(), problem.dim(), "starting point dimension mismatch");
        let mut descent = Descent::new(problem);
        let mut x = x0.to_vec();
        self.restore_feasibility(problem, &mut descent, &mut x);

        // If still infeasible, interior point cannot start; report the
        // best-effort point (callers typically fall back to PenaltySolver or
        // another start via MultiStart).
        let restored = SolveResult::at(problem, x, 0, FEAS_TOL);
        if restored.max_violation > 0.0 {
            return restored;
        }
        let mut x = restored.x;
        let mut constraints = problem.constraint_buffer();

        // Back off from active constraints slightly so logs are finite.
        nudge_strictly_feasible(problem, &mut x, &mut constraints);

        let mut mu = MU0 * (1.0 + problem.evaluate(&x, &mut constraints).abs());
        // An infeasible candidate prices at +∞ and is never below a finite φ.
        let mut phi = |mu: f64, y: &[f64]| -> f64 {
            let objective = problem.evaluate(y, &mut constraints);
            barrier_value(objective, &constraints, mu)
        };
        let mut total_iters = 0usize;
        for _outer in 0..self.outer_iters {
            total_iters += descent.descend(|y| phi(mu, y), &mut x, self.inner_iters, TOL, &SEARCH);
            mu *= MU_SHRINK;
        }

        SolveResult::at(problem, x, total_iters, FEAS_TOL)
    }
}

/// Pull a feasible point slightly off active constraints and bounds so that
/// `-g(x) > 0` and the barrier is finite.
fn nudge_strictly_feasible(problem: &Problem, x: &mut [f64], constraints: &mut [f64]) {
    for _ in 0..50 {
        problem.evaluate(x, constraints);
        if !constraints.iter().any(|&g| g >= -1e-12) {
            return;
        }
        // Move toward the box center, which for the capacity-style
        // constraints used here (monotonically increasing in every variable)
        // reduces the constraint values.
        for (j, xj) in x.iter_mut().enumerate() {
            let c = 0.5 * (problem.lower()[j] + problem.upper()[j]);
            *xj = *xj + 0.05 * (c.min(*xj) - *xj) - 1e-9 * xj.abs();
        }
        problem.project(x);
        // Shrink toward lower bounds as a last resort.
        problem.evaluate(x, constraints);
        if constraints.iter().any(|&g| g >= 0.0) {
            for (xj, &lo) in x.iter_mut().zip(problem.lower()) {
                *xj = lo + 0.9 * (*xj - lo);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_quadratic() {
        let p = Problem::new(2)
            .with_bounds(vec![-10.0, -10.0], vec![10.0, 10.0])
            .with_objective(|x| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2));
        let r = BarrierSolver::default().solve(&p, &[5.0, 5.0]);
        assert!(r.feasible);
        assert!((r.x[0] - 1.0).abs() < 1e-2, "{:?}", r.x);
        assert!((r.x[1] + 2.0).abs() < 1e-2, "{:?}", r.x);
    }

    #[test]
    fn bound_constrained_minimum_at_box_edge() {
        let p = Problem::new(1).with_bounds(vec![2.0], vec![10.0]).with_objective(|x| x[0] * x[0]);
        let r = BarrierSolver::default().solve(&p, &[7.0]);
        assert!(r.feasible);
        assert!((r.x[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn inequality_constrained_symmetric_problem() {
        // minimize x+y s.t. xy >= 4 → x = y = 2.
        let p = Problem::new(2)
            .with_bounds(vec![0.1, 0.1], vec![50.0, 50.0])
            .with_objective(|x| x[0] + x[1])
            .with_constraint(|x| 4.0 - x[0] * x[1]);
        let r = BarrierSolver::default().solve(&p, &[10.0, 1.0]);
        assert!(r.feasible, "violation {}", r.max_violation);
        assert!((r.objective - 4.0).abs() < 0.05, "objective {}", r.objective);
    }

    #[test]
    fn matmul_tile_problem_from_section_2() {
        // minimize Ni*Nj*Nk*(1/Ti + 1/Tj) + 2*Ni*Nj  s.t. Ti*Tk + Tj*Tk + Ti*Tj <= C,
        // with Tk fixed small; symmetric in Ti, Tj so the optimum has Ti ≈ Tj.
        let (ni, nj, nk, cap) = (512.0, 512.0, 512.0, 1024.0);
        let p = Problem::new(3)
            .with_bounds(vec![1.0, 1.0, 1.0], vec![ni, nj, nk])
            .with_objective(move |t| ni * nj * nk * (1.0 / t[0] + 1.0 / t[1]) + 2.0 * ni * nj)
            .with_constraint(move |t| t[0] * t[2] + t[1] * t[2] + t[0] * t[1] - cap);
        let r = BarrierSolver::default().solve(&p, &[8.0, 8.0, 8.0]);
        assert!(r.feasible);
        // Optimal Ti ≈ Tj and Tk driven to its lower bound.
        assert!((r.x[0] - r.x[1]).abs() / r.x[0].max(r.x[1]) < 0.15, "{:?}", r.x);
        assert!(r.x[2] < 3.0, "Tk should shrink toward 1, got {}", r.x[2]);
        // Capacity should be essentially saturated at the optimum.
        let used = r.x[0] * r.x[2] + r.x[1] * r.x[2] + r.x[0] * r.x[1];
        assert!(used > 0.85 * cap, "capacity underused: {used}");
    }

    #[test]
    fn fast_profile_solves_are_pinned_to_the_bit() {
        // The Sec. 2 problem again, through the profile `MultiStart` runs:
        // from a feasible start, and from one the feasibility phase has to
        // bring inside first. Point, objective and iteration count are the
        // ones the solver with its own copies of the descent loop produced.
        let (ni, nj, nk, cap) = (512.0, 512.0, 512.0, 1024.0);
        let p = Problem::new(3)
            .with_bounds(vec![1.0, 1.0, 1.0], vec![ni, nj, nk])
            .with_objective(move |t| ni * nj * nk * (1.0 / t[0] + 1.0 / t[1]) + 2.0 * ni * nj)
            .with_constraint(move |t| t[0] * t[2] + t[1] * t[2] + t[0] * t[1] - cap);
        let pinned: [(&[f64], [u64; 3], u64, usize); 2] = [
            (
                &[8.0, 8.0, 8.0],
                [0x403f039951fa6a3a, 0x403f039951fa6a3a, 0x3ff0000000000000],
                0x4161823665312f44,
                165,
            ),
            (
                &[300.0, 200.0, 100.0],
                [0x4063d31e1a64c2a4, 0x4015b0243a4d3ecb, 0x3ff0000000000000],
                0x4178ea1f7238be03,
                640,
            ),
        ];
        for (start, x, objective, iterations) in pinned {
            let r = BarrierSolver::fast().solve(&p, start);
            assert!(r.feasible, "from {start:?}");
            assert_eq!(r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), x, "{:?}", r.x);
            assert_eq!(r.objective.to_bits(), objective, "{}", r.objective);
            assert_eq!(r.iterations, iterations);
        }
    }

    #[test]
    fn barrier_is_infinite_when_any_constraint_is_active_wherever_it_sits() {
        // The joint evaluation prices every constraint; the value must not
        // depend on which one is violated or on the ones after it.
        let mu = 0.5;
        assert_eq!(barrier_value(3.0, &[], mu), 3.0);
        assert_eq!(barrier_value(3.0, &[-1.0, -2.0], mu), 3.0 - mu * 1f64.ln() - mu * 2f64.ln());
        for active in [0.0, 1e-300, 7.0, f64::INFINITY] {
            for at in 0..3 {
                let mut constraints = [-1.0, -2.0, -3.0];
                constraints[at] = active;
                assert_eq!(barrier_value(3.0, &constraints, mu), f64::INFINITY);
                constraints[(at + 1) % 3] = f64::NAN;
                assert_eq!(barrier_value(3.0, &constraints, mu), f64::INFINITY);
            }
        }
        // Through a solve: a start on the constraint boundary still ends
        // strictly inside.
        let p = Problem::new(2)
            .with_bounds(vec![0.5, 0.5], vec![100.0, 100.0])
            .with_objective(|x| x[0] + 2.0 * x[1])
            .with_constraint(|x| x[0] * x[1] - 50.0)
            .with_constraint(|x| x[0] - 60.0);
        let r = BarrierSolver::default().solve(&p, &[10.0, 5.0]);
        assert!(r.feasible && r.x[0] * r.x[1] < 50.0);
    }

    #[test]
    fn infeasible_start_is_recovered() {
        let p = Problem::new(2)
            .with_bounds(vec![0.5, 0.5], vec![100.0, 100.0])
            .with_objective(|x| x[0] + 2.0 * x[1])
            .with_constraint(|x| x[0] * x[1] - 50.0); // xy <= 50
                                                      // Start far outside the feasible region.
        let r = BarrierSolver::default().solve(&p, &[90.0, 90.0]);
        assert!(r.feasible, "violation {}", r.max_violation);
        assert!(r.x[0] * r.x[1] <= 50.0 + 1e-3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_start_dimension_panics() {
        let p = Problem::new(2).with_objective(|x| x[0]);
        let _ = BarrierSolver::default().solve(&p, &[1.0]);
    }
}
