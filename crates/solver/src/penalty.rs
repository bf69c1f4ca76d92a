//! Quadratic-penalty solver.
//!
//! A robust (if less precise) fallback to the barrier method: minimize
//! `f(x) + ρ Σ max(0, g_i(x))²` with increasing ρ, using projected gradient
//! descent over the box bounds. Unlike the barrier method it tolerates
//! infeasible starting points and constraint sets with an empty strict
//! interior.

use crate::descent::{Descent, LineSearch};
use crate::problem::{NlpSolver, Problem, SolveResult};

/// Initial penalty weight (times the objective's magnitude at the start).
const RHO0: f64 = 10.0;
/// Growth of the penalty weight per outer iteration.
const RHO_GROWTH: f64 = 10.0;
/// Gradient tolerance, relative to the merit.
const TOL: f64 = 1e-9;
/// Feasibility tolerance for the reported result.
const FEAS_TOL: f64 = 1e-4;
const SEARCH: LineSearch = LineSearch { backtracks: 40, min_decrease: 1e-14, max_step: 1e9 };

/// Quadratic-penalty solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PenaltySolver {
    /// Outer iterations (penalty updates).
    pub outer_iters: usize,
    /// Inner projected-gradient iterations.
    pub inner_iters: usize,
}

impl Default for PenaltySolver {
    fn default() -> Self {
        PenaltySolver { outer_iters: 8, inner_iters: 150 }
    }
}

impl PenaltySolver {
    /// The low-effort profile [`crate::MultiStart::cheap`] runs per start.
    pub(crate) const CHEAP: PenaltySolver = PenaltySolver { outer_iters: 4, inner_iters: 40 };
}

impl NlpSolver for PenaltySolver {
    fn solve(&self, problem: &Problem, x0: &[f64]) -> SolveResult {
        assert_eq!(x0.len(), problem.dim(), "starting point dimension mismatch");
        let mut x = x0.to_vec();
        problem.project(&mut x);
        let mut constraints = problem.constraint_buffer();
        // Normalize the penalty scale to the objective magnitude so huge
        // data-volume objectives (1e9+) do not drown the penalty term.
        let scale = 1.0 + problem.evaluate(&x, &mut constraints).abs();
        let mut merit = |rho: f64, y: &[f64]| -> f64 {
            let mut m = problem.evaluate(y, &mut constraints);
            for g in &constraints {
                let g = g.max(0.0);
                m += rho * g * g;
            }
            m
        };
        let mut rho = RHO0 * scale;
        let mut total_iters = 0;
        let mut descent = Descent::new(problem);
        for _outer in 0..self.outer_iters {
            total_iters +=
                descent.descend(|y| merit(rho, y), &mut x, self.inner_iters, TOL, &SEARCH);
            rho *= RHO_GROWTH;
        }
        SolveResult::at(problem, x, total_iters, FEAS_TOL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The solve is the one the per-function `Problem` of PR 18 produced,
    /// to the bit: same point, same objective, same iteration count.
    fn assert_pinned(r: &SolveResult, x: &[u64], objective: u64, iterations: usize) {
        assert_eq!(r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), x, "{:?}", r.x);
        assert_eq!(r.objective.to_bits(), objective, "{}", r.objective);
        assert_eq!(r.iterations, iterations);
    }

    #[test]
    fn constrained_quadratic_projects_onto_constraint() {
        // minimize (x-3)^2 + (y-4)^2 s.t. x + y <= 5 → optimum (2, 3).
        let p = Problem::new(2)
            .with_bounds(vec![0.0, 0.0], vec![10.0, 10.0])
            .with_objective(|x| (x[0] - 3.0).powi(2) + (x[1] - 4.0).powi(2))
            .with_constraint(|x| x[0] + x[1] - 5.0);
        let r = PenaltySolver::default().solve(&p, &[8.0, 8.0]);
        assert!(r.feasible, "violation {}", r.max_violation);
        assert!((r.x[0] - 2.0).abs() < 0.1 && (r.x[1] - 3.0).abs() < 0.1, "{:?}", r.x);
        assert_pinned(&r, &[0x4000c7f29ed44b05, 0x4007380ce4d7fbea], 0x4000270bd725e21a, 606);
    }

    #[test]
    fn works_from_infeasible_start() {
        let p = Problem::new(2)
            .with_bounds(vec![0.1, 0.1], vec![100.0, 100.0])
            .with_objective(|x| 1.0 / x[0] + 1.0 / x[1])
            .with_constraint(|x| x[0] + x[1] - 10.0);
        let r = PenaltySolver::default().solve(&p, &[90.0, 90.0]);
        assert!(r.feasible);
        assert!((r.x[0] - 5.0).abs() < 0.3 && (r.x[1] - 5.0).abs() < 0.3, "{:?}", r.x);
        assert_pinned(&r, &[0x4013ffffe6da4c26, 0x4013ffffe6da4c26], 0x3fd99999b9c9dc21, 61);
    }

    #[test]
    fn unconstrained_matches_barrier() {
        let p = Problem::new(1)
            .with_bounds(vec![-5.0], vec![5.0])
            .with_objective(|x| (x[0] - 1.5).powi(2));
        let r = PenaltySolver::default().solve(&p, &[-4.0]);
        assert!((r.x[0] - 1.5).abs() < 1e-2);
        assert!(r.iterations > 0);
    }

    #[test]
    fn reports_infeasibility_when_constraints_conflict() {
        // x <= -1 and x >= 1 cannot both hold inside [0, 10].
        let p = Problem::new(1)
            .with_bounds(vec![0.0], vec![10.0])
            .with_objective(|x| x[0])
            .with_constraint(|x| x[0] + 1.0) // x <= -1
            .with_constraint(|x| 1.0 - x[0]); // x >= 1
        let r = PenaltySolver::default().solve(&p, &[5.0]);
        assert!(!r.feasible);
        assert!(r.max_violation > 0.5);
    }
}
