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

use crate::gradient::{axpy, descent_direction, norm, numerical_gradient};
use crate::problem::{NlpSolver, Problem, SolveResult};

/// Log-barrier interior-point solver.
#[derive(Debug, Clone)]
pub struct BarrierSolver {
    /// Initial barrier weight.
    pub mu0: f64,
    /// Multiplicative shrink factor applied to μ after each outer iteration.
    pub mu_shrink: f64,
    /// Number of outer (barrier) iterations.
    pub outer_iters: usize,
    /// Maximum inner projected-gradient iterations per outer iteration.
    pub inner_iters: usize,
    /// Gradient-norm tolerance for early inner termination.
    pub tol: f64,
    /// Feasibility tolerance used for the final feasibility check.
    pub feas_tol: f64,
}

impl Default for BarrierSolver {
    fn default() -> Self {
        BarrierSolver {
            mu0: 1.0,
            mu_shrink: 0.2,
            outer_iters: 12,
            inner_iters: 200,
            tol: 1e-8,
            feas_tol: 1e-6,
        }
    }
}

impl BarrierSolver {
    /// A cheaper configuration for use inside multi-start loops.
    pub fn fast() -> Self {
        BarrierSolver { outer_iters: 8, inner_iters: 80, ..Self::default() }
    }

    /// Move `x` strictly inside the feasible region if possible, by
    /// minimizing the squared constraint violation with projected gradient.
    fn restore_feasibility(&self, problem: &Problem, x: &mut Vec<f64>) {
        problem.project(x);
        let mut constraints = problem.constraint_buffer();
        // One evaluation gives both measures of a point: the smooth one the
        // descent minimizes, and the largest violation (bounds included).
        let mut measure = |y: &[f64]| -> (f64, f64) {
            problem.evaluate(y, &mut constraints);
            let squared = constraints.iter().map(|g| g.max(0.0).powi(2)).sum::<f64>();
            (squared, problem.violation(y, &constraints))
        };
        let (mut f0, mut worst) = measure(x);
        let mut step = 1.0;
        let mut dir = vec![0.0; x.len()];
        let mut cand = vec![0.0; x.len()];
        for _ in 0..self.inner_iters {
            if worst <= 0.0 {
                break;
            }
            numerical_gradient(|y| measure(y).0, x, &mut dir);
            let gn = norm(&dir);
            if gn < self.tol {
                break;
            }
            descent_direction(&mut dir, gn);
            // Backtracking on the violation measure.
            let mut accepted = false;
            let mut s = step;
            for _ in 0..30 {
                axpy(&mut cand, x, s, &dir);
                problem.project(&mut cand);
                let (fc, worst_c) = measure(&cand);
                if fc < f0 {
                    std::mem::swap(x, &mut cand);
                    (f0, worst) = (fc, worst_c);
                    step = (s * 2.0).min(1e6);
                    accepted = true;
                    break;
                }
                s *= 0.5;
            }
            if !accepted {
                break;
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
        let mut x = x0.to_vec();
        self.restore_feasibility(problem, &mut x);

        // If still infeasible, interior point cannot start; report the
        // best-effort point (callers typically fall back to PenaltySolver or
        // another start via MultiStart).
        let restored = SolveResult::at(problem, x, 0, self.feas_tol);
        if restored.max_violation > 0.0 {
            return restored;
        }
        let mut x = restored.x;
        let mut constraints = problem.constraint_buffer();

        // Back off from active constraints slightly so logs are finite.
        nudge_strictly_feasible(problem, &mut x, &mut constraints);

        let mut mu = self.mu0 * (1.0 + problem.evaluate(&x, &mut constraints).abs());
        let mut phi = |mu: f64, y: &[f64]| -> f64 {
            let objective = problem.evaluate(y, &mut constraints);
            barrier_value(objective, &constraints, mu)
        };
        let mut total_iters = 0usize;
        let mut dir = vec![0.0; x.len()];
        let mut cand = vec![0.0; x.len()];
        for _outer in 0..self.outer_iters {
            let mut step = 1.0;
            for _inner in 0..self.inner_iters {
                total_iters += 1;
                let f0 = phi(mu, &x);
                numerical_gradient(|y| phi(mu, y), &mut x, &mut dir);
                let gn = norm(&dir);
                if !gn.is_finite() || gn < self.tol * (1.0 + f0.abs()) {
                    break;
                }
                descent_direction(&mut dir, gn);
                let mut s = step;
                let mut accepted = false;
                for _ in 0..40 {
                    axpy(&mut cand, &x, s, &dir);
                    problem.project(&mut cand);
                    let fc = phi(mu, &cand);
                    if fc.is_finite() && fc < f0 - 1e-12 * f0.abs() {
                        std::mem::swap(&mut x, &mut cand);
                        step = (s * 2.0).min(1e9);
                        accepted = true;
                        break;
                    }
                    s *= 0.5;
                }
                if !accepted {
                    break;
                }
            }
            mu *= self.mu_shrink;
        }

        SolveResult::at(problem, x, total_iters, self.feas_tol)
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
