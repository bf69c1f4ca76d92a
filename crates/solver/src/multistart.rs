//! Random-restart wrapper around the local solvers.
//!
//! The multi-level tile-size problems are non-convex (products and ratios of
//! variables), so a single local solve can land in a poor local minimum.
//! `MultiStart` runs a base solver from several starting points — the
//! caller-provided start, the box center, a near-lower-bound point, and
//! log-uniform random samples — and keeps the best feasible result.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::barrier::BarrierSolver;
use crate::penalty::PenaltySolver;
use crate::problem::{NlpSolver, Problem, SolveResult};

/// What each start runs: the two effort profiles of the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseSolver {
    /// The quadratic-penalty solver alone, with few iterations.
    Penalty,
    /// [`BarrierSolver::fast`] and [`PenaltySolver::default`], keeping the
    /// better result of each start.
    Both,
}

/// RNG seed of the random starting points: solves are reproducible.
const SEED: u64 = 0x5eed;

/// Random-restart driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiStart {
    /// Number of random starting points (in addition to the deterministic
    /// ones).
    pub random_starts: usize,
    /// Which local solver(s) to run, at what effort.
    pub base: BaseSolver,
}

impl Default for MultiStart {
    fn default() -> Self {
        MultiStart::with_starts(6)
    }
}

impl MultiStart {
    /// The full-effort profile with a given number of random starts: barrier
    /// and penalty solver from every start.
    pub fn with_starts(random_starts: usize) -> Self {
        MultiStart { random_starts, base: BaseSolver::Both }
    }

    /// A low-effort configuration for use inside larger search loops (the
    /// MOpt optimizer calls the solver dozens of times per operator): penalty
    /// method only, few iterations, few restarts.
    pub fn cheap(random_starts: usize) -> Self {
        MultiStart { random_starts, base: BaseSolver::Penalty }
    }

    fn starting_points(&self, problem: &Problem, x0: &[f64]) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(SEED);
        let dim = problem.dim();
        let mut starts = Vec::with_capacity(self.random_starts + 3);
        starts.push(x0.to_vec());
        starts.push(problem.box_center());
        // A point near the lower bounds (always feasible for capacity-style
        // constraints that grow with the variables).
        starts.push(
            (0..dim)
                .map(|j| problem.lower()[j] + 1e-3 * (problem.upper()[j] - problem.lower()[j]))
                .collect(),
        );
        for _ in 0..self.random_starts {
            let p: Vec<f64> = (0..dim)
                .map(|j| {
                    let lo = problem.lower()[j];
                    let hi = problem.upper()[j];
                    // Log-uniform between the bounds (tile sizes span orders of
                    // magnitude) wherever the logarithms exist.
                    if lo > 0.0 && hi > lo {
                        let t: f64 = rng.gen();
                        (lo.ln() + t * (hi.ln() - lo.ln())).exp()
                    } else {
                        rng.gen_range(lo..=hi)
                    }
                })
                .collect();
            starts.push(p);
        }
        starts
    }
}

impl NlpSolver for MultiStart {
    fn solve(&self, problem: &Problem, x0: &[f64]) -> SolveResult {
        let mut best: Option<SolveResult> = None;
        let mut keep_better = |cand: SolveResult| {
            if best.as_ref().is_none_or(|b| cand.better_than(b)) {
                best = Some(cand);
            }
        };
        let (barrier, penalty) = match self.base {
            BaseSolver::Penalty => (None, PenaltySolver::CHEAP),
            BaseSolver::Both => (Some(BarrierSolver::fast()), PenaltySolver::default()),
        };
        for start in self.starting_points(problem, x0) {
            if let Some(barrier) = barrier {
                keep_better(barrier.solve(problem, &start));
            }
            keep_better(penalty.solve(problem, &start));
        }
        best.expect("at least one starting point is always evaluated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately multi-modal objective: two basins, the deeper one near
    /// the upper bound.
    fn two_basin_problem() -> Problem<'static> {
        Problem::new(1).with_bounds(vec![0.0], vec![10.0]).with_objective(|x| {
            let a = (x[0] - 2.0).powi(2); // local basin at 2 (depth 0 + 1)
            let b = (x[0] - 8.0).powi(2) - 5.0; // global basin at 8 (depth -5)
            (a.min(b)) + 1.0
        })
    }

    #[test]
    fn escapes_local_minimum() {
        let p = two_basin_problem();
        // A plain local solve from x=1 stays near 2; multistart should find 8.
        let r = MultiStart::default().solve(&p, &[1.0]);
        assert!(r.feasible);
        assert!((r.x[0] - 8.0).abs() < 0.2, "expected global basin, got {:?}", r.x);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = two_basin_problem();
        let a = MultiStart::default().solve(&p, &[1.0]);
        let b = MultiStart::default().solve(&p, &[1.0]);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn respects_constraints_like_local_solvers() {
        let p = Problem::new(2)
            .with_bounds(vec![1.0, 1.0], vec![1000.0, 1000.0])
            .with_objective(|x| 1e6 / x[0] + 1e6 / x[1])
            .with_constraint(|x| x[0] * x[1] - 4096.0);
        let r = MultiStart::with_starts(4).solve(&p, &[1.0, 1.0]);
        assert!(r.feasible);
        // Optimum is x = y = 64 (symmetric, capacity saturated).
        assert!((r.x[0] - 64.0).abs() < 8.0 && (r.x[1] - 64.0).abs() < 8.0, "{:?}", r.x);
        // The solve PR 18's per-function `Problem` produced, to the bit (both
        // base solvers run; the penalty one's result is kept).
        assert_eq!(r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), [0x404fffffc08218a4; 2]);
        assert_eq!(r.objective.to_bits(), 0x40de84803c8ceeb0);
        assert_eq!(r.iterations, 28);
    }

    #[test]
    fn penalty_only_mode_works() {
        let p = Problem::new(1)
            .with_bounds(vec![0.0], vec![4.0])
            .with_objective(|x| (x[0] - 3.0).powi(2));
        let r = MultiStart::cheap(6).solve(&p, &[0.0]);
        assert!((r.x[0] - 3.0).abs() < 0.05);
    }
}
