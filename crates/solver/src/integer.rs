//! Conversion of continuous solutions to integer tile sizes.
//!
//! Algorithm 1 of the paper floors the real-valued solver output to integers
//! and then adjusts tile sizes for load balance. This module implements the
//! flooring step together with a feasibility-preserving local refinement:
//! starting from the floored point, greedy ±1 (and ×2 / ÷2) moves are applied
//! while they improve the objective and keep every constraint satisfied.

use crate::problem::Problem;

/// Maximum number of full improvement sweeps over all coordinates.
const MAX_SWEEPS: usize = 8;
/// Feasibility tolerance for accepting a move.
const FEAS_TOL: f64 = 1e-9;

/// Floor a continuous solution to integers (respecting the lower bounds) and
/// greedily refine it without violating constraints.
///
/// Returns the integer point and its objective value. If the floored point is
/// infeasible, coordinates are reduced greedily until feasible (this always
/// terminates at the all-lower-bound point, which the tile problems keep
/// feasible by construction).
pub fn floor_refine(problem: &Problem, x: &[f64]) -> (Vec<f64>, f64) {
    let dim = problem.dim();
    assert_eq!(x.len(), dim, "point dimension mismatch");
    let lowest = |j: usize| problem.lower()[j].ceil();
    let mut xi: Vec<f64> =
        (0..dim).map(|j| x[j].floor().max(lowest(j)).min(problem.upper()[j].floor())).collect();
    let mut constraints = problem.constraint_buffer();
    // A point's objective and largest violation, from one evaluation.
    let mut price = |y: &[f64]| -> (f64, f64) {
        let objective = problem.evaluate(y, &mut constraints);
        (objective, problem.violation(y, &constraints))
    };

    // Restore feasibility by shrinking coordinates (capacity-style
    // constraints are monotone increasing in each variable).
    let (mut best_obj, mut violation) = price(&xi);
    let mut guard = 0;
    while violation > FEAS_TOL && guard < 10_000 {
        guard += 1;
        // Shrink the coordinate with the largest value above its lower bound.
        if let Some((j, _)) = xi
            .iter()
            .enumerate()
            .filter(|(j, v)| **v > lowest(*j))
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        {
            xi[j] = (xi[j] / 2.0).floor().max(lowest(j));
        } else {
            break;
        }
        (best_obj, violation) = price(&xi);
    }

    for _sweep in 0..MAX_SWEEPS {
        let mut improved = false;
        for j in 0..dim {
            // ±1, then double and halve: tile-size objectives are often flat
            // in unit steps but responsive to scale changes.
            for delta in [1.0, -1.0, xi[j], -(xi[j] / 2.0).floor()] {
                if delta == 0.0 {
                    continue;
                }
                let current = xi[j];
                let moved = (current + delta).max(lowest(j)).min(problem.upper()[j].floor());
                if moved == current {
                    continue;
                }
                xi[j] = moved;
                let (obj, violation) = price(&xi);
                if violation <= FEAS_TOL && obj < best_obj - 1e-12 * best_obj.abs() {
                    best_obj = obj;
                    improved = true;
                } else {
                    xi[j] = current;
                }
            }
        }
        if !improved {
            break;
        }
    }
    (xi, best_obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_and_respects_bounds() {
        let p = Problem::new(2)
            .with_bounds(vec![1.0, 1.0], vec![16.0, 16.0])
            .with_objective(|x| -(x[0] * x[1]))
            .with_constraint(|x| x[0] * x[1] - 64.0);
        let (xi, obj) = floor_refine(&p, &[7.9, 8.2]);
        assert!(xi.iter().all(|v| v.fract() == 0.0));
        assert!(p.max_violation(&xi) <= 1e-9);
        assert!(obj <= -(49.0)); // at least as good as the plain floor (7*8)
    }

    #[test]
    fn refinement_improves_on_plain_floor() {
        // Objective rewards larger x under a capacity constraint; flooring
        // 11.9 → 11 wastes capacity that refinement can claim back.
        let p = Problem::new(1)
            .with_bounds(vec![1.0], vec![100.0])
            .with_objective(|x| 1000.0 / x[0])
            .with_constraint(|x| x[0] - 12.0);
        let (xi, _) = floor_refine(&p, &[11.2]);
        assert_eq!(xi[0], 12.0);
    }

    #[test]
    fn infeasible_floor_is_repaired() {
        let p = Problem::new(2)
            .with_bounds(vec![1.0, 1.0], vec![64.0, 64.0])
            .with_objective(|x| 1.0 / (x[0] * x[1]))
            .with_constraint(|x| x[0] * x[1] - 16.0);
        // Start well outside the feasible set.
        let (xi, _) = floor_refine(&p, &[60.0, 60.0]);
        assert!(p.max_violation(&xi) <= 1e-9, "still infeasible: {xi:?}");
        assert!(xi[0] * xi[1] <= 16.0 + 1e-9);
    }
}
