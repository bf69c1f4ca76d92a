//! Problem definition and solver interface.

use std::fmt;
use std::sync::Arc;

/// A scalar function of a point, shared between solver components.
pub type ScalarFn = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// A constrained non-linear minimization problem over a box:
///
/// ```text
/// minimize   f(x)
/// subject to g_i(x) <= 0        for every registered constraint
///            lower_j <= x_j <= upper_j
/// ```
///
/// For the tile-size problems built by `mopt-core`, the box upper bounds are
/// the shape's *loop-trip counts* (`conv_spec::ConvShape::extent`), not the
/// raw tensor extents — for grouped convolutions the C-tile variable is
/// therefore bounded by the per-group reduction extent `C/groups`, and the
/// capacity constraints see the dilated input halo and group-span factor
/// through the model's footprint expressions.
#[derive(Clone)]
pub struct Problem {
    dim: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    objective: ScalarFn,
    constraints: Vec<ScalarFn>,
}

impl Problem {
    /// A problem of dimension `dim` with default bounds `[1, 1e9]` and a zero
    /// objective. Use the builder methods to fill it in.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "problem dimension must be positive");
        Problem {
            dim,
            lower: vec![1.0; dim],
            upper: vec![1e9; dim],
            objective: Arc::new(|_| 0.0),
            constraints: Vec::new(),
        }
    }

    /// Set the box bounds.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ from the dimension or any lower bound
    /// exceeds its upper bound.
    pub fn with_bounds(mut self, lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), self.dim, "lower bound length mismatch");
        assert_eq!(upper.len(), self.dim, "upper bound length mismatch");
        for (l, u) in lower.iter().zip(upper.iter()) {
            assert!(l <= u, "lower bound {l} exceeds upper bound {u}");
        }
        self.lower = lower;
        self.upper = upper;
        self
    }

    /// Set the objective function.
    pub fn with_objective(mut self, f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Self {
        self.objective = Arc::new(f);
        self
    }

    /// Add an inequality constraint `g(x) <= 0`.
    pub fn with_constraint(mut self, g: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Self {
        self.constraints.push(Arc::new(g));
        self
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Lower bounds.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper bounds.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Number of inequality constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Evaluate the objective.
    pub fn objective(&self, x: &[f64]) -> f64 {
        (self.objective)(x)
    }

    /// Evaluate constraint `i`.
    pub fn constraint(&self, i: usize, x: &[f64]) -> f64 {
        (self.constraints[i])(x)
    }

    /// Evaluate all constraints.
    pub fn constraints(&self, x: &[f64]) -> Vec<f64> {
        self.constraints.iter().map(|g| g(x)).collect()
    }

    /// The largest constraint violation at `x` (0 when feasible), also
    /// counting box-bound violations.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut v: f64 = 0.0;
        for g in &self.constraints {
            v = v.max(g(x));
        }
        for (j, &xj) in x.iter().enumerate().take(self.dim) {
            v = v.max(self.lower[j] - xj);
            v = v.max(xj - self.upper[j]);
        }
        v.max(0.0)
    }

    /// Clamp a point into the box bounds.
    pub fn project(&self, x: &mut [f64]) {
        for (j, xj) in x.iter_mut().enumerate().take(self.dim) {
            *xj = xj.clamp(self.lower[j], self.upper[j]);
        }
    }

    /// The midpoint of the box (a generic starting point).
    pub fn box_center(&self) -> Vec<f64> {
        (0..self.dim).map(|j| 0.5 * (self.lower[j] + self.upper[j])).collect()
    }
}

impl fmt::Debug for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Problem")
            .field("dim", &self.dim)
            .field("constraints", &self.constraints.len())
            .field("lower", &self.lower)
            .field("upper", &self.upper)
            .finish()
    }
}

/// The result of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Whether `x` satisfies all constraints within the solver's tolerance.
    pub feasible: bool,
    /// Largest constraint violation at `x`.
    pub max_violation: f64,
    /// Number of (outer) iterations performed.
    pub iterations: usize,
}

impl SolveResult {
    /// Order results: feasible beats infeasible; among feasible, lower
    /// objective wins; among infeasible, lower violation wins.
    pub fn better_than(&self, other: &SolveResult) -> bool {
        match (self.feasible, other.feasible) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => self.objective < other.objective,
            (false, false) => self.max_violation < other.max_violation,
        }
    }
}

/// Common interface of the constrained solvers in this crate.
pub trait NlpSolver {
    /// Minimize `problem` starting from `x0` (clamped to the box if needed).
    fn solve(&self, problem: &Problem, x0: &[f64]) -> SolveResult;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_problem() -> Problem {
        Problem::new(2)
            .with_bounds(vec![0.0, 0.0], vec![10.0, 10.0])
            .with_objective(|x| (x[0] - 3.0).powi(2) + (x[1] - 4.0).powi(2))
            .with_constraint(|x| x[0] + x[1] - 5.0)
    }

    #[test]
    fn builder_and_accessors() {
        let p = sample_problem();
        assert_eq!(p.dim(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.objective(&[3.0, 4.0]), 0.0);
        assert_eq!(p.constraint(0, &[2.0, 2.0]), -1.0);
        assert_eq!(p.constraints(&[2.0, 2.0]), vec![-1.0]);
        assert_eq!(p.lower(), &[0.0, 0.0]);
        assert_eq!(p.upper(), &[10.0, 10.0]);
    }

    #[test]
    fn feasibility_and_violation() {
        let p = sample_problem();
        assert!(p.max_violation(&[1.0, 1.0]) <= 1e-9);
        assert!((p.max_violation(&[4.0, 4.0]) - 3.0).abs() < 1e-12);
        // Bound violation is caught too.
        assert!(p.max_violation(&[-1.0, 0.0]) >= 1.0);
    }

    #[test]
    fn project_clamps_into_box() {
        let p = sample_problem();
        let mut x = vec![-5.0, 20.0];
        p.project(&mut x);
        assert_eq!(x, vec![0.0, 10.0]);
        assert_eq!(p.box_center(), vec![5.0, 5.0]);
    }

    #[test]
    fn result_ordering_prefers_feasible_then_objective() {
        let feas_low = SolveResult {
            x: vec![],
            objective: 1.0,
            feasible: true,
            max_violation: 0.0,
            iterations: 1,
        };
        let feas_high = SolveResult {
            x: vec![],
            objective: 2.0,
            feasible: true,
            max_violation: 0.0,
            iterations: 1,
        };
        let infeas = SolveResult {
            x: vec![],
            objective: 0.0,
            feasible: false,
            max_violation: 3.0,
            iterations: 1,
        };
        let infeas_less = SolveResult {
            x: vec![],
            objective: 0.0,
            feasible: false,
            max_violation: 1.0,
            iterations: 1,
        };
        assert!(feas_low.better_than(&feas_high));
        assert!(feas_high.better_than(&infeas));
        assert!(!infeas.better_than(&feas_low));
        assert!(infeas_less.better_than(&infeas));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        let _ = Problem::new(0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_bound_length_panics() {
        let _ = Problem::new(2).with_bounds(vec![0.0], vec![1.0, 2.0]);
    }
}
