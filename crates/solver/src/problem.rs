//! Problem definition and solver interface.

use std::cell::RefCell;
use std::fmt;

/// Objective and constraints priced together: the objective at `x` is
/// returned, `g_i(x)` is written to `constraints[i]`.
type JointFn<'a> = Box<dyn FnMut(&[f64], &mut [f64]) -> f64 + 'a>;

/// A constrained non-linear minimization problem over a box:
///
/// ```text
/// minimize   f(x)
/// subject to g_i(x) <= 0        for every registered constraint
///            lower_j <= x_j <= upper_j
/// ```
///
/// The functions are one call, [`evaluate`](Self::evaluate): objective and
/// every constraint at a point, together. The tile-size objective and its
/// capacity and dominance constraints are all arithmetic on the same four
/// per-level costs, so a problem that prices a point once ([`joint`](Self::joint))
/// does an eighth of the work of one closure per function; the solvers make
/// exactly one evaluation per point they visit. Problems built a function at
/// a time ([`with_objective`](Self::with_objective),
/// [`with_constraint`](Self::with_constraint)) are composed into the same
/// call.
///
/// For the tile-size problems built by `mopt-core`, the box upper bounds are
/// the shape's *loop-trip counts* (`conv_spec::ConvShape::extent`), not the
/// raw tensor extents — for grouped convolutions the C-tile variable is
/// therefore bounded by the per-group reduction extent `C/groups`, and the
/// capacity constraints see the dilated input halo and group-span factor
/// through the model's footprint expressions.
pub struct Problem<'a> {
    dim: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    num_constraints: usize,
    /// `FnMut` behind a `RefCell` so an evaluator may keep plain state
    /// (tallies, the values of its last point) while solvers share the
    /// problem by `&`; an evaluation never evaluates the problem again, so
    /// the cell is never borrowed twice.
    functions: RefCell<JointFn<'a>>,
}

impl<'a> Problem<'a> {
    /// A problem of dimension `dim` with default bounds `[1, 1e9]`, a zero
    /// objective and no constraints. Use the builder methods to fill it in.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        Self::joint(dim, 0, |_, _| 0.0)
    }

    /// A problem whose objective and `num_constraints` constraints are priced
    /// by one call: `functions(x, g)` returns `f(x)` and fills
    /// `g[..num_constraints]`. Default bounds `[1, 1e9]`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn joint(
        dim: usize,
        num_constraints: usize,
        functions: impl FnMut(&[f64], &mut [f64]) -> f64 + 'a,
    ) -> Self {
        assert!(dim > 0, "problem dimension must be positive");
        Problem {
            dim,
            lower: vec![1.0; dim],
            upper: vec![1e9; dim],
            num_constraints,
            functions: RefCell::new(Box::new(functions)),
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

    /// Set the objective function, keeping the constraints.
    pub fn with_objective(mut self, f: impl Fn(&[f64]) -> f64 + 'a) -> Self {
        let mut rest = self.functions.into_inner();
        self.functions = RefCell::new(Box::new(move |x, g| {
            rest(x, g);
            f(x)
        }));
        self
    }

    /// Add an inequality constraint `g(x) <= 0`, after those already there.
    pub fn with_constraint(mut self, g: impl Fn(&[f64]) -> f64 + 'a) -> Self {
        let index = self.num_constraints;
        let mut rest = self.functions.into_inner();
        self.functions = RefCell::new(Box::new(move |x, values| {
            let objective = rest(x, values);
            values[index] = g(x);
            objective
        }));
        self.num_constraints += 1;
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
        self.num_constraints
    }

    /// Price the point `x`: returns the objective and writes constraint `i`
    /// to `constraints[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `constraints` is not [`num_constraints`](Self::num_constraints)
    /// long.
    pub fn evaluate(&self, x: &[f64], constraints: &mut [f64]) -> f64 {
        assert_eq!(constraints.len(), self.num_constraints, "constraint buffer length mismatch");
        (self.functions.borrow_mut())(x, constraints)
    }

    /// A buffer [`evaluate`](Self::evaluate) can fill.
    pub fn constraint_buffer(&self) -> Vec<f64> {
        vec![0.0; self.num_constraints]
    }

    /// Evaluate the objective alone (one whole evaluation).
    pub fn objective(&self, x: &[f64]) -> f64 {
        self.evaluate(x, &mut self.constraint_buffer())
    }

    /// Evaluate constraint `i` alone (one whole evaluation).
    pub fn constraint(&self, i: usize, x: &[f64]) -> f64 {
        let mut constraints = self.constraint_buffer();
        self.evaluate(x, &mut constraints);
        constraints[i]
    }

    /// The largest violation at `x` (0 when feasible) given the constraint
    /// values [`evaluate`](Self::evaluate) produced there, also counting
    /// box-bound violations.
    pub fn violation(&self, x: &[f64], constraints: &[f64]) -> f64 {
        let mut v: f64 = 0.0;
        for &g in constraints {
            v = v.max(g);
        }
        for (j, &xj) in x.iter().enumerate().take(self.dim) {
            v = v.max(self.lower[j] - xj);
            v = v.max(xj - self.upper[j]);
        }
        v.max(0.0)
    }

    /// The largest constraint violation at `x` (one whole evaluation; see
    /// [`violation`](Self::violation)).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut constraints = self.constraint_buffer();
        self.evaluate(x, &mut constraints);
        self.violation(x, &constraints)
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

impl fmt::Debug for Problem<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Problem")
            .field("dim", &self.dim)
            .field("constraints", &self.num_constraints)
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
    /// What a solver that ended at `x` after `iterations` reports: objective
    /// and violation from one evaluation there, feasible within `feas_tol`.
    pub(crate) fn at(problem: &Problem, x: Vec<f64>, iterations: usize, feas_tol: f64) -> Self {
        let mut constraints = problem.constraint_buffer();
        let objective = problem.evaluate(&x, &mut constraints);
        let max_violation = problem.violation(&x, &constraints);
        SolveResult { objective, feasible: max_violation <= feas_tol, max_violation, iterations, x }
    }

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

    fn sample_problem<'a>() -> Problem<'a> {
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
        let mut constraints = p.constraint_buffer();
        assert_eq!(p.evaluate(&[2.0, 2.0], &mut constraints), 5.0);
        assert_eq!(constraints, vec![-1.0]);
        assert_eq!(p.lower(), &[0.0, 0.0]);
        assert_eq!(p.upper(), &[10.0, 10.0]);
    }

    #[test]
    fn joint_call_and_per_function_accessors_agree_bit_for_bit() {
        // Built a function at a time, in either order, or as one call: the
        // same values land at the same indices.
        let f = |x: &[f64]| 1.0 / x[0] + x[1].sqrt() * 0.1;
        let g: [fn(&[f64]) -> f64; 3] =
            [|x| x[0] * x[1] - 7.3, |x| x[0] / 3.0 - x[1], |x| (x[0] - x[1]).powi(3)];
        let objective_first =
            g.iter().fold(Problem::new(2).with_objective(f), |p, &gi| p.with_constraint(gi));
        let objective_last =
            g.iter().fold(Problem::new(2), |p, &gi| p.with_constraint(gi)).with_objective(f);
        let joint = Problem::joint(2, 3, |x, out| {
            for (o, gi) in out.iter_mut().zip(&g) {
                *o = gi(x);
            }
            f(x)
        });
        for problem in [&sample_problem(), &objective_first, &objective_last, &joint] {
            let mut constraints = problem.constraint_buffer();
            for x in [[2.0, 2.0], [0.3, 9.7], [1e-3, 1e4], [-1.5, 2.25]] {
                let objective = problem.evaluate(&x, &mut constraints);
                assert_eq!(problem.objective(&x).to_bits(), objective.to_bits());
                for (i, value) in constraints.iter().enumerate() {
                    assert_eq!(problem.constraint(i, &x).to_bits(), value.to_bits());
                }
                assert_eq!(
                    problem.max_violation(&x).to_bits(),
                    problem.violation(&x, &constraints).to_bits()
                );
                if problem.num_constraints() == 3 {
                    assert_eq!(objective.to_bits(), f(&x).to_bits());
                    for (value, gi) in constraints.iter().zip(&g) {
                        assert_eq!(value.to_bits(), gi(&x).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn a_joint_problem_may_keep_state_between_evaluations() {
        let mut evaluations = 0u32;
        let problem = Problem::joint(1, 1, |x, g| {
            evaluations += 1;
            g[0] = x[0] - 2.0;
            x[0] * x[0]
        });
        assert_eq!(problem.objective(&[3.0]), 9.0);
        assert_eq!(problem.max_violation(&[3.0]), 1.0);
        drop(problem);
        assert_eq!(evaluations, 2);
    }

    #[test]
    #[should_panic(expected = "constraint buffer length mismatch")]
    fn a_short_constraint_buffer_panics() {
        sample_problem().evaluate(&[1.0, 1.0], &mut []);
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
