//! The constrained non-linear solve behind each class's tile-size problem.
//!
//! The paper solves each tile-size problem with AMPL + Ipopt; this is the
//! from-scratch replacement for the problem class that arises here: a few
//! dozen variables (seven tile sizes per level), piecewise-smooth
//! objectives (the largest of four level costs) and inequality constraints
//! built from products and ratios of the variables, and box bounds
//! `1 ≤ T_j ≤ N_j`.
//!
//! A [`Problem`] is a box and one function: [`Problem::evaluate`] prices the
//! objective and every constraint at a point together, because for the tile
//! problems they are all arithmetic on the same few per-level costs. [`solve`]
//! is a quadratic-penalty method — minimize `f(x) + ρ Σ max(0, g_i(x))²` with
//! increasing ρ by projected gradient descent with a backtracking line search,
//! which tolerates infeasible starts and constraint sets with an empty strict
//! interior — run from several starting points (the caller's, the box
//! center, a near-lower-bound point, and seeded log-uniform samples), keeping
//! the best result. It makes exactly one evaluation per point it visits and
//! allocates nothing inside its iteration loops.
//!
//! Converting a continuous solution into integer tile sizes (Algorithm 1,
//! line 23) needs the whole assembled schedule and the model that prices it:
//! that is the integer stage, not this module.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Penalty updates per start, and descent steps per update.
const OUTER_ITERS: usize = 4;
const INNER_ITERS: usize = 40;
/// Initial penalty weight (times the objective's magnitude at the start).
const RHO0: f64 = 10.0;
/// Growth of the penalty weight per outer iteration.
const RHO_GROWTH: f64 = 10.0;
/// Gradient tolerance, relative to the merit.
const TOL: f64 = 1e-9;
/// Feasibility tolerance for the reported result.
const FEAS_TOL: f64 = 1e-4;
/// The line search: halvings of the step tried before it gives up; a
/// candidate is accepted when it lowers the merit `f0` by more than
/// `MIN_DECREASE · |f0|`; an accepted step doubles up to `MAX_STEP`.
const BACKTRACKS: usize = 40;
const MIN_DECREASE: f64 = 1e-14;
const MAX_STEP: f64 = 1e9;
/// RNG seed of the random starting points: solves are reproducible.
const SEED: u64 = 0x5eed;

/// Objective and constraints priced together: the objective at `x` is
/// returned, `g_i(x)` is written to `constraints[i]`.
type JointFn<'a> = Box<dyn FnMut(&[f64], &mut [f64]) -> f64 + 'a>;

/// A constrained non-linear minimization problem over a box:
///
/// ```text
/// minimize   f(x)
/// subject to g_i(x) <= 0        for i < num_constraints
///            lower_j <= x_j <= upper_j
/// ```
///
/// For the tile-size problems the box upper bounds are the shape's
/// *loop-trip counts* (`conv_spec::ConvShape::extent`), not the raw tensor
/// extents — for grouped convolutions the C-tile variable is therefore
/// bounded by the per-group reduction extent `C/groups`, and the capacity
/// constraints see the dilated input halo and group-span factor through the
/// model's footprint expressions.
pub struct Problem<'a> {
    dim: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    num_constraints: usize,
    /// `FnMut` behind a `RefCell` so an evaluator may keep plain state
    /// (tallies, the values of its last point) while the solve shares the
    /// problem by `&`; an evaluation never evaluates the problem again, so
    /// the cell is never borrowed twice.
    functions: RefCell<JointFn<'a>>,
}

impl<'a> Problem<'a> {
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

    /// Price the point `x`: returns the objective and writes constraint `i`
    /// to `constraints[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `constraints` is not as long as the problem has constraints.
    pub fn evaluate(&self, x: &[f64], constraints: &mut [f64]) -> f64 {
        assert_eq!(constraints.len(), self.num_constraints, "constraint buffer length mismatch");
        (self.functions.borrow_mut())(x, constraints)
    }

    /// A buffer [`evaluate`](Self::evaluate) can fill.
    fn constraint_buffer(&self) -> Vec<f64> {
        vec![0.0; self.num_constraints]
    }

    /// The largest violation at `x` (0 when feasible) given the constraint
    /// values [`evaluate`](Self::evaluate) produced there, also counting
    /// box-bound violations.
    fn violation(&self, x: &[f64], constraints: &[f64]) -> f64 {
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

    /// Clamp a point into the box bounds.
    fn project(&self, x: &mut [f64]) {
        for (j, xj) in x.iter_mut().enumerate().take(self.dim) {
            *xj = xj.clamp(self.lower[j], self.upper[j]);
        }
    }

    /// The caller's start, the box center, a point near the lower bounds
    /// (always feasible for capacity-style constraints that grow with the
    /// variables), and `random_starts` seeded samples, log-uniform between
    /// the bounds (tile sizes span orders of magnitude) wherever the
    /// logarithms exist.
    fn starting_points(&self, x0: &[f64], random_starts: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(SEED);
        let (lower, upper) = (&self.lower, &self.upper);
        let mut starts = Vec::with_capacity(random_starts + 3);
        starts.push(x0.to_vec());
        starts.push((0..self.dim).map(|j| 0.5 * (lower[j] + upper[j])).collect());
        starts.push((0..self.dim).map(|j| lower[j] + 1e-3 * (upper[j] - lower[j])).collect());
        for _ in 0..random_starts {
            let p: Vec<f64> = (0..self.dim)
                .map(|j| {
                    let (lo, hi) = (lower[j], upper[j]);
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

/// The result of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Whether `x` satisfies all constraints within the solve's tolerance.
    pub feasible: bool,
    /// Largest constraint violation at `x`.
    pub max_violation: f64,
    /// Descent iterations the kept start performed.
    pub iterations: usize,
}

impl SolveResult {
    /// What a start that ended at `x` after `iterations` reports: objective
    /// and violation from one evaluation there.
    fn at(problem: &Problem, x: Vec<f64>, iterations: usize) -> Self {
        let mut constraints = problem.constraint_buffer();
        let objective = problem.evaluate(&x, &mut constraints);
        let max_violation = problem.violation(&x, &constraints);
        SolveResult { objective, feasible: max_violation <= FEAS_TOL, max_violation, iterations, x }
    }

    /// Feasible beats infeasible; among feasible, lower objective wins;
    /// among infeasible, lower violation wins.
    fn better_than(&self, other: &SolveResult) -> bool {
        match (self.feasible, other.feasible) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => self.objective < other.objective,
            (false, false) => self.max_violation < other.max_violation,
        }
    }
}

/// Minimize `problem` from `x0` (clamped to the box) and from the other
/// starting points (see the module docs), `random_starts` of them random,
/// and return the best result.
///
/// # Panics
///
/// Panics if `x0` is not as long as the problem's dimension.
pub fn solve(problem: &Problem, x0: &[f64], random_starts: usize) -> SolveResult {
    assert_eq!(x0.len(), problem.dim, "starting point dimension mismatch");
    let mut best: Option<SolveResult> = None;
    for start in problem.starting_points(x0, random_starts) {
        let candidate = penalty_solve(problem, start);
        if best.as_ref().is_none_or(|b| candidate.better_than(b)) {
            best = Some(candidate);
        }
    }
    best.expect("at least one starting point is always evaluated")
}

/// The quadratic-penalty method from one start.
fn penalty_solve(problem: &Problem, mut x: Vec<f64>) -> SolveResult {
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
    for _outer in 0..OUTER_ITERS {
        total_iters += descent.descend(|y| merit(rho, y), &mut x);
        rho *= RHO_GROWTH;
    }
    SolveResult::at(problem, x, total_iters)
}

/// Projected gradient descent over one problem's box, with the scratch
/// vectors of its steps.
struct Descent<'p, 'f> {
    problem: &'p Problem<'f>,
    /// The gradient, then the unit descent direction.
    dir: Vec<f64>,
    /// The line search's candidate point.
    cand: Vec<f64>,
}

impl<'p, 'f> Descent<'p, 'f> {
    fn new(problem: &'p Problem<'f>) -> Self {
        Descent { problem, dir: vec![0.0; problem.dim], cand: vec![0.0; problem.dim] }
    }

    /// Up to [`INNER_ITERS`] steps from `x`, the first of unit length. Each
    /// prices the merit `f0` at `x` afresh and stops the descent where `x` is
    /// stationary (gradient norm below `TOL · (1 + |f0|)`, or not finite);
    /// otherwise it moves along the normalized negative finite-difference
    /// gradient to the first candidate `x + s·d` (projected into the box; `s`
    /// halves from the current step) whose merit is below `f0` by the line
    /// search's margin, and doubles the step from the accepted `s`. A step
    /// that accepts no candidate also stops the descent. Returns the
    /// iterations begun.
    fn descend(&mut self, mut merit: impl FnMut(&[f64]) -> f64, x: &mut Vec<f64>) -> usize {
        let mut step = 1.0;
        'iterations: for begun in 1..=INNER_ITERS {
            let f0 = merit(x);
            numerical_gradient(&mut merit, x, &mut self.dir);
            let norm = self.dir.iter().map(|g| g * g).sum::<f64>().sqrt();
            if !norm.is_finite() || norm < TOL * (1.0 + f0.abs()) {
                return begun;
            }
            self.dir.iter_mut().for_each(|g| *g = -*g / norm);
            let mut s = step;
            for _ in 0..BACKTRACKS {
                for ((c, xj), d) in self.cand.iter_mut().zip(x.iter()).zip(&self.dir) {
                    *c = xj + s * d;
                }
                self.problem.project(&mut self.cand);
                if merit(&self.cand) < f0 - MIN_DECREASE * f0.abs() {
                    std::mem::swap(x, &mut self.cand);
                    step = (s * 2.0).min(MAX_STEP);
                    continue 'iterations;
                }
                s *= 0.5;
            }
            return begun;
        }
        INNER_ITERS
    }
}

/// Central-difference gradient of `f` at `x`, written to `grad`.
///
/// The objectives are smooth in the interior of the box, but their closed
/// forms are assembled programmatically from the cost model, hence finite
/// differences. The step is relative to each coordinate's magnitude
/// ([`step_for`]), so the approximation stays accurate over the wide dynamic
/// range of tile sizes. `x` is stepped in place, one coordinate at a time,
/// and is back at its values when this returns — so every point `f` sees
/// differs from `x` in one coordinate, which an `f` that remembers the last
/// point it priced can exploit.
fn numerical_gradient(mut f: impl FnMut(&[f64]) -> f64, x: &mut [f64], grad: &mut [f64]) {
    for j in 0..x.len() {
        let orig = x[j];
        let h = step_for(orig);
        x[j] = orig + h;
        let fp = f(x);
        x[j] = orig - h;
        let fm = f(x);
        x[j] = orig;
        grad[j] = (fp - fm) / (2.0 * h);
    }
}

/// The relative finite-difference step for a coordinate value.
pub(crate) fn step_for(value: f64) -> f64 {
    let scale = value.abs().max(1.0);
    scale * 1e-6
}

/// The closure-at-a-time builder: problems stated one function at a time,
/// composed into the same joint call (the tests' problems and the evaluation
/// oracle's reference statement of the tile problems).
#[cfg(test)]
impl<'a> Problem<'a> {
    /// A problem of dimension `dim` with default bounds `[1, 1e9]`, a zero
    /// objective and no constraints.
    pub(crate) fn new(dim: usize) -> Self {
        Self::joint(dim, 0, |_, _| 0.0)
    }

    /// Set the objective function, keeping the constraints.
    pub(crate) fn with_objective(mut self, f: impl Fn(&[f64]) -> f64 + 'a) -> Self {
        let mut rest = self.functions.into_inner();
        self.functions = RefCell::new(Box::new(move |x, g| {
            rest(x, g);
            f(x)
        }));
        self
    }

    /// Add an inequality constraint `g(x) <= 0`, after those already there.
    pub(crate) fn with_constraint(mut self, g: impl Fn(&[f64]) -> f64 + 'a) -> Self {
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

    /// Evaluate the objective alone (one whole evaluation).
    fn objective(&self, x: &[f64]) -> f64 {
        self.evaluate(x, &mut self.constraint_buffer())
    }

    /// Evaluate constraint `i` alone (one whole evaluation).
    fn constraint(&self, i: usize, x: &[f64]) -> f64 {
        let mut constraints = self.constraint_buffer();
        self.evaluate(x, &mut constraints);
        constraints[i]
    }

    /// The largest constraint violation at `x` (one whole evaluation).
    fn max_violation(&self, x: &[f64]) -> f64 {
        let mut constraints = self.constraint_buffer();
        self.evaluate(x, &mut constraints);
        self.violation(x, &constraints)
    }
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

    /// The solve is the one the cheap multistart of the separate solver crate
    /// produced (PR 24, the last parent with that crate), to the bit: same
    /// point, same objective, same iteration count.
    fn assert_pinned(r: &SolveResult, x: &[u64], objective: u64, iterations: usize) {
        assert_eq!(r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), x, "{:?}", r.x);
        assert_eq!(r.objective.to_bits(), objective, "{}", r.objective);
        assert_eq!(r.iterations, iterations);
    }

    #[test]
    fn builder_and_accessors() {
        let p = sample_problem();
        assert_eq!(p.dim, 2);
        assert_eq!(p.num_constraints, 1);
        assert_eq!(p.objective(&[3.0, 4.0]), 0.0);
        assert_eq!(p.constraint(0, &[2.0, 2.0]), -1.0);
        let mut constraints = p.constraint_buffer();
        assert_eq!(p.evaluate(&[2.0, 2.0], &mut constraints), 5.0);
        assert_eq!(constraints, vec![-1.0]);
        assert_eq!(p.lower, &[0.0, 0.0]);
        assert_eq!(p.upper, &[10.0, 10.0]);
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
                if problem.num_constraints == 3 {
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
    }

    #[test]
    fn result_ordering_prefers_feasible_then_objective() {
        let result = |objective, feasible, max_violation| SolveResult {
            x: vec![],
            objective,
            feasible,
            max_violation,
            iterations: 1,
        };
        let feas_low = result(1.0, true, 0.0);
        let feas_high = result(2.0, true, 0.0);
        let infeas = result(0.0, false, 3.0);
        let infeas_less = result(0.0, false, 1.0);
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

    #[test]
    #[should_panic(expected = "starting point dimension mismatch")]
    fn wrong_start_dimension_panics() {
        let _ = solve(&sample_problem(), &[1.0], 0);
    }

    #[test]
    fn gradient_of_quadratic() {
        let f = |x: &[f64]| x[0] * x[0] + 3.0 * x[1];
        let mut x = [2.0, 5.0];
        let mut g = [0.0; 2];
        numerical_gradient(f, &mut x, &mut g);
        assert_eq!(x, [2.0, 5.0], "the point is restored exactly");
        assert!((g[0] - 4.0).abs() < 1e-4);
        assert!((g[1] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn gradient_of_reciprocal_large_scale() {
        // d/dT (N/T) = -N/T^2 — typical term of the tile cost expressions.
        let n = 1.0e6;
        let f = move |x: &[f64]| n / x[0];
        let mut g = [0.0];
        numerical_gradient(f, &mut [250.0], &mut g);
        assert!((g[0] + n / 250.0_f64.powi(2)).abs() / (n / 250.0_f64.powi(2)) < 1e-4);
        assert!(step_for(0.0) > 0.0 && step_for(1e6) > step_for(1.0));
    }

    #[test]
    fn constrained_quadratic_projects_onto_constraint() {
        // minimize (x-3)^2 + (y-4)^2 s.t. x + y <= 5 → optimum (2, 3).
        let r = solve(&sample_problem(), &[8.0, 8.0], 0);
        assert!(r.feasible, "violation {}", r.max_violation);
        assert!((r.x[0] - 2.0).abs() < 0.1 && (r.x[1] - 3.0).abs() < 0.1, "{:?}", r.x);
        assert_pinned(&r, &[0x400087bed4433ca4, 0x4007784b32f98351], 0x400011e951c80f69, 160);
    }

    #[test]
    fn works_from_infeasible_start() {
        let p = Problem::new(2)
            .with_bounds(vec![0.1, 0.1], vec![100.0, 100.0])
            .with_objective(|x| 1.0 / x[0] + 1.0 / x[1])
            .with_constraint(|x| x[0] + x[1] - 10.0);
        let r = solve(&p, &[90.0, 90.0], 0);
        assert!(r.feasible);
        assert!((r.x[0] - 5.0).abs() < 0.3 && (r.x[1] - 5.0).abs() < 0.3, "{:?}", r.x);
        assert_pinned(&r, &[0x40140000415cc5c0; 2], 0x3fd9999945efa7ca, 55);
    }

    #[test]
    fn unconstrained_quadratic_reaches_its_minimum() {
        let p = Problem::new(1)
            .with_bounds(vec![-5.0], vec![5.0])
            .with_objective(|x| (x[0] - 1.5).powi(2));
        let r = solve(&p, &[-4.0], 0);
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
        let r = solve(&p, &[5.0], 2);
        assert!(!r.feasible);
        assert!(r.max_violation > 0.5);
    }

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
        // A plain local solve from x=1 stays near 2; the other starts find 8.
        let r = solve(&p, &[1.0], 6);
        assert!(r.feasible);
        assert!((r.x[0] - 8.0).abs() < 0.2, "expected global basin, got {:?}", r.x);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = two_basin_problem();
        assert_eq!(solve(&p, &[1.0], 6).x, solve(&p, &[1.0], 6).x);
    }

    #[test]
    fn respects_capacity_constraints_from_every_start() {
        let p = Problem::new(2)
            .with_bounds(vec![1.0, 1.0], vec![1000.0, 1000.0])
            .with_objective(|x| 1e6 / x[0] + 1e6 / x[1])
            .with_constraint(|x| x[0] * x[1] - 4096.0);
        let r = solve(&p, &[1.0, 1.0], 4);
        assert!(r.feasible);
        // Optimum is x = y = 64 (symmetric, capacity saturated).
        assert!((r.x[0] - 64.0).abs() < 8.0 && (r.x[1] - 64.0).abs() < 8.0, "{:?}", r.x);
        assert_pinned(&r, &[0x404fffffc08218a4; 2], 0x40de84803c8ceeb0, 24);
    }

    #[test]
    fn matmul_tile_problem_from_section_2() {
        // minimize Ni*Nj*Nk*(1/Ti + 1/Tj) + 2*Ni*Nj  s.t. Ti*Tk + Tj*Tk + Ti*Tj <= C:
        // symmetric in Ti, Tj, so the optimum has Ti ≈ Tj, and Tk at its
        // lower bound.
        let (ni, nj, nk, cap) = (512.0, 512.0, 512.0, 1024.0);
        let p = Problem::new(3)
            .with_bounds(vec![1.0, 1.0, 1.0], vec![ni, nj, nk])
            .with_objective(move |t| ni * nj * nk * (1.0 / t[0] + 1.0 / t[1]) + 2.0 * ni * nj)
            .with_constraint(move |t| t[0] * t[2] + t[1] * t[2] + t[0] * t[1] - cap);
        let r = solve(&p, &[8.0, 8.0, 8.0], 2);
        assert!(r.feasible);
        assert!((r.x[0] - r.x[1]).abs() / r.x[0].max(r.x[1]) < 0.15, "{:?}", r.x);
        assert!(r.x[2] < 3.0, "Tk should shrink toward 1, got {}", r.x[2]);
        let used = r.x[0] * r.x[2] + r.x[1] * r.x[2] + r.x[0] * r.x[1];
        assert!(used > 0.85 * cap, "capacity underused: {used}");
        let x = [0x403f03ff494bd258, 0x403f03ff494bd258, 0x3ff0000000000000];
        assert_pinned(&r, &x, 0x416182001f361da9, 25);
    }
}
