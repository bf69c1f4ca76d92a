//! Projected gradient descent with a backtracking line search: the one inner
//! loop under the penalty merit, the barrier function and the barrier
//! solver's feasibility phase. The callers differ in the merit they hand in
//! and in a [`LineSearch`] of constants, not in the loop.

use crate::gradient::numerical_gradient;
use crate::problem::Problem;

/// The constants of a backtracking line search. Each caller's are the ones
/// its own copy of the loop had before the copies were merged: every schedule
/// the optimizer serves is a function of them to the bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineSearch {
    /// Halvings of the step tried before the search gives up.
    pub backtracks: usize,
    /// A candidate is accepted when it lowers the merit `f0` by more than
    /// this fraction of `|f0|`.
    pub min_decrease: f64,
    /// Cap on the step an accepted step doubles to.
    pub max_step: f64,
}

/// A descent over one problem's box, with the scratch vectors of its steps.
pub(crate) struct Descent<'p, 'f> {
    problem: &'p Problem<'f>,
    /// The gradient, then the unit descent direction.
    dir: Vec<f64>,
    /// The line search's candidate point.
    cand: Vec<f64>,
}

impl<'p, 'f> Descent<'p, 'f> {
    pub fn new(problem: &'p Problem<'f>) -> Self {
        Descent { problem, dir: vec![0.0; problem.dim()], cand: vec![0.0; problem.dim()] }
    }

    /// One step from `x`, where the merit is `f0`: along the normalized
    /// negative finite-difference gradient to the first candidate `x + s·d`
    /// (projected into the box; `s` starts at `*step` and halves) whose merit
    /// is below `f0` by the search's margin. Moves `x` there, doubles `*step`
    /// from the accepted `s` and returns the merit — the last point `merit`
    /// priced. Returns `None`, `x` untouched, when `x` is stationary
    /// (gradient norm below `flat`, or not finite) or no candidate is
    /// accepted.
    pub fn step(
        &mut self,
        merit: &mut impl FnMut(&[f64]) -> f64,
        x: &mut Vec<f64>,
        f0: f64,
        flat: f64,
        step: &mut f64,
        search: &LineSearch,
    ) -> Option<f64> {
        numerical_gradient(&mut *merit, x, &mut self.dir);
        let norm = self.dir.iter().map(|g| g * g).sum::<f64>().sqrt();
        if !norm.is_finite() || norm < flat {
            return None;
        }
        self.dir.iter_mut().for_each(|g| *g = -*g / norm);
        let mut s = *step;
        for _ in 0..search.backtracks {
            for ((c, xj), d) in self.cand.iter_mut().zip(x.iter()).zip(&self.dir) {
                *c = xj + s * d;
            }
            self.problem.project(&mut self.cand);
            let fc = merit(&self.cand);
            if fc < f0 - search.min_decrease * f0.abs() {
                std::mem::swap(x, &mut self.cand);
                *step = (s * 2.0).min(search.max_step);
                return Some(fc);
            }
            s *= 0.5;
        }
        None
    }

    /// Up to `iters` steps from `x`, the first of unit length, each from a
    /// fresh pricing of the merit at `x`, which counts as stationary below a
    /// gradient norm of `tol · (1 + |merit|)`. Returns the iterations begun.
    pub fn descend(
        &mut self,
        mut merit: impl FnMut(&[f64]) -> f64,
        x: &mut Vec<f64>,
        iters: usize,
        tol: f64,
        search: &LineSearch,
    ) -> usize {
        let mut step = 1.0;
        for begun in 1..=iters {
            let f0 = merit(x);
            if self.step(&mut merit, x, f0, tol * (1.0 + f0.abs()), &mut step, search).is_none() {
                return begun;
            }
        }
        iters
    }
}
