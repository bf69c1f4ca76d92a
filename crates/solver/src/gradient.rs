//! Numerical differentiation helpers.
//!
//! The tile-size objectives are smooth in the interior of the box, but their
//! closed forms are assembled programmatically from the cost model, so the
//! solvers use central finite differences rather than hand-coded gradients.

/// Central-difference gradient of `f` at `x`, written to `grad`.
///
/// The step is scaled relative to the magnitude of each coordinate so the
/// approximation stays accurate for the wide dynamic range of tile sizes
/// (1 to tens of thousands). `x` is stepped in place, one coordinate at a
/// time, and is back at its values when this returns — so every point `f`
/// sees differs from `x` in one coordinate, which an `f` that remembers the
/// last point it priced can exploit.
pub fn numerical_gradient(mut f: impl FnMut(&[f64]) -> f64, x: &mut [f64], grad: &mut [f64]) {
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
pub fn step_for(value: f64) -> f64 {
    let scale = value.abs().max(1.0);
    scale * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
