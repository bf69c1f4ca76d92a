//! Numerical differentiation helpers.
//!
//! The tile-size objectives are smooth in the interior of the box, but their
//! closed forms are assembled programmatically from the cost model, so the
//! solvers use central finite differences rather than hand-coded gradients.

/// Central-difference gradient of `f` at `x`.
///
/// The step is scaled relative to the magnitude of each coordinate so the
/// approximation stays accurate for the wide dynamic range of tile sizes
/// (1 to tens of thousands).
pub fn numerical_gradient(f: &dyn Fn(&[f64]) -> f64, x: &[f64]) -> Vec<f64> {
    let mut grad = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for j in 0..x.len() {
        let h = step_for(x[j]);
        let orig = xp[j];
        xp[j] = orig + h;
        let fp = f(&xp);
        xp[j] = orig - h;
        let fm = f(&xp);
        xp[j] = orig;
        grad[j] = (fp - fm) / (2.0 * h);
    }
    grad
}

/// The relative finite-difference step for a coordinate value.
pub fn step_for(value: f64) -> f64 {
    let scale = value.abs().max(1.0);
    scale * 1e-6
}

/// Euclidean norm of a vector.
pub fn norm(v: &[f64]) -> f64 {
    v.iter().map(|a| a * a).sum::<f64>().sqrt()
}

/// `a - b` element-wise.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// `a + s * d` element-wise.
pub fn axpy(a: &[f64], s: f64, d: &[f64]) -> Vec<f64> {
    a.iter().zip(d.iter()).map(|(x, y)| x + s * y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_of_quadratic() {
        let f = |x: &[f64]| x[0] * x[0] + 3.0 * x[1];
        let g = numerical_gradient(&f, &[2.0, 5.0]);
        assert!((g[0] - 4.0).abs() < 1e-4);
        assert!((g[1] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn gradient_of_reciprocal_large_scale() {
        // d/dT (N/T) = -N/T^2 — typical term of the tile cost expressions.
        let n = 1.0e6;
        let f = move |x: &[f64]| n / x[0];
        let g = numerical_gradient(&f, &[250.0]);
        assert!((g[0] + n / 250.0_f64.powi(2)).abs() / (n / 250.0_f64.powi(2)) < 1e-4);
    }

    #[test]
    fn vector_helpers() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(sub(&[3.0, 4.0], &[1.0, 1.0]), vec![2.0, 3.0]);
        assert_eq!(axpy(&[1.0, 2.0], 2.0, &[1.0, -1.0]), vec![3.0, 0.0]);
        assert!(step_for(0.0) > 0.0 && step_for(1e6) > step_for(1.0));
    }
}
