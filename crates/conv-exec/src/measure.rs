//! Summary statistics for measured results.

/// Geometric mean of a slice of positive values (used for the speed-up
/// summaries of Sec. 10).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_properties() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
