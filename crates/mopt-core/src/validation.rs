//! The two rank statistics of the model-validation methodology (Sec. 9,
//! Figures 5 and 6): how well one metric orders what another measures.
//!
//! * [`spearman_correlation`] — rank correlation between two metrics,
//! * [`top_k_loss`] — the top-1/top-2/top-5 loss-of-performance score of
//!   Fig. 5.
//!
//! The validation itself — sample configurations, predict with the model,
//! measure with the traffic simulator — lives with the experiments that run
//! it, in `mopt_bench`; the optimizer does not link its own validator.

/// Spearman rank correlation coefficient between two equally long slices.
/// Returns 0 for degenerate inputs (fewer than two points or zero variance).
pub fn spearman_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "inputs must have equal length");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    pearson(&ra, &rb)
}

fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).unwrap_or(std::cmp::Ordering::Equal));
    let mut r = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        // Average ranks over ties.
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            r[idx] = avg;
        }
        i = j + 1;
    }
    r
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Top-k loss of performance: `1 - best(measured perf of the k best-predicted
/// configurations) / best(measured perf overall)`. Lower is better; 0 means
/// the model's pick is the true best.
pub fn top_k_loss(predicted_cost: &[f64], measured_perf: &[f64], k: usize) -> f64 {
    assert_eq!(predicted_cost.len(), measured_perf.len(), "inputs must have equal length");
    assert!(k >= 1, "k must be at least 1");
    if predicted_cost.is_empty() {
        return 0.0;
    }
    let best_overall = measured_perf.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if best_overall <= 0.0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..predicted_cost.len()).collect();
    order.sort_by(|&i, &j| {
        predicted_cost[i].partial_cmp(&predicted_cost[j]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let best_of_top_k =
        order.iter().take(k).map(|&i| measured_perf[i]).fold(f64::NEG_INFINITY, f64::max);
    (1.0 - best_of_top_k / best_overall).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![10.0, 20.0, 30.0, 40.0];
        let c = vec![40.0, 30.0, 20.0, 10.0];
        assert!((spearman_correlation(&a, &b) - 1.0).abs() < 1e-12);
        assert!((spearman_correlation(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(spearman_correlation(&[1.0], &[2.0]), 0.0);
        assert_eq!(spearman_correlation(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = vec![1.0, 1.0, 2.0, 3.0];
        let b = vec![5.0, 5.0, 6.0, 7.0];
        let r = spearman_correlation(&a, &b);
        assert!(r > 0.99);
    }

    #[test]
    fn top_k_loss_basics() {
        // Predicted cost picks index 1 first; its measured perf is 80 vs best 100.
        let cost = vec![5.0, 1.0, 3.0];
        let perf = vec![100.0, 80.0, 90.0];
        assert!((top_k_loss(&cost, &perf, 1) - 0.2).abs() < 1e-12);
        // Top-2 adds index 2 (perf 90) → loss 0.1; top-3 includes the best → 0.
        assert!((top_k_loss(&cost, &perf, 2) - 0.1).abs() < 1e-12);
        assert_eq!(top_k_loss(&cost, &perf, 3), 0.0);
        assert_eq!(top_k_loss(&[], &[], 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn top_k_zero_panics() {
        let _ = top_k_loss(&[1.0], &[1.0], 0);
    }
}
