//! Order statistics the metrics are built from.

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` of the samples at or below it. `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The conventional median (mean of the two middle samples for an even
/// count). Windowed metrics are the median of their per-window values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The fastest of a few repetitions of the same fixed work: whatever a slower
/// repetition added came from outside the program.
pub fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `(max − min) ÷ median`: the run-to-run (or window-to-window) spread.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let m = median(&s);
    if m == 0.0 {
        return 0.0;
    }
    (s[s.len() - 1] - s[0]) / m.abs()
}

/// The driver's measure of run-to-run spread: the distance between the first
/// and third quartile, as Python's `statistics.quantiles(values, n=4)` gives
/// them, as a share of the median. Needs four values; with fewer, [`spread`].
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return spread(values);
    }
    let s = sorted(values.to_vec());
    let quartile = |i: usize| {
        let rank = i * (s.len() + 1);
        let j = (rank / 4).clamp(1, s.len() - 1);
        let delta = rank as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&s).abs()
}

/// Which windows of a run to believe. On a shared machine interference comes
/// and goes on the scale of seconds and only ever adds time, so the windows
/// with the lowest median latency are the ones that saw the program and not
/// the neighbours: the indices of the least-disturbed `share` of `medians`.
pub fn quietest(medians: &[f64], share: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..medians.len()).collect();
    order.sort_by(|&a, &b| medians[a].total_cmp(&medians[b]));
    order.truncate(((medians.len() as f64 * share).ceil() as usize).max(1));
    order
}

pub use conv_exec::measure::geometric_mean;

/// Spearman rank correlation and top-1 loss come from the repo's own
/// validation module, so the wall-clock check uses the same arithmetic as the
/// simulator-based Fig. 5 reproduction.
pub use mopt_core::validation::{spearman_correlation, top_k_loss};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        // 13 scripted requests: p50 is the 7th, p95 the slowest.
        let s13: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(percentile(&s13, 0.50), 7.0);
        assert_eq!(percentile(&s13, 0.95), 13.0);
        assert_eq!(percentile(&[4.0], 0.5), 4.0);
    }

    #[test]
    fn the_quietest_windows_are_the_ones_with_the_lowest_medians() {
        let medians = [120.0, 101.0, 180.0, 99.0, 140.0, 100.0, 135.0, 150.0, 160.0, 170.0];
        assert_eq!(quietest(&medians, 0.1), vec![3]);
        assert_eq!(quietest(&medians, 0.25), vec![3, 5, 1]);
        assert_eq!(quietest(&medians, 1.0).len(), 10);
        assert_eq!(quietest(&[7.0], 0.1), vec![0]);
    }

    #[test]
    fn quartile_spread_is_pythons() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]; median 13.5.
        let values = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert!((quartile_spread(&values) - 27.5 / 13.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 12, 20], n=4) == [10.25, 11.5, 18.0]
        assert!((quartile_spread(&[10.0, 11.0, 12.0, 20.0]) - 7.75 / 11.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[10.0, 12.0]), spread(&[10.0, 12.0]));
    }

    #[test]
    fn median_of_windows_ignores_one_bad_window() {
        // Five windows, one disturbed: the reported value is a clean window.
        assert_eq!(median(&[70.0, 71.0, 250.0, 69.0, 72.0]), 71.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert!((spread(&[70.0, 71.0, 250.0, 69.0, 72.0]) - 181.0 / 71.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0]), 0.0);
    }
}
