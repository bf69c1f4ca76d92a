//! Execution-time measurement helpers.
//!
//! The paper measures each benchmark 50 times with a cache flush between
//! runs, discards the first run, and reports mean GFLOPS (Sec. 10 / A.5).
//! These helpers reproduce that protocol (with a configurable repetition
//! count so tests and CI stay fast).

use std::time::Instant;

/// Options for [`measure_gflops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureOptions {
    /// Number of timed repetitions.
    pub repetitions: usize,
    /// Number of untimed warm-up runs discarded before timing.
    pub warmup: usize,
    /// Size (in `f32` elements) of the buffer streamed between repetitions to
    /// evict the caches; `0` disables flushing.
    pub flush_elems: usize,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions { repetitions: 5, warmup: 1, flush_elems: 1 << 22 }
    }
}

impl MeasureOptions {
    /// A fast protocol for unit tests.
    pub fn quick() -> Self {
        MeasureOptions { repetitions: 2, warmup: 0, flush_elems: 0 }
    }
}

/// The result of a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Mean wall-clock seconds per repetition.
    pub mean_seconds: f64,
    /// Minimum observed seconds.
    pub min_seconds: f64,
    /// Maximum observed seconds.
    pub max_seconds: f64,
    /// Mean achieved GFLOPS.
    pub gflops: f64,
    /// Half-width of the 95% confidence interval of the per-run GFLOPS, as
    /// reported in Figures 7 and 8.
    pub ci95_gflops: f64,
    /// Number of timed repetitions.
    pub repetitions: usize,
}

/// Measure the mean GFLOPS of repeatedly running `work`, where each run
/// performs `flops` floating-point operations.
pub fn measure_gflops(flops: f64, options: &MeasureOptions, mut work: impl FnMut()) -> Measurement {
    let mut flush_buffer: Vec<f32> = vec![0.0; options.flush_elems];
    for _ in 0..options.warmup {
        work();
    }
    let reps = options.repetitions.max(1);
    let mut times = Vec::with_capacity(reps);
    for i in 0..reps {
        if options.flush_elems > 0 {
            flush_cache(&mut flush_buffer, i as f32);
        }
        let start = Instant::now();
        work();
        times.push(start.elapsed().as_secs_f64());
    }
    summarize(flops, &times)
}

/// Build a [`Measurement`] from raw per-run times.
pub fn summarize(flops: f64, times: &[f64]) -> Measurement {
    assert!(!times.is_empty(), "at least one timed repetition is required");
    let n = times.len() as f64;
    let mean = times.iter().sum::<f64>() / n;
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let gflops_runs: Vec<f64> = times.iter().map(|t| flops / t.max(1e-12) / 1e9).collect();
    let gmean = gflops_runs.iter().sum::<f64>() / n;
    let var = gflops_runs.iter().map(|g| (g - gmean).powi(2)).sum::<f64>() / n.max(1.0);
    let ci95 = 1.96 * (var / n).sqrt();
    Measurement {
        mean_seconds: mean,
        min_seconds: min,
        max_seconds: max,
        gflops: gmean,
        ci95_gflops: ci95,
        repetitions: times.len(),
    }
}

fn flush_cache(buffer: &mut [f32], salt: f32) {
    // A simple streaming pass with a data dependence so it is not optimized
    // away; large enough buffers evict every cache level.
    let mut acc = salt;
    for v in buffer.iter_mut() {
        *v += acc * 1e-7;
        acc += *v;
    }
    std::hint::black_box(acc);
}

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
    fn summarize_computes_mean_min_max() {
        let m = summarize(2e9, &[1.0, 2.0, 3.0]);
        assert!((m.mean_seconds - 2.0).abs() < 1e-12);
        assert_eq!(m.min_seconds, 1.0);
        assert_eq!(m.max_seconds, 3.0);
        assert_eq!(m.repetitions, 3);
        // GFLOPS per run: 2, 1, 0.666... → mean ≈ 1.222
        assert!((m.gflops - (2.0 + 1.0 + 2.0 / 3.0) / 3.0).abs() < 1e-9);
        assert!(m.ci95_gflops > 0.0);
    }

    #[test]
    fn measure_runs_work_expected_number_of_times() {
        let mut count = 0;
        let opts = MeasureOptions { repetitions: 3, warmup: 2, flush_elems: 0 };
        let m = measure_gflops(1e6, &opts, || {
            count += 1;
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(count, 5);
        assert_eq!(m.repetitions, 3);
        assert!(m.gflops > 0.0);
        assert!(m.mean_seconds >= 0.0);
    }

    #[test]
    fn geometric_mean_properties() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn protocols_differ() {
        assert!(MeasureOptions::default().repetitions > MeasureOptions::quick().repetitions);
        assert_eq!(MeasureOptions::default().warmup, 1);
    }

    #[test]
    #[should_panic(expected = "at least one timed repetition")]
    fn summarize_empty_panics() {
        let _ = summarize(1.0, &[]);
    }
}
