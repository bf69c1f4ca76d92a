//! Fused depthwise + pointwise execution.
//!
//! The MobileNet inner pattern — a depthwise 3x3 stage followed by a
//! pointwise (1x1) projection — round-trips its intermediate tensor through
//! memory when the two convolutions run as separate schedules. This executor
//! fuses them: the depthwise stage is computed one *band* of output rows at a
//! time into a small scratch buffer, and the pointwise stage consumes the
//! band immediately, while it is still cache-resident. The full intermediate
//! tensor never exists.
//!
//! Correctness is exact, not approximate: within a band the per-element
//! accumulation order of both stages is identical to [`conv2d_naive`]'s, so
//! the fused output is **bit-for-bit equal** to running the two naive
//! convolutions sequentially (`assert_eq!` on the raw `f32` buffers, no
//! tolerance). Tests below enforce this on a randomized shape grid.

use conv_spec::ConvShape;

use crate::naive::{check_dims, conv2d_naive};
use crate::tensor::Tensor4;
use crate::ExecError;

/// A fused executor for one depthwise → pointwise pair.
#[derive(Debug, Clone)]
pub struct FusedDwPw {
    dw: ConvShape,
    pw: ConvShape,
    band_rows: usize,
    relu_intermediate: bool,
}

impl FusedDwPw {
    /// Create a fused executor.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] unless `dw` is a depthwise
    /// convolution and `pw` is a dense stride-1, dilation-1 pointwise
    /// convolution, or [`ExecError::ShapeMismatch`] when `pw`'s input tensor
    /// is not exactly `dw`'s output tensor.
    pub fn new(dw: ConvShape, pw: ConvShape) -> Result<Self, ExecError> {
        if !dw.is_depthwise() {
            return Err(ExecError::InvalidConfig(format!(
                "producer {dw} is not a depthwise convolution"
            )));
        }
        if !pw.is_pointwise() || pw.stride != 1 || pw.dilation != 1 || pw.groups != 1 {
            return Err(ExecError::InvalidConfig(format!(
                "consumer {pw} is not a dense stride-1 pointwise convolution"
            )));
        }
        if pw.input_dims() != dw.output_dims() {
            return Err(ExecError::ShapeMismatch(format!(
                "pointwise input {:?} does not match depthwise output {:?}",
                pw.input_dims(),
                dw.output_dims()
            )));
        }
        Ok(FusedDwPw { dw, pw, band_rows: 4, relu_intermediate: false })
    }

    /// Set the number of intermediate rows computed (and consumed) per band.
    /// Values are clamped to at least 1; the default is 4.
    pub fn with_band_rows(mut self, rows: usize) -> Self {
        self.band_rows = rows.max(1);
        self
    }

    /// Apply a ReLU to the intermediate tensor before the pointwise stage
    /// consumes it (the MobileNet pattern puts an activation between the
    /// depthwise and projection stages). ReLU is exact in `f32`, so the
    /// bit-for-bit guarantee against the sequential reference is unaffected.
    pub fn with_relu_intermediate(mut self, relu: bool) -> Self {
        self.relu_intermediate = relu;
        self
    }

    /// Run the fused pair. `input` feeds the depthwise stage; the result is
    /// the pointwise stage's output.
    ///
    /// # Panics
    ///
    /// Panics if the tensor dimensions do not match the shapes.
    pub fn run(&self, input: &Tensor4, dw_kernel: &Tensor4, pw_kernel: &Tensor4) -> Tensor4 {
        self.check_inputs(input, dw_kernel, pw_kernel);
        let bh = self.band_rows.min(self.dw.h);
        let mut band = Tensor4::zeros(1, self.dw.k, bh, self.dw.w);
        let mut out = Tensor4::zeros(self.pw.n, self.pw.k, self.pw.h, self.pw.w);
        for (n, h0, rows) in self.bands() {
            self.run_band(input, dw_kernel, pw_kernel, &mut band, &mut out, n, h0, rows);
        }
        out
    }

    /// Run the fused pair with the bands partitioned across `threads` scoped
    /// worker threads. Bands are whole units of the sequential band grid and
    /// every band's computation is the very code [`run`](FusedDwPw::run)
    /// executes, so each output row is produced by exactly one thread with an
    /// identical accumulation sequence — the result is **bit-for-bit equal**
    /// to the sequential fused run (and hence to the two naive convolutions).
    /// Thread counts beyond the number of bands are capped.
    pub fn run_parallel(
        &self,
        input: &Tensor4,
        dw_kernel: &Tensor4,
        pw_kernel: &Tensor4,
        threads: usize,
    ) -> Tensor4 {
        self.check_inputs(input, dw_kernel, pw_kernel);
        let bands = self.bands();
        let chunks = crate::tiled::split_range(bands.len(), threads.max(1));
        if chunks.len() <= 1 {
            return self.run(input, dw_kernel, pw_kernel);
        }
        let bh = self.band_rows.min(self.dw.h);
        let partials: Vec<Tensor4> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&(start, len)| {
                    let bands = &bands[start..start + len];
                    scope.spawn(move || {
                        let mut band = Tensor4::zeros(1, self.dw.k, bh, self.dw.w);
                        let mut out = Tensor4::zeros(self.pw.n, self.pw.k, self.pw.h, self.pw.w);
                        for &(n, h0, rows) in bands {
                            self.run_band(
                                input, dw_kernel, pw_kernel, &mut band, &mut out, n, h0, rows,
                            );
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
        // Merge: each chunk owns disjoint (n, output-row) bands.
        let mut out = Tensor4::zeros(self.pw.n, self.pw.k, self.pw.h, self.pw.w);
        for (&(start, len), partial) in chunks.iter().zip(&partials) {
            for &(n, h0, rows) in &bands[start..start + len] {
                for k in 0..self.pw.k {
                    for h in h0..h0 + rows {
                        for w in 0..self.pw.w {
                            *out.at_mut(n, k, h, w) = partial.at(n, k, h, w);
                        }
                    }
                }
            }
        }
        out
    }

    /// The sequential band grid: `(n, h0, rows)` triples in execution order.
    fn bands(&self) -> Vec<(usize, usize, usize)> {
        let bh = self.band_rows.min(self.dw.h);
        let mut bands = Vec::new();
        for n in 0..self.dw.n {
            let mut h0 = 0;
            while h0 < self.dw.h {
                let rows = bh.min(self.dw.h - h0);
                bands.push((n, h0, rows));
                h0 += rows;
            }
        }
        bands
    }

    fn check_inputs(&self, input: &Tensor4, dw_kernel: &Tensor4, pw_kernel: &Tensor4) {
        check_dims(&self.dw, input, dw_kernel);
        assert_eq!(
            pw_kernel.dims(),
            self.pw.kernel_dims(),
            "pointwise kernel dimensions do not match the shape"
        );
    }

    /// Compute one band: the depthwise stage for output rows
    /// `[h0, h0 + rows)` of batch `n` into `band`, then the pointwise stage
    /// consuming it while hot. This is the single definition both the
    /// sequential and the parallel paths execute, so their per-element
    /// accumulation sequences are identical by construction.
    #[allow(clippy::too_many_arguments)]
    fn run_band(
        &self,
        input: &Tensor4,
        dw_kernel: &Tensor4,
        pw_kernel: &Tensor4,
        band: &mut Tensor4,
        out: &mut Tensor4,
        n: usize,
        h0: usize,
        rows: usize,
    ) {
        let (dw, pw) = (&self.dw, &self.pw);
        let channels = dw.k;
        let (stride, dil) = (dw.stride, dw.dilation);
        // Depthwise stage for rows [h0, h0 + rows): channel-major with
        // r, s ascending — the exact accumulation order of `conv2d_naive`
        // restricted to this band (k == c, C/G == 1).
        band.fill_zero();
        for c in 0..channels {
            for r in 0..dw.r {
                for s in 0..dw.s {
                    let kv = dw_kernel.at(c, 0, r, s);
                    for h in 0..rows {
                        for w in 0..dw.w {
                            let x =
                                input.at(n, c, (h0 + h) * stride + r * dil, w * stride + s * dil);
                            *band.at_mut(0, c, h, w) += x * kv;
                        }
                    }
                }
            }
        }
        if self.relu_intermediate {
            for v in band.as_mut_slice() {
                *v = v.max(0.0);
            }
        }
        // Pointwise stage consumes the band while it is hot: for each output
        // element the reduction runs over c ascending, exactly as in
        // `conv2d_naive` (r == s == 1).
        for k in 0..pw.k {
            for c in 0..channels {
                let kv = pw_kernel.at(k, c, 0, 0);
                for h in 0..rows {
                    for w in 0..pw.w {
                        *out.at_mut(n, k, h0 + h, w) += band.at(0, c, h, w) * kv;
                    }
                }
            }
        }
    }

    /// The unfused reference: the two naive convolutions run sequentially
    /// with the intermediate tensor fully materialized. The fused [`run`]
    /// must equal this bit for bit.
    ///
    /// [`run`]: FusedDwPw::run
    pub fn run_sequential(
        &self,
        input: &Tensor4,
        dw_kernel: &Tensor4,
        pw_kernel: &Tensor4,
    ) -> Tensor4 {
        let mut intermediate = conv2d_naive(&self.dw, input, dw_kernel);
        if self.relu_intermediate {
            for v in intermediate.as_mut_slice() {
                *v = v.max(0.0);
            }
        }
        conv2d_naive(&self.pw, &intermediate, pw_kernel)
    }
}

/// Derive the pointwise shape that consumes `dw`'s output and projects it to
/// `k_out` channels — a convenience for building fused pairs from benchmark
/// depthwise stages.
///
/// # Panics
///
/// Panics if `dw` is not depthwise (its output channel count feeds the
/// pointwise reduction).
pub fn pointwise_consumer(dw: &ConvShape, k_out: usize) -> ConvShape {
    assert!(dw.is_depthwise(), "producer {dw} is not depthwise");
    ConvShape::new(dw.n, k_out, dw.k, 1, 1, dw.h, dw.w, 1).expect("valid pointwise consumer")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_pair(dw: &ConvShape, pw: &ConvShape, seed: u64) -> (Tensor4, Tensor4, Tensor4) {
        let (ni, ci, hi, wi) = dw.input_dims();
        let (dk, dc, dr, ds) = dw.kernel_dims();
        let (pk, pc, pr, ps) = pw.kernel_dims();
        (
            Tensor4::random(ni, ci, hi, wi, seed),
            Tensor4::random(dk, dc, dr, ds, seed + 1),
            Tensor4::random(pk, pc, pr, ps, seed + 2),
        )
    }

    #[test]
    fn fused_is_bit_identical_to_sequential_naive() {
        let dw = ConvShape::depthwise(6, 12, 3, 1);
        let pw = pointwise_consumer(&dw, 4);
        let fused = FusedDwPw::new(dw, pw).unwrap();
        let (input, dwk, pwk) = random_pair(&dw, &pw, 42);
        let got = fused.run(&input, &dwk, &pwk);
        let reference = fused.run_sequential(&input, &dwk, &pwk);
        // Bit-for-bit: raw f32 equality, no tolerance.
        assert_eq!(got.as_slice(), reference.as_slice());
    }

    #[test]
    fn randomized_shape_grid_is_bit_identical_for_every_band_size() {
        // Channels × spatial × kernel × stride × dilation grid, several K
        // projections and band sizes, all exact.
        let mut case = 0u64;
        for channels in [3, 8] {
            for hw in [9, 14] {
                for (rs, stride, dilation) in [(3, 1, 1), (3, 2, 1), (3, 1, 2), (1, 1, 1)] {
                    let eff = (rs - 1) * dilation + 1;
                    if eff > hw {
                        continue;
                    }
                    let mut dw = ConvShape::from_table1_dilated(
                        channels, channels, hw, rs, stride, dilation,
                    );
                    dw.groups = channels;
                    for k_out in [2, 5] {
                        let pw = pointwise_consumer(&dw, k_out);
                        let (input, dwk, pwk) = random_pair(&dw, &pw, 1000 + case);
                        case += 1;
                        let reference =
                            FusedDwPw::new(dw, pw).unwrap().run_sequential(&input, &dwk, &pwk);
                        for band in [1, 2, 3, 64] {
                            let fused = FusedDwPw::new(dw, pw).unwrap().with_band_rows(band);
                            let got = fused.run(&input, &dwk, &pwk);
                            assert_eq!(
                                got.as_slice(),
                                reference.as_slice(),
                                "shape {dw} -> {pw}, band {band}"
                            );
                        }
                    }
                }
            }
        }
        assert!(case >= 10, "the grid should exercise a real spread of shapes");
    }

    #[test]
    fn parallel_bands_are_bit_identical_for_every_thread_count() {
        // Thread counts from 1 to well beyond the band count (h = 12,
        // band_rows = 2 → 6 bands per batch), with and without the ReLU.
        for (n, relu) in [(1, false), (2, true)] {
            let dw = ConvShape::new_general(n, 6, 6, 3, 3, 12, 12, 1, 1, 6).unwrap();
            let pw = ConvShape::new(n, 4, 6, 1, 1, 12, 12, 1).unwrap();
            let fused =
                FusedDwPw::new(dw, pw).unwrap().with_band_rows(2).with_relu_intermediate(relu);
            let (input, dwk, pwk) = random_pair(&dw, &pw, 4000 + n as u64);
            let expected = fused.run(&input, &dwk, &pwk);
            for threads in [1, 2, 3, 5, 64] {
                let got = fused.run_parallel(&input, &dwk, &pwk, threads);
                assert_eq!(
                    got.as_slice(),
                    expected.as_slice(),
                    "n {n}, relu {relu}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn relu_intermediate_is_bit_identical_and_changes_the_result() {
        let dw = ConvShape::depthwise(6, 12, 3, 1);
        let pw = pointwise_consumer(&dw, 4);
        let (input, dwk, pwk) = random_pair(&dw, &pw, 4242);
        let plain = FusedDwPw::new(dw, pw).unwrap();
        let relu = FusedDwPw::new(dw, pw).unwrap().with_relu_intermediate(true);
        let got = relu.run(&input, &dwk, &pwk);
        assert_eq!(got.as_slice(), relu.run_sequential(&input, &dwk, &pwk).as_slice());
        // The activation really took effect (random intermediates go negative).
        assert_ne!(got.as_slice(), plain.run(&input, &dwk, &pwk).as_slice());
    }

    #[test]
    fn batched_input_is_bit_identical() {
        let dw = ConvShape::new_general(2, 4, 4, 3, 3, 8, 8, 1, 1, 4).unwrap();
        let pw = ConvShape::new(2, 3, 4, 1, 1, 8, 8, 1).unwrap();
        let fused = FusedDwPw::new(dw, pw).unwrap().with_band_rows(3);
        let (input, dwk, pwk) = random_pair(&dw, &pw, 77);
        let got = fused.run(&input, &dwk, &pwk);
        let reference = fused.run_sequential(&input, &dwk, &pwk);
        assert_eq!(got.as_slice(), reference.as_slice());
    }

    #[test]
    fn constructor_rejects_non_fusable_pairs() {
        let dw = ConvShape::depthwise(8, 12, 3, 1);
        let dense = ConvShape::new(1, 8, 8, 3, 3, 8, 8, 1).unwrap();
        // Dense producer.
        assert!(FusedDwPw::new(dense, pointwise_consumer(&dw, 4)).is_err());
        // Non-pointwise consumer.
        let conv3 = ConvShape::new(1, 4, 8, 3, 3, dw.h - 2, dw.w - 2, 1).unwrap();
        assert!(FusedDwPw::new(dw, conv3).is_err());
        // Spatial mismatch.
        let wrong = ConvShape::new(1, 4, 8, 1, 1, dw.h - 1, dw.w, 1).unwrap();
        assert!(matches!(FusedDwPw::new(dw, wrong), Err(ExecError::ShapeMismatch(_))));
        // Strided pointwise consumer.
        let strided = ConvShape::new(1, 4, 8, 1, 1, dw.h / 2, dw.w / 2, 2).unwrap();
        assert!(FusedDwPw::new(dw, strided).is_err());
    }
}
