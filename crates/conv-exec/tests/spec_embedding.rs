//! `Spec::embedded_conv_shape` embeds a matmul and a pool as the convolution
//! the optimizer schedules. These two tests are the evidence: the embedded
//! convolution computes a plain GEMM, bit for bit, and a plain average pool.

use conv_exec::im2col::{blocked_gemm, conv2d_im2col, GemmBlocking};
use conv_exec::naive::conv2d_naive;
use conv_exec::Tensor4;
use conv_spec::{DType, PoolKind, Spec};

fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 - 1000.0) / 250.0
        })
        .collect()
}

#[test]
fn tiled_matmul_is_bit_identical_to_embedded_im2col_conv() {
    let (m, n, k) = (12, 30, 17);
    let spec = Spec::Matmul { m, n, k, dtype: DType::F32 };
    let shape = spec.embedded_conv_shape();
    let a = fill(m * k, 3);
    let b = fill(k * n, 4);
    // The kernel tensor (m, k, 1, 1) KCRS row-major IS A; the input
    // tensor (1, k, 1, n) NCHW IS B; the conv output (1, m, 1, n) IS C.
    let kernel = Tensor4::from_vec((m, k, 1, 1), a.clone());
    let input = Tensor4::from_vec((1, k, 1, n), b.clone());
    for blocking in [GemmBlocking::default(), GemmBlocking { mc: 5, kc: 3, nc: 7, mr: 2, nr: 3 }] {
        let via_conv = conv2d_im2col(&shape, &input, &kernel, &blocking, 1);
        let mut via_matmul = vec![0.0f32; m * n];
        blocked_gemm(m, k, n, &a, &b, &mut via_matmul, &blocking);
        // Bit-for-bit: same inner loop, same addition order.
        assert_eq!(via_conv.as_slice(), via_matmul.as_slice());
    }
}

/// Average pooling of an NCHW input, written out as the definition.
fn avg_pool(input: &Tensor4, h: usize, w: usize, window: usize, stride: usize) -> Tensor4 {
    let (n, channels, _, _) = input.dims();
    let mut out = Tensor4::zeros(n, channels, h, w);
    for nb in 0..n {
        for c in 0..channels {
            for oh in 0..h {
                for ow in 0..w {
                    let mut acc = 0.0f32;
                    for r in 0..window {
                        for s in 0..window {
                            acc += input.at(nb, c, oh * stride + r, ow * stride + s);
                        }
                    }
                    *out.at_mut(nb, c, oh, ow) = acc / (window * window) as f32;
                }
            }
        }
    }
    out
}

#[test]
fn avg_pool_equals_uniform_depthwise_conv() {
    // The pool embedding claims the depthwise-conv access pattern; for
    // avg pooling the arithmetic agrees too (uniform 1/win^2 kernel).
    let (h, w, window, stride) = (6, 6, 2, 2);
    let spec = Spec::Pool { kind: PoolKind::Avg, n: 1, channels: 4, h, w, window, stride };
    let shape = spec.embedded_conv_shape();
    let (ni, ci, hi, wi) = shape.input_dims();
    assert_eq!((hi, wi), ((h - 1) * stride + window, (w - 1) * stride + window));
    let input = Tensor4::random(ni, ci, hi, wi, 17);
    let kernel = Tensor4::from_vec((4, 1, 2, 2), vec![0.25f32; 16]);
    let via_conv = conv2d_naive(&shape, &input, &kernel);
    assert!(via_conv.allclose(&avg_pool(&input, h, w, window, stride), 1e-5));
}
