//! Morello-style pricing of layout transforms and layout-dependent traffic.
//!
//! The paper's model assumes the kernel-packing pass (Sec. 6) and any
//! feature-map blocking are free, so the optimizer cannot trade a one-time
//! repack against cheaper loop-body traffic. This module closes that gap
//! with two terms of the cost shape used by Morello's CPU target:
//!
//! * **the transform price** — a repack reads every source element once and
//!   writes every destination element (padding included) once, each at the
//!   streaming discount ([`PREFETCH_DISCOUNT`]): `read × 0.5 + write × 0.5`
//!   elements, at the fill bandwidth of the boundary [`transform_level`]
//!   picks,
//! * **the loop-nest traffic factor** — a packed or channel-blocked tensor
//!   makes its vectorized access stride-1 and drops the non-contiguity
//!   surcharge ([`NONCONTIG_PENALTY`]) the default layout pays, at the price
//!   of its padding ([`traffic_factor`]).
//!
//! Traffic is counted in elements, as everywhere in the model (Sec. 2.2's
//! unit line size).
//!
//! A transform is priced **at the boundary it crosses**: the outermost
//! memory boundary the two copies of the tensor do not fit inside
//! ([`transform_level`]), scaled by that boundary's fill bandwidth — the
//! same units as the loop-nest bottleneck, so the two compose into one
//! objective (`total = bottleneck + Σ move costs`, the one-time packing
//! amortized across the whole nest).
//!
//! Every function here returns exactly zero work for the paper-default
//! layouts, and the model gates on [`LayoutConfig::is_default`] before
//! touching any of it, so the fixed-layout model stays bit-identical.

use conv_spec::{
    ConvShape, KernelLayout, LayoutConfig, MachineModel, PackedKernelLayout, TensorKind,
    TensorLayout, TilingLevel,
};
use serde::{Deserialize, Serialize};

/// Surcharge on the loop-nest traffic of a tensor walked with a non-unit
/// stride (the prefetcher cannot cover it), which a packed or blocked layout
/// removes ([`traffic_factor`]). Morello's CPU target uses the same ~10%.
pub const NONCONTIG_PENALTY: f64 = 1.1;

/// Discount on a transform's streamed reads and writes, which the hardware
/// prefetcher hides (Morello halves the cost of prefetched moves).
pub const PREFETCH_DISCOUNT: f64 = 0.5;

/// One layout transform's price: a row of the `Explain` cost breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoveCost {
    /// The tensor being repacked.
    pub tensor: TensorKind,
    /// Human-readable transform tag, e.g. `kcrs->packed8`.
    pub transform: String,
    /// The memory boundary the transform crosses (priced at this level's
    /// fill bandwidth).
    pub level: TilingLevel,
    /// Elements read from the source layout.
    pub read_elems: f64,
    /// Elements written to the destination layout (including padding).
    pub write_elems: f64,
    /// Discounted element traffic, `(read + write) × `[`PREFETCH_DISCOUNT`]
    /// (the wire keeps the name it had when traffic was line-rounded).
    pub lines_touched: f64,
    /// Bandwidth-scaled cost (cycles) — same unit as the loop bottleneck.
    pub cost: f64,
}

/// The memory boundary a transform of `total_elems` working-set elements
/// (source + destination copies) crosses: the fill boundary of the
/// innermost level that holds both copies, or the DRAM (L3-fill) boundary
/// when nothing does.
pub fn transform_level(machine: &MachineModel, total_elems: f64) -> TilingLevel {
    if total_elems <= machine.capacity(TilingLevel::L1) as f64 {
        TilingLevel::Register
    } else if total_elems <= machine.capacity(TilingLevel::L2) as f64 {
        TilingLevel::L1
    } else if total_elems <= machine.capacity(TilingLevel::L3) as f64 {
        TilingLevel::L2
    } else {
        TilingLevel::L3
    }
}

/// Price the one-time transform of `tensor` from its paper-default layout
/// into its layout under `layout`. Returns `None` when the tensor already
/// is in its default layout (no transform, no cost).
pub fn tensor_move_cost(
    shape: &ConvShape,
    machine: &MachineModel,
    layout: &LayoutConfig,
    tensor: TensorKind,
    threads: usize,
) -> Option<MoveCost> {
    let (transform, read_elems, write_elems) = match tensor {
        TensorKind::Kernel => match layout.kernel {
            KernelLayout::Kcrs => return None,
            KernelLayout::Packed { vec_len } => {
                // Read the KCRS kernel, write the packed buffer (with its
                // zero padding up to a multiple of the vector length).
                let src = shape.kernel_elems() as f64;
                let dst = PackedKernelLayout::new(shape, vec_len.max(1)).len() as f64;
                (format!("kcrs->packed{vec_len}"), src, dst)
            }
        },
        TensorKind::Input => match layout.input {
            TensorLayout::Nchw => return None,
            other => {
                let dims = (shape.n, shape.c, shape.input_h(), shape.input_w());
                let src = shape.input_elems() as f64;
                let dst = other.len(dims) as f64;
                (format!("nchw->{}", feature_tag(other)), src, dst)
            }
        },
        TensorKind::Output => match layout.output {
            TensorLayout::Nchw => return None,
            other => {
                // The blocked output is un-blocked back to NCHW once after
                // the nest.
                let dims = (shape.n, shape.k, shape.h, shape.w);
                let src = other.len(dims) as f64;
                let dst = shape.output_elems() as f64;
                (format!("{}->nchw", feature_tag(other)), src, dst)
            }
        },
    };
    let traffic = read_elems * PREFETCH_DISCOUNT + write_elems * PREFETCH_DISCOUNT;
    let level = transform_level(machine, read_elems + write_elems);
    Some(MoveCost {
        tensor,
        transform,
        level,
        read_elems,
        write_elems,
        lines_touched: traffic,
        cost: traffic / machine.fill_bandwidth_at(level, threads),
    })
}

/// All transform rows for a layout assignment (empty at the default).
pub fn layout_move_costs(
    shape: &ConvShape,
    machine: &MachineModel,
    layout: &LayoutConfig,
    threads: usize,
) -> Vec<MoveCost> {
    if layout.is_default() {
        return Vec::new();
    }
    TensorKind::ALL
        .iter()
        .filter_map(|&t| tensor_move_cost(shape, machine, layout, t, threads))
        .collect()
}

/// Total one-time transform cost (cycles) for a layout assignment — the term
/// added to the loop-nest bottleneck when the optimizer prices a layout.
pub fn layout_move_total(
    shape: &ConvShape,
    machine: &MachineModel,
    layout: &LayoutConfig,
    threads: usize,
) -> f64 {
    let costs = layout_move_costs(shape, machine, layout, threads);
    // An empty f64 sum is `-0.0`; keep the default-layout total a literal
    // positive zero.
    if costs.is_empty() {
        0.0
    } else {
        costs.iter().map(|m| m.cost).sum()
    }
}

fn feature_tag(layout: TensorLayout) -> String {
    match layout {
        TensorLayout::Nchw => "nchw".to_string(),
        TensorLayout::Nhwc => "nhwc".to_string(),
        TensorLayout::Nchwc { c_block } => format!("nchwc{c_block}"),
    }
}

/// Multiplier on a tensor's loop-nest traffic under its layout.
///
/// Exactly `1.0` for every default layout. A packed kernel inflates traffic
/// by its zero-padding (`ceil(K/V)·V / K`) but makes the vectorized
/// output-channel access stride-1, removing the non-contiguity surcharge
/// the strided KCRS walk pays (`1 / `[`NONCONTIG_PENALTY`]). Channel-blocked
/// feature maps get the same treatment on the channel axis.
pub fn traffic_factor(shape: &ConvShape, layout: &LayoutConfig, tensor: TensorKind) -> f64 {
    match tensor {
        TensorKind::Kernel => match layout.kernel {
            KernelLayout::Kcrs => 1.0,
            KernelLayout::Packed { vec_len } => {
                let v = vec_len.max(1);
                let pad = (shape.k.div_ceil(v) * v) as f64 / shape.k as f64;
                pad / NONCONTIG_PENALTY
            }
        },
        TensorKind::Input => feature_factor(layout.input, shape.c),
        TensorKind::Output => feature_factor(layout.output, shape.k),
    }
}

fn feature_factor(layout: TensorLayout, channels: usize) -> f64 {
    match layout {
        TensorLayout::Nchw | TensorLayout::Nhwc => 1.0,
        TensorLayout::Nchwc { c_block } => {
            let cb = c_block.max(1);
            let pad = (channels.div_ceil(cb) * cb) as f64 / channels as f64;
            pad / NONCONTIG_PENALTY
        }
    }
}

/// Multiplier on a tensor's cache footprint under its layout: padding only
/// (contiguity does not change residency). `1.0` at the defaults.
pub fn footprint_factor(shape: &ConvShape, layout: &LayoutConfig, tensor: TensorKind) -> f64 {
    match tensor {
        TensorKind::Kernel => match layout.kernel {
            KernelLayout::Kcrs => 1.0,
            KernelLayout::Packed { vec_len } => {
                let v = vec_len.max(1);
                (shape.k.div_ceil(v) * v) as f64 / shape.k as f64
            }
        },
        TensorKind::Input => feature_pad(layout.input, shape.c),
        TensorKind::Output => feature_pad(layout.output, shape.k),
    }
}

fn feature_pad(layout: TensorLayout, channels: usize) -> f64 {
    match layout {
        TensorLayout::Nchw | TensorLayout::Nhwc => 1.0,
        TensorLayout::Nchwc { c_block } => {
            let cb = c_block.max(1);
            (channels.div_ceil(cb) * cb) as f64 / channels as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::new(1, 32, 16, 3, 3, 28, 28, 1).unwrap()
    }

    fn machine() -> MachineModel {
        MachineModel::tiny_test_machine()
    }

    #[test]
    fn default_layout_moves_nothing() {
        let layout = LayoutConfig::default();
        assert!(layout_move_costs(&shape(), &machine(), &layout, 1).is_empty());
        assert_eq!(layout_move_total(&shape(), &machine(), &layout, 1), 0.0);
        for t in TensorKind::ALL {
            assert_eq!(traffic_factor(&shape(), &layout, t), 1.0);
            assert_eq!(footprint_factor(&shape(), &layout, t), 1.0);
        }
    }

    #[test]
    fn packed_kernel_prices_one_transform() {
        let layout = LayoutConfig::packed_kernel(8);
        let moves = layout_move_costs(&shape(), &machine(), &layout, 1);
        assert_eq!(moves.len(), 1);
        let m = &moves[0];
        assert_eq!(m.tensor, TensorKind::Kernel);
        assert_eq!(m.transform, "kcrs->packed8");
        assert_eq!(m.read_elems, shape().kernel_elems() as f64);
        assert_eq!(m.write_elems, PackedKernelLayout::new(&shape(), 8).len() as f64);
        assert!(m.cost > 0.0 && m.cost.is_finite());
        assert_eq!(layout_move_total(&shape(), &machine(), &layout, 1), m.cost);
    }

    #[test]
    fn blocked_layout_prices_all_three_tensors() {
        let layout = LayoutConfig::blocked(8);
        let moves = layout_move_costs(&shape(), &machine(), &layout, 1);
        assert_eq!(moves.len(), 3);
        for m in &moves {
            assert!(m.cost > 0.0 && m.cost.is_finite(), "{m:?}");
            assert!(m.lines_touched >= m.read_elems.min(m.write_elems), "{m:?}");
        }
        // The big feature map crosses a boundary at least as far out as the
        // small kernel's.
        let input = moves.iter().find(|m| m.tensor == TensorKind::Input).unwrap();
        let kernel = moves.iter().find(|m| m.tensor == TensorKind::Kernel).unwrap();
        assert!(input.level >= kernel.level);
    }

    #[test]
    fn transform_level_tracks_working_set() {
        let m = machine();
        assert_eq!(transform_level(&m, 1.0), TilingLevel::Register);
        assert_eq!(transform_level(&m, m.capacity(TilingLevel::L3) as f64 * 2.0), TilingLevel::L3);
        // Levels are ordered inner to outer as the working set grows.
        let mut prev = TilingLevel::Register;
        for elems in [1.0, 1e3, 1e5, 1e9] {
            let l = transform_level(&m, elems);
            assert!(l >= prev);
            prev = l;
        }
    }

    #[test]
    fn packed_traffic_factor_trades_padding_against_contiguity() {
        // K=32 divides by 8: no padding, pure contiguity win.
        let aligned = LayoutConfig::packed_kernel(8);
        let f = traffic_factor(&shape(), &aligned, TensorKind::Kernel);
        assert!((f - 1.0 / NONCONTIG_PENALTY).abs() < 1e-12);
        // K=10 pads to 16 under V=8: the padding can overwhelm the win.
        let odd = ConvShape::new(1, 10, 16, 3, 3, 28, 28, 1).unwrap();
        let f_odd = traffic_factor(&odd, &aligned, TensorKind::Kernel);
        assert!((f_odd - 1.6 / NONCONTIG_PENALTY).abs() < 1e-12);
        assert!(f_odd > 1.0, "heavy padding must cost more than default");
        // Footprint only sees the padding.
        assert_eq!(footprint_factor(&odd, &aligned, TensorKind::Kernel), 1.6);
    }
}
