//! Element-granularity trace simulation of a multi-level tiled conv2d.
//!
//! The trace simulator drives a [`MemoryHierarchy`] with the sequence of
//! element accesses that the generated tiled code would perform, one register
//! tile at a time: within a register tile the output accumulators live in
//! registers (loaded once, stored once) while the distinct input and kernel
//! elements needed by the tile are streamed from the cache hierarchy. This is
//! exactly the behaviour of the paper's microkernel-based code (Sec. 6) and
//! produces the hardware-counter-like measurements used for model validation
//! (Sec. 9): register load/stores and L1/L2/L3 miss traffic.
//!
//! Element-level simulation costs time proportional to the data volume
//! touched, so it is intended for the scaled-down operators used in tests and
//! the validation experiments; full-size operators use the tile-granularity
//! simulator in [`crate::tilesim`].

use conv_spec::{layout::AddressMap, ConvShape, LoopIndex, TileConfig, TilingLevel};

use crate::counters::DataMovement;
use crate::hierarchy::MemoryHierarchy;
use crate::tilesim::{TileRegion, TileWalker};

/// Element-granularity simulator for one conv2d operator.
pub struct TraceSimulator {
    hierarchy: MemoryHierarchy,
    addresses: AddressMap,
    shape: ConvShape,
}

impl TraceSimulator {
    /// Create a simulator for a shape on a machine.
    pub fn new(shape: &ConvShape, machine: &conv_spec::MachineModel) -> Self {
        TraceSimulator {
            hierarchy: MemoryHierarchy::new(machine),
            addresses: AddressMap::new(shape),
            shape: *shape,
        }
    }

    /// Simulate the complete tiled execution described by `config` and return
    /// the per-level data movement.
    ///
    /// Register-level traffic is the number of elements moved between L1 and
    /// the register file: the distinct input and kernel elements of every
    /// register tile (loads) and the output elements of every register tile
    /// (one load and one store each).
    pub fn run(&mut self, config: &TileConfig) -> DataMovement {
        let config = config.normalized(&self.shape);
        let walker = TileWalker::new(&self.shape, &config);
        let shape = self.shape;
        // Collect regions first to avoid borrowing `self` inside the closure.
        let mut regions: Vec<TileRegion> = Vec::new();
        walker.walk(TilingLevel::Register, |r| {
            regions.push(*r);
            true
        });
        // Scratch buffers for the per-tile input row/column sets, reused
        // across the (potentially millions of) register tiles.
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for region in &regions {
            self.simulate_register_tile(region, &shape, &mut rows, &mut cols);
        }
        self.hierarchy.data_movement(self.shape.flops() as f64)
    }

    fn simulate_register_tile(
        &mut self,
        region: &TileRegion,
        shape: &ConvShape,
        rows: &mut Vec<usize>,
        cols: &mut Vec<usize>,
    ) {
        let n0 = region.start_of(LoopIndex::N);
        let nn = region.size_of(LoopIndex::N);
        let k0 = region.start_of(LoopIndex::K);
        let nk = region.size_of(LoopIndex::K);
        let c0 = region.start_of(LoopIndex::C);
        let nc = region.size_of(LoopIndex::C);
        let r0 = region.start_of(LoopIndex::R);
        let nr = region.size_of(LoopIndex::R);
        let s0 = region.start_of(LoopIndex::S);
        let ns = region.size_of(LoopIndex::S);
        let h0 = region.start_of(LoopIndex::H);
        let nh = region.size_of(LoopIndex::H);
        let w0 = region.start_of(LoopIndex::W);
        let nw = region.size_of(LoopIndex::W);

        let mut reg_loads = 0u64;
        let mut reg_stores = 0u64;

        // Output accumulators: loaded into registers at tile entry.
        for n in n0..n0 + nn {
            for k in k0..k0 + nk {
                for h in h0..h0 + nh {
                    for w in w0..w0 + nw {
                        let addr = self.addresses.output(n, k, h, w);
                        self.hierarchy.access(addr, false);
                        reg_loads += 1;
                    }
                }
            }
        }
        // Distinct kernel elements streamed through registers.
        for k in k0..k0 + nk {
            for c in c0..c0 + nc {
                for r in r0..r0 + nr {
                    for s in s0..s0 + ns {
                        let addr = self.addresses.kernel(k, c, r, s);
                        self.hierarchy.access(addr, false);
                        reg_loads += 1;
                    }
                }
            }
        }
        // Distinct input elements streamed through registers: for each
        // channel group the tile's K range reaches, the group's channel band
        // restricted to the tile's relative C range, over the exact set of
        // (dilated) input rows and columns the tile touches.
        fill_distinct_input_positions(rows, h0, nh, shape.stride, r0, nr, shape.dilation);
        fill_distinct_input_positions(cols, w0, nw, shape.stride, s0, ns, shape.dilation);
        let cpg = shape.reduction_c();
        for n in n0..n0 + nn {
            for g in shape.groups_spanned(k0, nk) {
                for c in c0..c0 + nc {
                    let c_abs = g * cpg + c;
                    for &hi in rows.iter() {
                        for &wi in cols.iter() {
                            let addr = self.addresses.input(n, c_abs, hi, wi);
                            self.hierarchy.access(addr, false);
                            reg_loads += 1;
                        }
                    }
                }
            }
        }
        // Output accumulators written back at tile exit.
        for n in n0..n0 + nn {
            for k in k0..k0 + nk {
                for h in h0..h0 + nh {
                    for w in w0..w0 + nw {
                        let addr = self.addresses.output(n, k, h, w);
                        self.hierarchy.access(addr, true);
                        reg_stores += 1;
                    }
                }
            }
        }
        self.hierarchy.add_register_traffic(reg_loads, reg_stores);
    }

    /// Access the underlying hierarchy (e.g. to read raw per-level hit/miss
    /// statistics after [`run`](Self::run)).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }
}

/// Fill `buf` with the sorted distinct input positions `{p·stride +
/// t·dilation}` touched by a tile with output positions `p ∈ [p0, p0+np)`
/// and kernel taps `t ∈ [t0, t0+nt)` along one spatial axis. For
/// `dilation == 1` this is the contiguous pre-generalization range
/// `[p0·stride + t0, … + (np-1)·stride + nt)`; for larger dilations the
/// touched rows can be non-contiguous, so the exact union is materialized
/// (sort + dedup in the caller-provided scratch buffer — no per-tile
/// allocation once the buffer has grown).
fn fill_distinct_input_positions(
    buf: &mut Vec<usize>,
    p0: usize,
    np: usize,
    stride: usize,
    t0: usize,
    nt: usize,
    dilation: usize,
) {
    buf.clear();
    if dilation == 1 {
        let start = p0 * stride + t0;
        let len = (np - 1) * stride + nt;
        buf.extend(start..start + len);
        return;
    }
    for p in p0..p0 + np {
        for t in t0..t0 + nt {
            buf.push(p * stride + t * dilation);
        }
    }
    buf.sort_unstable();
    buf.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::{MachineModel, Permutation, TileSizes};

    fn shape() -> ConvShape {
        ConvShape::new(1, 8, 4, 3, 3, 8, 8, 1).unwrap()
    }

    fn config(
        shape: &ConvShape,
        reg: [usize; 7],
        l1: [usize; 7],
        l2: [usize; 7],
        perm: &str,
    ) -> TileConfig {
        TileConfig::new(
            Permutation::parse(perm).unwrap(),
            [
                TileSizes::from_array(reg),
                TileSizes::from_array(l1),
                TileSizes::from_array(l2),
                TileSizes::full(shape),
            ],
            TileSizes::ones(),
        )
        .normalized(shape)
    }

    #[test]
    fn untiled_run_touches_each_element_at_least_once() {
        let s = shape();
        let m = MachineModel::tiny_test_machine();
        let cfg = TileConfig::untiled(&s);
        let mut sim = TraceSimulator::new(&s, &m);
        let dm = sim.run(&cfg);
        // L3 inbound >= cold footprint of all three tensors.
        let cold = (s.input_elems() + s.kernel_elems() + s.output_elems()) as f64;
        assert!(dm.volume(TilingLevel::L3) >= cold * 0.99);
        assert_eq!(dm.flops, s.flops() as f64);
    }

    #[test]
    fn register_traffic_counts_loads_and_stores() {
        let s = ConvShape::new(1, 2, 2, 1, 1, 2, 2, 1).unwrap();
        let m = MachineModel::tiny_test_machine();
        // Register tile = whole problem: Out loaded+stored once, In/Ker once.
        let cfg = TileConfig::untiled(&s);
        let mut sim = TraceSimulator::new(&s, &m);
        let dm = sim.run(&cfg);
        let reg = dm.level(TilingLevel::Register);
        assert_eq!(
            reg.inbound_elems,
            (s.output_elems() + s.kernel_elems() + s.input_elems()) as f64
        );
        assert_eq!(reg.outbound_elems, s.output_elems() as f64);
    }

    #[test]
    fn smaller_register_tiles_increase_register_traffic() {
        let s = shape();
        let m = MachineModel::tiny_test_machine();
        let big = config(
            &s,
            [1, 8, 4, 3, 3, 8, 8],
            [1, 8, 4, 3, 3, 8, 8],
            [1, 8, 4, 3, 3, 8, 8],
            "nkcrshw",
        );
        let small = config(
            &s,
            [1, 2, 1, 1, 1, 2, 2],
            [1, 8, 4, 3, 3, 8, 8],
            [1, 8, 4, 3, 3, 8, 8],
            "nkcrshw",
        );
        let dm_big = TraceSimulator::new(&s, &m).run(&big);
        let dm_small = TraceSimulator::new(&s, &m).run(&small);
        assert!(
            dm_small.volume(TilingLevel::Register) > dm_big.volume(TilingLevel::Register),
            "small tiles should move more data through registers"
        );
    }

    #[test]
    fn good_l1_tiling_reduces_l1_traffic_vs_bad_tiling() {
        // With the same register tile, an execution whose L1 tile fits the
        // (tiny, 256-element) L1 cache should produce less L2→L1 traffic than
        // one with no L1/L2 blocking, whose working set thrashes L1.
        let s = ConvShape::new(1, 16, 16, 3, 3, 12, 12, 1).unwrap();
        let m = MachineModel::tiny_test_machine();
        let reg = [1, 4, 1, 1, 1, 1, 4];
        let good = config(&s, reg, [1, 4, 2, 3, 3, 2, 4], [1, 8, 8, 3, 3, 6, 6], "kcrsnhw");
        let bad = config(&s, reg, s.extents(), s.extents(), "kcrsnhw");
        let dm_good = TraceSimulator::new(&s, &m).run(&good);
        let dm_bad = TraceSimulator::new(&s, &m).run(&bad);
        assert!(
            dm_good.volume(TilingLevel::L1) < dm_bad.volume(TilingLevel::L1),
            "blocked {} vs unblocked {}",
            dm_good.volume(TilingLevel::L1),
            dm_bad.volume(TilingLevel::L1)
        );
    }

    #[test]
    fn distinct_positions_match_dense_range_and_dilated_union() {
        let positions = |p0, np, stride, t0, nt, dil| {
            let mut buf = Vec::new();
            fill_distinct_input_positions(&mut buf, p0, np, stride, t0, nt, dil);
            buf
        };
        // Dense: contiguous range.
        assert_eq!(positions(1, 3, 1, 0, 3, 1), vec![1, 2, 3, 4, 5]);
        // Dilation 2, single output position: every other pixel.
        assert_eq!(positions(0, 1, 1, 0, 3, 2), vec![0, 2, 4]);
        // Dilation 2 with two adjacent outputs: union fills in the gaps.
        assert_eq!(positions(0, 2, 1, 0, 3, 2), vec![0, 1, 2, 3, 4, 5]);
        // Stride 2 + dilation 2: only even pixels.
        assert_eq!(positions(0, 2, 2, 0, 2, 2), vec![0, 2, 4]);
    }

    #[test]
    fn depthwise_register_traffic_counts_each_group_band_once() {
        let s = ConvShape::depthwise(4, 4, 1, 1);
        let m = MachineModel::tiny_test_machine();
        let cfg = TileConfig::untiled(&s);
        let mut sim = TraceSimulator::new(&s, &m);
        let dm = sim.run(&cfg);
        let reg = dm.level(TilingLevel::Register);
        // Whole problem in one register tile: In + Ker + Out loads, Out store.
        assert_eq!(
            reg.inbound_elems,
            (s.output_elems() + s.kernel_elems() + s.input_elems()) as f64
        );
        assert_eq!(reg.outbound_elems, s.output_elems() as f64);
    }

    #[test]
    fn dilated_trace_covers_cold_footprint() {
        let s = ConvShape::from_table1_dilated(4, 3, 12, 3, 1, 2);
        let m = MachineModel::tiny_test_machine();
        let cfg = TileConfig::untiled(&s);
        let mut sim = TraceSimulator::new(&s, &m);
        let dm = sim.run(&cfg);
        // Every kernel and output element is touched; the dilated input
        // window touches every input pixel of the full (untiled) problem.
        let cold = (s.input_elems() + s.kernel_elems() + s.output_elems()) as f64;
        assert!(dm.volume(TilingLevel::L3) >= cold * 0.99);
    }

    #[test]
    fn trace_and_tile_simulators_agree_on_l3_traffic() {
        // For a single-level tiling, the L3 (memory↔L3) traffic measured by
        // the exact LRU simulation should be close to the tile-granularity
        // estimate (they share the cold traffic; the tile estimate uses
        // adjacent-tile reuse only, so it is an upper bound).
        let s = ConvShape::new(1, 8, 8, 3, 3, 10, 10, 1).unwrap();
        let m = MachineModel::tiny_test_machine();
        let cfg = config(
            &s,
            [1, 4, 2, 1, 1, 2, 2],
            [1, 4, 4, 3, 3, 4, 4],
            [1, 8, 8, 3, 3, 6, 10],
            "kcrsnhw",
        );
        let dm_trace = TraceSimulator::new(&s, &m).run(&cfg);
        let dm_tile = crate::tilesim::TileTrafficSimulator::default().simulate(&s, &cfg);
        let t = dm_trace.volume(TilingLevel::L3);
        let e = dm_tile.volume(TilingLevel::L3);
        assert!(e + 1.0 >= t * 0.9, "tile estimate {e} should not be far below trace {t}");
    }
}
