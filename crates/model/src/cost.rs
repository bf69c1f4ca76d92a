//! Single-level data-movement cost expressions (Sec. 3 of the paper).
//!
//! Given a tile-loop permutation and parametric tile sizes, these functions
//! compute the volume of data moved between a cache of capacity `C` and the
//! next slower memory for one complete execution of the tiled loop nest,
//! under the paper's modeling assumptions:
//!
//! * the cache is fully associative with LRU replacement,
//! * only cold and capacity misses are modeled,
//! * tile sizes are large enough that the combined footprint of two adjacent
//!   tiles exceeds the cache capacity (so inter-tile reuse only survives for
//!   tensors whose accessed slice is *identical* between consecutive tiles —
//!   i.e. tensors for which every tile-loop index below the reuse point is
//!   absent).
//!
//! The derivation (Sec. 3.2) yields, for each tensor `A`, a product of
//! `N_j / T_j` over the tile loops at and outside the innermost *present*
//! iterator of `A`, times the tile footprint of `A`; the input tensor has an
//! additional partial-reuse form when the innermost present iterator is one
//! of `w, h, s, r` (sliding-window overlap).

use conv_spec::{ConvShape, LoopIndex, Permutation, TileSizes};
use serde::{Deserialize, Serialize};

/// Real-valued tile sizes (one per loop index, canonical order), as used by
/// the non-linear optimization formulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RealTiles {
    sizes: [f64; 7],
}

impl RealTiles {
    /// From an array in canonical `[n, k, c, r, s, h, w]` order.
    pub fn from_array(sizes: [f64; 7]) -> Self {
        RealTiles { sizes }
    }

    /// All ones.
    pub fn ones() -> Self {
        RealTiles { sizes: [1.0; 7] }
    }

    /// The problem extents as real tiles (an "untiled" vector).
    pub fn full(shape: &ConvShape) -> Self {
        let e = shape.extents();
        RealTiles { sizes: e.map(|v| v as f64) }
    }

    /// Tile size for a loop index.
    pub fn get(&self, idx: LoopIndex) -> f64 {
        self.sizes[idx.canonical_position()]
    }

    /// Set the tile size for a loop index.
    pub fn set(&mut self, idx: LoopIndex, value: f64) {
        self.sizes[idx.canonical_position()] = value;
    }

    /// Builder-style set.
    pub fn with(mut self, idx: LoopIndex, value: f64) -> Self {
        self.set(idx, value);
        self
    }

    /// As an array in canonical order.
    pub fn as_array(&self) -> [f64; 7] {
        self.sizes
    }

    /// Clamp each tile into `[1, extent]` for a given enclosing extent vector.
    pub fn clamped(&self, extents: &[f64; 7]) -> RealTiles {
        let mut out = *self;
        for (size, &extent) in out.sizes.iter_mut().zip(extents) {
            *size = size.clamp(1.0, extent.max(1.0));
        }
        out
    }
}

impl From<TileSizes> for RealTiles {
    fn from(t: TileSizes) -> Self {
        RealTiles { sizes: t.as_array().map(|v| v as f64) }
    }
}

impl From<&TileSizes> for RealTiles {
    fn from(t: &TileSizes) -> Self {
        RealTiles { sizes: t.as_array().map(|v| v as f64) }
    }
}

/// Options for the cost expressions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostOptions {
    /// Cache-line (or DRAM-transaction) size in elements. `1` reproduces the
    /// paper's element-granularity model; larger values enable the spatial-
    /// locality extension of Sec. 12, which replaces the tile size along each
    /// tensor's fastest-varying dimension by `ceil(T / line)` lines.
    pub line_elems: usize,
}

impl Default for CostOptions {
    fn default() -> Self {
        CostOptions { line_elems: 1 }
    }
}

/// Per-tensor data-movement volumes (in elements, or in lines when the
/// spatial-locality extension is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayVolumes {
    /// Volume for the input tensor.
    pub input: f64,
    /// Volume for the kernel tensor.
    pub kernel: f64,
    /// Volume for the output tensor (already includes the factor of 2 for
    /// read + write-back).
    pub output: f64,
}

impl ArrayVolumes {
    /// Total data movement.
    pub fn total(&self) -> f64 {
        self.input + self.kernel + self.output
    }
}

/// Number of elements of the (dilated) input window spanned by a tile of
/// `t` output positions combined with a tile of `k` kernel taps along one
/// spatial dimension: `(t-1)·stride + (k-1)·dilation + 1`.
///
/// For `dilation == 1` this is exactly the paper's `(T-1)·stride + K` (and
/// `T + K - 1` at stride 1); the rewrite is bit-identical for dense shapes
/// because subtracting and re-adding 1.0 is exact for every tile value ≥ 1.
fn dilated_window(t: f64, taps: f64, stride: f64, dilation: f64) -> f64 {
    // Compute the effective (dilated) tap span first: for dilation == 1 it is
    // exactly `taps` (x−1 and +1 are exact for x ≥ 1), so the final addition
    // sequence — (t−1)·stride + taps — is operation-for-operation the dense
    // expression and therefore bit-identical to the pre-generalization model.
    let eff_taps = (taps - 1.0) * dilation + 1.0;
    (t - 1.0) * stride + eff_taps
}

/// Continuous group-span factor: how many of the shape's channel groups a K
/// tile of (real-valued) size `tk` reaches. Dense shapes always yield exactly
/// `1.0`; grouped shapes yield `clamp(tk / (K/groups), 1, groups)`, so an
/// untiled K loop touches every group (and hence every input channel).
fn group_span(shape: &ConvShape, tk: f64) -> f64 {
    if shape.groups <= 1 {
        return 1.0;
    }
    let k_per_group = (shape.k_per_group().max(1)) as f64;
    (tk / k_per_group).clamp(1.0, shape.groups as f64)
}

/// Tile footprint of the input tensor (elements), honouring the stride,
/// dilation, and channel groups. `T_c` is the *per-group* reduction tile, so
/// the footprint is multiplied by the number of groups the K tile spans.
pub fn input_footprint(shape: &ConvShape, t: &RealTiles) -> f64 {
    let stride = shape.stride as f64;
    let dilation = shape.dilation as f64;
    let rows = dilated_window(t.get(LoopIndex::H), t.get(LoopIndex::R), stride, dilation);
    let cols = dilated_window(t.get(LoopIndex::W), t.get(LoopIndex::S), stride, dilation);
    let span = group_span(shape, t.get(LoopIndex::K));
    t.get(LoopIndex::N) * t.get(LoopIndex::C) * span * rows * cols
}

/// Tile footprint of the kernel tensor (elements).
pub fn kernel_footprint(t: &RealTiles) -> f64 {
    t.get(LoopIndex::K) * t.get(LoopIndex::C) * t.get(LoopIndex::R) * t.get(LoopIndex::S)
}

/// Tile footprint of the output tensor (elements).
pub fn output_footprint(t: &RealTiles) -> f64 {
    t.get(LoopIndex::N) * t.get(LoopIndex::K) * t.get(LoopIndex::H) * t.get(LoopIndex::W)
}

/// Combined tile footprint — the left-hand side of the capacity constraint
/// (Eq. 4).
pub fn total_footprint(shape: &ConvShape, t: &RealTiles) -> f64 {
    input_footprint(shape, t) + kernel_footprint(t) + output_footprint(t)
}

/// Spatial-locality scaling: number of cache lines spanned by a contiguous
/// run of `elems` elements along the fastest-varying dimension.
fn lines(elems: f64, line: usize) -> f64 {
    if line <= 1 || elems <= 0.0 {
        elems.max(0.0)
    } else {
        (elems / line as f64).ceil().max(1.0)
    }
}

/// Footprint of a tensor measured in cache lines (spatial-locality extension):
/// only the fastest-varying dimension is scaled by the line size.
fn output_footprint_lines(t: &RealTiles, line: usize) -> f64 {
    t.get(LoopIndex::N)
        * t.get(LoopIndex::K)
        * t.get(LoopIndex::H)
        * lines(t.get(LoopIndex::W), line)
}

fn kernel_footprint_lines(t: &RealTiles, line: usize) -> f64 {
    t.get(LoopIndex::K)
        * t.get(LoopIndex::C)
        * t.get(LoopIndex::R)
        * lines(t.get(LoopIndex::S), line)
}

fn input_footprint_lines(shape: &ConvShape, t: &RealTiles, line: usize) -> f64 {
    let stride = shape.stride as f64;
    let dilation = shape.dilation as f64;
    let rows = dilated_window(t.get(LoopIndex::H), t.get(LoopIndex::R), stride, dilation);
    let cols = dilated_window(t.get(LoopIndex::W), t.get(LoopIndex::S), stride, dilation);
    let span = group_span(shape, t.get(LoopIndex::K));
    t.get(LoopIndex::N) * t.get(LoopIndex::C) * span * rows * lines(cols, line)
}

/// Innermost (1-based from the inner end) position in `inner_to_outer` of a
/// loop index that is *present* in the index expressions of the given tensor.
fn reuse_position(inner_to_outer: &[LoopIndex; 7], present: impl Fn(LoopIndex) -> bool) -> usize {
    inner_to_outer
        .iter()
        .position(|&idx| present(idx))
        .map(|i| i + 1)
        .expect("every tensor has at least one present index")
}

/// Product of the per-loop trip counts `N_j / T_j` over all tile loops at
/// positions `>= from_pos` (counted from the innermost loop, 1-based),
/// multiplied innermost first.
fn trip_product(trips: &[f64; 7], from_pos: usize) -> f64 {
    let mut prod = 1.0;
    for trip in &trips[from_pos - 1..] {
        prod *= trip;
    }
    prod
}

/// What a tile-loop permutation decides about the volume expressions before
/// any tile size is known: the loop order seen from the innermost loop, and
/// per tensor the position of the innermost loop whose iterator indexes it
/// (the reuse point of Sec. 3.2). Searches evaluate one permutation at
/// hundreds of thousands of tile sizes, so this is worked out once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReusePlan {
    inner_to_outer: [LoopIndex; 7],
    r_out: usize,
    r_ker: usize,
    r_in: usize,
}

impl ReusePlan {
    /// The plan of one permutation.
    pub fn new(perm: &Permutation) -> Self {
        let inner_to_outer = perm.inner_to_outer();
        ReusePlan {
            inner_to_outer,
            r_out: reuse_position(&inner_to_outer, |i| i.present_in_output()),
            r_ker: reuse_position(&inner_to_outer, |i| i.present_in_kernel()),
            r_in: reuse_position(&inner_to_outer, |i| i.present_in_input()),
        }
    }

    /// Data-movement volume of one tiled execution of `extents` by `tiles`
    /// (clamped into the extents) under this plan's permutation.
    ///
    /// For single-level tiling the extents are the problem sizes `N_j`; for
    /// multi-level tiling the extents of level `l` are the tile sizes of
    /// level `l+1` (Sec. 5), and the caller multiplies by the number of outer
    /// tiles.
    pub fn volumes(
        &self,
        shape: &ConvShape,
        tiles: &RealTiles,
        extents: &RealTiles,
        options: &CostOptions,
    ) -> ArrayVolumes {
        let line = options.line_elems;
        let t = tiles.clamped(&extents.as_array());
        let stride = shape.stride as f64;
        let trips =
            self.inner_to_outer.map(|idx| (extents.get(idx) / t.get(idx).max(1e-12)).max(1.0));

        // ---- Output: always case 1 (no partial reuse possible). Factor 2 for
        // read + write-back.
        let out_vol = 2.0 * trip_product(&trips, self.r_out) * output_footprint_lines(&t, line);

        // ---- Kernel: always case 1.
        let ker_vol = trip_product(&trips, self.r_ker) * kernel_footprint_lines(&t, line);

        // ---- Input: case 1 when the innermost present iterator is n or c,
        // case 2 (partial sliding-window reuse) when it is w, h, s or r.
        // Dilation widens the sliding window: stepping the s (or r) loop by one
        // tile moves the input window by `dilation` columns (rows) per kernel
        // tap, so the per-step "new data" term scales by the dilation; stepping
        // the w (or h) loop still moves by `stride` per output position. Grouped
        // convolution multiplies every input term by the number of channel
        // groups the K tile spans (`group_span`, exactly 1.0 for dense shapes).
        let dilation = shape.dilation as f64;
        let r_in = self.r_in;
        let outer_prod = trip_product(&trips, r_in + 1);
        let tn = t.get(LoopIndex::N);
        let tc = t.get(LoopIndex::C) * group_span(shape, t.get(LoopIndex::K));
        let th = t.get(LoopIndex::H);
        let tw = t.get(LoopIndex::W);
        let tr = t.get(LoopIndex::R);
        let ts = t.get(LoopIndex::S);
        let nh = extents.get(LoopIndex::H);
        let nw = extents.get(LoopIndex::W);
        let nr = extents.get(LoopIndex::R);
        let ns = extents.get(LoopIndex::S);
        let rows_tile = dilated_window(th, tr, stride, dilation);
        let cols_tile = dilated_window(tw, ts, stride, dilation);
        let in_vol = match self.inner_to_outer[r_in - 1] {
            LoopIndex::N | LoopIndex::C => {
                trip_product(&trips, r_in) * input_footprint_lines(shape, &t, line)
            }
            LoopIndex::W => {
                // Per full execution of the wt loop the new columns are
                // stride*(Nw - Tw), plus the first tile's full window.
                let partial = tn * tc * rows_tile * lines(stride * (nw - tw).max(0.0), line);
                let first = tn * tc * rows_tile * lines(cols_tile, line);
                outer_prod * (partial + first)
            }
            LoopIndex::S => {
                let partial = tn * tc * rows_tile * lines(dilation * (ns - ts).max(0.0), line);
                let first = tn * tc * rows_tile * lines(cols_tile, line);
                outer_prod * (partial + first)
            }
            LoopIndex::H => {
                let partial = tn * tc * (stride * (nh - th).max(0.0)) * lines(cols_tile, line);
                let first = tn * tc * rows_tile * lines(cols_tile, line);
                outer_prod * (partial + first)
            }
            LoopIndex::R => {
                let partial = tn * tc * (dilation * (nr - tr).max(0.0)) * lines(cols_tile, line);
                let first = tn * tc * rows_tile * lines(cols_tile, line);
                outer_prod * (partial + first)
            }
            LoopIndex::K => unreachable!("k is never present in the input tensor"),
        };

        ArrayVolumes { input: in_vol, kernel: ker_vol, output: out_vol }
    }
}

/// Data-movement volume of a single-level tiled execution for an arbitrary
/// permutation, parametric in (real-valued) tile sizes.
///
/// This is the general form of Sec. 3.2; the closed-form expressions the
/// paper lists for the eight pruned classes (Sec. 4) are special cases and
/// are covered by unit tests below.
pub fn single_level_volume(
    shape: &ConvShape,
    perm: &Permutation,
    tiles: &RealTiles,
    options: &CostOptions,
) -> ArrayVolumes {
    single_level_volume_general(shape, perm, tiles, &RealTiles::full(shape), options)
}

/// The same expression with an explicit vector of enclosing extents (see
/// [`ReusePlan::volumes`], which this is for one call).
pub fn single_level_volume_general(
    shape: &ConvShape,
    perm: &Permutation,
    tiles: &RealTiles,
    extents: &RealTiles,
    options: &CostOptions,
) -> ArrayVolumes {
    ReusePlan::new(perm).volumes(shape, tiles, extents, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integer tile sizes by rounding, clamped to at least 1.
    fn to_tile_sizes(t: &RealTiles) -> TileSizes {
        TileSizes::from_array(t.as_array().map(|v| v.round().max(1.0) as usize))
    }

    fn shape() -> ConvShape {
        ConvShape::new(2, 16, 8, 3, 3, 12, 12, 1).unwrap()
    }

    fn tiles() -> RealTiles {
        RealTiles::from_array([1.0, 4.0, 2.0, 3.0, 3.0, 4.0, 6.0])
    }

    /// Closed form of Eq. 5 for class 1 ⟨{kt,ct,rt,st},{nt,ht},wt⟩.
    fn eq5_reference(s: &ConvShape, t: &RealTiles) -> f64 {
        let (nn, nk, nc, nr, ns, nh, nw) =
            (s.n as f64, s.k as f64, s.c as f64, s.r as f64, s.s as f64, s.h as f64, s.w as f64);
        let (tn, tk, tc, tr, ts, th, tw) = (
            t.get(LoopIndex::N),
            t.get(LoopIndex::K),
            t.get(LoopIndex::C),
            t.get(LoopIndex::R),
            t.get(LoopIndex::S),
            t.get(LoopIndex::H),
            t.get(LoopIndex::W),
        );
        (nk / tk)
            * (nc / tc)
            * (nr / tr)
            * (ns / ts)
            * (tk * tc * tr * ts
                + (nn / tn)
                    * (nh / th)
                    * (2.0 * (nw / tw) * tn * tk * th * tw
                        + tn * tc * (th + tr - 1.0) * (nw + ts - 1.0)))
    }

    #[test]
    fn matches_eq5_for_class1_representative() {
        let s = shape();
        let t = tiles();
        let perm = Permutation::parse("kcrsnhw").unwrap();
        let dv = single_level_volume(&s, &perm, &t, &CostOptions::default());
        let reference = eq5_reference(&s, &t);
        assert!(
            (dv.total() - reference).abs() / reference < 1e-12,
            "got {} expected {}",
            dv.total(),
            reference
        );
    }

    #[test]
    fn matches_innermost_st_expressions() {
        // Class 3 ⟨{nt,kt,ht,wt},{ct,rt},st⟩ — Sec. 4 "Innermost st".
        let s = shape();
        let t = tiles();
        let perm = Permutation::parse("nkhwcrs").unwrap();
        let dv = single_level_volume(&s, &perm, &t, &CostOptions::default());
        let (nn, nk, nc, nr, ns, nh, nw) =
            (s.n as f64, s.k as f64, s.c as f64, s.r as f64, s.s as f64, s.h as f64, s.w as f64);
        let (tn, tk, tc, tr, ts, th, tw) = (
            t.get(LoopIndex::N),
            t.get(LoopIndex::K),
            t.get(LoopIndex::C),
            t.get(LoopIndex::R),
            t.get(LoopIndex::S),
            t.get(LoopIndex::H),
            t.get(LoopIndex::W),
        );
        let trips_all =
            (nn / tn) * (nk / tk) * (nc / tc) * (nr / tr) * (ns / ts) * (nh / th) * (nw / tw);
        let ker = trips_all * tk * tc * tr * ts;
        let input = (nn / tn)
            * (nk / tk)
            * (nc / tc)
            * (nr / tr)
            * (nh / th)
            * (nw / tw)
            * tn
            * tc
            * (th + tr - 1.0)
            * (tw + ns - 1.0);
        let out = 2.0 * (nn / tn) * (nk / tk) * (nh / th) * (nw / tw) * tn * tk * th * tw;
        assert!((dv.kernel - ker).abs() / ker < 1e-12);
        assert!((dv.input - input).abs() / input < 1e-12, "in {} vs {}", dv.input, input);
        assert!((dv.output - out).abs() / out < 1e-12);
    }

    #[test]
    fn matches_innermost_kt_with_wt_second() {
        // ⟨{nt,ct,ht,rt,st}, wt, kt⟩ — the In term loses the Nk/Tk factor.
        let s = shape();
        let t = tiles();
        let perm = Permutation::parse("nchrswk").unwrap();
        let dv = single_level_volume(&s, &perm, &t, &CostOptions::default());
        let (nn, nk, nc, nr, ns, nh, nw) =
            (s.n as f64, s.k as f64, s.c as f64, s.r as f64, s.s as f64, s.h as f64, s.w as f64);
        let (tn, tk, tc, tr, ts, th, tw) = (
            t.get(LoopIndex::N),
            t.get(LoopIndex::K),
            t.get(LoopIndex::C),
            t.get(LoopIndex::R),
            t.get(LoopIndex::S),
            t.get(LoopIndex::H),
            t.get(LoopIndex::W),
        );
        let expected_in = (nn / tn)
            * (nc / tc)
            * (nr / tr)
            * (ns / ts)
            * (nh / th)
            * tn
            * tc
            * (th + tr - 1.0)
            * (nw + ts - 1.0);
        assert!((dv.input - expected_in).abs() / expected_in < 1e-12);
        let trips_all =
            (nn / tn) * (nk / tk) * (nc / tc) * (nr / tr) * (ns / ts) * (nh / th) * (nw / tw);
        assert!((dv.kernel - trips_all * tk * tc * tr * ts).abs() / dv.kernel < 1e-12);
        assert!((dv.output - 2.0 * trips_all * tn * tk * th * tw).abs() / dv.output < 1e-12);
    }

    #[test]
    fn untiled_execution_moves_each_tensor_once() {
        let s = shape();
        let t = RealTiles::full(&s);
        for perm_text in ["nkcrshw", "kcrsnhw", "whsrcnk"] {
            let perm = Permutation::parse(perm_text).unwrap();
            let dv = single_level_volume(&s, &perm, &t, &CostOptions::default());
            assert!((dv.kernel - s.kernel_elems() as f64).abs() < 1e-9);
            assert!((dv.output - 2.0 * s.output_elems() as f64).abs() < 1e-9);
            // Input footprint for the full problem equals the input size.
            assert!((dv.input - s.input_elems() as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn members_of_a_pruned_class_have_identical_cost() {
        // All 48 members of ⟨{kt,ct,rt,st},{nt,ht},wt⟩ share one cost expression.
        let s = shape();
        let t = tiles();
        let reference = single_level_volume(
            &s,
            &Permutation::parse("kcrsnhw").unwrap(),
            &t,
            &CostOptions::default(),
        )
        .total();
        for outer in ["kcrs", "srck", "crsk", "rskc"] {
            for mid in ["nh", "hn"] {
                let text: String = format!("{outer}{mid}w");
                let p = Permutation::parse(&text).unwrap();
                let dv = single_level_volume(&s, &p, &t, &CostOptions::default()).total();
                assert!(
                    (dv - reference).abs() / reference < 1e-12,
                    "permutation {text} deviates: {dv} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn nt_above_kt_never_beats_wt_above_kt() {
        // Sec. 4: ⟨..., nt, kt⟩ is dominated by ⟨..., wt, kt⟩ for any tile sizes.
        let s = shape();
        let opts = CostOptions::default();
        let wt_kt = Permutation::parse("nchrswk").unwrap();
        let nt_kt = Permutation::parse("wchrsnk").unwrap();
        for t in [
            tiles(),
            RealTiles::from_array([1.0, 8.0, 4.0, 1.0, 3.0, 6.0, 2.0]),
            RealTiles::from_array([2.0, 2.0, 8.0, 3.0, 1.0, 12.0, 3.0]),
        ] {
            let a = single_level_volume(&s, &wt_kt, &t, &opts).total();
            let b = single_level_volume(&s, &nt_kt, &t, &opts).total();
            assert!(a <= b + 1e-9, "wt,kt {a} should dominate nt,kt {b}");
        }
    }

    #[test]
    fn real_footprint_matches_the_integer_computation_in_conv_spec() {
        let s = shape();
        let t = tiles();
        let fp = total_footprint(&s, &t);
        let int_t = to_tile_sizes(&t);
        assert_eq!(int_t.footprint(&s) as f64, fp);
    }

    #[test]
    fn stride_two_increases_input_footprint_and_volume() {
        let s1 = ConvShape::new(1, 8, 8, 3, 3, 10, 10, 1).unwrap();
        let s2 = ConvShape::new(1, 8, 8, 3, 3, 10, 10, 2).unwrap();
        let t = RealTiles::from_array([1.0, 4.0, 4.0, 3.0, 3.0, 5.0, 5.0]);
        assert!(input_footprint(&s2, &t) > input_footprint(&s1, &t));
        let perm = Permutation::parse("kcrsnhw").unwrap();
        let v1 = single_level_volume(&s1, &perm, &t, &CostOptions::default()).input;
        let v2 = single_level_volume(&s2, &perm, &t, &CostOptions::default()).input;
        assert!(v2 > v1);
    }

    #[test]
    fn spatial_locality_extension_reduces_counted_volume() {
        let s = shape();
        let t = tiles();
        let perm = Permutation::parse("kcrsnhw").unwrap();
        let elems = single_level_volume(&s, &perm, &t, &CostOptions { line_elems: 1 }).total();
        let lines = single_level_volume(&s, &perm, &t, &CostOptions { line_elems: 16 }).total();
        assert!(
            lines < elems,
            "line-granular volume {lines} should be below element volume {elems}"
        );
    }

    #[test]
    fn bigger_tiles_reduce_volume_for_fixed_permutation() {
        let s = shape();
        let perm = Permutation::parse("kcrsnhw").unwrap();
        let small = RealTiles::from_array([1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
        let large = RealTiles::from_array([1.0, 8.0, 4.0, 3.0, 3.0, 6.0, 6.0]);
        let dv_small = single_level_volume(&s, &perm, &small, &CostOptions::default()).total();
        let dv_large = single_level_volume(&s, &perm, &large, &CostOptions::default()).total();
        assert!(dv_large < dv_small);
    }

    #[test]
    fn dilation_widens_input_footprint_and_volume() {
        let dense = ConvShape::new(1, 8, 8, 3, 3, 10, 10, 1).unwrap();
        let dilated = dense.with_dilation(2).unwrap();
        let t = RealTiles::from_array([1.0, 4.0, 4.0, 3.0, 3.0, 5.0, 5.0]);
        // Rows: dense (5-1)+3 = 7; dilated (5-1) + (3-1)*2+1 = 9.
        assert!(input_footprint(&dilated, &t) > input_footprint(&dense, &t));
        assert_eq!(input_footprint(&dilated, &t), 1.0 * 4.0 * 9.0 * 9.0);
        for perm_text in ["kcrsnhw", "nkhwcrs", "nchrswk"] {
            let perm = Permutation::parse(perm_text).unwrap();
            let dv_dense = single_level_volume(&dense, &perm, &t, &CostOptions::default());
            let dv_dil = single_level_volume(&dilated, &perm, &t, &CostOptions::default());
            assert!(
                dv_dil.input >= dv_dense.input,
                "{perm_text}: dilated input {} below dense {}",
                dv_dil.input,
                dv_dense.input
            );
            // Kernel and output volumes are unaffected by dilation.
            assert_eq!(dv_dil.kernel, dv_dense.kernel);
            assert_eq!(dv_dil.output, dv_dense.output);
        }
    }

    #[test]
    fn grouped_shapes_shrink_kernel_volume_but_keep_input_whole() {
        // Untiled execution must move each tensor exactly once, for grouped
        // and depthwise shapes too: the per-group C reduction shrinks the
        // kernel by 1/groups while the group-span factor restores the full
        // input channel count.
        for groups in [2, 4, 8] {
            let s = ConvShape::new_general(1, 8, 8, 3, 3, 10, 10, 1, 1, groups).unwrap();
            let t = RealTiles::full(&s);
            for perm_text in ["nkcrshw", "kcrsnhw", "whsrcnk"] {
                let perm = Permutation::parse(perm_text).unwrap();
                let dv = single_level_volume(&s, &perm, &t, &CostOptions::default());
                assert!((dv.kernel - s.kernel_elems() as f64).abs() < 1e-9, "groups {groups}");
                assert!((dv.input - s.input_elems() as f64).abs() < 1e-9, "groups {groups}");
                assert!((dv.output - 2.0 * s.output_elems() as f64).abs() < 1e-9);
            }
        }
        let dw = ConvShape::depthwise(16, 12, 3, 1);
        let t = RealTiles::full(&dw);
        let dv = single_level_volume(
            &dw,
            &Permutation::parse("kcrsnhw").unwrap(),
            &t,
            &CostOptions::default(),
        );
        assert!((dv.kernel - (16.0 * 9.0)).abs() < 1e-9);
        assert!((dv.input - dw.input_elems() as f64).abs() < 1e-9);
    }

    #[test]
    fn group_span_scales_partial_k_tiles() {
        let s = ConvShape::new_general(1, 16, 8, 3, 3, 10, 10, 1, 1, 4).unwrap();
        // K tile of one group: input footprint covers one channel band.
        let one = RealTiles::from_array([1.0, 4.0, 2.0, 3.0, 3.0, 5.0, 5.0]);
        let all = one.with(LoopIndex::K, 16.0);
        assert!((input_footprint(&s, &all) - 4.0 * input_footprint(&s, &one)).abs() < 1e-9);
        // The dense shape is insensitive to the K tile.
        let dense = ConvShape::new(1, 16, 8, 3, 3, 10, 10, 1).unwrap();
        assert_eq!(input_footprint(&dense, &one), input_footprint(&dense, &all));
    }

    #[test]
    fn dense_formulas_are_bit_identical_to_legacy_closed_forms() {
        // The generalized expressions must reproduce the pre-generalization
        // values exactly (not just approximately) when dilation == 1 and
        // groups == 1 — the property the schedule cache relies on.
        let s = ConvShape::new(2, 16, 8, 3, 3, 12, 12, 2).unwrap();
        for t in [
            tiles(),
            RealTiles::from_array([1.7, 4.2, 2.9, 3.0, 1.5, 4.8, 6.3]),
            RealTiles::from_array([2.0, 16.0, 8.0, 3.0, 3.0, 12.0, 12.0]),
        ] {
            let stride = s.stride as f64;
            let legacy_rows = (t.get(LoopIndex::H) - 1.0) * stride + t.get(LoopIndex::R);
            let legacy_cols = (t.get(LoopIndex::W) - 1.0) * stride + t.get(LoopIndex::S);
            let legacy_in = t.get(LoopIndex::N) * t.get(LoopIndex::C) * legacy_rows * legacy_cols;
            assert_eq!(input_footprint(&s, &t), legacy_in);
        }
    }

    #[test]
    fn real_tiles_conversions() {
        let t = TileSizes::from_array([1, 2, 3, 4, 5, 6, 7]);
        let r: RealTiles = (&t).into();
        assert_eq!(r.get(LoopIndex::W), 7.0);
        assert_eq!(to_tile_sizes(&r), t);
        let clamped = RealTiles::from_array([0.0, 99.0, 3.0, 4.0, 5.0, 6.0, 7.0])
            .clamped(&[4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]);
        assert_eq!(clamped.get(LoopIndex::N), 1.0);
        assert_eq!(clamped.get(LoopIndex::K), 4.0);
    }
}
