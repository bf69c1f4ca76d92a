//! Canonical convolution specs: cost-preserving normalization of
//! [`ConvShape`] for the persistent schedule database.
//!
//! Two raw shapes that the analytical cost model cannot distinguish — or
//! whose optimized schedules transfer between each other by a mechanical
//! rewrite — should share one database entry. This module defines that
//! equivalence and the rewrite:
//!
//! 1. **R/S orientation.** The model is symmetric under jointly transposing
//!    the kernel window and the output plane (`r ↔ s` together with
//!    `h ↔ w`): every cost expression treats the two spatial axes
//!    identically once the permutation letters are swapped along. The
//!    canonical form orients the window so `r ≤ s` (ties broken by
//!    `h ≤ w`).
//! 2. **Dilation default.** A `1×1` window has no spatial reach, so any
//!    dilation is observationally equal to `dilation == 1`; pointwise specs
//!    normalize it away.
//! 3. **Divisor-equivalent padding of free dims.** The free output extents
//!    `h` and `w` are rounded up to the next multiple of
//!    [`PAD_QUANTUM`] (when larger than it). Schedules solved for the
//!    padded extents clamp down to any raw extent in the same bucket via
//!    [`TileConfig::normalized`], so nearby sizes (e.g. `h = 57` and
//!    `h = 63`) resolve to one canonical entry whose top-k schedules are
//!    re-priced exactly at the raw shape on lookup.
//!
//! [`canonicalize`] returns the canonical spec plus a [`SpecTransform`]
//! that rewrites schedules in both directions:
//! `transform.denormalize_config(canonical_schedule)` is a valid schedule
//! for the raw shape, and the round-trip is property-tested (execution of
//! the denormalized schedule is bit-for-bit equal to the raw reference).

use serde::{Deserialize, Serialize};

use crate::shape::{ConvShape, LoopIndex, Permutation};
use crate::spec::Spec;
use crate::tiling::{TileConfig, TileSizes, TilingLevel};

/// Free output extents (`h`, `w`) are rounded up to the next multiple of
/// this quantum (when larger than it) so nearby sizes share one canonical
/// entry.
pub const PAD_QUANTUM: usize = 8;

/// A shape normalized under the database's cost-preserving symmetries.
///
/// The canonical shape is itself a valid [`ConvShape`] (schedules are
/// solved for it directly); its [`fingerprint`](CanonicalSpec::fingerprint)
/// keys the persistent database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CanonicalSpec {
    /// The normalized shape (`r ≤ s` orientation, default dilation on
    /// pointwise windows, padded free dims).
    pub shape: ConvShape,
}

impl CanonicalSpec {
    /// Stable FNV-1a fingerprint of the canonical shape — the database key.
    pub fn fingerprint(&self) -> u64 {
        self.shape.fingerprint()
    }
}

impl std::fmt::Display for CanonicalSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "canonical[{}]", self.shape)
    }
}

/// The invertible rewrite between a raw shape and its canonical form.
///
/// Padding needs no coordinate change (tiles clamp), so the transform
/// records only the spatial transpose plus the raw shape to clamp against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecTransform {
    /// Whether the canonical form swapped `r ↔ s` and `h ↔ w`.
    pub transposed: bool,
    /// Whether the canonical form swapped the `K` and `W` loop extents.
    ///
    /// This is the matmul `m ↔ n` transpose symmetry: under the conv
    /// embedding (`K = m`, `W = n`, see [`Spec::embedded_conv_shape`]),
    /// `Cᵀ = Bᵀ·Aᵀ` swaps the `K` and `W` extents while the cost model —
    /// which treats both as free output dimensions whose tensors it prices
    /// by footprint, not by role — is invariant. Never set for conv specs:
    /// a conv's `K` (channel) and `W` (spatial) loops index *different
    /// tensors* and are not interchangeable.
    pub swap_kw: bool,
    /// The raw shape the transform denormalizes back to.
    pub raw: ConvShape,
}

/// Normalize a shape under the canonical symmetries, returning the
/// canonical spec and the transform back to the raw shape.
pub fn canonicalize(shape: &ConvShape) -> (CanonicalSpec, SpecTransform) {
    let mut canon = *shape;
    // (2) Pointwise windows cannot reach; dilation is meaningless.
    if canon.r == 1 && canon.s == 1 {
        canon.dilation = 1;
    }
    // (1) Orient the window: r ≤ s, ties broken toward h ≤ w.
    let transposed = canon.r > canon.s || (canon.r == canon.s && canon.h > canon.w);
    if transposed {
        std::mem::swap(&mut canon.r, &mut canon.s);
        std::mem::swap(&mut canon.h, &mut canon.w);
    }
    // (3) Pad the free output extents up to the quantum.
    canon.h = pad_up(canon.h);
    canon.w = pad_up(canon.w);
    (CanonicalSpec { shape: canon }, SpecTransform { transposed, swap_kw: false, raw: *shape })
}

/// Normalize a generalized [`Spec`] under the canonical symmetries.
///
/// Every spec canonicalizes *through its conv embedding*, so the database
/// key space stays one space of conv shapes:
///
/// * `Spec::Conv` delegates to [`canonicalize`] — bit-identical canonical
///   fingerprints to the pre-spec-IR database.
/// * `Spec::Matmul` first orients `m ≤ n` (the `m ↔ n` transpose symmetry:
///   `C = A·B` and `Cᵀ = Bᵀ·Aᵀ` cost the same, so both orientations share
///   one record), recording the swap as [`SpecTransform::swap_kw`], then
///   canonicalizes the oriented embedding (which pads `w = n` into the
///   divisor buckets, exactly like a conv's free spatial extent).
/// * `Spec::Pool` canonicalizes its embedding directly.
///
/// The returned transform denormalizes canonical schedules back to the
/// spec's *raw* embedded shape, so stored entries re-rank for either matmul
/// orientation.
pub fn canonicalize_spec(spec: &Spec) -> (CanonicalSpec, SpecTransform) {
    match *spec {
        Spec::Conv(shape) => canonicalize(&shape),
        Spec::Matmul { m, n, k, dtype } => {
            let raw = spec.embedded_conv_shape();
            let oriented =
                Spec::Matmul { m: m.min(n), n: m.max(n), k, dtype }.embedded_conv_shape();
            let (canonical, inner) = canonicalize(&oriented);
            debug_assert!(!inner.transposed, "h = 1 <= w never transposes");
            (canonical, SpecTransform { transposed: inner.transposed, swap_kw: m > n, raw })
        }
        Spec::Pool { .. } => canonicalize(&spec.embedded_conv_shape()),
    }
}

fn pad_up(extent: usize) -> usize {
    if extent <= PAD_QUANTUM {
        extent
    } else {
        extent.div_ceil(PAD_QUANTUM) * PAD_QUANTUM
    }
}

/// Swap the `r ↔ s` and `h ↔ w` entries of a tile-size vector.
fn transpose_tiles(tiles: &TileSizes) -> TileSizes {
    tiles
        .with(LoopIndex::R, tiles.get(LoopIndex::S))
        .with(LoopIndex::S, tiles.get(LoopIndex::R))
        .with(LoopIndex::H, tiles.get(LoopIndex::W))
        .with(LoopIndex::W, tiles.get(LoopIndex::H))
}

/// Swap the `r ↔ s` and `h ↔ w` letters of a permutation in place.
fn transpose_permutation(permutation: &Permutation) -> Permutation {
    let mut order = *permutation.outer_to_inner();
    for idx in &mut order {
        *idx = match *idx {
            LoopIndex::R => LoopIndex::S,
            LoopIndex::S => LoopIndex::R,
            LoopIndex::H => LoopIndex::W,
            LoopIndex::W => LoopIndex::H,
            other => other,
        };
    }
    Permutation::new(order).expect("transposing a permutation preserves validity")
}

/// Apply the spatial transpose to a whole configuration (all four tile
/// levels, the parallel factors, and the permutation letters). Involutive.
fn transpose_config(config: &TileConfig) -> TileConfig {
    let mut tiles = config.tiles;
    for level in TilingLevel::ALL {
        tiles[level.ordinal()] = transpose_tiles(config.level(level));
    }
    TileConfig::new(
        transpose_permutation(&config.permutation),
        tiles,
        transpose_tiles(&config.parallel),
    )
}

/// Swap the `k ↔ w` entries of a tile-size vector (matmul `m ↔ n`).
fn swap_kw_tiles(tiles: &TileSizes) -> TileSizes {
    tiles.with(LoopIndex::K, tiles.get(LoopIndex::W)).with(LoopIndex::W, tiles.get(LoopIndex::K))
}

/// Swap the `k ↔ w` letters of a permutation.
fn swap_kw_permutation(permutation: &Permutation) -> Permutation {
    let mut order = *permutation.outer_to_inner();
    for idx in &mut order {
        *idx = match *idx {
            LoopIndex::K => LoopIndex::W,
            LoopIndex::W => LoopIndex::K,
            other => other,
        };
    }
    Permutation::new(order).expect("swapping two letters preserves validity")
}

/// Apply the `k ↔ w` swap to a whole configuration. Involutive.
fn swap_kw_config(config: &TileConfig) -> TileConfig {
    let mut tiles = config.tiles;
    for level in TilingLevel::ALL {
        tiles[level.ordinal()] = swap_kw_tiles(config.level(level));
    }
    TileConfig::new(
        swap_kw_permutation(&config.permutation),
        tiles,
        swap_kw_tiles(&config.parallel),
    )
}

impl SpecTransform {
    /// Rewrite a schedule for the raw shape into canonical coordinates.
    ///
    /// Raw extents never exceed the canonical (padded) extents, so the
    /// rewritten tiles are valid for the canonical shape as-is. (For a
    /// `swap_kw` transform the raw `K`/`W` extents are the canonical
    /// `W`/`K` extents — before padding — so the same holds.)
    pub fn canonicalize_config(&self, config: &TileConfig) -> TileConfig {
        let oriented = if self.swap_kw { swap_kw_config(config) } else { config.clone() };
        if self.transposed {
            transpose_config(&oriented)
        } else {
            oriented
        }
    }

    /// Rewrite a schedule solved for the canonical shape back into a valid
    /// schedule for the raw shape: undo the transpose and the `k ↔ w`
    /// orientation swap, then clamp padded tile extents down to the raw
    /// extents.
    pub fn denormalize_config(&self, config: &TileConfig) -> TileConfig {
        let oriented = if self.transposed { transpose_config(config) } else { config.clone() };
        let unswapped = if self.swap_kw { swap_kw_config(&oriented) } else { oriented };
        unswapped.normalized(&self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::NUM_TILING_LEVELS;

    fn raw_asymmetric() -> ConvShape {
        ConvShape::new(1, 32, 16, 5, 3, 10, 14, 1).unwrap()
    }

    #[test]
    fn canonical_form_orients_the_window() {
        let (canon, transform) = canonicalize(&raw_asymmetric());
        assert!(transform.transposed);
        assert_eq!((canon.shape.r, canon.shape.s), (3, 5));
        // h and w swapped (14, 10) then padded up to the quantum.
        assert_eq!((canon.shape.h, canon.shape.w), (16, 16));
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let (canon, _) = canonicalize(&raw_asymmetric());
        let (again, transform) = canonicalize(&canon.shape);
        assert!(!transform.transposed);
        assert_eq!(canon, again);
    }

    #[test]
    fn transpose_pair_shares_one_canonical_entry() {
        let a = ConvShape::new(1, 32, 16, 3, 5, 14, 10, 1).unwrap();
        let b = ConvShape::new(1, 32, 16, 5, 3, 10, 14, 1).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let (ca, _) = canonicalize(&a);
        let (cb, _) = canonicalize(&b);
        assert_eq!(ca, cb);
        assert_eq!(ca.fingerprint(), cb.fingerprint());
    }

    #[test]
    fn pointwise_dilation_normalizes_away() {
        let base = ConvShape::new(1, 32, 16, 1, 1, 14, 14, 1).unwrap();
        let dilated = base.with_dilation(3).unwrap();
        let (ca, _) = canonicalize(&base);
        let (cb, _) = canonicalize(&dilated);
        assert_eq!(ca, cb);
    }

    #[test]
    fn padding_buckets_nearby_free_dims() {
        let a = ConvShape::new(1, 32, 16, 3, 3, 57, 57, 1).unwrap();
        let b = ConvShape::new(1, 32, 16, 3, 3, 63, 63, 1).unwrap();
        let (ca, _) = canonicalize(&a);
        let (cb, _) = canonicalize(&b);
        assert_eq!(ca, cb);
        assert_eq!((ca.shape.h, ca.shape.w), (64, 64));
        // Small extents are left alone so tiny shapes stay exact.
        let small = ConvShape::new(1, 4, 3, 3, 3, 7, 7, 1).unwrap();
        assert_eq!(canonicalize(&small).0.shape.h, 7);
    }

    #[test]
    fn config_round_trip_is_valid_on_the_raw_shape() {
        let raw = raw_asymmetric();
        let (canon, transform) = canonicalize(&raw);
        // A schedule "solved" for the canonical shape.
        let mut cfg = TileConfig::untiled(&canon.shape);
        cfg.permutation = Permutation::parse("kcsrnwh").unwrap();
        cfg.tiles[0] = TileSizes::from_array([1, 8, 1, 1, 1, 1, 4]);
        cfg.tiles[1] = TileSizes::from_array([1, 16, 4, 3, 5, 4, 8]);
        cfg.tiles[2] = TileSizes::from_array([1, 32, 8, 3, 5, 8, 16]);
        let cfg = cfg.normalized(&canon.shape);
        assert!(cfg.validate(&canon.shape).is_ok());
        let back = transform.denormalize_config(&cfg);
        assert!(back.validate(&raw).is_ok());
        // The transpose moved the window letters along with the tiles.
        assert_eq!(back.level(TilingLevel::L1).get(LoopIndex::R), 5);
        assert_eq!(back.level(TilingLevel::L1).get(LoopIndex::S), 3);
        // Round-tripping back to canonical coordinates undoes the transpose
        // exactly (no padding was clamped in this direction).
        let forward = transform.canonicalize_config(&back);
        assert!(forward.validate(&canon.shape).is_ok());
        for level in TilingLevel::ALL {
            for idx in [LoopIndex::N, LoopIndex::K, LoopIndex::C] {
                assert_eq!(forward.level(level).get(idx), cfg.level(level).get(idx));
            }
        }
    }

    #[test]
    fn transpose_config_is_an_involution() {
        let raw = raw_asymmetric();
        let cfg = TileConfig::untiled(&raw);
        let twice = transpose_config(&transpose_config(&cfg));
        assert_eq!(twice, cfg);
        assert_eq!(cfg.tiles.len(), NUM_TILING_LEVELS);
    }

    #[test]
    fn matmul_orientations_share_one_canonical_entry() {
        let tall = Spec::matmul(512, 64, 128);
        let wide = Spec::matmul(64, 512, 128);
        let (ct, tt) = canonicalize_spec(&tall);
        let (cw, tw) = canonicalize_spec(&wide);
        assert_eq!(ct, cw, "m<->n transposes must share a canonical spec");
        assert_eq!(ct.fingerprint(), cw.fingerprint());
        assert!(tt.swap_kw, "the tall orientation records the swap");
        assert!(!tw.swap_kw, "the wide orientation is already canonical");
        // The canonical embedding is the oriented (m <= n) one, padded.
        assert_eq!(ct.shape.k, 64);
        assert_eq!(ct.shape.w, 512);
        assert_eq!(ct.shape.c, 128);
        // Conv specs never swap.
        let (_, t) = canonicalize_spec(&Spec::Conv(raw_asymmetric()));
        assert!(!t.swap_kw);
    }

    #[test]
    fn swap_kw_round_trip_is_valid_on_the_raw_matmul_embedding() {
        let tall = Spec::matmul(512, 64, 128);
        let raw = tall.embedded_conv_shape();
        let (canon, transform) = canonicalize_spec(&tall);
        // A schedule "solved" for the canonical (oriented) embedding.
        let mut cfg = TileConfig::untiled(&canon.shape);
        cfg.permutation = Permutation::parse("kcwnhrs").unwrap();
        cfg.tiles[0] = TileSizes::from_array([1, 4, 8, 1, 1, 1, 16]);
        cfg.tiles[1] = TileSizes::from_array([1, 16, 32, 1, 1, 1, 64]);
        cfg.tiles[2] = TileSizes::from_array([1, 64, 128, 1, 1, 1, 256]);
        let cfg = cfg.normalized(&canon.shape);
        assert!(cfg.validate(&canon.shape).is_ok());
        let back = transform.denormalize_config(&cfg);
        assert!(back.validate(&raw).is_ok(), "denormalized schedule must fit the raw embedding");
        // K and W tile factors swapped: the canonical K-tile (4) became the
        // raw W-tile, and the canonical W-tile (16) the raw K-tile.
        assert_eq!(back.level(TilingLevel::Register).get(LoopIndex::W), 4);
        assert_eq!(back.level(TilingLevel::Register).get(LoopIndex::K), 16);
        // The permutation letters swapped along.
        let letters: String = back.permutation.outer_to_inner().iter().map(|i| i.name()).collect();
        assert_eq!(letters, "wcknhrs");
        // Round-tripping back to canonical coordinates is exact here (the
        // canonical extents were fully used, nothing clamped).
        assert_eq!(transform.canonicalize_config(&back), cfg);
    }

    #[test]
    fn pool_canonicalizes_through_its_embedding() {
        let pool = Spec::Pool {
            kind: crate::spec::PoolKind::Max,
            n: 1,
            channels: 64,
            h: 57,
            w: 57,
            window: 3,
            stride: 2,
        };
        let (canon, transform) = canonicalize_spec(&pool);
        assert!(canon.shape.is_depthwise());
        assert_eq!((canon.shape.h, canon.shape.w), (64, 64), "free extents pad");
        assert!(!transform.swap_kw);
        assert_eq!(transform.raw, pool.embedded_conv_shape());
    }

    #[test]
    fn untransposed_shapes_pass_configs_through() {
        let raw = ConvShape::new(1, 8, 4, 3, 3, 8, 8, 1).unwrap();
        let (canon, transform) = canonicalize(&raw);
        assert_eq!(canon.shape, raw);
        let cfg = TileConfig::untiled(&raw);
        assert_eq!(transform.canonicalize_config(&cfg), cfg);
        assert_eq!(transform.denormalize_config(&cfg), cfg);
    }
}
