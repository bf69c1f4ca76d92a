//! One evaluation of a tile-size problem: every function the solver asks
//! about a point, from one pricing of that point.
//!
//! An `ArgMinSolve` problem's objective (the hypothesized bottleneck level's
//! scaled cost), its capacity constraints (one per free level) and its
//! dominance constraints (every other level's cost minus the objective) are
//! all arithmetic on four per-level costs and up to four footprints of one
//! nested tile assignment. [`TileEvaluator`] assembles and nests the point
//! once, prices each level once, and derives all of them from those values.
//!
//! It also remembers, per level, the inputs and values of the last point it
//! priced. A level's cost is a pure function of two nested tiles — its own
//! and the one enclosing it ([`LevelPricer::volume`]) — and its footprint of
//! its own alone, so when the next point presents the same bit patterns the
//! remembered value *is* the value a recomputation would produce. The
//! solver's finite-difference gradient steps one tile extent at a time: such
//! a step changes one level's tile, hence that level's cost and footprint and
//! the cost of the level it encloses, and the other two levels are reused;
//! the line search's accepted point is the next iteration's base point and
//! costs nothing to price again.

use conv_spec::{TilingLevel, ALL_INDICES, NUM_TILING_LEVELS};
use mopt_model::cost::RealTiles;
use mopt_model::multilevel::{LevelPricer, MultiLevelModel, MultiLevelTiles};

/// Tile sizes per level in the solver's variable vector, canonical index
/// order.
pub(crate) const TILES_PER_LEVEL: usize = ALL_INDICES.len();

/// How many points a search priced, and how many of them broke a capacity
/// constraint of a level still being solved for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SolveCounters {
    pub enumerated: u64,
    pub capacity_pruned: u64,
}

/// What one level cost at the last point priced, and the two nested tiles
/// that decided it.
#[derive(Debug, Clone, Copy)]
struct PricedLevel {
    tile: RealTiles,
    enclosing: RealTiles,
    cost: f64,
    slack: f64,
}

fn same_bits(a: &RealTiles, b: &RealTiles) -> bool {
    a.as_array().map(f64::to_bits) == b.as_array().map(f64::to_bits)
}

/// The joint evaluator of one `ArgMinSolve` problem (see the module docs).
///
/// Variable layout: for each free level (in `free_levels` order), the seven
/// tile sizes in canonical index order. Constraint layout: the free levels'
/// capacity slacks in the same order, then `cost(other) − cost(obj_level)`
/// for every other level in [`TilingLevel::ALL`] order.
pub(crate) struct TileEvaluator<'a> {
    pricer: LevelPricer<'a>,
    obj_level: TilingLevel,
    fixed: &'a [Option<RealTiles>; NUM_TILING_LEVELS],
    free_levels: &'a [TilingLevel],
    last: [Option<PricedLevel>; NUM_TILING_LEVELS],
    counters: &'a mut SolveCounters,
}

impl<'a> TileEvaluator<'a> {
    /// The evaluator for minimizing `obj_level`'s cost over the tiles of
    /// `free_levels`, every other level held at its `fixed` tile.
    pub fn new(
        model: &'a MultiLevelModel,
        obj_level: TilingLevel,
        fixed: &'a [Option<RealTiles>; NUM_TILING_LEVELS],
        free_levels: &'a [TilingLevel],
        counters: &'a mut SolveCounters,
    ) -> Self {
        TileEvaluator {
            pricer: model.pricer(),
            obj_level,
            fixed,
            free_levels,
            last: [None; NUM_TILING_LEVELS],
            counters,
        }
    }

    /// Capacity constraints for every level that is still free (fixed levels
    /// already satisfy theirs by construction), and dominance constraints:
    /// the hypothesized bottleneck level must cost at least as much as every
    /// other level (Sec. 5's min–max decomposition).
    pub fn num_constraints(&self) -> usize {
        self.free_levels.len() + NUM_TILING_LEVELS - 1
    }

    /// The tile assignment the variable vector `x` stands for, not yet
    /// nested.
    pub fn tiles_at(&self, x: &[f64]) -> MultiLevelTiles {
        let mut levels = self.fixed.map(|tile| tile.unwrap_or_else(RealTiles::ones));
        for (level, sizes) in self.free_levels.iter().zip(x.chunks_exact(TILES_PER_LEVEL)) {
            let sizes: [f64; TILES_PER_LEVEL] =
                sizes.try_into().expect("chunks_exact yields whole levels");
            levels[level.ordinal()] = RealTiles::from_array(sizes);
        }
        MultiLevelTiles { levels }
    }

    /// Price the point `x`: returns the objective, fills `constraints`.
    pub fn evaluate(&mut self, x: &[f64], constraints: &mut [f64]) -> f64 {
        let nested = self.pricer.nest(&self.tiles_at(x));
        let mut costs = [0.0; NUM_TILING_LEVELS];
        let mut over_capacity = false;
        let mut next_constraint = 0;
        for level in TilingLevel::ALL {
            let tile = nested.level(level);
            let enclosing = self.pricer.enclosing(&nested, level);
            let free = self.free_levels.contains(&level);
            let same_tile = self.last[level.ordinal()].filter(|p| same_bits(&p.tile, tile));
            // Only free levels have a capacity constraint to fill.
            let slack = match same_tile {
                Some(priced) => priced.slack,
                None if free => self.pricer.capacity_slack(level, tile),
                None => 0.0,
            };
            let cost = match same_tile.filter(|p| same_bits(&p.enclosing, enclosing)) {
                Some(priced) => priced.cost,
                None => self.pricer.scaled_cost(level, tile, enclosing),
            };
            self.last[level.ordinal()] =
                Some(PricedLevel { tile: *tile, enclosing: *enclosing, cost, slack });
            costs[level.ordinal()] = cost;
            if free {
                over_capacity |= slack > 0.0;
                constraints[next_constraint] = slack;
                next_constraint += 1;
            }
        }
        self.counters.enumerated += 1;
        self.counters.capacity_pruned += u64::from(over_capacity);

        let objective = costs[self.obj_level.ordinal()];
        for other in TilingLevel::ALL {
            if other != self.obj_level {
                constraints[next_constraint] = costs[other.ordinal()] - objective;
                next_constraint += 1;
            }
        }
        objective
    }
}
