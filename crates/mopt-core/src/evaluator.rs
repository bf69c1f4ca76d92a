//! One evaluation of the tile-size problem: every function the solver asks
//! about a point, from one pricing of that point.
//!
//! The problem's objective (the largest of the four levels' scaled costs)
//! and its four capacity constraints are all arithmetic on four per-level
//! costs and four footprints of one nested tile assignment.
//! [`TileEvaluator`] assembles and nests the point once, prices each level
//! once, and derives all of them from those values.
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
const TILES_PER_LEVEL: usize = ALL_INDICES.len();

/// Variables of the problem: seven tile sizes for each of the four levels.
pub(crate) const NUM_VARIABLES: usize = NUM_TILING_LEVELS * TILES_PER_LEVEL;

/// How many points a search priced, and how many of them broke a capacity
/// constraint.
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

/// The tile assignment the variable vector `x` stands for, not yet nested:
/// the seven tile sizes of each level, in [`TilingLevel::ALL`] order.
pub(crate) fn tiles_at(x: &[f64]) -> MultiLevelTiles {
    let mut levels = [RealTiles::ones(); NUM_TILING_LEVELS];
    for (level, sizes) in levels.iter_mut().zip(x.chunks_exact(TILES_PER_LEVEL)) {
        *level = RealTiles::from_array(sizes.try_into().expect("chunks_exact yields whole levels"));
    }
    MultiLevelTiles { levels }
}

/// The joint evaluator of the min–max problem (see the module docs).
///
/// Variable layout: [`tiles_at`]. Constraint layout: the four levels'
/// capacity slacks, in [`TilingLevel::ALL`] order.
pub(crate) struct TileEvaluator<'a> {
    pricer: LevelPricer<'a>,
    last: [Option<PricedLevel>; NUM_TILING_LEVELS],
    counters: &'a mut SolveCounters,
}

impl<'a> TileEvaluator<'a> {
    /// The evaluator of `model`'s tile-size problem; `counters` is advanced
    /// by every point it prices.
    pub fn new(model: &'a MultiLevelModel, counters: &'a mut SolveCounters) -> Self {
        TileEvaluator { pricer: model.pricer(), last: [None; NUM_TILING_LEVELS], counters }
    }

    /// Price the point `x`: returns the objective, fills `constraints`.
    pub fn evaluate(&mut self, x: &[f64], constraints: &mut [f64]) -> f64 {
        let nested = self.pricer.nest(&tiles_at(x));
        let mut objective = f64::NEG_INFINITY;
        for level in TilingLevel::ALL {
            let tile = nested.level(level);
            let enclosing = self.pricer.enclosing(&nested, level);
            let same_tile = self.last[level.ordinal()].filter(|p| same_bits(&p.tile, tile));
            let slack = match same_tile {
                Some(priced) => priced.slack,
                None => self.pricer.capacity_slack(level, tile),
            };
            let cost = match same_tile.filter(|p| same_bits(&p.enclosing, enclosing)) {
                Some(priced) => priced.cost,
                None => self.pricer.scaled_cost(level, tile, enclosing),
            };
            self.last[level.ordinal()] =
                Some(PricedLevel { tile: *tile, enclosing: *enclosing, cost, slack });
            constraints[level.ordinal()] = slack;
            objective = objective.max(cost);
        }
        self.counters.enumerated += 1;
        self.counters.capacity_pruned += u64::from(constraints.iter().any(|&slack| slack > 0.0));
        objective
    }
}
