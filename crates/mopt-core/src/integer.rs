//! Algorithm 1's integer step: one stage over the assembled configuration.
//!
//! The continuous solve fixes the four levels in four rounds, each against
//! the other levels as they stood in that round, so the tiles it returns are
//! neither integral nor nested into each other. This stage floors them,
//! nests them (each level into the one enclosing it, the L3 tile into one
//! thread's slice of the problem), shrinks whatever no longer fits its
//! level, and then coordinate-descends the *assembled* integer configuration
//! under the model that prices the served schedule.
//!
//! A move changes one tile size of one level. It is acceptable only when the
//! level's footprint still fits one thread's share of the level (the
//! footprint and the share the continuous solve certified against) and the
//! key — the bottleneck level's cost, then the sum of the four levels'
//! costs, each compared up to rounding — does not rise; a move that shrinks a
//! tile must lower it. Ties therefore go to the larger tile: the model is
//! indifferent, and the executor visits fewer L1 tiles.
//!
//! Tile sizes live on a lattice. Along `k`, a cache level of a dense shape
//! takes multiples of the machine's SIMD width (or the whole enclosing tile):
//! the microkernel packs `k` into vector lanes, and a tile of 12 leaves half
//! of its second vector empty. A grouped shape's `k` tile is at most one
//! group or a whole number of groups, where the model's continuous group
//! span and the integer footprint agree exactly. Every other size is any
//! integer between the enclosed level's tile and the enclosing one's.
//!
//! The levels take turns, outermost first, and a level's turn is its best
//! move. First the single moves: per tile size the largest growth the key
//! allows — double it, else add a half, a quarter, … one unit of it — and two
//! shrinking steps (half, one unit less). A level that is full has none
//! left, but can still trade capacity between its dimensions, so then the
//! exchanges: one size takes a shrinking step, another grows as above, and
//! the pair must lower the key. The lowest resulting key wins. Growth of a
//! level is bounded by the tile enclosing it, the L3 tile by one thread's
//! slice of each dimension (the envelope `mopt_db::rerank` clamps a stored
//! schedule to, so the database tier serves what the solver tier served). A
//! turn prices `O(log extent)` moves per size or pair of sizes, and a level
//! is full after about `log2(capacity)` doublings, however large the
//! extents. The pass ends when a whole sweep makes no move: no single
//! lattice step and no exchange then lowers the key.

use std::cmp::Ordering;

use conv_spec::{
    LoopIndex, Permutation, TileConfig, TileSizes, TilingLevel, ALL_INDICES, NUM_TILING_LEVELS,
};
use mopt_model::cost::{total_footprint, RealTiles};
use mopt_model::multilevel::{LevelPricer, MultiLevelModel, MultiLevelTiles};

/// Sweeps before the descent gives up on reaching a fixed point. A sweep is
/// one move per level; a level is full after about `log2(capacity)` doublings
/// and then trades sizes a unit or a half at a time: the catalog's shapes
/// settle within 65 sweeps (most within 25), extents of a million within 23.
const MAX_SWEEPS: usize = 256;

/// The integer configuration served for the continuous solution `tiles` of
/// one permutation class under `model` (see the module docs). Deterministic:
/// the same tiles and model give the same configuration.
pub fn integer_config(
    model: &MultiLevelModel,
    tiles: &MultiLevelTiles,
    permutation: &Permutation,
) -> TileConfig {
    let mut stage = IntegerStage::seeded(model, tiles);
    stage.descend();
    // Load balancing (Algorithm 1, line 24): the solved parallel
    // specification's per-dimension factors ride along in the configuration.
    let parallel = TileSizes::from_array(model.parallel.factors);
    TileConfig::new(permutation.clone(), stage.tiles, parallel)
}

/// The four levels' bandwidth-scaled costs, by [`TilingLevel::ordinal`].
type Costs = [f64; NUM_TILING_LEVELS];

/// Relative difference below which two costs are one number reached along
/// two roundings. Without it a whole-extent tile can lose to the tile one row
/// short of it by an ulp of the bottleneck cost.
const ROUNDING: f64 = 1e-12;

/// Whether a schedule with level costs `new` is better, as good or worse
/// than one with `old`: by the bottleneck level's cost, then by the sum of
/// the four costs, each compared up to [`ROUNDING`].
fn compare(new: &Costs, old: &Costs) -> Ordering {
    let bottleneck = |costs: &Costs| costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let apart = |new: f64, old: f64| {
        if (new - old).abs() <= ROUNDING * old.abs() {
            Ordering::Equal
        } else {
            new.partial_cmp(&old).unwrap_or(Ordering::Greater)
        }
    };
    apart(bottleneck(new), bottleneck(old)).then_with(|| apart(new.iter().sum(), old.iter().sum()))
}

struct IntegerStage<'m> {
    model: &'m MultiLevelModel,
    pricer: LevelPricer<'m>,
    /// One thread's slice of each extent, rounded up: the bound on the L3
    /// tile, and the envelope the schedule database clamps to.
    slice: TileSizes,
    /// The same slice as the model prices it (not rounded).
    priced_slice: [f64; 7],
    capacity: [f64; NUM_TILING_LEVELS],
    tiles: [TileSizes; NUM_TILING_LEVELS],
    costs: Costs,
}

impl<'m> IntegerStage<'m> {
    /// Floor, nest and repair `tiles`, outermost level first.
    fn seeded(model: &'m MultiLevelModel, tiles: &MultiLevelTiles) -> Self {
        let threads = model.parallel.threads;
        let slice = model.parallel.thread_slice(&model.shape);
        let mut stage = IntegerStage {
            model,
            pricer: model.pricer(),
            slice,
            priced_slice: model.thread_extents().as_array(),
            capacity: TilingLevel::ALL
                .map(|level| model.machine.capacity_per_thread(level, threads) as f64),
            tiles: [slice; NUM_TILING_LEVELS],
            costs: [0.0; NUM_TILING_LEVELS],
        };
        // Outermost first: a level is nested into the tile enclosing it.
        for level in TilingLevel::ALL.into_iter().rev() {
            let mut tile = TileSizes::ones();
            for idx in ALL_INDICES {
                // `as` saturates and `max` drops a NaN: any float lands in the box.
                let floored = tiles.level(level).get(idx).floor().max(1.0) as usize;
                tile.set(idx, stage.snap(level, idx, floored, stage.bound(level, idx)));
            }
            // Halve the largest size that can still shrink until the tile
            // fits its level (the footprint is monotone in every size).
            while !stage.fits(level, &tile) {
                let halved =
                    |idx| stage.snap(level, idx, tile.get(idx) / 2, stage.bound(level, idx));
                let largest = ALL_INDICES
                    .into_iter()
                    .filter(|&idx| halved(idx) < tile.get(idx))
                    .max_by_key(|&idx| tile.get(idx));
                let Some(idx) = largest else { break };
                tile.set(idx, halved(idx));
            }
            stage.tiles[level.ordinal()] = tile;
        }
        stage.costs = TilingLevel::ALL.map(|level| stage.cost(level, stage.tiles[level.ordinal()]));
        stage
    }

    /// The size of the tile enclosing `level`'s along `idx`.
    fn bound(&self, level: TilingLevel, idx: LoopIndex) -> usize {
        level.outer().map_or(self.slice, |outer| self.tiles[outer.ordinal()]).get(idx)
    }

    /// The distance between neighbouring lattice sizes around `size`.
    fn unit(&self, level: TilingLevel, idx: LoopIndex, size: usize) -> usize {
        let shape = &self.model.shape;
        if idx != LoopIndex::K {
            1
        } else if shape.groups > 1 {
            let group = shape.k_per_group().max(1);
            if size >= group {
                group
            } else {
                1
            }
        } else if level == TilingLevel::Register {
            // Registers hold what the kernel's tap order needs.
            1
        } else {
            self.model.machine.simd_width.max(1)
        }
    }

    /// The largest size at most `size` that a tile of `level` may take along
    /// `idx` inside an enclosing tile of `bound` (the smallest such size when
    /// `size` is below all of them).
    fn snap(&self, level: TilingLevel, idx: LoopIndex, size: usize, bound: usize) -> usize {
        let size = size.clamp(1, bound);
        // A dense shape's enclosing tile is itself on the lattice, so filling
        // it is always allowed; a slice of a grouped `k` need not be whole
        // groups.
        if size == bound && self.model.shape.groups <= 1 {
            return size;
        }
        let unit = self.unit(level, idx, size);
        (size / unit * unit).max(unit.min(bound))
    }

    fn fits(&self, level: TilingLevel, tile: &TileSizes) -> bool {
        total_footprint(&self.model.shape, &RealTiles::from(tile)) <= self.capacity[level.ordinal()]
    }

    /// `tile` as the model prices it: clamped into the unrounded slice.
    fn priced(&self, tile: TileSizes) -> RealTiles {
        RealTiles::from(tile).clamped(&self.priced_slice)
    }

    /// The cost of `level` with `tile` in place of its own.
    fn cost(&self, level: TilingLevel, tile: TileSizes) -> f64 {
        let enclosing = match level.outer() {
            None => RealTiles::from_array(self.priced_slice),
            Some(outer) => self.priced(self.tiles[outer.ordinal()]),
        };
        self.pricer.scaled_cost(level, &self.priced(tile), &enclosing)
    }

    /// The four costs with `tile` in place of `level`'s own, or `None` when
    /// `tile` does not fit the level.
    fn price(&self, level: TilingLevel, tile: TileSizes) -> Option<Costs> {
        if !self.fits(level, &tile) {
            return None;
        }
        let l = level.ordinal();
        let mut costs = self.costs;
        costs[l] = self.cost(level, tile);
        if l > 0 {
            // The level inside this one is priced against this one's tile.
            let inner = self.priced(self.tiles[l - 1]);
            costs[l - 1] =
                self.pricer.scaled_cost(TilingLevel::ALL[l - 1], &inner, &self.priced(tile));
        }
        Some(costs)
    }

    /// The sizes `tile` may grow to along `idx`, largest first: double, then
    /// add a half, a quarter, … one unit.
    fn larger(&self, level: TilingLevel, tile: &TileSizes, idx: LoopIndex) -> Vec<usize> {
        let (current, bound) = (tile.get(idx), self.bound(level, idx));
        let unit = self.unit(level, idx, current);
        let mut targets = Vec::new();
        let mut steps = current / unit;
        while steps >= 1 && current < bound {
            let target = self.snap(level, idx, current.saturating_add(steps * unit), bound);
            if target > current && targets.last() != Some(&target) {
                targets.push(target);
            }
            steps /= 2;
        }
        targets
    }

    /// The sizes `tile` may shrink to along `idx` without uncovering the
    /// level it encloses: half, and one unit less.
    fn smaller(&self, level: TilingLevel, tile: &TileSizes, idx: LoopIndex) -> Vec<usize> {
        let current = tile.get(idx);
        let floor = match level.ordinal() {
            0 => 1,
            l => self.tiles[l - 1].get(idx),
        };
        let mut targets = vec![
            self.snap(level, idx, current / 2, current),
            self.snap(level, idx, current - 1, current),
        ];
        targets.dedup();
        targets.retain(|&size| size >= floor && size < current);
        targets
    }

    /// Price `moved` in place of `level`'s tile; if it fits and its key
    /// compares to the current one as `wanted` or better it is acceptable,
    /// and replaces `best` when its key is lower than `best`'s.
    fn offer(
        &self,
        level: TilingLevel,
        moved: TileSizes,
        wanted: Ordering,
        best: &mut Option<(TileSizes, Costs)>,
    ) -> bool {
        let Some(costs) = self.price(level, moved).filter(|c| compare(c, &self.costs) <= wanted)
        else {
            return false;
        };
        if best.as_ref().is_none_or(|(_, held)| compare(&costs, held) == Ordering::Less) {
            *best = Some((moved, costs));
        }
        true
    }

    /// Make the best move of `level`, if any is acceptable. A single move
    /// changes one size: the largest growth that does not raise the key, or
    /// a shrinking step that lowers it. When no single move is left, an
    /// exchange shrinks one size and grows another, and must lower the key.
    /// The move with the lowest key wins, the first of equals.
    fn best_move(&mut self, level: TilingLevel) -> bool {
        let tile = self.tiles[level.ordinal()];
        let mut best = None;
        for idx in ALL_INDICES {
            // The first acceptable growth is the largest.
            self.larger(level, &tile, idx)
                .into_iter()
                .any(|size| self.offer(level, tile.with(idx, size), Ordering::Equal, &mut best));
            for size in self.smaller(level, &tile, idx) {
                self.offer(level, tile.with(idx, size), Ordering::Less, &mut best);
            }
        }
        if best.is_none() {
            for from in ALL_INDICES {
                for shrunk in self.smaller(level, &tile, from) {
                    let base = tile.with(from, shrunk);
                    for to in ALL_INDICES.into_iter().filter(|&to| to != from) {
                        self.larger(level, &base, to).into_iter().any(|size| {
                            self.offer(level, base.with(to, size), Ordering::Less, &mut best)
                        });
                    }
                }
            }
        }
        let Some((tile, costs)) = best else { return false };
        self.tiles[level.ordinal()] = tile;
        self.costs = costs;
        true
    }

    /// Sweep the levels, one move each, until a sweep makes none. Returns
    /// the sweeps that made a move: fewer than [`MAX_SWEEPS`] means the
    /// descent reached its fixed point.
    fn descend(&mut self) -> usize {
        for sweep in 0..MAX_SWEEPS {
            let mut moved = false;
            // Outermost first: a level grows toward the tile enclosing it.
            for level in TilingLevel::ALL.into_iter().rev() {
                moved |= self.best_move(level);
            }
            if !moved {
                return sweep;
            }
        }
        MAX_SWEEPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{MOptOptimizer, OptimizedConfig, OptimizerOptions};
    use crate::pricing;
    use conv_spec::{benchmarks, ConvShape, MachineModel};
    use mopt_model::multilevel::ParallelSpec;

    /// The model `candidate` was priced under.
    fn model_of(
        shape: &ConvShape,
        machine: &MachineModel,
        options: &OptimizerOptions,
        candidate: &OptimizedConfig,
    ) -> MultiLevelModel {
        let parallel = ParallelSpec {
            threads: options.threads,
            factors: candidate.config.parallel.as_array(),
        };
        assert!(parallel.is_valid());
        pricing::pricing_model(
            shape,
            machine,
            options,
            candidate.config.permutation.clone(),
            parallel,
        )
    }

    /// The lattice rule, stated apart from `snap`: may `level`'s `k` tile be
    /// `size`, one thread's slice of `k` being `slice`?
    fn k_allowed(
        shape: &ConvShape,
        machine: &MachineModel,
        level: TilingLevel,
        size: usize,
        slice: usize,
    ) -> bool {
        if shape.groups > 1 {
            let group = shape.k_per_group();
            size <= group || size.is_multiple_of(group)
        } else {
            level == TilingLevel::Register
                || size.is_multiple_of(machine.simd_width)
                || size == slice
        }
    }

    /// Everything the stage promises about one served candidate.
    fn check_candidate(
        shape: &ConvShape,
        machine: &MachineModel,
        options: &OptimizerOptions,
        candidate: &OptimizedConfig,
    ) {
        let config = &candidate.config;
        let context =
            format!("{shape} at {} threads, class {}", options.threads, candidate.class_id);
        config.validate(shape).unwrap_or_else(|e| panic!("{context}: {e}"));
        let model = model_of(shape, machine, options, candidate);
        let slice = model.parallel.thread_slice(shape).as_array();
        // Inside one thread's slice: the envelope the db tier clamps to.
        assert!(config.level(TilingLevel::L3).validate(&slice).is_ok(), "{context}");
        let fits = |level: TilingLevel, tile: &TileSizes| {
            total_footprint(shape, &RealTiles::from(tile))
                <= machine.capacity_per_thread(level, options.threads) as f64
        };
        for level in TilingLevel::ALL {
            let tile = config.level(level);
            assert!(fits(level, tile), "{context}: {level} tile {tile} over capacity");
            assert!(
                k_allowed(shape, machine, level, tile.get(LoopIndex::K), slice[1]),
                "{context}: {level} tile {tile} is off the k lattice"
            );
        }
        assert_eq!(
            candidate.predicted_cost.to_bits(),
            model.price(config).total.to_bits(),
            "{context}: served price is the model's"
        );

        // A local optimum of the function that priced it: the nearest
        // admissible size either side of every tile size does not lower the
        // key.
        let here = model.predict_config(config).scaled_costs;
        let reach = machine.simd_width.max(shape.k_per_group());
        for level in TilingLevel::ALL {
            let l = level.ordinal();
            for idx in ALL_INDICES {
                let d = idx.canonical_position();
                let current = config.level(level).get(idx);
                let outer = if l == 3 { slice[d] } else { config.tiles[l + 1].as_array()[d] };
                let inner = if l == 0 { 1 } else { config.tiles[l - 1].as_array()[d] };
                let admissible = |size: usize| {
                    size >= inner
                        && size <= outer
                        && (idx != LoopIndex::K || k_allowed(shape, machine, level, size, slice[1]))
                        && fits(level, &config.level(level).with(idx, size))
                };
                let below =
                    (current.saturating_sub(reach).max(1)..current).rev().find(|&s| admissible(s));
                let above = (current + 1..=current + reach).find(|&s| admissible(s));
                for size in below.into_iter().chain(above) {
                    let mut moved = config.clone();
                    moved.level_mut(level).set(idx, size);
                    let there = model.predict_config(&moved).scaled_costs;
                    assert!(
                        compare(&there, &here) != Ordering::Less,
                        "{context}: {level} {idx} {current} -> {size} lowers the key \
                         {here:?} to {there:?} in {config:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn served_configs_are_nested_fitting_on_the_lattice_and_locally_optimal() {
        let machine = MachineModel::i7_9700k();
        let mut checked = 0;
        for op in benchmarks::extended_operators() {
            for threads in [1, 4] {
                let options =
                    OptimizerOptions { threads, max_classes: 2, ..OptimizerOptions::default() };
                let result =
                    MOptOptimizer::new(op.shape, machine.clone(), options.clone()).optimize();
                for candidate in &result.ranked {
                    check_candidate(&op.shape, &machine, &options, candidate);
                    checked += 1;
                }
            }
        }
        assert!(checked >= 200, "{checked} candidates checked");
    }

    #[test]
    fn grouped_shapes_keep_whole_groups_on_every_machine() {
        // Groups of eight channels (not depthwise), and a SIMD width that
        // does not divide them.
        let shape = ConvShape::new_general(1, 32, 16, 3, 3, 14, 14, 1, 1, 4).unwrap();
        for machine in [MachineModel::i7_9700k(), MachineModel::tiny_test_machine()] {
            for threads in [1, 3] {
                let options =
                    OptimizerOptions { threads, max_classes: 2, ..OptimizerOptions::fast() };
                let result = MOptOptimizer::new(shape, machine.clone(), options.clone()).optimize();
                for candidate in &result.ranked {
                    check_candidate(&shape, &machine, &options, candidate);
                }
            }
        }
    }

    #[test]
    fn two_solves_serve_the_same_ranking_to_the_bit() {
        let shape = benchmarks::by_name("R6").expect("a catalog op").shape;
        let options =
            OptimizerOptions { threads: 4, max_classes: 2, ..OptimizerOptions::default() };
        let solve =
            || MOptOptimizer::new(shape, MachineModel::i7_9700k(), options.clone()).optimize();
        let (first, second) = (solve(), solve());
        assert_eq!(first.ranked, second.ranked);
        for (a, b) in first.ranked.iter().zip(&second.ranked) {
            assert_eq!(a.predicted_cost.to_bits(), b.predicted_cost.to_bits());
        }
    }

    #[test]
    fn extents_of_a_million_settle_in_a_logarithmic_number_of_sweeps() {
        // A sweep prices at most 4 levels x 7 sizes x (21 growth rungs + 2
        // shrinking steps) moves here, so the sweep count bounds the work.
        let shape = ConvShape::new(1, 1_000_003, 4, 1, 1, 3, 1_000_003, 1).unwrap();
        let machine = MachineModel::i7_9700k();
        let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() };
        let model = pricing::pricing_model(
            &shape,
            &machine,
            &options,
            mopt_model::prune::pruned_classes()[0].representative.clone(),
            ParallelSpec::sequential(),
        );
        // From the smallest tiles there are: the longest climb.
        let ones = MultiLevelTiles { levels: [RealTiles::ones(); NUM_TILING_LEVELS] };
        let mut stage = IntegerStage::seeded(&model, &ones);
        let sweeps = stage.descend();
        assert!(sweeps < MAX_SWEEPS, "{sweeps} sweeps: no fixed point");
        assert!(sweeps <= 32, "{sweeps} sweeps for extents of 2^20");
        let config = TileConfig::new(model.permutation.clone(), stage.tiles, TileSizes::ones());
        let candidate = OptimizedConfig {
            predicted_cost: model.price(&config).total,
            prediction: model.price(&config).prediction,
            class_id: 1,
            config,
        };
        check_candidate(&shape, &machine, &options, &candidate);
    }

    #[test]
    fn a_config_with_nowhere_to_go_is_returned_unchanged() {
        let machine = MachineModel::i7_9700k();
        let options = OptimizerOptions::default();
        // Untiled on a shape whose every tensor fits the register file, and
        // a two-thread schedule already at its slice.
        let tiny = ConvShape::new(1, 4, 2, 1, 1, 2, 4, 1).unwrap();
        let halves = TileSizes::full(&tiny).with(LoopIndex::K, 2);
        for (parallel, tile) in [
            (ParallelSpec::sequential(), TileSizes::full(&tiny)),
            (ParallelSpec::default_for(&tiny, 2), halves),
        ] {
            let config = TileConfig::new(
                conv_spec::Permutation::canonical(),
                [tile; NUM_TILING_LEVELS],
                TileSizes::from_array(parallel.factors),
            );
            let model = pricing::pricing_model(
                &tiny,
                &machine,
                &options,
                config.permutation.clone(),
                parallel,
            );
            let refined =
                integer_config(&model, &MultiLevelTiles::from_config(&config), &config.permutation);
            assert_eq!(refined, config);
        }
    }
}
