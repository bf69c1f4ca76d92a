//! An independent oracle for the search's evaluator (test-only).
//!
//! [`Reference`] states an `ArgMinSolve` problem the way the optimizer did
//! before [`TileEvaluator`] existed: one closure for the objective, one per
//! capacity constraint, one per dominance constraint, each assembling the
//! tile assignment from `x` for itself and each asking the model's public
//! per-level functions ([`MultiLevelModel::scaled_cost`],
//! [`MultiLevelModel::capacity_slack`]). It shares no code with the
//! evaluator. The tests hold the evaluator to it bit for bit — point by
//! point, with and without anything remembered from an earlier point, and
//! over whole solves — and pin the prices of the benchmark's eight scripted
//! solves.

use conv_spec::benchmarks;
use conv_spec::{ParallelAxis, ALL_INDICES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;
use crate::solver::step_for;

type Fixed = [Option<RealTiles>; NUM_TILING_LEVELS];
type Function<'a> = Box<dyn Fn(&[f64]) -> f64 + 'a>;

/// One `ArgMinSolve` problem as separate functions of `x`.
struct Reference<'a> {
    model: &'a MultiLevelModel,
    obj_level: TilingLevel,
    fixed: Fixed,
    free_levels: Vec<TilingLevel>,
}

impl Reference<'_> {
    fn assemble(&self, x: &[f64]) -> MultiLevelTiles {
        let shape = self.model.shape;
        let mut tiles = MultiLevelTiles::full(&shape);
        for (li, level) in self.free_levels.iter().enumerate() {
            let mut t = RealTiles::ones();
            for (j, &idx) in ALL_INDICES.iter().enumerate() {
                t.set(idx, x[li * 7 + j]);
            }
            *tiles.level_mut(*level) = t;
        }
        for (ord, f) in self.fixed.iter().enumerate() {
            if let Some(t) = f {
                tiles.levels[ord] = *t;
            }
        }
        tiles.normalized(&shape)
    }

    fn objective(&self, x: &[f64]) -> f64 {
        self.model.scaled_cost(&self.assemble(x), self.obj_level)
    }

    /// Capacity constraints of the free levels, then dominance constraints
    /// over the other levels: the order the solver sums its penalty in.
    fn constraints(&self) -> Vec<Function<'_>> {
        let mut all: Vec<Function<'_>> = Vec::new();
        for &level in &self.free_levels {
            all.push(Box::new(move |x| self.model.capacity_slack(&self.assemble(x), level)));
        }
        for other in TilingLevel::ALL {
            if other != self.obj_level {
                all.push(Box::new(move |x| {
                    let tiles = self.assemble(x);
                    self.model.scaled_cost(&tiles, other)
                        - self.model.scaled_cost(&tiles, self.obj_level)
                }));
            }
        }
        all
    }

    fn dim(&self) -> usize {
        self.free_levels.len() * 7
    }

    fn upper(&self) -> Vec<f64> {
        let extents = self.model.shape.extents();
        (0..self.dim()).map(|j| extents[j % 7] as f64).collect()
    }

    /// The problem a function at a time, for whole solves.
    fn problem(&self) -> Problem<'_> {
        let boxed = Problem::new(self.dim())
            .with_bounds(vec![1.0; self.dim()], self.upper())
            .with_objective(|x| self.objective(x));
        self.constraints().into_iter().fold(boxed, |p, g| p.with_constraint(g))
    }
}

fn shapes() -> [ConvShape; 4] {
    [
        ConvShape::new(1, 32, 16, 3, 3, 14, 14, 1).unwrap(),
        ConvShape::new(1, 24, 16, 3, 3, 13, 13, 2).unwrap().with_dilation(2).unwrap(),
        ConvShape::new_general(1, 32, 16, 3, 3, 14, 14, 1, 1, 4).unwrap(),
        ConvShape::depthwise(32, 16, 3, 1),
    ]
}

/// Sequential, and four threads along each parallel axis.
fn parallel_specs(shape: &ConvShape) -> Vec<ParallelSpec> {
    let mut specs = vec![ParallelSpec::sequential()];
    specs.extend(ParallelAxis::ALL.map(|axis| ParallelSpec::along_axis(shape, 4, axis)));
    specs
}

/// Every (fixed levels, hypothesized bottleneck) pair the four rounds of
/// `solve_class` can reach: any proper subset of the levels fixed, any free
/// level as the objective — 4 + 12 + 12 + 4 of them.
fn round_states() -> Vec<(Vec<TilingLevel>, TilingLevel)> {
    let mut states = Vec::new();
    for fixed_mask in 0u32..15 {
        let free: Vec<TilingLevel> =
            TilingLevel::ALL.into_iter().filter(|l| fixed_mask & (1 << l.ordinal()) == 0).collect();
        for &obj_level in &free {
            states.push((free.clone(), obj_level));
        }
    }
    assert_eq!(states.len(), 32);
    states
}

fn random_tile(rng: &mut StdRng, shape: &ConvShape) -> RealTiles {
    RealTiles::from_array(shape.extents().map(|e| 1.0 + rng.gen::<f64>() * (e as f64 - 1.0)))
}

/// Points the solver can present: inside the box, on its faces, a
/// finite-difference step outside them (the gradient steps out of the box),
/// and single-coordinate steps around one of those — the sequence the
/// evaluator's per-level reuse is built for.
fn points(rng: &mut StdRng, upper: &[f64]) -> Vec<Vec<f64>> {
    let inside =
        |rng: &mut StdRng| upper.iter().map(|&u| 1.0 + rng.gen::<f64>() * (u - 1.0)).collect();
    let mut points: Vec<Vec<f64>> = vec![inside(rng), inside(rng)];
    points.push(
        upper
            .iter()
            .map(|&u| match rng.gen_range(0..3) {
                0 => 1.0,
                1 => u,
                _ => 1.0 + rng.gen::<f64>() * (u - 1.0),
            })
            .collect(),
    );
    points.push(
        upper
            .iter()
            .map(|&u| match rng.gen_range(0..4) {
                0 => 1.0 - step_for(1.0),
                1 => u + step_for(u),
                2 => u - step_for(u),
                _ => 1.0 + step_for(1.0),
            })
            .collect(),
    );
    let base = points[rng.gen_range(0..points.len())].clone();
    points.push(base.clone());
    for _ in 0..4 {
        let j = rng.gen_range(0..base.len());
        for sign in [1.0, -1.0] {
            let mut stepped = base.clone();
            stepped[j] += sign * step_for(base[j]);
            points.push(stepped);
        }
    }
    points.push(base);
    points
}

#[test]
fn evaluator_matches_the_per_function_reference_bit_for_bit() {
    let machine = MachineModel::i7_9700k();
    let mut rng = StdRng::seed_from_u64(0x0e7a1);
    let (mut compared, mut reused_checks) = (0u64, 0u64);
    for shape in shapes() {
        for class in pruned_classes() {
            for parallel in parallel_specs(&shape) {
                let model = pricing::pricing_model(
                    &shape,
                    &machine,
                    class.representative.clone(),
                    parallel,
                );
                for (free_levels, obj_level) in round_states() {
                    let mut fixed: Fixed = [None; NUM_TILING_LEVELS];
                    for level in TilingLevel::ALL {
                        if !free_levels.contains(&level) {
                            fixed[level.ordinal()] = Some(random_tile(&mut rng, &shape));
                        }
                    }
                    let reference = Reference { model: &model, obj_level, fixed, free_levels };
                    let functions = reference.constraints();
                    let mut counters = SolveCounters::default();
                    let mut remembering = TileEvaluator::new(
                        &model,
                        obj_level,
                        &reference.fixed,
                        &reference.free_levels,
                        &mut counters,
                    );
                    assert_eq!(remembering.num_constraints(), functions.len());
                    let mut got = vec![0.0; functions.len()];
                    let mut fresh_got = vec![0.0; functions.len()];
                    let mut expected_pruned = 0;
                    let points = points(&mut rng, &reference.upper());
                    for x in &points {
                        let objective = remembering.evaluate(x, &mut got);
                        let context = || {
                            format!(
                                "{shape} class {} {parallel:?} free {:?} \
                                 obj {obj_level} at {x:?}",
                                class.id, reference.free_levels
                            )
                        };
                        assert_eq!(
                            objective.to_bits(),
                            reference.objective(x).to_bits(),
                            "objective, {}",
                            context()
                        );
                        for (i, g) in functions.iter().enumerate() {
                            assert_eq!(
                                got[i].to_bits(),
                                g(x).to_bits(),
                                "constraint {i}, {}",
                                context()
                            );
                        }
                        compared += 1;

                        // Nothing remembered: an evaluator that has seen
                        // no other point gives the same values.
                        let mut scratch = SolveCounters::default();
                        let fresh = TileEvaluator::new(
                            &model,
                            obj_level,
                            &reference.fixed,
                            &reference.free_levels,
                            &mut scratch,
                        )
                        .evaluate(x, &mut fresh_got);
                        assert_eq!(fresh.to_bits(), objective.to_bits(), "{}", context());
                        assert_eq!(
                            fresh_got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "{}",
                            context()
                        );
                        reused_checks += 1;

                        let tiles = reference.assemble(x);
                        let over = reference
                            .free_levels
                            .iter()
                            .any(|&l| model.capacity_slack(&tiles, l) > 0.0);
                        expected_pruned += u64::from(over);
                    }
                    assert_eq!(counters.enumerated, points.len() as u64);
                    assert_eq!(counters.capacity_pruned, expected_pruned);
                }
            }
        }
    }
    assert!(compared >= 2000 && reused_checks == compared, "{compared} points compared");
}

/// `solve_class` with every problem stated by [`Reference`].
fn reference_solve_class(opt: &MOptOptimizer, model: &MultiLevelModel) -> MultiLevelTiles {
    let extents = opt.shape.extents();
    let mut fixed: Fixed = [None; NUM_TILING_LEVELS];
    let mut not_visited: Vec<TilingLevel> = TilingLevel::ALL.to_vec();
    while !not_visited.is_empty() {
        let mut best: Option<(TilingLevel, f64, MultiLevelTiles)> = None;
        for &obj_level in &not_visited {
            let reference = Reference { model, obj_level, fixed, free_levels: not_visited.clone() };
            let mut x0 = Vec::new();
            for &level in &not_visited {
                let frac = match level {
                    TilingLevel::Register => 0.05,
                    TilingLevel::L1 => 0.15,
                    TilingLevel::L2 => 0.4,
                    TilingLevel::L3 => 0.8,
                };
                x0.extend(extents.iter().map(|&e| (e as f64 * frac).max(1.0)));
            }
            let result = solve(&reference.problem(), &x0, opt.options.multistart);
            let tiles = reference.assemble(&result.x);
            let cost = model.scaled_cost(&tiles, obj_level);
            if best.as_ref().is_none_or(|(_, c, _)| cost < *c) {
                best = Some((obj_level, cost, tiles));
            }
        }
        let (min_level, _, tiles) = best.unwrap();
        fixed[min_level.ordinal()] = Some(*tiles.level(min_level));
        not_visited.retain(|&l| l != min_level);
    }
    MultiLevelTiles { levels: fixed.map(Option::unwrap) }
}

#[test]
fn whole_solves_match_solves_of_the_reference_problems() {
    let cases = [
        (ConvShape::new(1, 16, 8, 3, 3, 10, 10, 1).unwrap(), 1, 1),
        (ConvShape::new_general(1, 16, 16, 3, 3, 9, 9, 2, 1, 4).unwrap(), 4, 0),
    ];
    for (shape, threads, multistart) in cases {
        let options =
            OptimizerOptions { threads, multistart, max_classes: 3, ..OptimizerOptions::default() };
        let opt = MOptOptimizer::new(shape, MachineModel::i7_9700k(), options);
        let mut expected = Vec::new();
        for class in pruned_classes().into_iter().take(3) {
            for parallel in opt.parallel_candidates() {
                let model = pricing::pricing_model(
                    &shape,
                    &opt.machine,
                    class.representative.clone(),
                    parallel,
                );
                let tiles = reference_solve_class(&opt, &model);
                assert_eq!(tiles, opt.solve_class(&model).0, "{shape} class {}", class.id);
                let config = integer_config(&model, &tiles, &class.representative);
                let (config, price) = pricing::price_cheapest_layout(&model, config, None);
                expected.push(OptimizedConfig {
                    config,
                    class_id: class.id,
                    predicted_cost: price.total,
                    prediction: price.prediction,
                });
            }
        }
        let expected = pricing::rank(expected, opt.options.keep_top);
        let ranked = opt.optimize().ranked;
        assert_eq!(ranked, expected);
        for (got, want) in ranked.iter().zip(&expected) {
            assert_eq!(got.predicted_cost.to_bits(), want.predicted_cost.to_bits());
        }
    }
}

/// The eight cold solves of the benchmark's `plan_session` script: the best
/// schedule's price, to the bit. `before` is what the per-level integer
/// refinement (PR 18 to PR 23, one `floor_refine` per level against the other
/// levels' continuous tiles) served; the joint integer stage may not serve a
/// higher price than that. R3 keeps its bits (it was at its compulsory DRAM
/// traffic already); R12 and R6 at four threads reach theirs.
#[test]
fn scripted_solves_price_to_the_pinned_bits() {
    let script: [(&str, usize, Option<LayoutPolicy>, u64, u64); 8] = [
        ("R2", 1, None, 0x4135d4fffffffffe, 0x41292d4924924923),
        ("R3", 1, None, 0x4112800000000000, 0x4112800000000000),
        ("R4*", 1, None, 0x4134688000000000, 0x412573cccccccccc),
        ("R12", 1, None, 0x4139000000000000, 0x4132630000000000),
        ("Y5", 1, None, 0x4142e38e38e38e3a, 0x4142190eef6f513a),
        ("D1", 1, None, 0x4160820666666666, 0x4151f04d79435e50),
        ("R6", 4, None, 0x411dae1e1e1e1e1e, 0x4116080000000000),
        ("R8", 4, Some(LayoutPolicy::Search), 0x412bebcd9364d937, 0x411f16a2e8ba2e8c),
    ];
    for (op, threads, layout_policy, before, pinned) in script {
        let shape = benchmarks::by_name(op).expect("a catalog op").shape;
        let options = OptimizerOptions { threads, layout_policy, ..OptimizerOptions::default() };
        let result = MOptOptimizer::new(shape, MachineModel::i7_9700k(), options).optimize();
        assert_eq!(
            result.best().predicted_cost.to_bits(),
            pinned,
            "{op} at {threads} threads: {:016x}",
            result.best().predicted_cost.to_bits()
        );
        assert!(f64::from_bits(pinned) <= f64::from_bits(before), "{op} at {threads} threads");
    }
}
