//! An independent oracle for the search's evaluator (test-only).
//!
//! [`Reference`] states one class's tile-size problem a function at a time:
//! the objective is the largest of the four levels'
//! [`MultiLevelModel::scaled_cost`], and each level's capacity constraint is
//! its [`MultiLevelModel::capacity_slack`]. Each closure assembles the tile
//! assignment from `x` for itself and asks the model's public per-level
//! functions; none shares code with [`TileEvaluator`]. The tests hold the
//! evaluator to it bit for bit — point by point, with and without anything
//! remembered from an earlier point, and over whole solves — pin the prices
//! of the benchmark's eight scripted solves, and bound the catalog's
//! geometric-mean price.

use conv_spec::benchmarks;
use conv_spec::{ParallelAxis, ALL_INDICES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;
use crate::solver::step_for;

type Function<'a> = Box<dyn Fn(&[f64]) -> f64 + 'a>;

/// One class's min–max problem as separate functions of `x`.
struct Reference<'a> {
    model: &'a MultiLevelModel,
}

impl Reference<'_> {
    /// Seven tile sizes per level, the levels in [`TilingLevel::ALL`] order.
    fn assemble(&self, x: &[f64]) -> MultiLevelTiles {
        let shape = self.model.shape;
        let mut tiles = MultiLevelTiles::full(&shape);
        for (li, level) in TilingLevel::ALL.into_iter().enumerate() {
            let mut t = RealTiles::ones();
            for (j, &idx) in ALL_INDICES.iter().enumerate() {
                t.set(idx, x[li * 7 + j]);
            }
            *tiles.level_mut(level) = t;
        }
        tiles.normalized(&shape)
    }

    fn objective(&self, x: &[f64]) -> f64 {
        let tiles = self.assemble(x);
        TilingLevel::ALL
            .map(|level| self.model.scaled_cost(&tiles, level))
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The capacity constraints, in the order the solver sums its penalty in.
    fn constraints(&self) -> Vec<Function<'_>> {
        TilingLevel::ALL
            .into_iter()
            .map(|level| -> Function<'_> {
                Box::new(move |x| self.model.capacity_slack(&self.assemble(x), level))
            })
            .collect()
    }

    fn upper(&self) -> Vec<f64> {
        let extents = self.model.shape.extents();
        (0..28).map(|j| extents[j % 7] as f64).collect()
    }

    /// The problem a function at a time, for whole solves.
    fn problem(&self) -> Problem<'_> {
        let boxed = Problem::new(28)
            .with_bounds(vec![1.0; 28], self.upper())
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
                let reference = Reference { model: &model };
                let functions = reference.constraints();
                let mut counters = SolveCounters::default();
                let mut remembering = TileEvaluator::new(&model, &mut counters);
                let mut got = vec![0.0; functions.len()];
                let mut fresh_got = vec![0.0; functions.len()];
                let (mut presented, mut expected_pruned) = (0, 0);
                for x in (0..4).flat_map(|_| points(&mut rng, &reference.upper())) {
                    let x = &x;
                    let objective = remembering.evaluate(x, &mut got);
                    let context = || format!("{shape} class {} {parallel:?} at {x:?}", class.id);
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

                    // Nothing remembered: an evaluator that has seen no
                    // other point gives the same values.
                    let mut scratch = SolveCounters::default();
                    let fresh =
                        TileEvaluator::new(&model, &mut scratch).evaluate(x, &mut fresh_got);
                    assert_eq!(fresh.to_bits(), objective.to_bits(), "{}", context());
                    assert_eq!(
                        fresh_got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{}",
                        context()
                    );
                    reused_checks += 1;

                    let tiles = reference.assemble(x);
                    let over =
                        TilingLevel::ALL.iter().any(|&l| model.capacity_slack(&tiles, l) > 0.0);
                    expected_pruned += u64::from(over);
                    presented += 1;
                }
                assert_eq!(counters.enumerated, presented);
                assert_eq!(counters.capacity_pruned, expected_pruned);
            }
        }
    }
    assert!(compared >= 2000 && reused_checks == compared, "{compared} points compared");
}

/// `solve_class` with the problem stated by [`Reference`].
fn reference_solve_class(opt: &MOptOptimizer, model: &MultiLevelModel) -> MultiLevelTiles {
    let extents = opt.shape.extents();
    let reference = Reference { model };
    let mut x0 = Vec::new();
    for frac in [0.05, 0.15, 0.4, 0.8] {
        x0.extend(extents.iter().map(|&e| (e as f64 * frac).max(1.0)));
    }
    let result = solve(&reference.problem(), &x0, opt.options.multistart);
    reference.assemble(&result.x)
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
/// schedule's price, to the bit. `before` is what the paper's four rounds of
/// bottleneck hypotheses served, feeding the same integer stage; one min–max
/// solve may not serve a higher price than that. R2, R4* and D1 fall; the
/// other five keep their bits.
#[test]
fn scripted_solves_price_to_the_pinned_bits() {
    let script: [(&str, usize, Option<LayoutPolicy>, u64, u64); 8] = [
        ("R2", 1, None, 0x41292d4924924923, 0x4126e0fe898231bd),
        ("R3", 1, None, 0x4112800000000000, 0x4112800000000000),
        ("R4*", 1, None, 0x412573cccccccccc, 0x4122642000000000),
        ("R12", 1, None, 0x4132630000000000, 0x4132630000000000),
        ("Y5", 1, None, 0x4142190eef6f513a, 0x4142190eef6f513a),
        ("D1", 1, None, 0x4151f04d79435e50, 0x4151dbb711dc4771),
        ("R6", 4, None, 0x4116080000000000, 0x4116080000000000),
        ("R8", 4, Some(LayoutPolicy::Search), 0x411f16a2e8ba2e8c, 0x411f16a2e8ba2e8c),
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

/// The geometric mean of the served price over the whole catalog (55 ops)
/// at one and at four threads, default options, may not rise above what the
/// paper's four rounds of bottleneck hypotheses served through the same
/// integer stage: a search change that trades some prices for others must
/// not raise them on balance.
#[test]
fn catalog_geomean_price_stays_at_or_below_the_four_round_search() {
    let machine = MachineModel::i7_9700k();
    for (threads, four_rounds) in [(1, 744_170.6), (4, 486_472.1)] {
        let ops = benchmarks::extended_operators();
        assert_eq!(ops.len(), 55);
        let log_sum: f64 = ops
            .iter()
            .map(|op| {
                let options = OptimizerOptions { threads, ..OptimizerOptions::default() };
                let result = MOptOptimizer::new(op.shape, machine.clone(), options).optimize();
                result.best().predicted_cost.ln()
            })
            .sum();
        let geomean = (log_sum / ops.len() as f64).exp();
        assert!(geomean <= four_rounds, "{threads} threads: geomean {geomean:.1} > {four_rounds}");
    }
}
