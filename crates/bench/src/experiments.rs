//! Experiment implementations, one function per table / figure of the paper.

use autotune::{ModelGuidedTuner, SearchSpace, Tuner};
use baselines::OneDnnLike;
use conv_spec::{
    benchmarks, BenchmarkOp, ConvShape, MachineModel, Permutation, TileConfig, TilingLevel,
};
use mopt_core::optimizer::{MOptOptimizer, OptimizerOptions};
use mopt_model::cost::single_level_volume;
use mopt_model::multilevel::{MultiLevelModel, ParallelSpec};
use mopt_model::prune::{pruned_classes, sample_tiles};
use serde::{Deserialize, Serialize};

use crate::validation::{validate_operator, ValidationReport};

/// How large the benchmark operators used by an experiment are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// The original Table-1 shapes.
    Full,
    /// Spatial extents capped at `hw`, channel extents capped at `ch`
    /// (structure preserved). Used so the experiments finish quickly.
    Scaled {
        /// Maximum output height/width.
        hw: usize,
        /// Maximum channel count.
        ch: usize,
    },
}

impl ExperimentScale {
    /// The default quick scale used by the committed experiment outputs.
    pub fn quick() -> Self {
        ExperimentScale::Scaled { hw: 28, ch: 128 }
    }

    /// The benchmark operators at this scale.
    pub fn operators(&self) -> Vec<BenchmarkOp> {
        match self {
            ExperimentScale::Full => benchmarks::all_operators(),
            ExperimentScale::Scaled { hw, ch } => benchmarks::scaled_operators(*hw, *ch),
        }
    }
}

/// The command line the `exp_*` binaries share: one count (`--samples N` or
/// `--trials N`, whichever the experiment calls it), `--full` for the
/// unscaled Table-1 shapes, and `--ops A,B,...`. Anything else is ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpArgs {
    /// The value of the count flag, or the experiment's default.
    pub count: usize,
    /// `Full` under `--full`, otherwise [`ExperimentScale::quick`].
    pub scale: ExperimentScale,
    /// The `--ops` list, when given.
    pub ops: Option<Vec<String>>,
}

impl ExpArgs {
    /// Parse the process arguments; `count_flag` names the count
    /// (`"--samples"` or `"--trials"`) and `count` is its default.
    pub fn parse(count_flag: &str, count: usize) -> Self {
        Self::from_argv(std::env::args().skip(1), count_flag, count)
    }

    fn from_argv(mut argv: impl Iterator<Item = String>, count_flag: &str, count: usize) -> Self {
        let mut args = ExpArgs { count, scale: ExperimentScale::quick(), ops: None };
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--full" => args.scale = ExperimentScale::Full,
                "--ops" => {
                    if let Some(list) = argv.next() {
                        args.ops = Some(list.split(',').map(str::to_string).collect());
                    }
                }
                flag if flag == count_flag => {
                    if let Some(n) = argv.next() {
                        args.count = n.parse().unwrap_or(args.count);
                    }
                }
                _ => {}
            }
        }
        args
    }

    /// The `--ops` list, or the experiment's default operators.
    pub fn ops_or(&self, default: &[&str]) -> Vec<String> {
        self.ops.clone().unwrap_or_else(|| default.iter().map(|s| s.to_string()).collect())
    }
}

// ---------------------------------------------------------------------------
// Figure 5: model-prediction loss over a sampled configuration set
// ---------------------------------------------------------------------------

/// One row of the Fig. 5 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Operator label.
    pub name: String,
    /// Number of sampled configurations.
    pub samples: usize,
    /// Top-1 loss of performance (fraction, 0 = model picked the best).
    pub top1_loss: f64,
    /// Top-2 loss.
    pub top2_loss: f64,
    /// Top-5 loss.
    pub top5_loss: f64,
    /// Spearman rank correlation of model cost vs measured cost.
    pub rank_correlation: f64,
}

/// Reproduce Fig. 5: for each operator, sample `samples` configurations from
/// the auto-tuning template space, rank them with the analytical model,
/// "measure" them with the tile-granularity traffic simulator, and report the
/// top-1/2/5 loss of performance.
pub fn fig5_model_loss(
    machine: &MachineModel,
    scale: ExperimentScale,
    samples: usize,
    operators: Option<&[String]>,
) -> Vec<Fig5Row> {
    let ops = filter_ops(scale.operators(), operators);
    ops.iter()
        .map(|op| {
            let report = validation_report(op, machine, samples);
            Fig5Row {
                name: op.name.clone(),
                samples: report.points.len(),
                top1_loss: report.top_k_loss(1),
                top2_loss: report.top_k_loss(2),
                top5_loss: report.top_k_loss(5),
                rank_correlation: report.cost_rank_correlation(),
            }
        })
        .collect()
}

fn validation_report(op: &BenchmarkOp, machine: &MachineModel, samples: usize) -> ValidationReport {
    let space = SearchSpace::new(&op.shape, machine);
    let configs = space.sample_many(samples, 0xF16_5EED ^ op.name.len() as u64);
    validate_operator(&op.name, &op.shape, machine, &configs, 1)
}

// ---------------------------------------------------------------------------
// Figure 6: rank ordering vs measured performance and per-level counters
// ---------------------------------------------------------------------------

/// The Fig. 6 reproduction for one operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Report {
    /// Operator label.
    pub name: String,
    /// Rank correlation of model cost vs measured performance proxy.
    pub performance_correlation: f64,
    /// Rank correlation of model cost vs measured data volume per level
    /// (Register, L1, L2, L3).
    pub volume_correlations: [f64; 4],
    /// The level the model predicts as the bottleneck for the model-best
    /// configuration.
    pub predicted_bottleneck: TilingLevel,
    /// The sampled configurations ordered by predicted cost: pairs of
    /// (predicted cost, measured GFLOPS proxy), ready for plotting.
    pub ordered_points: Vec<(f64, f64)>,
}

/// Reproduce Fig. 6 for a set of operators (the paper uses Resnet9, Mobnet2,
/// Yolo5).
pub fn fig6_rank_correlation(
    machine: &MachineModel,
    scale: ExperimentScale,
    samples: usize,
    operators: &[String],
) -> Vec<Fig6Report> {
    let ops = filter_ops(scale.operators(), Some(operators));
    ops.iter()
        .map(|op| {
            let report = validation_report(op, machine, samples);
            let mut ordered: Vec<(f64, f64)> = report
                .points
                .iter()
                .map(|p| (p.predicted.bottleneck_cost, p.measured_gflops))
                .collect();
            ordered.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            // Correlate predicted cost with measured *performance*: expect a
            // strong negative correlation, report its magnitude with sign.
            let predicted: Vec<f64> =
                report.points.iter().map(|p| p.predicted.bottleneck_cost).collect();
            let perf: Vec<f64> = report.points.iter().map(|p| p.measured_gflops).collect();
            let perf_corr = mopt_core::validation::spearman_correlation(&predicted, &perf);
            let volume_correlations = [
                report.volume_rank_correlation(TilingLevel::Register),
                report.volume_rank_correlation(TilingLevel::L1),
                report.volume_rank_correlation(TilingLevel::L2),
                report.volume_rank_correlation(TilingLevel::L3),
            ];
            let best = report
                .points
                .iter()
                .min_by(|a, b| {
                    a.predicted
                        .bottleneck_cost
                        .partial_cmp(&b.predicted.bottleneck_cost)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("at least one sampled point");
            Fig6Report {
                name: op.name.clone(),
                performance_correlation: perf_corr,
                volume_correlations,
                predicted_bottleneck: best.predicted.bottleneck,
                ordered_points: ordered,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 7 and 8: MOpt vs oneDNN-like vs AutoTVM-like
// ---------------------------------------------------------------------------

/// One row of the Fig. 7 / Fig. 8 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Operator label.
    pub name: String,
    /// Projected (or measured) GFLOPS of the auto-tuner's best configuration.
    pub tvm_like_gflops: f64,
    /// GFLOPS of the library baseline.
    pub onednn_like_gflops: f64,
    /// GFLOPS of MOpt-1.
    pub mopt1_gflops: f64,
    /// GFLOPS of MOpt-5 (best of the top five model configurations).
    pub mopt5_gflops: f64,
}

impl Fig7Row {
    /// MOpt-1 performance relative to the auto-tuner (the bar heights of
    /// Fig. 7/8 are normalized to TVM).
    pub fn mopt1_vs_tvm(&self) -> f64 {
        self.mopt1_gflops / self.tvm_like_gflops.max(1e-12)
    }

    /// oneDNN-like performance relative to the auto-tuner.
    pub fn onednn_vs_tvm(&self) -> f64 {
        self.onednn_like_gflops / self.tvm_like_gflops.max(1e-12)
    }

    /// MOpt-1 speed-up over the library baseline.
    pub fn mopt1_vs_onednn(&self) -> f64 {
        self.mopt1_gflops / self.onednn_like_gflops.max(1e-12)
    }
}

/// Reproduce Fig. 7 (i7-9700K) / Fig. 8 (i9-10980XE): for every operator,
/// compare the projected performance of MOpt-1 and MOpt-5 against the
/// oneDNN-like fixed heuristic and an AutoTVM-like budgeted auto-tuner.
///
/// Performance is projected with the same machine-independent figure of merit
/// used for validation (bandwidth-scaled bottleneck data movement combined
/// with the compute ceiling), evaluated on the requested `machine` model, so
/// the experiment reproduces the comparison *shape* without requiring the
/// paper's hardware. The auto-tuner optimizes the measured (simulated) cost,
/// exactly as AutoTVM optimizes wall-clock time.
pub fn fig7_performance_comparison(
    machine: &MachineModel,
    scale: ExperimentScale,
    tuner_trials: usize,
    operators: Option<&[String]>,
) -> Vec<Fig7Row> {
    let ops = filter_ops(scale.operators(), operators);
    let threads = machine.threads;
    ops.iter()
        .map(|op| {
            let shape = op.shape;
            let parallel = ParallelSpec::default_for(&shape, threads);

            // Measured-cost evaluator shared by the tuner and the scoring of
            // library / MOpt configurations.
            let score = |config: &TileConfig| -> f64 {
                projected_gflops(&shape, config, machine, threads, parallel)
            };

            // --- AutoTVM-like tuner.
            let space = SearchSpace::new(&shape, machine);
            let mut tuner = ModelGuidedTuner::new(0xA11CE ^ op.name.len() as u64);
            let result = tuner.tune(
                &space,
                &mut |cfg| {
                    // The tuner minimizes cost = 1 / GFLOPS.
                    1.0 / score(cfg).max(1e-9)
                },
                tuner_trials,
            );
            let tvm_like_gflops = score(&result.best().config);

            // --- oneDNN-like fixed heuristic.
            let lib = OneDnnLike::new(machine.clone());
            let plan = lib.plan(&shape);
            let onednn_like_gflops = score(&plan.config);

            // --- MOpt.
            let mut opts = OptimizerOptions::parallel(machine);
            opts.multistart = 1;
            let optimizer = MOptOptimizer::new(shape, machine.clone(), opts);
            let mopt = optimizer.optimize();
            let mopt1_gflops = score(&mopt.best().config);
            let mopt5_gflops =
                mopt.top(5).iter().map(|c| score(&c.config)).fold(f64::NEG_INFINITY, f64::max);

            Fig7Row {
                name: op.name.clone(),
                tvm_like_gflops,
                onednn_like_gflops,
                mopt1_gflops,
                mopt5_gflops,
            }
        })
        .collect()
}

/// The projected-GFLOPS figure of merit used by the Fig. 7/8 reproduction:
/// the analytical model evaluated with the *configuration's own* permutation
/// and tile sizes on the target machine (i.e. what the measured performance
/// of the generated code is limited by, under the paper's memory-bottleneck
/// assumption).
pub fn projected_gflops(
    shape: &ConvShape,
    config: &TileConfig,
    machine: &MachineModel,
    threads: usize,
    parallel: ParallelSpec,
) -> f64 {
    let model = MultiLevelModel::new(*shape, machine.clone(), config.permutation.clone())
        .with_parallel(parallel);
    model.predict_config(config).projected_gflops(machine, threads)
}

// ---------------------------------------------------------------------------
// Sec. 12: search-cost comparison
// ---------------------------------------------------------------------------

/// One row of the search-cost experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchCostRow {
    /// Operator label.
    pub name: String,
    /// Seconds MOpt spent in design-space exploration.
    pub mopt_seconds: f64,
    /// Seconds the auto-tuner spent for its trial budget.
    pub tuner_seconds: f64,
    /// Auto-tuner trial budget used.
    pub tuner_trials: usize,
}

/// Reproduce the Sec. 12 search-cost observation (MOpt's search time is
/// roughly problem-size independent; the auto-tuner's grows with the
/// operator's work because every trial executes the candidate).
pub fn searchcost_comparison(
    machine: &MachineModel,
    scale: ExperimentScale,
    tuner_trials: usize,
    operators: &[String],
) -> Vec<SearchCostRow> {
    let ops = filter_ops(scale.operators(), Some(operators));
    ops.iter()
        .map(|op| {
            let shape = op.shape;
            let mut opts = OptimizerOptions::parallel(machine);
            opts.multistart = 1;
            let optimizer = MOptOptimizer::new(shape, machine.clone(), opts);
            let mopt = optimizer.optimize();

            let space = SearchSpace::new(&shape, machine);
            let sim = cache_sim::TileTrafficSimulator::new(200_000);
            let start = std::time::Instant::now();
            let mut tuner = ModelGuidedTuner::new(7);
            let _ = tuner.tune(
                &space,
                &mut |cfg| {
                    // Each trial "executes" the candidate on the simulator,
                    // whose cost grows with the operator size — mirroring
                    // AutoTVM's measured-execution trials.
                    let dm = sim.simulate(&shape, cfg);
                    dm.bottleneck(machine, machine.threads).1
                },
                tuner_trials,
            );
            let tuner_seconds = start.elapsed().as_secs_f64();
            SearchCostRow {
                name: op.name.clone(),
                mopt_seconds: mopt.optimize_seconds,
                tuner_seconds,
                tuner_trials,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ablation: 8 pruned classes vs exhaustive 5040 permutations (single level)
// ---------------------------------------------------------------------------

/// One row of the pruning ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Operator label.
    pub name: String,
    /// Best single-level data volume over the 8 pruned class representatives
    /// (minimized over a tile-size sample grid).
    pub pruned_best: f64,
    /// Best single-level data volume over all 5040 permutations on the same
    /// tile-size sample grid.
    pub exhaustive_best: f64,
    /// Number of permutations examined by the exhaustive search.
    pub exhaustive_count: usize,
}

impl AblationRow {
    /// Ratio pruned / exhaustive (1.0 when pruning loses nothing).
    pub fn ratio(&self) -> f64 {
        self.pruned_best / self.exhaustive_best.max(1e-300)
    }
}

/// Empirically verify the pruning theorem: over a grid of sampled tile sizes,
/// the best volume achievable with the 8 pruned representatives equals the
/// best over all 5040 permutations.
pub fn ablation_pruning(
    scale: ExperimentScale,
    samples: usize,
    operators: &[String],
) -> Vec<AblationRow> {
    let ops = filter_ops(scale.operators(), Some(operators));
    let all_perms = Permutation::enumerate_all();
    ops.iter()
        .map(|op| {
            let tiles = sample_tiles(&op.shape, samples);
            let pruned_best = pruned_classes()
                .iter()
                .flat_map(|c| {
                    tiles
                        .iter()
                        .map(|t| single_level_volume(&op.shape, &c.representative, t).total())
                        .collect::<Vec<_>>()
                })
                .fold(f64::INFINITY, f64::min);
            let exhaustive_best = all_perms
                .iter()
                .flat_map(|p| {
                    tiles
                        .iter()
                        .map(|t| single_level_volume(&op.shape, p, t).total())
                        .collect::<Vec<_>>()
                })
                .fold(f64::INFINITY, f64::min);
            AblationRow {
                name: op.name.clone(),
                pruned_best,
                exhaustive_best,
                exhaustive_count: all_perms.len(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------

fn filter_ops(ops: Vec<BenchmarkOp>, names: Option<&[String]>) -> Vec<BenchmarkOp> {
    match names {
        None => ops,
        Some([]) => ops,
        Some(list) => ops
            .into_iter()
            .filter(|op| {
                list.iter().any(|n| {
                    op.name.trim_end_matches('*').eq_ignore_ascii_case(n.trim_end_matches('*'))
                })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale::Scaled { hw: 10, ch: 32 }
    }

    #[test]
    fn scale_preserves_operator_count() {
        assert_eq!(ExperimentScale::Full.operators().len(), 32);
        assert_eq!(tiny_scale().operators().len(), 32);
    }

    #[test]
    fn exp_args_read_their_count_flag_and_ignore_the_rest() {
        let argv = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let defaults = ExpArgs::from_argv(argv(&[]).into_iter(), "--trials", 24);
        assert_eq!(defaults, ExpArgs { count: 24, scale: ExperimentScale::quick(), ops: None });
        assert_eq!(defaults.ops_or(&["Y0", "Y23"]), ["Y0", "Y23"]);
        // `--samples` is another experiment's flag here; a bad or missing
        // count keeps the default.
        let line = argv(&["--samples", "9", "--full", "--ops", "R9,M2", "--trials", "7", "--x"]);
        let parsed = ExpArgs::from_argv(line.into_iter(), "--trials", 24);
        assert_eq!((parsed.count, parsed.scale), (7, ExperimentScale::Full));
        assert_eq!(parsed.ops_or(&["Y0"]), ["R9", "M2"]);
        let bad = ExpArgs::from_argv(argv(&["--trials", "many"]).into_iter(), "--trials", 24);
        assert_eq!(bad.count, 24);
    }

    #[test]
    fn fig5_rows_have_sane_losses() {
        let machine = MachineModel::i7_9700k();
        let names = vec!["R9".to_string(), "M5".to_string()];
        let rows = fig5_model_loss(&machine, tiny_scale(), 16, Some(&names));
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!((0.0..=1.0).contains(&r.top1_loss), "{r:?}");
            assert!(r.top5_loss <= r.top1_loss + 1e-12);
            assert!(r.rank_correlation > 0.0, "model should rank better than random: {r:?}");
        }
    }

    #[test]
    fn fig6_reports_correlations() {
        let machine = MachineModel::i7_9700k();
        let names = vec!["R9".to_string()];
        let reports = fig6_rank_correlation(&machine, tiny_scale(), 16, &names);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.ordered_points.len(), 16);
        // Predicted cost and measured performance should be anti-correlated.
        assert!(r.performance_correlation < 0.0, "corr = {}", r.performance_correlation);
    }

    #[test]
    fn fig7_mopt_competitive_on_small_operator() {
        let machine = MachineModel::i7_9700k();
        let names = vec!["R12".to_string()];
        let rows = fig7_performance_comparison(&machine, tiny_scale(), 12, Some(&names));
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.mopt1_gflops > 0.0 && r.tvm_like_gflops > 0.0 && r.onednn_like_gflops > 0.0);
        assert!(r.mopt5_gflops >= r.mopt1_gflops - 1e-9);
        // The headline claim, scaled down: MOpt-5 should be at least
        // competitive with the budgeted auto-tuner.
        assert!(
            r.mopt5_gflops >= 0.7 * r.tvm_like_gflops,
            "MOpt-5 {} far below tuner {}",
            r.mopt5_gflops,
            r.tvm_like_gflops
        );
    }

    #[test]
    fn searchcost_rows_record_times() {
        let machine = MachineModel::i7_9700k();
        let names = vec!["Y5".to_string()];
        let rows = searchcost_comparison(&machine, tiny_scale(), 4, &names);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].mopt_seconds > 0.0);
        assert!(rows[0].tuner_seconds > 0.0);
        assert_eq!(rows[0].tuner_trials, 4);
    }

    #[test]
    fn pruning_ablation_shows_no_loss() {
        let rows =
            ablation_pruning(ExperimentScale::Scaled { hw: 8, ch: 16 }, 3, &["R12".to_string()]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].exhaustive_count, 5040);
        assert!(
            rows[0].ratio() <= 1.0 + 1e-9,
            "pruned best {} worse than exhaustive {}",
            rows[0].pruned_best,
            rows[0].exhaustive_best
        );
    }

    #[test]
    fn filter_ops_by_name() {
        let ops =
            filter_ops(benchmarks::all_operators(), Some(&["y0".to_string(), "R10".to_string()]));
        assert_eq!(ops.len(), 2);
        let all = filter_ops(benchmarks::all_operators(), None);
        assert_eq!(all.len(), 32);
    }
}
