//! Model validation (Sec. 9, Figures 5 and 6): sample tile configurations,
//! predict each with the analytical model, "measure" it with the
//! tile-traffic simulator ([`crate::sim`]), and compare the two rankings
//! with `mopt_core::validation`'s rank statistics.
//!
//! This lives beside the simulator and the experiments that run it —
//! [`crate::fig5_model_loss`], [`crate::fig6_rank_correlation`] — so that the
//! optimizer and the serving stack do not link the simulator that checks
//! them.

use conv_spec::{ConvShape, MachineModel, TileConfig, TilingLevel};
use mopt_core::validation::{spearman_correlation, top_k_loss};
use mopt_model::multilevel::{ModelPrediction, MultiLevelModel, ParallelSpec};
use serde::{Deserialize, Serialize};

use crate::sim::TileTrafficSimulator;

/// One validated configuration: the model's view and the measured view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationPoint {
    /// The configuration.
    pub config: TileConfig,
    /// Model prediction.
    pub predicted: ModelPrediction,
    /// Measured (simulated) data volume per level, elements.
    pub measured_volumes: [f64; 4],
    /// Measured figure of merit: bandwidth-scaled bottleneck cost computed
    /// from the measured volumes (lower is better).
    pub measured_cost: f64,
    /// Measured performance proxy in GFLOPS (from the measured cost and the
    /// machine's compute ceiling).
    pub measured_gflops: f64,
}

/// A per-operator validation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Operator name (e.g. `"R9"`).
    pub name: String,
    /// All validated points.
    pub points: Vec<ValidationPoint>,
}

impl ValidationReport {
    /// Spearman rank correlation between the model's figure of merit and the
    /// measured cost (positive and high when the model ranks well).
    pub fn cost_rank_correlation(&self) -> f64 {
        let predicted: Vec<f64> = self.points.iter().map(|p| p.predicted.bottleneck_cost).collect();
        let measured: Vec<f64> = self.points.iter().map(|p| p.measured_cost).collect();
        spearman_correlation(&predicted, &measured)
    }

    /// Spearman rank correlation between the model's figure of merit and the
    /// measured data volume at one level (the per-counter rows of Fig. 6).
    pub fn volume_rank_correlation(&self, level: TilingLevel) -> f64 {
        let predicted: Vec<f64> = self.points.iter().map(|p| p.predicted.bottleneck_cost).collect();
        let measured: Vec<f64> =
            self.points.iter().map(|p| p.measured_volumes[level.ordinal()]).collect();
        spearman_correlation(&predicted, &measured)
    }

    /// Top-k loss of performance (Fig. 5): how much slower the best of the
    /// model's top-k picks is than the measured-best configuration.
    pub fn top_k_loss(&self, k: usize) -> f64 {
        let predicted: Vec<f64> = self.points.iter().map(|p| p.predicted.bottleneck_cost).collect();
        let measured_perf: Vec<f64> = self.points.iter().map(|p| p.measured_gflops).collect();
        top_k_loss(&predicted, &measured_perf, k)
    }
}

/// Validate one operator: predict and "measure" (via the tile-granularity
/// traffic simulator) every sampled configuration. The measured figures are
/// the simulator report's own bottleneck and roofline projection — the same
/// rule the model's prediction is priced with, applied to measured volumes.
pub fn validate_operator(
    name: &str,
    shape: &ConvShape,
    machine: &MachineModel,
    configs: &[TileConfig],
    threads: usize,
) -> ValidationReport {
    // A modest per-level tile budget keeps the "measurement" of a full
    // 32-operator sweep in the minutes range; the extrapolation error of the
    // truncated walk is well under the differences being ranked.
    let sim = TileTrafficSimulator::new(120_000);
    let parallel = ParallelSpec::default_for(shape, threads);
    let points = configs
        .iter()
        .map(|config| {
            let model = MultiLevelModel::new(*shape, machine.clone(), config.permutation.clone())
                .with_parallel(parallel);
            let dm = sim.simulate(shape, config);
            ValidationPoint {
                config: config.clone(),
                predicted: model.predict_config(config),
                measured_volumes: TilingLevel::ALL.map(|level| dm.volume(level)),
                measured_cost: dm.bottleneck(machine, threads).1,
                measured_gflops: dm.projected_gflops(machine, threads),
            }
        })
        .collect();
    ValidationReport { name: name.to_string(), points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune::SearchSpace;

    #[test]
    fn validation_report_on_small_operator() {
        let shape = ConvShape::new(1, 16, 16, 3, 3, 14, 14, 1).unwrap();
        let machine = MachineModel::i7_9700k();
        let configs = SearchSpace::new(&shape, &machine).sample_many(24, 7);
        let report = validate_operator("test-op", &shape, &machine, &configs, 1);
        assert_eq!(report.points.len(), 24);
        // The model should rank configurations broadly like the simulator.
        let corr = report.cost_rank_correlation();
        assert!(corr > 0.5, "rank correlation too weak: {corr}");
        // Top-5 loss should not exceed top-1 loss.
        assert!(report.top_k_loss(5) <= report.top_k_loss(1) + 1e-12);
        // Losses are valid fractions.
        for k in [1, 2, 5] {
            let loss = report.top_k_loss(k);
            assert!((0.0..=1.0).contains(&loss));
        }
    }
}
