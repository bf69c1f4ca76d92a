//! Search strategies over the template space, all operating under an
//! explicit trial (measurement) budget like AutoTVM.

use conv_spec::TileConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost_model::OnlineCostModel;
use crate::space::SearchSpace;

/// The caller-supplied measurement function: returns the cost of a
/// configuration (seconds, simulated cycles, ... — lower is better).
pub type Evaluator<'a> = dyn FnMut(&TileConfig) -> f64 + 'a;

/// One measured trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// The configuration that was measured.
    pub config: TileConfig,
    /// Its measured cost (lower is better).
    pub cost: f64,
}

/// The outcome of a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Every measured trial, in measurement order.
    pub trials: Vec<Trial>,
    /// Index (into `trials`) of the best configuration.
    pub best_index: usize,
}

impl TuneResult {
    fn from_trials(trials: Vec<Trial>) -> Self {
        assert!(!trials.is_empty(), "a tuning run must measure at least one candidate");
        let best_index = trials
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cost.partial_cmp(&b.1.cost).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        TuneResult { trials, best_index }
    }

    /// The best configuration found.
    pub fn best(&self) -> &Trial {
        &self.trials[self.best_index]
    }
}

/// A search strategy with a measurement budget.
pub trait Tuner {
    /// Run the search, measuring at most `budget` configurations.
    fn tune(
        &mut self,
        space: &SearchSpace,
        evaluate: &mut Evaluator<'_>,
        budget: usize,
    ) -> TuneResult;
}

/// Uniform random search.
#[derive(Debug, Clone)]
pub struct RandomTuner {
    seed: u64,
}

impl RandomTuner {
    /// A random tuner with a seed (for reproducible experiments).
    pub fn new(seed: u64) -> Self {
        RandomTuner { seed }
    }
}

impl Tuner for RandomTuner {
    fn tune(
        &mut self,
        space: &SearchSpace,
        evaluate: &mut Evaluator<'_>,
        budget: usize,
    ) -> TuneResult {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let trials = (0..budget.max(1))
            .map(|_| {
                let config = space.sample(&mut rng);
                let cost = evaluate(&config);
                Trial { config, cost }
            })
            .collect();
        TuneResult::from_trials(trials)
    }
}

/// ε-greedy model-guided search (the AutoTVM-like strategy): batches of
/// candidates are generated, ranked by the learned cost model, and the top
/// candidates (plus a few random ones for exploration) are measured; the
/// model is refit after every batch.
#[derive(Debug, Clone)]
pub struct ModelGuidedTuner {
    seed: u64,
    /// Candidates generated (and ranked by the model) per batch.
    pub pool_size: usize,
    /// Candidates measured per batch.
    pub batch_size: usize,
    /// Fraction of each measured batch drawn at random instead of by rank.
    pub epsilon: f64,
}

impl ModelGuidedTuner {
    /// A model-guided tuner with the defaults used in the experiments.
    pub fn new(seed: u64) -> Self {
        ModelGuidedTuner { seed, pool_size: 64, batch_size: 8, epsilon: 0.2 }
    }
}

impl Tuner for ModelGuidedTuner {
    fn tune(
        &mut self,
        space: &SearchSpace,
        evaluate: &mut Evaluator<'_>,
        budget: usize,
    ) -> TuneResult {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let feature_dim = space.features(&space.sample(&mut rng)).len();
        let mut model = OnlineCostModel::new(feature_dim);
        let mut trials: Vec<Trial> = Vec::with_capacity(budget.max(1));
        while trials.len() < budget.max(1) {
            let remaining = budget.max(1) - trials.len();
            let batch = self.batch_size.min(remaining).max(1);
            // Generate a candidate pool and rank it with the model.
            let pool: Vec<TileConfig> =
                (0..self.pool_size).map(|_| space.sample(&mut rng)).collect();
            let features: Vec<Vec<f64>> = pool.iter().map(|c| space.features(c)).collect();
            let ranked = model.rank(&features);
            let exploit = ((1.0 - self.epsilon) * batch as f64).round() as usize;
            let mut chosen: Vec<usize> = ranked.iter().copied().take(exploit).collect();
            while chosen.len() < batch {
                chosen.push(rng.gen_range(0..pool.len()));
            }
            for idx in chosen {
                let config = pool[idx].clone();
                let cost = evaluate(&config);
                model.observe(space.features(&config), cost);
                trials.push(Trial { config, cost });
                if trials.len() >= budget.max(1) {
                    break;
                }
            }
            model.fit();
        }
        TuneResult::from_trials(trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::{ConvShape, LoopIndex, MachineModel, TilingLevel};

    fn space() -> SearchSpace {
        let shape = ConvShape::new(1, 16, 16, 3, 3, 16, 16, 1).unwrap();
        SearchSpace::new(&shape, &MachineModel::i7_9700k())
    }

    /// A synthetic cost with a clear optimum: prefer register k-tile near 8
    /// and w-tile near 4, penalize everything else.
    fn synthetic_cost(cfg: &TileConfig) -> f64 {
        let reg = cfg.level(TilingLevel::Register);
        let k = reg.get(LoopIndex::K) as f64;
        let w = reg.get(LoopIndex::W) as f64;
        (k - 8.0).powi(2) + (w - 4.0).powi(2) + 1.0
    }

    #[test]
    fn random_tuner_respects_budget_and_finds_reasonable_point() {
        let s = space();
        let mut t = RandomTuner::new(1);
        let res = t.tune(&s, &mut |c| synthetic_cost(c), 60);
        assert_eq!(res.trials.len(), 60);
        assert!(res.best().cost < 30.0, "best {}", res.best().cost);
        assert!(res.trials.iter().all(|t| t.cost >= res.best().cost));
    }

    #[test]
    fn model_guided_tuner_beats_or_matches_random_on_average() {
        let s = space();
        let budget = 48;
        let mut random_best = Vec::new();
        let mut guided_best = Vec::new();
        for seed in 0..3 {
            let mut r = RandomTuner::new(seed);
            random_best.push(r.tune(&s, &mut |c| synthetic_cost(c), budget).best().cost);
            let mut g = ModelGuidedTuner::new(seed);
            guided_best.push(g.tune(&s, &mut |c| synthetic_cost(c), budget).best().cost);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&guided_best) <= avg(&random_best) * 1.5,
            "guided {guided_best:?} much worse than random {random_best:?}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let s = space();
        let run = |seed| RandomTuner::new(seed).tune(&s, &mut |c| synthetic_cost(c), 10);
        assert_eq!(run(9).best().config, run(9).best().config);
    }

    #[test]
    fn budget_of_one_still_works() {
        let s = space();
        let res = ModelGuidedTuner::new(0).tune(&s, &mut |c| synthetic_cost(c), 1);
        assert_eq!(res.trials.len(), 1);
        assert_eq!(res.best_index, 0);
    }
}
