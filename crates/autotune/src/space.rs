//! Template-constrained search space over tiling configurations.
//!
//! TVM's conv2d schedule template exposes `split` knobs whose candidate
//! values are divisors (or small factors) of each loop extent, plus a choice
//! among a few loop orders. The search space here mirrors that: per loop
//! index and tiling level, candidate tile sizes are drawn from the divisors
//! of the extent (augmented with powers of two), and the permutation is drawn
//! from a small template list.

use conv_spec::{
    ConvShape, MachineModel, Permutation, TileConfig, TileSizes, TilingLevel, ALL_INDICES,
    NUM_TILING_LEVELS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A template-constrained configuration space for one operator on one machine.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    shape: ConvShape,
    /// Candidate tile sizes per loop index (shared by all levels; nesting is
    /// repaired after sampling).
    candidates: Vec<Vec<usize>>,
    /// Loop-order templates candidates may use.
    permutations: Vec<Permutation>,
    threads: usize,
}

impl SearchSpace {
    /// Build the space for a shape and machine (the machine provides the
    /// thread count used by sampled configurations).
    pub fn new(shape: &ConvShape, machine: &MachineModel) -> Self {
        let candidates =
            ALL_INDICES.iter().map(|&idx| candidate_sizes(shape.extent(idx))).collect();
        let permutations = vec![
            Permutation::parse("kcrsnhw").expect("template"),
            Permutation::parse("nkcrshw").expect("template"),
            Permutation::parse("nkhwcrs").expect("template"),
            Permutation::parse("nchrswk").expect("template"),
        ];
        SearchSpace { shape: *shape, candidates, permutations, threads: machine.threads }
    }

    /// The operator shape the space describes.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Thread count sampled configurations assume.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The loop-order templates.
    pub fn permutations(&self) -> &[Permutation] {
        &self.permutations
    }

    /// Sample one random configuration.
    pub fn sample(&self, rng: &mut StdRng) -> TileConfig {
        let perm = self.permutations[rng.gen_range(0..self.permutations.len())].clone();
        let mut levels = [TileSizes::ones(); NUM_TILING_LEVELS];
        for level in TilingLevel::ALL {
            let mut t = TileSizes::ones();
            for &idx in &ALL_INDICES {
                let c = &self.candidates[idx.canonical_position()];
                t.set(idx, c[rng.gen_range(0..c.len())]);
            }
            levels[level.ordinal()] = t;
        }
        TileConfig::new(perm, levels, TileSizes::ones()).normalized(&self.shape)
    }

    /// Sample `count` random configurations with a fixed seed (uniform
    /// sampling of the space, as used for the model-validation experiments).
    pub fn sample_many(&self, count: usize, seed: u64) -> Vec<TileConfig> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| self.sample(&mut rng)).collect()
    }

    /// Feature vector of a configuration for the learned cost model:
    /// log2 of every tile size at every level plus a one-hot permutation id.
    pub fn features(&self, config: &TileConfig) -> Vec<f64> {
        let mut f = Vec::with_capacity(7 * NUM_TILING_LEVELS + self.permutations.len());
        for level in TilingLevel::ALL {
            for &idx in &ALL_INDICES {
                f.push((config.level(level).get(idx) as f64).log2());
            }
        }
        for p in &self.permutations {
            f.push(if *p == config.permutation { 1.0 } else { 0.0 });
        }
        f
    }
}

/// Candidate tile sizes for an extent: all divisors, plus powers of two up to
/// the extent, deduplicated and sorted.
fn candidate_sizes(extent: usize) -> Vec<usize> {
    let mut set = std::collections::BTreeSet::new();
    for d in 1..=extent {
        if extent.is_multiple_of(d) {
            set.insert(d);
        }
        if d * d > extent && set.len() > 1 {
            // All divisors <= sqrt have been seen; add their complements.
            let small: Vec<usize> = set.iter().cloned().collect();
            for s in small {
                set.insert(extent / s);
            }
            break;
        }
    }
    let mut p = 1;
    while p < extent {
        set.insert(p);
        p *= 2;
    }
    set.insert(extent);
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        let shape = ConvShape::new(1, 24, 16, 3, 3, 20, 20, 1).unwrap();
        SearchSpace::new(&shape, &MachineModel::i7_9700k())
    }

    #[test]
    fn candidates_include_divisors_and_powers_of_two() {
        let c = candidate_sizes(24);
        for d in [1, 2, 3, 4, 6, 8, 12, 24, 16] {
            assert!(c.contains(&d), "missing {d} in {c:?}");
        }
        assert!(c.iter().all(|&v| v <= 24 || v == 24));
        assert_eq!(candidate_sizes(1), vec![1]);
    }

    #[test]
    fn samples_are_valid_configurations() {
        let s = space();
        for cfg in s.sample_many(50, 99) {
            assert!(cfg.validate(s.shape()).is_ok());
            assert!(s.permutations().contains(&cfg.permutation));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let s = space();
        assert_eq!(s.sample_many(10, 1), s.sample_many(10, 1));
        assert_ne!(s.sample_many(10, 1), s.sample_many(10, 2));
    }

    #[test]
    fn features_have_fixed_length_and_reflect_tiles() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(7);
        let a = s.sample(&mut rng);
        let b = s.sample(&mut rng);
        let fa = s.features(&a);
        let fb = s.features(&b);
        assert_eq!(fa.len(), 7 * NUM_TILING_LEVELS + s.permutations().len());
        assert_eq!(fa.len(), fb.len());
        assert_ne!(fa, fb);
    }
}
