//! Pruning of tile-loop permutations (Sec. 4 of the paper).
//!
//! Of the 7! = 5040 permutations of the seven tile loops, algebraic analysis
//! of the cost expressions shows that only **eight equivalence classes** need
//! to be considered: every other permutation is either cost-equivalent to a
//! member of one of these classes or dominated by one (its optimal cost can
//! never be lower). The classes, written as in the paper with the innermost
//! loop on the right and `{..}` denoting "any order within the band":
//!
//! | # | class |
//! |---|-------|
//! | 1 | ⟨{kt, ct, rt, st}, {nt, ht}, wt⟩ |
//! | 2 | ⟨{kt, ct, rt, st}, {nt, wt}, ht⟩ |
//! | 3 | ⟨{nt, kt, ht, wt}, {ct, rt}, st⟩ |
//! | 4 | ⟨{nt, kt, ht, wt}, {ct, st}, rt⟩ |
//! | 5 | ⟨{nt, ct, ht, rt, st}, wt, kt⟩ |
//! | 6 | ⟨{nt, ct, wt, rt, st}, ht, kt⟩ |
//! | 7 | ⟨{nt, ct, ht, wt, rt}, st, kt⟩ |
//! | 8 | ⟨{nt, ct, ht, wt, st}, rt, kt⟩ |
//!
//! The classification is purely structural (which index is innermost, which
//! band sits above it), so it is unchanged by the generalized shapes: stride,
//! dilation, and channel groups only rescale the per-class cost expressions
//! (wider input halos, a `1/groups` smaller C reduction, a group-span factor
//! on the input terms) without reordering which classes can dominate. The
//! numeric dominance checks below are exercised against dilated and grouped
//! shapes as well as the paper's dense ones.

use conv_spec::{ConvShape, LoopIndex, Permutation};
use serde::{Deserialize, Serialize};

use crate::cost::RealTiles;

/// One of the eight pruned permutation classes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PermutationClass {
    /// Class number, 1..=8, in the order the paper lists them.
    pub id: usize,
    /// A human-readable description of the class structure.
    pub description: String,
    /// The representative permutation used for tile-size optimization (any
    /// member of the class has exactly the same cost expression).
    pub representative: Permutation,
    /// The innermost tile-loop index of every member of the class.
    pub innermost: LoopIndex,
    /// Number of concrete permutations that belong to the class.
    pub member_count: usize,
}

impl std::fmt::Display for PermutationClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class {}: {} (rep {})", self.id, self.description, self.representative)
    }
}

/// How many classes [`pruned_classes`] returns.
pub const NUM_CLASSES: usize = 8;

/// The eight pruned permutation classes of Sec. 4, with representatives.
pub fn pruned_classes() -> Vec<PermutationClass> {
    let mk =
        |id: usize, desc: &str, rep: &str, innermost: LoopIndex, members: usize| PermutationClass {
            id,
            description: desc.to_string(),
            representative: Permutation::parse(rep).expect("valid representative"),
            innermost,
            member_count: members,
        };
    vec![
        mk(1, "<{kt,ct,rt,st},{nt,ht},wt>", "kcrsnhw", LoopIndex::W, 24 * 2),
        mk(2, "<{kt,ct,rt,st},{nt,wt},ht>", "kcrsnwh", LoopIndex::H, 24 * 2),
        mk(3, "<{nt,kt,ht,wt},{ct,rt},st>", "nkhwcrs", LoopIndex::S, 24 * 2),
        mk(4, "<{nt,kt,ht,wt},{ct,st},rt>", "nkhwcsr", LoopIndex::R, 24 * 2),
        mk(5, "<{nt,ct,ht,rt,st},wt,kt>", "nchrswk", LoopIndex::K, 120),
        mk(6, "<{nt,ct,wt,rt,st},ht,kt>", "ncwrshk", LoopIndex::K, 120),
        mk(7, "<{nt,ct,ht,wt,rt},st,kt>", "nchwrsk", LoopIndex::K, 120),
        mk(8, "<{nt,ct,ht,wt,st},rt,kt>", "nchwsrk", LoopIndex::K, 120),
    ]
}

/// Determine which pruned class (if any) an arbitrary permutation belongs to.
///
/// Membership is purely structural: the innermost loop and, where relevant,
/// the band immediately above it must match the class definition. A
/// permutation that belongs to no class is one of the dominated cases that
/// the optimization never needs to consider.
pub fn classify(perm: &Permutation) -> Option<usize> {
    use LoopIndex::*;
    let inner = perm.inner_to_outer();
    let p1 = inner[0];
    let p2 = inner[1];
    let p3 = inner[2];
    let band2: [LoopIndex; 2] = [p2, p3];
    let band_contains = |band: &[LoopIndex; 2], a: LoopIndex, b: LoopIndex| {
        (band[0] == a && band[1] == b) || (band[0] == b && band[1] == a)
    };
    match p1 {
        W if band_contains(&band2, N, H) => Some(1),
        H if band_contains(&band2, N, W) => Some(2),
        S if band_contains(&band2, C, R) => Some(3),
        R if band_contains(&band2, C, S) => Some(4),
        K => match p2 {
            W => Some(5),
            H => Some(6),
            S => Some(7),
            R => Some(8),
            _ => None,
        },
        _ => None,
    }
}

/// A small deterministic set of tile-size samples spanning the problem space,
/// used by equivalence / dominance checks.
pub fn sample_tiles(shape: &ConvShape, count: usize) -> Vec<RealTiles> {
    let mut out = Vec::with_capacity(count);
    let extents = shape.extents();
    // A simple low-discrepancy-ish sweep: geometric fractions of each extent.
    for i in 0..count {
        let mut t = [1.0f64; 7];
        for (j, &e) in extents.iter().enumerate() {
            let frac = ((i * 7 + j * 3 + 1) % 11) as f64 / 11.0;
            let v = (e as f64).powf(0.2 + 0.8 * frac).round().clamp(1.0, e as f64);
            t[j] = v;
        }
        out.push(RealTiles::from_array(t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::single_level_volume;

    /// Numerically check whether two permutations have identical cost expressions
    /// by evaluating them on a set of sampled tile sizes for a shape.
    fn cost_equivalent(
        shape: &ConvShape,
        a: &Permutation,
        b: &Permutation,
        samples: &[RealTiles],
    ) -> bool {
        samples.iter().all(|t| {
            let va = single_level_volume(shape, a, t).total();
            let vb = single_level_volume(shape, b, t).total();
            (va - vb).abs() <= 1e-9 * va.abs().max(vb.abs()).max(1.0)
        })
    }

    /// For a given shape, verify (numerically, over sampled tile sizes) that the
    /// minimum cost over the eight pruned representatives is no worse than the
    /// cost of `perm` at each sample — i.e. that considering only the pruned
    /// classes cannot lose the optimum. Returns the largest observed ratio
    /// `min_pruned / other` (≤ 1 + tolerance when pruning is sound).
    fn dominance_ratio(shape: &ConvShape, perm: &Permutation, samples: &[RealTiles]) -> f64 {
        let classes = pruned_classes();
        let mut worst: f64 = 0.0;
        for t in samples {
            let other = single_level_volume(shape, perm, t).total();
            let best_pruned = classes
                .iter()
                .map(|c| single_level_volume(shape, &c.representative, t).total())
                .fold(f64::INFINITY, f64::min);
            worst = worst.max(best_pruned / other);
        }
        worst
    }

    fn shape() -> ConvShape {
        ConvShape::new(2, 16, 8, 3, 3, 14, 14, 1).unwrap()
    }

    #[test]
    fn there_are_exactly_eight_classes() {
        let classes = pruned_classes();
        assert_eq!(classes.len(), NUM_CLASSES);
        let ids: Vec<usize> = classes.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // Representatives are themselves classified into their own class.
        for c in &classes {
            assert_eq!(classify(&c.representative), Some(c.id), "{c}");
        }
    }

    #[test]
    fn class_member_counts_sum_as_in_the_paper() {
        // 4 classes of 48 members + 4 classes of 120 members = 672 permutations
        // are represented; the remaining 5040 - 672 are dominated.
        let total: usize = pruned_classes().iter().map(|c| c.member_count).sum();
        assert_eq!(total, 4 * 48 + 4 * 120);
    }

    #[test]
    fn classify_counts_members_over_all_permutations() {
        let mut counts = [0usize; 9];
        let mut unclassified = 0usize;
        for p in Permutation::enumerate_all() {
            match classify(&p) {
                Some(id) => counts[id] += 1,
                None => unclassified += 1,
            }
        }
        let classes = pruned_classes();
        for c in &classes {
            assert_eq!(counts[c.id], c.member_count, "class {} member count", c.id);
        }
        assert_eq!(unclassified + counts.iter().sum::<usize>(), 5040);
    }

    #[test]
    fn all_members_of_each_class_are_cost_equivalent_to_the_representative() {
        let s = shape();
        let samples = sample_tiles(&s, 6);
        let classes = pruned_classes();
        let mut checked = 0;
        for p in Permutation::enumerate_all() {
            if let Some(id) = classify(&p) {
                let rep = &classes[id - 1].representative;
                assert!(
                    cost_equivalent(&s, rep, &p, &samples),
                    "permutation {p} is not cost-equivalent to its class representative {rep}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 672);
    }

    #[test]
    fn pruned_classes_dominate_a_sample_of_other_permutations() {
        // For a selection of dominated permutations, the best pruned class is
        // never worse at any sampled tile size.
        let s = shape();
        let samples = sample_tiles(&s, 8);
        for text in ["nkcrshw", "whscrkn", "knchsrw", "crshwkn", "hwnkcrs", "swhrcnk"] {
            let p = Permutation::parse(text).unwrap();
            let ratio = dominance_ratio(&s, &p, &samples);
            assert!(ratio <= 1.0 + 1e-9, "pruned classes fail to dominate {text}: ratio {ratio}");
        }
    }

    #[test]
    fn dominance_holds_across_random_permutations_and_shapes() {
        // A broader randomized check of the pruning theorem.
        let shapes = [
            ConvShape::new(1, 32, 16, 3, 3, 28, 28, 1).unwrap(),
            ConvShape::new(1, 64, 64, 1, 1, 17, 17, 1).unwrap(),
            ConvShape::new(1, 16, 3, 7, 7, 56, 56, 2).unwrap(),
        ];
        let all = Permutation::enumerate_all();
        for (i, s) in shapes.iter().enumerate() {
            let samples = sample_tiles(s, 4);
            // Stride across the permutation list for coverage without cost.
            for p in all.iter().skip(i * 13).step_by(97) {
                let ratio = dominance_ratio(s, p, &samples);
                assert!(
                    ratio <= 1.0 + 1e-9,
                    "pruning unsound for shape {s} permutation {p}: ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn dominance_holds_for_dilated_and_grouped_shapes() {
        // The pruning theorem must survive the generalization: for dilated,
        // grouped, and depthwise shapes the eight representatives still
        // dominate a sweep of other permutations at sampled tile sizes.
        let shapes = [
            ConvShape::new(1, 16, 16, 3, 3, 12, 12, 1).unwrap().with_dilation(2).unwrap(),
            ConvShape::new_general(1, 16, 8, 3, 3, 14, 14, 1, 1, 4).unwrap(),
            ConvShape::depthwise(16, 14, 3, 1),
            ConvShape::depthwise(16, 15, 3, 1).with_dilation(2).unwrap(),
        ];
        let all = Permutation::enumerate_all();
        for (i, s) in shapes.iter().enumerate() {
            let samples = sample_tiles(s, 4);
            for p in all.iter().skip(i * 7).step_by(131) {
                let ratio = dominance_ratio(s, p, &samples);
                assert!(
                    ratio <= 1.0 + 1e-9,
                    "pruning unsound for generalized shape {s} permutation {p}: ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn classify_rejects_dominated_structures() {
        // nt innermost and ct innermost are always dominated (Sec. 4).
        assert_eq!(classify(&Permutation::parse("kcrshwn").unwrap()), None);
        assert_eq!(classify(&Permutation::parse("nkrshwc").unwrap()), None);
        // kt innermost but nt or ct immediately above: dominated.
        assert_eq!(classify(&Permutation::parse("wchrsnk").unwrap()), None);
        assert_eq!(classify(&Permutation::parse("whrsnck").unwrap()), None);
    }

    #[test]
    fn sample_tiles_are_within_bounds() {
        let s = shape();
        for t in sample_tiles(&s, 10) {
            for &idx in &conv_spec::ALL_INDICES {
                assert!(t.get(idx) >= 1.0);
                assert!(t.get(idx) <= s.extent(idx) as f64);
            }
        }
    }
}
