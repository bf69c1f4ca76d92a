//! The benchmark's only source of randomness: a splitmix64 stream seeded from
//! `--seed`. The program under test never sees the seed, only the request
//! lines, tensors and configurations generated from it.

/// Sebastiano Vigna's splitmix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for one purpose (`stream` names it), so adding a
    /// consumer never shifts the draws another consumer sees.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut root = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64::new(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is < 2^-50 for the `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence() {
        // First outputs of splitmix64 seeded with 1234567 (Vigna's reference
        // implementation).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::fork(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::fork(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::fork(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_is_a_permutation_and_floats_are_in_range() {
        let mut rng = SplitMix64::new(3);
        let mut items: Vec<usize> = (0..204).collect();
        rng.shuffle(&mut items);
        assert_ne!(items, (0..204).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..204).collect::<Vec<_>>());
        assert!((0..1000).map(|_| rng.next_f32()).all(|v| (-1.0..1.0).contains(&v)));
        assert!((0..1000).all(|_| rng.below(17) < 17));
    }
}
