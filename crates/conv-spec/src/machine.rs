//! Machine (memory hierarchy + compute) descriptions.
//!
//! The paper evaluates on two CPUs:
//!
//! * Intel Core i7-9700K (CoffeeLake): 8 cores, 32 KB L1 / 256 KB L2 per core,
//!   12 MB shared L3, two AVX2 FMA units per core;
//! * Intel Core i9-10980XE (CascadeLake): 18 cores, 32 KB L1 / 1 MB L2 per
//!   core, 24.75 MB shared L3, AVX-512.
//!
//! The analytical model only needs, per memory level: the capacity available
//! to one tile (in elements), whether the level is shared, and the bandwidth
//! of the link toward the next-slower level (used to bandwidth-scale data
//! volumes, Sec. 5). The microkernel needs the SIMD width and FMA
//! latency/throughput (Sec. 6).

use serde::{Deserialize, Serialize};

use crate::tiling::TilingLevel;
use crate::{Fnv1a, SpecError};

/// A memory level: registers or one of the caches, or main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryLevel {
    /// The register file (holds the register tile).
    Registers,
    /// First-level cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory (unbounded capacity).
    Dram,
}

impl MemoryLevel {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            MemoryLevel::Registers => "Reg",
            MemoryLevel::L1 => "L1",
            MemoryLevel::L2 => "L2",
            MemoryLevel::L3 => "L3",
            MemoryLevel::Dram => "DRAM",
        }
    }
}

impl std::fmt::Display for MemoryLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One cache (or register-file) level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheLevel {
    /// Which level this describes.
    pub level: MemoryLevel,
    /// Capacity in *elements* (single-precision floats) available to one core
    /// (for private levels) or to all cores (for shared levels).
    pub capacity_elems: usize,
    /// Whether the level is shared among all cores (true for L3 in both
    /// evaluation machines).
    pub shared: bool,
    /// Sustained bandwidth, in elements per cycle per core, of the link that
    /// feeds this level from the next slower level (e.g. for `L1`, the L2→L1
    /// bandwidth). Used to bandwidth-scale data volumes.
    pub fill_bandwidth: f64,
    /// Cache line size in elements (used by the spatial-locality extension
    /// and by the line-granular simulator).
    pub line_elems: usize,
    /// Associativity (ways); `0` denotes fully associative. Descriptive: the
    /// model and the simulator both assume full associativity.
    pub associativity: usize,
}

/// A machine description: the memory hierarchy plus compute parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// Human-readable machine name.
    pub name: String,
    /// Number of physical cores.
    pub cores: usize,
    /// Number of threads used by the paper's parallel experiments (8 on the
    /// i7, 16 on the i9).
    pub threads: usize,
    /// SIMD vector width in single-precision lanes (8 for AVX2, 16 for
    /// AVX-512).
    pub simd_width: usize,
    /// Number of FMA units per core.
    pub fma_units: usize,
    /// FMA latency in cycles (used with Little's law to size the register
    /// tile, Sec. 6).
    pub fma_latency: usize,
    /// Core clock in GHz (base frequency; the paper locks the clock).
    pub clock_ghz: f64,
    /// Register-file capacity in elements usable by the microkernel
    /// accumulators (e.g. 16 vector registers × 8 lanes on AVX2).
    pub register_elems: usize,
    /// Cache levels, ordered from L1 to L3.
    pub caches: Vec<CacheLevel>,
    /// Bandwidth of the DRAM→L3 link in elements per cycle (whole chip).
    pub dram_bandwidth: f64,
}

impl MachineModel {
    /// The Intel Core i7-9700K (CoffeeLake) description used in the paper
    /// (8 cores, AVX2, 32 KB L1, 256 KB L2, 12 MB shared L3).
    ///
    /// Bandwidth figures are representative sustained values (elements/cycle)
    /// of the class of machine; the paper measures them with synthetic
    /// benchmarks. Their absolute values only matter through the *ratios*
    /// that decide which level is the bottleneck.
    pub fn i7_9700k() -> Self {
        MachineModel {
            name: "Intel i7-9700K (CoffeeLake)".to_string(),
            cores: 8,
            threads: 8,
            simd_width: 8,
            fma_units: 2,
            fma_latency: 5,
            clock_ghz: 3.6,
            register_elems: 16 * 8,
            caches: vec![
                CacheLevel {
                    level: MemoryLevel::L1,
                    capacity_elems: 32 * 1024 / 4,
                    shared: false,
                    fill_bandwidth: 16.0,
                    line_elems: 16,
                    associativity: 8,
                },
                CacheLevel {
                    level: MemoryLevel::L2,
                    capacity_elems: 256 * 1024 / 4,
                    shared: false,
                    fill_bandwidth: 8.0,
                    line_elems: 16,
                    associativity: 4,
                },
                CacheLevel {
                    level: MemoryLevel::L3,
                    capacity_elems: 12 * 1024 * 1024 / 4,
                    shared: true,
                    fill_bandwidth: 4.0,
                    line_elems: 16,
                    associativity: 16,
                },
            ],
            dram_bandwidth: 2.0,
        }
    }

    /// The Intel Core i9-10980XE (CascadeLake) description used in the paper
    /// (18 cores, AVX-512, 32 KB L1, 1 MB L2, 24.75 MB shared L3; the paper
    /// runs with 16 threads).
    pub fn i9_10980xe() -> Self {
        MachineModel {
            name: "Intel i9-10980XE (CascadeLake)".to_string(),
            cores: 18,
            threads: 16,
            simd_width: 16,
            fma_units: 2,
            fma_latency: 5,
            clock_ghz: 3.0,
            register_elems: 32 * 16,
            caches: vec![
                CacheLevel {
                    level: MemoryLevel::L1,
                    capacity_elems: 32 * 1024 / 4,
                    shared: false,
                    fill_bandwidth: 32.0,
                    line_elems: 16,
                    associativity: 8,
                },
                CacheLevel {
                    level: MemoryLevel::L2,
                    capacity_elems: 1024 * 1024 / 4,
                    shared: false,
                    fill_bandwidth: 16.0,
                    line_elems: 16,
                    associativity: 16,
                },
                CacheLevel {
                    level: MemoryLevel::L3,
                    capacity_elems: (24.75 * 1024.0 * 1024.0 / 4.0) as usize,
                    shared: true,
                    fill_bandwidth: 6.0,
                    line_elems: 16,
                    associativity: 11,
                },
            ],
            dram_bandwidth: 3.0,
        }
    }

    /// A small synthetic machine used by unit tests and fast examples
    /// (tiny caches so interesting tiling decisions arise at small problem
    /// sizes).
    pub fn tiny_test_machine() -> Self {
        MachineModel {
            name: "tiny-test".to_string(),
            cores: 2,
            threads: 2,
            simd_width: 4,
            fma_units: 1,
            fma_latency: 4,
            clock_ghz: 1.0,
            register_elems: 32,
            caches: vec![
                CacheLevel {
                    level: MemoryLevel::L1,
                    capacity_elems: 256,
                    shared: false,
                    fill_bandwidth: 8.0,
                    line_elems: 4,
                    associativity: 4,
                },
                CacheLevel {
                    level: MemoryLevel::L2,
                    capacity_elems: 2048,
                    shared: false,
                    fill_bandwidth: 4.0,
                    line_elems: 4,
                    associativity: 4,
                },
                CacheLevel {
                    level: MemoryLevel::L3,
                    capacity_elems: 16384,
                    shared: true,
                    fill_bandwidth: 2.0,
                    line_elems: 4,
                    associativity: 8,
                },
            ],
            dram_bandwidth: 1.0,
        }
    }

    /// The canonical spelling of every [`preset`](Self::preset), in the order
    /// an "unknown preset" message lists them.
    pub const PRESET_NAMES: [&'static str; 3] = ["i7-9700k", "i9-10980xe", "tiny"];

    /// A machine preset by name — one of [`PRESET_NAMES`](Self::PRESET_NAMES)
    /// or a short form of one, folded by [`crate::normalized_name`].
    pub fn preset(name: &str) -> Option<Self> {
        match crate::normalized_name(name).as_str() {
            "i79700k" | "i7" | "coffeelake" => Some(Self::i7_9700k()),
            "i910980xe" | "i9" | "cascadelake" => Some(Self::i9_10980xe()),
            "tiny" | "tinytest" | "test" => Some(Self::tiny_test_machine()),
            _ => None,
        }
    }

    /// Check that every parameter the cost model divides by or sizes a tile
    /// against is usable: rates finite and positive, counts and capacities
    /// non-zero. The presets satisfy this by construction; a machine that
    /// arrives from outside the program (a request's inline description) must
    /// be checked before it prices anything — a zero bandwidth prices every
    /// schedule at infinity.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidMachine`] naming the first bad field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let rates = [("clock_ghz", self.clock_ghz), ("dram_bandwidth", self.dram_bandwidth)];
        let counts = [
            ("cores", self.cores),
            ("threads", self.threads),
            ("simd_width", self.simd_width),
            ("fma_units", self.fma_units),
            ("register_elems", self.register_elems),
        ];
        let of = |c: &CacheLevel, field: &str| format!("{} {field}", c.level);
        let rates = rates
            .into_iter()
            .map(|(field, v)| (field.to_string(), v))
            .chain(self.caches.iter().map(|c| (of(c, "fill_bandwidth"), c.fill_bandwidth)));
        let counts = counts.into_iter().map(|(field, v)| (field.to_string(), v)).chain(
            self.caches.iter().flat_map(|c| {
                [(of(c, "capacity_elems"), c.capacity_elems), (of(c, "line_elems"), c.line_elems)]
            }),
        );
        for (field, v) in rates {
            if !(v.is_finite() && v > 0.0) {
                let message = format!("{field} must be finite and > 0 (got {v})");
                return Err(SpecError::InvalidMachine(message));
            }
        }
        for (field, v) in counts {
            if v == 0 {
                return Err(SpecError::InvalidMachine(format!("{field} must be non-zero")));
            }
        }
        Ok(())
    }

    /// The cache description for a memory level, if it is a cache level.
    pub fn cache(&self, level: MemoryLevel) -> Option<&CacheLevel> {
        self.caches.iter().find(|c| c.level == level)
    }

    /// Capacity, in elements, usable by one tile at a tiling level.
    ///
    /// For the register level this is the register-file budget; for cache
    /// levels it is that cache's capacity. Shared caches are reported whole;
    /// the parallel cost model divides them by the thread count where
    /// appropriate.
    pub fn capacity(&self, level: TilingLevel) -> usize {
        match level {
            TilingLevel::Register => self.register_elems,
            TilingLevel::L1 => self.cache(MemoryLevel::L1).map_or(0, |c| c.capacity_elems),
            TilingLevel::L2 => self.cache(MemoryLevel::L2).map_or(0, |c| c.capacity_elems),
            TilingLevel::L3 => self.cache(MemoryLevel::L3).map_or(0, |c| c.capacity_elems),
        }
    }

    /// Capacity, in elements, available to *one* thread at a tiling level
    /// when `threads` active threads share the chip.
    ///
    /// Private levels (registers, L1, L2 on both evaluation machines) are
    /// per-core and unaffected; shared levels divide their capacity evenly
    /// among the active threads — the contention model the multicore cost
    /// uses for its capacity constraints. At `threads == 1` this is exactly
    /// [`capacity`](Self::capacity).
    pub fn capacity_per_thread(&self, level: TilingLevel, threads: usize) -> usize {
        let cap = self.capacity(level);
        let threads = threads.max(1);
        if threads == 1 {
            return cap;
        }
        let shared = match level {
            TilingLevel::Register => false,
            TilingLevel::L1 => self.cache(MemoryLevel::L1).is_some_and(|c| c.shared),
            TilingLevel::L2 => self.cache(MemoryLevel::L2).is_some_and(|c| c.shared),
            TilingLevel::L3 => self.cache(MemoryLevel::L3).is_some_and(|c| c.shared),
        };
        if shared {
            (cap / threads).max(1)
        } else {
            cap
        }
    }

    /// Bandwidth (elements / cycle, per core for private levels, whole chip
    /// for shared levels) of the link that *fills* a tiling level:
    /// Register ← L1, L1 ← L2, L2 ← L3, L3 ← DRAM.
    pub fn fill_bandwidth(&self, level: TilingLevel) -> f64 {
        match level {
            TilingLevel::Register => self.cache(MemoryLevel::L1).map_or(1.0, |c| c.fill_bandwidth),
            TilingLevel::L1 => self.cache(MemoryLevel::L2).map_or(1.0, |c| c.fill_bandwidth),
            TilingLevel::L2 => self.cache(MemoryLevel::L3).map_or(1.0, |c| c.fill_bandwidth),
            TilingLevel::L3 => self.dram_bandwidth,
        }
    }

    /// Bandwidth (elements / cycle, whole chip) at which `threads` active
    /// threads fill a tiling level: every core fills its private levels at
    /// once, so they scale with the thread count, while the L3-fill (DRAM)
    /// boundary is one link for the chip and does not (Sec. 7). A volume
    /// divided by this is that level's bandwidth-scaled cost `DV_l / BW_l`.
    ///
    /// With [`roofline`](Self::roofline) this is the only statement of how a
    /// data volume becomes time; the model, the layout-transform prices and
    /// the simulator's reports all divide by it.
    pub fn fill_bandwidth_at(&self, level: TilingLevel, threads: usize) -> f64 {
        let bw = self.fill_bandwidth(level);
        match level {
            TilingLevel::L3 => bw,
            _ => bw * threads.max(1) as f64,
        }
    }

    /// The roofline: `(cycles, GFLOP/s)` of `flops` floating-point operations
    /// whose bottleneck boundary needs `memory_cycles` — the larger of that
    /// and the compute time at peak FMA throughput on `threads` cores,
    /// converted at the core clock. Zero work projects to `0.0` GFLOP/s.
    pub fn roofline(&self, flops: f64, memory_cycles: f64, threads: usize) -> (f64, f64) {
        let fmas_per_cycle = (self.simd_width * self.fma_units * threads.max(1)) as f64;
        let compute_cycles = (flops / 2.0) / fmas_per_cycle;
        let cycles = memory_cycles.max(compute_cycles);
        if cycles <= 0.0 {
            return (cycles, 0.0);
        }
        (cycles, flops / (cycles / (self.clock_ghz * 1e9)) / 1e9)
    }

    /// A stable 64-bit fingerprint of every model parameter that influences
    /// optimization results.
    ///
    /// Two machines with the same fingerprint produce identical optimizer
    /// outputs, so cached schedules can be keyed on it. The hash is a fixed
    /// FNV-1a (not `std::hash`, whose SipHash keys are randomized per
    /// process), so fingerprints are stable across processes and platforms —
    /// a requirement for persisted schedule caches.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(self.name.as_bytes());
        for v in [
            self.cores as u64,
            self.threads as u64,
            self.simd_width as u64,
            self.fma_units as u64,
            self.fma_latency as u64,
            self.clock_ghz.to_bits(),
            self.register_elems as u64,
            self.dram_bandwidth.to_bits(),
            self.caches.len() as u64,
        ] {
            h.u64(v);
        }
        for c in &self.caches {
            for v in [
                c.level as u64,
                c.capacity_elems as u64,
                c.shared as u64,
                c.fill_bandwidth.to_bits(),
                c.line_elems as u64,
                c.associativity as u64,
            ] {
                h.u64(v);
            }
        }
        h.finish()
    }
}

impl std::fmt::Display for MachineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} cores, {}-wide SIMD, L1 {} KiB, L2 {} KiB, L3 {} KiB)",
            self.name,
            self.cores,
            self.simd_width,
            self.capacity(TilingLevel::L1) * 4 / 1024,
            self.capacity(TilingLevel::L2) * 4 / 1024,
            self.capacity(TilingLevel::L3) * 4 / 1024,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i7_matches_paper_cache_sizes() {
        let m = MachineModel::i7_9700k();
        assert_eq!(m.cores, 8);
        assert_eq!(m.capacity(TilingLevel::L1) * 4, 32 * 1024);
        assert_eq!(m.capacity(TilingLevel::L2) * 4, 256 * 1024);
        assert_eq!(m.capacity(TilingLevel::L3) * 4, 12 * 1024 * 1024);
        assert_eq!(m.simd_width, 8);
    }

    #[test]
    fn i9_matches_paper_cache_sizes() {
        let m = MachineModel::i9_10980xe();
        assert_eq!(m.cores, 18);
        assert_eq!(m.threads, 16);
        assert_eq!(m.capacity(TilingLevel::L2) * 4, 1024 * 1024);
        assert_eq!(m.simd_width, 16);
    }

    #[test]
    fn presets_validate_and_each_hostile_field_is_named() {
        let tiny = MachineModel::tiny_test_machine();
        for m in [MachineModel::i7_9700k(), MachineModel::i9_10980xe(), tiny.clone()] {
            assert_eq!(m.validate(), Ok(()), "{}", m.name);
        }
        type Break = fn(&mut MachineModel);
        let hostile: [(&str, Break); 13] = [
            ("clock_ghz", |m| m.clock_ghz = f64::NAN),
            ("dram_bandwidth", |m| m.dram_bandwidth = 0.0),
            ("dram_bandwidth", |m| m.dram_bandwidth = f64::INFINITY),
            ("dram_bandwidth", |m| m.dram_bandwidth = -1.0),
            ("cores", |m| m.cores = 0),
            ("threads", |m| m.threads = 0),
            ("simd_width", |m| m.simd_width = 0),
            ("fma_units", |m| m.fma_units = 0),
            ("register_elems", |m| m.register_elems = 0),
            ("L2 fill_bandwidth", |m| m.caches[1].fill_bandwidth = 0.0),
            ("L1 capacity_elems", |m| m.caches[0].capacity_elems = 0),
            ("L3 line_elems", |m| m.caches[2].line_elems = 0),
            ("L3 fill_bandwidth", |m| m.caches[2].fill_bandwidth = f64::NEG_INFINITY),
        ];
        for (field, break_it) in hostile {
            let mut m = tiny.clone();
            break_it(&mut m);
            let message = m.validate().expect_err(field).to_string();
            assert!(message.starts_with(&format!("invalid machine: {field} must be")), "{message}");
        }
    }

    #[test]
    fn bandwidths_decrease_moving_away_from_the_core() {
        for m in [
            MachineModel::i7_9700k(),
            MachineModel::i9_10980xe(),
            MachineModel::tiny_test_machine(),
        ] {
            assert!(m.fill_bandwidth(TilingLevel::Register) >= m.fill_bandwidth(TilingLevel::L1));
            assert!(m.fill_bandwidth(TilingLevel::L1) >= m.fill_bandwidth(TilingLevel::L2));
            assert!(m.fill_bandwidth(TilingLevel::L2) >= m.fill_bandwidth(TilingLevel::L3));
        }
    }

    #[test]
    fn capacities_increase_moving_away_from_the_core() {
        for m in [
            MachineModel::i7_9700k(),
            MachineModel::i9_10980xe(),
            MachineModel::tiny_test_machine(),
        ] {
            assert!(m.capacity(TilingLevel::Register) < m.capacity(TilingLevel::L1));
            assert!(m.capacity(TilingLevel::L1) < m.capacity(TilingLevel::L2));
            assert!(m.capacity(TilingLevel::L2) < m.capacity(TilingLevel::L3));
        }
    }

    #[test]
    fn fingerprints_distinguish_machines_and_are_stable() {
        let i7 = MachineModel::i7_9700k();
        let i9 = MachineModel::i9_10980xe();
        let tiny = MachineModel::tiny_test_machine();
        assert_eq!(i7.fingerprint(), MachineModel::i7_9700k().fingerprint());
        assert_ne!(i7.fingerprint(), i9.fingerprint());
        assert_ne!(i7.fingerprint(), tiny.fingerprint());
        assert_ne!(i9.fingerprint(), tiny.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_every_parameter_class() {
        let base = MachineModel::i7_9700k();
        let mut threads = base.clone();
        threads.threads = 4;
        assert_ne!(base.fingerprint(), threads.fingerprint());
        let mut clock = base.clone();
        clock.clock_ghz += 0.1;
        assert_ne!(base.fingerprint(), clock.fingerprint());
        let mut cache = base.clone();
        cache.caches[0].capacity_elems *= 2;
        assert_ne!(base.fingerprint(), cache.fingerprint());
        let mut bw = base.clone();
        bw.caches[2].fill_bandwidth += 1.0;
        assert_ne!(base.fingerprint(), bw.fingerprint());
    }

    #[test]
    fn per_thread_capacity_divides_shared_levels_only() {
        let m = MachineModel::i7_9700k();
        // threads == 1 is the whole-cache view, bit for bit.
        for level in TilingLevel::ALL {
            assert_eq!(m.capacity_per_thread(level, 1), m.capacity(level));
            assert_eq!(m.capacity_per_thread(level, 0), m.capacity(level));
        }
        // Private L1/L2 (and registers) are per-core: unaffected by threads.
        assert_eq!(m.capacity_per_thread(TilingLevel::Register, 8), m.register_elems);
        assert_eq!(m.capacity_per_thread(TilingLevel::L1, 8), m.capacity(TilingLevel::L1));
        assert_eq!(m.capacity_per_thread(TilingLevel::L2, 8), m.capacity(TilingLevel::L2));
        // The shared L3 splits evenly among active threads.
        assert_eq!(m.capacity_per_thread(TilingLevel::L3, 8), m.capacity(TilingLevel::L3) / 8);
        assert_eq!(m.capacity_per_thread(TilingLevel::L3, 3), m.capacity(TilingLevel::L3) / 3);
    }

    #[test]
    fn cache_lookup_and_display() {
        let m = MachineModel::tiny_test_machine();
        assert!(m.cache(MemoryLevel::L1).is_some());
        assert!(m.cache(MemoryLevel::Dram).is_none());
        assert!(!format!("{m}").is_empty());
        assert!(m.cache(MemoryLevel::L3).unwrap().shared);
    }
}
