//! Per-level data-movement reports and bandwidth-scaled cost.

use conv_spec::{MachineModel, TilingLevel};
use serde::{Deserialize, Serialize};

/// Traffic observed at one boundary of the memory hierarchy.
///
/// The boundary for a [`TilingLevel`] `l` is the link that *fills* the
/// storage holding the level-`l` tile: `Register` ↔ L1, `L1` ↔ L2,
/// `L2` ↔ L3, `L3` ↔ DRAM. This matches the paper's `DV_l` quantities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelTraffic {
    /// The tiling level whose fill traffic this records.
    pub level: TilingLevel,
    /// Elements moved *into* the level (loads / fills).
    pub inbound_elems: f64,
    /// Elements moved *out of* the level (stores / write-backs toward the
    /// slower side).
    pub outbound_elems: f64,
}

impl LevelTraffic {
    /// Total elements crossing the boundary in both directions.
    pub fn total(&self) -> f64 {
        self.inbound_elems + self.outbound_elems
    }
}

/// A complete per-level data-movement report for one conv2d execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataMovement {
    /// Traffic per level, indexed by [`TilingLevel::ordinal`].
    pub levels: [LevelTraffic; 4],
    /// Total floating point operations of the computation (for converting the
    /// bottleneck projection to GFLOPS).
    pub flops: f64,
}

impl DataMovement {
    /// A report with zero traffic everywhere.
    pub fn zero(flops: f64) -> Self {
        DataMovement {
            levels: [
                LevelTraffic {
                    level: TilingLevel::Register,
                    inbound_elems: 0.0,
                    outbound_elems: 0.0,
                },
                LevelTraffic { level: TilingLevel::L1, inbound_elems: 0.0, outbound_elems: 0.0 },
                LevelTraffic { level: TilingLevel::L2, inbound_elems: 0.0, outbound_elems: 0.0 },
                LevelTraffic { level: TilingLevel::L3, inbound_elems: 0.0, outbound_elems: 0.0 },
            ],
            flops,
        }
    }

    /// Traffic at a level.
    pub fn level(&self, level: TilingLevel) -> &LevelTraffic {
        &self.levels[level.ordinal()]
    }

    /// Mutable traffic at a level.
    pub fn level_mut(&mut self, level: TilingLevel) -> &mut LevelTraffic {
        &mut self.levels[level.ordinal()]
    }

    /// Total data volume (both directions) at a level, in elements — the
    /// `DV_l` of the paper.
    pub fn volume(&self, level: TilingLevel) -> f64 {
        self.level(level).total()
    }

    /// Bandwidth-scaled cost of a level: `DV_l / BW_l`, in cycles, at the
    /// bandwidth `threads` active threads fill the level with
    /// ([`MachineModel::fill_bandwidth_at`]); the volume is the whole chip's.
    pub fn scaled_cost(&self, level: TilingLevel, machine: &MachineModel, threads: usize) -> f64 {
        self.volume(level) / machine.fill_bandwidth_at(level, threads)
    }

    /// The bottleneck level and its bandwidth-scaled cost (cycles):
    /// `max_l DV_l / BW_l` (Sec. 5).
    pub fn bottleneck(&self, machine: &MachineModel, threads: usize) -> (TilingLevel, f64) {
        TilingLevel::ALL
            .iter()
            .map(|&l| (l, self.scaled_cost(l, machine, threads)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("four levels always present")
    }

    /// Projected execution time in cycles: the larger of the bottleneck
    /// data-movement time and the pure compute time at peak FMA throughput
    /// ([`MachineModel::roofline`]).
    pub fn projected_cycles(&self, machine: &MachineModel, threads: usize) -> f64 {
        machine.roofline(self.flops, self.bottleneck(machine, threads).1, threads).0
    }

    /// Projected performance in GFLOPS for the whole operator.
    pub fn projected_gflops(&self, machine: &MachineModel, threads: usize) -> f64 {
        machine.roofline(self.flops, self.bottleneck(machine, threads).1, threads).1
    }
}

impl std::fmt::Display for DataMovement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DV[Reg]={:.3e} DV[L1]={:.3e} DV[L2]={:.3e} DV[L3]={:.3e}",
            self.volume(TilingLevel::Register),
            self.volume(TilingLevel::L1),
            self.volume(TilingLevel::L2),
            self.volume(TilingLevel::L3),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataMovement {
        let mut dm = DataMovement::zero(1_000_000.0);
        dm.level_mut(TilingLevel::Register).inbound_elems = 4e5;
        dm.level_mut(TilingLevel::Register).outbound_elems = 1e5;
        dm.level_mut(TilingLevel::L1).inbound_elems = 2e5;
        dm.level_mut(TilingLevel::L2).inbound_elems = 1e5;
        dm.level_mut(TilingLevel::L3).inbound_elems = 5e4;
        dm
    }

    #[test]
    fn volumes_sum_directions() {
        let dm = sample();
        assert_eq!(dm.volume(TilingLevel::Register), 5e5);
        assert_eq!(dm.volume(TilingLevel::L1), 2e5);
        assert_eq!(dm.level(TilingLevel::L3).total(), 5e4);
    }

    #[test]
    fn bottleneck_picks_max_scaled_cost() {
        let m = MachineModel::tiny_test_machine();
        let dm = sample();
        // single thread: Reg: 5e5/8, L1: 2e5/4, L2: 1e5/2, L3: 5e4/1
        let (lvl, cost) = dm.bottleneck(&m, 1);
        assert_eq!(lvl, TilingLevel::Register);
        assert!((cost - 5e5 / 8.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_scaling_divides_private_levels_only() {
        let m = MachineModel::tiny_test_machine();
        let dm = sample();
        let reg1 = dm.scaled_cost(TilingLevel::Register, &m, 1);
        let reg2 = dm.scaled_cost(TilingLevel::Register, &m, 2);
        assert!((reg1 / reg2 - 2.0).abs() < 1e-9);
        let l3_1 = dm.scaled_cost(TilingLevel::L3, &m, 1);
        let l3_2 = dm.scaled_cost(TilingLevel::L3, &m, 2);
        assert!((l3_1 - l3_2).abs() < 1e-9);
    }

    #[test]
    fn projection_respects_compute_bound() {
        let m = MachineModel::tiny_test_machine();
        // Tiny data movement, large FLOPs: compute bound.
        let dm = DataMovement::zero(1e9);
        let cycles = dm.projected_cycles(&m, 1);
        let expected = (1e9 / 2.0) / (4.0 * 1.0);
        assert!((cycles - expected).abs() < 1.0);
        assert!(dm.projected_gflops(&m, 1) > 0.0);
    }

    #[test]
    fn projection_memory_bound_case() {
        let m = MachineModel::tiny_test_machine();
        let mut dm = DataMovement::zero(100.0);
        dm.level_mut(TilingLevel::L3).inbound_elems = 1e6;
        let (lvl, _) = dm.bottleneck(&m, 2);
        assert_eq!(lvl, TilingLevel::L3);
        assert!(dm.projected_cycles(&m, 2) >= 1e6 / m.dram_bandwidth);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", sample()).is_empty());
    }
}
