//! A multi-level cache hierarchy assembled from a machine description.

use conv_spec::{MachineModel, MemoryLevel, TilingLevel};

use crate::counters::DataMovement;
use crate::lru::{FullyAssocLru, LruStats};

/// A simulated L1/L2/L3 hierarchy (inclusive, write-back, write-allocate) of
/// fully associative LRU caches with unit line size — the paper's idealized
/// model (Sec. 2.2).
///
/// Each access probes L1; a miss probes L2; a further miss probes L3; a miss
/// there goes to DRAM. Register-level traffic is not simulated here — it is
/// accounted for by the trace/tile simulators that drive this hierarchy,
/// because registers are explicitly managed by the microkernel rather than
/// being a cache.
pub struct MemoryHierarchy {
    levels: Vec<(MemoryLevel, FullyAssocLru)>,
    /// Register-level traffic accumulated by the driver (loads, stores).
    register_loads: u64,
    register_stores: u64,
}

impl MemoryHierarchy {
    /// Build a hierarchy for a machine.
    pub fn new(machine: &MachineModel) -> Self {
        let levels = machine
            .caches
            .iter()
            .map(|cache| (cache.level, FullyAssocLru::new(cache.capacity_elems)))
            .collect();
        MemoryHierarchy { levels, register_loads: 0, register_stores: 0 }
    }

    /// Perform one element access (load or store), propagating misses down the
    /// hierarchy. Returns the deepest level that *hit* (`None` if the access
    /// went all the way to DRAM).
    pub fn access(&mut self, addr: usize, is_write: bool) -> Option<MemoryLevel> {
        for (lvl, cache) in self.levels.iter_mut() {
            if cache.access(addr, is_write) {
                return Some(*lvl);
            }
        }
        None
    }

    /// Record register-file traffic (loads/stores between L1 and registers)
    /// accounted by the driving simulator.
    pub fn add_register_traffic(&mut self, loads: u64, stores: u64) {
        self.register_loads += loads;
        self.register_stores += stores;
    }

    /// Raw statistics of one cache level.
    pub fn level_stats(&self, level: MemoryLevel) -> Option<LruStats> {
        self.levels.iter().find(|(l, _)| *l == level).map(|(_, c)| c.stats())
    }

    /// Flush all levels (e.g. between repeated benchmark runs).
    pub fn flush(&mut self) {
        for (_, c) in self.levels.iter_mut() {
            c.flush();
        }
    }

    /// Convert the accumulated statistics into a per-level [`DataMovement`]
    /// report. `flops` is the FLOP count of the simulated computation.
    ///
    /// Traffic into a level is its miss count; traffic out is its write-back
    /// count (elements both). Register traffic comes from
    /// [`add_register_traffic`](Self::add_register_traffic).
    pub fn data_movement(&self, flops: f64) -> DataMovement {
        let mut dm = DataMovement::zero(flops);
        dm.level_mut(TilingLevel::Register).inbound_elems = self.register_loads as f64;
        dm.level_mut(TilingLevel::Register).outbound_elems = self.register_stores as f64;
        for (lvl, cache) in &self.levels {
            let tiling = match lvl {
                MemoryLevel::L1 => TilingLevel::L1,
                MemoryLevel::L2 => TilingLevel::L2,
                MemoryLevel::L3 => TilingLevel::L3,
                _ => continue,
            };
            let stats = cache.stats();
            dm.level_mut(tiling).inbound_elems = stats.misses as f64;
            dm.level_mut(tiling).outbound_elems = stats.writebacks as f64;
        }
        dm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineModel {
        MachineModel::tiny_test_machine()
    }

    #[test]
    fn miss_propagates_and_fills_all_levels() {
        let mut h = MemoryHierarchy::new(&machine());
        assert_eq!(h.access(42, false), None); // cold: misses everywhere
        assert_eq!(h.access(42, false), Some(MemoryLevel::L1)); // now in L1
        let l1 = h.level_stats(MemoryLevel::L1).unwrap();
        assert_eq!(l1.misses, 1);
        assert_eq!(l1.hits, 1);
        let l3 = h.level_stats(MemoryLevel::L3).unwrap();
        assert_eq!(l3.accesses, 1); // only probed on the L2 miss
    }

    #[test]
    fn capacity_differences_between_levels_show_up() {
        let m = machine();
        let mut h = MemoryHierarchy::new(&m);
        let l1_cap = m.capacity(TilingLevel::L1);
        // Touch more than L1 capacity but less than L2 capacity, twice.
        let n = l1_cap + 64;
        for _ in 0..2 {
            for a in 0..n {
                h.access(a, false);
            }
        }
        let l1 = h.level_stats(MemoryLevel::L1).unwrap();
        let l2 = h.level_stats(MemoryLevel::L2).unwrap();
        // Second pass misses in L1 (working set exceeds it) but hits in L2.
        assert!(l1.misses as usize > n, "L1 should keep missing");
        assert_eq!(l2.misses as usize, n, "L2 holds the working set after pass 1");
    }

    #[test]
    fn data_movement_report_reflects_misses_and_register_traffic() {
        let mut h = MemoryHierarchy::new(&machine());
        for a in 0..10 {
            h.access(a, a % 2 == 0);
        }
        h.add_register_traffic(100, 50);
        let dm = h.data_movement(1000.0);
        assert_eq!(dm.volume(TilingLevel::L1), 10.0);
        assert_eq!(dm.level(TilingLevel::Register).inbound_elems, 100.0);
        assert_eq!(dm.level(TilingLevel::Register).outbound_elems, 50.0);
        assert_eq!(dm.flops, 1000.0);
    }

    #[test]
    fn flush_clears_residency() {
        let mut h = MemoryHierarchy::new(&machine());
        h.access(0, true);
        assert_eq!(h.access(0, false), Some(MemoryLevel::L1));
        h.flush();
        assert_eq!(h.access(0, false), None);
        // The flush wrote the dirty element back, once, at every level.
        for level in [MemoryLevel::L1, MemoryLevel::L2, MemoryLevel::L3] {
            assert_eq!(h.level_stats(level).unwrap().writebacks, 1, "{level}");
        }
    }
}
