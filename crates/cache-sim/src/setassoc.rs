//! Set-associative LRU cache.
//!
//! The paper's model deliberately ignores conflict misses; Sec. 10 observes
//! that for a few operators (Yolo9, Yolo18) conflict misses in the real
//! set-associative caches cause the model-best configuration to underperform,
//! which motivates the MOpt-5 variant. This cache lets the reproduction
//! exhibit the same effect: the same trace can be replayed against the
//! fully-associative idealization and a realistic set-associative geometry.

use crate::lru::LruStats;

/// A set-associative LRU cache over abstract element addresses.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    line_elems: usize,
    ways: usize,
    num_sets: usize,
    /// `sets[s]` holds up to `ways` (line, dirty) entries, most recent first.
    sets: Vec<Vec<(usize, bool)>>,
    stats: LruStats,
}

impl SetAssocCache {
    /// Create a cache with `capacity_elems` elements, lines of `line_elems`
    /// elements and `ways`-way associativity. The number of sets is derived
    /// and rounded down to at least 1.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(capacity_elems: usize, line_elems: usize, ways: usize) -> Self {
        assert!(
            capacity_elems > 0 && line_elems > 0 && ways > 0,
            "cache geometry must be positive"
        );
        let lines = (capacity_elems / line_elems).max(ways);
        let num_sets = (lines / ways).max(1);
        SetAssocCache {
            line_elems,
            ways,
            num_sets,
            sets: vec![Vec::with_capacity(ways); num_sets],
            stats: LruStats::default(),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity (ways per set).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in elements.
    pub fn line_elems(&self) -> usize {
        self.line_elems
    }

    /// Access statistics.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// Whether the line containing `addr` is resident.
    pub fn contains(&self, addr: usize) -> bool {
        let line = addr / self.line_elems;
        let set = line % self.num_sets;
        self.sets[set].iter().any(|&(l, _)| l == line)
    }

    /// Access element address `addr`; returns `true` on a hit.
    pub fn access(&mut self, addr: usize, is_write: bool) -> bool {
        let line = addr / self.line_elems;
        let set_idx = line % self.num_sets;
        let set = &mut self.sets[set_idx];
        self.stats.accesses += 1;
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            self.stats.hits += 1;
            let (l, dirty) = set.remove(pos);
            set.insert(0, (l, dirty || is_write));
            true
        } else {
            self.stats.misses += 1;
            if set.len() >= self.ways {
                if let Some((_, dirty)) = set.pop() {
                    if dirty {
                        self.stats.writebacks += 1;
                    }
                }
            }
            set.insert(0, (line, is_write));
            false
        }
    }

    /// Invalidate all contents, counting dirty lines as write-backs.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for &(_, dirty) in set.iter() {
                if dirty {
                    self.stats.writebacks += 1;
                }
            }
            set.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivation() {
        let c = SetAssocCache::new(1024, 16, 4);
        assert_eq!(c.num_sets(), 16);
        assert_eq!(c.ways(), 4);
    }

    #[test]
    fn hits_within_a_set() {
        let mut c = SetAssocCache::new(64, 1, 2); // 32 sets, 2 ways
        assert!(!c.access(5, false));
        assert!(c.access(5, false));
        assert!(c.contains(5));
    }

    #[test]
    fn conflict_misses_despite_spare_capacity() {
        // 4 sets x 1 way: addresses 0, 4, 8 all map to set 0 and thrash,
        // even though the cache could hold 4 lines in total.
        let mut c = SetAssocCache::new(4, 1, 1);
        assert_eq!(c.num_sets(), 4);
        c.access(0, false);
        c.access(4, false);
        assert!(!c.access(0, false), "conflict miss expected");
        // A fully associative cache of the same capacity would have hit.
        let mut fa = crate::lru::FullyAssocLru::new(4, 1);
        fa.access(0, false);
        fa.access(4, false);
        assert!(fa.access(0, false));
    }

    #[test]
    fn lru_within_set_and_writebacks() {
        let mut c = SetAssocCache::new(2, 1, 2); // 1 set, 2 ways
        c.access(1, true);
        c.access(2, false);
        c.access(1, false); // refresh 1, so 2 is LRU
        c.access(3, false); // evict 2 (clean)
        assert_eq!(c.stats().writebacks, 0);
        c.access(4, false); // evict 1 (dirty)
        assert_eq!(c.stats().writebacks, 1);
        assert!(!c.contains(1));
    }

    #[test]
    fn flush_writes_back_dirty_lines() {
        let mut c = SetAssocCache::new(8, 1, 2);
        c.access(0, true);
        c.access(1, true);
        c.access(2, false);
        c.flush();
        assert_eq!(c.stats().writebacks, 2);
        assert!(!c.contains(0));
    }

    #[test]
    #[should_panic(expected = "geometry must be positive")]
    fn zero_ways_panics() {
        let _ = SetAssocCache::new(64, 1, 0);
    }
}
