//! Exact fully-associative LRU cache.
//!
//! This is the idealized cache model the paper's analytical expressions
//! assume (Sec. 2.2: "an idealized fully-associative LRU cache with a
//! capacity of C words and unit line-size"). The implementation keeps an
//! intrusive doubly-linked LRU list over a hash map so each access is O(1).
//! A line is one element: the model it validates counts traffic in elements.

use std::collections::HashMap;

/// A fully-associative LRU cache over element addresses.
#[derive(Debug, Clone)]
pub struct FullyAssocLru {
    /// Capacity in elements.
    capacity: usize,
    /// Map from address to slot index in `slots`.
    map: HashMap<usize, usize>,
    /// Slot storage; a free list is threaded through unused slots.
    slots: Vec<Slot>,
    head: Option<usize>,
    tail: Option<usize>,
    free: Vec<usize>,
    stats: LruStats,
}

#[derive(Debug, Clone)]
struct Slot {
    addr: usize,
    dirty: bool,
    prev: Option<usize>,
    next: Option<usize>,
}

/// Access statistics of a single cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses (cold + capacity).
    pub misses: u64,
    /// Evictions of dirty elements (write-backs).
    pub writebacks: u64,
}

impl FullyAssocLru {
    /// Create a cache that holds `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        FullyAssocLru {
            capacity,
            map: HashMap::with_capacity(capacity * 2),
            slots: Vec::with_capacity(capacity),
            head: None,
            tail: None,
            free: Vec::new(),
            stats: LruStats::default(),
        }
    }

    /// Number of elements currently resident.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// Access statistics so far.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// Whether `addr` is currently resident (does not update recency or
    /// statistics).
    pub fn contains(&self, addr: usize) -> bool {
        self.map.contains_key(&addr)
    }

    /// Access element address `addr`; returns `true` on a hit.
    ///
    /// A miss inserts the element, evicting the least-recently-used one if
    /// the cache is full. `is_write` marks the element dirty; evicting a
    /// dirty element counts as a write-back.
    pub fn access(&mut self, addr: usize, is_write: bool) -> bool {
        self.stats.accesses += 1;
        if let Some(&slot) = self.map.get(&addr) {
            self.stats.hits += 1;
            if is_write {
                self.slots[slot].dirty = true;
            }
            self.move_to_front(slot);
            true
        } else {
            self.stats.misses += 1;
            self.insert(addr, is_write);
            false
        }
    }

    /// Invalidate the whole cache (a "cache flush" between benchmark runs).
    /// Dirty elements are counted as write-backs.
    pub fn flush(&mut self) {
        for slot in self.map.values() {
            if self.slots[*slot].dirty {
                self.stats.writebacks += 1;
            }
        }
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = None;
        self.tail = None;
    }

    fn insert(&mut self, addr: usize, dirty: bool) {
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let slot_idx = if let Some(idx) = self.free.pop() {
            self.slots[idx] = Slot { addr, dirty, prev: None, next: None };
            idx
        } else {
            self.slots.push(Slot { addr, dirty, prev: None, next: None });
            self.slots.len() - 1
        };
        self.map.insert(addr, slot_idx);
        self.push_front(slot_idx);
    }

    fn evict_lru(&mut self) {
        if let Some(tail) = self.tail {
            let addr = self.slots[tail].addr;
            if self.slots[tail].dirty {
                self.stats.writebacks += 1;
            }
            self.unlink(tail);
            self.map.remove(&addr);
            self.free.push(tail);
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = None;
        self.slots[idx].next = self.head;
        if let Some(h) = self.head {
            self.slots[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            Some(p) => self.slots[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.slots[n].prev = prev,
            None => self.tail = prev,
        }
        self.slots[idx].prev = None;
        self.slots[idx].next = None;
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == Some(idx) {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_misses_then_hits() {
        let mut c = FullyAssocLru::new(4);
        for a in 0..4 {
            assert!(!c.access(a, false));
        }
        for a in 0..4 {
            assert!(c.access(a, false));
        }
        let s = c.stats();
        assert_eq!(s.accesses, 8);
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 4);
        assert_eq!(s.writebacks, 0);
        assert_eq!(c.resident(), 4);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = FullyAssocLru::new(3);
        c.access(1, false);
        c.access(2, false);
        c.access(3, false);
        // Touch 1 so 2 becomes LRU.
        c.access(1, false);
        c.access(4, false); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert!(c.contains(4));
    }

    #[test]
    fn writeback_counted_on_dirty_eviction_and_flush() {
        let mut c = FullyAssocLru::new(1);
        c.access(1, true); // dirty
        c.access(2, false); // evicts dirty 1 -> writeback
        assert_eq!(c.stats().writebacks, 1);
        c.access(3, true);
        c.flush();
        assert_eq!(c.stats().writebacks, 2);
        assert_eq!(c.resident(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FullyAssocLru::new(0);
    }

    #[test]
    fn stack_property_reuse_distance() {
        // Reuse distance D hits iff D < capacity (classic LRU stack property).
        let trace: Vec<usize> = vec![1, 2, 3, 4, 1]; // reuse distance of final access to 1 is 3
        for (cap, expect_hit) in [(3, false), (4, true)] {
            let mut c = FullyAssocLru::new(cap);
            let mut last = false;
            for &a in &trace {
                last = c.access(a, false);
            }
            assert_eq!(last, expect_hit, "capacity {cap}");
        }
    }
}
