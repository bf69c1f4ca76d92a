//! The warm database tier underneath the in-process caches.
//!
//! Request flow with a database attached: shard cache → db page (+ re-rank)
//! → optimizer. The [`DbTier`] wraps a [`mopt_db::SpecDb`] with the
//! canonicalize-lookup-rerank glue and serving counters:
//!
//! * **lookup** canonicalizes the raw [`Spec`] (conv, matmul or pooling —
//!   all embed into conv coordinates), fetches the stored
//!   top-k entries for `(canonical spec, machine)`, and re-prices them for
//!   the request's `threads`/options via [`mopt_db::rerank_spec()`] — a db
//!   *hit* serves a full [`OptimizeResult`] without running the optimizer.
//! * **record** writes fresh optimizer results through to the database
//!   (canonicalized, sequentialized), so every solve any process pays for
//!   warms the whole fleet.
//!
//! Database I/O problems are deliberately non-fatal on the serving path: a
//! corrupt page or failed write degrades to a miss (counted in
//! [`DbTierStats::errors`]) and the optimizer still answers.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use conv_spec::{canonicalize_spec, MachineModel, Spec};
use mopt_core::{OptimizeResult, OptimizerOptions};
use mopt_db::{DbError, DbStats, SpecDb};
use serde::{Deserialize, Serialize};

/// Serving counters for the database tier, plus the store's own counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbTierStats {
    /// Requests served from stored entries (re-rank succeeded).
    pub hits: u64,
    /// Requests the database could not serve (no record, no surviving
    /// candidate, or an I/O error) — each one fell back to the optimizer.
    pub misses: u64,
    /// Solve results written through to the database.
    pub inserts: u64,
    /// Lookups or write-throughs that hit a database error (corrupt page,
    /// filesystem failure) and degraded to a miss / no-op.
    pub errors: u64,
    /// The underlying paged store's counters (page LRU, checksummed loads).
    pub store: DbStats,
}

impl DbTierStats {
    /// Hit fraction of all tier lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A shared handle on the persistent schedule database, counted and wired
/// for serving. All methods take `&self` (share via `Arc`).
pub struct DbTier {
    db: SpecDb,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    errors: AtomicU64,
}

impl DbTier {
    /// Open (or create) the database directory.
    pub fn open(path: &Path) -> Result<Self, DbError> {
        Ok(DbTier {
            db: SpecDb::open(path)?,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// The wrapped store (for populators and tests).
    pub fn db(&self) -> &SpecDb {
        &self.db
    }

    /// Try to answer an optimization query from stored entries. `None`
    /// falls back to the optimizer; database errors degrade to `None`.
    pub fn lookup(
        &self,
        spec: &Spec,
        machine: &MachineModel,
        options: &OptimizerOptions,
    ) -> Option<OptimizeResult> {
        let (canonical, transform) = canonicalize_spec(spec);
        let entries = match self.db.lookup(canonical.fingerprint(), machine.fingerprint()) {
            Ok(entries) => entries,
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        let served = entries
            .and_then(|entries| mopt_db::rerank_spec(spec, &transform, &entries, machine, options));
        match &served {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        served
    }

    /// Write a fresh solve result through to the database (best effort:
    /// errors are counted, never surfaced to the request).
    pub fn record(
        &self,
        spec: &Spec,
        machine: &MachineModel,
        solved_threads: usize,
        result: &OptimizeResult,
    ) {
        let (canonical, _transform, entries) =
            mopt_db::entries_for_spec(spec, machine, solved_threads, result);
        match self.db.merge(&canonical.shape, machine.fingerprint(), entries) {
            Ok(_) => {
                self.inserts.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Flush dirty pages to disk. Returns the number of pages written.
    pub fn flush(&self) -> Result<usize, DbError> {
        self.db.flush()
    }

    /// Snapshot of the tier and store counters.
    pub fn stats(&self) -> DbTierStats {
        DbTierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            store: self.db.stats(),
        }
    }
}

impl std::fmt::Debug for DbTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbTier").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt_core::MOptOptimizer;

    fn temp_db(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mopt-dbtier-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn fast_options(threads: usize) -> OptimizerOptions {
        OptimizerOptions { threads, max_classes: 1, ..OptimizerOptions::default() }
    }

    #[test]
    fn record_then_lookup_serves_without_solving() {
        let dir = temp_db("roundtrip");
        let shape = conv_spec::ConvShape::new(1, 16, 8, 3, 3, 12, 12, 1).unwrap();
        let spec = Spec::Conv(shape);
        let machine = MachineModel::tiny_test_machine();
        {
            let tier = DbTier::open(&dir).unwrap();
            let result = MOptOptimizer::new(shape, machine.clone(), fast_options(1)).optimize();
            tier.record(&spec, &machine, 1, &result);
            tier.flush().unwrap();
        }
        // A cold process (fresh handle) answers from disk, at a different
        // thread count than the one solved.
        let tier = DbTier::open(&dir).unwrap();
        let served = tier.lookup(&spec, &machine, &fast_options(2)).expect("db-warm hit");
        assert_eq!(served.ranked[0].config.total_parallelism(), 2);
        let stats = tier.stats();
        assert_eq!((stats.hits, stats.misses, stats.errors), (1, 0, 0));
        assert!(stats.hit_rate() > 0.99);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_shape_is_a_clean_miss() {
        let dir = temp_db("miss");
        let tier = DbTier::open(&dir).unwrap();
        let spec = Spec::Conv(conv_spec::ConvShape::new(1, 8, 4, 3, 3, 8, 8, 1).unwrap());
        let machine = MachineModel::tiny_test_machine();
        assert!(tier.lookup(&spec, &machine, &fast_options(1)).is_none());
        let stats = tier.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matmul_record_serves_its_transpose_twin() {
        let dir = temp_db("matmul-twin");
        let tall = Spec::matmul(48, 16, 24);
        let wide = Spec::matmul(16, 48, 24);
        let machine = MachineModel::tiny_test_machine();
        let tier = DbTier::open(&dir).unwrap();
        let solved = MOptOptimizer::optimize_spec(&tall, machine.clone(), fast_options(1));
        tier.record(&tall, &machine, 1, &solved);
        // The m<->n transpose canonicalizes to the same stored record, so
        // the twin is a db hit without ever having been solved.
        let served = tier.lookup(&wide, &machine, &fast_options(1)).expect("twin served");
        served.best().config.validate(&wide.embedded_conv_shape()).expect("valid on twin");
        let stats = tier.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 0, 1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
