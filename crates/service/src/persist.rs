//! Versioned JSON snapshots of the schedule cache.
//!
//! A warm cache is the product of hours of solve time; losing it on restart
//! would mean re-paying that cost. Snapshots serialize every resident
//! `(key, result)` pair — in recency order, so reloading reproduces the
//! eviction order — together with a format version that is checked on load.
//! Writes go through [`mopt_db::ioutil`]'s atomic replacement (temp sibling
//! file + fsync + rename, with temp-file hygiene shared with the schedule
//! database's page writer), so a crash mid-save never corrupts an existing
//! snapshot.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::cache::{CacheKey, ScheduleCache};
use mopt_core::OptimizeResult;

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One persisted cache entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotEntry {
    /// The cache key.
    pub key: CacheKey,
    /// The cached optimization result.
    pub result: OptimizeResult,
}

/// The on-disk snapshot document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version; load refuses mismatches.
    pub version: u32,
    /// Entries in recency order, least recently used first.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Capture the current cache contents.
    pub fn capture(cache: &ScheduleCache) -> Self {
        Snapshot {
            version: SNAPSHOT_VERSION,
            entries: cache
                .entries()
                .into_iter()
                .map(|(key, result)| SnapshotEntry { key, result })
                .collect(),
        }
    }

    /// Re-insert every entry into `cache` (least recently used first, so
    /// relative recency survives the round trip). Returns the entry count.
    pub fn restore(self, cache: &ScheduleCache) -> usize {
        let n = self.entries.len();
        for entry in self.entries {
            cache.insert(entry.key, entry.result);
        }
        n
    }
}

/// Errors produced by snapshot save/load.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file was not a valid snapshot document.
    Format(String),
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            PersistError::Format(msg) => write!(f, "snapshot format error: {msg}"),
            PersistError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} is not the supported version {expected}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Save the cache to `path` (atomically: temp file + rename, via
/// [`mopt_db::ioutil::atomic_write`]).
///
/// Safe under concurrent calls: each call writes a uniquely named temp file
/// (pid + sequence number) before the atomic rename, so racing saves never
/// interleave into one file — the last complete snapshot wins. A failed
/// save never leaks its temp; temps leaked by a *killed* process are reaped
/// at startup by [`mopt_db::ioutil::remove_stale_temps`]. I/O errors are
/// annotated with the snapshot path so clients of the `Save` verb see the
/// cause.
pub fn save_snapshot(cache: &ScheduleCache, path: &Path) -> Result<usize, PersistError> {
    let snapshot = Snapshot::capture(cache);
    let n = snapshot.entries.len();
    let text = serde_json::to_string(&snapshot).map_err(|e| PersistError::Format(e.to_string()))?;
    mopt_db::ioutil::atomic_write(path, &text).map_err(|e| PersistError::Io(annotate(e, path)))?;
    Ok(n)
}

/// Attach the offending path to an I/O error so error responses name the
/// file that failed, not just the OS cause.
fn annotate(e: std::io::Error, path: &Path) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Load a snapshot from `path` into `cache`. Returns the number of entries
/// restored.
pub fn load_snapshot(cache: &ScheduleCache, path: &Path) -> Result<usize, PersistError> {
    let text = std::fs::read_to_string(path)?;
    let snapshot: Snapshot =
        serde_json::from_str(&text).map_err(|e| PersistError::Format(e.to_string()))?;
    if snapshot.version != SNAPSHOT_VERSION {
        return Err(PersistError::VersionMismatch {
            found: snapshot.version,
            expected: SNAPSHOT_VERSION,
        });
    }
    Ok(snapshot.restore(cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::{ConvShape, MachineModel};
    use mopt_core::OptimizerOptions;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mopt-service-{name}-{}.json", std::process::id()));
        p
    }

    fn populated_cache(n: usize) -> ScheduleCache {
        let cache = ScheduleCache::new(64);
        for k in 1..=n {
            let shape = ConvShape::new(1, k, 3, 3, 3, 8, 8, 1).unwrap();
            let key =
                CacheKey::new(shape, &MachineModel::tiny_test_machine(), &OptimizerOptions::fast());
            cache.insert(key.clone(), crate::cache::tests::dummy_result(&shape, k as f64));
        }
        cache
    }

    #[test]
    fn save_then_load_round_trips_exactly() {
        let path = temp_path("roundtrip");
        let cache = populated_cache(6);
        let saved = save_snapshot(&cache, &path).unwrap();
        assert_eq!(saved, 6);

        let reloaded = ScheduleCache::new(64);
        let loaded = load_snapshot(&reloaded, &path).unwrap();
        assert_eq!(loaded, 6);
        // Every original entry is a warm hit with an identical result.
        for (key, result) in cache.entries() {
            assert_eq!(reloaded.get(&key), Some(result));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let path = temp_path("version");
        let cache = populated_cache(2);
        save_snapshot(&cache, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let bumped = text.replacen(
            &format!("\"version\":{SNAPSHOT_VERSION}"),
            &format!("\"version\":{}", SNAPSHOT_VERSION + 1),
            1,
        );
        assert_ne!(text, bumped, "version field must appear in the snapshot text");
        std::fs::write(&path, bumped).unwrap();
        let target = ScheduleCache::new(64);
        match load_snapshot(&target, &path) {
            Err(PersistError::VersionMismatch { found, expected }) => {
                assert_eq!(found, SNAPSHOT_VERSION + 1);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        assert!(target.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_is_a_format_error_and_missing_file_is_io() {
        let path = temp_path("garbage");
        std::fs::write(&path, "not json at all {").unwrap();
        let cache = ScheduleCache::new(8);
        assert!(matches!(load_snapshot(&cache, &path), Err(PersistError::Format(_))));
        std::fs::remove_file(&path).ok();
        assert!(matches!(load_snapshot(&cache, &path), Err(PersistError::Io(_))));
    }

    fn stale_temps_next_to(path: &std::path::Path) -> Vec<std::path::PathBuf> {
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let prefix = format!("{stem}.tmp.");
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(&prefix))
            })
            .collect()
    }

    #[test]
    fn failed_rename_leaves_no_temp_file_behind() {
        // Make the final rename fail by pointing the snapshot path at an
        // existing non-empty directory.
        let dir = temp_path("rename-fails");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("occupied")).unwrap();
        let cache = populated_cache(3);
        match save_snapshot(&cache, &dir) {
            Err(PersistError::Io(_)) => {}
            other => panic!("expected an I/O error from the rename, got {other:?}"),
        }
        // The uniquely named temp must have been removed on the error path.
        assert_eq!(
            stale_temps_next_to(&dir),
            Vec::<std::path::PathBuf>::new(),
            "failed saves must not leak *.tmp.pid.seq files"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn startup_sweep_reaps_temps_of_dead_processes() {
        let path = temp_path("stale-sweep");
        std::fs::write(&path, "{}").ok();
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let parent = path.parent().unwrap();
        // Plant temps a killed daemon would have left (foreign pid).
        for name in [format!("{stem}.tmp.1.0"), format!("{stem}.tmp.999999.3")] {
            std::fs::write(parent.join(name), "partial").unwrap();
        }
        // An unrelated sibling must survive the sweep.
        let unrelated = parent.join(format!("{stem}-other.json"));
        std::fs::write(&unrelated, "keep").unwrap();
        assert_eq!(stale_temps_next_to(&path).len(), 2);
        assert_eq!(mopt_db::ioutil::remove_stale_temps(&path).unwrap(), 2);
        assert_eq!(stale_temps_next_to(&path), Vec::<std::path::PathBuf>::new());
        assert!(unrelated.exists());
        assert_eq!(mopt_db::ioutil::remove_stale_temps(&path).unwrap(), 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&unrelated).ok();
    }

    #[test]
    fn concurrent_saves_never_corrupt_the_snapshot() {
        let path = temp_path("concurrent");
        let cache = populated_cache(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| save_snapshot(&cache, &path).unwrap());
            }
        });
        // Whichever save won the final rename, the file is a complete,
        // loadable snapshot.
        let reloaded = ScheduleCache::new(64);
        assert_eq!(load_snapshot(&reloaded, &path).unwrap(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_preserves_recency_order() {
        let cache = populated_cache(5);
        let order_before: Vec<_> = cache.entries().into_iter().map(|(k, _)| k).collect();
        let snapshot = Snapshot::capture(&cache);
        let reloaded = ScheduleCache::new(64);
        snapshot.restore(&reloaded);
        let order_after: Vec<_> = reloaded.entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(order_before, order_after);
    }
}
