//! The paged on-disk store: canonical spec → top-k schedule entries.
//!
//! The database is a directory:
//!
//! ```text
//! db/
//!   MANIFEST.json     {"version":1,"pages":64,"k":8}
//!   page-0000.json    {"version":1,"page":0,"checksum":"<fnv1a hex>","records":[...]}
//!   page-0017.json    ...
//! ```
//!
//! A record lives on page `canonical_fingerprint % pages`. Each page file
//! carries the format version and an FNV-1a checksum of its serialized
//! record list, verified on load; pages are replaced atomically via
//! [`crate::ioutil::atomic_write`]. A bounded in-memory page LRU keeps hot
//! pages resident (dirty victims are flushed on eviction), so repeated
//! lookups don't re-read or re-parse disk.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use conv_spec::{ConvShape, TileConfig};
use serde::{Deserialize, Serialize};

use crate::{fnv1a, DbError};

/// Current on-disk format version (manifest and pages).
pub const DB_VERSION: u32 = 1;

/// Default number of page files a fresh database is created with.
pub const DEFAULT_PAGES: usize = 64;

/// Default top-k entries kept per `(spec, machine)` record.
pub const DEFAULT_K: usize = 8;

/// Number of pages the in-memory LRU keeps resident.
const RESIDENT_PAGES: usize = 16;

/// One stored schedule candidate, in canonical coordinates.
///
/// Entries are stored *sequentially*: the parallel factors are stripped to
/// ones and the cost is re-priced at the canonical shape with a sequential
/// reference model, so entries solved at different thread counts merge into
/// one coherently sorted top-k list. Queries at any `threads` re-price the
/// candidates through [`crate::rerank()`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleEntry {
    /// The tiling configuration (canonical coordinates, sequential).
    pub config: TileConfig,
    /// The pruned permutation class the configuration came from (1..=8).
    pub class_id: usize,
    /// Bandwidth-scaled bottleneck cost at the canonical shape, sequential
    /// reference model — the merge-sort key, not a serving price.
    pub sequential_cost: f64,
    /// The thread count of the solve that produced the entry (provenance).
    pub solved_threads: usize,
}

/// All stored entries for one `(canonical spec, machine)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecRecord {
    /// The canonical shape the entries were solved for.
    pub spec: ConvShape,
    /// [`conv_spec::MachineModel::fingerprint`] of the target machine.
    pub machine: u64,
    /// Top-k entries, sorted by [`ScheduleEntry::sequential_cost`].
    pub entries: Vec<ScheduleEntry>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    pages: usize,
    k: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PageDoc {
    version: u32,
    page: usize,
    checksum: String,
    records: Vec<SpecRecord>,
}

struct PageState {
    records: Vec<SpecRecord>,
    dirty: bool,
    last_used: u64,
}

struct Inner {
    resident: HashMap<usize, PageState>,
    clock: u64,
}

/// Point-in-time database counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbStats {
    /// Number of page files the database hashes over.
    pub pages: usize,
    /// Top-k bound per record.
    pub k: usize,
    /// Pages currently resident in the LRU.
    pub resident_pages: usize,
    /// Lookups that found a record.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Records merged in (one per [`SpecDb::merge`] call).
    pub inserts: u64,
    /// Page files read (and parsed) from disk.
    pub pages_loaded: u64,
    /// Evictions attempted to stay within the LRU bound (a dirty victim whose
    /// write failed is counted and stays resident).
    pub page_evictions: u64,
}

/// The paged spec database. All methods take `&self`; the handle is meant
/// to be shared across server threads (e.g. in an `Arc`).
pub struct SpecDb {
    root: PathBuf,
    pages: usize,
    k: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    pages_loaded: AtomicU64,
    page_evictions: AtomicU64,
}

impl SpecDb {
    /// Open (or create) a database directory with the default geometry.
    ///
    /// A fresh directory gets a `MANIFEST.json`; an existing one must carry
    /// a manifest of the supported [`DB_VERSION`], whose geometry (page
    /// count, k) overrides the defaults so databases stay self-describing.
    pub fn open(path: &Path) -> Result<Self, DbError> {
        Self::open_with(path, DEFAULT_PAGES, DEFAULT_K)
    }

    /// Open (or create) a database with an explicit geometry for fresh
    /// directories. An existing manifest always wins.
    pub fn open_with(path: &Path, pages: usize, k: usize) -> Result<Self, DbError> {
        std::fs::create_dir_all(path)?;
        let manifest_path = path.join("MANIFEST.json");
        let manifest = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => {
                let manifest: Manifest =
                    serde_json::from_str(&text).map_err(|e| DbError::Format(e.to_string()))?;
                if manifest.version != DB_VERSION {
                    return Err(DbError::VersionMismatch {
                        found: manifest.version,
                        expected: DB_VERSION,
                    });
                }
                if manifest.pages == 0 || manifest.k == 0 {
                    return Err(DbError::Format("manifest pages and k must be nonzero".into()));
                }
                manifest
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let manifest = Manifest { version: DB_VERSION, pages: pages.max(1), k: k.max(1) };
                let text = serde_json::to_string_pretty(&manifest)
                    .map_err(|e| DbError::Format(e.to_string()))?;
                crate::ioutil::atomic_write(&manifest_path, &text)?;
                manifest
            }
            Err(e) => return Err(e.into()),
        };
        // Reap temps a killed writer left next to any page (one sweep keyed
        // on a representative page path covers the shared directory).
        crate::ioutil::remove_stale_temps(&path.join("page-0000.json")).ok();
        Ok(SpecDb {
            root: path.to_path_buf(),
            pages: manifest.pages,
            k: manifest.k,
            inner: Mutex::new(Inner { resident: HashMap::new(), clock: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            pages_loaded: AtomicU64::new(0),
            page_evictions: AtomicU64::new(0),
        })
    }

    /// The database directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The top-k bound per record.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The page a canonical fingerprint hashes to.
    pub fn page_of(&self, spec_fingerprint: u64) -> usize {
        (spec_fingerprint % self.pages as u64) as usize
    }

    fn page_path(&self, page: usize) -> PathBuf {
        self.root.join(format!("page-{page:04}.json"))
    }

    fn load_page(&self, page: usize) -> Result<Vec<SpecRecord>, DbError> {
        let path = self.page_path(page);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        self.pages_loaded.fetch_add(1, Ordering::Relaxed);
        let doc: PageDoc =
            serde_json::from_str(&text).map_err(|e| DbError::Format(e.to_string()))?;
        if doc.version != DB_VERSION {
            return Err(DbError::VersionMismatch { found: doc.version, expected: DB_VERSION });
        }
        if doc.page != page {
            return Err(DbError::Corrupt {
                page,
                detail: format!("file claims to be page {}", doc.page),
            });
        }
        let expected = Self::records_checksum(&doc.records)?;
        if doc.checksum != expected {
            return Err(DbError::Corrupt {
                page,
                detail: format!("checksum {} does not match records ({expected})", doc.checksum),
            });
        }
        Ok(doc.records)
    }

    fn records_checksum(records: &[SpecRecord]) -> Result<String, DbError> {
        let text = serde_json::to_string(records).map_err(|e| DbError::Format(e.to_string()))?;
        Ok(format!("{:016x}", fnv1a(text.as_bytes())))
    }

    fn write_page(&self, page: usize, records: &[SpecRecord]) -> Result<(), DbError> {
        let doc = PageDoc {
            version: DB_VERSION,
            page,
            checksum: Self::records_checksum(records)?,
            records: records.to_vec(),
        };
        let text = serde_json::to_string(&doc).map_err(|e| DbError::Format(e.to_string()))?;
        crate::ioutil::atomic_write(&self.page_path(page), &text)?;
        Ok(())
    }

    /// Run `f` over the (resident or freshly loaded) records of a page,
    /// marking the page dirty when `f` returns `true`. A load that takes the
    /// residency over its bound evicts least-recently-used pages back down to
    /// it, writing a dirty victim first. A victim whose write fails stays
    /// resident and dirty — its records are not lost, the requested page is
    /// still served, and the next [`flush`](Self::flush) reports the error —
    /// and the next victim in line is tried instead.
    fn with_page<T>(
        &self,
        page: usize,
        f: impl FnOnce(&mut Vec<SpecRecord>) -> (T, bool),
    ) -> Result<T, DbError> {
        let mut inner = self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        inner.clock += 1;
        let tick = inner.clock;
        if let std::collections::hash_map::Entry::Vacant(slot) = inner.resident.entry(page) {
            let records = self.load_page(page)?;
            slot.insert(PageState { records, dirty: false, last_used: tick });
            if inner.resident.len() > RESIDENT_PAGES {
                let mut victims: Vec<(u64, usize)> = inner
                    .resident
                    .iter()
                    .filter(|(id, _)| **id != page)
                    .map(|(id, state)| (state.last_used, *id))
                    .collect();
                victims.sort_unstable();
                for (_, victim) in victims {
                    if inner.resident.len() <= RESIDENT_PAGES {
                        break;
                    }
                    self.page_evictions.fetch_add(1, Ordering::Relaxed);
                    let state = &inner.resident[&victim];
                    if !state.dirty || self.write_page(victim, &state.records).is_ok() {
                        inner.resident.remove(&victim);
                    }
                }
            }
        }
        let state = inner.resident.get_mut(&page).expect("page resident after load");
        state.last_used = tick;
        let (out, dirtied) = f(&mut state.records);
        state.dirty |= dirtied;
        Ok(out)
    }

    /// Look up the stored entries for a canonical spec fingerprint on a
    /// machine. `Ok(None)` is a clean miss; errors surface page corruption.
    pub fn lookup(
        &self,
        spec_fingerprint: u64,
        machine_fingerprint: u64,
    ) -> Result<Option<Vec<ScheduleEntry>>, DbError> {
        let page = self.page_of(spec_fingerprint);
        let found = self.with_page(page, |records| {
            let found = records
                .iter()
                .find(|r| {
                    r.machine == machine_fingerprint && r.spec.fingerprint() == spec_fingerprint
                })
                .map(|r| r.entries.clone());
            (found, false)
        })?;
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        Ok(found)
    }

    /// Merge entries into the record for `(spec, machine)`: deduplicate by
    /// configuration, sort by sequential cost, truncate to the top-k bound.
    /// Returns the resulting entry count. The page is flushed lazily (on
    /// [`flush`](Self::flush) or LRU eviction).
    pub fn merge(
        &self,
        spec: &ConvShape,
        machine_fingerprint: u64,
        entries: Vec<ScheduleEntry>,
    ) -> Result<usize, DbError> {
        if entries.is_empty() {
            return Ok(0);
        }
        let spec_fingerprint = spec.fingerprint();
        let page = self.page_of(spec_fingerprint);
        let k = self.k;
        let spec = *spec;
        let count = self.with_page(page, move |records| {
            let record = match records
                .iter_mut()
                .find(|r| r.machine == machine_fingerprint && r.spec == spec)
            {
                Some(record) => record,
                None => {
                    records.push(SpecRecord {
                        spec,
                        machine: machine_fingerprint,
                        entries: Vec::new(),
                    });
                    records.last_mut().expect("just pushed")
                }
            };
            for entry in entries {
                if !record.entries.iter().any(|e| e.config == entry.config) {
                    record.entries.push(entry);
                }
            }
            record.entries.sort_by(|a, b| {
                mopt_core::pricing::cost_order(a.sequential_cost, b.sequential_cost)
            });
            record.entries.truncate(k);
            (record.entries.len(), true)
        })?;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        Ok(count)
    }

    /// Write every dirty resident page to disk. Returns the number of pages
    /// written, or the first error once every dirty page has been attempted;
    /// a page whose write failed stays dirty, so a later flush retries it.
    pub fn flush(&self) -> Result<usize, DbError> {
        let mut inner = self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut written = 0;
        let mut first_error = None;
        for (&page, state) in inner.resident.iter_mut().filter(|(_, state)| state.dirty) {
            match self.write_page(page, &state.records) {
                Ok(()) => {
                    state.dirty = false;
                    written += 1;
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        first_error.map_or(Ok(written), Err)
    }

    /// Snapshot of the database counters.
    pub fn stats(&self) -> DbStats {
        let resident = {
            let inner = self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            inner.resident.len()
        };
        DbStats {
            pages: self.pages,
            k: self.k,
            resident_pages: resident,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            pages_loaded: self.pages_loaded.load(Ordering::Relaxed),
            page_evictions: self.page_evictions.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for SpecDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecDb").field("root", &self.root).field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::canonicalize;

    fn temp_db(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mopt-db-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn entry(shape: &ConvShape, cost: f64) -> ScheduleEntry {
        ScheduleEntry {
            config: TileConfig::untiled(shape).normalized(shape),
            class_id: 1,
            sequential_cost: cost,
            solved_threads: 1,
        }
    }

    fn entry_with_register_k(shape: &ConvShape, k: usize, cost: f64) -> ScheduleEntry {
        let mut config = TileConfig::untiled(shape);
        config.tiles[0] = config.tiles[0].with(conv_spec::LoopIndex::K, k);
        ScheduleEntry {
            config: config.normalized(shape),
            class_id: 2,
            sequential_cost: cost,
            solved_threads: 1,
        }
    }

    fn canon_shape() -> ConvShape {
        canonicalize(&ConvShape::new(1, 8, 4, 3, 3, 8, 8, 1).unwrap()).0.shape
    }

    #[test]
    fn open_creates_manifest_and_reopens_it() {
        let dir = temp_db("manifest");
        let db = SpecDb::open_with(&dir, 8, 4).unwrap();
        assert_eq!(db.k(), 4);
        drop(db);
        // Reopen with different defaults: the manifest wins.
        let db = SpecDb::open(&dir).unwrap();
        assert_eq!(db.k(), 4);
        assert!(dir.join("MANIFEST.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_lookup_round_trips_across_processes() {
        let dir = temp_db("roundtrip");
        let shape = canon_shape();
        let fp = shape.fingerprint();
        {
            let db = SpecDb::open(&dir).unwrap();
            db.merge(&shape, 7, vec![entry(&shape, 10.0)]).unwrap();
            assert_eq!(db.flush().unwrap(), 1);
        }
        // A second handle (a "different process") sees the entries.
        let db = SpecDb::open(&dir).unwrap();
        let entries = db.lookup(fp, 7).unwrap().expect("persisted record");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].sequential_cost, 10.0);
        // Different machine fingerprint is a distinct record.
        assert!(db.lookup(fp, 8).unwrap().is_none());
        let stats = db.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nan_cost_entries_never_displace_a_finite_one() {
        let dir = temp_db("nan-topk");
        let shape = canon_shape();
        let db = SpecDb::open_with(&dir, 8, 2).unwrap();
        // Both NaN signs, placed ahead of the finite costs they must not
        // shadow: an order that treats NaN as equal to everything leaves
        // them where they are and truncates the finite entries away.
        let entries: Vec<ScheduleEntry> = [f64::NAN, 3.0, -f64::NAN, 1.0, 2.0]
            .iter()
            .enumerate()
            .map(|(i, &c)| entry_with_register_k(&shape, i + 1, c))
            .collect();
        db.merge(&shape, 7, entries).unwrap();
        // A later NaN against a full top-k stays out too.
        db.merge(&shape, 7, vec![entry_with_register_k(&shape, 8, f64::NAN)]).unwrap();
        let got = db.lookup(shape.fingerprint(), 7).unwrap().unwrap();
        let costs: Vec<f64> = got.iter().map(|e| e.sequential_cost).collect();
        assert_eq!(costs, vec![1.0, 2.0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_dedupes_sorts_and_truncates_to_k() {
        let dir = temp_db("topk");
        let shape = canon_shape();
        let db = SpecDb::open_with(&dir, 8, 3).unwrap();
        // Six distinct configs with shuffled costs, plus one duplicate.
        let entries: Vec<ScheduleEntry> = [4.0, 2.0, 6.0, 1.0, 5.0, 3.0]
            .iter()
            .enumerate()
            .map(|(i, &c)| entry_with_register_k(&shape, i + 1, c))
            .collect();
        db.merge(&shape, 7, entries.clone()).unwrap();
        let n = db.merge(&shape, 7, vec![entries[0].clone()]).unwrap();
        assert_eq!(n, 3, "top-k bound must hold after merging");
        let got = db.lookup(shape.fingerprint(), 7).unwrap().unwrap();
        let costs: Vec<f64> = got.iter().map(|e| e.sequential_cost).collect();
        assert_eq!(costs, vec![1.0, 2.0, 3.0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_page_is_detected_by_checksum() {
        let dir = temp_db("corrupt");
        let shape = canon_shape();
        let fp = shape.fingerprint();
        let page;
        {
            let db = SpecDb::open(&dir).unwrap();
            db.merge(&shape, 7, vec![entry(&shape, 10.0)]).unwrap();
            db.flush().unwrap();
            page = db.page_of(fp);
        }
        let path = dir.join(format!("page-{page:04}.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip the stored cost without updating the checksum.
        let tampered = text.replace("10", "99");
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).unwrap();
        let db = SpecDb::open(&dir).unwrap();
        match db.lookup(fp, 7) {
            Err(DbError::Corrupt { page: p, .. }) => assert_eq!(p, page),
            other => panic!("expected corruption to be detected, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = temp_db("version");
        SpecDb::open(&dir).unwrap();
        let manifest_path = dir.join("MANIFEST.json");
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        std::fs::write(&manifest_path, text.replace("1", "2")).unwrap();
        assert!(matches!(SpecDb::open(&dir), Err(DbError::VersionMismatch { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_lru_evicts_and_flushes_dirty_victims() {
        let dir = temp_db("lru");
        // More pages than the residency bound; every spec hits its own page.
        let db = SpecDb::open_with(&dir, 257, 8).unwrap();
        let mut fps = Vec::new();
        let mut k = 1;
        while fps.len() < RESIDENT_PAGES + 4 {
            let shape = ConvShape::new(1, k, 3, 3, 3, 8, 8, 1).unwrap();
            k += 1;
            let fp = shape.fingerprint();
            if fps.iter().any(|&(_, p)| p == db.page_of(fp)) {
                continue; // want distinct pages to force evictions
            }
            db.merge(&shape, 7, vec![entry(&shape, k as f64)]).unwrap();
            fps.push((fp, db.page_of(fp)));
        }
        let stats = db.stats();
        assert!(stats.resident_pages <= RESIDENT_PAGES);
        assert!(stats.page_evictions > 0);
        // Every record — including those on evicted (flushed) pages — is
        // still found.
        for &(fp, _) in &fps {
            assert!(db.lookup(fp, 7).unwrap().is_some(), "record lost after eviction");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Put a directory where `page`'s file goes, so that writing the page
    /// fails; returns the blocker's path.
    fn block_page(dir: &Path, page: usize) -> PathBuf {
        let blocker = dir.join(format!("page-{page:04}.json"));
        std::fs::create_dir(&blocker).unwrap();
        blocker
    }

    #[test]
    fn failed_flush_keeps_the_page_dirty_for_the_next_one() {
        let dir = temp_db("flush-retry");
        let shape = canon_shape();
        let fp = shape.fingerprint();
        let db = SpecDb::open(&dir).unwrap();
        db.merge(&shape, 7, vec![entry(&shape, 10.0)]).unwrap();
        let blocker = block_page(&dir, db.page_of(fp));
        assert!(matches!(db.flush(), Err(DbError::Io(_))));
        std::fs::remove_dir(&blocker).unwrap();
        assert_eq!(db.flush().unwrap(), 1, "the failed page is still dirty");
        assert_eq!(db.flush().unwrap(), 0);
        drop(db);
        let reopened = SpecDb::open(&dir).unwrap();
        assert!(reopened.lookup(fp, 7).unwrap().is_some(), "record never reached the disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_eviction_write_keeps_the_victim_and_serves_the_lookup() {
        let dir = temp_db("evict-retry");
        let shape = canon_shape();
        let fp = shape.fingerprint();
        let pages = 4 * RESIDENT_PAGES;
        let db = SpecDb::open_with(&dir, pages, 8).unwrap();
        db.merge(&shape, 7, vec![entry(&shape, 10.0)]).unwrap();
        let dirty = db.page_of(fp);
        let blocker = block_page(&dir, dirty);
        // Load every other page: the dirty one is the eviction victim each
        // time the bound is exceeded, its write fails, and each lookup is
        // answered all the same (a clean miss — the pages are empty).
        for other in (0..pages).filter(|&p| p != dirty) {
            assert_eq!(db.lookup(other as u64, 7).unwrap(), None);
        }
        let stats = db.stats();
        assert_eq!(stats.resident_pages, RESIDENT_PAGES, "clean pages went in its place");
        assert!(stats.page_evictions as usize >= pages - 1 - RESIDENT_PAGES);
        assert!(db.lookup(fp, 7).unwrap().is_some(), "the victim's records were dropped");
        assert!(matches!(db.flush(), Err(DbError::Io(_))));
        std::fs::remove_dir(&blocker).unwrap();
        assert_eq!(db.flush().unwrap(), 1);
        drop(db);
        let reopened = SpecDb::open_with(&dir, pages, 8).unwrap();
        assert!(reopened.lookup(fp, 7).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_merges_and_lookups_are_safe() {
        let dir = temp_db("concurrent");
        let db = std::sync::Arc::new(SpecDb::open(&dir).unwrap());
        let shapes: Vec<ConvShape> =
            (1..=16).map(|k| ConvShape::new(1, k, 3, 3, 3, 8, 8, 1).unwrap()).collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let db = db.clone();
                let shapes = shapes.clone();
                scope.spawn(move || {
                    for (i, shape) in shapes.iter().enumerate() {
                        if (i + t) % 2 == 0 {
                            db.merge(shape, 7, vec![entry(shape, i as f64)]).unwrap();
                        } else {
                            let _ = db.lookup(shape.fingerprint(), 7).unwrap();
                        }
                    }
                });
            }
        });
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.inserts, 32);
        std::fs::remove_dir_all(&dir).ok();
    }
}
