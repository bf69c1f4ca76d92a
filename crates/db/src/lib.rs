//! A persistent, canonicalized top-k schedule database.
//!
//! Every in-process cache in the serving layer memoizes exact
//! `(shape, machine, options, threads)` keys and dies with its process, so
//! a fleet of `moptd` instances re-solves the same problems forever and a
//! restart starts cold. This crate is the durable tier underneath them,
//! after the shape of Morello's `FilesDatabase`: a paged on-disk store of
//! *canonical* spec → top-k [`ScheduleEntry`] lists, shared across runs and
//! composed by the search itself.
//!
//! Three pieces make cross-process reuse real:
//!
//! * **Canonical keys** ([`conv_spec::canonical`]): raw shapes normalize
//!   under cost-preserving symmetries (R/S orientation, pointwise dilation
//!   default, divisor-equivalent padding of the free dims), so distinct raw
//!   requests resolve to one stored entry; schedules rewrite back through
//!   [`conv_spec::SpecTransform`].
//! * **Paged storage** ([`store`]): entries live in page files keyed by
//!   `fingerprint % pages`, each with a versioned header and an FNV-1a
//!   checksum, replaced atomically (temp file + rename, via [`ioutil`]). An
//!   in-memory page LRU keeps hot lookups off disk.
//! * **Re-ranking** ([`mod@rerank`]): entries are stored stripped to their
//!   sequential canonical form; a query at any `threads`/options setting is
//!   answered by rewriting the candidates to the raw shape, repairing them
//!   into the per-thread capacity envelope, and re-pricing them with
//!   `mopt_model` — no optimizer run needed.
//!
//! # Example
//!
//! ```
//! use conv_spec::{canonicalize, ConvShape};
//! use mopt_db::{ScheduleEntry, SpecDb};
//!
//! let dir = std::env::temp_dir().join(format!("mopt-db-doc-{}", std::process::id()));
//! let db = SpecDb::open(&dir).unwrap();
//! let (canon, _) = canonicalize(&ConvShape::new(1, 8, 4, 3, 3, 8, 8, 1).unwrap());
//! assert!(db.lookup(canon.fingerprint(), 7).unwrap().is_none());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod ioutil;
pub mod rerank;
pub mod store;

pub use rerank::{entries_for_spec, entries_from_result, rerank, rerank_spec};
pub use store::{DbStats, ScheduleEntry, SpecDb, SpecRecord, DB_VERSION};

/// Errors produced by the database.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A manifest or page file was not a valid document.
    Format(String),
    /// A file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// A page failed its checksum or internal consistency checks.
    Corrupt {
        /// The page number.
        page: usize,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "database I/O error: {e}"),
            DbError::Format(msg) => write!(f, "database format error: {msg}"),
            DbError::VersionMismatch { found, expected } => {
                write!(f, "database version {found} is not the supported version {expected}")
            }
            DbError::Corrupt { page, detail } => {
                write!(f, "database page {page} is corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

/// The FNV-1a hash used for page checksums: [`conv_spec::Fnv1a`] over one
/// byte string, the function behind the stable fingerprints too.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = conv_spec::Fnv1a::new();
    hash.bytes(bytes);
    hash.finish()
}
