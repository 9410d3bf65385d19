//! Load-once caching of persisted transformation libraries (DESIGN.md §7).
//!
//! Generation is offline; a service process should pay for a library at most
//! once, as a cold file read. [`LibraryCache`] maps artifact paths to
//! [`LoadedLibrary`] entries — the header plus the transformation index behind an
//! [`Arc`] — so any number of
//! [`crate::Optimizer`]s and [`crate::OptimizationService`]s share one
//! in-memory index per artifact, exactly as batches already share one index
//! per service (DESIGN.md §6).
//!
//! A load opens the artifact lazily, decodes its prebuilt index section
//! and verifies every other byte against the class-table digests
//! ([`LazyLibrary::open_verified`]) before anything is cached, applies the
//! audit gate, and serves the prebuilt index — or, when the artifact
//! carries none, one built once from the ECC payload
//! ([`LoadedLibrary::index_was_prebuilt`] records which happened). Every
//! byte of the file is hashed once per load, and classes stay undecoded
//! unless the index has to be built.
//!
//! # Examples
//!
//! ```
//! use quartz_gen::{EccSet, Library};
//! use quartz_opt::{LibraryCache, Optimizer, SearchConfig};
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join("quartz_library_cache_doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("tiny.qtzl");
//! Library::new("Nam", EccSet::new(2, 0), true).save(&path).unwrap();
//!
//! let cache = LibraryCache::new();
//! let first = cache.get_or_load(&path).unwrap();
//! let second = cache.get_or_load(&path).unwrap();
//! // The second request is served from memory: same Arc, no file read.
//! assert!(Arc::ptr_eq(&first, &second));
//! assert!(first.index_was_prebuilt());
//! assert_eq!(first.decoded_classes(), 0);
//!
//! let optimizer = Optimizer::from_library(&first, SearchConfig::default());
//! assert_eq!(optimizer.transformations().len(), 0);
//! ```

use quartz_gen::{
    transformations_from_ecc_set, AuditStamp, LazyLibrary, LibraryError, LibraryHeader,
    TransformationIndex,
};
use quartz_verify::VerifierConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A library artifact resident in memory: its header and its transformation
/// index, shareable across optimizers and services via [`Arc`].
#[derive(Debug)]
pub struct LoadedLibrary {
    path: PathBuf,
    header: LibraryHeader,
    index: Arc<TransformationIndex>,
    index_was_prebuilt: bool,
    load_time: Duration,
    /// The lazy handle behind this entry.
    lazy: Arc<LazyLibrary>,
}

impl LoadedLibrary {
    /// The path the artifact was loaded from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The artifact header (gate set, `(n, q, m)`, counts, checksum).
    pub fn header(&self) -> &LibraryHeader {
        &self.header
    }

    /// The transformation index, shared — cloning the `Arc` is the whole cost of
    /// handing the library to another optimizer or service.
    pub fn shared_index(&self) -> Arc<TransformationIndex> {
        Arc::clone(&self.index)
    }

    /// `true` when the index was decoded from the artifact's prebuilt
    /// section, `false` when it had to be built from the ECC payload.
    pub fn index_was_prebuilt(&self) -> bool {
        self.index_was_prebuilt
    }

    /// Wall-clock time the open + verify + index decode took.
    pub fn load_time(&self) -> Duration {
        self.load_time
    }

    /// Equivalence classes decoded so far by the lazy handle — the entry's
    /// memory footprint is proportional to this, not to the library size.
    /// Zero for artifacts whose prebuilt index made class decoding
    /// unnecessary.
    pub fn decoded_classes(&self) -> usize {
        self.lazy.decoded_classes()
    }
}

/// A load-once, share-everywhere cache of library artifacts, keyed by
/// canonical path. See the module-level docs for an example.
#[derive(Debug, Default)]
pub struct LibraryCache {
    entries: Mutex<HashMap<PathBuf, Arc<LoadedLibrary>>>,
    require_audit: bool,
}

impl LibraryCache {
    /// Creates an empty cache that loads unaudited artifacts.
    pub fn new() -> Self {
        LibraryCache::default()
    }

    /// Creates an empty cache that, with `require_audit`, refuses artifacts
    /// without a live audit stamp: the `<artifact>.audit` sidecar written
    /// by `quartz-lib audit --write-stamp` must exist and
    /// [certify](quartz_gen::AuditStamp::certifies) the artifact's checksum
    /// under the default verifier configuration. Refused loads fail with
    /// [`LibraryError::NotAudited`] and nothing is cached.
    pub fn with_audit_required(require_audit: bool) -> Self {
        LibraryCache {
            require_audit,
            ..LibraryCache::default()
        }
    }

    /// Whether this cache refuses artifacts without a live audit stamp.
    pub fn requires_audit(&self) -> bool {
        self.require_audit
    }

    /// Returns the library at `path`, opening and verifying the artifact on
    /// the first request and serving every later request from memory.
    ///
    /// # Errors
    ///
    /// Propagates I/O and artifact-validation errors
    /// ([`quartz_gen::LibraryError`]); nothing is cached on failure.
    pub fn get_or_load(&self, path: impl AsRef<Path>) -> Result<Arc<LoadedLibrary>, LibraryError> {
        let path = path.as_ref();
        // Canonicalize so `libraries/x.qtzl` and `./libraries/x.qtzl` share
        // an entry; fall back to the verbatim path when the file is missing
        // (the load below will produce the error, with the path in it).
        let key = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
        if let Some(entry) = self.lock().get(&key) {
            return Ok(Arc::clone(entry));
        }
        let loaded = Arc::new(self.load(path, key.clone())?);
        // A concurrent load of the same artifact may have won the race;
        // keep the incumbent so every caller sees one shared index.
        let mut entries = self.lock();
        let entry = entries.entry(key).or_insert(loaded);
        Ok(Arc::clone(entry))
    }

    /// Number of artifacts resident in the cache.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Returns `true` when no artifact has been loaded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<PathBuf, Arc<LoadedLibrary>>> {
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Opens and verifies the artifact at `path`, applies the audit gate,
    /// then serves the prebuilt index — or builds one. The entry records
    /// `key`, the canonical path it is cached under.
    fn load(&self, path: &Path, key: PathBuf) -> Result<LoadedLibrary, LibraryError> {
        let start = Instant::now();
        let lazy = LazyLibrary::open_verified(path)?;
        if self.require_audit {
            let certified = AuditStamp::load_for(path).is_some_and(|stamp| {
                stamp.certifies(lazy.header().checksum, VerifierConfig::default().digest())
            });
            if !certified {
                return Err(LibraryError::NotAudited {
                    path: path.display().to_string(),
                });
            }
        }
        let (index, index_was_prebuilt) = match lazy.index()? {
            Some(index) => (index, true),
            None => {
                let set = lazy.ecc_set()?;
                let index = TransformationIndex::new(transformations_from_ecc_set(&set, true));
                (Arc::new(index), false)
            }
        };
        Ok(LoadedLibrary {
            path: key,
            header: lazy.header().clone(),
            index,
            index_was_prebuilt,
            load_time: start.elapsed(),
            lazy: Arc::new(lazy),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_gen::{Ecc, EccSet, Library};
    use quartz_ir::{Circuit, Gate, Instruction};

    fn sample_set() -> EccSet {
        let mut hh = Circuit::new(2, 0);
        hh.push(Instruction::new(Gate::H, vec![0], vec![]));
        hh.push(Instruction::new(Gate::H, vec![0], vec![]));
        let mut set = EccSet::new(2, 0);
        set.eccs.push(Ecc::new(vec![hh, Circuit::new(2, 0)]));
        set
    }

    fn temp_artifact(name: &str, with_index: bool) -> PathBuf {
        let dir = std::env::temp_dir().join("quartz_cache_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        Library::new("Nam", sample_set(), with_index)
            .save(&path)
            .unwrap();
        path
    }

    #[test]
    fn second_load_is_served_from_memory() {
        let path = temp_artifact("cached.qtzl", true);
        let cache = LibraryCache::new();
        assert!(cache.is_empty());
        let a = cache.get_or_load(&path).unwrap();
        let b = cache.get_or_load(&path).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert!(a.index_was_prebuilt());
        assert_eq!(a.header().gate_set, "Nam");
        assert_eq!(a.shared_index().len(), 1); // HH → empty
    }

    #[test]
    fn artifacts_without_an_index_build_one_on_load() {
        let path = temp_artifact("no_index.qtzl", false);
        let cache = LibraryCache::new();
        let loaded = cache.get_or_load(&path).unwrap();
        assert!(!loaded.index_was_prebuilt());
        assert_eq!(loaded.shared_index().len(), 1);
    }

    #[test]
    fn load_failures_are_reported_and_not_cached() {
        let cache = LibraryCache::new();
        let missing = std::env::temp_dir().join("quartz_cache_tests/definitely_missing.qtzl");
        let err = cache.get_or_load(&missing).unwrap_err();
        assert!(err.to_string().contains("definitely_missing.qtzl"));
        assert!(cache.is_empty());

        // A corrupted class table is rejected by the checksum at open...
        let path = temp_artifact("corrupt.qtzl", true);
        let good = std::fs::read(&path).unwrap();
        let mut bytes = good.clone();
        bytes[quartz_gen::HEADER_LEN + 40] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            cache.get_or_load(&path),
            Err(LibraryError::ChecksumMismatch { .. })
        ));
        assert!(cache.is_empty());

        // ...and a corrupted body byte by its section digest before
        // anything is cached, even though the load decodes no class.
        let mut bytes = good;
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            cache.get_or_load(&path),
            Err(LibraryError::IndexDigestMismatch { .. })
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn requiring_audit_rejects_unstamped_artifacts() {
        let path = temp_artifact("unstamped.qtzl", true);
        let _ = std::fs::remove_file(AuditStamp::sidecar_path(&path));
        let cache = LibraryCache::with_audit_required(true);
        assert!(cache.requires_audit());
        assert!(!LibraryCache::new().requires_audit());
        let err = cache.get_or_load(&path).unwrap_err();
        assert!(matches!(err, LibraryError::NotAudited { .. }));
        assert!(err.to_string().contains("unstamped.qtzl"));
        assert!(cache.is_empty());
    }

    #[test]
    fn requiring_audit_accepts_certified_artifacts_and_rejects_stale_stamps() {
        use quartz_gen::{AuditConfig, Auditor};

        let path = temp_artifact("stamped.qtzl", true);
        let report = Auditor::new(AuditConfig::default())
            .audit_artifact(&path, false)
            .unwrap();
        let stamp = report.stamp().expect("the sample set audits clean");
        stamp.save_for(&path).unwrap();

        let cache = LibraryCache::with_audit_required(true);
        let loaded = cache.get_or_load(&path).unwrap();
        assert_eq!(loaded.header().gate_set, "Nam");

        // Re-packing different content under the same path invalidates the
        // stamp: the sidecar certifies the old checksum only.
        let mut grown = sample_set();
        let mut xx = Circuit::new(2, 0);
        xx.push(Instruction::new(Gate::X, vec![0], vec![]));
        xx.push(Instruction::new(Gate::X, vec![0], vec![]));
        grown.eccs.push(Ecc::new(vec![xx, Circuit::new(2, 0)]));
        Library::new("Nam", grown, true).save(&path).unwrap();

        let fresh = LibraryCache::with_audit_required(true);
        assert!(matches!(
            fresh.get_or_load(&path),
            Err(LibraryError::NotAudited { .. })
        ));
    }
}
