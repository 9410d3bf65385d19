//! Load-once caching of persisted transformation libraries (DESIGN.md §7).
//!
//! Generation is offline; a service process should pay for a library at most
//! once, as a cold file read. [`LibraryCache`] maps artifact paths (and, with
//! a registry, registry keys) to [`LoadedLibrary`] entries — the header plus
//! the dispatch index behind an [`Arc`] — so any number of
//! [`crate::Optimizer`]s and [`crate::OptimizationService`]s share one
//! in-memory index per artifact, exactly as batches already share one index
//! per service (DESIGN.md §6).
//!
//! Path loads and registry-key loads share one routine: open each artifact
//! lazily, decode its prebuilt index section and verify every other byte
//! against the class-table digests ([`LazyLibrary::open_verified`]; a
//! registry load takes the handles [`Registry::get_verified`] verified)
//! before anything is cached, apply the audit gate, and serve the prebuilt
//! index — reassembled from the slices of a shard group, or, when the
//! artifact carries none, built once from the ECC payload
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

use quartz_gen::TransformationIndex;
use quartz_gen::{
    assemble_index, transformations_from_ecc_set, AuditStamp, LazyLibrary, LibraryError,
    LibraryHeader, Registry, RegistryKey,
};
use quartz_verify::VerifierConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A library artifact resident in memory: its header and its dispatch
/// index, shareable across optimizers and services via [`Arc`].
#[derive(Debug)]
pub struct LoadedLibrary {
    path: PathBuf,
    header: LibraryHeader,
    index: Arc<TransformationIndex>,
    index_was_prebuilt: bool,
    load_time: Duration,
    /// The lazy handles behind this entry: one for a path load or a whole
    /// registry artifact, one per shard for a sharded registry entry.
    shards: Vec<Arc<LazyLibrary>>,
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

    /// The dispatch index, shared — cloning the `Arc` is the whole cost of
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

    /// Number of artifacts backing this entry: 1 for a path load or a
    /// whole registry artifact, the group size for a sharded registry
    /// entry.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lazy per-artifact handles behind this entry, in shard order.
    pub fn lazy_shards(&self) -> &[Arc<LazyLibrary>] {
        &self.shards
    }

    /// Equivalence classes decoded so far across the lazy handles — the
    /// entry's memory footprint is proportional to this, not to the
    /// library size. Zero for artifacts whose prebuilt index made class
    /// decoding unnecessary.
    pub fn decoded_classes(&self) -> usize {
        self.shards.iter().map(|s| s.decoded_classes()).sum()
    }
}

/// A load-once, share-everywhere cache of library artifacts, keyed by
/// canonical path (and by registry key). See the module-level docs for an
/// example.
#[derive(Debug, Default)]
pub struct LibraryCache {
    entries: Mutex<HashMap<PathBuf, Arc<LoadedLibrary>>>,
    by_key: Mutex<HashMap<RegistryKey, Arc<LoadedLibrary>>>,
    registry: Option<Registry>,
    require_audit: bool,
}

impl LibraryCache {
    /// Creates an empty cache with no registry that loads unaudited
    /// artifacts.
    pub fn new() -> Self {
        LibraryCache::default()
    }

    /// Creates an empty cache with both settings:
    ///
    /// * `registry_root`: back [`LibraryCache::get_for_key`] with the
    ///   content-addressed registry at that directory (DESIGN.md §12.4),
    ///   mapping each key's blob (or shard group) on its first request and
    ///   serving every later request from memory; path loads keep working
    ///   alongside.
    /// * `require_audit`: refuse artifacts without a live audit stamp — the
    ///   `<artifact>.audit` sidecar written by `quartz-lib audit
    ///   --write-stamp` must exist and
    ///   [certify](quartz_gen::AuditStamp::certifies) the artifact's
    ///   checksum under the default verifier configuration. This applies
    ///   to path loads and to every registry blob (each shard of a group
    ///   individually); refused loads fail with
    ///   [`LibraryError::NotAudited`] and nothing is cached.
    ///
    /// # Errors
    ///
    /// I/O errors creating the registry layout.
    pub fn open(registry_root: Option<&Path>, require_audit: bool) -> Result<Self, LibraryError> {
        Ok(LibraryCache {
            registry: registry_root.map(Registry::open).transpose()?,
            require_audit,
            ..LibraryCache::default()
        })
    }

    /// The backing registry, when this cache was opened with a registry
    /// root.
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
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
        let start = Instant::now();
        let blob = (path.to_path_buf(), LazyLibrary::open_verified(path)?);
        let loaded = Arc::new(self.load(vec![blob], key.clone(), start)?);
        // A concurrent load of the same artifact may have won the race;
        // keep the incumbent so every caller sees one shared index.
        let mut entries = self.lock();
        let entry = entries.entry(key).or_insert(loaded);
        Ok(Arc::clone(entry))
    }

    /// Resolves `key` through the backing registry, loading its blob — or
    /// its complete shard group — on the first request and serving every
    /// later request from memory.
    ///
    /// Shard groups get their parent's index reassembled from the
    /// per-shard slices ([`quartz_gen::assemble_index`]), bit-identical to
    /// the index a direct load of the unsharded parent produces.
    ///
    /// # Errors
    ///
    /// [`LibraryError::Malformed`] when the cache has no registry;
    /// resolution and integrity errors from [`Registry::get_verified`];
    /// [`LibraryError::NotAudited`] for any blob — each shard of a group
    /// individually — without a live stamp when auditing is required.
    pub fn get_for_key(&self, key: &RegistryKey) -> Result<Arc<LoadedLibrary>, LibraryError> {
        let registry = self.registry.as_ref().ok_or_else(|| {
            LibraryError::Malformed(
                "this cache has no registry — open it with a registry root".to_string(),
            )
        })?;
        if let Some(entry) = self.lock_keys().get(key) {
            return Ok(Arc::clone(entry));
        }
        let start = Instant::now();
        let blobs = registry.get_verified(key)?;
        let entry_path = registry.root().join("keys").join(key.dir_name());
        let loaded = Arc::new(self.load(blobs, entry_path, start)?);
        let mut entries = self.lock_keys();
        let entry = entries.entry(key.clone()).or_insert(loaded);
        Ok(Arc::clone(entry))
    }

    /// Number of artifacts resident in the cache (path entries plus
    /// registry-key entries).
    pub fn len(&self) -> usize {
        self.lock().len() + self.lock_keys().len()
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

    fn lock_keys(&self) -> std::sync::MutexGuard<'_, HashMap<RegistryKey, Arc<LoadedLibrary>>> {
        self.by_key
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The one load routine: takes every verified artifact of the entry
    /// (one, or a shard group) with its path, applies the audit gate, then
    /// serves the prebuilt index — or builds one. `start` is when opening
    /// the artifacts began.
    fn load(
        &self,
        blobs: Vec<(PathBuf, LazyLibrary)>,
        entry_path: PathBuf,
        start: Instant,
    ) -> Result<LoadedLibrary, LibraryError> {
        let mut shards = Vec::with_capacity(blobs.len());
        for (path, lazy) in blobs {
            if self.require_audit {
                let certified = AuditStamp::load_for(&path).is_some_and(|stamp| {
                    stamp.certifies(lazy.header().checksum, VerifierConfig::default().digest())
                });
                if !certified {
                    return Err(LibraryError::NotAudited {
                        path: path.display().to_string(),
                    });
                }
            }
            shards.push(Arc::new(lazy));
        }
        let (index, index_was_prebuilt) = if shards.len() > 1 {
            let refs: Vec<&LazyLibrary> = shards.iter().map(|s| s.as_ref()).collect();
            (Arc::new(assemble_index(&refs)?), true)
        } else {
            match shards[0].index()? {
                Some(index) => (index, true),
                None => {
                    let set = shards[0].ecc_set()?;
                    let index = TransformationIndex::new(transformations_from_ecc_set(&set, true));
                    (Arc::new(index), false)
                }
            }
        };
        Ok(LoadedLibrary {
            path: entry_path,
            header: group_header(&shards),
            index,
            index_was_prebuilt,
            load_time: start.elapsed(),
            shards,
        })
    }
}

/// The header an entry reports: the artifact's own header for a whole
/// library; for a shard group, the parent's identity reassembled from the
/// uniform shard headers and the parent provenance the class tables carry
/// (the parent's class count and checksum, section sums across the group).
fn group_header(shards: &[Arc<LazyLibrary>]) -> LibraryHeader {
    let mut header = shards[0].header().clone();
    let table = shards[0].class_table();
    if table.is_shard() {
        header.num_eccs = table.parent_num_eccs;
        header.checksum = table.parent_checksum;
        header.total_circuits = shards.iter().map(|s| s.header().total_circuits).sum();
        header.total_instructions = shards.iter().map(|s| s.header().total_instructions).sum();
        header.ecc_len = shards.iter().map(|s| s.header().ecc_len).sum();
        header.index_len = shards.iter().map(|s| s.header().index_len).sum();
    }
    header
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
        let cache = LibraryCache::open(None, true).unwrap();
        assert!(cache.requires_audit());
        assert!(!LibraryCache::new().requires_audit());
        let err = cache.get_or_load(&path).unwrap_err();
        assert!(matches!(err, LibraryError::NotAudited { .. }));
        assert!(err.to_string().contains("unstamped.qtzl"));
        assert!(cache.is_empty());
    }

    fn shardable_set() -> EccSet {
        let mut set = EccSet::new(2, 0);
        for gate in [Gate::H, Gate::X] {
            let mut pair = Circuit::new(2, 0);
            pair.push(Instruction::new(gate, vec![0], vec![]));
            pair.push(Instruction::new(gate, vec![0], vec![]));
            set.eccs.push(Ecc::new(vec![pair, Circuit::new(2, 0)]));
        }
        let mut cnots = Circuit::new(2, 0);
        cnots.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        cnots.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        set.eccs.push(Ecc::new(vec![cnots, Circuit::new(2, 0)]));
        set
    }

    fn temp_registry_dir(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "quartz_cache_registry_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn registry_shard_groups_resolve_to_the_parent_index_without_decoding_classes() {
        use quartz_gen::{shard_library, Registry, RegistryKey};

        let root = temp_registry_dir("shards");
        let parent = Library::new("Nam", shardable_set(), true);
        let shard_dir = root.join("staging");
        std::fs::create_dir_all(&shard_dir).unwrap();
        let mut paths = Vec::new();
        for (i, bytes) in shard_library(&parent, 2).unwrap().iter().enumerate() {
            let path = shard_dir.join(format!("parent.shard{i}.qtzl"));
            std::fs::write(&path, bytes).unwrap();
            paths.push(path);
        }
        Registry::open(&root).unwrap().add(&paths).unwrap();

        let cache = LibraryCache::open(Some(&root), false).unwrap();
        assert!(cache.registry().is_some());
        let key = RegistryKey::from_header(parent.header());
        let loaded = cache.get_for_key(&key).unwrap();
        assert_eq!(loaded.shard_count(), 2);
        assert_eq!(loaded.lazy_shards().len(), 2);
        // The entry reports the *parent's* identity...
        assert_eq!(loaded.header().checksum, parent.header().checksum);
        assert_eq!(loaded.header().num_eccs, parent.header().num_eccs);
        // ...and its index is bit-identical to the unsharded one, assembled
        // from the per-shard slices without touching any class payload.
        assert!(loaded.index_was_prebuilt());
        assert_eq!(
            loaded.shared_index().transformations(),
            parent.index().unwrap().transformations()
        );
        assert_eq!(loaded.decoded_classes(), 0);

        // The second request is served from memory.
        let again = cache.get_for_key(&key).unwrap();
        assert!(Arc::ptr_eq(&loaded, &again));
        assert_eq!(cache.len(), 1);

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn registry_whole_artifacts_resolve_lazily_and_keyless_caches_refuse_keys() {
        use quartz_gen::{Registry, RegistryKey};

        let root = temp_registry_dir("whole");
        let library = Library::new("Nam", shardable_set(), true);
        Registry::open(&root)
            .unwrap()
            .add_library(&library)
            .unwrap();

        let cache = LibraryCache::open(Some(&root), false).unwrap();
        let key = RegistryKey::from_header(library.header());
        let loaded = cache.get_for_key(&key).unwrap();
        assert_eq!(loaded.shard_count(), 1);
        assert!(loaded.index_was_prebuilt());
        assert_eq!(
            loaded.decoded_classes(),
            0,
            "prebuilt index needs no classes"
        );
        assert_eq!(
            loaded.shared_index().transformations(),
            library.index().unwrap().transformations()
        );

        let keyless = LibraryCache::new();
        let err = keyless.get_for_key(&key).unwrap_err();
        assert!(err.to_string().contains("registry root"), "{err}");

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn registry_audit_gating_is_per_shard() {
        use quartz_gen::{shard_library, AuditConfig, Auditor, Registry, RegistryKey};

        let root = temp_registry_dir("audit");
        let parent = Library::new("Nam", shardable_set(), true);
        let shard_dir = root.join("staging");
        std::fs::create_dir_all(&shard_dir).unwrap();
        let mut paths = Vec::new();
        for (i, bytes) in shard_library(&parent, 2).unwrap().iter().enumerate() {
            let path = shard_dir.join(format!("parent.shard{i}.qtzl"));
            std::fs::write(&path, bytes).unwrap();
            paths.push(path);
        }
        // Stamp only shard 0: the group must still be refused — audit
        // gating applies to every shard individually.
        let report = Auditor::new(AuditConfig::default())
            .audit_artifact(&paths[0], false)
            .unwrap();
        report
            .stamp()
            .expect("shard audits clean")
            .save_for(&paths[0])
            .unwrap();
        Registry::open(&root).unwrap().add(&paths).unwrap();

        let cache = LibraryCache::open(Some(&root), true).unwrap();
        assert!(cache.requires_audit());
        let key = RegistryKey::from_header(parent.header());
        let err = cache.get_for_key(&key).unwrap_err();
        assert!(matches!(err, LibraryError::NotAudited { .. }), "{err}");
        assert!(cache.is_empty(), "nothing may be cached on a refused load");

        // Stamping the remaining shard unblocks the key.
        let report = Auditor::new(AuditConfig::default())
            .audit_artifact(&paths[1], false)
            .unwrap();
        report
            .stamp()
            .expect("shard audits clean")
            .save_for(&paths[1])
            .unwrap();
        Registry::open(&root).unwrap().add(&paths).unwrap();
        let loaded = cache.get_for_key(&key).unwrap();
        assert_eq!(loaded.shard_count(), 2);

        let _ = std::fs::remove_dir_all(&root);
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

        let cache = LibraryCache::open(None, true).unwrap();
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

        let fresh = LibraryCache::open(None, true).unwrap();
        assert!(matches!(
            fresh.get_or_load(&path),
            Err(LibraryError::NotAudited { .. })
        ));
    }
}
