//! A content-addressed on-disk library registry (DESIGN.md §12.4).
//!
//! Committed fixtures under `libraries/` were the right distribution
//! channel for three quick-scale artifacts; a fleet serving many gate sets
//! at paper scale wants a *registry*: artifacts published once, fetched by
//! what they are — `(gate set, n, q, m, generator version)` — and verified
//! every time they are handed out. This module is that registry:
//!
//! ```text
//! <root>/
//!   blobs/<artifact checksum, 16 hex digits>.qtzl        content-addressed
//!   blobs/<checksum>.qtzl.audit                          sidecar, if published
//!   keys/<gate set>_n<n>_q<q>_m<m>_g<gv>/MANIFEST        key → blob pointer
//!   tmp/                                                 staging for renames
//! ```
//!
//! **Atomic publish protocol.** Every file lands via tempfile-in-`tmp/` +
//! `rename` — there is never a partially-written blob or manifest at its
//! final path. Blobs are content-addressed, so two processes racing to
//! publish the same artifact write byte-identical files and either rename
//! wins harmlessly; the key's `MANIFEST` is renamed last, so a reader
//! either sees the previous complete state or the new complete state,
//! never a torn one. [`Registry::get`] re-verifies every blob's integrity
//! (header, checksum, and every class and index digest, via
//! [`LazyLibrary::verify_all`]) before returning it, and retries once if a
//! concurrent `gc` swept a blob between the manifest read and the open.
//!
//! A manifest points at one whole artifact or at one complete shard group
//! ([`crate::shard_library`]); [`Registry::add`] validates the group before
//! publishing so a key can never resolve to half a library.

use crate::lazy::LazyLibrary;
use crate::library::{path_io_error, Library, LibraryError, LibraryHeader};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// What a library *is*, independent of where its bytes live: the generation
/// inputs that produced it. Two artifacts with the same key are
/// interchangeable (same generator version ⟹ same bytes, byte-identical
/// regeneration is CI-enforced).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegistryKey {
    /// Gate set name, as recorded in the artifact header.
    pub gate_set: String,
    /// `n`: largest member-circuit gate count.
    pub max_gates: u32,
    /// `q`: number of qubits.
    pub num_qubits: u32,
    /// `m`: number of formal parameters.
    pub num_params: u32,
    /// Generator pipeline version ([`crate::GENERATOR_VERSION`]).
    pub generator_version: u32,
}

impl RegistryKey {
    /// Derives the key from an artifact header. Shards keep their parent's
    /// `(n, q, m)` precisely so this derivation is uniform across a group.
    pub fn from_header(header: &LibraryHeader) -> RegistryKey {
        RegistryKey {
            gate_set: header.gate_set.clone(),
            max_gates: header.max_gates,
            num_qubits: header.num_qubits,
            num_params: header.num_params,
            generator_version: header.generator_version,
        }
    }

    /// The key's directory name under `keys/`: lowercase gate set (non
    /// [a-z0-9] bytes folded to `-`) plus the numeric coordinates.
    pub fn dir_name(&self) -> String {
        let set: String = self
            .gate_set
            .chars()
            .map(|c| {
                let c = c.to_ascii_lowercase();
                if c.is_ascii_alphanumeric() {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        format!(
            "{set}_n{}_q{}_m{}_g{}",
            self.max_gates, self.num_qubits, self.num_params, self.generator_version
        )
    }
}

impl fmt::Display for RegistryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} n={} q={} m={} gen={}",
            self.gate_set, self.max_gates, self.num_qubits, self.num_params, self.generator_version
        )
    }
}

/// One key's published state, as read from its manifest.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// The key.
    pub key: RegistryKey,
    /// Number of artifacts behind the key (1 for a whole library, the
    /// shard-group size otherwise).
    pub shard_count: usize,
    /// Blob file names in shard-sequence order.
    pub blobs: Vec<String>,
}

/// Handle to a registry root directory. Cheap to clone; all methods take
/// `&self` and are safe to call from many threads and processes at once
/// (see the module docs for the publish protocol).
#[derive(Debug, Clone)]
pub struct Registry {
    root: PathBuf,
}

const MANIFEST_MAGIC: &str = "quartz-registry-manifest v1";

/// Distinguishes concurrently-staged temp files within one process; the
/// process id distinguishes across processes.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Registry {
    /// Opens (creating if necessary) a registry rooted at `root`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory layout, with the offending path in
    /// the message.
    pub fn open(root: impl Into<PathBuf>) -> Result<Registry, LibraryError> {
        let root = root.into();
        for dir in [
            root.clone(),
            root.join("blobs"),
            root.join("keys"),
            root.join("tmp"),
        ] {
            std::fs::create_dir_all(&dir).map_err(|e| LibraryError::Io(path_io_error(&dir, e)))?;
        }
        Ok(Registry { root })
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn blob_path(&self, name: &str) -> PathBuf {
        self.root.join("blobs").join(name)
    }

    fn manifest_path(&self, key: &RegistryKey) -> PathBuf {
        self.root.join("keys").join(key.dir_name()).join("MANIFEST")
    }

    /// Writes `bytes` to its final `path` atomically: staged in `tmp/`,
    /// then renamed into place.
    fn publish_file(&self, path: &Path, bytes: &[u8]) -> Result<(), LibraryError> {
        let stage = self.root.join("tmp").join(format!(
            "{}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        ));
        std::fs::write(&stage, bytes).map_err(|e| LibraryError::Io(path_io_error(&stage, e)))?;
        std::fs::rename(&stage, path).map_err(|e| LibraryError::Io(path_io_error(path, e)))
    }

    /// Publishes one whole artifact or one complete shard group under its
    /// derived key. Every input is fully verified first (header, checksum,
    /// and every section digest); shard groups must be complete and
    /// mutually-consistent. Audit sidecars sitting next to the inputs are
    /// published alongside their blobs, so `--require-audited` loaders can
    /// fetch from the registry too.
    ///
    /// Returns the key the artifacts were published under.
    ///
    /// # Errors
    ///
    /// Validation failures on any input, key mismatches within the group,
    /// incomplete shard groups, and I/O errors (paths named).
    pub fn add(&self, paths: &[PathBuf]) -> Result<RegistryKey, LibraryError> {
        if paths.is_empty() {
            return Err(LibraryError::Malformed(
                "registry add needs at least one artifact".to_string(),
            ));
        }
        let mut key: Option<RegistryKey> = None;
        let mut entries: Vec<(u32, u32, u64, PathBuf, Vec<u8>)> = Vec::with_capacity(paths.len());
        let mut parent_checksum: Option<u64> = None;
        for path in paths {
            let bytes =
                std::fs::read(path).map_err(|e| LibraryError::Io(path_io_error(path, e)))?;
            let lazy = LazyLibrary::from_bytes(bytes.clone())?;
            lazy.verify_all()?;
            let header = lazy.header();
            let this_key = RegistryKey::from_header(header);
            match &key {
                None => key = Some(this_key),
                Some(k) if *k == this_key => {}
                Some(k) => {
                    return Err(LibraryError::Malformed(format!(
                        "{}: key {this_key} does not match the group's key {k}",
                        path.display()
                    )));
                }
            }
            let table = lazy.class_table();
            let (seq, count, parent) = if table.is_shard() {
                (table.shard_seq, table.shard_count, table.parent_checksum)
            } else {
                (0, 1, 0)
            };
            match parent_checksum {
                None => parent_checksum = Some(parent),
                Some(p) if p == parent => {}
                Some(_) => {
                    return Err(LibraryError::Malformed(format!(
                        "{}: shard belongs to a different parent artifact than the rest \
                         of the group",
                        path.display()
                    )));
                }
            }
            entries.push((seq, count, header.checksum, path.clone(), bytes));
        }
        let group_count = entries[0].1 as usize;
        if entries.len() != group_count {
            return Err(LibraryError::Malformed(format!(
                "group of {group_count} published with {} artifacts — a key must resolve to \
                 a whole library or a complete shard group",
                entries.len()
            )));
        }
        let mut seen = vec![false; group_count];
        for (seq, count, ..) in &entries {
            if *count as usize != group_count || *seq as usize >= group_count {
                return Err(LibraryError::Malformed(format!(
                    "inconsistent shard group: artifact claims shard {seq} of {count}, group \
                     has {group_count}"
                )));
            }
            if std::mem::replace(&mut seen[*seq as usize], true) {
                return Err(LibraryError::Malformed(format!(
                    "duplicate shard sequence {seq} in the published group"
                )));
            }
        }
        entries.sort_by_key(|(seq, ..)| *seq);

        // Publish blobs (and their audit sidecars) first, manifest last.
        let mut manifest = format!("{MANIFEST_MAGIC}\n");
        let key = key.expect("at least one artifact");
        manifest.push_str(&format!(
            "key {} {} {} {} {}\n",
            key.gate_set, key.max_gates, key.num_qubits, key.num_params, key.generator_version
        ));
        for (seq, count, checksum, src, bytes) in &entries {
            let blob_name = format!("{checksum:016x}.qtzl");
            self.publish_file(&self.blob_path(&blob_name), bytes)?;
            let sidecar = crate::audit::AuditStamp::sidecar_path(src);
            if let Ok(stamp) = std::fs::read(&sidecar) {
                self.publish_file(&self.blob_path(&format!("{blob_name}.audit")), &stamp)?;
            }
            manifest.push_str(&format!(
                "artifact {seq}/{count} {checksum:016x} {blob_name}\n"
            ));
        }
        let manifest_path = self.manifest_path(&key);
        let key_dir = manifest_path.parent().expect("manifest has a parent");
        std::fs::create_dir_all(key_dir)
            .map_err(|e| LibraryError::Io(path_io_error(key_dir, e)))?;
        self.publish_file(&manifest_path, manifest.as_bytes())?;
        Ok(key)
    }

    fn read_entry(&self, key: &RegistryKey) -> Result<RegistryEntry, LibraryError> {
        let path = self.manifest_path(key);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| LibraryError::Io(path_io_error(&path, e)))?;
        parse_manifest(&path, &text)
    }

    /// Resolves `key` to verified artifact paths, shard-sequence order.
    ///
    /// Every returned blob was re-verified *by this call* — header,
    /// checksum, and (v2) every class and index digest — so a corrupted
    /// registry file is reported here, not at some later lazy decode. A
    /// blob swept by a concurrent [`Registry::gc`] triggers one manifest
    /// re-read and retry before the miss is reported.
    ///
    /// # Errors
    ///
    /// An unknown key surfaces as [`LibraryError::Io`] (`NotFound`, naming
    /// the manifest path); corrupt blobs surface as their integrity error.
    pub fn get(&self, key: &RegistryKey) -> Result<Vec<PathBuf>, LibraryError> {
        let blobs = self.get_verified(key)?;
        Ok(blobs.into_iter().map(|(path, _)| path).collect())
    }

    /// [`Registry::get`], also handing back the handle each blob was
    /// verified through ([`LazyLibrary::open_verified`]: index decoded,
    /// every byte hashed once), so a loader serves the blobs without
    /// opening or hashing them again.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::get`].
    pub fn get_verified(
        &self,
        key: &RegistryKey,
    ) -> Result<Vec<(PathBuf, LazyLibrary)>, LibraryError> {
        let mut last_err = None;
        for _attempt in 0..2 {
            let entry = self.read_entry(key)?;
            match self.verify_entry_blobs(&entry) {
                Ok(blobs) => return Ok(blobs),
                // Retry only on a vanished blob (a gc/republish race); real
                // corruption must be reported immediately.
                Err(LibraryError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                    last_err = Some(LibraryError::Io(e));
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("retry loop always records an error before exiting"))
    }

    fn verify_entry_blobs(
        &self,
        entry: &RegistryEntry,
    ) -> Result<Vec<(PathBuf, LazyLibrary)>, LibraryError> {
        let mut blobs = Vec::with_capacity(entry.blobs.len());
        for blob in &entry.blobs {
            let path = self.blob_path(blob);
            let lazy = LazyLibrary::open_verified(&path)?;
            let named: Option<u64> = blob
                .strip_suffix(".qtzl")
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            if named != Some(lazy.header().checksum) {
                return Err(LibraryError::Malformed(format!(
                    "{}: blob content (checksum {:#018x}) does not match its \
                     content-addressed name",
                    path.display(),
                    lazy.header().checksum
                )));
            }
            blobs.push((path, lazy));
        }
        Ok(blobs)
    }

    /// Lists every key currently published, with its blob layout.
    ///
    /// # Errors
    ///
    /// I/O errors walking `keys/` (paths named); malformed manifests.
    pub fn list(&self) -> Result<Vec<RegistryEntry>, LibraryError> {
        let keys_dir = self.root.join("keys");
        let mut entries = Vec::new();
        let dir = std::fs::read_dir(&keys_dir)
            .map_err(|e| LibraryError::Io(path_io_error(&keys_dir, e)))?;
        for key_dir in dir {
            let key_dir = key_dir.map_err(|e| LibraryError::Io(path_io_error(&keys_dir, e)))?;
            let path = key_dir.path().join("MANIFEST");
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                // A key directory without a manifest is a publish in flight;
                // skip it rather than failing the listing.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(LibraryError::Io(path_io_error(&path, e))),
            };
            entries.push(parse_manifest(&path, &text)?);
        }
        entries.sort_by_key(|e| e.key.dir_name());
        Ok(entries)
    }

    /// Removes blobs no manifest references and clears leftover staging
    /// files. Returns the number of files removed.
    ///
    /// Concurrent `get`s are safe: a reader that raced the sweep re-reads
    /// the manifest and retries once, and a blob is only unreferenced if no
    /// *current* manifest points at it.
    ///
    /// # Errors
    ///
    /// I/O errors walking or removing files (paths named).
    pub fn gc(&self) -> Result<usize, LibraryError> {
        let referenced: std::collections::HashSet<String> = self
            .list()?
            .into_iter()
            .flat_map(|e| e.blobs)
            .flat_map(|b| [format!("{b}.audit"), b])
            .collect();
        let mut removed = 0usize;
        let blobs_dir = self.root.join("blobs");
        let dir = std::fs::read_dir(&blobs_dir)
            .map_err(|e| LibraryError::Io(path_io_error(&blobs_dir, e)))?;
        for file in dir {
            let file = file.map_err(|e| LibraryError::Io(path_io_error(&blobs_dir, e)))?;
            let name = file.file_name().to_string_lossy().into_owned();
            if !referenced.contains(&name) {
                let path = file.path();
                match std::fs::remove_file(&path) {
                    Ok(()) => removed += 1,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(LibraryError::Io(path_io_error(&path, e))),
                }
            }
        }
        let tmp_dir = self.root.join("tmp");
        let dir = std::fs::read_dir(&tmp_dir)
            .map_err(|e| LibraryError::Io(path_io_error(&tmp_dir, e)))?;
        for file in dir {
            let file = file.map_err(|e| LibraryError::Io(path_io_error(&tmp_dir, e)))?;
            let path = file.path();
            match std::fs::remove_file(&path) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(LibraryError::Io(path_io_error(&path, e))),
            }
        }
        Ok(removed)
    }

    /// Convenience: publish an in-memory [`Library`] (used by tests and the
    /// bench driver). The artifact is staged to `tmp/` first so `add`'s
    /// validation and publish path is exercised unchanged.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::add`].
    pub fn add_library(&self, library: &Library) -> Result<RegistryKey, LibraryError> {
        let stage = self.root.join("tmp").join(format!(
            "{}-{}-staged.qtzl",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        library.save(&stage).map_err(LibraryError::Io)?;
        let result = self.add(std::slice::from_ref(&stage));
        let _ = std::fs::remove_file(&stage);
        result
    }
}

fn parse_manifest(path: &Path, text: &str) -> Result<RegistryEntry, LibraryError> {
    let malformed = |what: &str| {
        LibraryError::Malformed(format!("{}: malformed manifest: {what}", path.display()))
    };
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(malformed("bad magic line"));
    }
    let key_line = lines.next().ok_or_else(|| malformed("missing key line"))?;
    let mut parts = key_line.split_whitespace();
    if parts.next() != Some("key") {
        return Err(malformed("missing key line"));
    }
    let gate_set = parts
        .next()
        .ok_or_else(|| malformed("key line missing gate set"))?
        .to_string();
    let mut num = |what: &'static str| -> Result<u32, LibraryError> {
        parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed(what))
    };
    let key = RegistryKey {
        gate_set,
        max_gates: num("key line missing n")?,
        num_qubits: num("key line missing q")?,
        num_params: num("key line missing m")?,
        generator_version: num("key line missing generator version")?,
    };
    let mut blobs = Vec::new();
    let mut shard_count = 1usize;
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        if parts.next() != Some("artifact") {
            return Err(malformed("unexpected line"));
        }
        let seq_of = parts
            .next()
            .ok_or_else(|| malformed("artifact line missing sequence"))?;
        let (seq, count) = seq_of
            .split_once('/')
            .and_then(|(s, c)| Some((s.parse::<usize>().ok()?, c.parse::<usize>().ok()?)))
            .ok_or_else(|| malformed("artifact line has a malformed sequence"))?;
        if seq != i || count == 0 {
            return Err(malformed("artifact lines out of order"));
        }
        shard_count = count;
        let _checksum = parts
            .next()
            .ok_or_else(|| malformed("artifact line missing checksum"))?;
        blobs.push(
            parts
                .next()
                .ok_or_else(|| malformed("artifact line missing blob name"))?
                .to_string(),
        );
    }
    if blobs.is_empty() || blobs.len() != shard_count {
        return Err(malformed("artifact count does not match the group size"));
    }
    Ok(RegistryEntry {
        key,
        shard_count,
        blobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::{Ecc, EccSet};
    use quartz_ir::{Circuit, Gate, Instruction};

    fn sample_library(gate_set: &str) -> Library {
        let mut hh = Circuit::new(1, 0);
        hh.push(Instruction::new(Gate::H, vec![0], vec![]));
        hh.push(Instruction::new(Gate::H, vec![0], vec![]));
        let mut set = EccSet::new(1, 0);
        set.eccs.push(Ecc::new(vec![hh, Circuit::new(1, 0)]));
        Library::new(gate_set, set, true)
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("quartz-registry-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn add_get_list_gc_round_trip() {
        let root = temp_root("roundtrip");
        let registry = Registry::open(&root).unwrap();
        let library = sample_library("Nam");
        let key = registry.add_library(&library).unwrap();
        assert_eq!(key, RegistryKey::from_header(library.header()));

        let paths = registry.get(&key).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(std::fs::read(&paths[0]).unwrap(), library.to_bytes());

        let listed = registry.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].key, key);
        assert_eq!(listed[0].shard_count, 1);

        // Nothing unreferenced yet; gc must keep the published blob.
        registry.gc().unwrap();
        assert_eq!(registry.get(&key).unwrap(), paths);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_keys_and_corrupt_blobs_are_reported_with_paths() {
        let root = temp_root("missing");
        let registry = Registry::open(&root).unwrap();
        let key = RegistryKey {
            gate_set: "Nam".to_string(),
            max_gates: 9,
            num_qubits: 9,
            num_params: 9,
            generator_version: 1,
        };
        let err = registry.get(&key).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains(&key.dir_name()),
            "error must name the manifest path, got: {message}"
        );

        let library = sample_library("Nam");
        let key = registry.add_library(&library).unwrap();
        let blob = registry.get(&key).unwrap().remove(0);
        let mut bytes = std::fs::read(&blob).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&blob, bytes).unwrap();
        assert!(
            registry.get(&key).is_err(),
            "corrupt blob must not be served"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_sweeps_unreferenced_blobs_and_staging_leftovers() {
        let root = temp_root("gc");
        let registry = Registry::open(&root).unwrap();
        let key = registry.add_library(&sample_library("Nam")).unwrap();
        std::fs::write(root.join("blobs").join("dead.qtzl"), b"junk").unwrap();
        std::fs::write(root.join("tmp").join("stale"), b"junk").unwrap();
        let removed = registry.gc().unwrap();
        assert_eq!(removed, 2);
        assert!(registry.get(&key).is_ok(), "live blob must survive gc");
        let _ = std::fs::remove_dir_all(&root);
    }
}
