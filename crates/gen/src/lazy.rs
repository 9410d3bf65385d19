//! The one reader of library artifacts — lazy and file-backed — and the
//! shard/merge machinery built on top of it (DESIGN.md §12).
//!
//! [`LazyLibrary`] validates only the header and the class table at open
//! (O(header + table) work and memory), and each ECC class is decoded — and
//! digest-verified — the first time it is touched. A server that routes
//! traffic for a handful of gate sets over paper-scale artifacts therefore
//! pays O(used classes), not O(library), in both startup latency and
//! resident memory. Every other way of reading an artifact goes through
//! it: [`Library::from_bytes`] decodes everything up front, and the
//! optimizer's library cache, the registry, the auditor and `quartz-lib`
//! open artifacts with it.
//!
//! The same class table powers **sharding**: [`shard_library`] splits one
//! indexed artifact into `k` shards along whole anchor buckets, each
//! carrying its slice of the parent's prebuilt index together with the
//! parent transformation ids, so [`assemble_index`] can rebuild a dispatch
//! index from any subset of shards — and exactly the parent's index when
//! all of them are present. [`merge_shards`] is the inverse: it reassembles
//! the parent artifact and proves byte-identity via the parent checksum
//! recorded in every shard.
//!
//! Integrity model (the lazy-decode safety argument, DESIGN.md §12.2): the
//! artifact checksum covers the header prefix and the class table; the
//! table's per-class digests and index digest cover every remaining body
//! byte. Open verifies the former; every class/index access verifies the
//! latter before decoding. A flipped byte anywhere in the file is therefore
//! caught at open or at first touch of the section it lives in — never
//! silently decoded — and [`LazyLibrary::verify_all`] (run by the library
//! cache before it caches an artifact, by registry `add`/`get`, and by
//! `quartz-lib verify-checksum`) hashes every section without decoding for
//! the classes a lazy reader never touched.

use crate::ecc::{Ecc, EccSet};
use crate::index::TransformationIndex;
use crate::library::{
    artifact_checksum, check_payload_totals, checksum64, class_payload_digest,
    decode_class_payload, decode_index_section, encode_artifact, encode_ecc_class,
    encode_index_section, path_io_error, verify_class_payload, verify_index_section, ClassEntry,
    ClassTable, Cursor, Library, LibraryError, LibraryHeader, FORMAT_VERSION_V2, GENERATOR_VERSION,
    HEADER_LEN,
};
use crate::xform::transformations_with_provenance;
use quartz_ir::Gate;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The byte source behind a [`LazyLibrary`]: a positioned-read file "map"
/// (the vendored `mmap` shim, DESIGN.md §4) or an owned in-memory buffer.
#[derive(Debug)]
enum MmapBody {
    Mapped { map: mmap::Mmap, path: PathBuf },
    Bytes(Vec<u8>),
}

impl MmapBody {
    fn len(&self) -> usize {
        match self {
            MmapBody::Mapped { map, .. } => map.len(),
            MmapBody::Bytes(bytes) => bytes.len(),
        }
    }

    /// Reads `range` (absolute file offsets) — copied out of a mapped file,
    /// borrowed from an in-memory buffer — failing with a path-annotated
    /// [`LibraryError::Io`] when the source cannot serve it.
    fn read_range(&self, range: Range<usize>) -> Result<Cow<'_, [u8]>, LibraryError> {
        match self {
            MmapBody::Mapped { map, path } => map
                .read_range(range)
                .map(Cow::Owned)
                .map_err(|e| LibraryError::Io(path_io_error(path, e))),
            MmapBody::Bytes(bytes) => {
                bytes
                    .get(range)
                    .map(Cow::Borrowed)
                    .ok_or(LibraryError::Truncated {
                        context: "lazy byte range",
                    })
            }
        }
    }
}

/// A lazily-decoding handle over one library artifact: open reads and
/// validates the header and class table only; [`LazyLibrary::class`]
/// decodes (and digest-verifies) a class on first touch and caches the
/// decoded form; [`LazyLibrary::index`] does the same for the prebuilt
/// index section.
///
/// All accessors are `&self` and thread-safe; concurrent first touches of
/// the same class decode at most twice and cache once.
#[derive(Debug)]
pub struct LazyLibrary {
    header: LibraryHeader,
    table: ClassTable,
    body: MmapBody,
    /// Absolute file offset where the ECC payload section starts.
    ecc_start: usize,
    /// Prefix sums of class payload lengths: class `i` occupies
    /// `ecc_start + class_offsets[i] .. ecc_start + class_offsets[i + 1]`.
    class_offsets: Vec<usize>,
    classes: Vec<OnceLock<Arc<Ecc>>>,
    index_cache: OnceLock<Option<Arc<TransformationIndex>>>,
    decoded: AtomicUsize,
    path: Option<PathBuf>,
}

impl LazyLibrary {
    /// Opens an artifact file through the mmap shim, reading and verifying
    /// O(header + class table) bytes; the payload and index sections stay
    /// on disk until touched.
    ///
    /// # Errors
    ///
    /// Any header, table, or checksum validation failure
    /// ([`LibraryError::UnsupportedVersion`] for any format version but
    /// [`FORMAT_VERSION_V2`]); I/O errors name `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<LazyLibrary, LibraryError> {
        let path = path.as_ref();
        let map = mmap::Mmap::open(path).map_err(|e| LibraryError::Io(path_io_error(path, e)))?;
        let body = MmapBody::Mapped {
            map,
            path: path.to_path_buf(),
        };
        LazyLibrary::from_body(body, Some(path.to_path_buf()))
    }

    /// Opens an artifact and verifies every byte of it: the index section
    /// is decoded (which checks its digest), then
    /// [`LazyLibrary::verify_all`] hashes the rest, so each byte of the
    /// file is hashed exactly once. Classes stay undecoded. This is how the
    /// registry's `get` and the library cache open artifacts.
    ///
    /// # Errors
    ///
    /// Same as [`LazyLibrary::open`], plus the first digest mismatch.
    pub fn open_verified(path: impl AsRef<Path>) -> Result<LazyLibrary, LibraryError> {
        let lazy = LazyLibrary::open(path)?;
        lazy.index()?;
        lazy.verify_all()?;
        Ok(lazy)
    }

    /// Opens an artifact from an in-memory buffer (identical validation and
    /// laziness, no file behind it).
    ///
    /// # Errors
    ///
    /// Same as [`LazyLibrary::open`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<LazyLibrary, LibraryError> {
        LazyLibrary::from_body(MmapBody::Bytes(bytes), None)
    }

    fn from_body(body: MmapBody, path: Option<PathBuf>) -> Result<LazyLibrary, LibraryError> {
        let file_len = body.len();
        let head = body.read_range(0..file_len.min(HEADER_LEN))?;
        let header = LibraryHeader::decode(&head)?;
        let preamble_end = HEADER_LEN + 32;
        if file_len < preamble_end {
            return Err(LibraryError::Truncated {
                context: "class table",
            });
        }
        let preamble = body.read_range(HEADER_LEN..preamble_end)?;
        let xform_id_count =
            u32::from_le_bytes([preamble[12], preamble[13], preamble[14], preamble[15]]) as usize;
        let table_len = 32 + 16 * header.num_eccs as usize + 4 * xform_id_count + 8;
        if file_len < HEADER_LEN + table_len {
            return Err(LibraryError::Truncated {
                context: "class table",
            });
        }
        let table_bytes = body.read_range(HEADER_LEN..HEADER_LEN + table_len)?;
        let mut cur = Cursor::new(&table_bytes);
        let table = ClassTable::decode(&mut cur, &header)?;
        if !cur.finished() {
            return Err(LibraryError::Malformed(
                "class table shorter than its preamble claims".to_string(),
            ));
        }
        let found = artifact_checksum(&head[..HEADER_LEN - 8], &table_bytes);
        if found != header.checksum {
            return Err(LibraryError::ChecksumMismatch {
                expected: header.checksum,
                found,
            });
        }
        let expected_len = (HEADER_LEN + table_len)
            .checked_add(header.ecc_len as usize)
            .and_then(|l| l.checked_add(header.index_len as usize))
            .ok_or(LibraryError::Malformed(
                "section lengths overflow".to_string(),
            ))?;
        if file_len < expected_len {
            return Err(LibraryError::Truncated { context: "body" });
        }
        if file_len > expected_len {
            return Err(LibraryError::Malformed(format!(
                "{} trailing bytes after the last section",
                file_len - expected_len
            )));
        }
        let mut class_offsets = Vec::with_capacity(table.classes.len() + 1);
        let mut offset = 0usize;
        class_offsets.push(0);
        for entry in &table.classes {
            offset += entry.len as usize;
            class_offsets.push(offset);
        }
        let classes = (0..table.classes.len()).map(|_| OnceLock::new()).collect();
        Ok(LazyLibrary {
            header,
            table,
            body,
            ecc_start: HEADER_LEN + table_len,
            class_offsets,
            classes,
            index_cache: OnceLock::new(),
            decoded: AtomicUsize::new(0),
            path,
        })
    }

    /// The artifact header.
    pub fn header(&self) -> &LibraryHeader {
        &self.header
    }

    /// The class table.
    pub fn class_table(&self) -> &ClassTable {
        &self.table
    }

    /// The path the artifact was opened from, when it came from a file.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of equivalence classes in the artifact.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of *distinct* classes decoded so far — the O(used classes)
    /// counter surfaced by the `startup/v2_lazy` bench suite; 0 after open.
    pub fn decoded_classes(&self) -> usize {
        self.decoded.load(Ordering::Relaxed)
    }

    /// Absolute file range of class `i`'s payload.
    fn class_range(&self, i: usize) -> Range<usize> {
        self.ecc_start + self.class_offsets[i]..self.ecc_start + self.class_offsets[i + 1]
    }

    /// Absolute file range of the index section (empty when absent).
    fn index_range(&self) -> Range<usize> {
        let start = self.ecc_start + self.header.ecc_len as usize;
        start..start + self.header.index_len as usize
    }

    /// Reads, digest-verifies and decodes class `i`, without caching it.
    fn decode_class(&self, i: usize) -> Result<Ecc, LibraryError> {
        let payload = self.body.read_range(self.class_range(i))?;
        verify_class_payload(&self.header, i, &self.table.classes[i], &payload)?;
        decode_class_payload(i, &payload)
    }

    /// Returns class `i`, decoding (and digest-verifying) it on first
    /// touch.
    ///
    /// # Errors
    ///
    /// [`LibraryError::ClassDigestMismatch`] when the payload bytes do not
    /// hash to the table's digest, plus any decode or I/O failure.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn class(&self, i: usize) -> Result<Arc<Ecc>, LibraryError> {
        let cell = &self.classes[i];
        if let Some(ecc) = cell.get() {
            return Ok(Arc::clone(ecc));
        }
        let ecc = Arc::new(self.decode_class(i)?);
        if cell.set(Arc::clone(&ecc)).is_ok() {
            self.decoded.fetch_add(1, Ordering::Relaxed);
            Ok(ecc)
        } else {
            // A racing thread won; use its copy so every caller shares one.
            Ok(Arc::clone(cell.get().expect("cell was just set")))
        }
    }

    /// Reads, digest-verifies and decodes the index section, without
    /// caching it.
    fn decode_index(&self) -> Result<Option<TransformationIndex>, LibraryError> {
        if !self.header.has_index() {
            return Ok(None);
        }
        let bytes = self.body.read_range(self.index_range())?;
        verify_index_section(&self.table, &bytes)?;
        decode_index_section(&bytes).map(Some)
    }

    /// The prebuilt dispatch index, decoded (and digest-verified) on first
    /// touch; `None` when the artifact carries no index section.
    ///
    /// # Errors
    ///
    /// [`LibraryError::IndexDigestMismatch`] when the section bytes do not
    /// hash to the table's digest, plus any decode or I/O failure.
    pub fn index(&self) -> Result<Option<Arc<TransformationIndex>>, LibraryError> {
        if let Some(cached) = self.index_cache.get() {
            return Ok(cached.clone());
        }
        let decoded = self.decode_index()?.map(Arc::new);
        Ok(self.index_cache.get_or_init(|| decoded).clone())
    }

    /// Collects every class through `class` into an [`EccSet`], checking
    /// the totals against the header.
    fn collect_set(
        &self,
        class: impl Fn(usize) -> Result<Ecc, LibraryError>,
    ) -> Result<EccSet, LibraryError> {
        let mut set = EccSet::new(
            self.header.num_qubits as usize,
            self.header.num_params as usize,
        );
        for i in 0..self.num_classes() {
            set.eccs.push(class(i)?);
        }
        check_payload_totals(&self.header, &set)?;
        Ok(set)
    }

    /// Decodes every class into an owned [`EccSet`] (merge, `quartz-lib
    /// unpack`, index construction for artifacts without one).
    ///
    /// # Errors
    ///
    /// The first class that fails its digest or decode, or a payload that
    /// disagrees with the header's counts.
    pub fn ecc_set(&self) -> Result<EccSet, LibraryError> {
        self.collect_set(|i| self.class(i).map(|ecc| (*ecc).clone()))
    }

    /// Decodes everything into an owned [`Library`] (the eager path behind
    /// [`Library::from_bytes`]), without caching any of it in the handle.
    pub(crate) fn into_library(self) -> Result<Library, LibraryError> {
        let ecc_set = self.collect_set(|i| self.decode_class(i))?;
        let index = self.decode_index()?;
        let bytes = match self.body {
            MmapBody::Bytes(bytes) => bytes,
            MmapBody::Mapped { map, path } => map
                .read_range(0..map.len())
                .map_err(|e| LibraryError::Io(path_io_error(&path, e)))?,
        };
        Ok(Library::from_decoded(self.header, ecc_set, index, bytes))
    }

    /// Verifies every byte of the artifact *without* decoding anything: the
    /// sections are read once and each class payload and the index section
    /// are re-hashed against the table's digests. This is how a corrupted
    /// class a lazy reader never touched is still caught — the library
    /// cache runs it before caching an artifact, and registry `add`/`get`
    /// and `quartz-lib verify-checksum` run it too.
    ///
    /// A class or index this handle has already decoded was verified when
    /// it was read and is served from memory from then on, so its bytes are
    /// not hashed again: together with the check at open, a fresh handle
    /// that decodes its index and then calls this has hashed every byte of
    /// the file exactly once.
    ///
    /// # Errors
    ///
    /// The first digest mismatch or I/O failure found.
    pub fn verify_all(&self) -> Result<(), LibraryError> {
        let index_range = self.index_range();
        let index_pending = self.header.has_index() && self.index_cache.get().is_none();
        let end = if index_pending {
            index_range.end
        } else {
            index_range.start
        };
        let sections = self.body.read_range(self.ecc_start..end)?;
        for (i, entry) in self.table.classes.iter().enumerate() {
            if self.classes[i].get().is_none() {
                let payload = &sections[self.class_offsets[i]..self.class_offsets[i + 1]];
                verify_class_payload(&self.header, i, entry, payload)?;
            }
        }
        if index_pending {
            verify_index_section(&self.table, &sections[self.header.ecc_len as usize..])?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Sharding: split one indexed artifact along whole anchor buckets
// ---------------------------------------------------------------------------

/// Splits an indexed library into `shard_count` shard artifacts along
/// whole anchor buckets: shard `j` owns every transformation anchored on a
/// gate `g` with `g.index() % shard_count == j`, carries that slice of the
/// parent's prebuilt index (with the parent transformation ids recorded in
/// its class table), and holds every class whose first-emitted
/// transformation it owns (classes that emitted none go to shard 0). Every
/// class and every transformation lands in exactly one shard.
///
/// Splitting along whole buckets is what makes partial loading sound: a
/// dispatch index assembled from a subset of shards ([`assemble_index`]) has
/// either *all* of a gate's anchored transformations or none of them, so a
/// server routing by anchor gate never sees a half-populated bucket.
///
/// Returns the encoded shard artifacts, `shard_seq` order.
///
/// # Errors
///
/// Fails when the parent has no prebuilt index (shards carry index slices,
/// not re-extractions — the cross-class transformation dedup makes
/// re-extraction from a shard's own classes produce *different* rules), or
/// when `shard_count` is 0 or exceeds the number of anchor buckets.
pub fn shard_library(parent: &Library, shard_count: usize) -> Result<Vec<Vec<u8>>, LibraryError> {
    if shard_count == 0 || shard_count > Gate::COUNT {
        return Err(LibraryError::Malformed(format!(
            "shard count must be between 1 and {} (one per anchor bucket), got {shard_count}",
            Gate::COUNT
        )));
    }
    let Some(index) = parent.index() else {
        return Err(LibraryError::Malformed(
            "sharding requires an artifact with a prebuilt index section".to_string(),
        ));
    };
    let set = parent.ecc_set();
    let header = parent.header();

    // Which shard owns each transformation: via its anchor gate's bucket.
    let mut shard_of_xform = vec![0usize; index.len()];
    for (gate_idx, bucket) in index.anchor_buckets().iter().enumerate() {
        for &id in bucket {
            shard_of_xform[id] = gate_idx % shard_count;
        }
    }

    // Which shard owns each class: the shard of its first-emitted
    // transformation. The provenance walk must reproduce the parent's
    // transformation list exactly (same extraction, same dedup order).
    let with_prov = transformations_with_provenance(set, true);
    if with_prov.len() != index.len()
        || with_prov
            .iter()
            .zip(index.transformations())
            .any(|((a, _), b)| a != b)
    {
        return Err(LibraryError::Malformed(
            "prebuilt index does not match this artifact's extracted transformations \
             (stale index?)"
                .to_string(),
        ));
    }
    let mut shard_of_class = vec![0usize; set.eccs.len()];
    let mut class_seen = vec![false; set.eccs.len()];
    for (id, (_, class)) in with_prov.iter().enumerate() {
        if !class_seen[*class] {
            class_seen[*class] = true;
            shard_of_class[*class] = shard_of_xform[id];
        }
    }

    let mut shards = Vec::with_capacity(shard_count);
    for j in 0..shard_count {
        // This shard's transformations, ascending parent id.
        let orig_ids: Vec<usize> = (0..index.len())
            .filter(|&id| shard_of_xform[id] == j)
            .collect();
        let local_of: HashMap<usize, usize> =
            orig_ids.iter().enumerate().map(|(l, &o)| (o, l)).collect();
        let local_xforms: Vec<_> = orig_ids
            .iter()
            .map(|&o| index.transformations()[o].clone())
            .collect();
        let histograms = local_xforms
            .iter()
            .map(|x| *x.target.gate_histogram())
            .collect();
        let mut local_buckets = vec![Vec::new(); Gate::COUNT];
        for (gate_idx, bucket) in index.anchor_buckets().iter().enumerate() {
            if gate_idx % shard_count == j {
                local_buckets[gate_idx] = bucket.iter().map(|id| local_of[id]).collect();
            }
        }
        let local_index = TransformationIndex::from_parts(local_xforms, histograms, local_buckets)
            .map_err(LibraryError::Malformed)?;
        let index_section = encode_index_section(&local_index);

        // This shard's classes, ascending parent class index.
        let mut classes = Vec::new();
        let mut payload = Vec::new();
        let mut total_circuits = 0u32;
        let mut total_instructions = 0u32;
        for (c, ecc) in set.eccs.iter().enumerate() {
            if shard_of_class[c] != j {
                continue;
            }
            let start = payload.len();
            encode_ecc_class(&mut payload, ecc);
            classes.push(ClassEntry {
                orig_class_index: c as u32,
                len: (payload.len() - start) as u32,
                digest: class_payload_digest(
                    header.num_qubits,
                    header.num_params,
                    &payload[start..],
                ),
            });
            total_circuits += ecc.len() as u32;
            total_instructions += ecc
                .circuits()
                .iter()
                .map(|circ| circ.gate_count() as u32)
                .sum::<u32>();
        }

        let table = ClassTable {
            shard_seq: j as u32,
            shard_count: shard_count as u32,
            parent_num_eccs: header.num_eccs,
            parent_format_version: u32::from(header.format_version),
            parent_num_xforms: index.len() as u32,
            parent_checksum: header.checksum,
            classes,
            xform_ids: orig_ids.iter().map(|&o| o as u32).collect(),
            index_digest: checksum64(&index_section),
        };
        let mut shard_header = LibraryHeader {
            format_version: FORMAT_VERSION_V2,
            gate_set: header.gate_set.clone(),
            // (n, q, m) are the parent's: they describe the generation run,
            // not this file's contents, and keeping them uniform across a
            // group is what makes registry keys shard-agnostic.
            max_gates: header.max_gates,
            num_qubits: header.num_qubits,
            num_params: header.num_params,
            num_eccs: table.classes.len() as u32,
            total_circuits,
            total_instructions,
            generator_version: GENERATOR_VERSION,
            ecc_len: payload.len() as u64,
            index_len: index_section.len() as u64,
            checksum: 0,
        };
        shards.push(encode_artifact(
            &mut shard_header,
            &table,
            &payload,
            &index_section,
        ));
    }
    Ok(shards)
}

/// Reassembles the parent artifact from a complete shard group and proves
/// the reassembly: the merged artifact's checksum must equal the
/// `parent_checksum` every shard recorded, which (since encoding is
/// deterministic) makes the output byte-identical to the original.
///
/// # Errors
///
/// Fails when the shards are not one complete, mutually-consistent group
/// (mixed parents, missing/duplicate sequence numbers), fail their own
/// integrity checks, or do not reproduce the recorded parent checksum.
pub fn merge_shards(shards: &[Vec<u8>]) -> Result<Library, LibraryError> {
    if shards.is_empty() {
        return Err(LibraryError::Malformed("no shards to merge".to_string()));
    }
    let mut group: Vec<(LibraryHeader, ClassTable, EccSet)> = Vec::with_capacity(shards.len());
    for bytes in shards {
        let shard = LazyLibrary::from_bytes(bytes.clone())?;
        // A shard records its parent's checksum; a group of one (is_shard()
        // false) is still a valid, mergeable group.
        let table = shard.class_table();
        if !table.is_shard() && table.parent_checksum == 0 {
            return Err(LibraryError::Malformed(
                "merge input is not a shard artifact".to_string(),
            ));
        }
        let set = shard.ecc_set()?;
        group.push((shard.header().clone(), table.clone(), set));
    }
    let first_header = group[0].0.clone();
    let first_table = group[0].1.clone();
    let shard_count = first_table.shard_count as usize;
    if group.len() != shard_count {
        return Err(LibraryError::Malformed(format!(
            "shard group of {shard_count} merged from {} artifacts",
            group.len()
        )));
    }
    let mut seen_seq = vec![false; shard_count];
    for (header, table, _) in &group {
        if table.shard_count != first_table.shard_count
            || table.parent_checksum != first_table.parent_checksum
            || table.parent_num_eccs != first_table.parent_num_eccs
            || table.parent_num_xforms != first_table.parent_num_xforms
            || header.gate_set != first_header.gate_set
            || header.num_qubits != first_header.num_qubits
            || header.num_params != first_header.num_params
            || header.has_index() != first_header.has_index()
        {
            return Err(LibraryError::Malformed(
                "shards come from different parent artifacts".to_string(),
            ));
        }
        let seq = table.shard_seq as usize;
        if seen_seq[seq] {
            return Err(LibraryError::Malformed(format!(
                "duplicate shard sequence {seq}"
            )));
        }
        seen_seq[seq] = true;
    }
    let parent_num_eccs = first_table.parent_num_eccs as usize;
    let mut slots: Vec<Option<Ecc>> = vec![None; parent_num_eccs];
    for (_, table, set) in group {
        for (entry, ecc) in table.classes.iter().zip(set.eccs) {
            let slot = slots
                .get_mut(entry.orig_class_index as usize)
                .ok_or_else(|| {
                    LibraryError::Malformed(format!(
                        "shard class points at parent slot {} of {parent_num_eccs}",
                        entry.orig_class_index
                    ))
                })?;
            if slot.is_some() {
                return Err(LibraryError::Malformed(format!(
                    "two shards both carry parent class {}",
                    entry.orig_class_index
                )));
            }
            *slot = Some(ecc);
        }
    }
    let mut merged = EccSet::new(
        first_header.num_qubits as usize,
        first_header.num_params as usize,
    );
    for (i, slot) in slots.into_iter().enumerate() {
        merged.eccs.push(slot.ok_or_else(|| {
            LibraryError::Malformed(format!("no shard carries parent class {i}"))
        })?);
    }
    let library = Library::new(
        first_header.gate_set.clone(),
        merged,
        first_header.has_index(),
    );
    if library.header().checksum != first_table.parent_checksum {
        return Err(LibraryError::Malformed(format!(
            "merged artifact checksum {:#018x} does not reproduce the parent checksum {:#018x} \
             recorded in the shards",
            library.header().checksum,
            first_table.parent_checksum
        )));
    }
    Ok(library)
}

/// Builds a dispatch index from any subset of one shard group, by stitching
/// the shards' index slices back together on their recorded parent
/// transformation ids. With every shard of the group present the result is
/// exactly the parent's prebuilt index (same transformations in the same
/// order, same anchor assignment); with a subset, it is the parent's index
/// restricted to the anchor buckets those shards own.
///
/// # Errors
///
/// Fails when the shards do not belong to one group, a shard has no index
/// slice, two shards claim the same transformation, or the stitched parts
/// fail [`TransformationIndex::from_parts`] validation.
pub fn assemble_index(shards: &[&LazyLibrary]) -> Result<TransformationIndex, LibraryError> {
    if shards.is_empty() {
        return Err(LibraryError::Malformed(
            "no shards to assemble an index from".to_string(),
        ));
    }
    let first = shards[0].class_table();
    // orig id → transformation, plus per-gate buckets in parent id order.
    let mut by_orig: HashMap<u32, crate::xform::Transformation> = HashMap::new();
    let mut buckets_orig: Vec<Vec<u32>> = vec![Vec::new(); Gate::COUNT];
    for shard in shards {
        let table = shard.class_table();
        if table.parent_checksum != first.parent_checksum || table.shard_count != first.shard_count
        {
            return Err(LibraryError::Malformed(
                "shards come from different parent artifacts".to_string(),
            ));
        }
        let index = shard
            .index()?
            .ok_or_else(|| LibraryError::Malformed("shard carries no index slice".to_string()))?;
        if table.xform_ids.len() != index.len() {
            return Err(LibraryError::Malformed(format!(
                "shard records {} parent transformation ids for {} transformations",
                table.xform_ids.len(),
                index.len()
            )));
        }
        for (local, xform) in index.transformations().iter().enumerate() {
            let orig = table.xform_ids[local];
            if by_orig.insert(orig, xform.clone()).is_some() {
                return Err(LibraryError::Malformed(format!(
                    "two shards both carry parent transformation {orig}"
                )));
            }
        }
        for (gate_idx, bucket) in index.anchor_buckets().iter().enumerate() {
            for &local in bucket {
                buckets_orig[gate_idx].push(table.xform_ids[local]);
            }
        }
    }
    let mut orig_ids: Vec<u32> = by_orig.keys().copied().collect();
    orig_ids.sort_unstable();
    let dense_of: HashMap<u32, usize> = orig_ids.iter().enumerate().map(|(d, &o)| (o, d)).collect();
    let transformations: Vec<_> = orig_ids
        .iter()
        .map(|o| by_orig.remove(o).expect("collected above"))
        .collect();
    let histograms = transformations
        .iter()
        .map(|x| *x.target.gate_histogram())
        .collect();
    let buckets = buckets_orig
        .into_iter()
        .map(|bucket| bucket.into_iter().map(|o| dense_of[&o]).collect())
        .collect();
    TransformationIndex::from_parts(transformations, histograms, buckets)
        .map_err(LibraryError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::Ecc;
    use quartz_ir::{Circuit, Gate, Instruction, ParamExpr};

    fn rz(q: usize, expr: ParamExpr) -> Instruction {
        Instruction::new(Gate::Rz, vec![q], vec![expr])
    }

    fn sample_set() -> EccSet {
        let mut set = EccSet::new(2, 1);
        let mut hh = Circuit::new(2, 1);
        hh.push(Instruction::new(Gate::H, vec![0], vec![]));
        hh.push(Instruction::new(Gate::H, vec![0], vec![]));
        set.eccs.push(Ecc::new(vec![hh, Circuit::new(2, 1)]));
        let mut a = Circuit::new(2, 1);
        a.push(rz(1, ParamExpr::var(0, 1)));
        a.push(rz(1, ParamExpr::constant_pi4_with_params(2, 1)));
        let mut b = Circuit::new(2, 1);
        b.push(rz(
            1,
            ParamExpr::var(0, 1).add(&ParamExpr::constant_pi4_with_params(2, 1)),
        ));
        set.eccs.push(Ecc::new(vec![a, b]));
        let mut xx = Circuit::new(2, 1);
        xx.push(Instruction::new(Gate::X, vec![1], vec![]));
        xx.push(Instruction::new(Gate::X, vec![1], vec![]));
        set.eccs.push(Ecc::new(vec![xx, Circuit::new(2, 1)]));
        set
    }

    #[test]
    fn v2_round_trips_and_lazy_decode_counts_used_classes() {
        let set = sample_set();
        let library = Library::new("Nam", set.clone(), true);
        let bytes = library.to_bytes();

        // Eager decode matches the source set.
        let eager = Library::from_bytes(&bytes).unwrap();
        assert_eq!(eager.ecc_set(), &set);
        assert_eq!(eager.to_bytes(), bytes);

        // Lazy decode touches only what is asked for.
        let lazy = LazyLibrary::from_bytes(bytes).unwrap();
        assert_eq!(lazy.num_classes(), set.eccs.len());
        assert_eq!(lazy.decoded_classes(), 0);
        let first = lazy.class(0).unwrap();
        assert_eq!(&*first, &set.eccs[0]);
        assert_eq!(lazy.decoded_classes(), 1);
        lazy.class(0).unwrap();
        assert_eq!(lazy.decoded_classes(), 1, "second touch must not re-decode");
        assert_eq!(&lazy.ecc_set().unwrap(), &set);
        assert_eq!(lazy.decoded_classes(), set.eccs.len());
        let index = lazy.index().unwrap().unwrap();
        assert_eq!(index.len(), library.index().unwrap().len());
        lazy.verify_all().unwrap();
    }

    #[test]
    fn shard_merge_round_trips_byte_identically() {
        let parent = Library::new("Nam", sample_set(), true);
        for shard_count in [1usize, 2, 3] {
            let shards = shard_library(&parent, shard_count).unwrap();
            assert_eq!(shards.len(), shard_count);
            let merged = merge_shards(&shards).unwrap();
            assert_eq!(merged.to_bytes(), parent.to_bytes());
        }
    }

    #[test]
    fn assembled_index_from_all_shards_equals_the_parent_index() {
        let set = sample_set();
        let parent = Library::new("Nam", set, true);
        let shards = shard_library(&parent, 3).unwrap();
        let lazies: Vec<LazyLibrary> = shards
            .into_iter()
            .map(|b| LazyLibrary::from_bytes(b).unwrap())
            .collect();
        let refs: Vec<&LazyLibrary> = lazies.iter().collect();
        let assembled = assemble_index(&refs).unwrap();
        let parent_index = parent.index().unwrap();
        assert_eq!(assembled.len(), parent_index.len());
        assert_eq!(assembled.transformations(), parent_index.transformations());
        assert_eq!(assembled.anchor_buckets(), parent_index.anchor_buckets());

        // A subset assembles the restriction: whole buckets, never split.
        let partial = assemble_index(&refs[..1]).unwrap();
        assert!(partial.len() <= parent_index.len());
        for (gate_idx, bucket) in partial.anchor_buckets().iter().enumerate() {
            let parent_bucket = &parent_index.anchor_buckets()[gate_idx];
            assert!(bucket.is_empty() || bucket.len() == parent_bucket.len());
        }
    }

    #[test]
    fn sharding_without_an_index_is_rejected() {
        let parent = Library::new("Nam", sample_set(), false);
        assert!(matches!(
            shard_library(&parent, 2),
            Err(LibraryError::Malformed(_))
        ));
    }
}
