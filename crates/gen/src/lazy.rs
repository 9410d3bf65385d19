//! The one reader of library artifacts (DESIGN.md §12).
//!
//! [`LazyLibrary`] reads the artifact into memory in one read and validates
//! only the header and the class table at open; each ECC class is decoded
//! — and digest-verified — the first time it is touched. A server that
//! routes traffic for a handful of gate sets therefore pays O(used
//! classes), not O(library), in decode work and decoded memory. Every
//! other way of reading an artifact goes through it:
//! [`Library::from_bytes`] decodes everything up front, and the
//! optimizer's library cache, the auditor and `quartz-lib` open artifacts
//! with it.
//!
//! Integrity model (the lazy-decode safety argument, DESIGN.md §12.2): the
//! artifact checksum covers the header prefix and the class table; the
//! table's per-class digests and index digest cover every remaining body
//! byte. Open verifies the former; every class/index access verifies the
//! latter before decoding. A flipped byte anywhere in the file is therefore
//! caught at open or at first touch of the section it lives in — never
//! silently decoded — and [`LazyLibrary::verify_all`] (run by the library
//! cache before it caches an artifact and by `quartz-lib verify-checksum`)
//! hashes every section without decoding for the classes a lazy reader
//! never touched.

use crate::ecc::{Ecc, EccSet};
use crate::index::TransformationIndex;
use crate::library::{
    artifact_checksum, check_payload_totals, decode_class_payload, decode_index_section,
    path_io_error, verify_class_payload, verify_index_section, ClassTable, Library, LibraryError,
    LibraryHeader, HEADER_LEN,
};
use std::fs::File;
use std::io::Read;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A lazily-decoding handle over one library artifact: open reads the
/// file and validates the header and class table; [`LazyLibrary::class`]
/// decodes (and digest-verifies) a class on first touch and caches the
/// decoded form; [`LazyLibrary::index`] does the same for the index
/// section.
///
/// All accessors are `&self` and thread-safe; concurrent first touches of
/// the same class decode at most twice and cache once.
#[derive(Debug)]
pub struct LazyLibrary {
    header: LibraryHeader,
    table: ClassTable,
    /// The whole artifact, exactly as many bytes as the sections claim.
    bytes: Vec<u8>,
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
    /// Opens an artifact file: reads as many bytes as the file holds at
    /// open, in one read, then validates the header, class table and
    /// checksum. The payload and index sections are checked against their
    /// digests when first touched.
    ///
    /// # Errors
    ///
    /// Any header, table, or checksum validation failure
    /// ([`LibraryError::UnsupportedVersion`] for any format version but
    /// [`crate::FORMAT_VERSION`]); I/O errors name `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<LazyLibrary, LibraryError> {
        let path = path.as_ref();
        let io_error = |e| LibraryError::Io(path_io_error(path, e));
        let mut file = File::open(path).map_err(io_error)?;
        let len = file.metadata().map_err(io_error)?.len();
        let len = usize::try_from(len).map_err(|_| {
            LibraryError::Malformed(format!(
                "{}: {len} bytes do not fit in memory",
                path.display()
            ))
        })?;
        let mut bytes = vec![0u8; len];
        file.read_exact(&mut bytes).map_err(io_error)?;
        LazyLibrary::decode(bytes, Some(path.to_path_buf()))
    }

    /// Opens an artifact and verifies every byte of it: the index section
    /// is decoded (which checks its digest), then
    /// [`LazyLibrary::verify_all`] hashes the rest, so each byte of the
    /// file is hashed exactly once. Classes stay undecoded. This is how the
    /// library cache opens artifacts.
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
        LazyLibrary::decode(bytes, None)
    }

    /// Validates the header, the class table and the section lengths of a
    /// whole artifact; decodes no class and not the index.
    fn decode(bytes: Vec<u8>, path: Option<PathBuf>) -> Result<LazyLibrary, LibraryError> {
        let file_len = bytes.len();
        let header = LibraryHeader::decode(&bytes)?;
        let table_len = ClassTable::len_for(header.num_eccs as usize);
        if file_len < HEADER_LEN + table_len {
            return Err(LibraryError::Truncated {
                context: "class table",
            });
        }
        // Integrity before structure: a corrupted table is a checksum
        // mismatch; only a checksum-valid table is judged on its shape.
        let table_bytes = &bytes[HEADER_LEN..HEADER_LEN + table_len];
        let found = artifact_checksum(&bytes[..HEADER_LEN - 8], table_bytes);
        if found != header.checksum {
            return Err(LibraryError::ChecksumMismatch {
                expected: header.checksum,
                found,
            });
        }
        let table = ClassTable::decode(table_bytes, &header)?;
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
            bytes,
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
    /// counter a library-cache load leaves at 0.
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
        let payload = &self.bytes[self.class_range(i)];
        verify_class_payload(&self.header, i, &self.table.classes[i], payload)?;
        decode_class_payload(i, payload)
    }

    /// Returns class `i`, decoding (and digest-verifying) it on first
    /// touch.
    ///
    /// # Errors
    ///
    /// [`LibraryError::ClassDigestMismatch`] when the payload bytes do not
    /// hash to the table's digest, plus any decode failure.
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
        let bytes = &self.bytes[self.index_range()];
        verify_index_section(&self.table, bytes)?;
        decode_index_section(bytes).map(Some)
    }

    /// The prebuilt transformation index, decoded (and digest-verified) on first
    /// touch; `None` when the artifact carries no index section.
    ///
    /// # Errors
    ///
    /// [`LibraryError::IndexDigestMismatch`] when the section bytes do not
    /// hash to the table's digest, plus any decode failure.
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

    /// Decodes every class into an owned [`EccSet`] (`quartz-lib unpack`,
    /// index construction for artifacts without one).
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
        Ok(Library::from_decoded(
            self.header,
            ecc_set,
            index,
            self.bytes,
        ))
    }

    /// Verifies every byte of the artifact *without* decoding anything:
    /// each class payload and the index section are re-hashed against the
    /// table's digests. This is how a corrupted class a lazy reader never
    /// touched is still caught — the library cache runs it before caching
    /// an artifact, and `quartz-lib verify-checksum` runs it too.
    ///
    /// A class or index this handle has already decoded was verified when
    /// it was first touched, so its bytes are not hashed again: together
    /// with the check at open, a fresh handle that decodes its index and
    /// then calls this has hashed every byte of the file exactly once.
    ///
    /// # Errors
    ///
    /// The first digest mismatch found.
    pub fn verify_all(&self) -> Result<(), LibraryError> {
        for (i, entry) in self.table.classes.iter().enumerate() {
            if self.classes[i].get().is_none() {
                verify_class_payload(&self.header, i, entry, &self.bytes[self.class_range(i)])?;
            }
        }
        if self.header.has_index() && self.index_cache.get().is_none() {
            verify_index_section(&self.table, &self.bytes[self.index_range()])?;
        }
        Ok(())
    }
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
    fn round_trips_and_lazy_decode_counts_used_classes() {
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
}
