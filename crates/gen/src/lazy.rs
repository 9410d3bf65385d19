//! The one reader of library artifacts (DESIGN.md §12).
//!
//! [`LazyLibrary`] reads the artifact into memory in one read and, at open,
//! validates the header, the section lengths and the one checksum that
//! covers every byte of the file. It holds only the header and the bytes:
//! [`LazyLibrary::index`] and [`LazyLibrary::ecc_set`] decode their own
//! section on every call, so a consumer that needs only the rule list — the
//! optimizer's library cache — never decodes the ECC payload. Every other
//! way of reading an artifact goes through it: [`Library::from_bytes`]
//! decodes both sections, and the optimizer's library cache, the auditor
//! and `quartz-lib` open artifacts with it.
//!
//! Integrity model (DESIGN.md §12): a flipped or truncated byte anywhere in
//! the file is a typed error at open, before any section is decoded.
//! [`LazyLibrary::verify_all`] adds the structural check on top — both
//! sections decode — for `quartz-lib verify-checksum`.

use crate::ecc::EccSet;
use crate::index::TransformationIndex;
use crate::library::{
    artifact_checksum, decode_ecc_payload, decode_index_section, path_io_error, Library,
    LibraryError, LibraryHeader, HEADER_LEN,
};
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// A checksum-verified library artifact held as its bytes: open validates
/// the header, the section lengths and the checksum, and each section is
/// decoded only when asked for, on every call.
#[derive(Debug)]
pub struct LazyLibrary {
    header: LibraryHeader,
    /// The whole artifact, exactly as many bytes as the sections claim.
    bytes: Vec<u8>,
}

impl LazyLibrary {
    /// Opens an artifact file: reads as many bytes as the file holds at
    /// open, in one read, then validates the header, the section lengths
    /// and the checksum over every byte.
    ///
    /// # Errors
    ///
    /// Any header, length, or checksum validation failure
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
        LazyLibrary::from_bytes(bytes)
    }

    /// Opens an artifact from an in-memory buffer (identical validation, no
    /// file behind it).
    ///
    /// # Errors
    ///
    /// Same as [`LazyLibrary::open`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<LazyLibrary, LibraryError> {
        let header = LibraryHeader::decode(&bytes)?;
        // Lengths before the checksum, so a cut-short file reads as
        // truncated rather than as corrupt.
        let Some(body_len) = header.ecc_len.checked_add(header.index_len) else {
            return Err(LibraryError::Malformed("section lengths overflow".into()));
        };
        let found_len = (bytes.len() - HEADER_LEN) as u64;
        if found_len < body_len {
            return Err(LibraryError::Truncated { context: "body" });
        }
        if found_len > body_len {
            return Err(LibraryError::Malformed(format!(
                "{} trailing bytes after the last section",
                found_len - body_len
            )));
        }
        let found = artifact_checksum(&bytes[..HEADER_LEN - 8], &bytes[HEADER_LEN..]);
        if found != header.checksum {
            return Err(LibraryError::ChecksumMismatch {
                expected: header.checksum,
                found,
            });
        }
        Ok(LazyLibrary { header, bytes })
    }

    /// The artifact header.
    pub fn header(&self) -> &LibraryHeader {
        &self.header
    }

    /// Decodes the ECC payload into an owned [`EccSet`] (`quartz-lib
    /// unpack`, the audit, index construction for artifacts without one).
    ///
    /// # Errors
    ///
    /// Any decode failure, or a payload that disagrees with the header's
    /// counts.
    pub fn ecc_set(&self) -> Result<EccSet, LibraryError> {
        let start = HEADER_LEN;
        let end = start + self.header.ecc_len as usize;
        decode_ecc_payload(&self.header, &self.bytes[start..end])
    }

    /// Decodes the prebuilt transformation index; `None` when the artifact
    /// carries no index section.
    ///
    /// # Errors
    ///
    /// Any decode failure.
    pub fn index(&self) -> Result<Option<TransformationIndex>, LibraryError> {
        if !self.header.has_index() {
            return Ok(None);
        }
        let start = HEADER_LEN + self.header.ecc_len as usize;
        decode_index_section(&self.header, &self.bytes[start..]).map(Some)
    }

    /// Decodes both sections and discards them: the structural check on top
    /// of the checksum that open verified (`quartz-lib verify-checksum`).
    ///
    /// # Errors
    ///
    /// The first decode failure.
    pub fn verify_all(&self) -> Result<(), LibraryError> {
        self.ecc_set()?;
        self.index()?;
        Ok(())
    }

    /// Decodes both sections into an owned [`Library`] (the path behind
    /// [`Library::from_bytes`]).
    pub(crate) fn into_library(self) -> Result<Library, LibraryError> {
        let ecc_set = self.ecc_set()?;
        let index = self.index()?;
        Ok(Library::from_decoded(
            self.header,
            ecc_set,
            index,
            self.bytes,
        ))
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
    fn round_trips_decoding_each_section_on_every_call() {
        let set = sample_set();
        let library = Library::new("Nam", set.clone(), true);
        let bytes = library.to_bytes();

        // Both sections at once match the source set.
        let eager = Library::from_bytes(&bytes).unwrap();
        assert_eq!(eager.ecc_set(), &set);
        assert_eq!(eager.to_bytes(), bytes);

        // Each accessor decodes its own section, the same on every call.
        let reader = LazyLibrary::from_bytes(bytes).unwrap();
        for _ in 0..2 {
            assert_eq!(&reader.ecc_set().unwrap(), &set);
            let index = reader.index().unwrap().unwrap();
            assert_eq!(
                index.transformations(),
                library.index().unwrap().transformations()
            );
        }
        reader.verify_all().unwrap();
    }
}
