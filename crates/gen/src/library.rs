//! Persisted transformation libraries: the `QTZL` binary artifact format
//! (DESIGN.md §7).
//!
//! ECC-set generation and verification are an *offline* phase; their product
//! — the transformation library — is reused across every optimization run.
//! This module persists that product as a compact, versioned, checksummed
//! binary artifact so services start from a cold file read instead of
//! seconds of generation:
//!
//! * a fixed 72-byte header ([`LibraryHeader`]) carrying the format version,
//!   gate set, `(n, q, m)` parameters, payload counts, the generator
//!   version, section lengths, and an FNV-1a 64-bit checksum covering the
//!   header prefix and the class table;
//! * a **class offset table** ([`ClassTable`], DESIGN.md §12) — per-class
//!   byte ranges and content digests, plus an index-section digest — so
//!   every body byte is covered by a digest the checksum seals, and
//!   [`crate::LazyLibrary`] can decode classes on first touch instead of at
//!   load;
//! * an **ECC payload** section: the lossless binary encoding of the
//!   [`EccSet`], one class after another;
//! * an optional **prebuilt index** section: the extracted
//!   [`Transformation`] list and nothing else, so loaders skip generation
//!   and rule extraction; the [`TransformationIndex`] over it is derived at
//!   load.
//!
//! There is one container format ([`FORMAT_VERSION`]) and one reader,
//! [`crate::LazyLibrary`]: [`Library::from_bytes`] is that reader decoding
//! every class and the index up front. The `quartz-lib` CLI
//! (`crates/gen/src/bin/quartz-lib.rs`) wraps this module for the
//! generate → pack → inspect workflow; committed artifacts live under
//! `libraries/` at the workspace root.
//!
//! Every integer is little-endian. The byte-level layout, the versioning
//! rules, and a worked hexdump of a tiny artifact are specified in
//! DESIGN.md §7.
//!
//! # Examples
//!
//! Pack an ECC set (with its prebuilt index) and read it back losslessly:
//!
//! ```
//! use quartz_gen::{Ecc, EccSet, Library};
//! use quartz_ir::{Circuit, Gate, Instruction};
//!
//! let mut hh = Circuit::new(1, 0);
//! hh.push(Instruction::new(Gate::H, vec![0], vec![]));
//! hh.push(Instruction::new(Gate::H, vec![0], vec![]));
//! let mut set = EccSet::new(1, 0);
//! set.eccs.push(Ecc::new(vec![hh, Circuit::new(1, 0)]));
//!
//! let library = Library::new("Nam", set.clone(), true);
//! let bytes = library.to_bytes();
//! let back = Library::from_bytes(&bytes).unwrap();
//! assert_eq!(back.ecc_set(), &set);
//! assert_eq!(back.header().gate_set, "Nam");
//! assert_eq!(back.index().unwrap().len(), 1); // HH → empty
//! ```
//!
//! Round-trip through a file:
//!
//! ```
//! use quartz_gen::{EccSet, Library};
//!
//! let dir = std::env::temp_dir().join("quartz_library_doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("empty.qtzl");
//!
//! let library = Library::new("Nam", EccSet::new(2, 0), false);
//! library.save(&path).unwrap();
//! let back = Library::load(&path).unwrap();
//! assert_eq!(back.ecc_set(), library.ecc_set());
//! assert!(back.index().is_none());
//! ```

use crate::ecc::{Ecc, EccSet};
use crate::index::TransformationIndex;
use crate::xform::{transformations_from_ecc_set, Transformation};
use quartz_ir::{Circuit, Instruction, ParamExpr, ALL_GATES};
use std::fmt;
use std::io;
use std::path::Path;

/// The four magic bytes every artifact starts with.
pub const MAGIC: [u8; 4] = *b"QTZL";

/// The artifact format version, and the only one readers accept: a header,
/// then a [`ClassTable`] carrying per-class byte ranges, per-class content
/// digests and an index-section digest, then the ECC payload and an index
/// section holding the transformation list alone. Any other version is
/// refused with [`LibraryError::UnsupportedVersion`] (DESIGN.md §7.3).
pub const FORMAT_VERSION: u16 = 3;

/// Version of the generation pipeline (RepGen + pruning + transformation
/// extraction). Bumped whenever regenerating the same
/// `(gate set, n, q, m)` would produce a different artifact; `quartz-lib
/// verify-checksum` fails artifacts whose recorded generator version is
/// stale.
pub const GENERATOR_VERSION: u32 = 2;

/// Fixed size of the artifact header in bytes.
pub const HEADER_LEN: usize = 72;

const GATE_SET_NAME_LEN: usize = 12;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64 state (each per-byte step is a
/// bijection of the state, so any single-byte change propagates to the
/// final value).
fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit checksum (DESIGN.md §7.3). The artifact's content checksum
/// is this hash over the first 64 header bytes (the checksum field itself
/// excluded) followed by the body, so every header field is
/// integrity-checked too — see [`artifact_checksum`].
///
/// # Examples
///
/// ```
/// // The FNV-1a offset basis is the checksum of the empty string.
/// assert_eq!(quartz_gen::checksum64(b""), 0xcbf2_9ce4_8422_2325);
/// ```
pub fn checksum64(bytes: &[u8]) -> u64 {
    fnv1a64(FNV_OFFSET_BASIS, bytes)
}

/// The checksum recorded at header offset 64: FNV-1a 64 over the header
/// prefix (bytes 0–63) chained into the body. Covering the header means a
/// flipped `q`, `m`, gate-set byte, or section length is caught by
/// validation, not just a flipped body byte.
pub fn artifact_checksum(header_prefix: &[u8], body: &[u8]) -> u64 {
    fnv1a64(fnv1a64(FNV_OFFSET_BASIS, header_prefix), body)
}

/// Wraps an I/O error so its message names the offending path — the one
/// error-context rule every persistence entry point in this workspace
/// follows ([`EccSet::save`], [`Library::load`], the optimizer's library
/// cache, …).
pub fn path_io_error(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Error produced when reading or decoding a library artifact.
#[derive(Debug)]
pub enum LibraryError {
    /// The buffer does not start with the `QTZL` magic.
    NotALibrary,
    /// The artifact's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u16),
    /// The buffer ended before the structure it claims to contain.
    Truncated {
        /// What was being read when the input ran out.
        context: &'static str,
    },
    /// The artifact checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed over the body.
        found: u64,
    },
    /// The body decoded to something structurally invalid.
    Malformed(String),
    /// A class payload's bytes do not hash to the digest recorded for it
    /// in the artifact's class table — the class was corrupted after pack
    /// (or the table entry was cooked to point at the wrong range).
    ClassDigestMismatch {
        /// Position of the class in this artifact's table.
        class: usize,
        /// Digest recorded in the class table.
        expected: u64,
        /// Digest recomputed over the class's payload bytes.
        found: u64,
    },
    /// An index section's bytes do not hash to the digest recorded in the
    /// class table.
    IndexDigestMismatch {
        /// Digest recorded in the class table.
        expected: u64,
        /// Digest recomputed over the index section bytes.
        found: u64,
    },
    /// The loader requires a live audit stamp
    /// ([`crate::AuditStamp::certifies`]) but the artifact has none — the
    /// sidecar is missing, stale, or records a failed audit.
    NotAudited {
        /// The artifact path, as given to the loader.
        path: String,
    },
    /// An I/O error, with the offending path in the message.
    Io(io::Error),
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::NotALibrary => {
                write!(f, "not a quartz library artifact (bad QTZL magic)")
            }
            LibraryError::UnsupportedVersion(v) => write!(
                f,
                "unsupported library format version {v} (this build reads version \
                 {FORMAT_VERSION} only)"
            ),
            LibraryError::Truncated { context } => {
                write!(f, "artifact truncated while reading {context}")
            }
            LibraryError::ChecksumMismatch { expected, found } => write!(
                f,
                "artifact checksum mismatch: header says {expected:#018x}, content hashes to {found:#018x}"
            ),
            LibraryError::Malformed(msg) => write!(f, "malformed library artifact: {msg}"),
            LibraryError::ClassDigestMismatch {
                class,
                expected,
                found,
            } => write!(
                f,
                "class {class} digest mismatch: table says {expected:#018x}, payload hashes \
                 to {found:#018x}"
            ),
            LibraryError::IndexDigestMismatch { expected, found } => write!(
                f,
                "index section digest mismatch: table says {expected:#018x}, section hashes \
                 to {found:#018x}"
            ),
            LibraryError::NotAudited { path } => write!(
                f,
                "{path}: no live audit stamp — run `quartz-lib audit {path} --write-stamp` \
                 (the loader was configured to require audited artifacts)"
            ),
            LibraryError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LibraryError {}

impl From<io::Error> for LibraryError {
    fn from(e: io::Error) -> Self {
        LibraryError::Io(e)
    }
}

/// The decoded fixed-size header of a library artifact (DESIGN.md §7.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryHeader {
    /// Artifact format version (always [`FORMAT_VERSION`]).
    pub format_version: u16,
    /// Name of the gate set the library was generated for (≤ 12 ASCII
    /// bytes; informational).
    pub gate_set: String,
    /// `n`: the largest gate count of any member circuit.
    pub max_gates: u32,
    /// `q`: number of qubits every member circuit is defined over.
    pub num_qubits: u32,
    /// `m`: number of formal parameters.
    pub num_params: u32,
    /// Number of equivalence classes in the ECC payload.
    pub num_eccs: u32,
    /// Total circuits across all classes.
    pub total_circuits: u32,
    /// Total instructions across all circuits.
    pub total_instructions: u32,
    /// [`GENERATOR_VERSION`] of the pipeline that produced the artifact.
    pub generator_version: u32,
    /// Byte length of the ECC payload section.
    pub ecc_len: u64,
    /// Byte length of the prebuilt index section (0 = absent).
    pub index_len: u64,
    /// FNV-1a 64 checksum of the header prefix (bytes 0–63) followed by the
    /// class table — see [`artifact_checksum`].
    pub checksum: u64,
}

impl LibraryHeader {
    /// Returns `true` when the artifact carries a prebuilt index section.
    pub fn has_index(&self) -> bool {
        self.index_len > 0
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&self.format_version.to_le_bytes());
        out[6..8].copy_from_slice(&(HEADER_LEN as u16).to_le_bytes());
        let name = self.gate_set.as_bytes();
        let n = name.len().min(GATE_SET_NAME_LEN);
        out[8..8 + n].copy_from_slice(&name[..n]);
        out[20..24].copy_from_slice(&self.max_gates.to_le_bytes());
        out[24..28].copy_from_slice(&self.num_qubits.to_le_bytes());
        out[28..32].copy_from_slice(&self.num_params.to_le_bytes());
        out[32..36].copy_from_slice(&self.num_eccs.to_le_bytes());
        out[36..40].copy_from_slice(&self.total_circuits.to_le_bytes());
        out[40..44].copy_from_slice(&self.total_instructions.to_le_bytes());
        out[44..48].copy_from_slice(&self.generator_version.to_le_bytes());
        out[48..56].copy_from_slice(&self.ecc_len.to_le_bytes());
        out[56..64].copy_from_slice(&self.index_len.to_le_bytes());
        out[64..72].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<LibraryHeader, LibraryError> {
        if bytes.len() < 4 || bytes[0..4] != MAGIC {
            return Err(LibraryError::NotALibrary);
        }
        if bytes.len() < HEADER_LEN {
            return Err(LibraryError::Truncated { context: "header" });
        }
        let u16_at = |o: usize| u16::from_le_bytes([bytes[o], bytes[o + 1]]);
        let u32_at =
            |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
        let u64_at = |o: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[o..o + 8]);
            u64::from_le_bytes(b)
        };
        let format_version = u16_at(4);
        if format_version != FORMAT_VERSION {
            return Err(LibraryError::UnsupportedVersion(format_version));
        }
        let header_len = u16_at(6) as usize;
        if header_len != HEADER_LEN {
            return Err(LibraryError::Malformed(format!(
                "header length field is {header_len}, expected {HEADER_LEN}"
            )));
        }
        let name_bytes = &bytes[8..8 + GATE_SET_NAME_LEN];
        let name_end = name_bytes
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(GATE_SET_NAME_LEN);
        let gate_set = String::from_utf8_lossy(&name_bytes[..name_end]).into_owned();
        Ok(LibraryHeader {
            format_version,
            gate_set,
            max_gates: u32_at(20),
            num_qubits: u32_at(24),
            num_params: u32_at(28),
            num_eccs: u32_at(32),
            total_circuits: u32_at(36),
            total_instructions: u32_at(40),
            generator_version: u32_at(44),
            ecc_len: u64_at(48),
            index_len: u64_at(56),
            checksum: u64_at(64),
        })
    }
}

// ---------------------------------------------------------------------------
// Body encoding (circuits, ECC payload, prebuilt index)
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Checked narrowing for the format's u16 fields: silent truncation would
/// produce a checksum-valid artifact encoding a *different* circuit, so an
/// out-of-range set must fail loudly at pack time instead.
fn cast_u16(what: &str, n: usize) -> u16 {
    u16::try_from(n).unwrap_or_else(|_| panic!("{what} ({n}) exceeds the format's u16 limit"))
}

pub(crate) fn encode_circuit(out: &mut Vec<u8>, circuit: &Circuit) {
    put_u16(out, cast_u16("circuit qubit count", circuit.num_qubits()));
    put_u16(
        out,
        cast_u16("circuit parameter count", circuit.num_params()),
    );
    put_u32(
        out,
        u32::try_from(circuit.gate_count()).expect("gate count exceeds the format's u32 limit"),
    );
    for instr in circuit.instructions() {
        out.push(instr.gate.index() as u8);
        for &q in &instr.qubits {
            put_u16(out, cast_u16("qubit operand", q));
        }
        for p in &instr.params {
            put_u16(out, cast_u16("coefficient count", p.coeffs().len()));
            for &c in p.coeffs() {
                put_i32(out, c);
            }
            put_i32(out, p.const_pi4());
        }
    }
}

/// Encodes one equivalence class exactly as it appears inside the ECC
/// payload section: a `u32` circuit count followed by the encoded circuits.
/// The payload is the concatenation of these; the class table records
/// where each one starts.
fn encode_ecc_class(out: &mut Vec<u8>, ecc: &Ecc) {
    put_u32(out, ecc.len() as u32);
    for circuit in ecc.circuits() {
        encode_circuit(out, circuit);
    }
}

fn encode_index_section(index: &TransformationIndex) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, index.len() as u32);
    for xform in index.transformations() {
        encode_circuit(&mut out, &xform.target);
        encode_circuit(&mut out, &xform.rewrite);
    }
    out
}

/// A bounds-checked little-endian cursor over a body section.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], LibraryError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(LibraryError::Truncated { context })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, LibraryError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, LibraryError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, LibraryError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, LibraryError> {
        let b = self.take(8, context)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn i32(&mut self, context: &'static str) -> Result<i32, LibraryError> {
        Ok(self.u32(context)? as i32)
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_circuit(cur: &mut Cursor<'_>) -> Result<Circuit, LibraryError> {
    let num_qubits = cur.u16("circuit qubit count")? as usize;
    let num_params = cur.u16("circuit parameter count")? as usize;
    let gate_count = cur.u32("circuit gate count")? as usize;
    let mut circuit = Circuit::new(num_qubits, num_params);
    for _ in 0..gate_count {
        let gate_index = cur.u8("gate index")? as usize;
        let gate = *ALL_GATES
            .get(gate_index)
            .ok_or_else(|| LibraryError::Malformed(format!("unknown gate index {gate_index}")))?;
        let mut qubits = Vec::with_capacity(gate.num_qubits());
        for _ in 0..gate.num_qubits() {
            let q = cur.u16("qubit operand")? as usize;
            if q >= num_qubits {
                return Err(LibraryError::Malformed(format!(
                    "qubit {q} out of range for circuit with {num_qubits} qubits"
                )));
            }
            if qubits.contains(&q) {
                return Err(LibraryError::Malformed(format!(
                    "repeated qubit operand {q} for gate {gate}"
                )));
            }
            qubits.push(q);
        }
        let mut params = Vec::with_capacity(gate.num_params());
        for _ in 0..gate.num_params() {
            let coeff_count = cur.u16("parameter coefficient count")? as usize;
            // Same shape rule as the JSON codec: one coefficient per formal
            // parameter of the circuit. This also bounds the read.
            if coeff_count != num_params {
                return Err(LibraryError::Malformed(format!(
                    "parameter expression has {coeff_count} coefficients, circuit has \
                     {num_params} parameters"
                )));
            }
            let mut coeffs = Vec::with_capacity(coeff_count);
            for _ in 0..coeff_count {
                coeffs.push(cur.i32("parameter coefficient")?);
            }
            let const_pi4 = cur.i32("parameter constant")?;
            params.push(ParamExpr::from_parts(coeffs, const_pi4));
        }
        circuit.push(Instruction::new(gate, qubits, params));
    }
    Ok(circuit)
}

/// Decodes one equivalence class (the inverse of [`encode_ecc_class`]).
fn decode_ecc_class(cur: &mut Cursor<'_>) -> Result<Ecc, LibraryError> {
    let circuit_count = cur.u32("ECC circuit count")? as usize;
    if circuit_count == 0 {
        return Err(LibraryError::Malformed(
            "an ECC must contain at least one circuit".to_string(),
        ));
    }
    let mut circuits = Vec::with_capacity(circuit_count.min(1024));
    for _ in 0..circuit_count {
        circuits.push(decode_circuit(cur)?);
    }
    // The payload stores circuits in representative-first (≺-sorted)
    // order; Ecc::new's stable sort therefore reproduces it exactly.
    Ok(Ecc::new(circuits))
}

/// Checks that the decoded classes add up to the header's circuit and
/// instruction counts.
pub(crate) fn check_payload_totals(
    header: &LibraryHeader,
    set: &EccSet,
) -> Result<(), LibraryError> {
    let total_circuits = set.total_circuits();
    let total_instructions: usize = set
        .eccs
        .iter()
        .flat_map(|e| e.circuits())
        .map(Circuit::gate_count)
        .sum();
    if total_circuits != header.total_circuits as usize
        || total_instructions != header.total_instructions as usize
    {
        return Err(LibraryError::Malformed(format!(
            "payload counts ({total_circuits} circuits, {total_instructions} instructions) \
             disagree with the header ({}, {})",
            header.total_circuits, header.total_instructions
        )));
    }
    Ok(())
}

pub(crate) fn decode_index_section(bytes: &[u8]) -> Result<TransformationIndex, LibraryError> {
    let mut cur = Cursor::new(bytes);
    let count = cur.u32("transformation count")? as usize;
    let mut transformations = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        let target = decode_circuit(&mut cur)?;
        let rewrite = decode_circuit(&mut cur)?;
        transformations.push(Transformation { target, rewrite });
    }
    if !cur.finished() {
        return Err(LibraryError::Malformed(
            "trailing bytes after the transformations of the index section".to_string(),
        ));
    }
    Ok(TransformationIndex::new(transformations))
}

// ---------------------------------------------------------------------------
// The class offset table (DESIGN.md §12)
// ---------------------------------------------------------------------------

/// Content digest of one class's payload bytes, as recorded in the
/// [`ClassTable`]. Same recipe as the audit sidecar's
/// [`crate::audit::class_digest`] minus the verifier-configuration digest
/// (integrity needs no verifier): [`GENERATOR_VERSION`] and the set shape
/// are folded in so a digest can never validate a payload reinterpreted
/// under different `(q, m)` or a different generation pipeline.
pub fn class_payload_digest(num_qubits: u32, num_params: u32, payload: &[u8]) -> u64 {
    let mut hash = fnv1a64(FNV_OFFSET_BASIS, &GENERATOR_VERSION.to_le_bytes());
    hash = fnv1a64(hash, &u64::from(num_qubits).to_le_bytes());
    hash = fnv1a64(hash, &u64::from(num_params).to_le_bytes());
    fnv1a64(hash, payload)
}

/// One row of the class table: where a class's payload lives and what it
/// must hash to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassEntry {
    /// Byte length of the class's payload. Offsets are prefix sums; the
    /// lengths must sum exactly to the header's `ecc_len`.
    pub len: u32,
    /// [`class_payload_digest`] of the payload bytes.
    pub digest: u64,
}

/// The class offset table (DESIGN.md §12): a fixed preamble, one
/// [`ClassEntry`] per class, and a digest of the index section.
///
/// The artifact checksum covers the header prefix *and* the encoded table,
/// so every byte of the table is validated at open; every byte of the
/// payload and index sections is in turn covered by a digest stored in the
/// table — integrity of the whole file is transitive without hashing the
/// body at open, which is what makes lazy loading sound (see the DESIGN.md
/// §12 safety argument).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassTable {
    /// One entry per class, in payload order.
    pub classes: Vec<ClassEntry>,
    /// `checksum64` of the index section bytes (0 when the section is
    /// absent).
    pub index_digest: u64,
}

/// The 32-byte class-table preamble every artifact carries: the fixed
/// "whole artifact" values (`u32` fields 0, 1, 0, 0, 0, 0 then a `u64` 0 —
/// shard 0 of 1, no parent, no transformation ids), kept so the byte layout
/// does not change. Any other preamble is refused.
const CLASS_TABLE_PREAMBLE: [u8; 32] = {
    let mut preamble = [0u8; 32];
    preamble[4] = 1;
    preamble
};

impl ClassTable {
    /// Encoded byte length of the table.
    pub fn encoded_len(&self) -> usize {
        ClassTable::len_for(self.classes.len())
    }

    /// Encoded byte length of the table of an artifact with `num_eccs`
    /// classes: preamble, 16 bytes per class, index digest.
    pub(crate) fn len_for(num_eccs: usize) -> usize {
        CLASS_TABLE_PREAMBLE.len() + 16 * num_eccs + 8
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&CLASS_TABLE_PREAMBLE);
        for (i, entry) in self.classes.iter().enumerate() {
            // The per-class index field: always the class's own position.
            put_u32(out, i as u32);
            put_u32(out, entry.len);
            out.extend_from_slice(&entry.digest.to_le_bytes());
        }
        out.extend_from_slice(&self.index_digest.to_le_bytes());
    }

    /// Decodes a table of exactly [`ClassTable::len_for`] bytes.
    pub(crate) fn decode(bytes: &[u8], header: &LibraryHeader) -> Result<ClassTable, LibraryError> {
        let mut cur = Cursor::new(bytes);
        let preamble = cur.take(CLASS_TABLE_PREAMBLE.len(), "class table preamble")?;
        if preamble != CLASS_TABLE_PREAMBLE {
            return Err(LibraryError::Malformed(format!(
                "class table preamble {preamble:02x?} is not the whole-artifact preamble"
            )));
        }
        let mut classes = Vec::with_capacity((header.num_eccs as usize).min(65_536));
        let mut payload_len = 0u64;
        for i in 0..header.num_eccs {
            let position = cur.u32("class table entry index")?;
            if position != i {
                return Err(LibraryError::Malformed(format!(
                    "class table entry {i} records class index {position}"
                )));
            }
            let len = cur.u32("class table entry length")?;
            let digest = cur.u64("class table entry digest")?;
            payload_len += u64::from(len);
            classes.push(ClassEntry { len, digest });
        }
        if payload_len != header.ecc_len {
            return Err(LibraryError::Malformed(format!(
                "class table lengths sum to {payload_len} bytes, header says the payload \
                 is {} bytes",
                header.ecc_len
            )));
        }
        let index_digest = cur.u64("class table index digest")?;
        if !cur.finished() {
            return Err(LibraryError::Malformed(
                "trailing bytes after the class table".to_string(),
            ));
        }
        Ok(ClassTable {
            classes,
            index_digest,
        })
    }
}

// ---------------------------------------------------------------------------
// Section checks and the owned library
// ---------------------------------------------------------------------------

/// Checks one class payload against its table entry.
pub(crate) fn verify_class_payload(
    header: &LibraryHeader,
    class: usize,
    entry: &ClassEntry,
    payload: &[u8],
) -> Result<(), LibraryError> {
    let found = class_payload_digest(header.num_qubits, header.num_params, payload);
    if found != entry.digest {
        return Err(LibraryError::ClassDigestMismatch {
            class,
            expected: entry.digest,
            found,
        });
    }
    Ok(())
}

/// Decodes one class payload, requiring it to be exactly consumed (the
/// class table makes every range explicit, so a short decode is a
/// malformed class).
pub(crate) fn decode_class_payload(class: usize, payload: &[u8]) -> Result<Ecc, LibraryError> {
    let mut cur = Cursor::new(payload);
    let ecc = decode_ecc_class(&mut cur)?;
    if !cur.finished() {
        return Err(LibraryError::Malformed(format!(
            "trailing bytes after the circuits of class {class}"
        )));
    }
    Ok(ecc)
}

/// Checks the index section bytes against the table's digest.
pub(crate) fn verify_index_section(table: &ClassTable, bytes: &[u8]) -> Result<(), LibraryError> {
    let found = checksum64(bytes);
    if found != table.index_digest {
        return Err(LibraryError::IndexDigestMismatch {
            expected: table.index_digest,
            found,
        });
    }
    Ok(())
}

/// An owned, decoded library: header, ECC set, and (optionally) the
/// prebuilt transformation index. See the module-level docs for an example.
#[derive(Debug, Clone)]
pub struct Library {
    header: LibraryHeader,
    ecc_set: EccSet,
    index: Option<TransformationIndex>,
    /// The encoded artifact, kept from construction/decoding so it is
    /// serialized exactly once per library, not once per `to_bytes`/`save`
    /// call.
    bytes: Vec<u8>,
}

impl Library {
    /// Builds a library from an ECC set. With `with_index`, the
    /// transformation list is extracted (with common-subcircuit pruning, as
    /// [`crate::transformations_from_ecc_set`] does for the optimizer) and
    /// its transformation index is embedded so loaders skip index construction.
    ///
    /// `gate_set` is recorded in the header (truncated to 12 bytes).
    ///
    /// # Panics
    ///
    /// Panics if the set exceeds the format's limits — ≥ 2¹⁶ qubits,
    /// parameters, or coefficients per circuit, or ≥ 2³² gates, circuits,
    /// or classes — rather than silently truncating into a checksum-valid
    /// artifact that encodes a different library.
    pub fn new(gate_set: impl Into<String>, ecc_set: EccSet, with_index: bool) -> Library {
        let index = with_index
            .then(|| TransformationIndex::new(transformations_from_ecc_set(&ecc_set, true)));
        let mut gate_set = gate_set.into();
        gate_set.truncate(
            (0..=GATE_SET_NAME_LEN.min(gate_set.len()))
                .rev()
                .find(|&i| gate_set.is_char_boundary(i))
                .unwrap_or(0),
        );
        let count_u32 = |what: &str, n: usize| -> u32 {
            u32::try_from(n)
                .unwrap_or_else(|_| panic!("{what} ({n}) exceeds the format's u32 limit"))
        };
        let num_qubits = count_u32("qubit count", ecc_set.num_qubits);
        let num_params = count_u32("parameter count", ecc_set.num_params);
        let index_section = index.as_ref().map(encode_index_section).unwrap_or_default();
        let mut classes = Vec::with_capacity(ecc_set.eccs.len());
        let mut payload = Vec::new();
        for ecc in &ecc_set.eccs {
            let start = payload.len();
            encode_ecc_class(&mut payload, ecc);
            classes.push(ClassEntry {
                len: count_u32("class payload length", payload.len() - start),
                digest: class_payload_digest(num_qubits, num_params, &payload[start..]),
            });
        }
        let table = ClassTable {
            classes,
            index_digest: if index_section.is_empty() {
                0
            } else {
                checksum64(&index_section)
            },
        };
        let mut header = LibraryHeader {
            format_version: FORMAT_VERSION,
            gate_set,
            max_gates: ecc_set
                .eccs
                .iter()
                .flat_map(|e| e.circuits())
                .map(|c| count_u32("circuit gate count", c.gate_count()))
                .max()
                .unwrap_or(0),
            num_qubits,
            num_params,
            num_eccs: count_u32("ECC count", ecc_set.eccs.len()),
            total_circuits: count_u32("total circuits", ecc_set.total_circuits()),
            total_instructions: count_u32(
                "total instructions",
                ecc_set
                    .eccs
                    .iter()
                    .flat_map(|e| e.circuits())
                    .map(Circuit::gate_count)
                    .sum::<usize>(),
            ),
            generator_version: GENERATOR_VERSION,
            ecc_len: payload.len() as u64,
            index_len: index_section.len() as u64,
            checksum: 0,
        };
        // Seal the header (its checksum covers header prefix ‖ table), then
        // lay out header, class table, ECC payload, index section.
        let mut table_bytes = Vec::with_capacity(table.encoded_len());
        table.encode(&mut table_bytes);
        header.checksum = artifact_checksum(&header.encode()[..HEADER_LEN - 8], &table_bytes);
        let mut bytes = Vec::with_capacity(
            HEADER_LEN + table_bytes.len() + payload.len() + index_section.len(),
        );
        bytes.extend_from_slice(&header.encode());
        bytes.extend_from_slice(&table_bytes);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&index_section);
        Library {
            header,
            ecc_set,
            index,
            bytes,
        }
    }

    /// Assembles a library from a decoded artifact (the eager end of
    /// [`crate::LazyLibrary`]).
    pub(crate) fn from_decoded(
        header: LibraryHeader,
        ecc_set: EccSet,
        index: Option<TransformationIndex>,
        bytes: Vec<u8>,
    ) -> Library {
        Library {
            header,
            ecc_set,
            index,
            bytes,
        }
    }

    /// The artifact header.
    pub fn header(&self) -> &LibraryHeader {
        &self.header
    }

    /// The ECC set.
    pub fn ecc_set(&self) -> &EccSet {
        &self.ecc_set
    }

    /// The prebuilt transformation index, when the artifact carries one.
    pub fn index(&self) -> Option<&TransformationIndex> {
        self.index.as_ref()
    }

    /// Consumes the library, yielding the ECC set and the prebuilt index.
    pub fn into_parts(self) -> (EccSet, Option<TransformationIndex>) {
        (self.ecc_set, self.index)
    }

    /// Total size of the encoded artifact in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Serializes the library to artifact bytes (deterministic: the same
    /// library always encodes to the same bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Validates and decodes an artifact: header, class table and checksum,
    /// then every class and the index section, each against its digest.
    ///
    /// # Errors
    ///
    /// Any header, checksum, digest, or body validation failure.
    pub fn from_bytes(bytes: &[u8]) -> Result<Library, LibraryError> {
        crate::LazyLibrary::from_bytes(bytes.to_vec())?.into_library()
    }

    /// Writes the artifact to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, with `path` included in the error message.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, &self.bytes).map_err(|e| path_io_error(path, e))
    }

    /// Reads and decodes an artifact from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (with `path` in the message) and every
    /// validation failure of [`Library::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Library, LibraryError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| path_io_error(path, e))?;
        Library::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_ir::{Gate, Instruction, ParamExpr};

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
        set
    }

    #[test]
    fn bytes_round_trip_losslessly_with_and_without_index() {
        let set = sample_set();
        for with_index in [false, true] {
            let library = Library::new("Nam", set.clone(), with_index);
            let bytes = library.to_bytes();
            let back = Library::from_bytes(&bytes).unwrap();
            assert_eq!(back.ecc_set(), &set);
            assert_eq!(back.header(), library.header());
            assert_eq!(back.index().is_some(), with_index);
            if let Some(index) = back.index() {
                let fresh = TransformationIndex::new(transformations_from_ecc_set(&set, true));
                assert_eq!(index.len(), fresh.len());
                assert_eq!(index.transformations(), fresh.transformations());
            }
            // Encoding is deterministic.
            assert_eq!(bytes, back.to_bytes());
        }
    }

    #[test]
    fn header_records_shape_and_counts() {
        let library = Library::new("Nam", sample_set(), true);
        let h = library.header();
        assert_eq!(h.gate_set, "Nam");
        assert_eq!(h.format_version, FORMAT_VERSION);
        assert_eq!(h.generator_version, GENERATOR_VERSION);
        assert_eq!(h.max_gates, 2);
        assert_eq!(h.num_qubits, 2);
        assert_eq!(h.num_params, 1);
        assert_eq!(h.num_eccs, 2);
        assert_eq!(h.total_circuits, 4);
        assert_eq!(h.total_instructions, 5);
        assert!(h.has_index());
        assert!(h.ecc_len > 0 && h.index_len > 0);
    }

    #[test]
    fn corrupted_magic_and_version_are_rejected() {
        let bytes = Library::new("Nam", sample_set(), false).to_bytes();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Library::from_bytes(&bad_magic),
            Err(LibraryError::NotALibrary)
        ));
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            Library::from_bytes(&bad_version),
            Err(LibraryError::UnsupportedVersion(_))
        ));
        let mut bad_header_len = bytes;
        bad_header_len[6] = 99;
        assert!(matches!(
            Library::from_bytes(&bad_header_len),
            Err(LibraryError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_files_are_rejected_at_every_length() {
        let bytes = Library::new("Nam", sample_set(), true).to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Library::from_bytes(&bytes[..len]).is_err(),
                "a {len}-byte prefix of a {}-byte artifact must not decode",
                bytes.len()
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            Library::from_bytes(&padded),
            Err(LibraryError::Malformed(_))
        ));
        assert!(Library::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn body_corruption_fails_the_checksum() {
        let mut bytes = Library::new("Nam", sample_set(), true).to_bytes();
        let flip = HEADER_LEN + 5;
        bytes[flip] ^= 0xFF;
        match Library::from_bytes(&bytes) {
            Err(LibraryError::ChecksumMismatch { expected, found }) => {
                assert_ne!(expected, found)
            }
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn reader_validates_header_without_decoding_the_body() {
        let library = Library::new("Rigetti", sample_set(), true);
        let reader = crate::LazyLibrary::from_bytes(library.to_bytes()).unwrap();
        assert_eq!(reader.header(), library.header());
        assert_eq!(reader.decoded_classes(), 0);
        let table = reader.class_table();
        let class_bytes: u64 = table.classes.iter().map(|e| u64::from(e.len)).sum();
        assert_eq!(class_bytes, reader.header().ecc_len);
        assert_ne!(table.index_digest, 0);
        reader.verify_all().unwrap();
        assert_eq!(
            reader.decoded_classes(),
            0,
            "the digest sweep decodes nothing"
        );
        assert_eq!(reader.ecc_set().unwrap(), *library.ecc_set());
    }

    #[test]
    fn long_gate_set_names_are_truncated_not_fatal() {
        let library = Library::new("AVeryLongGateSetName", sample_set(), false);
        assert_eq!(library.header().gate_set, "AVeryLongGat");
        let back = Library::from_bytes(&library.to_bytes()).unwrap();
        assert_eq!(back.header().gate_set, "AVeryLongGat");
    }

    #[test]
    fn checksum_is_fnv1a64() {
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
