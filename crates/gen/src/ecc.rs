//! Equivalent circuit classes (ECCs) and ECC sets (paper §2).
//!
//! An [`EccSet`] is the compact representation of a transformation library:
//! each class's representative pairs with every other member to yield the
//! optimizer's rewrite rules (see [`crate::transformations_from_ecc_set`]).
//! Sets serialize two ways — as interchange JSON ([`EccSet::to_json`],
//! [`EccSet::save`]) and as the compact binary `QTZL` artifacts of
//! [`crate::library`] that services load at startup.
//!
//! # Examples
//!
//! ```
//! use quartz_gen::{Ecc, EccSet};
//! use quartz_ir::{Circuit, Gate, Instruction};
//!
//! let mut hh = Circuit::new(1, 0);
//! hh.push(Instruction::new(Gate::H, vec![0], vec![]));
//! hh.push(Instruction::new(Gate::H, vec![0], vec![]));
//! let mut set = EccSet::new(1, 0);
//! set.eccs.push(Ecc::new(vec![hh, Circuit::new(1, 0)]));
//!
//! // The empty circuit is ≺-minimal, so it becomes the representative,
//! // and the two-member class represents 2·1 = 2 transformations.
//! assert!(set.eccs[0].representative().is_empty());
//! assert_eq!(set.num_transformations(), 2);
//! assert_eq!(EccSet::from_json(&set.to_json()).unwrap(), set);
//! ```

use quartz_ir::Circuit;
use std::fmt;
use std::path::Path;

/// An equivalence class of circuits. The first circuit is the representative
/// (the ≺-minimal member).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ecc {
    circuits: Vec<Circuit>,
}

impl Ecc {
    /// Creates a singleton ECC.
    pub fn singleton(circuit: Circuit) -> Self {
        Ecc {
            circuits: vec![circuit],
        }
    }

    /// Creates an ECC from a list of circuits, making the ≺-minimal member
    /// the representative.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty.
    pub fn new(mut circuits: Vec<Circuit>) -> Self {
        assert!(
            !circuits.is_empty(),
            "an ECC must contain at least one circuit"
        );
        circuits.sort_by(|a, b| a.precedence_cmp(b));
        Ecc { circuits }
    }

    /// The representative circuit (≺-minimal member).
    pub fn representative(&self) -> &Circuit {
        &self.circuits[0]
    }

    /// All member circuits, representative first.
    pub fn circuits(&self) -> &[Circuit] {
        &self.circuits
    }

    /// Number of member circuits.
    pub fn len(&self) -> usize {
        self.circuits.len()
    }

    /// Returns `true` if the ECC has exactly one member (and therefore yields
    /// no transformations).
    pub fn is_singleton(&self) -> bool {
        self.circuits.len() == 1
    }

    /// `is_empty` is never true for a constructed ECC; provided for
    /// completeness alongside [`Ecc::len`].
    pub fn is_empty(&self) -> bool {
        self.circuits.is_empty()
    }

    /// Number of transformations the ECC represents: x·(x−1).
    pub fn transformation_count(&self) -> usize {
        self.circuits.len() * (self.circuits.len().saturating_sub(1))
    }

    /// Adds a circuit, keeping the representative ≺-minimal.
    pub fn insert(&mut self, circuit: Circuit) {
        let pos = self
            .circuits
            .binary_search_by(|c| c.precedence_cmp(&circuit))
            .unwrap_or_else(|p| p);
        self.circuits.insert(pos, circuit);
    }

    /// Returns `true` if any member equals `circuit`.
    pub fn contains(&self, circuit: &Circuit) -> bool {
        self.circuits.contains(circuit)
    }
}

impl fmt::Display for Ecc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ECC with {} circuits:", self.len())?;
        for c in &self.circuits {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

/// A set of ECCs over a fixed number of qubits and parameters — the compact
/// representation of a transformation library.
#[derive(Debug, Clone, PartialEq)]
pub struct EccSet {
    /// Number of qubits every member circuit is defined over.
    pub num_qubits: usize,
    /// Number of formal parameters.
    pub num_params: usize,
    /// The classes.
    pub eccs: Vec<Ecc>,
}

impl EccSet {
    /// Creates an empty ECC set.
    pub fn new(num_qubits: usize, num_params: usize) -> Self {
        EccSet {
            num_qubits,
            num_params,
            eccs: Vec::new(),
        }
    }

    /// Number of ECCs.
    pub fn len(&self) -> usize {
        self.eccs.len()
    }

    /// Returns `true` if the set has no ECCs.
    pub fn is_empty(&self) -> bool {
        self.eccs.is_empty()
    }

    /// Total number of circuits across all ECCs.
    pub fn total_circuits(&self) -> usize {
        self.eccs.iter().map(Ecc::len).sum()
    }

    /// Total number of transformations represented (|T| in the paper):
    /// Σ x·(x−1) over the ECCs.
    pub fn num_transformations(&self) -> usize {
        self.eccs.iter().map(Ecc::transformation_count).sum()
    }

    /// Drops singleton ECCs (they yield no transformations).
    pub fn without_singletons(&self) -> EccSet {
        EccSet {
            num_qubits: self.num_qubits,
            num_params: self.num_params,
            eccs: self
                .eccs
                .iter()
                .filter(|e| !e.is_singleton())
                .cloned()
                .collect(),
        }
    }

    /// Serializes to a JSON string (see `crate::json` for the format).
    pub fn to_json(&self) -> String {
        crate::json::ecc_set_to_json(self)
    }

    /// Deserializes from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or shape error on malformed
    /// input, with the line, column, and byte offset of the offending token.
    pub fn from_json(json: &str) -> Result<EccSet, String> {
        crate::json::ecc_set_from_json(json)
    }

    /// Writes the set as JSON to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, with `path` included in the error message.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()).map_err(|e| crate::path_io_error(path, e))
    }

    /// Reads a set from a JSON file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and reports malformed JSON; either way the
    /// error message names the offending path.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<EccSet> {
        let path = path.as_ref();
        let s = std::fs::read_to_string(path).map_err(|e| crate::path_io_error(path, e))?;
        EccSet::from_json(&s).map_err(|e| {
            crate::path_io_error(
                path,
                std::io::Error::new(std::io::ErrorKind::InvalidData, e),
            )
        })
    }
}

impl fmt::Display for EccSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ECC set over {} qubits, {} parameters: {} classes, {} circuits, {} transformations",
            self.num_qubits,
            self.num_params,
            self.len(),
            self.total_circuits(),
            self.num_transformations()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_ir::{Gate, Instruction};

    fn single(gate: Gate, q: usize) -> Circuit {
        let mut c = Circuit::new(2, 0);
        c.push(Instruction::new(gate, vec![q], vec![]));
        c
    }

    #[test]
    fn representative_is_precedence_minimal() {
        let big = single(Gate::X, 0).appended(Instruction::new(Gate::X, vec![0], vec![]));
        let small = single(Gate::H, 1);
        let ecc = Ecc::new(vec![big.clone(), small.clone()]);
        assert_eq!(ecc.representative(), &small);
        assert_eq!(ecc.transformation_count(), 2);
        assert!(ecc.contains(&big));
    }

    #[test]
    fn insert_keeps_order() {
        let mut ecc = Ecc::singleton(single(Gate::X, 0));
        ecc.insert(single(Gate::H, 0));
        assert_eq!(ecc.representative(), &single(Gate::H, 0));
        assert_eq!(ecc.len(), 2);
        assert!(!ecc.is_singleton());
    }

    #[test]
    fn ecc_set_counts() {
        let mut set = EccSet::new(2, 0);
        set.eccs.push(Ecc::new(vec![
            single(Gate::H, 0),
            single(Gate::H, 1),
            single(Gate::X, 0),
        ]));
        set.eccs.push(Ecc::singleton(single(Gate::X, 1)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_circuits(), 4);
        assert_eq!(set.num_transformations(), 6);
        assert_eq!(set.without_singletons().len(), 1);
    }

    #[test]
    fn json_round_trip() {
        let mut set = EccSet::new(2, 1);
        set.eccs
            .push(Ecc::new(vec![single(Gate::H, 0), single(Gate::X, 0)]));
        let json = set.to_json();
        let back = EccSet::from_json(&json).unwrap();
        assert_eq!(set, back);
        assert!(EccSet::from_json("not json").is_err());
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("quartz_ecc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        // The set's (q, m) must cover its members' (2, 0): the decoder
        // refuses a wider member.
        let mut set = EccSet::new(2, 0);
        set.eccs.push(Ecc::new(vec![single(Gate::H, 0)]));
        set.save(&path).unwrap();
        let back = EccSet::load(&path).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn save_and_load_errors_name_the_path() {
        let missing = std::env::temp_dir().join("quartz_ecc_test_no_such_file.json");
        let err = EccSet::load(&missing).unwrap_err();
        assert!(
            err.to_string()
                .contains("quartz_ecc_test_no_such_file.json"),
            "load error must name the path: {err}"
        );

        let bad = std::env::temp_dir().join("quartz_ecc_test_bad.json");
        std::fs::write(&bad, "{ not json").unwrap();
        let err = EccSet::load(&bad).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("quartz_ecc_test_bad.json"));

        let set = EccSet::new(1, 0);
        let err = set
            .save(std::env::temp_dir().join("quartz_no_such_dir/set.json"))
            .unwrap_err();
        assert!(err.to_string().contains("quartz_no_such_dir"));
    }
}
