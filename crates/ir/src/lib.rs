//! # quartz-ir
//!
//! Symbolic quantum circuit intermediate representation for the Quartz
//! superoptimizer reproduction (paper §2).
//!
//! The crate provides:
//!
//! * [`Gate`] — the gate vocabulary with numeric and exact symbolic matrix
//!   semantics;
//! * [`ParamExpr`] / [`ExprSpec`] — symbolic parameter expressions and the
//!   specification Σ restricting how they may be formed;
//! * [`Instruction`] / [`Circuit`] — the sequence representation of symbolic
//!   circuits, including the precedence order ≺ used by RepGen;
//! * [`CircuitDag`] — the graph representation (nodes = gate instances,
//!   edges = qubit wires) with stable [`NodeId`]s, lossless
//!   `Circuit ⇄ CircuitDag` conversion, and in-place
//!   [`CircuitDag::splice`] used by the optimizer's incremental rewriting
//!   (DESIGN.md §5);
//! * [`GateSet`] — the Nam, IBM, Rigetti and Clifford+T gate sets of the
//!   paper, and the enumeration of single-gate circuits;
//! * [`StructuralHash`] — an order-invariant polynomial per-wire chain hash
//!   of [`CircuitDag`]s, a complete invariant of the labeled DAG and
//!   therefore an *exact* commitment to the canonical form, with strict
//!   O(footprint) [`StructuralHash::preview`] off the DAG's maintained wire
//!   caches — the optimizer's dedup identity (DESIGN.md §13);
//! * [`CostModel`] — the cost metrics of the search (gate count,
//!   multi-qubit gate count, T count, depth), with [`DeltaCoster`] making
//!   delta-based costing exact for every model (depth included) so the
//!   optimizer's γ-precheck runs before materialization;
//! * [`canonicalize`] — the lexicographically smallest topological order of
//!   a circuit's gate DAG, shared by the optimizer's seen-set and the
//!   library auditor's canonicality lint;
//! * [`fx`] — a vendored deterministic FxHash-style hasher for interior
//!   hash tables on the search hot path, and [`EpochSet`], the O(1)-cleared
//!   visited set its scratch buffers reuse;
//! * [`json`] — the workspace's one JSON codec (strict, depth-bounded,
//!   position-carrying parser; compact and pretty writers), which the ECC,
//!   audit, bench-report and daemon-wire shapes all map onto;
//! * [`par`] — the order-preserving parallel map on one persistent,
//!   std-only worker pool, behind the search step's per-frontier expansion
//!   and the auditor's class re-verification;
//! * [`semantics`] — state-vector simulation, full unitaries, equivalence up
//!   to global phase, and the fingerprinting of eq. (3);
//! * [`qasm`] — an OpenQASM 2.0 subset parser and printer.
//!
//! # Example
//!
//! ```
//! use quartz_ir::{Circuit, Gate, GateSet, Instruction, semantics};
//!
//! // Build the four-Hadamard CNOT-flip circuit from Figure 3a ...
//! let mut lhs = Circuit::new(2, 0);
//! for q in [0, 1] {
//!     lhs.push(Instruction::new(Gate::H, vec![q], vec![]));
//! }
//! lhs.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
//! for q in [0, 1] {
//!     lhs.push(Instruction::new(Gate::H, vec![q], vec![]));
//! }
//! // ... and check it equals the flipped CNOT.
//! let mut rhs = Circuit::new(2, 0);
//! rhs.push(Instruction::new(Gate::Cnot, vec![1, 0], vec![]));
//! assert!(semantics::equivalent_up_to_phase(&lhs, &rhs, &[], 1e-10));
//! assert!(GateSet::nam().supports_circuit(&lhs));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod canon;
mod circuit;
mod cost;
pub mod dag;
mod epoch;
pub mod fx;
mod gate;
mod gateset;
pub mod json;
pub mod par;
mod param;
pub mod qasm;
pub mod semantics;
pub mod shash;

pub use canon::canonicalize;
pub use circuit::{Circuit, Instruction};
pub use cost::{CostModel, DeltaCoster};
pub use dag::{CircuitDag, ConvexityScratch, NodeId, SpliceDelta, SpliceFootprint};
pub use epoch::EpochSet;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use gate::{Gate, GateHistogram, ALL_GATES};
pub use gateset::GateSet;
pub use param::{ExprSpec, ParamExpr, UnsupportedAngleError};
pub use qasm::{parse_qasm, to_qasm, QasmError};
pub use semantics::{
    apply_circuit, apply_instruction, basis_state, circuit_unitary, equivalent_up_to_phase,
    inner_product, FingerprintContext, StateVector,
};
pub use shash::StructuralHash;
