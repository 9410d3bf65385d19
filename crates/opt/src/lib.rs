//! # quartz-opt
//!
//! The circuit optimizer of the Quartz superoptimizer reproduction
//! (paper §6 and §7.1): transformation extraction from ECC sets, convex
//! subcircuit matching, and the cost-based backtracking search of
//! Algorithm 2. The search has one engine (DESIGN.md §2): one walk of the
//! [`TransformationIndex`]'s match automaton matches every transformation
//! against a dequeued circuit at once (DESIGN.md §2.6); each dequeued circuit's
//! [`MatchContext`] is derived from its parent's through the splice delta
//! that created it ([`MatchContext::derive`], O(rewrite footprint),
//! DESIGN.md §5); candidates are costed from the delta
//! ([`CostModel::delta_coster`]) and deduplicated on a structural hash
//! previewed from the parent's ([`quartz_ir::StructuralHash::preview`],
//! DESIGN.md §13), so a candidate's circuit is built only if it is
//! dequeued. The tests check the engine against a naive implementation of
//! Algorithm 2 that shares none of these steps. Also here: the
//! preprocessing passes (Toffoli decomposition, rotation merging, gate-set
//! transpilation) and a greedy rule-based baseline.
//!
//! Batches of circuits are served concurrently by the
//! [`OptimizationService`] (DESIGN.md §6): one search frontier per circuit
//! over a single shared [`TransformationIndex`], with work stealing across
//! frontiers and per-circuit results bit-identical to standalone
//! [`Optimizer::optimize`] runs.
//!
//! Startup is *zero-generation* when a persisted library artifact is
//! available (DESIGN.md §7): [`LibraryCache`] loads a `QTZL` artifact once —
//! rule list and index included — and [`Optimizer::from_library`] /
//! [`OptimizationService::from_library`] share it via [`std::sync::Arc`],
//! turning seconds of ECC generation into a cold file read.
//!
//! # Example
//!
//! ```
//! use quartz_gen::{Generator, GenConfig};
//! use quartz_ir::{Circuit, Gate, GateSet, Instruction};
//! use quartz_opt::{preprocess_nam, Optimizer, SearchConfig};
//! use std::time::Duration;
//!
//! // A Toffoli followed by its own inverse should optimize away almost
//! // entirely: preprocessing decomposes and merges rotations, and the
//! // search cancels what remains.
//! let mut circuit = Circuit::new(3, 0);
//! circuit.push(Instruction::new(Gate::Ccx, vec![0, 1, 2], vec![]));
//! circuit.push(Instruction::new(Gate::Ccx, vec![0, 1, 2], vec![]));
//! let preprocessed = preprocess_nam(&circuit);
//!
//! let (ecc_set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 0)).run();
//! let optimizer = Optimizer::from_ecc_set(&ecc_set, SearchConfig::with_timeout(Duration::from_secs(2)));
//! let result = optimizer.optimize(&preprocessed);
//! assert!(result.best_cost < 30);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod cache;
mod matcher;
mod preprocess;
mod search;
mod service;

// The naive Algorithm 2 the unit tests compare the engine against; the
// integration suites include the same file. It names this crate
// `quartz_opt`, as they do.
#[cfg(test)]
extern crate self as quartz_opt;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use baseline::{greedy_optimize, BaselineStats};
pub use cache::{LibraryCache, LoadedLibrary};
pub use matcher::{DeltaScratch, Match, MatchContext, MatchScratch};
pub use preprocess::{
    cancel_adjacent_inverses, clifford_t_to_nam, decompose_toffolis, merge_rotations, nam_to_ibm,
    nam_to_rigetti, preprocess_ibm, preprocess_nam, preprocess_rigetti, toffoli_decomposition,
};
pub use quartz_gen::{transformations_from_ecc_set, Transformation, TransformationIndex};
pub use quartz_ir::{canonicalize, CostModel, DeltaCoster};
pub use search::{Optimizer, SearchConfig, SearchProfile, SearchResult};
pub use service::{
    AdmissionError, OptimizationService, Priority, RequestId, RequestState, RequestStatus,
    ServiceEvent, ServiceRequest, ServiceScheduler,
};
