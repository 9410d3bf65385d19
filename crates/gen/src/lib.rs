//! # quartz-gen
//!
//! The circuit generator of the Quartz superoptimizer reproduction:
//! the RepGen algorithm (paper §3), equivalent circuit classes, the pruning
//! passes of §5, and the *persisted transformation library* layer that makes
//! generation a one-time offline cost.
//!
//! * [`Generator`] runs Algorithm 1 for a gate set, producing an
//!   (n, q)-complete [`EccSet`] together with [`GenStats`] (the metrics of
//!   paper Tables 5, 6 and 8).
//! * [`prune`] applies ECC simplification and common-subcircuit pruning.
//! * [`transformations_from_ecc_set`] extracts the optimizer's rewrite-rule
//!   list from a set, and [`TransformationIndex`] holds that list and its
//!   [`MatchAutomaton`], which compiles the target patterns into one prefix
//!   tree that the search walks whole on every dequeue (DESIGN.md §2.6).
//! * [`Library`] persists a set — and optionally its rule list — as a
//!   versioned, checksummed `QTZL` binary artifact (DESIGN.md §7) that
//!   loads in milliseconds; the `quartz-lib` CLI
//!   (`cargo run -p quartz-gen --bin quartz-lib`) packs, inspects and
//!   verifies artifacts.
//! * [`LazyLibrary`] is the one reader of artifacts (DESIGN.md §12): it
//!   reads the file once, checks the one checksum over every byte at open,
//!   and decodes the ECC payload or the index section only when asked.
//!   Every library is one whole artifact read through it.
//! * [`count_possible_circuits`] computes the brute-force sequence counts the
//!   paper compares against in Table 6.
//!
//! # Example
//!
//! ```
//! use quartz_gen::{Generator, GenConfig, prune, Library};
//! use quartz_ir::GateSet;
//!
//! let (ecc_set, stats) = Generator::new(
//!     GateSet::nam(),
//!     GenConfig::standard(2, 2, 1),
//! ).run();
//! let (pruned, prune_stats) = prune(&ecc_set);
//! assert!(pruned.num_transformations() <= ecc_set.num_transformations());
//! assert!(stats.circuits_considered > 0);
//! assert!(prune_stats.circuits_before >= prune_stats.circuits_after_common_subcircuit);
//!
//! // Persist the pruned set (plus its rule list) as a binary
//! // artifact and load it back without regenerating anything.
//! let artifact = Library::new(GateSet::nam().name(), pruned.clone(), true).to_bytes();
//! let loaded = Library::from_bytes(&artifact).unwrap();
//! assert_eq!(loaded.ecc_set(), &pruned);
//! assert!(loaded.index().is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
mod automaton;
mod count;
mod ecc;
mod index;
mod json;
mod lazy;
mod library;
mod prune;
mod repgen;
mod xform;

pub use audit::{
    AuditConfig, AuditReport, AuditStamp, Auditor, Diagnostic, Location, RuleCode, Severity,
};
pub use automaton::{AutomatonNode, MatchAutomaton, RuleLabels};
pub use count::{count_possible_circuits, count_sequences_by_size};
pub use ecc::{Ecc, EccSet};
pub use index::{IndexScratch, TransformationIndex};
pub use lazy::LazyLibrary;
pub use library::{
    artifact_checksum, checksum64, path_io_error, Library, LibraryError, LibraryHeader,
    FORMAT_VERSION, GENERATOR_VERSION, HEADER_LEN, MAGIC,
};
pub use prune::{prune, prune_common_subcircuits, simplify_eccs, PruneStats};
pub use repgen::{GenConfig, GenStats, Generator};
pub use xform::{transformations_from_ecc_set, Transformation};
