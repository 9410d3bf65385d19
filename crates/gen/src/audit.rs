//! `quartz-audit`: whole-library soundness analysis over ECC sets and
//! persisted `QTZL` artifacts (DESIGN.md §11).
//!
//! The integrity checksum of the artifact format proves an artifact is the
//! bytes its producer wrote — it proves nothing about whether those bytes
//! encode *sound* rewrite rules. A buggy generator, a stale artifact, or a
//! hand-edited library would pass every checksum and ship unsound rewrites
//! into every search that loads it. The auditor closes that gap with three
//! passes:
//!
//! 1. **Semantic verification** — every equivalence class is re-checked
//!    with the paper's §4 decision procedure ([`quartz_verify::Verifier`]):
//!    each member against its representative, phase-factor search included,
//!    parallelized over classes, on every run.
//! 2. **Structural lints** — typed diagnostics ([`Diagnostic`]: rule code,
//!    severity, ecc/circuit/instruction location) for gate-set membership
//!    violations, duplicate and no-op transformations, non-canonical
//!    pattern circuits, prebuilt-index anomalies, and *dead rules* that can
//!    never fire under any additive cost model (γ-precheck-unreachable).
//!    Operand shapes are not linted: the artifact and JSON decoders refuse
//!    a malformed instruction before a set reaches the auditor.
//! 3. **Reporting** — a machine-readable JSON report (the shared
//!    [`quartz_ir::json`] codec) and a human-readable summary with an
//!    exit-code policy of "errors fail, warnings don't".
//!
//! A clean audit can be recorded as an [`AuditStamp`] sidecar next to the
//! artifact, certifying the whole file; `quartz_opt::LibraryCache` and the
//! `quartz-serve` daemon can be told to refuse artifacts without a
//! matching stamp (`--require-audited`).

use crate::json::{int, object, Node, ShapeError};
use crate::{
    transformations_from_ecc_set, EccSet, LazyLibrary, LibraryError, Transformation,
    TransformationIndex, GENERATOR_VERSION,
};
use quartz_ir::json::{self, Json};
use quartz_ir::{canonicalize, Circuit, CostModel, GateSet};
use quartz_verify::{MemberFailure, Verifier, VerifierConfig};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// How bad a finding is. Errors make the audit fail (exit code 1 in the
/// CLI); warnings are reported but do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not unsound: the library still optimizes correctly.
    Warning,
    /// Unsound or unusable: loading this library risks wrong results.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The audit's rule catalog. `Exxx` rules default to [`Severity::Error`],
/// `Wxxx` rules to [`Severity::Warning`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleCode {
    /// A class member is not equivalent to its representative (§4
    /// verifier verdict). The library would rewrite circuits *wrongly*.
    SemanticNotEquivalent,
    /// A semantic query was ill-formed (qubit-count mismatch,
    /// unrepresentable angle) — the class cannot even be checked.
    SemanticQueryError,
    /// An instruction uses a gate outside the artifact's declared gate set.
    GateSetViolation,
    /// The prebuilt index section disagrees with the transformation list
    /// freshly extracted from the ECC payload — the index is stale.
    StaleIndex,
    /// The prebuilt index section failed to decode or validate.
    IndexDecode,
    /// Two classes induce the same (target, rewrite) transformation up to
    /// commutation — duplicated matching work for the optimizer.
    DuplicateTransformation,
    /// A class contains two circuits equal up to commutation. Extraction
    /// drops the pair, so the member induces no transformation; the class
    /// still stores a redundant circuit.
    NoOpTransformation,
    /// A stored pattern circuit is not in canonical sequence form.
    NonCanonicalPattern,
    /// A transformation strictly increases cost under *every* additive
    /// cost model: the γ-precheck makes it unreachable (DESIGN.md §11).
    DeadRule,
    /// The artifact's gate-set name is not one of the known sets, so the
    /// gate-set membership lint was skipped.
    UnknownGateSet,
}

impl RuleCode {
    /// The stable short code used in reports (`E…` = error, `W…` =
    /// warning).
    pub fn code(&self) -> &'static str {
        match self {
            RuleCode::SemanticNotEquivalent => "E001",
            RuleCode::SemanticQueryError => "E002",
            RuleCode::GateSetViolation => "E003",
            RuleCode::StaleIndex => "E006",
            RuleCode::IndexDecode => "E007",
            RuleCode::DuplicateTransformation => "W101",
            RuleCode::NoOpTransformation => "W102",
            RuleCode::NonCanonicalPattern => "W103",
            RuleCode::DeadRule => "W104",
            RuleCode::UnknownGateSet => "W105",
        }
    }

    /// The rule's severity.
    pub fn severity(&self) -> Severity {
        if self.code().starts_with('E') {
            Severity::Error
        } else {
            Severity::Warning
        }
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Where in the artifact a finding points: class index, circuit index
/// within the class (0 = representative), instruction index within the
/// circuit. Coarser findings leave the finer fields `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Location {
    /// Index of the equivalence class in the ECC payload.
    pub ecc: Option<usize>,
    /// Index of the circuit within the class (0 is the representative).
    pub circuit: Option<usize>,
    /// Index of the instruction within the circuit.
    pub instruction: Option<usize>,
}

impl Location {
    /// A finding about the artifact as a whole.
    pub fn artifact() -> Self {
        Location::default()
    }

    /// A finding about a whole class.
    pub fn ecc(ecc: usize) -> Self {
        Location {
            ecc: Some(ecc),
            ..Location::default()
        }
    }

    /// A finding about one circuit of a class.
    pub fn circuit(ecc: usize, circuit: usize) -> Self {
        Location {
            ecc: Some(ecc),
            circuit: Some(circuit),
            instruction: None,
        }
    }

    /// A finding about one instruction of one circuit of a class.
    pub fn instruction(ecc: usize, circuit: usize, instruction: usize) -> Self {
        Location {
            ecc: Some(ecc),
            circuit: Some(circuit),
            instruction: Some(instruction),
        }
    }
}

/// The grammar here is a grep-friendly contract shared with the CI
/// seeded-mutation check: `ecc E / circuit C / instruction I`, truncated
/// at the first `None`, or `artifact` when nothing is set.
impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.ecc, self.circuit, self.instruction) {
            (Some(e), Some(c), Some(i)) => {
                write!(f, "ecc {e} / circuit {c} / instruction {i}")
            }
            (Some(e), Some(c), None) => write!(f, "ecc {e} / circuit {c}"),
            (Some(e), None, _) => write!(f, "ecc {e}"),
            _ => write!(f, "artifact"),
        }
    }
}

/// One finding: a rule, its severity, where it points, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleCode,
    /// The rule's severity (always `rule.severity()` today; kept on the
    /// diagnostic so reports stay self-describing).
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// What went wrong, in words.
    pub message: String,
}

impl Diagnostic {
    fn new(rule: RuleCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            location,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}] {}",
            self.severity, self.rule, self.location, self.message
        )
    }
}

/// Configuration of an audit run.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditConfig {
    /// Verifier configuration for the semantic pass. Its digest is
    /// recorded in the stamp, which certifies only under the same
    /// configuration.
    pub verifier: VerifierConfig,
    /// Worker threads for the parallel semantic pass (0 = all cores).
    pub threads: usize,
    /// The search's γ threshold assumed by the dead-rule lint: a rule
    /// whose cost delta is positive under every additive model cannot
    /// fire while the incumbent best cost is below `1 / (γ − 1)`.
    pub gamma: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            verifier: VerifierConfig::default(),
            threads: 0,
            // The optimizer's default γ (SearchConfig::default): admits
            // cost-preserving rewrites, rejects cost-increasing ones until
            // the incumbent best exceeds 1/(γ−1) = 10_000 gates.
            gamma: 1.0001,
        }
    }
}

/// The outcome of auditing one artifact (or in-memory ECC set).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Label of the audited artifact (its path, for file audits).
    pub artifact: String,
    /// Gate-set name recorded in the artifact header.
    pub gate_set: String,
    /// The artifact checksum (0 for in-memory audits without a header).
    pub artifact_checksum: u64,
    /// Generator version recorded in the artifact header.
    pub generator_version: u32,
    /// Digest of the verifier configuration used by the semantic pass.
    pub verifier_digest: u64,
    /// Number of equivalence classes in the artifact, all re-verified.
    pub classes: usize,
    /// Every finding, semantic and structural.
    pub diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether the audit passed (no errors; warnings are allowed).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// The sidecar stamp certifying this audit, for
    /// [`AuditStamp::save_for`]. Only clean audits produce a stamp.
    pub fn stamp(&self) -> Option<AuditStamp> {
        self.is_clean().then(|| AuditStamp {
            artifact_checksum: self.artifact_checksum,
            generator_version: self.generator_version,
            verifier_digest: self.verifier_digest,
            errors: self.errors(),
            warnings: self.warnings(),
        })
    }

    /// The machine-readable JSON form of the report (pretty-printed by the
    /// shared [`quartz_ir::json`] codec). 64-bit digests are hex strings so
    /// no consumer is tempted to round-trip them through a double.
    pub fn to_json(&self) -> String {
        let location = |v: Option<usize>| v.map_or(Json::Null, int);
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|d| {
                object([
                    ("rule", Json::Str(d.rule.to_string())),
                    ("severity", Json::Str(d.severity.to_string())),
                    ("ecc", location(d.location.ecc)),
                    ("circuit", location(d.location.circuit)),
                    ("instruction", location(d.location.instruction)),
                    ("message", Json::Str(d.message.clone())),
                ])
            })
            .collect();
        object([
            ("artifact", Json::Str(self.artifact.clone())),
            ("gate_set", Json::Str(self.gate_set.clone())),
            ("artifact_checksum", hex(self.artifact_checksum)),
            (
                "generator_version",
                Json::Int(self.generator_version.into()),
            ),
            ("verifier_digest", hex(self.verifier_digest)),
            ("classes", int(self.classes)),
            ("errors", int(self.errors())),
            ("warnings", int(self.warnings())),
            ("diagnostics", Json::Array(diagnostics)),
        ])
        .pretty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit of {} (gate set {}, {} classes, checksum {:#018x})",
            self.artifact, self.gate_set, self.classes, self.artifact_checksum
        )?;
        writeln!(f, "  semantic: {} classes re-verified", self.classes)?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        write!(
            f,
            "result: {} ({} errors, {} warnings)",
            if self.is_clean() { "PASS" } else { "FAIL" },
            self.errors(),
            self.warnings()
        )
    }
}

/// The audit stamp: a certificate for a whole artifact, persisted next to
/// it as `<artifact>.audit` (DESIGN.md §11.2).
///
/// It records what the clean audit ran over — the artifact checksum, the
/// generator version and the verifier-configuration digest — and the
/// audit's error and warning counts. No audit reads it back:
/// `quartz_opt::LibraryCache` (with `require_audited`) and
/// `quartz-serve --require-audited` refuse artifacts whose sidecar is
/// missing, recorded errors, or certifies different bytes
/// ([`AuditStamp::certifies`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditStamp {
    /// Checksum of the artifact the audit ran over.
    pub artifact_checksum: u64,
    /// Generator version of the audited artifact.
    pub generator_version: u32,
    /// Digest of the verifier configuration the semantic pass used.
    pub verifier_digest: u64,
    /// Error count of the recorded audit (0 for stamps written by
    /// [`AuditReport::stamp`]).
    pub errors: usize,
    /// Warning count of the recorded audit.
    pub warnings: usize,
}

/// Schema version of the sidecar JSON. Schema 1 also listed one digest per
/// class and is refused.
pub const AUDIT_STAMP_SCHEMA_VERSION: u32 = 2;

impl AuditStamp {
    /// The sidecar path for an artifact: `<artifact>.audit`.
    pub fn sidecar_path(artifact: &Path) -> PathBuf {
        let mut os = artifact.as_os_str().to_os_string();
        os.push(".audit");
        PathBuf::from(os)
    }

    /// Whether this stamp certifies the artifact with the given checksum
    /// under the given verifier configuration digest: the recorded audit
    /// was clean, ran over exactly these bytes, and used the same
    /// generator version and verifier configuration.
    pub fn certifies(&self, artifact_checksum: u64, verifier_digest: u64) -> bool {
        self.errors == 0
            && self.artifact_checksum == artifact_checksum
            && self.generator_version == GENERATOR_VERSION
            && self.verifier_digest == verifier_digest
    }

    /// Loads the sidecar for `artifact`, if present and well-formed.
    /// A missing, unreadable, corrupt or schema-1 sidecar is `None`: it
    /// certifies nothing.
    pub fn load_for(artifact: &Path) -> Option<AuditStamp> {
        let text = std::fs::read_to_string(Self::sidecar_path(artifact)).ok()?;
        Self::parse(&text).ok()
    }

    /// Writes the sidecar next to `artifact`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file write error.
    pub fn save_for(&self, artifact: &Path) -> std::io::Result<()> {
        std::fs::write(Self::sidecar_path(artifact), self.to_json())
    }

    /// The sidecar JSON (pretty-printed; 64-bit values as hex strings).
    pub fn to_json(&self) -> String {
        object([
            (
                "schema_version",
                Json::Int(AUDIT_STAMP_SCHEMA_VERSION.into()),
            ),
            ("artifact_checksum", hex(self.artifact_checksum)),
            (
                "generator_version",
                Json::Int(self.generator_version.into()),
            ),
            ("verifier_digest", hex(self.verifier_digest)),
            ("errors", int(self.errors)),
            ("warnings", int(self.warnings)),
        ])
        .pretty()
    }

    /// Parses sidecar JSON produced by [`AuditStamp::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct, with the
    /// line, column and byte offset of the offending value.
    pub fn parse(text: &str) -> Result<AuditStamp, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        Self::decode(Node::root(&value)).map_err(|e| e.render(text))
    }

    fn decode(stamp: Node<'_>) -> Result<AuditStamp, ShapeError> {
        stamp.object("sidecar")?;
        let schema = stamp.field("schema_version")?;
        let schema_version = schema.usize("schema_version")?;
        if schema_version != AUDIT_STAMP_SCHEMA_VERSION as usize {
            return Err(schema.error(format!(
                "unsupported sidecar schema version {schema_version}"
            )));
        }
        let generator = stamp.field("generator_version")?;
        Ok(AuditStamp {
            artifact_checksum: parse_hex(&stamp.field("artifact_checksum")?)?,
            generator_version: u32::try_from(generator.usize("generator_version")?)
                .map_err(|_| generator.error("generator_version out of range"))?,
            verifier_digest: parse_hex(&stamp.field("verifier_digest")?)?,
            errors: stamp.field("errors")?.usize("errors")?,
            warnings: stamp.field("warnings")?.usize("warnings")?,
        })
    }
}

/// A 64-bit value as a `0x`-prefixed, zero-padded hex string.
fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#018x}"))
}

fn parse_hex(node: &Node<'_>) -> Result<u64, ShapeError> {
    let s = node.str("digest")?;
    s.strip_prefix("0x")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| node.error(format!("expected a 0x-prefixed hex value, got {s:?}")))
}

/// The multi-pass analyzer. Construct once, audit any number of sets or
/// artifacts.
#[derive(Debug, Clone, Default)]
pub struct Auditor {
    config: AuditConfig,
}

impl Auditor {
    /// Creates an auditor with the given configuration.
    pub fn new(config: AuditConfig) -> Self {
        Auditor { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// Audits the persisted artifact at `path`, re-verifying every class.
    ///
    /// # Errors
    ///
    /// Propagates I/O and artifact-validation errors ([`LibraryError`]) —
    /// an artifact that fails its own format checks (the checksum, or a
    /// payload circuit the decoder refuses) never reaches the analysis
    /// passes.
    pub fn audit_artifact(&self, path: &Path) -> Result<AuditReport, LibraryError> {
        let library = LazyLibrary::open(path)?;
        let set = library.ecc_set()?;
        // An undecodable prebuilt index is a *finding*, not an abort: the
        // payload can still be fully audited.
        let (index, index_diag) = match library.index() {
            Ok(index) => (index, None),
            Err(e) => (
                None,
                Some(Diagnostic::new(
                    RuleCode::IndexDecode,
                    Location::artifact(),
                    format!("prebuilt index section failed to decode: {e}"),
                )),
            ),
        };
        let mut report = self.audit_set(&set, &library.header().gate_set, index.as_ref());
        if let Some(d) = index_diag {
            report.diagnostics.insert(0, d);
        }
        report.artifact = path.display().to_string();
        report.artifact_checksum = library.header().checksum;
        report.generator_version = library.header().generator_version;
        Ok(report)
    }

    /// Audits an in-memory ECC set (plus, optionally, the prebuilt index
    /// that shipped with it), re-verifying every class. Operand shapes are
    /// taken as given: `Instruction::new`, `Circuit::push` and both
    /// decoders refuse malformed ones.
    pub fn audit_set(
        &self,
        set: &EccSet,
        gate_set_name: &str,
        index: Option<&TransformationIndex>,
    ) -> AuditReport {
        // Pass 1: semantic re-verification, parallel over classes. Each
        // pool job owns one contiguous chunk of classes and checks them
        // with one `Verifier`, whose gate-matrix memo stays warm across the
        // chunk. Chunks come back in order, so diagnostics do not depend on
        // the thread count.
        let threads = match self.config.threads {
            0 => quartz_ir::par::available_threads(),
            n => n,
        };
        let chunk_len = set.eccs.len().div_ceil(threads).max(1);
        let chunks: Vec<Vec<Vec<Circuit>>> = set
            .eccs
            .chunks(chunk_len)
            .map(|chunk| chunk.iter().map(|ecc| ecc.circuits().to_vec()).collect())
            .collect();
        let verifier_config = self.config.verifier.clone();
        let class_reports = quartz_ir::par::map_in_order(chunks, threads, move |chunk| {
            let mut verifier = Verifier::new(verifier_config.clone());
            chunk
                .iter()
                .map(|circuits| verifier.verify_class(circuits))
                .collect::<Vec<_>>()
        });
        let mut diagnostics = Vec::new();
        for (ecc_idx, class_report) in class_reports.iter().flatten().enumerate() {
            for (member, failure) in &class_report.failures {
                let (rule, message) = match failure {
                    MemberFailure::NotEquivalent => (
                        RuleCode::SemanticNotEquivalent,
                        format!(
                            "circuit {member} is not equivalent to the representative \
                             of class {ecc_idx}"
                        ),
                    ),
                    MemberFailure::Error(e) => (
                        RuleCode::SemanticQueryError,
                        format!("circuit {member} of class {ecc_idx} cannot be verified: {e}"),
                    ),
                };
                diagnostics.push(Diagnostic::new(
                    rule,
                    Location::circuit(ecc_idx, *member),
                    message,
                ));
            }
        }

        // Pass 2: structural lints.
        diagnostics.extend(lint_gate_set(set, gate_set_name));
        diagnostics.extend(lint_canonical_patterns(set));
        diagnostics.extend(lint_transformation_overlap(set));
        let fresh = transformations_from_ecc_set(set, true);
        if let Some(index) = index {
            diagnostics.extend(lint_prebuilt_index(index, &fresh));
        }
        diagnostics.extend(lint_dead_rules(&fresh, self.config.gamma));

        AuditReport {
            artifact: "<in-memory>".to_string(),
            gate_set: gate_set_name.to_string(),
            artifact_checksum: 0,
            generator_version: GENERATOR_VERSION,
            verifier_digest: self.config.verifier.digest(),
            classes: set.eccs.len(),
            diagnostics,
        }
    }
}

/// Resolves a header gate-set name to one of the known gate sets
/// (case-insensitive). `None` for unknown names.
fn known_gate_set(name: &str) -> Option<GateSet> {
    [
        GateSet::nam(),
        GateSet::ibm(),
        GateSet::rigetti(),
        GateSet::clifford_t(),
    ]
    .into_iter()
    .find(|gs| gs.name().eq_ignore_ascii_case(name))
}

/// Gate-set membership of every instruction (`E003`), or a single `W105`
/// when the artifact's gate-set name is not a known set.
fn lint_gate_set(set: &EccSet, gate_set_name: &str) -> Vec<Diagnostic> {
    let Some(gate_set) = known_gate_set(gate_set_name) else {
        return vec![Diagnostic::new(
            RuleCode::UnknownGateSet,
            Location::artifact(),
            format!(
                "gate-set name \"{gate_set_name}\" is not a known set \
                 (Nam/IBM/Rigetti/CliffordT); membership lint skipped"
            ),
        )];
    };
    let mut out = Vec::new();
    for (e, ecc) in set.eccs.iter().enumerate() {
        for (c, circuit) in ecc.circuits().iter().enumerate() {
            for (i, instr) in circuit.instructions().iter().enumerate() {
                if !gate_set.contains(instr.gate) {
                    out.push(Diagnostic::new(
                        RuleCode::GateSetViolation,
                        Location::instruction(e, c, i),
                        format!(
                            "gate {:?} is not in the {} gate set",
                            instr.gate,
                            gate_set.name()
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Stored pattern circuits must be in canonical sequence form: the
/// optimizer canonicalizes every circuit it deduplicates, so a
/// non-canonical stored pattern indicates a generator that disagrees with
/// the search about circuit identity.
fn lint_canonical_patterns(set: &EccSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (e, ecc) in set.eccs.iter().enumerate() {
        for (c, circuit) in ecc.circuits().iter().enumerate() {
            if &canonicalize(circuit) != circuit {
                out.push(Diagnostic::new(
                    RuleCode::NonCanonicalPattern,
                    Location::circuit(e, c),
                    "stored circuit is not the lexicographically smallest topological \
                     order of its DAG"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// Cross-class duplicate and within-class no-op transformation lints,
/// both up to commutation (canonical form).
fn lint_transformation_overlap(set: &EccSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen: HashMap<(Circuit, Circuit), usize> = HashMap::new();
    for (e, ecc) in set.eccs.iter().enumerate() {
        let canon: Vec<Circuit> = ecc.circuits().iter().map(canonicalize).collect();
        let rep = &canon[0];
        for (c, member) in canon.iter().enumerate().skip(1) {
            if member == rep {
                out.push(Diagnostic::new(
                    RuleCode::NoOpTransformation,
                    Location::circuit(e, c),
                    "circuit equals the representative up to commutation; it induces no \
                     transformation"
                        .to_string(),
                ));
                continue;
            }
            for (target, rewrite) in [(member, rep), (rep, member)] {
                if target.is_empty() {
                    continue;
                }
                let key = (target.clone(), rewrite.clone());
                match seen.get(&key) {
                    Some(&first) if first != e => {
                        out.push(Diagnostic::new(
                            RuleCode::DuplicateTransformation,
                            Location::circuit(e, c),
                            format!(
                                "class induces a transformation already induced by \
                                 class {first} (identical up to commutation)"
                            ),
                        ));
                    }
                    Some(_) => {}
                    None => {
                        seen.insert(key, e);
                    }
                }
            }
        }
    }
    out
}

/// The prebuilt index must hold exactly the transformation list the
/// payload induces today. A mismatch means the index was built by a
/// different pipeline than the payload claims — the search would silently
/// miss or misapply rules.
fn lint_prebuilt_index(index: &TransformationIndex, fresh: &[Transformation]) -> Vec<Diagnostic> {
    let stored = index.transformations();
    if stored == fresh {
        return Vec::new();
    }
    let difference = if stored.len() != fresh.len() {
        format!(
            "prebuilt index stores {} transformation(s) but the ECC payload induces {}",
            stored.len(),
            fresh.len()
        )
    } else {
        let (rule, (was, now)) = stored
            .iter()
            .zip(fresh)
            .enumerate()
            .find(|(_, (was, now))| was != now)
            .expect("equal-length rule lists that differ differ at some rule");
        let sizes = |t: &Transformation| (t.target.gate_count(), t.rewrite.gate_count());
        format!(
            "prebuilt index and the ECC payload both hold {} transformation(s) but first \
             differ at rule {rule}: (target, rewrite) gate counts {:?} in the index, {:?} \
             induced by the payload",
            stored.len(),
            sizes(was),
            sizes(now)
        )
    };
    vec![Diagnostic::new(
        RuleCode::StaleIndex,
        Location::artifact(),
        format!("{difference}; the index is stale relative to its own payload"),
    )]
}

/// Dead-rule analysis (DESIGN.md §11): the search admits a candidate only
/// when `cost < γ · best`, and a candidate's cost is at least
/// `best + Δ` for a rewrite with additive cost delta Δ. So a rule with
/// Δ ≥ 1 under a model cannot fire while `best < Δ / (γ − 1)` — with the
/// default γ = 1.0001, not until the incumbent best cost exceeds 10 000
/// gates. A rule whose delta is positive under *every* additive model is
/// unreachable in any additive-model search at realistic scales; it is
/// dead weight in the artifact.
fn lint_dead_rules(xforms: &[Transformation], gamma: f64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let additive_cost = |model: CostModel, circuit: &Circuit| -> isize {
        circuit
            .instructions()
            .iter()
            .map(|i| {
                model
                    .instruction_cost(i)
                    .expect("CostModel::ADDITIVE models cost every instruction")
                    as isize
            })
            .sum()
    };
    let horizon = if gamma > 1.0 {
        (1.0 / (gamma - 1.0)).round() as i64
    } else {
        i64::MAX
    };
    for (id, xform) in xforms.iter().enumerate() {
        let deltas: Vec<(CostModel, isize)> = CostModel::ADDITIVE
            .iter()
            .map(|&m| {
                (
                    m,
                    additive_cost(m, &xform.rewrite) - additive_cost(m, &xform.target),
                )
            })
            .collect();
        if deltas.iter().all(|&(_, d)| d > 0) {
            let detail: Vec<String> = deltas.iter().map(|(m, d)| format!("{m:?}: +{d}")).collect();
            out.push(Diagnostic::new(
                RuleCode::DeadRule,
                Location::artifact(),
                format!(
                    "transformation {id} increases cost under every additive model \
                     ({}); with γ = {gamma} it cannot fire until the incumbent best \
                     cost exceeds {horizon}",
                    detail.join(", ")
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stamp() -> AuditStamp {
        AuditStamp {
            artifact_checksum: 0xDEAD_BEEF_0BAD_F00D,
            generator_version: GENERATOR_VERSION,
            verifier_digest: 0x0123_4567_89AB_CDEF,
            errors: 0,
            warnings: 3,
        }
    }

    #[test]
    fn stamp_json_round_trips_in_memory() {
        let stamp = sample_stamp();
        assert_eq!(AuditStamp::parse(&stamp.to_json()).unwrap(), stamp);
    }

    #[test]
    fn stamp_parser_rejects_malformed_input() {
        // A sidecar at schema 1 is refused by its version alone, with the
        // error positioned at the version value.
        let schema_1 = r#"{
  "schema_version": 1,
  "artifact_checksum": "0x32f4f60b0811aaf9",
  "generator_version": 2,
  "verifier_digest": "0x17d9e2592a3aed6f",
  "errors": 0,
  "warnings": 62
}
"#;
        let err = AuditStamp::parse(schema_1).unwrap_err();
        assert!(
            err.contains("unsupported sidecar schema version 1")
                && err.contains("line 2, column 21 (byte 22)"),
            "{err}"
        );
        for bad in [
            "",
            "{",
            "{ not json ]",
            "{\"schema_version\": 999}",
            "{\"schema_version\": 2}",
            "{\"schema_version\": 2, \"artifact_checksum\": \"0xnope\"}",
            schema_1,
        ] {
            assert!(AuditStamp::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn certification_requires_clean_matching_stamp() {
        let stamp = sample_stamp();
        assert!(stamp.certifies(stamp.artifact_checksum, stamp.verifier_digest));
        assert!(!stamp.certifies(stamp.artifact_checksum + 1, stamp.verifier_digest));
        assert!(!stamp.certifies(stamp.artifact_checksum, stamp.verifier_digest + 1));
        let failed = AuditStamp {
            errors: 1,
            ..sample_stamp()
        };
        assert!(!failed.certifies(failed.artifact_checksum, failed.verifier_digest));
    }

    #[test]
    fn location_display_is_the_grep_contract() {
        assert_eq!(Location::artifact().to_string(), "artifact");
        assert_eq!(Location::ecc(3).to_string(), "ecc 3");
        assert_eq!(Location::circuit(3, 1).to_string(), "ecc 3 / circuit 1");
        assert_eq!(
            Location::instruction(3, 1, 7).to_string(),
            "ecc 3 / circuit 1 / instruction 7"
        );
    }

    #[test]
    fn rule_codes_are_unique_and_severity_follows_the_prefix() {
        let all = [
            RuleCode::SemanticNotEquivalent,
            RuleCode::SemanticQueryError,
            RuleCode::GateSetViolation,
            RuleCode::StaleIndex,
            RuleCode::IndexDecode,
            RuleCode::DuplicateTransformation,
            RuleCode::NoOpTransformation,
            RuleCode::NonCanonicalPattern,
            RuleCode::DeadRule,
            RuleCode::UnknownGateSet,
        ];
        let codes: std::collections::HashSet<&str> = all.iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), all.len());
        for rule in all {
            let expected = if rule.code().starts_with('E') {
                Severity::Error
            } else {
                Severity::Warning
            };
            assert_eq!(rule.severity(), expected, "{rule}");
        }
    }
}
