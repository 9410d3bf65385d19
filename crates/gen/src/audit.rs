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
//!    parallelized over classes. A content-addressed *verified-cache* (the
//!    [`AuditStamp`] sidecar, keyed by a digest of the class circuits +
//!    [`GENERATOR_VERSION`] + the verifier configuration) makes re-audits
//!    of unchanged classes O(1).
//! 2. **Structural lints** — typed diagnostics ([`Diagnostic`]: rule code,
//!    severity, ecc/circuit/instruction location) for gate-set membership
//!    violations, malformed instruction shapes, dangling `ParamExpr`
//!    parameter slots, duplicate and no-op transformations, non-canonical
//!    pattern circuits, prebuilt-index anomalies, and *dead rules* that can
//!    never fire under any additive cost model (γ-precheck-unreachable).
//! 3. **Reporting** — a machine-readable JSON report (the shared
//!    [`quartz_ir::json`] codec) and a human-readable summary with an
//!    exit-code policy of "errors fail, warnings don't".
//!
//! A clean audit can be recorded as an [`AuditStamp`] sidecar next to the
//! artifact; `quartz_opt::LibraryCache` and the `quartz-serve` daemon can
//! be told to refuse artifacts without a matching stamp
//! (`--require-audited`).

use crate::json::{int, object, Node, ShapeError};
use crate::library::{checksum64, encode_circuit};
use crate::{
    transformations_from_ecc_set, Ecc, EccSet, LazyLibrary, LibraryError, Transformation,
    TransformationIndex, GENERATOR_VERSION,
};
use quartz_ir::json::{self, Json};
use quartz_ir::{canonicalize, Circuit, CostModel, GateSet};
use quartz_verify::{MemberFailure, Verifier, VerifierConfig};
use std::collections::{HashMap, HashSet};
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
    /// An instruction's operand shape is malformed: wrong qubit arity,
    /// out-of-range or duplicated qubits, or wrong parameter count.
    MalformedInstruction,
    /// A `ParamExpr` carries a coefficient vector whose length disagrees
    /// with the set's parameter count — a dangling parameter slot.
    DanglingParamIndex,
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
            RuleCode::MalformedInstruction => "E004",
            RuleCode::DanglingParamIndex => "E005",
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
    /// Verifier configuration for the semantic pass. Part of the
    /// verified-cache key: changing it invalidates every cached class.
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
    /// Number of equivalence classes in the artifact.
    pub classes: usize,
    /// Classes whose semantic verification was skipped because their
    /// digest was found in the verified-cache sidecar.
    pub cache_hits: usize,
    /// Per-class content digests (class circuits + generator version +
    /// verifier config), in payload order — the verified-cache key
    /// material for the next audit.
    pub class_digests: Vec<u64>,
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
            class_digests: self.class_digests.clone(),
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
            ("cache_hits", int(self.cache_hits)),
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
        writeln!(
            f,
            "  semantic: {} classes re-verified, verified-cache: {}/{} classes hit",
            self.classes - self.cache_hits,
            self.cache_hits,
            self.classes
        )?;
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

/// The verified-cache sidecar: a clean audit persisted next to the
/// artifact (`<artifact>.audit`).
///
/// It plays two roles (DESIGN.md §11):
///
/// * **verified-cache** — `class_digests` are the content digests of the
///   classes proven sound; a later audit skips re-verifying any class
///   whose digest it finds here. The digest covers the class circuits,
///   [`GENERATOR_VERSION`] and the verifier configuration, so a stale
///   generator or a different verifier can never produce a false hit.
/// * **audit stamp** — `quartz_opt::LibraryCache` (with `require_audited`)
///   and `quartz-serve --require-audited` refuse artifacts whose sidecar
///   is missing, recorded errors, or certifies different bytes
///   ([`AuditStamp::certifies`]).
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
    /// Content digests of the classes proven sound, in payload order.
    pub class_digests: Vec<u64>,
}

/// Schema version of the sidecar JSON.
pub const AUDIT_STAMP_SCHEMA_VERSION: u32 = 1;

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
    /// A missing, unreadable or corrupt sidecar is `None` — the audit
    /// falls back to full verification, never to trusting garbage.
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
            (
                "class_digests",
                Json::Array(self.class_digests.iter().map(|&d| hex(d)).collect()),
            ),
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
            class_digests: stamp
                .field("class_digests")?
                .items("class_digests")?
                .map(|d| parse_hex(&d))
                .collect::<Result<_, _>>()?,
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

/// The content digest of one equivalence class: a checksum over the
/// class's encoded circuits prefixed by everything the semantic verdict
/// depends on — [`GENERATOR_VERSION`], the set shape, and the verifier
/// configuration digest. Equal digests ⟹ the re-verification would
/// reproduce the recorded verdict, which is what makes sidecar hits sound.
pub fn class_digest(ecc: &Ecc, num_qubits: usize, num_params: usize, verifier_digest: u64) -> u64 {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&GENERATOR_VERSION.to_le_bytes());
    buf.extend_from_slice(&(num_qubits as u64).to_le_bytes());
    buf.extend_from_slice(&(num_params as u64).to_le_bytes());
    buf.extend_from_slice(&verifier_digest.to_le_bytes());
    for circuit in ecc.circuits() {
        encode_circuit(&mut buf, circuit);
    }
    checksum64(&buf)
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

    /// Audits a persisted artifact at `path`, using the `<path>.audit`
    /// sidecar as verified-cache when `use_cache` is set.
    ///
    /// # Errors
    ///
    /// Propagates I/O and artifact-validation errors ([`LibraryError`]) —
    /// an artifact that fails its own format checks never reaches the
    /// analysis passes (the `verify-checksum` CLI path covers that layer).
    pub fn audit_artifact(
        &self,
        path: &Path,
        use_cache: bool,
    ) -> Result<AuditReport, LibraryError> {
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
        let stamp = use_cache
            .then(|| AuditStamp::load_for(path))
            .flatten()
            .filter(|s| s.certifies(library.header().checksum, self.config.verifier.digest()));
        let mut report = self.audit_set(
            &set,
            &library.header().gate_set,
            index.as_ref(),
            stamp.as_ref(),
        );
        if let Some(d) = index_diag {
            report.diagnostics.insert(0, d);
        }
        report.artifact = path.display().to_string();
        report.artifact_checksum = library.header().checksum;
        report.generator_version = library.header().generator_version;
        Ok(report)
    }

    /// Audits an in-memory ECC set (plus, optionally, the prebuilt index
    /// that shipped with it). `cache` is the verified-cache sidecar; pass
    /// `None` to force full semantic re-verification.
    pub fn audit_set(
        &self,
        set: &EccSet,
        gate_set_name: &str,
        index: Option<&TransformationIndex>,
        cache: Option<&AuditStamp>,
    ) -> AuditReport {
        let verifier_digest = self.config.verifier.digest();
        let digests: Vec<u64> = set
            .eccs
            .iter()
            .map(|ecc| class_digest(ecc, set.num_qubits, set.num_params, verifier_digest))
            .collect();
        let cached: HashSet<u64> = cache
            .map(|s| s.class_digests.iter().copied().collect())
            .unwrap_or_default();

        let mut diagnostics = Vec::new();
        let mut cache_hits = 0usize;

        // Instruction shape lints run first: a class whose operand shapes
        // are broken (E004/E005) cannot be simulated, so the semantic pass
        // must not be pointed at it. Gate-set violations (E003) keep their
        // semantic check — an out-of-set gate still has well-defined
        // semantics.
        let instruction_diags = lint_instructions(set, gate_set_name);
        let shape_broken: HashSet<usize> = instruction_diags
            .iter()
            .filter(|d| {
                matches!(
                    d.rule,
                    RuleCode::MalformedInstruction | RuleCode::DanglingParamIndex
                )
            })
            .filter_map(|d| d.location.ecc)
            .collect();

        // Pass 1: semantic re-verification, parallel over classes. Results
        // come back in input order, so diagnostics are deterministic
        // regardless of thread count.
        // The work items own their class's circuits, so they can move into
        // pool jobs.
        let work: Vec<(usize, Vec<Circuit>)> = set
            .eccs
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                if shape_broken.contains(i) {
                    return false;
                }
                let hit = cached.contains(&digests[*i]);
                cache_hits += usize::from(hit);
                !hit
            })
            .map(|(i, ecc)| (i, ecc.circuits().to_vec()))
            .collect();
        let verifier_config = self.config.verifier.clone();
        let class_reports: Vec<(usize, quartz_verify::ClassReport)> =
            quartz_ir::par::map_in_order(work, self.config.threads, move |(i, circuits)| {
                let mut verifier = Verifier::new(verifier_config.clone());
                (i, verifier.verify_class(&circuits))
            });
        for (ecc_idx, class_report) in &class_reports {
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
                    Location::circuit(*ecc_idx, *member),
                    message,
                ));
            }
        }

        // Pass 2: structural lints.
        diagnostics.extend(instruction_diags);
        diagnostics.extend(lint_canonical_patterns(set));
        diagnostics.extend(lint_transformation_overlap(set));
        let fresh = transformations_from_ecc_set(set, true);
        if let Some(index) = index {
            diagnostics.extend(lint_prebuilt_index(index, &fresh));
        }
        diagnostics.extend(lint_dead_rules(&fresh, self.config.gamma));

        // Classes proven sound this run or by the cache are stampable; a
        // class with a semantic failure — or one the semantic pass had to
        // skip because its shape is broken — must never enter a sidecar.
        let mut unsound: HashSet<usize> = class_reports
            .iter()
            .filter(|(_, r)| !r.is_sound())
            .map(|(i, _)| *i)
            .collect();
        unsound.extend(shape_broken);
        let class_digests = digests
            .iter()
            .enumerate()
            .filter(|(i, _)| !unsound.contains(i))
            .map(|(_, d)| *d)
            .collect();

        AuditReport {
            artifact: "<in-memory>".to_string(),
            gate_set: gate_set_name.to_string(),
            artifact_checksum: 0,
            generator_version: GENERATOR_VERSION,
            verifier_digest,
            classes: set.eccs.len(),
            cache_hits,
            class_digests,
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

/// Per-instruction lints: gate-set membership, operand shape, dangling
/// parameter slots.
fn lint_instructions(set: &EccSet, gate_set_name: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let gate_set = known_gate_set(gate_set_name);
    if gate_set.is_none() {
        out.push(Diagnostic::new(
            RuleCode::UnknownGateSet,
            Location::artifact(),
            format!(
                "gate-set name \"{gate_set_name}\" is not a known set \
                 (Nam/IBM/Rigetti/CliffordT); membership lint skipped"
            ),
        ));
    }
    for (e, ecc) in set.eccs.iter().enumerate() {
        for (c, circuit) in ecc.circuits().iter().enumerate() {
            for (i, instr) in circuit.instructions().iter().enumerate() {
                let at = Location::instruction(e, c, i);
                if let Some(gs) = &gate_set {
                    if !gs.contains(instr.gate) {
                        out.push(Diagnostic::new(
                            RuleCode::GateSetViolation,
                            at,
                            format!("gate {:?} is not in the {} gate set", instr.gate, gs.name()),
                        ));
                    }
                }
                if instr.qubits.len() != instr.gate.num_qubits() {
                    out.push(Diagnostic::new(
                        RuleCode::MalformedInstruction,
                        at,
                        format!(
                            "gate {:?} takes {} qubit operand(s), found {}",
                            instr.gate,
                            instr.gate.num_qubits(),
                            instr.qubits.len()
                        ),
                    ));
                }
                if let Some(&q) = instr.qubits.iter().find(|&&q| q >= circuit.num_qubits()) {
                    out.push(Diagnostic::new(
                        RuleCode::MalformedInstruction,
                        at,
                        format!(
                            "qubit operand {q} is out of range for a {}-qubit circuit",
                            circuit.num_qubits()
                        ),
                    ));
                }
                if instr
                    .qubits
                    .iter()
                    .enumerate()
                    .any(|(a, qa)| instr.qubits[..a].contains(qa))
                {
                    out.push(Diagnostic::new(
                        RuleCode::MalformedInstruction,
                        at,
                        "duplicate qubit operand".to_string(),
                    ));
                }
                if instr.params.len() != instr.gate.num_params() {
                    out.push(Diagnostic::new(
                        RuleCode::MalformedInstruction,
                        at,
                        format!(
                            "gate {:?} takes {} parameter(s), found {}",
                            instr.gate,
                            instr.gate.num_params(),
                            instr.params.len()
                        ),
                    ));
                }
                // Coefficient vectors are length-polymorphic (shorter than
                // the declared parameter count is fine); only a *nonzero*
                // coefficient on a slot past `num_params` is dangling.
                for expr in &instr.params {
                    if let Some(slot) = expr
                        .coeffs()
                        .iter()
                        .enumerate()
                        .skip(set.num_params)
                        .find_map(|(slot, &c)| (c != 0).then_some(slot))
                    {
                        out.push(Diagnostic::new(
                            RuleCode::DanglingParamIndex,
                            at,
                            format!(
                                "parameter expression references formal parameter p{slot} \
                                 but the set declares only {}",
                                set.num_params
                            ),
                        ));
                    }
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
            class_digests: vec![0, 1, u64::MAX],
        }
    }

    #[test]
    fn stamp_json_round_trips_in_memory() {
        let stamp = sample_stamp();
        assert_eq!(AuditStamp::parse(&stamp.to_json()).unwrap(), stamp);
    }

    #[test]
    fn stamp_parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{ not json ]",
            "{\"schema_version\": 999}",
            "{\"schema_version\": 1}",
            "{\"schema_version\": 1, \"artifact_checksum\": \"0xnope\"}",
        ] {
            assert!(AuditStamp::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn stamp_parser_reads_the_pre_codec_layout() {
        // The sidecar layout of the hand-rolled writer the shared codec
        // replaced: every class digest on one line.
        let old = r#"{
  "schema_version": 1,
  "artifact_checksum": "0x32f4f60b0811aaf9",
  "generator_version": 1,
  "verifier_digest": "0x17d9e2592a3aed6f",
  "errors": 0,
  "warnings": 62,
  "class_digests": ["0x3fb3d1ce46c60fc1", "0xcbf0241afb1c85f3", "0x0bc188fd0e243b31"]
}
"#;
        let stamp = AuditStamp::parse(old).unwrap();
        assert_eq!(
            stamp,
            AuditStamp {
                artifact_checksum: 0x32f4_f60b_0811_aaf9,
                generator_version: 1,
                verifier_digest: 0x17d9_e259_2a3a_ed6f,
                errors: 0,
                warnings: 62,
                class_digests: vec![
                    0x3fb3_d1ce_46c6_0fc1,
                    0xcbf0_241a_fb1c_85f3,
                    0x0bc1_88fd_0e24_3b31
                ],
            }
        );
        // The new layout differs from the old in whitespace only.
        let strip = |s: &str| s.split_whitespace().collect::<String>();
        assert_eq!(strip(&stamp.to_json()), strip(old));
        // Shape errors are positioned at the offending value.
        let err = AuditStamp::parse(&old.replace("\"0xcbf0241afb1c85f3\"", "7")).unwrap_err();
        assert!(err.contains("line 8, column 43 (byte 214)"), "{err}");
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
            RuleCode::MalformedInstruction,
            RuleCode::DanglingParamIndex,
            RuleCode::StaleIndex,
            RuleCode::IndexDecode,
            RuleCode::DuplicateTransformation,
            RuleCode::NoOpTransformation,
            RuleCode::NonCanonicalPattern,
            RuleCode::DeadRule,
            RuleCode::UnknownGateSet,
        ];
        let codes: HashSet<&str> = all.iter().map(|r| r.code()).collect();
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
