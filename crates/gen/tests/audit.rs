//! Integration tests for the `quartz-audit` static analyzer (DESIGN.md
//! §11): semantic re-verification, the structural lints, and the sidecar
//! stamp that certifies a clean audit of a whole artifact.

use quartz_gen::{
    AuditConfig, AuditStamp, Auditor, Ecc, EccSet, Library, RuleCode, Severity, GENERATOR_VERSION,
};
use quartz_ir::{Circuit, Gate, Instruction};
use std::path::PathBuf;

fn instr(gate: Gate, qubits: &[usize]) -> Instruction {
    Instruction::new(gate, qubits.to_vec(), vec![])
}

/// A minimal sound set over Nam gates: HH = identity. Audits clean (no
/// errors, no warnings).
fn clean_set() -> EccSet {
    let mut hh = Circuit::new(2, 0);
    hh.push(instr(Gate::H, &[0]));
    hh.push(instr(Gate::H, &[0]));
    let mut set = EccSet::new(2, 0);
    set.eccs.push(Ecc::new(vec![hh, Circuit::new(2, 0)]));
    set
}

fn codes(report: &quartz_gen::AuditReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.rule.code()).collect()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("quartz_audit_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn clean_set_audits_clean() {
    let report = Auditor::default().audit_set(&clean_set(), "Nam", None);
    assert_eq!(report.classes, 1);
    assert!(report.is_clean(), "unexpected findings: {report}");
    assert_eq!(report.warnings(), 0);
}

#[test]
fn stamp_json_round_trips() {
    let report = Auditor::default().audit_set(&clean_set(), "Nam", None);
    let stamp = report.stamp().expect("clean audit produces a stamp");
    let back = AuditStamp::parse(&stamp.to_json()).expect("stamp JSON parses");
    assert_eq!(back, stamp);
    assert!(back.certifies(report.artifact_checksum, report.verifier_digest));
}

#[test]
fn semantic_corruption_is_caught_with_a_located_diagnostic() {
    // CNOT(0,1) and CNOT(1,0) are inequivalent; the class claims otherwise.
    let mut set = EccSet::new(2, 0);
    set.eccs.push(Ecc::new(vec![
        {
            let mut c = Circuit::new(2, 0);
            c.push(instr(Gate::Cnot, &[0, 1]));
            c
        },
        {
            let mut c = Circuit::new(2, 0);
            c.push(instr(Gate::Cnot, &[1, 0]));
            c
        },
    ]));
    let report = Auditor::default().audit_set(&set, "Nam", None);
    assert!(!report.is_clean());
    let e001 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleCode::SemanticNotEquivalent)
        .expect("the corrupted member is flagged");
    assert_eq!(e001.severity, Severity::Error);
    assert_eq!(e001.location.to_string(), "ecc 0 / circuit 1");
    // An unsound class never certifies into a stamp.
    assert!(report.stamp().is_none());
    // The machine-readable report names the rule.
    assert!(report.to_json().contains("\"E001\""));
}

#[test]
fn gate_set_violation_is_flagged_per_instruction() {
    // Ccx is not a Nam gate — but it is still simulable, so the semantic
    // pass runs and the class itself is sound (CCX·CCX = I).
    let mut ccxccx = Circuit::new(3, 0);
    ccxccx.push(instr(Gate::Ccx, &[0, 1, 2]));
    ccxccx.push(instr(Gate::Ccx, &[0, 1, 2]));
    let mut set = EccSet::new(3, 0);
    set.eccs.push(Ecc::new(vec![ccxccx, Circuit::new(3, 0)]));
    let report = Auditor::default().audit_set(&set, "Nam", None);
    let violations: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == RuleCode::GateSetViolation)
        .collect();
    assert_eq!(violations.len(), 2, "{report}");
    // The empty circuit sorts first, so the CCX pair is circuit 1.
    assert_eq!(
        violations[0].location.to_string(),
        "ecc 0 / circuit 1 / instruction 0"
    );
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.rule == RuleCode::SemanticNotEquivalent));
}

#[test]
fn unknown_gate_set_name_downgrades_membership_lint_to_a_warning() {
    let report = Auditor::default().audit_set(&clean_set(), "frobnicate", None);
    assert!(report.is_clean());
    assert_eq!(codes(&report), vec!["W105"]);
}

#[test]
fn duplicate_and_noop_and_noncanonical_lints_fire() {
    let mut h01 = Circuit::new(2, 0);
    h01.push(instr(Gate::H, &[0]));
    h01.push(instr(Gate::H, &[1]));
    let mut h10 = Circuit::new(2, 0);
    h10.push(instr(Gate::H, &[1]));
    h10.push(instr(Gate::H, &[0]));

    let mut hh = Circuit::new(2, 0);
    hh.push(instr(Gate::H, &[0]));
    hh.push(instr(Gate::H, &[0]));

    let mut set = EccSet::new(2, 0);
    // Class 0: the same circuit stored twice up to commutation — one copy
    // non-canonical — induces no transformation (W102) and is a
    // non-canonical pattern (W103).
    set.eccs.push(Ecc::new(vec![h01, h10]));
    // Classes 1 and 2 are identical, so class 2 re-induces class 1's
    // transformations (W101).
    set.eccs
        .push(Ecc::new(vec![hh.clone(), Circuit::new(2, 0)]));
    set.eccs.push(Ecc::new(vec![hh, Circuit::new(2, 0)]));

    let report = Auditor::default().audit_set(&set, "Nam", None);
    assert!(report.is_clean(), "only warnings expected: {report}");
    let fired: std::collections::HashSet<&str> = codes(&report).into_iter().collect();
    assert!(fired.contains("W101"), "{report}");
    assert!(fired.contains("W102"), "{report}");
    assert!(fired.contains("W103"), "{report}");
    let w102 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleCode::NoOpTransformation)
        .unwrap();
    assert_eq!(w102.severity, Severity::Warning);
    assert!(
        w102.message.contains("induces no transformation"),
        "{}",
        w102.message
    );
}

#[test]
fn dead_rules_under_every_additive_model_are_flagged() {
    // T ≡ CNOT · T⁹ · CNOT (T⁸ = I exactly, and T on the control commutes
    // with CNOT). The rep→member direction strictly increases gate count
    // (+10), multi-qubit count (+2), and T count (+8) — unreachable under
    // any additive model with γ = 1.0001 until best cost exceeds 10 000.
    let mut rep = Circuit::new(2, 0);
    rep.push(instr(Gate::T, &[0]));
    let mut member = Circuit::new(2, 0);
    member.push(instr(Gate::Cnot, &[0, 1]));
    for _ in 0..9 {
        member.push(instr(Gate::T, &[0]));
    }
    member.push(instr(Gate::Cnot, &[0, 1]));
    let mut set = EccSet::new(2, 0);
    set.eccs.push(Ecc::new(vec![rep, member]));

    let report = Auditor::default().audit_set(&set, "CliffordT", None);
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error),
        "the class is semantically sound: {report}"
    );
    let dead: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == RuleCode::DeadRule)
        .collect();
    assert_eq!(dead.len(), 1, "{report}");
    assert!(dead[0].message.contains("10000"), "{}", dead[0].message);
}

#[test]
fn stale_prebuilt_index_is_flagged() {
    let set = clean_set();
    // An index built from a *different* set: one extra class.
    let mut other = clean_set();
    let mut xx = Circuit::new(2, 0);
    xx.push(instr(Gate::X, &[0]));
    xx.push(instr(Gate::X, &[0]));
    other.eccs.push(Ecc::new(vec![xx, Circuit::new(2, 0)]));
    let stale = quartz_gen::TransformationIndex::new(quartz_gen::transformations_from_ecc_set(
        &other, true,
    ));
    let report = Auditor::default().audit_set(&set, "Nam", Some(&stale));
    let e006 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleCode::StaleIndex)
        .expect("stale index is flagged");
    assert_eq!(e006.severity, Severity::Error);
    assert_eq!(e006.location.to_string(), "artifact");

    // An index packed before extraction dropped self-rewrites: the class
    // {H0;H1, H1;H0} is one DAG stored twice, so today's payload induces
    // no rule from it, but the stale index still carries both directions.
    let mut h01 = Circuit::new(2, 0);
    h01.push(instr(Gate::H, &[0]));
    h01.push(instr(Gate::H, &[1]));
    let mut h10 = Circuit::new(2, 0);
    h10.push(instr(Gate::H, &[1]));
    h10.push(instr(Gate::H, &[0]));
    let mut set = clean_set();
    set.eccs.push(Ecc::new(vec![h01.clone(), h10.clone()]));
    let mut old_rules = quartz_gen::transformations_from_ecc_set(&set, true);
    assert_eq!(old_rules.len(), 1, "only HH → empty survives extraction");
    for (target, rewrite) in [(h10.clone(), h01.clone()), (h01, h10)] {
        old_rules.push(quartz_gen::Transformation { target, rewrite });
    }
    let stale = quartz_gen::TransformationIndex::new(old_rules);
    let report = Auditor::default().audit_set(&set, "Nam", Some(&stale));
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == RuleCode::StaleIndex && d.severity == Severity::Error),
        "an index carrying self-rewriting rules is stale: {report}"
    );
}

/// A stale index holding as many rules as the payload induces: `E006`
/// names the first rule that differs and the gate counts of both sides.
#[test]
fn stale_index_of_equal_length_names_the_first_differing_rule() {
    let set = clean_set();
    let fresh = quartz_gen::transformations_from_ecc_set(&set, true);
    assert_eq!(fresh.len(), 1, "HH → empty");
    let mut xx = Circuit::new(2, 0);
    xx.push(instr(Gate::X, &[1]));
    xx.push(instr(Gate::X, &[1]));
    let stale = quartz_gen::TransformationIndex::new(vec![quartz_gen::Transformation {
        target: fresh[0].target.clone(),
        rewrite: xx,
    }]);
    let report = Auditor::default().audit_set(&set, "Nam", Some(&stale));
    let e006 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleCode::StaleIndex)
        .expect("stale index is flagged");
    assert_eq!(
        e006.message,
        "prebuilt index and the ECC payload both hold 1 transformation(s) but first differ \
         at rule 0: (target, rewrite) gate counts (2, 2) in the index, (2, 0) induced by \
         the payload; the index is stale relative to its own payload"
    );
}

/// Every audit re-verifies every class; the sidecar a clean audit writes
/// certifies exactly the bytes it ran over.
#[test]
fn artifact_audit_end_to_end_with_sidecar_cache() {
    let path = temp_path("roundtrip.qtzl");
    Library::new("Nam", clean_set(), true).save(&path).unwrap();
    let _ = std::fs::remove_file(AuditStamp::sidecar_path(&path));

    let auditor = Auditor::new(AuditConfig::default());
    let first = auditor.audit_artifact(&path).unwrap();
    assert!(first.is_clean(), "{first}");
    assert_eq!(first.generator_version, GENERATOR_VERSION);

    first.stamp().unwrap().save_for(&path).unwrap();
    let stamp = AuditStamp::load_for(&path).expect("the sidecar just written loads");
    assert!(stamp.certifies(first.artifact_checksum, first.verifier_digest));

    // Re-packing different content under the same path makes the stamp
    // stale: it certifies the old checksum only.
    let mut grown = clean_set();
    let mut xx = Circuit::new(2, 0);
    xx.push(instr(Gate::X, &[0]));
    xx.push(instr(Gate::X, &[0]));
    grown.eccs.push(Ecc::new(vec![xx, Circuit::new(2, 0)]));
    Library::new("Nam", grown, true).save(&path).unwrap();
    let second = auditor.audit_artifact(&path).unwrap();
    assert!(second.is_clean(), "{second}");
    assert_eq!(second.classes, 2);
    assert!(!stamp.certifies(second.artifact_checksum, second.verifier_digest));
}

/// The audit never reads the sidecar, so a garbled one changes nothing; it
/// certifies nothing either.
#[test]
fn loading_a_garbled_sidecar_is_a_cache_miss_not_an_error() {
    let path = temp_path("garbled.qtzl");
    Library::new("Nam", clean_set(), true).save(&path).unwrap();
    std::fs::write(AuditStamp::sidecar_path(&path), b"{ not json ]").unwrap();
    assert!(AuditStamp::load_for(&path).is_none());
    let report = Auditor::default().audit_artifact(&path).unwrap();
    assert!(report.is_clean());
}
