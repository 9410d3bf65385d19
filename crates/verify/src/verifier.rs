//! The circuit equivalence verifier (paper §4).
//!
//! Given two symbolic circuits, the verifier decides whether they are
//! equivalent up to a global phase (Definition 1). Following the paper, the
//! existential quantification over the phase β is eliminated by searching a
//! finite space of linear phase factors β(p⃗) = a⃗·p⃗ + b using numeric
//! evaluation (eq. 5), and each candidate is then checked exactly (eq. 6).
//! Where the paper discharges eq. (6) with Z3 over nonlinear real
//! arithmetic, this implementation reduces it to polynomial identities over
//! ℚ(ζ₈) modulo the trigonometric ideal, which is an exact decision
//! procedure for the same class of formulas (see `quartz_math::Poly`).

use crate::phase::{candidate_phases, PhaseFactor};
use crate::symsem;
use quartz_ir::{Circuit, FingerprintContext, UnsupportedAngleError};
use quartz_math::{Matrix, Poly};
use std::fmt;

/// Configuration of the verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifierConfig {
    /// Maximum absolute value of the per-parameter coefficients a⃗ in the
    /// phase factor β(p⃗) = a⃗·p⃗ + b. The paper uses 2; 0 restricts the search
    /// to constant phase factors (which the paper found sufficient for its
    /// three gate sets).
    pub max_phase_coeff: i64,
    /// Numeric tolerance used when matching phase-factor candidates
    /// (eq. 5) and in the numeric pre-filter.
    pub tolerance: f64,
    /// Number of extra random evaluation points used as a numeric pre-filter
    /// before running the exact check. Zero disables the pre-filter.
    pub prefilter_points: usize,
    /// Seed for the numeric evaluation contexts.
    pub seed: u64,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            max_phase_coeff: 0,
            tolerance: 1e-7,
            prefilter_points: 1,
            seed: 0xC0FFEE,
        }
    }
}

impl VerifierConfig {
    /// A content digest of the configuration (FNV-1a over the field bytes).
    ///
    /// Two configurations with equal digests decide equivalence queries
    /// identically, so the digest is a sound cache key component for
    /// results derived from verifier verdicts — the library auditor keys
    /// its verified-cache on it (DESIGN.md §11): a sidecar produced under
    /// one configuration never short-circuits a re-audit under another.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&self.max_phase_coeff.to_le_bytes());
        eat(&self.tolerance.to_bits().to_le_bytes());
        eat(&(self.prefilter_points as u64).to_le_bytes());
        eat(&self.seed.to_le_bytes());
        h
    }
}

/// Errors produced by the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The circuits act on different numbers of qubits.
    QubitCountMismatch(usize, usize),
    /// A circuit uses an angle that cannot be represented exactly.
    UnsupportedAngle(UnsupportedAngleError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::QubitCountMismatch(a, b) => {
                write!(f, "cannot compare circuits over {a} and {b} qubits")
            }
            VerifyError::UnsupportedAngle(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<UnsupportedAngleError> for VerifyError {
    fn from(e: UnsupportedAngleError) -> Self {
        VerifyError::UnsupportedAngle(e)
    }
}

/// Outcome of a verification query.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The circuits are equivalent; the witness phase factor is recorded.
    Equivalent(PhaseFactor),
    /// No candidate phase factor verified; the circuits are considered not
    /// equivalent (for the searched phase-factor space this is definitive
    /// when the candidate list was derived from a nonzero amplitude).
    NotEquivalent,
}

impl Verdict {
    /// Returns `true` for [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent(_))
    }
}

/// Why a class member failed re-verification against its representative in
/// [`Verifier::verify_class`].
#[derive(Debug, Clone, PartialEq)]
pub enum MemberFailure {
    /// The verifier decided the member is not equivalent to the
    /// representative (for the searched phase-factor space).
    NotEquivalent,
    /// The equivalence query itself was ill-formed (qubit-count mismatch,
    /// unrepresentable angle).
    Error(VerifyError),
}

impl fmt::Display for MemberFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemberFailure::NotEquivalent => write!(f, "not equivalent to the representative"),
            MemberFailure::Error(e) => write!(f, "query error: {e}"),
        }
    }
}

/// Result of re-verifying a whole equivalence class with
/// [`Verifier::verify_class`]: every member checked against the
/// representative (`circuits[0]`), all failures collected rather than
/// stopping at the first.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Number of circuits in the class, representative included.
    pub members: usize,
    /// `(member index into the input slice, reason)` for every member that
    /// failed. Empty iff the class is sound.
    pub failures: Vec<(usize, MemberFailure)>,
}

impl ClassReport {
    /// Whether every member verified against the representative.
    pub fn is_sound(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Statistics accumulated by a [`Verifier`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifierStats {
    /// Total number of equivalence queries.
    pub queries: usize,
    /// Queries rejected by the numeric pre-filter.
    pub prefilter_rejections: usize,
    /// Number of exact symbolic checks performed (one per candidate tried).
    pub symbolic_checks: usize,
    /// Queries that returned [`Verdict::Equivalent`].
    pub verified_equivalent: usize,
}

/// The circuit equivalence verifier.
///
/// # Examples
///
/// ```
/// use quartz_ir::{Circuit, Gate, Instruction};
/// use quartz_verify::Verifier;
///
/// // H·H is equivalent to the empty circuit.
/// let mut hh = Circuit::new(1, 0);
/// hh.push(Instruction::new(Gate::H, vec![0], vec![]));
/// hh.push(Instruction::new(Gate::H, vec![0], vec![]));
/// let id = Circuit::new(1, 0);
///
/// let mut verifier = Verifier::default();
/// assert!(verifier.equivalent(&hh, &id).unwrap().is_equivalent());
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    config: VerifierConfig,
    stats: VerifierStats,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new(VerifierConfig::default())
    }
}

impl Verifier {
    /// Creates a verifier with the given configuration.
    pub fn new(config: VerifierConfig) -> Self {
        Verifier {
            config,
            stats: VerifierStats::default(),
        }
    }

    /// Creates a verifier that searches parameter-dependent phase factors
    /// with coefficients in `{-max..=max}` (the paper's general mechanism).
    pub fn with_phase_coeff_range(max: i64) -> Self {
        Verifier::new(VerifierConfig {
            max_phase_coeff: max,
            ..VerifierConfig::default()
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &VerifierConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &VerifierStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = VerifierStats::default();
    }

    /// Decides whether `c1` and `c2` are equivalent up to a global phase
    /// (Definition 1).
    ///
    /// # Errors
    ///
    /// Returns an error if the circuits have different qubit counts or use
    /// angles outside the exactly representable set.
    pub fn equivalent(&mut self, c1: &Circuit, c2: &Circuit) -> Result<Verdict, VerifyError> {
        self.stats.queries += 1;
        if c1.num_qubits() != c2.num_qubits() {
            return Err(VerifyError::QubitCountMismatch(
                c1.num_qubits(),
                c2.num_qubits(),
            ));
        }
        let num_params = c1.num_params().max(c2.num_params());

        // Numeric pre-filter: equivalent circuits must have amplitudes of
        // equal modulus at every evaluation point.
        for point in 0..self.config.prefilter_points {
            let ctx = FingerprintContext::new(
                c1.num_qubits(),
                num_params,
                self.config.seed ^ (0x9E37 + point as u64 * 0x1234_5678),
            );
            let a1 = ctx.amplitude(c1).norm();
            let a2 = ctx.amplitude(c2).norm();
            if (a1 - a2).abs() > self.config.tolerance {
                self.stats.prefilter_rejections += 1;
                return Ok(Verdict::NotEquivalent);
            }
        }

        // Phase-factor candidate search (eq. 5) on a dedicated context.
        let ctx = FingerprintContext::new(c1.num_qubits(), num_params, self.config.seed);
        let candidates = candidate_phases(
            c1,
            c2,
            &ctx,
            num_params,
            self.config.max_phase_coeff,
            self.config.tolerance,
        );

        if candidates.is_empty() {
            return Ok(Verdict::NotEquivalent);
        }

        // Exact check of eq. (6) for each candidate.
        let u1 = symsem::circuit_unitary(c1)?;
        let u2 = symsem::circuit_unitary(c2)?;
        for phase in candidates {
            self.stats.symbolic_checks += 1;
            if Self::matrices_equal_with_phase(&u1, &u2, &phase) {
                self.stats.verified_equivalent += 1;
                return Ok(Verdict::Equivalent(phase));
            }
        }
        Ok(Verdict::NotEquivalent)
    }

    /// Convenience wrapper returning a plain boolean.
    ///
    /// # Errors
    ///
    /// Same as [`Verifier::equivalent`].
    pub fn check(&mut self, c1: &Circuit, c2: &Circuit) -> Result<bool, VerifyError> {
        Ok(self.equivalent(c1, c2)?.is_equivalent())
    }

    /// Re-verifies a whole equivalence class: every member of `circuits`
    /// is checked against the representative `circuits[0]`, phase-factor
    /// search included, and *all* failures are collected (the auditor wants
    /// every unsound member located, not just the first).
    ///
    /// Ill-formed queries (qubit-count mismatch, unrepresentable angles)
    /// are recorded as [`MemberFailure::Error`] on the offending member
    /// instead of aborting the class, so a single corrupt circuit cannot
    /// mask failures elsewhere in the class. An empty or single-circuit
    /// class is trivially sound.
    pub fn verify_class(&mut self, circuits: &[Circuit]) -> ClassReport {
        let mut failures = Vec::new();
        if let Some((rep, members)) = circuits.split_first() {
            for (offset, member) in members.iter().enumerate() {
                match self.equivalent(rep, member) {
                    Ok(Verdict::Equivalent(_)) => {}
                    Ok(Verdict::NotEquivalent) => {
                        failures.push((offset + 1, MemberFailure::NotEquivalent));
                    }
                    Err(e) => failures.push((offset + 1, MemberFailure::Error(e))),
                }
            }
        }
        ClassReport {
            members: circuits.len(),
            failures,
        }
    }

    /// Checks ⟦C₁⟧ = e^{iβ}·⟦C₂⟧ exactly, entry by entry.
    fn matrices_equal_with_phase(
        u1: &Matrix<Poly>,
        u2: &Matrix<Poly>,
        phase: &PhaseFactor,
    ) -> bool {
        let phase_poly = phase.to_poly();
        for (r, c, p1) in u1.entries() {
            let p2 = u2.get(r, c);
            let rhs = p2.mul(&phase_poly);
            if !p1.sub(&rhs).is_zero_mod_trig() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_ir::{Gate, Instruction, ParamExpr};

    fn instr(gate: Gate, qubits: &[usize]) -> Instruction {
        Instruction::new(gate, qubits.to_vec(), vec![])
    }

    fn rz(q: usize, p: usize, m: usize) -> Instruction {
        Instruction::new(Gate::Rz, vec![q], vec![ParamExpr::var(p, m)])
    }

    #[test]
    fn hh_equals_identity() {
        let mut hh = Circuit::new(1, 0);
        hh.push(instr(Gate::H, &[0]));
        hh.push(instr(Gate::H, &[0]));
        let id = Circuit::new(1, 0);
        let mut v = Verifier::default();
        assert!(v.check(&hh, &id).unwrap());
        assert_eq!(v.stats().queries, 1);
    }

    #[test]
    fn cnot_flip_with_hadamards() {
        // Figure 3a: H⊗H · CNOT(0→1) · H⊗H = CNOT(1→0).
        let mut lhs = Circuit::new(2, 0);
        lhs.push(instr(Gate::H, &[0]));
        lhs.push(instr(Gate::H, &[1]));
        lhs.push(instr(Gate::Cnot, &[0, 1]));
        lhs.push(instr(Gate::H, &[0]));
        lhs.push(instr(Gate::H, &[1]));
        let mut rhs = Circuit::new(2, 0);
        rhs.push(instr(Gate::Cnot, &[1, 0]));
        let mut v = Verifier::default();
        assert!(v.check(&lhs, &rhs).unwrap());
    }

    #[test]
    fn rz_commutes_through_cnot_on_control() {
        // Rz on the control commutes with CNOT.
        let m = 1;
        let mut a = Circuit::new(2, m);
        a.push(rz(0, 0, m));
        a.push(instr(Gate::Cnot, &[0, 1]));
        let mut b = Circuit::new(2, m);
        b.push(instr(Gate::Cnot, &[0, 1]));
        b.push(rz(0, 0, m));
        let mut v = Verifier::default();
        assert!(v.check(&a, &b).unwrap());
        // ... but Rz on the target does not.
        let mut c = Circuit::new(2, m);
        c.push(rz(1, 0, m));
        c.push(instr(Gate::Cnot, &[0, 1]));
        let mut d = Circuit::new(2, m);
        d.push(instr(Gate::Cnot, &[0, 1]));
        d.push(rz(1, 0, m));
        assert!(!v.check(&c, &d).unwrap());
    }

    #[test]
    fn u1_equals_rz_with_parameter_dependent_phase() {
        // U1(p0) = e^{i·p0/2}·Rz(p0): requires a parameter-dependent phase
        // factor with half-integer coefficient, which the integer-coefficient
        // search cannot express over p0 — but over the *expression* the
        // verifier searches coefficients of p0, so a coefficient is needed
        // that is not an integer. The paper's search space has the same
        // granularity; this pair is correctly reported NotEquivalent by the
        // constant-only verifier and serves as a regression test for the
        // distinction.
        let mut u1 = Circuit::new(1, 1);
        u1.push(Instruction::new(
            Gate::U1,
            vec![0],
            vec![ParamExpr::var(0, 1)],
        ));
        let mut rz_c = Circuit::new(1, 1);
        rz_c.push(rz(0, 0, 1));
        let mut v = Verifier::default();
        assert!(!v.check(&u1, &rz_c).unwrap());
        // With the scaled expression U1(2·p0) vs Rz(2·p0), the phase e^{i·p0}
        // has integer coefficient 1 and the pair verifies as equivalent.
        let mut u1_2 = Circuit::new(1, 1);
        u1_2.push(Instruction::new(
            Gate::U1,
            vec![0],
            vec![ParamExpr::scaled_var(0, 2, 1)],
        ));
        let mut rz_2 = Circuit::new(1, 1);
        rz_2.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::scaled_var(0, 2, 1)],
        ));
        let mut v2 = Verifier::with_phase_coeff_range(2);
        let verdict = v2.equivalent(&u1_2, &rz_2).unwrap();
        match verdict {
            Verdict::Equivalent(phase) => {
                assert_eq!(phase.param_coeffs, vec![1]);
                assert_eq!(phase.pi4_units, 0);
            }
            Verdict::NotEquivalent => panic!("U1(2p) and Rz(2p) must verify with phase e^{{ip}}"),
        }
    }

    #[test]
    fn t_gate_phase_constant() {
        // X·T·X·T — the famous identity X T X T = e^{iπ/4}·I ... actually
        // X·T·X = e^{iπ/4}·T†, so X T X T = e^{iπ/4} I. Verify against the
        // empty circuit with a constant phase factor.
        let mut lhs = Circuit::new(1, 0);
        lhs.push(instr(Gate::X, &[0]));
        lhs.push(instr(Gate::T, &[0]));
        lhs.push(instr(Gate::X, &[0]));
        lhs.push(instr(Gate::T, &[0]));
        let id = Circuit::new(1, 0);
        let mut v = Verifier::default();
        match v.equivalent(&lhs, &id).unwrap() {
            Verdict::Equivalent(phase) => assert_eq!(phase.pi4_units, 1),
            Verdict::NotEquivalent => panic!("XTXT should equal identity up to a π/4 phase"),
        }
    }

    #[test]
    fn config_digest_separates_configurations() {
        let base = VerifierConfig::default();
        assert_eq!(base.digest(), VerifierConfig::default().digest());
        let variants = [
            VerifierConfig {
                max_phase_coeff: 2,
                ..base.clone()
            },
            VerifierConfig {
                tolerance: 1e-9,
                ..base.clone()
            },
            VerifierConfig {
                prefilter_points: 0,
                ..base.clone()
            },
            VerifierConfig {
                seed: 1,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.digest(), base.digest(), "{v:?}");
        }
    }

    #[test]
    fn verify_class_collects_all_failures() {
        // Class {I, H·H, X, Y}: members 2 and 3 are unsound and must both
        // be reported; the H·H member stays clean.
        let id = Circuit::new(1, 0);
        let mut hh = Circuit::new(1, 0);
        hh.push(instr(Gate::H, &[0]));
        hh.push(instr(Gate::H, &[0]));
        let mut x = Circuit::new(1, 0);
        x.push(instr(Gate::X, &[0]));
        let mut y = Circuit::new(1, 0);
        y.push(instr(Gate::Y, &[0]));
        let mut v = Verifier::default();
        let report = v.verify_class(&[id.clone(), hh.clone(), x, y]);
        assert_eq!(report.members, 4);
        assert!(!report.is_sound());
        assert_eq!(
            report
                .failures
                .iter()
                .map(|(member, _)| *member)
                .collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(report
            .failures
            .iter()
            .all(|(_, f)| *f == MemberFailure::NotEquivalent));

        // A sound class and the trivial classes report clean.
        assert!(v.verify_class(&[id.clone(), hh]).is_sound());
        assert!(v.verify_class(&[id]).is_sound());
        assert!(v.verify_class(&[]).is_sound());
    }

    #[test]
    fn verify_class_records_query_errors_per_member() {
        // A qubit-count mismatch inside a class must localize to the
        // offending member, not abort the class.
        let id1 = Circuit::new(1, 0);
        let id2 = Circuit::new(2, 0);
        let mut x = Circuit::new(1, 0);
        x.push(instr(Gate::X, &[0]));
        let mut v = Verifier::default();
        let report = v.verify_class(&[id1.clone(), id2, x, id1]);
        assert_eq!(report.members, 4);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(report.failures[0].0, 1);
        assert!(matches!(
            report.failures[0].1,
            MemberFailure::Error(VerifyError::QubitCountMismatch(1, 2))
        ));
        assert_eq!(report.failures[1], (2, MemberFailure::NotEquivalent));
    }

    #[test]
    fn different_qubit_counts_are_an_error() {
        let a = Circuit::new(1, 0);
        let b = Circuit::new(2, 0);
        let mut v = Verifier::default();
        assert!(matches!(
            v.equivalent(&a, &b),
            Err(VerifyError::QubitCountMismatch(1, 2))
        ));
    }

    #[test]
    fn prefilter_rejects_obviously_different_circuits() {
        let mut x = Circuit::new(1, 0);
        x.push(instr(Gate::X, &[0]));
        let id = Circuit::new(1, 0);
        let mut v = Verifier::default();
        assert!(!v.check(&x, &id).unwrap());
        assert!(v.stats().prefilter_rejections >= 1 || v.stats().symbolic_checks == 0);
    }

    #[test]
    fn swap_as_three_cnots() {
        let mut three = Circuit::new(2, 0);
        three.push(instr(Gate::Cnot, &[0, 1]));
        three.push(instr(Gate::Cnot, &[1, 0]));
        three.push(instr(Gate::Cnot, &[0, 1]));
        let mut swap = Circuit::new(2, 0);
        swap.push(instr(Gate::Swap, &[0, 1]));
        let mut v = Verifier::default();
        assert!(v.check(&three, &swap).unwrap());
    }

    /// `Ry(p0)·Ry(−p0)` has diagonal entries `c₀² + s₀²`, so its
    /// difference from the identity is not syntactically zero: the query
    /// holds only through the reducing branch of the trig normal form
    /// (`s₀² = 1 − c₀²`). `Ry(p0)·Ry(p0)` is the near miss.
    #[test]
    fn ry_inverse_pair_equals_identity_only_after_trig_reduction() {
        let ry = |k: i32| Instruction::new(Gate::Ry, vec![0], vec![ParamExpr::scaled_var(0, k, 1)]);
        let mut inverse = Circuit::new(1, 1);
        inverse.push(ry(1));
        inverse.push(ry(-1));
        let mut doubled = Circuit::new(1, 1);
        doubled.push(ry(1));
        doubled.push(ry(1));
        let empty = Circuit::new(1, 1);

        let difference = symsem::circuit_unitary(&inverse)
            .unwrap()
            .sub(&symsem::circuit_unitary(&empty).unwrap());
        assert!(difference.entries().any(|(_, _, p)| !p.is_zero()));
        assert!(difference.entries().all(|(_, _, p)| p.is_zero_mod_trig()));

        let mut v = Verifier::default();
        assert_eq!(v.check(&inverse, &empty), Ok(true));
        assert_eq!(v.check(&doubled, &empty), Ok(false));
    }

    #[test]
    fn rigetti_rx_pi_equals_x_up_to_phase() {
        let mut rx = Circuit::new(1, 0);
        rx.push(instr(Gate::Rx180, &[0]));
        let mut x = Circuit::new(1, 0);
        x.push(instr(Gate::X, &[0]));
        let mut v = Verifier::default();
        match v.equivalent(&rx, &x).unwrap() {
            Verdict::Equivalent(phase) => assert_eq!(phase.pi4_units.rem_euclid(8), 6),
            Verdict::NotEquivalent => panic!("Rx(π) equals X up to the phase −i"),
        }
    }
}
