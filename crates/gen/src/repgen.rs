//! The RepGen circuit generation algorithm (paper §3, Algorithm 1).
//!
//! RepGen builds an (n, q)-complete ECC set round by round: the j-th round
//! extends the representatives of size j−1 by a single instruction, keeps
//! only extensions whose `DropFirst` is itself a representative, buckets the
//! results by fingerprint, and partitions each bucket into verified ECCs
//! (Eccify) using the exact equivalence verifier.

use crate::ecc::{Ecc, EccSet};
use quartz_ir::{Circuit, ExprSpec, FingerprintContext, GateSet};
use quartz_verify::{Verifier, VerifierConfig};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Configuration for a RepGen run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Maximum number of gates `n`.
    pub max_gates: usize,
    /// Number of qubits `q`.
    pub num_qubits: usize,
    /// Number of formal parameters `m`.
    pub num_params: usize,
    /// The parameter-expression specification Σ.
    pub spec: ExprSpec,
    /// Seed for the fingerprint inputs.
    pub seed: u64,
    /// Absolute error threshold E_max for fingerprint bucketing (§7.1).
    pub e_max: f64,
    /// Verifier configuration.
    pub verifier: VerifierConfig,
}

impl GenConfig {
    /// Standard configuration for the paper's experiments: the Σ of §7.1,
    /// E_max = 10⁻¹⁵, constant phase factors.
    pub fn standard(max_gates: usize, num_qubits: usize, num_params: usize) -> Self {
        GenConfig {
            max_gates,
            num_qubits,
            num_params,
            spec: ExprSpec::standard(num_params),
            seed: 20220613,
            e_max: 1e-15,
            verifier: VerifierConfig::default(),
        }
    }
}

/// Statistics reported for a RepGen run (paper Tables 5, 6 and 8).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenStats {
    /// Number of circuits (sequences) stored in the fingerprint database —
    /// the "RepGen" column of Table 6.
    pub circuits_considered: usize,
    /// Size of the final representative set |Rₙ| (Table 5), including
    /// singleton-class representatives.
    pub num_representatives: usize,
    /// Number of transformations |T| in the returned ECC set (Table 5).
    pub num_transformations: usize,
    /// The characteristic ch(G, Σ, q, m) (§3.3).
    pub characteristic: usize,
    /// Wall-clock time spent inside the equivalence verifier.
    pub verification_time: Duration,
    /// Total wall-clock generation time.
    pub total_time: Duration,
    /// Number of verifier queries issued.
    pub verifier_queries: usize,
    /// Per-round sizes of the ECC set (number of classes after round j).
    pub eccs_per_round: Vec<usize>,
}

/// The RepGen generator.
///
/// # Examples
///
/// ```
/// use quartz_gen::{Generator, GenConfig};
/// use quartz_ir::GateSet;
///
/// // A tiny (2, 2)-complete ECC set for the Nam gate set with one parameter.
/// let config = GenConfig::standard(2, 2, 1);
/// let (ecc_set, stats) = Generator::new(GateSet::nam(), config).run();
/// assert!(ecc_set.num_transformations() > 0);
/// assert!(stats.num_representatives > 0);
/// ```
#[derive(Debug)]
pub struct Generator {
    gate_set: GateSet,
    config: GenConfig,
}

impl Generator {
    /// Creates a generator for the given gate set and configuration.
    pub fn new(gate_set: GateSet, config: GenConfig) -> Self {
        Generator { gate_set, config }
    }

    /// The gate set being explored.
    pub fn gate_set(&self) -> &GateSet {
        &self.gate_set
    }

    /// Runs Algorithm 1 and returns the (n, q)-complete ECC set (with
    /// singleton classes removed, as in line 17) together with statistics.
    pub fn run(&self) -> (EccSet, GenStats) {
        let start = Instant::now();
        let cfg = &self.config;
        let ctx = FingerprintContext::new(cfg.num_qubits, cfg.num_params, cfg.seed);
        let mut verifier = Verifier::new(cfg.verifier.clone());

        let instructions = self
            .gate_set
            .enumerate_instructions(cfg.num_qubits, &cfg.spec);
        let characteristic = instructions.len();

        // D: fingerprint key → ECC indices present in that bucket.
        // All ECCs (including singletons) live in `classes`; `circuit_class`
        // maps every stored circuit to its class index.
        let mut classes: Vec<Ecc> = Vec::new();
        let mut bucket_of_class: Vec<i64> = Vec::new();
        let mut buckets: HashMap<i64, Vec<usize>> = HashMap::new();
        let mut representatives: HashSet<Circuit> = HashSet::new();
        let mut verification_time = Duration::ZERO;
        let mut circuits_considered = 0usize;
        let mut eccs_per_round = Vec::new();

        // Initialize with the empty circuit.
        let empty = Circuit::new(cfg.num_qubits, cfg.num_params);
        let empty_key = self.fingerprint_key(&ctx, &empty);
        classes.push(Ecc::singleton(empty.clone()));
        bucket_of_class.push(empty_key);
        buckets.entry(empty_key).or_default().push(0);
        representatives.insert(empty.clone());
        circuits_considered += 1;

        for round in 1..=cfg.max_gates {
            // Step 1: construct circuits with `round` gates by extending the
            // representatives of size round−1.
            let mut new_circuits: Vec<(i64, Circuit)> = Vec::new();
            let reps_this_round: Vec<Circuit> = representatives
                .iter()
                .filter(|c| c.gate_count() == round - 1)
                .cloned()
                .collect();
            for rep in &reps_this_round {
                for instr in &instructions {
                    if cfg.spec.single_use && rep.params_conflict(&instr.used_params()) {
                        continue;
                    }
                    let extended = rep.appended(instr.clone());
                    if round >= 2 && !representatives.contains(&extended.drop_first()) {
                        continue;
                    }
                    let key = self.fingerprint_key(&ctx, &extended);
                    new_circuits.push((key, extended));
                }
            }

            // Step 2: Eccify. Process new circuits in ≺ order so that the
            // representative of any newly created class is its ≺-minimum.
            new_circuits.sort_by(|a, b| a.1.precedence_cmp(&b.1));
            for (key, circuit) in new_circuits {
                circuits_considered += 1;
                let mut assigned = false;
                // Candidate classes live in the same bucket or an adjacent
                // one (floating-point fingerprints of equivalent circuits may
                // straddle a bucket boundary, §7.1).
                'outer: for candidate_key in [key, key - 1, key + 1] {
                    if let Some(class_indices) = buckets.get(&candidate_key) {
                        for &ci in class_indices {
                            let rep = classes[ci].representative().clone();
                            let t0 = Instant::now();
                            let equal = verifier.check(&rep, &circuit).unwrap_or(false);
                            verification_time += t0.elapsed();
                            if equal {
                                classes[ci].insert(circuit.clone());
                                assigned = true;
                                break 'outer;
                            }
                        }
                    }
                }
                if !assigned {
                    let ci = classes.len();
                    classes.push(Ecc::singleton(circuit.clone()));
                    bucket_of_class.push(key);
                    buckets.entry(key).or_default().push(ci);
                    representatives.insert(circuit);
                }
            }
            eccs_per_round.push(classes.len());
        }

        let mut result = EccSet::new(cfg.num_qubits, cfg.num_params);
        result.eccs = classes
            .iter()
            .filter(|e| !e.is_singleton())
            .cloned()
            .collect();

        let stats = GenStats {
            circuits_considered,
            num_representatives: representatives.len(),
            num_transformations: result.num_transformations(),
            characteristic,
            verification_time,
            total_time: start.elapsed(),
            verifier_queries: verifier.stats().queries,
            eccs_per_round,
        };
        let _ = bucket_of_class; // retained for symmetry with the paper's D
        (result, stats)
    }

    fn fingerprint_key(&self, ctx: &FingerprintContext, circuit: &Circuit) -> i64 {
        let fp = ctx.fingerprint(circuit);
        (fp / (2.0 * self.config.e_max)).floor() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_ir::{equivalent_up_to_phase, Gate};

    fn run(gate_set: GateSet, n: usize, q: usize, m: usize) -> (EccSet, GenStats) {
        Generator::new(gate_set, GenConfig::standard(n, q, m)).run()
    }

    #[test]
    fn single_qubit_clifford_discovers_hh_identity() {
        let gs = GateSet::new("HX", vec![Gate::H, Gate::X]);
        let (set, stats) = run(gs, 2, 1, 0);
        // H·H ≡ empty and X·X ≡ empty must both be discovered: the ECC whose
        // representative is the empty circuit has at least 3 members.
        let empty_class = set
            .eccs
            .iter()
            .find(|e| e.representative().is_empty())
            .expect("class of the empty circuit");
        assert!(empty_class.len() >= 3, "found {}", empty_class.len());
        assert!(stats.num_representatives >= 3);
        assert_eq!(stats.characteristic, 2);
    }

    #[test]
    fn all_members_of_each_class_are_equivalent() {
        let (set, _) = run(GateSet::nam(), 2, 2, 1);
        let params = [0.873];
        for ecc in &set.eccs {
            let rep = ecc.representative();
            for c in ecc.circuits() {
                assert!(
                    equivalent_up_to_phase(rep, c, &params, 1e-8),
                    "members of an ECC must be equivalent:\n  {rep}\n  {c}"
                );
            }
        }
    }

    #[test]
    fn nam_2_3_shape_matches_paper() {
        // Paper Table 5 reports |R_n| = 397 and |T| = 62 for the Nam gate
        // set with q = 3, n = 2, m = 2 (after its pruning passes). The raw
        // RepGen output here must land in the same ballpark: far fewer
        // representatives than the 604 possible sequences, and a nonzero but
        // small transformation count.
        let (set, stats) = run(GateSet::nam(), 2, 3, 2);
        assert_eq!(stats.characteristic, 27);
        assert!(stats.num_representatives > 100 && stats.num_representatives <= 604);
        assert!(set.num_transformations() > 0);
        assert!(set.num_transformations() < 1000);
        // Every ECC contains circuits of at most 2 gates.
        assert!(set
            .eccs
            .iter()
            .all(|e| e.circuits().iter().all(|c| c.gate_count() <= 2)));
    }

    #[test]
    fn representative_is_smallest_member() {
        let (set, _) = run(GateSet::nam(), 2, 2, 1);
        for ecc in &set.eccs {
            for c in ecc.circuits() {
                assert!(!c.precedes(ecc.representative()));
            }
        }
    }

    #[test]
    fn stats_are_consistent() {
        let (set, stats) = run(GateSet::rigetti(), 2, 2, 1);
        assert_eq!(stats.num_transformations, set.num_transformations());
        assert!(stats.circuits_considered >= stats.num_representatives);
        assert!(stats.total_time >= stats.verification_time);
        assert_eq!(stats.eccs_per_round.len(), 2);
    }
}
