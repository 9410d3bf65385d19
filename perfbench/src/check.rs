//! Output checks that share no code with `quartz-opt`: a best circuit must
//! act like its input, up to one global phase, on seeded random states
//! pushed through the state-vector simulator of `quartz-ir`.
//!
//! Two random states suffice in practice: `B = e^{iθ}·A` exactly when
//! `A†B` is a scalar, and a random state is an eigenvector of a non-scalar
//! unitary with probability zero. Full unitaries are never built (they are
//! 2^q × 2^q); each state costs O(gates · 2^q).

use crate::sys::Rng;
use quartz_ir::semantics::{apply_circuit, inner_product, StateVector};
use quartz_ir::Circuit;
use quartz_math::Complex64;

/// Largest register the check simulates (2^16 amplitudes per state).
pub const MAX_QUBITS: usize = 16;
const STATES: usize = 2;
const EPS: f64 = 1e-7;

fn random_state(num_qubits: usize, rng: &mut Rng) -> StateVector {
    // Box–Muller normal amplitudes give a Haar-random direction.
    let mut state: StateVector = (0..1usize << num_qubits)
        .map(|_| {
            let (u, v) = (rng.unit(), rng.unit());
            let r = (-2.0 * u.ln()).sqrt();
            let t = std::f64::consts::TAU * v;
            Complex64::new(r * t.cos(), r * t.sin())
        })
        .collect();
    let norm = state.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut state {
        *a = *a * (1.0 / norm);
    }
    state
}

/// `Ok` when `output` equals `input` up to global phase on every sampled
/// state; the error names the first state that disagrees.
pub fn same_up_to_phase(input: &Circuit, output: &Circuit, seed: u64) -> Result<(), String> {
    let q = input.num_qubits();
    if output.num_qubits() != q || output.num_params() != input.num_params() {
        return Err(format!(
            "register mismatch: {q} qubits/{} params in, {} qubits/{} params out",
            input.num_params(),
            output.num_qubits(),
            output.num_params()
        ));
    }
    if q > MAX_QUBITS {
        return Err(format!("{q} qubits is beyond the {MAX_QUBITS}-qubit check"));
    }
    let mut rng = Rng::new(seed);
    let params: Vec<f64> = (0..input.num_params())
        .map(|_| std::f64::consts::TAU * rng.unit())
        .collect();
    let mut phase: Option<Complex64> = None;
    for k in 0..STATES {
        let psi = random_state(q, &mut rng);
        let overlap = inner_product(
            &apply_circuit(input, &psi, &params),
            &apply_circuit(output, &psi, &params),
        );
        if (overlap.norm() - 1.0).abs() > EPS {
            return Err(format!(
                "state {k}: |<A psi|B psi>| = {} (expected 1)",
                overlap.norm()
            ));
        }
        match phase {
            None => phase = Some(overlap),
            Some(p) if !p.approx_eq(overlap, EPS) => {
                return Err(format!(
                    "state {k}: global phase {overlap} differs from {p}"
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}
