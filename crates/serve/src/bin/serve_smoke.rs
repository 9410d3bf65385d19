//! CI smoke test for the daemon (the `serve-smoke` job).
//!
//! Boots `quartz-serve` against the committed `libraries/*.qtzl`
//! artifacts, pushes a mixed-gate-set request batch — the whole NAM quick
//! suite plus two IBM and two Rigetti circuits, all in flight together —
//! through the HTTP test client, and requires every response's outcome to
//! be bit-identical to a standalone `Optimizer::optimize_with_budget` run
//! against the same artifact. Library routing and interleaving with other
//! requests change *which index* serves a request and *when*, never the
//! result.
//!
//! Exits non-zero with a diff on any mismatch.

use quartz_bench::{GateSetKind, Scale};
use quartz_ir::to_qasm;
use quartz_opt::{LibraryCache, Optimizer};
use quartz_serve::wire::Outcome;
use quartz_serve::{artifact_for, Client, Daemon, DaemonConfig, Server, SubmitRequest};
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("serve_smoke: unexpected argument '{arg}' (it takes none)");
        return ExitCode::FAILURE;
    }

    let scale = Scale::quick(GateSetKind::Nam);
    let budget = scale.max_iterations;

    let daemon = match Daemon::new(DaemonConfig::default()) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("serve_smoke: daemon failed to boot: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind("127.0.0.1:0", daemon) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve_smoke: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let client = Client::new(server.addr());
    println!("serve_smoke: daemon on http://{}", server.addr());

    // --- The mixed-gate-set batch: all submissions in flight together. ---
    let mut submitted = Vec::new();
    for (kind, count) in [
        (GateSetKind::Nam, scale.suite.len()),
        (GateSetKind::Ibm, 2),
        (GateSetKind::Rigetti, 2),
    ] {
        for (name, clifford_t) in scale.suite.iter().take(count) {
            let mut request = SubmitRequest::new(to_qasm(clifford_t));
            request.gate_set = kind.name().to_lowercase();
            request.budget = Some(budget);
            match client.submit(&request) {
                Ok(id) => submitted.push((kind, *name, id)),
                Err(e) => {
                    eprintln!("serve_smoke: submit {name} ({}) failed: {e}", kind.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    // --- Every response against a standalone run over the same artifact. ---
    let cache = LibraryCache::new();
    let mut mismatches = 0usize;
    for &(kind, name, id) in &submitted {
        let served = match client.wait_result(id) {
            Ok(result) => result.outcome,
            Err(e) => {
                eprintln!("serve_smoke: result {name} ({}) failed: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        };
        let library = match cache.get_or_load(artifact_for(kind)) {
            Ok(library) => library,
            Err(e) => {
                eprintln!("serve_smoke: load {} library: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        };
        let optimizer = Optimizer::with_index(
            library.shared_index(),
            DaemonConfig::default().search.clone(),
        );
        let circuit = scale
            .suite
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| kind.preprocess(c))
            .expect("name came from the suite");
        let standalone = Outcome::from_result(&optimizer.optimize_with_budget(&circuit, budget));
        if served != standalone {
            eprintln!(
                "serve_smoke: {name} ({}) diverged from standalone:\n  \
                 served:     cost {} iters {} seen {}\n  \
                 standalone: cost {} iters {} seen {}",
                kind.name(),
                served.best_cost,
                served.iterations,
                served.circuits_seen,
                standalone.best_cost,
                standalone.iterations,
                standalone.circuits_seen,
            );
            mismatches += 1;
        } else {
            println!(
                "serve_smoke: {name} ({}) bit-identical to standalone (cost {} -> {})",
                kind.name(),
                served.initial_cost,
                served.best_cost
            );
        }
    }
    if mismatches > 0 {
        eprintln!(
            "serve_smoke: {mismatches} of {} outcome(s) diverged",
            submitted.len()
        );
        return ExitCode::FAILURE;
    }

    // --- Endpoint sanity: health reflects the drained batch. ---
    match client.health() {
        Ok((running, admitted, capacity)) => {
            if running != 0 {
                eprintln!("serve_smoke: {running} requests still running after results served");
                return ExitCode::FAILURE;
            }
            println!("serve_smoke: health ok ({admitted} admitted, capacity {capacity})");
        }
        Err(e) => {
            eprintln!("serve_smoke: health failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!("serve_smoke: PASS");
    ExitCode::SUCCESS
}
