//! CI smoke test for the daemon (the `serve-smoke` job).
//!
//! Boots `quartz-serve` against the committed `libraries/*.qtzl`
//! artifacts, pushes a mixed-gate-set request batch through the HTTP test
//! client, and diffs the responses against committed expectations:
//!
//! 1. The NAM quick suite (budget 40 — the same binding constraint the
//!    throughput bench uses) must sum to `BENCH_baseline.json`'s
//!    `throughput/t1/generated` → `total_best_cost`. The daemon
//!    serves from the *loaded* artifact; agreement with the *generated*
//!    baseline is exactly the loaded-vs-generated identity the bench
//!    asserts, now checked across the wire.
//! 2. IBM and Rigetti requests must produce outcomes bit-identical to
//!    standalone `Optimizer::optimize_with_budget` runs against the same
//!    artifacts — library routing changes *which index* serves a request,
//!    never the result.
//!
//! Exits non-zero with a diff on any mismatch.

use quartz_bench::report::BenchReport;
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
    let mut nam_ids = Vec::new();
    for (name, clifford_t) in &scale.suite {
        let mut request = SubmitRequest::new(to_qasm(clifford_t));
        request.budget = Some(budget);
        match client.submit(&request) {
            Ok(id) => nam_ids.push((*name, id)),
            Err(e) => {
                eprintln!("serve_smoke: submit {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut routed_ids = Vec::new();
    for kind in [GateSetKind::Ibm, GateSetKind::Rigetti] {
        for (name, clifford_t) in scale.suite.iter().take(2) {
            let mut request = SubmitRequest::new(to_qasm(clifford_t));
            request.gate_set = kind.name().to_lowercase();
            request.budget = Some(budget);
            match client.submit(&request) {
                Ok(id) => routed_ids.push((kind, *name, id)),
                Err(e) => {
                    eprintln!("serve_smoke: submit {name} ({}) failed: {e}", kind.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    // --- Check 1: NAM totals against the committed bench baseline. ---
    let mut total_best_cost = 0usize;
    for &(name, id) in &nam_ids {
        match client.wait_result(id) {
            Ok(result) => total_best_cost += result.outcome.best_cost,
            Err(e) => {
                eprintln!("serve_smoke: result {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let baseline_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("serve_smoke: read {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let baseline = match BenchReport::parse(&baseline_text) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serve_smoke: parse baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected = baseline
        .get_suite("throughput/t1/generated")
        .and_then(|suite| suite.get("total_best_cost"));
    let Some(expected) = expected else {
        eprintln!("serve_smoke: baseline lacks throughput/t1/generated total_best_cost");
        return ExitCode::FAILURE;
    };
    if total_best_cost as f64 != expected {
        eprintln!(
            "serve_smoke: NAM quick-suite total diverged from the committed baseline:\n  \
             daemon total_best_cost = {total_best_cost}\n  \
             BENCH_baseline.json    = {expected}\n\
             either a determinism regression in the serve path or a stale baseline"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "serve_smoke: NAM quick suite ({} circuits) total_best_cost {} == baseline",
        nam_ids.len(),
        total_best_cost
    );

    // --- Check 2: routed gate sets against standalone runs. ---
    let cache = LibraryCache::new();
    let mut mismatches = 0usize;
    for (kind, name, id) in routed_ids {
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
        eprintln!("serve_smoke: {mismatches} routed outcome(s) diverged");
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
