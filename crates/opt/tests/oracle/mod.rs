//! A naive reference implementation of Algorithm 2 (paper §6), for tests
//! only: the search engine must reproduce its outcome field by field.
//!
//! It shares none of the engine's machinery. It scans every transformation
//! (no dispatch index), builds a fresh match context for every dequeued
//! circuit (no derived contexts), applies every match to a new sequence
//! circuit and canonicalizes it (no deferred materialization), costs it
//! with [`CostModel::cost`](quartz_opt::CostModel::cost) (no delta costing)
//! and hashes it from scratch (no O(footprint) previews). What it does share
//! is the search policy the engine must implement: γ, the queue prune, the
//! (cost, insertion order) priority, the (cost, hash) candidate order within
//! one expansion, and batched steps that filter against the state frozen at
//! the start of the step and merge against the live state.
//!
//! Included with `#[path]` by every test suite that compares against it.

#![allow(dead_code)]

use quartz_ir::{Circuit, CircuitDag, StructuralHash};
use quartz_opt::{canonicalize, MatchContext, SearchConfig, SearchResult, Transformation};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// The outcome fields of one oracle run.
#[derive(Debug)]
pub struct OracleResult {
    pub best_circuit: Circuit,
    pub best_cost: usize,
    pub initial_cost: usize,
    pub iterations: usize,
    pub circuits_seen: usize,
    pub dedup_hits: usize,
    /// Pattern matches attempted: every transformation on every dequeue.
    pub match_attempts: usize,
    /// The best cost after the start and after every improvement.
    pub trace: Vec<usize>,
}

/// The dedup identity and tie-break: the structural hash of the
/// canonicalized circuit, computed from scratch.
fn hash_of(circuit: &Circuit) -> u64 {
    StructuralHash::of(&CircuitDag::from_circuit(circuit)).value()
}

/// Runs Algorithm 2 under `config.max_iterations`. The wall-clock timeout is
/// ignored, so compare only runs the iteration budget ends.
pub fn run(
    transformations: &[Transformation],
    config: &SearchConfig,
    input: &Circuit,
) -> OracleResult {
    run_with_budget(transformations, config, input, config.max_iterations)
}

/// Runs Algorithm 2 with an explicit iteration budget.
pub fn run_with_budget(
    transformations: &[Transformation],
    config: &SearchConfig,
    input: &Circuit,
    budget: usize,
) -> OracleResult {
    let cost = |c: &Circuit| config.cost_model.cost(c);
    let initial_cost = cost(input);
    let root = canonicalize(input);
    let mut seen: HashSet<u64> = HashSet::from([hash_of(&root)]);
    // Queued circuits by insertion order; the heap holds (cost, order),
    // lowest first.
    let mut circuits: Vec<Option<Circuit>> = vec![Some(root.clone())];
    let mut queue = BinaryHeap::from([Reverse((initial_cost, 0usize))]);
    let mut out = OracleResult {
        best_circuit: root,
        best_cost: initial_cost,
        initial_cost,
        iterations: 0,
        circuits_seen: 0,
        dedup_hits: 0,
        match_attempts: 0,
        trace: vec![initial_cost],
    };
    let admits = |c: usize, best: usize| (c as f64) < config.gamma * best as f64;

    while out.iterations < budget {
        let take = config.batch_size.max(1).min(budget - out.iterations);
        let mut popped = Vec::new();
        while popped.len() < take {
            match queue.pop() {
                Some(Reverse((_, order))) => popped.push(order),
                None => break,
            }
        }
        if popped.is_empty() {
            break;
        }
        out.iterations += popped.len();

        // Expand every popped circuit against the state frozen before the step.
        let frozen_best = out.best_cost;
        let mut expansions = Vec::new();
        for order in popped {
            let circuit = circuits[order].take().expect("popped once");
            let mut successors: Vec<(usize, u64, Circuit)> = Vec::new();
            let ctx = MatchContext::new(&circuit);
            for xform in transformations {
                out.match_attempts += 1;
                for m in ctx.find_matches(&xform.target) {
                    let Some(delta) = ctx.delta_for(xform, &m) else {
                        continue;
                    };
                    let next = ctx.apply_delta(&delta);
                    let next_cost = cost(&next);
                    if !admits(next_cost, frozen_best) {
                        continue;
                    }
                    let hash = hash_of(&next);
                    if seen.contains(&hash) {
                        out.dedup_hits += 1;
                        continue;
                    }
                    successors.push((next_cost, hash, canonicalize(&next)));
                }
            }
            successors.sort_by_key(|&(c, h, _)| (c, h));
            expansions.push(successors);
        }

        // Merge in pop order against the live state.
        for (next_cost, hash, next) in expansions.into_iter().flatten() {
            if seen.contains(&hash) {
                out.dedup_hits += 1;
                continue;
            }
            if admits(next_cost, out.best_cost) {
                if next_cost < out.best_cost {
                    out.best_cost = next_cost;
                    out.best_circuit = next.clone();
                    out.trace.push(next_cost);
                }
                seen.insert(hash);
                circuits.push(Some(next));
                queue.push(Reverse((next_cost, circuits.len() - 1)));
            }
        }

        if queue.len() > config.queue_prune_threshold {
            let mut keys: Vec<(usize, usize)> = queue.drain().map(|Reverse(k)| k).collect();
            keys.sort_unstable();
            for &(_, order) in &keys[config.queue_keep.min(keys.len())..] {
                circuits[order] = None;
            }
            keys.truncate(config.queue_keep);
            queue = keys.into_iter().map(Reverse).collect();
        }
    }
    out.circuits_seen = seen.len();
    out
}

/// Asserts that an engine result agrees with the oracle on every outcome
/// field, and that the engine's hash-confirmation canary stayed silent.
pub fn assert_agrees(engine: &SearchResult, oracle: &OracleResult, what: &str) {
    assert_eq!(engine.best_cost, oracle.best_cost, "{what}: best cost");
    assert_eq!(
        engine.best_circuit, oracle.best_circuit,
        "{what}: best circuit"
    );
    assert_eq!(
        engine.initial_cost, oracle.initial_cost,
        "{what}: initial cost"
    );
    assert_eq!(engine.iterations, oracle.iterations, "{what}: iterations");
    assert_eq!(
        engine.circuits_seen, oracle.circuits_seen,
        "{what}: circuits seen"
    );
    assert_eq!(engine.dedup_hits, oracle.dedup_hits, "{what}: dedup hits");
    let trace: Vec<usize> = engine.improvement_trace.iter().map(|&(_, c)| c).collect();
    assert_eq!(trace, oracle.trace, "{what}: improvement trace");
    assert_eq!(
        engine.fp_confirm_mismatches, 0,
        "{what}: hash confirmation canary"
    );
}
