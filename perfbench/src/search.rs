//! The batch search workloads: `nam-quick` and `nam-large`.
//!
//! Closed loop: one caller submits the whole batch to
//! `OptimizationService::optimize_batch` and waits; the batch repeats until
//! the run's time is up. The seed permutes the batch order, which must not
//! change any circuit's outcome.

use crate::check;
use crate::metrics::{median, minimum, sanitize, setup_seconds, time_reps, Report};
use crate::sys::{cpu_seconds, Rng, RssSampler};
use crate::trace::{self, span};
use quartz_gen::{IndexScratch, LazyLibrary, TransformationIndex};
use quartz_ir::{Circuit, CircuitDag, StructuralHash};
use quartz_opt::{
    LibraryCache, MatchContext, OptimizationService, Optimizer, SearchConfig, SearchResult,
};
use quartz_serve::json::Json;
use quartz_serve::wire::Outcome;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Spec {
    /// Suite circuits with their pinned best cost at `budget`.
    pub circuits: &'static [(&'static str, usize)],
    pub budget: usize,
    pub threads: usize,
}

/// The 8 quick-suite circuits (40–175 gates) at the repo's 40-iteration
/// budget: per-dequeue overheads dominate, the worker pool is idle.
pub const NAM_QUICK: Spec = Spec {
    circuits: &[
        ("barenco_tof_3", 100),
        ("csla_mux_3", 112),
        ("mod5_4", 56),
        ("mod_mult_55", 152),
        ("rc_adder_6", 175),
        ("tof_3", 40),
        ("tof_5", 90),
        ("vbe_adder_3", 119),
    ],
    budget: 40,
    threads: 1,
};

/// Mid-size full-suite circuits (169–373 gates, at most 15 qubits): cost
/// per dequeue grows super-linearly with size, so matching, the match cache
/// and the worker pool do most of their work here.
pub const NAM_LARGE: Spec = Spec {
    circuits: &[
        ("barenco_tof_4", 169),
        ("barenco_tof_5", 238),
        ("gf2^4_mult", 240),
        ("gf2^5_mult", 373),
    ],
    budget: 10,
    threads: 2,
};

const NAM_ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../libraries/nam_n3_q2.qtzl");
/// Set-ups timed before the first batch and again before every batch, so
/// `setup_s` samples the host over the whole run, as `wall_s` does.
const SETUP_BURST: usize = 16;

/// The only engine knobs the benchmark sets; everything else is the
/// default engine, whatever later changes make it.
fn config(spec: &Spec, profile: bool) -> SearchConfig {
    SearchConfig {
        max_iterations: spec.budget,
        num_threads: spec.threads,
        timeout: Duration::from_secs(3600),
        profile,
        ..SearchConfig::default()
    }
}

/// The deterministic outcome of one search, encoded by the wire layer so
/// counters are read by name and a removed counter just goes absent.
fn outcome_json(result: &SearchResult) -> Json {
    Outcome::from_result(result).encode()
}

/// Sums a named counter over outcomes; `None` once any outcome lacks it.
fn counter_sum<'a>(outcomes: impl IntoIterator<Item = &'a Json>, name: &str) -> Option<f64> {
    outcomes
        .into_iter()
        .map(|o| o.get(name).and_then(Json::as_u64).map(|v| v as f64))
        .sum()
}

/// Engine counters of the traced operation, read by name.
pub fn report_counters(report: &mut Report, outcomes: &[Json]) {
    for name in [
        "iterations",
        "circuits_seen",
        "dedup_hits",
        "match_attempts",
        "matches_cached",
        "matches_recomputed",
        "fp_confirm_mismatches",
    ] {
        if let Some(v) = counter_sum(outcomes, name) {
            report.set(format!("opt.{name}"), v);
        }
    }
    if let (Some(hit), Some(miss)) = (
        counter_sum(outcomes, "matches_cached"),
        counter_sum(outcomes, "matches_recomputed"),
    ) {
        report.set(
            "opt.cache_hit_rate",
            if hit + miss > 0.0 {
                hit / (hit + miss)
            } else {
                0.0
            },
        );
    }
    if let Some(v) = counter_sum(outcomes, "fp_confirm_mismatches") {
        report.check(if v == 0.0 {
            Ok(())
        } else {
            Err(format!("{v} fingerprint confirm mismatches"))
        });
    }
}

struct Inputs {
    names: Vec<&'static str>,
    pinned: Vec<usize>,
    clifford_t: Vec<Circuit>,
}

struct Prepared {
    index: Arc<TransformationIndex>,
    batch: Vec<Circuit>,
    service: OptimizationService,
}

fn setup(spec: &Spec, inputs: &Inputs, profile: bool) -> Prepared {
    let library = {
        let _s = span("gen.library_load");
        LibraryCache::new()
            .get_or_load(NAM_ARTIFACT)
            .expect("committed NAM artifact loads")
    };
    let batch = {
        let _s = span("opt.preprocess");
        inputs
            .clifford_t
            .iter()
            .map(quartz_opt::preprocess_nam)
            .collect()
    };
    let index = library.shared_index();
    let service = OptimizationService::new(Optimizer::with_index(
        Arc::clone(&index),
        config(spec, profile),
    ));
    Prepared {
        index,
        batch,
        service,
    }
}

/// Checks the first batch's outputs: the pinned best cost and equivalence
/// to the Clifford+T input. Later batches must repeat it exactly.
fn check_outputs(report: &mut Report, inputs: &Inputs, results: &[SearchResult], seed: u64) {
    for (i, r) in results.iter().enumerate() {
        let name = inputs.names[i];
        let cost = if r.best_cost == inputs.pinned[i] {
            Ok(())
        } else {
            Err(format!(
                "{name}: best cost {} (pinned {})",
                r.best_cost, inputs.pinned[i]
            ))
        };
        report.check(cost);
        let _s = span("bench.check_equivalence");
        report.check(
            check::same_up_to_phase(&inputs.clifford_t[i], &r.best_circuit, seed ^ i as u64)
                .map_err(|e| format!("{name}: {e}")),
        );
    }
}

fn check_repeat(report: &mut Report, names: &[&str], expected: &[Json], got: &[Json], what: &str) {
    for ((name, e), g) in names.iter().zip(expected).zip(got) {
        report.check(if e == g {
            Ok(())
        } else {
            Err(format!(
                "{name}: outcome of {what} differs from the first batch"
            ))
        });
    }
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut order: Vec<usize> = (0..spec.circuits.len()).collect();
    Rng::new(seed).shuffle(&mut order);
    let inputs = Inputs {
        names: order.iter().map(|&i| spec.circuits[i].0).collect(),
        pinned: order.iter().map(|&i| spec.circuits[i].1).collect(),
        clifford_t: order
            .iter()
            .map(|&i| {
                quartz_circuits::suite::build_clifford_t(spec.circuits[i].0).expect("suite circuit")
            })
            .collect(),
    };
    for c in &inputs.clifford_t {
        assert!(
            c.num_qubits() <= check::MAX_QUBITS,
            "workload circuits must fit the equivalence check"
        );
    }

    let mut setup_s = Vec::new();
    let prepared = time_reps(&mut setup_s, SETUP_BURST, || setup(spec, &inputs, false));

    if traced {
        run_traced(spec, seed, &inputs, &prepared, &mut report);
        return report;
    }

    let sampler = RssSampler::start();
    let start = Instant::now();
    let mut spans = Vec::new();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<Json>> = None;
    while walls.is_empty() || start.elapsed().as_secs_f64() + median(&walls) / 2.0 < seconds {
        time_reps(&mut setup_s, SETUP_BURST, || setup(spec, &inputs, false));
        let (cpu0, t) = (cpu_seconds(), Instant::now());
        let results = prepared.service.optimize_batch(&prepared.batch);
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - cpu0);
        spans.push((t, Instant::now()));
        let outcomes: Vec<Json> = results.iter().map(outcome_json).collect();
        match &first {
            None => {
                check_outputs(&mut report, &inputs, &results, seed);
                report.set(
                    "total_best_cost",
                    results.iter().map(|r| r.best_cost as f64).sum(),
                );
                first = Some(outcomes);
            }
            Some(expected) => check_repeat(
                &mut report,
                &inputs.names,
                expected,
                &outcomes,
                "a repeated batch",
            ),
        }
    }
    report.set("setup_s", setup_seconds(&setup_s));
    report.set("wall_s", minimum(&walls));
    report.set("cpu_s", minimum(&cpus));
    let peak = sampler.finish();
    report.set(
        "peak_rss_mb",
        median(&spans.iter().map(|&(a, b)| peak(a, b)).collect::<Vec<_>>()),
    );
    report.set(
        "requests_per_s",
        spec.circuits.len() as f64 / minimum(&walls),
    );
    report
}

fn run_traced(spec: &Spec, seed: u64, inputs: &Inputs, prepared: &Prepared, report: &mut Report) {
    report.absent_reason = Some("not exercised by the search workloads");
    // Untraced reference batches, profiling off, on both sides of the
    // traced one so warm-up does not read as tracing overhead.
    let untraced_batch = || {
        let (cpu0, t) = (cpu_seconds(), Instant::now());
        let results = prepared.service.optimize_batch(&prepared.batch);
        (results, t.elapsed().as_secs_f64(), cpu_seconds() - cpu0)
    };
    let (untraced, wall_a, cpu_a) = untraced_batch();
    check_outputs(report, inputs, &untraced, seed);
    let expected: Vec<Json> = untraced.iter().map(outcome_json).collect();

    // Traced batch: spans on, `SearchConfig::profile` on.
    trace::set_enabled(true);
    let root = span("bench.nam_search");
    let profiled = setup(spec, inputs, true);
    let (cpu0, t) = (cpu_seconds(), Instant::now());
    let results = {
        let _s = span("opt.optimize_batch");
        profiled.service.optimize_batch(&profiled.batch)
    };
    let traced_wall = t.elapsed().as_secs_f64();
    let traced_cpu = cpu_seconds() - cpu0;
    let outcomes: Vec<Json> = results.iter().map(outcome_json).collect();
    check_repeat(
        report,
        &inputs.names,
        &expected,
        &outcomes,
        "the profiled batch",
    );
    report_counters(report, &outcomes);
    drop(root);

    trace::set_enabled(false);
    let (again, wall_b, cpu_b) = untraced_batch();
    trace::set_enabled(true);
    let root = span("bench.nam_search");
    check_repeat(
        report,
        &inputs.names,
        &expected,
        &again.iter().map(outcome_json).collect::<Vec<_>>(),
        "a repeated batch",
    );
    let untraced_wall = (wall_a + wall_b) / 2.0;
    report.set("bench.tracing_overhead", traced_wall / untraced_wall - 1.0);
    report.set(
        "rayon.cpu_utilization",
        (cpu_a + cpu_b) / (2.0 * untraced_wall * spec.threads as f64),
    );

    let mut phases = BTreeMap::<&str, f64>::new();
    for r in &results {
        for (name, secs) in r.profile.phases() {
            *phases.entry(name).or_default() += secs;
        }
    }
    for name in ["matching", "delta", "gamma_precheck", "preview", "dedup"] {
        if let Some(secs) = phases.get(name) {
            report.set(format!("opt.{name}_s"), *secs);
        }
    }
    // Busy (CPU) time of the traced batch that no profile phase covers; at
    // one thread this is its wall time minus the phases.
    report.set(
        "opt.unattributed_s",
        traced_cpu - phases.values().sum::<f64>(),
    );

    // Per-circuit rows: each circuit alone, profiling off. Its outcome must
    // equal the batch's, whatever the thread count and batch order.
    let standalone = Optimizer::with_index(Arc::clone(&prepared.index), config(spec, false));
    for (i, circuit) in prepared.batch.iter().enumerate() {
        let t = Instant::now();
        let r = {
            let _s = span("opt.optimize");
            standalone.optimize(circuit)
        };
        let wall = t.elapsed().as_secs_f64();
        let c = sanitize(inputs.names[i]);
        report.set(format!("opt.wall_s.{c}"), wall);
        report.set(
            format!("opt.iter_ms.{c}"),
            1e3 * wall / r.iterations.max(1) as f64,
        );
        report.set(format!("opt.best_cost.{c}"), r.best_cost as f64);
        check_repeat(
            report,
            &inputs.names[i..=i],
            &expected[i..=i],
            &[outcome_json(&r)],
            "the standalone run",
        );
    }

    probe_layers(report, &prepared.index, &prepared.batch);
    drop(root);
    for (layer, secs) in trace::self_seconds() {
        report.set(format!("{layer}.self_s"), secs);
    }
}

/// Average nanoseconds per call of `f`, which reports how many calls it
/// made; repeats until `min` has elapsed so short calls are timed in bulk.
fn ns_per_call(min: Duration, mut f: impl FnMut() -> usize) -> f64 {
    let (t, mut calls) = (Instant::now(), 0usize);
    while calls == 0 || t.elapsed() < min {
        calls += f();
    }
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Times the public layer calls the engine's hot loop makes, on the
/// workload's own circuits.
fn probe_layers(report: &mut Report, index: &TransformationIndex, circuits: &[Circuit]) {
    const MIN: Duration = Duration::from_millis(50);
    const MAX_DELTAS: usize = 4000;
    const MAX_DERIVES: usize = 200;
    let cost_model = SearchConfig::default().cost_model;
    let (mut scratch, mut ids) = (IndexScratch::new(), Vec::new());

    let dispatch_ns = {
        let _s = span("gen.index_dispatch");
        ns_per_call(MIN, || {
            for c in circuits {
                index.candidates_into(c.gate_histogram(), c.num_qubits(), &mut scratch, &mut ids);
                black_box(&ids);
            }
            circuits.len()
        })
    };
    report.set("gen.index_dispatch_ns", dispatch_ns);

    let dag_ns = {
        let _s = span("ir.dag_build");
        ns_per_call(MIN, || {
            for c in circuits {
                black_box(CircuitDag::from_circuit(c));
            }
            circuits.len()
        })
    };
    report.set("ir.dag_build_us", dag_ns * 1e-3);

    let (mut skip, mut match_ns, mut match_calls) = (0.0, 0.0, 0usize);
    let (mut preview_ns, mut cost_ns, mut derive_ns) = (Vec::new(), Vec::new(), Vec::new());
    for c in circuits {
        index.candidates_into(c.gate_histogram(), c.num_qubits(), &mut scratch, &mut ids);
        skip += 1.0 - ids.len() as f64 / index.len().max(1) as f64;
        let ctx = MatchContext::new(c);
        let mut deltas = Vec::new();
        {
            let _s = span("opt.find_matches");
            for &id in &ids {
                let xform = &index.transformations()[id];
                let t = Instant::now();
                let matches = black_box(ctx.find_matches(&xform.target));
                match_ns += t.elapsed().as_nanos() as f64;
                match_calls += 1;
                if deltas.len() < MAX_DELTAS {
                    deltas.extend(matches.iter().filter_map(|m| ctx.delta_for(xform, m)));
                }
            }
        }
        deltas.truncate(MAX_DELTAS);
        if deltas.is_empty() {
            continue;
        }
        let hash = StructuralHash::of(ctx.dag());
        {
            let _s = span("ir.preview");
            preview_ns.push(ns_per_call(MIN, || {
                for d in &deltas {
                    black_box(hash.preview(ctx.dag(), d));
                }
                deltas.len()
            }));
        }
        {
            let _s = span("ir.delta_cost");
            let coster = cost_model.delta_coster(ctx.dag());
            cost_ns.push(ns_per_call(MIN, || {
                for d in &deltas {
                    black_box(coster.cost_after(d));
                }
                deltas.len()
            }));
        }
        {
            let _s = span("opt.derive");
            let some = &deltas[..deltas.len().min(MAX_DERIVES)];
            derive_ns.push(ns_per_call(MIN, || {
                for d in some {
                    black_box(ctx.derive_with_footprint(d));
                }
                some.len()
            }));
        }
    }
    report.set("gen.index_skip_rate", skip / circuits.len() as f64);
    report.set(
        "opt.find_matches_us",
        match_ns * 1e-3 / match_calls.max(1) as f64,
    );
    report.set("ir.preview_ns", median(&preview_ns));
    report.set("ir.delta_cost_ns", median(&cost_ns));
    report.set("opt.derive_us", median(&derive_ns) * 1e-3);
    probe_library_open(report);
}

/// Cold library start: an eager load through a fresh cache, and a lazy open.
pub fn probe_library_open(report: &mut Report) {
    let mut load_ms = Vec::new();
    let mut open_us = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        {
            let _s = span("gen.library_load");
            black_box(
                LibraryCache::new()
                    .get_or_load(NAM_ARTIFACT)
                    .expect("committed NAM artifact loads"),
            );
        }
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        {
            let _s = span("gen.lazy_open");
            black_box(
                LazyLibrary::open(NAM_ARTIFACT).expect("committed NAM artifact opens lazily"),
            );
        }
        open_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.set("gen.library_load_ms", median(&load_ms));
    report.set("gen.lazy_open_us", median(&open_us));
}
