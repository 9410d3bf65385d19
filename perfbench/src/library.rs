//! The `library-build` workload: regenerate committed transformation
//! libraries with `Generator` + `prune` + pack, byte-compare each with its
//! committed artifact, then open the result through `LazyLibrary` and
//! `verify_all`. The only workload where `quartz-gen` enumeration,
//! `quartz-verify` and `quartz-math` do work.
//!
//! IBM n2 q2 is left out: one regeneration takes 11–16 s (97 % verifier),
//! longer than a run, so it cannot be repeated within one.

use crate::metrics::{median, minimum, setup_seconds, time_reps, Report};
use crate::sys::{cpu_seconds, RssSampler};
use crate::trace::{self, span};
use quartz_gen::{prune, GenConfig, Generator, LazyLibrary, Library};
use quartz_ir::{Circuit, GateSet};
use quartz_opt::{Optimizer, SearchConfig};
use std::hint::black_box;
use std::time::Instant;

struct Target {
    gate_set: fn() -> GateSet,
    n: usize,
    q: usize,
    m: usize,
    artifact: &'static str,
    preprocess: fn(&Circuit) -> Circuit,
    /// Probe search with the rebuilt library: circuit, budget, pinned cost.
    probe: (&'static str, usize, usize),
}

const TARGETS: [Target; 2] = [
    Target {
        gate_set: GateSet::nam,
        n: 3,
        q: 2,
        m: 2,
        artifact: concat!(env!("CARGO_MANIFEST_DIR"), "/../libraries/nam_n3_q2.qtzl"),
        preprocess: quartz_opt::preprocess_nam,
        probe: ("mod5_4", 5, 56),
    },
    Target {
        gate_set: GateSet::rigetti,
        n: 2,
        q: 2,
        m: 2,
        artifact: concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../libraries/rigetti_n2_q2.qtzl"
        ),
        preprocess: quartz_opt::preprocess_rigetti,
        probe: ("tof_3", 2, 128),
    },
];
/// Set-ups timed before the first rebuild; one more is timed before every
/// rebuild, so `setup_s` samples the host over the whole run.
const SETUP_BURST: usize = 16;

/// Generation statistics of one rebuild, for the traced run.
#[derive(Default, PartialEq, Debug)]
struct Counts {
    circuits_considered: usize,
    eccs: usize,
    transformations: usize,
}

#[derive(Default)]
struct Phases {
    enumerate_s: f64,
    verify_s: f64,
    prune_s: f64,
    pack_s: f64,
}

/// Rebuilds every target; returns the artifacts' bytes.
fn rebuild(counts: &mut Counts, phases: &mut Phases) -> Vec<Vec<u8>> {
    TARGETS
        .iter()
        .map(|target| {
            let gate_set = (target.gate_set)();
            let (raw, stats) = {
                let _s = span("gen.generate");
                Generator::new(
                    gate_set.clone(),
                    GenConfig::standard(target.n, target.q, target.m),
                )
                .run()
            };
            let t = Instant::now();
            let (pruned, _) = {
                let _s = span("gen.prune");
                prune(&raw)
            };
            phases.prune_s += t.elapsed().as_secs_f64();
            counts.circuits_considered += stats.circuits_considered;
            counts.eccs += pruned.len();
            counts.transformations += pruned.num_transformations();
            let t = Instant::now();
            let bytes = {
                let _s = span("gen.pack");
                Library::new(gate_set.name(), pruned, true).to_bytes()
            };
            phases.pack_s += t.elapsed().as_secs_f64();
            phases.verify_s += stats.verification_time.as_secs_f64();
            phases.enumerate_s += (stats.total_time - stats.verification_time).as_secs_f64();
            bytes
        })
        .collect()
}

/// The rebuilt bytes must equal the committed artifacts, and must open and
/// digest-verify through the lazy reader.
fn check_artifacts(report: &mut Report, built: &[Vec<u8>], committed: &[Vec<u8>]) {
    for ((target, bytes), reference) in TARGETS.iter().zip(built).zip(committed) {
        let verdict = if bytes != reference {
            Err(format!(
                "{}: rebuilt {} bytes differ from the committed {} bytes",
                target.artifact,
                bytes.len(),
                reference.len()
            ))
        } else {
            let _s = span("gen.lazy_open");
            LazyLibrary::from_bytes(bytes.clone())
                .and_then(|lazy| lazy.verify_all())
                .map_err(|e| format!("{}: lazy open/verify: {e}", target.artifact))
        };
        report.check(verdict);
    }
}

/// The best costs the rebuilt libraries reach on a small probe search each.
fn probe_search(report: &mut Report, built: &[Vec<u8>]) -> f64 {
    let mut total = 0.0;
    for (target, bytes) in TARGETS.iter().zip(built) {
        let (name, budget, pinned) = target.probe;
        let library = Library::from_bytes(bytes).expect("rebuilt artifact decodes");
        let config = SearchConfig {
            max_iterations: budget,
            num_threads: 1,
            ..SearchConfig::default()
        };
        let optimizer = Optimizer::from_ecc_set(library.ecc_set(), config);
        let input = quartz_circuits::suite::build_clifford_t(name).expect("suite circuit");
        let best = optimizer.optimize(&(target.preprocess)(&input)).best_cost;
        report.check(if best == pinned {
            Ok(())
        } else {
            Err(format!(
                "{name} with rebuilt {}: best cost {best} (pinned {pinned})",
                target.artifact
            ))
        });
        total += best as f64;
    }
    total
}

/// Set-up: read and decode the committed artifacts; returns their bytes.
fn load_committed() -> Vec<Vec<u8>> {
    TARGETS
        .iter()
        .map(|target| {
            let bytes = std::fs::read(target.artifact).expect("committed artifact is readable");
            black_box(Library::from_bytes(&bytes).expect("committed artifact decodes"));
            bytes
        })
        .collect()
}

pub fn run(seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let committed = time_reps(&mut setup_s, SETUP_BURST, load_committed);

    if traced {
        report.absent_reason = Some("not exercised by library-build");
        const REPS: usize = 15;
        let mut untraced = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(rebuild(&mut Counts::default(), &mut Phases::default()));
            untraced.push(t.elapsed().as_secs_f64());
        }
        trace::set_enabled(true);
        let root = span("bench.library_build");
        let mut traced_walls = Vec::new();
        let mut phases = Phases::default();
        let mut first_counts: Option<Counts> = None;
        for _ in 0..REPS {
            let mut counts = Counts::default();
            let t = Instant::now();
            let built = rebuild(&mut counts, &mut phases);
            traced_walls.push(t.elapsed().as_secs_f64());
            check_artifacts(&mut report, &built, &committed);
            match &first_counts {
                None => first_counts = Some(counts),
                Some(first) => report.check(if *first == counts {
                    Ok(())
                } else {
                    Err(format!(
                        "generation counts {counts:?} differ from {first:?}"
                    ))
                }),
            }
        }
        report.set(
            "bench.tracing_overhead",
            median(&traced_walls) / median(&untraced) - 1.0,
        );
        let reps = REPS as f64;
        report.set("gen.enumerate_s", phases.enumerate_s / reps);
        report.set("verify.generation_s", phases.verify_s / reps);
        report.set("gen.prune_s", phases.prune_s / reps);
        report.set("gen.pack_s", phases.pack_s / reps);
        let counts = first_counts.expect("at least one rebuild");
        report.set("gen.circuits_considered", counts.circuits_considered as f64);
        report.set("gen.eccs", counts.eccs as f64);
        report.set("gen.transformations", counts.transformations as f64);

        let mut query_ms = Vec::new();
        for (name, a, b) in quartz_bench::verifier_bench_pairs() {
            let _s = span("verify.check");
            for _ in 0..20 {
                let t = Instant::now();
                let equal = quartz_verify::Verifier::default().check(&a, &b);
                query_ms.push(t.elapsed().as_secs_f64() * 1e3);
                report.check(match equal {
                    Ok(true) => Ok(()),
                    other => Err(format!(
                        "verifier pair {name}: {other:?}, expected Ok(true)"
                    )),
                });
            }
        }
        report.set("verify.query_ms", median(&query_ms));
        let mut open_us = Vec::new();
        for target in &TARGETS {
            for _ in 0..5 {
                let t = Instant::now();
                let _s = span("gen.lazy_open");
                black_box(
                    LazyLibrary::open(target.artifact).expect("committed artifact opens lazily"),
                );
                open_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        report.set("gen.lazy_open_us", median(&open_us));
        drop(root);
        for (layer, secs) in trace::self_seconds() {
            report.set(format!("{layer}.self_s"), secs);
        }
        return report;
    }

    let sampler = RssSampler::start();
    let start = Instant::now();
    let mut spans = Vec::new();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut first: Option<(Vec<Vec<u8>>, Counts)> = None;
    while walls.is_empty() || start.elapsed().as_secs_f64() + median(&walls) / 2.0 < seconds {
        time_reps(&mut setup_s, 1, load_committed);
        let mut counts = Counts::default();
        let (cpu0, t) = (cpu_seconds(), Instant::now());
        let built = rebuild(&mut counts, &mut Phases::default());
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - cpu0);
        spans.push((t, Instant::now()));
        match &first {
            None => {
                check_artifacts(&mut report, &built, &committed);
                first = Some((built, counts));
            }
            Some((bytes, first_counts)) => {
                report.check(if *bytes == built && *first_counts == counts {
                    Ok(())
                } else {
                    Err("a repeated rebuild differs from the first".to_string())
                })
            }
        }
    }
    let (built, _) = first.expect("at least one rebuild");
    let total = probe_search(&mut report, &built);
    report.set("total_best_cost", total);
    report.set("setup_s", setup_seconds(&setup_s));
    report.set("wall_s", minimum(&walls));
    report.set("cpu_s", minimum(&cpus));
    let peak = sampler.finish();
    report.set(
        "peak_rss_mb",
        median(&spans.iter().map(|&(a, b)| peak(a, b)).collect::<Vec<_>>()),
    );
    report.set("requests_per_s", TARGETS.len() as f64 / minimum(&walls));
    report
}
