//! Diff two bench reports (`BENCH_baseline.json` vs a fresh
//! `BENCH_search.json`), separating *outcome* drift from *effort* drift.
//!
//! The search engine's determinism contract says outcome fields — best
//! costs, iteration counts, deduplication totals, and the
//! `fp_confirm_mismatches` canary — are a pure function of the inputs, so
//! any change against the committed baseline is a regression (or an
//! intentional engine change that must re-commit the baseline). Effort
//! fields (match attempts, cache hits, …) also replay exactly, but a
//! legitimate optimization shifts them, so drift there only warns. Timing
//! metrics (`*_secs`, rates, speedups, per-sec throughputs) are machine-
//! dependent noise and are skipped entirely.
//!
//! Usage: `bench_diff <baseline.json> <fresh.json>`. Exits non-zero iff an
//! outcome field differs (or a file fails to parse). Only suites present in
//! both reports are compared, so a baseline generated at one scale can
//! gate runs that add extra suites. A metric only the fresh report has (a
//! new profile phase, say) is listed as new and never fails the diff.

use quartz_bench::report::BenchReport;
use std::process::ExitCode;

/// Metric keys whose values are deterministic search *outcomes*: an exact
/// match against the baseline is required.
const OUTCOME_KEYS: [&str; 5] = [
    "total_best_cost",
    "best_cost",
    "iterations",
    "dedup_hits",
    "fp_confirm_mismatches",
];

/// Whether a metric is machine-dependent (timing/throughput) and skipped.
fn is_timing(key: &str) -> bool {
    ["secs", "speedup", "per_sec", "rate"]
        .iter()
        .any(|t| key.contains(t))
}

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_diff <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("bench_diff: {err}");
            }
            return ExitCode::from(2);
        }
    };

    let mut compared = 0usize;
    let mut regressions = 0usize;
    let mut warnings = 0usize;
    let mut added = 0usize;
    for (name, base_suite) in baseline.suites() {
        let Some(fresh_suite) = fresh.get_suite(name) else {
            continue;
        };
        for (key, _) in fresh_suite.metrics() {
            if base_suite.get(key).is_none() {
                println!("new      {name}/{key}: absent from {baseline_path}");
                added += 1;
            }
        }
        for (key, base_value) in base_suite.metrics() {
            if is_timing(key) {
                continue;
            }
            let Some(fresh_value) = fresh_suite.get(key) else {
                println!("MISSING  {name}/{key}: absent from {fresh_path}");
                warnings += 1;
                continue;
            };
            compared += 1;
            // NaN (encoded null) compares equal to NaN here: a metric that
            // was unmeasurable in both runs is not drift.
            if base_value == fresh_value || (base_value.is_nan() && fresh_value.is_nan()) {
                continue;
            }
            if OUTCOME_KEYS.contains(&key) {
                println!("OUTCOME  {name}/{key}: baseline {base_value} != fresh {fresh_value}");
                regressions += 1;
            } else {
                println!("effort   {name}/{key}: baseline {base_value} -> fresh {fresh_value}");
                warnings += 1;
            }
        }
    }

    println!(
        "bench_diff: {compared} metrics compared, {regressions} outcome regressions, \
         {warnings} effort warnings, {added} new metrics"
    );
    if regressions > 0 {
        eprintln!(
            "bench_diff: outcome fields diverged from {baseline_path}; either a \
             determinism regression or an intentional engine change that must \
             re-commit the baseline"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
