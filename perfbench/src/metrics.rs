//! The metric catalogue and the per-run report.
//!
//! Every metric the benchmark prints is declared here once, with its unit,
//! its direction, whether it is an exact-repeat count (the same value on
//! every run of the same code, asserted inside a run and citable as a count
//! by later changes), and — for per-layer metrics — the end-to-end metric
//! and workload it is expected to move. `BENCHMARK.json` lists the same
//! names; `perfbench --describe` prints this table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Exact-repeat: equal on every run of the same code.
    pub exact: bool,
    /// End-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

fn def(
    name: &str,
    unit: &'static str,
    better: &'static str,
    exact: bool,
    moves: &'static str,
) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
        exact,
        moves,
    }
}

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", "lower", false, "library load + index, daemon boot + bind, or reference load; 10th percentile of set-ups timed throughout the run"),
        def("wall_s", "s", "lower", false, "wall time of the fastest timed operation (serve-mixed: first due time to last terminal)"),
        def("cpu_s", "s", "lower", false, "least process user+sys CPU of one timed operation (serve-mixed: of the open loop)"),
        def("peak_rss_mb", "MB", "lower", false, "median over operations of the sampled peak resident set"),
        def("total_best_cost", "count", "lower", true, "sum of best costs; pinned per workload"),
        def("requests_per_s", "1/s", "higher", false, "circuits or artifacts per second of the fastest operation (serve-mixed: requests per second of the open loop)"),
    ]
}

/// Per-layer metrics: printed by every workload with `--trace 1`; a layer a
/// workload does not exercise reads 0 and is named on stderr.
pub fn per_layer(circuits: &[&str]) -> Vec<Def> {
    let mut defs = vec![
        def("opt.matching_s", "s", "lower", false, "wall_s on nam-large"),
        def("opt.delta_s", "s", "lower", false, "wall_s on nam-quick"),
        def(
            "opt.gamma_precheck_s",
            "s",
            "lower",
            false,
            "wall_s on nam-quick",
        ),
        def("opt.preview_s", "s", "lower", false, "wall_s on nam-quick"),
        def("opt.dedup_s", "s", "lower", false, "wall_s on nam-quick"),
        def(
            "opt.unattributed_s",
            "s",
            "lower",
            false,
            "wall_s on nam-quick",
        ),
        def(
            "opt.find_matches_us",
            "us",
            "lower",
            false,
            "wall_s on nam-large; less on nam-quick",
        ),
        def(
            "opt.derive_us",
            "us",
            "lower",
            false,
            "wall_s on nam-large; less on nam-quick",
        ),
        def(
            "opt.iterations",
            "count",
            "higher",
            true,
            "explains wall_s on nam-quick and nam-large",
        ),
        def(
            "opt.circuits_seen",
            "count",
            "lower",
            true,
            "explains wall_s on nam-quick and nam-large",
        ),
        def(
            "opt.dedup_hits",
            "count",
            "lower",
            true,
            "explains wall_s on nam-quick and nam-large",
        ),
        def(
            "opt.match_attempts",
            "count",
            "lower",
            true,
            "explains wall_s on nam-quick and nam-large",
        ),
        def(
            "opt.matches_cached",
            "count",
            "higher",
            true,
            "explains wall_s on nam-quick and nam-large",
        ),
        def(
            "opt.matches_recomputed",
            "count",
            "lower",
            true,
            "explains wall_s on nam-quick and nam-large",
        ),
        def(
            "opt.cache_hit_rate",
            "ratio",
            "higher",
            true,
            "explains wall_s on nam-quick and nam-large",
        ),
        def(
            "opt.fp_confirm_mismatches",
            "count",
            "lower",
            true,
            "must be 0 on nam-quick, nam-large, serve-mixed",
        ),
        def(
            "gen.index_dispatch_ns",
            "ns",
            "lower",
            false,
            "wall_s on nam-large; less on nam-quick",
        ),
        def(
            "gen.index_skip_rate",
            "ratio",
            "higher",
            true,
            "wall_s on nam-large; less on nam-quick",
        ),
        def("ir.preview_ns", "ns", "lower", false, "wall_s on nam-quick"),
        def(
            "ir.dag_build_us",
            "us",
            "lower",
            false,
            "wall_s on nam-quick",
        ),
        def(
            "ir.delta_cost_ns",
            "ns",
            "lower",
            false,
            "wall_s on nam-quick",
        ),
        def(
            "ir.qasm_parse_us",
            "us",
            "lower",
            false,
            "serve.latency_ms_p50 on serve-mixed",
        ),
        def(
            "gen.library_load_ms",
            "ms",
            "lower",
            false,
            "setup_s on nam-quick and serve-mixed",
        ),
        def(
            "gen.lazy_open_us",
            "us",
            "lower",
            false,
            "setup_s on nam-quick and serve-mixed",
        ),
        def(
            "gen.enumerate_s",
            "s",
            "lower",
            false,
            "wall_s on library-build",
        ),
        def(
            "gen.prune_s",
            "s",
            "lower",
            false,
            "wall_s on library-build",
        ),
        def("gen.pack_s", "s", "lower", false, "wall_s on library-build"),
        def(
            "gen.circuits_considered",
            "count",
            "lower",
            true,
            "wall_s on library-build",
        ),
        def(
            "gen.eccs",
            "count",
            "higher",
            true,
            "wall_s on library-build",
        ),
        def(
            "gen.transformations",
            "count",
            "higher",
            true,
            "wall_s on library-build",
        ),
        def(
            "verify.generation_s",
            "s",
            "lower",
            false,
            "wall_s on library-build; no move elsewhere",
        ),
        def(
            "verify.query_ms",
            "ms",
            "lower",
            false,
            "wall_s on library-build; no move elsewhere",
        ),
    ];
    for endpoint in [
        "latency",
        "submit",
        "status",
        "result",
        "queue_wait",
        "run",
        "overhead",
    ] {
        for p in ["p50", "p90"] {
            defs.push(Def {
                name: format!("serve.{endpoint}_ms_{p}"),
                unit: "ms",
                better: "lower",
                exact: false,
                moves: if endpoint == "latency" {
                    "user-seen latency of serve-mixed, due time to terminal; not gated (see README)"
                } else {
                    "serve.latency_ms_p90 and the error rate on serve-mixed"
                },
            });
        }
    }
    defs.extend([
        def(
            "serve.rejected_429",
            "count",
            "lower",
            true,
            "error_rate on serve-mixed",
        ),
        def(
            "serve.http_errors",
            "count",
            "lower",
            true,
            "error_rate on serve-mixed",
        ),
        def(
            "serve.rss_growth_mb",
            "MB",
            "lower",
            false,
            "peak_rss_mb on serve-mixed",
        ),
        def(
            "rayon.cpu_utilization",
            "ratio",
            "higher",
            false,
            "wall_s on nam-large; no move on nam-quick (1 thread)",
        ),
        def(
            "bench.send_lag_p90_ms",
            "ms",
            "lower",
            false,
            "harness health on serve-mixed",
        ),
        def(
            "bench.send_lag_max_ms",
            "ms",
            "lower",
            false,
            "harness health on serve-mixed",
        ),
        def(
            "bench.tracing_overhead",
            "ratio",
            "lower",
            false,
            "harness health: traced wall / untraced wall - 1",
        ),
    ]);
    for layer in crate::trace::LAYERS {
        defs.push(Def {
            name: format!("{layer}.self_s"),
            unit: "s",
            better: "lower",
            exact: false,
            moves: "self time of the layer's spans in the traced operation",
        });
    }
    for circuit in circuits {
        let c = sanitize(circuit);
        defs.push(Def {
            name: format!("opt.wall_s.{c}"),
            unit: "s",
            better: "lower",
            exact: false,
            moves: "wall_s on its workload",
        });
        defs.push(Def {
            name: format!("opt.iter_ms.{c}"),
            unit: "ms",
            better: "lower",
            exact: false,
            moves: "wall_s on its workload",
        });
        defs.push(Def {
            name: format!("opt.best_cost.{c}"),
            unit: "count",
            better: "lower",
            exact: true,
            moves: "total_best_cost on its workload",
        });
    }
    defs
}

/// Metric-name form of a circuit name: `[A-Za-z0-9_.-]` only.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub values: BTreeMap<String, f64>,
    /// Per-layer metrics this workload does not exercise, with the reason.
    pub absent_reason: Option<&'static str>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Counts one checked output; a failed check is recorded and printed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            eprintln!("check failed: {message}");
            self.failures.push(message);
        }
    }

    /// The final JSON line: the requested metric set, in catalogue order.
    pub fn to_json(&self, defs: &[Def], layered: bool) -> String {
        let mut failures = self.failures.clone();
        let mut metrics = String::new();
        for d in defs {
            let value = match self.values.get(&d.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    failures.push(format!("{} is not finite ({v})", d.name));
                    0.0
                }
                None if layered => {
                    eprintln!(
                        "absent: {} ({})",
                        d.name,
                        self.absent_reason
                            .unwrap_or("not exercised by this workload")
                    );
                    0.0
                }
                None => {
                    failures.push(format!("end-to-end metric {} was not measured", d.name));
                    0.0
                }
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        let failed = failures.len() as u64;
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
            failed == 0,
            self.attempted.max(failed).max(1),
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A run's `setup_s`: the 10th percentile of its set-ups. Interference from
/// the host only adds time, so the low tail is the least disturbed; the very
/// fastest millisecond set-up is not used, as it has rare outliers below the
/// rest.
pub fn setup_seconds(samples: &[f64]) -> f64 {
    percentile(samples, 0.1)
}

pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Calls `f` `reps` times, pushing each call's seconds onto `samples`, and
/// returns the last result. Earlier results are dropped outside the timed
/// interval.
pub fn time_reps<T>(samples: &mut Vec<f64>, reps: usize, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        let value = std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    last.expect("at least one call")
}

/// Percentile with the "exclusive" interpolation of Python's
/// `statistics.quantiles`, clamped to the sample range.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let h = (n as f64 + 1.0) * q;
    if h <= 1.0 {
        return sorted[0];
    }
    if h >= n as f64 {
        return sorted[n - 1];
    }
    let lo = h.floor() as usize;
    sorted[lo - 1] + (h - lo as f64) * (sorted[lo] - sorted[lo - 1])
}
