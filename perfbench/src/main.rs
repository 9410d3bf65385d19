//! The repository's benchmark: one process runs one workload, checks its
//! outputs, and prints one JSON line with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//!
//! ```text
//! perfbench --workload <nam-quick|nam-large|serve-mixed|library-build>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! perfbench --describe
//! ```
//!
//! `perfbench/run.py` builds this package and runs it; see
//! `perfbench/README.md` for what each workload and metric means.

mod check;
mod library;
mod metrics;
mod search;
mod serve;
mod sys;
mod trace;

use metrics::{end_to_end, per_layer, Def, Report};
use std::path::PathBuf;

const WORKLOADS: [&str; 4] = ["nam-quick", "nam-large", "serve-mixed", "library-build"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--describe") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let trace_out = value("--trace-out").ok().map(PathBuf::from);
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
    }))
}

fn all_circuits() -> Vec<&'static str> {
    [search::NAM_QUICK.circuits, search::NAM_LARGE.circuits]
        .concat()
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

fn describe(defs: &[Def]) -> String {
    let rows: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "  {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"exact_repeat\": {}, \"moves\": \"{}\"}}",
                d.name, d.unit, d.better, d.exact, d.moves
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!(
                "{{\"end_to_end\": {}, \"per_layer\": {}}}",
                describe(&end_to_end()),
                describe(&per_layer(&all_circuits()))
            );
            return;
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} cpus)",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report: Report = match args.workload.as_str() {
        "nam-quick" => search::run(&search::NAM_QUICK, args.seed, args.seconds, args.trace),
        "nam-large" => search::run(&search::NAM_LARGE, args.seed, args.seconds, args.trace),
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace),
        _ => library::run(args.seconds, args.trace),
    };
    if let Some(path) = &args.trace_out {
        if args.trace {
            match trace::write(path) {
                Ok(n) => eprintln!("perfbench: wrote {n} spans to {}", path.display()),
                Err(e) => eprintln!(
                    "perfbench: could not write spans to {}: {e}",
                    path.display()
                ),
            }
        }
    }
    let defs = if args.trace {
        per_layer(&all_circuits())
    } else {
        end_to_end()
    };
    let line = report.to_json(&defs, args.trace);
    println!("{line}");
    if !line.starts_with("{\"correct\": true") {
        std::process::exit(1);
    }
}
