//! `quartz-lib` — pack, inspect and verify persisted transformation-library
//! artifacts (the `QTZL` format of DESIGN.md §7).
//!
//! ```text
//! quartz-lib generate --gate-set nam|ibm|rigetti --n N --q Q [--m M] --out FILE
//!     Run RepGen + pruning and pack the result, with its prebuilt
//!     transformation index, as a binary artifact.
//!
//! quartz-lib pack --in SET.json --out SET.qtzl [--gate-set NAME]
//!     Convert an ECC-set JSON file to a binary artifact (with its index).
//!
//! quartz-lib unpack --in SET.qtzl --out SET.json
//!     Convert a binary artifact back to interchange JSON.
//!
//! quartz-lib inspect FILE
//!     Dump the header and index statistics of an artifact.
//!
//! quartz-lib verify-checksum FILE [--deep]
//!     Validate the header, the artifact checksum (every byte), that both
//!     sections decode, and the generator version. With
//!     --deep, additionally decode the payload, re-pack it with the current
//!     generator pipeline, and require byte-identical output (catches a
//!     stale prebuilt index or a stale encoder).
//!
//! quartz-lib audit FILE [--json] [--write-stamp] [--threads N]
//!     Run the static analyzer (DESIGN.md §11) over an artifact: re-verify
//!     every equivalence class semantically (parallel) and apply the
//!     structural lints. Errors exit 1, warnings don't. --write-stamp
//!     certifies a clean audit of the whole file in the FILE.audit
//!     sidecar; --json prints the machine-readable report.
//!
//! quartz-lib mutate --in FILE --out FILE
//!     Corrupt one transformation semantically — replace a single
//!     instruction's gate in one class member — and re-pack with a *valid*
//!     checksum. The output is indistinguishable from a sound artifact to
//!     every integrity check and must be caught by `audit` alone (the CI
//!     seeded-mutation check greps the printed location out of the audit
//!     report).
//! ```
//!
//! Exits 0 on success, 1 on any validation or I/O failure, 2 on a usage
//! error.

use quartz_gen::{
    prune, AuditConfig, AuditStamp, Auditor, Ecc, EccSet, GenConfig, Generator, LazyLibrary,
    Library, GENERATOR_VERSION,
};
use quartz_ir::{Circuit, GateSet, Instruction, ALL_GATES};
use quartz_verify::Verifier;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "generate" => generate(rest),
        "pack" => pack(rest),
        "unpack" => unpack(rest),
        "inspect" => inspect(rest),
        "verify-checksum" => verify_checksum(rest),
        "audit" => audit(rest),
        "mutate" => mutate(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("quartz-lib: unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("quartz-lib {command}: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Runtime(msg)) => {
            eprintln!("quartz-lib {command}: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  quartz-lib generate --gate-set nam|ibm|rigetti --n N --q Q [--m M] --out FILE
  quartz-lib pack --in SET.json --out SET.qtzl [--gate-set NAME]
  quartz-lib unpack --in SET.qtzl --out SET.json
  quartz-lib inspect FILE
  quartz-lib verify-checksum FILE [--deep]
  quartz-lib audit FILE [--json] [--write-stamp] [--threads N]
  quartz-lib mutate --in FILE --out FILE";

enum Failure {
    Usage(String),
    Runtime(String),
}

fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

fn runtime(msg: impl std::fmt::Display) -> Failure {
    Failure::Runtime(msg.to_string())
}

/// Minimal `--flag value` / `--switch` / positional argument scanner.
struct Args<'a> {
    args: &'a [String],
    used: Vec<bool>,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args {
            args,
            used: vec![false; args.len()],
        }
    }

    fn value_of(&mut self, flag: &str) -> Result<Option<&'a str>, Failure> {
        for i in 0..self.args.len() {
            if self.args[i] == flag && !self.used[i] {
                let value = self
                    .args
                    .get(i + 1)
                    .ok_or_else(|| usage(format!("{flag} needs a value")))?;
                self.used[i] = true;
                self.used[i + 1] = true;
                return Ok(Some(value));
            }
        }
        Ok(None)
    }

    fn required(&mut self, flag: &str) -> Result<&'a str, Failure> {
        self.value_of(flag)?
            .ok_or_else(|| usage(format!("missing required {flag}")))
    }

    fn switch(&mut self, flag: &str) -> bool {
        for i in 0..self.args.len() {
            if self.args[i] == flag && !self.used[i] {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn positional(&mut self) -> Option<&'a str> {
        for i in 0..self.args.len() {
            if !self.used[i] && !self.args[i].starts_with("--") {
                self.used[i] = true;
                return Some(&self.args[i]);
            }
        }
        None
    }

    fn finish(self) -> Result<(), Failure> {
        match self.used.iter().position(|&u| !u) {
            Some(i) => Err(usage(format!("unexpected argument {:?}", self.args[i]))),
            None => Ok(()),
        }
    }
}

fn parse_number(what: &str, value: &str) -> Result<usize, Failure> {
    value.parse::<usize>().map_err(|_| {
        usage(format!(
            "{what} must be a non-negative integer, got {value:?}"
        ))
    })
}

fn gate_set_by_name(name: &str) -> Result<GateSet, Failure> {
    match name.to_ascii_lowercase().as_str() {
        "nam" => Ok(GateSet::nam()),
        "ibm" => Ok(GateSet::ibm()),
        "rigetti" => Ok(GateSet::rigetti()),
        "clifford_t" | "cliffordt" => Ok(GateSet::clifford_t()),
        other => Err(usage(format!(
            "unknown gate set {other:?} (expected nam, ibm, rigetti, or clifford_t)"
        ))),
    }
}

fn default_params(gate_set: &GateSet) -> usize {
    // The paper's §7.1 parameter counts per gate set.
    if gate_set.name() == "IBM" {
        4
    } else {
        2
    }
}

fn generate(args: &[String]) -> Result<(), Failure> {
    let mut args = Args::new(args);
    let gate_set = gate_set_by_name(args.required("--gate-set")?)?;
    let n = parse_number("--n", args.required("--n")?)?;
    let q = parse_number("--q", args.required("--q")?)?;
    let m = match args.value_of("--m")? {
        Some(v) => parse_number("--m", v)?,
        None => default_params(&gate_set),
    };
    let out = args.required("--out")?.to_string();
    args.finish()?;

    eprintln!("generating {} (n={n}, q={q}, m={m}) ...", gate_set.name());
    let (raw, stats) = Generator::new(gate_set.clone(), GenConfig::standard(n, q, m)).run();
    let (pruned, _) = prune(&raw);
    let classes = pruned.len();
    let library = Library::new(gate_set.name(), pruned, true);
    eprintln!(
        "  {classes} classes, {} transformations indexed, generated in {:.2?}",
        library.index().map_or(0, |index| index.len()),
        stats.total_time
    );
    library.save(&out).map_err(runtime)?;
    eprintln!("wrote {out} ({} bytes)", library.byte_len());
    Ok(())
}

fn pack(args: &[String]) -> Result<(), Failure> {
    let mut args = Args::new(args);
    let input = args.required("--in")?.to_string();
    let out = args.required("--out")?.to_string();
    // Known gate-set names are normalized to their canonical spelling
    // (`nam` → `Nam`) so packing is byte-stable; unknown names pass through.
    let gate_set_raw = args.value_of("--gate-set")?.unwrap_or("unknown");
    let gate_set = gate_set_by_name(gate_set_raw)
        .map(|g| g.name().to_string())
        .unwrap_or_else(|_| gate_set_raw.to_string());
    args.finish()?;

    let set = EccSet::load(&input).map_err(runtime)?;
    let library = Library::new(gate_set, set, true);
    library.save(&out).map_err(runtime)?;
    eprintln!(
        "packed {input} -> {out} ({} classes, {} bytes)",
        library.header().num_eccs,
        library.byte_len()
    );
    Ok(())
}

fn unpack(args: &[String]) -> Result<(), Failure> {
    let mut args = Args::new(args);
    let input = args.required("--in")?.to_string();
    let out = args.required("--out")?.to_string();
    args.finish()?;

    let library = Library::load(&input).map_err(runtime)?;
    library.ecc_set().save(&out).map_err(runtime)?;
    eprintln!(
        "unpacked {input} -> {out} ({} classes, {} circuits)",
        library.header().num_eccs,
        library.header().total_circuits
    );
    Ok(())
}

fn inspect(args: &[String]) -> Result<(), Failure> {
    let mut args = Args::new(args);
    let path = args
        .positional()
        .ok_or_else(|| usage("missing artifact path"))?
        .to_string();
    args.finish()?;

    let library = LazyLibrary::open(&path).map_err(runtime)?;
    let h = library.header();
    println!("{path}: quartz transformation library (QTZL)");
    println!("  format version:     {}", h.format_version);
    println!("  generator version:  {}", h.generator_version);
    println!("  gate set:           {}", h.gate_set);
    println!(
        "  (n, q, m):          ({}, {}, {})",
        h.max_gates, h.num_qubits, h.num_params
    );
    println!("  classes:            {}", h.num_eccs);
    println!("  circuits:           {}", h.total_circuits);
    println!("  instructions:       {}", h.total_instructions);
    println!("  ecc payload:        {} bytes", h.ecc_len);
    println!(
        "  prebuilt index:     {}",
        if h.has_index() {
            format!("{} bytes", h.index_len)
        } else {
            "absent".to_string()
        }
    );
    println!("  checksum:           {:#018x}", h.checksum);
    if let Some(index) = library.index().map_err(runtime)? {
        println!("  transformations:    {}", index.len());
    }
    Ok(())
}

fn audit(args: &[String]) -> Result<(), Failure> {
    let mut args = Args::new(args);
    let json = args.switch("--json");
    let write_stamp = args.switch("--write-stamp");
    let threads = match args.value_of("--threads")? {
        Some(v) => parse_number("--threads", v)?,
        None => 0,
    };
    let path = args
        .positional()
        .ok_or_else(|| usage("missing artifact path"))?
        .to_string();
    args.finish()?;

    let auditor = Auditor::new(AuditConfig {
        threads,
        ..AuditConfig::default()
    });
    let report = auditor.audit_artifact(Path::new(&path)).map_err(runtime)?;
    if json {
        print!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    if let Some(stamp) = report.stamp() {
        if write_stamp {
            stamp
                .save_for(Path::new(&path))
                .map_err(|e| runtime(format!("writing sidecar: {e}")))?;
            eprintln!(
                "wrote {}",
                AuditStamp::sidecar_path(Path::new(&path)).display()
            );
        }
        Ok(())
    } else {
        Err(runtime(format!(
            "{path}: audit failed with {} error(s)",
            report.errors()
        )))
    }
}

/// Same-shape replacement gates for `instr`, preferring gates *outside*
/// `gate_set` so the mutation also trips the instruction-level gate-set
/// lint (which carries the full ecc/circuit/instruction location).
fn replacement_gates(instr: &Instruction, gate_set: Option<&GateSet>) -> Vec<quartz_ir::Gate> {
    let mut candidates: Vec<quartz_ir::Gate> = ALL_GATES
        .into_iter()
        .filter(|g| {
            *g != instr.gate
                && g.num_qubits() == instr.qubits.len()
                && g.num_params() == instr.params.len()
        })
        .collect();
    if let Some(gs) = gate_set {
        candidates.sort_by_key(|g| gs.contains(*g));
    }
    candidates
}

fn mutate(args: &[String]) -> Result<(), Failure> {
    let mut args = Args::new(args);
    let input = args.required("--in")?.to_string();
    let out = args.required("--out")?.to_string();
    args.finish()?;

    let library = Library::load(&input).map_err(runtime)?;
    let header = library.header().clone();
    let set = library.ecc_set().clone();
    let gate_set = gate_set_by_name(&header.gate_set).ok();

    // Find the first (class, member, instruction, replacement gate) whose
    // mutation the verifier can prove unsound against the representative.
    // `Ecc::new` re-sorts circuits by precedence, so the printed location
    // uses the mutant's *post-sort* index — the one the audit reports.
    for (e, ecc) in set.eccs.iter().enumerate() {
        if ecc.len() < 2 {
            continue;
        }
        for c in 1..ecc.len() {
            let original = &ecc.circuits()[c];
            for (i, instr) in original.instructions().iter().enumerate() {
                for gate in replacement_gates(instr, gate_set.as_ref()) {
                    let mut mutated = Circuit::new(original.num_qubits(), original.num_params());
                    for (k, ins) in original.instructions().iter().enumerate() {
                        mutated.push(if k == i {
                            Instruction::new(gate, ins.qubits.clone(), ins.params.clone())
                        } else {
                            ins.clone()
                        });
                    }
                    // The mutation must be provably unsound, and must not
                    // collide with another member (which would make the
                    // post-sort index ambiguous).
                    let mut verifier = Verifier::default();
                    let still_equivalent = verifier
                        .check(ecc.representative(), &mutated)
                        .unwrap_or(true);
                    if still_equivalent || ecc.circuits().contains(&mutated) {
                        continue;
                    }
                    let mut circuits = ecc.circuits().to_vec();
                    circuits[c] = mutated.clone();
                    let new_ecc = Ecc::new(circuits);
                    let new_idx = new_ecc
                        .circuits()
                        .iter()
                        .position(|cc| *cc == mutated)
                        .expect("the mutant was just inserted");
                    if new_idx == 0 {
                        // The mutant sorted into the representative slot;
                        // the audit would blame the other members. Pick a
                        // different site for an unambiguous location.
                        continue;
                    }
                    let mut new_set = set.clone();
                    new_set.eccs[e] = new_ecc;
                    let mutated_library =
                        Library::new(header.gate_set.clone(), new_set, header.has_index());
                    mutated_library.save(&out).map_err(runtime)?;
                    println!(
                        "mutated {input} -> {out}: class {e} member {c}, instruction {i} \
                         {:?} -> {gate:?} (checksum re-packed: {:#018x})",
                        instr.gate,
                        mutated_library.header().checksum
                    );
                    println!("location: ecc {e} / circuit {new_idx} / instruction {i}");
                    return Ok(());
                }
            }
        }
    }
    Err(runtime(format!(
        "{input}: found no instruction whose mutation the verifier can prove unsound"
    )))
}

fn verify_checksum(args: &[String]) -> Result<(), Failure> {
    let mut args = Args::new(args);
    let deep = args.switch("--deep");
    let path = args
        .positional()
        .ok_or_else(|| usage("missing artifact path"))?
        .to_string();
    args.finish()?;

    let library = LazyLibrary::open(&path).map_err(runtime)?;
    library
        .verify_all()
        .map_err(|e| runtime(format!("{path}: {e}")))?;
    let header = library.header();
    if header.generator_version != GENERATOR_VERSION {
        return Err(runtime(format!(
            "{path}: artifact was produced by generator version {} but this build is version \
             {GENERATOR_VERSION} — regenerate it (quartz-lib generate --gate-set {} --n {} --q {} \
             --m {})",
            header.generator_version,
            header.gate_set.to_ascii_lowercase(),
            header.max_gates,
            header.num_qubits,
            header.num_params
        )));
    }
    println!("{path}: checksum {:#018x} ok", header.checksum);
    if deep {
        let set = library.ecc_set().map_err(runtime)?;
        let bytes = std::fs::read(&path).map_err(|e| runtime(format!("{path}: {e}")))?;
        let repacked = Library::new(header.gate_set.clone(), set, header.has_index());
        if repacked.to_bytes() != bytes {
            return Err(runtime(format!(
                "{path}: artifact is stale — re-packing its own payload with the current \
                 pipeline produces different bytes (regenerate it)"
            )));
        }
        println!("{path}: deep verification ok (payload decodes, re-pack is byte-identical)");
    }
    Ok(())
}
