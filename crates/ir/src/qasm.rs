//! A small OpenQASM 2.0 subset parser and printer.
//!
//! The supported subset covers the benchmark circuits used in the Quartz
//! evaluation: a single quantum register, the gates of
//! [`Gate`], and constant angles that are integer multiples of
//! π/4 (written `pi/4`, `-pi/2`, `3*pi/4`, `0`, …).

use crate::circuit::{Circuit, Instruction};
use crate::gate::Gate;
use crate::param::ParamExpr;
use std::fmt::Write as _;

/// Error returned by [`parse_qasm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QasmError {
    /// 1-based line number where the error occurred (0 when not applicable).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for QasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QASM parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for QasmError {}

/// Parses an OpenQASM 2.0 program (subset) into a [`Circuit`].
///
/// An `rx` with a constant angle of ±π/2 or π parses as the corresponding
/// fixed gate ([`Gate::Rx90`] / [`Gate::Rx90Neg`] / [`Gate::Rx180`]) rather
/// than a parametric [`Gate::Rx`] — see `restore_fixed_rotation` for the
/// ambiguity this resolves; any other `rx` angle stays parametric.
///
/// # Errors
///
/// Returns a [`QasmError`] on unsupported constructs, unknown gates, angle
/// expressions that are not integer multiples of π/4 or whose quarter-turn
/// count overflows `i32`, or malformed syntax.
pub fn parse_qasm(source: &str) -> Result<Circuit, QasmError> {
    let mut num_qubits: Option<usize> = None;
    let mut register: Option<String> = None;
    let mut instructions: Vec<Instruction> = Vec::new();

    for (lineno, raw_line) in source.lines().enumerate() {
        let line_number = lineno + 1;
        let line = strip_comment(raw_line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            if stmt.starts_with("OPENQASM")
                || stmt.starts_with("include")
                || stmt.starts_with("creg")
                || stmt.starts_with("barrier")
            {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("qreg") {
                let (name, size) = parse_register(rest.trim(), line_number)?;
                if num_qubits.is_some() {
                    return Err(err(
                        line_number,
                        "multiple qreg declarations are not supported",
                    ));
                }
                num_qubits = Some(size);
                register = Some(name);
                continue;
            }
            // Gate application: name[(args)] q[i], q[j], ...
            let nq = num_qubits.ok_or_else(|| err(line_number, "gate before qreg declaration"))?;
            let reg = register.clone().unwrap_or_else(|| "q".to_string());
            let instr = parse_gate_statement(stmt, &reg, nq, line_number)?;
            instructions.push(instr);
        }
    }

    let nq = num_qubits.ok_or_else(|| err(0, "no qreg declaration found"))?;
    let mut circuit = Circuit::new(nq, 0);
    for i in instructions {
        circuit.push(i);
    }
    Ok(circuit)
}

fn err(line: usize, message: impl Into<String>) -> QasmError {
    QasmError {
        line,
        message: message.into(),
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn parse_register(rest: &str, line: usize) -> Result<(String, usize), QasmError> {
    // Expect: name[N]
    let open = rest.find('[').ok_or_else(|| err(line, "malformed qreg"))?;
    let close = rest.find(']').ok_or_else(|| err(line, "malformed qreg"))?;
    let name = rest[..open].trim().to_string();
    let size: usize = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| err(line, "malformed qreg size"))?;
    Ok((name, size))
}

fn parse_gate_statement(
    stmt: &str,
    reg: &str,
    num_qubits: usize,
    line: usize,
) -> Result<Instruction, QasmError> {
    // Split off the gate name and optional parameter list.
    let (head, args_part) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(pos) if !stmt[..pos].contains('(') => {
            (stmt[..pos].to_string(), stmt[pos..].trim().to_string())
        }
        _ => {
            // Either "name(params) args" or malformed; find the closing paren.
            match stmt.find(')') {
                Some(close) => (
                    stmt[..=close].to_string(),
                    stmt[close + 1..].trim().to_string(),
                ),
                None => return Err(err(line, format!("cannot parse gate statement {stmt:?}"))),
            }
        }
    };

    let (name, params) = match head.find('(') {
        Some(open) => {
            let close = head
                .rfind(')')
                .ok_or_else(|| err(line, "unbalanced parentheses"))?;
            let name = head[..open].trim().to_string();
            let params_src = &head[open + 1..close];
            let params: Result<Vec<ParamExpr>, QasmError> = params_src
                .split(',')
                .map(|p| parse_angle(p.trim(), line))
                .collect();
            (name, params?)
        }
        None => (head.trim().to_string(), Vec::new()),
    };

    let gate = lookup_gate(&name).ok_or_else(|| err(line, format!("unknown gate {name:?}")))?;
    if params.len() != gate.num_params() {
        return Err(err(
            line,
            format!(
                "gate {name} expects {} parameter(s), got {}",
                gate.num_params(),
                params.len()
            ),
        ));
    }
    // `to_qasm` prints the fixed Rigetti rotations as `rx(±pi/2)` / `rx(pi)`
    // (standard tools have no rx90/rx90neg/rx180); map those constant angles
    // back to the fixed gates so a round trip preserves gate identity —
    // fingerprints, histograms, and Rigetti gate-set membership depend on it.
    let (gate, params) = restore_fixed_rotation(gate, params);

    let mut qubits = Vec::new();
    for arg in args_part.split(',') {
        let arg = arg.trim();
        if arg.is_empty() {
            continue;
        }
        let open = arg
            .find('[')
            .ok_or_else(|| err(line, format!("expected qubit reference, got {arg:?}")))?;
        let close = arg
            .find(']')
            .ok_or_else(|| err(line, "malformed qubit reference"))?;
        let rname = arg[..open].trim();
        if rname != reg {
            return Err(err(line, format!("unknown register {rname:?}")));
        }
        let idx: usize = arg[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| err(line, "malformed qubit index"))?;
        if idx >= num_qubits {
            return Err(err(line, format!("qubit index {idx} out of range")));
        }
        qubits.push(idx);
    }
    if qubits.len() != gate.num_qubits() {
        return Err(err(
            line,
            format!(
                "gate {name} expects {} qubit(s), got {}",
                gate.num_qubits(),
                qubits.len()
            ),
        ));
    }
    Ok(Instruction::new(gate, qubits, params))
}

/// Maps a parametric `rx` whose constant angle is ±π/2 or π to the
/// corresponding fixed gate ([`Gate::Rx90`] / [`Gate::Rx90Neg`] /
/// [`Gate::Rx180`]); any other gate or angle is returned unchanged.
///
/// The QASM text `rx(pi/2)` is inherently ambiguous: it prints both
/// [`Gate::Rx90`] and a parametric [`Gate::Rx`] at constant π/2 (same
/// unitary, different gate identity). The parser resolves the ambiguity in
/// favor of the fixed gates so that Rigetti-gate-set circuits round-trip
/// losslessly; the flip side is that a parametric `Rx` at exactly ±π/2 or π
/// comes back as the fixed gate — semantics preserved, identity not.
fn restore_fixed_rotation(gate: Gate, params: Vec<ParamExpr>) -> (Gate, Vec<ParamExpr>) {
    if gate == Gate::Rx {
        if let [angle] = params.as_slice() {
            if angle.is_constant() {
                match angle.const_pi4() {
                    2 => return (Gate::Rx90, Vec::new()),
                    -2 => return (Gate::Rx90Neg, Vec::new()),
                    4 => return (Gate::Rx180, Vec::new()),
                    _ => {}
                }
            }
        }
    }
    (gate, params)
}

fn lookup_gate(name: &str) -> Option<Gate> {
    match name {
        "cnot" | "CX" => Some(Gate::Cnot),
        "p" | "u1" => Some(Gate::U1),
        "toffoli" => Some(Gate::Ccx),
        _ => Gate::from_name(name),
    }
}

/// Parses a constant angle expression that is an integer multiple of π/4.
fn parse_angle(src: &str, line: usize) -> Result<ParamExpr, QasmError> {
    let s = src.replace(' ', "");
    if s.is_empty() {
        return Err(err(line, "empty angle expression"));
    }
    if s == "0" {
        return Ok(ParamExpr::constant_pi4(0));
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest.to_string()),
        None => (false, s.clone()),
    };
    // Accepted forms: pi, pi/2, pi/4, k*pi, k*pi/2, k*pi/4, and decimal
    // multiples of π/4 such as 0.25*pi.
    let quarters: Option<i64> = if body == "pi" {
        Some(4)
    } else if body == "pi/2" {
        Some(2)
    } else if body == "pi/4" {
        Some(1)
    } else if let Some(mult) = body.strip_suffix("*pi") {
        parse_multiplier(mult)
            .map(|q| q * 4.0)
            .and_then(int_if_whole)
    } else if let Some(mult) = body.strip_suffix("*pi/2") {
        parse_multiplier(mult)
            .map(|q| q * 2.0)
            .and_then(int_if_whole)
    } else if let Some(mult) = body.strip_suffix("*pi/4") {
        parse_multiplier(mult).and_then(int_if_whole)
    } else if let Ok(v) = body.parse::<f64>() {
        let q = v / std::f64::consts::FRAC_PI_4;
        int_if_whole(q)
    } else {
        None
    };
    match quarters {
        Some(q) => {
            let q = if neg { -q } else { q };
            let q = i32::try_from(q).map_err(|_| {
                err(
                    line,
                    format!("angle {src:?} out of range: {q} quarter-turns overflow i32"),
                )
            })?;
            Ok(ParamExpr::constant_pi4(q))
        }
        None => Err(err(
            line,
            format!("unsupported angle {src:?}: only integer multiples of pi/4 are supported"),
        )),
    }
}

fn parse_multiplier(src: &str) -> Option<f64> {
    src.parse::<f64>().ok()
}

fn int_if_whole(v: f64) -> Option<i64> {
    let rounded = v.round();
    if (v - rounded).abs() < 1e-9 {
        Some(rounded as i64)
    } else {
        None
    }
}

/// Serializes a circuit to OpenQASM 2.0.
///
/// Parametric gates must have constant (π/4-multiple) arguments; symbolic
/// parameters cannot be expressed in QASM and are rendered as `p<i>` which
/// standard tools will not parse (useful only for debugging output).
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    for instr in circuit.instructions() {
        let name = qasm_gate_name(instr.gate);
        let mut line = name.to_string();
        if !instr.params.is_empty() {
            let params: Vec<String> = instr.params.iter().map(angle_to_qasm).collect();
            line.push('(');
            line.push_str(&params.join(","));
            line.push(')');
        }
        let qubits: Vec<String> = instr.qubits.iter().map(|q| format!("q[{q}]")).collect();
        let _ = writeln!(out, "{} {};", line, qubits.join(","));
    }
    out
}

fn qasm_gate_name(gate: Gate) -> &'static str {
    match gate {
        Gate::Rx90 => "rx(pi/2)",
        Gate::Rx90Neg => "rx(-pi/2)",
        Gate::Rx180 => "rx(pi)",
        g => g.name(),
    }
}

fn angle_to_qasm(expr: &ParamExpr) -> String {
    if expr.is_constant() {
        let q = expr.const_pi4();
        match q {
            0 => "0".to_string(),
            4 => "pi".to_string(),
            -4 => "-pi".to_string(),
            2 => "pi/2".to_string(),
            -2 => "-pi/2".to_string(),
            1 => "pi/4".to_string(),
            -1 => "-pi/4".to_string(),
            _ => format!("{q}*pi/4"),
        }
    } else {
        expr.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELL: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
"#;

    #[test]
    fn parse_bell() {
        let c = parse_qasm(BELL).unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.instructions()[0].gate, Gate::H);
        assert_eq!(c.instructions()[1].gate, Gate::Cnot);
        assert_eq!(c.instructions()[1].qubits, vec![0, 1]);
    }

    #[test]
    fn parse_angles() {
        let src = "qreg q[1]; t q[0]; rz(pi/4) q[0]; rz(-pi/2) q[0]; u1(3*pi/4) q[0]; rz(0) q[0];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.gate_count(), 5);
        assert_eq!(c.instructions()[1].params[0].const_pi4(), 1);
        assert_eq!(c.instructions()[2].params[0].const_pi4(), -2);
        assert_eq!(c.instructions()[3].params[0].const_pi4(), 3);
        assert_eq!(c.instructions()[4].params[0].const_pi4(), 0);
    }

    #[test]
    fn parse_ccx_and_comments() {
        let src = "// a comment\nqreg q[3];\nccx q[0], q[1], q[2]; // toffoli\n";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.gate_count(), 1);
        assert_eq!(c.instructions()[0].gate, Gate::Ccx);
    }

    #[test]
    fn reject_unknown_gate_and_bad_angle() {
        assert!(parse_qasm("qreg q[1]; frobnicate q[0];").is_err());
        assert!(parse_qasm("qreg q[1]; rz(pi/3) q[0];").is_err());
        assert!(parse_qasm("qreg q[1]; h q[7];").is_err());
        assert!(parse_qasm("h q[0];").is_err());
    }

    #[test]
    fn round_trip() {
        let src = "qreg q[3]; h q[0]; t q[1]; cx q[0], q[2]; rz(pi/2) q[1]; ccx q[0], q[1], q[2];";
        let c = parse_qasm(src).unwrap();
        let qasm = to_qasm(&c);
        let c2 = parse_qasm(&qasm).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn float_angle_that_is_quarter_pi_multiple() {
        let src = "qreg q[1]; rz(1.5707963267948966) q[0];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.instructions()[0].params[0].const_pi4(), 2);
    }

    #[test]
    fn fixed_rx_gates_survive_a_round_trip() {
        let mut c = Circuit::new(1, 0);
        c.push(Instruction::new(Gate::Rx90, vec![0], vec![]));
        c.push(Instruction::new(Gate::Rx90Neg, vec![0], vec![]));
        c.push(Instruction::new(Gate::Rx180, vec![0], vec![]));
        let qasm = to_qasm(&c);
        let back = parse_qasm(&qasm).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.gate_histogram(), c.gate_histogram());
    }

    #[test]
    fn rx_with_constant_special_angles_parses_as_fixed_gates() {
        let src =
            "qreg q[1]; rx(pi/2) q[0]; rx(-pi/2) q[0]; rx(pi) q[0]; rx(-pi) q[0]; rx(pi/4) q[0];";
        let c = parse_qasm(src).unwrap();
        let gates: Vec<Gate> = c.instructions().iter().map(|i| i.gate).collect();
        // ±π/2 and π map to the fixed Rigetti gates; −π and π/4 have no
        // fixed counterpart and stay parametric.
        assert_eq!(
            gates,
            vec![Gate::Rx90, Gate::Rx90Neg, Gate::Rx180, Gate::Rx, Gate::Rx]
        );
        assert_eq!(c.instructions()[3].params[0].const_pi4(), -4);
        assert_eq!(c.instructions()[4].params[0].const_pi4(), 1);
    }

    #[test]
    fn out_of_range_angles_error_instead_of_wrapping() {
        for src in [
            "qreg q[1]; rz(2000000000*pi) q[0];",
            "qreg q[1]; rz(-2000000000*pi) q[0];",
            "qreg q[1]; u1(1e300*pi/4) q[0];",
        ] {
            let result = parse_qasm(src);
            assert!(result.is_err(), "{src} should be rejected");
            assert!(
                result.unwrap_err().message.contains("out of range"),
                "{src} should report an out-of-range angle"
            );
        }
        // The largest representable quarter-counts still parse.
        let max = format!("qreg q[1]; rz({}*pi/4) q[0];", i32::MAX);
        assert_eq!(
            parse_qasm(&max).unwrap().instructions()[0].params[0].const_pi4(),
            i32::MAX
        );
    }
}
