//! JSON interchange for [`EccSet`]: a shape mapping over the workspace's one
//! JSON codec, [`quartz_ir::json`].
//!
//! ECC sets are the only artifact that needs durable *textual*
//! serialization (they are the product of expensive generation runs, and
//! JSON is the interchange format the original Quartz tooling reads). For
//! the compact binary format services load at startup, see
//! [`crate::library`] (`quartz-lib pack` converts between the two).
//!
//! Decoding errors carry source context: every syntax *and* shape error is
//! reported with the line, column, and byte offset of the offending value,
//! e.g. `unknown gate "nope" at line 3, column 18 (byte 57)`. Syntax errors
//! come from the parser; shape errors are found on the parsed tree by a
//! [`Node`] walk and positioned with [`json::locate`].
//!
//! The format matches what `serde_json` would produce for the derive
//! annotations on these types:
//!
//! ```json
//! {"num_qubits":2,"num_params":1,"eccs":[{"circuits":[
//!   {"num_qubits":2,"num_params":1,"instructions":[
//!     {"gate":"rz","qubits":[0],"params":[{"coeffs":[1],"const_pi4":0}]}
//!   ]}
//! ]}]}
//! ```

use crate::ecc::{Ecc, EccSet};
use quartz_ir::json::{self, Json};
use quartz_ir::{Circuit, Gate, Instruction, ParamExpr};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serializes an ECC set to compact JSON.
pub fn ecc_set_to_json(set: &EccSet) -> String {
    let eccs = set
        .eccs
        .iter()
        .map(|ecc| {
            let circuits = ecc.circuits().iter().map(circuit_to_json).collect();
            object([("circuits", Json::Array(circuits))])
        })
        .collect();
    object([
        ("num_qubits", int(set.num_qubits)),
        ("num_params", int(set.num_params)),
        ("eccs", Json::Array(eccs)),
    ])
    .to_string()
}

fn circuit_to_json(circuit: &Circuit) -> Json {
    let instructions = circuit
        .instructions()
        .iter()
        .map(|instr| {
            let params = instr
                .params
                .iter()
                .map(|p| {
                    object([
                        (
                            "coeffs",
                            Json::Array(p.coeffs().iter().map(|&c| Json::Int(c.into())).collect()),
                        ),
                        ("const_pi4", Json::Int(p.const_pi4().into())),
                    ])
                })
                .collect();
            object([
                ("gate", Json::Str(instr.gate.name().to_string())),
                (
                    "qubits",
                    Json::Array(instr.qubits.iter().map(|&q| int(q)).collect()),
                ),
                ("params", Json::Array(params)),
            ])
        })
        .collect();
    object([
        ("num_qubits", int(circuit.num_qubits())),
        ("num_params", int(circuit.num_params())),
        ("instructions", Json::Array(instructions)),
    ])
}

/// An object with the given members, in order.
pub(crate) fn object<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Object(members.map(|(k, v)| (k.to_string(), v)).into())
}

/// A count or index as a JSON integer.
pub(crate) fn int(n: usize) -> Json {
    Json::Int(n as i128)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Deserializes an ECC set from a JSON string.
///
/// # Errors
///
/// Returns a description of the first syntax or shape error encountered,
/// including the line, column, and byte offset of the offending value.
pub fn ecc_set_from_json(input: &str) -> Result<EccSet, String> {
    let value = json::parse(input).map_err(|e| e.to_string())?;
    decode_set(Node::root(&value)).map_err(|e| e.render(input))
}

fn decode_set(set: Node<'_>) -> Result<EccSet, ShapeError> {
    set.object("ECC set")?;
    let num_qubits = set.field("num_qubits")?.usize("num_qubits")?;
    let num_params = set.field("num_params")?.usize("num_params")?;
    let mut out = EccSet::new(num_qubits, num_params);
    for ecc in set.field("eccs")?.items("eccs")? {
        ecc.object("ECC")?;
        let circuits = ecc
            .field("circuits")?
            .items("circuits")?
            .map(|c| decode_circuit(&c, num_qubits, num_params))
            .collect::<Result<Vec<_>, _>>()?;
        if circuits.is_empty() {
            return Err(ecc.error("an ECC must contain at least one circuit"));
        }
        out.eccs.push(Ecc::new(circuits));
    }
    Ok(out)
}

/// Decodes one member circuit. Like the artifact decoder, it admits a
/// member narrower than the set's `(q, m)`, never a wider one.
fn decode_circuit(
    node: &Node<'_>,
    set_qubits: usize,
    set_params: usize,
) -> Result<Circuit, ShapeError> {
    node.object("circuit")?;
    let num_qubits = node.field("num_qubits")?.usize("num_qubits")?;
    let num_params = node.field("num_params")?.usize("num_params")?;
    if num_qubits > set_qubits || num_params > set_params {
        return Err(node.error(format!(
            "circuit over {num_qubits} qubits and {num_params} parameters exceeds the set's \
             q = {set_qubits} and m = {set_params}"
        )));
    }
    let mut circuit = Circuit::new(num_qubits, num_params);
    for instr in node.field("instructions")?.items("instructions")? {
        circuit.push(decode_instruction(&instr, num_qubits, num_params)?);
    }
    Ok(circuit)
}

fn decode_instruction(
    node: &Node<'_>,
    num_qubits: usize,
    num_params: usize,
) -> Result<Instruction, ShapeError> {
    node.object("instruction")?;
    let gate_node = node.field("gate")?;
    let gate_name = gate_node.str("gate")?;
    let gate = Gate::from_name(gate_name)
        .ok_or_else(|| gate_node.error(format!("unknown gate {gate_name:?}")))?;
    let mut qubits = Vec::new();
    for q_node in node.field("qubits")?.items("qubits")? {
        let q = q_node.usize("qubit operand")?;
        if q >= num_qubits {
            return Err(q_node.error(format!(
                "qubit {q} out of range for circuit with {num_qubits} qubits"
            )));
        }
        if qubits.contains(&q) {
            return Err(q_node.error(format!("repeated qubit operand {q} for gate {gate_name}")));
        }
        qubits.push(q);
    }
    if qubits.len() != gate.num_qubits() {
        return Err(node.error(format!(
            "gate {gate_name} expects {} qubit operands, got {}",
            gate.num_qubits(),
            qubits.len()
        )));
    }
    let mut params = Vec::new();
    for p in node.field("params")?.items("params")? {
        p.object("parameter expression")?;
        let coeffs = p
            .field("coeffs")?
            .items("coeffs")?
            .map(|c| c.i32("parameter coefficient"))
            .collect::<Result<Vec<_>, _>>()?;
        if coeffs.len() != num_params {
            return Err(p.error(format!(
                "parameter expression has {} coefficients, circuit has {num_params} parameters",
                coeffs.len()
            )));
        }
        let const_pi4 = p.field("const_pi4")?.i32("const_pi4")?;
        params.push(ParamExpr::from_parts(coeffs, const_pi4));
    }
    if params.len() != gate.num_params() {
        return Err(node.error(format!(
            "gate {gate_name} expects {} parameters, got {}",
            gate.num_params(),
            params.len()
        )));
    }
    Ok(Instruction::new(gate, qubits, params))
}

// ---------------------------------------------------------------------------
// Positioned shape checks over a parsed tree
// ---------------------------------------------------------------------------

/// A value of a parsed document together with the chain of child indices
/// that reached it (each node borrows its parent, so the walk allocates
/// nothing). A shape error records that path; [`ShapeError::render`] turns
/// it into a line/column/byte position with [`json::locate`].
#[derive(Clone, Copy)]
pub(crate) struct Node<'a> {
    value: &'a Json,
    step: usize,
    parent: Option<&'a Node<'a>>,
}

/// What is wrong with a decoded document, and the path to the value it is
/// wrong about.
pub(crate) struct ShapeError {
    message: String,
    path: Vec<usize>,
}

impl ShapeError {
    /// The error as text, positioned in `input` (the text the tree was
    /// parsed from).
    pub(crate) fn render(self, input: &str) -> String {
        json::locate(input, &self.path, self.message).to_string()
    }
}

impl<'a> Node<'a> {
    /// The document root.
    pub(crate) fn root(value: &'a Json) -> Self {
        Node {
            value,
            step: 0,
            parent: None,
        }
    }

    /// An error about this value.
    pub(crate) fn error(&self, message: impl Into<String>) -> ShapeError {
        let mut path = Vec::new();
        let mut node = self;
        while let Some(parent) = node.parent {
            path.push(node.step);
            node = parent;
        }
        path.reverse();
        ShapeError {
            message: message.into(),
            path,
        }
    }

    fn expected(&self, what: &str, kind: &str) -> ShapeError {
        let found = match self.value {
            Json::Null => "null".to_string(),
            Json::Bool(b) => format!("boolean {b}"),
            Json::Int(n) => format!("integer {n}"),
            Json::Float(f) => format!("number {f}"),
            Json::Str(s) => format!("string {s:?}"),
            Json::Array(_) => "an array".to_string(),
            Json::Object(_) => "an object".to_string(),
        };
        self.error(format!("expected {what} to be {kind}, found {found}"))
    }

    /// Checks that this value is an object.
    pub(crate) fn object(&self, what: &str) -> Result<(), ShapeError> {
        match self.value {
            Json::Object(_) => Ok(()),
            _ => Err(self.expected(what, "an object")),
        }
    }

    /// The first member named `name` of this object (an error positioned
    /// at the object when it is missing).
    pub(crate) fn field<'b>(&'b self, name: &str) -> Result<Node<'b>, ShapeError> {
        let members: &'b [(String, Json)] = match self.value {
            Json::Object(members) => members,
            _ => &[],
        };
        match members.iter().position(|(k, _)| k == name) {
            Some(step) => Ok(Node {
                value: &members[step].1,
                step,
                parent: Some(self),
            }),
            None => Err(self.error(format!("missing field {name:?}"))),
        }
    }

    /// The items of this array.
    pub(crate) fn items<'b>(
        &'b self,
        what: &str,
    ) -> Result<impl Iterator<Item = Node<'b>> + 'b, ShapeError> {
        let this: &'b Node<'b> = self;
        match this.value {
            Json::Array(items) => Ok(items.iter().enumerate().map(move |(step, value)| Node {
                value,
                step,
                parent: Some(this),
            })),
            _ => Err(self.expected(what, "an array")),
        }
    }

    /// This value as a string.
    pub(crate) fn str(&self, what: &str) -> Result<&'a str, ShapeError> {
        match self.value {
            Json::Str(s) => Ok(s),
            _ => Err(self.expected(what, "a string")),
        }
    }

    /// This value as a non-negative integer.
    pub(crate) fn usize(&self, what: &str) -> Result<usize, ShapeError> {
        match self.value.as_usize() {
            Some(n) => Ok(n),
            None => Err(self.expected(what, "a non-negative integer")),
        }
    }

    fn i32(&self, what: &str) -> Result<i32, ShapeError> {
        match self.value {
            Json::Int(n) => {
                i32::try_from(*n).map_err(|_| self.error(format!("{what} out of i32 range: {n}")))
            }
            _ => Err(self.expected(what, "an integer")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_shapes_are_reported() {
        assert!(ecc_set_from_json("[1,2]").is_err());
        assert!(
            ecc_set_from_json(r#"{"num_qubits":1,"num_params":0,"eccs":[{"circuits":[]}]}"#)
                .is_err()
        );
        let bad_gate = r#"{"num_qubits":1,"num_params":0,"eccs":[{"circuits":[
            {"num_qubits":1,"num_params":0,"instructions":[{"gate":"nope","qubits":[0],"params":[]}]}
        ]}]}"#;
        assert!(ecc_set_from_json(bad_gate)
            .unwrap_err()
            .contains("unknown gate"));
        let bad_arity = r#"{"num_qubits":2,"num_params":0,"eccs":[{"circuits":[
            {"num_qubits":2,"num_params":0,"instructions":[{"gate":"cx","qubits":[0],"params":[]}]}
        ]}]}"#;
        assert!(ecc_set_from_json(bad_arity)
            .unwrap_err()
            .contains("qubit operands"));
        // A member wider than its set: the artifact decoder would refuse it,
        // so `quartz-lib pack` must not write it. The error points at the
        // circuit (line 2, past the 12 spaces of indentation).
        let wide_member = r#"{"num_qubits":1,"num_params":0,"eccs":[{"circuits":[
            {"num_qubits":1,"num_params":1,"instructions":[{"gate":"rz","qubits":[0],"params":[{"coeffs":[1],"const_pi4":0}]}]}
        ]}]}"#;
        let err = ecc_set_from_json(wide_member).unwrap_err();
        assert!(
            err.contains("exceeds the set's q = 1 and m = 0") && err.contains("line 2, column 13"),
            "{err}"
        );
    }

    #[test]
    fn errors_carry_line_and_column_context() {
        // The bogus gate name sits on line 2; the error must say so, and
        // must point at the gate string, not the document start.
        let bad_gate = "{\"num_qubits\":1,\"num_params\":0,\"eccs\":[{\"circuits\":[\n  \
            {\"num_qubits\":1,\"num_params\":0,\"instructions\":[{\"gate\":\"nope\",\"qubits\":[0],\"params\":[]}]}\n\
            ]}]}";
        let err = ecc_set_from_json(bad_gate).unwrap_err();
        assert!(err.contains("unknown gate \"nope\""), "{err}");
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("byte "), "{err}");

        // Syntax errors carry the offset of the offending byte.
        let err = ecc_set_from_json("{\"num_qubits\":1,\n!").unwrap_err();
        assert!(err.contains("line 2, column 1"), "{err}");

        // A shape error on a nested value points at that value.
        let err =
            ecc_set_from_json(r#"{"num_qubits":"one","num_params":0,"eccs":[]}"#).unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
        assert!(err.contains("byte 14"), "{err}");

        // Columns count characters, not bytes: the two-byte 'π' before the
        // offending '!' (byte 6 but the 6th character, not the 7th) must
        // not shift the reported column.
        let err = ecc_set_from_json("{\"π\":!}").unwrap_err();
        assert!(err.contains("column 6 (byte 6)"), "{err}");
        let err = ecc_set_from_json("{\"ππ\":!}").unwrap_err();
        assert!(err.contains("column 7 (byte 8)"), "{err}");
    }
}
