//! Typed wire messages for the daemon's JSON protocol.
//!
//! Every message has an `encode` (to [`Json`]) and a `parse` (from
//! [`Json`]) half, and `parse(encode(m)) == m` is enforced by round-trip
//! proptests. Parsing is strict: missing or ill-typed fields produce a
//! [`WireError`] naming the field, never a default-filled value.
//!
//! The [`Outcome`] carries the **full deterministic outcome field set** of
//! a [`SearchResult`]: every counter the search maintains, the best
//! circuit as QASM, and the improvement trace projected to its cost
//! component. Wall-clock (`elapsed_ms`) rides along *outside* the outcome
//! object, because it is measurement, not outcome — the determinism
//! acceptance tests compare `Outcome`s bit-for-bit and ignore timing.

use crate::json::Json;
use quartz_ir::{parse_qasm, to_qasm, Circuit};
use quartz_opt::{Priority, RequestState, SearchResult};

/// A field-level protocol error: which field, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Dotted path of the offending field (e.g. `"outcome.best_cost"`).
    pub field: String,
    /// What went wrong.
    pub message: String,
}

impl WireError {
    fn new(field: impl Into<String>, message: impl Into<String>) -> WireError {
        WireError {
            field: field.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "field '{}': {}", self.field, self.message)
    }
}

impl std::error::Error for WireError {}

fn require<'a>(json: &'a Json, field: &str) -> Result<&'a Json, WireError> {
    json.get(field)
        .ok_or_else(|| WireError::new(field, "missing"))
}

fn require_str(json: &Json, field: &str) -> Result<String, WireError> {
    require(json, field)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| WireError::new(field, "expected a string"))
}

fn require_usize(json: &Json, field: &str) -> Result<usize, WireError> {
    require(json, field)?
        .as_usize()
        .ok_or_else(|| WireError::new(field, "expected a non-negative integer"))
}

fn require_u64(json: &Json, field: &str) -> Result<u64, WireError> {
    require(json, field)?
        .as_u64()
        .ok_or_else(|| WireError::new(field, "expected a non-negative integer"))
}

fn optional_usize(json: &Json, field: &str) -> Result<Option<usize>, WireError> {
    match json.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| WireError::new(field, "expected a non-negative integer")),
    }
}

fn optional_u64(json: &Json, field: &str) -> Result<Option<u64>, WireError> {
    match json.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError::new(field, "expected a non-negative integer")),
    }
}

fn optional_str(json: &Json, field: &str) -> Result<Option<String>, WireError> {
    match json.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| WireError::new(field, "expected a string")),
    }
}

/// A `POST /v1/submit` body.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// The circuit to optimize, as OpenQASM 2.0.
    pub qasm: String,
    /// Gate-set library to route to: `"nam"`, `"ibm"`, or `"rigetti"`.
    /// Defaults to `"nam"` when omitted.
    pub gate_set: String,
    /// Iteration budget; `None` means unbounded (run to queue exhaustion
    /// or deadline).
    pub budget: Option<usize>,
    /// Per-request deadline in milliseconds, checked between steps.
    pub deadline_ms: Option<u64>,
    /// Scheduling class; defaults to [`Priority::Normal`].
    pub priority: Priority,
}

impl SubmitRequest {
    /// A submit for `qasm` against the default (`nam`) library.
    pub fn new(qasm: impl Into<String>) -> SubmitRequest {
        SubmitRequest {
            qasm: qasm.into(),
            gate_set: "nam".to_string(),
            budget: None,
            deadline_ms: None,
            priority: Priority::Normal,
        }
    }

    /// Encodes to the JSON body.
    pub fn encode(&self) -> Json {
        let mut members = vec![
            ("qasm".to_string(), Json::Str(self.qasm.clone())),
            ("gate_set".to_string(), Json::Str(self.gate_set.clone())),
        ];
        if let Some(budget) = self.budget {
            members.push(("budget".to_string(), Json::Int(budget as i128)));
        }
        if let Some(deadline) = self.deadline_ms {
            members.push(("deadline_ms".to_string(), Json::Int(deadline as i128)));
        }
        members.push((
            "priority".to_string(),
            Json::Str(self.priority.name().to_string()),
        ));
        Json::Object(members)
    }

    /// Parses a JSON body, defaulting `gate_set` and `priority`.
    pub fn parse(json: &Json) -> Result<SubmitRequest, WireError> {
        let qasm = require_str(json, "qasm")?;
        let gate_set = optional_str(json, "gate_set")?.unwrap_or_else(|| "nam".to_string());
        match gate_set.as_str() {
            "nam" | "ibm" | "rigetti" => {}
            other => {
                return Err(WireError::new(
                    "gate_set",
                    format!("unknown gate set '{other}' (expected nam, ibm, or rigetti)"),
                ))
            }
        }
        let budget = optional_usize(json, "budget")?;
        let deadline_ms = optional_u64(json, "deadline_ms")?;
        let priority = match optional_str(json, "priority")? {
            None => Priority::Normal,
            Some(s) => Priority::parse(&s).ok_or_else(|| {
                WireError::new(
                    "priority",
                    format!("unknown priority '{s}' (expected high, normal, or low)"),
                )
            })?,
        };
        Ok(SubmitRequest {
            qasm,
            gate_set,
            budget,
            deadline_ms,
            priority,
        })
    }

    /// Parses and validates the QASM payload, reporting the parse position
    /// on failure.
    pub fn circuit(&self) -> Result<Circuit, WireError> {
        parse_qasm(&self.qasm)
            .map_err(|e| WireError::new("qasm", format!("line {}: {}", e.line, e.message)))
    }
}

/// A `POST /v1/submit` success body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitResponse {
    /// The id to poll `status`/`result` with.
    pub id: u64,
}

impl SubmitResponse {
    /// Encodes to the JSON body.
    pub fn encode(&self) -> Json {
        Json::Object(vec![("id".to_string(), Json::Int(self.id as i128))])
    }

    /// Parses a JSON body.
    pub fn parse(json: &Json) -> Result<SubmitResponse, WireError> {
        Ok(SubmitResponse {
            id: require_u64(json, "id")?,
        })
    }
}

/// A `GET /v1/status/<id>` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusResponse {
    /// The request id.
    pub id: u64,
    /// `"running"`, `"done"`, `"cancelled"`, or `"deadline_expired"`.
    pub state: RequestState,
    /// The scheduling class.
    pub priority: Priority,
    /// Best cost found so far.
    pub best_cost: usize,
    /// Input circuit cost.
    pub initial_cost: usize,
    /// Iterations spent so far.
    pub iterations: usize,
    /// The iteration budget (`None` on the wire when unbounded).
    pub budget: Option<usize>,
}

impl StatusResponse {
    /// Encodes to the JSON body.
    pub fn encode(&self) -> Json {
        let mut members = vec![
            ("id".to_string(), Json::Int(self.id as i128)),
            (
                "state".to_string(),
                Json::Str(self.state.name().to_string()),
            ),
            (
                "priority".to_string(),
                Json::Str(self.priority.name().to_string()),
            ),
            ("best_cost".to_string(), Json::Int(self.best_cost as i128)),
            (
                "initial_cost".to_string(),
                Json::Int(self.initial_cost as i128),
            ),
            ("iterations".to_string(), Json::Int(self.iterations as i128)),
        ];
        members.push((
            "budget".to_string(),
            match self.budget {
                Some(b) => Json::Int(b as i128),
                None => Json::Null,
            },
        ));
        Json::Object(members)
    }

    /// Parses a JSON body.
    pub fn parse(json: &Json) -> Result<StatusResponse, WireError> {
        let state_name = require_str(json, "state")?;
        let state = RequestState::parse(&state_name)
            .ok_or_else(|| WireError::new("state", format!("unknown state '{state_name}'")))?;
        let priority_name = require_str(json, "priority")?;
        let priority = Priority::parse(&priority_name).ok_or_else(|| {
            WireError::new("priority", format!("unknown priority '{priority_name}'"))
        })?;
        Ok(StatusResponse {
            id: require_u64(json, "id")?,
            state,
            priority,
            best_cost: require_usize(json, "best_cost")?,
            initial_cost: require_usize(json, "initial_cost")?,
            iterations: require_usize(json, "iterations")?,
            budget: optional_usize(json, "budget")?,
        })
    }
}

/// The deterministic outcome field set of a finished request: every search
/// counter, the best circuit as QASM, and the improvement trace projected
/// to costs. Everything here is reproducible bit-for-bit across thread
/// counts, admission orders, and co-tenant faults; wall-clock lives
/// outside this struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The best circuit found, as OpenQASM 2.0.
    pub best_qasm: String,
    /// Its cost under the library's cost model.
    pub best_cost: usize,
    /// The input circuit's cost after preprocessing.
    pub initial_cost: usize,
    /// Search iterations spent.
    pub iterations: usize,
    /// Distinct circuits ever enqueued.
    pub circuits_seen: usize,
    /// Best-cost values at each improvement, in order (the cost component
    /// of `SearchResult::improvement_trace`).
    pub trace_costs: Vec<usize>,
    /// Seen-set dedup hits.
    pub dedup_hits: usize,
    /// Dedup hits caught on the worker by the hash preview.
    pub fp_fast_rejects: usize,
    /// Hash previews contradicted when the entry was dequeued
    /// (invariant: always 0).
    pub fp_confirm_mismatches: usize,
}

impl Outcome {
    /// Projects a [`SearchResult`] onto its deterministic field set.
    pub fn from_result(result: &SearchResult) -> Outcome {
        Outcome {
            best_qasm: to_qasm(&result.best_circuit),
            best_cost: result.best_cost,
            initial_cost: result.initial_cost,
            iterations: result.iterations,
            circuits_seen: result.circuits_seen,
            trace_costs: result.improvement_trace.iter().map(|&(_, c)| c).collect(),
            dedup_hits: result.dedup_hits,
            fp_fast_rejects: result.fp_fast_rejects,
            fp_confirm_mismatches: result.fp_confirm_mismatches,
        }
    }

    /// Encodes to the JSON object.
    pub fn encode(&self) -> Json {
        Json::Object(vec![
            ("best_qasm".to_string(), Json::Str(self.best_qasm.clone())),
            ("best_cost".to_string(), Json::Int(self.best_cost as i128)),
            (
                "initial_cost".to_string(),
                Json::Int(self.initial_cost as i128),
            ),
            ("iterations".to_string(), Json::Int(self.iterations as i128)),
            (
                "circuits_seen".to_string(),
                Json::Int(self.circuits_seen as i128),
            ),
            (
                "trace_costs".to_string(),
                Json::Array(
                    self.trace_costs
                        .iter()
                        .map(|&c| Json::Int(c as i128))
                        .collect(),
                ),
            ),
            ("dedup_hits".to_string(), Json::Int(self.dedup_hits as i128)),
            (
                "fp_fast_rejects".to_string(),
                Json::Int(self.fp_fast_rejects as i128),
            ),
            (
                "fp_confirm_mismatches".to_string(),
                Json::Int(self.fp_confirm_mismatches as i128),
            ),
        ])
    }

    /// Parses the JSON object.
    pub fn parse(json: &Json) -> Result<Outcome, WireError> {
        let trace = require(json, "trace_costs")?
            .as_array()
            .ok_or_else(|| WireError::new("trace_costs", "expected an array"))?;
        let mut trace_costs = Vec::with_capacity(trace.len());
        for (i, item) in trace.iter().enumerate() {
            trace_costs.push(item.as_usize().ok_or_else(|| {
                WireError::new(
                    format!("trace_costs[{i}]"),
                    "expected a non-negative integer",
                )
            })?);
        }
        Ok(Outcome {
            best_qasm: require_str(json, "best_qasm")?,
            best_cost: require_usize(json, "best_cost")?,
            initial_cost: require_usize(json, "initial_cost")?,
            iterations: require_usize(json, "iterations")?,
            circuits_seen: require_usize(json, "circuits_seen")?,
            trace_costs,
            dedup_hits: require_usize(json, "dedup_hits")?,
            fp_fast_rejects: require_usize(json, "fp_fast_rejects")?,
            fp_confirm_mismatches: require_usize(json, "fp_confirm_mismatches")?,
        })
    }
}

/// A `GET /v1/result/<id>` body for a finished request.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultResponse {
    /// The request id.
    pub id: u64,
    /// The terminal state the request finished in.
    pub state: RequestState,
    /// The deterministic outcome field set.
    pub outcome: Outcome,
    /// Wall-clock the search spent, in milliseconds. Informational only —
    /// NOT part of the deterministic outcome.
    pub elapsed_ms: u64,
}

impl ResultResponse {
    /// Encodes to the JSON body.
    pub fn encode(&self) -> Json {
        Json::Object(vec![
            ("id".to_string(), Json::Int(self.id as i128)),
            (
                "state".to_string(),
                Json::Str(self.state.name().to_string()),
            ),
            ("outcome".to_string(), self.outcome.encode()),
            ("elapsed_ms".to_string(), Json::Int(self.elapsed_ms as i128)),
        ])
    }

    /// Parses a JSON body.
    pub fn parse(json: &Json) -> Result<ResultResponse, WireError> {
        let state_name = require_str(json, "state")?;
        let state = RequestState::parse(&state_name)
            .ok_or_else(|| WireError::new("state", format!("unknown state '{state_name}'")))?;
        let outcome = Outcome::parse(require(json, "outcome")?)
            .map_err(|e| WireError::new(format!("outcome.{}", e.field), e.message))?;
        Ok(ResultResponse {
            id: require_u64(json, "id")?,
            state,
            outcome,
            elapsed_ms: require_u64(json, "elapsed_ms")?,
        })
    }
}

/// A `POST /v1/cancel/<id>` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CancelResponse {
    /// The request id.
    pub id: u64,
    /// The terminal state after the cancel: `"cancelled"` if the cancel
    /// won, or the state the request had already reached if it raced
    /// completion.
    pub state: RequestState,
}

impl CancelResponse {
    /// Encodes to the JSON body.
    pub fn encode(&self) -> Json {
        Json::Object(vec![
            ("id".to_string(), Json::Int(self.id as i128)),
            (
                "state".to_string(),
                Json::Str(self.state.name().to_string()),
            ),
        ])
    }

    /// Parses a JSON body.
    pub fn parse(json: &Json) -> Result<CancelResponse, WireError> {
        let state_name = require_str(json, "state")?;
        let state = RequestState::parse(&state_name)
            .ok_or_else(|| WireError::new("state", format!("unknown state '{state_name}'")))?;
        Ok(CancelResponse {
            id: require_u64(json, "id")?,
            state,
        })
    }
}

/// One NDJSON line of a `GET /v1/stream/<id>` response: a best-cost
/// improvement stamped with the scheduler's deterministic step ordinal
/// (never wall-clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLine {
    /// The request the improvement belongs to.
    pub id: u64,
    /// The global scheduler step ordinal at which it was observed.
    pub step: u64,
    /// The improved best cost.
    pub best_cost: usize,
    /// Iterations the request had spent when it improved.
    pub iterations: usize,
}

impl EventLine {
    /// Encodes to the JSON line payload.
    pub fn encode(&self) -> Json {
        Json::Object(vec![
            ("id".to_string(), Json::Int(self.id as i128)),
            ("step".to_string(), Json::Int(self.step as i128)),
            ("best_cost".to_string(), Json::Int(self.best_cost as i128)),
            ("iterations".to_string(), Json::Int(self.iterations as i128)),
        ])
    }

    /// Parses a JSON line payload.
    pub fn parse(json: &Json) -> Result<EventLine, WireError> {
        Ok(EventLine {
            id: require_u64(json, "id")?,
            step: require_u64(json, "step")?,
            best_cost: require_usize(json, "best_cost")?,
            iterations: require_usize(json, "iterations")?,
        })
    }
}

/// An error body, sent with every non-200 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// Machine-readable error kind (e.g. `"queue_full"`, `"bad_request"`).
    pub error: String,
    /// Human-readable detail.
    pub detail: String,
}

impl ErrorBody {
    /// An error body from kind + detail.
    pub fn new(error: impl Into<String>, detail: impl Into<String>) -> ErrorBody {
        ErrorBody {
            error: error.into(),
            detail: detail.into(),
        }
    }

    /// Encodes to the JSON body.
    pub fn encode(&self) -> Json {
        Json::Object(vec![
            ("error".to_string(), Json::Str(self.error.clone())),
            ("detail".to_string(), Json::Str(self.detail.clone())),
        ])
    }

    /// Parses a JSON body.
    pub fn parse(json: &Json) -> Result<ErrorBody, WireError> {
        Ok(ErrorBody {
            error: require_str(json, "error")?,
            detail: require_str(json, "detail")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn submit_round_trips() {
        let mut req = SubmitRequest::new("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n");
        req.gate_set = "ibm".to_string();
        req.budget = Some(40);
        req.deadline_ms = Some(2000);
        req.priority = Priority::High;
        let encoded = req.encode().to_string();
        let parsed = SubmitRequest::parse(&json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn submit_defaults_and_rejections() {
        let parsed = SubmitRequest::parse(&json::parse("{\"qasm\":\"x\"}").unwrap()).unwrap();
        assert_eq!(parsed.gate_set, "nam");
        assert_eq!(parsed.priority, Priority::Normal);
        assert_eq!(parsed.budget, None);

        let err = SubmitRequest::parse(&json::parse("{}").unwrap()).unwrap_err();
        assert_eq!(err.field, "qasm");
        let err = SubmitRequest::parse(
            &json::parse("{\"qasm\":\"x\",\"gate_set\":\"trapped-ion\"}").unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.field, "gate_set");
        let err = SubmitRequest::parse(&json::parse("{\"qasm\":\"x\",\"budget\":-4}").unwrap())
            .unwrap_err();
        assert_eq!(err.field, "budget");
    }

    #[test]
    fn event_line_round_trips() {
        let line = EventLine {
            id: 3,
            step: 17,
            best_cost: 12,
            iterations: 9,
        };
        let parsed = EventLine::parse(&json::parse(&line.encode().to_string()).unwrap()).unwrap();
        assert_eq!(parsed, line);
    }

    #[test]
    fn error_body_round_trips() {
        let body = ErrorBody::new("queue_full", "6 running, capacity 6");
        let parsed = ErrorBody::parse(&json::parse(&body.encode().to_string()).unwrap()).unwrap();
        assert_eq!(parsed, body);
    }
}
