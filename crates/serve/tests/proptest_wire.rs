//! Round-trip property tests for the daemon's wire layer: the JSON codec,
//! the HTTP/1.1 request codec, and the typed protocol messages.
//!
//! Three families of properties:
//!
//! 1. **Encode→parse identity**: `parse(write(v)) == v` for arbitrary JSON
//!    values, HTTP requests, and wire messages.
//! 2. **Truncation rejection**: every strict prefix of a well-formed
//!    document is rejected — with a position-carrying error for JSON
//!    (the offset points into the prefix) and a `Truncated` (never
//!    `Malformed`) error for HTTP, so a torn connection is distinguishable
//!    from a hostile one.
//! 3. **Determinism**: encoding is a pure function — the same value always
//!    serializes to the same bytes.

use proptest::prelude::*;
use quartz_opt::Priority;
use quartz_serve::http;
use quartz_serve::json::{self, Json};
use quartz_serve::wire::{
    CancelResponse, ErrorBody, EventLine, Outcome, ResultResponse, StatusResponse, SubmitRequest,
    SubmitResponse,
};
use std::io::Cursor;

/// Characters that exercise every escaping path: quotes, backslashes,
/// control characters, multi-byte UTF-8, and an astral (surrogate-pair)
/// code point.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('a'),
        Just('Z'),
        Just('0'),
        Just(' '),
        Just('"'),
        Just('\\'),
        Just('/'),
        Just('\n'),
        Just('\r'),
        Just('\t'),
        Just('\u{1}'),
        Just('\u{1f}'),
        Just('ü'),
        Just('循'),
        Just('𝄞'),
    ]
}

fn arb_string(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(arb_char(), 0..max_len).prop_map(|cs| cs.into_iter().collect())
}

fn arb_json_leaf() -> BoxedStrategy<Json> {
    prop_oneof![
        Just(Json::Null),
        Just(Json::Bool(true)),
        Just(Json::Bool(false)),
        (-1_000_000_000_000i64..1_000_000_000_000).prop_map(|i| Json::Int(i as i128)),
        (-1.0e9..1.0e9).prop_map(Json::Float),
        arb_string(8).prop_map(Json::Str),
    ]
    .boxed()
}

/// Nested JSON of bounded depth, built bottom-up (the vendored proptest
/// has no `prop_recursive`).
fn arb_json(depth: usize) -> BoxedStrategy<Json> {
    if depth == 0 {
        return arb_json_leaf();
    }
    let inner = arb_json(depth - 1);
    let inner2 = arb_json(depth - 1);
    prop_oneof![
        arb_json_leaf(),
        prop::collection::vec(inner, 0..4).prop_map(Json::Array),
        prop::collection::vec((arb_string(6), inner2), 0..4)
            .prop_map(|members| Json::Object(members.into_iter().collect())),
    ]
    .boxed()
}

fn arb_priority() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::High),
        Just(Priority::Normal),
        Just(Priority::Low),
    ]
}

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    (
        (
            arb_string(16),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(any::<u32>().prop_map(|c| c as usize), 0..6),
        ),
        prop::collection::vec(any::<u32>().prop_map(|c| c as usize), 5),
    )
        .prop_map(|((best_qasm, bc, ic, it, seen, trace), counters)| Outcome {
            best_qasm,
            best_cost: bc as usize,
            initial_cost: ic as usize,
            iterations: it as usize,
            circuits_seen: seen as usize,
            trace_costs: trace,
            match_attempts: counters[0],
            match_skips: counters[1],
            dedup_hits: counters[2],
            fp_fast_rejects: counters[3],
            fp_confirm_mismatches: counters[4],
        })
}

/// A well-formed HTTP request built from safe token alphabets, with the
/// `content-length` header written explicitly so the round trip is exact.
fn arb_http_request() -> impl Strategy<Value = http::Request> {
    let method = prop_oneof![
        Just("GET".to_string()),
        Just("POST".to_string()),
        Just("PUT".to_string()),
        Just("DELETE".to_string()),
    ];
    let segment = prop::collection::vec(
        prop_oneof![Just('a'), Just('z'), Just('0'), Just('-'), Just('.')],
        1..6,
    )
    .prop_map(|cs| cs.into_iter().collect::<String>());
    let target = prop::collection::vec(segment, 1..4)
        .prop_map(|segments| format!("/{}", segments.join("/")));
    let header_name = prop::collection::vec(
        prop_oneof![Just('a'), Just('k'), Just('x'), Just('-')],
        1..8,
    )
    .prop_filter_map("must not collide with content-length", |cs| {
        let name: String = cs.into_iter().collect();
        (name != "content-length").then_some(name)
    });
    let header_value = prop::collection::vec(
        prop_oneof![Just('a'), Just('Z'), Just('7'), Just(' '), Just('/')],
        0..8,
    )
    .prop_map(|cs| cs.into_iter().collect::<String>().trim().to_string());
    let headers = prop::collection::vec((header_name, header_value), 0..4);
    let body = prop::collection::vec(any::<u8>(), 0..64);
    (method, target, headers, body).prop_map(|(method, target, mut headers, body)| {
        headers.push(("content-length".to_string(), body.len().to_string()));
        http::Request {
            method,
            target,
            headers,
            body,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_values_round_trip_and_encode_deterministically(v in arb_json(3)) {
        let text = v.to_string();
        let parsed = json::parse(&text).expect("own encoding must parse");
        prop_assert!(parsed == v, "round trip changed value: {text}");
        // Encoding is deterministic byte-for-byte.
        prop_assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn json_values_round_trip_through_the_pretty_writer(v in arb_json(3)) {
        // The pretty layout (files: audit sidecars, bench reports) reads
        // back to the same value as the compact one (the wire).
        let text = v.pretty();
        let parsed = json::parse(&text).expect("own pretty encoding must parse");
        prop_assert!(parsed == v, "pretty round trip changed value: {text}");
        prop_assert!(text.ends_with('\n'));
    }

    #[test]
    fn truncated_json_objects_are_rejected_with_a_position(
        members in prop::collection::vec((arb_string(6), arb_json_leaf()), 1..4),
        cut_seed in any::<u32>(),
    ) {
        let text = Json::Object(members.into_iter().collect()).to_string();
        // Any strict prefix of a compact object document is invalid.
        let cut = 1 + (cut_seed as usize) % (text.len() - 1);
        let Some(prefix) = text.get(..cut) else {
            return Ok(()); // cut landed mid-UTF-8-sequence; not a valid &str
        };
        let err = json::parse(prefix).expect_err("prefix must not parse");
        prop_assert!(
            err.offset <= prefix.len(),
            "error offset {} beyond prefix length {}", err.offset, prefix.len()
        );
        prop_assert!(err.line >= 1 && err.column >= 1);
    }

    #[test]
    fn http_requests_round_trip(request in arb_http_request()) {
        let bytes = http::write_request(&request);
        let parsed = http::read_request(&mut Cursor::new(bytes), http::DEFAULT_MAX_BODY_BYTES)
            .expect("own encoding must parse");
        prop_assert!(parsed == request, "{parsed:?} != {request:?}");
    }

    #[test]
    fn truncated_http_requests_are_torn_not_malformed(
        request in arb_http_request(),
        cut_seed in any::<u32>(),
    ) {
        let bytes = http::write_request(&request);
        let cut = (cut_seed as usize) % bytes.len();
        let err = http::read_request(&mut Cursor::new(&bytes[..cut]), http::DEFAULT_MAX_BODY_BYTES)
            .expect_err("prefix must not parse");
        // A prefix of a well-formed request is a *tear*, and the error says
        // how much was still expected — never a malformed-syntax claim.
        match err {
            http::HttpError::Truncated { missing, .. } => prop_assert!(missing > 0),
            other => prop_assert!(false, "expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn submit_requests_round_trip(
        qasm in arb_string(24),
        gate_set in prop_oneof![Just("nam"), Just("ibm"), Just("rigetti")],
        budget in prop_oneof![Just(None), (0u32..1_000_000).prop_map(|b| Some(b as usize))],
        deadline_ms in prop_oneof![Just(None), (0u64..100_000).prop_map(Some)],
        priority in arb_priority(),
    ) {
        let request = SubmitRequest {
            qasm,
            gate_set: gate_set.to_string(),
            budget,
            deadline_ms,
            priority,
        };
        let text = request.encode().to_string();
        let parsed = SubmitRequest::parse(&json::parse(&text).unwrap()).unwrap();
        prop_assert!(parsed == request, "{parsed:?} != {request:?}");
    }

    #[test]
    fn outcomes_and_results_round_trip(
        outcome in arb_outcome(),
        id in any::<u64>(),
        elapsed_ms in any::<u64>(),
    ) {
        let text = outcome.encode().to_string();
        let parsed = Outcome::parse(&json::parse(&text).unwrap()).unwrap();
        prop_assert!(parsed == outcome, "outcome round trip diverged");

        let response = ResultResponse {
            id,
            state: quartz_opt::RequestState::Done,
            outcome,
            elapsed_ms,
        };
        let text = response.encode().to_string();
        let parsed = ResultResponse::parse(&json::parse(&text).unwrap()).unwrap();
        prop_assert!(parsed == response, "result round trip diverged");
    }

    #[test]
    fn truncated_outcome_bodies_are_rejected_not_defaulted(
        outcome in arb_outcome(),
        cut_seed in any::<u32>(),
    ) {
        let text = outcome.encode().to_string();
        let cut = 1 + (cut_seed as usize) % (text.len() - 1);
        let Some(prefix) = text.get(..cut) else { return Ok(()); };
        // Either the JSON layer rejects the prefix with a position, or (if
        // the prefix happens to be valid JSON) the wire layer rejects it
        // for a missing field. It never yields a default-filled Outcome.
        match json::parse(prefix) {
            Err(err) => prop_assert!(err.offset <= prefix.len()),
            Ok(value) => prop_assert!(Outcome::parse(&value).is_err()),
        }
    }

    #[test]
    fn small_wire_messages_round_trip(
        id in any::<u64>(),
        step in any::<u64>(),
        cost in any::<u32>(),
        iters in any::<u32>(),
        priority in arb_priority(),
        budget in prop_oneof![Just(None), (0u32..1_000_000).prop_map(|b| Some(b as usize))],
        error in arb_string(8),
        detail in arb_string(12),
    ) {
        let submit = SubmitResponse { id };
        prop_assert!(SubmitResponse::parse(&json::parse(&submit.encode().to_string()).unwrap()).unwrap() == submit);

        let event = EventLine { id, step, best_cost: cost as usize, iterations: iters as usize };
        prop_assert!(EventLine::parse(&json::parse(&event.encode().to_string()).unwrap()).unwrap() == event);

        let status = StatusResponse {
            id,
            state: quartz_opt::RequestState::Running,
            priority,
            best_cost: cost as usize,
            initial_cost: cost as usize + 1,
            iterations: iters as usize,
            budget,
        };
        prop_assert!(StatusResponse::parse(&json::parse(&status.encode().to_string()).unwrap()).unwrap() == status);

        let cancel = CancelResponse { id, state: quartz_opt::RequestState::Cancelled };
        prop_assert!(CancelResponse::parse(&json::parse(&cancel.encode().to_string()).unwrap()).unwrap() == cancel);

        let err = ErrorBody::new(error, detail);
        prop_assert!(ErrorBody::parse(&json::parse(&err.encode().to_string()).unwrap()).unwrap() == err.clone());
    }
}
