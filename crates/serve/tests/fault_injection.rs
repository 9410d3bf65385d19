//! Fault-injection tests for the daemon: every class of client misbehavior
//! — torn requests, malformed payloads, oversized bodies, disconnects
//! mid-stream, cancels racing completion, expiring deadlines — must
//! produce a *typed* error on the faulting connection and leave every
//! co-tenant's outcome bit-identical to a standalone run.
//!
//! The servers here run without library routing (a generated NAM (2, 2)
//! index shared across tests) so the suite is hermetic and fast; the
//! committed-artifact path is covered by `serve_smoke` and the
//! `end_to_end` acceptance tests.

use quartz_bench::GateSetKind;
use quartz_gen::{GenConfig, Generator};
use quartz_ir::GateSet;
use quartz_opt::{Optimizer, RequestState, SearchConfig, TransformationIndex};
use quartz_serve::wire::Outcome;
use quartz_serve::{Client, ClientError, Daemon, DaemonConfig, Server, SubmitRequest};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

fn shared_index() -> Arc<TransformationIndex> {
    static INDEX: OnceLock<Arc<TransformationIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| {
        let (ecc, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 0)).run();
        Optimizer::from_ecc_set(&ecc, SearchConfig::default()).shared_index()
    }))
}

/// The one search configuration both the servers and the standalone
/// reference runs use — outcome comparisons are meaningful only when the
/// engine knobs agree.
fn search_config() -> SearchConfig {
    DaemonConfig::default().search
}

fn test_server(capacity: usize) -> Server {
    let mut config = DaemonConfig::with_capacity(capacity);
    config.route_libraries = false;
    let daemon = Daemon::with_optimizer(
        Optimizer::with_index(shared_index(), search_config()),
        config,
    );
    Server::bind("127.0.0.1:0", daemon).expect("bind ephemeral port")
}

/// What the daemon must produce for `qasm` under `budget`, computed
/// standalone (same preprocessing, same index, same config).
fn standalone_outcome(qasm: &str, budget: usize) -> Outcome {
    let circuit = quartz_ir::parse_qasm(qasm).expect("test QASM parses");
    let preprocessed = GateSetKind::Nam.preprocess(&circuit);
    let optimizer = Optimizer::with_index(shared_index(), search_config());
    Outcome::from_result(&optimizer.optimize_with_budget(&preprocessed, budget))
}

/// Independent commutation sites of [`endless_qasm`]: `x` on a CNOT's
/// target, then the CNOT, each on its own qubit pair. Under the test index a
/// site has exactly two equal-cost forms (the `x` on either side of the
/// CNOT) and cannot shrink, so the sites span 2^PLATEAU_SITES distinct
/// circuits of the same cost, and the search dequeues each of them once
/// before its queue can empty.
const PLATEAU_SITES: usize = 24;

/// The workload for requests that must still be running when a fault
/// lands: a reducible motif (`cx x cx x` -> nothing, so an improvement is
/// streamed within the first few dozen steps) beside [`PLATEAU_SITES`]
/// commutation sites, whose 16.7M equal-cost circuits no test comes close
/// to dequeuing. Without a budget or deadline such a request ends only when
/// it is cancelled — however fast the engine is.
fn endless_qasm() -> String {
    let mut qasm = format!(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{}];\n\
         cx q[0],q[1];\nx q[1];\ncx q[0],q[1];\nx q[1];\n",
        2 + 2 * PLATEAU_SITES
    );
    for site in 1..=PLATEAU_SITES {
        let (a, b) = (2 * site, 2 * site + 1);
        qasm.push_str(&format!("x q[{b}];\ncx q[{a}],q[{b}];\n"));
    }
    qasm
}

/// A small co-tenant whose outcome the fault tests protect.
const VICTIM_QASM: &str =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0],q[1];\nx q[1];\ncx q[0],q[1];\nx q[1];\n";
const VICTIM_BUDGET: usize = 25;

fn submit_victim(client: &Client) -> u64 {
    let mut request = SubmitRequest::new(VICTIM_QASM);
    request.budget = Some(VICTIM_BUDGET);
    client.submit(&request).expect("victim submit")
}

fn assert_victim_unpoisoned(client: &Client, id: u64) {
    let served = client.wait_result(id).expect("victim result").outcome;
    let expected = standalone_outcome(VICTIM_QASM, VICTIM_BUDGET);
    assert_eq!(
        served, expected,
        "co-tenant outcome diverged from standalone after injected faults"
    );
}

fn expect_server_error(result: Result<u64, ClientError>, status: u16, kind: &str) {
    match result {
        Err(ClientError::Server { status: got, body }) => {
            assert_eq!(got, status, "wrong status for {kind}: {body:?}");
            assert_eq!(body.error, kind, "wrong error kind: {body:?}");
        }
        other => panic!("expected server error {status}/{kind}, got {other:?}"),
    }
}

#[test]
fn protocol_faults_get_typed_errors_and_co_tenants_survive() {
    let server = test_server(16);
    let client = Client::new(server.addr());
    let victim = submit_victim(&client);

    // Torn head: the connection dies before the request line completes.
    let resp = client
        .send_raw(b"POST /v1/su")
        .expect("read error response");
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("truncated_request"));

    // Torn body: Content-Length promises more than arrives. The error
    // names the missing byte count.
    let resp = client
        .send_raw(b"POST /v1/submit HTTP/1.1\r\ncontent-length: 400\r\n\r\n{\"qasm\": \"OPENQ")
        .expect("read error response");
    assert_eq!(resp.status, 400);
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert!(body.contains("truncated_request"), "{body}");
    assert!(body.contains("385 bytes missing"), "{body}");

    // Malformed JSON: position-carrying diagnostic.
    let payload = b"{\"qasm\": nope}";
    let raw = format!(
        "POST /v1/submit HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        payload.len()
    );
    let mut torn = raw.into_bytes();
    torn.extend_from_slice(payload);
    let resp = client.send_raw(&torn).expect("read error response");
    assert_eq!(resp.status, 400);
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert!(body.contains("bad_json"), "{body}");
    assert!(body.contains("line 1"), "{body}");

    // Well-formed JSON of the wrong shape: the field is named.
    let err = client.submit(&SubmitRequest {
        qasm: String::new(),
        gate_set: "nam".to_string(),
        budget: None,
        deadline_ms: None,
        priority: quartz_opt::Priority::Normal,
    });
    // Empty QASM parses as JSON but fails circuit validation.
    expect_server_error(err, 400, "bad_request");

    // Oversized body: rejected before it is even read.
    let resp = client
        .send_raw(b"POST /v1/submit HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n")
        .expect("read error response");
    assert_eq!(resp.status, 413);
    assert!(String::from_utf8_lossy(&resp.body).contains("payload_too_large"));

    // Unknown route, wrong method, unparsable id, unknown id.
    let resp = client
        .send_raw(b"GET /v2/nothing HTTP/1.1\r\n\r\n")
        .expect("read error response");
    assert_eq!(resp.status, 404);
    let resp = client
        .send_raw(b"DELETE /v1/submit HTTP/1.1\r\n\r\n")
        .expect("read error response");
    assert_eq!(resp.status, 405);
    let resp = client
        .send_raw(b"GET /v1/status/banana HTTP/1.1\r\n\r\n")
        .expect("read error response");
    assert_eq!(resp.status, 400);
    match client.status(987654) {
        Err(ClientError::Server { status: 404, body }) => assert_eq!(body.error, "unknown_id"),
        other => panic!("expected 404 unknown_id, got {other:?}"),
    }

    // After all that abuse the server still takes work, and the co-tenant
    // that ran through it is bit-identical to standalone.
    let ok = submit_victim(&client);
    assert!(client.wait_result(ok).is_ok());
    assert_victim_unpoisoned(&client, victim);
}

#[test]
fn queue_full_backpressure_is_typed_and_recoverable() {
    let server = test_server(1);
    let client = Client::new(server.addr());

    // Fill the only slot with an unbudgeted request (runs until cancelled).
    let mut hog = SubmitRequest::new(endless_qasm());
    hog.deadline_ms = None;
    let hog_id = client.submit(&hog).expect("first submit fits");

    // The next submission bounces with 429 and the capacity in the detail.
    let err = client.submit(&SubmitRequest::new(VICTIM_QASM));
    match err {
        Err(ClientError::Server { status, body }) => {
            assert_eq!(status, 429);
            assert_eq!(body.error, "queue_full");
            assert!(body.detail.contains("capacity 1"), "{}", body.detail);
        }
        other => panic!("expected 429 queue_full, got {other:?}"),
    }
    assert_eq!(
        client.status(hog_id).expect("hog status").state,
        RequestState::Running,
        "the hog must still hold the slot the 429 reported"
    );

    // Cancelling the hog frees the slot; admission works again.
    let cancel = client.cancel(hog_id).expect("cancel");
    assert_eq!(cancel.state, RequestState::Cancelled);
    let id = submit_victim(&client);
    assert_victim_unpoisoned(&client, id);
}

#[test]
fn client_disconnect_mid_stream_does_not_poison_the_run() {
    let server = test_server(16);
    let client = Client::new(server.addr());

    // The streamed request: unbudgeted over an endless plateau, so it is
    // still running when the streaming client walks away.
    let streamed_id = client
        .submit(&SubmitRequest::new(endless_qasm()))
        .expect("submit streamed request");
    let victim = submit_victim(&client);

    // Wait for the first improvement so the event log is non-empty before
    // the streamer disconnects.
    loop {
        let status = client.status(streamed_id).expect("status");
        assert_eq!(status.state, RequestState::Running);
        if status.best_cost < status.initial_cost {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Open a stream by hand, read a few bytes of the head, and vanish.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let raw = format!("GET /v1/stream/{streamed_id} HTTP/1.1\r\n\r\n");
        stream
            .write_all(raw.as_bytes())
            .expect("send stream request");
        let mut buf = [0u8; 16];
        let _ = stream.read(&mut buf);
        // Dropped here: mid-stream disconnect.
    }

    // The streamed request survived the disconnect and is cancellable; its
    // events remain replayable from the start by a fresh stream call, and
    // two replays observe the identical sequence.
    let status = client.status(streamed_id).expect("status after disconnect");
    assert_eq!(status.state, RequestState::Running);
    let cancel = client.cancel(streamed_id).expect("cancel");
    assert_eq!(cancel.state, RequestState::Cancelled);
    let events = client.stream(streamed_id).expect("replay events");
    assert!(!events.is_empty());
    let replay = client.stream(streamed_id).expect("second replay");
    assert_eq!(events, replay);

    assert_victim_unpoisoned(&client, victim);
}

#[test]
fn cancel_racing_completion_yields_one_coherent_terminal_state() {
    let server = test_server(16);
    let client = Client::new(server.addr());
    let victim = submit_victim(&client);

    // Tiny budgets finish almost immediately, so these cancels genuinely
    // race completion: either side may win, but the terminal state must be
    // coherent and a result must exist either way.
    for _ in 0..20 {
        let mut request = SubmitRequest::new(VICTIM_QASM);
        request.budget = Some(2);
        let id = client.submit(&request).expect("submit");
        let cancel = client.cancel(id).expect("cancel");
        assert!(
            cancel.state == RequestState::Cancelled || cancel.state == RequestState::Done,
            "incoherent terminal state {:?}",
            cancel.state
        );
        let result = client.wait_result(id).expect("result after cancel race");
        assert_eq!(result.state, cancel.state);
        // A second cancel is idempotent: it reports the settled state.
        let again = client.cancel(id).expect("re-cancel");
        assert_eq!(again.state, cancel.state);
    }

    assert_victim_unpoisoned(&client, victim);
}

#[test]
fn deadline_expiry_finalizes_between_steps_without_poisoning_cotenants() {
    let server = test_server(16);
    let client = Client::new(server.addr());
    let victim = submit_victim(&client);

    // Unbudgeted but deadlined: the request must settle as
    // deadline_expired (its queue never empties) with a partial outcome
    // served.
    let mut request = SubmitRequest::new(endless_qasm());
    request.deadline_ms = Some(30);
    let id = client.submit(&request).expect("submit deadlined");
    let result = client.wait_result(id).expect("deadlined result");
    assert_eq!(result.state, RequestState::DeadlineExpired);
    assert!(result.outcome.best_cost <= result.outcome.initial_cost);
    let status = client.status(id).expect("status");
    assert_eq!(status.state, RequestState::DeadlineExpired);

    assert_victim_unpoisoned(&client, victim);
}
