//! The HTTP front-end: a thread-per-connection `TcpListener` shell over
//! the transport-free [`Daemon`].
//!
//! Routes (all responses carry `Connection: close`):
//!
//! | Route                  | Method | Response |
//! |------------------------|--------|----------|
//! | `/v1/submit`           | POST   | 200 `{id}`; 400 bad QASM/JSON/HTTP; 413 oversized; 429 queue full |
//! | `/v1/status/<id>`      | GET    | 200 status snapshot; 404 unknown id |
//! | `/v1/result/<id>`      | GET    | 200 outcome; 404 unknown id or not finished |
//! | `/v1/cancel/<id>`      | POST   | 200 `{id, state}`; 404 unknown id |
//! | `/v1/stream/<id>`      | GET    | 200 NDJSON improvement events, close-delimited; 404 unknown id |
//! | `/v1/health`           | GET    | 200 `{running, admitted, capacity}` |
//!
//! Client faults — torn requests, malformed JSON, oversized bodies,
//! disconnects mid-stream — are absorbed by the connection thread that
//! observed them: the error is answered (or the write abandoned) and the
//! connection closed. The scheduler never sees a fault; co-tenant
//! requests cannot be poisoned by another client's connection.

use crate::daemon::{Daemon, ResultError, SubmitError};
use crate::http::{read_request, write_response, write_stream_head, HttpError, Request};
use crate::json::{self, Json};
use crate::wire::{CancelResponse, ErrorBody, SubmitRequest, SubmitResponse};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A running HTTP server over a [`Daemon`]. Dropping it stops the accept
/// loop and the daemon.
pub struct Server {
    daemon: Arc<Daemon>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `daemon` on it.
    pub fn bind(addr: &str, daemon: Daemon) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let daemon = Arc::new(daemon);
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let daemon = Arc::clone(&daemon);
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("quartz-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &daemon, &stop))
                .expect("spawn accept thread")
        };
        Ok(Server {
            daemon,
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon behind the server.
    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Blocks forever serving requests (for the `quartz-serve` binary).
    pub fn run(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() with one last connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, daemon: &Arc<Daemon>, stop: &Arc<AtomicBool>) {
    loop {
        let stream = accept(listener);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let daemon = Arc::clone(daemon);
        // Thread-per-connection: a hung or slow client ties up its own
        // thread, never the scheduler or other connections.
        let _ = thread::Builder::new()
            .name("quartz-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &daemon));
    }
}

/// How long a connection thread waits on one blocked read or write before
/// it gives the connection up.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Accepts one connection with both directions bounded: a torn request
/// (no more bytes coming) and a client that stops reading a large response
/// (a full send buffer) must not hold the connection thread forever.
fn accept(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

fn handle_connection(mut stream: TcpStream, daemon: &Daemon) {
    let request = match read_request(&mut stream, daemon.config().max_body_bytes) {
        Ok(request) => request,
        Err(error) => {
            respond_http_error(&mut stream, &error);
            return;
        }
    };
    route(&mut stream, daemon, &request);
}

fn respond_http_error(stream: &mut TcpStream, error: &HttpError) {
    let kind = match error {
        HttpError::Malformed { .. } => "malformed_request",
        HttpError::Truncated { .. } => "truncated_request",
        HttpError::TooLarge { .. } => "payload_too_large",
        HttpError::Io(_) => "io_error",
    };
    respond_error(stream, error.status(), kind, &error.to_string());
}

fn respond_error(stream: &mut TcpStream, status: u16, kind: &str, detail: &str) {
    let body = ErrorBody::new(kind, detail).encode().to_string();
    let _ = write_response(stream, status, "application/json", body.as_bytes());
}

fn respond_json(stream: &mut TcpStream, status: u16, body: &Json) {
    let _ = write_response(
        stream,
        status,
        "application/json",
        body.to_string().as_bytes(),
    );
}

/// Splits `/v1/<verb>/<id>` into the verb and the id.
fn parse_id_route<'a>(target: &'a str, prefix: &str) -> Option<Result<u64, &'a str>> {
    let rest = target.strip_prefix(prefix)?;
    Some(rest.parse::<u64>().map_err(|_| rest))
}

fn route(stream: &mut TcpStream, daemon: &Daemon, request: &Request) {
    let target = request.target.as_str();
    let method = request.method.as_str();
    match target {
        "/v1/submit" => {
            if method != "POST" {
                return respond_error(stream, 405, "method_not_allowed", "submit is POST");
            }
            handle_submit(stream, daemon, &request.body)
        }
        "/v1/health" => {
            if method != "GET" {
                return respond_error(stream, 405, "method_not_allowed", "health is GET");
            }
            let body = Json::Object(vec![
                ("running".to_string(), Json::Int(daemon.running() as i128)),
                ("admitted".to_string(), Json::Int(daemon.admitted() as i128)),
                (
                    "capacity".to_string(),
                    Json::Int(daemon.config().capacity as i128),
                ),
            ]);
            respond_json(stream, 200, &body)
        }
        _ => {
            if let Some(id) = parse_id_route(target, "/v1/status/") {
                return match (method, id) {
                    ("GET", Ok(id)) => handle_status(stream, daemon, id),
                    ("GET", Err(bad)) => {
                        respond_error(stream, 400, "bad_id", &format!("invalid id '{bad}'"))
                    }
                    _ => respond_error(stream, 405, "method_not_allowed", "status is GET"),
                };
            }
            if let Some(id) = parse_id_route(target, "/v1/result/") {
                return match (method, id) {
                    ("GET", Ok(id)) => handle_result(stream, daemon, id),
                    ("GET", Err(bad)) => {
                        respond_error(stream, 400, "bad_id", &format!("invalid id '{bad}'"))
                    }
                    _ => respond_error(stream, 405, "method_not_allowed", "result is GET"),
                };
            }
            if let Some(id) = parse_id_route(target, "/v1/cancel/") {
                return match (method, id) {
                    ("POST", Ok(id)) => handle_cancel(stream, daemon, id),
                    ("POST", Err(bad)) => {
                        respond_error(stream, 400, "bad_id", &format!("invalid id '{bad}'"))
                    }
                    _ => respond_error(stream, 405, "method_not_allowed", "cancel is POST"),
                };
            }
            if let Some(id) = parse_id_route(target, "/v1/stream/") {
                return match (method, id) {
                    ("GET", Ok(id)) => handle_stream(stream, daemon, id),
                    ("GET", Err(bad)) => {
                        respond_error(stream, 400, "bad_id", &format!("invalid id '{bad}'"))
                    }
                    _ => respond_error(stream, 405, "method_not_allowed", "stream is GET"),
                };
            }
            respond_error(stream, 404, "not_found", &format!("no route '{target}'"))
        }
    }
}

fn handle_submit(stream: &mut TcpStream, daemon: &Daemon, body: &[u8]) {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return respond_error(stream, 400, "bad_encoding", "body is not valid UTF-8"),
    };
    let value = match json::parse(text) {
        Ok(value) => value,
        Err(e) => return respond_error(stream, 400, "bad_json", &e.to_string()),
    };
    let submit = match SubmitRequest::parse(&value) {
        Ok(submit) => submit,
        Err(e) => return respond_error(stream, 400, "bad_request", &e.to_string()),
    };
    match daemon.submit(&submit) {
        Ok(id) => respond_json(stream, 200, &SubmitResponse { id }.encode()),
        Err(SubmitError::BadRequest(e)) => {
            respond_error(stream, 400, "bad_request", &e.to_string())
        }
        Err(SubmitError::QueueFull { running, capacity }) => respond_error(
            stream,
            429,
            "queue_full",
            &format!("{running} running, capacity {capacity}"),
        ),
        Err(SubmitError::Library(detail)) => {
            respond_error(stream, 500, "library_unavailable", &detail)
        }
    }
}

fn handle_status(stream: &mut TcpStream, daemon: &Daemon, id: u64) {
    match daemon.status(id) {
        Some(status) => respond_json(stream, 200, &status.encode()),
        None => respond_error(stream, 404, "unknown_id", &format!("no request {id}")),
    }
}

fn handle_result(stream: &mut TcpStream, daemon: &Daemon, id: u64) {
    match daemon.result(id) {
        Ok(result) => respond_json(stream, 200, &result.encode()),
        Err(ResultError::NotFound) => {
            respond_error(stream, 404, "unknown_id", &format!("no request {id}"))
        }
        Err(ResultError::NotFinished) => respond_error(
            stream,
            404,
            "not_finished",
            &format!("request {id} is still running"),
        ),
    }
}

fn handle_cancel(stream: &mut TcpStream, daemon: &Daemon, id: u64) {
    match daemon.cancel(id) {
        Some(state) => respond_json(stream, 200, &CancelResponse { id, state }.encode()),
        None => respond_error(stream, 404, "unknown_id", &format!("no request {id}")),
    }
}

/// Streams NDJSON improvement events until the request is terminal or the
/// client disconnects. A mid-stream disconnect only ends this connection
/// thread — the request keeps running and its events remain replayable
/// from the start by a new `stream` call.
fn handle_stream(stream: &mut TcpStream, daemon: &Daemon, id: u64) {
    if daemon.status(id).is_none() {
        return respond_error(stream, 404, "unknown_id", &format!("no request {id}"));
    }
    if write_stream_head(stream, "application/x-ndjson").is_err() {
        return;
    }
    let mut cursor = 0usize;
    loop {
        let Some((events, terminal)) = daemon.next_events(id, cursor) else {
            return;
        };
        cursor += events.len();
        for event in &events {
            let line = event.encode().to_string();
            if stream
                .write_all(line.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .is_err()
            {
                // Client went away mid-stream; nothing to clean up — the
                // request and its co-tenants are untouched.
                return;
            }
        }
        if stream.flush().is_err() {
            return;
        }
        if terminal {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_routes_parse() {
        assert_eq!(parse_id_route("/v1/status/17", "/v1/status/"), Some(Ok(17)));
        assert_eq!(
            parse_id_route("/v1/status/abc", "/v1/status/"),
            Some(Err("abc"))
        );
        assert_eq!(parse_id_route("/v1/other/17", "/v1/status/"), None);
    }

    /// The accept loop's connections carry both timeouts, checked on the
    /// socket options themselves rather than by waiting for one to fire.
    #[test]
    fn accepted_connections_bound_reads_and_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = accept(&listener).unwrap();
        assert_eq!(accepted.read_timeout().unwrap(), Some(IO_TIMEOUT));
        assert_eq!(accepted.write_timeout().unwrap(), Some(IO_TIMEOUT));
    }
}
