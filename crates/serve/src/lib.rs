//! # quartz-serve
//!
//! A long-running optimization daemon over the Quartz reproduction's
//! search engine (DESIGN.md §10). The daemon exposes the admission-capable
//! [`quartz_opt::ServiceScheduler`] over a hand-rolled HTTP/1.1 + JSON
//! wire protocol (the workspace builds offline, so there is no HTTP or
//! JSON framework to lean on — and the codec is small enough to prove
//! correct by round-trip property tests instead).
//!
//! Layers, transport-free first:
//!
//! * [`json`] — the workspace's JSON codec, re-exported from
//!   [`quartz_ir::json`] (position-carrying errors, `parse(write(v)) == v`
//!   proptested).
//! * [`http`] — an HTTP/1.1 request/response codec with typed, bounded
//!   errors (400 malformed/truncated, 413 oversized).
//! * [`wire`] — the typed protocol messages; [`wire::Outcome`] is the
//!   full deterministic outcome field set of a search.
//! * [`Daemon`] — scheduler + stepper thread + event logs; submissions,
//!   cancels, and deadlines land on global step boundaries. Each gate set
//!   is served from its committed `libraries/*.qtzl` artifact
//!   ([`artifact_for`]), loaded once through one
//!   [`quartz_opt::LibraryCache`].
//! * [`Server`]/[`Client`] — the TCP shell and its test client.
//!
//! # Determinism contract
//!
//! For a request admitted with an iteration budget, the full
//! [`wire::Outcome`] — best circuit QASM, every search counter, the
//! improvement-trace costs — is **bit-identical** to a standalone
//! [`quartz_opt::Optimizer::optimize_with_budget`] run on the same
//! preprocessed circuit, regardless of server thread counts, co-tenant
//! load, admission order, or faults injected on other connections. The
//! adversarial harness in `tests/` holds the daemon to that contract.
//!
//! # Quickstart
//!
//! ```no_run
//! use quartz_serve::{Client, Daemon, DaemonConfig, Server, SubmitRequest};
//!
//! let daemon = Daemon::new(DaemonConfig::default()).expect("libraries present");
//! let server = Server::bind("127.0.0.1:0", daemon).expect("bind");
//! let client = Client::new(server.addr());
//!
//! let mut request = SubmitRequest::new("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nh q[0];\n");
//! request.budget = Some(40);
//! let id = client.submit(&request).expect("submit");
//! let result = client.wait_result(id).expect("result");
//! println!("{} -> {} gates", result.outcome.initial_cost, result.outcome.best_cost);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod config;
mod daemon;
pub mod http;
mod server;
pub mod wire;

pub use quartz_ir::json;

pub use client::{Client, ClientError};
pub use config::DaemonConfig;
pub use daemon::{artifact_for, kind_for, Daemon, ResultError, SubmitError};
pub use server::Server;
pub use wire::{EventLine, Outcome, ResultResponse, StatusResponse, SubmitRequest};
