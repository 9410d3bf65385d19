//! The daemon core: a [`ServiceScheduler`] driven by a dedicated stepper
//! thread, with submissions, cancels, and status queries interleaving
//! *between* global steps.
//!
//! The [`Daemon`] is transport-free — the HTTP front-end
//! ([`crate::Server`]) is a thin shell over it, and the determinism and
//! fault-injection test harnesses drive a `Daemon` directly so their
//! assertions are about scheduling, not socket behavior.
//!
//! # Concurrency protocol
//!
//! All mutable state lives in one mutex. The stepper thread acquires it,
//! advances the scheduler by exactly one global step, publishes any
//! improvement events, and releases it — so every client operation
//! (admission, cancel, status) lands on a step boundary. That is precisely
//! the granularity at which the scheduler's determinism argument holds
//! (DESIGN.md §10): admissions are queue inserts between steps,
//! cancellations free a frontier between steps, and deadlines are checked
//! between steps, so no client action can observe — or cause — a
//! half-applied step.
//!
//! Two condvars coordinate: `work` wakes the stepper when requests arrive,
//! `progress` wakes streamers/waiters after every step and terminal
//! transition.

use crate::config::DaemonConfig;
use crate::wire::{EventLine, Outcome, ResultResponse, StatusResponse, SubmitRequest, WireError};
use quartz_bench::GateSetKind;
use quartz_opt::{
    AdmissionError, LibraryCache, LoadedLibrary, Optimizer, RequestId, RequestState,
    ServiceRequest, ServiceScheduler,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The QASM payload did not parse or validate; the message carries the
    /// offending field and position.
    BadRequest(WireError),
    /// The daemon is at capacity. Maps to HTTP 429.
    QueueFull {
        /// Requests currently running.
        running: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The gate set's library artifact could not be loaded. Maps to
    /// HTTP 500 — a server deployment problem, not a client error.
    Library(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::BadRequest(e) => write!(f, "bad request: {e}"),
            SubmitError::QueueFull { running, capacity } => {
                write!(f, "queue full: {running} running, capacity {capacity}")
            }
            SubmitError::Library(msg) => write!(f, "library unavailable: {msg}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a `result` query returned nothing useful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultError {
    /// No request with that id was ever admitted.
    NotFound,
    /// The request is still running; poll `status` or `stream`.
    NotFinished,
}

struct State {
    scheduler: ServiceScheduler,
    /// Per-request event logs, indexed by `RequestId::index()`. Events are
    /// appended by the stepper under the lock, in scheduler order, so two
    /// streams of the same request always observe the same prefix sequence.
    events: Vec<Vec<EventLine>>,
    stop: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Callers blocked in [`Daemon::lock`]. The stepper lets them all in
    /// before it takes its next step: `Mutex` is not fair, and a stepper
    /// that re-locks straight after unlocking wins every time, starving
    /// status queries and cancels for as long as a request keeps running.
    waiting: AtomicUsize,
    /// Signaled when work arrives or shutdown begins.
    work: Condvar,
    /// Signaled after every scheduler step and every terminal transition.
    progress: Condvar,
}

/// The long-running optimization daemon: admission-capable scheduler +
/// stepper thread + per-request event logs.
pub struct Daemon {
    shared: Arc<Shared>,
    libraries: Option<LibraryCache>,
    config: DaemonConfig,
    stepper: Option<thread::JoinHandle<()>>,
}

impl Daemon {
    /// Boots a daemon that routes requests to the committed gate-set
    /// library artifacts (zero-generation startup: the NAM library is
    /// loaded eagerly as the base index, the others lazily on first use).
    pub fn new(config: DaemonConfig) -> Result<Daemon, SubmitError> {
        let cache = LibraryCache::with_audit_required(config.require_audited);
        let library = library_for(&cache, GateSetKind::Nam)?;
        let optimizer = Optimizer::with_index(library.shared_index(), config.search.clone());
        let mut daemon = Daemon::with_optimizer(optimizer, config);
        daemon.libraries = Some(cache);
        Ok(daemon)
    }

    /// Boots a daemon over a caller-supplied optimizer, without library
    /// routing — every gate set is served by `optimizer`'s index. Used by
    /// tests that generate their own ECC sets.
    pub fn with_optimizer(optimizer: Optimizer, config: DaemonConfig) -> Daemon {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                scheduler: ServiceScheduler::new(optimizer, config.capacity),
                events: Vec::new(),
                stop: false,
            }),
            waiting: AtomicUsize::new(0),
            work: Condvar::new(),
            progress: Condvar::new(),
        });
        let stepper = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("quartz-serve-stepper".to_string())
                .spawn(move || stepper_loop(&shared))
                .expect("spawn stepper thread")
        };
        Daemon {
            shared,
            libraries: None,
            config,
            stepper: Some(stepper),
        }
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Validates, preprocesses, routes, and admits a request. Returns the
    /// id to poll with.
    pub fn submit(&self, request: &SubmitRequest) -> Result<u64, SubmitError> {
        let circuit = request.circuit().map_err(SubmitError::BadRequest)?;
        let kind = kind_for(&request.gate_set).map_err(SubmitError::BadRequest)?;
        // Preprocess exactly like the standalone bench harness, so daemon
        // outcomes are comparable 1:1 with `Optimizer` runs on the same
        // QASM.
        let preprocessed = kind.preprocess(&circuit);
        let index = match &self.libraries {
            Some(cache) if self.config.route_libraries => {
                Some(library_for(cache, kind)?.shared_index())
            }
            _ => None,
        };
        let mut service_request = ServiceRequest::new(preprocessed)
            .with_budget(request.budget.unwrap_or(self.config.default_budget))
            .with_priority(request.priority);
        if let Some(deadline_ms) = request.deadline_ms {
            service_request = service_request.with_deadline(Duration::from_millis(deadline_ms));
        }
        if let Some(index) = index {
            service_request = service_request.with_index(index);
        }

        let mut state = self.lock();
        let id = state.scheduler.admit(service_request).map_err(
            |AdmissionError::QueueFull { running, capacity }| SubmitError::QueueFull {
                running,
                capacity,
            },
        )?;
        while state.events.len() <= id.index() {
            state.events.push(Vec::new());
        }
        self.shared.work.notify_all();
        Ok(id.as_u64())
    }

    /// A live status snapshot, `None` for unknown ids.
    pub fn status(&self, id: u64) -> Option<StatusResponse> {
        let state = self.lock();
        let status = state.scheduler.status(RequestId::from_u64(id))?;
        Some(StatusResponse {
            id,
            state: status.state,
            priority: status.priority,
            best_cost: status.best_cost,
            initial_cost: status.initial_cost,
            iterations: status.iterations,
            budget: if status.budget == usize::MAX {
                None
            } else {
                Some(status.budget)
            },
        })
    }

    /// The finished result, or why there is none yet.
    pub fn result(&self, id: u64) -> Result<ResultResponse, ResultError> {
        let state = self.lock();
        let rid = RequestId::from_u64(id);
        let request_state = state.scheduler.state(rid).ok_or(ResultError::NotFound)?;
        if !request_state.is_terminal() {
            return Err(ResultError::NotFinished);
        }
        let result = state.scheduler.result(rid).ok_or(ResultError::NotFound)?;
        Ok(ResultResponse {
            id,
            state: request_state,
            outcome: Outcome::from_result(result),
            elapsed_ms: result.elapsed.as_millis() as u64,
        })
    }

    /// Cancels a request. Returns the terminal state: `Cancelled` if the
    /// cancel won, the already-reached state if it raced completion, `None`
    /// for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<RequestState> {
        let mut state = self.lock();
        let outcome = state.scheduler.cancel(RequestId::from_u64(id))?;
        self.shared.progress.notify_all();
        Some(outcome)
    }

    /// Blocks until request `id` has events past `cursor` or reaches a
    /// terminal state; returns the new events and whether the request is
    /// terminal. `None` for unknown ids. The event sequence a caller
    /// accumulates by advancing `cursor` is identical across calls,
    /// threads, and servers — events carry step ordinals, not timestamps.
    pub fn next_events(&self, id: u64, cursor: usize) -> Option<(Vec<EventLine>, bool)> {
        let rid = RequestId::from_u64(id);
        let mut state = self.lock();
        loop {
            let request_state = state.scheduler.state(rid)?;
            let log = state.events.get(rid.index())?;
            if log.len() > cursor || request_state.is_terminal() {
                return Some((
                    log[cursor.min(log.len())..].to_vec(),
                    request_state.is_terminal(),
                ));
            }
            state = self
                .shared
                .progress
                .wait(state)
                .expect("daemon lock poisoned");
        }
    }

    /// Blocks until request `id` reaches a terminal state; returns it.
    /// `None` for unknown ids.
    pub fn wait_terminal(&self, id: u64) -> Option<RequestState> {
        let rid = RequestId::from_u64(id);
        let mut state = self.lock();
        loop {
            let request_state = state.scheduler.state(rid)?;
            if request_state.is_terminal() {
                return Some(request_state);
            }
            state = self
                .shared
                .progress
                .wait(state)
                .expect("daemon lock poisoned");
        }
    }

    /// Requests currently running.
    pub fn running(&self) -> usize {
        self.lock().scheduler.running()
    }

    /// Requests ever admitted.
    pub fn admitted(&self) -> usize {
        self.lock().scheduler.admitted()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.shared.waiting.fetch_add(1, Ordering::SeqCst);
        let state = self.shared.state.lock().expect("daemon lock poisoned");
        self.shared.waiting.fetch_sub(1, Ordering::SeqCst);
        state
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        {
            let mut state = self.lock();
            state.stop = true;
        }
        self.shared.work.notify_all();
        self.shared.progress.notify_all();
        if let Some(handle) = self.stepper.take() {
            let _ = handle.join();
        }
    }
}

fn stepper_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("daemon lock poisoned");
    loop {
        while !state.stop && !state.scheduler.has_work() {
            state = shared.work.wait(state).expect("daemon lock poisoned");
        }
        if state.stop {
            return;
        }
        // One global step under the lock: split-borrow so the event
        // callback can append to the logs while the scheduler advances.
        let State {
            scheduler, events, ..
        } = &mut *state;
        scheduler.step(|event| {
            let index = event.request.index();
            if index < events.len() {
                events[index].push(EventLine {
                    id: event.request.as_u64(),
                    step: event.step,
                    best_cost: event.best_cost,
                    iterations: event.iterations,
                });
            }
        });
        shared.progress.notify_all();
        // Release the lock between steps so admissions, cancels, and
        // status queries land on step boundaries; let every caller already
        // waiting for it through, then re-acquire for the next step.
        drop(state);
        while shared.waiting.load(Ordering::SeqCst) > 0 {
            thread::yield_now();
        }
        state = shared.state.lock().expect("daemon lock poisoned");
    }
}

/// Resolves a gate set's committed artifact through `cache`.
fn library_for(cache: &LibraryCache, kind: GateSetKind) -> Result<Arc<LoadedLibrary>, SubmitError> {
    let path = artifact_for(kind);
    cache
        .get_or_load(&path)
        .map_err(|e| SubmitError::Library(format!("{}: {e}", path.display())))
}

/// The committed artifact for a gate set at its quick-scale `(n, q)` —
/// the same parameters `Scale::quick` uses, which is what `libraries/`
/// commits: `libraries/<gateset>_n<N>_q<Q>.qtzl` at the repository root.
pub fn artifact_for(kind: GateSetKind) -> std::path::PathBuf {
    let (n, q) = match kind {
        GateSetKind::Nam => (3, 2),
        GateSetKind::Ibm => (2, 2),
        GateSetKind::Rigetti => (2, 2),
    };
    let name = format!("{}_n{n}_q{q}.qtzl", kind.name().to_lowercase());
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../libraries")
        .join(name)
}

/// Parses a wire gate-set name.
pub fn kind_for(name: &str) -> Result<GateSetKind, WireError> {
    match name {
        "nam" => Ok(GateSetKind::Nam),
        "ibm" => Ok(GateSetKind::Ibm),
        "rigetti" => Ok(GateSetKind::Rigetti),
        other => Err(WireError {
            field: "gate_set".to_string(),
            message: format!("unknown gate set '{other}'"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_gen::{GenConfig, Generator};
    use quartz_ir::GateSet;
    use quartz_opt::SearchConfig;
    use std::sync::OnceLock;

    fn test_optimizer() -> Optimizer {
        static INDEX: OnceLock<Arc<quartz_opt::TransformationIndex>> = OnceLock::new();
        let index = INDEX
            .get_or_init(|| {
                let (ecc, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 0)).run();
                Optimizer::from_ecc_set(&ecc, SearchConfig::default()).shared_index()
            })
            .clone();
        Optimizer::with_index(index, SearchConfig::default())
    }

    fn daemon() -> Daemon {
        let mut config = DaemonConfig::with_capacity(8);
        config.route_libraries = false;
        Daemon::with_optimizer(test_optimizer(), config)
    }

    // The cancelling CNOT pair is separated by an X on the target wire
    // (which commutes with CNOT), so `preprocess_nam`'s adjacent-inverse
    // pass cannot cancel anything — only the search can reduce this to
    // the empty circuit, which guarantees improvement events.
    const QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0],q[1];\nx q[1];\ncx q[0],q[1];\nx q[1];\n";

    /// `--require-audited` must boot against the committed artifacts: every
    /// `libraries/*.qtzl` carries a committed `.audit` sidecar whose stamp
    /// certifies its checksum (CI keeps them live). Skipped when run
    /// outside a full checkout.
    #[test]
    fn booting_with_require_audited_accepts_stamped_artifacts() {
        let path = artifact_for(GateSetKind::Nam);
        if !path.exists() {
            return;
        }
        let config = DaemonConfig {
            require_audited: true,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::new(config).expect("committed artifacts carry live audit stamps");
        assert!(daemon.config().require_audited);
    }

    #[test]
    fn submit_runs_to_completion_and_serves_the_result() {
        let daemon = daemon();
        let mut request = SubmitRequest::new(QASM);
        request.budget = Some(30);
        let id = daemon.submit(&request).unwrap();
        let state = daemon.wait_terminal(id).unwrap();
        assert_eq!(state, RequestState::Done);
        let result = daemon.result(id).unwrap();
        assert_eq!(result.outcome.initial_cost, 4);
        assert_eq!(result.outcome.best_cost, 0);
        assert!(result.outcome.iterations > 0);
        // Status after completion reports the finished counters.
        let status = daemon.status(id).unwrap();
        assert_eq!(status.state, RequestState::Done);
        assert_eq!(status.best_cost, 0);
    }

    #[test]
    fn unknown_ids_are_not_found() {
        let daemon = daemon();
        assert!(daemon.status(99).is_none());
        assert_eq!(daemon.result(99).unwrap_err(), ResultError::NotFound);
        assert!(daemon.cancel(99).is_none());
        assert!(daemon.next_events(99, 0).is_none());
    }

    #[test]
    fn bad_qasm_is_rejected_at_submit() {
        let daemon = daemon();
        let err = daemon
            .submit(&SubmitRequest::new(
                "OPENQASM 2.0;\nqreg q[1];\nbadgate q[0];\n",
            ))
            .unwrap_err();
        assert!(matches!(err, SubmitError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn event_stream_is_exhaustive_and_terminal() {
        let daemon = daemon();
        let mut request = SubmitRequest::new(QASM);
        request.budget = Some(30);
        let id = daemon.submit(&request).unwrap();
        let mut events = Vec::new();
        let mut cursor = 0;
        loop {
            let (batch, terminal) = daemon.next_events(id, cursor).unwrap();
            cursor += batch.len();
            events.extend(batch);
            if terminal {
                break;
            }
        }
        // The circuit reduces, so at least one improvement was streamed,
        // stamped with step ordinals (not wall-clock).
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].step <= w[1].step));
        assert_eq!(events.last().unwrap().best_cost, 0);
    }
}
