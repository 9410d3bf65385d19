//! Multi-circuit optimization service: many concurrent searches over shared
//! [`TransformationIndex`]es, with mid-run admission, per-request budgets,
//! deadlines, priority classes, backpressure, and graceful cancellation
//! (DESIGN.md §6, §10).
//!
//! The [`ServiceScheduler`] is the one driver of Algorithm 2. It runs an
//! *open set* of requests: one [`Frontier`] per admitted request — each
//! with its own priority queue, fingerprint seen-set, iteration budget, and
//! γ threshold — while the transformation indexes, loaded or built once,
//! are shared by every request that uses them and never cloned. Frontier
//! entries are self-contained `(parent context Arc, splice delta, hash)`
//! recipes, so any worker thread can materialize any entry's match context;
//! that is what lets a single worker pool serve every frontier.
//! [`Optimizer::optimize`] is a scheduler with one request whose deadline
//! is the configured timeout.
//!
//! # Work stealing, admission, and determinism
//!
//! Each scheduling step ranks the queue heads of all running frontiers by
//! the global key `(priority, cost, request id, order)` and selects the best
//! [`SearchConfig::num_threads`] frontiers; each selected frontier pops its
//! best entry, the popped entries are expanded in parallel, and the
//! expansions merge back into their frontiers in exactly the ranked key
//! order. Worker time therefore flows to whichever requests currently have
//! the cheapest open candidates within the highest present priority class,
//! yet every individual frontier steps through the same pop → freeze →
//! expand → merge → prune sequence it would step through alone.
//!
//! **Admission is a queue insert.** Because the scheduler re-ranks queue
//! heads every step, admitting a request mid-run just adds one more frontier
//! to the ranking — no pause, no rebuild, no effect on co-tenants. And since
//! frontiers share no mutable state, neither the interleaving across
//! requests nor the admission timing can influence any per-request outcome:
//! under an iteration budget, each request's [`SearchResult`] is
//! bit-identical to a standalone [`Optimizer::optimize_with_budget`] run
//! with the same budget (wall-clock fields aside), no matter how many
//! worker threads the service uses, which co-tenants it shares them with,
//! when it was admitted, or what faults (cancellations, deadline expiries,
//! malformed submissions) its co-tenants suffer. Cancellation drops exactly
//! one frontier; deadlines (the standalone timeout among them) are checked
//! only *between* steps, so they bound how many steps a request executes
//! without ever changing the outcome of a step.
//!
//! [`OptimizationService`] keeps the original closed-batch API; it is now a
//! thin wrapper that admits the whole batch up front and steps the
//! scheduler until every request finishes.

use crate::search::{Frontier, Optimizer, QueueEntry, SearchConfig, SearchResult};
use quartz_gen::TransformationIndex;
use quartz_ir::{Circuit, FxHashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scheduling class of a request: all queued work of a higher (lower-valued)
/// class is preferred over any work of a lower class when the scheduler
/// picks the frontiers to expand. Priorities shape *latency* only; outcomes
/// are per-request deterministic regardless of class (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Served before all others.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Served only when no higher class has queued work.
    Low,
}

impl Priority {
    /// Rank used in the global scheduling key (lower ranks first).
    fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Canonical lower-case name (`"high"` / `"normal"` / `"low"`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses [`Priority::name`] output back, case-insensitively.
    pub fn parse(s: &str) -> Option<Priority> {
        match s.to_ascii_lowercase().as_str() {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Handle to an admitted request: its admission ordinal. Ids are assigned
/// densely in admission order and never reused within one scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// The admission ordinal as a `u64` (what the wire protocol carries).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The admission ordinal as a dense index (what batch callers use to
    /// map events back to their submission order).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from its wire value. The scheduler rejects ids it
    /// never issued, so forging one is harmless.
    pub fn from_u64(raw: u64) -> Self {
        RequestId(raw)
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One optimization request: the circuit plus its own budget, deadline,
/// priority class, and (optionally) the transformation index to search
/// with — which is how one scheduler serves NAM, IBM, and Rigetti traffic
/// concurrently, each request routed to its gate set's library index.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    /// The circuit to optimize.
    pub circuit: Circuit,
    /// Iteration budget (dequeues) for this request. The determinism
    /// guarantee is stated under this budget; `usize::MAX` means "until the
    /// queue is exhausted or a deadline fires".
    pub budget: usize,
    /// Optional wall-clock deadline, measured from admission. Checked only
    /// between scheduling steps (never mid-step), so expiry changes how many
    /// steps the request executes, never the outcome of a step. A deadline
    /// too far out for the clock to represent means no deadline.
    pub deadline: Option<Duration>,
    /// Scheduling class.
    pub priority: Priority,
    /// Transformation index to search with; `None` uses the scheduler's
    /// default index.
    pub index: Option<Arc<TransformationIndex>>,
}

impl ServiceRequest {
    /// A request with an unlimited budget, no deadline, normal priority, and
    /// the scheduler's default index.
    pub fn new(circuit: Circuit) -> Self {
        ServiceRequest {
            circuit,
            budget: usize::MAX,
            deadline: None,
            priority: Priority::Normal,
            index: None,
        }
    }

    /// Sets the iteration budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Sets a wall-clock deadline relative to admission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Routes the request to a specific transformation index (typically a
    /// gate-set library loaded through [`crate::LibraryCache`]).
    pub fn with_index(mut self, index: Arc<TransformationIndex>) -> Self {
        self.index = Some(index);
        self
    }
}

/// Lifecycle state of an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestState {
    /// Admitted and schedulable (its frontier is live).
    Running,
    /// Finished by budget exhaustion or queue exhaustion — the
    /// deterministic terminal state.
    Done,
    /// Cancelled by the client; the partial result was kept and the
    /// frontier freed.
    Cancelled,
    /// The per-request deadline fired between steps; the partial result was
    /// kept and the frontier freed.
    DeadlineExpired,
}

impl RequestState {
    /// Canonical lower-snake name, as carried on the wire.
    pub fn name(self) -> &'static str {
        match self {
            RequestState::Running => "running",
            RequestState::Done => "done",
            RequestState::Cancelled => "cancelled",
            RequestState::DeadlineExpired => "deadline_expired",
        }
    }

    /// `true` for every state except [`RequestState::Running`].
    pub fn is_terminal(self) -> bool {
        !matches!(self, RequestState::Running)
    }

    /// Parses [`RequestState::name`] output back.
    pub fn parse(s: &str) -> Option<RequestState> {
        match s {
            "running" => Some(RequestState::Running),
            "done" => Some(RequestState::Done),
            "cancelled" => Some(RequestState::Cancelled),
            "deadline_expired" => Some(RequestState::DeadlineExpired),
            _ => None,
        }
    }
}

impl std::fmt::Display for RequestState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Point-in-time snapshot of one request, served by status queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestStatus {
    /// The request's id.
    pub id: RequestId,
    /// Current lifecycle state.
    pub state: RequestState,
    /// Scheduling class.
    pub priority: Priority,
    /// Best cost found so far (or final, when terminal).
    pub best_cost: usize,
    /// Cost of the (canonicalized) input circuit.
    pub initial_cost: usize,
    /// Search iterations spent so far.
    pub iterations: usize,
    /// The request's iteration budget.
    pub budget: usize,
}

/// Why an admission was refused. The scheduler's slot table is bounded;
/// refusing at admission time (HTTP 429 at the serve layer) is the
/// backpressure mechanism that keeps one greedy client from unbounded
/// memory growth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The scheduler already has `capacity` running requests.
    QueueFull {
        /// Currently running requests.
        running: usize,
        /// The configured bound.
        capacity: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { running, capacity } => write!(
                f,
                "admission queue full: {running} running requests at capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A streamed per-request improvement snapshot (one entry of what will
/// become the request's [`SearchResult::improvement_trace`]).
///
/// Events are keyed by the scheduler's **step ordinal** — a deterministic
/// logical clock that increments once per scheduling step — not by
/// wall-clock time, so a request's event stream is bit-identical across
/// runs, thread counts, and co-tenant mixes (asserted by tests; the wire
/// protocol forwards the ordinal verbatim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceEvent {
    /// The request whose best cost improved.
    pub request: RequestId,
    /// The scheduler step (1-based logical time) that merged the
    /// improvement. Within one request, strictly non-decreasing.
    pub step: u64,
    /// The request's new best cost.
    pub best_cost: usize,
    /// Entries dequeued for this request so far.
    pub iterations: usize,
}

/// One request's slot in the scheduler table.
struct Slot {
    priority: Priority,
    admitted_at: Instant,
    deadline: Option<Instant>,
    /// Per-request engine: this request's index behind the shared
    /// configuration. Cloning an [`Optimizer`] clones an `Arc` and a config
    /// struct — the index itself is never duplicated.
    optimizer: Optimizer,
    /// The iteration budget the request was admitted with.
    budget: usize,
    /// Live search state; `None` once the slot is terminal (the frontier is
    /// freed the moment the request ends, whatever the reason).
    frontier: Option<Frontier>,
    /// The frontier's progress as of admission, refreshed at finalization:
    /// what status reports once the frontier is gone, even after
    /// [`ServiceScheduler::take_result`].
    summary: Progress,
    state: RequestState,
    result: Option<SearchResult>,
}

/// One frontier's share of a scheduling step, owned so that it can move
/// into a pool job: the entry it popped, its best cost and seen-set frozen
/// at the pop, the request's engine, and its trace length before the step.
struct Work {
    id: usize,
    trace_len_before: usize,
    optimizer: Optimizer,
    entry: QueueEntry,
    frozen_best: usize,
    /// A handle on the frontier's seen-set. The job drops it before it
    /// reports, so the merge gets the set back without a copy.
    seen: Arc<FxHashSet<u64>>,
}

/// The status fields a frontier owns.
#[derive(Debug, Clone, Copy)]
struct Progress {
    best_cost: usize,
    initial_cost: usize,
    iterations: usize,
}

impl Progress {
    fn of(frontier: &Frontier) -> Progress {
        Progress {
            best_cost: frontier.best_cost(),
            initial_cost: frontier.initial_cost(),
            iterations: frontier.iterations(),
        }
    }
}

/// An always-on, admission-capable optimization scheduler: the core of the
/// `quartz-serve` daemon, usable directly as a library.
///
/// Unlike [`OptimizationService::optimize_batch`], which runs one closed
/// batch to completion, the scheduler is *open*: requests are
/// [admitted](ServiceScheduler::admit) at any time (including while other
/// requests are mid-search), [stepped](ServiceScheduler::step) by the
/// caller's driver loop, [cancelled](ServiceScheduler::cancel) without
/// disturbing co-tenants, and their results collected whenever they finish.
///
/// # Examples
///
/// ```
/// use quartz_gen::{GenConfig, Generator};
/// use quartz_ir::{Circuit, Gate, GateSet, Instruction};
/// use quartz_opt::{Optimizer, SearchConfig, ServiceRequest, ServiceScheduler};
///
/// let (set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 0)).run();
/// let optimizer = Optimizer::from_ecc_set(&set, SearchConfig::default());
/// let mut scheduler = ServiceScheduler::new(optimizer, 64);
///
/// let mut hh = Circuit::new(2, 0);
/// hh.push(Instruction::new(Gate::H, vec![0], vec![]));
/// hh.push(Instruction::new(Gate::H, vec![0], vec![]));
/// let id = scheduler
///     .admit(ServiceRequest::new(hh).with_budget(8))
///     .unwrap();
///
/// while scheduler.has_work() {
///     scheduler.step(|_event| {});
/// }
/// let result = scheduler.result(id).unwrap();
/// assert_eq!(result.best_cost, 0);
/// ```
pub struct ServiceScheduler {
    /// Default engine: supplies the configuration every slot shares and the
    /// index used by requests that do not route to their own.
    optimizer: Optimizer,
    slots: Vec<Slot>,
    step: u64,
    capacity: usize,
}

impl ServiceScheduler {
    /// Creates a scheduler around a default engine, bounding the number of
    /// concurrently *running* requests at `capacity` (admissions beyond it
    /// fail with [`AdmissionError::QueueFull`]; terminal slots whose results
    /// are retained do not count).
    pub fn new(optimizer: Optimizer, capacity: usize) -> Self {
        ServiceScheduler {
            optimizer,
            slots: Vec::new(),
            step: 0,
            capacity,
        }
    }

    /// The default engine (shared configuration + default index).
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The configured bound on concurrently running requests.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of requests currently in [`RequestState::Running`].
    pub fn running(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state == RequestState::Running)
            .count()
    }

    /// Total requests ever admitted (terminal slots included).
    pub fn admitted(&self) -> usize {
        self.slots.len()
    }

    /// `true` while any request is running — i.e. while
    /// [`ServiceScheduler::step`] has something to do.
    pub fn has_work(&self) -> bool {
        self.slots.iter().any(|s| s.state == RequestState::Running)
    }

    /// The deterministic logical clock: scheduling steps executed so far.
    pub fn step_ordinal(&self) -> u64 {
        self.step
    }

    /// Admits a request, returning its id. O(circuit) — the input is
    /// canonicalized and its frontier seeded — after which the request is
    /// simply one more entrant in the next step's global ranking: admission
    /// never pauses or perturbs co-tenant searches.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] when `capacity` requests are already
    /// running (the backpressure signal; HTTP 429 at the serve layer).
    pub fn admit(&mut self, request: ServiceRequest) -> Result<RequestId, AdmissionError> {
        let running = self.running();
        if running >= self.capacity {
            return Err(AdmissionError::QueueFull {
                running,
                capacity: self.capacity,
            });
        }
        let config = self.optimizer.config().clone();
        let optimizer = match request.index {
            Some(index) => Optimizer::with_index(index, config),
            None => self.optimizer.clone(),
        };
        let admitted_at = Instant::now();
        let frontier = Frontier::new(
            &request.circuit,
            optimizer.config().cost_model,
            request.budget,
        );
        let id = RequestId(self.slots.len() as u64);
        self.slots.push(Slot {
            priority: request.priority,
            admitted_at,
            // A deadline past the end of the clock is no deadline.
            deadline: request.deadline.and_then(|d| admitted_at.checked_add(d)),
            optimizer,
            budget: request.budget,
            summary: Progress::of(&frontier),
            frontier: Some(frontier),
            state: RequestState::Running,
            result: None,
        });
        Ok(id)
    }

    /// Cancels a running request: its partial [`SearchResult`] (best circuit
    /// so far, counters, trace) is finalized and retained, and its frontier
    /// — queue, seen-set, match contexts — is freed immediately. Co-tenants
    /// are untouched: frontiers share no mutable state, so their remaining
    /// trajectories are bit-for-bit what they would have been.
    ///
    /// Cancelling a request that already reached a terminal state (the
    /// cancel-races-completion case) is not an error: the request keeps its
    /// original state and result, and that state is returned.
    ///
    /// Returns `None` for ids this scheduler never issued.
    pub fn cancel(&mut self, id: RequestId) -> Option<RequestState> {
        let slot = self.slots.get_mut(id.index())?;
        if slot.state == RequestState::Running {
            Self::finalize(slot, RequestState::Cancelled);
        }
        Some(slot.state)
    }

    /// Current state of a request, or `None` for unknown ids.
    pub fn state(&self, id: RequestId) -> Option<RequestState> {
        self.slots.get(id.index()).map(|s| s.state)
    }

    /// Point-in-time snapshot of a request, or `None` for unknown ids.
    pub fn status(&self, id: RequestId) -> Option<RequestStatus> {
        let slot = self.slots.get(id.index())?;
        let progress = slot.frontier.as_ref().map_or(slot.summary, Progress::of);
        Some(RequestStatus {
            id,
            state: slot.state,
            priority: slot.priority,
            best_cost: progress.best_cost,
            initial_cost: progress.initial_cost,
            iterations: progress.iterations,
            budget: slot.budget,
        })
    }

    /// The finalized result of a terminal request; `None` while it is still
    /// running or for unknown ids.
    pub fn result(&self, id: RequestId) -> Option<&SearchResult> {
        self.slots.get(id.index())?.result.as_ref()
    }

    /// Removes and returns the finalized result of a terminal request
    /// (`None` while running or unknown). Subsequent status queries keep
    /// answering with the terminal state.
    pub fn take_result(&mut self, id: RequestId) -> Option<SearchResult> {
        self.slots.get_mut(id.index())?.result.take()
    }

    /// Executes one scheduling step — deadline sweep, global ranking, one pop
    /// per selected frontier, parallel expansion, ranked merge — streaming a
    /// [`ServiceEvent`] to `progress` for every per-request improvement the
    /// step produced.
    /// Returns `true` while work remains after the step.
    ///
    /// Every step is a pure function of the admitted frontiers (the deadline
    /// sweep aside, which only removes frontiers *between* steps), so any
    /// schedule of `step` calls interleaved with admissions produces
    /// per-request outcomes bit-identical to standalone runs.
    pub fn step<F>(&mut self, mut progress: F) -> bool
    where
        F: FnMut(ServiceEvent),
    {
        self.step += 1;
        let config = self.optimizer.config();

        // Deadline sweep + terminal sweep: a request whose deadline has
        // passed, whose budget is spent, or whose queue is exhausted ends
        // here, between steps — never mid-step.
        let now = Instant::now();
        for slot in &mut self.slots {
            if slot.state != RequestState::Running {
                continue;
            }
            if slot.deadline.is_some_and(|d| d <= now) {
                Self::finalize(slot, RequestState::DeadlineExpired);
                continue;
            }
            let frontier = slot
                .frontier
                .as_ref()
                .expect("running slots have frontiers");
            if frontier.remaining_budget() == 0 || frontier.peek_key().is_none() {
                Self::finalize(slot, RequestState::Done);
            }
        }

        // Rank the queue heads of every running frontier by the global
        // scheduling key and select the best `threads` frontiers.
        let threads = config.effective_threads();
        let mut tops: Vec<(u8, usize, usize, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == RequestState::Running)
            .filter_map(|(id, s)| {
                let f = s.frontier.as_ref().expect("running slots have frontiers");
                f.peek_key()
                    .map(|(cost, order)| (s.priority.rank(), cost, id, order))
            })
            .collect();
        if tops.is_empty() {
            return self.has_work();
        }
        tops.sort_unstable();
        tops.truncate(threads);

        // Each selected frontier pops its best entry and freezes its best
        // cost. The trace length is snapshotted first so the events
        // streamed below cover the whole step.
        let work: Vec<Work> = tops
            .iter()
            .map(|&(_, _, id, _)| {
                let slot = &mut self.slots[id];
                let frontier = slot.frontier.as_mut().expect("selected slots are running");
                let trace_len_before = frontier.improvement_trace().len();
                let entry = frontier
                    .pop()
                    .expect("selected frontiers have a queue head");
                Work {
                    id,
                    trace_len_before,
                    optimizer: slot.optimizer.clone(),
                    entry,
                    frozen_best: frontier.best_cost(),
                    seen: frontier.share_seen(),
                }
            })
            .collect();

        // Expand the popped entries in parallel, one per selected frontier:
        // each `Work` moves into a job on the persistent worker pool, and the
        // calling thread expands the first itself. Jobs read only
        // per-frontier state frozen before the step (each frontier's best
        // cost and seen-set) through each request's own engine — which is
        // how one step expands entries of different gate-set indexes side by
        // side. The filters are exact, not heuristic: a candidate failing γ
        // against the frozen best also fails against any (only ever lower)
        // merge-time best, and a hash in the frozen seen-set is still in it
        // at merge time. A job drops its `Work` before it reports, so every
        // seen-set handle is gone by the merge.
        let expansions = quartz_ir::par::map_in_order(work, threads, |w| {
            let expansion = w.optimizer.expand_entry(&w.entry, w.frozen_best, &w.seen);
            (w.id, w.trace_len_before, expansion)
        });

        // Merge in the global key order — fixed before expansion, so the
        // outcome is independent of thread scheduling.
        let step = self.step;
        for (id, trace_len_before, expansion) in expansions {
            let slot = &mut self.slots[id];
            let frontier = slot.frontier.as_mut().expect("selected slots are running");
            frontier.merge(expansion, config, slot.admitted_at);
            let iterations = frontier.iterations();
            for &(_, best_cost) in &frontier.improvement_trace()[trace_len_before..] {
                progress(ServiceEvent {
                    request: RequestId(id as u64),
                    step,
                    best_cost,
                    iterations,
                });
            }
            frontier.prune_queue(config);
            // A request that just spent its budget or emptied its queue is
            // finalized immediately so its frontier memory is released and
            // its state flips to `Done` without waiting for the next step.
            if frontier.remaining_budget() == 0 || frontier.peek_key().is_none() {
                Self::finalize(slot, RequestState::Done);
            }
        }
        self.has_work()
    }

    fn finalize(slot: &mut Slot, state: RequestState) {
        debug_assert_eq!(slot.state, RequestState::Running);
        let frontier = slot
            .frontier
            .take()
            .expect("running slots have frontiers to finalize");
        slot.summary = Progress::of(&frontier);
        slot.result = Some(frontier.into_result(slot.admitted_at.elapsed()));
        slot.state = state;
    }
}

impl std::fmt::Debug for ServiceScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceScheduler")
            .field("admitted", &self.slots.len())
            .field("running", &self.running())
            .field("step", &self.step)
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// A batch optimization service over one shared transformation index: the
/// closed-batch front of the [`ServiceScheduler`].
///
/// # Examples
///
/// ```
/// use quartz_gen::{Generator, GenConfig};
/// use quartz_ir::{Circuit, Gate, GateSet, Instruction};
/// use quartz_opt::{OptimizationService, Optimizer, SearchConfig};
/// use std::time::Duration;
///
/// let (ecc_set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 0)).run();
/// let optimizer = Optimizer::from_ecc_set(&ecc_set, SearchConfig::with_timeout(Duration::from_secs(2)));
/// let service = OptimizationService::new(optimizer);
///
/// // Two independent requests served concurrently over one index.
/// let mut a = Circuit::new(2, 0);
/// a.push(Instruction::new(Gate::H, vec![0], vec![]));
/// a.push(Instruction::new(Gate::H, vec![0], vec![]));
/// let mut b = Circuit::new(2, 0);
/// b.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
/// b.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
///
/// let results = service.optimize_batch(&[a, b]);
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].best_cost, 0);
/// assert_eq!(results[1].best_cost, 0);
/// ```
#[derive(Debug, Clone)]
pub struct OptimizationService {
    optimizer: Optimizer,
}

impl OptimizationService {
    /// Creates a service around an existing optimizer (its transformation
    /// index is built once and shared by every batch and every circuit).
    pub fn new(optimizer: Optimizer) -> Self {
        OptimizationService { optimizer }
    }

    /// Creates a service from an ECC set, extracting transformations with
    /// common-subcircuit pruning enabled (paper §5.2).
    pub fn from_ecc_set(set: &quartz_gen::EccSet, config: SearchConfig) -> Self {
        OptimizationService::new(Optimizer::from_ecc_set(set, config))
    }

    /// Creates a service from a loaded library artifact
    /// ([`crate::LibraryCache`]), sharing its in-memory dispatch index —
    /// the zero-generation startup path (DESIGN.md §7).
    pub fn from_library(library: &crate::LoadedLibrary, config: SearchConfig) -> Self {
        OptimizationService::new(Optimizer::from_library(library, config))
    }

    /// The underlying optimizer (shared index + configuration).
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// Optimizes every circuit of the batch concurrently, returning one
    /// [`SearchResult`] per input circuit, in input order.
    ///
    /// Every circuit is admitted up front with the configuration's
    /// `max_iterations` as its budget and its `timeout` as its deadline, so
    /// the timeout bounds the whole batch. Each circuit's result is
    /// bit-identical (wall-clock fields aside) to a standalone
    /// [`Optimizer::optimize`] run with the same configuration whenever the
    /// run ends by iteration budget or queue exhaustion.
    pub fn optimize_batch(&self, circuits: &[Circuit]) -> Vec<SearchResult> {
        self.optimize_batch_with_progress(circuits, |_| {})
    }

    /// Like [`OptimizationService::optimize_batch`], additionally streaming a
    /// [`ServiceEvent`] to `progress` every time any circuit's best cost
    /// improves. Events for one circuit arrive in improvement order
    /// (strictly decreasing `best_cost`); events of different circuits
    /// interleave in the deterministic merge order, each stamped with the
    /// scheduler's step ordinal.
    pub fn optimize_batch_with_progress<F>(
        &self,
        circuits: &[Circuit],
        mut progress: F,
    ) -> Vec<SearchResult>
    where
        F: FnMut(ServiceEvent),
    {
        let config = self.optimizer.config();
        // A closed batch admits everything up front, so capacity (the
        // admission-time backpressure bound) does not apply.
        let mut scheduler = ServiceScheduler::new(self.optimizer.clone(), usize::MAX);
        let ids: Vec<RequestId> = circuits
            .iter()
            .map(|circuit| {
                scheduler
                    .admit(
                        ServiceRequest::new(circuit.clone())
                            .with_budget(config.max_iterations)
                            .with_deadline(config.timeout),
                    )
                    .expect("unbounded scheduler never refuses admission")
            })
            .collect();
        while scheduler.step(&mut progress) {}
        ids.into_iter()
            .map(|id| {
                scheduler
                    .take_result(id)
                    .expect("finished requests keep their result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_gen::{GenConfig, Generator};
    use quartz_ir::{Gate, GateSet, Instruction};

    fn nam_service(max_iterations: usize, num_threads: usize) -> OptimizationService {
        let (set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 0)).run();
        OptimizationService::from_ecc_set(
            &set,
            SearchConfig {
                timeout: Duration::from_secs(120),
                max_iterations,
                num_threads,
                ..SearchConfig::default()
            },
        )
    }

    fn h_ladder(n: usize) -> Circuit {
        let mut c = Circuit::new(2, 0);
        for _ in 0..n {
            c.push(Instruction::new(Gate::H, vec![0], vec![]));
        }
        c
    }

    fn cnot_pairs(n: usize) -> Circuit {
        let mut c = Circuit::new(2, 0);
        for _ in 0..n {
            c.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        }
        c
    }

    #[test]
    fn empty_batch_yields_no_results() {
        let service = nam_service(4, 1);
        assert!(service.optimize_batch(&[]).is_empty());
    }

    #[test]
    fn batch_results_match_standalone_runs() {
        let service = nam_service(10, 4);
        let batch = vec![h_ladder(4), cnot_pairs(3), h_ladder(6)];
        let results = service.optimize_batch(&batch);
        assert_eq!(results.len(), batch.len());
        for (circuit, batched) in batch.iter().zip(&results) {
            let solo = service.optimizer().optimize(circuit);
            assert_eq!(batched.best_circuit, solo.best_circuit);
            assert_eq!(batched.best_cost, solo.best_cost);
            assert_eq!(batched.initial_cost, solo.initial_cost);
            assert_eq!(batched.iterations, solo.iterations);
            assert_eq!(batched.circuits_seen, solo.circuits_seen);
            assert_eq!(batched.match_attempts, solo.match_attempts);
            assert_eq!(batched.match_skips, solo.match_skips);
            assert_eq!(batched.dedup_hits, solo.dedup_hits);
            assert_eq!(batched.fp_fast_rejects, solo.fp_fast_rejects);
            assert_eq!(batched.fp_confirm_mismatches, solo.fp_confirm_mismatches);
        }
    }

    /// Deferred materialization is invisible in service outcomes too: every
    /// request of a co-tenant batch, whose candidates are built only when
    /// dequeued, matches the naive oracle, which builds every candidate
    /// eagerly.
    #[test]
    fn deferred_service_batches_match_eager_batches() {
        let service = nam_service(10, 3);
        let batch = vec![h_ladder(6), cnot_pairs(4), h_ladder(3)];
        let results = service.optimize_batch(&batch);
        for (i, (circuit, result)) in batch.iter().zip(&results).enumerate() {
            let eager = crate::oracle::run(
                service.optimizer().transformations(),
                service.optimizer().config(),
                circuit,
            );
            crate::oracle::assert_agrees(result, &eager, &format!("request {i}"));
        }
    }

    #[test]
    fn batch_runs_are_reproducible() {
        let service = nam_service(8, 3);
        let batch = vec![h_ladder(5), cnot_pairs(2), h_ladder(3), cnot_pairs(4)];
        let a = service.optimize_batch(&batch);
        let b = service.optimize_batch(&batch);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.best_circuit, rb.best_circuit);
            assert_eq!(ra.best_cost, rb.best_cost);
            assert_eq!(ra.iterations, rb.iterations);
            assert_eq!(ra.circuits_seen, rb.circuits_seen);
        }
    }

    #[test]
    fn progress_events_stream_per_circuit_improvements() {
        let service = nam_service(12, 2);
        let batch = vec![h_ladder(4), cnot_pairs(4)];
        let mut events: Vec<ServiceEvent> = Vec::new();
        let results = service.optimize_batch_with_progress(&batch, |e| events.push(e));

        // Both circuits reduce to the empty circuit, so both must stream at
        // least one improvement, and per-circuit costs strictly decrease.
        for (id, result) in results.iter().enumerate() {
            assert_eq!(result.best_cost, 0);
            let costs: Vec<usize> = events
                .iter()
                .filter(|e| e.request.index() == id)
                .map(|e| e.best_cost)
                .collect();
            assert!(!costs.is_empty(), "circuit {id} streamed no improvements");
            assert!(costs.windows(2).all(|w| w[1] < w[0]));
            assert_eq!(*costs.last().unwrap(), result.best_cost);
            // The streamed snapshots are exactly the improvement trace minus
            // its initial (t = 0, initial cost) entry.
            let trace_costs: Vec<usize> = result
                .improvement_trace
                .iter()
                .skip(1)
                .map(|&(_, c)| c)
                .collect();
            assert_eq!(costs, trace_costs);
        }
    }

    /// The step-ordinal fix (ISSUE 7): the full event stream — ordinals
    /// included — is bit-identical across runs, so `stream` output is
    /// reproducible and assertable.
    #[test]
    fn progress_event_streams_are_bit_identical_across_runs() {
        let service = nam_service(12, 3);
        let batch = vec![h_ladder(4), cnot_pairs(4), h_ladder(6)];
        let mut a: Vec<ServiceEvent> = Vec::new();
        let mut b: Vec<ServiceEvent> = Vec::new();
        service.optimize_batch_with_progress(&batch, |e| a.push(e));
        service.optimize_batch_with_progress(&batch, |e| b.push(e));
        assert!(!a.is_empty());
        assert_eq!(a, b);
        // Ordinals are a logical clock: positive and non-decreasing within
        // the merged stream (merges happen in ranked order per step).
        assert!(a.iter().all(|e| e.step > 0));
        assert!(a.windows(2).all(|w| w[0].step <= w[1].step));
    }

    /// Two batches stepped at the same time from two caller threads share
    /// the one worker pool, and each result is bit-identical, field by
    /// field, to a sequential 1-thread run of the same circuits.
    #[test]
    fn concurrent_callers_share_the_pool_and_keep_outcomes_exact() {
        let two = nam_service(10, 2);
        let one = OptimizationService::new(Optimizer::with_index(
            two.optimizer().shared_index(),
            SearchConfig {
                num_threads: 1,
                ..two.optimizer().config().clone()
            },
        ));
        let batches = [
            vec![h_ladder(6), cnot_pairs(4), h_ladder(3)],
            vec![cnot_pairs(5), h_ladder(5), cnot_pairs(2)],
        ];
        let sequential: Vec<Vec<SearchResult>> =
            batches.iter().map(|b| one.optimize_batch(b)).collect();
        let start = std::sync::Barrier::new(batches.len());
        let concurrent: Vec<Vec<SearchResult>> = std::thread::scope(|scope| {
            let callers: Vec<_> = batches
                .iter()
                .map(|batch| {
                    scope.spawn(|| {
                        start.wait();
                        two.optimize_batch(batch)
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|caller| caller.join().expect("caller thread panicked"))
                .collect()
        });
        let costs = |r: &SearchResult| -> Vec<usize> {
            r.improvement_trace.iter().map(|&(_, c)| c).collect()
        };
        assert_eq!(concurrent.iter().map(Vec::len).sum::<usize>(), 6);
        for (got, want) in concurrent.iter().flatten().zip(sequential.iter().flatten()) {
            assert_eq!(got.best_circuit, want.best_circuit);
            assert_eq!(got.best_cost, want.best_cost);
            assert_eq!(got.initial_cost, want.initial_cost);
            assert_eq!(got.iterations, want.iterations);
            assert_eq!(got.circuits_seen, want.circuits_seen);
            assert_eq!(costs(got), costs(want));
            assert_eq!(got.match_attempts, want.match_attempts);
            assert_eq!(got.match_skips, want.match_skips);
            assert_eq!(got.dedup_hits, want.dedup_hits);
            assert_eq!(got.fp_fast_rejects, want.fp_fast_rejects);
            assert_eq!(got.fp_confirm_mismatches, want.fp_confirm_mismatches);
        }
    }

    #[test]
    fn per_circuit_iteration_budget_is_respected() {
        let service = nam_service(3, 4);
        let batch = vec![h_ladder(6), h_ladder(6), cnot_pairs(6)];
        for result in service.optimize_batch(&batch) {
            assert!(result.iterations <= 3, "got {}", result.iterations);
        }
    }

    // ------------------------------------------------------------------
    // ServiceScheduler: admission, cancellation, priorities, deadlines.
    // ------------------------------------------------------------------

    fn nam_scheduler(num_threads: usize, capacity: usize) -> ServiceScheduler {
        let (set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 0)).run();
        ServiceScheduler::new(
            Optimizer::from_ecc_set(
                &set,
                SearchConfig {
                    timeout: Duration::from_secs(120),
                    num_threads,
                    ..SearchConfig::default()
                },
            ),
            capacity,
        )
    }

    fn run_to_completion(scheduler: &mut ServiceScheduler) -> Vec<ServiceEvent> {
        let mut events = Vec::new();
        while scheduler.has_work() {
            scheduler.step(|e| events.push(e));
        }
        events
    }

    /// Mid-run admission: requests admitted while others are mid-search get
    /// results bit-identical to standalone runs with the same budget.
    #[test]
    fn mid_run_admission_is_bit_identical_to_standalone() {
        let mut scheduler = nam_scheduler(2, 64);
        let standalone = scheduler.optimizer().clone();

        let a = scheduler
            .admit(ServiceRequest::new(h_ladder(6)).with_budget(10))
            .unwrap();
        // Let the first request make progress before the others arrive.
        scheduler.step(|_| {});
        scheduler.step(|_| {});
        let b = scheduler
            .admit(ServiceRequest::new(cnot_pairs(4)).with_budget(7))
            .unwrap();
        scheduler.step(|_| {});
        let c = scheduler
            .admit(ServiceRequest::new(h_ladder(3)).with_budget(12))
            .unwrap();
        run_to_completion(&mut scheduler);

        for (id, circuit, budget) in [
            (a, h_ladder(6), 10),
            (b, cnot_pairs(4), 7),
            (c, h_ladder(3), 12),
        ] {
            assert_eq!(scheduler.state(id), Some(RequestState::Done));
            let served = scheduler.result(id).unwrap();
            let solo = standalone.optimize_with_budget(&circuit, budget);
            assert_eq!(served.best_circuit, solo.best_circuit);
            assert_eq!(served.best_cost, solo.best_cost);
            assert_eq!(served.iterations, solo.iterations);
            assert_eq!(served.circuits_seen, solo.circuits_seen);
            assert_eq!(served.match_attempts, solo.match_attempts);
            assert_eq!(served.dedup_hits, solo.dedup_hits);
        }
    }

    #[test]
    fn cancellation_frees_the_frontier_and_keeps_cotenants_exact() {
        let mut reference = nam_scheduler(2, 64);
        let survivor_ref = reference
            .admit(ServiceRequest::new(h_ladder(6)).with_budget(10))
            .unwrap();
        run_to_completion(&mut reference);
        let expected = reference.result(survivor_ref).unwrap().clone();

        let mut scheduler = nam_scheduler(2, 64);
        let survivor = scheduler
            .admit(ServiceRequest::new(h_ladder(6)).with_budget(10))
            .unwrap();
        let victim = scheduler
            .admit(ServiceRequest::new(cnot_pairs(6)).with_budget(50))
            .unwrap();
        scheduler.step(|_| {});
        assert_eq!(scheduler.cancel(victim), Some(RequestState::Cancelled));
        assert_eq!(scheduler.state(victim), Some(RequestState::Cancelled));
        // The victim keeps a partial result; its frontier is gone.
        assert!(scheduler.result(victim).is_some());
        run_to_completion(&mut scheduler);

        let served = scheduler.result(survivor).unwrap();
        assert_eq!(served.best_circuit, expected.best_circuit);
        assert_eq!(served.best_cost, expected.best_cost);
        assert_eq!(served.iterations, expected.iterations);
        assert_eq!(served.circuits_seen, expected.circuits_seen);
        assert_eq!(served.match_attempts, expected.match_attempts);

        // Cancel racing completion: cancelling a finished request reports
        // its terminal state untouched.
        assert_eq!(scheduler.cancel(survivor), Some(RequestState::Done));
        assert_eq!(scheduler.state(survivor), Some(RequestState::Done));
    }

    #[test]
    fn admission_backpressure_rejects_over_capacity() {
        let mut scheduler = nam_scheduler(1, 2);
        scheduler
            .admit(ServiceRequest::new(h_ladder(4)).with_budget(100))
            .unwrap();
        scheduler
            .admit(ServiceRequest::new(h_ladder(6)).with_budget(100))
            .unwrap();
        let err = scheduler
            .admit(ServiceRequest::new(h_ladder(8)).with_budget(100))
            .unwrap_err();
        assert_eq!(
            err,
            AdmissionError::QueueFull {
                running: 2,
                capacity: 2
            }
        );
        // Capacity frees as requests finish.
        run_to_completion(&mut scheduler);
        assert_eq!(scheduler.running(), 0);
        scheduler
            .admit(ServiceRequest::new(h_ladder(8)).with_budget(4))
            .unwrap();
    }

    #[test]
    fn high_priority_requests_are_served_first() {
        let mut scheduler = nam_scheduler(1, 64);
        let low = scheduler
            .admit(
                ServiceRequest::new(h_ladder(6))
                    .with_budget(4)
                    .with_priority(Priority::Low),
            )
            .unwrap();
        let high = scheduler
            .admit(
                ServiceRequest::new(cnot_pairs(6))
                    .with_budget(4)
                    .with_priority(Priority::High),
            )
            .unwrap();
        // With one steal slot per step, the high-priority request must
        // finish its whole budget before the low one is touched.
        while scheduler.state(high) == Some(RequestState::Running) {
            scheduler.step(|_| {});
            if scheduler.state(high) == Some(RequestState::Running) {
                assert_eq!(
                    scheduler.status(low).unwrap().iterations,
                    0,
                    "low-priority request ran while high-priority work was queued"
                );
            }
        }
        run_to_completion(&mut scheduler);
        // Priorities shape latency only — outcomes stay standalone-exact.
        let standalone = scheduler.optimizer().clone();
        for (id, circuit) in [(low, h_ladder(6)), (high, cnot_pairs(6))] {
            let served = scheduler.result(id).unwrap();
            let solo = standalone.optimize_with_budget(&circuit, 4);
            assert_eq!(served.best_cost, solo.best_cost);
            assert_eq!(served.iterations, solo.iterations);
            assert_eq!(served.circuits_seen, solo.circuits_seen);
        }
    }

    #[test]
    fn deadline_expiry_finalizes_between_steps_without_poisoning_cotenants() {
        let mut scheduler = nam_scheduler(2, 64);
        let doomed = scheduler
            .admit(
                ServiceRequest::new(h_ladder(6))
                    .with_budget(usize::MAX)
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        let survivor = scheduler
            .admit(ServiceRequest::new(cnot_pairs(4)).with_budget(8))
            .unwrap();
        run_to_completion(&mut scheduler);
        assert_eq!(scheduler.state(doomed), Some(RequestState::DeadlineExpired));
        assert!(scheduler.result(doomed).is_some());

        let solo = scheduler
            .optimizer()
            .optimize_with_budget(&cnot_pairs(4), 8);
        let served = scheduler.result(survivor).unwrap();
        assert_eq!(served.best_cost, solo.best_cost);
        assert_eq!(served.iterations, solo.iterations);
        assert_eq!(served.circuits_seen, solo.circuits_seen);
    }

    /// A deadline too far out for the clock to represent is no deadline:
    /// admission must not overflow, and the request runs to `Done` exactly
    /// as a request without a deadline does.
    #[test]
    fn unrepresentable_deadline_means_no_deadline() {
        let mut scheduler = nam_scheduler(1, 4);
        let id = scheduler
            .admit(
                ServiceRequest::new(h_ladder(4))
                    .with_budget(8)
                    .with_deadline(Duration::MAX),
            )
            .unwrap();
        run_to_completion(&mut scheduler);
        assert_eq!(scheduler.state(id), Some(RequestState::Done));
        let served = scheduler.result(id).unwrap();
        let solo = scheduler.optimizer().optimize_with_budget(&h_ladder(4), 8);
        assert_eq!(served.best_circuit, solo.best_circuit);
        assert_eq!(served.iterations, solo.iterations);
        assert_eq!(served.circuits_seen, solo.circuits_seen);
    }

    #[test]
    fn terminal_status_reports_the_admitted_budget() {
        let mut scheduler = nam_scheduler(1, 4);
        let id = scheduler
            .admit(ServiceRequest::new(h_ladder(4)).with_budget(1000))
            .unwrap();
        run_to_completion(&mut scheduler);
        let status = scheduler.status(id).unwrap();
        assert_eq!(status.state, RequestState::Done);
        assert!(status.iterations < 1000, "ends by queue exhaustion");
        assert_eq!(status.budget, 1000);
    }

    #[test]
    fn status_keeps_answering_after_take_result() {
        let mut scheduler = nam_scheduler(1, 4);
        let id = scheduler
            .admit(ServiceRequest::new(cnot_pairs(4)).with_budget(3))
            .unwrap();
        run_to_completion(&mut scheduler);
        let before = scheduler.status(id).unwrap();
        let result = scheduler.take_result(id).unwrap();
        assert!(scheduler.result(id).is_none());
        let after = scheduler.status(id).unwrap();
        assert_eq!(after, before);
        assert_eq!(after.state, RequestState::Done);
        assert_eq!(
            (after.best_cost, after.initial_cost, after.iterations),
            (result.best_cost, result.initial_cost, result.iterations)
        );
        assert_eq!(after.budget, 3);
    }

    #[test]
    fn unknown_ids_are_rejected_not_confused() {
        let mut scheduler = nam_scheduler(1, 4);
        let bogus = RequestId::from_u64(42);
        assert_eq!(scheduler.state(bogus), None);
        assert_eq!(scheduler.cancel(bogus), None);
        assert!(scheduler.status(bogus).is_none());
        assert!(scheduler.result(bogus).is_none());
        assert!(scheduler.take_result(bogus).is_none());
    }
}
