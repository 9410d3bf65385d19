//! The cost-based backtracking search of the optimizer (paper §6,
//! Algorithm 2), run as an indexed frontier expansion (DESIGN.md §2.3).
//!
//! Each step pops the best queue entry, expands it, and merges the resulting
//! candidates into the queue, which is ordered by (cost, insertion order).
//! There is one expansion path:
//!
//! 1. **Derive the match context.** A dequeued entry carries the
//!    [`SpliceDelta`] that created it plus a handle to its parent's
//!    [`MatchContext`], so its own context is produced by
//!    [`MatchContext::derive`] in O(rewrite footprint) of recomputation
//!    (DESIGN.md §5); only the frontier root is built from the sequence form.
//!    This is also the moment a candidate's circuit first exists: candidates
//!    are enqueued as (cost, hash, delta) alone and are materialized only if
//!    they are dequeued. An O(num qubits) read of the derived DAG's
//!    maintained wire hashes confirms the admission-time hash preview
//!    ([`SearchResult::fp_confirm_mismatches`] counts disagreements; the
//!    suites assert it 0).
//! 2. **Match.** One walk of the [`TransformationIndex`]'s shared match
//!    automaton matches every transformation, binding each pattern prefix
//!    they share once and leaving a subtree as soon as its first gate has no
//!    candidate in the circuit (DESIGN.md §2.6).
//! 3. **Filter without materializing.** Every match's successor is costed
//!    exactly from the delta ([`quartz_ir::DeltaCoster`], depth included) for
//!    the γ filter, then its exact canonical-invariant [`StructuralHash`] is
//!    previewed off the parent's hash in O(rewrite footprint) and probed
//!    against the seen-set (DESIGN.md §13). No candidate is applied,
//!    canonicalized or cloned on this path.
//!
//! Candidates are ordered within each expansion by (cost, structural hash),
//! which makes the exploration a function of the candidate *sets* alone, so
//! the search visits exactly the states the sequential Algorithm 2 visits.
//! The tests check every outcome field against a naive reference
//! implementation of Algorithm 2 (`tests/oracle`) that shares none of the
//! steps above.
//!
//! # Determinism guarantee
//!
//! The wall-clock budget is checked only *between* dequeued entries, never
//! inside an expansion, so the expansion of a dequeued entry is always
//! scanned to completion and every search step is a pure function of the
//! frontier state. The timeout can therefore change only *how many* steps a
//! run executes — never the outcome of a step — and any two runs that end by
//! iteration budget or queue exhaustion (rather than by the timeout) are
//! bit-identical.
//!
//! The per-frontier state (priority queue, structural-hash seen-set,
//! incumbent best, counters) lives in the [`Frontier`] struct. One driver
//! steps frontiers: the [`ServiceScheduler`], one frontier per request over
//! shared [`TransformationIndex`]es. A standalone [`Optimizer::optimize`] run
//! is a scheduler with one request.

use crate::cache::LoadedLibrary;
use crate::matcher::{DeltaScratch, MatchContext, MatchScratch};
use crate::service::{ServiceRequest, ServiceScheduler};
use quartz_gen::{Transformation, TransformationIndex};
use quartz_ir::{
    canonicalize, Circuit, CircuitDag, CostModel, FxHashSet, SpliceDelta, StructuralHash,
};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the backtracking search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// The hyper-parameter γ: candidates whose cost exceeds γ times the best
    /// cost found so far are not enqueued. γ = 1.0001 (the paper's value)
    /// admits cost-preserving rewrites but not cost-increasing ones.
    pub gamma: f64,
    /// Wall-clock budget for the search, checked only between steps.
    pub timeout: Duration,
    /// Upper bound on the number of search iterations (circuit dequeues);
    /// `usize::MAX` means unlimited. The paper bounds the search only by
    /// time; the explicit bound makes scaled-down runs reproducible.
    pub max_iterations: usize,
    /// When the priority queue grows beyond this size it is pruned...
    pub queue_prune_threshold: usize,
    /// ... down to this many best candidates (paper §7.2 uses 2000 → 1000).
    pub queue_keep: usize,
    /// The cost model to minimize.
    pub cost_model: CostModel,
    /// How many frontiers one scheduling step expands in parallel, one
    /// entry each; `0` (the default) uses one per available core. A
    /// standalone run has one frontier, so this matters only to services
    /// with several requests running.
    pub num_threads: usize,
    /// When `true`, per-phase wall-clock timings (context derivation,
    /// matching, delta construction, γ-precheck, hash previews, the
    /// dequeue-time hash confirmation, deduplication) are accumulated into
    /// [`SearchResult::profile`].
    /// Default `false`: the hot path then executes no timing calls at all.
    pub profile: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            gamma: 1.0001,
            timeout: Duration::from_secs(10),
            max_iterations: usize::MAX,
            queue_prune_threshold: 2000,
            queue_keep: 1000,
            cost_model: CostModel::GateCount,
            num_threads: 0,
            profile: false,
        }
    }
}

impl SearchConfig {
    /// A configuration with the given time budget and the paper's defaults
    /// otherwise.
    pub fn with_timeout(timeout: Duration) -> Self {
        SearchConfig {
            timeout,
            ..SearchConfig::default()
        }
    }

    /// How many frontiers one scheduling step expands.
    pub(crate) fn effective_threads(&self) -> usize {
        if self.num_threads == 0 {
            quartz_ir::par::available_threads()
        } else {
            self.num_threads
        }
    }
}

/// Per-phase wall-clock breakdown of one search run, accumulated only when
/// [`SearchConfig::profile`] is on (all-zero otherwise). The phases cover
/// the per-entry pipeline of `expand_entry`: deriving the entry's match
/// context, finding matches, building splice deltas, the exact γ-precheck,
/// the O(footprint) structural-hash previews, the dequeue-time hash
/// confirmation, and the seen-set probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchProfile {
    /// Enumerating matches: the automaton walk, minus the finer phases
    /// its callback runs (delta, γ-precheck, preview, dedup), plus the
    /// match automaton's build on the index's first walk.
    pub matching: Duration,
    /// Building the instantiated [`SpliceDelta`] of each match.
    pub delta: Duration,
    /// The exact delta-cost γ-precheck that rejects cost-increasing
    /// rewrites before materialization (all cost models, depth included),
    /// and building its per-entry coster.
    pub gamma_precheck: Duration,
    /// O(footprint) structural-hash previews: computing candidates' exact
    /// seen-set keys from the parent hash and the delta, without
    /// materializing them.
    pub preview: Duration,
    /// Building each dequeued entry's [`MatchContext`]: the root's rebuild
    /// and every other entry's derivation from its parent.
    pub derive: Duration,
    /// The dequeue-time structural hash of each derived DAG that confirms
    /// the preview which admitted the entry.
    pub fingerprint: Duration,
    /// Seen-set probes.
    pub dedup: Duration,
}

impl SearchProfile {
    /// Adds another profile's phase times into this one.
    pub fn accumulate(&mut self, other: &SearchProfile) {
        self.matching += other.matching;
        self.delta += other.delta;
        self.gamma_precheck += other.gamma_precheck;
        self.preview += other.preview;
        self.derive += other.derive;
        self.fingerprint += other.fingerprint;
        self.dedup += other.dedup;
    }

    /// Sum of all phase times.
    pub fn total(&self) -> Duration {
        self.matching
            + self.delta
            + self.gamma_precheck
            + self.preview
            + self.derive
            + self.fingerprint
            + self.dedup
    }

    /// (name, seconds) pairs for every phase, in pipeline order — the shape
    /// benchmark reports emit.
    pub fn phases(&self) -> [(&'static str, f64); 7] {
        [
            ("matching", self.matching.as_secs_f64()),
            ("delta", self.delta.as_secs_f64()),
            ("gamma_precheck", self.gamma_precheck.as_secs_f64()),
            ("preview", self.preview.as_secs_f64()),
            ("derive", self.derive.as_secs_f64()),
            ("fingerprint", self.fingerprint.as_secs_f64()),
            ("dedup", self.dedup.as_secs_f64()),
        ]
    }
}

/// Outcome of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best circuit found.
    pub best_circuit: Circuit,
    /// Its cost under the configured cost model.
    pub best_cost: usize,
    /// The input circuit's cost.
    pub initial_cost: usize,
    /// Number of circuits dequeued (search iterations).
    pub iterations: usize,
    /// Number of distinct circuits ever enqueued.
    pub circuits_seen: usize,
    /// Wall-clock time spent searching.
    pub elapsed: Duration,
    /// Trace of (elapsed, best cost) pairs recorded whenever the best cost
    /// improved — used to reproduce the time-series plots (paper Figure 8).
    pub improvement_trace: Vec<(Duration, usize)>,
    /// γ-admissible candidate circuits discarded because their exact
    /// canonical-invariant structural hash was already in the seen-set.
    /// (Candidates rejected by the γ threshold are dropped before the
    /// seen-probe and not counted.)
    pub dedup_hits: usize,
    /// The part of [`SearchResult::dedup_hits`] caught on the worker, by
    /// probing the O(footprint) hash preview against the seen-set as it was
    /// when the step began. The rest, `dedup_hits - fp_fast_rejects`, are
    /// caught at merge time: duplicates of a candidate that an earlier match
    /// of the same expansion had just admitted.
    pub fp_fast_rejects: usize,
    /// Structural-hash previews contradicted by a from-scratch hash of the
    /// materialized circuit: every dequeued entry checks the derived DAG's
    /// maintained wire hashes against the preview that admitted it. By the
    /// exactness argument of DESIGN.md §13 (the preview algebra and the
    /// maintained caches compute the same complete invariant) this cannot
    /// happen; the counter is a runtime canary and is asserted 0 by the
    /// benchmark suites. On a mismatch the search proceeds with the
    /// materialized (authoritative) hash.
    pub fp_confirm_mismatches: usize,
    /// Per-phase timing breakdown; all-zero unless [`SearchConfig::profile`]
    /// was on.
    pub profile: SearchProfile,
}

impl SearchResult {
    /// Relative gate-count (cost) reduction achieved, in [0, 1].
    pub fn reduction(&self) -> f64 {
        if self.initial_cost == 0 {
            0.0
        } else {
            1.0 - self.best_cost as f64 / self.initial_cost as f64
        }
    }

    /// Fraction of duplicate candidates rejected on the worker by the
    /// O(footprint) structural-hash preview rather than at merge time, in
    /// [0, 1] (0 when no duplicates were seen at all, e.g. an empty run).
    pub fn fp_fast_reject_rate(&self) -> f64 {
        if self.dedup_hits == 0 {
            0.0
        } else {
            self.fp_fast_rejects as f64 / self.dedup_hits as f64
        }
    }
}

/// How a queued entry's match context — and with it its circuit — is built
/// when the entry is dequeued.
enum Source {
    /// The frontier root: built from the canonicalized input circuit.
    Root(Circuit),
    /// Derived from the parent's match context through the splice delta that
    /// created this entry. No circuit exists until then.
    Child {
        parent: Arc<MatchContext>,
        delta: SpliceDelta,
    },
}

/// A queued frontier entry: its cost, FIFO insertion order, the recipe for
/// its match context, and its exact structural hash.
pub(crate) struct QueueEntry {
    cost: usize,
    order: usize,
    source: Source,
    /// The circuit's exact [`StructuralHash`] — its seen-set identity —
    /// as previewed when it was admitted, so its own expansion previews
    /// *its* successors without an O(circuit) rehash.
    shash: StructuralHash,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.order == other.order
    }
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the lowest cost pops first,
        // breaking ties by insertion order (FIFO) for determinism.
        Reverse(self.cost)
            .cmp(&Reverse(other.cost))
            .then_with(|| Reverse(self.order).cmp(&Reverse(other.order)))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A first-sight successor produced by one expansion: its exact cost and
/// structural hash, computed on the worker without building its circuit,
/// and the splice delta that builds it if it is ever dequeued.
struct Candidate {
    cost: usize,
    delta: SpliceDelta,
    /// Exact structural hash of the successor: its seen-set identity and
    /// its deterministic tie-break in the candidate order.
    shash: StructuralHash,
}

/// One worker thread's reusable buffers for [`Optimizer::expand_entry`].
#[derive(Default)]
struct ExpandScratch {
    matches: MatchScratch,
    delta: DeltaScratch,
}

/// Everything a worker produced for one dequeued circuit.
pub(crate) struct Expansion {
    /// The entry's match context, shared with any children that make it
    /// into the queue.
    ctx: Arc<MatchContext>,
    candidates: Vec<Candidate>,
    fp_fast_rejects: usize,
    fp_confirm_mismatches: usize,
    profile: SearchProfile,
}

/// The per-circuit state of one search: the priority queue, the
/// structural-hash seen-set, the incumbent best circuit, the FIFO insertion
/// counter, and the run statistics.
///
/// The [`ServiceScheduler`] holds one `Frontier` per request, all sharing
/// the request's [`TransformationIndex`], and steps every one through the
/// same pop → expand → merge → prune code. A standalone run is a one-request
/// scheduler, which is what keeps per-circuit service results bit-identical
/// to standalone runs.
pub(crate) struct Frontier {
    /// Iteration budget of *this* frontier (dequeues allowed over its whole
    /// lifetime). Every request carries its own budget (standalone runs seed
    /// it from [`SearchConfig::max_iterations`]), which is what makes a
    /// co-tenant mix deterministic per request: the budget travels with the
    /// frontier, not with the shared configuration.
    budget: usize,
    queue: BinaryHeap<QueueEntry>,
    /// Structural-hash values of every circuit ever enqueued — the
    /// deduplication identity. The hash is an exact invariant of the
    /// canonical form (DESIGN.md §13), so probing it is equivalent to
    /// probing canonical forms. Expansion jobs probe it as frozen at the
    /// start of a step through [`Frontier::share_seen`] handles; merges
    /// probe and extend it live once every handle is dropped.
    seen: Arc<FxHashSet<u64>>,
    best_circuit: Circuit,
    best_cost: usize,
    initial_cost: usize,
    order: usize,
    iterations: usize,
    dedup_hits: usize,
    fp_fast_rejects: usize,
    fp_confirm_mismatches: usize,
    profile: SearchProfile,
    improvement_trace: Vec<(Duration, usize)>,
}

impl Frontier {
    /// Seeds a frontier with the canonicalized input circuit as its root
    /// and its own iteration budget.
    pub(crate) fn new(input: &Circuit, cost_model: CostModel, budget: usize) -> Self {
        let initial_cost = cost_model.cost(input);
        let canonical_input = canonicalize(input);
        // Hash the root from scratch: O(circuit), once per search, like the
        // root's context build.
        let root_shash = StructuralHash::of(&CircuitDag::from_circuit(&canonical_input));
        let mut seen = FxHashSet::default();
        seen.insert(root_shash.value());
        let mut queue = BinaryHeap::new();
        queue.push(QueueEntry {
            cost: initial_cost,
            order: 0,
            source: Source::Root(canonical_input.clone()),
            shash: root_shash,
        });
        Frontier {
            budget,
            queue,
            seen: Arc::new(seen),
            best_circuit: canonical_input,
            best_cost: initial_cost,
            initial_cost,
            order: 0,
            iterations: 0,
            dedup_hits: 0,
            fp_fast_rejects: 0,
            fp_confirm_mismatches: 0,
            profile: SearchProfile::default(),
            improvement_trace: vec![(Duration::ZERO, initial_cost)],
        }
    }

    /// The best cost found so far.
    pub(crate) fn best_cost(&self) -> usize {
        self.best_cost
    }

    /// The (canonicalized) input circuit's cost.
    pub(crate) fn initial_cost(&self) -> usize {
        self.initial_cost
    }

    /// Number of entries dequeued so far.
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// Dequeues still allowed under this frontier's budget.
    pub(crate) fn remaining_budget(&self) -> usize {
        self.budget.saturating_sub(self.iterations)
    }

    /// A handle on the structural-hash values of every circuit ever
    /// enqueued, for one expansion job. It must be dropped before the
    /// job's [`Frontier::merge`].
    pub(crate) fn share_seen(&self) -> Arc<FxHashSet<u64>> {
        Arc::clone(&self.seen)
    }

    /// Improvement trace recorded so far (grows during [`Frontier::merge`]).
    pub(crate) fn improvement_trace(&self) -> &[(Duration, usize)] {
        &self.improvement_trace
    }

    /// (cost, order) of the best queued entry; `None` when the queue is
    /// exhausted. This is the per-frontier half of the service's global
    /// (cost, circuit id, order) work-stealing key.
    pub(crate) fn peek_key(&self) -> Option<(usize, usize)> {
        self.queue.peek().map(|e| (e.cost, e.order))
    }

    /// Pops the best entry, counting it as an iteration; `None` when the
    /// queue is exhausted. No dequeued entry can beat the incumbent:
    /// [`Frontier::merge`] records every improvement when the candidate is
    /// enqueued, and the best cost only ever decreases.
    pub(crate) fn pop(&mut self) -> Option<QueueEntry> {
        let entry = self.queue.pop()?;
        self.iterations += 1;
        Some(entry)
    }

    /// Merges one expansion into the frontier: accumulates its statistics
    /// and enqueues every candidate that survives deduplication and the γ
    /// threshold against the *live* (merge-time) best cost.
    pub(crate) fn merge(&mut self, expansion: Expansion, config: &SearchConfig, start: Instant) {
        self.dedup_hits += expansion.fp_fast_rejects;
        self.fp_fast_rejects += expansion.fp_fast_rejects;
        self.fp_confirm_mismatches += expansion.fp_confirm_mismatches;
        self.profile.accumulate(&expansion.profile);
        // `get_mut`, never `make_mut`: a handle still alive here is a bug,
        // and silently copying the set would hide it.
        let seen = Arc::get_mut(&mut self.seen)
            .expect("expansion jobs drop their seen-set handle before the merge");
        for candidate in expansion.candidates {
            if seen.contains(&candidate.shash.value()) {
                // A merge-time duplicate: an earlier candidate of this
                // expansion was just admitted.
                self.dedup_hits += 1;
                continue;
            }
            if (candidate.cost as f64) < config.gamma * self.best_cost as f64 {
                if candidate.cost < self.best_cost {
                    self.best_cost = candidate.cost;
                    // The incumbent is the one place a concrete circuit is
                    // needed before the candidate is dequeued.
                    self.best_circuit = canonicalize(&expansion.ctx.apply_delta(&candidate.delta));
                    self.improvement_trace
                        .push((start.elapsed(), self.best_cost));
                }
                self.order += 1;
                seen.insert(candidate.shash.value());
                self.queue.push(QueueEntry {
                    cost: candidate.cost,
                    order: self.order,
                    source: Source::Child {
                        parent: Arc::clone(&expansion.ctx),
                        delta: candidate.delta,
                    },
                    shash: candidate.shash,
                });
            }
        }
    }

    /// Queue capping (paper §7.2): when the queue outgrows the prune
    /// threshold, keep only the best `queue_keep` entries.
    pub(crate) fn prune_queue(&mut self, config: &SearchConfig) {
        if self.queue.len() > config.queue_prune_threshold {
            let mut entries: Vec<QueueEntry> = std::mem::take(&mut self.queue).into_sorted_vec();
            // into_sorted_vec is ascending by Ord, i.e. highest priority
            // (lowest cost) last; keep the best `queue_keep`.
            entries.reverse();
            entries.truncate(config.queue_keep);
            self.queue = entries.into_iter().collect();
        }
    }

    /// Finalizes the frontier into a [`SearchResult`].
    pub(crate) fn into_result(self, elapsed: Duration) -> SearchResult {
        SearchResult {
            best_circuit: self.best_circuit,
            best_cost: self.best_cost,
            initial_cost: self.initial_cost,
            iterations: self.iterations,
            circuits_seen: self.seen.len(),
            elapsed,
            improvement_trace: self.improvement_trace,
            dedup_hits: self.dedup_hits,
            fp_fast_rejects: self.fp_fast_rejects,
            fp_confirm_mismatches: self.fp_confirm_mismatches,
            profile: self.profile,
        }
    }
}

/// The cost-based backtracking optimizer.
///
/// # Examples
///
/// ```
/// use quartz_gen::{Generator, GenConfig};
/// use quartz_ir::{Circuit, Gate, GateSet, Instruction};
/// use quartz_opt::{Optimizer, SearchConfig};
/// use std::time::Duration;
///
/// // Learn transformations for a tiny gate set and use them to cancel a
/// // pair of Hadamard gates.
/// let (ecc_set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 0)).run();
/// let optimizer = Optimizer::from_ecc_set(&ecc_set, SearchConfig::with_timeout(Duration::from_secs(2)));
///
/// let mut circuit = Circuit::new(2, 0);
/// circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
/// circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
/// circuit.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
/// let result = optimizer.optimize(&circuit);
/// assert_eq!(result.best_cost, 1);
/// // Every dequeued entry's hash confirmed the preview that admitted it.
/// assert_eq!(result.fp_confirm_mismatches, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    index: Arc<TransformationIndex>,
    config: SearchConfig,
}

impl Optimizer {
    /// Creates an optimizer from an explicit transformation list, building
    /// the index over it.
    pub fn new(transformations: Vec<Transformation>, config: SearchConfig) -> Self {
        Optimizer::with_index(Arc::new(TransformationIndex::new(transformations)), config)
    }

    /// Creates an optimizer around an existing (possibly shared) index — no
    /// extraction or construction work happens.
    pub fn with_index(index: Arc<TransformationIndex>, config: SearchConfig) -> Self {
        Optimizer { index, config }
    }

    /// Creates an optimizer from an ECC set, extracting transformations with
    /// common-subcircuit pruning enabled (paper §5.2).
    pub fn from_ecc_set(set: &quartz_gen::EccSet, config: SearchConfig) -> Self {
        let transformations = quartz_gen::transformations_from_ecc_set(set, true);
        Optimizer::new(transformations, config)
    }

    /// Creates an optimizer from a loaded library artifact
    /// ([`crate::LibraryCache`]), sharing its in-memory index — zero
    /// generation and zero index construction at startup (DESIGN.md §7).
    pub fn from_library(library: &LoadedLibrary, config: SearchConfig) -> Self {
        Optimizer::with_index(library.shared_index(), config)
    }

    /// The transformations available to the search.
    pub fn transformations(&self) -> &[Transformation] {
        self.index.transformations()
    }

    /// The index over the transformations.
    pub fn index(&self) -> &TransformationIndex {
        &self.index
    }

    /// The index as a shareable handle (what
    /// [`crate::OptimizationService`] clones instead of the index itself).
    pub fn shared_index(&self) -> Arc<TransformationIndex> {
        Arc::clone(&self.index)
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Runs Algorithm 2 on the input circuit under the configuration's
    /// iteration budget ([`SearchConfig::max_iterations`]).
    pub fn optimize(&self, input: &Circuit) -> SearchResult {
        self.optimize_with_budget(input, self.config.max_iterations)
    }

    /// Runs Algorithm 2 with an explicit per-run iteration budget, overriding
    /// [`SearchConfig::max_iterations`]. The run is a one-request
    /// [`ServiceScheduler`]: the request carries `budget` and a deadline of
    /// [`SearchConfig::timeout`], and the scheduler steps until it ends. So
    /// a standalone run and a service request with the same budget execute
    /// the same steps, and under an iteration budget they produce
    /// bit-identical [`SearchResult`]s (wall-clock fields aside) no matter
    /// what else the service is running — the acceptance check of the
    /// `quartz-serve` daemon.
    pub fn optimize_with_budget(&self, input: &Circuit, budget: usize) -> SearchResult {
        let mut scheduler = ServiceScheduler::new(self.clone(), 1);
        let id = scheduler
            .admit(
                ServiceRequest::new(input.clone())
                    .with_budget(budget)
                    .with_deadline(self.config.timeout),
            )
            .expect("an empty scheduler admits one request");
        while scheduler.step(|_| {}) {}
        scheduler
            .take_result(id)
            .expect("a finished request keeps its result")
    }

    /// Expands one dequeued circuit: builds its [`MatchContext`] (derived
    /// from the parent's, or from the sequence form at the root), confirms
    /// its admission-time hash, matches every transformation in one
    /// automaton walk, and delta-costs and previews every successor.
    /// Candidates are sorted by (cost, structural
    /// hash) so the expansion's output is a function of the candidate set
    /// alone — independent of the circuit's sequence representation, of
    /// match enumeration order, and of wall-clock time (the timeout is checked
    /// between dequeued entries, never mid-scan). Pure with respect to the
    /// search state — safe to run on worker threads; the only thread-local
    /// state is reusable scratch buffers that never influence results.
    pub(crate) fn expand_entry(
        &self,
        entry: &QueueEntry,
        frozen_best: usize,
        seen: &FxHashSet<u64>,
    ) -> Expansion {
        // Per-thread scratch: the matcher's walk state and the per-match
        // splice delta, reused across dequeues so the per-match path
        // allocates nothing in steady state.
        thread_local! {
            static SCRATCH: RefCell<ExpandScratch> = RefCell::default();
        }
        SCRATCH.with(|scratch| {
            self.expand_entry_with_scratch(entry, frozen_best, seen, &mut scratch.borrow_mut())
        })
    }

    fn expand_entry_with_scratch(
        &self,
        entry: &QueueEntry,
        frozen_best: usize,
        seen: &FxHashSet<u64>,
        scratch: &mut ExpandScratch,
    ) -> Expansion {
        let ExpandScratch {
            matches: match_scratch,
            delta: delta_scratch,
        } = scratch;
        let profiling = self.config.profile;
        let mut profile = SearchProfile::default();
        let t_derive = profiling.then(Instant::now);
        let ctx = match &entry.source {
            Source::Root(circuit) => MatchContext::new(circuit),
            Source::Child { parent, delta } => parent.derive(delta),
        };
        if let Some(t) = t_derive {
            profile.derive = t.elapsed();
        }
        // Hash the derived DAG from its maintained wire hashes and confirm it
        // against the preview that admitted the entry — two independent
        // computations (splice-maintained caches vs preview algebra) whose
        // agreement is the runtime canary. The derived hash is authoritative
        // on mismatch.
        let t_fp = profiling.then(Instant::now);
        let entry_shash = StructuralHash::of(ctx.dag());
        let fp_confirm_mismatches = usize::from(entry_shash.value() != entry.shash.value());
        if let Some(t) = t_fp {
            profile.fingerprint = t.elapsed();
        }

        let mut candidates: Vec<Candidate> = Vec::new();
        let mut fp_fast_rejects = 0usize;
        let cost_model = self.config.cost_model;
        let gamma = self.config.gamma;
        // Exact O(footprint) successor costing for every model — additive
        // per-gate sums and critical-path depth alike — so the γ filter
        // rejects cost-increasing rewrites without materializing them.
        let t_coster = profiling.then(Instant::now);
        let coster = cost_model.delta_coster(ctx.dag());
        let coster_time = t_coster.map(|t| t.elapsed());
        let t_loop = profiling.then(Instant::now);
        // Built on the index's first walk, then shared; the build counts as
        // matching.
        let automaton = self.index.automaton();
        // One walk over the library's shared match automaton binds every
        // rule's matches, a shared pattern prefix once for all the rules
        // that start with it (DESIGN.md §2.6).
        ctx.for_each_match(automaton, match_scratch, |id, m| {
            let xform = &self.index.transformations()[id];
            let t_delta = profiling.then(Instant::now);
            let instantiated = ctx.delta_into(xform, m, delta_scratch);
            if let Some(t) = t_delta {
                profile.delta += t.elapsed();
            }
            if !instantiated {
                return;
            }
            let delta = delta_scratch.delta();
            let t_gamma = profiling.then(Instant::now);
            let cost = coster.cost_after(delta);
            let gamma_rejected = (cost as f64) >= gamma * frozen_best as f64;
            if let Some(t) = t_gamma {
                profile.gamma_precheck += t.elapsed();
            }
            if gamma_rejected {
                return;
            }
            // O(footprint) duplicate rejection: preview the successor's
            // exact structural hash straight off the parent DAG and the
            // delta — without applying the rewrite — and probe the
            // frozen seen-set. The hash is a complete invariant of the
            // canonical form (DESIGN.md §13), so a hit *is* a duplicate.
            let t_preview = profiling.then(Instant::now);
            let shash = entry_shash.previewed(ctx.dag(), delta);
            if let Some(t) = t_preview {
                profile.preview += t.elapsed();
            }
            let t_dedup = profiling.then(Instant::now);
            let seen_hit = seen.contains(&shash.value());
            if let Some(t) = t_dedup {
                profile.dedup += t.elapsed();
            }
            if seen_hit {
                fp_fast_rejects += 1;
                return;
            }
            // First sight: admit the candidate on (cost, hash, delta)
            // alone, the one place the delta is copied out of the scratch.
            // Debug builds re-derive the admission from the materialized
            // successor: same cost, same hash.
            #[cfg(debug_assertions)]
            {
                let canonical = canonicalize(&ctx.apply_delta(delta));
                debug_assert_eq!(cost, cost_model.cost(&canonical));
                debug_assert_eq!(
                    shash.value(),
                    StructuralHash::of(&CircuitDag::from_circuit(&canonical)).value(),
                    "structural-hash preview diverged from the materialized circuit"
                );
            }
            candidates.push(Candidate {
                cost,
                delta: delta.clone(),
                shash,
            });
        });
        if let Some(t) = t_loop {
            // Everything in the walk not claimed by a finer phase is
            // match-enumeration work.
            profile.matching = t.elapsed().saturating_sub(
                profile.delta + profile.gamma_precheck + profile.preview + profile.dedup,
            );
        }
        if let Some(t) = coster_time {
            profile.gamma_precheck += t;
        }
        candidates.sort_by_key(|c| (c.cost, c.shash.value()));
        Expansion {
            ctx: Arc::new(ctx),
            candidates,
            fp_fast_rejects,
            fp_confirm_mismatches,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use quartz_gen::{GenConfig, Generator};
    use quartz_ir::{equivalent_up_to_phase, Gate, GateSet, Instruction, ParamExpr};

    fn instruction(gate: Gate, qubits: &[usize]) -> Instruction {
        Instruction::new(gate, qubits.to_vec(), vec![])
    }

    fn nam_optimizer(n: usize, q: usize, m: usize) -> Optimizer {
        let (set, _) = Generator::new(GateSet::nam(), GenConfig::standard(n, q, m)).run();
        Optimizer::from_ecc_set(&set, SearchConfig::with_timeout(Duration::from_secs(5)))
    }

    #[test]
    fn cancels_adjacent_hadamards_and_cnots() {
        let opt = nam_optimizer(2, 2, 0);
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(instruction(Gate::X, &[1]));
        let result = opt.optimize(&c);
        assert_eq!(result.best_cost, 1);
        assert!(equivalent_up_to_phase(&result.best_circuit, &c, &[], 1e-10));
        assert!(result.reduction() > 0.7);
    }

    #[test]
    fn merges_rotations_via_learned_transformations() {
        let opt = nam_optimizer(2, 1, 2);
        let mut c = Circuit::new(1, 0);
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(1)],
        ));
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(2)],
        ));
        let result = opt.optimize(&c);
        assert_eq!(result.best_cost, 1);
        assert!(equivalent_up_to_phase(&result.best_circuit, &c, &[], 1e-10));
    }

    #[test]
    fn hadamard_cnot_flip_requires_nonlocal_sequence() {
        // Figure 3b: rewriting H H CNOT H H to the flipped CNOT needs three
        // transformation steps through cost-neutral intermediates when only
        // (2,q)-complete transformations are available — exercised here with
        // a (3,2) ECC set and γ slightly above 1.
        let (set, _) = Generator::new(GateSet::nam(), GenConfig::standard(3, 2, 0)).run();
        let opt = Optimizer::from_ecc_set(
            &set,
            SearchConfig {
                timeout: Duration::from_secs(20),
                ..SearchConfig::default()
            },
        );
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[1]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[1]));
        let result = opt.optimize(&c);
        assert!(
            result.best_cost <= 3,
            "expected substantial reduction, got {}",
            result.best_cost
        );
        assert!(equivalent_up_to_phase(&result.best_circuit, &c, &[], 1e-10));
    }

    #[test]
    fn already_optimal_circuit_is_unchanged() {
        let opt = nam_optimizer(2, 2, 0);
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::Cnot, &[0, 1]));
        let result = opt.optimize(&c);
        assert_eq!(result.best_cost, 1);
        assert_eq!(result.initial_cost, 1);
        assert!((result.reduction() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn respects_iteration_budget() {
        let opt = Optimizer::new(
            nam_optimizer(2, 2, 0).transformations().to_vec(),
            SearchConfig {
                max_iterations: 1,
                ..SearchConfig::default()
            },
        );
        let mut c = Circuit::new(2, 0);
        for _ in 0..4 {
            c.push(instruction(Gate::H, &[0]));
        }
        let result = opt.optimize(&c);
        assert!(result.iterations <= 1);
    }

    #[test]
    fn improvement_trace_is_monotone() {
        let opt = nam_optimizer(2, 2, 0);
        let mut c = Circuit::new(2, 0);
        for _ in 0..3 {
            c.push(instruction(Gate::H, &[1]));
            c.push(instruction(Gate::H, &[1]));
        }
        let result = opt.optimize(&c);
        let costs: Vec<usize> = result.improvement_trace.iter().map(|(_, c)| *c).collect();
        assert!(costs.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(*costs.last().unwrap(), result.best_cost);
        assert_eq!(result.best_cost, 0);
    }

    #[test]
    fn automaton_walk_and_linear_scan_agree() {
        let opt = nam_optimizer(2, 2, 0);
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        let walked = opt.optimize(&c);
        // The oracle matches every transformation on its own, one by one.
        let linear = oracle::run(opt.transformations(), opt.config(), &c);
        oracle::assert_agrees(&walked, &linear, "H H CNOT");
    }

    #[test]
    fn dedup_hits_are_counted() {
        // Four H's on one qubit: many transformation paths reach the same
        // two-gate and zero-gate circuits, so the structural-hash seen-set
        // must report hits.
        let opt = nam_optimizer(2, 2, 0);
        let mut c = Circuit::new(2, 0);
        for _ in 0..4 {
            c.push(instruction(Gate::H, &[0]));
        }
        let result = opt.optimize(&c);
        assert_eq!(result.best_cost, 0);
        assert!(
            result.dedup_hits > 0,
            "expected duplicate candidates to be dropped"
        );
    }

    fn redundant_three_qubit_circuit() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(instruction(Gate::Cnot, &[1, 2]));
        c.push(instruction(Gate::Cnot, &[1, 2]));
        c.push(instruction(Gate::X, &[2]));
        c.push(instruction(Gate::X, &[2]));
        c
    }

    /// `CNOT(0,1) X(1) CNOT(0,1) X(1)`: X on the target commutes through
    /// the CNOT and cancels, so distinct rewrites reach the same child and
    /// later steps revisit circuits an earlier step already admitted.
    fn x_through_cnot_circuit() -> Circuit {
        let mut c = Circuit::new(2, 0);
        for _ in 0..2 {
            c.push(instruction(Gate::Cnot, &[0, 1]));
            c.push(instruction(Gate::X, &[1]));
        }
        c
    }

    /// The default configuration under an iteration budget the wall clock
    /// never cuts short, so engine and oracle runs are comparable.
    fn bounded() -> SearchConfig {
        SearchConfig {
            max_iterations: 60,
            timeout: Duration::from_secs(600),
            ..SearchConfig::default()
        }
    }

    /// Runs the engine and the oracle under one configuration and asserts
    /// they agree on every outcome field.
    fn engine_against_oracle(config: SearchConfig, circuit: &Circuit) -> SearchResult {
        let base = nam_optimizer(2, 2, 0);
        let engine = Optimizer::new(base.transformations().to_vec(), config.clone());
        let result = engine.optimize(circuit);
        let reference = oracle::run(engine.transformations(), &config, circuit);
        oracle::assert_agrees(&result, &reference, &format!("{config:?}"));
        result
    }

    /// The engine derives every non-root context from its parent's through
    /// a splice delta; the oracle builds a fresh context for every dequeued
    /// circuit. They must visit the same states.
    #[test]
    fn derived_contexts_are_bit_identical_to_rebuilds() {
        let result = engine_against_oracle(bounded(), &redundant_three_qubit_circuit());
        assert!(result.iterations > 1, "the run must derive some contexts");
    }

    /// The rate accessors must return 0 (not NaN) when their denominators
    /// are zero: `reduction` on a zero-cost input, `fp_fast_reject_rate` on
    /// a run that did no matching work at all (an empty transformation
    /// library on an empty circuit).
    #[test]
    fn rates_are_zero_not_nan_on_empty_runs() {
        let opt = Optimizer::new(Vec::new(), SearchConfig::default());
        let result = opt.optimize(&Circuit::new(2, 0));
        assert_eq!(result.initial_cost, 0);
        assert_eq!(result.best_cost, 0);
        assert_eq!(result.dedup_hits, 0);
        assert_eq!(result.reduction(), 0.0);
        assert_eq!(result.fp_fast_reject_rate(), 0.0);

        // A populated optimizer on the empty circuit exercises the
        // zero-initial-cost path of `reduction` too; every rate stays
        // finite and in [0, 1].
        let populated = nam_optimizer(2, 2, 0);
        let empty = populated.optimize(&Circuit::new(2, 0));
        assert_eq!(empty.initial_cost, 0);
        assert_eq!(empty.reduction(), 0.0);
        for rate in [empty.reduction(), empty.fp_fast_reject_rate()] {
            assert!(rate.is_finite());
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    /// The engine keys deduplication on hashes previewed from the parent
    /// and the delta; the oracle materializes every candidate and hashes it
    /// from scratch. Same outcome — with most duplicates rejected on the
    /// worker, before any merge.
    #[test]
    fn previewed_hashes_are_bit_identical_to_materializing_oracle() {
        let result = engine_against_oracle(bounded(), &redundant_three_qubit_circuit());
        assert!(
            result.fp_fast_rejects > 0,
            "expected duplicate candidates to be rejected before materialization"
        );
        assert!(result.fp_fast_rejects <= result.dedup_hits);
        assert!(result.fp_fast_reject_rate() > 0.0);
    }

    /// Delta-costing makes the γ precheck exact for the non-additive Depth
    /// model, so the preview path stays *active* there: duplicates are
    /// rejected before materialization and the outcome matches the oracle,
    /// which costs every materialized candidate from scratch.
    #[test]
    fn depth_cost_keeps_the_prefilter_active() {
        let result = engine_against_oracle(
            SearchConfig {
                cost_model: CostModel::Depth,
                ..bounded()
            },
            &x_through_cnot_circuit(),
        );
        assert!(
            result.fp_fast_rejects > 0,
            "depth-shaped search must fast-reject duplicates before materialization"
        );
    }

    /// The engine enqueues candidates as (cost, hash, delta) and builds a
    /// circuit only on dequeue; the oracle materializes every candidate at
    /// admission. They must agree under every cost model.
    #[test]
    fn deferral_is_bit_identical_to_the_eager_oracle_under_every_cost_model() {
        for cost_model in [
            CostModel::GateCount,
            CostModel::MultiQubitGateCount,
            CostModel::TCount,
            CostModel::Depth,
        ] {
            engine_against_oracle(
                SearchConfig {
                    cost_model,
                    ..bounded()
                },
                &redundant_three_qubit_circuit(),
            );
        }
    }

    /// `r` with its wall-clock fields zeroed: the elapsed time and the
    /// improvement-trace timestamps.
    fn without_wall_clock(r: &SearchResult) -> SearchResult {
        SearchResult {
            elapsed: Duration::ZERO,
            improvement_trace: r
                .improvement_trace
                .iter()
                .map(|&(_, c)| (Duration::ZERO, c))
                .collect(),
            ..r.clone()
        }
    }

    /// A zero timeout has expired before the first step: the run returns
    /// the canonicalized input without dequeuing anything.
    #[test]
    fn zero_timeout_returns_the_canonical_input_unsearched() {
        let base = nam_optimizer(2, 2, 0);
        let opt = Optimizer::new(
            base.transformations().to_vec(),
            SearchConfig::with_timeout(Duration::ZERO),
        );
        let c = redundant_three_qubit_circuit();
        let result = opt.optimize(&c);
        assert_eq!(result.iterations, 0);
        assert_eq!(result.best_circuit, canonicalize(&c));
        assert_eq!(result.best_cost, result.initial_cost);
        assert_eq!(result.circuits_seen, 1);
        let costs: Vec<usize> = result.improvement_trace.iter().map(|&(_, c)| c).collect();
        assert_eq!(costs, vec![result.initial_cost]);
    }

    /// `Duration::MAX` means no deadline (it must not overflow the clock):
    /// under an iteration budget the run equals a 600 s run field by field.
    #[test]
    fn unbounded_timeout_matches_a_long_timeout_field_by_field() {
        let base = nam_optimizer(2, 2, 0);
        // Two copies of the redundant circuit: enough states that the
        // budget, not queue exhaustion, ends the run.
        let mut c = redundant_three_qubit_circuit();
        for instr in redundant_three_qubit_circuit().instructions() {
            c.push(instr.clone());
        }
        let run = |timeout: Duration| {
            Optimizer::new(
                base.transformations().to_vec(),
                SearchConfig {
                    max_iterations: 20,
                    ..SearchConfig::with_timeout(timeout)
                },
            )
            .optimize(&c)
        };
        let unbounded = run(Duration::MAX);
        let long = run(Duration::from_secs(600));
        assert_eq!(unbounded.iterations, 20);
        assert_eq!(without_wall_clock(&unbounded), without_wall_clock(&long));
    }

    /// Profiling off (the default) leaves the breakdown all-zero; profiling
    /// on fills it without changing any outcome or counter field.
    #[test]
    fn profiling_fills_the_breakdown_without_changing_outcomes() {
        let base = nam_optimizer(2, 2, 0);
        let c = redundant_three_qubit_circuit();
        let unprofiled = base.optimize(&c);
        assert_eq!(unprofiled.profile, SearchProfile::default());
        assert_eq!(unprofiled.profile.total(), Duration::ZERO);

        let profiled = Optimizer::new(
            base.transformations().to_vec(),
            SearchConfig {
                profile: true,
                ..base.config().clone()
            },
        )
        .optimize(&c);
        let strip = |r: &SearchResult| SearchResult {
            profile: SearchProfile::default(),
            ..without_wall_clock(r)
        };
        assert_eq!(strip(&profiled), strip(&unprofiled));
        assert!(
            profiled.profile.total() > Duration::ZERO,
            "profiling must record phase time"
        );
        let phases = profiled.profile.phases();
        assert_eq!(phases.len(), 7);
        assert!(phases.iter().all(|(_, secs)| *secs >= 0.0));
        // Every dequeue derives a context and walks the automaton, and every
        // first-sight candidate is previewed.
        assert!(profiled.profile.derive > Duration::ZERO);
        assert!(profiled.profile.matching > Duration::ZERO);
        assert!(profiled.profile.preview > Duration::ZERO);
    }
}
