//! Daemon configuration.

use quartz_opt::SearchConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration for a [`crate::Daemon`] / [`crate::Server`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Maximum concurrently *running* requests. Submissions beyond this are
    /// rejected with [`crate::SubmitError::QueueFull`] (HTTP 429) — bounded
    /// backpressure instead of unbounded queueing.
    pub capacity: usize,
    /// Iteration budget applied when a submit omits one. `usize::MAX`
    /// means unbounded (the request runs to queue exhaustion, deadline, or
    /// cancel).
    pub default_budget: usize,
    /// Cap on accepted request bodies (HTTP 413 beyond it).
    pub max_body_bytes: usize,
    /// Base search knobs shared by every request: γ, queue pruning, batch
    /// size, worker threads, and the cost model. The `timeout` and
    /// `max_iterations` members are ignored — per-request deadlines and
    /// budgets replace them in the daemon.
    pub search: SearchConfig,
    /// When `true` (the default), requests are routed per gate set to the
    /// committed `libraries/*.qtzl` artifacts through a
    /// [`quartz_opt::LibraryCache`]. `false` serves every gate set from
    /// the daemon's base index — used by tests that build their own
    /// optimizer.
    pub route_libraries: bool,
    /// When `true`, every artifact must carry a live audit stamp (the
    /// `<artifact>.audit` sidecar written by `quartz-lib audit
    /// --write-stamp`, certifying the artifact's checksum under the default
    /// verifier configuration); unstamped artifacts are refused at load
    /// time. Off by default — `quartz-serve --require-audited` turns it on.
    /// With a registry (`registry_root`), the gate applies to every blob —
    /// each shard of a group individually.
    pub require_audited: bool,
    /// When set, gate sets are routed through the content-addressed
    /// registry at this root (DESIGN.md §12.4) instead of the committed
    /// `libraries/*.qtzl` paths: each gate set's key resolves to a whole
    /// artifact or a shard group, lazily mapped on first request.
    /// `quartz-serve --registry DIR` sets it.
    pub registry_root: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            capacity: 64,
            default_budget: usize::MAX,
            max_body_bytes: crate::http::DEFAULT_MAX_BODY_BYTES,
            search: SearchConfig {
                // The daemon bounds requests by budget/deadline, not by the
                // standalone search timeout.
                timeout: Duration::from_secs(86_400),
                ..SearchConfig::default()
            },
            route_libraries: true,
            require_audited: false,
            registry_root: None,
        }
    }
}

impl DaemonConfig {
    /// A configuration with the given admission capacity.
    pub fn with_capacity(capacity: usize) -> DaemonConfig {
        DaemonConfig {
            capacity,
            ..DaemonConfig::default()
        }
    }
}
