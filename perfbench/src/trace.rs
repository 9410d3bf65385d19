//! Spans at the layer boundaries the benchmark calls.
//!
//! A span is recorded around each call the benchmark makes into a crate's
//! public functions: its name (`<layer>.<call>`), start, end, the span that
//! caused it, and — on serve-mixed — the request id. Spans stay in memory
//! and are written out when the run ends. Recording is on only in a traced
//! run; otherwise `span` costs one atomic load.

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Layers, named after the crates (and the benchmark itself, `bench`).
pub const LAYERS: [&str; 6] = ["bench", "ir", "gen", "verify", "opt", "serve"];

struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// The innermost open span of this thread, to hand to a spawned thread.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Makes `parent` the cause of the spans this (freshly spawned) thread opens.
pub fn adopt(parent: Option<u64>) {
    STACK.with(|s| s.borrow_mut().extend(parent));
}

pub struct Guard {
    open: Option<(Span, Instant)>,
}

pub fn span(name: &'static str) -> Guard {
    span_for(name, None)
}

/// A span that belongs to one serve request.
pub fn span_for(name: &'static str, request: Option<u64>) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let span = Span {
        id,
        parent,
        name,
        request,
        start_ns: 0,
        end_ns: 0,
    };
    Guard {
        open: Some((span, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((mut span, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&open| open == span.id) {
                s.truncate(pos);
            }
        });
        let r = recorder();
        let ns = |t: Instant| t.duration_since(r.epoch).as_nanos() as u64;
        (span.start_ns, span.end_ns) = (ns(start), ns(end));
        if let Ok(mut spans) = r.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time per layer, in seconds: each span's duration minus the part its
/// child spans cover (children on other threads may overlap; self time is
/// clamped at zero).
pub fn self_seconds() -> Vec<(&'static str, f64)> {
    let spans = recorder().spans.lock().expect("span store");
    let mut child_ns = std::collections::HashMap::<u64, u64>::new();
    for s in spans.iter() {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    LAYERS
        .iter()
        .map(|&layer| {
            let ns: u64 = spans
                .iter()
                .filter(|s| s.name.split('.').next() == Some(layer))
                .map(|s| {
                    (s.end_ns - s.start_ns)
                        .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
                })
                .sum();
            (layer, ns as f64 * 1e-9)
        })
        .collect()
}

/// Writes every recorded span as one JSON object per line.
pub fn write(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = recorder().spans.lock().expect("span store");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.request),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}
