//! The `serve-mixed` workload: a `quartz-serve` daemon with its default
//! configuration, reached over loopback HTTP.
//!
//! Open loop: one thread submits seeded Poisson arrivals at `RATE_PER_S`
//! whether or not earlier requests have finished; a second thread polls
//! `/v1/status` for outstanding ids, fetches `/v1/result` at terminal and
//! replays `/v1/stream` for every fourth request. Latency runs from each
//! request's due time, so a stall — a submit waiting on the daemon's lock
//! included — counts against every request behind it.

use crate::check;
use crate::metrics::{median, percentile, setup_seconds, time_reps, Report};
use crate::search::{probe_library_open, report_counters};
use crate::sys::{cpu_seconds, memory_mb, Rng, RssSampler};
use crate::trace::{self, span, span_for};
use quartz_ir::{parse_qasm, to_qasm, Circuit};
use quartz_opt::Priority;
use quartz_serve::wire::ResultResponse;
use quartz_serve::{Client, ClientError, Daemon, DaemonConfig, Server, SubmitRequest};
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Arrivals per second: about half the 14.5–16.8 requests/s that two
/// closed-loop clients complete with this mix (2-core x86-64 VM).
const RATE_PER_S: f64 = 7.5;
/// Pause between two polling passes over the outstanding requests.
const POLL_EVERY: Duration = Duration::from_millis(10);
/// Boots timed before the open loop and again after it, so `setup_s`
/// samples the host at both ends of the run.
const SETUP_BURST: usize = 16;

struct Entry {
    gate_set: &'static str,
    circuit: &'static str,
    budget: usize,
    /// Best cost the daemon must return (the standalone-run outcome).
    pinned: usize,
}

const fn entry(
    gate_set: &'static str,
    circuit: &'static str,
    budget: usize,
    pinned: usize,
) -> Entry {
    Entry {
        gate_set,
        circuit,
        budget,
        pinned,
    }
}

/// One round of the mix: the NAM and IBM quick suites plus the two Rigetti
/// circuits that finish in well under a second at budget 1 (the larger
/// Rigetti ones take 7–72 s at budget 10). Budgets of 1–12 iterations put
/// most requests at 35–90 ms of search on their own. Every round holds the
/// same requests, so the total best cost is pinned for every seed; the seed
/// orders each round and draws the arrival gaps and the priorities.
const CATALOG: [Entry; 18] = [
    entry("nam", "barenco_tof_3", 5, 100),
    entry("nam", "csla_mux_3", 3, 112),
    entry("nam", "mod5_4", 12, 56),
    entry("nam", "mod_mult_55", 1, 154),
    entry("nam", "rc_adder_6", 1, 175),
    entry("nam", "tof_3", 12, 40),
    entry("nam", "tof_5", 3, 90),
    entry("nam", "vbe_adder_3", 3, 119),
    entry("ibm", "barenco_tof_3", 3, 97),
    entry("ibm", "csla_mux_3", 1, 111),
    entry("ibm", "mod5_4", 12, 53),
    entry("ibm", "mod_mult_55", 1, 153),
    entry("ibm", "rc_adder_6", 1, 174),
    entry("ibm", "tof_3", 12, 37),
    entry("ibm", "tof_5", 1, 89),
    entry("ibm", "vbe_adder_3", 1, 118),
    entry("rigetti", "tof_3", 1, 129),
    entry("rigetti", "mod5_4", 1, 188),
];

struct Planned {
    entry: usize,
    due: Duration,
    request: SubmitRequest,
}

fn plan(seed: u64, seconds: f64, qasm: &[String]) -> Vec<Planned> {
    const PRIORITIES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
    let rounds = ((RATE_PER_S * seconds / CATALOG.len() as f64).round() as usize).max(1);
    let mut rng = Rng::new(seed);
    let mut order = Vec::with_capacity(rounds * CATALOG.len());
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..CATALOG.len()).collect();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    // Exponential gaps, rescaled so the schedule holds exactly RATE_PER_S.
    let gaps: Vec<f64> = order.iter().map(|_| -rng.unit().ln()).collect();
    let scale = order.len() as f64 / RATE_PER_S / gaps.iter().sum::<f64>();
    let mut due = 0.0;
    order
        .into_iter()
        .zip(gaps)
        .map(|(e, gap)| {
            let entry = &CATALOG[e];
            let request = SubmitRequest {
                qasm: qasm[e].clone(),
                gate_set: entry.gate_set.to_string(),
                budget: Some(entry.budget),
                deadline_ms: None,
                priority: PRIORITIES[rng.below(PRIORITIES.len())],
            };
            let planned = Planned {
                entry: e,
                due: Duration::from_secs_f64(due),
                request,
            };
            due += gap * scale;
            planned
        })
        .collect()
}

fn boot() -> Server {
    let daemon = {
        let _s = span("serve.daemon_boot");
        Daemon::new(DaemonConfig::default()).expect("daemon boots on the committed libraries")
    };
    let server = {
        let _s = span("serve.bind");
        Server::bind("127.0.0.1:0", daemon).expect("bind a loopback port")
    };
    Client::new(server.addr())
        .health()
        .expect("fresh daemon answers /v1/health");
    server
}

struct Sent {
    index: usize,
    id: u64,
    /// When the submit call returned: the daemon admits under its lock
    /// before it answers.
    admitted: Instant,
}

/// What one request went through, from the client's side.
struct Finished {
    index: usize,
    /// Due time to terminal: admission plus the daemon's own elapsed time.
    latency_ms: f64,
    /// Due time to the poller seeing the terminal state.
    observed_ms: f64,
    queue_wait_ms: f64,
    run_ms: f64,
    result: ResultResponse,
    stream: Option<Result<Vec<quartz_serve::EventLine>, String>>,
}

#[derive(Default)]
struct LoopStats {
    finished: Vec<Finished>,
    errors: Vec<String>,
    rejected_429: usize,
    http_errors: usize,
    send_lag_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    result_ms: Vec<f64>,
    /// The schedule's time zero.
    start: Option<Instant>,
    wall_s: f64,
    cpu_s: f64,
}

impl LoopStats {
    fn transport_error(&mut self, what: &str, e: ClientError) {
        match &e {
            ClientError::Server { status: 429, .. } => self.rejected_429 += 1,
            _ => self.http_errors += 1,
        }
        self.errors.push(format!("{what}: {e}"));
    }
}

fn timed<T>(samples: &Mutex<Vec<f64>>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples
        .lock()
        .expect("sample store")
        .push(t.elapsed().as_secs_f64() * 1e3);
    out
}

/// Drives one open-loop schedule against `server` and waits for every
/// admitted request to reach a terminal state.
fn open_loop(server: &Server, schedule: &[Planned], give_up: Duration) -> LoopStats {
    let client = Client::new(server.addr());
    let shared = Mutex::new(LoopStats::default());
    let samples = [
        Mutex::new(Vec::new()),
        Mutex::new(Vec::new()),
        Mutex::new(Vec::new()),
    ];
    let (stats, client) = (&shared, &client);
    let [submit_ms, status_ms, result_ms] = &samples;
    let (tx, rx) = mpsc::channel::<Sent>();
    let parent = trace::current();
    let cpu0 = cpu_seconds();
    let start = Instant::now() + Duration::from_millis(20);
    let mut last_terminal = start;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            trace::adopt(parent);
            for (index, planned) in schedule.iter().enumerate() {
                let due = start + planned.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let lag = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                let sent = timed(submit_ms, || {
                    let _s = span_for("serve.submit", Some(index as u64));
                    client.submit(&planned.request)
                });
                let mut stats = stats.lock().expect("loop stats");
                stats.send_lag_ms.push(lag);
                match sent {
                    Ok(id) => tx
                        .send(Sent {
                            index,
                            id,
                            admitted: Instant::now(),
                        })
                        .expect("poller is alive"),
                    Err(e) => stats.transport_error("submit", e),
                }
            }
            drop(tx);
        });
        scope.spawn(move || {
            trace::adopt(parent);
            let mut outstanding: Vec<(Sent, Option<Instant>)> = Vec::new();
            let mut submitter_done = false;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(sent) => outstanding.push((sent, None)),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            submitter_done = true;
                            break;
                        }
                    }
                }
                if submitter_done && outstanding.is_empty() {
                    break;
                }
                if start.elapsed() > give_up {
                    let mut stats = stats.lock().expect("loop stats");
                    for (sent, _) in &outstanding {
                        stats.errors.push(format!(
                            "request {} did not finish within {give_up:?}",
                            sent.index
                        ));
                    }
                    break;
                }
                outstanding.retain_mut(|(sent, running_since)| {
                    let req = Some(sent.index as u64);
                    let status = timed(status_ms, || {
                        let _s = span_for("serve.status", req);
                        client.status(sent.id)
                    });
                    let now = Instant::now();
                    let status = match status {
                        Ok(status) => status,
                        Err(e) => {
                            stats
                                .lock()
                                .expect("loop stats")
                                .transport_error("status", e);
                            return false;
                        }
                    };
                    if status.iterations > 0 && running_since.is_none() {
                        *running_since = Some(now);
                    }
                    if !status.state.is_terminal() {
                        return true;
                    }
                    let result = timed(result_ms, || {
                        let _s = span_for("serve.result", req);
                        client.result(sent.id)
                    });
                    let stream = (sent.index % 4 == 0).then(|| {
                        let _s = span_for("serve.stream", req);
                        client.stream(sent.id).map_err(|e| e.to_string())
                    });
                    let due = start + schedule[sent.index].due;
                    let since_due =
                        |t: Instant| t.saturating_duration_since(due).as_secs_f64() * 1e3;
                    let running = running_since.unwrap_or(now);
                    let mut stats = stats.lock().expect("loop stats");
                    match result {
                        Ok(result) => stats.finished.push(Finished {
                            index: sent.index,
                            latency_ms: since_due(sent.admitted) + result.elapsed_ms as f64,
                            observed_ms: since_due(now),
                            queue_wait_ms: since_due(running),
                            run_ms: now.saturating_duration_since(running).as_secs_f64() * 1e3,
                            result,
                            stream,
                        }),
                        Err(e) => stats.transport_error("result", e),
                    }
                    false
                });
                if !outstanding.is_empty() {
                    std::thread::sleep(POLL_EVERY);
                } else if !submitter_done {
                    match rx.recv_timeout(POLL_EVERY) {
                        Ok(sent) => outstanding.push((sent, None)),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => submitter_done = true,
                    }
                }
            }
        });
    });
    let mut stats = shared.into_inner().expect("loop stats");
    for f in &stats.finished {
        let t = start + schedule[f.index].due + Duration::from_secs_f64(f.latency_ms * 1e-3);
        last_terminal = last_terminal.max(t);
    }
    stats.start = Some(start);
    stats.wall_s = last_terminal.saturating_duration_since(start).as_secs_f64();
    stats.cpu_s = cpu_seconds() - cpu0;
    let [submit_ms, status_ms, result_ms] = samples.map(|m| m.into_inner().expect("samples"));
    (stats.submit_ms, stats.status_ms, stats.result_ms) = (submit_ms, status_ms, result_ms);
    stats
}

/// Checks every served result: terminal state `done`, the pinned best
/// cost, the same outcome as every other request for the same entry, a
/// best circuit equivalent to the submitted one, and a coherent replayed
/// event stream. Returns the sum of best costs.
fn check_results(
    report: &mut Report,
    stats: &LoopStats,
    schedule: &[Planned],
    inputs: &[Circuit],
    seed: u64,
) -> f64 {
    let mut first_outcome: Vec<Option<String>> = vec![None; CATALOG.len()];
    let mut total = 0.0;
    for f in &stats.finished {
        let e = schedule[f.index].entry;
        let entry = &CATALOG[e];
        let outcome = &f.result.outcome;
        total += outcome.best_cost as f64;
        let encoded = outcome.encode().to_string();
        let verdict = (|| {
            if f.result.state.name() != "done" {
                return Err(format!("terminal state {}", f.result.state.name()));
            }
            if outcome.best_cost != entry.pinned {
                return Err(format!(
                    "best cost {} (pinned {})",
                    outcome.best_cost, entry.pinned
                ));
            }
            match &first_outcome[e] {
                Some(first) if *first != encoded => {
                    return Err(
                        "outcome differs from an earlier request for the same circuit".into(),
                    )
                }
                Some(_) => {}
                None => {
                    let best = parse_qasm(&outcome.best_qasm)
                        .map_err(|err| format!("best circuit does not parse: {err:?}"))?;
                    let _s = span("bench.check_equivalence");
                    check::same_up_to_phase(&inputs[e], &best, seed ^ e as u64)?;
                    first_outcome[e] = Some(encoded.clone());
                }
            }
            if let Some(stream) = &f.stream {
                let events = stream
                    .as_ref()
                    .map_err(|err| format!("stream replay: {err}"))?;
                let costs: Vec<usize> = events.iter().map(|ev| ev.best_cost).collect();
                if costs.windows(2).any(|w| w[1] >= w[0])
                    || costs.last().is_some_and(|&c| c != outcome.best_cost)
                {
                    return Err(format!(
                        "stream replay {costs:?} disagrees with best cost {}",
                        outcome.best_cost
                    ));
                }
            }
            Ok(())
        })();
        report.check(verdict.map_err(|err| {
            format!(
                "request {} ({} {}): {err}",
                f.index, entry.gate_set, entry.circuit
            )
        }));
    }
    for error in &stats.errors {
        report.check(Err(error.clone()));
    }
    total
}

fn latencies(stats: &LoopStats, field: impl Fn(&Finished) -> f64) -> Vec<f64> {
    stats.finished.iter().map(field).collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let inputs: Vec<Circuit> = CATALOG
        .iter()
        .map(|e| quartz_circuits::suite::build_clifford_t(e.circuit).expect("suite circuit"))
        .collect();
    let qasm: Vec<String> = inputs.iter().map(to_qasm).collect();
    let schedule = plan(seed, seconds, &qasm);
    let give_up = Duration::from_secs_f64(seconds * 4.0 + 30.0);

    // Each replaced daemon shuts down outside the timed interval.
    let mut setup_s = Vec::new();
    let mut server = time_reps(&mut setup_s, SETUP_BURST, boot);

    if traced {
        report.absent_reason = Some("not exercised by serve-mixed");
        let untraced = open_loop(&server, &schedule, give_up);
        drop(server);
        trace::set_enabled(true);
        let root = span("bench.serve_mixed");
        server = boot();
        let rss_after_boot = memory_mb("VmRSS");
        let stats = open_loop(&server, &schedule, give_up);
        report.set("serve.rss_growth_mb", memory_mb("VmRSS") - rss_after_boot);
        // User-seen latency comes from the untraced loop.
        let latency = latencies(&untraced, |f| f.latency_ms);
        report.set("serve.latency_ms_p50", percentile(&latency, 0.5));
        report.set("serve.latency_ms_p90", percentile(&latency, 0.9));
        report.set(
            "bench.tracing_overhead",
            stats.wall_s / untraced.wall_s - 1.0,
        );
        check_results(&mut report, &stats, &schedule, &inputs, seed);
        let outcomes: Vec<_> = stats
            .finished
            .iter()
            .map(|f| f.result.outcome.encode())
            .collect();
        report_counters(&mut report, &outcomes);
        for (name, samples) in [
            ("submit", stats.submit_ms.clone()),
            ("status", stats.status_ms.clone()),
            ("result", stats.result_ms.clone()),
            ("queue_wait", latencies(&stats, |f| f.queue_wait_ms)),
            ("run", latencies(&stats, |f| f.run_ms)),
            (
                "overhead",
                latencies(&stats, |f| f.observed_ms - f.result.elapsed_ms as f64),
            ),
        ] {
            report.set(format!("serve.{name}_ms_p50"), percentile(&samples, 0.5));
            report.set(format!("serve.{name}_ms_p90"), percentile(&samples, 0.9));
        }
        report.set("serve.rejected_429", stats.rejected_429 as f64);
        report.set("serve.http_errors", stats.http_errors as f64);
        report.set("bench.send_lag_p90_ms", percentile(&stats.send_lag_ms, 0.9));
        report.set(
            "bench.send_lag_max_ms",
            stats.send_lag_ms.iter().copied().fold(0.0, f64::max),
        );
        let parse_us = {
            let _s = span("ir.qasm_parse");
            let t = Instant::now();
            for text in &qasm {
                black_box(parse_qasm(text).expect("generated QASM parses"));
            }
            t.elapsed().as_secs_f64() * 1e6 / qasm.len() as f64
        };
        report.set("ir.qasm_parse_us", parse_us);
        probe_library_open(&mut report);
        drop(server);
        drop(root);
        for (layer, secs) in trace::self_seconds() {
            report.set(format!("{layer}.self_s"), secs);
        }
        return report;
    }

    let sampler = RssSampler::start();
    let stats = open_loop(&server, &schedule, give_up);
    let end = Instant::now();
    let peak = sampler.finish();
    drop(server);
    time_reps(&mut setup_s, SETUP_BURST, boot);
    report.set("setup_s", setup_seconds(&setup_s));
    // Peak resident set per round of the mix, median over rounds.
    let start = stats.start.expect("open loop sets its start");
    let round = Duration::from_secs_f64(CATALOG.len() as f64 / RATE_PER_S);
    let rounds = schedule.len() / CATALOG.len();
    let peaks: Vec<f64> = (0..rounds)
        .map(|r| {
            let from = start + round * r as u32;
            let to = if r + 1 == rounds { end } else { from + round };
            peak(from, to)
        })
        .collect();
    let total = check_results(&mut report, &stats, &schedule, &inputs, seed);
    report.set("wall_s", stats.wall_s);
    report.set("cpu_s", stats.cpu_s);
    report.set("peak_rss_mb", median(&peaks));
    report.set("total_best_cost", total);
    report.set("requests_per_s", stats.finished.len() as f64 / stats.wall_s);
    report
}
