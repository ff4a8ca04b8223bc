//! The traced run: the same generated requests fed in process through the
//! engine's public functions, with a span recorded around each call.
//!
//! Two passes over one request list, both from a fresh state and run in
//! lockstep, unit by unit (after one untimed priming pass):
//!
//! * the *whole* pass times `Server::handle_line`, the full request, and
//!   counts its allocations;
//! * the *layered* pass calls the layers one by one on a `Session` —
//!   `parse_request`, `binary::decode_request`, `DiffConstraint::parse`,
//!   `Session::snapshot`, `Snapshot::implies` / `Snapshot::bound`, and the
//!   session writes — each under its own span.
//!
//! Layers cheaper than about 100 ns (a clock read costs ~29 ns) are timed
//! over a batch of calls with one span per batch; the deciders and writes
//! get one span per call.  Spans stay in memory (name, start, end, parent,
//! request id, calls) and are written out when the run ends, with each
//! span's self time: its duration minus the part its children cover.
//!
//! Every figure comes from the workload's own traffic: a layer the workload
//! never reaches (no `bound` in `warm_text`, no `sat` route in
//! `churn_binary`, ...) reads 0.

use crate::stats::{mean, percentile};
use crate::workloads::{Req, Workload};
use diffcon::DiffConstraint;
use diffcon_engine::protocol::{binary, parse_request, MAX_REQUEST_BYTES};
use diffcon_engine::{Server, Session, SessionConfig};
use diffcon_obs::profile::thread_alloc_counts;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Most consecutive reads timed under one batch span.
const BATCH: usize = 32;

/// One recorded span.  Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Calls the span covers (batch spans cover several).
    pub calls: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
            calls: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize, calls: usize) {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        span.calls = calls as u32;
    }

    /// Runs `f` under a span of `calls` calls.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        calls: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id, calls);
        out
    }

    /// Each span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, c)| span.ns().saturating_sub(c))
            .collect()
    }

    /// Total duration and calls of every span with this name.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| {
                (ns + s.ns(), calls + s.calls as u64)
            })
    }

    /// Mean nanoseconds per call under spans of this name (0 without calls).
    pub fn per_call(&self, name: &str) -> f64 {
        let (ns, calls) = self.total(name);
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    }

    /// Per-call durations of single-call spans of this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.calls == 1)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Writes every span as a tab-separated row, then a per-name summary of
    /// total and self time to stderr.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\trequest\tname\tstart_ns\tend_ns\tcalls\tself_ns"
        )?;
        let mut summary: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
        for (id, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{own}",
                span.request, span.name, span.start, span.end, span.calls
            )?;
            let entry = summary.entry(span.name).or_default();
            *entry = (
                entry.0 + 1,
                entry.1 + span.calls as u64,
                entry.2 + span.ns(),
                entry.3 + own,
            );
        }
        out.flush()?;
        eprintln!(
            "{:<30} {:>8} {:>9} {:>14} {:>14}",
            "span", "spans", "calls", "total_ns", "self_ns"
        );
        for (name, (spans, calls, total, own)) in summary {
            eprintln!("{name:<30} {spans:>8} {calls:>9} {total:>14} {own:>14}");
        }
        Ok(())
    }
}

/// What one per-call implies span decided.
struct Decision {
    route: &'static str,
    cached: bool,
    trivial: bool,
    ns: u64,
}

/// Per-layer metrics of the traced run, by name.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Runs both passes over the prologue, the warm-up and the first `count`
/// requests of the workload's `phase` stream.
pub fn run(workload: &Workload, phase: u64, count: usize, spans_out: Option<&Path>) -> Metrics {
    let universe = &workload.universe;
    let mut stream = workload.stream(phase);
    let head = workload.head(&mut stream);
    let requests: Vec<Req> = stream.take(count).collect();
    let lines: Vec<String> = requests.iter().map(|r| r.line(universe)).collect();
    let mut tracer = Tracer::new();

    // Whole pass: `Server::handle_line`, batched like the layered pass.
    // An untimed pass first, so neither timed pass pays the process's
    // first touch of the memory the caches grow into.
    let fresh_server = || {
        let mut server = Server::new(SessionConfig::default());
        for req in &head {
            let reply = server.handle_line(&req.line(universe));
            assert!(
                !reply.text.starts_with("err"),
                "prologue failed: {}",
                reply.text
            );
        }
        server
    };
    let mut server = fresh_server();
    for line in &lines {
        black_box(server.handle_line(line));
    }
    drop(server);
    let mut server = fresh_server();
    let mut allocs = 0u64;

    // Layered pass, in lockstep with the whole pass: each unit of requests
    // goes through `handle_line` and then through the layers, so both see
    // the same cache states and the same machine conditions.
    let mut session = Session::with_config(universe.clone(), SessionConfig::default());
    // The warm-up's implies misses are timed for the miss distribution and
    // left out of the stream's shares and hit ratio.
    let mut warm_misses = Vec::new();
    for req in &head {
        let Req::Implies(goal) = req else {
            apply(&mut session, req);
            continue;
        };
        let id = tracer.open("snapshot.implies_warmup", None, u64::MAX);
        let outcome = session.implies(goal);
        tracer.close(id, 1);
        if !outcome.cached && outcome.procedure.is_some() {
            warm_misses.push(tracer.spans[id].ns() as f64);
        }
    }
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    for req in &requests {
        let mut frame = Vec::new();
        req.encode_binary(universe, &mut frame);
        frames.push(frame);
    }
    let mut decisions: Vec<Decision> = Vec::new();
    let mut bounds: Vec<bool> = Vec::new();
    for (start, end) in runs(&requests) {
        let calls = end - start;
        let before = thread_alloc_counts().0;
        tracer.time("protocol.handle_line", None, start as u64, calls, || {
            for line in &lines[start..end] {
                black_box(server.handle_line(black_box(line)));
            }
        });
        allocs += thread_alloc_counts().0 - before;
        let run_span = tracer.open("request.run", None, start as u64);
        tracer.time(
            "protocol.parse_request",
            Some(run_span),
            start as u64,
            calls,
            || {
                for line in &lines[start..end] {
                    black_box(parse_request(black_box(line)).is_ok());
                }
            },
        );
        tracer.time(
            "protocol.binary_decode",
            Some(run_span),
            start as u64,
            calls,
            || {
                for frame in &frames[start..end] {
                    black_box(binary::decode_request(black_box(frame), MAX_REQUEST_BYTES));
                }
            },
        );
        let goal_texts: Vec<&str> = lines[start..end]
            .iter()
            .filter_map(|line| line.strip_prefix("implies "))
            .collect();
        if !goal_texts.is_empty() {
            tracer.time(
                "protocol.constraint_parse",
                Some(run_span),
                start as u64,
                goal_texts.len(),
                || {
                    for text in &goal_texts {
                        black_box(DiffConstraint::parse(black_box(text), universe).is_ok());
                    }
                },
            );
        }
        if requests[start].is_write() {
            write(&mut tracer, &mut session, &requests[start], run_span, start);
            tracer.close(run_span, 1);
            continue;
        }
        tracer.time(
            "snapshot.capture",
            Some(run_span),
            start as u64,
            calls,
            || {
                for _ in start..end {
                    black_box(session.snapshot());
                }
            },
        );
        let snapshot = session.snapshot();
        let mut hits: Vec<&DiffConstraint> = Vec::new();
        for (i, req) in requests.iter().enumerate().take(end).skip(start) {
            match req {
                Req::Implies(goal) => {
                    let id = tracer.open("snapshot.implies", Some(run_span), i as u64);
                    let outcome = snapshot.implies(goal);
                    tracer.close(id, 1);
                    let trivial = outcome.procedure.is_none();
                    if !trivial {
                        hits.push(goal);
                    }
                    decisions.push(Decision {
                        route: outcome.route_name(),
                        cached: outcome.cached,
                        trivial,
                        ns: tracer.spans[id].ns(),
                    });
                }
                Req::Bound(set) => {
                    let id = tracer.open("snapshot.bound", Some(run_span), i as u64);
                    let outcome = snapshot.bound(*set).expect("every churn bound is feasible");
                    tracer.close(id, 1);
                    bounds.push(outcome.cached);
                }
                _ => unreachable!("runs hold reads only"),
            }
        }
        // Every non-trivial goal again, now cached and batched: the warm
        // decide without per-call clocks.
        if !hits.is_empty() {
            tracer.time(
                "snapshot.implies_hit",
                Some(run_span),
                start as u64,
                hits.len(),
                || {
                    for goal in &hits {
                        black_box(snapshot.implies(black_box(goal)));
                    }
                },
            );
        }
        tracer.close(run_span, calls);
    }

    let n = requests.len() as f64;
    let implies = decisions.len().max(1) as f64;
    let share =
        |route: &str| decisions.iter().filter(|d| d.route == route).count() as f64 / implies;
    let probed = decisions.iter().filter(|d| !d.trivial).count().max(1) as f64;
    let hit_ratio = decisions.iter().filter(|d| d.cached).count() as f64 / probed;
    let bound_hit_ratio = if bounds.is_empty() {
        0.0
    } else {
        bounds.iter().filter(|&&c| c).count() as f64 / bounds.len() as f64
    };
    let misses: Vec<f64> = decisions
        .iter()
        .filter(|d| !d.cached && !d.trivial)
        .map(|d| d.ns as f64)
        .chain(warm_misses)
        .collect();
    let route_times = |route: &str| -> Vec<f64> {
        decisions
            .iter()
            .filter(|d| !d.cached && d.route == route)
            .map(|d| d.ns as f64)
            .collect()
    };

    let lattice = route_times("lattice");
    let sat = route_times("sat");

    let handle_line = tracer.per_call("protocol.handle_line");
    let parse = tracer.total("protocol.parse_request").0;
    let constraint = tracer.total("protocol.constraint_parse").0;
    let capture = tracer.total("snapshot.capture").0;
    let hit_ns = tracer.per_call("snapshot.implies_hit");
    let decide: f64 = decisions
        .iter()
        .map(|d| if d.cached { hit_ns } else { d.ns as f64 })
        .sum();
    let bound_total = tracer.total("snapshot.bound").0;
    let writes: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.name.starts_with("session."))
        .map(Span::ns)
        .sum();
    let timed = (parse + constraint + capture + bound_total + writes) as f64 + decide;
    let residual = handle_line - timed / n;

    if let Some(path) = spans_out {
        if let Err(e) = tracer.write(path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    eprintln!(
        "traced {}: {} requests, {} implies ({} hits, {} misses), {} bounds",
        workload.kind.name(),
        requests.len(),
        decisions.len(),
        decisions.iter().filter(|d| d.cached).count(),
        misses.len(),
        bounds.len()
    );
    vec![
        (
            "protocol.parse_request_ns",
            tracer.per_call("protocol.parse_request"),
            "ns",
        ),
        (
            "protocol.constraint_parse_ns",
            tracer.per_call("protocol.constraint_parse"),
            "ns",
        ),
        (
            "protocol.binary_decode_ns",
            tracer.per_call("protocol.binary_decode"),
            "ns",
        ),
        ("protocol.handle_line_ns", handle_line, "ns"),
        ("protocol.residual_ns", residual, "ns"),
        ("protocol.allocs_per_request", allocs as f64 / n, "count"),
        (
            "snapshot.capture_ns",
            tracer.per_call("snapshot.capture"),
            "ns",
        ),
        ("snapshot.implies_hit_ns", hit_ns, "ns"),
        (
            "snapshot.implies_miss_p50_ns",
            percentile(&misses, 0.50),
            "ns",
        ),
        (
            "snapshot.implies_miss_p99_ns",
            percentile(&misses, 0.99),
            "ns",
        ),
        (
            "snapshot.bound_ns",
            mean(&tracer.durations("snapshot.bound")),
            "ns",
        ),
        ("planner.share_trivial", share("trivial"), "ratio"),
        ("planner.share_fd", share("fd"), "ratio"),
        ("planner.share_lattice", share("lattice"), "ratio"),
        ("planner.share_sat", share("sat"), "ratio"),
        ("planner.lattice_p99_ns", percentile(&lattice, 0.99), "ns"),
        ("planner.sat_p99_ns", percentile(&sat, 0.99), "ns"),
        ("cache.answer_hit_ratio", hit_ratio, "ratio"),
        ("cache.bound_hit_ratio", bound_hit_ratio, "ratio"),
        (
            "session.assert_ns",
            mean(&tracer.durations("session.assert")),
            "ns",
        ),
        (
            "session.retract_ns",
            mean(&tracer.durations("session.retract")),
            "ns",
        ),
        (
            "session.known_ns",
            mean(&tracer.durations("session.known")),
            "ns",
        ),
    ]
}

/// Splits the requests into timing units: each write alone, reads in runs
/// of at most [`BATCH`].
fn runs(requests: &[Req]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < requests.len() {
        let mut end = start + 1;
        if !requests[start].is_write() {
            while end < requests.len() && end - start < BATCH && !requests[end].is_write() {
                end += 1;
            }
        }
        out.push((start, end));
        start = end;
    }
    out
}

/// Applies a prologue or warm-up request to a session, untimed.
fn apply(session: &mut Session, req: &Req) {
    match req {
        Req::Universe(_) => {}
        Req::Implies(goal) => {
            session.implies(goal);
        }
        Req::Bound(set) => {
            session.bound(*set).expect("feasible bound");
        }
        Req::Assert(c) => {
            session.assert_constraint(c);
        }
        Req::Retract(c) => {
            session.retract_constraint(c);
        }
        Req::Known(set, value) => {
            session.set_known(*set, *value as f64);
        }
        Req::Forget(set) => {
            session.forget_known(*set);
        }
    }
}

/// One timed session write, under the run span.
fn write(tracer: &mut Tracer, session: &mut Session, req: &Req, parent: usize, request: usize) {
    let name = match req {
        Req::Assert(_) => "session.assert",
        Req::Retract(_) => "session.retract",
        Req::Known(..) => "session.known",
        Req::Forget(_) => "session.forget",
        _ => unreachable!("writes only"),
    };
    tracer.time(name, Some(parent), request as u64, 1, || {
        apply(session, req)
    });
}
