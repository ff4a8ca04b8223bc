//! S1 — serving throughput: what a session's warm path costs on repeated
//! premise-set query traffic.  `BENCH_server.json` is written by the
//! `S1_report` step, which a bench filter runs only when it names it.
//!
//! Measured on the bench_engine_throughput workload (same generator, same
//! sizes, so the serial figures are directly comparable with
//! `BENCH_engine.json`):
//!
//! * **warm serial latency** — a single caller driving `Session::implies`
//!   over a warmed cache, comparable with `BENCH_engine.json`'s
//!   `warm_serial_us`;
//! * **cache hit latency** — a plain `LruCache` hit against an engine-cache
//!   hit (the same LRU as a session holds it, in a `RefCell` and counting
//!   into its family's process-wide counters), the per-op price of the
//!   borrow and the family count on the hot path; both are keyed as the
//!   answer cache is, by a goal versioned by a salt, and each hit builds
//!   its goal's `Probe`, fingerprint included, as a query does;
//! * **cold miss at capacity** — a probe that misses plus the insert that
//!   evicts, into a full default-capacity (65,536-entry) engine answer
//!   cache of goals with at most four members: the cache's share of a cold
//!   decision;
//! * **observability tax** — the per-request cost of the whole telemetry
//!   commit as the connection driver pays it (each record staged with
//!   [`Server::stage`], published once per batch), the continuous
//!   profiler's per-request cost with the sampler running (A/B against the
//!   same warm request loop with it stopped, the two modes alternating
//!   trial by trial), the price of a stage guard
//!   while profiling is disabled, and the allocation count of a whole warm
//!   cached request, text line in, reply out, and record committed (must
//!   be zero).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcon::procedure::ProcedureKind;
use diffcon::procedure::ALL_PROCEDURES;
use diffcon::DiffConstraint;
use diffcon_bench::workloads;
use diffcon_bench::JsonReport;
use diffcon_engine::protocol::binary::BinRequest;
use diffcon_engine::{
    CacheFamily, EngineMetrics, LruCache, Probe, Server, Session, SessionConfig, VersionedKey,
};
use diffcon_obs::{profile, HistogramSnapshot};
use setlat::{AttrSet, Family};
use std::cell::RefCell;
use std::time::Instant;

const UNIVERSE: usize = 12;
const PREMISES: usize = 8;
const POOL: usize = 64;
const STREAM: usize = 512;
/// Stream repetitions per measured throughput pass (~5–10 ms of warm
/// queries).
const REPEATS: usize = 256;
const TRIALS: usize = 5;

/// A session warmed over the standard serving stream.
fn warmed_session() -> (Session, Vec<diffcon::DiffConstraint>) {
    let (base, stream) = workloads::engine_query_stream(42, UNIVERSE, PREMISES, POOL, STREAM);
    let mut session = Session::new(base.universe.clone());
    for p in &base.premises {
        session.assert_constraint(p);
    }
    for goal in &stream {
        session.implies(goal);
    }
    (session, stream)
}

/// Wall-clock seconds for the best of `TRIALS` runs of `f`.
fn best_secs(mut f: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let start = Instant::now();
        criterion::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The state salt of the cache figures' keys.
const SALT: u64 = 0x5EED;

/// An answer-cache entry: (salt, goal) → (implied, route).
type AnswerCache = LruCache<VersionedKey<DiffConstraint>, (bool, ProcedureKind)>;

/// The `i`-th of the distinct goals the cache figures use: the bits of `i`
/// on the left (attributes below 20), three members above them.
fn cache_goal(i: usize) -> DiffConstraint {
    let members = [
        AttrSet::singleton(20),
        AttrSet::from_indices([21, 22]),
        AttrSet::singleton(23),
    ];
    DiffConstraint::new(AttrSet::from_bits(i as u64), Family::from_sets(members))
}

/// Per-op nanoseconds for hits against a plain LRU and against an engine
/// cache as a session holds it: the same LRU in a `RefCell`, counting every
/// hit into the answer family's process-wide counters.  Both are keyed like
/// the answer cache, and each hit probes with a fresh [`Probe`] of its goal.
fn cache_hit_latency() -> (f64, f64) {
    const KEYS: usize = 1024;
    const PASSES: u64 = 200;
    let goals: Vec<DiffConstraint> = (0..KEYS).map(cache_goal).collect();
    let mut lru = AnswerCache::new(KEYS * 2);
    let counters = EngineMetrics::global().cache(CacheFamily::Answer);
    let engine = RefCell::new(AnswerCache::with_counters(KEYS * 2, counters));
    for goal in &goals {
        let answer = (true, ProcedureKind::Lattice);
        lru.insert_probed(&Probe::new(SALT, goal), answer);
        engine
            .borrow_mut()
            .insert_probed(&Probe::new(SALT, goal), answer);
    }
    let measure = |mut hit: Box<dyn FnMut(&DiffConstraint) -> bool + '_>| {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..PASSES {
            for goal in &goals {
                acc += u64::from(hit(goal));
            }
        }
        criterion::black_box(acc);
        start.elapsed().as_secs_f64() * 1e9 / (PASSES * KEYS as u64) as f64
    };
    let lru_ns = measure(Box::new(|goal| {
        lru.probe(&Probe::new(SALT, goal))
            .is_some_and(|&(implied, _)| implied)
    }));
    let engine_ns = measure(Box::new(|goal| {
        engine
            .borrow_mut()
            .probe(&Probe::new(SALT, goal))
            .is_some_and(|&(implied, _)| implied)
    }));
    (lru_ns, engine_ns)
}

/// Per-miss nanoseconds of the answer cache's part in a cold decision: a
/// probe that misses plus the insert that evicts, into a full
/// default-capacity engine answer cache of goals with at most four members.
/// Each trial misses on goals no earlier trial inserted; best of `TRIALS`.
fn cold_miss_at_capacity_ns() -> f64 {
    const MISSES: usize = 1 << 15;
    let capacity = SessionConfig::default().answer_cache_capacity;
    let goals: Vec<DiffConstraint> = (0..capacity + TRIALS * MISSES).map(cache_goal).collect();
    let (fill, cold) = goals.split_at(capacity);
    let counters = EngineMetrics::global().cache(CacheFamily::Answer);
    let cache = RefCell::new(AnswerCache::with_counters(capacity, counters));
    for goal in fill {
        let probe = Probe::new(SALT, goal);
        cache
            .borrow_mut()
            .insert_probed(&probe, (true, ProcedureKind::Lattice));
    }
    let mut trials = cold.chunks(MISSES);
    let secs = best_secs(|| {
        let misses = trials.next().expect("one chunk of fresh goals per trial");
        for goal in misses {
            let probe = Probe::new(SALT, goal);
            let hit = cache.borrow_mut().probe(&probe).is_some();
            if !hit {
                cache
                    .borrow_mut()
                    .insert_probed(&probe, (false, ProcedureKind::Sat));
            }
        }
        misses.len()
    });
    assert_eq!(cache.borrow().len(), capacity);
    secs * 1e9 / MISSES as f64
}

/// Per-request nanoseconds of the whole telemetry commit as the connection
/// driver pays it: one warm cached query's record staged with
/// [`Server::stage`], each full batch publishing itself — the flight ring
/// and the three stage histograms per record, the reply and byte counts,
/// the connection's series, and the session's ledger per batch — measured
/// A/B against the same loop without the staging, best of `TRIALS` each.
fn telemetry_commit_ns() -> f64 {
    const PASSES: u64 = 200_000;
    let mut server = Server::new(SessionConfig::default());
    let mut reply = String::new();
    for line in ["universe 4", "assert A->{B}", "implies A->{B}"] {
        respond_line(&mut server, &mut reply, line);
    }
    reply.clear();
    let line = "implies A->{B}";
    let mut answer = server.respond(
        &BinRequest::Line(line.as_bytes()),
        Instant::now(),
        &mut reply,
    );
    assert!(reply.contains("cached=1"), "warm request missed: {reply}");
    let record = &mut answer.record;
    record.bytes_in = line.len() as u64 + 1;
    record.bytes_out = reply.len() as u64 + 1;
    let mut best = |commit: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..TRIALS {
            let start = Instant::now();
            for k in 0..PASSES {
                record.frame_ns = k;
                if commit {
                    server.stage(criterion::black_box(record));
                }
                criterion::black_box(&*record);
            }
            server.publish();
            best = best.min(start.elapsed().as_secs_f64() * 1e9 / PASSES as f64);
        }
        best
    };
    let base_ns = best(false);
    best(true) - base_ns
}

/// Warm per-request nanoseconds of a cached query through the full
/// protocol server — parse, session lookup, cache-hit decision, reply
/// formatting, and the telemetry commit itself.  This is the unit of work
/// that pays exactly one commit, so it is the denominator the commit is
/// held under half of.
fn warm_request_ns() -> f64 {
    const PASSES: u64 = 50_000;
    let mut server = Server::new(SessionConfig::default());
    server.handle_line("universe 4");
    server.handle_line("assert A->{B}");
    for _ in 0..1_000 {
        criterion::black_box(server.handle_line("implies A->{B}"));
    }
    let start = Instant::now();
    for _ in 0..PASSES {
        criterion::black_box(server.handle_line("implies A->{B}"));
    }
    start.elapsed().as_secs_f64() * 1e9 / PASSES as f64
}

/// The cost of one stage guard while profiling is disabled — the price
/// every tagged call site pays on an unprofiled server.  Must be ~0 (a
/// single relaxed load).  Best of `TRIALS` runs, so a run the scheduler
/// interrupted does not read as guard cost.
fn disabled_guard_ns() -> f64 {
    static BENCH_TAG: profile::StageTag = profile::StageTag::new("bench.guard");
    const PASSES: u64 = 20_000_000;
    profile::sampler_stop();
    profile::set_enabled(false);
    let secs = best_secs(|| {
        for _ in 0..PASSES {
            criterion::black_box(profile::stage(&BENCH_TAG));
        }
        0
    });
    secs * 1e9 / PASSES as f64
}

/// Answers one warm request line the way a connection does: through
/// [`Server::respond`] into a reused reply buffer, committing its record
/// once the reply is "written".
fn respond_line(server: &mut Server, reply: &mut String, line: &str) {
    reply.clear();
    let mut answer = server.respond(&BinRequest::Line(line.as_bytes()), Instant::now(), reply);
    answer.record.bytes_in = line.len() as u64 + 1;
    answer.record.bytes_out = reply.len() as u64 + 1;
    server.commit(&answer.record);
}

/// A/B per-request cost of continuous profiling on the warm request path:
/// the same warm cached query stream through [`Server::respond`] (whose
/// serve stage carries a beacon guard) with the sampler running versus
/// stopped.  The modes alternate trial by trial, so drift over the run
/// falls on both, and each keeps its best, so scheduler noise cannot
/// masquerade as profiler cost.
fn profiler_overhead_ns() -> f64 {
    const PASSES: u64 = 20_000;
    let run_once = || -> f64 {
        let mut server = Server::new(SessionConfig::default());
        let mut reply = String::new();
        respond_line(&mut server, &mut reply, "universe 4");
        respond_line(&mut server, &mut reply, "assert A->{B}");
        for _ in 0..2_048 {
            respond_line(&mut server, &mut reply, "implies A->{B}");
        }
        let start = Instant::now();
        for _ in 0..PASSES {
            respond_line(&mut server, &mut reply, "implies A->{B}");
            criterion::black_box(&reply);
        }
        start.elapsed().as_secs_f64() * 1e9 / PASSES as f64
    };
    let (mut baseline_ns, mut profiled_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRIALS {
        profile::sampler_stop();
        baseline_ns = baseline_ns.min(run_once());
        profile::sampler_start(0);
        profiled_ns = profiled_ns.min(run_once());
    }
    profile::sampler_stop();
    profiled_ns - baseline_ns
}

/// Heap allocations per whole warm cached request — text line parsed,
/// goal parsed, answer-cache hit, reply formatted, record committed —
/// measured by the counting global allocator's
/// per-thread counters.  The warm request must be allocation-free.
fn warm_path_allocs_per_query() -> f64 {
    const PASSES: u64 = 10_000;
    let mut server = Server::new(SessionConfig::default());
    let mut reply = String::new();
    respond_line(&mut server, &mut reply, "universe 4");
    respond_line(&mut server, &mut reply, "assert A->{C,BD}");
    respond_line(&mut server, &mut reply, "implies A->{C,BD}");
    respond_line(&mut server, &mut reply, "implies A->{C,BD}");
    let (allocs_before, _) = profile::thread_alloc_counts();
    for _ in 0..PASSES {
        respond_line(&mut server, &mut reply, "implies A->{C,BD}");
    }
    let (allocs_after, _) = profile::thread_alloc_counts();
    assert!(reply.contains("cached=1"), "warm request missed: {reply}");
    (allocs_after - allocs_before) as f64 / PASSES as f64
}

fn emit_json_report() {
    // Baseline the process-global per-route decision histograms: the window
    // measured below covers the cold warmup decisions plus every warm pass,
    // the same distributions `stats` and the metrics endpoint expose.
    let route_base: Vec<HistogramSnapshot> = ALL_PROCEDURES
        .iter()
        .map(|kind| EngineMetrics::global().route_latency(*kind).snapshot())
        .collect();
    let (session, stream) = warmed_session();
    let total_queries = (REPEATS * STREAM) as f64;

    // Warm serial: same steady-state methodology as BENCH_engine.json's
    // warm_serial_us (best timed 512-query pass after warmup), plus a
    // throughput figure over the same total query count the multi-thread
    // runs use.
    let (serial_512_us, serial_512_mean_us) = {
        for _ in 0..3 {
            criterion::black_box(stream.iter().filter(|g| session.implies(g).implied).count());
        }
        let mut best = f64::INFINITY;
        let mut total = 0.0f64;
        let passes = 20;
        for _ in 0..passes {
            let start = Instant::now();
            criterion::black_box(stream.iter().filter(|g| session.implies(g).implied).count());
            let secs = start.elapsed().as_secs_f64();
            best = best.min(secs);
            total += secs;
        }
        (best * 1e6, total * 1e6 / passes as f64)
    };
    let serial_secs = best_secs(|| {
        let mut implied = 0usize;
        for _ in 0..REPEATS {
            implied += stream.iter().filter(|g| session.implies(g).implied).count();
        }
        implied
    });
    let serial_qps = total_queries / serial_secs;

    let (lru_ns, cache_ns) = cache_hit_latency();
    let cold_miss_ns = cold_miss_at_capacity_ns();

    let mut report = JsonReport::new("server_throughput");
    report.push_metric("stream_len", STREAM as f64);
    report.push_metric("queries_per_pass", total_queries);
    report.push_metric("warm_serial_us", serial_512_us);
    report.push_metric("warm_serial_mean_us", serial_512_mean_us);
    report.push_metric("warm_serial_qps", serial_qps);
    report.push_metric("lru_hit_ns", lru_ns);
    report.push_metric("cache_hit_ns", cache_ns);
    report.push_metric("cold_miss_at_capacity_ns", cold_miss_ns);
    let commit_ns = telemetry_commit_ns();
    let request_ns = warm_request_ns();
    let guard_ns = disabled_guard_ns();
    let profiler_ns = profiler_overhead_ns();
    let warm_allocs = warm_path_allocs_per_query();
    report.push_metric("telemetry_commit_ns", commit_ns);
    report.push_metric("warm_request_ns", request_ns);
    report.push_metric("profiler_disabled_guard_ns", guard_ns);
    report.push_metric("profiler_overhead_ns", profiler_ns);
    report.push_metric("warm_path_allocs_per_query", warm_allocs);

    // Histogram-derived decision latency per implication route, windowed to
    // this bench's traffic.  Routes the workload never exercised are
    // omitted rather than reported as zeros.
    let mut decided_total = 0u64;
    for (kind, base) in ALL_PROCEDURES.iter().zip(&route_base) {
        let window = EngineMetrics::global()
            .route_latency(*kind)
            .snapshot()
            .minus(base);
        if window.count() == 0 {
            continue;
        }
        decided_total += window.count();
        let name = kind.name();
        report.push_metric(format!("route_{name}_decided"), window.count() as f64);
        report.push_metric(format!("route_{name}_p50_us"), window.p50() as f64 / 1e3);
        report.push_metric(format!("route_{name}_p99_us"), window.p99() as f64 / 1e3);
    }
    eprintln!("{}", report.to_json());

    // The headline gates, checked once every figure above is printed, so
    // one noisy figure cannot hide the rest.  Every per-request telemetry
    // write rides the one staged commit, so its cost is the whole telemetry
    // bill of a request and must stay under half of the warm cached request
    // that carries it.  Continuous profiling must be near-free when off and
    // cheap when on: a disabled guard is one relaxed load, and running the
    // sampler with every stage guard live costs under 3% of a warm request.
    let gates = [
        (
            commit_ns < request_ns * 0.50,
            format!(
                "telemetry commit {commit_ns:.1} ns/request, bound < half the \
                 {request_ns:.0} ns warm request"
            ),
        ),
        (
            guard_ns < 5.0,
            format!("disabled stage guard {guard_ns:.2} ns, bound < 5 ns"),
        ),
        (
            profiler_ns < request_ns * 0.03,
            format!(
                "continuous profiling {profiler_ns:.1} ns/request, bound < 3% of \
                 the {request_ns:.0} ns warm request"
            ),
        ),
        (
            warm_allocs == 0.0,
            format!("warm cached requests {warm_allocs} allocs/request, bound 0"),
        ),
        (
            decided_total > 0,
            format!("route decisions over the bench window {decided_total}, bound >= 1"),
        ),
    ];
    let failed: Vec<&str> = gates
        .iter()
        .filter(|(pass, _)| !pass)
        .map(|(_, gate)| gate.as_str())
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {} gates failed; BENCH_server.json not written:\n  {}",
        failed.len(),
        gates.len(),
        failed.join("\n  ")
    );
    match report.write_to_repo_root("BENCH_server.json") {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_server.json: {e}"),
    }
    eprintln!(
        "warm serial {:.0} qps; warm request {:.0} ns; cache hit {:.0} ns \
         plain vs {:.0} ns engine",
        serial_qps, request_ns, lru_ns, cache_ns
    );
}

fn bench_server_throughput(c: &mut Criterion) {
    if c.selects("S1_report") {
        emit_json_report();
    }

    let (session, stream) = warmed_session();
    let mut group = c.benchmark_group("S1_warm_throughput");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("serial", STREAM), &stream, |b, stream| {
        b.iter(|| stream.iter().filter(|g| session.implies(g).implied).count())
    });
    group.finish();
}

criterion_group!(benches, bench_server_throughput);
criterion_main!(benches);
