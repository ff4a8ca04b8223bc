//! E11 — engine serving throughput: what the `diffcon-engine` layer buys over
//! one-shot `implication::implies` calls on repeated-premise query traffic.
//!
//! Two axes are measured on the same serving-style stream (a fixed premise
//! set, queries drawn with repetition from a goal pool):
//!
//! * **cold vs. warm cache** — one-shot `implies` per query versus a session
//!   whose answer cache has seen the stream once;
//! * **stream length scaling** — throughput as repetition (and therefore
//!   cache hit ratio) grows.
//!
//! A count table reports the planner's view of the warm run — per-procedure
//! query counts and the cache hit ratios behind the speedup.  The JSON
//! report adds a cold serving pass on a heavier stream, its allocation
//! bytes per query, and the static-analysis figures.  `implies_batch` is
//! not timed separately: it decides its goals one at a time through
//! `implies`, so it would time the serial loop again.  The table and
//! `BENCH_engine.json` come from the `E11_report` step, which a bench filter
//! runs only when it names it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcon::implication;
use diffcon::procedure::ProcedureKind;
use diffcon_bench::workloads;
use diffcon_bench::{JsonReport, Table};
use diffcon_engine::Session;
use diffcon_obs::profile;
use std::time::Instant;

const UNIVERSE: usize = 12;
const PREMISES: usize = 8;
const POOL: usize = 64;

/// A session over the heavier cold workload (16 attributes, 12 premises, a
/// 128-goal pool) and a `len`-query stream over it, so each decision is
/// substantial.  Callers clear the caches before each pass, so every pass
/// decides the distinct goals again.  Premises with an empty right side are
/// left out: `X → {}` covers every superset of `X`, so the generator's
/// `∅ → {}` alone would imply every goal.
fn cold_workload(len: usize) -> (Session, Vec<diffcon::DiffConstraint>) {
    let (base, stream) = workloads::engine_query_stream(7, 16, 12, 128, len);
    let mut session = Session::new(base.universe.clone());
    for p in base.premises.iter().filter(|p| !p.rhs.is_empty()) {
        session.assert_constraint(p);
    }
    (session, stream)
}

fn table_engine_cache_effect(stream_lens: &[usize]) -> Table {
    let mut table = Table::new(
        "E11: engine cache effect by stream length (pool of 64 goals)",
        [
            "stream",
            "decided",
            "cache_hits",
            "trivial",
            "hit_ratio",
            "fd",
            "lattice",
            "sat",
        ],
    );
    for &len in stream_lens {
        let (base, stream) = workloads::engine_query_stream(42, UNIVERSE, PREMISES, POOL, len);
        let mut session = Session::new(base.universe.clone());
        for p in &base.premises {
            session.assert_constraint(p);
        }
        for goal in &stream {
            session.implies(goal);
        }
        let stats = session.stats();
        let planner = stats.planner;
        let decided: u64 = planner.per_procedure.iter().map(|p| p.decided).sum();
        let hits: u64 = planner.per_procedure.iter().map(|p| p.cache_hits).sum();
        table.push_row([
            len.to_string(),
            decided.to_string(),
            hits.to_string(),
            planner.trivial.to_string(),
            format!("{:.2}", stats.answer_cache.hit_ratio()),
            planner.of(ProcedureKind::FdFragment).decided.to_string(),
            planner.of(ProcedureKind::Lattice).decided.to_string(),
            planner.of(ProcedureKind::Sat).decided.to_string(),
        ]);
    }
    table
}

/// Self-measured serving timings for the machine-readable report (the
/// criterion shim reports medians to stderr only; the JSON file needs
/// numbers of its own).
fn emit_json_report(cache_table: Table) {
    let (base, stream) = workloads::engine_query_stream(42, UNIVERSE, PREMISES, POOL, 512);
    // Steady-state timing: untimed warmup passes, then 20 timed passes.
    // Returns (best, mean) in µs — the best is a latency-floor estimator
    // robust to scheduler noise on small CI hosts (criterion's stderr
    // medians corroborate it); the mean is kept alongside so reports using
    // different estimators stay comparable across commits.
    let time_both_us = |f: &mut dyn FnMut() -> usize| -> (f64, f64) {
        for _ in 0..3 {
            criterion::black_box(f());
        }
        let mut best = f64::INFINITY;
        let mut total = 0.0f64;
        let passes = 20;
        for _ in 0..passes {
            let start = Instant::now();
            criterion::black_box(f());
            let secs = start.elapsed().as_secs_f64();
            best = best.min(secs);
            total += secs;
        }
        (best * 1e6, total * 1e6 / passes as f64)
    };
    let time_us = |f: &mut dyn FnMut() -> usize| -> f64 { time_both_us(f).0 };
    let cold_us = time_us(&mut || {
        stream
            .iter()
            .filter(|g| implication::implies(&base.universe, &base.premises, g))
            .count()
    });
    let mut warm = Session::new(base.universe.clone());
    for p in &base.premises {
        warm.assert_constraint(p);
    }
    for goal in &stream {
        warm.implies(goal);
    }
    let (warm_us, warm_mean_us) =
        time_both_us(&mut || stream.iter().filter(|g| warm.implies(g).implied).count());
    // Static-analysis cost and the core-reduction win (ISSUE 10): inflate
    // the premise family with goals it already implies — redundant by
    // construction — then time `minimal_core` itself and the cold serving
    // pass from the full versus the reduced family.  Cold decisions pay
    // per-premise costs (lattice enumeration, SAT translation), so the
    // reduction shows up where caches cannot hide it.
    let mut inflated = base.premises.clone();
    for goal in &stream {
        if inflated.len() >= base.premises.len() + 4 {
            break;
        }
        if !inflated.contains(goal) && implication::implies(&base.universe, &inflated, goal) {
            inflated.push(goal.clone());
        }
    }
    let mut core = diffcon_analyze::minimal_core(&base.universe, &inflated);
    let analyze_us = time_us(&mut || {
        core = diffcon_analyze::minimal_core(&base.universe, &inflated);
        assert!(diffcon_analyze::check_certificate(&base.universe, &core));
        core.core.len()
    });
    let cold_full_us = time_us(&mut || {
        stream
            .iter()
            .filter(|g| implication::implies(&base.universe, &inflated, g))
            .count()
    });
    let cold_core_us = time_us(&mut || {
        stream
            .iter()
            .filter(|g| implication::implies(&base.universe, &core.core, g))
            .count()
    });
    // Cold serving: the 128-query cold stream decided one goal at a time,
    // caches cleared before every pass.
    let (cold, cold_stream) = cold_workload(128);
    let cold_implied = cold_stream
        .iter()
        .filter(|g| cold.implies(g).implied)
        .count();
    eprintln!(
        "cold stream: {cold_implied} of {} goals implied",
        cold_stream.len()
    );
    let cold_serial_us = time_us(&mut || {
        cold.clear_caches();
        cold_stream
            .iter()
            .filter(|g| cold.implies(g).implied)
            .count()
    });
    // Bytes one serial cold pass allocates per query, read from this
    // thread's allocation counter (the engine's global allocator counts).
    cold.clear_caches();
    let (_, bytes_before) = profile::thread_alloc_counts();
    for goal in &cold_stream {
        criterion::black_box(cold.implies(goal));
    }
    let (_, bytes_after) = profile::thread_alloc_counts();
    let cold_alloc_bytes_per_query = (bytes_after - bytes_before) as f64 / cold_stream.len() as f64;
    let mut report = JsonReport::new("engine_throughput");
    report.push_metric("stream_len", stream.len() as f64);
    report.push_metric("cold_oneshot_us", cold_us);
    report.push_metric("warm_serial_us", warm_us);
    report.push_metric("warm_serial_mean_us", warm_mean_us);
    report.push_metric("warm_speedup", cold_us / warm_us.max(1e-9));
    report.push_metric("cold_serial_us", cold_serial_us);
    report.push_metric("cold_implied_goals", cold_implied as f64);
    report.push_metric("cold_alloc_bytes_per_query", cold_alloc_bytes_per_query);
    report.push_metric("analyze_minimal_core_us", analyze_us);
    report.push_metric("analyze_premises_full", inflated.len() as f64);
    report.push_metric("analyze_premises_core", core.core.len() as f64);
    report.push_metric("analyze_premises_dropped", core.dropped.len() as f64);
    report.push_metric("analyze_cold_full_us", cold_full_us);
    report.push_metric("analyze_cold_core_us", cold_core_us);
    report.push_metric(
        "analyze_core_reduction_speedup",
        cold_full_us / cold_core_us.max(1e-9),
    );
    report.push_table(cache_table);
    match report.write_to_repo_root("BENCH_engine.json") {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_engine.json: {e}"),
    }
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    if c.selects("E11_report") {
        let cache_table = table_engine_cache_effect(&[64, 256, 1024, 4096]);
        cache_table.eprint();
        emit_json_report(cache_table);
    }

    let (base, stream) = workloads::engine_query_stream(42, UNIVERSE, PREMISES, POOL, 512);
    let mut group = c.benchmark_group("E11_cold_vs_warm");
    group.sample_size(15);

    group.bench_with_input(
        BenchmarkId::new("cold_oneshot", stream.len()),
        &stream,
        |b, stream| {
            b.iter(|| {
                stream
                    .iter()
                    .filter(|g| implication::implies(&base.universe, &base.premises, g))
                    .count()
            })
        },
    );

    // Warm: the session has already served the stream once, so every query
    // in the measured pass is an answer-cache hit.
    let mut warm = Session::new(base.universe.clone());
    for p in &base.premises {
        warm.assert_constraint(p);
    }
    for goal in &stream {
        warm.implies(goal);
    }
    group.bench_with_input(
        BenchmarkId::new("warm_serial", stream.len()),
        &stream,
        |b, stream| b.iter(|| stream.iter().filter(|g| warm.implies(g).implied).count()),
    );
    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm);
criterion_main!(benches);
