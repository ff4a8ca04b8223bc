//! E12 — bound-query serving: what the diffcon-bounds subsystem costs and
//! saves.
//!
//! Three questions, one serving-style setup (a premise chain satisfied by a
//! generated basket database, knowns drawn from its true supports):
//!
//! * **derivation latency by universe size** — the full propagation path as
//!   `2^{|S|}` grows, versus the enumeration-free relaxation past the
//!   budget, and the same queries answered from one shared [`Propagation`]
//!   (one pass-1 build, then one evaluation per query: what a session
//!   does), on the chain the data satisfies in part (most density variables
//!   alive) and on the whole chain over suffix-set baskets (`|S| + 1`
//!   alive);
//! * **cache effect** — repeated `bound` queries against a warm session
//!   (the serving configuration) versus fresh derivations;
//! * **mining savings** — support scans needed to build the NDI
//!   representation with and without constraint awareness (a count table,
//!   not a timing).
//!
//! The count tables and self-measured timings are also written to
//! `BENCH_bounds.json` at the repository root for trend tracking, by the
//! `E12_report` step, which a bench filter runs only when it names it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcon::DiffConstraint;
use diffcon_bench::{JsonReport, Table};
use diffcon_bounds::derive::{derive_propagated, derive_relaxed, Propagation};
use diffcon_bounds::{mining, BoundsConfig, BoundsProblem, SideConditions};
use diffcon_engine::Session;
use fis::basket::BasketDb;
use fis::generator::{self, QuestConfig};
use fis::ndi::NdiRepresentation;
use setlat::{AttrSet, Universe};
use std::time::Instant;

/// A premise chain `A→{B}, B→{C}, …` trimmed to those satisfied by `db`.
fn satisfied_chain(universe: &Universe, db: &BasketDb) -> Vec<DiffConstraint> {
    (0..universe.len() - 1)
        .map(|i| {
            DiffConstraint::new(
                AttrSet::singleton(i),
                setlat::Family::single(AttrSet::singleton(i + 1)),
            )
        })
        .filter(|c| !db.baskets().iter().any(|&b| c.lattice_contains(b)))
        .collect()
}

/// One bound-serving workload: universe, satisfied constraints, true knowns.
struct Workload {
    universe: Universe,
    constraints: Vec<DiffConstraint>,
    knowns: Vec<(AttrSet, f64)>,
    queries: Vec<AttrSet>,
}

/// Generated baskets over `n` items.
fn baskets(n: usize) -> BasketDb {
    generator::quest_like(
        7,
        &QuestConfig {
            num_items: n,
            num_baskets: 200,
            ..QuestConfig::default()
        },
    )
}

fn workload(n: usize) -> Workload {
    workload_on(&baskets(n))
}

/// A low-density workload: each generated basket is widened to the suffix
/// set from its first item on, so the whole chain holds, and only the
/// `n + 1` suffix sets stay outside `L(C)`.
fn sparse_workload(n: usize) -> Workload {
    let full = AttrSet::full(n);
    let suffix = |b: AttrSet| match b.min_attr() {
        Some(first) => full.difference(AttrSet::from_bits((1 << first) - 1)),
        None => AttrSet::EMPTY,
    };
    let db = BasketDb::from_baskets(n, baskets(n).baskets().iter().map(|&b| suffix(b)));
    let w = workload_on(&db);
    assert_eq!(
        w.constraints.len(),
        n - 1,
        "suffix sets satisfy the whole chain"
    );
    w
}

/// The chain `db` satisfies, with knowns and queries over its supports.
fn workload_on(db: &BasketDb) -> Workload {
    let n = db.universe_size();
    let universe = Universe::of_size(n);
    let constraints = satisfied_chain(&universe, db);
    // Knowns: the empty set plus every singleton and a few pairs.
    let mut knowns: Vec<(AttrSet, f64)> = vec![(AttrSet::EMPTY, db.len() as f64)];
    for i in 0..n {
        knowns.push((
            AttrSet::singleton(i),
            db.support(AttrSet::singleton(i)) as f64,
        ));
    }
    for i in 0..n - 1 {
        let pair = AttrSet::from_indices([i, i + 1]);
        knowns.push((pair, db.support(pair) as f64));
    }
    // Queries: the unknown triples.
    let queries: Vec<AttrSet> = (0..n - 2)
        .map(|i| AttrSet::from_indices([i, i + 1, i + 2]))
        .collect();
    Workload {
        universe,
        constraints,
        knowns,
        queries,
    }
}

fn bench_derivation_by_universe(c: &mut Criterion) {
    let mut group = c.benchmark_group("E12_derive_by_universe");
    group.sample_size(15);
    for &n in &[8usize, 12, 16] {
        let w = workload(n);
        let problem = BoundsProblem {
            universe: &w.universe,
            constraints: &w.constraints,
            knowns: &w.knowns,
            side: SideConditions::support(),
        };
        let config = BoundsConfig::default();
        let sparse = sparse_workload(n);
        let sparse_problem = BoundsProblem {
            universe: &sparse.universe,
            constraints: &sparse.constraints,
            knowns: &sparse.knowns,
            side: SideConditions::support(),
        };
        group.bench_with_input(BenchmarkId::new("propagation", n), &w.queries, |b, qs| {
            b.iter(|| {
                qs.iter()
                    .map(|&q| {
                        derive_propagated(&problem, q, &config)
                            .unwrap()
                            .interval
                            .width()
                    })
                    .sum::<f64>()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("propagation_shared", n),
            &w.queries,
            |b, qs| {
                b.iter(|| {
                    let state = Propagation::new(&problem, &config).unwrap();
                    qs.iter()
                        .map(|&q| state.evaluate(q).unwrap().width())
                        .sum::<f64>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("propagation_shared_sparse", n),
            &sparse.queries,
            |b, qs| {
                b.iter(|| {
                    let state = Propagation::new(&sparse_problem, &config).unwrap();
                    qs.iter()
                        .map(|&q| state.evaluate(q).unwrap().width())
                        .sum::<f64>()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("relaxed", n), &w.queries, |b, qs| {
            b.iter(|| {
                qs.iter()
                    .map(|&q| derive_relaxed(&problem, q).unwrap().interval.width())
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

fn bench_session_cache(c: &mut Criterion) {
    let w = workload(12);
    let mut session = Session::new(w.universe.clone());
    for p in &w.constraints {
        session.assert_constraint(p);
    }
    for &(x, v) in &w.knowns {
        session.set_known(x, v);
    }
    let (known_set, known_value) = w.knowns[0];
    let mut group = c.benchmark_group("E12_session_cache");
    group.sample_size(15);
    group.bench_with_input(
        BenchmarkId::new("cold", w.queries.len()),
        &w.queries,
        |b, qs| {
            b.iter(|| {
                session.clear_caches();
                // Re-setting a known to its own value is a write that
                // leaves the digests unchanged and drops the bound state, so
                // every pass pays one state build, as a cold session does.
                session.set_known(known_set, known_value);
                qs.iter()
                    .filter(|&&q| session.bound(q).unwrap().cached)
                    .count()
            })
        },
    );
    // Warm the cache once, then measure pure hits.
    for &q in &w.queries {
        session.bound(q).unwrap();
    }
    group.bench_with_input(
        BenchmarkId::new("warm", w.queries.len()),
        &w.queries,
        |b, qs| {
            b.iter(|| {
                qs.iter()
                    .filter(|&&q| session.bound(q).unwrap().cached)
                    .count()
            })
        },
    );
    group.finish();
}

fn table_mining_savings(ns: &[usize]) -> Table {
    let mut table = Table::new(
        "E12: NDI support scans, classic vs constraint-aware (κ = 4)",
        [
            "items",
            "itemsets",
            "classic_scans",
            "constrained_scans",
            "pinned",
        ],
    );
    for &n in ns {
        let universe = Universe::of_size(n);
        let raw = generator::quest_like(
            11,
            &QuestConfig {
                num_items: n,
                num_baskets: 150,
                ..QuestConfig::default()
            },
        );
        // Plant association structure the constraints can exploit: items 0
        // and 1 imply their successors, so A → {B} and B → {C} hold exactly.
        let db = BasketDb::from_baskets(
            n,
            raw.baskets().iter().map(|&b| {
                let mut b = b;
                for i in 0..2 {
                    if b.contains(i) {
                        b.insert(i + 1);
                    }
                }
                b
            }),
        );
        let constraints = satisfied_chain(&universe, &db);
        let kappa = 4;
        let (_, classic) =
            mining::ndi_under_constraints(&db, &[], kappa, &BoundsConfig::mining()).unwrap();
        let (rep, constrained) =
            mining::ndi_under_constraints(&db, &constraints, kappa, &BoundsConfig::mining())
                .unwrap();
        // Sanity: the constrained build must stay faithful.
        assert_eq!(rep.kappa, kappa);
        assert!(NdiRepresentation::build(&db, kappa).size() >= rep.size());
        table.push_row([
            n.to_string(),
            constrained.considered.to_string(),
            classic.support_scans.to_string(),
            constrained.support_scans.to_string(),
            constrained.derived_exact.to_string(),
        ]);
    }
    table
}

fn emit_json_report() {
    let mut report = JsonReport::new("bounds");
    // Self-measured derivation latency at n = 12 (propagation vs relaxed).
    let w = workload(12);
    let problem = BoundsProblem {
        universe: &w.universe,
        constraints: &w.constraints,
        knowns: &w.knowns,
        side: SideConditions::support(),
    };
    let config = BoundsConfig::default();
    let time_us = |f: &mut dyn FnMut()| -> f64 {
        let passes = 10;
        let start = Instant::now();
        for _ in 0..passes {
            f();
        }
        start.elapsed().as_secs_f64() * 1e6 / passes as f64
    };
    let propagation_us = time_us(&mut || {
        for &q in &w.queries {
            criterion::black_box(derive_propagated(&problem, q, &config).unwrap());
        }
    });
    // The same queries answered from one state: one build, one evaluation
    // per query.
    let propagation_shared_us = time_us(&mut || {
        let state = Propagation::new(&problem, &config).unwrap();
        for &q in &w.queries {
            criterion::black_box(state.evaluate(q).unwrap());
        }
    });
    let sparse = sparse_workload(12);
    let sparse_problem = BoundsProblem {
        universe: &sparse.universe,
        constraints: &sparse.constraints,
        knowns: &sparse.knowns,
        side: SideConditions::support(),
    };
    let propagation_shared_sparse_us = time_us(&mut || {
        let state = Propagation::new(&sparse_problem, &config).unwrap();
        for &q in &sparse.queries {
            criterion::black_box(state.evaluate(q).unwrap());
        }
    });
    let relaxed_us = time_us(&mut || {
        for &q in &w.queries {
            criterion::black_box(derive_relaxed(&problem, q).unwrap());
        }
    });
    let mut session = Session::new(w.universe.clone());
    for p in &w.constraints {
        session.assert_constraint(p);
    }
    for &(x, v) in &w.knowns {
        session.set_known(x, v);
    }
    for &q in &w.queries {
        session.bound(q).unwrap();
    }
    let cached_us = time_us(&mut || {
        for &q in &w.queries {
            criterion::black_box(session.bound(q).unwrap());
        }
    });
    eprintln!(
        "E12: {} queries at 12 attributes: {propagation_us:.0} µs derived one by one, \
         {propagation_shared_us:.0} µs from one shared state, \
         {propagation_shared_sparse_us:.0} µs from one state where 13 variables are alive",
        w.queries.len()
    );
    report.push_metric("universe", 12.0);
    report.push_metric("queries_per_pass", w.queries.len() as f64);
    report.push_metric("propagation_us", propagation_us);
    report.push_metric("propagation_shared_us", propagation_shared_us);
    report.push_metric("propagation_shared_sparse_us", propagation_shared_sparse_us);
    report.push_metric("relaxed_us", relaxed_us);
    report.push_metric("cached_us", cached_us);
    report.push_table(table_mining_savings(&[8, 10]));
    match report.write_to_repo_root("BENCH_bounds.json") {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_bounds.json: {e}"),
    }
}

fn bench_bounds_report(c: &mut Criterion) {
    if c.selects("E12_report") {
        table_mining_savings(&[8, 10]).eprint();
        emit_json_report();
    }
    // A token measured target so the group shows up in criterion output.
    let w = workload(10);
    let problem = BoundsProblem {
        universe: &w.universe,
        constraints: &w.constraints,
        knowns: &w.knowns,
        side: SideConditions::support(),
    };
    let config = BoundsConfig::default();
    let mut group = c.benchmark_group("E12_report");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("derive_triple", 10),
        &w.queries[0],
        |b, &q| {
            b.iter(|| {
                derive_propagated(&problem, q, &config)
                    .unwrap()
                    .interval
                    .width()
            })
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_bounds_report,
    bench_derivation_by_universe,
    bench_session_cache
);
criterion_main!(benches);
