//! E3 — Theorem 3.5: cost of the lattice-containment decision procedure as the
//! universe and premise set grow, plus the lattice-size count table.
//!
//! The `cold` rows time 1,000 distinct goals of the serving benchmark's
//! `cold_decide` shape per iteration: left sides of 9–12 of 22 attributes
//! (1–4 of 16 in the last row), half of them a premise augmented.  The
//! premise sets are `cold_decide`'s as served, whose `X → {}` premises imply
//! every goal, and 10, 30 and 100 premises with nonempty right sides.  Each
//! row prints its implied share.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcon::implication;
use diffcon_bench::workloads::{self, ColdPremises, ImplicationWorkload};

/// The goals of `w` that the lattice check finds implied.
fn implied(w: &ImplicationWorkload) -> usize {
    w.goals
        .iter()
        .filter(|g| implication::implies_lattice(&w.universe, &w.premises, g))
        .count()
}

fn bench_lattice_decision(c: &mut Criterion) {
    workloads::table_lattice_sizes(&[6, 8, 10, 12]).eprint();

    let mut group = c.benchmark_group("E3_lattice_decision");
    group.sample_size(20);
    for &n in &[6usize, 8, 10, 12, 14] {
        let w = workloads::implication_workload(42, n, 8, 6);
        group.bench_with_input(BenchmarkId::new("universe", n), &w, |b, w| {
            b.iter(|| {
                let mut implied = 0usize;
                for goal in &w.goals {
                    if implication::implies_lattice(&w.universe, &w.premises, goal) {
                        implied += 1;
                    }
                }
                implied
            })
        });
    }
    for &m in &[2usize, 4, 8, 16, 32] {
        let w = workloads::implication_workload(7, 10, m, 6);
        group.bench_with_input(BenchmarkId::new("premises", m), &w, |b, w| {
            b.iter(|| implied(w))
        });
    }
    let cold = [
        (22, ColdPremises::Served, (9, 12)),
        (22, ColdPremises::Nonempty(10), (9, 12)),
        (22, ColdPremises::Nonempty(30), (9, 12)),
        (22, ColdPremises::Nonempty(100), (9, 12)),
        (16, ColdPremises::Nonempty(10), (1, 4)),
    ];
    for (n, premises, lhs) in cold {
        let label = match premises {
            ColdPremises::Served => "served".to_string(),
            ColdPremises::Nonempty(m) => format!("nonempty_{m}"),
        };
        let w = workloads::cold_lattice_workload(n, premises, lhs, 1000, 1);
        eprintln!("E3 cold{n}/{label}: {} of 1000 goals implied", implied(&w));
        let id = BenchmarkId::new(format!("cold{n}"), label);
        group.bench_with_input(id, &w, |b, w| b.iter(|| implied(w)));
    }
    group.finish();
}

criterion_group!(benches, bench_lattice_decision);
criterion_main!(benches);
