//! E3 — Theorem 3.5: cost of the lattice-containment decision procedure as the
//! universe and premise set grow, plus the lattice-size count table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcon::implication;
use diffcon_bench::workloads;

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
            b.iter(|| {
                w.goals
                    .iter()
                    .filter(|g| implication::implies_lattice(&w.universe, &w.premises, g))
                    .count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lattice_decision);
criterion_main!(benches);
