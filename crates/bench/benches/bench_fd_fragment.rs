//! E9 — Conclusion: the polynomial single-member fragment versus the general
//! coNP procedure on the same (fragment) instances — the crossover the paper's
//! conclusion promises.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcon::{fd_fragment, implication, prop_bridge};
use diffcon_bench::workloads;

fn bench_fd_fragment(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9_fd_fragment");
    group.sample_size(15);
    for &n in &[6usize, 10, 14, 18] {
        let w = workloads::fd_chain_workload(n);
        group.bench_with_input(BenchmarkId::new("closure_poly", n), &w, |b, w| {
            b.iter(|| fd_fragment::implies_polynomial(&w.premises, &w.goals[0]))
        });
        group.bench_with_input(BenchmarkId::new("general_lattice", n), &w, |b, w| {
            b.iter(|| implication::implies_lattice(&w.universe, &w.premises, &w.goals[0]))
        });
        group.bench_with_input(BenchmarkId::new("general_sat", n), &w, |b, w| {
            b.iter(|| prop_bridge::implies_sat(&w.universe, &w.premises, &w.goals[0]))
        });
    }
    // Larger sizes only for the polynomial procedure (the general one would be
    // prohibitively slow, which is exactly the point of E9).
    for &n in &[24usize, 32, 48, 64] {
        let w = workloads::fd_chain_workload(n.min(60));
        group.bench_with_input(BenchmarkId::new("closure_poly_large", n), &w, |b, w| {
            b.iter(|| fd_fragment::implies_polynomial(&w.premises, &w.goals[0]))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fd_fragment);
criterion_main!(benches);
