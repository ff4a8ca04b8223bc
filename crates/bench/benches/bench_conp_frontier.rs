//! E4 — Proposition 5.5: the coNP frontier.  Compares the lattice procedure,
//! the clause-level SAT procedure and the refutation search on
//! DNF-tautology-derived instances (worst case) and contrasts them with the
//! polynomial FD fragment (E9's counterpart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcon::{fd_fragment, implication, prop_bridge};
use diffcon_bench::workloads;
use setlat::Universe;

fn bench_conp_frontier(c: &mut Criterion) {
    workloads::table_procedure_agreement(&[1, 2, 3, 4], 6).eprint();

    let mut group = c.benchmark_group("E4_conp_frontier");
    group.sample_size(15);
    for &n in &[6usize, 9, 12, 15] {
        let universe = Universe::of_size(n);
        let dnf = workloads::covering_dnf(n);
        let (premises, goal) = prop_bridge::dnf_tautology_to_implication(&dnf);
        group.bench_with_input(BenchmarkId::new("tautology_lattice", n), &n, |b, _| {
            b.iter(|| implication::implies_lattice(&universe, &premises, &goal))
        });
        group.bench_with_input(BenchmarkId::new("tautology_sat", n), &n, |b, _| {
            b.iter(|| prop_bridge::implies_sat(&universe, &premises, &goal))
        });
        group.bench_with_input(BenchmarkId::new("tautology_search", n), &n, |b, _| {
            b.iter(|| implication::refutation_search(&universe, &premises, &goal).is_none())
        });
    }
    for &n in &[8usize, 16, 32, 48] {
        let w = workloads::fd_chain_workload(n);
        group.bench_with_input(BenchmarkId::new("fd_fragment_poly", n), &w, |b, w| {
            b.iter(|| fd_fragment::implies_polynomial(&w.premises, &w.goals[0]))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conp_frontier);
criterion_main!(benches);
