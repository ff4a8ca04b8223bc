//! Workload constructors and count-table builders for the experiments.
//!
//! Every experiment id mentioned here refers to the index in `DESIGN.md` /
//! `EXPERIMENTS.md` (E1–E10).

use diffcon::constraint::DiffConstraint;
use diffcon::random::{ConstraintGenerator, ConstraintShape};
use diffcon::{fd_fragment, implication, inference, prop_bridge};
use fis::basket::BasketDb;
use fis::condensed::CondensedRepresentation;
use fis::generator::{self as fis_gen, QuestConfig};
use fis::{apriori, border};
use proplogic::dnf::{Dnf, DnfTerm};
use relational::distribution::ProbabilisticRelation;
use relational::generator as rel_gen;
use setlat::{AttrSet, Family, Universe};

use crate::report::Table;

/// A random implication instance: universe, premises and a batch of goals
/// (roughly half of them implied by construction).
pub struct ImplicationWorkload {
    /// The attribute universe.
    pub universe: Universe,
    /// The premise set `C`.
    pub premises: Vec<DiffConstraint>,
    /// Goal constraints to decide.
    pub goals: Vec<DiffConstraint>,
}

/// Builds a random implication workload over `n` attributes with
/// `num_premises` premises and `num_goals` goals (E1, E3, E4).
pub fn implication_workload(
    seed: u64,
    n: usize,
    num_premises: usize,
    num_goals: usize,
) -> ImplicationWorkload {
    let universe = Universe::of_size(n);
    let shape = ConstraintShape {
        max_lhs: 2,
        max_members: 3,
        max_member_size: 2,
        allow_trivial: false,
    };
    let mut gen = ConstraintGenerator::new(seed, &universe);
    let premises = gen.constraint_set(num_premises, &shape);
    let mut goals = Vec::with_capacity(num_goals);
    for i in 0..num_goals {
        if i % 2 == 0 {
            goals.push(gen.implied_goal(&premises));
        } else {
            goals.push(gen.constraint(&shape));
        }
    }
    ImplicationWorkload {
        universe,
        premises,
        goals,
    }
}

/// The premise sets of [`cold_lattice_workload`].
#[derive(Debug, Clone, Copy)]
pub enum ColdPremises {
    /// The serving benchmark's `cold_decide` premise set, drawn as it draws
    /// it (seed 42); its `X → {}` premises make every goal implied.
    Served,
    /// This many distinct premises of the same shape, each with a nonempty
    /// right side.
    Nonempty(usize),
}

/// The serving benchmark's goal generator (splitmix64), mirrored here since
/// the benchmark is a workspace of its own and cannot be imported.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x6A09_E667_F3BC_C908)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    fn subset_of(&mut self, pool: AttrSet, size: usize) -> AttrSet {
        let members: Vec<usize> = pool.iter().collect();
        let mut set = AttrSet::EMPTY;
        while set.len() < size.min(members.len()) {
            set.insert(members[self.below(members.len())]);
        }
        set
    }
}

/// A cold-decision workload over `n` attributes: the serving benchmark's
/// `cold_decide` premise shape and `num_goals` distinct goals of its goal
/// shape, with left sides of `lhs.0..=lhs.1` attributes (`9..=12` is the
/// class it routes to the lattice kernel at 22 attributes).  Half the goals
/// are a premise augmented, so implied by construction; half are random.
pub fn cold_lattice_workload(
    n: usize,
    premises: ColdPremises,
    lhs: (usize, usize),
    num_goals: usize,
    seed: u64,
) -> ImplicationWorkload {
    let universe = Universe::of_size(n);
    let shape = ConstraintShape {
        max_lhs: 2,
        max_members: 3,
        max_member_size: 3,
        allow_trivial: false,
    };
    let mut gen = ConstraintGenerator::new(42, &universe);
    let premises = match premises {
        ColdPremises::Served => loop {
            let drawn = gen.constraint_set(10, &shape);
            if drawn.iter().any(|p| p.rhs.len() >= 2) {
                break drawn;
            }
        },
        ColdPremises::Nonempty(count) => {
            let mut drawn: Vec<DiffConstraint> = Vec::with_capacity(count);
            while drawn.len() < count {
                let c = gen.constraint(&shape);
                if !c.rhs.is_empty() && !drawn.contains(&c) {
                    drawn.push(c);
                }
            }
            drawn
        }
    };
    let full = universe.full_set();
    let mut rng = SplitMix::new(seed);
    let mut goals: Vec<DiffConstraint> = Vec::with_capacity(num_goals);
    while goals.len() < num_goals {
        let size = rng.between(lhs.0, lhs.1);
        let mut goal = None;
        if rng.below(2) == 0 {
            let base = &premises[rng.below(premises.len())];
            let mut goal_lhs = base.lhs;
            while goal_lhs.len() < size.max(base.lhs.len()) {
                goal_lhs.insert(rng.below(n));
            }
            let extra_size = rng.between(1, 3);
            let extra = rng.subset_of(full.difference(goal_lhs), extra_size);
            goal = Some(DiffConstraint::new(goal_lhs, base.rhs.with_member(extra)))
                .filter(|g| !g.is_trivial());
        }
        let goal = goal.unwrap_or_else(|| {
            let goal_lhs = rng.subset_of(full, size);
            let outside = full.difference(goal_lhs);
            let count = rng.between(1, 3);
            let members: Vec<AttrSet> = (0..count)
                .map(|_| {
                    let size = rng.between(1, 3);
                    rng.subset_of(outside, size)
                })
                .collect();
            DiffConstraint::new(goal_lhs, Family::from_sets(members))
        });
        if !goals.contains(&goal) {
            goals.push(goal);
        }
    }
    ImplicationWorkload {
        universe,
        premises,
        goals,
    }
}

/// One step of the Knuth LCG used by the seed-stretching helpers below; the
/// call sites pick which high bits of the new state to use.
fn lcg_step(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// A serving-style query stream: a fixed premise set plus `stream_len` goal
/// queries drawn (with repetition) from a pool of `pool_size` distinct goals.
///
/// Repetition is what distinguishes a *serving* workload from a one-shot
/// batch: a production constraint checker sees the same goals over and over
/// as clients re-validate, which is exactly what the engine's answer cache
/// amortizes.  Used by `bench_engine_throughput`.
pub fn engine_query_stream(
    seed: u64,
    n: usize,
    num_premises: usize,
    pool_size: usize,
    stream_len: usize,
) -> (ImplicationWorkload, Vec<DiffConstraint>) {
    let base = implication_workload(seed, n, num_premises, pool_size);
    let mut state = seed ^ 0x5DEECE66D;
    let stream: Vec<DiffConstraint> = (0..stream_len)
        .map(|_| base.goals[((lcg_step(&mut state) >> 33) as usize) % base.goals.len()].clone())
        .collect();
    (base, stream)
}

/// Builds the chain instance `A₀ → {A₁}, A₁ → {A₂}, …` over `n` attributes with
/// goal `A₀ → {A_{n−1}}` — the canonical FD-fragment workload (E9).
pub fn fd_chain_workload(n: usize) -> ImplicationWorkload {
    assert!(n >= 2);
    let universe = Universe::of_size(n);
    let premises: Vec<DiffConstraint> = (0..n - 1)
        .map(|i| {
            DiffConstraint::new(
                AttrSet::singleton(i),
                Family::single(AttrSet::singleton(i + 1)),
            )
        })
        .collect();
    let goals = vec![DiffConstraint::new(
        AttrSet::singleton(0),
        Family::single(AttrSet::singleton(n - 1)),
    )];
    ImplicationWorkload {
        universe,
        premises,
        goals,
    }
}

/// Builds a pseudo-random DNF formula over `n` variables with `terms` terms —
/// the raw material of the coNP-hardness reduction (E4).
pub fn random_dnf(seed: u64, n: usize, terms: usize) -> Dnf {
    let mut state = seed ^ 0x9E3779B97F4A7C15;
    let mut next = || lcg_step(&mut state) >> 11;
    let mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut out = Vec::with_capacity(terms);
    for _ in 0..terms {
        let pos = AttrSet::from_bits(next() & mask);
        let neg = AttrSet::from_bits(next() & mask).difference(pos);
        out.push(DnfTerm::new(pos, neg));
    }
    Dnf::new(out)
}

/// A "hard" DNF family: the parity-style formula whose tautology check forces a
/// solver to explore many branches (it *is* a tautology), over `n` variables.
///
/// The formula says "some variable is true or all variables are false", written
/// with one term per variable plus the all-negative term — a tautology whose
/// refutation requires ruling out every assignment pattern.
pub fn covering_dnf(n: usize) -> Dnf {
    let mut terms: Vec<DnfTerm> = (0..n)
        .map(|i| DnfTerm::new(AttrSet::singleton(i), AttrSet::EMPTY))
        .collect();
    terms.push(DnfTerm::new(AttrSet::EMPTY, AttrSet::full(n)));
    Dnf::new(terms)
}

/// Builds the Quest-style basket workload used by the FIS experiments (E5, E6).
pub fn fis_workload(seed: u64, num_items: usize, num_baskets: usize) -> BasketDb {
    let config = QuestConfig {
        num_items,
        num_baskets,
        num_patterns: (num_items / 2).max(3),
        avg_pattern_len: 3,
        patterns_per_basket: 2,
        noise_prob: 0.05,
    };
    fis_gen::quest_like(seed, &config)
}

/// Builds the relational workload used by the Simpson experiments (E7):
/// a relation with a planted FD chain plus noise attributes, under a random
/// distribution.
pub fn relational_workload(seed: u64, arity: usize, tuples: usize) -> ProbabilisticRelation {
    use relational::fd::FunctionalDependency;
    let fds: Vec<FunctionalDependency> = (0..arity.saturating_sub(1).min(3))
        .map(|i| FunctionalDependency::new(AttrSet::singleton(i), AttrSet::singleton(i + 1)))
        .collect();
    let relation = rel_gen::relation_with_fds(seed, arity, tuples, 6, &fds);
    rel_gen::random_distribution(seed.wrapping_add(1), relation)
}

/// E3 count table: lattice-decomposition sizes and premise counts per universe
/// size, for the workloads measured by `bench_lattice_decision`.
pub fn table_lattice_sizes(sizes: &[usize]) -> Table {
    let mut table = Table::new(
        "E3: lattice decomposition size vs universe size (random goals)",
        ["|S|", "premises", "goal |L(X,Y)| (mean)", "2^|S|"],
    );
    for &n in sizes {
        let w = implication_workload(42, n, 6, 8);
        let mean: f64 = w
            .goals
            .iter()
            .map(|g| g.lattice_size(&w.universe) as f64)
            .sum::<f64>()
            / w.goals.len() as f64;
        table.push_row([
            n.to_string(),
            w.premises.len().to_string(),
            format!("{mean:.1}"),
            (1u64 << n).to_string(),
        ]);
    }
    table
}

/// E1 count table: proof sizes produced by the completeness engine on implied
/// goals, per universe size.
pub fn table_proof_sizes(sizes: &[usize]) -> Table {
    let mut table = Table::new(
        "E1: derivation size / depth for implied goals (completeness engine)",
        ["|S|", "goals derived", "mean proof size", "max depth"],
    );
    for &n in sizes {
        let w = implication_workload(7, n, 5, 10);
        let mut sizes_acc = Vec::new();
        let mut max_depth = 0usize;
        for goal in &w.goals {
            if let Some(proof) = inference::derive(&w.universe, &w.premises, goal) {
                proof
                    .verify(&w.universe, &w.premises)
                    .expect("generated proofs must verify");
                sizes_acc.push(proof.size());
                max_depth = max_depth.max(proof.depth());
            }
        }
        let mean = if sizes_acc.is_empty() {
            0.0
        } else {
            sizes_acc.iter().sum::<usize>() as f64 / sizes_acc.len() as f64
        };
        table.push_row([
            n.to_string(),
            sizes_acc.len().to_string(),
            format!("{mean:.1}"),
            max_depth.to_string(),
        ]);
    }
    table
}

/// E6 count table: sizes of the competing representations of the frequency
/// information at several thresholds.
pub fn table_condensed_sizes(db: &BasketDb, thresholds: &[usize]) -> Table {
    let mut table = Table::new(
        "E6: representation sizes (all frequent vs negative border vs FDFree/Bd-)",
        [
            "kappa",
            "#frequent",
            "|neg border|",
            "|FDFree|",
            "|Bd-|",
            "condensed total",
        ],
    );
    for &kappa in thresholds {
        let frequent = border::count_frequent(db, kappa);
        let neg = border::negative_border(db, kappa).len();
        let repr = CondensedRepresentation::build(db, kappa);
        table.push_row([
            kappa,
            frequent,
            neg,
            repr.fdfree.len(),
            repr.border.len(),
            repr.size(),
        ]);
    }
    table
}

/// E8/E4 agreement table: on random instances, every decision procedure must
/// return the same verdict; the table records the number of instances and the
/// fraction decided "implied".
pub fn table_procedure_agreement(seeds: &[u64], n: usize) -> Table {
    let mut table = Table::new(
        "E4/E8: decision-procedure agreement on random instances",
        [
            "seed",
            "goals",
            "implied",
            "lattice=SAT",
            "lattice=semantic",
            "lattice=fragment*",
        ],
    );
    for &seed in seeds {
        let w = implication_workload(seed, n, 5, 12);
        let mut implied = 0usize;
        let mut agree_sat = true;
        let mut agree_sem = true;
        let mut agree_frag = true;
        for goal in &w.goals {
            let lattice = implication::implies_lattice(&w.universe, &w.premises, goal);
            if lattice {
                implied += 1;
            }
            agree_sat &= lattice == prop_bridge::implies_sat(&w.universe, &w.premises, goal);
            agree_sem &= lattice == implication::implies_semantic(&w.universe, &w.premises, goal);
            if fd_fragment::set_in_fragment(&w.premises) && fd_fragment::in_fragment(goal) {
                agree_frag &= lattice == fd_fragment::implies_polynomial(&w.premises, goal);
            }
        }
        table.push_row([
            seed.to_string(),
            w.goals.len().to_string(),
            implied.to_string(),
            agree_sat.to_string(),
            agree_sem.to_string(),
            agree_frag.to_string(),
        ]);
    }
    table
}

/// E5 count table: Apriori work vs the ground truth on the Quest workload.
pub fn table_apriori_counts(db: &BasketDb, thresholds: &[usize]) -> Table {
    let mut table = Table::new(
        "E5: Apriori candidates counted vs frequent itemsets found",
        [
            "kappa",
            "#frequent",
            "candidates counted",
            "levels",
            "|neg border|",
        ],
    );
    for &kappa in thresholds {
        let result = apriori::apriori(db, kappa);
        table.push_row([
            kappa,
            result.num_frequent(),
            result.candidates_counted,
            result.levels,
            result.negative_border.len(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implication_workload_is_well_formed() {
        let w = implication_workload(1, 6, 5, 8);
        assert_eq!(w.universe.len(), 6);
        assert_eq!(w.premises.len(), 5);
        assert_eq!(w.goals.len(), 8);
        // Even-indexed goals are implied by construction.
        for (i, goal) in w.goals.iter().enumerate() {
            if i % 2 == 0 {
                assert!(implication::implies_lattice(&w.universe, &w.premises, goal));
            }
        }
    }

    #[test]
    fn fd_chain_is_in_fragment_and_implied() {
        let w = fd_chain_workload(8);
        assert!(fd_fragment::set_in_fragment(&w.premises));
        assert!(fd_fragment::in_fragment(&w.goals[0]));
        assert!(fd_fragment::implies_polynomial(&w.premises, &w.goals[0]));
        assert!(implication::implies_lattice(
            &w.universe,
            &w.premises,
            &w.goals[0]
        ));
    }

    #[test]
    fn covering_dnf_is_a_tautology() {
        for n in 2..6 {
            let u = Universe::of_size(n);
            let dnf = covering_dnf(n);
            assert!(dnf.is_tautology_exhaustive(&u));
            assert!(prop_bridge::dnf_is_tautology_via_constraints(&dnf, &u));
        }
    }

    #[test]
    fn random_dnf_is_reproducible() {
        assert_eq!(random_dnf(3, 6, 4), random_dnf(3, 6, 4));
        assert_ne!(random_dnf(3, 6, 4), random_dnf(4, 6, 4));
    }

    #[test]
    fn tables_have_expected_shapes() {
        let lattice = table_lattice_sizes(&[4, 5]);
        assert_eq!(lattice.len(), 2);
        let proofs = table_proof_sizes(&[4]);
        assert_eq!(proofs.len(), 1);
        let db = fis_workload(5, 8, 60);
        let condensed = table_condensed_sizes(&db, &[6, 12]);
        assert_eq!(condensed.len(), 2);
        let apriori_t = table_apriori_counts(&db, &[6, 12]);
        assert_eq!(apriori_t.len(), 2);
        let agreement = table_procedure_agreement(&[1, 2], 5);
        assert_eq!(agreement.len(), 2);
        // Agreement columns must all read "true".
        let text = agreement.to_string();
        assert!(!text.contains("false"), "procedures disagreed:\n{text}");
    }

    #[test]
    fn workload_generators_produce_nonempty_data() {
        let db = fis_workload(1, 10, 80);
        assert_eq!(db.len(), 80);
        let pr = relational_workload(2, 5, 40);
        assert!(pr.relation().len() > 5);
    }
}
