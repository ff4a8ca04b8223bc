//! E7/E9 — Section 7 and the conclusion: the relational bridge on generated
//! relations, and the polynomial FD fragment.

use diffcon::random::{ConstraintGenerator, ConstraintShape};
use diffcon::{fd_fragment, implication, rel_bridge, DiffConstraint};
use relational::boolean_dep::BooleanDependency;
use relational::distribution::ProbabilisticRelation;
use relational::fd::{self, FunctionalDependency};
use relational::generator;
use relational::{shannon, simpson};
use setlat::{AttrSet, Family, Universe};

/// Proposition 7.2 on random probabilistic relations: the Simpson density is
/// nonnegative and matches its closed form.
#[test]
fn proposition_7_2_on_random_relations() {
    let u = Universe::of_size(5);
    for seed in 0..10u64 {
        let relation = generator::random_relation(seed, 5, 25, 3);
        if relation.is_empty() {
            continue;
        }
        let pr = generator::random_distribution(seed + 100, relation);
        assert!(simpson::simpson_is_frequency_function(&pr));
        let density = simpson::simpson_density(&pr);
        for x in u.all_subsets() {
            let closed = simpson::simpson_density_at_closed_form(&pr, x);
            assert!((density.get(x) - closed).abs() < 1e-8);
            assert!(closed >= -1e-9);
        }
    }
}

/// Proposition 7.3 on random relations and random constraints: Simpson
/// satisfaction ⇔ boolean-dependency satisfaction, for uniform and skewed
/// distributions alike.
#[test]
fn proposition_7_3_on_random_relations() {
    let u = Universe::of_size(5);
    let shape = ConstraintShape {
        max_lhs: 2,
        max_members: 2,
        max_member_size: 2,
        allow_trivial: true,
    };
    for seed in 0..10u64 {
        let relation = generator::random_relation(seed, 5, 15, 2);
        if relation.is_empty() {
            continue;
        }
        let uniform = ProbabilisticRelation::uniform(relation.clone());
        let skewed = generator::random_distribution(seed + 7, relation.clone());
        let mut gen = ConstraintGenerator::new(seed * 3 + 1, &u);
        for _ in 0..6 {
            let c = gen.constraint(&shape);
            let via_relation = BooleanDependency::new(c.lhs, c.rhs.clone()).satisfied_by(&relation);
            assert_eq!(via_relation, rel_bridge::simpson_satisfies(&uniform, &c));
            assert_eq!(via_relation, rel_bridge::simpson_satisfies(&skewed, &c));
        }
    }
}

/// Corollary 7.4 on random instances: implication over Simpson functions
/// (via the Armstrong-style witness relation) coincides with plain implication.
#[test]
fn corollary_7_4_on_random_instances() {
    let u = Universe::of_size(5);
    let shape = ConstraintShape::default();
    for seed in 0..25u64 {
        let mut gen = ConstraintGenerator::new(seed, &u);
        let premises = gen.constraint_set(3, &shape);
        let goal = if seed % 2 == 0 {
            gen.implied_goal(&premises)
        } else {
            gen.constraint(&shape)
        };
        let general = implication::implies_lattice(&u, &premises, &goal);
        let simpson = rel_bridge::implies_over_simpson(&u, &premises, &goal);
        if rel_bridge::vacuous_over_relations(&premises) {
            // Some premise has an empty right-hand side: no Simpson model exists,
            // so the simpson(S) implication is vacuously true (see EXPERIMENTS.md).
            assert!(simpson);
        } else {
            assert_eq!(general, simpson);
        }
        let bool_premises: Vec<_> = premises
            .iter()
            .map(rel_bridge::to_boolean_dependency)
            .collect();
        assert_eq!(
            general,
            rel_bridge::boolean_implies(
                &u,
                &bool_premises,
                &rel_bridge::to_boolean_dependency(&goal)
            )
        );
    }
}

/// Functional dependencies are the single-member special case: on relations
/// with planted FDs, FD satisfaction, boolean-dependency satisfaction and
/// Simpson satisfaction of the translated constraint all agree; and FD
/// implication (closure) agrees with general implication.
#[test]
fn fd_special_case_end_to_end() {
    let u = Universe::of_size(6);
    let planted = vec![
        FunctionalDependency::new(u.parse_set("A").unwrap(), u.parse_set("B").unwrap()),
        FunctionalDependency::new(u.parse_set("BC").unwrap(), u.parse_set("D").unwrap()),
        FunctionalDependency::new(u.parse_set("D").unwrap(), u.parse_set("E").unwrap()),
    ];
    let relation = generator::relation_with_fds(3, 6, 60, 4, &planted);
    let pr = ProbabilisticRelation::uniform(relation.clone());

    // Satisfaction agreement for every candidate FD with singleton dependent.
    for lhs_mask in 0u64..64 {
        let lhs = AttrSet::from_bits(lhs_mask);
        for a in 0..6 {
            let fd = FunctionalDependency::new(lhs, AttrSet::singleton(a));
            let c = rel_bridge::from_functional_dependency(&fd);
            let via_fd = fd.satisfied_by(&relation);
            let via_bool =
                BooleanDependency::from_fd(lhs, AttrSet::singleton(a)).satisfied_by(&relation);
            let via_simpson = rel_bridge::simpson_satisfies(&pr, &c);
            assert_eq!(via_fd, via_bool);
            assert_eq!(via_fd, via_simpson);
        }
    }

    // Implication agreement: closure-based FD implication vs the general lattice
    // procedure on the translated constraints vs the fragment procedure.
    let premises: Vec<DiffConstraint> = planted
        .iter()
        .map(rel_bridge::from_functional_dependency)
        .collect();
    for lhs_mask in 0u64..64 {
        let lhs = AttrSet::from_bits(lhs_mask);
        for rhs_mask in 1u64..64 {
            let rhs = AttrSet::from_bits(rhs_mask);
            let fd_goal = FunctionalDependency::new(lhs, rhs);
            let constraint_goal = DiffConstraint::new(lhs, Family::single(rhs));
            let via_closure = fd::implies(&planted, &fd_goal);
            let via_general = implication::implies_lattice(&u, &premises, &constraint_goal);
            let via_fragment = fd_fragment::implies_polynomial(&premises, &constraint_goal);
            assert_eq!(
                via_closure,
                via_general,
                "closure vs general at {}",
                constraint_goal.format(&u)
            );
            assert_eq!(via_closure, via_fragment);
        }
    }
}

/// The Shannon comparison point: conditional entropy vanishes exactly on the
/// satisfied FDs (like the Simpson criterion), but its density is not
/// sign-definite — the empirical face of the paper's open problem.
#[test]
fn shannon_comparison() {
    let u = Universe::of_size(4);
    let planted = vec![FunctionalDependency::new(
        u.parse_set("A").unwrap(),
        u.parse_set("B").unwrap(),
    )];
    let relation = generator::relation_with_fds(9, 4, 40, 4, &planted);
    let pr = ProbabilisticRelation::uniform(relation.clone());
    for lhs_mask in 0u64..16 {
        let lhs = AttrSet::from_bits(lhs_mask);
        for a in 0..4 {
            let rhs = AttrSet::singleton(a);
            let fd = FunctionalDependency::new(lhs, rhs);
            let zero_cond_entropy = shannon::conditional_entropy(&pr, lhs, rhs).abs() < 1e-9;
            assert_eq!(fd.satisfied_by(&relation), zero_cond_entropy);
        }
    }
    // The entropy density of a generic relation takes negative values.
    let generic = ProbabilisticRelation::uniform(generator::random_relation(1, 4, 10, 3));
    let density = shannon::entropy_density(&generic);
    assert!(density.values().iter().any(|&v| v < -1e-9));
}
