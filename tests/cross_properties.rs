//! Property-based tests spanning the whole workspace: the bridges and decision
//! procedures must agree on arbitrary randomly-generated inputs, not just the
//! curated cases of the other integration tests.

use diffcon::{fis_bridge, implication, inference, prop_bridge, rel_bridge, DiffConstraint};
use fis::basket::BasketDb;
use proptest::prelude::*;
use relational::distribution::ProbabilisticRelation;
use relational::relation::Relation;
use setlat::{mobius, AttrSet, Family, SetFunction, Universe};

const N: usize = 5;

fn universe() -> Universe {
    Universe::of_size(N)
}

fn arb_set() -> impl Strategy<Value = AttrSet> {
    (0u64..(1u64 << N)).prop_map(AttrSet::from_bits)
}

fn arb_nonempty_set() -> impl Strategy<Value = AttrSet> {
    (1u64..(1u64 << N)).prop_map(AttrSet::from_bits)
}

fn arb_constraint() -> impl Strategy<Value = DiffConstraint> {
    (
        arb_set(),
        proptest::collection::vec(arb_nonempty_set(), 0..=2),
    )
        .prop_map(|(lhs, members)| DiffConstraint::new(lhs, Family::from_sets(members)))
}

fn arb_constraint_set(max: usize) -> impl Strategy<Value = Vec<DiffConstraint>> {
    proptest::collection::vec(arb_constraint(), 0..=max)
}

fn arb_baskets() -> impl Strategy<Value = BasketDb> {
    proptest::collection::vec(arb_set(), 0..20)
        .prop_map(|baskets| BasketDb::from_baskets(N, baskets))
}

fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(0u32..3, N), 1..12)
        .prop_map(|tuples| Relation::from_tuples(N, tuples))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 3.5 + Theorem 4.8: lattice implication, semantic implication and
    /// derivability coincide; produced proofs verify.
    #[test]
    fn implication_procedures_agree(premises in arb_constraint_set(3), goal in arb_constraint()) {
        let u = universe();
        let lattice = implication::implies_lattice(&u, &premises, &goal);
        prop_assert_eq!(lattice, implication::implies_semantic(&u, &premises, &goal));
        prop_assert_eq!(lattice, prop_bridge::implies_sat(&u, &premises, &goal));
        match inference::derive(&u, &premises, &goal) {
            Some(proof) => {
                prop_assert!(lattice);
                prop_assert!(proof.verify(&u, &premises).is_ok());
                prop_assert_eq!(proof.conclusion(), &goal);
            }
            None => prop_assert!(!lattice),
        }
    }

    /// Proposition 6.3 on arbitrary basket databases and constraints.
    #[test]
    fn disjunctive_satisfaction_matches_support_semantics(db in arb_baskets(), c in arb_constraint()) {
        let disj = fis_bridge::to_disjunctive(&c).satisfied_by(&db);
        let dense = diffcon::semantics::satisfies(&fis_bridge::support_function(&db), &c);
        let shortcut = fis_bridge::support_function_satisfies(&db, &c);
        prop_assert_eq!(disj, dense);
        prop_assert_eq!(disj, shortcut);
    }

    /// Proposition 7.3 on arbitrary relations and constraints (uniform distribution).
    #[test]
    fn boolean_satisfaction_matches_simpson_semantics(r in arb_relation(), c in arb_constraint()) {
        let pr = ProbabilisticRelation::uniform(r.clone());
        let via_bool = rel_bridge::to_boolean_dependency(&c).satisfied_by(&r);
        let via_simpson = rel_bridge::simpson_satisfies(&pr, &c);
        prop_assert_eq!(via_bool, via_simpson);
    }

    /// Satisfaction is preserved by implication: if f satisfies C and C ⊨ goal,
    /// then f satisfies goal (on arbitrary dense functions).
    #[test]
    fn satisfaction_closed_under_implication(
        values in proptest::collection::vec(-3.0f64..3.0, 1usize << N),
        premises in arb_constraint_set(2),
        goal in arb_constraint(),
    ) {
        let u = universe();
        let f = SetFunction::from_values(N, values);
        if diffcon::semantics::satisfies_all(&f, &premises)
            && implication::implies_lattice(&u, &premises, &goal)
        {
            prop_assert!(diffcon::semantics::satisfies(&f, &goal));
        }
    }

    /// Frequency functions: for nonnegative densities the two satisfaction
    /// semantics coincide (the positive(S) part of Proposition 6.4 / Remark 3.6).
    #[test]
    fn semantics_coincide_on_frequency_functions(
        density_values in proptest::collection::vec(0.0f64..3.0, 1usize << N),
        c in arb_constraint(),
    ) {
        let density = SetFunction::from_values(N, density_values);
        let f = mobius::from_density(&density);
        prop_assert_eq!(
            diffcon::semantics::satisfies(&f, &c),
            diffcon::semantics::satisfies_differential(&f, &c)
        );
    }

    /// The support function of a basket database always satisfies every
    /// constraint implied by the constraints it satisfies (soundness of
    /// implication "in the data").
    #[test]
    fn implied_constraints_hold_in_the_data(db in arb_baskets(), premises in arb_constraint_set(2), goal in arb_constraint()) {
        let u = universe();
        let all_premises_hold = premises.iter().all(|p| fis_bridge::support_function_satisfies(&db, p));
        if all_premises_hold && implication::implies_lattice(&u, &premises, &goal) {
            prop_assert!(fis_bridge::support_function_satisfies(&db, &goal));
        }
    }

    /// Counterexample bundles really separate premises from goal in all worlds.
    #[test]
    fn counterexamples_separate(premises in arb_constraint_set(2), goal in arb_constraint()) {
        let u = universe();
        if let Some(ce) = diffcon::counterexample::find(&u, &premises, &goal) {
            prop_assert!(!implication::implies_lattice(&u, &premises, &goal));
            prop_assert!(diffcon::semantics::satisfies_all(&ce.function, &premises));
            prop_assert!(!diffcon::semantics::satisfies(&ce.function, &goal));
            for p in &premises {
                prop_assert!(fis_bridge::support_function_satisfies(&ce.baskets, p));
            }
            prop_assert!(!fis_bridge::support_function_satisfies(&ce.baskets, &goal));
            // The relational witness exists unless some premise has an empty
            // right-hand side (the simpson(S)-vacuous corner).
            match &ce.relation {
                Some(relation) => {
                    for p in &premises {
                        prop_assert!(rel_bridge::simpson_satisfies(relation, p));
                    }
                    prop_assert!(!rel_bridge::simpson_satisfies(relation, &goal));
                }
                None => prop_assert!(rel_bridge::vacuous_over_relations(&premises)),
            }
        } else {
            prop_assert!(implication::implies_lattice(&u, &premises, &goal));
        }
    }
}
