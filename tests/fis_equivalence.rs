//! E5/E6 — Section 6: the FIS bridge on generated basket data, and the
//! concise-representation pipeline end-to-end.

use diffcon::random::{ConstraintGenerator, ConstraintShape};
use diffcon::{fis_bridge, implication, DiffConstraint};
use fis::basket::BasketDb;
use fis::condensed::{CondensedRepresentation, DerivedStatus};
use fis::generator::{self, QuestConfig};
use fis::{apriori, border, eclat, support};
use setlat::{AttrSet, Universe};

/// Proposition 6.3 on random databases and random constraints: disjunctive
/// satisfaction ⇔ support-function satisfaction.
#[test]
fn proposition_6_3_on_random_data() {
    let u = Universe::of_size(6);
    let shape = ConstraintShape {
        max_lhs: 2,
        max_members: 2,
        max_member_size: 2,
        allow_trivial: true,
    };
    for seed in 0..15u64 {
        let db = generator::uniform_random(seed, 6, 40, 0.35);
        let s = support::support_function(&db);
        let mut gen = ConstraintGenerator::new(seed * 7 + 1, &u);
        for _ in 0..8 {
            let c = gen.constraint(&shape);
            let via_db = fis_bridge::to_disjunctive(&c).satisfied_by(&db);
            let via_fn = diffcon::semantics::satisfies(&s, &c);
            assert_eq!(
                via_db,
                via_fn,
                "Prop 6.3 mismatch for {} (seed {seed})",
                c.format(&u)
            );
        }
    }
}

/// Proposition 6.4 on random instances: implication over all functions, over
/// support functions, and of the disjunctive translations coincide.
#[test]
fn proposition_6_4_on_random_instances() {
    let u = Universe::of_size(5);
    let shape = ConstraintShape::default();
    for seed in 0..30u64 {
        let mut gen = ConstraintGenerator::new(seed, &u);
        let premises = gen.constraint_set(3, &shape);
        let goal = if seed % 2 == 0 {
            gen.implied_goal(&premises)
        } else {
            gen.constraint(&shape)
        };
        let general = implication::implies_lattice(&u, &premises, &goal);
        assert_eq!(
            general,
            fis_bridge::implies_over_supports(&u, &premises, &goal)
        );
        let disj: Vec<_> = premises.iter().map(fis_bridge::to_disjunctive).collect();
        assert_eq!(
            general,
            fis_bridge::disjunctive_implies(&u, &disj, &fis_bridge::to_disjunctive(&goal))
        );
    }
}

/// Planted constraints are discovered back: a database repaired to satisfy a
/// constraint set satisfies every constraint the set implies (soundness of the
/// inference system "in the data").
#[test]
fn planted_constraints_and_their_consequences_hold_in_the_data() {
    let u = Universe::of_size(6);
    let planted = vec![
        DiffConstraint::parse("A -> {B, CD}", &u).unwrap(),
        DiffConstraint::parse("B -> {E}", &u).unwrap(),
    ];
    let base = generator::uniform_random(5, 6, 80, 0.3);
    let db = generator::with_planted_rules(
        &base,
        &planted
            .iter()
            .map(fis_bridge::to_disjunctive)
            .collect::<Vec<_>>(),
    );
    for c in &planted {
        assert!(fis_bridge::support_function_satisfies(&db, c));
    }
    // Consequences: augmentation, addition, and a transitivity-style composite.
    let consequences = ["AF -> {B, CD}", "A -> {B, CD, E}", "A -> {BE, CD}"];
    for text in consequences {
        let goal = DiffConstraint::parse(text, &u).unwrap();
        assert!(
            implication::implies_lattice(&u, &planted, &goal),
            "{text} should be implied by the planted constraints"
        );
        assert!(
            fis_bridge::support_function_satisfies(&db, &goal),
            "{text} should hold in the planted database"
        );
    }
}

/// Apriori, Eclat, brute force and the borders all tell the same story on a
/// Quest-style workload, and the condensed representation reproduces every
/// support exactly.
#[test]
fn mining_pipeline_consistency() {
    let config = QuestConfig {
        num_items: 9,
        num_baskets: 120,
        num_patterns: 5,
        avg_pattern_len: 3,
        patterns_per_basket: 2,
        noise_prob: 0.05,
    };
    let db = generator::quest_like(31, &config);
    let u = Universe::of_size(9);
    for kappa in [12usize, 30, 60] {
        let a = apriori::apriori(&db, kappa);
        let e = eclat::eclat(&db, kappa);
        let brute = apriori::frequent_itemsets_bruteforce(&db, kappa);
        assert_eq!(a.frequent, e);
        assert_eq!(a.frequent, brute);
        assert_eq!(a.negative_border, border::negative_border(&db, kappa));

        let neg = border::negative_border(&db, kappa);
        let pos = border::positive_border(&db, kappa);
        let repr = CondensedRepresentation::build(&db, kappa);
        for x in u.all_subsets() {
            let truth = db.support(x) >= kappa;
            assert_eq!(border::is_frequent_by_negative_border(&neg, x), truth);
            assert_eq!(border::is_frequent_by_positive_border(&pos, x), truth);
            match repr.derive(x) {
                DerivedStatus::Frequent(s) => {
                    assert!(truth);
                    assert_eq!(s, db.support(x));
                }
                DerivedStatus::Infrequent => assert!(!truth),
            }
        }
    }
}

/// The concise-representation savings claimed in Section 6.1.1 materialize on
/// correlated data: FDFree is strictly smaller than the set of frequent
/// itemsets, while remaining a lossless representation.
#[test]
fn condensed_representation_saves_space_on_correlated_data() {
    let u = Universe::of_size(8);
    // Strong structure: B accompanies A, D accompanies C.
    let planted = [
        DiffConstraint::parse("A -> {B}", &u).unwrap(),
        DiffConstraint::parse("C -> {D}", &u).unwrap(),
    ];
    let base = generator::uniform_random(13, 8, 150, 0.4);
    let db: BasketDb = generator::with_planted_rules(
        &base,
        &planted
            .iter()
            .map(fis_bridge::to_disjunctive)
            .collect::<Vec<_>>(),
    );
    let kappa = 15;
    let frequent = border::count_frequent(&db, kappa);
    let repr = CondensedRepresentation::build(&db, kappa);
    assert!(
        repr.fdfree.len() < frequent,
        "FDFree ({}) should be smaller than the frequent collection ({frequent})",
        repr.fdfree.len()
    );
    // Lossless.
    for x in u.all_subsets() {
        match repr.derive(x) {
            DerivedStatus::Frequent(s) => assert_eq!(s, db.support(x)),
            DerivedStatus::Infrequent => assert!(db.support(x) < kappa),
        }
    }
}

/// The inference system prunes provably-disjunctive itemsets (the paper's
/// {A,C,D} observation) and never claims a non-disjunctive itemset.
#[test]
fn inference_based_pruning_is_sound() {
    let u = Universe::of_size(5);
    let known = vec![
        DiffConstraint::parse("A -> {B, D}", &u).unwrap(),
        DiffConstraint::parse("B -> {C, D}", &u).unwrap(),
    ];
    let base = generator::uniform_random(23, 5, 90, 0.45);
    let db = generator::with_planted_rules(
        &base,
        &known
            .iter()
            .map(fis_bridge::to_disjunctive)
            .collect::<Vec<_>>(),
    );
    let inferable = fis_bridge::inferable_disjunctive_itemsets(&u, &known);
    assert!(inferable.contains(&u.parse_set("ACD").unwrap()));
    for w in inferable {
        assert!(
            fis::disjunctive::is_disjunctive(&db, w, 3),
            "inference claimed {} is disjunctive but the data disagrees",
            u.format_set(w)
        );
    }
    // Negative control: with no known constraints nothing is inferable.
    assert!(fis_bridge::inferable_disjunctive_itemsets(&u, &[]).is_empty());
    let _ = AttrSet::EMPTY;
}
