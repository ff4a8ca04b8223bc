//! E1/E2 — soundness and completeness of the Figure 1 inference system, plus
//! the derivable Figure 2 rules, exercised end-to-end on random instances.

use diffcon::random::{ConstraintGenerator, ConstraintShape};
use diffcon::{derived_rules, implication, inference, DiffConstraint};
use setlat::{AttrSet, Family, Universe};

/// Completeness + soundness on random instances: `derive` succeeds exactly on
/// the implied goals, and every produced proof verifies and concludes the goal.
#[test]
fn derive_iff_implied_on_random_instances() {
    let u = Universe::of_size(5);
    let shape = ConstraintShape {
        max_lhs: 2,
        max_members: 3,
        max_member_size: 2,
        allow_trivial: false,
    };
    let mut derived = 0usize;
    let mut refused = 0usize;
    for seed in 0..50u64 {
        let mut gen = ConstraintGenerator::new(seed, &u);
        let premises = gen.constraint_set(4, &shape);
        for _ in 0..4 {
            let goal = if seed % 2 == 0 {
                gen.implied_goal(&premises)
            } else {
                gen.constraint(&shape)
            };
            let implied = implication::implies_lattice(&u, &premises, &goal);
            match inference::derive(&u, &premises, &goal) {
                Some(proof) => {
                    assert!(implied, "derived a non-implied goal {}", goal.format(&u));
                    assert_eq!(proof.conclusion(), &goal);
                    proof.verify(&u, &premises).expect("proof must verify");
                    // Independent soundness check through the semantic procedure.
                    assert!(implication::implies_semantic(&u, &premises, &goal));
                    derived += 1;
                }
                None => {
                    assert!(
                        !implied,
                        "failed to derive the implied goal {}",
                        goal.format(&u)
                    );
                    refused += 1;
                }
            }
        }
    }
    assert!(
        derived > 20,
        "expected a healthy number of derivations (got {derived})"
    );
    assert!(
        refused > 20,
        "expected a healthy number of refusals (got {refused})"
    );
}

/// Exhaustive completeness over a small universe: for every goal with singleton
/// members (up to two of them), derivability coincides with implication.
#[test]
fn exhaustive_completeness_small_universe() {
    let u = Universe::of_size(4);
    let premises = vec![
        DiffConstraint::parse("A -> {B}", &u).unwrap(),
        DiffConstraint::parse("BC -> {D}", &u).unwrap(),
        DiffConstraint::parse("D -> {A, C}", &u).unwrap(),
    ];
    let singletons: Vec<AttrSet> = (0..4).map(AttrSet::singleton).collect();
    for lhs_mask in 0u64..16 {
        let lhs = AttrSet::from_bits(lhs_mask);
        for i in 0..singletons.len() {
            for j in i..singletons.len() {
                let fam = Family::from_sets([singletons[i], singletons[j]]);
                let goal = DiffConstraint::new(lhs, fam);
                let implied = implication::implies_lattice(&u, &premises, &goal);
                let proof = inference::derive(&u, &premises, &goal);
                assert_eq!(implied, proof.is_some(), "mismatch at {}", goal.format(&u));
                if let Some(p) = proof {
                    p.verify(&u, &premises).unwrap();
                }
            }
        }
    }
}

/// Figure 1 rule soundness, checked semantically one rule at a time.
#[test]
fn figure_1_rules_are_sound() {
    let u = Universe::of_size(5);
    let shape = ConstraintShape::default();
    for seed in 0..30u64 {
        let mut gen = ConstraintGenerator::new(seed, &u);
        let base = gen.constraint(&shape);
        let z_set = gen.random_set(2);

        // Augmentation.
        let augmented = DiffConstraint::new(base.lhs.union(z_set), base.rhs.clone());
        assert!(implication::implies(
            &u,
            std::slice::from_ref(&base),
            &augmented
        ));

        // Addition.
        let added = DiffConstraint::new(base.lhs, base.rhs.with_member(z_set));
        assert!(implication::implies(
            &u,
            std::slice::from_ref(&base),
            &added
        ));

        // Elimination: build hypotheses explicitly.
        let fam = base.rhs.clone();
        let with_member = DiffConstraint::new(base.lhs, fam.with_member(z_set));
        let with_lhs = DiffConstraint::new(base.lhs.union(z_set), fam.clone());
        let conclusion = DiffConstraint::new(base.lhs, fam);
        assert!(implication::implies(
            &u,
            &[with_member, with_lhs],
            &conclusion
        ));

        // Triviality.
        let trivial = DiffConstraint::new(base.lhs.union(z_set), Family::single(z_set));
        assert!(implication::implies(&u, &[], &trivial));
    }
}

/// Figure 2 rules as tactics: each application yields a verified primitive-rule
/// derivation whose conclusion is also semantically implied.
#[test]
fn figure_2_rules_are_derivable_and_sound() {
    let u = Universe::of_size(5);
    let mut gen = ConstraintGenerator::new(99, &u);
    for _ in 0..20 {
        let x = gen.random_possibly_empty_set(2);
        let y = gen.random_set(2);
        let z = gen.random_set(2);
        let family = Family::single(gen.random_set(1));

        // Chain.
        let first = DiffConstraint::new(x, family.with_member(y));
        let second = DiffConstraint::new(x.union(y), family.with_member(z));
        let proof = derived_rules::chain(&u, &first, &second, &family, y, z).unwrap();
        proof.verify(&u, &[first.clone(), second.clone()]).unwrap();
        assert!(implication::implies_semantic(
            &u,
            &[first.clone(), second],
            proof.conclusion()
        ));

        // Projection and separation share the same hypothesis shape.
        let hyp = DiffConstraint::new(x, family.with_member(y.union(z)));
        let proj = derived_rules::projection(&u, &hyp, &family, y, z).unwrap();
        proj.verify(&u, std::slice::from_ref(&hyp)).unwrap();
        let sep = derived_rules::separation(&u, &hyp, &family, y, z).unwrap();
        sep.verify(&u, std::slice::from_ref(&hyp)).unwrap();

        // Transitivity.
        let t1 = DiffConstraint::new(x, family.with_member(y));
        let t2 = DiffConstraint::new(y, family.with_member(z));
        let trans = derived_rules::transitivity(&u, &t1, &t2, &family, y, z).unwrap();
        trans.verify(&u, &[t1.clone(), t2.clone()]).unwrap();
        assert!(implication::implies(&u, &[t1, t2], trans.conclusion()));

        // Union.
        let u1 = DiffConstraint::new(x, family.with_member(y));
        let u2 = DiffConstraint::new(x, family.with_member(z));
        let un = derived_rules::union(&u, &u1, &u2, &family, y, z).unwrap();
        un.verify(&u, &[u1.clone(), u2.clone()]).unwrap();
        assert!(implication::implies(&u, &[u1, u2], un.conclusion()));
    }
}

/// Proof statistics stay sane: proofs never exceed a generous bound in size and
/// always verify after round-tripping through their textual rendering context.
#[test]
fn proof_objects_are_well_behaved() {
    let u = Universe::of_size(6);
    let shape = ConstraintShape {
        max_lhs: 2,
        max_members: 3,
        max_member_size: 2,
        allow_trivial: false,
    };
    for seed in 0..20u64 {
        let mut gen = ConstraintGenerator::new(seed, &u);
        let premises = gen.constraint_set(5, &shape);
        let goal = gen.implied_goal(&premises);
        let proof = inference::derive(&u, &premises, &goal).expect("implied goals derive");
        assert!(
            proof.size() < 5_000,
            "proof unexpectedly large: {}",
            proof.size()
        );
        assert!(proof.depth() <= proof.size());
        let text = proof.format(&u);
        assert!(text.lines().count() >= 1);
        let counts = proof.rule_counts();
        assert_eq!(counts.values().sum::<usize>(), proof.size());
    }
}
