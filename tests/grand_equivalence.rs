//! E8 — Theorem 8.1: all formulations of the implication problem agree.
//!
//! For randomly generated premise sets `C` and goals `X → 𝒴` over small
//! universes, the following verdicts must coincide:
//!
//! 1. `C ⊨ X → 𝒴` (lattice procedure, Theorem 3.5);
//! 2. `C ⊨_positive(S)/support(S) X → 𝒴` (single-basket counterexamples, Prop. 6.4);
//! 3. `C ⊨_simpson(S) X → 𝒴` (Armstrong-style relation, Cor. 7.4);
//! 4. `Cprop ⊨ X ⇒prop 𝒴` (SAT refutation and exhaustive minsets, Prop. 5.4);
//! 5. `Cdisj ⊨ X ⇒disj 𝒴` (disjunctive formulation);
//! 6. `Cboolean ⊨ X ⇒bool 𝒴` (boolean-dependency formulation);
//! 7. `C ⊢ X → 𝒴` (the inference system, Theorem 4.8);
//! 8. `L(C) ⊇ L(X, 𝒴)` materialized explicitly;
//! 9. the purely semantic procedure over point-mass counterexamples.

use diffcon::random::{random_instance, ConstraintShape};
use diffcon::{fis_bridge, implication, inference, prop_bridge, rel_bridge, DiffConstraint};
use setlat::{lattice, Universe};

fn all_verdicts(
    u: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> Vec<(&'static str, bool)> {
    let parts: Vec<(setlat::AttrSet, setlat::Family)> =
        premises.iter().map(|c| (c.lhs, c.rhs.clone())).collect();
    let lc = lattice::lattice_union(u, &parts);
    let explicit_containment = goal.lattice(u).iter().all(|m| lc.binary_search(m).is_ok());
    let disj_premises: Vec<_> = premises.iter().map(fis_bridge::to_disjunctive).collect();
    let bool_premises: Vec<_> = premises
        .iter()
        .map(rel_bridge::to_boolean_dependency)
        .collect();
    vec![
        (
            "lattice (Thm 3.5)",
            implication::implies_lattice(u, premises, goal),
        ),
        (
            "semantic point-mass",
            implication::implies_semantic(u, premises, goal),
        ),
        (
            "support(S) (Prop 6.4)",
            fis_bridge::implies_over_supports(u, premises, goal),
        ),
        (
            "propositional SAT (Prop 5.4)",
            prop_bridge::implies_sat(u, premises, goal),
        ),
        (
            "propositional exhaustive",
            prop_bridge::implies_prop_exhaustive(u, premises, goal),
        ),
        (
            "disjunctive implication",
            fis_bridge::disjunctive_implies(u, &disj_premises, &fis_bridge::to_disjunctive(goal)),
        ),
        (
            "boolean-dependency implication",
            rel_bridge::boolean_implies(
                u,
                &bool_premises,
                &rel_bridge::to_boolean_dependency(goal),
            ),
        ),
        (
            "inference system (Thm 4.8)",
            inference::derivable(u, premises, goal),
        ),
        ("explicit L(C) ⊇ L(X,𝒴)", explicit_containment),
    ]
}

#[test]
fn theorem_8_1_on_random_instances() {
    let u = Universe::of_size(5);
    let shape = ConstraintShape {
        max_lhs: 2,
        max_members: 2,
        max_member_size: 2,
        allow_trivial: false,
    };
    let mut implied_count = 0;
    let mut refuted_count = 0;
    for seed in 0..60u64 {
        let (premises, goal) = random_instance(seed, &u, 3, &shape, 0.5);
        let verdicts = all_verdicts(&u, &premises, &goal);
        let reference = verdicts[0].1;
        for (name, verdict) in &verdicts {
            assert_eq!(
                *verdict, reference,
                "seed {seed}: procedure {name:?} disagrees with the lattice procedure \
                 (premises {premises:?}, goal {goal:?})"
            );
        }
        // simpson(S) agrees with everything else except in the vacuous corner
        // where some premise has an empty right-hand side (no Simpson model
        // exists and the implication holds vacuously) — the one caveat to the
        // paper's Theorem 8.1 this reproduction records in EXPERIMENTS.md.
        let simpson = rel_bridge::implies_over_simpson(&u, &premises, &goal);
        if rel_bridge::vacuous_over_relations(&premises) {
            assert!(simpson, "vacuous simpson implication must hold");
        } else {
            assert_eq!(simpson, reference, "seed {seed}: simpson(S) disagrees");
        }
        if reference {
            implied_count += 1;
        } else {
            refuted_count += 1;
        }
    }
    assert!(
        implied_count > 5,
        "workload should contain implied instances"
    );
    assert!(
        refuted_count > 5,
        "workload should contain refuted instances"
    );
}

#[test]
fn theorem_8_1_on_paper_instances() {
    let u = Universe::of_size(4);
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["A -> {B}", "B -> {C}"], "A -> {C}"),
        (vec!["A -> {B}", "B -> {C}"], "C -> {A}"),
        (vec!["A -> {BC, CD}", "C -> {D}"], "AB -> {D}"),
        (vec!["A -> {B, CD}"], "A -> {B}"),
        (vec!["A -> {B, CD}"], "AC -> {B, D}"),
        (vec![], "AB -> {B}"),
        (vec![], "A -> {}"),
        (vec![" -> {A}", " -> {B}", "AB -> {}"], " -> {}"),
    ];
    for (premise_texts, goal_text) in cases {
        let premises: Vec<DiffConstraint> = premise_texts
            .iter()
            .map(|t| DiffConstraint::parse(t, &u).unwrap())
            .collect();
        let goal = DiffConstraint::parse(goal_text, &u).unwrap();
        let verdicts = all_verdicts(&u, &premises, &goal);
        let reference = verdicts[0].1;
        for (name, verdict) in &verdicts {
            assert_eq!(
                *verdict, reference,
                "procedure {name:?} disagrees on {goal_text} from {premise_texts:?}"
            );
        }
        let simpson = rel_bridge::implies_over_simpson(&u, &premises, &goal);
        if rel_bridge::vacuous_over_relations(&premises) {
            assert!(simpson);
        } else {
            assert_eq!(simpson, reference, "simpson(S) disagrees on {goal_text}");
        }
    }
}

#[test]
fn fragment_instances_also_agree_with_polynomial_procedure() {
    // For single-member instances the FD-fragment procedure joins the party.
    use diffcon::fd_fragment;
    let u = Universe::of_size(6);
    let shape = ConstraintShape {
        max_lhs: 2,
        max_members: 1,
        max_member_size: 2,
        allow_trivial: false,
    };
    for seed in 100..140u64 {
        let (premises, goal) = random_instance(seed, &u, 4, &shape, 0.4);
        if !fd_fragment::set_in_fragment(&premises) || !fd_fragment::in_fragment(&goal) {
            continue;
        }
        let general = implication::implies_lattice(&u, &premises, &goal);
        assert_eq!(general, fd_fragment::implies_polynomial(&premises, &goal));
        assert_eq!(general, prop_bridge::implies_sat(&u, &premises, &goal));
        assert_eq!(general, inference::derivable(&u, &premises, &goal));
    }
}
