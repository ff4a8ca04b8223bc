//! The propositional-logic bridge (Section 5) and the coNP-hardness reduction.
//!
//! Each differential constraint `X → 𝒴` translates to the implication
//! constraint `X ⇒prop 𝒴`, i.e. the formula `⋀X ⇒ ⋁_{Y∈𝒴} ⋀Y`.
//! Proposition 5.3: `negminset(X ⇒prop 𝒴) = L(X, 𝒴)`.
//! Proposition 5.4: `C ⊨ X → 𝒴  ⇔  Cprop ⊨ X ⇒prop 𝒴`.
//! Proposition 5.5: the implication problem is coNP-complete, by reduction from
//! DNF tautology; [`dnf_tautology_to_implication`] implements that reduction.

use crate::constraint::DiffConstraint;
use proplogic::dnf::Dnf;
use proplogic::implication::ImplicationConstraint;
use setlat::{AttrSet, Family, Universe};

/// Translates a differential constraint to its implication constraint
/// `X ⇒prop 𝒴`.
pub fn to_implication_constraint(constraint: &DiffConstraint) -> ImplicationConstraint {
    ImplicationConstraint::new(constraint.lhs, constraint.rhs.clone())
}

/// Translates an implication constraint back to a differential constraint.
pub fn from_implication_constraint(constraint: &ImplicationConstraint) -> DiffConstraint {
    DiffConstraint::new(constraint.lhs, constraint.rhs.clone())
}

/// Decides `C ⊨ goal` through the propositional translation and the DPLL SAT
/// solver (Proposition 5.4 + refutation).  Agrees with
/// [`crate::implication::implies_lattice`] on every instance; its running
/// time scales with the difficulty of the underlying SAT refutation rather
/// than with `2^{|S|−|X|}`, which is what the coNP experiments contrast.
pub fn implies_sat(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> bool {
    let premises_prop: Vec<ImplicationConstraint> =
        premises.iter().map(to_implication_constraint).collect();
    to_implication_constraint(goal).implied_by_sat(&premises_prop, universe)
}

/// Decides `C ⊨ goal` by exhaustive propositional evaluation (minset
/// containment) — the reference implementation of Proposition 5.4.
pub fn implies_prop_exhaustive(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> bool {
    let premises_prop: Vec<ImplicationConstraint> =
        premises.iter().map(to_implication_constraint).collect();
    to_implication_constraint(goal).implied_by_exhaustive(&premises_prop, universe)
}

/// The coNP-hardness reduction of Proposition 5.5: given a DNF formula
/// `φ = ⋁_ψ (⋀P_ψ ∧ ⋀_{q∈Q_ψ} ¬q)`, produce the constraint set
/// `C_φ = { P_ψ → {{q} | q ∈ Q_ψ} }` and the goal `∅ → ∅` such that
///
/// `φ is a tautology  ⇔  C_φ ⊨ ∅ → ∅`.
pub fn dnf_tautology_to_implication(dnf: &Dnf) -> (Vec<DiffConstraint>, DiffConstraint) {
    let premises: Vec<DiffConstraint> = dnf
        .terms
        .iter()
        .map(|term| {
            DiffConstraint::new(
                term.positive,
                Family::from_sets(term.negative.iter().map(AttrSet::singleton)),
            )
        })
        .collect();
    let goal = DiffConstraint::new(AttrSet::EMPTY, Family::empty());
    (premises, goal)
}

/// Decides DNF tautology *through* the differential-constraint implication
/// problem (the reduction run forwards) — used to validate Proposition 5.5.
pub fn dnf_is_tautology_via_constraints(dnf: &Dnf, universe: &Universe) -> bool {
    let (premises, goal) = dnf_tautology_to_implication(dnf);
    crate::implication::implies(universe, &premises, &goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication;
    use proplogic::dnf::DnfTerm;
    use proplogic::tautology;

    fn u() -> Universe {
        Universe::of_size(4)
    }

    fn parse(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    #[test]
    fn proposition_5_3_negminset_is_lattice() {
        let u = u();
        for text in [
            "A -> {B, CD}",
            "A -> {BC, BD}",
            " -> {}",
            "AB -> {C}",
            "A -> {A}",
        ] {
            let c = DiffConstraint::parse(text, &u).unwrap();
            let mut neg = to_implication_constraint(&c).negminset(&u);
            neg.sort();
            assert_eq!(neg, c.lattice(&u), "Prop 5.3 failed for {text}");
        }
    }

    #[test]
    fn proposition_5_4_all_procedures_agree() {
        let u = u();
        let premise_sets = vec![
            parse(&u, &["A -> {B}", "B -> {C}"]),
            parse(&u, &["A -> {BC, CD}", "C -> {D}"]),
            parse(&u, &["A -> {B, CD}"]),
            vec![],
        ];
        let goals = parse(
            &u,
            &[
                "A -> {C}",
                "AB -> {D}",
                "A -> {B}",
                "C -> {A}",
                "A -> {B, CD}",
                "AB -> {B}",
                "A -> {}",
            ],
        );
        for premises in &premise_sets {
            for goal in &goals {
                let lattice = implication::implies_lattice(&u, premises, goal);
                let sat = implies_sat(&u, premises, goal);
                let exhaustive = implies_prop_exhaustive(&u, premises, goal);
                assert_eq!(
                    lattice,
                    sat,
                    "lattice vs SAT disagree on {}",
                    goal.format(&u)
                );
                assert_eq!(
                    lattice,
                    exhaustive,
                    "lattice vs exhaustive-prop disagree on {}",
                    goal.format(&u)
                );
            }
        }
    }

    #[test]
    fn round_trip_translation() {
        let u = u();
        let c = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();
        let back = from_implication_constraint(&to_implication_constraint(&c));
        assert_eq!(c, back);
    }

    #[test]
    fn proposition_5_5_reduction_on_tautologies() {
        let u = Universe::of_size(3);
        // x ∨ ¬x  (over variable A).
        let taut = Dnf::new([
            DnfTerm::new(AttrSet::from_indices([0]), AttrSet::EMPTY),
            DnfTerm::new(AttrSet::EMPTY, AttrSet::from_indices([0])),
        ]);
        assert!(taut.is_tautology_exhaustive(&u));
        assert!(dnf_is_tautology_via_constraints(&taut, &u));

        // x ∨ y is not a tautology.
        let not_taut = Dnf::new([
            DnfTerm::new(AttrSet::from_indices([0]), AttrSet::EMPTY),
            DnfTerm::new(AttrSet::from_indices([1]), AttrSet::EMPTY),
        ]);
        assert!(!not_taut.is_tautology_exhaustive(&u));
        assert!(!dnf_is_tautology_via_constraints(&not_taut, &u));
    }

    #[test]
    fn proposition_5_5_reduction_on_random_dnfs() {
        // Cross-check the reduction against both the exhaustive DNF-tautology check
        // and the SAT-based one, on deterministic pseudo-random instances.
        let u = Universe::of_size(4);
        let mut state: u64 = 0xDEADBEEF;
        for _ in 0..50 {
            let mut terms = Vec::new();
            for _ in 0..3 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let pos = AttrSet::from_bits((state >> 13) & 0xF);
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let neg = AttrSet::from_bits((state >> 29) & 0xF).difference(pos);
                terms.push(DnfTerm::new(pos, neg));
            }
            let dnf = Dnf::new(terms);
            let truth = dnf.is_tautology_exhaustive(&u);
            assert_eq!(truth, tautology::dnf_is_tautology(&dnf, &u));
            assert_eq!(
                truth,
                dnf_is_tautology_via_constraints(&dnf, &u),
                "reduction disagrees on {dnf:?}"
            );
        }
    }

    #[test]
    fn empty_goal_meaning() {
        // ∅ → ∅ states that the density vanishes everywhere, i.e. f ≡ 0; it is
        // implied only by constraint sets whose lattices cover all of 2^S.
        let u = Universe::of_size(2);
        let goal = DiffConstraint::new(AttrSet::EMPTY, Family::empty());
        assert!(!implication::implies_lattice(&u, &[], &goal));
        let covering = parse(&u, &[" -> {A}", " -> {B}", "AB -> {}"]);
        // L(∅,{A}) = {∅, B}; L(∅,{B}) = {∅, A}; L(AB, ∅) = {AB}.  Missing: nothing?
        // 2^S = {∅, A, B, AB} — all covered, so the goal is implied.
        assert!(implication::implies_lattice(&u, &covering, &goal));
        assert!(implies_sat(&u, &covering, &goal));
    }
}
