//! Witness and atomic decompositions of a constraint (Definition 4.4).
//!
//! ```text
//! decomp(X → 𝒴) = { X → W̄        | W ∈ 𝒲(𝒴) }      (W̄ = {{w} | w ∈ W})
//! atoms(X → 𝒴)  = { atom(U)      | U ∈ L(X, 𝒴) }    (atom(U) = U → {{z} | z ∈ S−U})
//! ```
//!
//! Remark 4.5 and Propositions 4.6/4.7 state that a constraint, its
//! decomposition and its atomic decomposition are equivalent — both
//! semantically (`∗`-closure) and proof-theoretically (`+`-closure).  The
//! equivalences are exercised in this module's tests via the implication and
//! inference engines.

use crate::constraint::DiffConstraint;
use setlat::{witness, AttrSet, Family, Universe};

/// The decomposition `decomp(X → 𝒴)`: one constraint `X → W̄` per witness set
/// `W ∈ 𝒲(𝒴)`, where `W̄` is the family of singletons of `W`.
///
/// A trivial constraint decomposes to the empty list (its closure is the set of
/// trivial constraints, which needs no generators — this is the convention used
/// in the proof of Proposition 4.6).
pub fn decomposition(constraint: &DiffConstraint) -> Vec<DiffConstraint> {
    if constraint.is_trivial() {
        return Vec::new();
    }
    witness::witness_sets(&constraint.rhs)
        .into_iter()
        .map(|w| DiffConstraint::new(constraint.lhs, Family::of_singletons(w)))
        .collect()
}

/// The decomposition restricted to *minimal* witness sets — a smaller set of
/// constraints with the same closure (every witness contains a minimal one, and
/// `X → W̄` for a larger witness follows by the addition rule).
pub fn minimal_decomposition(constraint: &DiffConstraint) -> Vec<DiffConstraint> {
    if constraint.is_trivial() {
        return Vec::new();
    }
    witness::minimal_witness_sets(&constraint.rhs)
        .into_iter()
        .map(|w| DiffConstraint::new(constraint.lhs, Family::of_singletons(w)))
        .collect()
}

/// The atomic decomposition `atoms(X → 𝒴)`: one atomic constraint
/// `atom(U) = U → {{z} | z ∈ S − U}` per `U ∈ L(X, 𝒴)`.
pub fn atomic_decomposition(
    constraint: &DiffConstraint,
    universe: &Universe,
) -> Vec<DiffConstraint> {
    constraint
        .lattice(universe)
        .into_iter()
        .map(|u_set| DiffConstraint::atom(u_set, universe))
        .collect()
}

/// The atomic decomposition of a whole constraint set: one atomic constraint
/// per member of `L(C)`.
pub fn atomic_decomposition_of_set(
    constraints: &[DiffConstraint],
    universe: &Universe,
) -> Vec<DiffConstraint> {
    let mut members: Vec<AttrSet> = constraints
        .iter()
        .flat_map(|c| c.lattice(universe))
        .collect();
    members.sort();
    members.dedup();
    members
        .into_iter()
        .map(|u_set| DiffConstraint::atom(u_set, universe))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication::{equivalent_sets, implies_lattice};
    use crate::inference;

    fn u() -> Universe {
        Universe::of_size(4)
    }

    #[test]
    fn worked_example_after_definition_4_4() {
        // decomp(A → {B, CD}) = {A → {B,C}, A → {B,D}, A → {B,C,D}}
        // atoms(A → {B, CD})  = {A → {B,C,D}, AC → {B,D}, AD → {B,C}}
        let u = u();
        let c = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();

        let mut decomp = decomposition(&c);
        decomp.sort();
        let mut expected: Vec<DiffConstraint> = ["A -> {B, C}", "A -> {B, D}", "A -> {B, C, D}"]
            .iter()
            .map(|t| DiffConstraint::parse(t, &u).unwrap())
            .collect();
        expected.sort();
        assert_eq!(decomp, expected);

        let mut atoms = atomic_decomposition(&c, &u);
        atoms.sort();
        let mut expected: Vec<DiffConstraint> = ["A -> {B, C, D}", "AC -> {B, D}", "AD -> {B, C}"]
            .iter()
            .map(|t| DiffConstraint::parse(t, &u).unwrap())
            .collect();
        expected.sort();
        assert_eq!(atoms, expected);
    }

    #[test]
    fn remark_4_5_semantic_equivalence() {
        // {X → 𝒴}* = decomp(X → 𝒴)* = atoms(X → 𝒴)*.
        let u = u();
        for text in ["A -> {B, CD}", "A -> {BC, BD}", " -> {A, B}", "AB -> {C}"] {
            let c = DiffConstraint::parse(text, &u).unwrap();
            let singleton = vec![c.clone()];
            let decomp = decomposition(&c);
            let atoms = atomic_decomposition(&c, &u);
            assert!(
                equivalent_sets(&u, &singleton, &decomp),
                "decomp differs for {text}"
            );
            assert!(
                equivalent_sets(&u, &singleton, &atoms),
                "atoms differ for {text}"
            );
            assert!(equivalent_sets(&u, &decomp, &atoms));
        }
    }

    #[test]
    fn proposition_4_6_and_4_7_proof_theoretic_equivalence() {
        // The derivations exist in both directions (via the completeness engine,
        // which only uses Figure 1 rules).
        let u = u();
        let c = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();
        let decomp = decomposition(&c);
        let atoms = atomic_decomposition(&c, &u);

        // {X → 𝒴} ⊢ each element of decomp and atoms.
        for d in decomp.iter().chain(atoms.iter()) {
            let proof = inference::derive(&u, std::slice::from_ref(&c), d)
                .unwrap_or_else(|| panic!("{} not derivable from the constraint", d.format(&u)));
            proof.verify(&u, std::slice::from_ref(&c)).unwrap();
        }
        // decomp ⊢ X → 𝒴 and atoms ⊢ X → 𝒴.
        let from_decomp = inference::derive(&u, &decomp, &c).expect("derivable from decomp");
        from_decomp.verify(&u, &decomp).unwrap();
        let from_atoms = inference::derive(&u, &atoms, &c).expect("derivable from atoms");
        from_atoms.verify(&u, &atoms).unwrap();
    }

    #[test]
    fn trivial_constraints_decompose_to_nothing() {
        let u = u();
        let t = DiffConstraint::parse("AB -> {B, CD}", &u).unwrap();
        assert!(decomposition(&t).is_empty());
        assert!(atomic_decomposition(&t, &u).is_empty());
        assert!(minimal_decomposition(&t).is_empty());
    }

    #[test]
    fn minimal_decomposition_is_equivalent_but_smaller() {
        let u = u();
        let c = DiffConstraint::parse("A -> {BC, BD}", &u).unwrap();
        let full = decomposition(&c);
        let minimal = minimal_decomposition(&c);
        assert!(minimal.len() <= full.len());
        assert!(equivalent_sets(&u, &minimal, &full));
        assert!(equivalent_sets(&u, &minimal, &[c]));
    }

    #[test]
    fn atoms_of_a_set_cover_each_member() {
        let u = u();
        let constraints = vec![
            DiffConstraint::parse("A -> {B}", &u).unwrap(),
            DiffConstraint::parse("B -> {C, D}", &u).unwrap(),
        ];
        let atoms = atomic_decomposition_of_set(&constraints, &u);
        // The atomic set is equivalent to the original set.
        assert!(equivalent_sets(&u, &constraints, &atoms));
        // And each atom is implied by the original set.
        for a in &atoms {
            assert!(implies_lattice(&u, &constraints, a));
        }
    }

    #[test]
    fn witness_constraints_have_singleton_lattices() {
        // Remark 4.5: 𝒲(W̄) = {W}, so L(X, W̄) = [X, W̄-complement]… in particular the
        // decomposition members have lattices that are intervals; here we just check
        // each decomposition member is nontrivial and its lattice is nonempty.
        let u = u();
        let c = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();
        for d in decomposition(&c) {
            assert!(!d.is_trivial());
            assert!(!d.lattice(&u).is_empty());
        }
    }
}
