//! The polynomial-time fragment: single-member right-hand sides.
//!
//! The conclusion of the paper observes that when every right-hand side
//! contains exactly one member (`X → {Y}`), the implication problem for
//! differential constraints is equivalent to the implication problem for
//! functional dependencies — hence decidable in polynomial time via attribute
//! closure, in stark contrast to the coNP-complete general case.
//!
//! This module implements the fragment: translation to FDs, the closure-based
//! decision procedure, and helpers to check whether a constraint set lies in
//! the fragment.  The equivalence with the general (exponential) procedure is
//! verified in the tests and measured by the `bench_fd_fragment` benchmark.

use crate::constraint::DiffConstraint;
use relational::fd::{self, FunctionalDependency};
use setlat::{AttrSet, Family, Universe};

/// Returns `true` iff the constraint lies in the fragment: its right-hand side
/// has exactly one member.
pub fn in_fragment(constraint: &DiffConstraint) -> bool {
    constraint.is_single_member()
}

/// Returns `true` iff every constraint of the set lies in the fragment.
pub fn set_in_fragment(constraints: &[DiffConstraint]) -> bool {
    constraints.iter().all(in_fragment)
}

/// Translates a single-member constraint `X → {Y}` into the FD `X → Y`.
///
/// Returns `None` when the constraint is not in the fragment.
pub fn to_fd(constraint: &DiffConstraint) -> Option<FunctionalDependency> {
    if !in_fragment(constraint) {
        return None;
    }
    let member = constraint.rhs.members()[0];
    Some(FunctionalDependency::new(constraint.lhs, member))
}

/// Translates an FD `X → Y` into the single-member constraint `X → {Y}`.
pub fn from_fd(fd: &FunctionalDependency) -> DiffConstraint {
    DiffConstraint::new(fd.lhs, Family::single(fd.rhs))
}

/// Decides implication inside the fragment in polynomial time, via attribute
/// closure: `C ⊨ X → {Y}` iff `Y ⊆ X⁺` under the translated FD set.
///
/// # Panics
/// Panics if a premise or the goal is not in the fragment; callers should check
/// with [`set_in_fragment`] / [`in_fragment`] first (the general procedure in
/// [`crate::implication`] handles arbitrary constraints).
pub fn implies_polynomial(premises: &[DiffConstraint], goal: &DiffConstraint) -> bool {
    let fds: Vec<FunctionalDependency> = premises
        .iter()
        .map(|c| to_fd(c).expect("premise outside the single-member fragment"))
        .collect();
    let goal_fd = to_fd(goal).expect("goal outside the single-member fragment");
    fd::implies(&fds, &goal_fd)
}

/// The attribute closure `X⁺` of a set under single-member constraints
/// (exposed for examples and experiments).
pub fn closure(premises: &[DiffConstraint], x: AttrSet) -> AttrSet {
    let fds: Vec<FunctionalDependency> = premises.iter().filter_map(to_fd).collect();
    fd::attribute_closure(x, &fds)
}

/// Exhaustively enumerates, for a fragment constraint set, every implied
/// single-member constraint with a singleton dependent — the analogue of the
/// FD closure `F⁺` restricted to `X → {A}` — in polynomial time per query.
pub fn implied_singleton_constraints(
    universe: &Universe,
    premises: &[DiffConstraint],
) -> Vec<DiffConstraint> {
    let n = universe.len();
    let mut out = Vec::new();
    for lhs in universe.all_subsets() {
        let cl = closure(premises, lhs);
        for a in cl.difference(lhs).iter() {
            out.push(DiffConstraint::new(
                lhs,
                Family::single(AttrSet::singleton(a)),
            ));
        }
    }
    debug_assert!(out.iter().all(|c| c.footprint().len() <= n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication;

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
    fn fragment_membership() {
        let u = u();
        assert!(in_fragment(
            &DiffConstraint::parse("A -> {BC}", &u).unwrap()
        ));
        assert!(!in_fragment(
            &DiffConstraint::parse("A -> {B, C}", &u).unwrap()
        ));
        assert!(!in_fragment(&DiffConstraint::parse("A -> {}", &u).unwrap()));
        assert!(set_in_fragment(&parse(&u, &["A -> {B}", "B -> {CD}"])));
        assert!(!set_in_fragment(&parse(&u, &["A -> {B}", "B -> {C, D}"])));
    }

    #[test]
    fn translation_round_trip() {
        let u = u();
        let c = DiffConstraint::parse("AB -> {CD}", &u).unwrap();
        let fd = to_fd(&c).unwrap();
        assert_eq!(from_fd(&fd), c);
        assert!(to_fd(&DiffConstraint::parse("A -> {B, C}", &u).unwrap()).is_none());
    }

    #[test]
    fn polynomial_procedure_agrees_with_general_procedure() {
        // Exhaustive comparison over a fixed premise set and all singleton-member
        // goals on a 4-attribute universe.
        let u = u();
        let premises = parse(&u, &["A -> {B}", "B -> {C}", "CD -> {A}"]);
        for lhs_mask in 0u64..16 {
            for rhs_mask in 1u64..16 {
                let goal = DiffConstraint::new(
                    AttrSet::from_bits(lhs_mask),
                    Family::single(AttrSet::from_bits(rhs_mask)),
                );
                assert_eq!(
                    implies_polynomial(&premises, &goal),
                    implication::implies_lattice(&u, &premises, &goal),
                    "fragment procedures disagree on {}",
                    goal.format(&u)
                );
            }
        }
    }

    #[test]
    fn closure_matches_known_values() {
        let u = u();
        let premises = parse(&u, &["A -> {B}", "B -> {C}", "CD -> {A}"]);
        assert_eq!(
            closure(&premises, u.parse_set("A").unwrap()),
            u.parse_set("ABC").unwrap()
        );
        assert_eq!(
            closure(&premises, u.parse_set("D").unwrap()),
            u.parse_set("D").unwrap()
        );
        assert_eq!(
            closure(&premises, u.parse_set("CD").unwrap()),
            u.parse_set("ABCD").unwrap()
        );
    }

    #[test]
    fn implied_singleton_constraints_are_all_implied() {
        let u = u();
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let implied = implied_singleton_constraints(&u, &premises);
        // A → {C} must be found, C → {A} must not.
        assert!(implied.contains(&DiffConstraint::parse("A -> {C}", &u).unwrap()));
        assert!(!implied.contains(&DiffConstraint::parse("C -> {A}", &u).unwrap()));
        for c in &implied {
            assert!(implication::implies_lattice(&u, &premises, c));
        }
    }

    #[test]
    #[should_panic(expected = "fragment")]
    fn polynomial_procedure_rejects_general_constraints() {
        let u = u();
        let premises = parse(&u, &["A -> {B, C}"]);
        let goal = DiffConstraint::parse("A -> {B}", &u).unwrap();
        let _ = implies_polynomial(&premises, &goal);
    }
}
