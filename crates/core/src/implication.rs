//! The implication problem for differential constraints.
//!
//! `C ⊨ X → 𝒴` holds when every function in `F(S)` satisfying all of `C`
//! satisfies `X → 𝒴`.  Theorem 3.5 characterizes this syntactically:
//!
//! ```text
//! C ⊨ X → 𝒴   ⇔   L(X, 𝒴) ⊆ L(C) = ⋃_{X'→𝒴' ∈ C} L(X', 𝒴').
//! ```
//!
//! Three decision procedures are provided here and cross-validated:
//!
//! * [`implies`] / [`implies_lattice`] — the direct Theorem 3.5 check: iterate
//!   over the supersets of `X`, keep the ones in `L(X, 𝒴)`, and verify each is
//!   covered by some premise's lattice.  `O(2^{|S|−|X|} · |C| · |𝒴|)` bitset
//!   work, no materialization of `L(C)`;
//! * [`implies_semantic`] — the proof of Theorem 3.5 in executable form: for
//!   every candidate set `U` build the counterexample function `f^U` and test
//!   it against the premises and the goal;
//! * [`refutation_search`] — the same counterexample found by search rather
//!   than enumeration: by Proposition 5.3 a set `U ⊇ X` refutes the goal iff
//!   it satisfies every premise's formula `⋀X' ⇒ ⋁⋀Y'` and falsifies the
//!   goal's, so a DPLL over the attributes that propagates each constraint
//!   whole finds `U` or proves there is none.  It decides the `sat` route
//!   ([`crate::procedure::ProcedureKind::Sat`]) and supplies
//!   [`refutation_witness`].
//!
//! The clause-level SAT procedure, which distributes every premise into
//! `∏|Y'|` CNF clauses, lives in [`crate::prop_bridge`] (Proposition 5.4) as
//! the paper's reference.  The implication problem is coNP-complete
//! (Proposition 5.5), so all of these are worst-case exponential.

use crate::constraint::DiffConstraint;
use crate::semantics;
use setlat::{powerset, AttrSet, Family, SetFunction, Universe};

/// Decides `C ⊨ goal` using the lattice characterization of Theorem 3.5.
///
/// This is the default decision procedure; [`implies_lattice`] is an alias kept
/// for symmetry with the other engines.
pub fn implies(universe: &Universe, premises: &[DiffConstraint], goal: &DiffConstraint) -> bool {
    implies_lattice(universe, premises, goal)
}

/// Decides `C ⊨ goal` by checking `L(X, 𝒴) ⊆ ⋃ L(X', 𝒴')` without materializing
/// either side: every superset of `X` that lies in the goal's lattice must lie
/// in some premise's lattice.
pub fn implies_lattice(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> bool {
    let n = universe.len();
    powerset::supersets_within(goal.lhs, n)
        .filter(|&u| goal.lattice_contains(u))
        .all(|u| premises.iter().any(|p| p.lattice_contains(u)))
}

/// Returns a *witness of non-implication* if one exists: a set `U ∈ L(goal)`
/// not covered by any premise lattice.  `None` means the implication holds.
///
/// The witness is [`refutation_search`]'s: callers may rely on its validity,
/// not on which set it is.
pub fn refutation_witness(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> Option<AttrSet> {
    refutation_search(universe, premises, goal)
}

/// Searches for a set `U ∈ L(goal)` outside every premise lattice, the
/// counterexample `f^U` of Theorem 3.5, and returns it; `None` iff
/// `C ⊨ goal`.
///
/// By Proposition 5.3 such a `U` is an assignment of the attributes that
/// satisfies every premise's formula `⋀X' ⇒ ⋁_{Y'} ⋀Y'` and falsifies the
/// goal's, so this is Proposition 5.4's satisfiability question, decided by
/// DPLL over the attributes with each constraint propagated whole instead of
/// as `∏|Y'|` clauses.  The partial assignment is two sets, `inside ⊇ X`
/// and `outside`; the rest of `S` is undecided.  The propagators are:
///
/// * a goal member `Y`: `Y ⊆ inside` is a conflict; if `Y` misses `outside`
///   and exactly one of its attributes is not inside, that attribute goes
///   out;
/// * a premise `X' → 𝒴'`, unless it is escaped (`X'` meets `outside`, or
///   some `Y' ⊆ inside`), where a member is *alive* if it misses `outside`:
///   with `X' ⊆ inside`, no alive member is a conflict and exactly one goes
///   in whole; with no alive member and one attribute of `X'` undecided,
///   that attribute goes out.
///
/// At the fixpoint `U = inside` (every undecided attribute left out) is a
/// refutation, unless some premise has `X' ⊆ inside` and no member inside;
/// the search then branches on the lowest undecided attribute of that
/// premise's first alive member, inside first.  It allocates nothing and
/// recurses at most `|S|` deep.  The problem is coNP-complete
/// (Proposition 5.5), so the number of branches is worst-case exponential.
pub fn refutation_search(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> Option<AttrSet> {
    let u_set = refute(premises, &goal.rhs, goal.lhs, AttrSet::EMPTY)?;
    // `lattice_contains` is Proposition 2.9's test, `X ⊆ U` included.
    debug_assert!(
        u_set.is_subset(universe.full_set())
            && goal.lattice_contains(u_set)
            && !premises.iter().any(|p| p.lattice_contains(u_set)),
        "{u_set:?} is not a refutation"
    );
    Some(u_set)
}

/// One node of [`refutation_search`]: propagates `inside`/`outside` to a
/// fixpoint and returns the refutation there, `None` on a conflict, or the
/// first refutation below its branch.
fn refute(
    premises: &[DiffConstraint],
    goal: &Family,
    mut inside: AttrSet,
    mut outside: AttrSet,
) -> Option<AttrSet> {
    loop {
        let mut changed = false;
        for y in goal.iter() {
            if !y.is_disjoint(outside) {
                continue;
            }
            let open = y.difference(inside);
            match open.len() {
                0 => return None,
                1 => {
                    outside = outside.union(open);
                    changed = true;
                }
                _ => {}
            }
        }
        // The attribute this node branches on if the pass reaches the
        // fixpoint: the first unsatisfied premise's, per the rule above.
        let mut branch = None;
        for p in premises {
            if !p.lhs.is_disjoint(outside) || p.rhs.some_member_subset_of(inside) {
                continue;
            }
            let open = p.lhs.difference(inside);
            let mut alive = p.rhs.iter().filter(|y| y.is_disjoint(outside));
            match (open.len(), alive.next(), alive.next()) {
                (0, None, _) => return None,
                (0, Some(y), None) => {
                    inside = inside.union(y);
                    changed = true;
                }
                (0, Some(y), Some(_)) => branch = branch.or(y.difference(inside).min_attr()),
                (1, None, _) => {
                    outside = outside.union(open);
                    changed = true;
                }
                _ => {}
            }
        }
        if changed {
            continue;
        }
        let Some(attr) = branch else {
            return Some(inside);
        };
        return refute(premises, goal, inside.with(attr), outside)
            .or_else(|| refute(premises, goal, inside, outside.with(attr)));
    }
}

/// Decides `C ⊨ goal` semantically, following the proof of Theorem 3.5: the
/// implication fails iff some counterexample function `f^U` (a point mass at a
/// set `U ⊇ X`) satisfies every premise yet violates the goal.
///
/// Slower than [`implies_lattice`] (it runs a Möbius transform per candidate),
/// but completely independent of the lattice bookkeeping, which makes it a good
/// cross-check in tests and experiments.
pub fn implies_semantic(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> bool {
    let n = universe.len();
    for u_set in powerset::supersets_within(goal.lhs, n) {
        let f = SetFunction::point_mass(n, u_set, 1.0);
        if semantics::satisfies_all(&f, premises) && !semantics::satisfies(&f, goal) {
            return false;
        }
    }
    true
}

/// Decides whether two constraint sets are equivalent (each implies every
/// member of the other).
pub fn equivalent_sets(
    universe: &Universe,
    first: &[DiffConstraint],
    second: &[DiffConstraint],
) -> bool {
    second.iter().all(|c| implies(universe, first, c))
        && first.iter().all(|c| implies(universe, second, c))
}

/// Removes redundant constraints: a member is dropped when it is implied by the
/// remaining ones.  The result is a (not necessarily unique) irredundant cover
/// equivalent to the input.
pub fn irredundant_cover(
    universe: &Universe,
    constraints: &[DiffConstraint],
) -> Vec<DiffConstraint> {
    let mut kept: Vec<DiffConstraint> = constraints.to_vec();
    let mut i = 0;
    while i < kept.len() {
        let candidate = kept[i].clone();
        let rest: Vec<DiffConstraint> = kept
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, c)| c.clone())
            .collect();
        if implies(universe, &rest, &candidate) {
            kept.remove(i);
        } else {
            i += 1;
        }
    }
    kept
}

/// The number of sets in `L(goal) − L(C)` — how "far" the implication is from
/// holding (0 iff it holds).  Used by experiments that need a quantitative
/// notion of violation.
pub fn uncovered_count(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> usize {
    let n = universe.len();
    powerset::supersets_within(goal.lhs, n)
        .filter(|&u| goal.lattice_contains(u))
        .filter(|&u| !premises.iter().any(|p| p.lattice_contains(u)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u3() -> Universe {
        Universe::of_size(3)
    }

    fn u4() -> Universe {
        Universe::of_size(4)
    }

    fn parse(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    #[test]
    fn example_3_4_transitivity() {
        let u = u3();
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let goal = DiffConstraint::parse("A -> {C}", &u).unwrap();
        assert!(implies(&u, &premises, &goal));
        assert!(implies_semantic(&u, &premises, &goal));
        assert_eq!(refutation_witness(&u, &premises, &goal), None);

        let bad = DiffConstraint::parse("C -> {A}", &u).unwrap();
        assert!(!implies(&u, &premises, &bad));
        assert!(!implies_semantic(&u, &premises, &bad));
        assert!(refutation_witness(&u, &premises, &bad).is_some());
    }

    #[test]
    fn example_4_3_derivation_goal_is_implied() {
        let u = u4();
        let premises = parse(&u, &["A -> {BC, CD}", "C -> {D}"]);
        let goal = DiffConstraint::parse("AB -> {D}", &u).unwrap();
        assert!(implies(&u, &premises, &goal));
        assert!(implies_semantic(&u, &premises, &goal));
    }

    #[test]
    fn trivial_goals_are_always_implied() {
        let u = u4();
        let goal = DiffConstraint::parse("AB -> {B}", &u).unwrap();
        assert!(implies(&u, &[], &goal));
        assert!(implies_semantic(&u, &[], &goal));
    }

    #[test]
    fn soundness_of_figure_1_rules_via_implication() {
        // Each Figure 1 rule instance must be implied by its hypotheses.
        let u = u4();
        // Augmentation: A → {B, CD} ⊨ AC → {B, CD}.
        let premise = parse(&u, &["A -> {B, CD}"]);
        assert!(implies(
            &u,
            &premise,
            &DiffConstraint::parse("AC -> {B, CD}", &u).unwrap()
        ));
        // Addition: A → {B} ⊨ A → {B, CD}.
        let premise = parse(&u, &["A -> {B}"]);
        assert!(implies(
            &u,
            &premise,
            &DiffConstraint::parse("A -> {B, CD}", &u).unwrap()
        ));
        // Elimination: {A → {B, C}, AC → {B}} ⊨ A → {B}.
        let premises = parse(&u, &["A -> {B, C}", "AC -> {B}"]);
        assert!(implies(
            &u,
            &premises,
            &DiffConstraint::parse("A -> {B}", &u).unwrap()
        ));
    }

    #[test]
    fn addition_converse_fails() {
        // A → {B, CD} does not imply A → {B}.
        let u = u4();
        let premises = parse(&u, &["A -> {B, CD}"]);
        let goal = DiffConstraint::parse("A -> {B}", &u).unwrap();
        assert!(!implies(&u, &premises, &goal));
        let witness = refutation_witness(&u, &premises, &goal).unwrap();
        // The witness must be in L(goal) but not in L(premise).
        assert!(goal.lattice_contains(witness));
        assert!(!premises[0].lattice_contains(witness));
    }

    #[test]
    fn lattice_and_semantic_procedures_agree_on_random_instances() {
        let u = u4();
        let mut state = 0x12345678u64;
        let mut rand_set = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            AttrSet::from_bits((state >> 40) % bound)
        };
        for _ in 0..40 {
            let premises: Vec<DiffConstraint> = (0..3)
                .map(|_| {
                    DiffConstraint::new(
                        rand_set(16),
                        setlat::Family::from_sets(
                            (0..2).map(|_| rand_set(15) | AttrSet::singleton(3)),
                        ),
                    )
                })
                .collect();
            let goal = DiffConstraint::new(rand_set(16), setlat::Family::from_sets([rand_set(16)]));
            assert_eq!(
                implies_lattice(&u, &premises, &goal),
                implies_semantic(&u, &premises, &goal),
                "procedures disagree on premises {premises:?}, goal {goal:?}"
            );
        }
    }

    #[test]
    fn equivalence_and_irredundant_cover() {
        let u = u3();
        let set_a = parse(&u, &["A -> {B}", "B -> {C}", "A -> {C}"]);
        let set_b = parse(&u, &["A -> {B}", "B -> {C}"]);
        assert!(equivalent_sets(&u, &set_a, &set_b));
        let cover = irredundant_cover(&u, &set_a);
        assert!(cover.len() <= 2);
        assert!(equivalent_sets(&u, &cover, &set_a));
        // A non-equivalent pair.
        let set_c = parse(&u, &["A -> {B}"]);
        assert!(!equivalent_sets(&u, &set_a, &set_c));
    }

    #[test]
    fn uncovered_count_quantifies_violation() {
        let u = u3();
        let premises = parse(&u, &["A -> {B}"]);
        let implied = DiffConstraint::parse("AC -> {B}", &u).unwrap();
        assert_eq!(uncovered_count(&u, &premises, &implied), 0);
        let not_implied = DiffConstraint::parse("B -> {A}", &u).unwrap();
        assert!(uncovered_count(&u, &premises, &not_implied) > 0);
    }

    #[test]
    fn refutation_search_needs_no_clause_expansion() {
        // Thirteen three-attribute members distribute into 3^13 clauses;
        // propagated whole, the premise is satisfied at the root by leaving
        // A out.
        let u = Universe::of_size(64);
        let premises = parse(
            &u,
            &["A -> {BCD, EFG, HIJ, KLM, NOP, QRS, TUV, WXY, Zab, cde, fgh, ijk, lmn}"],
        );
        let goal = DiffConstraint::parse("B -> {C}", &u).unwrap();
        let witness = refutation_search(&u, &premises, &goal).unwrap();
        assert!(goal.lattice_contains(witness));
        assert!(!premises[0].lattice_contains(witness));
        // The goal is its own premise: enumeration confirms it over all 2^40
        // sets, propagation at the root.
        let u = Universe::of_size(40);
        let premises = parse(&u, &[" -> {A}"]);
        let goal = DiffConstraint::parse(" -> {A}", &u).unwrap();
        assert_eq!(refutation_witness(&u, &premises, &goal), None);
    }

    #[test]
    fn refutation_search_backtracks_out_of_a_failed_branch() {
        // Nothing propagates at the root, which branches on B inside first.
        // B inside needs D or E inside, each of which pulls in the other,
        // and the goal forbids DE: both branches below B conflict, so the
        // search backtracks to B outside, which forces C inside.
        let u = Universe::of_size(5);
        let premises = parse(&u, &[" -> {B, C}", "B -> {D, E}", "D -> {E}", "E -> {D}"]);
        let goal = DiffConstraint::parse(" -> {DE}", &u).unwrap();
        assert!(!implies_lattice(&u, &premises, &goal));
        let witness = refutation_search(&u, &premises, &goal).unwrap();
        assert_eq!(witness, u.parse_set("C").unwrap());
    }

    #[test]
    fn empty_premises() {
        let u = u3();
        // Only trivial constraints are implied by the empty set.
        assert!(implies(
            &u,
            &[],
            &DiffConstraint::parse("AB -> {A}", &u).unwrap()
        ));
        assert!(!implies(
            &u,
            &[],
            &DiffConstraint::parse("A -> {B}", &u).unwrap()
        ));
    }
}
