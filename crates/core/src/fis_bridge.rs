//! The frequent-itemset bridge (Section 6): disjunctive constraints, support
//! functions and the equivalence of the implication problems.
//!
//! * Proposition 6.3: a basket list `B` satisfies `X ⇒disj 𝒴` iff its support
//!   function `s_B` satisfies the differential constraint `X → 𝒴`.
//! * Proposition 6.4: implication over `F(S)`, over the frequency functions
//!   `positive(S)`, over the support functions `support(S)` and implication of
//!   the corresponding disjunctive constraints all coincide.
//!
//! The module also exposes the Section 6.1.1 application: which itemsets become
//! *disjunctive* (hence redundant in a concise representation) as a consequence
//! of a set of known disjunctive constraints, using the inference system rather
//! than re-counting the database.

use crate::constraint::DiffConstraint;
use crate::implication;
use fis::basket::BasketDb;
use fis::disjunctive::DisjunctiveConstraint;
use fis::support;
use setlat::{powerset, AttrSet, SetFunction, Universe};

/// Translates a differential constraint into the disjunctive constraint with
/// the same left-hand side and family.
pub fn to_disjunctive(constraint: &DiffConstraint) -> DisjunctiveConstraint {
    DisjunctiveConstraint::new(constraint.lhs, constraint.rhs.clone())
}

/// Translates a disjunctive constraint into a differential constraint.
pub fn from_disjunctive(constraint: &DisjunctiveConstraint) -> DiffConstraint {
    DiffConstraint::new(constraint.lhs, constraint.rhs.clone())
}

/// Satisfaction of a differential constraint *by a basket database*, through its
/// support function (the right-hand side of Proposition 6.3).
pub fn support_function_satisfies(db: &BasketDb, constraint: &DiffConstraint) -> bool {
    // Support functions are frequency functions, so density-based satisfaction is
    // equivalent to the single test D^𝒴_{s_B}(X) = 0 (Section 6).
    support::support_differential(db, constraint.lhs, &constraint.rhs).abs() <= 1e-9
}

/// The materialized support function of a database (convenience re-export used
/// by examples and benches).
pub fn support_function(db: &BasketDb) -> SetFunction {
    support::support_function(db)
}

/// Decides `C ⊨_support(S) goal`: does every basket database (equivalently,
/// every support function) satisfying `C` satisfy `goal`?
///
/// Implemented from the proof of Proposition 6.4: the implication fails iff the
/// single-basket database `(U)` for some `U ∈ L(goal) − L(C)` separates them,
/// so it suffices to test the single-basket databases.  By Proposition 6.4 the
/// answer coincides with plain implication, which the tests confirm.
pub fn implies_over_supports(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> bool {
    let n = universe.len();
    for u_set in powerset::supersets_within(goal.lhs, n) {
        let db = BasketDb::from_baskets(n, [u_set]);
        if premises.iter().all(|p| support_function_satisfies(&db, p))
            && !support_function_satisfies(&db, goal)
        {
            return false;
        }
    }
    true
}

/// Decides implication of disjunctive constraints (`Cdisj ⊨ X ⇒disj 𝒴`), which
/// by Proposition 6.4 is the same problem as differential-constraint
/// implication; provided as the natural API for FIS users.
pub fn disjunctive_implies(
    universe: &Universe,
    premises: &[DisjunctiveConstraint],
    goal: &DisjunctiveConstraint,
) -> bool {
    let premises_diff: Vec<DiffConstraint> = premises.iter().map(from_disjunctive).collect();
    implication::implies(universe, &premises_diff, &from_disjunctive(goal))
}

/// Given disjunctive constraints already known to hold in a database, returns
/// the itemsets (within the universe) that are provably *disjunctive* by
/// inference alone — i.e. the itemsets `W` such that some nontrivial constraint
/// `X → 𝒴` with footprint inside `W` is implied by the known constraints.
///
/// This is the paper's Section 6.1.1 observation (the `{A,C,D}` example): a
/// concise representation need not store such itemsets, because their
/// disjunctive status follows from the retained constraints without looking at
/// the data.
pub fn inferable_disjunctive_itemsets(
    universe: &Universe,
    known: &[DiffConstraint],
) -> Vec<AttrSet> {
    let n = universe.len();
    let mut out = Vec::new();
    'outer: for mask in 0u64..(1u64 << n) {
        let w = AttrSet::from_bits(mask);
        // A set W is provably disjunctive iff the atomic constraint candidates
        // X' → (singletons of W − X') are implied for some X' ⊂ W with the
        // constraint nontrivial.  It suffices to try every X' ⊆ W.
        for lhs in powerset::proper_subsets(w) {
            let rhs = setlat::Family::of_singletons(w.difference(lhs));
            let candidate = DiffConstraint::new(lhs, rhs);
            if candidate.is_trivial() {
                continue;
            }
            if implication::implies(universe, known, &candidate) {
                out.push(w);
                continue 'outer;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fis::generator;
    use setlat::Family;

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
    fn proposition_6_3_satisfaction_equivalence() {
        // For a spread of databases and constraints: B ⊨ X ⇒disj 𝒴 iff
        // s_B ⊨ X → 𝒴 (density semantics) iff the support differential vanishes.
        let u = u4();
        let dbs = vec![
            BasketDb::parse(&u, "AB\nABC\nACD\nB\nABCD").unwrap(),
            BasketDb::parse(&u, "AB\nAC\nABC\nBD\nD").unwrap(),
            generator::uniform_random(3, 4, 40, 0.4),
            BasketDb::new(4),
        ];
        let constraints = parse(
            &u,
            &[
                "A -> {B, CD}",
                "A -> {B}",
                "C -> {A}",
                "D -> {}",
                "A -> {B, C}",
                "AB -> {B}",
            ],
        );
        for db in &dbs {
            let s = support::support_function(db);
            for c in &constraints {
                let disj = to_disjunctive(c).satisfied_by(db);
                let via_support_fn = crate::semantics::satisfies(&s, c);
                let via_differential = support_function_satisfies(db, c);
                assert_eq!(disj, via_support_fn, "Prop 6.3 failed for {}", c.format(&u));
                assert_eq!(
                    disj,
                    via_differential,
                    "frequency shortcut failed for {}",
                    c.format(&u)
                );
            }
        }
    }

    #[test]
    fn proposition_6_4_implication_equivalence() {
        let u = u4();
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
            ],
        );
        for premises in &premise_sets {
            for goal in &goals {
                let general = implication::implies_lattice(&u, premises, goal);
                let over_supports = implies_over_supports(&u, premises, goal);
                assert_eq!(
                    general,
                    over_supports,
                    "Prop 6.4 failed: F(S) vs support(S) on {}",
                    goal.format(&u)
                );
                // And the disjunctive formulation.
                let disj_premises: Vec<DisjunctiveConstraint> =
                    premises.iter().map(to_disjunctive).collect();
                assert_eq!(
                    general,
                    disjunctive_implies(&u, &disj_premises, &to_disjunctive(goal))
                );
            }
        }
    }

    #[test]
    fn translation_round_trip() {
        let u = u4();
        let c = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();
        assert_eq!(from_disjunctive(&to_disjunctive(&c)), c);
    }

    #[test]
    fn section_6_1_1_acd_example() {
        // Paper: if {A,B,D} and {B,C,D} are disjunctive on account of A → {B, D}
        // and B → {C, D}, then {A,C,D} is disjunctive by transitivity — so it need
        // not be retained.
        let u = u4();
        let known = parse(&u, &["A -> {B, D}", "B -> {C, D}"]);
        let inferable = inferable_disjunctive_itemsets(&u, &known);
        assert!(inferable.contains(&u.parse_set("ABD").unwrap()));
        assert!(inferable.contains(&u.parse_set("BCD").unwrap()));
        assert!(
            inferable.contains(&u.parse_set("ACD").unwrap()),
            "ACD should be derivable as disjunctive (the paper's transitivity example)"
        );
        // Supersets of disjunctive sets are disjunctive (augmentation).
        assert!(inferable.contains(&u.parse_set("ABCD").unwrap()));
        // A set too small to host a nontrivial constraint is not inferable.
        assert!(!inferable.contains(&u.parse_set("A").unwrap()));
        assert!(!inferable.contains(&AttrSet::EMPTY));
    }

    #[test]
    fn inferable_itemsets_are_sound_on_planted_databases() {
        // Plant the known constraints in a random database; every itemset declared
        // disjunctive by inference must indeed be disjunctive in the database
        // (Definition 6.2 with general right-hand sides).
        let u = u4();
        let known = parse(&u, &["A -> {B, D}", "B -> {C, D}"]);
        let base = generator::uniform_random(17, 4, 60, 0.35);
        let db = generator::with_planted_rules(
            &base,
            &known.iter().map(to_disjunctive).collect::<Vec<_>>(),
        );
        for w in inferable_disjunctive_itemsets(&u, &known) {
            assert!(
                fis::disjunctive::is_disjunctive(&db, w, 3),
                "itemset {} declared disjunctive by inference but not in the data",
                u.format_set(w)
            );
        }
    }

    #[test]
    fn empty_database_satisfies_everything() {
        let u = u4();
        let db = BasketDb::new(4);
        for text in ["A -> {B}", "A -> {}", " -> {A}"] {
            let c = DiffConstraint::parse(text, &u).unwrap();
            assert!(support_function_satisfies(&db, &c));
        }
        // But not ∅ → ∅?  s_B(∅) = 0 for the empty database, so its density is
        // identically zero and even ∅ → ∅ holds.
        let c = DiffConstraint::new(AttrSet::EMPTY, Family::empty());
        assert!(support_function_satisfies(&db, &c));
    }
}
