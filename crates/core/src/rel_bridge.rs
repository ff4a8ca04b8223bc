//! The relational bridge (Section 7): Simpson functions and positive boolean
//! dependencies.
//!
//! * Proposition 7.3: `simpson_{r,p} ⊨ X → 𝒴` iff `r ⊨ X ⇒bool 𝒴`.
//! * Corollary 7.4: `C ⊨_simpson(S) X → 𝒴` iff `Cboolean ⊨ X ⇒bool 𝒴`, which by
//!   Theorem 8.1 coincides with plain differential-constraint implication.

use crate::constraint::DiffConstraint;
use crate::implication;
use relational::armstrong;
use relational::boolean_dep::BooleanDependency;
use relational::distribution::ProbabilisticRelation;
use relational::fd::FunctionalDependency;
use relational::simpson;
use setlat::{AttrSet, Family, Universe};

/// Translates a differential constraint into the positive boolean dependency
/// with the same left-hand side and family.
pub fn to_boolean_dependency(constraint: &DiffConstraint) -> BooleanDependency {
    BooleanDependency::new(constraint.lhs, constraint.rhs.clone())
}

/// Translates a positive boolean dependency into a differential constraint.
pub fn from_boolean_dependency(dep: &BooleanDependency) -> DiffConstraint {
    DiffConstraint::new(dep.lhs, dep.rhs.clone())
}

/// Translates a functional dependency `X → Y` into the single-member
/// differential constraint `X → {Y}`.
pub fn from_functional_dependency(fd: &FunctionalDependency) -> DiffConstraint {
    DiffConstraint::new(fd.lhs, Family::single(fd.rhs))
}

/// Satisfaction of a differential constraint by a probabilistic relation,
/// through its Simpson function (the left-hand side of Proposition 7.3).
pub fn simpson_satisfies(pr: &ProbabilisticRelation, constraint: &DiffConstraint) -> bool {
    crate::semantics::satisfies(&simpson::simpson_function(pr), constraint)
}

/// Returns `true` iff no nonempty probabilistic relation can satisfy every
/// premise — which happens exactly when some premise has an *empty* right-hand
/// side family (`X → ∅`): the Simpson density at the full set `S` is always
/// `Σ p(t)² > 0`, yet `S ∈ L(X, ∅)`, so such a constraint has no Simpson model.
///
/// In this degenerate corner the implication problem over `simpson(S)` is
/// vacuously true while the problem over `F(S)` need not be; everywhere else
/// the two coincide (Theorem 8.1).  The reproduction records this as a
/// (benign) caveat to the paper's Theorem 8.1 statement — see `EXPERIMENTS.md`.
pub fn vacuous_over_relations(premises: &[DiffConstraint]) -> bool {
    premises.iter().any(|p| p.rhs.is_empty())
}

/// Decides `C ⊨_simpson(S) goal`: does every probabilistic relation whose
/// Simpson function satisfies `C` also satisfy `goal`?
///
/// A nonempty relation's Simpson density is positive at `S` and at every
/// pairwise agree-set, so a counterexample exists iff `S ∉ L(C)` and some
/// `U ∈ L(goal) − L(C)` exists (the two-tuple relation agreeing exactly on `U`
/// then separates `C` from the goal).  Hence
///
/// `C ⊨_simpson goal  ⇔  L(goal) ⊆ L(C)  ∨  S ∈ L(C)`,
///
/// i.e. plain implication except for the vacuous corner described at
/// [`vacuous_over_relations`].
pub fn implies_over_simpson(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> bool {
    vacuous_over_relations(premises) || implication::implies(universe, premises, goal)
}

/// Builds the Armstrong-style witness relation for a premise set (re-exported
/// convenience around [`relational::armstrong::armstrong_relation`]); useful
/// when a single relation refuting many non-implied constraints at once is
/// wanted.  Note the caveats discussed in that module: constraints with empty
/// left-hand sides or empty families are the degenerate corners.
pub fn armstrong_relation(
    universe: &Universe,
    premises: &[DiffConstraint],
) -> relational::relation::Relation {
    let parts: Vec<(AttrSet, Family)> = premises.iter().map(|c| (c.lhs, c.rhs.clone())).collect();
    armstrong::armstrong_relation(universe, &parts)
}

/// Decides implication of positive boolean dependencies
/// (`Cboolean ⊨ X ⇒bool 𝒴`), which by Corollary 7.4 / Theorem 8.1 is the same
/// problem as differential-constraint implication.
pub fn boolean_implies(
    universe: &Universe,
    premises: &[BooleanDependency],
    goal: &BooleanDependency,
) -> bool {
    let premises_diff: Vec<DiffConstraint> = premises.iter().map(from_boolean_dependency).collect();
    implication::implies(universe, &premises_diff, &from_boolean_dependency(goal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::generator;
    use relational::relation::Relation;

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
    fn proposition_7_3_satisfaction_equivalence() {
        let u = u4();
        let relations = vec![
            Relation::from_tuples(
                4,
                vec![
                    vec![1, 10, 100, 7],
                    vec![1, 10, 200, 7],
                    vec![2, 20, 100, 7],
                    vec![2, 30, 100, 8],
                ],
            ),
            generator::random_relation(5, 4, 20, 3),
            generator::random_relation(9, 4, 12, 2),
        ];
        let constraints = parse(
            &u,
            &[
                "A -> {B}",
                "B -> {A}",
                "A -> {B, C}",
                "AB -> {CD}",
                " -> {A}",
                "AB -> {B}",
            ],
        );
        for (i, r) in relations.into_iter().enumerate() {
            if r.is_empty() {
                continue;
            }
            // Both the uniform and a skewed distribution must give the same verdict
            // (satisfaction does not depend on p as long as p > 0 on r).
            let uniform = ProbabilisticRelation::uniform(r.clone());
            let skewed = generator::random_distribution(99 + i as u64, r.clone());
            for c in &constraints {
                let bool_dep = to_boolean_dependency(c).satisfied_by(&r);
                assert_eq!(
                    bool_dep,
                    simpson_satisfies(&uniform, c),
                    "Prop 7.3 (uniform) failed for {} on relation #{i}",
                    c.format(&u)
                );
                assert_eq!(
                    bool_dep,
                    simpson_satisfies(&skewed, c),
                    "Prop 7.3 (skewed) failed for {} on relation #{i}",
                    c.format(&u)
                );
            }
        }
    }

    #[test]
    fn corollary_7_4_implication_equivalence() {
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
                assert_eq!(
                    general,
                    implies_over_simpson(&u, premises, goal),
                    "Cor 7.4 failed: F(S) vs simpson(S) on {}",
                    goal.format(&u)
                );
                let bool_premises: Vec<BooleanDependency> =
                    premises.iter().map(to_boolean_dependency).collect();
                assert_eq!(
                    general,
                    boolean_implies(&u, &bool_premises, &to_boolean_dependency(goal))
                );
            }
        }
    }

    #[test]
    fn fd_translation() {
        let u = u4();
        let fd = FunctionalDependency::new(u.parse_set("AB").unwrap(), u.parse_set("C").unwrap());
        let c = from_functional_dependency(&fd);
        assert_eq!(c, DiffConstraint::parse("AB -> {C}", &u).unwrap());
        assert!(c.is_single_member());
    }

    #[test]
    fn round_trip_translation() {
        let u = u4();
        let c = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();
        assert_eq!(from_boolean_dependency(&to_boolean_dependency(&c)), c);
    }

    #[test]
    fn fds_on_planted_relations_are_detected_via_simpson() {
        // Plant A → B and B → C; the Simpson function of any distribution on the
        // relation must satisfy the corresponding differential constraints, and by
        // transitivity also A → {C}.
        let u = Universe::of_size(5);
        let fds = vec![
            FunctionalDependency::new(u.parse_set("A").unwrap(), u.parse_set("B").unwrap()),
            FunctionalDependency::new(u.parse_set("B").unwrap(), u.parse_set("C").unwrap()),
        ];
        let r = generator::relation_with_fds(21, 5, 40, 5, &fds);
        let pr = ProbabilisticRelation::uniform(r);
        for fd in &fds {
            assert!(simpson_satisfies(&pr, &from_functional_dependency(fd)));
        }
        let derived =
            FunctionalDependency::new(u.parse_set("A").unwrap(), u.parse_set("C").unwrap());
        assert!(simpson_satisfies(
            &pr,
            &from_functional_dependency(&derived)
        ));
    }
}
