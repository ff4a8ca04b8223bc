//! Premise-core analysis: redundancy, infeasibility, and dead density
//! variables, with machine-checkable certificates.
//!
//! # Why dropping redundant premises preserves every answer
//!
//! Call a premise `p` *redundant* in the family `C` when `C ∖ {p} ⊨ p`.  By
//! Theorem 3.5 the implication decider is complete for semantic implication,
//! and single-direction coverage gives the key structural fact: `C' ⊨ p` iff
//! `L(p) ⊆ ⋃_{c ∈ C'} L(c)`.  So when [`minimal_core`] drops `p`, the
//! lattice `L(p)` is entirely inside the union of the remaining premises'
//! lattices, and the *zeroed region* `⋃_{c} L(c)` — the only thing either
//! decision procedure consumes — is unchanged:
//!
//! * **implication** answers `C ⊨ g ⟺ L(g) ⊆ ⋃ L(c)`, a function of the
//!   zeroed region only;
//! * **bounds** build the linear system over the *alive* density variables
//!   (the complement of the zeroed region), so the system — and with it
//!   every derived interval and every infeasibility verdict — is identical.
//!
//! The engine's `analyze apply` leans on exactly this: answering from the
//! reduced core is answer-equivalent, for `implies` and `bound` alike, and
//! the property suite pins it against the full-family oracle.
//!
//! # Certificates
//!
//! Trust in the reduction should not require re-running the analyzer:
//! [`MinimalCore`] carries, for every dropped premise, a *witness* subfamily
//! of the final core that implies it.  [`check_certificate`] re-verifies
//! each witness with one [`diffcon::implication::implies`] call per dropped
//! premise (plus the core's own irredundancy), so any consumer can validate
//! the reduction independently.

use diffcon::density::LatticeBitmap;
use diffcon::{implication, DiffConstraint};
use diffcon_bounds::derive::check_feasibility;
use diffcon_bounds::problem::PROPAGATION_UNIVERSE_CAP;
use diffcon_bounds::{BoundsConfig, BoundsProblem, Feasibility};
use setlat::{AttrSet, Universe};

/// One redundant premise: implied by the rest of the family, with a shrunk
/// witness subfamily that suffices on its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Redundancy {
    /// Index of the premise in the analyzed family.
    pub index: usize,
    /// The redundant premise itself.
    pub premise: DiffConstraint,
    /// A subfamily of the *other* premises implying it (greedily shrunk, so
    /// dropping any witness member breaks the implication).
    pub witness: Vec<DiffConstraint>,
}

/// One premise dropped by [`minimal_core`], with its implying witness drawn
/// from the final core.
#[derive(Debug, Clone, PartialEq)]
pub struct Dropped {
    /// The dropped premise.
    pub premise: DiffConstraint,
    /// A subfamily of the final core implying the dropped premise.
    pub witness: Vec<DiffConstraint>,
}

/// The redundancy-reduced premise family plus its drop certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimalCore {
    /// The irredundant core, in original assertion order.
    pub core: Vec<DiffConstraint>,
    /// Every dropped premise with its implying witness (see
    /// [`check_certificate`]).
    pub dropped: Vec<Dropped>,
}

/// The full premise-program analysis of one frozen state.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Premises analyzed.
    pub premises: usize,
    /// Premises implied by the rest of the family, each with a witness.
    pub redundant: Vec<Redundancy>,
    /// Whether the knowns contradict the premises under the side conditions
    /// *before any query is asked*, as [`check_feasibility`] decides it:
    /// [`Feasibility::Feasible`] when every layer ran clean (no `bound`
    /// query can answer infeasible), [`Feasibility::Infeasible`] when one
    /// found a contradiction, and [`Feasibility::Unchecked`] when the
    /// propagation budget or the sweep cap skipped a layer, so a query may
    /// still find one.
    pub feasibility: Feasibility,
    /// A deletion-minimal conflicting known set, `Some` exactly when
    /// [`Analysis::feasibility`] is [`Feasibility::Infeasible`].
    pub conflict: Option<Vec<(AttrSet, f64)>>,
    /// Density variables zeroed by the constraints yet still carried by some
    /// known's equation — pure dead weight in every bound derivation.
    pub dead_vars: usize,
    /// Up to [`DEAD_EXAMPLES`] example dead variables (as attribute sets).
    pub dead_examples: Vec<AttrSet>,
}

/// How many dead density variables [`Analysis::dead_examples`] lists.
pub const DEAD_EXAMPLES: usize = 4;

/// Analyzes one frozen premise/known state: redundancy with witnesses,
/// pre-query infeasibility with a minimal conflicting known set, and dead
/// density variables.  Pure — the state is never mutated, so a serving
/// layer can run this against an immutable snapshot.
pub fn analyze(problem: &BoundsProblem<'_>, config: &BoundsConfig) -> Analysis {
    let (dead_vars, dead_examples) = dead_density(problem);
    let feasibility = check_feasibility(problem, config);
    Analysis {
        premises: problem.constraints.len(),
        redundant: redundant_premises(problem.universe, problem.constraints),
        feasibility,
        conflict: (feasibility == Feasibility::Infeasible)
            .then(|| minimal_conflict(problem, config)),
        dead_vars,
        dead_examples,
    }
}

/// The premises implied by the rest of the family, each with a greedily
/// shrunk witness subfamily.
pub fn redundant_premises(universe: &Universe, premises: &[DiffConstraint]) -> Vec<Redundancy> {
    (0..premises.len())
        .filter_map(|i| {
            let rest: Vec<DiffConstraint> = premises
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, p)| p.clone())
                .collect();
            implication::implies(universe, &rest, &premises[i]).then(|| Redundancy {
                index: i,
                premise: premises[i].clone(),
                witness: shrink_witness(universe, rest, &premises[i]),
            })
        })
        .collect()
}

/// Greedily removes witness members while the remainder still implies the
/// goal.  The caller guarantees the initial witness implies the goal.
fn shrink_witness(
    universe: &Universe,
    mut witness: Vec<DiffConstraint>,
    goal: &DiffConstraint,
) -> Vec<DiffConstraint> {
    let mut i = 0;
    while i < witness.len() {
        let candidate = witness.remove(i);
        if implication::implies(universe, &witness, goal) {
            continue;
        }
        witness.insert(i, candidate);
        i += 1;
    }
    witness
}

/// Reduces the family to an irredundant core by sequential removal (the
/// same order-dependent reduction as [`implication::irredundant_cover`]),
/// recording every dropped premise with a witness subfamily of the *final*
/// core that implies it.
///
/// Witnesses against the final core are sound even though drops interleave:
/// semantic implication is transitive, and every premise removed along the
/// way is implied by the survivors at its removal time, hence (inductively)
/// by the final core.
pub fn minimal_core(universe: &Universe, premises: &[DiffConstraint]) -> MinimalCore {
    let mut core: Vec<DiffConstraint> = premises.to_vec();
    let mut removed: Vec<DiffConstraint> = Vec::new();
    let mut i = 0;
    while i < core.len() {
        let candidate = core.remove(i);
        if implication::implies(universe, &core, &candidate) {
            removed.push(candidate);
        } else {
            core.insert(i, candidate);
            i += 1;
        }
    }
    let dropped = removed
        .into_iter()
        .map(|premise| {
            let witness = shrink_witness(universe, core.clone(), &premise);
            Dropped { premise, witness }
        })
        .collect();
    MinimalCore { core, dropped }
}

/// Verifies a [`MinimalCore`] certificate from scratch: every witness is a
/// subfamily of the core and implies its dropped premise, and the core
/// itself is irredundant (no member implied by the others).
pub fn check_certificate(universe: &Universe, result: &MinimalCore) -> bool {
    let witnesses_hold = result.dropped.iter().all(|d| {
        d.witness.iter().all(|w| result.core.contains(w))
            && implication::implies(universe, &d.witness, &d.premise)
    });
    let core_irredundant = (0..result.core.len()).all(|i| {
        let rest: Vec<DiffConstraint> = result
            .core
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, p)| p.clone())
            .collect();
        !implication::implies(universe, &rest, &result.core[i])
    });
    witnesses_hold && core_irredundant
}

/// A deletion-minimal conflicting known set of a problem
/// [`check_feasibility`] finds infeasible: a subset of its knowns that is
/// still found infeasible, but no longer is if any single member is
/// removed.
fn minimal_conflict(problem: &BoundsProblem<'_>, config: &BoundsConfig) -> Vec<(AttrSet, f64)> {
    let mut kept: Vec<(AttrSet, f64)> = problem.knowns.to_vec();
    let mut i = 0;
    while i < kept.len() {
        let candidate = kept.remove(i);
        let trial = BoundsProblem {
            knowns: &kept,
            ..*problem
        };
        if check_feasibility(&trial, config) != Feasibility::Infeasible {
            kept.insert(i, candidate);
            i += 1;
        }
    }
    kept
}

/// Counts the density variables zeroed by the constraints that still appear
/// in some known's superset row, with up to [`DEAD_EXAMPLES`] examples.
/// Returns `(0, [])` past [`PROPAGATION_UNIVERSE_CAP`] — the `L(C)` bitmap
/// is off-limits there, matching the bound engine's own routing.
fn dead_density(problem: &BoundsProblem<'_>) -> (usize, Vec<AttrSet>) {
    let n = problem.universe.len();
    if n > PROPAGATION_UNIVERSE_CAP || problem.knowns.is_empty() || problem.constraints.is_empty() {
        return (0, Vec::new());
    }
    let lattice = LatticeBitmap::new(problem.universe, problem.constraints);
    let mut count = 0;
    let mut examples = Vec::new();
    for mask in 0..(1u64 << n) {
        let set = AttrSet::from_bits(mask);
        if !lattice.contains(set) {
            continue;
        }
        if problem.knowns.iter().any(|&(x, _)| x.is_subset(set)) {
            count += 1;
            if examples.len() < DEAD_EXAMPLES {
                examples.push(set);
            }
        }
    }
    (count, examples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffcon_bounds::SideConditions;

    fn parse(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    fn knowns(u: &Universe, entries: &[(&str, f64)]) -> Vec<(AttrSet, f64)> {
        entries
            .iter()
            .map(|(s, v)| (u.parse_set(s).unwrap(), *v))
            .collect()
    }

    fn problem<'a>(
        u: &'a Universe,
        constraints: &'a [DiffConstraint],
        k: &'a [(AttrSet, f64)],
    ) -> BoundsProblem<'a> {
        BoundsProblem {
            universe: u,
            constraints,
            knowns: k,
            side: SideConditions::support(),
        }
    }

    #[test]
    fn transitive_closure_premise_is_redundant_with_witness() {
        let u = Universe::of_size(4);
        let c = parse(&u, &["A -> {B}", "B -> {C}", "A -> {C}"]);
        let redundant = redundant_premises(&u, &c);
        assert_eq!(redundant.len(), 1);
        assert_eq!(redundant[0].index, 2);
        // The witness is the transitivity pair, shrunk to exactly it.
        assert_eq!(redundant[0].witness.len(), 2);
        assert!(implication::implies_lattice(
            &u,
            &redundant[0].witness,
            &redundant[0].premise
        ));
    }

    #[test]
    fn irredundant_family_reports_nothing() {
        let u = Universe::of_size(4);
        let c = parse(&u, &["A -> {B}", "C -> {D}"]);
        assert!(redundant_premises(&u, &c).is_empty());
        let core = minimal_core(&u, &c);
        assert_eq!(core.core, c);
        assert!(core.dropped.is_empty());
        assert!(check_certificate(&u, &core));
    }

    #[test]
    fn minimal_core_certificate_checks_out() {
        let u = Universe::of_size(5);
        // A chain plus two consequences of it.
        let c = parse(
            &u,
            &["A -> {B}", "B -> {C}", "A -> {C}", "C -> {D}", "B -> {D}"],
        );
        let core = minimal_core(&u, &c);
        assert_eq!(core.core.len() + core.dropped.len(), c.len());
        assert!(core.dropped.len() >= 2);
        assert!(check_certificate(&u, &core));
        // A corrupted certificate fails: swap a witness for an empty one.
        let mut bad = core.clone();
        bad.dropped[0].witness.clear();
        assert!(!check_certificate(&u, &bad));
    }

    #[test]
    fn duplicate_premise_is_dropped_from_the_core() {
        let u = Universe::of_size(3);
        let c = parse(&u, &["A -> {B}", "A -> {B}"]);
        let core = minimal_core(&u, &c);
        assert_eq!(core.core.len(), 1);
        assert_eq!(core.dropped.len(), 1);
        assert!(check_certificate(&u, &core));
    }

    #[test]
    fn feasible_state_has_no_conflict() {
        let u = Universe::of_size(3);
        let c = parse(&u, &["A -> {B}"]);
        let k = knowns(&u, &[("A", 4.0), ("AB", 4.0)]);
        let analysis = analyze(&problem(&u, &c, &k), &BoundsConfig::default());
        assert_eq!(analysis.feasibility, Feasibility::Feasible);
        assert_eq!(analysis.conflict, None);
        assert_eq!(analysis.premises, 1);
    }

    #[test]
    fn minimal_conflict_pinpoints_the_contradiction() {
        let u = Universe::of_size(3);
        let c = parse(&u, &["A -> {B}"]);
        // f(∅) is irrelevant; A → {B} forces f(A) = f(AB), so 5 ≠ 3 is the
        // two-element conflict.
        let k = knowns(&u, &[("", 100.0), ("A", 5.0), ("AB", 3.0)]);
        let conflict = analyze(&problem(&u, &c, &k), &BoundsConfig::default())
            .conflict
            .unwrap();
        assert_eq!(conflict.len(), 2);
        let sets: Vec<AttrSet> = conflict.iter().map(|&(x, _)| x).collect();
        assert!(sets.contains(&u.parse_set("A").unwrap()));
        assert!(sets.contains(&u.parse_set("AB").unwrap()));
        // Minimality: removing either member restores feasibility.
        for i in 0..conflict.len() {
            let mut rest = conflict.clone();
            rest.remove(i);
            assert_eq!(
                check_feasibility(&problem(&u, &c, &rest), &BoundsConfig::default()),
                Feasibility::Feasible,
                "conflict set is not minimal"
            );
        }
    }

    #[test]
    fn dead_density_variables_are_counted() {
        let u = Universe::of_size(3);
        // A → {} kills the whole row [A, S]: every variable above A is dead.
        let c = parse(&u, &["A -> {}"]);
        let k = knowns(&u, &[("A", 0.0)]);
        let analysis = analyze(&problem(&u, &c, &k), &BoundsConfig::default());
        // Row [A, ABC] has 4 variables, all dead, all carried by the known.
        assert_eq!(analysis.dead_vars, 4);
        assert!(!analysis.dead_examples.is_empty());
        assert!(analysis
            .dead_examples
            .iter()
            .all(|s| u.parse_set("A").unwrap().is_subset(*s)));
        // The zero-valued known on a killed row is consistent.
        assert_eq!(analysis.conflict, None);
    }

    #[test]
    fn no_constraints_means_no_dead_variables() {
        let u = Universe::of_size(3);
        let k = knowns(&u, &[("A", 4.0)]);
        let analysis = analyze(&problem(&u, &[], &k), &BoundsConfig::default());
        assert_eq!(analysis.dead_vars, 0);
        assert!(analysis.dead_examples.is_empty());
    }
}
