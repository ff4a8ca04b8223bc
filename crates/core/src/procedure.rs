//! Uniform entry points over the implication decision procedures.
//!
//! The crate's deciders for `C ⊨ X → 𝒴` each live in their own module with
//! their own signature; this module gives the three a planner routes to —
//! the polynomial FD-fragment closure check, the Theorem 3.5 lattice
//! containment, and the satisfiability search of Proposition 5.4 for a
//! refutation set — a common, enumerable interface so that a *planner* (such
//! as the one in the `diffcon-engine` crate) can pick a procedure per query,
//! decide through it, and account for it, without special-casing call sites.
//! The semantic counterexample enumeration,
//! [`implication::implies_semantic`], is not a route: the lattice check
//! dominates it, and it remains the oracle the routes are tested against.
//!
//! The `sat` procedure is [`implication::refutation_search`], a DPLL over the
//! attributes that propagates each constraint whole.  The clause-level
//! translation, [`crate::prop_bridge::implies_sat`], is the paper's reference
//! procedure and a test oracle.
//!
//! The FD-fragment procedure is only sound on inputs inside the single-member
//! fragment; [`ProcedureKind::applicable`] encodes each procedure's
//! precondition and [`decide`] panics if it is violated, mirroring
//! [`crate::fd_fragment::implies_polynomial`].

use crate::constraint::DiffConstraint;
use crate::{fd_fragment, implication};
use setlat::Universe;
use std::fmt;

/// The three routable decision procedures for the implication problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcedureKind {
    /// Polynomial attribute-closure check; sound only inside the
    /// single-member (FD) fragment of the paper's conclusion.
    FdFragment,
    /// Direct Theorem 3.5 lattice-containment check over the supersets of
    /// the goal's left side, 64 per machine word
    /// ([`implication::implies_lattice`]).
    Lattice,
    /// Proposition 5.4's satisfiability search for a refutation set, each
    /// constraint propagated whole ([`implication::refutation_search`]).
    Sat,
}

/// All procedures, in the order a planner should prefer them (cheapest first
/// on their applicable domain).
pub const ALL_PROCEDURES: [ProcedureKind; 3] = [
    ProcedureKind::FdFragment,
    ProcedureKind::Lattice,
    ProcedureKind::Sat,
];

impl ProcedureKind {
    /// Short stable identifier used in reports and the `diffcond` wire
    /// protocol (`fd`, `lattice`, `sat`).
    pub fn name(self) -> &'static str {
        match self {
            ProcedureKind::FdFragment => "fd",
            ProcedureKind::Lattice => "lattice",
            ProcedureKind::Sat => "sat",
        }
    }

    /// The procedure's position in [`ALL_PROCEDURES`] (its declaration
    /// order), for tables indexed by route.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns `true` iff the procedure is sound for this instance.
    ///
    /// The two general procedures are always applicable; the FD-fragment
    /// check requires every premise and the goal to have single-member
    /// right-hand sides.
    pub fn applicable(self, premises: &[DiffConstraint], goal: &DiffConstraint) -> bool {
        match self {
            ProcedureKind::FdFragment => {
                fd_fragment::in_fragment(goal) && fd_fragment::set_in_fragment(premises)
            }
            ProcedureKind::Lattice | ProcedureKind::Sat => true,
        }
    }
}

impl fmt::Display for ProcedureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Decides `premises ⊨ goal` with the chosen procedure.
///
/// # Panics
/// Panics if `kind` is [`ProcedureKind::FdFragment`] and the instance lies
/// outside the single-member fragment; check with
/// [`ProcedureKind::applicable`] first.
pub fn decide(
    kind: ProcedureKind,
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> bool {
    match kind {
        ProcedureKind::FdFragment => fd_fragment::implies_polynomial(premises, goal),
        ProcedureKind::Lattice => implication::implies_lattice(universe, premises, goal),
        ProcedureKind::Sat => implication::refutation_search(universe, premises, goal).is_none(),
    }
}

/// The size of the lattice procedure's enumeration on this instance, in set
/// tests: `2^{|S|−|X|} · (Σ_premise |𝒴'| + |𝒴|)`.
///
/// The bound is exact in structure (the procedure covers the supersets of
/// the goal's left-hand side, testing each against every premise family) and
/// pessimistic in constant: the procedure stops at the first block that
/// refutes the goal, a premise visits only the words that still hold an
/// unsettled set, and a block ends once none does, so most instances cost a
/// fraction of it.  It counts set tests although the procedure makes 64 of
/// them per word operation: the bound, and the budgets planners compare it
/// with, deliberately stay in sets, since dividing it by 64 would move which
/// instances route to the lattice procedure.  Planners use it to route
/// between the lattice procedure, whose cost is governed by `|S| − |X|`,
/// and the SAT procedure, whose cost is governed by the refutation search
/// instead.
pub fn lattice_cost_bound(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> u128 {
    let free = universe.len().saturating_sub(goal.lhs.len()) as u32;
    let member_work: u128 = premises
        .iter()
        .map(|p| p.rhs.len().max(1) as u128)
        .sum::<u128>()
        + goal.rhs.len().max(1) as u128;
    (1u128 << free.min(127)) * member_work
}

#[cfg(test)]
mod tests {
    use super::*;
    use setlat::{AttrSet, Family};

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
    fn applicability() {
        let u = u();
        let frag = parse(&u, &["A -> {B}", "B -> {CD}"]);
        let general = parse(&u, &["A -> {B, C}"]);
        let goal = DiffConstraint::parse("A -> {CD}", &u).unwrap();
        for kind in ALL_PROCEDURES {
            assert!(kind.applicable(&frag, &goal) || kind == ProcedureKind::FdFragment);
        }
        assert!(ProcedureKind::FdFragment.applicable(&frag, &goal));
        assert!(!ProcedureKind::FdFragment.applicable(&general, &goal));
        let wide_goal = DiffConstraint::parse("A -> {B, C}", &u).unwrap();
        assert!(!ProcedureKind::FdFragment.applicable(&frag, &wide_goal));
    }

    #[test]
    fn all_procedures_agree_on_their_domains() {
        let u = u();
        let premise_sets = [
            parse(&u, &["A -> {B}", "B -> {C}"]),
            parse(&u, &["A -> {BC, CD}", "C -> {D}"]),
            vec![],
        ];
        let goals = parse(&u, &["A -> {C}", "AB -> {D}", "C -> {A}", "AB -> {B}"]);
        for premises in &premise_sets {
            for goal in &goals {
                let reference = decide(ProcedureKind::Lattice, &u, premises, goal);
                for kind in ALL_PROCEDURES {
                    if kind.applicable(premises, goal) {
                        assert_eq!(
                            decide(kind, &u, premises, goal),
                            reference,
                            "{kind} disagrees on {}",
                            goal.format(&u)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = ALL_PROCEDURES.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["fd", "lattice", "sat"]);
        assert_eq!(ProcedureKind::Sat.to_string(), "sat");
    }

    #[test]
    fn index_is_the_position_in_all_procedures() {
        for kind in ALL_PROCEDURES {
            assert_eq!(ALL_PROCEDURES[kind.index()], kind);
        }
    }

    #[test]
    fn cost_bound_tracks_free_attributes() {
        let u = Universe::of_size(10);
        let premises = vec![DiffConstraint::new(
            AttrSet::singleton(0),
            Family::single(AttrSet::singleton(1)),
        )];
        let narrow = DiffConstraint::new(AttrSet::full(8), Family::single(AttrSet::singleton(9)));
        let wide =
            DiffConstraint::new(AttrSet::singleton(0), Family::single(AttrSet::singleton(9)));
        assert!(
            lattice_cost_bound(&u, &premises, &wide) > lattice_cost_bound(&u, &premises, &narrow)
        );
    }

    #[test]
    #[should_panic(expected = "fragment")]
    fn fd_decide_outside_fragment_panics() {
        let u = u();
        let premises = parse(&u, &["A -> {B, C}"]);
        let goal = DiffConstraint::parse("A -> {B}", &u).unwrap();
        let _ = decide(ProcedureKind::FdFragment, &u, &premises, &goal);
    }
}
