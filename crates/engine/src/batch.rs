//! Batch evaluation: decide many goals against one frozen snapshot, in
//! parallel.
//!
//! This module is the stateless core [`crate::snapshot::Snapshot`]
//! dispatches to.  A snapshot probes the answer cache and plans a route for
//! each goal it misses; [`decide`] then decides one such miss through
//! [`procedure::decide`], the one decider per route, and [`decide_many`]
//! fans a batch of misses out with rayon.  Workers are pure: they read the
//! shared `&Snapshot` and the borrowed goals and return one
//! [`QueryOutcome`] per miss, which the snapshot then writes back into its
//! answer cache.  Workers never touch a cache themselves, so a batch's
//! parallel section takes no locks at all.

use crate::snapshot::{QueryOutcome, Snapshot};
use diffcon::procedure::{self, ProcedureKind};
use diffcon::DiffConstraint;
use diffcon_obs::profile::{self, StageTag};
use rayon::prelude::*;
use std::time::Instant;

/// Profiling tags for the implication decision routes, so a profile
/// attributes worker time to the procedure actually burning it.
static STAGE_FD: StageTag = StageTag::new("planner.fd");
static STAGE_LATTICE: StageTag = StageTag::new("planner.lattice");
static STAGE_SEMANTIC: StageTag = StageTag::new("planner.semantic");
static STAGE_SAT: StageTag = StageTag::new("planner.sat");

/// The profiling tag of one decision route.
pub fn route_stage_tag(kind: ProcedureKind) -> &'static StageTag {
    match kind {
        ProcedureKind::FdFragment => &STAGE_FD,
        ProcedureKind::Lattice => &STAGE_LATTICE,
        ProcedureKind::Semantic => &STAGE_SEMANTIC,
        ProcedureKind::Sat => &STAGE_SAT,
    }
}

/// Decides one planned miss, `premises ⊨ goal` over `route`, against the
/// snapshot's premises.
///
/// # Panics
/// Panics if `route` is [`ProcedureKind::FdFragment`] and a premise or the
/// goal lies outside the single-member fragment (see
/// [`procedure::decide`]); the planner routes there only when both lie
/// inside it.
pub fn decide(snapshot: &Snapshot, goal: &DiffConstraint, route: ProcedureKind) -> QueryOutcome {
    let start = Instant::now();
    let _stage = profile::stage(route_stage_tag(route));
    let implied = procedure::decide(route, snapshot.universe(), snapshot.premises(), goal);
    QueryOutcome {
        implied,
        procedure: Some(route),
        cached: false,
        elapsed: start.elapsed(),
    }
}

/// Decides a batch of planned misses, fanning out across the rayon pool.
/// Outcomes are index-aligned with `misses`.
pub fn decide_many(
    snapshot: &Snapshot,
    misses: &[(&DiffConstraint, ProcedureKind)],
) -> Vec<QueryOutcome> {
    misses
        .par_iter()
        .map(|&(goal, route)| decide(snapshot, goal, route))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use diffcon::implication;
    use setlat::Universe;
    use std::sync::Arc;

    fn parse(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    /// A snapshot frozen over the given premise texts.
    fn snapshot_of(u: &Universe, premises: &[DiffConstraint]) -> Arc<Snapshot> {
        let mut session = Session::new(u.clone());
        for p in premises {
            session.assert_constraint(p);
        }
        session.snapshot()
    }

    #[test]
    fn every_procedure_agrees_with_the_reference() {
        let u = Universe::of_size(5);
        let premises = parse(&u, &["A -> {B}", "B -> {C, DE}", "AC -> {D}"]);
        let snapshot = snapshot_of(&u, &premises);
        let goals = parse(
            &u,
            &["A -> {C, DE}", "C -> {A}", "AB -> {C, DE}", "E -> {A}"],
        );
        for goal in &goals {
            let expected = implication::implies(&u, &premises, goal);
            for kind in [
                ProcedureKind::Lattice,
                ProcedureKind::Semantic,
                ProcedureKind::Sat,
            ] {
                let r = decide(&snapshot, goal, kind);
                assert_eq!(r.implied, expected, "{kind} wrong on {}", goal.format(&u));
                assert_eq!(r.procedure, Some(kind));
                assert!(!r.cached);
            }
        }
    }

    #[test]
    fn fd_route_decides_inside_the_fragment() {
        let u = Universe::of_size(5);
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let snapshot = snapshot_of(&u, &premises);
        assert!(snapshot.fd_fragment);
        for (text, expected) in [("A -> {C}", true), ("C -> {A}", false)] {
            let goal = DiffConstraint::parse(text, &u).unwrap();
            let r = decide(&snapshot, &goal, ProcedureKind::FdFragment);
            assert_eq!(r.implied, expected, "wrong on {text}");
        }
    }

    #[test]
    fn batches_preserve_order_and_agree_with_serial() {
        let u = Universe::of_size(6);
        let premises = parse(&u, &["A -> {B}", "BC -> {D, EF}", "D -> {E}"]);
        let snapshot = snapshot_of(&u, &premises);
        let mut gen = diffcon::random::ConstraintGenerator::new(11, &u);
        let shape = diffcon::random::ConstraintShape::default();
        let goals = gen.constraint_set(64, &shape);
        let misses: Vec<(&DiffConstraint, ProcedureKind)> =
            goals.iter().map(|g| (g, ProcedureKind::Lattice)).collect();
        let outcomes = decide_many(&snapshot, &misses);
        assert_eq!(outcomes.len(), goals.len());
        for (goal, outcome) in goals.iter().zip(&outcomes) {
            assert_eq!(
                outcome.implied,
                implication::implies(&u, &premises, goal),
                "batch wrong on {}",
                goal.format(&u)
            );
        }
    }

    #[test]
    fn procedure_module_and_batch_agree_on_semantic() {
        let u = Universe::of_size(4);
        let premises = parse(&u, &["A -> {B, CD}"]);
        let snapshot = snapshot_of(&u, &premises);
        let goal = DiffConstraint::parse("AC -> {B, CD}", &u).unwrap();
        let r = decide(&snapshot, &goal, ProcedureKind::Semantic);
        assert_eq!(
            r.implied,
            procedure::decide(ProcedureKind::Semantic, &u, &premises, &goal)
        );
    }
}
