//! Batch evaluation: decide many goals against one frozen snapshot, in
//! parallel.
//!
//! This module is the stateless core [`crate::snapshot::Snapshot`]
//! dispatches to.  A snapshot plans one [`Job`] per goal (attaching any
//! memoized propositional translation or goal lattice from the shared
//! caches) and hands the batch to [`decide_many`], which fans the jobs out
//! with rayon.  Workers are pure: they read the shared `&Snapshot` and
//! return per-goal [`JobResult`]s carrying any freshly computed derived data
//! (goal lattices, propositional translations), which the snapshot then
//! writes back into its caches.  Workers never touch a cache themselves, so
//! a batch's parallel section takes no locks at all.

use crate::snapshot::Snapshot;
use diffcon::procedure::ProcedureKind;
use diffcon::{implication, prop_bridge, DiffConstraint};
use diffcon_obs::profile::{self, StageTag};
use proplogic::implication::ImplicationConstraint;
use rayon::prelude::*;
use relational::fd;
use setlat::{lattice, AttrSet, Universe};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// One planned unit of work: a goal plus the procedure chosen for it and any
/// cached derived data the snapshot already holds.
pub struct Job {
    /// The goal constraint.
    pub goal: DiffConstraint,
    /// The procedure the planner selected.
    pub procedure: ProcedureKind,
    /// The goal's memoized lattice decomposition, if the caches hold it.
    pub cached_lattice: Option<Arc<[AttrSet]>>,
    /// The goal's memoized propositional translation, if the caches hold it.
    pub cached_prop: Option<Arc<ImplicationConstraint>>,
}

/// The outcome of one job.
pub struct JobResult {
    /// Whether the premises imply the goal.
    pub implied: bool,
    /// The procedure that decided it.
    pub procedure: ProcedureKind,
    /// Wall-clock time spent deciding.
    pub elapsed: Duration,
    /// A goal lattice computed by the worker (for cache write-back).
    pub computed_lattice: Option<Arc<[AttrSet]>>,
    /// A goal translation computed by the worker (for cache write-back).
    pub computed_prop: Option<Arc<ImplicationConstraint>>,
}

/// Decides a single job against the snapshot.
pub fn decide_one(snapshot: &Snapshot, job: &Job) -> JobResult {
    let start = Instant::now();
    let _route = profile::stage(route_stage_tag(job.procedure));
    let mut computed_lattice = None;
    let mut computed_prop = None;
    let implied = match job.procedure {
        ProcedureKind::FdFragment => {
            let fds = snapshot
                .fd_index
                .as_deref()
                .expect("planner routed to FD without a fragment index");
            let goal_fd = diffcon::fd_fragment::to_fd(&job.goal)
                .expect("planner routed a wide goal to the FD procedure");
            fd::implies(fds, &goal_fd)
        }
        ProcedureKind::Lattice => match &job.cached_lattice {
            Some(l) => covered_by_premises(l, snapshot.premises()),
            None => {
                // Enumerate L(goal) once, decide from it, and hand the
                // materialization back for the caches to memoize — repeat
                // queries then skip the 2^{|S|−|X|} superset sweep entirely.
                let l = goal_lattice(snapshot.universe(), &job.goal);
                let implied = covered_by_premises(&l, snapshot.premises());
                computed_lattice = Some(l);
                implied
            }
        },
        ProcedureKind::Semantic => {
            implication::implies_semantic(snapshot.universe(), snapshot.premises(), &job.goal)
        }
        ProcedureKind::Sat => {
            let prop = match &job.cached_prop {
                Some(p) => Arc::clone(p),
                None => {
                    let p = Arc::new(prop_bridge::to_implication_constraint(&job.goal));
                    computed_prop = Some(Arc::clone(&p));
                    p
                }
            };
            prop.implied_by_sat(&snapshot.premise_props, snapshot.universe())
        }
    };
    JobResult {
        implied,
        procedure: job.procedure,
        elapsed: start.elapsed(),
        computed_lattice,
        computed_prop,
    }
}

/// Decides a whole batch, fanning out across the rayon pool.  Results are
/// index-aligned with `jobs`.
pub fn decide_many(snapshot: &Snapshot, jobs: &[Job]) -> Vec<JobResult> {
    jobs.par_iter()
        .map(|job| decide_one(snapshot, job))
        .collect()
}

/// Materializes `L(X, 𝒴)` of a goal as a shared slice.
pub fn goal_lattice(universe: &Universe, goal: &DiffConstraint) -> Arc<[AttrSet]> {
    lattice::lattice_decomposition(universe, goal.lhs, &goal.rhs).into()
}

/// Theorem 3.5 over a materialized goal lattice: `C ⊨ goal` iff every member
/// of `L(goal)` lies in some premise's lattice.
fn covered_by_premises(goal_lattice: &[AttrSet], premises: &[DiffConstraint]) -> bool {
    goal_lattice
        .iter()
        .all(|&u| premises.iter().any(|p| p.lattice_contains(u)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use diffcon::procedure;

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

    fn job(goal: DiffConstraint, procedure: ProcedureKind) -> Job {
        Job {
            goal,
            procedure,
            cached_lattice: None,
            cached_prop: None,
        }
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
                let r = decide_one(&snapshot, &job(goal.clone(), kind));
                assert_eq!(r.implied, expected, "{kind} wrong on {}", goal.format(&u));
            }
        }
    }

    #[test]
    fn cached_and_uncached_lattice_paths_agree() {
        let u = Universe::of_size(5);
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let snapshot = snapshot_of(&u, &premises);
        let goal = DiffConstraint::parse("A -> {C}", &u).unwrap();
        let cold = decide_one(&snapshot, &job(goal.clone(), ProcedureKind::Lattice));
        let materialized = cold.computed_lattice.expect("cold run materializes");
        let warm = decide_one(
            &snapshot,
            &Job {
                goal,
                procedure: ProcedureKind::Lattice,
                cached_lattice: Some(Arc::clone(&materialized)),
                cached_prop: None,
            },
        );
        assert!(
            warm.computed_lattice.is_none(),
            "warm run must not recompute"
        );
        assert_eq!(cold.implied, warm.implied);
    }

    #[test]
    fn fd_jobs_use_the_fragment_index() {
        let u = Universe::of_size(5);
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let snapshot = snapshot_of(&u, &premises);
        assert!(snapshot.fd_index.is_some());
        for (text, expected) in [("A -> {C}", true), ("C -> {A}", false)] {
            let goal = DiffConstraint::parse(text, &u).unwrap();
            let r = decide_one(&snapshot, &job(goal, ProcedureKind::FdFragment));
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
        let jobs: Vec<Job> = goals
            .iter()
            .map(|g| job(g.clone(), ProcedureKind::Lattice))
            .collect();
        let results = decide_many(&snapshot, &jobs);
        assert_eq!(results.len(), goals.len());
        for (goal, result) in goals.iter().zip(&results) {
            assert_eq!(
                result.implied,
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
        let r = decide_one(&snapshot, &job(goal.clone(), ProcedureKind::Semantic));
        assert_eq!(
            r.implied,
            procedure::decide(ProcedureKind::Semantic, &u, &premises, &goal)
        );
    }
}
