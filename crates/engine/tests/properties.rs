//! Equivalence properties of the engine against the one-shot decision
//! procedure `diffcon::implication::implies_lattice`.
//!
//! The engine layers interning, two LRU caches, a premise digest, an FD
//! fast path, a procedure planner, and batch evaluation over the paper's
//! procedures — none of which may change a single answer.  These tests pit a
//! long-lived session against the stateless reference on:
//!
//! * ≥ 1000 random implication instances across universe sizes and premise
//!   shapes (`engine_matches_one_shot_implies_on_1000_random_instances`);
//! * workloads with repeated goals, where answers come from the cache;
//! * sessions mutated by random interleaved assert/retract;
//! * sessions configured with tiny caches, forcing constant eviction;
//! * batches, which must agree element-wise with serial evaluation.

use diffcon::random::{self, ConstraintGenerator, ConstraintShape};
use diffcon::{implication, DiffConstraint};
use diffcon_engine::{Session, SessionConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setlat::Universe;

fn shape() -> ConstraintShape {
    ConstraintShape {
        max_lhs: 2,
        max_members: 3,
        max_member_size: 2,
        allow_trivial: false,
    }
}

/// The headline acceptance test: engine answers equal
/// `implication::implies_lattice` on over 1000 random instances, spread over
/// universe sizes 3–6 and premise counts 0–4, with every instance asked
/// twice (cold, then cached).
#[test]
fn engine_matches_one_shot_implies_on_1000_random_instances() {
    let mut checked = 0usize;
    for n in 3..=6 {
        let universe = Universe::of_size(n);
        for premise_count in 0..=4 {
            let mut session = Session::new(universe.clone());
            let mut asserted: Vec<DiffConstraint> = Vec::new();
            for seed in 0..30u64 {
                let instance_seed = (n as u64) << 24 | (premise_count as u64) << 16 | seed;
                let (premises, goal) =
                    random::random_instance(instance_seed, &universe, premise_count, &shape(), 0.5);
                // Swap the session's premise set incrementally (the random
                // premise list may contain duplicates, which assert dedups).
                for p in asserted.drain(..) {
                    assert!(session.retract_constraint(&p));
                }
                for p in &premises {
                    let (_, added) = session.assert_constraint(p);
                    if added {
                        asserted.push(p.clone());
                    }
                }

                let expected = implication::implies_lattice(&universe, &premises, &goal);
                let cold = session.implies(&goal);
                assert_eq!(
                    cold.implied,
                    expected,
                    "cold disagreement: n={n} premises={premises:?} goal={goal:?} route={}",
                    cold.route_name()
                );
                let warm = session.implies(&goal);
                assert_eq!(warm.implied, expected, "warm disagreement on {goal:?}");
                checked += 2;
            }
        }
    }
    assert!(checked >= 1000, "only {checked} instances checked");
}

/// Random assert/retract interleavings: after every mutation the session must
/// agree with the reference on a probe set of goals.
#[test]
fn incremental_mutation_never_desynchronizes() {
    let universe = Universe::of_size(5);
    let mut gen = ConstraintGenerator::new(0xFEED, &universe);
    let pool = gen.constraint_set(8, &shape());
    let probes = gen.constraint_set(12, &shape());
    let mut session = Session::new(universe.clone());
    let mut live: Vec<DiffConstraint> = Vec::new();
    let mut rng = StdRng::seed_from_u64(99);
    for _step in 0..60 {
        let candidate = &pool[rng.gen_range(0..pool.len())];
        if live.contains(candidate) {
            assert!(session.retract_constraint(candidate));
            live.retain(|c| c != candidate);
        } else {
            let (_, added) = session.assert_constraint(candidate);
            assert!(added);
            live.push(candidate.clone());
        }
        assert_eq!(session.premises().len(), live.len());
        for probe in &probes {
            assert_eq!(
                session.implies(probe).implied,
                implication::implies_lattice(&universe, &live, probe),
                "desync after mutation: live={live:?} probe={probe:?}"
            );
        }
    }
}

/// A tiny answer cache forces evictions on nearly every query; answers must
/// be unaffected.  A capacity-0 configuration (caching disabled entirely)
/// must also agree.
#[test]
fn cache_eviction_and_disabled_caches_do_not_change_answers() {
    let universe = Universe::of_size(6);
    let mut gen = ConstraintGenerator::new(0xCAFE, &universe);
    let premises = gen.constraint_set(4, &shape());
    let goals = gen.constraint_set(50, &shape());
    for answer_cap in [3, 1, 0] {
        let config = SessionConfig {
            answer_cache_capacity: answer_cap,
            ..SessionConfig::default()
        };
        let mut session = Session::with_config(universe.clone(), config);
        for p in &premises {
            session.assert_constraint(p);
        }
        // Three passes so every goal is seen again after eviction churn.
        for pass in 0..3 {
            for goal in &goals {
                assert_eq!(
                    session.implies(goal).implied,
                    implication::implies_lattice(&universe, &premises, goal),
                    "cap={answer_cap} pass={pass} goal={goal:?}"
                );
            }
        }
        if answer_cap > 0 {
            assert!(
                session.stats().answer_cache.evictions > 0,
                "cap={answer_cap}: expected eviction churn"
            );
        }
    }
}

/// Batches agree with both serial engine evaluation and the reference, under
/// duplicated goals and across premise mutations between batches.
#[test]
fn batches_agree_with_serial_and_reference() {
    let universe = Universe::of_size(6);
    let mut gen = ConstraintGenerator::new(0xB00C, &universe);
    let premises = gen.constraint_set(5, &shape());
    let mut batch_session = Session::new(universe.clone());
    let mut serial_session = Session::new(universe.clone());
    for p in &premises {
        batch_session.assert_constraint(p);
        serial_session.assert_constraint(p);
    }
    let mut live = premises.clone();
    for round in 0..6 {
        let mut goals = gen.constraint_set(40, &shape());
        // Duplicate a third of the batch to exercise in-batch cache hits.
        for i in 0..goals.len() / 3 {
            let dup = goals[i].clone();
            goals.push(dup);
        }
        let outcomes = batch_session.implies_batch(&goals);
        assert_eq!(outcomes.len(), goals.len());
        for (goal, outcome) in goals.iter().zip(&outcomes) {
            assert_eq!(
                outcome.implied,
                serial_session.implies(goal).implied,
                "round {round}: batch vs serial on {goal:?}"
            );
            assert_eq!(
                outcome.implied,
                implication::implies_lattice(&universe, &live, goal),
                "round {round}: batch vs reference on {goal:?}"
            );
        }
        // Mutate the premise set between rounds.
        if round % 2 == 0 && !live.is_empty() {
            let gone = live.remove(0);
            assert!(batch_session.retract_constraint(&gone));
            assert!(serial_session.retract_constraint(&gone));
        } else {
            let extra = gen.constraint(&shape());
            batch_session.assert_constraint(&extra);
            serial_session.assert_constraint(&extra);
            live.push(extra);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Engine == reference on fully random (seeded) instances, including the
    /// cached second ask, for arbitrary seeds and premise counts.
    #[test]
    fn engine_equivalence_property(seed in 0u64..10_000, premise_count in 0usize..5) {
        let universe = Universe::of_size(5);
        let (premises, goal) =
            random::random_instance(seed, &universe, premise_count, &shape(), 0.4);
        let mut session = Session::new(universe.clone());
        for p in &premises {
            session.assert_constraint(p);
        }
        let expected = implication::implies_lattice(&universe, &premises, &goal);
        prop_assert_eq!(session.implies(&goal).implied, expected);
        let warm = session.implies(&goal);
        // Trivial goals are answered inline and never touch the cache.
        prop_assert!(warm.cached || goal.is_trivial());
        prop_assert_eq!(warm.implied, expected);
        // The refutation witness must exist exactly for refuted goals
        // (trivial goals are implied, so the two sides agree there too).
        prop_assert_eq!(session.refutation_witness(&goal).is_none(), expected);
    }

    /// FD-fragment workloads take the fast path and still match the
    /// reference.
    #[test]
    fn fd_fast_path_property(seed in 0u64..10_000) {
        let universe = Universe::of_size(6);
        let mut gen = ConstraintGenerator::new(seed, &universe);
        let narrow_shape = ConstraintShape {
            max_lhs: 2,
            max_members: 1,
            max_member_size: 2,
            allow_trivial: false,
        };
        let premises = gen.constraint_set(4, &narrow_shape);
        let goal = gen.constraint(&narrow_shape);
        let mut session = Session::new(universe.clone());
        for p in &premises {
            session.assert_constraint(p);
        }
        let outcome = session.implies(&goal);
        prop_assert_eq!(
            outcome.implied,
            implication::implies_lattice(&universe, &premises, &goal)
        );
        // The generator can emit empty-family constraints (outside the
        // fragment); the fast path applies only to true fragment instances.
        let in_fragment = diffcon::fd_fragment::set_in_fragment(&premises)
            && diffcon::fd_fragment::in_fragment(&goal);
        if in_fragment && !goal.is_trivial() {
            prop_assert_eq!(outcome.route_name(), "fd");
        }
    }
}
