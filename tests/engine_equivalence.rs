//! Repository-level integration test: the `diffcon-engine` serving layer is
//! answer-equivalent to the `diffcon` decision procedures when driven through
//! the public umbrella crate, including through the `diffcond` wire protocol.

use diffcon::random::{self, ConstraintShape};
use diffcon::{implication, DiffConstraint};
use diffcon_engine::{Server, Session, SessionConfig};
use setlat::Universe;

#[test]
fn engine_and_reference_agree_across_the_workspace_api() {
    let universe = Universe::of_size(5);
    let shape = ConstraintShape::default();
    let mut session = Session::new(universe.clone());
    let mut current: Vec<DiffConstraint> = Vec::new();
    for seed in 0..50u64 {
        let (premises, goal) = random::random_instance(seed, &universe, 3, &shape, 0.5);
        for p in current.drain(..) {
            assert!(session.retract_constraint(&p));
        }
        for p in &premises {
            let (_, added) = session.assert_constraint(p);
            if added {
                current.push(p.clone());
            }
        }
        assert_eq!(
            session.implies(&goal).implied,
            implication::implies_lattice(&universe, &premises, &goal),
            "seed {seed}"
        );
    }
}

#[test]
fn wire_protocol_answers_match_the_library() {
    let universe = Universe::of_size(4);
    let mut server = Server::new(SessionConfig::default());
    assert!(server
        .handle_line("universe 4")
        .text
        .starts_with("ok universe"));
    let premises = ["A -> {B}", "B -> {C, D}"];
    for p in premises {
        assert!(server
            .handle_line(&format!("assert {p}"))
            .text
            .starts_with("ok assert"));
    }
    let parsed: Vec<DiffConstraint> = premises
        .iter()
        .map(|t| DiffConstraint::parse(t, &universe).unwrap())
        .collect();
    for goal_text in [
        "A -> {C, D}",
        "A -> {C}",
        "C -> {A}",
        "AB -> {B}",
        "A -> {B, CD}",
    ] {
        let goal = DiffConstraint::parse(goal_text, &universe).unwrap();
        let expected = implication::implies_lattice(&universe, &parsed, &goal);
        let reply = server.handle_line(&format!("implies {goal_text}")).text;
        let got = reply.starts_with("yes");
        assert!(
            got == expected && (reply.starts_with("yes") || reply.starts_with("no")),
            "protocol disagrees on {goal_text}: {reply}"
        );
    }
}
