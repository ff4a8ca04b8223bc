//! Serving implication queries with `diffcon-engine`: sessions, snapshot
//! isolation, concurrent readers over shared caches, batching, and the
//! multi-session `diffcond` wire protocol.
//!
//! Run with: `cargo run --example engine_service`

use diffcon::{implication, DiffConstraint};
use diffcon_engine::{Server, Session, SessionConfig};
use setlat::Universe;
use std::sync::Arc;

fn main() {
    // ── A session over the paper's 4-attribute examples ─────────────────────
    let u = Universe::of_size(4);
    let mut session = Session::new(u.clone());
    for text in ["A -> {B}", "B -> {C}", "A -> {BC, CD}"] {
        let c = DiffConstraint::parse(text, &u).unwrap();
        let (id, _) = session.assert_constraint(&c);
        println!("asserted #{:<2} {}", id.index(), c.format(&u));
    }

    // Single queries: the planner routes each to the cheapest procedure and
    // the answer cache serves repeats.
    for text in ["A -> {C}", "C -> {A}", "A -> {C}"] {
        let goal = DiffConstraint::parse(text, &u).unwrap();
        let outcome = session.implies(&goal);
        println!(
            "implies {:<12} -> {:5} via {} (cached: {})",
            text,
            outcome.implied,
            outcome.route_name(),
            outcome.cached
        );
    }

    // Batch evaluation: many goals at once, decided in parallel, answers
    // index-aligned.
    let goals: Vec<DiffConstraint> = ["AB -> {C}", "B -> {CD}", "C -> {B}", "AB -> {B}"]
        .iter()
        .map(|t| DiffConstraint::parse(t, &u).unwrap())
        .collect();
    let outcomes = session.implies_batch(&goals);
    for (goal, outcome) in goals.iter().zip(&outcomes) {
        println!("batch   {:<12} -> {}", goal.format(&u), outcome.implied);
    }

    // ── Concurrent serving: many threads, one shared snapshot ───────────────
    // Every mutation published an immutable snapshot; readers clone the Arc
    // and decide through `&self` — no reader ever blocks the writer, and a
    // writer can keep mutating the session while these threads run.
    println!("\n-- concurrent snapshot readers --");
    let mut gen = diffcon::random::ConstraintGenerator::new(7, &u);
    let shape = diffcon::random::ConstraintShape::default();
    let pool = gen.constraint_set(64, &shape);
    let snapshot = session.snapshot();
    let expected: Vec<bool> = pool
        .iter()
        .map(|g| implication::implies(&u, snapshot.premises(), g))
        .collect();
    const READERS: usize = 4;
    const ROUNDS: usize = 8;
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let snapshot = Arc::clone(&snapshot);
            let pool = &pool;
            let expected = &expected;
            scope.spawn(move || {
                let mut answered = 0usize;
                for _ in 0..ROUNDS {
                    for (goal, &want) in pool.iter().zip(expected) {
                        assert_eq!(
                            snapshot.implies(goal).implied,
                            want,
                            "reader diverged from the serial oracle"
                        );
                        answered += 1;
                    }
                }
                println!(
                    "reader {reader}: {answered} queries answered against epoch {}",
                    snapshot.epoch()
                );
            });
        }
    });
    // While the readers were running, the writer retracts a premise: the
    // session flips, already-captured snapshots do not.
    let transitivity_link = DiffConstraint::parse("B -> {C}", &u).unwrap();
    session.retract_constraint(&transitivity_link);
    let goal = DiffConstraint::parse("BD -> {C}", &u).unwrap();
    println!(
        "writer retracted B -> {{C}}: session now says {}, frozen snapshot still says {}",
        session.implies(&goal).implied,
        snapshot.implies(&goal).implied
    );
    assert!(!session.implies(&goal).implied);
    assert!(snapshot.implies(&goal).implied, "snapshots are immutable");

    // Shared cache statistics: every reader above fed the same caches, so
    // the hit ratio reflects the whole fleet.
    let stats = session.stats();
    println!(
        "shared caches: answer cache h{}/m{} (hit ratio {:.2}), {} queries total",
        stats.answer_cache.hits,
        stats.answer_cache.misses,
        stats.answer_cache.hit_ratio(),
        stats.planner.total_queries(),
    );

    // ── The same service over the multi-session diffcond wire protocol ──────
    println!("\n-- diffcond protocol transcript --");
    let mut server = Server::new(SessionConfig::default());
    for line in [
        "universe 4",
        "assert A -> {B}",
        "assert B -> {C}",
        "implies A -> {C}",
        "session new",
        "universe 4",
        "assert A -> {C}",
        "implies A -> {C}",
        "session list",
        "session use 0",
        "batch A -> {C}; C -> {A}; AB -> {B}",
        "witness C -> {A}",
        "derive A -> {C}",
        "stats",
        "quit",
    ] {
        let reply = server.handle_line(line);
        println!("> {line}\n< {}", reply.text);
    }
}
