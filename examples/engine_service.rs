//! Serving implication queries with `diffcon-engine`: sessions, the answer
//! cache and its versioning across writes, batching, and the multi-session
//! `diffcond` wire protocol.
//!
//! Run with: `cargo run --example engine_service`

use diffcon::DiffConstraint;
use diffcon_engine::{Server, Session, SessionConfig};
use setlat::Universe;

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

    // Batch evaluation: many goals at once, decided in order, answers
    // index-aligned.
    let goals: Vec<DiffConstraint> = ["AB -> {C}", "B -> {CD}", "C -> {B}", "AB -> {B}"]
        .iter()
        .map(|t| DiffConstraint::parse(t, &u).unwrap())
        .collect();
    let outcomes = session.implies_batch(&goals);
    for (goal, outcome) in goals.iter().zip(&outcomes) {
        println!("batch   {:<12} -> {}", goal.format(&u), outcome.implied);
    }

    // A write edits the session in place and re-versions its caches: the
    // retraction flips the answer, and re-asserting the premise restores
    // the premise digest, so the earlier answer is a cache hit again.
    let transitivity_link = DiffConstraint::parse("B -> {C}", &u).unwrap();
    let goal = DiffConstraint::parse("BD -> {C}", &u).unwrap();
    assert!(session.implies(&goal).implied);
    session.retract_constraint(&transitivity_link);
    let retracted = session.implies(&goal);
    session.assert_constraint(&transitivity_link);
    let restored = session.implies(&goal);
    println!(
        "retract B -> {{C}}: BD -> {{C}} now {} (cached: {}); re-assert: {} (cached: {})",
        retracted.implied, retracted.cached, restored.implied, restored.cached
    );
    assert!(!retracted.implied && !retracted.cached);
    assert!(
        restored.implied && restored.cached,
        "the digest revalidates"
    );

    let stats = session.stats();
    println!(
        "answer cache h{}/m{} (hit ratio {:.2}), {} queries total, epoch {}",
        stats.answer_cache.hits,
        stats.answer_cache.misses,
        stats.answer_cache.hit_ratio(),
        stats.planner.total_queries(),
        stats.epoch,
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
