//! Serving equivalence: the snapshot architecture must be
//! answer-equivalent to serial single-session execution under any
//! interleaving.
//!
//! Three layers are exercised:
//!
//! * **Snapshot readers vs. the serial oracle** — multiple threads issue
//!   `implies`/`bound` queries against snapshots while a writer
//!   asserts/retracts premises and knowns concurrently; every answer must
//!   match the one-shot `diffcon` procedures evaluated on the snapshot's own
//!   frozen state (never a torn or in-between state).
//! * **Connection path vs. serial server** — randomized multi-session
//!   protocol scripts (session new/use/close, assert/retract churn,
//!   implies/batch/bound/witness/derive traffic) are fed as one byte
//!   stream through the connection driver every transport uses — each
//!   request answered by [`Server::respond`] into one output stream,
//!   reusing its scratch goal across requests — and through
//!   [`Server::handle_line`] on a second server; the reply streams
//!   must agree line-for-line up to the non-semantic telemetry fields
//!   (`us=`, `cached=`, `route=`), including under cache-eviction pressure
//!   from deliberately tiny cache bounds.
//! * **Snapshot lifetime** — a snapshot captured before its session is
//!   closed (or mutated) still answers from its captured state.

use diffcon::{implication, DiffConstraint};
use diffcon_engine::connection::Connection;
use diffcon_engine::protocol::MAX_REQUEST_BYTES;
use diffcon_engine::{Server, Session, SessionConfig};
use proptest::prelude::*;
use setlat::{AttrSet, Universe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const UNIVERSE_N: usize = 4;

/// Tiny caches: constant eviction churn, so the equivalence holds under
/// recycling and not just in the fully warm steady state.
fn tiny_config() -> SessionConfig {
    SessionConfig {
        answer_cache_capacity: 4,
        bound_cache_capacity: 2,
        ..SessionConfig::default()
    }
}

// ── Snapshot readers vs. the serial oracle ──────────────────────────────

#[test]
fn concurrent_readers_always_match_the_serial_oracle_during_writes() {
    let u = Universe::of_size(6);
    let mut gen = diffcon::random::ConstraintGenerator::new(41, &u);
    let shape = diffcon::random::ConstraintShape::default();
    let premise_pool = gen.constraint_set(8, &shape);
    let goals = gen.constraint_set(24, &shape);
    let mut session = Session::with_config(u.clone(), tiny_config());
    // Shared mailbox the writer publishes fresh snapshots into; readers
    // clone the Arc (the only moment they touch a lock) and then decide
    // entirely against their private frozen view.
    let mailbox = Mutex::new(session.snapshot());
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let mailbox = &mailbox;
            let done = &done;
            let goals = &goals;
            let u = &u;
            scope.spawn(move || {
                let mut rounds = 0u32;
                while !done.load(Ordering::Relaxed) || rounds < 2 {
                    let snapshot = Arc::clone(&mailbox.lock().unwrap());
                    for goal in goals {
                        let got = snapshot.implies(goal).implied;
                        let want = implication::implies_lattice(u, snapshot.premises(), goal);
                        assert_eq!(
                            got,
                            want,
                            "reader diverged from the oracle on {} (epoch {})",
                            goal.format(u),
                            snapshot.epoch()
                        );
                    }
                    rounds += 1;
                }
            });
        }
        // The writer churns premises (assert/retract toggles) and knowns,
        // publishing after every mutation, while the readers run.
        for round in 0..40usize {
            let premise = &premise_pool[round % premise_pool.len()];
            if !session.retract_constraint(premise) {
                session.assert_constraint(premise);
            }
            let set = AttrSet::singleton(round % 6);
            if round % 3 == 0 {
                session.forget_known(set);
            } else {
                session.set_known(set, (round % 7) as f64 + 1.0);
            }
            *mailbox.lock().unwrap() = session.snapshot();
        }
        done.store(true, Ordering::Relaxed);
    });
}

#[test]
fn concurrent_bound_readers_match_a_fresh_session_on_their_snapshot() {
    let u = Universe::of_size(5);
    let mut session = Session::with_config(u.clone(), tiny_config());
    session.assert_constraint(&DiffConstraint::parse("A -> {B}", &u).unwrap());
    session.set_known(u.parse_set("A").unwrap(), 10.0);
    session.set_known(AttrSet::EMPTY, 50.0);
    let queries: Vec<AttrSet> = (0u64..(1 << 5)).map(AttrSet::from_bits).collect();
    let mailbox = Mutex::new(session.snapshot());
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let mailbox = &mailbox;
            let done = &done;
            let queries = &queries;
            let u = &u;
            scope.spawn(move || {
                let mut rounds = 0u32;
                while !done.load(Ordering::Relaxed) || rounds < 2 {
                    let snapshot = Arc::clone(&mailbox.lock().unwrap());
                    // Oracle: a fresh, cache-cold session rebuilt from the
                    // snapshot's frozen premises and knowns.
                    let mut oracle = Session::new(u.clone());
                    for p in snapshot.premises() {
                        oracle.assert_constraint(p);
                    }
                    for &(set, value) in snapshot.knowns() {
                        oracle.set_known(set, value);
                    }
                    for &q in queries {
                        let got = snapshot.bound(q);
                        let want = oracle.bound(q);
                        match (got, want) {
                            (Ok(g), Ok(w)) => assert_eq!(
                                g.interval,
                                w.interval,
                                "bound diverged on {} (epoch {})",
                                u.format_set(q),
                                snapshot.epoch()
                            ),
                            (g, w) => assert_eq!(g.is_err(), w.is_err()),
                        }
                    }
                    rounds += 1;
                }
            });
        }
        for round in 0..16usize {
            let set = AttrSet::from_bits((round as u64 * 7 + 1) % (1 << 5));
            if round % 4 == 3 {
                session.forget_known(set);
            } else {
                session.set_known(set, (round % 9) as f64);
            }
            *mailbox.lock().unwrap() = session.snapshot();
        }
        done.store(true, Ordering::Relaxed);
    });
}

// ── Connection path vs. serial server on random multi-session scripts ───

/// A random constraint in trimmed wire form over the 4-attribute universe.
fn arb_constraint_text() -> impl Strategy<Value = String> {
    let u = Universe::of_size(UNIVERSE_N);
    (
        0u64..(1u64 << UNIVERSE_N),
        proptest::collection::vec(0u64..(1u64 << UNIVERSE_N), 0..3),
    )
        .prop_map(move |(lhs, members)| {
            let constraint = DiffConstraint::new(
                AttrSet::from_bits(lhs),
                members.into_iter().map(AttrSet::from_bits).collect(),
            );
            diffcon_engine::protocol::format_wire(&constraint, &u)
        })
}

fn arb_set_text() -> impl Strategy<Value = String> {
    let u = Universe::of_size(UNIVERSE_N);
    (0u64..(1u64 << UNIVERSE_N)).prop_map(move |mask| {
        let set = AttrSet::from_bits(mask);
        if set.is_empty() {
            "{}".to_string()
        } else {
            u.format_set(set)
        }
    })
}

/// One random request line of the multi-session serving vocabulary.
fn arb_line() -> impl Strategy<Value = String> {
    prop_oneof![
        // Queries listed several times so they dominate, as in real
        // serving traffic (the proptest shim's union is unweighted).
        arb_constraint_text().prop_map(|c| format!("implies {c}")),
        arb_constraint_text().prop_map(|c| format!("implies {c}")),
        arb_constraint_text().prop_map(|c| format!("implies {c}")),
        proptest::collection::vec(arb_constraint_text(), 1..4)
            .prop_map(|cs| format!("batch {}", cs.join(" ; "))),
        arb_set_text().prop_map(|s| format!("bound {s}")),
        arb_set_text().prop_map(|s| format!("bound {s}")),
        arb_constraint_text().prop_map(|c| format!("witness {c}")),
        arb_constraint_text().prop_map(|c| format!("derive {c}")),
        // Mid-stream state churn.
        arb_constraint_text().prop_map(|c| format!("assert {c}")),
        arb_constraint_text().prop_map(|c| format!("retract {c}")),
        (arb_set_text(), 0u32..50).prop_map(|(s, v)| format!("known {s} = {v}")),
        arb_set_text().prop_map(|s| format!("forget {s}")),
        // Multi-session control flow.
        Just("session new".to_string()),
        (0u64..4).prop_map(|id| format!("session use {id}")),
        (0u64..2, 0u64..4).prop_map(|(some, id)| if some == 1 {
            format!("session close {id}")
        } else {
            "session close".to_string()
        }),
        Just("session list".to_string()),
        Just("universe 4".to_string()),
        Just("premises".to_string()),
        Just("knowns".to_string()),
        Just("stats".to_string()),
    ]
}

/// Strips the non-semantic telemetry fields that legitimately differ
/// between two servers (latencies, cache-hit flags, and the route names
/// derived from them).  `stats` lines are reduced to their head for the
/// same reason.
fn normalize(text: &str) -> String {
    if text.starts_with("stats") {
        return "stats".to_string();
    }
    text.split_whitespace()
        .filter(|t| !t.starts_with("us=") && !t.starts_with("cached=") && !t.starts_with("route="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs a script through [`Server::handle_line`] and, pipelined, through
/// the connection driver as one text stream — every reply framed into one
/// output stream and every record committed; asserts the normalized reply
/// streams agree line-for-line.
fn assert_pipeline_matches_serial(lines: &[String]) {
    let mut serial = Server::new(tiny_config());
    let serial_replies: Vec<String> = lines
        .iter()
        .map(|line| normalize(&serial.handle_line(line).text))
        .filter(|text| !text.is_empty())
        .collect();
    let mut connection = Connection::new(Server::new(tiny_config()), MAX_REQUEST_BYTES, false);
    let script: Vec<u8> = lines
        .iter()
        .flat_map(|line| [line.as_bytes(), b"\n"])
        .flatten()
        .copied()
        .collect();
    let mut stream = Vec::new();
    assert!(
        !connection.feed(&script, &mut stream),
        "scripts do not contain quit"
    );
    let streamed: Vec<String> = String::from_utf8(stream)
        .expect("replies are UTF-8")
        .lines()
        .map(normalize)
        .collect();
    assert_eq!(
        serial_replies, streamed,
        "the connection path diverged from serial execution"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of multi-session queries returns exactly the
    /// answers the serial single-session engine gives, including under
    /// cache eviction (tiny bounds) and mid-stream assert/retract.
    #[test]
    fn pipeline_replies_equal_serial_replies(
        body in proptest::collection::vec(arb_line(), 1..40),
    ) {
        // Open a session in slot 0 so most traffic lands somewhere live;
        // the random tail still exercises empty slots and error paths.
        let mut lines = vec!["universe 4".to_string()];
        lines.extend(body);
        assert_pipeline_matches_serial(&lines);
    }
}

/// A deterministic heavy interleaving across two sessions: both sessions'
/// goals repeat (cache hits + evictions), writers mutate between rounds,
/// and the reply streams must still agree.
#[test]
fn two_session_interleaved_traffic_matches_serial() {
    let u = Universe::of_size(UNIVERSE_N);
    let mut gen = diffcon::random::ConstraintGenerator::new(9, &u);
    let shape = diffcon::random::ConstraintShape::default();
    let goals = gen.constraint_set(20, &shape);
    let mut lines = vec![
        "universe 4".to_string(),
        "assert A->{B}".to_string(),
        "session new".to_string(),
        "universe 4".to_string(),
        "assert B->{C}".to_string(),
        "known A = 7".to_string(),
    ];
    for round in 0..6 {
        for (i, goal) in goals.iter().enumerate() {
            let slot = (i + round) % 2;
            lines.push(format!("session use {slot}"));
            let wire = diffcon_engine::protocol::format_wire(goal, &u);
            lines.push(format!("implies {wire}"));
            if i % 5 == 0 {
                lines.push("bound AB".to_string());
            }
        }
        // Mid-stream churn in both sessions.
        lines.push("session use 0".to_string());
        lines.push(if round % 2 == 0 {
            "retract A->{B}".to_string()
        } else {
            "assert A->{B}".to_string()
        });
        lines.push("session use 1".to_string());
        lines.push(format!("known B = {round}"));
        lines.push("stats".to_string());
    }
    assert_pipeline_matches_serial(&lines);
}

// ── Snapshot lifetime across session closure ────────────────────────────

#[test]
fn captured_snapshots_survive_session_closure() {
    let mut server = Server::new(SessionConfig::default());
    server.handle_line("universe 4");
    server.handle_line("assert A->{B}");
    server.handle_line("assert B->{C}");
    let session = server.session().expect("session is open");
    let goal = DiffConstraint::parse("A->{C}", session.universe()).unwrap();
    let snapshot = session.snapshot();
    // Close the slot: the session is dropped, the captured snapshot lives.
    assert!(server
        .handle_line("session close")
        .text
        .starts_with("ok session closed=0"));
    assert!(snapshot.implies(&goal).implied);
    assert_eq!(snapshot.premises().len(), 2);
}
