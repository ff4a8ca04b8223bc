//! Workload self-checks: the generators are deterministic per seed and
//! differ across seeds, and each workload stresses what it claims to.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use crate::workloads::{Kind, Req, Workload};
use diffcon_engine::{Server, Session, SessionConfig};
use std::collections::HashSet;

fn lines(workload: &Workload, phase: u64, count: usize) -> Vec<String> {
    let mut stream = workload.stream(phase);
    let mut out: Vec<String> = workload
        .head(&mut stream)
        .iter()
        .map(|r| r.line(&workload.universe))
        .collect();
    out.extend(stream.take(count).map(|r| r.line(&workload.universe)));
    out
}

/// Decides the stream's goals after the warm-up on a library session;
/// returns `(answer-cache hit ratio over non-trivial goals, route names)`.
fn decide(workload: &Workload, phase: u64, count: usize) -> (f64, Vec<&'static str>) {
    let mut session = Session::with_config(workload.universe.clone(), SessionConfig::default());
    let mut stream = workload.stream(phase);
    for req in workload.head(&mut stream) {
        match req {
            Req::Implies(goal) => {
                session.implies(&goal);
            }
            Req::Assert(premise) => {
                session.assert_constraint(&premise);
            }
            Req::Known(set, value) => {
                session.set_known(set, value as f64);
            }
            Req::Universe(_) => {}
            other => panic!("unexpected prologue request {other:?}"),
        }
    }
    let (mut probed, mut hits, mut routes) = (0usize, 0usize, Vec::new());
    for req in stream.take(count) {
        let Req::Implies(goal) = req else {
            panic!("text workloads send implies only");
        };
        let outcome = session.implies(&goal);
        routes.push(outcome.route_name());
        if outcome.procedure.is_some() {
            probed += 1;
            hits += outcome.cached as usize;
        }
    }
    (hits as f64 / probed.max(1) as f64, routes)
}

fn share(routes: &[&str], route: &str) -> f64 {
    routes.iter().filter(|&&r| r == route).count() as f64 / routes.len() as f64
}

#[test]
fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
    for kind in Kind::ALL {
        let a = lines(&Workload::new(kind, 7), 1, 300);
        let b = lines(&Workload::new(kind, 7), 1, 300);
        let c = lines(&Workload::new(kind, 8), 1, 300);
        assert_eq!(a, b, "{}: same seed, different requests", kind.name());
        assert_ne!(
            a,
            c,
            "{}: seeds 7 and 8 give the same requests",
            kind.name()
        );
        let other_phase = lines(&Workload::new(kind, 7), 2, 300);
        assert_ne!(a, other_phase, "{}: phases share a stream", kind.name());
    }
}

#[test]
fn warm_text_hits_the_answer_cache_after_warm_up() {
    let (hit_ratio, _) = decide(&Workload::new(Kind::WarmText, 3), 1, 5000);
    assert!(hit_ratio >= 0.99, "warm_text hit ratio {hit_ratio}");
}

#[test]
fn cold_decide_always_misses_and_splits_lattice_and_sat() {
    let workload = Workload::new(Kind::ColdDecide, 3);
    let goals: Vec<Req> = workload.stream(1).take(400).collect();
    let distinct: HashSet<String> = goals.iter().map(|g| g.line(&workload.universe)).collect();
    assert_eq!(distinct.len(), goals.len(), "cold_decide repeated a goal");
    let (hit_ratio, routes) = decide(&workload, 1, 400);
    assert_eq!(hit_ratio, 0.0);
    let (lattice, sat) = (share(&routes, "lattice"), share(&routes, "sat"));
    assert!(lattice > 0.3 && sat > 0.2, "lattice {lattice}, sat {sat}");
    assert_eq!(
        share(&routes, "fd"),
        0.0,
        "a cold goal took the FD fast path"
    );
}

#[test]
fn every_request_is_served_without_err() {
    // Covers the churn_binary knowns: every `bound` is feasible, because
    // the knowns are the true supports of a database the premises hold on.
    for (kind, count) in [
        (Kind::WarmText, 2000),
        (Kind::ColdDecide, 300),
        (Kind::ChurnBinary, 6000),
    ] {
        let workload = Workload::new(kind, 11);
        let mut server = Server::new(SessionConfig::default());
        let mut bounds = 0;
        for line in lines(&workload, 1, count) {
            let reply = server.handle_line(&line);
            assert!(
                !reply.text.starts_with("err"),
                "{}: `{line}` answered `{}`",
                kind.name(),
                reply.text
            );
            bounds += reply.text.starts_with("bound") as usize;
        }
        if kind == Kind::ChurnBinary {
            assert!(bounds > count / 4, "churn_binary sent {bounds} bounds");
        }
    }
}

#[test]
fn churn_binary_writes_one_in_nine() {
    let workload = Workload::new(Kind::ChurnBinary, 5);
    let requests: Vec<Req> = workload.stream(1).take(9000).collect();
    let writes = requests.iter().filter(|r| r.is_write()).count();
    assert_eq!(writes, 1000);
    for verb in ["assert", "retract", "known", "forget", "implies", "bound"] {
        assert!(
            requests
                .iter()
                .any(|r| r.line(&workload.universe).starts_with(verb)),
            "no `{verb}` in the churn stream"
        );
    }
}
