//! Observability invariants, property-tested end to end:
//!
//! * the Prometheus exposition rendered by [`EngineMetrics::exposition`]
//!   always parses under the text-format grammar, never repeats a series,
//!   and its counters are monotone across scrapes — for *any* request
//!   traffic, including parse errors and no-session failures;
//! * after that traffic, `stats`, `session list`, and the session's labeled
//!   series agree, since all three read the one session ledger;
//! * the route `explain` reports is always the route the planner actually
//!   charged: the matching per-procedure counter (decided, cache-hit, or
//!   trivial) grows by exactly one.

use diffcon::procedure::ALL_PROCEDURES;
use diffcon_engine::{EngineMetrics, Server, SessionConfig};
use diffcon_obs::parse_exposition;
use proptest::prelude::*;
use std::collections::HashMap;

/// A request line drawn from every verb class, valid and malformed alike —
/// the exposition must stay well-formed under arbitrary traffic.
fn arb_request_line() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("universe 4".to_string()),
        Just("assert A->{B}".to_string()),
        Just("assert B->{C}".to_string()),
        Just("retract A->{B}".to_string()),
        Just("implies A->{C}".to_string()),
        Just("implies AB->{B}".to_string()),
        Just("batch A->{B} ; C->{D}".to_string()),
        Just("witness C->{A}".to_string()),
        Just("derive A->{B}".to_string()),
        Just("explain A->{B}".to_string()),
        Just("bound AB".to_string()),
        Just("known A = 3".to_string()),
        Just("trace on".to_string()),
        Just("trace off".to_string()),
        Just("stats".to_string()),
        Just("premises".to_string()),
        Just("frobnicate".to_string()),
        Just("implies A->{Z}".to_string()),
        Just("".to_string()),
    ]
}

/// Counter samples (`*_total` series plus the bare counters) keyed by
/// series identity, for cross-scrape monotonicity checks.  Per-session and
/// per-connection attribution series (any series with a `conn` label) are
/// excluded: their registry is capacity-bounded, so an entry present in an
/// earlier scrape can be evicted — vanish, not regress — by later traffic.
fn counter_samples(text: &str) -> HashMap<String, f64> {
    parse_exposition(text)
        .expect("exposition must parse")
        .into_iter()
        .filter(|s| s.name.ends_with("_total"))
        .filter(|s| !s.key().contains("conn="))
        .map(|s| (s.key(), s.value))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any traffic mix leaves the exposition parseable, duplicate-free,
    /// and with counters that only ever grow between scrapes.
    #[test]
    fn exposition_stays_wellformed_and_counters_monotone(
        lines in proptest::collection::vec(arb_request_line(), 1..25),
    ) {
        let before = counter_samples(&EngineMetrics::global().exposition());
        let mut server = Server::new(SessionConfig::default());
        for line in &lines {
            if server.handle_line(line).quit {
                break;
            }
        }
        let text = EngineMetrics::global().exposition();
        let series = parse_exposition(&text).expect("exposition must parse");
        // No duplicate series: every (name, labels) identity appears once.
        let mut seen = std::collections::HashSet::new();
        for s in &series {
            prop_assert!(seen.insert(s.key()), "duplicate series {}", s.key());
        }
        // Counters are monotone across scrapes.  Other tests run in
        // parallel against the same global registry, so growth floors are
        // the strongest safe assertion.
        let after = counter_samples(&text);
        for (key, earlier) in &before {
            let later = after.get(key).copied().unwrap_or(f64::NAN);
            prop_assert!(
                later >= *earlier,
                "counter {key} regressed: {earlier} -> {later}"
            );
        }
        // The traffic we just pushed is visible: requests_total grew.
        let requests = "diffcond_requests_total";
        prop_assert!(
            after[requests] > before[requests],
            "requests_total did not grow: {} -> {}",
            before[requests],
            after[requests]
        );
        // `stats`, `session list`, and the session series read one ledger.
        if server.session().is_some() {
            let stats = server.handle_line("stats").text;
            let list = server.handle_line("session list").text;
            let slot = server.registry().current_id();
            let labels = format!("conn=\"{}\",slot=\"{slot}\"", server.connection_id());
            let exposition = EngineMetrics::global().exposition();
            let mut lines = Vec::new();
            let mut hits = 0u64;
            for kind in ALL_PROCEDURES {
                // `<route>=<decided>/<hits>c/<µs>us` for routes that served.
                let field = stats
                    .split_whitespace()
                    .find_map(|t| t.strip_prefix(&format!("{}=", kind.name())))
                    .unwrap_or("0/0c/0us");
                let (decided, rest) = field.split_once('/').expect("decided");
                hits += rest.split_once('c').expect("hits").0.parse::<u64>().expect("hits");
                let route = format!("{labels},route=\"{}\"", kind.name());
                lines.push(format!("diffcond_session_route_total{{{route}}} {decided}"));
            }
            lines.push(format!("diffcond_session_cache_hits_total{{{labels}}} {hits}"));
            // `session list`: `<slot>:u<n>p<n>q<queries>`.
            let queries = list
                .split_once(&format!(" {slot}:u"))
                .and_then(|(_, desc)| desc.split_whitespace().next()?.rsplit_once('q'))
                .expect("current slot listed")
                .1;
            lines.push(format!("diffcond_session_queries_total{{{labels}}} {queries}"));
            for line in lines {
                let line = format!("\n{line}\n");
                prop_assert!(
                    exposition.contains(&line),
                    "missing {}after `{}` `{}`",
                    line,
                    stats,
                    list
                );
            }
        }
    }

    /// The route `explain` reports is the route the planner charged: the
    /// matching counter (per-procedure decided / cache-hit, or trivial)
    /// grows by exactly one, and no other route's does.
    #[test]
    fn explain_route_matches_planner_accounting(
        lhs in 0u64..16,
        members in proptest::collection::vec(0u64..16, 0..3),
        premises in proptest::collection::vec((0u64..16, 0u64..16), 0..4),
        repeat in any::<bool>(),
    ) {
        let mut server = Server::new(SessionConfig::default());
        server.handle_line("universe 4");
        for (p_lhs, p_rhs) in premises {
            let u = server.session().unwrap().universe().clone();
            let text = format!(
                "assert {}->{{{}}}",
                u.format_set(setlat::AttrSet::from_bits(p_lhs)),
                u.format_set(setlat::AttrSet::from_bits(p_rhs)),
            );
            server.handle_line(&text);
        }
        let u = server.session().unwrap().universe().clone();
        let member_texts: Vec<String> = members
            .iter()
            .map(|m| u.format_set(setlat::AttrSet::from_bits(*m)))
            .collect();
        let goal = format!(
            "explain {}->{{{}}}",
            u.format_set(setlat::AttrSet::from_bits(lhs)),
            member_texts.join(",")
        );
        if repeat {
            // Warm the answer cache so the cached route is exercised too.
            server.handle_line(&goal);
        }
        let stats_before = server.session().unwrap().stats().planner;
        let reply = server.handle_line(&goal).text;
        let stats_after = server.session().unwrap().stats().planner;
        prop_assert!(reply.starts_with("explain verdict="), "got: {reply}");
        let field = |key: &str| -> String {
            reply
                .split_whitespace()
                .find_map(|t| t.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("{key} missing: {reply}"))
                .to_string()
        };
        let route = field("route");
        let cached = field("cached") == "1";
        // The reply's fields must match the request's flight record exactly
        // — the reply and the record are two views of the same request.
        let trace = field("trace");
        let dump = server.handle_line(&format!("debug trace {trace}")).text;
        prop_assert!(dump.starts_with("flight n=1 "), "got: {dump}");
        let record_field = |key: &str| -> String {
            dump.split_whitespace()
                .find_map(|t| t.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("{key} missing: {dump}"))
                .to_string()
        };
        prop_assert_eq!(record_field("trace"), trace);
        prop_assert_eq!(record_field("verb"), "explain");
        prop_assert_eq!(record_field("route"), route.clone());
        prop_assert_eq!(record_field("cached"), field("cached"));
        prop_assert_eq!(record_field("decide_us"), field("decide_us"));
        prop_assert_eq!(record_field("epoch"), field("epoch"));
        if route == "trivial" {
            prop_assert_eq!(stats_after.trivial, stats_before.trivial + 1, "trivial: {}", reply);
        } else {
            for kind in ALL_PROCEDURES {
                let before = stats_before.of(kind);
                let after = stats_after.of(kind);
                let charged = kind.name() == route;
                let (expect_decided, expect_hits) = if charged && cached {
                    (before.decided, before.cache_hits + 1)
                } else if charged {
                    (before.decided + 1, before.cache_hits)
                } else {
                    (before.decided, before.cache_hits)
                };
                prop_assert_eq!(
                    (after.decided, after.cache_hits),
                    (expect_decided, expect_hits),
                    "route {} counters for {}: {}", kind.name(), route, reply
                );
            }
        }
    }
}
