//! Round-trip and grammar coverage for the `diffcond` wire protocol.
//!
//! Two directions are exercised, each over every verb (including the
//! discovery verbs `load` / `mine` / `adopt` / `dataset`):
//!
//! * **requests** — `parse_request(&format_request(r)) == Ok(r)` for
//!   randomized instances of every request form;
//! * **responses** — a server driven through randomized conversations only
//!   ever emits lines that parse under the response grammar of the protocol
//!   rustdoc, checked head-by-head (fields, counts, and listed constraints
//!   re-parse as claimed).

use diffcon::DiffConstraint;
use diffcon_engine::protocol::{format_request, parse_request, ProfileAction};
use diffcon_engine::{Request, Server, SessionConfig};
use proptest::prelude::*;
use setlat::Universe;

// ── Request generators ──────────────────────────────────────────────────

const UNIVERSE_N: usize = 4;

/// A random constraint in the trimmed wire form the parser emits
/// (`A->{B,CD}`), so the raw request text round-trips exactly.
fn arb_constraint_text() -> impl Strategy<Value = String> {
    let u = Universe::of_size(UNIVERSE_N);
    (
        0u64..(1u64 << UNIVERSE_N),
        proptest::collection::vec(0u64..(1u64 << UNIVERSE_N), 0..3),
    )
        .prop_map(move |(lhs, members)| {
            let constraint = DiffConstraint::new(
                setlat::AttrSet::from_bits(lhs),
                members
                    .into_iter()
                    .map(setlat::AttrSet::from_bits)
                    .collect(),
            );
            diffcon_engine::protocol::format_wire(&constraint, &u)
        })
}

/// A random set in compact notation (`"AB"`, or `"{}"` for the empty set).
fn arb_set_text() -> impl Strategy<Value = String> {
    let u = Universe::of_size(UNIVERSE_N);
    (0u64..(1u64 << UNIVERSE_N)).prop_map(move |mask| {
        let set = setlat::AttrSet::from_bits(mask);
        if set.is_empty() {
            "{}".to_string()
        } else {
            u.format_set(set)
        }
    })
}

fn arb_budgets() -> impl Strategy<Value = Option<(usize, usize)>> {
    (0u64..2, 0usize..5, 0usize..5).prop_map(|(some, lhs, rhs)| (some == 1).then_some((lhs, rhs)))
}

/// Gives a generated argument text the `'static` lifetime a borrowed
/// [`Request`] needs (the generated cases are few and short-lived).
fn leak(text: String) -> &'static str {
    Box::leak(text.into_boxed_str())
}

fn leak_all(texts: Vec<String>) -> Vec<&'static str> {
    texts.into_iter().map(leak).collect()
}

/// One random request of every form, uniformly across verbs.
fn arb_request() -> impl Strategy<Value = Request<'static>> {
    prop_oneof![
        (1usize..10)
            .prop_map(|n| Request::Universe(diffcon_engine::protocol::UniverseSpec::Size(n))),
        proptest::collection::vec(0u8..26, 1..5).prop_map(|ids| {
            let names = ids
                .into_iter()
                .map(|i| ((b'A' + i) as char).to_string())
                .collect();
            Request::Universe(diffcon_engine::protocol::UniverseSpec::Names(leak_all(
                names,
            )))
        }),
        Just(Request::SessionNew),
        (0u64..4).prop_map(Request::SessionUse),
        (0u64..2, 0u64..4).prop_map(|(some, id)| Request::SessionClose((some == 1).then_some(id))),
        Just(Request::SessionList),
        arb_constraint_text().prop_map(|c| Request::Assert(leak(c))),
        arb_constraint_text().prop_map(|c| Request::Retract(leak(c))),
        arb_constraint_text().prop_map(|c| Request::Implies(leak(c))),
        proptest::collection::vec(arb_constraint_text(), 1..4)
            .prop_map(|cs| Request::Batch(leak_all(cs))),
        arb_constraint_text().prop_map(|c| Request::Witness(leak(c))),
        arb_constraint_text().prop_map(|c| Request::Derive(leak(c))),
        arb_constraint_text().prop_map(|c| Request::Explain(leak(c))),
        any::<bool>().prop_map(|apply| Request::Analyze { apply }),
        any::<bool>().prop_map(Request::Trace),
        (arb_set_text(), -100.0f64..100.0).prop_map(|(s, v)| Request::Known(leak(s), v)),
        arb_set_text().prop_map(|s| Request::Forget(leak(s))),
        arb_set_text().prop_map(|s| Request::Bound(leak(s))),
        proptest::collection::vec(arb_set_text(), 1..5)
            .prop_map(|sets| Request::Load(leak_all(sets))),
        arb_budgets().prop_map(Request::Mine),
        arb_budgets().prop_map(Request::Adopt),
        Just(Request::Dataset),
        Just(Request::Premises),
        Just(Request::Knowns),
        Just(Request::Stats),
        Just(Request::StatsRecent),
        (0u64..2, 1usize..6).prop_map(|(some, n)| Request::DebugRecent((some == 1).then_some(n))),
        (0u64..1000).prop_map(Request::DebugTrace),
        prop_oneof![
            Just(ProfileAction::Start),
            Just(ProfileAction::Stop),
            Just(ProfileAction::Dump),
        ]
        .prop_map(Request::DebugProfile),
        Just(Request::Reset),
        Just(Request::Help),
        Just(Request::Quit),
        Just(Request::Empty),
    ]
}

// ── Response grammar validation ─────────────────────────────────────────

fn is_number(token: &str) -> bool {
    token.parse::<f64>().is_ok()
}

fn is_boundval(token: &str) -> bool {
    token == "inf" || token == "-inf" || is_number(token)
}

fn field_value<'a>(tokens: &[&'a str], key: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(&format!("{key}=")))
}

/// Validates one response line against the grammar in the protocol rustdoc.
/// Panics (with the offending line) when it does not conform.
fn validate_reply(universe: Option<&Universe>, line: &str) {
    if line.is_empty() {
        return; // Request::Empty
    }
    let mut tokens: Vec<&str> = line.split_whitespace().collect();
    // Under `trace on` every query reply carries a trailing
    // ` epoch=N` suffix; validate and strip it before the per-head checks
    // (which pin arities for `results`, `witness`, and `mined`).
    if matches!(
        tokens[0],
        "yes" | "no" | "results" | "witness" | "proof" | "unprovable" | "bound" | "mined" | "err"
    ) {
        if let Some(epoch) = tokens.last().and_then(|t| t.strip_prefix("epoch=")) {
            assert!(epoch.parse::<u64>().is_ok(), "epoch not numeric: {line}");
            tokens.pop();
        }
    }
    let (head, rest) = (tokens[0], &tokens[1..]);
    let parses_as_constraint = |text: &str| {
        universe
            .map(|u| DiffConstraint::parse(text, u).is_ok())
            // Replies listing constraints only arise once a session exists.
            .unwrap_or(false)
    };
    match head {
        "ok" | "bye" | "unprovable" => {}
        "err" => assert!(!rest.is_empty(), "bare err: {line}"),
        "yes" | "no" => {
            for key in ["route", "cached", "us"] {
                assert!(field_value(rest, key).is_some(), "{key} missing: {line}");
            }
        }
        "results" => {
            let n: usize = field_value(rest, "n")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("results without n=: {line}"));
            assert_eq!(rest.len(), n + 1, "results arity: {line}");
            assert!(
                rest[1..].iter().all(|t| *t == "y" || *t == "n"),
                "results tokens: {line}"
            );
        }
        "witness" => {
            assert!(
                rest == ["none"] || (rest.len() == 1 && rest[0].starts_with("set=")),
                "witness form: {line}"
            );
        }
        "proof" => {
            for key in ["size", "depth"] {
                let v = field_value(rest, key).unwrap_or_else(|| panic!("{key} missing: {line}"));
                assert!(is_number(v), "{key} not numeric: {line}");
            }
        }
        "bound" => {
            for key in ["lo", "hi"] {
                let v = field_value(rest, key).unwrap_or_else(|| panic!("{key} missing: {line}"));
                assert!(is_boundval(v), "{key} not a BOUNDVAL: {line}");
            }
            let route =
                field_value(rest, "route").unwrap_or_else(|| panic!("route missing: {line}"));
            assert!(
                ["cached", "propagation", "relaxed"].contains(&route),
                "bound route: {line}"
            );
        }
        "mined" => {
            let cover: usize = field_value(rest, "cover")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("mined without cover=: {line}"));
            assert!(
                field_value(rest, "minimal").is_some(),
                "minimal missing: {line}"
            );
            let listed = &rest[2..];
            assert_eq!(listed.len(), cover, "mined arity: {line}");
            for c in listed {
                assert!(
                    parses_as_constraint(c),
                    "unparseable constraint `{c}`: {line}"
                );
            }
        }
        "dataset" => {
            for key in ["baskets", "items"] {
                let v = field_value(rest, key).unwrap_or_else(|| panic!("{key} missing: {line}"));
                assert!(is_number(v), "{key} not numeric: {line}");
            }
            assert!(
                field_value(rest, "occurring").is_some(),
                "occurring missing: {line}"
            );
        }
        "premises" => {
            let n: usize = field_value(rest, "n")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("premises without n=: {line}"));
            let listed = &rest[1..];
            assert_eq!(listed.len(), n, "premises arity: {line}");
            for c in listed {
                assert!(parses_as_constraint(c), "unparseable premise `{c}`: {line}");
            }
        }
        "knowns" => {
            let n: usize = field_value(rest, "n")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("knowns without n=: {line}"));
            let listed = &rest[1..];
            assert_eq!(listed.len(), n, "knowns arity: {line}");
            for entry in listed {
                let (_, value) = entry
                    .split_once('=')
                    .unwrap_or_else(|| panic!("known entry `{entry}`: {line}"));
                assert!(is_boundval(value), "known value `{value}`: {line}");
            }
        }
        "stats" => {
            // A cold-start `stats recent` (no baseline frame yet) answers
            // the explicit warming form instead of zero rates.
            if rest == ["recent", "window_us=0", "warming=1"] {
                return;
            }
            assert!(
                field_value(rest, "queries").is_some(),
                "queries missing: {line}"
            );
            if rest.first() == Some(&"recent") {
                for key in ["window_us", "qps", "replies", "plan_p50us", "reply_p99us"] {
                    let v =
                        field_value(rest, key).unwrap_or_else(|| panic!("{key} missing: {line}"));
                    assert!(is_number(v), "{key} not numeric: {line}");
                }
            }
        }
        "flight" => {
            let n: usize = field_value(rest, "n")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("flight without n=: {line}"));
            let records: Vec<&[&str]> = if rest.iter().any(|t| t.starts_with("trace=")) {
                let body = &rest[rest
                    .iter()
                    .position(|t| t.starts_with("trace="))
                    .expect("position exists")..];
                body.split(|t| *t == "|").collect()
            } else {
                Vec::new()
            };
            assert_eq!(records.len(), n, "flight record count: {line}");
            for record in records {
                for key in ["trace", "conn", "slot", "cached", "plan_us", "epoch"] {
                    let v = field_value(record, key)
                        .unwrap_or_else(|| panic!("{key} missing in record: {line}"));
                    assert!(is_number(v), "{key} not numeric: {line}");
                }
                for key in ["verb", "route"] {
                    assert!(
                        field_value(record, key).is_some(),
                        "{key} missing in record: {line}"
                    );
                }
            }
        }
        "analyze" => {
            for key in ["premises", "redundant", "dead", "epoch", "us"] {
                let v = field_value(rest, key).unwrap_or_else(|| panic!("{key} missing: {line}"));
                assert!(is_number(v), "{key} not numeric: {line}");
            }
            let infeasible = field_value(rest, "infeasible")
                .unwrap_or_else(|| panic!("infeasible missing: {line}"));
            assert!(
                ["0", "1", "unchecked"].contains(&infeasible),
                "analyze verdict: {line}"
            );
            assert_eq!(
                field_value(rest, "conflict").is_some(),
                infeasible == "1",
                "a conflict is listed exactly when infeasible=1: {line}"
            );
        }
        "explain" => {
            let verdict =
                field_value(rest, "verdict").unwrap_or_else(|| panic!("verdict missing: {line}"));
            assert!(
                verdict == "yes" || verdict == "no",
                "explain verdict: {line}"
            );
            let route =
                field_value(rest, "route").unwrap_or_else(|| panic!("route missing: {line}"));
            assert!(
                ["trivial", "fd", "lattice", "sat"].contains(&route),
                "explain route: {line}"
            );
            for key in [
                "cached",
                "epoch",
                "probe_us",
                "plan_us",
                "decide_us",
                "total_us",
                "trace",
            ] {
                let v = field_value(rest, key).unwrap_or_else(|| panic!("{key} missing: {line}"));
                assert!(is_number(v), "{key} not numeric: {line}");
            }
        }
        "profile" => {
            for key in ["samples", "stacks"] {
                let v = field_value(rest, key).unwrap_or_else(|| panic!("{key} missing: {line}"));
                assert!(is_number(v), "{key} not numeric: {line}");
            }
            let stacks: usize = field_value(rest, "stacks")
                .and_then(|v| v.parse().ok())
                .expect("stacks checked numeric above");
            // `profile samples=N stacks=K stack count | stack count | …`:
            // the first stack pair rides in the fields group, the rest are
            // `|`-separated pairs.
            let groups: Vec<&[&str]> = rest.split(|t| *t == "|").collect();
            let check_pair = |stack: &str, count: &str| {
                assert!(
                    stack.split(';').count() >= 2 && stack.split(';').all(|f| !f.is_empty()),
                    "malformed stack `{stack}`: {line}"
                );
                assert!(
                    count.parse::<u64>().is_ok(),
                    "stack count `{count}`: {line}"
                );
            };
            if stacks == 0 {
                assert_eq!(groups.len(), 1, "stackless dump has groups: {line}");
                assert_eq!(groups[0].len(), 2, "stackless dump arity: {line}");
            } else {
                assert_eq!(groups.len(), stacks, "profile group count: {line}");
                assert_eq!(groups[0].len(), 4, "first profile group arity: {line}");
                check_pair(groups[0][2], groups[0][3]);
                for group in &groups[1..] {
                    assert_eq!(group.len(), 2, "profile group arity: {line}");
                    check_pair(group[0], group[1]);
                }
            }
        }
        "sessions" => {
            let n: usize = field_value(rest, "n")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("sessions without n=: {line}"));
            assert!(
                field_value(rest, "current").is_some(),
                "current missing: {line}"
            );
            let listed = &rest[2..];
            assert_eq!(listed.len(), n, "sessions arity: {line}");
            for desc in listed {
                // slotdesc ::= ID ":" ("-" | "u" NUMBER "p" NUMBER)
                let (id, state) = desc
                    .split_once(':')
                    .unwrap_or_else(|| panic!("slotdesc `{desc}`: {line}"));
                assert!(id.parse::<u64>().is_ok(), "slot id `{id}`: {line}");
                if state != "-" {
                    let body = state
                        .strip_prefix('u')
                        .unwrap_or_else(|| panic!("slotdesc state `{state}`: {line}"));
                    let (u, rest) = body
                        .split_once('p')
                        .unwrap_or_else(|| panic!("slotdesc state `{state}`: {line}"));
                    let (p, q) = rest
                        .split_once('q')
                        .unwrap_or_else(|| panic!("slotdesc state `{state}`: {line}"));
                    assert!(u.parse::<usize>().is_ok(), "slot universe `{u}`: {line}");
                    assert!(p.parse::<usize>().is_ok(), "slot premises `{p}`: {line}");
                    assert!(q.parse::<u64>().is_ok(), "slot queries `{q}`: {line}");
                }
            }
        }
        other => panic!("unknown response head `{other}`: {line}"),
    }
}

/// Feeds a request sequence to a fresh server and validates every reply,
/// tracking the active universe so listed constraints can be re-parsed.
fn run_and_validate(requests: &[Request<'_>]) {
    let mut server = Server::new(SessionConfig::default());
    for request in requests {
        let line = format_request(request);
        // The request side of the round trip.
        assert_eq!(
            parse_request(&line).as_ref(),
            Ok(request),
            "request round-trip failed for `{line}`"
        );
        let reply = server.handle_line(&line);
        // Track the *current slot's* universe (session verbs switch slots,
        // so it can change on any request) for re-parsing listed
        // constraints.
        let universe = server.session().map(|s| s.universe().clone());
        validate_reply(universe.as_ref(), &reply.text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every randomly generated request formats and re-parses identically.
    #[test]
    fn requests_round_trip(request in arb_request()) {
        let line = format_request(&request);
        prop_assert_eq!(parse_request(&line), Ok(request));
    }

    /// Random conversations (all verbs, valid and failing) produce only
    /// grammar-conforming replies.
    #[test]
    fn responses_conform_to_the_grammar(
        requests in proptest::collection::vec(arb_request(), 1..30),
    ) {
        // Prefix with a universe so most requests land in a live session;
        // the random tail still exercises the no-session error paths.
        let mut script = vec![Request::Universe(
            diffcon_engine::protocol::UniverseSpec::Size(UNIVERSE_N),
        )];
        script.extend(requests);
        run_and_validate(&script);
    }
}

/// A deterministic conversation touching every response head once, so
/// grammar coverage does not depend on random luck.
#[test]
fn every_response_verb_is_covered() {
    let script = [
        "",
        "# comment",
        "help",
        "universe 4",
        "assert A->{B}",
        "implies A->{B}",
        "implies B->{A}",
        "batch A->{B} ; B->{A}",
        "witness B->{A}",
        "witness A->{B}",
        "derive A->{B}",
        "derive B->{A}",
        "explain A->{B}",
        "explain B->{A}",
        "trace on",
        "implies A->{B}",
        "witness A->{B}",
        "batch A->{B} ; B->{A}",
        "trace off",
        "known A = 3",
        "bound AB",
        "analyze",
        "known AB = 5",
        "analyze",
        "analyze apply",
        "forget AB",
        "knowns",
        "load AB ; ABC ; B",
        "dataset",
        "mine",
        "adopt",
        "premises",
        "stats",
        "stats recent",
        "debug recent",
        "debug recent 2",
        "debug trace 1",
        "debug profile start",
        "debug profile dump",
        "debug profile stop",
        "forget A",
        "frobnicate",
        "session list",
        "session new",
        "session list",
        "session use 0",
        "session close 1",
        "session close 99",
        "reset",
        "quit",
    ];
    let mut server = Server::new(SessionConfig::default());
    let universe = Universe::of_size(4);
    for line in script {
        let reply = server.handle_line(line);
        validate_reply(Some(&universe), &reply.text);
    }
}

// ── Constraint text ─────────────────────────────────────────────────────

/// Whitespace the constraint parser skips: ASCII and Unicode spaces alike.
const SPACES: [char; 5] = [' ', '\t', '\u{a0}', '\u{2003}', '\u{3000}'];

/// Single-character attribute names for named universes, most of them
/// outside ASCII.
const NAMED: [&str; 14] = [
    "é", "ß", "λ", "Ω", "中", "ж", "ñ", "ø", "A", "z", "7", "Ж", "日", "+",
];

/// Respells a constraint's wire text without changing what it denotes:
/// `→` for `->`, `{}` for `∅`, and a space from [`SPACES`] before the
/// characters whose pick names one (never inside the `->` arrow).
fn respell(wire: &str, arrow: bool, braces: bool, picks: &[u8]) -> String {
    let mut text = if arrow {
        wire.replacen("->", "→", 1)
    } else {
        wire.to_string()
    };
    if braces {
        text = text.replace('∅', "{}");
    }
    let mut out = String::new();
    let mut prev = None;
    for (i, ch) in text.chars().chain(std::iter::once('\n')).enumerate() {
        let pick = usize::from(picks.get(i).copied().unwrap_or(u8::MAX));
        if pick < SPACES.len() && !(prev == Some('-') && ch == '>') {
            out.push(SPACES[pick]);
        }
        if ch != '\n' {
            out.push(ch);
        }
        prev = Some(ch);
    }
    out
}

/// A random constraint over the first `n` attributes of `u`: a left side
/// and up to four members, each any subset (so `∅` appears on both sides).
fn constraint_over(n: usize, lhs: u64, members: &[u64]) -> DiffConstraint {
    let full = setlat::AttrSet::full(n).bits();
    DiffConstraint::new(
        setlat::AttrSet::from_bits(lhs & full),
        members
            .iter()
            .map(|&m| setlat::AttrSet::from_bits(m & full))
            .collect(),
    )
}

/// The spelling knobs of [`respell`]: arrow, `{}` for `∅`, space picks.
fn arb_spelling() -> impl Strategy<Value = (bool, bool, Vec<u8>)> {
    (
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(0u8..12, 0..48),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Every constraint over a sized universe of 1–64 attributes parses
    /// back from its wire text, however that text is respelled.
    #[test]
    fn wire_text_parses_back_over_sized_universes(
        n in 1usize..=64,
        lhs in any::<u64>(),
        members in proptest::collection::vec(any::<u64>(), 0..=4),
        spelling in arb_spelling(),
    ) {
        let u = Universe::of_size(n);
        let c = constraint_over(n, lhs, &members);
        let wire = diffcon_engine::protocol::format_wire(&c, &u);
        prop_assert_eq!(DiffConstraint::parse(&wire, &u), Ok(c.clone()));
        let (arrow, braces, picks) = spelling;
        let text = respell(&wire, arrow, braces, &picks);
        prop_assert_eq!(DiffConstraint::parse(&text, &u), Ok(c), "for {:?}", text);
    }

    /// The same over a named universe whose single-character names are
    /// mostly outside ASCII.
    #[test]
    fn wire_text_parses_back_over_named_universes(
        n in 1usize..=NAMED.len(),
        lhs in any::<u64>(),
        members in proptest::collection::vec(any::<u64>(), 0..=4),
        spelling in arb_spelling(),
    ) {
        let u = Universe::from_names(NAMED[..n].iter().copied()).unwrap();
        let c = constraint_over(n, lhs, &members);
        let wire = diffcon_engine::protocol::format_wire(&c, &u);
        let (arrow, braces, picks) = spelling;
        let text = respell(&wire, arrow, braces, &picks);
        prop_assert_eq!(DiffConstraint::parse(&text, &u), Ok(c), "for {:?}", text);
    }
}

/// Malformed constraint texts and the full error each gets: the missing
/// arrow first, then the left side, then the braces, then the first bad
/// member.
#[test]
fn malformed_constraints_get_their_error_texts() {
    let sized = Universe::of_size(4);
    let named = Universe::from_names(["é", "B"]).unwrap();
    let cases: [(&Universe, &str, &str); 22] = [
        (&sized, "A {B}", r#"missing '->' in "A {B}""#),
        (&sized, "", r#"missing '->' in """#),
        (&sized, "Q {Z}", r#"missing '->' in "Q {Z}""#),
        (
            &sized,
            "A -> B",
            r#"family must be written in braces, got "B""#,
        ),
        (
            &sized,
            "A ->",
            r#"family must be written in braces, got """#,
        ),
        (
            &sized,
            "A -> {B",
            r#"family must be written in braces, got "{B""#,
        ),
        (
            &sized,
            "A -> B}",
            r#"family must be written in braces, got "B}""#,
        ),
        (
            &sized,
            "A -> {B},",
            r#"family must be written in braces, got "{B},""#,
        ),
        (
            &sized,
            "A -> ,{B}",
            r#"family must be written in braces, got ",{B}""#,
        ),
        (
            &sized,
            "A -> {Z} x",
            r#"family must be written in braces, got "{Z} x""#,
        ),
        (
            &sized,
            "QQ -> {B}",
            r#"bad set "QQ": unknown attribute "Q""#,
        ),
        (&sized, "Q -> Z", r#"bad set "Q": unknown attribute "Q""#),
        (
            &sized,
            "A --> {B}",
            r#"bad set "A -": unknown attribute "-""#,
        ),
        (
            &sized,
            "A → B -> {C}",
            r#"bad set "A → B": unknown attribute "→""#,
        ),
        (
            &sized,
            "ßA -> {B}",
            r#"bad set "ßA": unknown attribute "ß""#,
        ),
        (
            &sized,
            "A -> {B, Z}",
            r#"bad set "Z": unknown attribute "Z""#,
        ),
        (
            &sized,
            "A -> {B, CZ ,D}",
            r#"bad set "CZ": unknown attribute "Z""#,
        ),
        (
            &sized,
            "A -> {B,,Z}",
            r#"bad set "Z": unknown attribute "Z""#,
        ),
        (
            &sized,
            "A -> {B} -> {C}",
            r#"bad set "B} -> {C": unknown attribute "-""#,
        ),
        (
            &sized,
            "\u{3000}A\u{3000}->\u{3000}{B,\u{a0}Q\u{a0}}",
            r#"bad set "Q": unknown attribute "Q""#,
        ),
        (&sized, "A -> {é}", r#"bad set "é": unknown attribute "é""#),
        (
            &named,
            "é → {B, ßé}",
            r#"bad set "ßé": unknown attribute "ß""#,
        ),
    ];
    for (u, text, message) in cases {
        let error = DiffConstraint::parse(text, u).unwrap_err();
        assert_eq!(
            error.to_string(),
            format!("constraint parse error: {message}"),
            "for {text:?}"
        );
    }
}

/// Texts the skipping rules accept that look malformed: commas and braces
/// on the left side, a trailing comma that adds `∅`, and extra braces.
#[test]
fn skipping_rules_accept_stray_commas_and_braces() {
    let u = Universe::of_size(4);
    let parse = |text: &str| DiffConstraint::parse(text, &u).unwrap();
    assert_eq!(parse("{A, B} -> {C}"), parse("AB -> {C}"));
    assert_eq!(parse(",A,, -> {C}"), parse("A -> {C}"));
    assert_eq!(parse("A -> {B,}"), parse("A -> {B, ∅}"));
    assert_eq!(parse("A -> {,}"), parse("A -> {∅}"));
    assert_eq!(parse("A -> {{B,C}}"), parse("A -> {B, C}"));
    assert_eq!(parse("A -> {B}}"), parse("A -> {B}"));
    assert_eq!(parse("A -> { }"), parse("A -> {}"));
    assert_eq!(parse("A -> {{}}"), parse("A -> {∅}"));
    assert!(parse("A -> { }").rhs.is_empty());
}
