//! The connection driver, tested without a socket:
//!
//! * one byte stream per framing — text with CRLF, blank and `#` lines,
//!   bytes that are not UTF-8, an over-cap line, a final unterminated line
//!   or `quit` followed by more lines; binary with the handshake, every
//!   frame tag, a silent frame and a corrupt header — gives the same replies,
//!   the same records (clock fields aside), and the same telemetry (the
//!   process and connection counters, the stage-histogram counts, and the
//!   session ledger's queries) whether it is fed whole, one byte at a time,
//!   or in two pieces split at any byte boundary, and its records bill every
//!   byte it served and every byte it replied;
//! * a burst whose telemetry reads and session switch sit between queries
//!   answers as the same requests fed one at a time: the connection stages
//!   its records, and publishes them before any request that reads them or
//!   changes the current session;
//! * a binary handshake that no reply carried is billed when the driver is
//!   torn down, so the process and connection byte series equal the bytes
//!   that crossed the wire, while the request, reply and flight-record
//!   counts move only for requests.
//! * randomized multi-session scripts (session new/use/close, assert and
//!   retract churn, implies/batch/bound/witness/derive traffic) fed as one
//!   byte stream through the driver answer, line for line, as the same
//!   lines sent one at a time through [`Server::handle_line`] on a second
//!   server, up to the telemetry fields (`us=`, `cached=`, `route=`), also
//!   under constant eviction from tiny caches.
//!
//! The flight ring and the metrics registry are process-wide, so every test
//! here holds one lock: the counter deltas a test reads are its own.

use diffcon::DiffConstraint;
use diffcon_engine::connection::Connection;
use diffcon_engine::protocol::{binary, MAX_REQUEST_BYTES};
use diffcon_engine::{EngineMetrics, Server, SessionConfig};
use proptest::prelude::*;
use setlat::{AttrSet, Universe};
use std::sync::Mutex;

/// Serializes the tests of this binary (see the module docs).
static METRICS: Mutex<()> = Mutex::new(());

fn lock_metrics() -> std::sync::MutexGuard<'static, ()> {
    METRICS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The admission cap of every test connection.
const MAX: usize = 64;

/// A fresh driver and its connection id.
fn connection(binary: bool) -> (Connection, u64) {
    let server = Server::new(SessionConfig::default());
    let id = server.connection_id();
    (Connection::new(server, MAX, binary), id)
}

/// What a run moved in the telemetry: the [`counts`] deltas, the written
/// byte ones less the output's length (reply lengths depend on their `us=`
/// digits), then the stage-histogram counts and the queries charged to
/// slot 0's session.
type Telemetry = Vec<f64>;

/// Feeds `pieces` in order, then ends the input; returns the output, the
/// connection's records, oldest first, and, when `measure` asks for it
/// (reading the counters renders the whole exposition), the telemetry the
/// run moved.
fn drive(
    pieces: &[&[u8]],
    binary: bool,
    measure: bool,
) -> (Vec<u8>, Vec<String>, Option<Telemetry>) {
    let (mut driver, id) = connection(binary);
    let before = measure.then(|| (counts(id), stage_counts()));
    let mut out = Vec::new();
    for piece in pieces {
        if driver.feed(piece, &mut out) {
            break;
        }
    }
    driver.finish(&mut out);
    drop(driver);
    let moved = before.map(|before| {
        let after = (counts(id), stage_counts());
        let mut moved: Telemetry = (0..8).map(|i| after.0[i] - before.0[i]).collect();
        for i in [1, 7] {
            moved[i] -= out.len() as f64;
        }
        moved.extend((0..3).map(|i| (after.1[i] - before.1[i]) as f64));
        moved.push(ledger_queries(id, 0) as f64);
        moved
    });
    (out, records(id), moved)
}

/// The counts of the frame, plan and reply stage histograms.
fn stage_counts() -> [u64; 3] {
    EngineMetrics::global()
        .stages()
        .map(|(_, snapshot)| snapshot.count())
}

/// The queries charged to the session of connection `id`'s `slot`.
fn ledger_queries(id: u64, slot: u64) -> u64 {
    EngineMetrics::global()
        .session_costs(id, slot)
        .map_or(0, |costs| costs.queries.get())
}

/// Extracts `key=value` from a rendered record.
fn field<'a>(record: &'a str, key: &str) -> &'a str {
    record
        .split_whitespace()
        .find_map(|t| t.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("field {key} missing in `{record}`"))
}

/// Connection `id`'s records from the flight ring, oldest first.  A run
/// leaves at most a dozen, and the tests here run one at a time, so the
/// newest 64 hold them all.
fn records(id: u64) -> Vec<String> {
    let dump = Server::new(SessionConfig::default())
        .handle_line("debug recent 64")
        .text;
    let mut ours: Vec<String> = match dump.find("trace=") {
        Some(at) => dump[at..]
            .split(" | ")
            .filter(|record| field(record, "conn") == id.to_string())
            .map(str::to_string)
            .collect(),
        None => Vec::new(),
    };
    ours.reverse();
    ours
}

/// A record without its clock fields and its connection id: the trace's
/// sequence, slot, verb, route, cache outcome, bytes in, whether it
/// replied, and epoch.  (How many bytes a reply took depends on its `us=`
/// digits; [`billed`] checks those per run.)
fn unclocked(record: &str) -> String {
    let sequence = field(record, "trace").parse::<u64>().expect("trace") & 0xffff_ffff;
    let kept: Vec<&str> = ["slot", "verb", "route", "cached", "in", "epoch"]
        .iter()
        .map(|key| field(record, key))
        .collect();
    let replied = field(record, "out") != "0";
    format!("{sequence} {} replied={replied}", kept.join(" "))
}

/// A reply with its wall-clock `us=` value masked.
fn unclocked_reply(reply: &str) -> String {
    reply
        .split(' ')
        .map(|token| match token.split_once('=') {
            Some((key, _)) if key.ends_with("us") => format!("{key}=*"),
            _ => token.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Total `in=` and `out=` over a connection's records.
fn billed(records: &[String]) -> (u64, u64) {
    let sum = |key| {
        records
            .iter()
            .map(|r| field(r, key).parse::<u64>().expect("numeric"))
            .sum()
    };
    (sum("in"), sum("out"))
}

/// The text replies of a newline-framed output.
fn text_replies(out: &[u8]) -> Vec<String> {
    String::from_utf8(out.to_vec())
        .expect("replies are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The replies of a binary output, after its handshake.
fn binary_replies(out: &[u8]) -> Vec<String> {
    assert_eq!(out[..binary::ACK.len()], binary::ACK, "no ACK first");
    let mut at = binary::ACK.len();
    let mut replies = Vec::new();
    while at < out.len() {
        match binary::decode_reply(&out[at..], usize::MAX) {
            binary::DecodedReply::Frame(payload, used) => {
                replies.push(String::from_utf8(payload.to_vec()).expect("UTF-8 reply"));
                at += used;
            }
            other => panic!("malformed reply stream at {at}: {other:?}"),
        }
    }
    replies
}

/// The text framing's rules in one stream, ending in an unterminated line.
fn text_stream() -> Vec<u8> {
    let mut stream = b"universe 4\r\nassert A -> {B}\n\n# a comment\n  \n".to_vec();
    stream.extend_from_slice(b"implies \xff\xfe -> {A}\n");
    stream.extend_from_slice(format!("implies {}\n", "A".repeat(2 * MAX)).as_bytes());
    stream.extend_from_slice(b"implies A -> {B}\r\nknown A = 3\nbound AB\n");
    stream.extend_from_slice(b"implies B -> {A}");
    stream
}

/// A text stream that quits with more lines after `quit`.
fn quit_stream() -> Vec<u8> {
    b"universe 2\nimplies A -> {B}\nquit\nimplies A -> {A}\nstats\nlast".to_vec()
}

/// Every binary frame tag, a silent frame, and a corrupt header last (bytes
/// after it would never be read: the connection closes on it).
fn binary_stream() -> Vec<u8> {
    let mut stream = binary::MAGIC.to_vec();
    for line in ["universe 4", "# silent", "known A = 3", ""] {
        binary::encode_line(line, &mut stream);
    }
    binary::encode_assert(0b1, &[0b10], &mut stream);
    binary::encode_implies(0b1, &[0b10, 0b100], &mut stream);
    binary::encode_bound(0b11, &mut stream);
    binary::encode_line("implies \u{0}", &mut stream);
    stream.push(0x7f);
    stream
}

#[test]
fn replies_and_records_do_not_depend_on_how_the_input_is_chunked() {
    let _guard = lock_metrics();
    for (name, stream, binary_framing) in [
        ("text", text_stream(), false),
        ("quit", quit_stream(), false),
        ("binary", binary_stream(), true),
    ] {
        let served = match name {
            "quit" => {
                stream
                    .windows(5)
                    .position(|w| w == b"quit\n")
                    .expect("quit")
                    + 5
            }
            _ => stream.len(),
        };
        // Whole, one byte at a time, and in two pieces split at every byte
        // boundary; the telemetry is compared on the first two and at every
        // eighth split.
        let mut feeds: Vec<Vec<&[u8]>> = vec![vec![&stream[..]], stream.chunks(1).collect()];
        feeds.extend((1..stream.len()).map(|at| vec![&stream[..at], &stream[at..]]));
        let mut runs = feeds.iter().enumerate().map(|(i, pieces)| {
            let measure = i < 2 || (i - 1) % 8 == 0;
            let (out, records, telemetry) = drive(pieces, binary_framing, measure);
            let sizes: Vec<usize> = pieces.iter().map(|piece| piece.len()).collect();
            assert_eq!(
                billed(&records),
                (served as u64, out.len() as u64),
                "{name}, pieces of {sizes:?}: records do not bill the wire bytes"
            );
            let replies = if binary_framing {
                binary_replies(&out)
            } else {
                text_replies(&out)
            };
            let replies: Vec<String> = replies.iter().map(|r| unclocked_reply(r)).collect();
            let records: Vec<String> = records.iter().map(|r| unclocked(r)).collect();
            (sizes, replies, records, telemetry)
        });
        let (_, replies, whole_records, whole_telemetry) = runs.next().expect("whole run");
        let whole_telemetry = whole_telemetry.expect("the whole run is measured");
        let requests = whole_records.len() as f64;
        assert_eq!(
            whole_telemetry[2..6],
            [requests, whole_telemetry[3], requests, requests],
            "{name}: one request and one flight record per record"
        );
        assert_eq!(
            whole_telemetry[8..11],
            [requests; 3],
            "{name}: stage counts"
        );
        for (sizes, split_replies, split_records, split_telemetry) in runs {
            assert_eq!(
                replies, split_replies,
                "{name}, pieces of {sizes:?}: replies depend on chunking"
            );
            assert_eq!(
                whole_records, split_records,
                "{name}, pieces of {sizes:?}: records depend on chunking"
            );
            if let Some(split_telemetry) = split_telemetry {
                assert_eq!(
                    whole_telemetry, split_telemetry,
                    "{name}, pieces of {sizes:?}: telemetry depends on chunking"
                );
            }
        }
        match name {
            "text" => {
                // Three answered queries (two `implies`, one `bound`),
                // charged to the one session.
                assert_eq!(whole_telemetry[11], 3.0);
                assert_eq!(replies.len(), 8, "{replies:?}");
                assert!(replies[2].starts_with("err request is not valid UTF-8 (byte 0xff"));
                assert_eq!(
                    replies[3],
                    format!("err request line exceeds {MAX} bytes (got {})", 8 + 2 * MAX)
                );
                assert!(replies[7].starts_with("no route="), "{replies:?}");
                // Eleven lines in, three of them silent: one record each.
                assert_eq!(whole_records.len(), 11);
            }
            "quit" => {
                assert_eq!(replies.len(), 3, "{replies:?}");
                assert_eq!(replies[2], "bye");
            }
            _ => {
                assert_eq!(replies.len(), 7, "{replies:?}");
                assert!(replies[5].starts_with("err "), "{replies:?}");
                assert_eq!(replies[6], "err unknown binary frame tag 0x7f");
                // Two silent frames leave records but no replies.
                assert_eq!(whole_records.len(), 9);
            }
        }
    }
}

/// One counter of a parsed global exposition (0 when absent).
fn global(series: &[diffcon_obs::Series], name: &str, labels: &[(&str, &str)]) -> f64 {
    series
        .iter()
        .find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|(key, value)| s.labels.iter().any(|(k, v)| k == key && v == value))
        })
        .map_or(0.0, |s| s.value)
}

/// The counts a connection's teardown must reconcile: the process byte,
/// request, reply and flight-record counters, and connection `id`'s
/// request and byte series.
fn counts(id: u64) -> [f64; 8] {
    let conn = id.to_string();
    let exposition = EngineMetrics::global().exposition();
    let series = diffcon_obs::parse_exposition(&exposition).expect("exposition parses");
    let global = |name, labels: &[(&str, &str)]| global(&series, name, labels);
    [
        global("diffcond_bytes_total", &[("direction", "read")]),
        global("diffcond_bytes_total", &[("direction", "written")]),
        global("diffcond_requests_total", &[]),
        global("diffcond_replies_total", &[]),
        global("diffcond_flight_records_total", &[]),
        global("diffcond_connection_requests_total", &[("conn", &conn)]),
        global(
            "diffcond_connection_bytes_total",
            &[("conn", &conn), ("direction", "read")],
        ),
        global(
            "diffcond_connection_bytes_total",
            &[("conn", &conn), ("direction", "written")],
        ),
    ]
}

/// Runs `input` through a binary-allowed driver that is then torn down,
/// with or without an end of input first, and returns how each count of
/// [`counts`] moved.
fn teardown_deltas(input: &[u8], end_of_input: bool) -> [f64; 8] {
    let (mut driver, id) = connection(true);
    let before = counts(id);
    let mut out = Vec::new();
    driver.feed(input, &mut out);
    if end_of_input {
        driver.finish(&mut out);
    }
    drop(driver);
    let after = counts(id);
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn a_handshake_without_a_reply_is_billed_at_teardown() {
    let _guard = lock_metrics();
    // Handshake, then end of input, or teardown without one (an IO error,
    // or the server shutting down): 5 bytes each way and no request.
    for end_of_input in [true, false] {
        assert_eq!(
            teardown_deltas(&binary::MAGIC, end_of_input),
            [5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0],
            "end of input: {end_of_input}"
        );
    }
}

#[test]
fn a_handshake_before_a_silent_frame_is_billed_at_teardown() {
    let _guard = lock_metrics();
    // A 21-byte silent frame: one request and one record, no reply.
    let mut input = binary::MAGIC.to_vec();
    binary::encode_line("# sixteen bytes.", &mut input);
    assert_eq!(input.len(), 5 + 21);
    assert_eq!(
        teardown_deltas(&input, true),
        [26.0, 5.0, 1.0, 0.0, 1.0, 1.0, 26.0, 5.0]
    );
}

/// A reply with every clock field, the connection id, record byte counts
/// and the process's flight-record total masked, and each trace id cut to its per-connection sequence:
/// what two connections answering the same requests have in common.
fn comparable_reply(reply: &str) -> String {
    reply
        .split(' ')
        .map(|token| match token.split_once('=') {
            Some((key, _)) if key.ends_with("us") || ["conn", "out", "written"].contains(&key) => {
                format!("{key}=*")
            }
            Some(("trace", id)) => {
                let sequence = id.parse::<u64>().expect("trace id") & 0xffff_ffff;
                format!("trace={sequence}")
            }
            // A route's `decided/hits c/total us` stats field.
            Some((key, value)) if value.ends_with("us") => {
                let kept = value.rsplit_once('/').map_or(value, |(head, _)| head);
                format!("{key}={kept}/*")
            }
            _ => token.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn telemetry_reads_and_session_switches_in_a_burst_see_every_earlier_request() {
    let _guard = lock_metrics();
    let prologue = "universe 4\nassert A -> {B}\n";
    let burst = [
        "implies A -> {B}",
        "stats",
        "session list",
        "debug recent 3",
        "universe 4",
        "implies B -> {A}",
        "stats",
    ];
    let run = |one_piece: bool| {
        let (mut driver, id) = connection(false);
        let mut out = Vec::new();
        driver.feed(prologue.as_bytes(), &mut out);
        out.clear();
        if one_piece {
            let text: String = burst.iter().map(|line| format!("{line}\n")).collect();
            driver.feed(text.as_bytes(), &mut out);
        } else {
            for line in burst {
                driver.feed(format!("{line}\n").as_bytes(), &mut out);
            }
        }
        drop(driver);
        let replies: Vec<String> = text_replies(&out)
            .iter()
            .map(|reply| comparable_reply(reply))
            .collect();
        (replies, ledger_queries(id, 0))
    };
    let (one_piece, charged) = run(true);
    let (one_per_feed, charged_per_feed) = run(false);
    assert_eq!(one_piece, one_per_feed);
    // `session list` sees the first query charged to the first session…
    assert!(one_piece[2].ends_with(" 0:u4p1q1"), "{one_piece:?}");
    // …`debug recent` sees the records of every earlier request…
    assert!(
        one_piece[3].starts_with("flight n=3 ")
            && one_piece[3].contains("verb=session")
            && one_piece[3].contains("verb=implies"),
        "{one_piece:?}"
    );
    // …and the second query is charged to the session that answered it.
    assert_eq!((charged, charged_per_feed), (1, 1));
}

// ── The driver against the serial server on random multi-session scripts ─

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
        let _guard = lock_metrics();
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
    let _guard = lock_metrics();
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
