//! Flight-recorder invariants, exercised end to end through the protocol:
//!
//! * every request leaves exactly one record, in order, carrying its verb —
//!   queries, mutations, errors, silent lines, and framing refusals, in
//!   both framings — and a connection's cost series add up its records;
//! * `debug recent` returns the most recent records newest-first, and every
//!   request this connection issued is present with its reply's trace id;
//! * trace ids are unique across concurrent TCP connections and strictly
//!   monotone within each connection;
//! * a live dump taken while another thread is writing records always
//!   parses — the seqlock ring never hands out a torn record.
//!
//! The flight ring is a process-wide global shared by every test in this
//! binary, so assertions filter by connection id (`trace >> 32`) where they
//! depend on *which* records appear, and validate format only where they
//! depend on *all* records.  Every request writes a record, and the total
//! traffic across the binary (about 600 requests) stays below the ring
//! capacity (1024), so nothing tested here is ever evicted.

use diffcon_engine::protocol::{self, binary};
use diffcon_engine::{Client, EngineMetrics, NetConfig, NetServer, Server, SessionConfig};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(10);

/// Known route vocabulary — a dumped record must use one of it.
const ROUTES: &[&str] = &[
    "?",
    "trivial",
    "fd",
    "lattice",
    "sat",
    "cached",
    "propagation",
    "relaxed",
    "batch",
    "witness",
    "derive",
    "mine",
    "analyze",
    "bound",
];

/// Extracts `key=value` from a reply or a rendered record.
fn field<'a>(text: &'a str, key: &str) -> &'a str {
    text.split_whitespace()
        .find_map(|t| t.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("field {key} missing in `{text}`"))
}

/// Splits a `debug recent` reply into rendered records (newest first) and
/// checks the advertised count matches.  Each record is returned as the
/// full `trace=… … epoch=…` token run.
fn parse_dump(reply: &str) -> Vec<String> {
    assert!(reply.starts_with("flight n="), "got: {reply}");
    let n: usize = field(reply, "n").parse().expect("n numeric");
    let records: Vec<String> = match reply.find("trace=") {
        Some(at) => reply[at..].split(" | ").map(str::to_string).collect(),
        None => Vec::new(),
    };
    assert_eq!(records.len(), n, "n= disagrees with record count: {reply}");
    records
}

/// Asserts one rendered record is complete and internally consistent:
/// all thirteen fields present, numerics numeric, verb/route from the
/// known vocabularies, trace origin equal to the connection.  A torn read
/// would fail here — a half-written record mixes two requests' words, so
/// its trace and connection disagree or its numerics are garbage.
fn assert_wellformed(record: &str) {
    for key in [
        "trace",
        "conn",
        "slot",
        "cached",
        "in",
        "out",
        "frame_us",
        "plan_us",
        "decide_us",
        "reply_us",
        "epoch",
    ] {
        let value = field(record, key);
        assert!(
            value.parse::<u64>().is_ok(),
            "{key}={value} not numeric in `{record}`"
        );
    }
    let verb = field(record, "verb");
    assert!(
        verb == "?" || protocol::VERBS.iter().any(|v| v.name == verb),
        "unknown verb {verb} in `{record}`"
    );
    let route = field(record, "route");
    assert!(
        ROUTES.contains(&route),
        "unknown route {route} in `{record}`"
    );
    let trace: u64 = field(record, "trace").parse().unwrap();
    let conn: u64 = field(record, "conn").parse().unwrap();
    assert_eq!(trace >> 32, conn, "trace origin != conn in `{record}`");
}

/// `debug recent` holds every request this connection just ran, newest
/// first, with trace ids strictly decreasing down the dump and matching
/// the ids the replies advertised.
#[test]
fn debug_recent_is_newest_first_and_complete() {
    let mut server = Server::new(SessionConfig::default());
    server.handle_line("universe 4");
    server.handle_line("assert A->{B}");
    server.handle_line("assert B->{C}");
    let mut issued: Vec<u64> = Vec::new();
    for goal in ["A->{C}", "A->{B}", "B->{C}", "C->{A}", "A->{C}", "AB->{C}"] {
        let reply = server.handle_line(&format!("explain {goal}")).text;
        issued.push(field(&reply, "trace").parse().expect("trace numeric"));
    }
    let conn = issued[0] >> 32;
    let dump = server.handle_line("debug recent 1024").text;
    let ours: Vec<u64> = parse_dump(&dump)
        .iter()
        .inspect(|record| assert_wellformed(record))
        .map(|record| field(record, "trace").parse::<u64>().unwrap())
        .filter(|trace| trace >> 32 == conn)
        .collect();
    // Newest first: the six explains, then the three set-up requests, each
    // numbered by its position on the connection.
    let expected: Vec<u64> = (1..=9).rev().map(|seq| (conn << 32) | seq).collect();
    assert_eq!(ours, expected, "dump: {dump}");
    assert_eq!(
        issued,
        expected[..6].iter().rev().copied().collect::<Vec<_>>()
    );
    // And `debug trace` finds each one individually.
    for trace in issued {
        let one = server.handle_line(&format!("debug trace {trace}")).text;
        assert!(one.starts_with("flight n=1 "), "got: {one}");
        assert_eq!(field(&one, "trace"), trace.to_string());
        assert_eq!(field(&one, "verb"), "explain");
    }
}

fn spawn_server(config: NetConfig) -> (SocketAddr, diffcon_engine::ShutdownHandle) {
    let server = NetServer::bind("127.0.0.1:0", config).expect("loopback bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    std::thread::spawn(move || server.run().expect("reactors"));
    (addr, handle)
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect_timeout(&addr, DEADLINE).expect("connect");
    client.set_read_timeout(Some(DEADLINE)).expect("timeout");
    client
}

/// One pipelined burst: every `VERBS` example (`quit` last), a parse
/// error, a silent line, and a framing refusal; a binary burst adds the
/// three mask frames and ends on the refusal instead, since a corrupt
/// binary header closes the connection.  Returns the burst, the replies it
/// earns, and each request's verb in order (`?` for none).
fn verb_sweep(binary_framing: bool, max: usize) -> (Vec<u8>, usize, Vec<&'static str>) {
    let (quit, examples) = protocol::VERBS.split_last().expect("verb table");
    let oversized = "x".repeat(max + 1);
    let mut lines: Vec<(&str, &str)> = examples.iter().map(|v| (v.example, v.name)).collect();
    lines.extend([("implies", "implies"), ("# silent", "?")]);
    if !binary_framing {
        lines.extend([(oversized.as_str(), "?"), (quit.example, quit.name)]);
    }
    let mut burst = Vec::new();
    for (text, _) in &lines {
        if binary_framing {
            binary::encode_line(text, &mut burst);
        } else {
            burst.extend_from_slice(text.as_bytes());
            burst.push(b'\n');
        }
    }
    let mut replies = lines
        .iter()
        .filter(|(text, _)| !protocol::is_silent(text))
        .count();
    let mut verbs: Vec<&str> = lines.iter().map(|(_, verb)| *verb).collect();
    if binary_framing {
        binary::encode_implies(0b1, &[0b10], &mut burst);
        binary::encode_bound(0b11, &mut burst);
        binary::encode_assert(0b1, &[0b10], &mut burst);
        burst.extend_from_slice(&binary::line_header(max + 1));
        verbs.extend(["implies", "bound", "assert", "?"]);
        replies += 4;
    }
    (burst, replies, verbs)
}

/// Every request leaves exactly one record — in request order, carrying
/// its verb, numbered by its position on the connection — and the
/// connection's series add its records up: one request per record, and
/// exactly the bytes the records say went in and out (the binary handshake
/// included).  Checked in both framings, one connection each, with the
/// dump read from a second connection.
#[test]
fn every_request_leaves_one_record_and_the_connection_adds_them_up() {
    const MAX: usize = 64;
    let config = NetConfig {
        binary: true,
        max_request_bytes: MAX,
        ..NetConfig::default()
    };
    let (addr, handle) = spawn_server(config);
    for binary_framing in [false, true] {
        let (burst, expected, verbs) = verb_sweep(binary_framing, MAX);
        let mut client = if binary_framing {
            Client::connect_binary_timeout(&addr, DEADLINE).expect("binary connect")
        } else {
            connect(addr)
        };
        client.set_read_timeout(Some(DEADLINE)).expect("timeout");
        let replies = client.run_frames(burst, expected).expect("sweep");
        let explain = replies.iter().find(|reply| reply.starts_with("explain "));
        let conn = field(explain.expect("explain reply"), "trace")
            .parse::<u64>()
            .expect("trace")
            >> 32;
        let dump = connect(addr).request("debug recent 1024").expect("dump");
        let mut ours = parse_dump(&dump);
        ours.retain(|record| field(record, "conn") == conn.to_string());
        ours.reverse();
        let got: Vec<&str> = ours.iter().map(|record| field(record, "verb")).collect();
        assert_eq!(got, verbs, "binary={binary_framing} dump: {dump}");
        let (mut bytes_in, mut bytes_out) = (0, 0);
        for (position, record) in ours.iter().enumerate() {
            let number = |key| field(record, key).parse::<u64>().expect("numeric");
            assert_eq!(number("trace"), (conn << 32) | (position as u64 + 1));
            bytes_in += number("in");
            bytes_out += number("out");
        }
        let exposition = EngineMetrics::global().exposition();
        for series in [
            format!("requests_total{{conn=\"{conn}\"}} {}", ours.len()),
            format!("bytes_total{{conn=\"{conn}\",direction=\"read\"}} {bytes_in}"),
            format!("bytes_total{{conn=\"{conn}\",direction=\"written\"}} {bytes_out}"),
        ] {
            let line = format!("\ndiffcond_connection_{series}\n");
            assert!(exposition.contains(&line), "missing {line}in {exposition}");
        }
    }
    handle.shutdown();
}

/// Across two live TCP connections, trace ids never collide, and within
/// each connection they are strictly increasing in issue order.
#[test]
fn trace_ids_are_unique_and_monotone_per_connection() {
    let (addr, handle) = spawn_server(NetConfig::default());
    let mut traces: Vec<Vec<u64>> = Vec::new();
    for _ in 0..2 {
        let mut client = connect(addr);
        client.request("universe 4").expect("universe");
        client.request("assert A->{B}").expect("assert");
        let mut own = Vec::new();
        for goal in ["A->{B}", "B->{A}", "A->{B}", "AB->{B}", "C->{D}"] {
            let reply = client.request(&format!("explain {goal}")).expect("explain");
            own.push(field(&reply, "trace").parse::<u64>().expect("trace"));
        }
        traces.push(own);
        client.quit().expect("quit");
    }
    handle.shutdown();
    let mut seen = HashSet::new();
    for own in &traces {
        for window in own.windows(2) {
            assert!(window[0] < window[1], "not monotone: {traces:?}");
        }
        for trace in own {
            assert!(seen.insert(*trace), "trace {trace} repeated: {traces:?}");
        }
    }
    let origins: HashSet<u64> = traces.iter().map(|own| own[0] >> 32).collect();
    assert_eq!(origins.len(), 2, "connections share an origin: {traces:?}");
}

/// Dumping the ring while another thread commits records never yields a
/// torn record: every dump parses and every record is well-formed.
#[test]
fn live_dump_never_tears() {
    let writer = std::thread::spawn(|| {
        let mut server = Server::new(SessionConfig::default());
        server.handle_line("universe 5");
        server.handle_line("assert A->{B}");
        for round in 0..60 {
            for goal in ["A->{B}", "B->{C}", "AC->{B}", "D->{E}"] {
                server.handle_line(&format!("implies {goal}"));
            }
            if round % 16 == 0 {
                std::thread::yield_now();
            }
        }
    });
    let mut reader = Server::new(SessionConfig::default());
    for _ in 0..200 {
        let dump = reader.handle_line("debug recent 20").text;
        for record in parse_dump(&dump) {
            assert_wellformed(&record);
        }
    }
    writer.join().expect("writer thread");
}
