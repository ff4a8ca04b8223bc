//! Socket-level serving properties: the `diffcond serve` TCP front-end must
//! be *transparent* — byte-identical reply streams to an in-process
//! [`Server`] on the same scripts (up to the non-semantic telemetry
//! fields) — and *unwedgeable*:
//! malformed frames, oversized lines, random bytes, split writes, and early
//! disconnects must produce `err` replies or dropped connections, never a
//! panic, and the server must stay accept-ready throughout.

use diffcon_engine::client::{Client, ClientError};
use diffcon_engine::net::{NetConfig, NetServer, ShutdownHandle};
use diffcon_engine::{Server, SessionConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use setlat::{AttrSet, Universe};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const UNIVERSE_N: usize = 4;

/// A generous failure deadline: a correct server answers in microseconds;
/// only a deadlocked one runs into this, and the test then fails loudly
/// with a timeout error instead of hanging CI.
const DEADLINE: Duration = Duration::from_secs(30);

/// Tiny caches so eviction churn is constant, as in the PR-4 suites.
fn tiny_config() -> SessionConfig {
    SessionConfig {
        answer_cache_capacity: 4,
        bound_cache_capacity: 2,
        ..SessionConfig::default()
    }
}

/// Binds a server on an ephemeral loopback port and runs its reactors on
/// a background thread.  The thread ends when the handle shuts it down.
fn spawn_server(config: NetConfig) -> (SocketAddr, ShutdownHandle) {
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

/// One quick health probe: a fresh connection must serve a full
/// request/response exchange (the accept-ready assertion of the fuzz
/// suite).
fn assert_accept_ready(addr: SocketAddr) {
    let mut probe = connect(addr);
    assert_eq!(
        probe.raw_request("universe 2").expect("health probe"),
        "ok universe n=2 attrs=A,B"
    );
    probe.quit().expect("health probe quit");
}

/// Strips the telemetry fields (`us=`, `cached=`, `route=`) that
/// legitimately differ between runs; `stats` lines reduce to their head.
fn normalize(text: &str) -> String {
    if text.starts_with("stats") {
        return "stats".to_string();
    }
    text.split_whitespace()
        .filter(|t| !t.starts_with("us=") && !t.starts_with("cached=") && !t.starts_with("route="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The reply stream an in-process [`Server`] produces on `lines`.
fn in_process_replies(lines: &[String]) -> Vec<String> {
    let mut server = Server::new(tiny_config());
    let mut replies = Vec::new();
    for line in lines {
        let reply = server.handle_line(line);
        if !reply.text.is_empty() {
            replies.push(normalize(&reply.text));
        }
        if reply.quit {
            break;
        }
    }
    replies
}

/// Drives `lines` over one TCP connection (pipelined) and returns the
/// normalized reply stream.
fn tcp_replies(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let mut client = connect(addr);
    let replies = client
        .run_script(lines.iter().map(String::as_str))
        .expect("script round trip");
    replies.iter().map(|r| normalize(r)).collect()
}

// ── Random-script generators (the PR-4 serving vocabulary) ──────────────

fn arb_constraint_text() -> impl Strategy<Value = String> {
    let u = Universe::of_size(UNIVERSE_N);
    (
        0u64..(1u64 << UNIVERSE_N),
        proptest::collection::vec(0u64..(1u64 << UNIVERSE_N), 0..3),
    )
        .prop_map(move |(lhs, members)| {
            let constraint = diffcon::DiffConstraint::new(
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

/// One random request line — queries, churn, session control, and a salting
/// of malformed lines (trailing garbage, unknown verbs), because error
/// replies must be position-faithful over the wire too.
fn arb_line() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_constraint_text().prop_map(|c| format!("implies {c}")),
        arb_constraint_text().prop_map(|c| format!("implies {c}")),
        proptest::collection::vec(arb_constraint_text(), 1..4)
            .prop_map(|cs| format!("batch {}", cs.join(" ; "))),
        arb_set_text().prop_map(|s| format!("bound {s}")),
        arb_constraint_text().prop_map(|c| format!("witness {c}")),
        arb_constraint_text().prop_map(|c| format!("derive {c}")),
        arb_constraint_text().prop_map(|c| format!("assert {c}")),
        arb_constraint_text().prop_map(|c| format!("retract {c}")),
        (arb_set_text(), 0u32..50).prop_map(|(s, v)| format!("known {s} = {v}")),
        arb_set_text().prop_map(|s| format!("forget {s}")),
        proptest::collection::vec(arb_set_text(), 1..4)
            .prop_map(|bs| format!("load {}", bs.join(" ; "))),
        Just("session new".to_string()),
        (0u64..4).prop_map(|id| format!("session use {id}")),
        Just("session close".to_string()),
        Just("session list".to_string()),
        Just("universe 4".to_string()),
        Just("premises".to_string()),
        Just("knowns".to_string()),
        Just("dataset".to_string()),
        Just("stats".to_string()),
        Just("stats now".to_string()),
        Just("frobnicate".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random multi-request scripts replayed over TCP produce reply
    /// streams identical to an in-process server on the same scripts.
    #[test]
    fn tcp_reply_stream_equals_in_process_pipeline(
        body in proptest::collection::vec(arb_line(), 1..30),
    ) {
        let mut lines = vec!["universe 4".to_string()];
        lines.extend(body);
        let (addr, handle) = spawn_server(NetConfig {
            session: tiny_config(),
            ..NetConfig::default()
        });
        let want = in_process_replies(&lines);
        let got = tcp_replies(addr, &lines);
        handle.shutdown();
        prop_assert_eq!(got, want, "TCP diverged from the in-process server");
    }
}

/// Concurrent connections are fully isolated namespaces: each replays its
/// own script and must match its own in-process oracle, interleaved with
/// the others on the same server.
#[test]
fn concurrent_connections_each_match_their_own_oracle() {
    let (addr, handle) = spawn_server(NetConfig {
        session: tiny_config(),
        ..NetConfig::default()
    });
    each_matches_its_own_oracle(addr, 4);
    handle.shutdown();
}

/// Runs `connections` scripts concurrently against `addr`, one connection
/// each, every script its own mix of writes and reads; each reply stream
/// must equal its in-process oracle.
fn each_matches_its_own_oracle(addr: SocketAddr, connections: usize) {
    let scripts: Vec<Vec<String>> = (0..connections)
        .map(|i| {
            let mut lines = vec!["universe 4".to_string()];
            for round in 0..12 {
                match (i + round) % 4 {
                    0 => lines.push("assert A->{B}".to_string()),
                    1 => lines.push("implies A->{B}".to_string()),
                    2 => lines.push(format!("known AB = {}", i * 10 + round)),
                    _ => lines.push("bound AB".to_string()),
                }
            }
            lines.push("premises".to_string());
            lines.push("knowns".to_string());
            lines
        })
        .collect();
    std::thread::scope(|scope| {
        for script in &scripts {
            scope.spawn(move || {
                let want = in_process_replies(script);
                let got = tcp_replies(addr, script);
                assert_eq!(got, want, "connection diverged from its oracle");
            });
        }
    });
}

/// Two reactors accept from one listener: eight concurrent connections
/// each match their own oracle, whichever reactor took them, and after
/// shutdown `run` returns and every admission slot is released.
#[test]
fn two_reactors_serve_concurrent_connections_and_stop() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            session: tiny_config(),
            reactors: 2,
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let (done, ran) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || done.send(server.run()));
    each_matches_its_own_oracle(addr, 8);
    handle.shutdown();
    ran.recv_timeout(DEADLINE)
        .expect("run() did not return after shutdown")
        .expect("the reactors ran");
    runner
        .join()
        .expect("the server thread")
        .expect("run()'s result was received");
    assert_eq!(handle.active_connections(), 0);
}

/// Sessions die with their connection: premises asserted on one connection
/// are invisible to a parallel connection and gone after reconnecting.
#[test]
fn namespaces_are_per_connection_and_close_on_disconnect() {
    let (addr, handle) = spawn_server(NetConfig::default());
    let mut a = connect(addr);
    a.request("universe 4").unwrap();
    a.request("assert A -> {B}").unwrap();
    assert_eq!(a.request("premises").unwrap(), "premises n=1 A->{B}");
    // A parallel connection starts from nothing.
    let mut b = connect(addr);
    assert!(matches!(
        b.request("premises"),
        Err(ClientError::Server(m)) if m.starts_with("no session")
    ));
    b.request("universe 4").unwrap();
    assert_eq!(b.request("premises").unwrap(), "premises n=0");
    drop(a);
    // Reconnecting does not resurrect the dropped namespace.
    let mut again = connect(addr);
    again.request("universe 4").unwrap();
    assert_eq!(again.request("premises").unwrap(), "premises n=0");
    handle.shutdown();
}

/// The malformed-frame fuzz: random bytes (UTF-8 or not), randomly split
/// writes with pauses, truncated lines, and early disconnects — the server
/// must never panic and must stay accept-ready after every abuse.
#[test]
fn malformed_frames_never_wedge_the_server() {
    let (addr, handle) = spawn_server(NetConfig {
        max_request_bytes: 256,
        ..NetConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0xBADF00D);
    for round in 0..40 {
        let mut stream = TcpStream::connect(addr).expect("fuzz connect");
        stream.set_read_timeout(Some(DEADLINE)).unwrap();
        // Compose a random payload: a few frames of random bytes, some
        // newline-terminated, some not, some far over the line cap.
        let frames = rng.gen_range(1..5);
        let mut payload = Vec::new();
        for _ in 0..frames {
            let len = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(0..8),
                1 => rng.gen_range(8..64),
                2 => rng.gen_range(200..400),
                _ => rng.gen_range(400..2000),
            };
            for _ in 0..len {
                // Mostly printable, salted with raw bytes (incl. invalid
                // UTF-8 lead bytes) and protocol-ish characters.
                let b = match rng.gen_range(0..6u32) {
                    0 => rng.gen_range(0x80..=0xff),
                    1 => b';',
                    2 => b'{',
                    _ => rng.gen_range(0x20..0x7f),
                };
                payload.push(b);
            }
            if rng.gen_range(0..4u32) != 0 {
                payload.push(b'\n');
            }
        }
        // Write it in random splits, sometimes pausing, sometimes
        // disconnecting mid-frame.
        let abort_at = if rng.gen_range(0..3u32) == 0 {
            rng.gen_range(0..payload.len().max(1))
        } else {
            payload.len()
        };
        let mut written = 0;
        while written < abort_at {
            let chunk = rng.gen_range(1..=(abort_at - written).min(97));
            if stream
                .write_all(&payload[written..written + chunk])
                .is_err()
            {
                break; // server already dropped us; that's allowed
            }
            written += chunk;
            if rng.gen_range(0..8u32) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        if rng.gen_range(0..2u32) == 0 {
            // Half the time, read whatever came back before hanging up.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
            let mut sink = [0u8; 4096];
            let _ = stream.read(&mut sink);
        }
        drop(stream);
        // The serving loop must still be alive and correct.
        assert_accept_ready(addr);
        assert!(
            handle.active_connections() <= 40,
            "round {round}: connection slots are leaking"
        );
    }
    handle.shutdown();
}

/// Oversized and undecodable lines get `err` replies on the same
/// connection, which keeps serving correct answers afterwards.
#[test]
fn framing_violations_answer_err_and_keep_the_connection() {
    let (addr, handle) = spawn_server(NetConfig {
        max_request_bytes: 64,
        ..NetConfig::default()
    });
    let mut client = connect(addr);
    client.request("universe 4").unwrap();
    // Oversized: discarded with exact accounting, answered in order.
    let long = format!("implies {}", "A".repeat(200));
    let reply = client.raw_request(&long).unwrap();
    assert_eq!(
        reply,
        format!("err request line exceeds 64 bytes (got {})", long.len())
    );
    // Undecodable bytes: the raw socket write bypasses the typed client.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(DEADLINE)).unwrap();
    raw.write_all(b"universe 4\nimplies \xff\xfe\nstats\n")
        .unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        lines.push(line.trim_end().to_string());
    }
    assert_eq!(lines[0], "ok universe n=4 attrs=A,B,C,D");
    assert!(
        lines[1].starts_with("err request is not valid UTF-8 (byte 0xff at position 9"),
        "got: {}",
        lines[1]
    );
    assert!(lines[2].starts_with("stats"), "got: {}", lines[2]);
    // The first connection also kept serving across all of the above.
    assert!(client
        .request("implies AB -> {B}")
        .unwrap()
        .starts_with("yes"));
    client.quit().unwrap();
    handle.shutdown();
}

/// Past the admission cap a connection gets one `err` line and a close;
/// slots free on disconnect and the listener itself never blocks.
#[test]
fn connection_cap_refuses_without_wedging() {
    let (addr, handle) = spawn_server(NetConfig {
        max_connections: 2,
        ..NetConfig::default()
    });
    let mut a = connect(addr);
    let mut b = connect(addr);
    a.request("universe 2").unwrap();
    b.request("universe 2").unwrap();
    // Third connection: refused with the capacity error, then closed.
    let mut refused_seen = false;
    for _ in 0..50 {
        let mut c = connect(addr);
        match c.raw_request("universe 2") {
            Ok(reply) if reply.starts_with("err server at connection capacity") => {
                refused_seen = true;
                break;
            }
            // The admission gauge is updated by the handler thread; a
            // just-accepted probe can sneak under the cap. Retry.
            Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    assert!(refused_seen, "cap never refused a connection");
    assert!(handle.refused_connections() > 0);
    // Freeing a slot re-admits new connections.
    drop(a);
    for _ in 0..100 {
        let mut c = connect(addr);
        if let Ok(reply) = c.raw_request("universe 2") {
            if reply.starts_with("ok universe") {
                drop(b);
                handle.shutdown();
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("freed connection slot was never re-admitted");
}

/// A strict request/response client must get every reply without
/// pipelining anything: each request is answered as it is parsed and its
/// reply written out before the reactor waits again.  (A server that held
/// replies back for more input would make this test hit its read
/// deadline.)
#[test]
fn strict_request_response_clients_never_wait_for_a_wave() {
    let (addr, handle) = spawn_server(NetConfig::default());
    let mut client = connect(addr);
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.request("universe 4").unwrap();
    client.request("assert A -> {B}").unwrap();
    for _ in 0..20 {
        assert!(client
            .request("implies A -> {B}")
            .unwrap()
            .starts_with("yes"));
        assert!(client
            .request("witness AB -> {C}")
            .unwrap()
            .starts_with("witness"));
        let interval = client.bound("AB").unwrap();
        assert_eq!(interval.lo, 0.0);
    }
    client.quit().unwrap();
    handle.shutdown();
}

/// `quit` ends exactly one connection — gracefully — and the server keeps
/// accepting; an abrupt disconnect mid-pipeline does the same.
#[test]
fn quit_and_disconnect_end_only_their_connection() {
    let (addr, handle) = spawn_server(NetConfig {
        ..NetConfig::default()
    });
    let mut stays = connect(addr);
    stays.request("universe 4").unwrap();
    // Graceful quit.
    let goes = connect(addr);
    goes.quit().unwrap();
    // Abrupt disconnect with queries still in flight.
    let mut rude = connect(addr);
    rude.send("universe 4").unwrap();
    for _ in 0..10 {
        rude.send("implies A -> {B}").unwrap();
    }
    drop(rude);
    // The surviving connection and fresh ones still serve.
    assert!(stays
        .request("implies AB -> {B}")
        .unwrap()
        .starts_with("yes"));
    assert_accept_ready(addr);
    stays.quit().unwrap();
    handle.shutdown();
}

/// Every protocol verb — including the discovery verbs and `help`/`reset` —
/// is reachable over the wire and answers exactly what the in-process
/// pipeline answers on the same deterministic all-verbs script.
#[test]
fn every_verb_is_served_over_tcp() {
    let lines: Vec<String> = [
        "help",
        "session list",
        "universe 4",
        "assert A->{B}",
        "assert B->{C}",
        "implies A->{C}",
        "witness C->{A}",
        "derive A->{C}",
        "batch A->{C} ; C->{A}",
        "known A = 40",
        "bound AB",
        "knowns",
        "forget A",
        "load AB ; ABC ; B ; C ; BC",
        "dataset",
        "mine 2 2",
        "adopt 2 2",
        "premises",
        "retract A->{B}",
        "session new",
        "universe 2",
        "session use 0",
        "session close 1",
        "reset",
        "stats",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (addr, handle) = spawn_server(NetConfig::default());
    let want = in_process_replies(&lines);
    let got = tcp_replies(addr, &lines);
    assert_eq!(got, want, "a verb answered differently over TCP");
    // …and `quit`, the one verb a pipelined script can't carry mid-stream.
    let mut client = connect(addr);
    client.request("universe 2").unwrap();
    client.quit().unwrap();
    handle.shutdown();
}

// ── Binary framing ──────────────────────────────────────────────────────

/// Like [`tcp_replies`] but over the negotiated binary framing.
fn tcp_replies_binary(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let mut client = Client::connect_binary_timeout(&addr, DEADLINE).expect("binary connect");
    client.set_read_timeout(Some(DEADLINE)).expect("timeout");
    assert!(client.is_binary());
    let replies = client
        .run_script(lines.iter().map(String::as_str))
        .expect("binary script round trip");
    replies.iter().map(|r| normalize(r)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The binary framing is semantically transparent: random multi-verb
    /// scripts replayed over a negotiated binary connection produce reply
    /// streams identical to an in-process server — the same contract the
    /// text framing is held to above.
    #[test]
    fn binary_reply_stream_equals_in_process_pipeline(
        body in proptest::collection::vec(arb_line(), 1..30),
    ) {
        let mut lines = vec!["universe 4".to_string()];
        lines.extend(body);
        let (addr, handle) = spawn_server(NetConfig {
            session: tiny_config(),
            binary: true,
            ..NetConfig::default()
        });
        let want = in_process_replies(&lines);
        let got = tcp_replies_binary(addr, &lines);
        handle.shutdown();
        prop_assert_eq!(got, want, "binary framing diverged from the in-process server");
    }

    /// The fixed-width mask frames (`implies`/`assert`/`bound`) answer
    /// exactly what the equivalent text lines answer: both go through
    /// `Family::from_sets`, so the wire encoding cannot change semantics.
    #[test]
    fn binary_mask_frames_equal_their_text_lines(
        premises in proptest::collection::vec(
            (0u64..16, proptest::collection::vec(0u64..16, 0..3)), 0..5),
        goals in proptest::collection::vec(
            (0u64..16, proptest::collection::vec(0u64..16, 0..3)), 1..6),
        bounds in proptest::collection::vec(0u64..16, 1..4),
    ) {
        let u = Universe::of_size(UNIVERSE_N);
        let wire = |lhs: u64, rhs: &[u64]| {
            let constraint = diffcon::DiffConstraint::new(
                AttrSet::from_bits(lhs),
                rhs.iter().copied().map(AttrSet::from_bits).collect(),
            );
            diffcon_engine::protocol::format_wire(&constraint, &u)
        };
        let set_text = |mask: u64| {
            let set = AttrSet::from_bits(mask);
            if set.is_empty() { "{}".to_string() } else { u.format_set(set) }
        };
        // Text oracle script mirroring the mask frames one-to-one.
        let mut lines = vec!["universe 4".to_string()];
        for (lhs, rhs) in &premises {
            lines.push(format!("assert {}", wire(*lhs, rhs)));
        }
        for (lhs, rhs) in &goals {
            lines.push(format!("implies {}", wire(*lhs, rhs)));
        }
        for set in &bounds {
            lines.push(format!("bound {}", set_text(*set)));
        }
        let (addr, handle) = spawn_server(NetConfig {
            session: tiny_config(),
            binary: true,
            ..NetConfig::default()
        });
        let want = tcp_replies_binary(addr, &lines);
        // Mask-frame replay: strict request/response so replies stay
        // position-aligned with the text oracle.
        let mut client = Client::connect_binary_timeout(&addr, DEADLINE).expect("binary connect");
        client.set_read_timeout(Some(DEADLINE)).expect("timeout");
        let mut got = Vec::new();
        client.send("universe 4").expect("send");
        got.push(client.recv().expect("recv"));
        for (lhs, rhs) in &premises {
            client.send_assert_mask(*lhs, rhs).expect("assert mask");
            got.push(client.recv().expect("recv"));
        }
        for (lhs, rhs) in &goals {
            client.send_implies_mask(*lhs, rhs).expect("implies mask");
            got.push(client.recv().expect("recv"));
        }
        for set in &bounds {
            client.send_bound_mask(*set).expect("bound mask");
            got.push(client.recv().expect("recv"));
        }
        let got: Vec<String> = got.iter().map(|r| normalize(r)).collect();
        handle.shutdown();
        prop_assert_eq!(got, want, "mask frames diverged from text lines");
    }
}

/// Negotiation is per connection: on a `--binary` server, text clients are
/// served untouched alongside binary ones, and a binary handshake against a
/// text-only server fails fast with the server's `err` line instead of
/// hanging.
#[test]
fn binary_negotiation_is_per_connection_and_fails_fast() {
    let (addr, handle) = spawn_server(NetConfig {
        binary: true,
        ..NetConfig::default()
    });
    let mut text = connect(addr);
    let mut binary = Client::connect_binary_timeout(&addr, DEADLINE).expect("binary connect");
    binary.set_read_timeout(Some(DEADLINE)).unwrap();
    assert!(!text.is_binary());
    assert!(binary.is_binary());
    assert_eq!(
        text.raw_request("universe 2").unwrap(),
        "ok universe n=2 attrs=A,B"
    );
    assert_eq!(
        binary.request("universe 2").unwrap(),
        "ok universe n=2 attrs=A,B"
    );
    text.quit().unwrap();
    binary.quit().unwrap();
    handle.shutdown();
    // Against a text-only server the magic parses as a malformed line and
    // the client surfaces the err reply as a protocol error.
    let (addr, handle) = spawn_server(NetConfig::default());
    match Client::connect_binary_timeout(&addr, DEADLINE) {
        Err(ClientError::Protocol(m)) => {
            assert!(m.contains("did not acknowledge binary framing"), "got: {m}");
        }
        other => panic!("handshake against text server: {other:?}"),
    }
    assert_accept_ready(addr);
    handle.shutdown();
}

/// With every request slow-logged, a `02` frame whose set lies outside the
/// universe is answered `err` on its connection, and the one reactor goes
/// on serving: that connection, and a fresh one.
#[test]
fn a_slow_logged_mask_frame_outside_the_universe_leaves_the_reactor_serving() {
    let (addr, handle) = spawn_server(NetConfig {
        binary: true,
        slow_query_us: Some(0),
        ..NetConfig::default()
    });
    let mut binary = Client::connect_binary_timeout(&addr, DEADLINE).expect("binary connect");
    binary.set_read_timeout(Some(DEADLINE)).unwrap();
    assert_eq!(
        binary.request("universe 4").unwrap(),
        "ok universe n=4 attrs=A,B,C,D"
    );
    binary.send_bound_mask(0x100).unwrap();
    assert_eq!(
        binary.recv().unwrap(),
        "err attribute mask 0x100 has bits outside the 4-attribute universe"
    );
    assert!(binary
        .request("implies A -> {B}")
        .unwrap()
        .starts_with("no"));
    binary.quit().unwrap();
    assert_accept_ready(addr);
    handle.shutdown();
}

/// Malformed binary frames: truncated length prefixes, oversize length and
/// member-count declarations, unknown tags, and mid-frame disconnects.
/// Fatal violations answer one `err` frame and close; truncation just drops
/// the connection; the server stays accept-ready through all of it.
#[test]
fn malformed_binary_frames_never_wedge_the_server() {
    use diffcon_engine::protocol::binary;
    let (addr, handle) = spawn_server(NetConfig {
        max_request_bytes: 256,
        binary: true,
        ..NetConfig::default()
    });
    let shake = || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(DEADLINE)).unwrap();
        stream.write_all(&binary::MAGIC).unwrap();
        let mut ack = [0u8; binary::ACK.len()];
        stream.read_exact(&mut ack).expect("ack");
        assert_eq!(ack, binary::ACK);
        stream
    };
    let expect_err_then_close = |mut stream: TcpStream, what: &str| {
        // One err reply frame (tag 0x00), then EOF.
        let mut header = [0u8; 5];
        stream
            .read_exact(&mut header)
            .unwrap_or_else(|e| panic!("{what}: no reply: {e}"));
        assert_eq!(header[0], 0x00, "{what}: reply tag");
        let len = u32::from_le_bytes(header[1..5].try_into().unwrap()) as usize;
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).expect(what);
        let text = std::str::from_utf8(&payload).expect(what);
        assert!(text.starts_with("err "), "{what}: got `{text}`");
        let mut sink = [0u8; 16];
        assert_eq!(stream.read(&mut sink).expect(what), 0, "{what}: not closed");
    };
    // Unknown tag.
    let mut stream = shake();
    stream.write_all(&[0x7f, 1, 2, 3]).unwrap();
    expect_err_then_close(stream, "unknown tag");
    // Oversize line-length declaration.
    let mut stream = shake();
    stream.write_all(&[0x00]).unwrap();
    stream.write_all(&(1_000_000u32).to_le_bytes()).unwrap();
    expect_err_then_close(stream, "oversize length");
    // Oversize member-count declaration on an implies frame.
    let mut stream = shake();
    stream.write_all(&[0x01]).unwrap();
    stream.write_all(&7u64.to_le_bytes()).unwrap();
    stream
        .write_all(&(binary::MAX_MEMBERS as u16 + 1).to_le_bytes())
        .unwrap();
    expect_err_then_close(stream, "oversize members");
    // Truncated length prefix, then disconnect: no reply owed, no wedge.
    let stream = shake();
    (&stream).write_all(&[0x00, 0x10]).unwrap();
    drop(stream);
    assert_accept_ready(addr);
    // Mid-frame disconnect: declared 64 payload bytes, sent 10.
    let mut stream = shake();
    stream.write_all(&[0x00]).unwrap();
    stream.write_all(&64u32.to_le_bytes()).unwrap();
    stream.write_all(b"implies A ").unwrap();
    drop(stream);
    assert_accept_ready(addr);
    // Random garbage after a valid handshake, split at random boundaries.
    let mut rng = StdRng::seed_from_u64(0xB1FA55);
    for _ in 0..25 {
        let mut stream = shake();
        let len = rng.gen_range(1..400);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        let mut written = 0;
        while written < payload.len() {
            let chunk = rng.gen_range(1..=(payload.len() - written).min(61));
            if stream
                .write_all(&payload[written..written + chunk])
                .is_err()
            {
                break; // already refused: allowed
            }
            written += chunk;
        }
        let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
        let mut sink = [0u8; 4096];
        let _ = stream.read(&mut sink);
        drop(stream);
        assert_accept_ready(addr);
    }
    handle.shutdown();
}

// ── Reactor behaviour ───────────────────────────────────────────────────

/// The burst-end flush, pinned: a lone strict client's round trips all
/// complete promptly because the reactor answers each request within the
/// readiness burst that delivered it and writes the reply out before it
/// waits again — observable as the reactor waking at least once per strict
/// round trip, never batching a reply behind the next request.
#[test]
fn strict_round_trips_ride_the_eager_idle_flush() {
    let (addr, handle) = spawn_server(NetConfig::default());
    let metrics = diffcon_engine::EngineMetrics::global();
    let before = metrics.reactor_wakeups.get();
    let mut client = connect(addr);
    client.request("universe 4").unwrap();
    client.request("assert A -> {B}").unwrap();
    let rounds = 50;
    let started = std::time::Instant::now();
    for _ in 0..rounds {
        assert!(client
            .request("implies A -> {B}")
            .unwrap()
            .starts_with("yes"));
    }
    let elapsed = started.elapsed();
    // A server that held replies for more input (or a flush tick) would
    // blow far past this generous budget.
    assert!(
        elapsed < Duration::from_millis(50 * rounds),
        "{rounds} strict round trips took {elapsed:?}"
    );
    let wakeups = metrics.reactor_wakeups.get() - before;
    assert!(
        wakeups >= rounds,
        "only {wakeups} reactor wakeups over {rounds} strict round trips"
    );
    client.quit().unwrap();
    handle.shutdown();
}

/// The connection soak: thousands of idle connections held open on one
/// reactor, accept stays ready throughout, a query on a late connection
/// still answers promptly, and closing everything returns the slots.
/// Scaled by `DIFFCOND_SOAK_CONNS` (default 10000); run explicitly with
/// `cargo test -p diffcon-engine --test net_properties soak -- --ignored`.
#[test]
#[ignore = "10k-connection soak; run explicitly (DIFFCOND_SOAK_CONNS scales it)"]
fn soak_thousands_of_idle_connections_leave_accept_ready() {
    let target: usize = std::env::var("DIFFCOND_SOAK_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    // Client and server ends share this process's fd table: ~2 fds per
    // connection plus headroom.  Size down to what the limit actually
    // grants rather than failing on constrained machines.
    let granted = epoll::raise_nofile_limit(2 * target as u64 + 512).unwrap_or(1024);
    let conns = target.min(((granted.saturating_sub(512)) / 2) as usize);
    assert!(conns > 0, "no fd budget for a soak");
    let (addr, handle) = spawn_server(NetConfig {
        session: tiny_config(),
        max_connections: conns + 8,
        ..NetConfig::default()
    });
    let rss_before = resident_kib();
    let mut held = Vec::with_capacity(conns);
    for i in 0..conns {
        match TcpStream::connect(addr) {
            Ok(stream) => held.push(stream),
            Err(e) => panic!("connect {i}/{conns} failed: {e}"),
        }
        // Periodically prove accept never starves while the held set grows.
        if i % 2000 == 1999 {
            assert_accept_ready(addr);
        }
    }
    // Wait for the reactor to register the whole herd.
    for _ in 0..DEADLINE.as_millis() / 10 {
        if handle.active_connections() >= conns {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        handle.active_connections() >= conns,
        "only {} of {conns} connections registered",
        handle.active_connections()
    );
    // Accept-ready and query-ready with the full herd idle.
    assert_accept_ready(addr);
    let mut probe = Client::over(held.pop().unwrap()).expect("probe over held socket");
    probe.set_read_timeout(Some(DEADLINE)).unwrap();
    assert_eq!(
        probe.raw_request("universe 4").unwrap(),
        "ok universe n=4 attrs=A,B,C,D"
    );
    // Memory stays bounded: a generous 64 KiB per idle connection (each
    // holds an empty pipeline and empty buffers) plus fixed slack.
    let rss_after = resident_kib();
    if let (Some(before), Some(after)) = (rss_before, rss_after) {
        let budget = 64 * conns as u64 + 65_536;
        assert!(
            after.saturating_sub(before) < budget,
            "RSS grew {} KiB over {conns} idle connections (budget {budget} KiB)",
            after.saturating_sub(before)
        );
    }
    probe.quit().unwrap();
    drop(held);
    // Slots drain back to zero and the listener still serves.
    for _ in 0..DEADLINE.as_millis() / 10 {
        if handle.active_connections() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        handle.active_connections(),
        0,
        "connection slots leaked after close-all"
    );
    assert_accept_ready(addr);
    handle.shutdown();
}

/// `VmRSS` of this process in KiB, when the platform exposes it.
fn resident_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Scripts far larger than the socket buffers cannot deadlock the
/// write/read pair: `run_script` drains replies concurrently with the
/// burst write (~1.6 MB each way here, past any default loopback buffer).
#[test]
fn large_pipelined_scripts_do_not_deadlock() {
    let (addr, handle) = spawn_server(NetConfig {
        ..NetConfig::default()
    });
    let lines: Vec<String> = std::iter::once("universe 4".to_string())
        .chain((0..60_000).map(|_| "session list".to_string()))
        .collect();
    let mut client = connect(addr);
    let replies = client
        .run_script(lines.iter().map(String::as_str))
        .expect("large script");
    assert_eq!(replies.len(), 60_001);
    assert!(replies[1..].iter().all(|r| r.starts_with("sessions n=1")));
    client.quit().expect("graceful quit");
    handle.shutdown();
}
