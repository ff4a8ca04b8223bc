//! End-to-end network serving demo: drive a `diffcond` TCP server with the
//! blocking client, exercising every layer the wire adds — framing, session
//! namespaces, typed interval parsing, error replies, admission limits, and
//! graceful shutdown.
//!
//! By default the example spawns its own in-process [`NetServer`] on an
//! ephemeral loopback port.  Set `DIFFCOND_ADDR=HOST:PORT` to drive an
//! externally started `diffcond serve` instead — that is how the CI
//! release-smoke step checks the real binary over a real socket — and
//! `DIFFCOND_BINARY=1` to negotiate the compact binary framing (the server
//! must run with `--binary`) and additionally exercise the fixed-width
//! mask frames of the hot verbs:
//!
//! ```text
//! $ ./target/release/diffcond serve --addr 127.0.0.1:7979 --binary &
//! $ DIFFCOND_ADDR=127.0.0.1:7979 cargo run --release --example net_service
//! $ DIFFCOND_ADDR=127.0.0.1:7979 DIFFCOND_BINARY=1 cargo run --release --example net_service
//! ```
//!
//! Every reply is checked, so a zero exit status is a verified transcript.

use diffcon_engine::client::{Client, ClientError};
use diffcon_engine::net::{NetConfig, NetServer, ShutdownHandle};
use std::time::Duration;

fn binary_mode() -> bool {
    std::env::var("DIFFCOND_BINARY").is_ok_and(|v| v == "1")
}

fn connect(addr: &str) -> Client {
    let mut last_err = None;
    // An externally launched server may still be binding; retry briefly.
    for _ in 0..50 {
        let attempt = if binary_mode() {
            Client::connect_binary(addr)
        } else {
            Client::connect(addr)
        };
        match attempt {
            Ok(mut client) => {
                client
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                return client;
            }
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    panic!("cannot connect to {addr}: {:?}", last_err);
}

fn check(client: &mut Client, request: &str, expect_head: &str) -> String {
    let reply = client.raw_request(request).expect("round trip");
    println!("> {request}\n{reply}");
    assert!(
        reply.starts_with(expect_head),
        "`{request}` answered `{reply}`, expected head `{expect_head}`"
    );
    reply
}

fn main() {
    // Either an external server (CI smoke) or a private in-process one.
    let external = std::env::var("DIFFCOND_ADDR").ok();
    let mut shutdown: Option<ShutdownHandle> = None;
    let addr = match &external {
        Some(addr) => addr.clone(),
        None => {
            let server = NetServer::bind(
                "127.0.0.1:0",
                NetConfig {
                    // Accept the handshake so `DIFFCOND_BINARY=1` works
                    // against the private server too; text connections are
                    // unaffected (framing is negotiated per connection).
                    binary: true,
                    ..NetConfig::default()
                },
            )
            .expect("bind an ephemeral loopback port");
            let addr = server.local_addr().to_string();
            shutdown = Some(server.shutdown_handle());
            std::thread::spawn(move || server.run().expect("reactors"));
            addr
        }
    };
    println!("connecting to {addr}\n");

    // ── A full conversation over one connection ─────────────────────────
    let mut client = connect(&addr);
    check(&mut client, "universe 4", "ok universe n=4");
    check(&mut client, "assert A -> {B}", "ok assert id=0 added=1");
    check(&mut client, "assert B -> {C}", "ok assert id=1 added=1");
    check(&mut client, "implies A -> {C}", "yes");
    check(&mut client, "implies C -> {A}", "no");
    check(
        &mut client,
        "batch A -> {C}; C -> {A}; AB -> {B}",
        "results n=3 y n y",
    );
    check(&mut client, "known A = 40", "ok known set=A value=40");
    // Typed interval round trip: the premise pins f(AB) to f(A) exactly.
    let interval = client.bound("AB").expect("typed bound");
    println!("> bound AB (typed)\n[{}, {}]", interval.lo, interval.hi);
    assert!(interval.is_exact() && interval.lo == 40.0);
    // Session slots inside one connection work exactly as on stdin.
    check(&mut client, "session new", "ok session id=1");
    check(&mut client, "universe 3", "ok universe n=3");
    check(&mut client, "session list", "sessions n=2 current=1");
    check(&mut client, "session use 0", "ok session id=0");
    check(&mut client, "premises", "premises n=2");

    // ── The hot verbs as fixed-width mask frames (binary mode only) ─────
    if client.is_binary() {
        // A=bit0 … D=bit3: `implies A -> {C}` is lhs=0b0001, rhs=[0b0100].
        client
            .send_implies_mask(0b0001, &[0b0100])
            .expect("mask frame send");
        let reply = client.recv().expect("mask frame reply");
        println!("> implies mask lhs=0b0001 rhs=[0b0100]\n{reply}");
        assert!(reply.starts_with("yes"), "mask implies answered `{reply}`");
        client.send_bound_mask(0b0011).expect("mask frame send");
        let reply = client.recv().expect("mask frame reply");
        println!("> bound mask set=0b0011\n{reply}");
        assert!(
            reply.starts_with("bound lo=40"),
            "mask bound answered `{reply}`"
        );
    }

    // ── Error replies never cost the connection ─────────────────────────
    check(&mut client, "implies A -> {Z}", "err");
    check(&mut client, "quit now", "err quit expects no argument");
    let oversized = format!("implies {}", "A".repeat(2 * 64 * 1024));
    if client.is_binary() {
        // A binary frame declaring an over-limit length is a *fatal*
        // framing violation: one `err` reply, then the server closes.
        // Probe it on a throwaway connection so the conversation above
        // keeps its socket.
        let mut probe = connect(&addr);
        probe.send(&oversized).expect("oversized frame send");
        let reply = probe.recv().expect("oversized frame reply");
        println!(
            "> implies AAAA… ({} bytes, binary frame)\n{reply}",
            oversized.len()
        );
        assert!(reply.starts_with("err request line exceeds"));
        match probe.recv() {
            // A reset is equally valid: the server closed while unread
            // request bytes were still queued, so the kernel answers RST.
            Err(ClientError::Closed) | Err(ClientError::Io(_)) => {
                println!("(connection closed by server, as framed)");
            }
            other => panic!("expected a close after a fatal frame, got {other:?}"),
        }
    } else {
        let reply = client
            .raw_request(&oversized)
            .expect("oversized round trip");
        println!("> implies AAAA… ({} bytes)\n{reply}", oversized.len());
        assert!(reply.starts_with("err request line exceeds"));
    }
    check(&mut client, "implies A -> {C}", "yes");

    // ── A second connection is a fresh, isolated namespace ──────────────
    let mut other = connect(&addr);
    match other.request("premises") {
        Err(ClientError::Server(m)) => {
            println!("\nsecond connection: err {m}");
            assert!(m.starts_with("no session"));
        }
        other => panic!("expected a no-session error, got {other:?}"),
    }
    check(&mut other, "universe 4", "ok universe n=4");
    check(&mut other, "premises", "premises n=0");

    // ── Pipelined scripts drain in request order ────────────────────────
    let script: Vec<String> = (0..64)
        .map(|i| {
            if i % 2 == 0 {
                "implies A -> {C}".to_string()
            } else {
                "implies C -> {A}".to_string()
            }
        })
        .collect();
    let replies = client
        .run_script(script.iter().map(String::as_str))
        .expect("pipelined script");
    assert_eq!(replies.len(), 64);
    for (i, reply) in replies.iter().enumerate() {
        let head = if i % 2 == 0 { "yes" } else { "no" };
        assert!(reply.starts_with(head), "reply {i} was `{reply}`");
    }
    println!("\npipelined 64 queries: all answered in order");

    // ── Graceful shutdown ───────────────────────────────────────────────
    client.quit().expect("graceful quit");
    other.quit().expect("graceful quit");
    println!("both connections quit cleanly (`bye` + close)");
    if let Some(handle) = shutdown {
        handle.shutdown();
        println!(
            "server stopped after serving its connections \
             (refused at capacity: {})",
            handle.refused_connections()
        );
    }
    println!("\nnet_service: every reply verified");
}
