//! N1 — network serving: what the `diffcond serve` TCP front-end costs over
//! the in-process request path, on the same warm repeated-premise query
//! traffic as `BENCH_server.json` (same generator, same sizes, so the
//! figures are directly comparable).  `BENCH_net.json` is written by the
//! `N1_report` step, which a bench filter runs only when it names it.
//!
//! Four axes:
//!
//! * **pipelined socket throughput** — k connections, each replaying m
//!   protocol lines in one burst and draining the reply stream, over both
//!   framings: newline text and the negotiated binary mask frames of
//!   `protocol::binary`;
//! * **strict request/response latency** — one warm connection issuing one
//!   query at a time and waiting for each reply: p50/p99 of the full
//!   round trip (framing, parse, decide, reply, loopback both ways),
//!   again per framing;
//! * **in-process reference** — the same requests through
//!   [`Server::respond`] with no sockets, per framing (text lines for
//!   text, mask frames for binary), so `net_over_inprocess_text` and
//!   `net_over_inprocess_binary` each compare one connection on the wire
//!   with one in-process server on the same frames.

use criterion::{criterion_group, criterion_main, Criterion};
use diffcon_bench::workloads;
use diffcon_bench::{JsonReport, Table};
use diffcon_engine::client::Client;
use diffcon_engine::net::{NetConfig, NetServer};
use diffcon_engine::protocol::binary::{self, BinRequest};
use diffcon_engine::{EngineMetrics, Server, SessionConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const UNIVERSE: usize = 12;
const PREMISES: usize = 8;
const POOL: usize = 64;
const STREAM: usize = 512;
/// Stream repetitions per pipelined pass (per connection): m = REPEATS ×
/// STREAM request lines in one burst.
const REPEATS: usize = 8;
const TRIALS: usize = 7;
/// Strict round trips measured for the latency distribution.
const LATENCY_SAMPLES: usize = 2000;

/// The protocol script of the standard serving workload: open the universe,
/// assert the premises, then the query stream as `implies` lines.
fn build_script(repeats: usize) -> Vec<String> {
    let (base, stream) = workloads::engine_query_stream(42, UNIVERSE, PREMISES, POOL, STREAM);
    let universe = &base.universe;
    let mut lines = vec![format!("universe {UNIVERSE}")];
    for premise in &base.premises {
        lines.push(format!(
            "assert {}",
            diffcon_engine::protocol::format_wire(premise, universe)
        ));
    }
    for _ in 0..repeats {
        for goal in &stream {
            lines.push(format!(
                "implies {}",
                diffcon_engine::protocol::format_wire(goal, universe)
            ));
        }
    }
    lines
}

/// The same script as mask frames: `universe` as a line frame, the premises
/// as `assert` mask frames, the query stream as `implies` mask frames.
/// Returns the pre-encoded burst and its frame (= expected reply) count.
fn build_binary_burst(repeats: usize) -> (Vec<u8>, usize) {
    use diffcon_engine::protocol::binary;
    let (base, stream) = workloads::engine_query_stream(42, UNIVERSE, PREMISES, POOL, STREAM);
    let mut burst = Vec::new();
    let mut frames = 1usize;
    binary::encode_line(&format!("universe {UNIVERSE}"), &mut burst);
    for premise in &base.premises {
        let members: Vec<u64> = premise.rhs.members().iter().map(|m| m.bits()).collect();
        binary::encode_assert(premise.lhs.bits(), &members, &mut burst);
        frames += 1;
    }
    for _ in 0..repeats {
        for goal in &stream {
            let members: Vec<u64> = goal.rhs.members().iter().map(|m| m.bits()).collect();
            binary::encode_implies(goal.lhs.bits(), &members, &mut burst);
            frames += 1;
        }
    }
    (burst, frames)
}

fn spawn_server() -> (SocketAddr, diffcon_engine::ShutdownHandle) {
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            session: SessionConfig::default(),
            // Framing is negotiated per connection, so one server carries
            // both the text and the binary passes.
            binary: true,
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    std::thread::spawn(move || server.run().expect("reactors"));
    (addr, handle)
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    client
}

fn connect_binary(addr: SocketAddr) -> Client {
    let mut client = Client::connect_binary(addr).expect("binary connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    client
}

/// One pipelined pass over `connections` parallel connections; returns the
/// wall-clock seconds and asserts every reply stream is complete and sane.
fn pipelined_pass(addr: SocketAddr, script: &[String], connections: usize) -> f64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = connect(addr);
                    // Warm the connection's caches with one quiet pass of
                    // the prologue + first stream block.
                    let start = Instant::now();
                    let replies = client
                        .run_script(script.iter().map(String::as_str))
                        .expect("script round trip");
                    let elapsed = start.elapsed().as_secs_f64();
                    assert_eq!(replies.len(), script.len());
                    let answered = replies
                        .iter()
                        .filter(|r| r.starts_with("yes") || r.starts_with("no"))
                        .count();
                    assert_eq!(answered, script.len() - 1 - PREMISES, "lost replies");
                    elapsed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench connection panicked"))
            .fold(0.0f64, f64::max)
    })
}

/// One pipelined binary pass: each connection negotiates the binary framing
/// and replays the pre-encoded mask-frame burst through
/// [`Client::run_frames`].
fn pipelined_pass_binary(addr: SocketAddr, burst: &[u8], frames: usize, connections: usize) -> f64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = connect_binary(addr);
                    let start = Instant::now();
                    let replies = client
                        .run_frames(burst.to_vec(), frames)
                        .expect("binary burst round trip");
                    let elapsed = start.elapsed().as_secs_f64();
                    assert_eq!(replies.len(), frames);
                    let answered = replies
                        .iter()
                        .filter(|r| r.starts_with("yes") || r.starts_with("no"))
                        .count();
                    assert_eq!(answered, frames - 1 - PREMISES, "lost replies");
                    elapsed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench connection panicked"))
            .fold(0.0f64, f64::max)
    })
}

/// Best wall-clock seconds over `TRIALS` passes.
fn best_secs(mut f: impl FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        best = best.min(f());
    }
    best
}

/// Best wall-clock seconds answering `requests` in process: one fresh
/// server and one reused reply buffer, every request through
/// [`Server::respond`] with its record committed — the reactor's
/// per-request work without the sockets.
fn in_process_secs<'a>(requests: impl Fn() -> Vec<BinRequest<'a>>) -> f64 {
    best_secs(|| {
        let frames = requests();
        let mut server = Server::new(SessionConfig::default());
        let mut reply = String::new();
        let mut answered = 0usize;
        let start = Instant::now();
        for frame in &frames {
            reply.clear();
            let mut answer = server.respond(frame, Instant::now(), &mut reply);
            answer.record.bytes_out = reply.len() as u64 + 1;
            server.commit(&answer.record);
            answered += usize::from(!reply.is_empty());
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(answered, frames.len());
        elapsed
    })
}

/// The text script as line frames, the form text connections hand over.
fn line_frames(script: &[String]) -> Vec<BinRequest<'_>> {
    script
        .iter()
        .map(|line| BinRequest::Line(line.as_bytes()))
        .collect()
}

/// The binary burst decoded into its frames.
fn burst_frames(burst: &[u8]) -> Vec<BinRequest<'_>> {
    let mut frames = Vec::new();
    let mut at = 0;
    while at < burst.len() {
        match binary::decode_request(&burst[at..], diffcon_engine::protocol::MAX_REQUEST_BYTES) {
            binary::Decoded::Frame(frame, used) => {
                frames.push(frame);
                at += used;
            }
            other => panic!("the bench burst is well-formed, got {other:?}"),
        }
    }
    frames
}

/// p50/p99 (µs) of strict request/response round trips on a warm
/// connection.
fn strict_latency(addr: SocketAddr, script: &[String]) -> (f64, f64) {
    let mut client = connect(addr);
    // Set up and warm: the full script once, pipelined.
    let replies = client
        .run_script(script.iter().map(String::as_str))
        .expect("warmup");
    assert_eq!(replies.len(), script.len());
    let queries: Vec<&String> = script.iter().skip(1 + PREMISES).collect();
    let mut samples = Vec::with_capacity(LATENCY_SAMPLES);
    for i in 0..LATENCY_SAMPLES {
        let line = queries[i % queries.len()];
        let start = Instant::now();
        let reply = client.raw_request(line).expect("strict round trip");
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        assert!(reply.starts_with("yes") || reply.starts_with("no"));
    }
    percentiles(samples)
}

/// p50/p99 (µs) of strict mask-frame round trips on a warm binary
/// connection: `send_implies_mask` + `recv`, one query in flight at a time.
fn strict_latency_binary(addr: SocketAddr, burst: &[u8], frames: usize) -> (f64, f64) {
    let (base, stream) = workloads::engine_query_stream(42, UNIVERSE, PREMISES, POOL, STREAM);
    let _ = base;
    let queries: Vec<(u64, Vec<u64>)> = stream
        .iter()
        .map(|goal| {
            (
                goal.lhs.bits(),
                goal.rhs.members().iter().map(|m| m.bits()).collect(),
            )
        })
        .collect();
    let mut client = connect_binary(addr);
    // Set up and warm: the full burst once, pipelined.
    let replies = client.run_frames(burst.to_vec(), frames).expect("warmup");
    assert_eq!(replies.len(), frames);
    let mut samples = Vec::with_capacity(LATENCY_SAMPLES);
    for i in 0..LATENCY_SAMPLES {
        let (lhs, rhs) = &queries[i % queries.len()];
        let start = Instant::now();
        client
            .send_implies_mask(*lhs, rhs)
            .expect("mask frame send");
        let reply = client.recv().expect("strict round trip");
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        assert!(reply.starts_with("yes") || reply.starts_with("no"));
    }
    percentiles(samples)
}

fn percentiles(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pick = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
    (pick(0.50), pick(0.99))
}

/// p50/p99 (µs) of a 1-byte blocking echo over loopback: the transport
/// floor the strict round trips are measured against.  Everything above
/// this is the engine (framing, parse, decide, reply); everything below is
/// the kernel and — dominant on small containers — scheduler switches
/// between the two endpoints sharing the cores.
fn loopback_floor() -> (f64, f64) {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("floor bind");
    let addr = listener.local_addr().expect("floor addr");
    let echo = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("floor accept");
        stream.set_nodelay(true).expect("floor nodelay");
        let mut byte = [0u8; 1];
        while stream.read_exact(&mut byte).is_ok() {
            if stream.write_all(&byte).is_err() {
                break;
            }
        }
    });
    let mut stream = std::net::TcpStream::connect(addr).expect("floor connect");
    stream.set_nodelay(true).expect("floor nodelay");
    let mut byte = [0u8; 1];
    let mut samples = Vec::with_capacity(LATENCY_SAMPLES);
    for _ in 0..LATENCY_SAMPLES {
        let start = Instant::now();
        stream.write_all(b"x").expect("floor write");
        stream.read_exact(&mut byte).expect("floor read");
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(stream);
    echo.join().expect("floor echo thread");
    percentiles(samples)
}

fn emit_json_report() {
    let script = build_script(REPEATS);
    let queries_per_pass = (REPEATS * STREAM) as f64;
    let (addr, handle) = spawn_server();
    // Baseline the server-side stage histograms so the report windows only
    // the traffic this bench drives (the registry is process-global; the
    // bench server runs in-process, so they capture exactly the serving
    // work driven below).
    let stage_base = EngineMetrics::global().stages();

    let (burst, frames) = build_binary_burst(REPEATS);
    let mut table = Table::new(
        "N1: warm pipelined socket throughput by framing and connection count",
        ["framing", "connections", "queries", "elapsed_us", "qps"],
    );
    let mut report = JsonReport::new("net_serving");
    report.push_metric("stream_len", STREAM as f64);
    report.push_metric("queries_per_connection", queries_per_pass);

    // Warm the server once per connection count before timing.
    let mut best_qps = 0.0f64;
    let mut best_binary_qps = 0.0f64;
    let (mut text_c1_qps, mut binary_c1_qps) = (0.0f64, 0.0f64);
    for &connections in &[1usize, 2, 4] {
        pipelined_pass(addr, &script, connections); // warm
        let secs = best_secs(|| pipelined_pass(addr, &script, connections));
        let qps = queries_per_pass * connections as f64 / secs;
        best_qps = best_qps.max(qps);
        if connections == 1 {
            text_c1_qps = qps;
        }
        table.push_row([
            "text".to_string(),
            connections.to_string(),
            ((REPEATS * STREAM) * connections).to_string(),
            format!("{:.0}", secs * 1e6),
            format!("{:.0}", qps),
        ]);
        report.push_metric(format!("warm_net_qps_c{connections}"), qps);

        pipelined_pass_binary(addr, &burst, frames, connections); // warm
        let secs = best_secs(|| pipelined_pass_binary(addr, &burst, frames, connections));
        let qps = queries_per_pass * connections as f64 / secs;
        best_binary_qps = best_binary_qps.max(qps);
        if connections == 1 {
            binary_c1_qps = qps;
        }
        table.push_row([
            "binary".to_string(),
            connections.to_string(),
            ((REPEATS * STREAM) * connections).to_string(),
            format!("{:.0}", secs * 1e6),
            format!("{:.0}", qps),
        ]);
        report.push_metric(format!("warm_net_binary_qps_c{connections}"), qps);
    }
    table.eprint();
    report.push_metric("warm_net_best_qps", best_qps);
    report.push_metric("warm_net_binary_best_qps", best_binary_qps);

    // The transport tax per framing: one wire connection against one
    // in-process server answering the same frames.
    let inproc_text_qps = queries_per_pass / in_process_secs(|| line_frames(&script));
    let inproc_binary_qps = queries_per_pass / in_process_secs(|| burst_frames(&burst));
    report.push_metric("inprocess_text_qps", inproc_text_qps);
    report.push_metric("inprocess_binary_qps", inproc_binary_qps);
    report.push_metric("net_over_inprocess_text", text_c1_qps / inproc_text_qps);
    report.push_metric(
        "net_over_inprocess_binary",
        binary_c1_qps / inproc_binary_qps,
    );

    let (p50_us, p99_us) = strict_latency(addr, &script);
    report.push_metric("strict_p50_us", p50_us);
    report.push_metric("strict_p99_us", p99_us);
    let (binary_p50_us, binary_p99_us) = strict_latency_binary(addr, &burst, frames);
    report.push_metric("strict_binary_p50_us", binary_p50_us);
    report.push_metric("strict_binary_p99_us", binary_p99_us);
    let (floor_p50_us, floor_p99_us) = loopback_floor();
    report.push_metric("loopback_floor_p50_us", floor_p50_us);
    report.push_metric("loopback_floor_p99_us", floor_p99_us);
    // What the engine itself adds over the bare transport, at the median
    // (tails are scheduler noise shared with the floor).
    report.push_metric(
        "strict_binary_over_floor_p50_us",
        binary_p50_us - floor_p50_us,
    );

    // Server-side stage breakdown of everything driven above, from the same
    // histograms `stats` and the metrics endpoint report: where the strict
    // round trip actually goes once the frame is off the socket.
    let mut stage_table = Table::new(
        "N1: server-side stage latency (histogram-derived, whole bench window)",
        ["stage", "samples", "p50_us", "p99_us"],
    );
    let mut stage_samples: Vec<u64> = Vec::new();
    for ((stage, now), (_, base)) in EngineMetrics::global().stages().iter().zip(&stage_base) {
        let window = now.minus(base);
        let (stage_p50, stage_p99) = (window.p50() as f64 / 1e3, window.p99() as f64 / 1e3);
        report.push_metric(format!("stage_{stage}_samples"), window.count() as f64);
        report.push_metric(format!("stage_{stage}_p50_us"), stage_p50);
        report.push_metric(format!("stage_{stage}_p99_us"), stage_p99);
        stage_samples.push(window.count());
        stage_table.push_row([
            (*stage).to_string(),
            window.count().to_string(),
            format!("{stage_p50:.1}"),
            format!("{stage_p99:.1}"),
        ]);
        assert!(
            window.count() > 0,
            "stage `{stage}` recorded no samples over the bench window"
        );
    }
    stage_table.eprint();
    // Every request's one record feeds every stage, so the three sample
    // counts are the same request total.
    assert!(
        stage_samples.windows(2).all(|pair| pair[0] == pair[1]),
        "stage sample counts disagree: {stage_samples:?}"
    );

    handle.shutdown();
    report.push_table(table);
    report.push_table(stage_table);
    match report.write_to_repo_root("BENCH_net.json") {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_net.json: {e}"),
    }
    eprintln!(
        "warm pipelined socket, one connection: {:.0} qps text ({:.2}x of \
         in-process {:.0} qps), {:.0} qps binary ({:.2}x of in-process {:.0} \
         qps); strict round trip \
         text p50 {:.1} µs p99 {:.1} µs, binary p50 {:.1} µs p99 {:.1} µs \
         (raw loopback floor p50 {:.1} µs p99 {:.1} µs)",
        text_c1_qps,
        text_c1_qps / inproc_text_qps,
        inproc_text_qps,
        binary_c1_qps,
        binary_c1_qps / inproc_binary_qps,
        inproc_binary_qps,
        p50_us,
        p99_us,
        binary_p50_us,
        binary_p99_us,
        floor_p50_us,
        floor_p99_us
    );
    assert!(
        p99_us < 60_000.0 && binary_p99_us < 60_000.0,
        "strict p99 round trip blew past 60 ms on loopback \
         (text {p99_us:.0} µs, binary {binary_p99_us:.0} µs)"
    );
}

fn bench_net_serving(c: &mut Criterion) {
    if c.selects("N1_report") {
        emit_json_report();
    }

    // Criterion series: one strict round trip on a warm connection.
    let script = build_script(1);
    let (addr, handle) = spawn_server();
    let mut client = connect(addr);
    let replies = client
        .run_script(script.iter().map(String::as_str))
        .expect("warmup");
    assert_eq!(replies.len(), script.len());
    let query = script.last().expect("nonempty script").clone();
    let mut group = c.benchmark_group("N1_net_round_trip");
    group.sample_size(20);
    group.bench_function("strict_warm_implies", |b| {
        b.iter(|| client.raw_request(&query).expect("round trip"))
    });
    group.finish();
    handle.shutdown();
}

criterion_group!(benches, bench_net_serving);
criterion_main!(benches);
