//! `diffcond` — serve differential-constraint implication queries over a
//! line-oriented protocol (one request per line on stdin, one machine-readable
//! response per line on stdout).
//!
//! See `diffcon_engine::protocol` for the full request/response grammar,
//! including the `session new/use/close/list` verbs that manage multiple
//! independent sessions in one process.
//!
//! ```text
//! Usage: diffcond [--answer-cache N] [--bound-cache N] [--intern-limit N]
//!                 [--bound-budget N] [--slow-query-us N] [--profile]
//!                 [--profile-hz N] [--help]
//!        diffcond serve [--addr HOST:PORT] [--max-conns N]
//!                       [--max-request-bytes N] [--reactors N] [--binary]
//!                       [--metrics-addr HOST:PORT] [same engine flags]
//!        diffcond top [--metrics-addr HOST:PORT] [--interval-ms N] [--once]
//!        diffcond check FILE...
//! ```
//!
//! `diffcond check` runs each protocol script against an in-process server
//! (`diffcon_engine::script::check`), one `diffcon_engine::Server` per file,
//! line by line through `Server::handle_line`, the serial oracle's call.  Each `err` reply is
//! reported as a `file:line:col: error: message` diagnostic, and three
//! warnings are read from the live session: an `assert` the premises
//! already hold or imply, a `bound` with no known values, and lines after
//! `quit`, which are not run.  The verbs work in memory, so a check does no
//! network IO and writes no file.  Exits nonzero when any line answers
//! `err`.
//!
//! `diffcond serve` serves the identical protocol over TCP
//! (`diffcon_engine::net`): one connection = one private session namespace,
//! newline framing with a per-request length limit, error replies for
//! malformed frames, and a concurrent-connection admission cap.  With
//! `--metrics-addr HOST:PORT` a second listener serves the process-wide
//! engine metrics (`diffcon_engine::EngineMetrics`) as Prometheus text
//! exposition plus operational endpoints, routed by path
//! (`diffcon_engine::metrics::http_routes`): `/metrics` for the scrape,
//! `/healthz` for a liveness probe, `/buildinfo` for the build stamp, and
//! `/profile?seconds=S` for an on-demand CPU profile in collapsed-stack
//! form.  With `--slow-query-us N`, queries that take at least `N`
//! microseconds to answer are logged to stderr with their request line and
//! flight record (the stderr log is token-bucket rate limited, with drops
//! counted in `stats`).  With
//! `--profile`, the cooperative CPU sampler (`diffcon_obs::profile`) runs
//! continuously at `--profile-hz` (default 97) and the sampled stacks are
//! published on the metrics endpoint and the `debug profile dump` verb.
//!
//! `diffcond top` is the matching client-side dashboard: it polls a
//! `--metrics-addr` exposition endpoint and renders request/stage/cost
//! summaries — including the per-session and per-connection attribution
//! series — refreshing in place every `--interval-ms` (or printing one
//! snapshot with `--once`).
//!
//! Every request is answered in order, as soon as it is read: stdin and
//! each network connection go through the same connection driver
//! (`diffcon_engine::connection::Connection`), which frames each request,
//! answers it through `diffcon_engine::Server::respond`, frames the reply,
//! and stages the request's record, publishing once per read burst.

use diffcon_engine::connection::Connection;
use diffcon_engine::{Server, SessionConfig};
use std::io::{BufRead, Write};

const USAGE: &str = "\
diffcond — differential-constraint implication server

Reads one request per line from stdin, writes one response per line to stdout.
Start with `universe <n>` (or `universe <name>...`), then `assert`, `implies`,
`batch`, `witness`, `derive`, `explain`, `analyze`, `known`, `forget`,
`bound`, `load`, `mine`, `adopt`, `dataset`, `premises`, `knowns`, `stats`,
`reset`, `help`, `quit`.
Multiple independent sessions: `session new`, `session use <id>`,
`session close [<id>]`, `session list`.

Options:
  --answer-cache N    bound on memoized query answers     (default 65536)
  --bound-cache N     bound on memoized bound intervals   (default 4096)
  --intern-limit N    distinct constraints kept before the intern table is
                      compacted                           (default 262144)
  --bound-budget N    max bound-derivation cost before a bound query is
                      routed to the sound relaxation; also caps `analyze`'s
                      propagation sweep                   (default 67108864)
  --slow-query-us N   log queries that take at least N µs to answer to
                      stderr, with their request line and flight record
                      (rate limited to 8 lines/s with bursts of 8; drops are
                      counted in `stats` as slow_log_dropped; default: off)
  --profile           run the cooperative CPU sampler continuously; sampled
                      stage stacks surface in `debug profile dump`, the
                      metrics exposition, and /profile (default: off)
  --profile-hz N      sampling rate for --profile and `debug profile start`
                      (default 97, max 1000)
  --help              print this text

Network serving:
  diffcond serve [--addr HOST:PORT] [--max-conns N] [--max-request-bytes N]
                 [--reactors N] [--binary] [--metrics-addr HOST:PORT]
                 [engine flags as above]

  Serves the same line protocol over TCP: each connection gets a private
  session namespace (all slots close on disconnect), requests are
  newline-framed with a per-request byte limit (oversized or non-UTF-8
  lines get `err` replies, never a dropped connection), and at most
  --max-conns connections are admitted at once.  Connections are served by
  --reactors readiness-driven event-loop threads (nonblocking sockets over
  epoll), not a thread per connection.  With --binary, a connection whose
  first bytes are the binary magic switches to the compact length-prefixed
  framing (see the protocol docs); everything else stays line-framed.
  Defaults: --addr 127.0.0.1:7878, --max-conns 64,
  --max-request-bytes 65536, --reactors 1.  Each request is answered on
  its connection's reactor thread as soon as it is read, in order.

  With --metrics-addr a second listener serves GETs routed by path:
    /metrics    Prometheus text exposition: request/reply/connection
                counters, per-stage latency summaries, per-route planner
                latency, cache counters, per-session and per-connection
                cost attribution, allocation accounting, and sampled
                profile stacks
    /healthz    liveness probe (200 `ok`)
    /buildinfo  name, version, and build flavor
    /profile    profile the process for ?seconds=S (default 2, max 30) at
                ?hz=N and return flamegraph-collapsed stacks

Script linting:
  diffcond check FILE...

  Runs each protocol script against an in-process server, one server per
  file, and reports every `err` reply as an error.  It also warns about an
  assert that is already a premise or already implied, a bound with no
  known values, and lines after quit, which are not run.  Diagnostics
  print as `file:line:col: warn|error: message`; the exit status is 1 when
  any line answers `err`, 2 on a usage or read failure.

Live dashboard:
  diffcond top [--metrics-addr HOST:PORT] [--interval-ms N] [--once]

  Polls the Prometheus exposition a `diffcond serve --metrics-addr`
  process publishes and renders totals, per-stage p50/p99 latencies, the
  busiest sessions and connections by attributed cost, allocation
  accounting (global and per profiling stage), and the hottest sampled
  profile stacks when the server runs with --profile.  Refreshes in place
  every --interval-ms (default 1000); with --once, prints a single
  snapshot and exits (scriptable).  Default --metrics-addr 127.0.0.1:9100.";

struct Options {
    config: SessionConfig,
    slow_query_us: Option<u64>,
    profile: bool,
    profile_hz: u32,
    serve: Option<ServeOptions>,
    top: Option<TopOptions>,
}

struct TopOptions {
    metrics_addr: String,
    interval_ms: u64,
    once: bool,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            metrics_addr: "127.0.0.1:9100".into(),
            interval_ms: 1000,
            once: false,
        }
    }
}

struct ServeOptions {
    addr: String,
    max_connections: usize,
    max_request_bytes: usize,
    metrics_addr: Option<String>,
    reactors: usize,
    binary: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".into(),
            max_connections: diffcon_engine::NetConfig::DEFAULT_MAX_CONNECTIONS,
            max_request_bytes: diffcon_engine::protocol::MAX_REQUEST_BYTES,
            metrics_addr: None,
            reactors: 1,
            binary: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut config = SessionConfig::default();
    let mut slow_query_us: Option<u64> = None;
    let mut profile = false;
    let mut profile_hz = 0u32;
    let mut serve: Option<ServeOptions> = None;
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        serve = Some(ServeOptions::default());
    } else if args.peek().map(String::as_str) == Some("top") {
        args.next();
        let mut top = TopOptions::default();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--metrics-addr" => {
                    top.metrics_addr = args.next().ok_or("--metrics-addr expects HOST:PORT")?;
                }
                "--interval-ms" => {
                    let value = args
                        .next()
                        .ok_or("--interval-ms expects a number of milliseconds")?;
                    let n: u64 = value
                        .parse()
                        .map_err(|_| format!("--interval-ms expects a number, got `{value}`"))?;
                    if n == 0 {
                        return Err("--interval-ms must be at least 1".into());
                    }
                    top.interval_ms = n;
                }
                "--once" => top.once = true,
                "--help" | "-h" => {
                    let _ = writeln!(std::io::stdout(), "{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown `top` option `{other}` (try --help)")),
            }
        }
        return Ok(Options {
            config,
            slow_query_us,
            profile,
            profile_hz,
            serve: None,
            top: Some(top),
        });
    }
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => {
                let serve = serve
                    .as_mut()
                    .ok_or("--addr is only valid after the `serve` subcommand")?;
                serve.addr = args.next().ok_or("--addr expects HOST:PORT")?;
            }
            "--metrics-addr" => {
                let serve = serve
                    .as_mut()
                    .ok_or("--metrics-addr is only valid after the `serve` subcommand")?;
                serve.metrics_addr = Some(args.next().ok_or("--metrics-addr expects HOST:PORT")?);
            }
            "--slow-query-us" => {
                let value = args
                    .next()
                    .ok_or("--slow-query-us expects a number of microseconds")?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("--slow-query-us expects a number, got `{value}`"))?;
                slow_query_us = Some(n);
            }
            "--profile" => profile = true,
            "--profile-hz" => {
                let value = args.next().ok_or("--profile-hz expects a sampling rate")?;
                let n: u32 = value
                    .parse()
                    .map_err(|_| format!("--profile-hz expects a number, got `{value}`"))?;
                if n == 0 || n > 1000 {
                    return Err("--profile-hz must be between 1 and 1000".into());
                }
                profile_hz = n;
            }
            "--max-conns" | "--max-request-bytes" | "--reactors" => {
                let target = serve
                    .as_mut()
                    .ok_or_else(|| format!("{flag} is only valid after the `serve` subcommand"))?;
                let value = args
                    .next()
                    .ok_or_else(|| format!("{flag} expects a number"))?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("{flag} expects a number, got `{value}`"))?;
                if n == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
                match flag.as_str() {
                    "--max-conns" => target.max_connections = n,
                    "--max-request-bytes" => target.max_request_bytes = n,
                    _ => target.reactors = n,
                }
            }
            "--binary" => {
                serve
                    .as_mut()
                    .ok_or("--binary is only valid after the `serve` subcommand")?
                    .binary = true;
            }
            "--help" | "-h" => {
                // Ignore write errors (e.g. `diffcond --help | head` closing
                // the pipe early) instead of panicking.
                let _ = writeln!(std::io::stdout(), "{USAGE}");
                std::process::exit(0);
            }
            "--answer-cache" | "--bound-cache" | "--intern-limit" | "--bound-budget" => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{flag} expects a number"))?;
                let n: u128 = value
                    .parse()
                    .map_err(|_| format!("{flag} expects a number, got `{value}`"))?;
                let as_capacity = |n: u128| -> Result<usize, String> {
                    usize::try_from(n)
                        .map_err(|_| format!("{flag} value {n} does not fit this platform"))
                };
                match flag.as_str() {
                    "--answer-cache" => config.answer_cache_capacity = as_capacity(n)?,
                    "--bound-cache" => config.bound_cache_capacity = as_capacity(n)?,
                    "--intern-limit" => config.interner_compaction_threshold = as_capacity(n)?,
                    _ => config.bounds.budget_ops = n,
                }
            }
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    Ok(Options {
        config,
        slow_query_us,
        profile,
        profile_hz,
        serve,
        top: None,
    })
}

/// Stdin serving loop: each chunk of stdin goes through the same connection
/// driver as a socket's bytes (text lines, no length cap), and the replies
/// to everything read so far are written out before the next read blocks.
fn serve_stdin(config: SessionConfig, slow_query_us: Option<u64>) {
    let mut server = Server::new(config);
    server.set_slow_query_us(slow_query_us);
    let mut driver = Connection::new(server, usize::MAX, false);
    let mut input = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    let mut replies = Vec::new();
    loop {
        let closed = match input.fill_buf() {
            Ok([]) => {
                driver.finish(&mut replies);
                true
            }
            Ok(chunk) => {
                let read = chunk.len();
                let closed = driver.feed(chunk, &mut replies);
                input.consume(read);
                closed
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => true,
        };
        let written = stdout.write_all(&replies).and_then(|()| stdout.flush());
        if closed || written.is_err() {
            break;
        }
        replies.clear();
    }
}

/// Network serving loop: bind, announce on stderr, serve until killed.
/// With `--metrics-addr`, a second listener serves the process-wide engine
/// metrics as Prometheus text exposition on its own thread.
fn serve_net(config: SessionConfig, slow_query_us: Option<u64>, options: ServeOptions) {
    let net_config = diffcon_engine::NetConfig {
        session: config,
        max_connections: options.max_connections,
        max_request_bytes: options.max_request_bytes,
        slow_query_us,
        reactors: options.reactors,
        binary: options.binary,
    };
    let server = match diffcon_engine::NetServer::bind(options.addr.as_str(), net_config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("diffcond: cannot bind {}: {e}", options.addr);
            std::process::exit(1);
        }
    };
    if let Some(metrics_addr) = &options.metrics_addr {
        let metrics_server = match diffcon_obs::TextServer::bind(metrics_addr.as_str()) {
            Ok(metrics_server) => metrics_server,
            Err(e) => {
                eprintln!("diffcond: cannot bind metrics address {metrics_addr}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "diffcond: metrics on http://{}/metrics (also /healthz /buildinfo /profile)",
            metrics_server.local_addr()
        );
        std::thread::spawn(move || {
            // Scrape-listener failures must never take down the serving
            // loop; the exposition endpoint is best-effort by design.
            let _ = metrics_server.run_routes(diffcon_engine::metrics::http_routes);
        });
    }
    eprintln!(
        "diffcond: serving on {} ({} reactor thread{}, up to {} connections{})",
        server.local_addr(),
        options.reactors,
        if options.reactors == 1 { "" } else { "s" },
        options.max_connections,
        if options.binary {
            ", binary framing enabled"
        } else {
            ""
        }
    );
    if let Err(e) = server.run() {
        eprintln!("diffcond: serving failed: {e}");
        std::process::exit(1);
    }
}

/// Live dashboard: poll the exposition endpoint and render cost summaries.
/// `--once` prints a single snapshot and exits; otherwise the terminal is
/// cleared and redrawn every interval until killed.
fn run_top(options: TopOptions) {
    loop {
        let frame = diffcon_obs::fetch(&options.metrics_addr)
            .map_err(|e| format!("cannot scrape {}: {e}", options.metrics_addr))
            .and_then(|text| {
                diffcon_obs::parse_exposition(&text)
                    .map_err(|e| format!("malformed exposition from {}: {e}", options.metrics_addr))
            })
            .map(|series| render_top(&options.metrics_addr, &series));
        match frame {
            Ok(frame) if options.once => {
                print!("{frame}");
                return;
            }
            Ok(frame) => {
                // ANSI clear + home so the dashboard redraws in place.
                print!("\x1b[2J\x1b[H{frame}");
                let _ = std::io::stdout().flush();
            }
            Err(message) if options.once => {
                eprintln!("diffcond: {message}");
                std::process::exit(1);
            }
            // A transient scrape failure must not kill a live dashboard:
            // report it and keep polling.
            Err(message) => eprintln!("diffcond: {message}"),
        }
        std::thread::sleep(std::time::Duration::from_millis(options.interval_ms));
    }
}

/// Formats one dashboard frame from a parsed exposition scrape.
fn render_top(addr: &str, series: &[diffcon_obs::Series]) -> String {
    let find = |name: &str, labels: &[(&str, &str)]| -> Option<f64> {
        series
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(key, value)| s.labels.iter().any(|(k, v)| k == key && v == value))
            })
            .map(|s| s.value)
    };
    let total = |name: &str| find(name, &[]).unwrap_or(0.0);
    let label_of = |s: &diffcon_obs::Series, key: &str| -> String {
        s.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    let mut out = format!("diffcond top — {addr}\n");
    out.push_str(&format!(
        "requests={} replies={} parse_errors={} connections={} flight_records={}\n",
        total("diffcond_requests_total"),
        total("diffcond_replies_total"),
        total("diffcond_parse_errors_total"),
        total("diffcond_connections_total"),
        total("diffcond_flight_records_total"),
    ));
    out.push_str(&format!(
        "bytes read={} written={}\n",
        find("diffcond_bytes_total", &[("direction", "read")]).unwrap_or(0.0),
        find("diffcond_bytes_total", &[("direction", "written")]).unwrap_or(0.0),
    ));
    out.push_str("stage latency us (p50/p99):");
    for stage in ["frame", "plan", "reply"] {
        let quantile = |q: &str| {
            find(
                "diffcond_stage_latency_us",
                &[("stage", stage), ("quantile", q)],
            )
            .unwrap_or(0.0)
        };
        out.push_str(&format!(
            " {stage} {}/{}",
            quantile("0.5"),
            quantile("0.99")
        ));
    }
    out.push('\n');
    // Reactor panel: readiness-loop health.  Ready-batch size shows how much
    // work each epoll wakeup amortizes; writev bytes per flush shows output
    // coalescing; per-reactor connection counts show accept distribution.
    let reactor_quantile = |name: &str, q: &str| find(name, &[("quantile", q)]).unwrap_or(0.0);
    out.push_str(&format!(
        "reactor wakeups={} ready_batch p50/p99={}/{} writev_bytes p50/p99={}/{}\n",
        total("diffcond_reactor_wakeups_total"),
        reactor_quantile("diffcond_reactor_ready_batch", "0.5"),
        reactor_quantile("diffcond_reactor_ready_batch", "0.99"),
        reactor_quantile("diffcond_reactor_writev_bytes", "0.5"),
        reactor_quantile("diffcond_reactor_writev_bytes", "0.99"),
    ));
    let mut reactors: Vec<(String, f64)> = series
        .iter()
        .filter(|s| s.name == "diffcond_reactor_connections")
        .map(|s| (label_of(s, "reactor"), s.value))
        .collect();
    reactors.sort_by(|a, b| a.0.cmp(&b.0));
    if !reactors.is_empty() {
        out.push_str("reactor connections:");
        for (reactor, conns) in &reactors {
            out.push_str(&format!(" r{reactor}={conns}"));
        }
        out.push('\n');
    }
    // Busiest sessions by attributed query count.
    let mut sessions: Vec<(String, String, f64)> = series
        .iter()
        .filter(|s| s.name == "diffcond_session_queries_total")
        .map(|s| (label_of(s, "conn"), label_of(s, "slot"), s.value))
        .collect();
    sessions.sort_by(|a, b| b.2.total_cmp(&a.2));
    out.push_str("sessions (conn:slot queries decide_us cache_hits):\n");
    for (conn, slot, queries) in sessions.iter().take(10) {
        let labels = [("conn", conn.as_str()), ("slot", slot.as_str())];
        out.push_str(&format!(
            "  {conn}:{slot}  {queries}  {}  {}\n",
            find("diffcond_session_decide_us_total", &labels).unwrap_or(0.0),
            find("diffcond_session_cache_hits_total", &labels).unwrap_or(0.0),
        ));
    }
    // Busiest connections by attributed request count.
    let mut conns: Vec<(String, f64)> = series
        .iter()
        .filter(|s| s.name == "diffcond_connection_requests_total")
        .map(|s| (label_of(s, "conn"), s.value))
        .collect();
    conns.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.push_str("connections (conn requests bytes_read bytes_written):\n");
    for (conn, requests) in conns.iter().take(10) {
        let read = [("conn", conn.as_str()), ("direction", "read")];
        let written = [("conn", conn.as_str()), ("direction", "written")];
        out.push_str(&format!(
            "  {conn}  {requests}  {}  {}\n",
            find("diffcond_connection_bytes_total", &read).unwrap_or(0.0),
            find("diffcond_connection_bytes_total", &written).unwrap_or(0.0),
        ));
    }
    // Allocation accounting: global op/byte totals, then the stages (beacon
    // tags) charged with the most allocator traffic.
    out.push_str(&format!(
        "alloc ops={}/{} bytes={}/{} (alloc/free)\n",
        find("diffcond_alloc_ops_total", &[("op", "alloc")]).unwrap_or(0.0),
        find("diffcond_alloc_ops_total", &[("op", "free")]).unwrap_or(0.0),
        find("diffcond_alloc_bytes_total", &[("op", "alloc")]).unwrap_or(0.0),
        find("diffcond_alloc_bytes_total", &[("op", "free")]).unwrap_or(0.0),
    ));
    let mut stages: Vec<(String, f64, f64)> = series
        .iter()
        .filter(|s| s.name == "diffcond_stage_allocs_total")
        .map(|s| {
            let stage = label_of(s, "stage");
            let bytes = find(
                "diffcond_stage_alloc_bytes_total",
                &[("stage", stage.as_str())],
            )
            .unwrap_or(0.0);
            (stage, s.value, bytes)
        })
        .collect();
    stages.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.push_str("allocs by stage (stage ops bytes):\n");
    for (stage, ops, bytes) in stages.iter().take(10) {
        out.push_str(&format!("  {stage}  {ops}  {bytes}\n"));
    }
    // Hottest sampled stacks (populated when the server profiles, via
    // --profile or `debug profile start`).
    let mut stacks: Vec<(String, f64)> = series
        .iter()
        .filter(|s| s.name == "diffcond_profile_stack_samples_total")
        .map(|s| (label_of(s, "stack"), s.value))
        .collect();
    stacks.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.push_str(&format!(
        "profile (running={} samples={}):\n",
        total("diffcond_profile_running"),
        total("diffcond_profile_samples_total"),
    ));
    for (stack, count) in stacks.iter().take(10) {
        out.push_str(&format!("  {count}  {stack}\n"));
    }
    out
}

/// `diffcond check FILE...`: runs each script against an in-process server
/// ([`diffcon_engine::script::check`]) and prints its findings as
/// `file:line:col: severity: message`.  Exits 0 when no line answers `err`,
/// 1 when one does, 2 on usage or IO failure.
fn run_check(paths: &[String]) -> ! {
    if paths.is_empty() {
        eprintln!("diffcond: check expects one or more script files (try --help)");
        std::process::exit(2);
    }
    let mut any_error = false;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("diffcond: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        for diagnostic in diffcon_engine::script::check(&text) {
            any_error |= diagnostic.error;
            let _ = writeln!(out, "{path}:{diagnostic}");
        }
    }
    let _ = out.flush();
    std::process::exit(if any_error { 1 } else { 0 });
}

fn main() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some("check") {
        let paths: Vec<String> = args.collect();
        if paths.iter().any(|p| p == "--help" || p == "-h") {
            let _ = writeln!(std::io::stdout(), "{USAGE}");
            std::process::exit(0);
        }
        run_check(&paths);
    }
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("diffcond: {message}");
            std::process::exit(2);
        }
    };
    if let Some(top) = options.top {
        run_top(top);
        return;
    }
    if options.profile_hz != 0 {
        diffcon_obs::profile::set_default_hz(options.profile_hz);
    }
    if options.profile {
        let hz = diffcon_obs::profile::sampler_start(0);
        eprintln!("diffcond: profiling at {hz} hz (dump with `debug profile dump` or /profile)");
    }
    // The stdin loops run here; tag the thread so sampled stacks attribute
    // main-thread time to its class.  Under `serve` this thread runs
    // reactor 0, which tags itself `reactor`.
    diffcon_obs::profile::set_thread_class("main");
    if let Some(serve) = options.serve {
        serve_net(options.config, options.slow_query_us, serve);
    } else {
        serve_stdin(options.config, options.slow_query_us);
    }
}
