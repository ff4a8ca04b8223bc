//! `perfbench`: the serving benchmark of `diffcond`.
//!
//! One load-generator process launches the real `diffcond serve` binary
//! (default flags; `--binary` only where the workload needs it) and drives
//! one workload over loopback in three phases — strict, pipelined, paced —
//! checking every reply against the in-process serial oracle.  With
//! `--trace 1` it also measures the loopback floor and runs the traced
//! in-process pass that yields the per-layer numbers.
//!
//! ```text
//! perfbench --workload warm_text|cold_decide|churn_binary --seed N
//!           --seconds S --trace 0|1 --server PATH [--spans-out FILE]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! Stable API surface: the generator and the traced run call only public
//! items the roadmap keeps — `Server::handle_line`, `parse_request`,
//! `DiffConstraint::parse`, `protocol::binary` encode/decode, `Session` and
//! `Snapshot` query and write methods, `QueryOutcome::route_name`/`cached`,
//! `BoundOutcome::cached` and `diffcon_obs::profile::thread_alloc_counts`.
//! They must not use
//! `Pipeline`, `--threads` or `NetConfig::threads` (the wave machinery is
//! slated for deletion), nor `EngineMetrics` stage histograms or
//! `FlightRecord` fields (the stages are to be renamed and re-partitioned),
//! so those changes can land without editing the benchmark.

#![forbid(unsafe_code)]

mod oracle;
mod phases;
#[cfg(test)]
mod selfcheck;
mod stats;
mod traced;
mod wire;
mod workloads;

use phases::{Paced, Pipelined, Transcript};
use stats::{median, percentile};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Kind, Workload};

/// The phases run in rounds of about this many seconds (strict, pipelined,
/// paced, and again), each phase keeping its connection.  Latencies are
/// medians over rounds, so a disturbance on a shared machine spoils a
/// round rather than the run.
const ROUND_SECONDS: f64 = 1.0;
/// Share of each round each phase runs.
const STRICT_SHARE: f64 = 0.30;
const PIPELINED_SHARE: f64 = 0.35;
const PACED_SHARE: f64 = 0.35;
/// Loopback-floor round trips in a traced run.
const FLOOR_SAMPLES: usize = 5000;
/// Stream phases: each runs on its own connection, so its own session.
const STRICT_PHASE: u64 = 0;
const PIPELINED_PHASE: u64 = 1;
const PACED_PHASE: u64 = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut spans_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value()? == "1"),
            "--server" => server = Some(PathBuf::from(value()?)),
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
        spans_out,
    })
}

/// Pipelined burst length per workload: tens of milliseconds of work each.
fn burst(kind: Kind) -> usize {
    match kind {
        Kind::WarmText => 8192,
        Kind::ColdDecide => 512,
        Kind::ChurnBinary => 2048,
    }
}

/// Traced-run request count per workload.
fn traced_requests(kind: Kind) -> usize {
    match kind {
        Kind::WarmText => 100_000,
        Kind::ColdDecide => 10_000,
        Kind::ChurnBinary => 20_000,
    }
}

/// Everything the end-to-end phases measured, per round.
struct EndToEnd {
    setup_s: Vec<f64>,
    /// Prologue replies of the extra set-up launches, and how many of them
    /// differ from the serving launch's (which the oracle checks).
    setup_replies: usize,
    setup_mismatches: usize,
    strict_us: Vec<Vec<f64>>,
    pipelined: Vec<Pipelined>,
    paced: Vec<Paced>,
    rss_mib: f64,
    transcripts: Vec<Transcript>,
}

fn end_to_end(workload: &Workload, args: &Args) -> std::io::Result<EndToEnd> {
    let rounds = (args.seconds / ROUND_SECONDS).round().max(1.0) as usize;
    let phase = |share: f64| Duration::from_secs_f64(args.seconds * share / rounds as f64);
    let (setup_s, server, mut strict_conn, mut strict_log) =
        phases::setup(workload, &args.server, STRICT_PHASE)?;
    let mut strict_stream = phases::warm_up(workload, &mut strict_conn, &mut strict_log)?;
    let (mut pipelined_conn, mut pipelined_log, mut pipelined_stream) =
        phases::prepared(workload, server.addr, PIPELINED_PHASE)?;
    let (mut paced_conn, mut paced_log, mut paced_stream) =
        phases::prepared(workload, server.addr, PACED_PHASE)?;
    let mut e2e = EndToEnd {
        setup_s: vec![setup_s],
        setup_replies: 0,
        setup_mismatches: 0,
        strict_us: Vec::new(),
        pipelined: Vec::new(),
        paced: Vec::new(),
        rss_mib: 0.0,
        transcripts: Vec::new(),
    };
    for _ in 0..rounds {
        e2e.strict_us.push(phases::strict(
            workload,
            &mut strict_stream,
            &mut strict_conn,
            &mut strict_log,
            phase(STRICT_SHARE),
        )?);
        e2e.pipelined.push(phases::pipelined(
            workload,
            &mut pipelined_stream,
            &server,
            &mut pipelined_conn,
            &mut pipelined_log,
            burst(workload.kind),
            phase(PIPELINED_SHARE),
        )?);
        e2e.paced.push(phases::paced(
            workload,
            &mut paced_stream,
            &mut paced_conn,
            &mut paced_log,
            phase(PACED_SHARE),
        )?);
        for _ in 0..phases::SETUP_LAUNCHES_PER_ROUND {
            let (seconds, _server, _conn, log) =
                phases::setup(workload, &args.server, STRICT_PHASE)?;
            e2e.setup_s.push(seconds);
            e2e.setup_replies += log.keys.len();
            e2e.setup_mismatches += log
                .keys
                .iter()
                .zip(&strict_log.keys)
                .filter(|(got, want)| got != want)
                .count();
        }
    }
    e2e.rss_mib = server.peak_rss_mib()?;
    e2e.transcripts = vec![strict_log, pipelined_log, paced_log];
    Ok(e2e)
}

/// Median over rounds of a per-round figure.
fn per_round<T>(rounds: &[T], figure: impl Fn(&T) -> f64) -> f64 {
    median(&rounds.iter().map(figure).collect::<Vec<_>>())
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind it, for the human-readable table.
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !args.server.is_file() {
        eprintln!("perfbench: no server binary at {}", args.server.display());
        std::process::exit(2);
    }
    let began = Instant::now();
    let workload = Workload::new(args.kind, args.seed);
    let e2e = match end_to_end(&workload, &args) {
        Ok(e2e) => e2e,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.kind.name());
            println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
            std::process::exit(1);
        }
    };

    // Correctness gate: every reply against the serial oracle.
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut oracle_errs = 0usize;
    for transcript in &e2e.transcripts {
        let verdict = oracle::check(&workload, transcript);
        attempted += transcript.attempted();
        failed += transcript.errs + verdict.mismatches + verdict.missing;
        oracle_errs += verdict.oracle_errs;
    }
    attempted += e2e.setup_replies;
    failed += e2e.setup_mismatches;
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    let correct = failed == 0 && oracle_errs == 0;

    let strict_p50 = per_round(&e2e.strict_us, |r| percentile(r, 0.50));
    let strict_samples: usize = e2e.strict_us.iter().map(Vec::len).sum();
    let pipelined_requests: usize = e2e.pipelined.iter().map(|p| p.requests).sum();
    let bursts: Vec<f64> = e2e
        .pipelined
        .iter()
        .flat_map(|p| p.burst_qps.clone())
        .collect();
    let server_cpu_s: f64 = e2e.pipelined.iter().map(|p| p.server_cpu_s).sum();
    let cpu_us_per_query = server_cpu_s * 1e6 / pipelined_requests.max(1) as f64;
    let paced_samples: usize = e2e.paced.iter().map(|p| p.latency_us.len()).sum();
    let late_us: Vec<f64> = e2e.paced.iter().flat_map(|p| p.late_us.clone()).collect();
    let end_to_end = vec![
        metric("setup_s", median(&e2e.setup_s), "s", e2e.setup_s.len()),
        metric("strict_p50_us", strict_p50, "us", strict_samples),
        metric("pipelined_qps", median(&bursts), "req/s", bursts.len()),
        metric(
            "paced_p50_us",
            per_round(&e2e.paced, |p| percentile(&p.latency_us, 0.50)),
            "us",
            paced_samples,
        ),
        metric(
            "server_cpu_us_per_query",
            cpu_us_per_query,
            "us",
            pipelined_requests,
        ),
        metric("server_rss_mb", e2e.rss_mib, "MiB", 1),
    ];
    println!(
        "{} seed {}: {attempted} requests, {failed} failed (failed_ratio {failed_ratio}), \
         paced rate {} req/s",
        args.kind.name(),
        args.seed,
        workload.kind.paced_rate()
    );
    print_table("end to end", &end_to_end);
    // The tails carry the host's scheduling jitter (a late wake-up of the
    // server or the generator; due-time latency also counts the generator's
    // own), so across seeds on a shared 2-core host they spread past the
    // largest bound allowed: reported with the per-layer figures, where no
    // bound applies.
    let tails = [
        metric(
            "strict_p99_us",
            per_round(&e2e.strict_us, |r| percentile(r, 0.99)),
            "us",
            strict_samples,
        ),
        metric(
            "paced_p99_us",
            per_round(&e2e.paced, |p| percentile(&p.latency_us, 0.99)),
            "us",
            paced_samples,
        ),
    ];
    print_table("unbounded", &tails);

    let reported = if args.trace {
        let floor = match phases::loopback_floor(FLOOR_SAMPLES) {
            Ok(floor) => floor,
            Err(e) => {
                eprintln!("perfbench: loopback floor failed: {e}");
                std::process::exit(1);
            }
        };
        let floor_p50 = percentile(&floor, 0.50);
        // The pipelined phase's requests, so the in-process cost compares
        // with the server CPU per query of that phase.
        let layers = traced::run(
            &workload,
            PIPELINED_PHASE,
            traced_requests(args.kind),
            args.spans_out.as_deref(),
        );
        let handle_line_ns = layers
            .iter()
            .find(|(name, ..)| *name == "protocol.handle_line_ns")
            .map_or(0.0, |&(_, value, _)| value);
        let mut per_layer = vec![
            metric("net.floor_p50_us", floor_p50, "us", floor.len()),
            metric(
                "net.floor_p99_us",
                percentile(&floor, 0.99),
                "us",
                floor.len(),
            ),
            metric(
                "net.strict_over_floor_p50_us",
                strict_p50 - floor_p50,
                "us",
                strict_samples,
            ),
            metric(
                "net.cpu_over_inprocess_ns",
                cpu_us_per_query * 1e3 - handle_line_ns,
                "ns",
                pipelined_requests,
            ),
        ];
        let traced_count = traced_requests(args.kind);
        per_layer.extend(
            layers
                .into_iter()
                .map(|(name, value, unit)| metric(name, value, unit, traced_count)),
        );
        per_layer.extend(tails);
        per_layer.extend([
            metric("harness.strict_samples", strict_samples as f64, "count", 1),
            metric("harness.paced_samples", paced_samples as f64, "count", 1),
            metric(
                "harness.paced_late_p99_us",
                percentile(&late_us, 0.99),
                "us",
                late_us.len(),
            ),
            metric(
                "harness.pipelined_requests",
                pipelined_requests as f64,
                "count",
                1,
            ),
            metric("harness.failed_ratio", failed_ratio, "ratio", attempted),
        ]);
        print_table("per layer", &per_layer);
        per_layer
    } else {
        end_to_end
    };
    eprintln!(
        "perfbench: {} done in {:.1} s",
        args.kind.name(),
        began.elapsed().as_secs_f64()
    );
    if !correct {
        eprintln!(
            "perfbench: FAILED: {failed} of {attempted} requests failed \
             ({oracle_errs} oracle errors)"
        );
    }
    println!("{}", result_json(correct, attempted, failed, &reported));
    if !correct {
        std::process::exit(1);
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!(
            "  {:<32} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        fields.join(", ")
    )
}
