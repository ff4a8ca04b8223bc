//! # diffcon-obs — hermetic observability primitives for the serving stack
//!
//! The engine workspace builds without crate-registry access, so this crate
//! supplies — std-only, in the same vendored-shim spirit as `vendor/rand`
//! and `vendor/rayon` — the observability toolkit the serving crates
//! instrument themselves with:
//!
//! * [`Counter`] and [`Gauge`]: relaxed atomic scalars.
//! * [`Histogram`]: a lock-free log-bucketed value histogram (16 sub-buckets
//!   per octave, ≤ 6.25 % relative bucket error) with exact count/sum/max,
//!   and immutable [`HistogramSnapshot`]s answering p50/p90/p99/p999
//!   quantiles.
//! * [`FlightRecorder`]: an always-on lock-free ring buffer of fixed-width
//!   records (one per completed request) — overwrite-oldest, written
//!   concurrently from any number of threads, and dumpable without stopping
//!   traffic.
//! * [`Exposition`]: a Prometheus-text-format (version 0.0.4) builder that
//!   emits one `# TYPE` line per family and renders histograms as summary
//!   series (`{quantile="…"}` plus `_sum`/`_count`), with a matching
//!   [`parse_exposition`] validator used by the property tests and smoke
//!   checks.
//! * [`TextServer`]: a one-shot HTTP `GET` responder over
//!   `std::net::TcpListener` (each request re-renders the text body), plus
//!   [`fetch`], the matching one-shot client for tests and smoke scripts.
//!   [`TextServer::run_routes`] adds path dispatch (`/metrics`, `/healthz`,
//!   `/profile?seconds=S`, …) without growing into an HTTP framework.
//! * [`profile`]: continuous profiling — per-thread activity beacons with a
//!   cooperative sampler rendering flamegraph-collapsed stacks, and a
//!   counting `#[global_allocator]` wrapper attributing allocations to the
//!   active beacon tag.
//!
//! Every recording operation is a handful of relaxed atomic RMWs — no locks,
//! no allocation — so the engine can leave instrumentation enabled on its
//! hot paths.
//!
//! The crate denies `unsafe_code` everywhere except the one module whose
//! job requires it by signature: [`profile`]'s `GlobalAlloc` impl, which
//! forwards verbatim to `std::alloc::System`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotone event counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (relaxed atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: `2^SUB_BITS` buckets per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: `SUB` exact linear buckets for values below `SUB`,
/// then `SUB` buckets for each of the 60 octaves `[2^4, 2^64)`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The bucket index of `value` (log-linear, monotone in `value`).
fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros();
        let mantissa = ((value >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (exp - SUB_BITS + 1) as usize * SUB + mantissa
    }
}

/// A representative value for bucket `index`: the bucket midpoint (exact for
/// the linear buckets), so quantile estimates sit inside the bucket rather
/// than at its edge.
fn bucket_value(index: usize) -> u64 {
    if index < SUB {
        index as u64
    } else {
        let exp = (index / SUB) as u32 + SUB_BITS - 1;
        let mantissa = (index % SUB) as u64;
        let lower = (1u64 << exp) + (mantissa << (exp - SUB_BITS));
        lower + (1u64 << (exp - SUB_BITS)) / 2
    }
}

/// A lock-free log-bucketed histogram of `u64` observations.
///
/// Buckets are log-linear — 16 equal sub-buckets per power of two — so
/// quantile estimates carry at most a 1/16 relative bucket error across the
/// full `u64` range while recording stays one relaxed `fetch_add` per bucket
/// plus exact count/sum/max maintenance.
///
/// The unit is the caller's: the engine records nanoseconds for latencies
/// and raw counts for sizes, and chooses the display scale at exposition
/// time.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // A new maximum is rare: skip the locked compare-exchange loop
        // `fetch_max` costs when the value cannot raise it.
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records every value of `values`, with one atomic add per distinct
    /// bucket among up to 16 values at a time (a batch of similar values
    /// lands in a few buckets), then the count, sum and maximum once for
    /// all of them.
    pub fn record_all(&self, values: impl IntoIterator<Item = u64>) {
        let mut pending = [(0usize, 0u64); 16];
        let mut distinct = 0;
        let flush = |pending: &[(usize, u64)]| {
            for &(bucket, n) in pending {
                self.buckets[bucket].fetch_add(n, Ordering::Relaxed);
            }
        };
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        for value in values {
            let bucket = bucket_index(value);
            match pending[..distinct].iter_mut().find(|(b, _)| *b == bucket) {
                Some((_, n)) => *n += 1,
                None => {
                    if distinct == pending.len() {
                        flush(&pending);
                        distinct = 0;
                    }
                    pending[distinct] = (bucket, 1);
                    distinct += 1;
                }
            }
            count += 1;
            sum = sum.wrapping_add(value);
            max = max.max(value);
        }
        flush(&pending[..distinct]);
        if count == 0 {
            return;
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        if max > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(max, Ordering::Relaxed);
        }
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of the observations recorded so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time immutable copy for quantile queries.  Concurrent
    /// recording keeps the snapshot internally consistent to within the
    /// in-flight operations (counts may trail buckets by a few events).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// Observations in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The estimated `q`-quantile (`0.0 ..= 1.0`): the representative value
    /// of the bucket holding the ceil(q·count)-th smallest observation.
    /// Returns 0 for an empty snapshot; `q = 1.0` returns the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q.max(0.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(index).min(self.max);
            }
        }
        self.max
    }

    /// The median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// The observations recorded after `baseline` was taken: bucket-wise
    /// saturating subtraction.  This is how a bench phase reads *its own*
    /// latency distribution out of a process-lifetime histogram: snapshot
    /// before, snapshot after, subtract.  (The max is the lifetime max — a
    /// windowed max is not recoverable from merged buckets — so `minus`
    /// re-derives it from the surviving buckets' upper range.)
    pub fn minus(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(baseline.buckets.iter())
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let max = buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &n)| n > 0)
            .map_or(0, |(index, _)| bucket_value(index).min(self.max));
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            max,
        }
    }
}

/// Words in one [`FlightRecorder`] record.  The layout of the words is the
/// caller's contract (the engine packs its per-request stage record into
/// them); the recorder only guarantees that a dumped record is exactly one
/// writer's `FLIGHT_WORDS` words, never a mixture.
pub const FLIGHT_WORDS: usize = 11;

/// One fixed-width flight-recorder record.
pub type FlightWords = [u64; FLIGHT_WORDS];

/// One ring slot: a sequence tag plus the record words.
///
/// The tag encodes the slot's state *and* which global write it holds:
/// `0` = never written, `2·i + 1` = write `i` in progress, `2·i + 2` =
/// write `i` complete.  Because a slot is only ever reused by writes whose
/// indices differ by a multiple of the capacity, equal tags before and
/// after a read prove the words belong to one complete write (no ABA).
#[derive(Debug)]
struct FlightSlot {
    seq: AtomicU64,
    words: [AtomicU64; FLIGHT_WORDS],
}

impl FlightSlot {
    fn empty() -> FlightSlot {
        FlightSlot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// An always-on, fixed-capacity, overwrite-oldest ring buffer of
/// [`FlightWords`] records, written lock-free from any number of threads
/// and dumpable at any moment without stopping writers.
///
/// Writes claim a globally ordered index with one `fetch_add` (a batch of
/// records claims its consecutive indices with one), then publish
/// through a per-slot seqlock (tag odd while the words are being stored,
/// even once complete).  Readers accept a slot only when the tag is even
/// and unchanged across the word reads, so a dump taken under live traffic
/// never observes a torn record — at worst it skips the one slot currently
/// being overwritten.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[FlightSlot]>,
    cursor: AtomicU64,
}

impl Default for FlightRecorder {
    /// A recorder sized for serving-process use: the 1024 most recent
    /// requests, a few seconds of history under load.
    fn default() -> FlightRecorder {
        FlightRecorder::with_capacity(1024)
    }
}

impl FlightRecorder {
    /// A recorder holding the `capacity` most recent records (clamped to at
    /// least 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity.max(1)).map(|_| FlightSlot::empty()).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Total records ever written (monotone; the ring retains the most
    /// recent `capacity` of them).
    pub fn written(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Appends one record, overwriting the oldest once the ring is full.
    pub fn record(&self, words: &FlightWords) {
        let index = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.write(index, words);
    }

    /// Appends `records` in order under consecutive indices, claimed with
    /// one `fetch_add` for all of them.
    pub fn record_all<I>(&self, records: I)
    where
        I: IntoIterator<Item = FlightWords>,
        I::IntoIter: ExactSizeIterator,
    {
        let records = records.into_iter();
        let first = self
            .cursor
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        for (index, words) in (first..).zip(records) {
            self.write(index, &words);
        }
    }

    /// Publishes `words` as the record of write index `index` through its
    /// slot's seqlock.
    fn write(&self, index: u64, words: &FlightWords) {
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        let claim = 2 * index + 1;
        let mut seen = slot.seq.load(Ordering::Acquire);
        loop {
            if seen > claim {
                // A write with a larger index already owns this slot (we
                // lagged a full ring behind); our record is the older one,
                // so dropping it preserves overwrite-oldest semantics.
                return;
            }
            if seen % 2 == 1 {
                // An older write is mid-flight in this slot; wait for its
                // publish rather than interleaving word stores with it.
                std::hint::spin_loop();
                seen = slot.seq.load(Ordering::Acquire);
                continue;
            }
            match slot
                .seq
                .compare_exchange_weak(seen, claim, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
        for (cell, &word) in slot.words.iter().zip(words) {
            cell.store(word, Ordering::Release);
        }
        slot.seq.store(claim + 1, Ordering::Release);
    }

    /// The most recent `n` complete records, newest first, each paired with
    /// its global write index.  Taken under live traffic: slots mid-write
    /// are retried briefly and then skipped, so the dump is tear-free by
    /// construction (a record is returned only when its sequence tag is
    /// even and identical before and after the word reads).
    pub fn dump(&self, n: usize) -> Vec<(u64, FlightWords)> {
        let mut out: Vec<(u64, FlightWords)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            for _attempt in 0..8 {
                let before = slot.seq.load(Ordering::Acquire);
                if before == 0 {
                    break; // never written
                }
                if before % 2 == 1 {
                    std::hint::spin_loop();
                    continue; // write in progress; retry
                }
                let mut words = [0u64; FLIGHT_WORDS];
                for (word, cell) in words.iter_mut().zip(slot.words.iter()) {
                    *word = cell.load(Ordering::Acquire);
                }
                if slot.seq.load(Ordering::Acquire) == before {
                    out.push((before / 2 - 1, words));
                    break;
                }
            }
        }
        out.sort_unstable_by_key(|&(index, _)| std::cmp::Reverse(index));
        out.truncate(n);
        out
    }
}

/// A Prometheus-text-format (0.0.4) exposition builder.
///
/// Families self-register on first use — one `# TYPE` line each, in emission
/// order — and histograms render as Prometheus *summary* families: one
/// `{quantile="…"}` series per quantile plus `_sum` and `_count`.  The
/// builder panics (debug assertions) on malformed metric names, which keeps
/// the grammar errors at the emitting call site instead of in the scraper.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    typed: Vec<String>,
}

/// Quantiles every summary family reports.
const SUMMARY_QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    fn type_line(&mut self, name: &str, kind: &str) {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        if !self.typed.iter().any(|t| t == name) {
            self.typed.push(name.to_string());
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }
    }

    fn series(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = write!(self.out, "{name}");
        if !labels.is_empty() {
            let _ = write!(self.out, "{{");
            for (slot, (key, val)) in labels.iter().enumerate() {
                debug_assert!(valid_metric_name(key), "invalid label name {key:?}");
                let sep = if slot == 0 { "" } else { "," };
                let _ = write!(self.out, "{sep}{key}=\"{}\"", escape_label(val));
            }
            let _ = write!(self.out, "}}");
        }
        let _ = writeln!(self.out, " {}", format_value(value));
    }

    /// Emits a counter series.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.type_line(name, "counter");
        self.series(name, labels, value as f64);
    }

    /// Emits a gauge series.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.type_line(name, "gauge");
        self.series(name, labels, value as f64);
    }

    /// Emits a histogram snapshot as a summary family: one series per
    /// summary quantile (0.5/0.9/0.99/0.999) plus `name_sum` and
    /// `name_count`.
    /// Recorded values are divided by `scale` for display (e.g. nanosecond
    /// recordings with `scale = 1e3` expose microseconds).
    pub fn summary(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snapshot: &HistogramSnapshot,
        scale: f64,
    ) {
        self.type_line(name, "summary");
        let mut labeled: Vec<(&str, &str)> = labels.to_vec();
        for (q, text) in SUMMARY_QUANTILES {
            labeled.push(("quantile", text));
            self.series(name, &labeled, snapshot.quantile(q) as f64 / scale);
            labeled.pop();
        }
        let sum_name = format!("{name}_sum");
        let count_name = format!("{name}_count");
        self.series(&sum_name, labels, snapshot.sum() as f64 / scale);
        self.series(&count_name, labels, snapshot.count() as f64);
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// `true` when `name` is a valid Prometheus metric or label name.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Escapes a label value per the text format (`\\`, `\"`, `\n`).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a value the text format accepts (finite decimal, no exponent
/// surprises for integral values).
fn format_value(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// One sample series parsed out of an exposition body.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Metric name (`name` in `name{labels} value`).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Series {
    /// A canonical identity for duplicate detection: the name plus the
    /// label pairs in source order.
    pub fn key(&self) -> String {
        let mut key = self.name.clone();
        for (name, value) in &self.labels {
            key.push('\u{1}');
            key.push_str(name);
            key.push('=');
            key.push_str(value);
        }
        key
    }
}

/// Parses and validates a Prometheus-text exposition body: every non-comment
/// line must match the `name{label="value",…} value` grammar, names must be
/// valid, and values must be finite numbers.  Returns the sample series in
/// source order.
///
/// # Errors
/// A description of the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<Series>, String> {
    let mut series = Vec::new();
    for (slot, line) in text.lines().enumerate() {
        let lineno = slot + 1;
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            if let Some("TYPE") = words.next() {
                let name = words
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a name"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: invalid TYPE name {name:?}"));
                }
                match words.next() {
                    Some("counter" | "gauge" | "summary" | "histogram" | "untyped") => {}
                    other => return Err(format!("line {lineno}: invalid TYPE kind {other:?}")),
                }
            }
            continue;
        }
        series.push(parse_sample(line).map_err(|e| format!("line {lineno}: {e}"))?);
    }
    Ok(series)
}

/// Parses one `name{label="value",…} value` sample line.
fn parse_sample(line: &str) -> Result<Series, String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_ascii_whitespace())
        .ok_or("sample line without a value")?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        // Walk pair by pair rather than splitting at the first `}`: a
        // quoted label value may itself contain `}` (or `,` or `=`), so the
        // label set only ends at a `}` seen *between* pairs.
        let mut cursor = body;
        loop {
            if let Some(after) = cursor.strip_prefix('}') {
                rest = after;
                break;
            }
            if cursor.is_empty() {
                return Err("unterminated label set".to_string());
            }
            let eq = cursor.find('=').ok_or("label without '='")?;
            let label = &cursor[..eq];
            if !valid_metric_name(label) {
                return Err(format!("invalid label name {label:?}"));
            }
            let quoted = cursor[eq + 1..]
                .strip_prefix('"')
                .ok_or("label value not quoted")?;
            let endq = find_unescaped_quote(quoted).ok_or("unterminated label value")?;
            labels.push((label.to_string(), unescape_label(&quoted[..endq])));
            cursor = &quoted[endq + 1..];
            cursor = cursor.strip_prefix(',').unwrap_or(cursor);
        }
    }
    let value_text = rest.trim();
    if value_text.is_empty() || value_text.contains(char::is_whitespace) {
        return Err(format!("malformed value field {value_text:?}"));
    }
    let value: f64 = value_text
        .parse()
        .map_err(|_| format!("unparseable value {value_text:?}"))?;
    if !value.is_finite() {
        return Err(format!("non-finite value {value_text:?}"));
    }
    Ok(Series {
        name: name.to_string(),
        labels,
        value,
    })
}

/// The byte offset of the first `"` in `text` not preceded by a backslash.
fn find_unescaped_quote(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut slot = 0;
    while slot < bytes.len() {
        match bytes[slot] {
            b'\\' => slot += 2,
            b'"' => return Some(slot),
            _ => slot += 1,
        }
    }
    None
}

/// Undoes [`escape_label`].
fn unescape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Shared [`TextServer`] stop flag.
#[derive(Debug, Default)]
struct ServerState {
    shutdown: AtomicBool,
}

/// Stops a running [`TextServer`] accept loop from another thread.
#[derive(Debug, Clone)]
pub struct TextServerHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
}

impl TextServerHandle {
    /// Flags shutdown and pokes the accept loop awake.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A minimal one-shot HTTP text endpoint: every `GET` re-renders the body
/// and answers `200 text/plain; version=0.0.4` with `Connection: close`.
/// This is the `--metrics-addr` scrape surface — single-threaded by design
/// (a scrape is one small read and one small write; serving it inline keeps
/// the server dependency-free and unexciting).
#[derive(Debug)]
pub struct TextServer {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl TextServer {
    /// Binds the listening socket (port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<TextServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TextServer {
            listener,
            addr,
            state: Arc::new(ServerState::default()),
        })
    }

    /// The bound address (the actual port, when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop [`TextServer::run`].
    pub fn handle(&self) -> TextServerHandle {
        TextServerHandle {
            state: Arc::clone(&self.state),
            addr: self.addr,
        }
    }

    /// Serves requests until the handle flags shutdown.  `render` is called
    /// once per request; connection-level errors (slow or vanished clients)
    /// drop that connection and keep serving.  Every `GET` path answers the
    /// same body — the single-endpoint form of [`TextServer::run_routes`].
    pub fn run(self, render: impl Fn() -> String) -> io::Result<()> {
        self.run_routes(|_path| HttpResponse::ok(render()))
    }

    /// Serves requests until the handle flags shutdown, dispatching on the
    /// request path.  `route` receives the full request target (path plus
    /// any `?query`) of each `GET` and returns the response; non-`GET`
    /// methods are answered `405` without consulting it.
    pub fn run_routes(self, route: impl Fn(&str) -> HttpResponse) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let _ = answer_one(stream, &route);
        }
        Ok(())
    }
}

/// One HTTP response from a [`TextServer::run_routes`] route handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code (200, 404, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

/// The content type every metrics-style plain-text body is served as.
pub const TEXT_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

impl HttpResponse {
    /// A `200 OK` plain-text response.
    pub fn ok(body: String) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type: TEXT_CONTENT_TYPE,
            body,
        }
    }

    /// A `404 Not Found` response naming the missing path.
    pub fn not_found(path: &str) -> HttpResponse {
        HttpResponse {
            status: 404,
            content_type: TEXT_CONTENT_TYPE,
            body: format!("no such endpoint: {path}\n"),
        }
    }

    /// A `400 Bad Request` response with a reason.
    pub fn bad_request(reason: String) -> HttpResponse {
        HttpResponse {
            status: 400,
            content_type: TEXT_CONTENT_TYPE,
            body: reason,
        }
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Response",
        }
    }
}

/// Reads one HTTP request head and answers it via the route handler.
fn answer_one(mut stream: TcpStream, route: &impl Fn(&str) -> HttpResponse) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    // Read until the blank line ending the request head; cap the head at 8
    // KiB so a garbage client cannot buffer unboundedly.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && !head.windows(2).any(|w| w == b"\n\n") {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
        if head.len() > 8 * 1024 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let response = if let Some(target) = request.strip_prefix("GET ") {
        // `GET <target> HTTP/1.x` — the target runs to the next space (or
        // line end for degenerate clients).
        let path = target
            .split_whitespace()
            .next()
            .filter(|p| !p.is_empty())
            .unwrap_or("/");
        route(path)
    } else {
        HttpResponse {
            status: 405,
            content_type: TEXT_CONTENT_TYPE,
            body: String::new(),
        }
    };
    let head = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.status_text(),
        response.content_type,
        response.body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// One-shot HTTP `GET /metrics` against `addr`, returning the response
/// body.  The matching client for [`TextServer`] — what the smoke tests and
/// examples scrape with when `curl` is not around.
///
/// # Errors
/// Propagates connection and read failures; a non-200 status surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn fetch(addr: impl ToSocketAddrs) -> io::Result<String> {
    fetch_path(addr, "/metrics")
}

/// One-shot HTTP `GET <path>` against `addr`, returning the response body.
/// The routed-companion of [`fetch`]; `path` may carry a query string
/// (`/profile?seconds=1`).
///
/// # Errors
/// Propagates connection and read failures; a non-200 status surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn fetch_path(addr: impl ToSocketAddrs, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .or_else(|| response.split_once("\n\n"))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP header terminator"))?;
    if !head.contains("200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("non-200 response: {}", head.lines().next().unwrap_or("")),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_within_error() {
        let mut values: Vec<u64> = Vec::new();
        for exp in 0..64u32 {
            for offset in [0u64, 1, 3] {
                values.push((1u64 << exp).saturating_add(offset << exp.saturating_sub(3)));
            }
        }
        values.sort_unstable();
        values.dedup();
        let mut last = 0usize;
        for &v in &values {
            let index = bucket_index(v);
            assert!(index >= last, "index regressed at {v}");
            assert!(index < BUCKETS);
            last = index;
            let rep = bucket_value(index);
            if v >= SUB as u64 {
                let err = rep.abs_diff(v) as f64 / v as f64;
                assert!(err <= 1.0 / SUB as f64, "bucket error {err} at {v}");
            } else {
                assert_eq!(rep, v, "linear buckets are exact");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        assert_eq!(s.max(), 1000);
        let p50 = s.p50() as f64;
        assert!((p50 - 500.0).abs() / 500.0 <= 0.07, "p50 {p50}");
        let p99 = s.p99() as f64;
        assert!((p99 - 990.0).abs() / 990.0 <= 0.07, "p99 {p99}");
        assert_eq!(s.quantile(1.0), 1000);
        assert!(s.p999() <= 1000);
    }

    #[test]
    fn minus_subtracts_a_baseline() {
        let h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let before = h.snapshot();
        for v in 1000..1100u64 {
            h.record(v);
        }
        let after = h.snapshot();
        assert_eq!(after.count(), 200);
        assert_eq!(after.max(), 1099);
        assert_eq!(h.sum(), after.sum());
        let delta = after.minus(&before);
        assert_eq!(delta.count(), 100);
        assert_eq!(delta.sum(), (1000..1100u64).sum::<u64>());
        assert!(delta.p50() >= 1000);
    }

    #[test]
    fn record_all_matches_one_record_per_value() {
        // More distinct buckets than one coalescing run holds, repeated.
        let values: Vec<u64> = [0u64, 3, 17, 17, 1_000, 65_536, 12]
            .into_iter()
            .chain((0..100).map(|i| 1 << (i % 40)))
            .collect();
        let one = Histogram::new();
        for &v in &values {
            one.record(v);
        }
        let all = Histogram::new();
        all.record_all(values.iter().copied());
        all.record_all([]);
        let (one, all) = (one.snapshot(), all.snapshot());
        assert_eq!(all.count(), one.count());
        assert_eq!(all.sum(), one.sum());
        assert_eq!(all.max(), one.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(all.quantile(q), one.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.quantile(1.0), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn minus_of_identical_snapshots_is_an_empty_window() {
        let h = Histogram::new();
        for v in [3u64, 5, 900, 70_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let window = snap.minus(&snap);
        assert_eq!(window.count(), 0);
        assert_eq!(window.sum(), 0);
        assert_eq!(window.max(), 0, "empty window re-derives max as 0");
        assert_eq!(window.p50(), 0);
        assert_eq!(window.quantile(1.0), 0);
        assert_eq!(window.mean(), 0.0);
    }

    #[test]
    fn minus_saturates_when_the_baseline_is_ahead() {
        // A baseline taken from a *different* (fuller) histogram models the
        // counter-wrap / stale-baseline case: subtraction must saturate
        // bucket-wise and in count/sum rather than wrapping to huge values.
        let small = Histogram::new();
        let big = Histogram::new();
        for v in 0..10u64 {
            small.record(v);
        }
        for v in 0..100u64 {
            big.record(v);
        }
        let window = small.snapshot().minus(&big.snapshot());
        assert_eq!(window.count(), 0, "count saturates, never wraps");
        assert_eq!(window.sum(), 0, "sum saturates, never wraps");
        assert_eq!(window.max(), 0);
        // Mixed direction: buckets the small histogram *does* exceed
        // survive, the rest clamp at zero.
        let lopsided = Histogram::new();
        for _ in 0..5 {
            lopsided.record(1_000_000);
        }
        let window = lopsided.snapshot().minus(&big.snapshot());
        assert_eq!(window.count(), 0, "scalar count still saturates");
        assert!(window.quantile(1.0) <= lopsided.snapshot().max());
    }

    #[test]
    fn minus_windows_stay_correct_across_snapshot_ring_reuse() {
        // A ring of snapshots differenced newest against oldest: a rolling
        // window over a live histogram must always contain exactly the
        // observations recorded inside the window.
        let h = Histogram::new();
        let mut ring: Vec<HistogramSnapshot> = vec![h.snapshot()];
        const RING: usize = 4;
        for round in 1..=20u64 {
            for v in 0..round {
                h.record(1_000 + v);
            }
            ring.push(h.snapshot());
            if ring.len() > RING {
                ring.remove(0);
            }
            let window = ring.last().unwrap().minus(&ring[0]);
            let rounds_in_window = (ring.len() - 1) as u64;
            let expected: u64 = (0..rounds_in_window).map(|k| round - k).sum();
            assert_eq!(window.count(), expected, "round {round}");
            assert!(window.max() >= 1_000 || window.count() == 0);
            assert!(window.p50() >= 1_000 || window.count() == 0);
        }
    }

    /// A record derived from its index, so tearing is detectable.
    fn stamped(index: u64) -> FlightWords {
        let mut words = [0u64; FLIGHT_WORDS];
        for (slot, word) in words.iter_mut().enumerate() {
            *word = index.wrapping_mul(slot as u64 + 1).wrapping_add(7);
        }
        words
    }

    #[test]
    fn flight_recorder_retains_the_most_recent_records() {
        let ring = FlightRecorder::with_capacity(4);
        assert_eq!(ring.dump(8), Vec::new());
        for i in 0..10u64 {
            ring.record(&stamped(i));
        }
        assert_eq!(ring.written(), 10);
        let dumped = ring.dump(8);
        let indices: Vec<u64> = dumped.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, [9, 8, 7, 6], "newest first, capacity-bounded");
        for (index, words) in &dumped {
            assert_eq!(*words, stamped(*index));
        }
        assert_eq!(ring.dump(2).len(), 2, "dump truncates to n");
    }

    #[test]
    fn record_all_claims_consecutive_indices_in_order() {
        let ring = FlightRecorder::with_capacity(4);
        ring.record(&stamped(0));
        ring.record_all((1..7u32).map(|i| stamped(u64::from(i))));
        ring.record_all(std::iter::empty());
        assert_eq!(ring.written(), 7);
        let dumped = ring.dump(8);
        let indices: Vec<u64> = dumped.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, [6, 5, 4, 3]);
        for (index, words) in &dumped {
            assert_eq!(*words, stamped(*index));
        }
    }

    #[test]
    fn flight_recorder_never_tears_under_concurrent_traffic() {
        let ring = FlightRecorder::with_capacity(32);
        let writers = 4u64;
        let per_writer = 2_000u64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        ring.record(&stamped(w * per_writer + i));
                    }
                });
            }
            // A reader dumps continuously while the writers hammer the ring:
            // every record it accepts must satisfy the stamp invariant.
            let ring = &ring;
            scope.spawn(move || {
                for _ in 0..200 {
                    for (_, words) in ring.dump(32) {
                        let seed = words[0].wrapping_sub(7);
                        assert_eq!(words, stamped(seed), "torn record: {words:?}");
                    }
                }
            });
        });
        assert_eq!(ring.written(), writers * per_writer);
        // Quiescent: the ring holds 32 distinct complete records.
        let settled = ring.dump(32);
        assert_eq!(settled.len(), 32);
        let mut indices: Vec<u64> = settled.iter().map(|(i, _)| *i).collect();
        indices.dedup();
        assert_eq!(indices.len(), 32, "indices are distinct and sorted");
    }

    #[test]
    fn exposition_roundtrips_through_the_parser() {
        let h = Histogram::new();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            h.record(v);
        }
        let mut exp = Exposition::new();
        exp.counter("demo_requests_total", &[], 7);
        exp.counter(
            "demo_cache_ops_total",
            &[("cache", "answer"), ("outcome", "hit")],
            3,
        );
        exp.counter(
            "demo_cache_ops_total",
            &[("cache", "answer"), ("outcome", "miss")],
            4,
        );
        exp.gauge("demo_queue_depth", &[], 2);
        exp.summary("demo_latency_us", &[("stage", "plan")], &h.snapshot(), 1e3);
        let text = exp.finish();
        assert_eq!(
            text.matches("# TYPE demo_cache_ops_total counter").count(),
            1,
            "one TYPE line per family"
        );
        let series = parse_exposition(&text).expect("own output must parse");
        let mut keys: Vec<String> = series.iter().map(Series::key).collect();
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), total, "no duplicate series");
        let count = series
            .iter()
            .find(|s| s.name == "demo_latency_us_count")
            .unwrap();
        assert_eq!(count.value, 4.0);
        let hit = series
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "hit"))
            .unwrap();
        assert_eq!(hit.value, 3.0);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("ok 1").is_ok());
        assert!(parse_exposition("1bad 1").is_err());
        assert!(parse_exposition("name{l=\"v\" 1").is_err());
        assert!(parse_exposition("name nan").is_err());
        assert!(parse_exposition("name").is_err());
        assert!(parse_exposition("# TYPE name wat").is_err());
        assert!(parse_exposition("# random comment\nname 2.5").is_ok());
    }

    #[test]
    fn label_escaping_roundtrips() {
        let mut exp = Exposition::new();
        exp.counter("demo_total", &[("q", "a\"b\\c\nd")], 1);
        let text = exp.finish();
        let series = parse_exposition(&text).unwrap();
        assert_eq!(series[0].labels[0].1, "a\"b\\c\nd");
    }

    #[test]
    fn parser_handles_escaped_label_values() {
        // Hand-written (not builder-emitted) lines exercising every escape
        // the text format defines, plus the separators that must *not*
        // terminate a value while escaped or quoted.
        let cases: &[(&str, &str)] = &[
            (r#"m{l="plain"} 1"#, "plain"),
            (r#"m{l="a\"b"} 1"#, "a\"b"),
            (r#"m{l="a\\b"} 1"#, "a\\b"),
            (r#"m{l="a\nb"} 1"#, "a\nb"),
            (r#"m{l="tail\\"} 1"#, "tail\\"),
            (r#"m{l="a,b=c"} 1"#, "a,b=c"),
            (r#"m{l="a}b"} 1"#, "a}b"),
            (r#"m{l="\\\"\n"} 1"#, "\\\"\n"),
        ];
        for (line, want) in cases {
            let series = parse_exposition(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(series[0].labels[0].1, *want, "line {line:?}");
        }
        // Multiple labels where the first value contains an escaped quote
        // followed by a comma: the parser must not split inside it.
        let series = parse_exposition(r#"m{a="x\",y",b="z"} 2"#).unwrap();
        assert_eq!(series[0].labels.len(), 2);
        assert_eq!(series[0].labels[0].1, "x\",y");
        assert_eq!(series[0].labels[1].1, "z");
        // An unterminated escaped value must be rejected, not mis-split.
        assert!(parse_exposition(r#"m{l="open\"} 1"#).is_err());
    }

    #[test]
    fn text_server_serves_and_shuts_down() {
        let server = TextServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run(|| "demo_total 1\n".to_string()));
        let body = fetch(addr).expect("scrape");
        assert_eq!(body, "demo_total 1\n");
        // A second scrape re-renders.
        assert_eq!(fetch(addr).unwrap(), "demo_total 1\n");
        handle.shutdown();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn routed_server_dispatches_on_path() {
        let server = TextServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || {
            server.run_routes(|path| match path {
                "/metrics" => HttpResponse::ok("routed_total 1\n".to_string()),
                "/healthz" => HttpResponse::ok("ok\n".to_string()),
                p if p.starts_with("/echo?") => HttpResponse::ok(format!("{p}\n")),
                p => HttpResponse::not_found(p),
            })
        });
        assert_eq!(fetch(addr).unwrap(), "routed_total 1\n");
        assert_eq!(fetch_path(addr, "/healthz").unwrap(), "ok\n");
        // The query string reaches the handler intact.
        assert_eq!(
            fetch_path(addr, "/echo?seconds=2").unwrap(),
            "/echo?seconds=2\n"
        );
        let err = fetch_path(addr, "/nope").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("404"), "{err}");
        handle.shutdown();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn non_get_requests_are_refused() {
        let server = TextServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run(String::new));
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("405"), "{response}");
        handle.shutdown();
        thread.join().unwrap().unwrap();
    }
}
