//! Process-wide serving metrics: one lock-free [`EngineMetrics`] registry
//! every server, connection, cache, planner, and session publishes into,
//! rendered on demand as a Prometheus-text exposition.
//!
//! # Why a process-wide registry
//!
//! The serving stack is a tree of per-connection state — each TCP connection
//! owns a [`crate::protocol::Server`], each session its own caches and
//! [`crate::planner::Planner`] — but a scrape wants the process view: total
//! requests, the latency distribution across *all* connections, cache
//! traffic across *all* sessions.  This module is that aggregate layer, and
//! every write into it is a relaxed atomic.
//!
//! # One record per request
//!
//! Every request — any verb, an error, a silent line, a framing refusal —
//! ends in exactly one [`FlightRecord`], and committing it is the only
//! per-request write: the transport fills in the record's frame, reply,
//! and byte fields and stages it ([`crate::protocol::Server::stage`]), and
//! the connection publishes its staged records once per read burst through
//! one call into this module, `EngineMetrics::publish`.  Publishing
//! writes each record into the flight ring and derives every per-request
//! series from the records: one sample per record in each of the `frame`,
//! `plan`, and `reply` stage histograms (whose count is the request total),
//! and, added once per batch, the reply and byte counts, the connection's
//! series, and the answered queries and their decision time charged to the
//! session that answered them.  A batch holds at most `BATCH_RECORDS` (32)
//! records, and the connection publishes before any request that reads
//! this telemetry or changes its current session, so a reply sees every
//! earlier request of its connection; a reader on another thread may trail
//! by one burst.  The serial oracle's commit
//! ([`crate::protocol::Server::commit`]) stages and publishes at once.
//! Those fields are private to this module, so no other code can write
//! them.  Route decisions, cache hits, and trivial goals are counted
//! once, by the planner, in the session's [`SessionCosts`] ledger; rare
//! events keep their own counters where they happen (parse and framing
//! errors, slow queries, analyses, epoch publications, connections, the
//! reactor series, per-family cache traffic, per-route decision latency).
//!
//! The exposition ([`EngineMetrics::exposition`]) renders counters and
//! gauges directly and histograms as summary families (`quantile` labels
//! plus `_sum`/`_count`); `diffcond serve --metrics-addr HOST:PORT` serves
//! it over one-shot HTTP GET via [`diffcon_obs::TextServer`].
//!
//! # The request-scoped layer
//!
//! Aggregates answer "how is the fleet doing"; triage needs "which request
//! paid".  Three request-scoped structures live alongside the aggregate
//! counters:
//!
//! * [`FlightRecord`] — the fixed-width record of one request (trace id,
//!   connection id, session slot, verb, route, cache outcome, bytes in/out,
//!   per-stage nanoseconds, epoch), packed into [`FlightWords`] and kept in
//!   the always-on [`FlightRecorder`] ring.  Dumped live by the `debug
//!   recent` / `debug trace` protocol verbs and by the slow-query stderr
//!   line.
//! * [`SessionCosts`] and the per-connection series — cost attribution
//!   registered under `(connection, slot)` / `connection` keys and rendered
//!   as labeled `diffcond_session_*` / `diffcond_connection_*` series.
//! * [`RecentStats`] — windowed live stats: two rotating snapshots of the
//!   stage histograms and byte counters, the newer replaced every 30 s and
//!   none kept past 60 s, differenced with [`HistogramSnapshot::minus`] so
//!   `stats recent` can answer p50/p99 and rates over the last 30–60 s
//!   without restarting counters.

use crate::protocol::VERBS;
use diffcon::procedure::{ProcedureKind, ALL_PROCEDURES};
use diffcon_bounds::DeriveRoute;
use diffcon_obs::profile::{self, CountingAllocator};
use diffcon_obs::{
    Counter, Exposition, FlightRecorder, FlightWords, Gauge, Histogram, HistogramSnapshot,
    HttpResponse,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The whole process allocates through the counting wrapper, so the
/// allocation-accounting half of [`profile`] is always live: scrapes and the
/// `top` panel read real alloc/free totals, and the test suite can *prove*
/// the warm query path performs zero heap allocations instead of asserting
/// it by review.  The wrapper's cost is a few relaxed atomic adds per
/// alloc/free — noise against the allocation itself.
#[global_allocator]
static COUNTING_ALLOC: CountingAllocator = CountingAllocator::new();

/// Which of a session's two caches an [`crate::cache::LruCache`] is: each
/// engine cache counts its hits, misses, evictions and collisions into its
/// family's process-wide [`CacheCounters`] as they happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFamily {
    /// Full query answers.
    Answer,
    /// Bound intervals.
    Bound,
}

impl CacheFamily {
    /// Every family, in exposition order.
    pub const ALL: [CacheFamily; 2] = [CacheFamily::Answer, CacheFamily::Bound];

    /// The family's label value in the exposition.
    pub fn name(self) -> &'static str {
        match self {
            CacheFamily::Answer => "answer",
            CacheFamily::Bound => "bound",
        }
    }

    fn index(self) -> usize {
        match self {
            CacheFamily::Answer => 0,
            CacheFamily::Bound => 1,
        }
    }
}

/// Global per-family cache traffic counters.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Cache hits.
    pub hits: Counter,
    /// Misses.
    pub misses: Counter,
    /// Entries displaced at capacity.
    pub evictions: Counter,
    /// Misses that found a cached payload with their salt and fingerprint
    /// but another value (see [`crate::cache::CacheStats::collisions`]).
    pub collisions: Counter,
}

/// Labels for the request stage histograms, in [`EngineMetrics::stages`]
/// order.
const STAGE_LABELS: [&str; 3] = ["frame", "plan", "reply"];

static CONNECTION_IDS: AtomicU64 = AtomicU64::new(1);

/// Mints a process-unique connection id (also used as the trace-id origin
/// for in-process servers, so every [`crate::protocol::Server`] — TCP-backed
/// or not — gets a distinct trace namespace).
pub fn next_connection_id() -> u64 {
    CONNECTION_IDS.fetch_add(1, Ordering::Relaxed)
}

/// Route names a flight record can carry (the implication ladder, the bound
/// ladder, and the verb-level routes), indexed by the code stored in the
/// packed word; index 0 is the no-route sentinel.
const FLIGHT_ROUTES: [&str; 14] = [
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

fn route_code(route: Option<&str>) -> u64 {
    // Pointer identity first: the serving stack tags records with the same
    // `&'static str` literals the table holds, so the scan is usually a
    // fat-pointer compare per entry, not a content compare.
    route.map_or(0, |name| {
        FLIGHT_ROUTES
            .iter()
            .position(|&n| std::ptr::eq(n, name) || n == name)
            .unwrap_or(0) as u64
    })
}

fn route_of(code: u64) -> Option<&'static str> {
    FLIGHT_ROUTES
        .get(code as usize)
        .copied()
        .filter(|_| code > 0)
}

/// One finished request's full server-side story: identity (trace,
/// connection, session slot), shape (verb, route, cache outcome, bytes),
/// and per-stage cost.  Every request leaves exactly one — queries,
/// mutations, errors, silent lines, and framing refusals alike — and its
/// publication ([`crate::protocol::Server::publish`]) derives every
/// per-request series from it.
/// Packs losslessly into [`FlightWords`] for the [`FlightRecorder`] ring
/// and renders as the `key=value` line the `debug recent` verb and the
/// slow-query stderr dump emit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightRecord {
    /// Request-scoped trace id (`origin << 32 | sequence`), unique per
    /// process and consecutive per connection.
    pub trace: u64,
    /// Connection id from [`next_connection_id`].
    pub conn: u64,
    /// Session slot the request left current.
    pub slot: u64,
    /// The request's verb as an index into [`VERBS`]; `None` for a silent
    /// line, an unknown verb, and a framing refusal.
    pub verb: Option<usize>,
    /// Where an answered query was routed (one of the known route names);
    /// `None` for every request that is not an answered query.
    pub route: Option<&'static str>,
    /// Whether the answer came from a cache.
    pub cached: bool,
    /// Request bytes read (frame header or terminator included).
    pub bytes_in: u64,
    /// Reply bytes written (0 for a silent request).
    pub bytes_out: u64,
    /// Nanoseconds framing the request off the socket.
    pub frame_ns: u64,
    /// Nanoseconds answering the request: parse, decide, and format.
    pub plan_ns: u64,
    /// Nanoseconds of planner decision time inside the evaluation.
    pub decide_ns: u64,
    /// Nanoseconds writing the reply to the connection's output.
    pub reply_ns: u64,
    /// Epoch of the slot's session when the request finished (the
    /// epoch that answered a query; 0 without a session).
    pub epoch: u64,
}

impl FlightRecord {
    /// The verb's name, `?` when the record has none.
    pub(crate) fn verb_name(&self) -> &'static str {
        self.verb.map_or("?", |index| VERBS[index].name)
    }

    /// Packs the record into the fixed-width ring representation.
    pub fn encode(&self) -> FlightWords {
        let vrc = (self.verb.map_or(0, |index| index as u64 + 1) << 16)
            | (route_code(self.route) << 8)
            | u64::from(self.cached);
        [
            self.trace,
            self.conn,
            self.slot,
            vrc,
            self.bytes_in,
            self.bytes_out,
            self.frame_ns,
            self.plan_ns,
            self.decide_ns,
            self.reply_ns,
            self.epoch,
        ]
    }

    /// Unpacks a ring record.
    pub fn decode(words: &FlightWords) -> FlightRecord {
        let verb_code = ((words[3] >> 16) & 0xff) as usize;
        FlightRecord {
            trace: words[0],
            conn: words[1],
            slot: words[2],
            verb: verb_code
                .checked_sub(1)
                .filter(|&index| index < VERBS.len()),
            route: route_of((words[3] >> 8) & 0xff),
            cached: words[3] & 1 == 1,
            bytes_in: words[4],
            bytes_out: words[5],
            frame_ns: words[6],
            plan_ns: words[7],
            decide_ns: words[8],
            reply_ns: words[9],
            epoch: words[10],
        }
    }

    /// Renders the record as the `key=value` line protocol dumps use.
    /// Stage costs are in microseconds, matching the exposition's scale.
    pub fn render(&self) -> String {
        format!(
            "trace={} conn={} slot={} verb={} route={} cached={} in={} out={} \
             frame_us={} plan_us={} decide_us={} reply_us={} epoch={}",
            self.trace,
            self.conn,
            self.slot,
            self.verb_name(),
            self.route.unwrap_or("?"),
            u64::from(self.cached),
            self.bytes_in,
            self.bytes_out,
            self.frame_ns / 1_000,
            self.plan_ns / 1_000,
            self.decide_ns / 1_000,
            self.reply_ns / 1_000,
            self.epoch,
        )
    }
}

/// One session's ledger: every per-session fact, counted once.  The
/// session's planner holds it and counts route decisions, cache hits, and
/// trivial goals as they happen; the commit of an answered query's record
/// charges the query and its decision time.  `stats`, `session list`, and the
/// labeled `diffcond_session_*` series all read it.  Plain counters only,
/// so the registry keeps a closed session's series for a few hundred
/// bytes (the planner's latency histograms close with the session).
#[derive(Debug, Default)]
pub struct SessionCosts {
    /// Queries charged to the session.
    pub queries: Counter,
    /// Planner decision nanoseconds charged to the session.
    pub decide_ns: Counter,
    /// Goals answered inline as trivial.
    pub trivial: Counter,
    /// Implication queries decided per route, indexed by
    /// [`ProcedureKind::index`].
    pub routes: [Counter; ALL_PROCEDURES.len()],
    /// Answer-cache hits per route the goal was planned for, indexed like
    /// [`SessionCosts::routes`].
    pub cache_hits: [Counter; ALL_PROCEDURES.len()],
    /// Bound queries decided per bound route: `[propagation, relaxed]`.
    pub bounds: [Counter; 2],
    /// Bound queries served from the bound cache.
    pub bound_cache_hits: Counter,
}

/// One connection's cost series, rendered as `diffcond_connection_*`.
/// Its fields are private to this module: only `EngineMetrics::publish`
/// writes them.
#[derive(Debug, Default)]
pub(crate) struct ConnCosts {
    requests: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
}

/// How many records a connection stages before it publishes them: a
/// constant, so a connection's staged telemetry is a fixed few KiB
/// whatever the size of its read bursts.
pub(crate) const BATCH_RECORDS: usize = 32;

/// A connection's staged records, published together by
/// [`EngineMetrics::publish`].
#[derive(Debug)]
pub(crate) struct RecordBatch {
    records: [FlightRecord; BATCH_RECORDS],
    len: usize,
}

impl RecordBatch {
    /// An empty batch.
    pub(crate) fn new() -> RecordBatch {
        RecordBatch {
            records: [FlightRecord::default(); BATCH_RECORDS],
            len: 0,
        }
    }

    /// Stages `record`; returns whether the batch is now full.
    pub(crate) fn push(&mut self, record: &FlightRecord) -> bool {
        self.records[self.len] = *record;
        self.len += 1;
        self.len == BATCH_RECORDS
    }

    /// The staged records, oldest first, leaving the batch empty.
    pub(crate) fn take(&mut self) -> &[FlightRecord] {
        let len = std::mem::take(&mut self.len);
        &self.records[..len]
    }
}

/// How many `(connection, slot)` / connection cost series the registry
/// retains before evicting the oldest — bounds exposition size under
/// connection churn.
const COST_SERIES_CAP: usize = 256;

/// How far back the windowed stats reach: no frame older than this is
/// kept, and the newer frame is replaced once it is half this old.
const RECENT_WINDOW: Duration = Duration::from_secs(60);

/// One snapshot of the rate-bearing aggregates, the unit the windowed
/// stats difference.
#[derive(Debug)]
struct RecentFrame {
    at: Instant,
    replies: u64,
    bytes_read: u64,
    bytes_written: u64,
    frame: HistogramSnapshot,
    plan: HistogramSnapshot,
    reply: HistogramSnapshot,
}

/// The windowed-stats state: at most two frames.  `newer` is under half a
/// window old, and `older`, when present, is the frame `newer` replaced,
/// so once warm the window `recent` reports spans 30–60 s.
#[derive(Debug, Default)]
struct RecentFrames {
    older: Option<RecentFrame>,
    newer: Option<RecentFrame>,
}

impl RecentFrames {
    /// One rotation step at `now`: drops any frame older than the window,
    /// then, when there is no newer frame or it is half a window old, makes
    /// the newer frame the older and `capture()` the newer.  Returns whether
    /// a frame outlived the drop, that is whether a baseline exists.
    fn rotate(&mut self, now: Instant, capture: impl FnOnce() -> RecentFrame) -> bool {
        let age = |frame: &RecentFrame| now.saturating_duration_since(frame.at);
        self.older.take_if(|frame| age(frame) > RECENT_WINDOW);
        self.newer.take_if(|frame| age(frame) > RECENT_WINDOW);
        let warm = self.newer.is_some();
        let half_old = |frame: &RecentFrame| age(frame) >= RECENT_WINDOW / 2;
        if self.newer.as_ref().is_none_or(half_old) {
            self.older = self.newer.replace(capture());
        }
        warm
    }
}

/// Live stats over the last 30–60 s: counter deltas and stage-latency
/// distributions between the older of two rotating frames (the newer while
/// it is the only one) and now.
/// A zero [`RecentStats::window`] with [`RecentStats::baseline`] false means
/// no baseline frame exists (the first observation after startup, or one
/// after every frame aged past a minute); all deltas are zero in that case
/// and should be reported as "warming up", not as a stalled server.
#[derive(Debug)]
pub struct RecentStats {
    /// Whether a baseline frame existed: `false` only on the very first
    /// observation, whose zero deltas are an artifact of having nothing to
    /// difference against rather than a measurement.
    pub baseline: bool,
    /// Width of the observed window.
    pub window: Duration,
    /// Reply lines released over the window.
    pub replies: u64,
    /// Request bytes read over the window.
    pub bytes_read: u64,
    /// Reply bytes written over the window.
    pub bytes_written: u64,
    /// Frame-stage latency over the window.
    pub frame: HistogramSnapshot,
    /// Evaluation latency over the window; its count is the requests
    /// answered.
    pub plan: HistogramSnapshot,
    /// Reply-write latency over the window.
    pub reply: HistogramSnapshot,
}

/// The process-wide metrics registry.  All fields are lock-free; recording
/// sites access them through [`EngineMetrics::global`].  The per-request
/// series are private: a request's commit is their only writer, and
/// readers get snapshots ([`EngineMetrics::stages`],
/// [`EngineMetrics::recent`], the exposition, and the `debug` verbs' dump
/// of the flight ring).
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Nanoseconds framing a request off the socket when input was already
    /// buffered (client think-time excluded); one sample per request.
    frame_ns: Histogram,
    /// Nanoseconds answering a request: parse, decide, and format; one
    /// sample per request, so its count is the request total.
    plan_ns: Histogram,
    /// Nanoseconds framing a reply into its connection's output buffer; one
    /// sample per request (0 for a silent one).
    reply_ns: Histogram,
    /// Requests that wrote a reply (silent requests excluded).
    replies: Counter,
    /// Request bytes read (handshakes and refused lines included).
    bytes_read: Counter,
    /// Reply bytes written (handshakes included).
    bytes_written: Counter,
    /// The always-on flight recorder: one [`FlightRecord`] per request,
    /// overwrite-oldest, dumpable without stopping traffic.
    flight: FlightRecorder,
    /// Requests rejected by the protocol parser.
    pub parse_errors: Counter,
    /// Requests whose `plan` stage reached the slow-query threshold.
    pub slow_queries: Counter,
    /// Slow-query stderr lines suppressed by the log rate limiter.
    pub slow_log_dropped: Counter,
    /// Connections served (completed).
    pub connections: Counter,
    /// Framing violations (oversized lines, invalid UTF-8, corrupt binary
    /// headers).
    pub framing_errors: Counter,
    /// Reactor event-loop wakeups (one per `epoll_wait` return).
    pub reactor_wakeups: Counter,
    /// Ready events delivered per reactor wakeup (readiness-burst size: the
    /// connections one wakeup serves, the transport's batching factor).
    pub reactor_ready_batch: Histogram,
    /// Bytes written per vectored (`writev`) reply-flush syscall.
    pub reactor_writev_bytes: Histogram,
    /// Reactor event-loop threads serving (set at `serve` startup).
    pub reactor_threads: Gauge,
    /// Epoch bumps (every session write).
    pub epoch_publishes: Counter,
    /// Goals answered inline as trivial.
    pub trivial: Counter,
    /// Premise-core analyses run (the read-only `analyze` verb).
    pub analyze_runs: Counter,
    /// Redundant premises reported across all analyses.
    pub analyze_redundant: Counter,
    /// Analyses whose knowns were infeasible under the premises.
    pub analyze_infeasible: Counter,
    /// `analyze apply` core reductions executed.
    pub analyze_applies: Counter,
    /// Nanoseconds running one premise-core analysis.
    pub analyze_ns: Histogram,
    /// Per-route decision latency, indexed by [`ProcedureKind::index`];
    /// each histogram's count is the route's decided-query total.
    pub route_ns: [Histogram; ALL_PROCEDURES.len()],
    /// Bound-ladder decision latency: `[propagation, relaxed]`.
    pub bound_ns: [Histogram; 2],
    /// Per-family cache counters, indexed by [`CacheFamily::index`].
    caches: [CacheCounters; 2],
    /// Registered per-session cost series keyed `(connection, slot)`.
    /// Strong references: the series must survive session/connection
    /// teardown so a scrape after disconnect still sees the attribution.
    sessions: Mutex<Vec<(SessionKey, Arc<SessionCosts>)>>,
    /// Registered per-connection cost series keyed by connection id.
    conn_costs: Mutex<Vec<(u64, Arc<ConnCosts>)>>,
    /// Per-reactor live-connection gauges, keyed by reactor index.  Tiny and
    /// append-only: one entry per reactor thread per server start.
    reactor_connections: Mutex<Vec<(usize, Arc<Gauge>)>>,
    /// The windowed-stats frames.
    recent_frames: Mutex<RecentFrames>,
}

/// `(connection, slot)` identity a session's cost series is registered
/// under.
type SessionKey = (u64, u64);

static GLOBAL: OnceLock<EngineMetrics> = OnceLock::new();

impl EngineMetrics {
    /// The process-wide registry.
    pub fn global() -> &'static EngineMetrics {
        GLOBAL.get_or_init(EngineMetrics::default)
    }

    /// The counters of one cache family.
    pub fn cache(&self, family: CacheFamily) -> &CacheCounters {
        &self.caches[family.index()]
    }

    /// The latency histogram of one implication route.
    pub fn route_latency(&self, kind: ProcedureKind) -> &Histogram {
        &self.route_ns[kind.index()]
    }

    /// The latency histogram of one bound-ladder route.
    pub fn bound_latency(&self, route: DeriveRoute) -> &Histogram {
        match route {
            DeriveRoute::Propagation => &self.bound_ns[0],
            DeriveRoute::Relaxed => &self.bound_ns[1],
        }
    }

    /// Publishes a connection's staged records, oldest first — the only
    /// per-request telemetry write.  Every per-request series is derived
    /// from the records: each goes into the flight ring and adds one sample
    /// to each stage histogram, and the reply and byte counts, the
    /// connection's `conn` series, and the answered queries and their
    /// decision time in the ledger of the `session` that answered them are
    /// added once for the whole batch.
    pub(crate) fn publish(
        &self,
        records: &[FlightRecord],
        conn: &ConnCosts,
        session: Option<&SessionCosts>,
    ) {
        self.flight
            .record_all(records.iter().map(FlightRecord::encode));
        self.frame_ns.record_all(records.iter().map(|r| r.frame_ns));
        self.plan_ns.record_all(records.iter().map(|r| r.plan_ns));
        self.reply_ns.record_all(records.iter().map(|r| r.reply_ns));
        let (mut replies, mut read, mut written, mut queries, mut decide_ns) = (0, 0, 0, 0, 0);
        for record in records {
            replies += u64::from(record.bytes_out > 0);
            read += record.bytes_in;
            written += record.bytes_out;
            if record.route.is_some() {
                queries += 1;
                decide_ns += record.decide_ns;
            }
        }
        self.replies.add(replies);
        self.bill(conn, read, written);
        conn.requests.add(records.len() as u64);
        if let (Some(session), true) = (session, queries > 0) {
            session.queries.add(queries);
            session.decide_ns.add(decide_ns);
        }
    }

    /// Adds bytes that crossed a connection's wire to the process and the
    /// connection byte series: a record's, or a binary handshake's that no
    /// record carried.
    pub(crate) fn bill(&self, conn: &ConnCosts, read: u64, written: u64) {
        self.bytes_read.add(read);
        self.bytes_written.add(written);
        conn.bytes_read.add(read);
        conn.bytes_written.add(written);
    }

    /// Snapshots of the request stage histograms, labeled as in the
    /// `diffcond_stage_latency_us` exposition.  Every request records one
    /// sample in each, so the three counts are the request total.
    pub fn stages(&self) -> [(&'static str, HistogramSnapshot); 3] {
        let [frame, plan, reply] = STAGE_LABELS;
        [
            (frame, self.frame_ns.snapshot()),
            (plan, self.plan_ns.snapshot()),
            (reply, self.reply_ns.snapshot()),
        ]
    }

    /// Flight records written since startup (the ring retains the most
    /// recent 1024 of them).
    pub(crate) fn flight_written(&self) -> u64 {
        self.flight.written()
    }

    /// The `n` most recent flight records, newest first.
    pub(crate) fn flight_records(&self, n: usize) -> Vec<FlightRecord> {
        self.flight
            .dump(n)
            .iter()
            .map(|(_, words)| FlightRecord::decode(words))
            .collect()
    }

    /// Registers (or refreshes) the cost series of the session living in
    /// `slot` on `conn`.  Re-registering a live key replaces the series;
    /// past the capacity bound (256 keys) the oldest registration is evicted.
    pub fn register_session(&self, conn: u64, slot: u64, costs: Arc<SessionCosts>) {
        let mut table = self.sessions.lock().expect("session registry poisoned");
        if let Some(entry) = table.iter_mut().find(|(key, _)| *key == (conn, slot)) {
            entry.1 = costs;
            return;
        }
        if table.len() >= COST_SERIES_CAP {
            table.remove(0);
        }
        table.push(((conn, slot), costs));
    }

    /// Registers fresh cost series for connection `conn`, with the same
    /// replace/evict policy as [`EngineMetrics::register_session`], and
    /// returns them for the connection's server to commit against.
    pub(crate) fn register_connection(&self, conn: u64) -> Arc<ConnCosts> {
        let costs = Arc::new(ConnCosts::default());
        let mut table = self
            .conn_costs
            .lock()
            .expect("connection registry poisoned");
        if let Some(entry) = table.iter_mut().find(|(key, _)| *key == conn) {
            entry.1 = Arc::clone(&costs);
            return costs;
        }
        if table.len() >= COST_SERIES_CAP {
            table.remove(0);
        }
        table.push((conn, Arc::clone(&costs)));
        costs
    }

    /// The live-connection gauge of reactor `index`, creating it on first
    /// registration.  Reactors call this at startup and keep the `Arc`, so
    /// updating the gauge on the hot path is lock-free.
    pub fn register_reactor(&self, index: usize) -> Arc<Gauge> {
        let mut table = self
            .reactor_connections
            .lock()
            .expect("reactor registry poisoned");
        if let Some((_, gauge)) = table.iter().find(|(key, _)| *key == index) {
            return Arc::clone(gauge);
        }
        let gauge = Arc::new(Gauge::default());
        table.push((index, Arc::clone(&gauge)));
        table.sort_by_key(|(key, _)| *key);
        gauge
    }

    /// Live-connection counts per reactor, in reactor-index order.
    pub fn reactor_connection_counts(&self) -> Vec<(usize, u64)> {
        let table = self
            .reactor_connections
            .lock()
            .expect("reactor registry poisoned");
        table
            .iter()
            .map(|(index, gauge)| (*index, gauge.get()))
            .collect()
    }

    /// The registered cost series of `(conn, slot)`, if still retained.
    pub fn session_costs(&self, conn: u64, slot: u64) -> Option<Arc<SessionCosts>> {
        let table = self.sessions.lock().expect("session registry poisoned");
        table
            .iter()
            .find(|(key, _)| *key == (conn, slot))
            .map(|(_, costs)| Arc::clone(costs))
    }

    fn capture_frame(&self, at: Instant) -> RecentFrame {
        RecentFrame {
            at,
            replies: self.replies.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            frame: self.frame_ns.snapshot(),
            plan: self.plan_ns.snapshot(),
            reply: self.reply_ns.snapshot(),
        }
    }

    /// Traffic-driven tick for the windowed stats: one rotation step, a
    /// cheap no-op unless the newer frame is half a window (30 s) old.
    /// Called once per readiness burst, never per query.
    pub fn observe_recent(&self) {
        self.observe_recent_at(Instant::now());
    }

    fn observe_recent_at(&self, now: Instant) {
        let mut frames = self.recent_frames.lock().expect("recent frames poisoned");
        frames.rotate(now, || self.capture_frame(now));
    }

    /// Live stats over the last 30–60 s: after one rotation step, deltas
    /// between the older frame (the newer while it is the only one) and
    /// now, via [`HistogramSnapshot::minus`].  The first call after startup,
    /// or after every frame aged past a minute, has no baseline: it reports
    /// a zero-width window with zero deltas and seeds the frames, so rates
    /// become meaningful from the next call on.
    pub fn recent(&self) -> RecentStats {
        self.recent_at(Instant::now())
    }

    fn recent_at(&self, now: Instant) -> RecentStats {
        let mut frames = self.recent_frames.lock().expect("recent frames poisoned");
        let baseline = frames.rotate(now, || self.capture_frame(now));
        let current = self.capture_frame(now);
        let stored = frames.older.as_ref().or(frames.newer.as_ref());
        let base = stored.filter(|_| baseline).unwrap_or(&current);
        RecentStats {
            baseline,
            window: now.saturating_duration_since(base.at),
            replies: current.replies.saturating_sub(base.replies),
            bytes_read: current.bytes_read.saturating_sub(base.bytes_read),
            bytes_written: current.bytes_written.saturating_sub(base.bytes_written),
            frame: current.frame.minus(&base.frame),
            plan: current.plan.minus(&base.plan),
            reply: current.reply.minus(&base.reply),
        }
    }

    /// Renders the registry as a Prometheus-text (0.0.4) exposition.
    /// Latency summaries are in microseconds.
    pub fn exposition(&self) -> String {
        let mut exp = Exposition::new();
        let stages = self.stages();
        exp.counter("diffcond_requests_total", &[], stages[1].1.count());
        exp.counter("diffcond_parse_errors_total", &[], self.parse_errors.get());
        exp.counter("diffcond_replies_total", &[], self.replies.get());
        exp.counter("diffcond_slow_queries_total", &[], self.slow_queries.get());
        for (label, snapshot) in &stages {
            exp.summary(
                "diffcond_stage_latency_us",
                &[("stage", label)],
                snapshot,
                1e3,
            );
        }
        exp.counter("diffcond_connections_total", &[], self.connections.get());
        exp.counter(
            "diffcond_bytes_total",
            &[("direction", "read")],
            self.bytes_read.get(),
        );
        exp.counter(
            "diffcond_bytes_total",
            &[("direction", "written")],
            self.bytes_written.get(),
        );
        exp.counter(
            "diffcond_framing_errors_total",
            &[],
            self.framing_errors.get(),
        );
        exp.counter(
            "diffcond_reactor_wakeups_total",
            &[],
            self.reactor_wakeups.get(),
        );
        exp.summary(
            "diffcond_reactor_ready_batch",
            &[],
            &self.reactor_ready_batch.snapshot(),
            1.0,
        );
        exp.summary(
            "diffcond_reactor_writev_bytes",
            &[],
            &self.reactor_writev_bytes.snapshot(),
            1.0,
        );
        exp.gauge("diffcond_reactor_threads", &[], self.reactor_threads.get());
        for (index, live) in self.reactor_connection_counts() {
            exp.gauge(
                "diffcond_reactor_connections",
                &[("reactor", &index.to_string())],
                live,
            );
        }
        exp.counter(
            "diffcond_epoch_publishes_total",
            &[],
            self.epoch_publishes.get(),
        );
        exp.counter("diffcond_trivial_queries_total", &[], self.trivial.get());
        exp.counter("diffcond_analyze_runs_total", &[], self.analyze_runs.get());
        exp.counter(
            "diffcond_analyze_redundant_total",
            &[],
            self.analyze_redundant.get(),
        );
        exp.counter(
            "diffcond_analyze_infeasible_total",
            &[],
            self.analyze_infeasible.get(),
        );
        exp.counter(
            "diffcond_analyze_applies_total",
            &[],
            self.analyze_applies.get(),
        );
        exp.summary(
            "diffcond_analyze_latency_us",
            &[],
            &self.analyze_ns.snapshot(),
            1e3,
        );
        for kind in ALL_PROCEDURES {
            exp.summary(
                "diffcond_route_latency_us",
                &[("route", kind.name())],
                &self.route_latency(kind).snapshot(),
                1e3,
            );
        }
        for (label, histogram) in ["propagation", "relaxed"].iter().zip(self.bound_ns.iter()) {
            exp.summary(
                "diffcond_bound_latency_us",
                &[("route", label)],
                &histogram.snapshot(),
                1e3,
            );
        }
        for family in CacheFamily::ALL {
            let counters = self.cache(family);
            for (outcome, value) in [
                ("hit", counters.hits.get()),
                ("miss", counters.misses.get()),
                ("eviction", counters.evictions.get()),
                ("collision", counters.collisions.get()),
            ] {
                exp.counter(
                    "diffcond_cache_ops_total",
                    &[("cache", family.name()), ("outcome", outcome)],
                    value,
                );
            }
        }
        exp.counter("diffcond_flight_records_total", &[], self.flight.written());
        exp.counter(
            "diffcond_slow_log_dropped_total",
            &[],
            self.slow_log_dropped.get(),
        );
        // Allocation accounting (live whenever the counting allocator is
        // installed — always, for this crate and its dependents).
        let alloc = profile::alloc_counts();
        exp.counter("diffcond_alloc_ops_total", &[("op", "alloc")], alloc.allocs);
        exp.counter("diffcond_alloc_ops_total", &[("op", "free")], alloc.frees);
        exp.counter(
            "diffcond_alloc_bytes_total",
            &[("op", "alloc")],
            alloc.alloc_bytes,
        );
        exp.counter(
            "diffcond_alloc_bytes_total",
            &[("op", "free")],
            alloc.free_bytes,
        );
        // Per-stage allocation attribution: counted only while profiling is
        // enabled (tags are published by the beacon guards).  Tag counters
        // are monotone and a tag once seen never vanishes, so scrape-over-
        // scrape series sets only grow.
        for (stage, allocs, bytes) in profile::tag_alloc_counts() {
            exp.counter("diffcond_stage_allocs_total", &[("stage", stage)], allocs);
            exp.counter(
                "diffcond_stage_alloc_bytes_total",
                &[("stage", stage)],
                bytes,
            );
        }
        // Continuous-profiler state: total samples, whether it is running,
        // and every accumulated collapsed stack as a labeled series (all of
        // them — truncating to a top-N would make series vanish between
        // scrapes).
        exp.gauge(
            "diffcond_profile_running",
            &[],
            u64::from(profile::sampler_hz().is_some()),
        );
        exp.counter(
            "diffcond_profile_samples_total",
            &[],
            profile::samples_total(),
        );
        for (stack, count) in profile::top_stacks(usize::MAX) {
            exp.counter(
                "diffcond_profile_stack_samples_total",
                &[("stack", &stack)],
                count,
            );
        }
        // Per-session and per-connection attribution.  Families are grouped
        // (all sessions under one family before the next) so each family's
        // TYPE header precedes every sample of that family.
        let sessions: Vec<(SessionKey, Arc<SessionCosts>)> = self
            .sessions
            .lock()
            .expect("session registry poisoned")
            .iter()
            .map(|(key, costs)| (*key, Arc::clone(costs)))
            .collect();
        let session_labels: Vec<(String, String)> = sessions
            .iter()
            .map(|((conn, slot), _)| (conn.to_string(), slot.to_string()))
            .collect();
        let session_counter =
            |exp: &mut Exposition, name: &str, value: fn(&SessionCosts) -> u64| {
                for ((_, costs), (conn, slot)) in sessions.iter().zip(&session_labels) {
                    exp.counter(name, &[("conn", conn), ("slot", slot)], value(costs));
                }
            };
        session_counter(&mut exp, "diffcond_session_queries_total", |c| {
            c.queries.get()
        });
        session_counter(&mut exp, "diffcond_session_decide_us_total", |c| {
            c.decide_ns.get() / 1_000
        });
        session_counter(&mut exp, "diffcond_session_cache_hits_total", |c| {
            c.cache_hits.iter().map(Counter::get).sum()
        });
        for ((_, costs), (conn, slot)) in sessions.iter().zip(&session_labels) {
            for kind in ALL_PROCEDURES {
                exp.counter(
                    "diffcond_session_route_total",
                    &[("conn", conn), ("slot", slot), ("route", kind.name())],
                    costs.routes[kind.index()].get(),
                );
            }
        }
        let conns: Vec<(u64, Arc<ConnCosts>)> = self
            .conn_costs
            .lock()
            .expect("connection registry poisoned")
            .iter()
            .map(|(key, costs)| (*key, Arc::clone(costs)))
            .collect();
        let conn_labels: Vec<String> = conns.iter().map(|(c, _)| c.to_string()).collect();
        for ((_, costs), conn) in conns.iter().zip(&conn_labels) {
            exp.counter(
                "diffcond_connection_requests_total",
                &[("conn", conn)],
                costs.requests.get(),
            );
        }
        for ((_, costs), conn) in conns.iter().zip(&conn_labels) {
            for (direction, value) in [
                ("read", costs.bytes_read.get()),
                ("written", costs.bytes_written.get()),
            ] {
                exp.counter(
                    "diffcond_connection_bytes_total",
                    &[("conn", conn), ("direction", direction)],
                    value,
                );
            }
        }
        exp.finish()
    }
}

/// Longest `/profile?seconds=S` window the endpoint will block for.
const PROFILE_MAX_SECONDS: u64 = 30;

/// The metrics HTTP server's route table, shared by `diffcond serve` and
/// the tests (the server itself stays in `diffcon_obs`; this is only the
/// dispatch):
///
/// * `/metrics` (and `/`) — the Prometheus exposition.
/// * `/healthz` — readiness: answers `200 ok` once the process is serving
///   (the listener is up by construction when this handler runs), so
///   orchestration and CI can gate on it instead of sleeping.
/// * `/buildinfo` — name, version, and debug/release flavor.
/// * `/profile?seconds=S[&hz=H]` — one-shot profile: samples every serving
///   thread for `S` seconds (default 2, capped at 30) at `H` Hz (default
///   97) and answers flamegraph-collapsed stacks.
pub fn http_routes(path: &str) -> HttpResponse {
    let (route, query) = match path.split_once('?') {
        Some((route, query)) => (route, query),
        None => (path, ""),
    };
    match route {
        "/" | "/metrics" => HttpResponse::ok(EngineMetrics::global().exposition()),
        "/healthz" => HttpResponse::ok("ok\n".to_string()),
        "/buildinfo" => HttpResponse::ok(format!(
            "name=diffcond version={} flavor={}\n",
            env!("CARGO_PKG_VERSION"),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )),
        "/profile" => {
            let mut seconds = 2u64;
            let mut hz = 0u32; // 0 = the profiler's default rate
            for pair in query.split('&').filter(|p| !p.is_empty()) {
                let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
                let parsed: Result<u64, _> = value.parse();
                match (key, parsed) {
                    ("seconds", Ok(s)) => seconds = s,
                    ("hz", Ok(h)) => hz = h.min(1_000) as u32,
                    _ => {
                        return HttpResponse::bad_request(format!(
                            "unrecognized profile parameter: {pair}\n"
                        ))
                    }
                }
            }
            let window = Duration::from_secs(seconds.clamp(1, PROFILE_MAX_SECONDS));
            HttpResponse::ok(profile::profile_for(window, hz))
        }
        _ => HttpResponse::not_found(route),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffcon_obs::{parse_exposition, Series};

    /// An answered `implies` query's record.
    const SAMPLE: FlightRecord = FlightRecord {
        trace: (7 << 32) | 3,
        conn: 7,
        slot: 2,
        verb: Some(4),
        route: Some("lattice"),
        cached: true,
        bytes_in: 19,
        bytes_out: 40,
        frame_ns: 1_500,
        plan_ns: 30_000,
        decide_ns: 28_000,
        reply_ns: 2_000,
        epoch: 5,
    };

    /// A record that took `plan_ns` to answer and wrote `bytes_out` reply
    /// bytes; `route` marks an answered query.
    fn record(plan_ns: u64, bytes_out: u64, route: Option<&'static str>) -> FlightRecord {
        FlightRecord {
            plan_ns,
            bytes_out,
            route,
            ..SAMPLE
        }
    }

    #[test]
    fn exposition_parses_and_has_unique_series() {
        let metrics = EngineMetrics::default();
        let conn = ConnCosts::default();
        for _ in 0..3 {
            metrics.publish(&[record(1_000, 30, Some("fd"))], &conn, None);
        }
        let answer = metrics.cache(CacheFamily::Answer);
        answer.hits.add(2);
        answer.misses.inc();
        answer.collisions.inc();
        metrics.route_latency(ProcedureKind::Lattice).record(25_000);
        metrics
            .bound_latency(DeriveRoute::Propagation)
            .record(40_000);
        let text = metrics.exposition();
        let series = parse_exposition(&text).expect("exposition must parse");
        let mut keys: Vec<String> = series.iter().map(Series::key).collect();
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), total, "duplicate series in exposition");
        let requests = series
            .iter()
            .find(|s| s.name == "diffcond_requests_total")
            .unwrap();
        assert_eq!(requests.value, 3.0);
        let collision = series
            .iter()
            .find(|s| {
                s.name == "diffcond_cache_ops_total"
                    && s.labels.contains(&("outcome".into(), "collision".into()))
                    && s.labels.contains(&("cache".into(), "answer".into()))
            })
            .unwrap();
        assert_eq!(collision.value, 1.0);
        let lattice_count = series
            .iter()
            .find(|s| {
                s.name == "diffcond_route_latency_us_count"
                    && s.labels.contains(&("route".into(), "lattice".into()))
            })
            .unwrap();
        assert_eq!(lattice_count.value, 1.0);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = EngineMetrics::global() as *const EngineMetrics;
        let b = EngineMetrics::global() as *const EngineMetrics;
        assert_eq!(a, b);
    }

    #[test]
    fn flight_record_round_trips_and_renders() {
        let record = SAMPLE;
        assert_eq!(VERBS[4].name, "implies");
        assert_eq!(FlightRecord::decode(&record.encode()), record);
        let line = record.render();
        for field in [
            "trace=30064771075",
            "conn=7",
            "slot=2",
            "verb=implies",
            "route=lattice",
            "cached=1",
            "in=19",
            "out=40",
            "frame_us=1",
            "plan_us=30",
            "decide_us=28",
            "reply_us=2",
            "epoch=5",
        ] {
            assert!(line.contains(field), "missing `{field}` in `{line}`");
        }
        // A request without a verb or a route round-trips too.
        let bare = FlightRecord {
            verb: None,
            route: None,
            ..record
        };
        assert_eq!(FlightRecord::decode(&bare.encode()), bare);
        assert!(bare.render().contains(" verb=? route=? "));
    }

    #[test]
    fn unknown_flight_codes_decode_to_the_sentinel() {
        let mut words = [0u64; diffcon_obs::FLIGHT_WORDS];
        words[3] = (0xff << 16) | (0xff << 8);
        let record = FlightRecord::decode(&words);
        assert_eq!(record.verb, None);
        assert_eq!(record.route, None);
        assert_eq!(record.verb_name(), "?");
    }

    /// Publishing is the one per-request write: every stage histogram gets
    /// one sample per record, replies count only records that wrote bytes,
    /// and only answered queries charge the session.
    #[test]
    fn commit_derives_every_series_from_the_record() {
        let metrics = EngineMetrics::default();
        let conn = ConnCosts::default();
        let session = SessionCosts::default();
        metrics.publish(&[record(1_000, 30, Some("fd"))], &conn, Some(&session));
        metrics.publish(&[record(2_000, 0, None)], &conn, Some(&session));
        metrics.publish(&[record(3_000, 12, None)], &conn, None);
        for (stage, snapshot) in metrics.stages() {
            assert_eq!(snapshot.count(), 3, "stage {stage}");
        }
        assert_eq!(metrics.stages()[1].1.sum(), 6_000);
        assert_eq!(metrics.replies.get(), 2);
        let bytes = (metrics.bytes_read.get(), metrics.bytes_written.get());
        assert_eq!(bytes, (57, 42));
        let conn_bytes = (conn.bytes_read.get(), conn.bytes_written.get());
        assert_eq!((conn.requests.get(), conn_bytes), (3, bytes));
        assert_eq!(
            (session.queries.get(), session.decide_ns.get()),
            (1, 28_000)
        );
        assert_eq!(metrics.flight_written(), 3);
        let newest = metrics.flight_records(1);
        assert_eq!(newest.len(), 1);
        assert_eq!(newest[0].plan_ns, 3_000);
    }

    /// A batch publishes exactly what its records published one at a time.
    #[test]
    fn a_batch_publishes_what_its_records_do_one_at_a_time() {
        let records: Vec<FlightRecord> = (0..BATCH_RECORDS as u64 + 5)
            .map(|i| {
                let route = (i % 3 == 0).then_some("fd");
                FlightRecord {
                    trace: i,
                    ..record(1_000 * i, i % 4 * 10, route)
                }
            })
            .collect();
        let one = (EngineMetrics::default(), ConnCosts::default());
        let session_one = SessionCosts::default();
        for record in &records {
            one.0
                .publish(std::slice::from_ref(record), &one.1, Some(&session_one));
        }
        let all = (EngineMetrics::default(), ConnCosts::default());
        let session_all = SessionCosts::default();
        let mut batch = RecordBatch::new();
        for record in &records {
            if batch.push(record) {
                all.0.publish(batch.take(), &all.1, Some(&session_all));
            }
        }
        all.0.publish(batch.take(), &all.1, Some(&session_all));
        assert!(batch.take().is_empty());
        for ((_, a), (_, b)) in one.0.stages().iter().zip(all.0.stages().iter()) {
            assert_eq!((a.count(), a.sum(), a.max()), (b.count(), b.sum(), b.max()));
        }
        let counts = |(m, c): &(EngineMetrics, ConnCosts), s: &SessionCosts| {
            [
                m.replies.get(),
                m.bytes_read.get(),
                m.bytes_written.get(),
                c.requests.get(),
                c.bytes_read.get(),
                c.bytes_written.get(),
                s.queries.get(),
                s.decide_ns.get(),
                m.flight_written(),
            ]
        };
        assert_eq!(counts(&one, &session_one), counts(&all, &session_all));
        assert_eq!(one.0.flight_records(64), all.0.flight_records(64));
    }

    #[test]
    fn session_registry_replaces_then_evicts_at_capacity() {
        let metrics = EngineMetrics::default();
        let first = Arc::new(SessionCosts::default());
        first.queries.add(1);
        metrics.register_session(1, 0, Arc::clone(&first));
        let replacement = Arc::new(SessionCosts::default());
        replacement.queries.add(2);
        metrics.register_session(1, 0, replacement);
        assert_eq!(metrics.session_costs(1, 0).unwrap().queries.get(), 2);
        for slot in 0..COST_SERIES_CAP as u64 {
            metrics.register_session(2, slot, Arc::new(SessionCosts::default()));
        }
        assert!(
            metrics.session_costs(1, 0).is_none(),
            "oldest series evicted once the registry reaches capacity"
        );
    }

    #[test]
    fn exposition_carries_labeled_attribution_series() {
        let metrics = EngineMetrics::default();
        let costs = Arc::new(SessionCosts::default());
        costs.queries.add(11);
        costs.decide_ns.add(4_000);
        costs.routes[1].add(7);
        costs.cache_hits[0].add(2);
        costs.cache_hits[1].add(3);
        metrics.register_session(3, 0, costs);
        let conn = metrics.register_connection(3);
        conn.requests.add(13);
        conn.bytes_written.add(99);
        let series = parse_exposition(&metrics.exposition()).expect("exposition must parse");
        let mut keys: Vec<String> = series.iter().map(Series::key).collect();
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), total, "duplicate series in exposition");
        let find = |name: &str, label: (&str, &str)| {
            series
                .iter()
                .find(|s| s.name == name && s.labels.contains(&(label.0.into(), label.1.into())))
                .unwrap_or_else(|| panic!("missing series {name}"))
        };
        assert_eq!(
            find("diffcond_session_queries_total", ("conn", "3")).value,
            11.0
        );
        assert_eq!(
            find("diffcond_session_decide_us_total", ("slot", "0")).value,
            4.0
        );
        assert_eq!(
            find("diffcond_session_route_total", ("route", "lattice")).value,
            7.0
        );
        assert_eq!(
            find("diffcond_session_cache_hits_total", ("conn", "3")).value,
            5.0
        );
        assert_eq!(
            find("diffcond_connection_requests_total", ("conn", "3")).value,
            13.0
        );
        assert_eq!(
            find("diffcond_connection_bytes_total", ("direction", "written")).value,
            99.0
        );
    }

    #[test]
    fn recent_window_reports_deltas_after_a_baseline() {
        let metrics = EngineMetrics::default();
        let conn = ConnCosts::default();
        let first = metrics.recent();
        assert_eq!(first.window, Duration::ZERO);
        assert_eq!(first.plan.count(), 0);
        for i in 0..10 {
            let bytes_out = if i == 0 { 0 } else { 30 };
            metrics.publish(&[record(1_000_000, bytes_out, None)], &conn, None);
        }
        std::thread::sleep(Duration::from_millis(5));
        let second = metrics.recent();
        assert!(second.window > Duration::ZERO);
        assert_eq!(second.replies, 9);
        assert_eq!(second.plan.count(), 10);
        assert!(second.plan.p50() >= 500_000);
    }

    /// The rotation against a given clock: ten minutes of 250 ms ticks, one
    /// request each, hold at most two frames, and once warm `recent` reads
    /// a 30–60 s window holding exactly the requests inside it.
    #[test]
    fn recent_rotates_two_frames_over_a_half_to_whole_window() {
        let metrics = EngineMetrics::default();
        let conn = ConnCosts::default();
        let held = |metrics: &EngineMetrics| {
            let frames = metrics.recent_frames.lock().unwrap();
            usize::from(frames.older.is_some()) + usize::from(frames.newer.is_some())
        };
        let tick = Duration::from_millis(250);
        let t0 = Instant::now();
        let cold = metrics.recent_at(t0);
        assert!(!cold.baseline, "the first `recent` answers warming");
        assert_eq!((cold.window, cold.plan.count()), (Duration::ZERO, 0));
        assert_eq!(held(&metrics), 1, "the first `recent` seeds the frames");
        metrics.publish(&[record(1_000, 30, None)], &conn, None);
        let next = metrics.recent_at(t0 + tick);
        assert!(next.baseline, "the second `recent` has a baseline");
        assert_eq!((next.window, next.plan.count()), (tick, 1));
        let ticks = 4 * 600;
        for i in 2..=ticks {
            let now = t0 + tick * i;
            metrics.publish(&[record(1_000, 30, None)], &conn, None);
            metrics.observe_recent_at(now);
            assert!(held(&metrics) <= 2, "tick {i} holds {}", held(&metrics));
            if now - t0 < RECENT_WINDOW / 2 {
                continue;
            }
            let recent = metrics.recent_at(now);
            assert!(
                (RECENT_WINDOW / 2..=RECENT_WINDOW).contains(&recent.window),
                "tick {i}: window {:?}",
                recent.window
            );
            let requests = (recent.window.as_millis() / tick.as_millis()) as u64;
            assert_eq!((recent.plan.count(), recent.replies), (requests, requests));
        }
        let idle = t0 + tick * ticks + RECENT_WINDOW + tick;
        let cooled = metrics.recent_at(idle);
        assert!(!cooled.baseline, "a minute without a tick answers warming");
        assert_eq!(cooled.window, Duration::ZERO);
        assert!(metrics.recent_at(idle + tick).baseline);
    }
}
