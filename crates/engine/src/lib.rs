//! # diffcon-engine — a cached implication-serving engine
//!
//! The `diffcon` crate answers one implication query at a time, from scratch,
//! through one decider per procedure (`diffcon::procedure::decide`).  This
//! crate is the serving layer around those deciders: it routes each query
//! to one of them and amortizes repeated traffic through cached answers:
//!
//! * **Sessions** ([`session::Session`]) hold a universe and a premise set
//!   with incremental assert/retract.  Each write maintains whether every
//!   premise lies in the single-member fragment and an order-independent
//!   64-bit digest that versions cached answers — so retracting a premise
//!   invalidates stale answers instantly and re-asserting it revalidates
//!   them.
//! * **One struct of session state** ([`session::Session`]) — the premises,
//!   fragment flag, knowns, dataset, digests, caches, planner accounting
//!   and interner are the session's own fields; every write edits them in
//!   place, copying nothing it does not change, and bumps the epoch.  All
//!   query methods ([`snapshot`]) — `implies`, `implies_batch`, `bound`,
//!   `witness`, `derive` — read the session through `&self`, on the one
//!   thread that answers its requests in order, so nothing is locked.
//! * **Memoization** ([`cache::LruCache`]) — two LRU caches per session:
//!   full query answers and bound intervals.  Both are keyed on their
//!   payload, the goal or the set, versioned by one salt
//!   ([`cache::version_salt`] / [`cache::VersionedKey`]), so a write
//!   invalidates instantly and state restoration revalidates instantly.  A
//!   miss is decided afresh; nothing derived from a goal is kept but its
//!   answer.
//! * **Batch evaluation** ([`session::Session::implies_batch`]) — many
//!   goals against the session's state, decided in order on the calling thread,
//!   each exactly as `implies` would decide it: a repeated goal is an
//!   answer-cache hit.
//! * **Multi-session serving** ([`server_state::SessionRegistry`],
//!   [`protocol::Server::respond`]) — the `diffcond` server manages
//!   numbered session slots (`session new/use/close/list` verbs) and
//!   answers every request in order on the thread that parsed it, writing
//!   the reply into a reused per-connection buffer: a warm query allocates
//!   nothing, and the reply stream is the serial one by construction.  One
//!   dispatch answers every request: a text line and a mask frame reach the
//!   same arm of one match over the verbs, which fills in the request's
//!   record where it produces the answer, and the read verbs share one
//!   helper for the no-session reply, argument resolution, and the traced
//!   `epoch=` suffix.
//! * **One connection driver** ([`connection::Connection`]) — everything
//!   between a transport's bytes and [`protocol::Server::respond`], with no
//!   IO of its own: binary negotiation, newline and binary framing under an
//!   admission cap, `quit`, reply framing, and each request's record.  The
//!   TCP reactor and the stdin loop both drive it, and the client splits
//!   its text replies with its line splitter.
//! * **Network serving** ([`net::NetServer`], [`client::Client`]) —
//!   `diffcond serve --addr HOST:PORT` exposes the same protocol over TCP
//!   through a readiness-driven reactor core: `--reactors N` event loops
//!   each accept, admit and own their nonblocking connections through a
//!   vendored epoll shim, hand each readiness burst's bytes to the
//!   connections' drivers, and flush replies through coalescing vectored
//!   writes with write-readiness backpressure.  Framing is negotiated per connection: newline text, or
//!   (`--binary`) the length-prefixed binary frames of [`protocol::binary`]
//!   with fixed-width mask encodings for the hot verbs.  Per-connection
//!   session namespaces, per-request admission limits, error replies (never
//!   panics or dropped loops) for malformed frames, a connection cap, and a
//!   blocking typed client (text or binary) for programs, tests, and load
//!   generators.
//! * **Observability** ([`metrics::EngineMetrics`]) — a process-wide
//!   lock-free registry of counters and stage-latency histograms with a
//!   Prometheus text exposition, built on one record per request
//!   ([`metrics::FlightRecord`]): every request — any verb, an error, a
//!   silent line, a framing refusal — leaves its trace id, connection/slot,
//!   verb, route, cache outcome, byte counts, and `frame`/`plan`/`reply`
//!   latency; its connection stages it ([`protocol::Server::stage`]) and
//!   publishes its records once per read burst into a fixed-capacity
//!   overwrite-oldest ring (dumped live by the `debug recent` / `debug
//!   trace` verbs), deriving the stage histograms, the request, reply, and
//!   byte counts, and the per-connection series from them.  Each session keeps one ledger ([`metrics::SessionCosts`]) that
//!   its planner, `stats`, `session list`, and the labeled session series
//!   all read; `stats recent` reports windowed live rates.
//! * **An adaptive planner** ([`planner::Planner`]) that routes each query
//!   to the cheapest sound procedure — trivial goals inline, the polynomial
//!   FD fast path when the instance lies in the single-member fragment, the
//!   Theorem 3.5 lattice check while its `2^{|S|−|X|}` enumeration bound
//!   fits a budget, and past it the `sat` route, Proposition 5.4's
//!   satisfiability search for a refutation set
//!   (`diffcon::implication::refutation_search`) — recording per-procedure
//!   query counts, cache hits, and latency.  The planner picks the route;
//!   the route's one decider in `diffcon::procedure` decides.
//! * **Bound queries** ([`session::Session::bound`]) — a second query class
//!   served by the `diffcon-bounds` interval engine: sessions hold a sparse
//!   map of known point values `f(X) = v`
//!   ([`session::Session::set_known`] /
//!   [`session::Session::forget_known`], versioned by a
//!   knowns digest exactly like the premise digest versions implication
//!   answers), and `bound` derives the tightest provable interval for
//!   `f(Y)` under the asserted constraints, routed cached-exact →
//!   propagation → budget-relaxed.
//! * **Constraint discovery** ([`session::Session::load_records`] /
//!   [`session::Session::mine_dataset`] /
//!   [`session::Session::adopt_discovered`]) — the `diffcon-discover` data
//!   plane wired into sessions: ingest basket records into a vertically
//!   indexed dataset, mine the minimal disjunctive constraints the data
//!   satisfies (Proposition 6.3 identifies them with differential
//!   constraints), and adopt the non-redundant cover as premises so `bound`
//!   and `implies` immediately reason from what holds in the data.
//!
//! The [`protocol`] module defines the line-oriented request/response
//! protocol (grammar in its module docs) served by the `diffcond` binary:
//!
//! ```text
//! $ printf 'universe 4\nassert A -> {B}\nassert B -> {C}\nimplies A -> {C}\n' | diffcond
//! ok universe n=4 attrs=A,B,C,D
//! ok assert id=0 added=1 premises=1
//! ok assert id=1 added=1 premises=2
//! yes route=fd cached=0 us=…
//! ```
//!
//! [`script::check`], behind `diffcond check`, runs a script through one
//! in-process [`protocol::Server`] and reports each `err` reply at its line
//! and column.
//!
//! ## Library quick start
//!
//! ```
//! use diffcon_engine::session::Session;
//! use diffcon::DiffConstraint;
//! use setlat::Universe;
//!
//! let u = Universe::of_size(4);
//! let mut session = Session::new(u.clone());
//! session.assert_constraint(&DiffConstraint::parse("A -> {B}", &u).unwrap());
//! session.assert_constraint(&DiffConstraint::parse("B -> {C}", &u).unwrap());
//!
//! let goal = DiffConstraint::parse("A -> {C}", &u).unwrap();
//! assert!(session.implies(&goal).implied);      // decided (FD fast path)
//! assert!(session.implies(&goal).cached);       // served from the answer cache
//!
//! let goals: Vec<DiffConstraint> = ["A -> {C}", "C -> {A}", "AB -> {B}"]
//!     .iter()
//!     .map(|t| DiffConstraint::parse(t, &u).unwrap())
//!     .collect();
//! let answers: Vec<bool> = session.implies_batch(&goals).iter().map(|o| o.implied).collect();
//! assert_eq!(answers, vec![true, false, true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod connection;
pub mod intern;
pub mod metrics;
pub mod net;
pub mod planner;
pub mod protocol;
mod reactor;
pub mod script;
pub mod server_state;
pub mod session;
pub mod snapshot;

pub use cache::{version_salt, CacheStats, LruCache, Probe, VersionedKey};
pub use client::{Client, ClientError};
pub use intern::{ConstraintId, ConstraintInterner};
pub use metrics::{
    http_routes, next_connection_id, CacheFamily, EngineMetrics, FlightRecord, RecentStats,
    SessionCosts,
};
pub use net::{NetConfig, NetServer, ShutdownHandle};
pub use planner::{BoundStats, Planner, PlannerStats};
pub use protocol::{Answer, Reply, Request, Server};
pub use server_state::SessionRegistry;
pub use session::CoreApplied;
pub use session::{AdoptOutcome, BoundOutcome, QueryOutcome, Session, SessionConfig, SessionStats};
pub use snapshot::{AnalyzeOutcome, ExplainOutcome};
