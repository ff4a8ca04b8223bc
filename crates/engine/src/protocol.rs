//! The `diffcond` line protocol: one request per line in, one machine-readable
//! response line out.
//!
//! # Request grammar
//!
//! ```text
//! request    ::= "universe" (NUMBER | NAME+)     start a session in the
//!              |                                 current slot (resets state)
//!              | "session" "new"                 open a fresh session slot
//!              |                                 and switch to it
//!              | "session" "use" NUMBER          switch to a slot by id
//!              | "session" "close" [NUMBER]      close a slot (default: the
//!              |                                 current one)
//!              | "session" "list"                list the session slots
//!              | "assert" constraint             add a premise
//!              | "retract" constraint            remove a premise
//!              | "implies" constraint            decide C ⊨ goal
//!              | "batch" constraint (";" constraint)*
//!              |                                 decide many goals in order
//!              | "witness" constraint            refutation witness, if any
//!              | "derive" constraint             Figure 1 proof, if implied
//!              | "explain" constraint            decide C ⊨ goal and report
//!              |                                 the route, session epoch,
//!              |                                 and per-stage latency
//!              | "analyze" ["apply"]             premise-core static
//!              |                                 analysis: redundant
//!              |                                 premises with implying
//!              |                                 witnesses, an infeasible
//!              |                                 minimal conflicting known
//!              |                                 set, and dead density
//!              |                                 variables ("apply"
//!              |                                 retracts the redundant
//!              |                                 premises, answer-
//!              |                                 preservingly)
//!              | "trace" ("on" | "off")           toggle reply tracing: query
//!              |                                 replies gain an `epoch=`
//!              |                                 field naming the state
//!              |                                 that answered
//!              | "known" SET ["="] VALUE         record f(SET) = VALUE
//!              | "forget" SET                    drop a recorded value
//!              | "bound" SET                     derive [lo, hi] for f(SET)
//!              | "load" SET (";" SET)*           append baskets to the dataset
//!              | "mine" [NUMBER NUMBER]          discover the minimal satisfied
//!              |                                 constraints of the dataset
//!              |                                 (budgets: max |X|, max |𝒴|)
//!              | "adopt" [NUMBER NUMBER]         mine, then assert the cover
//!              | "dataset"                       dataset statistics
//!              | "premises"                      list the premise set
//!              | "knowns"                        list the recorded values
//!              | "stats"                         engine statistics
//!              | "stats" "recent"                windowed live statistics
//!              |                                 (rates and stage latency
//!              |                                 over the last 30–60 s)
//!              | "debug" "recent" [NUMBER]       dump the most recent flight
//!              |                                 records (default 10)
//!              | "debug" "trace" NUMBER          dump one flight record by
//!              |                                 its trace id
//!              | "debug" "profile" ACTION        continuous profiler:
//!              |                                 "start" | "stop" | "dump"
//!              | "reset"                         drop premises, knowns, caches,
//!              |                                 and the dataset
//!              | "help"                          this summary
//!              | "quit"                          end the session
//! constraint ::= the diffcon textual syntax, e.g. "A -> {B, CD}"
//! SET        ::= attribute names, e.g. "AB" ("{}" or "∅" for the empty set)
//! VALUE      ::= a finite decimal number
//! ```
//!
//! Blank lines and lines starting with `#` are ignored (empty response).
//!
//! # Network framing
//!
//! Over a byte transport (the `diffcond serve` TCP front-end in
//! [`crate::net`], and stdin) the same grammar is framed as
//! newline-delimited lines, by the one connection driver in
//! [`crate::connection`]:
//!
//! ```text
//! frame   ::= request "\n"                      one request per line; an
//!                                               optional trailing "\r" is
//!                                               stripped (telnet/Windows
//!                                               clients), and a final
//!                                               unterminated line at EOF is
//!                                               still served
//! reply   ::= response "\n"                     exactly one reply line per
//!                                               non-silent request, in
//!                                               request order (blank and
//!                                               `#` comment lines are
//!                                               silent: no reply at all)
//! ```
//!
//! Framing violations answer `err` without closing the connection:
//!
//! * a request line longer than [`MAX_REQUEST_BYTES`] bytes (the
//!   per-request admission limit of a TCP connection; stdin has none) is
//!   discarded up to its newline and answered
//!   `err request line exceeds … bytes (got …)` — see
//!   [`oversized_request`];
//! * bytes that are not valid UTF-8 are answered
//!   `err request is not valid UTF-8 (byte 0x… at position …)` with the
//!   1-based position of the first offending byte — see
//!   [`decode_request`].
//!
//! Parse-level failures (unknown verbs, malformed arguments, trailing
//! garbage after a complete verb) likewise answer `err` with the offending
//! token and its 1-based column, mirroring
//! [`fis::basket::BasketParseError`]'s 1-based reporting, and never
//! terminate the connection; only `quit` (reply `bye`) and the client
//! closing its end do.
//!
//! # Binary framing
//!
//! When the server runs with `serve --binary`, a connection may *negotiate*
//! the compact binary framing of the [`binary`] module instead of the
//! newline framing above: the client's very first bytes are the 5-byte
//! magic [`binary::MAGIC`], the server answers the 5-byte [`binary::ACK`],
//! and both directions then speak length-prefixed frames.  A connection
//! that opens with anything else stays on the text framing (the debug and
//! compatibility surface — both framings serve the same grammar and reply
//! text on one port).  The magic deliberately ends in `\n` and opens with
//! bytes that are invalid UTF-8, so a server *without* `--binary` parses it
//! as a complete, malformed text line and answers a plain `err` — a client
//! probing for binary support gets a decisive answer either way instead of
//! hanging.  All multi-byte integers are little-endian:
//!
//! ```text
//! handshake ::= MAGIC = d1 ff b1 01 0a         client → server, first bytes
//!               ACK   = d1 ff b1 81 0a         server → client, first bytes
//!
//! request   ::= 00 len:u32 byte[len]           a UTF-8 request line of the
//!                                              text grammar (no newline)
//!             | 01 lhs:u64 k:u16 (mask:u64)^k  implies  lhs → {mask…}
//!             | 02 set:u64                     bound    set
//!             | 03 lhs:u64 k:u16 (mask:u64)^k  assert   lhs → {mask…}
//!
//! reply     ::= 00 len:u32 byte[len]           one UTF-8 response line of
//!                                              the response grammar (no
//!                                              newline), in request order;
//!                                              silent requests reply
//!                                              nothing, exactly as in text
//! ```
//!
//! The fixed-width verb frames (`01`/`02`/`03`) carry attribute *bitmasks*
//! over the current session's universe — bit `i` is the universe's `i`-th
//! attribute, so masks are valid for any universe of at most
//! [`setlat::MAX_UNIVERSE`] (= 64) attributes — and decode to exactly the
//! requests `implies`/`bound`/`assert` parse from text: [`Server::respond`]
//! answers a mask frame in the dispatch arm of its text spelling, with its
//! goal or set given as masks, and builds the member family with the same
//! constructor, so answers and replies are byte-identical up to telemetry
//! fields.  A mask with bits outside the universe answers `err`, like any
//! other semantic error, without ending the connection.
//!
//! Framing violations are stricter than in text, because a length-prefixed
//! stream cannot resynchronize after a corrupt header: an unknown frame
//! tag, a `len` above the admission limit ([`MAX_REQUEST_BYTES`] /
//! `--max-request-bytes`), or a member count above
//! [`binary::MAX_MEMBERS`] answers one `err` frame and then closes the
//! connection.  A frame truncated by disconnect just ends the connection
//! (there is no partial-line salvage as in text framing).
//!
//! # Response grammar
//!
//! ```text
//! response ::= "ok" field*                       state-changing commands
//!            | "sessions" "n=" NUMBER "current=" NUMBER slotdesc*
//!            |                                   session list
//!            | "yes" field* | "no" field*        implies
//!            | "results" "n=" NUMBER (y|n)*      batch, index-aligned
//!            | "witness" ("none" | "set=" SET)
//!            | "proof" field* | "unprovable"
//!            | "explain" field*                  instrumented implies
//!            | "analyze" field* evidence*        premise-core analysis
//!            | "bound" "lo=" BOUNDVAL "hi=" BOUNDVAL field*
//!            |                                  interval response form
//!            | "mined" field* constraint*        discovery results
//!            | "dataset" field*                  dataset statistics
//!            | "premises" "n=" NUMBER constraint*
//!            | "knowns" "n=" NUMBER (SET "=" VALUE)*
//!            | "stats" field*
//!            | "stats" "recent" field*           windowed live statistics
//!            | "flight" "n=" NUMBER record*      flight-recorder dumps
//!            | "profile" field* stack*           collapsed-stack profiles
//!            | "bye"
//!            | "err" message
//! field    ::= KEY "=" VALUE                     e.g. route=lattice us=12
//! evidence ::= "redundant[" NUMBER "]=" constraint "<=["
//!              [constraint ("," constraint)*] "]"
//!                                                an implied premise and
//!                                                premises implying it
//!            | "conflict=" SET "=" VALUE ("," SET "=" VALUE)*
//!                                                a minimal infeasible known
//!                                                set (only with
//!                                                infeasible=1)
//!            | "dead_eg=" SET ("," SET)*        example dead density
//!                                                variables
//! BOUNDVAL ::= NUMBER | "inf" | "-inf"           interval endpoints
//! slotdesc ::= ID ":" ("-" | "u" NUMBER "p" NUMBER "q" NUMBER)
//!                                                per-slot: "-" while no
//!                                                universe is open, else
//!                                                universe size, premise
//!                                                count, and queries served
//!                                                (e.g. `0:u4p2q7 1:-`)
//! stack    ::= FRAMES " " NUMBER (" | " …)*      one sampled stack per
//!                                                group: semicolon-joined
//!                                                frames plus its sample
//!                                                count (`conn;net.read 42`),
//!                                                heaviest first
//! record   ::= field* (" | " field*)*            one `trace=… conn=… slot=…
//!                                                verb=… route=… cached=…
//!                                                in=… out=… frame_us=…
//!                                                plan_us=… decide_us=…
//!                                                reply_us=… epoch=…` group
//!                                                per request, newest first,
//!                                                `|`-separated
//! ```
//!
//! `implies` responses carry `route` (`trivial`, `fd`, `lattice`, `sat` —
//! the routes the planner can select), `cached` (`0`/`1`), and `us` (decision
//! latency in microseconds).  `bound` responses carry `lo`/`hi` (the derived
//! interval, `exact=1` when it is a single point), `route` (`cached`,
//! `propagation`, `relaxed` — the bound-query routing ladder), `cached`, and
//! `us`; state the derivation recognizes as contradictory answers
//! `err infeasible: …` instead (the propagation route detects every
//! contradiction it enumerates; the relaxed route's detection is
//! best-effort — only contradictions involving the query set).  `stats`
//! reports one `<route>=<decided>/<cache hits>c/<total µs>us` field per
//! procedure that has served at least one query, plus a
//! `bound=<propagation>p/<relaxed>r/<cache hits>c/<total µs>us` field once
//! bound queries have been served.  `analyze` responses carry the
//! `premises`, `redundant` and `dead` counts, `epoch`, `us`, and
//! `infeasible`: `0` when every feasibility check ran clean or the session
//! holds no known values (no `bound` can answer `err infeasible`), `1` with a minimal `conflict=` set when
//! one found a contradiction, and `unchecked` when the bound budget or the
//! sweep cap (`diffcon_bounds::derive::FEASIBILITY_SWEEP_CAP` attributes)
//! skipped a check, so a later `bound` may still answer `err infeasible`.
//! Constraints in responses are printed in the compact parseable form
//! `A->{B,CD}`, so a client can feed them straight back into requests.
//!
//! # Observability verbs
//!
//! `explain <constraint>` answers the implication query through the
//! ordinary serving path — same caches, same planner accounting — and
//! reports where the time went:
//!
//! ```text
//! explain verdict=(yes|no) route=ROUTE cached=(0|1) epoch=N
//!         probe_us=N plan_us=N decide_us=N total_us=N trace=N
//! ```
//!
//! `probe_us` is the answer-cache probe, `plan_us` the planner's route
//! choice, `decide_us` the decision procedure itself (both zero on a cache
//! hit), and `epoch` the session state that answered.
//! `trace` is the request's flight-record trace id: `debug trace <id>`
//! finds the request's record, whose route, cache outcome, decision time,
//! and epoch match the reply exactly.
//!
//! Every request — any verb, an error, a silent line, a framing refusal —
//! writes one fixed-width record into the process-wide flight recorder (a
//! lock-free overwrite-oldest ring, always on): trace id, connection and
//! slot, verb, route (`?` unless the request was an answered query), cache
//! outcome, bytes in/out, and per-stage latency.  A connection publishes
//! its records once per read burst, and before it answers any `stats`,
//! `session`, `universe`, `reset` or `debug recent|trace` request, so those
//! see every earlier request.  `debug recent [n]` dumps
//! the `n` most recent records (newest first, default 10) and `debug trace
//! <id>` looks a single request up by trace id; `stats recent` reports
//! rates and stage-latency percentiles over the last 30–60 s of traffic,
//! differenced against the older of two snapshots the server rotates
//! every 30 s.  Trace ids are unique across the process and
//! consecutive within a connection (connection id in the upper 32 bits, the
//! request's 1-based position on the connection in the lower).
//!
//! `debug profile start` starts the process-wide continuous profiler (the
//! cooperative sampler walking every serving thread's stage beacon at the
//! configured rate — `--profile-hz`, default 97) and answers
//! `ok profile running=1 hz=N`; `debug profile stop` halts it, keeping the
//! accumulated samples (`ok profile running=0 samples=N`); `debug profile
//! dump` reports them as ` | `-separated flamegraph-collapsed stacks:
//! `profile samples=N stacks=K class;tag;…;tag count | …`.  The `/profile`
//! HTTP endpoint serves the same stacks in the newline-delimited form
//! external flamegraph tooling consumes.
//!
//! `trace on` makes every subsequent query reply (`implies`, `batch`,
//! `bound`, `witness`, `derive`, `mine`) carry a trailing ` epoch=N` field
//! naming the session state it was answered against; `trace off` restores
//! the plain form.  The epoch is the one the slot's session had reached at
//! the request's position in the input order, so traced replies are the same
//! whether a client sends requests one at a time or pipelined.  The reply
//! is `ok trace=1` / `ok trace=0`.
//!
//! `stats` additionally reports, per procedure that decided at least one
//! query, decision-latency percentiles as `<route>_p50us=…`/`<route>_p99us=…`
//! fields, and the four counters of each of the session's two caches as
//! `answer_cache=h…/m…/e…/c…` and `bound_cache=h…/m…/e…/c…`: hits, misses,
//! evictions, and collisions (misses that found a cached goal or set with
//! their state salt and fingerprint but another value, which the answer
//! then replaces).
//!
//! # Discovery verbs
//!
//! `load` appends `;`-separated baskets to the session's dataset (creating
//! it on first use) and answers `ok load added=… baskets=…`; parse failures
//! answer `err` with the 1-based record number and offending token (blank
//! and `#` comment records are skipped but still counted, so the reported
//! position always matches the client's own record numbering).  `mine`
//! discovers the minimal satisfied disjunctive constraints of the dataset
//! (as differential constraints, Proposition 6.3) within the budgets
//! `max |X| max |𝒴|` (default 2 2) and answers
//! `mined minimal=… cover=…` followed by the non-redundant cover in wire
//! form.  `adopt` runs the same discovery and asserts the cover as
//! premises, answering `ok adopt minimal=… cover=… added=… premises=…` —
//! after which `bound` queries and implication answers reason from what
//! provably holds in the data.  `dataset` answers
//! `dataset baskets=… items=… occurring=…`.  Mining is refused (with
//! `err`) on universes above [`MAX_MINE_UNIVERSE`] attributes, and when
//! the requested family budget exceeds [`MAX_MINE_RHS_WORK`] relative to
//! the universe size: both bounds are measured wedge thresholds for the
//! single-threaded serving loop (the candidate-member pool is
//! `2^{|S|−|X|}` per antecedent, and the family search is exponential in
//! `max |𝒴|` on top of it).
//!
//! # Session verbs
//!
//! A server holds a registry of numbered session slots
//! ([`crate::server_state::SessionRegistry`]); every verb above operates on
//! the *current* slot.  `session new` opens a fresh empty slot and switches
//! to it (`ok session id=… sessions=…`); `session use <id>` switches back
//! (`ok session id=…`); `session close [<id>]` drops a slot's state
//! (`ok session closed=… sessions=… current=…` — closing the last slot
//! opens a fresh empty one, and ids are never reused); `session list`
//! answers `sessions n=… current=…` followed by one `slotdesc` per slot.
//! Each slot's premises, knowns, dataset, and statistics are fully
//! independent.  Every request is answered at its position in the request
//! stream, against the state its slot holds at that point: a query sees
//! every earlier mutation and no later one.

use crate::metrics::{next_connection_id, ConnCosts, EngineMetrics, FlightRecord, RecordBatch};
use crate::server_state::{SessionRegistry, SlowLogLimiter};
use crate::session::{Session, SessionConfig};
use crate::snapshot::{AnalyzeOutcome, BoundOutcome, ExplainOutcome, QueryOutcome};
use diffcon::procedure::ALL_PROCEDURES;
use diffcon::DiffConstraint;
use diffcon_bounds::problem::DeriveError;
use diffcon_bounds::{Feasibility, Interval};
use diffcon_discover::{Discovery, MinerConfig};
use diffcon_obs::profile::{self, StageTag};
use setlat::{AttrSet, Family, Universe};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Profiling tag for answering one request (parse, decide, and format).
static STAGE_SERVE: StageTag = StageTag::new("request.serve");

pub use diffcon_discover::{MAX_MINE_RHS_WORK, MAX_MINE_UNIVERSE};

/// Default per-request line-length admission limit of the network framing,
/// in bytes (the `\n` terminator excluded).
///
/// Generous for the grammar — the longest legitimate requests (`batch` and
/// `load` with hundreds of `;`-separated items) stay well under it — while
/// bounding what a slow or malicious client can make the serving loop
/// buffer.  Longer lines are discarded up to their newline and answered
/// with [`oversized_request`].
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Decodes one raw request line received from a byte transport: validates
/// UTF-8 and strips one optional trailing `'\r'` (so CRLF-terminated lines
/// from telnet or Windows clients parse like LF-terminated ones).
///
/// # Errors
/// The `err` reply text for undecodable bytes, naming the first offending
/// byte and its 1-based position in the line.
pub fn decode_request(bytes: &[u8]) -> Result<&str, String> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Ok(text.strip_suffix('\r').unwrap_or(text)),
        Err(e) => {
            let at = e.valid_up_to();
            Err(format!(
                "request is not valid UTF-8 (byte 0x{:02x} at position {})",
                bytes[at],
                at + 1
            ))
        }
    }
}

/// The `err` reply text for a request line over the admission limit.
pub fn oversized_request(got: usize, limit: usize) -> String {
    format!("request line exceeds {limit} bytes (got {got})")
}

/// The compact binary wire framing (`serve --binary`), negotiated per
/// connection by the [`MAGIC`](binary::MAGIC)/[`ACK`](binary::ACK)
/// handshake.  Grammar in the *Binary framing* section of the
/// [module docs](crate::protocol); both the server's connection driver
/// ([`crate::connection`]) and the [`crate::client::Client`] use these
/// encoders/decoders, so the two sides of the wire can never drift apart.
pub mod binary {
    /// First bytes a client sends to negotiate binary framing.  Starts with
    /// `0xD1 0xFF`, an invalid UTF-8 sequence, and ends with `\n`, so a
    /// text-only server parses it as one complete malformed line and
    /// answers a plain `err request is not valid UTF-8 …` — a probing
    /// client fails fast instead of hanging on a half-read handshake.
    pub const MAGIC: [u8; 5] = [0xD1, 0xFF, 0xB1, 0x01, b'\n'];
    /// The server's 5-byte answer to [`MAGIC`]; everything after it is
    /// binary reply frames.
    pub const ACK: [u8; 5] = [0xD1, 0xFF, 0xB1, 0x81, b'\n'];

    /// Frame tag: a length-prefixed UTF-8 request line (requests) or
    /// response line (replies).
    pub const TAG_LINE: u8 = 0x00;
    /// Frame tag: fixed-width `implies` over attribute bitmasks.
    pub const TAG_IMPLIES: u8 = 0x01;
    /// Frame tag: fixed-width `bound` over an attribute bitmask.
    pub const TAG_BOUND: u8 = 0x02;
    /// Frame tag: fixed-width `assert` over attribute bitmasks.
    pub const TAG_ASSERT: u8 = 0x03;

    /// Member-count admission limit of the fixed-width constraint frames.
    /// Generous — useful right-hand-side families are tiny — while bounding
    /// what a corrupt or malicious `k` field can make the server buffer.
    pub const MAX_MEMBERS: usize = 1024;

    /// One decoded request frame, borrowing from the connection's input
    /// buffer (the hot path allocates nothing).  The connection driver
    /// presents each text line as a [`BinRequest::Line`], so
    /// [`Server::respond`](super::Server::respond) serves every framing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BinRequest<'a> {
        /// Tag `00`: a request line in the text grammar (UTF-8 not yet
        /// validated — the server runs it through
        /// [`decode_request`](super::decode_request) like any text line).
        Line(&'a [u8]),
        /// Tag `01`: `implies lhs -> {rhs…}` over bitmasks.
        Implies {
            /// Left-hand-side attribute bitmask.
            lhs: u64,
            /// Right-hand-side member bitmasks.
            rhs: MaskList<'a>,
        },
        /// Tag `02`: `bound set` over a bitmask.
        Bound {
            /// The queried attribute bitmask.
            set: u64,
        },
        /// Tag `03`: `assert lhs -> {rhs…}` over bitmasks.
        Assert {
            /// Left-hand-side attribute bitmask.
            lhs: u64,
            /// Right-hand-side member bitmasks.
            rhs: MaskList<'a>,
        },
    }

    /// The `k` little-endian `u64` member masks of a fixed-width frame,
    /// still in wire form (no allocation until the server builds the
    /// constraint).
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct MaskList<'a>(&'a [u8]);

    impl MaskList<'_> {
        /// Number of member masks.
        pub fn len(&self) -> usize {
            self.0.len() / 8
        }

        /// No members (an empty right-hand-side family).
        pub fn is_empty(&self) -> bool {
            self.0.is_empty()
        }

        /// Iterates the masks in wire order.
        pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
            self.0
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        }
    }

    /// The outcome of decoding one frame from a buffer prefix.
    #[derive(Debug, PartialEq)]
    pub enum Decoded<'a> {
        /// A complete frame and its total wire length in bytes (header
        /// included) — the transport consumes exactly that many bytes.
        Frame(BinRequest<'a>, usize),
        /// The buffer holds a prefix of a valid frame; read more bytes.
        Incomplete,
        /// An unrecoverable framing violation (unknown tag, oversize
        /// declaration).  The payload is the `err` message to answer before
        /// closing: a corrupt length-prefixed stream cannot resynchronize.
        Fatal(String),
    }

    fn u32_at(buf: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(buf[at..at + 4].try_into().expect("4-byte slice"))
    }

    fn u64_at(buf: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte slice"))
    }

    /// Decodes one request frame from the front of `buf`.  `max_bytes` is
    /// the per-request admission limit (the text framing's line cap; a
    /// `Line` payload above it is [`Decoded::Fatal`]).
    pub fn decode_request(buf: &[u8], max_bytes: usize) -> Decoded<'_> {
        let Some(&tag) = buf.first() else {
            return Decoded::Incomplete;
        };
        match tag {
            TAG_LINE => {
                if buf.len() < 5 {
                    return Decoded::Incomplete;
                }
                let len = u32_at(buf, 1) as usize;
                if len > max_bytes {
                    return Decoded::Fatal(super::oversized_request(len, max_bytes));
                }
                if buf.len() < 5 + len {
                    return Decoded::Incomplete;
                }
                Decoded::Frame(BinRequest::Line(&buf[5..5 + len]), 5 + len)
            }
            TAG_IMPLIES | TAG_ASSERT => {
                if buf.len() < 11 {
                    return Decoded::Incomplete;
                }
                let lhs = u64_at(buf, 1);
                let k = u16::from_le_bytes([buf[9], buf[10]]) as usize;
                if k > MAX_MEMBERS {
                    return Decoded::Fatal(format!(
                        "binary frame declares {k} members (limit {MAX_MEMBERS})"
                    ));
                }
                let total = 11 + 8 * k;
                if buf.len() < total {
                    return Decoded::Incomplete;
                }
                let rhs = MaskList(&buf[11..total]);
                let frame = if tag == TAG_IMPLIES {
                    BinRequest::Implies { lhs, rhs }
                } else {
                    BinRequest::Assert { lhs, rhs }
                };
                Decoded::Frame(frame, total)
            }
            TAG_BOUND => {
                if buf.len() < 9 {
                    return Decoded::Incomplete;
                }
                Decoded::Frame(
                    BinRequest::Bound {
                        set: u64_at(buf, 1),
                    },
                    9,
                )
            }
            other => Decoded::Fatal(format!("unknown binary frame tag 0x{other:02x}")),
        }
    }

    /// The outcome of decoding one reply frame (client side).
    #[derive(Debug, PartialEq)]
    pub enum DecodedReply<'a> {
        /// A complete reply payload (the response line's UTF-8 bytes) and
        /// the frame's total wire length.
        Frame(&'a [u8], usize),
        /// A prefix of a valid frame; read more bytes.
        Incomplete,
        /// Corrupt reply stream; the message describes the violation.
        Fatal(String),
    }

    /// Decodes one reply frame from the front of `buf`.  `max_bytes` caps
    /// the declared payload length (the client's reply admission limit).
    pub fn decode_reply(buf: &[u8], max_bytes: usize) -> DecodedReply<'_> {
        let Some(&tag) = buf.first() else {
            return DecodedReply::Incomplete;
        };
        if tag != TAG_LINE {
            return DecodedReply::Fatal(format!("unknown binary reply tag 0x{tag:02x}"));
        }
        if buf.len() < 5 {
            return DecodedReply::Incomplete;
        }
        let len = u32_at(buf, 1) as usize;
        if len > max_bytes {
            return DecodedReply::Fatal(format!(
                "binary reply declares {len} bytes (limit {max_bytes})"
            ));
        }
        if buf.len() < 5 + len {
            return DecodedReply::Incomplete;
        }
        DecodedReply::Frame(&buf[5..5 + len], 5 + len)
    }

    /// The 5-byte header of a `00` frame carrying `len` payload bytes.
    pub fn line_header(len: usize) -> [u8; 5] {
        let [a, b, c, d] = (len as u32).to_le_bytes();
        [TAG_LINE, a, b, c, d]
    }

    /// Encodes a text-grammar request line as a `00` frame.
    pub fn encode_line(line: &str, out: &mut Vec<u8>) {
        out.extend_from_slice(&line_header(line.len()));
        out.extend_from_slice(line.as_bytes());
    }

    fn encode_masks(tag: u8, lhs: u64, rhs: &[u64], out: &mut Vec<u8>) {
        debug_assert!(rhs.len() <= MAX_MEMBERS);
        out.push(tag);
        out.extend_from_slice(&lhs.to_le_bytes());
        out.extend_from_slice(&(rhs.len() as u16).to_le_bytes());
        for mask in rhs {
            out.extend_from_slice(&mask.to_le_bytes());
        }
    }

    /// Encodes a fixed-width `implies lhs -> {rhs…}` frame.
    pub fn encode_implies(lhs: u64, rhs: &[u64], out: &mut Vec<u8>) {
        encode_masks(TAG_IMPLIES, lhs, rhs, out);
    }

    /// Encodes a fixed-width `assert lhs -> {rhs…}` frame.
    pub fn encode_assert(lhs: u64, rhs: &[u64], out: &mut Vec<u8>) {
        encode_masks(TAG_ASSERT, lhs, rhs, out);
    }

    /// Encodes a fixed-width `bound set` frame.
    pub fn encode_bound(set: u64, out: &mut Vec<u8>) {
        out.push(TAG_BOUND);
        out.extend_from_slice(&set.to_le_bytes());
    }
}

/// 1-based character column of `part` within `line`.  `part` must be a
/// subslice of `line` (as produced by the splitting in [`parse_request`]).
fn column_of(line: &str, part: &str) -> usize {
    let offset = (part.as_ptr() as usize).saturating_sub(line.as_ptr() as usize);
    line.get(..offset).map_or(0, |head| head.chars().count()) + 1
}

/// A parsed request line, borrowing its arguments from the line.
///
/// `G` is the type of a constraint argument and `S` of a set argument:
/// their text, as [`parse_request`] leaves them.  ([`Server::respond`]
/// reads a mask frame into the variant of its text spelling, with its goal
/// or set given as masks.)
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a, G = &'a str, S = &'a str> {
    /// `universe 4` or `universe A B C D`.
    Universe(UniverseSpec<'a>),
    /// `session new`.
    SessionNew,
    /// `session use 1`.
    SessionUse(u64),
    /// `session close` or `session close 1`.
    SessionClose(Option<u64>),
    /// `session list`.
    SessionList,
    /// `assert <constraint>`.
    Assert(G),
    /// `retract <constraint>`.
    Retract(G),
    /// `implies <constraint>`.
    Implies(G),
    /// `batch <c1> ; <c2> ; …`.
    Batch(Vec<&'a str>),
    /// `witness <constraint>`.
    Witness(G),
    /// `derive <constraint>`.
    Derive(G),
    /// `explain <constraint>` — `implies` with a per-stage latency and
    /// epoch report.
    Explain(G),
    /// `analyze` or `analyze apply` — premise-core static analysis of the
    /// current session (`apply` additionally retracts the redundant
    /// premises, which is answer-preserving).
    Analyze {
        /// `true` for `analyze apply`: execute the core reduction instead
        /// of only reporting it.
        apply: bool,
    },
    /// `trace on` / `trace off` — toggle the `epoch=` reply suffix.
    Trace(bool),
    /// `known <set> = <value>` (the `=` is optional).
    Known(S, f64),
    /// `forget <set>`.
    Forget(S),
    /// `bound <set>`.
    Bound(S),
    /// `load <b1> ; <b2> ; …`.
    Load(Vec<&'a str>),
    /// `mine` or `mine <max_lhs> <max_rhs>`.
    Mine(Option<(usize, usize)>),
    /// `adopt` or `adopt <max_lhs> <max_rhs>`.
    Adopt(Option<(usize, usize)>),
    /// `dataset`.
    Dataset,
    /// `premises`.
    Premises,
    /// `knowns`.
    Knowns,
    /// `stats`.
    Stats,
    /// `stats recent` — windowed live stats (rates and stage percentiles
    /// over the last 30–60 s).
    StatsRecent,
    /// `debug recent` or `debug recent <n>` — dump the most recent flight
    /// records.
    DebugRecent(Option<usize>),
    /// `debug trace <id>` — dump one flight record by trace id.
    DebugTrace(u64),
    /// `debug profile start|stop|dump` — control the continuous profiler.
    DebugProfile(ProfileAction),
    /// `reset`.
    Reset,
    /// `help`.
    Help,
    /// `quit`.
    Quit,
    /// Blank or comment line: no response.
    Empty,
}

impl<G, S> Request<'_, G, S> {
    /// Whether answering the request reads the telemetry a connection
    /// stages (the stage histograms, the flight ring, a session's ledger)
    /// or changes which session is current, so the staged records must be
    /// published first (see [`Server::stage`]).
    fn reads_staged_telemetry(&self) -> bool {
        matches!(
            self,
            Request::Stats
                | Request::StatsRecent
                | Request::DebugRecent(_)
                | Request::DebugTrace(_)
                | Request::SessionNew
                | Request::SessionUse(_)
                | Request::SessionClose(_)
                | Request::SessionList
                | Request::Universe(_)
                | Request::Reset
        )
    }
}

/// The action of a `debug profile` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileAction {
    /// `debug profile start` — start the continuous sampler (and enable the
    /// beacon guards) at the process's configured rate.
    Start,
    /// `debug profile stop` — stop the sampler, keeping its samples.
    Stop,
    /// `debug profile dump` — report the accumulated collapsed stacks.
    Dump,
}

/// The argument of a `universe` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UniverseSpec<'a> {
    /// `universe 5` — attributes `A`–`E` (see [`Universe::of_size`] for
    /// the names of larger universes).
    Size(usize),
    /// `universe Lo Hi Vol` — explicitly named attributes.
    Names(Vec<&'a str>),
}

/// Returns `true` iff `line` is a *silent* request — blank or a `#`
/// comment, parsed as [`Request::Empty`] — which produces no reply line at
/// all on the wire.  Clients counting replies for pipelined scripts (see
/// [`crate::client::Client::run_script`]) must skip these.
pub fn is_silent(line: &str) -> bool {
    let trimmed = line.trim();
    trimmed.is_empty() || trimmed.starts_with('#')
}

/// One entry of the canonical verb table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verb {
    /// The wire verb name, exactly as [`parse_request`] matches it.
    pub name: &'static str,
    /// A canonical example line that must parse to this verb's request
    /// (the test suite round-trips every entry through [`parse_request`]).
    pub example: &'static str,
}

/// The canonical verb table: every verb [`parse_request`] accepts, in
/// `help`-reply order.  The `help` reply is generated from this table
/// ([`help_reply`]), the test suite checks every example parses, and the
/// repository lint gate (`cargo run -p xtask -- lint`) cross-checks the
/// module's grammar rustdoc against it — so the parser, the help text, and
/// the documentation cannot drift apart.  (`exit` is an undocumented alias
/// of `quit` and deliberately absent.)
pub const VERBS: &[Verb] = &[
    Verb {
        name: "universe",
        example: "universe 4",
    },
    Verb {
        name: "session",
        example: "session list",
    },
    Verb {
        name: "assert",
        example: "assert A -> {B}",
    },
    Verb {
        name: "retract",
        example: "retract A -> {B}",
    },
    Verb {
        name: "implies",
        example: "implies A -> {B}",
    },
    Verb {
        name: "batch",
        example: "batch A -> {B} ; B -> {C}",
    },
    Verb {
        name: "witness",
        example: "witness A -> {B}",
    },
    Verb {
        name: "derive",
        example: "derive A -> {B}",
    },
    Verb {
        name: "explain",
        example: "explain A -> {B}",
    },
    Verb {
        name: "analyze",
        example: "analyze apply",
    },
    Verb {
        name: "trace",
        example: "trace on",
    },
    Verb {
        name: "known",
        example: "known AB = 40",
    },
    Verb {
        name: "forget",
        example: "forget AB",
    },
    Verb {
        name: "bound",
        example: "bound AB",
    },
    Verb {
        name: "load",
        example: "load AB ; B",
    },
    Verb {
        name: "mine",
        example: "mine 2 2",
    },
    Verb {
        name: "adopt",
        example: "adopt 2 2",
    },
    Verb {
        name: "dataset",
        example: "dataset",
    },
    Verb {
        name: "premises",
        example: "premises",
    },
    Verb {
        name: "knowns",
        example: "knowns",
    },
    Verb {
        name: "stats",
        example: "stats recent",
    },
    Verb {
        name: "debug",
        example: "debug recent",
    },
    Verb {
        name: "reset",
        example: "reset",
    },
    Verb {
        name: "help",
        example: "help",
    },
    Verb {
        name: "quit",
        example: "quit",
    },
];

/// The `help` reply text, generated from [`VERBS`] so a newly added verb
/// can never be missing from it.
pub fn help_reply() -> String {
    let mut text = String::from("ok commands:");
    for verb in VERBS {
        text.push(' ');
        text.push_str(verb.name);
    }
    text
}

/// The index of verb `name` in [`VERBS`].  Evaluated in `const` blocks, so
/// a name missing from the table fails the build.  (The names are
/// lowercase; `eq_ignore_ascii_case` is the string comparison `const`
/// allows.)
const fn verb_index(name: &str) -> usize {
    let mut index = 0;
    while !VERBS[index].name.eq_ignore_ascii_case(name) {
        index += 1;
    }
    index
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request<'_>, String> {
    parse_args(line)
}

/// Parses one request line, with its constraint and set arguments as `G`
/// and `S`.
fn parse_args<'a, G: From<&'a str>, S: From<&'a str>>(
    line: &'a str,
) -> Result<Request<'a, G, S>, String> {
    // Error columns are reported against the line as received (leading
    // whitespace included), so they match what the client actually sent.
    let original = line;
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(Request::Empty);
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let need = |what: &str| -> Result<&str, String> {
        if rest.is_empty() {
            Err(format!("{what} expects a constraint argument"))
        } else {
            Ok(rest)
        }
    };
    // Verbs that take no argument reject trailing garbage instead of
    // silently ignoring it: `quit now` is a malformed request, not a
    // `quit`, and the error names the offending token and its column.
    let no_args = |request: Request<'a, G, S>| -> Result<Request<'a, G, S>, String> {
        if rest.is_empty() {
            Ok(request)
        } else {
            let token = rest.split_whitespace().next().unwrap_or(rest);
            Err(format!(
                "{verb} expects no argument (unexpected `{token}` at column {})",
                column_of(original, token)
            ))
        }
    };
    match verb {
        "universe" => {
            if rest.is_empty() {
                return Err("universe expects a size or attribute names".into());
            }
            if let Ok(n) = rest.parse::<usize>() {
                Ok(Request::Universe(UniverseSpec::Size(n)))
            } else {
                Ok(Request::Universe(UniverseSpec::Names(
                    rest.split_whitespace().collect(),
                )))
            }
        }
        "session" => {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let slot_id = |text: &str| -> Result<u64, String> {
                text.parse()
                    .map_err(|_| format!("session expects a numeric slot id, got `{text}`"))
            };
            match parts.as_slice() {
                ["new"] => Ok(Request::SessionNew),
                ["use", id] => Ok(Request::SessionUse(slot_id(id)?)),
                ["close"] => Ok(Request::SessionClose(None)),
                ["close", id] => Ok(Request::SessionClose(Some(slot_id(id)?))),
                ["list"] => Ok(Request::SessionList),
                _ => Err("session expects `new`, `use <id>`, `close [<id>]`, or `list`".into()),
            }
        }
        "assert" => Ok(Request::Assert(need("assert")?.into())),
        "retract" => Ok(Request::Retract(need("retract")?.into())),
        "implies" => Ok(Request::Implies(need("implies")?.into())),
        "witness" => Ok(Request::Witness(need("witness")?.into())),
        "derive" => Ok(Request::Derive(need("derive")?.into())),
        "explain" => Ok(Request::Explain(need("explain")?.into())),
        "analyze" => match rest.split_whitespace().collect::<Vec<_>>().as_slice() {
            [] => Ok(Request::Analyze { apply: false }),
            ["apply"] => Ok(Request::Analyze { apply: true }),
            ["apply", extra, ..] => Err(format!(
                "analyze expects no argument after `apply` (unexpected `{extra}` at column {})",
                column_of(original, extra)
            )),
            [token, ..] => Err(format!(
                "analyze expects no argument or `apply`, got `{token}` at column {}",
                column_of(original, token)
            )),
        },
        "trace" => {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            match parts.as_slice() {
                ["on"] => Ok(Request::Trace(true)),
                ["off"] => Ok(Request::Trace(false)),
                [] => Err("trace expects `on` or `off`".into()),
                [mode, extra, ..] if *mode == "on" || *mode == "off" => Err(format!(
                    "trace expects no argument after `{mode}` (unexpected `{extra}` at column {})",
                    column_of(original, extra)
                )),
                [token, ..] => Err(format!(
                    "trace expects `on` or `off`, got `{token}` at column {}",
                    column_of(original, token)
                )),
            }
        }
        "known" => {
            // `known AB = 40` or `known AB 40`.
            let mut parts = rest.split_whitespace().filter(|p| *p != "=");
            let (set, value) = match (parts.next(), parts.next(), parts.next()) {
                (Some(set), Some(value), None) => (set, value),
                _ => return Err("known expects `<set> = <value>`".into()),
            };
            // The shared wire-endpoint parser keeps `known` input symmetric
            // with the `bound`/`knowns` output formatting (and rejects NaN).
            let value: f64 = Interval::parse_endpoint(value)
                .map_err(|_| format!("known expects a numeric value, got `{value}`"))?;
            if !value.is_finite() {
                return Err("known values must be finite".into());
            }
            Ok(Request::Known(set.into(), value))
        }
        "forget" => Ok(Request::Forget(need("forget")?.into())),
        "bound" => Ok(Request::Bound(need("bound")?.into())),
        "load" => {
            // Keep empty segments: the loader skips them but counts them,
            // so error positions match the client's own `;`-separated
            // record numbering.
            let records: Vec<&str> = rest.split(';').map(str::trim).collect();
            if records.iter().all(|record| record.is_empty()) {
                Err("load expects `;`-separated baskets".into())
            } else {
                Ok(Request::Load(records))
            }
        }
        "mine" | "adopt" => {
            let budgets = if rest.is_empty() {
                None
            } else {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let budget = |text: &str| -> Result<usize, String> {
                    text.parse()
                        .map_err(|_| format!("{verb} expects numeric budgets, got `{text}`"))
                };
                match parts.as_slice() {
                    [lhs, rhs] => Some((budget(lhs)?, budget(rhs)?)),
                    _ => {
                        return Err(format!(
                            "{verb} expects no arguments or `<max_lhs> <max_rhs>`"
                        ))
                    }
                }
            };
            Ok(if verb == "mine" {
                Request::Mine(budgets)
            } else {
                Request::Adopt(budgets)
            })
        }
        "dataset" => no_args(Request::Dataset),
        "batch" => {
            let goals: Vec<&str> = rest
                .split(';')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if goals.is_empty() {
                Err("batch expects `;`-separated constraints".into())
            } else {
                Ok(Request::Batch(goals))
            }
        }
        "premises" => no_args(Request::Premises),
        "knowns" => no_args(Request::Knowns),
        "stats" => match rest.split_whitespace().collect::<Vec<_>>().as_slice() {
            [] => Ok(Request::Stats),
            ["recent"] => Ok(Request::StatsRecent),
            ["recent", extra, ..] => Err(format!(
                "stats recent expects no argument (unexpected `{extra}` at column {})",
                column_of(original, extra)
            )),
            _ => no_args(Request::Stats),
        },
        "debug" => {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            match parts.as_slice() {
                ["recent"] => Ok(Request::DebugRecent(None)),
                ["recent", n] => n
                    .parse()
                    .map(|n| Request::DebugRecent(Some(n)))
                    .map_err(|_| format!("debug recent expects a numeric count, got `{n}`")),
                ["trace", id] => id
                    .parse()
                    .map(Request::DebugTrace)
                    .map_err(|_| format!("debug trace expects a numeric trace id, got `{id}`")),
                ["profile", "start"] => Ok(Request::DebugProfile(ProfileAction::Start)),
                ["profile", "stop"] => Ok(Request::DebugProfile(ProfileAction::Stop)),
                ["profile", "dump"] => Ok(Request::DebugProfile(ProfileAction::Dump)),
                ["profile", other] => Err(format!(
                    "debug profile expects `start`, `stop`, or `dump`, got `{other}`"
                )),
                _ => Err(
                    "debug expects `recent [<n>]`, `trace <id>`, or `profile start|stop|dump`"
                        .into(),
                ),
            }
        }
        "reset" => no_args(Request::Reset),
        "help" => no_args(Request::Help),
        "quit" | "exit" => no_args(Request::Quit),
        other => Err(format!(
            "unknown command `{other}` at column {} (try `help`)",
            column_of(original, other)
        )),
    }
}

/// Formats a request back into its canonical wire line.
///
/// Inverse of [`parse_request`] whenever the embedded constraint/set texts
/// are themselves trimmed, nonempty, and `;`-free (as the parser produces):
/// `parse_request(&format_request(r)) == Ok(r)` — the protocol round-trip
/// property the test suite checks for every verb.
pub fn format_request(request: &Request<'_>) -> String {
    match request {
        Request::Universe(UniverseSpec::Size(n)) => format!("universe {n}"),
        Request::Universe(UniverseSpec::Names(names)) => {
            format!("universe {}", names.join(" "))
        }
        Request::SessionNew => "session new".into(),
        Request::SessionUse(id) => format!("session use {id}"),
        Request::SessionClose(None) => "session close".into(),
        Request::SessionClose(Some(id)) => format!("session close {id}"),
        Request::SessionList => "session list".into(),
        Request::Assert(text) => format!("assert {text}"),
        Request::Retract(text) => format!("retract {text}"),
        Request::Implies(text) => format!("implies {text}"),
        Request::Batch(goals) => format!("batch {}", goals.join(" ; ")),
        Request::Witness(text) => format!("witness {text}"),
        Request::Derive(text) => format!("derive {text}"),
        Request::Explain(text) => format!("explain {text}"),
        Request::Analyze { apply: false } => "analyze".into(),
        Request::Analyze { apply: true } => "analyze apply".into(),
        Request::Trace(true) => "trace on".into(),
        Request::Trace(false) => "trace off".into(),
        Request::Known(set, value) => format!("known {set} = {value}"),
        Request::Forget(set) => format!("forget {set}"),
        Request::Bound(set) => format!("bound {set}"),
        Request::Load(records) => format!("load {}", records.join(" ; ")),
        Request::Mine(None) => "mine".into(),
        Request::Mine(Some((lhs, rhs))) => format!("mine {lhs} {rhs}"),
        Request::Adopt(None) => "adopt".into(),
        Request::Adopt(Some((lhs, rhs))) => format!("adopt {lhs} {rhs}"),
        Request::Dataset => "dataset".into(),
        Request::Premises => "premises".into(),
        Request::Knowns => "knowns".into(),
        Request::Stats => "stats".into(),
        Request::StatsRecent => "stats recent".into(),
        Request::DebugRecent(None) => "debug recent".into(),
        Request::DebugRecent(Some(n)) => format!("debug recent {n}"),
        Request::DebugTrace(id) => format!("debug trace {id}"),
        Request::DebugProfile(ProfileAction::Start) => "debug profile start".into(),
        Request::DebugProfile(ProfileAction::Stop) => "debug profile stop".into(),
        Request::DebugProfile(ProfileAction::Dump) => "debug profile dump".into(),
        Request::Reset => "reset".into(),
        Request::Help => "help".into(),
        Request::Quit => "quit".into(),
        Request::Empty => String::new(),
    }
}

/// Formats a constraint in the compact, re-parseable wire form `A->{B,CD}`.
/// See [`write_wire`].
pub fn format_wire(constraint: &DiffConstraint, universe: &Universe) -> String {
    let mut out = String::new();
    write_wire(&mut out, constraint, universe);
    out
}

/// Appends a constraint in the wire form of [`format_wire`] to `out`.
pub fn write_wire(out: &mut String, constraint: &DiffConstraint, universe: &Universe) {
    universe.write_set(out, constraint.lhs);
    out.push_str("->{");
    for (i, member) in constraint.rhs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        universe.write_set(out, member);
    }
    out.push('}');
}

/// The miner budgets for a `mine`/`adopt` request (the crate default when
/// the request names none).
fn miner_config(budgets: Option<(usize, usize)>) -> MinerConfig {
    match budgets {
        Some((max_lhs, max_rhs)) => MinerConfig { max_lhs, max_rhs },
        None => MinerConfig::default(),
    }
}

/// One response line plus the should-terminate flag: what
/// [`Server::handle_line`] hands in-process callers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reply {
    /// The response line (empty for [`Request::Empty`]).
    pub text: String,
    /// `true` after a `quit`.
    pub quit: bool,
}

/// What [`Server::respond`] reports besides the reply text it appended.
#[derive(Debug)]
pub struct Answer {
    /// `true` after a `quit`: the conversation ends.
    pub quit: bool,
    /// The request's flight record, returned by value: the transport fills
    /// in its frame, reply, and byte fields once the reply is written and
    /// passes it to [`Server::stage`] or [`Server::commit`].
    pub record: FlightRecord,
    /// The clock reading that closed the request's `plan` stage; the
    /// transport's `reply` stage starts from it.
    pub done: Instant,
}

/// The reply of every verb that needs an open session when none is.
const NO_SESSION: &str = "err no session (send `universe` first)";

/// Appends an `err <message>` reply.
fn write_err(out: &mut String, message: impl std::fmt::Display) {
    _ = write!(out, "err {message}");
}

/// Appends `n` in decimal, without the formatting machinery: the numbers
/// of the hot replies.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends the ` cached=… us=…` tail of an `implies` or `bound` reply.
fn push_cached_us(out: &mut String, cached: bool, elapsed: Duration) {
    out.push_str(if cached {
        " cached=1 us="
    } else {
        " cached=0 us="
    });
    push_u64(out, elapsed.as_micros() as u64);
}

/// Writes an `implies` outcome as its wire reply: constant pieces around
/// the route name and the one number.
fn write_implies(out: &mut String, outcome: &QueryOutcome) {
    out.push_str(if outcome.implied {
        "yes route="
    } else {
        "no route="
    });
    out.push_str(outcome.route_name());
    push_cached_us(out, outcome.cached, outcome.elapsed);
}

/// Writes an `explain` outcome as its wire reply.  The trailing `trace`
/// names the request's flight record.
fn write_explain(out: &mut String, outcome: &ExplainOutcome, trace: u64) {
    _ = write!(
        out,
        "explain verdict={} route={} cached={} epoch={} probe_us={} plan_us={} decide_us={} total_us={} trace={trace}",
        if outcome.outcome.implied { "yes" } else { "no" },
        outcome.outcome.route_name(),
        outcome.outcome.cached as u8,
        outcome.epoch,
        outcome.probe.as_micros(),
        outcome.plan.as_micros(),
        outcome.decide.as_micros(),
        outcome.total.as_micros(),
    );
}

/// Writes the windowed live stats (see [`EngineMetrics::recent`]) as the
/// `stats recent` wire reply.  Stage percentiles are in microseconds; `qps`
/// is requests over the window scaled to per-second.
fn write_stats_recent(out: &mut String) {
    let recent = EngineMetrics::global().recent();
    if !recent.baseline {
        // Cold start: no snapshot frame exists yet, so there is nothing to
        // difference against.  Say so explicitly — an all-zero rate line
        // would read as a stalled server.
        out.push_str("stats recent window_us=0 warming=1");
        return;
    }
    let window_us = recent.window.as_micros() as u64;
    let requests = recent.plan.count();
    let qps = (requests * 1_000_000).checked_div(window_us).unwrap_or(0);
    _ = write!(
        out,
        "stats recent window_us={window_us} queries={requests} replies={} qps={qps} \
         plan_p50us={} plan_p99us={} frame_p50us={} frame_p99us={} \
         reply_p50us={} reply_p99us={} bytes_read={} bytes_written={}",
        recent.replies,
        recent.plan.quantile(0.50) / 1_000,
        recent.plan.quantile(0.99) / 1_000,
        recent.frame.quantile(0.50) / 1_000,
        recent.frame.quantile(0.99) / 1_000,
        recent.reply.quantile(0.50) / 1_000,
        recent.reply.quantile(0.99) / 1_000,
        recent.bytes_read,
        recent.bytes_written
    );
}

/// Writes a `batch` outcome vector as its wire reply.
fn write_batch(out: &mut String, outcomes: &[QueryOutcome]) {
    _ = write!(out, "results n={}", outcomes.len());
    for outcome in outcomes {
        out.push_str(if outcome.implied { " y" } else { " n" });
    }
}

/// Writes a `bound` outcome (or its infeasibility) as its wire reply.
fn write_bound(out: &mut String, result: &Result<BoundOutcome, DeriveError>) {
    match result {
        Ok(outcome) => {
            out.push_str("bound lo=");
            Interval::write_endpoint(out, outcome.interval.lo);
            out.push_str(" hi=");
            Interval::write_endpoint(out, outcome.interval.hi);
            out.push_str(if outcome.interval.is_exact() {
                " exact=1 route="
            } else {
                " exact=0 route="
            });
            out.push_str(outcome.route_name());
            push_cached_us(out, outcome.cached, outcome.elapsed);
        }
        Err(e) => write_err(out, format_args!("infeasible: {e}")),
    }
}

/// Writes a `mine` outcome as its wire reply (the cover in wire form, or
/// the no-dataset error when the session holds none).
fn write_mined(out: &mut String, universe: &Universe, discovery: Option<Discovery>) {
    match discovery {
        Some(discovery) => {
            _ = write!(
                out,
                "mined minimal={} cover={}",
                discovery.minimal.len(),
                discovery.cover.len()
            );
            for c in &discovery.cover {
                out.push(' ');
                write_wire(out, c, universe);
            }
        }
        None => out.push_str("err no dataset (send `load` first)"),
    }
}

/// Writes an `analyze` outcome as its wire reply: the counts and the
/// feasibility verdict first (`infeasible=0`, `1`, or `unchecked` when a
/// check was skipped), then the machine-checkable evidence — each redundant
/// premise with the subfamily implying it, the minimal conflicting known set
/// when the state is infeasible, and example dead density variables.
fn write_analyze(out: &mut String, universe: &Universe, outcome: &AnalyzeOutcome) {
    let analysis = &outcome.analysis;
    let infeasible = match analysis.feasibility {
        Feasibility::Feasible => "0",
        Feasibility::Infeasible => "1",
        Feasibility::Unchecked => "unchecked",
    };
    _ = write!(
        out,
        "analyze premises={} redundant={} infeasible={} dead={} epoch={} us={}",
        analysis.premises,
        analysis.redundant.len(),
        infeasible,
        analysis.dead_vars,
        outcome.epoch,
        outcome.elapsed.as_micros()
    );
    for r in &analysis.redundant {
        _ = write!(out, " redundant[{}]=", r.index);
        write_wire(out, &r.premise, universe);
        out.push_str("<=[");
        for (i, w) in r.witness.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_wire(out, w, universe);
        }
        out.push(']');
    }
    if let Some(conflict) = &analysis.conflict {
        out.push_str(" conflict=");
        for (i, &(set, value)) in conflict.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            universe.write_set(out, set);
            out.push('=');
            Interval::write_endpoint(out, value);
        }
    }
    if !analysis.dead_examples.is_empty() {
        out.push_str(" dead_eg=");
        for (i, &set) in analysis.dead_examples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            universe.write_set(out, set);
        }
    }
}

/// Validates a bitmask against the session's universe: bits at or above
/// the attribute count name nothing and answer `err` (the binary framing's
/// analogue of an unknown attribute name).
fn checked_mask(universe: &Universe, mask: u64) -> Result<AttrSet, String> {
    let n = universe.len();
    if n < setlat::MAX_UNIVERSE && mask >> n != 0 {
        Err(format!(
            "attribute mask 0x{mask:x} has bits outside the {n}-attribute universe"
        ))
    } else {
        Ok(AttrSet::from_bits(mask))
    }
}

/// Fills `goal` with the constraint a fixed-width binary frame denotes.
/// The family is normalized by the same [`Family::refill`] the text parser
/// uses, so a mask frame and its textual spelling produce identical
/// constraints.
fn mask_goal(
    universe: &Universe,
    lhs: u64,
    rhs: binary::MaskList<'_>,
    goal: &mut DiffConstraint,
) -> Result<(), String> {
    goal.lhs = checked_mask(universe, lhs)?;
    for mask in rhs.iter() {
        checked_mask(universe, mask)?;
    }
    goal.rhs.refill(rhs.iter().map(AttrSet::from_bits));
    Ok(())
}

/// A constraint argument: a request line's text, or a mask frame's
/// bitmasks.
#[derive(Debug, Clone, Copy)]
enum GoalArg<'a> {
    Text(&'a str),
    Masks(u64, binary::MaskList<'a>),
}

/// A set argument: a request line's text, or a `02` frame's bitmask.
#[derive(Debug, Clone, Copy)]
enum SetArg<'a> {
    Text(&'a str),
    Mask(u64),
}

impl<'a> From<&'a str> for GoalArg<'a> {
    fn from(text: &'a str) -> Self {
        GoalArg::Text(text)
    }
}

impl<'a> From<&'a str> for SetArg<'a> {
    fn from(text: &'a str) -> Self {
        SetArg::Text(text)
    }
}

/// A request as [`Server::respond`] answers it: a parsed text line, or a
/// mask frame as the request its text spelling parses to.
type Served<'a> = Request<'a, GoalArg<'a>, SetArg<'a>>;

/// A request argument, resolved against the session's universe before the
/// request is answered.
trait Resolve {
    /// What the argument resolves to.
    type To;
    /// Resolves the argument; a goal is built in `goal`, reusing its
    /// storage.  The error is the `err` reply's message.
    fn resolve(self, universe: &Universe, goal: &mut DiffConstraint) -> Result<Self::To, String>;
}

impl Resolve for GoalArg<'_> {
    type To = ();
    fn resolve(self, universe: &Universe, goal: &mut DiffConstraint) -> Result<(), String> {
        match self {
            GoalArg::Text(text) => goal.parse_into(text, universe).map_err(|e| e.to_string()),
            GoalArg::Masks(lhs, rhs) => mask_goal(universe, lhs, rhs, goal),
        }
    }
}

impl Resolve for SetArg<'_> {
    type To = AttrSet;
    fn resolve(self, universe: &Universe, _: &mut DiffConstraint) -> Result<AttrSet, String> {
        match self {
            SetArg::Text(text) => universe.parse_set(text).map_err(|e| e.to_string()),
            SetArg::Mask(mask) => checked_mask(universe, mask),
        }
    }
}

/// `batch`'s goals, each parsed on its own.
impl Resolve for Vec<&str> {
    type To = Vec<DiffConstraint>;
    fn resolve(self, universe: &Universe, _: &mut DiffConstraint) -> Result<Self::To, String> {
        self.iter()
            .map(|text| {
                DiffConstraint::parse(text, universe).map_err(|e| format!("in `{text}`: {e}"))
            })
            .collect()
    }
}

/// `mine`'s and `adopt`'s budgets, refused past the discovery wedge
/// thresholds: mining past the measured limits would wedge the serving
/// thread for unbounded time, so such requests are refused up front.
impl Resolve for MinerConfig {
    type To = MinerConfig;
    fn resolve(self, universe: &Universe, _: &mut DiffConstraint) -> Result<Self, String> {
        let universe_len = universe.len();
        if universe_len > MAX_MINE_UNIVERSE {
            return Err(format!(
                "mining is limited to universes of at most {MAX_MINE_UNIVERSE} attributes"
            ));
        }
        if self.max_rhs.saturating_mul(universe_len) > MAX_MINE_RHS_WORK {
            return Err(format!(
                "mine budget too large: max |𝒴| × universe size must be at most \
                 {MAX_MINE_RHS_WORK}, got {} × {universe_len}",
                self.max_rhs
            ));
        }
        Ok(self)
    }
}

/// No argument (`analyze`).
impl Resolve for () {
    type To = ();
    fn resolve(self, _: &Universe, _: &mut DiffConstraint) -> Result<(), String> {
        Ok(())
    }
}

/// Names in `record` where the planner routed an answer, whether a cache
/// answered it, and the decision time.
fn routed(record: &mut FlightRecord, route: &'static str, cached: bool, decide: Duration) {
    record.route = Some(route);
    record.cached = cached;
    record.decide_ns = decide.as_nanos() as u64;
}

/// A multi-session `diffcond` server: feed it requests, it appends the
/// replies.  IO-free, so tests drive it directly.
///
/// The server holds a [`SessionRegistry`] of numbered slots; the `session`
/// verbs manage them and every other verb targets the current slot.
/// [`Server::respond`] answers one request — a text line or a binary frame
/// — at its position in the request stream, through one match with an arm
/// per verb, which writes the reply into a caller-owned buffer and fills in
/// the request's flight record where it produces the answer.  The
/// connection driver ([`crate::connection::Connection`]), behind stdin and
/// every network connection, calls it, then hands the record to
/// [`Server::stage`], and publishes the staged records once per read burst.
/// [`Server::handle_line`] wraps [`Server::respond`] and [`Server::commit`]
/// for callers that want an owned [`Reply`].
#[derive(Debug)]
pub struct Server {
    config: SessionConfig,
    registry: SessionRegistry,
    /// `trace on` state: query replies gain an ` epoch=N` suffix.
    trace: bool,
    /// This server's process-unique connection id, the upper half of every
    /// trace id it mints (so traces stay unique across connections).
    origin: u64,
    /// Count of trace ids minted; the lower half of the next trace id.
    trace_seq: u64,
    /// The goal of the request being answered, parsed (or built from masks)
    /// in place so a warm query reuses its member storage; a cache miss
    /// clones it into the caches.
    goal: DiffConstraint,
    /// Reply buffer behind [`Server::handle_line`], reused across calls.
    scratch: String,
    /// Queries whose `plan` stage takes at least this many microseconds are
    /// logged to stderr (`None` disables the log).
    slow_query_us: Option<u64>,
    /// Rate limiter for the slow-query stderr lines.
    slow_log: SlowLogLimiter,
    /// The last request's description, when it is to be logged as slow
    /// with its record once the transport stages that.
    slow_request: Option<String>,
    /// This connection's cost series, registered under `origin`.
    costs: Arc<ConnCosts>,
    /// Records staged for the next [`Server::publish`].
    staged: RecordBatch,
}

impl Server {
    /// Creates a server; sessions it opens use `config`.
    pub fn new(config: SessionConfig) -> Self {
        let origin = next_connection_id();
        Server {
            config,
            registry: SessionRegistry::new(),
            trace: false,
            origin,
            trace_seq: 0,
            goal: DiffConstraint::new(AttrSet::EMPTY, Family::empty()),
            scratch: String::new(),
            slow_query_us: None,
            slow_log: SlowLogLimiter::new(),
            slow_request: None,
            costs: EngineMetrics::global().register_connection(origin),
            staged: RecordBatch::new(),
        }
    }

    /// Sets the slow-query threshold: requests whose `plan` stage (parse,
    /// decide, and format) takes at least `threshold` microseconds are
    /// logged to stderr with their request and flight record, and counted
    /// in [`EngineMetrics::slow_queries`].  `None` disables the log.
    pub fn set_slow_query_us(&mut self, threshold: Option<u64>) {
        self.slow_query_us = threshold;
    }

    /// The process-unique id of the connection this server instance serves
    /// (in-process drivers count as connections too).
    pub fn connection_id(&self) -> u64 {
        self.origin
    }

    /// Opens a request's record under the next trace id: connection id in
    /// the upper 32 bits, a per-connection sequence number in the lower —
    /// unique across the process, monotone within a connection.
    fn open_record(&mut self) -> FlightRecord {
        self.trace_seq += 1;
        FlightRecord {
            trace: (self.origin << 32) | self.trace_seq,
            conn: self.origin,
            ..FlightRecord::default()
        }
    }

    /// The current slot's session, if a `universe` request has opened one.
    pub fn session(&self) -> Option<&Session> {
        self.registry.session()
    }

    /// The session registry (slot ids, current slot).
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Handles one request line and returns its reply as an owned
    /// [`Reply`], committing the request's record as if the line and its
    /// reply had crossed a newline-framed wire.
    pub fn handle_line(&mut self, line: &str) -> Reply {
        let mut text = std::mem::take(&mut self.scratch);
        text.clear();
        let mut answer = self.respond(
            &binary::BinRequest::Line(line.as_bytes()),
            Instant::now(),
            &mut text,
        );
        answer.record.bytes_in = line.len() as u64 + 1;
        answer.record.bytes_out = if text.is_empty() {
            0
        } else {
            text.len() as u64 + 1
        };
        self.commit(&answer.record);
        let reply = Reply {
            text: text.clone(),
            quit: answer.quit,
        };
        self.scratch = text;
        reply
    }

    /// Answers one request at its position in the request stream and
    /// appends the reply text (no terminator; nothing for a silent request)
    /// to `out`.  Text lines arrive as [`binary::BinRequest::Line`] frames,
    /// UTF-8 not yet validated; a fixed-width mask frame skips the text
    /// parser and is answered in the arm of its textual spelling.
    ///
    /// `start` is the clock reading that opened the request's `plan` stage
    /// (for a transport, the one that closed its `frame` stage).  The
    /// returned [`Answer::done`] closes it.  Every request returns its
    /// record; the caller fills in the frame, reply, and byte fields and
    /// passes it to [`Server::stage`] or [`Server::commit`].
    pub fn respond(
        &mut self,
        frame: &binary::BinRequest<'_>,
        start: Instant,
        out: &mut String,
    ) -> Answer {
        use binary::BinRequest;
        let serve_stage = profile::stage(&STAGE_SERVE);
        let mut record = self.open_record();
        let (line, request) = match *frame {
            BinRequest::Line(bytes) => match decode_request(bytes) {
                Ok(line) => (
                    Some(line),
                    parse_args(line).inspect_err(|_| EngineMetrics::global().parse_errors.inc()),
                ),
                Err(message) => {
                    EngineMetrics::global().framing_errors.inc();
                    (None, Err(message))
                }
            },
            BinRequest::Implies { lhs, rhs } => {
                (None, Ok(Request::Implies(GoalArg::Masks(lhs, rhs))))
            }
            BinRequest::Bound { set } => (None, Ok(Request::Bound(SetArg::Mask(set)))),
            BinRequest::Assert { lhs, rhs } => {
                (None, Ok(Request::Assert(GoalArg::Masks(lhs, rhs))))
            }
        };
        let quit = match request {
            Ok(request) => {
                if request.reads_staged_telemetry() {
                    self.publish();
                }
                self.dispatch(request, &mut record, out)
            }
            Err(message) => {
                write_err(out, message);
                false
            }
        };
        // A text request whose arm named no verb, a parse error's included,
        // names its first word if that is a verb (`exit` is not).
        if record.verb.is_none() {
            let word = line.and_then(|line| line.split_whitespace().next());
            record.verb = VERBS.iter().position(|verb| Some(verb.name) == word);
        }
        drop(serve_stage);
        let answer = self.finish(quit, record, start);
        self.note_if_slow(&answer.record, frame);
        answer
    }

    /// Answers one request in the arm of its verb and returns `true` after
    /// `quit`.  The read verbs answer through [`Server::read`], which fills
    /// in the record's verb, route, cache outcome and decision time where
    /// the answer is produced; `assert`, which a mask frame also reaches,
    /// names its verb; any other request names its first word's (see
    /// [`Server::respond`]).
    fn dispatch(
        &mut self,
        request: Served<'_>,
        record: &mut FlightRecord,
        out: &mut String,
    ) -> bool {
        match request {
            Request::Implies(goal) => self.read(
                const { verb_index("implies") },
                goal,
                record,
                out,
                |session, goal, (), record, out| {
                    let outcome = session.implies(goal);
                    write_implies(out, &outcome);
                    routed(
                        record,
                        outcome.route_name(),
                        outcome.cached,
                        outcome.elapsed,
                    );
                },
            ),
            Request::Batch(goals) => self.read(
                const { verb_index("batch") },
                goals,
                record,
                out,
                |session, _, goals, record, out| {
                    let outcomes = session.implies_batch(&goals);
                    write_batch(out, &outcomes);
                    record.decide_ns = outcomes.iter().map(|o| o.elapsed.as_nanos() as u64).sum();
                },
            ),
            Request::Bound(set) => self.read(
                const { verb_index("bound") },
                set,
                record,
                out,
                |session, _, set, record, out| {
                    let outcome = session.bound(set);
                    write_bound(out, &outcome);
                    if let Ok(b) = outcome {
                        routed(record, b.route_name(), b.cached, b.elapsed);
                    }
                },
            ),
            Request::Witness(goal) => self.read(
                const { verb_index("witness") },
                goal,
                record,
                out,
                |session, goal, (), _, out| match session.refutation_witness(goal) {
                    None => out.push_str("witness none"),
                    Some(set) => {
                        out.push_str("witness set=");
                        session.universe().write_set(out, set);
                    }
                },
            ),
            Request::Derive(goal) => self.read(
                const { verb_index("derive") },
                goal,
                record,
                out,
                |session, goal, (), _, out| match session.derive(goal) {
                    Some(proof) => {
                        _ = write!(out, "proof size={} depth={}", proof.size(), proof.depth())
                    }
                    None => out.push_str("unprovable"),
                },
            ),
            Request::Explain(goal) => {
                let trace = record.trace;
                self.read(
                    const { verb_index("explain") },
                    goal,
                    record,
                    out,
                    |session, goal, (), record, out| {
                        let explained = session.explain(goal);
                        write_explain(out, &explained, trace);
                        let outcome = explained.outcome;
                        routed(
                            record,
                            outcome.route_name(),
                            outcome.cached,
                            explained.decide,
                        );
                    },
                )
            }
            Request::Mine(budgets) => self.read(
                const { verb_index("mine") },
                miner_config(budgets),
                record,
                out,
                |session, _, config, _, out| {
                    write_mined(out, session.universe(), session.mine_dataset(&config))
                },
            ),
            Request::Analyze { apply: false } => self.read(
                const { verb_index("analyze") },
                (),
                record,
                out,
                |session, _, (), record, out| {
                    let outcome = session.analyze();
                    write_analyze(out, session.universe(), &outcome);
                    record.decide_ns = outcome.elapsed.as_nanos() as u64;
                },
            ),
            Request::Analyze { apply: true } => {
                self.with_session(out, |session, out| match session.apply_core() {
                    Ok(applied) => {
                        EngineMetrics::global().analyze_applies.inc();
                        _ = write!(
                            out,
                            "ok analyze applied premises={} core={} dropped={}",
                            applied.before, applied.after, applied.dropped
                        );
                    }
                    Err(e) => write_err(out, e),
                })
            }
            Request::Empty => {}
            Request::Quit => {
                out.push_str("bye");
                return true;
            }
            Request::Help => out.push_str(&help_reply()),
            Request::Trace(enabled) => {
                self.trace = enabled;
                _ = write!(out, "ok trace={}", enabled as u8);
            }
            Request::SessionNew => {
                let id = self.registry.open();
                _ = write!(out, "ok session id={id} sessions={}", self.registry.len());
            }
            Request::SessionUse(id) => {
                if self.registry.switch(id) {
                    _ = write!(out, "ok session id={id}");
                } else {
                    write_err(out, format_args!("no session slot with id {id}"));
                }
            }
            Request::SessionClose(id) => {
                let target = id.unwrap_or_else(|| self.registry.current_id());
                if self.registry.close(target) {
                    _ = write!(
                        out,
                        "ok session closed={target} sessions={} current={}",
                        self.registry.len(),
                        self.registry.current_id()
                    );
                } else {
                    write_err(out, format_args!("no session slot with id {target}"));
                }
            }
            Request::SessionList => {
                _ = write!(
                    out,
                    "sessions n={} current={}",
                    self.registry.len(),
                    self.registry.current_id()
                );
                for (id, session) in self.registry.iter() {
                    match session {
                        Some(s) => {
                            _ = write!(
                                out,
                                " {id}:u{}p{}q{}",
                                s.universe().len(),
                                s.premises().len(),
                                s.costs().queries.get()
                            )
                        }
                        None => _ = write!(out, " {id}:-"),
                    }
                }
            }
            Request::Universe(spec) => {
                let universe = match spec {
                    UniverseSpec::Size(n) => {
                        if n == 0 || n > setlat::MAX_UNIVERSE {
                            write_err(
                                out,
                                format_args!(
                                    "universe size must be in 1..={}",
                                    setlat::MAX_UNIVERSE
                                ),
                            );
                            return false;
                        }
                        Universe::of_size(n)
                    }
                    UniverseSpec::Names(names) => {
                        // The constraint text syntax addresses attributes by
                        // single characters ("ACD" = {A, C, D}), so longer
                        // names would be unreachable from the wire.
                        if let Some(bad) = names.iter().find(|n| n.chars().count() != 1) {
                            write_err(
                                out,
                                format_args!(
                                    "attribute names must be single characters, got `{bad}`"
                                ),
                            );
                            return false;
                        }
                        match Universe::from_names(names) {
                            Ok(u) => u,
                            Err(e) => {
                                write_err(out, e);
                                return false;
                            }
                        }
                    }
                };
                _ = write!(
                    out,
                    "ok universe n={} attrs={}",
                    universe.len(),
                    universe.names().join(",")
                );
                self.registry
                    .install(Session::with_config(universe, self.config));
                self.register_current_session();
            }
            Request::Reset => match self.registry.session() {
                Some(old) => {
                    let universe = old.universe().clone();
                    self.registry
                        .install(Session::with_config(universe, self.config));
                    self.register_current_session();
                    out.push_str("ok reset");
                }
                None => out.push_str(NO_SESSION),
            },
            Request::Premises => self.with_session(out, |session, out| {
                let universe = session.universe();
                _ = write!(out, "premises n={}", session.premises().len());
                for p in session.premises() {
                    out.push(' ');
                    write_wire(out, p, universe);
                }
            }),
            Request::Knowns => self.with_session(out, |session, out| {
                let universe = session.universe();
                _ = write!(out, "knowns n={}", session.knowns().len());
                for &(set, value) in session.knowns() {
                    out.push(' ');
                    universe.write_set(out, set);
                    out.push('=');
                    Interval::write_endpoint(out, value);
                }
            }),
            Request::Known(set, value) => self.with_arg(set, out, |session, _, set, out| {
                let added = session.set_known(set, value);
                out.push_str("ok known set=");
                session.universe().write_set(out, set);
                out.push_str(" value=");
                Interval::write_endpoint(out, value);
                _ = write!(
                    out,
                    " added={} knowns={}",
                    added as u8,
                    session.knowns().len()
                );
            }),
            Request::Forget(set) => self.with_arg(set, out, |session, _, set, out| {
                if session.forget_known(set) {
                    _ = write!(out, "ok forget knowns={}", session.knowns().len());
                } else {
                    write_err(out, "set has no known value");
                }
            }),
            Request::Load(records) => self.with_session(out, |session, out| {
                match session.load_records(records.iter().copied()) {
                    Ok(added) => {
                        _ = write!(
                            out,
                            "ok load added={} baskets={}",
                            added,
                            session.dataset().map_or(0, |ds| ds.len())
                        )
                    }
                    Err(e) => write_err(out, e),
                }
            }),
            Request::Dataset => self.with_session(out, |session, out| match session.dataset() {
                Some(ds) => {
                    _ = write!(
                        out,
                        "dataset baskets={} items={} occurring=",
                        ds.len(),
                        ds.universe().len(),
                    );
                    ds.universe().write_set(out, ds.occurring_items());
                }
                None => out.push_str("err no dataset (send `load` first)"),
            }),
            Request::Adopt(budgets) => self.with_arg(
                miner_config(budgets),
                out,
                |session, _, config, out| match session.adopt_discovered(&config) {
                    Some(outcome) => {
                        _ = write!(
                            out,
                            "ok adopt minimal={} cover={} added={} premises={}",
                            outcome.discovery.minimal.len(),
                            outcome.discovery.cover.len(),
                            outcome.newly_asserted,
                            session.premises().len()
                        )
                    }
                    None => out.push_str("err no dataset (send `load` first)"),
                },
            ),
            Request::Stats => self.with_session(out, |session, out| write_stats(out, session)),
            Request::StatsRecent => write_stats_recent(out),
            Request::DebugRecent(n) => {
                let metrics = EngineMetrics::global();
                let records = metrics.flight_records(n.unwrap_or(10));
                _ = write!(
                    out,
                    "flight n={} written={}",
                    records.len(),
                    metrics.flight_written()
                );
                for (i, record) in records.iter().enumerate() {
                    out.push_str(if i == 0 { " " } else { " | " });
                    out.push_str(&record.render());
                }
            }
            Request::DebugTrace(id) => {
                let found = EngineMetrics::global()
                    .flight_records(usize::MAX)
                    .into_iter()
                    .find(|record| record.trace == id);
                match found {
                    Some(record) => _ = write!(out, "flight n=1 {}", record.render()),
                    None => write_err(out, format_args!("no flight record for trace {id}")),
                }
            }
            Request::DebugProfile(action) => match action {
                ProfileAction::Start => {
                    let hz = profile::sampler_start(0);
                    _ = write!(out, "ok profile running=1 hz={hz}");
                }
                ProfileAction::Stop => {
                    profile::sampler_stop();
                    _ = write!(
                        out,
                        "ok profile running=0 samples={}",
                        profile::samples_total()
                    );
                }
                ProfileAction::Dump => {
                    let stacks = profile::top_stacks(usize::MAX);
                    _ = write!(
                        out,
                        "profile samples={} stacks={}",
                        profile::samples_total(),
                        stacks.len()
                    );
                    for (i, (stack, count)) in stacks.iter().enumerate() {
                        out.push_str(if i == 0 { " " } else { " | " });
                        _ = write!(out, "{stack} {count}");
                    }
                }
            },
            Request::Assert(goal) => {
                record.verb = Some(const { verb_index("assert") });
                self.with_arg(goal, out, |session, goal, (), out| {
                    let (id, added) = session.assert_constraint(goal);
                    _ = write!(
                        out,
                        "ok assert id={} added={} premises={}",
                        id.index(),
                        added as u8,
                        session.premises().len()
                    );
                })
            }
            Request::Retract(goal) => self.with_arg(goal, out, |session, goal, (), out| {
                if session.retract_constraint(goal) {
                    _ = write!(out, "ok retract premises={}", session.premises().len());
                } else {
                    write_err(out, "constraint is not an asserted premise");
                }
            }),
        }
        false
    }

    /// Answers a read verb against the current slot's session state,
    /// in the same steps for every read verb: the no-session reply; `arg`
    /// resolved (a goal into the scratch goal), or its `err`; `answer`'s
    /// reply and record fields; and under `trace on` the ` epoch=N`
    /// suffix, which `explain` and `analyze` replies carry already.  The
    /// record names `verb`, and an answer the planner does not route is
    /// routed as its verb.
    fn read<A: Resolve>(
        &mut self,
        verb: usize,
        arg: A,
        record: &mut FlightRecord,
        out: &mut String,
        answer: impl FnOnce(&Session, &DiffConstraint, A::To, &mut FlightRecord, &mut String),
    ) {
        record.verb = Some(verb);
        let Some(session) = self.registry.session() else {
            return out.push_str(NO_SESSION);
        };
        match arg.resolve(session.universe(), &mut self.goal) {
            Ok(resolved) => {
                record.route = Some(VERBS[verb].name);
                answer(session, &self.goal, resolved, record, out);
                let names_epoch = [
                    const { verb_index("explain") },
                    const { verb_index("analyze") },
                ];
                if self.trace && !names_epoch.contains(&verb) {
                    out.push_str(" epoch=");
                    push_u64(out, session.epoch());
                }
            }
            Err(message) => write_err(out, message),
        }
    }

    /// Answers a framing violation the transport caught before a request
    /// could be decoded (an oversized line, a corrupt binary header) with
    /// one `err` reply at its position in the request order, and returns
    /// its record as [`Server::respond`] does.
    pub(crate) fn refuse(&mut self, message: &str, start: Instant, out: &mut String) -> Answer {
        EngineMetrics::global().framing_errors.inc();
        write_err(out, message);
        let record = self.open_record();
        self.finish(false, record, start)
    }

    /// Closes the request's `plan` stage and completes its record, leaving
    /// the transport's fields zero.
    fn finish(&self, quit: bool, mut record: FlightRecord, start: Instant) -> Answer {
        let done = Instant::now();
        record.slot = self.registry.current_id();
        record.plan_ns = done.saturating_duration_since(start).as_nanos() as u64;
        record.epoch = self.registry.session().map_or(0, |session| session.epoch());
        Answer { quit, record, done }
    }

    /// Commits a request's record once the caller has filled in its frame,
    /// reply, and byte fields: [`Server::stage`], then [`Server::publish`],
    /// so the record and every one staged before it are committed when
    /// this returns.
    pub fn commit(&mut self, record: &FlightRecord) {
        self.stage(record);
        self.publish();
    }

    /// Stages a request's record, its frame, reply, and byte fields filled
    /// in, for the next [`Server::publish`]: the connection driver's
    /// commit, which publishes once per read burst.  A full batch (32
    /// records) publishes itself, and so does every request whose reply
    /// reads the staged telemetry or that changes the current session
    /// (`stats`, `session`, `universe`, `reset`, `debug recent` and `debug
    /// trace`), before it is answered.  A request noted as slow is logged
    /// here, with the record as staged.
    pub fn stage(&mut self, record: &FlightRecord) {
        if let Some(request) = self.slow_request.take() {
            eprintln!(
                "diffcond: slow query us={} request=`{request}` {}",
                record.plan_ns / 1_000,
                record.render()
            );
        }
        if self.staged.push(record) {
            self.publish();
        }
    }

    /// Publishes the staged records: the one per-request telemetry write,
    /// which fills the flight ring and the stage, reply, and byte series
    /// and charges this connection's series and, for the answered queries,
    /// the current session's ledger (every staged record was answered by
    /// the current session, since a session change publishes first).
    pub fn publish(&mut self) {
        let records = self.staged.take();
        if records.is_empty() {
            return;
        }
        let session = self.registry.session().map(|s| &**s.costs());
        EngineMetrics::global().publish(records, &self.costs, session);
    }

    /// Bills bytes that crossed this connection's wire outside any request
    /// (a binary handshake no reply carried) to the process and connection
    /// byte series, without a record.
    pub(crate) fn bill(&self, bytes_in: u64, bytes_out: u64) {
        EngineMetrics::global().bill(&self.costs, bytes_in, bytes_out);
    }

    /// Notes a request whose `plan` stage reached the slow-query threshold:
    /// it is counted now, and described for [`Server::stage`] to log
    /// unless the log's rate limit drops it.
    fn note_if_slow(&mut self, record: &FlightRecord, frame: &binary::BinRequest<'_>) {
        let Some(threshold) = self.slow_query_us else {
            return;
        };
        self.slow_request = None;
        if record.plan_ns / 1_000 < threshold {
            return;
        }
        let metrics = EngineMetrics::global();
        metrics.slow_queries.inc();
        if self.slow_log.allow() {
            self.slow_request = Some(self.describe(frame));
        } else {
            metrics.slow_log_dropped.inc();
        }
    }

    /// The request the slow-query log names: a text line as received, a
    /// mask frame in its textual spelling, written from its own masks (in
    /// hexadecimal where a mask has bits outside the universe).
    fn describe(&self, frame: &binary::BinRequest<'_>) -> String {
        use binary::BinRequest;
        let universe = self.registry.session().map(|session| session.universe());
        let set = |mask: u64| match universe {
            Some(u) if checked_mask(u, mask).is_ok() => u.format_set(AttrSet::from_bits(mask)),
            _ => format!("0x{mask:x}"),
        };
        let goal = |lhs: u64, rhs: binary::MaskList<'_>| {
            let members: Vec<String> = rhs.iter().map(set).collect();
            format!("{}->{{{}}}", set(lhs), members.join(","))
        };
        match *frame {
            BinRequest::Line(bytes) => String::from_utf8_lossy(bytes).trim().to_string(),
            BinRequest::Implies { lhs, rhs } => format!("implies {}", goal(lhs, rhs)),
            BinRequest::Bound { set: mask } => format!("bound {}", set(mask)),
            BinRequest::Assert { lhs, rhs } => format!("assert {}", goal(lhs, rhs)),
        }
    }

    /// Registers the just-installed current session's cost counters with the
    /// global metrics registry, keyed by (connection, slot), so `stats`,
    /// `session list`, and the Prometheus endpoint can attribute cost to it.
    fn register_current_session(&self) {
        if let Some(session) = self.registry.session() {
            EngineMetrics::global().register_session(
                self.origin,
                self.registry.current_id(),
                Arc::clone(session.costs()),
            );
        }
    }

    fn with_session(&mut self, out: &mut String, f: impl FnOnce(&mut Session, &mut String)) {
        match self.registry.session_mut() {
            Some(session) => f(session, out),
            None => out.push_str(NO_SESSION),
        }
    }

    /// Resolves `arg` against the current session (a goal into the scratch
    /// goal) and hands both to `f`.
    fn with_arg<A: Resolve>(
        &mut self,
        arg: A,
        out: &mut String,
        f: impl FnOnce(&mut Session, &DiffConstraint, A::To, &mut String),
    ) {
        let Some(session) = self.registry.session_mut() else {
            return out.push_str(NO_SESSION);
        };
        match arg.resolve(session.universe(), &mut self.goal) {
            Ok(resolved) => f(session, &self.goal, resolved, out),
            Err(message) => write_err(out, message),
        }
    }
}

impl Drop for Server {
    /// Publishes the records still staged.
    fn drop(&mut self) {
        self.publish();
    }
}

/// Writes the `stats` reply of `session`.
fn write_stats(out: &mut String, session: &Session) {
    let stats = session.stats();
    _ = write!(
        out,
        "stats queries={} trivial={}",
        stats.planner.total_queries(),
        stats.planner.trivial
    );
    for kind in ALL_PROCEDURES {
        let p = stats.planner.of(kind);
        // Only procedures that served traffic.
        if p.decided == 0 && p.cache_hits == 0 {
            continue;
        }
        _ = write!(
            out,
            " {}={}/{}c/{}us",
            kind.name(),
            p.decided,
            p.cache_hits,
            p.total_time.as_micros()
        );
    }
    let bounds = stats.planner.bounds;
    if bounds.total() > 0 {
        _ = write!(
            out,
            " bound={}p/{}r/{}c/{}us",
            bounds.propagation,
            bounds.relaxed,
            bounds.cache_hits,
            bounds.total_time.as_micros()
        );
    }
    _ = write!(
        out,
        " answer_cache=h{}/m{}/e{}/c{} bound_cache=h{}/m{}/e{}/c{} premises={} interned={}",
        stats.answer_cache.hits,
        stats.answer_cache.misses,
        stats.answer_cache.evictions,
        stats.answer_cache.collisions,
        stats.bound_cache.hits,
        stats.bound_cache.misses,
        stats.bound_cache.evictions,
        stats.bound_cache.collisions,
        stats.premises,
        stats.interned,
    );
    if stats.knowns > 0 {
        _ = write!(out, " knowns={}", stats.knowns);
    }
    if stats.dataset_baskets > 0 {
        _ = write!(out, " dataset_baskets={}", stats.dataset_baskets);
    }
    if stats.interner_compactions > 0 {
        _ = write!(out, " compactions={}", stats.interner_compactions);
    }
    let dropped = EngineMetrics::global().slow_log_dropped.get();
    if dropped > 0 {
        _ = write!(out, " slow_log_dropped={dropped}");
    }
    _ = write!(out, " epoch={}", stats.epoch);
    for (slot, kind) in ALL_PROCEDURES.iter().enumerate() {
        if stats.planner.of(*kind).decided == 0 {
            continue;
        }
        let (p50, p99) = stats.route_latency_us[slot];
        _ = write!(
            out,
            " {name}_p50us={p50} {name}_p99us={p99}",
            name = kind.name()
        );
    }
    _ = write!(
        out,
        " decide_us={}",
        session.costs().decide_ns.get() / 1_000
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(SessionConfig::default())
    }

    #[test]
    fn full_conversation() {
        let mut s = server();
        assert_eq!(
            s.handle_line("universe 4").text,
            "ok universe n=4 attrs=A,B,C,D"
        );
        assert_eq!(
            s.handle_line("assert A -> {B}").text,
            "ok assert id=0 added=1 premises=1"
        );
        assert_eq!(
            s.handle_line("assert B -> {C}").text,
            "ok assert id=1 added=1 premises=2"
        );
        let reply = s.handle_line("implies A -> {C}");
        assert!(reply.text.starts_with("yes route="), "got: {}", reply.text);
        let reply = s.handle_line("implies C -> {A}");
        assert!(reply.text.starts_with("no route="), "got: {}", reply.text);
        // Second ask is served from the cache.
        let reply = s.handle_line("implies A -> {C}");
        assert!(reply.text.contains("cached=1"), "got: {}", reply.text);
        assert_eq!(s.handle_line("witness A -> {C}").text, "witness none");
        assert!(s
            .handle_line("witness C -> {A}")
            .text
            .starts_with("witness set="));
        assert!(s
            .handle_line("derive A -> {C}")
            .text
            .starts_with("proof size="));
        assert_eq!(s.handle_line("derive C -> {A}").text, "unprovable");
        assert_eq!(
            s.handle_line("batch A -> {C}; C -> {A}; AB -> {B}").text,
            "results n=3 y n y"
        );
        assert_eq!(s.handle_line("premises").text, "premises n=2 A->{B} B->{C}");
        let stats = s.handle_line("stats").text;
        assert!(stats.starts_with("stats queries="), "got: {stats}");
        assert!(stats.contains("premises=2"), "got: {stats}");
        assert_eq!(
            s.handle_line("retract B -> {C}").text,
            "ok retract premises=1"
        );
        let reply = s.handle_line("implies A -> {C}");
        assert!(reply.text.starts_with("no"), "got: {}", reply.text);
        assert_eq!(s.handle_line("reset").text, "ok reset");
        assert_eq!(s.handle_line("premises").text, "premises n=0");
        let bye = s.handle_line("quit");
        assert_eq!(bye.text, "bye");
        assert!(bye.quit);
    }

    #[test]
    fn named_universes() {
        let mut s = server();
        assert_eq!(
            s.handle_line("universe P Q R").text,
            "ok universe n=3 attrs=P,Q,R"
        );
        assert_eq!(
            s.handle_line("assert P -> {Q}").text,
            "ok assert id=0 added=1 premises=1"
        );
        assert!(s.handle_line("implies P -> {Q}").text.starts_with("yes"));
        // Multi-character names are unreachable from the constraint syntax,
        // so the server rejects them up front.
        assert!(s
            .handle_line("universe Lo Hi Vol")
            .text
            .starts_with("err attribute names"));
        // `∅` spells the empty set, so it cannot name an attribute.
        let reply = s.handle_line("universe ∅ A").text;
        assert_eq!(reply, "err \"∅\" names the empty set, not an attribute");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = server();
        assert!(s
            .handle_line("implies A -> {B}")
            .text
            .starts_with("err no session"));
        s.handle_line("universe 3");
        assert!(s.handle_line("implies A -> {Z}").text.starts_with("err"));
        assert!(s
            .handle_line("frobnicate")
            .text
            .starts_with("err unknown command"));
        assert!(s.handle_line("assert").text.starts_with("err"));
        assert!(s.handle_line("universe 0").text.starts_with("err"));
        assert!(s.handle_line("batch ;;").text.starts_with("err"));
        assert!(s.handle_line("retract A -> {B}").text.starts_with("err"));
        // The session survives all of the above.
        assert!(s.handle_line("implies AB -> {B}").text.starts_with("yes"));
    }

    #[test]
    fn trailing_garbage_is_rejected_with_token_and_column() {
        let mut s = server();
        s.handle_line("universe 3");
        for (line, token, col) in [
            ("quit now", "now", 6),
            ("exit 0", "0", 6),
            ("stats --verbose", "--verbose", 7),
            ("premises 3", "3", 10),
            ("help me", "me", 6),
            ("reset all", "all", 7),
            ("knowns x", "x", 8),
            ("dataset full", "full", 9),
        ] {
            let reply = s.handle_line(line).text;
            assert!(reply.starts_with("err "), "`{line}` got: {reply}");
            assert!(
                reply.contains(&format!("`{token}` at column {col}")),
                "`{line}` got: {reply}"
            );
        }
        // The unknown-command error names the verb's column too.
        let reply = s.handle_line("frobnicate 7").text;
        assert!(reply.contains("`frobnicate` at column 1"), "got: {reply}");
        // Columns count from the line as received: leading whitespace (and
        // a two-char glyph) shift them exactly as an editor would show.
        let reply = s.handle_line("  quit now").text;
        assert!(reply.contains("`now` at column 8"), "got: {reply}");
        let reply = s.handle_line("  frobnicate").text;
        assert!(reply.contains("`frobnicate` at column 3"), "got: {reply}");
        // The session survives the whole sweep, and `quit` alone still quits.
        assert!(s.handle_line("implies AB -> {B}").text.starts_with("yes"));
        assert!(s.handle_line("quit").quit);
    }

    #[test]
    fn framing_helpers_decode_strip_and_locate() {
        assert_eq!(
            decode_request(b"implies A -> {B}").unwrap(),
            "implies A -> {B}"
        );
        // One trailing CR is stripped (CRLF clients); interior CRs are not.
        assert_eq!(decode_request(b"stats\r").unwrap(), "stats");
        assert_eq!(decode_request(b"a\rb").unwrap(), "a\rb");
        let err = decode_request(&[b'o', b'k', 0xff, b'x']).unwrap_err();
        assert!(err.contains("0xff"), "got: {err}");
        assert!(err.contains("position 3"), "got: {err}");
        assert_eq!(
            oversized_request(70000, MAX_REQUEST_BYTES),
            "request line exceeds 65536 bytes (got 70000)"
        );
        assert!(is_silent(""));
        assert!(is_silent("   "));
        assert!(is_silent("# comment"));
        assert!(is_silent("  # indented comment"));
        assert!(!is_silent("stats"));
    }

    #[test]
    fn known_values_reject_nan_and_accept_wire_numbers() {
        let mut s = server();
        s.handle_line("universe 3");
        assert!(s.handle_line("known A = nan").text.starts_with("err known"));
        assert!(s.handle_line("known A = inf").text.starts_with("err known"));
        // A value printed by the wire formatter feeds straight back in.
        assert_eq!(
            s.handle_line("known A = 2.5").text,
            "ok known set=A value=2.5 added=1 knowns=1"
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let mut s = server();
        assert_eq!(s.handle_line("").text, "");
        assert_eq!(s.handle_line("# a comment").text, "");
        assert_eq!(s.handle_line("   ").text, "");
    }

    #[test]
    fn session_slots_are_independent_and_listable() {
        let mut s = server();
        // The default slot (id 0) exists but has no session yet.
        assert_eq!(
            s.handle_line("session list").text,
            "sessions n=1 current=0 0:-"
        );
        s.handle_line("universe 4");
        s.handle_line("assert A -> {B}");
        // A fresh slot is empty and current; the old one keeps its state.
        assert_eq!(
            s.handle_line("session new").text,
            "ok session id=1 sessions=2"
        );
        assert!(s
            .handle_line("implies A -> {B}")
            .text
            .starts_with("err no session"));
        s.handle_line("universe 3");
        s.handle_line("assert B -> {C}");
        assert_eq!(
            s.handle_line("session list").text,
            "sessions n=2 current=1 0:u4p1q0 1:u3p1q0"
        );
        // Premises do not leak between slots.
        assert!(s.handle_line("implies A -> {B}").text.starts_with("no"));
        assert!(s.handle_line("implies B -> {C}").text.starts_with("yes"));
        assert_eq!(s.handle_line("session use 0").text, "ok session id=0");
        assert!(s.handle_line("implies A -> {B}").text.starts_with("yes"));
        assert!(s.handle_line("implies B -> {C}").text.starts_with("no"));
        // The slot descriptors attribute the served queries per slot.
        assert_eq!(
            s.handle_line("session list").text,
            "sessions n=2 current=0 0:u4p1q2 1:u3p1q2"
        );
        // Closing the current slot falls back to the lowest remaining id.
        assert_eq!(
            s.handle_line("session close").text,
            "ok session closed=0 sessions=1 current=1"
        );
        assert!(s.handle_line("implies B -> {C}").text.starts_with("yes"));
        // Closing the last slot opens a fresh empty one; ids never recycle.
        assert_eq!(
            s.handle_line("session close 1").text,
            "ok session closed=1 sessions=1 current=2"
        );
        assert_eq!(
            s.handle_line("session list").text,
            "sessions n=1 current=2 2:-"
        );
        // Errors: unknown ids and malformed forms.
        assert!(s
            .handle_line("session use 0")
            .text
            .starts_with("err no session slot"));
        assert!(s
            .handle_line("session close 99")
            .text
            .starts_with("err no session slot"));
        assert!(s
            .handle_line("session")
            .text
            .starts_with("err session expects"));
        assert!(s
            .handle_line("session use x")
            .text
            .starts_with("err session expects"));
        assert!(s
            .handle_line("session frob")
            .text
            .starts_with("err session expects"));
        // The fresh slot still serves once opened.
        s.handle_line("universe 2");
        assert!(s.handle_line("implies AB -> {A}").text.starts_with("yes"));
    }

    #[test]
    fn queries_answer_against_the_state_at_their_position() {
        let mut s = server();
        s.handle_line("universe 4");
        s.handle_line("assert A -> {B}");
        s.handle_line("assert B -> {C}");
        assert!(s.handle_line("implies A -> {C}").text.starts_with("yes"));
        // A later retraction changes the answer from its position on.
        s.handle_line("retract B -> {C}");
        assert!(s.handle_line("implies A -> {C}").text.starts_with("no"));
        // Parse failures and missing sessions answer `err` in place.
        assert!(s.handle_line("implies A -> {Z}").text.starts_with("err"));
        assert!(server()
            .handle_line("implies A -> {B}")
            .text
            .starts_with("err no session"));
    }

    /// `stats` counts every query issued before it — what a client reading
    /// its own request stream expects.
    #[test]
    fn stats_counts_every_earlier_query() {
        let mut s = server();
        s.handle_line("universe 4");
        s.handle_line("assert A->{B}");
        assert!(s.handle_line("implies A->{C}").text.starts_with("no"));
        assert!(s.handle_line("bound A").text.starts_with("bound"));
        let stats = s.handle_line("stats").text;
        assert!(stats.starts_with("stats queries=1"), "got: {stats}");
        assert!(stats.contains(" bound=1p"), "got: {stats}");
    }

    #[test]
    fn respond_appends_replies_and_serves_mask_frames_like_text() {
        let mut s = server();
        let mut out = String::new();
        for line in ["universe 4", "assert A->{B}", "# silent", "implies A->{B}"] {
            let answer = s.respond(
                &binary::BinRequest::Line(line.as_bytes()),
                Instant::now(),
                &mut out,
            );
            assert!(!answer.quit);
            // Every request keeps a record; only the answered query is routed.
            let record = answer.record;
            assert_eq!(record.route.is_some(), line.starts_with("implies"));
            let verb = line.split_whitespace().next().filter(|word| *word != "#");
            assert_eq!(verb, record.verb.map(|index| VERBS[index].name));
            out.push('|');
        }
        let replies: Vec<&str> = out.split('|').collect();
        assert_eq!(replies[0], "ok universe n=4 attrs=A,B,C,D");
        assert_eq!(replies[2], "", "a silent request appends nothing");
        assert!(replies[3].starts_with("yes route=fd"), "got: {out}");
        // The `01` frame of the same goal answers the same, from the cache.
        let mut frame = Vec::new();
        binary::encode_implies(0b1, &[0b10], &mut frame);
        let binary::Decoded::Frame(request, _) = binary::decode_request(&frame, MAX_REQUEST_BYTES)
        else {
            panic!("mask frame does not decode");
        };
        out.clear();
        let record = s.respond(&request, Instant::now(), &mut out).record;
        assert!(out.starts_with("yes route=fd cached=1"), "got: {out}");
        assert_eq!(
            (record.verb_name(), record.route, record.cached),
            ("implies", Some("fd"), true)
        );
        assert!(record.plan_ns > 0);
        // Bits outside the universe answer `err`, like an unknown name: the
        // record names the verb but no route.
        out.clear();
        let request = binary::BinRequest::Bound { set: 1 << 9 };
        let record = s.respond(&request, Instant::now(), &mut out).record;
        assert_eq!((record.verb_name(), record.route), ("bound", None));
        assert!(out.starts_with("err attribute mask 0x200"), "got: {out}");
        // Trace ids are consecutive per connection: one per request.
        let next = s.refuse("too long", Instant::now(), &mut out).record;
        assert_eq!(next.trace, record.trace + 1);
        assert_eq!((next.verb, next.route), (None, None));
    }

    /// The decoded `01` frame of `lhs -> {rhs…}`, borrowing `bytes`.
    fn implies_frame<'a>(lhs: u64, rhs: &[u64], bytes: &'a mut Vec<u8>) -> binary::BinRequest<'a> {
        binary::encode_implies(lhs, rhs, bytes);
        match binary::decode_request(bytes, MAX_REQUEST_BYTES) {
            binary::Decoded::Frame(request, _) => request,
            other => panic!("mask frame does not decode: {other:?}"),
        }
    }

    /// With every request slow-logged, a `02` frame whose set lies outside
    /// the universe is answered `err` like any other, and the server goes
    /// on serving.
    #[test]
    fn slow_log_answers_a_bound_frame_outside_the_universe() {
        let mut s = server();
        s.set_slow_query_us(Some(0));
        s.handle_line("universe 4");
        let mut out = String::new();
        let frame = binary::BinRequest::Bound { set: 0x100 };
        let answer = s.respond(&frame, Instant::now(), &mut out);
        s.commit(&answer.record);
        assert_eq!(
            out,
            "err attribute mask 0x100 has bits outside the 4-attribute universe"
        );
        assert_eq!(s.describe(&frame), "bound 0x100");
        assert!(s.handle_line("implies A -> {B}").text.starts_with("no"));
    }

    /// The slow-query log names a refused mask frame by its own masks, not
    /// by the goal of the request before it.
    #[test]
    fn slow_log_describes_a_refused_mask_frame_by_its_own_masks() {
        let mut s = server();
        s.handle_line("universe 4");
        let mut out = String::new();
        let mut bytes = Vec::new();
        let previous = implies_frame(0b1, &[0b10], &mut bytes);
        s.respond(&previous, Instant::now(), &mut out);
        assert_eq!(s.describe(&previous), "implies A->{B}");
        out.clear();
        let mut bytes = Vec::new();
        let refused = implies_frame(0b100, &[0x100], &mut bytes);
        s.respond(&refused, Instant::now(), &mut out);
        assert!(out.starts_with("err attribute mask 0x100"), "got: {out}");
        assert_eq!(s.describe(&refused), "implies C->{0x100}");
    }

    /// Sized universes past 26 attributes are spelled one character per
    /// attribute, so every attribute is addressable from the wire.
    #[test]
    fn sized_universes_past_26_are_spellable() {
        let mut s = server();
        let reply = s.handle_line("universe 30").text;
        assert!(
            reply.ends_with("attrs=A,B,C,D,E,F,G,H,I,J,K,L,M,N,O,P,Q,R,S,T,U,V,W,X,Y,Z,a,b,c,d"),
            "got: {reply}"
        );
        assert!(s
            .handle_line("assert a -> {b}")
            .text
            .starts_with("ok assert"));
        assert!(s.handle_line("implies Za -> {b}").text.starts_with("yes"));
        assert!(s.handle_line("implies X0 -> {X1}").text.starts_with("err"));
        s.handle_line("universe 64");
        assert!(s.handle_line("implies + -> {/}").text.starts_with("no"));
        assert!(s
            .handle_line("known 09/ = 4")
            .text
            .starts_with("ok known set=09/"));
        assert!(s
            .handle_line("universe 65")
            .text
            .starts_with("err universe size"));
    }

    #[test]
    fn wire_format_round_trips() {
        let u = Universe::of_size(4);
        for text in ["A -> {B, CD}", " -> {}", "AB -> {C}", "A -> {}"] {
            let c = DiffConstraint::parse(text, &u).unwrap();
            let wire = format_wire(&c, &u);
            let back = DiffConstraint::parse(&wire, &u).unwrap();
            assert_eq!(c, back, "round-trip failed for {wire}");
        }
    }

    #[test]
    fn bound_conversation() {
        let mut s = server();
        s.handle_line("universe 4");
        assert_eq!(
            s.handle_line("assert A -> {B}").text,
            "ok assert id=0 added=1 premises=1"
        );
        assert_eq!(
            s.handle_line("known A = 40").text,
            "ok known set=A value=40 added=1 knowns=1"
        );
        // The constraint kills every density term separating AB from A, so
        // the single known value pins the unobserved superset exactly.
        let reply = s.handle_line("bound AB").text;
        assert!(
            reply.starts_with("bound lo=40 hi=40 exact=1 route=propagation cached=0"),
            "got: {reply}"
        );
        // Second ask is served from the bound cache, which `stats` reports.
        let reply = s.handle_line("bound AB").text;
        assert!(reply.contains("route=cached cached=1"), "got: {reply}");
        let stats = s.handle_line("stats").text;
        assert!(
            stats.contains(" answer_cache=h0/m0/e0/c0 bound_cache=h1/m1/e0/c0 "),
            "got: {stats}"
        );
        // Without the premise the same state only yields the sandwich.
        s.handle_line("retract A -> {B}");
        let reply = s.handle_line("bound AB").text;
        assert!(
            reply.starts_with("bound lo=0 hi=40 exact=0 route=propagation"),
            "got: {reply}"
        );
        // An unknown, unconstrained set is only floored by nonnegativity.
        let reply = s.handle_line("bound CD").text;
        assert!(
            reply.starts_with("bound lo=0 hi=inf exact=0"),
            "got: {reply}"
        );
        assert_eq!(s.handle_line("knowns").text, "knowns n=1 A=40");
        // The `=` in `known` is optional; replacement reports added=0.
        assert_eq!(
            s.handle_line("known A 41.5").text,
            "ok known set=A value=41.5 added=0 knowns=1"
        );
        assert_eq!(s.handle_line("forget A").text, "ok forget knowns=0");
        assert!(s.handle_line("forget A").text.starts_with("err set has no"));
        let stats = s.handle_line("stats").text;
        assert!(stats.contains(" bound="), "got: {stats}");
        // The empty set is addressable as {}.
        assert_eq!(
            s.handle_line("known {} = 100").text,
            "ok known set=∅ value=100 added=1 knowns=1"
        );
        let reply = s.handle_line("bound A").text;
        assert!(reply.starts_with("bound lo=0 hi=100"), "got: {reply}");
        // …and as `∅`, its spelling in replies, so a reply's set parses back.
        let knowns = s.handle_line("knowns").text;
        assert_eq!(knowns, "knowns n=1 ∅=100");
        let (set, _) = knowns["knowns n=1 ".len()..].split_once('=').unwrap();
        let reply = s.handle_line(&format!("bound {set}")).text;
        assert!(
            reply.starts_with("bound lo=100 hi=100 exact=1"),
            "got: {reply}"
        );
        assert_eq!(
            s.handle_line(&format!("known {set} = 5")).text,
            "ok known set=∅ value=5 added=0 knowns=1"
        );
        assert_eq!(
            s.handle_line(&format!("forget {set}")).text,
            "ok forget knowns=0"
        );
    }

    /// The session's `bounds.budget_ops` is the one bound budget: a query
    /// whose propagation cost exceeds it is answered by the relaxation.
    #[test]
    fn bound_budget_routes_to_the_relaxation() {
        let mut s = Server::new(SessionConfig {
            bounds: diffcon_bounds::problem::BoundsConfig {
                budget_ops: 1,
                ..Default::default()
            },
            ..SessionConfig::default()
        });
        s.handle_line("universe 3");
        let reply = s.handle_line("bound AB").text;
        assert!(reply.contains(" route=relaxed cached=0"), "got: {reply}");
    }

    #[test]
    fn bound_infeasibility_is_an_error_not_fatal() {
        let mut s = server();
        s.handle_line("universe 3");
        s.handle_line("known A = 3");
        s.handle_line("known AB = 9");
        assert!(s
            .handle_line("bound ABC")
            .text
            .starts_with("err infeasible:"));
        // The session survives; repairing the knowns answers the query.
        s.handle_line("known AB = 2");
        assert!(s
            .handle_line("bound ABC")
            .text
            .starts_with("bound lo=0 hi=2"));
    }

    #[test]
    fn known_parse_errors() {
        let mut s = server();
        s.handle_line("universe 3");
        assert!(s
            .handle_line("known A")
            .text
            .starts_with("err known expects"));
        assert!(s
            .handle_line("known A = x")
            .text
            .starts_with("err known expects a numeric"));
        assert!(s.handle_line("known A = inf").text.starts_with("err known"));
        assert!(s.handle_line("known Z = 3").text.starts_with("err"));
        assert!(s.handle_line("bound").text.starts_with("err"));
        assert!(s.handle_line("bound Z").text.starts_with("err"));
        // No session yet → the usual error.
        let mut fresh = server();
        assert!(fresh
            .handle_line("bound A")
            .text
            .starts_with("err no session"));
    }

    #[test]
    fn reset_drops_knowns() {
        let mut s = server();
        s.handle_line("universe 3");
        s.handle_line("known A = 4");
        assert_eq!(s.handle_line("reset").text, "ok reset");
        assert_eq!(s.handle_line("knowns").text, "knowns n=0");
    }

    #[test]
    fn discovery_conversation() {
        let mut s = server();
        // Discovery verbs require a session and then a dataset.
        assert!(s.handle_line("load AB").text.starts_with("err no session"));
        s.handle_line("universe 3");
        assert!(s.handle_line("mine").text.starts_with("err no dataset"));
        assert!(s.handle_line("adopt").text.starts_with("err no dataset"));
        assert!(s.handle_line("dataset").text.starts_with("err no dataset"));
        // Ingest a dataset satisfying A → {B}.
        assert_eq!(
            s.handle_line("load AB; ABC; B; C; BC").text,
            "ok load added=5 baskets=5"
        );
        assert_eq!(
            s.handle_line("dataset").text,
            "dataset baskets=5 items=3 occurring=ABC"
        );
        // Loads accumulate.
        assert_eq!(s.handle_line("load {}").text, "ok load added=1 baskets=6");
        // Parse failures are located, and the session keeps its dataset
        // as it was.
        let reply = s.handle_line("load AB; AZ").text;
        assert!(reply.starts_with("err line 2"), "got: {reply}");
        assert!(reply.contains("`Z`"), "got: {reply}");
        // Empty segments are skipped but still counted, so the reported
        // position matches the client's own record numbering.
        let reply = s.handle_line("load AB; ; AZ").text;
        assert!(reply.starts_with("err line 3"), "got: {reply}");
        // Mining reports the discovery and lists the cover in wire form.
        let mined = s.handle_line("mine 2 2").text;
        assert!(mined.starts_with("mined minimal="), "got: {mined}");
        assert!(mined.contains("A->{B}"), "got: {mined}");
        // Nothing asserted yet; adopt asserts the cover.
        assert_eq!(s.handle_line("premises").text, "premises n=0");
        let adopted = s.handle_line("adopt").text;
        assert!(adopted.starts_with("ok adopt minimal="), "got: {adopted}");
        assert!(adopted.contains("added="), "got: {adopted}");
        // The adopted premises answer implication queries…
        assert!(s.handle_line("implies A -> {B}").text.starts_with("yes"));
        // …and pin bound queries that were loose before adoption.
        s.handle_line("known A = 2");
        let reply = s.handle_line("bound AB").text;
        assert!(reply.starts_with("bound lo=2 hi=2 exact=1"), "got: {reply}");
        // Re-adopting is idempotent.
        let again = s.handle_line("adopt").text;
        assert!(again.contains("added=0"), "got: {again}");
        // Stats surface the dataset.
        let stats = s.handle_line("stats").text;
        assert!(stats.contains("dataset_baskets=6"), "got: {stats}");
        // Reset drops the dataset with the rest of the state.
        s.handle_line("reset");
        assert!(s.handle_line("dataset").text.starts_with("err no dataset"));
    }

    #[test]
    fn a_refused_load_leaves_the_session_as_it_was() {
        let mut s = server();
        s.handle_line("universe 4");
        let epoch = |s: &mut Server| {
            let stats = s.handle_line("stats").text;
            let at = stats.find(" epoch=").expect("stats has an epoch");
            stats[at..].split_whitespace().next().unwrap().to_string()
        };
        let before = (s.handle_line("dataset").text, epoch(&mut s));
        assert_eq!(before.0, "err no dataset (send `load` first)");
        let reply = s.handle_line("load A; QQ").text;
        assert!(reply.starts_with("err line 2"), "got: {reply}");
        assert_eq!((s.handle_line("dataset").text, epoch(&mut s)), before);
        // Into an existing dataset, too: nothing before the bad record is
        // appended.
        s.handle_line("load A; B");
        let before = (s.handle_line("dataset").text, epoch(&mut s));
        assert!(
            before.0.starts_with("dataset baskets=2"),
            "got: {}",
            before.0
        );
        assert!(s.handle_line("load AB; QQ").text.starts_with("err line 2"));
        assert_eq!((s.handle_line("dataset").text, epoch(&mut s)), before);
    }

    #[test]
    fn discovery_request_errors() {
        let mut s = server();
        s.handle_line("universe 3");
        assert!(s.handle_line("load").text.starts_with("err load expects"));
        assert!(s
            .handle_line("load ;;")
            .text
            .starts_with("err load expects"));
        assert!(s.handle_line("mine 2").text.starts_with("err mine expects"));
        assert!(s
            .handle_line("mine a b")
            .text
            .starts_with("err mine expects"));
        assert!(s
            .handle_line("adopt 1 2 3")
            .text
            .starts_with("err adopt expects"));
        // Oversized universes refuse to mine but keep serving other verbs.
        s.handle_line("universe 30");
        s.handle_line("load {}");
        assert!(s
            .handle_line("mine")
            .text
            .starts_with("err mining is limited"));
        assert!(s
            .handle_line("adopt 1 1")
            .text
            .starts_with("err mining is limited"));
        assert!(s
            .handle_line("dataset")
            .text
            .starts_with("dataset baskets=1"));
        // Family budgets past the measured wedge threshold are refused even
        // on legal universes; tighter budgets on the same session work.
        s.handle_line("universe 14");
        s.handle_line("load AB; BC");
        assert!(s
            .handle_line("mine 2 3")
            .text
            .starts_with("err mine budget too large"));
        assert!(s
            .handle_line("adopt 2 4")
            .text
            .starts_with("err mine budget too large"));
        assert!(s.handle_line("mine 3 2").text.starts_with("mined "));
    }

    #[test]
    fn explain_reports_route_epoch_and_stage_latency() {
        let mut s = server();
        s.handle_line("universe 4");
        s.handle_line("assert A -> {B}");
        s.handle_line("assert B -> {C}");
        let reply = s.handle_line("explain A -> {C}").text;
        assert!(
            reply.starts_with("explain verdict=yes route=fd cached=0 epoch="),
            "got: {reply}"
        );
        for field in ["probe_us=", "plan_us=", "decide_us=", "total_us="] {
            assert!(reply.contains(field), "missing {field}: {reply}");
        }
        // The second ask is a cache hit: no planning, no decision.
        let reply = s.handle_line("explain A -> {C}").text;
        assert!(reply.contains("cached=1"), "got: {reply}");
        assert!(reply.contains("plan_us=0"), "got: {reply}");
        assert!(reply.contains("decide_us=0"), "got: {reply}");
        // An explained query counts in the planner exactly like `implies`.
        let stats = s.handle_line("stats").text;
        assert!(stats.contains("fd=1/1c"), "got: {stats}");
        // Parse errors surface like any other verb's.
        assert!(s
            .handle_line("explain")
            .text
            .starts_with("err explain expects"));
        assert!(s.handle_line("explain A -> {Z}").text.starts_with("err"));
    }

    #[test]
    fn trace_toggles_the_epoch_suffix() {
        let mut s = server();
        s.handle_line("universe 4");
        s.handle_line("assert A -> {B}");
        assert_eq!(s.handle_line("trace on").text, "ok trace=1");
        let traced = s.handle_line("implies A -> {B}").text;
        assert!(traced.contains(" epoch="), "got: {traced}");
        let epoch_field = traced.split_whitespace().last().unwrap().to_string();
        assert!(epoch_field.starts_with("epoch="), "got: {traced}");
        // Every query verb gains the suffix, not just `implies`.
        assert!(s
            .handle_line("batch A -> {B}; B -> {A}")
            .text
            .contains(" epoch="));
        assert!(s.handle_line("witness A -> {B}").text.contains(" epoch="));
        // A mutation bumps the answering epoch the traced reply names.
        s.handle_line("assert B -> {C}");
        let bumped = s.handle_line("implies A -> {B}").text;
        assert_ne!(
            bumped.split_whitespace().last().unwrap(),
            epoch_field,
            "got: {bumped}"
        );
        assert_eq!(s.handle_line("trace off").text, "ok trace=0");
        assert!(!s.handle_line("implies A -> {B}").text.contains("epoch="));
        // Malformed forms are located and non-fatal.
        assert!(s.handle_line("trace").text.starts_with("err trace expects"));
        assert!(s
            .handle_line("trace maybe")
            .text
            .contains("`maybe` at column 7"));
        assert!(s
            .handle_line("trace on now")
            .text
            .contains("`now` at column 10"));
    }

    #[test]
    fn stats_reports_epoch_and_route_percentiles() {
        let mut s = server();
        s.handle_line("universe 4");
        s.handle_line("assert A -> {B}");
        s.handle_line("implies A -> {B}");
        let stats = s.handle_line("stats").text;
        assert!(stats.contains(" epoch=1 fd_p50us="), "got: {stats}");
        assert!(stats.contains(" fd_p99us="), "got: {stats}");
        // Collision counts ride the cache fields (fourth `/c` component).
        assert!(stats.contains("answer_cache=h0/m1/e0/c0"), "got: {stats}");
    }

    #[test]
    fn duplicate_batch_goals_use_one_decision() {
        let mut s = server();
        s.handle_line("universe 4");
        s.handle_line("assert A -> {B}");
        assert_eq!(
            s.handle_line("batch A -> {B}; A -> {B}; A -> {B}").text,
            "results n=3 y y y"
        );
        let stats = s.handle_line("stats").text;
        // One decided query; the in-batch repeats are answer-cache hits.
        assert!(stats.contains("fd=1/2c"), "got: {stats}");
        assert!(stats.contains("answer_cache=h2/m1/e0"), "got: {stats}");
    }

    #[test]
    fn analyze_reports_redundancy_and_infeasibility() {
        let mut s = server();
        s.handle_line("universe 4");
        s.handle_line("assert A -> {B}");
        s.handle_line("assert B -> {C}");
        s.handle_line("assert A -> {C}"); // implied by the two above
        let reply = s.handle_line("analyze").text;
        assert!(
            reply.starts_with("analyze premises=3 redundant=1 infeasible=0"),
            "got: {reply}"
        );
        assert!(reply.contains(" epoch="), "got: {reply}");
        assert!(reply.contains(" us="), "got: {reply}");
        assert!(reply.contains("redundant[2]=A->{C}<=["), "got: {reply}");
        // An infeasible known pair: f is monotone decreasing along ⊆, so
        // f(AB) cannot exceed f(A).
        s.handle_line("known A = 1");
        s.handle_line("known AB = 10");
        let reply = s.handle_line("analyze").text;
        assert!(reply.contains("infeasible=1"), "got: {reply}");
        assert!(reply.contains(" conflict="), "got: {reply}");
        // The engine agrees at query time.
        assert!(
            s.handle_line("bound AB").text.starts_with("err"),
            "engine disagrees"
        );
    }

    #[test]
    fn analyze_says_unchecked_when_a_check_was_skipped() {
        // f(AB) ≥ f(A) + f(B) − f(∅) = 1 contradicts f(AB) = 0; only the
        // feasibility sweep's deduction pass sees it.
        let knowns = ["known {} = 5", "known A = 3", "known B = 3", "known AB = 0"];
        let mut s = server();
        s.handle_line("universe 3");
        for line in knowns {
            s.handle_line(line);
        }
        let reply = s.handle_line("analyze").text;
        assert!(
            reply.starts_with("analyze premises=0 redundant=0 infeasible=1 "),
            "got: {reply}"
        );
        assert!(reply.contains(" conflict=∅=5,A=3,B=3,AB=0"), "got: {reply}");
        // At 20 attributes the sweep is over the bound budget: the verdict
        // says so instead of calling the state feasible, and a query still
        // finds the contradiction.
        s.handle_line("universe 20");
        for line in knowns {
            s.handle_line(line);
        }
        let reply = s.handle_line("analyze").text;
        assert!(
            reply.starts_with("analyze premises=0 redundant=0 infeasible=unchecked "),
            "got: {reply}"
        );
        assert!(!reply.contains("conflict="), "got: {reply}");
        let bound = s.handle_line("bound AB").text;
        assert!(bound.starts_with("err infeasible"), "got: {bound}");
    }

    #[test]
    fn analyze_apply_installs_the_minimal_core() {
        let mut s = server();
        s.handle_line("universe 4");
        s.handle_line("assert A -> {B}");
        s.handle_line("assert B -> {C}");
        s.handle_line("assert A -> {C}");
        assert_eq!(
            s.handle_line("analyze apply").text,
            "ok analyze applied premises=3 core=2 dropped=1"
        );
        assert_eq!(s.handle_line("premises").text, "premises n=2 A->{B} B->{C}");
        // Answers survive the reduction.
        assert!(s.handle_line("implies A -> {C}").text.starts_with("yes"));
        // Applying again is a no-op.
        assert_eq!(
            s.handle_line("analyze apply").text,
            "ok analyze applied premises=2 core=2 dropped=0"
        );
        // Malformed forms are located and non-fatal.
        assert!(s
            .handle_line("analyze now")
            .text
            .contains("`now` at column 9"));
        assert!(s
            .handle_line("analyze apply now")
            .text
            .contains("`now` at column 15"));
    }

    #[test]
    fn every_verb_is_in_help_and_every_example_parses() {
        // The canonical table drives the help reply, so `help` can never
        // miss a verb; each documented example must parse as its own verb.
        let help = help_reply();
        for verb in VERBS {
            assert!(
                help.split_whitespace().any(|w| w == verb.name),
                "help reply is missing `{}`: {help}",
                verb.name
            );
            let parsed = parse_request(verb.example)
                .unwrap_or_else(|e| panic!("example `{}` fails to parse: {e}", verb.example));
            assert_eq!(
                verb.example.split_whitespace().next().unwrap(),
                verb.name,
                "example for `{}` starts with the wrong verb",
                verb.name
            );
            // The example round-trips through the canonical formatter.
            let _ = format_request(&parsed);
        }
        let mut s = server();
        assert_eq!(s.handle_line("help").text, help);
    }
}
