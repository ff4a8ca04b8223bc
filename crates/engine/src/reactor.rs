//! The readiness-driven reactor core behind [`crate::net::NetServer`]: a
//! small number of event loops, each accepting and multiplexing its own
//! connections over nonblocking sockets and a vendored `epoll` instance,
//! instead of one blocking thread per connection.  The reactor owns
//! sockets, readiness and backpressure; everything between a socket's bytes
//! and the replies — framing, negotiation, `quit`, records — is the
//! connection's [`Connection`] driver.
//!
//! # Why a reactor
//!
//! The thread-per-connection server spent most of its samples parked in
//! blocking reads and paid a full wake/park round trip per request — the
//! *transport tax* the profiler surfaced as two thirds of connection-thread
//! time.  The reactor turns that inside out: one thread waits once for the
//! whole ready set, hands every readable connection's bytes to its driver,
//! which answers each complete request as soon as it is framed, and only
//! then flushes replies — so a readiness burst with k pipelined requests
//! costs a handful of syscalls, not k wakeups.
//!
//! # Event-loop shape
//!
//! Each reactor owns an [`Epoll`] instance (level-triggered — correctness
//! under partial drains and backpressure needs no re-arm bookkeeping) that
//! watches the shared listener, the read end of the shared stop signal,
//! and the reactor's own connections, kept in a slab indexed by epoll
//! token.  One iteration:
//!
//! 1. `epoll_wait` for the ready set (one `reactor.wait` profile stage, one
//!    `diffcond_reactor_wakeups_total` tick, the batch size recorded in
//!    `diffcond_reactor_ready_batch`).
//! 2. A ready listener is accepted until it would block; each connection
//!    is admitted under the server's cap and registered in this reactor's
//!    slab.  Every reactor watches the listener, so whichever is idle in
//!    its wait takes the next connection, and the others find nothing to
//!    accept.
//! 3. For every ready connection: flush its output buffer if writable,
//!    then drain its socket to `WOULD_BLOCK`, feeding each read to its
//!    driver ([`Connection::feed`]), which frames its replies straight into
//!    the connection's output buffer; at end of input, [`Connection::finish`].
//! 4. Every connection the burst touched has its output written out with
//!    vectored (`writev`) syscalls before the reactor waits again; a
//!    `WOULD_BLOCK` arms writable readiness instead of blocking the loop.
//!    The windowed-stats frames are observed once per burst.
//!
//! The stop signal is never drained: once shutdown writes it, it wakes
//! every reactor's wait until the reactor sees the shutdown flag and exits.
//!
//! # Backpressure
//!
//! Replies coalesce in a per-connection chunk list ([`OutBuf`]), written
//! out mid-burst once it grows past a few chunks, so the peer drains
//! replies while the rest of its burst is answered.  Past a high-water mark
//! the reactor stops *reading* that connection (its requests stay in the
//! kernel socket buffer, which eventually stalls the sender) until the
//! backlog drains below a low-water mark — a slow reader costs bounded
//! memory and never stalls the reactor or its neighbours.

use crate::connection::{Connection, Output, STAGE_NET_WRITE};
use crate::metrics::EngineMetrics;
use crate::net::{ActiveGuard, NetConfig, NetState};
use crate::protocol::Server;
use diffcon_obs::profile::{self, StageTag};
use epoll::{Epoll, Events, Interest};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

/// Profiling tag for the blocked heart of the loop: a reactor sampled in
/// `reactor.wait` is idle in `epoll_wait`, covering every client's
/// think-time at once.
static STAGE_REACTOR_WAIT: StageTag = StageTag::new("reactor.wait");
/// Profiling tag for socket drains and request parsing.
static STAGE_NET_READ: StageTag = StageTag::new("net.read");

/// Epoll token of the listener; connection tokens are slab indices, which
/// can never reach this or [`STOP_TOKEN`].
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token of the stop signal's read end.
const STOP_TOKEN: u64 = u64::MAX - 1;
/// Bytes per nonblocking read handed to a connection's driver.
const READ_CHUNK: usize = 64 * 1024;
/// Ready events fetched per `epoll_wait`.
const EVENT_CAPACITY: usize = 1024;
/// Output-buffer size at which the reactor stops reading a connection's
/// requests (a slow reader costs bounded memory, never reactor stalls).
const OUT_HIGH_WATER: usize = 1 << 20;
/// Output-buffer size below which reading is re-armed (hysteresis, so a
/// connection hovering at the mark does not flap its epoll interest).
const OUT_LOW_WATER: usize = 256 * 1024;
/// Reply chunk granularity of [`OutBuf`].
const OUT_CHUNK: usize = 32 * 1024;
/// Output backlog at which a *mid-burst* flush is attempted, so clients
/// start draining replies while the reactor is still parsing and deciding
/// the rest of a large pipelined burst (server decide work and client
/// reply-drain work overlap instead of alternating in lockstep phases).
const OUT_EAGER_FLUSH: usize = 2 * OUT_CHUNK;
/// Most chunks handed to one vectored write.
const MAX_IOVECS: usize = 64;

/// A connection's coalescing output buffer: replies accumulate in a chunk
/// list and leave through vectored writes, so one flush syscall carries a
/// whole burst's replies.
#[derive(Default)]
struct OutBuf {
    chunks: std::collections::VecDeque<Vec<u8>>,
    /// Bytes of the front chunk already written.
    head: usize,
    /// Unwritten bytes across all chunks.
    len: usize,
}

impl Output for OutBuf {
    fn append(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
        match self.chunks.back_mut() {
            Some(tail) if tail.len() < OUT_CHUNK => tail.extend_from_slice(bytes),
            _ => {
                let mut chunk = Vec::with_capacity(OUT_CHUNK.max(bytes.len()));
                chunk.extend_from_slice(bytes);
                self.chunks.push_back(chunk);
            }
        }
    }
}

impl OutBuf {
    /// Writes as much as the socket accepts with vectored syscalls.
    /// `Ok(true)` means drained; `Ok(false)` means the socket would block
    /// (arm writable readiness and come back).
    fn flush(&mut self, stream: &TcpStream, metrics: &EngineMetrics) -> io::Result<bool> {
        while self.len > 0 {
            let mut slices = Vec::with_capacity(self.chunks.len().min(MAX_IOVECS));
            for (slot, chunk) in self.chunks.iter().take(MAX_IOVECS).enumerate() {
                let from = if slot == 0 { self.head } else { 0 };
                slices.push(IoSlice::new(&chunk[from..]));
            }
            let written = match (&*stream).write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(written) => written,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            };
            metrics.reactor_writev_bytes.record(written as u64);
            self.consume(written);
        }
        Ok(true)
    }

    /// Advances past `written` flushed bytes, releasing drained chunks.
    fn consume(&mut self, mut written: usize) {
        self.len -= written;
        while written > 0 {
            let Some(front) = self.chunks.front() else {
                // The kernel never reports more written than was submitted;
                // if accounting ever disagreed, stopping here self-heals.
                return;
            };
            let front_len = front.len() - self.head;
            if written < front_len {
                self.head += written;
                return;
            }
            written -= front_len;
            self.head = 0;
            self.chunks.pop_front();
        }
    }
}

/// One multiplexed connection: its socket, the driver that frames and
/// answers what the socket delivers, and the output backlog it replies into.
struct Conn {
    stream: TcpStream,
    driver: Connection,
    out: OutBuf,
    read_armed: bool,
    write_armed: bool,
    peer_eof: bool,
    /// No more requests will be served; close once the output drains.
    closing: bool,
    /// Connection IO failed; drop without flushing.
    dead: bool,
    /// Member of the current burst's touched set.
    touched: bool,
    _active: ActiveGuard,
}

impl Conn {
    /// `true` when the slot can be torn down.
    fn reapable(&self) -> bool {
        self.dead || (self.closing && self.out.len == 0)
    }

    /// Reconciles the socket's epoll interest with the connection state:
    /// read while serving and under the output high-water mark (with
    /// hysteresis), write while a backlog is pending.
    fn sync_interest(&mut self, epoll: &Epoll, token: u64) {
        let backlog = self.out.len;
        let backlogged = if self.read_armed {
            backlog >= OUT_HIGH_WATER
        } else {
            backlog >= OUT_LOW_WATER
        };
        let want_read = !self.closing && !self.dead && !self.peer_eof && !backlogged;
        let want_write = !self.dead && backlog > 0;
        if (want_read, want_write) == (self.read_armed, self.write_armed) {
            return;
        }
        let interest = Interest {
            read: want_read,
            write: want_write,
            edge: false,
            exclusive: false,
        };
        if self.epoll_update(epoll, token, interest).is_err() {
            self.dead = true;
            return;
        }
        self.read_armed = want_read;
        self.write_armed = want_write;
    }

    fn epoll_update(&self, epoll: &Epoll, token: u64, interest: Interest) -> io::Result<()> {
        epoll.modify(self.stream.as_raw_fd(), token, interest)
    }

    /// Writes as much of the output backlog as the socket accepts; an IO
    /// failure marks the connection dead.
    fn flush_out(&mut self, metrics: &EngineMetrics) {
        if self.out.len == 0 || self.dead {
            return;
        }
        let write_stage = profile::stage(&STAGE_NET_WRITE);
        if self.out.flush(&self.stream, metrics).is_err() {
            self.dead = true;
        }
        drop(write_stage);
    }

    /// Drains the socket to `WOULD_BLOCK` (or the backpressure mark),
    /// handing each read to the driver, which serves every request it
    /// completes.  `read_buf` is the reactor's shared read scratch — bytes
    /// land there first and only the received prefix is copied into the
    /// driver's input buffer.
    fn on_readable(&mut self, metrics: &EngineMetrics, read_buf: &mut [u8]) {
        let read_stage = profile::stage(&STAGE_NET_READ);
        loop {
            if self.out.len >= OUT_HIGH_WATER || self.closing || self.dead {
                break;
            }
            match (&self.stream).read(read_buf) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    self.closing = self.driver.feed(&read_buf[..n], &mut self.out);
                    // Stream a growing reply backlog out mid-burst: the
                    // peer drains replies concurrently with the decides
                    // still ahead.  `WOULD_BLOCK` here is fine — the
                    // burst-end flush and writable readiness take over.
                    if self.out.len >= OUT_EAGER_FLUSH {
                        self.flush_out(metrics);
                    }
                    if n < read_buf.len() {
                        // Likely drained; if more arrived meanwhile the
                        // level-triggered epoll reports it again.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        drop(read_stage);
        if self.peer_eof && !self.closing && !self.dead {
            self.driver.finish(&mut self.out);
            self.closing = true;
        }
    }
}

/// Creates one reactor's epoll instance, watching the listener and the
/// stop signal's read end.  The listener is watched exclusively, so a new
/// connection wakes one idle reactor rather than every one; the stop
/// signal is shared, so its byte wakes them all.
pub(crate) fn watch(listener: &TcpListener, stop: &UnixStream) -> io::Result<Epoll> {
    let epoll = Epoll::new()?;
    let exclusive = Interest {
        exclusive: true,
        ..Interest::READ
    };
    epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, exclusive)?;
    epoll.add(stop.as_raw_fd(), STOP_TOKEN, Interest::READ)?;
    Ok(epoll)
}

/// Adopts an admitted connection into the slab and registers its socket
/// with the epoll instance.  Failure just drops the connection (its guard
/// releases the admission slot); the return value is whether the
/// connection is now live.
fn register_conn(
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    epoll: &Epoll,
    stream: TcpStream,
    active: ActiveGuard,
    config: &NetConfig,
    metrics: &EngineMetrics,
) -> bool {
    // One request/one reply traffic benefits from immediate segments.
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    metrics.connections.inc();
    let mut server = Server::new(config.session);
    server.set_slow_query_us(config.slow_query_us);
    let token = match free.pop() {
        Some(token) => token,
        None => {
            conns.push(None);
            conns.len() - 1
        }
    };
    if epoll
        .add(stream.as_raw_fd(), token as u64, Interest::READ)
        .is_err()
    {
        free.push(token);
        return false;
    }
    conns[token] = Some(Conn {
        stream,
        driver: Connection::new(server, config.max_request_bytes, config.binary),
        out: OutBuf::default(),
        read_armed: true,
        write_armed: false,
        peer_eof: false,
        closing: false,
        dead: false,
        touched: false,
        _active: active,
    });
    true
}

/// The reactor event loop: accepts, admits, and serves its own connections
/// until shutdown is flagged.
pub(crate) fn run(
    index: usize,
    epoll: Epoll,
    listener: &TcpListener,
    state: &Arc<NetState>,
    config: &NetConfig,
) {
    profile::set_thread_class("reactor");
    let metrics = EngineMetrics::global();
    let live_gauge = metrics.register_reactor(index);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = Events::with_capacity(EVENT_CAPACITY);
    let mut touched: Vec<usize> = Vec::new();
    let mut read_buf = vec![0u8; READ_CHUNK];
    let mut live: u64 = 0;
    while !state.stopping() {
        let wait_stage = profile::stage(&STAGE_REACTOR_WAIT);
        let waited = epoll.wait(&mut events, None);
        drop(wait_stage);
        if waited.is_err() {
            // An unusable epoll instance is unrecoverable for this reactor;
            // its connections are dropped (and their slots released).
            break;
        }
        metrics.reactor_wakeups.inc();
        metrics.reactor_ready_batch.record(events.len() as u64);
        touched.clear();
        for event in events.iter() {
            match event.token {
                // The loop condition reads the flag the signal announces.
                STOP_TOKEN => continue,
                LISTENER_TOKEN => {
                    // Accept until the listener would block.  Any failed
                    // accept (another reactor took the connection, an
                    // aborted handshake, fd pressure) ends the round;
                    // level-triggered readiness brings this reactor back
                    // while connections wait.
                    while let Ok((stream, _)) = listener.accept() {
                        let Some(active) = state.admit(&stream, config.max_connections) else {
                            continue;
                        };
                        if register_conn(
                            &mut conns, &mut free, &epoll, stream, active, config, metrics,
                        ) {
                            live += 1;
                        }
                    }
                    live_gauge.set(live);
                    continue;
                }
                _ => {}
            }
            let token = event.token as usize;
            let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            if !conn.touched {
                conn.touched = true;
                touched.push(token);
            }
            if event.is_error() && (conn.closing || conn.peer_eof) {
                // Error/hangup on a connection already past serving: the
                // peer cannot receive the backlog, so drop it.  A *live*
                // connection discovers errors through its read and write
                // paths instead, so buffered requests and replies are
                // served right up to the failure.
                conn.dead = true;
                continue;
            }
            if event.writable() {
                conn.flush_out(metrics);
                if conn.dead {
                    continue;
                }
            }
            if event.readable() && !conn.peer_eof && !conn.closing {
                conn.on_readable(metrics, &mut read_buf);
            }
        }
        // Burst end: push every touched connection's output, reconcile
        // interest, and reap the finished.
        for &token in &touched {
            let fd = {
                let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
                    continue;
                };
                conn.touched = false;
                conn.flush_out(metrics);
                if !conn.reapable() {
                    conn.sync_interest(&epoll, token as u64);
                }
                if !conn.reapable() {
                    continue;
                }
                conn.stream.as_raw_fd()
            };
            let _ = epoll.delete(fd);
            conns[token] = None;
            free.push(token);
            live = live.saturating_sub(1);
            live_gauge.set(live);
        }
        metrics.observe_recent();
    }
    // Shutdown: a final best-effort flush, then drop every connection
    // (closing its sessions and releasing its admission slot).
    for conn in conns.iter_mut().flatten() {
        conn.flush_out(metrics);
    }
    live_gauge.set(0);
}
