//! The `diffcond serve` TCP front-end: the line protocol of [`crate::protocol`]
//! served over sockets, turning the in-process engine into a network server.
//!
//! # Execution model
//!
//! A [`NetServer`] owns a listening socket, an accept loop
//! ([`NetServer::run`]), and [`NetConfig::reactors`] **reactor threads**
//! (the readiness-driven event loops of the `reactor` module).  The accept
//! loop only accepts, admission-checks, and hands each connection to the
//! least-loaded reactor; every socket after that is nonblocking and served
//! by readiness — one reactor thread multiplexes all of its connections
//! through a vendored `epoll` instance, so ten thousand mostly-idle
//! connections cost ten thousand small buffers, not ten thousand stacks.
//!
//! Every connection still gets a private session namespace — its own
//! [`crate::server_state::SessionRegistry`] of numbered slots behind a
//! per-connection [`Server`] — so two clients never see each other's
//! premises, knowns, or datasets, and all of a connection's slots close when
//! it disconnects.  Inside one connection the full protocol is available,
//! including the `session` verbs.  Parallelism comes from the reactor
//! threads, across connections.
//!
//! # Framing and flushing
//!
//! Requests are newline-delimited as specified in the *Network framing*
//! section of the [`crate::protocol`] docs: one request per line, an
//! optional trailing `\r` stripped, at most
//! [`protocol::MAX_REQUEST_BYTES`] bytes per line (configurable via
//! [`NetConfig::max_request_bytes`]).  With [`NetConfig::binary`] enabled a
//! connection may also negotiate the compact binary framing of
//! [`protocol::binary`] (see the *Binary framing* protocol docs).  Framing
//! violations — oversized lines (discarded up to their newline without
//! unbounded buffering) and invalid UTF-8 — answer `err` at their position
//! in the request order and the connection keeps serving.
//!
//! Each complete frame is answered by [`Server::respond`] the moment it is
//! parsed, on the reactor thread, and its reply is framed into the
//! connection's output buffer; the buffer is written out at the end of
//! every readiness burst (and mid-burst once it grows).  A client that
//! pipelines k requests gets k replies from one burst; a client that sends
//! one request and waits gets its reply before the reactor sleeps again.
//! Reply order is the request order in both cases, so the reply *stream*
//! is identical to what the in-process [`Server`] produces on the same
//! script.
//!
//! # Admission and shutdown
//!
//! At most [`NetConfig::max_connections`] connections are served at once;
//! past the cap a connection is answered one
//! `err server at connection capacity (…)` line and closed, leaving the
//! accept loop free (a slow client can occupy one slot, never the
//! listener).  `quit` ends only its own connection (reply `bye`, graceful
//! close after its output buffer drains); a client disconnecting mid-line
//! or mid-burst just ends that connection.  Writes to a client that vanished
//! surface as `EPIPE` errors (Rust ignores `SIGPIPE`), which close that
//! connection and nothing else.  A slow *reader* is absorbed by its
//! connection's coalescing output buffer up to a high-water mark, after
//! which the reactor stops reading that connection's requests until the
//! buffer drains (backpressure) — the reactor itself never blocks on a
//! write (the `reactor` module docs have the details).
//! [`ShutdownHandle::shutdown`] stops the accept loop, which then stops and
//! joins the reactors.
//!
//! [`Server`]: crate::protocol::Server
//! [`Server::respond`]: crate::protocol::Server::respond

use crate::metrics::EngineMetrics;
use crate::protocol;
use crate::reactor::ReactorShared;
use crate::session::SessionConfig;
use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Admission and serving parameters of a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Per-connection session configuration (cache bounds, budgets).
    pub session: SessionConfig,
    /// Concurrent-connection admission cap.
    pub max_connections: usize,
    /// Per-request line-length admission cap, in bytes.
    pub max_request_bytes: usize,
    /// Slow-query threshold in microseconds, forwarded to every
    /// connection's [`Server::set_slow_query_us`] (`None` disables the
    /// stderr log).
    ///
    /// [`Server::set_slow_query_us`]: crate::protocol::Server::set_slow_query_us
    pub slow_query_us: Option<u64>,
    /// Reactor event-loop threads serving the accepted connections
    /// (`--reactors`; clamped to at least 1).
    pub reactors: usize,
    /// Accept the binary-framing handshake of [`protocol::binary`]
    /// (`--binary`).  Off by default: without it the magic bytes parse as a
    /// malformed text line and answer a plain `err`.
    pub binary: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            session: SessionConfig::default(),
            max_connections: NetConfig::DEFAULT_MAX_CONNECTIONS,
            max_request_bytes: protocol::MAX_REQUEST_BYTES,
            slow_query_us: None,
            reactors: 1,
            binary: false,
        }
    }
}

impl NetConfig {
    /// Default concurrent-connection cap.
    pub const DEFAULT_MAX_CONNECTIONS: usize = 64;
}

/// Shared accept-loop state: the shutdown flag and the connection gauges.
#[derive(Debug, Default)]
pub(crate) struct NetState {
    shutdown: AtomicBool,
    active: AtomicUsize,
    served: AtomicU64,
    refused: AtomicU64,
}

/// Decrements the active-connection gauge when a connection is torn down —
/// held by the connection's reactor state, so a dropped connection can
/// never leak an admission slot no matter which path closed it.
pub(crate) struct ActiveGuard(Arc<NetState>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
        self.0.served.fetch_add(1, Ordering::Relaxed);
    }
}

/// A handle that stops a running [`NetServer`] accept loop from another
/// thread (tests, embedding examples, signal handlers).
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    state: Arc<NetState>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Flags shutdown and unblocks the accept loop (with a throwaway
    /// connection to the listener).  No new connections are accepted; the
    /// accept loop then stops the reactors, which make one last
    /// best-effort flush of every connection's output and close them.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `accept`; poke it awake.  Failure is
        // fine — it means the listener is already gone.
        let _ = TcpStream::connect(self.addr);
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.state.active.load(Ordering::SeqCst)
    }

    /// Connections served to completion since the server started.
    pub fn served_connections(&self) -> u64 {
        self.state.served.load(Ordering::Relaxed)
    }

    /// Connections refused at the admission cap.
    pub fn refused_connections(&self) -> u64 {
        self.state.refused.load(Ordering::Relaxed)
    }
}

/// A bound (but not yet running) `diffcond` TCP server.
#[derive(Debug)]
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
    config: NetConfig,
    state: Arc<NetState>,
}

impl NetServer {
    /// Binds the listening socket.  Bind to port 0 for an ephemeral port
    /// (tests, benches) and read it back with [`NetServer::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, config: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(NetServer {
            listener,
            addr,
            config,
            state: Arc::new(NetState::default()),
        })
    }

    /// The bound address (the actual port, when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop [`NetServer::run`] and read the gauges.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
            addr: self.addr,
        }
    }

    /// Runs the accept loop until [`ShutdownHandle::shutdown`] is called.
    /// The loop itself only accepts, admission-checks, and hands each
    /// connection to the least-loaded reactor thread; the reactors serve
    /// every admitted socket by readiness until shutdown, when they are
    /// stopped and joined.
    pub fn run(self) -> io::Result<()> {
        let metrics = EngineMetrics::global();
        let reactor_count = self.config.reactors.max(1);
        metrics.reactor_threads.set(reactor_count as u64);
        let mut reactors = Vec::with_capacity(reactor_count);
        let mut threads = Vec::with_capacity(reactor_count);
        for index in 0..reactor_count {
            let shared = ReactorShared::new(index)?;
            let handle = Arc::clone(&shared);
            let config = self.config;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("diffcond-reactor-{index}"))
                    .spawn(move || crate::reactor::run(handle, config))?,
            );
            reactors.push(shared);
        }
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                // Transient accept failures (aborted handshakes, fd
                // pressure) must not kill the serving loop.
                Err(_) => continue,
            };
            if self.state.active.load(Ordering::SeqCst) >= self.config.max_connections {
                self.state.refused.fetch_add(1, Ordering::Relaxed);
                refuse(stream, self.config.max_connections);
                continue;
            }
            self.state.active.fetch_add(1, Ordering::SeqCst);
            let guard = ActiveGuard(Arc::clone(&self.state));
            match reactors.iter().min_by_key(|reactor| reactor.load()) {
                Some(target) => target.inject(stream, guard),
                // Unreachable (`max(1, reactors)` reactors are spawned above),
                // but an accept loop must never panic: refuse and move on.
                None => refuse(stream, self.config.max_connections),
            }
        }
        for reactor in &reactors {
            reactor.request_stop();
        }
        for thread in threads {
            let _ = thread.join();
        }
        Ok(())
    }
}

/// Best-effort refusal at the admission cap: one `err` line, then close.
fn refuse(stream: TcpStream, cap: usize) {
    let mut stream = stream;
    let _ = writeln!(
        stream,
        "err server at connection capacity ({cap} connections)"
    );
}

/// One raw frame from a byte stream.  `pub(crate)` because only the
/// blocking [`crate::client`] reads frames this way, for its replies.  The
/// server frames requests in the reactor's own `parse_text`, so a framing
/// fix made here does not reach it; net_properties'
/// `malformed_frames_never_wedge_the_server` and
/// `framing_violations_answer_err_and_keep_the_connection` test the
/// server's framing.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A complete line (newline stripped) in the caller's buffer.
    Line,
    /// Data followed by EOF instead of a newline; the client treats it as
    /// a truncated reply from a dying server.
    Partial,
    /// A line over the cap, discarded up to its newline; payload is the
    /// discarded length in bytes.  The stream stays framed: the next read
    /// starts at the next line.
    Oversized(usize),
    /// Clean end of input.
    Eof,
}

/// Reads one newline-delimited frame into `line` (cleared first), enforcing
/// the byte cap without ever buffering more than the cap plus one internal
/// read: an over-cap line is *discarded* chunk by chunk until its newline.
pub(crate) fn read_frame(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    max: usize,
) -> io::Result<Frame> {
    line.clear();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(if line.is_empty() {
                Frame::Eof
            } else {
                Frame::Partial
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > max {
                    let dropped = line.len() + pos;
                    reader.consume(pos + 1);
                    return Ok(Frame::Oversized(dropped));
                }
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                return Ok(Frame::Line);
            }
            None => {
                let chunk = buf.len();
                if line.len() + chunk > max {
                    let swallowed = line.len() + chunk;
                    reader.consume(chunk);
                    return discard_frame(reader, swallowed);
                }
                line.extend_from_slice(buf);
                reader.consume(chunk);
            }
        }
    }
}

/// Discards the rest of an over-cap line (everything up to and including
/// the next newline) without buffering it, counting the dropped bytes.
fn discard_frame(reader: &mut impl BufRead, mut dropped: usize) -> io::Result<Frame> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            // Oversized garbage then disconnect: nothing left to answer.
            return Ok(Frame::Eof);
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                dropped += pos;
                reader.consume(pos + 1);
                return Ok(Frame::Oversized(dropped));
            }
            None => {
                let chunk = buf.len();
                dropped += chunk;
                reader.consume(chunk);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn frame_lines(input: &[u8], max: usize) -> Vec<Result<Vec<u8>, usize>> {
        let mut reader = BufReader::with_capacity(8, input);
        let mut line = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_frame(&mut reader, &mut line, max).unwrap() {
                Frame::Eof => return out,
                Frame::Line | Frame::Partial => out.push(Ok(line.clone())),
                Frame::Oversized(got) => out.push(Err(got)),
            }
        }
    }

    #[test]
    fn frames_split_on_newlines_and_keep_final_unterminated_line() {
        let frames = frame_lines(b"stats\nquit\nlast", 100);
        assert_eq!(
            frames,
            vec![
                Ok(b"stats".to_vec()),
                Ok(b"quit".to_vec()),
                Ok(b"last".to_vec())
            ]
        );
    }

    #[test]
    fn empty_lines_are_frames_not_eof() {
        let frames = frame_lines(b"\n\nok\n", 100);
        assert_eq!(frames, vec![Ok(vec![]), Ok(vec![]), Ok(b"ok".to_vec())]);
    }

    #[test]
    fn oversized_lines_are_discarded_with_exact_accounting() {
        // 30-byte line against a 10-byte cap, then a small follow-up that
        // must still arrive intact (the tiny 8-byte BufReader forces the
        // discard path across many fills).
        let mut input = vec![b'x'; 30];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let frames = frame_lines(&input, 10);
        assert_eq!(frames, vec![Err(30), Ok(b"ok".to_vec())]);
    }

    #[test]
    fn oversized_exactly_at_cap_is_served() {
        let mut input = vec![b'y'; 10];
        input.push(b'\n');
        let frames = frame_lines(&input, 10);
        assert_eq!(frames, vec![Ok(vec![b'y'; 10])]);
        let mut input = vec![b'y'; 11];
        input.push(b'\n');
        let frames = frame_lines(&input, 10);
        assert_eq!(frames, vec![Err(11)]);
    }

    #[test]
    fn oversized_then_eof_just_ends() {
        let frames = frame_lines(&[b'z'; 64], 10);
        assert_eq!(frames, vec![]);
    }
}
