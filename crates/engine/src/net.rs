//! The `diffcond serve` TCP front-end: the accept loop, admission, and
//! shutdown that put the line protocol of [`crate::protocol`] on sockets.
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
//! Every connection gets a private session namespace — its own
//! [`crate::server_state::SessionRegistry`] of numbered slots behind a
//! per-connection [`Server`] — so two clients never see each other's
//! premises, knowns, or datasets, and all of a connection's slots close when
//! it disconnects.  Inside one connection the full protocol is available,
//! including the `session` verbs.  Parallelism comes from the reactor
//! threads, across connections.
//!
//! Each connection's bytes go through a [`Connection`] driver, the one
//! `diffcond`'s stdin loop also uses: it frames requests (newline text
//! under [`NetConfig::max_request_bytes`], or with [`NetConfig::binary`]
//! the negotiated frames of [`protocol::binary`]), answers each in order,
//! and frames the replies, so the reply *stream* is identical to what the
//! in-process [`Server`] produces on the same script.  The *Network
//! framing* and *Binary framing* sections of the [`crate::protocol`] docs
//! give the wire rules.
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
//! [`Connection`]: crate::connection::Connection
//! [`Server`]: crate::protocol::Server

use crate::metrics::EngineMetrics;
use crate::protocol;
use crate::reactor::ReactorShared;
use crate::session::SessionConfig;
use std::io::{self, Write};
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
