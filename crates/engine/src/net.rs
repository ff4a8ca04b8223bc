//! The `diffcond serve` TCP front-end: the listener, admission, and
//! shutdown that put the line protocol of [`crate::protocol`] on sockets.
//!
//! # Execution model
//!
//! A [`NetServer`] owns a nonblocking listening socket and runs
//! [`NetConfig::reactors`] **reactors** (the readiness-driven event loops
//! of the `reactor` module), reactor 0 on the thread that called
//! [`NetServer::run`].  Each reactor's own epoll instance watches the
//! listener: a reactor whose wait reports it ready accepts until the
//! listener would block, admits each connection, and serves it from then
//! on by readiness.  With several reactors, whichever is idle in its wait
//! takes the next connection.  One reactor multiplexes all of its
//! connections through a vendored `epoll` instance, so ten thousand
//! mostly-idle connections cost ten thousand small buffers, not ten
//! thousand stacks.
//!
//! Every connection gets a private session namespace — its own
//! [`crate::server_state::SessionRegistry`] of numbered slots behind a
//! per-connection [`Server`] — so two clients never see each other's
//! premises, knowns, or datasets, and all of a connection's slots close when
//! it disconnects.  Inside one connection the full protocol is available,
//! including the `session` verbs.  Parallelism comes from the reactors,
//! across connections.
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
//! At most [`NetConfig::max_connections`] connections are served at once:
//! admission is one `fetch_add` on the shared active count.  Past the cap
//! a connection is answered one `err server at connection capacity (…)`
//! line, written without blocking, and closed.  `quit` ends only its own
//! connection (reply `bye`, graceful close after its output buffer
//! drains); a client disconnecting mid-line or mid-burst just ends that
//! connection.  Writes to a client that vanished surface as `EPIPE` errors
//! (Rust ignores `SIGPIPE`), which close that connection and nothing else.
//! A slow *reader* is absorbed by its connection's coalescing output buffer
//! up to a high-water mark, after which the reactor stops reading that
//! connection's requests until the buffer drains (backpressure) — the
//! reactor itself never blocks on a write (the `reactor` module docs have
//! the details).  A reactor busy with one connection's requests accepts
//! nothing until it waits again.
//!
//! [`ShutdownHandle::shutdown`] flags shutdown and writes one byte to the
//! stop signal, a socket pair whose read end every reactor watches.
//! Nothing drains it, so that byte wakes each reactor until it has made a
//! last best-effort flush of its connections, closed them, and exited;
//! [`NetServer::run`] returns once all have.
//!
//! [`Connection`]: crate::connection::Connection
//! [`Server`]: crate::protocol::Server

use crate::metrics::EngineMetrics;
use crate::protocol;
use crate::reactor;
use crate::session::SessionConfig;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
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
    /// Reactor event loops, each accepting and serving its own connections
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

/// State every reactor shares: the shutdown flag and the connection gauges.
#[derive(Debug, Default)]
pub(crate) struct NetState {
    shutdown: AtomicBool,
    active: AtomicUsize,
    served: AtomicU64,
    refused: AtomicU64,
}

impl NetState {
    /// Whether [`ShutdownHandle::shutdown`] has been called.
    pub(crate) fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Admits an accepted connection with one `fetch_add` on the active
    /// count.  Past `cap` the connection is answered one `err` line, best
    /// effort and without blocking, and closed when the caller drops it.
    pub(crate) fn admit(self: &Arc<Self>, stream: &TcpStream, cap: usize) -> Option<ActiveGuard> {
        if self.active.fetch_add(1, Ordering::SeqCst) < cap {
            return Some(ActiveGuard(Arc::clone(self)));
        }
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.refused.fetch_add(1, Ordering::Relaxed);
        let refusal = format!("err server at connection capacity ({cap} connections)\n");
        if stream.set_nonblocking(true).is_ok() {
            let _ = (&*stream).write_all(refusal.as_bytes());
        }
        None
    }
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

/// A handle that stops a running [`NetServer`] from another thread (tests,
/// embedding examples, signal handlers).
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    state: Arc<NetState>,
    /// The write end of the stop signal.
    stop: Arc<UnixStream>,
}

impl ShutdownHandle {
    /// Flags shutdown and wakes every reactor through the stop signal.  No
    /// new connections are accepted; each reactor makes one last
    /// best-effort flush of its connections' output and closes them.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // A full buffer means a byte is already waiting, which wakes the
        // reactors just as well.
        let _ = (&*self.stop).write(&[1]);
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
    /// The stop signal: every reactor watches `stop_rx`, and
    /// [`ShutdownHandle::shutdown`] writes `stop_tx`.
    stop_rx: UnixStream,
    stop_tx: Arc<UnixStream>,
}

impl NetServer {
    /// Binds the listening socket.  Bind to port 0 for an ephemeral port
    /// (tests, benches) and read it back with [`NetServer::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, config: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (stop_tx, stop_rx) = UnixStream::pair()?;
        stop_tx.set_nonblocking(true)?;
        Ok(NetServer {
            listener,
            addr,
            config,
            state: Arc::new(NetState::default()),
            stop_rx,
            stop_tx: Arc::new(stop_tx),
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
            stop: Arc::clone(&self.stop_tx),
        }
    }

    /// Runs the reactors until [`ShutdownHandle::shutdown`] is called:
    /// reactor 0 on the calling thread, the others on threads of their own.
    /// Each accepts, admits, and serves its own connections; `run` returns
    /// once every reactor has stopped.
    ///
    /// # Errors
    /// An epoll instance or a reactor thread that could not be created (the
    /// reactors already running are stopped first), or a reactor thread
    /// that panicked, which the others outlive.
    pub fn run(self) -> io::Result<()> {
        let count = self.config.reactors.max(1);
        EngineMetrics::global().reactor_threads.set(count as u64);
        let mut epolls = (0..count)
            .map(|_| reactor::watch(&self.listener, &self.stop_rx))
            .collect::<io::Result<Vec<_>>>()?;
        let first = epolls.remove(0);
        let serve = |index, epoll| {
            reactor::run(index, epoll, &self.listener, &self.state, &self.config);
        };
        std::thread::scope(|scope| {
            let mut threads = Vec::with_capacity(epolls.len());
            for (index, epoll) in (1..).zip(epolls) {
                let spawned = std::thread::Builder::new()
                    .name(format!("diffcond-reactor-{index}"))
                    .spawn_scoped(scope, move || serve(index, epoll));
                match spawned {
                    Ok(thread) => threads.push(thread),
                    Err(e) => {
                        // Stop the reactors already running, so the scope
                        // can join them.
                        self.shutdown_handle().shutdown();
                        return Err(e);
                    }
                }
            }
            serve(0, first);
            let panicked = threads
                .into_iter()
                .filter_map(|thread| thread.join().err())
                .count();
            if panicked == 0 {
                Ok(())
            } else {
                Err(io::Error::other(format!(
                    "{panicked} reactor thread(s) panicked"
                )))
            }
        })
    }
}
