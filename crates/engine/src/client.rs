//! A small blocking client for the `diffcond serve` TCP front-end
//! ([`crate::net`]): connect, send request lines, read reply lines, with
//! typed errors instead of panics on every failure mode untrusted networks
//! produce (disconnects, oversized replies, server-side `err` responses).
//!
//! The client speaks exactly the framing of the *Network framing* section
//! in the [`crate::protocol`] docs: it sends one request per
//! newline-terminated line and expects one reply line per non-silent
//! request, in request order.  Against a `serve --binary` server,
//! [`Client::connect_binary`] negotiates the compact binary framing of
//! [`protocol::binary`] instead — same verbs, same reply text, length-
//! prefixed frames, plus the fixed-width mask senders
//! ([`Client::send_implies_mask`] and friends) for the hot query verbs.
//! Two calling styles are supported either way:
//!
//! * **strict** — [`Client::request`] sends one line and blocks for its
//!   reply (the server answers each request as it is parsed and writes
//!   the reply out before it waits for more input);
//! * **pipelined** — [`Client::run_script`] writes a whole script in one
//!   burst and then collects the reply stream, which is how the bench load
//!   generator and the equivalence tests drive the server at full
//!   throughput.
//!
//! ```no_run
//! use diffcon_engine::client::Client;
//!
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! client.request("universe 4")?;
//! client.request("assert A -> {B}")?;
//! assert!(client.request("implies A -> {B}")?.starts_with("yes"));
//! let interval = client.bound("AB")?;
//! assert_eq!(interval.lo, 0.0);
//! client.quit()?;
//! # Ok::<(), diffcon_engine::client::ClientError>(())
//! ```

use crate::connection::{LineSplitter, Split};
use crate::protocol;
use diffcon_bounds::Interval;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything that can go wrong between a client call and its reply.
#[derive(Debug)]
pub enum ClientError {
    /// A transport failure (connect, send, or receive).
    Io(io::Error),
    /// The server closed the connection where a reply was expected.
    Closed,
    /// The request is not sendable as one protocol line (embedded newline,
    /// or a silent blank/comment line passed to a call that expects a
    /// reply).  The payload says which rule was violated.
    Request(String),
    /// The server answered `err …`; the payload is the message after the
    /// `err ` head.
    Server(String),
    /// The server's reply violates the response grammar the call expected
    /// (or exceeds the reply-length cap).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Closed => f.write_str("server closed the connection"),
            ClientError::Request(m) => write!(f, "unsendable request: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "malformed reply: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Cap on one reply line, so a rogue server cannot make a client buffer
/// unboundedly.  Replies can legitimately be long (`premises`/`mined`
/// listings), so the cap is a multiple of the request cap.
pub const MAX_REPLY_BYTES: usize = 4 * protocol::MAX_REQUEST_BYTES;

/// A blocking `diffcond` protocol connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
    /// Splits text replies under [`MAX_REPLY_BYTES`].
    lines: LineSplitter,
    /// Text reply bytes read; `[at..]` is the unsplit tail.
    pending: Vec<u8>,
    at: usize,
}

/// `read_exact` with the client's EOF convention: a close where reply
/// bytes were expected is [`ClientError::Closed`], not an IO error.
fn read_exact_or_closed(reader: &mut impl Read, buf: &mut [u8]) -> Result<(), ClientError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ClientError::Closed
        } else {
            ClientError::Io(e)
        }
    })
}

impl Client {
    /// Connects to a serving `diffcond serve` address.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Client::over(stream)
    }

    /// Connects with a timeout (needs a resolved address).
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Client::over(stream)
    }

    /// Connects and negotiates the binary framing (the server must run
    /// with `serve --binary`).
    ///
    /// # Errors
    /// [`ClientError::Protocol`] when the server does not acknowledge the
    /// handshake — a text-only server answers the magic with a plain `err`
    /// line, which is reported verbatim (the probe fails fast; it never
    /// hangs).
    pub fn connect_binary(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Client::over_binary(stream)
    }

    /// [`Client::connect_binary`] with a connect timeout.
    pub fn connect_binary_timeout(
        addr: &SocketAddr,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Client::over_binary(stream)
    }

    /// Wraps an already-connected stream.
    pub fn over(stream: TcpStream) -> Result<Client, ClientError> {
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            binary: false,
            lines: LineSplitter::new(MAX_REPLY_BYTES),
            pending: Vec::new(),
            at: 0,
        })
    }

    /// Wraps an already-connected stream and negotiates binary framing
    /// (see [`Client::connect_binary`]).
    pub fn over_binary(stream: TcpStream) -> Result<Client, ClientError> {
        let mut client = Client::over(stream)?;
        client.writer.write_all(&protocol::binary::MAGIC)?;
        client.writer.flush()?;
        let mut ack = [0u8; protocol::binary::ACK.len()];
        read_exact_or_closed(&mut client.reader, &mut ack)?;
        if ack == protocol::binary::ACK {
            client.binary = true;
            return Ok(client);
        }
        // Not an ACK: a text-only server answered the magic with an `err`
        // line.  Collect the rest of it so the error says what happened.
        let mut line = String::from_utf8_lossy(&ack).into_owned();
        line.push_str(&client.recv_text().unwrap_or_default());
        Err(ClientError::Protocol(format!(
            "server did not acknowledge binary framing: `{}`",
            line.trim_end()
        )))
    }

    /// `true` when the connection negotiated binary framing.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Sets (or clears, with `None`) the receive timeout; a timed-out
    /// [`Client::recv`] returns [`ClientError::Io`] and the connection
    /// stays usable.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request line without waiting for anything back (the
    /// pipelined style; pair with [`Client::recv`]).  On a binary
    /// connection the line travels as one length-prefixed `line` frame;
    /// the request grammar is identical.
    ///
    /// # Errors
    /// [`ClientError::Request`] if `request` embeds a newline — it would
    /// silently become two protocol frames.
    pub fn send(&mut self, request: &str) -> Result<(), ClientError> {
        if request.contains('\n') || request.contains('\r') {
            return Err(ClientError::Request(format!(
                "request `{}` embeds a line break",
                request.escape_debug()
            )));
        }
        if self.binary {
            let mut frame = Vec::with_capacity(request.len() + 5);
            protocol::binary::encode_line(request, &mut frame);
            self.writer.write_all(&frame)?;
        } else {
            self.writer.write_all(request.as_bytes())?;
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        Ok(())
    }

    /// Sends one fixed-width binary `implies lhs -> {rhs…}` frame over
    /// attribute bitmasks (bit `i` = the universe's `i`-th attribute) —
    /// the zero-parse hot path of the binary framing.  Pair with
    /// [`Client::recv`]; the reply text is identical to the text verb's.
    ///
    /// # Errors
    /// [`ClientError::Request`] on a text connection: masks have no text
    /// encoding at this layer.
    pub fn send_implies_mask(&mut self, lhs: u64, rhs: &[u64]) -> Result<(), ClientError> {
        self.mask_frame(|out| protocol::binary::encode_implies(lhs, rhs, out))
    }

    /// Sends one fixed-width binary `assert lhs -> {rhs…}` frame over
    /// attribute bitmasks (see [`Client::send_implies_mask`]).
    pub fn send_assert_mask(&mut self, lhs: u64, rhs: &[u64]) -> Result<(), ClientError> {
        self.mask_frame(|out| protocol::binary::encode_assert(lhs, rhs, out))
    }

    /// Sends one fixed-width binary `bound set` frame over an attribute
    /// bitmask (see [`Client::send_implies_mask`]).
    pub fn send_bound_mask(&mut self, set: u64) -> Result<(), ClientError> {
        self.mask_frame(|out| protocol::binary::encode_bound(set, out))
    }

    fn mask_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), ClientError> {
        if !self.binary {
            return Err(ClientError::Request(
                "mask frames need a binary connection (Client::connect_binary)".into(),
            ));
        }
        let mut frame = Vec::with_capacity(32);
        encode(&mut frame);
        self.writer.write_all(&frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Receives one reply line (blocking).  The read is capped at
    /// [`MAX_REPLY_BYTES`] *as it arrives*, so a rogue peer cannot make
    /// the client buffer an endless line.
    pub fn recv(&mut self) -> Result<String, ClientError> {
        if self.binary {
            self.recv_binary()
        } else {
            self.recv_text()
        }
    }

    /// One reply line, split by the server's own line splitter.
    fn recv_text(&mut self) -> Result<String, ClientError> {
        loop {
            let (split, used) = self.lines.split(&self.pending[self.at..]);
            self.at += used;
            match split {
                Split::Line(line) => {
                    let line = line.strip_suffix(b"\r").unwrap_or(line);
                    return std::str::from_utf8(line)
                        .map(str::to_owned)
                        .map_err(|_| ClientError::Protocol("reply is not valid UTF-8".into()));
                }
                // An over-cap reply was *discarded to its newline*, so the
                // stream stays framed: the error names this reply only, and
                // the next `recv` reads the next reply, not this line's tail.
                Split::Oversized(got) => {
                    return Err(ClientError::Protocol(format!(
                        "reply line exceeds {MAX_REPLY_BYTES} bytes (got {got}; discarded)"
                    )))
                }
                Split::Pending => {}
            }
            self.pending.drain(..self.at);
            self.at = 0;
            let chunk = match self.reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if chunk.is_empty() {
                // EOF where a reply was expected — including EOF mid-line
                // (the server died while writing): no reply to return.
                return Err(ClientError::Closed);
            }
            let read = chunk.len();
            self.pending.extend_from_slice(chunk);
            self.reader.consume(read);
        }
    }

    /// One length-prefixed reply frame, under the same cap and resync
    /// policy as the text path: an over-cap frame is read off the wire and
    /// discarded, so the next `recv` sees the next reply.
    fn recv_binary(&mut self) -> Result<String, ClientError> {
        let mut header = [0u8; 5];
        read_exact_or_closed(&mut self.reader, &mut header)?;
        if header[0] != protocol::binary::TAG_LINE {
            return Err(ClientError::Protocol(format!(
                "unknown reply frame tag 0x{:02x}",
                header[0]
            )));
        }
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
        if len > MAX_REPLY_BYTES {
            let mut remaining = len;
            let mut sink = [0u8; 4096];
            while remaining > 0 {
                let take = remaining.min(sink.len());
                read_exact_or_closed(&mut self.reader, &mut sink[..take])?;
                remaining -= take;
            }
            return Err(ClientError::Protocol(format!(
                "reply frame exceeds {MAX_REPLY_BYTES} bytes (got {len}; discarded)"
            )));
        }
        let mut payload = vec![0u8; len];
        read_exact_or_closed(&mut self.reader, &mut payload)?;
        String::from_utf8(payload)
            .map_err(|_| ClientError::Protocol("reply is not valid UTF-8".into()))
    }

    /// Sends one request and returns its raw reply line, whatever it is
    /// (`err …` included) — the byte-faithful form the equivalence tests
    /// compare against in-process serving.
    ///
    /// # Errors
    /// [`ClientError::Request`] for silent lines (blank / `#` comment):
    /// they produce no reply, so waiting for one would hang.
    pub fn raw_request(&mut self, request: &str) -> Result<String, ClientError> {
        if protocol::is_silent(request) {
            return Err(ClientError::Request(format!(
                "`{}` is a silent line and gets no reply",
                request.escape_debug()
            )));
        }
        self.send(request)?;
        self.recv()
    }

    /// Sends one request and returns its reply, mapping a server-side
    /// `err …` reply to [`ClientError::Server`].
    pub fn request(&mut self, request: &str) -> Result<String, ClientError> {
        let reply = self.raw_request(request)?;
        match reply.strip_prefix("err ") {
            Some(message) => Err(ClientError::Server(message.to_string())),
            None => Ok(reply),
        }
    }

    /// Pipelines a whole script — writes every line while *concurrently*
    /// draining the reply stream — and returns one reply per non-silent
    /// line, in request order.  Don't put `quit` anywhere but last: the
    /// server stops reading at it.
    ///
    /// The burst is written from a helper thread so replies are consumed
    /// as they arrive: a script larger than the socket buffers would
    /// otherwise deadlock both sides (the server blocked writing replies
    /// nobody reads, the client blocked writing requests nobody scans).
    pub fn run_script<'a>(
        &mut self,
        lines: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<String>, ClientError> {
        let mut expected = 0usize;
        let mut burst = Vec::new();
        for line in lines {
            if line.contains('\n') || line.contains('\r') {
                return Err(ClientError::Request(format!(
                    "script line `{}` embeds a line break",
                    line.escape_debug()
                )));
            }
            if self.binary {
                protocol::binary::encode_line(line, &mut burst);
            } else {
                burst.extend_from_slice(line.as_bytes());
                burst.push(b'\n');
            }
            if !protocol::is_silent(line) {
                expected += 1;
            }
        }
        self.run_frames(burst, expected)
    }

    /// Pipelines an already-encoded request burst — text lines or binary
    /// frames built with the [`protocol::binary`] encoders — and collects
    /// `expected` replies, in request order.  This is the load-generator
    /// hot path: the burst is encoded once, written from a helper thread,
    /// and the reply stream drained concurrently (a burst larger than the
    /// socket buffers would otherwise deadlock both sides).
    pub fn run_frames(
        &mut self,
        burst: Vec<u8>,
        expected: usize,
    ) -> Result<Vec<String>, ClientError> {
        let mut write_half = self.writer.try_clone()?;
        let writer = std::thread::spawn(move || -> io::Result<()> {
            write_half.write_all(&burst)?;
            write_half.flush()
        });
        let mut replies = Vec::with_capacity(expected);
        let mut read_error = None;
        for _ in 0..expected {
            match self.recv() {
                Ok(reply) => replies.push(reply),
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            }
        }
        if read_error.is_some() {
            // Unblock the writer thread if it is parked on a full socket
            // buffer: after shutdown its writes fail fast instead.
            let _ = self.writer.shutdown(std::net::Shutdown::Both);
        }
        let write_result = writer.join().expect("script writer thread panicked");
        if let Some(e) = read_error {
            return Err(e);
        }
        write_result?;
        Ok(replies)
    }

    /// Sends `bound <set>` and parses the interval reply into its typed
    /// endpoints via [`Interval::parse_endpoints`] — the round trip the
    /// wire-format property suite guarantees is exact.
    pub fn bound(&mut self, set: &str) -> Result<Interval, ClientError> {
        let reply = self.request(&format!("bound {set}"))?;
        let mut lo = None;
        let mut hi = None;
        if !reply.starts_with("bound ") {
            return Err(ClientError::Protocol(format!(
                "expected a `bound` reply, got `{reply}`"
            )));
        }
        for field in reply.split_whitespace().skip(1) {
            if let Some(text) = field.strip_prefix("lo=") {
                lo = Some(text);
            } else if let Some(text) = field.strip_prefix("hi=") {
                hi = Some(text);
            }
        }
        match (lo, hi) {
            (Some(lo), Some(hi)) => Interval::parse_endpoints(lo, hi)
                .map_err(|e| ClientError::Protocol(format!("in `{reply}`: {e}"))),
            _ => Err(ClientError::Protocol(format!(
                "bound reply without lo/hi fields: `{reply}`"
            ))),
        }
    }

    /// Ends the conversation gracefully: sends `quit`, checks the `bye`,
    /// and waits for the server's close.
    pub fn quit(mut self) -> Result<(), ClientError> {
        let reply = self.raw_request("quit")?;
        if reply != "bye" {
            return Err(ClientError::Protocol(format!(
                "expected `bye` to quit, got `{reply}`"
            )));
        }
        match self.recv() {
            Err(ClientError::Closed) => Ok(()),
            Ok(extra) => Err(ClientError::Protocol(format!(
                "server kept talking after `bye`: `{extra}`"
            ))),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};

    /// A fake server: accepts one connection, writes `payload`, closes.
    fn fake_server(payload: Vec<u8>) -> SocketAddr {
        fake_server_after(0, payload)
    }

    /// A fake server that first reads `expect` bytes (a handshake), so it
    /// closes with nothing unread.
    fn fake_server_after(expect: usize, payload: Vec<u8>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.read_exact(&mut vec![0; expect]).unwrap();
            stream.write_all(&payload).unwrap();
        });
        addr
    }

    #[test]
    fn over_cap_replies_error_without_desyncing_the_stream() {
        let mut payload = vec![b'x'; MAX_REPLY_BYTES + 10];
        payload.push(b'\n');
        payload.extend_from_slice(b"ok next\n");
        let mut client = Client::connect(fake_server(payload)).unwrap();
        match client.recv() {
            Err(ClientError::Protocol(m)) => {
                assert!(m.contains("exceeds"), "got: {m}");
                assert!(m.contains(&(MAX_REPLY_BYTES + 10).to_string()), "got: {m}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        // The oversized line was discarded to its newline, so the stream
        // stays framed: the next recv returns the *next* reply, not the
        // tail of the huge one.
        assert_eq!(client.recv().unwrap(), "ok next");
    }

    #[test]
    fn over_cap_binary_replies_error_without_desyncing_the_stream() {
        let mut payload = protocol::binary::ACK.to_vec();
        payload.extend_from_slice(&protocol::binary::line_header(MAX_REPLY_BYTES + 10));
        payload.resize(payload.len() + MAX_REPLY_BYTES + 10, b'x');
        protocol::binary::encode_line("ok next", &mut payload);
        let addr = fake_server_after(protocol::binary::MAGIC.len(), payload);
        let mut client = Client::connect_binary(addr).unwrap();
        match client.recv() {
            Err(ClientError::Protocol(m)) => {
                assert!(m.contains("exceeds"), "got: {m}");
                assert!(m.contains(&(MAX_REPLY_BYTES + 10).to_string()), "got: {m}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        // The oversized frame was read off the wire and discarded, so the
        // next recv returns the next reply frame.
        assert_eq!(client.recv().unwrap(), "ok next");
    }

    #[test]
    fn truncated_and_closed_replies_report_closed() {
        let mut client = Client::connect(fake_server(b"reply cut off mid-line".to_vec())).unwrap();
        assert!(matches!(client.recv(), Err(ClientError::Closed)));
        let mut client = Client::connect(fake_server(Vec::new())).unwrap();
        assert!(matches!(client.recv(), Err(ClientError::Closed)));
    }

    #[test]
    fn requests_with_line_breaks_are_rejected_before_sending() {
        let mut client = Client::connect(fake_server(Vec::new())).unwrap();
        assert!(matches!(
            client.send("stats\nquit"),
            Err(ClientError::Request(_))
        ));
        assert!(matches!(
            client.raw_request("   "),
            Err(ClientError::Request(_))
        ));
    }
}
