//! The connection driver: everything between a transport's bytes and
//! [`Server::respond`], with no IO of its own.
//!
//! A [`Connection`] owns one connection's [`Server`] and its unparsed
//! input.  The transport hands it each chunk it reads
//! ([`Connection::feed`]) and the end of its input
//! ([`Connection::finish`]); the driver frames every complete request,
//! answers it at its position in the request order, frames the reply into
//! the transport's [`Output`], and stages the request's record.  The
//! reactor's sockets ([`crate::net`]) and `diffcond`'s stdin loop drive it;
//! the blocking [`crate::client::Client`] splits its text replies with the
//! same line splitter.
//!
//! The driver owns:
//!
//! * **negotiation** — when binary is allowed, input that opens with
//!   [`binary::MAGIC`] switches to binary frames (answered
//!   [`binary::ACK`]); anything else, a magic prefix that diverges or ends
//!   the input included, is text;
//! * **text lines** — split on `\n`; a line over the admission cap is
//!   discarded up to its newline without being buffered and answered `err`
//!   at its position, and a final unterminated line is served at the end of
//!   input;
//! * **binary frames** — decoded by [`binary::decode_request`] straight from
//!   the input buffer; a corrupt header is answered `err` and closes the
//!   connection, and a frame cut off by the end of input is dropped;
//! * **`quit`** — it closes the connection, and input after it is ignored;
//! * **reply framing** — a newline, or a `00` header;
//! * **records** — one clock reading per stage boundary (the reading that
//!   closes a request's `reply` stage opens the next request's `frame`
//!   stage, and the reading [`Server::respond`] closes `plan` with opens
//!   `reply`), the bytes each request took in and gave out, the binary
//!   handshake included, and one [`Server::stage`] per request;
//! * **publication** — the staged records are committed once per read
//!   burst: when [`Connection::feed`] or [`Connection::finish`] returns
//!   ([`Server::publish`]), as well as when a batch fills and before a
//!   request that reads them or changes the current session, which the
//!   server sees to, and when the driver is dropped.  A transport writes
//!   the replies a call framed after it returns, so every reply leaves
//!   with its own record and all earlier ones committed.
//!
//! A handshake no reply carried is billed when the driver is dropped, so a
//! connection's byte series always add up to what crossed the wire.

use crate::metrics::FlightRecord;
use crate::protocol::{self, binary, Server};
use diffcon_obs::profile::{self, StageTag};
use std::time::Instant;

/// Profiling tag for framing replies into the transport's output (the
/// reactor tags its vectored flushes with the same stage).
pub(crate) static STAGE_NET_WRITE: StageTag = StageTag::new("net.write");

/// Where a [`Connection`] frames its replies.
pub trait Output {
    /// Appends framed reply bytes.
    fn append(&mut self, bytes: &[u8]);
}

impl Output for Vec<u8> {
    fn append(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Newline framing under a byte cap, applied to the front of a caller's
/// unparsed input.  The end of input is the caller's rule: the server
/// serves a final unterminated line, the client reports the connection
/// closed.
#[derive(Debug)]
pub(crate) struct LineSplitter {
    max: usize,
    /// Bytes of an over-cap line dropped so far, while its newline is
    /// awaited.
    discarding: Option<usize>,
    /// Bytes at the front of the caller's input that the last split
    /// searched without finding a newline, and left there: a long line is
    /// searched once, not once per read.
    searched: usize,
}

/// One step of [`LineSplitter::split`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Split<'a> {
    /// A complete line, its newline stripped.
    Line(&'a [u8]),
    /// A line over the cap, discarded through its newline; the payload is
    /// its length without the newline.
    Oversized(usize),
    /// No complete line yet.
    Pending,
}

impl LineSplitter {
    /// A splitter for lines of at most `max` bytes, newline excluded.
    pub(crate) fn new(max: usize) -> LineSplitter {
        LineSplitter {
            max,
            discarding: None,
            searched: 0,
        }
    }

    /// Splits the next line off the front of `buf`, and says how many bytes
    /// of `buf` the caller consumes.  An over-cap line's bytes are consumed
    /// as they arrive, so a line is never buffered past the cap.
    pub(crate) fn split<'a>(&mut self, buf: &'a [u8]) -> (Split<'a>, usize) {
        // Clamped: the server consumes a final unterminated line itself.
        let from = self.searched.min(buf.len());
        match buf[from..].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let pos = from + pos;
                self.searched = 0;
                let got = self.discarding.take().unwrap_or(0) + pos;
                if got > self.max {
                    (Split::Oversized(got), pos + 1)
                } else {
                    (Split::Line(&buf[..pos]), pos + 1)
                }
            }
            None => {
                let got = self.discarding.unwrap_or(0) + buf.len();
                if got > self.max {
                    self.discarding = Some(got);
                    self.searched = 0;
                    (Split::Pending, buf.len())
                } else {
                    self.searched = buf.len();
                    (Split::Pending, 0)
                }
            }
        }
    }
}

/// A connection's framing, settled by its first bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// Binary is allowed and the first bytes are a prefix of
    /// [`binary::MAGIC`] so far.
    Negotiating,
    /// Newline-delimited text lines.
    Text,
    /// Length-prefixed [`protocol::binary`] frames.
    Binary,
}

/// Nanoseconds between two clock readings (zero if they run backwards).
fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// One connection's driver: its [`Server`], its unparsed input, and the
/// reply buffer every answer is formatted into.  See the module docs.
#[derive(Debug)]
pub struct Connection {
    server: Server,
    /// Bytes received; `[at..]` is the unparsed tail.
    input: Vec<u8>,
    at: usize,
    /// Splits text lines under the admission cap, which also caps binary
    /// frames.
    lines: LineSplitter,
    framing: Framing,
    /// `quit`, a corrupt binary header, or the end of input was seen:
    /// nothing more is served.
    closed: bool,
    /// Reply text of the request being served, reused across requests.
    reply: String,
    /// Binary handshake bytes (each way) no record has carried yet: the
    /// next reply bills them.
    handshake: u64,
}

impl Connection {
    /// A driver for `server`'s connection.  `max_request_bytes` caps a
    /// request line or binary frame (`usize::MAX` for no cap); `binary`
    /// lets the first bytes negotiate the binary framing.
    pub fn new(server: Server, max_request_bytes: usize, binary: bool) -> Connection {
        Connection {
            server,
            input: Vec::new(),
            at: 0,
            lines: LineSplitter::new(max_request_bytes),
            framing: if binary {
                Framing::Negotiating
            } else {
                Framing::Text
            },
            closed: false,
            reply: String::new(),
            handshake: 0,
        }
    }

    /// Serves every request `bytes` completes, framing the replies into
    /// `out`, and publishes their records.  Returns whether the connection
    /// is closed (by `quit` or a corrupt binary header): it then ignores
    /// further input, and the transport closes once `out` is written.
    pub fn feed(&mut self, bytes: &[u8], out: &mut impl Output) -> bool {
        if !self.closed {
            self.input.extend_from_slice(bytes);
            self.serve(false, out);
            self.input.drain(..self.at);
            self.at = 0;
            self.server.publish();
        }
        self.closed
    }

    /// Ends the input: serves a final unterminated text line, unless the
    /// connection is already closed, publishes the records, and closes it.
    pub fn finish(&mut self, out: &mut impl Output) {
        if !self.closed {
            self.serve(true, out);
            self.closed = true;
            self.server.publish();
        }
    }

    /// Serves every complete request in the unparsed tail; at the end of
    /// input (`eof`), an unterminated text line too.
    fn serve(&mut self, eof: bool, out: &mut impl Output) {
        if self.framing == Framing::Negotiating {
            self.negotiate(eof, out);
        }
        let max = self.lines.max;
        let mut frame_start = Instant::now();
        while !self.closed {
            let buf = &self.input[self.at..];
            // The request (or the message of a framing violation the server
            // never sees), the bytes it consumes, and the bytes it bills.
            let (frame, used, bytes_in) = match self.framing {
                Framing::Negotiating => return,
                Framing::Text => match self.lines.split(buf) {
                    (Split::Line(line), used) => (Ok(binary::BinRequest::Line(line)), used, used),
                    (Split::Oversized(got), used) => {
                        (Err(protocol::oversized_request(got, max)), used, got + 1)
                    }
                    (Split::Pending, 0) if eof && !buf.is_empty() => {
                        (Ok(binary::BinRequest::Line(buf)), buf.len(), buf.len())
                    }
                    (Split::Pending, used) => {
                        self.at += used;
                        return;
                    }
                },
                Framing::Binary => match binary::decode_request(buf, max) {
                    binary::Decoded::Frame(request, used) => (Ok(request), used, used),
                    binary::Decoded::Incomplete => return,
                    // A corrupt length-prefixed stream cannot resync: one
                    // err, billed every byte still buffered, then close.
                    binary::Decoded::Fatal(message) => {
                        self.closed = true;
                        (Err(message), buf.len(), buf.len())
                    }
                },
            };
            self.at += used;
            let framed = Instant::now();
            self.reply.clear();
            let answer = match &frame {
                Ok(request) => self.server.respond(request, framed, &mut self.reply),
                Err(message) => self.server.refuse(message, framed, &mut self.reply),
            };
            let mut record = answer.record;
            record.frame_ns = nanos(frame_start, framed);
            record.bytes_in = bytes_in as u64;
            frame_start = self.emit(record, answer.done, out);
            self.closed |= answer.quit;
        }
    }

    /// Settles the framing once the first bytes say which it is.
    fn negotiate(&mut self, eof: bool, out: &mut impl Output) {
        if self.input.starts_with(&binary::MAGIC) {
            self.at = binary::MAGIC.len();
            self.framing = Framing::Binary;
            out.append(&binary::ACK);
            // MAGIC and ACK are the same length: the handshake's bytes each
            // way, carried by the next reply's record.
            self.handshake = binary::ACK.len() as u64;
        } else if eof || !binary::MAGIC.starts_with(&self.input) {
            self.framing = Framing::Text;
        }
    }

    /// Frames the reply buffer into `out` (a silent request writes
    /// nothing), closes the `reply` stage opened at `done`, and stages the
    /// request's record.  Returns the reading that closed the stage.
    fn emit(&mut self, mut record: FlightRecord, done: Instant, out: &mut impl Output) -> Instant {
        let end = if self.reply.is_empty() {
            done
        } else {
            let write_stage = profile::stage(&STAGE_NET_WRITE);
            let text = self.reply.as_bytes();
            let framed = if self.framing == Framing::Binary {
                let header = binary::line_header(text.len());
                out.append(&header);
                out.append(text);
                header.len() + text.len()
            } else {
                out.append(text);
                out.append(b"\n");
                text.len() + 1
            } as u64;
            // The first reply also carries the binary handshake, so a
            // silent request still writes 0 bytes.
            let handshake = std::mem::take(&mut self.handshake);
            record.bytes_in += handshake;
            record.bytes_out = framed + handshake;
            drop(write_stage);
            Instant::now()
        };
        record.reply_ns = nanos(done, end);
        self.server.stage(&record);
        end
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // A handshake that no reply carried still crossed the wire: bill its
        // bytes without a request.
        if self.handshake > 0 {
            self.server.bill(self.handshake, self.handshake);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits `input` fed in chunks of `chunk` bytes, as a transport that
    /// buffers unparsed bytes would; a final unterminated line is kept, as
    /// the server keeps it.
    fn frame_lines(input: &[u8], max: usize, chunk: usize) -> Vec<Result<Vec<u8>, usize>> {
        let mut lines = LineSplitter::new(max);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        for piece in input.chunks(chunk) {
            buf.extend_from_slice(piece);
            loop {
                let (split, used) = lines.split(&buf);
                let line = match split {
                    Split::Line(line) => Ok(line.to_vec()),
                    Split::Oversized(got) => Err(got),
                    Split::Pending => {
                        buf.drain(..used);
                        break;
                    }
                };
                buf.drain(..used);
                out.push(line);
            }
        }
        if !buf.is_empty() {
            out.push(Ok(buf));
        }
        out
    }

    #[test]
    fn frames_split_on_newlines_and_keep_final_unterminated_line() {
        let frames = frame_lines(b"stats\nquit\nlast", 100, 8);
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
        let frames = frame_lines(b"\n\nok\n", 100, 8);
        assert_eq!(frames, vec![Ok(vec![]), Ok(vec![]), Ok(b"ok".to_vec())]);
    }

    #[test]
    fn oversized_lines_are_discarded_with_exact_accounting() {
        // A 30-byte line against a 10-byte cap, then a small follow-up that
        // must still arrive intact (8-byte chunks force the discard across
        // many reads).
        let mut input = vec![b'x'; 30];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let frames = frame_lines(&input, 10, 8);
        assert_eq!(frames, vec![Err(30), Ok(b"ok".to_vec())]);
    }

    #[test]
    fn oversized_exactly_at_cap_is_served() {
        let mut input = vec![b'y'; 10];
        input.push(b'\n');
        let frames = frame_lines(&input, 10, 8);
        assert_eq!(frames, vec![Ok(vec![b'y'; 10])]);
        let mut input = vec![b'y'; 11];
        input.push(b'\n');
        let frames = frame_lines(&input, 10, 8);
        assert_eq!(frames, vec![Err(11)]);
    }

    #[test]
    fn oversized_then_eof_just_ends() {
        let frames = frame_lines(&[b'z'; 64], 10, 8);
        assert_eq!(frames, vec![]);
    }
}
