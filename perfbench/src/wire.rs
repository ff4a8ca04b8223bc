//! Client side of the wire: connecting in either framing, reading reply
//! frames, and reducing each reply to the key the serial oracle compares.

use diffcon_engine::protocol::binary;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest reply the reader accepts.
const MAX_REPLY: usize = 1 << 20;

/// Opens a connection; in binary framing, negotiates it first.
pub fn connect(addr: SocketAddr, binary_framing: bool) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    if binary_framing {
        stream.write_all(&binary::MAGIC)?;
        let mut ack = [0u8; 5];
        stream.read_exact(&mut ack)?;
        if ack != binary::ACK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("binary handshake answered {ack:02x?}"),
            ));
        }
    }
    Ok(stream)
}

/// Buffered reply reader for either framing.
pub struct Replies {
    stream: TcpStream,
    binary: bool,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// When the bytes now in the buffer arrived.
    pub arrived: Instant,
}

impl Replies {
    pub fn new(stream: TcpStream, binary: bool) -> Replies {
        Replies {
            stream,
            binary,
            buf: vec![0; 1 << 18],
            start: 0,
            end: 0,
            arrived: Instant::now(),
        }
    }

    /// Sets the socket read timeout (`None` blocks).
    pub fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// The next complete reply, reading from the socket as needed.
    /// `Ok(None)` on end of stream; a read timeout surfaces as the
    /// `WouldBlock`/`TimedOut` error it is.
    pub fn next(&mut self) -> io::Result<Option<&[u8]>> {
        loop {
            if let Some((from, to, next)) = self.frame()? {
                self.start = next;
                return Ok(Some(&self.buf[from..to]));
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                if self.buf.len() >= MAX_REPLY {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "reply too long"));
                }
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = self.stream.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Ok(None);
            }
            self.arrived = Instant::now();
            self.end += n;
        }
    }

    /// Bounds of the first complete reply payload in the buffer and the
    /// offset after its frame.
    fn frame(&self) -> io::Result<Option<(usize, usize, usize)>> {
        let pending = &self.buf[self.start..self.end];
        if self.binary {
            match binary::decode_reply(pending, MAX_REPLY) {
                binary::DecodedReply::Frame(payload, len) => Ok(Some((
                    self.start + 5,
                    self.start + 5 + payload.len(),
                    self.start + len,
                ))),
                binary::DecodedReply::Incomplete => Ok(None),
                binary::DecodedReply::Fatal(e) => {
                    Err(io::Error::new(io::ErrorKind::InvalidData, e))
                }
            }
        } else {
            Ok(pending.iter().position(|&b| b == b'\n').map(|at| {
                let line_end = self.start + at;
                (self.start, line_end, line_end + 1)
            }))
        }
    }
}

/// The oracle comparison key of a reply: an FNV-1a hash of its
/// space-separated fields, skipping the `cached=`, `us=` and `route=` fields
/// (cache state, timing and routing may differ between the server and the
/// serial oracle without the answer differing).
pub fn reply_key(reply: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for field in reply.split(|&b| b == b' ') {
        if field.is_empty()
            || field.starts_with(b"cached=")
            || field.starts_with(b"us=")
            || field.starts_with(b"route=")
        {
            continue;
        }
        for &b in field.iter().chain(b" ") {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
    hash
}

/// Whether a reply is an `err` reply.
pub fn is_err(reply: &[u8]) -> bool {
    reply.starts_with(b"err")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_ignore_cache_timing_and_route_fields() {
        assert_eq!(
            reply_key(b"yes route=fd cached=0 us=12"),
            reply_key(b"yes route=lattice cached=1 us=0")
        );
        assert_ne!(reply_key(b"yes route=fd"), reply_key(b"no route=fd"));
        assert_ne!(
            reply_key(b"bound lo=1 hi=4 exact=0 route=cached cached=1 us=0"),
            reply_key(b"bound lo=1 hi=5 exact=0 route=cached cached=1 us=0")
        );
    }
}
