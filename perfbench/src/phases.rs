//! The end-to-end phases against a real `diffcond serve` process: set-up,
//! strict (closed loop), pipelined, and paced (open loop), plus the
//! loopback floor.  Tracing is off throughout.

use crate::wire::{self, is_err, reply_key, Replies};
use crate::workloads::{Req, Stream, Workload};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extra server launches per round, beside the serving one; `setup_s` is the
/// median over all launches of the run, so it samples the whole run rather
/// than its first few milliseconds.
pub const SETUP_LAUNCHES_PER_ROUND: usize = 10;
/// Paced schedule granularity: requests due in one tick share its due time
/// and go out in one write.
const TICK_NS: u64 = 200_000;
const TICKS_PER_SEC: u64 = 1_000_000_000 / TICK_NS;
/// A phase whose replies stop for this long counts the rest as missing.
const STALL: Duration = Duration::from_secs(30);
/// Kernel clock ticks per second for `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// A running `diffcond serve`.
pub struct ServerProcess {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl ServerProcess {
    /// Launches `diffcond serve` on an ephemeral loopback port with default
    /// serving flags (`--binary` only for binary workloads) and waits for
    /// its `serving on` announcement.
    pub fn launch(binary_path: &Path, binary_framing: bool) -> io::Result<ServerProcess> {
        let mut command = Command::new(binary_path);
        command.args(["serve", "--addr", "127.0.0.1:0"]);
        if binary_framing {
            command.arg("--binary");
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let addr = loop {
            let Some(line) = lines.next().transpose()? else {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("diffcond exited before serving"));
            };
            if let Some(rest) = line.split("serving on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| io::Error::other(format!("bad address `{addr}`: {e}")))?;
            }
        };
        // Keep draining stderr so the server never blocks on it.
        let stderr = std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                eprintln!("diffcond: {line}");
            }
        });
        Ok(ServerProcess {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU seconds the server has used.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        Ok((ticks(11)? + ticks(12)?) / USER_HZ)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
    }
}

/// What one connection sent and got back, for the oracle.
#[derive(Debug, Default)]
pub struct Transcript {
    /// The stream the phase drew from.
    pub phase: u64,
    /// Requests sent before timing: prologue and warm-up.
    pub head: usize,
    /// Stream requests sent after the warm-up.
    pub sent: usize,
    /// Oracle keys of every reply received, prologue and warm-up included.
    pub keys: Vec<u64>,
    /// `err` replies among them.
    pub errs: usize,
}

impl Transcript {
    fn record(&mut self, reply: &[u8]) {
        self.keys.push(reply_key(reply));
        self.errs += is_err(reply) as usize;
    }

    /// Requests the connection sent in total.
    pub fn attempted(&self) -> usize {
        self.head + self.sent
    }
}

/// A connection with its reply reader.
pub struct Conn {
    pub writer: TcpStream,
    pub replies: Replies,
    pub binary: bool,
}

impl Conn {
    pub fn open(addr: SocketAddr, binary: bool) -> io::Result<Conn> {
        let stream = wire::connect(addr, binary)?;
        let reader = stream.try_clone()?;
        Ok(Conn {
            writer: stream,
            replies: Replies::new(reader, binary),
            binary,
        })
    }

    /// Sends `requests` in one write from a second thread while this one
    /// reads their replies (a long warm-up must not fill both socket
    /// buffers and deadlock).
    fn exchange(
        &mut self,
        workload: &Workload,
        requests: &[Req],
        transcript: &mut Transcript,
    ) -> io::Result<()> {
        let mut buf = Vec::new();
        for req in requests {
            req.encode(&workload.universe, self.binary, &mut buf);
        }
        let writer = &mut self.writer;
        let replies = &mut self.replies;
        std::thread::scope(|scope| {
            let sending = scope.spawn(move || writer.write_all(&buf));
            let read = (|| {
                for _ in requests {
                    let reply = replies.next()?.ok_or_else(closed)?;
                    transcript.record(reply);
                }
                Ok(())
            })();
            sending.join().expect("request writer panicked").and(read)
        })?;
        transcript.head += requests.len();
        Ok(())
    }
}

fn closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
}

/// Opens a connection and sends the prologue and the warm-up, untimed.
/// Returns the phase stream positioned after its warm-up.
pub fn prepared<'w>(
    workload: &'w Workload,
    addr: SocketAddr,
    phase: u64,
) -> io::Result<(Conn, Transcript, Stream<'w>)> {
    let mut conn = Conn::open(addr, workload.kind.binary())?;
    let mut transcript = Transcript {
        phase,
        ..Transcript::default()
    };
    let mut stream = workload.stream(phase);
    conn.exchange(workload, &workload.head(&mut stream), &mut transcript)?;
    Ok((conn, transcript, stream))
}

/// Set-up: launches the server and gets the prologue acknowledged.
/// Returns the seconds that took, the server, and its connection.
pub fn setup(
    workload: &Workload,
    server_path: &Path,
    phase: u64,
) -> io::Result<(f64, ServerProcess, Conn, Transcript)> {
    let began = Instant::now();
    let server = ServerProcess::launch(server_path, workload.kind.binary())?;
    let mut conn = Conn::open(server.addr, workload.kind.binary())?;
    let mut transcript = Transcript {
        phase,
        ..Transcript::default()
    };
    conn.exchange(workload, &workload.prologue, &mut transcript)?;
    Ok((began.elapsed().as_secs_f64(), server, conn, transcript))
}

/// Sends the warm-up on a set-up connection, untimed.  Returns the phase
/// stream positioned after it.
pub fn warm_up<'w>(
    workload: &'w Workload,
    conn: &mut Conn,
    transcript: &mut Transcript,
) -> io::Result<Stream<'w>> {
    let mut stream = workload.stream(transcript.phase);
    let warmup = workload.warmup(&mut stream);
    conn.exchange(workload, &warmup, transcript)?;
    Ok(stream)
}

/// Strict phase: one request in flight; returns round trips in µs.
pub fn strict(
    workload: &Workload,
    stream: &mut Stream,
    conn: &mut Conn,
    transcript: &mut Transcript,
    duration: Duration,
) -> io::Result<Vec<f64>> {
    let mut samples = Vec::new();
    let mut buf = Vec::new();
    let began = Instant::now();
    while began.elapsed() < duration {
        let req = stream.next().expect("unbounded stream");
        buf.clear();
        req.encode(&workload.universe, conn.binary, &mut buf);
        let sent = Instant::now();
        conn.writer.write_all(&buf)?;
        transcript.sent += 1;
        let reply = conn.replies.next()?.ok_or_else(closed)?;
        samples.push(sent.elapsed().as_secs_f64() * 1e6);
        transcript.record(reply);
    }
    Ok(samples)
}

/// Result of the pipelined phase.
pub struct Pipelined {
    /// Requests per second of each burst: requests over the wall time from
    /// its first byte written to its last reply read.
    pub burst_qps: Vec<f64>,
    pub requests: usize,
    /// Server CPU seconds over the phase.
    pub server_cpu_s: f64,
}

/// Pipelined phase: bursts of `burst` requests written by one thread while
/// this one drains the replies.
pub fn pipelined(
    workload: &Workload,
    stream: &mut Stream,
    server: &ServerProcess,
    conn: &mut Conn,
    transcript: &mut Transcript,
    burst: usize,
    duration: Duration,
) -> io::Result<Pipelined> {
    let mut burst_qps = Vec::new();
    let cpu_before = server.cpu_seconds()?;
    let began = Instant::now();
    while began.elapsed() < duration {
        let mut buf = Vec::new();
        for req in stream.by_ref().take(burst) {
            req.encode(&workload.universe, conn.binary, &mut buf);
        }
        let writer = &mut conn.writer;
        let replies = &mut conn.replies;
        let start = Instant::now();
        let elapsed = std::thread::scope(|scope| -> io::Result<f64> {
            let sending = scope.spawn(move || writer.write_all(&buf));
            let mut outcome = Ok(());
            for _ in 0..burst {
                match replies.next() {
                    Ok(Some(reply)) => transcript.record(reply),
                    Ok(None) => {
                        outcome = Err(closed());
                        break;
                    }
                    Err(e) => {
                        outcome = Err(e);
                        break;
                    }
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            sending.join().expect("burst writer panicked")?;
            outcome.map(|()| elapsed)
        })?;
        transcript.sent += burst;
        burst_qps.push(burst as f64 / elapsed);
    }
    let server_cpu_s = server.cpu_seconds()? - cpu_before;
    Ok(Pipelined {
        requests: burst_qps.len() * burst,
        burst_qps,
        server_cpu_s,
    })
}

/// Result of the paced phase.
pub struct Paced {
    /// Due-time-to-reply latency of every request, µs.
    pub latency_us: Vec<f64>,
    /// How late each tick's write went out, µs.
    pub late_us: Vec<f64>,
}

/// Due time of request `i` at `rate` requests/s, in ns from the phase
/// start: the start of its tick.
fn due_ns(i: usize, rate: u64) -> u64 {
    (i as u64 * TICKS_PER_SEC / rate) * TICK_NS
}

/// Paced phase: an open loop at the workload's fixed rate.  This thread
/// writes each tick's requests in one write at the tick's due time (and,
/// when it runs late, everything already due); a second thread reads the
/// replies and times each from its due time.
pub fn paced(
    workload: &Workload,
    stream: &mut Stream,
    conn: &mut Conn,
    transcript: &mut Transcript,
    duration: Duration,
) -> io::Result<Paced> {
    let rate = workload.kind.paced_rate() as u64;
    let total = (duration.as_secs_f64() * rate as f64) as usize;
    let binary = conn.binary;
    let universe = &workload.universe;
    conn.replies.set_timeout(Some(Duration::from_millis(50)))?;
    let sent = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let Conn {
        writer, replies, ..
    } = conn;
    let (read, late_us, written) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| -> io::Result<(Vec<f64>, Transcript)> {
            let mut latency = Vec::with_capacity(total);
            let mut got = Transcript::default();
            let mut last_progress = Instant::now();
            loop {
                let received = latency.len();
                if writer_done.load(Ordering::Acquire) && received == sent.load(Ordering::Acquire) {
                    break;
                }
                match replies.next() {
                    Ok(Some(reply)) => {
                        got.record(reply);
                        let at = replies.arrived.saturating_duration_since(start).as_nanos();
                        latency.push((at as f64 - due_ns(received, rate) as f64) / 1e3);
                        last_progress = Instant::now();
                    }
                    Ok(None) => return Err(closed()),
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        if last_progress.elapsed() > STALL {
                            break;
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok((latency, got))
        });
        let mut late_us = Vec::new();
        let mut buf = Vec::new();
        let mut next = 0usize;
        let written = (|| -> io::Result<()> {
            while next < total {
                let due = start + Duration::from_nanos(due_ns(next, rate));
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let now_ns = start.elapsed().as_nanos() as u64;
                buf.clear();
                let mut end = next;
                while end < total && (end == next || due_ns(end, rate) <= now_ns) {
                    let req = stream.next().expect("unbounded stream");
                    req.encode(universe, binary, &mut buf);
                    end += 1;
                }
                writer.write_all(&buf)?;
                late_us.push(due.elapsed().as_secs_f64() * 1e6);
                sent.store(end, Ordering::Release);
                next = end;
            }
            Ok(())
        })();
        writer_done.store(true, Ordering::Release);
        (
            reader.join().expect("paced reader panicked"),
            late_us,
            written,
        )
    });
    replies.set_timeout(None)?;
    written?;
    let (latency_us, got) = read?;
    transcript.sent += sent.load(Ordering::Acquire);
    transcript.keys.extend(got.keys);
    transcript.errs += got.errs;
    Ok(Paced {
        latency_us,
        late_us,
    })
}

/// The loopback floor: round trips of a 1-byte blocking echo, in µs.  No
/// program change can move it; it is the machine's share of every strict
/// round trip.
pub fn loopback_floor(samples: usize) -> io::Result<Vec<f64>> {
    use std::io::Read;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut byte = [0u8; 1];
        while stream.read_exact(&mut byte).is_ok() {
            stream.write_all(&byte)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut byte = [0u8; 1];
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let began = Instant::now();
        stream.write_all(b"x")?;
        stream.read_exact(&mut byte)?;
        out.push(began.elapsed().as_secs_f64() * 1e6);
    }
    drop(stream);
    echo.join().expect("echo thread panicked")?;
    Ok(out)
}
