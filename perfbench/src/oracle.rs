//! The serial oracle: each connection's request stream replayed through an
//! in-process `Server::handle_line`, reply by reply.

use crate::phases::Transcript;
use crate::wire::reply_key;
use crate::workloads::{Req, Workload};
use diffcon_engine::{Server, SessionConfig};

/// How one connection's replies compared with the oracle's.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Replies whose semantic fields differ from the oracle's.
    pub mismatches: usize,
    /// Requests sent that got no reply.
    pub missing: usize,
    /// `err` replies the oracle itself gives (a workload generator bug).
    pub oracle_errs: usize,
}

/// The requests one connection sent, in order: prologue, warm-up, then the
/// next `transcript.sent` requests of its phase stream.
fn requests<'w>(workload: &'w Workload, transcript: &Transcript) -> impl Iterator<Item = Req> + 'w {
    let mut stream = workload.stream(transcript.phase);
    let head = workload.head(&mut stream);
    head.into_iter().chain(stream.take(transcript.sent))
}

/// Replays a connection's requests serially and compares every reply.
pub fn check(workload: &Workload, transcript: &Transcript) -> Verdict {
    let mut server = Server::new(SessionConfig::default());
    let mut verdict = Verdict::default();
    for (i, req) in requests(workload, transcript).enumerate() {
        let line = req.line(&workload.universe);
        let reply = server.handle_line(&line);
        let expected = reply_key(reply.text.as_bytes());
        verdict.oracle_errs += reply.text.starts_with("err") as usize;
        match transcript.keys.get(i) {
            None => verdict.missing += 1,
            Some(&got) if got != expected => {
                verdict.mismatches += 1;
                if verdict.mismatches <= 5 {
                    eprintln!(
                        "perfbench: phase {} request {i} `{line}`: reply differs from the oracle's `{}`",
                        transcript.phase, reply.text
                    );
                }
            }
            Some(_) => {}
        }
    }
    verdict
}
