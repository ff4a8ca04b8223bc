//! Golden reply transcripts: committed request scripts are driven through
//! the connection driver, and every reply and every request's flight
//! record is compared byte for byte with a committed expected file.
//!
//! Each script runs two ways:
//!
//! * **stdin** — a text connection without a request cap, as `diffcond`'s
//!   stdin loop drives it;
//! * **binary** — a connection with the TCP cap that negotiates the binary
//!   framing, as `diffcond serve --binary` drives a socket: the handshake,
//!   then each text line as a `00` frame, and the mask frames the script
//!   spells with `!` directives.
//!
//! The scripts are `examples/scripts/*.dc` and `tests/golden/*.req`.  A
//! script line is one request line; `\xNN` in it stands for a raw byte (so a
//! script can send bytes that are not UTF-8).  A line that starts with `!`
//! is a binary frame, skipped in the stdin run:
//!
//! ```text
//! !implies LHS MASK…   an `01` frame (hexadecimal bitmasks)
//! !bound SET           an `02` frame
//! !assert LHS MASK…    an `03` frame
//! !tag XX              a lone byte: an unknown frame tag
//! !oversize            a `00` header declaring one byte over the TCP cap
//! ```
//!
//! An expected file `tests/golden/<script>.<run>.out` holds, per request, the
//! request (`> `), its reply (`< `, none for a silent request) and its
//! record's `slot`, `verb`, `route`, `cached` and `epoch` (`| `); a request
//! the closed connection never read is not listed.  Only the clock fields
//! and ids of a reply are masked (see [`mask`]).
//!
//! On a mismatch the test writes the actual transcript beside the expected
//! file, as `<script>.<run>.out.actual`, and names the first line that
//! differs.  Copying that file over the expected one is how an intended
//! reply change is recorded.
//!
//! `stats` reports the process-wide `slow_log_dropped`, which other suites
//! raise, so this suite is a test binary of its own; the flight ring is
//! process-wide too, so one test runs every transcript in turn.

mod common;

use common::mask_clock;
use diffcon_engine::connection::Connection;
use diffcon_engine::protocol::{binary, MAX_REQUEST_BYTES};
use diffcon_engine::{Server, SessionConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden_dir() -> PathBuf {
    manifest_dir().join("tests/golden")
}

/// Every script, by transcript name: the shipped examples first, then the
/// suite's own.
fn scripts() -> Vec<(String, PathBuf)> {
    let mut scripts = Vec::new();
    for (dir, extension, prefix) in [
        (
            manifest_dir().join("../../examples/scripts"),
            "dc",
            "example-",
        ),
        (golden_dir(), "req", ""),
    ] {
        let mut found: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .filter_map(|entry| entry.ok().map(|entry| entry.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == extension))
            .collect();
        found.sort();
        for path in found {
            let stem = path.file_stem().expect("file name").to_string_lossy();
            scripts.push((format!("{prefix}{stem}"), path));
        }
    }
    scripts
}

/// A script line's bytes, with each `\xNN` escape replaced by its byte.
fn unescape(line: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(line.len());
    let mut rest = line.as_bytes();
    while let Some((&first, tail)) = rest.split_first() {
        if first == b'\\' && tail.first() == Some(&b'x') && tail.len() >= 3 {
            let hex = std::str::from_utf8(&tail[1..3]).expect("ASCII escape");
            bytes.push(u8::from_str_radix(hex, 16).expect("\\xNN escape"));
            rest = &tail[3..];
        } else {
            bytes.push(first);
            rest = tail;
        }
    }
    bytes
}

/// A hexadecimal mask of a `!` directive.
fn hex_mask(word: &str) -> u64 {
    let digits = word.strip_prefix("0x").unwrap_or(word);
    u64::from_str_radix(digits, 16).unwrap_or_else(|_| panic!("bad mask `{word}`"))
}

/// The wire bytes of one script line in the binary run.
fn binary_frame(line: &str) -> Vec<u8> {
    let mut frame = Vec::new();
    let Some(directive) = line.strip_prefix('!') else {
        let bytes = unescape(line);
        frame.extend_from_slice(&binary::line_header(bytes.len()));
        frame.extend_from_slice(&bytes);
        return frame;
    };
    let words: Vec<&str> = directive.split_whitespace().collect();
    match words.as_slice() {
        ["implies", lhs, rhs @ ..] => {
            let rhs: Vec<u64> = rhs.iter().map(|m| hex_mask(m)).collect();
            binary::encode_implies(hex_mask(lhs), &rhs, &mut frame);
        }
        ["assert", lhs, rhs @ ..] => {
            let rhs: Vec<u64> = rhs.iter().map(|m| hex_mask(m)).collect();
            binary::encode_assert(hex_mask(lhs), &rhs, &mut frame);
        }
        ["bound", set] => binary::encode_bound(hex_mask(set), &mut frame),
        ["tag", tag] => frame.push(hex_mask(tag) as u8),
        ["oversize"] => frame.extend_from_slice(&binary::line_header(MAX_REQUEST_BYTES + 1)),
        _ => panic!("unknown directive `{line}`"),
    }
    frame
}

/// A reply with its clock fields and ids masked: [`mask_clock`]'s fields,
/// and every `conn=` value.
fn mask(reply: &str) -> String {
    mask_clock(reply)
        .trim_end()
        .split(' ')
        .map(|token| match token.split_once('=') {
            Some(("conn", _)) => "conn=*".to_string(),
            _ => token.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Extracts `key=value` from a rendered record.
fn field<'a>(record: &'a str, key: &str) -> &'a str {
    record
        .split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("field {key} missing in `{record}`"))
}

/// Connection `id`'s records from the flight ring, oldest first.
fn records(id: u64) -> Vec<String> {
    let dump = Server::new(SessionConfig::default())
        .handle_line("debug recent 1024")
        .text;
    let mut ours: Vec<String> = match dump.find("trace=") {
        Some(at) => dump[at..]
            .split(" | ")
            .filter(|record| field(record, "conn") == id.to_string())
            .map(str::to_string)
            .collect(),
        None => Vec::new(),
    };
    ours.reverse();
    ours
}

/// The reply payloads in a binary output.
fn binary_replies(mut out: &[u8]) -> Vec<String> {
    let mut replies = Vec::new();
    while !out.is_empty() {
        match binary::decode_reply(out, usize::MAX) {
            binary::DecodedReply::Frame(payload, used) => {
                replies.push(String::from_utf8(payload.to_vec()).expect("UTF-8 reply"));
                out = &out[used..];
            }
            other => panic!("malformed reply frame: {other:?}"),
        }
    }
    replies
}

/// Runs `script` one request at a time and returns its transcript.
fn transcript(script: &str, binary_run: bool) -> String {
    let server = Server::new(SessionConfig::default());
    let id = server.connection_id();
    let cap = if binary_run {
        MAX_REQUEST_BYTES
    } else {
        usize::MAX
    };
    let mut driver = Connection::new(server, cap, binary_run);
    let mut out = Vec::new();
    if binary_run {
        assert!(!driver.feed(&binary::MAGIC, &mut out));
        assert_eq!(out, binary::ACK, "the handshake is answered");
    }
    // Each request sent, and its replies.
    let mut served: Vec<(&str, Vec<String>)> = Vec::new();
    let mut closed = false;
    for line in script.lines() {
        if !binary_run && line.starts_with('!') {
            continue;
        }
        let bytes = if binary_run {
            binary_frame(line)
        } else {
            let mut bytes = unescape(line);
            bytes.push(b'\n');
            bytes
        };
        out.clear();
        closed = driver.feed(&bytes, &mut out);
        let replies = if binary_run {
            binary_replies(&out)
        } else {
            let text = String::from_utf8(out.clone()).expect("UTF-8 replies");
            text.lines().map(str::to_string).collect()
        };
        served.push((line, replies));
        if closed {
            break;
        }
    }
    out.clear();
    driver.finish(&mut out);
    assert!(out.is_empty(), "nothing is left to serve at the end");
    drop(driver);
    let records = records(id);
    assert_eq!(
        records.len(),
        served.len(),
        "one record per request served:\n{records:#?}"
    );
    let mut text = String::new();
    for ((line, replies), record) in served.iter().zip(&records) {
        _ = writeln!(text, "> {line}");
        for reply in replies {
            _ = writeln!(text, "< {}", mask(reply));
        }
        let fields: Vec<String> = ["slot", "verb", "route", "cached", "epoch"]
            .iter()
            .map(|key| format!("{key}={}", field(record, key)))
            .collect();
        _ = writeln!(text, "| {}", fields.join(" "));
    }
    if closed {
        text.push_str("closed\n");
    }
    text
}

/// Compares `actual` with the expected file `name`; on a mismatch writes
/// the actual transcript beside it and describes the first difference.
fn compare(name: &str, actual: &str) -> Option<String> {
    let expected_path = golden_dir().join(name);
    let actual_path = golden_dir().join(format!("{name}.actual"));
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_default();
    if expected == actual {
        _ = std::fs::remove_file(&actual_path);
        return None;
    }
    std::fs::write(&actual_path, actual).expect("write the actual transcript");
    let mut expected_lines = expected.lines();
    let mut actual_lines = actual.lines();
    let mut number = 1;
    loop {
        match (expected_lines.next(), actual_lines.next()) {
            (Some(e), Some(a)) if e == a => number += 1,
            (e, a) => {
                return Some(format!(
                    "{name}:{number}: expected {:?}, got {:?} (actual transcript in {})",
                    e.unwrap_or("<end>"),
                    a.unwrap_or("<end>"),
                    actual_path.display()
                ))
            }
        }
    }
}

#[test]
fn replies_and_records_match_the_golden_transcripts() {
    let mut failures = Vec::new();
    for (name, path) in scripts() {
        let script =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for (run, binary_run) in [("stdin", false), ("binary", true)] {
            let actual = transcript(&script, binary_run);
            failures.extend(compare(&format!("{name}.{run}.out"), &actual));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
