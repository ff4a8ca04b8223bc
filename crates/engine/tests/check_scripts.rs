//! End-to-end tests for `diffcond check` (ISSUE 10): the flow-sensitive
//! script linter must pass every shipped example script, reject the seeded
//! broken script with `file:line:col: severity:` diagnostics and a nonzero
//! exit, and every shipped script must also *execute* without a single
//! `err` reply — lint-clean and run-clean are checked against each other.
//! Executed through `diffcond`'s stdin loop, each script (and a raw byte
//! script exercising the framing rules) must also reply exactly what the
//! serial oracle, `Server::handle_line`, replies, wall-clock fields aside.

mod common;

use common::mask_clock;
use diffcon_engine::protocol::binary::BinRequest;
use diffcon_engine::{Reply, Server, SessionConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("engine crate lives two levels below the repository root")
        .to_path_buf()
}

fn shipped_scripts() -> Vec<PathBuf> {
    let dir = repo_root().join("examples/scripts");
    let mut scripts: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/scripts exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "dc"))
        .collect();
    scripts.sort();
    assert!(!scripts.is_empty(), "no .dc scripts in {}", dir.display());
    scripts
}

fn diffcond() -> Command {
    Command::new(env!("CARGO_BIN_EXE_diffcond"))
}

#[test]
fn check_passes_every_shipped_script() {
    let scripts = shipped_scripts();
    let output = diffcond()
        .arg("check")
        .args(&scripts)
        .output()
        .expect("diffcond runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "shipped scripts must lint clean, got:\n{stdout}"
    );
    assert!(
        !stdout.contains("error:"),
        "shipped scripts must carry no errors:\n{stdout}"
    );
}

#[test]
fn check_rejects_the_broken_script_with_located_diagnostics() {
    let broken = repo_root().join("crates/engine/tests/data/broken.dc");
    let output = diffcond()
        .arg("check")
        .arg(&broken)
        .output()
        .expect("diffcond runs");
    assert_eq!(output.status.code(), Some(1), "broken script must exit 1");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for expected in [
        "broken.dc:4:1: error: no universe in session slot 0 yet",
        "broken.dc:6:8: error: constraint parse error",
        "broken.dc:8:8: warn: duplicate assert: already asserted at line 7",
        "broken.dc:9:9: error: retract of a constraint that is not an asserted premise",
        "broken.dc:10:1: error: mine before any `load`",
        "broken.dc:12:8: error: forget of a set that has no known value",
        "broken.dc:13:1: warn: bound with no known values",
        "broken.dc:14:9: error: no session slot with id 7",
        "broken.dc:19:1: warn: unreachable: the script quits at line 18",
    ] {
        assert!(
            stdout.contains(expected),
            "missing diagnostic `{expected}` in:\n{stdout}"
        );
    }
}

#[test]
fn check_without_files_exits_2() {
    let output = diffcond().arg("check").output().expect("diffcond runs");
    assert_eq!(output.status.code(), Some(2));
    let output = diffcond()
        .arg("check")
        .arg("no/such/script.dc")
        .output()
        .expect("diffcond runs");
    assert_eq!(output.status.code(), Some(2));
}

/// Runs `script` through `diffcond`'s stdin loop and returns its stdout.
fn stdin_replies(script: &[u8]) -> String {
    use std::io::Write as _;
    let mut child = diffcond()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("diffcond starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script)
        .expect("script fits the pipe");
    let output = child.wait_with_output().expect("diffcond exits");
    String::from_utf8(output.stdout).expect("replies are UTF-8")
}

/// The serial oracle's replies to `script`: each line answered by
/// `Server::handle_line`, one reply line per non-silent request, up to
/// `quit`.  A line that is not UTF-8 goes through `Server::respond`, the
/// request path `handle_line` wraps, since `handle_line` takes text.
fn oracle_replies(script: &[u8]) -> String {
    let mut server = Server::new(SessionConfig::default());
    let mut replies = String::new();
    let body = script.strip_suffix(b"\n").unwrap_or(script);
    for line in body.split(|&b| b == b'\n') {
        let reply = match std::str::from_utf8(line) {
            Ok(line) => server.handle_line(line),
            Err(_) => {
                let mut text = String::new();
                let answer = server.respond(&BinRequest::Line(line), Instant::now(), &mut text);
                server.commit(&answer.record);
                Reply {
                    text,
                    quit: answer.quit,
                }
            }
        };
        if !reply.text.is_empty() {
            replies.push_str(&reply.text);
            replies.push('\n');
        }
        if reply.quit {
            break;
        }
    }
    replies
}

#[test]
fn shipped_scripts_also_execute_without_errors() {
    for script in shipped_scripts() {
        let text = std::fs::read(&script).expect("script is readable");
        let stdout = stdin_replies(&text);
        let errors: Vec<&str> = stdout.lines().filter(|l| l.starts_with("err")).collect();
        assert!(
            errors.is_empty(),
            "{} produced err replies: {errors:?}",
            script.display()
        );
        assert_eq!(
            mask_clock(&stdout),
            mask_clock(&oracle_replies(&text)),
            "{}: stdin replies differ from the serial oracle's",
            script.display()
        );
    }
}

/// Raw bytes on stdin frame exactly as the oracle splits them: CRLF line
/// ends, blank, whitespace and `#` lines (no reply), bytes that are not
/// UTF-8 (an `err` at their position), and a final line with no newline.
#[test]
fn stdin_framing_matches_the_oracle_on_raw_bytes() {
    let script: &[u8] = b"universe 3\r\nassert A -> {B}\r\n\n# a comment\n   \n\
        implies \xff\xfe\nimplies A -> {B}\r\nknown A = 2\nbound AB\r\nstats\n\
        implies B -> {A}";
    let stdout = stdin_replies(script);
    assert_eq!(stdout.lines().count(), 8, "got:\n{stdout}");
    assert!(
        stdout.contains("err request is not valid UTF-8 (byte 0xff at position 9)"),
        "got:\n{stdout}"
    );
    assert!(
        stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("no route=")),
        "the final unterminated line was not served:\n{stdout}"
    );
    assert_eq!(mask_clock(&stdout), mask_clock(&oracle_replies(script)));
}
