//! End-to-end tests for `diffcond check`, which runs each script against an
//! in-process server: every shipped example script must check clean, the
//! seeded broken script must be rejected with `file:line:col: severity:`
//! diagnostics and a nonzero exit, a table of small scripts pins each
//! diagnostic and its column, and the lines `check` reports as errors must
//! be exactly the lines the serial oracle, `Server::handle_line`, answers
//! with `err`.  Executed through `diffcond`'s stdin loop, each shipped
//! script (and a raw byte script exercising the framing rules) must also
//! reply exactly what the serial oracle replies, wall-clock fields aside.

mod common;

use common::mask_clock;
use diffcon_engine::protocol::binary::BinRequest;
use diffcon_engine::{Reply, Server, SessionConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("engine crate lives two levels below the repository root")
        .to_path_buf()
}

/// The `.dc` scripts in `dir`, relative to the repository root.
fn scripts_in(dir: &str) -> Vec<PathBuf> {
    let dir = repo_root().join(dir);
    let mut scripts: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "dc"))
        .collect();
    scripts.sort();
    assert!(!scripts.is_empty(), "no .dc scripts in {}", dir.display());
    scripts
}

fn shipped_scripts() -> Vec<PathBuf> {
    scripts_in("examples/scripts")
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
        "broken.dc:4:9: error: no session (send `universe` first)",
        "broken.dc:6:8: error: constraint parse error",
        "broken.dc:8:8: warn: duplicate assert: already a premise (id=0)",
        "broken.dc:9:9: error: constraint is not an asserted premise",
        "broken.dc:10:6: error: no dataset (send `load` first)",
        "broken.dc:11:1: error: no dataset (send `load` first)",
        "broken.dc:12:8: error: set has no known value",
        "broken.dc:13:1: warn: bound with no known values",
        "broken.dc:14:9: error: no session slot with id 7",
        "broken.dc:19:1: warn: unreachable: the script quits at line 18",
    ] {
        assert!(
            stdout.contains(expected),
            "missing diagnostic `{expected}` in:\n{stdout}"
        );
    }
    assert_eq!(stdout.lines().count(), 10, "got:\n{stdout}");
}

/// Writes `script` to a file named `name` under this test binary's scratch
/// directory and returns its path.
fn script_file(name: &str, script: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("check_scripts");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.join(name);
    std::fs::write(&path, script).expect("script written");
    path
}

/// Runs `diffcond check` on `path` and returns its exit code and stdout
/// lines with the `path:` prefix stripped.  A check still running at
/// `deadline` is killed, and the test fails.
fn check(path: &Path, deadline: Duration) -> (Option<i32>, Vec<String>) {
    let mut child = diffcond()
        .arg("check")
        .arg(path)
        .stdout(Stdio::piped())
        .spawn()
        .expect("diffcond starts");
    let started = Instant::now();
    while child.try_wait().expect("diffcond is waitable").is_none() {
        if started.elapsed() > deadline {
            child.kill().expect("diffcond is killable");
            panic!("`diffcond check {}` ran past {deadline:?}", path.display());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let output = child.wait_with_output().expect("diffcond exits");
    let prefix = format!("{}:", path.display());
    let lines = String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(|line| line.strip_prefix(&prefix).unwrap_or(line).to_string())
        .collect();
    (output.status.code(), lines)
}

/// One script per behaviour of the check, with its exit code and the start
/// of each diagnostic it must print, in order (`line:col: severity: text`).
const TABLE: &[(&str, &str, i32, &[&str])] = &[
    (
        "clean",
        "universe 4\nassert A -> {B}\nknown A = 40\nbound AB\nimplies A -> {B, CD}\nquit\n",
        0,
        &[],
    ),
    (
        "wide-spellings",
        "universe 64\nassert a -> {b}\nimplies Za09 -> {b, +/}\nquit\n",
        0,
        &[],
    ),
    (
        "wide-unknown-attribute",
        "universe 30\nimplies X0 -> {X1}\n",
        1,
        &["2:9: error: constraint parse error: bad set \"X0\": unknown attribute \"0\""],
    ),
    (
        "before-universe",
        "assert A -> {B}\n",
        1,
        &["1:8: error: no session (send `universe` first)"],
    ),
    (
        "before-load",
        "universe 4\nmine 2 2\ndataset\n",
        1,
        &[
            "2:6: error: no dataset (send `load` first)",
            "3:1: error: no dataset (send `load` first)",
        ],
    ),
    (
        "mine-budget",
        "universe 14\nload AB; B\nmine 2 2\nmine 3 3\n",
        1,
        &["4:6: error: mine budget too large: max |𝒴| × universe size must be at most 33, got 3 × 14"],
    ),
    (
        "mine-universe",
        "universe 16\nload AB\nmine 1 1\n",
        1,
        &["3:6: error: mining is limited to universes of at most 14 attributes"],
    ),
    (
        "forget-never-set",
        "universe 3\nknown A = 4\nforget A\nforget A\n",
        1,
        &["4:8: error: set has no known value"],
    ),
    (
        "bound-without-knowns",
        "universe 3\nbound AB\n",
        0,
        &["2:1: warn: bound with no known values: the derived interval cannot be finite"],
    ),
    (
        "duplicate-then-redundant",
        "universe 4\nassert A -> {B}\nassert A -> {B}\nassert B -> {C}\nassert A -> {C}\n",
        0,
        &[
            "3:8: warn: duplicate assert: already a premise (id=0)",
            "5:8: warn: redundant assert: already implied by the premises above",
        ],
    ),
    (
        "slots",
        "universe 3\nsession new\nuniverse 4\nsession use 0\nassert A -> {B}\n\
         session close 1\nsession use 1\nsession use 7\n",
        1,
        &[
            "7:9: error: no session slot with id 1",
            "8:9: error: no session slot with id 7",
        ],
    ),
    (
        "close-the-last-slot",
        "universe 3\nsession close\npremises\n",
        1,
        &["3:1: error: no session (send `universe` first)"],
    ),
    (
        "retract-never-asserted",
        "universe 3\nassert A -> {B}\nretract A -> {B}\nretract A -> {B}\n",
        1,
        &["4:9: error: constraint is not an asserted premise"],
    ),
    (
        "after-quit",
        "universe 3\nquit\npremises\nretract A -> {B}\n",
        0,
        &[
            "3:1: warn: unreachable: the script quits at line 2",
            "4:1: warn: unreachable: the script quits at line 2",
        ],
    ),
    (
        "argument-parse-errors",
        "universe 3\nassert A -> {Z}\nbound Q\n",
        1,
        &[
            "2:8: error: constraint parse error: bad set \"Z\": unknown attribute \"Z\"",
            "3:7: error: unknown attribute \"Q\"",
        ],
    ),
    (
        "bad-load-record",
        "universe 3\nload AB; XY\n",
        1,
        &["2:6: error: line 2: unknown attribute \"X\""],
    ),
    // `analyze apply` retracts the redundant premise, so the retract after
    // it is refused.
    (
        "retract-after-analyze-apply",
        "universe 4\nassert A -> {B}\nassert B -> {C}\nassert A -> {C}\nanalyze apply\n\
         retract A -> {C}\n",
        1,
        &[
            "4:8: warn: redundant assert: already implied by the premises above",
            "6:9: error: constraint is not an asserted premise",
        ],
    ),
    // `adopt` asserts the mined cover, which does not hold `C -> {A}`.
    (
        "retract-after-adopt",
        "universe 3\nload AB ; B\nadopt\nretract C -> {A}\n",
        1,
        &["4:9: error: constraint is not an asserted premise"],
    ),
];

#[test]
fn check_reports_each_behaviour_at_its_column() {
    let mut failures = Vec::new();
    for &(name, script, code, expected) in TABLE {
        let path = script_file(&format!("{name}.dc"), script);
        let (got_code, lines) = check(&path, Duration::from_secs(60));
        let matches = lines.len() == expected.len()
            && lines.iter().zip(expected).all(|(l, e)| l.starts_with(e));
        if got_code != Some(code) || !matches {
            failures.push(format!(
                "{name}: exit {got_code:?} (want {code}), diagnostics {lines:#?}, want {expected:#?}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// At 40 attributes the redundant assert's implication is confirmed by the
/// refutation search at its root; walking the 2^39 supersets of `{B}`
/// instead would not finish.
#[test]
fn check_decides_a_wide_redundant_assert_within_two_seconds() {
    let wide = repo_root().join("crates/engine/tests/data/wide.dc");
    let (code, lines) = check(&wide, Duration::from_secs(2));
    assert_eq!(code, Some(0), "got: {lines:?}");
    assert_eq!(lines.len(), 1, "got: {lines:?}");
    assert!(
        lines[0].contains(": warn: redundant assert"),
        "got: {lines:?}"
    );
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

/// The numbers of the lines the serial oracle answers with `err`, up to
/// `quit`.
fn oracle_err_lines(script: &str) -> Vec<usize> {
    let mut server = Server::new(SessionConfig::default());
    let mut lines = Vec::new();
    for (i, line) in script.lines().enumerate() {
        let reply = server.handle_line(line);
        if reply.text.starts_with("err") {
            lines.push(i + 1);
        }
        if reply.quit {
            break;
        }
    }
    lines
}

#[test]
fn check_errors_are_the_lines_the_oracle_refuses() {
    let mut scripts = shipped_scripts();
    scripts.extend(scripts_in("crates/engine/tests/data"));
    for script in scripts {
        let text = std::fs::read_to_string(&script).expect("script is readable");
        let (_, diagnostics) = check(&script, Duration::from_secs(60));
        let errors: Vec<usize> = diagnostics
            .iter()
            .filter(|d| d.contains(": error: "))
            .map(|d| {
                d.split(':')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("line")
            })
            .collect();
        assert_eq!(errors, oracle_err_lines(&text), "{}", script.display());
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
