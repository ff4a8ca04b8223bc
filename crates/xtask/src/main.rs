//! Repository lint gate.
//!
//! `cargo run -p xtask -- lint` statically checks the source tree and exits
//! nonzero on any violation.  Checks:
//!
//! 1. every non-vendor workspace crate's `lib.rs` (or `main.rs` for
//!    binaries) carries `#![forbid(unsafe_code)]`;
//! 2. the serving hot paths (`net.rs`, `reactor.rs`, and the connection
//!    driver in `connection.rs`) contain no `.unwrap()` / `.expect(`
//!    outside their test modules — a panic there takes the whole serving
//!    thread down;
//! 3. the protocol grammar rustdoc in `protocol.rs`, the `help` reply, and
//!    the canonical verb table stay in sync: every verb the parser accepts
//!    is documented, and nothing documented is unknown to the parser;
//! 4. `diffcond`'s long flags stay in sync: every `--flag` that
//!    `parse_args` in `bin/diffcond.rs` matches appears in `USAGE` (the
//!    `--help` text) and in the module-doc usage block, and every flag
//!    those two texts name is one `parse_args` matches.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/xtask; the repository root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the repository root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask: cannot read {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut failures: Vec<String> = Vec::new();

    check_forbid_unsafe(&root, &mut failures);
    check_hot_path_panics(&root, &mut failures);
    check_grammar_sync(&root, &mut failures);
    check_cli_flags(&root, &mut failures);

    if failures.is_empty() {
        println!("xtask lint: all checks passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("xtask lint: {f}");
        }
        eprintln!("xtask lint: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

/// Check 1: `#![forbid(unsafe_code)]` in every non-vendor crate root.
fn check_forbid_unsafe(root: &Path, failures: &mut Vec<String>) {
    let crates_dir = root.join("crates");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .unwrap_or_else(|e| {
            eprintln!("xtask: cannot list {}: {e}", crates_dir.display());
            std::process::exit(2);
        })
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    entries.sort();
    // The umbrella crate at the root participates too.
    let mut roots: Vec<PathBuf> = Vec::new();
    for dir in entries {
        let lib = dir.join("src/lib.rs");
        let main = dir.join("src/main.rs");
        if lib.is_file() {
            roots.push(lib);
        } else if main.is_file() {
            roots.push(main);
        } else {
            failures.push(format!(
                "{}: no src/lib.rs or src/main.rs found",
                dir.display()
            ));
        }
    }
    let umbrella = root.join("src/lib.rs");
    if umbrella.is_file() {
        roots.push(umbrella);
    }
    for path in roots {
        let text = read(&path);
        if text.contains("#![forbid(unsafe_code)]") {
            continue;
        }
        // `deny` is the one sanctioned fallback: it allows a module-scoped
        // `#[allow(unsafe_code)]` exception (e.g. a `GlobalAlloc` impl,
        // which is unsafe by signature).  A `deny` with no exception in the
        // crate is just a weaker `forbid` and gets flagged.
        if text.contains("#![deny(unsafe_code)]") && crate_has_allow_exception(&path) {
            continue;
        }
        failures.push(format!(
            "{}: missing #![forbid(unsafe_code)] (or #![deny(unsafe_code)] with a \
             documented #[allow(unsafe_code)] exception)",
            path.strip_prefix(root).unwrap_or(&path).display()
        ));
    }
}

/// True when some source file in the crate rooted at `crate_root`'s
/// `src/lib.rs`/`src/main.rs` carries an explicit `#[allow(unsafe_code)]`.
fn crate_has_allow_exception(root_file: &Path) -> bool {
    let src_dir = match root_file.parent() {
        Some(dir) => dir,
        None => return false,
    };
    let entries = match std::fs::read_dir(src_dir) {
        Ok(entries) => entries,
        Err(_) => return false,
    };
    entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .any(|p| {
            std::fs::read_to_string(&p)
                .map(|text| text.contains("#[allow(unsafe_code)]"))
                .unwrap_or(false)
        })
}

/// Check 2: no `.unwrap()` / `.expect(` on the serving hot paths.
///
/// Only the pre-test portion of each file is inspected: panicking in a unit
/// test is how tests fail, panicking on the serving path kills the reactor.
fn check_hot_path_panics(root: &Path, failures: &mut Vec<String>) {
    for rel in [
        "crates/engine/src/net.rs",
        "crates/engine/src/reactor.rs",
        "crates/engine/src/connection.rs",
    ] {
        let path = root.join(rel);
        let text = read(&path);
        let body = match text.find("#[cfg(test)]") {
            Some(i) => &text[..i],
            None => &text[..],
        };
        for (i, line) in body.lines().enumerate() {
            let code = line.split("//").next().unwrap_or(line);
            for needle in [".unwrap()", ".expect("] {
                if code.contains(needle) {
                    failures.push(format!(
                        "{rel}:{}: `{needle}` on a reactor hot path (return an error or \
                         recover instead)",
                        i + 1
                    ));
                }
            }
        }
    }
}

/// Check 3: verb table ↔ `help` reply ↔ protocol grammar rustdoc.
fn check_grammar_sync(root: &Path, failures: &mut Vec<String>) {
    let verbs = diffcon_engine::protocol::VERBS;
    let help = diffcon_engine::protocol::help_reply();
    for v in verbs {
        if !help.split_whitespace().any(|w| w == v.name) {
            failures.push(format!("protocol help reply is missing verb `{}`", v.name));
        }
    }

    // The grammar rustdoc is the module-doc block at the top of protocol.rs:
    // every verb must appear as a documented form, and every documented
    // `verb` line must be a known verb.
    let path = root.join("crates/engine/src/protocol.rs");
    let text = read(&path);
    let doc: String = text
        .lines()
        .take_while(|l| l.starts_with("//!"))
        .map(|l| l.trim_start_matches("//!"))
        .collect::<Vec<_>>()
        .join("\n");
    for v in verbs {
        // A verb is documented if it opens a grammar form: the verb name at
        // the start of a backticked form or table row.
        let documented = doc.contains(&format!("`{}", v.name))
            || doc
                .split_whitespace()
                .any(|w| w.trim_matches(|c: char| !c.is_alphanumeric()) == v.name);
        if !documented {
            failures.push(format!(
                "protocol.rs grammar rustdoc is missing verb `{}`",
                v.name
            ));
        }
    }
}

/// Check 4: `diffcond`'s parsed flags ↔ `--help` text ↔ module-doc usage.
fn check_cli_flags(root: &Path, failures: &mut Vec<String>) {
    let rel = "crates/engine/src/bin/diffcond.rs";
    let text = read(&root.join(rel));
    // The text from `start` up to the next `end` after it.
    let section = |start: &str, end: &str| -> &str {
        let Some(from) = text.find(start) else {
            return "";
        };
        let body = &text[from + start.len()..];
        &body[..body.find(end).unwrap_or(body.len())]
    };
    let parsed = long_flags(section("fn parse_args(", "\n}\n"), true);
    let texts = [
        (
            "the --help text",
            long_flags(section("const USAGE: &str", "\";\n"), false),
        ),
        (
            "the module-doc usage block",
            long_flags(section("//! ```text", "//! ```"), false),
        ),
    ];
    if parsed.is_empty() {
        failures.push(format!("{rel}: found no flags matched in `parse_args`"));
    }
    for (name, named) in &texts {
        for flag in parsed.difference(named) {
            failures.push(format!(
                "{rel}: `parse_args` matches `{flag}` but {name} does not name it"
            ));
        }
        for flag in named.difference(&parsed) {
            failures.push(format!(
                "{rel}: {name} names `{flag}` but `parse_args` does not match it"
            ));
        }
    }
}

/// The long flags (`--name`) in `text`.  With `quoted`, only whole string
/// literals count (`"--name"`, as a `match` arm spells them), so error
/// messages that mention a flag are skipped.
fn long_flags(text: &str, quoted: bool) -> BTreeSet<String> {
    let mut flags = BTreeSet::new();
    for (at, _) in text.match_indices("--") {
        let name: String = text[at + 2..]
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
            .collect();
        if !name.starts_with(|c: char| c.is_ascii_lowercase()) {
            continue;
        }
        let after = &text[at + 2 + name.len()..];
        if quoted && !(text[..at].ends_with('"') && after.starts_with('"')) {
            continue;
        }
        flags.insert(format!("--{name}"));
    }
    flags
}
