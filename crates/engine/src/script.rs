//! `diffcond check`: runs a script against an in-process [`Server`] and
//! reports what its run answers.
//!
//! Every line goes through [`Server::handle_line`], so a line is an error
//! exactly when the server refuses it: its diagnostic quotes the `err`
//! reply.  Three warnings read the live session: an `assert` of a premise
//! already asserted, an `assert` its premises already imply, and a `bound`
//! with no known values.  Lines after `quit` are not run; each gets a
//! warning naming the quit line.

use crate::protocol::{is_silent, parse_request, Request};
use crate::{Server, SessionConfig};
use diffcon::DiffConstraint;
use std::fmt;

/// One finding of [`check`], at a 1-based line and column of the script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column: the first argument's, or the verb's.
    pub col: usize,
    /// An `err` reply (`true`) or a warning (`false`).
    pub error: bool,
    /// The reply text after `err `, or the warning's text.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    /// `line:col: severity: message`; `diffcond check` prefixes the path.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let severity = if self.error { "error" } else { "warn" };
        write!(
            f,
            "{}:{}: {severity}: {}",
            self.line, self.col, self.message
        )
    }
}

/// The 1-based columns of a script line's verb and of its first argument
/// (the verb's when the line has none).
fn columns(line: &str) -> (usize, usize) {
    let indent = line.len() - line.trim_start().len();
    let verb_col = line[..indent].chars().count() + 1;
    let rest = &line[indent..];
    let verb_len = rest.find(char::is_whitespace).unwrap_or(rest.len());
    let after = &rest[verb_len..];
    if after.trim_start().is_empty() {
        return (verb_col, verb_col);
    }
    let arg_offset = indent + verb_len + (after.len() - after.trim_start().len());
    (verb_col, line[..arg_offset].chars().count() + 1)
}

/// The premise id an `ok assert` reply names when the constraint was
/// already a premise (`added=0`).
fn already_asserted(reply: &str) -> Option<&str> {
    let (id, rest) = reply.strip_prefix("ok assert id=")?.split_once(' ')?;
    rest.starts_with("added=0").then_some(id)
}

/// Runs `script` line by line against a fresh server with the default
/// configuration and returns its findings in line order.
pub fn check(script: &str) -> Vec<Diagnostic> {
    let mut server = Server::new(SessionConfig::default());
    let mut quit_line = None;
    let mut found = Vec::new();
    for (i, line) in script.lines().enumerate() {
        if is_silent(line) {
            continue;
        }
        let (verb_col, arg_col) = columns(line);
        let mut report = |col: usize, error: bool, message: String| {
            found.push(Diagnostic {
                line: i + 1,
                col,
                error,
                message,
            });
        };
        if let Some(quit) = quit_line {
            report(
                verb_col,
                false,
                format!("unreachable: the script quits at line {quit}"),
            );
            continue;
        }
        let request = parse_request(line);
        // Probed before the request runs: whether the premises already
        // imply the asserted constraint, and whether a bound has knowns.
        let (implied, no_knowns) = match (&request, server.session()) {
            (Ok(Request::Assert(text)), Some(session)) => (
                DiffConstraint::parse(text, session.universe())
                    .is_ok_and(|goal| session.implies(&goal).implied),
                false,
            ),
            (Ok(Request::Bound(_)), Some(session)) => (false, session.knowns().is_empty()),
            _ => (false, false),
        };
        let reply = server.handle_line(line);
        if let Some(message) = reply.text.strip_prefix("err ") {
            report(arg_col, true, message.to_string());
        } else if let Some(id) = already_asserted(&reply.text) {
            report(
                arg_col,
                false,
                format!("duplicate assert: already a premise (id={id})"),
            );
        } else if implied {
            report(
                arg_col,
                false,
                "redundant assert: already implied by the premises above".into(),
            );
        } else if no_knowns {
            report(
                verb_col,
                false,
                "bound with no known values: the derived interval cannot be finite".into(),
            );
        }
        if reply.quit {
            quit_line = Some(i + 1);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(lines: &[&str]) -> Vec<Diagnostic> {
        check(&lines.join("\n"))
    }

    fn errors(diags: &[Diagnostic]) -> usize {
        diags.iter().filter(|d| d.error).count()
    }

    #[test]
    fn clean_script_lints_clean() {
        let diags = lint(&[
            "universe 4",
            "assert A -> {B}",
            "known A = 40",
            "bound AB",
            "implies A -> {B, CD}",
            "quit",
        ]);
        assert!(diags.is_empty(), "got: {diags:?}");
    }

    #[test]
    fn sized_universes_past_26_spell_lowercase_and_digit_attributes() {
        // The server opens sized universes with one constructor, so the
        // check accepts exactly the names the server hands out.
        let diags = lint(&[
            "universe 64",
            "assert a -> {b}",
            "implies Za09 -> {b, +/}",
            "quit",
        ]);
        assert!(diags.is_empty(), "got: {diags:?}");
        let diags = lint(&["universe 30", "implies X0 -> {X1}"]);
        assert_eq!(errors(&diags), 1, "got: {diags:?}");
    }

    #[test]
    fn use_before_universe_is_an_error() {
        let diags = lint(&["assert A -> {B}"]);
        assert_eq!(errors(&diags), 1);
        assert!(diags[0].message.contains("universe"));
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn mine_and_dataset_before_load_are_errors() {
        let diags = lint(&["universe 4", "mine 2 2", "dataset"]);
        assert_eq!(errors(&diags), 2);
        assert!(diags[0].message.contains("send `load` first"));
    }

    #[test]
    fn load_enables_mining_and_wedge_thresholds_fire() {
        let diags = lint(&[
            "universe 14",
            "load AB; B",
            "mine 2 2",
            // 3 × 14 = 42 > 33: past the family-budget wedge threshold.
            "mine 3 3",
        ]);
        assert_eq!(errors(&diags), 1);
        assert!(diags[0].message.contains("mine budget too large"));
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn oversized_mining_universe_is_refused() {
        let diags = lint(&["universe 16", "load AB", "mine 1 1"]);
        assert_eq!(errors(&diags), 1);
        assert!(diags[0].message.contains("at most 14"));
    }

    #[test]
    fn forget_of_never_set_known_is_an_error() {
        let diags = lint(&["universe 3", "known A = 4", "forget A", "forget A"]);
        assert_eq!(errors(&diags), 1);
        assert_eq!(diags[0].line, 4);
        assert!(diags[0].message.contains("no known value"));
    }

    #[test]
    fn bound_with_no_knowns_warns() {
        let diags = lint(&["universe 3", "bound AB"]);
        assert_eq!(diags.len(), 1);
        assert!(!diags[0].error);
        assert!(diags[0].message.contains("no known values"));
    }

    #[test]
    fn duplicate_and_redundant_asserts_warn() {
        let diags = lint(&[
            "universe 4",
            "assert A -> {B}",
            "assert A -> {B}",
            "assert B -> {C}",
            "assert A -> {C}",
        ]);
        assert_eq!(diags.len(), 2);
        assert!(diags[0].message.contains("duplicate assert"));
        assert!(diags[0].message.contains("id=0"));
        assert!(diags[1].message.contains("redundant assert"));
        assert_eq!(errors(&diags), 0);
    }

    #[test]
    fn session_slot_bookkeeping_mirrors_the_registry() {
        let diags = lint(&[
            "universe 3",
            "session new",   // slot 1, current
            "universe 4",    // opens slot 1's session
            "session use 0", // back to slot 0
            "assert A -> {B}",
            "session close 1",
            "session use 1", // error: closed
            "session use 7", // error: never existed
        ]);
        assert_eq!(errors(&diags), 2);
        assert!(diags[0].message.contains("slot with id 1"));
        assert!(diags[1].message.contains("slot with id 7"));
    }

    #[test]
    fn closing_the_last_slot_opens_a_fresh_empty_one() {
        let diags = lint(&[
            "universe 3",
            "session close",
            // The fresh slot has no universe: session-scoped verbs error.
            "premises",
        ]);
        assert_eq!(errors(&diags), 1);
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("send `universe` first"));
    }

    #[test]
    fn retract_of_unasserted_premise_is_an_error() {
        let diags = lint(&[
            "universe 3",
            "assert A -> {B}",
            "retract A -> {B}",
            "retract A -> {B}",
        ]);
        assert_eq!(errors(&diags), 1);
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn retract_after_adopt_follows_the_adopted_premises() {
        // `adopt` asserts the mined cover, which does not hold `C -> {A}`.
        let diags = lint(&["universe 3", "load AB ; B", "adopt", "retract C -> {A}"]);
        assert_eq!(errors(&diags), 1, "got: {diags:?}");
        assert_eq!(diags[0].line, 4);
        assert!(diags[0].message.contains("not an asserted premise"));
    }

    #[test]
    fn lines_after_quit_warn_with_the_quit_line() {
        let diags = lint(&["universe 3", "quit", "premises", "session list"]);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| !d.error));
        assert!(diags[0].message.contains("line 2"));
    }

    #[test]
    fn parse_errors_surface_at_the_argument_column() {
        let diags = lint(&["universe 3", "assert A -> {Z}", "bound Q"]);
        assert_eq!(errors(&diags), 2);
        assert_eq!(diags[0].col, 8);
        assert_eq!(diags[1].col, 7);
    }

    #[test]
    fn bad_load_records_carry_their_record_number() {
        let diags = lint(&["universe 3", "load AB; XY"]);
        assert_eq!(errors(&diags), 1);
        assert!(diags[0].message.starts_with("line 2:"));
    }

    #[test]
    fn diagnostics_render_in_file_line_col_form() {
        let diags = lint(&["universe 3", "  forget A"]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].to_string(), "2:10: error: set has no known value");
        let d = Diagnostic {
            line: 3,
            col: 9,
            error: false,
            message: "boom".into(),
        };
        assert_eq!(d.to_string(), "3:9: warn: boom");
    }
}
