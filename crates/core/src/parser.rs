//! Textual syntax for differential constraints.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! constraint ::= set "->" family | set "→" family
//! set        ::= ""            (the empty set)
//!              | "{}" | "∅"    (also the empty set)
//!              | NAME+         (compact notation: "ACD" = {A, C, D})
//! family     ::= "{" "}"                       (the empty family)
//!              | "{" set ("," set)* "}"
//! ```
//!
//! Constraint *sets* are written one constraint per line; blank lines and lines
//! starting with `#` are ignored.

use crate::constraint::DiffConstraint;
use setlat::{AttrSet, Family, Universe};
use std::fmt;

/// Errors produced by the constraint parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constraint parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
    }
}

/// Parses a single constraint, e.g. `"A -> {B, CD}"` or `"∅ → {B}"` or `" -> {}"`.
pub fn parse_constraint(text: &str, universe: &Universe) -> Result<DiffConstraint, ParseError> {
    let mut constraint = DiffConstraint::new(AttrSet::EMPTY, Family::empty());
    parse_constraint_into(text, universe, &mut constraint)?;
    Ok(constraint)
}

/// Parses a single constraint into `out`, reusing its member storage.  On
/// error `out` holds an unspecified constraint.
pub fn parse_constraint_into(
    text: &str,
    universe: &Universe,
    out: &mut DiffConstraint,
) -> Result<(), ParseError> {
    let (lhs_text, rhs_text) = split_arrow(text)?;
    out.lhs = parse_set(lhs_text.trim(), universe)?;
    parse_family_into(rhs_text.trim(), universe, &mut out.rhs)
}

/// Parses a list of constraints, one per line; `#` starts a comment line.
pub fn parse_constraint_set(
    text: &str,
    universe: &Universe,
) -> Result<Vec<DiffConstraint>, ParseError> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let constraint = parse_constraint(trimmed, universe)
            .map_err(|e| err(format!("line {}: {}", lineno + 1, e.message)))?;
        out.push(constraint);
    }
    Ok(out)
}

fn split_arrow(text: &str) -> Result<(&str, &str), ParseError> {
    if let Some(pos) = text.find("->") {
        Ok((&text[..pos], &text[pos + 2..]))
    } else if let Some(pos) = text.find('→') {
        Ok((&text[..pos], &text[pos + '→'.len_utf8()..]))
    } else {
        Err(err(format!("missing '->' in {text:?}")))
    }
}

fn parse_set(text: &str, universe: &Universe) -> Result<AttrSet, ParseError> {
    let cleaned = text.trim();
    universe
        .parse_set(cleaned)
        .map_err(|e| err(format!("bad set {cleaned:?}: {e}")))
}

fn parse_family_into(text: &str, universe: &Universe, out: &mut Family) -> Result<(), ParseError> {
    let trimmed = text.trim();
    let inner = trimmed
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or_else(|| err(format!("family must be written in braces, got {trimmed:?}")))?;
    let inner = inner.trim();
    let mut failure = None;
    let parts = inner.split(',').filter(|_| !inner.is_empty());
    out.refill(parts.map_while(|part| {
        parse_set(part, universe)
            .map_err(|e| failure = Some(e))
            .ok()
    }));
    failure.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u() -> Universe {
        Universe::of_size(4)
    }

    #[test]
    fn parse_basic_constraint() {
        let u = u();
        let c = parse_constraint("A -> {B, CD}", &u).unwrap();
        assert_eq!(c.lhs, u.parse_set("A").unwrap());
        assert_eq!(c.rhs.len(), 2);
        assert!(c.rhs.contains(u.parse_set("CD").unwrap()));
    }

    #[test]
    fn parse_unicode_arrow_and_empty_set() {
        let u = u();
        let c = parse_constraint("∅ → {B}", &u).unwrap();
        assert_eq!(c.lhs, AttrSet::EMPTY);
        let d = parse_constraint(" -> {B}", &u).unwrap();
        assert_eq!(c, d);
        let e = parse_constraint("{} -> {B}", &u).unwrap();
        assert_eq!(c, e);
    }

    #[test]
    fn parse_empty_family_and_empty_member() {
        let u = u();
        let c = parse_constraint("A -> {}", &u).unwrap();
        assert!(c.rhs.is_empty());
        let d = parse_constraint("A -> {∅}", &u).unwrap();
        assert_eq!(d.rhs.len(), 1);
        assert!(d.rhs.has_empty_member());
    }

    #[test]
    fn parse_errors() {
        let u = u();
        assert!(parse_constraint("A {B}", &u).is_err());
        assert!(parse_constraint("A -> B", &u).is_err());
        assert!(parse_constraint("A -> {Z}", &u).is_err());
        assert!(parse_constraint("QQ -> {B}", &u).is_err());
    }

    #[test]
    fn parse_constraint_set_with_comments() {
        let u = u();
        let text = "# Example 4.3 of the paper\nA -> {BC, CD}\n\nC -> {D}\n";
        let set = parse_constraint_set(text, &u).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set[1].lhs, u.parse_set("C").unwrap());
    }

    #[test]
    fn parse_constraint_set_reports_line_numbers() {
        let u = u();
        let text = "A -> {B}\nbogus line\n";
        let e = parse_constraint_set(text, &u).unwrap_err();
        assert!(e.message.contains("line 2"));
    }

    #[test]
    fn parse_into_a_scratch_matches_parse() {
        let u = u();
        let mut scratch = parse_constraint("ABC -> {A, B, C, D}", &u).unwrap();
        for text in [
            "A -> {B, CD}",
            "AB -> {C}",
            " -> {}",
            "A -> {∅}",
            "D -> {BC, BC}",
        ] {
            scratch.parse_into(text, &u).unwrap();
            assert_eq!(scratch, parse_constraint(text, &u).unwrap(), "for {text:?}");
        }
        let e = scratch.parse_into("A -> {B, Z}", &u).unwrap_err();
        assert_eq!(e, parse_constraint("A -> {B, Z}", &u).unwrap_err());
    }

    #[test]
    fn roundtrip_through_format() {
        let u = u();
        for text in ["A -> {B, CD}", "AB -> {C}", " -> {}", "A -> {∅}"] {
            let c = parse_constraint(text, &u).unwrap();
            let printed = c.format(&u);
            let reparsed = parse_constraint(&printed, &u).unwrap();
            assert_eq!(c, reparsed, "roundtrip failed for {text:?}");
        }
    }
}
