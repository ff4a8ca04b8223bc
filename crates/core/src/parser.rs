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
use setlat::universe::UniverseError;
use setlat::{AttrSet, Family, Universe};
use std::cell::RefCell;
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
///
/// The constraint is parsed into a per-thread scratch and cloned, so a
/// family of at most four members allocates nothing and a larger one takes
/// one allocation of exactly its size, however many members the text adds
/// one at a time.
pub fn parse_constraint(text: &str, universe: &Universe) -> Result<DiffConstraint, ParseError> {
    thread_local! {
        static SCRATCH: RefCell<DiffConstraint> =
            RefCell::new(DiffConstraint::new(AttrSet::EMPTY, Family::empty()));
    }
    SCRATCH.with_borrow_mut(|scratch| {
        parse_constraint_into(text, universe, scratch)?;
        Ok(scratch.clone())
    })
}

/// Parses a single constraint into `out`, reusing its member storage.  On
/// error `out` holds an unspecified constraint.
///
/// One forward pass over the bytes.  An ASCII character resolves through
/// the universe's byte table; only a non-ASCII one is decoded and looked up
/// by name.  The left side runs to the first `->` (in a text without one,
/// to the first `→`), and the family's members go into `out`'s storage as
/// their commas close them.  Whitespace, `∅` and braces are skipped inside
/// a set, and commas on the left side.  Errors rank as the grammar reads:
/// a missing arrow, then the left side, then the family's braces, then its
/// first bad member.
pub fn parse_constraint_into(
    text: &str,
    universe: &Universe,
    out: &mut DiffConstraint,
) -> Result<(), ParseError> {
    let bytes = text.as_bytes();
    let mut reader = Reader {
        text,
        universe,
        at: 0,
    };
    let mut lhs = AttrSet::EMPTY;
    let mut unknown = None;
    let (arrow, family) = loop {
        let at = reader.at;
        match bytes.get(at) {
            None => return Err(err(format!("missing '->' in {text:?}"))),
            Some(b'-') if bytes.get(at + 1) == Some(&b'>') => break (at, at + 2),
            Some(0xE2) if text[at..].starts_with('→') && !text[at..].contains("->") => {
                break (at, at + '→'.len_utf8())
            }
            Some(_) => {}
        }
        match reader.next() {
            Some(Glyph::Attr(i)) => lhs.insert(i),
            Some(Glyph::Unknown(ch)) => _ = unknown.get_or_insert(ch),
            _ => {}
        }
    };
    if let Some(ch) = unknown {
        return Err(bad_set(text[..arrow].trim(), ch));
    }
    out.lhs = lhs;
    let braces = || {
        let got = text[family..].trim();
        err(format!("family must be written in braces, got {got:?}"))
    };
    reader.at = family;
    loop {
        match reader.next() {
            Some(Glyph::Space) => {}
            Some(Glyph::Open) => break,
            _ => return Err(braces()),
        }
    }
    let mut members = Members {
        part: reader.at,
        reader,
        member: AttrSet::EMPTY,
        glyphs: 0,
        close: None,
        ended: false,
        unknown: None,
    };
    out.rhs.refill(&mut members);
    let Some(close) = members.close else {
        return Err(braces());
    };
    match members.unknown {
        // The bad member's text runs to its comma or the closing brace.
        Some((part, ch)) => {
            let end = text[part..close]
                .find(',')
                .map_or(close, |comma| part + comma);
            Err(bad_set(text[part..end].trim(), ch))
        }
        None => Ok(()),
    }
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

/// The error for a set whose text names an unknown character.
fn bad_set(set: &str, ch: char) -> ParseError {
    let e = UniverseError::UnknownAttribute(ch.to_string());
    err(format!("bad set {set:?}: {e}"))
}

/// One character of a constraint's text, as the parser reads it.
#[derive(Debug, Clone, Copy)]
enum Glyph {
    /// Whitespace, ASCII or Unicode.
    Space,
    /// `{`.
    Open,
    /// `}`.
    Close,
    /// `,`.
    Comma,
    /// `∅`.
    Empty,
    /// A character naming the attribute of this index.
    Attr(usize),
    /// A character naming no attribute.
    Unknown(char),
}

/// Reads a constraint's text one character at a time.
struct Reader<'a> {
    text: &'a str,
    universe: &'a Universe,
    /// Byte offset of the next character.
    at: usize,
}

impl Reader<'_> {
    /// The next character, or `None` at the end of the text.  An ASCII
    /// character is read inline; any other goes to [`Reader::next_wide`].
    #[inline]
    fn next(&mut self) -> Option<Glyph> {
        let &byte = self.text.as_bytes().get(self.at)?;
        if !byte.is_ascii() {
            return Some(self.next_wide());
        }
        self.at += 1;
        Some(match byte {
            b'{' => Glyph::Open,
            b'}' => Glyph::Close,
            b',' => Glyph::Comma,
            b'\t'..=b'\r' | b' ' => Glyph::Space,
            _ => self.attribute(char::from(byte)),
        })
    }

    /// Reads a non-ASCII character: decoded, and looked up by name.
    #[cold]
    #[inline(never)]
    fn next_wide(&mut self) -> Glyph {
        let ch = self.text[self.at..]
            .chars()
            .next()
            .expect("a char boundary");
        self.at += ch.len_utf8();
        match ch {
            '∅' => Glyph::Empty,
            _ if ch.is_whitespace() => Glyph::Space,
            _ => self.attribute(ch),
        }
    }

    /// The attribute `ch` names, or [`Glyph::Unknown`].
    #[inline]
    fn attribute(&self, ch: char) -> Glyph {
        match self.universe.index_of_char(ch) {
            Some(i) => Glyph::Attr(i),
            None => Glyph::Unknown(ch),
        }
    }
}

/// The members of a family, read from just past its opening brace to the
/// end of the text: a comma closes a member, and the end of the text closes
/// the last one unless nothing but the closing brace came after the opening
/// one.  Reading on past a bad member keeps the first one's position and
/// character, and whether the last non-space character closed the family.
struct Members<'a> {
    reader: Reader<'a>,
    /// The member being read.
    member: AttrSet,
    /// Byte offset where the member's text starts.
    part: usize,
    /// Non-space characters read.
    glyphs: usize,
    /// Byte offset of the closing brace: the last non-space character
    /// read, if it was a `}`.
    close: Option<usize>,
    /// Whether the end of the text was reached.
    ended: bool,
    /// The first bad member's text offset and unknown character.
    unknown: Option<(usize, char)>,
}

impl Iterator for Members<'_> {
    type Item = AttrSet;

    // Inlined into `Family::refill`'s insertion loop: without the hint a
    // warm_text goal parses in ~81 ns rather than ~73 (best of 7
    // alternating runs, release, 2-core x86-64 host).
    #[inline]
    fn next(&mut self) -> Option<AttrSet> {
        loop {
            let at = self.reader.at;
            let Some(glyph) = self.reader.next() else {
                let last = !self.ended && self.glyphs > 1;
                self.ended = true;
                return last.then(|| std::mem::take(&mut self.member));
            };
            if matches!(glyph, Glyph::Space) {
                continue;
            }
            self.glyphs += 1;
            self.close = matches!(glyph, Glyph::Close).then_some(at);
            match glyph {
                Glyph::Attr(i) => self.member.insert(i),
                Glyph::Unknown(ch) => _ = self.unknown.get_or_insert((self.part, ch)),
                Glyph::Comma => {
                    self.part = self.reader.at;
                    return Some(std::mem::take(&mut self.member));
                }
                _ => {}
            }
        }
    }
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
