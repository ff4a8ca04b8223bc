//! Named attribute universes.
//!
//! The paper works over a fixed finite set `S` of attributes / items /
//! propositional variables.  A [`Universe`] gives each element of `S` a name
//! (e.g. `"A"`, `"B"`, …) and a stable index, and provides parsing and
//! formatting helpers so that sets can be written in the paper's compact
//! notation (`ACD` for `{A, C, D}`).

use crate::attrset::AttrSet;
use std::collections::HashMap;
use std::fmt;

/// Errors produced when constructing or querying a [`Universe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UniverseError {
    /// The universe would exceed [`crate::MAX_UNIVERSE`] attributes.
    TooLarge {
        /// Requested number of attributes.
        requested: usize,
    },
    /// Two attributes share the same name.
    DuplicateName(String),
    /// An attribute name was not found in the universe.
    UnknownAttribute(String),
    /// The name is `∅`, which set texts read as the empty set.
    ReservedName(String),
}

impl fmt::Display for UniverseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniverseError::TooLarge { requested } => write!(
                f,
                "universe of {requested} attributes exceeds the maximum of {}",
                crate::MAX_UNIVERSE
            ),
            UniverseError::DuplicateName(name) => {
                write!(f, "duplicate attribute name {name:?}")
            }
            UniverseError::UnknownAttribute(name) => {
                write!(f, "unknown attribute {name:?}")
            }
            UniverseError::ReservedName(name) => {
                write!(f, "{name:?} names the empty set, not an attribute")
            }
        }
    }
}

impl std::error::Error for UniverseError {}

/// The single-character names [`Universe::of_size`] assigns, in index order:
/// `A`–`Z`, then `a`–`z`, `0`–`9`, `+` and `/` (the base64 alphabet), so
/// every size up to [`crate::MAX_UNIVERSE`] is spelled one character per
/// attribute and every set is writable in the compact notation.
const SIZED_NAMES: &[u8; crate::MAX_UNIVERSE] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// A finite, ordered, named attribute universe `S`.
///
/// Attribute indices are assigned in declaration order and are the bit
/// positions used by [`AttrSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Universe {
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// Single-byte ASCII names by byte: attribute index plus one, `0` for
    /// no attribute.  Lets [`Universe::parse_set`] resolve the common
    /// one-letter names without hashing or allocating.
    ascii: [u8; 128],
}

impl Universe {
    /// Creates a universe from a list of attribute names.
    ///
    /// # Errors
    /// Returns [`UniverseError::TooLarge`] if more than
    /// [`crate::MAX_UNIVERSE`] names are given,
    /// [`UniverseError::DuplicateName`] if a name appears twice, and
    /// [`UniverseError::ReservedName`] for the name `∅`, which
    /// [`Universe::parse_set`] reads as the empty set.
    pub fn from_names<I, T>(names: I) -> Result<Self, UniverseError>
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        if names.len() > crate::MAX_UNIVERSE {
            return Err(UniverseError::TooLarge {
                requested: names.len(),
            });
        }
        let mut index = HashMap::with_capacity(names.len());
        let mut ascii = [0u8; 128];
        for (i, name) in names.iter().enumerate() {
            if name == "∅" {
                return Err(UniverseError::ReservedName(name.clone()));
            }
            if index.insert(name.clone(), i).is_some() {
                return Err(UniverseError::DuplicateName(name.clone()));
            }
            if let [byte] = name.as_bytes() {
                if byte.is_ascii() {
                    ascii[*byte as usize] = i as u8 + 1;
                }
            }
        }
        Ok(Universe {
            names,
            index,
            ascii,
        })
    }

    /// Creates a universe of `n` attributes with single-character names:
    /// the uppercase letters `A`, `B`, … for `n ≤ 26`, continuing with
    /// `a`–`z`, `0`–`9`, `+` and `/` beyond that.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    pub fn of_size(n: usize) -> Self {
        assert!(n <= crate::MAX_UNIVERSE, "universe size {n} exceeds 64");
        let names = SIZED_NAMES[..n].iter().map(|&b| char::from(b).to_string());
        Universe::from_names(names).expect("synthetic names are unique")
    }

    /// The number of attributes `|S|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` iff the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The full set `S` as an [`AttrSet`].
    #[inline]
    pub fn full_set(&self) -> AttrSet {
        AttrSet::full(self.len())
    }

    /// The name of attribute index `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// All attribute names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Looks up the index of an attribute by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        match name.as_bytes() {
            [byte] if byte.is_ascii() => self.ascii_index(*byte),
            _ => self.index.get(name).copied(),
        }
    }

    /// The index of the attribute named by one ASCII byte, from the table.
    #[inline]
    fn ascii_index(&self, byte: u8) -> Option<usize> {
        match self.ascii[byte as usize] {
            0 => None,
            slot => Some(slot as usize - 1),
        }
    }

    /// The index of the attribute named by the one character `ch`: from the
    /// byte table for an ASCII character, so only a non-ASCII one hashes.
    #[inline]
    pub fn index_of_char(&self, ch: char) -> Option<usize> {
        if ch.is_ascii() {
            self.ascii_index(ch as u8)
        } else {
            self.index.get(ch.encode_utf8(&mut [0; 4]) as &str).copied()
        }
    }

    /// Builds an [`AttrSet`] from attribute names.
    ///
    /// # Errors
    /// Returns [`UniverseError::UnknownAttribute`] if a name is not in the universe.
    pub fn set<I, T>(&self, names: I) -> Result<AttrSet, UniverseError>
    where
        I: IntoIterator<Item = T>,
        T: AsRef<str>,
    {
        let mut s = AttrSet::EMPTY;
        for name in names {
            let name = name.as_ref();
            let i = self
                .index_of(name)
                .ok_or_else(|| UniverseError::UnknownAttribute(name.to_string()))?;
            s.insert(i);
        }
        Ok(s)
    }

    /// Parses the paper's compact notation for sets of single-character
    /// attributes: `"ACD"` means `{A, C, D}`, and `""`, `"{}"` or `"∅"`
    /// means `∅` — so every set [`Universe::format_set`] prints parses
    /// back.
    ///
    /// Whitespace, commas and surrounding braces are ignored, so `"{A, C, D}"`
    /// also parses.  When the universe contains multi-character attribute names
    /// use [`Universe::set`] instead.
    ///
    /// ASCII names resolve through a byte table, so parsing allocates and
    /// hashes nothing unless a non-ASCII character appears.
    ///
    /// # Errors
    /// Returns [`UniverseError::UnknownAttribute`] on any unknown character.
    pub fn parse_set(&self, text: &str) -> Result<AttrSet, UniverseError> {
        let mut s = AttrSet::EMPTY;
        for ch in text.chars() {
            if ch.is_whitespace() || ch == ',' || ch == '{' || ch == '}' {
                continue;
            }
            if ch == '∅' {
                continue;
            }
            let i = self
                .index_of_char(ch)
                .ok_or_else(|| UniverseError::UnknownAttribute(ch.to_string()))?;
            s.insert(i);
        }
        Ok(s)
    }

    /// Formats a set in the paper's compact notation (`"ACD"`); the empty set is
    /// rendered as `"∅"`.  See [`Universe::write_set`].
    pub fn format_set(&self, set: AttrSet) -> String {
        let mut out = String::new();
        self.write_set(&mut out, set);
        out
    }

    /// Appends a set in the compact notation of [`Universe::format_set`] to
    /// `out`, allocating nothing once `out` has room.
    pub fn write_set(&self, out: &mut String, set: AttrSet) {
        if set.is_empty() {
            return out.push('∅');
        }
        for i in set.iter() {
            out.push_str(self.name(i));
        }
    }

    /// Formats a set in explicit brace notation (`"{A, C, D}"`).
    pub fn format_set_braced(&self, set: AttrSet) -> String {
        let items: Vec<&str> = set.iter().map(|i| self.name(i)).collect();
        format!("{{{}}}", items.join(", "))
    }

    /// Iterates over every subset of `S` (all `2^|S|` of them) in mask order.
    ///
    /// # Panics
    /// Panics if the universe has more than 32 attributes, for which exhaustive
    /// enumeration is not meaningful.
    pub fn all_subsets(&self) -> impl Iterator<Item = AttrSet> + '_ {
        assert!(
            self.len() <= 32,
            "refusing to enumerate all subsets of a universe with {} attributes",
            self.len()
        );
        (0u64..(1u64 << self.len())).map(AttrSet::from_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_names_and_lookup() {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        assert_eq!(u.len(), 3);
        assert_eq!(u.index_of("B"), Some(1));
        assert_eq!(u.index_of("Z"), None);
        assert_eq!(u.name(2), "C");
        // `∅` spells the empty set, so no attribute may take it as a name.
        assert_eq!(
            Universe::from_names(["∅", "A"]),
            Err(UniverseError::ReservedName("∅".into()))
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Universe::from_names(["A", "A"]).unwrap_err();
        assert_eq!(err, UniverseError::DuplicateName("A".to_string()));
    }

    #[test]
    fn too_large_rejected() {
        let names: Vec<String> = (0..65).map(|i| format!("X{i}")).collect();
        let err = Universe::from_names(names).unwrap_err();
        assert!(matches!(err, UniverseError::TooLarge { requested: 65 }));
    }

    #[test]
    fn of_size_letters_and_generic() {
        let u = Universe::of_size(4);
        assert_eq!(u.names(), &["A", "B", "C", "D"]);
        let u = Universe::of_size(30);
        assert_eq!(u.name(25), "Z");
        assert_eq!(u.name(26), "a");
        assert_eq!(u.name(29), "d");
        // Every size up to the maximum is spelled one character per
        // attribute, so every set round-trips through the compact notation.
        let u = Universe::of_size(crate::MAX_UNIVERSE);
        assert!(u.names().iter().all(|name| name.chars().count() == 1));
        assert_eq!(u.name(52), "0");
        assert_eq!(u.name(63), "/");
        let full = u.full_set();
        assert_eq!(u.parse_set(&u.format_set(full)).unwrap(), full);
    }

    #[test]
    fn parse_set_resolves_ascii_non_ascii_and_rejects_multi_character_names() {
        let u = Universe::from_names(["A", "7", "é", "Lo"]).unwrap();
        assert_eq!(
            u.parse_set("{A, 7é}").unwrap(),
            AttrSet::from_indices([0, 1, 2])
        );
        assert_eq!(u.index_of("é"), Some(2));
        assert_eq!(u.index_of("Lo"), Some(3));
        // `parse_set` reads one character per attribute, so `Lo` is out of
        // its reach and the first unknown character is named.
        assert_eq!(
            u.parse_set("ALo"),
            Err(UniverseError::UnknownAttribute("L".into()))
        );
        assert_eq!(
            u.parse_set("Aß"),
            Err(UniverseError::UnknownAttribute("ß".into()))
        );
    }

    #[test]
    fn set_construction() {
        let u = Universe::of_size(4);
        let s = u.set(["A", "C"]).unwrap();
        assert_eq!(s, AttrSet::from_indices([0, 2]));
        assert!(u.set(["E"]).is_err());
    }

    #[test]
    fn parse_and_format_roundtrip() {
        let u = Universe::of_size(4);
        let s = u.parse_set("ACD").unwrap();
        assert_eq!(s, AttrSet::from_indices([0, 2, 3]));
        assert_eq!(u.format_set(s), "ACD");
        assert_eq!(u.format_set(AttrSet::EMPTY), "∅");
        assert_eq!(u.format_set_braced(s), "{A, C, D}");
        assert_eq!(u.parse_set("{A, C, D}").unwrap(), s);
        assert_eq!(u.parse_set("").unwrap(), AttrSet::EMPTY);
        assert_eq!(u.parse_set("∅").unwrap(), AttrSet::EMPTY);
        assert!(u.parse_set("AZ").is_err());
    }

    #[test]
    fn all_subsets_enumeration() {
        let u = Universe::of_size(3);
        let subsets: Vec<AttrSet> = u.all_subsets().collect();
        assert_eq!(subsets.len(), 8);
        assert_eq!(subsets[0], AttrSet::EMPTY);
        assert_eq!(subsets[7], u.full_set());
    }

    #[test]
    fn full_set_matches_size() {
        let u = Universe::of_size(5);
        assert_eq!(u.full_set().len(), 5);
    }

    #[test]
    fn display_of_errors() {
        let e = UniverseError::UnknownAttribute("Q".into());
        assert!(e.to_string().contains("unknown attribute"));
    }
}
