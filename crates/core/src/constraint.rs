//! The differential-constraint language (Definition 3.1 of the paper).

use crate::parser;
use setlat::{lattice, AttrSet, Family, Universe};
use std::fmt;

/// A differential constraint `X → 𝒴` over a universe `S`.
///
/// `X ⊆ S` is the left-hand side and `𝒴` is a finite family of subsets of `S`.
/// The constraint is *trivial* when some `Y ∈ 𝒴` is contained in `X`
/// (equivalently, when its lattice decomposition `L(X, 𝒴)` is empty).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiffConstraint {
    /// The left-hand side `X`.
    pub lhs: AttrSet,
    /// The right-hand side family `𝒴`.
    pub rhs: Family,
}

impl DiffConstraint {
    /// Creates the constraint `X → 𝒴`.
    pub fn new(lhs: AttrSet, rhs: Family) -> Self {
        DiffConstraint { lhs, rhs }
    }

    /// Parses a constraint in the textual syntax `"A -> {B, CD}"`
    /// (see [`crate::parser`] for the grammar).
    pub fn parse(text: &str, universe: &Universe) -> Result<Self, parser::ParseError> {
        parser::parse_constraint(text, universe)
    }

    /// [`DiffConstraint::parse`] into `self`, reusing its member storage:
    /// a goal of at most four members parses without allocating, and a
    /// larger one reuses the scratch's heap list while goals stay that large.
    ///
    /// # Errors
    /// The parse error; `self` then holds an unspecified constraint.
    pub fn parse_into(
        &mut self,
        text: &str,
        universe: &Universe,
    ) -> Result<(), parser::ParseError> {
        parser::parse_constraint_into(text, universe, self)
    }

    /// The *atomic* constraint `atom(U) = U → {{z} | z ∈ S − U}` of Section 4.2.
    pub fn atom(u_set: AttrSet, universe: &Universe) -> Self {
        DiffConstraint {
            lhs: u_set,
            rhs: Family::of_singletons(u_set.complement_in(universe.len())),
        }
    }

    /// Returns `true` iff the constraint is trivial: `Y ⊆ X` for some `Y ∈ 𝒴`.
    pub fn is_trivial(&self) -> bool {
        self.rhs.some_member_subset_of(self.lhs)
    }

    /// Returns `true` iff the right-hand side has exactly one member — the
    /// fragment the paper's conclusion identifies with functional dependencies.
    pub fn is_single_member(&self) -> bool {
        self.rhs.len() == 1
    }

    /// The lattice decomposition `L(X, 𝒴)` of the constraint over `universe`.
    pub fn lattice(&self, universe: &Universe) -> Vec<AttrSet> {
        lattice::lattice_decomposition(universe, self.lhs, &self.rhs)
    }

    /// The size `|L(X, 𝒴)|` without materializing the decomposition.
    pub fn lattice_size(&self, universe: &Universe) -> i128 {
        lattice::lattice_size(universe, self.lhs, &self.rhs)
    }

    /// Membership test `U ∈ L(X, 𝒴)` (Proposition 2.9's characterization).
    #[inline]
    pub fn lattice_contains(&self, u_set: AttrSet) -> bool {
        lattice::in_lattice(self.lhs, &self.rhs, u_set)
    }

    /// The item footprint `X ∪ ⋃𝒴`.
    pub fn footprint(&self) -> AttrSet {
        self.lhs.union(self.rhs.union_all())
    }

    /// A stable 64-bit fingerprint of the constraint, combining the
    /// fingerprints of `X` and `𝒴` asymmetrically (so `X → {Y}` and `Y → {X}`
    /// differ).  Equal constraints always fingerprint equal; the engine layer
    /// uses this for interning keys and order-independent premise-set digests.
    pub fn fingerprint(&self) -> u64 {
        self.lhs
            .fingerprint()
            .rotate_left(32)
            .wrapping_mul(0x100000001B3)
            ^ self.rhs.fingerprint()
    }

    /// Pretty-prints the constraint, e.g. `"A → {B, CD}"`.
    pub fn format(&self, universe: &Universe) -> String {
        format!(
            "{} → {}",
            universe.format_set(self.lhs),
            self.rhs.format(universe)
        )
    }
}

impl fmt::Debug for DiffConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DiffConstraint({:?} → {:?})", self.lhs, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u() -> Universe {
        Universe::of_size(4)
    }

    #[test]
    fn a_constraint_with_an_inline_family_is_48_bytes() {
        // The left side and a family of up to four inline members.
        assert_eq!(std::mem::size_of::<DiffConstraint>(), 48);
    }

    #[test]
    fn construction_and_triviality() {
        let u = u();
        let c = DiffConstraint::new(
            u.parse_set("A").unwrap(),
            Family::from_sets([u.parse_set("B").unwrap(), u.parse_set("CD").unwrap()]),
        );
        assert!(!c.is_trivial());
        let t = DiffConstraint::new(
            u.parse_set("AB").unwrap(),
            Family::from_sets([u.parse_set("B").unwrap(), u.parse_set("CD").unwrap()]),
        );
        assert!(t.is_trivial());
        // A constraint whose RHS contains ∅ is always trivial.
        let e = DiffConstraint::new(u.parse_set("A").unwrap(), Family::single(AttrSet::EMPTY));
        assert!(e.is_trivial());
    }

    #[test]
    fn lattice_of_constraint_matches_module() {
        let u = u();
        let c = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();
        let l = c.lattice(&u);
        assert_eq!(l.len(), 3);
        assert_eq!(c.lattice_size(&u), 3);
        for s in &l {
            assert!(c.lattice_contains(*s));
        }
        assert!(!c.lattice_contains(u.parse_set("AB").unwrap()));
    }

    #[test]
    fn trivial_constraint_has_empty_lattice() {
        let u = u();
        let t = DiffConstraint::parse("AB -> {B}", &u).unwrap();
        assert!(t.is_trivial());
        assert!(t.lattice(&u).is_empty());
        assert_eq!(t.lattice_size(&u), 0);
    }

    #[test]
    fn atom_constraints() {
        let u = u();
        let a = DiffConstraint::atom(u.parse_set("AC").unwrap(), &u);
        assert_eq!(a.lhs, u.parse_set("AC").unwrap());
        assert_eq!(a.rhs.len(), 2);
        assert!(a.rhs.contains(u.parse_set("B").unwrap()));
        assert!(a.rhs.contains(u.parse_set("D").unwrap()));
        // Remark 4.5: L(atom(U)) = {U}.
        assert_eq!(a.lattice(&u), vec![u.parse_set("AC").unwrap()]);
        // atom(S) has an empty RHS and lattice {S}.
        let full = DiffConstraint::atom(u.full_set(), &u);
        assert!(full.rhs.is_empty());
        assert_eq!(full.lattice(&u), vec![u.full_set()]);
    }

    #[test]
    fn single_member_detection_and_footprint() {
        let u = u();
        let c = DiffConstraint::parse("A -> {BC}", &u).unwrap();
        assert!(c.is_single_member());
        assert_eq!(c.footprint(), u.parse_set("ABC").unwrap());
        let d = DiffConstraint::parse("A -> {B, C}", &u).unwrap();
        assert!(!d.is_single_member());
    }

    #[test]
    fn formatting() {
        let u = u();
        let c = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();
        assert_eq!(c.format(&u), "A → {B, CD}");
        let e = DiffConstraint::parse("A -> {}", &u).unwrap();
        assert_eq!(e.format(&u), "A → {}");
    }
}
