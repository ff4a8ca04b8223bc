//! Families of subsets: the `𝒴` in a differential constraint `X → 𝒴`.
//!
//! A [`Family`] is a finite *set* of subsets of the universe `S`.  It is kept
//! sorted and deduplicated so that two families with the same members compare
//! equal and hash identically.
//!
//! A family of at most [`INLINE_MEMBERS`] members keeps them inline, so
//! building, refilling or cloning it allocates nothing; a larger family
//! keeps them in a `Vec`.  Which layout a family has follows from its size
//! alone, and equality, order, hashing, `Debug` and the fingerprint all
//! agree with the sorted member slice's, so the layout never shows through
//! the API.

use crate::attrset::AttrSet;
use crate::universe::Universe;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The most members a [`Family`] keeps inline; a larger family keeps its
/// members on the heap.
pub const INLINE_MEMBERS: usize = 4;

/// A set `𝒴` of subsets of the universe `S`.
///
/// Families are value types: construction normalizes the member list (sorted,
/// deduplicated) so `Eq`/`Hash`/`Ord` reflect set equality of the members.
///
/// The paper uses the notation `⋃𝒴` for the union of all members
/// ([`Family::union_all`]) and works extensively with families whose members
/// are singletons (`Ū = {{u} | u ∈ U}`, see [`Family::of_singletons`]).
#[derive(Clone, PartialEq, Eq)]
pub struct Family {
    members: Members,
}

/// A family's sorted, distinct members: inline, every unused slot `∅`,
/// while there are at most [`INLINE_MEMBERS`] of them, and on the heap past
/// that.  So two families are equal exactly when the derived equality of
/// their layouts says so: it compares the member count and every slot.
#[derive(Clone, PartialEq, Eq)]
enum Members {
    Inline {
        len: u8,
        sets: [AttrSet; INLINE_MEMBERS],
    },
    Spilled(Vec<AttrSet>),
}

impl Family {
    /// The empty family `∅` (no members at all).
    ///
    /// Note the distinction the paper draws between the empty family and the
    /// family `{∅}` containing the empty set: `𝒲(∅) = {∅}` but a family that
    /// contains `∅` as a member makes every constraint with that right-hand side
    /// trivial only when `∅ ⊆ X`, i.e. always.
    pub fn empty() -> Self {
        Family {
            members: Members::Inline {
                len: 0,
                sets: [AttrSet::EMPTY; INLINE_MEMBERS],
            },
        }
    }

    /// Builds a family from an iterator of member sets, normalizing order and
    /// removing duplicates.
    pub fn from_sets<I: IntoIterator<Item = AttrSet>>(iter: I) -> Self {
        let mut family = Family::empty();
        family.refill(iter);
        family
    }

    /// Replaces the members with the sets of `iter`, normalized exactly as
    /// [`Family::from_sets`] does.  At most [`INLINE_MEMBERS`] distinct sets
    /// allocate nothing; past that the members go to a `Vec`, reused while
    /// the family stays that large (a parser refilling one scratch family
    /// allocates only when a large family follows a small one).
    pub fn refill<I: IntoIterator<Item = AttrSet>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        let mut sets = [AttrSet::EMPTY; INLINE_MEMBERS];
        let mut len = 0;
        while let Some(set) = iter.next() {
            // Insert in order, scanning from the end (members mostly arrive
            // sorted), unless `set` is a member already.
            let mut at = len;
            while at > 0 && sets[at - 1] > set {
                at -= 1;
            }
            if at > 0 && sets[at - 1] == set {
                continue;
            }
            if len == INLINE_MEMBERS {
                self.spill(sets, set, iter);
                return;
            }
            for slot in (at..len).rev() {
                sets[slot + 1] = sets[slot];
            }
            sets[at] = set;
            len += 1;
        }
        self.members = Members::Inline {
            len: len as u8,
            sets,
        };
    }

    /// Moves the members to the heap, into the family's own `Vec` if it has
    /// one: the full inline `sets`, the distinct `set` that overflowed them
    /// and the `rest`, sorted and deduplicated.
    #[cold]
    fn spill(
        &mut self,
        sets: [AttrSet; INLINE_MEMBERS],
        set: AttrSet,
        rest: impl Iterator<Item = AttrSet>,
    ) {
        let mut vec = match std::mem::replace(&mut self.members, Members::Spilled(Vec::new())) {
            Members::Spilled(vec) => vec,
            Members::Inline { .. } => Vec::with_capacity(2 * INLINE_MEMBERS),
        };
        vec.clear();
        vec.extend_from_slice(&sets);
        vec.push(set);
        vec.extend(rest);
        vec.sort();
        vec.dedup();
        self.members = Members::Spilled(vec);
    }

    /// The family of singletons `{{u} | u ∈ U}` of a set `U` (written `Ū` in
    /// Section 4.2 of the paper).
    pub fn of_singletons(set: AttrSet) -> Self {
        Family::from_sets(set.iter().map(AttrSet::singleton))
    }

    /// The family `{Y}` with a single member.
    pub fn single(y: AttrSet) -> Self {
        Family::from_sets([y])
    }

    /// Number of members `|𝒴|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// Returns `true` iff the family has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members().is_empty()
    }

    /// Returns `true` iff `y` is a member of the family.
    pub fn contains(&self, y: AttrSet) -> bool {
        self.members().binary_search(&y).is_ok()
    }

    /// The members, sorted.
    #[inline]
    pub fn members(&self) -> &[AttrSet] {
        match &self.members {
            Members::Inline { len, sets } => &sets[..usize::from(*len)],
            Members::Spilled(vec) => vec,
        }
    }

    /// Iterates over the members, in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = AttrSet> + '_ {
        self.members().iter().copied()
    }

    /// The union of all members, `⋃𝒴`.  For the empty family this is `∅`.
    pub fn union_all(&self) -> AttrSet {
        self.iter().fold(AttrSet::EMPTY, AttrSet::union)
    }

    /// Returns the family `𝒴 ∪ {Z}`.
    pub fn with_member(&self, z: AttrSet) -> Family {
        self.union(&Family::single(z))
    }

    /// Returns the family `𝒴 − {Z}`.
    pub fn without_member(&self, z: AttrSet) -> Family {
        Family::from_sets(self.iter().filter(|&m| m != z))
    }

    /// Returns the union of two families (as sets of sets).  Only distinct
    /// members are collected, so a union of at most [`INLINE_MEMBERS`]
    /// members never spills.
    pub fn union(&self, other: &Family) -> Family {
        Family::from_sets(
            self.iter()
                .chain(other.iter().filter(|&m| !self.contains(m))),
        )
    }

    /// Returns `true` iff some member of the family is empty.
    ///
    /// A constraint `X → 𝒴` with `∅ ∈ 𝒴` is always trivial.
    pub fn has_empty_member(&self) -> bool {
        self.members().first().is_some_and(|m| m.is_empty())
    }

    /// Returns `true` iff some member of the family is a subset of `x`.
    ///
    /// This is exactly the paper's triviality condition for `X → 𝒴`
    /// (Definition 3.1): `X → 𝒴` is trivial iff `Y ⊆ X` for some `Y ∈ 𝒴`.
    pub fn some_member_subset_of(&self, x: AttrSet) -> bool {
        self.iter().any(|y| y.is_subset(x))
    }

    /// Returns `true` iff some member of the family is a subset of `u`.
    ///
    /// This is the key membership test of Proposition 2.9: a set `U` with
    /// `X ⊆ U` belongs to `L(X, 𝒴)` iff **no** member of `𝒴` is contained in `U`.
    pub fn some_member_contained_in(&self, u: AttrSet) -> bool {
        self.iter().any(|y| y.is_subset(u))
    }

    /// Returns the family `{Y ∩ W | Y ∈ 𝒴}` of member-wise intersections with `W`
    /// (used in the proof of Proposition 4.6).
    pub fn intersect_members_with(&self, w: AttrSet) -> Family {
        Family::from_sets(self.iter().map(|y| y.intersect(w)))
    }

    /// Returns `true` iff every member consists of a single attribute.
    pub fn all_singletons(&self) -> bool {
        self.iter().all(|m| m.len() == 1)
    }

    /// A stable 64-bit fingerprint of the family.
    ///
    /// Because construction normalizes the member list, two families with the
    /// same members always produce the same fingerprint, across processes and
    /// runs.  The members' own fingerprints are folded in order with distinct
    /// multipliers so that `{{A}, {BC}}` and `{{AB}, {C}}` — identical as bit
    /// unions — fingerprint differently.  Used by the interning and caching
    /// layers of the query engine.
    pub fn fingerprint(&self) -> u64 {
        let members = self.members();
        let mut acc: u64 = 0x243F6A8885A308D3 ^ (members.len() as u64);
        for &m in members {
            acc = acc
                .rotate_left(17)
                .wrapping_mul(0x100000001B3)
                .wrapping_add(m.fingerprint());
        }
        // Final avalanche so short families still fill all 64 bits.
        AttrSet::from_bits(acc).fingerprint()
    }

    /// Formats the family in the paper's notation, e.g. `"{B, CD}"`.
    pub fn format(&self, universe: &Universe) -> String {
        let items: Vec<String> = self.iter().map(|m| universe.format_set(m)).collect();
        format!("{{{}}}", items.join(", "))
    }
}

impl Default for Family {
    fn default() -> Self {
        Family::empty()
    }
}

impl PartialOrd for Family {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Family {
    fn cmp(&self, other: &Self) -> Ordering {
        self.members().cmp(other.members())
    }
}

impl Hash for Family {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.members().hash(state);
    }
}

impl fmt::Debug for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Family{:?}", self.members())
    }
}

impl FromIterator<AttrSet> for Family {
    fn from_iter<T: IntoIterator<Item = AttrSet>>(iter: T) -> Self {
        Family::from_sets(iter)
    }
}

impl<'a> IntoIterator for &'a Family {
    type Item = AttrSet;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, AttrSet>>;
    fn into_iter(self) -> Self::IntoIter {
        self.members().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abcd() -> Universe {
        Universe::of_size(4)
    }

    #[test]
    fn layout_keeps_four_members_inline_in_forty_bytes() {
        // Four 8-byte members, their count and the layout tag: a
        // `DiffConstraint` (left side and family) is then 48 bytes.
        assert_eq!(std::mem::size_of::<Family>(), 40);
        assert_eq!(INLINE_MEMBERS, 4);
    }

    #[test]
    fn normalization_sorts_and_dedups() {
        let u = abcd();
        let f1 = Family::from_sets([
            u.parse_set("CD").unwrap(),
            u.parse_set("B").unwrap(),
            u.parse_set("B").unwrap(),
        ]);
        let f2 = Family::from_sets([u.parse_set("B").unwrap(), u.parse_set("CD").unwrap()]);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), 2);
    }

    #[test]
    fn empty_vs_containing_empty() {
        let f = Family::empty();
        assert!(f.is_empty());
        assert!(!f.has_empty_member());
        let g = Family::single(AttrSet::EMPTY);
        assert!(!g.is_empty());
        assert!(g.has_empty_member());
    }

    #[test]
    fn union_all() {
        let u = abcd();
        let f = Family::from_sets([u.parse_set("B").unwrap(), u.parse_set("CD").unwrap()]);
        assert_eq!(f.union_all(), u.parse_set("BCD").unwrap());
        assert_eq!(Family::empty().union_all(), AttrSet::EMPTY);
    }

    #[test]
    fn of_singletons() {
        let u = abcd();
        let f = Family::of_singletons(u.parse_set("ACD").unwrap());
        assert_eq!(f.len(), 3);
        assert!(f.all_singletons());
        assert!(f.contains(u.parse_set("A").unwrap()));
        assert!(f.contains(u.parse_set("C").unwrap()));
        assert!(f.contains(u.parse_set("D").unwrap()));
    }

    #[test]
    fn with_without_member() {
        let u = abcd();
        let f = Family::single(u.parse_set("B").unwrap());
        let g = f.with_member(u.parse_set("CD").unwrap());
        assert_eq!(g.len(), 2);
        assert_eq!(g.with_member(u.parse_set("B").unwrap()), g);
        assert_eq!(g.without_member(u.parse_set("CD").unwrap()), f);
        assert_eq!(f.without_member(u.parse_set("AC").unwrap()), f);
    }

    #[test]
    fn triviality_condition() {
        let u = abcd();
        // A → {AB, CD} is not trivial; AB → {AB, CD} and ABC → {AB} are trivial.
        let fam = Family::from_sets([u.parse_set("AB").unwrap(), u.parse_set("CD").unwrap()]);
        assert!(!fam.some_member_subset_of(u.parse_set("A").unwrap()));
        assert!(fam.some_member_subset_of(u.parse_set("AB").unwrap()));
        assert!(fam.some_member_subset_of(u.parse_set("ABC").unwrap()));
    }

    #[test]
    fn member_containment_test() {
        let u = abcd();
        let fam = Family::from_sets([u.parse_set("B").unwrap(), u.parse_set("CD").unwrap()]);
        assert!(!fam.some_member_contained_in(u.parse_set("AC").unwrap()));
        assert!(fam.some_member_contained_in(u.parse_set("ACD").unwrap()));
        assert!(fam.some_member_contained_in(u.parse_set("AB").unwrap()));
    }

    #[test]
    fn intersect_members() {
        let u = abcd();
        let fam = Family::from_sets([u.parse_set("AB").unwrap(), u.parse_set("CD").unwrap()]);
        let w = u.parse_set("BC").unwrap();
        let projected = fam.intersect_members_with(w);
        assert!(projected.contains(u.parse_set("B").unwrap()));
        assert!(projected.contains(u.parse_set("C").unwrap()));
        assert_eq!(projected.len(), 2);
    }

    #[test]
    fn family_union() {
        let u = abcd();
        let f = Family::single(u.parse_set("A").unwrap());
        let g = Family::single(u.parse_set("B").unwrap());
        let h = f.union(&g);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn formatting() {
        let u = abcd();
        let fam = Family::from_sets([u.parse_set("B").unwrap(), u.parse_set("CD").unwrap()]);
        assert_eq!(fam.format(&u), "{B, CD}");
        assert_eq!(Family::empty().format(&u), "{}");
    }

    #[test]
    fn fingerprints_respect_set_equality() {
        let u = abcd();
        let f1 = Family::from_sets([u.parse_set("CD").unwrap(), u.parse_set("B").unwrap()]);
        let f2 = Family::from_sets([u.parse_set("B").unwrap(), u.parse_set("CD").unwrap()]);
        assert_eq!(f1.fingerprint(), f2.fingerprint());
        // Same union of bits, different members ⇒ different fingerprints.
        let g1 = Family::from_sets([u.parse_set("A").unwrap(), u.parse_set("BC").unwrap()]);
        let g2 = Family::from_sets([u.parse_set("AB").unwrap(), u.parse_set("C").unwrap()]);
        assert_ne!(g1.fingerprint(), g2.fingerprint());
        // The empty family and {∅} differ too.
        assert_ne!(
            Family::empty().fingerprint(),
            Family::single(AttrSet::EMPTY).fingerprint()
        );
        // Distinct across many random families.
        let mut fps: Vec<u64> = (0u64..512)
            .map(|m| {
                Family::from_sets([
                    AttrSet::from_bits(m & 0xF),
                    AttrSet::from_bits((m >> 4) & 0x1F),
                ])
                .fingerprint()
            })
            .collect();
        fps.sort();
        fps.dedup();
        assert!(fps.len() > 300, "families collide too much: {}", fps.len());
    }
}
