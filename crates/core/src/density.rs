//! Density-decomposition helpers: which density variables does a constraint
//! set force to zero?
//!
//! By Definition 3.1, a set function `f` satisfies `X → 𝒴` exactly when its
//! density function `d_f` vanishes on the lattice decomposition `L(X, 𝒴)`.  A
//! whole constraint set `C` therefore zeroes `d_f` on the union
//! `L(C) = ⋃ L(X_i, 𝒴_i)`, and every question about the *values* `f` can take
//! under `C` reduces to linear reasoning over the **surviving** (alive)
//! density terms — the sets outside `L(C)`.  The `diffcon-bounds` crate builds
//! its interval-derivation engine on exactly this reduction; this module
//! exposes the decomposition primitives it needs:
//!
//! * [`zeroed_at`] — is the density variable at one set forced to zero?
//!   (`O(Σ|𝒴_i|)` bitset work per query, no enumeration);
//! * [`LatticeBitmap`] — `L(C)` over the whole powerset, one bit per set and
//!   64 sets per word, built with the bit-sliced layout of
//!   [`crate::implication::implies_lattice`] at `X = ∅`; its
//!   [`LatticeBitmap::alive`] walk visits only the surviving sets of a row
//!   or region, in increasing mask order;
//! * [`alive_supersets`] — the surviving support of one zeta-transform row
//!   `f(X) = Σ_{X ⊆ U} d_f(U)`;
//! * [`zeroed_count`] — how many density variables the constraint set kills
//!   (the "strength" of the premise set for bound derivation).
//!
//! ```
//! use diffcon::{density, DiffConstraint};
//! use setlat::Universe;
//!
//! let u = Universe::of_size(2);
//! let c = vec![DiffConstraint::parse("A -> {B}", &u).unwrap()];
//! // L(A, {B}) = {A}: the only killed density variable is d(A)…
//! assert!(density::zeroed_at(&c, u.parse_set("A").unwrap()));
//! assert_eq!(density::zeroed_count(&u, &c), 1);
//! // …so f(A) = d(AB): one surviving term.
//! let alive = density::alive_supersets(&u, &c, u.parse_set("A").unwrap());
//! assert_eq!(alive, vec![u.parse_set("AB").unwrap()]);
//! // The bitmap walks the same row without testing every superset.
//! let lattice = density::LatticeBitmap::new(&u, &c);
//! let a = u.parse_set("A").unwrap();
//! assert_eq!(lattice.alive(a, a).collect::<Vec<_>>(), vec![0b11]);
//! ```

use crate::constraint::DiffConstraint;
use crate::implication::{Slices, SLICE};
use setlat::{powerset, AttrSet, Universe};

/// Returns `true` iff the density variable at `u_set` is forced to zero by
/// some constraint, i.e. `u_set ∈ L(C)`.
///
/// `O(Σ_i |𝒴_i|)` bitset operations; no enumeration.
#[inline]
pub fn zeroed_at(constraints: &[DiffConstraint], u_set: AttrSet) -> bool {
    constraints.iter().any(|c| c.lattice_contains(u_set))
}

/// `L(C)` as a bitmap over the powerset of the universe: bit `m % 64` of
/// word `m / 64` is set iff the set with mask `m` lies in `L(C)`, so the
/// density variable there is dead.  Bits past the last set of a universe
/// under six attributes are clear.
///
/// The layout is [`crate::implication::implies_lattice`]'s at `X = ∅`: the
/// first six attributes index the lanes of a word, the next six the 64 words
/// of a block, and the rest the blocks.  Within a block, each premise
/// visits the words that hold sets containing its left side and are not
/// yet wholly in `L(C)`, with a few AND/OR operations per member, and a
/// block wholly in `L(C)` meets no further premise, so the build costs at
/// most `O(2^{|S|}/64 · Σ(1 + |𝒴_i|))` word operations; 128 KiB hold it
/// at 20 attributes.
#[derive(Debug, Clone)]
pub struct LatticeBitmap {
    words: Vec<u64>,
    /// The lanes that are sets of the universe: all 64 from six
    /// attributes up, the first `2^{|S|}` below.
    lanes: u64,
}

impl LatticeBitmap {
    /// Builds `L(C)` for `constraints` over `universe`.
    ///
    /// # Panics
    /// Panics if the universe exceeds [`setlat::setfn::MAX_DENSE_UNIVERSE`]
    /// attributes — the same cap as dense set functions, since the bitmap
    /// has one bit per set.
    pub fn new(universe: &Universe, constraints: &[DiffConstraint]) -> LatticeBitmap {
        let n = universe.len();
        assert!(
            n <= setlat::setfn::MAX_DENSE_UNIVERSE,
            "LatticeBitmap supports at most {} attributes (got {n})",
            setlat::setfn::MAX_DENSE_UNIVERSE
        );
        let slices = Slices::new(universe.full_set());
        let mut words = vec![0u64; (1usize << n.max(6)) / 64];
        // The blocks enumerate the subsets of the attributes past the
        // twelfth in increasing mask order, so block `b` is words
        // `64·b .. 64·b + 64`.
        let blocks = powerset::subsets(slices.blocks);
        for (chunk, block) in words.chunks_mut(slices.word_count).zip(blocks) {
            slices.settle::<64>(block, constraints, chunk);
        }
        let lanes = if n < 6 { (1u64 << (1 << n)) - 1 } else { !0 };
        words[0] &= lanes;
        LatticeBitmap { words, lanes }
    }

    /// Returns `true` iff `set` lies in `L(C)`.  `set` must lie in the
    /// universe.
    pub fn contains(&self, set: AttrSet) -> bool {
        let m = set.bits() as usize;
        self.words[m / 64] >> (m % 64) & 1 == 1
    }

    /// The masks of the sets `U` outside `L(C)` with `U ∩ care = want`, in
    /// increasing order: the alive supersets of `X` are `alive(X, X)`, and
    /// the region `{U ⊇ X : U ∩ Y = X}` is `alive(Y, X)`.  Empty when `want`
    /// is not a subset of `care` or leaves the universe.
    ///
    /// The walk visits the words whose high attributes agree with `want` on
    /// `care`, and in each one only its alive lanes among those that the
    /// slice masks select, so a dead set costs nothing.
    pub fn alive(&self, care: AttrSet, want: AttrSet) -> AliveSets<'_> {
        let (care, want) = (care.bits(), want.bits());
        let last_word = self.words.len() as u64 - 1;
        let mut lanes = self.lanes;
        let mut low = care & 63;
        while low != 0 {
            let j = low.trailing_zeros() as usize;
            lanes &= if want >> j & 1 == 1 {
                SLICE[j]
            } else {
                !SLICE[j]
            };
            low &= low - 1;
        }
        let fits = want & !care == 0 && (want >> 6) & !last_word == 0;
        AliveSets {
            words: &self.words,
            lanes,
            high: want >> 6,
            free: !(care >> 6) & last_word,
            next: 0,
            remaining: fits,
            bits: 0,
            base: 0,
        }
    }
}

/// The walk of [`LatticeBitmap::alive`]: set masks in increasing order.
#[derive(Debug, Clone)]
pub struct AliveSets<'a> {
    words: &'a [u64],
    /// The lanes the slice masks select in every visited word.
    lanes: u64,
    /// The word index bits every visited word has.
    high: u64,
    /// The word index bits that vary, and the next subset of them to visit.
    free: u64,
    next: u64,
    /// Whether a word is left to visit.
    remaining: bool,
    /// The alive selected lanes of the current word not yet visited, and
    /// that word's first mask.
    bits: u64,
    base: usize,
}

impl Iterator for AliveSets<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            if !self.remaining {
                return None;
            }
            let w = (self.high | self.next) as usize;
            self.bits = !self.words[w] & self.lanes;
            self.base = w * 64;
            self.remaining = self.next != self.free;
            self.next = self.next.wrapping_sub(self.free) & self.free;
        }
        let lane = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + lane)
    }
}

/// The surviving support of the zeta row at `x`: all `U ⊇ x` with `U ∉ L(C)`,
/// in increasing mask order.  These are exactly the density terms that
/// contribute to `f(x)` under the constraint set.
pub fn alive_supersets(
    universe: &Universe,
    constraints: &[DiffConstraint],
    x: AttrSet,
) -> Vec<AttrSet> {
    powerset::supersets_within(x, universe.len())
        .filter(|&u_set| !zeroed_at(constraints, u_set))
        .collect()
}

/// Counts the density variables the constraint set forces to zero,
/// `|L(C)|`, by enumeration.
pub fn zeroed_count(universe: &Universe, constraints: &[DiffConstraint]) -> usize {
    universe
        .all_subsets()
        .filter(|&u_set| zeroed_at(constraints, u_set))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use setlat::{lattice, Family};

    fn parse(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    #[test]
    fn zeroed_iff_in_some_lattice() {
        let u = Universe::of_size(4);
        let c = parse(&u, &["A -> {B}", "C -> {D, AB}"]);
        let union = lattice::lattice_union(
            &u,
            &c.iter()
                .map(|k| (k.lhs, k.rhs.clone()))
                .collect::<Vec<(AttrSet, Family)>>(),
        );
        for s in u.all_subsets() {
            assert_eq!(zeroed_at(&c, s), union.contains(&s), "mismatch at {s:?}");
        }
        assert_eq!(zeroed_count(&u, &c), union.len());
    }

    #[test]
    fn lattice_bitmap_matches_zeroed_at_on_every_set() {
        // The last three shapes put left sides on word attributes (G to L)
        // and block attributes (M up), so a premise touches only some of a
        // block's words, and `L -> {}` settles half of them at once.
        let shapes: [&[&str]; 7] = [
            &["A -> {B}", "BC -> {D}", "E -> {A, B}"],
            &["A -> {}"],
            &["AB -> {B}"],
            &[" -> {A, BC}", "C -> {D, E}"],
            &["G -> {H}", "HM -> {A, N}", "L -> {}"],
            &["GK -> {}", "M -> {G, AB}", "N -> {}", " -> {HI, C}"],
            &["I -> {J}", "J -> {K}", "K -> {I}", "IJK -> {A}"],
        ];
        let u = Universe::of_size(16);
        for n in [1, 2, 3, 5, 6, 7, 12, 13, 16] {
            let small = Universe::of_size(n);
            for texts in shapes {
                let c = parse(&u, texts);
                let lattice = LatticeBitmap::new(&small, &c);
                for s in small.all_subsets() {
                    assert_eq!(lattice.contains(s), zeroed_at(&c, s), "{texts:?} at {s:?}");
                }
            }
        }
    }

    #[test]
    fn alive_walks_visit_rows_and_regions_in_mask_order() {
        for n in [1, 4, 6, 8, 13] {
            let u = Universe::of_size(n);
            let c = parse(&Universe::of_size(5), &["A -> {B}", "C -> {D, E}"]);
            let lattice = LatticeBitmap::new(&u, &c);
            let alive = |m: u64| !zeroed_at(&c, AttrSet::from_bits(m));
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let care = AttrSet::from_bits((state >> 20) & ((1 << n) - 1));
                let want = AttrSet::from_bits((state >> 40) & care.bits());
                let walked: Vec<usize> = lattice.alive(care, want).collect();
                let expected: Vec<usize> = (0..1u64 << n)
                    .filter(|&m| m & care.bits() == want.bits() && alive(m))
                    .map(|m| m as usize)
                    .collect();
                assert_eq!(walked, expected, "n={n} care={care:?} want={want:?}");
                // A `want` outside `care` selects nothing.
                if want != care {
                    assert_eq!(lattice.alive(want, care).count(), 0);
                }
            }
            // A row whose set leaves the universe is empty.
            let outside = AttrSet::singleton(n);
            assert_eq!(lattice.alive(outside, outside).count(), 0);
        }
    }

    #[test]
    fn alive_supersets_filters_the_zeta_row() {
        let u = Universe::of_size(3);
        let c = parse(&u, &["A -> {B}"]);
        // L(A, {B}) = {A, AC}: f(A)'s surviving terms are AB and ABC.
        let alive = alive_supersets(&u, &c, u.parse_set("A").unwrap());
        assert_eq!(
            alive,
            vec![u.parse_set("AB").unwrap(), u.parse_set("ABC").unwrap()]
        );
    }

    #[test]
    fn empty_constraint_set_kills_nothing() {
        let u = Universe::of_size(4);
        assert_eq!(zeroed_count(&u, &[]), 0);
        let lattice = LatticeBitmap::new(&u, &[]);
        assert_eq!(lattice.alive(AttrSet::EMPTY, AttrSet::EMPTY).count(), 16);
        assert_eq!(alive_supersets(&u, &[], AttrSet::EMPTY).len(), 1 << u.len());
    }

    #[test]
    fn trivial_constraints_kill_nothing() {
        let u = Universe::of_size(3);
        let c = parse(&u, &["AB -> {B}"]);
        assert_eq!(zeroed_count(&u, &c), 0);
    }
}
