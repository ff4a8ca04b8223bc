//! The implication problem for differential constraints.
//!
//! `C ⊨ X → 𝒴` holds when every function in `F(S)` satisfying all of `C`
//! satisfies `X → 𝒴`.  Theorem 3.5 characterizes this syntactically:
//!
//! ```text
//! C ⊨ X → 𝒴   ⇔   L(X, 𝒴) ⊆ L(C) = ⋃_{X'→𝒴' ∈ C} L(X', 𝒴').
//! ```
//!
//! Three decision procedures are provided here and cross-validated:
//!
//! * [`implies_lattice`] — the direct Theorem 3.5 check: over the supersets
//!   of `X`, 64 to a machine word, verify that every one in `L(X, 𝒴)` is
//!   covered by some premise's lattice.  A premise visits only the words
//!   that still hold an unsettled set, and a block ends once none does.
//!   `O(2^{|S|−|X|}/64 · (Σ|𝒴'| + |𝒴|))` word operations at worst, no
//!   allocation, no materialization of `L(C)`;
//! * [`implies_semantic`] — the proof of Theorem 3.5 in executable form: for
//!   every candidate set `U` build the counterexample function `f^U` and test
//!   it against the premises and the goal;
//! * [`refutation_search`] — the same counterexample found by search rather
//!   than enumeration: by Proposition 5.3 a set `U ⊇ X` refutes the goal iff
//!   it satisfies every premise's formula `⋀X' ⇒ ⋁⋀Y'` and falsifies the
//!   goal's, so a DPLL over the attributes that propagates each constraint
//!   whole finds `U` or proves there is none.  It decides the `sat` route
//!   ([`crate::procedure::ProcedureKind::Sat`]) and supplies
//!   [`refutation_witness`].
//!
//! [`implies`], the procedure every caller outside the engine's planner
//! uses (`derive`, `analyze`, the miner), is the search: an implied goal
//! whose lattice holds `2^{|S|−|X|}` sets is confirmed by propagation,
//! often at the root, where [`implies_lattice`] walks every one of them.
//! [`implies_lattice`] stays as the paper's reference procedure and as the
//! oracle the test suites compare against.
//!
//! The clause-level SAT procedure, which distributes every premise into
//! `∏|Y'|` CNF clauses, lives in [`crate::prop_bridge`] (Proposition 5.4) as
//! the paper's reference.  The implication problem is coNP-complete
//! (Proposition 5.5), so all of these are worst-case exponential.

use crate::constraint::DiffConstraint;
use crate::semantics;
use setlat::{powerset, AttrSet, Family, SetFunction, Universe};

/// Decides `C ⊨ goal`: `true` iff [`refutation_search`] finds no set
/// `U ∈ L(goal)` outside every premise lattice.
///
/// This is the default decision procedure.  Its work grows with the
/// branches the search takes, not with `2^{|S|−|X|}`; the problem is
/// coNP-complete (Proposition 5.5), so that is still worst-case
/// exponential.  [`implies_lattice`] decides the same question by
/// enumeration.
pub fn implies(universe: &Universe, premises: &[DiffConstraint], goal: &DiffConstraint) -> bool {
    refutation_search(universe, premises, goal).is_none()
}

/// Decides `C ⊨ goal` by checking `L(X, 𝒴) ⊆ ⋃ L(X', 𝒴')` without materializing
/// either side: every superset of `X` that lies in the goal's lattice must lie
/// in some premise's lattice.
///
/// The supersets are checked 64 at a time, bit-sliced.  With `F = S − X` in
/// attribute order, the first six free attributes index the bits (*lanes*) of
/// a `u64` word, the next six index the 64 words of a *block*, and the blocks
/// enumerate the subsets of the rest of `F`.  Within a block, the sets
/// containing a given `Z` are a word mask times a lane mask, each the AND of
/// the standard bit-slice constants over `Z`'s attributes, so every
/// constraint member settles a whole word with a few AND/OR operations: a
/// set is outside `L(X, 𝒴)` iff it contains a goal member (Proposition 2.9),
/// and inside `L(X', 𝒴')` iff it contains `X'` and no member of `𝒴'`.  The
/// goal fails iff some set is neither.  A word is settled once each of its
/// sets is one or the other: a premise visits only the unsettled words that
/// hold sets containing its left side, and a block whose words are all
/// settled meets no further premise.  That is at most
/// `O(2^{|S|−|X|}/64 · (Σ_premise |𝒴'| + |𝒴|))` word operations, with no
/// allocation; [`uncovered_count`] walks the same sets one at a time.
pub fn implies_lattice(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> bool {
    let full = universe.full_set();
    // `X ⊄ S` leaves no superset of `X` in the universe to refute the goal.
    if !goal.lhs.is_subset(full) {
        return true;
    }
    let slices = Slices::new(full.difference(goal.lhs));
    let mut blocks = powerset::subsets(slices.blocks).map(|block| goal.lhs.union(block));
    // Small instances fit one word per block; 64-word scratch arrays would
    // cost more to zero than such an instance costs to decide.
    if slices.word_count == 1 {
        !blocks.any(|fixed| slices.refutes::<1>(fixed, premises, goal))
    } else {
        !blocks.any(|fixed| slices.refutes::<64>(fixed, premises, goal))
    }
}

/// `SLICE[j]` holds the lanes whose index has bit `j` set: the lanes of the
/// sets that contain the `j`-th lane attribute (or, as a word mask, the words
/// of the sets that contain the `j`-th word attribute).
pub(crate) const SLICE: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// How [`implies_lattice`] lays the free attributes out over lanes, words
/// and blocks.  With `X = ∅` the layout is the mask order itself: lane `l`
/// of word `w` is the set with mask `64·w + l`, which is how
/// [`crate::density::LatticeBitmap`] stores `L(C)`.
///
/// With fewer than six lane attributes, a lane whose index sets a missing
/// attribute's bit repeats the lane without that bit, so such lanes need no
/// masking; words past the last one a block uses are never visited.
///
/// Both kernels run one premise step, [`Slices::settle`]: it keeps a 64-bit
/// mask of the block's *open* words, those that still hold an unsettled
/// set, and visits only those.
pub(crate) struct Slices {
    /// The first six free attributes: bit `j` of the lane index is the
    /// `j`-th of them.
    lanes: u64,
    /// The next six: bit `j` of the word index is the `j`-th of them.
    words: u64,
    /// The remaining free attributes, whose subsets are the blocks.
    pub(crate) blocks: AttrSet,
    /// The words each block uses, `2^|words|`.
    pub(crate) word_count: usize,
    /// Each lane or word attribute's bit in the lane or word index.
    position: [u8; 64],
}

impl Slices {
    /// Inlined into both callers, so that [`implies_lattice`]'s loops
    /// compile as they do without the bitmap's use of the layout.
    #[inline(always)]
    pub(crate) fn new(free: AttrSet) -> Self {
        let (mut lanes, mut words, mut position) = (0u64, 0u64, [0u8; 64]);
        for (i, attr) in free.iter().take(12).enumerate() {
            position[attr] = (i % 6) as u8;
            if i < 6 {
                lanes |= 1 << attr;
            } else {
                words |= 1 << attr;
            }
        }
        Slices {
            lanes,
            words,
            blocks: free.difference(AttrSet::from_bits(lanes | words)),
            word_count: 1 << words.count_ones(),
            position,
        }
    }

    /// The AND of the slice constants of the lane or word attributes in
    /// `attrs`.
    fn select(&self, attrs: u64) -> u64 {
        bits(attrs).fold(!0, |mask, attr| {
            mask & SLICE[usize::from(self.position[attr])]
        })
    }

    /// The sets of the block whose sure members are `fixed` (`X` and the
    /// block's subset) that contain `z`, as a word mask and a lane mask; `None`
    /// when `z` needs an attribute the block leaves out.
    fn containing(&self, z: AttrSet, fixed: AttrSet) -> Option<(u64, u64)> {
        let open = z.difference(fixed).bits();
        if open & !(self.lanes | self.words) != 0 {
            return None;
        }
        Some((
            self.select(open & self.words),
            self.select(open & self.lanes),
        ))
    }

    /// Whether some set of the block with sure members `fixed` lies in
    /// `L(goal)` and in no premise lattice, with scratch arrays of `N`
    /// words, at least [`Slices::word_count`].
    fn refutes<const N: usize>(
        &self,
        fixed: AttrSet,
        premises: &[DiffConstraint],
        goal: &DiffConstraint,
    ) -> bool {
        let all_words = !0 >> (64 - self.word_count);
        // A set that contains a goal member lies outside `L(goal)`, so it is
        // settled before any premise is.
        let mut settled = [0u64; N];
        let settled = &mut settled[..self.word_count];
        for y in goal.rhs.iter() {
            if let Some((words, lanes)) = self.containing(y, fixed) {
                for w in bits(words & all_words) {
                    settled[w] |= lanes;
                }
            }
        }
        self.settle::<N>(fixed, premises, settled) != 0
    }

    /// The premise step of both kernels: ORs into `settled`, one entry per
    /// word of the block whose sure members are `fixed`, the sets that lie
    /// in some premise's lattice, and returns the words that still hold an
    /// unsettled set, none once the whole block is settled.  `settled` holds
    /// [`Slices::word_count`] words, at most `N`.
    ///
    /// A word is *open* while some lane of it is unsettled.  A premise
    /// visits only the open words that hold sets containing its left side,
    /// and the step ends as soon as no word is open, so a block that some
    /// premises settle never meets the rest.
    pub(crate) fn settle<const N: usize>(
        &self,
        fixed: AttrSet,
        premises: &[DiffConstraint],
        settled: &mut [u64],
    ) -> u64 {
        let mut open = 0;
        for (w, &s) in settled.iter().enumerate() {
            open |= u64::from(s != !0) << w;
        }
        // Lane `l` of word `w` is set in `inside` when that set contains a
        // member of the current premise; only the words it touches are
        // cleared and read.
        let mut inside = [0u64; N];
        for p in premises {
            if open == 0 {
                break;
            }
            let Some((x_words, x_lanes)) = self.containing(p.lhs, fixed) else {
                continue;
            };
            let touch = x_words & open;
            if touch == 0 {
                continue;
            }
            for w in bits(touch) {
                inside[w] = 0;
            }
            for y in p.rhs.iter() {
                if let Some((words, lanes)) = self.containing(y, fixed) {
                    for w in bits(words & touch) {
                        inside[w] |= lanes;
                    }
                }
            }
            for w in bits(touch) {
                settled[w] |= x_lanes & !inside[w];
                if settled[w] == !0 {
                    open &= !(1 << w);
                }
            }
        }
        open
    }
}

/// The indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Returns a *witness of non-implication* if one exists: a set `U ∈ L(goal)`
/// not covered by any premise lattice.  `None` means the implication holds.
///
/// The witness is [`refutation_search`]'s: callers may rely on its validity,
/// not on which set it is.
pub fn refutation_witness(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> Option<AttrSet> {
    refutation_search(universe, premises, goal)
}

/// Searches for a set `U ∈ L(goal)` outside every premise lattice, the
/// counterexample `f^U` of Theorem 3.5, and returns it; `None` iff
/// `C ⊨ goal`.
///
/// By Proposition 5.3 such a `U` is an assignment of the attributes that
/// satisfies every premise's formula `⋀X' ⇒ ⋁_{Y'} ⋀Y'` and falsifies the
/// goal's, so this is Proposition 5.4's satisfiability question, decided by
/// DPLL over the attributes with each constraint propagated whole instead of
/// as `∏|Y'|` clauses.  The partial assignment is two sets, `inside ⊇ X`
/// and `outside`; the rest of `S` is undecided.  The propagators are:
///
/// * a goal member `Y`: `Y ⊆ inside` is a conflict; if `Y` misses `outside`
///   and exactly one of its attributes is not inside, that attribute goes
///   out;
/// * a premise `X' → 𝒴'`, unless it is escaped (`X'` meets `outside`, or
///   some `Y' ⊆ inside`), where a member is *alive* if it misses `outside`:
///   with `X' ⊆ inside`, no alive member is a conflict and exactly one goes
///   in whole; with no alive member and one attribute of `X'` undecided,
///   that attribute goes out.
///
/// At the fixpoint `U = inside` (every undecided attribute left out) is a
/// refutation, unless some premise has `X' ⊆ inside` and no member inside;
/// the search then branches on the lowest undecided attribute of that
/// premise's first alive member, inside first.  It allocates nothing and
/// recurses at most `|S|` deep.  The problem is coNP-complete
/// (Proposition 5.5), so the number of branches is worst-case exponential.
pub fn refutation_search(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> Option<AttrSet> {
    // `X ⊄ S` leaves no superset of `X` in the universe to refute the goal.
    if !goal.lhs.is_subset(universe.full_set()) {
        return None;
    }
    let u_set = refute(premises, &goal.rhs, goal.lhs, AttrSet::EMPTY)?;
    // `lattice_contains` is Proposition 2.9's test, `X ⊆ U` included.
    debug_assert!(
        u_set.is_subset(universe.full_set())
            && goal.lattice_contains(u_set)
            && !premises.iter().any(|p| p.lattice_contains(u_set)),
        "{u_set:?} is not a refutation"
    );
    Some(u_set)
}

/// One node of [`refutation_search`]: propagates `inside`/`outside` to a
/// fixpoint and returns the refutation there, `None` on a conflict, or the
/// first refutation below its branch.
fn refute(
    premises: &[DiffConstraint],
    goal: &Family,
    mut inside: AttrSet,
    mut outside: AttrSet,
) -> Option<AttrSet> {
    loop {
        let mut changed = false;
        for y in goal.iter() {
            if !y.is_disjoint(outside) {
                continue;
            }
            let open = y.difference(inside);
            match open.len() {
                0 => return None,
                1 => {
                    outside = outside.union(open);
                    changed = true;
                }
                _ => {}
            }
        }
        // The attribute this node branches on if the pass reaches the
        // fixpoint: the first unsatisfied premise's, per the rule above.
        let mut branch = None;
        for p in premises {
            if !p.lhs.is_disjoint(outside) || p.rhs.some_member_subset_of(inside) {
                continue;
            }
            let open = p.lhs.difference(inside);
            let mut alive = p.rhs.iter().filter(|y| y.is_disjoint(outside));
            match (open.len(), alive.next(), alive.next()) {
                (0, None, _) => return None,
                (0, Some(y), None) => {
                    inside = inside.union(y);
                    changed = true;
                }
                (0, Some(y), Some(_)) => branch = branch.or(y.difference(inside).min_attr()),
                (1, None, _) => {
                    outside = outside.union(open);
                    changed = true;
                }
                _ => {}
            }
        }
        if changed {
            continue;
        }
        let Some(attr) = branch else {
            return Some(inside);
        };
        return refute(premises, goal, inside.with(attr), outside)
            .or_else(|| refute(premises, goal, inside, outside.with(attr)));
    }
}

/// Decides `C ⊨ goal` semantically, following the proof of Theorem 3.5: the
/// implication fails iff some counterexample function `f^U` (a point mass at a
/// set `U ⊇ X`) satisfies every premise yet violates the goal.
///
/// Slower than [`implies_lattice`] (it runs a Möbius transform per candidate),
/// but completely independent of the lattice bookkeeping, which makes it a good
/// cross-check in tests and experiments.
pub fn implies_semantic(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> bool {
    let n = universe.len();
    for u_set in powerset::supersets_within(goal.lhs, n) {
        let f = SetFunction::point_mass(n, u_set, 1.0);
        if semantics::satisfies_all(&f, premises) && !semantics::satisfies(&f, goal) {
            return false;
        }
    }
    true
}

/// Decides whether two constraint sets are equivalent (each implies every
/// member of the other).
pub fn equivalent_sets(
    universe: &Universe,
    first: &[DiffConstraint],
    second: &[DiffConstraint],
) -> bool {
    second.iter().all(|c| implies(universe, first, c))
        && first.iter().all(|c| implies(universe, second, c))
}

/// Removes redundant constraints: a member is dropped when it is implied by the
/// remaining ones.  The result is a (not necessarily unique) irredundant cover
/// equivalent to the input.
pub fn irredundant_cover(
    universe: &Universe,
    constraints: &[DiffConstraint],
) -> Vec<DiffConstraint> {
    let mut kept: Vec<DiffConstraint> = constraints.to_vec();
    let mut i = 0;
    while i < kept.len() {
        let candidate = kept[i].clone();
        let rest: Vec<DiffConstraint> = kept
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, c)| c.clone())
            .collect();
        if implies(universe, &rest, &candidate) {
            kept.remove(i);
        } else {
            i += 1;
        }
    }
    kept
}

/// The number of sets in `L(goal) − L(C)` — how "far" the implication is from
/// holding (0 iff it holds).  Used by experiments that need a quantitative
/// notion of violation.
pub fn uncovered_count(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> usize {
    let n = universe.len();
    powerset::supersets_within(goal.lhs, n)
        .filter(|&u| goal.lattice_contains(u))
        .filter(|&u| !premises.iter().any(|p| p.lattice_contains(u)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u3() -> Universe {
        Universe::of_size(3)
    }

    fn u4() -> Universe {
        Universe::of_size(4)
    }

    fn parse(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    #[test]
    fn example_3_4_transitivity() {
        let u = u3();
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let goal = DiffConstraint::parse("A -> {C}", &u).unwrap();
        assert!(implies(&u, &premises, &goal));
        assert!(implies_semantic(&u, &premises, &goal));
        assert_eq!(refutation_witness(&u, &premises, &goal), None);

        let bad = DiffConstraint::parse("C -> {A}", &u).unwrap();
        assert!(!implies(&u, &premises, &bad));
        assert!(!implies_semantic(&u, &premises, &bad));
        assert!(refutation_witness(&u, &premises, &bad).is_some());
    }

    #[test]
    fn example_4_3_derivation_goal_is_implied() {
        let u = u4();
        let premises = parse(&u, &["A -> {BC, CD}", "C -> {D}"]);
        let goal = DiffConstraint::parse("AB -> {D}", &u).unwrap();
        assert!(implies(&u, &premises, &goal));
        assert!(implies_semantic(&u, &premises, &goal));
    }

    #[test]
    fn trivial_goals_are_always_implied() {
        let u = u4();
        let goal = DiffConstraint::parse("AB -> {B}", &u).unwrap();
        assert!(implies(&u, &[], &goal));
        assert!(implies_semantic(&u, &[], &goal));
    }

    #[test]
    fn soundness_of_figure_1_rules_via_implication() {
        // Each Figure 1 rule instance must be implied by its hypotheses.
        let u = u4();
        // Augmentation: A → {B, CD} ⊨ AC → {B, CD}.
        let premise = parse(&u, &["A -> {B, CD}"]);
        assert!(implies(
            &u,
            &premise,
            &DiffConstraint::parse("AC -> {B, CD}", &u).unwrap()
        ));
        // Addition: A → {B} ⊨ A → {B, CD}.
        let premise = parse(&u, &["A -> {B}"]);
        assert!(implies(
            &u,
            &premise,
            &DiffConstraint::parse("A -> {B, CD}", &u).unwrap()
        ));
        // Elimination: {A → {B, C}, AC → {B}} ⊨ A → {B}.
        let premises = parse(&u, &["A -> {B, C}", "AC -> {B}"]);
        assert!(implies(
            &u,
            &premises,
            &DiffConstraint::parse("A -> {B}", &u).unwrap()
        ));
    }

    #[test]
    fn addition_converse_fails() {
        // A → {B, CD} does not imply A → {B}.
        let u = u4();
        let premises = parse(&u, &["A -> {B, CD}"]);
        let goal = DiffConstraint::parse("A -> {B}", &u).unwrap();
        assert!(!implies(&u, &premises, &goal));
        let witness = refutation_witness(&u, &premises, &goal).unwrap();
        // The witness must be in L(goal) but not in L(premise).
        assert!(goal.lattice_contains(witness));
        assert!(!premises[0].lattice_contains(witness));
    }

    #[test]
    fn lattice_and_semantic_procedures_agree_on_random_instances() {
        let u = u4();
        let mut state = 0x12345678u64;
        let mut rand_set = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            AttrSet::from_bits((state >> 40) % bound)
        };
        for _ in 0..40 {
            let premises: Vec<DiffConstraint> = (0..3)
                .map(|_| {
                    DiffConstraint::new(
                        rand_set(16),
                        setlat::Family::from_sets(
                            (0..2).map(|_| rand_set(15) | AttrSet::singleton(3)),
                        ),
                    )
                })
                .collect();
            let goal = DiffConstraint::new(rand_set(16), setlat::Family::from_sets([rand_set(16)]));
            assert_eq!(
                implies_lattice(&u, &premises, &goal),
                implies_semantic(&u, &premises, &goal),
                "procedures disagree on premises {premises:?}, goal {goal:?}"
            );
        }
    }

    #[test]
    fn lattice_check_ignores_attributes_outside_the_universe() {
        // Attribute 5 lies outside a 4-attribute universe: no set of the
        // universe contains a left side or member that holds it.
        let u = u4();
        let outside = AttrSet::singleton(5);
        let stray_goal = DiffConstraint::new(outside, Family::single(AttrSet::singleton(0)));
        assert!(implies_lattice(&u, &[], &stray_goal));
        assert!(implies(&u, &[], &stray_goal));
        assert_eq!(uncovered_count(&u, &[], &stray_goal), 0);
        let goal = DiffConstraint::parse("A -> {B}", &u).unwrap();
        let stray_premise = DiffConstraint::new(outside, Family::empty());
        assert!(!implies_lattice(&u, &[stray_premise], &goal));
        let stray_member = DiffConstraint::new(
            AttrSet::singleton(0),
            Family::single(AttrSet::singleton(1).union(outside)),
        );
        let stray_member = [stray_member];
        assert!(implies_lattice(&u, &stray_member, &goal));
        assert_eq!(uncovered_count(&u, &stray_member, &goal), 0);
    }

    #[test]
    fn equivalence_and_irredundant_cover() {
        let u = u3();
        let set_a = parse(&u, &["A -> {B}", "B -> {C}", "A -> {C}"]);
        let set_b = parse(&u, &["A -> {B}", "B -> {C}"]);
        assert!(equivalent_sets(&u, &set_a, &set_b));
        let cover = irredundant_cover(&u, &set_a);
        assert!(cover.len() <= 2);
        assert!(equivalent_sets(&u, &cover, &set_a));
        // A non-equivalent pair.
        let set_c = parse(&u, &["A -> {B}"]);
        assert!(!equivalent_sets(&u, &set_a, &set_c));
    }

    #[test]
    fn uncovered_count_quantifies_violation() {
        let u = u3();
        let premises = parse(&u, &["A -> {B}"]);
        let implied = DiffConstraint::parse("AC -> {B}", &u).unwrap();
        assert_eq!(uncovered_count(&u, &premises, &implied), 0);
        let not_implied = DiffConstraint::parse("B -> {A}", &u).unwrap();
        assert!(uncovered_count(&u, &premises, &not_implied) > 0);
    }

    #[test]
    fn refutation_search_needs_no_clause_expansion() {
        // Thirteen three-attribute members distribute into 3^13 clauses;
        // propagated whole, the premise is satisfied at the root by leaving
        // A out.
        let u = Universe::of_size(64);
        let premises = parse(
            &u,
            &["A -> {BCD, EFG, HIJ, KLM, NOP, QRS, TUV, WXY, Zab, cde, fgh, ijk, lmn}"],
        );
        let goal = DiffConstraint::parse("B -> {C}", &u).unwrap();
        let witness = refutation_search(&u, &premises, &goal).unwrap();
        assert!(goal.lattice_contains(witness));
        assert!(!premises[0].lattice_contains(witness));
        // The goal is its own premise: enumeration confirms it over all 2^40
        // sets, propagation at the root.
        let u = Universe::of_size(40);
        let premises = parse(&u, &[" -> {A}"]);
        let goal = DiffConstraint::parse(" -> {A}", &u).unwrap();
        assert_eq!(refutation_witness(&u, &premises, &goal), None);
    }

    #[test]
    fn refutation_search_backtracks_out_of_a_failed_branch() {
        // Nothing propagates at the root, which branches on B inside first.
        // B inside needs D or E inside, each of which pulls in the other,
        // and the goal forbids DE: both branches below B conflict, so the
        // search backtracks to B outside, which forces C inside.
        let u = Universe::of_size(5);
        let premises = parse(&u, &[" -> {B, C}", "B -> {D, E}", "D -> {E}", "E -> {D}"]);
        let goal = DiffConstraint::parse(" -> {DE}", &u).unwrap();
        assert!(!implies_lattice(&u, &premises, &goal));
        let witness = refutation_search(&u, &premises, &goal).unwrap();
        assert_eq!(witness, u.parse_set("C").unwrap());
    }

    #[test]
    fn empty_premises() {
        let u = u3();
        // Only trivial constraints are implied by the empty set.
        assert!(implies(
            &u,
            &[],
            &DiffConstraint::parse("AB -> {A}", &u).unwrap()
        ));
        assert!(!implies(
            &u,
            &[],
            &DiffConstraint::parse("A -> {B}", &u).unwrap()
        ));
    }
}
