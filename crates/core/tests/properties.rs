//! Property-based tests for the `diffcon` crate proper: implication algebra,
//! the refutation search against the paper's decision procedures,
//! decompositions, proof objects, covers and the FD fragment.

use diffcon::random::{ConstraintGenerator, ConstraintShape};
use diffcon::{decompose, fd_fragment, implication, inference, prop_bridge, DiffConstraint};
use proptest::prelude::*;
use setlat::{AttrSet, Family, Universe};

const N: usize = 5;

fn universe() -> Universe {
    Universe::of_size(N)
}

fn arb_set() -> impl Strategy<Value = AttrSet> {
    (0u64..(1u64 << N)).prop_map(AttrSet::from_bits)
}

fn arb_nonempty_set() -> impl Strategy<Value = AttrSet> {
    (1u64..(1u64 << N)).prop_map(AttrSet::from_bits)
}

fn arb_constraint() -> impl Strategy<Value = DiffConstraint> {
    (
        arb_set(),
        proptest::collection::vec(arb_nonempty_set(), 0..=2),
    )
        .prop_map(|(lhs, members)| DiffConstraint::new(lhs, Family::from_sets(members)))
}

fn arb_constraints(max: usize) -> impl Strategy<Value = Vec<DiffConstraint>> {
    proptest::collection::vec(arb_constraint(), 0..=max)
}

/// A constraint as attribute indices: its left side and its members.
type RawConstraint = (Vec<usize>, Vec<Vec<usize>>);

/// A constraint as attribute indices in `0..span`: a left side of up to three
/// attributes, possibly empty, and up to three members of one to three
/// attributes each, except that one member in eight is `∅`; the family may be
/// empty.
fn arb_raw_constraint(span: usize) -> impl Strategy<Value = RawConstraint> {
    let member = (0u8..8, proptest::collection::vec(0..span, 1..=3)).prop_map(|(pick, indices)| {
        if pick == 0 {
            Vec::new()
        } else {
            indices
        }
    });
    (
        proptest::collection::vec(0..span, 0..=3),
        proptest::collection::vec(member, 0..=3),
    )
}

/// Up to `max_premises` raw premises and a raw goal, for [`instance`].
fn arb_raw_instance(
    max_premises: usize,
    span: usize,
) -> impl Strategy<Value = (Vec<RawConstraint>, RawConstraint)> {
    (
        proptest::collection::vec(arb_raw_constraint(span), 0..=max_premises),
        arb_raw_constraint(span),
    )
}

/// Builds a raw instance over `n` attributes, index `i` naming attribute
/// `(offset + i) mod n`.
fn instance(
    n: usize,
    offset: usize,
    (premises, goal): (Vec<RawConstraint>, RawConstraint),
) -> (Universe, Vec<DiffConstraint>, DiffConstraint) {
    let set =
        |indices: Vec<usize>| AttrSet::from_indices(indices.into_iter().map(|i| (offset + i) % n));
    let constraint = |(lhs, members): RawConstraint| {
        DiffConstraint::new(set(lhs), Family::from_sets(members.into_iter().map(set)))
    };
    (
        Universe::of_size(n),
        premises.into_iter().map(constraint).collect(),
        constraint(goal),
    )
}

/// What [`implication::refutation_search`] answers, after checking that a
/// returned `U` is a genuine refutation: it lies in the universe, contains
/// `X`, lies in `L(goal)` and lies outside every premise lattice
/// (Proposition 2.9).
fn checked_search(u: &Universe, premises: &[DiffConstraint], goal: &DiffConstraint) -> bool {
    match implication::refutation_search(u, premises, goal) {
        Some(w) => {
            assert!(w.is_subset(u.full_set()), "{w:?} leaves the universe");
            assert!(goal.lhs.is_subset(w), "{w:?} misses the goal's left side");
            assert!(goal.lattice_contains(w), "{w:?} is outside L(goal)");
            for p in premises {
                assert!(!p.lattice_contains(w), "{w:?} lies in L({p:?})");
            }
            false
        }
        None => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Implication is reflexive and monotone in the premise set.
    #[test]
    fn implication_is_reflexive_and_monotone(premises in arb_constraints(3), extra in arb_constraint(), goal in arb_constraint()) {
        let u = universe();
        for p in &premises {
            prop_assert!(implication::implies(&u, &premises, p));
        }
        if implication::implies(&u, &premises, &goal) {
            let mut bigger = premises.clone();
            bigger.push(extra);
            prop_assert!(implication::implies(&u, &bigger, &goal));
        }
    }

    /// Implication is transitive through an intermediate constraint set.
    #[test]
    fn implication_is_transitive(premises in arb_constraints(2), mid in arb_constraint(), goal in arb_constraint()) {
        let u = universe();
        if implication::implies(&u, &premises, &mid)
            && implication::implies(&u, std::slice::from_ref(&mid), &goal)
        {
            prop_assert!(implication::implies(&u, &premises, &goal));
        }
    }

    /// Figure 1 rules are sound as implication statements for arbitrary instances.
    #[test]
    fn figure_1_rules_sound(c in arb_constraint(), z in arb_set()) {
        let u = universe();
        let augmented = DiffConstraint::new(c.lhs.union(z), c.rhs.clone());
        prop_assert!(implication::implies(&u, std::slice::from_ref(&c), &augmented));
        let added = DiffConstraint::new(c.lhs, c.rhs.with_member(z));
        prop_assert!(implication::implies(&u, std::slice::from_ref(&c), &added));
        let with_member = DiffConstraint::new(c.lhs, c.rhs.with_member(z));
        let with_lhs = DiffConstraint::new(c.lhs.union(z), c.rhs.clone());
        prop_assert!(implication::implies(&u, &[with_member, with_lhs], &c));
    }

    /// The irredundant cover is equivalent to the original set and no larger.
    #[test]
    fn irredundant_cover_is_equivalent(premises in arb_constraints(4)) {
        let u = universe();
        let cover = implication::irredundant_cover(&u, &premises);
        prop_assert!(cover.len() <= premises.len());
        prop_assert!(implication::equivalent_sets(&u, &cover, &premises));
    }

    /// Both decompositions of a constraint are semantically equivalent to it.
    #[test]
    fn decompositions_are_equivalent(c in arb_constraint()) {
        let u = universe();
        let singleton = vec![c.clone()];
        prop_assert!(implication::equivalent_sets(&u, &singleton, &decompose::decomposition(&c)));
        prop_assert!(implication::equivalent_sets(&u, &singleton, &decompose::atomic_decomposition(&c, &u)));
        prop_assert!(implication::equivalent_sets(&u, &singleton, &decompose::minimal_decomposition(&c)));
    }

    /// The refutation witness, when present, is a genuine separator; when absent
    /// the implication holds (and the SAT procedure agrees either way).
    #[test]
    fn refutation_witnesses_are_genuine(premises in arb_constraints(3), goal in arb_constraint()) {
        let u = universe();
        match implication::refutation_witness(&u, &premises, &goal) {
            Some(w) => {
                prop_assert!(goal.lattice_contains(w));
                for p in &premises {
                    prop_assert!(!p.lattice_contains(w));
                }
                prop_assert!(!implication::implies_lattice(&u, &premises, &goal));
                prop_assert!(!prop_bridge::implies_sat(&u, &premises, &goal));
            }
            None => {
                prop_assert!(implication::implies_lattice(&u, &premises, &goal));
                prop_assert!(prop_bridge::implies_sat(&u, &premises, &goal));
            }
        }
    }

    /// uncovered_count is zero exactly on implied goals and never exceeds the
    /// goal's lattice size.
    #[test]
    fn uncovered_count_consistency(premises in arb_constraints(3), goal in arb_constraint()) {
        let u = universe();
        let count = implication::uncovered_count(&u, &premises, &goal);
        prop_assert_eq!(count == 0, implication::implies_lattice(&u, &premises, &goal));
        prop_assert!(count as i128 <= goal.lattice_size(&u));
    }

    /// Derivations produced on generator-implied goals verify and use only
    /// premises from the given list.
    #[test]
    fn generated_proofs_verify(seed in 0u64..500) {
        let u = universe();
        let shape = ConstraintShape { max_lhs: 2, max_members: 2, max_member_size: 2, allow_trivial: false };
        let mut gen = ConstraintGenerator::new(seed, &u);
        let premises = gen.constraint_set(3, &shape);
        let goal = gen.implied_goal(&premises);
        let proof = inference::derive(&u, &premises, &goal).expect("implied goals are derivable");
        prop_assert!(proof.verify(&u, &premises).is_ok());
        prop_assert_eq!(proof.conclusion(), &goal);
        // Tampering with the premise list must break verification whenever the
        // proof actually references a premise.
        if proof.rule_counts().contains_key(&inference::Rule::Premise) && !premises.is_empty() {
            let mut tampered = premises.clone();
            tampered[0] = DiffConstraint::new(
                tampered[0].lhs.complement_in(N),
                Family::single(AttrSet::full(N)),
            );
            if tampered != premises {
                // Either verification fails or the proof never used premise #0.
                let still_ok = proof.verify(&u, &tampered).is_ok();
                if still_ok {
                    // Then the proof must also verify against the premises with #0 removed.
                    let without: Vec<DiffConstraint> = premises.iter().skip(1).cloned().collect();
                    let _ = without; // index-shifted, so we cannot assert more here.
                }
            }
        }
    }

    /// The FD fragment decision agrees with the general procedure on arbitrary
    /// single-member instances.
    #[test]
    fn fd_fragment_agrees(lhs_masks in proptest::collection::vec((0u64..(1u64 << N), 1u64..(1u64 << N)), 1..4, ), goal_lhs in arb_set(), goal_rhs in arb_nonempty_set()) {
        let u = universe();
        let premises: Vec<DiffConstraint> = lhs_masks
            .into_iter()
            .map(|(l, r)| DiffConstraint::new(AttrSet::from_bits(l), Family::single(AttrSet::from_bits(r))))
            .collect();
        let goal = DiffConstraint::new(goal_lhs, Family::single(goal_rhs));
        prop_assert_eq!(
            fd_fragment::implies_polynomial(&premises, &goal),
            implication::implies_lattice(&u, &premises, &goal)
        );
    }

    /// The constraint parser round-trips through formatting.
    #[test]
    fn parser_roundtrip(c in arb_constraint()) {
        let u = universe();
        let printed = c.format(&u);
        let reparsed = DiffConstraint::parse(&printed, &u).unwrap();
        prop_assert_eq!(c, reparsed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The refutation search agrees with the lattice procedure up to 12
    /// attributes, and every refutation it returns is genuine.
    #[test]
    fn refutation_search_agrees_with_lattice(n in 1usize..=12, raw in arb_raw_instance(6, 64)) {
        let (u, premises, goal) = instance(n, 0, raw);
        prop_assert_eq!(
            checked_search(&u, &premises, &goal),
            implication::implies_lattice(&u, &premises, &goal),
            "premises {:?}, goal {:?}", premises, goal
        );
    }

    /// The refutation search agrees with the semantic counterexample
    /// enumeration up to 8 attributes.
    #[test]
    fn refutation_search_agrees_with_semantic(n in 1usize..=8, raw in arb_raw_instance(4, 64)) {
        let (u, premises, goal) = instance(n, 0, raw);
        prop_assert_eq!(
            checked_search(&u, &premises, &goal),
            implication::implies_semantic(&u, &premises, &goal),
            "premises {:?}, goal {:?}", premises, goal
        );
    }

    /// At 64 attributes, past any enumeration, the refutation search agrees
    /// with the clause-level SAT procedure.  Each instance uses a band of 16
    /// attributes at a random offset, wrapping past attribute 63, so goals
    /// are implied often enough for the agreement to mean something.
    #[test]
    fn refutation_search_agrees_with_sat_at_64(offset in 0usize..64, raw in arb_raw_instance(8, 16)) {
        let (u, premises, goal) = instance(64, offset, raw);
        prop_assert_eq!(
            checked_search(&u, &premises, &goal),
            prop_bridge::implies_sat(&u, &premises, &goal),
            "premises {:?}, goal {:?}", premises, goal
        );
    }
}

/// `|S − X|` for the lattice kernel tests: none, part of the lanes of a word,
/// exactly the lanes, part of the words of a block, exactly the words, and
/// several blocks, each equally often.
fn arb_free_count() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..=5,
        Just(6usize),
        7usize..=11,
        Just(12usize),
        13usize..=16
    ]
}

/// A raw constraint that, one time in four, also gets a member inside its
/// left side: a premise whose lattice is then empty, or a trivial goal.
fn arb_kernel_constraint(span: usize) -> impl Strategy<Value = (RawConstraint, bool)> {
    (arb_raw_constraint(span), 0u8..4).prop_map(|(raw, pick)| (raw, pick == 0))
}

type KernelInstance = (Vec<(RawConstraint, bool)>, (RawConstraint, bool));

fn arb_kernel_instance(
    premises: std::ops::RangeInclusive<usize>,
    span: usize,
) -> impl Strategy<Value = KernelInstance> {
    (
        proptest::collection::vec(arb_kernel_constraint(span), premises),
        arb_kernel_constraint(span),
    )
}

/// One step of the Knuth LCG the kernel tests draw indices with.
fn lcg(seed: &mut u64) -> usize {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*seed >> 33) as usize
}

/// `count` distinct indices in `0..span`, drawn from `seed`.
fn distinct_indices(span: usize, count: usize, mut seed: u64) -> Vec<usize> {
    let mut picked = Vec::new();
    while picked.len() < count {
        let i = lcg(&mut seed) % span;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Builds a kernel instance over `n` attributes, index `i` naming attribute
/// `(offset + i) mod n`.  The goal's left side is every attribute except
/// the indices `free`, and its members' indices pick among those (a goal
/// member inside `X` would make the goal trivial).  A constraint drawn with
/// an inner member also gets its left side as a member; for the goal, the
/// part of its drawn left side inside `X`.
fn kernel_instance(
    n: usize,
    offset: usize,
    free: &[usize],
    (premises, goal): KernelInstance,
) -> (Universe, Vec<DiffConstraint>, DiffConstraint) {
    let attr = |i: usize| (offset + i) % n;
    let set = |indices: &[usize]| AttrSet::from_indices(indices.iter().map(|&i| attr(i)));
    let free_set = |indices: &[usize]| match free.len() {
        0 => set(indices),
        len => AttrSet::from_indices(indices.iter().map(|&i| attr(free[i % len]))),
    };
    let goal_lhs = AttrSet::full(n).difference(set(free));
    let premises = premises
        .iter()
        .map(|((lhs, members), inner)| {
            let lhs = set(lhs);
            let members = members.iter().map(|m| set(m)).chain(inner.then_some(lhs));
            DiffConstraint::new(lhs, Family::from_sets(members))
        })
        .collect();
    let ((drawn_lhs, members), inner) = &goal;
    let members = members
        .iter()
        .map(|m| free_set(m))
        .chain(inner.then(|| set(drawn_lhs).intersect(goal_lhs)));
    let goal = DiffConstraint::new(goal_lhs, Family::from_sets(members));
    (Universe::of_size(n), premises, goal)
}

/// The bit-sliced lattice check against the scalar walk over the same sets.
fn kernel_agrees(u: &Universe, premises: &[DiffConstraint], goal: &DiffConstraint) -> bool {
    implication::implies_lattice(u, premises, goal)
        == (implication::uncovered_count(u, premises, goal) == 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The bit-sliced lattice check agrees with `uncovered_count`'s scalar
    /// walk up to 16 attributes, with `|S − X|` on both sides of every lane,
    /// word and block boundary.
    #[test]
    fn lattice_kernel_agrees_with_scalar_walk(free in arb_free_count(), extra in 0usize..=16, seed in any::<u64>(), raw in arb_kernel_instance(0..=6, 16)) {
        let n = (free.max(1) + extra).min(16);
        let (u, premises, goal) = kernel_instance(n, 0, &distinct_indices(n, free, seed), raw);
        prop_assert!(kernel_agrees(&u, &premises, &goal), "premises {:?}, goal {:?}", premises, goal);
    }

    /// A goal planted among the premises, with premises after it, is
    /// implied: each block is settled at the planted premise, mid-list, and
    /// the kernel still agrees with the scalar walk.
    #[test]
    fn lattice_kernel_settles_a_planted_cover(free in arb_free_count(), extra in 0usize..=16, seed in any::<u64>(), at in 0usize..6, raw in arb_kernel_instance(1..=6, 16)) {
        let n = (free.max(1) + extra).min(16);
        let (u, mut premises, goal) = kernel_instance(n, 0, &distinct_indices(n, free, seed), raw);
        premises.insert(at % premises.len(), goal.clone());
        prop_assert!(implication::implies_lattice(&u, &premises, &goal), "premises {:?}, goal {:?}", premises, goal);
        prop_assert!(kernel_agrees(&u, &premises, &goal), "premises {:?}, goal {:?}", premises, goal);
    }

    /// The same at 64 attributes: `X` is all but up to 16 attributes of a
    /// band at a random offset, wrapping past attribute 63, so lane, word
    /// and block attributes land anywhere in the word, the top bit included.
    #[test]
    fn lattice_kernel_agrees_with_scalar_walk_at_64(free in arb_free_count(), offset in 0usize..64, seed in any::<u64>(), raw in arb_kernel_instance(0..=6, 20)) {
        let (u, premises, goal) = kernel_instance(64, offset, &distinct_indices(16, free, seed), raw);
        prop_assert!(kernel_agrees(&u, &premises, &goal), "premises {:?}, goal {:?}", premises, goal);
    }
}

/// The universe sizes of the one-open-set tests: a word's lanes exactly,
/// one word attribute, a block's words exactly, one block attribute and
/// sixteen attributes; 64 stands for a band of 16 at a random offset.
fn arb_open_set_universe() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(6usize),
        Just(7),
        Just(12),
        Just(13),
        Just(16),
        Just(64)
    ]
}

/// An instance whose premises leave exactly one set `U ⊇ X` of `X`'s
/// supersets outside `L(C)`: `X ∪ {a} → {}` for each `a ∉ U`, and
/// `X → {U − X}` when `U ≠ X`, in an order drawn from `seed`.  `X` is all
/// but `free` attributes (of a band of 16 at `offset` at 64 attributes),
/// and `U − X` is the free attributes whose bit is set in `pick`, so over
/// the cases `U` lands on every lane, word and block.  Returns the
/// universe, the premises, `X` and `U`.
fn one_open_set(
    n: usize,
    offset: usize,
    free: usize,
    pick: u64,
    mut seed: u64,
) -> (Universe, Vec<DiffConstraint>, AttrSet, AttrSet) {
    let span = n.min(16);
    let free: Vec<usize> = distinct_indices(span, free.min(span), seed)
        .into_iter()
        .map(|i| (offset + i) % n)
        .collect();
    let free_set = AttrSet::from_indices(free.iter().copied());
    let x = AttrSet::full(n).difference(free_set);
    let u = x.union(AttrSet::from_indices(
        free.iter()
            .enumerate()
            .filter(|&(i, _)| pick >> i & 1 == 1)
            .map(|(_, &a)| a),
    ));
    let mut premises: Vec<DiffConstraint> = free_set
        .difference(u)
        .iter()
        .map(|a| DiffConstraint::new(x.with(a), Family::empty()))
        .collect();
    if u != x {
        premises.push(DiffConstraint::new(x, Family::single(u.difference(x))));
    }
    for i in (1..premises.len()).rev() {
        premises.swap(i, lcg(&mut seed) % (i + 1));
    }
    (Universe::of_size(n), premises, x, u)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With exactly one set `U` left open, `X → {}` is refuted by `U` alone
    /// and every `X → {Y}` with `∅ ≠ Y ⊆ U − X` is implied: the kernel must
    /// keep the one unsettled lane open through every block and premise.
    #[test]
    fn lattice_kernel_finds_the_one_open_set(n in arb_open_set_universe(), offset in 0usize..64, free in 0usize..=16, pick in any::<u64>(), seed in any::<u64>(), y_pick in any::<u64>()) {
        let (u, premises, x, open) = one_open_set(n, offset, free, pick, seed);
        let refuted = DiffConstraint::new(x, Family::empty());
        prop_assert!(!implication::implies_lattice(&u, &premises, &refuted), "premises {:?}, U {:?}", premises, open);
        prop_assert_eq!(implication::uncovered_count(&u, &premises, &refuted), 1);
        prop_assert_eq!(implication::refutation_search(&u, &premises, &refuted), Some(open));
        let rest: Vec<usize> = open.difference(x).iter().collect();
        if !rest.is_empty() {
            let y = AttrSet::from_indices(
                rest.iter()
                    .enumerate()
                    .filter(|&(i, _)| i == 0 || y_pick >> i & 1 == 1)
                    .map(|(_, &a)| a),
            );
            let implied = DiffConstraint::new(x, Family::single(y));
            prop_assert!(implication::implies_lattice(&u, &premises, &implied), "premises {:?}, goal {:?}", premises, implied);
            prop_assert!(kernel_agrees(&u, &premises, &implied));
        }
    }
}
