//! `Family` against a `Vec`-backed reference model.
//!
//! A family keeps up to four members inline and larger ones on the heap;
//! the model is a plain sorted, deduplicated `Vec<AttrSet>`.  Random member lists of 0–8 sets are driven across
//! the four/five boundary both ways — `with_member` on four members, then
//! `without_member`, `intersect_members_with` and `refill` back down — and
//! every result must agree with the model on its members, length,
//! membership, equality, order, hash (through a `HashSet` and against the
//! model's own hash), fingerprint, unions and `Debug` text.

use proptest::prelude::*;
use setlat::{AttrSet, Family};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Sets over six attributes, so random lists repeat members now and then.
fn arb_set() -> impl Strategy<Value = AttrSet> {
    (0u64..64).prop_map(AttrSet::from_bits)
}

fn arb_sets() -> impl Strategy<Value = Vec<AttrSet>> {
    proptest::collection::vec(arb_set(), 0..=8)
}

/// The reference model: the members sorted and deduplicated.
fn model(sets: impl IntoIterator<Item = AttrSet>) -> Vec<AttrSet> {
    let mut members: Vec<AttrSet> = sets.into_iter().collect();
    members.sort();
    members.dedup();
    members
}

/// The fingerprint formula over a sorted member list.
fn model_fingerprint(members: &[AttrSet]) -> u64 {
    let mut acc: u64 = 0x243F6A8885A308D3 ^ (members.len() as u64);
    for &m in members {
        acc = acc
            .rotate_left(17)
            .wrapping_mul(0x100000001B3)
            .wrapping_add(m.fingerprint());
    }
    AttrSet::from_bits(acc).fingerprint()
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Checks one family against its model, alone.
fn check(family: &Family, members: &[AttrSet]) {
    assert_eq!(family.members(), members);
    assert_eq!(family.len(), members.len());
    assert_eq!(family.is_empty(), members.is_empty());
    assert_eq!(family.iter().collect::<Vec<_>>(), members);
    assert_eq!(family.into_iter().collect::<Vec<_>>(), members);
    for bits in 0..64 {
        let set = AttrSet::from_bits(bits);
        assert_eq!(family.contains(set), members.contains(&set));
    }
    assert_eq!(
        family.union_all(),
        members.iter().fold(AttrSet::EMPTY, |acc, &m| acc.union(m))
    );
    assert_eq!(family.fingerprint(), model_fingerprint(members));
    // A family hashes as its member slice, the way `Vec<AttrSet>` does.
    assert_eq!(hash_of(family), hash_of(members));
    assert_eq!(format!("{family:?}"), format!("Family{members:?}"));
    assert_eq!(family.clone(), *family);
    assert_eq!(Family::from_sets(members.iter().rev().copied()), *family);
}

/// Checks every pair of families against their models: equality, order,
/// unions, and lookups through a `HashSet`.
fn check_pairs(cases: &[(Family, Vec<AttrSet>)]) {
    let set: HashSet<Family> = cases.iter().map(|(family, _)| family.clone()).collect();
    let distinct: HashSet<&Vec<AttrSet>> = cases.iter().map(|(_, members)| members).collect();
    assert_eq!(set.len(), distinct.len());
    for (a, ma) in cases {
        // The same members, rebuilt a different way, are found.
        assert!(set.contains(&Family::from_sets(ma.iter().rev().copied())));
        for (b, mb) in cases {
            assert_eq!(a == b, ma == mb, "{a:?} == {b:?}");
            assert_eq!(a.cmp(b), ma.cmp(mb), "{a:?} cmp {b:?}");
            let union = a.union(b);
            check(&union, &model(ma.iter().chain(mb).copied()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn family_agrees_with_a_vec_model(
        sets in arb_sets(),
        refills in arb_sets(),
        start in 0u64..60,
        z in arb_set(),
        w in arb_set(),
    ) {
        let mut cases = Vec::new();
        let mut push = |family: Family, members: Vec<AttrSet>| {
            check(&family, &members);
            cases.push((family, members));
        };
        let listed = Family::from_sets(sets.iter().copied());
        push(listed.clone(), model(sets.iter().copied()));

        // Four distinct members, then a fifth: the boundary, both ways.
        let four_sets: Vec<AttrSet> = (start..start + 4).map(AttrSet::from_bits).collect();
        let four = Family::from_sets(four_sets.iter().copied());
        push(four.clone(), model(four_sets.iter().copied()));
        let five = four.with_member(z);
        let five_model = model(four_sets.iter().copied().chain([z]));
        push(five.clone(), five_model.clone());
        let back = five.without_member(z);
        push(back.clone(), five_model.iter().copied().filter(|&m| m != z).collect());
        let first = five.members()[0];
        push(
            five.without_member(first),
            five_model.iter().copied().filter(|&m| m != first).collect(),
        );
        push(
            five.intersect_members_with(w),
            model(five_model.iter().map(|m| m.intersect(w))),
        );

        // The random list grown by one, shrunk by one, and projected.
        push(
            listed.with_member(z),
            model(sets.iter().copied().chain([z])),
        );
        push(
            listed.without_member(z),
            model(sets.iter().copied().filter(|&m| m != z)),
        );
        push(
            listed.intersect_members_with(w),
            model(sets.iter().map(|m| m.intersect(w))),
        );

        // Refilling a five-member family, then a four-member one, with the
        // random lists: down across the boundary, and up again.
        let mut refilled = five.clone();
        refilled.refill(refills.iter().copied());
        push(refilled.clone(), model(refills.iter().copied()));
        refilled.refill(sets.iter().copied());
        push(refilled.clone(), model(sets.iter().copied()));
        let mut grown = four.clone();
        grown.refill(refills.iter().copied().chain(sets.iter().copied()));
        push(grown, model(refills.iter().chain(&sets).copied()));

        push(Family::single(z), vec![z]);
        push(Family::empty(), Vec::new());
        push(Family::of_singletons(w), model(w.iter().map(AttrSet::singleton)));
        check_pairs(&cases);
    }
}
