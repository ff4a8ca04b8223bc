//! Property-based tests for the set-function and lattice substrate.
//!
//! These exercise the core identities of Section 2 of the paper on randomly
//! generated functions, sets and families:
//!
//! * Möbius inversion is a bijection (Remark 2.3, equations (4)/(5));
//! * `D^𝒴_f(X) = Σ_{U ∈ L(X,𝒴)} d_f(U)` (Proposition 2.9);
//! * `L(X, 𝒴) = L(X, 𝒴 ∪ {Z}) ∪ L(X ∪ Z, 𝒴)` (Proposition 2.8);
//! * the witness-union form of `L` equals the containment characterization;
//! * every interval `[X, W̄]` is a meet- and join-semilattice.

use proptest::prelude::*;
use setlat::{
    differential, lattice, mobius, powerset, witness, AttrSet, Family, SetFunction, Universe,
};

const N: usize = 6;

fn arb_set() -> impl Strategy<Value = AttrSet> {
    (0u64..(1u64 << N)).prop_map(AttrSet::from_bits)
}

fn arb_nonempty_set() -> impl Strategy<Value = AttrSet> {
    (1u64..(1u64 << N)).prop_map(AttrSet::from_bits)
}

fn arb_family(max_members: usize) -> impl Strategy<Value = Family> {
    proptest::collection::vec(arb_nonempty_set(), 0..=max_members).prop_map(Family::from_sets)
}

fn arb_function() -> impl Strategy<Value = SetFunction> {
    proptest::collection::vec(-10.0f64..10.0, 1usize << N)
        .prop_map(|values| SetFunction::from_values(N, values))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mobius_zeta_roundtrip(f in arb_function()) {
        let d = mobius::density_function(&f);
        let back = mobius::from_density(&d);
        prop_assert!(back.max_abs_diff(&f) < 1e-9);
    }

    #[test]
    fn zeta_mobius_roundtrip(d in arb_function()) {
        let f = mobius::from_density(&d);
        let back = mobius::density_function(&f);
        prop_assert!(back.max_abs_diff(&d) < 1e-9);
    }

    #[test]
    fn fast_mobius_matches_naive(f in arb_function()) {
        let fast = mobius::density_function(&f);
        let naive = mobius::density_function_naive(&f);
        prop_assert!(fast.max_abs_diff(&naive) < 1e-9);
    }

    #[test]
    fn proposition_2_9(f in arb_function(), x in arb_set(), fam in arb_family(4)) {
        let d = mobius::density_function(&f);
        let direct = differential::differential_at(&f, x, &fam);
        let via = differential::differential_via_density(&d, x, &fam);
        prop_assert!((direct - via).abs() < 1e-7,
            "D^Y_f(X) = {direct} but density sum = {via}");
    }

    #[test]
    fn proposition_2_8(x in arb_set(), fam in arb_family(4), z in arb_set()) {
        let u = Universe::of_size(N);
        prop_assert!(lattice::proposition_2_8_holds(&u, x, &fam, z));
    }

    #[test]
    fn lattice_characterization_matches_witness_form(x in arb_set(), fam in arb_family(4)) {
        let u = Universe::of_size(N);
        prop_assert_eq!(
            lattice::lattice_decomposition(&u, x, &fam),
            lattice::lattice_via_witnesses(&u, x, &fam)
        );
    }

    #[test]
    fn lattice_size_matches_enumeration(x in arb_set(), fam in arb_family(4)) {
        let u = Universe::of_size(N);
        prop_assert_eq!(
            lattice::lattice_size(&u, x, &fam),
            lattice::lattice_decomposition(&u, x, &fam).len() as i128
        );
    }

    #[test]
    fn lattice_membership_matches_enumeration(x in arb_set(), fam in arb_family(4), u_set in arb_set()) {
        let u = Universe::of_size(N);
        let l = lattice::lattice_decomposition(&u, x, &fam);
        prop_assert_eq!(lattice::in_lattice(x, &fam, u_set), l.contains(&u_set));
    }

    #[test]
    fn witness_count_matches_enumeration(fam in arb_family(4)) {
        prop_assert_eq!(
            witness::count_witness_sets(&fam),
            witness::witness_sets(&fam).len() as i128
        );
    }

    #[test]
    fn minimal_witnesses_generate_all(fam in arb_family(4)) {
        let all = witness::witness_sets(&fam);
        let minimal = witness::minimal_witness_sets(&fam);
        for w in &all {
            prop_assert!(minimal.iter().any(|m| m.is_subset(*w)));
        }
        // And every minimal witness is a witness.
        for m in &minimal {
            prop_assert!(witness::is_witness(&fam, *m) || fam.is_empty());
        }
    }

    #[test]
    fn intervals_are_semilattices(lo in arb_set(), hi in arb_set()) {
        let iv: Vec<AttrSet> = powerset::interval(lo, hi).collect();
        if !iv.is_empty() {
            prop_assert!(lattice::is_meet_semilattice(&iv));
            prop_assert!(lattice::is_join_semilattice(&iv));
        }
    }

    #[test]
    fn subsets_iter_is_exact(set in arb_set()) {
        let subs: Vec<AttrSet> = powerset::subsets(set).collect();
        prop_assert_eq!(subs.len() as u128, powerset::subset_count(set));
        let mut dedup = subs.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), subs.len());
        for s in subs {
            prop_assert!(s.is_subset(set));
        }
    }

    #[test]
    fn density_of_frequency_like_function_is_recovered(values in proptest::collection::vec(0.0f64..5.0, 1usize << N)) {
        // Build a nonnegative density, reconstruct f, and check f is recognized as
        // a frequency function (Section 6 of the paper).
        let d = SetFunction::from_values(N, values);
        let f = mobius::from_density(&d);
        prop_assert!(differential::is_frequency_function(&f, 1e-7));
    }

    #[test]
    fn point_mass_density(u_set in arb_set(), c in -5.0f64..5.0) {
        let f = SetFunction::point_mass(N, u_set, c);
        let d = mobius::density_function(&f);
        for (x, v) in d.iter() {
            if x == u_set {
                prop_assert!((v - c).abs() < 1e-9);
            } else {
                prop_assert!(v.abs() < 1e-9);
            }
        }
    }

    #[test]
    fn family_normalization_is_idempotent(fam in arb_family(5)) {
        let renorm = Family::from_sets(fam.iter());
        prop_assert_eq!(fam, renorm);
    }

    #[test]
    fn trivial_iff_empty_lattice(x in arb_set(), fam in arb_family(4)) {
        let u = Universe::of_size(N);
        let trivial = fam.some_member_subset_of(x);
        let empty = lattice::lattice_decomposition(&u, x, &fam).is_empty();
        prop_assert_eq!(trivial, empty);
    }
}

/// Candidate attribute names for random universes: single ASCII letters and
/// digits, single non-ASCII characters, and multi-character names.
const NAME_POOL: [&str; 16] = [
    "A", "B", "Z", "a", "q", "0", "7", "9", "é", "Ω", "ß", "Lo", "Hi", "Vol", "x1", "AB",
];

/// Characters set texts are drawn from: every single-character candidate,
/// characters no universe holds, and the separators `parse_set` skips,
/// including `∅`, the empty set.
const TEXT_POOL: [char; 19] = [
    'A', 'B', 'Z', 'a', 'q', '0', '7', '9', 'é', 'Ω', 'ß', 'L', 'x', 'C', ' ', ',', '{', '}', '∅',
];

/// A universe over the pool members picked by `mask`, in pool order rotated
/// by `shift` (so the same name lands at different indices).
fn pool_universe(mask: u32, shift: usize) -> Universe {
    let names: Vec<&str> = (0..NAME_POOL.len())
        .map(|i| NAME_POOL[(i + shift) % NAME_POOL.len()])
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, name)| name)
        .collect();
    Universe::from_names(names).expect("pool names are distinct")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The attribute table agrees with a per-character map lookup: the same
    /// set, or the same unknown-attribute error, on every input.
    #[test]
    fn parse_set_matches_a_per_character_map_lookup(
        mask in 0u32..(1 << 16),
        shift in 0usize..16,
        picks in proptest::collection::vec(0usize..TEXT_POOL.len(), 0..12),
    ) {
        let universe = pool_universe(mask, shift);
        let text: String = picks.iter().map(|&i| TEXT_POOL[i]).collect();
        let map: std::collections::HashMap<&str, usize> = universe
            .names()
            .iter()
            .enumerate()
            .map(|(i, name)| (name.as_str(), i))
            .collect();
        let mut want = Ok(AttrSet::EMPTY);
        for ch in text.chars() {
            if ch.is_whitespace() || matches!(ch, ',' | '{' | '}' | '∅') {
                continue;
            }
            match map.get(ch.to_string().as_str()) {
                Some(&i) => {
                    if let Ok(set) = &mut want {
                        set.insert(i);
                    }
                }
                None => {
                    want = Err(setlat::universe::UniverseError::UnknownAttribute(ch.to_string()));
                    break;
                }
            }
        }
        prop_assert_eq!(universe.parse_set(&text), want, "text {:?}", text);
    }
}
