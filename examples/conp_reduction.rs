//! The coNP-hardness reduction of Proposition 5.5, run forwards.
//!
//! Run with `cargo run --example conp_reduction`.
//!
//! A DNF formula φ is a tautology iff the constraint set
//! `C_φ = { P_ψ → {{q} | q ∈ Q_ψ} }` implies `∅ → ∅`.  This example builds both
//! a tautological and a non-tautological DNF, performs the reduction, decides
//! the resulting implication problems with the lattice procedure and with the
//! SAT-backed procedure, and cross-checks against a direct DNF-tautology test.

use diffcon::{implication, prop_bridge};
use proplogic::dnf::{Dnf, DnfTerm};
use proplogic::tautology;
use setlat::{AttrSet, Universe};

fn describe(u: &Universe, name: &str, dnf: &Dnf) {
    println!("\nφ ({name}) = {}", dnf.format(u));
    let (premises, goal) = prop_bridge::dnf_tautology_to_implication(dnf);
    println!("  reduced constraint set C_φ:");
    for c in &premises {
        println!("    {}", c.format(u));
    }
    println!("  goal: {}", goal.format(u));
    let via_lattice = implication::implies_lattice(u, &premises, &goal);
    let via_sat = prop_bridge::implies_sat(u, &premises, &goal);
    let direct = tautology::dnf_is_tautology(dnf, u);
    let exhaustive = dnf.is_tautology_exhaustive(u);
    println!(
        "  C_φ ⊨ ∅ → ∅ (lattice) = {via_lattice}, (SAT) = {via_sat}; \
         φ tautology (DPLL) = {direct}, (truth table) = {exhaustive}"
    );
    assert_eq!(via_lattice, via_sat);
    assert_eq!(via_lattice, direct);
    assert_eq!(via_lattice, exhaustive);
}

fn main() {
    let u = Universe::of_size(4);

    // A tautology: "some variable is true, or all of them are false".
    let covering = Dnf::new(
        (0..4)
            .map(|i| DnfTerm::new(AttrSet::singleton(i), AttrSet::EMPTY))
            .chain([DnfTerm::new(AttrSet::EMPTY, AttrSet::full(4))])
            .collect::<Vec<_>>(),
    );
    describe(&u, "covering, a tautology", &covering);

    // Not a tautology: A ∨ (B ∧ ¬C).
    let contingent = Dnf::new([
        DnfTerm::new(AttrSet::singleton(0), AttrSet::EMPTY),
        DnfTerm::new(AttrSet::singleton(1), AttrSet::singleton(2)),
    ]);
    describe(&u, "contingent", &contingent);

    println!(
        "\nBoth reductions agree with the direct tautology checks — the implication \
         problem for differential constraints is as hard as DNF tautology (coNP-hard) \
         and, by the SAT refutation above, also inside coNP."
    );
}
