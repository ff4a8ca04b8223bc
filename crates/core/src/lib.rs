//! # diffcon — Differential Constraints (Sayrafi & Van Gucht, PODS 2005)
//!
//! This crate is the paper's primary contribution made executable.  A
//! *differential constraint* `X → 𝒴` over a finite universe `S` is satisfied by
//! a set function `f : 2^S → ℝ` when the density function (Möbius inverse) of
//! `f` vanishes on the whole lattice decomposition `L(X, 𝒴)` (Definition 3.1).
//! The crate provides:
//!
//! * the constraint language itself ([`constraint`]) and a small text parser
//!   ([`parser`]);
//! * both satisfaction semantics — density-based and differential-based —
//!   together with their relationship ([`semantics`], Remark 3.6);
//! * the implication problem with interchangeable decision procedures: the
//!   lattice-containment characterization of Theorem 3.5, checked 64 sets
//!   per machine word, a semantic
//!   procedure built from the counterexample functions of its proof, a
//!   search for such a counterexample that propagates each constraint whole
//!   ([`implication`]), and the SAT-backed reference procedure through the
//!   propositional translation of Section 5 ([`prop_bridge`]);
//! * the sound and complete inference system of Figure 1 with machine-checkable
//!   proof objects, a proof-producing completeness engine, and the derivable
//!   rules of Figure 2 as tactics ([`inference`], [`derived_rules`]);
//! * witness and atomic decompositions of constraints (Definition 4.4,
//!   [`decompose`]);
//! * density-decomposition helpers — which density variables a constraint set
//!   forces to zero, and what survives of each zeta row — the substrate of the
//!   `diffcon-bounds` interval-derivation engine ([`density`]);
//! * the bridges to frequent-itemset mining ([`fis_bridge`], Section 6) and to
//!   relational dependencies ([`rel_bridge`], Section 7);
//! * the polynomial-time fragment with single-member right-hand sides,
//!   equivalent to functional-dependency implication ([`fd_fragment`],
//!   Conclusion);
//! * a uniform, enumerable interface over all decision procedures for
//!   planners and engines ([`procedure`]);
//! * explicit counterexample construction — set functions, basket databases and
//!   relations — for non-implied constraints ([`counterexample`]);
//! * random constraint generators used by the experiments ([`random`]).
//!
//! ## Quick example
//!
//! ```
//! use diffcon::prelude::*;
//!
//! // Example 3.4 of the paper: {A → {B}, B → {C}} implies A → {C}.
//! let u = Universe::of_size(3);
//! let premises = vec![
//!     DiffConstraint::parse("A -> {B}", &u).unwrap(),
//!     DiffConstraint::parse("B -> {C}", &u).unwrap(),
//! ];
//! let goal = DiffConstraint::parse("A -> {C}", &u).unwrap();
//! assert!(implication::implies(&u, &premises, &goal));
//!
//! // …and the inference system can exhibit a machine-checked derivation.
//! let proof = inference::derive(&u, &premises, &goal).expect("implied, hence derivable");
//! assert!(proof.verify(&u, &premises).is_ok());
//! assert_eq!(proof.conclusion(), &goal);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraint;
pub mod counterexample;
pub mod decompose;
pub mod density;
pub mod derived_rules;
pub mod fd_fragment;
pub mod fis_bridge;
pub mod implication;
pub mod inference;
pub mod parser;
pub mod procedure;
pub mod prop_bridge;
pub mod random;
pub mod rel_bridge;
pub mod semantics;

pub use constraint::DiffConstraint;
pub use inference::{Derivation, Rule};

/// Convenience re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::constraint::DiffConstraint;
    pub use crate::implication;
    pub use crate::inference;
    pub use crate::semantics;
    pub use setlat::{AttrSet, Family, SetFunction, Universe};
}
