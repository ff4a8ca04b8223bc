//! # diffcon-bounds — constraint-aware interval derivation
//!
//! The paper's headline application (Section 6) is that differential
//! constraints *bound* the values a set function can take: `X → 𝒴` zeroes the
//! density function on the lattice decomposition `L(X, 𝒴)` (Definition 3.1),
//! so inclusion–exclusion over the surviving density terms pins `f` on sets
//! that were never observed.  This crate turns that observation into a
//! serving-grade query class: given
//!
//! * a universe `S`,
//! * a set of asserted differential constraints `C`,
//! * a *sparse* map of known point values `f(X) = v`, and
//! * optional side conditions (nonnegative density / antitonicity — the
//!   support-function interpretation of frequent-itemset mining),
//!
//! it derives a sound interval `[lo, hi]` for `f(Y)` at any query set `Y`,
//! by **density-variable elimination**: constraints kill density variables,
//! knowns become linear equations over the survivors, and queries are
//! resolved by interval propagation plus a generalized inclusion–exclusion
//! deduction pass ([`mod@derive`] module docs spell out the passes).  A budget
//! router falls back to an enumeration-free sound relaxation on universes or
//! workloads too large for the full pass.
//!
//! With **no** constraints and **all** proper-subset supports known, the
//! derived interval coincides exactly with the Calders–Goethals deduction
//! bounds of [`fis::ndi`] — the engine is a strict generalization of the
//! non-derivable-itemset rules, and [`mining::ndi_under_constraints`] feeds
//! it back into NDI mining so that asserting constraints makes mining scan
//! strictly fewer candidates.
//!
//! ```
//! use diffcon::DiffConstraint;
//! use diffcon_bounds::{derive, BoundsConfig, BoundsProblem, SideConditions};
//! use setlat::Universe;
//!
//! let u = Universe::of_size(4);
//! let constraints = vec![DiffConstraint::parse("A -> {B}", &u).unwrap()];
//! let knowns = vec![(u.parse_set("A").unwrap(), 40.0)];
//! let problem = BoundsProblem {
//!     universe: &u,
//!     constraints: &constraints,
//!     knowns: &knowns,
//!     side: SideConditions::support(),
//! };
//! // A → {B} kills every density term of f(A) except those above AB, so
//! // the single known value pins the unobserved superset exactly.
//! let bound = derive::derive(&problem, u.parse_set("AB").unwrap(), &BoundsConfig::default())
//!     .unwrap();
//! assert!(bound.interval.is_exact());
//! assert_eq!(bound.interval.lo, 40.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod derive;
pub mod interval;
pub mod mining;
pub mod problem;

pub use interval::Interval;
pub use problem::{
    BoundsConfig, BoundsProblem, DeriveError, DeriveRoute, DerivedBound, Feasibility,
    SideConditions,
};
