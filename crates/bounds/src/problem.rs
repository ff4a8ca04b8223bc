//! Problem statement, side conditions, budget configuration, and the cost
//! model the planner uses to route between the full propagation path and the
//! sound relaxation.

use crate::interval::Interval;
use diffcon::DiffConstraint;
use setlat::{AttrSet, Universe};
use std::fmt;

/// Largest universe the enumeration-based propagation path will touch: the
/// dense tables it allocates are `O(2^{|S|})`, so past this cap every query is
/// answered by the relaxation regardless of the ops budget.
pub const PROPAGATION_UNIVERSE_CAP: usize = 20;

/// Optional semantic side conditions on the unknown set function, enabling
/// the support-function interpretation of Section 6.
///
/// For the support function `σ_B` of a basket database, the density function
/// is the multiset count `m(U)` of baskets exactly equal to `U` — pointwise
/// nonnegative — and `σ_B` is antitone (`X ⊆ Y ⇒ σ(Y) ≤ σ(X)`).  Either
/// condition may be asserted independently; nonnegative density implies
/// antitonicity, but the converse does not hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SideConditions {
    /// Every density variable is `≥ 0` (the support-function/multiset case).
    pub nonnegative_density: bool,
    /// The function itself is antitone: `X ⊆ Y ⇒ f(Y) ≤ f(X)`.
    pub antitone: bool,
}

impl SideConditions {
    /// No side conditions: `f` ranges over all of `F(S)`.
    pub fn none() -> SideConditions {
        SideConditions::default()
    }

    /// The support-function interpretation: nonnegative density (hence also
    /// antitone).
    pub fn support() -> SideConditions {
        SideConditions {
            nonnegative_density: true,
            antitone: true,
        }
    }
}

/// Tuning knobs for bound derivation.
#[derive(Debug, Clone, Copy)]
pub struct BoundsConfig {
    /// Operation budget: queries whose [`propagation_cost_bound`] exceeds it
    /// are answered by the sound relaxation instead of the full enumeration.
    pub budget_ops: u128,
    /// Interval-propagation fixpoint rounds over the known-value equations
    /// (each round is a full sweep; propagation stops early at a fixpoint).
    pub rounds: usize,
    /// Whether to run the pairwise known-vs-query region-split pass.
    pub pairwise: bool,
}

impl Default for BoundsConfig {
    fn default() -> Self {
        BoundsConfig {
            // 2^26 word-ops keeps worst-case derivation in the tens of
            // milliseconds; the universe cap bounds memory independently.
            budget_ops: 1 << 26,
            rounds: 3,
            pairwise: true,
        }
    }
}

/// One interval-derivation instance: a universe, the asserted differential
/// constraints, a sparse map of known point values `f(X) = v`, and the side
/// conditions under which `f` is interpreted.
///
/// `knowns` must not repeat a set; values must be finite.  The borrow-only
/// design lets a serving layer keep its own incremental state (the engine
/// crate versions knowns by digest) and materialize a problem per query.
#[derive(Debug, Clone, Copy)]
pub struct BoundsProblem<'a> {
    /// The attribute universe `S`.
    pub universe: &'a Universe,
    /// Asserted differential constraints (the premise set `C`).
    pub constraints: &'a [DiffConstraint],
    /// Known point values `f(X) = v`, in any order, one entry per set.
    pub knowns: &'a [(AttrSet, f64)],
    /// Semantic side conditions on `f`.
    pub side: SideConditions,
}

/// Which derivation path produced a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeriveRoute {
    /// The full density-variable elimination: alive-table construction,
    /// interval propagation over the known-value equations, the pairwise
    /// region-split pass, and the generalized inclusion–exclusion deduction
    /// pass.
    Propagation,
    /// The enumeration-free relaxation: known-point, containment
    /// (antitone/monotone) rules, and empty-family zero pinning only.
    Relaxed,
}

impl DeriveRoute {
    /// Stable short name for reports and the wire protocol.
    pub fn name(self) -> &'static str {
        match self {
            DeriveRoute::Propagation => "propagation",
            DeriveRoute::Relaxed => "relaxed",
        }
    }
}

/// A derived bound: the tightest interval the chosen path could prove, plus
/// the path that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedBound {
    /// The sound interval `[lo, hi]` containing every value `f(query)` can
    /// take over functions consistent with the problem.
    pub interval: Interval,
    /// The derivation path.
    pub route: DeriveRoute,
}

/// Bound derivation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeriveError {
    /// The knowns contradict the constraints (or each other) under the side
    /// conditions: no consistent set function exists, so no interval does
    /// either.
    Infeasible,
}

impl fmt::Display for DeriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeriveError::Infeasible => {
                write!(f, "known values contradict the asserted constraints")
            }
        }
    }
}

impl std::error::Error for DeriveError {}

/// The verdict of [`crate::derive::check_feasibility`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// Every layer ran, the query sweep included, and none found a
    /// contradiction: no `bound` query on the problem answers infeasible.
    Feasible,
    /// A layer found a contradiction: no set function consistent with the
    /// problem exists.
    Infeasible,
    /// The layers that ran found no contradiction, but the budget or the
    /// sweep cap skipped one, so a query may still find one.
    Unchecked,
}

/// An upper bound on the operations the propagation path performs for one
/// query: the `L(C)` classification (`2^{|S|}·(|C|+1)`), `rounds`
/// propagation sweeps plus one pairwise pass over the knowns
/// (`(rounds+1)·|K|·2^{|S|}`), the direct and deduction region enumerations
/// (`≈ 2·2^{|S|}`), and the deduction pass's interval-of-knowns checks
/// (`≤ 3^{|query|}`, saturating).
///
/// The pairwise term still bounds pass 3, which enumerates one row per
/// known, `R(X ∪ query)`, where it used to filter two (see
/// [`crate::derive`]), and it covers the known rows `R(X)` that
/// [`crate::derive::Propagation::new`] sums once.  A query answered from a
/// prebuilt state costs less than this bound.
///
/// The bound counts dense work on purpose.  The sums walk only the alive
/// variables, so a state where `L(C)` covers most sets costs far less than
/// this; a bound in the alive count would route more queries to
/// propagation and so change replies' `route=`.
///
/// Returns `u128::MAX` past [`PROPAGATION_UNIVERSE_CAP`], where the dense
/// tables themselves are off-limits.
pub fn propagation_cost_bound(
    universe: &Universe,
    n_constraints: usize,
    n_knowns: usize,
    query: AttrSet,
    config: &BoundsConfig,
) -> u128 {
    let n = universe.len();
    if n > PROPAGATION_UNIVERSE_CAP {
        return u128::MAX;
    }
    let table = 1u128 << n;
    let sweeps = (config.rounds as u128 + 1) * n_knowns as u128;
    let deduction_checks = 3u128
        .checked_pow(query.len() as u32)
        .unwrap_or(u128::MAX / 2);
    table
        .saturating_mul(n_constraints as u128 + sweeps + 3)
        .saturating_add(deduction_checks)
}

/// Returns `true` when a derivation cost bound fits a budget.  The
/// `u128::MAX` past-the-universe-cap sentinel never fits — no budget,
/// however large, may select the propagation path on a universe its dense
/// tables cannot represent.  [`crate::derive::route`], the one bound
/// router, reads it.
pub(crate) fn fits_budget(cost: u128, budget: u128) -> bool {
    cost != u128::MAX && cost <= budget
}

/// The interval implied by an exactly-known query value.
pub(crate) fn known_point(problem: &BoundsProblem<'_>, query: AttrSet) -> Option<Interval> {
    problem
        .knowns
        .iter()
        .find(|(x, _)| *x == query)
        .map(|&(_, v)| Interval::point(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_condition_presets() {
        assert!(!SideConditions::none().nonnegative_density);
        assert!(!SideConditions::none().antitone);
        assert!(SideConditions::support().nonnegative_density);
        assert!(SideConditions::support().antitone);
    }

    #[test]
    fn cost_bound_scales_and_caps() {
        let small = Universe::of_size(4);
        let big = Universe::of_size(24);
        let config = BoundsConfig::default();
        let q = AttrSet::from_indices([0, 1]);
        let cheap = propagation_cost_bound(&small, 2, 3, q, &config);
        assert!(cheap < config.budget_ops);
        assert_eq!(
            propagation_cost_bound(&big, 0, 0, q, &config),
            u128::MAX,
            "past the universe cap the propagation path is never chosen"
        );
        // More knowns cost more.
        let more = propagation_cost_bound(&small, 2, 30, q, &config);
        assert!(more > cheap);
    }

    #[test]
    fn route_names() {
        assert_eq!(DeriveRoute::Propagation.name(), "propagation");
        assert_eq!(DeriveRoute::Relaxed.name(), "relaxed");
    }
}
