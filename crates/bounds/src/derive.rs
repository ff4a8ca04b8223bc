//! The derivation passes: density-variable elimination by interval
//! propagation, the pairwise region-split pass, the generalized
//! inclusion–exclusion deduction pass, and the enumeration-free relaxation.
//!
//! # The propagation path
//!
//! Write `d` for the density function of the unknown `f`, so that
//! `f(X) = Σ_{X ⊆ U} d(U)` (eq. (5) of the paper).  Each asserted constraint
//! zeroes `d` on its lattice decomposition (Definition 3.1), leaving a set of
//! *alive* variables; each known value `f(X) = v` becomes the linear equation
//! `Σ_{U ⊇ X, U alive} d(U) = v`; nonnegative density (the support-function
//! interpretation) seeds every variable with `[0, ∞)`.  Write
//! `R(X) = Σ_{U ⊇ X} d(U)` for the sum over a row, taken over the variable
//! intervals.  The passes:
//!
//! 1. **Interval propagation** — for each equation and each alive variable in
//!    it, `d(U) = v − Σ_{W ≠ U} d(W)` tightens `d(U)`'s interval from the
//!    others'; swept to a budgeted fixpoint.
//! 2. **Direct evaluation** — `f(Y) = R(Y)`, the sum of its alive variables'
//!    intervals.  When the constraints kill the whole row, `f(Y) = 0`
//!    exactly.
//! 3. **Pairwise region split** — for each known `f(X) = v`,
//!    `f(Y) = v + Σ_{U ⊇ Y, U ⊉ X∪Y} d(U) − Σ_{U ⊇ X, U ⊉ X∪Y} d(U)`,
//!    an exact identity whose two region sums are bounded by the variable
//!    intervals (for `X ⊆ Y` this is the monotonicity sandwich).  Each region
//!    is a row minus the row of `X ∪ Y` inside it: the gained region is
//!    `R(Y) − R(X∪Y)` and the lost one `R(X) − R(X∪Y)`, so the pass
//!    enumerates one row, `R(X∪Y)`, per known.
//! 4. **Deduction** — for each `X ⊆ Y` with every `f(J)`, `X ⊆ J ⊊ Y` known,
//!    the Möbius identity
//!    `Σ_{X ⊆ J ⊆ Y} (−1)^{|J∖X|} f(J) = Σ_{U ⊇ X, U∩Y = X} d(U)`
//!    resolves `f(Y)` against the right-hand region's interval.  With no
//!    constraints and nonnegative density the region sum is bounded below by
//!    `0` and this pass *is* the Calders–Goethals deduction-rule system
//!    (`fis::ndi`); constraints that kill a region turn its rule into an
//!    equality, which is where the strictly tighter intervals come from.
//!
//! Every candidate interval is an exact linear identity evaluated over sound
//! variable intervals, so their intersection is sound; an empty intersection
//! (or an unsatisfiable equation) witnesses infeasibility.
//!
//! # Built once per state, evaluated per query
//!
//! Pass 1 reads only the problem — the constraints, the knowns and the side
//! conditions — never the query.  [`Propagation::new`] runs it once and
//! keeps what the other passes read:
//!
//! * `L(C)` as a [`LatticeBitmap`], one bit per set (128 KiB at the
//!   [`crate::problem::PROPAGATION_UNIVERSE_CAP`]);
//! * every density variable's interval, mask-indexed, the dead ones pinned
//!   to `[0, 0]` (`2 × 8 × 2^{|S|}` bytes: 4 KiB at 8 attributes, 16 MiB at
//!   the cap);
//! * each known's row sum `R(X)`;
//! * a sorted copy of the knowns for the exact-value lookups of passes 0
//!   and 4.
//!
//! Every sum walks the bitmap and visits only alive variables: pass 1's
//! sums and updates, the known rows, pass 2's `R(Y)`, pass 3's `R(X ∪ Y)`,
//! and pass 4's region `{U ⊇ X : U ∩ Y = X}`.  A walk reads one word per 64
//! sets whose high attributes fit, and only the alive lanes in it, so a
//! state where few variables survive costs little more than its bitmap.
//! [`Propagation::evaluate`] runs passes 0 and 2–4 for one query against
//! the state and allocates nothing.  [`derive_propagated`] is the one-shot
//! pair of the two; a caller answering many queries over one frozen problem
//! (the engine's snapshots, the feasibility sweep) builds the state once.
//!
//! # Rounding
//!
//! Skipping the dead variables changes no bit.  A dead variable is
//! `[0, 0]`, so a sum over every set would add `+0.0` in its place.  Each
//! [`SumAcc`] starts at `+0.0`, and a round-to-nearest sum is `−0.0` only
//! when both its terms are, so no partial sum is ever `−0.0`, and adding
//! `+0.0` to any other value returns it unchanged.  The walk also keeps the
//! increasing mask order of an enumeration of every set, so the alive terms
//! are added in the same order.
//!
//! A row difference regroups pass 3's region sums.  With integral knowns
//! every partial sum is an exact integer (below `2^53`), so each interval is
//! bit-identical to summing both regions term by term.  With non-integral
//! knowns an endpoint can differ from the term-by-term sum in its last bits;
//! the candidate is the same identity over the same sound variable
//! intervals, and infeasibility keeps its tolerance.

use crate::interval::{Interval, SumAcc};
use crate::problem::{
    fits_budget, known_point, propagation_cost_bound, BoundsConfig, BoundsProblem, DeriveError,
    DeriveRoute, DerivedBound, Feasibility, SideConditions,
};
use diffcon::density::LatticeBitmap;
use setlat::{powerset, AttrSet};
use std::fmt;

/// Comparison tolerance for infeasibility detection (the serving workloads
/// are integral, so this only absorbs float noise from adversarial inputs).
const TOL: f64 = 1e-9;

/// Routes one `bound` query: the full propagation path while
/// [`propagation_cost_bound`] fits `config.budget_ops`, the sound
/// relaxation past it.  Every bound router goes through this one rule, so
/// the cost bound's past-the-cap sentinel is honoured in one place: no
/// budget, however large, sends a universe past
/// [`crate::problem::PROPAGATION_UNIVERSE_CAP`] to propagation.
pub fn route(problem: &BoundsProblem<'_>, query: AttrSet, config: &BoundsConfig) -> DeriveRoute {
    let cost = propagation_cost_bound(
        problem.universe,
        problem.constraints.len(),
        problem.knowns.len(),
        query,
        config,
    );
    if fits_budget(cost, config.budget_ops) {
        DeriveRoute::Propagation
    } else {
        DeriveRoute::Relaxed
    }
}

/// Derives the tightest interval for `f(query)` the configured budget allows,
/// over the [`route()`] it picks.
pub fn derive(
    problem: &BoundsProblem<'_>,
    query: AttrSet,
    config: &BoundsConfig,
) -> Result<DerivedBound, DeriveError> {
    match route(problem, query, config) {
        DeriveRoute::Propagation => derive_propagated(problem, query, config),
        DeriveRoute::Relaxed => derive_relaxed(problem, query),
    }
}

/// The full propagation path (see the module docs) for one query: builds a
/// [`Propagation`] and evaluates it once.  Unconditional: callers that want
/// budget routing should use [`derive()`].
///
/// # Panics
/// Panics if the universe exceeds
/// [`crate::problem::PROPAGATION_UNIVERSE_CAP`] attributes.
pub fn derive_propagated(
    problem: &BoundsProblem<'_>,
    query: AttrSet,
    config: &BoundsConfig,
) -> Result<DerivedBound, DeriveError> {
    let interval = Propagation::new(problem, config)?.evaluate(query)?;
    Ok(DerivedBound {
        interval,
        route: DeriveRoute::Propagation,
    })
}

/// Both endpoint sums of one row `R(X) = Σ_{U ⊇ X} d(U)` over the variable
/// intervals.
#[derive(Debug, Clone, Copy, Default)]
struct RowSum {
    lo: SumAcc,
    hi: SumAcc,
}

impl RowSum {
    fn add(&mut self, lo: f64, hi: f64) {
        self.lo.add(lo);
        self.hi.add(hi);
    }

    fn interval(&self) -> Interval {
        Interval::new(self.lo.total(), self.hi.total())
    }
}

/// One known value `f(X) = v` with its row sum `R(X)` at the pass-1
/// fixpoint.
#[derive(Debug, Clone, Copy)]
struct KnownRow {
    set: AttrSet,
    value: f64,
    row: RowSum,
}

/// The query-independent half of the propagation path: the pass-1 fixpoint
/// of one problem, which [`Propagation::evaluate`] reads to answer any
/// number of queries (see the module docs for what it keeps).
pub struct Propagation {
    n: usize,
    side: SideConditions,
    pairwise: bool,
    /// `L(C)`: the dead variables, which every sum skips.
    lattice: LatticeBitmap,
    /// Each density variable's interval, mask-indexed.  Dead variables are
    /// pinned to `[0, 0]`.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// The knowns in the problem's order, each with its row sum (pass 3).
    knowns: Vec<KnownRow>,
    /// The knowns sorted by set, for exact-value lookups (passes 0 and 4).
    sorted: Vec<(AttrSet, f64)>,
}

impl fmt::Debug for Propagation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Propagation")
            .field("attributes", &self.n)
            .field("knowns", &self.knowns.len())
            .finish_non_exhaustive()
    }
}

impl Propagation {
    /// Pass 1 of the module docs: the `L(C)` bitmap, then interval
    /// propagation over the known-value equations, to a budgeted fixpoint,
    /// then each known's row sum.
    ///
    /// # Errors
    /// [`DeriveError::Infeasible`] when an equation cannot be satisfied by
    /// the variable intervals.
    ///
    /// # Panics
    /// Panics if the universe exceeds
    /// [`crate::problem::PROPAGATION_UNIVERSE_CAP`] attributes.
    pub fn new(
        problem: &BoundsProblem<'_>,
        config: &BoundsConfig,
    ) -> Result<Propagation, DeriveError> {
        let universe = problem.universe;
        let n = universe.len();
        assert!(
            n <= crate::problem::PROPAGATION_UNIVERSE_CAP,
            "propagation path supports at most {} attributes (got {n})",
            crate::problem::PROPAGATION_UNIVERSE_CAP
        );
        let size = 1usize << n;

        // Per-variable intervals.  Dead variables are pinned to [0, 0] and
        // never visited again.
        let lattice = LatticeBitmap::new(universe, problem.constraints);
        let (init_lo, init_hi) = if problem.side.nonnegative_density {
            (0.0, f64::INFINITY)
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        let mut lo = vec![0.0f64; size];
        let mut hi = vec![0.0f64; size];
        for m in lattice.alive(AttrSet::EMPTY, AttrSet::EMPTY) {
            lo[m] = init_lo;
            hi[m] = init_hi;
        }

        // Pass 1: interval propagation over the known-value equations.
        for _ in 0..config.rounds {
            let mut changed = false;
            for &(x, v) in problem.knowns {
                let mut lo_sum = SumAcc::new();
                let mut hi_sum = SumAcc::new();
                for m in lattice.alive(x, x) {
                    lo_sum.add(lo[m]);
                    hi_sum.add(hi[m]);
                }
                if lo_sum.total() > v + TOL || hi_sum.total() < v - TOL {
                    return Err(DeriveError::Infeasible);
                }
                for m in lattice.alive(x, x) {
                    // d(U) = v − Σ_{W ≠ U} d(W): others' lower bounds cap
                    // d(U) above, others' upper bounds support it below.
                    let new_hi = v - lo_sum.total_without(lo[m]);
                    let new_lo = v - hi_sum.total_without(hi[m]);
                    if new_hi < hi[m] {
                        hi[m] = new_hi;
                        changed = true;
                    }
                    if new_lo > lo[m] {
                        lo[m] = new_lo;
                        changed = true;
                    }
                    if lo[m] > hi[m] {
                        if lo[m] > hi[m] + TOL {
                            return Err(DeriveError::Infeasible);
                        }
                        hi[m] = lo[m];
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let mut sorted = problem.knowns.to_vec();
        sorted.sort_by_key(|&(x, _)| x);
        let mut state = Propagation {
            n,
            side: problem.side,
            pairwise: config.pairwise,
            lattice,
            lo,
            hi,
            knowns: Vec::new(),
            sorted,
        };
        state.knowns = problem
            .knowns
            .iter()
            .map(|&(set, value)| KnownRow {
                set,
                value,
                row: state.row(set),
            })
            .collect();
        Ok(state)
    }

    /// `R(x)`: the variable intervals summed over the alive supersets of
    /// `x`.
    fn row(&self, x: AttrSet) -> RowSum {
        self.sum(x, x)
    }

    /// The variable intervals summed over the alive sets `U` with
    /// `U ∩ care = want`, in increasing mask order.
    fn sum(&self, care: AttrSet, want: AttrSet) -> RowSum {
        let mut row = RowSum::default();
        for m in self.lattice.alive(care, want) {
            row.add(self.lo[m], self.hi[m]);
        }
        row
    }

    /// The known value of `f(set)`, if any.
    fn known(&self, set: AttrSet) -> Option<f64> {
        self.sorted
            .binary_search_by(|(x, _)| x.cmp(&set))
            .ok()
            .map(|i| self.sorted[i].1)
    }

    /// Pass 3's candidate for `f(query)` from one known `f(X) = v`, given
    /// `R(query)`: the gained region `R(query) − R(X∪query)` and the lost
    /// region `R(X) − R(X∪query)`, with `R(X∪query)` the only row it may
    /// enumerate.
    fn region_split(&self, known: &KnownRow, query: AttrSet, query_row: &RowSum) -> Interval {
        let join = known.set.union(query);
        let join_row = if join == query {
            *query_row
        } else if join == known.set {
            known.row
        } else {
            self.row(join)
        };
        let gained_lo = query_row.lo.total_minus(&join_row.lo);
        let gained_hi = query_row.hi.total_minus(&join_row.hi);
        let lost_lo = known.row.lo.total_minus(&join_row.lo);
        let lost_hi = known.row.hi.total_minus(&join_row.hi);
        let lo = known.value + gained_lo - lost_hi;
        let hi = known.value + gained_hi - lost_lo;
        // Exact arithmetic orders the endpoints; rounding a non-integral
        // row difference can swap them by an ulp.
        Interval::new(lo.min(hi), lo.max(hi))
    }

    /// Passes 0 and 2–4 of the module docs: intersects every candidate
    /// identity for `f(query)` over the propagated variable intervals.  Reads
    /// the state only; allocates nothing.
    ///
    /// # Errors
    /// [`DeriveError::Infeasible`] when the candidates' intersection is
    /// empty.
    pub fn evaluate(&self, query: AttrSet) -> Result<Interval, DeriveError> {
        let mut acc = Interval::UNBOUNDED;
        let mut meet = |candidate: Interval| -> Result<(), DeriveError> {
            acc = acc
                .intersect(&candidate, TOL)
                .ok_or(DeriveError::Infeasible)?;
            Ok(())
        };

        // Pass 0: an exactly known query value.
        if let Some(v) = self.known(query) {
            meet(Interval::point(v))?;
        }

        // Pass 2: direct evaluation of the query's alive row.
        let query_row = self.row(query);
        meet(query_row.interval())?;

        // Pass 3: pairwise region split against every known value.
        for known in &self.knowns {
            if known.set == query {
                continue;
            }
            if self.pairwise {
                meet(self.region_split(known, query, &query_row))?;
            }
            if self.side.antitone {
                if known.set.is_proper_subset(query) {
                    meet(Interval::new(f64::NEG_INFINITY, known.value))?;
                } else if query.is_proper_subset(known.set) {
                    meet(Interval::new(known.value, f64::INFINITY))?;
                }
            }
        }

        // Pass 4: generalized inclusion–exclusion deduction.
        'rules: for x in powerset::proper_subsets(query) {
            let missing = query.difference(x).len();
            // All 2^{|Y∖X|} − 1 proper members of [X, Y] must be known; skip
            // rules that cannot possibly satisfy that.
            if (self.sorted.len() as u128) < (1u128 << missing) - 1 {
                continue;
            }
            let mut signed_knowns = 0.0f64;
            for j in powerset::interval(x, query) {
                if j == query {
                    continue;
                }
                let Some(v) = self.known(j) else {
                    continue 'rules;
                };
                let sign = if j.difference(x).len().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                signed_knowns += sign * v;
            }
            // Σ_{X ⊆ J ⊆ Y} (−1)^{|J∖X|} f(J) = Σ_{U ⊇ X, U∩Y = X} d(U).
            let region = self.sum(query, x).interval();
            let candidate = if missing.is_multiple_of(2) {
                // f(Y) = region − signed_knowns.
                region.shift(-signed_knowns)
            } else {
                // f(Y) = signed_knowns − region.
                region.reflect(signed_knowns)
            };
            meet(candidate)?;
        }

        Ok(acc)
    }
}

/// Largest universe for which [`check_feasibility`] sweeps every query set.
/// Up to this cap the verdict is *exact* with respect to the propagation
/// path: the check reports [`Feasibility::Infeasible`] iff some
/// [`derive_propagated`] query on the same problem would (the engine's
/// `bound` verb included).  Past it the sweep is skipped: a reported
/// contradiction is real, but a clean check answers
/// [`Feasibility::Unchecked`], because query-time detection may still catch
/// more.
pub const FEASIBILITY_SWEEP_CAP: usize = 10;

/// Checks the knowns' joint satisfiability under the constraints and side
/// conditions *before* query time, without deriving any interval.
///
/// Three layers, cheapest first, each sound at any universe size:
///
/// 1. per-known relaxation checks (negative supports, values on
///    constraint-killed rows, antitone pair violations) — exactly the
///    contradictions [`derive_relaxed`] would report;
/// 2. the pass-1 interval-propagation fixpoint over the known-value
///    equations ([`Propagation::new`]), when [`propagation_cost_bound`] for
///    the full set fits `config.budget_ops`;
/// 3. up to [`FEASIBILITY_SWEEP_CAP`] attributes, a full query sweep
///    evaluating every subset against that one state, making the verdict
///    coincide exactly with "some `bound` query would report infeasible".
///
/// The verdict is [`Feasibility::Infeasible`] as soon as a layer finds a
/// contradiction, [`Feasibility::Feasible`] when all three ran clean, and
/// [`Feasibility::Unchecked`] when the budget or the sweep cap skipped a
/// layer.  A problem with no knowns is [`Feasibility::Feasible`] at any
/// size, before any layer runs: the zero function satisfies every premise
/// under every side condition.
pub fn check_feasibility(problem: &BoundsProblem<'_>, config: &BoundsConfig) -> Feasibility {
    if problem.knowns.is_empty() {
        return Feasibility::Feasible;
    }
    for &(x, v) in problem.knowns {
        if problem.side.nonnegative_density && v < -TOL {
            return Feasibility::Infeasible;
        }
        if v.abs() > TOL
            && problem
                .constraints
                .iter()
                .any(|c| c.rhs.is_empty() && c.lhs.is_subset(x))
        {
            return Feasibility::Infeasible;
        }
        if problem.side.antitone || problem.side.nonnegative_density {
            for &(y, w) in problem.knowns {
                if x.is_proper_subset(y) && w > v + TOL {
                    return Feasibility::Infeasible;
                }
            }
        }
    }
    let n = problem.universe.len();
    if route(problem, problem.universe.full_set(), config) == DeriveRoute::Relaxed {
        return Feasibility::Unchecked;
    }
    let Ok(state) = Propagation::new(problem, config) else {
        return Feasibility::Infeasible;
    };
    if n > FEASIBILITY_SWEEP_CAP {
        return Feasibility::Unchecked;
    }
    if (0..(1u64 << n)).any(|mask| state.evaluate(AttrSet::from_bits(mask)).is_err()) {
        Feasibility::Infeasible
    } else {
        Feasibility::Feasible
    }
}

/// The enumeration-free sound relaxation: exact knowns, containment
/// (monotonicity) rules under the antitone/support side conditions, the
/// nonnegativity floor, and zero pinning by empty-family constraints
/// (`X' → ∅` with `X' ⊆ Y` kills the whole row `[Y, S]`).
pub fn derive_relaxed(
    problem: &BoundsProblem<'_>,
    query: AttrSet,
) -> Result<DerivedBound, DeriveError> {
    let mut acc = Interval::UNBOUNDED;
    let mut meet = |candidate: Interval| -> Result<(), DeriveError> {
        acc = acc
            .intersect(&candidate, TOL)
            .ok_or(DeriveError::Infeasible)?;
        Ok(())
    };

    if problem.side.nonnegative_density {
        meet(Interval::nonnegative())?;
    }
    if let Some(point) = known_point(problem, query) {
        meet(point)?;
    }
    if problem.side.antitone || problem.side.nonnegative_density {
        for &(x, v) in problem.knowns {
            if x.is_proper_subset(query) {
                meet(Interval::new(f64::NEG_INFINITY, v))?;
            } else if query.is_proper_subset(x) {
                meet(Interval::new(v, f64::INFINITY))?;
            }
        }
    }
    if problem
        .constraints
        .iter()
        .any(|c| c.rhs.is_empty() && c.lhs.is_subset(query))
    {
        meet(Interval::point(0.0))?;
    }

    Ok(DerivedBound {
        interval: acc,
        route: DeriveRoute::Relaxed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffcon::random::{ConstraintGenerator, ConstraintShape};
    use diffcon::{density, DiffConstraint};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};
    use setlat::Universe;

    fn parse(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    fn knowns(u: &Universe, entries: &[(&str, f64)]) -> Vec<(AttrSet, f64)> {
        entries
            .iter()
            .map(|(s, v)| (u.parse_set(s).unwrap(), *v))
            .collect()
    }

    fn derive_support(
        u: &Universe,
        constraints: &[DiffConstraint],
        k: &[(AttrSet, f64)],
        query: &str,
    ) -> Result<DerivedBound, DeriveError> {
        let problem = BoundsProblem {
            universe: u,
            constraints,
            knowns: k,
            side: SideConditions::support(),
        };
        derive(
            &problem,
            u.parse_set(query).unwrap(),
            &BoundsConfig::default(),
        )
    }

    #[test]
    fn acceptance_example_constraint_pins_the_superset() {
        // After `assert A -> {B}` and `known A = 40`, `bound AB` must be
        // strictly tighter than the constraint-free interval — here exact.
        let u = Universe::of_size(4);
        let c = parse(&u, &["A -> {B}"]);
        let k = knowns(&u, &[("A", 40.0)]);
        let with = derive_support(&u, &c, &k, "AB").unwrap();
        assert_eq!(with.interval, Interval::point(40.0));
        assert_eq!(with.route, DeriveRoute::Propagation);
        let without = derive_support(&u, &[], &k, "AB").unwrap();
        assert_eq!(without.interval, Interval::new(0.0, 40.0));
        assert!(with.interval.width() < without.interval.width());
    }

    #[test]
    fn monotone_sandwich_without_constraints() {
        let u = Universe::of_size(3);
        let k = knowns(&u, &[("", 10.0), ("AB", 4.0)]);
        // ∅ ⊆ A ⊆ AB: the support interpretation sandwiches f(A).
        let b = derive_support(&u, &[], &k, "A").unwrap();
        assert_eq!(b.interval, Interval::new(4.0, 10.0));
    }

    #[test]
    fn inclusion_exclusion_lower_bound() {
        // The classical sandwich: σ(AB) ≥ σ(A) + σ(B) − σ(∅).
        let u = Universe::of_size(2);
        let k = knowns(&u, &[("", 7.0), ("A", 4.0), ("B", 5.0)]);
        let b = derive_support(&u, &[], &k, "AB").unwrap();
        assert_eq!(b.interval, Interval::new(2.0, 4.0));
    }

    #[test]
    fn empty_family_constraint_pins_zero() {
        let u = Universe::of_size(3);
        let c = parse(&u, &["A -> {}"]);
        let b = derive_support(&u, &c, &[], "AB").unwrap();
        assert_eq!(b.interval, Interval::point(0.0));
    }

    #[test]
    fn infeasible_knowns_are_detected() {
        let u = Universe::of_size(3);
        // Antitone violation under the support interpretation.
        let k = knowns(&u, &[("A", 3.0), ("AB", 8.0)]);
        assert_eq!(
            derive_support(&u, &[], &k, "ABC"),
            Err(DeriveError::Infeasible)
        );
        // Constraint A → {B} forces σ(A) = σ(AB); contradictory knowns.
        let c = parse(&u, &["A -> {B}"]);
        let k = knowns(&u, &[("A", 5.0), ("AB", 3.0)]);
        assert_eq!(
            derive_support(&u, &c, &k, "AC"),
            Err(DeriveError::Infeasible)
        );
    }

    #[test]
    fn no_side_conditions_leave_unknowns_unbounded() {
        let u = Universe::of_size(2);
        let k = knowns(&u, &[("A", 4.0)]);
        let problem = BoundsProblem {
            universe: &u,
            constraints: &[],
            knowns: &k,
            side: SideConditions::none(),
        };
        let b = derive(
            &problem,
            u.parse_set("AB").unwrap(),
            &BoundsConfig::default(),
        )
        .unwrap();
        assert_eq!(b.interval, Interval::UNBOUNDED);
        // …but full constraint + known coverage still pins exactly.
        let c = parse(&u, &["A -> {B}"]);
        let problem = BoundsProblem {
            universe: &u,
            constraints: &c,
            knowns: &k,
            side: SideConditions::none(),
        };
        let b = derive(
            &problem,
            u.parse_set("AB").unwrap(),
            &BoundsConfig::default(),
        )
        .unwrap();
        assert_eq!(b.interval, Interval::point(4.0));
    }

    #[test]
    fn relaxed_route_past_the_budget() {
        let u = Universe::of_size(24);
        let k = knowns(&u, &[("", 100.0), ("ABCD", 30.0)]);
        let b = derive_support(&u, &[], &k, "AB").unwrap();
        assert_eq!(b.route, DeriveRoute::Relaxed);
        // Monotone sandwich still applies: ABCD ⊇ AB ⊇ ∅.
        assert_eq!(b.interval, Interval::new(30.0, 100.0));
    }

    #[test]
    fn maximal_budget_still_respects_the_universe_cap() {
        // A budget of u128::MAX must not defeat the cost bound's sentinel
        // and panic inside the propagation path on an oversized universe.
        let u = Universe::of_size(24);
        let k = knowns(&u, &[("", 10.0)]);
        let problem = BoundsProblem {
            universe: &u,
            constraints: &[],
            knowns: &k,
            side: SideConditions::support(),
        };
        let config = BoundsConfig {
            budget_ops: u128::MAX,
            ..BoundsConfig::default()
        };
        let b = derive(&problem, u.parse_set("AB").unwrap(), &config).unwrap();
        assert_eq!(b.route, DeriveRoute::Relaxed);
    }

    #[test]
    fn bound_routing_respects_the_budget() {
        let config = BoundsConfig::default();
        let small = Universe::of_size(8);
        let constraints = parse(&small, &["A -> {B}", "B -> {C}", "C -> {D}"]);
        let known = knowns(
            &small,
            &[("A", 9.0), ("B", 8.0), ("C", 7.0), ("D", 6.0), ("E", 5.0)],
        );
        let small_problem = BoundsProblem {
            universe: &small,
            constraints: &constraints,
            knowns: &known,
            side: SideConditions::support(),
        };
        assert_eq!(
            route(&small_problem, AttrSet::from_indices([0, 1]), &config),
            DeriveRoute::Propagation
        );
        // Past the propagation universe cap the cost bound saturates.
        let huge = Universe::of_size(30);
        let huge_problem = BoundsProblem {
            universe: &huge,
            constraints: &[],
            knowns: &[],
            side: SideConditions::support(),
        };
        assert_eq!(
            route(&huge_problem, AttrSet::singleton(0), &config),
            DeriveRoute::Relaxed
        );
        // A tiny budget forces the relaxation even on small universes.
        let strict = BoundsConfig {
            budget_ops: 1,
            ..BoundsConfig::default()
        };
        assert_eq!(
            route(&small_problem, AttrSet::from_indices([0, 1]), &strict),
            DeriveRoute::Relaxed
        );
        // …and a maximal budget must not defeat the universe-cap sentinel
        // (the propagation path would panic, not answer).
        let unbounded = BoundsConfig {
            budget_ops: u128::MAX,
            ..BoundsConfig::default()
        };
        assert_eq!(
            route(&huge_problem, AttrSet::singleton(0), &unbounded),
            DeriveRoute::Relaxed
        );
    }

    #[test]
    fn relaxed_route_detects_direct_contradictions() {
        let u = Universe::of_size(24);
        let k = knowns(&u, &[("A", -5.0)]);
        assert_eq!(
            derive_support(&u, &[], &k, "A"),
            Err(DeriveError::Infeasible)
        );
    }

    #[test]
    fn feasibility_check_agrees_with_query_time_detection() {
        let u = Universe::of_size(3);
        let config = BoundsConfig::default();
        // Feasible: a consistent antitone chain.
        let k = knowns(&u, &[("", 10.0), ("A", 4.0), ("AB", 2.0)]);
        let problem = BoundsProblem {
            universe: &u,
            constraints: &[],
            knowns: &k,
            side: SideConditions::support(),
        };
        assert_eq!(check_feasibility(&problem, &config), Feasibility::Feasible);
        // Infeasible without any query: antitone violation.
        let k = knowns(&u, &[("A", 3.0), ("AB", 8.0)]);
        let problem = BoundsProblem {
            universe: &u,
            constraints: &[],
            knowns: &k,
            side: SideConditions::support(),
        };
        assert_eq!(
            check_feasibility(&problem, &config),
            Feasibility::Infeasible
        );
        // Constraint-induced contradiction: A → {B} forces σ(A) = σ(AB).
        let c = parse(&u, &["A -> {B}"]);
        let k = knowns(&u, &[("A", 5.0), ("AB", 3.0)]);
        let problem = BoundsProblem {
            universe: &u,
            constraints: &c,
            knowns: &k,
            side: SideConditions::support(),
        };
        assert_eq!(
            check_feasibility(&problem, &config),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn feasibility_check_stays_sound_past_the_budget() {
        let u = Universe::of_size(24);
        let config = BoundsConfig::default();
        // Past the universe cap only the relaxation-layer checks run: a
        // direct contradiction is still caught…
        let k = knowns(&u, &[("A", -5.0)]);
        let problem = BoundsProblem {
            universe: &u,
            constraints: &[],
            knowns: &k,
            side: SideConditions::support(),
        };
        assert_eq!(
            check_feasibility(&problem, &config),
            Feasibility::Infeasible
        );
        // …and a consistent sandwich is not called feasible, because the
        // propagation layers never ran.
        let k = knowns(&u, &[("", 100.0), ("ABCD", 30.0)]);
        let problem = BoundsProblem {
            universe: &u,
            constraints: &[],
            knowns: &k,
            side: SideConditions::support(),
        };
        assert_eq!(check_feasibility(&problem, &config), Feasibility::Unchecked);
    }

    /// With no knowns the zero function satisfies every premise, so the
    /// check answers feasible past the sweep cap and the budget too.
    #[test]
    fn feasibility_check_answers_feasible_without_knowns_at_any_size() {
        let config = BoundsConfig::default();
        for n in [12, 20, 24] {
            let u = Universe::of_size(n);
            let c = parse(&u, &["A -> {B}", "B -> {C}", "AB -> {}", "-> {CD, E}"]);
            for side in [SideConditions::support(), SideConditions::none()] {
                let problem = BoundsProblem {
                    universe: &u,
                    constraints: &c,
                    knowns: &[],
                    side,
                };
                assert_eq!(
                    check_feasibility(&problem, &config),
                    Feasibility::Feasible,
                    "at {n} attributes"
                );
            }
        }
    }

    /// The knowns `f(∅) = 5, f(A) = f(B) = 3, f(AB) = 0` contradict
    /// inclusion–exclusion (`f(AB) ≥ f(A) + f(B) − f(∅) = 1`), which only
    /// the query sweep's deduction pass sees.
    fn pair_contradiction(u: &Universe) -> Vec<(AttrSet, f64)> {
        knowns(u, &[("", 5.0), ("A", 3.0), ("B", 3.0), ("AB", 0.0)])
    }

    #[test]
    fn feasibility_check_says_when_it_skipped_a_layer() {
        let config = BoundsConfig::default();
        let verdict = |n: usize| {
            let u = Universe::of_size(n);
            let k = pair_contradiction(&u);
            let problem = BoundsProblem {
                universe: &u,
                constraints: &[],
                knowns: &k,
                side: SideConditions::support(),
            };
            check_feasibility(&problem, &config)
        };
        assert_eq!(verdict(3), Feasibility::Infeasible);
        assert_eq!(verdict(FEASIBILITY_SWEEP_CAP), Feasibility::Infeasible);
        // Past the sweep cap the pass-1 state is built but not swept…
        assert_eq!(verdict(FEASIBILITY_SWEEP_CAP + 1), Feasibility::Unchecked);
        // …and at 20 attributes the full-set cost is over the budget.
        assert_eq!(verdict(20), Feasibility::Unchecked);
        // Either way a query still finds the contradiction.
        let u = Universe::of_size(20);
        let k = pair_contradiction(&u);
        assert_eq!(
            derive_support(&u, &[], &k, "AB"),
            Err(DeriveError::Infeasible)
        );
    }

    #[test]
    fn feasibility_check_pins_constraint_killed_rows() {
        let u = Universe::of_size(3);
        let c = parse(&u, &["A -> {}"]);
        let k = knowns(&u, &[("AB", 4.0)]);
        let problem = BoundsProblem {
            universe: &u,
            constraints: &c,
            knowns: &k,
            side: SideConditions::support(),
        };
        assert_eq!(
            check_feasibility(&problem, &BoundsConfig::default()),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn antitone_only_side_condition() {
        let u = Universe::of_size(3);
        let k = knowns(&u, &[("A", 4.0)]);
        let problem = BoundsProblem {
            universe: &u,
            constraints: &[],
            knowns: &k,
            side: SideConditions {
                nonnegative_density: false,
                antitone: true,
            },
        };
        let b = derive(
            &problem,
            u.parse_set("AB").unwrap(),
            &BoundsConfig::default(),
        )
        .unwrap();
        // No nonnegativity: only the antitone ceiling applies.
        assert_eq!(b.interval, Interval::new(f64::NEG_INFINITY, 4.0));
    }

    /// Pass 3's candidate with both regions summed term by term, each over
    /// its row's supersets outside `X ∪ query`: the reference the row
    /// differences must reproduce.
    fn region_split_by_enumeration(
        state: &Propagation,
        known: &KnownRow,
        query: AttrSet,
    ) -> Interval {
        let join = known.set.union(query);
        let outside_join = |x: AttrSet| {
            let mut region = RowSum::default();
            for u in powerset::supersets_within(x, state.n).filter(|u| !join.is_subset(*u)) {
                let m = u.bits() as usize;
                region.add(state.lo[m], state.hi[m]);
            }
            region.interval()
        };
        let gained = outside_join(query);
        let lost = outside_join(known.set);
        Interval::new(
            known.value + gained.lo - lost.hi,
            known.value + gained.hi - lost.lo,
        )
    }

    /// A random problem over `n` attributes (premises with empty families
    /// among them, knowns that are often jointly infeasible, and any of the
    /// three side-condition presets), with a query.  `integral` picks
    /// whole-number knowns.
    struct RandomProblem {
        universe: Universe,
        constraints: Vec<DiffConstraint>,
        knowns: Vec<(AttrSet, f64)>,
        side: SideConditions,
        query: AttrSet,
    }

    impl RandomProblem {
        fn new(seed: u64, n: usize, integral: bool) -> RandomProblem {
            let universe = Universe::of_size(n);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut gen = ConstraintGenerator::new(rng.gen_range(0..u64::MAX), &universe);
            let constraints: Vec<DiffConstraint> = (0..rng.gen_range(0..4))
                .map(|_| gen.constraint(&ConstraintShape::default()))
                .collect();
            let mut knowns: Vec<(AttrSet, f64)> = Vec::new();
            for _ in 0..rng.gen_range(0..7) {
                let set = AttrSet::from_bits(rng.gen_range(0..(1u64 << n)));
                let value = if integral {
                    rng.gen_range(0..40) as f64
                } else {
                    rng.gen_range(0..40_000) as f64 / 73.0
                };
                if knowns.iter().all(|&(x, _)| x != set) {
                    knowns.push((set, value));
                }
            }
            let side = match rng.gen_range(0..3) {
                0 => SideConditions::none(),
                1 => SideConditions::support(),
                _ => SideConditions {
                    nonnegative_density: false,
                    antitone: true,
                },
            };
            let query = AttrSet::from_bits(rng.gen_range(0..(1u64 << n)));
            RandomProblem {
                universe,
                constraints,
                knowns,
                side,
                query,
            }
        }

        fn problem(&self) -> BoundsProblem<'_> {
            BoundsProblem {
                universe: &self.universe,
                constraints: &self.constraints,
                knowns: &self.knowns,
                side: self.side,
            }
        }
    }

    /// A random problem's pass-1 state, with its query; `None` when pass 1
    /// itself refutes the knowns.
    fn random_state(seed: u64, n: usize, integral: bool) -> Option<(Propagation, AttrSet)> {
        let random = RandomProblem::new(seed, n, integral);
        let state = Propagation::new(&random.problem(), &BoundsConfig::default()).ok()?;
        Some((state, random.query))
    }

    /// The dense state the bitmap walks replaced, kept as their reference:
    /// every set is classified by [`density::zeroed_at`], and pass 1, the
    /// rows and pass 4's regions sum over every set, a dead variable adding
    /// its `+0.0`.  Apart from those sums, `new` and `evaluate` are
    /// [`Propagation`]'s.
    struct Dense {
        n: usize,
        side: SideConditions,
        pairwise: bool,
        lo: Vec<f64>,
        hi: Vec<f64>,
        knowns: Vec<KnownRow>,
        sorted: Vec<(AttrSet, f64)>,
    }

    impl Dense {
        fn new(problem: &BoundsProblem<'_>, config: &BoundsConfig) -> Result<Dense, DeriveError> {
            let n = problem.universe.len();
            let size = 1usize << n;
            let alive: Vec<bool> = (0..size as u64)
                .map(|m| !density::zeroed_at(problem.constraints, AttrSet::from_bits(m)))
                .collect();
            let (init_lo, init_hi) = if problem.side.nonnegative_density {
                (0.0, f64::INFINITY)
            } else {
                (f64::NEG_INFINITY, f64::INFINITY)
            };
            let mut lo = vec![0.0f64; size];
            let mut hi = vec![0.0f64; size];
            for mask in 0..size {
                if alive[mask] {
                    lo[mask] = init_lo;
                    hi[mask] = init_hi;
                }
            }
            for _ in 0..config.rounds {
                let mut changed = false;
                for &(x, v) in problem.knowns {
                    let mut lo_sum = SumAcc::new();
                    let mut hi_sum = SumAcc::new();
                    for u in powerset::supersets_within(x, n) {
                        let m = u.bits() as usize;
                        lo_sum.add(lo[m]);
                        hi_sum.add(hi[m]);
                    }
                    if lo_sum.total() > v + TOL || hi_sum.total() < v - TOL {
                        return Err(DeriveError::Infeasible);
                    }
                    for u in powerset::supersets_within(x, n) {
                        let m = u.bits() as usize;
                        if !alive[m] {
                            continue;
                        }
                        let new_hi = v - lo_sum.total_without(lo[m]);
                        let new_lo = v - hi_sum.total_without(hi[m]);
                        if new_hi < hi[m] {
                            hi[m] = new_hi;
                            changed = true;
                        }
                        if new_lo > lo[m] {
                            lo[m] = new_lo;
                            changed = true;
                        }
                        if lo[m] > hi[m] {
                            if lo[m] > hi[m] + TOL {
                                return Err(DeriveError::Infeasible);
                            }
                            hi[m] = lo[m];
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            let mut sorted = problem.knowns.to_vec();
            sorted.sort_by_key(|&(x, _)| x);
            let mut state = Dense {
                n,
                side: problem.side,
                pairwise: config.pairwise,
                lo,
                hi,
                knowns: Vec::new(),
                sorted,
            };
            state.knowns = problem
                .knowns
                .iter()
                .map(|&(set, value)| KnownRow {
                    set,
                    value,
                    row: state.row(set),
                })
                .collect();
            Ok(state)
        }

        fn row(&self, x: AttrSet) -> RowSum {
            let mut row = RowSum::default();
            for u in powerset::supersets_within(x, self.n) {
                let m = u.bits() as usize;
                row.add(self.lo[m], self.hi[m]);
            }
            row
        }

        fn known(&self, set: AttrSet) -> Option<f64> {
            self.sorted
                .binary_search_by(|(x, _)| x.cmp(&set))
                .ok()
                .map(|i| self.sorted[i].1)
        }

        fn region_split(&self, known: &KnownRow, query: AttrSet, query_row: &RowSum) -> Interval {
            let join = known.set.union(query);
            let join_row = if join == query {
                *query_row
            } else if join == known.set {
                known.row
            } else {
                self.row(join)
            };
            let gained_lo = query_row.lo.total_minus(&join_row.lo);
            let gained_hi = query_row.hi.total_minus(&join_row.hi);
            let lost_lo = known.row.lo.total_minus(&join_row.lo);
            let lost_hi = known.row.hi.total_minus(&join_row.hi);
            let lo = known.value + gained_lo - lost_hi;
            let hi = known.value + gained_hi - lost_lo;
            Interval::new(lo.min(hi), lo.max(hi))
        }

        fn evaluate(&self, query: AttrSet) -> Result<Interval, DeriveError> {
            let mut acc = Interval::UNBOUNDED;
            let mut meet = |candidate: Interval| -> Result<(), DeriveError> {
                acc = acc
                    .intersect(&candidate, TOL)
                    .ok_or(DeriveError::Infeasible)?;
                Ok(())
            };
            if let Some(v) = self.known(query) {
                meet(Interval::point(v))?;
            }
            let query_row = self.row(query);
            meet(query_row.interval())?;
            for known in &self.knowns {
                if known.set == query {
                    continue;
                }
                if self.pairwise {
                    meet(self.region_split(known, query, &query_row))?;
                }
                if self.side.antitone {
                    if known.set.is_proper_subset(query) {
                        meet(Interval::new(f64::NEG_INFINITY, known.value))?;
                    } else if query.is_proper_subset(known.set) {
                        meet(Interval::new(known.value, f64::INFINITY))?;
                    }
                }
            }
            let complement = query.complement_in(self.n);
            'rules: for x in powerset::proper_subsets(query) {
                let missing = query.difference(x).len();
                if (self.sorted.len() as u128) < (1u128 << missing) - 1 {
                    continue;
                }
                let mut signed_knowns = 0.0f64;
                for j in powerset::interval(x, query) {
                    if j == query {
                        continue;
                    }
                    let Some(v) = self.known(j) else {
                        continue 'rules;
                    };
                    let sign = if j.difference(x).len().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    signed_knowns += sign * v;
                }
                let mut region = RowSum::default();
                for v_set in powerset::subsets(complement) {
                    let m = x.union(v_set).bits() as usize;
                    region.add(self.lo[m], self.hi[m]);
                }
                let region = region.interval();
                let candidate = if missing.is_multiple_of(2) {
                    region.shift(-signed_knowns)
                } else {
                    region.reflect(signed_knowns)
                };
                meet(candidate)?;
            }
            Ok(acc)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A dead variable is `[0, 0]`, and no partial sum is `−0.0` (each
        /// starts at `+0.0`), so leaving its `+0.0` out changes no bit: the
        /// bitmap walks reproduce the dense state's pass-1 verdict and
        /// intervals, and its evaluation of every subset, infeasible
        /// verdicts included.
        #[test]
        fn bitmap_walks_match_the_dense_state_bit_for_bit(
            seed in any::<u64>(),
            n in 1usize..=10,
            integral in any::<bool>(),
        ) {
            let random = RandomProblem::new(seed, n, integral);
            let problem = random.problem();
            let config = BoundsConfig::default();
            match (Propagation::new(&problem, &config), Dense::new(&problem, &config)) {
                (Ok(sparse), Ok(dense)) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&sparse.lo), bits(&dense.lo));
                    prop_assert_eq!(bits(&sparse.hi), bits(&dense.hi));
                    for mask in 0..1u64 << n {
                        let query = AttrSet::from_bits(mask);
                        let endpoints = |i: Interval| (i.lo.to_bits(), i.hi.to_bits());
                        prop_assert_eq!(
                            sparse.evaluate(query).map(endpoints),
                            dense.evaluate(query).map(endpoints),
                            "query {:?}",
                            query
                        );
                    }
                }
                (sparse, dense) => prop_assert_eq!(sparse.err(), dense.err()),
            }
        }

        /// With integral knowns every partial sum is an exact integer, so
        /// the row differences reproduce the term-by-term region sums bit
        /// for bit.
        #[test]
        fn row_difference_split_is_exact_on_integral_knowns(
            seed in any::<u64>(),
            n in 1usize..=10,
        ) {
            if let Some((state, query)) = random_state(seed, n, true) {
                let query_row = state.row(query);
                for known in state.knowns.iter().filter(|k| k.set != query) {
                    let rows = state.region_split(known, query, &query_row);
                    let terms = region_split_by_enumeration(&state, known, query);
                    prop_assert_eq!(
                        (rows.lo.to_bits(), rows.hi.to_bits()),
                        (terms.lo.to_bits(), terms.hi.to_bits()),
                        "{:?} vs {:?} for known {:?} and query {:?}",
                        rows,
                        terms,
                        known.set,
                        query
                    );
                }
            }
        }

        /// With non-integral knowns the regrouped sums may round
        /// differently, within 1e-9 of the magnitudes summed.
        #[test]
        fn row_difference_split_rounds_within_tolerance(
            seed in any::<u64>(),
            n in 1usize..=10,
        ) {
            if let Some((state, query)) = random_state(seed, n, false) {
                let query_row = state.row(query);
                for known in state.knowns.iter().filter(|k| k.set != query) {
                    let rows = state.region_split(known, query, &query_row);
                    let terms = region_split_by_enumeration(&state, known, query);
                    let mut scale = 1.0 + known.value.abs();
                    for x in [query, known.set] {
                        for u in powerset::supersets_within(x, state.n) {
                            let m = u.bits() as usize;
                            for v in [state.lo[m], state.hi[m]] {
                                if v.is_finite() {
                                    scale += v.abs();
                                }
                            }
                        }
                    }
                    for (a, b) in [(rows.lo, terms.lo), (rows.hi, terms.hi)] {
                        prop_assert!(
                            a == b || (a - b).abs() <= 1e-9 * scale,
                            "{:?} vs {:?} for known {:?} and query {:?}",
                            rows,
                            terms,
                            known.set,
                            query
                        );
                    }
                }
            }
        }
    }
}
