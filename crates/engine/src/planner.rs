//! The adaptive procedure planner: route each query to the cheapest sound
//! decision procedure, and account for where time actually went.
//!
//! Routing policy, in order:
//!
//! 1. **Trivial goals** (`Y ⊆ X` for some member) are implied by anything;
//!    answered inline without running a procedure.
//! 2. **FD fast path** — if the whole instance lies in the paper's
//!    single-member fragment, the polynomial attribute-closure check decides
//!    it ([`ProcedureKind::FdFragment`]).
//! 3. **Lattice containment** — when the Theorem 3.5 enumeration bound
//!    ([`diffcon::procedure::lattice_cost_bound`]) fits [`LATTICE_BUDGET`],
//!    the direct containment check decides, testing the supersets of the
//!    goal's left side 64 per machine word.
//! 4. **SAT** otherwise — Proposition 5.4's satisfiability search for a
//!    refutation set ([`diffcon::implication::refutation_search`]): a DPLL
//!    over the attributes that propagates each constraint whole, allocates
//!    nothing, and whose cost tracks its branching rather than
//!    `2^{|S|−|X|}`.
//!
//! The planner only picks the route: every route has one decider,
//! [`diffcon::procedure::decide`], which the session's state calls on its
//! premises on the calling thread.
//!
//! **Bound queries** (`f(Y) ∈ [lo, hi]`, served by the `diffcon-bounds`
//! crate) are a second query class with their own routing ladder:
//! cached-exact answers are served by the session; otherwise
//! [`diffcon_bounds::derive::route`], the bounds crate's one routing rule,
//! runs the full propagation path while its cost bound fits the session's
//! [`BoundsConfig::budget_ops`], the same budget `analyze`'s propagation
//! sweep reads; past the budget the sound relaxation answers.  The planner
//! counts and times both routes.
//!
//! [`BoundsConfig::budget_ops`]: diffcon_bounds::problem::BoundsConfig::budget_ops
//!
//! Every decision is counted once, in the owning session's ledger
//! ([`SessionCosts`]: decided queries and answer-cache hits per procedure,
//! trivial goals, the bound ladder), and timed in a per-route latency
//! histogram (cumulative time and percentiles), so a long-running
//! `diffcond` process can report where its time goes.
//!
//! Routing is a pure function of the query and the session's state, and the
//! accounting is atomic counters, because the metrics registry reads the
//! ledger from other threads.  Both work through `&self`, so a query needs
//! no mutable access to its session.

use crate::metrics::{EngineMetrics, SessionCosts};
use diffcon::procedure::{self, ProcedureKind};
use diffcon::DiffConstraint;
use diffcon_bounds::DeriveRoute;
use diffcon_obs::{Histogram, HistogramSnapshot};
use setlat::Universe;
use std::sync::Arc;
use std::time::Duration;

/// Maximum lattice-procedure cost bound (in set tests, 64 of which take
/// one word operation, see [`diffcon::procedure::lattice_cost_bound`])
/// before a query is routed to the SAT procedure instead.
///
/// 2^22 set tests are about 2^16 word operations, tens of microseconds in
/// the worst case.  In practice the kernel ends a block once its sets are
/// settled: at 22 attributes, goals with left sides of 9–12 attributes
/// take 0.5–0.9 µs each against the serving benchmark's `cold_decide`
/// premises, 1.0–1.8 µs against 10 premises with nonempty right sides and
/// 2.7–5.1 µs against 30 or 100 (`bench_lattice_decision`'s `cold22`
/// rows, release, 2-core container).  The refutation search still beats the
/// lattice check on both sides of this split; the split stays because the
/// serving benchmark's self-check pins its lattice and sat shares.
pub const LATTICE_BUDGET: u128 = 1 << 22;

/// Accumulated figures for one procedure.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcedureStats {
    /// Queries decided by this procedure (excluding answer-cache hits).
    pub decided: u64,
    /// Queries whose answer was served from the answer cache after having
    /// been planned for this procedure.
    pub cache_hits: u64,
    /// Total time spent inside the procedure.
    pub total_time: Duration,
}

/// Accumulated figures for the bound-query class.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundStats {
    /// Bound queries decided by the full propagation path.
    pub propagation: u64,
    /// Bound queries decided by the enumeration-free relaxation.
    pub relaxed: u64,
    /// Bound queries served from the bound cache.
    pub cache_hits: u64,
    /// Total time spent deriving bounds (cache hits excluded).
    pub total_time: Duration,
}

impl BoundStats {
    /// Bound queries seen (decided + cached).
    pub fn total(&self) -> u64 {
        self.propagation + self.relaxed + self.cache_hits
    }
}

/// A snapshot of every procedure's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerStats {
    /// Indexed by [`ProcedureKind::index`], the order of
    /// [`procedure::ALL_PROCEDURES`] (`fd`, `lattice`, `sat`).
    pub per_procedure: [ProcedureStats; procedure::ALL_PROCEDURES.len()],
    /// Goals answered inline because they were trivial.
    pub trivial: u64,
    /// Bound-query accounting (a separate query class;
    /// [`PlannerStats::total_queries`] counts implication queries only).
    pub bounds: BoundStats,
}

impl PlannerStats {
    /// The counters for one procedure.
    pub fn of(&self, kind: ProcedureKind) -> &ProcedureStats {
        &self.per_procedure[kind.index()]
    }

    /// Total queries seen (decided + cached + trivial).
    pub fn total_queries(&self) -> u64 {
        self.trivial
            + self
                .per_procedure
                .iter()
                .map(|p| p.decided + p.cache_hits)
                .sum::<u64>()
    }
}

/// The slot of a bound-ladder route in `[propagation, relaxed]` arrays.
fn bound_slot(route: DeriveRoute) -> usize {
    match route {
        DeriveRoute::Propagation => 0,
        DeriveRoute::Relaxed => 1,
    }
}

/// The planner: stateless routing plus atomic accounting, owned by one
/// session's state.
#[derive(Debug, Default)]
pub struct Planner {
    /// The owning session's ledger, where every decision, cache hit, and
    /// trivial goal is counted.
    costs: Arc<SessionCosts>,
    /// Per-route latency distributions (nanoseconds), indexed by
    /// [`ProcedureKind::index`].
    latency: [Histogram; procedure::ALL_PROCEDURES.len()],
    /// Bound-ladder latency distributions: `[propagation, relaxed]`.
    bound_latency: [Histogram; 2],
}

impl Planner {
    /// The ledger this planner counts into (the owning session's, shared
    /// with the metrics registry).
    pub(crate) fn costs(&self) -> &Arc<SessionCosts> {
        &self.costs
    }

    /// Picks the procedure for `premises ⊨ goal`.
    ///
    /// `premises_in_fragment` tells the planner whether every premise is
    /// single-member (the session maintains that flag incrementally, so the
    /// planner does not rescan the premises).
    pub fn choose(
        &self,
        universe: &Universe,
        premises: &[DiffConstraint],
        goal: &DiffConstraint,
        premises_in_fragment: bool,
    ) -> ProcedureKind {
        if premises_in_fragment && goal.is_single_member() {
            return ProcedureKind::FdFragment;
        }
        if procedure::lattice_cost_bound(universe, premises, goal) <= LATTICE_BUDGET {
            ProcedureKind::Lattice
        } else {
            ProcedureKind::Sat
        }
    }

    /// Records a query decided by `kind` — in the session's ledger and
    /// latency histogram and in the process-wide per-route latency.
    pub fn record_decided(&self, kind: ProcedureKind, elapsed: Duration) {
        let slot = kind.index();
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.costs.routes[slot].inc();
        self.latency[slot].record(nanos);
        EngineMetrics::global().route_latency(kind).record(nanos);
    }

    /// Records a query answered from the answer cache (planned for `kind`).
    pub fn record_cache_hit(&self, kind: ProcedureKind) {
        self.costs.cache_hits[kind.index()].inc();
    }

    /// Records a bound query decided over `route` (in the session's ledger
    /// and latency histogram and in the process-wide registry).
    pub fn record_bound_decided(&self, route: DeriveRoute, elapsed: Duration) {
        let slot = bound_slot(route);
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.costs.bounds[slot].inc();
        self.bound_latency[slot].record(nanos);
        EngineMetrics::global().bound_latency(route).record(nanos);
    }

    /// Records a bound query served from the bound cache.
    pub fn record_bound_cache_hit(&self) {
        self.costs.bound_cache_hits.inc();
    }

    /// Records a goal answered inline as trivial.
    pub fn record_trivial(&self) {
        self.costs.trivial.inc();
        EngineMetrics::global().trivial.inc();
    }

    /// The latency distribution of queries this planner routed to `kind`
    /// (nanoseconds; the snapshot's count equals the route's decided
    /// total).
    pub fn latency(&self, kind: ProcedureKind) -> HistogramSnapshot {
        self.latency[kind.index()].snapshot()
    }

    /// The latency distribution of bound queries derived over `route`
    /// (nanoseconds).
    pub fn bound_latency(&self, route: DeriveRoute) -> HistogramSnapshot {
        self.bound_latency[bound_slot(route)].snapshot()
    }

    /// Point-in-time figures: counts from the ledger, total times from the
    /// latency histograms' exact sums (each value is read atomically; a
    /// snapshot taken under concurrent traffic is internally consistent per
    /// value, not across values).
    pub fn stats(&self) -> PlannerStats {
        let costs = &self.costs;
        PlannerStats {
            per_procedure: std::array::from_fn(|slot| ProcedureStats {
                decided: costs.routes[slot].get(),
                cache_hits: costs.cache_hits[slot].get(),
                total_time: Duration::from_nanos(self.latency[slot].sum()),
            }),
            trivial: costs.trivial.get(),
            bounds: BoundStats {
                propagation: costs.bounds[0].get(),
                relaxed: costs.bounds[1].get(),
                cache_hits: costs.bound_cache_hits.get(),
                total_time: Duration::from_nanos(
                    self.bound_latency.iter().map(Histogram::sum).sum(),
                ),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setlat::{AttrSet, Family};

    fn fd_constraints(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    #[test]
    fn routes_fragment_queries_to_fd() {
        let u = Universe::of_size(6);
        let planner = Planner::default();
        let premises = fd_constraints(&u, &["A -> {B}", "B -> {C}"]);
        let goal = DiffConstraint::parse("A -> {C}", &u).unwrap();
        assert_eq!(
            planner.choose(&u, &premises, &goal, true),
            ProcedureKind::FdFragment
        );
        // Same instance without a ready index falls back to the general path.
        assert_eq!(
            planner.choose(&u, &premises, &goal, false),
            ProcedureKind::Lattice
        );
        // A wide goal cannot take the FD path even with a ready index.
        let wide = DiffConstraint::parse("A -> {B, C}", &u).unwrap();
        assert_eq!(
            planner.choose(&u, &premises, &wide, true),
            ProcedureKind::Lattice
        );
    }

    #[test]
    fn routes_to_sat_past_the_lattice_budget() {
        let u = Universe::of_size(40);
        let planner = Planner::default();
        let premises = vec![DiffConstraint::new(
            AttrSet::singleton(0),
            Family::single(AttrSet::singleton(1)),
        )];
        // |S| − |X| = 39 free attributes: far beyond a 2^22 budget.
        let hard = DiffConstraint::new(
            AttrSet::singleton(0),
            Family::from_sets([AttrSet::singleton(2), AttrSet::singleton(3)]),
        );
        assert_eq!(
            planner.choose(&u, &premises, &hard, false),
            ProcedureKind::Sat
        );
        // A goal with a huge left-hand side is cheap for the lattice.
        let easy = DiffConstraint::new(AttrSet::full(38), Family::single(AttrSet::singleton(39)));
        assert_eq!(
            planner.choose(&u, &premises, &easy, false),
            ProcedureKind::Lattice
        );
    }

    #[test]
    fn accounting_accumulates() {
        let planner = Planner::default();
        planner.record_decided(ProcedureKind::Lattice, Duration::from_micros(10));
        planner.record_decided(ProcedureKind::Lattice, Duration::from_micros(30));
        planner.record_cache_hit(ProcedureKind::Lattice);
        planner.record_decided(ProcedureKind::Sat, Duration::from_micros(500));
        planner.record_trivial();
        let stats = planner.stats();
        let lattice = stats.of(ProcedureKind::Lattice);
        assert_eq!(lattice.decided, 2);
        assert_eq!(lattice.cache_hits, 1);
        assert_eq!(lattice.total_time, Duration::from_micros(40));
        assert_eq!(stats.of(ProcedureKind::Sat).decided, 1);
        assert_eq!(stats.trivial, 1);
        assert_eq!(stats.total_queries(), 5);
        assert_eq!(stats.of(ProcedureKind::FdFragment).decided, 0);
    }

    #[test]
    fn latency_histograms_track_decisions() {
        let planner = Planner::default();
        for us in [10u64, 20, 40] {
            planner.record_decided(ProcedureKind::Lattice, Duration::from_micros(us));
        }
        planner.record_bound_decided(DeriveRoute::Relaxed, Duration::from_micros(7));
        let lattice = planner.latency(ProcedureKind::Lattice);
        assert_eq!(lattice.count(), 3);
        assert_eq!(lattice.max(), 40_000);
        assert!(lattice.p50() >= 10_000 && lattice.p50() <= 25_000);
        assert_eq!(planner.latency(ProcedureKind::Sat).count(), 0);
        let relaxed = planner.bound_latency(DeriveRoute::Relaxed);
        assert_eq!(relaxed.count(), 1);
        assert_eq!(planner.bound_latency(DeriveRoute::Propagation).count(), 0);
        // The histogram counts agree with the counter accounting.
        assert_eq!(
            planner.stats().of(ProcedureKind::Lattice).decided,
            lattice.count()
        );
    }

    /// The ledger is the planner's only count: what `stats` reports and
    /// what the session's exposition series read are the same counters.
    #[test]
    fn cost_attribution_mirrors_decisions() {
        let planner = Planner::default();
        planner.record_decided(ProcedureKind::Lattice, Duration::from_micros(10));
        planner.record_decided(ProcedureKind::Sat, Duration::from_micros(10));
        planner.record_cache_hit(ProcedureKind::Lattice);
        planner.record_bound_cache_hit();
        let costs = planner.costs();
        // `fd, lattice, sat` is the ALL_PROCEDURES order.
        assert_eq!(costs.routes[1].get(), 1);
        assert_eq!(costs.routes[2].get(), 1);
        assert_eq!(costs.cache_hits[1].get(), 1);
        assert_eq!(costs.bound_cache_hits.get(), 1);
        let stats = planner.stats();
        assert_eq!(stats.of(ProcedureKind::Lattice).decided, 1);
        assert_eq!(stats.of(ProcedureKind::Lattice).cache_hits, 1);
        assert_eq!(stats.bounds.cache_hits, 1);
    }

    #[test]
    fn bound_accounting_accumulates() {
        let planner = Planner::default();
        planner.record_bound_decided(DeriveRoute::Propagation, Duration::from_micros(40));
        planner.record_bound_decided(DeriveRoute::Relaxed, Duration::from_micros(5));
        planner.record_bound_cache_hit();
        let b = planner.stats().bounds;
        assert_eq!(b.propagation, 1);
        assert_eq!(b.relaxed, 1);
        assert_eq!(b.cache_hits, 1);
        assert_eq!(b.total(), 3);
        assert_eq!(b.total_time, Duration::from_micros(45));
        // Bound queries are a separate class from implication queries.
        assert_eq!(planner.stats().total_queries(), 0);
    }
}
