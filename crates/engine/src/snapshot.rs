//! A session's read path: the queries a [`Session`] answers through
//! `&self`, and the outcomes they report.
//!
//! The deciders of the paper are pure functions of the premise set, so
//! every query is answerable through `&self`: [`Session::implies`],
//! [`Session::implies_batch`], and [`Session::bound`] never take a mutable
//! reference.  One thread owns a session and both reads and writes it, so
//! each cache is a `RefCell` and the bound state a `OnceCell`; no lock is
//! taken anywhere on the read path.  An implication miss is routed by the
//! planner and decided through `diffcon::procedure::decide` on the calling
//! thread; only its answer is memoized.  A batch is the same path once per
//! goal, in order, and [`Session::explain`] is the same path with stage
//! marks: one clock reading after the cache probe, the route choice and
//! the decision, which `implies` runs without.
//!
//! Caching across writes is sound because every cache key is versioned
//! through [`crate::cache::version_salt`]: two states with the same digests
//! share warm entries (retract-then-reassert instantly revalidates), while
//! any state difference makes the keys disjoint.  Each query builds one
//! [`Probe`] of its goal or set under the salt, fingerprinting the payload
//! once: the cache lookup compares stored keys with it structurally, and a
//! miss inserts through the same probe, which copies the payload into the
//! key (replacing a payload whose fingerprint it shares under the salt).
//! A goal of at most four members is copied inline, so a cold decision
//! allocates nothing.
//!
//! The session also holds its bound state: the query-independent half of
//! the propagation path ([`Propagation`]: the `L(C)` bitmap, every density
//! variable's interval, `2 × 8 × 2^{|S|}` bytes, plus each known's row sum
//! and a sorted copy of the knowns).  Its sums visit only the variables
//! outside `L(C)`.  The first `bound` miss routed to propagation builds it,
//! and every later miss only evaluates it, allocating nothing.  Each write
//! drops it, and the next miss builds a fresh one, bitmap included, which
//! at 8 attributes is a fraction of a microsecond.

use crate::cache::{version_salt, Probe};
use crate::session::Session;
use diffcon::inference::{self, Derivation};
use diffcon::procedure::{self, ProcedureKind};
use diffcon::{implication, DiffConstraint};
use diffcon_bounds::derive::{self, derive_relaxed, Propagation};
use diffcon_bounds::problem::{BoundsProblem, DeriveError, DeriveRoute};
use diffcon_bounds::{Interval, SideConditions};
use diffcon_discover::{miner, Dataset, Discovery, MinerConfig};
use diffcon_obs::profile::{self, StageTag};
use setlat::{AttrSet, Universe};
use std::time::{Duration, Instant};

/// Profiling tags for the implication decision routes, so a profile
/// attributes decision time to the procedure actually burning it.
static STAGE_FD: StageTag = StageTag::new("planner.fd");
static STAGE_LATTICE: StageTag = StageTag::new("planner.lattice");
static STAGE_SAT: StageTag = StageTag::new("planner.sat");

/// Profiling tag for bound-ladder derivations (cache misses only; hits
/// return before any derivation work).
static STAGE_BOUND: StageTag = StageTag::new("planner.bound");

/// The profiling tag of one decision route.
fn route_stage_tag(kind: ProcedureKind) -> &'static StageTag {
    match kind {
        ProcedureKind::FdFragment => &STAGE_FD,
        ProcedureKind::Lattice => &STAGE_LATTICE,
        ProcedureKind::Sat => &STAGE_SAT,
    }
}

/// How one query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Whether the premises imply the goal.
    pub implied: bool,
    /// The procedure that produced the answer; `None` when the goal was
    /// trivial and answered inline.
    pub procedure: Option<ProcedureKind>,
    /// Whether the answer came from the answer cache.
    pub cached: bool,
    /// Wall-clock time spent deciding (≈ 0 for trivial goals and cache hits).
    pub elapsed: Duration,
}

impl QueryOutcome {
    /// Short name of the answering path for reports and the wire protocol:
    /// `trivial`, `fd`, `lattice`, or `sat`.
    pub fn route_name(&self) -> &'static str {
        match self.procedure {
            None => "trivial",
            Some(kind) => kind.name(),
        }
    }
}

/// How one bound query was answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundOutcome {
    /// The sound interval containing `f(query)`.
    pub interval: Interval,
    /// The derivation route that produced (or originally produced, for
    /// cached answers) the interval.
    pub route: DeriveRoute,
    /// Whether the answer came from the bound cache.
    pub cached: bool,
    /// Wall-clock derivation time (≈ 0 for cache hits).
    pub elapsed: Duration,
}

impl BoundOutcome {
    /// Short name of the answering path for reports and the wire protocol:
    /// `cached`, `propagation`, or `relaxed`.
    pub fn route_name(&self) -> &'static str {
        if self.cached {
            "cached"
        } else {
            self.route.name()
        }
    }
}

/// A fully-instrumented single-query decision: what [`Session::implies`]
/// would answer, plus the state's epoch and a wall-clock decomposition
/// of where the time went (the `explain` verb's payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplainOutcome {
    /// The decision, exactly as [`Session::implies`] reports it (and with
    /// the same accounting side effects: an explained query hits or feeds
    /// the answer cache and counts in the planner like any other query).
    pub outcome: QueryOutcome,
    /// The epoch of the state that answered.
    pub epoch: u64,
    /// Time probing the answer cache (zero for trivial goals).
    pub probe: Duration,
    /// Time planning the miss: the planner's route choice (zero for
    /// trivial goals and cache hits).
    pub plan: Duration,
    /// Time inside the decision procedure (zero for trivial goals and cache
    /// hits).
    pub decide: Duration,
    /// Total wall-clock time answering, including the stages above and the
    /// cache write-back.
    pub total: Duration,
}

/// The payload of the `analyze` verb: a premise-core static analysis of the
/// session's state (see [`diffcon_analyze::premise`]), plus the state's
/// epoch and the analysis wall-clock.
#[derive(Debug, Clone)]
pub struct AnalyzeOutcome {
    /// The analysis: redundant premises with witnesses, a minimal
    /// conflicting known set if the knowns are infeasible, and the dead
    /// density variables.
    pub analysis: diffcon_analyze::Analysis,
    /// The epoch of the state that was analyzed.
    pub epoch: u64,
    /// Wall-clock time spent analyzing.
    pub elapsed: Duration,
}

impl Session {
    /// The session's universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The premise set, in assertion order.
    pub fn premises(&self) -> &[DiffConstraint] {
        &self.premises
    }

    /// The order-independent digest of the premise set.
    pub fn premise_digest(&self) -> u64 {
        self.premise_digest
    }

    /// The known point values `f(X) = v`, sorted by set.
    pub fn knowns(&self) -> &[(AttrSet, f64)] {
        &self.knowns
    }

    /// The order-independent digest of the known-value map.
    pub fn knowns_digest(&self) -> u64 {
        self.knowns_digest
    }

    /// The loaded dataset, if any.
    pub fn dataset(&self) -> Option<&Dataset> {
        self.dataset.as_ref()
    }

    /// The state's epoch: strictly increasing across one session's writes,
    /// so replies can name (and order) the state that answered them.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The state salt versioning implication answers (premises only:
    /// implication is independent of the knowns).
    fn answer_salt(&self) -> u64 {
        version_salt(self.premise_digest, 0)
    }

    /// The state salt versioning bound intervals (premises and knowns).
    fn bound_salt(&self) -> u64 {
        version_salt(self.premise_digest, self.knowns_digest)
    }

    /// Answers a trivial goal inline, counting it in the planner.
    fn trivial(&self) -> QueryOutcome {
        self.planner.record_trivial();
        QueryOutcome {
            implied: true,
            procedure: None,
            cached: false,
            elapsed: Duration::ZERO,
        }
    }

    /// Answer-cache lookup of the goal `probe` addresses.  A hit is counted
    /// in the planner under the route that decided it.
    fn probe_answer(&self, probe: &Probe<'_, DiffConstraint>) -> Option<QueryOutcome> {
        let (implied, kind) = *self.answer_cache.borrow_mut().probe(probe)?;
        self.planner.record_cache_hit(kind);
        Some(QueryOutcome {
            implied,
            procedure: Some(kind),
            cached: true,
            elapsed: Duration::ZERO,
        })
    }

    /// The planner's route for a goal the answer cache missed.
    fn route(&self, goal: &DiffConstraint) -> ProcedureKind {
        self.planner
            .choose(&self.universe, &self.premises, goal, self.fd_fragment)
    }

    /// Decides one planned miss, `premises ⊨ goal` over `route`, through
    /// the route's one decider.
    ///
    /// # Panics
    /// Panics if `route` is [`ProcedureKind::FdFragment`] and a premise or
    /// the goal lies outside the single-member fragment (see
    /// [`procedure::decide`]); the planner routes there only when both lie
    /// inside it.
    fn decide(&self, goal: &DiffConstraint, route: ProcedureKind) -> QueryOutcome {
        let start = Instant::now();
        let _stage = profile::stage(route_stage_tag(route));
        let implied = procedure::decide(route, &self.universe, &self.premises, goal);
        QueryOutcome {
            implied,
            procedure: Some(route),
            cached: false,
            elapsed: start.elapsed(),
        }
    }

    /// Writes a decided miss back: the answer cache's key keeps the one
    /// copy of the goal, and the planner counts the decision and its
    /// latency.
    fn absorb(
        &self,
        probe: &Probe<'_, DiffConstraint>,
        route: ProcedureKind,
        outcome: QueryOutcome,
    ) {
        self.answer_cache
            .borrow_mut()
            .insert_probed(probe, (outcome.implied, route));
        self.planner.record_decided(route, outcome.elapsed);
    }

    /// Decides `premises ⊨ goal`, consulting and feeding the answer cache.
    pub fn implies(&self, goal: &DiffConstraint) -> QueryOutcome {
        self.implies_marked(goal, || {})
    }

    /// The implication path, calling `mark` as it passes each stage: after
    /// the cache probe, after the route choice, and after the decision.
    /// [`Session::implies`] marks nothing, so it reads no clock for marks.
    fn implies_marked(&self, goal: &DiffConstraint, mut mark: impl FnMut()) -> QueryOutcome {
        if goal.is_trivial() {
            return self.trivial();
        }
        let probe = Probe::new(self.answer_salt(), goal);
        let probed = self.probe_answer(&probe);
        mark();
        if let Some(hit) = probed {
            return hit;
        }
        let route = self.route(goal);
        mark();
        let outcome = self.decide(goal, route);
        mark();
        self.absorb(&probe, route, outcome);
        outcome
    }

    /// Decides `premises ⊨ goal` like [`Session::implies`], additionally
    /// reporting the state's epoch and a per-stage latency decomposition
    /// (cache probe → route choice → decision).  This *is* `implies` with a
    /// clock reading at each stage mark — same cache, same planner
    /// accounting — so an explained query observes exactly what serving it
    /// would cost.
    pub fn explain(&self, goal: &DiffConstraint) -> ExplainOutcome {
        let start = Instant::now();
        // The start, then one reading per stage passed.
        let mut marks = [start; 4];
        let mut passed = 0;
        let outcome = self.implies_marked(goal, || {
            passed += 1;
            marks[passed] = Instant::now();
        });
        let span = |stage: usize| {
            if stage <= passed {
                marks[stage] - marks[stage - 1]
            } else {
                Duration::ZERO
            }
        };
        ExplainOutcome {
            outcome,
            epoch: self.epoch,
            probe: span(1),
            plan: span(2),
            decide: span(3),
            total: start.elapsed(),
        }
    }

    /// Decides a whole batch of goals against the premise set, in
    /// order on the calling thread: each goal goes through
    /// [`Session::implies`], so a repeat of an earlier goal in the batch is
    /// an answer-cache hit exactly like a repeated query.  The outcomes are
    /// index-aligned with `goals`.
    pub fn implies_batch(&self, goals: &[DiffConstraint]) -> Vec<QueryOutcome> {
        goals.iter().map(|goal| self.implies(goal)).collect()
    }

    /// Derives the tightest provable interval for `f(query)` under the
    /// premises, knowns, and side conditions, consulting and feeding the
    /// bound cache.
    ///
    /// # Errors
    /// [`DeriveError::Infeasible`] when the knowns contradict the premises
    /// under the side conditions; infeasible outcomes are not cached.
    ///
    /// # Panics
    /// Panics if `query` lies outside the universe.
    pub fn bound(&self, query: AttrSet) -> Result<BoundOutcome, DeriveError> {
        assert!(
            query.is_subset(self.universe.full_set()),
            "query set lies outside the universe"
        );
        let probe = Probe::new(self.bound_salt(), &query);
        let hit = self.bound_cache.borrow_mut().probe(&probe).copied();
        if let Some((interval, route)) = hit {
            self.planner.record_bound_cache_hit();
            return Ok(BoundOutcome {
                interval,
                route,
                cached: true,
                elapsed: Duration::ZERO,
            });
        }
        let route = derive::route(&self.bounds_problem(), query, &self.bounds_config);
        let start = Instant::now();
        let _bound_stage = profile::stage(&STAGE_BOUND);
        let result = match route {
            DeriveRoute::Propagation => self
                .bound_state()
                .as_ref()
                .map_err(|&e| e)
                .and_then(|state| state.evaluate(query)),
            DeriveRoute::Relaxed => {
                derive_relaxed(&self.bounds_problem(), query).map(|derived| derived.interval)
            }
        };
        let elapsed = start.elapsed();
        self.planner.record_bound_decided(route, elapsed);
        let interval = result?;
        self.bound_cache
            .borrow_mut()
            .insert_probed(&probe, (interval, route));
        Ok(BoundOutcome {
            interval,
            route,
            cached: false,
            elapsed,
        })
    }

    /// The state as a bound-derivation problem, under the support
    /// interpretation of the unknown set function (nonnegative density),
    /// which is what `known <set> = <support>` records.
    fn bounds_problem(&self) -> BoundsProblem<'_> {
        BoundsProblem {
            universe: &self.universe,
            constraints: &self.premises,
            knowns: &self.knowns,
            side: SideConditions::support(),
        }
    }

    /// The bound state, built by the first caller since the last write.
    fn bound_state(&self) -> &Result<Box<Propagation>, DeriveError> {
        self.bound_state.get_or_init(|| {
            Propagation::new(&self.bounds_problem(), &self.bounds_config).map(Box::new)
        })
    }

    /// A refutation witness for a non-implied goal: a set in `L(goal)` not
    /// covered by any premise lattice.  `None` means the goal is implied.
    pub fn refutation_witness(&self, goal: &DiffConstraint) -> Option<AttrSet> {
        implication::refutation_witness(&self.universe, &self.premises, goal)
    }

    /// Produces a machine-checkable Figure 1 derivation of an implied goal
    /// (`None` when the goal is not implied).
    pub fn derive(&self, goal: &DiffConstraint) -> Option<Derivation> {
        inference::derive(&self.universe, &self.premises, goal)
    }

    /// Mines the minimal satisfied disjunctive constraints of the loaded
    /// dataset within the budgets.  `None` when no dataset is loaded.
    pub fn mine_dataset(&self, config: &MinerConfig) -> Option<Discovery> {
        self.dataset.as_ref().map(|ds| miner::mine(ds, config))
    }

    /// Runs the premise-core static analysis against this state: redundant
    /// premises (each with an implying witness subfamily), pre-query
    /// infeasibility of the knowns (with a minimal conflicting known set),
    /// and dead density variables.  A pure read, like `explain`, metered
    /// under `diffcond_analyze_*`.
    pub fn analyze(&self) -> AnalyzeOutcome {
        let start = Instant::now();
        let analysis = diffcon_analyze::analyze(&self.bounds_problem(), &self.bounds_config);
        let elapsed = start.elapsed();
        let metrics = crate::metrics::EngineMetrics::global();
        metrics.analyze_runs.inc();
        metrics
            .analyze_redundant
            .add(analysis.redundant.len() as u64);
        if analysis.conflict.is_some() {
            metrics.analyze_infeasible.inc();
        }
        metrics.analyze_ns.record_duration(elapsed);
        AnalyzeOutcome {
            analysis,
            epoch: self.epoch,
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn parse(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    /// A session holding the given premises.
    fn session_of(u: &Universe, premises: &[DiffConstraint]) -> Session {
        let mut session = Session::new(u.clone());
        for p in premises {
            session.assert_constraint(p);
        }
        session
    }

    #[test]
    fn every_procedure_agrees_with_the_reference() {
        let u = Universe::of_size(5);
        let premises = parse(&u, &["A -> {B}", "B -> {C, DE}", "AC -> {D}"]);
        let session = session_of(&u, &premises);
        let goals = parse(
            &u,
            &["A -> {C, DE}", "C -> {A}", "AB -> {C, DE}", "E -> {A}"],
        );
        for goal in &goals {
            let expected = implication::implies_lattice(&u, &premises, goal);
            for kind in [ProcedureKind::Lattice, ProcedureKind::Sat] {
                let r = session.decide(goal, kind);
                assert_eq!(r.implied, expected, "{kind} wrong on {}", goal.format(&u));
                assert_eq!(r.procedure, Some(kind));
                assert!(!r.cached);
            }
        }
    }

    #[test]
    fn fd_route_decides_inside_the_fragment() {
        let u = Universe::of_size(5);
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let session = session_of(&u, &premises);
        assert!(session.fd_fragment);
        for (text, expected) in [("A -> {C}", true), ("C -> {A}", false)] {
            let goal = DiffConstraint::parse(text, &u).unwrap();
            let r = session.decide(&goal, ProcedureKind::FdFragment);
            assert_eq!(r.implied, expected, "wrong on {text}");
        }
    }

    #[test]
    fn each_snapshot_answers_bounds_from_its_own_state() {
        let u = Universe::of_size(4);
        let set = |text: &str| u.parse_set(text).unwrap();
        let mut session = Session::new(u.clone());
        session.assert_constraint(&DiffConstraint::parse("A -> {B}", &u).unwrap());
        session.set_known(set(""), 100.0);
        session.set_known(set("A"), 40.0);
        assert!(session.bound_state.get().is_none());
        assert_eq!(
            session.bound(set("AB")).unwrap().interval,
            Interval::point(40.0)
        );
        assert!(
            session.bound_state.get().is_some(),
            "the first miss builds the state"
        );
        session.set_known(set("A"), 30.0);
        assert!(
            session.bound_state.get().is_none(),
            "a write drops the state"
        );
        // The next miss rebuilds it from the new knowns.
        let b = session.bound(set("B")).unwrap();
        assert!(!b.cached);
        assert_eq!(b.interval, Interval::new(30.0, 100.0));
        assert!(session.bound_state.get().is_some());
        assert_eq!(
            session.bound(set("AB")).unwrap().interval,
            Interval::point(30.0)
        );
        // A known re-set to its own value is a write all the same.
        session.set_known(set("A"), 30.0);
        assert!(session.bound_state.get().is_none());
    }

    #[test]
    fn epochs_increase_across_every_mutation_kind() {
        let u = Universe::of_size(4);
        let mut s = Session::new(u.clone());
        let mut last = s.snapshot().epoch();
        let mut bumped = |session: &Session, what: &str| {
            let epoch = session.snapshot().epoch();
            assert!(epoch > last, "{what} must bump the epoch");
            last = epoch;
        };
        let c = DiffConstraint::parse("A -> {B}", &u).unwrap();
        s.assert_constraint(&c);
        bumped(&s, "assert");
        s.set_known(u.parse_set("A").unwrap(), 4.0);
        bumped(&s, "known");
        s.forget_known(u.parse_set("A").unwrap());
        bumped(&s, "forget");
        s.retract_constraint(&c);
        bumped(&s, "retract");
        s.load_records(["AB", "B"]).unwrap();
        bumped(&s, "load");
        s.adopt_discovered(&MinerConfig::default()).unwrap();
        bumped(&s, "adopt");
    }

    #[test]
    fn session_stats_expose_state_sizes() {
        let u = Universe::of_size(4);
        let mut session = Session::new(u.clone());
        session.assert_constraint(&DiffConstraint::parse("A -> {B}", &u).unwrap());
        session.set_known(u.parse_set("A").unwrap(), 1.0);
        let stats = session.stats();
        assert_eq!(stats.premises, 1);
        assert_eq!(stats.knowns, 1);
        assert_eq!(stats.epoch, session.snapshot().epoch());
    }
}
