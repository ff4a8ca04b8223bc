//! Immutable session snapshots: the read path of the engine.
//!
//! A [`Snapshot`] is a frozen, point-in-time view of one session's state —
//! the premise set (held once) with a flag for whether it lies in the
//! single-member fragment, the known point values, both versioning digests,
//! and the dataset handle — together with handles to the session's two
//! caches and its planner accounting.  It is the session's only copy of
//! that state: every field is an `Arc` or `Copy`, and a
//! [`crate::session::Session`] mutation publishes the next snapshot by
//! replacing the one component it changed, sharing the rest, and bumping
//! the [`Snapshot::epoch`].
//!
//! The deciders of the paper are pure functions of the premise set, so once
//! that state is frozen every query is answerable through `&self`:
//! [`Snapshot::implies`], [`Snapshot::implies_batch`], and
//! [`Snapshot::bound`] never take a mutable reference, never block a writer,
//! and may be called from any number of threads concurrently (each cache
//! probe takes that cache's one lock).  In-flight readers keep answering
//! against the snapshot they hold — exactly the serial semantics of the
//! program order in which they captured it — while new readers pick up the
//! new state.  An implication miss is routed by the planner and decided
//! through `diffcon::procedure::decide` on the calling thread; only its
//! answer is memoized.  A batch is the same path once per goal, in order,
//! and [`Snapshot::explain`] is the same path with stage marks: one clock
//! reading after the cache probe, the route choice and the decision, which
//! `implies` runs without.
//!
//! Caching across snapshots is sound because every cache key is versioned
//! through [`crate::cache::version_salt`]: two snapshots with the same
//! digests share warm entries (retract-then-reassert instantly revalidates),
//! while any state difference makes the keys disjoint.
//!
//! A snapshot also owns its bound state: the query-independent half of the
//! propagation path ([`Propagation`]: the `L(C)` bitmap, every density
//! variable's interval, `2 × 8 × 2^{|S|}` bytes, plus each known's row sum
//! and a sorted copy of the knowns).  Its sums visit only the variables
//! outside `L(C)`.  The first `bound` miss routed to propagation builds it;
//! concurrent misses wait for that one build, and every later miss only
//! evaluates it, allocating nothing.  Publishing never copies it: the next
//! snapshot starts without a state and builds its own on its first miss,
//! bitmap included, which at 8 attributes is a fraction of a microsecond.

use crate::cache::{lock, version_salt, LruCache, VersionedKey};
use crate::metrics::{CacheFamily, EngineMetrics};
use crate::planner::Planner;
use crate::session::SessionConfig;
use diffcon::inference::{self, Derivation};
use diffcon::procedure::{self, ProcedureKind};
use diffcon::{implication, DiffConstraint};
use diffcon_bounds::derive::{derive_relaxed, Propagation};
use diffcon_bounds::problem::{BoundsConfig, BoundsProblem, DeriveError, DeriveRoute};
use diffcon_bounds::{Interval, SideConditions};
use diffcon_discover::{miner, Dataset, Discovery, MinerConfig};
use diffcon_obs::profile::{self, StageTag};
use setlat::{AttrSet, Universe};
use std::sync::{Arc, Mutex, OnceLock};
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

/// A fully-instrumented single-query decision: what [`Snapshot::implies`]
/// would answer, plus the snapshot identity and a wall-clock decomposition
/// of where the time went (the `explain` verb's payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplainOutcome {
    /// The decision, exactly as [`Snapshot::implies`] reports it (and with
    /// the same accounting side effects: an explained query hits or feeds
    /// the answer cache and counts in the planner like any other query).
    pub outcome: QueryOutcome,
    /// The epoch of the snapshot that answered.
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
/// frozen state (see [`diffcon_analyze::premise`]), plus the snapshot
/// identity and the analysis wall-clock.
#[derive(Debug, Clone)]
pub struct AnalyzeOutcome {
    /// The analysis: redundant premises with witnesses, a minimal
    /// conflicting known set if the knowns are infeasible, and the dead
    /// density variables.
    pub analysis: diffcon_analyze::Analysis,
    /// The epoch of the snapshot that was analyzed.
    pub epoch: u64,
    /// Wall-clock time spent analyzing.
    pub elapsed: Duration,
}

/// The two caches shared by every snapshot of one session, each one
/// [`LruCache`] behind one lock: full query answers and derived bound
/// intervals, both digest-versioned.  Keys are fingerprint-addressed
/// ([`VersionedKey`]), so every value carries the payload it was computed
/// for; reads verify it against the query before trusting the entry
/// (fingerprint collisions recompute, never alias).
#[derive(Debug)]
pub(crate) struct EngineCaches {
    pub(crate) answer: Cache<(DiffConstraint, bool, ProcedureKind)>,
    pub(crate) bound: Cache<(AttrSet, Interval, DeriveRoute)>,
}

/// One engine cache: an [`LruCache`] keyed by [`VersionedKey`], behind one
/// lock.
type Cache<V> = Mutex<LruCache<VersionedKey, V>>;

impl EngineCaches {
    /// Empty caches bounded by `config`, each counting into its family's
    /// process-wide counters.
    pub(crate) fn new(config: &SessionConfig) -> Self {
        fn cache<V>(family: CacheFamily, capacity: usize) -> Cache<V> {
            let counters = EngineMetrics::global().cache(family);
            Mutex::new(LruCache::with_counters(capacity, counters))
        }
        EngineCaches {
            answer: cache(CacheFamily::Answer, config.answer_cache_capacity),
            bound: cache(CacheFamily::Bound, config.bound_cache_capacity),
        }
    }

    pub(crate) fn clear(&self) {
        lock(&self.answer).clear();
        lock(&self.bound).clear();
    }
}

/// An immutable, shareable view of one session's state, answering
/// implication and bound queries through `&self`.
///
/// Obtained from [`crate::session::Session::snapshot`]; shared through its
/// `Arc`, never copied.  All query methods are safe to call from many
/// threads at once.
#[derive(Debug)]
pub struct Snapshot {
    pub(crate) universe: Arc<Universe>,
    pub(crate) premises: Arc<[DiffConstraint]>,
    /// Whether every premise is single-member (the FD fragment), so the
    /// planner may route single-member goals to the FD procedure.
    pub(crate) fd_fragment: bool,
    /// XOR of the premise fingerprints; versions the answer cache.
    pub(crate) premise_digest: u64,
    /// Known point values `f(X) = v`, sorted by set, for `bound` queries.
    pub(crate) knowns: Arc<[(AttrSet, f64)]>,
    /// XOR of the known-entry fingerprints; versions the bound cache
    /// together with the premise digest.
    pub(crate) knowns_digest: u64,
    pub(crate) bounds_config: BoundsConfig,
    /// The loaded basket dataset, if any.  No cache digest involves it:
    /// `adopt` flows back through assertion, which versions as usual.
    pub(crate) dataset: Option<Arc<Dataset>>,
    pub(crate) epoch: u64,
    pub(crate) caches: Arc<EngineCaches>,
    /// Holds the session's ledger.
    pub(crate) planner: Arc<Planner>,
    /// The bound state of this snapshot's premises and knowns, or the
    /// infeasibility its pass 1 found: empty until the first `bound` miss
    /// routed to propagation, then shared by every later one.  Boxed, so an
    /// empty cell adds 16 bytes to the snapshot.  [`Snapshot::successor`]
    /// leaves it behind.
    pub(crate) bound_state: OnceLock<Result<Box<Propagation>, DeriveError>>,
}

impl Snapshot {
    /// The next snapshot of the same session: every component shared, the
    /// epoch bumped, and no bound state (neither copied nor carried over:
    /// the next snapshot builds its own on its first miss).
    pub(crate) fn successor(&self) -> Snapshot {
        Snapshot {
            universe: Arc::clone(&self.universe),
            premises: Arc::clone(&self.premises),
            fd_fragment: self.fd_fragment,
            premise_digest: self.premise_digest,
            knowns: Arc::clone(&self.knowns),
            knowns_digest: self.knowns_digest,
            bounds_config: self.bounds_config,
            dataset: self.dataset.clone(),
            epoch: self.epoch + 1,
            caches: Arc::clone(&self.caches),
            planner: Arc::clone(&self.planner),
            bound_state: OnceLock::new(),
        }
    }

    /// The snapshot's universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The frozen premise set, in assertion order.
    pub fn premises(&self) -> &[DiffConstraint] {
        &self.premises
    }

    /// The order-independent digest of the frozen premise set.
    pub fn premise_digest(&self) -> u64 {
        self.premise_digest
    }

    /// The frozen known point values `f(X) = v`, sorted by set.
    pub fn knowns(&self) -> &[(AttrSet, f64)] {
        &self.knowns
    }

    /// The order-independent digest of the frozen known-value map.
    pub fn knowns_digest(&self) -> u64 {
        self.knowns_digest
    }

    /// The dataset handle frozen in this snapshot, if one was loaded.
    pub fn dataset(&self) -> Option<&Dataset> {
        self.dataset.as_deref()
    }

    /// The publication epoch: strictly increasing across one session's
    /// mutations, so readers can tell snapshots apart (and order them).
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

    fn answer_key(&self, goal: &DiffConstraint) -> VersionedKey {
        VersionedKey::new(self.answer_salt(), goal.fingerprint())
    }

    fn bound_key(&self, query: AttrSet) -> VersionedKey {
        VersionedKey::new(self.bound_salt(), query.fingerprint())
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

    /// Answer-cache probe: fingerprint-addressed lookup, verified against
    /// the goal before the entry is trusted.  A hit is counted in the
    /// planner under the route that decided it.
    fn probe_answer(&self, key: &VersionedKey, goal: &DiffConstraint) -> Option<QueryOutcome> {
        let (implied, kind) = lock(&self.caches.answer)
            .get_if(key, |(stored, implied, kind)| {
                (stored == goal).then_some((*implied, *kind))
            })?;
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

    /// Writes a decided miss back: the answer cache keeps the one copy of
    /// the goal, and the planner counts the decision and its latency.
    fn absorb(
        &self,
        key: VersionedKey,
        goal: &DiffConstraint,
        route: ProcedureKind,
        outcome: QueryOutcome,
    ) {
        lock(&self.caches.answer).insert(key, (goal.clone(), outcome.implied, route));
        self.planner.record_decided(route, outcome.elapsed);
    }

    /// Decides `premises ⊨ goal`, consulting and feeding the answer cache.
    pub fn implies(&self, goal: &DiffConstraint) -> QueryOutcome {
        self.implies_marked(goal, || {})
    }

    /// The implication path, calling `mark` as it passes each stage: after
    /// the cache probe, after the route choice, and after the decision.
    /// [`Snapshot::implies`] marks nothing, so it reads no clock for marks.
    fn implies_marked(&self, goal: &DiffConstraint, mut mark: impl FnMut()) -> QueryOutcome {
        if goal.is_trivial() {
            return self.trivial();
        }
        let key = self.answer_key(goal);
        let probed = self.probe_answer(&key, goal);
        mark();
        if let Some(hit) = probed {
            return hit;
        }
        let route = self.route(goal);
        mark();
        let outcome = self.decide(goal, route);
        mark();
        self.absorb(key, goal, route, outcome);
        outcome
    }

    /// Decides `premises ⊨ goal` like [`Snapshot::implies`], additionally
    /// reporting the snapshot epoch and a per-stage latency decomposition
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

    /// Decides a whole batch of goals against the frozen premise set, in
    /// order on the calling thread: each goal goes through
    /// [`Snapshot::implies`], so a repeat of an earlier goal in the batch is
    /// an answer-cache hit exactly like a repeated query.  The outcomes are
    /// index-aligned with `goals`.
    pub fn implies_batch(&self, goals: &[DiffConstraint]) -> Vec<QueryOutcome> {
        goals.iter().map(|goal| self.implies(goal)).collect()
    }

    /// Derives the tightest provable interval for `f(query)` under the
    /// frozen premises, knowns, and side conditions, consulting and feeding
    /// the shared bound cache.
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
        let key = self.bound_key(query);
        let hit = lock(&self.caches.bound).get_if(&key, |&(stored, interval, route)| {
            (stored == query).then_some((interval, route))
        });
        if let Some((interval, route)) = hit {
            self.planner.record_bound_cache_hit();
            return Ok(BoundOutcome {
                interval,
                route,
                cached: true,
                elapsed: Duration::ZERO,
            });
        }
        let route = self.planner.choose_bound(
            &self.universe,
            self.premises.len(),
            self.knowns.len(),
            query,
            &self.bounds_config,
        );
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
        lock(&self.caches.bound).insert(key, (query, interval, route));
        Ok(BoundOutcome {
            interval,
            route,
            cached: false,
            elapsed,
        })
    }

    /// The frozen state as a bound-derivation problem, under the support
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

    /// This snapshot's bound state, built by the first caller (concurrent
    /// first callers wait for that one build).
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

    /// Mines the minimal satisfied disjunctive constraints of the frozen
    /// dataset within the budgets.  `None` when the snapshot holds no
    /// dataset.
    pub fn mine_dataset(&self, config: &MinerConfig) -> Option<Discovery> {
        self.dataset.as_deref().map(|ds| miner::mine(ds, config))
    }

    /// Runs the premise-core static analysis against this frozen state:
    /// redundant premises (each with an implying witness subfamily),
    /// pre-query infeasibility of the knowns (with a minimal conflicting
    /// known set), and dead density variables.  Pure read — answered from
    /// the snapshot like `explain`, so it can run on any worker against any
    /// epoch — and metered under `diffcond_analyze_*`.
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

    /// A snapshot frozen over the given premises.
    fn snapshot_of(u: &Universe, premises: &[DiffConstraint]) -> Arc<Snapshot> {
        let mut session = Session::new(u.clone());
        for p in premises {
            session.assert_constraint(p);
        }
        session.snapshot()
    }

    #[test]
    fn every_procedure_agrees_with_the_reference() {
        let u = Universe::of_size(5);
        let premises = parse(&u, &["A -> {B}", "B -> {C, DE}", "AC -> {D}"]);
        let snapshot = snapshot_of(&u, &premises);
        let goals = parse(
            &u,
            &["A -> {C, DE}", "C -> {A}", "AB -> {C, DE}", "E -> {A}"],
        );
        for goal in &goals {
            let expected = implication::implies_lattice(&u, &premises, goal);
            for kind in [ProcedureKind::Lattice, ProcedureKind::Sat] {
                let r = snapshot.decide(goal, kind);
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
        let snapshot = snapshot_of(&u, &premises);
        assert!(snapshot.fd_fragment);
        for (text, expected) in [("A -> {C}", true), ("C -> {A}", false)] {
            let goal = DiffConstraint::parse(text, &u).unwrap();
            let r = snapshot.decide(&goal, ProcedureKind::FdFragment);
            assert_eq!(r.implied, expected, "wrong on {text}");
        }
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();
        assert_send_sync::<Arc<Snapshot>>();
    }

    #[test]
    fn snapshots_are_isolated_from_later_mutations() {
        let u = Universe::of_size(4);
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let mut session = Session::new(u.clone());
        for p in &premises {
            session.assert_constraint(p);
        }
        let frozen = session.snapshot();
        let goal = DiffConstraint::parse("A -> {C}", &u).unwrap();
        assert!(frozen.implies(&goal).implied);
        // Retract the transitivity link: the *session* flips, the frozen
        // snapshot keeps answering from its own premise set.
        session.retract_constraint(&premises[1]);
        assert!(!session.implies(&goal).implied);
        assert!(frozen.implies(&goal).implied, "snapshot must stay frozen");
        assert_eq!(frozen.premises().len(), 2);
        assert_eq!(session.premises().len(), 1);
        assert!(session.snapshot().epoch() > frozen.epoch());
    }

    #[test]
    fn each_snapshot_answers_bounds_from_its_own_state() {
        let u = Universe::of_size(4);
        let set = |text: &str| u.parse_set(text).unwrap();
        let mut session = Session::new(u.clone());
        session.assert_constraint(&DiffConstraint::parse("A -> {B}", &u).unwrap());
        session.set_known(set(""), 100.0);
        session.set_known(set("A"), 40.0);
        let frozen = session.snapshot();
        assert!(frozen.bound_state.get().is_none());
        assert_eq!(
            frozen.bound(set("AB")).unwrap().interval,
            Interval::point(40.0)
        );
        assert!(
            frozen.bound_state.get().is_some(),
            "the first miss builds the state"
        );
        session.set_known(set("A"), 30.0);
        let next = session.snapshot();
        assert!(
            next.bound_state.get().is_none(),
            "a published snapshot starts without a state"
        );
        // The frozen snapshot answers a new miss from its own knowns…
        let b = frozen.bound(set("B")).unwrap();
        assert!(!b.cached);
        assert_eq!(b.interval, Interval::new(40.0, 100.0));
        // …and the session's next snapshot from the new ones.
        assert_eq!(
            next.bound(set("AB")).unwrap().interval,
            Interval::point(30.0)
        );
        assert_eq!(
            next.bound(set("B")).unwrap().interval,
            Interval::new(30.0, 100.0)
        );
        assert!(next.bound_state.get().is_some());
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
    fn digest_restoration_shares_warm_entries_across_snapshots() {
        let u = Universe::of_size(4);
        let premise = DiffConstraint::parse("A -> {B}", &u).unwrap();
        let goal = DiffConstraint::parse("AC -> {B}", &u).unwrap();
        let mut session = Session::new(u);
        session.assert_constraint(&premise);
        let first = session.snapshot();
        assert!(!first.implies(&goal).cached);
        // A different state must not reuse the entry…
        session.retract_constraint(&premise);
        assert!(!session.snapshot().implies(&goal).cached);
        // …but restoring the digest revalidates it, on a *new* snapshot.
        session.assert_constraint(&premise);
        let third = session.snapshot();
        assert!(third.implies(&goal).cached);
        assert_ne!(first.epoch(), third.epoch());
    }

    #[test]
    fn concurrent_readers_agree_with_the_oracle() {
        let u = Universe::of_size(6);
        let premises = parse(&u, &["A -> {B}", "BC -> {D, EF}", "D -> {E}"]);
        let mut session = Session::new(u.clone());
        for p in &premises {
            session.assert_constraint(p);
        }
        let snapshot = session.snapshot();
        let mut gen = diffcon::random::ConstraintGenerator::new(17, &u);
        let shape = diffcon::random::ConstraintShape::default();
        let goals = gen.constraint_set(48, &shape);
        let expected: Vec<bool> = goals
            .iter()
            .map(|g| implication::implies_lattice(&u, &premises, g))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let snapshot = Arc::clone(&snapshot);
                let goals = &goals;
                let expected = &expected;
                scope.spawn(move || {
                    for (goal, &want) in goals.iter().zip(expected) {
                        assert_eq!(snapshot.implies(goal).implied, want);
                    }
                });
            }
        });
        let stats = session.stats();
        assert_eq!(stats.premises, 3);
        assert!(stats.planner.total_queries() >= 192);
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
