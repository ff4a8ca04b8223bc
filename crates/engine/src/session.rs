//! Sessions: a universe plus an incrementally maintained premise set, with
//! memoization and batch evaluation layered over the one-shot procedures in
//! `diffcon`.
//!
//! A [`Session`] is the unit of engine state, and holds it directly: the
//! premise set, with a flag for whether every premise is single-member
//! (which opens the polynomial FD fast path), and an order-independent
//! 64-bit **premise digest** (XOR of constraint fingerprints) that versions
//! every cached answer; the known point values `f(X) = v` with their own
//! digest (versioning bound intervals); the loaded dataset; the epoch; the
//! session's two caches (full answers and bound intervals, one
//! [`crate::cache::LruCache`] each); its [`Planner`] accounting and bound
//! state; and the [`ConstraintInterner`], which assigns dense ids to
//! asserted constraints and records which of them are premises now.
//!
//! Every write edits the session in place: an assert pushes one premise, a
//! retract removes one, a `known` or `forget` inserts, replaces or removes
//! one entry of the sorted knowns, and each updates its digest and fragment
//! flag, bumps the epoch, and drops the bound state (the next `bound` miss
//! builds a fresh one).  A write copies nothing it does not change, so its
//! allocations do not grow with the premise count, and an assert decides
//! "already a premise" with one interner probe.  The reads —
//! [`Session::implies`], [`Session::implies_batch`], [`Session::bound`],
//! the accessors — take `&self` and live in [`crate::snapshot`].  One thread
//! owns a session and answers its requests in order, so nothing is locked.

use crate::cache::{LruCache, VersionedKey};
use crate::intern::{ConstraintId, ConstraintInterner};
use crate::metrics::{CacheFamily, EngineMetrics, SessionCosts};
use crate::planner::{Planner, PlannerStats};
use diffcon::procedure::ProcedureKind;
use diffcon::{fd_fragment, DiffConstraint};
use diffcon_bounds::derive::Propagation;
use diffcon_bounds::problem::{BoundsConfig, DeriveError, DeriveRoute};
use diffcon_bounds::Interval;
use diffcon_discover::{Dataset, Discovery, MinerConfig};
use fis::basket::BasketParseError;
use setlat::{AttrSet, Universe};
use std::cell::{OnceCell, RefCell};
use std::sync::Arc;

pub use crate::cache::CacheStats;
pub use crate::snapshot::{BoundOutcome, QueryOutcome};

/// Capacity and planner settings for a session.
///
/// `bound` and `analyze` always read the knowns as supports: the unknown
/// set function has nonnegative density, which is what `known <set> =
/// <support>` records.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Bound on memoized query answers.
    pub answer_cache_capacity: usize,
    /// Bound on memoized bound-query intervals.
    pub bound_cache_capacity: usize,
    /// Derivation knobs for the bound engine: propagation rounds, the
    /// pairwise pass, and [`BoundsConfig::budget_ops`], the one budget that
    /// routes `bound` between the full propagation path and the relaxation
    /// and caps `analyze`'s propagation sweep.
    pub bounds: BoundsConfig,
    /// Distinct-constraint count past which the interner is compacted.
    ///
    /// Only asserted premises are interned (queries never touch the
    /// interner), so the table grows with assert/retract churn, not query
    /// traffic.  When it exceeds this threshold it is rebuilt with only the
    /// current premises.  The threshold is a floor, not an exact trigger:
    /// compaction only runs when it can actually shrink the table, so the
    /// engine always allows at least `2·|premises| + 16` entries.
    pub interner_compaction_threshold: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            answer_cache_capacity: 1 << 16,
            bound_cache_capacity: 1 << 12,
            bounds: BoundsConfig::default(),
            interner_compaction_threshold: 1 << 18,
        }
    }
}

/// A point-in-time view of a session's accumulated statistics.
#[derive(Debug, Clone, Copy)]
pub struct SessionStats {
    /// Per-procedure planner accounting.
    pub planner: PlannerStats,
    /// Answer-cache counters.
    pub answer_cache: CacheStats,
    /// Bound-cache counters.
    pub bound_cache: CacheStats,
    /// Per-procedure decision-latency percentiles `(p50, p99)` in
    /// microseconds, indexed by [`diffcon::procedure::ProcedureKind::index`]
    /// (zeros for procedures that never decided).
    pub route_latency_us: [(u64, u64); diffcon::procedure::ALL_PROCEDURES.len()],
    /// Current number of known point values.
    pub knowns: usize,
    /// Baskets in the loaded dataset (0 when none is loaded).
    pub dataset_baskets: usize,
    /// Current number of premises.
    pub premises: usize,
    /// Distinct constraints currently interned (asserted premises, past and
    /// present, until compaction).
    pub interned: usize,
    /// Times the interner has been compacted (see
    /// [`SessionConfig::interner_compaction_threshold`]).
    pub interner_compactions: u64,
    /// The state's epoch (bumped by every write).
    pub epoch: u64,
}

/// The outcome of adopting discovered constraints as premises.
#[derive(Debug, Clone, PartialEq)]
pub struct AdoptOutcome {
    /// The discovery that was adopted (minimal set, cover, miner stats).
    pub discovery: Discovery,
    /// How many cover constraints were newly asserted (the rest were
    /// already premises).
    pub newly_asserted: usize,
}

/// The outcome of reducing the premise family to its minimal core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreApplied {
    /// Premises before the reduction.
    pub before: usize,
    /// Premises after the reduction (the core size).
    pub after: usize,
    /// Redundant premises retracted.
    pub dropped: usize,
}

/// One engine cache: an [`LruCache`] from a payload `P` versioned by the
/// state salt ([`VersionedKey`]) to its answer `V`, borrowed for one probe
/// or one insert at a time.  The key holds the payload's one copy and is
/// compared structurally, so a fingerprint collision is a miss, never
/// another payload's answer.
type Cache<P, V> = RefCell<LruCache<VersionedKey<P>, V>>;

/// An empty cache of `capacity` entries, counting into `family`'s
/// process-wide counters.
fn cache<P, V>(family: CacheFamily, capacity: usize) -> Cache<P, V> {
    let counters = EngineMetrics::global().cache(family);
    RefCell::new(LruCache::with_counters(capacity, counters))
}

/// A stateful query-serving session over one universe, answering
/// implication and bound queries through `&self` (see [`crate::snapshot`]).
#[derive(Debug)]
pub struct Session {
    pub(crate) universe: Universe,
    /// The premise set, in assertion order.
    pub(crate) premises: Vec<DiffConstraint>,
    /// Whether every premise is single-member (the FD fragment), so the
    /// planner may route single-member goals to the FD procedure.
    pub(crate) fd_fragment: bool,
    /// XOR of the premise fingerprints; versions the answer cache.
    pub(crate) premise_digest: u64,
    /// Known point values `f(X) = v`, sorted by set, for `bound` queries.
    pub(crate) knowns: Vec<(AttrSet, f64)>,
    /// XOR of the known-entry fingerprints; versions the bound cache
    /// together with the premise digest.
    pub(crate) knowns_digest: u64,
    pub(crate) bounds_config: BoundsConfig,
    /// The loaded basket dataset, if any.  No cache digest involves it:
    /// `adopt` flows back through assertion, which versions as usual.
    pub(crate) dataset: Option<Dataset>,
    pub(crate) epoch: u64,
    /// Decided implication answers: the verdict and the route, keyed by
    /// the goal.
    pub(crate) answer_cache: Cache<DiffConstraint, (bool, ProcedureKind)>,
    /// Derived bound intervals: the interval and the route, keyed by the
    /// set it bounds.
    pub(crate) bound_cache: Cache<AttrSet, (Interval, DeriveRoute)>,
    /// Holds the session's ledger.
    pub(crate) planner: Planner,
    /// The bound state of these premises and knowns, or the infeasibility
    /// its pass 1 found: empty until the first `bound` miss routed to
    /// propagation, then read by every later one, and dropped by each
    /// write.  Boxed, so an empty cell adds 16 bytes to the session.
    pub(crate) bound_state: OnceCell<Result<Box<Propagation>, DeriveError>>,
    /// Every asserted constraint's id, and which of them are premises now.
    interner: ConstraintInterner,
    interner_compaction_threshold: usize,
    interner_compactions: u64,
}

impl Session {
    /// Creates an empty session over `universe` with default configuration.
    pub fn new(universe: Universe) -> Self {
        Session::with_config(universe, SessionConfig::default())
    }

    /// Creates an empty session with explicit cache and planner settings.
    pub fn with_config(universe: Universe, config: SessionConfig) -> Self {
        Session {
            universe,
            premises: Vec::new(),
            fd_fragment: true,
            premise_digest: 0,
            knowns: Vec::new(),
            knowns_digest: 0,
            bounds_config: config.bounds,
            dataset: None,
            epoch: 0,
            answer_cache: cache(CacheFamily::Answer, config.answer_cache_capacity),
            bound_cache: cache(CacheFamily::Bound, config.bound_cache_capacity),
            planner: Planner::default(),
            bound_state: OnceCell::new(),
            interner: ConstraintInterner::new(),
            interner_compaction_threshold: config.interner_compaction_threshold.max(1),
            interner_compactions: 0,
        }
    }

    /// Opens the session for one write: bumps the epoch and drops the
    /// bound state, since it was built from the state before the write.
    fn write(&mut self) {
        EngineMetrics::global().epoch_publishes.inc();
        self.epoch += 1;
        self.bound_state.take();
    }

    /// The session's ledger: every route decision, cache hit, and charged
    /// query, counted once (held by its planner, and registered with the
    /// metrics registry when the session is bound to a `(connection, slot)`
    /// pair).
    pub fn costs(&self) -> &Arc<SessionCosts> {
        self.planner.costs()
    }

    /// The session itself, as of its last write: every query answers
    /// through `&self`, so a read view needs nothing captured.
    pub fn snapshot(&self) -> &Session {
        self
    }

    /// Stable fingerprint of one known entry; XORed into the knowns digest.
    fn known_fingerprint(set: AttrSet, value: f64) -> u64 {
        set.fingerprint().rotate_left(17) ^ value.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Records `f(set) = value` for bound derivation.  Returns `true` when
    /// the set was new, `false` when an existing value was replaced.
    ///
    /// # Panics
    /// Panics if `value` is not finite or `set` lies outside the universe.
    pub fn set_known(&mut self, set: AttrSet, value: f64) -> bool {
        assert!(value.is_finite(), "known values must be finite");
        assert!(
            set.is_subset(self.universe.full_set()),
            "known set lies outside the universe"
        );
        self.write();
        let fingerprint = Session::known_fingerprint(set, value);
        match self.knowns.binary_search_by(|(x, _)| x.cmp(&set)) {
            Ok(pos) => {
                let old = std::mem::replace(&mut self.knowns[pos].1, value);
                self.knowns_digest ^= Session::known_fingerprint(set, old) ^ fingerprint;
                false
            }
            Err(pos) => {
                self.knowns.insert(pos, (set, value));
                self.knowns_digest ^= fingerprint;
                true
            }
        }
    }

    /// Forgets a known point value.  Returns `false` when it was not known.
    pub fn forget_known(&mut self, set: AttrSet) -> bool {
        let Ok(pos) = self.knowns.binary_search_by(|(x, _)| x.cmp(&set)) else {
            return false;
        };
        self.write();
        let (_, value) = self.knowns.remove(pos);
        self.knowns_digest ^= Session::known_fingerprint(set, value);
        true
    }

    /// Streams textual basket records (compact `"ACD"` / `"{}"` notation)
    /// into the session's dataset, creating it on first use.  Returns the
    /// number of baskets appended.
    ///
    /// Loading touches no premise or known state, so cached answers stay
    /// valid; only [`Session::adopt_discovered`] (which asserts premises)
    /// re-versions them.
    ///
    /// Each call appends to a copy of the dataset and installs it once
    /// every record has parsed, which is what keeps a refused load from
    /// leaving half its records behind.  The copy costs `O(dataset)` per
    /// call, never per record, so batch records into as few calls as the
    /// source allows.
    ///
    /// # Errors
    /// [`BasketParseError`] locating the first bad record (1-based) and its
    /// offending token.  The session is left as it was, so a failed first
    /// load creates no dataset and no epoch.
    pub fn load_records<I>(&mut self, records: I) -> Result<usize, BasketParseError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut dataset = self
            .dataset
            .clone()
            .unwrap_or_else(|| Dataset::new(self.universe.clone()));
        let added = dataset.load(records)?;
        self.write();
        self.dataset = Some(dataset);
        Ok(added)
    }

    /// Mines the dataset and asserts the discovery's non-redundant cover as
    /// premises, so subsequent `implies` and `bound` queries reason from
    /// what provably holds in the data.  `None` when no dataset has been
    /// loaded.
    pub fn adopt_discovered(&mut self, config: &MinerConfig) -> Option<AdoptOutcome> {
        let discovery = self.mine_dataset(config)?;
        let mut newly_asserted = 0usize;
        for constraint in &discovery.cover {
            let (_, added) = self.assert_constraint(constraint);
            newly_asserted += added as usize;
        }
        Some(AdoptOutcome {
            discovery,
            newly_asserted,
        })
    }

    /// Adds a premise.  Returns its id and `true`, or its existing id and
    /// `false` when the constraint (up to normalization) is already asserted.
    pub fn assert_constraint(&mut self, constraint: &DiffConstraint) -> (ConstraintId, bool) {
        if self.compaction_due() && self.interner.lookup(constraint).is_none() {
            self.compact_interner();
        }
        let (id, added) = self.interner.assert(constraint);
        if added {
            self.write();
            self.premises.push(constraint.clone());
            self.fd_fragment &= fd_fragment::in_fragment(constraint);
            self.premise_digest ^= constraint.fingerprint();
        }
        (id, added)
    }

    /// Removes a premise.  Returns `false` when it was not asserted.
    pub fn retract_constraint(&mut self, constraint: &DiffConstraint) -> bool {
        if self.interner.retract(constraint).is_none() {
            return false;
        }
        // The interner's premises are the premise set, so this finds it.
        let Some(pos) = self.premises.iter().position(|p| p == constraint) else {
            return false;
        };
        self.write();
        let removed = self.premises.remove(pos);
        self.premise_digest ^= removed.fingerprint();
        // The retraction may have removed the last wide premise; rescan.
        self.fd_fragment = self.fd_fragment || fd_fragment::set_in_fragment(&self.premises);
        true
    }

    /// Reduces the premise family to its redundancy-free minimal core
    /// ([`diffcon_analyze::minimal_core`]): every premise implied by the
    /// rest is retracted.  The reduction is answer-preserving — the dropped
    /// premises' lattices are covered by the core, so `implies` verdicts
    /// and every derived bound are unchanged (see
    /// [`diffcon_analyze::premise`] for the argument) — and the core's
    /// certificate is re-verified here before any premise is touched.
    pub fn apply_core(&mut self) -> Result<CoreApplied, &'static str> {
        let core = diffcon_analyze::minimal_core(&self.universe, &self.premises);
        if !diffcon_analyze::check_certificate(&self.universe, &core) {
            return Err("core certificate failed verification; premises unchanged");
        }
        let before = self.premises.len();
        for dropped in &core.dropped {
            self.retract_constraint(&dropped.premise);
        }
        let after = self.premises.len();
        Ok(CoreApplied {
            before,
            after,
            dropped: before - after,
        })
    }

    /// Returns `true` when the interner has outgrown its threshold *and*
    /// compaction would make progress.  The `2·|premises| + 16` floor
    /// guarantees geometric headroom between compactions, so assert/retract
    /// churn cannot trigger a compaction per mutation.
    fn compaction_due(&self) -> bool {
        let floor = self.premises.len().saturating_mul(2).saturating_add(16);
        self.interner.len() >= self.interner_compaction_threshold.max(floor)
    }

    /// Rebuilds the interner with only the current premises, re-interned
    /// in order.  Ids are reassigned, so previously returned
    /// [`ConstraintId`]s become stale; the caches are unaffected (they are
    /// keyed on digest-versioned goals and sets, never on ids).
    fn compact_interner(&mut self) {
        let mut fresh = ConstraintInterner::new();
        for premise in &self.premises {
            fresh.assert(premise);
        }
        self.interner = fresh;
        self.interner_compactions += 1;
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            planner: self.planner.stats(),
            answer_cache: self.answer_cache.borrow().stats(),
            bound_cache: self.bound_cache.borrow().stats(),
            route_latency_us: diffcon::procedure::ALL_PROCEDURES.map(|kind| {
                let latency = self.planner.latency(kind);
                (latency.p50() / 1_000, latency.p99() / 1_000)
            }),
            knowns: self.knowns.len(),
            dataset_baskets: self.dataset.as_ref().map_or(0, Dataset::len),
            premises: self.premises.len(),
            interned: self.interner.len(),
            interner_compactions: self.interner_compactions,
            epoch: self.epoch,
        }
    }

    /// Drops all cached answers and bound intervals (premises and knowns
    /// are kept): the caches are a performance layer, never a source of
    /// truth.
    pub fn clear_caches(&self) {
        self.answer_cache.borrow_mut().clear();
        self.bound_cache.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffcon::implication;
    use diffcon::procedure::ProcedureKind;
    use diffcon_bounds::problem::{DeriveError, DeriveRoute};
    use setlat::Family;

    fn parse(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    fn example_session() -> (Session, Vec<DiffConstraint>) {
        let u = Universe::of_size(4);
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let mut s = Session::new(u);
        for p in &premises {
            s.assert_constraint(p);
        }
        (s, premises)
    }

    #[test]
    fn answers_match_the_one_shot_procedure() {
        let (s, premises) = example_session();
        let goals = parse(
            s.universe(),
            &["A -> {C}", "C -> {A}", "AB -> {B}", "A -> {B, CD}"],
        );
        for goal in &goals {
            let expected = implication::implies_lattice(s.universe(), &premises, goal);
            assert_eq!(s.implies(goal).implied, expected, "wrong on {goal:?}");
        }
    }

    #[test]
    fn repeat_queries_hit_the_answer_cache() {
        let (s, _) = example_session();
        let goal = DiffConstraint::parse("A -> {C}", s.universe()).unwrap();
        let first = s.implies(&goal);
        assert!(!first.cached);
        let second = s.implies(&goal);
        assert!(second.cached);
        assert_eq!(first.implied, second.implied);
        assert_eq!(first.procedure, second.procedure);
        assert_eq!(s.stats().answer_cache.hits, 1);
    }

    /// The set whose fingerprint is `fp`: `AttrSet::fingerprint`, the
    /// SplitMix64 finalizer, inverted step by step.
    fn set_with_fingerprint(fp: u64) -> AttrSet {
        let unshift = |z: u64, by: u32| (0..64 / by).fold(z, |x, _| z ^ (x >> by));
        let z = unshift(fp, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        let z = unshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        AttrSet::from_bits(unshift(z, 30).wrapping_sub(0x9E37_79B9_7F4A_7C15))
    }

    /// The inverse of an odd word modulo `2^64`, by Newton's iteration.
    fn inverse(odd: u64) -> u64 {
        (0..5).fold(odd, |inv, _| {
            inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)))
        })
    }

    #[test]
    fn forged_fingerprint_collisions_share_one_answer_entry() {
        // At 64 attributes every mask is a set, so a client can pick, for
        // any right side, the left side that gives the goal a chosen
        // fingerprint.  Such goals must neither alias each other's answers
        // nor pile up in the answer cache.
        let s = Session::new(Universe::of_size(64));
        let target = 0x0123_4567_89AB_CDEF_u64;
        let goals: Vec<DiffConstraint> = (0..64)
            .map(|i| {
                let rhs = Family::single(AttrSet::singleton(i));
                let lhs = (target ^ rhs.fingerprint())
                    .wrapping_mul(inverse(0x100_0000_01B3))
                    .rotate_right(32);
                DiffConstraint::new(set_with_fingerprint(lhs), rhs)
            })
            .filter(|goal| !goal.is_trivial())
            .collect();
        assert!(goals.len() > 16, "{} nontrivial goals", goals.len());
        for goal in &goals {
            assert_eq!(goal.fingerprint(), target);
            let outcome = s.implies(goal);
            assert!(!outcome.implied && !outcome.cached);
            assert_eq!(s.answer_cache.borrow().len(), 1);
        }
        let stats = s.stats().answer_cache;
        let n = goals.len() as u64;
        assert_eq!((stats.hits, stats.misses, stats.collisions), (0, n, n - 1));
        // The last goal holds the entry; the first was replaced.
        assert!(s.implies(&goals[goals.len() - 1]).cached);
        assert!(!s.implies(&goals[0]).cached);
    }

    #[test]
    fn trivial_goals_short_circuit() {
        let (s, _) = example_session();
        let goal = DiffConstraint::parse("AB -> {B}", s.universe()).unwrap();
        let outcome = s.implies(&goal);
        assert!(outcome.implied);
        assert_eq!(outcome.procedure, None);
        assert_eq!(outcome.route_name(), "trivial");
        assert_eq!(s.stats().planner.trivial, 1);
    }

    #[test]
    fn premise_mutation_versions_the_answer_cache() {
        let (mut s, premises) = example_session();
        let goal = DiffConstraint::parse("A -> {C}", s.universe()).unwrap();
        assert!(s.implies(&goal).implied);
        // Retract B → {C}: transitivity is gone, the answer must flip even
        // though the stale cached entry still exists under the old digest.
        assert!(s.retract_constraint(&premises[1]));
        let outcome = s.implies(&goal);
        assert!(!outcome.implied);
        assert!(!outcome.cached);
        // Re-assert: the digest returns to its old value, so the original
        // answer is served straight from the cache again.
        s.assert_constraint(&premises[1]);
        let outcome = s.implies(&goal);
        assert!(outcome.implied);
        assert!(
            outcome.cached,
            "digest restoration should revalidate the cache"
        );
    }

    #[test]
    fn duplicate_assert_is_a_noop() {
        let (mut s, premises) = example_session();
        let digest = s.premise_digest();
        let epoch = s.stats().epoch;
        let (_, added) = s.assert_constraint(&premises[0]);
        assert!(!added);
        assert_eq!(s.premises().len(), 2);
        assert_eq!(s.premise_digest(), digest, "digest must not XOR-cancel");
        assert_eq!(s.stats().epoch, epoch, "no mutation, no republication");
    }

    #[test]
    fn fd_fragment_flag_tracks_premise_membership() {
        let u = Universe::of_size(4);
        let mut s = Session::new(u);
        let narrow = parse(s.universe(), &["A -> {B}"]);
        let wide = parse(s.universe(), &["B -> {C, D}"]);
        s.assert_constraint(&narrow[0]);
        let goal = DiffConstraint::parse("A -> {B}", s.universe()).unwrap();
        // ⊤-trivial goals bypass procedures, so use a non-trivial FD goal.
        let fd_goal = DiffConstraint::parse("AC -> {B}", s.universe()).unwrap();
        assert_eq!(
            s.implies(&fd_goal).procedure,
            Some(ProcedureKind::FdFragment)
        );
        // A wide premise disables the fast path…
        s.assert_constraint(&wide[0]);
        let outcome = s.implies(&goal);
        assert_ne!(outcome.procedure, Some(ProcedureKind::FdFragment));
        // …and retracting it restores it.
        assert!(s.retract_constraint(&wide[0]));
        let fd_goal2 = DiffConstraint::parse("AD -> {B}", s.universe()).unwrap();
        assert_eq!(
            s.implies(&fd_goal2).procedure,
            Some(ProcedureKind::FdFragment)
        );
    }

    #[test]
    fn batch_agrees_with_serial_and_preserves_order() {
        let u = Universe::of_size(6);
        let premises = parse(&u, &["A -> {B}", "BC -> {D, EF}", "D -> {E}"]);
        let mut batch_session = Session::new(u.clone());
        let mut serial_session = Session::new(u.clone());
        for p in &premises {
            batch_session.assert_constraint(p);
            serial_session.assert_constraint(p);
        }
        let mut gen = diffcon::random::ConstraintGenerator::new(5, &u);
        let shape = diffcon::random::ConstraintShape::default();
        // Include duplicates so the batch exercises the answer cache.
        let mut goals = gen.constraint_set(40, &shape);
        let dup = goals[3].clone();
        goals.push(dup);
        let batch_outcomes = batch_session.implies_batch(&goals);
        assert_eq!(batch_outcomes.len(), goals.len());
        for (goal, outcome) in goals.iter().zip(&batch_outcomes) {
            assert_eq!(outcome.implied, serial_session.implies(goal).implied);
            assert_eq!(
                outcome.implied,
                implication::implies_lattice(&u, &premises, goal),
                "batch wrong on {}",
                goal.format(&u)
            );
        }
        // The duplicated goal must have been served from the cache.
        assert!(batch_outcomes.last().unwrap().cached);
    }

    #[test]
    fn witness_and_derivation_are_consistent_with_answers() {
        let (s, _) = example_session();
        let implied = DiffConstraint::parse("A -> {C}", s.universe()).unwrap();
        let refuted = DiffConstraint::parse("C -> {A}", s.universe()).unwrap();
        assert!(s.implies(&implied).implied);
        assert_eq!(s.refutation_witness(&implied), None);
        let proof = s.derive(&implied).expect("implied goals are derivable");
        assert!(proof.verify(s.universe(), s.premises()).is_ok());
        assert!(!s.implies(&refuted).implied);
        assert!(s.refutation_witness(&refuted).is_some());
        assert!(s.derive(&refuted).is_none());
    }

    #[test]
    fn tiny_caches_still_answer_correctly() {
        let u = Universe::of_size(5);
        let premises = parse(&u, &["A -> {B}", "B -> {C, DE}"]);
        let config = SessionConfig {
            answer_cache_capacity: 2,
            ..SessionConfig::default()
        };
        let mut s = Session::with_config(u.clone(), config);
        for p in &premises {
            s.assert_constraint(p);
        }
        let mut gen = diffcon::random::ConstraintGenerator::new(77, &u);
        let shape = diffcon::random::ConstraintShape::default();
        let goals = gen.constraint_set(30, &shape);
        // Query twice in interleaved order so eviction churns constantly.
        for goal in goals.iter().chain(goals.iter()) {
            assert_eq!(
                s.implies(goal).implied,
                implication::implies_lattice(&u, &premises, goal),
                "wrong under eviction on {}",
                goal.format(&u)
            );
        }
        assert!(s.stats().answer_cache.evictions > 0, "expected churn");
    }

    #[test]
    fn queries_never_grow_the_interner() {
        // The interner tracks asserted premises only; query traffic — the
        // unbounded input of a serving process — must not grow it.
        let u = Universe::of_size(6);
        let premises = parse(&u, &["A -> {B}", "B -> {C, DE}"]);
        let mut s = Session::new(u.clone());
        for p in &premises {
            s.assert_constraint(p);
        }
        let mut gen = diffcon::random::ConstraintGenerator::new(3, &u);
        let shape = diffcon::random::ConstraintShape::default();
        let goals = gen.constraint_set(200, &shape);
        for goal in &goals {
            assert_eq!(
                s.implies(goal).implied,
                implication::implies_lattice(&u, &premises, goal),
                "wrong on {}",
                goal.format(&u)
            );
        }
        let stats = s.stats();
        assert_eq!(stats.interned, 2, "queries must not intern goals");
        assert_eq!(stats.interner_compactions, 0);
    }

    #[test]
    fn interner_compaction_bounds_assert_retract_churn() {
        let u = Universe::of_size(6);
        let config = SessionConfig {
            interner_compaction_threshold: 8,
            ..SessionConfig::default()
        };
        let mut s = Session::with_config(u.clone(), config);
        let mut gen = diffcon::random::ConstraintGenerator::new(3, &u);
        let shape = diffcon::random::ConstraintShape::default();
        let churn = gen.constraint_set(100, &shape);
        let keeper = DiffConstraint::parse("A -> {B}", &u).unwrap();
        s.assert_constraint(&keeper);
        for c in &churn {
            if c.is_trivial() || *c == keeper {
                continue;
            }
            let (_, added) = s.assert_constraint(c);
            if added {
                assert!(s.retract_constraint(c));
            }
            // The bound holds throughout: with 1 premise the effective
            // threshold is the progress floor 2·1 + 16 = 18 (the configured
            // 8 lies below it), plus the entry just interned.
            assert!(s.stats().interned <= 19, "interner grew past its bound");
            // Answers always reflect exactly the surviving premise.
            let goal = DiffConstraint::parse("AC -> {B}", &u).unwrap();
            assert!(s.implies(&goal).implied);
        }
        let stats = s.stats();
        assert!(
            stats.interner_compactions >= 3,
            "expected repeated compaction, got {}",
            stats.interner_compactions
        );
        assert_eq!(stats.premises, 1);
        // Premise ids stay coherent after many compactions: mutation and
        // batch evaluation still work.
        assert!(s.retract_constraint(&keeper));
        assert_eq!(s.premises().len(), 0);
        let batch = s.implies_batch(&churn[..10]);
        for (goal, outcome) in churn[..10].iter().zip(&batch) {
            assert_eq!(outcome.implied, implication::implies_lattice(&u, &[], goal));
        }
    }

    #[test]
    fn large_premise_sets_do_not_thrash_compaction() {
        // A premise count at/above the configured threshold must not trigger
        // a compaction per assertion (the progress floor kicks in).
        let u = Universe::of_size(6);
        let config = SessionConfig {
            interner_compaction_threshold: 4,
            ..SessionConfig::default()
        };
        let mut s = Session::with_config(u.clone(), config);
        let mut gen = diffcon::random::ConstraintGenerator::new(9, &u);
        let shape = diffcon::random::ConstraintShape::default();
        for p in &gen.constraint_set(10, &shape) {
            s.assert_constraint(p);
        }
        let goal = gen.constraint(&shape);
        s.implies(&goal);
        let warm = s.implies(&goal);
        assert!(warm.cached, "repeat query must stay cached");
        assert_eq!(s.stats().interner_compactions, 0);
    }

    #[test]
    fn bound_queries_use_constraints_knowns_and_the_cache() {
        let u = Universe::of_size(4);
        let mut s = Session::new(u.clone());
        let premise = DiffConstraint::parse("A -> {B}", &u).unwrap();
        s.assert_constraint(&premise);
        assert!(s.set_known(u.parse_set("A").unwrap(), 40.0));
        let ab = u.parse_set("AB").unwrap();
        // The acceptance scenario: the constraint pins σ(AB) = σ(A).
        let first = s.bound(ab).unwrap();
        assert!(!first.cached);
        assert_eq!(first.route, DeriveRoute::Propagation);
        assert_eq!(first.route_name(), "propagation");
        assert!(first.interval.is_exact());
        assert_eq!(first.interval.lo, 40.0);
        // Second ask is a cache hit with the same interval.
        let second = s.bound(ab).unwrap();
        assert!(second.cached);
        assert_eq!(second.route_name(), "cached");
        assert_eq!(second.interval, first.interval);
        let stats = s.stats();
        assert_eq!(stats.planner.bounds.propagation, 1);
        assert_eq!(stats.planner.bounds.cache_hits, 1);
        assert_eq!(stats.knowns, 1);
        // Retracting the premise widens the interval (and misses the cache);
        // re-asserting revalidates the original cached answer.
        assert!(s.retract_constraint(&premise));
        let loose = s.bound(ab).unwrap();
        assert!(!loose.cached);
        assert_eq!(loose.interval.lo, 0.0);
        assert_eq!(loose.interval.hi, 40.0);
        s.assert_constraint(&premise);
        assert!(s.bound(ab).unwrap().cached);
        // Forgetting the known value widens again; re-knowing revalidates.
        assert!(s.forget_known(u.parse_set("A").unwrap()));
        let unknown = s.bound(ab).unwrap();
        assert_eq!(unknown.interval.hi, f64::INFINITY);
        s.set_known(u.parse_set("A").unwrap(), 40.0);
        assert!(s.bound(ab).unwrap().cached);
    }

    #[test]
    fn retraction_changes_the_versioned_cache_key() {
        use crate::cache::version_salt;
        let (mut s, premises) = example_session();
        let answer_salt = version_salt(s.premise_digest(), 0);
        let bound_salt = version_salt(s.premise_digest(), s.knowns_digest());
        assert!(s.retract_constraint(&premises[1]));
        assert_ne!(
            version_salt(s.premise_digest(), 0),
            answer_salt,
            "retraction must change the answer-cache key salt"
        );
        assert_ne!(
            version_salt(s.premise_digest(), s.knowns_digest()),
            bound_salt,
            "retraction must change the bound-cache key salt"
        );
        // Re-asserting restores the salt exactly (instant revalidation).
        s.assert_constraint(&premises[1]);
        assert_eq!(version_salt(s.premise_digest(), 0), answer_salt);
        // Knowns version the bound salt but not the answer salt.
        let a = s.universe().parse_set("A").unwrap();
        s.set_known(a, 1.0);
        assert_eq!(version_salt(s.premise_digest(), 0), answer_salt);
        assert_ne!(
            version_salt(s.premise_digest(), s.knowns_digest()),
            bound_salt
        );
    }

    #[test]
    fn known_replacement_and_digest_restoration() {
        let u = Universe::of_size(3);
        let mut s = Session::new(u.clone());
        let a = u.parse_set("A").unwrap();
        let digest0 = s.knowns_digest();
        assert!(s.set_known(a, 5.0));
        let digest5 = s.knowns_digest();
        assert!(!s.set_known(a, 7.0), "replacement is not an addition");
        assert_eq!(s.knowns().len(), 1);
        assert_ne!(s.knowns_digest(), digest5);
        assert!(!s.set_known(a, 5.0));
        assert_eq!(s.knowns_digest(), digest5, "digest must restore exactly");
        assert!(s.forget_known(a));
        assert_eq!(s.knowns_digest(), digest0);
        assert!(!s.forget_known(a), "double forget reports absence");
    }

    #[test]
    fn infeasible_knowns_surface_and_are_not_cached() {
        let u = Universe::of_size(3);
        let mut s = Session::new(u.clone());
        s.set_known(u.parse_set("A").unwrap(), 3.0);
        s.set_known(u.parse_set("AB").unwrap(), 9.0);
        let q = u.parse_set("ABC").unwrap();
        assert_eq!(s.bound(q), Err(DeriveError::Infeasible));
        // Repairing the state makes the same query answerable.
        s.set_known(u.parse_set("AB").unwrap(), 2.0);
        let b = s.bound(q).unwrap();
        assert!(!b.cached);
        assert_eq!(b.interval.lo, 0.0);
        assert_eq!(b.interval.hi, 2.0);
    }

    #[test]
    fn oversized_universes_fall_back_to_the_relaxed_route() {
        let u = Universe::of_size(26);
        let mut s = Session::new(u.clone());
        s.set_known(AttrSet::EMPTY, 100.0);
        s.set_known(u.parse_set("ABCD").unwrap(), 30.0);
        let b = s.bound(u.parse_set("AB").unwrap()).unwrap();
        assert_eq!(b.route, DeriveRoute::Relaxed);
        assert_eq!(b.interval.lo, 30.0);
        assert_eq!(b.interval.hi, 100.0);
        assert_eq!(s.stats().planner.bounds.relaxed, 1);
    }

    #[test]
    fn load_mine_adopt_tightens_bounds() {
        let u = Universe::of_size(4);
        let mut s = Session::new(u.clone());
        assert!(s.dataset().is_none());
        assert!(s.mine_dataset(&MinerConfig::default()).is_none());
        assert!(s.adopt_discovered(&MinerConfig::default()).is_none());
        // Every basket containing A contains B: the data satisfies A → {B}.
        let added = s.load_records("AB;ABC;B;C;BC".split(';')).unwrap();
        assert_eq!(added, 5);
        assert_eq!(s.stats().dataset_baskets, 5);
        let ab = u.parse_set("AB").unwrap();
        s.set_known(u.parse_set("A").unwrap(), 2.0);
        let before = s.bound(ab).unwrap().interval;
        let outcome = s.adopt_discovered(&MinerConfig::default()).unwrap();
        assert!(outcome.newly_asserted > 0);
        assert_eq!(s.premises().len(), outcome.newly_asserted);
        // Adopted premises hold on the data, so σ(AB) = σ(A) is now pinned.
        let after = s.bound(ab).unwrap().interval;
        assert!(
            after.lo >= before.lo && after.hi <= before.hi,
            "adoption widened the bound"
        );
        assert!(after.is_exact());
        assert_eq!(after.lo, 2.0);
        // Re-adopting asserts nothing new.
        let again = s.adopt_discovered(&MinerConfig::default()).unwrap();
        assert_eq!(again.newly_asserted, 0);
    }

    #[test]
    fn load_errors_locate_records_and_keep_the_session_usable() {
        let u = Universe::of_size(3);
        let mut s = Session::new(u);
        let err = s.load_records(["AB", "AZ"]).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.token, "Z");
        // A failed load leaves the session as it was: no dataset, no epoch.
        assert!(s.dataset().is_none());
        assert_eq!(s.stats().epoch, 0);
        assert_eq!(s.load_records(["C"]).unwrap(), 1);
        assert_eq!(s.stats().dataset_baskets, 1);
        // A failed load into an existing dataset keeps its baskets.
        assert!(s.load_records(["AB", "AZ"]).is_err());
        assert_eq!(s.stats().dataset_baskets, 1);
        assert_eq!(s.stats().epoch, 1);
    }

    #[test]
    fn stats_reflect_activity() {
        let (s, _) = example_session();
        let goals = parse(s.universe(), &["A -> {C}", "C -> {A}"]);
        for g in &goals {
            s.implies(g);
            s.implies(g);
        }
        let stats = s.stats();
        assert_eq!(stats.premises, 2);
        assert_eq!(stats.interned, 2);
        assert_eq!(stats.planner.total_queries(), 4);
        assert_eq!(stats.answer_cache.hits, 2);
        s.clear_caches();
        let g = &goals[0];
        assert!(!s.implies(g).cached);
    }
}
