//! Deterministic request generators for the three serving workloads.
//!
//! A workload is a prologue (universe, premises, knowns) plus, per phase, an
//! unbounded request stream.  Everything is a pure function of the seed and
//! the phase number, so the serial oracle can regenerate exactly the prefix
//! a phase sent and the traced run can feed the same requests in process.
//!
//! The session state a workload serves — premises, goal and set pools, the
//! basket database — is fixed by [`STRUCTURE_SEED`]; `--seed` varies the
//! traffic drawn against it (which goals, in which order, which writes).
//! Runs on different seeds thus measure one system state under different
//! request sequences, which keeps the figures steady across seeds.

use diffcon::random::{ConstraintGenerator, ConstraintShape};
use diffcon::DiffConstraint;
use diffcon_bench::workloads::{engine_query_stream, fis_workload};
use diffcon_engine::protocol::{binary, format_wire};
use fis::basket::BasketDb;
use fis::disjunctive::DisjunctiveConstraint;
use setlat::{AttrSet, Family, Universe};
use std::collections::HashSet;

/// The three workloads, by the names `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Text framing, `implies` only, a pool of 64 goals repeated: after the
    /// first pass every query is an answer-cache hit.
    WarmText,
    /// Text framing, `implies` only, every goal distinct within the
    /// connection: the deciders do the work, split between `lattice` and
    /// `sat`.
    ColdDecide,
    /// Binary framing, one write per eight reads: session mutation, cache
    /// invalidation and revalidation, `bound` derivation, mask decoding.
    ChurnBinary,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WarmText, Kind::ColdDecide, Kind::ChurnBinary];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmText => "warm_text",
            Kind::ColdDecide => "cold_decide",
            Kind::ChurnBinary => "churn_binary",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether the workload speaks the binary framing (`serve --binary`).
    pub fn binary(self) -> bool {
        self == Kind::ChurnBinary
    }

    /// The paced phase's fixed offered rate, in requests per second: about
    /// half the pipelined rate this program reaches on a 2-core container
    /// whose host is busy (a quarter to a third of the quiet-host rate), so
    /// the paced load stays clear of saturation when the host slows.  Fixed
    /// here, never derived at run time, so a faster or slower program meets
    /// the same schedule.
    pub fn paced_rate(self) -> f64 {
        match self {
            Kind::WarmText => 150_000.0,
            Kind::ColdDecide => 8_000.0,
            Kind::ChurnBinary => 40_000.0,
        }
    }
}

/// One protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    Universe(usize),
    Implies(DiffConstraint),
    Bound(AttrSet),
    Assert(DiffConstraint),
    Retract(DiffConstraint),
    Known(AttrSet, u64),
    Forget(AttrSet),
}

impl Req {
    /// The request in the text grammar, without the newline.
    pub fn line(&self, universe: &Universe) -> String {
        match self {
            Req::Universe(n) => format!("universe {n}"),
            Req::Implies(goal) => format!("implies {}", format_wire(goal, universe)),
            Req::Bound(set) => format!("bound {}", universe.format_set(*set)),
            Req::Assert(premise) => format!("assert {}", format_wire(premise, universe)),
            Req::Retract(premise) => format!("retract {}", format_wire(premise, universe)),
            Req::Known(set, value) => format!("known {} = {value}", universe.format_set(*set)),
            Req::Forget(set) => format!("forget {}", universe.format_set(*set)),
        }
    }

    /// Appends the request as one binary frame: `implies`, `bound` and
    /// `assert` as fixed-width mask frames, everything else as a line frame.
    pub fn encode_binary(&self, universe: &Universe, out: &mut Vec<u8>) {
        let masks = |c: &DiffConstraint| -> Vec<u64> { c.rhs.iter().map(AttrSet::bits).collect() };
        match self {
            Req::Implies(goal) => binary::encode_implies(goal.lhs.bits(), &masks(goal), out),
            Req::Assert(premise) => binary::encode_assert(premise.lhs.bits(), &masks(premise), out),
            Req::Bound(set) => binary::encode_bound(set.bits(), out),
            other => binary::encode_line(&other.line(universe), out),
        }
    }

    /// Appends the request in the workload's framing.
    pub fn encode(&self, universe: &Universe, binary: bool, out: &mut Vec<u8>) {
        if binary {
            self.encode_binary(universe, out);
        } else {
            out.extend_from_slice(self.line(universe).as_bytes());
            out.push(b'\n');
        }
    }

    /// Whether the request changes session state.
    pub fn is_write(&self) -> bool {
        !matches!(self, Req::Implies(_) | Req::Bound(_))
    }
}

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// A set of exactly `size` attributes drawn from `pool` (all of `pool`
    /// when it is smaller).
    pub fn subset_of(&mut self, pool: AttrSet, size: usize) -> AttrSet {
        let members: Vec<usize> = pool.iter().collect();
        let mut set = AttrSet::EMPTY;
        while set.len() < size.min(members.len()) {
            set.insert(members[self.below(members.len())]);
        }
        set
    }
}

/// Seed of the fixed session state: `bench_net`'s.
pub const STRUCTURE_SEED: u64 = 42;

/// `warm_text`: the `bench_net` serving shape.
const WARM_ATTRS: usize = 12;
const WARM_PREMISES: usize = 8;
const WARM_POOL: usize = 64;

/// `cold_decide`: a universe wide enough that the lattice bound
/// `2^{|S|-|X|}·work` crosses the default lattice budget (2^22) at small
/// antecedents, which the planner routes to `sat`.
const COLD_ATTRS: usize = 22;
const COLD_PREMISES: usize = 10;
/// Share of goals (in 1/100) drawn with a small antecedent (`sat` route).
const COLD_SAT_PERCENT: usize = 40;
/// Antecedent sizes of the two goal classes.
const COLD_SAT_LHS: (usize, usize) = (1, 3);
const COLD_LATTICE_LHS: (usize, usize) = (9, 12);

/// `churn_binary`: a basket database over 8 items with planted premises.
/// Writes toggle a few hot premises and knowns, so session states recur and
/// cached answers are invalidated and revalidated by digest.
const CHURN_ATTRS: usize = 8;
const CHURN_BASKETS: usize = 256;
/// Premises and knowns asserted for good in the prologue.
const CHURN_STABLE_PREMISES: usize = 6;
const CHURN_STABLE_KNOWNS: usize = 8;
/// Premises and knowns the writes toggle; the first half of each starts
/// live.  1024 hot states times the bound pool outgrow the default bound
/// cache (4096 entries), so after warm-up `bound` keeps a steady share of
/// misses that run the propagation path.
const CHURN_HOT_PREMISES: usize = 4;
const CHURN_HOT_KNOWNS: usize = 6;
/// Stream requests each connection sends untimed before measuring, enough
/// to fill the caches to their steady state.
const CHURN_WARMUP: usize = 24_000;
const CHURN_GOAL_POOL: usize = 24;
const CHURN_BOUND_POOL: usize = 16;
/// Every `CHURN_PERIOD`-th request is a write: one write per eight reads.
const CHURN_PERIOD: usize = 9;

/// A generated workload: universe, prologue and the pools its phase streams
/// draw from.
#[derive(Clone, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub universe: Universe,
    /// `universe`, the premises and (for `churn_binary`) the knowns; its
    /// acknowledgement ends set-up.
    pub prologue: Vec<Req>,
    /// `warm_text`: the goal pool the stream draws from, with `bench_net`'s
    /// repetitions.
    warm_goals: Vec<DiffConstraint>,
    /// `warm_text`: the distinct goals, sent once before timing.
    warm_pool: Vec<DiffConstraint>,
    /// `cold_decide`: the premises, which implied goals augment.
    premises: Vec<DiffConstraint>,
    churn: Option<ChurnPools>,
}

#[derive(Clone, Debug)]
struct ChurnPools {
    /// Premises the database satisfies: the stable ones, then the hot ones.
    premises: Vec<DiffConstraint>,
    /// Sets with their true supports: the stable ones, then the hot ones.
    knowns: Vec<(AttrSet, u64)>,
    goals: Vec<DiffConstraint>,
    bounds: Vec<AttrSet>,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::WarmText => Workload::warm_text(seed),
            Kind::ColdDecide => Workload::cold_decide(seed),
            Kind::ChurnBinary => Workload::churn_binary(seed),
        }
    }

    fn empty(kind: Kind, seed: u64, n: usize) -> Workload {
        Workload {
            kind,
            seed,
            universe: Universe::of_size(n),
            prologue: vec![Req::Universe(n)],
            warm_goals: Vec::new(),
            warm_pool: Vec::new(),
            premises: Vec::new(),
            churn: None,
        }
    }

    fn warm_text(seed: u64) -> Workload {
        let mut w = Workload::empty(Kind::WarmText, seed, WARM_ATTRS);
        let (base, _) =
            engine_query_stream(STRUCTURE_SEED, WARM_ATTRS, WARM_PREMISES, WARM_POOL, 0);
        w.prologue
            .extend(base.premises.iter().cloned().map(Req::Assert));
        let mut seen = HashSet::new();
        w.warm_pool = base
            .goals
            .iter()
            .filter(|goal| seen.insert(*goal))
            .cloned()
            .collect();
        w.warm_goals = base.goals;
        w
    }

    fn cold_decide(seed: u64) -> Workload {
        let mut w = Workload::empty(Kind::ColdDecide, seed, COLD_ATTRS);
        let shape = ConstraintShape {
            max_lhs: 2,
            max_members: 3,
            max_member_size: 3,
            allow_trivial: false,
        };
        let mut gen = ConstraintGenerator::new(STRUCTURE_SEED, &w.universe);
        // Keep the premise set out of the FD fragment, so no goal takes the
        // polynomial fast path.
        loop {
            w.premises = gen.constraint_set(COLD_PREMISES, &shape);
            if w.premises.iter().any(|p| p.rhs.len() >= 2) {
                break;
            }
        }
        w.prologue
            .extend(w.premises.iter().cloned().map(Req::Assert));
        w
    }

    fn churn_binary(seed: u64) -> Workload {
        let mut w = Workload::empty(Kind::ChurnBinary, seed, CHURN_ATTRS);
        let shape = ConstraintShape {
            max_lhs: 2,
            max_members: 2,
            max_member_size: 2,
            allow_trivial: false,
        };
        let mut gen = ConstraintGenerator::new(STRUCTURE_SEED, &w.universe);
        // Nonempty right-hand sides only: `X -> {}` would forbid X outright.
        let mut premises = Vec::new();
        let mut seen = HashSet::new();
        while premises.len() < CHURN_STABLE_PREMISES + CHURN_HOT_PREMISES {
            let c = gen.constraint(&shape);
            if !c.rhs.is_empty() && seen.insert(c.clone()) {
                premises.push(c);
            }
        }
        let planted: Vec<DisjunctiveConstraint> = premises
            .iter()
            .map(|c| DisjunctiveConstraint::new(c.lhs, c.rhs.clone()))
            .collect();
        let db = fis::generator::with_planted_rules(
            &fis_workload(STRUCTURE_SEED, CHURN_ATTRS, CHURN_BASKETS),
            &planted,
        );
        assert!(
            supports_satisfy(&db, &premises),
            "planted premises must hold on the basket database"
        );
        let mut rng = Rng::new(STRUCTURE_SEED ^ 0xC4A2_11B0);
        let full = w.universe.full_set();
        let mut known_sets = HashSet::new();
        let mut knowns = Vec::new();
        while knowns.len() < CHURN_STABLE_KNOWNS + CHURN_HOT_KNOWNS {
            let size = rng.between(1, 3);
            let set = rng.subset_of(full, size);
            if known_sets.insert(set) {
                knowns.push((set, db.support(set) as u64));
            }
        }
        let goals: Vec<DiffConstraint> = (0..CHURN_GOAL_POOL)
            .map(|i| {
                if i % 2 == 0 {
                    gen.implied_goal(&premises)
                } else {
                    gen.constraint(&shape)
                }
            })
            .collect();
        let bounds: Vec<AttrSet> = (0..CHURN_BOUND_POOL)
            .map(|_| {
                let size = rng.between(1, 4);
                rng.subset_of(full, size)
            })
            .collect();
        w.prologue.extend(
            premises[..CHURN_STABLE_PREMISES + CHURN_HOT_PREMISES / 2]
                .iter()
                .cloned()
                .map(Req::Assert),
        );
        w.prologue.extend(
            knowns[..CHURN_STABLE_KNOWNS + CHURN_HOT_KNOWNS / 2]
                .iter()
                .map(|&(set, value)| Req::Known(set, value)),
        );
        w.churn = Some(ChurnPools {
            premises,
            knowns,
            goals,
            bounds,
        });
        w
    }

    /// Requests a connection sends after the prologue and before timing,
    /// so every timed request meets the caches in their steady state:
    /// `warm_text` sends its distinct goals once, `churn_binary` the first
    /// requests of the phase's own stream, `cold_decide` nothing.
    pub fn warmup(&self, stream: &mut Stream) -> Vec<Req> {
        match self.kind {
            Kind::WarmText => self.warm_pool.iter().cloned().map(Req::Implies).collect(),
            Kind::ColdDecide => Vec::new(),
            Kind::ChurnBinary => stream.take(CHURN_WARMUP).collect(),
        }
    }

    /// Everything a phase's connection sends before timing: the prologue
    /// and the warm-up (which advances `stream` past its warm-up prefix).
    pub fn head(&self, stream: &mut Stream) -> Vec<Req> {
        let mut head = self.prologue.clone();
        head.extend(self.warmup(stream));
        head
    }

    /// The request stream of one phase (its own connection, so its own
    /// session): unbounded and a pure function of `(seed, phase)`.
    pub fn stream(&self, phase: u64) -> Stream<'_> {
        let rng = Rng::new(self.seed.wrapping_mul(0x100_0000_01B3) ^ phase.wrapping_add(1));
        let state = match self.kind {
            Kind::WarmText => StreamState::Warm,
            Kind::ColdDecide => StreamState::Cold {
                seen: HashSet::new(),
            },
            Kind::ChurnBinary => StreamState::Churn {
                live: (0..CHURN_HOT_PREMISES)
                    .map(|i| i < CHURN_HOT_PREMISES / 2)
                    .chain((0..CHURN_HOT_KNOWNS).map(|i| i < CHURN_HOT_KNOWNS / 2))
                    .collect(),
                index: 0,
            },
        };
        Stream {
            workload: self,
            rng,
            state,
        }
    }
}

/// Every premise holds on the database's support function, so the true
/// supports are a feasible point for every `bound`.
fn supports_satisfy(db: &BasketDb, premises: &[DiffConstraint]) -> bool {
    premises
        .iter()
        .all(|p| diffcon::fis_bridge::support_function_satisfies(db, p))
}

/// One phase's request stream.
pub struct Stream<'w> {
    workload: &'w Workload,
    rng: Rng,
    state: StreamState,
}

enum StreamState {
    Warm,
    Cold {
        seen: HashSet<DiffConstraint>,
    },
    Churn {
        /// Liveness of the hot premises, then of the hot knowns.
        live: Vec<bool>,
        index: usize,
    },
}

impl Iterator for Stream<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let w = self.workload;
        let rng = &mut self.rng;
        Some(match &mut self.state {
            StreamState::Warm => Req::Implies(w.warm_goals[rng.below(w.warm_goals.len())].clone()),
            StreamState::Cold { seen } => loop {
                let goal = cold_goal(rng, &w.universe, &w.premises);
                if seen.insert(goal.clone()) {
                    break Req::Implies(goal);
                }
            },
            StreamState::Churn { live, index } => {
                let pools = w.churn.as_ref().expect("churn pools");
                *index += 1;
                if *index % CHURN_PERIOD == 0 {
                    churn_write(rng, pools, live)
                } else if rng.below(2) == 0 {
                    Req::Implies(pools.goals[rng.below(pools.goals.len())].clone())
                } else {
                    Req::Bound(pools.bounds[rng.below(pools.bounds.len())])
                }
            }
        })
    }
}

/// One `cold_decide` goal.  A small antecedent puts the lattice bound past
/// the budget (`sat`); a large one keeps it inside (`lattice`).  Half of each
/// class is implied by construction (a premise, augmented), half is random.
fn cold_goal(rng: &mut Rng, universe: &Universe, premises: &[DiffConstraint]) -> DiffConstraint {
    let full = universe.full_set();
    let (lo, hi) = if rng.below(100) < COLD_SAT_PERCENT {
        COLD_SAT_LHS
    } else {
        COLD_LATTICE_LHS
    };
    let size = rng.between(lo, hi);
    if rng.below(2) == 0 {
        let base = &premises[rng.below(premises.len())];
        let mut lhs = base.lhs;
        while lhs.len() < size.max(base.lhs.len()) {
            lhs.insert(rng.below(universe.len()));
        }
        let extra_size = rng.between(1, 3);
        let extra = rng.subset_of(full.difference(lhs), extra_size);
        let goal = DiffConstraint::new(lhs, base.rhs.with_member(extra));
        if !goal.is_trivial() {
            return goal;
        }
    }
    let lhs = rng.subset_of(full, size);
    let outside = full.difference(lhs);
    let count = rng.between(1, 3);
    let members: Vec<AttrSet> = (0..count)
        .map(|_| {
            let size = rng.between(1, 3);
            rng.subset_of(outside, size)
        })
        .collect();
    DiffConstraint::new(lhs, Family::from_sets(members))
}

/// One `churn_binary` write: toggle one hot premise (assert or retract) or
/// one hot known (learn its true support or forget it).
fn churn_write(rng: &mut Rng, pools: &ChurnPools, live: &mut [bool]) -> Req {
    let i = rng.below(live.len());
    live[i] = !live[i];
    let on = live[i];
    if i < CHURN_HOT_PREMISES {
        let premise = pools.premises[CHURN_STABLE_PREMISES + i].clone();
        if on {
            Req::Assert(premise)
        } else {
            Req::Retract(premise)
        }
    } else {
        let (set, value) = pools.knowns[CHURN_STABLE_KNOWNS + i - CHURN_HOT_PREMISES];
        if on {
            Req::Known(set, value)
        } else {
            Req::Forget(set)
        }
    }
}
