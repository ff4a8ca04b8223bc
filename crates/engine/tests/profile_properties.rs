//! Continuous-profiling invariants, tested end to end:
//!
//! * collapsed-stack dumps always agree with the sampler's own accounting:
//!   every line is well-formed (`class;tag;…;tag count`), the counts sum to
//!   exactly the number of samples taken, and every rendered stack is one
//!   the beacons really held — for *any* interleaving of stage pushes;
//! * the `/profile`, `/healthz`, and `/buildinfo` HTTP routes answer with
//!   the documented shapes, and unknown paths or parameters fail loudly;
//! * the `debug profile start|stop|dump` verbs drive the process-wide
//!   sampler through the ordinary request path;
//! * the warm cached query path performs zero heap allocations, and so does
//!   a whole warm request through the connection driver, wire bytes in
//!   (text line or mask frame), framed reply out, and record committed,
//!   while a cold lattice or sat decision of a goal with at most four
//!   members allocates nothing, the answer cache keeping the goal inline in
//!   its key, even at a full default-capacity cache where every insert
//!   evicts, a cold batch allocates only its result vector, all on the
//!   calling thread, a session's `bound` misses after its first allocate
//!   nothing and a write copies none of its bound state, an assert of an
//!   inline premise allocates nothing beyond growing the premise vector and
//!   the interner's map, at 1,000 premises as at 16,000, a retract nothing,
//!   and a full LRU cache's evict-and-insert churn allocates nothing
//!   (the counting allocator is the engine's global allocator, so this is
//!   measured, not asserted by inspection);
//! * the slow-query stderr log is rate limited and drops are visible in
//!   `stats`, and a cold `stats recent` answers the explicit warming form.

use diffcon_engine::connection::Connection;
use diffcon_engine::protocol::binary;
use diffcon_engine::{
    metrics, LruCache, Probe, QueryOutcome, Server, Session, SessionConfig, VersionedKey,
};
use diffcon_obs::profile;
use proptest::prelude::*;
use setlat::{AttrSet, Family, Universe};
use std::sync::Mutex;
use std::time::Duration;

/// Serializes tests that toggle process-global profiler state (the enabled
/// flag and the background sampler); the beacons and tag table are
/// append-only and safe to share.
static PROFILER: Mutex<()> = Mutex::new(());

fn lock_profiler() -> std::sync::MutexGuard<'static, ()> {
    PROFILER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One collapsed-stack line: `frame(;frame)* count`, frames non-empty and
/// free of the `;`/space separators.
fn assert_collapsed_line(line: &str) {
    let (stack, count) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("collapsed line has no count: {line:?}");
    });
    assert!(
        count.parse::<u64>().is_ok(),
        "collapsed count is not a number: {line:?}"
    );
    let frames: Vec<&str> = stack.split(';').collect();
    assert!(frames.len() >= 2, "stack has no tag frames: {line:?}");
    for frame in frames {
        assert!(
            !frame.is_empty() && !frame.contains(' '),
            "malformed frame in {line:?}"
        );
    }
}

static TAG_A: profile::StageTag = profile::StageTag::new("proptest.alpha");
static TAG_B: profile::StageTag = profile::StageTag::new("proptest.beta");
static TAG_C: profile::StageTag = profile::StageTag::new("proptest.gamma");

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any sequence of nested stage pushes, a [`profile::SampleSet`]'s
    /// collapsed rendering matches its own accounting exactly: counts sum
    /// to the samples taken, each line is well-formed, and each rendered
    /// stack is a prefix chain of the tags actually pushed.
    #[test]
    fn collapsed_stacks_agree_with_sampler_accounting(
        depths in proptest::collection::vec(0usize..4, 1..6),
        samples_per_depth in 1u32..4,
    ) {
        let _guard = lock_profiler();
        profile::set_enabled(true);
        let tags: [&'static profile::StageTag; 3] = [&TAG_A, &TAG_B, &TAG_C];
        let mut set = profile::SampleSet::new();
        let mut expected = 0u64;
        for &depth in &depths {
            // Hold `depth` nested stages open while sampling.
            let guards: Vec<profile::StageGuard> =
                tags.iter().take(depth).map(|t| profile::stage(t)).collect();
            for _ in 0..samples_per_depth {
                expected += set.sample_once();
            }
            drop(guards);
        }
        profile::set_enabled(false);
        prop_assert_eq!(set.samples(), expected);
        let collapsed = set.collapsed();
        let mut sum = 0u64;
        for line in collapsed.lines() {
            assert_collapsed_line(line);
            let (stack, count) = line.rsplit_once(' ').unwrap();
            sum += count.parse::<u64>().unwrap();
            // Any stack sampled off this thread is a prefix chain of the
            // tags we pushed (other threads' beacons contribute idle or
            // engine-tagged frames; both parse above).
            if stack.contains("proptest.") {
                let frames: Vec<&str> = stack.split(';').collect();
                let names = ["proptest.alpha", "proptest.beta", "proptest.gamma"];
                for (frame, expected_name) in frames[1..].iter().zip(names) {
                    prop_assert_eq!(*frame, expected_name, "stack {}", stack);
                }
            }
        }
        prop_assert_eq!(sum, expected, "collapsed counts disagree with samples()");
    }
}

#[test]
fn healthz_buildinfo_and_unknown_routes() {
    let health = metrics::http_routes("/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");
    let build = metrics::http_routes("/buildinfo");
    assert_eq!(build.status, 200);
    assert!(
        build.body.starts_with("name=diffcond version="),
        "got: {}",
        build.body
    );
    assert!(build.body.contains(" flavor="), "got: {}", build.body);
    assert_eq!(metrics::http_routes("/metrics").status, 200);
    assert_eq!(metrics::http_routes("/nope").status, 404);
    assert_eq!(metrics::http_routes("/profile?bogus=1").status, 400);
    assert_eq!(metrics::http_routes("/profile?seconds=x").status, 400);
}

#[test]
fn profile_endpoint_emits_wellformed_collapsed_stacks() {
    let _guard = lock_profiler();
    // Drive real queries while the window is open so worker beacons are
    // live and the dump contains engine stage frames, not just idle.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let driver = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut server = Server::new(SessionConfig::default());
            server.handle_line("universe 6");
            server.handle_line("assert A->{B}");
            server.handle_line("assert B->{C,DE}");
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                server.handle_line("implies A->{C,DE}");
                server.handle_line("implies AB->{C}");
                server.handle_line("stats");
            }
        })
    };
    let response = metrics::http_routes("/profile?seconds=1&hz=311");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    driver.join().expect("driver thread");
    assert_eq!(response.status, 200);
    assert!(
        !response.body.trim().is_empty(),
        "profile window sampled nothing"
    );
    for line in response.body.lines() {
        assert_collapsed_line(line);
    }
    // ~311 hz over 1 s: the counts must be in the right order of magnitude.
    let total: u64 = response
        .body
        .lines()
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert!(total >= 30, "implausibly few samples: {total}");
}

#[test]
fn debug_profile_verbs_drive_the_sampler() {
    let _guard = lock_profiler();
    let mut server = Server::new(SessionConfig::default());
    let start = server.handle_line("debug profile start").text;
    assert!(
        start.starts_with("ok profile running=1 hz="),
        "got: {start}"
    );
    assert!(profile::sampler_hz().is_some(), "sampler not running");
    // Idempotent: a second start reports the same running sampler.
    let again = server.handle_line("debug profile start").text;
    assert!(
        again.starts_with("ok profile running=1 hz="),
        "got: {again}"
    );
    std::thread::sleep(Duration::from_millis(60));
    let dump = server.handle_line("debug profile dump").text;
    assert!(dump.starts_with("profile samples="), "got: {dump}");
    let stop = server.handle_line("debug profile stop").text;
    assert!(
        stop.starts_with("ok profile running=0 samples="),
        "got: {stop}"
    );
    assert!(profile::sampler_hz().is_none(), "sampler still running");
    // Dump still renders the retained accumulation after stop.
    let post = server.handle_line("debug profile dump").text;
    assert!(post.starts_with("profile samples="), "got: {post}");
    for group in post.split(" | ").skip(1) {
        assert_collapsed_line(group);
    }
    let err = server.handle_line("debug profile frobnicate").text;
    assert!(err.starts_with("err "), "got: {err}");
}

#[test]
fn warm_cached_query_path_allocates_nothing() {
    // Pre-pay this thread's one-time profiling registration so the
    // measurement below sees only the query path's own behavior.
    profile::set_thread_class("test");
    let mut server = Server::new(SessionConfig::default());
    server.handle_line("universe 6");
    server.handle_line("assert A->{B}");
    server.handle_line("assert B->{C,DE}");
    let session = server.session().expect("session exists");
    let universe = session.universe().clone();
    let goal = diffcon::DiffConstraint::parse("A->{C,DE}", &universe).unwrap();
    let snapshot = session.snapshot();
    // Warm: the first call populates the answer cache.
    let cold = snapshot.implies(&goal);
    assert!(!cold.cached, "first query must miss");
    assert!(snapshot.implies(&goal).cached, "second query must hit");
    let (allocs_before, bytes_before) = profile::thread_alloc_counts();
    for _ in 0..1000 {
        let outcome = snapshot.implies(&goal);
        assert!(outcome.implied && outcome.cached);
    }
    let (allocs_after, bytes_after) = profile::thread_alloc_counts();
    assert_eq!(
        (allocs_after - allocs_before, bytes_after - bytes_before),
        (0, 0),
        "warm cached implies allocated"
    );
}

/// A server whose session has `universe` attributes and holds `premises`,
/// and the cold goals `xy → {z}` over the first twelve attributes (none of
/// them trivial, all distinct).
fn cold_workload(universe: usize, premises: &[&str]) -> (Server, Vec<diffcon::DiffConstraint>) {
    let mut server = Server::new(SessionConfig::default());
    server.handle_line(&format!("universe {universe}"));
    for premise in premises {
        server.handle_line(&format!("assert {premise}"));
    }
    let mut goals = Vec::new();
    for x in 0..12 {
        for y in x + 1..12 {
            for z in (0..12).filter(|&z| z != x && z != y) {
                goals.push(diffcon::DiffConstraint::new(
                    AttrSet::from_indices([x, y]),
                    Family::single(AttrSet::singleton(z)),
                ));
            }
        }
    }
    (server, goals)
}

/// Decides every goal of [`cold_workload`] cold, on a session of `universe`
/// attributes holding `premises`, and checks that each takes `route` and
/// allocates nothing: the answer cache's copy of the goal is inline in its
/// key.
fn assert_cold_decisions_allocate_nothing(universe: usize, premises: &[&str], route: &str) {
    // No other test may toggle the profiler mid-measurement (the route's
    // stage guard registers its thread's beacon on first use).
    let _guard = lock_profiler();
    profile::set_thread_class("test");
    let (server, goals) = cold_workload(universe, premises);
    let session = server.session().expect("session exists");
    let universe = session.universe().clone();
    let snapshot = session.snapshot();
    // The first decision pays this thread's one-time costs.
    let (first, rest) = goals.split_first().expect("goals exist");
    snapshot.implies(first);
    for goal in rest {
        let before = profile::thread_alloc_counts();
        let outcome = snapshot.implies(goal);
        let after = profile::thread_alloc_counts();
        assert_eq!(
            (outcome.route_name(), outcome.cached),
            (route, false),
            "not a cold {route} decision: {}",
            goal.format(&universe)
        );
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (0, 0),
            "a cold {route} decision of {} allocated",
            goal.format(&universe)
        );
    }
}

#[test]
fn cold_lattice_decision_allocates_only_the_cached_goal() {
    // Wide right-hand sides keep the premises outside the FD fragment.
    assert_cold_decisions_allocate_nothing(12, &["A->{B,C}", "D->{E,FG}"], "lattice");
}

/// A 64-bit linear congruential generator, the one CI's generated probes
/// spell in Python.
struct Lcg(u64);

impl Lcg {
    /// A draw in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }

    /// A set of `k` distinct attributes drawn from `pool`.
    fn subset(&mut self, pool: &[usize], k: usize) -> AttrSet {
        let mut set = AttrSet::EMPTY;
        while set.len() < k {
            set.insert(pool[self.below(pool.len())]);
        }
        set
    }
}

/// The answer cache keeps each goal inline in its key, so once a
/// default-capacity cache is full and every insert evicts, a cold decision
/// of a goal with at most four members still allocates nothing: 65,536
/// distinct cold goals fill the cache, and 10,000 more are decided with no
/// allocation at all.
#[test]
fn cold_decisions_at_a_full_answer_cache_allocate_nothing() {
    let _guard = lock_profiler();
    profile::set_thread_class("test");
    let capacity = SessionConfig::default().answer_cache_capacity;
    let universe = Universe::of_size(12);
    let mut session = Session::new(universe.clone());
    for premise in ["A->{B,C}", "D->{E,FG}"] {
        session.assert_constraint(&diffcon::DiffConstraint::parse(premise, &universe).unwrap());
    }
    // Distinct goals X → 𝒴 with X of six attributes and one to four
    // members of one or two attributes outside X.
    let mut rng = Lcg(12);
    let all: Vec<usize> = (0..12).collect();
    let mut seen = std::collections::HashSet::new();
    let mut goals = Vec::new();
    while goals.len() < capacity + 10_000 {
        let lhs = rng.subset(&all, 6);
        let outside: Vec<usize> = (0..12).filter(|&a| !lhs.contains(a)).collect();
        let members: Vec<AttrSet> = (0..1 + rng.below(4))
            .map(|_| {
                let size = 1 + rng.below(2);
                rng.subset(&outside, size)
            })
            .collect();
        let goal = diffcon::DiffConstraint::new(lhs, Family::from_sets(members));
        if seen.insert(goal.clone()) {
            goals.push(goal);
        }
    }
    let (fill, rest) = goals.split_at(capacity);
    for goal in fill {
        assert!(!session.implies(goal).cached);
    }
    assert_eq!(session.stats().answer_cache.evictions, 0);
    let before = profile::thread_alloc_counts();
    let cached = rest
        .iter()
        .filter(|goal| session.implies(goal).cached)
        .count();
    let after = profile::thread_alloc_counts();
    assert_eq!(cached, 0, "a distinct goal hit the cache");
    assert_eq!(session.stats().answer_cache.evictions, rest.len() as u64);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "cold decisions at a full answer cache allocated"
    );
}

/// A write edits the session's state in place, so its cost does not grow
/// with the premise count: at 1,000 premises and at 16,000, 64 new asserts
/// of two-member premises, which the premise vector and the interner's key
/// both hold inline, allocate only to grow that vector and that map, at
/// most once each, and retracting them allocates nothing.
#[test]
fn writes_allocate_the_same_at_any_premise_count() {
    let _guard = lock_profiler();
    profile::set_thread_class("test");
    let universe = Universe::of_size(64);
    let members = Family::from_sets([AttrSet::singleton(60), AttrSet::from_indices([61, 62])]);
    // Distinct left sides below attribute 60: no premise is trivial or a
    // duplicate.
    let premise =
        |bits: u64| diffcon::DiffConstraint::new(AttrSet::from_bits(bits), members.clone());
    for count in [1_000, 16_000] {
        let mut session = Session::new(universe.clone());
        for bits in 1..=count {
            session.assert_constraint(&premise(bits));
        }
        let fresh: Vec<_> = (count + 1..=count + 64).map(premise).collect();
        let before = profile::thread_alloc_counts();
        for constraint in &fresh {
            assert!(session.assert_constraint(constraint).1);
        }
        let asserted = profile::thread_alloc_counts();
        for constraint in &fresh {
            assert!(session.retract_constraint(constraint));
        }
        let retracted = profile::thread_alloc_counts();
        assert!(
            asserted.0 - before.0 <= 2,
            "64 asserts at {count} premises made {} allocations",
            asserted.0 - before.0
        );
        assert_eq!(
            retracted.0 - asserted.0,
            0,
            "64 retracts at {count} premises allocated"
        );
        assert_eq!(session.premises().len(), count as usize);
    }
}

#[test]
fn cold_sat_decision_allocates_only_the_cached_goal() {
    // At 40 attributes a two-attribute left side leaves 2^38 supersets, past
    // the lattice budget, so every goal routes to the refutation search;
    // the chain B → {C} → {H} makes some of them implied.
    assert_cold_decisions_allocate_nothing(
        40,
        &["A->{B,C}", "D->{E,FG}", "B->{C}", "C->{H}"],
        "sat",
    );
}

/// A batch is decided in order on the calling thread, goal by goal through
/// the serial path: 64 distinct cold goals and a repeat of the first cost
/// only the result vector, and the repeat is an answer-cache hit.
#[test]
fn cold_batch_allocates_only_its_result_vector() {
    let _guard = lock_profiler();
    profile::set_thread_class("test");
    let (server, goals) = cold_workload(12, &["A->{B,C}", "D->{E,FG}"]);
    let session = server.session().expect("session exists");
    let snapshot = session.snapshot();
    // The first decision pays this thread's one-time costs.
    session.clear_caches();
    snapshot.implies(&goals[0]);
    let mut batch = goals[1..=64].to_vec();
    batch.push(batch[0].clone());
    let before = profile::thread_alloc_counts();
    let outcomes = snapshot.implies_batch(&batch);
    let after = profile::thread_alloc_counts();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (
            1,
            (batch.len() * std::mem::size_of::<QueryOutcome>()) as u64
        ),
        "a cold batch of 64 distinct goals and a repeat allocated more than \
         its result vector"
    );
    assert!(
        outcomes[64].cached,
        "the repeat must be an answer-cache hit"
    );
    session.clear_caches();
    for (goal, outcome) in batch.iter().zip(&outcomes) {
        let serial = snapshot.implies(goal);
        assert_eq!(
            (outcome.implied, outcome.route_name()),
            (serial.implied, serial.route_name()),
            "batch and serial disagree on {}",
            goal.format(session.universe())
        );
    }
}

/// A session of `n` attributes with premises `A -> {B}` and `C -> {D, E}`
/// and the knowns ∅=100, A=50, B=60, C=30, AB=50.
fn bound_session(n: usize) -> Session {
    let universe = Universe::of_size(n);
    let mut session = Session::new(universe.clone());
    for premise in ["A -> {B}", "C -> {D, E}"] {
        session.assert_constraint(&diffcon::DiffConstraint::parse(premise, &universe).unwrap());
    }
    for (set, value) in [
        ("", 100.0),
        ("A", 50.0),
        ("B", 60.0),
        ("C", 30.0),
        ("AB", 50.0),
    ] {
        session.set_known(universe.parse_set(set).unwrap(), value);
    }
    session
}

/// A session builds its bound state on its first `bound` miss; every later
/// miss only evaluates it, so it allocates nothing.  A write allocates the
/// same bytes whether or not a state was built: it drops the state and
/// never copies it.
#[test]
fn bound_misses_share_one_state_and_publishing_copies_none() {
    let _guard = lock_profiler();
    profile::set_thread_class("test");
    let session = bound_session(8);
    let universe = session.universe().clone();
    let set = |text: &str| universe.parse_set(text).unwrap();
    let snapshot = session.snapshot();
    let first = snapshot.bound(set("D")).expect("feasible");
    assert_eq!((first.route_name(), first.cached), ("propagation", false));
    let before = profile::thread_alloc_counts();
    for text in ["AC", "BC", "ABC", "DE", "AD", "BD", "CD", "F", "AF", "GH"] {
        let outcome = snapshot.bound(set(text)).expect("feasible");
        assert_eq!(
            (outcome.route_name(), outcome.cached),
            ("propagation", false),
            "bound {text} was not a miss"
        );
    }
    let after = profile::thread_alloc_counts();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "ten bound misses after the first allocated"
    );

    let write_cost = |n: usize, build_state: bool| {
        let mut session = bound_session(n);
        let d = session.universe().parse_set("D").unwrap();
        if build_state {
            let outcome = session.bound(d).expect("feasible");
            assert_eq!(outcome.route_name(), "propagation");
        }
        let before = profile::thread_alloc_counts();
        session.set_known(d, 20.0);
        let after = profile::thread_alloc_counts();
        (after.0 - before.0, after.1 - before.1)
    };
    for n in [8, 16] {
        assert_eq!(
            write_cost(n, true),
            write_cost(n, false),
            "a write at {n} attributes allocated more after a bound state was built"
        );
    }
}

#[test]
fn full_lru_cache_churns_without_allocating() {
    // A full cache evicts one entry per insert.  Its index must absorb that
    // churn in place: a table that leaves a tombstone per removal rehashes,
    // and at this load doubles, after a few capacities' worth of inserts.
    const CAPACITY: u64 = 4096;
    profile::set_thread_class("test");
    let mut cache: LruCache<VersionedKey<AttrSet>, u64> = LruCache::new(CAPACITY as usize);
    let insert = |cache: &mut LruCache<_, _>, key: u64| {
        cache.insert_probed(&Probe::new(0, &AttrSet::from_bits(key)), key);
    };
    for key in 0..=CAPACITY {
        insert(&mut cache, key);
    }
    assert_eq!(cache.stats().evictions, 1);
    let before = profile::thread_alloc_counts();
    for key in CAPACITY + 1..=17 * CAPACITY {
        insert(&mut cache, key);
    }
    let after = profile::thread_alloc_counts();
    assert_eq!(cache.len(), CAPACITY as usize);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "a full cache allocated while churning"
    );
    let mut get = |key: u64| {
        cache
            .probe(&Probe::new(0, &AttrSet::from_bits(key)))
            .copied()
    };
    assert_eq!(get(17 * CAPACITY), Some(17 * CAPACITY));
    assert_eq!(get(16 * CAPACITY), None);
}

#[test]
fn warm_whole_request_allocates_nothing_in_both_framings() {
    // No other test may toggle the profiler mid-measurement (a live stage
    // guard registers its thread's beacon on first use).
    let _guard = lock_profiler();
    profile::set_thread_class("test");
    let max = diffcon_engine::protocol::MAX_REQUEST_BYTES;
    let mut text = Vec::new();
    let mut mask = Vec::new();
    binary::encode_implies(0b1, &[0b100, 0b11000], &mut mask);
    let mut prologue = Vec::new();
    for line in ["universe 6", "assert A->{B}", "assert B->{C,DE}"] {
        text.extend_from_slice(line.as_bytes());
        text.push(b'\n');
        binary::encode_line(line, &mut prologue);
    }
    // Each framing's connection, its opening bytes, and one warm request's
    // wire bytes.
    let mut binary_opening = binary::MAGIC.to_vec();
    binary_opening.extend_from_slice(&prologue);
    let mut cases = [
        (
            "text line",
            Connection::new(Server::new(SessionConfig::default()), max, false),
            text,
            b"implies A->{C,DE}\n".to_vec(),
        ),
        (
            "mask frame",
            Connection::new(Server::new(SessionConfig::default()), max, true),
            binary_opening,
            mask,
        ),
    ];
    let mut out = Vec::new();
    for (framing, connection, opening, request) in &mut cases {
        connection.feed(opening, &mut out);
        assert_eq!(
            String::from_utf8_lossy(&out).matches("ok ").count(),
            3,
            "{framing} prologue: {out:?}"
        );
        // One warm-up pass: the first ask fills the answer cache, and the
        // input, reply, and output buffers and the scratch goal grow to size.
        for _ in 0..2 {
            out.clear();
            connection.feed(request, &mut out);
        }
        let before = profile::thread_alloc_counts();
        for _ in 0..1000 {
            out.clear();
            connection.feed(request, &mut out);
        }
        let after = profile::thread_alloc_counts();
        let reply = String::from_utf8_lossy(&out);
        assert!(
            reply.contains("yes ") && reply.contains(" cached=1 "),
            "{framing} request was not a warm hit: {reply}"
        );
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (0, 0),
            "a warm {framing} request allocated"
        );
    }
}

#[test]
fn slow_log_drops_are_rate_limited_and_visible_in_stats() {
    let mut server = Server::new(SessionConfig::default());
    server.set_slow_query_us(Some(0));
    server.handle_line("universe 5");
    server.handle_line("assert A->{B}");
    // Far more instantly-"slow" queries than the 8-line burst allows: the
    // excess must be dropped and counted, not printed.
    let dropped_before = metrics_counter("diffcond_slow_log_dropped_total");
    for _ in 0..64 {
        server.handle_line("implies A->{B}");
    }
    let stats = server.handle_line("stats").text;
    let dropped_after = metrics_counter("diffcond_slow_log_dropped_total");
    assert!(
        dropped_after > dropped_before,
        "no slow-log drops recorded: {dropped_before} -> {dropped_after}"
    );
    assert!(stats.starts_with("stats "), "got: {stats}");
    let field = stats
        .split_whitespace()
        .find_map(|t| t.strip_prefix("slow_log_dropped="))
        .expect("stats must report slow_log_dropped once drops happened");
    assert!(field.parse::<u64>().unwrap() > 0, "got: {stats}");
}

#[test]
fn stats_recent_cold_start_answers_the_warming_form() {
    // The global frame ring is shared across the test binary, so drive the
    // deterministic cold/warm transition on a private registry…
    let fresh = diffcon_engine::EngineMetrics::default();
    let cold = fresh.recent();
    assert!(!cold.baseline, "first observation must lack a baseline");
    assert_eq!(cold.window, Duration::ZERO);
    assert_eq!((cold.plan.count(), cold.replies), (0, 0));
    let warm = fresh.recent();
    assert!(warm.baseline, "first call must seed the ring");
    // …and check both wire forms against the grammar on the global one.
    let mut server = Server::new(SessionConfig::default());
    let first = server.handle_line("stats recent").text;
    assert!(
        first == "stats recent window_us=0 warming=1"
            || first.starts_with("stats recent window_us="),
        "got: {first}"
    );
    let second = server.handle_line("stats recent").text;
    assert!(
        second.starts_with("stats recent window_us=") && second.contains(" qps="),
        "warm reply must report rates: {second}"
    );
}

/// Reads one unlabeled counter out of the global exposition.
fn metrics_counter(name: &str) -> f64 {
    let text = diffcon_engine::EngineMetrics::global().exposition();
    diffcon_obs::parse_exposition(&text)
        .expect("exposition parses")
        .into_iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map(|s| s.value)
        .unwrap_or(0.0)
}
