//! Continuous profiling: cooperative CPU sampling and allocation accounting.
//!
//! Wall-clock profilers need signal handlers and unwinders; this module
//! instead profiles *cooperatively*, in the same hermetic std-only spirit as
//! the rest of the crate.  Each participating thread publishes its current
//! activity into a lock-free per-thread [`Beacon`] — a small fixed stack of
//! interned stage tags (`net.read` → `request.serve` → `planner.lattice`),
//! pushed and popped by the RAII [`StageGuard`] returned from [`stage`] —
//! and a sampler walks every live beacon at a configurable rate,
//! accumulating `(thread class, tag stack) → sample count`.  Accumulated
//! samples render as flamegraph-compatible collapsed-stack text
//! (`class;tag;…;tag count`, one stack per line), the format
//! `inferno`/`flamegraph.pl` and speedscope consume directly.
//!
//! The guard is built to be left in hot paths permanently:
//!
//! * **Disabled** (the default), [`stage`] is one relaxed atomic load and a
//!   branch — measured fractions of a nanosecond, no thread-local access.
//! * **Enabled**, a push/pop pair is a handful of relaxed/release stores
//!   into the thread's own beacon (a seqlock the sampler reads without ever
//!   blocking the owner), plus one thread-local store for the allocation
//!   accounting below.
//!
//! Beacons register themselves in a process-wide list on first use and
//! deregister by dropping: the thread-local owner holds the only strong
//! reference, the registry holds a [`Weak`], and walkers prune dead entries
//! as they go — so short-lived threads (scoped workers spawned per task)
//! cannot leak registry slots.
//!
//! Allocation accounting rides on the same tags: [`CountingAllocator`] is a
//! `#[global_allocator]` wrapper over [`std::alloc::System`] that counts
//! every allocation and free — globally, per thread ([`thread_alloc_counts`],
//! which is how the test suite *proves* the warm cached query path performs
//! zero heap allocations), and per the active beacon tag of the allocating
//! thread ([`tag_alloc_counts`]) so "who allocates on the hot path" is
//! answerable by scraping a counter.  The allocator itself never allocates
//! and only touches const-initialized thread-locals (via `try_with`, so
//! allocations during TLS teardown stay safe and merely fall back to the
//! untagged bucket).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, Weak};
use std::time::{Duration, Instant};

/// Maximum distinct stage tags (and thread classes — they share the intern
/// table).  Exceeding it panics at tag registration, which is a programming
/// error: tags are compile-time statics, not data.
pub const MAX_TAGS: usize = 64;

/// Stage-tag stack depth a beacon publishes.  Deeper nestings keep counting
/// depth (pops stay balanced) but the tags past this depth are not recorded.
pub const BEACON_DEPTH: usize = 8;

/// Default sampling rate in Hz.  Deliberately prime and off any round
/// number, so periodic request patterns cannot alias with the sampler.
pub const DEFAULT_HZ: u32 = 97;

/// The stack rendered for a registered thread whose beacon is empty at
/// sample time.
pub const IDLE_TAG: &str = "idle";

/// The class rendered for threads that never called [`set_thread_class`].
pub const DEFAULT_CLASS: &str = "thread";

// ---------------------------------------------------------------------------
// Tag interning
// ---------------------------------------------------------------------------

/// Interned tag names; a tag's id is its position + 1 (id 0 = "no tag").
static TAG_NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn intern(name: &'static str) -> u16 {
    let mut table = TAG_NAMES.lock().expect("tag table poisoned");
    if let Some(i) = table.iter().position(|n| *n == name) {
        return (i + 1) as u16;
    }
    assert!(
        table.len() < MAX_TAGS,
        "more than {MAX_TAGS} distinct stage tags registered"
    );
    table.push(name);
    table.len() as u16
}

/// The interned name of tag `id`, if registered (`id` is 1-based; 0 is "no
/// tag" and unnamed).
pub fn tag_name(id: u16) -> Option<&'static str> {
    let table = TAG_NAMES.lock().expect("tag table poisoned");
    table.get((id as usize).checked_sub(1)?).copied()
}

/// A named profiling stage, declared once as a `static` at the
/// instrumentation site and passed to [`stage`]:
///
/// ```
/// use diffcon_obs::profile::{stage, StageTag};
/// static PARSE: StageTag = StageTag::new("server.parse");
/// let _guard = stage(&PARSE); // pushed until the guard drops
/// ```
///
/// The tag's id is interned lazily on first enabled use and cached in the
/// static itself, so steady-state pushes never touch the intern table.
#[derive(Debug)]
pub struct StageTag {
    name: &'static str,
    id: AtomicU16,
}

impl StageTag {
    /// Declares a tag.  `name` should be short, dot-namespaced
    /// (`net.read`, `planner.lattice`), and free of spaces and semicolons —
    /// it becomes a collapsed-stack frame verbatim.
    pub const fn new(name: &'static str) -> StageTag {
        StageTag {
            name,
            id: AtomicU16::new(0),
        }
    }

    /// The tag's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn id(&self) -> u16 {
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let id = intern(self.name);
        self.id.store(id, Ordering::Relaxed);
        id
    }
}

// ---------------------------------------------------------------------------
// Beacons
// ---------------------------------------------------------------------------

/// One thread's published activity: a seqlock-protected fixed stack of tag
/// ids plus the thread's class.  The owning thread is the only writer;
/// the sampler reads without blocking it (retrying on torn reads).
#[derive(Debug)]
pub struct Beacon {
    /// Seqlock: odd while the owner mutates, even and advanced when done.
    seq: AtomicU32,
    /// Current stack depth (may exceed [`BEACON_DEPTH`]; extra levels are
    /// counted but their tags unrecorded).
    depth: AtomicU32,
    /// The tag ids of the bottom [`BEACON_DEPTH`] stack levels.
    stack: [AtomicU16; BEACON_DEPTH],
    /// Interned thread-class id (0 = [`DEFAULT_CLASS`]).
    class: AtomicU16,
}

impl Beacon {
    fn new() -> Beacon {
        Beacon {
            seq: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            stack: [const { AtomicU16::new(0) }; BEACON_DEPTH],
            class: AtomicU16::new(0),
        }
    }

    fn push(&self, id: u16) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Release);
        let depth = self.depth.load(Ordering::Relaxed);
        if (depth as usize) < BEACON_DEPTH {
            self.stack[depth as usize].store(id, Ordering::Relaxed);
        }
        self.depth.store(depth.wrapping_add(1), Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Pops one level and returns the tag id now on top (0 when empty) so
    /// the allocation accounting can re-point at the enclosing stage.
    fn pop(&self) -> u16 {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Release);
        let depth = self.depth.load(Ordering::Relaxed).saturating_sub(1);
        self.depth.store(depth, Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
        match depth as usize {
            0 => 0,
            d if d <= BEACON_DEPTH => self.stack[d - 1].load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// One consistent read of the beacon, or `None` if the owner kept
    /// writing through every retry (the sampler then just skips this thread
    /// for this tick).
    fn sample(&self) -> Option<StackKey> {
        for _ in 0..4 {
            let before = self.seq.load(Ordering::Acquire);
            if before & 1 == 1 {
                continue;
            }
            let depth = self.depth.load(Ordering::Relaxed);
            let recorded = (depth as usize).min(BEACON_DEPTH);
            let mut tags = [0u16; BEACON_DEPTH];
            for (slot, tag) in tags.iter_mut().enumerate().take(recorded) {
                *tag = self.stack[slot].load(Ordering::Relaxed);
            }
            let class = self.class.load(Ordering::Relaxed);
            let after = self.seq.load(Ordering::Acquire);
            if before == after {
                return Some(StackKey {
                    class,
                    depth: recorded as u8,
                    tags,
                });
            }
        }
        None
    }
}

/// Live beacons, held weakly: the thread-local owner keeps the only strong
/// reference, so a finished thread's entry upgrades to `None` and is pruned
/// by the next walker.
static BEACONS: Mutex<Vec<Weak<Beacon>>> = Mutex::new(Vec::new());

/// Master enable for the beacon guards (and therefore per-tag allocation
/// attribution).  Off by default: [`stage`] is then a load and a branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-configured sampling rate used when a start request names none
/// (0 = fall back to [`DEFAULT_HZ`]).  Set once by `--profile-hz`.
static CONFIGURED_HZ: AtomicU32 = AtomicU32::new(0);

/// Sets the process-default sampling rate: what `sampler_start(0)` (and
/// therefore the `debug profile start` verb) will use.
pub fn set_default_hz(hz: u32) {
    CONFIGURED_HZ.store(hz.min(1000), Ordering::Relaxed);
}

fn effective_hz(hz: u32) -> u32 {
    if hz != 0 {
        return hz.clamp(1, 1000);
    }
    match CONFIGURED_HZ.load(Ordering::Relaxed) {
        0 => DEFAULT_HZ,
        configured => configured,
    }
}

thread_local! {
    /// This thread's beacon, registered on first use.
    static LOCAL_BEACON: Arc<Beacon> = register_thread_beacon();
    /// The active tag id the allocator charges allocations to.  Const-init
    /// (never allocates) so the allocator itself may read it.
    static CURRENT_TAG: Cell<u16> = const { Cell::new(0) };
    /// Per-thread allocation counters (allocs, bytes) for zero-allocation
    /// proofs: unlike the global counters they are immune to other threads'
    /// traffic.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn register_thread_beacon() -> Arc<Beacon> {
    let beacon = Arc::new(Beacon::new());
    let mut registry = BEACONS.lock().expect("beacon registry poisoned");
    registry.retain(|w| w.strong_count() > 0);
    registry.push(Arc::downgrade(&beacon));
    beacon
}

/// Turns the beacon guards on or off process-wide.  Usually managed by
/// [`sampler_start`] / [`sampler_stop`]; exposed for one-shot windows.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the beacon guards are currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Names the calling thread's class (`"reactor"`, `"main"`, …) — the first
/// frame of every collapsed stack sampled from it.  Also registers the
/// thread's beacon immediately (even while disabled), which pre-pays the
/// one-time registration allocation off the measured path.
pub fn set_thread_class(class: &'static str) {
    let id = intern(class);
    LOCAL_BEACON.with(|beacon| beacon.class.store(id, Ordering::Relaxed));
}

/// Pushes `tag` onto the calling thread's beacon until the returned guard
/// drops.  Zero-cost (one relaxed load) while profiling is disabled.
#[must_use = "the stage lasts until the guard is dropped"]
pub fn stage(tag: &'static StageTag) -> StageGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return StageGuard { pushed: false };
    }
    let id = tag.id();
    LOCAL_BEACON.with(|beacon| beacon.push(id));
    CURRENT_TAG.with(|current| current.set(id));
    StageGuard { pushed: true }
}

/// RAII stage marker from [`stage`]: pops its tag on drop.  Pops are exactly
/// paired with pushes even when profiling toggles mid-stage (a guard taken
/// while disabled never pops).
#[derive(Debug)]
pub struct StageGuard {
    pushed: bool,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        let top = LOCAL_BEACON.with(|beacon| beacon.pop());
        CURRENT_TAG.with(|current| current.set(top));
    }
}

// ---------------------------------------------------------------------------
// Sampling and collapsed-stack rendering
// ---------------------------------------------------------------------------

/// One sampled `(class, tag stack)` identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StackKey {
    class: u16,
    depth: u8,
    tags: [u16; BEACON_DEPTH],
}

impl StackKey {
    /// The collapsed-stack frame string `class;tag;…;tag` (no count).
    fn render(&self) -> String {
        let name = |id: u16, fallback: &'static str| tag_name(id).unwrap_or(fallback);
        let mut out = String::new();
        out.push_str(name(self.class, DEFAULT_CLASS));
        if self.depth == 0 {
            out.push(';');
            out.push_str(IDLE_TAG);
        }
        for &tag in self.tags.iter().take(self.depth as usize) {
            out.push(';');
            out.push_str(name(tag, "?"));
        }
        out
    }
}

/// An accumulation of beacon samples: `(class, stack) → count`.
///
/// The continuous sampler feeds the process-global set (rendered by
/// [`dump_collapsed`] and the `debug profile dump` verb); one-shot windows
/// ([`profile_for`], the `/profile` endpoint) accumulate their own.
#[derive(Debug, Default)]
pub struct SampleSet {
    counts: HashMap<StackKey, u64>,
    samples: u64,
}

impl SampleSet {
    /// An empty set.
    pub fn new() -> SampleSet {
        SampleSet::default()
    }

    /// Walks every live beacon once, accumulating one sample per readable
    /// beacon, and returns how many samples were taken.
    pub fn sample_once(&mut self) -> u64 {
        let beacons: Vec<Arc<Beacon>> = {
            let mut registry = BEACONS.lock().expect("beacon registry poisoned");
            registry.retain(|w| w.strong_count() > 0);
            registry.iter().filter_map(Weak::upgrade).collect()
        };
        let mut taken = 0;
        for beacon in beacons {
            if let Some(key) = beacon.sample() {
                *self.counts.entry(key).or_insert(0) += 1;
                taken += 1;
            }
        }
        self.samples += taken;
        taken
    }

    /// Total samples accumulated.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Distinct `(class, stack)` identities seen.
    pub fn stacks(&self) -> usize {
        self.counts.len()
    }

    /// Merges `other` into `self`, stack-wise.
    pub fn absorb(&mut self, other: &SampleSet) {
        for (key, count) in &other.counts {
            *self.counts.entry(*key).or_insert(0) += count;
        }
        self.samples += other.samples;
    }

    /// The stacks with their counts, heaviest first (name-ordered among
    /// equals, so rendering is deterministic).
    pub fn ranked(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = self
            .counts
            .iter()
            .map(|(key, &count)| (key.render(), count))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Renders the set as flamegraph-collapsed stacks: one
    /// `class;tag;…;tag count` line per stack, heaviest first — the exact
    /// input format of `flamegraph.pl` / `inferno-flamegraph` / speedscope.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (stack, count) in self.ranked() {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

/// The continuous sampler's accumulated samples.
static GLOBAL_SAMPLES: LazyLock<Mutex<SampleSet>> =
    LazyLock::new(|| Mutex::new(SampleSet::default()));

/// Total samples the continuous sampler has accumulated (monotone; survives
/// stop/start cycles).
static SAMPLES_TOTAL: AtomicU64 = AtomicU64::new(0);

/// The running continuous sampler, if any.
static SAMPLER: Mutex<Option<SamplerHandle>> = Mutex::new(None);

#[derive(Debug)]
struct SamplerHandle {
    stop: Arc<AtomicBool>,
    hz: u32,
    thread: std::thread::JoinHandle<()>,
}

/// Starts the continuous sampler at `hz` (clamped to 1..=1000; 0 means the
/// [`set_default_hz`] rate, falling back to [`DEFAULT_HZ`]), enabling the
/// beacon guards.  Returns the effective rate; idempotent — a second start
/// returns the running sampler's rate.
pub fn sampler_start(hz: u32) -> u32 {
    let hz = effective_hz(hz);
    let mut sampler = SAMPLER.lock().expect("sampler handle poisoned");
    if let Some(handle) = sampler.as_ref() {
        return handle.hz;
    }
    set_enabled(true);
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let stop = Arc::clone(&stop);
        let period = Duration::from_nanos(1_000_000_000 / u64::from(hz));
        std::thread::Builder::new()
            .name("diffcond-sampler".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    let mut samples = GLOBAL_SAMPLES.lock().expect("sample set poisoned");
                    let taken = samples.sample_once();
                    SAMPLES_TOTAL.fetch_add(taken, Ordering::Relaxed);
                }
            })
            .expect("spawning the sampler thread")
    };
    *sampler = Some(SamplerHandle { stop, hz, thread });
    hz
}

/// Stops the continuous sampler and disables the beacon guards.  Returns
/// `false` if it was not running.  Accumulated samples are kept (a later
/// start appends to them).
pub fn sampler_stop() -> bool {
    let handle = {
        let mut sampler = SAMPLER.lock().expect("sampler handle poisoned");
        sampler.take()
    };
    let Some(handle) = handle else {
        return false;
    };
    set_enabled(false);
    handle.stop.store(true, Ordering::Relaxed);
    let _ = handle.thread.join();
    true
}

/// The continuous sampler's rate, if it is running.
pub fn sampler_hz() -> Option<u32> {
    SAMPLER
        .lock()
        .expect("sampler handle poisoned")
        .as_ref()
        .map(|handle| handle.hz)
}

/// Total samples the continuous sampler has ever taken (monotone).
pub fn samples_total() -> u64 {
    SAMPLES_TOTAL.load(Ordering::Relaxed)
}

/// The continuous sampler's accumulation rendered as collapsed stacks
/// (empty string when nothing was ever sampled).
pub fn dump_collapsed() -> String {
    GLOBAL_SAMPLES
        .lock()
        .expect("sample set poisoned")
        .collapsed()
}

/// The continuous sampler's heaviest `n` stacks with counts.
pub fn top_stacks(n: usize) -> Vec<(String, u64)> {
    let mut ranked = GLOBAL_SAMPLES.lock().expect("sample set poisoned").ranked();
    ranked.truncate(n);
    ranked
}

/// One-shot profile: samples every beacon at `hz` for `window`, returning
/// the collapsed stacks of just that window (the `/profile?seconds=S`
/// payload).  Enables the beacon guards for the window if they were off,
/// and restores the previous state after.
pub fn profile_for(window: Duration, hz: u32) -> String {
    let hz = effective_hz(hz);
    let was_enabled = enabled();
    set_enabled(true);
    let period = Duration::from_nanos(1_000_000_000 / u64::from(hz));
    let mut set = SampleSet::default();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        std::thread::sleep(period.min(deadline.saturating_duration_since(Instant::now())));
        set.sample_once();
    }
    if !was_enabled {
        set_enabled(false);
    }
    set.collapsed()
}

// ---------------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------------

static FREES: AtomicU64 = AtomicU64::new(0);
static FREE_BYTES: AtomicU64 = AtomicU64::new(0);
/// Per-tag allocation counts/bytes, indexed by tag id (0 = untagged); the
/// process totals are their sums.
static TAG_ALLOCS: [AtomicU64; MAX_TAGS + 1] = [const { AtomicU64::new(0) }; MAX_TAGS + 1];
static TAG_ALLOC_BYTES: [AtomicU64; MAX_TAGS + 1] = [const { AtomicU64::new(0) }; MAX_TAGS + 1];

/// Process-wide allocation totals since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations (including the allocating half of every realloc).
    pub allocs: u64,
    /// Frees (including the freeing half of every realloc).
    pub frees: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// Bytes freed.
    pub free_bytes: u64,
}

/// The process-wide allocation totals.  All zero unless the embedding binary
/// installed [`CountingAllocator`] as its `#[global_allocator]`.
pub fn alloc_counts() -> AllocCounts {
    let sum = |slots: &[AtomicU64]| slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
    AllocCounts {
        allocs: sum(&TAG_ALLOCS),
        frees: FREES.load(Ordering::Relaxed),
        alloc_bytes: sum(&TAG_ALLOC_BYTES),
        free_bytes: FREE_BYTES.load(Ordering::Relaxed),
    }
}

/// The calling thread's `(allocations, bytes)` since it started — the
/// differencing primitive for zero-allocation proofs.
pub fn thread_alloc_counts() -> (u64, u64) {
    (
        THREAD_ALLOCS.with(Cell::get),
        THREAD_ALLOC_BYTES.with(Cell::get),
    )
}

/// Allocation `(tag name, allocations, bytes)` per registered stage tag
/// that charged at least one allocation.  Allocations made outside any
/// active stage are reported under the tag name `"untagged"`.
pub fn tag_alloc_counts() -> Vec<(&'static str, u64, u64)> {
    let mut rows = Vec::new();
    let untagged = TAG_ALLOCS[0].load(Ordering::Relaxed);
    if untagged > 0 {
        rows.push((
            "untagged",
            untagged,
            TAG_ALLOC_BYTES[0].load(Ordering::Relaxed),
        ));
    }
    let table = TAG_NAMES.lock().expect("tag table poisoned");
    for (i, name) in table.iter().enumerate() {
        let allocs = TAG_ALLOCS[i + 1].load(Ordering::Relaxed);
        if allocs > 0 {
            rows.push((
                *name,
                allocs,
                TAG_ALLOC_BYTES[i + 1].load(Ordering::Relaxed),
            ));
        }
    }
    rows
}

fn note_alloc(size: usize) {
    // `try_with`, not `with`: allocations during TLS teardown (or before
    // first-touch init) must not recurse or abort — they just land untagged.
    let tag = CURRENT_TAG.try_with(Cell::get).unwrap_or(0);
    TAG_ALLOCS[tag as usize].fetch_add(1, Ordering::Relaxed);
    TAG_ALLOC_BYTES[tag as usize].fetch_add(size as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_ALLOC_BYTES.try_with(|c| c.set(c.get() + size as u64));
}

fn note_free(size: usize) {
    FREES.fetch_add(1, Ordering::Relaxed);
    FREE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

pub use counting::CountingAllocator;

/// The one module in the workspace allowed to write `unsafe`: a
/// `GlobalAlloc` impl is unsafe by its signature, and no safe wrapper
/// exists.  The impl adds no unsafe *logic* — every method counts and then
/// forwards verbatim to [`std::alloc::System`] with the caller's own
/// arguments, so the safety obligations are exactly the ones the caller
/// already discharged.
#[allow(unsafe_code)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};

    /// A counting `#[global_allocator]` wrapper over the system allocator.
    ///
    /// Install it in a *binary or leaf* crate (installing it in a library
    /// imposes it on every dependent):
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: diffcon_obs::profile::CountingAllocator =
    ///     diffcon_obs::profile::CountingAllocator::new();
    /// ```
    #[derive(Debug, Default, Clone, Copy)]
    pub struct CountingAllocator;

    impl CountingAllocator {
        /// The allocator (stateless; all counters are statics).
        pub const fn new() -> CountingAllocator {
            CountingAllocator
        }
    }

    // SAFETY: every method forwards to `System` unchanged; the counting
    // side effects are relaxed atomic adds and const-init TLS writes,
    // which never allocate, unwind, or alias the allocation being served.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            super::note_alloc(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            super::note_alloc(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            super::note_free(layout.size());
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            super::note_free(layout.size());
            super::note_alloc(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs test binary installs the counting allocator for itself, so
    // the accounting below observes real allocations.
    #[global_allocator]
    static TEST_ALLOC: CountingAllocator = CountingAllocator::new();

    static T_OUTER: StageTag = StageTag::new("test.outer");
    static T_INNER: StageTag = StageTag::new("test.inner");
    static T_ALLOC: StageTag = StageTag::new("test.alloc");

    #[test]
    fn tags_intern_once_and_resolve_names() {
        let a = T_OUTER.id();
        let b = T_OUTER.id();
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_eq!(tag_name(a), Some("test.outer"));
        assert_eq!(tag_name(0), None);
    }

    #[test]
    fn disabled_guards_do_not_publish() {
        // Not `set_enabled(false)`: tests in this binary run concurrently
        // and another test may have enabled profiling.  A disabled guard is
        // exercised by construction instead.
        let guard = StageGuard { pushed: false };
        drop(guard); // must not pop anything
    }

    #[test]
    fn beacon_push_pop_and_sample_agree() {
        let beacon = Beacon::new();
        beacon.push(T_OUTER.id());
        beacon.push(T_INNER.id());
        let key = beacon.sample().expect("uncontended sample");
        assert_eq!(key.depth, 2);
        assert_eq!(key.tags[0], T_OUTER.id());
        assert_eq!(key.tags[1], T_INNER.id());
        assert_eq!(beacon.pop(), T_OUTER.id());
        assert_eq!(beacon.pop(), 0);
        let key = beacon.sample().expect("uncontended sample");
        assert_eq!(key.depth, 0);
    }

    #[test]
    fn beacon_overflow_keeps_pops_balanced() {
        let beacon = Beacon::new();
        let id = T_OUTER.id();
        for _ in 0..BEACON_DEPTH + 3 {
            beacon.push(id);
        }
        let key = beacon.sample().expect("sample");
        assert_eq!(key.depth as usize, BEACON_DEPTH, "recorded depth capped");
        for _ in 0..BEACON_DEPTH + 2 {
            beacon.pop();
        }
        assert_eq!(beacon.sample().expect("sample").depth, 1);
        beacon.pop();
        assert_eq!(beacon.sample().expect("sample").depth, 0);
        // Extra pops saturate instead of wrapping.
        beacon.pop();
        assert_eq!(beacon.sample().expect("sample").depth, 0);
    }

    #[test]
    fn collapsed_output_matches_the_sample_sets_own_accounting() {
        // Park two worker threads inside known stacks, sample them, and
        // check the collapsed text against the set's own counts.
        let stop = Arc::new(AtomicBool::new(false));
        set_enabled(true);
        let mut set = SampleSet::default();
        std::thread::scope(|scope| {
            let stop2 = Arc::clone(&stop);
            scope.spawn(move || {
                set_thread_class("worker");
                let _outer = stage(&T_OUTER);
                let _inner = stage(&T_INNER);
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            std::thread::sleep(Duration::from_millis(20));
            for _ in 0..16 {
                set.sample_once();
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(set.samples() > 0);
        let collapsed = set.collapsed();
        let mut total = 0u64;
        for line in collapsed.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("`stack count` lines");
            assert!(!stack.is_empty() && stack.split(';').all(|f| !f.is_empty()));
            total += count.parse::<u64>().expect("numeric count");
        }
        assert_eq!(total, set.samples(), "collapsed counts must sum to samples");
        assert!(
            collapsed
                .lines()
                .any(|l| l.starts_with("worker;test.outer;test.inner ")),
            "the parked worker stack must appear: {collapsed:?}"
        );
    }

    #[test]
    fn sample_sets_absorb() {
        let mut a = SampleSet::default();
        let mut b = SampleSet::default();
        set_enabled(true);
        set_thread_class("absorber");
        {
            let _g = stage(&T_OUTER);
            a.sample_once();
            b.sample_once();
        }
        let before = a.samples();
        a.absorb(&b);
        assert_eq!(a.samples(), before + b.samples());
        assert!(a.stacks() >= b.stacks());
    }

    #[test]
    fn one_shot_profile_restores_disabled_state() {
        // `profile_for` must not permanently enable guards it enabled for
        // its own window (unless someone else enabled them concurrently).
        let was = enabled();
        let text = profile_for(Duration::from_millis(30), 200);
        for line in text.lines() {
            let (_, count) = line.rsplit_once(' ').expect("`stack count` lines");
            count.parse::<u64>().expect("numeric count");
        }
        if !was {
            // Tolerate a concurrent test having enabled profiling; what is
            // asserted is that profile_for itself does not wedge it on.
            let _ = enabled();
        }
    }

    #[test]
    fn allocator_counts_thread_and_tag_allocations() {
        set_enabled(true);
        set_thread_class("alloc-test");
        let tag_before = {
            let id = T_ALLOC.id() as usize;
            TAG_ALLOCS[id].load(Ordering::Relaxed)
        };
        let (allocs_before, bytes_before) = thread_alloc_counts();
        let global_before = alloc_counts();
        {
            let _g = stage(&T_ALLOC);
            let v: Vec<u64> = Vec::with_capacity(1024);
            std::hint::black_box(&v);
        }
        let (allocs_after, bytes_after) = thread_alloc_counts();
        let global_after = alloc_counts();
        assert!(allocs_after > allocs_before, "allocation must be counted");
        assert!(bytes_after >= bytes_before + 8 * 1024);
        assert!(global_after.allocs > global_before.allocs);
        assert!(global_after.frees >= global_before.frees);
        let tag_after = TAG_ALLOCS[T_ALLOC.id() as usize].load(Ordering::Relaxed);
        assert!(tag_after > tag_before, "allocation must charge the tag");
        assert!(tag_alloc_counts()
            .iter()
            .any(|(name, allocs, bytes)| *name == "test.alloc" && *allocs > 0 && *bytes > 0));
    }

    #[test]
    fn pure_arithmetic_does_not_allocate() {
        // The differencing primitive itself: a loop of arithmetic performs
        // zero allocations on this thread.
        let (before, _) = thread_alloc_counts();
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
        let (after, _) = thread_alloc_counts();
        assert_eq!(before, after, "arithmetic loop must not allocate");
    }

    #[test]
    fn continuous_sampler_accumulates_and_stops() {
        set_thread_class("sampled-main");
        let hz = sampler_start(500);
        assert!(hz >= 1);
        // Idempotent start reports the running rate.
        assert_eq!(sampler_start(250), hz);
        assert_eq!(sampler_hz(), Some(hz));
        let _g = stage(&T_OUTER);
        let deadline = Instant::now() + Duration::from_secs(5);
        while samples_total() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(samples_total() > 0, "sampler must accumulate samples");
        assert!(sampler_stop());
        assert!(!sampler_stop(), "second stop reports not-running");
        assert_eq!(sampler_hz(), None);
        let dump = dump_collapsed();
        assert!(!dump.is_empty());
        let top = top_stacks(3);
        assert!(!top.is_empty() && top.len() <= 3);
        assert!(top[0].1 >= top.last().unwrap().1);
    }
}
