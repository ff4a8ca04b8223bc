//! Mining the minimal satisfied disjunctive constraints of a dataset.
//!
//! # What is mined
//!
//! By Proposition 6.3 a basket database satisfies the disjunctive constraint
//! `X ⇒disj 𝒴` iff its support function satisfies the differential
//! constraint `X → 𝒴`, so the miner emits its finds directly as
//! [`DiffConstraint`]s, ready to be asserted as engine premises.
//!
//! The search space is the **canonical** constraints up to the configured
//! budgets: `|X| ≤ max_lhs`, `|𝒴| ≤ max_rhs`, every member of `𝒴` nonempty
//! and disjoint from `X`, and `𝒴` an antichain (no member contains another).
//! Every disjunctive constraint is semantically equal to exactly one
//! canonical constraint — dropping `X` from a member and dropping a member
//! that contains another both preserve the constraint's lattice
//! `L(X, 𝒴)`, and a nontrivial canonical constraint is uniquely determined
//! by its lattice — so nothing is lost by canonicalizing, and "the same
//! constraint twice" cannot happen.
//!
//! A satisfied canonical constraint is **minimal** when no *other* satisfied
//! canonical constraint within the budgets implies it (single-premise
//! differential implication, Theorem 3.5 — which by Proposition 6.4 is the
//! same relation as disjunctive-constraint implication).  The minimal
//! constraints are exactly the informative ones: everything else satisfied
//! within the budgets is a weakening of one of them.
//!
//! # How it is mined
//!
//! [`mine`] enumerates left-hand sides by increasing size through the
//! dataset's vertical index and prunes by support monotonicity: if
//! `s(X − {i}) = s(X)` for some `i ∈ X` then `X − {i} → 𝒴` is satisfied
//! whenever `X → 𝒴` is and implies it, so no minimal constraint lives at
//! `X` and the whole branch is skipped.  Zero-support sets contribute the
//! strongest constraint of all, `X → {}` (`f(X) = 0`).  For surviving `X`
//! the consequent families grow one member at a time in canonical order;
//! a member is only added when it covers a basket no earlier member covers
//! (irredundancy — a family with a contribution-free member is implied by
//! the same family without it), and a family that reaches full cover is
//! recorded and never extended (lattice monotonicity: every extension is a
//! weakening).  A final pass removes the candidates implied by another
//! candidate, which provably removes everything non-minimal.
//!
//! [`mine_bruteforce`] is the reference the property suite compares
//! against: enumerate *every* canonical constraint in the budgets, test
//! satisfaction by scanning the horizontal database (through
//! [`fis::DisjunctiveConstraint`], an independent implementation), and
//! filter to the minimal ones by pairwise implication.

use crate::dataset::Dataset;
use diffcon::{implication, DiffConstraint};
use fis::basket::BasketDb;
use fis::eclat::TidSet;
use fis::DisjunctiveConstraint;
use setlat::{powerset, AttrSet, Family, Universe};

/// Largest universe a serving layer should accept discovery requests on.
///
/// The miner's member pool enumerates `2^{|S|−|X|}` subsets per antecedent
/// regardless of budgets, and measured release-mode cost grows roughly 8×
/// per two added attributes (seconds at 14, minutes at 16, hours by 20).
/// Large *antecedent* budgets are safe past this cap — the
/// support-monotonicity prune saturates the `|X|` axis (measured ~8 s at
/// `max_lhs = 14`, `n = 14`, 200 baskets) — but the family budget is not;
/// see [`MAX_MINE_RHS_WORK`].
pub const MAX_MINE_UNIVERSE: usize = 14;

/// Bound on `max_rhs × |S|` for one mining request.
///
/// The family DFS explores up to `pool^{max_rhs}` combinations over a pool
/// of up to `2^{|S|}` members, so the universe cap alone does not bound it:
/// measured on 200 random baskets, `mine 2 3` at 14 attributes and
/// `mine 2 4` at 10 attributes both run past 20 s while every combination
/// with `max_rhs × |S| ≤ 33` finishes in a few seconds (`3 × 11` ≈ 4 s is
/// the measured worst).  Serving layers refuse requests above the bound up
/// front.
pub const MAX_MINE_RHS_WORK: usize = 33;

/// Search budgets for the miner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinerConfig {
    /// Largest antecedent size `|X|` explored.
    pub max_lhs: usize,
    /// Largest consequent family size `|𝒴|` explored.
    pub max_rhs: usize,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            max_lhs: 2,
            max_rhs: 2,
        }
    }
}

/// Work counters for one mining run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinerStats {
    /// Left-hand sides enumerated (within the `max_lhs` budget).
    pub lhs_considered: usize,
    /// Left-hand sides skipped by the support-monotonicity prune.
    pub lhs_pruned: usize,
    /// Family-search nodes visited.
    pub families_explored: usize,
    /// Satisfied candidates collected before minimization.
    pub candidates: usize,
    /// Single-premise implication checks spent on minimization.
    pub implication_checks: usize,
    /// Premise-set implication checks spent on the non-redundant cover.
    pub cover_checks: usize,
}

/// The outcome of a mining run.
#[derive(Debug, Clone, PartialEq)]
pub struct Discovery {
    /// The minimal satisfied canonical constraints within the budgets, in
    /// canonical order (see [`canonical_order`]).
    pub minimal: Vec<DiffConstraint>,
    /// A non-redundant cover of `minimal`: constraints already implied (as a
    /// set, via the engine's implication decider) by the earlier ones are
    /// dropped.  Asserting the cover gives the same deductive power as
    /// asserting everything in `minimal`.
    pub cover: Vec<DiffConstraint>,
    /// Work counters.
    pub stats: MinerStats,
}

/// The canonical ordering of mined constraints: by antecedent size, then
/// antecedent mask, then family size, then member masks.  Simpler (and
/// typically stronger) constraints sort first, which makes the greedy
/// non-redundant cover deterministic and small.
pub fn canonical_order(a: &DiffConstraint, b: &DiffConstraint) -> std::cmp::Ordering {
    (a.lhs.len(), a.lhs.bits(), a.rhs.len())
        .cmp(&(b.lhs.len(), b.lhs.bits(), b.rhs.len()))
        .then_with(|| a.rhs.members().cmp(b.rhs.members()))
}

/// Mines the minimal satisfied disjunctive constraints of `dataset` (as
/// differential constraints) within the budgets, plus their non-redundant
/// cover.
pub fn mine(dataset: &Dataset, config: &MinerConfig) -> Discovery {
    let universe = dataset.universe();
    let n = universe.len();
    let mut stats = MinerStats::default();
    let mut candidates: Vec<DiffConstraint> = Vec::new();

    for size in 0..=config.max_lhs.min(n) {
        for x in powerset::subsets_of_size(n, size) {
            stats.lhs_considered += 1;
            let cover_x = dataset.cover(x);
            // Support-monotonicity prune: a redundant attribute in X means
            // every constraint at X is implied by the same constraint at
            // X − {i}, so no minimal constraint lives here.
            if x.iter()
                .any(|i| dataset.support(x.without(i)) == cover_x.len())
            {
                stats.lhs_pruned += 1;
                continue;
            }
            if cover_x.is_empty() {
                // X is a minimal zero-support set: f(X) = 0, the strongest
                // constraint with antecedent X.
                candidates.push(DiffConstraint::new(x, Family::empty()));
                continue;
            }
            if config.max_rhs == 0 {
                continue;
            }
            // Candidate members: nonempty subsets of S − X that cover at
            // least one basket of cover(X), in canonical (size, mask) order.
            let rest = x.complement_in(n);
            let mut pool: Vec<(AttrSet, TidSet)> = Vec::new();
            for y in powerset::subsets(rest) {
                if y.is_empty() {
                    continue;
                }
                let mut contribution = dataset.cover(y);
                contribution.intersect_in_place(&cover_x);
                if !contribution.is_empty() {
                    pool.push((y, contribution));
                }
            }
            pool.sort_by_key(|(y, _)| (y.len(), y.bits()));
            let mut chosen: Vec<AttrSet> = Vec::new();
            search_families(
                x,
                &pool,
                0,
                &mut chosen,
                &cover_x,
                config.max_rhs,
                &mut candidates,
                &mut stats,
            );
        }
    }

    candidates.sort_by(canonical_order);
    stats.candidates = candidates.len();

    // Minimization: drop every candidate implied by another candidate.  Any
    // satisfied in-budget canonical constraint is implied by some candidate
    // (redundant families by an irredundant subfamily, pruned antecedents by
    // the same family on the pruned-to antecedent), and single-premise
    // implication is transitive, so checking against candidates alone is
    // exact.
    let minimal: Vec<DiffConstraint> = candidates
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            !candidates.iter().enumerate().any(|(j, other)| {
                *i != j
                    && other.lhs.is_subset(c.lhs)
                    // Necessary for L(c) ⊆ L(other): the minimum X of L(c)
                    // must itself lie in L(other).
                    && !other.rhs.some_member_subset_of(c.lhs)
                    && {
                        stats.implication_checks += 1;
                        implication::implies(universe, std::slice::from_ref(other), c)
                    }
            })
        })
        .map(|(_, c)| c.clone())
        .collect();

    // Greedy non-redundant cover in canonical order, deduplicated with the
    // engine's own (premise-set) implication decider.
    let mut cover: Vec<DiffConstraint> = Vec::new();
    for c in &minimal {
        stats.cover_checks += 1;
        if !implication::implies(universe, &cover, c) {
            cover.push(c.clone());
        }
    }

    Discovery {
        minimal,
        cover,
        stats,
    }
}

/// Depth-first family search for one antecedent: extend the family in pool
/// order, requiring every member to newly cover at least one basket, and
/// record (without extending) as soon as the whole cover is reached.
#[allow(clippy::too_many_arguments)]
fn search_families(
    x: AttrSet,
    pool: &[(AttrSet, TidSet)],
    start: usize,
    chosen: &mut Vec<AttrSet>,
    uncovered: &TidSet,
    remaining: usize,
    candidates: &mut Vec<DiffConstraint>,
    stats: &mut MinerStats,
) {
    stats.families_explored += 1;
    if uncovered.is_empty() {
        // Satisfied.  Extensions are weakenings (lattice monotonicity), so
        // this branch ends here.
        candidates.push(DiffConstraint::new(
            x,
            Family::from_sets(chosen.iter().copied()),
        ));
        return;
    }
    if remaining == 0 {
        return;
    }
    for (i, (y, contribution)) in pool.iter().enumerate().skip(start) {
        // Canonical families are antichains; the pool order makes a
        // subset-after-superset pick impossible and the progress test below
        // rejects superset-after-subset picks, but keep the intent explicit.
        if chosen.iter().any(|&c| c.is_subset(*y) || y.is_subset(c)) {
            continue;
        }
        let next_uncovered = uncovered.difference(contribution);
        if next_uncovered.len() == uncovered.len() {
            // No new basket covered: the member would be redundant, and a
            // family with a redundant member is implied by the family
            // without it.
            continue;
        }
        chosen.push(*y);
        search_families(
            x,
            pool,
            i + 1,
            chosen,
            &next_uncovered,
            remaining - 1,
            candidates,
            stats,
        );
        chosen.pop();
    }
}

/// Reference implementation: enumerate every canonical constraint within the
/// budgets, test satisfaction by scanning the horizontal database, and keep
/// the ones not implied by another satisfied one.  Exponential everywhere —
/// for the property suite and small experiments only.
pub fn mine_bruteforce(
    universe: &Universe,
    db: &BasketDb,
    config: &MinerConfig,
) -> Vec<DiffConstraint> {
    let n = universe.len();
    let mut satisfied: Vec<DiffConstraint> = Vec::new();
    for x in universe.all_subsets() {
        if x.len() > config.max_lhs {
            continue;
        }
        let rest = x.complement_in(n);
        let mut pool: Vec<AttrSet> = powerset::subsets(rest).filter(|y| !y.is_empty()).collect();
        pool.sort_by_key(|y| (y.len(), y.bits()));
        let mut chosen: Vec<AttrSet> = Vec::new();
        enumerate_canonical(db, x, &pool, 0, &mut chosen, config.max_rhs, &mut satisfied);
    }
    let minimal: Vec<DiffConstraint> = satisfied
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            !satisfied.iter().enumerate().any(|(j, other)| {
                *i != j && implication::implies(universe, std::slice::from_ref(other), c)
            })
        })
        .map(|(_, c)| c.clone())
        .collect();
    let mut minimal = minimal;
    minimal.sort_by(canonical_order);
    minimal
}

/// Enumerates every canonical family over `pool` (including the empty one)
/// and records the satisfied constraints.
fn enumerate_canonical(
    db: &BasketDb,
    x: AttrSet,
    pool: &[AttrSet],
    start: usize,
    chosen: &mut Vec<AttrSet>,
    remaining: usize,
    satisfied: &mut Vec<DiffConstraint>,
) {
    let family = Family::from_sets(chosen.iter().copied());
    let disjunctive = DisjunctiveConstraint::new(x, family.clone());
    if disjunctive.satisfied_by(db) {
        satisfied.push(DiffConstraint::new(x, family));
    }
    if remaining == 0 {
        return;
    }
    for (i, &y) in pool.iter().enumerate().skip(start) {
        if chosen.iter().any(|&c| c.is_subset(y) || y.is_subset(c)) {
            continue;
        }
        chosen.push(y);
        enumerate_canonical(db, x, pool, i + 1, chosen, remaining - 1, satisfied);
        chosen.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(text: &str, n: usize) -> Dataset {
        let u = Universe::of_size(n);
        let db = BasketDb::parse(&u, text).unwrap();
        Dataset::from_db(u, db)
    }

    fn parse(u: &Universe, text: &str) -> DiffConstraint {
        DiffConstraint::parse(text, u).unwrap()
    }

    #[test]
    fn textbook_example() {
        // Every basket containing A contains B or CD; D never occurs alone
        // with B absent, etc.  The headline find must be A → {B, CD}-style
        // structure; concretely check soundness and a known member.
        let ds = dataset("AB\nABC\nACD\nB\nABCD", 4);
        let discovery = mine(&ds, &MinerConfig::default());
        // Soundness: every mined constraint holds on the data.
        for c in &discovery.minimal {
            let d = DisjunctiveConstraint::new(c.lhs, c.rhs.clone());
            assert!(
                d.satisfied_by(ds.db()),
                "unsound find {}",
                c.format(ds.universe())
            );
        }
        // The headline find: every basket contains B or ACD, and nothing
        // stronger in budget subsumes it.
        let target = parse(ds.universe(), " -> {B, ACD}");
        assert!(
            discovery.minimal.contains(&target),
            "expected {} among {:?}",
            target.format(ds.universe()),
            discovery
                .minimal
                .iter()
                .map(|c| c.format(ds.universe()))
                .collect::<Vec<_>>()
        );
        // The paper-style A → {B, CD} holds on the data but is a weakening
        // of the headline find, so minimization must have dropped it — while
        // the mined set still implies it.
        let weaker = parse(ds.universe(), "A -> {B, CD}");
        assert!(DisjunctiveConstraint::new(weaker.lhs, weaker.rhs.clone()).satisfied_by(ds.db()));
        assert!(!discovery.minimal.contains(&weaker));
        assert!(implication::implies_lattice(
            ds.universe(),
            &discovery.minimal,
            &weaker
        ));
        // The cover is a subset of the minimal set with full deductive power.
        for c in &discovery.cover {
            assert!(discovery.minimal.contains(c));
        }
        for c in &discovery.minimal {
            assert!(
                implication::implies_lattice(ds.universe(), &discovery.cover, c),
                "cover loses {}",
                c.format(ds.universe())
            );
        }
    }

    #[test]
    fn matches_bruteforce_on_examples() {
        for text in ["AB\nABC\nACD\nB\nABCD", "AB\nAC\nABC\nBD\nD", "A\nB\nC", ""] {
            let ds = dataset(text, 4);
            let config = MinerConfig::default();
            let mined = mine(&ds, &config);
            let brute = mine_bruteforce(ds.universe(), ds.db(), &config);
            assert_eq!(mined.minimal, brute, "mismatch on {text:?}");
        }
    }

    #[test]
    fn empty_dataset_mines_the_empty_set_constraint() {
        let ds = dataset("", 3);
        let discovery = mine(&ds, &MinerConfig::default());
        // f(∅) = 0 implies every other satisfied constraint.
        assert_eq!(
            discovery.minimal,
            vec![DiffConstraint::new(AttrSet::EMPTY, Family::empty())]
        );
        assert_eq!(discovery.cover, discovery.minimal);
    }

    #[test]
    fn zero_support_sets_mine_as_negative_border() {
        // D never occurs: D → {} is minimal; AD → {} is not (implied).
        let ds = dataset("AB\nABC\nB", 4);
        let discovery = mine(
            &ds,
            &MinerConfig {
                max_lhs: 2,
                max_rhs: 1,
            },
        );
        let u = ds.universe();
        let d_zero = DiffConstraint::new(u.parse_set("D").unwrap(), Family::empty());
        assert!(discovery.minimal.contains(&d_zero));
        let ad_zero = DiffConstraint::new(u.parse_set("AD").unwrap(), Family::empty());
        assert!(!discovery.minimal.contains(&ad_zero));
    }

    #[test]
    fn budgets_are_respected() {
        let ds = dataset("AB\nABC\nACD\nB\nABCD\nBD", 4);
        for max_lhs in 0..=2 {
            for max_rhs in 0..=2 {
                let config = MinerConfig { max_lhs, max_rhs };
                let discovery = mine(&ds, &config);
                for c in &discovery.minimal {
                    assert!(c.lhs.len() <= max_lhs);
                    assert!(c.rhs.len() <= max_rhs);
                    for y in c.rhs.iter() {
                        assert!(!y.is_empty());
                        assert!(y.is_disjoint(c.lhs));
                    }
                }
            }
        }
    }

    #[test]
    fn stats_reflect_pruning() {
        let ds = dataset("AB\nABC\nACD\nB\nABCD", 4);
        let discovery = mine(&ds, &MinerConfig::default());
        assert!(discovery.stats.lhs_considered >= 11);
        assert!(
            discovery.stats.lhs_pruned > 0,
            "AB-style redundant antecedents must be pruned"
        );
        assert!(discovery.stats.candidates >= discovery.minimal.len());
        assert!(discovery.stats.families_explored > 0);
    }
}
