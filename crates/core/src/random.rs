//! Random constraint generation for tests and benchmarks.
//!
//! The paper reports no datasets, so the scaling experiments generate random
//! constraint-implication instances with controllable shape: universe size,
//! number of premises, family width, member size, and whether the goal is
//! forced to be implied (by composing premises) or left to chance.

use crate::constraint::DiffConstraint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setlat::{AttrSet, Family, Universe};

/// Shape parameters for random constraint generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintShape {
    /// Maximum size of the left-hand side.
    pub max_lhs: usize,
    /// Maximum number of members in the right-hand side family.
    pub max_members: usize,
    /// Maximum size of each member.
    pub max_member_size: usize,
    /// Whether trivial constraints are allowed in the output.
    pub allow_trivial: bool,
}

impl Default for ConstraintShape {
    fn default() -> Self {
        ConstraintShape {
            max_lhs: 2,
            max_members: 2,
            max_member_size: 2,
            allow_trivial: false,
        }
    }
}

/// A seeded random generator of constraints over a fixed universe.
#[derive(Debug)]
pub struct ConstraintGenerator {
    rng: StdRng,
    n: usize,
}

impl ConstraintGenerator {
    /// Creates a generator over a universe of `universe.len()` attributes.
    pub fn new(seed: u64, universe: &Universe) -> Self {
        ConstraintGenerator {
            rng: StdRng::seed_from_u64(seed),
            n: universe.len(),
        }
    }

    /// Draws a random nonempty attribute set of at most `max_size` attributes.
    pub fn random_set(&mut self, max_size: usize) -> AttrSet {
        let size = self.rng.gen_range(1..=max_size.max(1)).min(self.n);
        let mut set = AttrSet::EMPTY;
        while set.len() < size {
            set.insert(self.rng.gen_range(0..self.n));
        }
        set
    }

    /// Draws a random (possibly empty) attribute set.
    pub fn random_possibly_empty_set(&mut self, max_size: usize) -> AttrSet {
        if self.rng.gen_bool(0.15) {
            AttrSet::EMPTY
        } else {
            self.random_set(max_size)
        }
    }

    /// Draws one random constraint with the given shape.
    pub fn constraint(&mut self, shape: &ConstraintShape) -> DiffConstraint {
        loop {
            let lhs = self.random_possibly_empty_set(shape.max_lhs);
            let member_count = self.rng.gen_range(0..=shape.max_members);
            let members: Vec<AttrSet> = (0..member_count)
                .map(|_| self.random_set(shape.max_member_size))
                .collect();
            let candidate = DiffConstraint::new(lhs, Family::from_sets(members));
            if shape.allow_trivial || !candidate.is_trivial() {
                return candidate;
            }
        }
    }

    /// Draws a set of `count` random constraints.
    pub fn constraint_set(&mut self, count: usize, shape: &ConstraintShape) -> Vec<DiffConstraint> {
        (0..count).map(|_| self.constraint(shape)).collect()
    }

    /// Draws a goal that is guaranteed to be **implied** by `premises`, by
    /// walking a short chain of sound rule applications (augmentation of a
    /// premise, then additions) — useful for benchmarking the "yes" side of the
    /// decision problem without paying for an implication check up front.
    pub fn implied_goal(&mut self, premises: &[DiffConstraint]) -> DiffConstraint {
        if premises.is_empty() {
            // Only trivial constraints are implied by the empty set.
            let member = self.random_set(2);
            let lhs = member.union(self.random_possibly_empty_set(2));
            return DiffConstraint::new(lhs, Family::single(member));
        }
        let base = premises[self.rng.gen_range(0..premises.len())].clone();
        // Augment the LHS…
        let lhs = base.lhs.union(self.random_possibly_empty_set(2));
        // …and add up to two extra members.
        let mut rhs = base.rhs.clone();
        for _ in 0..self.rng.gen_range(0..=2) {
            rhs = rhs.with_member(self.random_set(2));
        }
        DiffConstraint::new(lhs, rhs)
    }
}

/// Generates a full random implication instance: `count` premises plus a goal
/// that is implied with probability ~`implied_bias` (by construction) and
/// random otherwise.
pub fn random_instance(
    seed: u64,
    universe: &Universe,
    count: usize,
    shape: &ConstraintShape,
    implied_bias: f64,
) -> (Vec<DiffConstraint>, DiffConstraint) {
    let mut gen = ConstraintGenerator::new(seed, universe);
    let premises = gen.constraint_set(count, shape);
    let goal = if gen.rng.gen_bool(implied_bias.clamp(0.0, 1.0)) {
        gen.implied_goal(&premises)
    } else {
        gen.constraint(shape)
    };
    (premises, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication;

    #[test]
    fn generator_is_reproducible() {
        let u = Universe::of_size(6);
        let shape = ConstraintShape::default();
        let a = ConstraintGenerator::new(7, &u).constraint_set(5, &shape);
        let b = ConstraintGenerator::new(7, &u).constraint_set(5, &shape);
        let c = ConstraintGenerator::new(8, &u).constraint_set(5, &shape);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shapes_are_respected() {
        let u = Universe::of_size(8);
        let shape = ConstraintShape {
            max_lhs: 3,
            max_members: 2,
            max_member_size: 2,
            allow_trivial: false,
        };
        let mut gen = ConstraintGenerator::new(3, &u);
        for _ in 0..50 {
            let c = gen.constraint(&shape);
            assert!(c.lhs.len() <= 3);
            assert!(c.rhs.len() <= 2);
            for m in c.rhs.iter() {
                assert!(m.len() <= 2 && !m.is_empty());
            }
            assert!(!c.is_trivial());
        }
    }

    #[test]
    fn implied_goals_are_implied() {
        let u = Universe::of_size(6);
        let shape = ConstraintShape::default();
        for seed in 0..20u64 {
            let mut gen = ConstraintGenerator::new(seed, &u);
            let premises = gen.constraint_set(4, &shape);
            let goal = gen.implied_goal(&premises);
            assert!(
                implication::implies_lattice(&u, &premises, &goal),
                "seed {seed}: goal {} not implied",
                goal.format(&u)
            );
        }
    }

    #[test]
    fn random_instances_cover_both_outcomes() {
        let u = Universe::of_size(6);
        let shape = ConstraintShape::default();
        let mut implied = 0;
        let mut not_implied = 0;
        for seed in 0..40u64 {
            let (premises, goal) = random_instance(seed, &u, 4, &shape, 0.5);
            if implication::implies_lattice(&u, &premises, &goal) {
                implied += 1;
            } else {
                not_implied += 1;
            }
        }
        assert!(implied > 0, "expected at least one implied instance");
        assert!(not_implied > 0, "expected at least one refuted instance");
    }
}
