//! Constraint interning: map each distinct [`DiffConstraint`] to a small
//! dense id.
//!
//! Sessions intern their asserted premises, giving each a [`ConstraintId`]
//! (4 bytes, `Copy`) that the wire protocol reports, and through which
//! [`crate::session::Session::retract_constraint`] finds a premise's
//! position.  Interning is append-only: ids stay valid for the lifetime of
//! the interner, even after the constraint is retracted from the premise
//! set, until the session compacts the table and renumbers every id.
//! Query traffic never touches the interner — the caches are keyed on
//! digest-versioned constraints ([`crate::cache::VersionedKey`]), not ids,
//! so the read path needs no access to this mutable table.

use diffcon::DiffConstraint;
use std::collections::HashMap;

/// Dense identifier of an interned constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstraintId(u32);

impl ConstraintId {
    /// The id as a plain index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only table of distinct constraints, each held once: as its
/// map key.
#[derive(Debug, Default)]
pub struct ConstraintInterner {
    by_constraint: HashMap<DiffConstraint, ConstraintId>,
}

impl ConstraintInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `constraint`, interning it on first sight.
    pub fn intern(&mut self, constraint: &DiffConstraint) -> ConstraintId {
        if let Some(&id) = self.by_constraint.get(constraint) {
            return id;
        }
        let id = ConstraintId(
            u32::try_from(self.len()).expect("more than u32::MAX interned constraints"),
        );
        self.by_constraint.insert(constraint.clone(), id);
        id
    }

    /// Returns the id of an already-interned constraint, if any.
    pub fn lookup(&self, constraint: &DiffConstraint) -> Option<ConstraintId> {
        self.by_constraint.get(constraint).copied()
    }

    /// Number of distinct constraints seen.
    pub fn len(&self) -> usize {
        self.by_constraint.len()
    }

    /// Returns `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_constraint.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setlat::Universe;

    #[test]
    fn interning_is_idempotent_and_resolvable() {
        let u = Universe::of_size(4);
        let mut interner = ConstraintInterner::new();
        let a = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();
        let b = DiffConstraint::parse("B -> {C}", &u).unwrap();
        let ida = interner.intern(&a);
        let idb = interner.intern(&b);
        assert_ne!(ida, idb);
        assert_eq!(interner.intern(&a), ida);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.lookup(&a), Some(ida));
        let c = DiffConstraint::parse("C -> {D}", &u).unwrap();
        assert_eq!(interner.lookup(&c), None);
    }

    #[test]
    fn structurally_equal_constraints_share_an_id() {
        let u = Universe::of_size(4);
        let mut interner = ConstraintInterner::new();
        // Families normalize member order, so these are the same constraint.
        let a = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();
        let b = DiffConstraint::parse("A -> {CD, B}", &u).unwrap();
        assert_eq!(interner.intern(&a), interner.intern(&b));
        assert_eq!(interner.len(), 1);
    }
}
