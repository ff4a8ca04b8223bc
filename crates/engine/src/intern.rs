//! Constraint interning: map each distinct asserted [`DiffConstraint`] to a
//! small dense id, and record which of them are premises now.
//!
//! Sessions intern their asserted premises, giving each a [`ConstraintId`]
//! (4 bytes, `Copy`) that the wire protocol reports.  The interner also
//! answers whether a constraint is a premise, so
//! [`crate::session::Session::assert_constraint`] and
//! [`crate::session::Session::retract_constraint`] decide "already
//! asserted" and "not asserted" with one hash probe.  Interning is
//! append-only: ids stay valid for the lifetime of the interner, even after
//! the constraint is retracted from the premise set, until the session
//! compacts the table, re-interning its premises in order.  Query traffic
//! never touches the interner — the caches are keyed on digest-versioned
//! constraints ([`crate::cache::VersionedKey`]), not ids.  A key of at most
//! four members holds its family inline, so the interner's copy of such a
//! premise takes no heap block of its own.

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

/// An append-only table of distinct constraints, each held once, as its
/// map key, with its id and whether it is a premise now.
#[derive(Debug, Default)]
pub struct ConstraintInterner {
    by_constraint: HashMap<DiffConstraint, (ConstraintId, bool)>,
}

impl ConstraintInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `constraint` as a premise, interning it on first sight.
    /// Returns its id, and `true` when it was not a premise already.
    pub fn assert(&mut self, constraint: &DiffConstraint) -> (ConstraintId, bool) {
        if let Some((id, premise)) = self.by_constraint.get_mut(constraint) {
            return (*id, !std::mem::replace(premise, true));
        }
        let id = ConstraintId(
            u32::try_from(self.len()).expect("more than u32::MAX interned constraints"),
        );
        self.by_constraint.insert(constraint.clone(), (id, true));
        (id, true)
    }

    /// Records that `constraint` is no longer a premise.  Returns its id
    /// when it was one; it stays interned either way.
    pub fn retract(&mut self, constraint: &DiffConstraint) -> Option<ConstraintId> {
        let (id, premise) = self.by_constraint.get_mut(constraint)?;
        std::mem::replace(premise, false).then_some(*id)
    }

    /// Returns the id of an already-interned constraint, if any.
    pub fn lookup(&self, constraint: &DiffConstraint) -> Option<ConstraintId> {
        self.by_constraint.get(constraint).map(|&(id, _)| id)
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
        let (ida, added) = interner.assert(&a);
        assert!(added);
        let (idb, _) = interner.assert(&b);
        assert_ne!(ida, idb);
        assert_eq!(interner.assert(&a), (ida, false), "already a premise");
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.lookup(&a), Some(ida));
        let c = DiffConstraint::parse("C -> {D}", &u).unwrap();
        assert_eq!(interner.lookup(&c), None);
        assert_eq!(interner.retract(&c), None, "never interned");
        // A retracted constraint keeps its id and is a premise no more.
        assert_eq!(interner.retract(&a), Some(ida));
        assert_eq!(interner.retract(&a), None);
        assert_eq!(interner.lookup(&a), Some(ida));
        assert_eq!(interner.assert(&a), (ida, true), "re-asserted, same id");
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn structurally_equal_constraints_share_an_id() {
        let u = Universe::of_size(4);
        let mut interner = ConstraintInterner::new();
        // Families normalize member order, so these are the same constraint.
        let a = DiffConstraint::parse("A -> {B, CD}", &u).unwrap();
        let b = DiffConstraint::parse("A -> {CD, B}", &u).unwrap();
        assert_eq!(interner.assert(&a).0, interner.assert(&b).0);
        assert_eq!(interner.len(), 1);
    }
}
