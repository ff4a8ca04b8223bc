//! The sound and complete inference system of Figure 1, with machine-checkable
//! proof objects and a proof-producing completeness engine.
//!
//! The four primitive rules are:
//!
//! ```text
//! Triviality     ───────────── (Y ∈ 𝒴, Y ⊆ X)
//!                   X → 𝒴
//!
//! Augmentation     X → 𝒴                 Addition      X → 𝒴
//!               ─────────────                        ─────────────
//!                X ∪ Z → 𝒴                            X → 𝒴 ∪ {Z}
//!
//! Elimination    X → 𝒴 ∪ {Z}    X ∪ Z → 𝒴
//!               ───────────────────────────
//!                           X → 𝒴
//! ```
//!
//! A [`Derivation`] is an explicit proof tree over these rules (plus premise
//! leaves); [`Derivation::verify`] re-checks every side condition, so a
//! derivation is independent evidence of implication.  [`derive()`] implements
//! the *completeness* direction constructively (Theorem 4.8): whenever
//! `C ⊨ X → 𝒴` it produces a derivation of `X → 𝒴` from `C` using only the four
//! primitive rules, by recursing along the decomposition identity of
//! Proposition 2.8 (of which the elimination rule is the proof-theoretic
//! shadow).

use crate::constraint::DiffConstraint;
use crate::implication;
use setlat::{AttrSet, Family, Universe};
use std::collections::HashMap;
use std::fmt;

/// The primitive inference rules of Figure 1 (plus the premise leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A leaf referring to one of the premises ("given").
    Premise,
    /// Triviality: `X → 𝒴` with `Y ⊆ X` for some `Y ∈ 𝒴`.
    Triviality,
    /// Augmentation: from `X → 𝒴` infer `X ∪ Z → 𝒴`.
    Augmentation,
    /// Addition: from `X → 𝒴` infer `X → 𝒴 ∪ {Z}`.
    Addition,
    /// Elimination: from `X → 𝒴 ∪ {Z}` and `X ∪ Z → 𝒴` infer `X → 𝒴`.
    Elimination,
}

/// A proof tree over the Figure 1 rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Derivation {
    /// A premise of the derivation (`given` in the paper's Example 4.3).
    Premise {
        /// Index into the premise list the derivation is verified against.
        index: usize,
        /// The premise constraint itself.
        conclusion: DiffConstraint,
    },
    /// An application of the triviality rule.
    Triviality {
        /// The trivial constraint concluded.
        conclusion: DiffConstraint,
    },
    /// An application of the augmentation rule.
    Augmentation {
        /// Derivation of the hypothesis `X → 𝒴`.
        sub: Box<Derivation>,
        /// The set `Z` added to the left-hand side.
        added: AttrSet,
        /// The conclusion `X ∪ Z → 𝒴`.
        conclusion: DiffConstraint,
    },
    /// An application of the addition rule.
    Addition {
        /// Derivation of the hypothesis `X → 𝒴`.
        sub: Box<Derivation>,
        /// The member `Z` added to the right-hand side.
        member: AttrSet,
        /// The conclusion `X → 𝒴 ∪ {Z}`.
        conclusion: DiffConstraint,
    },
    /// An application of the elimination rule.
    Elimination {
        /// Derivation of the first hypothesis `X → 𝒴 ∪ {Z}`.
        with_member: Box<Derivation>,
        /// Derivation of the second hypothesis `X ∪ Z → 𝒴`.
        with_lhs: Box<Derivation>,
        /// The eliminated member `Z`.
        removed: AttrSet,
        /// The conclusion `X → 𝒴`.
        conclusion: DiffConstraint,
    },
}

/// Errors reported by [`Derivation::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Human-readable description of the broken side condition.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid derivation: {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

fn verify_err<T>(message: impl Into<String>) -> Result<T, VerifyError> {
    Err(VerifyError {
        message: message.into(),
    })
}

impl Derivation {
    /// The constraint this derivation concludes.
    pub fn conclusion(&self) -> &DiffConstraint {
        match self {
            Derivation::Premise { conclusion, .. }
            | Derivation::Triviality { conclusion }
            | Derivation::Augmentation { conclusion, .. }
            | Derivation::Addition { conclusion, .. }
            | Derivation::Elimination { conclusion, .. } => conclusion,
        }
    }

    /// The rule applied at the root.
    pub fn rule(&self) -> Rule {
        match self {
            Derivation::Premise { .. } => Rule::Premise,
            Derivation::Triviality { .. } => Rule::Triviality,
            Derivation::Augmentation { .. } => Rule::Augmentation,
            Derivation::Addition { .. } => Rule::Addition,
            Derivation::Elimination { .. } => Rule::Elimination,
        }
    }

    /// Number of rule applications (nodes) in the proof tree.
    pub fn size(&self) -> usize {
        match self {
            Derivation::Premise { .. } | Derivation::Triviality { .. } => 1,
            Derivation::Augmentation { sub, .. } | Derivation::Addition { sub, .. } => {
                1 + sub.size()
            }
            Derivation::Elimination {
                with_member,
                with_lhs,
                ..
            } => 1 + with_member.size() + with_lhs.size(),
        }
    }

    /// Depth of the proof tree.
    pub fn depth(&self) -> usize {
        match self {
            Derivation::Premise { .. } | Derivation::Triviality { .. } => 1,
            Derivation::Augmentation { sub, .. } | Derivation::Addition { sub, .. } => {
                1 + sub.depth()
            }
            Derivation::Elimination {
                with_member,
                with_lhs,
                ..
            } => 1 + with_member.depth().max(with_lhs.depth()),
        }
    }

    /// Counts how many times each rule is used.
    pub fn rule_counts(&self) -> HashMap<Rule, usize> {
        let mut counts = HashMap::new();
        self.count_rules(&mut counts);
        counts
    }

    fn count_rules(&self, counts: &mut HashMap<Rule, usize>) {
        *counts.entry(self.rule()).or_insert(0) += 1;
        match self {
            Derivation::Premise { .. } | Derivation::Triviality { .. } => {}
            Derivation::Augmentation { sub, .. } | Derivation::Addition { sub, .. } => {
                sub.count_rules(counts)
            }
            Derivation::Elimination {
                with_member,
                with_lhs,
                ..
            } => {
                with_member.count_rules(counts);
                with_lhs.count_rules(counts);
            }
        }
    }

    /// Re-checks every side condition of the proof tree against the premise
    /// list.  A derivation that verifies is a sound certificate that the
    /// premises imply its conclusion (by Proposition 4.2).
    pub fn verify(
        &self,
        universe: &Universe,
        premises: &[DiffConstraint],
    ) -> Result<(), VerifyError> {
        match self {
            Derivation::Premise { index, conclusion } => match premises.get(*index) {
                Some(p) if p == conclusion => Ok(()),
                Some(p) => verify_err(format!(
                    "premise #{index} is {} but the leaf claims {}",
                    p.format(universe),
                    conclusion.format(universe)
                )),
                None => verify_err(format!("premise index {index} out of range")),
            },
            Derivation::Triviality { conclusion } => {
                if conclusion.is_trivial() {
                    Ok(())
                } else {
                    verify_err(format!(
                        "{} is not a trivial constraint",
                        conclusion.format(universe)
                    ))
                }
            }
            Derivation::Augmentation {
                sub,
                added,
                conclusion,
            } => {
                sub.verify(universe, premises)?;
                let hyp = sub.conclusion();
                if conclusion.rhs != hyp.rhs {
                    return verify_err("augmentation must not change the right-hand side");
                }
                if conclusion.lhs != hyp.lhs.union(*added) {
                    return verify_err("augmentation conclusion LHS must be X ∪ Z");
                }
                Ok(())
            }
            Derivation::Addition {
                sub,
                member,
                conclusion,
            } => {
                sub.verify(universe, premises)?;
                let hyp = sub.conclusion();
                if conclusion.lhs != hyp.lhs {
                    return verify_err("addition must not change the left-hand side");
                }
                if conclusion.rhs != hyp.rhs.with_member(*member) {
                    return verify_err("addition conclusion RHS must be 𝒴 ∪ {Z}");
                }
                Ok(())
            }
            Derivation::Elimination {
                with_member,
                with_lhs,
                removed,
                conclusion,
            } => {
                with_member.verify(universe, premises)?;
                with_lhs.verify(universe, premises)?;
                let first = with_member.conclusion();
                let second = with_lhs.conclusion();
                if first.lhs != conclusion.lhs {
                    return verify_err("elimination: first hypothesis must have LHS X");
                }
                if first.rhs != conclusion.rhs.with_member(*removed) {
                    return verify_err("elimination: first hypothesis must have RHS 𝒴 ∪ {Z}");
                }
                if second.lhs != conclusion.lhs.union(*removed) {
                    return verify_err("elimination: second hypothesis must have LHS X ∪ Z");
                }
                if second.rhs != conclusion.rhs {
                    return verify_err("elimination: second hypothesis must have RHS 𝒴");
                }
                Ok(())
            }
        }
    }

    /// Renders the derivation as a numbered list of steps (in the style of the
    /// paper's Example 4.3).
    pub fn format(&self, universe: &Universe) -> String {
        let mut lines = Vec::new();
        self.format_steps(universe, &mut lines);
        lines
            .iter()
            .enumerate()
            .map(|(i, line)| format!("({}) {}", i + 1, line))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn format_steps(&self, universe: &Universe, lines: &mut Vec<String>) -> usize {
        let line = match self {
            Derivation::Premise { index, conclusion } => {
                format!("{}  [given #{index}]", conclusion.format(universe))
            }
            Derivation::Triviality { conclusion } => {
                format!("{}  [triviality]", conclusion.format(universe))
            }
            Derivation::Augmentation {
                sub, conclusion, ..
            } => {
                let h = sub.format_steps(universe, lines);
                format!(
                    "{}  [augmentation on ({})]",
                    conclusion.format(universe),
                    h + 1
                )
            }
            Derivation::Addition {
                sub, conclusion, ..
            } => {
                let h = sub.format_steps(universe, lines);
                format!("{}  [addition on ({})]", conclusion.format(universe), h + 1)
            }
            Derivation::Elimination {
                with_member,
                with_lhs,
                conclusion,
                ..
            } => {
                let a = with_member.format_steps(universe, lines);
                let b = with_lhs.format_steps(universe, lines);
                format!(
                    "{}  [elimination on ({}) and ({})]",
                    conclusion.format(universe),
                    a + 1,
                    b + 1
                )
            }
        };
        lines.push(line);
        lines.len() - 1
    }
}

/// Builds a premise leaf (checking the index).
pub fn premise(premises: &[DiffConstraint], index: usize) -> Derivation {
    Derivation::Premise {
        index,
        conclusion: premises[index].clone(),
    }
}

/// Builds a triviality step.
///
/// # Errors
/// Fails if the constraint is not trivial.
pub fn triviality(conclusion: DiffConstraint) -> Result<Derivation, VerifyError> {
    if conclusion.is_trivial() {
        Ok(Derivation::Triviality { conclusion })
    } else {
        verify_err("triviality requires Y ⊆ X for some Y ∈ 𝒴")
    }
}

/// Builds an augmentation step `X → 𝒴 ⊢ X ∪ Z → 𝒴`.
pub fn augmentation(sub: Derivation, z: AttrSet) -> Derivation {
    let hyp = sub.conclusion().clone();
    Derivation::Augmentation {
        conclusion: DiffConstraint::new(hyp.lhs.union(z), hyp.rhs),
        sub: Box::new(sub),
        added: z,
    }
}

/// Builds an addition step `X → 𝒴 ⊢ X → 𝒴 ∪ {Z}`.
pub fn addition(sub: Derivation, z: AttrSet) -> Derivation {
    let hyp = sub.conclusion().clone();
    Derivation::Addition {
        conclusion: DiffConstraint::new(hyp.lhs, hyp.rhs.with_member(z)),
        sub: Box::new(sub),
        member: z,
    }
}

/// Builds an elimination step from derivations of `X → 𝒴 ∪ {Z}` and `X ∪ Z → 𝒴`.
///
/// # Errors
/// Fails if the two hypotheses do not have the required shapes.
pub fn elimination(
    with_member: Derivation,
    with_lhs: Derivation,
    z: AttrSet,
) -> Result<Derivation, VerifyError> {
    let first = with_member.conclusion().clone();
    let second = with_lhs.conclusion().clone();
    let conclusion = DiffConstraint::new(first.lhs, second.rhs.clone());
    if first.rhs != conclusion.rhs.with_member(z) {
        return verify_err("elimination: first hypothesis RHS must be 𝒴 ∪ {Z}");
    }
    if second.lhs != first.lhs.union(z) {
        return verify_err("elimination: second hypothesis LHS must be X ∪ Z");
    }
    Ok(Derivation::Elimination {
        with_member: Box::new(with_member),
        with_lhs: Box::new(with_lhs),
        removed: z,
        conclusion,
    })
}

/// Decides derivability and, when derivable, produces an explicit derivation of
/// `goal` from `premises` using only the Figure 1 rules.
///
/// By Theorem 4.8 (completeness) together with Proposition 4.2 (soundness),
/// this returns `Some(proof)` iff `premises ⊨ goal`.  The construction follows
/// the completeness proof: at each step the left-hand side of the subgoal only
/// grows, so the recursion terminates after at most `|S|` nested eliminations;
/// subproofs are memoized on their subgoal.
pub fn derive(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
) -> Option<Derivation> {
    if !implication::implies(universe, premises, goal) {
        return None;
    }
    let mut memo: HashMap<DiffConstraint, Derivation> = HashMap::new();
    Some(derive_implied(universe, premises, goal, &mut memo))
}

/// Convenience wrapper: `premises ⊢ goal` (equivalently, by soundness and
/// completeness, `premises ⊨ goal`).
pub fn derivable(universe: &Universe, premises: &[DiffConstraint], goal: &DiffConstraint) -> bool {
    derive(universe, premises, goal).is_some()
}

/// Internal: construct a derivation of `goal`, assuming `premises ⊨ goal`.
fn derive_implied(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
    memo: &mut HashMap<DiffConstraint, Derivation>,
) -> Derivation {
    if let Some(found) = memo.get(goal) {
        return found.clone();
    }
    let derivation = build(universe, premises, goal, memo);
    debug_assert_eq!(derivation.conclusion(), goal);
    memo.insert(goal.clone(), derivation.clone());
    derivation
}

fn build(
    universe: &Universe,
    premises: &[DiffConstraint],
    goal: &DiffConstraint,
    memo: &mut HashMap<DiffConstraint, Derivation>,
) -> Derivation {
    // Case 1: the goal is trivial.
    if goal.is_trivial() {
        return triviality(goal.clone()).expect("checked trivial");
    }

    // Case 2: the goal is nontrivial, so X itself belongs to L(X, 𝒴) ⊆ L(C) and
    // some premise's lattice contains X.  Prefer a premise that minimizes the
    // number of members we will need to eliminate afterwards.
    let (index, chosen) = premises
        .iter()
        .enumerate()
        .filter(|(_, p)| p.lattice_contains(goal.lhs))
        .min_by_key(|(_, p)| p.rhs.iter().filter(|&m| !goal.rhs.contains(m)).count())
        .expect("C ⊨ goal and goal nontrivial, so X ∈ L(C)");

    // Start from the premise X' → 𝒴'.
    let mut derivation = premise(premises, index);

    // Augment the left-hand side from X' up to X (single augmentation step).
    if chosen.lhs != goal.lhs {
        derivation = augmentation(derivation, goal.lhs.difference(chosen.lhs));
    }

    // Add every member of the goal family not already present: X → 𝒴' ∪ 𝒴.
    for member in goal.rhs.iter() {
        if !derivation.conclusion().rhs.contains(member) {
            derivation = addition(derivation, member);
        }
    }

    // Eliminate the leftover members of 𝒴' − 𝒴 one at a time.  For each such Z
    // we need X ∪ Z → (current RHS − {Z}), which is again implied by C (its
    // lattice shrinks), so recurse; the LHS strictly grows, ensuring termination.
    let extras: Vec<AttrSet> = chosen
        .rhs
        .iter()
        .filter(|&m| !goal.rhs.contains(m))
        .collect();
    for z in extras {
        let current = derivation.conclusion().clone();
        let target_rhs: Family = current.rhs.without_member(z);
        let side_goal = DiffConstraint::new(current.lhs.union(z), target_rhs);
        let side = derive_implied(universe, premises, &side_goal, memo);
        derivation = elimination(derivation, side, z).expect("shapes match by construction");
    }

    derivation
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u3() -> Universe {
        Universe::of_size(3)
    }

    fn u4() -> Universe {
        Universe::of_size(4)
    }

    fn parse(u: &Universe, texts: &[&str]) -> Vec<DiffConstraint> {
        texts
            .iter()
            .map(|t| DiffConstraint::parse(t, u).unwrap())
            .collect()
    }

    #[test]
    fn derivation_constructors_and_verification() {
        let u = u4();
        let premises = parse(&u, &["A -> {B}"]);
        let d = premise(&premises, 0);
        assert!(d.verify(&u, &premises).is_ok());

        let aug = augmentation(d.clone(), u.parse_set("C").unwrap());
        assert_eq!(
            aug.conclusion(),
            &DiffConstraint::parse("AC -> {B}", &u).unwrap()
        );
        assert!(aug.verify(&u, &premises).is_ok());

        let add = addition(aug, u.parse_set("CD").unwrap());
        assert_eq!(
            add.conclusion(),
            &DiffConstraint::parse("AC -> {B, CD}", &u).unwrap()
        );
        assert!(add.verify(&u, &premises).is_ok());

        // A forged premise leaf fails verification.
        let forged = Derivation::Premise {
            index: 0,
            conclusion: DiffConstraint::parse("A -> {C}", &u).unwrap(),
        };
        assert!(forged.verify(&u, &premises).is_err());

        // A bogus triviality step fails construction and verification.
        assert!(triviality(DiffConstraint::parse("A -> {B}", &u).unwrap()).is_err());
        let bogus = Derivation::Triviality {
            conclusion: DiffConstraint::parse("A -> {B}", &u).unwrap(),
        };
        assert!(bogus.verify(&u, &premises).is_err());
    }

    #[test]
    fn example_3_4_derivation() {
        let u = u3();
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let goal = DiffConstraint::parse("A -> {C}", &u).unwrap();
        let proof = derive(&u, &premises, &goal).expect("implied");
        assert_eq!(proof.conclusion(), &goal);
        proof.verify(&u, &premises).expect("proof must verify");
        // It is a genuine derivation: it uses elimination (the only way to drop
        // the member B picked up from the first premise).
        assert!(proof.rule_counts().contains_key(&Rule::Elimination));
    }

    #[test]
    fn example_4_3_derivation() {
        // C = {A → {BC, CD}, C → {D}} ⊢ AB → {D}.
        let u = u4();
        let premises = parse(&u, &["A -> {BC, CD}", "C -> {D}"]);
        let goal = DiffConstraint::parse("AB -> {D}", &u).unwrap();
        let proof = derive(&u, &premises, &goal).expect("implied per Example 4.3");
        proof.verify(&u, &premises).expect("proof must verify");
        assert_eq!(proof.conclusion(), &goal);
    }

    #[test]
    fn non_implied_goals_are_not_derivable() {
        let u = u3();
        let premises = parse(&u, &["A -> {B}", "B -> {C}"]);
        let bad = DiffConstraint::parse("C -> {A}", &u).unwrap();
        assert!(derive(&u, &premises, &bad).is_none());
        assert!(!derivable(&u, &premises, &bad));
    }

    #[test]
    fn trivial_goal_derivation() {
        let u = u4();
        let goal = DiffConstraint::parse("ABC -> {BC}", &u).unwrap();
        let proof = derive(&u, &[], &goal).expect("trivial");
        assert_eq!(proof.rule(), Rule::Triviality);
        proof.verify(&u, &[]).unwrap();
    }

    #[test]
    fn soundness_every_derivation_is_semantically_valid() {
        // Soundness (Proposition 4.2): whatever `derive` produces must be implied —
        // checked here by the *semantic* procedure to keep the check independent.
        let u = u4();
        let premises = parse(&u, &["A -> {B, CD}", "C -> {D}", "BD -> {A}"]);
        let goals = parse(
            &u,
            &[
                "A -> {B, CD}",
                "AC -> {B, D}",
                "A -> {B, C, D}",
                "ABC -> {D}",
                "AB -> {B}",
            ],
        );
        for goal in &goals {
            if let Some(proof) = derive(&u, &premises, goal) {
                proof.verify(&u, &premises).expect("verification");
                assert!(
                    implication::implies_semantic(&u, &premises, goal),
                    "derived a non-implied constraint {}",
                    goal.format(&u)
                );
            }
        }
    }

    #[test]
    fn completeness_on_exhaustive_small_universe() {
        // Over S = {A,B,C} with singleton-member RHS families, derive() succeeds
        // exactly on the implied goals.
        let u = u3();
        let premises = parse(&u, &["A -> {B}", "BC -> {A}"]);
        for lhs_mask in 0u64..8 {
            for fam_chooser in 0u64..8 {
                let lhs = AttrSet::from_bits(lhs_mask);
                let members: Vec<AttrSet> = (0..3)
                    .filter(|i| (fam_chooser >> i) & 1 == 1)
                    .map(AttrSet::singleton)
                    .collect();
                let goal = DiffConstraint::new(lhs, Family::from_sets(members));
                let implied = implication::implies_lattice(&u, &premises, &goal);
                let proof = derive(&u, &premises, &goal);
                assert_eq!(
                    implied,
                    proof.is_some(),
                    "completeness mismatch at {}",
                    goal.format(&u)
                );
                if let Some(p) = proof {
                    p.verify(&u, &premises).unwrap();
                    assert_eq!(p.conclusion(), &goal);
                }
            }
        }
    }

    #[test]
    fn derivation_statistics_and_formatting() {
        let u = u4();
        let premises = parse(&u, &["A -> {BC, CD}", "C -> {D}"]);
        let goal = DiffConstraint::parse("AB -> {D}", &u).unwrap();
        let proof = derive(&u, &premises, &goal).unwrap();
        assert!(proof.size() >= 3);
        assert!(proof.depth() >= 2);
        let text = proof.format(&u);
        assert!(text.contains("given"));
        assert!(text.contains("AB → {D}"));
        let counts = proof.rule_counts();
        let total: usize = counts.values().sum();
        assert_eq!(total, proof.size());
    }

    #[test]
    fn elimination_constructor_rejects_bad_shapes() {
        let u = u4();
        let premises = parse(&u, &["A -> {B, C}", "AD -> {B}"]);
        let first = premise(&premises, 0);
        let second = premise(&premises, 1);
        // Eliminating C would require the second hypothesis to have LHS AC, not AD.
        assert!(elimination(first, second, u.parse_set("C").unwrap()).is_err());
    }
}
