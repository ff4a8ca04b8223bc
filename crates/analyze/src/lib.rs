//! # diffcon-analyze — static analysis for differential-constraint programs
//!
//! The serving engine treats a session's premise family and known values as
//! ground truth and pays for them on every query: each premise is another
//! lattice to cover in implication checks, another row killer in the bound
//! engine's density system, another planner dispatch.  Nothing, however,
//! ever analyzes the *program* itself — a session can accumulate premises
//! that are implied by the rest of the family, knowns that contradict each
//! other under the asserted constraints (discovered only when a `bound`
//! query finally returns infeasible), and dead density variables.
//!
//! This crate closes that gap with one analyzer, a pure function with no
//! engine dependency:
//!
//! * [`premise`] — per-snapshot analysis of a premise family and its knowns:
//!   redundancy detection with implying witnesses, pre-query infeasibility
//!   detection with a minimal conflicting known set, dead-density-variable
//!   detection, and [`premise::minimal_core`], the redundancy-reduced family
//!   with a machine-checkable certificate ([`premise::check_certificate`]).
//!   Answering from the reduced core is *provably* answer-preserving — the
//!   module docs carry the argument — which is what lets a serving layer
//!   swap the core in for the raw family.
//!
//! Protocol scripts are checked by running them: `diffcond check` sends each
//! line through an in-process server and reports what the run answers, so
//! there is no second model of the session to keep in step with the server.
//!
//! The manifest still lists `diffcon-discover`, which no source here uses
//! any more: dropping it would rewrite the serving benchmark's lock file,
//! which changes only together with the benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod premise;

pub use premise::{
    analyze, check_certificate, minimal_core, Analysis, Dropped, MinimalCore, Redundancy,
};
