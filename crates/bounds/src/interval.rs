//! Closed real intervals with infinite endpoints, and the sum accumulator the
//! derivation passes use to combine per-variable bounds soundly.
//!
//! Endpoints are `f64` with `±∞` standing for "unbounded on that side".  The
//! workloads this crate serves (supports of itemsets, probabilistic masses)
//! take integer or small rational values, so all finite arithmetic here is
//! exact; infinity is handled symbolically by [`SumAcc`], which counts
//! infinite contributions instead of adding them (adding `+∞` and later
//! subtracting one element back out would otherwise poison the sum).

use std::fmt;

/// A closed interval `[lo, hi]`, possibly unbounded on either side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// The lower endpoint (`-∞` when unbounded below).
    pub lo: f64,
    /// The upper endpoint (`+∞` when unbounded above).
    pub hi: f64,
}

impl Interval {
    /// The whole real line `(-∞, +∞)`.
    pub const UNBOUNDED: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if an endpoint is NaN or `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Interval {
        assert!(
            !lo.is_nan() && !hi.is_nan(),
            "interval endpoints must not be NaN"
        );
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The single point `[v, v]`.
    pub fn point(v: f64) -> Interval {
        Interval::new(v, v)
    }

    /// The nonnegative half-line `[0, +∞)`.
    pub fn nonnegative() -> Interval {
        Interval::new(0.0, f64::INFINITY)
    }

    /// Returns `true` iff the interval pins a single value.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Width `hi − lo` (`+∞` when unbounded).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Returns `true` iff `v` lies inside (within `tol` of an endpoint).
    pub fn contains(&self, v: f64, tol: f64) -> bool {
        v >= self.lo - tol && v <= self.hi + tol
    }

    /// Returns `true` iff this interval lies inside `other` (within `tol`).
    pub fn within(&self, other: &Interval, tol: f64) -> bool {
        self.lo >= other.lo - tol && self.hi <= other.hi + tol
    }

    /// The intersection with `other`, or `None` when they are disjoint by
    /// more than `tol` (an infeasibility witness for the caller).
    pub fn intersect(&self, other: &Interval, tol: f64) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi + tol {
            None
        } else {
            // Snap away sub-tolerance inversions produced by rounding.
            Some(Interval { lo, hi: hi.max(lo) })
        }
    }

    /// The interval shifted by `c`: `[lo + c, hi + c]`.
    pub fn shift(&self, c: f64) -> Interval {
        Interval {
            lo: self.lo + c,
            hi: self.hi + c,
        }
    }

    /// The reflected interval `c − [lo, hi] = [c − hi, c − lo]`.
    pub fn reflect(&self, c: f64) -> Interval {
        Interval {
            lo: c - self.hi,
            hi: c - self.lo,
        }
    }

    /// Formats one endpoint for the wire protocol: integers without a
    /// fractional part, `inf`/`-inf` for unbounded ends.
    ///
    /// [`Interval::parse_endpoint`] is the exact inverse:
    /// `parse_endpoint(&format_endpoint(v)) == Ok(v)` for every non-NaN
    /// `v` (with `-0.0` normalized to `0.0`, the one value the wire does
    /// not distinguish) — the round-trip property the bounds test suite
    /// checks over random endpoints, including the infinite ones.
    pub fn format_endpoint(v: f64) -> String {
        let mut out = String::new();
        Interval::write_endpoint(&mut out, v);
        out
    }

    /// Appends one endpoint in the wire form of
    /// [`Interval::format_endpoint`] to `out`, allocating nothing once
    /// `out` has room.
    pub fn write_endpoint(out: &mut String, v: f64) {
        use std::fmt::Write as _;
        if v == f64::INFINITY {
            out.push_str("inf");
        } else if v == f64::NEG_INFINITY {
            out.push_str("-inf");
        } else if v.fract() == 0.0 && v.abs() < 1e15 {
            // Integral values print without a fractional part; the cast
            // also normalizes `-0.0` to `0`, so the sign of zero never
            // reaches the wire.
            _ = write!(out, "{}", v as i64);
        } else {
            _ = write!(out, "{v}");
        }
    }

    /// Parses one wire endpoint — the inverse of
    /// [`Interval::format_endpoint`].  Accepts `inf` / `-inf` (the only
    /// spellings the formatter emits) and finite decimals; rejects NaN and
    /// the alternative infinity spellings `f64`'s own parser would accept,
    /// so that everything this returns can be fed back through the
    /// formatter unchanged.
    ///
    /// # Errors
    /// A human-readable message naming the offending text.
    pub fn parse_endpoint(text: &str) -> Result<f64, String> {
        match text {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            _ => {
                let v: f64 = text
                    .parse()
                    .map_err(|_| format!("not a number: `{text}`"))?;
                if v.is_nan() || v.is_infinite() {
                    return Err(format!("not a wire endpoint: `{text}`"));
                }
                // The formatter never emits a signed zero; normalize so the
                // round trip is an identity on what it can emit.
                if v == 0.0 {
                    return Ok(0.0);
                }
                Ok(v)
            }
        }
    }

    /// Parses an interval from its two wire endpoints (as printed in
    /// `bound lo=… hi=…` replies).
    ///
    /// # Errors
    /// Rejects unparseable endpoints and inverted intervals (`lo > hi`)
    /// instead of panicking, so untrusted reply text is safe to feed in.
    pub fn parse_endpoints(lo: &str, hi: &str) -> Result<Interval, String> {
        let lo = Interval::parse_endpoint(lo)?;
        let hi = Interval::parse_endpoint(hi)?;
        if lo > hi {
            return Err(format!("inverted interval [{lo}, {hi}]"));
        }
        Ok(Interval { lo, hi })
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}]",
            Interval::format_endpoint(self.lo),
            Interval::format_endpoint(self.hi)
        )
    }
}

/// A sum of interval endpoints that tracks infinite contributions by count,
/// so removing one term back out of the total stays exact.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumAcc {
    finite: f64,
    pos_inf: usize,
    neg_inf: usize,
}

impl SumAcc {
    /// The empty sum.
    pub fn new() -> SumAcc {
        SumAcc::default()
    }

    /// Adds one endpoint.
    pub fn add(&mut self, v: f64) {
        if v == f64::INFINITY {
            self.pos_inf += 1;
        } else if v == f64::NEG_INFINITY {
            self.neg_inf += 1;
        } else {
            self.finite += v;
        }
    }

    /// The total (`±∞` when any infinite term was added; a sum containing
    /// both signs of infinity cannot arise from endpoint sums of one side).
    pub fn total(&self) -> f64 {
        debug_assert!(
            self.pos_inf == 0 || self.neg_inf == 0,
            "endpoint sums never mix +∞ and -∞"
        );
        if self.pos_inf > 0 {
            f64::INFINITY
        } else if self.neg_inf > 0 {
            f64::NEG_INFINITY
        } else {
            self.finite
        }
    }

    /// The total of the terms added to `self` but not to `part`, whose terms
    /// must be a sub-multiset of `self`'s: infinite contributions cancel by
    /// count, and the finite parts subtract once (exact when both are
    /// integral).
    pub fn total_minus(&self, part: &SumAcc) -> f64 {
        SumAcc {
            finite: self.finite - part.finite,
            pos_inf: self.pos_inf - part.pos_inf,
            neg_inf: self.neg_inf - part.neg_inf,
        }
        .total()
    }

    /// The total with one previously added endpoint `v` removed.
    pub fn total_without(&self, v: f64) -> f64 {
        let (pos, neg, finite) = if v == f64::INFINITY {
            (self.pos_inf - 1, self.neg_inf, self.finite)
        } else if v == f64::NEG_INFINITY {
            (self.pos_inf, self.neg_inf - 1, self.finite)
        } else {
            (self.pos_inf, self.neg_inf, self.finite - v)
        };
        if pos > 0 {
            f64::INFINITY
        } else if neg > 0 {
            f64::NEG_INFINITY
        } else {
            finite
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_predicates() {
        let i = Interval::new(1.0, 4.0);
        assert!(!i.is_exact());
        assert_eq!(i.width(), 3.0);
        assert!(i.contains(1.0, 0.0));
        assert!(i.contains(4.0, 0.0));
        assert!(!i.contains(4.5, 0.0));
        assert!(Interval::point(2.0).is_exact());
        assert!(Interval::UNBOUNDED.contains(1e300, 0.0));
        assert_eq!(Interval::nonnegative().lo, 0.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn intersection() {
        let a = Interval::new(0.0, 5.0);
        let b = Interval::new(3.0, f64::INFINITY);
        assert_eq!(a.intersect(&b, 0.0), Some(Interval::new(3.0, 5.0)));
        let c = Interval::new(6.0, 7.0);
        assert_eq!(a.intersect(&c, 0.0), None);
        // Sub-tolerance gaps snap to a point instead of failing.
        let d = Interval::new(5.0 + 1e-12, 9.0);
        let snapped = a.intersect(&d, 1e-9).unwrap();
        assert!(snapped.is_exact());
    }

    #[test]
    fn shift_and_reflect() {
        let i = Interval::new(1.0, 3.0);
        assert_eq!(i.shift(2.0), Interval::new(3.0, 5.0));
        assert_eq!(i.reflect(10.0), Interval::new(7.0, 9.0));
        let half = Interval::new(2.0, f64::INFINITY);
        assert_eq!(half.reflect(10.0), Interval::new(f64::NEG_INFINITY, 8.0));
    }

    #[test]
    fn endpoint_formatting() {
        assert_eq!(Interval::format_endpoint(40.0), "40");
        assert_eq!(Interval::format_endpoint(-2.5), "-2.5");
        assert_eq!(Interval::format_endpoint(f64::INFINITY), "inf");
        assert_eq!(Interval::format_endpoint(f64::NEG_INFINITY), "-inf");
        assert_eq!(Interval::new(0.0, 40.0).to_string(), "[0, 40]");
        // The sign of zero never reaches the wire.
        assert_eq!(Interval::format_endpoint(-0.0), "0");
    }

    #[test]
    fn endpoint_parsing_inverts_formatting() {
        for v in [
            0.0,
            -0.0,
            40.0,
            -2.5,
            0.1,
            1.0 / 3.0,
            -1e-17,
            1e15,
            -1e15,
            2e15 + 2.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let wire = Interval::format_endpoint(v);
            let back = Interval::parse_endpoint(&wire)
                .unwrap_or_else(|e| panic!("`{wire}` did not re-parse: {e}"));
            assert_eq!(back, v, "round trip moved {v:?} via `{wire}`");
            // …and the reparse is *stable*: formatting again is identical.
            assert_eq!(Interval::format_endpoint(back), wire);
        }
    }

    #[test]
    fn endpoint_parsing_rejects_junk() {
        for junk in [
            "",
            "x",
            "4x",
            "nan",
            "NaN",
            "-nan",
            "infinity",
            "-infinity",
            "Inf",
            "1e999",
        ] {
            assert!(
                Interval::parse_endpoint(junk).is_err(),
                "`{junk}` should not parse as a wire endpoint"
            );
        }
        // Signed zero normalizes on the way in as well.
        assert_eq!(
            Interval::parse_endpoint("-0").unwrap().to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            Interval::parse_endpoint("-0.0").unwrap().to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn interval_parsing_round_trips_and_rejects_inversions() {
        for (lo, hi) in [
            (0.0, 40.0),
            (-2.5, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (7.25, 7.25),
        ] {
            let i = Interval::new(lo, hi);
            let back = Interval::parse_endpoints(
                &Interval::format_endpoint(i.lo),
                &Interval::format_endpoint(i.hi),
            )
            .unwrap();
            assert_eq!(back, i);
        }
        assert!(Interval::parse_endpoints("4", "3").is_err());
        assert!(Interval::parse_endpoints("inf", "0").is_err());
        assert!(Interval::parse_endpoints("nan", "3").is_err());
    }

    #[test]
    fn sum_accumulator_handles_infinities() {
        let mut s = SumAcc::new();
        s.add(2.0);
        s.add(f64::INFINITY);
        s.add(3.0);
        assert_eq!(s.total(), f64::INFINITY);
        assert_eq!(s.total_without(f64::INFINITY), 5.0);
        assert_eq!(s.total_without(2.0), f64::INFINITY);
        let mut t = SumAcc::new();
        t.add(1.0);
        t.add(2.0);
        assert_eq!(t.total(), 3.0);
        assert_eq!(t.total_without(1.0), 2.0);
        // A sub-sum's infinities cancel by count.
        let mut part = SumAcc::new();
        part.add(f64::INFINITY);
        assert_eq!(s.total_minus(&part), 5.0);
        part.add(3.0);
        assert_eq!(s.total_minus(&part), 2.0);
        assert_eq!(s.total_minus(&s), 0.0);
        assert_eq!(s.total_minus(&SumAcc::new()), f64::INFINITY);
    }
}
