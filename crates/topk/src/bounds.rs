//! Bound pairs and monotone tightening.
//!
//! Every seen node carries `[lower, upper]` sandwiching its true score
//! (paper Sect. V-A). All updates go through [`Bounds::tighten_lower`] /
//! [`Bounds::tighten_upper`], which enforce the paper's monotonicity rule:
//! "To tighten the bounds, we only decrease an upper bound or increase a
//! lower bound in any update" — this is what guarantees Stage II converges
//! (bounded monotone sequences).

/// A `[lower, upper]` interval around a true score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bounds {
    /// Lower bound (monotonically non-decreasing over a run).
    pub lower: f64,
    /// Upper bound (monotonically non-increasing over a run).
    pub upper: f64,
}

impl Bounds {
    /// A fresh `[0, upper]` interval (how newly-seen nodes start).
    pub fn unseen(upper: f64) -> Self {
        Bounds { lower: 0.0, upper }
    }

    /// An exact value (`lower == upper`).
    pub fn exact(value: f64) -> Self {
        Bounds {
            lower: value,
            upper: value,
        }
    }

    /// Raise the lower bound if `candidate` improves it. Returns the change.
    #[inline]
    pub fn tighten_lower(&mut self, candidate: f64) -> f64 {
        if candidate > self.lower {
            let delta = candidate - self.lower;
            self.lower = candidate;
            delta
        } else {
            0.0
        }
    }

    /// Lower the upper bound if `candidate` improves it. Returns the change.
    #[inline]
    pub fn tighten_upper(&mut self, candidate: f64) -> f64 {
        if candidate < self.upper {
            let delta = self.upper - candidate;
            self.upper = candidate;
            delta
        } else {
            0.0
        }
    }

    /// Interval width `upper - lower`.
    #[inline]
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// `true` if `value` lies inside the interval (with tolerance).
    pub fn contains(&self, value: f64, tol: f64) -> bool {
        value >= self.lower - tol && value <= self.upper + tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tighten_lower_only_raises() {
        let mut b = Bounds::unseen(1.0);
        assert!(b.tighten_lower(0.3) > 0.0);
        assert_eq!(b.lower, 0.3);
        assert_eq!(b.tighten_lower(0.2), 0.0); // worse candidate ignored
        assert_eq!(b.lower, 0.3);
    }

    #[test]
    fn tighten_upper_only_lowers() {
        let mut b = Bounds::unseen(1.0);
        assert!(b.tighten_upper(0.6) > 0.0);
        assert_eq!(b.upper, 0.6);
        assert_eq!(b.tighten_upper(0.9), 0.0);
        assert_eq!(b.upper, 0.6);
    }

    #[test]
    fn width_and_contains() {
        let b = Bounds {
            lower: 0.2,
            upper: 0.5,
        };
        assert!((b.width() - 0.3).abs() < 1e-15);
        assert!(b.contains(0.3, 0.0));
        assert!(!b.contains(0.6, 0.0));
        assert!(b.contains(0.5 + 1e-12, 1e-9));
    }

    #[test]
    fn exact_has_zero_width() {
        let b = Bounds::exact(0.7);
        assert_eq!(b.width(), 0.0);
        assert!(b.contains(0.7, 0.0));
    }
}
