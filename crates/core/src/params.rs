//! Shared parameters of the random-walk computations.

use crate::error::CoreError;
use serde::{Deserialize, Serialize};

/// Parameters controlling the random-walk fixed-point computations.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RankParams {
    /// Teleport probability α; walk length is `Geo(α)` (paper Prop. 1).
    /// The paper uses α = 0.25 throughout its experiments and reports stable
    /// rankings for α ∈ [0.1, 0.5].
    pub alpha: f64,
    /// Convergence tolerance: iteration stops when the L∞ change of the
    /// score vector drops below this.
    pub tolerance: f64,
    /// Hard cap on iterations (geometric convergence makes ~`ln(tol)/ln(1-α)`
    /// iterations sufficient; the cap guards degenerate inputs).
    pub max_iterations: usize,
}

impl Default for RankParams {
    fn default() -> Self {
        Self {
            alpha: 0.25,
            tolerance: 1e-10,
            max_iterations: 200,
        }
    }
}

impl RankParams {
    /// Construct with a custom α, keeping default tolerance/cap.
    pub fn with_alpha(alpha: f64) -> Self {
        Self {
            alpha,
            ..Self::default()
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(CoreError::InvalidAlpha(self.alpha));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let p = RankParams::default();
        assert_eq!(p.alpha, 0.25);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_bounds() {
        assert!(RankParams::with_alpha(0.0).validate().is_err());
        assert!(RankParams::with_alpha(1.0).validate().is_err());
        assert!(RankParams::with_alpha(-0.5).validate().is_err());
        assert!(RankParams::with_alpha(f64::NAN).validate().is_err());
        assert!(RankParams::with_alpha(0.5).validate().is_ok());
    }
}
