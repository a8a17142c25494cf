//! Time-decaying task value.
//!
//! *Distributed Time-Sensitive Task Selection in Mobile Crowdsensing*
//! argues that the value of a sensing task decays with delay: a reading
//! taken late in the period is worth less than one taken promptly. SOR's
//! objective (eq. 4) weights every instant equally; a [`DecayCurve`]
//! generalises it to `f(Ψ) = Σ_j w(t_j) · p(t_j, Ψ)` where `w` is a
//! non-increasing weight of the instant's elapsed time since the period
//! start.
//!
//! The weights scale the *value* of covering an instant, not the
//! coverage probability itself, so the objective stays monotone
//! submodular (a non-negative weighted sum of monotone submodular
//! functions) and every greedy guarantee carries over unchanged.
//! [`DecayCurve::Constant`] reproduces the paper's objective exactly —
//! by construction it takes the identical floating-point path, so
//! zero-decay results stay byte-identical.

use crate::time::TimeGrid;

/// How an instant's value decays with elapsed time since the period
/// start. All curves are non-increasing and clamped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DecayCurve {
    /// No decay: every instant is worth 1 (the paper's eq. 4).
    #[default]
    Constant,
    /// `w(e) = max(0, 1 − rate·e)`: linear ramp hitting zero at
    /// `e = 1/rate` seconds of elapsed time.
    Linear {
        /// Value lost per second of delay.
        rate: f64,
    },
    /// `w(e) = exp(−rate·e)`: exponential half-life `ln 2 / rate`.
    Exponential {
        /// Decay constant per second.
        rate: f64,
    },
}

impl DecayCurve {
    /// Linear decay losing `rate` value per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or non-finite.
    pub fn linear(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "linear decay rate must be finite and >= 0");
        DecayCurve::Linear { rate }
    }

    /// Exponential decay with constant `rate` per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or non-finite.
    pub fn exponential(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "exponential decay rate must be finite and >= 0");
        DecayCurve::Exponential { rate }
    }

    /// Value weight after `elapsed` seconds (clamped to `[0, 1]`).
    pub fn value(&self, elapsed: f64) -> f64 {
        let e = elapsed.max(0.0);
        match *self {
            DecayCurve::Constant => 1.0,
            DecayCurve::Linear { rate } => (1.0 - rate * e).max(0.0),
            DecayCurve::Exponential { rate } => (-rate * e).exp(),
        }
    }

    /// Per-instant weights over a grid, or `None` for [`Constant`]
    /// (callers skip the multiply entirely, keeping the zero-decay
    /// floating-point path byte-identical to the unweighted objective).
    ///
    /// [`Constant`]: DecayCurve::Constant
    pub fn weights(&self, grid: &TimeGrid) -> Option<Vec<f64>> {
        match self {
            DecayCurve::Constant => None,
            _ => Some(
                (0..grid.len())
                    .map(|j| self.value(grid.time_of(crate::time::InstantId(j)) - grid.start()))
                    .collect(),
            ),
        }
    }

    /// Short machine-readable name (used in config dumps and metrics).
    pub fn name(&self) -> &'static str {
        match self {
            DecayCurve::Constant => "constant",
            DecayCurve::Linear { .. } => "linear",
            DecayCurve::Exponential { .. } => "exponential",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_always_one() {
        let c = DecayCurve::Constant;
        for e in [0.0, 1.0, 1e6] {
            assert_eq!(c.value(e), 1.0);
        }
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        assert!(c.weights(&grid).is_none());
    }

    #[test]
    fn linear_ramps_to_zero_and_clamps() {
        let c = DecayCurve::linear(0.01);
        assert_eq!(c.value(0.0), 1.0);
        assert!((c.value(50.0) - 0.5).abs() < 1e-12);
        assert_eq!(c.value(200.0), 0.0, "linear decay must clamp at zero");
    }

    #[test]
    fn exponential_halves_at_half_life() {
        let rate = 0.02;
        let c = DecayCurve::exponential(rate);
        let half_life = std::f64::consts::LN_2 / rate;
        assert!((c.value(half_life) - 0.5).abs() < 1e-12);
        // Positive until f64 underflow (exp(-600) is still normal).
        assert!(c.value(30_000.0) > 0.0);
    }

    #[test]
    fn curves_are_non_increasing() {
        for c in [DecayCurve::Constant, DecayCurve::linear(0.004), DecayCurve::exponential(0.003)] {
            let mut prev = c.value(0.0);
            for step in 1..100 {
                let v = c.value(step as f64 * 7.3);
                assert!(v <= prev + 1e-15, "{c:?} increased at step {step}");
                assert!((0.0..=1.0).contains(&v));
                prev = v;
            }
        }
    }

    #[test]
    fn weights_match_values_on_grid() {
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        let c = DecayCurve::exponential(0.01);
        let w = c.weights(&grid).unwrap();
        assert_eq!(w.len(), 10);
        for (j, &wj) in w.iter().enumerate() {
            let t = grid.time_of(crate::time::InstantId(j));
            assert!((wj - c.value(t - grid.start())).abs() < 1e-15);
        }
    }

    #[test]
    fn negative_elapsed_clamps_to_start_value() {
        assert_eq!(DecayCurve::linear(0.5).value(-10.0), 1.0);
        assert_eq!(DecayCurve::exponential(0.5).value(-10.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_rate() {
        DecayCurve::linear(-1.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DecayCurve::Constant.name(), "constant");
        assert_eq!(DecayCurve::linear(0.1).name(), "linear");
        assert_eq!(DecayCurve::exponential(0.1).name(), "exponential");
    }
}
