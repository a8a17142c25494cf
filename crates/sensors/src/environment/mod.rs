//! Synthetic environments: the "ground truth" that providers sample.
//!
//! An [`Environment`] is a pure function from `(sensor, time)` to a
//! reading — the simulated physical reality of one target place. Two
//! families are provided, matching the paper's field tests (§V-A/B):
//! indoor [`place::PlaceEnvironment`]s (coffee shops) and outdoor
//! [`trail::TrailEnvironment`]s (hiking trails) walked by a simulated
//! hiker. [`presets`] parameterises the six Syracuse places to the
//! feature levels of Fig. 6 and Fig. 10.

pub mod place;
pub mod presets;
pub mod trail;

use crate::kind::{Reading, SensorKind};
use crate::SensorError;

/// A deterministic model of one target place's physical quantities.
pub trait Environment: Send + Sync {
    /// Display name of the place.
    fn name(&self) -> &str;

    /// Whether the environment can produce this quantity.
    fn supports(&self, kind: SensorKind) -> bool;

    /// Samples one reading at time `t` (seconds from scenario start).
    ///
    /// # Errors
    ///
    /// [`SensorError::Unavailable`] if the quantity is not modelled.
    fn sample(&self, kind: SensorKind, t: f64) -> Result<Reading, SensorError>;

    /// The place's nominal coordinates (for barcode location checks).
    fn location(&self) -> (f64, f64);
}

/// A slowly drifting noisy level: `base + drift·smooth(t) + σ·N(0,1)`.
/// The building block for every scalar quantity in both environment
/// families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Level {
    /// Long-run mean.
    pub base: f64,
    /// Amplitude of slow drift (smooth noise with ~10 min period).
    pub drift: f64,
    /// Per-sample white-noise σ.
    pub sigma: f64,
}

impl Level {
    /// A steady level with measurement noise only.
    pub fn steady(base: f64, sigma: f64) -> Self {
        Level { base, drift: 0.0, sigma }
    }

    /// A drifting level.
    pub fn drifting(base: f64, drift: f64, sigma: f64) -> Self {
        Level { base, drift, sigma }
    }

    /// Evaluates the level at time `t` using noise stream `noise`/`tag`.
    pub fn at(&self, noise: &crate::noise::HashNoise, tag: u64, t: f64) -> f64 {
        self.base
            + self.drift * noise.smooth(tag, t, 600.0)
            + self.sigma * noise.gaussian(tag.wrapping_add(0x5151), t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::HashNoise;

    #[test]
    fn steady_level_stays_near_base() {
        let noise = HashNoise::new(1);
        let l = Level::steady(70.0, 0.5);
        for i in 0..200 {
            let v = l.at(&noise, 7, i as f64);
            assert!((v - 70.0).abs() < 3.0, "sample {v} too far from base");
        }
    }

    #[test]
    fn drift_moves_the_mean_slowly() {
        let noise = HashNoise::new(2);
        let l = Level::drifting(50.0, 5.0, 0.0);
        // Zero sigma: consecutive samples must be close (drift only).
        let mut prev = l.at(&noise, 1, 0.0);
        for i in 1..100 {
            let v = l.at(&noise, 1, i as f64);
            assert!((v - prev).abs() < 0.5);
            assert!((v - 50.0).abs() <= 5.0 + 1e-9);
            prev = v;
        }
    }

    #[test]
    fn level_is_deterministic() {
        let noise = HashNoise::new(3);
        let l = Level::drifting(10.0, 1.0, 2.0);
        assert_eq!(l.at(&noise, 4, 33.0), l.at(&noise, 4, 33.0));
    }
}
