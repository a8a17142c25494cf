//! Indoor place environments (the coffee shops of §V-B).

use crate::environment::{Environment, Level};
use crate::kind::{Reading, SensorKind};
use crate::noise::HashNoise;
use crate::SensorError;

/// Static description of an indoor place — serializable so field-test
/// scenarios can be stored or tweaked as data.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceSpec {
    /// Display name.
    pub name: String,
    /// Latitude (degrees).
    pub latitude: f64,
    /// Longitude (degrees).
    pub longitude: f64,
    /// Air temperature (°F).
    pub temperature_f: Level,
    /// Relative humidity (%).
    pub humidity_pct: Level,
    /// Ambient light (lux).
    pub light_lux: Level,
    /// Background noise level (normalised 0..1 as in Fig. 10(c)).
    pub noise_level: Level,
    /// WiFi RSSI (dBm).
    pub wifi_dbm: Level,
    /// Barometric pressure (hPa).
    pub pressure_hpa: Level,
}

/// A runnable indoor environment: a [`PlaceSpec`] plus a noise seed.
#[derive(Debug, Clone)]
pub struct PlaceEnvironment {
    spec: PlaceSpec,
    noise: HashNoise,
}

impl PlaceEnvironment {
    /// Instantiates the spec with a deterministic seed.
    pub fn new(spec: PlaceSpec, seed: u64) -> Self {
        PlaceEnvironment { spec, noise: HashNoise::new(seed) }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &PlaceSpec {
        &self.spec
    }

    fn tag(kind: SensorKind) -> u64 {
        kind.wire_id() as u64 + 1
    }
}

impl Environment for PlaceEnvironment {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn location(&self) -> (f64, f64) {
        (self.spec.latitude, self.spec.longitude)
    }

    fn supports(&self, kind: SensorKind) -> bool {
        matches!(
            kind,
            SensorKind::Temperature
                | SensorKind::Humidity
                | SensorKind::Light
                | SensorKind::Microphone
                | SensorKind::WifiRssi
                | SensorKind::Pressure
                | SensorKind::Gps
                | SensorKind::Accelerometer
        )
    }

    fn sample(&self, kind: SensorKind, t: f64) -> Result<Reading, SensorError> {
        let tag = Self::tag(kind);
        let v = match kind {
            SensorKind::Temperature => self.spec.temperature_f.at(&self.noise, tag, t),
            SensorKind::Humidity => {
                self.spec.humidity_pct.at(&self.noise, tag, t).clamp(0.0, 100.0)
            }
            SensorKind::Light => self.spec.light_lux.at(&self.noise, tag, t).max(0.0),
            SensorKind::Microphone => {
                // Base level plus occasional loudness bursts (espresso
                // machine, conversation spikes): a burst is active ~15%
                // of the time with smooth on/off.
                let base = self.spec.noise_level.at(&self.noise, tag, t);
                let burst_gate = self.noise.smooth(tag ^ 0xB00, t, 45.0);
                let burst = if burst_gate > 0.7 { 0.25 } else { 0.0 };
                (base + burst).clamp(0.0, 1.0)
            }
            SensorKind::WifiRssi => {
                // Slow fading plus fast per-sample variation.
                let fading = 4.0 * self.noise.smooth(tag ^ 0xFAD, t, 30.0);
                self.spec.wifi_dbm.at(&self.noise, tag, t) + fading
            }
            SensorKind::Pressure => self.spec.pressure_hpa.at(&self.noise, tag, t),
            SensorKind::Gps => {
                // A phone on a café table: fix jitter of a few meters
                // (~3e-5 degrees).
                let jlat = 3e-5 * self.noise.gaussian(tag ^ 0x6A1, t);
                let jlon = 3e-5 * self.noise.gaussian(tag ^ 0x6A2, t);
                return Ok(vec![
                    self.spec.latitude + jlat,
                    self.spec.longitude + jlon,
                    120.0 + 2.0 * self.noise.gaussian(tag ^ 0x6A3, t),
                ]);
            }
            SensorKind::Accelerometer => {
                // Phone resting on a table: gravity plus tiny vibration.
                let s = 0.03;
                return Ok(vec![
                    s * self.noise.gaussian(tag ^ 1, t),
                    s * self.noise.gaussian(tag ^ 2, t),
                    9.81 + s * self.noise.gaussian(tag ^ 3, t),
                ]);
            }
            other => return Err(SensorError::Unavailable(other)),
        };
        Ok(vec![v])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PlaceSpec {
        PlaceSpec {
            name: "Test Cafe".into(),
            latitude: 43.05,
            longitude: -76.15,
            temperature_f: Level::drifting(71.0, 1.0, 0.4),
            humidity_pct: Level::steady(35.0, 1.0),
            light_lux: Level::drifting(500.0, 60.0, 15.0),
            noise_level: Level::steady(0.12, 0.02),
            wifi_dbm: Level::steady(-58.0, 1.5),
            pressure_hpa: Level::steady(1013.0, 0.3),
        }
    }

    #[test]
    fn scalar_sensors_track_spec_levels() {
        let env = PlaceEnvironment::new(spec(), 42);
        let n = 500;
        let mean = |kind: SensorKind| {
            (0..n).map(|i| env.sample(kind, i as f64).unwrap()[0]).sum::<f64>() / n as f64
        };
        assert!((mean(SensorKind::Temperature) - 71.0).abs() < 1.0);
        assert!((mean(SensorKind::Humidity) - 35.0).abs() < 1.0);
        assert!((mean(SensorKind::WifiRssi) - -58.0).abs() < 3.0);
    }

    #[test]
    fn microphone_stays_normalised() {
        let env = PlaceEnvironment::new(spec(), 43);
        for i in 0..1000 {
            let v = env.sample(SensorKind::Microphone, i as f64 * 0.5).unwrap()[0];
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn gps_jitters_around_place() {
        let env = PlaceEnvironment::new(spec(), 44);
        let fix = env.sample(SensorKind::Gps, 10.0).unwrap();
        assert_eq!(fix.len(), 3);
        assert!((fix[0] - 43.05).abs() < 1e-3);
        assert!((fix[1] - -76.15).abs() < 1e-3);
    }

    #[test]
    fn accelerometer_is_calm_indoors() {
        let env = PlaceEnvironment::new(spec(), 45);
        let a = env.sample(SensorKind::Accelerometer, 5.0).unwrap();
        assert_eq!(a.len(), 3);
        assert!((a[2] - 9.81).abs() < 0.5);
        assert!(a[0].abs() < 0.5);
    }

    #[test]
    fn unsupported_kinds_are_unavailable() {
        let env = PlaceEnvironment::new(spec(), 46);
        assert!(!env.supports(SensorKind::GasCo));
        assert_eq!(
            env.sample(SensorKind::GasCo, 0.0),
            Err(SensorError::Unavailable(SensorKind::GasCo))
        );
    }

    #[test]
    fn environment_is_deterministic_per_seed() {
        let a = PlaceEnvironment::new(spec(), 1);
        let b = PlaceEnvironment::new(spec(), 1);
        let c = PlaceEnvironment::new(spec(), 2);
        assert_eq!(a.sample(SensorKind::Temperature, 9.0), b.sample(SensorKind::Temperature, 9.0));
        assert_ne!(a.sample(SensorKind::Temperature, 9.0), c.sample(SensorKind::Temperature, 9.0));
    }
}
