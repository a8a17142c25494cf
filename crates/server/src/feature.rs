//! Feature definitions and extraction (§IV-A).
//!
//! "For a target place, raw data need to be processed to calculate a
//! value for each feature … the methods for calculating these values
//! from raw data may vary with features."
//!
//! The four extractor shapes used in the paper's evaluation:
//!
//! - **Mean** — temperature, humidity, brightness, noise, WiFi: "we take
//!   an average over all … sensors' readings".
//! - **WindowedDeviation** (roughness) — "an average of the standard
//!   deviations of all accelerometer's readings within Δt".
//! - **Curvature** — "calculated based on GPS locations": mean absolute
//!   heading change per metre of track, scaled to degrees per 100 m.
//! - **AltitudeChange** — "the standard deviation of averages of all
//!   altitude sensor readings within Δt".

use crate::ServerError;

/// One raw record as stored by the Data Processor: the paper's
/// `(t, Δt, d)` tuple plus the producing sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct RawRecord {
    /// Timestamp `t`.
    pub timestamp: f64,
    /// Window `Δt`.
    pub window: f64,
    /// Sensor wire id.
    pub sensor: u16,
    /// Readings `d` (flattened; arity-3 sensors pack triples).
    pub values: Vec<f64>,
}

/// How to turn records into one feature value.
#[derive(Debug, Clone, PartialEq)]
pub enum Extractor {
    /// Mean of all values of one sensor.
    Mean {
        /// The source sensor's wire id.
        sensor: u16,
    },
    /// Mean over records of the within-record standard deviation of the
    /// per-sample magnitude (arity-aware). Roughness of road surface.
    WindowedDeviation {
        /// The source sensor's wire id.
        sensor: u16,
        /// Values per sample (3 for the accelerometer).
        arity: usize,
    },
    /// Mean |heading change| per metre over the GPS track, scaled to
    /// degrees per 100 m.
    Curvature {
        /// The GPS sensor's wire id.
        gps_sensor: u16,
    },
    /// Standard deviation of per-record mean altitude (third GPS value).
    AltitudeChange {
        /// The GPS sensor's wire id.
        gps_sensor: u16,
    },
}

/// A named feature with its extractor and its coverage kernel width
/// (the per-feature σ of §III: slow features get large σ).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpec {
    /// Feature name, e.g. "temperature".
    pub name: String,
    /// Unit, e.g. "°F".
    pub unit: String,
    /// The extraction method.
    pub extractor: Extractor,
    /// Coverage σ (seconds) for scheduling this feature's readings.
    pub sigma: f64,
}

impl FeatureSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        unit: impl Into<String>,
        extractor: Extractor,
        sigma: f64,
    ) -> Self {
        FeatureSpec { name: name.into(), unit: unit.into(), extractor, sigma }
    }

    /// Extracts the feature value from the records of one place.
    ///
    /// # Errors
    ///
    /// [`ServerError::InsufficientData`] if no usable records exist.
    pub fn extract(&self, records: &[RawRecord]) -> Result<f64, ServerError> {
        let fail = |detail: &str| ServerError::InsufficientData {
            feature: self.name.clone(),
            detail: detail.to_string(),
        };
        match &self.extractor {
            Extractor::Mean { sensor } => {
                let readings =
                    || records.iter().filter(|r| r.sensor == *sensor).flat_map(|r| &r.values);
                let n = readings().count();
                if n == 0 {
                    return Err(fail("no readings from the source sensor"));
                }
                Ok(readings().sum::<f64>() / n as f64)
            }
            Extractor::WindowedDeviation { sensor, arity } => {
                let arity = (*arity).max(1);
                let mut deviations = Vec::new();
                for r in records.iter().filter(|r| r.sensor == *sensor) {
                    let mags: Vec<f64> = r
                        .values
                        .chunks_exact(arity)
                        .map(|c| c.iter().map(|v| v * v).sum::<f64>().sqrt())
                        .collect();
                    if mags.len() >= 2 {
                        deviations.push(stddev(&mags));
                    }
                }
                if deviations.is_empty() {
                    return Err(fail("no windows with at least two samples"));
                }
                Ok(deviations.iter().sum::<f64>() / deviations.len() as f64)
            }
            Extractor::Curvature { gps_sensor } => {
                // Collect the track (lat, lon) in time order.
                let mut fixes: Vec<(f64, f64, f64)> = Vec::new(); // (t, lat, lon)
                for r in records.iter().filter(|r| r.sensor == *gps_sensor) {
                    for (i, c) in r.values.chunks_exact(3).enumerate() {
                        fixes.push((r.timestamp + i as f64, c[0], c[1]));
                    }
                }
                fixes.sort_by(|a, b| a.0.total_cmp(&b.0));
                if fixes.len() < 3 {
                    return Err(fail("need at least three GPS fixes"));
                }
                let m_per_deg_lat = 111_320.0;
                let m_per_deg_lon = m_per_deg_lat * fixes[0].1.to_radians().cos();
                let pts: Vec<(f64, f64)> = fixes
                    .iter()
                    .map(|&(_, lat, lon)| (lon * m_per_deg_lon, lat * m_per_deg_lat))
                    .collect();
                // Consumer GPS carries metres of per-fix jitter; raw
                // consecutive-fix headings are noise. Downsample the
                // track into ~20 m legs, averaging the fixes inside
                // each leg into one waypoint (ref. [17]'s smoothing),
                // then accumulate heading changes between legs.
                const MIN_LEG_M: f64 = 20.0;
                let mut waypoints: Vec<(f64, f64)> = Vec::new();
                let mut acc = (0.0f64, 0.0f64);
                let mut count = 0usize;
                let mut anchor = pts[0];
                for &p in &pts {
                    acc.0 += p.0;
                    acc.1 += p.1;
                    count += 1;
                    let dx = p.0 - anchor.0;
                    let dy = p.1 - anchor.1;
                    if (dx * dx + dy * dy).sqrt() >= MIN_LEG_M {
                        waypoints.push((acc.0 / count as f64, acc.1 / count as f64));
                        acc = (0.0, 0.0);
                        count = 0;
                        anchor = p;
                    }
                }
                if waypoints.len() < 3 {
                    return Err(fail("track too short for curvature"));
                }
                let mut turn_sum = 0.0; // degrees
                let mut dist_sum = 0.0; // metres
                for w in waypoints.windows(3) {
                    let (a, b, c) = (w[0], w[1], w[2]);
                    let v1 = (b.0 - a.0, b.1 - a.1);
                    let v2 = (c.0 - b.0, c.1 - b.1);
                    let n2 = (v2.0 * v2.0 + v2.1 * v2.1).sqrt();
                    let h1 = v1.0.atan2(v1.1).to_degrees();
                    let h2 = v2.0.atan2(v2.1).to_degrees();
                    let mut dh = (h2 - h1).abs();
                    if dh > 180.0 {
                        dh = 360.0 - dh;
                    }
                    turn_sum += dh;
                    dist_sum += n2;
                }
                if dist_sum < 1.0 {
                    return Err(fail("track too short for curvature"));
                }
                Ok(turn_sum / dist_sum * 100.0) // degrees per 100 m
            }
            Extractor::AltitudeChange { gps_sensor } => {
                let mut window_means = Vec::new();
                for r in records.iter().filter(|r| r.sensor == *gps_sensor) {
                    let alts: Vec<f64> = r.values.chunks_exact(3).map(|c| c[2]).collect();
                    if !alts.is_empty() {
                        window_means.push(alts.iter().sum::<f64>() / alts.len() as f64);
                    }
                }
                if window_means.len() < 2 {
                    return Err(fail("need at least two altitude windows"));
                }
                Ok(stddev(&window_means))
            }
        }
    }
}

fn stddev(xs: &[f64]) -> f64 {
    let m = xs.iter().sum::<f64>() / xs.len() as f64;
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sensor: u16, t: f64, values: Vec<f64>) -> RawRecord {
        RawRecord { timestamp: t, window: 3.0, sensor, values }
    }

    #[test]
    fn mean_extractor() {
        let spec = FeatureSpec::new("temp", "°F", Extractor::Mean { sensor: 7 }, 60.0);
        let records = vec![
            rec(7, 0.0, vec![70.0, 72.0]),
            rec(7, 10.0, vec![74.0]),
            rec(9, 20.0, vec![999.0]), // other sensor ignored
        ];
        assert_eq!(spec.extract(&records).unwrap(), 72.0);
    }

    #[test]
    fn mean_requires_data() {
        let spec = FeatureSpec::new("temp", "°F", Extractor::Mean { sensor: 7 }, 60.0);
        assert!(matches!(spec.extract(&[]), Err(ServerError::InsufficientData { .. })));
    }

    #[test]
    fn windowed_deviation_measures_roughness() {
        let spec = FeatureSpec::new(
            "roughness",
            "m/s²",
            Extractor::WindowedDeviation { sensor: 0, arity: 3 },
            5.0,
        );
        // Smooth window: identical triples -> zero deviation.
        let smooth = vec![rec(0, 0.0, vec![0.0, 0.0, 9.8, 0.0, 0.0, 9.8, 0.0, 0.0, 9.8])];
        assert!(spec.extract(&smooth).unwrap() < 1e-12);
        // Rough window: alternating magnitudes.
        let rough = vec![rec(0, 0.0, vec![0.0, 0.0, 8.0, 0.0, 0.0, 12.0, 0.0, 0.0, 8.0])];
        assert!(spec.extract(&rough).unwrap() > 1.0);
    }

    #[test]
    fn curvature_zero_on_straight_track() {
        let spec = FeatureSpec::new("curv", "", Extractor::Curvature { gps_sensor: 1 }, 30.0);
        // Straight north track, 10 m steps (in degrees of latitude).
        let step = 10.0 / 111_320.0;
        let vals: Vec<f64> =
            (0..20).flat_map(|i| vec![43.0 + i as f64 * step, -76.0, 100.0]).collect();
        let records = vec![rec(1, 0.0, vals)];
        assert!(spec.extract(&records).unwrap() < 1.0);
    }

    #[test]
    fn curvature_high_on_switchback_track() {
        let spec = FeatureSpec::new("curv", "", Extractor::Curvature { gps_sensor: 1 }, 30.0);
        let dlat = 10.0 / 111_320.0;
        let dlon = 10.0 / (111_320.0 * 43.0f64.to_radians().cos());
        // Six 60 m legs alternating north and east: a 90° switchback
        // every 60 m = 150°/100 m.
        let mut vals = Vec::new();
        let (mut lat, mut lon) = (43.0, -76.0);
        for leg in 0..6 {
            for _ in 0..6 {
                vals.extend_from_slice(&[lat, lon, 100.0]);
                if leg % 2 == 0 {
                    lat += dlat;
                } else {
                    lon += dlon;
                }
            }
        }
        let records = vec![rec(1, 0.0, vals)];
        let c = spec.extract(&records).unwrap();
        assert!(c > 60.0, "curvature {c}");

        // And it clearly separates from a straight track of the same
        // length.
        let straight: Vec<f64> =
            (0..36).flat_map(|i| vec![43.0 + i as f64 * dlat, -76.0, 100.0]).collect();
        let c_straight = spec.extract(&[rec(1, 0.0, straight)]).unwrap();
        assert!(c > 10.0 * c_straight.max(0.1), "{c} vs {c_straight}");
    }

    #[test]
    fn curvature_smooths_out_gps_jitter() {
        // A straight 400 m track with ±3 m deterministic zig on every
        // fix: raw consecutive-fix headings would swing wildly, but the
        // waypoint smoothing must keep curvature small.
        let spec = FeatureSpec::new("curv", "", Extractor::Curvature { gps_sensor: 1 }, 30.0);
        let dlat = 2.5 / 111_320.0;
        let jitter = 3.0 / (111_320.0 * 43.0f64.to_radians().cos());
        let vals: Vec<f64> = (0..160)
            .flat_map(|i| {
                let zig = if i % 2 == 0 { jitter } else { -jitter };
                vec![43.0 + i as f64 * dlat, -76.0 + zig, 100.0]
            })
            .collect();
        let c = spec.extract(&[rec(1, 0.0, vals)]).unwrap();
        assert!(c < 60.0, "jitter should be smoothed away, got {c}");
    }

    #[test]
    fn curvature_needs_enough_track() {
        let spec = FeatureSpec::new("curv", "", Extractor::Curvature { gps_sensor: 1 }, 30.0);
        // Two fixes: outright too few.
        let records = vec![rec(1, 0.0, vec![43.0, -76.0, 0.0, 43.1, -76.0, 0.0])];
        assert!(spec.extract(&records).is_err());
        // Many fixes but only ~10 m of travel: fewer than 3 waypoints.
        let step = 0.5 / 111_320.0;
        let vals: Vec<f64> =
            (0..20).flat_map(|i| vec![43.0 + i as f64 * step, -76.0, 100.0]).collect();
        assert!(spec.extract(&[rec(1, 0.0, vals)]).is_err());
    }

    #[test]
    fn altitude_change_from_window_means() {
        let spec = FeatureSpec::new("alt", "m", Extractor::AltitudeChange { gps_sensor: 1 }, 30.0);
        let records = vec![
            rec(1, 0.0, vec![43.0, -76.0, 100.0, 43.0, -76.0, 102.0]), // mean 101
            rec(1, 60.0, vec![43.0, -76.0, 120.0]),                    // mean 120
            rec(1, 120.0, vec![43.0, -76.0, 99.0, 43.0, -76.0, 101.0]), // mean 100
        ];
        let sd = spec.extract(&records).unwrap();
        // std of {101, 120, 100} ≈ 9.2
        assert!((sd - 9.2).abs() < 0.3, "{sd}");
    }

    #[test]
    fn flat_trail_has_small_altitude_change() {
        let spec = FeatureSpec::new("alt", "m", Extractor::AltitudeChange { gps_sensor: 1 }, 30.0);
        let records: Vec<RawRecord> = (0..5)
            .map(|i| rec(1, i as f64 * 60.0, vec![43.0, -76.0, 100.0 + (i % 2) as f64]))
            .collect();
        assert!(spec.extract(&records).unwrap() < 1.0);
    }
}
