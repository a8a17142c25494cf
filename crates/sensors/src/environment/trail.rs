//! Outdoor trail environments (the hiking trails of §V-A).
//!
//! A trail is a polyline of segments, each with a length, a heading
//! change at its start (curvature), and a grade (elevation slope). A
//! simulated hiker walks it at constant speed while the phone samples
//! GPS, accelerometer (surface roughness), compass, temperature,
//! humidity and pressure/altitude.

use crate::environment::{Environment, Level};
use crate::kind::{Reading, SensorKind};
use crate::noise::HashNoise;
use crate::SensorError;

/// Metres per degree of latitude (equirectangular approximation, fine
/// for kilometre-scale trails).
const M_PER_DEG_LAT: f64 = 111_320.0;

/// One trail segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Length in metres.
    pub length_m: f64,
    /// Heading change at the start of this segment (degrees; positive =
    /// left turn). The trail's curvature feature is driven by these.
    pub turn_deg: f64,
    /// Grade: metres of elevation gained per metre walked.
    pub grade: f64,
}

/// Static description of a trail.
#[derive(Debug, Clone, PartialEq)]
pub struct TrailSpec {
    /// Display name.
    pub name: String,
    /// Trailhead latitude (degrees).
    pub latitude: f64,
    /// Trailhead longitude (degrees).
    pub longitude: f64,
    /// Trailhead altitude (metres).
    pub altitude_m: f64,
    /// The polyline.
    pub segments: Vec<Segment>,
    /// Hiker speed (m/s).
    pub walk_speed: f64,
    /// Surface roughness: σ of accelerometer magnitude (m/s²). Rocky
    /// trails (Cliff Trail) get large values.
    pub roughness: f64,
    /// Air temperature (°F).
    pub temperature_f: Level,
    /// Relative humidity (%).
    pub humidity_pct: Level,
}

/// Precomputed hiker path + sensors.
#[derive(Debug, Clone)]
pub struct TrailEnvironment {
    spec: TrailSpec,
    noise: HashNoise,
    /// Cumulative distance at the start of each segment.
    cum_dist: Vec<f64>,
    /// Absolute heading (deg) of each segment.
    headings: Vec<f64>,
    /// (east m, north m, up m) at the start of each segment.
    positions: Vec<(f64, f64, f64)>,
    total_len: f64,
}

impl TrailEnvironment {
    /// Builds the path tables from a spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no segments, a non-positive segment
    /// length, or a non-positive walking speed.
    pub fn new(spec: TrailSpec, seed: u64) -> Self {
        assert!(!spec.segments.is_empty(), "trail needs at least one segment");
        assert!(spec.walk_speed > 0.0, "walk speed must be positive");
        let mut cum_dist = Vec::with_capacity(spec.segments.len());
        let mut headings = Vec::with_capacity(spec.segments.len());
        let mut positions = Vec::with_capacity(spec.segments.len());
        let mut heading: f64 = 0.0;
        let mut pos = (0.0f64, 0.0f64, 0.0f64);
        let mut dist = 0.0;
        for seg in &spec.segments {
            assert!(seg.length_m > 0.0, "segment length must be positive");
            heading += seg.turn_deg;
            cum_dist.push(dist);
            headings.push(heading);
            positions.push(pos);
            let rad = heading.to_radians();
            pos.0 += seg.length_m * rad.sin(); // east
            pos.1 += seg.length_m * rad.cos(); // north
            pos.2 += seg.length_m * seg.grade; // up
            dist += seg.length_m;
        }
        TrailEnvironment {
            spec,
            noise: HashNoise::new(seed),
            cum_dist,
            headings,
            positions,
            total_len: dist,
        }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &TrailSpec {
        &self.spec
    }

    /// Total trail length (metres).
    pub fn length_m(&self) -> f64 {
        self.total_len
    }

    /// Hiker distance along the trail at time `t` (out-and-back: walk to
    /// the end, turn around, repeat).
    fn distance_at(&self, t: f64) -> f64 {
        let d = (self.spec.walk_speed * t.max(0.0)) % (2.0 * self.total_len);
        if d <= self.total_len {
            d
        } else {
            2.0 * self.total_len - d
        }
    }

    /// Segment index containing distance `d`.
    fn segment_at(&self, d: f64) -> usize {
        match self.cum_dist.binary_search_by(|c| c.total_cmp(&d)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Hiker position (east, north, up) at time `t`.
    fn position_at(&self, t: f64) -> (f64, f64, f64) {
        let d = self.distance_at(t);
        let i = self.segment_at(d);
        let along = d - self.cum_dist[i];
        let (e0, n0, u0) = self.positions[i];
        let rad = self.headings[i].to_radians();
        (e0 + along * rad.sin(), n0 + along * rad.cos(), u0 + along * self.spec.segments[i].grade)
    }

    fn tag(kind: SensorKind) -> u64 {
        0x7E41 + kind.wire_id() as u64
    }
}

impl Environment for TrailEnvironment {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn location(&self) -> (f64, f64) {
        (self.spec.latitude, self.spec.longitude)
    }

    fn supports(&self, kind: SensorKind) -> bool {
        matches!(
            kind,
            SensorKind::Gps
                | SensorKind::Accelerometer
                | SensorKind::Compass
                | SensorKind::Gyroscope
                | SensorKind::Temperature
                | SensorKind::Humidity
                | SensorKind::Pressure
        )
    }

    fn sample(&self, kind: SensorKind, t: f64) -> Result<Reading, SensorError> {
        let tag = Self::tag(kind);
        match kind {
            SensorKind::Gps => {
                let (e, n, u) = self.position_at(t);
                let m_per_deg_lon = M_PER_DEG_LAT * self.spec.latitude.to_radians().cos();
                // Consumer GPS: ~3 m horizontal, ~5 m vertical error.
                let lat = self.spec.latitude
                    + n / M_PER_DEG_LAT
                    + (3.0 / M_PER_DEG_LAT) * self.noise.gaussian(tag ^ 1, t);
                let lon = self.spec.longitude
                    + e / m_per_deg_lon
                    + (3.0 / m_per_deg_lon) * self.noise.gaussian(tag ^ 2, t);
                let alt = self.spec.altitude_m + u + 5.0 * self.noise.gaussian(tag ^ 3, t);
                Ok(vec![lat, lon, alt])
            }
            SensorKind::Accelerometer => {
                // Walking: a ~2 Hz gait oscillation whose amplitude (and
                // the surrounding jitter) scales with surface roughness.
                let r = self.spec.roughness;
                let gait = (std::f64::consts::TAU * 2.0 * t).sin();
                Ok(vec![
                    r * (0.6 * gait + self.noise.gaussian(tag ^ 1, t)),
                    r * (0.4 * gait + self.noise.gaussian(tag ^ 2, t)),
                    9.81 + r * (1.2 * gait + self.noise.gaussian(tag ^ 3, t)),
                ])
            }
            SensorKind::Compass => {
                let d = self.distance_at(t);
                let heading = self.headings[self.segment_at(d)];
                Ok(vec![(heading + 3.0 * self.noise.gaussian(tag, t)).rem_euclid(360.0)])
            }
            SensorKind::Gyroscope => {
                let r = self.spec.roughness;
                Ok(vec![(0.2 + 0.3 * r) * self.noise.gaussian(tag, t).abs()])
            }
            SensorKind::Temperature => Ok(vec![self.spec.temperature_f.at(&self.noise, tag, t)]),
            SensorKind::Humidity => {
                Ok(vec![self.spec.humidity_pct.at(&self.noise, tag, t).clamp(0.0, 100.0)])
            }
            SensorKind::Pressure => {
                // Barometric altitude: ~0.12 hPa per metre near sea level.
                let (_, _, u) = self.position_at(t);
                let hpa =
                    1013.0 - 0.12 * (self.spec.altitude_m + u) + 0.2 * self.noise.gaussian(tag, t);
                Ok(vec![hpa])
            }
            other => Err(SensorError::Unavailable(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight_trail() -> TrailSpec {
        TrailSpec {
            name: "Straight".into(),
            latitude: 43.0,
            longitude: -76.0,
            altitude_m: 100.0,
            segments: vec![Segment { length_m: 1000.0, turn_deg: 0.0, grade: 0.0 }],
            walk_speed: 1.0,
            roughness: 0.1,
            temperature_f: Level::steady(45.0, 0.3),
            humidity_pct: Level::steady(50.0, 1.0),
        }
    }

    fn bendy_trail() -> TrailSpec {
        TrailSpec {
            name: "Bendy".into(),
            segments: (0..20)
                .map(|i| Segment {
                    length_m: 50.0,
                    turn_deg: if i % 2 == 0 { 40.0 } else { -40.0 },
                    grade: 0.1,
                })
                .collect(),
            ..straight_trail()
        }
    }

    #[test]
    fn hiker_moves_north_on_straight_trail() {
        let env = TrailEnvironment::new(straight_trail(), 1);
        let a = env.sample(SensorKind::Gps, 0.0).unwrap();
        let b = env.sample(SensorKind::Gps, 500.0).unwrap();
        assert!(b[0] > a[0] + 0.003, "latitude should grow: {a:?} -> {b:?}");
        assert!((b[1] - a[1]).abs() < 1e-3, "longitude steady");
    }

    #[test]
    fn out_and_back_returns_to_trailhead() {
        let env = TrailEnvironment::new(straight_trail(), 2);
        // Total loop: 2 km at 1 m/s -> back at t = 2000.
        let start = env.sample(SensorKind::Gps, 0.0).unwrap();
        let back = env.sample(SensorKind::Gps, 2000.0).unwrap();
        assert!((start[0] - back[0]).abs() < 1e-3);
    }

    #[test]
    fn compass_follows_segment_headings() {
        let env = TrailEnvironment::new(bendy_trail(), 3);
        // First segment heading = +40 degrees.
        let h = env.sample(SensorKind::Compass, 1.0).unwrap()[0];
        assert!((h - 40.0).abs() < 15.0, "heading {h}");
    }

    #[test]
    fn roughness_scales_accelerometer_variance() {
        let rocky = TrailEnvironment::new(TrailSpec { roughness: 0.8, ..straight_trail() }, 4);
        let smooth = TrailEnvironment::new(TrailSpec { roughness: 0.05, ..straight_trail() }, 4);
        let std_of = |env: &TrailEnvironment| {
            let vals: Vec<f64> = (0..400)
                .map(|i| env.sample(SensorKind::Accelerometer, i as f64 * 0.25).unwrap()[2])
                .collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        assert!(std_of(&rocky) > 4.0 * std_of(&smooth));
    }

    #[test]
    fn altitude_rises_with_grade() {
        let climb = TrailEnvironment::new(
            TrailSpec {
                segments: vec![Segment { length_m: 1000.0, turn_deg: 0.0, grade: 0.2 }],
                ..straight_trail()
            },
            5,
        );
        let early: f64 =
            (0..20).map(|i| climb.sample(SensorKind::Gps, i as f64).unwrap()[2]).sum::<f64>()
                / 20.0;
        let late: f64 = (0..20)
            .map(|i| climb.sample(SensorKind::Gps, 900.0 + i as f64).unwrap()[2])
            .sum::<f64>()
            / 20.0;
        assert!(late > early + 100.0, "early {early} late {late}");
    }

    #[test]
    fn pressure_falls_with_altitude() {
        let climb = TrailEnvironment::new(
            TrailSpec {
                segments: vec![Segment { length_m: 1000.0, turn_deg: 0.0, grade: 0.3 }],
                ..straight_trail()
            },
            6,
        );
        let p0 = climb.sample(SensorKind::Pressure, 0.0).unwrap()[0];
        let p1 = climb.sample(SensorKind::Pressure, 990.0).unwrap()[0];
        assert!(p1 < p0 - 20.0);
    }

    #[test]
    fn unsupported_kind_unavailable() {
        let env = TrailEnvironment::new(straight_trail(), 7);
        assert_eq!(
            env.sample(SensorKind::WifiRssi, 0.0),
            Err(SensorError::Unavailable(SensorKind::WifiRssi))
        );
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_trail_rejected() {
        TrailEnvironment::new(TrailSpec { segments: vec![], ..straight_trail() }, 1);
    }

    #[test]
    fn length_accumulates_segments() {
        let env = TrailEnvironment::new(bendy_trail(), 8);
        assert_eq!(env.length_m(), 1000.0);
    }
}
