//! Sensor kinds: the embedded sensors of a Nexus4-class phone plus the
//! external Sensordrone sensors named in §I/§II of the paper.

/// One acquisition result: a small vector of values. Scalar sensors
/// yield one element; the accelerometer yields `[x, y, z]`; GPS yields
/// `[lat, lon, altitude]`.
pub type Reading = Vec<f64>;

/// Whether the sensor is embedded in the phone or attached externally
/// over Bluetooth (Sensordrone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorClass {
    /// Built into the phone.
    Embedded,
    /// External multisensor (Sensordrone) over Bluetooth.
    External,
}

/// The sensors SOR supports — "all sensors available on a Google Nexus4
/// smartphone and all sensors available on a Sensordrone" (§II-A),
/// restricted to the ones the evaluation actually exercises plus a few
/// more to demonstrate registry scalability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SensorKind {
    // Embedded (phone)
    /// 3-axis accelerometer (m/s²); roughness comes from its windowed σ.
    Accelerometer,
    /// GPS fix: latitude (deg), longitude (deg), altitude (m).
    Gps,
    /// Microphone A-weighted level (normalised 0..1 as in Fig. 10(c)).
    Microphone,
    /// Ambient light (lux).
    Light,
    /// WiFi RSSI (dBm).
    WifiRssi,
    /// Digital compass heading (degrees).
    Compass,
    /// Gyroscope (rad/s magnitude).
    Gyroscope,
    // External (Sensordrone)
    /// Air temperature (°F, as plotted in Fig. 6(a)/10(a)).
    Temperature,
    /// Relative humidity (%).
    Humidity,
    /// Barometric pressure (hPa) — doubles as the altitude sensor for
    /// the trail tests ("altitude sensor readings", §V-A).
    Pressure,
    /// Non-contact IR thermometer (°F).
    IrThermometer,
    /// CO gas concentration (ppm).
    GasCo,
}

impl SensorKind {
    /// All kinds, in wire-id order.
    pub const ALL: [SensorKind; 12] = [
        SensorKind::Accelerometer,
        SensorKind::Gps,
        SensorKind::Microphone,
        SensorKind::Light,
        SensorKind::WifiRssi,
        SensorKind::Compass,
        SensorKind::Gyroscope,
        SensorKind::Temperature,
        SensorKind::Humidity,
        SensorKind::Pressure,
        SensorKind::IrThermometer,
        SensorKind::GasCo,
    ];

    /// Stable wire discriminant (used by `sor-proto` records).
    pub fn wire_id(self) -> u16 {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL") as u16
    }

    /// Inverse of [`SensorKind::wire_id`].
    pub fn from_wire_id(id: u16) -> Option<SensorKind> {
        Self::ALL.get(id as usize).copied()
    }

    /// Embedded or external.
    pub fn class(self) -> SensorClass {
        match self {
            SensorKind::Accelerometer
            | SensorKind::Gps
            | SensorKind::Microphone
            | SensorKind::Light
            | SensorKind::WifiRssi
            | SensorKind::Compass
            | SensorKind::Gyroscope => SensorClass::Embedded,
            _ => SensorClass::External,
        }
    }

    /// Number of values per reading.
    pub fn arity(self) -> usize {
        match self {
            SensorKind::Accelerometer | SensorKind::Gps => 3,
            _ => 1,
        }
    }

    /// Human name.
    pub fn name(self) -> &'static str {
        match self {
            SensorKind::Accelerometer => "accelerometer",
            SensorKind::Gps => "gps",
            SensorKind::Microphone => "microphone",
            SensorKind::Light => "light",
            SensorKind::WifiRssi => "wifi-rssi",
            SensorKind::Compass => "compass",
            SensorKind::Gyroscope => "gyroscope",
            SensorKind::Temperature => "temperature",
            SensorKind::Humidity => "humidity",
            SensorKind::Pressure => "pressure",
            SensorKind::IrThermometer => "ir-thermometer",
            SensorKind::GasCo => "co-gas",
        }
    }

    /// Metric label: like [`SensorKind::name`] but restricted to the
    /// `[a-z0-9_]` alphabet the `component.noun_verb.label` metric
    /// naming convention allows.
    pub fn metric_label(self) -> &'static str {
        match self {
            SensorKind::WifiRssi => "wifi_rssi",
            SensorKind::IrThermometer => "ir_thermometer",
            SensorKind::GasCo => "co_gas",
            other => other.name(),
        }
    }
}

impl std::fmt::Display for SensorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_ids_are_stable_and_invertible() {
        for (i, k) in SensorKind::ALL.iter().enumerate() {
            assert_eq!(k.wire_id(), i as u16);
            // The sensor manager indexes its provider slots by discriminant.
            assert_eq!(*k as usize, i);
            assert_eq!(SensorKind::from_wire_id(i as u16), Some(*k));
        }
        assert_eq!(SensorKind::from_wire_id(200), None);
    }

    #[test]
    fn classes_match_paper_hardware() {
        assert_eq!(SensorKind::Light.class(), SensorClass::Embedded);
        assert_eq!(SensorKind::Microphone.class(), SensorClass::Embedded);
        assert_eq!(SensorKind::Temperature.class(), SensorClass::External);
        assert_eq!(SensorKind::Humidity.class(), SensorClass::External);
    }

    #[test]
    fn arities() {
        assert_eq!(SensorKind::Accelerometer.arity(), 3);
        assert_eq!(SensorKind::Gps.arity(), 3);
        assert_eq!(SensorKind::Temperature.arity(), 1);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = SensorKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), SensorKind::ALL.len());
    }
}
