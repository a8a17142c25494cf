//! The Sensor Manager and Provider Register of §II-A.
//!
//! "When a new sensor is integrated into SOR, the corresponding Provider
//! needs to be registered with the Sensor Manager via the Provider
//! Register, which keeps a list of currently supported sensors … When a
//! task instance requests data by calling such a data acquisition
//! function, the Sensor Manager directs the call to the corresponding
//! Provider to actually acquire data from sensors. Moreover, the manager
//! can cancel data acquisition if timeout."

use std::sync::Arc;

use crate::kind::{Reading, SensorKind};
use crate::provider::Provider;
use crate::SensorError;

/// Default acquisition timeout (seconds of simulated latency).
pub const DEFAULT_TIMEOUT: f64 = 10.0;

/// Default spacing between consecutive samples in one acquisition
/// (the multiple readings within the paper's `Δt` window).
pub const DEFAULT_SAMPLE_INTERVAL: f64 = 0.5;

/// Registry + dispatcher for providers.
pub struct SensorManager {
    /// One slot per kind, in [`SensorKind::ALL`] order.
    providers: [Option<Arc<dyn Provider>>; SensorKind::ALL.len()],
    timeout: f64,
    sample_interval: f64,
}

impl std::fmt::Debug for SensorManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SensorManager")
            .field("supported", &self.supported())
            .field("timeout", &self.timeout)
            .finish()
    }
}

impl Default for SensorManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SensorManager {
    /// An empty manager with default timeout.
    pub fn new() -> Self {
        SensorManager {
            providers: Default::default(),
            timeout: DEFAULT_TIMEOUT,
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
        }
    }

    /// Sets the acquisition timeout (seconds).
    pub fn set_timeout(&mut self, timeout: f64) {
        self.timeout = timeout;
    }

    /// Sets the intra-acquisition sample spacing (seconds).
    pub fn set_sample_interval(&mut self, interval: f64) {
        assert!(interval > 0.0, "interval must be positive");
        self.sample_interval = interval;
    }

    /// The intra-acquisition sample spacing (seconds) — the `Δt` between
    /// consecutive readings of one request.
    pub fn sample_interval(&self) -> f64 {
        self.sample_interval
    }

    /// Registers a provider (the Provider Register). Replaces any
    /// previous provider of the same kind; returns whether one existed.
    pub fn register<P: Provider + 'static>(&mut self, provider: P) -> bool {
        self.register_arc(Arc::new(provider))
    }

    /// Registers a shared provider handle.
    pub fn register_arc(&mut self, provider: Arc<dyn Provider>) -> bool {
        self.providers[provider.kind() as usize].replace(provider).is_some()
    }

    /// Unregisters a sensor. Returns whether it was present.
    pub fn unregister(&mut self, kind: SensorKind) -> bool {
        self.providers[kind as usize].take().is_some()
    }

    /// The list of currently supported sensors.
    pub fn supported(&self) -> Vec<SensorKind> {
        SensorKind::ALL.into_iter().filter(|&k| self.supports(k)).collect()
    }

    /// Whether `kind` has a registered provider.
    pub fn supports(&self, kind: SensorKind) -> bool {
        self.providers[kind as usize].is_some()
    }

    /// Acquires `n` readings of `kind` starting at time `start`,
    /// cancelling if the provider's simulated latency exceeds the
    /// timeout.
    ///
    /// # Errors
    ///
    /// - [`SensorError::Unsupported`] if no provider is registered.
    /// - [`SensorError::Timeout`] if the acquisition would be too slow.
    /// - Provider errors pass through.
    pub fn acquire(
        &self,
        kind: SensorKind,
        n: usize,
        start: f64,
    ) -> Result<Vec<Reading>, SensorError> {
        let provider =
            self.providers[kind as usize].as_ref().ok_or(SensorError::Unsupported(kind))?;
        let latency = provider.latency(n);
        if latency > self.timeout {
            return Err(SensorError::Timeout { kind, latency, timeout: self.timeout });
        }
        provider.acquire(n, start, self.sample_interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::presets;
    use crate::provider::SimulatedProvider;

    fn manager() -> SensorManager {
        let env = Arc::new(presets::starbucks(11));
        let mut m = SensorManager::new();
        m.register(SimulatedProvider::new(SensorKind::Temperature, env.clone()));
        m.register(SimulatedProvider::new(SensorKind::Microphone, env));
        m
    }

    #[test]
    fn dispatches_to_registered_provider() {
        let m = manager();
        let r = m.acquire(SensorKind::Temperature, 3, 0.0).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn unsupported_kind_errors() {
        let m = manager();
        assert_eq!(
            m.acquire(SensorKind::Gps, 1, 0.0),
            Err(SensorError::Unsupported(SensorKind::Gps))
        );
    }

    #[test]
    fn register_reports_replacement() {
        let env = Arc::new(presets::bn_cafe(1));
        let mut m = SensorManager::new();
        assert!(!m.register(SimulatedProvider::new(SensorKind::Light, env.clone())));
        assert!(m.register(SimulatedProvider::new(SensorKind::Light, env)));
    }

    #[test]
    fn unregister_removes_support() {
        let mut m = manager();
        assert!(m.supports(SensorKind::Microphone));
        assert!(m.unregister(SensorKind::Microphone));
        assert!(!m.supports(SensorKind::Microphone));
        assert!(!m.unregister(SensorKind::Microphone));
    }

    #[test]
    fn supported_lists_kinds_sorted() {
        let m = manager();
        assert_eq!(m.supported(), vec![SensorKind::Microphone, SensorKind::Temperature]);
    }

    #[test]
    fn slow_provider_times_out() {
        let env = Arc::new(presets::bn_cafe(1));
        let mut m = SensorManager::new();
        m.set_timeout(1.0);
        m.register(SimulatedProvider::new(SensorKind::Gps, env).with_latency(0.6));
        assert!(m.acquire(SensorKind::Gps, 1, 0.0).is_ok());
        assert!(matches!(
            m.acquire(SensorKind::Gps, 5, 0.0),
            Err(SensorError::Timeout { kind: SensorKind::Gps, .. })
        ));
    }

    #[test]
    fn sample_interval_is_configurable() {
        let mut m = manager();
        m.set_sample_interval(2.0);
        assert_eq!(m.sample_interval(), 2.0);
        let a = m.acquire(SensorKind::Temperature, 2, 0.0).unwrap();
        m.set_sample_interval(0.1);
        let b = m.acquire(SensorKind::Temperature, 2, 0.0).unwrap();
        assert_eq!(a[0], b[0], "first sample at the same instant");
        assert_ne!(a[1], b[1], "second sample at different offsets");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        manager().set_sample_interval(0.0);
    }
}
