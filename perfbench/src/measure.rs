//! Timing, accounting and hashing helpers shared by every workload.
//!
//! All timing happens here, around calls into SOR's public APIs: the
//! program itself carries no extra instrumentation for the benchmark.

use std::time::{Duration, Instant};

/// The layers a call into SOR is charged to. Every timed call belongs
/// to exactly one layer, so the layers' busy times add up to (nearly)
/// the whole measured wall time of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `MobileFrontend`: scans, sensing sweeps, incoming messages.
    Frontend,
    /// `Message::encode` / `Message::decode` on both ends of the wire.
    Proto,
    /// `SensingServer::handle_message(ParticipationRequest)`.
    Admit,
    /// `SensingServer::handle_message(SensedDataUpload)`.
    Upload,
    /// `SensingServer::handle_message(TaskComplete)`: departure replans.
    Complete,
    /// Any other message the server handles (pings).
    OtherMessage,
    /// `SensingServer::tick`: clock advance and departure sweeps.
    Tick,
    /// `SensingServer::process_data`: the Data Processor pass.
    Processor,
    /// `SensingServer::rank` / `rank_many`.
    Ranking,
}

/// How many layers there are.
const LAYERS: usize = Layer::Ranking as usize + 1;

/// Busy time per layer and the latency samples of one pass.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    busy: [Duration; LAYERS],
    /// Time spent on benchmark-side work inside a pass (output checks,
    /// replays) that must not count as wall time of the workload.
    excluded: Duration,
}

impl Probe {
    /// Runs `f`, charging its wall time to `layer`; returns the result
    /// and the elapsed seconds.
    #[inline]
    pub fn timed<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        self.busy[layer as usize] += dt;
        (r, dt.as_secs_f64())
    }

    /// [`Probe::timed`] without the elapsed time.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.timed(layer, f).0
    }

    /// Takes `d` of benchmark-side work out of the pass's wall time.
    pub fn exclude(&mut self, d: Duration) {
        self.excluded += d;
    }

    /// Seconds charged to `layer`.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.busy[layer as usize].as_secs_f64()
    }

    /// Seconds charged to all layers together.
    pub fn total_busy_s(&self) -> f64 {
        self.busy.iter().map(Duration::as_secs_f64).sum()
    }

    /// Seconds of excluded benchmark-side work.
    pub fn excluded_s(&self) -> f64 {
        self.excluded.as_secs_f64()
    }
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of a sample; `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of a sample (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a over a stream of integers: the outputs digest of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one integer into the digest.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the deterministic input generator, seeded by `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one seed and stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// A uniform integer from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn generator_repeats_per_seed() {
        let (mut a, mut b) = (SplitMix::new(7, 1), SplitMix::new(7, 1));
        for _ in 0..4 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix::new(7, 1).next_u64(), SplitMix::new(8, 1).next_u64());
    }
}
