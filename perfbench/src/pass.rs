//! What one pass of a workload hands back to the driver.

use std::time::Instant;

use sor_obs::{MetricsRegistry, Recorder};

use crate::measure::Probe;

/// Latency samples of one pass, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// `handle_message(ParticipationRequest)` calls.
    pub admit: Vec<f64>,
    /// `advance_to` calls that produced an upload.
    pub phone_run: Vec<f64>,
    /// `handle_message(SensedDataUpload)` calls.
    pub upload: Vec<f64>,
    /// `process_data` calls.
    pub processor_pass: Vec<f64>,
    /// `rank_many` calls (one batch each).
    pub rank_batch: Vec<f64>,
    /// Replayed `assemble_matrix` per cold request (traced only).
    pub assemble: Vec<f64>,
    /// Replayed `distance_matrix` + `individual_rankings` (traced only).
    pub individual: Vec<f64>,
    /// Replayed `aggregate` (traced only).
    pub aggregate: Vec<f64>,
}

/// One pass: fixed work on a freshly built deployment.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds spent building the server, apps and phones or features.
    pub setup_s: f64,
    /// Measured wall seconds of the pass, set-up and checks excluded.
    pub wall_s: f64,
    /// Busy time per layer.
    pub probe: Probe,
    /// Latency samples.
    pub samples: Samples,
    /// Units of work completed: acked uploads, or answered rank requests.
    pub ops: u64,
    /// Operations attempted: messages sent, phone runs, rank requests.
    pub attempted: u64,
    /// Failed operations: rejections, decode failures, failed script
    /// runs, rank errors.
    pub failed: u64,
    /// Frames crossing the wire, and their bytes.
    pub frames: u64,
    /// Total encoded bytes of those frames.
    pub bytes: u64,
    /// Digest of the outputs (feature matrix, upload count, final order
    /// or rank results): equal between traced and untraced passes.
    pub digest: u64,
    /// Output-check failures; empty on a correct pass.
    pub problems: Vec<String>,
    /// The counters the program kept (traced passes only).
    pub metrics: Option<MetricsRegistry>,
    /// Worker-pool busy seconds during the pass (`sor_par` stats).
    pub par_busy_s: f64,
}

impl Pass {
    /// Records an output-check failure.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Runs benchmark-side work (output checks, replays, input
    /// generation) whose time does not count as wall time of the pass.
    pub fn excluded<R>(&mut self, f: impl FnOnce(&mut Pass) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self);
        self.probe.exclude(t0.elapsed());
        r
    }

    /// Takes the counters the program kept during the pass, if the
    /// recorder recorded: everything since `after_setup`, a snapshot
    /// taken once set-up was done.
    pub fn collect_metrics(&mut self, recorder: &Recorder, after_setup: Option<&MetricsRegistry>) {
        self.metrics = match (recorder.metrics_snapshot(), after_setup) {
            (Some(end), Some(start)) => Some(end.delta_since(start)),
            (end, _) => end,
        };
    }
}
