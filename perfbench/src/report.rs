//! Turns passes into metrics, runs the run-level checks, and prints the
//! report: provenance and one line per metric (with its unit and sample
//! count), then the result as one JSON object on the last line.

use std::process::ExitCode;

use sor_obs::MetricsRegistry;

use crate::measure::{median, quantile, Layer};
use crate::pass::Pass;
use crate::Workload;

/// `obs.accounted_ratio` must fall in this range: the layers' busy
/// times explain the traced wall time, within a tenth.
const ACCOUNTED_RANGE: (f64, f64) = (0.9, 1.1);

/// One reported figure.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// Collects metrics, problems and provenance for one run.
#[derive(Debug)]
pub struct Report {
    workload: Workload,
    seed: u64,
    workers: usize,
    trace: bool,
    passes: usize,
    attempted: u64,
    failed: u64,
    /// The metrics of the JSON result, in declaration order.
    result: Vec<Metric>,
    /// Further figures printed for the reader only.
    extra: Vec<Metric>,
    /// Free-form lines printed for the reader.
    notes: Vec<String>,
    problems: Vec<String>,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: Workload, seed: u64, workers: usize, trace: bool) -> Self {
        Report {
            workload,
            seed,
            workers,
            trace,
            passes: 0,
            attempted: 0,
            failed: 0,
            result: Vec::new(),
            extra: Vec::new(),
            notes: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Records a run-level check failure.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    fn absorb(&mut self, pass: &Pass) {
        self.passes += 1;
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        for p in &pass.problems {
            self.problems.push(format!("pass {}: {p}", self.passes));
        }
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.result.push(Metric { name, unit, value, samples });
    }

    fn push_extra(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.extra.push(Metric { name, unit, value, samples });
    }

    /// The end-to-end metrics of untraced passes. The JSON result names
    /// them the same on every workload; the lines above it also give
    /// each under its workload-specific name.
    pub fn end_to_end(&mut self, passes: &[Pass], setups: &[f64]) {
        for pass in passes {
            self.absorb(pass);
        }
        if passes.iter().any(|p| p.digest != passes[0].digest) {
            self.problem("passes of one seed produced different outputs");
        }
        let pooled = |pick: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
            passes.iter().flat_map(|p| pick(p).iter().copied()).collect()
        };
        let walls: Vec<String> = passes.iter().map(|p| format!("{:.4}", p.wall_s)).collect();
        self.notes.push(format!("pass wall_s {}", walls.join(" ")));
        let per_pass: Vec<f64> = passes.iter().map(|p| p.ops as f64 / p.wall_s).collect();
        let admit = pooled(|p| &p.samples.admit);
        let phone_run = pooled(|p| &p.samples.phone_run);
        let batches = pooled(|p| &p.samples.rank_batch);
        let (primary, throughput_name) = match self.workload {
            Workload::Field => (&admit, "uploads_per_s"),
            Workload::Sense => (&phone_run, "uploads_per_s"),
            Workload::Rank => (&batches, "ranks_per_s"),
        };
        let throughput = median(&per_pass);
        let (p50_ms, p90_ms) = (quantile(primary, 0.5) * 1e3, quantile(primary, 0.9) * 1e3);
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let rss = peak_rss_mb();

        self.push("setup_s", "s", median(setups), setups.len());
        self.push("throughput_per_s", "1/s", throughput, passes.len());
        self.push("latency_p50_ms", "ms", p50_ms, primary.len());
        self.push("latency_p90_ms", "ms", p90_ms, primary.len());
        self.push("success_ratio", "ratio", 1.0 - failed_ratio, self.attempted as usize);
        self.push("peak_rss_mb", "MB", rss, 1);

        // The same figures under their workload-specific names, plus the
        // latency that is secondary on the workload: printed for the
        // reader, not gated.
        self.push_extra(throughput_name, "1/s", throughput, passes.len());
        let ms = |xs: &[f64], q| quantile(xs, q) * 1e3;
        let us = |xs: &[f64], q| quantile(xs, q) * 1e6;
        if !admit.is_empty() {
            self.push_extra("admit_p50_ms", "ms", ms(&admit, 0.5), admit.len());
            self.push_extra("admit_p90_ms", "ms", ms(&admit, 0.9), admit.len());
        }
        if !phone_run.is_empty() {
            self.push_extra("phone_run_p50_us", "us", us(&phone_run, 0.5), phone_run.len());
            self.push_extra("phone_run_p90_us", "us", us(&phone_run, 0.9), phone_run.len());
        }
        if !batches.is_empty() {
            self.push_extra("rank_p50_ms", "ms", ms(&batches, 0.5), batches.len());
            self.push_extra("rank_p90_ms", "ms", ms(&batches, 0.9), batches.len());
        }
        self.push_extra("failed_ratio", "ratio", failed_ratio, self.attempted as usize);
    }

    /// The per-layer metrics of traced passes, with the run-level
    /// checks: outputs equal between each untraced/traced pair, work
    /// counts equal across traced passes, and the accounting closes.
    pub fn per_layer(&mut self, pairs: &[(Pass, Pass)]) {
        for (untraced, traced) in pairs {
            self.absorb(untraced);
            self.absorb(traced);
        }
        let expected = pairs[0].0.digest;
        for (i, (untraced, traced)) in pairs.iter().enumerate() {
            if untraced.digest != expected || traced.digest != expected {
                self.problem(format!(
                    "pair {}: outputs digest untraced {:016x}, traced {:016x}, first pass {expected:016x}",
                    i + 1,
                    untraced.digest,
                    traced.digest,
                ));
            }
        }
        let per_pair: Vec<Vec<Metric>> = pairs.iter().map(|(u, t)| layer_metrics(u, t)).collect();
        let first = &per_pair[0];
        for (i, metrics) in per_pair.iter().enumerate().skip(1) {
            for (a, b) in first.iter().zip(metrics) {
                if is_count(a.unit) && a.value.to_bits() != b.value.to_bits() {
                    self.problem(format!(
                        "work count {} is {} in traced pass {} but {} in traced pass 1",
                        a.name,
                        b.value,
                        i + 1,
                        a.value
                    ));
                }
            }
        }
        for (k, m) in first.iter().enumerate() {
            let values: Vec<f64> = per_pair.iter().map(|ms| ms[k].value).collect();
            let samples: usize = per_pair.iter().map(|ms| ms[k].samples).sum();
            self.push(m.name, m.unit, median(&values), samples);
        }
        let accounted =
            self.result.iter().find(|m| m.name == "obs.accounted_ratio").map_or(0.0, |m| m.value);
        if !(ACCOUNTED_RANGE.0..=ACCOUNTED_RANGE.1).contains(&accounted) {
            self.problem(format!(
                "obs.accounted_ratio {accounted:.3} is outside {:?}: layer busy times do not explain the traced wall time",
                ACCOUNTED_RANGE
            ));
        }
    }

    /// Prints the report and the JSON result; the exit code says whether
    /// every check passed.
    pub fn finish(self) -> ExitCode {
        let correct = self.problems.is_empty() && !self.result.is_empty();
        println!(
            "provenance git_sha={} host={} nproc={} workers={} seed={} workload={} trace={} passes={}",
            git_sha(),
            host(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            self.workers,
            self.seed,
            self.workload.name(),
            u8::from(self.trace),
            self.passes,
        );
        for m in self.extra.iter().chain(&self.result) {
            println!("metric {} {} {} n={}", m.name, number(m.value), m.unit, m.samples);
        }
        for n in &self.notes {
            println!("{n}");
        }
        for p in &self.problems {
            println!("check failed: {p}");
        }
        let metrics: Vec<String> = self
            .result
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Count-like units: deterministic work that must repeat exactly.
fn is_count(unit: &str) -> bool {
    matches!(unit, "count" | "bytes")
}

/// A JSON-safe number: empty samples and idle layers read 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The per-layer figures of one untraced/traced pass pair, in the order
/// `BENCHMARK.json` declares them.
fn layer_metrics(untraced: &Pass, traced: &Pass) -> Vec<Metric> {
    let empty = MetricsRegistry::new();
    let m = traced.metrics.as_ref().unwrap_or(&empty);
    let busy = |layer| traced.probe.busy_s(layer);
    let count = |name: &str| m.counter(name) as f64;
    let family = |prefix: &str| m.counter_family_total(prefix) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let s = &traced.samples;
    let q = |xs: &[f64], q: f64, scale: f64| quantile(xs, q) * scale;
    let (runs, instructions) = (count("script.runs_started"), count("script.instructions_used"));
    let (evals, replans) = (count("sched.gain_evaluations"), family("sched.replans_run"));
    let (hits, misses) = (count("server.rank_cache_hits"), count("server.rank_cache_misses"));
    let metric = |name, unit, value, samples| Metric { name, unit, value, samples };
    vec![
        metric("frontend.busy_s", "s", busy(Layer::Frontend), 1),
        metric("script.runs", "count", runs, 1),
        metric("script.instructions", "count", instructions, 1),
        metric("script.instructions_per_run", "count", ratio(instructions, runs), 1),
        metric("sensors.records", "count", count("phone.records_acquired"), 1),
        metric("proto.busy_s", "s", busy(Layer::Proto), 1),
        metric("proto.frames", "count", traced.frames as f64, 1),
        metric("proto.bytes", "bytes", traced.bytes as f64, 1),
        metric("server.admit_busy_s", "s", busy(Layer::Admit), s.admit.len()),
        metric("server.complete_busy_s", "s", busy(Layer::Complete), 1),
        metric("server.tick_busy_s", "s", busy(Layer::Tick), 1),
        metric("sched.gain_evals", "count", evals, 1),
        metric("sched.evals_per_replan", "count", ratio(evals, replans), 1),
        metric("sched.heap_pops", "count", count("sched.heap_pops"), 1),
        metric("sched.replans", "count", replans, 1),
        metric("server.upload_busy_s", "s", busy(Layer::Upload), s.upload.len()),
        metric("server.upload_p50_us", "us", q(&s.upload, 0.5, 1e6), s.upload.len()),
        metric("server.upload_p90_us", "us", q(&s.upload, 0.9, 1e6), s.upload.len()),
        metric("durable.commits", "count", count("durable.commits_applied"), 1),
        metric("durable.wal_bytes", "bytes", count("durable.wal_bytes"), 1),
        metric("store.rows_inserted", "count", family("store.rows_inserted"), 1),
        metric("processor.busy_s", "s", busy(Layer::Processor), s.processor_pass.len()),
        metric(
            "processor.pass_p50_ms",
            "ms",
            q(&s.processor_pass, 0.5, 1e3),
            s.processor_pass.len(),
        ),
        metric(
            "processor.pass_p90_ms",
            "ms",
            q(&s.processor_pass, 0.9, 1e3),
            s.processor_pass.len(),
        ),
        metric("processor.records_stored", "count", count("server.records_stored"), 1),
        metric("store.rows_scanned", "count", family("store.rows_scanned"), 1),
        metric("ranking.busy_s", "s", busy(Layer::Ranking), s.rank_batch.len()),
        metric("ranking.cache_hits", "count", hits, 1),
        metric("ranking.cache_hit_ratio", "ratio", ratio(hits, hits + misses), 1),
        metric("ranking.places_scored", "count", count("server.rank_places_scored"), 1),
        metric(
            "par.utilization",
            "ratio",
            ratio(traced.par_busy_s, traced.wall_s * sor_par::current_threads() as f64),
            1,
        ),
        metric("ranking.assemble_us", "us", q(&s.assemble, 0.5, 1e6), s.assemble.len()),
        metric("ranking.individual_us", "us", q(&s.individual, 0.5, 1e6), s.individual.len()),
        metric("ranking.aggregate_us", "us", q(&s.aggregate, 0.5, 1e6), s.aggregate.len()),
        metric("obs.overhead_ratio", "ratio", traced.wall_s / untraced.wall_s - 1.0, 1),
        metric("obs.accounted_ratio", "ratio", traced.probe.total_busy_s() / traced.wall_s, 1),
    ]
}

/// Peak resident memory of this process, from the kernel's `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host name, for telling results from different machines apart.
fn host() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .or_else(|| std::fs::read_to_string("/proc/sys/kernel/hostname").ok())
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_obs::{parse_json, Json};

    /// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = parse_json(&src).expect("BENCHMARK.json parses");
        let text = |m: &Json, key: &str| match m.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{section}: bad {key}: {other:?}"),
        };
        let metrics = json.get(section).and_then(Json::items).expect("section present");
        metrics.iter().map(|m| (text(m, "name"), text(m, "unit"))).collect()
    }

    fn named(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    #[test]
    fn results_report_exactly_the_declared_metrics() {
        let mut report = Report::new(Workload::Field, 1, 1, false);
        report.end_to_end(&[Pass::default()], &[1.0]);
        assert_eq!(named(&report.result), declared("end_to_end"));
        let layers = layer_metrics(&Pass::default(), &Pass::default());
        assert_eq!(named(&layers), declared("per_layer"));
    }
}
