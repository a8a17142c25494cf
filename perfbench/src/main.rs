//! `sor-perfbench`: the SOR benchmark.
//!
//! Drives SOR through the public APIs of its layers — `MobileFrontend`
//! for the phones, `Message::encode`/`decode` for the wire, and
//! `SensingServer::{handle_message, tick, process_data, rank_many}` for
//! a durable server on a simulated disk — and times every call from the
//! outside. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! sor-perfbench --workload <field|sense|rank> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats untraced passes for the given seconds and prints
//! the end-to-end metrics. `--trace 1` alternates untraced and traced
//! passes and prints the per-layer metrics. The last line of standard
//! output is one JSON object; the exit code is 0 only when every output
//! check passed.

mod measure;
mod pass;
mod rank;
mod report;
mod sensing;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sor_obs::Recorder;

use crate::pass::Pass;
use crate::report::Report;

/// Environment knobs that select between implementations. The benchmark
/// measures production defaults, so it refuses to run with any set.
const KNOBS: &[&str] =
    &["SOR_SCHED_SOLVER", "SOR_SCRIPT_OPT", "SOR_SCRIPT_VM", "SOR_THREADS", "SOR_TRACE_SAMPLE"];

/// Set-up samples gathered per run, building extra deployments when the
/// timed passes gave fewer.
const MIN_SETUP_SAMPLES: usize = 31;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §V-B coffee-shop test at three times paper width.
    Field,
    /// On-phone aggregation by many phones.
    Sense,
    /// The read path: batched personalized ranking.
    Rank,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "field" => Some(Workload::Field),
            "sense" => Some(Workload::Sense),
            "rank" => Some(Workload::Rank),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Field => "field",
            Workload::Sense => "sense",
            Workload::Rank => "rank",
        }
    }

    fn pass(self, seed: u64, recorder: &Recorder) -> Pass {
        match self {
            Workload::Field => sensing::run_pass(&sensing::FIELD, seed, recorder),
            Workload::Sense => sensing::run_pass(&sensing::SENSE, seed, recorder),
            Workload::Rank => rank::run_pass(seed, recorder),
        }
    }

    fn setup_only(self, seed: u64) -> Result<f64, String> {
        match self {
            Workload::Field => sensing::setup_only(&sensing::FIELD, seed),
            Workload::Sense => sensing::setup_only(&sensing::SENSE, seed),
            Workload::Rank => rank::setup_only(seed),
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sor-perfbench: {e}");
            eprintln!(
                "usage: sor-perfbench --workload <field|sense|rank> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = KNOBS.iter().copied().filter(|k| std::env::var_os(k).is_some()).collect();
    if !set.is_empty() {
        eprintln!(
            "sor-perfbench: refusing to run with {} set; the benchmark measures production defaults",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    sor_par::set_threads(workers);

    let mut report = Report::new(args.workload, args.seed, workers, args.trace);
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        run_traced(&args, budget, &mut report);
    } else if let Err(e) = run_untraced(&args, budget, &mut report) {
        report.problem(e);
    }
    report.finish()
}

/// Untraced passes until the time budget is spent (at least one), plus
/// set-up-only builds until there are enough set-up samples.
fn run_untraced(args: &Args, budget: Duration, report: &mut Report) -> Result<(), String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        passes.push(args.workload.pass(args.seed, &Recorder::disabled()));
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setups.len() < MIN_SETUP_SAMPLES {
        setups.push(args.workload.setup_only(args.seed)?);
    }
    report.end_to_end(&passes, &setups);
    Ok(())
}

/// Pairs of untraced and traced passes (at least two pairs) until the
/// time budget is spent, alternating which side runs first. Each traced
/// pass must reproduce its untraced twin's outputs and the first traced
/// pass's work counts.
fn run_traced(args: &Args, budget: Duration, report: &mut Report) {
    let start = Instant::now();
    let mut pairs: Vec<(Pass, Pass)> = Vec::new();
    while pairs.len() < 2 || start.elapsed() < budget {
        let untraced = || args.workload.pass(args.seed, &Recorder::disabled());
        let traced = || args.workload.pass(args.seed, &Recorder::enabled());
        pairs.push(if pairs.len().is_multiple_of(2) {
            let u = untraced();
            (u, traced())
        } else {
            let t = traced();
            (untraced(), t)
        });
    }
    report.per_layer(&pairs);
}
