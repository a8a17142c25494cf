//! The churn-replanning benchmark: what one arrival/departure costs.
//!
//! Drives the deterministic churn scenario at three grid scales and
//! reports two figures per (arm, scale) point in the stub-criterion
//! line format `scripts/bench.sh` scrapes:
//!
//! - `sched_churn/{full,incr}/n=N` — wall nanoseconds per churn event;
//! - `sched_churn/{full,incr}_evals/n=N` — marginal-gain evaluations
//!   over the whole run (a deterministic work count smuggled through
//!   the same `~value ns/iter` line shape, not a time).
//!
//! `incr` is the scheduler itself: incremental CELF repair. `full` is
//! the plain-greedy oracle, `OnlineScheduler::replan_from_scratch`,
//! called after every arrival and departure (the initial population
//! included); its figures count and time only those oracle calls. After
//! each event the oracle's plan must equal the scheduler's planned
//! actions, or the bench panics.
//!
//! The eval lines are what `scripts/ci.sh` guards: incremental
//! re-planning must do at most 10% of the full-replan evaluations at
//! `n=4096`. Work counts are exact and host-independent, so the guard
//! is safe on single-core CI hosts where wall time is noise.
//!
//! Hand-rolled `main` (no criterion harness): the eval counts come
//! from one run, and the big `full` points are too slow for the stub
//! harness's fixed 20 iterations.

use std::time::{Duration, Instant};

use sor_core::schedule::GreedyStats;
use sor_sim::scenario::{run_churn_sim, run_churn_sim_with, ChurnConfig};

fn report(label: &str, value: u128, note: &str) {
    println!("bench {label:<48} ~{value} ns/iter ({note})");
}

fn iters(n: usize) -> u32 {
    if n >= 4096 {
        2
    } else {
        10
    }
}

/// One churn run with the oracle after every replan: its summed work,
/// the wall time spent inside it, and the number of replans.
fn oracle_run(cfg: ChurnConfig) -> (GreedyStats, Duration, u64) {
    let mut work = GreedyStats::default();
    let mut spent = Duration::ZERO;
    let out = run_churn_sim_with(cfg, |sched| {
        let start = Instant::now();
        let (plan, stats) = std::hint::black_box(sched.replan_from_scratch());
        spent += start.elapsed();
        work.absorb(stats);
        assert_eq!(plan.assignments(), sched.planned(), "incremental plan diverged from oracle");
    });
    (work, spent, out.stats.replans)
}

fn measure_full(n: usize) {
    let cfg = ChurnConfig::at_scale(n);
    let (work, _, _) = oracle_run(cfg); // warm-up; also the eval-count source
    let (mut spent, mut replans) = (Duration::ZERO, 0);
    for _ in 0..iters(n) {
        let (_, t, r) = oracle_run(cfg);
        spent += t;
        replans = r;
    }
    let per_event = spent.as_nanos() / u128::from(iters(n)) / u128::from(replans.max(1));
    report(&format!("sched_churn/full/n={n}"), per_event, "wall ns per churn event");
    report(
        &format!("sched_churn/full_evals/n={n}"),
        u128::from(work.gain_evaluations),
        "gain evaluations per run, not time",
    );
}

fn measure_incr(n: usize) {
    let cfg = ChurnConfig::at_scale(n);
    let out = run_churn_sim(cfg); // warm-up; also the eval-count source
    let start = Instant::now();
    for _ in 0..iters(n) {
        std::hint::black_box(run_churn_sim(cfg));
    }
    let per_event =
        start.elapsed().as_nanos() / u128::from(iters(n)) / u128::from(out.stats.replans.max(1));
    report(&format!("sched_churn/incr/n={n}"), per_event, "wall ns per churn event");
    report(
        &format!("sched_churn/incr_evals/n={n}"),
        u128::from(out.stats.gain_evaluations),
        "gain evaluations per run, not time",
    );
}

fn main() {
    for n in [64usize, 512, 4096] {
        measure_full(n);
        measure_incr(n);
    }
}
