//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! - **A. Coverage σ sensitivity** — the per-feature kernel width of
//!   §III: slow features (large σ) saturate with few readings; fast
//!   features need many.
//! - **B. Lazy vs plain greedy** — identical schedules, very different
//!   wall time.
//! - **C. Aggregation quality** — footrule and Borda vs the exact
//!   weighted Kemeny optimum on random instances (the paper's
//!   2-approximation in practice).
//! - **D. Online vs oracle scheduling** — the cost of not knowing
//!   future arrivals.
//! - **E. Provider buffers** — the §II-A energy-saving claim, in
//!   millijoules.
//! - **F. Fairness** — the budget matroid's stated purpose ("ensure
//!   fairness by preventing certain mobile users from being abused"),
//!   measured with Jain's index on per-user load.
//!
//! ```sh
//! cargo run --release -p sor-bench --bin ablation
//! ```

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sor_core::coverage::GaussianCoverage;
use sor_core::ranking::{aggregate, weighted_kemeny, AggregationMethod, Ranking};
use sor_core::schedule::online::OnlineScheduler;
use sor_core::schedule::{greedy_seeded_stats, lazy_greedy, lazy_greedy_stats, ScheduleProblem};
use sor_core::time::TimeGrid;
use sor_sensors::environment::presets;
use sor_sensors::{BufferedProvider, EnergyMeter, Provider, SensorKind, SimulatedProvider};
use sor_sim::scenario::{draw_participants, SchedulingConfig};

fn main() {
    sigma_sensitivity();
    lazy_vs_plain();
    aggregation_quality();
    online_vs_oracle();
    buffer_energy();
    fairness();
}

// -------------------------------------------------------------------
// A. σ sensitivity
// -------------------------------------------------------------------
fn sigma_sensitivity() {
    println!("A. coverage σ sensitivity (20 users, budget 17, N=1080):");
    let cfg = SchedulingConfig::paper(20, 17, 11);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let participants = draw_participants(&cfg, &mut rng);
    let grid = TimeGrid::new(0.0, cfg.period, cfg.instants).unwrap();
    for sigma in [2.0, 5.0, 10.0, 20.0, 60.0] {
        let problem =
            ScheduleProblem::new(grid, GaussianCoverage::new(sigma), participants.clone());
        let cov = problem.average_coverage(&lazy_greedy(&problem));
        println!("  σ = {sigma:>4.0} s  → average coverage {cov:.3}");
    }
    println!();
}

// -------------------------------------------------------------------
// B. lazy vs plain greedy
// -------------------------------------------------------------------
fn lazy_vs_plain() {
    println!("B. lazy vs plain greedy (identical output, different cost):");
    for users in [10usize, 25, 40] {
        let cfg = SchedulingConfig::paper(users, 17, 23);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let grid = TimeGrid::new(0.0, cfg.period, cfg.instants).unwrap();
        let problem = ScheduleProblem::new(
            grid,
            GaussianCoverage::new(cfg.sigma),
            draw_participants(&cfg, &mut rng),
        );
        let t0 = Instant::now();
        let (plain, plain_stats) = greedy_seeded_stats(&problem, &[]);
        let t_plain = t0.elapsed();
        let t0 = Instant::now();
        let (lazy, lazy_stats) = lazy_greedy_stats(&problem);
        let t_lazy = t0.elapsed();
        assert_eq!(plain, lazy, "ablation invariant: schedules must match");
        println!(
            "  users = {users:<3} plain {:>8.1?} ({:>8} evals)  lazy {:>8.1?} ({:>6} evals)  \
             speedup {:>4.1}×  evals cut {:>4.1}×",
            t_plain,
            plain_stats.gain_evaluations,
            t_lazy,
            lazy_stats.gain_evaluations,
            t_plain.as_secs_f64() / t_lazy.as_secs_f64().max(1e-9),
            plain_stats.gain_evaluations as f64 / lazy_stats.gain_evaluations.max(1) as f64
        );
    }
    println!();
}

// -------------------------------------------------------------------
// C. aggregation quality
// -------------------------------------------------------------------
fn random_ranking(n: usize, rng: &mut StdRng) -> Ranking {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    Ranking::from_order(order).unwrap()
}

fn aggregation_quality() {
    println!("C. aggregation quality vs exact weighted Kemeny (100 random instances, N=7, M=5):");
    let mut rng = StdRng::seed_from_u64(37);
    let mut ratios_foot = Vec::new();
    let mut ratios_kem = Vec::new();
    let mut ratios_borda = Vec::new();
    for _ in 0..100 {
        let rankings: Vec<Ranking> = (0..5).map(|_| random_ranking(7, &mut rng)).collect();
        let weights: Vec<f64> = (0..5).map(|_| rng.random_range(1..=5) as f64).collect();
        let exact = aggregate(&rankings, &weights, AggregationMethod::KemenyExact).unwrap();
        let foot = aggregate(&rankings, &weights, AggregationMethod::Footrule).unwrap();
        let kem = aggregate(&rankings, &weights, AggregationMethod::FootruleKemenized).unwrap();
        let borda = aggregate(&rankings, &weights, AggregationMethod::Borda).unwrap();
        let opt = weighted_kemeny(&exact, &rankings, &weights).max(1e-9);
        ratios_foot.push(weighted_kemeny(&foot, &rankings, &weights) / opt);
        ratios_kem.push(weighted_kemeny(&kem, &rankings, &weights) / opt);
        ratios_borda.push(weighted_kemeny(&borda, &rankings, &weights) / opt);
    }
    let stats = |xs: &[f64]| {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (mean, max)
    };
    let (fm, fx) = stats(&ratios_foot);
    let (km, kx) = stats(&ratios_kem);
    let (bm, bx) = stats(&ratios_borda);
    println!("  footrule         κ_K / optimal: mean {fm:.3}, worst {fx:.3} (bound: 2.0)");
    println!("  + kemenization   κ_K / optimal: mean {km:.3}, worst {kx:.3} (bound: 2.0)");
    println!("  borda            κ_K / optimal: mean {bm:.3}, worst {bx:.3} (no bound)");
    println!();
}

// -------------------------------------------------------------------
// D. online vs oracle
// -------------------------------------------------------------------
fn online_vs_oracle() {
    println!("D. online arrival-driven scheduling vs offline oracle (25 users, budget 17):");
    let cfg = SchedulingConfig::paper(25, 17, 51);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let grid = TimeGrid::new(0.0, cfg.period, cfg.instants).unwrap();
    let mut participants = draw_participants(&cfg, &mut rng);
    participants.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));

    // Oracle: sees everyone up front.
    let oracle_problem =
        ScheduleProblem::new(grid, GaussianCoverage::new(cfg.sigma), participants.clone());
    let oracle_cov = oracle_problem.average_coverage(&lazy_greedy(&oracle_problem));

    // Online: learns of each user at their arrival instant.
    let mut online = OnlineScheduler::new(grid, GaussianCoverage::new(cfg.sigma));
    for p in &participants {
        online.arrive(p.user, p.arrival, p.departure, p.budget);
    }
    online.advance_to(cfg.period);
    let online_cov = online.coverage() / grid.len() as f64;

    println!("  oracle  : {oracle_cov:.3}");
    println!("  online  : {online_cov:.3}");
    println!("  gap     : {:.1}%", 100.0 * (1.0 - online_cov / oracle_cov));
    println!();
}

// -------------------------------------------------------------------
// E. provider buffers
// -------------------------------------------------------------------
fn buffer_energy() {
    println!("E. provider buffers: energy for 30 task requests, 3 concurrent tasks per instant:");
    let env = Arc::new(presets::starbucks(1));
    for (label, freshness) in [("no buffer", 0.0f64), ("5 s buffer", 5.0)] {
        let meter = EnergyMeter::new();
        let provider = BufferedProvider::new(
            SimulatedProvider::new(SensorKind::WifiRssi, env.clone()).with_meter(meter.clone()),
            freshness.max(1e-9),
        );
        // Three tasks sampling at (almost) the same times — the sharing
        // scenario of §II-A.
        for round in 0..10 {
            let t = round as f64 * 60.0;
            for task in 0..3 {
                provider.acquire(5, t + task as f64 * 0.5, 0.5).unwrap();
            }
        }
        println!(
            "  {label:<12} real acquisitions {:>2}, served from buffer {:>2}, energy {:>7.1} mJ",
            provider.real_acquisitions(),
            provider.served_from_cache(),
            meter.total_mj()
        );
    }
}

// -------------------------------------------------------------------
// F. fairness
// -------------------------------------------------------------------
fn fairness() {
    use sor_core::schedule::{baseline, UserId};
    println!("\nF. fairness of per-user load (Jain's index; 1.0 = perfectly even):");
    for (users, budget) in [(20usize, 17usize), (40, 17), (40, 25)] {
        let cfg = SchedulingConfig::paper(users, budget, 77);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let grid = TimeGrid::new(0.0, cfg.period, cfg.instants).unwrap();
        let participants = draw_participants(&cfg, &mut rng);
        let ids: Vec<UserId> = participants.iter().map(|p| p.user).collect();
        let problem = ScheduleProblem::new(grid, GaussianCoverage::new(cfg.sigma), participants);
        let g = lazy_greedy(&problem);
        let b = baseline(&problem);
        println!(
            "  users={users:<3} budget={budget:<3} greedy {:.3} ({} readings)   baseline {:.3} ({} readings)",
            g.fairness_index(&ids),
            g.len(),
            b.fairness_index(&ids),
            b.len(),
        );
    }
}
