//! Static-analysis throughput: the full `analyze` pipeline (resolve,
//! CFG, dataflow fixpoints, cost bounding) over a representative
//! sensing task. `scripts/bench.sh` records the
//! `script_analysis/*` figures into `BENCH_pipeline.json` so analysis
//! cost at server admission stays visible across PRs.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use sor_script::analysis::{analyze, CapabilitySet};

/// A task exercising every pass: a derived loop bound for the interval
/// domain, helper calls for taint summaries, branches for liveness,
/// and literal arithmetic the interval domain folds.
const ANALYSIS_TASK: &str = r#"
    local function spread(xs)
        return max(xs) - min(xs)
    end
    local budget = 8
    local rounds = budget * 2
    local samples = {}
    local variability = 0
    for i = 1, rounds do
        local batch = get_light_readings(4 + 2)
        local noise = get_noise_readings(8)
        if spread(batch) > 100 then
            variability = variability + 1
        else
            variability = variability + 0
        end
        insert(samples, mean(batch))
        insert(samples, stddev(noise))
        sleep(1 * 1)
    end
    return mean(samples) + variability
"#;

fn bench_analyze(c: &mut Criterion) {
    let caps = CapabilitySet::standard_sensing();
    c.bench_function("script_analysis/analyze_full", |b| {
        b.iter(|| black_box(analyze(ANALYSIS_TASK, &caps)))
    });
}

criterion_group!(benches, bench_analyze);
criterion_main!(benches);
