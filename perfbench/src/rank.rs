//! The `rank` workload: the read path.
//!
//! A durable server holds one category of 32 places with 8 features,
//! filled through admissions, uploads and a Data Processor pass. A pass
//! then issues 64 `rank_many` batches of 64 requests. Half of every
//! batch comes from 8 fixed profiles, which the rank cache answers after
//! their first batch in a features epoch; the other half are fresh
//! profiles, which always miss. Every 8 batches each place uploads new
//! readings and a `process_data` pass advances the features epoch, as
//! the periodic processor does, so the hit share is a property of the
//! workload and not 100%, and a stale cache entry would show as a wrong
//! answer.

use std::time::Instant;

use sor_core::ranking::{
    aggregate, distance_matrix, individual_rankings, PersonalizableRanker, Preference,
    UserPreferences,
};
use sor_durable::{DurableOptions, SimDisk};
use sor_obs::Recorder;
use sor_proto::{Message, SensedRecord};
use sor_sensors::SensorKind;
use sor_server::ranker::{assemble_matrix, rank_category, CategoryRanking};
use sor_server::{ApplicationSpec, Extractor, FeatureSpec, SensingServer, ServerError};

use crate::measure::{Digest, Layer, SplitMix};
use crate::pass::Pass;

const CATEGORY: &str = "bench-places";
const PLACES: usize = 32;
/// One feature per sensor, each a plain mean.
const FEATURES: [(&str, SensorKind, f64, f64); 8] = [
    ("temperature", SensorKind::Temperature, 60.0, 78.0),
    ("humidity", SensorKind::Humidity, 20.0, 60.0),
    ("brightness", SensorKind::Light, 100.0, 1200.0),
    ("noise", SensorKind::Microphone, 0.05, 0.6),
    ("wifi", SensorKind::WifiRssi, -80.0, -45.0),
    ("pressure", SensorKind::Pressure, 1005.0, 1020.0),
    ("heading", SensorKind::Compass, 0.0, 360.0),
    ("co", SensorKind::GasCo, 0.0, 9.0),
];
const UPLOADS_PER_PLACE: usize = 4;
/// Set-up readings lie within this share of a feature's range of the
/// place's level; each epoch's new readings spread wider, enough to
/// reorder neighbouring places.
const SETUP_SPREAD: f64 = 0.01;
const EPOCH_SPREAD: f64 = 0.3;
const VALUES_PER_RECORD: usize = 6;
const BATCH: usize = 64;
const FIXED_PROFILES: usize = 8;
/// Batches per features epoch. The first batch of an epoch misses on all
/// 64 requests and takes about twice as long as the others; at one in
/// eight batches those cold batches hold the p90 of batch latency, so
/// the p50 reads a warm batch and the p90 a cold one. With a share near
/// one in ten, the p90 would instead sit on the edge between the two.
const BATCHES_PER_EPOCH: usize = 8;
const BATCHES_PER_PASS: usize = 64;
/// Cold requests per batch replayed layer by layer in a traced pass.
const REPLAYS_PER_BATCH: usize = 4;

/// A random preference profile over the category's features.
fn profile(rng: &mut SplitMix, name: &str) -> UserPreferences {
    let preferences = FEATURES
        .iter()
        .map(|&(_, _, lo, hi)| {
            let level = 1 + rng.below(5) as u8;
            match rng.below(3) {
                0 => Preference::value(rng.range(lo, hi), level),
                1 => Preference::largest(level),
                _ => Preference::smallest(level),
            }
        })
        .collect();
    UserPreferences::new(name, preferences)
}

/// The filled category: the server and, per place, its participant's
/// task and the level every sensor reads around.
struct Catalog {
    server: SensingServer,
    places: Vec<(u64, Vec<f64>)>,
}

/// One upload of every sensor for one place: readings within `spread`
/// (a share of each feature's range) of the place's levels.
fn upload(rng: &mut SplitMix, task_id: u64, levels: &[f64], at: f64, spread: f64) -> Message {
    let records = FEATURES
        .iter()
        .zip(levels)
        .map(|(&(_, kind, lo, hi), &level)| SensedRecord {
            timestamp: at,
            window: 3.0,
            sensor: kind.wire_id(),
            values: (0..VALUES_PER_RECORD)
                .map(|_| level + rng.range(-spread, spread) * (hi - lo))
                .collect(),
        })
        .collect();
    Message::SensedDataUpload { task_id, records }
}

/// Builds the durable server and fills the category: one participant
/// per place uploads a few windows of every sensor, then a processor
/// pass computes the features.
fn setup(seed: u64, recorder: &Recorder) -> Result<Catalog, String> {
    let fail = |what: &str, e: ServerError| format!("{what}: {e}");
    let disk = SimDisk::new(seed ^ 0xD15C);
    let (mut server, _) =
        SensingServer::durable(Box::new(disk), DurableOptions::default(), recorder.clone(), 0.0)
            .map_err(|e| fail("server start", e))?;
    let mut rng = SplitMix::new(seed, 1);
    let mut places = Vec::with_capacity(PLACES);
    for i in 0..PLACES {
        let app_id = i as u64 + 1;
        let (latitude, longitude) = (43.0 + 0.01 * i as f64, -76.0);
        server
            .register_application(ApplicationSpec {
                app_id,
                name: format!("place-{i:02}"),
                creator: "perfbench".into(),
                category: CATEGORY.into(),
                latitude,
                longitude,
                radius_m: 300.0,
                script: "get_temperature_readings(1)".into(),
                period_seconds: 600.0,
                instants: 60,
                features: FEATURES
                    .iter()
                    .map(|&(name, kind, _, _)| {
                        FeatureSpec::new(name, "", Extractor::Mean { sensor: kind.wire_id() }, 10.0)
                    })
                    .collect(),
            })
            .map_err(|e| fail("register app", e))?;
        let replies = server
            .handle_message(&Message::ParticipationRequest {
                token: app_id,
                app_id,
                latitude,
                longitude,
                budget: 1,
                stay_seconds: 600.0,
            })
            .map_err(|e| fail("admission", e))?;
        let task_id = replies
            .iter()
            .find_map(|(_, m)| match m {
                Message::ScheduleAssignment { task_id, .. } => Some(*task_id),
                _ => None,
            })
            .ok_or("admission returned no schedule")?;
        let levels: Vec<f64> = FEATURES.iter().map(|&(_, _, lo, hi)| rng.range(lo, hi)).collect();
        for u in 0..UPLOADS_PER_PLACE {
            let msg = upload(&mut rng, task_id, &levels, u as f64 * 10.0, SETUP_SPREAD);
            server.handle_message(&msg).map_err(|e| fail("upload", e))?;
        }
        places.push((task_id, levels));
    }
    server.process_data().map_err(|e| fail("processor pass", e))?;
    Ok(Catalog { server, places })
}

/// Builds a server and drops it: one extra set-up sample.
pub fn setup_only(seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let catalog = setup(seed, &Recorder::disabled())?;
    let elapsed = t0.elapsed().as_secs_f64();
    drop(catalog);
    Ok(elapsed)
}

/// One pass: set up, run every batch, check the outputs.
pub fn run_pass(seed: u64, recorder: &Recorder) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    let Catalog { mut server, places } = match setup(seed, recorder) {
        Ok(c) => c,
        Err(e) => {
            pass.problem(e);
            return pass;
        }
    };
    pass.setup_s = t0.elapsed().as_secs_f64();
    let mut fixed_rng = SplitMix::new(seed, 2);
    let fixed: Vec<UserPreferences> =
        (0..FIXED_PROFILES).map(|f| profile(&mut fixed_rng, &format!("fixed-{f}"))).collect();
    let mut fresh_rng = SplitMix::new(seed, 3);
    let mut data_rng = SplitMix::new(seed, 4);
    let replay = recorder.is_enabled();
    let mut digest = Digest::default();
    // Per fixed profile, every order answered for it in this epoch.
    let mut epoch_orders: Vec<Vec<Vec<u64>>> = vec![Vec::new(); FIXED_PROFILES];

    let after_setup = recorder.metrics_snapshot();
    sor_par::reset_stats();
    let start = Instant::now();
    for b in 0..BATCHES_PER_PASS {
        if b > 0 && b % BATCHES_PER_EPOCH == 0 {
            pass.excluded(|pass| verify_epoch(&server, &fixed, &mut epoch_orders, pass));
            // New readings for every place, so the next epoch's features
            // (and some rankings) differ from this one's.
            let data: Vec<Message> = pass.excluded(|_| {
                let at = 1000.0 + b as f64;
                places
                    .iter()
                    .map(|(task, levels)| upload(&mut data_rng, *task, levels, at, EPOCH_SPREAD))
                    .collect()
            });
            for msg in &data {
                pass.attempted += 1;
                let (result, dt) = pass.probe.timed(Layer::Upload, || server.handle_message(msg));
                pass.samples.upload.push(dt);
                if let Err(e) = result {
                    pass.failed += 1;
                    pass.problem(format!("upload failed: {e}"));
                }
            }
            pass.attempted += 1;
            let (result, dt) = pass.probe.timed(Layer::Processor, || server.process_data());
            pass.samples.processor_pass.push(dt);
            if let Err(e) = result {
                pass.failed += 1;
                pass.problem(format!("processor pass failed: {e}"));
            }
        }
        let fresh: Vec<UserPreferences> = pass.excluded(|_| {
            (0..BATCH / 2).map(|k| profile(&mut fresh_rng, &format!("fresh-{b}-{k}"))).collect()
        });
        let requests: Vec<(&str, &UserPreferences)> = (0..BATCH)
            .map(|k| {
                (
                    CATEGORY,
                    if k % 2 == 0 { &fixed[(k / 2) % FIXED_PROFILES] } else { &fresh[k / 2] },
                )
            })
            .collect();
        let (results, dt) = pass.probe.timed(Layer::Ranking, || server.rank_many(&requests));
        pass.samples.rank_batch.push(dt);
        pass.attempted += BATCH as u64;
        pass.excluded(|pass| {
            for (k, result) in results.iter().enumerate() {
                match result {
                    Ok(ranking) => {
                        pass.ops += 1;
                        ranking.app_order.iter().for_each(|&app| digest.u64(app));
                        if k % 2 == 0 {
                            epoch_orders[(k / 2) % FIXED_PROFILES].push(ranking.app_order.clone());
                        }
                    }
                    Err(e) => {
                        pass.failed += 1;
                        pass.problem(format!("rank request {k} of batch {b} failed: {e}"));
                    }
                }
            }
            if replay {
                replay_cold(&server, &requests, &results, pass);
            }
        });
    }
    pass.excluded(|pass| verify_epoch(&server, &fixed, &mut epoch_orders, pass));
    pass.wall_s = start.elapsed().as_secs_f64() - pass.probe.excluded_s();
    pass.par_busy_s = sor_par::stats().busy_ns as f64 / 1e9;
    pass.digest = digest.value();
    pass.collect_metrics(recorder, after_setup.as_ref());
    pass
}

/// Every answer a fixed profile got in this epoch, cache hits included,
/// must equal a fresh `rank_category` on the same database.
fn verify_epoch(
    server: &SensingServer,
    fixed: &[UserPreferences],
    epoch_orders: &mut [Vec<Vec<u64>>],
    pass: &mut Pass,
) {
    for (prefs, orders) in fixed.iter().zip(epoch_orders.iter_mut()) {
        match rank_category(server.database(), server.applications(), CATEGORY, prefs) {
            Ok(fresh) => {
                if orders.iter().any(|o| *o != fresh.app_order) {
                    pass.problem(format!(
                        "{}: a cached ranking differs from a fresh one",
                        prefs.name
                    ));
                }
            }
            Err(e) => pass.problem(format!("{}: fresh rank_category failed: {e}", prefs.name)),
        }
        orders.clear();
    }
}

/// Replays the first cold requests of a batch through the ranking
/// stages one by one, timing each: matrix assembly, the distance
/// matrix with the individual rankings, and the footrule aggregation.
fn replay_cold(
    server: &SensingServer,
    requests: &[(&str, &UserPreferences)],
    results: &[Result<CategoryRanking, ServerError>],
    pass: &mut Pass,
) {
    let method = PersonalizableRanker::new().method();
    for k in (1..requests.len()).step_by(2).take(REPLAYS_PER_BATCH) {
        let prefs = requests[k].1;
        let t0 = Instant::now();
        let assembled = assemble_matrix(server.database(), server.applications(), CATEGORY);
        let t1 = Instant::now();
        let Ok((matrix, ids)) = assembled else {
            pass.problem("replay: matrix assembly failed");
            continue;
        };
        let individual = distance_matrix(&matrix, prefs).map(|gamma| individual_rankings(&gamma));
        let t2 = Instant::now();
        let Ok(individual) = individual else {
            pass.problem("replay: distance matrix failed");
            continue;
        };
        let aggregated = aggregate(&individual, &prefs.weights(), method);
        let t3 = Instant::now();
        pass.samples.assemble.push((t1 - t0).as_secs_f64());
        pass.samples.individual.push((t2 - t1).as_secs_f64());
        pass.samples.aggregate.push((t3 - t2).as_secs_f64());
        let replayed: Option<Vec<u64>> =
            aggregated.ok().map(|r| r.order().iter().map(|&p| ids[p]).collect());
        let served = results[k].as_ref().ok().map(|r| r.app_order.clone());
        if replayed.is_none() || replayed != served {
            pass.problem(format!("replay of request {k} disagrees with rank_many"));
        }
    }
}
