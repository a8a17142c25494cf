//! The `field` and `sense` workloads: phones, wire and a durable server
//! in one closed loop over a simulated three-hour sensing period.
//!
//! The sim clock steps every 30 s. At each step the server's clock
//! advances, arriving phones scan the place's barcode, every admitted
//! phone senses whatever falls due, and each message crosses the wire
//! (`Message::encode` then `Message::decode`) before its receiver
//! handles it; replies travel back the same way. A Data Processor pass
//! runs every 120 sim-s, and the period ends with a last pass and one
//! rank over the category.

use std::sync::Arc;
use std::time::Instant;

use sor_core::ranking::{FeatureId, FeatureMatrix, PlaceId, Preference, UserPreferences};
use sor_durable::{DurableOptions, SimDisk};
use sor_frontend::{MobileFrontend, TaskStatus};
use sor_obs::Recorder;
use sor_proto::Message;
use sor_sensors::environment::{presets, Environment};
use sor_sensors::{SensorKind, SensorManager, SimulatedProvider};
use sor_server::ranker::assemble_matrix;
use sor_server::{ApplicationSpec, ParticipantStatus, SensingServer};
use sor_sim::scenario::{coffee_features, COFFEE_SCRIPT};

use crate::measure::{Digest, Layer};
use crate::pass::Pass;

/// The ranking category every shop belongs to.
const CATEGORY: &str = "coffee-shop";
/// Sim-clock step, which is also the phones' sweep interval.
const STEP_S: f64 = 30.0;
/// The §V-B test window: 11:00 to 14:00.
const PERIOD_S: f64 = 10_800.0;
/// Sim seconds between Data Processor passes.
const PROCESSING_INTERVAL_S: f64 = 120.0;
/// Admission radius around each shop (shops are small).
const RADIUS_M: f64 = 300.0;
/// Indoor sensor sample interval.
const SAMPLE_INTERVAL_S: f64 = 0.5;
/// Per-phone sensing budget (§V-B).
const BUDGET: u32 = 17;
/// The sensors of a participating phone and its Sensordrone.
const SENSORS: &[SensorKind] = &[
    SensorKind::Temperature,
    SensorKind::Light,
    SensorKind::Microphone,
    SensorKind::WifiRssi,
    SensorKind::Gps,
];

/// The `sense` script: the coffee features, with the microphone read in
/// eight windows whose mean and spread are computed on the phone. Only
/// aggregates reach the return value, so the server's privacy analysis
/// admits it.
pub const SENSE_SCRIPT: &str = "\
get_temperature_readings(5)
get_light_readings(5)
get_wifi_readings(5)
local means = {}
local spreads = {}
for w = 1, 8 do
    local window = get_noise_readings(10)
    local m = mean(window)
    local sq = 0
    for i = 1, 10 do
        local d = window[i] - m
        sq = sq + d * d
    end
    means[w] = m
    spreads[w] = sqrt(sq / 10)
end
return { mean = mean(means), stddev = mean(spreads) }
";

/// The shape of one sensing workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// The shops, built from the workload seed; every full triple is a
    /// (Tim Hortons, B&N Cafe, Starbucks) preset set.
    shops: fn(u64) -> Vec<Arc<dyn Environment>>,
    /// Phones arriving at each shop.
    phones_per_shop: usize,
    /// Scheduling grid instants over the period.
    instants: usize,
    /// The SenseScript every phone runs.
    script: &'static str,
}

/// §V-B at three times the paper's width: nine shops, twelve phones
/// each, the paper's script on a 1080-instant (10 s) grid.
pub const FIELD: Shape =
    Shape { shops: field_shops, phones_per_shop: 12, instants: 1080, script: COFFEE_SCRIPT };

/// On-phone aggregation: four shops, 24 phones each, [`SENSE_SCRIPT`]
/// on a 360-instant (30 s) grid.
pub const SENSE: Shape =
    Shape { shops: sense_shops, phones_per_shop: 24, instants: 360, script: SENSE_SCRIPT };

/// A preset seed per shop triple, so the triples' sensor streams differ.
fn triple_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(16).wrapping_add(4 * k)
}

fn shared(env: impl Environment + 'static) -> Arc<dyn Environment> {
    Arc::new(env)
}

fn field_shops(seed: u64) -> Vec<Arc<dyn Environment>> {
    (0..3).flat_map(|k| presets::coffee_shops(triple_seed(seed, k))).map(shared).collect()
}

fn sense_shops(seed: u64) -> Vec<Arc<dyn Environment>> {
    let mut shops: Vec<_> =
        presets::coffee_shops(triple_seed(seed, 0)).into_iter().map(shared).collect();
    shops.push(shared(presets::bn_cafe(triple_seed(seed, 1))));
    shops
}

/// A built deployment: the server, the phones and when each arrives.
struct Deployment {
    server: SensingServer,
    phones: Vec<MobileFrontend>,
    /// Per phone: the app it scans and its arrival time.
    arrivals: Vec<(u64, f64)>,
    scanned: Vec<bool>,
    shops: usize,
    decode_failures: u64,
    rejections: u64,
    script_failures: u64,
    final_order: Vec<u64>,
}

/// Builds the durable server, registers one application per shop and
/// creates the phones. Phone `i` has device token `i + 1`.
fn setup(shape: &Shape, seed: u64, recorder: &Recorder) -> Result<Deployment, String> {
    let shops = (shape.shops)(seed);
    let disk = SimDisk::new(seed ^ 0xD15C);
    let (mut server, _) =
        SensingServer::durable(Box::new(disk), DurableOptions::default(), recorder.clone(), 0.0)
            .map_err(|e| format!("server start: {e}"))?;
    let mut phones = Vec::with_capacity(shops.len() * shape.phones_per_shop);
    let mut arrivals = Vec::with_capacity(phones.capacity());
    for (i, env) in shops.iter().enumerate() {
        let app_id = i as u64 + 1;
        let (latitude, longitude) = env.location();
        server
            .register_application(ApplicationSpec {
                app_id,
                name: env.name().to_string(),
                creator: "perfbench".into(),
                category: CATEGORY.into(),
                latitude,
                longitude,
                radius_m: RADIUS_M,
                script: shape.script.into(),
                period_seconds: PERIOD_S,
                instants: shape.instants,
                features: coffee_features(),
            })
            .map_err(|e| format!("register app {app_id}: {e}"))?;
        for p in 0..shape.phones_per_shop {
            let mut manager = SensorManager::new();
            manager.set_sample_interval(SAMPLE_INTERVAL_S);
            for &kind in SENSORS {
                manager.register(SimulatedProvider::new(kind, Arc::clone(env)));
            }
            let mut phone = MobileFrontend::new(phones.len() as u64 + 1, manager);
            phone.set_recorder(recorder.clone());
            phones.push(phone);
            // Staggered over the first half of the period, as in §V-B.
            let arrival = (p as f64 + 0.5) * PERIOD_S / (2.0 * shape.phones_per_shop as f64);
            arrivals.push((app_id, arrival));
        }
    }
    Ok(Deployment {
        server,
        scanned: vec![false; phones.len()],
        phones,
        arrivals,
        shops: shops.len(),
        decode_failures: 0,
        rejections: 0,
        script_failures: 0,
        final_order: Vec::new(),
    })
}

/// Builds a deployment and drops it: one extra set-up sample.
pub fn setup_only(shape: &Shape, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let deployment = setup(shape, seed, &Recorder::disabled())?;
    let elapsed = t0.elapsed().as_secs_f64();
    drop(deployment);
    Ok(elapsed)
}

/// One pass: set up, drive the whole period, check the outputs.
pub fn run_pass(shape: &Shape, seed: u64, recorder: &Recorder) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    let mut deployment = match setup(shape, seed, recorder) {
        Ok(d) => d,
        Err(e) => {
            pass.problem(e);
            return pass;
        }
    };
    pass.setup_s = t0.elapsed().as_secs_f64();
    let after_setup = recorder.metrics_snapshot();
    sor_par::reset_stats();
    let start = Instant::now();
    deployment.drive(&mut pass);
    pass.wall_s = start.elapsed().as_secs_f64() - pass.probe.excluded_s();
    pass.par_busy_s = sor_par::stats().busy_ns as f64 / 1e9;
    deployment.check(&mut pass);
    pass.collect_metrics(recorder, after_setup.as_ref());
    pass
}

/// Encodes and decodes one message, as the wire does.
fn wire(msg: &Message, pass: &mut Pass) -> Option<Message> {
    let frame = pass.probe.time(Layer::Proto, || msg.encode());
    pass.frames += 1;
    pass.bytes += frame.len() as u64;
    pass.probe.time(Layer::Proto, || Message::decode(&frame)).ok()
}

impl Deployment {
    fn drive(&mut self, pass: &mut Pass) {
        let steps = ((PERIOD_S + 2.0 * STEP_S) / STEP_S) as usize;
        for k in 0..=steps {
            let t = k as f64 * STEP_S;
            pass.probe.time(Layer::Tick, || self.server.tick(t));
            for i in 0..self.phones.len() {
                let (app_id, arrival) = self.arrivals[i];
                if self.scanned[i] || arrival > t {
                    continue;
                }
                self.scanned[i] = true;
                let phone = &mut self.phones[i];
                let request = pass.probe.time(Layer::Frontend, || {
                    // The phone has no task yet; this only moves its
                    // clock, so the GPS fix in the request is taken now.
                    phone.advance_to(t);
                    phone.scan_barcode(app_id, BUDGET, PERIOD_S - arrival)
                });
                self.send_to_server(&request, pass);
            }
            for i in 0..self.phones.len() {
                if !self.scanned[i] {
                    continue;
                }
                let phone = &mut self.phones[i];
                let (out, dt) = pass.probe.timed(Layer::Frontend, || phone.advance_to(t));
                if out.iter().any(|m| matches!(m, Message::SensedDataUpload { .. })) {
                    pass.samples.phone_run.push(dt);
                }
                for msg in &out {
                    self.send_to_server(msg, pass);
                }
            }
            if k > 0 && t % PROCESSING_INTERVAL_S == 0.0 {
                self.process(pass);
            }
        }
        self.process(pass);
        let neutral = UserPreferences::new(
            "perfbench",
            coffee_features().iter().map(|_| Preference::largest(3)).collect(),
        );
        pass.attempted += 1;
        match pass.probe.time(Layer::Ranking, || self.server.rank(CATEGORY, &neutral)) {
            Ok(ranking) => self.final_order = ranking.app_order,
            Err(e) => {
                pass.failed += 1;
                pass.problem(format!("final rank failed: {e}"));
            }
        }
    }

    fn process(&mut self, pass: &mut Pass) {
        pass.attempted += 1;
        let (result, dt) = pass.probe.timed(Layer::Processor, || self.server.process_data());
        pass.samples.processor_pass.push(dt);
        if let Err(e) = result {
            pass.failed += 1;
            pass.problem(format!("processor pass failed: {e}"));
        }
    }

    fn send_to_server(&mut self, msg: &Message, pass: &mut Pass) {
        pass.attempted += 1;
        let Some(msg) = wire(msg, pass) else {
            pass.failed += 1;
            self.decode_failures += 1;
            return;
        };
        let layer = match &msg {
            Message::ParticipationRequest { .. } => Layer::Admit,
            Message::SensedDataUpload { .. } => Layer::Upload,
            Message::TaskComplete { status, .. } => {
                if *status != 0 {
                    pass.failed += 1;
                    self.script_failures += 1;
                }
                Layer::Complete
            }
            _ => Layer::OtherMessage,
        };
        let (result, dt) = pass.probe.timed(layer, || self.server.handle_message(&msg));
        match layer {
            Layer::Admit => pass.samples.admit.push(dt),
            Layer::Upload => pass.samples.upload.push(dt),
            _ => {}
        }
        match result {
            Ok(replies) => {
                if layer == Layer::Upload {
                    pass.ops += 1;
                }
                for (token, reply) in replies {
                    self.send_to_phone(token, &reply, pass);
                }
            }
            Err(e) => {
                pass.failed += 1;
                self.rejections += 1;
                if self.rejections == 1 {
                    pass.problem(format!("server rejected a message: {e}"));
                }
            }
        }
    }

    fn send_to_phone(&mut self, token: u64, msg: &Message, pass: &mut Pass) {
        pass.attempted += 1;
        let Some(msg) = wire(msg, pass) else {
            pass.failed += 1;
            self.decode_failures += 1;
            return;
        };
        let Some(phone) = token.checked_sub(1).and_then(|i| self.phones.get_mut(i as usize)) else {
            pass.failed += 1;
            pass.problem(format!("reply addressed to unknown token {token}"));
            return;
        };
        let replies = pass.probe.time(Layer::Frontend, || phone.handle_message(&msg));
        for reply in &replies {
            self.send_to_server(reply, pass);
        }
    }

    /// The output checks, and the outputs digest.
    fn check(&self, pass: &mut Pass) {
        if self.decode_failures > 0 {
            pass.problem(format!("{} frames failed to decode", self.decode_failures));
        }
        if self.rejections > 0 {
            pass.problem(format!("{} messages rejected by the server", self.rejections));
        }
        if self.script_failures > 0 {
            pass.problem(format!("{} script runs failed", self.script_failures));
        }
        let unfinished = self
            .phones
            .iter()
            .filter(|p| {
                p.tasks().is_empty() || p.tasks().iter().any(|t| t.status != TaskStatus::Finished)
            })
            .count();
        if unfinished > 0 {
            pass.problem(format!("{unfinished} phones hold a task that did not finish"));
        }
        let open = self
            .server
            .participation()
            .all()
            .filter(|t| t.status != ParticipantStatus::Finished)
            .count();
        if open > 0 {
            pass.problem(format!("{open} server tasks did not finish"));
        }
        let mut digest = Digest::default();
        match assemble_matrix(self.server.database(), self.server.applications(), CATEGORY) {
            Ok((matrix, _)) => {
                check_fig10(&matrix, self.shops / 3, pass);
                for i in 0..matrix.n_places() {
                    for j in 0..matrix.n_features() {
                        digest.u64(matrix.value(PlaceId(i), FeatureId(j)).to_bits());
                    }
                }
            }
            Err(e) => pass.problem(format!("feature matrix: {e}")),
        }
        digest.u64(pass.ops);
        for &app in &self.final_order {
            digest.u64(app);
        }
        pass.digest = digest.value();
    }
}

/// Each preset triple (Tim Hortons, B&N Cafe, Starbucks) must order like
/// Fig. 10: warmer in that order, brighter in the reverse order, and
/// Starbucks loudest.
fn check_fig10(matrix: &FeatureMatrix, triples: usize, pass: &mut Pass) {
    for k in 0..triples {
        let v =
            |place: usize, feature: usize| matrix.value(PlaceId(3 * k + place), FeatureId(feature));
        let (temperature, brightness, noise) = (0, 1, 2);
        if !(v(0, temperature) < v(1, temperature) && v(1, temperature) < v(2, temperature)) {
            pass.problem(format!("triple {k}: temperature does not order like Fig. 10"));
        }
        if !(v(0, brightness) > v(1, brightness) && v(1, brightness) > v(2, brightness)) {
            pass.problem(format!("triple {k}: brightness does not order like Fig. 10"));
        }
        if !(v(2, noise) > v(0, noise) && v(2, noise) > v(1, noise)) {
            pass.problem(format!("triple {k}: Starbucks is not the loudest"));
        }
    }
}
