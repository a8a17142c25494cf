//! Smaller cross-crate seams: script ↔ sensors, proto ↔ store,
//! core ↔ flow.

use std::sync::Arc;

use sor::script::{Interpreter, Value};
use sor::sensors::environment::presets;
use sor::sensors::{SensorKind, SensorManager, SimulatedProvider};

#[test]
fn script_interpreter_drives_real_sensor_manager() {
    let env = Arc::new(presets::green_lake_trail(3));
    let mut mgr = SensorManager::new();
    mgr.register(SimulatedProvider::new(SensorKind::Temperature, env.clone()));
    mgr.register(SimulatedProvider::new(SensorKind::Humidity, env));
    let mgr = Arc::new(mgr);

    let mut interp = Interpreter::new();
    for (name, kind) in [
        ("get_temperature_readings", SensorKind::Temperature),
        ("get_humidity_readings", SensorKind::Humidity),
    ] {
        let mgr = Arc::clone(&mgr);
        interp.host_mut().register(name, move |ctx, args| {
            let n = args.first().and_then(Value::as_number).unwrap_or(1.0) as usize;
            let readings = mgr.acquire(kind, n, ctx.virtual_time).map_err(|e| e.to_string())?;
            ctx.virtual_time += n as f64 * 0.5;
            Ok(Value::number_array(&readings.iter().map(|r| r[0]).collect::<Vec<_>>()))
        });
    }
    let v = interp
        .run(
            r#"
            local t = get_temperature_readings(10)
            local h = get_humidity_readings(10)
            -- late-fall lake weather: cool and humid
            assert(mean(t) > 35 and mean(t) < 55, "temp " .. mean(t))
            assert(mean(h) > 45, "humidity " .. mean(h))
            return mean(t)
        "#,
        )
        .unwrap();
    assert!(v.as_number().unwrap() > 35.0);
}

#[test]
fn store_holds_proto_frames_byte_exact() {
    use sor::proto::{Message, SensedRecord};
    use sor::store::{ColumnType, Database, Predicate, Schema, Value as Sv};

    let mut db = Database::new();
    db.create_table(
        Schema::new("inbox").column("id", ColumnType::Int).column("frame", ColumnType::Bytes),
    )
    .unwrap();

    let msg = Message::SensedDataUpload {
        task_id: 3,
        records: vec![SensedRecord {
            timestamp: 1.5,
            window: 2.0,
            sensor: 4,
            values: vec![1.0, -2.5, 1e9],
        }],
    };
    db.insert("inbox", vec![Sv::Int(1), Sv::Bytes(msg.encode().into())]).unwrap();

    // Snapshot + restore, then decode the frame out of the restored db.
    let restored = Database::restore(&db.snapshot()).unwrap();
    let rows = restored.scan("inbox", &Predicate::True).unwrap();
    let bytes = rows[0].values[1].as_bytes().unwrap();
    assert_eq!(Message::decode(bytes).unwrap(), msg);
}

#[test]
fn ranking_matches_direct_flow_solution() {
    // The §IV-B construction: aggregating through the public ranking API
    // reaches the optimum of the paper's min-cost-flow network, built
    // here literally and solved by the sor-flow oracle.
    use sor::core::ranking::{aggregate, weighted_footrule, AggregationMethod, PlaceId, Ranking};
    use sor_flow::{Graph, MinCostFlow, NodeId};

    let rankings = vec![
        Ranking::from_order(vec![2, 0, 1, 3]).unwrap(),
        Ranking::from_order(vec![0, 1, 3, 2]).unwrap(),
        Ranking::from_order(vec![1, 0, 2, 3]).unwrap(),
    ];
    let weights = [3.0, 1.0, 2.0];
    let agg = aggregate(&rankings, &weights, AggregationMethod::Footrule).unwrap();

    // Layout: 0 = s, 1..=n places, n+1..=2n positions, 2n+1 = z; integer
    // weights keep the place→position costs exact.
    let n = 4;
    let mut g = Graph::new(2 * n + 2);
    let (s, z) = (NodeId(0), NodeId(2 * n + 1));
    for i in 0..n {
        g.add_edge(s, NodeId(1 + i), 1, 0);
        g.add_edge(NodeId(n + 1 + i), z, 1, 0);
        for p in 0..n {
            let cost: i64 = rankings
                .iter()
                .zip(weights)
                .map(|(r, w)| (w as i64) * (r.position_of(PlaceId(i)).abs_diff(p) as i64))
                .sum();
            g.add_edge(NodeId(1 + i), NodeId(n + 1 + p), 1, cost);
        }
    }
    let oracle = MinCostFlow::new(g).solve_exact(s, z, n as i64).unwrap();
    assert_eq!(oracle.flow, n as i64);
    assert_eq!(weighted_footrule(&agg, &rankings, &weights), oracle.cost as f64);
}

#[test]
fn frontend_uploads_decode_into_server_feature_pipeline() {
    use sor::frontend::MobileFrontend;
    use sor::proto::Message;
    use sor::server::{ApplicationSpec, SensingServer};
    use sor::sim::scenario::coffee_features;

    let env = Arc::new(presets::tim_hortons(8));
    let mut mgr = SensorManager::new();
    for kind in [
        SensorKind::Temperature,
        SensorKind::Light,
        SensorKind::Microphone,
        SensorKind::WifiRssi,
        SensorKind::Gps,
    ] {
        mgr.register(SimulatedProvider::new(kind, env.clone()));
    }
    let mut phone = MobileFrontend::new(70, mgr);

    let mut server = SensingServer::new().unwrap();
    use sor::sensors::Environment;
    let (lat, lon) = env.location();
    server
        .register_application(ApplicationSpec {
            app_id: 1,
            name: "Tim Hortons".into(),
            creator: "it".into(),
            category: "coffee-shop".into(),
            latitude: lat,
            longitude: lon,
            radius_m: 300.0,
            script: sor::sim::scenario::fieldtest::COFFEE_SCRIPT.into(),
            period_seconds: 600.0,
            instants: 60,
            features: coffee_features(),
        })
        .unwrap();

    // Scan → assignment → execute → upload → process → feature.
    let scan = phone.scan_barcode(1, 5, 600.0);
    let replies = server.handle_message(&scan).unwrap();
    for (_, msg) in &replies {
        phone.handle_message(msg);
    }
    let uploads = phone.advance_to(600.0);
    assert!(uploads.iter().any(|m| matches!(m, Message::SensedDataUpload { .. })));
    for m in &uploads {
        server.tick(600.0);
        let _ = server.handle_message(m);
    }
    server.process_data().unwrap();
    let brightness = server.feature_value(1, "brightness").unwrap().unwrap();
    assert!(brightness > 800.0, "Tim Hortons is very bright, got {brightness}");
}
