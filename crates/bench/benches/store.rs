//! Embedded-store benchmarks: insert throughput, indexed vs scanned
//! point lookups, snapshot costs — the Data Processor's hot paths.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sor_store::{ColumnType, Database, Predicate, Schema, Table, Value};

fn records_schema() -> Schema {
    Schema::new("records")
        .column("app_id", ColumnType::Int)
        .column("sensor", ColumnType::Int)
        .column("t", ColumnType::Float)
        .column("values", ColumnType::Bytes)
}

fn filled_table(rows: usize, indexed: bool) -> Table {
    let mut t = Table::new(records_schema());
    if indexed {
        t.create_index("app_id").unwrap();
    }
    for i in 0..rows {
        t.insert(vec![
            Value::Int((i % 10) as i64),
            Value::Int((i % 5) as i64),
            Value::Float(i as f64),
            Value::Bytes(vec![0u8; 64].into()),
        ])
        .unwrap();
    }
    t
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("store/insert_1k_rows", |b| b.iter(|| black_box(filled_table(1000, false))));
    c.bench_function("store/insert_1k_rows_indexed", |b| {
        b.iter(|| black_box(filled_table(1000, true)))
    });
}

fn bench_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("store/point_lookup");
    for rows in [1_000usize, 10_000] {
        let plain = filled_table(rows, false);
        let indexed = filled_table(rows, true);
        let p = Predicate::eq("app_id", Value::Int(3));
        g.bench_with_input(BenchmarkId::new("scan", rows), &plain, |b, t| {
            b.iter(|| black_box(t.scan(&p).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("indexed", rows), &indexed, |b, t| {
            b.iter(|| black_box(t.scan(&p).unwrap()))
        });
    }
    g.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut db = Database::new();
    db.create_table(records_schema()).unwrap();
    for i in 0..2_000 {
        db.insert(
            "records",
            vec![
                Value::Int(i % 10),
                Value::Int(i % 5),
                Value::Float(i as f64),
                Value::Bytes(vec![1u8; 64].into()),
            ],
        )
        .unwrap();
    }
    let bytes = db.snapshot();
    c.bench_function("store/snapshot_2k_rows", |b| b.iter(|| black_box(db.snapshot())));
    c.bench_function("store/restore_2k_rows", |b| {
        b.iter(|| black_box(Database::restore(&bytes).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_insert, bench_lookup, bench_snapshot
}
criterion_main!(benches);
