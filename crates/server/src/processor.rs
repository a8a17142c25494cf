//! The Data Processor (§II-B / §IV-A).
//!
//! "if it detects that the received message includes sensed data, it
//! will directly store the binary message body into the database, which
//! will be processed later by the Data Processor. … The Data Processor
//! periodically checks if there are any binary sensed data in the
//! database, and if any, it decodes the data and stores useful
//! information into corresponding tables … it also processes raw data
//! to generate more meaningful data for various sensing features …
//! which will then be stored into the database to serve as input for
//! the Personalizable Ranker."

use sor_obs::{Recorder, SpanId};
use sor_proto::Message;
use sor_store::{ColumnType, Database, Predicate, Schema, Value};

use crate::feature::{FeatureSpec, RawRecord};
use crate::ServerError;

/// Binary inbox table: whole frames stored untouched.
pub const INBOX_TABLE: &str = "raw_inbox";
/// Decoded record table.
pub const RECORDS_TABLE: &str = "records";
/// Feature-data table.
pub const FEATURES_TABLE: &str = "features";

/// Minimum inbox depth before the decode pass fans out to the worker
/// pool. Below it the scoped-spawn cost dominates: on the `field`
/// benchmark, where a drain holds about 20 frames, fanning them out made
/// the processor about 25% slower than decoding them inline, and the
/// workers' allocator arenas added about 1 MB of resident memory.
const PAR_DECODE_CUTOFF: usize = 64;

/// What one inbox drain accomplished.
#[derive(Debug, Clone, Copy)]
pub struct InboxOutcome {
    /// Records decoded and inserted.
    pub stored: usize,
    /// Corrupt / non-upload blobs dropped.
    pub dropped: usize,
    /// The last `processor.commit` span created ([`SpanId::NONE`] when
    /// no traced blob was drained) — the causal parent for subsequent
    /// rank work.
    pub last_commit_span: SpanId,
}

impl Default for InboxOutcome {
    fn default() -> Self {
        InboxOutcome { stored: 0, dropped: 0, last_commit_span: SpanId::NONE }
    }
}

/// The data processor. Stateless; all state is in the database.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataProcessor;

impl DataProcessor {
    /// Creates the inbox/records/features tables.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn install(db: &mut Database) -> Result<(), ServerError> {
        db.create_table(
            Schema::new(INBOX_TABLE)
                .column("app_id", ColumnType::Int)
                .column("arrival", ColumnType::Float)
                .column("body", ColumnType::Bytes),
        )?;
        db.create_table(
            Schema::new(RECORDS_TABLE)
                .column("app_id", ColumnType::Int)
                .column("task_id", ColumnType::Int)
                .column("sensor", ColumnType::Int)
                .column("t", ColumnType::Float)
                .column("dt", ColumnType::Float)
                .column("values", ColumnType::Bytes),
        )?;
        db.create_index(RECORDS_TABLE, "app_id")?;
        db.create_table(
            Schema::new(FEATURES_TABLE)
                .column("app_id", ColumnType::Int)
                .column("feature", ColumnType::Text)
                .column("value", ColumnType::Float),
        )?;
        // assemble_matrix reads features per app (one query per app ×
        // feature); without this index every read is a full-table scan.
        // Snapshot v2 persists index definitions, so the index survives
        // crash recovery like the records one.
        db.create_index(FEATURES_TABLE, "app_id")?;
        Ok(())
    }

    /// Stores an encoded upload frame in the inbox, untouched — the
    /// Message Handler's fast path. `arrival` is the simulated receipt
    /// time; the drain pass uses it to measure upload→commit latency.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn enqueue_raw(
        &self,
        db: &mut Database,
        app_id: u64,
        arrival: f64,
        frame: &[u8],
    ) -> Result<(), ServerError> {
        db.insert(
            INBOX_TABLE,
            vec![Value::Int(app_id as i64), Value::Float(arrival), Value::Bytes(frame.into())],
        )?;
        Ok(())
    }

    /// The periodic pass: decodes every inbox blob into typed records
    /// and clears the inbox. Returns how many records landed. Corrupt
    /// blobs are dropped (and counted in the second tuple field) — a
    /// poisoned upload must not wedge the pipeline.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn process_inbox(&self, db: &mut Database) -> Result<(usize, usize), ServerError> {
        let outcome = self.process_inbox_traced(db, &Recorder::disabled(), 0.0)?;
        Ok((outcome.stored, outcome.dropped))
    }

    /// [`DataProcessor::process_inbox`] with causal tracing: each blob
    /// whose stored frame carries a [`sor_proto::TraceContext`] gets a
    /// `processor.commit` span hung off the handler span that enqueued
    /// it, and its upload→commit latency (arrival column to `now`) is
    /// observed. Spans are created in inbox row order *after* the
    /// parallel decode, so the trace is identical at any `SOR_THREADS`.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn process_inbox_traced(
        &self,
        db: &mut Database,
        recorder: &Recorder,
        now: f64,
    ) -> Result<InboxOutcome, ServerError> {
        let blobs = db.scan(INBOX_TABLE, &Predicate::True)?;
        // Frame decode is pure CPU with no shared state, so the drain
        // fans it out to the worker pool; the store commit below stays
        // sequential in inbox row order, so record row ids, WAL
        // ordering, and span allocation are exactly what the sequential
        // drain produces.
        type Decoded = Option<(i64, f64, u64, Vec<sor_proto::SensedRecord>, Option<u64>, u64)>;
        let decoded: Vec<Decoded> = sor_par::par_map_min(&blobs, PAR_DECODE_CUTOFF, |row| {
            let app_id = row.values[0].as_int().expect("schema");
            let arrival = row.values[1].as_float().expect("schema");
            let body = row.values[2].as_bytes().expect("schema");
            match Message::decode_traced(body) {
                Ok((Message::SensedDataUpload { task_id, records }, ctx)) => Some((
                    app_id,
                    arrival,
                    task_id,
                    records,
                    ctx.map(|c| c.parent_span),
                    ctx.map_or(0, |c| c.trace_id),
                )),
                _ => None,
            }
        });
        let mut outcome = InboxOutcome::default();
        for frame in decoded {
            let Some((app_id, arrival, task_id, records, parent, trace_id)) = frame else {
                outcome.dropped += 1;
                continue;
            };
            let span = match parent {
                Some(p) => {
                    let s = recorder.span_start_with_parent("processor.commit", now, SpanId(p));
                    recorder.span_attr_with(s, "task", || task_id.to_string());
                    recorder.span_attr_with(s, "trace_id", || trace_id.to_string());
                    recorder.observe("pipeline.upload_commit_latency_s", (now - arrival).max(0.0));
                    s
                }
                None => SpanId::NONE,
            };
            for r in records {
                let mut enc = sor_proto::wire::Writer::new();
                enc.put_f64_seq(&r.values);
                db.insert(
                    RECORDS_TABLE,
                    vec![
                        Value::Int(app_id),
                        Value::Int(task_id as i64),
                        Value::Int(r.sensor as i64),
                        Value::Float(r.timestamp),
                        Value::Float(r.window),
                        Value::Bytes(enc.into_bytes().into()),
                    ],
                )?;
                outcome.stored += 1;
            }
            if span.is_real() {
                recorder.span_end(span, now);
                outcome.last_commit_span = span;
            }
        }
        db.delete_where(INBOX_TABLE, &Predicate::True)?;
        Ok(outcome)
    }

    /// Loads the decoded records of one application.
    ///
    /// # Errors
    ///
    /// Storage or decode errors.
    pub fn records_of(&self, db: &Database, app_id: u64) -> Result<Vec<RawRecord>, ServerError> {
        let mut out = Vec::new();
        let mut decoded = Ok(());
        let by_app = Predicate::eq("app_id", Value::Int(app_id as i64));
        // Decoded straight from the stored rows, without copying them.
        db.scan_each(RECORDS_TABLE, &by_app, |_, row| {
            if decoded.is_err() {
                return;
            }
            let bytes = row[5].as_bytes().expect("schema");
            match sor_proto::wire::Reader::new(bytes).get_f64_seq() {
                Ok(values) => out.push(RawRecord {
                    timestamp: row[3].as_float().expect("schema"),
                    window: row[4].as_float().expect("schema"),
                    sensor: row[2].as_int().expect("schema") as u16,
                    values,
                }),
                Err(e) => decoded = Err(e),
            }
        })?;
        decoded?;
        Ok(out)
    }

    /// Computes all features of one application from its records and
    /// upserts them into the features table. Features without enough
    /// data are skipped (returned in the error list).
    ///
    /// # Errors
    ///
    /// Storage errors. Extraction failures do not abort the pass.
    pub fn compute_features(
        &self,
        db: &mut Database,
        app_id: u64,
        specs: &[FeatureSpec],
    ) -> Result<Vec<(String, ServerError)>, ServerError> {
        let records = self.records_of(db, app_id)?;
        let mut failures = Vec::new();
        for spec in specs {
            match spec.extract(&records) {
                Ok(value) => {
                    // Upsert: delete the stale value first.
                    db.delete_where(
                        FEATURES_TABLE,
                        &Predicate::eq("app_id", Value::Int(app_id as i64))
                            .and(Predicate::eq("feature", Value::text(&spec.name))),
                    )?;
                    db.insert(
                        FEATURES_TABLE,
                        vec![
                            Value::Int(app_id as i64),
                            Value::text(&spec.name),
                            Value::Float(value),
                        ],
                    )?;
                }
                Err(e) => failures.push((spec.name.clone(), e)),
            }
        }
        Ok(failures)
    }

    /// Reads one feature value.
    ///
    /// # Errors
    ///
    /// Storage errors; `Ok(None)` when not yet computed.
    pub fn feature_value(
        &self,
        db: &Database,
        app_id: u64,
        feature: &str,
    ) -> Result<Option<f64>, ServerError> {
        let rows = db.scan(
            FEATURES_TABLE,
            &Predicate::eq("app_id", Value::Int(app_id as i64))
                .and(Predicate::eq("feature", Value::text(feature))),
        )?;
        Ok(rows.first().map(|r| r.values[2].as_float().expect("schema")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Extractor;
    use sor_proto::SensedRecord;

    fn db() -> Database {
        let mut db = Database::new();
        DataProcessor::install(&mut db).unwrap();
        db
    }

    fn upload(task_id: u64, sensor: u16, values: Vec<f64>) -> Vec<u8> {
        Message::SensedDataUpload {
            task_id,
            records: vec![SensedRecord { timestamp: 10.0, window: 3.0, sensor, values }],
        }
        .encode()
    }

    #[test]
    fn inbox_to_records_pipeline() {
        let mut db = db();
        let p = DataProcessor;
        p.enqueue_raw(&mut db, 1, 0.0, &upload(5, 7, vec![70.0, 71.0])).unwrap();
        p.enqueue_raw(&mut db, 1, 0.0, &upload(5, 7, vec![72.0])).unwrap();
        p.enqueue_raw(&mut db, 2, 0.0, &upload(6, 7, vec![60.0])).unwrap();
        let (stored, dropped) = p.process_inbox(&mut db).unwrap();
        assert_eq!((stored, dropped), (3, 0));
        // Inbox cleared.
        assert_eq!(db.table(INBOX_TABLE).unwrap().len(), 0);
        // Records partitioned per app.
        assert_eq!(p.records_of(&db, 1).unwrap().len(), 2);
        assert_eq!(p.records_of(&db, 2).unwrap().len(), 1);
        let r = &p.records_of(&db, 1).unwrap()[0];
        assert_eq!(r.values, vec![70.0, 71.0]);
        assert_eq!(r.sensor, 7);
    }

    #[test]
    fn parallel_drain_equals_sequential_drain() {
        // Deep enough to fan out; the order of stored records, and so
        // every row id, must not depend on how the decode was split.
        let drain = |threads: usize| {
            let mut db = db();
            let p = DataProcessor;
            for k in 0..2 * PAR_DECODE_CUTOFF as u64 {
                let values = vec![k as f64, 0.5 * k as f64];
                p.enqueue_raw(&mut db, 1 + k % 3, 0.0, &upload(k, (k % 4) as u16, values)).unwrap();
            }
            sor_par::set_threads(threads);
            let outcome = p.process_inbox(&mut db).unwrap();
            sor_par::set_threads(0);
            (outcome, db.snapshot())
        };
        assert_eq!(drain(4), drain(1));
    }

    #[test]
    fn corrupt_blobs_are_dropped_not_fatal() {
        let mut db = db();
        let p = DataProcessor;
        p.enqueue_raw(&mut db, 1, 0.0, b"garbage").unwrap();
        p.enqueue_raw(&mut db, 1, 0.0, &upload(5, 7, vec![70.0])).unwrap();
        // A non-upload message in the inbox is also dropped.
        p.enqueue_raw(&mut db, 1, 0.0, &Message::WakeUp { token: 1 }.encode()).unwrap();
        let (stored, dropped) = p.process_inbox(&mut db).unwrap();
        assert_eq!((stored, dropped), (1, 2));
    }

    #[test]
    fn features_computed_and_upserted() {
        let mut db = db();
        let p = DataProcessor;
        let spec = FeatureSpec::new("temp", "°F", Extractor::Mean { sensor: 7 }, 60.0);
        p.enqueue_raw(&mut db, 1, 0.0, &upload(5, 7, vec![70.0, 72.0])).unwrap();
        p.process_inbox(&mut db).unwrap();
        let failures = p.compute_features(&mut db, 1, std::slice::from_ref(&spec)).unwrap();
        assert!(failures.is_empty());
        assert_eq!(p.feature_value(&db, 1, "temp").unwrap(), Some(71.0));

        // More data arrives; recompute replaces the value.
        p.enqueue_raw(&mut db, 1, 0.0, &upload(5, 7, vec![80.0])).unwrap();
        p.process_inbox(&mut db).unwrap();
        p.compute_features(&mut db, 1, &[spec]).unwrap();
        assert_eq!(p.feature_value(&db, 1, "temp").unwrap(), Some(74.0));
        // Exactly one row per (app, feature).
        assert_eq!(db.table(FEATURES_TABLE).unwrap().len(), 1);
    }

    #[test]
    fn missing_data_reports_failure_without_abort() {
        let mut db = db();
        let p = DataProcessor;
        let good = FeatureSpec::new("temp", "°F", Extractor::Mean { sensor: 7 }, 60.0);
        let bad = FeatureSpec::new("noise", "", Extractor::Mean { sensor: 2 }, 20.0);
        p.enqueue_raw(&mut db, 1, 0.0, &upload(5, 7, vec![70.0])).unwrap();
        p.process_inbox(&mut db).unwrap();
        let failures = p.compute_features(&mut db, 1, &[good, bad]).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "noise");
        assert_eq!(p.feature_value(&db, 1, "temp").unwrap(), Some(70.0));
        assert_eq!(p.feature_value(&db, 1, "noise").unwrap(), None);
    }
}
