//! The durable database wrapper and crash recovery.

use sor_obs::Recorder;
use sor_proto::frame::{decode_frame, seal_frame};
use sor_proto::varint::MAX_VARINT_LEN;
use sor_proto::wire::{Reader, Writer};
use sor_store::{ChangeLog, Database};

use crate::storage::Storage;
use crate::wal::{replay_into, wal_file, TailState, CHECKPOINT_FILE};
use crate::DurableError;

/// Tuning knobs for the durability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Flush the log every N commits. 1 (the default) makes every
    /// acknowledged commit crash-proof; larger values batch flushes —
    /// the group-commit trade of a bounded loss window for throughput.
    pub group_commit: usize,
    /// Write a checkpoint (and retire the log) after this many logged
    /// ops, bounding both log growth and replay time.
    pub checkpoint_every_ops: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions { group_commit: 1, checkpoint_every_ops: 4096 }
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Whether a checkpoint existed.
    pub had_checkpoint: bool,
    /// Size of the checkpoint blob (0 without one).
    pub checkpoint_bytes: usize,
    /// Checkpoint epoch recovered into.
    pub epoch: u64,
    /// Log records replayed on top of the checkpoint.
    pub replayed_records: usize,
    /// Bytes cut off the log tail (0 on a clean shutdown).
    pub truncated_bytes: usize,
    /// How the log ended.
    pub tail: TailState,
}

impl RecoveryReport {
    /// One deterministic line for logs and smoke tests.
    pub fn summary(&self) -> String {
        format!(
            "recovery: checkpoint={} ({} B, epoch {}), replayed {} records, tail {} ({} B truncated)",
            if self.had_checkpoint { "yes" } else { "no" },
            self.checkpoint_bytes,
            self.epoch,
            self.replayed_records,
            self.tail,
            self.truncated_bytes,
        )
    }
}

/// A [`Database`] whose committed state survives crashes.
///
/// Mutations go through the inner database's facade (which captures
/// them as logical ops); [`DurableDatabase::commit`] is the durability
/// point — it appends the captured ops to the write-ahead log *before*
/// the caller acknowledges anything to a client. Construction is
/// either [`DurableDatabase::ephemeral`] (no logging, zero overhead —
/// the default for simulations that don't crash servers) or
/// [`DurableDatabase::open`], which recovers whatever the storage
/// holds.
#[derive(Debug)]
pub struct DurableDatabase {
    db: Database,
    changelog: ChangeLog,
    storage: Option<Box<dyn Storage>>,
    opts: DurableOptions,
    epoch: u64,
    /// The current epoch's log blob name, [`wal_file`]`(epoch)`.
    wal: String,
    unflushed_commits: usize,
    ops_since_checkpoint: u64,
    /// What the next checkpoint file will about need, so it is built in
    /// one allocation: the last checkpoint's size plus what each op
    /// logged since adds to a snapshot (see [`SNAPSHOT_GROWTH_SLACK`]).
    checkpoint_estimate: usize,
    recorder: Recorder,
}

impl Default for DurableDatabase {
    fn default() -> Self {
        DurableDatabase::ephemeral()
    }
}

impl DurableDatabase {
    /// A database with durability disabled: no change capture, no log,
    /// [`DurableDatabase::commit`] is free. Behaviourally identical to
    /// a bare [`Database`].
    pub fn ephemeral() -> Self {
        DurableDatabase {
            db: Database::new(),
            changelog: ChangeLog::disabled(),
            storage: None,
            opts: DurableOptions::default(),
            epoch: 0,
            wal: String::new(),
            unflushed_commits: 0,
            ops_since_checkpoint: 0,
            checkpoint_estimate: 0,
            recorder: Recorder::default(),
        }
    }

    /// Opens (or creates) a durable database on a storage backend,
    /// running crash recovery: restore the latest checkpoint, replay
    /// the valid log suffix, truncate the torn/corrupt tail. `now` is
    /// the sim-clock instant for the recovery trace span.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] from the backend,
    /// [`DurableError::CorruptCheckpoint`] if the checkpoint cannot be
    /// trusted, [`DurableError::Store`] if the log does not fit the
    /// checkpoint.
    pub fn open(
        mut storage: Box<dyn Storage>,
        opts: DurableOptions,
        recorder: Recorder,
        now: f64,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let wall = std::time::Instant::now();
        let span = recorder.span_start("durable.recovery", now);

        let corrupt = |d: String| DurableError::CorruptCheckpoint(d);
        let (mut db, epoch, had_checkpoint, checkpoint_bytes) =
            match storage.read(CHECKPOINT_FILE)? {
                Some(bytes) => {
                    let (payload, consumed) =
                        decode_frame(&bytes).map_err(|e| corrupt(e.to_string()))?;
                    if consumed != bytes.len() {
                        return Err(corrupt("trailing bytes after checkpoint".to_string()));
                    }
                    let mut r = Reader::new(payload);
                    let epoch = r.get_uvar().map_err(|e| corrupt(e.to_string()))?;
                    let snapshot = r.get_bytes().map_err(|e| corrupt(e.to_string()))?;
                    let db = Database::restore(snapshot).map_err(|e| corrupt(e.to_string()))?;
                    // Optional trailing field (absent in checkpoints
                    // written before flight recording existed): the
                    // flight recorder's ring, restored so a post-crash
                    // post-mortem still shows pre-checkpoint activity.
                    if r.remaining() != 0 {
                        let flight = r.get_bytes().map_err(|e| corrupt(e.to_string()))?;
                        if r.remaining() != 0 {
                            return Err(corrupt("trailing bytes after flight ring".to_string()));
                        }
                        if let Some(restored) = sor_obs::FlightRecorder::from_bytes(flight) {
                            recorder.flight_restore(restored);
                        }
                    }
                    (db, epoch, true, bytes.len())
                }
                None => (Database::new(), 0, false, 0),
            };

        let wal = wal_file(epoch);
        let log = storage.read(&wal)?.unwrap_or_default();
        let outcome = replay_into(&mut db, &log)?;
        let truncated = log.len() - outcome.valid_len;
        if truncated > 0 {
            storage.truncate(&wal, outcome.valid_len as u64)?;
        }
        if epoch > 0 {
            // A crash between "write checkpoint" and "retire old log"
            // leaves the previous epoch's log behind; clean it up now.
            storage.remove(&wal_file(epoch - 1))?;
        }

        recorder.count("durable.recoveries_run", 1);
        recorder.count("durable.recovery_replayed_records", outcome.replayed as u64);
        recorder.count("durable.recovery_truncated_bytes", truncated as u64);
        if outcome.tail == TailState::Torn {
            recorder.count("durable.recovery_torn_tails", 1);
        }
        if outcome.tail == TailState::Corrupt {
            recorder.count("durable.recovery_corrupt_records", 1);
        }
        recorder.observe("durable.recovery_ms", wall.elapsed().as_secs_f64() * 1e3);
        recorder.span_attr(span, "replayed", &outcome.replayed.to_string());
        recorder.span_attr(span, "tail", &outcome.tail.to_string());
        recorder.span_end(span, now);

        let report = RecoveryReport {
            had_checkpoint,
            checkpoint_bytes,
            epoch,
            replayed_records: outcome.replayed,
            truncated_bytes: truncated,
            tail: outcome.tail,
        };
        let changelog = ChangeLog::enabled();
        db.set_changelog(changelog.clone());
        let this = DurableDatabase {
            db,
            changelog,
            storage: Some(storage),
            opts,
            epoch,
            wal,
            unflushed_commits: 0,
            // Count the replayed log toward the next checkpoint so a
            // crash loop cannot grow the log without bound.
            ops_since_checkpoint: report.replayed_records as u64,
            checkpoint_estimate: checkpoint_bytes + outcome.valid_len,
            recorder,
        };
        Ok((this, report))
    }

    /// Whether commits are actually being logged.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// The wrapped database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the wrapped database. Mutations made through
    /// the database *facade* are captured for the log; direct
    /// [`Database::table_mut`] writes bypass durability — durable
    /// deployments must stay on the facade.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Ops captured but not yet committed to the log.
    pub fn pending_ops(&self) -> usize {
        self.changelog.pending()
    }

    /// The durability point: appends every captured op to the log and
    /// (per the group-commit knob) flushes. Call after each atomic unit
    /// of server work, *before* acknowledging it. No-op when ephemeral.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] from the backend.
    pub fn commit(&mut self) -> Result<(), DurableError> {
        let Some(storage) = &mut self.storage else {
            return Ok(());
        };
        let batch = self.changelog.drain();
        if batch.is_empty() {
            return Ok(());
        }
        storage.append(&self.wal, &batch.bytes)?;
        self.unflushed_commits += 1;
        if self.unflushed_commits >= self.opts.group_commit {
            storage.flush(&self.wal)?;
            self.unflushed_commits = 0;
            self.recorder.count("durable.wal_flushes", 1);
        }
        self.recorder.count("durable.commits_applied", 1);
        self.recorder.count("durable.wal_appends", batch.count as u64);
        self.recorder.count("durable.wal_bytes", batch.bytes.len() as u64);
        self.ops_since_checkpoint += batch.count as u64;
        self.checkpoint_estimate +=
            batch.bytes.len().saturating_sub(batch.count * SNAPSHOT_GROWTH_SLACK);
        if self.ops_since_checkpoint >= self.opts.checkpoint_every_ops {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Forces any group-commit-buffered appends to durable storage
    /// (e.g. on clean shutdown).
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] from the backend.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        if let Some(storage) = &mut self.storage {
            if self.unflushed_commits > 0 {
                storage.flush(&self.wal)?;
                self.unflushed_commits = 0;
                self.recorder.count("durable.wal_flushes", 1);
            }
        }
        Ok(())
    }

    /// Writes a checkpoint and retires the log: snapshot the database,
    /// atomically replace the checkpoint blob (which names a fresh log
    /// epoch), then delete the old log. Crash-safe at every step — see
    /// [`crate::wal::wal_file`]. No-op when ephemeral.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] from the backend.
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        let Some(storage) = &mut self.storage else {
            return Ok(());
        };
        // Anything captured but uncommitted is part of the snapshot.
        self.changelog.drain();
        let new_epoch = self.epoch + 1;
        let flight = self.recorder.flight_bytes();
        let (mut file_len, mut snapshot_len) = (0, 0);
        storage.write_atomic_with(CHECKPOINT_FILE, &mut |file| {
            snapshot_len = write_checkpoint(
                file,
                &self.db,
                new_epoch,
                flight.as_deref(),
                self.checkpoint_estimate,
            );
            file_len = file.len();
        })?;
        self.checkpoint_estimate = file_len;
        storage.remove(&self.wal)?;
        self.epoch = new_epoch;
        self.wal = wal_file(new_epoch);
        self.unflushed_commits = 0;
        self.ops_since_checkpoint = 0;
        self.recorder.count("durable.checkpoints_taken", 1);
        self.recorder.gauge("durable.checkpoint_bytes", snapshot_len as f64);
        Ok(())
    }
}

/// Log bytes per op that a snapshot does not repeat: the record frame
/// (8), the op tag (1), and at least the table name's length byte and
/// the value count (2); an inserted row costs a snapshot its id and
/// values only.
const SNAPSHOT_GROWTH_SLACK: usize = 11;

/// Room reserved ahead of the snapshot: the frame's length header plus
/// the epoch and snapshot-length varints at their widest.
const CHECKPOINT_PREFIX: usize = 4 + 2 * MAX_VARINT_LEN;

/// Writes the checkpoint file, `encode_frame(uvar(epoch) ‖ bytes(snapshot)
/// ‖ [bytes(flight)])`, into the empty buffer `file`. The snapshot is
/// encoded after room for the widest prefix; the real prefix is then
/// written flush against it and the slack cut from the front, so the
/// snapshot is never copied into a second buffer. Checkpoints from
/// flight-recording deployments carry the ring as a trailing field;
/// plain deployments keep the legacy layout. `estimate` is the expected
/// file size. Returns the snapshot's length.
fn write_checkpoint(
    file: &mut Vec<u8>,
    db: &Database,
    epoch: u64,
    flight: Option<&[u8]>,
    estimate: usize,
) -> usize {
    // Reuse the buffer only if the file fits: growing it would copy the
    // old contents while the new ones are written.
    if file.capacity() < estimate {
        *file = Vec::with_capacity(estimate);
    }
    let mut w = Writer::from(std::mem::take(file));
    w.put_raw(&[0; CHECKPOINT_PREFIX]);
    db.snapshot_into(&mut w);
    let snapshot_len = w.len() - CHECKPOINT_PREFIX;
    if let Some(flight) = flight {
        w.put_bytes(flight);
    }
    let mut prefix = Writer::new();
    prefix.put_uvar(epoch);
    prefix.put_uvar(snapshot_len as u64);
    let slack = CHECKPOINT_PREFIX - 4 - prefix.len();
    *file = w.into_bytes();
    file[slack + 4..CHECKPOINT_PREFIX].copy_from_slice(prefix.as_slice());
    file.drain(..slack);
    seal_frame(file, 0);
    snapshot_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimDisk;
    use sor_proto::frame::encode_frame;
    use sor_store::{ColumnType, Predicate, Schema, Value};

    fn open_sim(disk: &SimDisk, opts: DurableOptions) -> (DurableDatabase, RecoveryReport) {
        DurableDatabase::open(Box::new(disk.clone()), opts, Recorder::default(), 0.0).unwrap()
    }

    fn seed_rows(ddb: &mut DurableDatabase, n: i64) {
        ddb.db_mut().create_table(Schema::new("t").column("n", ColumnType::Int)).unwrap();
        ddb.db_mut().create_index("t", "n").unwrap();
        ddb.commit().unwrap();
        for i in 0..n {
            ddb.db_mut().insert("t", vec![Value::Int(i)]).unwrap();
            ddb.commit().unwrap();
        }
    }

    fn count(ddb: &DurableDatabase) -> usize {
        ddb.db().scan("t", &Predicate::True).unwrap().len()
    }

    #[test]
    fn ephemeral_commit_is_a_noop() {
        let mut ddb = DurableDatabase::ephemeral();
        assert!(!ddb.is_durable());
        ddb.db_mut().create_table(Schema::new("t").column("n", ColumnType::Int)).unwrap();
        ddb.commit().unwrap();
        ddb.checkpoint().unwrap();
        assert_eq!(ddb.pending_ops(), 0);
    }

    #[test]
    fn committed_work_survives_a_crash() {
        let disk = SimDisk::new(11);
        let (mut ddb, report) = open_sim(&disk, DurableOptions::default());
        assert!(!report.had_checkpoint);
        seed_rows(&mut ddb, 10);
        drop(ddb);
        disk.crash();
        let (ddb, report) = open_sim(&disk, DurableOptions::default());
        assert_eq!(count(&ddb), 10, "every committed insert survives");
        assert_eq!(report.replayed_records, 12); // DDL + index + 10 inserts
        assert!(ddb.db().table("t").unwrap().has_index("n"));
    }

    #[test]
    fn uncommitted_work_does_not_survive() {
        let disk = SimDisk::new(13);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 5);
        // Captured but never committed: lost on crash, by design.
        ddb.db_mut().insert("t", vec![Value::Int(99)]).unwrap();
        drop(ddb);
        disk.crash();
        let (ddb, _) = open_sim(&disk, DurableOptions::default());
        assert_eq!(count(&ddb), 5);
    }

    #[test]
    fn recovery_is_a_committed_prefix_under_group_commit() {
        // With group_commit > 1 a crash may lose the unflushed batch
        // tail, but what survives must be an exact prefix of commits.
        for seed in 0..40 {
            let disk = SimDisk::new(seed);
            let opts = DurableOptions { group_commit: 4, ..DurableOptions::default() };
            let (mut ddb, _) = open_sim(&disk, opts);
            seed_rows(&mut ddb, 17);
            drop(ddb);
            disk.crash();
            let (ddb, report) = open_sim(&disk, opts);
            let rows = ddb.db().scan("t", &Predicate::True).unwrap();
            let got: Vec<i64> = rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
            let expect: Vec<i64> = (0..got.len() as i64).collect();
            assert_eq!(got, expect, "seed {seed}: recovered rows are a prefix");
            assert!(
                report.tail != TailState::Corrupt,
                "seed {seed}: a torn write must never read as corruption"
            );
        }
    }

    #[test]
    fn flushed_commits_always_survive_group_commit_crashes() {
        let disk = SimDisk::new(3);
        let opts = DurableOptions { group_commit: 4, ..DurableOptions::default() };
        let (mut ddb, _) = open_sim(&disk, opts);
        seed_rows(&mut ddb, 10);
        ddb.sync().unwrap();
        drop(ddb);
        disk.crash();
        let (ddb, _) = open_sim(&disk, opts);
        assert_eq!(count(&ddb), 10, "sync() closes the group-commit loss window");
    }

    #[test]
    fn checkpoint_retires_the_log_and_recovery_uses_it() {
        let disk = SimDisk::new(17);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 8);
        ddb.checkpoint().unwrap();
        // Post-checkpoint commits land in the new epoch's log.
        ddb.db_mut().insert("t", vec![Value::Int(100)]).unwrap();
        ddb.commit().unwrap();
        drop(ddb);
        disk.crash();
        let (ddb, report) = open_sim(&disk, DurableOptions::default());
        assert!(report.had_checkpoint);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.replayed_records, 1, "only the post-checkpoint insert replays");
        assert_eq!(count(&ddb), 9);
        assert!(ddb.db().table("t").unwrap().has_index("n"), "index restored from checkpoint");
    }

    #[test]
    fn automatic_checkpoint_bounds_log_replay() {
        let disk = SimDisk::new(19);
        let opts = DurableOptions { checkpoint_every_ops: 10, ..DurableOptions::default() };
        let (mut ddb, _) = open_sim(&disk, opts);
        seed_rows(&mut ddb, 50);
        drop(ddb);
        disk.crash();
        let (ddb, report) = open_sim(&disk, opts);
        assert!(report.had_checkpoint);
        assert!(report.replayed_records < 12, "replay bounded by checkpoints");
        assert_eq!(count(&ddb), 50);
    }

    #[test]
    fn bit_rot_in_the_log_is_detected_not_replayed() {
        let disk = SimDisk::new(23).with_bit_rot(1.0);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 30);
        drop(ddb);
        disk.crash();
        match DurableDatabase::open(
            Box::new(disk.clone()),
            DurableOptions::default(),
            Recorder::default(),
            0.0,
        ) {
            Ok((ddb, report)) => {
                // The flip landed in the log: replay stops before it.
                assert_eq!(report.tail, TailState::Corrupt);
                let rows = ddb.db().scan("t", &Predicate::True).unwrap();
                let got: Vec<i64> = rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
                let expect: Vec<i64> = (0..got.len() as i64).collect();
                assert_eq!(got, expect, "state after corruption is still a committed prefix");
            }
            Err(DurableError::CorruptCheckpoint(_)) => {
                // The flip landed in the checkpoint: surfaced, not hidden.
            }
            Err(e) => panic!("unexpected recovery error: {e}"),
        }
    }

    #[test]
    fn double_crash_and_recover_is_stable() {
        let disk = SimDisk::new(29);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 6);
        drop(ddb);
        disk.crash();
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        ddb.db_mut().insert("t", vec![Value::Int(6)]).unwrap();
        ddb.commit().unwrap();
        drop(ddb);
        disk.crash();
        let (ddb, _) = open_sim(&disk, DurableOptions::default());
        assert_eq!(count(&ddb), 7);
        // Recovered inserts continue the id sequence without reuse.
        let rows = ddb.db().scan("t", &Predicate::True).unwrap();
        let ids: Vec<u64> = rows.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn flight_ring_rides_the_checkpoint_and_survives_recovery() {
        let disk = SimDisk::new(37);
        let rec = Recorder::enabled().with_flight(8);
        let (mut ddb, _) = DurableDatabase::open(
            Box::new(disk.clone()),
            DurableOptions::default(),
            rec.clone(),
            0.0,
        )
        .unwrap();
        seed_rows(&mut ddb, 3);
        rec.span_start("server.handle_message", 1.0);
        ddb.checkpoint().unwrap();
        drop(ddb);
        disk.crash();
        // A fresh recorder with an empty ring: recovery refills it from
        // the checkpoint's trailing field.
        let rec2 = Recorder::enabled().with_flight(8);
        let (_, report) = DurableDatabase::open(
            Box::new(disk.clone()),
            DurableOptions::default(),
            rec2.clone(),
            2.0,
        )
        .unwrap();
        assert!(report.had_checkpoint);
        let dump = rec2.flight_render().unwrap();
        assert!(dump.contains("server.handle_message"), "restored ring lost the span:\n{dump}");
    }

    #[test]
    fn forged_flight_ring_is_ignored_not_fatal() {
        let disk = SimDisk::new(43);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 2);
        ddb.checkpoint().unwrap();
        let snapshot = ddb.db().snapshot();
        drop(ddb);
        // A CRC-valid checkpoint whose flight ring declares u32::MAX
        // entries (capacity u32::MAX, one ring "server") with none
        // following: recovery must skip the ring, not abort on it.
        let mut ring = Vec::new();
        ring.extend_from_slice(&u32::MAX.to_le_bytes());
        ring.extend_from_slice(&1u32.to_le_bytes());
        ring.extend_from_slice(&6u32.to_le_bytes());
        ring.extend_from_slice(b"server");
        ring.extend_from_slice(&0u64.to_le_bytes());
        ring.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut w = Writer::new();
        w.put_uvar(1);
        w.put_bytes(&snapshot);
        w.put_bytes(&ring);
        let mut storage: Box<dyn Storage> = Box::new(disk.clone());
        storage.write_atomic(CHECKPOINT_FILE, &encode_frame(w.as_slice())).unwrap();
        disk.crash();
        let rec = Recorder::enabled().with_flight(8);
        let (ddb, report) =
            DurableDatabase::open(Box::new(disk.clone()), DurableOptions::default(), rec, 1.0)
                .unwrap();
        assert!(report.had_checkpoint);
        assert_eq!(count(&ddb), 2);
    }

    /// The checkpoint file as first written: payload built in one
    /// writer, framed by a copy.
    fn framed_payload(db: &Database, epoch: u64, flight: Option<&[u8]>) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_uvar(epoch);
        w.put_bytes(&db.snapshot());
        if let Some(flight) = flight {
            w.put_bytes(flight);
        }
        encode_frame(w.as_slice())
    }

    #[test]
    fn checkpoint_file_equals_the_framed_payload() {
        let disk = SimDisk::new(47);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 300);
        let ring = [7u8; 200];
        // Epochs whose varints take 1 to 10 bytes, into a fresh buffer,
        // a reused larger one and an undersized one.
        let mut reused = Vec::new();
        for epoch in [1, 300, 1 << 40, u64::MAX] {
            for flight in [None, Some(&ring[..])] {
                let expect = framed_payload(ddb.db(), epoch, flight);
                for estimate in [0, 64, 1 << 16] {
                    reused.clear();
                    let snapshot_len =
                        write_checkpoint(&mut reused, ddb.db(), epoch, flight, estimate);
                    assert_eq!(reused, expect, "epoch {epoch}, estimate {estimate}");
                    assert_eq!(snapshot_len, ddb.db().snapshot().len());
                }
            }
        }
        ddb.checkpoint().unwrap();
        let mut storage: Box<dyn Storage> = Box::new(disk.clone());
        let written = storage.read(CHECKPOINT_FILE).unwrap().unwrap();
        assert_eq!(written, framed_payload(ddb.db(), 1, None));
    }

    #[test]
    fn flight_checkpoint_file_equals_the_framed_payload() {
        let disk = SimDisk::new(53);
        let rec = Recorder::enabled().with_flight(8);
        let (mut ddb, _) = DurableDatabase::open(
            Box::new(disk.clone()),
            DurableOptions::default(),
            rec.clone(),
            0.0,
        )
        .unwrap();
        seed_rows(&mut ddb, 40);
        rec.span_start("server.handle_message", 1.0);
        let flight = rec.flight_bytes().expect("flight recording is on");
        ddb.checkpoint().unwrap();
        let mut storage: Box<dyn Storage> = Box::new(disk.clone());
        let written = storage.read(CHECKPOINT_FILE).unwrap().unwrap();
        assert_eq!(written, framed_payload(ddb.db(), 1, Some(&flight)));
    }

    #[test]
    fn flightless_checkpoint_keeps_the_legacy_layout() {
        let disk = SimDisk::new(41);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 2);
        ddb.checkpoint().unwrap();
        drop(ddb);
        disk.crash();
        let (ddb, report) = open_sim(&disk, DurableOptions::default());
        assert!(report.had_checkpoint);
        assert_eq!(count(&ddb), 2);
    }

    #[test]
    fn recovery_report_summary_is_deterministic() {
        let disk = SimDisk::new(31);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 2);
        drop(ddb);
        let (_, report) = open_sim(&disk, DurableOptions::default());
        assert_eq!(
            report.summary(),
            "recovery: checkpoint=no (0 B, epoch 0), replayed 4 records, tail clean (0 B truncated)"
        );
    }
}
