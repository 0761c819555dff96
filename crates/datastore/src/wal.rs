//! Write-ahead/undo log and the types behind ARIES-lite crash recovery.
//!
//! The paper's persistent tier (DB2) survives process death; PR 1's
//! idempotent commit protocol has so far only been exercised against
//! message loss. This module adds the missing half: an in-simulation
//! durable log that a scripted crash cannot take down. Every writing
//! transaction appends redo/undo mementos (txn id, LSN, old and new row
//! images) and a commit record carrying the `commit_seq` witness plus the
//! caller's `(origin, txn_id)` dedup identity, flushed together at the
//! transaction boundary (group commit). After a crash,
//! [`Database::recover`](crate::Database::recover) runs
//! analysis/redo/undo over the flushed prefix and hands back a
//! [`RecoveryReport`] the committers use to reseed their dedup tables.
//!
//! The "disk" is a base checkpoint plus a `Vec<Bytes>` of the encoded
//! records flushed since that checkpoint: durable in the simulation's
//! sense (it survives [`Database::crash`](crate::Database::crash), which
//! wipes only volatile state), while unflushed `pending` records die with
//! the process — exactly the distinction recovery semantics hinge on.
//!
//! The log is bounded. [`WalDisk::fold`] replaces the base with a fresh
//! checkpoint and truncates the records it subsumes; recovery, DDL and a
//! periodic checkpoint all go through it. The periodic one runs at the end
//! of a writing commit once the log has outgrown its base
//! ([`WalDisk::checkpoint_due`]) and no transaction holds a lock, so the
//! durable log never exceeds one base plus one transaction's records.

use std::collections::BTreeMap;

use bytes::Bytes;
use sli_simnet::wire::{DecodeError, Reader, Writer};
use sli_telemetry::{Counter, Registry, Timeline};

use crate::error::DbError;
use crate::value::Value;
use crate::DbResult;

/// Where a scripted crash fires inside the commit protocol (see
/// DESIGN.md §18). Each point models one step of the group-commit
/// sequence dying; all four surface to the caller as
/// [`DbError::Unavailable`], so the PR 1 retry path is exercised whether
/// or not the commit made it to the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before anything reaches the log: the transaction evaporates.
    PreFlush,
    /// After the op records are flushed but before the commit record — a
    /// torn group commit. Recovery redoes the ops (repeating history)
    /// and then undoes them as a loser.
    MidApply,
    /// After the commit record is flushed but before in-memory
    /// completion: durable yet unacknowledged, so the client retries and
    /// the reseeded dedup table replays the outcome.
    PostFlushPreApply,
    /// Fully applied and durable; only the acknowledgement is lost.
    PostApplyPreAck,
}

impl CrashPoint {
    /// Stable label for diagnostics and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            CrashPoint::PreFlush => "pre-flush",
            CrashPoint::MidApply => "mid-apply",
            CrashPoint::PostFlushPreApply => "post-flush-pre-apply",
            CrashPoint::PostApplyPreAck => "post-apply-pre-ack",
        }
    }
}

/// Every commit-protocol step a crash can be scripted at, in protocol
/// order — the crash-point matrix in `tests/failure.rs` walks this.
pub const CRASH_POINTS: [CrashPoint; 4] = [
    CrashPoint::PreFlush,
    CrashPoint::MidApply,
    CrashPoint::PostFlushPreApply,
    CrashPoint::PostApplyPreAck,
];

/// One logged operation: enough to redo (new image) and undo (old image)
/// the physical change.
#[derive(Debug, Clone)]
pub(crate) enum WalOp {
    Insert {
        table: String,
        row: Vec<Value>,
    },
    Update {
        table: String,
        pk: Value,
        old: Vec<Value>,
        new: Vec<Value>,
    },
    Delete {
        table: String,
        old: Vec<Value>,
    },
}

/// A decoded log record: LSN plus body.
#[derive(Debug)]
pub(crate) struct WalRecord {
    pub(crate) lsn: u64,
    pub(crate) body: WalBody,
}

#[derive(Debug)]
pub(crate) enum WalBody {
    /// A physical operation belonging to transaction `txn`.
    Op { txn: u64, op: WalOp },
    /// Transaction `txn` committed at `commit_seq`, optionally on behalf
    /// of the application-level identity `stamp = (origin, txn_id)`.
    Commit {
        txn: u64,
        commit_seq: u64,
        stamp: Option<(u32, u64)>,
    },
}

const REC_INSERT: u8 = 1;
const REC_UPDATE: u8 = 2;
const REC_DELETE: u8 = 3;
const REC_COMMIT: u8 = 4;

fn put_row(w: &mut Writer, row: &[Value]) {
    w.put_u32(row.len() as u32);
    for v in row {
        v.encode(w);
    }
}

fn get_row(r: &mut Reader) -> Result<Vec<Value>, DecodeError> {
    let n = r.get_u32()? as usize;
    // Every value takes at least one byte, so the remaining bytes cap an
    // honest row's width; a hostile length prefix cannot size the buffer.
    let mut row = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        row.push(Value::decode(r)?);
    }
    Ok(row)
}

fn encode_op(lsn: u64, txn: u64, op: &WalOp) -> Bytes {
    let mut w = Writer::new();
    match op {
        WalOp::Insert { table, row } => {
            w.put_u8(REC_INSERT)
                .put_u64(lsn)
                .put_u64(txn)
                .put_str(table);
            put_row(&mut w, row);
        }
        WalOp::Update {
            table,
            pk,
            old,
            new,
        } => {
            w.put_u8(REC_UPDATE)
                .put_u64(lsn)
                .put_u64(txn)
                .put_str(table);
            pk.encode(&mut w);
            put_row(&mut w, old);
            put_row(&mut w, new);
        }
        WalOp::Delete { table, old } => {
            w.put_u8(REC_DELETE)
                .put_u64(lsn)
                .put_u64(txn)
                .put_str(table);
            put_row(&mut w, old);
        }
    }
    w.finish_exact()
}

fn encode_commit(lsn: u64, txn: u64, commit_seq: u64, stamp: Option<(u32, u64)>) -> Bytes {
    let mut w = Writer::new();
    w.put_u8(REC_COMMIT)
        .put_u64(lsn)
        .put_u64(txn)
        .put_u64(commit_seq);
    match stamp {
        Some((origin, txn_id)) => {
            w.put_bool(true).put_u32(origin).put_u64(txn_id);
        }
        None => {
            w.put_bool(false);
        }
    }
    w.finish_exact()
}

fn decode_record(frame: &Bytes) -> Result<WalRecord, DecodeError> {
    let mut r = Reader::new(frame.clone());
    let kind = r.get_u8()?;
    let lsn = r.get_u64()?;
    let txn = r.get_u64()?;
    let body = match kind {
        REC_INSERT => WalBody::Op {
            txn,
            op: WalOp::Insert {
                table: r.get_str()?,
                row: get_row(&mut r)?,
            },
        },
        REC_UPDATE => {
            let table = r.get_str()?;
            let pk = Value::decode(&mut r)?;
            let old = get_row(&mut r)?;
            let new = get_row(&mut r)?;
            WalBody::Op {
                txn,
                op: WalOp::Update {
                    table,
                    pk,
                    old,
                    new,
                },
            }
        }
        REC_DELETE => WalBody::Op {
            txn,
            op: WalOp::Delete {
                table: r.get_str()?,
                old: get_row(&mut r)?,
            },
        },
        REC_COMMIT => {
            let commit_seq = r.get_u64()?;
            let stamp = if r.get_bool()? {
                Some((r.get_u32()?, r.get_u64()?))
            } else {
                None
            };
            WalBody::Commit {
                txn,
                commit_seq,
                stamp,
            }
        }
        _ => return Err(DecodeError::new("wal record kind")),
    };
    Ok(WalRecord { lsn, body })
}

fn corrupt(e: DecodeError) -> DbError {
    DbError::Remote(format!("corrupt wal record: {e}"))
}

/// The simulated durable log device.
///
/// `flushed` frames survive a crash; `pending` frames are the in-memory
/// tail that a crash discards. `base` is the checkpoint the log is
/// relative to, captured when the WAL is attached and replaced by every
/// [`WalDisk::fold`].
#[derive(Debug)]
pub(crate) struct WalDisk {
    pub(crate) base: Bytes,
    pub(crate) base_commit_seq: u64,
    pub(crate) base_next_txn: u64,
    /// Committed `(origin, txn_id)` stamps already folded into `base`, in
    /// commit order. A rebase truncates the log, but the dedup identities
    /// it held must keep flowing into every later `RecoveryReport` — the
    /// committers *replace* their dedup tables from it, and forgetting a
    /// stamp would turn a very late retry into a double apply.
    pub(crate) base_stamps: Vec<(u32, u64)>,
    pending: Vec<Bytes>,
    flushed: Vec<Bytes>,
    /// Total bytes of `flushed`, kept as a running sum so the checkpoint
    /// trigger costs nothing per commit.
    log_bytes: u64,
    next_lsn: u64,
    /// Inject-bug switch: when set, `flush` silently discards the pending
    /// tail while reporting success — an acked-but-not-durable commit the
    /// slicheck crash sweep must catch as a lost committed write.
    drop_flush: bool,
    /// Whether a flush was dropped since `base` was taken. The in-memory
    /// state then holds a commit recovery would not rebuild, and a
    /// checkpoint of it would make that lost commit durable after all.
    dropped_since_base: bool,
}

impl WalDisk {
    pub(crate) fn new(base: Bytes, base_commit_seq: u64, base_next_txn: u64) -> WalDisk {
        WalDisk {
            base,
            base_commit_seq,
            base_next_txn,
            base_stamps: Vec::new(),
            pending: Vec::new(),
            flushed: Vec::new(),
            log_bytes: 0,
            next_lsn: 0,
            drop_flush: false,
            dropped_since_base: false,
        }
    }

    /// Folds the durable log into `base`, a fresh checkpoint of the
    /// current committed state: the committed stamps of the flushed
    /// records join `base_stamps` in commit order, and the records are
    /// truncated. This is the one fold path — recovery, DDL and the
    /// periodic checkpoint all end here.
    ///
    /// ARIES would write compensation records during undo; truncating to
    /// a post-recovery checkpoint is the equivalent for an in-simulation
    /// log, and is what stops a torn transaction's op records from being
    /// re-undone — on top of later committed state — by the *next*
    /// crash's recovery. LSNs stay monotonic across folds so record order
    /// is globally unambiguous.
    ///
    /// # Errors
    /// Fails, leaving the log untouched, if a flushed record is corrupt.
    pub(crate) fn fold(
        &mut self,
        base: Bytes,
        base_commit_seq: u64,
        base_next_txn: u64,
    ) -> DbResult<()> {
        // Only commit records carry stamps; op records are skipped by
        // their kind byte rather than decoded.
        let mut winners: BTreeMap<u64, Option<(u32, u64)>> = BTreeMap::new();
        for frame in self
            .flushed
            .iter()
            .filter(|f| f.first() == Some(&REC_COMMIT))
        {
            if let WalBody::Commit {
                commit_seq, stamp, ..
            } = decode_record(frame).map_err(corrupt)?.body
            {
                winners.insert(commit_seq, stamp);
            }
        }
        self.base_stamps.extend(winners.into_values().flatten());
        self.base = base;
        self.base_commit_seq = base_commit_seq;
        self.base_next_txn = base_next_txn;
        self.pending.clear();
        self.flushed.clear();
        self.log_bytes = 0;
        self.dropped_since_base = false;
        Ok(())
    }

    /// Whether a periodic checkpoint should fold the log now: the flushed
    /// records have outgrown the base they are relative to, and the
    /// durable state is honest (no flush was dropped since the base was
    /// taken, so a checkpoint captures only what recovery would rebuild).
    /// Base-relative, so it needs no size constant: each fold costs
    /// O(base) and follows O(base) logged bytes.
    pub(crate) fn checkpoint_due(&self) -> bool {
        !self.dropped_since_base && self.log_bytes >= self.base.len() as u64
    }

    /// Bytes of the durable log since the base checkpoint.
    pub(crate) fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    pub(crate) fn set_drop_flush(&mut self, on: bool) {
        self.drop_flush = on;
    }

    fn append(&mut self, frame: Bytes, metrics: &WalMetrics) {
        self.pending.push(frame);
        metrics.appends.inc();
    }

    pub(crate) fn append_op(&mut self, txn: u64, op: &WalOp, metrics: &WalMetrics) {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.append(encode_op(lsn, txn, op), metrics);
    }

    pub(crate) fn append_commit(
        &mut self,
        txn: u64,
        commit_seq: u64,
        stamp: Option<(u32, u64)>,
        metrics: &WalMetrics,
    ) {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.append(encode_commit(lsn, txn, commit_seq, stamp), metrics);
    }

    /// Makes the pending tail durable (or, under the injected bug, lies
    /// about it).
    pub(crate) fn flush(&mut self, metrics: &WalMetrics) {
        metrics.flushes.inc();
        if self.drop_flush {
            metrics.dropped_flushes.add(self.pending.len() as u64);
            self.dropped_since_base |= !self.pending.is_empty();
            self.pending.clear();
            return;
        }
        for frame in self.pending.drain(..) {
            metrics.flushed_records.inc();
            metrics.flushed_bytes.add(frame.len() as u64);
            self.log_bytes += frame.len() as u64;
            self.flushed.push(frame);
        }
    }

    /// Drops the un-flushed tail — what a crash does to volatile buffers.
    pub(crate) fn discard_pending(&mut self) {
        self.pending.clear();
    }

    /// Decodes the durable prefix in LSN order.
    pub(crate) fn decode_flushed(&self) -> DbResult<Vec<WalRecord>> {
        self.flushed
            .iter()
            .map(|f| decode_record(f).map_err(corrupt))
            .collect()
    }
}

/// Counters for the log device and the restart path, attached to the
/// telemetry registry as `{prefix}.wal.*` / `{prefix}.recovery.*`.
#[derive(Debug)]
pub(crate) struct WalMetrics {
    pub(crate) appends: Counter,
    pub(crate) flushes: Counter,
    pub(crate) flushed_records: Counter,
    pub(crate) flushed_bytes: Counter,
    pub(crate) dropped_flushes: Counter,
    pub(crate) recoveries: Counter,
    pub(crate) redone: Counter,
    pub(crate) undone: Counter,
    pub(crate) torn_discarded: Counter,
    /// Periodic checkpoints taken. Read through [`WalStats`] only: it is
    /// not attached to the registry, so timeline artifacts keep their
    /// series.
    pub(crate) checkpoints: Counter,
}

impl WalMetrics {
    pub(crate) fn new() -> WalMetrics {
        WalMetrics {
            appends: Counter::new(),
            flushes: Counter::new(),
            flushed_records: Counter::new(),
            flushed_bytes: Counter::new(),
            dropped_flushes: Counter::new(),
            recoveries: Counter::new(),
            redone: Counter::new(),
            undone: Counter::new(),
            torn_discarded: Counter::new(),
            checkpoints: Counter::new(),
        }
    }

    pub(crate) fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.wal.appends"), &self.appends);
        registry.attach_counter(format!("{prefix}.wal.flushes"), &self.flushes);
        registry.attach_counter(
            format!("{prefix}.wal.flushed_records"),
            &self.flushed_records,
        );
        registry.attach_counter(format!("{prefix}.wal.flushed_bytes"), &self.flushed_bytes);
        registry.attach_counter(
            format!("{prefix}.wal.dropped_flushes"),
            &self.dropped_flushes,
        );
        registry.attach_counter(format!("{prefix}.recovery.recoveries"), &self.recoveries);
        registry.attach_counter(format!("{prefix}.recovery.redone_ops"), &self.redone);
        registry.attach_counter(format!("{prefix}.recovery.undone_ops"), &self.undone);
        registry.attach_counter(format!("{prefix}.recovery.torn_txns"), &self.torn_discarded);
    }

    pub(crate) fn timeline_into(&self, timeline: &Timeline, prefix: &str) {
        timeline.track_counter(format!("{prefix}.wal.appends"), &self.appends);
        timeline.track_counter(format!("{prefix}.wal.flushes"), &self.flushes);
        timeline.track_counter(
            format!("{prefix}.wal.flushed_records"),
            &self.flushed_records,
        );
        timeline.track_counter(format!("{prefix}.wal.flushed_bytes"), &self.flushed_bytes);
        timeline.track_counter(
            format!("{prefix}.wal.dropped_flushes"),
            &self.dropped_flushes,
        );
        timeline.track_counter(format!("{prefix}.recovery.recoveries"), &self.recoveries);
        timeline.track_counter(format!("{prefix}.recovery.redone_ops"), &self.redone);
        timeline.track_counter(format!("{prefix}.recovery.undone_ops"), &self.undone);
        timeline.track_counter(format!("{prefix}.recovery.torn_txns"), &self.torn_discarded);
    }

    /// The counters, plus the size of `disk`'s base and log when one is
    /// attached.
    pub(crate) fn stats(&self, disk: Option<&WalDisk>) -> WalStats {
        WalStats {
            appends: self.appends.get(),
            flushes: self.flushes.get(),
            flushed_records: self.flushed_records.get(),
            flushed_bytes: self.flushed_bytes.get(),
            dropped_flushes: self.dropped_flushes.get(),
            recoveries: self.recoveries.get(),
            redone_ops: self.redone.get(),
            undone_ops: self.undone.get(),
            torn_txns: self.torn_discarded.get(),
            checkpoints: self.checkpoints.get(),
            log_bytes: disk.map_or(0, WalDisk::log_bytes),
            base_bytes: disk.map_or(0, |d| d.base.len() as u64),
        }
    }
}

/// Snapshot of the `wal.*` / `recovery.*` counters and of the log's
/// current size — `PartialEq` so the seeded-determinism pin can assert
/// two replays agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended to the pending tail.
    pub appends: u64,
    /// Group-commit flush calls.
    pub flushes: u64,
    /// Records made durable.
    pub flushed_records: u64,
    /// Bytes made durable.
    pub flushed_bytes: u64,
    /// Records silently discarded by the injected drop-flush bug.
    pub dropped_flushes: u64,
    /// Completed restart passes.
    pub recoveries: u64,
    /// Operations replayed during redo (repeating history).
    pub redone_ops: u64,
    /// Loser operations reversed during undo.
    pub undone_ops: u64,
    /// Distinct torn (uncommitted-but-logged) transactions discarded.
    pub torn_txns: u64,
    /// Periodic checkpoints that folded the log into a fresh base.
    pub checkpoints: u64,
    /// Current size of the durable log: bytes flushed since the base.
    pub log_bytes: u64,
    /// Size of the base checkpoint the log is relative to.
    pub base_bytes: u64,
}

/// What [`Database::recover`](crate::Database::recover) reconstructed,
/// handed to the committers so they can reseed their `(origin, txn_id)`
/// dedup tables to the same prefix-consistent point as the data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// `(origin, txn_id)` identities of committed (winner) transactions,
    /// in commit order.
    pub committed: Vec<(u32, u64)>,
    /// Operations replayed during the redo pass.
    pub redo_count: u64,
    /// Loser operations reversed during the undo pass.
    pub undo_count: u64,
    /// Distinct torn transactions rolled back.
    pub torn_txns: u64,
    /// Highest LSN seen in the durable log (0 when the log is empty).
    pub max_lsn: u64,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// splitmix64 over `(seed, n)`: the seeded stream the mutation loops
    /// draw from, so every failure reproduces from its printed seed.
    fn mix(seed: u64, n: u64) -> u64 {
        let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One seeded mutation of a valid frame: a strict prefix, a flipped
    /// byte, a 4-byte window overwritten with a huge length, or inserted
    /// junk. Returns the mutant and whether it is a strict prefix — the
    /// encodings consume every byte, so a prefix must always fail.
    pub(crate) fn mutate(frame: &[u8], seed: u64) -> (Vec<u8>, bool) {
        let r = |n: u64| mix(seed, n);
        let len = frame.len() as u64;
        let mut out = frame.to_vec();
        match r(0) % 4 {
            0 => {
                out.truncate((r(1) % len) as usize);
                return (out, true);
            }
            1 => out[(r(1) % len) as usize] ^= (r(2) % 255 + 1) as u8,
            2 if len >= 4 => {
                let at = (r(1) % (len - 3)) as usize;
                let huge = if r(2) % 2 == 0 {
                    u32::MAX
                } else {
                    (r(3) as u32) | 0x0100_0000
                };
                out[at..at + 4].copy_from_slice(&huge.to_be_bytes());
            }
            _ => {
                let at = (r(1) % (len + 1)) as usize;
                let junk: Vec<u8> = (0..1 + r(2) % 8).map(|i| r(10 + i) as u8).collect();
                out.splice(at..at, junk);
            }
        }
        (out, false)
    }

    fn value(seed: u64, n: u64) -> Value {
        let r = mix(seed, n);
        match r % 5 {
            0 => Value::Null,
            1 => Value::Bool(r & 0x100 != 0),
            2 => Value::Int((r >> 8) as i64),
            3 => Value::Double((r >> 11) as f64 / 7.0),
            _ => Value::from(format!("s{}", r >> 40)),
        }
    }

    fn row(seed: u64, n: u64) -> Vec<Value> {
        (0..1 + mix(seed, n) % 4)
            .map(|i| value(seed, n * 16 + i + 1))
            .collect()
    }

    /// A valid record of every kind, built from `seed`.
    fn records(seed: u64) -> Vec<Bytes> {
        let table = "holding".to_owned();
        vec![
            encode_op(
                seed,
                3,
                &WalOp::Insert {
                    table: table.clone(),
                    row: row(seed, 1),
                },
            ),
            encode_op(
                seed + 1,
                3,
                &WalOp::Update {
                    table: table.clone(),
                    pk: value(seed, 2),
                    old: row(seed, 3),
                    new: row(seed, 4),
                },
            ),
            encode_op(
                seed + 2,
                3,
                &WalOp::Delete {
                    table,
                    old: row(seed, 5),
                },
            ),
            encode_commit(seed + 3, 3, 9, Some((1, seed))),
            encode_commit(seed + 4, 4, 10, None),
        ]
    }

    #[test]
    fn valid_records_decode() {
        for seed in 0..64 {
            for frame in records(seed) {
                decode_record(&frame).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }

    /// The regression: an Insert into `t` whose row claims `u32::MAX`
    /// values used to pre-allocate for all of them and abort.
    #[test]
    fn hostile_row_length_is_an_error_not_an_abort() {
        let mut w = Writer::new();
        w.put_u8(REC_INSERT)
            .put_u64(0)
            .put_u64(1)
            .put_str("t")
            .put_u32(u32::MAX);
        let frame = w.finish();
        assert_eq!(frame.len(), 26);
        assert!(decode_record(&frame).is_err());
    }

    #[test]
    fn mutated_records_never_panic() {
        let mut errors = 0;
        for seed in 0..2_000u64 {
            for (i, frame) in records(seed).iter().enumerate() {
                let (mutant, prefix) = mutate(frame, seed * 8 + i as u64);
                let decoded = decode_record(&Bytes::from(mutant));
                assert!(
                    !prefix || decoded.is_err(),
                    "seed {seed} record {i}: a strict prefix decoded"
                );
                errors += usize::from(decoded.is_err());
            }
        }
        // Most mutants are garbage; the loop must actually exercise the
        // error paths, not only flip payload bytes.
        assert!(
            errors > 5_000,
            "only {errors} of 10000 mutants were rejected"
        );
    }
}
