//! Lightweight span tracing across the whole simulated stack.
//!
//! Components that hold a simulated clock record [`SpanEvent`]s — servlet
//! root spans, RPC client/server spans, commit-protocol steps, per-SQL
//! statement leaves — into a bounded [`TraceLog`]. Each event carries its
//! causal coordinates (`trace_id` / `span_id` / `parent_span_id`, see
//! [`crate::TraceCtx`]) so the flat log reassembles into per-request trees.
//! The log is a diagnosis tool, not a metric: it keeps the most recent
//! events only, and all aggregate numbers live in counters and histograms
//! instead.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// How a traced protocol step ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The step completed and its effects are durable.
    Committed,
    /// Optimistic validation failed; nothing was applied.
    Conflict,
    /// The request was a duplicate of an already-finished transaction and
    /// the recorded outcome was replayed without re-applying.
    Replayed,
    /// The step failed with an error (transport, SQL, ...).
    Error,
}

impl SpanOutcome {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Committed => "committed",
            SpanOutcome::Conflict => "conflict",
            SpanOutcome::Replayed => "replayed",
            SpanOutcome::Error => "error",
        }
    }
}

/// Forensic payload attached to a span where the flat identity fields are
/// not enough to diagnose the event.
///
/// Every variant is at most two words, so a [`SpanEvent`] stays within
/// 96 bytes: spans are the most numerous thing telemetry keeps, and a
/// full default-capacity [`TraceLog`] holds 4096 of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpanDetail {
    /// A datastore statement leaf: `{table}.{kind}` class, e.g.
    /// `"account.read"` (empty for DDL/unclassified statements).
    Statement {
        /// Statement class, `"{table}.{kind}"`. Shared: the server derives
        /// it once per distinct statement text, not once per span.
        class: Arc<str>,
    },
    /// OCC validation-failure forensics (boxed: rare and large).
    Conflict(Box<ConflictInfo>),
    /// An RPC attempt number (1-based) under a retried call.
    Attempt {
        /// Which attempt of the enclosing call this was.
        number: u32,
    },
}

/// What an OCC validation failure saw: which entity, which field diverged,
/// and digests of the expected (transaction before-image) vs. found
/// (current persistent image) state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictInfo {
    /// Conflicting bean type.
    pub bean: String,
    /// Conflicting key, stringified.
    pub key: String,
    /// First field whose value diverged, when a current image was
    /// available to compare (`None` for existence conflicts or conditional
    /// writes that only observe 0 rows affected).
    pub field: Option<String>,
    /// Digest of the before-image the transaction expected to find.
    pub expected_digest: u64,
    /// Digest of the image actually found (`None` when the bean vanished
    /// or the committer had no current image to inspect).
    pub found_digest: Option<u64>,
}

impl ConflictInfo {
    /// `bean[key]` — the leaderboard key for this conflict.
    pub fn entity(&self) -> String {
        format!("{}[{}]", self.bean, self.key)
    }
}

/// One traced step: a node in a request's causal span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Step name, e.g. `"commit.validate_apply"` or `"db.stmt"`.
    pub op: &'static str,
    /// Originating edge id of the transaction (0 when not transactional).
    pub origin: u32,
    /// Transaction id at the origin (0 = unidentified/auto-commit).
    pub txn_id: u64,
    /// Simulated start time, microseconds.
    pub start_us: u64,
    /// Simulated end time, microseconds.
    pub end_us: u64,
    /// How the step ended.
    pub outcome: SpanOutcome,
    /// Trace this span belongs to (0 = recorded outside any trace).
    pub trace_id: u64,
    /// This span's id, unique within the tracer that allocated it
    /// (0 = unassigned).
    pub span_id: u64,
    /// Id of the enclosing span (0 = root of its trace).
    pub parent_span_id: u64,
    /// Optional forensic payload.
    pub detail: Option<SpanDetail>,
}

impl SpanEvent {
    /// Span duration in simulated microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// The conflict forensics, when this span recorded an OCC failure.
    pub fn conflict(&self) -> Option<&ConflictInfo> {
        match &self.detail {
            Some(SpanDetail::Conflict(info)) => Some(info),
            _ => None,
        }
    }
}

/// A bounded in-memory log of [`SpanEvent`]s; oldest events are dropped
/// once the capacity is reached, and every drop is counted
/// ([`TraceLog::evicted`]).
///
/// A consumer that needs every span drains the log ([`TraceLog::drain`])
/// at least once per capacity's worth of events, and checks that
/// `evicted()` did not grow while it was measuring.
#[derive(Debug)]
pub struct TraceLog {
    ring: Mutex<Ring>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<SpanEvent>,
    evicted: u64,
}

impl Default for TraceLog {
    fn default() -> TraceLog {
        TraceLog::with_capacity(4096)
    }
}

impl TraceLog {
    /// Creates a log with the default capacity (4096 events).
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Creates a log keeping at most `capacity` recent events.
    pub fn with_capacity(capacity: usize) -> TraceLog {
        TraceLog {
            ring: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
        }
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().expect("trace lock")
    }

    /// Appends an event, evicting (and counting) the oldest if full.
    pub fn record(&self, event: SpanEvent) {
        let mut ring = self.ring();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.evicted += 1;
        }
        ring.events.push_back(event);
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.ring().events.iter().cloned().collect()
    }

    /// Moves the retained events out, oldest first, leaving the log empty
    /// (its eviction count is kept).
    pub fn drain(&self) -> Vec<SpanEvent> {
        self.ring().events.drain(..).collect()
    }

    /// Events evicted to make room since the log was created; never
    /// reset, so a harness reads it at a phase boundary and compares.
    pub fn evicted(&self) -> u64 {
        self.ring().evicted
    }

    /// The most events the log retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring().events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counts retained events matching `op` (any op if `None`) and
    /// `outcome` (any outcome if `None`).
    pub fn count(&self, op: Option<&str>, outcome: Option<SpanOutcome>) -> usize {
        self.ring()
            .events
            .iter()
            .filter(|e| op.is_none_or(|o| e.op == o))
            .filter(|e| outcome.is_none_or(|o| e.outcome == o))
            .count()
    }

    /// Discards all retained events (the eviction count is kept).
    pub fn clear(&self) {
        self.ring().events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(op: &'static str, txn_id: u64, outcome: SpanOutcome) -> SpanEvent {
        SpanEvent {
            op,
            origin: 1,
            txn_id,
            start_us: 10 * txn_id,
            end_us: 10 * txn_id + 5,
            outcome,
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
            detail: None,
        }
    }

    #[test]
    fn records_and_counts_by_op_and_outcome() {
        let log = TraceLog::new();
        log.record(event("commit.validate_apply", 1, SpanOutcome::Committed));
        log.record(event("commit.validate_apply", 2, SpanOutcome::Conflict));
        log.record(event("commit.invalidate", 2, SpanOutcome::Committed));
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(Some("commit.validate_apply"), None), 2);
        assert_eq!(log.count(None, Some(SpanOutcome::Committed)), 2);
        assert_eq!(
            log.count(Some("commit.validate_apply"), Some(SpanOutcome::Conflict)),
            1
        );
        assert_eq!(log.events()[0].duration_us(), 5);
    }

    #[test]
    fn capacity_drops_oldest() {
        let log = TraceLog::with_capacity(2);
        for txn in 1..=3 {
            log.record(event("op", txn, SpanOutcome::Committed));
        }
        let kept: Vec<u64> = log.events().iter().map(|e| e.txn_id).collect();
        assert_eq!(kept, vec![2, 3]);
    }

    #[test]
    fn eviction_at_capacity_is_counted() {
        let log = TraceLog::with_capacity(3);
        for txn in 1..=3 {
            log.record(event("op", txn, SpanOutcome::Committed));
        }
        assert_eq!(log.evicted(), 0, "filling to capacity evicts nothing");
        log.record(event("op", 4, SpanOutcome::Committed));
        assert_eq!(log.evicted(), 1);
        assert_eq!(log.events()[0].txn_id, 2, "the oldest event went");
        for txn in 5..=20 {
            log.record(event("op", txn, SpanOutcome::Committed));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 17, "every event past capacity evicts one");
        log.clear();
        assert_eq!(log.evicted(), 17, "clearing is not evicting");
    }

    #[test]
    fn drain_moves_events_out_oldest_first() {
        let log = TraceLog::with_capacity(4);
        for txn in 1..=6 {
            log.record(event("op", txn, SpanOutcome::Committed));
        }
        let copy = log.events();
        let drained = log.drain();
        assert_eq!(drained, copy);
        let order: Vec<u64> = drained.iter().map(|e| e.txn_id).collect();
        assert_eq!(order, vec![3, 4, 5, 6]);
        assert!(log.is_empty());
        assert_eq!(log.evicted(), 2, "draining leaves the eviction count alone");
        assert!(log.drain().is_empty());
        // The drained log fills to its capacity again before evicting.
        for txn in 7..=10 {
            log.record(event("op", txn, SpanOutcome::Committed));
        }
        assert_eq!(log.evicted(), 2);
    }

    #[test]
    fn bounded_eviction_keeps_len_and_count_consistent() {
        let log = TraceLog::with_capacity(4);
        for txn in 1..=10 {
            let outcome = if txn % 2 == 0 {
                SpanOutcome::Conflict
            } else {
                SpanOutcome::Committed
            };
            let op = if txn <= 8 { "old" } else { "new" };
            log.record(event(op, txn, outcome));
        }
        // Only the 4 newest survive: txns 7..=10.
        assert_eq!(log.len(), 4);
        assert_eq!(log.events().len(), log.len());
        let kept: Vec<u64> = log.events().iter().map(|e| e.txn_id).collect();
        assert_eq!(kept, vec![7, 8, 9, 10]);
        // count() agrees with the retained window, not with what was fed.
        assert_eq!(log.count(None, None), 4);
        assert_eq!(log.count(Some("old"), None), 2);
        assert_eq!(log.count(Some("new"), None), 2);
        assert_eq!(log.count(None, Some(SpanOutcome::Conflict)), 2);
        assert_eq!(log.count(Some("new"), Some(SpanOutcome::Committed)), 1);
        // Overflowing further still never exceeds capacity.
        for txn in 11..=100 {
            log.record(event("new", txn, SpanOutcome::Committed));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.count(None, None), 4);
    }

    #[test]
    fn capacity_floor_is_one_event() {
        let log = TraceLog::with_capacity(0);
        log.record(event("a", 1, SpanOutcome::Committed));
        log.record(event("b", 2, SpanOutcome::Committed));
        assert_eq!(log.len(), 1);
        assert_eq!(log.events()[0].op, "b");
    }

    #[test]
    fn clear_empties_the_log() {
        let log = TraceLog::new();
        log.record(event("op", 1, SpanOutcome::Error));
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(SpanOutcome::Committed.label(), "committed");
        assert_eq!(SpanOutcome::Conflict.label(), "conflict");
        assert_eq!(SpanOutcome::Replayed.label(), "replayed");
        assert_eq!(SpanOutcome::Error.label(), "error");
    }
}
