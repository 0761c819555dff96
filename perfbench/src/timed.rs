//! Host-time spans recorded around the calls into each layer.
//!
//! A timing decorator wraps the trait object at each layer boundary of a
//! stack assembled in [`crate::stack`]. Every call records one span —
//! layer, start, end, parent span and the interaction it belongs to — in
//! an in-memory recorder that is read when the run ends. No decorator
//! touches the virtual clock, so a decorated stack reproduces the plain
//! one's virtual latencies exactly.
//!
//! The simulator is single-threaded, so the recorder is thread-local.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use sli_component::{EjbResult, Memento};
use sli_core::{CommitOutcome, CommitRequest, Committer, StateSource};
use sli_datastore::{
    BatchOutcome, BatchStatement, DbResult, Predicate, ResultSet, SqlConnection, Value,
};
use sli_simnet::Service;
use sli_trade::{TradeAction, TradeEngine, TradeResult};

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One client interaction (the root of its spans).
    Interaction,
    /// `AppServer::handle`.
    Servlet,
    /// `TradeEngine::perform`.
    Engine,
    /// `StateSource::fetch` / `query`.
    Source,
    /// `Committer::commit`.
    Commit,
    /// Any `SqlConnection` call.
    Sql,
    /// The invalidation sink's `Service::handle`.
    Sink,
}

/// No parent: the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Where it was recorded.
    pub layer: Layer,
    /// Host ns since the recorder's origin.
    pub start_ns: u64,
    /// Host ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The interaction the span belongs to.
    pub interaction: u32,
    /// Layer-specific tag: the action index for engine spans
    /// ([`action_index`]), rows returned for SQL spans, 1 for a conflicting
    /// commit.
    pub tag: u32,
}

impl Span {
    /// Host duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Action names in [`action_index`] order.
pub const ACTIONS: [&str; 10] = [
    "login",
    "logout",
    "register",
    "home",
    "account",
    "update",
    "portfolio",
    "quote",
    "buy",
    "sell",
];

/// The position of `action`'s name in [`ACTIONS`].
pub fn action_index(action: &TradeAction) -> u32 {
    ACTIONS
        .iter()
        .position(|&n| n == action.name())
        .expect("every action name is listed") as u32
}

#[derive(Default)]
struct Recorder {
    on: bool,
    origin: Option<Instant>,
    interaction: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording into an empty recorder.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder {
            on: true,
            origin: Some(Instant::now()),
            ..Recorder::default()
        }
    });
}

/// Stops recording and hands back every span.
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "a span is still open");
        std::mem::take(&mut *r).spans
    })
}

/// Sets the interaction id later spans carry.
pub fn set_interaction(id: u32) {
    RECORDER.with(|r| r.borrow_mut().interaction = id);
}

/// Runs `f` inside a span at `layer`; `tag` derives the span's tag from the
/// result. Does nothing but call `f` while the recorder is off.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R, tag: impl FnOnce(&R) -> u32) -> R {
    let open = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let idx = r.spans.len() as u32;
        let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
        let interaction = r.interaction;
        r.spans.push(Span {
            layer,
            start_ns: 0,
            end_ns: 0,
            parent,
            interaction,
            tag: 0,
        });
        r.stack.push(idx);
        let origin = r.origin.expect("a started recorder has an origin");
        Some((idx, origin, origin.elapsed().as_nanos() as u64))
    });
    let Some((idx, origin, start_ns)) = open else {
        return f();
    };
    let out = f();
    let end_ns = origin.elapsed().as_nanos() as u64;
    let tag = tag(&out);
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let popped = r.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans nest");
        let s = &mut r.spans[idx as usize];
        s.start_ns = start_ns;
        s.end_ns = end_ns;
        s.tag = tag;
    });
    out
}

/// Times `TradeEngine::perform`.
pub struct TimedEngine(pub Box<dyn TradeEngine>);

impl TradeEngine for TimedEngine {
    fn perform(&self, action: &TradeAction) -> EjbResult<TradeResult> {
        let index = action_index(action);
        span(Layer::Engine, || self.0.perform(action), |_| index)
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }
}

/// Times the state source.
pub struct TimedSource(pub Arc<dyn StateSource>);

impl StateSource for TimedSource {
    fn fetch(&self, bean: &str, key: &Value) -> EjbResult<Option<Memento>> {
        span(Layer::Source, || self.0.fetch(bean, key), |_| 0)
    }

    fn query(&self, bean: &str, predicate: &Predicate) -> EjbResult<Vec<Memento>> {
        span(Layer::Source, || self.0.query(bean, predicate), |_| 0)
    }
}

/// Times the committer and tags conflicting outcomes.
pub struct TimedCommitter(pub Arc<dyn Committer>);

impl Committer for TimedCommitter {
    fn commit(&self, request: &CommitRequest) -> EjbResult<CommitOutcome> {
        span(
            Layer::Commit,
            || self.0.commit(request),
            |out| u32::from(matches!(out, Ok(CommitOutcome::Conflict { .. }))),
        )
    }
}

/// Times every `SqlConnection` call and tags it with the rows returned.
/// Forwards every method, the defaulted ones too, so batching, the commit
/// witness and the WAL stamp behave as on the bare connection.
pub struct TimedSql(pub Box<dyn SqlConnection + Send>);

fn rows(out: &DbResult<ResultSet>) -> u32 {
    out.as_ref().map_or(0, |rs| rs.rows().len() as u32)
}

impl SqlConnection for TimedSql {
    fn begin(&mut self) -> DbResult<()> {
        span(Layer::Sql, || self.0.begin(), |_| 0)
    }

    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        span(Layer::Sql, || self.0.execute(sql, params), rows)
    }

    fn commit(&mut self) -> DbResult<()> {
        span(Layer::Sql, || self.0.commit(), |_| 0)
    }

    fn rollback(&mut self) -> DbResult<()> {
        span(Layer::Sql, || self.0.rollback(), |_| 0)
    }

    fn in_transaction(&self) -> bool {
        self.0.in_transaction()
    }

    fn commit_seq(&self) -> Option<u64> {
        self.0.commit_seq()
    }

    fn stamp_next_commit(&mut self, origin: u32, txn_id: u64) {
        self.0.stamp_next_commit(origin, txn_id);
    }

    fn execute_batch(&mut self, statements: &[BatchStatement]) -> DbResult<BatchOutcome> {
        span(
            Layer::Sql,
            || self.0.execute_batch(statements),
            |out: &DbResult<BatchOutcome>| {
                out.as_ref().map_or(0, |b| {
                    b.results.iter().map(|rs| rs.rows().len() as u32).sum()
                })
            },
        )
    }
}

/// Times a simnet service: the invalidation sink behind the generic
/// `Remote` the back-end notifies edges through.
pub struct TimedService<S>(pub S);

impl<S: Service> Service for TimedService<S> {
    fn handle(&self, request: Bytes) -> Bytes {
        span(Layer::Sink, || self.0.handle(request), |_| 0)
    }
}
