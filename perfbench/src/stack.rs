//! A workload's stack assembled from the public constructors
//! `Testbed::build` uses, in the same order, with a timing decorator at
//! each layer boundary, plus the client that drives it.
//!
//! The assembly must stay a faithful copy of `Testbed::build` for the
//! architectures the workloads run: the traced run asserts that it
//! reproduces the plain testbed's per-interaction virtual latencies
//! exactly, so any drift fails the benchmark instead of skewing it.

use std::sync::Arc;

use sli_arch::{AppServer, Architecture, Flavor, TestbedConfig};
use sli_component::share_connection;
use sli_core::{
    BackendServer, BackendSource, CombinedCommitter, Committer, CommonStore,
    DeferredInvalidationSink, DirectSource, SplitCommitter, StateSource,
};
use sli_datastore::server::{DbCostModel, DbServer, RemoteConnection};
use sli_datastore::Database;
use sli_simnet::{Clock, HttpRequest, HttpResponse, Path, PathSpec, Remote, SimDuration};
use sli_telemetry::{Registry, SpanOutcome, TraceLog, Tracer};
use sli_trade::model::trade_registry;
use sli_trade::seed::create_and_seed;
use sli_trade::{deploy, EjbTradeEngine, JdbcTradeEngine, TradeAction, TradeEngine};

use crate::timed::{span, Layer, TimedCommitter, TimedEngine, TimedService, TimedSource, TimedSql};

/// One edge of the decorated stack.
pub struct StackEdge {
    /// The application server.
    pub server: Arc<AppServer>,
    /// Client ↔ server path.
    pub client_path: Arc<Path>,
    /// Server ↔ shared-site path (the delayed one).
    pub shared_path: Arc<Path>,
    /// The cached flavour's common store.
    pub store: Option<Arc<CommonStore>>,
    /// ES/RBES invalidation queue.
    pub invalidations: Option<Arc<DeferredInvalidationSink>>,
    /// ES/RBES back-end → edge invalidation path.
    pub invalidation_path: Option<Arc<Path>>,
}

/// The decorated stack.
pub struct Stack {
    /// The shared virtual clock.
    pub clock: Arc<Clock>,
    /// The database.
    pub db: Arc<Database>,
    /// Every machine's metrics, under the testbed's names.
    pub registry: Arc<Registry>,
    /// The in-program span log.
    pub trace: Arc<TraceLog>,
    /// The in-program tracer.
    pub tracer: Arc<Tracer>,
    /// The edges.
    pub edges: Vec<StackEdge>,
}

fn timed(mut conn: RemoteConnection, batching: bool) -> TimedSql {
    conn.set_batching(batching);
    TimedSql(Box::new(conn))
}

impl Stack {
    /// Builds and seeds the stack for `arch`, mirroring `Testbed::build`.
    ///
    /// # Panics
    /// On the vanilla-EJB and Clients/RAS combinations, which no workload
    /// runs, and if seeding a fresh database fails.
    pub fn build(arch: Architecture, config: TestbedConfig) -> Stack {
        assert!(
            matches!(
                arch,
                Architecture::EsRbes
                    | Architecture::EsRdb(Flavor::Jdbc)
                    | Architecture::EsRdb(Flavor::CachedEjb)
            ),
            "the decorated stack covers the benchmark's architectures only"
        );
        let clock = Arc::new(Clock::new());
        let db = Database::new();
        create_and_seed(&db, config.population).expect("fresh database seeds cleanly");
        db.attach_wal();
        let db_server = DbServer::new(Arc::clone(&db), Arc::clone(&clock), DbCostModel::default());
        let registry = Arc::new(Registry::new());
        let trace = Arc::new(TraceLog::with_capacity(1 << 18));
        let tracer = Arc::new(Tracer::new(Arc::clone(&trace)));
        db_server.metrics().register_with(&registry, "db.stmt");
        db.register_plan_metrics(&registry, "db.plan");
        db.register_wal_metrics(&registry, "db");
        db_server.set_tracer(Arc::clone(&tracer));

        let backend = if arch == Architecture::EsRbes {
            let path = Path::new("backend-db", Arc::clone(&clock), PathSpec::lan());
            path.metrics()
                .register_with(&registry, &format!("simnet.path.{}", path.name()));
            let conn = RemoteConnection::open(
                Remote::new(path, Arc::clone(&db_server)).with_tracer(Arc::clone(&tracer)),
            )
            .expect("backend connects to fresh db");
            let backend = BackendServer::new(
                Box::new(timed(conn, config.wire_batching)),
                trade_registry(),
                Arc::clone(&clock),
            );
            backend.set_tracer(Arc::clone(&tracer));
            backend.register_with(&registry, "backend.commit");
            Some(backend)
        } else {
            None
        };

        let open_db = |path: &Arc<Path>| {
            let conn = RemoteConnection::open(
                Remote::new(Arc::clone(path), Arc::clone(&db_server))
                    .with_tracer(Arc::clone(&tracer)),
            )
            .expect("edge connects to fresh db");
            timed(conn, config.wire_batching)
        };

        let mut edges = Vec::with_capacity(config.edges);
        for edge_id in 0..config.edges.max(1) {
            let id = edge_id as u32 + 1;
            let holding_base = 1_000_000 * id as i64;
            let shared_name = match arch {
                Architecture::EsRbes => "edge-backend",
                _ => "edge-db",
            };
            let client_path =
                Path::new(format!("client-{id}"), Arc::clone(&clock), PathSpec::lan());
            let shared_path = Path::new(
                format!("{shared_name}-{id}"),
                Arc::clone(&clock),
                PathSpec::lan(),
            );
            let mut invalidations = None;
            let mut invalidation_path = None;
            let (engine, store): (Box<dyn TradeEngine>, _) = match arch.flavor() {
                Flavor::Jdbc => (
                    Box::new(JdbcTradeEngine::new(
                        share_connection(open_db(&shared_path)),
                        holding_base,
                    )),
                    None,
                ),
                _ => {
                    let store = match config.cache_capacity {
                        Some(capacity) => CommonStore::with_capacity(capacity),
                        None => CommonStore::new(),
                    };
                    let (source, committer): (Arc<dyn StateSource>, Arc<dyn Committer>) =
                        match &backend {
                            Some(backend) => {
                                let remote =
                                    Remote::new(Arc::clone(&shared_path), Arc::clone(backend))
                                        .with_tracer(Arc::clone(&tracer));
                                let inv_path = Path::new(
                                    format!("backend-invalidate-{id}"),
                                    Arc::clone(&clock),
                                    PathSpec::lan(),
                                );
                                let sink = DeferredInvalidationSink::over_path(
                                    Arc::clone(&store),
                                    Arc::clone(&inv_path),
                                );
                                backend.register_edge(
                                    id,
                                    Remote::new(
                                        Arc::clone(&inv_path),
                                        TimedService(Arc::clone(&sink)),
                                    ),
                                );
                                sink.register_with(&registry, &format!("invalidations.edge-{id}"));
                                invalidations = Some(sink);
                                invalidation_path = Some(inv_path);
                                (
                                    Arc::new(BackendSource::new(remote.clone())),
                                    Arc::new(SplitCommitter::new(remote)),
                                )
                            }
                            None => {
                                let fetch_conn = open_db(&shared_path);
                                let commit_conn = open_db(&shared_path);
                                let combined = Arc::new(
                                    CombinedCommitter::new(Box::new(commit_conn), trade_registry())
                                        .with_tracer(Arc::clone(&tracer), Arc::clone(&clock)),
                                );
                                combined.register_with(&registry, &format!("committer.edge-{id}"));
                                (
                                    Arc::new(DirectSource::new(
                                        Box::new(fetch_conn),
                                        trade_registry(),
                                    )),
                                    combined,
                                )
                            }
                        };
                    let (container, rm) = deploy::cached_container_with_rm(
                        id,
                        Arc::clone(&store),
                        Arc::new(TimedSource(source)),
                        Arc::new(TimedCommitter(committer)),
                    );
                    rm.register_with(&registry, &format!("rm.edge-{id}"));
                    (
                        Box::new(EjbTradeEngine::new(container, "Cached EJBs", holding_base)),
                        Some(store),
                    )
                }
            };
            let server = Arc::new(
                AppServer::new(Box::new(TimedEngine(engine)), Arc::clone(&clock))
                    .with_tracer(Arc::clone(&tracer)),
            );
            server
                .metrics()
                .register_with(&registry, &format!("servlet.edge-{id}"));
            for path in [&client_path, &shared_path]
                .into_iter()
                .chain(invalidation_path.as_ref())
            {
                path.metrics()
                    .register_with(&registry, &format!("simnet.path.{}", path.name()));
            }
            if let Some(store) = &store {
                store.register_with(&registry, &format!("store.edge-{id}"));
            }
            edges.push(StackEdge {
                server,
                client_path,
                shared_path,
                store,
                invalidations,
                invalidation_path,
            });
        }
        Stack {
            clock,
            db,
            registry,
            trace,
            tracer,
            edges,
        }
    }

    /// Sets the proxy delay on every delayed path, as `Testbed::set_delay`
    /// does for the edge architectures.
    pub fn set_delay(&self, delay: SimDuration) {
        for edge in &self.edges {
            edge.shared_path.set_proxy_delay(delay);
            if let Some(inv) = &edge.invalidation_path {
                inv.set_proxy_delay(delay);
            }
        }
    }

    /// Enables seeded jitter on every delayed path, as
    /// `Testbed::set_jitter` does for the edge architectures.
    pub fn set_jitter(&self, max: SimDuration, seed: u64) {
        for (i, edge) in self.edges.iter().enumerate() {
            edge.shared_path
                .set_jitter(max, seed.wrapping_add(i as u64));
        }
    }

    /// Zeroes every metric and the span log between warm-up and
    /// measurement, re-deriving the level gauges that survive the reset
    /// (as `Testbed::reset_telemetry` does).
    pub fn reset_telemetry(&self) {
        self.registry.reset_all();
        for edge in &self.edges {
            if let Some(store) = &edge.store {
                store.refresh_size();
            }
            edge.server.refresh_session_gauge();
        }
        self.trace.clear();
    }
}

/// A client of one edge of a [`Stack`], performing the fault-free path of
/// `VirtualClient::perform` with the same spans and cookie handling.
pub struct StackClient {
    edge: usize,
    cookie: Option<String>,
}

impl StackClient {
    /// A client of edge `edge`.
    pub fn new(edge: usize) -> StackClient {
        StackClient { edge, cookie: None }
    }

    /// One HTTP round trip; returns the virtual latency (µs) and status.
    ///
    /// # Panics
    /// If a fault is dialled on the access link: the stack never dials one.
    pub fn perform(&mut self, stack: &Stack, action: &TradeAction) -> (u64, u16) {
        let node = &stack.edges[self.edge];
        let edge_tag = self.edge as u32 + 1;
        let mut req = HttpRequest::get("/trade/app", action.query_params());
        if let Some(cookie) = &self.cookie {
            req = req.with_cookie(cookie.clone());
        }
        let raw_request = req.encode();
        let clock = &stack.clock;
        let tracer = &stack.tracer;
        let start = clock.now();
        let root = tracer.begin("request");
        assert!(
            node.client_path.next_fault().is_none(),
            "the benchmark dials no faults"
        );
        let crossing = tracer.begin("net.client.request");
        let crossing_start = clock.now().as_micros();
        node.client_path.request(raw_request.len());
        tracer.finish(
            crossing,
            edge_tag,
            0,
            crossing_start,
            clock.now().as_micros(),
            SpanOutcome::Committed,
        );
        if let Some(sink) = &node.invalidations {
            sink.deliver_due();
        }
        let parsed = HttpRequest::parse(&raw_request).expect("client emits well-formed HTTP");
        let resp = span(Layer::Servlet, || node.server.handle(&parsed), |_| 0);
        let raw_response = resp.encode();
        let crossing = tracer.begin("net.client.respond");
        let crossing_start = clock.now().as_micros();
        node.client_path.respond(raw_response.len());
        tracer.finish(
            crossing,
            edge_tag,
            0,
            crossing_start,
            clock.now().as_micros(),
            SpanOutcome::Committed,
        );
        let resp = HttpResponse::parse(&raw_response).expect("server emits well-formed HTTP");
        let latency = clock
            .now()
            .checked_since(start)
            .expect("virtual time is monotone across a round trip");
        let outcome = match resp.status {
            200 => SpanOutcome::Committed,
            409 => SpanOutcome::Conflict,
            _ => SpanOutcome::Error,
        };
        tracer.finish(
            root,
            edge_tag,
            0,
            start.as_micros(),
            clock.now().as_micros(),
            outcome,
        );
        if let Some(cookie) = &resp.set_cookie {
            self.cookie = Some(cookie.clone());
        }
        if matches!(action, TradeAction::Logout { .. }) {
            self.cookie = None;
        }
        (latency.as_micros(), resp.status)
    }
}
