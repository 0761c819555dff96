//! Testbed assembly: the four simulated machines of §4.1 wired into any of
//! the three architectures.

use std::sync::Arc;

use sli_component::share_connection;
use sli_core::{
    BackendServer, BackendSource, CombinedCommitter, CommonStore, DeferredInvalidationSink,
    DirectSource, SliResourceManager, SplitCommitter,
};
use sli_datastore::server::{DbCostModel, DbServer, RemoteConnection};
use sli_datastore::{Database, RecoveryReport};
use sli_simnet::{Clock, CrashKind, FaultPlan, Path, PathSpec, Remote, SimDuration};
use sli_telemetry::{MonitorMetrics, Registry, Timeline, TraceLog, Tracer};
use sli_trade::deploy;
use sli_trade::model::trade_registry;
use sli_trade::seed::{create_and_seed, Population};
use sli_trade::{EjbTradeEngine, JdbcTradeEngine, TradeEngine};

use crate::servlet::AppServer;

/// What a flavor's wiring yields: the engine plus the cache handles that
/// only exist for the cached flavor.
type WiredEngine = (
    Box<dyn TradeEngine>,
    Option<Arc<CommonStore>>,
    Option<Arc<SliResourceManager>>,
);

/// Data-access flavor running on the application server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// Hand-optimized SQL (Trade2's pure-JDBC mode).
    Jdbc,
    /// Non-cached BMP entity beans (Trade2's EJB-ALT mode).
    VanillaEjb,
    /// Cache-enabled SLI entity beans.
    CachedEjb,
}

impl Flavor {
    /// Report label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            Flavor::Jdbc => "JDBC",
            Flavor::VanillaEjb => "Vanilla EJBs",
            Flavor::CachedEjb => "Cached EJBs",
        }
    }
}

/// One of the paper's three high-latency architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Edge servers sharing a remote database (delay: edge ↔ database).
    EsRdb(Flavor),
    /// Cache-enhanced edge servers sharing a remote back-end server
    /// clustered with the database (delay: edge ↔ back-end). Implies
    /// [`Flavor::CachedEjb`].
    EsRbes,
    /// Clients reaching a remote application server directly (delay:
    /// client ↔ application server).
    ClientsRas(Flavor),
}

impl Architecture {
    /// Report label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Architecture::EsRdb(_) => "ES/RDB",
            Architecture::EsRbes => "ES/RBES",
            Architecture::ClientsRas(_) => "Clients/RAS",
        }
    }

    /// The data-access flavor deployed on the application server.
    pub fn flavor(self) -> Flavor {
        match self {
            Architecture::EsRdb(f) | Architecture::ClientsRas(f) => f,
            Architecture::EsRbes => Flavor::CachedEjb,
        }
    }
}

/// Testbed sizing and seeding options.
#[derive(Debug, Clone, Copy)]
pub struct TestbedConfig {
    /// Database population.
    pub population: Population,
    /// Number of edge/application servers (each gets its own client).
    pub edges: usize,
    /// Optional bound on each edge's common transient store (LRU eviction).
    /// `None` reproduces the paper's unbounded store.
    pub cache_capacity: Option<usize>,
    /// Whether remote database connections coalesce statement batches into
    /// one wire round trip (`OP_EXEC_BATCH`). `false` is the ablation knob:
    /// every statement pays its own round trip, as before PR 7.
    pub wire_batching: bool,
}

impl Default for TestbedConfig {
    fn default() -> TestbedConfig {
        TestbedConfig {
            population: Population::default(),
            edges: 1,
            cache_capacity: None,
            wire_batching: true,
        }
    }
}

/// Virtual per-resource speed knobs for what-if (causal-profile) runs, in
/// parts-per-million of nominal cost ([`sli_simnet::COST_SCALE_UNIT`] =
/// unscaled). A resource `f×` faster runs at `COST_SCALE_UNIT / f` ppm.
///
/// The three knobs map onto the profile's resource taxonomy: `wire` scales
/// every [`Path`] crossing, `db` scales the database server's CPU cost
/// model, `edge` scales servlet dispatch + JSP rendering. Store/lock wait
/// has no knob — it is contention, not a machine one can buy faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceScale {
    /// Scale on every network path's latency + transfer cost.
    pub wire_ppm: u64,
    /// Scale on the database server's per-request / per-row / per-lock-wait
    /// charges.
    pub db_ppm: u64,
    /// Scale on the application server's dispatch + render charges.
    pub edge_ppm: u64,
}

impl Default for ResourceScale {
    fn default() -> ResourceScale {
        ResourceScale {
            wire_ppm: sli_simnet::COST_SCALE_UNIT,
            db_ppm: sli_simnet::COST_SCALE_UNIT,
            edge_ppm: sli_simnet::COST_SCALE_UNIT,
        }
    }
}

impl ResourceScale {
    /// Nominal speed on every resource.
    pub fn nominal() -> ResourceScale {
        ResourceScale::default()
    }

    /// The ppm for a resource sped up by factor `f` (e.g. `f = 2.0` →
    /// half-cost). Panics on non-positive factors.
    pub fn ppm_for_speedup(f: f64) -> u64 {
        assert!(f > 0.0, "speedup factor must be positive");
        ((sli_simnet::COST_SCALE_UNIT as f64 / f).round() as u64).max(1)
    }
}

/// One application-server node plus its two communication paths.
pub struct EdgeNode {
    /// The HTTP application server the client talks to.
    pub server: Arc<AppServer>,
    /// Client ↔ server path (LAN for edge architectures, the delayed path
    /// for Clients/RAS).
    pub client_path: Arc<Path>,
    /// Server ↔ shared-site path (delayed for the edge architectures).
    pub shared_path: Arc<Path>,
    /// The cache-enabled node's common store (None for JDBC / vanilla).
    pub store: Option<Arc<CommonStore>>,
    /// The optimistic resource manager (None for JDBC / vanilla).
    pub rm: Option<Arc<SliResourceManager>>,
    /// In-flight peer-invalidation queue (ES/RBES only): messages crossing
    /// the back-end → edge channel that have not arrived yet.
    pub invalidations: Option<Arc<DeferredInvalidationSink>>,
    /// The back-end → edge invalidation path (ES/RBES only).
    pub invalidation_path: Option<Arc<Path>>,
    /// The combined commit pipeline (CachedEjb without a back-end only) —
    /// retained so its commit counters can be timeline-tracked.
    pub committer: Option<Arc<CombinedCommitter>>,
}

impl EdgeNode {
    /// Delivers every invalidation whose network crossing has completed.
    /// Called when a request reaches this server, i.e. whenever the edge
    /// would next touch its cache.
    pub fn deliver_due_invalidations(&self) {
        if let Some(sink) = &self.invalidations {
            sink.deliver_due();
        }
    }
}

impl std::fmt::Debug for EdgeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeNode")
            .field("engine", &self.server.engine_label())
            .finish_non_exhaustive()
    }
}

/// The assembled four-machine testbed for one architecture.
pub struct Testbed {
    /// The simulation clock shared by every machine and path.
    pub clock: Arc<Clock>,
    /// The persistent store (the DB2 machine).
    pub db: Arc<Database>,
    /// Application-server nodes (one per edge; exactly one for
    /// Clients/RAS).
    pub edges: Vec<EdgeNode>,
    arch: Architecture,
    /// Every machine's metrics, attached under stable hierarchical names.
    telemetry: Arc<Registry>,
    /// Span log every machine records into (requests, RPCs, statements,
    /// commits), shared through [`Testbed::tracer`].
    commit_trace: Arc<TraceLog>,
    /// The causal tracer all machines share: one trace per client request,
    /// spans nested through RPC, database and commit layers.
    tracer: Arc<Tracer>,
    /// The shared back-end server (ES/RBES only).
    backend: Option<Arc<BackendServer>>,
    /// The database server machine (owner of the `db.stmt.*` metrics and
    /// the backend-db CPU cost knob).
    db_server: Arc<DbServer>,
    /// Every communication path in the testbed (client, shared,
    /// invalidation, backend↔db) — the full set the wire what-if knob
    /// scales together.
    paths: Vec<Arc<Path>>,
    /// Shared handles for the online SLO monitor, registered under
    /// `monitor.*` so incidents/evaluations/budget land in the same
    /// registry and timeline as every machine metric.
    monitor: MonitorMetrics,
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("arch", &self.arch.label())
            .field("flavor", &self.arch.flavor().label())
            .field("edges", &self.edges.len())
            .finish_non_exhaustive()
    }
}

impl Testbed {
    /// Builds and seeds the testbed for `arch`.
    ///
    /// ```
    /// use sli_arch::{Architecture, Testbed, TestbedConfig, VirtualClient};
    /// use sli_simnet::SimDuration;
    /// use sli_trade::TradeAction;
    ///
    /// let testbed = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
    /// testbed.set_delay(SimDuration::from_millis(40));
    /// let mut client = VirtualClient::new(&testbed, 0);
    /// let outcome = client.perform(&TradeAction::Quote { symbol: "s:1".into() });
    /// assert_eq!(outcome.status, 200);
    /// ```
    ///
    /// # Panics
    /// Panics if seeding fails (schema conflicts cannot happen on a fresh
    /// database).
    pub fn build(arch: Architecture, config: TestbedConfig) -> Testbed {
        let clock = Arc::new(Clock::new());
        let db = Database::new();
        create_and_seed(&db, config.population).expect("fresh database seeds cleanly");
        // Durability on by default: the seeded state becomes the WAL's base
        // checkpoint, and every writing transaction group-commits redo/undo
        // records from here on, so a scripted backend crash can be recovered
        // to a prefix-consistent state.
        db.attach_wal();
        let db_server = DbServer::new(Arc::clone(&db), Arc::clone(&clock), DbCostModel::default());
        let telemetry = Arc::new(Registry::new());
        let commit_trace = Arc::new(TraceLog::new());
        let tracer = Arc::new(Tracer::new(Arc::clone(&commit_trace)));
        db_server.metrics().register_with(&telemetry, "db.stmt");
        db.register_plan_metrics(&telemetry, "db.plan");
        db.register_wal_metrics(&telemetry, "db");
        db_server.set_tracer(Arc::clone(&tracer));

        let mut edges = Vec::with_capacity(config.edges);
        let mut paths: Vec<Arc<Path>> = Vec::new();

        // The ES/RBES back-end is shared by all edges and clustered with
        // the database over a LAN path of its own.
        let backend = if arch == Architecture::EsRbes {
            let backend_db_path = Path::new("backend-db", Arc::clone(&clock), PathSpec::lan());
            backend_db_path.metrics().register_with(
                &telemetry,
                &format!("simnet.path.{}", backend_db_path.name()),
            );
            paths.push(Arc::clone(&backend_db_path));
            let mut conn = RemoteConnection::open(
                Remote::new(backend_db_path, Arc::clone(&db_server))
                    .with_tracer(Arc::clone(&tracer)),
            )
            .expect("backend connects to fresh db");
            conn.set_batching(config.wire_batching);
            let backend = BackendServer::new(Box::new(conn), trade_registry(), Arc::clone(&clock));
            backend.set_tracer(Arc::clone(&tracer));
            backend.register_with(&telemetry, "backend.commit");
            Some(backend)
        } else {
            None
        };

        for edge_id in 0..config.edges.max(1) {
            let id = edge_id as u32 + 1;
            let holding_base = 1_000_000 * id as i64;
            let (client_spec, shared_name) = match arch {
                Architecture::ClientsRas(_) => (PathSpec::lan(), "ras-db"),
                Architecture::EsRdb(_) => (PathSpec::lan(), "edge-db"),
                Architecture::EsRbes => (PathSpec::lan(), "edge-backend"),
            };
            let client_path = Path::new(format!("client-{id}"), Arc::clone(&clock), client_spec);
            let shared_path = Path::new(
                format!("{shared_name}-{id}"),
                Arc::clone(&clock),
                PathSpec::lan(),
            );

            let mut invalidations = None;
            let mut invalidation_path = None;
            let mut combined_committer = None;
            let (engine, store, rm): WiredEngine = match arch.flavor() {
                Flavor::Jdbc => {
                    let mut conn = RemoteConnection::open(
                        Remote::new(Arc::clone(&shared_path), Arc::clone(&db_server))
                            .with_tracer(Arc::clone(&tracer)),
                    )
                    .expect("edge connects to fresh db");
                    conn.set_batching(config.wire_batching);
                    (
                        Box::new(JdbcTradeEngine::new(share_connection(conn), holding_base)),
                        None,
                        None,
                    )
                }
                Flavor::VanillaEjb => {
                    let mut conn = RemoteConnection::open(
                        Remote::new(Arc::clone(&shared_path), Arc::clone(&db_server))
                            .with_tracer(Arc::clone(&tracer)),
                    )
                    .expect("edge connects to fresh db");
                    conn.set_batching(config.wire_batching);
                    let container = deploy::vanilla_container(share_connection(conn));
                    (
                        Box::new(EjbTradeEngine::new(container, "Vanilla EJBs", holding_base)),
                        None,
                        None,
                    )
                }
                Flavor::CachedEjb => {
                    let store = match config.cache_capacity {
                        Some(capacity) => CommonStore::with_capacity(capacity),
                        None => CommonStore::new(),
                    };
                    let (source, committer): (
                        Arc<dyn sli_core::StateSource>,
                        Arc<dyn sli_core::Committer>,
                    ) = match &backend {
                        // Split-servers: fault and commit through the
                        // back-end across the shared path.
                        Some(backend) => {
                            let remote = Remote::new(Arc::clone(&shared_path), Arc::clone(backend))
                                .with_tracer(Arc::clone(&tracer));
                            // Invalidations flow over a dedicated channel so
                            // they never block the request path — but they
                            // still take one (possibly delayed) crossing to
                            // arrive, leaving a real staleness window.
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
                                Remote::new(Arc::clone(&inv_path), Arc::clone(&sink)),
                            );
                            sink.register_with(&telemetry, &format!("invalidations.edge-{id}"));
                            invalidations = Some(sink);
                            invalidation_path = Some(inv_path);
                            (
                                Arc::new(BackendSource::new(remote.clone())),
                                Arc::new(SplitCommitter::new(remote)),
                            )
                        }
                        // Combined-servers: fault and commit straight
                        // against the (remote) database.
                        None => {
                            let mut fetch_conn = RemoteConnection::open(
                                Remote::new(Arc::clone(&shared_path), Arc::clone(&db_server))
                                    .with_tracer(Arc::clone(&tracer)),
                            )
                            .expect("edge connects to fresh db");
                            fetch_conn.set_batching(config.wire_batching);
                            let mut commit_conn = RemoteConnection::open(
                                Remote::new(Arc::clone(&shared_path), Arc::clone(&db_server))
                                    .with_tracer(Arc::clone(&tracer)),
                            )
                            .expect("edge connects to fresh db");
                            commit_conn.set_batching(config.wire_batching);
                            let combined = Arc::new(
                                CombinedCommitter::new(Box::new(commit_conn), trade_registry())
                                    .with_tracer(Arc::clone(&tracer), Arc::clone(&clock)),
                            );
                            combined.register_with(&telemetry, &format!("committer.edge-{id}"));
                            combined_committer = Some(Arc::clone(&combined));
                            (
                                Arc::new(DirectSource::new(Box::new(fetch_conn), trade_registry())),
                                combined,
                            )
                        }
                    };
                    let (container, rm) =
                        deploy::cached_container_with_rm(id, Arc::clone(&store), source, committer);
                    (
                        Box::new(EjbTradeEngine::new(container, "Cached EJBs", holding_base)),
                        Some(store),
                        Some(rm),
                    )
                }
            };

            let server = Arc::new(
                AppServer::new(engine, Arc::clone(&clock)).with_tracer(Arc::clone(&tracer)),
            );
            server
                .metrics()
                .register_with(&telemetry, &format!("servlet.edge-{id}"));
            for path in [&client_path, &shared_path]
                .into_iter()
                .chain(invalidation_path.as_ref())
            {
                path.metrics()
                    .register_with(&telemetry, &format!("simnet.path.{}", path.name()));
            }
            if let Some(store) = &store {
                store.register_with(&telemetry, &format!("store.edge-{id}"));
            }
            if let Some(rm) = &rm {
                rm.register_with(&telemetry, &format!("rm.edge-{id}"));
            }
            paths.push(Arc::clone(&client_path));
            paths.push(Arc::clone(&shared_path));
            paths.extend(invalidation_path.as_ref().map(Arc::clone));
            edges.push(EdgeNode {
                server,
                client_path,
                shared_path,
                store,
                rm,
                invalidations,
                invalidation_path,
                committer: combined_committer,
            });
        }

        let monitor = MonitorMetrics::new();
        monitor.register_with(&telemetry, "monitor");

        Testbed {
            clock,
            db,
            edges,
            arch,
            telemetry,
            commit_trace,
            tracer,
            backend,
            db_server,
            paths,
            monitor,
        }
    }

    /// The architecture this testbed implements.
    pub fn architecture(&self) -> Architecture {
        self.arch
    }

    /// The metric registry every machine registered into at build time.
    ///
    /// Names are hierarchical and stable: `db.stmt.*`, `backend.commit.*`,
    /// `committer.edge-{id}.*`, `store.edge-{id}.*`, `rm.edge-{id}.*`,
    /// `servlet.edge-{id}.*` and `simnet.path.{name}.*`.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// The shared span log: request roots, `servlet.*`, `rpc.*`/`net.*`,
    /// `db.*`, `commit.*` and `occ.conflict` events, all carrying trace /
    /// parent-span ids for tree reconstruction.
    ///
    /// The log keeps the default [`TraceLog`] capacity, one drain window:
    /// a consumer that needs every span drains it at least once per
    /// session round and checks [`TraceLog::evicted`] across its measured
    /// phase. Undrained spans, such as a warm-up's, are evicted oldest
    /// first.
    pub fn commit_trace(&self) -> &Arc<TraceLog> {
        &self.commit_trace
    }

    /// The causal tracer every machine of this testbed records through.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The shared ES/RBES back-end server, if this architecture has one.
    pub fn backend(&self) -> Option<&Arc<BackendServer>> {
        self.backend.as_ref()
    }

    /// The database server machine.
    pub fn db_server(&self) -> &Arc<DbServer> {
        &self.db_server
    }

    /// Every communication path in the testbed.
    pub fn paths(&self) -> &[Arc<Path>] {
        &self.paths
    }

    /// The shared `monitor.*` metric handles (incidents, evaluations,
    /// remaining error budget). An [`SloMonitor`]
    /// (sli_telemetry::SloMonitor) shares these via
    /// [`SloMonitor::share_metrics`](sli_telemetry::SloMonitor::share_metrics)
    /// so its counts land in this testbed's registry and timeline.
    pub fn monitor_metrics(&self) -> &MonitorMetrics {
        &self.monitor
    }

    /// The virtual timestamp (µs) at which the first fault was actually
    /// injected on any path, if one was. This is the ground truth a
    /// time-to-detect measurement compares detection timestamps against:
    /// dialling a [`FaultPlan`](sli_simnet::FaultPlan) has no observable
    /// effect until the next delivery attempt draws a fault.
    pub fn fault_first_effect_us(&self) -> Option<u64> {
        self.paths
            .iter()
            .filter_map(|p| p.first_fault_at_us())
            .min()
    }

    /// Applies virtual per-resource speed knobs: every path, the database
    /// server and every application server take their scale from `scale`.
    /// [`ResourceScale::nominal`] restores measured-cost behaviour.
    pub fn apply_scale(&self, scale: ResourceScale) {
        for path in &self.paths {
            path.set_cost_scale_ppm(scale.wire_ppm);
        }
        self.db_server.set_cost_scale_ppm(scale.db_ppm);
        for edge in &self.edges {
            edge.server.set_cost_scale_ppm(scale.edge_ppm);
        }
    }

    /// Zeroes every registered metric and clears the commit span log
    /// (between warm-up and measurement).
    pub fn reset_telemetry(&self) {
        self.telemetry.reset_all();
        // The blanket reset zeroes the working-set gauges while the cached
        // images survive into the measured phase; re-derive them so level
        // series start from the truth. Live HTTP sessions survive the same
        // way, so their gauge is re-derived too.
        for edge in &self.edges {
            if let Some(store) = &edge.store {
                store.refresh_size();
            }
            edge.server.refresh_session_gauge();
        }
        self.commit_trace.clear();
    }

    /// Builds the standard observability timeline for this testbed: every
    /// edge's servlet status series, cache rates and working-set size,
    /// commit/conflict rates (edge committers *and* the shared back-end),
    /// invalidation-queue depth, every communication path's traffic and
    /// RPC-outcome rates, and the `monitor.*` SLO series — all under the
    /// same dotted names the [`Testbed::telemetry`] registry uses, so
    /// per-window rate totals can be checked against run-end counter reads.
    ///
    /// Coverage is *total* by construction: everything any machine
    /// registers at build time is tracked here, except histograms (which
    /// have no windowed form) and the `engine.*` metrics a [`LoadEngine`]
    /// (crate::LoadEngine) registers later and tracks itself. The
    /// `registry_is_fully_timeline_tracked` test pins that invariant —
    /// three previous PRs silently grew the registry past the timeline.
    ///
    /// The caller drives it: [`Timeline::rebase`] at the warm-up/measure
    /// boundary (after [`Testbed::reset_telemetry`]), then
    /// [`Timeline::sample`] with `clock.now().as_micros()` after each
    /// interaction.
    pub fn standard_timeline(&self, window_us: u64) -> Timeline {
        let timeline = Timeline::new(window_us);
        // The shared database machine: statement/batch throughput and the
        // plan-cache hit/miss/eviction rates, under the same `db.stmt.*` /
        // `db.plan.*` names the registry uses.
        self.db_server.metrics().timeline_into(&timeline, "db.stmt");
        self.db.plan_timeline_into(&timeline, "db.plan");
        self.db.wal_timeline_into(&timeline, "db");
        // The shared ES/RBES back-end's commit outcomes.
        if let Some(backend) = &self.backend {
            backend.timeline_into(&timeline, "backend.commit");
        }
        // The SLO monitor's own series: incident/evaluation rates and the
        // remaining error budget as a level.
        self.monitor.timeline_into(&timeline, "monitor");
        for (i, edge) in self.edges.iter().enumerate() {
            let id = i + 1;
            edge.server
                .metrics()
                .timeline_into(&timeline, &format!("servlet.edge-{id}"));
            if let Some(store) = &edge.store {
                store.timeline_into(&timeline, &format!("store.edge-{id}"));
            }
            if let Some(rm) = &edge.rm {
                rm.timeline_into(&timeline, &format!("rm.edge-{id}"));
            }
            if let Some(sink) = &edge.invalidations {
                sink.timeline_into(&timeline, &format!("invalidations.edge-{id}"));
            }
            if let Some(committer) = &edge.committer {
                committer.timeline_into(&timeline, &format!("committer.edge-{id}"));
            }
        }
        // Every communication path, exactly once: client and shared paths
        // (distinct objects even for Clients/RAS), invalidation channels
        // and the back-end ↔ database LAN.
        for path in &self.paths {
            path.metrics()
                .timeline_into(&timeline, &format!("simnet.path.{}", path.name()));
        }
        timeline
    }

    /// The path the delay proxy intercepts for this architecture (per
    /// edge): the client path for Clients/RAS, the shared path otherwise.
    pub fn delayed_path(&self, edge: usize) -> &Arc<Path> {
        match self.arch {
            Architecture::ClientsRas(_) => &self.edges[edge].client_path,
            _ => &self.edges[edge].shared_path,
        }
    }

    /// Sets the one-way delay injected by the proxy on every delayed path
    /// (including the back-end → edge invalidation channels, which cross
    /// the same wide-area link in ES/RBES).
    pub fn set_delay(&self, delay: SimDuration) {
        for i in 0..self.edges.len() {
            self.delayed_path(i).set_proxy_delay(delay);
            if let Some(inv) = &self.edges[i].invalidation_path {
                inv.set_proxy_delay(delay);
            }
        }
    }

    /// Enables deterministic per-message jitter on every delayed path —
    /// the paper's testbed noise (its fits report R² ≈ 0.99, not 1.0).
    /// Each edge's path gets a distinct derived seed.
    pub fn set_jitter(&self, max: SimDuration, seed: u64) {
        for i in 0..self.edges.len() {
            self.delayed_path(i)
                .set_jitter(max, seed.wrapping_add(i as u64));
        }
    }

    /// Dials a deterministic fault plan into every delayed path, turning
    /// the wide-area link lossy for resilience experiments. Each edge's
    /// path draws from a distinct derived seed (mirroring [`set_jitter`]
    /// — see [`Testbed::set_jitter`]), so schedules differ across edges
    /// but replay identically run to run.
    pub fn set_faults(&self, plan: FaultPlan) {
        for i in 0..self.edges.len() {
            let derived = FaultPlan {
                seed: plan.seed.wrapping_add(i as u64),
                ..plan
            };
            self.delayed_path(i).set_fault_plan(derived);
        }
    }

    /// The paths that lead to the machine `kind` names: every in-flight or
    /// future RPC on them fails as an outage while that machine is down.
    fn paths_to(&self, kind: CrashKind) -> Vec<&Arc<Path>> {
        match kind {
            // The shared site (database machine, or the ES/RBES back-end
            // clustered with it) sits behind every edge's shared path; the
            // back-end ↔ database LAN and the invalidation channels
            // originate on the same machine.
            CrashKind::Backend => self
                .paths
                .iter()
                .filter(|p| !p.name().starts_with("client-"))
                .collect(),
            CrashKind::Edge => self.edges.iter().map(|e| &e.client_path).collect(),
        }
    }

    /// Kills the machine `kind` names at the current virtual time, exactly
    /// as a process death would: volatile state is gone and every RPC
    /// toward it fails as [`sli_simnet::Fault::Unavailable`] until
    /// [`Testbed::restart`].
    ///
    /// * `Backend` — the database machine (and, in ES/RBES, the back-end
    ///   server clustered with it) dies. The engine's tables, lock table
    ///   and unflushed WAL tail vanish; the back-end's `(origin, txn_id)`
    ///   dedup memory vanishes with it. Only the flushed WAL prefix
    ///   survives.
    /// * `Edge` — the edge tier dies: every edge's common store restarts
    ///   cold, so post-restart requests re-fault state from the shared
    ///   site instead of serving possibly-stale cached images.
    pub fn crash(&self, kind: CrashKind) {
        if kind == CrashKind::Backend {
            self.db.crash();
            if let Some(backend) = &self.backend {
                // The dedup table is volatile memory on the crashed
                // machine; recovery reseeds it from the WAL's committed
                // stamps.
                backend.reseed_completed(&[]);
            }
        } else {
            for edge in &self.edges {
                if let Some(store) = &edge.store {
                    store.clear();
                }
            }
        }
        for path in self.paths_to(kind) {
            path.set_down(true);
        }
    }

    /// Restarts the machine killed by [`Testbed::crash`]. A backend
    /// restart replays the WAL (analysis / redo / undo) and reseeds every
    /// commit-side dedup table from the recovered `(origin, txn_id)`
    /// stamps, returning the [`RecoveryReport`]; an edge restart simply
    /// comes back cold (`None`). Paths toward the machine come back up
    /// either way, so retrying sessions get through again.
    ///
    /// # Panics
    /// Panics if a backend recovery fails — the WAL is in-simulation
    /// durable storage, so a decode failure is a harness bug.
    pub fn restart(&self, kind: CrashKind) -> Option<RecoveryReport> {
        let report = if kind == CrashKind::Backend {
            let report = self.db.recover().expect("flushed WAL replays cleanly");
            if let Some(backend) = &self.backend {
                backend.reseed_completed(&report.committed);
            }
            for edge in &self.edges {
                if let Some(committer) = &edge.committer {
                    committer.reseed_completed(&report.committed);
                }
            }
            Some(report)
        } else {
            None
        };
        for path in self.paths_to(kind) {
            path.set_down(false);
        }
        report
    }

    /// Zeroes traffic counters on every path (between warm-up and
    /// measurement).
    pub fn reset_path_stats(&self) {
        for edge in &self.edges {
            edge.client_path.reset_stats();
            edge.shared_path.reset_stats();
        }
    }

    /// Bytes transmitted to the shared site (back-end server or database —
    /// or the remote application server for Clients/RAS), summed over both
    /// directions. This is the Figure 8 metric.
    pub fn shared_site_bytes(&self) -> u64 {
        (0..self.edges.len())
            .map(|i| self.delayed_path(i).stats().total_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::VirtualClient;
    use sli_trade::TradeAction;

    fn all_architectures() -> Vec<Architecture> {
        vec![
            Architecture::EsRdb(Flavor::Jdbc),
            Architecture::EsRdb(Flavor::VanillaEjb),
            Architecture::EsRdb(Flavor::CachedEjb),
            Architecture::EsRbes,
            Architecture::ClientsRas(Flavor::Jdbc),
            Architecture::ClientsRas(Flavor::VanillaEjb),
            Architecture::ClientsRas(Flavor::CachedEjb),
        ]
    }

    #[test]
    fn every_architecture_builds_and_serves_a_quote() {
        for arch in all_architectures() {
            let tb = Testbed::build(arch, TestbedConfig::default());
            let mut client = VirtualClient::new(&tb, 0);
            let outcome = client.perform(&TradeAction::Quote {
                symbol: "s:1".into(),
            });
            assert_eq!(outcome.status, 200, "{arch:?}");
            assert!(outcome.latency.as_micros() > 0, "{arch:?}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Architecture::EsRbes.label(), "ES/RBES");
        assert_eq!(Architecture::EsRbes.flavor(), Flavor::CachedEjb);
        assert_eq!(
            Architecture::EsRdb(Flavor::VanillaEjb).flavor().label(),
            "Vanilla EJBs"
        );
    }

    #[test]
    fn delay_applies_to_the_architectures_own_path() {
        // Clients/RAS delays the client path.
        let tb = Testbed::build(
            Architecture::ClientsRas(Flavor::Jdbc),
            TestbedConfig::default(),
        );
        tb.set_delay(SimDuration::from_millis(25));
        assert_eq!(
            tb.edges[0].client_path.proxy_delay(),
            SimDuration::from_millis(25)
        );
        assert_eq!(tb.edges[0].shared_path.proxy_delay(), SimDuration::ZERO);
        // ES/RDB delays the shared path.
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        tb.set_delay(SimDuration::from_millis(25));
        assert_eq!(tb.edges[0].client_path.proxy_delay(), SimDuration::ZERO);
        assert_eq!(
            tb.edges[0].shared_path.proxy_delay(),
            SimDuration::from_millis(25)
        );
    }

    #[test]
    fn fault_plans_land_on_the_delayed_path_with_derived_seeds() {
        let tb = Testbed::build(
            Architecture::EsRbes,
            TestbedConfig {
                edges: 2,
                ..TestbedConfig::default()
            },
        );
        tb.set_faults(FaultPlan::lossy(7, 100));
        assert_eq!(tb.delayed_path(0).fault_plan().seed, 7);
        assert_eq!(tb.delayed_path(1).fault_plan().seed, 8);
        // The client-side LAN path stays clean.
        assert_eq!(tb.edges[0].client_path.fault_plan(), FaultPlan::NONE);
    }

    #[test]
    fn telemetry_registry_sees_every_machine() {
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let names = tb.telemetry().names();
        for expected in [
            "db.stmt.statements",
            "db.plan.hits",
            "db.plan.misses",
            "backend.commit.committed",
            "backend.commit.dedup_replays",
            "store.edge-1.hits",
            "rm.edge-1.commits",
            "servlet.edge-1.status.200",
            "servlet.edge-1.action.buy_us",
            "simnet.path.client-1.requests",
            "simnet.path.edge-backend-1.rpc_retries",
            "simnet.path.backend-invalidate-1.requests",
            "simnet.path.backend-db.requests",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing metric {expected}; have {names:?}"
            );
        }
        assert!(tb.backend().is_some());

        let mut client = VirtualClient::new(&tb, 0);
        let o = client.perform(&TradeAction::Buy {
            user: "uid:0".into(),
            symbol: "s:1".into(),
            quantity: 5.0,
        });
        assert_eq!(o.status, 200);
        assert!(
            tb.commit_trace().count(Some("commit.validate_apply"), None) > 0,
            "a buy drives the commit protocol"
        );
        tb.reset_telemetry();
        assert!(tb.commit_trace().is_empty());
        assert_eq!(tb.edges[0].server.metrics().status(200), 0);
    }

    #[test]
    fn span_log_holds_one_drain_window_and_loses_no_measured_span() {
        use sli_telemetry::{validate_profile, Profile};
        use sli_trade::session::SessionGenerator;
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let mut generator = SessionGenerator::new(0x5eed_0013, Population::default());
        let mut client = VirtualClient::new(&tb, 0);
        // An undrained warm-up overflows the log: it stays at capacity and
        // counts what it dropped.
        for _ in 0..200 {
            client.run_session(&generator.session());
        }
        let log = tb.commit_trace();
        assert_eq!(log.len(), log.capacity());
        assert!(log.evicted() > 0, "200 undrained sessions overflow the log");

        tb.reset_telemetry();
        assert!(log.is_empty());
        let evicted_at_boundary = log.evicted();
        let mut profile = Profile::default();
        let mut measured_us = 0;
        for _ in 0..30 {
            for outcome in client.run_session(&generator.session()) {
                assert_eq!(outcome.status, 200);
                measured_us += outcome.latency.as_micros();
            }
            profile.fold(&log.drain());
        }
        assert_eq!(
            log.evicted(),
            evicted_at_boundary,
            "a per-session drain keeps every measured span"
        );
        assert_eq!(profile.total_us, measured_us);
        validate_profile(&profile.to_json("es-rbes measured")).expect("profile conserves");
    }

    #[test]
    fn combined_committer_traces_too() {
        let tb = Testbed::build(
            Architecture::EsRdb(Flavor::CachedEjb),
            TestbedConfig::default(),
        );
        assert!(tb.backend().is_none());
        assert!(tb
            .telemetry()
            .names()
            .iter()
            .any(|n| n == "committer.edge-1.committed"));
        let mut client = VirtualClient::new(&tb, 0);
        let o = client.perform(&TradeAction::Buy {
            user: "uid:0".into(),
            symbol: "s:1".into(),
            quantity: 5.0,
        });
        assert_eq!(o.status, 200);
        assert!(!tb.commit_trace().is_empty());
    }

    #[test]
    fn trace_bucket_sums_equal_measured_latency_everywhere() {
        use sli_telemetry::{critical_path, Bucket};
        for arch in all_architectures() {
            let tb = Testbed::build(arch, TestbedConfig::default());
            tb.set_delay(SimDuration::from_millis(10));
            // Drop build-time connection-handshake traces; measure fresh.
            tb.reset_telemetry();
            let mut client = VirtualClient::new(&tb, 0);
            let mut measured_us = 0u64;
            let actions = [
                TradeAction::Home {
                    user: "uid:0".into(),
                },
                TradeAction::Quote {
                    symbol: "s:1".into(),
                },
                TradeAction::Buy {
                    user: "uid:0".into(),
                    symbol: "s:1".into(),
                    quantity: 2.0,
                },
            ];
            for action in &actions {
                let o = client.perform(action);
                assert_eq!(o.status, 200, "{arch:?}");
                measured_us += o.latency.as_micros();
            }
            let breakdown = critical_path(&tb.commit_trace().events());
            assert_eq!(breakdown.traces, actions.len() as u64, "{arch:?}");
            assert_eq!(
                breakdown.total_us, measured_us,
                "{arch:?}: root spans must cover the measured latency"
            );
            assert_eq!(
                breakdown.sum_us(),
                breakdown.total_us,
                "{arch:?}: buckets must decompose the total exactly"
            );
            assert!(
                breakdown.bucket_us(Bucket::Network) > 0,
                "{arch:?}: a 10ms proxy delay must surface as network time"
            );
            assert!(
                breakdown.bucket_us(Bucket::Statement) > 0,
                "{arch:?}: statements execute somewhere in every request"
            );
        }
    }

    #[test]
    fn occ_aborts_attribute_a_concrete_entity() {
        use sli_telemetry::conflict_leaderboard;
        // Two combined-servers edges with independent caches and no
        // invalidation channel: edge 2's image of uid:0 goes stale the
        // moment edge 1 commits a buy, so edge 2's next buy must abort
        // (and be transparently retried by its servlet).
        let tb = Testbed::build(
            Architecture::EsRdb(Flavor::CachedEjb),
            TestbedConfig {
                edges: 2,
                ..TestbedConfig::default()
            },
        );
        let mut c1 = VirtualClient::new(&tb, 0);
        let mut c2 = VirtualClient::new(&tb, 1);
        let home = |user: &str| TradeAction::Home { user: user.into() };
        let buy = |user: &str| TradeAction::Buy {
            user: user.into(),
            symbol: "s:1".into(),
            quantity: 1.0,
        };
        assert_eq!(c1.perform(&home("uid:0")).status, 200);
        assert_eq!(c2.perform(&home("uid:0")).status, 200);
        assert_eq!(c1.perform(&buy("uid:0")).status, 200);
        assert_eq!(c2.perform(&buy("uid:0")).status, 200);
        let events = tb.commit_trace().events();
        let board = conflict_leaderboard(&events);
        assert!(!board.is_empty(), "stale cache must produce an OCC abort");
        assert!(
            board.iter().any(|e| e.entity.starts_with("Account[")),
            "the contended account must appear on the leaderboard: {board:?}"
        );
    }

    #[test]
    fn standard_timeline_tracks_the_db_and_cache_observability_series() {
        // Audit: every counter/gauge the recent store/db work added must be
        // wired into the standard timeline, not just the registry.
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let timeline = tb.standard_timeline(1_000);
        let mut client = VirtualClient::new(&tb, 0);
        client.perform(&TradeAction::Quote {
            symbol: "s:1".into(),
        });
        timeline.sample(tb.clock.now().as_micros());
        let report = timeline.report("audit");
        let names: Vec<&str> = report.series.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "db.stmt.statements",
            "db.stmt.batches",
            "db.plan.hits",
            "db.plan.misses",
            "db.plan.evictions",
            "store.edge-1.lru_desync",
            "store.edge-1.resident_bytes",
            "backend.commit.committed",
            "backend.commit.conflicts",
            "monitor.incidents",
            "monitor.evaluations",
            "monitor.budget_remaining_ppm",
            "simnet.path.backend-db.requests",
            "simnet.path.backend-invalidate-1.rpc_unavailable",
        ] {
            assert!(
                names.contains(&expected),
                "standard timeline must track {expected}; have {names:?}"
            );
        }
    }

    #[test]
    fn combined_committer_series_are_timeline_tracked() {
        // The combined-servers configuration commits through an in-edge
        // CombinedCommitter rather than a back-end; its conflict counters
        // are the ones the incident artifact's hot-entity view corroborates,
        // so they must be visible as windowed series too.
        let tb = Testbed::build(
            Architecture::EsRdb(Flavor::CachedEjb),
            TestbedConfig::default(),
        );
        let timeline = tb.standard_timeline(1_000);
        let mut client = VirtualClient::new(&tb, 0);
        client.perform(&TradeAction::Buy {
            user: "uid:0".into(),
            symbol: "s:1".into(),
            quantity: 1.0,
        });
        timeline.sample(tb.clock.now().as_micros());
        let report = timeline.report("audit");
        let names: Vec<&str> = report.series.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "committer.edge-1.committed",
            "committer.edge-1.conflicts",
            "committer.edge-1.dedup_replays",
        ] {
            assert!(
                names.contains(&expected),
                "standard timeline must track {expected}; have {names:?}"
            );
        }
        let committed = report
            .series
            .iter()
            .find(|s| s.name == "committer.edge-1.committed")
            .unwrap();
        assert!(committed.total > 0, "the buy ran the commit pipeline");
    }

    #[test]
    fn registry_is_fully_timeline_tracked() {
        // Completeness gate: every metric any architecture registers must
        // be a windowed series in the standard timeline (plus the engine's
        // own series, which the load harness tracks itself), or be a
        // histogram — the one structural exemption, since histograms have
        // no windowed form. A metric added to a machine's `register_with`
        // without a matching `timeline_into` line fails here by name.
        use sli_telemetry::Metric;
        for arch in all_architectures() {
            let tb = Testbed::build(arch, TestbedConfig::default());
            let timeline = tb.standard_timeline(1_000);
            let engine = crate::LoadEngine::new(&tb);
            engine.metrics().timeline_into(&timeline, "engine");
            timeline.sample(tb.clock.now().as_micros());
            let report = timeline.report("audit");
            let tracked: Vec<&str> = report.series.iter().map(|s| s.name.as_str()).collect();
            for name in tb.telemetry().names() {
                if let Some(Metric::Histogram(_)) = tb.telemetry().get(&name) {
                    continue;
                }
                assert!(
                    tracked.contains(&name.as_str()),
                    "{arch:?}: registry metric {name} is not tracked by the \
                     standard timeline (and is not a histogram)"
                );
            }
        }
    }

    #[test]
    fn resource_scale_knobs_shrink_the_matching_costs() {
        let serve = |scale: ResourceScale| {
            let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
            tb.set_delay(SimDuration::from_millis(10));
            tb.apply_scale(scale);
            let t0 = tb.clock.now();
            let mut client = VirtualClient::new(&tb, 0);
            client.perform(&TradeAction::Quote {
                symbol: "s:1".into(),
            });
            tb.clock.now().checked_since(t0).unwrap().as_micros()
        };
        let nominal = serve(ResourceScale::nominal());
        let fast_wire = serve(ResourceScale {
            wire_ppm: ResourceScale::ppm_for_speedup(10.0),
            ..ResourceScale::nominal()
        });
        let fast_db = serve(ResourceScale {
            db_ppm: ResourceScale::ppm_for_speedup(10.0),
            ..ResourceScale::nominal()
        });
        let fast_edge = serve(ResourceScale {
            edge_ppm: ResourceScale::ppm_for_speedup(10.0),
            ..ResourceScale::nominal()
        });
        assert!(fast_wire < nominal, "wire {fast_wire} vs nominal {nominal}");
        assert!(fast_db < nominal, "db {fast_db} vs nominal {nominal}");
        assert!(fast_edge < nominal, "edge {fast_edge} vs nominal {nominal}");
        // With a 10 ms proxy delay the wire dominates this interaction, so
        // speeding it up must save the most — the ranking what-if runs key
        // off this separability.
        assert!(fast_wire < fast_db && fast_wire < fast_edge);
    }

    #[test]
    fn disabling_wire_batching_multiplies_round_trips() {
        let trips = |wire_batching: bool| {
            let tb = Testbed::build(
                Architecture::EsRdb(Flavor::Jdbc),
                TestbedConfig {
                    wire_batching,
                    ..TestbedConfig::default()
                },
            );
            let mut client = VirtualClient::new(&tb, 0);
            client.perform(&TradeAction::Buy {
                user: "uid:0".into(),
                symbol: "s:1".into(),
                quantity: 1.0,
            });
            tb.delayed_path(0).stats().requests
        };
        let batched = trips(true);
        let unbatched = trips(false);
        assert!(
            unbatched > batched,
            "per-statement round trips ({unbatched}) must exceed batched ({batched})"
        );
    }

    #[test]
    fn standard_timeline_totals_match_registry_counters() {
        use sli_telemetry::Metric;
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let timeline = tb.standard_timeline(1_000);
        // Warm up, then rebase at the measurement boundary exactly as the
        // bench harness does.
        let mut client = VirtualClient::new(&tb, 0);
        client.perform(&TradeAction::Home {
            user: "uid:0".into(),
        });
        tb.reset_telemetry();
        timeline.rebase(tb.clock.now().as_micros());
        let actions = [
            TradeAction::Quote {
                symbol: "s:1".into(),
            },
            TradeAction::Buy {
                user: "uid:0".into(),
                symbol: "s:1".into(),
                quantity: 1.0,
            },
            TradeAction::Home {
                user: "uid:0".into(),
            },
        ];
        for action in &actions {
            assert_eq!(client.perform(action).status, 200);
            timeline.sample(tb.clock.now().as_micros());
        }
        let report = timeline.report("EsRbes check");
        assert!(report.windows() > 0);
        for series in &report.series {
            if series.kind != sli_telemetry::SeriesKind::Rate {
                continue;
            }
            let Some(Metric::Counter(c)) = tb.telemetry().get(&series.name) else {
                panic!("timeline series {} not in the registry", series.name);
            };
            assert_eq!(
                series.total,
                c.get(),
                "series {} must conserve the counter total",
                series.name
            );
            assert_eq!(series.values.iter().sum::<u64>(), series.total);
        }
        let requests = report
            .series
            .iter()
            .find(|s| s.name == "servlet.edge-1.requests")
            .expect("servlet throughput tracked");
        assert_eq!(requests.total, actions.len() as u64);
        // The warm-up request must not leak into the measured series, and
        // the working-set level must start from the surviving cache size
        // (reset_telemetry refreshes the gauge after the blanket reset).
        let size = report
            .series
            .iter()
            .find(|s| s.name == "store.edge-1.size")
            .expect("working-set size tracked");
        assert!(
            size.values[0] > 0,
            "cache warmed before rebase must show a non-zero starting level"
        );
    }

    #[test]
    fn multi_edge_rbes_shares_one_backend_and_invalidates() {
        let tb = Testbed::build(
            Architecture::EsRbes,
            TestbedConfig {
                edges: 2,
                ..TestbedConfig::default()
            },
        );
        let mut c1 = VirtualClient::new(&tb, 0);
        let mut c2 = VirtualClient::new(&tb, 1);
        // Edge 2 caches uid:0's account via a home-page read.
        let o = c2.perform(&TradeAction::Home {
            user: "uid:0".into(),
        });
        assert_eq!(o.status, 200);
        let cached_before = tb.edges[1].store.as_ref().unwrap().len();
        assert!(cached_before > 0);
        // Edge 1 buys for uid:0 → account update → an invalidation message
        // is now in flight toward edge 2.
        let o = c1.perform(&TradeAction::Buy {
            user: "uid:0".into(),
            symbol: "s:1".into(),
            quantity: 10.0,
        });
        assert_eq!(o.status, 200);
        let sink = tb.edges[1].invalidations.as_ref().unwrap();
        assert!(sink.in_flight() > 0, "invalidation should be in flight");
        // Edge 2's next request picks the message off the wire first, so it
        // re-faults fresh state instead of serving the stale image.
        let o = c2.perform(&TradeAction::Home {
            user: "uid:0".into(),
        });
        assert_eq!(o.status, 200);
        assert!(tb.edges[1].store.as_ref().unwrap().stats().invalidations > 0);
        assert_eq!(sink.in_flight(), 0);
    }
}
