//! Episodes: one set-up plus one measured phase of a workload, on the
//! plain testbed (untraced) or on the decorated stack (traced).
//!
//! A run repeats identical episodes of one seed until its time is up.
//! Virtual results must repeat exactly from episode to episode; host
//! times are reported as medians over the episodes.

use std::hint::black_box;
use std::time::Instant;

use sli_arch::{LoadEngine, Testbed, VirtualClient};
use sli_telemetry::{critical_path, validate_profile, Profile, SpanEvent, TraceLog};
use sli_trade::model::trade_registry;
use sli_trade::TradeAction;

use crate::stack::{Stack, StackClient};
use crate::stats::{quantile, Rung};
use crate::timed::{self, Layer, Span};
use crate::workload::Workload;

/// Session scripts, indexed `[client][session][action]`.
pub type Scripts = Vec<Vec<Vec<TradeAction>>>;

/// The inputs of one closed-loop episode, generated from the seed before
/// any timing starts.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Warm-up sessions per client.
    pub warmup: Scripts,
    /// Measured sessions per client.
    pub measured: Scripts,
}

impl Inputs {
    /// The closed-loop inputs of `w`: one warm-up and one measured stream
    /// per client.
    pub fn closed(w: &Workload, seed: u64) -> Inputs {
        let stream = |client, warmup, n| {
            let mut g = w.generator(seed, client, warmup);
            (0..n).map(|_| g.session()).collect::<Vec<_>>()
        };
        Inputs {
            warmup: (0..w.clients())
                .map(|c| stream(c, true, w.warmup_sessions))
                .collect(),
            measured: (0..w.clients())
                .map(|c| stream(c, false, w.measured_sessions))
                .collect(),
        }
    }

    /// The open loop's reference-rung scripts replayed closed-loop by one
    /// client (the traced run of the open-loop workload).
    pub fn replay(w: &Workload, seed: u64) -> Inputs {
        let open = w.open.as_ref().expect("an open-loop workload");
        let plan = w.load_plan(seed, open.reference_rps, w.measured_sessions);
        let mut g = w.generator(seed, 0, true);
        Inputs {
            warmup: vec![(0..w.warmup_sessions).map(|_| g.session()).collect()],
            measured: vec![Workload::plan_scripts(&plan)],
        }
    }

    /// Measured interactions in dispatch order: session by session, one
    /// action of each client at a time.
    pub fn interleaved(scripts: &Scripts) -> Vec<(usize, &TradeAction)> {
        let mut out = Vec::new();
        for s in 0..scripts[0].len() {
            let len = scripts[0][s].len();
            assert!(
                scripts.iter().all(|c| c[s].len() == len),
                "interleaved clients run scripts of equal length"
            );
            for step in 0..len {
                for (c, client) in scripts.iter().enumerate() {
                    out.push((c, &client[s][step]));
                }
            }
        }
        out
    }
}

/// The in-program span harvest: drain, critical path and profile fold,
/// timed on the host.
#[derive(Debug, Default)]
pub struct Harvest {
    /// Profile folded from every harvested trace.
    pub profile: Profile,
    /// Spans harvested.
    pub spans: u64,
    /// Host ns spent harvesting.
    pub host_ns: u64,
}

impl Harvest {
    /// Folds `events`.
    pub fn fold(&mut self, events: &[SpanEvent]) {
        // The decomposition the harness bins run per drain; only its cost
        // is of interest here.
        black_box(critical_path(events));
        self.profile.fold(events);
        self.spans += events.len() as u64;
    }

    /// Drains `log` into the harvest, timing the drain and the fold.
    pub fn drain(&mut self, log: &TraceLog) {
        let t = Instant::now();
        let events = log.events();
        log.clear();
        self.fold(&events);
        self.host_ns += t.elapsed().as_nanos() as u64;
    }

    /// Checks the profile's conservation law against the measured
    /// virtual latencies: class self times sum to the profile total, which
    /// equals the summed client-observed latency.
    pub fn check_conservation(&self, label: &str, measured_us: u64) -> Result<(), String> {
        validate_profile(&self.profile.to_json(label))?;
        if self.profile.total_us != measured_us {
            return Err(format!(
                "profile total {} us != measured latency {} us",
                self.profile.total_us, measured_us
            ));
        }
        Ok(())
    }
}

/// What one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host ns of the set-up: build, seed and warm-up.
    pub setup_ns: u64,
    /// Host ns of each warm-up interaction (part of `setup_ns`).
    pub warmup_ns: Vec<u64>,
    /// Host ns of each measured interaction: the client call in a closed
    /// loop, the gap between observer callbacks in the open loop.
    pub interaction_ns: Vec<u64>,
    /// The virtual results.
    pub virt: Virtual,
    /// The harvest.
    pub harvest: Harvest,
    /// Output-check failures.
    pub failures: Vec<String>,
    /// The process's peak resident memory when the episode ended, MiB.
    pub peak_rss_mib: f64,
}

impl Episode {
    /// Measured interactions per host second.
    pub fn rate(&self) -> f64 {
        let ns: u64 = self.interaction_ns.iter().sum();
        self.interaction_ns.len() as f64 / (ns as f64 / 1e9)
    }

    /// Set-up time outside the warm-up interactions: build, seed, resets.
    pub fn build_ns(&self) -> u64 {
        self.setup_ns - self.warmup_ns.iter().sum::<u64>()
    }
}

/// The virtual results of an episode: a pure function of the seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Virtual {
    /// Latency of every interaction the latency metrics cover, µs (queue
    /// wait included for the open loop).
    pub latencies_us: Vec<u64>,
    /// Every measured interaction, all rungs.
    pub interactions: u64,
    /// Interactions answered 200.
    pub ok: u64,
    /// Interactions answered otherwise.
    pub failed: u64,
    /// The served-system ladder (one rung for a closed loop).
    pub rungs: Vec<Rung>,
    /// Holdings rows when the episode ends.
    pub holdings_rows_end: u64,
    /// Virtual µs the measured phase spanned (closed loops).
    pub span_us: u64,
}

impl Virtual {
    fn record(&mut self, latency_us: u64, status: u16) {
        self.latencies_us.push(latency_us);
        self.interactions += 1;
        if status == 200 {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Latencies in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latencies_us
            .iter()
            .map(|&us| us as f64 / 1e3)
            .collect()
    }

    fn closed_rung(&mut self, sessions: usize) {
        let p95 = quantile(&self.latencies_ms(), 0.95).unwrap_or(0.0);
        let rps = sessions as f64 / (self.span_us as f64 / 1e6);
        self.rungs = vec![Rung {
            offered_rps: rps,
            p95_ms: p95,
            arrivals: sessions as u64,
            completions: sessions as u64,
        }];
    }
}

/// Checks the servlets' own request and status counters against the
/// benchmark's count: every attempted interaction is either a 200 or a
/// failure, and nothing is counted twice.
fn check_accounting(reg: &sli_telemetry::Registry, attempted: u64, ok: u64) -> Result<(), String> {
    let requests = sum_counters(reg, "servlet.", ".requests");
    let ok_seen = sum_counters(reg, "servlet.", ".status.200");
    if requests != attempted || ok_seen != ok {
        return Err(format!(
            "servlets counted {requests} requests / {ok_seen} ok, benchmark {attempted} / {ok}"
        ));
    }
    Ok(())
}

/// Sums every counter whose name starts with `prefix` and ends with
/// `suffix`.
pub fn sum_counters(reg: &sli_telemetry::Registry, prefix: &str, suffix: &str) -> u64 {
    reg.snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
        .map(|(_, v)| match v {
            sli_telemetry::MetricValue::Counter(c) | sli_telemetry::MetricValue::Gauge(c) => c,
            sli_telemetry::MetricValue::Histogram(_) => 0,
        })
        .sum()
}

fn holdings(db: &sli_datastore::Database) -> u64 {
    db.row_count("holding").expect("the holding table exists") as u64
}

/// Runs the warm-up through `perform`, timing each interaction.
fn warm_up(ep: &mut Episode, warmup: &Scripts, mut perform: impl FnMut(usize, &TradeAction)) {
    for (c, action) in Inputs::interleaved(warmup) {
        let t = Instant::now();
        perform(c, action);
        ep.warmup_ns.push(t.elapsed().as_nanos() as u64);
    }
}

/// Runs the measured phase through `perform` (interaction index, client,
/// action → virtual latency µs and status), timing each interaction and
/// draining `log` after every session round.
fn measure(
    ep: &mut Episode,
    measured: &Scripts,
    log: &TraceLog,
    mut perform: impl FnMut(u32, usize, &TradeAction) -> (u64, u16),
) {
    let order = Inputs::interleaved(measured);
    let per_round = (order.len() / measured[0].len().max(1)).max(1);
    for (round, chunk) in order.chunks(per_round).enumerate() {
        for (i, &(c, action)) in chunk.iter().enumerate() {
            let t = Instant::now();
            let (latency_us, status) = perform((round * per_round + i) as u32, c, action);
            ep.interaction_ns.push(t.elapsed().as_nanos() as u64);
            ep.virt.record(latency_us, status);
        }
        ep.harvest.drain(log);
    }
}

/// Closes a closed-loop episode: its one served-system rung, the end
/// state and the output checks.
fn finish(
    ep: &mut Episode,
    w: &Workload,
    inputs: &Inputs,
    span_us: u64,
    db: &sli_datastore::Database,
    reg: &sli_telemetry::Registry,
) {
    ep.virt.span_us = span_us;
    ep.virt
        .closed_rung(inputs.measured.iter().map(Vec::len).sum());
    ep.virt.holdings_rows_end = holdings(db);
    let sum: u64 = ep.virt.latencies_us.iter().sum();
    if let Err(e) = ep.harvest.check_conservation(w.name, sum) {
        ep.failures.push(format!("profile conservation: {e}"));
    }
    if let Err(e) = check_accounting(reg, ep.virt.interactions, ep.virt.ok) {
        ep.failures.push(format!("accounting: {e}"));
    }
    ep.peak_rss_mib = crate::report::peak_rss_mib().unwrap_or(0.0);
}

/// A closed-loop episode on the plain testbed.
pub fn closed_plain(w: &Workload, seed: u64, inputs: &Inputs) -> Episode {
    let mut ep = Episode::default();
    let t0 = Instant::now();
    let tb = Testbed::build(w.arch, w.testbed);
    tb.set_delay(w.delay());
    let (max, jitter_seed) = w.jitter(seed);
    tb.set_jitter(max, jitter_seed);
    let mut clients: Vec<VirtualClient> = (0..inputs.warmup.len())
        .map(|e| VirtualClient::new(&tb, e))
        .collect();
    warm_up(&mut ep, &inputs.warmup, |c, action| {
        clients[c].perform(action);
    });
    tb.reset_path_stats();
    tb.reset_telemetry();
    ep.setup_ns = t0.elapsed().as_nanos() as u64;

    let virt_start = tb.clock.now().as_micros();
    measure(
        &mut ep,
        &inputs.measured,
        tb.commit_trace(),
        |_, c, action| {
            let out = clients[c].perform(action);
            (out.latency.as_micros(), out.status)
        },
    );
    let span_us = tb.clock.now().as_micros() - virt_start;
    finish(&mut ep, w, inputs, span_us, &tb.db, tb.telemetry());
    ep
}

/// What a traced episode adds to an [`Episode`].
#[derive(Debug, Default)]
pub struct Traced {
    /// The episode proper (host times include the decorators).
    pub ep: Episode,
    /// Every decorator span of the measured phase.
    pub spans: Vec<Span>,
    /// Layer counts read from the stack's registry and paths when the
    /// measured phase ends.
    pub counts: Counts,
    /// Host ns per `CommonStore::get` hit in the post-run probe (zero
    /// without a store).
    pub store_get_hit_ns: f64,
}

/// Per-layer counts of one traced episode (deterministic).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Store hits / lookups.
    pub store_hits: u64,
    /// Store misses.
    pub store_misses: u64,
    /// Resident bytes summed over the edge stores.
    pub store_resident_bytes: u64,
    /// Invalidations applied to the edge stores.
    pub invalidations: u64,
    /// Statements the database server executed.
    pub statements: u64,
    /// Wire batches it executed.
    pub batches: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// WAL bytes made durable.
    pub wal_bytes: u64,
    /// WAL group-commit flushes.
    pub wal_flushes: u64,
    /// Round trips on the delayed paths.
    pub shared_round_trips: u64,
    /// Bytes on the delayed paths.
    pub shared_bytes: u64,
    /// Bytes on the client paths.
    pub client_bytes: u64,
    /// RPC retries on every path.
    pub rpc_retries: u64,
}

fn read_counts(stack: &Stack) -> Counts {
    let reg = &stack.registry;
    let mut c = Counts {
        store_hits: sum_counters(reg, "store.", ".hits"),
        store_misses: sum_counters(reg, "store.", ".misses"),
        invalidations: sum_counters(reg, "store.", ".invalidations"),
        statements: sum_counters(reg, "db.stmt.statements", ""),
        batches: sum_counters(reg, "db.stmt.batches", ""),
        plan_hits: sum_counters(reg, "db.plan.hits", ""),
        plan_misses: sum_counters(reg, "db.plan.misses", ""),
        wal_bytes: sum_counters(reg, "db.wal.flushed_bytes", ""),
        wal_flushes: sum_counters(reg, "db.wal.flushes", ""),
        rpc_retries: sum_counters(reg, "simnet.path.", ".rpc_retries"),
        ..Counts::default()
    };
    for edge in &stack.edges {
        let shared = edge.shared_path.stats();
        c.shared_round_trips += shared.round_trips();
        c.shared_bytes += shared.total_bytes();
        c.client_bytes += edge.client_path.stats().total_bytes();
        if let Some(store) = &edge.store {
            c.store_resident_bytes += store.resident_bytes();
        }
    }
    c
}

/// Times `CommonStore::get` over every resident key: the keys are every
/// row of every bean table, kept where the edge store holds an image.
fn probe_store(stack: &Stack) -> f64 {
    let registry = trade_registry();
    let mut total_ns = 0u64;
    let mut gets = 0u64;
    for edge in &stack.edges {
        let Some(store) = &edge.store else { continue };
        let resident: Vec<(String, sli_datastore::Value)> = registry
            .iter()
            .flat_map(|meta| {
                stack
                    .db
                    .dump_rows(meta.table())
                    .into_iter()
                    .map(move |row| meta.memento_from_row(&row))
            })
            .filter(|m| store.get(m.bean(), m.primary_key()).is_some())
            .map(|m| (m.bean().to_owned(), m.primary_key().clone()))
            .collect();
        if resident.is_empty() {
            continue;
        }
        let t = Instant::now();
        let mut rounds = 0u64;
        while rounds < 3 || t.elapsed().as_millis() < 20 {
            for (bean, key) in &resident {
                black_box(store.get(black_box(bean), black_box(key)));
            }
            rounds += 1;
        }
        total_ns += t.elapsed().as_nanos() as u64;
        gets += rounds * resident.len() as u64;
    }
    if gets == 0 {
        0.0
    } else {
        total_ns as f64 / gets as f64
    }
}

/// A closed-loop episode on the decorated stack.
pub fn closed_traced(w: &Workload, seed: u64, inputs: &Inputs) -> Traced {
    let mut ep = Episode::default();
    let t0 = Instant::now();
    let stack = Stack::build(w.arch, w.testbed);
    stack.set_delay(w.delay());
    let (max, jitter_seed) = w.jitter(seed);
    stack.set_jitter(max, jitter_seed);
    let mut clients: Vec<StackClient> = (0..inputs.warmup.len()).map(StackClient::new).collect();
    warm_up(&mut ep, &inputs.warmup, |c, action| {
        clients[c].perform(&stack, action);
    });
    stack.reset_telemetry();
    ep.setup_ns = t0.elapsed().as_nanos() as u64;

    let virt_start = stack.clock.now().as_micros();
    timed::start();
    measure(&mut ep, &inputs.measured, &stack.trace, |id, c, action| {
        timed::set_interaction(id);
        timed::span(
            Layer::Interaction,
            || clients[c].perform(&stack, action),
            |_| 0,
        )
    });
    let spans = timed::stop();
    let span_us = stack.clock.now().as_micros() - virt_start;
    finish(&mut ep, w, inputs, span_us, &stack.db, &stack.registry);
    let counts = read_counts(&stack);
    let store_get_hit_ns = probe_store(&stack);
    Traced {
        ep,
        spans,
        counts,
        store_get_hit_ns,
    }
}

/// One rung of the open loop on the plain testbed.
#[derive(Debug, Default)]
pub struct OpenRung {
    /// The episode part: set-up, measured host time, virtual results.
    pub ep: Episode,
    /// Per-interaction queue wait, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Largest ready-queue depth.
    pub peak_queue_depth: u64,
}

/// Runs the open loop at `rps` on a fresh testbed after the closed-loop
/// warm-up, checking Little's law and the engine's accounting.
pub fn open_rung(w: &Workload, seed: u64, rps: f64, warmup: &Scripts) -> OpenRung {
    let open = w.open.as_ref().expect("an open-loop workload");
    let mut rung = OpenRung::default();
    let t0 = Instant::now();
    let tb = Testbed::build(w.arch, w.testbed);
    tb.set_delay(w.delay());
    let (max, jitter_seed) = w.jitter(seed);
    tb.set_jitter(max, jitter_seed);
    let mut client = VirtualClient::new(&tb, 0);
    warm_up(&mut rung.ep, warmup, |_, action| {
        client.perform(action);
    });
    tb.reset_path_stats();
    tb.reset_telemetry();
    rung.ep.setup_ns = t0.elapsed().as_nanos() as u64;

    let plan = w.load_plan(seed, rps, open.sessions);
    let scripts = Workload::plan_scripts(&plan);
    let engine = LoadEngine::new(&tb);
    let start_us = tb.clock.now().as_micros();
    let mut done_at_us: Vec<u64> = Vec::with_capacity(scripts.len() * 11);
    let mut harvest = Harvest::default();
    let mut gaps = Vec::with_capacity(scripts.len() * 11);
    let mut last_exit = Instant::now();
    let run = {
        let mut observer = |events: &[SpanEvent]| {
            let entry = Instant::now();
            gaps.push((entry - last_exit).as_nanos() as u64);
            done_at_us.push(tb.clock.now().as_micros());
            harvest.fold(events);
            last_exit = Instant::now();
            harvest.host_ns += (last_exit - entry).as_nanos() as u64;
        };
        engine.run_observed(&plan, None, Some(&mut observer))
    };
    rung.ep.interaction_ns = gaps;
    rung.peak_queue_depth = run.peak_queue_depth;

    let mut failures = Vec::new();
    let expected: usize = scripts.iter().map(Vec::len).sum();
    if run.interactions.len() != expected || done_at_us.len() != expected {
        failures.push(format!(
            "rung {rps}: {} dispatches, {} observed, {expected} scripted",
            run.interactions.len(),
            done_at_us.len()
        ));
    }
    if run.sessions_completed != scripts.len() as u64 {
        failures.push(format!(
            "rung {rps}: {} of {} sessions completed",
            run.sessions_completed,
            scripts.len()
        ));
    }
    let littles = run.littles_law();
    if !littles.holds(0.01) {
        failures.push(format!(
            "rung {rps}: Little's law off by {:.4} (L {:.3}, lambda {:.4}/s, W {:.1} ms)",
            littles.relative_error,
            littles.avg_in_flight,
            littles.throughput_per_s,
            littles.mean_residence_ms
        ));
    }
    let mut service_us = 0u64;
    for i in &run.interactions {
        rung.ep.virt.record(i.total().as_micros(), i.status);
        rung.queue_wait_ms.push(i.queue_wait.as_millis_f64());
        service_us += i.service.as_micros();
    }
    if let Err(e) = harvest.check_conservation(w.name, service_us) {
        failures.push(format!("rung {rps}: profile conservation: {e}"));
    }
    if let Err(e) = check_accounting(tb.telemetry(), rung.ep.virt.interactions, rung.ep.virt.ok) {
        failures.push(format!("rung {rps}: accounting: {e}"));
    }

    // Backlog window: from the arrival of the first quarter's last session
    // to the last arrival; the sessions that arrived and that completed in
    // it.
    let arrivals: Vec<u64> = plan
        .arrivals
        .times_us(plan.sessions)
        .into_iter()
        .map(|t| start_us + t)
        .collect();
    let lo = arrivals[plan.sessions / 4];
    let hi = arrivals[plan.sessions - 1];
    let mut steps = vec![0usize; scripts.len()];
    let mut completions = 0u64;
    for (i, done) in run.interactions.iter().zip(&done_at_us) {
        let s = i.session as usize;
        steps[s] += 1;
        if steps[s] == scripts[s].len() && (lo..=hi).contains(done) {
            completions += 1;
        }
    }
    let in_window = arrivals.iter().filter(|t| (lo..=hi).contains(*t)).count() as u64;
    let latencies = rung.ep.virt.latencies_ms();
    rung.ep.virt.rungs = vec![Rung {
        offered_rps: rps,
        p95_ms: quantile(&latencies, 0.95).unwrap_or(0.0),
        arrivals: in_window,
        completions,
    }];
    rung.ep.virt.holdings_rows_end = holdings(&tb.db);
    rung.ep.harvest = harvest;
    rung.ep.failures = failures;
    rung
}

/// A whole open-loop episode: every rung of the ladder. The latency
/// metrics and the host times come from the reference rung; the other
/// rungs contribute their served-system verdicts.
pub fn open_episode(w: &Workload, seed: u64, warmup: &Scripts) -> Episode {
    let open = w.open.as_ref().expect("an open-loop workload");
    let mut ep = Episode::default();
    for &rps in &open.ladder {
        let mut r = open_rung(w, seed, rps, warmup).ep;
        ep.failures.append(&mut r.failures);
        ep.virt.interactions += r.virt.interactions;
        ep.virt.ok += r.virt.ok;
        ep.virt.failed += r.virt.failed;
        ep.virt.rungs.append(&mut r.virt.rungs);
        if rps == open.reference_rps {
            ep.setup_ns = r.setup_ns;
            ep.warmup_ns = r.warmup_ns;
            ep.interaction_ns = r.interaction_ns;
            ep.harvest = r.harvest;
            ep.virt.latencies_us = r.virt.latencies_us;
            ep.virt.holdings_rows_end = r.virt.holdings_rows_end;
        }
    }
    assert!(
        !ep.interaction_ns.is_empty(),
        "the reference rate is on the ladder"
    );
    ep.peak_rss_mib = crate::report::peak_rss_mib().unwrap_or(0.0);
    ep
}
