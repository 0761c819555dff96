//! # sli-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation, plus the
//! harness's own validation and profiling bins:
//!
//! | binary | regenerates / checks |
//! |---|---|
//! | `table1` | Trade2 runtime & database usage characteristics |
//! | `fig6` | latency vs delay for the three architectures |
//! | `fig7` | latency vs delay for the three ES/RDB flavors |
//! | `fig8` | bytes to the shared site per client interaction |
//! | `table2` | latency-sensitivity (slope) matrix |
//! | `ablation_batching` | wire-batching on/off round-trip ablation |
//! | `ablation_cache` | plan-cache capacity ablation |
//! | `contention` | conflict leaderboard under contended load |
//! | `knee` | throughput–latency curves, saturation knees, aggregate profile |
//! | `whatif` | causal profiles via virtual resource speedups |
//! | `perfguard` | performance-regression gate against recorded baselines |
//! | `monitor` | online SLO detection: false-positive gate + time-to-detect table |
//! | `slicheck` | serializability checker across the seven combinations |
//! | `tracecheck` | schema validation of every artifact in `results/` |
//!
//! All of them share the [`Cli`] parser: `--help` documents each bin and
//! exits 0, unknown arguments exit 2.
//!
//! This library hosts the shared measurement loop implementing the paper's
//! §4.3 protocol: one virtual client, 400 warm-up sessions, 300 measured
//! sessions (~11 interactions each), latencies averaged over 20 batches,
//! and a least-squares fit across the delay sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sli_arch::{
    arch_key, collect_report, Architecture, LoadEngine, LoadPlan, ResourceScale, ScheduledFault,
    Testbed, TestbedConfig, VirtualClient,
};
use sli_simnet::{FaultPlan, SimDuration};
use sli_telemetry::{
    chrome_trace, conflict_leaderboard, critical_path, sparkline, validate_chrome_trace,
    validate_incident, validate_profile, validate_timeline, ArchReport, Breakdown, Bucket,
    ConflictEntry, Json, LittlesLaw, Profile, Resource, SloConfig, SloMonitor, SpanEvent,
    TimelineDoc, TimelineReport, TraceLog,
};
use sli_trade::seed::Population;
use sli_trade::session::SessionGenerator;
use sli_workload::{
    batch_means, fit, percentile, ArrivalPlan, ArrivalProcess, LinearFit, TextTable,
};

mod cli;
mod guard;

pub use cli::{Cli, CliArgs, CliError};
pub use guard::{
    compare_guard, guard_run, guard_run_loaded, guard_suite, parse_baseline, render_baseline,
    GuardEntry, GuardMetric, GuardProfile, Regression, PERFGUARD_SCHEMA,
};

/// Measurement-protocol parameters (§4.3 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Warm-up sessions before measurement (paper: 400).
    pub warmup_sessions: usize,
    /// Measured sessions (paper: 300).
    pub measured_sessions: usize,
    /// Batches for the batched average (paper: 20).
    pub batches: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Database population.
    pub population: Population,
    /// Optional per-crossing jitter on the delayed path (maximum added
    /// microseconds). Zero reproduces the deterministic runs; a small value
    /// reproduces the paper's R² ≈ 0.99 texture.
    pub jitter_us: u64,
    /// Initial timeline window width in virtual microseconds (the window
    /// doubles automatically when a run outlives the window budget).
    pub timeline_window_us: u64,
    /// Fault plan dialled into the delayed paths for the measured run
    /// (clean by default; `perfguard --faults` uses it to stage an
    /// artificial regression).
    pub faults: FaultPlan,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            warmup_sessions: 400,
            measured_sessions: 300,
            batches: 20,
            seed: 20040101, // Middleware 2004
            population: Population::default(),
            jitter_us: 0,
            timeline_window_us: 100_000, // 100 ms of virtual time
            faults: FaultPlan::NONE,
        }
    }
}

impl RunConfig {
    /// A scaled-down protocol for unit tests and quick sanity runs.
    pub fn quick() -> RunConfig {
        RunConfig {
            warmup_sessions: 20,
            measured_sessions: 30,
            batches: 5,
            ..RunConfig::default()
        }
    }
}

/// One point of a delay sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Injected one-way delay in milliseconds.
    pub delay_ms: f64,
    /// Batched-average client latency in milliseconds.
    pub latency_ms: f64,
    /// Standard deviation across batch means.
    pub latency_stdev_ms: f64,
    /// 95th-percentile interaction latency (over raw interactions, not
    /// batches).
    pub latency_p95_ms: f64,
    /// Bytes to the shared site per client interaction (Figure 8 metric).
    pub shared_bytes_per_interaction: f64,
    /// Round trips across the delayed path per client interaction.
    pub shared_round_trips_per_interaction: f64,
    /// Interactions that returned HTTP 200.
    pub ok: usize,
    /// Interactions that returned a non-200 status.
    pub failed: usize,
}

/// Runs the full measurement protocol for one architecture at one delay.
pub fn run_point(arch: Architecture, delay: SimDuration, cfg: RunConfig) -> SweepPoint {
    run_point_detailed(arch, delay, cfg).0
}

/// Trace data harvested from the measured phase of a run: the aggregated
/// critical-path breakdown, every OCC-conflict forensics event, and a
/// sampled window of raw span events suitable for Chrome-trace export.
///
/// The measurement loop drains the testbed's bounded [`TraceLog`] after
/// every session, and an [`EvictionGuard`] fails the run if a measured
/// span was evicted anyway, so the breakdown covers *every* measured
/// interaction even at the paper's full 300-session protocol.
#[derive(Clone, Debug, Default)]
pub struct TraceHarvest {
    /// Critical-path decomposition aggregated over every measured request.
    pub breakdown: Breakdown,
    /// All conflict-forensics (`occ.conflict`) events observed while
    /// measuring, across the whole run.
    pub conflict_events: Vec<SpanEvent>,
    /// Complete raw span events from the first few measured sessions —
    /// a bounded, representative sample for the Chrome-trace export.
    pub sample_events: Vec<SpanEvent>,
}

impl TraceHarvest {
    /// Folds another harvest into this one. Breakdowns and conflicts
    /// accumulate; the span sample keeps the first non-empty window so a
    /// sweep's exported trace stays one readable file.
    pub fn merge(&mut self, other: TraceHarvest) {
        self.breakdown.merge(&other.breakdown);
        self.conflict_events.extend(other.conflict_events);
        if self.sample_events.is_empty() {
            self.sample_events = other.sample_events;
        }
    }

    /// Per-entity OCC abort leaderboard over the harvested conflicts,
    /// hottest entity first.
    pub fn leaderboard(&self) -> Vec<ConflictEntry> {
        conflict_leaderboard(&self.conflict_events)
    }
}

/// Guards a measured phase against span loss: armed at the warm-up/measure
/// boundary, it reports every [`TraceLog`] eviction since.
///
/// Losing a leaf span leaves the profile's conservation law intact, so
/// without this check an eviction would go unnoticed.
#[derive(Clone, Copy, Debug)]
pub struct EvictionGuard {
    armed_at: u64,
}

impl EvictionGuard {
    /// Arms the guard at `log`'s current eviction count.
    pub fn arm(log: &TraceLog) -> EvictionGuard {
        EvictionGuard {
            armed_at: log.evicted(),
        }
    }

    /// Checks that `log` evicted nothing since the guard was armed.
    ///
    /// # Errors
    /// Names the number of measured spans lost.
    pub fn check(self, log: &TraceLog) -> Result<(), String> {
        match log.evicted() - self.armed_at {
            0 => Ok(()),
            lost => Err(format!(
                "the trace log evicted {lost} measured span(s); \
                 drain it at least once per capacity's worth of spans"
            )),
        }
    }
}

/// Measured sessions whose raw spans are kept as the Chrome-trace sample.
const SAMPLE_SESSIONS: usize = 2;

/// Span-sample cap for loaded runs (the per-dispatch drain keeps appending
/// until the sample holds at least this many events).
const LOADED_SAMPLE_EVENTS: usize = 4_000;

/// Like [`run_point`], but also returns the structured [`ArchReport`] row
/// assembled from the testbed's telemetry (cache hit ratio, commit abort
/// rate, RPC retry/timeout counts, latency percentiles, HTTP status mix).
///
/// Telemetry is reset after warm-up, so the report covers exactly the
/// measured interactions.
pub fn run_point_detailed(
    arch: Architecture,
    delay: SimDuration,
    cfg: RunConfig,
) -> (SweepPoint, ArchReport) {
    let (point, report, _) = run_point_traced(arch, delay, cfg);
    (point, report)
}

/// Like [`run_point_detailed`], but additionally harvests the causal
/// trace: the per-bucket critical-path [`Breakdown`] of every measured
/// interaction, OCC abort forensics, and a Chrome-trace span sample.
pub fn run_point_traced(
    arch: Architecture,
    delay: SimDuration,
    cfg: RunConfig,
) -> (SweepPoint, ArchReport, TraceHarvest) {
    let run = run_point_full(arch, delay, cfg);
    (run.point, run.report, run.harvest)
}

/// Everything one measured point yields: the sweep point, the structured
/// report row, the causal-trace harvest, and the windowed virtual-time
/// timeline of the measured phase.
#[derive(Clone, Debug)]
pub struct PointRun {
    /// The latency/traffic summary of the point.
    pub point: SweepPoint,
    /// The structured per-architecture report row.
    pub report: ArchReport,
    /// Critical-path breakdown, conflict forensics and span sample.
    pub harvest: TraceHarvest,
    /// Per-window rate/level series of the measured phase.
    pub timeline: TimelineReport,
}

/// The full measurement protocol for one architecture at one delay,
/// returning every artifact the harness can produce (see [`PointRun`]).
///
/// The timeline is rebased at the warm-up/measure boundary (so rate totals
/// cover exactly the measured interactions, matching the registry counter
/// reads) and sampled after every interaction on the simulated clock.
///
/// # Panics
/// Panics if the trace log evicted a measured span (see
/// [`EvictionGuard`]).
pub fn run_point_full(arch: Architecture, delay: SimDuration, cfg: RunConfig) -> PointRun {
    let testbed = Testbed::build(
        arch,
        TestbedConfig {
            population: cfg.population,
            edges: 1,
            ..TestbedConfig::default()
        },
    );
    testbed.set_delay(delay);
    if cfg.jitter_us > 0 {
        // Derive the jitter seed from the delay too: otherwise every sweep
        // point would draw the identical noise sequence and the noise would
        // cancel out of the fit entirely.
        testbed.set_jitter(
            SimDuration::from_micros(cfg.jitter_us),
            cfg.seed ^ delay.as_micros().wrapping_mul(0x9E37_79B9),
        );
    }
    if !cfg.faults.is_clean() {
        testbed.set_faults(cfg.faults);
    }
    let timeline = testbed.standard_timeline(cfg.timeline_window_us.max(1));
    let mut generator = SessionGenerator::new(cfg.seed, cfg.population);
    let mut client = VirtualClient::new(&testbed, 0);

    for _ in 0..cfg.warmup_sessions {
        let session = generator.session();
        client.run_session(&session);
    }

    testbed.reset_path_stats();
    testbed.reset_telemetry();
    timeline.rebase(testbed.clock.now().as_micros());
    let guard = EvictionGuard::arm(testbed.commit_trace());
    let mut latencies = Vec::new();
    let mut ok = 0;
    let mut failed = 0;
    let mut harvest = TraceHarvest::default();
    for s in 0..cfg.measured_sessions {
        let session = generator.session();
        for action in &session {
            let outcome = client.perform(action);
            timeline.sample(testbed.clock.now().as_micros());
            latencies.push(outcome.latency.as_millis_f64());
            if outcome.status == 200 {
                ok += 1;
            } else {
                failed += 1;
            }
        }
        // Drain the bounded trace log every session: the breakdown and
        // conflict forensics accumulate across the whole measured phase
        // while the log itself never grows deep enough to evict a span
        // from a trace still being decomposed.
        let events = testbed.commit_trace().drain();
        harvest.breakdown.merge(&critical_path(&events));
        harvest
            .conflict_events
            .extend(events.iter().filter(|e| e.conflict().is_some()).cloned());
        if s < SAMPLE_SESSIONS {
            harvest.sample_events.extend(events);
        }
    }
    guard
        .check(testbed.commit_trace())
        .unwrap_or_else(|e| panic!("run_point_full: {e}"));

    let report = collect_report(&testbed, delay, &latencies, failed as u64);
    let batched = batch_means(&latencies, cfg.batches);
    let interactions = latencies.len().max(1) as f64;
    let shared = testbed.delayed_path(0).stats();
    let point = SweepPoint {
        delay_ms: delay.as_millis_f64(),
        latency_ms: batched.overall.mean,
        latency_stdev_ms: batched.overall.stdev,
        latency_p95_ms: percentile(&latencies, 0.95).unwrap_or(0.0),
        shared_bytes_per_interaction: shared.total_bytes() as f64 / interactions,
        shared_round_trips_per_interaction: shared.round_trips() as f64 / interactions,
        ok,
        failed,
    };
    let timeline = timeline.report(format!("{} @ {:.0}ms", report.arch, point.delay_ms));
    PointRun {
        point,
        report,
        harvest,
        timeline,
    }
}

/// Sweeps the proxy delay (in milliseconds) for one architecture.
pub fn sweep(arch: Architecture, delays_ms: &[u64], cfg: RunConfig) -> Vec<SweepPoint> {
    delays_ms
        .iter()
        .map(|&d| run_point(arch, SimDuration::from_millis(d), cfg))
        .collect()
}

/// Sweeps the proxy delay, returning every artifact per point (sweep
/// point, report row, trace harvest, timeline).
pub fn sweep_full(arch: Architecture, delays_ms: &[u64], cfg: RunConfig) -> Vec<PointRun> {
    delays_ms
        .iter()
        .map(|&d| run_point_full(arch, SimDuration::from_millis(d), cfg))
        .collect()
}

/// Renders the latency-breakdown table the figure/table binaries print:
/// one row per series, with the mean per-request milliseconds and share
/// attributed to each critical-path [`Bucket`].
pub fn breakdown_table(rows: &[(String, Breakdown)]) -> String {
    let mut header: Vec<&str> = vec!["series", "traces", "mean ms"];
    header.extend(Bucket::ALL.iter().map(|b| b.label()));
    let mut table = TextTable::new(&header);
    for (name, b) in rows {
        let mut cells = vec![
            name.clone(),
            b.traces.to_string(),
            format!("{:.2}", b.mean_ms()),
        ];
        for bucket in Bucket::ALL {
            let per_trace_ms = b.bucket_us(bucket) as f64 / b.traces.max(1) as f64 / 1000.0;
            cells.push(format!(
                "{per_trace_ms:.2} ms ({:.0}%)",
                b.share(bucket) * 100.0
            ));
        }
        table.row(cells);
    }
    table.render()
}

/// Combines per-series span samples into one exportable event list.
///
/// Every testbed's deterministic id counter starts from the same point, so
/// samples from independently-built testbeds would collide on
/// `(trace_id, span_id)`; each series' trace ids are shifted into their own
/// namespace before concatenation.
pub fn combined_sample(harvests: &[(String, TraceHarvest)]) -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for (i, (_, h)) in harvests.iter().enumerate() {
        let offset = (i as u64) << 32;
        out.extend(h.sample_events.iter().cloned().map(|mut e| {
            e.trace_id += offset;
            e
        }));
    }
    out
}

/// Exports `events` to `results/{name}.trace.json` as a Chrome trace-event
/// document, validating its well-formedness (every span contained within
/// its parent) before writing. Returns the path written.
///
/// # Errors
/// Returns a description of the validation or I/O failure.
pub fn write_trace_json(name: &str, events: &[SpanEvent]) -> Result<String, String> {
    let doc = chrome_trace(events);
    validate_chrome_trace(&doc)?;
    let path = format!("results/{name}.trace.json");
    std::fs::create_dir_all("results").map_err(|e| format!("create results/: {e}"))?;
    std::fs::write(&path, doc.render()).map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}

/// Exports `doc` to `results/{name}.timeline.json`, validating it against
/// the `sli-edge.timeline/v1` schema (including the rate-conservation law)
/// before writing. Returns the path written.
///
/// # Errors
/// Returns a description of the validation or I/O failure.
pub fn write_timeline_json(name: &str, doc: &TimelineDoc) -> Result<String, String> {
    let json = doc.to_json();
    validate_timeline(&json)?;
    let path = format!("results/{name}.timeline.json");
    std::fs::create_dir_all("results").map_err(|e| format!("create results/: {e}"))?;
    std::fs::write(&path, json.render()).map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}

/// Exports `profile` to `results/{name}.folded` in collapsed-stack format
/// (speedscope / inferno / `flamegraph.pl` loadable) and to
/// `results/{name}.profile.json` under the `sli-edge.profile/v1` schema,
/// validating the JSON (conservation laws included) before writing.
/// Returns both paths written (folded first).
///
/// # Errors
/// Returns a description of the validation or I/O failure.
pub fn write_profile(
    name: &str,
    profile: &Profile,
    label: &str,
) -> Result<(String, String), String> {
    let json = profile.to_json(label);
    validate_profile(&json)?;
    std::fs::create_dir_all("results").map_err(|e| format!("create results/: {e}"))?;
    let folded_path = format!("results/{name}.folded");
    std::fs::write(&folded_path, profile.folded())
        .map_err(|e| format!("write {folded_path}: {e}"))?;
    let json_path = format!("results/{name}.profile.json");
    std::fs::write(&json_path, json.render()).map_err(|e| format!("write {json_path}: {e}"))?;
    Ok((folded_path, json_path))
}

/// The three virtually-speedable resources of the what-if engine, with the
/// [`ResourceScale`] each one's knob drives. Store/lock wait is
/// deliberately absent: it is contention, not a machine to buy faster —
/// its causal impact shows up as *divergence* on the other knobs instead.
pub const WHATIF_KNOBS: [Resource; 3] = [Resource::Wire, Resource::BackendDb, Resource::EdgeCpu];

/// One row of a causal profile: what actually happened when `resource` was
/// virtually sped up by `speedup`, compared with what the aggregate
/// profile predicted.
#[derive(Debug, Clone, Copy)]
pub struct WhatIfRow {
    /// The resource whose knob was turned.
    pub resource: Resource,
    /// The applied virtual speedup factor (`f` → costs scaled by `1/f`).
    pub speedup: f64,
    /// Achieved throughput with the speedup applied.
    pub achieved_tps: f64,
    /// Mean total latency (ms) with the speedup applied.
    pub latency_ms: f64,
    /// p95 total latency (ms) with the speedup applied.
    pub latency_p95_ms: f64,
    /// Measured causal share: fraction of baseline mean latency removed,
    /// normalized by the fraction of the resource's cost removed
    /// (`s = 1 − 1/f`). A resource the workload fully serializes on shows
    /// `causal ≈ profile` share; an off-critical-path resource shows ~0.
    pub causal_share: f64,
    /// The aggregate profile's (critical-path-weighted) share for the same
    /// resource — the *prediction* the causal run tests.
    pub profile_share: f64,
    /// Normalized throughput derivative: `d(achieved_tps)/d(s)` divided by
    /// the baseline throughput.
    pub d_tps: f64,
    /// Normalized p95 derivative: fraction of baseline p95 removed per
    /// unit of cost removed.
    pub d_p95: f64,
}

impl WhatIfRow {
    /// Causal-vs-profile amplification (`causal / profile`; 0 when the
    /// profile share vanishes).
    pub fn amplification(&self) -> f64 {
        if self.profile_share <= f64::EPSILON {
            0.0
        } else {
            self.causal_share / self.profile_share
        }
    }

    /// Whether the causal measurement diverges from the profile
    /// prediction by more than 2× either way — the contention signature
    /// (queueing or lock waits redistribute time when a resource speeds
    /// up, which a flat profile cannot anticipate).
    pub fn diverges(&self) -> bool {
        self.profile_share > 0.02 && !(0.5..=2.0).contains(&self.amplification())
    }
}

/// A full causal profile of one loaded point: the baseline run plus one
/// virtually-sped-up rerun per [`WHATIF_KNOBS`] resource.
#[derive(Debug, Clone)]
pub struct WhatIfReport {
    /// The unscaled loaded run everything is measured against.
    pub baseline: LoadedPointRun,
    /// One row per speedable resource, in [`WHATIF_KNOBS`] order.
    pub rows: Vec<WhatIfRow>,
}

impl WhatIfReport {
    /// Resources ranked by measured causal impact on latency, strongest
    /// first — the *causal* bottleneck ranking, to set against
    /// [`Profile::bottleneck_ranking`]'s profile-predicted one.
    pub fn causal_ranking(&self) -> Vec<Resource> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            b.causal_share
                .partial_cmp(&a.causal_share)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows.into_iter().map(|r| r.resource).collect()
    }

    /// The top causal bottleneck among the speedable resources.
    pub fn top_bottleneck(&self) -> Resource {
        self.causal_ranking()[0]
    }
}

/// Runs the what-if (causal-profile) protocol: one baseline loaded run,
/// then for each speedable resource the *same* deterministic loaded point
/// with that resource's cost virtually scaled by `1/speedup` — exact
/// fixed-point scaling inside the simulation, the virtual-time analogue of
/// a Coz experiment. Latency/throughput deltas are normalized into causal
/// shares and compared against the aggregate profile's prediction.
pub fn whatif(
    arch: Architecture,
    delay: SimDuration,
    cfg: LoadedConfig,
    speedup: f64,
) -> WhatIfReport {
    assert!(speedup > 1.0, "a what-if speedup must exceed 1×");
    let baseline = run_point_loaded(arch, delay, cfg);
    let s = 1.0 - 1.0 / speedup;
    let base = baseline.point;
    let rows = WHATIF_KNOBS
        .iter()
        .map(|&resource| {
            let ppm = ResourceScale::ppm_for_speedup(speedup);
            let nominal = ResourceScale::nominal();
            let scale = match resource {
                Resource::Wire => ResourceScale {
                    wire_ppm: ppm,
                    ..nominal
                },
                Resource::BackendDb => ResourceScale {
                    db_ppm: ppm,
                    ..nominal
                },
                Resource::EdgeCpu => ResourceScale {
                    edge_ppm: ppm,
                    ..nominal
                },
                Resource::StoreLock => unreachable!("store/lock wait has no speed knob"),
            };
            let sped = run_point_loaded(arch, delay, LoadedConfig { scale, ..cfg }).point;
            WhatIfRow {
                resource,
                speedup,
                achieved_tps: sped.achieved_tps,
                latency_ms: sped.latency_ms,
                latency_p95_ms: sped.latency_p95_ms,
                causal_share: ((base.latency_ms - sped.latency_ms) / base.latency_ms.max(1e-9)) / s,
                profile_share: baseline.profile.resource_share(resource),
                d_tps: ((sped.achieved_tps - base.achieved_tps) / base.achieved_tps.max(1e-9)) / s,
                d_p95: ((base.latency_p95_ms - sped.latency_p95_ms)
                    / base.latency_p95_ms.max(1e-9))
                    / s,
            }
        })
        .collect();
    WhatIfReport { baseline, rows }
}

/// Renders one timeline run as an ASCII sparkline table: one row per
/// series that saw any activity (quiet series are summarised in a trailing
/// note), darkest glyph = the series' busiest window.
pub fn timeline_table(report: &TimelineReport) -> String {
    let window_ms = report.window_us as f64 / 1_000.0;
    let activity = format!(
        "activity ({} windows x {:.0} ms virtual)",
        report.windows(),
        window_ms
    );
    let mut table = TextTable::new(&["series", "kind", "total", activity.as_str()]);
    let mut quiet = 0usize;
    for s in &report.series {
        if s.values.iter().all(|&v| v == 0) {
            quiet += 1;
            continue;
        }
        table.row(vec![
            s.name.clone(),
            s.kind.label().to_owned(),
            s.total.to_string(),
            format!("|{}|", sparkline(&s.values)),
        ]);
    }
    let mut out = format!("{}\n{}", report.label, table.render());
    if quiet > 0 {
        out.push_str(&format!("({quiet} series with no activity omitted)\n"));
    }
    out
}

/// Open-loop loaded-run parameters: the high-load engine's protocol, the
/// counterpart of [`RunConfig`] for runs where sessions *arrive* at a
/// configured rate instead of being issued one at a time.
#[derive(Debug, Clone, Copy)]
pub struct LoadedConfig {
    /// Session arrival rate (sessions per second of virtual time). Each
    /// session issues ~11 interactions, so the offered interaction rate is
    /// roughly 11× this.
    pub session_rps: f64,
    /// Shape of the arrival schedule around that rate.
    pub process: ArrivalProcess,
    /// Sessions arriving in the measured open-loop phase.
    pub sessions: usize,
    /// Closed-loop warm-up sessions before the loaded phase (cache and
    /// connection state, exactly like the §4.3 warm-up).
    pub warmup_sessions: usize,
    /// Per-session think time between consecutive interactions (ms).
    /// Zero by default so the knee reflects pure queueing.
    pub think_ms: u64,
    /// Seed for arrivals, session scripts and the dispatch scheduler.
    pub seed: u64,
    /// Database population.
    pub population: Population,
    /// Initial timeline window width in virtual microseconds.
    pub timeline_window_us: u64,
    /// Fault plan dialled into the delayed paths for the loaded phase.
    pub faults: FaultPlan,
    /// Whether remote database connections batch statements onto the wire
    /// (`false` is the pre-batching ablation).
    pub wire_batching: bool,
    /// Virtual per-resource speed knobs for what-if runs (nominal by
    /// default — measured costs).
    pub scale: ResourceScale,
}

impl LoadedConfig {
    /// The standard loaded protocol at `session_rps` Poisson arrivals per
    /// second: 200 sessions measured after a 40-session warm-up.
    pub fn at_rps(session_rps: f64) -> LoadedConfig {
        LoadedConfig {
            session_rps,
            process: ArrivalProcess::Poisson,
            sessions: 200,
            warmup_sessions: 40,
            think_ms: 0,
            seed: 20040101,
            population: Population::default(),
            timeline_window_us: 500_000,
            faults: FaultPlan::NONE,
            wire_batching: true,
            scale: ResourceScale::nominal(),
        }
    }

    /// A scaled-down loaded protocol for unit tests and CI smoke runs.
    pub fn quick(session_rps: f64) -> LoadedConfig {
        LoadedConfig {
            sessions: 60,
            warmup_sessions: 10,
            ..LoadedConfig::at_rps(session_rps)
        }
    }
}

/// One point of a load sweep: offered vs achieved throughput plus the
/// latency distribution including queue wait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadedPoint {
    /// Configured session arrival rate (sessions/s of virtual time).
    pub session_rps: f64,
    /// Empirical offered interaction rate: interactions divided by the
    /// realized arrival span, so sampling noise in the random schedule
    /// doesn't masquerade as a throughput deficit.
    pub offered_tps: f64,
    /// Achieved interaction throughput over the run's makespan.
    pub achieved_tps: f64,
    /// Batched mean total latency (queue wait + service) in ms.
    pub latency_ms: f64,
    /// Median total latency (ms).
    pub latency_p50_ms: f64,
    /// 95th-percentile total latency (ms).
    pub latency_p95_ms: f64,
    /// 99th-percentile total latency (ms).
    pub latency_p99_ms: f64,
    /// Mean service time alone (ms) — the closed-loop view of the same
    /// interactions, for separating queueing delay from service cost.
    pub service_ms: f64,
    /// 95th-percentile queue wait (ms).
    pub queue_wait_p95_ms: f64,
    /// Largest ready-queue depth the engine observed.
    pub peak_queue_depth: u64,
    /// Mean wire round trips per interaction over the architecture's
    /// delayed path — the quantity statement batching exists to shrink.
    pub round_trips_per_interaction: f64,
    /// Interactions that returned HTTP 200.
    pub ok: usize,
    /// Interactions that returned a non-200 status.
    pub failed: usize,
}

/// Everything one loaded point yields: the summary point, the structured
/// report row, and the windowed timeline of the loaded phase (including
/// the `engine.*` queue/in-flight series).
#[derive(Debug, Clone)]
pub struct LoadedPointRun {
    /// Throughput/latency summary of the point.
    pub point: LoadedPoint,
    /// The structured per-architecture report row (latencies are total,
    /// i.e. queue wait included).
    pub report: ArchReport,
    /// Per-window rate/level series of the loaded phase.
    pub timeline: TimelineReport,
    /// Critical-path breakdown, conflict forensics and span sample of the
    /// loaded phase (harvested per dispatch, so nothing is evicted).
    pub harvest: TraceHarvest,
    /// The aggregate cross-session profile: per-class self times,
    /// collapsed stacks and per-resource attribution.
    pub profile: Profile,
    /// Little's-law cross-check over the loaded phase (exact identity for
    /// a clean run).
    pub littles: LittlesLaw,
}

/// Runs the open-loop loaded protocol for one architecture at one delay:
/// closed-loop warm-up, telemetry reset, then [`LoadEngine::run`] over a
/// deterministic arrival schedule, sampling the timeline at every
/// dispatch.
///
/// # Panics
/// Panics if the trace log evicted a measured span (see
/// [`EvictionGuard`]).
pub fn run_point_loaded(
    arch: Architecture,
    delay: SimDuration,
    cfg: LoadedConfig,
) -> LoadedPointRun {
    let testbed = Testbed::build(
        arch,
        TestbedConfig {
            population: cfg.population,
            edges: 1,
            wire_batching: cfg.wire_batching,
            ..TestbedConfig::default()
        },
    );
    testbed.set_delay(delay);
    testbed.apply_scale(cfg.scale);
    if !cfg.faults.is_clean() {
        testbed.set_faults(cfg.faults);
    }
    let timeline = testbed.standard_timeline(cfg.timeline_window_us.max(1));
    let engine = LoadEngine::new(&testbed);
    engine.metrics().timeline_into(&timeline, "engine");

    let mut generator = SessionGenerator::new(cfg.seed, cfg.population);
    let mut warm = VirtualClient::new(&testbed, 0);
    for _ in 0..cfg.warmup_sessions {
        let session = generator.session();
        warm.run_session(&session);
    }
    testbed.reset_path_stats();
    testbed.reset_telemetry();
    timeline.rebase(testbed.clock.now().as_micros());
    let guard = EvictionGuard::arm(testbed.commit_trace());

    let plan = LoadPlan {
        arrivals: ArrivalPlan {
            seed: cfg.seed,
            rps: cfg.session_rps,
            process: cfg.process,
        },
        sessions: cfg.sessions,
        think: SimDuration::from_millis(cfg.think_ms),
        session_seed: cfg.seed ^ 0x5e55_1011,
        scheduler_seed: cfg.seed ^ 0x5c4e_d01e,
        population: cfg.population,
    };
    let arrival_us = plan.arrivals.times_us(plan.sessions);
    let mut harvest = TraceHarvest::default();
    let mut profile = Profile::default();
    let mut observer = |events: &[SpanEvent]| {
        profile.fold(events);
        harvest.breakdown.merge(&critical_path(events));
        harvest
            .conflict_events
            .extend(events.iter().filter(|e| e.conflict().is_some()).cloned());
        if harvest.sample_events.len() < LOADED_SAMPLE_EVENTS {
            harvest.sample_events.extend_from_slice(events);
        }
    };
    let run = engine.run_observed(&plan, Some(&timeline), Some(&mut observer));
    guard
        .check(testbed.commit_trace())
        .unwrap_or_else(|e| panic!("run_point_loaded: {e}"));

    let arrival_span_s = arrival_us
        .last()
        .zip(arrival_us.first())
        .map_or(0.0, |(last, first)| (last - first) as f64 / 1e6);
    let totals = run.total_latencies_ms();
    let waits: Vec<f64> = run
        .interactions
        .iter()
        .map(|i| i.queue_wait.as_millis_f64())
        .collect();
    let services: Vec<f64> = run
        .interactions
        .iter()
        .map(|i| i.service.as_millis_f64())
        .collect();
    let ok = run.interactions.iter().filter(|i| i.status == 200).count();
    let failed = run.interactions.len() - ok;
    let report = collect_report(&testbed, delay, &totals, failed as u64);
    let batched = batch_means(&totals, 20);
    let point = LoadedPoint {
        session_rps: cfg.session_rps,
        offered_tps: run.interactions.len() as f64 / arrival_span_s.max(1e-6),
        achieved_tps: run.achieved_tps(),
        latency_ms: batched.overall.mean,
        latency_p50_ms: percentile(&totals, 0.50).unwrap_or(0.0),
        latency_p95_ms: percentile(&totals, 0.95).unwrap_or(0.0),
        latency_p99_ms: percentile(&totals, 0.99).unwrap_or(0.0),
        service_ms: sli_workload::RunStats::of(&services).mean,
        queue_wait_p95_ms: percentile(&waits, 0.95).unwrap_or(0.0),
        peak_queue_depth: run.peak_queue_depth,
        round_trips_per_interaction: testbed.delayed_path(0).stats().round_trips() as f64
            / run.interactions.len().max(1) as f64,
        ok,
        failed,
    };
    let timeline = timeline.report(format!(
        "{} loaded @ {:.2} sessions/s",
        report.arch, cfg.session_rps
    ));
    let littles = run.littles_law();
    LoadedPointRun {
        point,
        report,
        timeline,
        harvest,
        profile,
        littles,
    }
}

/// Sweeps the session arrival rate for one architecture at a fixed delay,
/// one loaded run per rate — the throughput–latency curve the `knee` bin
/// plots.
pub fn sweep_loaded(
    arch: Architecture,
    delay: SimDuration,
    session_rates: &[f64],
    cfg: LoadedConfig,
) -> Vec<LoadedPointRun> {
    session_rates
        .iter()
        .map(|&rps| {
            run_point_loaded(
                arch,
                delay,
                LoadedConfig {
                    session_rps: rps,
                    ..cfg
                },
            )
        })
        .collect()
}

/// Finds the saturation knee of a rate-ordered load sweep: the first point
/// whose achieved throughput falls more than 10% short of offered, or
/// whose mean latency exceeds 3× the lightest point's. `None` if the sweep
/// never saturates.
pub fn knee_index(points: &[LoadedPoint]) -> Option<usize> {
    let base_latency = points.first()?.latency_ms;
    points.iter().position(|p| {
        p.achieved_tps < 0.9 * p.offered_tps || p.latency_ms > 3.0 * base_latency.max(0.001)
    })
}

/// The delay sweep of Figures 6 and 7: 0–100 ms one-way in 20 ms steps.
pub const PAPER_DELAYS_MS: &[u64] = &[0, 20, 40, 60, 80, 100];

/// The scripted fault classes the `monitor` bin injects mid-run, each
/// exercising a different failure surface: the shared back-end going dark,
/// the WAN shedding traffic, and the paper's "flash crowd" arrival surge
/// (no injected fault at all — the *workload* is the incident).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Every delivery on the delayed path fails for the outage window.
    BackendOutage,
    /// A burst window in which the delayed path drops/duplicates/refuses a
    /// large share of attempts.
    LossBurst,
    /// A step surge in the session arrival rate; paths stay clean.
    FlashCrowd,
}

impl FaultClass {
    /// Every scripted class, in report-column order.
    pub const ALL: [FaultClass; 3] = [
        FaultClass::BackendOutage,
        FaultClass::LossBurst,
        FaultClass::FlashCrowd,
    ];

    /// Stable key used in filenames, CSV columns and incident labels.
    pub fn key(self) -> &'static str {
        match self {
            FaultClass::BackendOutage => "backend_outage",
            FaultClass::LossBurst => "loss_burst",
            FaultClass::FlashCrowd => "flash_crowd",
        }
    }
}

/// Everything that defines one monitored run: the loaded protocol, the SLO
/// detector configuration, and the shape of the mid-run disturbance.
#[derive(Debug, Clone, Copy)]
pub struct MonitoredConfig {
    /// The open-loop load protocol (rate, sessions, warm-up, seed).
    pub load: LoadedConfig,
    /// Detector thresholds and windows.
    pub slo: SloConfig,
    /// Scripted disturbance, or `None` for a clean false-positive run.
    pub fault: Option<FaultClass>,
    /// When the disturbance starts, ms of virtual time after the loaded
    /// phase begins. Must leave room for drift calibration first.
    pub fault_at_ms: u64,
    /// How long the disturbance lasts (ms); the fault plan is dialled back
    /// to [`FaultPlan::NONE`] afterwards.
    pub fault_dur_ms: u64,
    /// Per-mille attempt loss during a [`FaultClass::LossBurst`].
    pub loss_per_mille: u16,
    /// Arrival-rate multiplier during a [`FaultClass::FlashCrowd`].
    pub flash_peak: f64,
}

impl MonitoredConfig {
    /// The standard monitored protocol around `load`: disturbance from
    /// 25 s to 45 s of the loaded phase (the default 100-sample drift
    /// calibration finishes first at ≥ 5 interactions/s; 20 s of outage
    /// lets the ready queue back up far enough for the queue charts),
    /// heavy loss, a 20× surge. The burn/availability windows are
    /// stretched over the defaults so they hold `min_events` even at
    /// half-session-per-second rates, where an outage thins completions to
    /// a trickle, and the latency σ floor is raised (12% of the SLO) to
    /// clear the vanilla-EJB combination's legitimately large
    /// clean-traffic latency swings without loosening the queue charts.
    pub fn around(load: LoadedConfig) -> MonitoredConfig {
        MonitoredConfig {
            load,
            slo: SloConfig {
                fast_window_us: 4_000_000,
                slow_window_us: 16_000_000,
                min_events: 10,
                latency_sigma_floor_us: 60_000.0,
                ..SloConfig::default()
            },
            fault: None,
            fault_at_ms: 25_000,
            fault_dur_ms: 20_000,
            loss_per_mille: 700,
            flash_peak: 20.0,
        }
    }

    /// Same protocol with `fault` scripted in.
    pub fn with_fault(load: LoadedConfig, fault: FaultClass) -> MonitoredConfig {
        MonitoredConfig {
            fault: Some(fault),
            ..MonitoredConfig::around(load)
        }
    }
}

/// The outcome of one monitored run: what the detectors saw, when the
/// disturbance actually began, and the frozen incident artifacts.
#[derive(Debug, Clone)]
pub struct MonitorOutcome {
    /// Throughput/latency summary of the run (same shape as a knee point).
    pub point: LoadedPoint,
    /// The scripted class, if any.
    pub fault: Option<FaultClass>,
    /// Ground-truth disturbance onset, µs of virtual time. For fault
    /// injection this is the first *actually injected* fault
    /// ([`Testbed::fault_first_effect_us`]) — dialling a plan has no
    /// observable effect until a delivery attempt draws a fault. For a
    /// flash crowd it is the scripted surge instant.
    pub truth_us: Option<u64>,
    /// `(detector, virtual firing instant µs)` for every latched detector.
    pub detections: Vec<(&'static str, u64)>,
    /// Every frozen incident, rendered and schema-validated.
    pub incidents: Vec<Json>,
}

impl MonitorOutcome {
    /// Time-to-detect for `detector` in virtual ms: firing instant minus
    /// ground truth. `None` if the detector never fired or the run had no
    /// disturbance.
    pub fn ttd_ms(&self, detector: &str) -> Option<f64> {
        let truth = self.truth_us?;
        let (_, at) = self.detections.iter().find(|(d, _)| *d == detector)?;
        Some((*at as f64 - truth as f64) / 1_000.0)
    }
}

/// Renders a fault plan for incident context.
fn fault_plan_json(plan: FaultPlan) -> Json {
    Json::obj([
        ("seed", Json::from(plan.seed)),
        (
            "drop_request_per_mille",
            Json::from(u64::from(plan.drop_request_per_mille)),
        ),
        (
            "drop_response_per_mille",
            Json::from(u64::from(plan.drop_response_per_mille)),
        ),
        (
            "duplicate_per_mille",
            Json::from(u64::from(plan.duplicate_per_mille)),
        ),
        (
            "unavailable_per_mille",
            Json::from(u64::from(plan.unavailable_per_mille)),
        ),
    ])
}

/// Runs the monitored open-loop protocol for one architecture at one
/// delay: closed-loop warm-up, telemetry reset, then
/// [`LoadEngine::run_monitored`] with the scripted disturbance, returning
/// detection timestamps against ground truth and the validated incident
/// artifacts.
///
/// # Panics
/// Panics if a frozen incident fails `validate_incident` — an artifact the
/// monitor itself produced must round-trip its own schema — or if the
/// trace log evicted a span the monitor should have seen (see
/// [`EvictionGuard`]).
pub fn run_point_monitored(
    arch: Architecture,
    delay: SimDuration,
    cfg: MonitoredConfig,
) -> MonitorOutcome {
    let testbed = Testbed::build(
        arch,
        TestbedConfig {
            population: cfg.load.population,
            edges: 1,
            wire_batching: cfg.load.wire_batching,
            ..TestbedConfig::default()
        },
    );
    testbed.set_delay(delay);
    testbed.apply_scale(cfg.load.scale);
    let engine = LoadEngine::new(&testbed);

    let mut generator = SessionGenerator::new(cfg.load.seed, cfg.load.population);
    let mut warm = VirtualClient::new(&testbed, 0);
    for _ in 0..cfg.load.warmup_sessions {
        let session = generator.session();
        warm.run_session(&session);
    }
    testbed.reset_path_stats();
    testbed.reset_telemetry();
    let guard = EvictionGuard::arm(testbed.commit_trace());

    // The arrival process and the fault script realise the scenario.
    let mut process = cfg.load.process;
    let mut schedule: Vec<ScheduledFault> = Vec::new();
    let at = SimDuration::from_millis(cfg.fault_at_ms);
    let until = SimDuration::from_millis(cfg.fault_at_ms + cfg.fault_dur_ms);
    match cfg.fault {
        Some(FaultClass::BackendOutage) => {
            let outage = FaultPlan {
                seed: cfg.load.seed,
                unavailable_per_mille: 1_000,
                ..FaultPlan::NONE
            };
            schedule.push(ScheduledFault { at, plan: outage });
            schedule.push(ScheduledFault {
                at: until,
                plan: FaultPlan::NONE,
            });
        }
        Some(FaultClass::LossBurst) => {
            schedule.push(ScheduledFault {
                at,
                plan: FaultPlan::lossy(cfg.load.seed, cfg.loss_per_mille),
            });
            schedule.push(ScheduledFault {
                at: until,
                plan: FaultPlan::NONE,
            });
        }
        Some(FaultClass::FlashCrowd) => {
            process = ArrivalProcess::FlashCrowd {
                at_us: cfg.fault_at_ms * 1_000,
                dur_us: cfg.fault_dur_ms * 1_000,
                peak: cfg.flash_peak,
            };
        }
        None => {}
    }

    let scripted_plan = schedule.first().map(|s| s.plan);
    let mut monitor = SloMonitor::new(cfg.slo)
        .with_label(format!(
            "{} {}",
            arch_key(arch),
            cfg.fault.map_or("clean", FaultClass::key)
        ))
        .share_metrics(testbed.monitor_metrics());
    monitor.set_context("arch", Json::from(arch_key(arch)));
    monitor.set_context(
        "scenario",
        Json::from(cfg.fault.map_or("clean", FaultClass::key)),
    );
    monitor.set_context("delay_ms", Json::from(delay.as_micros() / 1_000));
    monitor.set_context("session_rps", Json::from(cfg.load.session_rps));
    monitor.set_context(
        "fault_plan",
        fault_plan_json(scripted_plan.unwrap_or(FaultPlan::NONE)),
    );

    let plan = LoadPlan {
        arrivals: ArrivalPlan {
            seed: cfg.load.seed,
            rps: cfg.load.session_rps,
            process,
        },
        sessions: cfg.load.sessions,
        think: SimDuration::from_millis(cfg.load.think_ms),
        session_seed: cfg.load.seed ^ 0x5e55_1011,
        scheduler_seed: cfg.load.seed ^ 0x5c4e_d01e,
        population: cfg.load.population,
    };
    let arrival_us = plan.arrivals.times_us(plan.sessions);
    let t0 = testbed.clock.now().as_micros();
    let run = engine.run_monitored(&plan, None, None, &mut monitor, &schedule);
    guard
        .check(testbed.commit_trace())
        .unwrap_or_else(|e| panic!("run_point_monitored: {e}"));

    let truth_us = match cfg.fault {
        Some(FaultClass::FlashCrowd) => Some(t0 + cfg.fault_at_ms * 1_000),
        Some(_) => testbed.fault_first_effect_us(),
        None => None,
    };

    let arrival_span_s = arrival_us
        .last()
        .zip(arrival_us.first())
        .map_or(0.0, |(last, first)| (last - first) as f64 / 1e6);
    let totals = run.total_latencies_ms();
    let waits: Vec<f64> = run
        .interactions
        .iter()
        .map(|i| i.queue_wait.as_millis_f64())
        .collect();
    let services: Vec<f64> = run
        .interactions
        .iter()
        .map(|i| i.service.as_millis_f64())
        .collect();
    let ok = run.interactions.iter().filter(|i| i.status == 200).count();
    let failed = run.interactions.len() - ok;
    let batched = batch_means(&totals, 20);
    let point = LoadedPoint {
        session_rps: cfg.load.session_rps,
        offered_tps: run.interactions.len() as f64 / arrival_span_s.max(1e-6),
        achieved_tps: run.achieved_tps(),
        latency_ms: batched.overall.mean,
        latency_p50_ms: percentile(&totals, 0.50).unwrap_or(0.0),
        latency_p95_ms: percentile(&totals, 0.95).unwrap_or(0.0),
        latency_p99_ms: percentile(&totals, 0.99).unwrap_or(0.0),
        service_ms: sli_workload::RunStats::of(&services).mean,
        queue_wait_p95_ms: percentile(&waits, 0.95).unwrap_or(0.0),
        peak_queue_depth: run.peak_queue_depth,
        round_trips_per_interaction: testbed.delayed_path(0).stats().round_trips() as f64
            / run.interactions.len().max(1) as f64,
        ok,
        failed,
    };

    let incidents: Vec<Json> = monitor
        .incidents()
        .iter()
        .map(|incident| {
            let json = incident.to_json();
            validate_incident(&json).expect("monitor-frozen incident validates");
            json
        })
        .collect();
    MonitorOutcome {
        point,
        fault: cfg.fault,
        truth_us,
        detections: monitor.detections(),
        incidents,
    }
}

/// Exports `incident` to `results/{name}.incident.json`, validating it
/// against the `sli-edge.incident/v1` schema before writing. Returns the
/// path written.
///
/// # Errors
/// Returns a description of the validation or I/O failure.
pub fn write_incident_json(name: &str, incident: &Json) -> Result<String, String> {
    validate_incident(incident)?;
    let path = format!("results/{name}.incident.json");
    std::fs::create_dir_all("results").map_err(|e| format!("create results/: {e}"))?;
    std::fs::write(&path, incident.render()).map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}

/// Fits latency (ms) against one-way delay (ms); the slope is the latency
/// sensitivity of Table 2.
///
/// Returns `None` for degenerate sweeps (fewer than two distinct delays).
pub fn sensitivity(points: &[SweepPoint]) -> Option<LinearFit> {
    fit(&points
        .iter()
        .map(|p| (p.delay_ms, p.latency_ms))
        .collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_arch::Flavor;

    #[test]
    fn clients_ras_sensitivity_is_two() {
        // One HTTP round trip per interaction ⇒ every ms of one-way delay
        // costs exactly 2 ms of client latency, for every flavor.
        for flavor in [Flavor::Jdbc, Flavor::VanillaEjb, Flavor::CachedEjb] {
            let points = sweep(
                Architecture::ClientsRas(flavor),
                &[0, 40, 80],
                RunConfig::quick(),
            );
            let fit = sensitivity(&points).unwrap();
            assert!(
                (fit.slope - 2.0).abs() < 0.01,
                "{flavor:?}: slope {}",
                fit.slope
            );
            assert!(fit.r2 > 0.999);
            assert!(points.iter().all(|p| p.failed == 0));
        }
    }

    #[test]
    fn es_rdb_vanilla_is_most_sensitive() {
        let cfg = RunConfig::quick();
        let delays = &[0, 40, 80];
        let jdbc = sensitivity(&sweep(Architecture::EsRdb(Flavor::Jdbc), delays, cfg))
            .unwrap()
            .slope;
        let vanilla = sensitivity(&sweep(Architecture::EsRdb(Flavor::VanillaEjb), delays, cfg))
            .unwrap()
            .slope;
        let cached = sensitivity(&sweep(Architecture::EsRdb(Flavor::CachedEjb), delays, cfg))
            .unwrap()
            .slope;
        let rbes = sensitivity(&sweep(Architecture::EsRbes, delays, cfg))
            .unwrap()
            .slope;
        // Paper Table 2 ordering: vanilla (23.6) > cached (13.0) > JDBC
        // (9.4) in ES/RDB, and ES/RBES (3.1) beats all of them but stays
        // above the Clients/RAS floor of 2.
        assert!(vanilla > cached, "vanilla {vanilla} vs cached {cached}");
        assert!(cached > jdbc, "cached {cached} vs jdbc {jdbc}");
        assert!(jdbc > rbes, "jdbc {jdbc} vs rbes {rbes}");
        assert!(rbes > 2.0, "rbes {rbes}");
    }

    #[test]
    fn detailed_run_emits_a_valid_report_row() {
        let (point, report) = run_point_detailed(
            Architecture::EsRbes,
            SimDuration::from_millis(20),
            RunConfig::quick(),
        );
        assert_eq!(report.arch, "ES/RBES (Cached EJBs)");
        assert_eq!(report.delay_ms, 20.0);
        assert_eq!(report.interactions, (point.ok + point.failed) as u64);
        assert!(report.hit_ratio > 0.0, "warm cache serves hits");
        assert!(report.p50_ms > 0.0);
        assert!(report.p99_ms >= report.p95_ms && report.p95_ms >= report.p50_ms);
        assert!(report.status.contains_key("200"));

        let mut run = sli_telemetry::RunReport::new("bench smoke");
        run.entries.push(report);
        sli_telemetry::validate_run_report(&run.to_json()).expect("valid run report");
    }

    #[test]
    fn jitter_reproduces_the_papers_imperfect_fits() {
        let mut cfg = RunConfig::quick();
        cfg.jitter_us = 2_000; // ±2 ms per crossing
        let points = sweep(Architecture::EsRdb(Flavor::Jdbc), &[0, 40, 80], cfg);
        let f = sensitivity(&points).unwrap();
        assert!(f.r2 < 1.0, "jitter must leave residuals");
        assert!(f.r2 > 0.98, "but the fit stays excellent: r2 = {}", f.r2);
        // ~3.3 crossings/interaction since the JDBC engine batches its
        // independent statements (was ~3.9 with one statement per trip).
        assert!(
            (f.slope - 3.3).abs() < 0.5,
            "slope survives jitter: {}",
            f.slope
        );
    }

    #[test]
    fn traced_run_decomposes_every_measured_interaction() {
        let (point, report, harvest) = run_point_traced(
            Architecture::EsRdb(Flavor::CachedEjb),
            SimDuration::from_millis(20),
            RunConfig::quick(),
        );
        // Per-session draining must not lose a single request trace: the
        // breakdown covers exactly the measured interactions, and its
        // bucket sums decompose the total without remainder.
        assert_eq!(harvest.breakdown.traces, report.interactions);
        assert_eq!(harvest.breakdown.traces as usize, point.ok + point.failed);
        assert_eq!(harvest.breakdown.sum_us(), harvest.breakdown.total_us);
        assert!(harvest.breakdown.bucket_us(Bucket::Network) > 0);
        assert!(harvest.breakdown.bucket_us(Bucket::Statement) > 0);
        // The sampled window round-trips through the Chrome-trace export.
        assert!(!harvest.sample_events.is_empty());
        let doc = chrome_trace(&harvest.sample_events);
        validate_chrome_trace(&doc).expect("sampled spans export cleanly");

        // Merging harvests accumulates breakdowns but keeps one sample.
        let mut merged = TraceHarvest::default();
        let sample_len = harvest.sample_events.len();
        merged.merge(harvest.clone());
        merged.merge(harvest.clone());
        assert_eq!(merged.breakdown.traces, 2 * harvest.breakdown.traces);
        assert_eq!(merged.sample_events.len(), sample_len);

        let table = breakdown_table(&[("ES/RDB cached".to_owned(), harvest.breakdown)]);
        assert!(table.contains("network-crossing"));
        assert!(table.contains("statement-execution"));
    }

    #[test]
    fn eviction_guard_fires_when_a_measured_span_is_lost() {
        // One real ES/RBES session's spans, replayed into a log too small
        // to hold them.
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let mut generator = SessionGenerator::new(0x5eed_0013, Population::default());
        VirtualClient::new(&tb, 0).run_session(&generator.session());
        let session = tb.commit_trace().drain();
        let tiny = TraceLog::with_capacity(8);
        assert!(session.len() > tiny.capacity());

        // Evictions before the boundary are the warm-up's and are allowed.
        session.iter().cloned().for_each(|e| tiny.record(e));
        tiny.clear();
        let guard = EvictionGuard::arm(&tiny);
        // Draining within every window loses nothing ...
        for window in session.chunks(tiny.capacity()) {
            window.iter().cloned().for_each(|e| tiny.record(e));
            assert_eq!(tiny.drain(), window);
        }
        assert_eq!(guard.check(&tiny), Ok(()));
        // ... one undrained session overflows and the guard fires.
        session.iter().cloned().for_each(|e| tiny.record(e));
        let lost = session.len() - tiny.capacity();
        let err = guard.check(&tiny).expect_err("measured spans were evicted");
        assert!(
            err.contains(&format!("evicted {lost} measured span")),
            "{err}"
        );
    }

    #[test]
    fn knee_index_flags_the_first_saturated_point() {
        let mut p = LoadedPoint {
            session_rps: 1.0,
            offered_tps: 10.0,
            achieved_tps: 10.0,
            latency_ms: 50.0,
            latency_p50_ms: 50.0,
            latency_p95_ms: 60.0,
            latency_p99_ms: 70.0,
            service_ms: 45.0,
            queue_wait_p95_ms: 1.0,
            peak_queue_depth: 1,
            round_trips_per_interaction: 3.0,
            ok: 100,
            failed: 0,
        };
        let light = p;
        p.offered_tps = 40.0;
        p.achieved_tps = 22.0; // achieved falls >10% short of offered
        let saturated = p;
        assert_eq!(knee_index(&[light, light, saturated]), Some(2));
        // A latency blow-up alone (3× the lightest point) also counts.
        p.achieved_tps = p.offered_tps;
        p.latency_ms = 200.0;
        assert_eq!(knee_index(&[light, p]), Some(1));
        assert_eq!(knee_index(&[light, light]), None);
        assert_eq!(knee_index(&[]), None);
    }

    #[test]
    fn loaded_point_emits_validated_artifacts_with_live_queue_gauges() {
        let run = run_point_loaded(
            Architecture::EsRdb(Flavor::Jdbc),
            SimDuration::from_millis(10),
            LoadedConfig::quick(4.0),
        );
        let p = run.point;
        assert!(p.ok > 0, "loaded run completed interactions");
        assert_eq!(p.failed, 0, "clean run has no failures");
        assert!(p.offered_tps > 0.0 && p.achieved_tps > 0.0);
        assert!(
            p.latency_ms >= p.service_ms,
            "total latency includes queue wait: {} < {}",
            p.latency_ms,
            p.service_ms
        );
        assert!(p.latency_p99_ms >= p.latency_p95_ms && p.latency_p95_ms >= p.latency_p50_ms);
        assert!(
            p.round_trips_per_interaction > 0.0,
            "a wired architecture crosses the delayed path every interaction"
        );

        // The report row validates against the run-report schema.
        assert_eq!(run.report.interactions as usize, p.ok + p.failed);
        let mut doc = sli_telemetry::RunReport::new("loaded smoke");
        doc.entries.push(run.report.clone());
        sli_telemetry::validate_run_report(&doc.to_json()).expect("valid loaded report");

        // The timeline validates and carries live engine gauges.
        let mut tl = TimelineDoc::new("loaded smoke");
        tl.runs.push(run.timeline.clone());
        validate_timeline(&tl.to_json()).expect("valid loaded timeline");
        let series = |name: &str| {
            run.timeline
                .series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("timeline missing {name}"))
        };
        assert!(
            series("engine.in_flight").values.iter().any(|&v| v > 0),
            "in_flight gauge must be non-trivially populated"
        );
        assert!(
            series("engine.queue_depth").values.iter().any(|&v| v > 0),
            "queue_depth gauge must register contention at 4 sessions/s"
        );
        assert_eq!(
            series("engine.dispatches").total,
            p.ok as u64 + p.failed as u64,
            "every interaction is one scheduler dispatch"
        );
        assert_eq!(series("engine.arrivals").total, 60, "one per session");
    }

    #[test]
    fn loaded_sweep_finds_the_saturation_knee() {
        let runs = sweep_loaded(
            Architecture::EsRdb(Flavor::Jdbc),
            SimDuration::from_millis(10),
            &[0.5, 30.0],
            LoadedConfig::quick(0.5),
        );
        let points: Vec<LoadedPoint> = runs.iter().map(|r| r.point).collect();
        // Light load keeps up with the offered rate; 30 sessions/s is far
        // beyond the single-server capacity (~22 interactions/s at 10 ms
        // delay) so throughput flattens and latency explodes.
        assert!(
            points[0].achieved_tps >= 0.9 * points[0].offered_tps,
            "light load keeps up: achieved {} vs offered {}",
            points[0].achieved_tps,
            points[0].offered_tps
        );
        assert_eq!(knee_index(&points), Some(1), "overload point is the knee");
        assert!(points[1].latency_ms > 3.0 * points[0].latency_ms);
        assert!(points[1].peak_queue_depth > points[0].peak_queue_depth);
    }

    #[test]
    fn loaded_runs_are_deterministic_at_the_bench_layer() {
        let cfg = LoadedConfig {
            sessions: 25,
            warmup_sessions: 5,
            ..LoadedConfig::quick(3.0)
        };
        let a = run_point_loaded(Architecture::EsRbes, SimDuration::from_millis(10), cfg);
        let b = run_point_loaded(Architecture::EsRbes, SimDuration::from_millis(10), cfg);
        assert_eq!(a.point, b.point);
        assert_eq!(a.timeline, b.timeline);
    }

    #[test]
    fn loaded_profiles_conserve_latency_for_every_architecture() {
        use sli_arch::{arch_by_key, ARCH_KEYS};
        let cfg = LoadedConfig {
            sessions: 12,
            warmup_sessions: 4,
            ..LoadedConfig::quick(3.0)
        };
        for key in ARCH_KEYS {
            let arch = arch_by_key(key).unwrap();
            let run = run_point_loaded(arch, SimDuration::from_millis(10), cfg);
            // Every dispatched interaction is one complete trace; the
            // profile and the critical-path breakdown must agree on both
            // the trace count and the total measured latency.
            let interactions = (run.point.ok + run.point.failed) as u64;
            assert_eq!(run.profile.traces, interactions, "{key}: trace count");
            assert_eq!(run.harvest.breakdown.traces, interactions, "{key}");
            assert_eq!(
                run.profile.total_us, run.harvest.breakdown.total_us,
                "{key}: profile vs breakdown total"
            );
            // Per-resource self times decompose the total exactly.
            let resource_sum: u64 = Resource::ALL
                .iter()
                .map(|&r| run.profile.resource_us(r))
                .sum();
            assert_eq!(resource_sum, run.profile.total_us, "{key}: conservation");
            validate_profile(&run.profile.to_json(key)).expect("schema-valid profile");
            assert!(!run.profile.folded().is_empty(), "{key}: folded output");
            // Little's law holds exactly on a clean deterministic run.
            assert!(
                run.littles.holds(1e-9),
                "{key}: L = λW violated, relative error {}",
                run.littles.relative_error
            );
        }
    }

    #[test]
    fn whatif_ranks_the_wire_as_the_jdbc_bottleneck() {
        let cfg = LoadedConfig {
            sessions: 15,
            warmup_sessions: 4,
            ..LoadedConfig::quick(3.0)
        };
        let report = whatif(
            Architecture::EsRdb(Flavor::Jdbc),
            SimDuration::from_millis(10),
            cfg,
            2.0,
        );
        assert_eq!(report.rows.len(), WHATIF_KNOBS.len());
        for row in &report.rows {
            assert!(row.causal_share.is_finite());
            assert!(
                row.causal_share > -0.25,
                "{:?}: speeding a resource up must not slow the system meaningfully, got {}",
                row.resource,
                row.causal_share
            );
        }
        // At 10 ms one-way delay the JDBC engine's latency is wire
        // crossings; both the profile and the causal run must agree.
        assert_eq!(report.top_bottleneck(), Resource::Wire);
        assert_eq!(
            report.baseline.profile.bottleneck_ranking()[0],
            Resource::Wire
        );
        let wire = &report.rows[0];
        assert!(
            wire.causal_share > 0.5,
            "wire causal share {} should dominate",
            wire.causal_share
        );
    }

    #[test]
    fn bandwidth_ordering_matches_figure8() {
        let cfg = RunConfig::quick();
        let d = SimDuration::from_millis(20);
        let ras =
            run_point(Architecture::ClientsRas(Flavor::Jdbc), d, cfg).shared_bytes_per_interaction;
        let rbes = run_point(Architecture::EsRbes, d, cfg).shared_bytes_per_interaction;
        let rdb = run_point(Architecture::EsRdb(Flavor::Jdbc), d, cfg).shared_bytes_per_interaction;
        assert!(
            ras > rbes && rbes > rdb,
            "expected RAS ({ras:.0}) > RBES ({rbes:.0}) > RDB ({rdb:.0})"
        );
        assert!(ras > 5_000.0, "Clients/RAS ships whole pages: {ras:.0}");
    }
}
