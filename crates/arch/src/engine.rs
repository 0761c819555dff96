//! The open-loop load engine: many logical sessions multiplexed on virtual
//! time.
//!
//! The paper's protocol is closed-loop — one virtual client issues a
//! request, waits, thinks, repeats — so offered load can never exceed the
//! service rate and the saturation knee is structurally invisible. This
//! engine inverts that: sessions *arrive* on an open-loop
//! [`ArrivalPlan`] schedule whether or not earlier sessions have finished,
//! wait in a ready queue, and interleave at client-RPC boundaries.
//!
//! The execution model is the slicheck [`Scheduler`] promoted from
//! checker-only tool to the main loop. One atomic step = one HTTP round
//! trip ([`VirtualClient::perform`]); whenever more than one session has a
//! ready step, the scheduler decides which fires next, so every loaded run
//! is a recorded, replayable interleaving — the same property the
//! serializability checker exploits, now carried by every measurement.
//!
//! Latency accounting is the standard open-loop decomposition: a request
//! becomes *ready* (session arrival, or think-time expiry), possibly waits
//! while the single virtual CPU serves other sessions, then is dispatched.
//! Its reported latency is `queue_wait + service`, so as the offered rate
//! approaches the service rate the queue grows and the latency curve bends
//! up — the knee the `knee` bin plots.

use std::sync::Arc;

use sli_simnet::{CrashKind, FaultPlan, Scheduler, SimDuration, SimTime};
use sli_telemetry::{Counter, Gauge, Histogram, Registry, SloMonitor, SpanEvent, Timeline};
use sli_trade::seed::Population;
use sli_trade::session::SessionGenerator;
use sli_trade::TradeAction;
use sli_workload::ArrivalPlan;

use crate::client::VirtualClient;
use crate::topology::Testbed;

/// Everything that defines one open-loop loaded run.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// The session arrival schedule (rate, shape, seed).
    pub arrivals: ArrivalPlan,
    /// How many logical sessions arrive in total.
    pub sessions: usize,
    /// Per-session think time between consecutive interactions.
    pub think: SimDuration,
    /// Seed of the per-session action scripts (the trade mix).
    pub session_seed: u64,
    /// Seed of the dispatch scheduler's random walk.
    pub scheduler_seed: u64,
    /// Database population the scripts draw users/symbols from.
    pub population: Population,
}

impl LoadPlan {
    /// A plan with Poisson arrivals at `rps` sessions/second and the
    /// engine's default seeds and think time (500 ms — browsers pause
    /// between clicks even when servers are melting).
    pub fn poisson(rps: f64, sessions: usize, seed: u64) -> LoadPlan {
        LoadPlan {
            arrivals: ArrivalPlan::poisson(seed, rps),
            sessions,
            think: SimDuration::from_millis(500),
            session_seed: seed ^ 0x5e55_1011,
            scheduler_seed: seed ^ 0x5c4e_d01e,
            population: Population::default(),
        }
    }
}

/// One dispatched interaction under load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadedInteraction {
    /// Which logical session issued it (arrival order, from 0).
    pub session: u32,
    /// Time spent ready-but-undispatched while other sessions were served.
    pub queue_wait: SimDuration,
    /// Service time of the HTTP round trip itself.
    pub service: SimDuration,
    /// HTTP status of the response.
    pub status: u16,
}

impl LoadedInteraction {
    /// What the user experienced: queue wait plus service.
    pub fn total(&self) -> SimDuration {
        self.queue_wait + self.service
    }
}

/// Telemetry handles for the engine itself, registered under `engine.*`:
/// session arrival/completion rates, the in-flight session level and the
/// ready-queue depth — the load-side counterparts of the per-path
/// `in_flight` gauges.
#[derive(Debug, Clone, Default)]
pub struct LoadMetrics {
    /// Sessions admitted so far.
    pub arrivals: Counter,
    /// Sessions fully completed.
    pub completions: Counter,
    /// Interactions dispatched.
    pub dispatches: Counter,
    /// Live sessions: arrived but not yet completed.
    pub in_flight: Gauge,
    /// Sessions with a ready step waiting for the scheduler.
    pub queue_depth: Gauge,
    /// Distribution of per-interaction queue waits (µs).
    pub queue_wait_us: Histogram,
}

impl LoadMetrics {
    /// Attaches every handle to `registry` under `prefix` (dotted names,
    /// e.g. `engine.queue_depth`).
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.arrivals"), &self.arrivals);
        registry.attach_counter(format!("{prefix}.completions"), &self.completions);
        registry.attach_counter(format!("{prefix}.dispatches"), &self.dispatches);
        registry.attach_gauge(format!("{prefix}.in_flight"), &self.in_flight);
        registry.attach_gauge(format!("{prefix}.queue_depth"), &self.queue_depth);
        registry.attach_histogram(format!("{prefix}.queue_wait_us"), &self.queue_wait_us);
    }

    /// Tracks arrival/completion/dispatch rates and both level gauges in
    /// `timeline` under the [`LoadMetrics::register_with`] names.
    pub fn timeline_into(&self, timeline: &Timeline, prefix: &str) {
        timeline.track_counter(format!("{prefix}.arrivals"), &self.arrivals);
        timeline.track_counter(format!("{prefix}.completions"), &self.completions);
        timeline.track_counter(format!("{prefix}.dispatches"), &self.dispatches);
        timeline.track_gauge(format!("{prefix}.in_flight"), &self.in_flight);
        timeline.track_gauge(format!("{prefix}.queue_depth"), &self.queue_depth);
    }
}

/// The result of one loaded run.
#[derive(Debug, Clone)]
pub struct LoadedRun {
    /// Every dispatched interaction, in dispatch order.
    pub interactions: Vec<LoadedInteraction>,
    /// When the first session arrived.
    pub first_arrival: SimTime,
    /// When the last interaction completed.
    pub end: SimTime,
    /// Largest ready-queue depth observed.
    pub peak_queue_depth: u64,
    /// The scheduler's recorded choice sequence length (one per dispatch).
    pub schedule_len: usize,
    /// Exact integral of the live-session level over the run
    /// (`∫ in_flight dt`, in session-microseconds) — the numerator of
    /// Little's-law `L̄`.
    pub in_flight_area_us: u64,
    /// Sum of per-session residences (admission → completion, µs) — the
    /// numerator of Little's-law `W̄`. Equals `in_flight_area_us` by
    /// construction (Fubini: each live session contributes its residence
    /// interval to the level integral).
    pub residence_sum_us: u64,
    /// Sessions that ran their script to completion.
    pub sessions_completed: u64,
}

impl LoadedRun {
    /// Virtual time from first arrival to last completion.
    pub fn makespan(&self) -> SimDuration {
        self.end
            .checked_since(self.first_arrival)
            .expect("a run ends after its first arrival")
    }

    /// Achieved throughput: completed interactions per second of virtual
    /// time over the makespan.
    pub fn achieved_tps(&self) -> f64 {
        let span_s = self.makespan().as_micros() as f64 / 1e6;
        if span_s == 0.0 {
            0.0
        } else {
            self.interactions.len() as f64 / span_s
        }
    }

    /// Per-interaction total latencies (queue wait + service) in ms.
    pub fn total_latencies_ms(&self) -> Vec<f64> {
        self.interactions
            .iter()
            .map(|i| i.total().as_millis_f64())
            .collect()
    }

    /// Little's-law check over the run: `L̄ = λ·W̄` with `L̄` from the exact
    /// level integral, `λ` from completed sessions over the makespan and
    /// `W̄` from measured residences. The identity is exact for the engine
    /// (integer arithmetic, no sampling), so any drift flags an accounting
    /// bug in the loop itself.
    pub fn littles_law(&self) -> sli_telemetry::LittlesLaw {
        sli_telemetry::littles_law(
            self.in_flight_area_us,
            self.residence_sum_us,
            self.sessions_completed,
            self.makespan().as_micros(),
        )
    }
}

/// Callback fed every span batch drained from the testbed's trace log
/// after a dispatch step of an observed run.
pub type SpanObserver<'a> = &'a mut dyn FnMut(&[SpanEvent]);

/// One mid-run fault-plan change on a monitored run's script: at virtual
/// offset `at` from the run's start, dial `plan` onto the testbed's delayed
/// paths ([`Testbed::set_faults`]). A scenario is a sequence of these — an
/// outage is a faulty plan followed by [`FaultPlan::NONE`] at the recovery
/// instant. The plan change itself is instantaneous; its *first effect* is
/// the next delivery attempt, which the paths timestamp
/// (`Path::first_fault_at_us`) as the detection ground truth.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledFault {
    /// Virtual-time offset from the run's start.
    pub at: SimDuration,
    /// The plan to dial at that instant.
    pub plan: FaultPlan,
}

/// One scripted machine death on a loaded run: at virtual offset `at` from
/// the run's start the machine `kind` names is killed ([`Testbed::crash`]),
/// and `restart_after` later it is restarted ([`Testbed::restart`] — a
/// backend restart replays the WAL and reseeds the dedup tables; an edge
/// restart comes back with cold caches). Both transitions apply at the
/// loop's change points — the instants between atomic dispatch steps — so
/// a crash lands at an exact, replayable position in the interleaving:
/// every RPC issued toward the dead machine fails as an outage and the
/// affected sessions retry through the transport's backoff policy.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledCrash {
    /// Virtual-time offset of the kill from the run's start.
    pub at: SimDuration,
    /// Which machine dies.
    pub kind: CrashKind,
    /// How long the machine stays down before restarting.
    pub restart_after: SimDuration,
}

/// A live session mid-run: its client (cookie state), remaining script and
/// the instant its next step becomes ready.
struct LiveSession<'t> {
    id: u32,
    client: VirtualClient<'t>,
    actions: Vec<TradeAction>,
    next: usize,
    ready_at: SimTime,
    /// When the session joined the live set (loop-top admission instant;
    /// under saturation this can lag the scheduled arrival because the
    /// loop only admits between dispatches). Residence is measured from
    /// here so it matches the `in_flight` gauge exactly; the scheduled
    /// lateness is already captured by `queue_wait`.
    admitted_at: SimTime,
}

/// The concurrent-session main loop over one [`Testbed`].
pub struct LoadEngine<'t> {
    testbed: &'t Testbed,
    metrics: Arc<LoadMetrics>,
}

impl<'t> LoadEngine<'t> {
    /// Creates an engine over `testbed` and registers its metrics with the
    /// testbed's telemetry registry under `engine.*`.
    pub fn new(testbed: &'t Testbed) -> LoadEngine<'t> {
        let metrics = Arc::new(LoadMetrics::default());
        metrics.register_with(testbed.telemetry(), "engine");
        LoadEngine { testbed, metrics }
    }

    /// The engine's own telemetry handles (see [`LoadMetrics`]).
    pub fn metrics(&self) -> &Arc<LoadMetrics> {
        &self.metrics
    }

    /// Runs `plan` to completion: admits sessions per the arrival schedule,
    /// lets the scheduler pick among ready sessions at every step, and
    /// returns every interaction with its queue-wait/service split.
    ///
    /// If `timeline` is given it is sampled after every dispatch, so level
    /// series capture the queue building and draining. Arrival offsets are
    /// anchored at the clock's position on entry (testbed construction has
    /// already spent some virtual time on connection handshakes).
    pub fn run(&self, plan: &LoadPlan, timeline: Option<&Timeline>) -> LoadedRun {
        self.run_observed(plan, timeline, None)
    }

    /// [`LoadEngine::run`] with a span-harvest hook: after every dispatch
    /// the testbed's commit-trace log is drained and handed to `observer`
    /// before being cleared.
    ///
    /// One dispatch ([`VirtualClient::perform`]) is one atomic step, so at
    /// drain time the log holds only *complete* traces — no span of an
    /// in-flight interaction can be split across two drains, and sessions
    /// completing out of admission order cannot drop or double-count spans.
    /// Draining per dispatch also bounds the log: without it a long loaded
    /// run overflows the fixed-capacity trace ring and silently sheds the
    /// oldest spans.
    pub fn run_observed(
        &self,
        plan: &LoadPlan,
        timeline: Option<&Timeline>,
        observer: Option<SpanObserver<'_>>,
    ) -> LoadedRun {
        self.run_driven(plan, timeline, observer, None, &[], &[])
    }

    /// [`LoadEngine::run`] with a script of machine deaths: each
    /// [`ScheduledCrash`] kills its machine at an exact virtual-time change
    /// point mid-run and restarts it after its downtime. Sessions whose
    /// RPCs land in the downtime window fail as outages and retry; a
    /// backend restart replays the WAL before traffic resumes.
    pub fn run_with_crashes(
        &self,
        plan: &LoadPlan,
        timeline: Option<&Timeline>,
        crashes: &[ScheduledCrash],
    ) -> LoadedRun {
        self.run_driven(plan, timeline, None, None, &[], crashes)
    }

    /// [`LoadEngine::run_observed`] under live SLO monitoring, with an
    /// optional script of mid-run fault-plan changes.
    ///
    /// The monitor is fed at the loop's existing change points, so its
    /// detection timestamps are exact virtual times of state transitions
    /// rather than sampling artifacts: [`SloMonitor::evaluate`] runs after
    /// every admission batch (the queue detectors see depth the instant it
    /// changes) and [`SloMonitor::observe_interaction`] runs at each
    /// completion with the interaction's total latency and HTTP verdict.
    /// The engine binds its own `queue_depth` gauge into the monitor and
    /// drains the commit-trace log into the flight recorder (sharing the
    /// drain with `observer`, which still sees every span exactly once).
    /// Entries in `schedule` are applied in offset order the moment virtual
    /// time crosses them.
    pub fn run_monitored(
        &self,
        plan: &LoadPlan,
        timeline: Option<&Timeline>,
        observer: Option<SpanObserver<'_>>,
        monitor: &mut SloMonitor,
        schedule: &[ScheduledFault],
    ) -> LoadedRun {
        monitor.bind_queue_gauge(self.metrics.queue_depth.clone());
        self.run_driven(plan, timeline, observer, Some(monitor), schedule, &[])
    }

    /// The one loaded main loop behind [`LoadEngine::run`],
    /// [`LoadEngine::run_observed`] and [`LoadEngine::run_monitored`].
    fn run_driven(
        &self,
        plan: &LoadPlan,
        timeline: Option<&Timeline>,
        mut observer: Option<SpanObserver<'_>>,
        mut monitor: Option<&mut SloMonitor>,
        schedule: &[ScheduledFault],
        crashes: &[ScheduledCrash],
    ) -> LoadedRun {
        assert!(plan.sessions > 0, "a loaded run needs at least one session");
        let clock = &self.testbed.clock;
        let edges = self.testbed.edges.len();
        let start = clock.now();

        // The whole schedule and every script are fixed up front: the run
        // is a pure function of the plan.
        let arrival_times: Vec<SimTime> = plan
            .arrivals
            .times_us(plan.sessions)
            .into_iter()
            .map(|us| start + SimDuration::from_micros(us))
            .collect();
        let mut generator = SessionGenerator::new(plan.session_seed, plan.population);
        let scripts: Vec<Vec<TradeAction>> =
            (0..plan.sessions).map(|_| generator.session()).collect();
        let mut scheduler = Scheduler::random(plan.scheduler_seed);
        let mut fault_script: Vec<(SimTime, FaultPlan)> =
            schedule.iter().map(|s| (start + s.at, s.plan)).collect();
        fault_script.sort_by_key(|&(t, _)| t);
        let mut next_fault_change = 0usize;
        // Each scripted crash unrolls to a kill event and a restart event;
        // both apply at the loop-top change point the moment virtual time
        // crosses them, so the interleaving position is exact and replays.
        let mut crash_script: Vec<(SimTime, CrashKind, bool)> = crashes
            .iter()
            .flat_map(|c| {
                [
                    (start + c.at, c.kind, true),
                    (start + c.at + c.restart_after, c.kind, false),
                ]
            })
            .collect();
        crash_script.sort_by_key(|&(t, _, _)| t);
        let mut next_crash_change = 0usize;

        let expected: usize = scripts.iter().map(Vec::len).sum();
        let mut interactions = Vec::with_capacity(expected);
        let mut live: Vec<LiveSession<'t>> = Vec::new();
        let mut next_arrival = 0usize;
        let mut peak_queue_depth = 0u64;
        // Little's-law accounting: the level integral advances at every
        // change point (admission, completion); residences accumulate at
        // completion. Both in exact integer microseconds.
        let mut in_flight_area_us = 0u64;
        let mut residence_sum_us = 0u64;
        let mut sessions_completed = 0u64;
        let mut last_level_change = start;

        loop {
            let now = clock.now();
            // Dial any fault-plan change whose instant has passed.
            while next_fault_change < fault_script.len() && fault_script[next_fault_change].0 <= now
            {
                self.testbed.set_faults(fault_script[next_fault_change].1);
                next_fault_change += 1;
            }
            // Apply any machine death / restart whose instant has passed.
            while next_crash_change < crash_script.len() && crash_script[next_crash_change].0 <= now
            {
                let (_, kind, down) = crash_script[next_crash_change];
                if down {
                    self.testbed.crash(kind);
                } else {
                    self.testbed.restart(kind);
                }
                next_crash_change += 1;
            }
            // Admit every session whose arrival instant has passed.
            while next_arrival < plan.sessions && arrival_times[next_arrival] <= now {
                in_flight_area_us += live.len() as u64
                    * now
                        .checked_since(last_level_change)
                        .expect("virtual time is monotonic")
                        .as_micros();
                last_level_change = now;
                live.push(LiveSession {
                    id: next_arrival as u32,
                    client: VirtualClient::new(self.testbed, next_arrival % edges.max(1)),
                    actions: scripts[next_arrival].clone(),
                    next: 0,
                    ready_at: arrival_times[next_arrival],
                    admitted_at: now,
                });
                self.metrics.arrivals.inc();
                next_arrival += 1;
            }
            self.metrics.in_flight.set(live.len() as u64);

            let ready: Vec<usize> = (0..live.len())
                .filter(|&i| live[i].ready_at <= now)
                .collect();
            self.metrics.queue_depth.set(ready.len() as u64);
            peak_queue_depth = peak_queue_depth.max(ready.len() as u64);
            if let Some(mon) = monitor.as_deref_mut() {
                mon.evaluate(now.as_micros());
            }

            if ready.is_empty() {
                // Idle: jump straight to the next event — the earliest
                // pending arrival or think-time expiry. Nothing left means
                // the run is over.
                let next_event = live
                    .iter()
                    .map(|s| s.ready_at)
                    .chain(arrival_times.get(next_arrival).copied())
                    .chain(crash_script.get(next_crash_change).map(|&(t, _, _)| t))
                    .min();
                match next_event {
                    Some(t) => {
                        clock.advance_to(t);
                        continue;
                    }
                    None => break,
                }
            }

            // The scheduler — the slicheck execution model — picks which
            // ready session's step fires.
            let pick = scheduler.pick(ready.len() as u32) as usize;
            let idx = ready[pick];
            let queue_wait = now
                .checked_since(live[idx].ready_at)
                .expect("ready sessions became ready in the past");
            let action = live[idx].actions[live[idx].next].clone();
            let outcome = live[idx].client.perform(&action);
            self.metrics.dispatches.inc();
            self.metrics.queue_wait_us.record(queue_wait.as_micros());
            interactions.push(LoadedInteraction {
                session: live[idx].id,
                queue_wait,
                service: outcome.latency,
                status: outcome.status,
            });

            live[idx].next += 1;
            if live[idx].next == live[idx].actions.len() {
                let done_at = clock.now();
                in_flight_area_us += live.len() as u64
                    * done_at
                        .checked_since(last_level_change)
                        .expect("virtual time is monotonic")
                        .as_micros();
                last_level_change = done_at;
                residence_sum_us += done_at
                    .checked_since(live[idx].admitted_at)
                    .expect("a session completes after its admission")
                    .as_micros();
                sessions_completed += 1;
                live.swap_remove(idx);
                self.metrics.completions.inc();
                self.metrics.in_flight.set(live.len() as u64);
            } else {
                live[idx].ready_at = clock.now() + plan.think;
            }
            if observer.is_some() || monitor.is_some() {
                let events = self.testbed.commit_trace().drain();
                if !events.is_empty() {
                    if let Some(mon) = monitor.as_deref_mut() {
                        mon.observe_spans(&events);
                    }
                    if let Some(obs) = observer.as_mut() {
                        obs(&events);
                    }
                }
            }
            if let Some(mon) = monitor.as_deref_mut() {
                // Completion change point: the dispatch just finished at
                // the clock's position, with the latency the user saw.
                let done = interactions
                    .last()
                    .expect("a dispatch step pushes its interaction");
                mon.observe_interaction(
                    clock.now().as_micros(),
                    done.total().as_micros(),
                    done.status == 200,
                );
            }
            if let Some(tl) = timeline {
                tl.sample(clock.now().as_micros());
            }
        }

        LoadedRun {
            interactions,
            first_arrival: arrival_times[0],
            end: clock.now(),
            peak_queue_depth,
            schedule_len: scheduler.taken().len(),
            in_flight_area_us,
            residence_sum_us,
            sessions_completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Architecture, Flavor, Testbed, TestbedConfig};
    use sli_telemetry::SloConfig;

    fn plan(rps: f64, sessions: usize) -> LoadPlan {
        LoadPlan::poisson(rps, sessions, 77)
    }

    #[test]
    fn loaded_run_dispatches_every_scripted_interaction() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let run = engine.run(&plan(20.0, 12), None);
        assert_eq!(run.schedule_len, run.interactions.len());
        assert_eq!(engine.metrics().completions.get(), 12);
        assert_eq!(
            engine.metrics().dispatches.get() as usize,
            run.interactions.len()
        );
        assert!(run.interactions.iter().all(|i| i.status == 200));
        assert!(run.makespan() > SimDuration::ZERO);
    }

    #[test]
    fn loaded_runs_are_deterministic() {
        let collect = || {
            let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            engine.run(&plan(50.0, 10), None).interactions
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn overload_builds_a_queue_and_underload_does_not() {
        // Service time is ~5–15 ms per interaction; 2 sessions/s (~22
        // interactions/s with 11 actions each at zero think) is light,
        // 2 000/s is far past saturation.
        let run_at = |rps: f64| {
            let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            let mut p = plan(rps, 30);
            p.think = SimDuration::ZERO;
            engine.run(&p, None)
        };
        let light = run_at(2.0);
        let crushed = run_at(2_000.0);
        assert!(
            crushed.peak_queue_depth >= 10,
            "overload must pile sessions up, saw {}",
            crushed.peak_queue_depth
        );
        let wait = |r: &LoadedRun| {
            r.interactions
                .iter()
                .map(|i| i.queue_wait.as_micros())
                .sum::<u64>()
                / r.interactions.len() as u64
        };
        assert!(
            wait(&crushed) > 10 * wait(&light).max(1),
            "mean queue wait must explode past the knee: light {} vs crushed {}",
            wait(&light),
            wait(&crushed)
        );
        assert!(light.peak_queue_depth <= 3);
    }

    #[test]
    fn sessions_interleave_under_load() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let mut p = plan(500.0, 8);
        p.think = SimDuration::ZERO;
        let run = engine.run(&p, None);
        // Under heavy load the dispatch order must mix sessions rather
        // than running them back-to-back.
        let order: Vec<u32> = run.interactions.iter().map(|i| i.session).collect();
        let switches = order.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches > 8,
            "expected interleaving, saw session order {order:?}"
        );
    }

    #[test]
    fn littles_law_is_an_exact_identity_for_the_engine() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let mut p = plan(200.0, 25);
        p.think = SimDuration::ZERO;
        let run = engine.run(&p, None);
        assert_eq!(run.sessions_completed, 25);
        // Fubini: the level integral and the residence sum are the same
        // quantity counted two ways — any difference is an accounting bug.
        assert_eq!(run.in_flight_area_us, run.residence_sum_us);
        assert!(run.in_flight_area_us > 0);
        let ll = run.littles_law();
        assert!(
            ll.holds(1e-9),
            "L = λW must hold exactly, relative error {}",
            ll.relative_error
        );
        assert!(ll.avg_in_flight > 0.0);
    }

    #[test]
    fn observed_runs_drain_every_span_exactly_once() {
        let run_with = |observe: bool| {
            let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            let mut p = plan(300.0, 10);
            p.think = SimDuration::ZERO;
            if observe {
                let mut drained: Vec<SpanEvent> = Vec::new();
                let mut obs = |events: &[SpanEvent]| drained.extend_from_slice(events);
                engine.run_observed(&p, None, Some(&mut obs));
                assert!(
                    tb.commit_trace().is_empty(),
                    "observer must leave the log drained"
                );
                drained
            } else {
                engine.run(&p, None);
                tb.commit_trace().events()
            }
        };
        let drained = run_with(true);
        let whole = run_with(false);
        // Sessions complete out of admission order (swap_remove), yet the
        // per-dispatch drain must see the same spans as an end-of-run
        // harvest: none dropped, none twice.
        let key = |e: &SpanEvent| (e.trace_id, e.span_id, e.op, e.start_us, e.end_us);
        assert_eq!(drained.len(), whole.len());
        assert_eq!(
            drained.iter().map(key).collect::<Vec<_>>(),
            whole.iter().map(key).collect::<Vec<_>>()
        );
        let mut ids: Vec<(u64, u64)> = drained.iter().map(|e| (e.trace_id, e.span_id)).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "span ids must be unique across drains");
    }

    fn quick_slo() -> SloConfig {
        // Shortened windows / early arming so a sub-second loaded run can
        // exercise every detector; thresholds keep the defaults' shape.
        SloConfig {
            fast_window_us: 500_000,
            slow_window_us: 2_000_000,
            avail_window_us: 1_000_000,
            min_events: 6,
            calibration: 30,
            ..SloConfig::default()
        }
    }

    #[test]
    fn monitored_run_detects_a_scripted_outage_after_it_starts() {
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let mut p = plan(60.0, 25);
        p.think = SimDuration::ZERO;
        let mut monitor = SloMonitor::new(quick_slo())
            .with_label("EsRbes outage drill")
            .share_metrics(tb.monitor_metrics());
        let outage = FaultPlan {
            seed: 9,
            unavailable_per_mille: 1_000,
            ..FaultPlan::NONE
        };
        let schedule = [ScheduledFault {
            at: SimDuration::from_millis(120),
            plan: outage,
        }];
        let t0 = tb.clock.now().as_micros();
        let run = engine.run_monitored(&p, None, None, &mut monitor, &schedule);
        assert_eq!(run.sessions_completed, 25, "the run must still complete");
        // Ground truth is the first *injected* fault, not the dial instant:
        // the plan change only bites on the next delivery attempt.
        let truth = tb
            .fault_first_effect_us()
            .expect("a total outage must inject at least one fault");
        assert!(truth >= t0 + 120_000, "truth {truth} vs dial at {t0}+120ms");
        let detections = monitor.detections();
        assert!(
            !detections.is_empty(),
            "a total back-end outage must trip at least one detector"
        );
        for (name, at) in &detections {
            assert!(
                *at >= truth,
                "detector {name} fired at {at}, before the first injection at {truth}"
            );
        }
        // Every frozen incident is a valid artifact, and the shared
        // registry handles saw exactly those firings.
        assert_eq!(monitor.incidents().len(), detections.len());
        for incident in monitor.incidents() {
            sli_telemetry::validate_incident(&incident.to_json()).expect("incident validates");
        }
        assert_eq!(
            tb.monitor_metrics().incidents.get(),
            detections.len() as u64
        );
        assert!(tb.monitor_metrics().evaluations.get() > 0);
    }

    #[test]
    fn monitored_clean_run_fires_nothing_and_matches_plain_run() {
        let interactions_of = |monitored: bool| {
            let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            // Below the saturation knee: stationary latency. (Past the
            // knee, queue growth is *genuine* drift and should fire.)
            let mut p = plan(4.0, 15);
            p.think = SimDuration::ZERO;
            if monitored {
                let mut monitor = SloMonitor::new(quick_slo());
                let run = engine.run_monitored(&p, None, None, &mut monitor, &[]);
                assert!(
                    monitor.incidents().is_empty(),
                    "clean traffic must not trip detectors: {:?}",
                    monitor.detections()
                );
                assert!(tb.fault_first_effect_us().is_none());
                run.interactions
            } else {
                engine.run(&p, None).interactions
            }
        };
        // Monitoring is pure observation: the run itself is bit-identical.
        assert_eq!(interactions_of(true), interactions_of(false));
    }

    #[test]
    fn scripted_backend_crash_recovers_and_the_run_completes() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let mut p = plan(60.0, 12);
        p.think = SimDuration::ZERO;
        let crashes = [ScheduledCrash {
            at: SimDuration::from_millis(40),
            kind: CrashKind::Backend,
            restart_after: SimDuration::from_millis(25),
        }];
        let run = engine.run_with_crashes(&p, None, &crashes);
        assert_eq!(run.sessions_completed, 12, "every session must finish");
        let wal = tb.db.wal_stats();
        assert_eq!(wal.recoveries, 1, "the restart must replay the WAL");
        assert!(wal.flushes > 0, "writing commits group-commit to the log");
        assert!(
            tb.fault_first_effect_us().is_some(),
            "RPCs into the downtime window must fail as outages"
        );
        assert!(
            run.interactions.iter().any(|i| i.status != 200),
            "some interaction lands in the downtime window"
        );
        assert!(
            run.interactions
                .iter()
                .rev()
                .take(5)
                .all(|i| i.status == 200),
            "traffic must be healthy again after the restart"
        );
        assert!(!tb.db.is_crashed());
    }

    #[test]
    fn scripted_crash_runs_replay_deterministically() {
        let collect = || {
            let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            let mut p = plan(50.0, 10);
            p.think = SimDuration::ZERO;
            let crashes = [ScheduledCrash {
                at: SimDuration::from_millis(30),
                kind: CrashKind::Backend,
                restart_after: SimDuration::from_millis(20),
            }];
            let run = engine.run_with_crashes(&p, None, &crashes);
            (run.interactions, tb.db.wal_stats())
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn scripted_edge_crash_restarts_caches_cold() {
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let mut p = plan(40.0, 10);
        p.think = SimDuration::ZERO;
        let crashes = [ScheduledCrash {
            at: SimDuration::from_millis(60),
            kind: CrashKind::Edge,
            restart_after: SimDuration::from_millis(20),
        }];
        let run = engine.run_with_crashes(&p, None, &crashes);
        assert_eq!(run.sessions_completed, 10);
        // The edge restarted cold mid-run, so the store was rebuilt by
        // post-restart misses — and no WAL replay happened (the database
        // machine never died).
        assert_eq!(tb.db.wal_stats().recoveries, 0);
        assert!(tb.edges[0].store.as_ref().unwrap().stats().misses > 0);
    }

    #[test]
    fn engine_metrics_land_in_the_registry() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        engine.run(&plan(100.0, 5), None);
        let names = tb.telemetry().names();
        for expected in [
            "engine.arrivals",
            "engine.completions",
            "engine.in_flight",
            "engine.queue_depth",
            "engine.queue_wait_us",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected}; have {names:?}"
            );
        }
    }
}
