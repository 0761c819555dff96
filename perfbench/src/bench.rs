//! One benchmark run: episodes until the time is up, then the metrics.

use std::time::Instant;

use sli_telemetry::Resource;
use sli_workload::batch_means;

use crate::report::Metric;
use crate::run::{
    closed_plain, closed_traced, open_episode, open_rung, Episode, Inputs, OpenRung, Traced,
};
use crate::stats::{
    growth_ratio, max_rps_at_slo, mean, median, median_episode_ns, quantile, tail_level, Ratio,
};
use crate::timed::{Layer, Span, ACTIONS, NO_PARENT};
use crate::workload::{Workload, SLO_MS};

/// Batches of the paper's batched-mean latency.
const BATCHES: usize = 20;

/// Episodes a run makes at least, however short its time.
const MIN_EPISODES: usize = 3;

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, in the order they are printed.
    pub metrics: Vec<Metric>,
    /// Measurements printed with the metrics but left out of the result
    /// line: recorded, never gated.
    pub records: Vec<Metric>,
    /// Interactions attempted over every episode.
    pub attempted: u64,
    /// Interactions that did not answer 200.
    pub failed: u64,
    /// Output checks: name and failure detail (empty when passed).
    pub checks: Vec<(String, Vec<String>)>,
    /// Episodes made.
    pub episodes: usize,
    /// One line per episode: its host set-up and measured-phase figures.
    pub episode_lines: Vec<String>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, f)| f.is_empty())
    }

    fn check(&mut self, name: &str, failures: Vec<String>) {
        self.checks.push((name.to_owned(), failures));
    }
}

fn medians(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Runs `until` repeatedly until `seconds` have passed and at least
/// [`MIN_EPISODES`] episodes were made.
fn repeat<T>(seconds: f64, mut until: impl FnMut() -> T) -> Vec<T> {
    let t = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_EPISODES || t.elapsed().as_secs_f64() < seconds {
        out.push(until());
    }
    out
}

/// Simulated interactions per host second of the median episode.
///
/// Not an end-to-end metric: host speed on a shared VM drifts by 30 to 60 %
/// over minutes, more than any bound a regression gate could use, so the
/// untraced run prints it and the traced run records it per layer.
fn sim_rate(eps: &[&Episode], at: &str) -> Metric {
    let measured: Vec<&[u64]> = eps.iter().map(|e| e.interaction_ns.as_slice()).collect();
    Metric::new(
        "sim_interactions_per_s",
        measured[0].len() as f64 / (median_episode_ns(&measured) / 1e9),
        "1/s",
        format!(
            "median episode of {} measured phases of {} interactions each{at}",
            eps.len(),
            measured[0].len()
        ),
    )
}

/// Every episode's virtual results equal the first one's.
fn determinism(eps: &[&Episode]) -> Vec<String> {
    eps.iter()
        .enumerate()
        .skip(1)
        .filter(|(_, e)| e.virt != eps[0].virt)
        .map(|(i, _)| format!("episode {i} differs from episode 0 on the same seed"))
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn untraced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let eps: Vec<Episode> = match &w.open {
        None => {
            let inputs = Inputs::closed(w, seed);
            repeat(seconds, || closed_plain(w, seed, &inputs))
        }
        Some(_) => {
            let warmup = Inputs::replay(w, seed).warmup;
            repeat(seconds, || open_episode(w, seed, &warmup))
        }
    };
    out.episodes = eps.len();
    for ep in &eps {
        out.attempted += ep.virt.interactions;
        out.failed += ep.virt.failed;
        out.episode_lines.push(format!(
            "setup_s {:.6} sim_interactions_per_s {:.1} peak_rss_mib {:.3}",
            ep.setup_ns as f64 / 1e9,
            ep.rate(),
            ep.peak_rss_mib
        ));
    }
    out.check(
        "outputs",
        eps.iter()
            .flat_map(|e| e.failures.iter().cloned())
            .collect(),
    );
    out.check(
        "virtual-determinism",
        determinism(&eps.iter().collect::<Vec<_>>()),
    );

    let n = eps.len();
    let first = &eps[0].virt;
    let lat = first.latencies_ms();
    let tail = tail_level(lat.len());
    let at = match &w.open {
        Some(open) => format!(" at {} sessions/s", open.reference_rps),
        None => String::new(),
    };
    let mut m = Vec::new();
    let warmups: Vec<&[u64]> = eps.iter().map(|e| e.warmup_ns.as_slice()).collect();
    let setup_ns = medians(eps.iter().map(|e| e.build_ns() as f64)) + median_episode_ns(&warmups);
    m.push(Metric::new(
        "setup_s",
        setup_ns / 1e9,
        "s",
        format!(
            "median episode of {n} set-ups ({} warm-up interactions each)",
            warmups[0].len()
        ),
    ));
    out.records
        .push(sim_rate(&eps.iter().collect::<Vec<_>>(), &at));
    m.push(Metric::new(
        "peak_rss_mib",
        eps[0].peak_rss_mib,
        "MiB",
        "VmHWM when the first episode ends".to_owned(),
    ));
    m.push(Metric::new(
        "virt_latency_ms_mean",
        batch_means(&lat, BATCHES).overall.mean,
        "ms",
        format!(
            "batched over {BATCHES} batches of {} interactions{at}",
            lat.len()
        ),
    ));
    m.push(Metric::new(
        "virt_latency_ms_p50",
        quantile(&lat, 0.5).unwrap_or(0.0),
        "ms",
        format!("n={}{at}", lat.len()),
    ));
    let beyond = crate::stats::samples_beyond(lat.len(), 9_900);
    m.push(Metric::new(
        "virt_latency_ms_p99",
        quantile(&lat, 0.99).unwrap_or(0.0),
        "ms",
        format!(
            "n={}, {beyond} beyond{at}; highest percentile with >= 10 beyond: {} = {:.3} ms",
            lat.len(),
            tail.map_or("none", |t| t.0),
            tail.and_then(|t| quantile(&lat, t.1)).unwrap_or(0.0)
        ),
    ));
    let rungs: Vec<String> = first
        .rungs
        .iter()
        .map(|r| {
            format!(
                "{:.3}/s: p95 {:.1} ms, achieved {} {}",
                r.offered_rps,
                r.p95_ms,
                r.achieved(),
                if r.passes(SLO_MS) { "pass" } else { "fail" }
            )
        })
        .collect();
    m.push(Metric::new(
        "virt_max_session_rps_at_slo",
        max_rps_at_slo(&first.rungs, SLO_MS).unwrap_or(0.0),
        "1/s",
        format!("p95 <= {SLO_MS} ms; rungs [{}]", rungs.join("; ")),
    ));
    let success = Ratio::new(first.ok as f64, first.interactions as f64);
    m.push(Metric::new(
        "success_rate",
        success.value(),
        "ratio",
        format!(
            "{success}; failure_rate {}",
            Ratio::new(first.failed as f64, first.interactions as f64)
        ),
    ));
    out.check(
        "tail-samples",
        (beyond < crate::stats::MIN_BEYOND)
            .then(|| format!("p99 over {} samples leaves {beyond} beyond", lat.len()))
            .into_iter()
            .collect(),
    );
    out.metrics = m;
    out
}

/// Host-time aggregates of one traced episode's decorator spans.
#[derive(Debug, Default, Clone)]
struct LayerHost {
    interaction_us: Vec<f64>,
    servlet_self_ns: u64,
    engine_self_ns: u64,
    engine_us_by_action: Vec<Vec<f64>>,
    source: (u64, u64),
    commit: (u64, u64),
    conflicts: u64,
    sql: (u64, u64),
    rows: u64,
}

fn layer_host(spans: &[Span]) -> LayerHost {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.ns();
        }
    }
    let mut h = LayerHost {
        engine_us_by_action: vec![Vec::new(); ACTIONS.len()],
        ..LayerHost::default()
    };
    for (s, &children) in spans.iter().zip(&child_ns) {
        let self_ns = s.ns() - children.min(s.ns());
        match s.layer {
            Layer::Interaction => h.interaction_us.push(s.ns() as f64 / 1e3),
            Layer::Servlet => h.servlet_self_ns += self_ns,
            Layer::Engine => {
                h.engine_self_ns += self_ns;
                h.engine_us_by_action[s.tag as usize].push(s.ns() as f64 / 1e3);
            }
            Layer::Source => {
                h.source.0 += 1;
                h.source.1 += s.ns();
            }
            Layer::Commit => {
                h.commit.0 += 1;
                h.commit.1 += s.ns();
                h.conflicts += u64::from(s.tag);
            }
            Layer::Sql => {
                h.sql.0 += 1;
                h.sql.1 += s.ns();
                h.rows += u64::from(s.tag);
            }
            Layer::Sink => {}
        }
    }
    h
}

fn per_call_us((calls, ns): (u64, u64)) -> f64 {
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64 / 1e3
    }
}

/// One traced round: the plain episode, the traced episode of the same
/// inputs, and for the open loop its reference rung.
type Round = (Episode, Traced, Option<OpenRung>);

/// The traced run: per-layer metrics from the decorated stack, checked
/// against an untraced run of the same inputs.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = match &w.open {
        None => Inputs::closed(w, seed),
        Some(_) => Inputs::replay(w, seed),
    };
    let rounds: Vec<Round> = repeat(seconds, || {
        let plain = closed_plain(w, seed, &inputs);
        let traced = closed_traced(w, seed, &inputs);
        let rung = w
            .open
            .as_ref()
            .map(|o| open_rung(w, seed, o.reference_rps, &inputs.warmup));
        (plain, traced, rung)
    });
    out.episodes = rounds.len();
    let mut failures = Vec::new();
    let mut reproduce = Vec::new();
    for (i, (plain, traced, rung)) in rounds.iter().enumerate() {
        out.episode_lines.push(format!(
            "untraced {:.1}/s traced {:.1}/s",
            plain.rate(),
            traced.ep.rate()
        ));
        for ep in [Some(plain), Some(&traced.ep), rung.as_ref().map(|r| &r.ep)]
            .into_iter()
            .flatten()
        {
            out.attempted += ep.virt.interactions;
            out.failed += ep.virt.failed;
            failures.extend(ep.failures.iter().cloned());
        }
        if plain.virt != traced.ep.virt {
            let first = plain
                .virt
                .latencies_us
                .iter()
                .zip(&traced.ep.virt.latencies_us)
                .position(|(a, b)| a != b);
            reproduce.push(format!(
                "round {i}: traced virtual results differ from untraced (first latency difference at {first:?})"
            ));
        }
        if traced.counts != rounds[0].1.counts {
            reproduce.push(format!(
                "round {i}: traced layer counts differ from round 0"
            ));
        }
    }
    out.check("outputs", failures);
    out.check("traced-reproduces-untraced", reproduce);
    let plains: Vec<&Episode> = rounds.iter().map(|r| &r.0).collect();
    out.check("virtual-determinism", determinism(&plains));

    out.metrics = per_layer(&rounds);
    out
}

/// The per-layer metrics of a traced run's rounds.
fn per_layer(rounds: &[Round]) -> Vec<Metric> {
    let n = rounds.len();
    let first: &Traced = &rounds[0].1;
    let interactions = first.ep.virt.interactions as f64;
    let per_i = |x: u64| x as f64 / interactions;
    let hosts: Vec<LayerHost> = rounds.iter().map(|r| layer_host(&r.1.spans)).collect();
    let host_median = |f: &dyn Fn(&LayerHost, &Traced) -> f64| {
        medians(hosts.iter().zip(rounds).map(|(h, r)| f(h, &r.1)))
    };
    let c = &first.counts;
    let h0 = &hosts[0];
    let note_host = format!("median of {n} traced episodes");
    let mut m = Vec::new();

    // the whole simulator, untraced: the closed loop, or the open loop's
    // reference rung
    let untraced: Vec<&Episode> = rounds
        .iter()
        .map(|r| r.2.as_ref().map_or(&r.0, |rung| &rung.ep))
        .collect();
    let at = if rounds[0].2.is_some() {
        " at the reference rate"
    } else {
        ""
    };
    m.push(sim_rate(&untraced, at));

    // arch
    m.push(Metric::new(
        "arch.host_us_p50",
        host_median(&|h, _| quantile(&h.interaction_us, 0.5).unwrap_or(0.0)),
        "us",
        format!(
            "per interaction, n={}, {note_host}",
            h0.interaction_us.len()
        ),
    ));
    m.push(Metric::new(
        "arch.host_us_p99",
        host_median(&|h, _| quantile(&h.interaction_us, 0.99).unwrap_or(0.0)),
        "us",
        format!(
            "per interaction, n={}, {note_host}",
            h0.interaction_us.len()
        ),
    ));
    let growth: Vec<Ratio> = hosts
        .iter()
        .map(|h| growth_ratio(&h.interaction_us))
        .collect();
    m.push(Metric::new(
        "arch.host_growth_ratio",
        medians(growth.iter().map(Ratio::value)),
        "ratio",
        format!(
            "last tenth / first tenth of host us per interaction, round 0: {}",
            growth[0]
        ),
    ));
    let gaps: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.2.as_ref())
        .map(|r| {
            mean(
                &r.ep
                    .interaction_ns
                    .iter()
                    .map(|&g| g as f64)
                    .collect::<Vec<_>>(),
            ) / 1e3
        })
        .collect();
    m.push(Metric::new(
        "arch.dispatch_host_us",
        medians(gaps.iter().copied()),
        "us",
        if gaps.is_empty() {
            "no open loop on this workload".to_owned()
        } else {
            format!(
                "mean gap between observer callbacks, median of {} runs",
                gaps.len()
            )
        },
    ));
    m.push(Metric::new(
        "arch.servlet_self_host_us",
        host_median(&|h, _| per_i(h.servlet_self_ns) / 1e3),
        "us",
        format!("per interaction, {note_host}"),
    ));
    let rung = rounds[0].2.as_ref();
    m.push(Metric::new(
        "arch.queue_wait_ms_p95",
        rung.map_or(0.0, |r| quantile(&r.queue_wait_ms, 0.95).unwrap_or(0.0)),
        "ms",
        rung.map_or("no open loop on this workload".to_owned(), |r| {
            format!("n={} at the reference rate", r.queue_wait_ms.len())
        }),
    ));
    m.push(Metric::new(
        "arch.peak_queue_depth",
        rung.map_or(0.0, |r| r.peak_queue_depth as f64),
        "count",
        rung.map_or("no open loop on this workload", |_| "at the reference rate")
            .to_owned(),
    ));

    // trade
    for action in [
        "login",
        "logout",
        "quote",
        "home",
        "portfolio",
        "account",
        "update",
        "buy",
        "sell",
    ] {
        let idx = ACTIONS
            .iter()
            .position(|&a| a == action)
            .expect("listed action");
        m.push(Metric::new(
            format!("trade.host_us_p50.{action}"),
            host_median(&|h, _| quantile(&h.engine_us_by_action[idx], 0.5).unwrap_or(0.0)),
            "us",
            format!(
                "per TradeEngine::perform, n={}, {note_host}",
                h0.engine_us_by_action[idx].len()
            ),
        ));
    }
    m.push(Metric::new(
        "trade.engine_self_host_us",
        host_median(&|h, _| per_i(h.engine_self_ns) / 1e3),
        "us",
        format!("per interaction, source/commit/SQL excluded, {note_host}"),
    ));

    // core
    let hit = Ratio::new(c.store_hits as f64, (c.store_hits + c.store_misses) as f64);
    m.push(Metric::new(
        "core.store_hit_ratio",
        hit.value(),
        "ratio",
        hit.to_string(),
    ));
    m.push(Metric::new(
        "core.store_get_hit_ns",
        host_median(&|_, t| t.store_get_hit_ns),
        "ns",
        format!("post-run probe over every resident key, {note_host}"),
    ));
    m.push(Metric::new(
        "core.store_resident_bytes",
        c.store_resident_bytes as f64,
        "B",
        "summed over edge stores at the end".to_owned(),
    ));
    m.push(Metric::new(
        "core.source_host_us",
        host_median(&|h, _| per_call_us(h.source)),
        "us",
        format!("per StateSource call, {} calls, {note_host}", h0.source.0),
    ));
    m.push(Metric::new(
        "core.commit_host_us",
        host_median(&|h, _| per_call_us(h.commit)),
        "us",
        format!("per Committer::commit, {} calls, {note_host}", h0.commit.0),
    ));
    let occ = Ratio::new(h0.conflicts as f64, h0.commit.0 as f64);
    m.push(Metric::new(
        "core.occ_conflict_ratio",
        occ.value(),
        "ratio",
        occ.to_string(),
    ));
    let inv = Ratio::new(c.invalidations as f64, h0.commit.0 as f64);
    m.push(Metric::new(
        "core.invalidations_per_commit",
        inv.value(),
        "ratio",
        inv.to_string(),
    ));

    // datastore
    let per_interaction = |name: &str, x: u64, unit: &'static str| {
        let r = Ratio::new(x as f64, interactions);
        Metric::new(name, r.value(), unit, r.to_string())
    };
    m.push(per_interaction(
        "datastore.statements_per_interaction",
        c.statements,
        "1/interaction",
    ));
    m.push(per_interaction(
        "datastore.batches_per_interaction",
        c.batches,
        "1/interaction",
    ));
    let plan = Ratio::new(c.plan_hits as f64, (c.plan_hits + c.plan_misses) as f64);
    m.push(Metric::new(
        "datastore.plan_cache_hit_ratio",
        plan.value(),
        "ratio",
        plan.to_string(),
    ));
    m.push(per_interaction(
        "datastore.rows_read_per_interaction",
        h0.rows,
        "1/interaction",
    ));
    m.push(Metric::new(
        "datastore.sql_host_us",
        host_median(&|h, _| per_call_us(h.sql)),
        "us",
        format!("per SqlConnection call, {} calls, {note_host}", h0.sql.0),
    ));
    m.push(per_interaction(
        "datastore.wal_bytes_per_interaction",
        c.wal_bytes,
        "B/interaction",
    ));
    m.push(per_interaction(
        "datastore.wal_flushes_per_interaction",
        c.wal_flushes,
        "1/interaction",
    ));

    // simnet
    m.push(per_interaction(
        "simnet.round_trips_per_interaction",
        c.shared_round_trips,
        "1/interaction",
    ));
    m.push(per_interaction(
        "simnet.shared_bytes_per_interaction",
        c.shared_bytes,
        "B/interaction",
    ));
    m.push(per_interaction(
        "simnet.client_bytes_per_interaction",
        c.client_bytes,
        "B/interaction",
    ));
    m.push(Metric::new(
        "simnet.rpc_retries",
        c.rpc_retries as f64,
        "count",
        "every path".to_owned(),
    ));

    // telemetry
    m.push(per_interaction(
        "telemetry.spans_per_interaction",
        first.ep.harvest.spans,
        "1/interaction",
    ));
    m.push(Metric::new(
        "telemetry.harvest_host_us",
        host_median(&|_, t| per_i(t.ep.harvest.host_ns) / 1e3),
        "us",
        format!("drain + critical_path + Profile::fold per interaction, {note_host}"),
    ));

    // virtual profile
    let profile = &first.ep.harvest.profile;
    for r in Resource::ALL {
        let share = Ratio::new(profile.resource_us(r) as f64, profile.total_us as f64);
        m.push(Metric::new(
            format!("profile.share.{}", r.label()),
            share.value(),
            "ratio",
            format!("{share} us"),
        ));
    }

    // workload properties
    m.push(Metric::new(
        "workload.interactions",
        interactions,
        "count",
        "per traced episode".to_owned(),
    ));
    m.push(Metric::new(
        "workload.holdings_rows_end",
        first.ep.virt.holdings_rows_end as f64,
        "count",
        "holding rows when the traced episode ends".to_owned(),
    ));

    // tracing overhead
    let plain_rate = medians(rounds.iter().map(|r| r.0.rate()));
    let traced_rate = medians(rounds.iter().map(|r| r.1.ep.rate()));
    let overhead = Ratio::new(plain_rate - traced_rate, plain_rate);
    m.push(Metric::new(
        "trace.overhead_ratio",
        overhead.value(),
        "ratio",
        format!("(untraced - traced) / untraced interactions per host s: {overhead}"),
    ));
    m
}
