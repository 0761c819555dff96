//! Contention study: how often does optimistic validation abort as more
//! edge servers share the same working set?
//!
//! The paper measures a deliberately low-load configuration (one virtual
//! client) "so as to factor out queuing delay effects", where conflicts are
//! rare. This binary interleaves sessions from several edges over a *small,
//! hot* user population and reports the optimistic conflict rate and the
//! invalidation traffic — the cost side of inter-transaction caching's
//! widened conflict window (§2.3).
//!
//! Run with `cargo run --release -p sli-bench --bin contention`.

use sli_arch::{Architecture, Flavor, Testbed, TestbedConfig, VirtualClient};
use sli_bench::{Cli, EvictionGuard};
use sli_simnet::SimDuration;
use sli_telemetry::{conflict_leaderboard, SpanEvent};
use sli_trade::seed::Population;
use sli_trade::session::SessionGenerator;
use sli_workload::TextTable;

struct ContentionPoint {
    edges: usize,
    commits: u64,
    conflicts: u64,
    invalidations: u64,
    failed_interactions: u64,
    conflict_events: Vec<SpanEvent>,
}

fn run(
    arch: Architecture,
    edges: usize,
    hot_users: usize,
    sessions_per_edge: usize,
) -> ContentionPoint {
    let population = Population {
        users: hot_users,
        quotes: 20,
        holdings_per_user: 4,
    };
    let testbed = Testbed::build(
        arch,
        TestbedConfig {
            population,
            edges,
            ..TestbedConfig::default()
        },
    );
    testbed.set_delay(SimDuration::from_millis(40));

    let mut generators: Vec<SessionGenerator> = (0..edges)
        .map(|i| SessionGenerator::new(1000 + i as u64, population))
        .collect();
    let mut clients: Vec<VirtualClient<'_>> = (0..edges)
        .map(|i| VirtualClient::new(&testbed, i))
        .collect();

    let guard = EvictionGuard::arm(testbed.commit_trace());
    let mut failed = 0u64;
    let mut conflict_events = Vec::new();
    // Interleave at the interaction level so edges genuinely race on the
    // same beans between each other's commits.
    for _ in 0..sessions_per_edge {
        let sessions: Vec<Vec<sli_trade::TradeAction>> =
            generators.iter_mut().map(|g| g.session()).collect();
        let longest = sessions.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (client, session) in clients.iter_mut().zip(&sessions) {
                if let Some(action) = session.get(step) {
                    if client.perform(action).status != 200 {
                        failed += 1;
                    }
                }
            }
        }
        // Drain the bounded trace log each round, keeping only the OCC
        // abort forensics the leaderboard is built from.
        let events = testbed.commit_trace().drain();
        conflict_events.extend(events.into_iter().filter(|e| e.conflict().is_some()));
    }
    guard
        .check(testbed.commit_trace())
        .unwrap_or_else(|e| panic!("contention, {edges} edges: {e}"));

    let mut commits = 0;
    let mut conflicts = 0;
    let mut invalidations = 0;
    for edge in &testbed.edges {
        let rm = edge.rm.as_ref().expect("cached architecture");
        commits += rm.stats().commits;
        conflicts += rm.stats().conflicts;
        invalidations += edge.store.as_ref().expect("cached").stats().invalidations;
    }
    ContentionPoint {
        edges,
        commits,
        conflicts,
        invalidations,
        failed_interactions: failed,
        conflict_events,
    }
}

fn main() {
    Cli::new(
        "contention",
        "Contention study: optimistic conflicts vs number of edges sharing hot users",
    )
    .flag(
        "smoke",
        "accepted for CI symmetry (the study is already quick)",
    )
    .parse();
    println!("Contention: optimistic conflicts vs number of edges");
    println!("(5 hot users shared by all edges, 40 ms one-way delay, interleaved sessions)\n");
    for (label, arch, note) in [
        (
            "ES/RDB cached (combined-servers: NO invalidation channel)",
            Architecture::EsRdb(Flavor::CachedEjb),
            "Stale common-store entries persist until a conflict purges them, so the\n\
             abort rate climbs with the number of edges sharing the hot beans — the\n\
             widened conflict window of §2.3 made visible.",
        ),
        (
            "ES/RBES (split-servers: back-end invalidation fan-out)",
            Architecture::EsRbes,
            "Invalidations land within one network crossing of a peer's commit, before\n\
             the next interleaved interaction in this low-load model — fan-out\n\
             suppresses conflicts entirely, at the invalidation-traffic cost shown.",
        ),
    ] {
        println!("{label}");
        let mut table = TextTable::new(&[
            "edges",
            "commits",
            "conflicts",
            "conflict rate",
            "invalidations",
            "failed interactions",
        ]);
        let mut conflict_events = Vec::new();
        for edges in [1usize, 2, 4, 8] {
            let p = run(arch, edges, 5, 40);
            let rate = p.conflicts as f64 / (p.commits + p.conflicts).max(1) as f64;
            table.row(vec![
                p.edges.to_string(),
                p.commits.to_string(),
                p.conflicts.to_string(),
                format!("{:.2}%", rate * 100.0),
                p.invalidations.to_string(),
                p.failed_interactions.to_string(),
            ]);
            conflict_events.extend(p.conflict_events);
        }
        println!("{}{note}\n", table.render());

        // OCC abort forensics: which concrete entities the aborts blamed.
        let leaderboard = conflict_leaderboard(&conflict_events);
        if leaderboard.is_empty() {
            println!("No OCC aborts to attribute for this architecture.\n");
        } else {
            println!("Conflict leaderboard (hottest entities across all edge counts):");
            let mut hot = TextTable::new(&["entity", "aborts", "diverging fields"]);
            for row in leaderboard.iter().take(8) {
                hot.row(vec![
                    row.entity.clone(),
                    row.conflicts.to_string(),
                    if row.fields.is_empty() {
                        "(blind write)".to_owned()
                    } else {
                        row.fields.join(", ")
                    },
                ]);
            }
            println!("{}\n", hot.render());
        }
    }
    println!(
        "Note: the invalidations column also counts self-invalidations from removes\n\
         and aborts; conflicts are retried transparently by the servlet (3 attempts),\n\
         and 'failed interactions' counts requests whose retries were exhausted."
    );
}
