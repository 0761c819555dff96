//! The three workloads: what each runs, and the seeds derived from the
//! benchmark's `--seed`.

use sli_arch::{Architecture, Flavor, LoadPlan, TestbedConfig};
use sli_simnet::SimDuration;
use sli_trade::seed::Population;
use sli_trade::session::{ActionMix, SessionGenerator};
use sli_trade::TradeAction;

/// Latency limit of the served-system metric, ms (on the p95).
pub const SLO_MS: f64 = 1_000.0;

/// Largest per-crossing jitter on the delayed path, µs: the paper's
/// testbed noise (its fits report R² ≈ 0.99). Without it every latency
/// percentile sits on the fixed service time of one action, the same for
/// every seed.
pub const JITTER_US: u64 = 2_000;

/// The open-loop part of a workload: a ladder of Poisson session rates.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoop {
    /// Offered session rates, sessions per virtual second, ascending.
    pub ladder: Vec<f64>,
    /// The rung the latency metrics are taken at (below the knee).
    pub reference_rps: f64,
    /// Sessions offered per rung.
    pub sessions: usize,
}

/// Everything that defines one workload. The run length is part of the
/// definition: the cached flavours' host cost per interaction grows with
/// it while their virtual cost does not.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Architecture and flavour under test.
    pub arch: Architecture,
    /// One-way delay the proxy injects on the wide-area path.
    pub delay_ms: u64,
    /// Testbed options (edges, population, batching, cache capacity).
    pub testbed: TestbedConfig,
    /// Inner-action weights of the session scripts.
    pub mix: ActionMix,
    /// Closed-loop warm-up sessions per client before measuring.
    pub warmup_sessions: usize,
    /// Closed-loop measured sessions per client (closed-loop workloads,
    /// and the closed-loop replay of the open loop's reference scripts in
    /// the traced run).
    pub measured_sessions: usize,
    /// The open-loop ladder, for the served-system workload.
    pub open: Option<OpenLoop>,
}

/// The write-heavy mix of `rdb-cached-contend`.
pub const CONTEND_MIX: ActionMix = ActionMix {
    quote: 10,
    home: 5,
    portfolio: 5,
    account: 5,
    update: 20,
    buy: 30,
    sell: 25,
};

/// Names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["rbes-browse", "jdbc-open", "rdb-cached-contend"];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        let paper = TestbedConfig {
            population: Population::default(),
            edges: 1,
            cache_capacity: None,
            wire_batching: true,
        };
        match name {
            "rbes-browse" => Some(Workload {
                name: "rbes-browse",
                arch: Architecture::EsRbes,
                delay_ms: 40,
                testbed: paper,
                mix: ActionMix::default(),
                warmup_sessions: 400,
                measured_sessions: 1_500,
                open: None,
            }),
            "jdbc-open" => Some(Workload {
                name: "jdbc-open",
                arch: Architecture::EsRdb(Flavor::Jdbc),
                delay_ms: 10,
                testbed: paper,
                mix: ActionMix::default(),
                warmup_sessions: 400,
                measured_sessions: 1_000,
                open: Some(OpenLoop {
                    ladder: vec![0.5, 1.0, 1.5, 2.0],
                    reference_rps: 0.5,
                    sessions: 2_000,
                }),
            }),
            "rdb-cached-contend" => Some(Workload {
                name: "rdb-cached-contend",
                arch: Architecture::EsRdb(Flavor::CachedEjb),
                delay_ms: 40,
                testbed: TestbedConfig { edges: 2, ..paper },
                mix: CONTEND_MIX,
                warmup_sessions: 100,
                measured_sessions: 600,
                open: None,
            }),
            _ => None,
        }
    }

    /// Closed-loop clients: one per edge, interleaved one interaction at a
    /// time.
    pub fn clients(&self) -> usize {
        self.testbed.edges.max(1)
    }

    /// The injected delay.
    pub fn delay(&self) -> SimDuration {
        SimDuration::from_millis(self.delay_ms)
    }

    /// Jitter on the delayed paths: the maximum and the seed of the run
    /// seeded `seed`.
    pub fn jitter(&self, seed: u64) -> (SimDuration, u64) {
        (SimDuration::from_micros(JITTER_US), derive(seed, 2_000))
    }

    /// A stable digest of everything that defines the workload (arch,
    /// delay, mix, edges, batching, WAL, cache capacity, population and
    /// run lengths), for the provenance line.
    pub fn digest(&self) -> String {
        // The testbed always attaches the WAL; say so in the digested text
        // so a later change of that default changes the digest.
        let text = format!("{self:?} wal=on jitter_us={JITTER_US}");
        format!("{:016x}", fnv1a(text.as_bytes()))
    }

    /// The closed-loop script generator of client `client` (`warmup`
    /// selects the warm-up stream, which never overlaps the measured one).
    pub fn generator(&self, seed: u64, client: usize, warmup: bool) -> SessionGenerator {
        let stream = 2 * client as u64 + u64::from(warmup);
        SessionGenerator::new(derive(seed, stream), self.testbed.population).with_mix(self.mix)
    }

    /// The open-loop plan at `rps`. Every rung shares one seed, so the
    /// rungs replay the same scripts on a scaled arrival schedule.
    pub fn load_plan(&self, seed: u64, rps: f64, sessions: usize) -> LoadPlan {
        LoadPlan {
            population: self.testbed.population,
            ..LoadPlan::poisson(rps, sessions, derive(seed, 1_000))
        }
    }

    /// The session scripts a [`LoadPlan`] hands its sessions, in arrival
    /// order (the engine generates them the same way).
    pub fn plan_scripts(plan: &LoadPlan) -> Vec<Vec<TradeAction>> {
        let mut generator = SessionGenerator::new(plan.session_seed, plan.population);
        (0..plan.sessions).map(|_| generator.session()).collect()
    }
}

/// A seed for stream `stream` of the run seeded `seed` (splitmix64).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
