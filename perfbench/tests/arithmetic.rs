//! Self-tests of the benchmark's own arithmetic and of the decorated
//! stack's fidelity.

use perfbench::run::{closed_plain, closed_traced, Inputs};
use perfbench::stats::{
    growth_ratio, max_rps_at_slo, median_episode_ns, samples_beyond, tail_level, Ratio, Rung,
};
use perfbench::workload::{Workload, NAMES};

#[test]
fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_level(19), None);
    assert_eq!(tail_level(20).map(|t| t.0), Some("p50"));
    assert_eq!(tail_level(99).map(|t| t.0), Some("p50"));
    assert_eq!(tail_level(100).map(|t| t.0), Some("p90"));
    assert_eq!(tail_level(999).map(|t| t.0), Some("p90"));
    assert_eq!(tail_level(1_000).map(|t| t.0), Some("p99"));
    assert_eq!(tail_level(9_999).map(|t| t.0), Some("p99"));
    assert_eq!(tail_level(10_000).map(|t| t.0), Some("p99.9"));
    assert_eq!(tail_level(100_000), Some(("p99.99", 0.9999)));
    // Exact integer counts: no float product rounds 10 down to 9.
    assert_eq!(samples_beyond(100, 9_000), 10);
    assert_eq!(samples_beyond(1_000, 9_900), 10);
}

fn rung(offered_rps: f64, p95_ms: f64, arrivals: u64, completions: u64) -> Rung {
    Rung {
        offered_rps,
        p95_ms,
        arrivals,
        completions,
    }
}

#[test]
fn served_rate_is_the_highest_rung_within_the_limit_and_without_backlog() {
    let ladder = [
        rung(0.5, 100.0, 100, 100),
        rung(1.0, 400.0, 200, 199),
        rung(1.5, 990.0, 300, 290),
        rung(2.0, 2_500.0, 400, 390),
    ];
    assert_eq!(max_rps_at_slo(&ladder, 1_000.0), Some(1.5));
    // Within the limit but with a growing backlog: 94 % achieved fails.
    let backlog = [rung(1.0, 400.0, 200, 200), rung(1.5, 900.0, 300, 282)];
    assert!(!backlog[1].passes(1_000.0));
    assert_eq!(max_rps_at_slo(&backlog, 1_000.0), Some(1.0));
    // 95 % achieved is the floor and passes.
    assert!(rung(1.5, 900.0, 300, 285).passes(1_000.0));
    // The limit itself passes; just above it fails.
    assert!(rung(1.0, 1_000.0, 10, 10).passes(1_000.0));
    assert!(!rung(1.0, 1_000.001, 10, 10).passes(1_000.0));
    // No rung passes.
    let melted = [rung(0.5, 1_200.0, 10, 10), rung(1.0, 5_000.0, 10, 5)];
    assert_eq!(max_rps_at_slo(&melted, 1_000.0), None);
    assert_eq!(max_rps_at_slo(&[], 1_000.0), None);
    // Unsorted, with a failing rung below a passing one.
    let noisy = [
        rung(2.0, 800.0, 10, 10),
        rung(1.0, 1_500.0, 10, 10),
        rung(0.5, 100.0, 10, 10),
    ];
    assert_eq!(max_rps_at_slo(&noisy, 1_000.0), Some(2.0));
}

#[test]
fn growth_ratio_compares_the_last_tenth_with_the_first() {
    let mut xs = vec![1.0; 10];
    xs.extend(vec![5.0; 80]);
    xs.extend(vec![3.0; 10]);
    let g = growth_ratio(&xs);
    assert_eq!((g.num, g.den), (3.0, 1.0));
    assert_eq!(g.value(), 3.0);
    // 25 samples: tenths of two, the trailing remainder ignored.
    let ys: Vec<f64> = (1..=25).map(f64::from).collect();
    let g = growth_ratio(&ys);
    assert_eq!((g.num, g.den), (24.5, 1.5));
    // Too few samples for a tenth: no base, value zero.
    let g = growth_ratio(&[1.0, 2.0, 3.0]);
    assert_eq!((g.value(), g.den), (0.0, 0.0));
}

#[test]
fn ratios_print_with_their_bases() {
    assert_eq!(Ratio::new(1.0, 2.0).to_string(), "0.500000 (1 / 2)");
    assert_eq!(
        Ratio::new(1107.0, 22000.0).to_string(),
        "0.050318 (1107 / 22000)"
    );
    assert_eq!(Ratio::new(0.5, 4.0).to_string(), "0.125000 (0.500 / 4)");
    assert_eq!(Ratio::new(3.0, 0.0).to_string(), "0.000000 (3 / 0)");
}

#[test]
fn median_episode_takes_each_steps_median_then_sums() {
    let a = [1, 10, 3];
    let b = [2, 2, 3];
    let c = [100, 3, 3];
    // Step medians 2, 3, 3: the one-off 100 and 10 are discarded.
    assert_eq!(median_episode_ns(&[&a, &b, &c]), 8.0);
    assert_eq!(median_episode_ns(&[&a]), 14.0);
    assert_eq!(median_episode_ns(&[]), 0.0);
    // A shorter episode leaves the longer ones to decide the last steps.
    assert_eq!(median_episode_ns(&[&[4, 4], &[6]]), 9.0);
}

#[test]
fn workloads_are_named_and_digested_distinctly() {
    let digests: Vec<String> = NAMES
        .iter()
        .map(|n| Workload::by_name(n).expect("listed workload").digest())
        .collect();
    assert_eq!(digests[0], Workload::by_name(NAMES[0]).unwrap().digest());
    assert!(digests[0] != digests[1] && digests[1] != digests[2] && digests[0] != digests[2]);
    assert!(Workload::by_name("nope").is_none());
}

#[test]
fn decorated_stack_reproduces_the_testbeds_virtual_latencies() {
    for name in NAMES {
        let mut w = Workload::by_name(name).unwrap();
        w.warmup_sessions = 3;
        w.measured_sessions = 4;
        let inputs = match &w.open {
            None => Inputs::closed(&w, 7),
            Some(_) => Inputs::replay(&w, 7),
        };
        let plain = closed_plain(&w, 7, &inputs);
        let traced = closed_traced(&w, 7, &inputs);
        assert!(plain.failures.is_empty(), "{name}: {:?}", plain.failures);
        assert!(
            traced.ep.failures.is_empty(),
            "{name}: {:?}",
            traced.ep.failures
        );
        assert_eq!(plain.virt, traced.ep.virt, "{name}");
        assert!(!traced.spans.is_empty(), "{name}: the decorators recorded");
    }
}
