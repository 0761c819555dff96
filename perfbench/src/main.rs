//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the provenance, every metric with its unit and context, the
//! output checks, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use perfbench::bench;
use perfbench::report::{calibration_ns, nproc, result_json, revision};
use perfbench::workload::{Workload, NAMES};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", NAMES.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let (rev, source) = revision();
    let calibration = calibration_ns();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "provenance rev={rev} source={source} config={} nproc={} calibration_ns={calibration}",
        w.digest(),
        nproc()
    );
    let outcome = if args.trace {
        bench::traced(w, args.seed, args.seconds)
    } else {
        bench::untraced(w, args.seed, args.seconds)
    };
    println!("episodes {}", outcome.episodes);
    for (i, line) in outcome.episode_lines.iter().enumerate() {
        println!("episode {i} {line}");
    }
    for (kind, metrics) in [("metric", &outcome.metrics), ("record", &outcome.records)] {
        for m in metrics {
            println!(
                "{kind} {:<36} {:>16.6} {:<14} {}",
                m.name, m.value, m.unit, m.note
            );
        }
    }
    for (name, failures) in &outcome.checks {
        if failures.is_empty() {
            println!("check {name}: ok");
        } else {
            for f in failures {
                println!("check {name}: FAILED: {f}");
            }
        }
    }
    println!(
        "{}",
        result_json(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
