//! Provenance, metric assembly and the result line.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::workload::fnv1a;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Human-readable context: sample counts, bases, which episodes.
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, note: String) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note,
        }
    }
}

/// The revision the benchmark runs on: the checked-out commit when the
/// working directory is a git checkout, otherwise `none`; plus a digest
/// of every Rust source and manifest under `crates/` and `perfbench/`, which
/// identifies the code either way.
pub fn revision() -> (String, String) {
    let rev = git_head(Path::new(".git")).unwrap_or_else(|| "none".to_owned());
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src", "Cargo.lock"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            hash ^= fnv1a(file.to_string_lossy().as_bytes());
            hash = hash.wrapping_mul(0x0100_0000_01b3) ^ fnv1a(&bytes);
        }
    }
    (rev, format!("{hash:016x}/{}", files.len()))
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

fn collect_sources(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if matches!(
            p.extension().and_then(|e| e.to_str()),
            Some("rs") | Some("toml")
        ) {
            out.push(p);
        }
    }
}

/// Host ns of a fixed integer loop: recorded with every result so runs on
/// different hosts can be told apart. It rescales nothing.
pub fn calibration_ns() -> u64 {
    let t = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(black_box(i));
    }
    black_box(x);
    t.elapsed().as_nanos() as u64
}

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process (VmHWM), MiB; `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
