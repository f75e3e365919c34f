//! The MCDC workspace benchmark: seeded workloads driven through the
//! library's public APIs, every end-to-end metric printed by name with its
//! unit, outputs checked for correctness, and — with `--trace 1` — spans
//! around each layer's calls that give the per-layer metrics.
//!
//! ```text
//! env MALLOC_ARENA_MAX=1 cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit-syn --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--workload all` runs every workload, each in its own process. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. A failed correctness or determinism check exits
//! with code 1. `perfbench/SPEC.md` describes the workloads and metrics.

mod batch;
mod calib;
mod report;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use categorical_data::synth::{scaling, GeneratorConfig};
use mcdc_core::ExecutionPlan;

use report::Report;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["fit-syn", "fit-nested-minibatch", "stream-drift"];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports every one; a layer a workload bypasses reads 0.
const LAYER_METRICS: [(&str, &str); 46] = [
    ("csv.parse_ms", "ms"),
    ("csv.share", "%"),
    ("mgcpl.fit_ms", "ms"),
    ("mgcpl.share", "%"),
    ("mgcpl.ns_per_eval", "ns"),
    ("mgcpl.score_evals", "count"),
    ("mgcpl.passes", "count"),
    ("mgcpl.stages", "count"),
    ("mgcpl.k0", "count"),
    ("mgcpl.sigma", "count"),
    ("mgcpl.full_rescans", "count"),
    ("mgcpl.skip_rate", "ratio"),
    ("mgcpl.allocations", "count"),
    ("execution.merges", "count"),
    ("execution.rotations", "count"),
    ("execution.survivor_fraction", "ratio"),
    ("encoding.encode_ms", "ms"),
    ("encoding.share", "%"),
    ("came.fit_ms", "ms"),
    ("came.share", "%"),
    ("came.iterations", "count"),
    ("came.score_evals", "count"),
    ("came.skip_rate", "ratio"),
    ("frozen.freeze_ms", "ms"),
    ("frozen.save_load_ms", "ms"),
    ("frozen.share", "%"),
    ("frozen.table_bytes", "bytes"),
    ("frozen.score_ns_per_row", "ns"),
    ("streaming.absorb_us_p50", "us"),
    ("streaming.absorb_latency_us_p99", "us"),
    ("streaming.refit_ms_p50", "ms"),
    ("streaming.refit_ms_max", "ms"),
    ("streaming.refits", "count"),
    ("streaming.rollbacks", "count"),
    ("streaming.serve_us_p50", "us"),
    ("streaming.serve_latency_us_p50", "us"),
    ("streaming.serve_latency_us_p99", "us"),
    ("streaming.max_rate_per_s", "1/s"),
    ("streaming.queue_wait_us_p99", "us"),
    ("streaming.busy_share.absorb", "%"),
    ("streaming.busy_share.refit", "%"),
    ("streaming.busy_share.serve", "%"),
    ("streaming.admitted", "count"),
    ("streaming.quarantined", "count"),
    ("streaming.health_transitions", "count"),
    ("trace.overhead_pct", "%"),
];

/// Values of the per-layer metrics, keyed by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Whether `name` is a declared per-layer metric.
    pub fn declared(name: &str) -> bool {
        LAYER_METRICS.iter().any(|(n, _)| *n == name)
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name (a typo would otherwise vanish).
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        self.0.insert(key, value);
    }
}

/// Settings shared by every workload of one run.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    /// Saves a traced run's spans under `perfbench/out/` (relative to the
    /// checkout root the benchmark runs from).
    pub fn save_spans(&self, spans: &[trace::Span]) {
        let path = PathBuf::from("perfbench/out").join(format!("{}.spans.tsv", self.workload));
        if let Err(e) = trace::Tracer::write(spans, &path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunConfig { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
                    return Err(format!("--seconds {value} is outside (0, 120]"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if cfg.workload != "all" && !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload '{}'", cfg.workload));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(message) => return usage(&message),
    };
    if cfg.workload == "all" {
        return run_all(&cfg);
    }
    let mut report = Report::default();
    let mut layers = Layers::default();
    report.notes.push(format!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    ));
    match cfg.workload.as_str() {
        "fit-syn" => {
            let spec = batch::BatchSpec {
                make: Box::new(|seed| scaling::syn_n(100_000, seed)),
                k: 3,
                plan: ExecutionPlan::Serial,
            };
            batch::run(&spec, &cfg, &mut report, &mut layers);
        }
        "fit-nested-minibatch" => {
            let n = 20_000;
            let spec = batch::BatchSpec {
                make: Box::new(move |seed| {
                    GeneratorConfig::new("nested", n, vec![8; 32], 8)
                        .subclusters(3)
                        .shared_fraction(0.7)
                        .noise(0.08)
                        .generate(seed)
                        .dataset
                }),
                k: 8,
                plan: ExecutionPlan::mini_batch(n / 4),
            };
            batch::run(&spec, &cfg, &mut report, &mut layers);
        }
        _ => stream::run(&cfg, &mut report, &mut layers),
    }
    if cfg.trace {
        for (name, unit) in LAYER_METRICS {
            report.metric(name, layers.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
    let non_finite: Vec<String> = report
        .metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| n.clone())
        .collect();
    report
        .check(non_finite.is_empty(), || format!("non-finite metrics: {}", non_finite.join(", ")));
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in a child process of its own (so each reports its
/// own memory high-water mark), passing their output through.
fn run_all(cfg: &RunConfig) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot locate the benchmark binary: {e}")),
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload}");
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", &cfg.seed.to_string()])
            .args([
                "--seconds",
                &cfg.seconds.to_string(),
                "--trace",
                if cfg.trace { "1" } else { "0" },
            ])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        ExitCode::from(1)
    }
}
