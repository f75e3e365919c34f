//! Machine-readable perf baseline for the clustering hot path: times the
//! MGCPL exploration (serial and mini-batch engines), Γ encoding, and CAME aggregation on the `scaling::syn_n`
//! family ({3k, 10k, 30k} rows by default) and writes `BENCH_hotpath.json`
//! (stage, engine, n, median wall ms, throughput rows/s, plus — for the
//! serial MGCPL and CAME rows — the hot-path counters: rescans skipped by
//! CAME's dirty-cluster tracking, full rescans, and workspace buffer
//! growths per pass) so later changes can diff performance without
//! re-deriving a harness.
//!
//! The MGCPL engine runs are *interleaved* (serial rep, mini-batch rep,
//! serial rep, …) so neighbor-load drift on the shared-vCPU
//! build hosts hits every engine alike and the medians stay comparable.
//! The serial MGCPL and CAME rows run through a persistent [`Workspace`],
//! so their `allocations_per_pass` reflects the warm steady state a
//! long-lived service sees.
//!
//! Beyond the n sweep, the full run adds a **large-`d·k` shape sweep**
//! (`shape` column: d ∈ {32, 96, 192}, cardinalities 8/16 at n = 3k, so
//! the value-major scoring matrix grows from ~112 KB to ~1.3 MB — well
//! past L2) of serial `mgcpl_explore` fits.
//!
//! Usage: `cargo run --release -p mcdc-bench --bin hotpath_snapshot
//!        [--out PATH] [--seed N] [--sizes a,b,c] [--quick]`
//!
//! `--quick` is the CI perf-smoke mode (`scripts/verify.sh`): n = 10k
//! only, writes to `target/hotpath_quick.json` unless `--out` is given,
//! and exits non-zero when any median is non-finite/zero (panic/NaN
//! guard) or when `came_aggregate` skipped no rescans (CAME's dirty
//! tracking never fired).

use std::time::Instant;

use categorical_data::synth::{scaling, GeneratorConfig};
use mcdc_core::{encode_mgcpl, Came, ExecutionPlan, HotPathStats, Mgcpl, Workspace};

struct Entry {
    stage: &'static str,
    engine: &'static str,
    n: usize,
    /// Non-empty for the large-`d·k` shape-sweep rows.
    shape: &'static str,
    median_ms: f64,
    rows_per_s: f64,
    /// Hot-path counters for the workspace-backed rows.
    stats: Option<HotPathStats>,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn time_ms(run: impl FnMut()) -> f64 {
    let mut run = run;
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let args = Args::parse();
    let mut entries: Vec<Entry> = Vec::new();

    println!(
        "{:<18} {:>10} {:>8} {:>9} {:>6} {:>12} {:>14} {:>10} {:>12}",
        "stage", "engine", "n", "shape", "reps", "median ms", "rows/s", "skipped", "allocs/pass"
    );
    let mut push = |stage: &'static str,
                    engine: &'static str,
                    n: usize,
                    shape: &'static str,
                    reps: usize,
                    ms: f64,
                    stats: Option<HotPathStats>| {
        let rows_per_s = n as f64 / (ms / 1e3);
        let (skipped, apg) = stats.map_or((String::from("-"), String::from("-")), |s| {
            (s.skipped_rescans.to_string(), format!("{:.2}", s.allocations_per_pass()))
        });
        let shape_col = if shape.is_empty() { "-" } else { shape };
        println!(
            "{stage:<18} {engine:>10} {n:>8} {shape_col:>9} {reps:>6} {ms:>12.3} {rows_per_s:>14.0} {skipped:>10} {apg:>12}"
        );
        entries.push(Entry { stage, engine, n, shape, median_ms: ms, rows_per_s, stats });
    };

    for &n in &args.sizes {
        // Fewer repetitions at larger n keeps the snapshot under a minute.
        let reps = if n <= 3_000 {
            7
        } else if n <= 10_000 {
            5
        } else {
            3
        };
        let data = scaling::syn_n(n, args.seed);
        let serial = Mgcpl::builder().seed(1).build();
        // Four shards: enough replicas to exercise the merge machinery
        // without drowning a single-core host in clone overhead.
        let minibatch =
            Mgcpl::builder().seed(1).execution(ExecutionPlan::mini_batch(n.div_ceil(4))).build();

        // One persistent workspace per counted learner: the timed serial
        // reps (and the CAME reps below) run warm, which is both the
        // realistic service configuration and what keeps
        // `allocations_per_pass` at its steady-state value.
        let mut serial_ws = Workspace::new();
        let mut came_ws = Workspace::new();

        let explored = serial.fit(data.table()).expect("synthetic data fits");
        let encoding = encode_mgcpl(&explored).expect("Gamma is encodable");

        // Interleaved engine reps: alternating samples see the same
        // neighbor load, so their medians stay comparable.
        let mut serial_samples = Vec::with_capacity(reps);
        let mut minibatch_samples = Vec::with_capacity(reps);
        let mut serial_stats = HotPathStats::default();
        for _ in 0..reps {
            serial_samples.push(time_ms(|| {
                let result = serial.fit_with(data.table(), &mut serial_ws).expect("fit succeeds");
                serial_stats = result.stats;
                std::hint::black_box(result);
            }));
            minibatch_samples.push(time_ms(|| {
                std::hint::black_box(minibatch.fit(data.table()).expect("fit succeeds"));
            }));
        }
        push("mgcpl_explore", "serial", n, "", reps, median(serial_samples), Some(serial_stats));
        push("mgcpl_minibatch", "minibatch", n, "", reps, median(minibatch_samples), None);

        let encode_samples: Vec<f64> = (0..reps)
            .map(|_| {
                time_ms(|| {
                    std::hint::black_box(encode_mgcpl(&explored).expect("encodable"));
                })
            })
            .collect();
        push("encode_gamma", "serial", n, "", reps, median(encode_samples), None);

        // The default builder enables the chunked-parallel paths (exact, so
        // only throughput differs) — on one-worker pools they fall back to
        // the serial sweep.
        let came = Came::builder().build();
        let mut came_stats = HotPathStats::default();
        let came_samples: Vec<f64> = (0..reps)
            .map(|_| {
                time_ms(|| {
                    let result = came.fit_with(&encoding, 3, &mut came_ws).expect("fit succeeds");
                    came_stats = *result.stats();
                    std::hint::black_box(result);
                })
            })
            .collect();
        push("came_aggregate", "default", n, "", reps, median(came_samples), Some(came_stats));
    }

    // Large-`d·k` shape sweep (full runs only — the quick gate stays
    // fast): serial MGCPL at n = 3k with k₀ = √n ≈ 55 and wide,
    // high-cardinality schemas, so the value-major scoring matrix
    // (d · m · k₀ · 8 bytes) grows from ~112 KB through ~1.3 MB — the
    // out-of-L2 regime of the dense sweep.
    if !args.quick {
        const DK_N: usize = 3_000;
        const DK_SHAPES: &[(&str, usize, u32)] =
            &[("d32m8", 32, 8), ("d96m8", 96, 8), ("d192m16", 192, 16)];
        for &(name, d, m) in DK_SHAPES {
            let reps = 3;
            let data = GeneratorConfig::new(name, DK_N, vec![m; d], 3)
                .noise(0.05)
                .generate(args.seed)
                .dataset;
            let serial = Mgcpl::builder().seed(1).build();
            let mut ws = Workspace::new();
            let mut stats = HotPathStats::default();
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    time_ms(|| {
                        let result = serial.fit_with(data.table(), &mut ws).expect("fit succeeds");
                        stats = result.stats;
                        std::hint::black_box(result);
                    })
                })
                .collect();
            push("mgcpl_explore", "serial", DK_N, name, reps, median(samples), Some(stats));
        }
    }

    let json = render_json(&entries, args.seed);
    std::fs::write(&args.out, json).expect("write hotpath snapshot json");
    println!("\nwrote {}", args.out);

    if args.quick {
        smoke_check(&entries);
    }
}

/// The `--quick` gate: fail loudly (exit 1) on NaN/zero medians, or when
/// CAME's dirty tracking never skipped a rescan.
fn smoke_check(entries: &[Entry]) {
    let mut failures: Vec<String> = Vec::new();
    for e in entries {
        if !e.median_ms.is_finite() || e.median_ms <= 0.0 {
            failures.push(format!(
                "{} ({}, n={}) has degenerate median {}",
                e.stage, e.engine, e.n, e.median_ms
            ));
        }
    }
    const SMOKE_N: usize = 10_000;
    match entries.iter().find(|e| e.stage == "came_aggregate" && e.n == SMOKE_N) {
        Some(e) if e.stats.is_none_or(|s| s.skipped_rescans == 0) => {
            failures.push("came_aggregate skipped no rescans — dirty tracking never fired".into())
        }
        Some(_) => {}
        None => failures.push(format!("came_aggregate row missing at n = {SMOKE_N}")),
    }
    if failures.is_empty() {
        println!("perf smoke: OK");
    } else {
        for failure in &failures {
            eprintln!("perf smoke FAILED: {failure}");
        }
        std::process::exit(1);
    }
}

/// Hand-rolled JSON (the workspace has no serde_json; every value here is a
/// plain number or ASCII string, so escaping is a non-issue).
fn render_json(entries: &[Entry], seed: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"hotpath_snapshot\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"threads\": {},\n", rayon::current_num_threads()));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let counters = e.stats.map_or(String::new(), |s| {
            format!(
                ", \"skipped_rescans\": {}, \"full_rescans\": {}, \"allocations_per_pass\": {:.3}",
                s.skipped_rescans,
                s.full_rescans,
                s.allocations_per_pass()
            )
        });
        let shape = if e.shape.is_empty() {
            String::new()
        } else {
            format!(", \"shape\": \"{}\"", e.shape)
        };
        out.push_str(&format!(
            "    {{\"stage\": \"{}\", \"engine\": \"{}\", \"n\": {}{}, \"median_ms\": {:.3}, \"rows_per_s\": {:.0}{}}}{}\n",
            e.stage,
            e.engine,
            e.n,
            shape,
            e.median_ms,
            e.rows_per_s,
            counters,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

struct Args {
    out: String,
    seed: u64,
    sizes: Vec<usize>,
    quick: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args =
            Args { out: String::new(), seed: 7, sizes: vec![3_000, 10_000, 30_000], quick: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--out" => args.out = it.next().expect("--out PATH"),
                "--seed" => args.seed = it.next().expect("--seed N").parse().expect("numeric"),
                "--sizes" => {
                    args.sizes = it
                        .next()
                        .expect("--sizes a,b,c")
                        .split(',')
                        .map(|s| s.trim().parse().expect("numeric size"))
                        .collect();
                }
                "--quick" => {
                    args.quick = true;
                    args.sizes = vec![10_000];
                }
                other => panic!("unknown flag {other}; use --out, --seed, --sizes, --quick"),
            }
        }
        if args.out.is_empty() {
            args.out = if args.quick {
                "target/hotpath_quick.json".to_owned()
            } else {
                "BENCH_hotpath.json".to_owned()
            };
        }
        args
    }
}
