//! Significance harness for the replicated engine's one reconciliation
//! knob, the shard-overlap halo (DESIGN.md §5).
//!
//! On the well-separated and the nested high-overlap synthetic suites it
//! fits, per fit seed, the serial reference and three replicated plans —
//! `mini_batch(n/4)`, `mini_batch(n/8)` and a placement-derived `Sharded`
//! plan (`GranularPartitioner` over 4 workers) — each disjoint and with a
//! halo (n/32 rows for the mini-batch plans, `suggested_halo` for the
//! placement). Every halo arm is compared with its disjoint twin by the
//! two-sided paired Wilcoxon signed-rank test over the fit seeds (the test
//! the paper uses for Table III). `BENCH_reconcile.json` records per-seed
//! ACC, per-arm summaries and the paired p-values.
//!
//! Usage: `cargo run --release -p mcdc-bench --bin reconcile_ablation
//!        [--out PATH] [--seeds N] [--n ROWS] [--quick]`
//!
//! `--quick` runs a tiny grid (n = 240, 2 seeds) and writes nothing — the
//! `scripts/verify.sh` gate. It fails on a panic, on a non-finite metric,
//! or when a halo arm scores no more rows per pass than its disjoint twin
//! (the halo path never ran). Rows scored per pass is MGCPL's
//! `full_rescans / passes`: exactly n for a disjoint plan, n plus the
//! borrowed rows under a halo. Total `score_evals` is not the check,
//! because a halo fit may converge in fewer passes and score less overall.

use categorical_data::synth::GeneratorConfig;
use categorical_data::Dataset;
use cluster_eval::{accuracy, adjusted_rand_index, wilcoxon_signed_rank};
use mcdc_core::{ExecutionPlan, Mcdc, Mgcpl};
use mcdc_dist_sim::{execution_plan_from_placement, suggested_halo, GranularPartitioner};

/// Workers of the placement-derived `Sharded` plan.
const WORKERS: usize = 4;

/// One fitted arm: a plan at one halo width, over every fit seed.
struct Arm {
    suite: &'static str,
    plan: String,
    halo: usize,
    acc: Vec<f64>,
    ari: Vec<f64>,
    /// MGCPL score evaluations summed over the fit seeds.
    score_evals: u64,
    /// MGCPL rows scored (`full_rescans`) and passes, summed over seeds.
    rows_scored: u64,
    passes: u64,
}

impl Arm {
    fn run(
        suite: &'static str,
        plan_label: String,
        plan: &ExecutionPlan,
        halo: usize,
        data: &Dataset,
        k: usize,
        seeds: u64,
    ) -> Arm {
        let mut arm = Arm {
            suite,
            plan: plan_label,
            halo,
            acc: Vec::new(),
            ari: Vec::new(),
            score_evals: 0,
            rows_scored: 0,
            passes: 0,
        };
        for seed in 1..=seeds {
            let result = Mcdc::builder()
                .seed(seed)
                .execution(plan.clone())
                .halo(halo)
                .build()
                .fit(data.table(), k)
                .expect("ablation fit succeeds");
            let acc = accuracy(data.labels(), result.labels());
            let ari = adjusted_rand_index(data.labels(), result.labels());
            assert!(
                acc.is_finite() && ari.is_finite(),
                "non-finite metric on {suite}/{}/halo={halo} (seed {seed})",
                arm.plan
            );
            arm.acc.push(acc);
            arm.ari.push(ari);
            let stats = &result.mgcpl().stats;
            arm.score_evals += stats.score_evals;
            arm.rows_scored += stats.full_rescans;
            arm.passes += stats.passes;
        }
        arm
    }

    fn rows_per_pass(&self) -> f64 {
        self.rows_scored as f64 / self.passes as f64
    }
}

/// A halo arm against its disjoint twin.
struct Comparison {
    suite: &'static str,
    plan: String,
    halo: usize,
    mean_diff: f64,
    p_value: f64,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn suites(n: usize) -> Vec<(&'static str, Dataset, usize)> {
    // The two regimes DESIGN.md §4 contrasts: cleanly separated clusters,
    // where every engine recovers the structure, and nested high-overlap
    // clusters (3 classes × 3 sub-clusters sharing 70% of their features),
    // where shard-local cascades land on different granularities run to run.
    vec![
        (
            "separated",
            GeneratorConfig::new("sep", n, vec![4; 8], 3).noise(0.05).generate(5).dataset,
            3,
        ),
        (
            "nested-overlap",
            GeneratorConfig::new("nested", n, vec![4; 8], 3)
                .subclusters(3)
                .shared_fraction(0.7)
                .noise(0.08)
                .generate(3)
                .dataset,
            3,
        ),
    ]
}

/// The replicated plans of one suite, each paired with its halo width:
/// two mini-batch plans at halo n/32 and the placement-derived `Sharded`
/// plan at `suggested_halo`.
fn replicated_plans(n: usize, data: &Dataset) -> Vec<(String, ExecutionPlan, usize)> {
    let granular = Mgcpl::builder().seed(1).build().fit(data.table()).expect("placement fit");
    let placement = GranularPartitioner::new(WORKERS).place(&granular);
    let halo = (n / 32).max(1);
    vec![
        (format!("minibatch({})", n / 4), ExecutionPlan::mini_batch(n / 4), halo),
        (format!("minibatch({})", n / 8), ExecutionPlan::mini_batch(n / 8), halo),
        (
            format!("placement({WORKERS})"),
            execution_plan_from_placement(&placement),
            suggested_halo(&placement),
        ),
    ]
}

/// Fits every arm of every suite: serial, then each replicated plan
/// disjoint and at its halo. Returns the arms and the halo-vs-disjoint
/// comparisons.
fn run_grid(n: usize, seeds: u64) -> (Vec<Arm>, Vec<Comparison>) {
    let mut arms = Vec::new();
    let mut comparisons = Vec::new();
    for (suite, data, k) in suites(n) {
        arms.push(Arm::run(suite, "serial".to_owned(), &ExecutionPlan::Serial, 0, &data, k, seeds));
        for (label, plan, halo) in replicated_plans(n, &data) {
            let disjoint = Arm::run(suite, label.clone(), &plan, 0, &data, k, seeds);
            let overlap = Arm::run(suite, label.clone(), &plan, halo, &data, k, seeds);
            assert!(
                overlap.rows_per_pass() > disjoint.rows_per_pass(),
                "halo arm {suite}/{label}/halo={halo} scored no more rows per pass than its \
                 disjoint twin ({} vs {}): the halo path never ran",
                overlap.rows_per_pass(),
                disjoint.rows_per_pass()
            );
            comparisons.push(Comparison {
                suite,
                plan: label,
                halo,
                mean_diff: mean(&overlap.acc) - mean(&disjoint.acc),
                p_value: wilcoxon_signed_rank(&overlap.acc, &disjoint.acc).p_value,
            });
            arms.push(disjoint);
            arms.push(overlap);
        }
    }
    (arms, comparisons)
}

fn print_grid(arms: &[Arm], comparisons: &[Comparison]) {
    println!(
        "{:<16} {:<16} {:>5} {:>9} {:>9} {:>9} {:>9} {:>12} {:>9}",
        "suite",
        "plan",
        "halo",
        "acc mean",
        "acc min",
        "acc band",
        "ari mean",
        "score_evals",
        "rows/pass"
    );
    for arm in arms {
        println!(
            "{:<16} {:<16} {:>5} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>12} {:>9.1}",
            arm.suite,
            arm.plan,
            arm.halo,
            mean(&arm.acc),
            min(&arm.acc),
            max(&arm.acc) - min(&arm.acc),
            mean(&arm.ari),
            arm.score_evals,
            arm.rows_per_pass()
        );
    }
    println!("\nhalo vs disjoint (paired Wilcoxon over fit seeds):");
    for c in comparisons {
        println!(
            "{:<16} {:<16} halo={:<4} Δacc={:+.3} p={:.3e}",
            c.suite, c.plan, c.halo, c.mean_diff, c.p_value
        );
    }
}

fn main() {
    let args = Args::parse();
    if args.quick {
        let (arms, comparisons) = run_grid(240, 2);
        print_grid(&arms, &comparisons);
        println!("reconcile_ablation --quick: OK");
        return;
    }
    let (arms, comparisons) = run_grid(args.n, args.seeds);
    print_grid(&arms, &comparisons);
    std::fs::write(&args.out, render_json(&arms, &comparisons, args.seeds, args.n))
        .expect("write BENCH_reconcile.json");
    println!("\nwrote {}", args.out);
}

fn render_list(values: &[f64]) -> String {
    values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(", ")
}

/// Hand-rolled JSON (the workspace has no serde_json; labels are plain
/// ASCII, numbers are finite).
fn render_json(arms: &[Arm], comparisons: &[Comparison], seeds: u64, n: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"reconcile_ablation\",\n");
    out.push_str(&format!("  \"fit_seeds\": {seeds},\n"));
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"suite\": \"{}\", \"plan\": \"{}\", \"halo\": {}, \"acc_mean\": {:.4}, \
             \"acc_min\": {:.4}, \"acc_max\": {:.4}, \"acc_band\": {:.4}, \"ari_mean\": {:.4}, \
             \"score_evals\": {}, \"rows_per_pass\": {:.1}, \"acc\": [{}]}}{}\n",
            a.suite,
            a.plan,
            a.halo,
            mean(&a.acc),
            min(&a.acc),
            max(&a.acc),
            max(&a.acc) - min(&a.acc),
            mean(&a.ari),
            a.score_evals,
            a.rows_per_pass(),
            render_list(&a.acc),
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"halo_vs_disjoint\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"suite\": \"{}\", \"plan\": \"{}\", \"halo\": {}, \"acc_mean_diff\": {:.4}, \
             \"wilcoxon_p\": {:.3e}}}{}\n",
            c.suite,
            c.plan,
            c.halo,
            c.mean_diff,
            c.p_value,
            if i + 1 < comparisons.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

struct Args {
    out: String,
    seeds: u64,
    n: usize,
    quick: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args =
            Args { out: "BENCH_reconcile.json".to_owned(), seeds: 30, n: 600, quick: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--out" => args.out = it.next().expect("--out PATH"),
                "--seeds" => args.seeds = it.next().expect("--seeds N").parse().expect("numeric"),
                "--n" => args.n = it.next().expect("--n ROWS").parse().expect("numeric"),
                "--quick" => args.quick = true,
                other => panic!("unknown flag {other}; use --out, --seeds, --n, --quick"),
            }
        }
        args
    }
}
