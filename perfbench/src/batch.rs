//! The batch journeys: CSV text → table → MGCPL → Γ encoding → CAME →
//! labels → frozen artifact → bytes → loaded artifact, then the loaded
//! artifact labels every fitted row once (its served quality).
//!
//! The untraced journey goes through the facade (`Mcdc::fit`,
//! `McdcResult::freeze`); the traced journey calls each layer's public
//! function itself, inside a span, and must produce the same labels bit for
//! bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use categorical_data::io::{read_csv_str, CsvOptions};
use categorical_data::{CategoricalTable, Dataset};
use mcdc_core::{
    encode_mgcpl, Came, ExecutionPlan, FrozenModel, HotPathStats, Mcdc, Mgcpl, Workspace,
};

use crate::calib::{self, Calibrator};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::{Layers, RunConfig};

/// Journey `j` of a run fits its own data set (made from the workload seed
/// and `j`) with MCDC seed `MCDC_SEED + j`.
pub const MCDC_SEED: u64 = 11;
/// Journeys a run makes at least, however short `--seconds` is.
pub const MIN_JOURNEYS: u64 = 3;

/// Seed of input `j` of a run with workload seed `seed`.
pub fn input_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(j)
}

pub struct BatchSpec {
    /// Makes the data set of one input from its seed.
    pub make: Box<dyn Fn(u64) -> Dataset>,
    pub k: usize,
    pub plan: ExecutionPlan,
}

/// The input exactly as a user would hand it over: CSV text, class label in
/// the last column.
pub fn render_csv(dataset: &Dataset) -> String {
    let table = dataset.table();
    let mut text = String::with_capacity(table.n_rows() * (table.n_features() * 2 + 4));
    for (i, row) in table.rows().enumerate() {
        for &code in row {
            let _ = write!(text, "{code},");
        }
        let _ = writeln!(text, "c{}", dataset.labels()[i]);
    }
    text
}

/// What one journey produced.
struct Journey {
    seconds: f64,
    parse_s: f64,
    labels: Vec<usize>,
    truth: Vec<usize>,
    table: CategoricalTable,
    frozen: FrozenModel,
    loaded: FrozenModel,
    mgcpl: HotPathStats,
    came: HotPathStats,
    came_iterations: usize,
    k0: usize,
    sigma: usize,
}

impl Journey {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("mgcpl.score_evals", self.mgcpl.score_evals),
            ("mgcpl.passes", self.mgcpl.passes),
            ("mgcpl.full_rescans", self.mgcpl.full_rescans),
            ("mgcpl.skipped_rescans", self.mgcpl.skipped_rescans),
            ("mgcpl.allocations", self.mgcpl.allocations),
            ("mgcpl.sigma", self.sigma as u64),
            ("execution.merges", self.mgcpl.merges),
            ("execution.rotations", self.mgcpl.rotations),
            ("came.score_evals", self.came.score_evals),
            ("came.iterations", self.came_iterations as u64),
        ]
    }
}

/// The untraced journey through the facade.
fn journey(spec: &BatchSpec, csv: &str, seed: u64) -> Result<Journey, String> {
    let mcdc = Mcdc::builder().seed(seed).execution(spec.plan.clone()).build();
    let start = Instant::now();
    let dataset = read_csv_str(csv, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let parse_s = start.elapsed().as_secs_f64();
    let result = mcdc.fit(dataset.table(), spec.k).map_err(|e| e.to_string())?;
    let frozen = result.freeze(dataset.table()).map_err(|e| e.to_string())?;
    let loaded = FrozenModel::from_bytes(&frozen.to_bytes()).map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    let (table, truth) = dataset.into_parts();
    Ok(Journey {
        seconds,
        parse_s,
        labels: result.labels().to_vec(),
        truth,
        table,
        frozen,
        loaded,
        mgcpl: result.mgcpl().stats,
        came: *result.came().stats(),
        came_iterations: result.came().iterations(),
        k0: result.mgcpl().trace.initial_k,
        sigma: result.mgcpl().sigma(),
    })
}

/// The same journey, layer by layer, each call inside a span.
fn traced_journey(
    spec: &BatchSpec,
    csv: &str,
    seed: u64,
    op: u64,
    tr: &mut Tracer,
) -> Result<Journey, String> {
    // The same configuration `Mcdc::builder().seed(seed).execution(plan)`
    // hands to each stage.
    let mgcpl = Mgcpl::builder().seed(seed).execution(spec.plan.clone()).build();
    let came = Came::builder().seed(seed).execution(spec.plan.clone()).build();
    let start = Instant::now();
    let root = tr.enter("journey", op);
    let dataset = tr
        .span("csv.read_csv_str", op, || read_csv_str(csv, &CsvOptions::default()))
        .map_err(|e| e.to_string())?;
    let parse_s = start.elapsed().as_secs_f64();
    let mut ws = Workspace::new();
    let explored = tr
        .span("mgcpl.fit_with", op, || mgcpl.fit_with(dataset.table(), &mut ws))
        .map_err(|e| e.to_string())?;
    let encoding = tr
        .span("encoding.encode_mgcpl", op, || encode_mgcpl(&explored))
        .map_err(|e| e.to_string())?;
    let aggregated = tr
        .span("came.fit_with", op, || came.fit_with(&encoding, spec.k, &mut ws))
        .map_err(|e| e.to_string())?;
    let frozen_span = tr.enter("frozen", op);
    let frozen = tr
        .span("frozen.freeze", op, || {
            FrozenModel::from_partition(
                dataset.table(),
                aggregated.labels(),
                aggregated.modes().len(),
            )
        })
        .map_err(|e| e.to_string())?;
    let bytes = tr.span("frozen.to_bytes", op, || frozen.to_bytes());
    let loaded = tr
        .span("frozen.from_bytes", op, || FrozenModel::from_bytes(&bytes))
        .map_err(|e| e.to_string())?;
    tr.exit(frozen_span);
    tr.exit(root);
    let seconds = start.elapsed().as_secs_f64();
    let (table, truth) = dataset.into_parts();
    Ok(Journey {
        seconds,
        parse_s,
        labels: aggregated.labels().to_vec(),
        truth,
        table,
        frozen,
        loaded,
        mgcpl: explored.stats,
        came: *aggregated.stats(),
        came_iterations: aggregated.iterations(),
        k0: explored.trace.initial_k,
        sigma: explored.sigma(),
    })
}

/// The loaded artifact labels every fitted row in one `score_batch` call.
fn serve(j: &Journey, op: u64, tr: &mut Tracer) -> Vec<usize> {
    let mut out = Vec::with_capacity(j.table.n_rows());
    tr.span("frozen.score_batch", op, || j.loaded.score_batch(j.table.rows(), &mut out));
    out.into_iter().map(|l| l as usize).collect()
}

/// Correctness checks on one journey's output.
fn check(report: &mut Report, spec: &BatchSpec, j: &Journey, served: &[usize], seed: u64) {
    let k = spec.k;
    let mut seen = vec![false; k];
    let in_range = j.labels.iter().all(|&l| {
        l < k && {
            seen[l] = true;
            true
        }
    });
    report.check(in_range && seen.iter().all(|&s| s), || {
        format!("labels of MCDC seed {seed} are not dense in 0..{k}")
    });
    report.check(j.loaded == j.frozen, || {
        format!("FrozenModel bytes round trip differs (seed {seed})")
    });
    let mut direct = Vec::new();
    j.frozen.score_batch(j.table.rows(), &mut direct);
    report.check(direct.iter().map(|&l| l as usize).eq(served.iter().copied()), || {
        format!("loaded artifact serves other labels than the frozen model (seed {seed})")
    });
}

pub fn run(spec: &BatchSpec, cfg: &RunConfig, report: &mut Report, layers: &mut Layers) {
    let mut tracer = Tracer::new(cfg.trace);

    let mut untraced_s = Vec::new();
    let calibrator = Calibrator::default();
    // Host-speed kernel time beside each untraced journey (see `calib`).
    let mut kernel_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut parse_s = Vec::new();
    let mut accs = Vec::new();
    let mut serve_accs = Vec::new();
    let mut first_labels = Vec::new();
    let mut per_layer: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut first_traced: Option<Journey> = None;
    let mut score_ns = 0u64;
    let mut scored_rows = 0usize;

    let mut n = 0;
    let mut first_csv = String::new();
    let start = Instant::now();
    let mut op = 0u64;
    while op < MIN_JOURNEYS || start.elapsed().as_secs_f64() < cfg.seconds {
        let input = op as usize;
        let dataset = (spec.make)(input_seed(cfg.seed, op));
        n = dataset.n_rows();
        let csv = &render_csv(&dataset);
        drop(dataset);
        if op == 0 {
            first_csv = csv.clone();
        }
        let seed = MCDC_SEED + op;
        // A traced run pairs each traced journey with an untraced one of the
        // same input, alternating which goes first.
        let traced_first = op % 2 == 0;
        // Labels of this input from `Mcdc::fit` and from the layer-by-layer
        // path, which must agree bit for bit.
        let (mut facade, mut layered) = (None, None);
        for pass in 0..if cfg.trace { 2 } else { 1 } {
            let traced = cfg.trace && (pass == 0) == traced_first;
            // Only the untraced run's metrics are scaled; a traced run keeps
            // its pairs alike.
            let kernel_before = if cfg.trace { 0.0 } else { kernel(&calibrator) };
            let result = if traced {
                traced_journey(spec, csv, seed, op, &mut tracer)
            } else {
                journey(spec, csv, seed)
            };
            let Some(j) = report.attempt(&format!("journey (input {input})"), result) else {
                tracer.drain();
                continue;
            };
            report.pin(format!("input {input} (MCDC seed {seed})"), &j.counters());
            let mut off = Tracer::new(false);
            let served = serve(&j, op, if traced { &mut tracer } else { &mut off });
            check(report, spec, &j, &served, seed);
            if traced {
                traced_s.push(j.seconds);
                layered = Some(j.labels.clone());
                let spans = tracer.drain();
                journey_layers(&spans, &j, &mut per_layer);
                score_ns += trace::total_ns(&spans, "frozen.score_batch");
                scored_rows += served.len();
                if first_traced.is_none() {
                    cfg.save_spans(&spans);
                    first_traced = Some(j);
                }
                continue;
            }
            if !cfg.trace {
                kernel_s.push((kernel_before + kernel(&calibrator)) / 2.0);
            }
            untraced_s.push(j.seconds);
            parse_s.push(j.parse_s);
            accs.push(cluster_eval::accuracy(&j.truth, &j.labels));
            serve_accs.push(cluster_eval::accuracy(&j.truth, &served));
            facade = Some(j.labels);
        }
        if let (Some(f), Some(l)) = (&facade, &layered) {
            report.check(f == l, || {
                format!("layer-by-layer labels differ from Mcdc::fit on input {input}")
            });
        }
        if op == 0 {
            first_labels = facade.unwrap_or_default();
        }
        op += 1;
    }

    // A traced run checked every input against the layer-by-layer path and
    // repeated every input's counters; an untraced run does both for the
    // first input once, outside the timed loop.
    if !cfg.trace {
        let mut off = Tracer::new(false);
        let j = traced_journey(spec, &first_csv, MCDC_SEED, 0, &mut off);
        if let Some(j) = report.attempt("layer-by-layer journey", j) {
            report.pin(format!("input 0 (MCDC seed {MCDC_SEED})"), &j.counters());
            report.check(j.labels == first_labels, || {
                "layer-by-layer labels differ from Mcdc::fit on input 0".to_owned()
            });
        }
    }

    let fit_s = stats::median(&untraced_s);
    if !cfg.trace {
        // Timings at the host-speed kernel's nominal speed (see `calib`).
        let scaled = |times: &[f64]| -> Vec<f64> {
            times.iter().zip(&kernel_s).map(|(&t, &k)| Calibrator::scale(t, k)).collect()
        };
        let journeys_s = scaled(&untraced_s);
        report.metric("fit_s", stats::interquartile_mean(&journeys_s), "s");
        report.metric("acc", stats::mean(&accs), "ratio");
        report.metric("setup_s", stats::median(&scaled(&parse_s)), "s");
        report.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        // Throughput over the whole run: every fitted row over all journey
        // time.
        let rows = (n * journeys_s.len()) as f64;
        report.metric("rows_per_s", rows / journeys_s.iter().sum::<f64>(), "1/s");
        report.metric("serve_acc", stats::mean(&serve_accs), "ratio");
        report.notes.push(format!(
            "fit_s is the interquartile mean of {} journeys (median {:.6} s); as measured: median journey {fit_s:.6} s, parse {:.6} s; host-speed kernel median {:.6} s (nominal {} s)",
            untraced_s.len(),
            stats::median(&journeys_s),
            stats::median(&parse_s),
            stats::median(&kernel_s),
            calib::NOMINAL_S,
        ));
        return;
    }

    let j = first_traced.expect("a traced run records at least one traced journey");
    for (name, values) in per_layer.iter().filter(|(name, _)| Layers::declared(name)) {
        layers.set(name, stats::median(values));
    }
    layers.set("mgcpl.score_evals", j.mgcpl.score_evals as f64);
    layers.set("mgcpl.passes", j.mgcpl.passes as f64);
    layers.set("mgcpl.stages", j.sigma as f64);
    layers.set("mgcpl.k0", j.k0 as f64);
    layers.set("mgcpl.sigma", j.sigma as f64);
    layers.set("mgcpl.full_rescans", j.mgcpl.full_rescans as f64);
    layers.set("mgcpl.skip_rate", j.mgcpl.skip_rate());
    layers.set("mgcpl.allocations", j.mgcpl.allocations as f64);
    layers.set("execution.merges", j.mgcpl.merges as f64);
    layers.set("execution.rotations", j.mgcpl.rotations as f64);
    layers.set("execution.survivor_fraction", j.mgcpl.survivor_fraction());
    layers.set("came.iterations", j.came_iterations as f64);
    layers.set("came.score_evals", j.came.score_evals as f64);
    layers.set("came.skip_rate", j.came.skip_rate());
    layers.set("frozen.table_bytes", j.loaded.table_bytes() as f64);
    layers.set("frozen.score_ns_per_row", score_ns as f64 / scored_rows.max(1) as f64);
    // Traced and untraced journeys of one input ran back to back, so the
    // overhead is the median of the paired differences.
    let overhead: Vec<f64> =
        traced_s.iter().zip(&untraced_s).map(|(t, u)| (t - u) / u * 100.0).collect();
    let overhead_pct = stats::median(&overhead);
    layers.set("trace.overhead_pct", overhead_pct);
    // How far the traced layers' self times (the journey minus its own
    // glue) land from the paired untraced journey.
    let layer_sums = per_layer["journey.traced_ms"]
        .iter()
        .zip(&per_layer["journey.self_ms"])
        .map(|(t, g)| t - g);
    let accounted: Vec<f64> =
        layer_sums.zip(&untraced_s).map(|(ms, u)| (ms / 1e3 - u) / u * 100.0).collect();

    share_table(report, &per_layer, fit_s, stats::median(&accounted), overhead_pct, traced_s.len());
}

/// Per-layer figures of one traced journey, appended to `per_layer`.
fn journey_layers(spans: &[trace::Span], j: &Journey, per_layer: &mut BTreeMap<String, Vec<f64>>) {
    let journey_ns = trace::total_ns(spans, "journey") as f64;
    let self_ns = trace::layer_self_ns(spans);
    // The serving phase is not part of the journey.
    let frozen_self =
        self_ns.get("frozen").copied().unwrap_or(0) - trace::total_ns(spans, "frozen.score_batch");
    let mut push = |name: String, v: f64| per_layer.entry(name).or_default().push(v);
    for (layer, ns) in [
        ("csv", self_ns.get("csv").copied().unwrap_or(0)),
        ("mgcpl", self_ns.get("mgcpl").copied().unwrap_or(0)),
        ("encoding", self_ns.get("encoding").copied().unwrap_or(0)),
        ("came", self_ns.get("came").copied().unwrap_or(0)),
        ("frozen", frozen_self),
        ("journey", self_ns.get("journey").copied().unwrap_or(0)),
    ] {
        push(format!("{layer}.share"), ns as f64 / journey_ns * 100.0);
        push(format!("{layer}.self_ms"), ns as f64 / 1e6);
    }
    let ms = |name: &str| trace::total_ns(spans, name) as f64 / 1e6;
    push("csv.parse_ms".into(), ms("csv.read_csv_str"));
    push("mgcpl.fit_ms".into(), ms("mgcpl.fit_with"));
    push(
        "mgcpl.ns_per_eval".into(),
        ms("mgcpl.fit_with") * 1e6 / j.mgcpl.score_evals.max(1) as f64,
    );
    push("encoding.encode_ms".into(), ms("encoding.encode_mgcpl"));
    push("came.fit_ms".into(), ms("came.fit_with"));
    push("frozen.freeze_ms".into(), ms("frozen.freeze"));
    push("frozen.save_load_ms".into(), ms("frozen.to_bytes") + ms("frozen.from_bytes"));
    push("journey.traced_ms".into(), journey_ns / 1e6);
}

/// The layer-share table: median self time per layer as a share of the
/// traced journey, and how the layers add up against the untraced `fit_s`.
fn share_table(
    report: &mut Report,
    per_layer: &BTreeMap<String, Vec<f64>>,
    fit_s: f64,
    accounted_pct: f64,
    overhead_pct: f64,
    journeys: usize,
) {
    let med = |name: &str| per_layer.get(name).map_or(0.0, |v| stats::median(v));
    report.notes.push(format!("layer share of the journey ({journeys} traced journeys, each paired with an untraced one):"));
    report.notes.push(format!("  {:<10} {:>12} {:>8}", "layer", "self ms", "share"));
    for layer in ["csv", "mgcpl", "encoding", "came", "frozen", "journey"] {
        let (ms, share) = (med(&format!("{layer}.self_ms")), med(&format!("{layer}.share")));
        report.notes.push(format!("  {layer:<10} {ms:>12.3} {share:>7.2}%"));
    }
    report.notes.push(format!(
        "  untraced fit_s {:.1} ms; layer self times minus the paired untraced journey {accounted_pct:+.2}% (median); tracing overhead {overhead_pct:+.2}%",
        fit_s * 1e3,
    ));
}

/// Median of three timings of the host-speed kernel.
fn kernel(c: &Calibrator) -> f64 {
    stats::median(&[c.time(), c.time(), c.time()])
}
