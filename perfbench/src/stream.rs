//! The drifting stream: `StreamingMcdc` bootstrapped on a clean batch, then
//! an open loop of arrivals through `try_absorb` under
//! `UnseenPolicy::Quarantine`, with read queries through `try_serve_batch`
//! and the default drift trigger firing re-fits.
//!
//! The inputs are made here, from the workload seed: a clean nested regime,
//! two bursts of the same regime at high noise (the drift), and a small
//! share of rows carrying a value code outside the fitted domain (the
//! corrupt rows). The loop runs on one thread against a virtual clock: each
//! call is timed, and [`stats::replay`] turns those service times into
//! latencies from each arrival's due time, so a query that arrives during a
//! re-fit waits for it without anything sleeping or spinning.

use std::collections::VecDeque;
use std::time::Instant;

use categorical_data::synth::{GeneratorConfig, NestedDataset};
use categorical_data::CategoricalTable;
use mcdc_core::{Admission, FrozenModel, Mgcpl, StreamingMcdc, UnseenPolicy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::calib::{self, Calibrator};
use crate::report::Report;
use crate::stats::{self, Event, Kind};
use crate::trace::Tracer;
use crate::{batch, Layers, RunConfig};

/// Features, cardinality, classes and sub-clusters of the stream's regime.
pub const D: usize = 16;
pub const M: u32 = 6;
pub const K: usize = 6;
pub const SUBCLUSTERS: usize = 3;
/// Noise of the clean regime, and of the high-noise regime the bursts
/// draw from (same class and sub-cluster modes).
pub const CLEAN_NOISE: f64 = 0.08;
pub const BURST_NOISE: f64 = 0.95;
/// Similarity below which an arrival counts as poorly matched. At the
/// default (0.3) about half of the noise-0.95 rows still score above it
/// against the best of ~18 clusters over 6-value features, so the window's
/// drift ratio never reaches the trigger's 0.25; the re-fit trigger itself
/// keeps its defaults.
pub const DRIFT_THRESHOLD: f64 = 0.5;
/// Rows of the bootstrap batch.
pub const BOOT_ROWS: usize = 4096;
/// Arrivals per pass.
pub const ARRIVALS: usize = 50_000;
/// The two drift bursts, as `[start, end)` arrival indices. The trigger's
/// window runs from the last re-fit, so each burst starts 6 000 clean
/// arrivals after the previous one ends; the first re-fit then fires about
/// 2 000 rows into the burst, and re-fits repeat every ~32 arrivals until
/// the burst ends (6–7 per burst).
pub const BURSTS: [(usize, usize); 2] = [(6_000, 8_200), (14_200, 16_400)];
/// Share of arrivals that carry an out-of-domain code.
pub const CORRUPT_SHARE: f64 = 0.01;
/// Every `QUERY_EVERY`-th arrival also issues a query over the
/// `QUERY_ROWS` most recently admitted rows.
pub const QUERY_EVERY: usize = 16;
pub const QUERY_ROWS: usize = 256;
/// Nominal arrival rate of the open loop (arrivals per second).
pub const ARRIVAL_RATE: f64 = 200.0;
/// Serve-latency limit the maximum rate must meet at p99.
pub const SERVE_LIMIT_S: f64 = 0.02;
/// MGCPL seed of the stream's learner.
pub const MCDC_SEED: u64 = 7;
/// Bootstraps timed per pass for `setup_s`, each on its own clean batch.
pub const SETUP_REPEATS: usize = 4;
/// Arrivals between two timings of the host-speed kernel.
pub const KERNEL_EVERY: usize = 2_500;
/// Passes a run makes at least, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Arrival-rate ladder (arrivals per second).
pub fn rate_ladder() -> Vec<f64> {
    stats::ladder(50.0, 1.25, 24)
}

/// One pass's inputs.
struct Inputs {
    boot: CategoricalTable,
    boot_truth: Truth,
    /// Further clean batches of the bootstrap's size, bootstrapped only to
    /// time set-up on more than one data set per pass.
    setup_batches: Vec<CategoricalTable>,
    /// Arrival rows, flat (`D` codes each).
    rows: Vec<u32>,
    truth: Truth,
    corrupt: usize,
}

impl Inputs {
    fn make(seed: u64) -> Inputs {
        let n = BOOT_ROWS + ARRIVALS;
        let regime = |noise: f64| {
            GeneratorConfig::new("stream", n, vec![M; D], K)
                .subclusters(SUBCLUSTERS)
                .shared_fraction(0.7)
                .noise(noise)
                .generate(seed)
        };
        // Same seed, so the same modes; only the noise differs.
        let clean = regime(CLEAN_NOISE);
        let burst = regime(BURST_NOISE);
        let truth_of = |ds: &NestedDataset, i: usize| (ds.dataset.labels()[i], ds.fine_labels[i]);
        let boot_idx: Vec<usize> = (0..BOOT_ROWS).collect();
        let boot = clean.dataset.table().select_rows(&boot_idx);
        let boot_truth = Truth::from_iter((0..BOOT_ROWS).map(|i| truth_of(&clean, i)));
        let setup_batches = (1..SETUP_REPEATS)
            .map(|r| {
                let idx: Vec<usize> = (r * BOOT_ROWS..(r + 1) * BOOT_ROWS).collect();
                clean.dataset.table().select_rows(&idx)
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0DE_BAD5);
        let mut rows = Vec::with_capacity(ARRIVALS * D);
        let mut truth = Truth::default();
        let mut corrupt = 0;
        for a in 0..ARRIVALS {
            let i = BOOT_ROWS + a;
            let start = rows.len();
            let source =
                if BURSTS.iter().any(|&(s, e)| (s..e).contains(&a)) { &burst } else { &clean };
            rows.extend_from_slice(source.dataset.table().row(i));
            truth.push(truth_of(source, i));
            if rng.gen_bool(CORRUPT_SHARE) {
                let feature = rng.gen_range(0..D);
                rows[start + feature] = M + rng.gen_range(0..1000u32);
                corrupt += 1;
            }
        }
        Inputs { boot, boot_truth, setup_batches, rows, truth, corrupt }
    }

    fn row(&self, a: usize) -> &[u32] {
        &self.rows[a * D..(a + 1) * D]
    }
}

/// Ground truth at both granularities of the nested regime.
#[derive(Default)]
struct Truth {
    class: Vec<usize>,
    sub: Vec<usize>,
}

impl Truth {
    fn from_iter(it: impl Iterator<Item = (usize, usize)>) -> Truth {
        let mut t = Truth::default();
        it.for_each(|pair| t.push(pair));
        t
    }

    fn push(&mut self, (class, sub): (usize, usize)) {
        self.class.push(class);
        self.sub.push(sub);
    }

    /// Hungarian ACC of `labels` (of rows `idx`) against the granularity
    /// — class or sub-cluster — it matches best. The stream serves MGCPL's
    /// coarsest granularity, which is the 18 sub-clusters on most seeds and
    /// the 6 classes on some, so either truth alone would score a correct
    /// model at about 0.5.
    fn acc(&self, idx: impl Iterator<Item = usize> + Clone, labels: &[usize]) -> f64 {
        let class: Vec<usize> = idx.clone().map(|i| self.class[i]).collect();
        let sub: Vec<usize> = idx.map(|i| self.sub[i]).collect();
        cluster_eval::accuracy(&class, labels).max(cluster_eval::accuracy(&sub, labels))
    }
}

/// What one pass measured, summarized as soon as it ends so a long run
/// holds no per-call traces (which would inflate `peak_rss_mb`).
#[derive(Default)]
struct Pass {
    /// `StreamingMcdc::bootstrap` times: the bootstrap the pass streams
    /// into, then one per further clean batch of the same size.
    setup_s: Vec<f64>,
    acc: f64,
    serve_acc: f64,
    refit_s: Vec<f64>,
    save_load_s: Vec<f64>,
    score_ns: u64,
    scored_rows: usize,
    counters: Vec<(&'static str, u64)>,
    table_bytes: usize,
    /// Median time of the host-speed kernel over the pass.
    kernel_s: f64,
    /// Busy seconds in absorb, refit and serve calls.
    busy_s: [f64; 3],
    /// Median service times of absorb and serve calls.
    absorb_service_s: f64,
    serve_service_s: f64,
    /// From the replay at the nominal rate: serve p50 and p99, absorb p99
    /// and queue-wait p99 (serve latency minus its service time).
    serve_p50_s: f64,
    serve_p99_s: f64,
    absorb_p99_s: f64,
    wait_p99_s: f64,
    max_rate: f64,
}

impl Pass {
    fn rows_per_s(&self) -> f64 {
        ARRIVALS as f64 / self.busy_s.iter().sum::<f64>()
    }

    /// Busy seconds at the host-speed kernel's nominal speed.
    fn scaled_busy_s(&self) -> f64 {
        Calibrator::scale(self.busy_s.iter().sum::<f64>(), self.kernel_s)
    }

    /// Fills the timing summary from the pass's service-time trace.
    fn summarize(&mut self, events: &[Event], ladder: &[f64]) {
        let service = |kind: Kind| -> Vec<f64> {
            events.iter().filter(|e| e.kind == kind).map(|e| e.service_s).collect()
        };
        for (slot, kind) in [Kind::Absorb, Kind::Refit, Kind::Serve].into_iter().enumerate() {
            self.busy_s[slot] = service(kind).iter().sum();
        }
        self.absorb_service_s = stats::median(&service(Kind::Absorb));
        let serve_service = service(Kind::Serve);
        self.serve_service_s = stats::median(&serve_service);
        let r = stats::replay(events, ARRIVAL_RATE);
        self.serve_p50_s = stats::median(&r.serve_s);
        self.serve_p99_s = stats::percentile(&r.serve_s, 0.99);
        self.absorb_p99_s = stats::percentile(&r.absorb_s, 0.99);
        let waits: Vec<f64> = r.serve_s.iter().zip(&serve_service).map(|(l, s)| l - s).collect();
        self.wait_p99_s = stats::percentile(&waits, 0.99);
        self.max_rate = stats::max_rate(events, ladder, SERVE_LIMIT_S);
    }
}

fn timed<T>(tr: &mut Tracer, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tr.enter(name, op);
    let start = Instant::now();
    let out = f();
    let s = start.elapsed().as_secs_f64();
    tr.exit(span);
    (out, s)
}

/// Runs one pass over `inputs`; returns its summary and its service-time
/// trace.
fn pass(
    inputs: &Inputs,
    ladder: &[f64],
    calibrator: &Calibrator,
    report: &mut Report,
    tr: &mut Tracer,
) -> Option<(Pass, Vec<Event>)> {
    let mut p = Pass::default();
    // The host-speed kernel runs before the bootstrap and then every
    // `KERNEL_EVERY` arrivals, outside every timed call.
    let mut kernel_s = vec![calibrator.time()];
    let (stream, setup_s) = timed(tr, "streaming.bootstrap", 0, || {
        StreamingMcdc::bootstrap(Mgcpl::builder().seed(MCDC_SEED).build(), &inputs.boot).map(|s| {
            s.with_unseen_policy(UnseenPolicy::Quarantine).with_drift_threshold(DRIFT_THRESHOLD)
        })
    });
    let mut stream = report.attempt("StreamingMcdc::bootstrap", stream)?;
    p.setup_s.push(setup_s);
    for batch in &inputs.setup_batches {
        let start = Instant::now();
        let again = StreamingMcdc::bootstrap(Mgcpl::builder().seed(MCDC_SEED).build(), batch);
        p.setup_s.push(start.elapsed().as_secs_f64());
        report.attempt("StreamingMcdc::bootstrap", again);
    }
    let mut labels = Vec::new();
    stream.served_model().score_batch(inputs.boot.rows(), &mut labels);
    let boot_labels: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
    p.acc = inputs.boot_truth.acc(0..BOOT_ROWS, &boot_labels);

    let mut events = Vec::with_capacity(ARRIVALS + ARRIVALS / QUERY_EVERY + 64);
    let mut serve_accs = Vec::with_capacity(ARRIVALS / QUERY_EVERY);
    let mut recent: VecDeque<usize> = VecDeque::with_capacity(QUERY_ROWS);
    let mut served = Vec::with_capacity(QUERY_ROWS);
    let mut direct = Vec::with_capacity(QUERY_ROWS);
    let mut quarantined = 0usize;
    for a in 0..ARRIVALS {
        if a % KERNEL_EVERY == KERNEL_EVERY - 1 {
            kernel_s.push(calibrator.time());
        }
        let op = a as u64;
        let slot = a as u32;
        let row = inputs.row(a);
        let ((admission, due_refit), absorb_s) = timed(tr, "streaming.try_absorb", op, || {
            (stream.try_absorb(row), stream.should_refit())
        });
        events.push(Event { slot, kind: Kind::Absorb, service_s: absorb_s });
        match report.attempt("try_absorb", admission) {
            Some(Admission::Learned { .. }) => {
                if recent.len() == QUERY_ROWS {
                    recent.pop_front();
                }
                recent.push_back(a);
            }
            Some(Admission::Quarantined) => quarantined += 1,
            None => {}
        }
        if due_refit {
            let (refit, s) = timed(tr, "streaming.refit", op, || stream.refit().map(|_| ()));
            events.push(Event { slot, kind: Kind::Refit, service_s: s });
            p.refit_s.push(s);
            if report.attempt("refit", refit).is_some() && !stream.last_refit_degraded() {
                let model = stream.served_model();
                let start = Instant::now();
                let bytes = tr.span("frozen.to_bytes", op, || model.to_bytes());
                let loaded = tr.span("frozen.from_bytes", op, || FrozenModel::from_bytes(&bytes));
                p.save_load_s.push(start.elapsed().as_secs_f64());
                let same = loaded.as_ref().is_ok_and(|l| l == model);
                report.check(same, || {
                    format!("served FrozenModel bytes round trip differs at arrival {a}")
                });
            }
        }
        if a % QUERY_EVERY == QUERY_EVERY - 1 && !recent.is_empty() {
            let rows: Vec<&[u32]> = recent.iter().map(|&r| inputs.row(r)).collect();
            let (result, s) = timed(tr, "streaming.try_serve_batch", op, || {
                stream.try_serve_batch(rows.iter().copied(), &mut served)
            });
            events.push(Event { slot, kind: Kind::Serve, service_s: s });
            if report.attempt("try_serve_batch", result).is_none() {
                continue;
            }
            let start = Instant::now();
            tr.span("frozen.score_batch", op, || {
                stream.served_model().score_batch(rows.iter().copied(), &mut direct)
            });
            p.score_ns += start.elapsed().as_nanos() as u64;
            p.scored_rows += rows.len();
            report.check(served == direct, || {
                format!("served labels differ from served_model() at arrival {a}")
            });
            let got: Vec<usize> = served.iter().map(|&l| l as usize).collect();
            serve_accs.push(inputs.truth.acc(recent.iter().copied(), &got));
        }
    }
    p.serve_acc = stats::mean(&serve_accs);
    p.kernel_s = stats::median(&kernel_s);

    let ingest = stream.ingest_stats();
    report.check(ingest.admitted_rows + ingest.quarantined_rows == ARRIVALS as u64, || {
        format!(
            "admitted {} + quarantined {} != offered {ARRIVALS}",
            ingest.admitted_rows, ingest.quarantined_rows
        )
    });
    report.check(
        ingest.quarantined_rows == inputs.corrupt as u64 && quarantined == inputs.corrupt,
        || {
            format!(
                "quarantined {} rows, injected {} corrupt rows",
                ingest.quarantined_rows, inputs.corrupt
            )
        },
    );
    p.table_bytes = stream.served_model().table_bytes();
    p.counters = vec![
        ("streaming.refits", p.refit_s.len() as u64),
        ("streaming.rollbacks", stream.rollbacks()),
        ("streaming.admitted", ingest.admitted_rows),
        ("streaming.quarantined", ingest.quarantined_rows),
        ("streaming.health_transitions", stream.serving_health().transitions),
        ("streaming.n_seen", stream.n_seen() as u64),
        ("streaming.sigma", stream.sigma() as u64),
    ];
    p.summarize(&events, ladder);
    Some((p, events))
}

pub fn run(cfg: &RunConfig, report: &mut Report, layers: &mut Layers) {
    let ladder = rate_ladder();
    let calibrator = Calibrator::default();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut first_events = Vec::new();
    let mut tracer = Tracer::new(cfg.trace);
    let mut saved = false;

    // Pass `j` replays its own inputs, made from the workload seed and `j`.
    // A traced run pairs each traced pass with an untraced one of the same
    // inputs (alternating which goes first); an untraced run repeats the
    // first inputs once after the timed loop. Either way the repeat must
    // repeat every counter.
    let mut first_inputs = None;
    let start = Instant::now();
    let mut round = 0usize;
    while round < MIN_PASSES || start.elapsed().as_secs_f64() < cfg.seconds {
        let inputs = Inputs::make(batch::input_seed(cfg.seed, round as u64));
        for half in 0..if cfg.trace { 2 } else { 1 } {
            let is_traced = cfg.trace && (half == 0) == (round % 2 == 0);
            let mut off = Tracer::new(false);
            let tr = if is_traced { &mut tracer } else { &mut off };
            let Some((p, events)) = pass(&inputs, &ladder, &calibrator, report, tr) else {
                tracer.drain();
                continue;
            };
            report.pin(format!("stream input {round}"), &p.counters);
            if is_traced {
                let spans = tracer.drain();
                if !saved {
                    cfg.save_spans(&spans);
                    saved = true;
                }
                traced.push(p);
            } else {
                if first_events.is_empty() {
                    first_events = events;
                }
                untraced.push(p);
            }
        }
        if round == 0 {
            first_inputs = Some(inputs);
        }
        round += 1;
    }
    if let (false, Some(inputs)) = (cfg.trace, &first_inputs) {
        if let Some((p, _)) = pass(inputs, &ladder, &calibrator, report, &mut Tracer::new(false)) {
            report.pin("stream input 0".to_owned(), &p.counters);
        }
    }

    let med = |ps: &[Pass], f: &dyn Fn(&Pass) -> f64| {
        stats::median(&ps.iter().map(f).collect::<Vec<_>>())
    };
    let rows_per_s = med(&untraced, &|p| p.rows_per_s());
    let serve_p50 = med(&untraced, &|p| p.serve_p50_s) * 1e6;
    let serve_p99 = med(&untraced, &|p| p.serve_p99_s) * 1e6;
    let max_rate = med(&untraced, &|p| p.max_rate);
    if !cfg.trace {
        // Timings at the host-speed kernel's nominal speed (see `calib`).
        let refits: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.refit_s.iter().map(|&s| Calibrator::scale(s, p.kernel_s)))
            .collect();
        report.metric("fit_s", stats::interquartile_mean(&refits), "s");
        report.metric(
            "acc",
            stats::mean(&untraced.iter().map(|p| p.acc).collect::<Vec<_>>()),
            "ratio",
        );
        let setups: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.setup_s.iter().map(|&s| Calibrator::scale(s, p.kernel_s)))
            .collect();
        report.metric("setup_s", stats::median(&setups), "s");
        report.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        // Throughput over the whole run: every arrival over all busy time.
        let busy: f64 = untraced.iter().map(Pass::scaled_busy_s).sum();
        report.metric("rows_per_s", (untraced.len() * ARRIVALS) as f64 / busy, "1/s");
        report.metric(
            "serve_acc",
            stats::mean(&untraced.iter().map(|p| p.serve_acc).collect::<Vec<_>>()),
            "ratio",
        );
        report.notes.push(format!(
            "{} passes of {ARRIVALS} arrivals at {ARRIVAL_RATE}/s nominal; fit_s is the interquartile mean of {} re-fits (median {:.6} s)",
            untraced.len(),
            refits.len(),
            stats::median(&refits),
        ));
        report.notes.push(format!(
            "as measured: re-fit median {:.6} s, bootstrap median {:.6} s, rows_per_s {:.3} 1/s; host-speed kernel median {:.6} s (nominal {} s)",
            stats::median(&untraced.iter().flat_map(|p| p.refit_s.iter().copied()).collect::<Vec<_>>()),
            stats::median(&untraced.iter().flat_map(|p| p.setup_s.iter().copied()).collect::<Vec<_>>()),
            (untraced.len() * ARRIVALS) as f64
                / untraced.iter().flat_map(|p| p.busy_s).sum::<f64>(),
            med(&untraced, &|p| p.kernel_s),
            calib::NOMINAL_S,
        ));
        report.notes.push(format!(
            "not gated: serve_p50_us {serve_p50:.3} us, serve_p99_us {serve_p99:.3} us, absorb_p99_us {:.3} us, max_rate_per_s {max_rate:.3} 1/s (serve p99 limit {} ms)",
            med(&untraced, &|p| p.absorb_p99_s) * 1e6,
            SERVE_LIMIT_S * 1e3
        ));
        report.notes.push("rate ladder, replayed from the first pass:".to_owned());
        report.notes.extend(stats::ladder_table(&first_events, &ladder));
        return;
    }

    // Latencies from due time come from the untraced passes of the pairs;
    // service times and busy shares from the traced ones.
    layers.set("streaming.serve_latency_us_p50", serve_p50);
    layers.set("streaming.serve_latency_us_p99", serve_p99);
    layers.set("streaming.max_rate_per_s", max_rate);
    layers.set("streaming.absorb_latency_us_p99", med(&untraced, &|p| p.absorb_p99_s) * 1e6);
    layers.set("streaming.queue_wait_us_p99", med(&untraced, &|p| p.wait_p99_s) * 1e6);
    let first = &traced[0];
    for (name, value) in &first.counters {
        if Layers::declared(name) {
            layers.set(name, *value as f64);
        }
    }
    let refits: Vec<f64> = traced.iter().flat_map(|p| p.refit_s.iter().copied()).collect();
    layers.set("streaming.absorb_us_p50", med(&traced, &|p| p.absorb_service_s) * 1e6);
    layers.set("streaming.refit_ms_p50", stats::median(&refits) * 1e3);
    layers.set("streaming.refit_ms_max", stats::percentile(&refits, 1.0) * 1e3);
    layers.set("streaming.serve_us_p50", med(&traced, &|p| p.serve_service_s) * 1e6);
    let busy: f64 = traced.iter().flat_map(|p| p.busy_s).sum();
    let share = |slot: usize| traced.iter().map(|p| p.busy_s[slot]).sum::<f64>() / busy * 100.0;
    let shares = [share(0), share(1), share(2)];
    layers.set("streaming.busy_share.absorb", shares[0]);
    layers.set("streaming.busy_share.refit", shares[1]);
    layers.set("streaming.busy_share.serve", shares[2]);
    let save_load: Vec<f64> = traced.iter().flat_map(|p| p.save_load_s.iter().copied()).collect();
    layers.set("frozen.save_load_ms", stats::median(&save_load) * 1e3);
    layers.set("frozen.table_bytes", first.table_bytes as f64);
    let (score_ns, scored): (u64, usize) =
        traced.iter().fold((0, 0), |(n, r), p| (n + p.score_ns, r + p.scored_rows));
    layers.set("frozen.score_ns_per_row", score_ns as f64 / scored.max(1) as f64);
    // Traced and untraced passes of one input ran back to back, so the
    // overhead is the median of the paired throughput losses.
    let traced_rate = med(&traced, &|p| p.rows_per_s());
    let overhead: Vec<f64> = traced
        .iter()
        .zip(&untraced)
        .map(|(t, u)| (u.rows_per_s() - t.rows_per_s()) / u.rows_per_s() * 100.0)
        .collect();
    layers.set("trace.overhead_pct", stats::median(&overhead));
    report.notes.push(format!(
        "stream busy time ({} traced, {} untraced passes): absorb {:.1}%, refit {:.1}%, serve {:.1}%; rows/s traced {traced_rate:.0} vs untraced {rows_per_s:.0}",
        traced.len(),
        untraced.len(),
        shares[0],
        shares[1],
        shares[2],
    ));
}
