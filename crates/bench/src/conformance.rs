//! Differential conformance harness (DESIGN.md §10): replays seeded random
//! tables through the textbook [`mcdc_reference`] oracle and the optimized
//! tree across the execution grid, checking tiered equivalence, plus the
//! deterministic work-counter suites the perf gates compare.
//!
//! Three layers, all driven by the `conformance` binary:
//!
//! * **Grid replay** — [`replay_table`] runs one seeded random table (from
//!   [`random_table`]) through every [`GridCell`] of [`grid`]. *Exact*-tier
//!   cells are pinned bit-for-bit against the oracle (partitions, κ, Θ,
//!   labels); *bounded*-tier cells (replicated plans with genuinely
//!   different presentation semantics) must agree with the oracle's
//!   partition above the [`bounded_floor`] clustering accuracy; every cell
//!   additionally passes the universal internal-consistency checks of
//!   [`internal_divergence`] (σ/κ bookkeeping and an exact cross-tree
//!   entropy comparison).
//! * **Shrinking** — [`minimize_table`] greedily drops row chunks from a
//!   diverging table while the divergence persists, so a fuzz failure is
//!   reported as a small replayable witness instead of a 200-row blob.
//! * **Gates** — [`measure_suite`] runs the fixed [`gate_suites`] and sums
//!   the [`mcdc_core::HotPathStats`] work counters (`score_evals`, `merges`, passes,
//!   rescans). The counters are machine-independent, so `PERF_GATES.toml`
//!   baselines ([`parse_gates`] / [`render_gates`]) turn perf regressions
//!   into deterministic test failures ([`compare_counters`]).

use categorical_data::stats::entropy_from_counts;
use categorical_data::synth::GeneratorConfig;
use categorical_data::{CategoricalTable, MISSING};
use cluster_eval::accuracy;
use mcdc_core::{ExecutionPlan, FaultPlan, Mcdc, McdcResult, Mgcpl, StreamingMcdc, UnseenPolicy};
use mcdc_reference::{
    distinct_labels, partition_entropy, reference_mcdc, ReferenceConfig, ReferenceMcdc,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Minimum clustering accuracy a bounded-tier cell must reach against the
/// oracle's serial partition, as a function of the sought `k`. Replicated
/// plans present rows in genuinely different cohorts, so bit-equality is
/// not the contract — being distinguishably above chance is.
///
/// Hungarian-matched ACC between two `k`-clusterings is provably ≥ `1/k`
/// (the best of the `k!` label matchings beats their average, which is
/// exactly `n/k` matched objects), so `1/k` is the chance floor a broken
/// merge degenerates to. The margins are set at roughly half the worst
/// agreement observed over 8 000 bounded-cell fits (1 000 fuzz seeds):
/// 0.052 above chance at `k = 3`, 0.14 at `k = 4`, 0.20 at `k = 5`. At
/// `k = 2` the bound is vacuous by construction — any two binary
/// partitions already match at ≥ 0.5 — so detection power there comes
/// from the exact tier and the universal internal checks instead.
pub fn bounded_floor(k: usize) -> f64 {
    let chance = 1.0 / k as f64;
    let margin = match k {
        0..=2 => 0.0,
        3 => 0.025,
        _ => 0.07,
    };
    chance + margin
}

/// Equivalence tier of one grid cell (DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Pinned bit-for-bit against the oracle: partitions, κ, Θ, labels.
    Exact,
    /// Bounded agreement: oracle-vs-optimized clustering accuracy must
    /// clear [`bounded_floor`]; everything internal is still checked.
    Bounded,
}

/// Execution-plan arm of a grid cell, resolved against the table's `n` at
/// fit time (batch and shard geometry scale with the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanArm {
    /// The serial engine.
    Serial,
    /// One mini-batch spanning the whole table: replicated machinery,
    /// serial-equivalent semantics (exact tier).
    FullBatch,
    /// Four mini-batches per pass.
    QuarterBatch,
    /// Three contiguous shards.
    Sharded3,
}

/// Reconciliation arm of a grid cell (ignored by serial plans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyArm {
    /// Disjoint shards, span-size-weighted δ averaging.
    Average,
    /// The same merge over shards overlapping by a 2-row halo.
    Overlap,
}

/// One cell of the conformance grid: a full pipeline configuration and the
/// equivalence tier its results are held to.
#[derive(Debug, Clone, Copy)]
pub struct GridCell {
    /// Stable display name (also the `--replay` report key).
    pub name: &'static str,
    /// Equivalence tier.
    pub tier: Tier,
    /// Execution plan arm.
    pub plan: PlanArm,
    /// Reconciliation arm.
    pub policy: PolicyArm,
}

/// The `ExecutionPlan × halo` grid — every combination with distinct
/// semantics, 5 cells. The serial engine and a single full-batch shard
/// reproduce the oracle bit for bit (exact tier); real multi-shard plans
/// genuinely reorder the cascade and are held to the bounded floor.
pub fn grid() -> Vec<GridCell> {
    use PlanArm::*;
    use PolicyArm::*;
    let cell = |name, tier, plan, policy| GridCell { name, tier, plan, policy };
    vec![
        cell("serial/cold", Tier::Exact, Serial, Average),
        cell("batch-full/average/cold", Tier::Exact, FullBatch, Average),
        cell("batch/average", Tier::Bounded, QuarterBatch, Average),
        cell("sharded/average", Tier::Bounded, Sharded3, Average),
        cell("sharded/overlap", Tier::Bounded, Sharded3, Overlap),
    ]
}

/// Shape of one fuzzed table, drawn deterministically from the replay seed
/// by [`table_spec`]; printed verbatim in divergence reports so a witness
/// is reproducible from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Rows.
    pub n: usize,
    /// Sought clusters (also the generator's planted fine structure).
    pub k: usize,
    /// Optional explicit `k₀` override (13–24) on a third of the seeds,
    /// so the grid also replays wide cohorts.
    pub initial_k: Option<usize>,
    /// Per-feature cardinalities, skewed: most features are narrow, a
    /// random minority wide.
    pub cardinalities: Vec<u32>,
    /// Generator label-noise rate.
    pub noise: f64,
    /// Post-generation MISSING injection density.
    pub missing: f64,
}

/// Draws the table shape for one replay seed.
pub fn table_spec(seed: u64) -> TableSpec {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15));
    let n = rng.gen_range(40..=240usize);
    let k = rng.gen_range(2..=5usize);
    let d = rng.gen_range(3..=9usize);
    let cardinalities = (0..d)
        .map(|_| if rng.gen_bool(0.3) { rng.gen_range(5..=12u32) } else { rng.gen_range(2..=4u32) })
        .collect();
    let initial_k =
        if rng.gen_bool(0.35) { Some(rng.gen_range(13..=24usize).min(n)) } else { None };
    let noise = rng.gen_range(0.02..0.25);
    let missing = if rng.gen_bool(0.4) { 0.0 } else { rng.gen_range(0.01..0.15) };
    TableSpec { n, k, initial_k, cardinalities, noise, missing }
}

/// Materializes a spec into a table: planted-cluster generation plus
/// seeded MISSING injection. Deterministic per `(spec, seed)`.
pub fn build_table(spec: &TableSpec, seed: u64) -> CategoricalTable {
    let data = GeneratorConfig::new("conformance", spec.n, spec.cardinalities.clone(), spec.k)
        .noise(spec.noise)
        .generate(seed)
        .dataset;
    let mut table = data.table().clone();
    if spec.missing > 0.0 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4D49_5353);
        let mut row = Vec::new();
        for i in 0..spec.n {
            row.clear();
            row.extend_from_slice(table.row(i));
            let mut dirty = false;
            for v in row.iter_mut() {
                if rng.gen_bool(spec.missing) {
                    *v = MISSING;
                    dirty = true;
                }
            }
            if dirty {
                table.replace_row(i, &row).expect("same-schema row");
            }
        }
    }
    table
}

/// [`table_spec`] + [`build_table`] in one call.
pub fn random_table(seed: u64) -> (TableSpec, CategoricalTable) {
    let spec = table_spec(seed);
    let table = build_table(&spec, seed);
    (spec, table)
}

/// Runs one grid cell's optimized pipeline on a table.
pub fn run_cell(
    table: &CategoricalTable,
    k: usize,
    initial_k: Option<usize>,
    seed: u64,
    cell: &GridCell,
) -> McdcResult {
    let n = table.n_rows();
    let mut builder = Mcdc::builder().seed(seed);
    if let Some(k0) = initial_k {
        builder = builder.initial_k(k0);
    }
    builder = match cell.plan {
        PlanArm::Serial => builder,
        PlanArm::FullBatch => builder.execution(ExecutionPlan::mini_batch(n)),
        PlanArm::QuarterBatch => {
            builder.execution(ExecutionPlan::mini_batch((n / 4).max(8.min(n))))
        }
        PlanArm::Sharded3 => builder.execution(ExecutionPlan::sharded(contiguous_shards(n, 3))),
    };
    if cell.policy == PolicyArm::Overlap {
        builder = builder.halo(2);
    }
    builder.build().fit(table, k).expect("conformance tables are non-degenerate")
}

/// Runs the oracle configuration every cell is compared against.
pub fn run_reference(
    table: &CategoricalTable,
    k: usize,
    initial_k: Option<usize>,
    seed: u64,
) -> ReferenceMcdc {
    let config = ReferenceConfig { seed, initial_k, ..Default::default() };
    reference_mcdc(table, k, &config).expect("oracle accepts every generated table")
}

fn contiguous_shards(n: usize, shards: usize) -> Vec<Vec<usize>> {
    let per = n.div_ceil(shards);
    (0..shards).map(|s| (s * per..((s + 1) * per).min(n)).collect()).collect()
}

/// Universal internal-consistency checks every cell (and the oracle
/// itself) must pass, independent of tier: σ/κ bookkeeping, dense strictly
/// decreasing κ, and an exact cross-tree entropy agreement — the oracle's
/// count-stream [`partition_entropy`] must reproduce the core
/// [`entropy_from_counts`] bit-for-bit on every produced partition.
pub fn internal_divergence(partitions: &[Vec<usize>], kappa: &[usize]) -> Option<String> {
    if partitions.len() != kappa.len() {
        return Some(format!("σ mismatch: {} partitions vs {} κ", partitions.len(), kappa.len()));
    }
    for (j, (partition, &k)) in partitions.iter().zip(kappa).enumerate() {
        let distinct = distinct_labels(partition);
        if distinct != k {
            return Some(format!("κ[{j}] = {k} but partition has {distinct} labels"));
        }
        if partition.iter().any(|&l| l >= k) {
            return Some(format!("partition {j} labels not dense in 0..{k}"));
        }
        if j > 0 && kappa[j - 1] <= k {
            return Some(format!("κ not strictly decreasing at stage {j}: {:?}", kappa));
        }
        let mut counts = vec![0u64; k];
        for &l in partition {
            counts[l] += 1;
        }
        let via_core = entropy_from_counts(counts.iter().copied());
        let via_oracle = partition_entropy(partition);
        if via_core.to_bits() != via_oracle.to_bits() {
            return Some(format!(
                "entropy cross-check failed at stage {j}: core {via_core:.17} vs oracle \
                 {via_oracle:.17}"
            ));
        }
    }
    None
}

/// Checks one cell's optimized result against the oracle; `None` means
/// conformant, `Some(detail)` is the divergence description.
pub fn cell_divergence(
    table: &CategoricalTable,
    k: usize,
    initial_k: Option<usize>,
    seed: u64,
    cell: &GridCell,
    oracle: &ReferenceMcdc,
) -> Option<String> {
    let opt = run_cell(table, k, initial_k, seed, cell);
    if let Some(detail) = internal_divergence(&opt.mgcpl().partitions, &opt.mgcpl().kappa) {
        return Some(detail);
    }
    match cell.tier {
        Tier::Exact => {
            if opt.mgcpl().kappa != oracle.mgcpl.kappa {
                return Some(format!(
                    "κ: optimized {:?} vs oracle {:?}",
                    opt.mgcpl().kappa,
                    oracle.mgcpl.kappa
                ));
            }
            if opt.mgcpl().partitions != oracle.mgcpl.partitions {
                return Some("partitions differ from the oracle".into());
            }
            if opt.came().theta() != oracle.came.theta {
                return Some(format!(
                    "Θ: optimized {:?} vs oracle {:?}",
                    opt.came().theta(),
                    oracle.came.theta
                ));
            }
            if opt.labels() != oracle.labels {
                return Some("final labels differ from the oracle".into());
            }
            None
        }
        Tier::Bounded => {
            let acc = accuracy(&oracle.labels, opt.labels());
            let floor = bounded_floor(k);
            if acc < floor {
                Some(format!("ACC vs oracle {acc:.3} below floor {floor:.3} (k = {k})"))
            } else {
                None
            }
        }
    }
}

/// One conformance failure: the replay seed, the cell, and what diverged.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The replay seed ([`random_table`] input).
    pub seed: u64,
    /// The diverging cell's name.
    pub cell: &'static str,
    /// Human-readable description of the first failed check.
    pub detail: String,
}

/// Replays one seed through the whole grid, returning every divergence
/// (empty = fully conformant). The oracle itself is also held to the
/// internal-consistency checks, reported under the pseudo-cell `oracle`.
pub fn replay_table(seed: u64) -> Vec<Divergence> {
    let (spec, table) = random_table(seed);
    let oracle = run_reference(&table, spec.k, spec.initial_k, seed);
    let mut divergences = Vec::new();
    if let Some(detail) = internal_divergence(&oracle.mgcpl.partitions, &oracle.mgcpl.kappa) {
        divergences.push(Divergence { seed, cell: "oracle", detail });
    }
    for cell in grid() {
        if let Some(detail) = cell_divergence(&table, spec.k, spec.initial_k, seed, &cell, &oracle)
        {
            divergences.push(Divergence { seed, cell: cell.name, detail });
        }
    }
    divergences
}

/// Greedy ddmin-style shrink of a diverging table: repeatedly drops row
/// chunks (halving the chunk size down to single rows) while the named
/// cell still diverges, keeping at least `max(k, k₀)` rows so both trees
/// keep accepting the input. Returns the minimized rows.
pub fn minimize_table(spec: &TableSpec, seed: u64, cell: &GridCell) -> Vec<Vec<u32>> {
    let table = build_table(spec, seed);
    let schema = table.schema().clone();
    let floor = spec.k.max(spec.initial_k.unwrap_or(2));
    let diverges = |rows: &[Vec<u32>]| -> bool {
        if rows.len() < floor {
            return false;
        }
        let mut sub = CategoricalTable::new(schema.clone());
        for row in rows {
            sub.push_row(row).expect("minimized rows share the schema");
        }
        let oracle = run_reference(&sub, spec.k, spec.initial_k, seed);
        cell_divergence(&sub, spec.k, spec.initial_k, seed, cell, &oracle).is_some()
    };

    let rows: Vec<Vec<u32>> = (0..table.n_rows()).map(|i| table.row(i).to_vec()).collect();
    shrink_rows(rows, floor, diverges)
}

/// The chunk-halving shrink loop behind [`minimize_table`]: drops row
/// chunks while `diverges` keeps returning `true` on the remainder, never
/// going below `floor` rows.
pub fn shrink_rows(
    mut rows: Vec<Vec<u32>>,
    floor: usize,
    diverges: impl Fn(&[Vec<u32>]) -> bool,
) -> Vec<Vec<u32>> {
    let mut chunk = rows.len() / 2;
    while chunk >= 1 {
        let mut start = 0;
        while start < rows.len() && rows.len() > floor {
            let end = (start + chunk).min(rows.len());
            let mut candidate = Vec::with_capacity(rows.len() - (end - start));
            candidate.extend_from_slice(&rows[..start]);
            candidate.extend_from_slice(&rows[end..]);
            if candidate.len() >= floor && diverges(&candidate) {
                rows = candidate;
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    rows
}

/// Renders a divergence witness: the seed, the drawn spec, and the
/// minimized rows (MISSING as `?`), ready to paste into a regression test.
pub fn render_witness(spec: &TableSpec, divergence: &Divergence, rows: &[Vec<u32>]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "DIVERGENCE seed={} cell={} — {}\n",
        divergence.seed, divergence.cell, divergence.detail
    ));
    out.push_str(&format!(
        "  spec: n={} k={} k0={:?} cards={:?} noise={:.3} missing={:.3}\n",
        spec.n, spec.k, spec.initial_k, spec.cardinalities, spec.noise, spec.missing
    ));
    out.push_str(&format!("  replay: conformance --replay {}\n", divergence.seed));
    out.push_str(&format!("  minimized table ({} rows):\n", rows.len()));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .map(|&v| if v == MISSING { "?".to_string() } else { v.to_string() })
            .collect();
        out.push_str(&format!("    {}\n", cells.join(",")));
    }
    out
}

// ---------------------------------------------------------------------------
// Perf gates: deterministic work counters over fixed suites.
// ---------------------------------------------------------------------------

/// The deterministic work counters one gate suite sums over its seeds
/// (MGCPL + CAME stats of every fit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCounters {
    /// Object–cluster score evaluations ([`mcdc_core::HotPathStats::score_evals`]).
    pub score_evals: u64,
    /// Replicated profile merges ([`mcdc_core::HotPathStats::merges`]).
    pub merges: u64,
    /// Learning passes + refinement iterations.
    pub passes: u64,
    /// Full scoring sweeps.
    pub full_rescans: u64,
    /// Sweeps skipped by CAME's dirty-cluster tracking.
    pub skipped_rescans: u64,
    /// Rows refused at the ingestion boundary
    /// ([`mcdc_core::IngestStats::rejected_rows`]); only the
    /// streaming-ingest suite drives this.
    pub rejected_rows: u64,
    /// Rows diverted to the quarantine buffer
    /// ([`mcdc_core::IngestStats::quarantined_rows`]).
    pub quarantined_rows: u64,
    /// Out-of-domain values coerced to MISSING
    /// ([`mcdc_core::IngestStats::coerced_values`]).
    pub coerced_values: u64,
    /// Serving-health state transitions
    /// ([`mcdc_core::ServingHealth::transitions`]).
    pub health_transitions: u64,
}

impl GateCounters {
    /// The counters as `(name, value)` pairs, in file order.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("score_evals", self.score_evals),
            ("merges", self.merges),
            ("passes", self.passes),
            ("full_rescans", self.full_rescans),
            ("skipped_rescans", self.skipped_rescans),
            ("rejected_rows", self.rejected_rows),
            ("quarantined_rows", self.quarantined_rows),
            ("coerced_values", self.coerced_values),
            ("health_transitions", self.health_transitions),
        ]
    }
}

/// One fixed perf-gate suite: a deterministic workload whose summed
/// counters are pinned in `PERF_GATES.toml`.
#[derive(Debug, Clone, Copy)]
pub struct GateSuite {
    /// Section name in `PERF_GATES.toml`.
    pub name: &'static str,
    /// MGCPL's starting cluster count `k₀` ([`GATE_K0`] for every
    /// checked-in suite; the `--gate` self-test raises it).
    pub initial_k: usize,
    /// Mini-batch size; 0 = serial.
    pub batch: usize,
    /// Streaming-ingest suite: drives corrupted traffic through the
    /// `try_absorb` boundary instead of batch fits (DESIGN.md §11).
    pub ingest: bool,
}

/// Rows per gate-suite table.
const GATE_N: usize = 480;
/// MGCPL `k₀` of every checked-in gate suite.
pub const GATE_K0: usize = 24;
/// Seeds each suite sums over.
const GATE_SEEDS: [u64; 3] = [11, 12, 13];

/// The checked-in gate suites: the serial hot path (dense MGCPL plus
/// dirty-tracked CAME), the replicated merge path (δ average, one merge per
/// pass), and the streaming-ingest boundary under seeded row corruption.
pub fn gate_suites() -> Vec<GateSuite> {
    vec![
        GateSuite { name: "serial", initial_k: GATE_K0, batch: 0, ingest: false },
        GateSuite { name: "replicated", initial_k: GATE_K0, batch: GATE_N / 4, ingest: false },
        GateSuite { name: "streaming-ingest", initial_k: GATE_K0, batch: 0, ingest: true },
    ]
}

/// Runs one suite and sums its work counters. Deterministic: fixed table
/// shapes, fixed seeds, and counters that are independent of thread
/// schedule and wall clock.
pub fn measure_suite(suite: &GateSuite) -> GateCounters {
    let mut total = GateCounters::default();
    if suite.ingest {
        measure_ingest_suite(&mut total);
        return total;
    }
    for &seed in &GATE_SEEDS {
        let data =
            GeneratorConfig::new("gate", GATE_N, vec![6; 8], 3).noise(0.12).generate(seed).dataset;
        let mut builder = Mcdc::builder().seed(seed).initial_k(suite.initial_k);
        if suite.batch > 0 {
            builder = builder.execution(ExecutionPlan::mini_batch(suite.batch));
        }
        let result = builder.build().fit(data.table(), 3).expect("gate tables are well-formed");
        for stats in [&result.mgcpl().stats, result.came().stats()] {
            total.score_evals += stats.score_evals;
            total.merges += stats.merges;
            total.passes += stats.passes;
            total.full_rescans += stats.full_rescans;
            total.skipped_rescans += stats.skipped_rescans;
        }
    }
    total
}

/// Arrivals the streaming-ingest gate suite pushes through `try_absorb`
/// per (seed, policy) run.
const GATE_INGEST_ARRIVALS: u64 = 400;

/// The streaming-ingest gate workload: per seed and per [`UnseenPolicy`],
/// bootstrap a [`StreamingMcdc`], replay `GATE_INGEST_ARRIVALS` rows drawn
/// cyclically from a fixed table with seeded [`FaultPlan`] row corruption
/// armed, and sum the boundary counters. Everything — the corruption
/// schedule, the admission decisions, the health walk — is a pure function
/// of the seeds, so the counters are machine-independent.
fn measure_ingest_suite(total: &mut GateCounters) {
    for &seed in &GATE_SEEDS {
        let data = GeneratorConfig::new("gate-ingest", 240, vec![4; 6], 3)
            .noise(0.1)
            .generate(seed)
            .dataset;
        let plan = FaultPlan::seeded(seed ^ 0x1A6E57)
            .ingest_truncation_rate(0.08)
            .ingest_out_of_domain_rate(0.15)
            .ingest_missing_flood_rate(0.08);
        for policy in [UnseenPolicy::Reject, UnseenPolicy::AsMissing, UnseenPolicy::Quarantine] {
            let mut stream =
                StreamingMcdc::bootstrap(Mgcpl::builder().seed(seed).build(), data.table())
                    .expect("gate bootstrap fits")
                    .with_unseen_policy(policy);
            let mut row = Vec::new();
            for arrival in 0..GATE_INGEST_ARRIVALS {
                row.clear();
                row.extend_from_slice(data.table().row(arrival as usize % data.table().n_rows()));
                plan.corrupt_row(arrival, &mut row);
                let _ = stream.try_absorb(&row);
            }
            let stats = stream.ingest_stats();
            total.rejected_rows += stats.rejected_rows;
            total.quarantined_rows += stats.quarantined_rows;
            total.coerced_values += stats.coerced_values;
            total.health_transitions += stream.serving_health().transitions;
        }
    }
}

/// Parsed `PERF_GATES.toml`: the regression tolerance and the per-suite
/// baselines, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct GateFile {
    /// Fractional tolerance: a counter may grow to `baseline × (1 + tol)`
    /// before the gate fails.
    pub tolerance: f64,
    /// `(suite name, baseline counters)` per section.
    pub suites: Vec<(String, GateCounters)>,
}

/// Hand-rolled parser for the subset of TOML `PERF_GATES.toml` uses:
/// `#` comments, one top-level `tolerance = <float>`, `[section]` headers,
/// and `key = <integer>` entries.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_gates(text: &str) -> Result<GateFile, String> {
    let mut tolerance = None;
    let mut suites: Vec<(String, GateCounters)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            suites.push((name.trim().to_string(), GateCounters::default()));
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
        let (key, value) = (key.trim(), value.trim());
        if suites.is_empty() {
            if key != "tolerance" {
                return Err(format!("line {}: unknown top-level key `{key}`", lineno + 1));
            }
            tolerance =
                Some(value.parse::<f64>().map_err(|e| format!("line {}: {e}", lineno + 1))?);
            continue;
        }
        let counters = &mut suites.last_mut().expect("non-empty just checked").1;
        let parsed = value.parse::<u64>().map_err(|e| format!("line {}: {e}", lineno + 1))?;
        match key {
            "score_evals" => counters.score_evals = parsed,
            "merges" => counters.merges = parsed,
            "passes" => counters.passes = parsed,
            "full_rescans" => counters.full_rescans = parsed,
            "skipped_rescans" => counters.skipped_rescans = parsed,
            "rejected_rows" => counters.rejected_rows = parsed,
            "quarantined_rows" => counters.quarantined_rows = parsed,
            "coerced_values" => counters.coerced_values = parsed,
            "health_transitions" => counters.health_transitions = parsed,
            other => return Err(format!("line {}: unknown counter `{other}`", lineno + 1)),
        }
    }
    let tolerance = tolerance.ok_or("missing top-level `tolerance`")?;
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("tolerance {tolerance} outside [0, 1)"));
    }
    Ok(GateFile { tolerance, suites })
}

/// Renders a gate file from freshly measured counters.
pub fn render_gates(tolerance: f64, suites: &[(String, GateCounters)]) -> String {
    let mut out = String::new();
    out.push_str(
        "# Deterministic hot-path work baselines for `conformance --gate`\n\
         # (DESIGN.md §10). Counters are machine-independent: score\n\
         # evaluations, profile merges, and passes over fixed seeded\n\
         # workloads. Regenerate with scripts/update_gates.sh after an\n\
         # intentional algorithmic change.\n",
    );
    out.push_str(&format!("tolerance = {tolerance}\n"));
    for (name, counters) in suites {
        out.push_str(&format!("\n[{name}]\n"));
        for (key, value) in counters.fields() {
            out.push_str(&format!("{key} = {value}\n"));
        }
    }
    out
}

/// Compares measured counters against a baseline: `Err` lists hard
/// violations (a counter grew past the tolerance — a perf regression),
/// `Ok` lists stale-baseline warnings (a counter shrank below the
/// tolerance band — re-baseline to lock in the win).
pub fn compare_counters(
    suite: &str,
    baseline: &GateCounters,
    measured: &GateCounters,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut violations = Vec::new();
    let mut stale = Vec::new();
    for ((key, base), (_, got)) in baseline.fields().into_iter().zip(measured.fields()) {
        let ceiling = (base as f64 * (1.0 + tolerance)).ceil() as u64;
        let floor = (base as f64 * (1.0 - tolerance)).floor() as u64;
        if got > ceiling {
            violations.push(format!(
                "{suite}.{key}: measured {got} exceeds baseline {base} (tolerance {tolerance}, \
                 ceiling {ceiling})"
            ));
        } else if got < floor {
            stale.push(format!(
                "{suite}.{key}: measured {got} is below baseline {base} — re-baseline with \
                 scripts/update_gates.sh to lock in the improvement"
            ));
        }
    }
    if violations.is_empty() {
        Ok(stale)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_deterministic_and_varied() {
        assert_eq!(table_spec(7), table_spec(7));
        let specs: Vec<TableSpec> = (0..32).map(table_spec).collect();
        assert!(specs.iter().any(|s| s.missing > 0.0));
        assert!(specs.iter().any(|s| s.missing == 0.0));
        assert!(specs.iter().any(|s| s.initial_k.is_some()));
        assert!(specs.iter().any(|s| s.cardinalities.iter().any(|&c| c >= 5)));
        let (spec, table) = random_table(3);
        assert_eq!(table.n_rows(), spec.n);
        assert_eq!(table.n_features(), spec.cardinalities.len());
    }

    #[test]
    fn grid_covers_every_arm() {
        let cells = grid();
        assert_eq!(cells.len(), 5);
        assert!(cells.iter().any(|c| c.tier == Tier::Exact && c.plan == PlanArm::Serial));
        assert!(cells.iter().any(|c| c.tier == Tier::Exact && c.plan == PlanArm::FullBatch));
        for plan in [PlanArm::QuarterBatch, PlanArm::Sharded3] {
            assert!(cells.iter().any(|c| c.tier == Tier::Bounded && c.plan == plan));
        }
        assert!(cells
            .iter()
            .any(|c| c.policy == PolicyArm::Overlap && c.plan == PlanArm::Sharded3));
        let mut names: Vec<&str> = cells.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5, "cell names must be unique");
    }

    #[test]
    fn internal_checks_catch_bad_bookkeeping() {
        assert_eq!(internal_divergence(&[vec![0, 1, 0]], &[2]), None);
        assert!(internal_divergence(&[vec![0, 1, 0]], &[3]).is_some(), "κ over-count");
        assert!(internal_divergence(&[vec![0, 2, 0]], &[2]).is_some(), "non-dense labels");
        assert!(
            internal_divergence(&[vec![0, 1, 2], vec![0, 1, 2]], &[3, 3]).is_some(),
            "κ must strictly decrease"
        );
        assert!(internal_divergence(&[], &[2]).is_some(), "σ mismatch");
    }

    #[test]
    fn gate_file_round_trips() {
        let suites = vec![
            (
                "serial".to_string(),
                GateCounters {
                    score_evals: 123,
                    merges: 0,
                    passes: 45,
                    full_rescans: 6,
                    skipped_rescans: 7,
                    ..Default::default()
                },
            ),
            ("replicated".to_string(), GateCounters { merges: 99, ..Default::default() }),
            (
                "streaming-ingest".to_string(),
                GateCounters {
                    rejected_rows: 31,
                    quarantined_rows: 29,
                    coerced_values: 17,
                    health_transitions: 5,
                    ..Default::default()
                },
            ),
        ];
        let text = render_gates(0.05, &suites);
        let parsed = parse_gates(&text).unwrap();
        assert_eq!(parsed.tolerance, 0.05);
        assert_eq!(parsed.suites, suites);
        assert!(parse_gates("tolerance = 2.0").is_err());
        assert!(parse_gates("[x]\nbogus = 1").is_err());
        assert!(parse_gates("[x]\nscore_evals = 1").is_err(), "tolerance is mandatory");
    }

    #[test]
    fn counter_comparison_flags_growth_and_staleness() {
        let base = GateCounters {
            score_evals: 1000,
            merges: 10,
            passes: 100,
            full_rescans: 50,
            skipped_rescans: 50,
            ..Default::default()
        };
        assert_eq!(compare_counters("s", &base, &base, 0.05), Ok(vec![]));
        let grown = GateCounters { score_evals: 1100, ..base };
        let violations = compare_counters("s", &base, &grown, 0.05).unwrap_err();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("s.score_evals"));
        let shrunk = GateCounters { score_evals: 800, ..base };
        let stale = compare_counters("s", &base, &shrunk, 0.05).unwrap();
        assert_eq!(stale.len(), 1);
        assert!(stale[0].contains("re-baseline"));
    }

    #[test]
    fn ingest_suite_counters_fire_and_replay_deterministically() {
        let suite = gate_suites().into_iter().find(|s| s.ingest).expect("ingest suite listed");
        assert_eq!(suite.name, "streaming-ingest");
        let first = measure_suite(&suite);
        // Every boundary counter is exercised by the corruption mix:
        // truncation rejects under all policies, out-of-domain rejects /
        // coerces / quarantines per policy, and the reject pressure walks
        // the health machine.
        assert!(first.rejected_rows > 0, "no rejections: {first:?}");
        assert!(first.quarantined_rows > 0, "no quarantines: {first:?}");
        assert!(first.coerced_values > 0, "no coercions: {first:?}");
        assert!(first.health_transitions > 0, "health machine never moved: {first:?}");
        assert_eq!(first.score_evals, 0, "ingest suite must not touch fit counters");
        assert_eq!(measure_suite(&suite), first, "same seeds, same counters");
    }

    #[test]
    fn shrinker_isolates_the_culprit_rows_and_respects_the_floor() {
        // A "divergence" that needs both a [3, _] row and a [_, 7] row:
        // the shrinker must keep exactly one of each from 64 rows.
        let mut rows: Vec<Vec<u32>> = (0..64u32).map(|i| vec![i % 3, i % 5]).collect();
        rows[20] = vec![3, 0];
        rows[45] = vec![0, 7];
        let diverges =
            |rows: &[Vec<u32>]| rows.iter().any(|r| r[0] == 3) && rows.iter().any(|r| r[1] == 7);
        let minimized = shrink_rows(rows.clone(), 1, diverges);
        assert_eq!(minimized.len(), 2);
        assert!(diverges(&minimized));
        // The floor stops the shrink even when the predicate would allow
        // dropping further.
        let floored = shrink_rows(rows, 10, diverges);
        assert!(floored.len() >= 10);
        assert!(diverges(&floored));
    }
}
