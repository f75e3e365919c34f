//! MGCPL — Multi-Granular Competitive Penalization Learning (Algorithm 1).
//!
//! Competitive learning over cluster frequency profiles with a *rival
//! penalization* twist: per input object the winning cluster is rewarded
//! (Eq. 12) while its nearest rival is pushed away (Eq. 13), so redundant
//! seed clusters starve, empty out, and are pruned. When the partition
//! reaches a fixpoint the learner records the surviving cluster count,
//! resets its competition statistics, and re-launches from the surviving
//! clusters — producing one partition per *granularity* until two
//! consecutive stages agree (`k_new == k_old`).

use categorical_data::stats::FrequencyTable;
use categorical_data::CategoricalTable;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use categorical_data::{CsrLayout, MISSING};

use crate::execution::ShardMap;
use crate::fault::{DeltaFault, FaultPlan, ReplicaFault};
use crate::weights::feature_weights_into;
use crate::workspace::{
    copy_into, note_growth, resize_tracked, MgcplScratch, ReplicaSlot, ReplicatedScratch, Workspace,
};
use crate::{
    score_all_transposed, ClusterProfile, ExecutionPlan, HotPathStats, LearningTrace, McdcError,
    StageRecord,
};

/// Configurable MGCPL learner. Construct via [`Mgcpl::builder`].
///
/// # Example
///
/// ```
/// use categorical_data::synth::GeneratorConfig;
/// use mcdc_core::Mgcpl;
///
/// let data = GeneratorConfig::new("demo", 240, vec![4; 6], 3)
///     .noise(0.05)
///     .generate(5)
///     .dataset;
/// let result = Mgcpl::builder().seed(1).build().fit(data.table())?;
/// assert!(!result.partitions.is_empty());
/// // κ is strictly decreasing across granularities.
/// assert!(result.kappa.windows(2).all(|w| w[0] > w[1]) || result.kappa.len() == 1);
/// # Ok::<(), mcdc_core::McdcError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mgcpl {
    learning_rate: f64,
    initial_k: Option<usize>,
    max_inner_iterations: usize,
    max_stages: usize,
    weighted_similarity: bool,
    random_init: bool,
    seed: u64,
    execution: ExecutionPlan,
    halo: usize,
    fault: FaultPlan,
}

/// Builder for [`Mgcpl`]; defaults follow the paper (`η = 0.03`,
/// `k₀ = √n`, feature weighting on).
#[derive(Debug, Clone, PartialEq)]
pub struct MgcplBuilder {
    learning_rate: f64,
    initial_k: Option<usize>,
    max_inner_iterations: usize,
    max_stages: usize,
    weighted_similarity: bool,
    random_init: bool,
    seed: u64,
    execution: ExecutionPlan,
    halo: usize,
    fault: FaultPlan,
}

impl Default for MgcplBuilder {
    fn default() -> Self {
        MgcplBuilder {
            learning_rate: 0.03,
            initial_k: None,
            max_inner_iterations: 8,
            max_stages: 64,
            weighted_similarity: true,
            random_init: true,
            seed: 0,
            execution: ExecutionPlan::Serial,
            halo: 0,
            fault: FaultPlan::none(),
        }
    }
}

impl MgcplBuilder {
    /// Sets the learning rate `η` (paper default 0.03).
    pub fn learning_rate(mut self, eta: f64) -> Self {
        self.learning_rate = eta;
        self
    }

    /// Overrides the initial cluster count `k₀` (paper default `√n`).
    pub fn initial_k(mut self, k0: usize) -> Self {
        self.initial_k = Some(k0);
        self
    }

    /// Caps the inner passes per stage (default 8 — the paper notes the
    /// iteration count `I` is small). The cap doubles as the granularity
    /// resolution: each stage ends at the earlier of the `Q` fixpoint or the
    /// cap, records the surviving cluster count as one granularity, and
    /// re-launches, so a tight cap yields finer-grained κ traces while a
    /// loose one lets whole cascades collapse within a single stage.
    pub fn max_inner_iterations(mut self, cap: usize) -> Self {
        self.max_inner_iterations = cap;
        self
    }

    /// Caps the number of granularity stages (safety valve).
    pub fn max_stages(mut self, cap: usize) -> Self {
        self.max_stages = cap;
        self
    }

    /// Toggles the feature-weighted similarity of Eq. (14) (on by default;
    /// off reduces to the plain Eq. (1) similarity).
    pub fn weighted_similarity(mut self, on: bool) -> Self {
        self.weighted_similarity = on;
        self
    }

    /// Toggles between Alg. 1's random-object seeding (the default) and a
    /// deterministic frequent-row seeding that plants seeds on the most
    /// repeated rows. The deterministic variant removes run-to-run variance
    /// on data with heavy row overlap, but degenerates to first-k₀ objects
    /// when rows are mostly unique — keep the default unless the data is
    /// known to be overlap-dominated.
    pub fn random_init(mut self, on: bool) -> Self {
        self.random_init = on;
        self
    }

    /// Seeds the per-pass presentation order (and the seed choice when
    /// `random_init` is on).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the execution backend for the learning stage (default
    /// [`ExecutionPlan::Serial`]). Mini-batch and sharded plans run the
    /// replica-merge formulation: shard-local cascades against a frozen
    /// pass-start snapshot, reconciled via profile merge and a
    /// shard-size-weighted δ average (see `DESIGN.md` §4).
    /// `MiniBatch { batch_size: n }` reproduces the serial labels
    /// bit-exactly; smaller batches change semantics but stay deterministic
    /// for a fixed seed and shard count.
    pub fn execution(mut self, plan: ExecutionPlan) -> Self {
        self.execution = plan;
        self
    }

    /// Sets the reconciliation halo of replicated plans (default 0): each
    /// replica additionally presents the last `rows` rows of the previous
    /// shard and the first `rows` rows of the next, in shard-index order
    /// (for a mini-batch plan's contiguous shards, the geometric boundary).
    /// Borrowed rows stay owned by their home shard for the exact profile
    /// merge and settle by a similarity-weighted vote of the replicas that
    /// presented them. The halo pays when shard boundaries cut through
    /// natural clusters — placement-derived
    /// [`Sharded`](ExecutionPlan::Sharded) plans, where
    /// `mcdc_dist_sim::suggested_halo` picks a width (DESIGN.md §5). Each
    /// borrowed row costs one extra presentation per pass; an oversized
    /// halo clamps to whole neighbors. No effect under
    /// [`ExecutionPlan::Serial`] or a single-shard plan.
    ///
    /// # Example
    ///
    /// ```
    /// use mcdc_core::{ExecutionPlan, Mgcpl};
    ///
    /// let learner = Mgcpl::builder().execution(ExecutionPlan::mini_batch(128)).halo(8).build();
    /// assert_eq!(learner.halo(), 8);
    /// ```
    pub fn halo(mut self, rows: usize) -> Self {
        self.halo = rows;
        self
    }

    /// Installs a fault-injection schedule for replicated plans (default
    /// [`FaultPlan::none()`], which keeps the engine bit-exact with the
    /// pre-fault behavior). Under an armed plan, replicated merges probe
    /// the schedule per shard and degrade gracefully — bounded retries,
    /// quarantine with survivor re-weighting, poisoned-δ rejection — as
    /// specified in DESIGN.md §8; serial plans have no replicas to fail
    /// and ignore the schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Validates and builds the learner.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`try_build`](Self::try_build) rejects:
    /// a non-finite or out-of-range `learning_rate`, a zero cap, or an
    /// invalid [`FaultPlan`].
    pub fn build(self) -> Mgcpl {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validates and builds the learner, reporting bad configuration as an
    /// error instead of panicking. Every real-valued knob is checked for
    /// NaN/∞ here, at the builder boundary, so non-finite inputs never
    /// propagate into the scoring kernels.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::InvalidConfig`] naming the offending parameter
    /// if `learning_rate` is not finite or outside `(0, 1)`, a cap is
    /// zero, or the [`FaultPlan`] fails its own validation (a rate outside
    /// `[0, 1]`).
    pub fn try_build(self) -> Result<Mgcpl, McdcError> {
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 || self.learning_rate >= 1.0
        {
            return Err(McdcError::InvalidConfig {
                parameter: "learning_rate",
                message: format!("must be a finite value in (0, 1), got {}", self.learning_rate),
            });
        }
        if self.max_inner_iterations == 0 {
            return Err(McdcError::InvalidConfig {
                parameter: "max_inner_iterations",
                message: "must be positive".to_string(),
            });
        }
        if self.max_stages == 0 {
            return Err(McdcError::InvalidConfig {
                parameter: "max_stages",
                message: "must be positive".to_string(),
            });
        }
        self.fault.validate()?;
        Ok(Mgcpl {
            learning_rate: self.learning_rate,
            initial_k: self.initial_k,
            max_inner_iterations: self.max_inner_iterations,
            max_stages: self.max_stages,
            weighted_similarity: self.weighted_similarity,
            random_init: self.random_init,
            seed: self.seed,
            execution: self.execution,
            halo: self.halo,
            fault: self.fault,
        })
    }
}

/// Multi-granular output of one MGCPL run.
#[derive(Debug, Clone)]
pub struct MgcplResult {
    /// The partitions `Γ = {Y₁, …, Y_σ}`, finest first; labels are dense
    /// `0..kappa[j]` per granularity.
    pub partitions: Vec<Vec<usize>>,
    /// The cluster counts `κ = {k₁ > k₂ > … > k_σ}` (strictly decreasing;
    /// the terminal repeat stage is not recorded).
    pub kappa: Vec<usize>,
    /// Per-stage learning trace (Fig. 5).
    pub trace: LearningTrace,
    /// Hot-path counters (score evaluations, workspace growth, passes).
    /// Excluded from equality: a serial and a single-shard full-batch run
    /// of the same fit produce identical partitions but count differently.
    pub stats: HotPathStats,
}

// Equality is semantic — partitions, κ, trace — so serial ≡ full-batch
// pins compare what the algorithm computed, not how many sweeps or merges
// it took to compute it.
impl PartialEq for MgcplResult {
    fn eq(&self, other: &Self) -> bool {
        self.partitions == other.partitions
            && self.kappa == other.kappa
            && self.trace == other.trace
    }
}

impl Eq for MgcplResult {}

impl MgcplResult {
    /// The coarsest partition `Y_σ` (what ablation MCDC₃ clusters with).
    pub fn coarsest(&self) -> &[usize] {
        self.partitions.last().expect("MGCPL always produces at least one partition")
    }

    /// Number of granularity levels `σ`.
    pub fn sigma(&self) -> usize {
        self.partitions.len()
    }

    /// Compacts the served (coarsest) granularity into a read-only
    /// [`FrozenModel`](crate::FrozenModel) over `table` — the table this
    /// result was fitted on, which the result itself does not retain. The
    /// frozen `score_one` reproduces, bit for bit on the final argmax, the
    /// live [`score_all`](crate::score_all) assignment against the
    /// coarsest partition's cluster profiles.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::InvalidConfig`] when `table` does not have one
    /// row per partition label (i.e. it is not the fitted table).
    pub fn freeze(&self, table: &CategoricalTable) -> Result<crate::FrozenModel, McdcError> {
        self.freeze_level(table, self.sigma() - 1)
    }

    /// [`freeze`](Self::freeze) for an arbitrary granularity `level`
    /// (finest first, `0..sigma()`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`freeze`](Self::freeze), plus
    /// [`McdcError::InvalidConfig`] for an out-of-range `level`.
    pub fn freeze_level(
        &self,
        table: &CategoricalTable,
        level: usize,
    ) -> Result<crate::FrozenModel, McdcError> {
        let (partition, &k) = match (self.partitions.get(level), self.kappa.get(level)) {
            (Some(p), Some(k)) => (p, k),
            _ => {
                return Err(McdcError::InvalidConfig {
                    parameter: "level",
                    message: format!(
                        "granularity level {level} is out of range for sigma = {}",
                        self.sigma()
                    ),
                })
            }
        };
        crate::FrozenModel::from_partition(table, partition, k)
    }
}

/// The sigmoid cluster weight of Eq. (11): `u = 1 / (1 + e^(−10δ+5))`.
fn sigmoid_weight(delta: f64) -> f64 {
    1.0 / (1.0 + (-10.0 * delta + 5.0).exp())
}

/// The live clusters' competition state, structure-of-arrays so the scoring
/// hot loop sweeps dense slices (one value-major scoring matrix for
/// [`score_all_transposed`], one flat `k×d` weight matrix) instead of
/// hopping across per-cluster structs.
#[derive(Debug, Clone)]
pub(crate) struct Cohort {
    /// Frequency profiles, one per live cluster.
    profiles: Vec<ClusterProfile>,
    /// Award/penalty accumulators `δ_l`; `u_l` derives via Eq. (11).
    delta: Vec<f64>,
    /// Winning counts `g_l` of the previous passes (drive `ρ_l`, Eq. 7).
    wins_prev: Vec<u64>,
    /// Winning counts of the in-progress pass.
    wins_now: Vec<u64>,
    /// Feature weights `ω_rl` (Eq. 18), row-major `k×d`; uniform until the
    /// first pass ends.
    omega: Vec<f64>,
    /// The per-value scoring matrix, *value-major*: `value_major[v·k + l]`
    /// holds cluster `l`'s similarity term for flat value `v` — `ω_rl · c/p`
    /// in weighted mode, the plain `c/p` otherwise. Laying values outermost
    /// makes [`score_all_transposed`]'s per-object sweep touch `d`
    /// contiguous `k`-length columns (vectorizable adds, no gather).
    /// Rebuilt at every pass start and patched per membership change (see
    /// `DESIGN.md` §"Hot path").
    value_major: Vec<f64>,
    /// Shared CSR layout of the value space.
    layout: CsrLayout,
}

impl Cohort {
    fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Rebuilds the whole value-major scoring matrix from the current
    /// profiles (× `omega` when `weighted`) — `O(k · total_values)`, once
    /// per pass.
    fn rebuild_value_major(&mut self, weighted: bool) {
        let d = self.layout.n_features();
        let k = self.len();
        let total = self.layout.total_values();
        self.value_major.clear();
        self.value_major.resize(total * k, 0.0);
        for (l, profile) in self.profiles.iter().enumerate() {
            let scaled = profile.scaled_frequencies();
            for r in 0..d {
                let w = if weighted { self.omega[l * d + r] } else { 1.0 };
                for i in self.layout.range(r) {
                    self.value_major[i * k + l] = w * scaled[i];
                }
            }
        }
    }

    /// Re-syncs cluster `l`'s column of the value-major matrix for the
    /// features `row` touches, after that profile's counts changed
    /// (`O(d · m)`).
    fn sync_value_major(&mut self, l: usize, row: &[u32], weighted: bool) {
        let d = self.layout.n_features();
        let k = self.len();
        let scaled = self.profiles[l].scaled_frequencies();
        for (r, &code) in row.iter().enumerate() {
            if code != MISSING {
                let w = if weighted { self.omega[l * d + r] } else { 1.0 };
                for i in self.layout.range(r) {
                    self.value_major[i * k + l] = w * scaled[i];
                }
            }
        }
    }

    /// `*self = src.clone()` reusing every buffer whose capacity suffices;
    /// what replica slots use to refresh their local cohort from the
    /// pass-start snapshot without the clone-allocate-drop churn. When the
    /// snapshot has fewer clusters than the previous pass (pruning), the
    /// excess profiles park in `spares` instead of dropping, so a later
    /// fit that starts wide again (k₀ ≫ final k) reuses their buffers.
    pub(crate) fn copy_from(
        &mut self,
        src: &Cohort,
        spares: &mut Vec<ClusterProfile>,
        allocs: &mut u64,
    ) {
        if self.layout != src.layout {
            *allocs += 1;
            *self = src.clone();
            spares.clear();
            return;
        }
        while self.profiles.len() > src.profiles.len() {
            spares.push(self.profiles.pop().expect("length checked above"));
        }
        for (dst, s) in self.profiles.iter_mut().zip(&src.profiles) {
            dst.copy_from_profile(s);
        }
        while self.profiles.len() < src.profiles.len() {
            let next = self.profiles.len();
            match spares.pop() {
                Some(mut spare) => {
                    spare.copy_from_profile(&src.profiles[next]);
                    self.profiles.push(spare);
                }
                None => {
                    *allocs += 1;
                    self.profiles.push(src.profiles[next].clone());
                }
            }
        }
        copy_into(&mut self.delta, &src.delta, allocs);
        copy_into(&mut self.wins_prev, &src.wins_prev, allocs);
        copy_into(&mut self.wins_now, &src.wins_now, allocs);
        copy_into(&mut self.omega, &src.omega, allocs);
        copy_into(&mut self.value_major, &src.value_major, allocs);
    }

    /// Re-launch reset (Alg. 1 step 13): keep memberships/profiles, clear
    /// the statistics that drive convergence. The ω-weighted matrix need
    /// not be touched here — `run_stage` rebuilds it at every pass start.
    fn reset_statistics(&mut self, d: usize) {
        self.delta.fill(1.0);
        self.wins_prev.fill(0);
        self.wins_now.fill(0);
        self.omega.clear();
        self.omega.resize(self.len() * d, 1.0 / d as f64);
    }

    /// Removes empty clusters, compacting every parallel array and the
    /// `assignment` indices.
    fn prune_empty(&mut self, assignment: &mut [Option<usize>]) {
        let d = if self.profiles.is_empty() { 0 } else { self.profiles[0].n_features() };
        let k = self.len();
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(k);
        let mut next = 0usize;
        for l in 0..k {
            if self.profiles[l].is_empty() {
                remap.push(None);
                continue;
            }
            if next != l {
                self.profiles.swap(next, l);
                self.delta[next] = self.delta[l];
                self.wins_prev[next] = self.wins_prev[l];
                self.wins_now[next] = self.wins_now[l];
                self.omega.copy_within(l * d..(l + 1) * d, next * d);
            }
            remap.push(Some(next));
            next += 1;
        }
        self.profiles.truncate(next);
        self.delta.truncate(next);
        self.wins_prev.truncate(next);
        self.wins_now.truncate(next);
        self.omega.truncate(next * d);
        for slot in assignment.iter_mut() {
            if let Some(c) = *slot {
                *slot = remap[c];
            }
        }
    }
}

impl Mgcpl {
    /// Starts building an MGCPL learner with paper-default parameters.
    pub fn builder() -> MgcplBuilder {
        MgcplBuilder::default()
    }

    /// The configured execution plan.
    pub fn execution_plan(&self) -> &ExecutionPlan {
        &self.execution
    }

    /// The configured reconciliation halo, in rows (0 = disjoint shards).
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// A copy of this learner with its execution plan adapted to an input
    /// of `n` rows ([`ExecutionPlan::for_rows`]) — what callers that re-fit
    /// over growing or shrinking inputs (the streaming reservoir) use to
    /// keep a fixed-`n` plan from invalidating later fits.
    pub fn with_execution_for(&self, n: usize) -> Mgcpl {
        let mut adapted = self.clone();
        adapted.execution = adapted.execution.for_rows(n);
        adapted
    }

    /// Runs multi-granular learning on `table`.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::EmptyInput`] for an empty table,
    /// [`McdcError::InvalidK`] if a configured `k₀` exceeds `n`, and
    /// [`McdcError::InvalidShards`] if the configured [`ExecutionPlan`]
    /// does not fit `n` rows.
    pub fn fit(&self, table: &CategoricalTable) -> Result<MgcplResult, McdcError> {
        self.fit_with(table, &mut Workspace::new())
    }

    /// [`fit`](Self::fit) against a caller-provided [`Workspace`]: all
    /// pass- and replica-scoped scratch is checked out of `ws` and left
    /// grown for the next fit, so repeated fits (benchmarks, streaming
    /// re-fits, servers) run allocation-free once the workspace is warm.
    /// Results are identical to [`fit`](Self::fit) — the workspace holds
    /// scratch only, never state that survives into the output.
    ///
    /// # Errors
    ///
    /// Same conditions as [`fit`](Self::fit).
    pub fn fit_with(
        &self,
        table: &CategoricalTable,
        ws: &mut Workspace,
    ) -> Result<MgcplResult, McdcError> {
        self.fit_inner(table, &self.execution, ws)
    }

    /// Internal re-fit entry: adapts the configured plan to the table's
    /// current row count ([`ExecutionPlan::for_rows`]) instead of cloning
    /// the whole learner — what the streaming reservoir re-fit uses.
    pub(crate) fn fit_adapted(
        &self,
        table: &CategoricalTable,
        ws: &mut Workspace,
    ) -> Result<MgcplResult, McdcError> {
        self.fit_inner(table, &self.execution.for_rows(table.n_rows()), ws)
    }

    fn fit_inner(
        &self,
        table: &CategoricalTable,
        plan: &ExecutionPlan,
        ws: &mut Workspace,
    ) -> Result<MgcplResult, McdcError> {
        let n = table.n_rows();
        if n == 0 {
            return Err(McdcError::EmptyInput);
        }
        plan.validate(n)?;
        let shard_map = plan.shard_map(table, self.halo)?;
        // Replicated passes completed so far, across stages: the step
        // coordinate of the fault plan's per-merge probes.
        let mut merge_steps: u64 = 0;
        let d = table.n_features();
        let k0 = match self.initial_k {
            Some(k) => {
                if k == 0 || k > n {
                    return Err(McdcError::InvalidK { k, n });
                }
                k
            }
            None => ((n as f64).sqrt().round() as usize).clamp(2, n),
        };

        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let global = FrequencyTable::from_table(table);

        // Seed clusters on k₀ random distinct objects (Alg. 1 step 3), or —
        // when `random_init` is off — on the k₀ most frequent distinct rows,
        // the cores of the natural micro-clusters formed by overlapping
        // objects (the paper's Fig. 2(b) spheres).
        let seeds: Vec<usize> = if self.random_init {
            let mut seeds: Vec<usize> = (0..n).collect();
            seeds.shuffle(&mut rng);
            seeds.truncate(k0);
            seeds
        } else {
            frequent_row_seeds(table, k0)
        };

        // One CSR layout computation shared by every profile.
        let layout = table.schema().csr_layout();
        let mut clusters = Cohort {
            profiles: seeds
                .iter()
                .map(|&i| {
                    let mut profile = ClusterProfile::with_layout(layout.clone());
                    profile.add(table.row(i));
                    profile
                })
                .collect(),
            delta: vec![1.0; k0],
            wins_prev: vec![0; k0],
            wins_now: vec![0; k0],
            omega: vec![1.0 / d as f64; k0 * d],
            value_major: Vec::new(),
            layout,
        };
        // assignment[i] = index into the cohort (stable across pruning via
        // re-mapping), None until the object is first processed.
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        for (c, &i) in seeds.iter().enumerate() {
            assignment[i] = Some(c);
        }

        let mut partitions: Vec<Vec<usize>> = Vec::new();
        let mut kappa: Vec<usize> = Vec::new();
        let mut trace = LearningTrace { initial_k: k0, stages: Vec::new() };
        let mut stats = HotPathStats::default();
        let alloc_start = ws.allocs;
        let mut k_old = clusters.len();

        for stage in 1..=self.max_stages {
            let k_before = clusters.len();
            let inner_iterations = self.run_stage(
                table,
                &global,
                &mut clusters,
                &mut assignment,
                &mut rng,
                shard_map.as_ref(),
                &mut merge_steps,
                ws,
                &mut stats,
            );
            let k_after = clusters.len();

            trace.stages.push(StageRecord { stage, k_before, k_after, inner_iterations });
            stats.passes += inner_iterations as u64;

            let converged = stage > 1 && k_after == k_old;
            if !converged {
                partitions.push(dense_labels(&assignment));
                kappa.push(k_after);
            }
            if converged || k_after <= 1 {
                break;
            }
            k_old = k_after;

            // Cold re-launch for the next (coarser) granularity level
            // (Alg. 1 step 13).
            clusters.reset_statistics(d);
        }

        stats.allocations = ws.allocs - alloc_start;
        Ok(MgcplResult { partitions, kappa, trace, stats })
    }

    /// Runs competitive penalization learning until the partition fixpoint,
    /// pruning emptied clusters; returns the number of passes used.
    ///
    /// Each pass is split into three phases so the execution backends share
    /// one code path (see `DESIGN.md` §4):
    ///
    /// 1. **snapshot** ([`snapshot_pass`](Self::snapshot_pass)) — freeze the
    ///    pass's read-mostly state: ρ from the previous passes' win counts,
    ///    the `(1 − ρ_l)·u_l` prefactors, and the rebuilt value-major
    ///    scoring matrix;
    /// 2. **apply** — the per-object award/penalty cascade. `Serial` runs
    ///    [`apply_span`](Self::apply_span) over the whole shuffled order in
    ///    place; replicated plans run one `apply_span` per shard on a cohort
    ///    clone and reconcile
    ///    ([`apply_replicated`](Self::apply_replicated));
    /// 3. **epilogue** — prune emptied clusters, refresh ω (Eqs. 15–18),
    ///    and fold the pass's win counts into the running ρ statistics.
    #[allow(clippy::too_many_arguments)]
    fn run_stage(
        &self,
        table: &CategoricalTable,
        global: &FrequencyTable,
        clusters: &mut Cohort,
        assignment: &mut [Option<usize>],
        rng: &mut ChaCha8Rng,
        shard_map: Option<&ShardMap>,
        merge_steps: &mut u64,
        ws: &mut Workspace,
        stats: &mut HotPathStats,
    ) -> usize {
        let n = table.n_rows();
        let d = table.n_features();
        let mut passes = 0;
        // All pass scratch is checked out of the workspace: grown at most
        // once, reused across passes, stages, and fits.
        let Workspace { mgcpl: scratch, allocs, .. } = ws;
        let MgcplScratch { order, one_minus_rho, prefactors, accumulators, decisions, replicated } =
            scratch;
        note_growth(order, n, allocs);
        order.clear();
        order.extend(0..n);
        if shard_map.is_none() {
            // `decisions` backs only the serial arm; replicated passes keep
            // their verdicts in the replica slots.
            note_growth(decisions, n, allocs);
        }

        for _ in 0..self.max_inner_iterations {
            passes += 1;
            // Online competitive learning presents inputs in random order so
            // sequential award/penalty cascades don't depend on storage order.
            order.shuffle(rng);

            let post_scale =
                self.snapshot_pass(clusters, one_minus_rho, prefactors, accumulators, d, allocs);

            let mut changed = match shard_map {
                None => {
                    let changed = self.apply_span(
                        table,
                        order,
                        clusters,
                        assignment,
                        decisions,
                        None,
                        one_minus_rho,
                        prefactors,
                        accumulators,
                        post_scale,
                        stats,
                    );
                    for (&i, &c) in order.iter().zip(decisions.iter()) {
                        assignment[i] = Some(c);
                    }
                    changed
                }
                Some(map) => {
                    let changed = self.apply_replicated(
                        table,
                        order,
                        clusters,
                        assignment,
                        one_minus_rho,
                        prefactors,
                        post_scale,
                        *merge_steps,
                        map,
                        replicated,
                        allocs,
                        stats,
                    );
                    *merge_steps += 1;
                    changed
                }
            };

            // Prune clusters that lost all members. After a prune, reset the
            // survivors' competition statistics (δ, g): penalties absorbed
            // while the eliminated cluster was dying must not carry momentum
            // into the next round, or healthy clusters get dragged down one
            // after another and the learning overshoots far past the natural
            // granularity (the re-launch of Alg. 1 step 13 applied at the
            // elimination event rather than only at stage boundaries).
            if clusters.profiles.iter().any(ClusterProfile::is_empty) {
                clusters.prune_empty(assignment);
                clusters.delta.fill(1.0);
                clusters.wins_prev.fill(0);
                clusters.wins_now.fill(0);
                changed = true;
            }

            // Update ω per cluster (Alg. 1 step 11, Eqs. 15–18).
            if self.weighted_similarity {
                for (l, profile) in clusters.profiles.iter().enumerate() {
                    feature_weights_into(profile, global, &mut clusters.omega[l * d..(l + 1) * d]);
                }
            }

            // ρ smooths over the stage so far (a running win share, DeSieno's
            // conscience): a per-pass snapshot oscillates at small k — the
            // handicapped majority loses objects, the roles flip next pass,
            // profiles blur, and clusters merge past the natural granularity.
            for (prev, &now) in clusters.wins_prev.iter_mut().zip(&clusters.wins_now) {
                *prev += now;
            }

            if !changed {
                break;
            }
        }
        passes
    }

    /// Snapshot phase: freezes the pass-start competition state. Computes
    /// `1 − ρ_l` from the previous passes' win counts (Eq. 7), the hoisted
    /// `(1 − ρ_l)·u_l` prefactors, resets the pass win counters, and
    /// rebuilds the value-major scoring matrix so it reflects this pass's ω
    /// and any pruning from the previous pass. Returns the post-scale that
    /// recovers the Eq. (1) mean from the raw sweep sums.
    fn snapshot_pass(
        &self,
        clusters: &mut Cohort,
        one_minus_rho: &mut Vec<f64>,
        prefactors: &mut Vec<f64>,
        accumulators: &mut Vec<f64>,
        d: usize,
        allocs: &mut u64,
    ) -> f64 {
        let total_prev: u64 = clusters.wins_prev.iter().sum();
        clusters.wins_now.fill(0);
        let k = clusters.len();
        note_growth(one_minus_rho, k, allocs);
        one_minus_rho.clear();
        one_minus_rho.extend(clusters.wins_prev.iter().map(|&w| {
            if total_prev == 0 {
                1.0
            } else {
                1.0 - w as f64 / total_prev as f64
            }
        }));
        note_growth(prefactors, k, allocs);
        prefactors.clear();
        prefactors.extend(
            one_minus_rho.iter().zip(&clusters.delta).map(|(&m, &dl)| m * sigmoid_weight(dl)),
        );
        resize_tracked(accumulators, k, 0.0, allocs);
        let use_weighted = self.weighted_similarity;
        let post_scale = if use_weighted { 1.0 } else { 1.0 / d as f64 };
        clusters.rebuild_value_major(use_weighted);
        post_scale
    }

    /// Apply phase over one presentation span: the per-object award/penalty
    /// cascade of Alg. 1, updating `clusters` and the hoisted `prefactors`
    /// in place and pushing each presented row's winner onto `decisions`
    /// (in presentation order — `decisions[t]` is the verdict for
    /// `order[t]`). When `confidences` is given, the winner's plain Eq. (14)
    /// similarity (no `(1 − ρ)·u` prefactor) is recorded alongside each
    /// decision — the weight of the halo vote.
    /// Returns whether any membership changed.
    ///
    /// Assignments are *read* from the frozen `prior` snapshot rather than
    /// written back live: every row is presented exactly once per pass, so
    /// its prior assignment is never re-read after its own verdict, and
    /// deferring the write-back to the caller lets replicas share one
    /// read-only snapshot instead of cloning the whole vector.
    ///
    /// Hot-path structure (see `DESIGN.md` §"Hot path"): per object one
    /// [`score_all_transposed`] sweep evaluates every live cluster against
    /// the row with the `(1 − ρ_l) · u_l` prefactor hoisted into a cached
    /// per-cluster vector. ρ is fixed within a pass (it derives from the
    /// previous passes' win counts), and δ — hence `u` — changes for at
    /// most the winner and the rival per object, so only those two
    /// prefactors (and sigmoids) are recomputed instead of `k` per object.
    #[allow(clippy::too_many_arguments)]
    fn apply_span(
        &self,
        table: &CategoricalTable,
        order: &[usize],
        clusters: &mut Cohort,
        prior: &[Option<usize>],
        decisions: &mut Vec<usize>,
        mut confidences: Option<&mut Vec<f64>>,
        one_minus_rho: &[f64],
        prefactors: &mut [f64],
        accumulators: &mut [f64],
        post_scale: f64,
        stats: &mut HotPathStats,
    ) -> bool {
        let eta = self.learning_rate;
        let use_weighted = self.weighted_similarity;
        let mut changed = false;
        decisions.clear();
        if let Some(scores) = confidences.as_deref_mut() {
            scores.clear();
        }
        for &i in order {
            let row = table.row(i);
            stats.full_rescans += 1;
            stats.score_evals += prefactors.len() as u64;

            // Score every live cluster — (1 − ρ_l) · u_l · s(x_i, C_l) —
            // and select the winner v (Eq. 6) and the rival h (Eq. 9) in
            // the same fused sweep.
            let (best, rival) = score_all_transposed(
                row,
                clusters.layout.offsets(),
                &clusters.value_major,
                post_scale,
                prefactors,
                accumulators,
            );

            // Assign x_i to the winner (Eq. 4 / Eq. 10).
            let previous = prior[i];
            if previous != Some(best) {
                if let Some(p) = previous {
                    clusters.profiles[p].remove(row);
                    clusters.sync_value_major(p, row, use_weighted);
                }
                clusters.profiles[best].add(row);
                clusters.sync_value_major(best, row, use_weighted);
                changed = true;
            }
            decisions.push(best);
            if let Some(scores) = confidences.as_deref_mut() {
                scores.push(accumulators[best] * post_scale);
            }
            clusters.wins_now[best] += 1;

            // Award the winner (Eq. 12), penalize the rival by a step
            // proportional to how close it came (Eq. 13). δ is clamped
            // to [0, 1] so u stays in the sigmoid's responsive range
            // (δ = 1 already yields u ≈ 0.993; unbounded growth would
            // let long-time winners absorb unlimited penalties). The
            // sigmoid (an `exp`) is only re-evaluated when δ actually
            // moved — repeat winners sit saturated at the δ = 1 clamp,
            // so most awards skip it.
            let awarded = (clusters.delta[best] + eta).min(1.0);
            if awarded != clusters.delta[best] {
                clusters.delta[best] = awarded;
                prefactors[best] = one_minus_rho[best] * sigmoid_weight(awarded);
            }
            if rival != usize::MAX {
                let rival_similarity = accumulators[rival] * post_scale;
                let penalized = (clusters.delta[rival] - eta * rival_similarity).max(0.0);
                if penalized != clusters.delta[rival] {
                    clusters.delta[rival] = penalized;
                    prefactors[rival] = one_minus_rho[rival] * sigmoid_weight(penalized);
                }
            }
        }
        changed
    }

    /// Replica-merge apply phase — one *merge step* per pass: one
    /// [`apply_span`](Self::apply_span) per shard against a frozen clone of
    /// the pass-start cohort, rayon-parallel across shards, reconciled into
    /// `clusters` by the one merge rule (DESIGN.md §4–5):
    ///
    /// * **spans** — each replica presents its owned rows plus, under a
    ///   non-zero [`halo`](MgcplBuilder::halo), the boundary rows borrowed
    ///   from adjacent shards ([`ExecutionPlan::shard_map`] materializes
    ///   the geometry);
    /// * **memberships** — rows presented once take their replica's verdict
    ///   directly; rows presented on several replicas settle by
    ///   [`resolve_vote`] over the replicas' `(winner, similarity)`
    ///   verdicts;
    /// * **profiles** — per-cluster profiles are rebuilt over each shard's
    ///   *owned* rows from the settled memberships, then merged via
    ///   [`ClusterProfile::merge`]. Every row is owned by exactly one shard
    ///   whatever the halo, so the merged integer counts stay exact;
    /// * **δ** — span-size-weighted average of the replica accumulators
    ///   (one replica ⇒ weight `1.0` ⇒ bit-exact with serial);
    /// * **wins** — integer counts of the final memberships (halo rows
    ///   count once, not once per presenting replica);
    /// * **ω** — not reconciled here: the epilogue re-derives it from the
    ///   merged profiles, which is the deterministic consensus.
    ///
    /// The presentation order inside each span is the global per-pass
    /// shuffle filtered to that span, so a one-shard plan degenerates to
    /// the serial order and results are deterministic for a fixed seed,
    /// shard count, and halo.
    ///
    /// Under an armed [`FaultPlan`] (DESIGN.md §8) the merge degrades
    /// instead of failing: each replica probes the schedule per execution
    /// attempt (`merge_step` is the fault plan's step coordinate) and a
    /// crashed or deadline-exceeded replica is retried up to the plan's
    /// attempt budget, then quarantined — its rows fall back to their
    /// prior membership (or a frozen-snapshot rescore on the first pass),
    /// the profile merge stays exact over all rows' final memberships,
    /// and the δ average re-weights over the surviving replicas. Poisoned
    /// or dropped δ vectors are detected by finiteness/ω-bound checks and
    /// excluded the same way. All of this is gated on
    /// [`FaultPlan::is_none`], so the clean path is bit-exact with the
    /// pre-fault engine.
    #[allow(clippy::too_many_arguments)]
    fn apply_replicated(
        &self,
        table: &CategoricalTable,
        order: &[usize],
        clusters: &mut Cohort,
        assignment: &mut [Option<usize>],
        one_minus_rho: &[f64],
        prefactors: &[f64],
        post_scale: f64,
        merge_step: u64,
        map: &ShardMap,
        rep: &mut ReplicatedScratch,
        allocs: &mut u64,
        stats: &mut HotPathStats,
    ) -> bool {
        let k = clusters.len();
        let n_rows = assignment.len();
        let overlap = map.has_overlap();

        // One persistent slot per shard: each holds the replica's cohort
        // clone target, span, verdict buffers, and per-shard profile
        // rebuild scratch, all reused across passes (and fits).
        if rep.slots.len() != map.n_shards {
            note_growth(&rep.slots, map.n_shards, allocs);
            rep.slots.resize_with(map.n_shards, ReplicaSlot::default);
            for (s, slot) in rep.slots.iter_mut().enumerate() {
                slot.index = s;
            }
        }

        // Presentation spans: the global shuffle filtered to each replica's
        // owned-plus-borrowed row set, preserving the shuffled order.
        map.fill_spans(order, &mut rep.spans, allocs);
        for (slot, span) in rep.slots.iter_mut().zip(rep.spans.iter_mut()) {
            std::mem::swap(&mut slot.rows, span);
        }

        // Replica apply: slots are moved into the rayon workers and
        // returned, so their buffers never cross threads by reference and
        // still persist. Each replica refreshes its local cohort from the
        // frozen pass-start snapshot (`copy_from` reuses the buffers the
        // previous pass grew) and runs the shared `apply_span`.
        let snapshot: &Cohort = clusters;
        let frozen_assignment: &[Option<usize>] = assignment;
        let fault = &self.fault;
        let slots_in = std::mem::take(&mut rep.slots);
        let slots: Vec<ReplicaSlot> = slots_in
            .into_par_iter()
            .map(|mut slot| {
                slot.stats = HotPathStats::default();
                slot.allocs = 0;
                slot.failures = 0;
                slot.retries = 0;
                slot.quarantined = false;
                slot.delta_dropped = false;
                // Fault probe (DESIGN.md §8): decide this replica's fate
                // before executing — each attempt re-draws the schedule,
                // a deadline-exceeded straggler counts as a failed
                // attempt, and exhausting the attempt budget quarantines
                // the shard for this merge step. Deterministic per
                // (step, shard, attempt), so the thread schedule cannot
                // change the outcome.
                if !fault.is_none() {
                    let budget = fault.attempts();
                    let mut attempt = 0usize;
                    loop {
                        let healthy = match fault.replica_fault(merge_step, slot.index, attempt) {
                            ReplicaFault::Healthy => true,
                            ReplicaFault::Fail => false,
                            ReplicaFault::Straggle { delay } => !fault.deadline_exceeded(delay),
                        };
                        if healthy {
                            break;
                        }
                        slot.failures += 1;
                        attempt += 1;
                        if attempt >= budget {
                            slot.quarantined = true;
                            break;
                        }
                        slot.retries += 1;
                    }
                }
                if slot.quarantined {
                    // The replica never delivers: clear its outputs so the
                    // vote/write-back loops below see an empty verdict set
                    // (`rows` stays intact — the profile rebuild still
                    // needs the shard's owned-row span).
                    slot.decisions.clear();
                    slot.confidences.clear();
                    slot.delta.clear();
                    return slot;
                }
                match slot.cohort.as_mut() {
                    Some(cohort) => {
                        cohort.copy_from(snapshot, &mut slot.spare_profiles, &mut slot.allocs);
                    }
                    None => {
                        slot.allocs += 1;
                        slot.cohort = Some(snapshot.clone());
                    }
                }
                copy_into(&mut slot.prefactors, prefactors, &mut slot.allocs);
                resize_tracked(&mut slot.accumulators, k, 0.0, &mut slot.allocs);
                note_growth(&slot.decisions, slot.rows.len(), &mut slot.allocs);
                let local = slot.cohort.as_mut().expect("cohort installed above");
                let mut span_stats = HotPathStats::default();
                self.apply_span(
                    table,
                    &slot.rows,
                    local,
                    frozen_assignment,
                    &mut slot.decisions,
                    overlap.then_some(&mut slot.confidences),
                    one_minus_rho,
                    &mut slot.prefactors,
                    &mut slot.accumulators,
                    post_scale,
                    &mut span_stats,
                );
                slot.stats = span_stats;
                let local_delta: &[f64] = &slot.cohort.as_ref().expect("still installed").delta;
                note_growth(&slot.delta, local_delta.len(), &mut slot.allocs);
                slot.delta.clear();
                slot.delta.extend_from_slice(local_delta);
                // δ transit faults: corruption poisons one entry (NaN or
                // an out-of-[0,1] value, alternating so both detector
                // branches stay exercised); a drop loses the vector. The
                // merge-side validity scan below catches both.
                if !fault.is_none() && !slot.delta.is_empty() {
                    match fault.delta_fault(merge_step, slot.index) {
                        DeltaFault::Clean => {}
                        DeltaFault::Drop => slot.delta_dropped = true,
                        DeltaFault::Corrupt => {
                            let idx = (merge_step as usize + slot.index) % slot.delta.len();
                            slot.delta[idx] = if (merge_step + slot.index as u64).is_multiple_of(2)
                            {
                                f64::NAN
                            } else {
                                4.0
                            };
                        }
                    }
                }
                slot
            })
            .collect();

        // Final membership per row: the owning replica's verdict when the
        // row was presented once, the similarity vote otherwise. Vote buffers
        // are indexed by the shard map's dense halo slots, so their size
        // tracks the overlap (≤ 2·halo·(shards−1) rows), not n.
        resize_tracked(&mut rep.final_of, n_rows, usize::MAX, allocs);
        rep.final_of.fill(usize::MAX);
        if overlap {
            if rep.votes.len() < map.halo_rows.len() {
                note_growth(&rep.votes, map.halo_rows.len(), allocs);
                rep.votes.resize_with(map.halo_rows.len(), Vec::new);
            }
            for votes in rep.votes[..map.halo_rows.len()].iter_mut() {
                votes.clear();
            }
            for slot in &slots {
                for ((&i, &c), &s) in slot.rows.iter().zip(&slot.decisions).zip(&slot.confidences) {
                    match map.vote_slot[i] {
                        u32::MAX => rep.final_of[i] = c,
                        vote_slot => rep.votes[vote_slot as usize].push((c, s)),
                    }
                }
            }
            for (&i, row_votes) in map.halo_rows.iter().zip(&rep.votes) {
                // Every replica that would have presented this halo row
                // was quarantined: leave it to the orphan fallback below.
                if row_votes.is_empty() {
                    continue;
                }
                rep.final_of[i] = resolve_vote(row_votes);
            }
        } else {
            for slot in &slots {
                for (&i, &c) in slot.rows.iter().zip(&slot.decisions) {
                    rep.final_of[i] = c;
                }
            }
        }

        // Quarantine accounting and the orphan fallback (DESIGN.md §8):
        // rows whose every presenting replica was quarantined carry no
        // verdict, so they keep their prior membership — or, on a first
        // pass without one, are re-scored against the frozen pass-start
        // state (value-major matrix and prefactors are still the
        // snapshot's at this point; the profile merge below then stays
        // exact over every row's final membership). Gated on an actual
        // quarantine so the clean path never touches any of this.
        for slot in &slots {
            stats.replica_failures += slot.failures;
            stats.retries += slot.retries;
        }
        let quarantined = slots.iter().filter(|s| s.quarantined).count();
        if quarantined > 0 {
            stats.quarantined_shards += quarantined as u64;
            let permille = ((map.n_shards - quarantined) as u64 * 1000) / map.n_shards as u64;
            stats.min_survivor_permille = stats.min_survivor_permille.min(permille);
            resize_tracked(&mut rep.fallback_accumulators, k, 0.0, allocs);
            for &i in order {
                if rep.final_of[i] == usize::MAX {
                    rep.final_of[i] = match assignment[i] {
                        Some(c) => c,
                        None => {
                            stats.score_evals += k as u64;
                            score_all_transposed(
                                table.row(i),
                                clusters.layout.offsets(),
                                &clusters.value_major,
                                post_scale,
                                prefactors,
                                &mut rep.fallback_accumulators,
                            )
                            .0
                        }
                    };
                }
            }
        }

        // Write back memberships for the presented rows; wins count each
        // row's final verdict once per presentation, matching the serial
        // cascade's one-increment-per-presentation accounting.
        let mut changed = false;
        for &i in order {
            let c = rep.final_of[i];
            let slot = &mut assignment[i];
            if *slot != Some(c) {
                changed = true;
            }
            *slot = Some(c);
            clusters.wins_now[c] += 1;
        }

        // Exact profile merge from the settled memberships, grouped by
        // owning shard (bulk deferred-rescale builds into the slots'
        // persistent profile buffers, parallel across shards). Profile
        // state is a pure function of the member multiset, so the walk
        // order is immaterial.
        let layout = &clusters.layout;
        let settled: &[Option<usize>] = assignment;
        let mut slots: Vec<ReplicaSlot> = slots
            .into_par_iter()
            .map(|mut slot| {
                if slot.members.len() < k {
                    note_growth(&slot.members, k, &mut slot.allocs);
                    slot.members.resize_with(k, Vec::new);
                }
                for members in slot.members[..k].iter_mut() {
                    members.clear();
                }
                for (i, &label) in settled.iter().enumerate() {
                    if map.shard_of[i] as usize == slot.index {
                        if let Some(c) = label {
                            slot.members[c].push(i);
                        }
                    }
                }
                // Per-cluster profiles over the owned rows: reset-and-refill
                // the persistent buffers (never truncated below the high-water
                // k, so later stages with fewer clusters don't churn).
                if slot.profiles.first().is_some_and(|p| p.layout() != layout) {
                    slot.profiles.clear();
                }
                while slot.profiles.len() < k {
                    slot.allocs += 1;
                    slot.profiles.push(ClusterProfile::with_layout(layout.clone()));
                }
                // Only the first `k` member lists were cleared and filled
                // above — the high-water tail holds stale rows from wider
                // passes (or an earlier fit on a bigger table), so the
                // rebuild must not walk it.
                for (profile, members) in slot.profiles[..k].iter_mut().zip(&slot.members[..k]) {
                    profile.reset();
                    profile.extend_rows(members.iter().map(|&i| table.row(i)));
                }
                slot
            })
            .collect();

        // Merge into the persistent target, then copy over the cohort's
        // profiles — state identical to rebuilding them from scratch, since
        // reset + merge recomputes every cached value from integer counts.
        if rep.merged.first().is_some_and(|p| p.layout() != layout) {
            rep.merged.clear();
        }
        while rep.merged.len() < k {
            *allocs += 1;
            rep.merged.push(ClusterProfile::with_layout(layout.clone()));
        }
        for merged in rep.merged[..k].iter_mut() {
            merged.reset();
        }
        for slot in &slots {
            for (merged, profile) in rep.merged[..k].iter_mut().zip(&slot.profiles) {
                merged.merge(profile);
                stats.merges += 1;
            }
        }
        for (profile, merged) in clusters.profiles.iter_mut().zip(&rep.merged) {
            profile.copy_from_profile(merged);
        }

        // δ consensus: span-size-weighted average over the replicas whose
        // δ actually arrived intact. A δ participates only if its replica
        // survived, the vector wasn't dropped in transit, and every entry
        // is finite and inside the `[0, 1]` ω-clamp the learning rule
        // guarantees — the poisoned-δ detector of DESIGN.md §8. With every
        // replica clean (always the case under `FaultPlan::none()`) the
        // filter passes everything.
        let mut rejected = 0u64;
        for slot in &mut slots {
            let intact = slot.delta.len() == k
                && slot.delta.iter().all(|d| d.is_finite() && (0.0..=1.0).contains(d));
            slot.delta_ok = !slot.quarantined && !slot.delta_dropped && intact;
            if !slot.quarantined && !slot.delta_ok {
                rejected += 1;
            }
        }
        stats.rejected_deltas += rejected;
        let total_presented: f64 =
            slots.iter().filter(|s| s.delta_ok).map(|s| s.rows.len() as f64).sum();
        // When every replica's δ was lost this pass, the pass-start δ
        // carries forward rather than averaging toward zero.
        if total_presented > 0.0 {
            clusters.delta.fill(0.0);
            for slot in slots.iter().filter(|s| s.delta_ok) {
                let weight = slot.rows.len() as f64 / total_presented;
                for (average, &delta) in clusters.delta.iter_mut().zip(&slot.delta) {
                    *average += weight * delta;
                }
            }
        }

        // Fold the worker-local counters back into the fit's totals.
        for slot in &mut slots {
            stats.full_rescans += slot.stats.full_rescans;
            stats.skipped_rescans += slot.stats.skipped_rescans;
            stats.score_evals += slot.stats.score_evals;
            *allocs += slot.allocs;
            slot.allocs = 0;
        }
        rep.slots = slots;
        changed
    }
}

/// Settles one row presented to several halo replicas into its final
/// cluster. `votes` holds `(cluster, similarity)` per presenting replica,
/// in replica order; the similarity is the row's Eq. (14) similarity to
/// the winning cluster's profile *as that replica saw it* at decision
/// time. Per-cluster similarity sums, argmax, smallest cluster index on
/// ties; a single vote wins unconditionally.
fn resolve_vote(votes: &[(usize, f64)]) -> usize {
    debug_assert!(!votes.is_empty(), "every row is presented at least once");
    if votes.len() == 1 {
        return votes[0].0;
    }
    let mut best_cluster = usize::MAX;
    let mut best_weight = f64::NEG_INFINITY;
    for (idx, &(cluster, _)) in votes.iter().enumerate() {
        if votes[..idx].iter().any(|&(c, _)| c == cluster) {
            continue; // this cluster's tally was already summed
        }
        let weight: f64 = votes.iter().filter(|&&(c, _)| c == cluster).map(|&(_, s)| s).sum();
        if weight > best_weight || (weight == best_weight && cluster < best_cluster) {
            best_weight = weight;
            best_cluster = cluster;
        }
    }
    best_cluster
}

/// Picks `k0` seed objects deterministically: representatives of the most
/// frequent distinct rows (ties broken lexicographically), padded with the
/// lowest-index remaining objects when there are fewer distinct rows.
fn frequent_row_seeds(table: &CategoricalTable, k0: usize) -> Vec<usize> {
    let mut groups: std::collections::HashMap<&[u32], (usize, usize)> =
        std::collections::HashMap::new();
    for i in 0..table.n_rows() {
        let entry = groups.entry(table.row(i)).or_insert((0, i));
        entry.0 += 1;
    }
    let mut ranked: Vec<(&[u32], (usize, usize))> = groups.into_iter().collect();
    ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    let mut seeds: Vec<usize> = ranked.iter().take(k0).map(|(_, (_, i))| *i).collect();
    if seeds.len() < k0 {
        let chosen: std::collections::HashSet<usize> = seeds.iter().copied().collect();
        seeds.extend((0..table.n_rows()).filter(|i| !chosen.contains(i)).take(k0 - seeds.len()));
    }
    seeds
}

/// Densifies an assignment into labels `0..k` in first-appearance order.
fn dense_labels(assignment: &[Option<usize>]) -> Vec<usize> {
    // Cluster indices are already compact (pruning re-maps them), so a
    // direct-indexed table beats a HashMap here — this runs once per
    // granularity over all n objects.
    let k = assignment.iter().map(|slot| slot.map_or(0, |c| c + 1)).max().unwrap_or(0);
    let mut remap: Vec<usize> = vec![usize::MAX; k];
    let mut next = 0usize;
    assignment
        .iter()
        .map(|slot| {
            let c = slot.expect("all objects are assigned after a learning pass");
            if remap[c] == usize::MAX {
                remap[c] = next;
                next += 1;
            }
            remap[c]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use categorical_data::synth::GeneratorConfig;

    fn separated(n: usize, k: usize, seed: u64) -> CategoricalTable {
        GeneratorConfig::new("t", n, vec![4; 8], k)
            .noise(0.05)
            .generate(seed)
            .dataset
            .into_parts()
            .0
    }

    #[test]
    fn sigmoid_weight_matches_eq_11() {
        // δ = 0.5 is the sigmoid midpoint.
        assert!((sigmoid_weight(0.5) - 0.5).abs() < 1e-12);
        assert!(sigmoid_weight(1.0) > 0.99);
        assert!(sigmoid_weight(0.0) < 0.01);
    }

    #[test]
    fn default_resolve_is_a_similarity_weighted_vote() {
        // Cluster 2 wins on summed similarity despite fewer votes.
        assert_eq!(resolve_vote(&[(1, 0.3), (2, 0.9), (1, 0.2)]), 2);
        // Equal weights tie-break on the smaller cluster index.
        assert_eq!(resolve_vote(&[(5, 0.4), (3, 0.4)]), 3);
        // A single vote always wins.
        assert_eq!(resolve_vote(&[(7, 0.0)]), 7);
    }

    #[test]
    fn empty_input_is_rejected() {
        let table = CategoricalTable::new(categorical_data::Schema::uniform(2, 2));
        let err = Mgcpl::builder().build().fit(&table).unwrap_err();
        assert_eq!(err, McdcError::EmptyInput);
    }

    #[test]
    fn oversized_k0_is_rejected() {
        let table = separated(10, 2, 1);
        let err = Mgcpl::builder().initial_k(11).build().fit(&table).unwrap_err();
        assert!(matches!(err, McdcError::InvalidK { k: 11, n: 10 }));
    }

    #[test]
    fn kappa_is_strictly_decreasing() {
        let table = separated(300, 3, 2);
        let result = Mgcpl::builder().seed(3).build().fit(&table).unwrap();
        assert!(!result.kappa.is_empty());
        assert!(result.kappa.windows(2).all(|w| w[0] > w[1]), "kappa={:?}", result.kappa);
    }

    #[test]
    fn partitions_cover_all_objects_with_dense_labels() {
        let table = separated(200, 3, 4);
        let result = Mgcpl::builder().seed(5).build().fit(&table).unwrap();
        for (partition, &k) in result.partitions.iter().zip(&result.kappa) {
            assert_eq!(partition.len(), 200);
            let mut seen: Vec<usize> = partition.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), k, "labels must be dense 0..k");
            assert_eq!(*seen.last().unwrap(), k - 1);
        }
    }

    #[test]
    fn converges_near_true_k_on_well_separated_data() {
        let table = separated(400, 3, 6);
        let result = Mgcpl::builder().seed(7).build().fit(&table).unwrap();
        let k_final = *result.kappa.last().unwrap();
        assert!(
            (2..=5).contains(&k_final),
            "expected k_sigma near 3, got {k_final} (kappa={:?})",
            result.kappa
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let table = separated(150, 2, 8);
        let mgcpl = Mgcpl::builder().seed(11).build();
        let a = mgcpl.fit(&table).unwrap();
        let b = mgcpl.fit(&table).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unweighted_variant_also_runs() {
        let table = separated(120, 2, 9);
        let result =
            Mgcpl::builder().weighted_similarity(false).seed(1).build().fit(&table).unwrap();
        assert!(!result.partitions.is_empty());
    }

    #[test]
    fn single_distinct_row_collapses_to_one_cluster() {
        let mut table = CategoricalTable::new(categorical_data::Schema::uniform(3, 2));
        for _ in 0..40 {
            table.push_row(&[1, 0, 1]).unwrap();
        }
        let result = Mgcpl::builder().seed(2).build().fit(&table).unwrap();
        assert_eq!(result.trace.final_k(), 1, "identical objects must merge");
    }
}
