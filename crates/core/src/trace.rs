/// Hot-path execution counters for one fit (MGCPL or CAME).
///
/// Observability, not semantics: two runs that produce identical labels
/// may count differently (a single-shard full-batch run merges where a
/// serial run does not), so result types exclude these counters from their
/// equality — see `MgcplResult` / `CameResult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotPathStats {
    /// Full object rescans performed (one `d×k` scoring sweep each).
    pub full_rescans: u64,
    /// Rescans skipped by CAME's dirty-cluster tracking (DESIGN.md §3
    /// "Lazy scoring"); each skip replaces a `σ×k` distance scan with an
    /// `O(1)` margin decay. MGCPL scores every presentation densely and
    /// always reports 0.
    pub skipped_rescans: u64,
    /// Object–cluster score evaluations performed: each `O(d)` similarity
    /// (MGCPL) or θ-Hamming distance (CAME) computed against one cluster.
    /// A dense sweep over `k` live clusters contributes `k`; a CAME row
    /// skipped by dirty tracking contributes 0. This is the deterministic
    /// work measure the conformance perf gates compare (DESIGN.md §10) —
    /// unlike wall time, it is machine-independent.
    pub score_evals: u64,
    /// Cluster-profile merge operations performed while reconciling
    /// replicated passes: one per (shard, cluster) profile folded into a
    /// merged model. 0 under serial plans.
    pub merges: u64,
    /// Workspace buffer-growth events during the fit (0 on a warm
    /// [`Workspace`](crate::Workspace)).
    pub allocations: u64,
    /// Learning passes (MGCPL) or alternating-minimization iterations
    /// (CAME) executed.
    pub passes: u64,
    /// Always 0: replica rotation was removed from the engine. Kept
    /// because the benchmark reads it.
    pub rotations: u64,
    /// Injected replica execution failures (crashes plus
    /// deadline-exceeded stragglers), counted per failed attempt — a
    /// shard that crashed twice before its retry succeeded contributes 2.
    /// Always 0 under `FaultPlan::none()` (DESIGN.md §8).
    pub replica_failures: u64,
    /// Failed replica attempts that were re-executed within the
    /// per-shard attempt budget (`FaultPlan::retry_budget`).
    pub retries: u64,
    /// Shard-passes excluded from a merge because the replica exhausted
    /// its attempt budget, summed over merge steps (a shard quarantined
    /// in 3 passes contributes 3).
    pub quarantined_shards: u64,
    /// Merge δ vectors excluded from the δ average on a surviving replica:
    /// poisoned (NaN / non-finite / outside the `[0, 1]` ω-clamp) or
    /// dropped in transit.
    pub rejected_deltas: u64,
    /// Worst per-merge-step survivor fraction of the fit, in permille:
    /// 1000 means every shard survived every merge step (also the value
    /// for serial plans, which have no replicas to lose); 0 means some
    /// merge step lost every shard. Streaming's survivor-quorum rollback
    /// gates on this (DESIGN.md §8).
    pub min_survivor_permille: u64,
}

impl Default for HotPathStats {
    fn default() -> Self {
        HotPathStats {
            full_rescans: 0,
            skipped_rescans: 0,
            score_evals: 0,
            merges: 0,
            allocations: 0,
            passes: 0,
            rotations: 0,
            replica_failures: 0,
            retries: 0,
            quarantined_shards: 0,
            rejected_deltas: 0,
            // The neutral element for a running `min`: a fit that never
            // loses a replica reports full survivorship.
            min_survivor_permille: 1000,
        }
    }
}

impl HotPathStats {
    /// Fraction of presentations resolved without a full rescan.
    pub fn skip_rate(&self) -> f64 {
        let total = self.full_rescans + self.skipped_rescans;
        if total == 0 {
            0.0
        } else {
            self.skipped_rescans as f64 / total as f64
        }
    }

    /// Workspace buffer-growth events per pass.
    pub fn allocations_per_pass(&self) -> f64 {
        if self.passes == 0 {
            0.0
        } else {
            self.allocations as f64 / self.passes as f64
        }
    }

    /// The worst per-merge-step survivor fraction, in `[0, 1]` (see
    /// [`min_survivor_permille`](HotPathStats::min_survivor_permille)).
    pub fn survivor_fraction(&self) -> f64 {
        self.min_survivor_permille as f64 / 1000.0
    }
}

/// Record of one MGCPL granularity stage (one outer epoch that ran
/// competitive penalization learning to convergence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRecord {
    /// 1-based index of the convergence stage (the x-axis of Fig. 5).
    pub stage: usize,
    /// Number of live clusters the stage started with.
    pub k_before: usize,
    /// Number of live clusters surviving at stage convergence.
    pub k_after: usize,
    /// Inner learning passes the stage needed to reach the `Q` fixpoint.
    pub inner_iterations: usize,
}

/// The full learning trace of one MGCPL run: the initial `k₀` and one
/// [`StageRecord`] per convergence stage.
///
/// This is exactly the data plotted in the paper's Fig. 5 ("number of
/// convergences" versus "number of clusters").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LearningTrace {
    /// The initialized number of clusters `k₀` (x = 0 in Fig. 5).
    pub initial_k: usize,
    /// One record per stage, in learning order.
    pub stages: Vec<StageRecord>,
}

impl LearningTrace {
    /// The series of cluster counts `κ = {k₁, …, k_σ}` the paper reports,
    /// one per stage.
    pub fn kappa(&self) -> Vec<usize> {
        self.stages.iter().map(|s| s.k_after).collect()
    }

    /// The number of granularity levels `σ`.
    pub fn sigma(&self) -> usize {
        self.stages.len()
    }

    /// The final (coarsest) number of clusters `k_σ`, or `initial_k` when no
    /// stage ran.
    pub fn final_k(&self) -> usize {
        self.stages.last().map_or(self.initial_k, |s| s.k_after)
    }

    /// Points `(stage, k)` for plotting Fig. 5, starting at `(0, k₀)`.
    pub fn plot_points(&self) -> Vec<(usize, usize)> {
        std::iter::once((0, self.initial_k))
            .chain(self.stages.iter().map(|s| (s.stage, s.k_after)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kappa_and_final_k() {
        let trace = LearningTrace {
            initial_k: 40,
            stages: vec![
                StageRecord { stage: 1, k_before: 40, k_after: 12, inner_iterations: 5 },
                StageRecord { stage: 2, k_before: 12, k_after: 4, inner_iterations: 3 },
            ],
        };
        assert_eq!(trace.kappa(), vec![12, 4]);
        assert_eq!(trace.sigma(), 2);
        assert_eq!(trace.final_k(), 4);
        assert_eq!(trace.plot_points(), vec![(0, 40), (1, 12), (2, 4)]);
    }

    #[test]
    fn empty_trace_defaults() {
        let trace = LearningTrace { initial_k: 7, stages: vec![] };
        assert_eq!(trace.final_k(), 7);
        assert_eq!(trace.sigma(), 0);
    }

    #[test]
    fn default_stats_report_full_survivorship() {
        let stats = HotPathStats::default();
        assert_eq!(stats.min_survivor_permille, 1000);
        assert_eq!(stats.survivor_fraction(), 1.0);
        assert_eq!(stats.replica_failures, 0);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.quarantined_shards, 0);
        assert_eq!(stats.rejected_deltas, 0);
        assert_eq!(stats.score_evals, 0);
        assert_eq!(stats.merges, 0);
    }
}
