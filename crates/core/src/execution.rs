//! The execution engine: one pluggable description of *how* a learning
//! stage walks its rows, shared by MGCPL, CAME, and the streaming re-fit.
//!
//! MGCPL's award/penalty cascade (Alg. 1, Eqs. 11–13) is order-dependent
//! and therefore inherently sequential; the standard route to scale is a
//! mini-batch / replica-merge reformulation that trades the exact cascade
//! for shard-local cascades reconciled once per pass. [`ExecutionPlan`]
//! names the three interchangeable backends:
//!
//! * [`ExecutionPlan::Serial`] — the exact sequential cascade, bit-identical
//!   to the original `run_stage`;
//! * [`ExecutionPlan::MiniBatch`] — rows sharded into deterministic
//!   contiguous batches (`shard s = rows [s·b, (s+1)·b)`); each replica runs
//!   the SoA cohort over its shard against a frozen pass-start snapshot,
//!   rayon-parallel, and the replicas reconcile via
//!   [`ClusterProfile::merge`](crate::ClusterProfile::merge) plus a
//!   shard-size-weighted δ average (ω re-derives from the merged profiles).
//!   With `batch_size == n` there is exactly one replica, so the pass *is*
//!   the serial cascade and labels reproduce `Serial` bit for bit;
//! * [`ExecutionPlan::Sharded`] — the same replica-merge pass over an
//!   explicit row partition, e.g. the locality-aware placement computed by
//!   `mcdc-dist-sim`'s `GranularPartitioner` so replicas align with the
//!   data's coarse-cluster structure.
//!
//! Replicas reconcile once per pass under one rule: exact profile merge,
//! span-size-weighted δ average, ω re-derived from the merged profiles.
//! The one knob is the learner's reconciliation *halo*: shards may overlap
//! by a halo of boundary rows (this module materializes the halo geometry
//! into the [`ShardMap`]). See `DESIGN.md` §4 for the replica-merge
//! semantics, §5 for the halo, and why serial ≡ mini-batch only at
//! `batch_size = n`.

use categorical_data::CategoricalTable;

use crate::McdcError;

/// How a learning stage executes its per-object update loop.
///
/// Construct directly or via [`ExecutionPlan::mini_batch`] /
/// [`ExecutionPlan::sharded`]; validate against a concrete row count with
/// [`ExecutionPlan::validate`] (the fit entry points do this for you).
///
/// # Example
///
/// ```
/// use mcdc_core::ExecutionPlan;
///
/// let plan = ExecutionPlan::mini_batch(512);
/// assert!(plan.is_parallel());
/// assert!(plan.validate(2048).is_ok());
/// assert!(plan.validate(100).is_err()); // batch exceeds n
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ExecutionPlan {
    /// Exact sequential cascade — one presentation order, updates applied
    /// online. The reference semantics; single-core.
    #[default]
    Serial,
    /// Replica-merge over deterministic contiguous row batches of
    /// `batch_size` rows (the last batch holds the remainder).
    MiniBatch {
        /// Rows per batch; must be in `[1, n]` at fit time. `n` reproduces
        /// [`ExecutionPlan::Serial`] bit-exactly.
        batch_size: usize,
    },
    /// Replica-merge over an explicit row partition: `shards[s]` lists the
    /// table row indices replica `s` owns. Shards must be non-empty,
    /// disjoint, and jointly cover every row.
    Sharded {
        /// Row indices per shard.
        shards: Vec<Vec<usize>>,
    },
}

impl ExecutionPlan {
    /// A [`ExecutionPlan::MiniBatch`] plan with the given batch size.
    pub fn mini_batch(batch_size: usize) -> ExecutionPlan {
        ExecutionPlan::MiniBatch { batch_size }
    }

    /// A [`ExecutionPlan::Sharded`] plan over explicit row shards.
    pub fn sharded(shards: Vec<Vec<usize>>) -> ExecutionPlan {
        ExecutionPlan::Sharded { shards }
    }

    /// `true` when the plan fans work out across replicas (everything but
    /// [`ExecutionPlan::Serial`]); drives CAME's chunked-parallel paths.
    pub fn is_parallel(&self) -> bool {
        !matches!(self, ExecutionPlan::Serial)
    }

    /// Checks the plan against a concrete row count.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::InvalidShards`] when the batch size is zero or
    /// exceeds `n`, or when an explicit shard set is empty, holds more
    /// shards than rows, has an empty shard, repeats a row, references a
    /// row `>= n`, or fails to cover every row.
    pub fn validate(&self, n: usize) -> Result<(), McdcError> {
        match self {
            ExecutionPlan::Serial => Ok(()),
            ExecutionPlan::MiniBatch { batch_size } => {
                if *batch_size == 0 {
                    return Err(McdcError::InvalidShards {
                        message: "batch size must be positive".to_owned(),
                    });
                }
                if *batch_size > n {
                    return Err(McdcError::InvalidShards {
                        message: format!("batch size {batch_size} exceeds {n} rows"),
                    });
                }
                Ok(())
            }
            ExecutionPlan::Sharded { shards } => {
                if shards.is_empty() {
                    return Err(McdcError::InvalidShards {
                        message: "shard set is empty".to_owned(),
                    });
                }
                if shards.len() > n {
                    // Without this early check the pigeonhole violation
                    // would still surface below, but as a confusing
                    // repeated-row / out-of-range complaint about whichever
                    // row happened to trip first.
                    return Err(McdcError::InvalidShards {
                        message: format!(
                            "{} shards over {n} rows guarantees empty shards",
                            shards.len()
                        ),
                    });
                }
                let mut owner = vec![false; n];
                let mut covered = 0usize;
                for (s, shard) in shards.iter().enumerate() {
                    if shard.is_empty() {
                        return Err(McdcError::InvalidShards {
                            message: format!("shard {s} is empty"),
                        });
                    }
                    for &i in shard {
                        if i >= n {
                            return Err(McdcError::InvalidShards {
                                message: format!("shard {s} references row {i} >= n = {n}"),
                            });
                        }
                        if owner[i] {
                            return Err(McdcError::InvalidShards {
                                message: format!("row {i} appears in more than one shard"),
                            });
                        }
                        owner[i] = true;
                        covered += 1;
                    }
                }
                if covered != n {
                    return Err(McdcError::InvalidShards {
                        message: format!("shards cover {covered} of {n} rows"),
                    });
                }
                Ok(())
            }
        }
    }

    /// Adapts the plan to an input of `n` rows, for callers whose row count
    /// changes between fits (e.g. the streaming re-fit reservoir):
    /// [`Serial`](ExecutionPlan::Serial) is unchanged;
    /// [`MiniBatch`](ExecutionPlan::MiniBatch) clamps its batch into
    /// `[1, n]`; an explicit [`Sharded`](ExecutionPlan::Sharded) partition
    /// only fits the table it was derived from, so for any other `n` it
    /// degrades to a `MiniBatch` plan with at most the same replica count
    /// (`batch = ⌈n / shards⌉`, which rounds to fewer replicas when the
    /// division is uneven).
    pub fn for_rows(&self, n: usize) -> ExecutionPlan {
        match self {
            ExecutionPlan::Serial => ExecutionPlan::Serial,
            ExecutionPlan::MiniBatch { batch_size } => {
                ExecutionPlan::MiniBatch { batch_size: (*batch_size).clamp(1, n.max(1)) }
            }
            ExecutionPlan::Sharded { shards } => {
                if self.validate(n).is_ok() {
                    self.clone()
                } else {
                    ExecutionPlan::MiniBatch { batch_size: n.div_ceil(shards.len().max(1)).max(1) }
                }
            }
        }
    }

    /// The row → replica map for `table` under a reconciliation halo of
    /// `halo` boundary rows, or `None` for the serial plan. Mini-batch
    /// geometry comes from the table's own deterministic sharder
    /// ([`CategoricalTable::shard_rows`] — zero-copy `TableShard` ranges);
    /// a sharder rejection is surfaced as [`McdcError::InvalidShards`]
    /// rather than trusted to be unreachable, so the engine stays
    /// panic-free even if the two validators ever drift.
    ///
    /// With `halo > 0` (the learner's reconciliation halo) each replica
    /// additionally *presents* — without owning — the last `halo` rows of
    /// the previous shard and the first `halo` rows of the next, in
    /// shard-index order; for a mini-batch plan's contiguous shards these
    /// are the geometric boundary rows. Borrow lists clamp to the
    /// neighbor's size, so an oversized halo degrades to presenting the
    /// whole neighbor rather than erroring.
    pub(crate) fn shard_map(
        &self,
        table: &CategoricalTable,
        halo: usize,
    ) -> Result<Option<ShardMap>, McdcError> {
        let n = table.n_rows();
        let shards: Vec<Vec<usize>> = match self {
            ExecutionPlan::Serial => return Ok(None),
            ExecutionPlan::MiniBatch { batch_size } => table
                .shard_rows(*batch_size)
                .map_err(|e| McdcError::InvalidShards { message: e.to_string() })?
                .iter()
                .map(|shard| shard.range().collect())
                .collect(),
            ExecutionPlan::Sharded { shards } => shards.clone(),
        };
        let mut map = ShardMap {
            n_shards: shards.len(),
            shard_of: vec![0u32; n],
            extra_of: Vec::new(),
            vote_slot: Vec::new(),
            halo_rows: Vec::new(),
        };
        for (s, shard) in shards.iter().enumerate() {
            for &i in shard {
                map.shard_of[i] = s as u32;
            }
        }
        if halo > 0 && shards.len() > 1 {
            map.extra_of = vec![Vec::new(); n];
            for s in 0..shards.len() {
                if s > 0 {
                    let prev = &shards[s - 1];
                    for &i in &prev[prev.len().saturating_sub(halo)..] {
                        map.extra_of[i].push(s as u32);
                    }
                }
                if s + 1 < shards.len() {
                    let next = &shards[s + 1];
                    for &i in &next[..halo.min(next.len())] {
                        map.extra_of[i].push(s as u32);
                    }
                }
            }
            // Dense indices for the (few) multiply-presented rows, so the
            // per-pass vote buffers size with the overlap, not with n.
            map.vote_slot = vec![u32::MAX; n];
            for i in 0..n {
                if !map.extra_of[i].is_empty() {
                    map.vote_slot[i] = map.halo_rows.len() as u32;
                    map.halo_rows.push(i);
                }
            }
        }
        Ok(Some(map))
    }
}

/// Materialized row → replica assignment for one fit, built once from the
/// plan's partition and the learner's halo.
#[derive(Debug, Clone)]
pub(crate) struct ShardMap {
    /// Owning replica per table row.
    pub shard_of: Vec<u32>,
    /// Number of replicas.
    pub n_shards: usize,
    /// Non-owning presenters per row (halo borrowers, in shard order).
    /// Empty — length 0, not `n` — when the reconciliation halo is 0, so
    /// the common case allocates nothing.
    pub extra_of: Vec<Vec<u32>>,
    /// Dense vote-buffer index per row (`u32::MAX` for rows presented
    /// once); empty when the halo is 0.
    pub vote_slot: Vec<u32>,
    /// Rows presented to more than one replica, ascending — the inverse of
    /// `vote_slot`; empty when the halo is 0.
    pub halo_rows: Vec<usize>,
}

impl ShardMap {
    /// Whether any row is presented to more than one replica.
    pub fn has_overlap(&self) -> bool {
        !self.extra_of.is_empty()
    }

    /// Fills one presentation span per replica — the global shuffled
    /// `order` filtered to each replica's owned-plus-borrowed rows,
    /// preserving the shuffled order — into the caller's reusable buffers
    /// (cleared, grown only when the shard count itself grew). This is the
    /// workspace-backed replacement for allocating fresh span vectors
    /// every pass.
    pub(crate) fn fill_spans(
        &self,
        order: &[usize],
        spans: &mut Vec<Vec<usize>>,
        allocs: &mut u64,
    ) {
        if spans.len() != self.n_shards {
            if spans.capacity() < self.n_shards {
                *allocs += 1;
            }
            spans.resize_with(self.n_shards, Vec::new);
        }
        for span in spans.iter_mut() {
            span.clear();
        }
        let overlap = self.has_overlap();
        for &i in order {
            spans[self.shard_of[i] as usize].push(i);
            if overlap {
                for &s in &self.extra_of[i] {
                    spans[s as usize].push(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use categorical_data::Schema;

    fn table(n: usize) -> CategoricalTable {
        let mut t = CategoricalTable::new(Schema::uniform(2, 2));
        for i in 0..n {
            t.push_row(&[(i % 2) as u32, 0]).unwrap();
        }
        t
    }

    #[test]
    fn serial_always_validates() {
        assert!(ExecutionPlan::Serial.validate(0).is_ok());
        assert!(ExecutionPlan::Serial.validate(10).is_ok());
        assert!(!ExecutionPlan::Serial.is_parallel());
    }

    #[test]
    fn mini_batch_rejects_zero_and_oversized_batches() {
        assert!(matches!(
            ExecutionPlan::mini_batch(0).validate(10),
            Err(McdcError::InvalidShards { .. })
        ));
        assert!(matches!(
            ExecutionPlan::mini_batch(11).validate(10),
            Err(McdcError::InvalidShards { .. })
        ));
        assert!(ExecutionPlan::mini_batch(10).validate(10).is_ok());
        assert!(ExecutionPlan::mini_batch(1).validate(10).is_ok());
    }

    #[test]
    fn mini_batch_shard_map_is_contiguous_and_complete() {
        let map = ExecutionPlan::mini_batch(4).shard_map(&table(10), 0).unwrap().unwrap();
        assert_eq!(map.n_shards, 3);
        assert_eq!(map.shard_of, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
        assert!(!map.has_overlap());
        assert!(map.extra_of.is_empty());
    }

    #[test]
    fn halo_borrows_boundary_rows_from_adjacent_shards() {
        // Shards [0..4), [4..8), [8..10) with a 2-row halo: shard 0 borrows
        // the head of shard 1, shard 1 both boundaries, shard 2 the tail of
        // shard 1.
        let map = ExecutionPlan::mini_batch(4).shard_map(&table(10), 2).unwrap().unwrap();
        assert!(map.has_overlap());
        let mut presented: Vec<Vec<usize>> = vec![Vec::new(); map.n_shards];
        for i in 0..10 {
            presented[map.shard_of[i] as usize].push(i);
            for &s in &map.extra_of[i] {
                presented[s as usize].push(i);
            }
        }
        for span in presented.iter_mut() {
            span.sort_unstable();
        }
        assert_eq!(presented[0], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(presented[1], vec![2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(presented[2], vec![6, 7, 8, 9]);
    }

    #[test]
    fn oversized_halo_clamps_to_whole_neighbors() {
        let map = ExecutionPlan::mini_batch(4).shard_map(&table(10), 100).unwrap().unwrap();
        // Shard 1 borrows all of shards 0 and 2; no row is presented twice
        // to the same replica.
        let borrowed_by_1: Vec<usize> = (0..10).filter(|&i| map.extra_of[i].contains(&1)).collect();
        assert_eq!(borrowed_by_1, vec![0, 1, 2, 3, 8, 9]);
        for i in 0..10usize {
            let mut presenters: Vec<u32> = map.extra_of[i].clone();
            presenters.push(map.shard_of[i]);
            presenters.sort_unstable();
            presenters.dedup();
            assert_eq!(presenters.len(), 1 + map.extra_of[i].len(), "row {i} double-presented");
        }
    }

    #[test]
    fn single_shard_plans_never_overlap() {
        let map = ExecutionPlan::mini_batch(10).shard_map(&table(10), 3).unwrap().unwrap();
        assert_eq!(map.n_shards, 1);
        assert!(!map.has_overlap());
    }

    #[test]
    fn sharded_rejects_empty_overlapping_and_incomplete_sets() {
        let n = 4;
        assert!(ExecutionPlan::sharded(vec![vec![0, 2], vec![1, 3]]).validate(n).is_ok());
        assert!(matches!(
            ExecutionPlan::sharded(vec![]).validate(n),
            Err(McdcError::InvalidShards { .. })
        ));
        assert!(matches!(
            ExecutionPlan::sharded(vec![vec![0, 1, 2, 3], vec![]]).validate(n),
            Err(McdcError::InvalidShards { .. })
        ));
        assert!(matches!(
            ExecutionPlan::sharded(vec![vec![0, 1], vec![1, 2, 3]]).validate(n),
            Err(McdcError::InvalidShards { .. })
        ));
        assert!(matches!(
            ExecutionPlan::sharded(vec![vec![0, 1], vec![2]]).validate(n),
            Err(McdcError::InvalidShards { .. })
        ));
        assert!(matches!(
            ExecutionPlan::sharded(vec![vec![0, 1], vec![2, 4]]).validate(n),
            Err(McdcError::InvalidShards { .. })
        ));
    }

    #[test]
    fn sharded_rejects_more_shards_than_rows() {
        // Pigeonhole: 5 shards over 4 rows cannot all be non-empty. The
        // early check reports the real constraint instead of whichever
        // repeated-row / out-of-range complaint trips first.
        let plan = ExecutionPlan::sharded(vec![vec![0], vec![1], vec![2], vec![3], vec![0]]);
        match plan.validate(4) {
            Err(McdcError::InvalidShards { message }) => {
                assert!(message.contains("5 shards over 4 rows"), "got: {message}");
            }
            other => panic!("expected InvalidShards, got {other:?}"),
        }
        // n == shards.len() is the boundary and stays legal.
        assert!(ExecutionPlan::sharded(vec![vec![0], vec![1], vec![2], vec![3]])
            .validate(4)
            .is_ok());
    }

    #[test]
    fn sharded_map_tracks_explicit_ownership() {
        let plan = ExecutionPlan::sharded(vec![vec![3, 1], vec![0, 2]]);
        plan.validate(4).unwrap();
        let map = plan.shard_map(&table(4), 0).unwrap().unwrap();
        assert_eq!(map.n_shards, 2);
        assert_eq!(map.shard_of, vec![1, 0, 1, 0]);
    }

    #[test]
    fn sharded_halo_follows_shard_list_order() {
        // Explicit shards treat their stored row order as the boundary:
        // shard 0 borrows the first entry of shard 1's list (row 0), shard 1
        // the last entry of shard 0's list (row 1).
        let plan = ExecutionPlan::sharded(vec![vec![3, 1], vec![0, 2]]);
        let map = plan.shard_map(&table(4), 1).unwrap().unwrap();
        assert_eq!(map.extra_of[0], vec![0]);
        assert_eq!(map.extra_of[1], vec![1]);
        assert!(map.extra_of[2].is_empty());
        assert!(map.extra_of[3].is_empty());
    }

    #[test]
    fn for_rows_adapts_plans_to_new_row_counts() {
        assert_eq!(ExecutionPlan::Serial.for_rows(7), ExecutionPlan::Serial);
        // Oversized batches clamp instead of erroring on the next fit.
        assert_eq!(ExecutionPlan::mini_batch(100).for_rows(30), ExecutionPlan::mini_batch(30));
        assert_eq!(ExecutionPlan::mini_batch(10).for_rows(30), ExecutionPlan::mini_batch(10));
        // A matching explicit partition is kept as-is…
        let plan = ExecutionPlan::sharded(vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(plan.for_rows(4), plan);
        // …but any other row count degrades to same-replica-count batches.
        assert_eq!(plan.for_rows(10), ExecutionPlan::mini_batch(5));
        assert!(plan.for_rows(10).validate(10).is_ok());
        assert!(plan.for_rows(1).validate(1).is_ok());
    }

    #[test]
    fn default_is_serial() {
        assert_eq!(ExecutionPlan::default(), ExecutionPlan::Serial);
    }
}
