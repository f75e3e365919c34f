//! Degenerate-cadence property pins for the sub-pass merge cadence
//! (DESIGN.md §12):
//!
//! * `MergeCadence { every: batch }` — and the explicit
//!   `MergeCadence::per_pass()` — are **bit-identical** to the untouched
//!   builder: partitions, κ/Θ trace, *and* every `HotPathStats` counter,
//!   across the `ExecutionPlan` × `Reconcile` (incl. `Rotate`) ×
//!   `WarmStart` grid, property-tested over random MISSING-valued tables
//!   and pinned on the nested suite;
//! * `m = 1` with a single shard reproduces the **serial** cascade bit for
//!   bit — the staleness-free endpoint of the cadence slide;
//! * a sub-pass cadence is deterministic for a fixed seed, and a serial
//!   plan ignores the knob entirely;
//! * the `merges` counter scales exactly with the segment count
//!   (≈ batch/m — the `replicated-cadence` suite in `PERF_GATES.toml`
//!   gates the same growth law), while `score_evals` stay flat;
//! * `Rotate { period }` counts *mini*-merges: at cadence m a rotating
//!   policy rotates ⌈batch/m⌉ times more often per pass, never silently —
//!   the satellite fix this test pins.

use categorical_data::synth::GeneratorConfig;
use categorical_data::{CategoricalTable, Dataset, Schema, MISSING};
use mcdc_core::{
    DeltaAverage, DeltaMomentum, ExecutionPlan, MergeCadence, Mgcpl, MgcplBuilder, OverlapShards,
    Reconcile, Rotate, WarmStart,
};
use proptest::prelude::*;

fn nested(n: usize, seed: u64) -> Dataset {
    GeneratorConfig::new("nested", n, vec![4; 8], 3)
        .subclusters(3)
        .shared_fraction(0.7)
        .noise(0.08)
        .generate(seed)
        .dataset
}

/// Random tables over a uniform 4-value schema where code 4 maps to
/// MISSING, so roughly a fifth of the cells are nulls.
fn arbitrary_table_with_missing() -> impl Strategy<Value = CategoricalTable> {
    (24usize..100, 2usize..6).prop_flat_map(|(n, d)| {
        proptest::collection::vec(proptest::collection::vec(0u32..5, d), n).prop_map(move |rows| {
            let mut table = CategoricalTable::new(Schema::uniform(d, 4));
            for row in &rows {
                let encoded: Vec<u32> =
                    row.iter().map(|&c| if c == 4 { MISSING } else { c }).collect();
                table.push_row(&encoded).unwrap();
            }
            table
        })
    })
}

/// Every plan shape the engine knows, sized for an `n`-row table.
fn plans(n: usize) -> Vec<ExecutionPlan> {
    vec![
        ExecutionPlan::Serial,
        ExecutionPlan::mini_batch((n / 3).max(1)),
        ExecutionPlan::mini_batch(n),
        ExecutionPlan::sharded((0..3).map(|s| (s..n).step_by(3).collect()).collect()),
    ]
}

/// The per-replica span size of a plan — the `batch` in
/// `MergeCadence { every: batch }`, which must cover the pass in a single
/// segment and therefore reproduce the per-pass barrier.
fn batch_of(plan: &ExecutionPlan, n: usize) -> usize {
    match plan {
        ExecutionPlan::Serial => n,
        ExecutionPlan::MiniBatch { batch_size } => *batch_size,
        ExecutionPlan::Sharded { shards } => shards.iter().map(Vec::len).max().unwrap_or(n),
    }
}

/// Every shipped policy shape, as fresh boxed instances.
fn policies() -> Vec<Box<dyn Fn() -> Box<dyn Reconcile>>> {
    vec![
        Box::new(|| Box::new(DeltaAverage)),
        Box::new(|| Box::new(DeltaMomentum { beta: 0.7 })),
        Box::new(|| Box::new(OverlapShards { halo: 8 })),
        Box::new(|| Box::new(Rotate { period: 2, inner: DeltaMomentum { beta: 0.7 } })),
    ]
}

/// Routes a boxed policy into the by-value `reconcile` builder hook.
#[derive(Debug)]
struct Boxed(Box<dyn Reconcile>);

impl Reconcile for Boxed {
    fn describe(&self) -> mcdc_core::ReconcileDescriptor {
        self.0.describe()
    }
    fn rotation_period(&self) -> usize {
        self.0.rotation_period()
    }
    fn halo(&self) -> usize {
        self.0.halo()
    }
    fn blend_delta(&self, pass_start: &[f64], blended: &mut [f64]) {
        self.0.blend_delta(pass_start, blended)
    }
    fn resolve(&self, votes: &[(usize, f64)]) -> usize {
        self.0.resolve(votes)
    }
}

fn fit(
    table: &CategoricalTable,
    configure: impl FnOnce(MgcplBuilder) -> MgcplBuilder,
    seed: u64,
) -> mcdc_core::MgcplResult {
    configure(Mgcpl::builder().seed(seed)).build().fit(table).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn covering_cadence_is_bit_identical_to_the_untouched_builder(
        table in arbitrary_table_with_missing(),
        carry in 0u8..2,
        seed in 0u64..50,
    ) {
        let n = table.n_rows();
        let warm = if carry == 1 { WarmStart::Carry } else { WarmStart::Cold };
        for plan in plans(n) {
            let batch = batch_of(&plan, n);
            for policy in policies() {
                let baseline = fit(
                    &table,
                    |b| b.execution(plan.clone()).reconcile(Boxed(policy())).warm_start(warm),
                    seed,
                );
                for cadence in [MergeCadence::every(batch), MergeCadence::per_pass()] {
                    let pinned = fit(
                        &table,
                        |b| {
                            b.execution(plan.clone())
                                .reconcile(Boxed(policy()))
                                .warm_start(warm)
                                .merge_cadence(cadence)
                        },
                        seed,
                    );
                    // Full equality including the counters: result equality
                    // excludes stats by design, so pin them separately.
                    prop_assert_eq!(
                        &baseline.stats, &pinned.stats,
                        "counters moved under {:?} at {:?}", &plan, cadence
                    );
                    prop_assert_eq!(
                        &baseline, &pinned,
                        "covering cadence diverged under {:?} at {:?}", &plan, cadence
                    );
                }
            }
        }
    }

    #[test]
    fn single_shard_unit_cadence_reproduces_serial_on_random_tables(
        table in arbitrary_table_with_missing(),
        seed in 0u64..50,
    ) {
        let n = table.n_rows();
        let serial = fit(&table, |b| b, seed);
        let unit = fit(
            &table,
            |b| {
                b.execution(ExecutionPlan::mini_batch(n))
                    .merge_cadence(MergeCadence::every(1))
            },
            seed,
        );
        // Semantic equality: partitions, κ, trace. The work counters differ
        // by construction (each presentation is a merge step).
        prop_assert_eq!(&serial, &unit, "m = 1 at one shard is not the serial cascade");
    }
}

#[test]
fn covering_cadence_pins_bit_exact_over_the_full_grid() {
    // The exhaustive deterministic grid: every `ExecutionPlan` shape ×
    // every `Reconcile` shape (incl. `Rotate`) × warm start, each compared
    // against the identical builder with the covering cadence.
    let data = nested(240, 7);
    for plan in plans(240) {
        let batch = batch_of(&plan, 240);
        for policy in policies() {
            for warm in [WarmStart::Cold, WarmStart::Carry] {
                let baseline = fit(
                    data.table(),
                    |b| b.execution(plan.clone()).reconcile(Boxed(policy())).warm_start(warm),
                    9,
                );
                let pinned = fit(
                    data.table(),
                    |b| {
                        b.execution(plan.clone())
                            .reconcile(Boxed(policy()))
                            .warm_start(warm)
                            .merge_cadence(MergeCadence::every(batch))
                    },
                    9,
                );
                assert_eq!(baseline.stats, pinned.stats, "counters moved under {plan:?}");
                assert_eq!(baseline, pinned, "covering cadence diverged under {plan:?}");
            }
        }
    }
}

#[test]
fn single_shard_unit_cadence_reproduces_serial_on_the_nested_suite() {
    let data = nested(240, 3);
    for seed in [1u64, 5, 9] {
        let serial = fit(data.table(), |b| b, seed);
        let unit = fit(
            data.table(),
            |b| b.execution(ExecutionPlan::mini_batch(240)).merge_cadence(MergeCadence::every(1)),
            seed,
        );
        assert_eq!(serial, unit, "m = 1 at one shard diverged from serial (seed {seed})");
    }
}

#[test]
fn serial_plans_ignore_the_cadence_knob() {
    let data = nested(240, 5);
    let baseline = fit(data.table(), |b| b, 4);
    let with_knob = fit(data.table(), |b| b.merge_cadence(MergeCadence::every(1)), 4);
    assert_eq!(baseline.stats, with_knob.stats);
    assert_eq!(baseline, with_knob, "a serial plan has no replicas to cadence");
}

#[test]
fn sub_pass_cadence_is_deterministic_per_seed() {
    let data = nested(240, 2);
    for plan in plans(240).into_iter().filter(ExecutionPlan::is_parallel) {
        for every in [1usize, 7, 16] {
            let run = || {
                fit(
                    data.table(),
                    |b| {
                        b.execution(plan.clone())
                            .reconcile(Rotate { period: 2, inner: DeltaMomentum { beta: 0.5 } })
                            .merge_cadence(MergeCadence::every(every))
                    },
                    5,
                )
            };
            let (a, b) = (run(), run());
            assert_eq!(a.stats, b.stats, "counters non-deterministic under {plan:?} m={every}");
            assert_eq!(a, b, "cadence non-deterministic under {plan:?} m={every}");
        }
    }
}

#[test]
fn merges_scale_exactly_with_the_segment_count() {
    // One stage, one pass, 4 shards of 60: the merge count at cadence m
    // must be exactly ⌈n / (m·shards)⌉ × the barrier's single-merge cost,
    // and score_evals must not move (same rows, same k, no faults).
    // This is the growth law the `replicated-cadence` gate suite pins.
    let data = nested(240, 7);
    let plan = ExecutionPlan::mini_batch(60);
    let single_pass = |cadence: MergeCadence| {
        fit(
            data.table(),
            |b| {
                b.execution(plan.clone())
                    .max_inner_iterations(1)
                    .max_stages(1)
                    .merge_cadence(cadence)
            },
            9,
        )
        .stats
    };
    let barrier = single_pass(MergeCadence::per_pass());
    assert!(barrier.merges > 0);
    for m in [60usize, 30, 15, 5, 1] {
        let stats = single_pass(MergeCadence::every(m));
        let segments = 240usize.div_ceil(m * 4) as u64;
        assert_eq!(
            stats.merges,
            segments * barrier.merges,
            "merges must scale with the segment count at m = {m}"
        );
        assert_eq!(
            stats.score_evals, barrier.score_evals,
            "sweep work must not depend on the cadence at m = {m}"
        );
    }
}

#[test]
fn rotate_period_counts_mini_merges() {
    // The satellite fix: `Rotate { period }` ticks once per *merge step*,
    // which under a sub-pass cadence is once per mini-merge — a period-2
    // policy rotates twice in a 4-segment pass, and not at all in a
    // single-pass barrier run. Rotation frequency therefore scales with
    // batch/m by design, never silently.
    let data = nested(240, 7);
    let plan = ExecutionPlan::mini_batch(60); // 4 shards
    let single_pass = |cadence: MergeCadence| {
        fit(
            data.table(),
            |b| {
                b.execution(plan.clone())
                    .reconcile(Rotate { period: 2, inner: DeltaAverage })
                    .max_inner_iterations(1)
                    .max_stages(1)
                    .merge_cadence(cadence)
            },
            9,
        )
        .stats
    };
    // Barrier: one merge step in the whole fit; 1 % 2 != 0, no rotation.
    assert_eq!(single_pass(MergeCadence::per_pass()).rotations, 0);
    // m = 15 over 4 shards of 60: 4 mini-merges, rotations at steps 2 and 4.
    assert_eq!(single_pass(MergeCadence::every(15)).rotations, 2);
    // m = 5: 12 mini-merges, rotations at every even step.
    assert_eq!(single_pass(MergeCadence::every(5)).rotations, 6);
}

#[test]
fn cadence_participates_in_learner_equality() {
    let base = || Mgcpl::builder().execution(ExecutionPlan::mini_batch(60));
    assert_eq!(base().build(), base().merge_cadence(MergeCadence::per_pass()).build());
    assert_eq!(base().build(), base().merge_cadence(MergeCadence::default()).build());
    assert_ne!(base().build(), base().merge_cadence(MergeCadence::every(8)).build());
}
