//! Tier-1 slice of the conformance harness (DESIGN.md §10): a handful of
//! fuzz seeds through the full grid, a direct bit-exactness probe of the
//! exact tier against the `mcdc-reference` oracle, and determinism of the
//! perf-gate counter suites. The full-breadth runs live in the
//! `conformance` binary (`--quick` / `--gate`, wired into
//! `scripts/verify.sh`).

use categorical_data::synth::GeneratorConfig;
use categorical_data::MISSING;
use mcdc_bench::conformance::{
    compare_counters, gate_suites, measure_suite, random_table, replay_table, run_reference,
};
use mcdc_core::{ExecutionPlan, Mcdc};
use mcdc_reference::{reference_mcdc, ReferenceConfig};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn fuzz_seeds_conform_across_the_grid() {
    for seed in 1..=6u64 {
        let divergences = replay_table(seed);
        assert!(divergences.is_empty(), "seed {seed} diverged: {divergences:?}");
    }
}

/// The exact tier, probed directly: serial and the one-batch replicated
/// plan must reproduce the oracle's partitions, κ, Θ, and labels bit-for-bit — including on a
/// table with injected MISSING values.
#[test]
fn exact_tier_matches_the_oracle_bit_for_bit() {
    let n = 200;
    let k = 3;
    let seed = 9u64;
    let data =
        GeneratorConfig::new("smoke", n, vec![5, 3, 4, 4, 2, 6, 4, 4], k).noise(0.1).generate(seed);
    let mut table = data.dataset.table().clone();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xDEAD);
    let mut row = Vec::new();
    for i in 0..n {
        row.clear();
        row.extend_from_slice(table.row(i));
        let mut dirty = false;
        for v in row.iter_mut() {
            if rng.gen_bool(0.08) {
                *v = MISSING;
                dirty = true;
            }
        }
        if dirty {
            table.replace_row(i, &row).unwrap();
        }
    }

    let check = |tag: &str, builder: mcdc_core::McdcBuilder, config: ReferenceConfig| {
        let optimized = builder.build().fit(&table, k).unwrap();
        let oracle = reference_mcdc(&table, k, &config).unwrap();
        assert_eq!(oracle.mgcpl.kappa, optimized.mgcpl().kappa, "{tag}: κ");
        assert_eq!(oracle.mgcpl.partitions, optimized.mgcpl().partitions, "{tag}: partitions");
        assert_eq!(oracle.came.theta, optimized.came().theta(), "{tag}: Θ");
        assert_eq!(oracle.labels, optimized.labels(), "{tag}: labels");
    };
    check("serial", Mcdc::builder().seed(seed), ReferenceConfig { seed, ..Default::default() });
    check(
        "batch-n",
        Mcdc::builder().seed(seed).execution(ExecutionPlan::mini_batch(n)),
        ReferenceConfig { seed, ..Default::default() },
    );
    check(
        "serial-k0",
        Mcdc::builder().seed(seed).initial_k(17),
        ReferenceConfig { seed, initial_k: Some(17), ..Default::default() },
    );
}

#[test]
fn fuzz_tables_are_reproducible_from_the_seed() {
    let (spec_a, table_a) = random_table(42);
    let (spec_b, table_b) = random_table(42);
    assert_eq!(spec_a, spec_b);
    assert_eq!(table_a, table_b);
    // And the oracle over them is deterministic too.
    let left = run_reference(&table_a, spec_a.k, spec_a.initial_k, 42);
    let right = run_reference(&table_b, spec_b.k, spec_b.initial_k, 42);
    assert_eq!(left.labels, right.labels);
}

/// The perf-gate counters are machine-independent and schedule-independent:
/// two measurements of the same suite must agree exactly, and the measured
/// counters trivially pass a gate baselined on themselves.
#[test]
fn gate_counters_are_deterministic() {
    let suite =
        gate_suites().into_iter().find(|s| s.name == "serial").expect("self-test anchor suite");
    let first = measure_suite(&suite);
    let second = measure_suite(&suite);
    assert_eq!(first, second);
    assert!(first.score_evals > 0);
    assert!(first.skipped_rescans > 0, "CAME's dirty tracking must skip rescans in the suite");
    assert_eq!(first.merges, 0, "serial plans never merge");
    assert_eq!(compare_counters("serial", &first, &second, 0.05), Ok(vec![]));
}

/// The replicated suite exercises the merge counter.
#[test]
fn replicated_suite_counts_merges() {
    let suite = gate_suites().into_iter().find(|s| s.batch > 0).expect("a replicated suite");
    let counters = measure_suite(&suite);
    assert!(counters.merges > 0, "replicated plans must count profile merges");
}
