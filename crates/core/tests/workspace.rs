//! Pass-workspace pins: a warm [`Workspace`] runs a repeat fit without
//! growing a single buffer, and reusing one workspace across fits of
//! different shapes (shrinking tables, changing schemas) returns exactly
//! what a fresh fit does.

use categorical_data::synth::GeneratorConfig;
use mcdc_core::{ExecutionPlan, Mgcpl, Workspace};

#[test]
fn warm_workspace_runs_allocation_free() {
    let data = GeneratorConfig::new("warm", 400, vec![4; 8], 3).noise(0.05).generate(5).dataset;
    // The halo's vote buffers size with the overlap and are reused like
    // every other pass buffer, so the warm-fit guarantee holds with it on.
    let configure: [&dyn Fn(mcdc_core::MgcplBuilder) -> mcdc_core::MgcplBuilder; 3] = [
        &|b| b.execution(ExecutionPlan::Serial),
        &|b| b.execution(ExecutionPlan::mini_batch(100)),
        &|b| b.execution(ExecutionPlan::mini_batch(100)).halo(8),
    ];
    for configure in configure {
        let mgcpl = configure(Mgcpl::builder().seed(2)).build();
        let plan = mgcpl.execution_plan().clone();
        let mut ws = Workspace::new();
        let cold = mgcpl.fit_with(data.table(), &mut ws).unwrap();
        assert!(ws.allocations() > 0, "cold fit must grow the workspace ({plan:?})");
        ws.reset_allocations();
        let warm = mgcpl.fit_with(data.table(), &mut ws).unwrap();
        assert_eq!(cold, warm, "workspace reuse must not change results ({plan:?})");
        assert_eq!(
            ws.allocations(),
            0,
            "warm repeat fit must not grow any workspace buffer ({plan:?})"
        );
        assert_eq!(warm.stats.allocations, 0);
    }
}

#[test]
fn replicated_workspace_survives_shrinking_tables() {
    // Regression: the replica slots' per-cluster member lists grow to the
    // widest k a workspace ever saw and only the first k are cleared per
    // pass. The profile rebuild must not walk the stale high-water tail —
    // reusing a workspace from a wide fit (large table, large k₀) for a
    // narrow fit used to panic on out-of-range row indices.
    let schema_rows = |n: usize, seed: u64| {
        GeneratorConfig::new("shrink", n, vec![4; 6], 3).noise(0.05).generate(seed).dataset
    };
    let wide = schema_rows(2_000, 1);
    let narrow = schema_rows(200, 2);
    let mut ws = Workspace::new();
    let wide_fit =
        Mgcpl::builder().seed(1).initial_k(24).execution(ExecutionPlan::mini_batch(500)).build();
    let narrow_fit =
        Mgcpl::builder().seed(1).initial_k(4).execution(ExecutionPlan::mini_batch(50)).build();
    let a = wide_fit.fit_with(wide.table(), &mut ws).unwrap();
    let b = narrow_fit.fit_with(narrow.table(), &mut ws).unwrap();
    assert_eq!(a, wide_fit.fit(wide.table()).unwrap());
    assert_eq!(b, narrow_fit.fit(narrow.table()).unwrap());
}

#[test]
fn workspace_survives_schema_changes() {
    // Reusing one workspace across fits over different schemas must stay
    // correct (buffers shaped for the old layout are rebuilt, not
    // misused).
    let wide = GeneratorConfig::new("wide", 200, vec![4; 10], 3).noise(0.05).generate(1).dataset;
    let narrow = GeneratorConfig::new("narrow", 150, vec![3; 4], 2).noise(0.05).generate(2).dataset;
    let mut ws = Workspace::new();
    for plan in [ExecutionPlan::Serial, ExecutionPlan::mini_batch(50)] {
        let mgcpl = Mgcpl::builder().seed(1).execution(plan).build();
        let a = mgcpl.fit_with(wide.table(), &mut ws).unwrap();
        let b = mgcpl.fit_with(narrow.table(), &mut ws).unwrap();
        let fresh_a = mgcpl.fit(wide.table()).unwrap();
        let fresh_b = mgcpl.fit(narrow.table()).unwrap();
        assert_eq!(a, fresh_a);
        assert_eq!(b, fresh_b);
    }
}
