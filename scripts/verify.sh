#!/usr/bin/env bash
# Tier-1 verification gate plus style/lint hygiene. Run from anywhere.
#
#   scripts/verify.sh           # build + tests + fmt + clippy + docs + perf smoke
#
# The tier-1 gate (ROADMAP.md) is `cargo build --release && cargo test -q`;
# fmt/clippy keep the tree warning-free, the rustdoc build (warnings
# denied) + doctests keep the documented API contracts honest, and the
# perf-smoke step (`hotpath_snapshot --quick`, n = 10k) fails on
# panics/NaN medians and on CAME's dirty tracking never skipping a
# rescan — so perf regressions surface immediately too. The inference smoke
# (`infer_hotpath --quick`) times the frozen-model serving path on three
# shapes and fails on panics/NaN medians, on frozen/live argmax parity
# breaking on the pinned seed, or on the frozen kernels losing to the
# live `score_all` path they compact. The reconcile smoke
# (`reconcile_ablation --quick`) runs a tiny grid of the halo
# significance harness (DESIGN.md §5) and fails on panics, non-finite
# metrics, or a halo arm whose score evaluations do not exceed its
# disjoint twin's (the halo path never ran). The chaos smoke (`fault_chaos --quick`) runs the fault arms
# (retry, quarantine, probabilistic chaos) on a small grid and fails on
# panics, non-finite metrics, a chaos arm that never injects a failure,
# a retry arm that diverges from the clean labels, or a quarantined fit
# dropping more than 0.05 mean ACC below clean; its ingest axis
# (DESIGN.md §11) replays seeded row corruption (arity truncation,
# out-of-domain codes, MISSING flooding) through the streaming
# `try_absorb` boundary under every UnseenPolicy and fails on panics,
# on rejection/quarantine/coercion counters that never fire, or on a
# replay whose admissions or health transitions are not bit-identical
# per seed. The conformance steps
# (DESIGN.md §10) replay seeded random tables through the
# `mcdc-reference` oracle across the full execution grid
# (`conformance --quick`) and check the deterministic work counters
# against the `PERF_GATES.toml` baselines, self-testing that the gate
# still has teeth (`conformance --gate`); re-baseline deliberate
# changes with scripts/update_gates.sh. The benchmark smoke runs every
# `perfbench` workload for one second as a correctness check: its exit code
# is checked (a wrong label, a frozen-artifact bytes round-trip or a
# quarantine check that fails exits non-zero) and its numbers are ignored.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo test --doc -q"
cargo test --doc -q

echo "==> perf smoke (hotpath_snapshot --quick)"
cargo run --release -p mcdc-bench --bin hotpath_snapshot -- --quick

echo "==> inference smoke (infer_hotpath --quick)"
cargo run --release -p mcdc-bench --bin infer_hotpath -- --quick

echo "==> reconcile smoke (reconcile_ablation --quick)"
cargo run --release -p mcdc-bench --bin reconcile_ablation -- --quick

echo "==> chaos smoke (fault_chaos --quick)"
cargo run --release -p mcdc-bench --bin fault_chaos -- --quick

echo "==> conformance replay (conformance --quick)"
cargo run --release -p mcdc-bench --bin conformance -- --quick

echo "==> counter gates (conformance --gate)"
cargo run --release -p mcdc-bench --bin conformance -- --gate

echo "==> benchmark smoke (perfbench, 1 s per workload)"
env MALLOC_ARENA_MAX=1 cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 1 --seconds 1 --trace 0

echo "verify: OK"
