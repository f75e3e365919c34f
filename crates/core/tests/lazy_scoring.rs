//! Exactness pins for CAME's dirty-cluster tracking (DESIGN.md §3 "Lazy
//! scoring"):
//!
//! * CAME, which always tracks dirty clusters, reproduces the reference
//!   oracle's full-scan aggregation (`mcdc-reference`) — labels, θ and
//!   iteration count — **bit-exactly**, property-tested over Γ encodings
//!   of random tables *with MISSING values*;
//! * every row of every iteration is accounted for as either a full
//!   rescan or a skip;
//! * the tracking genuinely fires: multi-iteration fits skip a positive
//!   number of rescans.

use categorical_data::synth::GeneratorConfig;
use categorical_data::{CategoricalTable, Schema, MISSING};
use mcdc_core::{encode_partitions, Came, CameResult, Mgcpl};
use mcdc_reference::reference_came;
use proptest::prelude::*;

/// Random tables over a uniform 4-value schema where code 4 maps to
/// MISSING, so roughly a fifth of the cells are nulls.
fn arbitrary_table_with_missing() -> impl Strategy<Value = CategoricalTable> {
    (24usize..140, 2usize..6).prop_flat_map(|(n, d)| {
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

/// Asserts `came` equals the reference full-scan aggregation of the same
/// encoding on labels, θ (bit for bit) and iteration count.
fn assert_matches_reference(came: &CameResult, encoding: &CategoricalTable, k: usize, seed: u64) {
    let reference = reference_came(encoding, k, true, seed).unwrap();
    assert_eq!(came.labels(), reference.labels.as_slice(), "labels diverged at k={k}");
    let bits = |theta: &[f64]| theta.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(came.theta()), bits(&reference.theta), "θ diverged at k={k}");
    assert_eq!(came.iterations(), reference.iterations, "iterations diverged at k={k}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lazy_came_is_bit_exact_with_eager(
        table in arbitrary_table_with_missing(),
        seed in 0u64..40,
        k in 2usize..5,
    ) {
        // Build a plausible Γ encoding from an MGCPL run over the table.
        let mgcpl = Mgcpl::builder().seed(seed).build().fit(&table).unwrap();
        let encoding = encode_partitions(&mgcpl.partitions).unwrap();
        let k = k.min(encoding.n_rows());
        let came = Came::builder().seed(seed).build().fit(&encoding, k).unwrap();
        assert_matches_reference(&came, &encoding, k, seed);
        prop_assert_eq!(
            came.stats().full_rescans + came.stats().skipped_rescans,
            (encoding.n_rows() * came.iterations()) as u64,
            "CAME must account for every row scan"
        );
    }
}

#[test]
fn came_dirty_tracking_skips_on_multi_iteration_fits() {
    let out = GeneratorConfig::new("lazy-came", 2_000, vec![4; 8], 3)
        .subclusters(2)
        .noise(0.15)
        .generate(7);
    let fine = out.fine_labels.clone();
    let coarse = out.dataset.labels().to_vec();
    let encoding = encode_partitions(&[fine, coarse]).unwrap();
    let came = Came::builder().build().fit(&encoding, 3).unwrap();
    assert_matches_reference(&came, &encoding, 3, 0);
    if came.iterations() > 1 {
        assert!(
            came.stats().skipped_rescans > 0,
            "multi-iteration CAME skipped nothing: {:?}",
            came.stats()
        );
    }
}
