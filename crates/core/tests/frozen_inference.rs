//! Contract pins for frozen-model inference (DESIGN.md §9):
//!
//! * the frozen `score_one`/`score_batch` argmax is **identical** to the
//!   live [`score_all`] assignment (first index wins on ties) on random
//!   tables *with MISSING values*, for models fitted under every
//!   `ExecutionPlan` × halo combination and frozen at every granularity;
//! * the full-pipeline `McdcResult::freeze` matches the live kernels the
//!   same way;
//! * the serialized roundtrip is bit-exact: `from_bytes(to_bytes(m)) == m`
//!   at the bit level, and re-serializing reproduces the same bytes;
//! * `score_batch` into a caller-provided buffer with enough capacity
//!   performs no allocation (pointer and capacity pinned).

use categorical_data::{CategoricalTable, Schema, MISSING};
use mcdc_core::{score_all, ClusterProfile, ExecutionPlan, FrozenModel, Mcdc, Mgcpl};
use proptest::prelude::*;

/// Random tables over a uniform 4-value schema where code 4 maps to
/// MISSING, so roughly a fifth of the cells are nulls.
fn arbitrary_table_with_missing() -> impl Strategy<Value = CategoricalTable> {
    (24usize..120, 2usize..6).prop_flat_map(|(n, d)| {
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

fn plans(n: usize) -> Vec<ExecutionPlan> {
    vec![
        ExecutionPlan::Serial,
        ExecutionPlan::mini_batch((n / 3).max(1)),
        ExecutionPlan::mini_batch(n),
        ExecutionPlan::sharded(vec![(0..n).step_by(2).collect(), (1..n).step_by(2).collect()]),
    ]
}

/// The reconciliation halos under test: disjoint shards and a 2-row halo.
const HALOS: [usize; 2] = [0, 2];

fn fit_mgcpl(
    table: &CategoricalTable,
    plan: ExecutionPlan,
    halo: usize,
    seed: u64,
) -> mcdc_core::MgcplResult {
    Mgcpl::builder().seed(seed).execution(plan).halo(halo).build().fit(table).unwrap()
}

/// The live reference: profiles of the partition, [`score_all`] with unit
/// prefactors, first-index argmax — the exact semantics the frozen table
/// compacts.
fn live_argmax(table: &CategoricalTable, partition: &[usize], k: usize, row: &[u32]) -> u32 {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &l) in partition.iter().enumerate() {
        members[l].push(i);
    }
    let profiles: Vec<ClusterProfile> =
        members.iter().map(|m| ClusterProfile::from_members(table, m)).collect();
    live_argmax_profiles(&profiles, row)
}

fn live_argmax_profiles(profiles: &[ClusterProfile], row: &[u32]) -> u32 {
    let k = profiles.len();
    let prefactors = vec![1.0f64; k];
    let mut scores = vec![0.0f64; k];
    score_all(row, profiles, None, &prefactors, None, &mut scores);
    let mut best = 0usize;
    for l in 1..k {
        if scores[l] > scores[best] {
            best = l;
        }
    }
    best as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn frozen_argmax_matches_live_score_all_across_engines_and_policies(
        table in arbitrary_table_with_missing(),
        seed in 0u64..40,
    ) {
        let n = table.n_rows();
        let rows: Vec<&[u32]> = (0..n).map(|i| table.row(i)).collect();
        for plan in plans(n) {
            for halo in HALOS {
                let result = fit_mgcpl(&table, plan.clone(), halo, seed);
                for level in 0..result.sigma() {
                    let frozen = result.freeze_level(&table, level).unwrap();
                    let mut batch = Vec::new();
                    frozen.score_batch(rows.iter().copied(), &mut batch);
                    prop_assert_eq!(batch.len(), n);
                    for (i, row) in rows.iter().enumerate() {
                        let live = live_argmax(
                            &table, &result.partitions[level], result.kappa[level], row,
                        );
                        let one = frozen.score_one(row);
                        prop_assert_eq!(
                            one, live,
                            "frozen/live divergence at row {} level {} under plan {:?}",
                            i, level, plan
                        );
                        prop_assert_eq!(batch[i], one, "score_batch disagrees with score_one");
                    }
                }
            }
        }
    }

    #[test]
    fn serde_roundtrip_is_bit_exact(
        table in arbitrary_table_with_missing(),
        seed in 0u64..40,
    ) {
        let result = Mgcpl::builder().seed(seed).build().fit(&table).unwrap();
        let frozen = result.freeze(&table).unwrap();
        let bytes = frozen.to_bytes();
        let back = FrozenModel::from_bytes(&bytes).unwrap();
        // Bit-exact at the value level (FrozenModel's Eq compares f64 bit
        // patterns) and at the byte level.
        prop_assert_eq!(&back, &frozen);
        prop_assert_eq!(back.to_bytes(), bytes);
        // And the deserialized model scores identically.
        for i in 0..table.n_rows() {
            prop_assert_eq!(back.score_one(table.row(i)), frozen.score_one(table.row(i)));
        }
    }

    #[test]
    fn pipeline_freeze_matches_live_final_assignment(
        table in arbitrary_table_with_missing(),
        seed in 0u64..40,
    ) {
        let k = 3.min(table.n_rows());
        let result = Mcdc::builder().seed(seed).build().fit(&table, k).unwrap();
        let frozen = result.freeze(&table).unwrap();
        prop_assert_eq!(frozen.k(), k);
        for i in 0..table.n_rows() {
            let live = live_argmax(&table, result.labels(), k, table.row(i));
            prop_assert_eq!(frozen.score_one(table.row(i)), live, "row {}", i);
        }
    }
}

#[test]
fn score_batch_with_reserved_buffer_allocates_nothing() {
    let mut table = CategoricalTable::new(Schema::uniform(6, 4));
    for i in 0..200u32 {
        let row: Vec<u32> =
            (0..6).map(|r| if (i + r) % 11 == 0 { MISSING } else { (i + r) % 4 }).collect();
        table.push_row(&row).unwrap();
    }
    let result = Mgcpl::builder().seed(3).build().fit(&table).unwrap();
    let frozen = result.freeze(&table).unwrap();
    let rows: Vec<&[u32]> = (0..table.n_rows()).map(|i| table.row(i)).collect();
    let mut out: Vec<u32> = Vec::with_capacity(rows.len());
    let (ptr, cap) = (out.as_ptr(), out.capacity());
    for _ in 0..3 {
        frozen.score_batch(rows.iter().copied(), &mut out);
        assert_eq!(out.len(), rows.len());
        assert_eq!(out.as_ptr(), ptr, "score_batch reallocated the caller's buffer");
        assert_eq!(out.capacity(), cap, "score_batch grew the caller's buffer");
    }
}

/// Load-path corruption coverage: every malformed image must come back as
/// `McdcError::CorruptModel` — never a panic, never a bogus model. The
/// corruptions are expressed as byte-level mutations of a valid image so
/// the test exercises the real wire format, not a mock.
#[test]
fn from_bytes_rejects_corrupted_images_without_panicking() {
    let mut table = CategoricalTable::new(Schema::uniform(3, 4));
    for i in 0..40u32 {
        let row: Vec<u32> = (0..3).map(|r| (i * 5 + r * 2) % 4).collect();
        table.push_row(&row).unwrap();
    }
    let frozen = Mgcpl::builder().seed(2).build().fit(&table).unwrap().freeze(&table).unwrap();
    let bytes = frozen.to_bytes();
    // Layout: magic(4) version(4) k(4) d(4) post_scale(8) offsets((d+1)*4)
    // prefactors(k*8) table(total*k_pad*8).
    let d = frozen.n_features();
    let offsets_at = 4 + 4 + 4 + 4 + 8;
    let prefactors_at = offsets_at + (d + 1) * 4;
    let last_offset_at = offsets_at + d * 4;
    let first_prefactor_at = prefactors_at;
    let first_table_entry_at = prefactors_at + frozen.k() * 8;

    type Corruption = Box<dyn Fn(&mut Vec<u8>)>;
    let corruptions: Vec<(&str, Corruption)> = vec![
        ("truncated header", Box::new(|b: &mut Vec<u8>| b.truncate(10))),
        ("empty image", Box::new(|b: &mut Vec<u8>| b.clear())),
        ("bad magic", Box::new(|b: &mut Vec<u8>| b[0] ^= 0xFF)),
        ("unsupported version", Box::new(|b: &mut Vec<u8>| b[4] = 0xFE)),
        (
            "out-of-bounds CSR offset",
            Box::new(move |b: &mut Vec<u8>| {
                // Inflate the final prefix sum far past the payload: the
                // loader must reject by length reconciliation, not attempt
                // the giant allocation the offset implies.
                b[last_offset_at..last_offset_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }),
        ),
        (
            "non-monotonic CSR offsets",
            Box::new(move |b: &mut Vec<u8>| {
                b[last_offset_at..last_offset_at + 4].copy_from_slice(&0u32.to_le_bytes());
            }),
        ),
        (
            "NaN prefactor",
            Box::new(move |b: &mut Vec<u8>| {
                b[first_prefactor_at..first_prefactor_at + 8]
                    .copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
            }),
        ),
        (
            "NaN table entry",
            Box::new(move |b: &mut Vec<u8>| {
                b[first_table_entry_at..first_table_entry_at + 8]
                    .copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
            }),
        ),
        (
            "infinite table entry",
            Box::new(move |b: &mut Vec<u8>| {
                b[first_table_entry_at..first_table_entry_at + 8]
                    .copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
            }),
        ),
        ("trailing bytes", Box::new(|b: &mut Vec<u8>| b.push(0))),
        ("truncated table", Box::new(|b: &mut Vec<u8>| b.truncate(b.len() - 8))),
    ];
    for (name, corrupt) in corruptions {
        let mut image = bytes.clone();
        corrupt(&mut image);
        assert_ne!(image, bytes, "{name}: the corruption must actually change the image");
        match FrozenModel::from_bytes(&image) {
            Err(mcdc_core::McdcError::CorruptModel { message }) => {
                assert!(!message.is_empty(), "{name}: the error must name the invariant");
            }
            other => panic!("{name}: expected CorruptModel, got {other:?}"),
        }
    }
    // The untouched image still loads — the corruptions above are the only
    // thing standing between these bytes and a valid model.
    assert_eq!(FrozenModel::from_bytes(&bytes).unwrap(), frozen);
}

#[test]
fn save_load_roundtrips_through_disk() {
    let mut table = CategoricalTable::new(Schema::uniform(4, 3));
    for i in 0..60u32 {
        let row: Vec<u32> = (0..4).map(|r| (i * 7 + r * 3) % 3).collect();
        table.push_row(&row).unwrap();
    }
    let frozen = Mgcpl::builder().seed(5).build().fit(&table).unwrap().freeze(&table).unwrap();
    let path = std::env::temp_dir().join("mcdc_frozen_roundtrip.mfrz");
    frozen.save(&path).unwrap();
    let back = FrozenModel::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, frozen);
    assert_eq!(back.to_bytes(), frozen.to_bytes());
}
