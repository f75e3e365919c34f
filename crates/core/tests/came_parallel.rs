//! CAME's rayon-parallel paths (chunked assignment, per-chunk mode
//! counting, per-chunk θ agreement counting) must be *exact*: on a 10k-row
//! synthetic multi-granular encoding, the parallel run yields labels — and
//! the whole result — identical to the serial sweep.
//!
//! `force_chunking` pins the chunked paths open even when the rayon pool
//! has a single worker (where `fit` otherwise falls back to the serial
//! sweep, DESIGN.md §3) so the chunk-boundary bookkeeping is exercised on
//! single-core CI too.

use categorical_data::synth::GeneratorConfig;
use mcdc_core::{encode_partitions, Came, CameInit, ExecutionPlan};
use mcdc_reference::reference_came;

#[test]
fn parallel_assignment_matches_serial_on_10k_rows() {
    // A 10k-object nested data set: the generator's coarse (3 classes) and
    // fine (6 sub-clusters) labels form a two-granularity Γ encoding, the
    // same shape MGCPL hands CAME. 10k rows is past the parallel gate, so
    // the chunked code paths genuinely run.
    let out =
        GeneratorConfig::new("par", 10_000, vec![4; 8], 3).subclusters(2).noise(0.1).generate(17);
    let fine = out.fine_labels.clone();
    let coarse = out.dataset.labels().to_vec();
    let encoding = encode_partitions(&[fine, coarse]).expect("valid partitions");

    for k in [2usize, 3, 5] {
        let parallel = Came::builder()
            .execution(ExecutionPlan::mini_batch(2_500))
            .force_chunking(true)
            .build()
            .fit(&encoding, k)
            .unwrap();
        let serial =
            Came::builder().execution(ExecutionPlan::Serial).build().fit(&encoding, k).unwrap();
        assert_eq!(parallel.labels(), serial.labels(), "labels diverged at k={k}");
        assert_eq!(parallel, serial, "full results diverged at k={k}");
    }
}

#[test]
fn parallel_random_init_also_matches_serial() {
    let out =
        GeneratorConfig::new("par", 9_000, vec![3; 6], 2).subclusters(3).noise(0.15).generate(23);
    let fine = out.fine_labels.clone();
    let coarse = out.dataset.labels().to_vec();
    let encoding = encode_partitions(&[fine, coarse]).expect("valid partitions");

    let build = |plan: ExecutionPlan| {
        Came::builder()
            .init(CameInit::RandomObjects)
            .seed(5)
            .execution(plan)
            .force_chunking(true)
            .build()
            .fit(&encoding, 4)
            .unwrap()
    };
    assert_eq!(build(ExecutionPlan::mini_batch(1_000)), build(ExecutionPlan::Serial));
}

#[test]
fn chunked_lazy_tracking_matches_serial_eager() {
    // Dirty-cluster tracking must stay exact through the chunked path:
    // chunked, serial, and the reference oracle's full scan all agree bit
    // for bit on labels, θ and iteration count.
    let out =
        GeneratorConfig::new("par", 9_000, vec![4; 8], 3).subclusters(2).noise(0.2).generate(31);
    let fine = out.fine_labels.clone();
    let coarse = out.dataset.labels().to_vec();
    let encoding = encode_partitions(&[fine, coarse]).expect("valid partitions");

    let bits = |theta: &[f64]| theta.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    for k in [2usize, 4] {
        let reference = reference_came(&encoding, k, true, 0).unwrap();
        let serial =
            Came::builder().execution(ExecutionPlan::Serial).build().fit(&encoding, k).unwrap();
        let chunked = Came::builder()
            .execution(ExecutionPlan::mini_batch(1_500))
            .force_chunking(true)
            .build()
            .fit(&encoding, k)
            .unwrap();
        for (name, came) in [("serial", &serial), ("chunked", &chunked)] {
            assert_eq!(came.labels(), reference.labels.as_slice(), "{name} labels at k={k}");
            assert_eq!(bits(came.theta()), bits(&reference.theta), "{name} θ at k={k}");
            assert_eq!(came.iterations(), reference.iterations, "{name} iterations at k={k}");
        }
    }
}
