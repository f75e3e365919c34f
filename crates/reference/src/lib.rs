//! The *reference* MCDC: a slow, obviously-correct transcription of the
//! paper's pseudocode (MGCPL, Alg. 1; CAME, Alg. 2), kept deliberately free
//! of every optimization the production tree carries — no CSR profiles, no
//! SoA cohort, no fused or value-major scoring kernels, no dirty tracking, no
//! replica-merge execution. Nested `Vec`s, textbook per-attribute
//! similarity, one object at a time.
//!
//! The crate exists as the independent oracle for the differential
//! conformance harness (`conformance` bin in `mcdc-bench`, DESIGN.md §10):
//! the optimized tree's serial configurations must reproduce this
//! implementation's partitions bit for bit, so a shared misreading of the
//! paper in the optimized kernels cannot silently pass the test suite.
//!
//! Two disciplines keep the oracle honest *and* comparable:
//!
//! 1. **Structural independence** — every data structure and loop here is
//!    written from the paper's equations, not ported from `mcdc-core`.
//! 2. **Decision-level arithmetic parity** — where an equation leaves
//!    floating-point freedom (association of a mean, reciprocal versus
//!    division), this crate evaluates the *same scalar expression shapes*
//!    the optimized kernels document (`prefactor * (acc * post_scale)`,
//!    `w * (count * (1/present))`, ascending-feature accumulation), so an
//!    argmax tie broken one way here and the other way there is a real
//!    semantic divergence, never an ulp artifact. See DESIGN.md §10
//!    "Conformance & gating".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod came;
mod mgcpl;
mod profile;

pub use came::{reference_came, ReferenceCame};
pub use mgcpl::{reference_mgcpl, ReferenceMgcpl};
pub use profile::{
    feature_weights, inter_cluster_difference, intra_cluster_compactness, GlobalCounts, Profile,
};

use categorical_data::{CategoricalTable, FeatureDomain, Schema};

/// Configuration of a reference run: the subset of the paper's knobs the
/// optimized pipeline's *serial* configurations can map onto.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceConfig {
    /// Learning rate `η` of Eqs. (12)–(13). Paper default 0.03.
    pub learning_rate: f64,
    /// Initial cluster count `k₀`; `None` = the paper's `√n` heuristic.
    pub initial_k: Option<usize>,
    /// ω feature weighting in MGCPL (Eqs. 14–18). Paper default on.
    pub weighted_similarity: bool,
    /// θ feature weighting in CAME (Eqs. 21–22). Paper default on.
    pub came_weighted: bool,
    /// Seed for the two randomized choices (MGCPL seeding, per-pass
    /// presentation order; CAME's random-init fallback).
    pub seed: u64,
}

impl Default for ReferenceConfig {
    fn default() -> Self {
        ReferenceConfig {
            learning_rate: 0.03,
            initial_k: None,
            weighted_similarity: true,
            came_weighted: true,
            seed: 0,
        }
    }
}

/// Output of the full reference pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceMcdc {
    /// Final `k`-cluster labels (CAME over the Γ encoding).
    pub labels: Vec<usize>,
    /// The MGCPL stage output (multi-granular partitions + κ).
    pub mgcpl: ReferenceMgcpl,
    /// The CAME stage output (labels, θ, iteration count).
    pub came: ReferenceCame,
}

/// Runs the full reference pipeline: MGCPL (Alg. 1) → Γ encoding → CAME
/// (Alg. 2), partitioning `table` into `k` clusters.
///
/// # Errors
///
/// Returns a description of the invalid input (empty table, `k` out of
/// `1..=n`, configured `k₀` out of `1..=n`).
pub fn reference_mcdc(
    table: &CategoricalTable,
    k: usize,
    config: &ReferenceConfig,
) -> Result<ReferenceMcdc, String> {
    let mgcpl = reference_mgcpl(table, config)?;
    let encoding = encode_granularities(&mgcpl.partitions, &mgcpl.kappa)?;
    let came = reference_came(&encoding, k, config.came_weighted, config.seed)?;
    Ok(ReferenceMcdc { labels: came.labels.clone(), mgcpl, came })
}

/// Builds the Γ encoding of the multi-granular partitions: object `i`'s
/// value in feature `j` is its cluster label in granularity `j` (finest
/// first). Degenerate single-cluster granularities carry no affiliation
/// information and are dropped; when every granularity is degenerate one is
/// kept so the encoding is never empty.
///
/// # Errors
///
/// Returns an error when `partitions` is empty or ragged.
pub fn encode_granularities(
    partitions: &[Vec<usize>],
    kappa: &[usize],
) -> Result<CategoricalTable, String> {
    if partitions.is_empty() || partitions[0].is_empty() {
        return Err("no partitions to encode".into());
    }
    let n = partitions[0].len();
    if partitions.iter().any(|p| p.len() != n) {
        return Err("ragged partitions".into());
    }
    let informative: Vec<&Vec<usize>> =
        partitions.iter().zip(kappa).filter(|(_, &kj)| kj >= 2).map(|(p, _)| p).collect();
    let kept: Vec<&Vec<usize>> =
        if informative.is_empty() { vec![&partitions[0]] } else { informative };
    let domains: Vec<FeatureDomain> = kept
        .iter()
        .enumerate()
        .map(|(j, labels)| {
            let width = labels.iter().copied().max().unwrap_or(0) + 1;
            FeatureDomain::anonymous(format!("granularity{j}"), width as u32)
        })
        .collect();
    let mut encoding = CategoricalTable::new(Schema::new(domains));
    let mut row: Vec<u32> = Vec::with_capacity(kept.len());
    for i in 0..n {
        row.clear();
        row.extend(kept.iter().map(|labels| labels[i] as u32));
        encoding.push_row(&row).map_err(|e| e.to_string())?;
    }
    Ok(encoding)
}

/// Shannon entropy (nats) of a partition's cluster-size distribution,
/// computed as `H = ln n − (Σ c·ln c)/n` over the per-label counts in
/// ascending label order — the same count-stream form the data layer uses,
/// so cross-implementation entropy checks can demand exact equality.
pub fn partition_entropy(labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let k = labels.iter().copied().max().unwrap_or(0) + 1;
    let mut counts = vec![0u64; k];
    for &l in labels {
        counts[l] += 1;
    }
    let mut total = 0u64;
    let mut weighted_log = 0.0f64;
    for &c in &counts {
        if c > 0 {
            total += c;
            weighted_log += c as f64 * (c as f64).ln();
        }
    }
    let n = total as f64;
    (n.ln() - weighted_log / n).max(0.0)
}

/// Number of distinct labels in a partition — the `κ_j` a granularity's
/// label vector implies, for consistency checks against the recorded κ.
pub fn distinct_labels(labels: &[usize]) -> usize {
    let mut seen: Vec<bool> = Vec::new();
    for &l in labels {
        if l >= seen.len() {
            seen.resize(l + 1, false);
        }
        seen[l] = true;
    }
    seen.iter().filter(|&&s| s).count()
}

/// The rival-penalized sigmoid weight `u = 1 / (1 + e^{−10δ + 5})` of
/// Eq. (11): ≈0 at δ = 0, ½ at δ = ½, ≈1 at δ = 1.
pub fn sigmoid_weight(delta: f64) -> f64 {
    1.0 / (1.0 + (-10.0 * delta + 5.0).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_midpoint_and_saturation_match_eq_11() {
        // Worked quantities of Eq. (11): u(1/2) = 1/2 exactly by symmetry;
        // the endpoints saturate to u(0) = 1/(1+e^5), u(1) = 1/(1+e^-5).
        assert!((sigmoid_weight(0.5) - 0.5).abs() < 1e-12);
        assert!((sigmoid_weight(0.0) - 1.0 / (1.0 + 5.0f64.exp())).abs() < 1e-15);
        assert!((sigmoid_weight(1.0) - 1.0 / (1.0 + (-5.0f64).exp())).abs() < 1e-15);
        assert!(sigmoid_weight(0.0) < 0.01 && sigmoid_weight(1.0) > 0.99);
    }

    #[test]
    fn entropy_of_balanced_binary_partition_is_ln2() {
        assert!((partition_entropy(&[0, 1, 0, 1]) - (2.0f64).ln()).abs() < 1e-15);
        assert_eq!(partition_entropy(&[0, 0, 0]), 0.0);
        assert_eq!(partition_entropy(&[]), 0.0);
    }

    #[test]
    fn entropy_of_skewed_partition_matches_hand_computation() {
        // Counts (3, 1): H = ln 4 − (3·ln 3 + 1·ln 1)/4.
        let expected = (4.0f64).ln() - 3.0 * (3.0f64).ln() / 4.0;
        assert!((partition_entropy(&[0, 0, 0, 1]) - expected).abs() < 1e-15);
    }

    #[test]
    fn distinct_labels_counts_every_label_once() {
        assert_eq!(distinct_labels(&[0, 2, 2, 1]), 3);
        assert_eq!(distinct_labels(&[5]), 1);
        assert_eq!(distinct_labels(&[]), 0);
    }

    #[test]
    fn encoding_is_columnwise_and_drops_degenerate_granularities() {
        let fine = vec![0usize, 1, 0];
        let constant = vec![0usize, 0, 0];
        let encoding = encode_granularities(&[fine.clone(), constant.clone()], &[2, 1]).unwrap();
        assert_eq!(encoding.n_features(), 1, "single-cluster granularity must be dropped");
        assert_eq!(encoding.row(1), &[1]);
        let all_degenerate = encode_granularities(&[constant], &[1]).unwrap();
        assert_eq!(all_degenerate.n_features(), 1, "never encode zero features");
    }
}
