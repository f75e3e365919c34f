//! MGCPL + CAME: the MCDC categorical clustering pipeline.
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`Mgcpl`] — **M**ulti-**G**ranular **C**ompetitive **P**enalization
//!   **L**earning (Algorithm 1): rival-penalized competitive learning over
//!   cluster frequency profiles that converges in stages, emitting one
//!   partition per natural cluster granularity (`κ`, `Γ`).
//! * [`Came`] — **C**luster **A**ggregation based on **M**GCPL **E**ncoding
//!   (Algorithm 2): feature-weighted k-modes over the Γ encoding.
//! * [`Mcdc`] — the end-to-end pipeline, plus [`run_ablation`] for the
//!   MCDC₁–MCDC₄ ladder of Fig. 4 and [`CompetitiveLearning`] (Section II-B).
//!
//! Beyond the paper, the crate scales the method out and keeps it honest
//! while doing so:
//!
//! * [`ExecutionPlan`] — the pluggable execution engine (serial /
//!   mini-batch / sharded replica-merge parallelism) driving MGCPL, CAME,
//!   and the streaming re-fit through one builder knob (DESIGN.md §4);
//!   Replicated passes reconcile under one rule — exact profile merge,
//!   span-size-weighted δ average, cold re-launch per stage — with one
//!   knob, the shard-overlap [`halo`](MgcplBuilder::halo) (DESIGN.md §5);
//! * [`FaultPlan`] — deterministic, seeded fault injection with graceful
//!   degradation: quarantined replicas, bounded retries, survivor
//!   re-weighting, and poisoned-δ rejection (DESIGN.md §8);
//! * [`StreamingMcdc`] — online absorption with drift-triggered re-fits
//!   over a bounded reservoir, rolling back re-fits that degrade below a
//!   survivor quorum; its `try_absorb`/`try_serve_*` boundary validates
//!   untrusted rows under an [`UnseenPolicy`] and exposes a
//!   [`ServingHealth`] state machine with exponential re-fit backoff
//!   (DESIGN.md §11);
//! * [`FrozenModel`] — fitted models compacted into read-only, cache-dense
//!   scoring tables for the serving hot path: `score_one`/`score_batch`
//!   match the live kernels' argmax bit for bit, and the versioned
//!   save/load roundtrip is bit-exact (DESIGN.md §9);
//! * [`Workspace`] / [`WorkspacePool`] — reusable pass-scratch arenas:
//!   `fit_with` runs repeated fits allocation-free once warm, and
//!   [`HotPathStats`] reports per-fit score evaluations, CAME's
//!   dirty-tracking skip rate and workspace growth (DESIGN.md §3).
//!
//! # Quickstart
//!
//! ```
//! use categorical_data::synth::GeneratorConfig;
//! use mcdc_core::Mcdc;
//!
//! let data = GeneratorConfig::new("demo", 200, vec![4; 8], 3)
//!     .noise(0.05)
//!     .generate(7)
//!     .dataset;
//! let result = Mcdc::builder().seed(1).build().fit(data.table(), 3)?;
//! println!("granularities found: {:?}", result.mgcpl().kappa);
//! # Ok::<(), mcdc_core::McdcError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The clustering inner loops walk an index across several parallel
// structures (labels, profiles, and table rows); the iterator rewrite the
// lint suggests would zip three sources and obscure the access pattern.
#![allow(clippy::needless_range_loop)]

mod ablation;
mod active;
mod came;
mod competitive;
mod encoding;
mod error;
mod execution;
mod fault;
mod frozen;
mod mgcpl;
mod pipeline;
mod profile;
mod streaming;
mod trace;
pub mod weights;
mod workspace;

pub use ablation::{run_ablation, AblationVariant};
pub use active::{LabelQuery, LabelingPlan};
pub use came::{Came, CameBuilder, CameInit, CameResult};
pub use competitive::{CompetitiveLearning, CompetitiveResult};
pub use encoding::{encode_mgcpl, encode_partitions};
pub use error::McdcError;
pub use execution::ExecutionPlan;
pub use fault::{DeltaFault, FaultPlan, IngestFault, ReplicaFault};
pub use frozen::FrozenModel;
pub use mgcpl::{Mgcpl, MgcplBuilder, MgcplResult};
pub use pipeline::{Mcdc, McdcBuilder, McdcResult};
pub use profile::{score_all, score_all_transposed, ClusterProfile};
pub use streaming::{
    Admission, HealthState, IngestStats, MgcplResultSummary, ServingHealth, StreamingMcdc,
    UnseenPolicy,
};
pub use trace::{HotPathStats, LearningTrace, StageRecord};
pub use workspace::{PooledWorkspace, Workspace, WorkspacePool};
