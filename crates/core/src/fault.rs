//! Deterministic, seeded fault injection for the replicated execution
//! engine (DESIGN.md §8).
//!
//! A [`FaultPlan`] is a *pure* description of an adversarial schedule:
//! given a merge step, a shard index, and an attempt number it answers
//! "does this replica execution fail, straggle, or run clean?" and "is
//! this replica's merge δ corrupted or dropped in transit?". The answers
//! are derived by hashing the plan's seed with the probe coordinates
//! (SplitMix64 finalizer), so they are:
//!
//! * **replayable** — the same plan produces the same faults on every
//!   run, machine, and thread schedule (no wall clock, no global RNG);
//! * **schedule-independent** — each `(step, shard, attempt)` coordinate
//!   draws its own hash, so the verdict for one replica never depends on
//!   how the thread pool interleaved the others;
//! * **composable** — probabilistic rates and explicitly targeted events
//!   (`fail_replica`, `corrupt_delta`, …) coexist in one plan.
//!
//! [`FaultPlan::none()`] is the identity schedule: every probe answers
//! `Healthy`/`Clean`, and the engine guards all fault handling behind
//! [`FaultPlan::is_none`] so the clean path stays bit-exact with the
//! pre-fault engine.
//!
//! Merge steps are counted from 0: step `s` is the `s`-th replicated pass
//! of the fit, counted across stages.

use crate::McdcError;

/// Outcome of probing a [`FaultPlan`] for one replica execution attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaFault {
    /// The replica executes its span normally.
    Healthy,
    /// The replica dies before delivering its span (crash fault).
    Fail,
    /// The replica delivers, but `delay` virtual ticks late. Whether a
    /// straggler is tolerated or treated as failed is the *consumer's*
    /// call, via [`FaultPlan::deadline_exceeded`].
    Straggle {
        /// Virtual-tick lateness of the delivery.
        delay: u64,
    },
}

/// Outcome of probing a [`FaultPlan`] for one ingest arrival — which
/// corruption, if any, hits the row before it reaches the absorb boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestFault {
    /// The row arrives intact.
    Clean,
    /// The row arrives with trailing features sheared off (arity
    /// mismatch): a truncated record, the classic wire-format failure.
    Truncate,
    /// One value code is replaced by a code outside every fitted domain:
    /// an unseen category, a re-encoded upstream vocabulary, or plain
    /// bit rot.
    OutOfDomain,
    /// Most of the row's values are blanked to
    /// [`MISSING`](categorical_data::MISSING). The row stays *admissible*
    /// (MISSING is always legal) — this axis stresses quality degradation
    /// and drift accounting, not rejection.
    MissingFlood,
}

/// Outcome of probing a [`FaultPlan`] for one replica's merge delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaFault {
    /// The δ vector arrives intact.
    Clean,
    /// The δ vector arrives poisoned (NaN / out of the `[0, 1]` ω-clamp);
    /// the merge-side validity checks must detect and reject it.
    Corrupt,
    /// The δ vector is lost in transit and never reaches the merge.
    Drop,
}

/// A deterministic, seeded fault-injection schedule for replicated
/// execution.
///
/// Build one with [`FaultPlan::seeded`] (probabilistic faults) and/or the
/// targeted event methods ([`fail_replica`](FaultPlan::fail_replica),
/// [`straggle_replica`](FaultPlan::straggle_replica),
/// [`corrupt_delta`](FaultPlan::corrupt_delta),
/// [`drop_delta`](FaultPlan::drop_delta)), then hand it to
/// `Mgcpl::builder().fault_plan(...)` or
/// `SimulatedCluster::run_with_faults`. [`FaultPlan::none()`] (also the
/// `Default`) injects nothing and keeps the engine bit-exact.
///
/// ```
/// use mcdc_core::{FaultPlan, ReplicaFault};
///
/// let plan = FaultPlan::seeded(7).replica_failure_rate(0.25).retry_budget(2);
/// // Pure and replayable: the same probe always answers the same way.
/// assert_eq!(plan.replica_fault(3, 1, 0), plan.replica_fault(3, 1, 0));
/// assert_eq!(FaultPlan::none().replica_fault(3, 1, 0), ReplicaFault::Healthy);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    replica_failure: f64,
    straggler: f64,
    straggler_delay: u64,
    straggler_deadline: u64,
    delta_corruption: f64,
    delta_drop: f64,
    ingest_truncation: f64,
    ingest_out_of_domain: f64,
    ingest_missing_flood: f64,
    retry_budget: usize,
    fail_at: Vec<(u64, usize)>,
    straggle_at: Vec<(u64, usize)>,
    corrupt_at: Vec<(u64, usize)>,
    drop_at: Vec<(u64, usize)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            replica_failure: 0.0,
            straggler: 0.0,
            straggler_delay: 1,
            straggler_deadline: 0,
            delta_corruption: 0.0,
            delta_drop: 0.0,
            ingest_truncation: 0.0,
            ingest_out_of_domain: 0.0,
            ingest_missing_flood: 0.0,
            retry_budget: 2,
            fail_at: Vec::new(),
            straggle_at: Vec::new(),
            corrupt_at: Vec::new(),
            drop_at: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// The identity schedule: no faults, ever. Equal to `Default`.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A fault-free plan carrying `seed`; attach probabilistic rates with
    /// the `*_rate` setters to arm it.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Per-attempt probability that a replica execution crashes.
    #[must_use]
    pub fn replica_failure_rate(mut self, rate: f64) -> Self {
        self.replica_failure = rate;
        self
    }

    /// Per-attempt probability that a replica straggles by
    /// [`straggler_delay`](FaultPlan::straggler_delay) virtual ticks.
    #[must_use]
    pub fn straggler_rate(mut self, rate: f64) -> Self {
        self.straggler = rate;
        self
    }

    /// Virtual-tick lateness of every injected straggler (default 1).
    #[must_use]
    pub fn straggler_delay(mut self, delay: u64) -> Self {
        self.straggler_delay = delay;
        self
    }

    /// Largest tolerated straggler delay (default 0, i.e. any straggle
    /// misses the deadline): [`deadline_exceeded`](FaultPlan::deadline_exceeded)
    /// answers `delay > deadline`.
    #[must_use]
    pub fn straggler_deadline(mut self, deadline: u64) -> Self {
        self.straggler_deadline = deadline;
        self
    }

    /// Per-merge-step probability that a replica's δ arrives poisoned.
    #[must_use]
    pub fn delta_corruption_rate(mut self, rate: f64) -> Self {
        self.delta_corruption = rate;
        self
    }

    /// Per-merge-step probability that a replica's δ is lost in transit.
    #[must_use]
    pub fn delta_drop_rate(mut self, rate: f64) -> Self {
        self.delta_drop = rate;
        self
    }

    /// Per-arrival probability that an ingest row is truncated (arity
    /// mismatch at the absorb boundary).
    #[must_use]
    pub fn ingest_truncation_rate(mut self, rate: f64) -> Self {
        self.ingest_truncation = rate;
        self
    }

    /// Per-arrival probability that one of an ingest row's codes is
    /// replaced by an out-of-domain value.
    #[must_use]
    pub fn ingest_out_of_domain_rate(mut self, rate: f64) -> Self {
        self.ingest_out_of_domain = rate;
        self
    }

    /// Per-arrival probability that an ingest row is flooded with
    /// [`MISSING`](categorical_data::MISSING) values (still admissible,
    /// but informationless — a quality fault, not an admission fault).
    #[must_use]
    pub fn ingest_missing_flood_rate(mut self, rate: f64) -> Self {
        self.ingest_missing_flood = rate;
        self
    }

    /// Per-shard execution attempt budget (default 2: one retry after a
    /// first failure). A replica that fails `budget` attempts in one merge
    /// step is quarantined for that step. A budget of 0 is the degenerate
    /// no-retry setting, equivalent to 1: the first fault quarantines the
    /// shard immediately.
    #[must_use]
    pub fn retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Targeted event: the first execution attempt of `shard` at merge
    /// `step` crashes (retries re-probe the probabilistic rates only).
    #[must_use]
    pub fn fail_replica(mut self, step: u64, shard: usize) -> Self {
        self.fail_at.push((step, shard));
        self
    }

    /// Targeted event: the first execution attempt of `shard` at merge
    /// `step` straggles by the plan's
    /// [`straggler_delay`](FaultPlan::straggler_delay).
    #[must_use]
    pub fn straggle_replica(mut self, step: u64, shard: usize) -> Self {
        self.straggle_at.push((step, shard));
        self
    }

    /// Targeted event: the δ of `shard` at merge `step` arrives poisoned.
    #[must_use]
    pub fn corrupt_delta(mut self, step: u64, shard: usize) -> Self {
        self.corrupt_at.push((step, shard));
        self
    }

    /// Targeted event: the δ of `shard` at merge `step` is dropped.
    #[must_use]
    pub fn drop_delta(mut self, step: u64, shard: usize) -> Self {
        self.drop_at.push((step, shard));
        self
    }

    /// Whether this plan can never inject an *engine-side* fault (replica
    /// crashes, stragglers, δ corruption/drops — all rates zero, no
    /// targeted events). The engine takes the exact pre-fault code path
    /// when this holds. Ingest corruption is a separate channel applied at
    /// the absorb boundary, *before* rows reach the engine — see
    /// [`has_ingest_faults`](FaultPlan::has_ingest_faults) — so it does not
    /// arm the engine's fault machinery.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.replica_failure == 0.0
            && self.straggler == 0.0
            && self.delta_corruption == 0.0
            && self.delta_drop == 0.0
            && self.fail_at.is_empty()
            && self.straggle_at.is_empty()
            && self.corrupt_at.is_empty()
            && self.drop_at.is_empty()
    }

    /// Whether any ingest-corruption rate is armed (see
    /// [`corrupt_row`](FaultPlan::corrupt_row)).
    #[must_use]
    pub fn has_ingest_faults(&self) -> bool {
        self.ingest_truncation > 0.0
            || self.ingest_out_of_domain > 0.0
            || self.ingest_missing_flood > 0.0
    }

    /// The per-shard attempt budget (see
    /// [`retry_budget`](FaultPlan::retry_budget)); never 0 — a budget of 0
    /// clamps to the single mandatory execution attempt, so the engine's
    /// attempt loop always runs at least once and a first fault
    /// quarantines immediately instead of underflowing the budget.
    #[must_use]
    pub fn attempts(&self) -> usize {
        self.retry_budget.max(1)
    }

    /// Validates the plan: every rate must be finite and in `[0, 1]`
    /// (both endpoints are legal: 0 disarms a fault class, 1 fires it on
    /// every draw).
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), McdcError> {
        let rates = [
            ("fault.replica_failure_rate", self.replica_failure),
            ("fault.straggler_rate", self.straggler),
            ("fault.delta_corruption_rate", self.delta_corruption),
            ("fault.delta_drop_rate", self.delta_drop),
            ("fault.ingest_truncation_rate", self.ingest_truncation),
            ("fault.ingest_out_of_domain_rate", self.ingest_out_of_domain),
            ("fault.ingest_missing_flood_rate", self.ingest_missing_flood),
        ];
        for (parameter, rate) in rates {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(McdcError::InvalidConfig {
                    parameter,
                    message: format!("must be a finite probability in [0, 1], got {rate}"),
                });
            }
        }
        Ok(())
    }

    /// The fate of execution `attempt` (0-based) of `shard` at merge
    /// `step`. Targeted events fire on attempt 0 only — a retry is a fresh
    /// execution that re-draws the probabilistic rates, so a targeted
    /// crash with the default budget of 2 models "fail once, recover on
    /// retry".
    #[must_use]
    pub fn replica_fault(&self, step: u64, shard: usize, attempt: usize) -> ReplicaFault {
        if attempt == 0 {
            if self.fail_at.contains(&(step, shard)) {
                return ReplicaFault::Fail;
            }
            if self.straggle_at.contains(&(step, shard)) {
                return ReplicaFault::Straggle { delay: self.straggler_delay };
            }
        }
        if self.replica_failure > 0.0 && self.draw(1, step, shard, attempt) < self.replica_failure {
            return ReplicaFault::Fail;
        }
        if self.straggler > 0.0 && self.draw(2, step, shard, attempt) < self.straggler {
            return ReplicaFault::Straggle { delay: self.straggler_delay };
        }
        ReplicaFault::Healthy
    }

    /// Whether a straggler that is `delay` ticks late misses the plan's
    /// deadline (strictly later than
    /// [`straggler_deadline`](FaultPlan::straggler_deadline)). A
    /// deadline-exceeded straggler counts as a failed attempt.
    #[must_use]
    pub fn deadline_exceeded(&self, delay: u64) -> bool {
        delay > self.straggler_deadline
    }

    /// The fate of the merge δ of `shard` at merge `step`. Targeted
    /// corruption takes precedence over targeted drops, then the
    /// probabilistic rates are drawn in the same order.
    #[must_use]
    pub fn delta_fault(&self, step: u64, shard: usize) -> DeltaFault {
        if self.corrupt_at.contains(&(step, shard)) {
            return DeltaFault::Corrupt;
        }
        if self.drop_at.contains(&(step, shard)) {
            return DeltaFault::Drop;
        }
        if self.delta_corruption > 0.0 && self.draw(3, step, shard, 0) < self.delta_corruption {
            return DeltaFault::Corrupt;
        }
        if self.delta_drop > 0.0 && self.draw(4, step, shard, 0) < self.delta_drop {
            return DeltaFault::Drop;
        }
        DeltaFault::Clean
    }

    /// The fate of ingest `arrival` (0-based arrival index at the absorb
    /// boundary). Truncation takes precedence over out-of-domain
    /// substitution, then MISSING flooding — each class draws its own
    /// independent channel, like the engine-side probes.
    #[must_use]
    pub fn ingest_fault(&self, arrival: u64) -> IngestFault {
        if self.ingest_truncation > 0.0 && self.draw(5, arrival, 0, 0) < self.ingest_truncation {
            return IngestFault::Truncate;
        }
        if self.ingest_out_of_domain > 0.0
            && self.draw(6, arrival, 0, 0) < self.ingest_out_of_domain
        {
            return IngestFault::OutOfDomain;
        }
        if self.ingest_missing_flood > 0.0
            && self.draw(7, arrival, 0, 0) < self.ingest_missing_flood
        {
            return IngestFault::MissingFlood;
        }
        IngestFault::Clean
    }

    /// Applies [`ingest_fault`](FaultPlan::ingest_fault)'s verdict for
    /// `arrival` to `row` in place and returns it, so a driver can corrupt
    /// a clean stream deterministically: same plan, same arrival index,
    /// same row → same corrupted bytes, on every machine and run.
    ///
    /// * [`IngestFault::Truncate`] shears the row to a seeded shorter
    ///   length (always strictly shorter, so the arity check must fire).
    /// * [`IngestFault::OutOfDomain`] overwrites one seeded position with
    ///   a code near `u32::MAX` — far outside any realistic domain, and
    ///   never equal to [`MISSING`](categorical_data::MISSING).
    /// * [`IngestFault::MissingFlood`] blanks each position to MISSING
    ///   with high seeded probability, at least one always; the row stays
    ///   admissible.
    ///
    /// Empty rows are returned untouched (there is nothing to corrupt).
    pub fn corrupt_row(&self, arrival: u64, row: &mut Vec<u32>) -> IngestFault {
        let fault = self.ingest_fault(arrival);
        if row.is_empty() {
            return fault;
        }
        let len = row.len();
        match fault {
            IngestFault::Clean => {}
            IngestFault::Truncate => {
                let keep = (self.draw(8, arrival, 0, 0) * len as f64) as usize;
                row.truncate(keep.min(len - 1));
            }
            IngestFault::OutOfDomain => {
                let pos = ((self.draw(9, arrival, 0, 0) * len as f64) as usize).min(len - 1);
                let jitter = (self.draw(10, arrival, 0, 0) * 256.0) as u32;
                // Near-u32::MAX, never MISSING (u32::MAX itself): out of
                // every fitted domain a generator can produce.
                row[pos] = u32::MAX - 1 - jitter;
            }
            IngestFault::MissingFlood => {
                for (r, code) in row.iter_mut().enumerate() {
                    if self.draw(11, arrival, r, 0) < 0.8 {
                        *code = categorical_data::MISSING;
                    }
                }
                let force = ((self.draw(12, arrival, 0, 0) * len as f64) as usize).min(len - 1);
                row[force] = categorical_data::MISSING;
            }
        }
        fault
    }

    /// Uniform draw in `[0, 1)` from the hash of
    /// `(seed, tag, step, shard, attempt)`. The tag separates the fault
    /// channels so e.g. the failure and straggler draws of one coordinate
    /// are independent.
    fn draw(&self, tag: u64, step: u64, shard: usize, attempt: usize) -> f64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for v in [tag, step, shard as u64, attempt as u64] {
            h = splitmix(h ^ v.wrapping_mul(0xA24B_AED4_963E_E407));
        }
        // Top 53 bits → the full f64 mantissa.
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_default_and_always_healthy() {
        let plan = FaultPlan::none();
        assert_eq!(plan, FaultPlan::default());
        assert!(plan.is_none());
        for step in 0..8 {
            for shard in 0..8 {
                assert_eq!(plan.replica_fault(step, shard, 0), ReplicaFault::Healthy);
                assert_eq!(plan.delta_fault(step, shard), DeltaFault::Clean);
            }
        }
    }

    #[test]
    fn probes_are_pure_and_replayable() {
        let plan = FaultPlan::seeded(42)
            .replica_failure_rate(0.3)
            .straggler_rate(0.3)
            .delta_corruption_rate(0.3)
            .delta_drop_rate(0.3);
        let clone = plan.clone();
        for step in 0..16 {
            for shard in 0..8 {
                for attempt in 0..3 {
                    assert_eq!(
                        plan.replica_fault(step, shard, attempt),
                        clone.replica_fault(step, shard, attempt)
                    );
                }
                assert_eq!(plan.delta_fault(step, shard), clone.delta_fault(step, shard));
            }
        }
    }

    #[test]
    fn seeds_decorrelate_and_rates_are_roughly_honored() {
        let hits = |seed: u64, rate: f64| {
            let plan = FaultPlan::seeded(seed).replica_failure_rate(rate);
            (0..1000u64).filter(|&s| plan.replica_fault(s, 0, 0) == ReplicaFault::Fail).count()
        };
        let at_half = hits(1, 0.5);
        assert!((350..=650).contains(&at_half), "rate 0.5 hit {at_half}/1000");
        assert_ne!(
            (0..1000u64)
                .map(|s| FaultPlan::seeded(1).replica_failure_rate(0.5).replica_fault(s, 0, 0))
                .collect::<Vec<_>>(),
            (0..1000u64)
                .map(|s| FaultPlan::seeded(2).replica_failure_rate(0.5).replica_fault(s, 0, 0))
                .collect::<Vec<_>>(),
            "different seeds must draw different schedules"
        );
        assert_eq!(hits(1, 0.0), 0);
        assert_eq!(hits(1, 1.0), 1000);
    }

    #[test]
    fn targeted_events_fire_at_their_coordinate_and_attempt_zero_only() {
        let plan = FaultPlan::none().fail_replica(2, 1).straggle_replica(3, 0);
        assert_eq!(plan.replica_fault(2, 1, 0), ReplicaFault::Fail);
        assert_eq!(plan.replica_fault(2, 1, 1), ReplicaFault::Healthy, "retry must recover");
        assert_eq!(plan.replica_fault(2, 0, 0), ReplicaFault::Healthy);
        assert_eq!(plan.replica_fault(1, 1, 0), ReplicaFault::Healthy);
        assert_eq!(plan.replica_fault(3, 0, 0), ReplicaFault::Straggle { delay: 1 });
        assert!(!plan.is_none());

        let deltas = FaultPlan::none().corrupt_delta(0, 2).drop_delta(1, 2);
        assert_eq!(deltas.delta_fault(0, 2), DeltaFault::Corrupt);
        assert_eq!(deltas.delta_fault(1, 2), DeltaFault::Drop);
        assert_eq!(deltas.delta_fault(0, 1), DeltaFault::Clean);
    }

    #[test]
    fn deadline_semantics_are_strict() {
        let plan = FaultPlan::none().straggler_deadline(3);
        assert!(!plan.deadline_exceeded(0));
        assert!(!plan.deadline_exceeded(3));
        assert!(plan.deadline_exceeded(4));
        // Default deadline 0: any straggle at all misses it.
        assert!(FaultPlan::none().deadline_exceeded(1));
    }

    #[test]
    fn validate_rejects_non_finite_rates() {
        assert!(FaultPlan::none().validate().is_ok());
        for bad in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            assert!(FaultPlan::seeded(1).replica_failure_rate(bad).validate().is_err());
            assert!(FaultPlan::seeded(1).straggler_rate(bad).validate().is_err());
            assert!(FaultPlan::seeded(1).delta_corruption_rate(bad).validate().is_err());
            assert!(FaultPlan::seeded(1).delta_drop_rate(bad).validate().is_err());
        }
    }

    #[test]
    fn validate_accepts_the_exact_rate_boundaries() {
        // 0.0 disarms a fault class, 1.0 fires it on every draw — both are
        // legal probabilities, not off-by-one rejections.
        for boundary in [0.0, 1.0] {
            assert!(FaultPlan::seeded(1)
                .replica_failure_rate(boundary)
                .straggler_rate(boundary)
                .delta_corruption_rate(boundary)
                .delta_drop_rate(boundary)
                .validate()
                .is_ok());
        }
        // A rate of exactly 1.0 fires deterministically on every draw.
        let always = FaultPlan::seeded(1).replica_failure_rate(1.0);
        for attempt in 0..4 {
            assert_eq!(always.replica_fault(0, 0, attempt), ReplicaFault::Fail);
        }
        // A rate of exactly 0.0 never fires.
        let never = FaultPlan::seeded(1).replica_failure_rate(0.0);
        assert_eq!(never.replica_fault(0, 0, 0), ReplicaFault::Healthy);
    }

    #[test]
    fn ingest_corruption_is_deterministic_and_rate_honoring() {
        let plan = FaultPlan::seeded(9)
            .ingest_truncation_rate(0.2)
            .ingest_out_of_domain_rate(0.3)
            .ingest_missing_flood_rate(0.2);
        assert!(plan.has_ingest_faults());
        assert!(plan.is_none(), "ingest faults must not arm the engine fault path");
        assert!(plan.validate().is_ok());
        let base = vec![1u32, 2, 3, 0, 1];
        let mut kinds = [0usize; 4];
        for arrival in 0..400u64 {
            let mut row = base.clone();
            let mut again = base.clone();
            let fault = plan.corrupt_row(arrival, &mut row);
            let fault2 = plan.corrupt_row(arrival, &mut again);
            assert_eq!(fault, fault2);
            assert_eq!(row, again, "same coordinates must corrupt identically");
            match fault {
                IngestFault::Clean => {
                    kinds[0] += 1;
                    assert_eq!(row, base);
                }
                IngestFault::Truncate => {
                    kinds[1] += 1;
                    assert!(row.len() < base.len());
                }
                IngestFault::OutOfDomain => {
                    kinds[2] += 1;
                    assert_eq!(row.len(), base.len());
                    assert!(row.iter().any(|&c| c != categorical_data::MISSING && c > 0x8000_0000));
                }
                IngestFault::MissingFlood => {
                    kinds[3] += 1;
                    assert!(row.contains(&categorical_data::MISSING));
                }
            }
        }
        // Every class fires under its armed rate, and clean rows survive.
        assert!(kinds.iter().all(|&c| c > 0), "class mix {kinds:?}");
        // Unarmed plans never corrupt.
        let mut row = base.clone();
        assert_eq!(FaultPlan::none().corrupt_row(7, &mut row), IngestFault::Clean);
        assert_eq!(row, base);
        assert!(!FaultPlan::none().has_ingest_faults());
    }

    #[test]
    fn ingest_rates_are_validated() {
        for bad in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            assert!(FaultPlan::seeded(1).ingest_truncation_rate(bad).validate().is_err());
            assert!(FaultPlan::seeded(1).ingest_out_of_domain_rate(bad).validate().is_err());
            assert!(FaultPlan::seeded(1).ingest_missing_flood_rate(bad).validate().is_err());
        }
        assert!(FaultPlan::seeded(1)
            .ingest_truncation_rate(1.0)
            .ingest_out_of_domain_rate(0.0)
            .ingest_missing_flood_rate(1.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn zero_retry_budget_is_the_degenerate_no_retry_setting() {
        let plan = FaultPlan::none().retry_budget(0);
        assert!(plan.validate().is_ok());
        // The engine's attempt loop reads `attempts()`, which clamps to
        // the one mandatory execution attempt.
        assert_eq!(plan.attempts(), 1);
        assert_eq!(FaultPlan::none().retry_budget(1).attempts(), 1);
        assert_eq!(FaultPlan::none().attempts(), 2);
    }
}
