//! What a run reports: named metrics with units, the operations attempted
//! and failed, correctness failures by message, and the determinism ledger
//! that pins every work counter across repeats of one seed.

use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed before the metrics (tables, notes).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// First value of each counter per repeat key (see [`Report::pin`]).
    pinned: BTreeMap<String, BTreeMap<&'static str, u64>>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one attempted operation, failed when `result` is an error.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one correctness check; a false `ok` fails it with `message`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    /// Determinism check: the counters recorded under `key` (one seed's
    /// inputs) must equal those of every earlier repeat of the same key.
    /// The first mismatch names the counter.
    pub fn pin(&mut self, key: String, counters: &[(&'static str, u64)]) {
        let fresh: BTreeMap<&'static str, u64> = counters.iter().copied().collect();
        match self.pinned.get(&key) {
            None => {
                self.pinned.insert(key, fresh);
            }
            Some(first) => {
                let first = first.clone();
                for (name, value) in &fresh {
                    let before = first.get(name).copied();
                    self.check(before == Some(*value), || {
                        format!("counter {name} is not deterministic for {key}: {before:?} then {value}")
                    });
                }
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints notes, failures, metrics and the error rate to stdout, then
    /// the result object as the last line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{:<34} {rate:>16.6} ratio ({} of {})", "error_rate", self.failed, self.attempted);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number for `v`: Rust's shortest round-trip form, with non-finite
/// values (which JSON cannot hold) as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
