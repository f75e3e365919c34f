//! Small statistics helpers and the open-loop replay shared by every
//! workload: percentiles, the process memory high-water mark, and the
//! virtual-clock queue that turns measured service times into latencies
//! from each request's due time.

/// Median of `values` (the upper middle element for even counts); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p` in `(0, 1]` of `values`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of the middle half of `values`: the lowest and the highest
/// quarter (`len / 4` values each) are dropped. As immune to outliers as
/// the median, but it averages over half the samples instead of reading
/// one, so it moves less between runs when the values spread wide or
/// bunch in two modes. NaN when empty.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Arithmetic mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or NaN
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one recorded call did, for the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A stream arrival offered to `try_absorb` (plus its `should_refit`).
    Absorb,
    /// A drift-triggered re-fit; it holds the single server but is not a
    /// request of its own.
    Refit,
    /// A read query (`score_batch` / `try_serve_batch`).
    Serve,
}

/// One call of the single-threaded server: issued by the arrival in
/// `slot` (due at `slot / rate`), busy for `service_s` seconds.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub slot: u32,
    pub kind: Kind,
    pub service_s: f64,
}

/// Latencies from due time at one arrival rate.
#[derive(Debug, Default)]
pub struct Replay {
    pub absorb_s: Vec<f64>,
    pub serve_s: Vec<f64>,
    /// Busy time as a share of the schedule (last due time plus one
    /// slot). Below 1 the server keeps up and every backlog drains; above
    /// 1 the backlog grows for as long as arrivals last.
    pub utilization: f64,
}

/// Replays `events` (in issue order) on a virtual clock at `rate` arrival
/// slots per second: each call starts when it is due or when the server
/// frees up, whichever is later, and runs for its measured service time.
/// Nothing sleeps or spins, so a run takes only the time its calls took.
pub fn replay(events: &[Event], rate: f64) -> Replay {
    let mut out = Replay::default();
    let mut now = 0.0f64;
    let mut busy = 0.0f64;
    for event in events {
        let due = f64::from(event.slot) / rate;
        now = now.max(due) + event.service_s;
        busy += event.service_s;
        match event.kind {
            Kind::Absorb => out.absorb_s.push(now - due),
            Kind::Serve => out.serve_s.push(now - due),
            Kind::Refit => {}
        }
    }
    let slots = events.last().map_or(0, |e| e.slot) + 1;
    out.utilization = busy * rate / f64::from(slots);
    out
}

/// Whether `events` at `rate` keep the serve p99 within `limit_s` with a
/// backlog that drains (utilization below 1).
pub fn meets_limit(events: &[Event], rate: f64, limit_s: f64) -> bool {
    let r = replay(events, rate);
    percentile(&r.serve_s, 0.99) <= limit_s && r.utilization < 1.0
}

/// The highest rate meeting [`meets_limit`]: the fixed `ladder` (ascending)
/// brackets it between the last passing and the first failing rung, and
/// bisection on the same service-time trace refines it. Lateness of a FIFO
/// single server never falls as arrivals compress, so the predicate is
/// monotone in the rate. Returns the lowest rung when even it fails, and the
/// top rung when every rung passes.
pub fn max_rate(events: &[Event], ladder: &[f64], limit_s: f64) -> f64 {
    let Some(first_fail) = ladder.iter().position(|&r| !meets_limit(events, r, limit_s)) else {
        return ladder[ladder.len() - 1];
    };
    if first_fail == 0 {
        return ladder[0];
    }
    let (mut lo, mut hi) = (ladder[first_fail - 1], ladder[first_fail]);
    for _ in 0..20 {
        let mid = 0.5 * (lo + hi);
        if meets_limit(events, mid, limit_s) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One line per rung of `ladder`: serve p50 and p99 and the utilization
/// when `events` are replayed at that rate.
pub fn ladder_table(events: &[Event], ladder: &[f64]) -> Vec<String> {
    let mut lines = vec![format!(
        "  {:>10} {:>14} {:>14} {:>12}",
        "rate/s", "serve p50 us", "serve p99 us", "utilization"
    )];
    for &rate in ladder {
        let r = replay(events, rate);
        lines.push(format!(
            "  {rate:>10.0} {:>14.1} {:>14.1} {:>12.3}",
            median(&r.serve_s) * 1e6,
            percentile(&r.serve_s, 0.99) * 1e6,
            r.utilization
        ));
    }
    lines
}

/// A geometric ladder of `steps` rates from `lo` up by `ratio` per rung.
pub fn ladder(lo: f64, ratio: f64, steps: usize) -> Vec<f64> {
    (0..steps).map(|i| lo * ratio.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn replay_queues_behind_a_long_call() {
        let events = [
            Event { slot: 0, kind: Kind::Refit, service_s: 1.0 },
            Event { slot: 1, kind: Kind::Serve, service_s: 0.1 },
        ];
        // At 10 slots/s the query is due at 0.1 s and starts at 1.0 s.
        let r = replay(&events, 10.0);
        assert!((r.serve_s[0] - 1.0).abs() < 1e-12);
        // At 0.5 slots/s it is due at 2 s, after the server freed up.
        let r = replay(&events, 0.5);
        assert!((r.serve_s[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn max_rate_finds_the_capacity_of_a_steady_server() {
        let events: Vec<Event> =
            (0..10_000).map(|slot| Event { slot, kind: Kind::Serve, service_s: 1e-3 }).collect();
        // Capacity is 1000 calls/s: at any higher rate the backlog grows.
        let rate = max_rate(&events, &ladder(100.0, 2.0, 8), 0.02);
        assert!((990.0..=1000.5).contains(&rate), "rate = {rate}");
    }
}
