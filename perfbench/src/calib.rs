//! The host-speed reference: a fixed kernel, independent of the library,
//! timed beside every measured journey or pass.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by tens of percent within a minute, for reasons outside the program
//! (neighbours' load on shared caches and memory, clock changes). Dividing a
//! measured time by the kernel's time taken right beside it cancels that
//! drift; multiplying by the kernel's fixed nominal time turns the ratio
//! back into seconds. A change to the library cannot move the kernel, so
//! every gain or loss of the program still shows in full.
//!
//! The kernel does what the library's hot loops do — categorical rows
//! scored against a table of per-cluster value weights, with an argmax —
//! on fixed data made here from a fixed seed.

use std::hint::black_box;
use std::time::Instant;

/// Rows, features, values per feature and clusters of the kernel's data.
const ROWS: usize = 4_096;
const D: usize = 16;
const M: usize = 8;
const K: usize = 32;
/// Sweeps over the rows in one timing.
const SWEEPS: usize = 24;
/// The kernel's nominal time (seconds) — about its median on the host the
/// benchmark was written on. It only scales reported times; it is the same
/// constant on every commit.
pub const NOMINAL_S: f64 = 0.015;

pub struct Calibrator {
    rows: Vec<u32>,
    /// `weights[(k·D + f)·M + code]`.
    weights: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        // xorshift64*: fixed data, whatever the workload seed.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let rows = (0..ROWS * D).map(|_| (next() % M as u64) as u32).collect();
        let weights = (0..K * D * M).map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64).collect();
        Calibrator { rows, weights }
    }
}

impl Calibrator {
    /// Times one run of the kernel, in seconds.
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        let mut hits = [0u32; K];
        for _ in 0..SWEEPS {
            for row in black_box(&self.rows).chunks_exact(D) {
                let mut best = (0, f64::NEG_INFINITY);
                for k in 0..K {
                    let w = &self.weights[k * D * M..(k + 1) * D * M];
                    let s: f64 = row.iter().enumerate().map(|(f, &c)| w[f * M + c as usize]).sum();
                    if s > best.1 {
                        best = (k, s);
                    }
                }
                hits[best.0] += 1;
            }
        }
        black_box(hits);
        start.elapsed().as_secs_f64()
    }

    /// `measured` seconds of work, expressed at the kernel's nominal speed:
    /// `measured × NOMINAL_S / kernel`, where `kernel` is the kernel's time
    /// taken beside the work.
    pub fn scale(measured: f64, kernel: f64) -> f64 {
        measured * NOMINAL_S / kernel
    }
}
