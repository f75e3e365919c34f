//! Allocation gate for CSV ingest: the single-pass parser's heap
//! allocations depend on the number of features and distinct values, not
//! on the number of cells. A counting global allocator counts the
//! allocations made on the test's own thread.

#[path = "support/csv_oracle.rs"]
mod csv_oracle;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use categorical_data::io::{read_csv_str, CsvOptions};
use categorical_data::synth::scaling;

/// Allocations a Syn_n parse may make. Its d = 10 features of 4 values and
/// 3 classes take under 150; the record-buffering oracle takes about 15 per
/// row.
const BOUND: u64 = 1_000;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count() {
    // Fails only while the thread is torn down, when nothing is measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Runs `f`, returning its result and the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Syn_n with `n` rows as CSV text: value codes as labels, class last.
fn syn_n_csv(n: usize) -> String {
    let ds = scaling::syn_n(n, 7);
    let mut text = String::new();
    for (row, label) in ds.table().rows().zip(ds.labels()) {
        for code in row {
            write!(text, "{code},").unwrap();
        }
        writeln!(text, "c{label}").unwrap();
    }
    text
}

#[test]
fn ingest_allocations_do_not_grow_with_rows() {
    let options = CsvOptions::default();
    let small = syn_n_csv(1_000);
    let large = syn_n_csv(10_000);

    let (small_ds, small_allocs) = allocations(|| read_csv_str(&small, &options).unwrap());
    let (large_ds, large_allocs) = allocations(|| read_csv_str(&large, &options).unwrap());
    assert_eq!((small_ds.n_rows(), large_ds.n_rows()), (1_000, 10_000));
    assert_eq!(large_allocs, small_allocs, "allocations grew with rows at fixed d and values");
    assert!(large_allocs < BOUND, "{large_allocs} allocations parsing 10k Syn_n rows");

    // The same gate fails the record-buffering oracle, so it can fail.
    let (oracle_ds, oracle_allocs) =
        allocations(|| csv_oracle::read_csv_str(&large, &options).unwrap());
    assert_eq!(oracle_ds, large_ds);
    assert!(oracle_allocs >= BOUND, "the oracle made only {oracle_allocs} allocations");
}
