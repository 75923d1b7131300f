//! Proof that the steady-state workspace PSD path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up call populates the [`DspWorkspace`] plan cache, repeated
//! `estimate_into` calls must perform **zero** heap allocations — no
//! FFT re-planning, no segment/spectrum/accumulator buffers. This is
//! the acceptance criterion of the batch-execution redesign: the Welch
//! hot loop runs at memory-bandwidth speed with nothing for the
//! allocator to do.
//!
//! The counter is per thread: libtest runs this binary's tests on
//! concurrent threads, and only the measuring thread's allocations
//! belong in its window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nfbist_dsp::psd::{DspWorkspace, PeriodogramConfig, WelchConfig};
use nfbist_dsp::window::Window;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. `const`-initialized and
    /// without a destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only once the thread's locals are torn down; an
    // allocation that late is outside every measured window.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counter touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

#[test]
fn steady_state_welch_estimate_is_allocation_free() {
    // All three engines have to hold the property: radix-2 (1 024),
    // mixed-radix (1 000 = 2³·5³, the paper's 10⁴ scaled down to keep
    // the test quick) and Bluestein (1 018 = 2·509).
    for nfft in [1_024usize, 1_000, 1_018] {
        let x = noise(20_000, 42);
        let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann);
        let mut ws = DspWorkspace::new();
        let mut out = vec![0.0f64; nfft / 2 + 1];

        // Warm-up: plans the FFT and allocates every scratch buffer.
        cfg.estimate_into(&x, 20_000.0, &mut ws, &mut out).unwrap();
        let warm = out.clone();

        let (count, result) = allocations(|| cfg.estimate_into(&x, 20_000.0, &mut ws, &mut out));
        result.unwrap();
        assert_eq!(
            count, 0,
            "steady-state welch (nfft {nfft}) must not allocate"
        );
        assert_eq!(out, warm, "reused buffers must not change the result");
    }
}

#[test]
fn steady_state_detrended_welch_is_allocation_free() {
    let x = noise(10_000, 7);
    let cfg = WelchConfig::new(512).unwrap().detrend(true);
    let mut ws = DspWorkspace::new();
    let mut out = vec![0.0f64; 257];
    cfg.estimate_into(&x, 8_000.0, &mut ws, &mut out).unwrap();
    let (count, result) = allocations(|| cfg.estimate_into(&x, 8_000.0, &mut ws, &mut out));
    result.unwrap();
    assert_eq!(count, 0, "detrend path must not allocate either");
}

#[test]
fn steady_state_periodogram_is_allocation_free() {
    let x = noise(2_048, 3);
    let cfg = PeriodogramConfig::new().window(Window::Hann);
    let mut ws = DspWorkspace::new();
    let mut out = vec![0.0f64; 1_025];
    cfg.estimate_into(&x, 4_000.0, &mut ws, &mut out).unwrap();
    let (count, result) = allocations(|| cfg.estimate_into(&x, 4_000.0, &mut ws, &mut out));
    result.unwrap();
    assert_eq!(count, 0, "steady-state periodogram must not allocate");
}

#[test]
fn allocating_entry_point_still_allocates_but_matches() {
    // Sanity check on the counter itself, and on result equivalence
    // between the two entry points.
    let x = noise(8_192, 11);
    let cfg = WelchConfig::new(1_024).unwrap();
    let mut ws = DspWorkspace::new();
    let reused = cfg.estimate_with(&x, 10_000.0, &mut ws).unwrap();
    let (count, alloc) = allocations(|| cfg.estimate(&x, 10_000.0).unwrap());
    assert!(count > 0, "the per-call path does allocate");
    assert_eq!(alloc, reused);
}

#[test]
fn steady_state_streaming_welch_push_is_allocation_free() {
    use nfbist_dsp::psd::WelchAccumulator;
    // O(segment) memory means: once the carry, accumulator and plan
    // exist, pushing more chunks of a long record allocates nothing —
    // record length is a pure time cost.
    for nfft in [1_024usize, 1_000, 1_018] {
        let chunk = noise(1_777, 13);
        let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann);
        let mut sw = WelchAccumulator::cumulative(cfg, 20_000.0).unwrap();
        // Warm-up: plans the FFT, grows the carry to one segment.
        sw.push(&chunk).unwrap();
        sw.push(&chunk).unwrap();
        let (count, result) = allocations(|| {
            for _ in 0..32 {
                sw.push(&chunk)?;
            }
            Ok::<(), nfbist_dsp::DspError>(())
        });
        result.unwrap();
        assert_eq!(
            count, 0,
            "steady-state streaming push (nfft {nfft}) must not allocate"
        );
        assert!(sw.segments_seen() > 0);
    }
    // And the no-allocation finalize writes into caller scratch.
    let chunk = noise(4_096, 14);
    let mut sw = WelchAccumulator::cumulative(WelchConfig::new(512).unwrap(), 8_000.0).unwrap();
    sw.push(&chunk).unwrap();
    let mut out = vec![0.0f64; 257];
    sw.finalize_into(&mut out).unwrap();
    let (count, result) = allocations(|| sw.finalize_into(&mut out));
    result.unwrap();
    assert_eq!(count, 0, "finalize_into must not allocate");
}

#[test]
fn steady_state_sliding_welch_is_allocation_free() {
    use nfbist_dsp::psd::SlidingWelch;
    // The monitoring loop's hot path: the window ring is allocated up
    // front, so pushing chunks and emitting windowed estimates — long
    // after the ring has wrapped — costs the allocator nothing.
    for nfft in [1_024usize, 1_000, 1_018] {
        let chunk = noise(1_777, 17);
        let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann);
        let mut sw = SlidingWelch::new(cfg, 20_000.0, 6).unwrap();
        let mut out = vec![0.0f64; nfft / 2 + 1];
        // Warm-up: plans the FFT, fills carry and ring slots.
        sw.push(&chunk).unwrap();
        sw.push(&chunk).unwrap();
        sw.finalize_into(&mut out).unwrap();
        let (count, result) = allocations(|| {
            for _ in 0..32 {
                sw.push(&chunk)?;
                sw.finalize_into(&mut out)?;
            }
            Ok::<(), nfbist_dsp::DspError>(())
        });
        result.unwrap();
        assert_eq!(
            count, 0,
            "steady-state sliding push/emit (nfft {nfft}) must not allocate"
        );
        assert!(sw.segments_seen() > sw.window_segments(), "ring wrapped");
    }
}

#[test]
fn steady_state_forgetting_welch_is_allocation_free() {
    use nfbist_dsp::psd::ForgettingWelch;
    for nfft in [1_024usize, 1_000, 1_018] {
        let chunk = noise(1_777, 19);
        let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann);
        let mut fw = ForgettingWelch::new(cfg, 20_000.0, 0.9).unwrap();
        let mut out = vec![0.0f64; nfft / 2 + 1];
        fw.push(&chunk).unwrap();
        fw.push(&chunk).unwrap();
        fw.finalize_into(&mut out).unwrap();
        let (count, result) = allocations(|| {
            for _ in 0..32 {
                fw.push(&chunk)?;
                fw.finalize_into(&mut out)?;
            }
            Ok::<(), nfbist_dsp::DspError>(())
        });
        result.unwrap();
        assert_eq!(
            count, 0,
            "steady-state forgetting push/emit (nfft {nfft}) must not allocate"
        );
        assert!(fw.segments_seen() > 0);
    }
}
