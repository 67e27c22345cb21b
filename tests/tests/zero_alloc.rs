//! Counting-allocator harness: proves the modem's scratch-based hot
//! path performs **zero heap allocations per frame** once warmed up.
//!
//! The library crates forbid unsafe code, so the counting
//! `#[global_allocator]` lives here, in an integration-test binary
//! root. Allocations are counted per thread: each measured window runs
//! on its test's own thread, so the harness's parallel test threads
//! (setup, warmup, other windows) can never be charged to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wearlock_modem::config::OfdmConfig;
use wearlock_modem::constellation::Modulation;
use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};

thread_local! {
    /// Allocations made by the current thread. `const`-initialized and
    /// without a destructor, so touching it from inside the allocator
    /// never allocates or registers thread-exit state.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` only fails during thread teardown, whose allocations
    // no measured window can see.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

// SAFETY: pure delegation to the system allocator plus a thread-local
// counter bump that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the current thread makes while running `f`.
fn alloc_delta(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn setup() -> (OfdmModulator, OfdmDemodulator, Vec<bool>) {
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).unwrap();
    let rx = OfdmDemodulator::new(cfg).unwrap();
    let bits: Vec<bool> = (0..240).map(|i| (i * 13 + 1) % 7 < 3).collect();
    (tx, rx, bits)
}

/// A QPSK frame carrying `bits`.
fn qpsk_wave(tx: &OfdmModulator, bits: &[bool]) -> Vec<f64> {
    let mut wave = Vec::new();
    tx.modulate(bits, Modulation::Qpsk, &mut TxScratch::new(), &mut wave)
        .unwrap();
    wave
}

#[test]
fn demodulate_frame_is_allocation_free_after_warmup() {
    let (tx, rx, bits) = setup();
    let wave = qpsk_wave(&tx, &bits);
    let mut scratch = DemodScratch::new();
    let mut frame = DemodFrame::new();

    // Warmup: grows scratch buffers, fills the plan cache and the
    // constellation tables.
    let sync = rx.detect(&wave, &mut scratch).unwrap();
    rx.demodulate_synced(
        &wave,
        Modulation::Qpsk,
        bits.len(),
        sync,
        &mut scratch,
        &mut frame,
    )
    .unwrap();

    let delta = alloc_delta(|| {
        for _ in 0..50 {
            rx.demodulate_synced(
                &wave,
                Modulation::Qpsk,
                bits.len(),
                sync,
                &mut scratch,
                &mut frame,
            )
            .unwrap();
        }
    });
    assert_eq!(delta, 0, "steady-state demodulation must not allocate");
    assert_eq!(frame.bits, bits, "and must still decode correctly");
}

#[test]
fn detect_is_allocation_free_after_warmup() {
    let (tx, rx, bits) = setup();
    let wave = qpsk_wave(&tx, &bits);
    let mut scratch = DemodScratch::new();
    let warm = rx.detect(&wave, &mut scratch).unwrap();

    let delta = alloc_delta(|| {
        for _ in 0..20 {
            let sync = rx.detect(&wave, &mut scratch).unwrap();
            assert_eq!(sync.preamble_offset, warm.preamble_offset);
        }
    });
    assert_eq!(delta, 0, "steady-state detection must not allocate");
}

#[test]
fn modulate_into_is_allocation_free_after_warmup() {
    let (tx, _, bits) = setup();
    let mut scratch = TxScratch::new();
    let mut wave = Vec::new();
    tx.modulate(&bits, Modulation::Qam16, &mut scratch, &mut wave)
        .unwrap();
    let reference = wave.clone();

    let delta = alloc_delta(|| {
        for _ in 0..20 {
            tx.modulate(&bits, Modulation::Qam16, &mut scratch, &mut wave)
                .unwrap();
        }
    });
    assert_eq!(delta, 0, "steady-state modulation must not allocate");
    assert_eq!(wave, reference, "and must still produce the same frame");
}

#[test]
fn full_synced_pipeline_is_allocation_free_per_round() {
    // TX + RX round trip with every buffer reused: the paper's unlock
    // loop in miniature. Warm one round, then measure several.
    let (tx, rx, bits) = setup();
    let mut tx_scratch = TxScratch::new();
    let mut scratch = DemodScratch::new();
    let mut frame = DemodFrame::new();
    let mut wave = Vec::new();

    tx.modulate(&bits, Modulation::Qpsk, &mut tx_scratch, &mut wave)
        .unwrap();
    let sync = rx.detect(&wave, &mut scratch).unwrap();
    rx.demodulate_synced(
        &wave,
        Modulation::Qpsk,
        bits.len(),
        sync,
        &mut scratch,
        &mut frame,
    )
    .unwrap();

    let delta = alloc_delta(|| {
        for _ in 0..10 {
            tx.modulate(&bits, Modulation::Qpsk, &mut tx_scratch, &mut wave)
                .unwrap();
            let sync = rx.detect(&wave, &mut scratch).unwrap();
            rx.demodulate_synced(
                &wave,
                Modulation::Qpsk,
                bits.len(),
                sync,
                &mut scratch,
                &mut frame,
            )
            .unwrap();
        }
    });
    assert_eq!(delta, 0, "synced TX→RX rounds must not allocate");
    assert_eq!(frame.bits, bits);
}
