//! What the scheduler memo costs in heap per cached layer cost.
//!
//! `CachedScheduler` keeps one row per design point, so a design point
//! scored on a whole workload pays for its key once, not once per layer.
//! This binary installs a counting allocator (so it holds this one test
//! only), fills a cache with 100 design points × 20 layers and reads the
//! live heap bytes the cache holds per cached cost: rows, keys, the clock
//! queue, table slack and the layer interner together.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vaesa_accel::{workloads, ArchDescription};
use vaesa_cosa::{CachedScheduler, Scheduler};

struct Counting;

/// Bytes currently allocated by the whole process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_cached_layer_cost_holds_at_most_48_heap_bytes() {
    let layers: Vec<_> = workloads::training_layers().into_iter().take(20).collect();
    let archs: Vec<_> = (0..100)
        .map(|i| ArchDescription {
            pe_count: 16,
            macs_per_pe: 64,
            accum_buf_bytes: 16 * 1024,
            weight_buf_bytes: 256 * 1024,
            input_buf_bytes: 64 * 1024,
            global_buf_bytes: (256 + i) * 1024,
        })
        .collect();
    // Warm anything the scheduler sets up once per process.
    let _ = Scheduler::default().schedule(&archs[0], &layers[0]);

    let before = LIVE.load(Ordering::Relaxed);
    let cached = CachedScheduler::default();
    for arch in &archs {
        for layer in &layers {
            let _ = cached.schedule(arch, layer);
        }
    }
    let held = LIVE.load(Ordering::Relaxed) - before;

    let costs = archs.len() * layers.len();
    assert_eq!(cached.cache_len(), costs);
    let per_cost = held as f64 / costs as f64;
    assert!(
        per_cost <= 48.0,
        "the memo holds {per_cost:.1} heap bytes per cached cost ({held} B for {costs})"
    );
    drop(cached);
}
