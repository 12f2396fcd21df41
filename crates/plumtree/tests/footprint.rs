//! Heap footprint of one node's Plumtree state, per remembered message.
//!
//! Every Plumtree experiment and the live stack multiply this state by the
//! number of nodes, so a second index over the message store (the layout
//! before the single `RecentMap`: a hash set, a FIFO and a hash map, all
//! keyed by the same id, 91 B per message) must not come back unnoticed.
//!
//! A test binary of its own with a single test function: the counting
//! allocator is process-wide, and a concurrently running test would be
//! counted too.

use hyparview_plumtree::{
    PlumtreeConfig, PlumtreeMessage, PlumtreeOut, PlumtreeState, PlumtreeTimer,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated (Relaxed: a statistic read by the one thread
/// that also does the allocating).
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches one atomic and
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn state_costs_at_most_72_bytes_per_remembered_message() {
    // `sim_plumtree_wan_churn`'s configuration and its 740 broadcasts (20
    // warm-up + 24 epochs of 30); ids and payload as the simulator's.
    const MESSAGES: u128 = 740;
    let config = PlumtreeConfig::default()
        .with_optimization_threshold(Some(2))
        .with_lazy_flush_interval(2)
        .with_timeouts_for_max_latency(600);

    let before = LIVE.load(Ordering::Relaxed);
    let mut state: PlumtreeState<u32, ()> = PlumtreeState::new(0, config);
    state.sync_neighbors(&[1, 2, 3, 4, 5]);
    {
        let mut out = PlumtreeOut::new();
        // Two tree links, three lazy ones: the shape a node settles into.
        for peer in [3, 4, 5] {
            state.handle_message(peer, PlumtreeMessage::Prune, &mut out);
        }
        for id in 0..MESSAGES {
            state.handle_message(
                1,
                PlumtreeMessage::Gossip { id, round: 3, payload: () },
                &mut out,
            );
            state.on_timer(PlumtreeTimer::LazyFlush, &mut out);
            out = PlumtreeOut::new();
        }
    }
    let owned = LIVE.load(Ordering::Relaxed) - before;

    assert_eq!(state.cached_len(), MESSAGES as usize);
    assert_eq!(state.queued_announcements(), 0, "flushed: only the store holds history");
    let per_message = owned as f64 / MESSAGES as f64;
    assert!(
        per_message <= 72.0,
        "{owned} B live for {MESSAGES} remembered messages = {per_message:.1} B each (limit 72)"
    );
}
