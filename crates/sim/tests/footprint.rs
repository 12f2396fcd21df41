//! Heap footprint of the simulator under per-link, heavy-tail latency.
//!
//! Two structures once grew with what a run had seen instead of what it
//! holds: a map with one latency entry per directed link ever used, and
//! the event queue's per-tick buffers, each keeping the capacity of the
//! busiest tick it had served. On the 5,000-node `sim_plumtree_wan_churn`
//! they held about two thirds of a 61 MB peak. A link's latency is now
//! redrawn from its seed on every send, and a tick's events sit in chunks
//! of one shared pool. These limits only get tighter.
//!
//! A test binary of its own, counting per thread: libtest runs each test
//! on a thread of its own and keeps books on the main one, and none of
//! that may be counted into a measurement.

use hyparview_core::Config;
use hyparview_sim::protocols::{build_hyparview, HyParViewSim};
use hyparview_sim::{BroadcastMode, FaultPlan, Latency, PlumtreeConfig, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not freed. `const`
    /// initialisation and no destructor: touching it never allocates,
    /// which a global allocator must not do.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// `try_with` fails only while a thread is being torn down, after its test.
fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches one
// const-initialised thread-local without a destructor and neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: the caller's obligations for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `sim_plumtree_wan_churn` at 300 nodes: adaptive Plumtree over HyParView,
/// per-link `log_normal(2, 600)` latency (1 to 64 ticks, so the Plumtree
/// timers pass through the queue's overflow heap), 5% loss and 2.5%
/// duplication. Built with 10 cycles, then 40 broadcasts, which bring
/// every per-node message store to its working size.
fn wan_sim() -> HyParViewSim {
    let latency = Latency::log_normal(2, 600).per_link();
    let plumtree = PlumtreeConfig::default()
        .with_optimization_threshold(Some(2))
        .with_lazy_flush_interval(2)
        .with_timeouts_for_max_latency(latency.max_hop());
    let scenario = Scenario::new(300, 1)
        .with_broadcast_mode(BroadcastMode::Plumtree)
        .with_plumtree(plumtree)
        .with_latency(latency)
        .with_faults(FaultPlan::default().with_loss(0.05).with_duplication(0.025))
        .with_stabilization_cycles(10);
    let mut sim = build_hyparview(&scenario, Config::default());
    for _ in 0..40 {
        sim.broadcast_random();
    }
    sim
}

/// 50 membership cycles, then 20 broadcasts. Every shuffle's reply travels
/// a link from the walk's last node back to its origin, so the cycles keep
/// reaching directed links no earlier send used.
fn round(sim: &mut HyParViewSim) {
    sim.run_cycles(50);
    for _ in 0..20 {
        sim.broadcast_random();
    }
}

/// Live bytes besides the queue's event storage, which has a gate of its
/// own below.
fn live_besides_the_queue(sim: &HyParViewSim) -> isize {
    live() - sim.queue_retained_bytes() as isize
}

/// Four rounds after the build, about 487,000 membership and control
/// frames and 29,000 payloads, leave the rest of the heap within 16 KiB of
/// where it was (6.6 KB more at seed 1, the broadcast-id windows filling). The
/// per-link map grew by 981 KB over them, its table doubling as new
/// directed links came in.
#[test]
fn the_heap_does_not_grow_with_the_links_a_run_touches() {
    let before = live();
    let mut sim = wan_sim();
    let settled = live_besides_the_queue(&sim) - before;
    for _ in 0..4 {
        round(&mut sim);
    }
    let grown = live_besides_the_queue(&sim) - before - settled;
    const LIMIT: isize = 16 * 1024;
    assert!(grown <= LIMIT, "{grown} B more after four rounds, {settled} B before (limit {LIMIT})");
}

/// The queue keeps storage for the events in flight: at most their peak
/// plus one partial chunk of 256 slots per populated tick, and the cursor's
/// drained one. This run peaks at 705 events in the ring and 46 populated
/// ticks (seed 1), 80 B per event, and keeps 962,560 B (47 chunks). The
/// per-tick buffers kept 655,360 B here; their cost showed at 5,000 nodes,
/// about 20 MB for some 12,500 events in flight.
#[test]
fn the_queue_keeps_storage_for_the_events_in_flight() {
    let mut sim = wan_sim();
    for _ in 0..4 {
        round(&mut sim);
    }
    assert!(sim.is_quiescent());
    let retained = sim.queue_retained_bytes();
    const LIMIT: usize = (705 + 256 * (46 + 1)) * 80;
    assert!(retained <= LIMIT, "{retained} B of event storage retained (limit {LIMIT})");
}
