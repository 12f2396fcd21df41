//! Heap footprint of one node's Plumtree state, per remembered message.
//!
//! Every Plumtree experiment and the live stack multiply this state by the
//! number of nodes, so a second index over the message store (the layout
//! before the single `RecentMap`: a hash set, a FIFO and a hash map, all
//! keyed by the same id, 91 B per message) must not come back unnoticed.
//! Nor may a payload the node can no longer be asked for: a broadcast it
//! announced to nobody is remembered without one. (The store slot's own size
//! is a compile-time assertion in `src/state.rs`: 32 bytes with `P = ()`.)
//!
//! A test binary of its own, counting per thread: libtest runs each test
//! on a thread of its own and keeps books on the main one, and none of
//! that may be counted into a measurement.

use hyparview_plumtree::{
    PlumtreeConfig, PlumtreeMessage, PlumtreeOut, PlumtreeState, PlumtreeTimer,
};
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

/// `sim_plumtree_wan_churn`'s 740 broadcasts (20 warm-up + 24 epochs of 30).
const MESSAGES: u128 = 740;

/// `sim_plumtree_wan_churn`'s Plumtree configuration.
fn wan_config() -> PlumtreeConfig {
    PlumtreeConfig::default()
        .with_optimization_threshold(Some(2))
        .with_lazy_flush_interval(2)
        .with_timeouts_for_max_latency(600)
}

/// That configuration on a node with two tree links and three lazy ones,
/// the shape a node settles into.
fn settled_node() -> PlumtreeState<u32, ()> {
    let mut state = PlumtreeState::new(0, wan_config());
    state.sync_neighbors(&[1, 2, 3, 4, 5]);
    for peer in [3, 4, 5] {
        state.handle_message(peer, PlumtreeMessage::Prune, &mut PlumtreeOut::new());
    }
    state
}

/// The first receipt of `id` (id and payload as the simulator's), announced
/// and flushed.
fn receive(state: &mut PlumtreeState<u32, ()>, id: u128) {
    let mut out = PlumtreeOut::new();
    state.handle_message(1, PlumtreeMessage::Gossip { id, round: 3, payload: () }, &mut out);
    state.on_timer(PlumtreeTimer::LazyFlush, &mut out);
}

/// The count-bound path: the state is never told the time, every message
/// stays.
#[test]
fn state_costs_at_most_72_bytes_per_remembered_message() {
    let before = live();
    let mut state = settled_node();
    for id in 0..MESSAGES {
        receive(&mut state, id);
    }
    let owned = live() - before;

    assert_eq!(state.cached_len(), MESSAGES as usize);
    assert_eq!(state.queued_announcements(), 0, "flushed: only the store holds history");
    let per_message = owned as f64 / MESSAGES as f64;
    assert!(
        per_message <= 72.0,
        "{owned} B live for {MESSAGES} remembered messages = {per_message:.1} B each (limit 72)"
    );
}

/// The time-bound path: the same messages one `ihave_timeout` apart, about
/// what a broadcast takes to drain in `sim_plumtree_wan_churn`. The state
/// holds one retention window of them however long the run.
#[test]
fn state_stops_growing_once_the_clock_runs_past_the_horizon() {
    let before = live();
    let mut state = settled_node();
    let (tick, window) = (state.config().ihave_timeout, state.config().retention());
    let held = (window / tick) as usize;
    let run = |state: &mut PlumtreeState<u32, ()>, ids: std::ops::Range<u128>| {
        for id in ids {
            state.advance(id as u64 * tick);
            receive(state, id);
        }
        (live() - before, state.cached_len())
    };
    let (one_run, held_then) = run(&mut state, 0..MESSAGES);
    let (two_runs, held_now) = run(&mut state, MESSAGES..2 * MESSAGES);

    assert_eq!((held_then, held_now), (held, held), "one window of ids: {window} / {tick}");
    assert!(state.has_seen(2 * MESSAGES - 1) && !state.has_seen(2 * MESSAGES - 1 - held as u128));
    const LIMIT: isize = 8 * 1024;
    assert!(
        one_run <= LIMIT && two_runs <= one_run,
        "{one_run} B live after {MESSAGES} messages, {two_runs} B after twice as many \
         (limit {LIMIT}; the count-bound store holds 50,000 B)"
    );
}

/// A node with tree links only: every receipt is pushed on and announced to
/// nobody, so none of the 740 payloads of 8 KiB stays. What is left is the
/// id store: the 72 B per message of the simulator's `()` payload, plus the
/// 16 bytes an 8-byte payload handle widens each of the map's 1,024 slots by
/// (a `u128`-keyed slot grows in steps of 16). One kept payload would be
/// 8,192 B more.
#[test]
fn payloads_announced_to_nobody_are_not_kept() {
    type Page = std::rc::Rc<[u8; 8 * 1024]>;
    let before = live();
    let mut state: PlumtreeState<u32, Page> = PlumtreeState::new(0, wan_config());
    state.sync_neighbors(&[1, 2, 3, 4, 5]);
    for id in 0..MESSAGES {
        let mut out = PlumtreeOut::new();
        let payload = Page::new([0; 8 * 1024]);
        state.handle_message(1, PlumtreeMessage::Gossip { id, round: 3, payload }, &mut out);
        assert_eq!(out.deliveries.len(), 1);
    }
    let owned = live() - before;

    assert_eq!((state.cached_len(), state.held_payloads()), (MESSAGES as usize, 0));
    let per_message = owned as f64 / MESSAGES as f64;
    let limit = 72.0 + 16.0 * 1024.0 / MESSAGES as f64;
    assert!(
        per_message <= limit,
        "{owned} B live for {MESSAGES} messages = {per_message:.1} B each (limit {limit:.1})"
    );
}
