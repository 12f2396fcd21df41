//! Heap a live node's metric registries hold for their names.
//!
//! A flood node keeps two registries, its own and the mirror its handle
//! reads, with 22 counters each. When every entry owned a `String`, the
//! pair held 46 heap strings, about 2.8 KB per node and some 7 MB of the
//! 2,000-node `live_flood_small` peak. An entry now holds a `&'static str`
//! and a value: a registry is one buffer, and a name that is not canonical
//! is stored once per process, however many registries hold it.
//!
//! A test binary of its own, counting per thread: libtest runs each test
//! on a thread of its own and keeps books on the main one, and none of
//! that may be counted into a measurement.

use hyparview_net::{Cluster, NetConfig};
use hyparview_obsv::{names, Registry};
use hyparview_plumtree::FrameCounters;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Bytes and blocks this thread has allocated and not freed. `const`
    /// initialisation and no destructor: touching them never allocates,
    /// which a global allocator must not do.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

/// `try_with` fails only while a thread is being torn down, after its test.
fn count(bytes: isize, blocks: isize) {
    let _ = LIVE.try_with(|live| {
        let (b, n) = live.get();
        live.set((b + bytes, n + blocks));
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches one
// const-initialised thread-local without a destructor and neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), -1);
        // SAFETY: the caller's obligations for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 0);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `make` returns, and the bytes and blocks it holds on this thread.
fn held<T>(make: impl FnOnce() -> T) -> (T, isize, isize) {
    let before = LIVE.with(Cell::get);
    let value = make();
    let after = LIVE.with(Cell::get);
    (value, after.0 - before.0, after.1 - before.1)
}

/// Bytes of one entry: a registry that registers one name through
/// `register_counters` holds room for exactly that one.
fn entry_bytes() -> isize {
    let (_registry, bytes, _) = held(|| {
        let mut registry = Registry::new();
        registry.register_counters(&[names::FRAMES_SENT]);
        registry
    });
    bytes
}

/// The 22 counters a flood node registers, in its order: the shared
/// transport names, the mode check and the `hyparview.*` block.
fn flood_node_registry() -> Registry {
    let mut registry = Registry::new();
    FrameCounters::register(&mut registry);
    registry.counter(names::NET_MODE_MISMATCHED);
    registry.register_counters(&hyparview_core::stats::METRIC_NAMES);
    registry
}

#[test]
fn a_flood_nodes_counters_are_one_buffer_and_so_is_a_clone() {
    let entry = entry_bytes();
    let (registry, bytes, blocks) = held(flood_node_registry);
    assert_eq!(registry.counters().count(), 22);
    assert_eq!((bytes, blocks), (22 * entry, 1), "one buffer of 22 entries, no name copied");
    let (_mirror, bytes, blocks) = held(|| registry.clone());
    assert_eq!((bytes, blocks), (22 * entry, 1), "a clone is one buffer too");
}

/// The same for a running node's published mirror, which its handle clones.
#[test]
fn a_live_nodes_published_metrics_clone_into_one_buffer() {
    let entry = entry_bytes();
    let cluster = Cluster::new().unwrap();
    let node = cluster.spawn_node("127.0.0.1:0".parse().unwrap(), NetConfig::default()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.metrics().counters().count() < 22 {
        assert!(Instant::now() < deadline, "the node never published its registry");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (metrics, bytes, blocks) = held(|| node.metrics());
    assert_eq!(metrics.counters().count(), 22);
    assert_eq!((bytes, blocks), (22 * entry, 1));
}

#[test]
fn a_dynamic_name_is_stored_once_however_many_registries_hold_it() {
    let name = |i: usize| format!("footprint.counter_{i}");
    // What a registry holds for one name that costs no copy: a canonical one.
    let (_canonical, plain, _) = held(|| {
        let mut registry = Registry::new();
        registry.counter(names::FRAMES_SENT);
        registry
    });
    // The first registration anywhere copies the name once.
    let (first_registry, first, _) = held(|| {
        let mut registry = Registry::new();
        registry.counter(&name(7));
        registry
    });
    assert!(first > plain, "the first registration stores the name ({first} B, {plain} B)");
    let (_registries, bytes, blocks) = held(|| {
        (0..100)
            .map(|_| {
                let mut registry = Registry::new();
                registry.counter(&name(7));
                registry
            })
            .collect::<Vec<_>>()
    });
    let vec = held(|| Vec::<Registry>::with_capacity(100)).1;
    assert_eq!(bytes - vec, 100 * plain, "a hundred more registries copy the name no more");
    assert_eq!(blocks, 101);
    // Merging shares the stored name too.
    let (_merged, bytes, blocks) = held(|| {
        let mut merged = Registry::new();
        merged.merge(&first_registry);
        merged
    });
    assert_eq!((bytes, blocks), (plain, 1));
}
