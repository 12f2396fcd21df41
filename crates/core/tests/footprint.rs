//! Heap footprint of the duplicate-suppression window, per remembered id.
//!
//! Every live flood node keeps one `RecentSet<u128>` of the broadcast ids it
//! has seen, so its cost is multiplied by the number of nodes: 2,000 of them
//! at 128 ids in the benchmark's `live_flood_small`, 8,192 ids by default.
//! The layout before the ring (a `HashMap` plus a `VecDeque`, every key
//! stored twice in a half-empty table) held 6,506 B for 128 ids; these
//! bounds only get tighter.
//!
//! A test binary of its own, counting per thread: libtest runs each test
//! on a thread of its own and keeps books on the main one, and none of
//! that may be counted into a measurement.

use hyparview_core::RecentSet;
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

/// Live bytes of a `RecentSet<u128>` of `capacity` ids, once full and again
/// after another `capacity` ids have evicted the first ones: a full window
/// costs the same however long it runs.
fn full_window(capacity: usize) -> (isize, isize) {
    let before = live();
    let mut seen = RecentSet::new(capacity);
    let ids = capacity as u128;
    for id in 0..ids {
        assert!(seen.insert(id.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    }
    let full = live() - before;
    for id in ids..2 * ids {
        assert!(seen.insert(id.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    }
    assert_eq!(seen.len(), capacity);
    (full, live() - before)
}

/// The benchmark's live window: 128 ids of 16 B each in the ring plus a
/// 256-slot `u16` index, 2,560 B.
#[test]
fn a_full_window_of_128_ids_holds_at_most_3_200_bytes() {
    let (full, later) = full_window(128);
    assert!(full <= 3_200, "{full} B live for 128 ids (limit 3,200; 6,506 with two copies)");
    assert_eq!(later, full, "evicting keeps the footprint");
}

/// The default window (`NetConfig::dedup_capacity`): 8,192 ids and a
/// 16,384-slot index, 163,840 B.
#[test]
fn a_full_window_of_8_192_ids_holds_at_most_163_840_bytes() {
    let (full, later) = full_window(8_192);
    assert!(full <= 163_840, "{full} B live for 8,192 ids (limit 163,840)");
    assert_eq!(later, full, "evicting keeps the footprint");
}
