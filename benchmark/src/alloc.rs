//! A counting global allocator that lives in the harness binary only, so
//! `*.allocs_per_*` need no feature flag in the program.
//!
//! Counting is switched on for traced runs; otherwise an allocation pays one
//! relaxed load. Counts are attributed to the driver thread (the one that
//! called [`mark_driver_thread`]) or to every other thread, which in a live
//! workload is the program's own `hpv-reactor`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocation count and bytes requested; its own cache line, so the driver
/// and the reactor do not share one while both allocate.
#[repr(align(64))]
struct Tally {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl Tally {
    const fn new() -> Tally {
        Tally { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) }
    }

    fn read(&self) -> Counts {
        Counts {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

// Relaxed everywhere: these are statistics and publish no other data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static DRIVER: Tally = Tally::new();
static OTHERS: Tally = Tally::new();

thread_local! {
    // `const` initialisation and no destructor: reading it never allocates,
    // which a global allocator must not do.
    static IS_DRIVER: Cell<bool> = const { Cell::new(false) };
}

pub struct Counting;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

impl Counts {
    pub fn since(self, earlier: Counts) -> Counts {
        Counts { allocs: self.allocs - earlier.allocs, bytes: self.bytes - earlier.bytes }
    }
}

fn count(size: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with` fails only while a thread is being torn down; those few
    // allocations are charged to "others".
    let tally = if IS_DRIVER.try_with(Cell::get).unwrap_or(false) { &DRIVER } else { &OTHERS };
    tally.allocs.fetch_add(1, Ordering::Relaxed);
    tally.bytes.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `count` only touches atomics and a
// const-initialised thread-local without a destructor, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing buffer is one more request to the allocator.
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Declares the calling thread to be the driver.
pub fn mark_driver_thread() {
    IS_DRIVER.with(|flag| flag.set(true));
}

pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Allocations made by the driver thread while counting was on.
pub fn driver() -> Counts {
    DRIVER.read()
}

/// Allocations made by every other thread while counting was on.
pub fn others() -> Counts {
    OTHERS.read()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests run on other threads and allocate while counting is on
    // here; they land in the "others" tally, so only the driver tally (this
    // thread alone) is compared exactly.
    #[test]
    fn counts_only_while_enabled_and_attributes_by_thread() {
        mark_driver_thread();
        let before = driver();
        let unobserved = vec![0u8; 4096];
        assert_eq!(driver(), before, "counting is off by default");
        drop(unobserved);

        set_enabled(true);
        let start = driver();
        let others_start = others();
        let buffer = std::hint::black_box(vec![0u8; 1000]);
        let grown = driver().since(start);
        assert_eq!((grown.allocs, grown.bytes), (1, 1000));
        drop(buffer);
        std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; 777]))).join().unwrap();
        set_enabled(false);
        let elsewhere = others().since(others_start);
        assert!(elsewhere.allocs >= 1 && elsewhere.bytes >= 777);
        // Spawning allocates on this thread too (the closure, the handle).
        assert!(driver().since(start).allocs >= 1);
    }
}
