//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: ties in virtual time are broken
//! by insertion order, which makes the whole simulation a pure function of
//! the scenario seed — a property the experiments rely on and the property
//! tests verify.
//!
//! The queue is a hierarchical calendar queue: a ring of per-tick FIFO
//! buckets covers the near future, a sorted overflow heap holds the latency
//! tail. The simulator's hot path is unit latency (every event lands one
//! tick ahead), where a push is an O(1) `VecDeque::push_back` and a pop an
//! O(1) `pop_front` — FIFO order within a tick holds *by construction*
//! instead of by comparison. An empty bucket other than the cursor's owns
//! no storage: buffers travel with the populated ticks (two under unit
//! latency) instead of staying behind in every bucket the cursor has swept.
//!
//! The property tests drive it with random workloads and compare pop-by-pop
//! against a `BinaryHeap` reference model of the `(time, seq)` order.

use hyparview_core::SimId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event scheduled for delivery at a virtual time.
#[derive(Debug, Clone)]
pub struct Scheduled<P> {
    /// Virtual delivery time.
    pub time: u64,
    /// Insertion sequence number (FIFO tie-break).
    pub seq: u64,
    /// Destination node.
    pub to: SimId,
    /// Sender node.
    pub from: SimId,
    /// Event payload.
    pub payload: P,
}

impl<P> PartialEq for Scheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<P> Eq for Scheduled<P> {}

impl<P> PartialOrd for Scheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for Scheduled<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that the overdue/overflow heaps (max-heaps) pop the
        // earliest (time, seq) first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Number of per-tick buckets in the calendar ring. Covers every draw of
/// the built-in latency models at their defaults (`log_normal` caps at
/// `32 × median`); draws beyond the window overflow into a heap and are
/// folded back in as the cursor advances, so the window size only affects
/// constants, never correctness.
const RING: usize = 256;

/// The calendar ring: bucket `time % RING` holds the events of tick
/// `time` while `cursor ≤ time < cursor + RING`.
///
/// Invariants:
/// * `overflow` holds exactly the events with `time ≥ cursor + RING`
///   (restored by [`BucketRing::refill`] on every cursor advance);
/// * `overdue` holds events pushed with `time < cursor` — impossible in
///   the simulator (latency ≥ 1 and the cursor trails the last pop) but
///   kept exact for the public API;
/// * within one bucket events sit in `seq` order: direct pushes append in
///   insertion order, and refills from the sorted overflow happen before
///   any later (higher-`seq`) push can target the same tick;
/// * an empty bucket other than the cursor's owns no storage: the cursor
///   hands its drained bucket's buffer (capacity kept) to `free` when it
///   leaves, and a bucket takes one from there on its first push.
#[derive(Debug, Clone)]
struct BucketRing<P> {
    buckets: Vec<VecDeque<Scheduled<P>>>,
    /// Emptied buffers (capacity kept) awaiting the next populated tick.
    free: Vec<VecDeque<Scheduled<P>>>,
    /// Virtual time of the tick at the ring head. Only advances.
    cursor: u64,
    /// Events currently in the ring (not counting overdue/overflow).
    ring_len: usize,
    overdue: BinaryHeap<Scheduled<P>>,
    overflow: BinaryHeap<Scheduled<P>>,
}

impl<P> BucketRing<P> {
    fn new() -> Self {
        BucketRing {
            buckets: (0..RING).map(|_| VecDeque::new()).collect(),
            free: Vec::new(),
            cursor: 0,
            ring_len: 0,
            overdue: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.ring_len + self.overdue.len() + self.overflow.len()
    }

    fn push(&mut self, event: Scheduled<P>) {
        if event.time < self.cursor {
            self.overdue.push(event);
        } else if event.time - self.cursor >= RING as u64 {
            self.overflow.push(event);
        } else {
            self.place(event);
        }
    }

    /// Appends an in-window `event` to its tick's bucket, on a recycled buffer if it owns none.
    #[inline]
    fn place(&mut self, event: Scheduled<P>) {
        let bucket = &mut self.buckets[(event.time % RING as u64) as usize];
        if bucket.capacity() == 0 {
            *bucket = self.free.pop().unwrap_or_default();
        }
        bucket.push_back(event);
        self.ring_len += 1;
    }

    /// Moves the cursor off its (empty) bucket to tick `to`, recycling the
    /// bucket's buffer and pulling newly visible overflow events in.
    fn advance(&mut self, to: u64) {
        let spent = &mut self.buckets[(self.cursor % RING as u64) as usize];
        if spent.capacity() > 0 {
            self.free.push(std::mem::take(spent));
        }
        self.cursor = to;
        self.refill();
    }

    /// Moves every overflow event that entered the ring window into its
    /// bucket. The overflow heap pops in `(time, seq)` order, so per-bucket
    /// appends preserve `seq` order.
    fn refill(&mut self) {
        while self.overflow.peek().is_some_and(|e| e.time - self.cursor < RING as u64) {
            let event = self.overflow.pop().expect("peeked");
            self.place(event);
        }
    }

    fn pop(&mut self) -> Option<Scheduled<P>> {
        // Overdue events have time < cursor — strictly before anything in
        // the ring or the overflow, and totally ordered by the heap.
        if let Some(event) = self.overdue.pop() {
            return Some(event);
        }
        if self.ring_len == 0 {
            // The whole window is empty: jump straight to the next
            // populated tick instead of sweeping empty buckets.
            let next_time = self.overflow.peek()?.time;
            self.advance(next_time);
        }
        loop {
            let bucket = (self.cursor % RING as u64) as usize;
            if let Some(event) = self.buckets[bucket].pop_front() {
                self.ring_len -= 1;
                return Some(event);
            }
            // Ring is non-empty, so a populated bucket lies within RING
            // steps; each advance may pull newly-visible overflow events.
            self.advance(self.cursor + 1);
        }
    }

    fn clear(&mut self) {
        for bucket in self.buckets.iter_mut().filter(|b| b.capacity() > 0) {
            bucket.clear();
            self.free.push(std::mem::take(bucket));
        }
        self.ring_len = 0;
        self.overdue.clear();
        self.overflow.clear();
    }
}

/// A queue of [`Scheduled`] events popped in `(time, seq)` order, with
/// FIFO tie-breaking at equal times.
#[derive(Debug, Clone)]
pub struct EventQueue<P> {
    ring: BucketRing<P>,
    next_seq: u64,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        EventQueue { ring: BucketRing::new(), next_seq: 0 }
    }
}

impl<P> EventQueue<P> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` from `from` to `to` at absolute `time`.
    pub fn push(&mut self, time: u64, from: SimId, to: SimId, payload: P) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ring.push(Scheduled { time, seq, to, from, payload });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Scheduled<P>> {
        self.ring.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    fn id(i: usize) -> SimId {
        SimId::new(i)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(5, id(0), id(1), "late");
        q.push(1, id(0), id(1), "early");
        q.push(3, id(0), id(1), "middle");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["early", "middle", "late"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..100 {
            q.push(7, id(0), id(1), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn mixed_times_and_sequences() {
        let mut q: EventQueue<(u64, u32)> = EventQueue::new();
        q.push(2, id(0), id(1), (2, 0));
        q.push(1, id(0), id(1), (1, 0));
        q.push(2, id(0), id(1), (2, 1));
        q.push(1, id(0), id(1), (1, 1));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![(1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn len_and_clear() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(0, id(0), id(1), 1);
        q.push(0, id(0), id(1), 2);
        q.push(RING as u64 * 3, id(0), id(1), 3); // overflow territory
        assert_eq!(q.len(), 3);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn carries_sender_and_receiver() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(0, id(3), id(9), 1);
        let e = q.pop().unwrap();
        assert_eq!(e.from, id(3));
        assert_eq!(e.to, id(9));
    }

    #[test]
    fn overflow_events_fold_back_into_the_ring() {
        // Times far beyond the ring window: the queue must park them in the
        // overflow and recover the exact global order of the reference
        // model, a min-heap over `(time, seq, payload)`.
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model = BinaryHeap::new();
        let times = [0u64, 1, RING as u64, RING as u64 * 5 + 3, 2, RING as u64, 1, 40_000];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, id(0), id(1), i);
            model.push(Reverse((t, i as u64, i)));
        }
        while let Some(Reverse(expected)) = model.pop() {
            let e = q.pop().expect("queue ran dry before the model");
            assert_eq!((e.time, e.seq, e.payload), expected);
        }
        assert!(q.pop().is_none(), "queue holds more events than the model");
    }

    #[test]
    fn interleaved_push_pop_advances_the_window() {
        // Unit-latency pattern: every pop schedules a successor one tick
        // later, sliding the cursor far past the initial window.
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(1, id(0), id(1), 0);
        let mut last_time = 0;
        for _ in 0..(RING * 4) {
            let e = q.pop().expect("event pending");
            assert!(e.time >= last_time);
            last_time = e.time;
            q.push(e.time + 1, id(0), id(1), e.payload + 1);
        }
        assert_eq!(q.len(), 1);
        assert!(last_time >= RING as u64 * 3, "cursor must slide: {last_time}");
    }

    #[test]
    fn bucket_storage_follows_the_populated_window_not_the_ring() {
        // The Fig. 2 shape: every event of a wave lands one tick ahead, so
        // two ticks are populated at any instant while the cursor sweeps
        // the whole ring. Buffers must travel with the window; a ring whose
        // buckets each keep their high-water capacity retains RING waves.
        const WAVE: usize = 20_000;
        let mut q: EventQueue<usize> = EventQueue::new();
        for i in 0..WAVE {
            q.push(1, id(0), id(1), i);
        }
        for _ in 0..300 * WAVE {
            let e = q.pop().expect("steady state");
            q.push(e.time + 1, e.from, e.to, e.payload);
        }
        assert_eq!(q.len(), WAVE);
        assert!(q.ring.cursor > RING as u64, "the cursor must have swept every bucket");
        // Two buffers, each grown by doubling to at most 2 × WAVE slots.
        let retained = retained_capacity(&q.ring);
        assert!(retained <= 4 * WAVE, "{retained} event slots retained for waves of {WAVE}");
        q.clear();
        assert!(q.ring.buckets.iter().all(|b| b.capacity() == 0), "clear() recycles too");
        assert!(retained_capacity(&q.ring) <= 4 * WAVE);
    }

    /// Event slots allocated over all buckets and the free list.
    fn retained_capacity<P>(ring: &BucketRing<P>) -> usize {
        ring.buckets.iter().chain(&ring.free).map(VecDeque::capacity).sum()
    }

    #[test]
    fn past_pushes_still_pop_in_global_order() {
        // Push an event *earlier* than an already-popped time. The
        // simulator never does this (latency ≥ 1), but the structure must
        // stay exact: past events pop before everything pending.
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(10, id(0), id(1), "ten");
        q.push(11, id(0), id(1), "eleven");
        assert_eq!(q.pop().unwrap().payload, "ten");
        q.push(3, id(0), id(1), "three");
        q.push(2, id(0), id(1), "two");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["two", "three", "eleven"]);
    }
}
