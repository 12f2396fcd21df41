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
//! tick ahead), where a push is an O(1) append to the tick's FIFO and a pop
//! an O(1) take from its front — FIFO order within a tick holds *by
//! construction* instead of by comparison. A tick's FIFO is a chain of
//! fixed-size chunks drawn from one shared pool and returned to it as they
//! drain, so the storage the ring keeps is the peak of events in flight
//! plus at most one partial chunk per populated tick, however busy any
//! single tick once was.
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

/// Event slots per chunk of a tick's FIFO. A tick holds a chain of chunks,
/// so the storage it takes from the pool rounds its event count up to a
/// multiple of this: smaller chunks waste less per populated tick but cost
/// more chain steps per event. At 256, with the simulator's 80-byte
/// events, a nearly empty tick holds 20 KiB. On the heavy-tail benchmark
/// (seed 1, `--seconds 10`) 256 peaks at 21.1 MB, 64 at 20.6 MB for four
/// times the chain steps, and 1,024 at 26.4 MB.
const CHUNK: usize = 256;

/// The chunk index that ends a chain or marks a bucket without one.
const NIL: u32 = u32::MAX;

/// A fixed-size piece of one tick's FIFO: at most [`CHUNK`] events in
/// `seq` order, then the tick's next chunk.
#[derive(Debug, Clone)]
struct Chunk<P> {
    events: VecDeque<Scheduled<P>>,
    next: u32,
}

/// One tick's FIFO: a chain of chunks from `head` (popped) to `tail`
/// (pushed), both [`NIL`] when the bucket owns none.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket { head: NIL, tail: NIL };
}

/// The calendar ring: bucket `time % RING` holds the events of tick
/// `time` while `cursor ≤ time < cursor + RING`.
///
/// Invariants:
/// * `overflow` holds exactly the events with `time ≥ cursor + RING`
///   (restored by [`BucketRing::refill`] on every cursor advance);
/// * `overdue` holds events pushed with `time < cursor` — impossible in
///   the simulator (latency ≥ 1 and the cursor trails the last pop) but
///   kept exact for the public API;
/// * within one bucket events sit in `seq` order along its chain: direct
///   pushes append in insertion order, and refills from the sorted
///   overflow happen before any later (higher-`seq`) push can target the
///   same tick;
/// * every chunk is either in exactly one bucket's chain or in `free`, and
///   every chunk of a chain but its tail is non-empty; only the cursor's
///   bucket may hold an empty chunk, which goes back to `free` when the
///   cursor leaves. So the chunks ever allocated are at most the peak,
///   over time, of each populated tick's events in whole chunks plus the
///   cursor's: storage follows the events in flight, not the busiest tick
///   each bucket has seen.
#[derive(Debug, Clone)]
struct BucketRing<P> {
    buckets: Vec<Bucket>,
    /// Every chunk ever allocated, indexed by the chains and `free`.
    chunks: Vec<Chunk<P>>,
    /// Empty chunks awaiting the next tick that needs one.
    free: Vec<u32>,
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
            buckets: vec![Bucket::EMPTY; RING],
            chunks: Vec::new(),
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

    /// Appends an in-window `event` to its tick's tail chunk, chaining a
    /// chunk from the pool when the bucket owns none or its tail is full.
    #[inline]
    fn place(&mut self, event: Scheduled<P>) {
        let slot = (event.time % RING as u64) as usize;
        let mut tail = self.buckets[slot].tail;
        if tail == NIL || self.chunks[tail as usize].events.len() == CHUNK {
            let fresh = self.take_chunk();
            match tail {
                NIL => self.buckets[slot].head = fresh,
                _ => self.chunks[tail as usize].next = fresh,
            }
            self.buckets[slot].tail = fresh;
            tail = fresh;
        }
        self.chunks[tail as usize].events.push_back(event);
        self.ring_len += 1;
    }

    /// An empty chunk from the pool, or a newly allocated one.
    fn take_chunk(&mut self) -> u32 {
        if let Some(index) = self.free.pop() {
            return index;
        }
        let index = u32::try_from(self.chunks.len()).expect("fewer than 2^32 chunks");
        self.chunks.push(Chunk { events: VecDeque::with_capacity(CHUNK), next: NIL });
        index
    }

    /// Moves the cursor off its (empty) bucket to tick `to`, returning the
    /// bucket's chunk to the pool and pulling newly visible overflow
    /// events in.
    fn advance(&mut self, to: u64) {
        let spent = (self.cursor % RING as u64) as usize;
        let head = std::mem::replace(&mut self.buckets[spent], Bucket::EMPTY).head;
        if head != NIL {
            debug_assert!(self.chunks[head as usize].events.is_empty(), "advance off a live tick");
            self.free.push(head);
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
            let slot = (self.cursor % RING as u64) as usize;
            let head = self.buckets[slot].head;
            if head != NIL {
                let chunk = &mut self.chunks[head as usize];
                if let Some(event) = chunk.events.pop_front() {
                    // A drained chunk with a successor goes back at once;
                    // the tail stays for later pushes to the same tick.
                    if chunk.events.is_empty() && chunk.next != NIL {
                        self.buckets[slot].head = std::mem::replace(&mut chunk.next, NIL);
                        self.free.push(head);
                    }
                    self.ring_len -= 1;
                    return Some(event);
                }
            }
            // Ring is non-empty, so a populated bucket lies within RING
            // steps; each advance may pull newly-visible overflow events.
            self.advance(self.cursor + 1);
        }
    }

    fn clear(&mut self) {
        for chunk in &mut self.chunks {
            chunk.events.clear();
            chunk.next = NIL;
        }
        self.buckets.fill(Bucket::EMPTY);
        self.free.clear();
        self.free.extend((0..self.chunks.len() as u32).rev());
        self.ring_len = 0;
        self.overdue.clear();
        self.overflow.clear();
    }

    /// Heap bytes of event storage held: every chunk's slots, in a chain
    /// or pooled, and the capacity of both heaps.
    fn retained_bytes(&self) -> usize {
        let chunk_slots: usize = self.chunks.iter().map(|c| c.events.capacity()).sum();
        let heap_slots = self.overdue.capacity() + self.overflow.capacity();
        (chunk_slots + heap_slots) * std::mem::size_of::<Scheduled<P>>()
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

    /// Heap bytes of event storage the queue holds, pending or pooled for
    /// reuse: at most the peak of events in flight plus one chunk per
    /// populated tick, and the two heaps' capacity.
    pub fn retained_bytes(&self) -> usize {
        self.ring.retained_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cmp::Reverse;
    use std::collections::BTreeMap;

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
        // Two populated ticks of WAVE events each, every chain rounded up
        // to whole chunks.
        let retained = chunk_slots(&q.ring);
        assert!(retained <= 4 * WAVE, "{retained} event slots retained for waves of {WAVE}");
        q.clear();
        assert!(q.ring.buckets.iter().all(|b| b.head == NIL), "clear() recycles too");
        assert_eq!(q.ring.free.len(), q.ring.chunks.len());
        assert_eq!(chunk_slots(&q.ring), retained, "clear() keeps the pool");
    }

    /// Event slots allocated over all chunks, chained or pooled.
    fn chunk_slots<P>(ring: &BucketRing<P>) -> usize {
        ring.chunks.iter().map(|c| c.events.capacity()).sum()
    }

    /// A queue beside a `(time, seq)` reference model that also counts the
    /// events pending per tick and their peaks.
    #[derive(Default)]
    struct Tracked {
        q: EventQueue<u32>,
        reference: BinaryHeap<Reverse<(u64, u64)>>,
        pending: BTreeMap<u64, usize>,
        peak_in_flight: usize,
        peak_ticks: usize,
    }

    impl Tracked {
        fn push(&mut self, time: u64, hops: u32) {
            self.reference.push(Reverse((time, self.q.next_seq)));
            self.q.push(time, id(0), id(1), hops);
            *self.pending.entry(time).or_default() += 1;
            self.peak_in_flight = self.peak_in_flight.max(self.q.len());
            self.peak_ticks = self.peak_ticks.max(self.pending.len());
        }

        fn pop(&mut self) -> Option<Scheduled<u32>> {
            let e = self.q.pop()?;
            let Reverse(expected) = self.reference.pop().expect("model holds as many events");
            assert_eq!((e.time, e.seq), expected);
            match self.pending.get_mut(&e.time) {
                Some(1) => drop(self.pending.remove(&e.time)),
                Some(count) => *count -= 1,
                None => unreachable!("popped an event the model does not hold"),
            }
            Some(e)
        }
    }

    #[test]
    fn chunk_storage_follows_the_events_in_flight_under_a_heavy_tail() {
        // The WAN shape: a cycle lands a burst on one tick, then every
        // event forwards a few hops, each a `Latency::log_normal(2, 600)`
        // draw (1 to 64 ticks) ahead, and every 16th hop also arms a timer
        // past the ring window, through the overflow heap. Bursts land on
        // every bucket in turn and spread over dozens of ticks; the storage
        // kept must follow the peak in flight, not the busiest tick each
        // bucket has seen.
        const BURST: usize = 4_000;
        let model = crate::Latency::log_normal(2, 600).model;
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = Tracked::default();
        let mut now = 0;
        for _ in 0..40 {
            for _ in 0..BURST {
                t.push(now + 1, 4);
            }
            while let Some(e) = t.pop() {
                now = e.time;
                if e.payload > 0 {
                    t.push(now + model.sample(&mut rng), e.payload - 1);
                    if e.seq % 16 == 0 {
                        t.push(now + RING as u64 + 40, 0);
                    }
                }
            }
        }
        assert!(t.reference.is_empty());
        let (peak_in_flight, peak_ticks) = (t.peak_in_flight, t.peak_ticks);
        assert!(peak_ticks >= 20, "only {peak_ticks} ticks populated at once");
        assert!(t.q.ring.overflow.capacity() > 0, "the timers must pass through the overflow");
        // Chunks in use at any instant: each populated tick's events
        // rounded up to whole chunks, plus the cursor's drained one.
        let bound = peak_in_flight + CHUNK * (peak_ticks + 1);
        let retained = chunk_slots(&t.q.ring);
        assert!(
            retained <= bound,
            "{retained} event slots retained; {peak_in_flight} in flight over {peak_ticks} ticks at peak"
        );
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
