//! Structured trace events at protocol decision points.
//!
//! A [`TraceEvent`] records *that a node made a decision* — swapped a view
//! member, promoted a tree link, fired a timer — with a timestamp (the
//! simulator's virtual time units, or the reactor's
//! [`WallClock`](crate::WallClock) microseconds) and small integer
//! operands. Producers push events into a [`TraceSink`]; the stock
//! implementation is [`TraceRing`], a bounded ring that overwrites the
//! oldest events and counts what it dropped, so tracing can stay on in a
//! long run without unbounded memory.
//!
//! Node and peer identities are `u64`: the simulator uses node indices,
//! the TCP runtime uses the peer's port (unique per node in a test
//! cluster, and stable across snapshots).

use std::collections::VecDeque;

/// What kind of timer fired (the operand of [`TraceKind::TimerFired`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Periodic membership shuffle.
    Shuffle,
    /// Plumtree missing-message timer (triggers a Graft).
    MissingMsg,
    /// Plumtree lazy-queue flush timer (ships `IHave` batches).
    LazyFlush,
}

impl std::fmt::Display for TimerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimerKind::Shuffle => write!(f, "shuffle"),
            TimerKind::MissingMsg => write!(f, "missing_msg"),
            TimerKind::LazyFlush => write!(f, "lazy_flush"),
        }
    }
}

/// The decision a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A peer entered the out-view (HyParView's active view) during one
    /// membership step.
    NeighborUp {
        /// The peer that came up.
        peer: u64,
    },
    /// A peer left the out-view (HyParView's active view) during one
    /// membership step.
    NeighborDown {
        /// The peer that went down.
        peer: u64,
    },
    /// A broadcast-tree link was promoted to eager (Graft received).
    EagerPromote {
        /// The peer promoted to the eager set.
        peer: u64,
    },
    /// A broadcast-tree link was demoted to lazy (Prune received).
    LazyDemote {
        /// The peer demoted to the lazy set.
        peer: u64,
    },
    /// This node sent a Graft to repair or optimize its tree.
    GraftSent {
        /// Graft target.
        peer: u64,
        /// Message id that provoked the graft (0 for optimization grafts).
        msg: u64,
    },
    /// This node pruned a redundant eager link.
    PruneSent {
        /// Prune target.
        peer: u64,
    },
    /// A timer fired.
    TimerFired {
        /// Which timer.
        timer: TimerKind,
    },
    /// A temporary connection (§4.3 shuffle reply / neighbor rejection)
    /// was closed deliberately after use.
    TempConnClose {
        /// The peer whose temporary connection closed.
        peer: u64,
    },
    /// A broadcast payload was delivered for the first time.
    Delivered {
        /// Broadcast id.
        msg: u64,
        /// Hops travelled before delivery.
        hops: u32,
    },
    /// An outbound frame was dropped by injected network failure (loss or
    /// partition). Recorded at the *sender*: the frame never reached the
    /// wire, so the receiver has nothing to trace.
    FrameDropped {
        /// The peer the frame was addressed to.
        peer: u64,
    },
    /// An admission request (`Join` or high-priority `Neighbor`) was
    /// rejected by the per-peer damping defense.
    AdmissionDamped {
        /// The damped requester.
        peer: u64,
    },
    /// The bounded-tenure defense rotated a long-lived active-view member
    /// out (forced swap to the passive view).
    TenureSwap {
        /// The rotated-out member.
        peer: u64,
    },
}

/// One timestamped decision made by one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp: virtual time units in the simulator, wall-clock
    /// microseconds since the node started in the reactor.
    pub time: u64,
    /// The deciding node (sim index or listen port).
    pub node: u64,
    /// The decision.
    pub kind: TraceKind,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={} node={} ", self.time, self.node)?;
        match self.kind {
            TraceKind::NeighborUp { peer } => write!(f, "neighbor_up peer={peer}"),
            TraceKind::NeighborDown { peer } => write!(f, "neighbor_down peer={peer}"),
            TraceKind::EagerPromote { peer } => write!(f, "eager_promote peer={peer}"),
            TraceKind::LazyDemote { peer } => write!(f, "lazy_demote peer={peer}"),
            TraceKind::GraftSent { peer, msg } => write!(f, "graft_sent peer={peer} msg={msg}"),
            TraceKind::PruneSent { peer } => write!(f, "prune_sent peer={peer}"),
            TraceKind::TimerFired { timer } => write!(f, "timer_fired timer={timer}"),
            TraceKind::TempConnClose { peer } => write!(f, "temp_conn_close peer={peer}"),
            TraceKind::Delivered { msg, hops } => write!(f, "delivered msg={msg} hops={hops}"),
            TraceKind::FrameDropped { peer } => write!(f, "frame_dropped peer={peer}"),
            TraceKind::AdmissionDamped { peer } => write!(f, "admission_damped peer={peer}"),
            TraceKind::TenureSwap { peer } => write!(f, "tenure_swap peer={peer}"),
        }
    }
}

/// Where trace events go. Implementations must be cheap: producers call
/// [`TraceSink::record`] from protocol hot paths.
pub trait TraceSink {
    /// Accepts one event.
    fn record(&mut self, event: TraceEvent);
}

/// A bounded ring of the most recent trace events.
#[derive(Debug, Clone)]
pub struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> TraceRing {
        assert!(capacity > 0, "a trace ring needs room for at least one event");
        TraceRing { capacity, events: VecDeque::with_capacity(capacity), dropped: 0 }
    }

    /// The ring's bound: how many events it retains at most.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// How many events were overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded (or everything drained).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Moves all retained events out, oldest first, leaving the ring empty
    /// (the publish path of a producer mirroring into a shared snapshot).
    pub fn drain(&mut self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.events.drain(..)
    }
}

impl TraceSink for TraceRing {
    fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut ring = TraceRing::new(2);
        for t in 0..5 {
            ring.record(TraceEvent { time: t, node: 0, kind: TraceKind::PruneSent { peer: 1 } });
        }
        let times: Vec<u64> = ring.events().map(|e| e.time).collect();
        assert_eq!(times, vec![3, 4]);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.drain().count(), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn events_render_for_humans() {
        let event =
            TraceEvent { time: 7, node: 3, kind: TraceKind::GraftSent { peer: 4, msg: 12 } };
        assert_eq!(event.to_string(), "t=7 node=3 graft_sent peer=4 msg=12");
        let fired = TraceEvent {
            time: 1,
            node: 2,
            kind: TraceKind::TimerFired { timer: TimerKind::LazyFlush },
        };
        assert_eq!(fired.to_string(), "t=1 node=2 timer_fired timer=lazy_flush");
        let dropped = TraceEvent { time: 9, node: 5, kind: TraceKind::FrameDropped { peer: 6 } };
        assert_eq!(dropped.to_string(), "t=9 node=5 frame_dropped peer=6");
        let damped = TraceEvent { time: 2, node: 0, kind: TraceKind::AdmissionDamped { peer: 8 } };
        assert_eq!(damped.to_string(), "t=2 node=0 admission_damped peer=8");
        let swap = TraceEvent { time: 3, node: 1, kind: TraceKind::TenureSwap { peer: 4 } };
        assert_eq!(swap.to_string(), "t=3 node=1 tenure_swap peer=4");
    }
}
