//! One clock abstraction over the two time domains traces come from.
//!
//! The simulator stamps events in *virtual* time units — deterministic,
//! reproducible, comparable across runs. The reactor stamps events with
//! the wall clock — microseconds since the reactor started. A
//! [`TraceEvent`](crate::trace::TraceEvent) carries a bare `u64`; which
//! domain it lives in is a property of the producer, reported alongside
//! the stream as a [`TimeDomain`].

use std::cell::Cell;
use std::time::Instant;

/// The unit/epoch a producer's timestamps are expressed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeDomain {
    /// Deterministic simulated time units (the event-queue clock).
    Virtual,
    /// Microseconds of wall-clock time since the producer started.
    WallMicros,
}

impl std::fmt::Display for TimeDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeDomain::Virtual => write!(f, "virtual"),
            TimeDomain::WallMicros => write!(f, "wall_us"),
        }
    }
}

/// A monotonic source of trace timestamps.
pub trait Clock {
    /// The current time in this clock's domain.
    fn now(&self) -> u64;
    /// Which domain [`Clock::now`] reports in.
    fn domain(&self) -> TimeDomain;
}

/// The simulator's clock: holds whatever virtual time the event loop last
/// [advanced](VirtualClock::advance_to) it to. Interior mutability lets
/// the owning simulator hand `&self` to trace producers mid-event.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Cell<u64>,
}

impl VirtualClock {
    /// Creates a virtual clock at time zero.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Moves the clock forward to `time` (never backward — a late event
    /// must not rewind history).
    pub fn advance_to(&self, time: u64) {
        self.now.set(self.now.get().max(time));
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> u64 {
        self.now.get()
    }

    fn domain(&self) -> TimeDomain {
        TimeDomain::Virtual
    }
}

/// Wall-clock time as microseconds since the clock was created.
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Starts a wall clock; `now()` counts from this moment.
    pub fn new() -> WallClock {
        WallClock { epoch: Instant::now() }
    }

    /// What [`Clock::now`] read, or will read, at `instant`: for a caller
    /// that already holds a reading and wants no second one (0 for an
    /// instant before the clock was created).
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_micros() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    fn domain(&self) -> TimeDomain {
        TimeDomain::WallMicros
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_never_rewinds() {
        let clock = VirtualClock::new();
        clock.advance_to(10);
        clock.advance_to(5);
        assert_eq!(clock.now(), 10);
        assert_eq!(clock.domain(), TimeDomain::Virtual);
    }

    #[test]
    fn wall_clock_is_monotone_from_epoch() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
        assert_eq!(clock.domain(), TimeDomain::WallMicros);
        assert_eq!(TimeDomain::WallMicros.to_string(), "wall_us");
    }
}
