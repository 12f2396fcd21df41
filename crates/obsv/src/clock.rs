//! The reactor's trace clock.
//!
//! The simulator stamps [`TraceEvent`](crate::trace::TraceEvent)s in its
//! own virtual time units; the reactor stamps them with a [`WallClock`]:
//! microseconds since the node started.

use std::time::Instant;

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

    /// Microseconds since the clock was created.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// What [`WallClock::now`] read, or will read, at `instant`: for a
    /// caller that already holds a reading and wants no second one (0 for
    /// an instant before the clock was created).
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_micros() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_from_epoch() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
