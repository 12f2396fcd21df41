//! The open-loop generator's schedule: sends are due at fixed instants
//! whatever the system does, so a stall shows up as latency of the sends
//! behind it instead of silently lowering the offered load.

use crate::stats::Hist;

/// Due times `start + k / rate` for `k = 0, 1, ...` while they fall before
/// `start + duration`, all in nanoseconds on the caller's clock.
pub struct Schedule {
    start_ns: u64,
    rate_hz: f64,
    end_ns: u64,
    next: u64,
    /// How late each send was issued, nanoseconds after it was due.
    pub lag_ns: Hist,
}

impl Schedule {
    pub fn new(start_ns: u64, rate_hz: f64, duration_ns: u64) -> Schedule {
        assert!(rate_hz > 0.0, "an open loop needs a positive rate");
        Schedule { start_ns, rate_hz, end_ns: start_ns + duration_ns, next: 0, lag_ns: Hist::new() }
    }

    /// Computed from `k` each time, so rounding never accumulates.
    fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + (k as f64 * 1e9 / self.rate_hz).round() as u64
    }

    /// Whether every send of the schedule has been handed out.
    pub fn finished(&self) -> bool {
        self.due_ns(self.next) >= self.end_ns
    }

    /// The next send that is due at `now_ns`, as `(index, due time)`, or
    /// `None` when the generator is ahead of the schedule. A generator that
    /// fell behind gets the overdue sends one call after another, each timed
    /// from its own due instant: nothing is skipped and nothing is re-timed.
    pub fn poll(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        let due = self.due_ns(self.next);
        if self.finished() || due > now_ns {
            return None;
        }
        self.lag_ns.record(now_ns - due);
        self.next += 1;
        Some((self.next - 1, due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything the schedule hands out to a generator that polls long
    /// after the end.
    fn all_sends(mut schedule: Schedule) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| schedule.poll(u64::MAX / 2)).collect()
    }

    #[test]
    fn sends_fall_due_at_fixed_instants() {
        // 4 Hz for one second starting at t = 1 s: due at 1.00, 1.25, 1.50, 1.75.
        let mut schedule = Schedule::new(1_000_000_000, 4.0, 1_000_000_000);
        assert_eq!(schedule.poll(999_999_999), None);
        assert_eq!(schedule.poll(1_000_000_000), Some((0, 1_000_000_000)));
        assert_eq!(schedule.poll(1_000_000_001), None, "the second send is not due yet");
        assert_eq!(schedule.poll(1_250_000_040), Some((1, 1_250_000_000)));
        assert!(!schedule.finished());
        assert_eq!(all_sends(Schedule::new(1_000_000_000, 4.0, 1_000_000_000)).len(), 4);
    }

    #[test]
    fn a_stalled_generator_catches_up_and_its_lag_is_charged_to_each_send() {
        let mut schedule = Schedule::new(0, 10.0, 500_000_000);
        // The generator wakes at t = 350 ms: sends 0..=3 are overdue.
        let woke = 350_000_000;
        let handed: Vec<(u64, u64)> = std::iter::from_fn(|| schedule.poll(woke)).collect();
        assert_eq!(
            handed,
            vec![(0, 0), (1, 100_000_000), (2, 200_000_000), (3, 300_000_000)],
            "overdue sends keep their own due times"
        );
        assert_eq!(schedule.lag_ns.count(), 4);
        assert_eq!(schedule.lag_ns.max(), 350_000_000);
        assert!((schedule.lag_ns.mean() - 200_000_000.0).abs() < 1.0);
        assert_eq!(schedule.poll(400_000_000), Some((4, 400_000_000)));
        assert!(schedule.finished());
        assert_eq!(schedule.poll(u64::MAX / 2), None, "nothing is due after the end");
    }

    #[test]
    fn rates_that_do_not_divide_a_second_neither_drift_nor_overshoot() {
        // 3 Hz over 1 s: due at 0, 333.3 ms, 666.7 ms; the send at 1 s is out.
        let thirds = all_sends(Schedule::new(0, 3.0, 1_000_000_000));
        assert_eq!(thirds, vec![(0, 0), (1, 333_333_333), (2, 666_666_667)]);
        // A partial last period still gets its send.
        assert_eq!(all_sends(Schedule::new(0, 4.0, 1_100_000_000)).len(), 5);
        // 11 Hz over 100 s: send 1,099 is due at 99.909 s, not a rounding
        // error of 1,099 periods later.
        let long = all_sends(Schedule::new(0, 11.0, 100_000_000_000));
        assert_eq!(long.len(), 1_100);
        assert_eq!(long[1_099].1, 99_909_090_909);
    }
}
