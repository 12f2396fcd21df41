//! What the kernel reports about this process, read from `/proc`: memory
//! high-water mark, open descriptors, and per-thread CPU and scheduler
//! accounting. All of it is observed from outside the measured code.

use std::fs;

/// `VmHWM`, the resident-set high-water mark of the process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

/// Open file descriptors of the process.
pub fn open_fds() -> usize {
    // The directory handle used for the listing is itself one descriptor.
    fs::read_dir("/proc/self/fd").map(|dir| dir.count().saturating_sub(1)).unwrap_or(0)
}

/// The calling thread's kernel id.
pub fn current_tid() -> Option<u32> {
    fs::read_link("/proc/thread-self").ok()?.file_name()?.to_str()?.parse().ok()
}

/// Kernel ids of the threads of this process whose name is `name`.
pub fn threads_named(name: &str) -> Vec<u32> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    dir.flatten()
        .filter_map(|entry| entry.file_name().to_str()?.parse::<u32>().ok())
        .filter(|tid| {
            fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                .is_ok_and(|comm| comm.trim_end() == name)
        })
        .collect()
}

/// Cumulative scheduler accounting of one thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadUsage {
    /// Time on a CPU, nanoseconds (`schedstat`, exact).
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, nanoseconds.
    pub run_delay_ns: u64,
    /// User and system time in clock ticks (`stat`): only their ratio is
    /// used, to split `run_ns`, so the tick length does not matter.
    pub user_ticks: u64,
    pub sys_ticks: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl ThreadUsage {
    pub fn read(tid: u32) -> ThreadUsage {
        let base = format!("/proc/self/task/{tid}");
        let schedstat = fs::read_to_string(format!("{base}/schedstat")).unwrap_or_default();
        let mut sched = schedstat.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
        let (run_ns, run_delay_ns) = (sched.next().unwrap_or(0), sched.next().unwrap_or(0));
        let stat = fs::read_to_string(format!("{base}/stat")).unwrap_or_default();
        // Fields after the parenthesised name; utime and stime are the 14th
        // and 15th of the whole line, so the 12th and 13th after `)`.
        let after_name = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let mut fields = after_name.split_whitespace().skip(11);
        let mut tick = || fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
        let (user_ticks, sys_ticks) = (tick(), tick());
        let status = fs::read_to_string(format!("{base}/status")).unwrap_or_default();
        let ctx_switches = status_field(&status, "voluntary_ctxt_switches:")
            + status_field(&status, "nonvoluntary_ctxt_switches:");
        ThreadUsage { run_ns, run_delay_ns, user_ticks, sys_ticks, ctx_switches }
    }

    /// Usage accumulated since `earlier`.
    pub fn since(&self, earlier: &ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            run_delay_ns: self.run_delay_ns.saturating_sub(earlier.run_delay_ns),
            user_ticks: self.user_ticks.saturating_sub(earlier.user_ticks),
            sys_ticks: self.sys_ticks.saturating_sub(earlier.sys_ticks),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    /// `(user, system)` CPU microseconds: the exact on-CPU time split by the
    /// tick ratio (all of it counted as user when no tick was charged).
    pub fn cpu_us(&self) -> (f64, f64) {
        let total_us = self.run_ns as f64 / 1e3;
        let ticks = self.user_ticks + self.sys_ticks;
        if ticks == 0 {
            return (total_us, 0.0);
        }
        let sys = total_us * self.sys_ticks as f64 / ticks as f64;
        (total_us - sys, sys)
    }

    /// Share of `wall_ns` the thread sat runnable without a CPU.
    pub fn run_delay_share(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            0.0
        } else {
            self.run_delay_ns as f64 / wall_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(open_fds() >= 3);
        let tid = current_tid().expect("thread id");
        // Burn a little CPU so the counters move.
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let usage = ThreadUsage::read(tid);
        assert!(usage.run_ns > 0, "schedstat must report on-CPU time");
        let (user, sys) = usage.cpu_us();
        assert!((user + sys - usage.run_ns as f64 / 1e3).abs() < 1.0);
    }

    #[test]
    fn finds_threads_by_name() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("hpv-probe-name".into())
            .spawn(move || {
                // The name is set by the new thread itself, before this runs.
                started_tx.send(()).unwrap();
                let _ = rx.recv();
            })
            .unwrap();
        started_rx.recv().unwrap();
        assert_eq!(threads_named("hpv-probe-name").len(), 1);
        tx.send(()).unwrap();
        handle.join().unwrap();
        assert!(threads_named("hpv-probe-name").is_empty());
    }
}
