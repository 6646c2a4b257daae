//! The few `/proc` readings the benchmark takes: per-thread CPU and
//! run-queue wait, host steal time and peak resident memory. Parsers
//! take text so they can be tested on fixtures. Also the calling
//! thread's CPU clock, for timing one call.

use std::fs;
use std::os::raw::{c_int, c_long};

/// Kernel clock ticks per second for `/proc/stat` (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// `(run_ns, wait_ns)` from a `schedstat` line: time on a CPU and time
/// runnable but waiting in a run queue.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut f = text.split_whitespace().map(str::parse::<u64>);
    Some((f.next()?.ok()?, f.next()?.ok()?))
}

/// Steal ticks summed over all CPUs from `/proc/stat`'s `cpu` line
/// (`user nice system idle iowait irq softirq steal …`).
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// A kB field of `/proc/<pid>/status`, such as `VmHWM` (peak resident
/// set) or `VmRSS` (resident set now).
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let line = status
        .lines()
        .find(|l| l.split(':').next() == Some(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One thread's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTimes {
    pub tid: u32,
    pub comm: String,
    pub run_ns: u64,
    pub wait_ns: u64,
}

/// Every live thread of process `pid`.
pub fn tasks(pid: u32) -> Vec<TaskTimes> {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut out: Vec<TaskTimes> = dir
        .flatten()
        .filter_map(|e| {
            let tid: u32 = e.file_name().to_str()?.parse().ok()?;
            let path = e.path();
            let comm = fs::read_to_string(path.join("comm")).ok()?;
            let (run_ns, wait_ns) =
                parse_schedstat(&fs::read_to_string(path.join("schedstat")).ok()?)?;
            Some(TaskTimes {
                tid,
                comm: comm.trim().to_string(),
                run_ns,
                wait_ns,
            })
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// `(run_ns, wait_ns)` summed over the threads in `after` whose name
/// starts with `prefix` (all threads for `""`), minus the same threads'
/// counters in `before`. A thread born in between counts from zero.
pub fn task_delta(before: &[TaskTimes], after: &[TaskTimes], prefix: &str) -> (u64, u64) {
    after
        .iter()
        .filter(|t| t.comm.starts_with(prefix))
        .fold((0, 0), |(run, wait), t| {
            let (r0, w0) = before
                .iter()
                .find(|b| b.tid == t.tid)
                .map_or((0, 0), |b| (b.run_ns, b.wait_ns));
            (
                run + t.run_ns.saturating_sub(r0),
                wait + t.wait_ns.saturating_sub(w0),
            )
        })
}

/// The calling thread's `(run_ns, wait_ns)`.
pub fn this_thread() -> Option<(u64, u64)> {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// `struct timespec` as Linux's C library lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_THREAD_CPUTIME_ID` from Linux's `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has used, in nanoseconds. Its
/// `schedstat` is brought up to date only at scheduler ticks and
/// switches; this clock is exact at the call, so it can time one train.
pub fn thread_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (`#[repr(C)]`,
    // both fields `long` as in Linux's C library), and clock_gettime
    // writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    let ns = u64::try_from(ts.tv_sec).ok()? * 1_000_000_000 + u64::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then_some(ns)
}

/// Host steal time so far, in milliseconds summed over CPUs.
pub fn steal_ms() -> Option<f64> {
    let ticks = parse_steal_ticks(&fs::read_to_string("/proc/stat").ok()?)?;
    Some(ticks as f64 * 1000.0 / USER_HZ)
}

fn status_mb(pid: &str, field: &str) -> Option<f64> {
    let kb = parse_status_kb(
        &fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        field,
    )?;
    Some(kb as f64 / 1024.0)
}

/// Peak resident memory of `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_mb(&pid.to_string(), "VmHWM")
}

/// Lowers this process's peak resident set to its current one and
/// returns that in MB, so a later [`peak_rss_mb`] reads the peak since
/// this call.
pub fn reset_peak_rss_mb() -> Option<f64> {
    fs::write("/proc/self/clear_refs", "5").ok()?;
    status_mb("self", "VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fixture() {
        assert_eq!(parse_schedstat("518828 1200 2\n"), Some((518_828, 1200)));
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn proc_stat_fixture() {
        let stat = "cpu  87687 0 9773 576338 4463 0 812 9505 0 0\n\
                    cpu0 43000 0 4800 288000 2200 0 400 4700 0 0\n\
                    intr 1 2 3\n";
        assert_eq!(parse_steal_ticks(stat), Some(9505));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn status_fixture() {
        let status =
            "Name:\techo_serve\nVmPeak:\t  300000 kB\nVmHWM:\t   41236 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(41_236));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40_000));
        assert_eq!(parse_status_kb("Name:\tx\n", "VmHWM"), None);
    }

    #[test]
    fn task_deltas_follow_threads_by_id_and_name() {
        let t = |tid, comm: &str, run_ns, wait_ns| TaskTimes {
            tid,
            comm: comm.into(),
            run_ns,
            wait_ns,
        };
        let before = [t(1, "echo_serve", 10, 1), t(2, "echo-serve-io", 100, 10)];
        let after = [
            t(1, "echo_serve", 15, 1),
            t(2, "echo-serve-io", 160, 30),
            t(3, "echo-serve-batc", 40, 5),
        ];
        assert_eq!(task_delta(&before, &after, ""), (5 + 60 + 40, 20 + 5));
        assert_eq!(task_delta(&before, &after, "echo-serve-io"), (60, 20));
        assert_eq!(task_delta(&before, &after, "echo-serve-bat"), (40, 5));
    }

    #[test]
    fn live_readings_parse_on_linux() {
        assert!(this_thread().is_some());
        let cpu0 = thread_cpu_ns().unwrap();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns().unwrap() > cpu0, "{x}");
        assert!(steal_ms().is_some());
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        assert!(reset_peak_rss_mb().unwrap() > 0.0);
        assert!(!tasks(std::process::id()).is_empty());
    }
}
