//! Process and thread figures read from `/proc`: peak resident set,
//! per-thread and per-process CPU time, and the host's steal.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, 100 on
/// every Linux platform this runs on).
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set of this process (`VmHWM`), MiB; 0 if unreadable.
pub fn rss_peak_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds (user + system) from a `stat` file's contents.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name may hold spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// CPU seconds used so far by the whole process, exited threads included
/// (`/proc/self/stat`, in clock ticks).
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// Seconds on a CPU from a `schedstat` file's contents (its first field,
/// nanoseconds).
fn schedstat_s(schedstat: &str) -> Option<f64> {
    let ns: u64 = schedstat.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// Seconds on a CPU, to the nanosecond, of this process's live threads
/// (each thread's `schedstat`): the scheduler's own run time, which does
/// not count time the thread waited for a CPU.
pub fn live_threads_cpu_s() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|task| {
            fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| schedstat_s(&s))
        })
        .sum()
}

/// The machine's CPU time so far as `(steal, total)` clock ticks, from the
/// first line of `/proc/stat`: steal is time the host gave this virtual
/// machine's CPUs to someone else.
pub fn machine_steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// CPU seconds the calling thread has used so far.
pub fn own_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// CPU seconds used so far by this process's live threads whose name
/// starts with `prefix`.
pub fn named_threads_cpu_s(prefix: &str) -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|task| {
            fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter_map(|task| {
            fs::read_to_string(task.path().join("stat"))
                .ok()
                .and_then(|s| stat_cpu_s(&s))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_utime_and_stime_past_a_spaced_name() {
        let stat = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 1 0";
        assert_eq!(stat_cpu_s(stat), Some(2.0));
    }

    #[test]
    fn parses_schedstat() {
        assert_eq!(schedstat_s("2500000000 17 3\n"), Some(2.5));
        assert_eq!(schedstat_s(""), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(rss_peak_mib() > 0.0);
        assert!(own_cpu_s() >= 0.0);
        assert!(process_cpu_s() >= 0.0);
        assert!(live_threads_cpu_s() > 0.0);
        let (steal, total) = machine_steal_ticks().expect("/proc/stat reads");
        assert!(steal <= total && total > 0);
    }
}
