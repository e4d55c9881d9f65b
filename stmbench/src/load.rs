//! Load phases over units of work, with per-unit latency and per-window
//! throughput.
//!
//! A *unit* is the benchmark's request: 16 store calls in process, one
//! frame on the wire.  Throughput and latency percentiles are reported as
//! the median over [`WINDOWS`] equal windows of the phase, so one stall of
//! the shared machine moves one window, not the figure.  Throughput is
//! counted per CPU-second of the whole process in each window (every
//! thread, load and background), so time in which the host ran something
//! else instead of this process does not count against it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use harness::measure::LatencyHistogram;

use crate::report::median;
use crate::sys;

/// Equal windows a phase is cut into for its throughput median.
pub const WINDOWS: usize = 10;

/// What one unit did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UnitResult {
    /// Operations attempted.
    pub ops: u64,
    /// Gets answered with a valid live value.
    pub hits: u64,
    /// Gets answered with nothing where a miss is allowed (cache churn).
    pub misses: u64,
    /// Operations that failed a check or returned an error.
    pub failed: u64,
}

impl UnitResult {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: UnitResult) {
        self.ops += other.ops;
        self.hits += other.hits;
        self.misses += other.misses;
        self.failed += other.failed;
    }
}

/// The merged record of one phase.
#[derive(Clone)]
pub struct Phase {
    window: Duration,
    /// Totals over every unit, windowed or not.
    pub totals: UnitResult,
    /// Units completed.
    pub units: u64,
    /// Per-unit latency over the whole phase.
    pub hist: LatencyHistogram,
    /// Summed lateness of unit starts against their due time (open loops).
    pub late_ns: u64,
    win_ops: [u64; WINDOWS],
    win_hits: [u64; WINDOWS],
    win_hist: Vec<LatencyHistogram>,
    /// CPU seconds of the whole process in each window; all 0 for a
    /// phase that was not driven by [`run_threads`].
    win_cpu_s: [f64; WINDOWS],
}

impl Phase {
    /// An empty phase of nominal length `duration`.
    pub fn new(duration: Duration) -> Self {
        Self {
            window: (duration / WINDOWS as u32).max(Duration::from_micros(1)),
            totals: UnitResult::default(),
            units: 0,
            hist: LatencyHistogram::new(),
            late_ns: 0,
            win_ops: [0; WINDOWS],
            win_hits: [0; WINDOWS],
            win_hist: vec![LatencyHistogram::new(); WINDOWS],
            win_cpu_s: [0.0; WINDOWS],
        }
    }

    /// Records a unit that completed `at` after the phase start.
    #[inline]
    pub fn record(&mut self, at: Duration, latency: Duration, r: UnitResult) {
        self.totals.add(r);
        self.units += 1;
        self.hist.record(latency);
        let w = (at.as_nanos() / self.window.as_nanos()) as usize;
        if w < WINDOWS {
            self.win_ops[w] += r.ops;
            self.win_hits[w] += r.hits;
            self.win_hist[w].record(latency);
        }
    }

    /// Folds another thread's record of the same phase into this one.
    pub fn merge(&mut self, other: &Phase) {
        self.totals.add(other.totals);
        self.units += other.units;
        self.hist.merge(&other.hist);
        self.late_ns += other.late_ns;
        for w in 0..WINDOWS {
            self.win_ops[w] += other.win_ops[w];
            self.win_hits[w] += other.win_hits[w];
            self.win_hist[w].merge(&other.win_hist[w]);
        }
    }

    fn median_rate(&self, counts: &[u64; WINDOWS]) -> f64 {
        let secs = self.window.as_secs_f64();
        median(&mut counts.map(|c| c as f64 / secs))
    }

    fn median_per_cpu_s(&self, counts: &[u64; WINDOWS]) -> f64 {
        let mut rates: Vec<f64> = counts
            .iter()
            .zip(&self.win_cpu_s)
            .filter(|(_, cpu)| **cpu > 0.0)
            .map(|(c, cpu)| *c as f64 / cpu)
            .collect();
        median(&mut rates)
    }

    /// Operations per second of wall time, median over the windows.
    pub fn ops_per_s(&self) -> f64 {
        self.median_rate(&self.win_ops)
    }

    /// Operations per CPU-second of the process, median over the windows.
    pub fn ops_per_cpu_s(&self) -> f64 {
        self.median_per_cpu_s(&self.win_ops)
    }

    /// Hits per CPU-second of the process, median over the windows.
    pub fn hits_per_cpu_s(&self) -> f64 {
        self.median_per_cpu_s(&self.win_hits)
    }

    /// CPU seconds the process used per second of wall time over the
    /// windows (the load threads' share of the machine).
    pub fn cpu_per_wall_s(&self) -> f64 {
        self.win_cpu_s.iter().sum::<f64>() / (self.window.as_secs_f64() * WINDOWS as f64)
    }

    /// Latency percentile `p` of the units, microseconds: the median over
    /// the windows of each window's percentile.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut per_window: Vec<f64> = self
            .win_hist
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.percentile(p) as f64 / 1e3)
            .collect();
        median(&mut per_window)
    }

    /// Latency percentile `p` over every unit of the phase, microseconds.
    pub fn whole_percentile_us(&self, p: f64) -> f64 {
        self.hist.percentile(p) as f64 / 1e3
    }

    /// Mean lateness of unit starts, microseconds.
    pub fn mean_late_us(&self) -> f64 {
        crate::report::ratio(self.late_ns, self.units) / 1e3
    }
}

/// One load thread's unit of work and what it hands back at the end.
pub trait Unit {
    /// Per-thread results returned to the caller (spans, counters).
    type Out: Send;
    /// Runs one unit.
    fn run(&mut self) -> UnitResult;
    /// Ends the thread's share of the phase.
    fn finish(self) -> Self::Out;
}

/// Runs units back to back, starting from `start`, until the phase's
/// `duration` has passed (a closed loop: the next unit starts when the
/// previous one ends).
pub fn drive<U: Unit>(unit: &mut U, duration: Duration, start: Instant) -> Phase {
    let mut phase = Phase::new(duration);
    loop {
        let t = Instant::now();
        let r = unit.run();
        let done = t.elapsed();
        let at = start.elapsed();
        phase.record(at, done, r);
        if at >= duration {
            return phase;
        }
    }
}

/// Marks a load thread's phase as ended and holds the thread until the
/// caller has read the last window's CPU time; on drop, so a thread that
/// panics arrives too.
struct EndOfPhase<'a> {
    arrived: &'a AtomicUsize,
    release: &'a Barrier,
}

impl Drop for EndOfPhase<'_> {
    fn drop(&mut self) {
        // ORDERING: pairs with the Acquire load in `run_threads`, which
        // then reads the thread's CPU time; the barrier orders the rest.
        self.arrived.fetch_add(1, Ordering::Release);
        self.release.wait();
    }
}

/// Runs `threads` load threads, each building its unit with `make(tid)`
/// on its own thread, released together, for `duration`.  The calling
/// thread sleeps through the phase, waking at each window's end to read
/// the process's CPU time; the load threads stay alive until it has read
/// the last window's.
pub fn run_threads<U, F>(threads: usize, duration: Duration, make: &F) -> (Phase, Vec<U::Out>)
where
    U: Unit,
    F: Fn(usize) -> U + Sync,
{
    let start_gate = Barrier::new(threads + 1);
    let release = Barrier::new(threads + 1);
    let arrived = AtomicUsize::new(0);
    let mut merged = Phase::new(duration);
    let per_thread: Vec<(Phase, U::Out)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (start_gate, release, arrived) = (&start_gate, &release, &arrived);
                scope.spawn(move || {
                    let mut unit = make(tid);
                    start_gate.wait();
                    let end = EndOfPhase { arrived, release };
                    let phase = drive(&mut unit, duration, Instant::now());
                    drop(end);
                    (phase, unit.finish())
                })
            })
            .collect();
        start_gate.wait();
        let start = Instant::now();
        let mut cpu = sys::live_threads_cpu_s();
        for w in 0..WINDOWS {
            let edge = start + merged.window * (w as u32 + 1);
            std::thread::sleep(edge.saturating_duration_since(Instant::now()));
            if w + 1 == WINDOWS {
                // ORDERING: pairs with the Release increment in `EndOfPhase`.
                while arrived.load(Ordering::Acquire) < threads {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            let now = sys::live_threads_cpu_s();
            merged.win_cpu_s[w] = now - cpu;
            cpu = now;
        }
        release.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut outs = Vec::with_capacity(threads);
    for (phase, out) in per_thread {
        merged.merge(&phase);
        outs.push(out);
    }
    (merged, outs)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Count(u64);

    impl Unit for Count {
        type Out = u64;
        fn run(&mut self) -> UnitResult {
            self.0 += 1;
            UnitResult {
                ops: 2,
                hits: 1,
                ..UnitResult::default()
            }
        }
        fn finish(self) -> u64 {
            self.0
        }
    }

    #[test]
    fn closed_phase_counts_every_unit() {
        let (phase, outs) = run_threads(2, Duration::from_millis(30), &|_| Count(0));
        assert_eq!(phase.units, outs.iter().sum::<u64>());
        assert_eq!(phase.totals.ops, 2 * phase.units);
        assert!(phase.ops_per_s() > 0.0);
        assert!(phase.ops_per_cpu_s() > 0.0);
        assert!(phase.hits_per_cpu_s() > 0.0);
        assert!(phase.cpu_per_wall_s() > 0.0);
    }
}
