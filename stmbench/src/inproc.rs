//! The workloads: `store-get` (read-only uniform point gets over a
//! preloaded table) and `cache-churn` (read-through zipfian gets over a
//! byte-budgeted cache with TTLs and a background reclaimer), each run in
//! process by 2 load threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::intset::Xorshift;
use harness::kv::{fill_payload, KeyDist, KeySampler};
use spectm::{Stm as _, StmThread};
use spectm_kv::{
    BatchOp, CacheConfig, CacheStats, Clock, EvictionPolicy, Reclaimer, ValueCell,
    ITEM_OVERHEAD_BYTES,
};

use crate::checks::{self, classify, Got};
use crate::common::{
    self, new_store, preload, stream_seed, StmCounts, Store, Thread, RECORDED_UNITS, UNIT_OPS,
};
use crate::load::{run_threads, Phase, Unit, UnitResult};
use crate::loopback;
use crate::metrics::Layers;
use crate::probes::{self, KeyPlan};
use crate::report::{median, ratio, Report};
use crate::sys;
use crate::trace::{NoTrace, Spans, Tracer};
use crate::Plan;

/// The cache behaviour of `cache-churn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// Live-byte budget.
    pub max_bytes: u64,
    /// Default TTL of every fill, ms of the cache clock.  Preloaded
    /// entries get TTLs spread evenly over `1..=ttl`, as a cache that has
    /// run for a while holds them, so they do not all expire at once.
    pub ttl_ms: u64,
}

/// Units (of [`UNIT_OPS`] operations) the load threads complete, all
/// together, per millisecond of the cache clock: 512 operations per ms,
/// about real time at the reference machine's throughput.  The cache's
/// clock counts work, not wall time, so how many entries expire between
/// two uses of a key does not depend on how fast the machine ran them.
pub const UNITS_PER_CLOCK_MS: u64 = 32;

/// Load run on `cache-churn` before the measured phase, so every preloaded
/// entry has expired or been replaced and the cache has settled.
pub const WARM_UP: Duration = Duration::from_secs(4);

/// Load threads of every workload (`nproc` on the reference machine).
pub const LOAD_THREADS: usize = 2;

/// One workload.
#[derive(Debug, Clone, PartialEq)]
pub struct InProc {
    /// Keys in the key space.
    pub keys: u64,
    /// Payload length of every value.
    pub value_len: usize,
    /// Key popularity.
    pub dist: KeyDist,
    /// Cache mode (`None`: plain store, every key preloaded, every get
    /// must hit).
    pub cache: Option<CacheSpec>,
}

impl InProc {
    /// `store-get`: 2 threads of uniform point gets over 1,048,576 preloaded
    /// 8-byte values, no cache configuration.
    pub fn store_get() -> Self {
        Self {
            keys: 1 << 20,
            value_len: 8,
            dist: KeyDist::Uniform,
            cache: None,
        }
    }

    /// `cache-churn`: 2 threads of read-through zipfian gets over 1,048,576
    /// keys with 100-byte fills, a quarter of the working set as budget,
    /// 4 s default TTL, freq eviction.
    pub fn cache_churn() -> Self {
        let keys = 1u64 << 20;
        let value_len = 100;
        Self {
            keys,
            value_len,
            dist: KeyDist::Zipfian,
            cache: Some(CacheSpec {
                max_bytes: keys * (value_len as u64 + ITEM_OVERHEAD_BYTES) / 4,
                ttl_ms: 4_000,
            }),
        }
    }

    fn config(&self, clock_ms: &Arc<AtomicU64>) -> CacheConfig {
        match self.cache {
            None => CacheConfig::default(),
            Some(c) => CacheConfig {
                max_bytes: Some(c.max_bytes),
                default_ttl_ms: c.ttl_ms,
                policy: EvictionPolicy::Freq,
                clock: Clock::manual(clock_ms),
            },
        }
    }

    /// Keys loaded at setup: all of them for the plain store; for the cache
    /// the most popular ranks (in the sampler's scrambled order) until the
    /// budget is full.
    fn preload_keys(&self) -> Vec<u64> {
        match self.cache {
            None => (0..self.keys).collect(),
            Some(c) => {
                let fit = c.max_bytes / (self.value_len as u64 + ITEM_OVERHEAD_BYTES);
                (0..fit.min(self.keys))
                    .map(|rank| rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.keys)
                    .collect()
            }
        }
    }
}

/// A built store with its reclaimer and the cache clock's counter.
struct Rig {
    stm: common::Stm,
    store: Arc<Store>,
    reclaimer: Option<Reclaimer>,
    clock_ms: Arc<AtomicU64>,
}

fn setup(w: &InProc, seed: u64) -> Rig {
    let stm = common::Stm::new();
    let clock_ms = Arc::new(AtomicU64::new(0));
    let store = new_store(&stm, w.keys, w.config(&clock_ms));
    let ttl_ms = w.cache.map_or(0, |c| c.ttl_ms);
    preload(
        &store,
        w.preload_keys().into_iter(),
        w.value_len,
        seed,
        |key| (ttl_ms > 0).then(|| 1 + stream_seed(key, 7) % ttl_ms),
    );
    let reclaimer = w.cache.map(|_| {
        Reclaimer::spawn(
            Arc::clone(&store),
            Duration::from_millis(2),
            (store.bucket_count() / 8).max(64),
        )
    });
    Rig {
        stm,
        store,
        reclaimer,
        clock_ms,
    }
}

/// One load thread: 16 gets per unit, read-through fills in cache mode.
struct StoreUnit<'a, T: Spans> {
    store: &'a Store,
    thread: Thread,
    sampler: &'a KeySampler,
    rng: Xorshift,
    value_len: usize,
    ttl_ms: Option<u64>,
    /// The cache clock, advanced by this thread's share of the work.
    clock_ms: &'a AtomicU64,
    units: u64,
    buf: Vec<u8>,
    spans: T,
    stats_before: spectm::StatsSnapshot,
    /// Operations of the first units, for the batch and wire replays.
    recorded: Option<Vec<Vec<BatchOp>>>,
}

/// What a load thread hands back.
struct ThreadOut<T> {
    spans: T,
    stm: StmCounts,
    recorded: Vec<Vec<BatchOp>>,
}

impl<T: Spans + Send> Unit for StoreUnit<'_, T> {
    type Out = ThreadOut<T>;

    #[inline]
    fn run(&mut self) -> UnitResult {
        let mut r = UnitResult {
            ops: UNIT_OPS as u64,
            ..UnitResult::default()
        };
        let mut frame = self
            .recorded
            .as_ref()
            .is_some_and(|rec| rec.len() < RECORDED_UNITS)
            .then(Vec::new);
        for _ in 0..UNIT_OPS {
            let key = self.sampler.sample(&mut self.rng);
            self.spans.enter("store.get");
            let got = self.store.get(key, &mut self.thread);
            self.spans.exit(1);
            if let Some(f) = frame.as_mut() {
                f.push(BatchOp::Get(key));
            }
            match (classify(key, got.as_deref()), self.ttl_ms) {
                (Got::Hit, _) => r.hits += 1,
                (Got::Miss, Some(ttl)) => {
                    r.misses += 1;
                    fill_payload(key, self.rng.next(), self.value_len, &mut self.buf);
                    self.spans.enter("store.put_ttl");
                    let put = self
                        .store
                        .put_with_ttl(key, &self.buf, None, &mut self.thread);
                    self.spans.exit(1);
                    if put.is_err() {
                        r.failed += 1;
                    }
                    if let Some(f) = frame.as_mut() {
                        f.push(BatchOp::put_ttl(key, &self.buf, ttl));
                    }
                }
                (Got::Miss | Got::Corrupt, _) => r.failed += 1,
            }
        }
        if let (Some(f), Some(rec)) = (frame, self.recorded.as_mut()) {
            rec.push(f);
        }
        self.units += 1;
        if self.ttl_ms.is_some() && self.units % UNITS_PER_CLOCK_MS == 0 {
            // ORDERING: the clock is a counter of work done; a deadline
            // check that reads it a tick late is as valid as one a tick
            // early, and no data is published through it.
            self.clock_ms.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn finish(self) -> ThreadOut<T> {
        ThreadOut {
            stm: StmCounts::between(&self.stats_before, &self.thread.stats()),
            spans: self.spans,
            recorded: self.recorded.unwrap_or_default(),
        }
    }
}

/// Runs one phase of the workload on `rig`, with spans from `make_spans`.
fn phase<T: Spans + Send>(
    w: &InProc,
    rig: &Rig,
    sampler: &KeySampler,
    seed: u64,
    duration: Duration,
    make_spans: &(dyn Fn() -> T + Sync),
) -> (Phase, Vec<ThreadOut<T>>) {
    let ttl_ms = w.cache.map(|c| c.ttl_ms);
    run_threads(LOAD_THREADS, duration, &|tid| {
        let thread = rig.store.register();
        StoreUnit {
            store: &rig.store,
            stats_before: thread.stats(),
            thread,
            sampler,
            rng: Xorshift::new(stream_seed(seed, tid as u64)),
            value_len: w.value_len,
            ttl_ms,
            clock_ms: &rig.clock_ms,
            units: 0,
            buf: Vec::with_capacity(w.value_len),
            spans: make_spans(),
            recorded: (tid == 0).then(Vec::new),
        }
    })
}

/// On `cache-churn`, runs the load for [`WARM_UP`] before anything is
/// measured; returns what it did (nothing on the plain store, which has no
/// state to settle).
fn warm_up(w: &InProc, rig: &Rig, sampler: &KeySampler, seed: u64) -> UnitResult {
    match w.cache {
        Some(_) => {
            phase(w, rig, sampler, seed ^ 1, WARM_UP, &|| NoTrace)
                .0
                .totals
        }
        None => UnitResult::default(),
    }
}

/// Counters around the load phases.
struct Snapshot {
    cache: CacheStats,
    epoch: txepoch::CollectorStats,
    cells: usize,
}

fn snapshot(rig: &Rig) -> Snapshot {
    Snapshot {
        cache: rig.store.cache_stats(),
        epoch: rig.stm.collector().stats(),
        cells: ValueCell::live_count(),
    }
}

/// Run-level checks on the load phases' counters.
fn check_counts(
    w: &InProc,
    report: &mut Report,
    load: &UnitResult,
    before: &Snapshot,
    after: &Snapshot,
) {
    if w.cache.is_some() {
        let delta = checks::cache_delta(&before.cache, &after.cache);
        report.check(checks::check_cache_counts(
            load.ops,
            load.hits,
            load.misses,
            &delta,
        ));
    }
}

/// Final checks and teardown: the sweep over a preloaded space, the budget
/// after a final `sweep_step`, and value cells back to their baseline.
fn finish(w: &InProc, rig: Rig, report: &mut Report, cells_baseline: usize) {
    let Rig {
        stm,
        store,
        reclaimer,
        ..
    } = rig;
    if let Some(r) = reclaimer {
        r.stop();
    }
    let mut t = store.register();
    match w.cache {
        None => report.check(checks::check_sweep(w.keys, |key| store.get(key, &mut t))),
        Some(c) => {
            store.sweep_step(store.bucket_count(), &mut t);
            report.check(checks::check_budget(store.live_bytes(), c.max_bytes));
        }
    }
    drop(t);
    drop(store);
    drop(stm);
    report.check(checks::check_cells(cells_baseline, ValueCell::live_count()));
}

/// Share of the machine's CPU time the host stole between two readings,
/// percent (0 when unreadable).
fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => 100.0 * ratio(s1 - s0, t1 - t0),
        _ => 0.0,
    }
}

/// Runs the workload per `plan`.
pub fn run(w: &InProc, plan: &Plan) -> Result<Report, String> {
    let mut report = Report::default();
    let cells_baseline = ValueCell::live_count();
    let sampler = KeySampler::new(w.dist, w.keys);
    let s = plan.seconds;
    if !plan.trace {
        let mut setups = Vec::new();
        let mut rig = None;
        for _ in 0..crate::SETUPS {
            drop(rig.take());
            let cpu = sys::process_cpu_s();
            rig = Some(setup(w, plan.seed));
            setups.push(sys::process_cpu_s() - cpu);
        }
        let rig = rig.expect("at least one setup");
        let warm = warm_up(w, &rig, &sampler, plan.seed);
        let before = snapshot(&rig);
        let steal_before = sys::machine_steal_ticks();
        let (cp, _) = phase(
            w,
            &rig,
            &sampler,
            plan.seed,
            Duration::from_secs_f64(s),
            &|| NoTrace,
        );
        let after = snapshot(&rig);
        eprintln!(
            "load: {:.0} ops/s of wall time, {:.2} CPU-s per s, host steal {:.1}%",
            cp.ops_per_s(),
            cp.cpu_per_wall_s(),
            steal_pct(steal_before, sys::machine_steal_ticks())
        );
        check_counts(w, &mut report, &cp.totals, &before, &after);
        report.attempted = warm.ops + cp.totals.ops;
        report.failed = warm.failed + cp.totals.failed;
        report.push("setup_s", median(&mut setups), "s");
        report.push("ops_per_cpu_s", cp.ops_per_cpu_s(), "ops/cpu-s");
        report.push("p50_us", cp.percentile_us(50.0), "us");
        report.push("hits_per_cpu_s", cp.hits_per_cpu_s(), "hits/cpu-s");
        finish(w, rig, &mut report, cells_baseline);
        report.push("rss_peak_mib", crate::sys::rss_peak_mib(), "MiB");
        return Ok(report);
    }

    let mut rig = setup(w, plan.seed);
    let mut layers = Layers::default();
    let slice = Duration::from_secs_f64(s * 0.25);
    let warm = warm_up(w, &rig, &sampler, plan.seed);
    let (plain, _) = phase(w, &rig, &sampler, plan.seed, slice, &|| NoTrace);
    let before = snapshot(&rig);
    let reclaimer_cpu = sys::named_threads_cpu_s("kv-reclaimer");
    let origin = Instant::now();
    let (traced, outs) = phase(w, &rig, &sampler, plan.seed ^ 2, slice, &|| {
        Tracer::new(origin)
    });
    layers.set(
        "ttl.reclaimer_busy_share",
        (sys::named_threads_cpu_s("kv-reclaimer") - reclaimer_cpu) / origin.elapsed().as_secs_f64(),
    );
    let after = snapshot(&rig);
    check_counts(w, &mut report, &traced.totals, &before, &after);
    report.attempted = warm.ops + plain.totals.ops + traced.totals.ops;
    report.failed = warm.failed + plain.totals.failed + traced.totals.failed;

    let mut tracer = Tracer::new(origin);
    let mut stm = StmCounts::default();
    let mut frames = Vec::new();
    for out in outs {
        stm.add(&out.stm);
        frames.extend(out.recorded);
        tracer.absorb(out.spans);
    }
    stm.set_layers(&mut layers);
    common::set_epoch_layers(&mut layers, &before.epoch, &after.epoch);
    layers.set(
        "value.live_cells",
        after.cells.saturating_sub(cells_baseline) as f64,
    );
    let delta = checks::cache_delta(&before.cache, &after.cache);
    let t = &traced.totals;
    layers.set("cache.hits", t.hits as f64);
    layers.set("cache.misses", t.misses as f64);
    layers.set("cache.hit_ratio", ratio(t.hits, t.hits + t.misses));
    layers.set("cache.evicted", delta.evicted as f64);
    layers.set("cache.expired", delta.expired as f64);
    layers.set("cache.live_bytes", rig.store.live_bytes() as f64);
    layers.set("store.get_ns", tracer.total("store.get").ns_per_op());
    layers.set(
        "store.put_ttl_ns",
        tracer.total("store.put_ttl").ns_per_op(),
    );
    layers.set("trace.ops_per_cpu_s", traced.ops_per_cpu_s());
    layers.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.ops_per_cpu_s() / plain.ops_per_cpu_s()),
    );

    // Quiescent from here on: the map statistics, then the probes.
    if let Some(r) = rig.reclaimer.take() {
        r.stop();
    }
    let map = rig.store.stats();
    layers.set("map.load_factor", map.load_factor());
    layers.set("map.probe_within_1", map.fraction_within(1));
    let probe = Duration::from_secs_f64(s * 0.05);
    let (responses, _) = probes::batch_replay(&mut tracer, probe, &rig.store, &frames);
    probes::wire_codec(&mut tracer, probe, &frames, &responses);
    probes::sweep_steps(&mut tracer, probe, &rig.store);
    probes::spectm_shapes(&mut tracer, probe, plan.seed);
    let mut rng = Xorshift::new(stream_seed(plan.seed, 99));
    let key_plan = KeyPlan::new(w.preload_keys(), 1 << 16, w.value_len, || {
        sampler.sample(&mut rng)
    });
    probes::map_ops(&mut tracer, probe, &key_plan);
    probes::lockfree_ops(&mut tracer, probe, &key_plan);
    drop(key_plan);
    if w.cache.is_none() {
        let wire = Duration::from_secs_f64(s * 0.2);
        loopback::probe(
            &rig.store,
            w.keys,
            plan.seed,
            wire,
            &mut tracer,
            &mut layers,
            &mut report,
        )?;
    }
    crate::set_probe_layers(&mut layers, &tracer);
    finish(w, rig, &mut report, cells_baseline);
    crate::write_trace(plan, &tracer);
    layers.into_report(&mut report);
    Ok(report)
}
