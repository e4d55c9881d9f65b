//! The loopback probe of the traced `store-get` run: YCSB-B frames from a
//! loadgen-style client to an in-process `spectm_serve::Server` over the
//! workload's own store.  It measures the `serve` and `loadgen` layers and
//! the wire round trip; it gates nothing (see README.md for why the wire
//! workload it grew from was dropped).
//!
//! The client is one thread driving four connections with the loadgen
//! operation streams (`harness::kv::WorkerState`, YCSB-B, 16-op frames): a
//! closed loop with [`DEPTH`] frames in flight per connection, then an open
//! loop on a fixed schedule, rotating over the connections and timing each
//! frame from when it was due.  The connections are `harness::loadgen`
//! `WireConn`s; unlike `run_loadgen`, the streams are seeded from the run's
//! seed.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::kv::{KvMix, KvWorkloadConfig, ValueSize, WorkerState};
use harness::loadgen::{ClientError, WireConn};
use spectm_kv::{BatchOp, Value};
use spectm_serve::Server;

use crate::checks::{self, classify, Got};
use crate::common::{stream_seed, Store, RECORDED_UNITS, UNIT_OPS};
use crate::load::{Phase, UnitResult};
use crate::metrics::Layers;
use crate::probes;
use crate::report::{ratio, Report};
use crate::sys;
use crate::trace::{Spans, Tracer};

/// Client connections.
pub const CONNECTIONS: usize = 4;
/// Frames in flight per connection in the closed loop: with two, the
/// worker finds the next frame queued while the client handles a response,
/// so a client stall does not idle (and park) the worker.
pub const DEPTH: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 1;
/// Longest wait for one response before the client gives up (a server that
/// stops answering fails the run instead of hanging it).
pub const RECV_TIMEOUT: Duration = Duration::from_secs(10);
/// Open-loop offered rate, frames per second over all connections.  With
/// one frame in flight the open loop cannot pass one frame per round trip,
/// and a worker that parks between frames makes that round trip ~0.5 ms;
/// this rate keeps the worker out of its park while leaving headroom below
/// the round-trip limit.
pub const OPEN_FRAMES_PER_S: f64 = 10_000.0;

/// Judges one frame's results: every get must hit with a valid payload,
/// and every put must displace a valid payload (the space is preloaded and
/// delete-free).
fn account(ops: &[BatchOp], results: &[Option<Value>]) -> UnitResult {
    let mut r = UnitResult {
        ops: ops.len() as u64,
        ..UnitResult::default()
    };
    for (op, result) in ops.iter().zip(results) {
        match (op, classify(op.key(), result.as_deref())) {
            (BatchOp::Get(_), Got::Hit) => r.hits += 1,
            (_, Got::Hit) => {}
            _ => r.failed += 1,
        }
    }
    r
}

/// A failed frame: all its operations count as failed.
fn failed_frame(ops: usize) -> UnitResult {
    UnitResult {
        ops: ops as u64,
        failed: ops as u64,
        ..UnitResult::default()
    }
}

/// The client: connections, their operation streams, and what it saw.
struct Client {
    conns: Vec<WireConn>,
    streams: Vec<WorkerState>,
    frames_sent: u64,
    recorded: Vec<Vec<BatchOp>>,
    error: Option<ClientError>,
}

/// Frames in flight on one connection: send time and operations.
type Inflight = VecDeque<(Duration, Vec<BatchOp>)>;

impl Client {
    /// Sends the next frame of connection `cid`, queueing its ops and send
    /// time for the response.
    fn send_next(
        &mut self,
        cid: usize,
        start: Instant,
        inflight: &mut [Inflight],
        spans: &mut impl Spans,
    ) -> Result<(), ClientError> {
        self.streams[cid].build_batch(UNIT_OPS);
        let ops = self.streams[cid].batch_ops().to_vec();
        if self.recorded.len() < RECORDED_UNITS {
            self.recorded.push(ops.clone());
        }
        spans.enter("loadgen.send");
        let sent = self.conns[cid].send(&ops);
        spans.exit(1);
        inflight[cid].push_back((start.elapsed(), ops));
        self.frames_sent += 1;
        sent
    }

    /// Closed loop until `duration` has passed: [`DEPTH`] frames in flight
    /// per connection, each response answered with the connection's next
    /// frame; the frames still in flight at the end are drained and
    /// counted.
    fn closed(&mut self, duration: Duration, spans: &mut impl Spans) -> Phase {
        let mut phase = Phase::new(duration);
        let start = Instant::now();
        let mut inflight: Vec<Inflight> = vec![VecDeque::new(); CONNECTIONS];
        for _ in 0..DEPTH {
            for cid in 0..CONNECTIONS {
                if let Err(e) = self.send_next(cid, start, &mut inflight, spans) {
                    self.error = Some(e);
                    return phase;
                }
            }
        }
        let mut sending = true;
        while inflight.iter().any(|q| !q.is_empty()) {
            for cid in 0..CONNECTIONS {
                let Some((at, ops)) = inflight[cid].pop_front() else {
                    continue;
                };
                spans.enter("loadgen.recv");
                let got = self.conns[cid].recv(ops.len());
                spans.exit(1);
                let now = start.elapsed();
                match got {
                    Ok(results) => phase.record(now, now - at, account(&ops, results)),
                    Err(e) => {
                        self.error = Some(e);
                        phase.record(now, now - at, failed_frame(ops.len()));
                        return phase;
                    }
                }
                sending &= now < duration;
                if sending {
                    if let Err(e) = self.send_next(cid, start, &mut inflight, spans) {
                        self.error = Some(e);
                        return phase;
                    }
                }
            }
        }
        phase
    }

    /// Open loop: frame `i` is due at `i / OPEN_FRAMES_PER_S`, on
    /// connection `i % CONNECTIONS`, one frame in flight.
    fn open(&mut self, duration: Duration, spans: &mut impl Spans) -> Phase {
        let interval = Duration::from_secs_f64(1.0 / OPEN_FRAMES_PER_S);
        let mut phase = Phase::new(duration);
        let start = Instant::now();
        let mut due = Duration::ZERO;
        let mut cid = 0;
        while due < duration {
            while start.elapsed() < due {
                std::thread::yield_now();
            }
            let began = start.elapsed();
            self.streams[cid].build_batch(UNIT_OPS);
            spans.enter("loadgen.rtt");
            let got = self.conns[cid].execute(self.streams[cid].batch_ops());
            spans.exit(1);
            self.frames_sent += 1;
            let at = start.elapsed();
            phase.late_ns += (began - due).as_nanos() as u64;
            let r = match got {
                Ok(results) => account(self.streams[cid].batch_ops(), results),
                Err(e) => {
                    self.error = Some(e);
                    phase.record(at, at - due, failed_frame(UNIT_OPS));
                    return phase;
                }
            };
            phase.record(at, at - due, r);
            due += interval;
            cid = (cid + 1) % CONNECTIONS;
        }
        phase
    }
}

/// Serves `store` (preloaded with every key of `0..keys`, 8-byte values)
/// over loopback for `slice`: half closed loop, half open loop.  Sets the
/// `serve.*` and `loadgen.open_*` figures, adds the probe's operations to
/// the report's counts and checks the frame count against the server.
pub fn probe(
    store: &Arc<Store>,
    keys: u64,
    seed: u64,
    slice: Duration,
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(), String> {
    let server = Server::start(Arc::clone(store), "127.0.0.1:0", WORKERS)
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let addr = server.local_addr();
    let cfg = KvWorkloadConfig {
        mix: KvMix::ReadHeavy,
        value_size: ValueSize::Fixed(8),
        batch: UNIT_OPS,
        ..KvWorkloadConfig::sized_for(keys)
    };
    let mut client = Client {
        conns: (0..CONNECTIONS)
            .map(|_| {
                let conn = WireConn::connect(addr)?;
                conn.set_read_timeout(Some(RECV_TIMEOUT))?;
                Ok(conn)
            })
            .collect::<Result<Vec<_>, ClientError>>()
            .map_err(|e| format!("cannot connect: {e}"))?,
        streams: (0..CONNECTIONS)
            .map(|cid| WorkerState::new(&cfg, stream_seed(seed, 200 + cid as u64)))
            .collect(),
        frames_sent: 0,
        recorded: Vec::new(),
        error: None,
    };
    let before = server.stats();
    let (worker0, client0, wall0) = (
        sys::named_threads_cpu_s("serve-worker"),
        sys::own_cpu_s(),
        Instant::now(),
    );
    let closed = client.closed(slice / 2, tracer);
    let wall = wall0.elapsed().as_secs_f64();
    layers.set(
        "serve.worker_busy_share",
        (sys::named_threads_cpu_s("serve-worker") - worker0) / wall,
    );
    layers.set("loadgen.busy_share", (sys::own_cpu_s() - client0) / wall);
    let open = match client.error {
        None => client.open(slice / 2, tracer),
        Some(_) => Phase::new(slice),
    };
    let after = server.stats();
    if let Some(e) = &client.error {
        report.check(Err(format!("loopback client error: {e}")));
    }
    report.check(checks::check_frames(
        client.frames_sent,
        after.batches - before.batches,
    ));
    report.attempted += closed.totals.ops + open.totals.ops;
    report.failed += closed.totals.failed + open.totals.failed;

    let frames = after.batches - before.batches;
    let dispatches = after.dispatches - before.dispatches;
    layers.set("serve.frames", frames as f64);
    layers.set("serve.dispatches", dispatches as f64);
    layers.set("serve.coalesced_frames_mean", ratio(frames, dispatches));
    layers.set(
        "serve.wire_errors",
        (after.wire_errors - before.wire_errors) as f64,
    );
    layers.set(
        "serve.io_errors",
        (after.io_errors - before.io_errors) as f64,
    );
    layers.set("loadgen.p99_us", closed.whole_percentile_us(99.0));
    layers.set("loadgen.open_p50_us", open.percentile_us(50.0));
    layers.set("loadgen.open_late_us", open.mean_late_us());
    layers.set("loadgen.open_p99_us", open.whole_percentile_us(99.0));
    drop(client.conns);
    let stats = server.shutdown();
    if stats.wire_errors != 0 || stats.io_errors != 0 {
        report.check(Err(format!(
            "server counted {} wire and {} io errors",
            stats.wire_errors, stats.io_errors
        )));
    }
    probes::serve_self(tracer, slice / 4, store, &client.recorded);
    let rtt_us = tracer.total("loadgen.rtt").ns_per_op() / 1e3;
    let self_us = tracer.total("serve.self").ns_per_op() / 1e3;
    layers.set("serve.rtt_self_us", rtt_us - self_us);
    Ok(())
}
