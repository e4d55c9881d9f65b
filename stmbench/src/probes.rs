//! Layer probes of the traced run: each times calls into one layer's
//! public functions on the workload's own keys, values and frames, in
//! spans of [`CHUNK`] calls (or one frame), for a fixed slice of time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use harness::intset::Xorshift;
use harness::kv::fill_payload;
use lockfree::LockFreeKvMap;
use spectm::{encode_int, Stm as _, StmThread};
use spectm_ds::ApiMode;
use spectm_kv::wire::{decode_request, decode_response, encode_request, encode_response};
use spectm_kv::{BatchOp, BatchRequest, BatchResponse, MultiBatch, StmHashMap};

use crate::common::{Stm, StmCounts, Store};
use crate::trace::Tracer;

/// Calls per span in the per-call probes.
pub const CHUNK: usize = 256;

/// Home buckets one timed `sweep_step` visits.
pub const SWEEP_BUCKETS: usize = 4096;

/// Frames coalesced into one `execute_multi` (the wire workload's
/// connection count).
pub const MULTI_FRAMES: usize = 4;

/// Length of the wire frame prefix (the body follows it).
const PREFIX_LEN: usize = 4;

/// Repeats `f` in spans named `name` of `ops` operations each until `slice`
/// has passed (at least once).
fn repeat(
    tr: &mut Tracer,
    name: &'static str,
    slice: Duration,
    ops: u64,
    mut f: impl FnMut(usize),
) {
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        tr.span(name, ops, |_| f(i));
        i += 1;
        if start.elapsed() >= slice {
            return;
        }
    }
}

/// The workload's keys as the map probes see them.
pub struct KeyPlan {
    /// Keys loaded before timing.
    pub preload: Vec<u64>,
    /// Keys the timed calls use, in order (cycled).
    pub stream: Vec<u64>,
    /// One checksummed payload per stream key.
    pub payloads: Vec<Vec<u8>>,
    /// Payload length.
    pub value_len: usize,
}

impl KeyPlan {
    /// Builds a plan whose stream holds `len` keys drawn by `draw`.
    pub fn new(
        preload: Vec<u64>,
        len: usize,
        value_len: usize,
        mut draw: impl FnMut() -> u64,
    ) -> Self {
        let stream: Vec<u64> = (0..len).map(|_| draw()).collect();
        let payloads = stream
            .iter()
            .enumerate()
            .map(|(i, &key)| {
                let mut buf = Vec::new();
                fill_payload(key, i as u64, value_len, &mut buf);
                buf
            })
            .collect();
        Self {
            preload,
            stream,
            payloads,
            value_len,
        }
    }

    fn chunk(&self, i: usize) -> std::ops::Range<usize> {
        let chunks = (self.stream.len() / CHUNK).max(1);
        let start = (i % chunks) * CHUNK;
        start..(start + CHUNK).min(self.stream.len())
    }
}

/// A transactional cell alone on its cache line (the fig5 array).
#[repr(align(64))]
struct Padded(<Stm as spectm::Stm>::Cell);

/// Cells in the short-transaction array (fig5's L3-sized panel).
const SHAPE_CELLS: usize = 32_768;

/// `spectm.ro2` and `spectm.rw2`: the fig5 two-location read-only and
/// read-write short transactions over random neighbouring cells.
pub fn spectm_shapes(tr: &mut Tracer, slice: Duration, seed: u64) {
    let stm = Stm::new();
    let cells: Vec<Padded> = (0..SHAPE_CELLS)
        .map(|i| Padded(stm.new_cell(encode_int(i))))
        .collect();
    let mut t = stm.register();
    let mut rng = Xorshift::new(seed);
    let mut sink = 0usize;
    repeat(tr, "spectm.ro2", slice / 2, CHUNK as u64, |_| {
        for _ in 0..CHUNK {
            let base = (rng.next() as usize) % (SHAPE_CELLS - 1);
            loop {
                let a = t.ro_read(0, &cells[base].0);
                let b = t.ro_read(1, &cells[base + 1].0);
                if t.ro_is_valid(2) {
                    sink = sink.wrapping_add(a ^ b);
                    break;
                }
            }
        }
    });
    repeat(tr, "spectm.rw2", slice / 2, CHUNK as u64, |_| {
        for _ in 0..CHUNK {
            let base = (rng.next() as usize) % (SHAPE_CELLS - 1);
            loop {
                let a = t.rw_read(0, &cells[base].0);
                let b = t.rw_read(1, &cells[base + 1].0);
                if !t.rw_is_valid(2) {
                    continue;
                }
                let next = [
                    encode_int(spectm::decode_int(a) + 1),
                    encode_int(spectm::decode_int(b) + 1),
                ];
                if t.rw_commit(2, &next) {
                    break;
                }
            }
        }
    });
    black_box(sink);
}

/// `map.get` and `map.put`: a standalone `StmHashMap` loaded with the
/// workload's keys, driven by its key stream.
pub fn map_ops(tr: &mut Tracer, slice: Duration, plan: &KeyPlan) {
    let stm = Stm::new();
    let map = StmHashMap::new(&stm, plan.preload.len().max(1), ApiMode::Short);
    let mut t = stm.register();
    let mut buf = Vec::new();
    for &key in &plan.preload {
        fill_payload(key, 0, plan.value_len, &mut buf);
        map.put(key, &buf, &mut t)
            .expect("payload within the value limit");
    }
    repeat(tr, "map.get", slice / 2, CHUNK as u64, |i| {
        for k in plan.chunk(i) {
            black_box(map.get(plan.stream[k], &mut t));
        }
    });
    repeat(tr, "map.put", slice / 2, CHUNK as u64, |i| {
        for k in plan.chunk(i) {
            black_box(map.put(plan.stream[k], &plan.payloads[k], &mut t).ok());
        }
    });
}

/// `lockfree.get` and `lockfree.put`: the lock-free twin on the same keys.
pub fn lockfree_ops(tr: &mut Tracer, slice: Duration, plan: &KeyPlan) {
    let map = LockFreeKvMap::new(plan.preload.len().max(1), txepoch::Collector::new());
    let handle = map.collector().register();
    let mut buf = Vec::new();
    for &key in &plan.preload {
        fill_payload(key, 0, plan.value_len, &mut buf);
        map.put(key, &buf, &handle)
            .expect("payload within the value limit");
    }
    repeat(tr, "lockfree.get", slice / 2, CHUNK as u64, |i| {
        for k in plan.chunk(i) {
            black_box(map.get(plan.stream[k], &handle));
        }
    });
    repeat(tr, "lockfree.put", slice / 2, CHUNK as u64, |i| {
        for k in plan.chunk(i) {
            black_box(map.put(plan.stream[k], &plan.payloads[k], &handle).ok());
        }
    });
}

/// Encodes every frame as a request, with its prefix.
pub fn encode_frames(frames: &[Vec<BatchOp>]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|f| {
            let mut out = Vec::new();
            encode_request(f, &mut out).expect("frames stay within the wire caps");
            out
        })
        .collect()
}

/// `batch.execute` and `batch.multi`: the workload's frames replayed on its
/// store, one `execute_batch_into` per frame, then [`MULTI_FRAMES`] frames
/// per `execute_multi`.  Returns the responses of the first pass and the
/// replay thread's STM counts.
pub fn batch_replay(
    tr: &mut Tracer,
    slice: Duration,
    store: &Store,
    frames: &[Vec<BatchOp>],
) -> (Vec<BatchResponse>, StmCounts) {
    let mut t = store.register();
    let before = t.stats();
    let mut req = BatchRequest::new();
    let mut out = BatchResponse::new();
    let mut responses = Vec::with_capacity(frames.len());
    let start = Instant::now();
    let mut i = 0usize;
    while i < frames.len() || start.elapsed() < slice / 2 {
        let frame = &frames[i % frames.len()];
        req.clear();
        for op in frame {
            req.push(op.clone());
        }
        tr.span("batch.execute", frame.len() as u64, |_| {
            store
                .execute_batch_into(&mut req, &mut out, &mut t)
                .expect("replayed frames are valid")
        });
        if responses.len() < frames.len() {
            responses.push(out.clone());
        }
        i += 1;
    }
    let mut multi = MultiBatch::new();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < slice / 2 {
        multi.clear();
        for source in 0..MULTI_FRAMES {
            for op in &frames[(i + source) % frames.len()] {
                multi.request_mut().push(op.clone());
            }
            multi.commit_frame(source);
        }
        let ops = multi.op_count() as u64;
        tr.span("batch.multi", ops, |_| {
            store
                .execute_multi(&mut multi, &mut t)
                .expect("replayed frames are valid")
        });
        i += MULTI_FRAMES;
    }
    (responses, StmCounts::between(&before, &t.stats()))
}

/// `serve.self`: decode, execute and encode of each frame, one frame per
/// span — the server's in-process share of a round trip.
pub fn serve_self(tr: &mut Tracer, slice: Duration, store: &Store, frames: &[Vec<BatchOp>]) {
    let mut t = store.register();
    let mut req = BatchRequest::new();
    let mut out = BatchResponse::new();
    let mut bytes = Vec::new();
    let encoded = encode_frames(frames);
    repeat(tr, "serve.self", slice, 1, |i| {
        let frame = &encoded[i % encoded.len()];
        decode_request(&frame[PREFIX_LEN..], &mut req).expect("frames decode");
        store
            .execute_batch_into(&mut req, &mut out, &mut t)
            .expect("replayed frames are valid");
        encode_response(&out, &mut bytes).expect("responses stay within the wire caps");
    });
}

/// `wire.*`: the four codec calls on the workload's frames and responses,
/// one frame per span.
pub fn wire_codec(
    tr: &mut Tracer,
    slice: Duration,
    frames: &[Vec<BatchOp>],
    responses: &[BatchResponse],
) {
    let requests = encode_frames(frames);
    let replies: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| {
            let mut out = Vec::new();
            encode_response(r, &mut out).expect("responses stay within the wire caps");
            out
        })
        .collect();
    let mut buf = Vec::new();
    let mut req = BatchRequest::new();
    let mut resp = BatchResponse::new();
    let quarter = slice / 4;
    repeat(tr, "wire.encode_request", quarter, 1, |i| {
        encode_request(&frames[i % frames.len()], &mut buf).expect("frames encode");
    });
    repeat(tr, "wire.decode_request", quarter, 1, |i| {
        decode_request(&requests[i % requests.len()][PREFIX_LEN..], &mut req)
            .expect("frames decode");
    });
    repeat(tr, "wire.encode_response", quarter, 1, |i| {
        encode_response(&responses[i % responses.len()], &mut buf).expect("responses encode");
    });
    repeat(tr, "wire.decode_response", quarter, 1, |i| {
        decode_response(&replies[i % replies.len()][PREFIX_LEN..], &mut resp)
            .expect("responses decode");
    });
}

/// `ttl.sweep_step`: one `sweep_step` of [`SWEEP_BUCKETS`] buckets per span.
pub fn sweep_steps(tr: &mut Tracer, slice: Duration, store: &Store) {
    let mut t = store.register();
    repeat(tr, "ttl.sweep_step", slice, 1, |_| {
        black_box(store.sweep_step(SWEEP_BUCKETS, &mut t));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::new_store;
    use spectm_kv::CacheConfig;

    #[test]
    fn probes_record_every_layer_span() {
        let mut tr = Tracer::new(Instant::now());
        let slice = Duration::from_millis(4);
        spectm_shapes(&mut tr, slice, 9);
        let plan = KeyPlan::new((0..512).collect(), 600, 8, {
            let mut k = 0u64;
            move || {
                k = (k + 7) % 512;
                k
            }
        });
        map_ops(&mut tr, slice, &plan);
        lockfree_ops(&mut tr, slice, &plan);
        let stm = Stm::new();
        let store = new_store(&stm, 512, CacheConfig::default());
        crate::common::preload(&store, 0..128, 8, 1, |_| None);
        let frames: Vec<Vec<BatchOp>> = (0..8u64)
            .map(|f| (0..16).map(|i| BatchOp::Get(f * 16 + i)).collect())
            .collect();
        let (responses, counts) = batch_replay(&mut tr, slice, &store, &frames);
        assert_eq!(responses.len(), frames.len());
        assert_ne!(counts, StmCounts::default());
        serve_self(&mut tr, slice, &store, &frames);
        wire_codec(&mut tr, slice, &frames, &responses);
        sweep_steps(&mut tr, slice, &store);
        for name in [
            "spectm.ro2",
            "spectm.rw2",
            "map.get",
            "map.put",
            "lockfree.get",
            "lockfree.put",
            "batch.execute",
            "batch.multi",
            "serve.self",
            "wire.encode_request",
            "wire.decode_request",
            "wire.encode_response",
            "wire.decode_response",
            "ttl.sweep_step",
        ] {
            assert!(tr.total(name).ops > 0, "{name} recorded nothing");
        }
    }
}
