//! The repository benchmark.
//!
//! One command runs one workload from a seed, checks the store's outputs,
//! and prints one JSON line: whether every check held, the operations
//! attempted and failed, and every metric by name and unit — the
//! end-to-end metrics with tracing off, the per-layer metrics with
//! `--trace 1`.  See README.md for the workloads, the metrics and which
//! layer figure should move which end-to-end figure.

pub mod checks;
pub mod common;
pub mod inproc;
pub mod load;
pub mod loopback;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod sys;
pub mod trace;

use std::path::PathBuf;

use crate::inproc::InProc;
use crate::metrics::Layers;
use crate::report::Report;
use crate::trace::Tracer;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only uniform point gets over a 1M-key plain store.
    StoreGet,
    /// Read-through zipfian gets over a byte-budgeted TTL cache.
    CacheChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::StoreGet, Workload::CacheChurn];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StoreGet => "store-get",
            Workload::CacheChurn => "cache-churn",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Set-ups timed per run for `setup_s` (its median is reported).
pub const SETUPS: usize = 3;

/// One run's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Runs `plan` with the workload's standard inputs.
pub fn run(plan: &Plan) -> Result<Report, String> {
    match plan.workload {
        Workload::StoreGet => inproc::run(&InProc::store_get(), plan),
        Workload::CacheChurn => inproc::run(&InProc::cache_churn(), plan),
    }
}

/// Sets the per-layer figures the probes' spans give.
pub fn set_probe_layers(layers: &mut Layers, tr: &Tracer) {
    let ns = |name| tr.total(name).ns_per_op();
    layers.set("spectm.ro2_ns", ns("spectm.ro2"));
    layers.set("spectm.rw2_ns", ns("spectm.rw2"));
    layers.set("map.get_ns", ns("map.get"));
    layers.set("map.put_ns", ns("map.put"));
    layers.set("lockfree.get_ns", ns("lockfree.get"));
    layers.set("lockfree.put_ns", ns("lockfree.put"));
    layers.set("batch.execute_ns_per_op", ns("batch.execute"));
    layers.set("batch.multi_ns_per_op", ns("batch.multi"));
    layers.set("wire.encode_request_ns", ns("wire.encode_request"));
    layers.set("wire.decode_request_ns", ns("wire.decode_request"));
    layers.set("wire.encode_response_ns", ns("wire.encode_response"));
    layers.set("wire.decode_response_ns", ns("wire.decode_response"));
    layers.set("ttl.sweep_step_us", ns("ttl.sweep_step") / 1e3);
}

/// Where a traced run writes its spans: `out/` beside this package.
fn trace_path(plan: &Plan) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.tsv",
            plan.workload.name(),
            plan.seed
        ))
}

/// Writes the kept spans out (a failure to write is reported on stderr;
/// the figures do not depend on the file).
pub fn write_trace(plan: &Plan, tr: &Tracer) {
    let path = trace_path(plan);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, tr.to_tsv()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
}
