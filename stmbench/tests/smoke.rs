//! Seconds-long smoke runs of every workload, untraced and traced: each
//! must pass every check, fail no operation and print exactly its
//! catalogue of metrics.  The workloads run on a smaller key space so the
//! test stays quick in a debug build.

use std::sync::Mutex;

use stmbench::inproc::{CacheSpec, InProc};
use stmbench::metrics::{END_TO_END, PER_LAYER};
use stmbench::report::Report;
use stmbench::{Plan, Workload};

/// `ValueCell::live_count` is process-wide, so runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const KEYS: u64 = 1 << 14;

fn plan(workload: Workload, trace: bool) -> Plan {
    Plan {
        workload,
        seed: 5,
        seconds: 1.0,
        trace,
    }
}

fn small(workload: Workload) -> InProc {
    match workload {
        Workload::StoreGet => InProc {
            keys: KEYS,
            ..InProc::store_get()
        },
        Workload::CacheChurn => {
            let full = InProc::cache_churn();
            InProc {
                keys: KEYS,
                cache: Some(CacheSpec {
                    max_bytes: KEYS * (full.value_len as u64 + spectm_kv::ITEM_OVERHEAD_BYTES) / 4,
                    ttl_ms: 1_000,
                }),
                ..full
            }
        }
    }
}

fn run(workload: Workload, trace: bool) -> Report {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = plan(workload, trace);
    stmbench::inproc::run(&small(workload), &plan).expect("the run starts")
}

fn assert_clean(report: &Report, catalogue: &[(&str, &str)]) {
    assert!(report.correct(), "checks failed: {:?}", report.violations);
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let json = report.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn every_workload_runs_clean_untraced_and_traced() {
    for workload in Workload::ALL {
        let report = run(workload, false);
        assert_clean(&report, END_TO_END);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{} {} reads 0", workload.name(), m.name);
        }
        let report = run(workload, true);
        assert_clean(&report, PER_LAYER);
        let get = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        assert!(get("spectm.ro2_ns") > 0.0);
        assert!(get("batch.execute_ns_per_op") > 0.0);
        assert!(get("wire.decode_request_ns") > 0.0);
        assert!(get("map.get_ns") > 0.0 && get("lockfree.get_ns") > 0.0);
        match workload {
            Workload::StoreGet => {
                assert!(get("store.get_ns") > 0.0);
                assert_eq!(get("cache.hit_ratio"), 1.0);
                assert!(get("serve.frames") > 0.0);
                assert!(get("serve.coalesced_frames_mean") >= 1.0);
                assert!(get("loadgen.open_p99_us") > 0.0);
            }
            Workload::CacheChurn => {
                assert!(get("store.put_ttl_ns") > 0.0);
                assert!(get("cache.misses") > 0.0);
                assert!(get("cache.hit_ratio") > 0.0 && get("cache.hit_ratio") < 1.0);
            }
        }
    }
}
