//! Correctness checks, each against a computation made apart from the store
//! or a property the store must have.  Per-operation checks classify one
//! result; run-level checks return `Err` with a one-line reason.

use harness::kv::payload_is_valid;
use spectm_kv::{CacheStats, Value};

/// What one get returned, judged against the key-seeded payload checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Got {
    /// A value that passes the checksum for its key.
    Hit,
    /// Nothing.
    Miss,
    /// A value that fails the checksum (a wrong or torn payload).
    Corrupt,
}

/// Classifies one get result for `key`.
#[inline]
pub fn classify(key: u64, value: Option<&[u8]>) -> Got {
    match value {
        Some(bytes) if payload_is_valid(key, bytes) => Got::Hit,
        Some(_) => Got::Corrupt,
        None => Got::Miss,
    }
}

/// The final sweep over a preloaded, delete-free key space: every key in
/// `0..num_keys` must be present with a valid payload.
pub fn check_sweep(num_keys: u64, mut get: impl FnMut(u64) -> Option<Value>) -> Result<(), String> {
    for key in 0..num_keys {
        match classify(key, get(key).as_deref()) {
            Got::Hit => {}
            Got::Miss => return Err(format!("final sweep: key {key} is missing")),
            Got::Corrupt => return Err(format!("final sweep: key {key} fails its checksum")),
        }
    }
    Ok(())
}

/// Every frame the client sent was served: the server's `batches` counter
/// moved by exactly the frames sent.
pub fn check_frames(sent: u64, served: u64) -> Result<(), String> {
    if sent == served {
        Ok(())
    } else {
        Err(format!(
            "client sent {sent} frames, server counted {served}"
        ))
    }
}

/// Counter deltas between two [`CacheStats`] snapshots (`live_bytes` is the
/// later reading).
pub fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        expired: after.expired - before.expired,
        evicted: after.evicted - before.evicted,
        live_bytes: after.live_bytes,
    }
}

/// Gets issued equal hits plus misses as the benchmark counted them, and
/// those equal the store's own counters over the same interval.
pub fn check_cache_counts(
    gets: u64,
    hits: u64,
    misses: u64,
    store: &CacheStats,
) -> Result<(), String> {
    if gets != hits + misses {
        return Err(format!(
            "{gets} gets issued but {hits} hits + {misses} misses counted"
        ));
    }
    if store.hits != hits || store.misses != misses {
        return Err(format!(
            "benchmark counted {hits} hits / {misses} misses, store counted {} / {}",
            store.hits, store.misses
        ));
    }
    Ok(())
}

/// After a final sweep the live-byte account is at or under the budget.
pub fn check_budget(live_bytes: u64, max_bytes: u64) -> Result<(), String> {
    if live_bytes <= max_bytes {
        Ok(())
    } else {
        Err(format!(
            "live_bytes {live_bytes} exceeds the {max_bytes}-byte budget after a sweep"
        ))
    }
}

/// Out-of-line value cells return to their starting count once the store
/// is dropped and its epochs drain.
pub fn check_cells(baseline: usize, after: usize) -> Result<(), String> {
    if baseline == after {
        Ok(())
    } else {
        Err(format!(
            "{after} value cells alive after teardown, {baseline} before setup"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::kv::fill_payload;

    fn payload(key: u64, len: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        fill_payload(key, 7, len, &mut buf);
        buf
    }

    #[test]
    fn classify_accepts_valid_and_flags_corrupted_payloads() {
        for len in [8, 100] {
            let mut good = payload(3, len);
            assert_eq!(classify(3, Some(&good)), Got::Hit);
            assert_eq!(
                classify(4, Some(&good)),
                Got::Corrupt,
                "another key's payload"
            );
            good[0] ^= 1;
            assert_eq!(classify(3, Some(&good)), Got::Corrupt, "flipped bit");
        }
        assert_eq!(classify(3, None), Got::Miss);
    }

    #[test]
    fn sweep_fires_on_a_dropped_key_and_a_corrupted_one() {
        let get = |key: u64| Some(Value::new(&payload(key, 8)));
        assert_eq!(check_sweep(64, get), Ok(()));
        let dropped = |key: u64| (key != 17).then(|| Value::new(&payload(key, 8)));
        assert!(check_sweep(64, dropped)
            .unwrap_err()
            .contains("key 17 is missing"));
        let corrupt = |key: u64| Some(Value::new(&payload(key ^ (key == 5) as u64, 8)));
        assert!(check_sweep(64, corrupt)
            .unwrap_err()
            .contains("key 5 fails"));
    }

    #[test]
    fn frame_count_fires_on_mismatch() {
        assert_eq!(check_frames(10, 10), Ok(()));
        assert!(check_frames(10, 9).is_err());
    }

    #[test]
    fn cache_counts_fire_on_any_mismatched_counter() {
        let store = CacheStats {
            hits: 8,
            misses: 2,
            ..CacheStats::default()
        };
        assert_eq!(check_cache_counts(10, 8, 2, &store), Ok(()));
        assert!(
            check_cache_counts(11, 8, 2, &store).is_err(),
            "gets != hits + misses"
        );
        assert!(
            check_cache_counts(10, 7, 3, &store).is_err(),
            "store disagrees"
        );
        let before = CacheStats {
            hits: 1,
            misses: 1,
            ..CacheStats::default()
        };
        let delta = cache_delta(&before, &store);
        assert!(
            check_cache_counts(10, 8, 2, &delta).is_err(),
            "delta, not total"
        );
    }

    #[test]
    fn budget_fires_on_overrun() {
        assert_eq!(check_budget(100, 100), Ok(()));
        assert!(check_budget(101, 100).is_err());
    }

    #[test]
    fn cell_count_fires_on_a_leak() {
        assert_eq!(check_cells(3, 3), Ok(()));
        assert!(check_cells(3, 4).is_err());
    }
}
