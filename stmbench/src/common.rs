//! What the workloads share: the store type, building and preloading it,
//! and STM counter deltas.

use std::sync::Arc;

use harness::kv::{fill_payload, KvWorkloadConfig};
use spectm::StatsSnapshot;
use spectm_ds::ApiMode;
use spectm_kv::{CacheConfig, ShardedKv};

use crate::metrics::Layers;
use crate::report::ratio;

/// The STM under test: value-based validation with short transactions,
/// the paper's headline layout.
pub type Stm = spectm::variants::ValShort;
/// A registered STM thread.
pub type Thread = <Stm as spectm::Stm>::Thread;
/// The store under test.
pub type Store = ShardedKv<Stm>;

/// Operations in one in-process unit and in one wire frame.
pub const UNIT_OPS: usize = 16;

/// Units whose operations thread 0 records for the in-process replays.
pub const RECORDED_UNITS: usize = 2048;

/// Builds a val-short store sized for `keys` keys (the `kv` binary's
/// shape: 16 shards, each hinted for its fair share).
pub fn new_store(stm: &Stm, keys: u64, config: CacheConfig) -> Arc<Store> {
    let shape = KvWorkloadConfig::sized_for(keys);
    Arc::new(ShardedKv::with_config(
        stm,
        shape.shards,
        shape.capacity_per_shard,
        ApiMode::Short,
        config,
    ))
}

/// Puts a checksummed `value_len`-byte payload (filler seeded by `nonce`)
/// under every key of `keys`, with the TTL `ttl(key)` picks.
pub fn preload(
    store: &Store,
    keys: impl Iterator<Item = u64>,
    value_len: usize,
    nonce: u64,
    ttl: impl Fn(u64) -> Option<u64>,
) {
    let mut thread = store.register();
    let mut buf = Vec::with_capacity(value_len);
    for key in keys {
        fill_payload(key, nonce, value_len, &mut buf);
        store
            .put_with_ttl(key, &buf, ttl(key), &mut thread)
            .expect("preload payloads are within the value limit");
    }
}

/// Mixes a run seed with a stream index into an independent, non-zero
/// xorshift seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// The STM counters the per-layer figures report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StmCounts {
    ro_commits: u64,
    ro_conflicts: u64,
    rw_commits: u64,
    rw_conflicts: u64,
    full_commits: u64,
    full_aborts: u64,
}

impl StmCounts {
    /// Counter movement of one thread between two snapshots.
    pub fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> Self {
        Self {
            ro_commits: after.short_ro_commits - before.short_ro_commits,
            ro_conflicts: after.short_ro_conflicts - before.short_ro_conflicts,
            rw_commits: after.short_rw_commits - before.short_rw_commits,
            rw_conflicts: after.short_rw_conflicts - before.short_rw_conflicts,
            full_commits: after.full_commits - before.full_commits,
            full_aborts: after.full_aborts - before.full_aborts,
        }
    }

    /// Adds another thread's counts.
    pub fn add(&mut self, o: &StmCounts) {
        self.ro_commits += o.ro_commits;
        self.ro_conflicts += o.ro_conflicts;
        self.rw_commits += o.rw_commits;
        self.rw_conflicts += o.rw_conflicts;
        self.full_commits += o.full_commits;
        self.full_aborts += o.full_aborts;
    }

    /// Writes the `spectm.*` counters and the commit ratio (commits over
    /// commits plus conflicts plus aborts).
    pub fn set_layers(&self, layers: &mut Layers) {
        layers.set("spectm.ro_commits", self.ro_commits as f64);
        layers.set("spectm.ro_conflicts", self.ro_conflicts as f64);
        layers.set("spectm.rw_commits", self.rw_commits as f64);
        layers.set("spectm.rw_conflicts", self.rw_conflicts as f64);
        layers.set("spectm.full_commits", self.full_commits as f64);
        layers.set("spectm.full_aborts", self.full_aborts as f64);
        let commits = self.ro_commits + self.rw_commits + self.full_commits;
        let failures = self.ro_conflicts + self.rw_conflicts + self.full_aborts;
        layers.set("spectm.commit_ratio", ratio(commits, commits + failures));
    }
}

/// The `txepoch.*` figures from collector snapshots around the load.
pub fn set_epoch_layers(
    layers: &mut Layers,
    before: &txepoch::CollectorStats,
    after: &txepoch::CollectorStats,
) {
    layers.set("txepoch.retired", (after.retired - before.retired) as f64);
    layers.set(
        "txepoch.reclaimed",
        (after.reclaimed - before.reclaimed) as f64,
    );
    layers.set(
        "txepoch.pending",
        after.retired.saturating_sub(after.reclaimed) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_differ_by_seed_and_stream() {
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
        assert_ne!(stream_seed(1, 0), stream_seed(1, 1));
        assert_eq!(stream_seed(1, 0), stream_seed(1, 0));
        assert_ne!(stream_seed(0, 0), 0);
    }
}
