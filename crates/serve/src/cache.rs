//! Sharded, content-addressed verdict cache.
//!
//! Keys are [`fnv1a64`] hashes of the raw binary bytes, so two submissions
//! with identical content share one entry. Because the service derives each
//! sample's walk seed from the same hash (see
//! [`request_seed`](crate::request_seed)), a cached verdict is *bit-identical*
//! to what the cold path would recompute — caching never changes an answer,
//! only its latency.
//!
//! The map is split into shards, each behind its own mutex, so concurrent
//! submitters rarely contend. Within a shard, eviction is LRU by a per-shard
//! access tick.
//!
//! Every insert is stamped with the model epoch that computed the verdict.
//! [`advance_epoch`](VerdictCache::advance_epoch) drops every entry and
//! makes the cache refuse inserts stamped with an older epoch, so a hot
//! swap retires the old model's verdicts in one step.

use soteria::Verdict;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// FNV-1a 64-bit hash over the byte length (little-endian) followed by the
/// bytes themselves. Folding the length in keeps pathological
/// prefix-padding inputs from colliding trivially.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in (bytes.len() as u64).to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Point-in-time counters of a [`VerdictCache`].
///
/// `lookups == hits + misses` always holds, even under concurrent access:
/// every lookup increments exactly one of the two outcome counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total [`get`](VerdictCache::get) calls.
    pub lookups: u64,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Total [`insert`](VerdictCache::insert) calls that stored an entry.
    pub inserts: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

struct Entry {
    verdict: Verdict,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// A sharded LRU map from content hash to [`Verdict`].
pub struct VerdictCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    /// The oldest model epoch whose verdicts are still accepted.
    epoch: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

impl std::fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerdictCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl VerdictCache {
    /// Creates a cache holding at most `capacity` entries across `shards`
    /// shards (both rounded up so every shard holds at least one entry).
    /// A `capacity` of zero disables caching: every lookup misses and
    /// inserts are dropped.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        VerdictCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            epoch: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // The multiplicative FNV mix leaves the high bits best distributed.
        let i = (key >> 32) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Looks up a verdict by content hash, refreshing its recency.
    pub fn get(&self, key: u64) -> Option<Verdict> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if self.per_shard_capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            soteria_telemetry::counter("serve.cache.misses", 1);
            return None;
        }
        let mut shard = lock(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let verdict = entry.verdict.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                soteria_telemetry::counter("serve.cache.hits", 1);
                Some(verdict)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                soteria_telemetry::counter("serve.cache.misses", 1);
                None
            }
        }
    }

    /// Stores a verdict computed by the model of `epoch`, evicting the
    /// shard's least-recently-used entry if the shard is full. A verdict
    /// from an epoch older than the cache's is dropped: its model has been
    /// swapped out.
    pub fn insert(&self, epoch: u64, key: u64, verdict: Verdict) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = lock(self.shard(key));
        // Checked under the shard lock, which `advance_epoch` takes after
        // raising the epoch: a stale insert either lands before that
        // shard's clear (and is cleared) or sees the new epoch here.
        if epoch < self.epoch.load(Ordering::SeqCst) {
            return;
        }
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            // O(shard) scan; shards are small enough that a heap or
            // intrusive list would cost more than it saves.
            if let Some(&lru) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                shard.map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                soteria_telemetry::counter("serve.cache.evictions", 1);
                soteria_telemetry::gauge_add("serve.cache.entries", -1);
            }
        }
        let fresh = shard
            .map
            .insert(
                key,
                Entry {
                    verdict,
                    last_used: tick,
                },
            )
            .is_none();
        self.inserts.fetch_add(1, Ordering::Relaxed);
        soteria_telemetry::counter("serve.cache.inserts", 1);
        if fresh {
            // Residency gauge: +1 per new key; evictions decrement above,
            // so the gauge tracks `len()` without a cross-shard scan.
            soteria_telemetry::gauge_add("serve.cache.entries", 1);
        }
    }

    /// Retires every verdict of a model older than `epoch`: later inserts
    /// stamped with an older epoch are dropped, and every resident entry
    /// is cleared. Once this returns, no lookup can see an older model's
    /// verdict. The epoch never moves backwards.
    pub fn advance_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::SeqCst);
        self.clear();
    }

    /// Drops every resident entry (counters are preserved). Shards are
    /// cleared one at a time, so a concurrent reader may still hit an entry
    /// in a not-yet-cleared shard, and a concurrent insert may land after
    /// its shard was cleared; [`advance_epoch`](VerdictCache::advance_epoch)
    /// is the strict cutover.
    pub fn clear(&self) {
        let mut dropped = 0i64;
        for shard in &self.shards {
            let mut shard = lock(shard);
            dropped += shard.map.len() as i64;
            shard.map.clear();
        }
        if dropped > 0 {
            soteria_telemetry::gauge_add("serve.cache.entries", -dropped);
        }
        soteria_telemetry::counter("serve.cache.clears", 1);
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Locks a mutex, recovering from poison. Only for state that is valid
/// after any interrupted operation — a cache shard's plain map, the
/// service's queue receiver and model slot — so a panicking peer must not
/// wedge every later request.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_resilience::FaultKind;

    fn verdict(tag: f64) -> Verdict {
        Verdict::Adversarial {
            reconstruction_error: tag,
        }
    }

    #[test]
    fn fnv_distinguishes_length_and_content() {
        assert_ne!(fnv1a64(b""), fnv1a64(b"\0"));
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
        assert_eq!(fnv1a64(b"soteria"), fnv1a64(b"soteria"));
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = VerdictCache::new(8, 2);
        assert_eq!(cache.get(1), None);
        cache.insert(0, 1, verdict(0.5));
        assert_eq!(cache.get(1), Some(verdict(0.5)));
        let stats = cache.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Single shard so eviction order is fully observable.
        let cache = VerdictCache::new(2, 1);
        cache.insert(0, 1, verdict(1.0));
        cache.insert(0, 2, verdict(2.0));
        assert_eq!(cache.get(1), Some(verdict(1.0))); // refresh 1; 2 is now LRU
        cache.insert(0, 3, verdict(3.0));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(2), None, "cold entry should have been evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn reinserting_a_resident_key_does_not_evict() {
        let cache = VerdictCache::new(2, 1);
        cache.insert(0, 1, verdict(1.0));
        cache.insert(0, 2, verdict(2.0));
        cache.insert(0, 1, verdict(9.0));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(1), Some(verdict(9.0)));
        assert_eq!(cache.get(2), Some(verdict(2.0)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = VerdictCache::new(0, 4);
        cache.insert(0, 1, verdict(1.0));
        assert_eq!(cache.get(1), None);
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.inserts, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn clear_empties_every_shard_and_keeps_counters() {
        let scope = soteria_telemetry::scoped();
        let cache = VerdictCache::new(16, 4);
        // Shards hash on the high 32 bits; spread the keys across them.
        for k in 0..10u64 {
            cache.insert(0, k << 32, verdict(k as f64));
        }
        assert_eq!(cache.len(), 10);
        cache.clear();
        assert!(cache.is_empty());
        for k in 0..10u64 {
            assert_eq!(cache.get(k << 32), None);
        }
        let stats = cache.stats();
        assert_eq!(stats.inserts, 10, "clear must not rewind counters");
        assert_eq!(stats.entries, 0);
        let report = soteria_telemetry::snapshot();
        assert_eq!(report.gauge("serve.cache.entries"), Some(0));
        assert_eq!(report.counter("serve.cache.clears"), Some(1));
        drop(scope);
    }

    #[test]
    fn stale_epoch_inserts_are_dropped_after_the_epoch_advances() {
        let cache = VerdictCache::new(8, 2);
        cache.insert(0, 1, verdict(1.0));
        cache.advance_epoch(1);
        assert_eq!(cache.get(1), None, "advancing retires resident entries");
        cache.insert(0, 2, verdict(2.0));
        assert_eq!(cache.get(2), None, "a retired model's verdict is dropped");
        cache.insert(1, 3, verdict(3.0));
        assert_eq!(
            cache.get(3),
            Some(verdict(3.0)),
            "the current epoch is kept"
        );
        cache.advance_epoch(0);
        cache.insert(0, 4, verdict(4.0));
        assert_eq!(cache.get(4), None, "the epoch never moves backwards");
        assert_eq!(cache.stats().inserts, 2);
    }

    #[test]
    fn caches_degraded_verdicts_too() {
        let cache = VerdictCache::new(4, 1);
        let v = Verdict::Degraded {
            reason: FaultKind::Panic {
                message: "boom".to_owned(),
            },
        };
        cache.insert(0, 7, v.clone());
        assert_eq!(cache.get(7), Some(v));
    }

    #[test]
    fn stats_are_consistent_under_concurrent_hammering() {
        let cache = std::sync::Arc::new(VerdictCache::new(16, 4));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = (t * 31 + i) % 40;
                        if cache.get(key).is_none() {
                            cache.insert(0, key, verdict(key as f64));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups, 800);
        assert_eq!(stats.hits + stats.misses, stats.lookups);
        assert!(
            stats.entries <= 16 + 3,
            "entries {} over cap",
            stats.entries
        );
    }
}
