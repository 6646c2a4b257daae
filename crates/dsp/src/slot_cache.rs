//! A small process-wide MRU cache of computed values, behind the FFT
//! plan cache.
//!
//! A lookup classifies under the lock and computes outside it: a miss
//! publishes an empty slot for its key before releasing the lock, so
//! workers racing for the same key coalesce on the slot's
//! `OnceLock::get_or_init` (one computes, the rest block for the shared
//! value) while lookups of other keys proceed. The hit/miss decision is
//! made at key-lookup time, so the cache's two counters are
//! deterministic for a fixed workload at any worker count, as long as
//! the working set fits the capacity.

use echo_obs::Counter;
use std::sync::{Arc, Mutex, OnceLock};

/// One entry's value, published before it is computed.
type Slot<V> = Arc<OnceLock<Arc<V>>>;

/// A bounded, most-recently-used-first list of `(key, slot)` entries
/// with `hit`/`miss` counters; a linear scan is fine at the handful of
/// entries each cache holds. Declare one as a `static`.
pub struct SlotCache<K, V> {
    entries: Mutex<Vec<(K, Slot<V>)>>,
    capacity: usize,
    names: [&'static str; 2],
    counters: OnceLock<[&'static Counter; 2]>,
}

impl<K: PartialEq, V> SlotCache<K, V> {
    /// An empty cache keeping at most `capacity` entries, counting
    /// lookups into the registry counters named `hit` and `miss`.
    pub const fn new(capacity: usize, hit: &'static str, miss: &'static str) -> Self {
        SlotCache {
            entries: Mutex::new(Vec::new()),
            capacity,
            names: [hit, miss],
            counters: OnceLock::new(),
        }
    }

    /// The value cached for `key`, computed by `make` on a miss, and
    /// whether the lookup hit.
    pub fn get_or_compute(&self, key: K, make: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let [hit, miss] = *self
            .counters
            .get_or_init(|| self.names.map(|name| echo_obs::registry().counter(name)));
        let (slot, was_hit) = {
            let mut entries = self.lock();
            if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
                hit.inc();
                let entry = entries.remove(pos);
                let slot = Arc::clone(&entry.1);
                entries.insert(0, entry);
                (slot, true)
            } else {
                miss.inc();
                let slot: Slot<V> = Arc::new(OnceLock::new());
                entries.insert(0, (key, Arc::clone(&slot)));
                entries.truncate(self.capacity);
                (slot, false)
            }
        };
        (Arc::clone(slot.get_or_init(|| Arc::new(make()))), was_hit)
    }

    /// Number of entries currently cached.
    pub fn entry_count(&self) -> usize {
        self.lock().len()
    }

    /// Drops every entry (values still held by callers stay alive).
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(K, Slot<V>)>> {
        // Values are computed outside the lock, so a panicking `make`
        // never poisons it mid-update; the list is always consistent.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racers_share_one_computation_and_capacity_evicts_the_least_recent() {
        static CACHE: SlotCache<u8, u64> =
            SlotCache::new(2, "test.slot_cache.hit", "test.slot_cache.miss");
        let counted = |name| echo_obs::snapshot().counter(name).unwrap_or(0);
        let wait_for = |name, n| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while counted(name) < n {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{name} never reached {n}"
                );
                std::thread::yield_now();
            }
        };
        std::thread::scope(|scope| {
            // Owned here, so a failed assertion drops the sender and
            // frees the first lookup before the scope joins it.
            let (release, released) = std::sync::mpsc::channel::<()>();
            // The first lookup misses and computes until released ...
            let first =
                scope.spawn(move || CACHE.get_or_compute(7, || released.recv().map_or(0, |()| 49)));
            wait_for("test.slot_cache.miss", 1);
            // ... while three more classify as hits on its empty slot.
            let racers: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| CACHE.get_or_compute(7, || unreachable!("computed once"))))
                .collect();
            wait_for("test.slot_cache.hit", 3);
            release.send(()).expect("the first lookup is waiting");
            assert_eq!(*first.join().unwrap().0, 49);
            for racer in racers {
                assert_eq!(racer.join().unwrap(), (Arc::new(49), true));
            }
        });
        assert_eq!(counted("test.slot_cache.miss"), 1);
        // Key 7 is the least recently used once 8 is; key 9 evicts it.
        CACHE.get_or_compute(8, || 64);
        CACHE.get_or_compute(9, || 81);
        assert_eq!(CACHE.entry_count(), 2);
        assert!(CACHE.get_or_compute(9, || unreachable!("cached")).1);
        assert!(!CACHE.get_or_compute(7, || 49).1);
    }
}
