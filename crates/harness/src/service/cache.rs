//! The cross-query caching layer: a per-shard LRU of hot per-feature
//! candidate bitsets plus an optional whole-answer memo keyed by the
//! query's canonical graph key.
//!
//! Both levels exist for the same workload shape — heavy traffic that
//! hammers the same few query patterns — and both are *sound by
//! construction* rather than by revalidation:
//!
//! * **Feature cache** ([`FeatureCache`]): one store per (shard, method)
//!   index instance, implementing
//!   [`sqbench_index::FeatureCacheStore`]. Every cached bitset is an
//!   immutable posting list of that one instance (trie payloads and mined
//!   supports are frozen at build time; Tree+Δ's learned Δ supports never
//!   change once inserted), so a hit can never be stale within one cache
//!   epoch. Binding stores per instance also makes keys shard-local —
//!   a shard never sees another shard's bits.
//! * **Answer memo** ([`AnswerMemo`]): maps a query's *exact* canonical
//!   form to its complete verified answer set. Entries are only admitted
//!   for queries small enough for exact canonicalization
//!   ([`sqbench_features::canonical::MAX_EXACT_CANON_VERTICES`]) — the
//!   Weisfeiler–Lehman fallback beyond that MAY collide and must never
//!   gate correctness — and only from [`QueryOutcome::Complete`] runs, so
//!   a hit is bit-identical to re-executing the query. Isomorphic queries
//!   share an entry by design: same canonical form, same answer set.
//!
//! [`QueryOutcome::Complete`]: super::stages::QueryOutcome::Complete
//!
//! # Invalidation (the ingest path)
//!
//! The dataset is mutable: [`super::ShardedService::insert_graph`] and
//! [`super::ShardedService::remove_graph`] (and the typed
//! [`super::IngestOp`] mutations drained from the admission queue) change
//! what every cached entry was computed against. Both cache levels carry
//! a monotonically increasing **epoch** ([`FeatureCache::epoch`],
//! [`AnswerMemo::epoch`]), and [`FeatureCache::invalidate_all`] /
//! [`AnswerMemo::invalidate_all`] bump it and drop every entry. **Every
//! mutation entry point calls the owning service's `invalidate_caches()`
//! automatically**, so a cached answer or feature bitset can never span a
//! mutation — which is exactly what lets the answer memo stay *enabled*
//! on mutable workloads: a memo hit skips the shards entirely, and
//! without the automatic flush it would replay answers from before the
//! mutation (the stale-cache hazard pinned by the
//! `mutations_invalidate_the_answer_memo` regression test).

use sqbench_features::canonical::{graph_key, MAX_EXACT_CANON_VERTICES};
use sqbench_graph::{Graph, GraphId};
use sqbench_index::{CandidateSet, FeatureCacheStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The cache knobs of the unified [`super::ServiceOptions`] surface — the
/// *only* config surface that carries them. Capacity `0` disables a level;
/// the default disables both, so every pre-cache code path (and every
/// committed golden number) is byte-for-byte unchanged until a caller opts
/// in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Max entries of each per-shard feature-bitset LRU (0 = disabled).
    pub feature_capacity: usize,
    /// Max entries of the whole-answer memo (0 = disabled).
    pub answer_capacity: usize,
}

impl CachePolicy {
    /// Both levels off — the default, preserving pre-cache behavior.
    pub fn disabled() -> Self {
        CachePolicy {
            feature_capacity: 0,
            answer_capacity: 0,
        }
    }

    /// Both levels on with serving-friendly capacities.
    pub fn enabled() -> Self {
        CachePolicy {
            feature_capacity: 4096,
            answer_capacity: 1024,
        }
    }

    /// `true` when neither level is enabled.
    pub fn is_disabled(&self) -> bool {
        self.feature_capacity == 0 && self.answer_capacity == 0
    }
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy::disabled()
    }
}

const NIL: usize = usize::MAX;

struct Slot<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// A string-keyed LRU map: O(1) `get`/`put` via a slot-index doubly-linked
/// recency list over a `HashMap`, with an eviction counter. Interior
/// mutability and thread safety are the wrapping cache's concern — both
/// [`FeatureCache`] and [`AnswerMemo`] hold one behind a `Mutex`.
pub struct Lru<V> {
    map: HashMap<String, usize>,
    slots: Vec<Slot<V>>,
    head: usize,
    tail: usize,
    capacity: usize,
    evictions: u64,
}

impl<V> Lru<V> {
    /// An empty LRU holding at most `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Lru {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            evictions: 0,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Evictions performed since construction (or the last [`Lru::clear`]).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn link_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking the entry most-recently used on a hit.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.link_front(idx);
        }
        Some(&self.slots[idx].value)
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when at capacity.
    pub fn put(&mut self, key: String, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            if idx != self.head {
                self.unlink(idx);
                self.link_front(idx);
            }
            return;
        }
        let idx = if self.map.len() >= self.capacity {
            // Reuse the evicted tail slot in place.
            let idx = self.tail;
            self.unlink(idx);
            let old_key = std::mem::replace(&mut self.slots[idx].key, key.clone());
            self.map.remove(&old_key);
            self.slots[idx].value = value;
            self.evictions += 1;
            idx
        } else {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, idx);
        self.link_front(idx);
    }

    /// Drops every entry (the eviction counter is preserved — counted
    /// evictions were capacity pressure, a clear is invalidation).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// Per-(shard, method) LRU of hot per-feature candidate bitsets — the
/// store behind [`sqbench_index::GraphIndex::filter_into_cached`]. Shared
/// by all of one shard's workers; hits and misses are counted here (across
/// every query that probed the store), evictions inside the LRU.
pub struct FeatureCache {
    entries: Mutex<Lru<Arc<CandidateSet>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    epoch: AtomicU64,
}

impl FeatureCache {
    /// An empty cache holding at most `capacity` feature bitsets.
    pub fn new(capacity: usize) -> Self {
        FeatureCache {
            entries: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<Arc<CandidateSet>>> {
        // Poison-tolerant like the admission queue: a worker that panicked
        // while holding the lock cannot leave a half-written entry (puts
        // are single `HashMap`/`Vec` operations), so serving continues.
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Feature lookups that found a cached bitset.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Feature lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions()
    }

    /// Current cache epoch; bumped by [`FeatureCache::invalidate_all`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Drops every entry and bumps the epoch. Invoked automatically (via
    /// the owning service's `invalidate_caches()`) by every mutation entry
    /// point — `ShardedService::insert_graph`/`remove_graph` and drained
    /// `IngestOp` mutations — so no cached entry ever spans a mutation.
    pub fn invalidate_all(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.lock().clear();
    }
}

impl FeatureCacheStore for FeatureCache {
    fn get(&self, key: &str) -> Option<Arc<CandidateSet>> {
        let hit = self.lock().get(key).cloned();
        match hit {
            Some(set) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(set)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, key: String, value: Arc<CandidateSet>) {
        self.lock().put(key, value);
    }
}

/// What the answer memo stores for one canonical query: everything needed
/// to synthesize a [`super::ShardedQueryRecord`] without touching a
/// shard, so a memo hit reports the same candidate accounting (and thus
/// the same false-positive ratio) as the run that populated it.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerEntry {
    /// The complete verified answer ids, sorted ascending.
    pub answers: Vec<GraphId>,
    /// Candidate-set size of the populating run.
    pub candidate_count: usize,
    /// Graphs pruned by the populating run's filter stage.
    pub candidates_pruned: usize,
}

/// Whole-answer memo keyed by exact canonical graph form. One per service
/// (not per shard — the memoized answer set is the merged, global one);
/// probed at admission before any shard is planned.
pub struct AnswerMemo {
    entries: Mutex<Lru<Arc<AnswerEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    epoch: AtomicU64,
}

/// The memo key of a query, or `None` when the query is too large for
/// *exact* canonicalization. Beyond
/// [`MAX_EXACT_CANON_VERTICES`] vertices `graph_key` falls back to a
/// Weisfeiler–Lehman refinement string that MAY collide across
/// non-isomorphic graphs, and a collision here would serve one query
/// another query's answers — so such queries always take the full path.
pub fn answer_memo_key(query: &Graph) -> Option<String> {
    if query.vertex_count() <= MAX_EXACT_CANON_VERTICES {
        Some(graph_key(query).as_str().to_string())
    } else {
        None
    }
}

impl AnswerMemo {
    /// An empty memo holding at most `capacity` answer sets.
    pub fn new(capacity: usize) -> Self {
        AnswerMemo {
            entries: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<Arc<AnswerEntry>>> {
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Looks up a memoized answer set by canonical key.
    pub fn lookup(&self, key: &str) -> Option<Arc<AnswerEntry>> {
        let hit = self.lock().get(key).cloned();
        match hit {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes a completed query's answer set. Callers only insert
    /// [`super::stages::QueryOutcome::Complete`] results — a degraded or
    /// partial answer set must never be served as complete later.
    pub fn insert(&self, key: String, entry: AnswerEntry) {
        self.lock().put(key, Arc::new(entry));
    }

    /// Memo lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Memo lookups that missed (eligible queries only — oversized queries
    /// never probe).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions()
    }

    /// Current memo epoch; bumped by [`AnswerMemo::invalidate_all`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Drops every entry and bumps the epoch. Invoked automatically (via
    /// the owning service's `invalidate_caches()`) by every mutation entry
    /// point — `ShardedService::insert_graph`/`remove_graph` and drained
    /// `IngestOp` mutations — so no cached entry ever spans a mutation.
    pub fn invalidate_all(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    #[test]
    fn lru_capacity_two_evicts_lru_not_mru() {
        // The ISSUE's pinned eviction scenario: A, B, A, C — the A probe
        // refreshes A's recency, so inserting C must evict B, not A.
        let mut lru = Lru::new(2);
        lru.put("A".into(), 1);
        lru.put("B".into(), 2);
        assert_eq!(lru.get("A"), Some(&1));
        lru.put("C".into(), 3);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions(), 1);
        assert_eq!(lru.get("B"), None, "B was LRU and must be evicted");
        assert_eq!(lru.get("A"), Some(&1), "A was refreshed and must survive");
        assert_eq!(lru.get("C"), Some(&3));
    }

    #[test]
    fn lru_refresh_on_put_updates_value_and_recency() {
        let mut lru = Lru::new(2);
        lru.put("A".into(), 1);
        lru.put("B".into(), 2);
        lru.put("A".into(), 10); // refresh, not insert: no eviction
        assert_eq!(lru.evictions(), 0);
        lru.put("C".into(), 3); // now B is LRU
        assert_eq!(lru.get("B"), None);
        assert_eq!(lru.get("A"), Some(&10));
    }

    #[test]
    fn lru_single_slot_churns() {
        let mut lru = Lru::new(1);
        for (i, key) in ["x", "y", "z"].iter().enumerate() {
            lru.put((*key).into(), i);
            assert_eq!(lru.get(key), Some(&i));
            assert_eq!(lru.len(), 1);
        }
        assert_eq!(lru.evictions(), 2);
    }

    #[test]
    fn feature_cache_counts_and_invalidates() {
        let cache = FeatureCache::new(8);
        assert!(FeatureCacheStore::get(&cache, "k").is_none());
        FeatureCacheStore::put(&cache, "k".into(), Arc::new(CandidateSet::full(5)));
        assert_eq!(FeatureCacheStore::get(&cache, "k").expect("hit").len(), 5);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let epoch = cache.epoch();
        cache.invalidate_all();
        assert_eq!(cache.epoch(), epoch + 1);
        assert!(FeatureCacheStore::get(&cache, "k").is_none());
    }

    #[test]
    fn answer_memo_round_trips_and_keys_isomorphic_queries_together() {
        // The same triangle built with two different vertex orders: exact
        // canonicalization gives both the same memo key.
        let q1 = GraphBuilder::new("q1")
            .vertices(&[1, 2, 3])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        let q2 = GraphBuilder::new("q2")
            .vertices(&[3, 1, 2])
            .edges(&[(1, 2), (2, 0), (0, 1)])
            .build()
            .unwrap();
        let k1 = answer_memo_key(&q1).expect("small query is eligible");
        let k2 = answer_memo_key(&q2).expect("small query is eligible");
        assert_eq!(k1, k2);

        let memo = AnswerMemo::new(4);
        assert!(memo.lookup(&k1).is_none());
        memo.insert(
            k1.clone(),
            AnswerEntry {
                answers: vec![0, 2],
                candidate_count: 3,
                candidates_pruned: 7,
            },
        );
        let entry = memo.lookup(&k2).expect("isomorphic query hits");
        assert_eq!(entry.answers, vec![0, 2]);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
    }

    #[test]
    fn oversized_queries_are_never_memo_eligible() {
        let n = MAX_EXACT_CANON_VERTICES + 1;
        let labels: Vec<u32> = vec![1; n];
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let q = GraphBuilder::new("big")
            .vertices(&labels)
            .edges(&edges)
            .build()
            .unwrap();
        assert!(
            answer_memo_key(&q).is_none(),
            "WL-fallback keys may collide and must not gate correctness"
        );
    }
}
