//! The common transient store: inter-transaction bean-image cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use sli_component::{BeanMap, Memento};
use sli_datastore::Value;
use sli_simnet::wire::{protocol, Reader, Writer};
use sli_simnet::Service;
use sli_telemetry::{Counter, Gauge, Registry, Timeline};

/// Number of independently locked shards in a [`CommonStore`].
///
/// Every key hashes to exactly one shard, so two sessions touching
/// different shards never contend on the same lock. Eight is small enough
/// that cross-shard scans (global-LRU eviction, `clear`) stay cheap and
/// large enough that the load engine's concurrent sessions spread out.
pub const STORE_SHARDS: usize = 8;

/// Hit/miss counters for a [`CommonStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that fell through to the persistent tier.
    pub misses: u64,
    /// Entries invalidated by peer-commit notifications.
    pub invalidations: u64,
    /// Entries evicted by the LRU policy (capacity-bounded stores only).
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The shared ("common") transient store of committed bean images.
///
/// One per cache-enhanced application server. Per §2.3 of the paper it is
/// maintained *alongside* the per-transaction store: "when a direct-access
/// operation results in a cache miss on the per-transaction store, the
/// common store is checked for a copy of the EJB data before an attempt is
/// made to access the persistent EJB". Because each edge keeps its own
/// common store, the conflict window widens — which is exactly what the
/// optimistic validator exists to catch.
///
/// Internally the image map is split into [`STORE_SHARDS`] key-hash shards,
/// each behind its own lock, so concurrent sessions only serialize when
/// they touch the same shard. Recency ticks come from one shared counter,
/// which keeps LRU ordering *global*: eviction always removes the
/// least-recently-used image across the whole store, exactly as the
/// single-lock implementation did.
///
/// ```
/// use sli_core::CommonStore;
/// use sli_component::Memento;
/// use sli_datastore::Value;
///
/// let store = CommonStore::new();
/// store.put(Memento::new("Quote", Value::from("s:1")).with_field("price", 11.0));
/// assert!(store.get("Quote", &Value::from("s:1")).is_some()); // hit
/// assert!(store.get("Quote", &Value::from("s:2")).is_none()); // miss
/// assert_eq!(store.stats().hits, 1);
/// assert_eq!(store.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct CommonStore {
    shards: Vec<RwLock<StoreShard>>,
    capacity: Option<usize>,
    /// Resident-bytes budget: the store evicts LRU images until the summed
    /// wire-encoded size fits (always keeping at least one image).
    budget: Option<u64>,
    /// Shared recency clock — global ticks make per-shard recency maps
    /// comparable, so eviction order is identical to a single LRU list.
    tick: AtomicU64,
    /// Total images across all shards.
    entries: AtomicU64,
    /// Total wire-encoded bytes across all shards.
    resident: AtomicU64,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    evictions: Counter,
    /// Times the LRU index disagreed with the image map (an invariant slip
    /// that previously aborted the simulation; now counted and skipped).
    lru_desync: Counter,
    /// Working-set size: number of cached images, kept in sync with the
    /// shard maps so timelines can watch the cache fill.
    size: Gauge,
    /// Working-set size in wire-encoded bytes (`Memento::encoded_len`).
    resident_bytes: Gauge,
}

impl Default for CommonStore {
    fn default() -> CommonStore {
        CommonStore {
            shards: (0..STORE_SHARDS)
                .map(|_| RwLock::new(StoreShard::default()))
                .collect(),
            capacity: None,
            budget: None,
            tick: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            hits: Counter::new(),
            misses: Counter::new(),
            invalidations: Counter::new(),
            evictions: Counter::new(),
            lru_desync: Counter::new(),
            size: Gauge::new(),
            resident_bytes: Gauge::new(),
        }
    }
}

/// One shard: image map plus LRU bookkeeping. Every entry carries the
/// global tick of its last use, and `recency` orders the shard's entries by
/// that tick for O(log n) eviction. Both sides hold the same shared image,
/// so the index costs a pointer per entry.
#[derive(Debug, Default)]
struct StoreShard {
    images: BeanMap<(Memento, u64)>,
    recency: std::collections::BTreeMap<u64, Memento>,
}

impl StoreShard {
    fn remove(&mut self, bean: &str, key: &Value) -> Option<Memento> {
        let (image, tick) = self.images.remove(bean, key)?;
        self.recency.remove(&tick);
        Some(image)
    }

    /// The tick of this shard's least-recently-used entry, if any.
    fn lru_tick(&self) -> Option<u64> {
        self.recency.keys().next().copied()
    }

    /// Removes this shard's least-recently-used entry. Returns `None` when
    /// the recency index and image map disagree (desync; the stale index
    /// entry is dropped so the caller can count the slip and move on) or
    /// the shard is empty.
    fn pop_lru(&mut self) -> Option<Memento> {
        let (_, oldest) = self.recency.pop_first()?;
        self.remove(oldest.bean(), oldest.primary_key())
    }
}

/// FNV-1a: a fixed, seed-free hasher so shard assignment is deterministic
/// across runs and platforms (a randomized hasher would make perfguard
/// baselines and slicheck replays irreproducible).
struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl CommonStore {
    /// Creates an unbounded store (the paper's configuration).
    pub fn new() -> Arc<CommonStore> {
        Arc::new(CommonStore::default())
    }

    /// Creates a store that holds at most `capacity` images, evicting the
    /// least-recently-used on overflow. The paper's prototype keeps the
    /// common store unbounded; this bound is an ablation knob for studying
    /// constrained edge servers (see the `ablation_cache` bench binary).
    pub fn with_capacity(capacity: usize) -> Arc<CommonStore> {
        CommonStore::with_limits(Some(capacity), None)
    }

    /// Creates a store bounded by total wire-encoded bytes rather than
    /// entry count: images are evicted in global LRU order until the
    /// resident set fits `budget` bytes. At least one image always stays
    /// resident, mirroring [`CommonStore::with_capacity`]'s floor of one.
    pub fn with_resident_budget(budget: u64) -> Arc<CommonStore> {
        CommonStore::with_limits(None, Some(budget))
    }

    /// Creates a store with an optional entry-count cap and an optional
    /// resident-bytes budget; whichever limit is exceeded first triggers
    /// global-LRU eviction.
    pub fn with_limits(capacity: Option<usize>, budget: Option<u64>) -> Arc<CommonStore> {
        Arc::new(CommonStore {
            capacity: capacity.map(|c| c.max(1)),
            budget,
            ..CommonStore::default()
        })
    }

    /// The configured capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The configured resident-bytes budget, if any.
    pub fn resident_budget(&self) -> Option<u64> {
        self.budget
    }

    /// Total wire-encoded bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// How many times the LRU index was observed out of sync with the
    /// image map (each one a skipped eviction, not an abort).
    pub fn lru_desyncs(&self) -> u64 {
        self.lru_desync.get()
    }

    /// Number of key-hash shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard (`bean`, `key`) hashes to. Deterministic across runs:
    /// shard choice feeds eviction order, which perfguard baselines pin.
    pub fn shard_index(&self, bean: &str, key: &Value) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.write(bean.as_bytes());
        h.write(&[0xff]);
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn shard_for(&self, bean: &str, key: &Value) -> &RwLock<StoreShard> {
        &self.shards[self.shard_index(bean, key)]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Re-syncs both working-set gauges from the shared totals.
    fn sync_gauges(&self) {
        self.size.set(self.entries.load(Ordering::Relaxed));
        self.resident_bytes
            .set(self.resident.load(Ordering::Relaxed));
    }

    /// Looks up the cached image for (`bean`, `key`), counting hit or miss
    /// and refreshing the entry's recency. A hit shares the cached image.
    pub fn get(&self, bean: &str, key: &Value) -> Option<Memento> {
        let mut shard = self.shard_for(bean, key).write();
        let StoreShard { images, recency } = &mut *shard;
        let Some((image, tick)) = images.get_mut(bean, key) else {
            self.misses.inc();
            return None;
        };
        recency.remove(tick);
        *tick = self.next_tick();
        recency.insert(*tick, image.clone());
        self.hits.inc();
        Some(image.clone())
    }

    /// Installs or refreshes a committed image, evicting global-LRU entries
    /// while the store is over its entry cap or resident-bytes budget.
    pub fn put(&self, image: Memento) {
        let encoded = image.encoded_len() as u64;
        {
            let mut shard = self.shard_for(image.bean(), image.primary_key()).write();
            if let Some(old) = shard.remove(image.bean(), image.primary_key()) {
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.resident
                    .fetch_sub(old.encoded_len() as u64, Ordering::Relaxed);
            }
            let tick = self.next_tick();
            let key = image.primary_key().clone();
            shard
                .images
                .insert(image.bean(), key, (image.clone(), tick));
            shard.recency.insert(tick, image);
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.resident.fetch_add(encoded, Ordering::Relaxed);
        }
        self.enforce_limits();
        self.sync_gauges();
    }

    /// Whether the store currently exceeds either configured limit. The
    /// byte budget keeps at least one image resident, so a single outsized
    /// image cannot evict the store into a livelock.
    fn over_limits(&self) -> bool {
        let entries = self.entries.load(Ordering::Relaxed);
        if let Some(capacity) = self.capacity {
            if entries as usize > capacity {
                return true;
            }
        }
        if let Some(budget) = self.budget {
            if entries > 1 && self.resident.load(Ordering::Relaxed) > budget {
                return true;
            }
        }
        false
    }

    fn enforce_limits(&self) {
        while self.over_limits() {
            if !self.evict_global_lru() {
                // The recency index lost an image somewhere: count the slip
                // and stop evicting rather than aborting the simulation.
                self.lru_desync.inc();
                break;
            }
        }
    }

    /// Evicts the least-recently-used image across *all* shards: peek every
    /// shard's oldest tick, then pop from the shard holding the global
    /// minimum. Ticks are globally ordered, so this reproduces single-list
    /// LRU exactly.
    fn evict_global_lru(&self) -> bool {
        for _attempt in 0..3 {
            let mut victim: Option<(usize, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                if let Some(tick) = shard.read().lru_tick() {
                    if victim.is_none_or(|(_, best)| tick < best) {
                        victim = Some((i, tick));
                    }
                }
            }
            let Some((i, _)) = victim else {
                return false;
            };
            if let Some(image) = self.shards[i].write().pop_lru() {
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.resident
                    .fetch_sub(image.encoded_len() as u64, Ordering::Relaxed);
                self.evictions.inc();
                return true;
            }
            // The shard drained (or desynced) between peek and pop; rescan.
        }
        false
    }

    /// Drops the image for (`bean`, `key`), if present.
    pub fn invalidate(&self, bean: &str, key: &Value) {
        let removed = self.shard_for(bean, key).write().remove(bean, key);
        if let Some(old) = removed {
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.resident
                .fetch_sub(old.encoded_len() as u64, Ordering::Relaxed);
            self.invalidations.inc();
        }
        self.sync_gauges();
    }

    /// Drops every cached image (e.g. between benchmark runs).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.images.clear();
            shard.recency.clear();
        }
        self.entries.store(0, Ordering::Relaxed);
        self.resident.store(0, Ordering::Relaxed);
        self.sync_gauges();
    }

    /// Number of cached images.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// Whether the store holds no images.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            invalidations: self.invalidations.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Zeroes the counters (the images stay).
    pub fn reset_stats(&self) {
        self.hits.reset();
        self.misses.reset();
        self.invalidations.reset();
        self.evictions.reset();
        self.lru_desync.reset();
    }

    /// Re-derives the working-set gauges from the shard totals. A blanket
    /// registry reset zeroes every gauge while the cached images survive
    /// the warm-up/measure boundary; call this afterwards so the level
    /// series start from the true cache size.
    pub fn refresh_size(&self) {
        self.sync_gauges();
    }

    /// Attaches this store's counters to `registry` under
    /// `{prefix}.hits`, `.misses`, `.invalidations`, `.evictions`,
    /// `.lru_desync` and the `.size` / `.resident_bytes` working-set gauges
    /// (e.g. `store.edge-0.hits`). The store keeps using the same shared
    /// handles, so registration costs nothing on the hot path.
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.hits"), &self.hits);
        registry.attach_counter(format!("{prefix}.misses"), &self.misses);
        registry.attach_counter(format!("{prefix}.invalidations"), &self.invalidations);
        registry.attach_counter(format!("{prefix}.evictions"), &self.evictions);
        registry.attach_counter(format!("{prefix}.lru_desync"), &self.lru_desync);
        registry.attach_gauge(format!("{prefix}.size"), &self.size);
        registry.attach_gauge(format!("{prefix}.resident_bytes"), &self.resident_bytes);
    }

    /// Tracks this store's activity in `timeline`: hit/miss/invalidation/
    /// eviction rates plus the working-set size and resident-bytes levels,
    /// under the same names [`CommonStore::register_with`] uses.
    pub fn timeline_into(&self, timeline: &Timeline, prefix: &str) {
        timeline.track_counter(format!("{prefix}.hits"), &self.hits);
        timeline.track_counter(format!("{prefix}.misses"), &self.misses);
        timeline.track_counter(format!("{prefix}.invalidations"), &self.invalidations);
        timeline.track_counter(format!("{prefix}.evictions"), &self.evictions);
        timeline.track_counter(format!("{prefix}.lru_desync"), &self.lru_desync);
        timeline.track_gauge(format!("{prefix}.size"), &self.size);
        timeline.track_gauge(format!("{prefix}.resident_bytes"), &self.resident_bytes);
    }
}

/// Frames an invalidation notification: the set of (bean, key) pairs a
/// peer's commit made stale, written behind the frame header in place and
/// carrying `trace_id` so each edge's delivery can re-join the commit's
/// trace.
pub(crate) fn invalidation_frame(entries: &[(String, Value)], trace_id: u64) -> Bytes {
    let mut w = Writer::framed();
    w.put_u32(entries.len() as u32);
    for (bean, key) in entries {
        w.put_str(bean);
        key.encode(&mut w);
    }
    w.finish_frame(protocol::BACKEND, 0, trace_id)
}

/// The edge-side endpoint for invalidation notifications.
///
/// The back-end sends one message per peer commit listing the updated
/// beans; the sink drops them from the local common store so the next
/// access re-faults fresh state.
#[derive(Debug)]
pub struct InvalidationSink {
    store: Arc<CommonStore>,
}

impl InvalidationSink {
    /// Creates a sink that invalidates `store`.
    pub fn new(store: Arc<CommonStore>) -> InvalidationSink {
        InvalidationSink { store }
    }
}

impl Service for InvalidationSink {
    fn handle(&self, request: Bytes) -> Bytes {
        apply_invalidation_frame(&self.store, request);
        Bytes::new()
    }
}

/// An invalidation endpoint that models **propagation delay**: messages are
/// queued with a delivery deadline (now + the channel's one-way latency)
/// and only applied once simulated time passes it.
///
/// [`InvalidationSink`] applies notifications the instant the back-end
/// sends them — an idealization under which an edge cache can never be
/// observed stale. With this sink, a peer's commit leaves a real staleness
/// window of one network crossing, during which transactions can read
/// soon-to-be-invalid images and must be caught by commit-time validation.
/// The `contention` bench binary measures exactly that window.
pub struct DeferredInvalidationSink {
    store: Arc<CommonStore>,
    delay: DelaySource,
    pending: parking_lot::Mutex<Vec<(sli_simnet::SimTime, Bytes)>>,
    queued: Counter,
    delivered: Counter,
    queue_depth: Gauge,
}

/// How the sink computes a message's delivery deadline.
enum DelaySource {
    /// Fixed latency over an explicit clock.
    Fixed(Arc<sli_simnet::Clock>, sli_simnet::SimDuration),
    /// The one-way cost of a real path (tracks its proxy-delay setting).
    OverPath(Arc<sli_simnet::Path>),
}

impl DelaySource {
    fn deadline(&self, message_len: usize) -> sli_simnet::SimTime {
        match self {
            DelaySource::Fixed(clock, latency) => clock.now() + *latency,
            DelaySource::OverPath(path) => path.clock().now() + path.one_way_cost(message_len),
        }
    }

    fn now(&self) -> sli_simnet::SimTime {
        match self {
            DelaySource::Fixed(clock, _) => clock.now(),
            DelaySource::OverPath(path) => path.clock().now(),
        }
    }
}

impl std::fmt::Debug for DeferredInvalidationSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferredInvalidationSink")
            .field("pending", &self.pending.lock().len())
            .finish_non_exhaustive()
    }
}

impl DeferredInvalidationSink {
    /// Creates a sink whose notifications arrive `latency` after being
    /// sent (one-way crossing of the invalidation channel).
    pub fn new(
        store: Arc<CommonStore>,
        clock: Arc<sli_simnet::Clock>,
        latency: sli_simnet::SimDuration,
    ) -> Arc<DeferredInvalidationSink> {
        Arc::new(DeferredInvalidationSink {
            store,
            delay: DelaySource::Fixed(clock, latency),
            pending: parking_lot::Mutex::new(Vec::new()),
            queued: Counter::new(),
            delivered: Counter::new(),
            queue_depth: Gauge::new(),
        })
    }

    /// Creates a sink whose notifications take one crossing of `path` to
    /// arrive — including whatever proxy delay the path currently injects,
    /// so a delay sweep automatically stretches the staleness window too.
    pub fn over_path(
        store: Arc<CommonStore>,
        path: Arc<sli_simnet::Path>,
    ) -> Arc<DeferredInvalidationSink> {
        Arc::new(DeferredInvalidationSink {
            store,
            delay: DelaySource::OverPath(path),
            pending: parking_lot::Mutex::new(Vec::new()),
            queued: Counter::new(),
            delivered: Counter::new(),
            queue_depth: Gauge::new(),
        })
    }

    /// The single gateway to the pending queue: runs `f` under the lock and
    /// re-syncs the `queue_depth` gauge before releasing it, so *every*
    /// mutation — enqueue, drain, future compaction — reports the standing
    /// depth and timelines can never under-read it between drains.
    fn with_pending<T>(&self, f: impl FnOnce(&mut Vec<(sli_simnet::SimTime, Bytes)>) -> T) -> T {
        let mut pending = self.pending.lock();
        let out = f(&mut pending);
        self.queue_depth.set(pending.len() as u64);
        out
    }

    /// Applies every queued notification whose delivery deadline has
    /// passed. The edge server calls this when it starts processing a
    /// request — the point at which an in-flight message would have been
    /// picked off the wire.
    pub fn deliver_due(&self) {
        let now = self.delay.now();
        let due: Vec<Bytes> = self.with_pending(|pending| {
            let mut due = Vec::new();
            pending.retain(|(deadline, frame)| {
                if *deadline <= now {
                    due.push(frame.clone());
                    false
                } else {
                    true
                }
            });
            due
        });
        self.delivered.add(due.len() as u64);
        for frame in due {
            apply_invalidation_frame(&self.store, frame);
        }
    }

    /// Notifications queued but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.pending.lock().len()
    }

    /// Attaches the sink's queue metrics to `registry` under
    /// `{prefix}.queued`, `.delivered` and `.queue_depth` (e.g.
    /// `invalidations.edge-0.queue_depth`).
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.queued"), &self.queued);
        registry.attach_counter(format!("{prefix}.delivered"), &self.delivered);
        registry.attach_gauge(format!("{prefix}.queue_depth"), &self.queue_depth);
    }

    /// Tracks the queue in `timeline`: enqueue/delivery rates plus the
    /// in-flight depth level, under the [`register_with`] names.
    ///
    /// [`register_with`]: DeferredInvalidationSink::register_with
    pub fn timeline_into(&self, timeline: &Timeline, prefix: &str) {
        timeline.track_counter(format!("{prefix}.queued"), &self.queued);
        timeline.track_counter(format!("{prefix}.delivered"), &self.delivered);
        timeline.track_gauge(format!("{prefix}.queue_depth"), &self.queue_depth);
    }
}

impl Service for DeferredInvalidationSink {
    fn handle(&self, request: Bytes) -> Bytes {
        let deadline = self.delay.deadline(request.len());
        self.with_pending(|pending| pending.push((deadline, request)));
        self.queued.inc();
        Bytes::new()
    }
}

fn apply_invalidation_frame(store: &CommonStore, request: Bytes) {
    let Ok((_, payload)) = sli_simnet::wire::unframe(request) else {
        return;
    };
    let mut r = Reader::new(payload);
    if let Ok(n) = r.get_u32() {
        for _ in 0..n {
            match (r.get_str(), Value::decode(&mut r)) {
                (Ok(bean), Ok(key)) => store.invalidate(&bean, &key),
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(key: &str, balance: f64) -> Memento {
        Memento::new("Account", Value::from(key)).with_field("balance", balance)
    }

    #[test]
    fn put_get_invalidate() {
        let store = CommonStore::new();
        assert!(store.get("Account", &Value::from("a")).is_none());
        store.put(image("a", 10.0));
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get("Account", &Value::from("a")).unwrap(),
            image("a", 10.0)
        );
        store.invalidate("Account", &Value::from("a"));
        assert!(store.get("Account", &Value::from("a")).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn stats_count_hits_misses_invalidations() {
        let store = CommonStore::new();
        store.put(image("a", 1.0));
        store.get("Account", &Value::from("a"));
        store.get("Account", &Value::from("b"));
        store.invalidate("Account", &Value::from("a"));
        store.invalidate("Account", &Value::from("a")); // absent → not counted
        let s = store.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.invalidations, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
        store.reset_stats();
        assert_eq!(store.stats(), CacheStats::default());
    }

    #[test]
    fn hit_ratio_empty_is_zero() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_property_over_seeded_counts() {
        // Property: for any (hits, misses), the ratio is hits/(hits+misses)
        // in [0, 1] and exactly 0.0 at zero total (no NaN from 0/0).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let hits = x % 1_000;
            let misses = (x >> 32) % 1_000;
            let stats = CacheStats {
                hits,
                misses,
                ..CacheStats::default()
            };
            let r = stats.hit_ratio();
            assert!((0.0..=1.0).contains(&r), "ratio {r} out of range");
            if hits + misses == 0 {
                assert_eq!(r, 0.0);
            } else {
                assert!((r - hits as f64 / (hits + misses) as f64).abs() < 1e-12);
            }
        }
        let zero = CacheStats {
            hits: 0,
            misses: 0,
            invalidations: 7,
            evictions: 3,
        };
        assert_eq!(zero.hit_ratio(), 0.0, "only lookups drive the ratio");
    }

    #[test]
    fn size_gauge_tracks_working_set() {
        use sli_telemetry::Registry;
        let store = CommonStore::with_capacity(2);
        let registry = Registry::new();
        store.register_with(&registry, "store.t");
        let read = |reg: &Registry| match reg.get("store.t.size").expect("registered") {
            sli_telemetry::Metric::Gauge(g) => g.get(),
            other => panic!("expected gauge, got {other:?}"),
        };
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        assert_eq!(read(&registry), 2);
        store.put(image("c", 3.0)); // evicts the LRU entry
        assert_eq!(read(&registry), 2);
        store.invalidate("Account", &Value::from("c"));
        assert_eq!(read(&registry), 1);
        registry.reset_all();
        assert_eq!(read(&registry), 0, "blanket reset zeroes the gauge");
        store.refresh_size();
        assert_eq!(read(&registry), 1, "refresh re-derives it from the map");
        store.clear();
        assert_eq!(read(&registry), 0);
    }

    #[test]
    fn resident_bytes_gauge_tracks_encoded_working_set() {
        use sli_telemetry::Registry;
        let store = CommonStore::new();
        let registry = Registry::new();
        store.register_with(&registry, "store.t");
        let read = |reg: &Registry| match reg.get("store.t.resident_bytes").expect("registered") {
            sli_telemetry::Metric::Gauge(g) => g.get(),
            other => panic!("expected gauge, got {other:?}"),
        };
        let a = image("a", 1.0);
        let b = image("bb", 2.0);
        let expected = (a.encoded_len() + b.encoded_len()) as u64;
        store.put(a.clone());
        store.put(b);
        assert_eq!(read(&registry), expected);
        assert_eq!(store.resident_bytes(), expected);
        // Refreshing an entry replaces its bytes instead of double-counting.
        store.put(a.clone());
        assert_eq!(read(&registry), expected);
        store.invalidate("Account", &Value::from("a"));
        assert_eq!(read(&registry), expected - a.encoded_len() as u64);
        registry.reset_all();
        assert_eq!(read(&registry), 0);
        store.refresh_size();
        assert_eq!(read(&registry), expected - a.encoded_len() as u64);
        store.clear();
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(read(&registry), 0);
    }

    #[test]
    fn resident_budget_evicts_lru_until_it_fits() {
        let one = image("k0", 0.0).encoded_len() as u64;
        // Room for two same-sized images, not three.
        let store = CommonStore::with_resident_budget(one * 2);
        assert_eq!(store.resident_budget(), Some(one * 2));
        store.put(image("k0", 0.0));
        store.put(image("k1", 1.0));
        assert_eq!(store.stats().evictions, 0);
        // Touch k0 so k1 is the global LRU victim when k2 overflows.
        store.get("Account", &Value::from("k0"));
        store.put(image("k2", 2.0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 1);
        assert!(store.get("Account", &Value::from("k1")).is_none());
        assert!(store.get("Account", &Value::from("k0")).is_some());
        assert!(store.resident_bytes() <= one * 2);
    }

    #[test]
    fn resident_budget_keeps_at_least_one_image() {
        // A budget smaller than any single image must not evict the store
        // empty (nor spin): the newest image stays resident.
        let store = CommonStore::with_resident_budget(1);
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().evictions, 1);
        assert!(store.get("Account", &Value::from("b")).is_some());
        assert_eq!(store.lru_desyncs(), 0);
    }

    #[test]
    fn shard_index_is_deterministic_and_in_range() {
        let store = CommonStore::new();
        assert_eq!(store.shard_count(), STORE_SHARDS);
        for i in 0..64 {
            let key = Value::from(format!("k{i}"));
            let s = store.shard_index("Account", &key);
            assert!(s < store.shard_count());
            assert_eq!(s, store.shard_index("Account", &key), "stable per key");
        }
        // The hash actually spreads keys: 64 keys must not all land on one
        // shard.
        let first = store.shard_index("Account", &Value::from("k0"));
        assert!(
            (0..64).any(|i| store.shard_index("Account", &Value::from(format!("k{i}"))) != first),
            "64 keys all hashed to shard {first}"
        );
    }

    #[test]
    fn same_shard_and_cross_shard_keys_evict_in_global_lru_order() {
        let store = CommonStore::with_capacity(3);
        // Pick two keys that share a shard and one that does not, so the
        // eviction scan must compare recency *across* shard boundaries.
        let mut same: Vec<String> = Vec::new();
        let mut other: Option<String> = None;
        let home = store.shard_index("Account", &Value::from("seed"));
        for i in 0..256 {
            let k = format!("k{i}");
            if store.shard_index("Account", &Value::from(k.as_str())) == home {
                if same.len() < 2 {
                    same.push(k);
                }
            } else if other.is_none() {
                other = Some(k);
            }
            if same.len() == 2 && other.is_some() {
                break;
            }
        }
        let (a, b) = (same[0].clone(), same[1].clone());
        let c = other.expect("256 keys cover more than one shard");
        store.put(image("seed", 0.0)); // oldest, lives in `home`
        store.put(image(&a, 1.0));
        store.put(image(&c, 2.0));
        // Overflow: the victim must be "seed" (globally oldest) even though
        // the newest insert lands in a different shard than `c`.
        store.put(image(&b, 3.0));
        assert_eq!(store.len(), 3);
        assert!(store.get("Account", &Value::from("seed")).is_none());
        assert!(store.get("Account", &Value::from(a.as_str())).is_some());
        assert!(store.get("Account", &Value::from(c.as_str())).is_some());
        assert!(store.get("Account", &Value::from(b.as_str())).is_some());
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.lru_desyncs(), 0);
    }

    #[test]
    fn put_overwrites() {
        let store = CommonStore::new();
        store.put(image("a", 1.0));
        store.put(image("a", 2.0));
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get("Account", &Value::from("a")).unwrap(),
            image("a", 2.0)
        );
    }

    #[test]
    fn invalidation_sink_applies_notifications() {
        let store = CommonStore::new();
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        let sink = InvalidationSink::new(Arc::clone(&store));
        let frame = invalidation_frame(
            &[
                ("Account".to_owned(), Value::from("a")),
                ("Account".to_owned(), Value::from("missing")),
            ],
            0,
        );
        sink.handle(frame);
        assert!(store.get("Account", &Value::from("a")).is_none());
        assert!(store.get("Account", &Value::from("b")).is_some());
    }

    #[test]
    fn clear_drops_images_but_not_counters() {
        let store = CommonStore::new();
        store.put(image("a", 1.0));
        store.get("Account", &Value::from("a"));
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn bounded_store_evicts_least_recently_used() {
        let store = CommonStore::with_capacity(3);
        assert_eq!(store.capacity(), Some(3));
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        store.put(image("c", 3.0));
        // touch "a" so "b" becomes the LRU victim
        store.get("Account", &Value::from("a"));
        store.put(image("d", 4.0));
        assert_eq!(store.len(), 3);
        assert!(
            store.get("Account", &Value::from("b")).is_none(),
            "b evicted"
        );
        assert!(store.get("Account", &Value::from("a")).is_some());
        assert!(store.get("Account", &Value::from("d")).is_some());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn refreshing_an_entry_does_not_evict() {
        let store = CommonStore::with_capacity(2);
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        store.put(image("a", 3.0)); // refresh, not growth
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 0);
        assert_eq!(
            store.get("Account", &Value::from("a")).unwrap(),
            image("a", 3.0)
        );
    }

    #[test]
    fn capacity_one_keeps_only_newest() {
        let store = CommonStore::with_capacity(1);
        for i in 0..5 {
            store.put(image(&format!("k{i}"), i as f64));
        }
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().evictions, 4);
        assert!(store.get("Account", &Value::from("k4")).is_some());
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let store = CommonStore::new();
        assert_eq!(store.capacity(), None);
        for i in 0..1_000 {
            store.put(image(&format!("k{i}"), i as f64));
        }
        assert_eq!(store.len(), 1_000);
        assert_eq!(store.stats().evictions, 0);
    }

    #[test]
    fn deferred_sink_applies_only_after_latency() {
        use sli_simnet::{Clock, SimDuration};
        let store = CommonStore::new();
        store.put(image("a", 1.0));
        let clock = Arc::new(Clock::new());
        let sink = DeferredInvalidationSink::new(
            Arc::clone(&store),
            Arc::clone(&clock),
            SimDuration::from_millis(40),
        );
        let frame = invalidation_frame(&[("Account".to_owned(), Value::from("a"))], 0);
        sink.handle(frame);
        assert_eq!(sink.in_flight(), 1);
        // before the crossing completes, the stale image is still served
        sink.deliver_due();
        assert!(store.get("Account", &Value::from("a")).is_some());
        // after 40 ms of simulated time, delivery happens
        clock.advance(SimDuration::from_millis(40));
        sink.deliver_due();
        assert_eq!(sink.in_flight(), 0);
        assert!(store.get("Account", &Value::from("a")).is_none());
    }

    #[test]
    fn queue_depth_gauge_tracks_every_mutation() {
        use sli_simnet::{Clock, SimDuration};
        use sli_telemetry::Registry;
        let store = CommonStore::new();
        let clock = Arc::new(Clock::new());
        let sink = DeferredInvalidationSink::new(
            Arc::clone(&store),
            Arc::clone(&clock),
            SimDuration::from_millis(10),
        );
        let registry = Registry::new();
        sink.register_with(&registry, "inv.t");
        let depth = |reg: &Registry| match reg.get("inv.t.queue_depth").expect("registered") {
            sli_telemetry::Metric::Gauge(g) => g.get(),
            other => panic!("expected gauge, got {other:?}"),
        };
        let frame = |key: &str| invalidation_frame(&[("Account".to_owned(), Value::from(key))], 0);
        // Enqueue must raise the gauge immediately, not only on drain.
        sink.handle(frame("a"));
        assert_eq!(depth(&registry), 1);
        clock.advance(SimDuration::from_millis(10));
        sink.handle(frame("b")); // due 10ms later than "a"
        assert_eq!(depth(&registry), 2);
        // Partial drain: only "a" is due, so the gauge drops to 1.
        sink.deliver_due();
        assert_eq!(depth(&registry), 1);
        assert_eq!(sink.in_flight(), 1);
        clock.advance(SimDuration::from_millis(10));
        sink.deliver_due();
        assert_eq!(depth(&registry), 0);
        assert_eq!(sink.in_flight(), 0);
    }

    #[test]
    fn invalidation_keeps_lru_bookkeeping_consistent() {
        let store = CommonStore::with_capacity(2);
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        store.invalidate("Account", &Value::from("a"));
        store.put(image("c", 3.0));
        // a was invalidated, so b and c fit without eviction
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 0);
    }

    #[test]
    fn seeded_scheduler_interleavings_preserve_store_invariants() {
        use sli_simnet::Scheduler;
        // Three logical clients race put/get/invalidate programs over an
        // overlapping key set under a seeded scheduler. Whatever order the
        // scheduler picks, the store's bookkeeping must stay conserved:
        // entry count, resident bytes and the LRU index all agree, and no
        // desync is ever counted.
        for seed in [3u64, 11, 42, 1999] {
            let store = CommonStore::with_capacity(4);
            let mut sched = Scheduler::random(seed);
            // Each client's program, as (step index → op) closures.
            let keys = ["a", "b", "c", "d", "e", "f"];
            let mut cursors = [0usize; 3];
            let steps_per_client = 12usize;
            let mut live = 3u32;
            while live > 0 {
                let pick = sched.pick(live) as usize;
                // Map pick onto the pick-th still-live client.
                let client = cursors
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c < steps_per_client)
                    .map(|(i, _)| i)
                    .nth(pick)
                    .expect("pick is within live clients");
                let step = cursors[client];
                cursors[client] += 1;
                let key = keys[(client * 7 + step) % keys.len()];
                match step % 3 {
                    0 => store.put(image(key, step as f64)),
                    1 => {
                        store.get("Account", &Value::from(key));
                    }
                    _ => store.invalidate("Account", &Value::from(key)),
                }
                live = cursors.iter().filter(|c| **c < steps_per_client).count() as u32;
            }
            // Conservation: every put either survives, was invalidated, was
            // evicted, or was an in-place refresh.
            let s = store.stats();
            assert_eq!(store.lru_desyncs(), 0, "seed {seed}");
            assert!(store.len() <= 4, "seed {seed}: capacity respected");
            let resident: u64 = keys
                .iter()
                .filter_map(|k| store.get("Account", &Value::from(*k)))
                .map(|m| m.encoded_len() as u64)
                .sum();
            assert_eq!(
                store.resident_bytes(),
                resident,
                "seed {seed}: resident bytes re-derivable from surviving images"
            );
            assert!(
                s.evictions + s.invalidations + store.len() as u64 > 0,
                "seed {seed}: the programs did something"
            );
        }
    }
}
