//! The ideal LRU caching/redirection baseline.
//!
//! Per Section 5.2: an LRU object cache at each site, compared under the
//! most favourable assumptions for LRU — **zero redirection overhead**
//! (locating a replica costs nothing) — and subject only to the local
//! processing-capacity constraint (Eq. 8).
//!
//! Mechanics per page request:
//!
//! 1. every compulsory object that is cached *and* within the site's
//!    processing budget is served locally; everything else comes from the
//!    repository;
//! 2. missed objects are inserted into the cache afterwards, evicting
//!    least-recently-used objects until they fit (a page's own objects are
//!    protected from its insertions);
//! 3. requested optional objects behave the same way.
//!
//! Eq. 8 is enforced with a token bucket: page requests arrive at the
//! site's aggregate rate `Σ f(W_j)`, so each arrival refills
//! `C(S_i) / Σ f(W_j)` tokens (capped at one second's worth) and every
//! locally-served HTTP request spends one. The HTML document is always
//! local and always spends a token — the same irreducible load our policy
//! pays.
//!
//! ## Cache structure
//!
//! [`LruCache`] is a slot arena threaded by an intrusive doubly-linked
//! recency list: the head is the least recently used entry, the tail the
//! most recent. An object gets a slot on its first insert and keeps it
//! after eviction (the slot is only unlinked), so a hit, an insert and an
//! eviction are each O(1) list splices plus one hash lookup, and the
//! replay allocates nothing once a site's working set has been seen.
//! Eviction walks forward from the head skipping protected entries — the
//! same order as evicting by ascending last-use time.
//!
//! The slot map is keyed by object id rather than indexing a dense
//! per-object table: a table sized to the whole catalogue would cost every
//! site memory proportional to the repository (about 180 MB per Figure 1
//! cell at 100 sites × 150k objects), while the arena is bounded by what
//! the site ever cached. It is not a catalogue fixed at construction
//! either, because one router outlives the system it was built for when
//! the drift and online studies replay it across drifted systems.

use crate::cache::{ObjectCache, TokenBucket};
use crate::router::{RequestRouter, RouteDecision};
use mmrepl_model::{Bytes, ObjectId, PageId, SiteId, System};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for the slot map. An [`ObjectId`] hashes as a
/// single `u32`, and ids are catalogue indices of the system being
/// replayed rather than keys an adversary picks, so one odd-constant
/// multiply (the Fibonacci / Fx scheme) spreads them well enough and
/// costs far less than SipHash. `finish` rotates the product's well-mixed
/// high bits down into the low bits the table indexes by, so ids that
/// differ only in their high bits (strided ids) still spread.
#[derive(Clone, Copy, Debug, Default)]
struct IdHasher(u64);

const ID_HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(ID_HASH_MUL);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(32) ^ u64::from(n)).wrapping_mul(ID_HASH_MUL);
    }
}

/// End-of-list marker for [`Link`].
const NIL: u32 = u32::MAX;

/// One arena slot's place in the recency list.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
    cached: bool,
}

/// A byte-capacity LRU set of objects (see the module docs for the
/// slot-list structure).
#[derive(Clone, Debug)]
pub struct LruCache {
    capacity: u64,
    used: u64,
    len: usize,
    slots: HashMap<ObjectId, u32, BuildHasherDefault<IdHasher>>,
    objects: Vec<ObjectId>,
    links: Vec<Link>,
    /// Least recently used cached slot.
    head: u32,
    /// Most recently used cached slot.
    tail: u32,
}

impl LruCache {
    /// An empty cache holding at most `capacity` bytes of objects.
    pub fn new(capacity: Bytes) -> Self {
        LruCache {
            capacity: capacity.get(),
            used: 0,
            len: 0,
            slots: HashMap::default(),
            objects: Vec::new(),
            links: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// The slot of `object` if it is currently cached.
    fn cached_slot(&self, object: ObjectId) -> Option<u32> {
        self.slots
            .get(&object)
            .copied()
            .filter(|&slot| self.links[slot as usize].cached)
    }

    fn unlink(&mut self, slot: u32) {
        let Link { prev, next, .. } = self.links[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, slot: u32) {
        self.links[slot as usize].prev = self.tail;
        self.links[slot as usize].next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.links[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Whether `object` is cached; a hit refreshes its recency.
    pub fn touch(&mut self, object: ObjectId) -> bool {
        match self.cached_slot(object) {
            Some(slot) => {
                if slot != self.tail {
                    self.unlink(slot);
                    self.push_tail(slot);
                }
                true
            }
            None => false,
        }
    }

    /// Whether `object` is cached, without refreshing recency.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.cached_slot(object).is_some()
    }

    /// Inserts `object` of the given size, evicting LRU entries as needed.
    /// Objects in `protected` are never evicted (the current page's own
    /// objects). Returns `false` when the object cannot fit even after
    /// eviction (larger than the unprotected capacity).
    pub fn insert(
        &mut self,
        system: &System,
        object: ObjectId,
        protected: &dyn Fn(ObjectId) -> bool,
    ) -> bool {
        if self.contains(object) {
            self.touch(object);
            return true;
        }
        let size = system.object_size(object).get();
        if size > self.capacity {
            return false;
        }
        // Evict the oldest unprotected entries until it fits. Entries the
        // walk skips stay protected, so it resumes after each victim
        // instead of restarting at the head.
        let mut cursor = self.head;
        while self.used + size > self.capacity {
            while cursor != NIL && protected(self.objects[cursor as usize]) {
                cursor = self.links[cursor as usize].next;
            }
            if cursor == NIL {
                return false; // everything old is protected
            }
            let victim = cursor;
            cursor = self.links[victim as usize].next;
            self.unlink(victim);
            self.links[victim as usize].cached = false;
            self.used -= system.object_size(self.objects[victim as usize]).get();
            self.len -= 1;
        }
        let (objects, links) = (&mut self.objects, &mut self.links);
        let slot = *self.slots.entry(object).or_insert_with(|| {
            let slot = u32::try_from(objects.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("LRU slot arena exceeds u32 slots");
            objects.push(object);
            links.push(Link {
                prev: NIL,
                next: NIL,
                cached: false,
            });
            slot
        });
        self.links[slot as usize].cached = true;
        self.push_tail(slot);
        self.used += size;
        self.len += 1;
        true
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl ObjectCache for LruCache {
    fn create(_system: &System, _site: SiteId, capacity: Bytes) -> Self {
        LruCache::new(capacity)
    }

    fn touch(&mut self, object: ObjectId) -> bool {
        LruCache::touch(self, object)
    }

    fn contains(&self, object: ObjectId) -> bool {
        LruCache::contains(self, object)
    }

    fn insert(
        &mut self,
        system: &System,
        object: ObjectId,
        protected: &dyn Fn(ObjectId) -> bool,
    ) -> bool {
        LruCache::insert(self, system, object, protected)
    }

    fn used(&self) -> u64 {
        LruCache::used(self)
    }

    fn len(&self) -> usize {
        LruCache::len(self)
    }

    fn label() -> &'static str {
        "lru"
    }
}

/// Per-site cache state plus the Eq. 8 token bucket.
struct SiteCache<C> {
    cache: C,
    bucket: TokenBucket,
    hits: u64,
    misses: u64,
    denied: u64,
}

/// A caching/redirection router generic over the replacement policy —
/// instantiated as [`LruRouter`] (the paper's baseline),
/// [`crate::GdsRouter`] and [`crate::LfuRouter`] (extensions).
pub struct CachingRouter<C: ObjectCache> {
    sites: Vec<SiteCache<C>>,
}

/// The ideal LRU router of Section 5.2.
pub type LruRouter = CachingRouter<LruCache>;

impl<C: ObjectCache> CachingRouter<C> {
    /// Builds per-site caches sized to each site's storage minus its HTML
    /// (HTML is always resident, exactly as in our policy's Eq. 10).
    pub fn new(system: &System) -> Self {
        let sites = system
            .sites()
            .ids()
            .map(|site| {
                let storage = system.site(site).storage.get();
                let html = system.html_bytes_of(site).get();
                SiteCache {
                    cache: C::create(system, site, Bytes(storage.saturating_sub(html))),
                    bucket: TokenBucket::for_site(system, site),
                    hits: 0,
                    misses: 0,
                    denied: 0,
                }
            })
            .collect();
        CachingRouter { sites }
    }

    /// Cache hit count across all sites (objects served locally).
    pub fn hits(&self) -> u64 {
        self.sites.iter().map(|s| s.hits).sum()
    }

    /// Cache miss count across all sites.
    pub fn misses(&self) -> u64 {
        self.sites.iter().map(|s| s.misses).sum()
    }

    /// Requests denied local service by the Eq. 8 budget despite a hit.
    pub fn denied(&self) -> u64 {
        self.sites.iter().map(|s| s.denied).sum()
    }
}

impl<C: ObjectCache> RequestRouter for CachingRouter<C> {
    fn route(
        &mut self,
        system: &System,
        page: PageId,
        optional_slots: &[u32],
        out: &mut RouteDecision,
    ) {
        let pg = system.page(page);
        let state = &mut self.sites[pg.site.index()];

        // One page arrival refills the bucket; HTML spends one token.
        state.bucket.page_arrival();

        let serve = |state: &mut SiteCache<C>, object: ObjectId| -> bool {
            if state.cache.touch(object) {
                if state.bucket.try_spend() {
                    state.hits += 1;
                    true
                } else {
                    state.denied += 1;
                    false
                }
            } else {
                state.misses += 1;
                false
            }
        };

        out.local_compulsory.clear();
        out.local_compulsory
            .extend(pg.compulsory.iter().map(|&k| serve(state, k)));
        out.local_optional.clear();
        out.local_optional.extend(
            optional_slots
                .iter()
                .map(|&s| serve(state, pg.optional[s as usize].object)),
        );

        // Insert the misses (fetched from the repository, now cached).
        // The page's own objects are protected from eviction while doing
        // so — evicting an object we are about to serve would thrash.
        let protected = |k: ObjectId| {
            pg.compulsory.contains(&k)
                || optional_slots
                    .iter()
                    .any(|&s| pg.optional[s as usize].object == k)
        };
        for (&k, &local) in pg.compulsory.iter().zip(&out.local_compulsory) {
            if !local {
                state.cache.insert(system, k, &protected);
            }
        }
        for (&s, &local) in optional_slots.iter().zip(&out.local_optional) {
            if !local {
                state
                    .cache
                    .insert(system, pg.optional[s as usize].object, &protected);
            }
        }
    }

    fn name(&self) -> &'static str {
        C::label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmrepl_model::{default_site, MediaObject, ReqPerSec, SystemBuilder, WebPage};
    use mmrepl_workload::{generate_system, WorkloadParams};

    fn cache_fixture() -> (System, Vec<ObjectId>) {
        let mut b = SystemBuilder::new();
        let s = b.add_site(default_site());
        let objects: Vec<_> = (0..5)
            .map(|_| b.add_object(MediaObject::of_size(Bytes::kib(100))))
            .collect();
        b.add_page(WebPage {
            site: s,
            html_size: Bytes::kib(1),
            freq: ReqPerSec(1.0),
            compulsory: objects.clone(),
            optional: vec![],
            opt_req_factor: 1.0,
        });
        (b.build().unwrap(), objects)
    }

    #[test]
    fn lru_cache_basic_hit_miss() {
        let (sys, objs) = cache_fixture();
        let mut c = LruCache::new(Bytes::kib(250)); // fits 2 objects
        assert!(!c.touch(objs[0]));
        assert!(c.insert(&sys, objs[0], &|_| false));
        assert!(c.touch(objs[0]));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), Bytes::kib(100).get());
    }

    #[test]
    fn lru_cache_evicts_least_recent() {
        let (sys, objs) = cache_fixture();
        let mut c = LruCache::new(Bytes::kib(250));
        c.insert(&sys, objs[0], &|_| false);
        c.insert(&sys, objs[1], &|_| false);
        // Touch 0 so 1 is now the LRU; inserting 2 evicts 1.
        c.touch(objs[0]);
        c.insert(&sys, objs[2], &|_| false);
        assert!(c.contains(objs[0]));
        assert!(!c.contains(objs[1]));
        assert!(c.contains(objs[2]));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_cache_respects_protection() {
        let (sys, objs) = cache_fixture();
        let mut c = LruCache::new(Bytes::kib(250));
        c.insert(&sys, objs[0], &|_| false);
        c.insert(&sys, objs[1], &|_| false);
        // Everything protected: the insert must fail rather than evict.
        let all = |_: ObjectId| true;
        assert!(!c.insert(&sys, objs[2], &all));
        assert!(c.contains(objs[0]) && c.contains(objs[1]));
    }

    #[test]
    fn lru_cache_rejects_oversized_objects() {
        let (sys, objs) = cache_fixture();
        let mut c = LruCache::new(Bytes::kib(50));
        assert!(!c.insert(&sys, objs[0], &|_| false));
        assert!(c.is_empty());
    }

    #[test]
    fn router_misses_then_hits() {
        let (sys, _) = cache_fixture();
        let mut router = LruRouter::new(&sys);
        let pid = PageId::new(0);
        let mut d = RouteDecision::default();
        // First request: all misses, everything from the repository.
        router.route(&sys, pid, &[], &mut d);
        assert_eq!(d.n_local(), 0);
        assert_eq!(router.misses(), 5);
        // Second request: fully cached (default site stores plenty).
        router.route(&sys, pid, &[], &mut d);
        assert_eq!(d.n_local(), 5);
        assert_eq!(router.hits(), 5);
    }

    #[test]
    fn router_respects_capacity_budget() {
        // Site capacity 2 req/s, page rate 1 req/s -> 2 tokens per arrival;
        // HTML takes one, so at most 1 object can be served locally per
        // request in steady state.
        let mut b = SystemBuilder::new();
        let mut site = default_site();
        site.capacity = ReqPerSec(2.0);
        let s = b.add_site(site);
        let objects: Vec<_> = (0..4)
            .map(|_| b.add_object(MediaObject::of_size(Bytes::kib(10))))
            .collect();
        b.add_page(WebPage {
            site: s,
            html_size: Bytes::kib(1),
            freq: ReqPerSec(1.0),
            compulsory: objects,
            optional: vec![],
            opt_req_factor: 1.0,
        });
        let sys = b.build().unwrap();
        let mut router = LruRouter::new(&sys);
        let pid = PageId::new(0);
        let mut d = RouteDecision::default();
        router.route(&sys, pid, &[], &mut d); // warm the cache
        let mut total_local = 0;
        let n = 50;
        for _ in 0..n {
            router.route(&sys, pid, &[], &mut d);
            total_local += d.n_local();
        }
        // Budget: 2 tokens/request - 1 HTML = 1 object/request on average
        // (plus a small initial burst).
        assert!(
            total_local as f64 <= n as f64 + 3.0,
            "served {total_local} locally over {n} requests"
        );
        assert!(router.denied() > 0, "budget never bound");
    }

    #[test]
    fn router_with_infinite_capacity_never_denies() {
        let (sys, _) = cache_fixture(); // default site: 150 req/s, 1 page/s
        let mut router = LruRouter::new(&sys);
        let pid = PageId::new(0);
        let mut d = RouteDecision::default();
        for _ in 0..20 {
            router.route(&sys, pid, &[], &mut d);
        }
        assert_eq!(router.denied(), 0);
    }

    #[test]
    fn router_handles_optionals() {
        let sys = generate_system(&WorkloadParams::small(), 3).unwrap();
        let mut router = LruRouter::new(&sys);
        let (pid, page) = sys
            .pages()
            .iter()
            .find(|(_, p)| p.n_optional() >= 2)
            .expect("need optionals");
        let slots = [0u32, 1u32];
        let mut d = RouteDecision::default();
        router.route(&sys, pid, &slots, &mut d);
        assert_eq!(d.local_optional.len(), 2);
        // After the first (miss) pass the optionals are cached; the reused
        // buffer is refilled, not appended to.
        router.route(&sys, pid, &slots, &mut d);
        assert_eq!(d.local_optional, vec![true, true]);
        assert_eq!(d.local_compulsory.len(), page.n_compulsory());
    }

    #[test]
    fn cache_sized_to_storage_minus_html() {
        let sys = generate_system(&WorkloadParams::small(), 4).unwrap();
        let router = LruRouter::new(&sys);
        for site in sys.sites().ids() {
            let expect = sys
                .site(site)
                .storage
                .get()
                .saturating_sub(sys.html_bytes_of(site).get());
            assert_eq!(router.sites[site.index()].cache.capacity(), expect);
        }
    }

    #[test]
    fn working_set_larger_than_cache_keeps_missing() {
        // Cache fits 2 of 5 equally-sized objects; cycling through the page
        // must keep producing misses (the classic LRU pathology).
        let mut b = SystemBuilder::new();
        let mut site = default_site();
        site.storage = Bytes::kib(251); // 1 KiB html + 250 KiB cache
        let s = b.add_site(site);
        let objects: Vec<_> = (0..5)
            .map(|_| b.add_object(MediaObject::of_size(Bytes::kib(100))))
            .collect();
        b.add_page(WebPage {
            site: s,
            html_size: Bytes::kib(1),
            freq: ReqPerSec(1.0),
            compulsory: objects,
            optional: vec![],
            opt_req_factor: 1.0,
        });
        let sys = b.build().unwrap();
        let mut router = LruRouter::new(&sys);
        let pid = PageId::new(0);
        let mut d = RouteDecision::default();
        for _ in 0..10 {
            router.route(&sys, pid, &[], &mut d);
        }
        // 5 objects, cache of 2: inserting each page's objects evicts the
        // previous ones (own objects protected), so most accesses miss.
        assert!(router.misses() > router.hits());
    }
}
