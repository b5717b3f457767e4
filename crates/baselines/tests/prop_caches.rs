//! Property tests over the cache policies: for arbitrary operation
//! sequences, every policy must respect capacity, keep exact byte
//! accounting, honor protection, and agree with a naive set-model on
//! membership after each operation it reports as successful. The LRU
//! cache is additionally checked op-for-op, and routed trace-for-trace,
//! against a reference implementation.

use mmrepl_baselines::{
    CachingRouter, GdsCache, LfuCache, LruCache, LruRouter, ObjectCache, RequestRouter,
    RouteDecision,
};
use mmrepl_model::{
    default_site, Bytes, MediaObject, ObjectId, ReqPerSec, SiteId, System, SystemBuilder, WebPage,
};
use mmrepl_workload::{generate_system, generate_trace, TraceConfig, WorkloadParams};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// The reference LRU: the original stamp-clock + `BTreeMap` cache, kept
/// verbatim as the oracle for [`LruCache`]'s slot-list implementation.
#[derive(Clone, Debug)]
struct RefLru {
    capacity: u64,
    used: u64,
    clock: u64,
    stamps: HashMap<ObjectId, u64>,
    by_age: BTreeMap<u64, ObjectId>,
}

impl RefLru {
    /// An empty cache holding at most `capacity` bytes of objects.
    fn new(capacity: Bytes) -> Self {
        RefLru {
            capacity: capacity.get(),
            used: 0,
            clock: 0,
            stamps: HashMap::new(),
            by_age: BTreeMap::new(),
        }
    }

    /// Whether `object` is cached; a hit refreshes its recency.
    fn touch(&mut self, object: ObjectId) -> bool {
        match self.stamps.get_mut(&object) {
            Some(stamp) => {
                self.by_age.remove(stamp);
                self.clock += 1;
                *stamp = self.clock;
                self.by_age.insert(self.clock, object);
                true
            }
            None => false,
        }
    }

    /// Whether `object` is cached, without refreshing recency.
    fn contains(&self, object: ObjectId) -> bool {
        self.stamps.contains_key(&object)
    }

    /// Inserts `object` of the given size, evicting LRU entries as needed.
    /// Objects in `protected` are never evicted (the current page's own
    /// objects). Returns `false` when the object cannot fit even after
    /// eviction (larger than the unprotected capacity).
    fn insert(
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
        // Evict oldest unprotected entries until it fits.
        while self.used + size > self.capacity {
            let victim = self.by_age.iter().map(|(_, &k)| k).find(|&k| !protected(k));
            match victim {
                Some(k) => self.evict(system, k),
                None => return false, // everything old is protected
            }
        }
        self.clock += 1;
        self.stamps.insert(object, self.clock);
        self.by_age.insert(self.clock, object);
        self.used += size;
        true
    }

    fn evict(&mut self, system: &System, object: ObjectId) {
        if let Some(stamp) = self.stamps.remove(&object) {
            self.by_age.remove(&stamp);
            self.used -= system.object_size(object).get();
        }
    }

    /// Bytes currently cached.
    fn used(&self) -> u64 {
        self.used
    }

    /// The byte capacity.
    fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of cached objects.
    fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }
}

impl ObjectCache for RefLru {
    fn create(_system: &System, _site: SiteId, capacity: Bytes) -> Self {
        RefLru::new(capacity)
    }

    fn touch(&mut self, object: ObjectId) -> bool {
        RefLru::touch(self, object)
    }

    fn contains(&self, object: ObjectId) -> bool {
        RefLru::contains(self, object)
    }

    fn insert(
        &mut self,
        system: &System,
        object: ObjectId,
        protected: &dyn Fn(ObjectId) -> bool,
    ) -> bool {
        RefLru::insert(self, system, object, protected)
    }

    fn used(&self) -> u64 {
        RefLru::used(self)
    }

    fn len(&self) -> usize {
        RefLru::len(self)
    }

    fn label() -> &'static str {
        "ref-lru"
    }
}

/// Builds a system whose object sizes come from the strategy.
fn system_with_sizes(sizes_kib: &[u64]) -> System {
    let mut b = SystemBuilder::new();
    let s = b.add_site(default_site());
    let objects: Vec<ObjectId> = sizes_kib
        .iter()
        .map(|&k| b.add_object(MediaObject::of_size(Bytes::kib(k.max(1)))))
        .collect();
    b.add_page(WebPage {
        site: s,
        html_size: Bytes::kib(1),
        freq: ReqPerSec(1.0),
        compulsory: objects,
        optional: vec![],
        opt_req_factor: 1.0,
    });
    b.build().unwrap()
}

/// One scripted cache operation.
#[derive(Clone, Debug)]
enum Op {
    Insert(usize),
    Touch(usize),
}

fn ops_strategy(n_objects: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..n_objects, any::<bool>()).prop_map(
            |(i, insert)| {
                if insert {
                    Op::Insert(i)
                } else {
                    Op::Touch(i)
                }
            },
        ),
        0..120,
    )
}

/// Exercises one policy against the invariants.
fn check_policy<C: ObjectCache>(
    sys: &System,
    capacity: Bytes,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut cache = C::create(sys, SiteId::new(0), capacity);
    let never = |_: ObjectId| false;
    for op in ops {
        match *op {
            Op::Insert(i) => {
                let obj = ObjectId::new(i as u32);
                let ok = cache.insert(sys, obj, &never);
                let size = sys.object_size(obj).get();
                if size <= capacity.get() {
                    prop_assert!(ok, "{}: insertable object rejected", C::label());
                }
                prop_assert_eq!(ok, cache.contains(obj));
            }
            Op::Touch(i) => {
                let obj = ObjectId::new(i as u32);
                let was = cache.contains(obj);
                prop_assert_eq!(cache.touch(obj), was);
                prop_assert_eq!(cache.contains(obj), was);
            }
        }
        // Capacity and byte-accounting invariants after every op.
        prop_assert!(
            cache.used() <= capacity.get(),
            "{} exceeded capacity",
            C::label()
        );
        let live: u64 = (0..sys.n_objects())
            .map(|i| ObjectId::new(i as u32))
            .filter(|&o| cache.contains(o))
            .map(|o| sys.object_size(o).get())
            .sum();
        prop_assert_eq!(
            live,
            cache.used(),
            "{}: used() diverged from live bytes",
            C::label()
        );
        prop_assert_eq!(
            (0..sys.n_objects())
                .filter(|&i| cache.contains(ObjectId::new(i as u32)))
                .count(),
            cache.len()
        );
        prop_assert_eq!(cache.is_empty(), cache.len() == 0);
    }
    Ok(())
}

proptest! {
    #[test]
    fn lru_invariants(
        sizes in prop::collection::vec(1u64..600, 2..12),
        cap_kib in 50u64..1500,
        ops in ops_strategy(12),
    ) {
        let ops: Vec<Op> = ops.into_iter()
            .filter(|op| matches!(op, Op::Insert(i) | Op::Touch(i) if *i < sizes.len()))
            .collect();
        let sys = system_with_sizes(&sizes);
        check_policy::<LruCache>(&sys, Bytes::kib(cap_kib), &ops)?;
    }

    #[test]
    fn gds_invariants(
        sizes in prop::collection::vec(1u64..600, 2..12),
        cap_kib in 50u64..1500,
        ops in ops_strategy(12),
    ) {
        let ops: Vec<Op> = ops.into_iter()
            .filter(|op| matches!(op, Op::Insert(i) | Op::Touch(i) if *i < sizes.len()))
            .collect();
        let sys = system_with_sizes(&sizes);
        check_policy::<GdsCache>(&sys, Bytes::kib(cap_kib), &ops)?;
    }

    #[test]
    fn lfu_invariants(
        sizes in prop::collection::vec(1u64..600, 2..12),
        cap_kib in 50u64..1500,
        ops in ops_strategy(12),
    ) {
        let ops: Vec<Op> = ops.into_iter()
            .filter(|op| matches!(op, Op::Insert(i) | Op::Touch(i) if *i < sizes.len()))
            .collect();
        let sys = system_with_sizes(&sizes);
        check_policy::<LfuCache>(&sys, Bytes::kib(cap_kib), &ops)?;
    }

    /// Protection must hold for every policy: with all entries protected,
    /// an insert that needs eviction fails and the cache is unchanged.
    #[test]
    fn protection_blocks_eviction_everywhere(
        fill in 2usize..6,
        seed_sizes in prop::collection::vec(50u64..200, 6..8),
    ) {
        let sys = system_with_sizes(&seed_sizes);
        // Capacity fits exactly `fill` of the first objects.
        let cap: u64 = seed_sizes.iter().take(fill).map(|&k| k * 1024).sum();
        macro_rules! check {
            ($C:ty) => {{
                let mut cache = <$C>::create(&sys, SiteId::new(0), Bytes(cap));
                for i in 0..fill {
                    cache.insert(&sys, ObjectId::new(i as u32), &|_| false);
                }
                let before_len = cache.len();
                let before_used = cache.used();
                let all = |_: ObjectId| true;
                let last = ObjectId::new((seed_sizes.len() - 1) as u32);
                if !cache.contains(last) {
                    let ok = cache.insert(&sys, last, &all);
                    if ok {
                        // Only acceptable if it fit without eviction.
                        prop_assert!(cache.used() <= Bytes(cap).get());
                        prop_assert!(cache.used() >= before_used);
                    } else {
                        prop_assert_eq!(cache.len(), before_len);
                        prop_assert_eq!(cache.used(), before_used);
                    }
                }
            }};
        }
        check!(LruCache);
        check!(GdsCache);
        check!(LfuCache);
    }
    /// The slot-list LRU agrees with the reference LRU after every
    /// operation: the same insert/touch answers, the same membership for
    /// every object, the same length and byte count. Each insert protects
    /// a random subset, so eviction has to skip entries exactly as the
    /// reference's ascending-stamp scan does.
    #[test]
    fn lru_matches_reference_op_for_op(
        sizes in prop::collection::vec(1u64..600, 2..12),
        cap_kib in 50u64..1500,
        ops in prop::collection::vec((0usize..12, any::<bool>(), any::<u16>()), 0..160),
    ) {
        let sys = system_with_sizes(&sizes);
        let n = sizes.len();
        let mut fast = LruCache::new(Bytes::kib(cap_kib));
        let mut reference = RefLru::new(Bytes::kib(cap_kib));
        for (i, insert, mask) in ops {
            let obj = ObjectId::new((i % n) as u32);
            if insert {
                let protected = |k: ObjectId| mask & (1 << k.raw()) != 0;
                prop_assert_eq!(
                    fast.insert(&sys, obj, &protected),
                    reference.insert(&sys, obj, &protected)
                );
            } else {
                prop_assert_eq!(fast.touch(obj), reference.touch(obj));
            }
            for k in (0..n).map(|k| ObjectId::new(k as u32)) {
                prop_assert_eq!(fast.contains(k), reference.contains(k), "object {}", k.raw());
            }
            prop_assert_eq!(fast.len(), reference.len());
            prop_assert_eq!(fast.is_empty(), reference.is_empty());
            prop_assert_eq!(fast.used(), reference.used());
            prop_assert_eq!(fast.capacity(), reference.capacity());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Routed end to end, `LruRouter` makes the reference router's
    /// decision for every request of a generated trace, and ends with the
    /// same hit, miss and denial counts. Storage is squeezed so the caches
    /// evict constantly.
    #[test]
    fn lru_router_matches_reference_router(
        seed in 0u64..1_000_000,
        storage in 0.05f64..1.0,
    ) {
        let params = WorkloadParams::small();
        let sys = generate_system(&params, seed).unwrap().with_storage_fraction(storage);
        let traces = generate_trace(&sys, &TraceConfig::from_params(&params), seed);
        let mut fast = LruRouter::new(&sys);
        let mut reference = CachingRouter::<RefLru>::new(&sys);
        let (mut got, mut want) = (RouteDecision::default(), RouteDecision::default());
        for req in traces.iter().flat_map(|t| &t.requests) {
            fast.route(&sys, req.page, &req.optional_slots, &mut got);
            reference.route(&sys, req.page, &req.optional_slots, &mut want);
            prop_assert_eq!(&got, &want);
        }
        prop_assert_eq!(fast.hits(), reference.hits());
        prop_assert_eq!(fast.misses(), reference.misses());
        prop_assert_eq!(fast.denied(), reference.denied());
    }
}
