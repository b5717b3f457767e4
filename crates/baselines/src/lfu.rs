//! LFU — least-frequently-used cache, the other classical replacement
//! policy contemporary with the paper. Counts accesses per object and
//! evicts the lowest-count entry (ties broken by least recent insertion).
//! Known pathology: objects that were hot once ("cache pollution") linger;
//! the `caches` extension experiment quantifies this against LRU and
//! GreedyDual-Size on the Table 1 workload.

use crate::cache::ObjectCache;
use crate::lru::CachingRouter;
use mmrepl_model::{Bytes, ObjectId, SiteId, System};
use std::collections::{BTreeMap, HashMap};

/// Ordered eviction key: (access count, insertion sequence).
type FreqKey = (u64, u64);

/// An LFU object cache with byte capacity.
pub struct LfuCache {
    capacity: u64,
    used: u64,
    seq: u64,
    entries: HashMap<ObjectId, FreqKey>,
    by_freq: BTreeMap<FreqKey, ObjectId>,
}

impl LfuCache {
    fn bump(&mut self, object: ObjectId) {
        if let Some(key) = self.entries.get_mut(&object) {
            self.by_freq.remove(key);
            key.0 += 1;
            self.by_freq.insert(*key, object);
        }
    }
}

impl ObjectCache for LfuCache {
    fn create(_system: &System, _site: SiteId, capacity: Bytes) -> Self {
        LfuCache {
            capacity: capacity.get(),
            used: 0,
            seq: 0,
            entries: HashMap::new(),
            by_freq: BTreeMap::new(),
        }
    }

    fn touch(&mut self, object: ObjectId) -> bool {
        if self.entries.contains_key(&object) {
            self.bump(object);
            true
        } else {
            false
        }
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.entries.contains_key(&object)
    }

    fn insert(
        &mut self,
        system: &System,
        object: ObjectId,
        protected: &dyn Fn(ObjectId) -> bool,
    ) -> bool {
        if self.contains(object) {
            self.bump(object);
            return true;
        }
        let size = system.object_size(object).get();
        if size > self.capacity {
            return false;
        }
        while self.used + size > self.capacity {
            let victim = self
                .by_freq
                .iter()
                .map(|(&k, &o)| (k, o))
                .find(|&(_, o)| !protected(o));
            match victim {
                Some((k, o)) => {
                    self.by_freq.remove(&k);
                    self.entries.remove(&o);
                    self.used -= system.object_size(o).get();
                }
                None => return false,
            }
        }
        self.seq += 1;
        let key = (1, self.seq);
        self.entries.insert(object, key);
        self.by_freq.insert(key, object);
        self.used += size;
        true
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn label() -> &'static str {
        "lfu"
    }
}

/// The LFU router (extension baseline).
pub type LfuRouter = CachingRouter<LfuCache>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{RequestRouter, RouteDecision};
    use mmrepl_model::{default_site, MediaObject, ReqPerSec, SystemBuilder, WebPage};

    fn system_with_sizes(sizes_kib: &[u64]) -> System {
        let mut b = SystemBuilder::new();
        let s = b.add_site(default_site());
        let objects: Vec<_> = sizes_kib
            .iter()
            .map(|&k| b.add_object(MediaObject::of_size(Bytes::kib(k))))
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

    #[test]
    fn evicts_least_frequent_first() {
        let sys = system_with_sizes(&[100, 100, 100]);
        let mut c = LfuCache::create(&sys, SiteId::new(0), Bytes::kib(200));
        let never = |_: ObjectId| false;
        c.insert(&sys, ObjectId::new(0), &never);
        c.insert(&sys, ObjectId::new(1), &never);
        // Touch object 0 twice: counts are (3, 1).
        c.touch(ObjectId::new(0));
        c.touch(ObjectId::new(0));
        c.insert(&sys, ObjectId::new(2), &never);
        assert!(c.contains(ObjectId::new(0)), "frequent object evicted");
        assert!(!c.contains(ObjectId::new(1)), "infrequent object kept");
        assert!(c.contains(ObjectId::new(2)));
    }

    #[test]
    fn frequency_survives_unlike_lru_recency() {
        // LFU keeps a many-times-hit object even after a burst of fresh
        // inserts — the defining difference from LRU.
        let sys = system_with_sizes(&[100, 100, 100, 100, 100]);
        let mut c = LfuCache::create(&sys, SiteId::new(0), Bytes::kib(200));
        let never = |_: ObjectId| false;
        c.insert(&sys, ObjectId::new(0), &never);
        for _ in 0..10 {
            c.touch(ObjectId::new(0));
        }
        for i in 1..5 {
            c.insert(&sys, ObjectId::new(i), &never);
        }
        assert!(c.contains(ObjectId::new(0)), "hot object polluted out");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let sys = system_with_sizes(&[100, 100, 100]);
        let mut c = LfuCache::create(&sys, SiteId::new(0), Bytes::kib(200));
        let never = |_: ObjectId| false;
        c.insert(&sys, ObjectId::new(0), &never);
        c.insert(&sys, ObjectId::new(1), &never);
        // Both at count 1: the older (object 0) goes first.
        c.insert(&sys, ObjectId::new(2), &never);
        assert!(!c.contains(ObjectId::new(0)));
        assert!(c.contains(ObjectId::new(1)));
    }

    #[test]
    fn protection_and_oversize() {
        let sys = system_with_sizes(&[100, 100, 300]);
        let mut c = LfuCache::create(&sys, SiteId::new(0), Bytes::kib(200));
        c.insert(&sys, ObjectId::new(0), &|_| false);
        c.insert(&sys, ObjectId::new(1), &|_| false);
        assert!(!c.insert(&sys, ObjectId::new(2), &|_| true));
        let mut tiny = LfuCache::create(&sys, SiteId::new(0), Bytes::kib(50));
        assert!(!tiny.insert(&sys, ObjectId::new(0), &|_| false));
    }

    #[test]
    fn router_integration() {
        let sys = system_with_sizes(&[100, 200]);
        let mut router = LfuRouter::new(&sys);
        assert_eq!(router.name(), "lfu");
        let page = mmrepl_model::PageId::new(0);
        let mut d = RouteDecision::default();
        router.route(&sys, page, &[], &mut d);
        router.route(&sys, page, &[], &mut d);
        assert_eq!(d.n_local(), 2);
    }
}
