//! The decision variables of the optimization problem: which objects each
//! page serves locally (`X`) and which optional objects are additionally
//! local (`X'`), plus the bookkeeping derived from them — per-site stored
//! object sets, storage usage and HTTP loads.
//!
//! The paper's `X` is an `n x m` (0,1) matrix with `X_jk = 1` only where
//! `U_jk = 1`; `X'` extends it over optional references. Because each page
//! references only a handful of the 15,000 objects, we store one boolean
//! per *reference slot* (aligned with [`WebPage::compulsory`] /
//! [`WebPage::optional`]) rather than dense rows. [`crate::matrix`] can
//! materialize the dense matrices for cross-checking.

use crate::entities::{System, WebPage};
use crate::error::ModelError;
use crate::ids::{IdVec, ObjectId, PageId, SiteId};
use crate::units::{Bytes, ReqPerSec};
use serde::{Deserialize, Serialize};

/// One page's row of the `X` / `X'` matrices.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PagePartition {
    /// `local_compulsory[t]` is `X_jk` for `k = page.compulsory[t]`:
    /// `true` means the object is downloaded from the local server when the
    /// page is requested.
    pub local_compulsory: Vec<bool>,
    /// `local_optional[t]` is the optional extension of `X'` for
    /// `k = page.optional[t].object`.
    pub local_optional: Vec<bool>,
}

impl PagePartition {
    /// A partition serving everything from the repository.
    pub fn all_remote(page: &WebPage) -> Self {
        PagePartition {
            local_compulsory: vec![false; page.n_compulsory()],
            local_optional: vec![false; page.n_optional()],
        }
    }

    /// A partition serving everything from the local site.
    pub fn all_local(page: &WebPage) -> Self {
        PagePartition {
            local_compulsory: vec![true; page.n_compulsory()],
            local_optional: vec![true; page.n_optional()],
        }
    }

    /// Number of compulsory objects marked local (`Σ_k X_jk`).
    #[inline]
    pub fn n_local_compulsory(&self) -> usize {
        self.local_compulsory.iter().filter(|&&b| b).count()
    }

    /// Number of optional objects marked local.
    #[inline]
    pub fn n_local_optional(&self) -> usize {
        self.local_optional.iter().filter(|&&b| b).count()
    }

    /// Whether the shapes match the page's reference lists.
    pub fn matches(&self, page: &WebPage) -> bool {
        self.local_compulsory.len() == page.n_compulsory()
            && self.local_optional.len() == page.n_optional()
    }
}

/// A complete assignment: one [`PagePartition`] per page.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    partitions: IdVec<PageId, PagePartition>,
}

impl Placement {
    /// Builds a placement from per-page partitions, validating shapes.
    pub fn new(
        system: &System,
        partitions: IdVec<PageId, PagePartition>,
    ) -> Result<Self, ModelError> {
        if partitions.len() != system.n_pages() {
            return Err(ModelError::PlacementSizeMismatch {
                system_pages: system.n_pages(),
                placement_pages: partitions.len(),
            });
        }
        for (pid, part) in partitions.iter() {
            let page = system.page(pid);
            if !part.matches(page) {
                return Err(ModelError::PartitionShapeMismatch {
                    page: pid,
                    expected: (page.n_compulsory(), page.n_optional()),
                    actual: (part.local_compulsory.len(), part.local_optional.len()),
                });
            }
        }
        Ok(Placement { partitions })
    }

    /// Validates this placement against `system` — used after
    /// deserializing a placement from disk, where the type system cannot
    /// vouch for the shapes.
    pub fn validate(&self, system: &System) -> Result<(), ModelError> {
        if self.partitions.len() != system.n_pages() {
            return Err(ModelError::PlacementSizeMismatch {
                system_pages: system.n_pages(),
                placement_pages: self.partitions.len(),
            });
        }
        for (pid, part) in self.partitions.iter() {
            let page = system.page(pid);
            if !part.matches(page) {
                return Err(ModelError::PartitionShapeMismatch {
                    page: pid,
                    expected: (page.n_compulsory(), page.n_optional()),
                    actual: (part.local_compulsory.len(), part.local_optional.len()),
                });
            }
        }
        Ok(())
    }

    /// The all-remote placement: every object downloaded from the
    /// repository ("Remote" baseline).
    pub fn all_remote(system: &System) -> Self {
        Placement {
            partitions: system
                .pages()
                .values()
                .map(PagePartition::all_remote)
                .collect(),
        }
    }

    /// The all-local placement: every object stored and served locally
    /// ("Local" baseline).
    pub fn all_local(system: &System) -> Self {
        Placement {
            partitions: system
                .pages()
                .values()
                .map(PagePartition::all_local)
                .collect(),
        }
    }

    /// The partition row for `page`.
    #[inline]
    pub fn partition(&self, page: PageId) -> &PagePartition {
        &self.partitions[page]
    }

    /// Mutable access to a page's partition row.
    #[inline]
    pub fn partition_mut(&mut self, page: PageId) -> &mut PagePartition {
        &mut self.partitions[page]
    }

    /// Iterates `(page, partition)` rows.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (PageId, &PagePartition)> {
        self.partitions.iter()
    }

    /// Number of pages covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the placement is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The set of objects that must be stored at `site`: every object some
    /// hosted page marks for local download (compulsory `X_jk = 1` or
    /// optional `X'_jk = 1`).
    pub fn stored_set(&self, system: &System, site: SiteId) -> StoredSet {
        let mut seen = vec![false; system.n_objects()];
        for &p in system.pages_of(site) {
            let page = system.page(p);
            let part = &self.partitions[p];
            for (t, &k) in page.compulsory.iter().enumerate() {
                if part.local_compulsory[t] {
                    seen[k.index()] = true;
                }
            }
            for (t, o) in page.optional.iter().enumerate() {
                if part.local_optional[t] {
                    seen[o.object.index()] = true;
                }
            }
        }
        StoredSet { present: seen }
    }

    /// Eq. 10 left-hand side: HTML bytes of hosted pages plus bytes of all
    /// locally stored objects at `site`.
    ///
    /// Work is proportional to the site's references: each marked object's
    /// size is added the first time a word bitset sees it (an exact integer
    /// sum). The object universe is never scanned; its only cost is zeroing
    /// that bitset, one bit per object.
    pub fn storage_used(&self, system: &System, site: SiteId) -> Bytes {
        let mut seen = vec![0u64; system.n_objects().div_ceil(64)];
        let mut objects = 0u64;
        let mut add = |k: ObjectId| {
            let (word, bit) = (k.index() >> 6, 1u64 << (k.index() & 63));
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                objects += system.object_size(k).get();
            }
        };
        for &p in system.pages_of(site) {
            let page = system.page(p);
            let part = &self.partitions[p];
            for (&k, &local) in page.compulsory.iter().zip(&part.local_compulsory) {
                if local {
                    add(k);
                }
            }
            for (o, &local) in page.optional.iter().zip(&part.local_optional) {
                if local {
                    add(o.object);
                }
            }
        }
        Bytes(objects) + system.html_bytes_of(site)
    }

    /// Eq. 8 left-hand side: the HTTP request rate hitting `site`,
    /// `Σ_j A_ij f(W_j) (1 + Σ_k X_jk + f(W_j,M) Σ_k U'_jk X'_jk)`.
    pub fn site_load(&self, system: &System, site: SiteId) -> ReqPerSec {
        let mut load = 0.0;
        for &p in system.pages_of(site) {
            let page = system.page(p);
            let part = &self.partitions[p];
            let opt_local: f64 = page
                .optional
                .iter()
                .zip(&part.local_optional)
                .filter(|(_, &local)| local)
                .map(|(o, _)| o.prob)
                .sum();
            load += page.freq.get()
                * (1.0 + part.n_local_compulsory() as f64 + page.opt_req_factor * opt_local);
        }
        ReqPerSec(load)
    }

    /// Eq. 9 left-hand side: the HTTP request rate hitting the repository,
    /// `Σ_j f(W_j) (Σ_k U_jk (1 - X_jk) + f(W_j,M) Σ_k U'_jk (1 - X'_jk))`.
    ///
    /// (The paper's Eq. 9 omits the `f(W_j, M)` factor on the optional
    /// term; we include it for symmetry with Eq. 8 — with the Table 1
    /// workload it is `1.0`, so the two readings coincide.)
    pub fn repo_load(&self, system: &System) -> ReqPerSec {
        ReqPerSec(
            system
                .sites()
                .ids()
                .map(|s| self.repo_load_from(system, s).get())
                .sum(),
        )
    }

    /// The share of the repository load generated by `site`'s pages — the
    /// `P(S_i, R)` estimate carried by status messages in the off-loading
    /// negotiation.
    pub fn repo_load_from(&self, system: &System, site: SiteId) -> ReqPerSec {
        let mut load = 0.0;
        for &p in system.pages_of(site) {
            let page = system.page(p);
            let part = &self.partitions[p];
            let remote_compulsory = (page.n_compulsory() - part.n_local_compulsory()) as f64;
            let opt_remote: f64 = page
                .optional
                .iter()
                .zip(&part.local_optional)
                .filter(|(_, &local)| !local)
                .map(|(o, _)| o.prob)
                .sum();
            load += page.freq.get() * (remote_compulsory + page.opt_req_factor * opt_remote);
        }
        ReqPerSec(load)
    }

    /// Total count of local-download marks across all pages — a cheap
    /// "how replicated is this placement" metric used in tests and logs.
    pub fn total_local_marks(&self) -> usize {
        self.partitions
            .values()
            .map(|p| p.n_local_compulsory() + p.n_local_optional())
            .sum()
    }

    /// Counts the marks that differ between two placements over the same
    /// system — how far a plan drifted, how much a re-plan changed.
    ///
    /// # Panics
    /// Panics if the placements have different shapes.
    pub fn diff(&self, other: &Placement) -> PlacementDiff {
        assert_eq!(
            self.partitions.len(),
            other.partitions.len(),
            "diffing placements of different systems"
        );
        let mut diff = PlacementDiff::default();
        for (pid, a) in self.partitions.iter() {
            let b = other.partition(pid);
            assert_eq!(
                a.local_compulsory.len(),
                b.local_compulsory.len(),
                "page {pid} shape mismatch"
            );
            let mut page_changed = false;
            for (x, y) in a.local_compulsory.iter().zip(&b.local_compulsory) {
                if x != y {
                    diff.compulsory_changed += 1;
                    page_changed = true;
                }
            }
            for (x, y) in a.local_optional.iter().zip(&b.local_optional) {
                if x != y {
                    diff.optional_changed += 1;
                    page_changed = true;
                }
            }
            if page_changed {
                diff.pages_changed += 1;
            }
        }
        diff
    }
}

/// The result of [`Placement::diff`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementDiff {
    /// Compulsory (`X`) marks that flipped.
    pub compulsory_changed: usize,
    /// Optional (`X'`) marks that flipped.
    pub optional_changed: usize,
    /// Pages with at least one flipped mark.
    pub pages_changed: usize,
}

impl PlacementDiff {
    /// Total flipped marks.
    pub fn total(&self) -> usize {
        self.compulsory_changed + self.optional_changed
    }

    /// Whether the placements are identical.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// The set of objects stored at one site, as a dense membership vector over
/// the whole object universe (15,000 objects ≈ 15 KB — cheap and O(1) to
/// query, which the restoration loops in `mmrepl-core` rely on).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredSet {
    present: Vec<bool>,
}

impl StoredSet {
    /// An empty stored set sized for `n_objects`.
    pub fn empty(n_objects: usize) -> Self {
        StoredSet {
            present: vec![false; n_objects],
        }
    }

    /// Whether `object` is stored.
    #[inline]
    pub fn contains(&self, object: ObjectId) -> bool {
        self.present[object.index()]
    }

    /// Marks `object` as stored. Returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, object: ObjectId) -> bool {
        let slot = &mut self.present[object.index()];
        let was = *slot;
        *slot = true;
        !was
    }

    /// Removes `object`. Returns whether it was present.
    #[inline]
    pub fn remove(&mut self, object: ObjectId) -> bool {
        let slot = &mut self.present[object.index()];
        let was = *slot;
        *slot = false;
        was
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.present.iter().filter(|&&b| b).count()
    }

    /// Whether no object is stored.
    pub fn is_empty(&self) -> bool {
        !self.present.iter().any(|&b| b)
    }

    /// Iterates stored object ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| ObjectId::from_index(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{default_site, MediaObject, OptionalRef, SystemBuilder, WebPage};

    fn two_page_system() -> System {
        let mut b = SystemBuilder::new();
        let s0 = b.add_site(default_site());
        let m0 = b.add_object(MediaObject::of_size(Bytes::kib(100)));
        let m1 = b.add_object(MediaObject::of_size(Bytes::kib(200)));
        let m2 = b.add_object(MediaObject::of_size(Bytes::kib(400)));
        b.add_page(WebPage {
            site: s0,
            html_size: Bytes::kib(5),
            freq: ReqPerSec(2.0),
            compulsory: vec![m0, m1],
            optional: vec![OptionalRef {
                object: m2,
                prob: 0.1,
            }],
            opt_req_factor: 1.0,
        });
        b.add_page(WebPage {
            site: s0,
            html_size: Bytes::kib(5),
            freq: ReqPerSec(1.0),
            compulsory: vec![m1, m2],
            optional: vec![],
            opt_req_factor: 1.0,
        });
        b.build().unwrap()
    }

    #[test]
    fn all_local_and_all_remote_shapes() {
        let sys = two_page_system();
        let local = Placement::all_local(&sys);
        let remote = Placement::all_remote(&sys);
        assert_eq!(local.len(), 2);
        assert_eq!(local.partition(PageId::new(0)).n_local_compulsory(), 2);
        assert_eq!(local.partition(PageId::new(0)).n_local_optional(), 1);
        assert_eq!(remote.total_local_marks(), 0);
        assert_eq!(local.total_local_marks(), 5);
    }

    #[test]
    fn stored_set_is_union_over_pages() {
        let sys = two_page_system();
        let mut placement = Placement::all_remote(&sys);
        // Page 0 serves m0 locally; page 1 serves m2 locally.
        placement.partition_mut(PageId::new(0)).local_compulsory[0] = true;
        placement.partition_mut(PageId::new(1)).local_compulsory[1] = true;
        let stored = placement.stored_set(&sys, SiteId::new(0));
        assert!(stored.contains(ObjectId::new(0)));
        assert!(!stored.contains(ObjectId::new(1)));
        assert!(stored.contains(ObjectId::new(2)));
        assert_eq!(stored.len(), 2);
    }

    #[test]
    fn object_shared_by_two_pages_stored_once() {
        let sys = two_page_system();
        let mut placement = Placement::all_remote(&sys);
        // m1 is compulsory for both pages; both mark it local.
        placement.partition_mut(PageId::new(0)).local_compulsory[1] = true;
        placement.partition_mut(PageId::new(1)).local_compulsory[0] = true;
        let used = placement.storage_used(&sys, SiteId::new(0));
        // HTML 10 KiB + m1 stored once (200 KiB).
        assert_eq!(used, Bytes::kib(10) + Bytes::kib(200));
    }

    #[test]
    fn storage_used_counts_optional_marks() {
        let sys = two_page_system();
        let mut placement = Placement::all_remote(&sys);
        placement.partition_mut(PageId::new(0)).local_optional[0] = true;
        let used = placement.storage_used(&sys, SiteId::new(0));
        assert_eq!(used, Bytes::kib(10) + Bytes::kib(400));
    }

    #[test]
    fn site_load_matches_eq8() {
        let sys = two_page_system();
        let mut placement = Placement::all_remote(&sys);
        // All remote: each page request still costs 1 HTML request.
        let base = placement.site_load(&sys, SiteId::new(0));
        assert!((base.get() - (2.0 + 1.0)).abs() < 1e-12);

        placement.partition_mut(PageId::new(0)).local_compulsory[0] = true;
        placement.partition_mut(PageId::new(0)).local_optional[0] = true;
        let load = placement.site_load(&sys, SiteId::new(0));
        // Page 0: 2.0 * (1 + 1 + 0.1) = 4.2; page 1: 1.0 * 1 = 1.0
        assert!((load.get() - 5.2).abs() < 1e-12);
    }

    #[test]
    fn repo_load_matches_eq9_and_splits_by_site() {
        let sys = two_page_system();
        let placement = Placement::all_remote(&sys);
        // Page 0: 2.0 * (2 + 0.1) = 4.2; page 1: 1.0 * 2 = 2.0
        assert!((placement.repo_load(&sys).get() - 6.2).abs() < 1e-12);
        assert!((placement.repo_load_from(&sys, SiteId::new(0)).get() - 6.2).abs() < 1e-12);

        let local = Placement::all_local(&sys);
        assert_eq!(local.repo_load(&sys), ReqPerSec(0.0));
    }

    #[test]
    fn load_conservation_between_site_and_repo() {
        // Moving a compulsory mark from remote to local shifts exactly
        // f(W_j) requests/sec from the repository to the site.
        let sys = two_page_system();
        let mut placement = Placement::all_remote(&sys);
        let before_site = placement.site_load(&sys, SiteId::new(0)).get();
        let before_repo = placement.repo_load(&sys).get();
        placement.partition_mut(PageId::new(0)).local_compulsory[1] = true;
        let after_site = placement.site_load(&sys, SiteId::new(0)).get();
        let after_repo = placement.repo_load(&sys).get();
        assert!((after_site - before_site - 2.0).abs() < 1e-12);
        assert!((before_repo - after_repo - 2.0).abs() < 1e-12);
    }

    #[test]
    fn new_validates_shapes() {
        let sys = two_page_system();
        let mut parts: IdVec<PageId, PagePartition> = sys
            .pages()
            .values()
            .map(PagePartition::all_remote)
            .collect();
        parts[PageId::new(0)].local_compulsory.push(true); // corrupt shape
        assert!(matches!(
            Placement::new(&sys, parts).unwrap_err(),
            ModelError::PartitionShapeMismatch { .. }
        ));
    }

    #[test]
    fn new_validates_page_count() {
        let sys = two_page_system();
        let parts: IdVec<PageId, PagePartition> = IdVec::from_vec(vec![]);
        assert!(matches!(
            Placement::new(&sys, parts).unwrap_err(),
            ModelError::PlacementSizeMismatch { .. }
        ));
    }

    #[test]
    fn diff_counts_flipped_marks() {
        let sys = two_page_system();
        let a = Placement::all_remote(&sys);
        let same = a.diff(&Placement::all_remote(&sys));
        assert!(same.is_empty());
        assert_eq!(same.total(), 0);

        let b = Placement::all_local(&sys);
        let d = a.diff(&b);
        // Page 0: 2 compulsory + 1 optional; page 1: 2 compulsory.
        assert_eq!(d.compulsory_changed, 4);
        assert_eq!(d.optional_changed, 1);
        assert_eq!(d.pages_changed, 2);
        assert_eq!(d.total(), 5);
        // Symmetric.
        assert_eq!(b.diff(&a), d);
    }

    #[test]
    fn diff_isolates_single_mark() {
        let sys = two_page_system();
        let a = Placement::all_remote(&sys);
        let mut b = a.clone();
        b.partition_mut(PageId::new(1)).local_compulsory[0] = true;
        let d = a.diff(&b);
        assert_eq!(d.compulsory_changed, 1);
        assert_eq!(d.optional_changed, 0);
        assert_eq!(d.pages_changed, 1);
    }

    #[test]
    fn stored_set_insert_remove() {
        let mut s = StoredSet::empty(4);
        assert!(s.is_empty());
        assert!(s.insert(ObjectId::new(2)));
        assert!(!s.insert(ObjectId::new(2)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(ObjectId::new(2)));
        assert!(!s.remove(ObjectId::new(2)));
        assert!(s.is_empty());
    }

    #[test]
    fn stored_set_iter_ascending() {
        let mut s = StoredSet::empty(10);
        s.insert(ObjectId::new(7));
        s.insert(ObjectId::new(1));
        s.insert(ObjectId::new(4));
        let ids: Vec<u32> = s.iter().map(|o| o.raw()).collect();
        assert_eq!(ids, vec![1, 4, 7]);
    }
}
