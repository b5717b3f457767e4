//! Typed indices and the typed vector they index.
//!
//! The simulator routinely holds three parallel universes of indices —
//! sites, pages and multimedia objects — and mixing them up is the classic
//! off-by-one-universe bug. Each entity gets a zero-cost newtype over `u32`
//! and containers are wrapped in [`IdVec`] so that `pages[site_id]` is a
//! compile error rather than a silent misread.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::marker::PhantomData;

/// Internal helper: defines an id newtype over `u32`.
macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw `u32` index.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the index as `usize` for slice addressing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Wraps a `usize` index.
            ///
            /// # Panics
            /// Panics if `idx` does not fit in `u32`.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                Self(u32::try_from(idx).expect("id index exceeds u32::MAX"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// Identifier of a local site `S_i` (one web server plus its client
    /// population).
    SiteId,
    "S"
);
define_id!(
    /// Identifier of a web page `W_j`. A page is hosted by exactly one site;
    /// replicated pages are modelled as distinct pages, following Section 3
    /// of the paper.
    PageId,
    "W"
);
define_id!(
    /// Identifier of a multimedia object `M_k` stored in the central
    /// repository.
    ObjectId,
    "M"
);
define_id!(
    /// Identifier of a repository node in a federated tree topology
    /// (edge, regional or origin repository). The classic single-repository
    /// star has exactly one node, `N0`.
    NodeId,
    "N"
);

/// A vector indexable only by its own id type.
///
/// `IdVec<PageId, WebPage>` behaves like `Vec<WebPage>` but rejects indexing
/// with a `SiteId` at compile time. Iteration yields `(id, &value)` pairs so
/// that call sites never manufacture ids by hand.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IdVec<I, T> {
    items: Vec<T>,
    #[serde(skip)]
    _marker: PhantomData<fn(I) -> I>,
}

impl<I, T: fmt::Debug> fmt::Debug for IdVec<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items.iter()).finish()
    }
}

impl<I, T> Default for IdVec<I, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I, T> IdVec<I, T> {
    /// Creates an empty `IdVec`.
    pub const fn new() -> Self {
        Self {
            items: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Creates an empty `IdVec` with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            items: Vec::with_capacity(cap),
            _marker: PhantomData,
        }
    }

    /// Wraps an existing vector; index `i` becomes id `i`.
    pub fn from_vec(items: Vec<T>) -> Self {
        Self {
            items,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Borrows the underlying slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }
}

impl<I, T> IdVec<I, T>
where
    I: Copy + Into<usize> + IdLike,
{
    /// Appends `value`, returning its freshly minted id.
    pub fn push(&mut self, value: T) -> I {
        let id = I::from_index(self.items.len());
        self.items.push(value);
        id
    }

    /// Returns the element for `id`, if in bounds.
    #[inline]
    pub fn get(&self, id: I) -> Option<&T> {
        self.items.get(id.into())
    }

    /// Returns a mutable reference for `id`, if in bounds.
    #[inline]
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.items.get_mut(id.into())
    }

    /// Iterates `(id, &value)` pairs in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (I, &T)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, t)| (I::from_index(i), t))
    }

    /// Iterates `(id, &mut value)` pairs in id order.
    pub fn iter_mut(&mut self) -> impl ExactSizeIterator<Item = (I, &mut T)> {
        self.items
            .iter_mut()
            .enumerate()
            .map(|(i, t)| (I::from_index(i), t))
    }

    /// Iterates all valid ids in order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = I> + Clone {
        (0..self.items.len()).map(I::from_index)
    }

    /// Iterates values without ids.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &T> {
        self.items.iter()
    }
}

impl<I, T> std::ops::Index<I> for IdVec<I, T>
where
    I: Copy + Into<usize> + IdLike,
{
    type Output = T;

    #[inline]
    fn index(&self, id: I) -> &T {
        &self.items[id.into()]
    }
}

impl<I, T> std::ops::IndexMut<I> for IdVec<I, T>
where
    I: Copy + Into<usize> + IdLike,
{
    #[inline]
    fn index_mut(&mut self, id: I) -> &mut T {
        &mut self.items[id.into()]
    }
}

impl<I: IdLike, T> FromIterator<T> for IdVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

/// Trait unifying the id newtypes so [`IdVec`] can mint fresh ids.
pub trait IdLike {
    /// Builds the id from a raw `usize` index.
    fn from_index(idx: usize) -> Self;
}

impl IdLike for SiteId {
    #[inline]
    fn from_index(idx: usize) -> Self {
        SiteId::from_index(idx)
    }
}

impl IdLike for PageId {
    #[inline]
    fn from_index(idx: usize) -> Self {
        PageId::from_index(idx)
    }
}

impl IdLike for ObjectId {
    #[inline]
    fn from_index(idx: usize) -> Self {
        ObjectId::from_index(idx)
    }
}

impl IdLike for NodeId {
    #[inline]
    fn from_index(idx: usize) -> Self {
        NodeId::from_index(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let id = PageId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(PageId::from_index(42), id);
        assert_eq!(format!("{id}"), "W42");
        assert_eq!(format!("{id:?}"), "W42");
    }

    #[test]
    fn id_ordering_follows_raw() {
        assert!(ObjectId::new(3) < ObjectId::new(7));
        assert_eq!(SiteId::new(5), SiteId::new(5));
    }

    #[test]
    fn idvec_push_mints_sequential_ids() {
        let mut v: IdVec<SiteId, &str> = IdVec::new();
        let a = v.push("alpha");
        let b = v.push("beta");
        assert_eq!(a, SiteId::new(0));
        assert_eq!(b, SiteId::new(1));
        assert_eq!(v[a], "alpha");
        assert_eq!(v[b], "beta");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn idvec_iter_yields_matching_ids() {
        let v: IdVec<ObjectId, u32> = IdVec::from_vec(vec![10, 20, 30]);
        let collected: Vec<(ObjectId, u32)> = v.iter().map(|(i, &x)| (i, x)).collect();
        assert_eq!(
            collected,
            vec![
                (ObjectId::new(0), 10),
                (ObjectId::new(1), 20),
                (ObjectId::new(2), 30)
            ]
        );
    }

    #[test]
    fn idvec_get_bounds() {
        let v: IdVec<PageId, u8> = IdVec::from_vec(vec![1]);
        assert_eq!(v.get(PageId::new(0)), Some(&1));
        assert_eq!(v.get(PageId::new(1)), None);
    }

    #[test]
    fn idvec_iter_mut_updates_in_place() {
        let mut v: IdVec<PageId, u32> = IdVec::from_vec(vec![1, 2]);
        for (_, x) in v.iter_mut() {
            *x *= 10;
        }
        assert_eq!(v.as_slice(), &[10, 20]);
    }

    #[test]
    fn idvec_serde_is_transparent() {
        let v: IdVec<PageId, u32> = IdVec::from_vec(vec![5, 6]);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, "[5,6]");
        let back: IdVec<PageId, u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn idvec_index_panics_out_of_bounds() {
        let v: IdVec<SiteId, u8> = IdVec::new();
        let _ = v[SiteId::new(0)];
    }
}
