//! Property tests for the model crate's data structures: the bit matrix,
//! the unit arithmetic and the placement bookkeeping.

use mmrepl_model::{
    default_site, BitMatrix, Bytes, BytesPerSec, MediaObject, OptionalRef, Placement, ReqPerSec,
    Secs, SiteId, SystemBuilder, WebPage,
};
use proptest::prelude::*;

proptest! {
    /// Set/get roundtrip over arbitrary in-range coordinates.
    #[test]
    fn bitmatrix_set_get_roundtrip(
        rows in 1usize..20,
        cols in 1usize..200,
        ops in prop::collection::vec((0usize..20, 0usize..200, any::<bool>()), 0..100),
    ) {
        let mut m = BitMatrix::zeros(rows, cols);
        let mut shadow = vec![vec![false; cols]; rows];
        for (r, c, v) in ops {
            let (r, c) = (r % rows, c % cols);
            m.set(r, c, v);
            shadow[r][c] = v;
        }
        for (r, row) in shadow.iter().enumerate() {
            for (c, &bit) in row.iter().enumerate() {
                prop_assert_eq!(m.get(r, c), bit, "at ({}, {})", r, c);
            }
        }
        let expect: usize = shadow.iter().flatten().filter(|&&b| b).count();
        prop_assert_eq!(m.count(), expect);
    }

    /// Row iteration yields exactly the set columns, ascending.
    #[test]
    fn bitmatrix_row_iter_matches_gets(
        cols in 1usize..300,
        set in prop::collection::btree_set(0usize..300, 0..50),
    ) {
        let mut m = BitMatrix::zeros(1, cols);
        let expect: Vec<usize> = set.iter().copied().filter(|&c| c < cols).collect();
        for &c in &expect {
            m.set(0, c, true);
        }
        let got: Vec<usize> = m.row_iter(0).collect();
        prop_assert_eq!(got, expect);
    }

    /// `and_not` equals the element-wise definition, and `contains_all`
    /// recognizes `u & x` as a subset of `u`.
    #[test]
    fn bitmatrix_andnot_and_subset(
        cols in 1usize..150,
        a_bits in prop::collection::btree_set(0usize..150, 0..40),
        b_bits in prop::collection::btree_set(0usize..150, 0..40),
    ) {
        let mut u = BitMatrix::zeros(1, cols);
        let mut x = BitMatrix::zeros(1, cols);
        for &c in a_bits.iter().filter(|&&c| c < cols) {
            u.set(0, c, true);
        }
        for &c in b_bits.iter().filter(|&&c| c < cols) {
            x.set(0, c, true);
        }
        let diff = u.and_not(&x);
        for c in 0..cols {
            prop_assert_eq!(diff.get(0, c), u.get(0, c) && !x.get(0, c));
        }
        prop_assert!(u.contains_all(&diff));
        prop_assert!(u.contains_all(&u.and_not(&diff)));
    }

    /// Transfer time scales linearly in size and inversely in rate.
    #[test]
    fn transfer_time_scaling(size in 1u64..1_000_000_000, rate in 1.0f64..1e9) {
        let t1 = Bytes(size) / BytesPerSec(rate);
        let t2 = Bytes(size * 2) / BytesPerSec(rate);
        let t3 = Bytes(size) / BytesPerSec(rate * 2.0);
        prop_assert!((t2.get() - 2.0 * t1.get()).abs() <= 1e-9 * t2.get().max(1.0));
        prop_assert!((t3.get() - 0.5 * t1.get()).abs() <= 1e-9 * t1.get().max(1.0));
        prop_assert!(t1.is_valid());
    }

    /// Secs max/min are consistent with ordering.
    #[test]
    fn secs_lattice(a in 0.0f64..1e6, b in 0.0f64..1e6) {
        let (x, y) = (Secs(a), Secs(b));
        prop_assert_eq!(x.max(y), y.max(x));
        prop_assert_eq!(x.min(y), y.min(x));
        prop_assert!(x.max(y) >= x.min(y));
        prop_assert_eq!(x.max(y) + x.min(y), x + y);
    }

    /// Bytes::scale never overshoots and is monotone in the fraction.
    #[test]
    fn bytes_scale_monotone(total in 0u64..u64::MAX / 4, f1 in 0.0f64..1.0, f2 in 0.0f64..1.0) {
        let b = Bytes(total);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(b.scale(lo) <= b.scale(hi) + Bytes(1));
        prop_assert!(b.scale(1.0) == b);
        prop_assert!(b.scale(0.0) == Bytes::ZERO);
    }

    /// `storage_used` (first-seen size sums) equals Eq. 10's definition:
    /// HTML bytes plus the sizes of the stored set, on random systems with
    /// objects shared across pages and sites and random marks.
    #[test]
    fn storage_used_is_html_plus_stored_set_sizes(
        n_sites in 1u32..4,
        sizes in prop::collection::vec(1u64..5_000_000, 1..200),
        pages in prop::collection::vec(
            (
                0u32..4,
                prop::collection::vec((0usize..200, any::<bool>()), 0..12),
                prop::collection::vec((0usize..200, any::<bool>()), 0..12),
            ),
            1..30,
        ),
    ) {
        let mut b = SystemBuilder::new();
        let sites: Vec<SiteId> = (0..n_sites).map(|_| b.add_site(default_site())).collect();
        let objects: Vec<_> = sizes
            .iter()
            .map(|&s| b.add_object(MediaObject::of_size(Bytes(s))))
            .collect();
        let mut marks = Vec::new();
        for (site, comp, opt) in &pages {
            // One reference per object and page, as the model requires.
            let mut taken = std::collections::BTreeSet::new();
            let comp: Vec<_> = comp
                .iter()
                .map(|&(k, m)| (k % objects.len(), m))
                .filter(|&(k, _)| taken.insert(k))
                .collect();
            let opt: Vec<_> = opt
                .iter()
                .map(|&(k, m)| (k % objects.len(), m))
                .filter(|&(k, _)| taken.insert(k))
                .collect();
            b.add_page(WebPage {
                site: sites[*site as usize % sites.len()],
                html_size: Bytes::kib(3),
                freq: ReqPerSec(1.0),
                compulsory: comp.iter().map(|&(k, _)| objects[k]).collect(),
                optional: opt
                    .iter()
                    .map(|&(k, _)| OptionalRef { object: objects[k], prob: 0.03 })
                    .collect(),
                opt_req_factor: 1.0,
            });
            marks.push((comp, opt));
        }
        let sys = b.build().unwrap();
        let mut placement = Placement::all_remote(&sys);
        for (pid, (comp, opt)) in sys.pages().ids().zip(&marks) {
            let part = placement.partition_mut(pid);
            for (slot, &(_, m)) in comp.iter().enumerate() {
                part.local_compulsory[slot] = m;
            }
            for (slot, &(_, m)) in opt.iter().enumerate() {
                part.local_optional[slot] = m;
            }
        }
        for &site in &sites {
            let stored: Bytes = placement
                .stored_set(&sys, site)
                .iter()
                .map(|k| sys.object_size(k))
                .sum();
            prop_assert_eq!(
                placement.storage_used(&sys, site),
                sys.html_bytes_of(site) + stored,
                "site {}", site
            );
        }
    }
}
