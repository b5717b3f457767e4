//! Property tests for the workload generator, its samplers, the
//! connection arithmetic and the response-time statistics.

use mmrepl_model::{Bytes, BytesPerSec, Secs};
use mmrepl_workload::{
    generate_system, generate_trace, sampling, AliasTable, ConnectionProfile, DriftModel,
    PerturbModel, ResponseStats, TraceConfig, WorkloadParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The alias table never returns a zero-weight outcome and always
    /// returns an in-range index, for arbitrary weight vectors.
    #[test]
    fn alias_table_support(
        weights in prop::collection::vec(0.0f64..100.0, 1..50),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..500 {
            let i = table.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight outcome {}", i);
        }
    }

    /// `sample_distinct` always returns k distinct in-range values.
    #[test]
    fn sample_distinct_properties(n in 1usize..200, frac in 0.0f64..=1.0, seed in any::<u64>()) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let picks = sampling::sample_distinct(&mut rng, n, k);
        prop_assert_eq!(picks.len(), k);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(picks.iter().all(|&p| p < n));
    }

    /// Perturbation factors always land in the declared bands, for any
    /// RNG stream.
    #[test]
    fn perturbation_bands(seed in any::<u64>()) {
        let m = PerturbModel::paper();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let c = m.draw(&mut rng);
            prop_assert!(c.local_rate_factor > 0.0 && c.local_rate_factor <= 1.1 + 1e-12);
            prop_assert!((0.8..=1.2).contains(&c.repo_rate_factor));
            prop_assert!((0.8..=1.2).contains(&c.repo_ovhd_factor));
            prop_assert!((0.9..=1.5).contains(&c.local_ovhd_factor));
        }
    }

    /// Generation is a pure function of (params, seed); traces are a pure
    /// function of (system, config, seed).
    #[test]
    fn generation_is_deterministic(seed in any::<u64>()) {
        let params = WorkloadParams::small();
        let a = generate_system(&params, seed).unwrap();
        let b = generate_system(&params, seed).unwrap();
        prop_assert_eq!(&a, &b);
        let cfg = TraceConfig::from_params(&params);
        let ta = generate_trace(&a, &cfg, seed);
        let tb = generate_trace(&b, &cfg, seed);
        prop_assert_eq!(ta, tb);
    }

    /// Drift at any rotation preserves each site's frequency multiset and
    /// never touches structure, for arbitrary seeds.
    #[test]
    fn drift_is_a_per_site_permutation(
        seed in any::<u64>(),
        drift_seed in any::<u64>(),
        rotation in 0.0f64..=1.0,
    ) {
        let params = WorkloadParams::small();
        let sys = generate_system(&params, seed).unwrap();
        let drifted = DriftModel::new(rotation).apply(&sys, drift_seed);
        for site in sys.sites().ids() {
            let mut before: Vec<u64> = sys.pages_of(site).iter()
                .map(|&p| sys.page(p).freq.get().to_bits()).collect();
            let mut after: Vec<u64> = drifted.pages_of(site).iter()
                .map(|&p| drifted.page(p).freq.get().to_bits()).collect();
            before.sort_unstable();
            after.sort_unstable();
            prop_assert_eq!(before, after, "site {} not a permutation", site);
        }
        for (pid, page) in sys.pages().iter() {
            let d = drifted.page(pid);
            prop_assert_eq!(&d.compulsory, &page.compulsory);
            prop_assert_eq!(d.html_size, page.html_size);
            prop_assert_eq!(d.site, page.site);
        }
    }

    /// Every generated system satisfies its own structural contract:
    /// counts in Table 1 ranges, all references resolvable, frequencies
    /// summing to the configured site rate.
    #[test]
    fn generated_systems_are_structurally_sound(seed in any::<u64>()) {
        let params = WorkloadParams::small();
        let sys = generate_system(&params, seed).unwrap();
        prop_assert_eq!(sys.n_sites(), params.n_sites);
        prop_assert_eq!(sys.n_objects(), params.n_objects);
        for site in sys.sites().ids() {
            let pages = sys.pages_of(site);
            prop_assert!(params.pages_per_site.contains(pages.len() as f64));
            let rate: f64 = pages.iter().map(|&p| sys.page(p).freq.get()).sum();
            prop_assert!((rate - params.site_page_rate).abs() < 1e-9);
            for &p in pages {
                let page = sys.page(p);
                prop_assert!(params.compulsory_per_page.contains(page.n_compulsory() as f64));
                // No object may repeat within a page across both lists.
                let mut seen = std::collections::HashSet::new();
                for &k in &page.compulsory {
                    prop_assert!(seen.insert(k));
                }
                for o in &page.optional {
                    prop_assert!(seen.insert(o.object));
                }
            }
        }
    }

    /// Merging split accumulators equals accumulating sequentially,
    /// regardless of the split.
    #[test]
    fn stats_merge_is_split_invariant(
        values in prop::collection::vec(0.001f64..10_000.0, 1..200),
        split in any::<u64>(),
    ) {
        let mut whole = ResponseStats::new();
        let mut a = ResponseStats::new();
        let mut b = ResponseStats::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(Secs(v));
            if (split >> (i % 64)) & 1 == 0 {
                a.record(Secs(v));
            } else {
                b.record(Secs(v));
            }
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        let (am, wm) = (a.mean().unwrap().get(), whole.mean().unwrap().get());
        prop_assert!((am - wm).abs() <= 1e-9 * wm.max(1.0));
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
        if values.len() > 1 {
            let (asd, wsd) = (a.std_dev().unwrap(), whole.std_dev().unwrap());
            prop_assert!((asd - wsd).abs() <= 1e-6 * wsd.max(1.0));
        }
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn quantiles_monotone(values in prop::collection::vec(0.01f64..5_000.0, 1..300)) {
        let mut s = ResponseStats::new();
        for &v in &values {
            s.record(Secs(v));
        }
        let qs = [0.0, 0.25, 0.5, 0.75, 0.95, 1.0];
        let mut last = 0.0;
        for &q in &qs {
            let v = s.quantile(q).unwrap().get();
            prop_assert!(v >= last, "q{} = {} < {}", q, v, last);
            last = v;
        }
    }

    /// Pipelining payloads on one connection is never slower than the sum
    /// of independent fetches (overhead paid once vs n times) and never
    /// faster than the pure transfer time.
    #[test]
    fn pipeline_bounds(
        ovhd in 0.0f64..5.0,
        rate in 0.1f64..100.0,
        sizes in prop::collection::vec(1u64..5_000_000, 1..30),
    ) {
        let profile = ConnectionProfile::new(Secs(ovhd), BytesPerSec(rate * 1024.0));
        let payloads: Vec<Bytes> = sizes.iter().map(|&s| Bytes(s)).collect();
        let pipelined = profile
            .stream_time(payloads.iter().copied().sum(), payloads.len())
            .get();
        let independent: f64 = payloads
            .iter()
            .map(|&p| profile.single_fetch(p).get())
            .sum();
        let pure: f64 = payloads.iter().map(|&p| profile.transfer_time(p).get()).sum();
        prop_assert!(pipelined <= independent + 1e-9);
        prop_assert!(pipelined + 1e-9 >= pure);
    }
}
