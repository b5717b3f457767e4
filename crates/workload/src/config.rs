//! Table 1 — every workload parameter, validated and serializable.
//!
//! [`WorkloadParams::paper`] reproduces the published values verbatim. The
//! struct is deliberately exhaustive so that EXPERIMENTS.md can print the
//! whole table straight from code (`mmrepl study table1`) and so
//! sensitivity studies can tweak a single knob.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An inclusive numeric range `[lo, hi]` that values are drawn from
/// uniformly. Table 1 expresses most parameters this way ("400-800",
/// "5-45", "1.275-1.775 sec", ...).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Range {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Range {
    /// Creates a range, panicking if `lo > hi` or either bound is
    /// non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range [{lo}, {hi}]"
        );
        Range { lo, hi }
    }

    /// A degenerate single-value range.
    pub fn fixed(v: f64) -> Self {
        Range::new(v, v)
    }

    /// The zero range — serde default for optional intensity bands.
    pub fn zero() -> Self {
        Range::fixed(0.0)
    }

    /// Whether `v` lies inside the range.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// The midpoint, used when a single representative value is needed.
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// The width `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{} - {}", self.lo, self.hi)
        }
    }
}

/// Serde adapter mapping `f64::INFINITY` to the string `"inf"`, because
/// JSON has no infinity literal and Table 1's repository capacity is
/// "Infinite".
mod inf_f64 {
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_infinite() && *v > 0.0 {
            s.serialize_str("inf")
        } else {
            s.serialize_f64(*v)
        }
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        struct NumOrInf;
        impl serde::de::Visitor<'_> for NumOrInf {
            type Value = f64;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("a number or the string \"inf\"")
            }
            fn visit_f64<E: serde::de::Error>(self, v: f64) -> Result<f64, E> {
                Ok(v)
            }
            fn visit_u64<E: serde::de::Error>(self, v: u64) -> Result<f64, E> {
                Ok(v as f64)
            }
            fn visit_i64<E: serde::de::Error>(self, v: i64) -> Result<f64, E> {
                Ok(v as f64)
            }
            fn visit_str<E: serde::de::Error>(self, s: &str) -> Result<f64, E> {
                if s == "inf" {
                    Ok(f64::INFINITY)
                } else {
                    Err(serde::de::Error::custom(format!(
                        "unexpected capacity string {s:?}"
                    )))
                }
            }
        }
        d.deserialize_any(NumOrInf)
    }
}

/// Federated repository-tree parameters (not in Table 1 — the paper's
/// single repository is the degenerate `levels = 1` tree, which attaches
/// no topology at all and reproduces the star generator bit for bit).
///
/// The tree is a uniform hierarchy: an origin node at level 0, `fanout`
/// children per node at each level below, sites attached round-robin to
/// the deepest tier. Link bandwidths and latencies are drawn uniformly
/// per link; QoS max-latency bounds are drawn per site with probability
/// `qos_prob` as the site's repository overhead plus a `qos_slack` draw
/// (always achievable from the attach node, possibly forbidding deeper
/// ancestors).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopologyParams {
    /// Tree depth counting the origin: 1 = the paper's star, 2 = origin
    /// plus an edge tier, 3 adds a regional tier between them.
    #[serde(default = "TopologyParams::default_levels")]
    pub levels: usize,
    /// Children per node at each tier below the origin.
    #[serde(default = "TopologyParams::default_fanout")]
    pub fanout: usize,
    /// Per-link bandwidth band, bytes/s.
    #[serde(default = "TopologyParams::default_link_bandwidth")]
    pub link_bandwidth: Range,
    /// Per-link latency band, seconds.
    #[serde(default = "TopologyParams::default_link_latency")]
    pub link_latency: Range,
    /// Processing capacity of each non-origin node, req/s (the origin
    /// keeps the repository capacity). `"inf"` = unbounded.
    #[serde(with = "inf_f64", default = "TopologyParams::default_node_capacity")]
    pub node_capacity: f64,
    /// Probability that a site carries a QoS max-latency bound.
    #[serde(default)]
    pub qos_prob: f64,
    /// QoS slack band, seconds above the site's repository overhead.
    #[serde(default = "TopologyParams::default_qos_slack")]
    pub qos_slack: Range,
}

impl TopologyParams {
    fn default_levels() -> usize {
        1
    }
    fn default_fanout() -> usize {
        2
    }
    fn default_link_bandwidth() -> Range {
        // 0.5-1.5 KiB/s, inside the Table 1 repository transfer band
        // (0.3-2 KiB/s) so upstream links genuinely bottleneck remote
        // streams that reach past the attach node.
        Range::new(0.5 * 1024.0, 1.5 * 1024.0)
    }
    fn default_link_latency() -> Range {
        Range::new(0.2, 1.0)
    }
    fn default_node_capacity() -> f64 {
        f64::INFINITY
    }
    fn default_qos_slack() -> Range {
        Range::new(0.1, 0.6)
    }

    /// The paper's star: one origin, no tree attached.
    pub fn origin() -> Self {
        TopologyParams {
            levels: 1,
            fanout: Self::default_fanout(),
            link_bandwidth: Self::default_link_bandwidth(),
            link_latency: Self::default_link_latency(),
            node_capacity: Self::default_node_capacity(),
            qos_prob: 0.0,
            qos_slack: Self::default_qos_slack(),
        }
    }

    /// Origin plus one edge tier: two mirrors close to the sites.
    pub fn edge() -> Self {
        TopologyParams {
            levels: 2,
            ..Self::origin()
        }
    }

    /// Three-level hierarchy: origin, regional mirrors, edge mirrors —
    /// with QoS bounds on a third of the sites.
    pub fn regional() -> Self {
        TopologyParams {
            levels: 3,
            qos_prob: 1.0 / 3.0,
            ..Self::origin()
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels == 0 {
            return Err("topology levels must be at least 1".into());
        }
        if self.levels > 1 {
            if self.fanout == 0 {
                return Err("topology fanout must be positive".into());
            }
            if self.link_bandwidth.lo <= 0.0 {
                return Err("link bandwidths must be positive".into());
            }
            if self.link_latency.lo < 0.0 {
                return Err("link latencies must be non-negative".into());
            }
            if self.node_capacity <= 0.0 {
                return Err("node capacity must be positive".into());
            }
            if !(0.0..=1.0).contains(&self.qos_prob) || !self.qos_prob.is_finite() {
                return Err(format!("qos_prob must be in [0,1], got {}", self.qos_prob));
            }
            if self.qos_slack.lo < 0.0 {
                return Err("qos slack must be non-negative".into());
            }
        }
        Ok(())
    }
}

impl Default for TopologyParams {
    fn default() -> Self {
        Self::origin()
    }
}

/// All Table 1 parameters.
///
/// Sizes are in **bytes** (Table 1's "K"/"M" bands are converted with
/// 1 K = 1024), rates in bytes/second, overheads in seconds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// "Number of Local Sites (LS)" — 10.
    pub n_sites: usize,
    /// "Number of Web Pages per LS" — 400-800 (uniform per site).
    pub pages_per_site: Range,
    /// "Hot Pages (accounting for 60% of traffic)" — fraction of pages
    /// that are hot, 0.10.
    pub hot_page_frac: f64,
    /// Fraction of traffic the hot pages carry — 0.60.
    pub hot_traffic_frac: f64,
    /// "Number of Compulsory MOs per Page" — 5-45.
    pub compulsory_per_page: Range,
    /// "Number of Optional MOs per Page" — 10-85, for the pages that have
    /// any.
    pub optional_per_page: Range,
    /// Fraction of pages that have optional objects — 0.10.
    pub pages_with_optional_frac: f64,
    /// "Number of MOs in the Network" — 15,000.
    pub n_objects: usize,
    /// "Number of MOs in an LS" — 1,500-4,500: the size of each site's
    /// regional catalogue (the object subset its pages draw from).
    pub objects_per_site: Range,
    /// Small HTML band: fraction 0.35, sizes 1-6 KiB.
    pub html_small: (f64, Range),
    /// Medium HTML band: fraction 0.60, sizes 6-20 KiB.
    pub html_medium: (f64, Range),
    /// Large HTML band: fraction 0.05, sizes 20-50 KiB.
    pub html_large: (f64, Range),
    /// Small MO band: fraction 0.30, sizes 40-300 KiB.
    pub mo_small: (f64, Range),
    /// Medium MO band: fraction 0.60, sizes 300-800 KiB.
    pub mo_medium: (f64, Range),
    /// Large MO band: fraction 0.10, sizes 800 KiB-4 MiB.
    pub mo_large: (f64, Range),
    /// "Number of Optional MOs requested per page" — 30 % of the page's
    /// optional links, when the user requests any.
    pub optional_request_frac: f64,
    /// "Probability that a user will request one or more optional MOs" —
    /// 0.10.
    pub optional_interest_prob: f64,
    /// "Processing Capacity of LS" — 150 HTTP req/s.
    pub site_capacity: f64,
    /// "Processing Capacity of Repository" — `f64::INFINITY` in Table 1.
    /// (Serialized as the string `"inf"` when infinite, since JSON lacks an
    /// infinity literal.)
    #[serde(with = "inf_f64")]
    pub repo_capacity: f64,
    /// "Overhead at LS" — 1.275-1.775 s (per-site uniform).
    pub site_overhead: Range,
    /// "Overhead at Repository" — 1.975-2.475 s (per-site uniform).
    pub repo_overhead: Range,
    /// Estimated local transfer rate band, bytes/s — 3-10 KiB/s.
    pub local_rate: Range,
    /// Estimated repository transfer rate band, bytes/s — 0.3-2 KiB/s.
    pub repo_rate: Range,
    /// "Number of Page Requests per Server" — 10,000.
    pub requests_per_site: usize,
    /// `(α1, α2)` — (2, 1).
    pub alpha: (f64, f64),
    /// Aggregate page-request rate per site, req/s, spread over the site's
    /// pages by the hot/cold split. Not in Table 1 (the paper only needs
    /// relative frequencies); capacity sweeps are expressed as fractions of
    /// derived loads, so this scale cancels out of every figure.
    pub site_page_rate: f64,
    /// Per-object update rate band, updates/second (read/write extension;
    /// the paper's read-only workload uses the default `0 - 0`).
    #[serde(default = "Range::zero")]
    pub update_rate: Range,
    /// Federated repository-tree shape (extension; the default
    /// [`TopologyParams::origin`] reproduces the paper's star).
    #[serde(default)]
    pub topology: TopologyParams,
}

impl WorkloadParams {
    /// The exact Table 1 configuration.
    pub fn paper() -> Self {
        const KIB: f64 = 1024.0;
        WorkloadParams {
            n_sites: 10,
            pages_per_site: Range::new(400.0, 800.0),
            hot_page_frac: 0.10,
            hot_traffic_frac: 0.60,
            compulsory_per_page: Range::new(5.0, 45.0),
            optional_per_page: Range::new(10.0, 85.0),
            pages_with_optional_frac: 0.10,
            n_objects: 15_000,
            objects_per_site: Range::new(1_500.0, 4_500.0),
            html_small: (0.35, Range::new(1.0 * KIB, 6.0 * KIB)),
            html_medium: (0.60, Range::new(6.0 * KIB, 20.0 * KIB)),
            html_large: (0.05, Range::new(20.0 * KIB, 50.0 * KIB)),
            mo_small: (0.30, Range::new(40.0 * KIB, 300.0 * KIB)),
            mo_medium: (0.60, Range::new(300.0 * KIB, 800.0 * KIB)),
            mo_large: (0.10, Range::new(800.0 * KIB, 4.0 * KIB * KIB)),
            optional_request_frac: 0.30,
            optional_interest_prob: 0.10,
            site_capacity: 150.0,
            repo_capacity: f64::INFINITY,
            site_overhead: Range::new(1.275, 1.775),
            repo_overhead: Range::new(1.975, 2.475),
            local_rate: Range::new(3.0 * KIB, 10.0 * KIB),
            repo_rate: Range::new(0.3 * KIB, 2.0 * KIB),
            requests_per_site: 10_000,
            alpha: (2.0, 1.0),
            site_page_rate: 5.0,
            update_rate: Range::zero(),
            topology: TopologyParams::origin(),
        }
    }

    /// A scaled-down configuration for unit tests and doctests: 3 sites,
    /// ~40 pages each, 600 objects, 500 requests per site. Runs in
    /// milliseconds while exercising every code path.
    pub fn small() -> Self {
        let mut p = Self::paper();
        p.n_sites = 3;
        p.pages_per_site = Range::new(30.0, 50.0);
        p.n_objects = 600;
        p.objects_per_site = Range::new(100.0, 250.0);
        p.compulsory_per_page = Range::new(3.0, 10.0);
        p.optional_per_page = Range::new(4.0, 12.0);
        p.requests_per_site = 500;
        p
    }

    /// Per-optional-object request probability `U'_jk`: the product of
    /// "user requests any optionals" (10 %) and "requests 30 % of the
    /// links" — each link is requested with probability 0.03.
    pub fn optional_prob(&self) -> f64 {
        self.optional_interest_prob * self.optional_request_frac
    }

    /// Validates internal consistency; returns a human-readable complaint
    /// for the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        fn frac(name: &str, v: f64) -> Result<(), String> {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(format!("{name} must be in [0,1], got {v}"));
            }
            Ok(())
        }
        if self.n_sites == 0 {
            return Err("n_sites must be positive".into());
        }
        if self.n_objects == 0 {
            return Err("n_objects must be positive".into());
        }
        frac("hot_page_frac", self.hot_page_frac)?;
        frac("hot_traffic_frac", self.hot_traffic_frac)?;
        frac("pages_with_optional_frac", self.pages_with_optional_frac)?;
        frac("optional_request_frac", self.optional_request_frac)?;
        frac("optional_interest_prob", self.optional_interest_prob)?;
        let html_total = self.html_small.0 + self.html_medium.0 + self.html_large.0;
        if (html_total - 1.0).abs() > 1e-9 {
            return Err(format!("HTML band fractions sum to {html_total}, not 1"));
        }
        let mo_total = self.mo_small.0 + self.mo_medium.0 + self.mo_large.0;
        if (mo_total - 1.0).abs() > 1e-9 {
            return Err(format!("MO band fractions sum to {mo_total}, not 1"));
        }
        if self.objects_per_site.hi > self.n_objects as f64 {
            return Err(format!(
                "objects_per_site upper bound {} exceeds n_objects {}",
                self.objects_per_site.hi, self.n_objects
            ));
        }
        if self.compulsory_per_page.hi + self.optional_per_page.hi > self.objects_per_site.lo {
            return Err(format!(
                "a page may need up to {} objects but a site catalogue may have only {}",
                self.compulsory_per_page.hi + self.optional_per_page.hi,
                self.objects_per_site.lo
            ));
        }
        if self.site_page_rate <= 0.0 || !self.site_page_rate.is_finite() {
            return Err("site_page_rate must be positive and finite".into());
        }
        if self.local_rate.lo <= 0.0 || self.repo_rate.lo <= 0.0 {
            return Err("transfer rates must be positive".into());
        }
        if self.alpha.0 < 0.0 || self.alpha.1 < 0.0 {
            return Err("alpha weights must be non-negative".into());
        }
        if self.update_rate.lo < 0.0 {
            return Err("update rates must be non-negative".into());
        }
        self.topology.validate()?;
        Ok(())
    }

    /// Renders Table 1 as an aligned text table (`results/table1.txt`).
    pub fn table1(&self) -> String {
        let rows = self.table1_rows();
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::from("# Table 1: Parameters used in experiments\n");
        for (k, v) in &rows {
            out.push_str(&format!("{k:<width$}  |  {v}\n"));
        }
        out
    }

    /// The parameters as the rows of the paper's Table 1.
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        const KIB: f64 = 1024.0;
        let kib = |r: &Range| format!("{:.0}K-{:.0}K", r.lo / KIB, r.hi / KIB);
        vec![
            (
                "Number of Local Sites (LS)".into(),
                format!("{}", self.n_sites),
            ),
            (
                "Number of Web Pages per LS".into(),
                format!(
                    "{:.0}-{:.0}",
                    self.pages_per_site.lo, self.pages_per_site.hi
                ),
            ),
            (
                format!(
                    "Hot Pages (accounting for {:.0}% of traffic)",
                    self.hot_traffic_frac * 100.0
                ),
                format!("{:.0}%", self.hot_page_frac * 100.0),
            ),
            (
                "Number of Compulsory MOs per Page".into(),
                format!(
                    "{:.0}-{:.0}",
                    self.compulsory_per_page.lo, self.compulsory_per_page.hi
                ),
            ),
            (
                format!(
                    "Number of Optional MOs per Page ({:.0}% of pages have optional objects)",
                    self.pages_with_optional_frac * 100.0
                ),
                format!(
                    "{:.0}-{:.0}",
                    self.optional_per_page.lo, self.optional_per_page.hi
                ),
            ),
            (
                "Number of MOs in the Network".into(),
                format!("{}", self.n_objects),
            ),
            (
                "Number of MOs in an LS".into(),
                format!(
                    "{:.0}-{:.0}",
                    self.objects_per_site.lo, self.objects_per_site.hi
                ),
            ),
            (
                format!(
                    "Small HTML size ({:.0}% of pages)",
                    self.html_small.0 * 100.0
                ),
                kib(&self.html_small.1),
            ),
            (
                format!(
                    "Medium HTML size ({:.0}% of pages)",
                    self.html_medium.0 * 100.0
                ),
                kib(&self.html_medium.1),
            ),
            (
                format!(
                    "Large HTML size ({:.0}% of pages)",
                    self.html_large.0 * 100.0
                ),
                kib(&self.html_large.1),
            ),
            (
                format!("Small MO size ({:.0}% of MOs)", self.mo_small.0 * 100.0),
                kib(&self.mo_small.1),
            ),
            (
                format!("Medium MO size ({:.0}% of MOs)", self.mo_medium.0 * 100.0),
                kib(&self.mo_medium.1),
            ),
            (
                format!("Large MO size ({:.0}% of MOs)", self.mo_large.0 * 100.0),
                format!(
                    "{:.0}K-{:.0}M",
                    self.mo_large.1.lo / KIB,
                    self.mo_large.1.hi / (KIB * KIB)
                ),
            ),
            (
                "Number of Optional MOs requested per page".into(),
                format!(
                    "{:.0}% of the total links in the page",
                    self.optional_request_frac * 100.0
                ),
            ),
            (
                "Probability that a user will request one or more optional MOs".into(),
                format!("{:.0}%", self.optional_interest_prob * 100.0),
            ),
            (
                "Processing Capacity of LS".into(),
                format!("{:.0} HTTPreq./sec.", self.site_capacity),
            ),
            (
                "Processing Capacity of Repository".into(),
                if self.repo_capacity.is_infinite() {
                    "Infinite".into()
                } else {
                    format!("{:.0} HTTPreq./sec.", self.repo_capacity)
                },
            ),
            (
                "Overhead at LS".into(),
                format!(
                    "{:.3}-{:.3} sec.",
                    self.site_overhead.lo, self.site_overhead.hi
                ),
            ),
            (
                "Overhead at Repository".into(),
                format!(
                    "{:.3}-{:.3} sec.",
                    self.repo_overhead.lo, self.repo_overhead.hi
                ),
            ),
            (
                "Number of Page Requests per Server".into(),
                format!("{}", self.requests_per_site),
            ),
            (
                "(alpha1, alpha2)".into(),
                format!("({:.0}, {:.0})", self.alpha.0, self.alpha.1),
            ),
        ]
    }
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_validate() {
        WorkloadParams::paper().validate().unwrap();
    }

    #[test]
    fn small_params_validate() {
        WorkloadParams::small().validate().unwrap();
    }

    #[test]
    fn range_basics() {
        let r = Range::new(2.0, 6.0);
        assert!(r.contains(2.0));
        assert!(r.contains(6.0));
        assert!(!r.contains(6.1));
        assert_eq!(r.mid(), 4.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(Range::fixed(3.0).width(), 0.0);
        assert_eq!(format!("{}", Range::new(1.0, 2.0)), "1 - 2");
        assert_eq!(format!("{}", Range::fixed(7.0)), "7");
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn range_rejects_inverted() {
        let _ = Range::new(5.0, 1.0);
    }

    #[test]
    fn optional_prob_is_product() {
        let p = WorkloadParams::paper();
        assert!((p.optional_prob() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn validate_catches_band_fraction_drift() {
        let mut p = WorkloadParams::paper();
        p.html_small.0 = 0.5; // now sums to 1.15
        let err = p.validate().unwrap_err();
        assert!(err.contains("HTML band"), "{err}");
    }

    #[test]
    fn validate_catches_bad_fractions() {
        let mut p = WorkloadParams::paper();
        p.hot_page_frac = 1.5;
        assert!(p.validate().is_err());
        let mut p = WorkloadParams::paper();
        p.optional_interest_prob = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_catalogue_too_small() {
        let mut p = WorkloadParams::paper();
        p.objects_per_site = Range::new(50.0, 100.0);
        let err = p.validate().unwrap_err();
        assert!(err.contains("catalogue"), "{err}");
    }

    #[test]
    fn validate_catches_catalogue_bigger_than_universe() {
        let mut p = WorkloadParams::paper();
        p.objects_per_site = Range::new(1_500.0, 50_000.0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_zero_rates() {
        let mut p = WorkloadParams::paper();
        p.repo_rate = Range::new(0.0, 10.0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn table1_contains_the_published_rows() {
        let rows = WorkloadParams::paper().table1_rows();
        let as_text: Vec<String> = rows.iter().map(|(k, v)| format!("{k}: {v}")).collect();
        let joined = as_text.join("\n");
        assert!(joined.contains("Number of Local Sites (LS): 10"));
        assert!(joined.contains("400-800"));
        assert!(joined.contains("5-45"));
        assert!(joined.contains("15000"));
        assert!(joined.contains("150 HTTPreq./sec."));
        assert!(joined.contains("Infinite"));
        assert!(joined.contains("1.275-1.775 sec."));
        assert!(joined.contains("(2, 1)"));
        assert!(joined.contains("10000"));
        assert!(joined.contains("800K-4M"));
    }

    #[test]
    fn serde_roundtrip_with_infinite_capacity() {
        let p = WorkloadParams::paper();
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("\"inf\""), "{json}");
        let back: WorkloadParams = serde_json::from_str(&json).unwrap();
        assert!(back.repo_capacity.is_infinite());
        // Equality can't compare infinities through PartialEq derive issues,
        // so compare a finite clone of both.
        let mut a = p.clone();
        let mut b = back.clone();
        a.repo_capacity = 0.0;
        b.repo_capacity = 0.0;
        assert_eq!(a, b);
    }

    #[test]
    fn serde_roundtrip_with_finite_capacity() {
        let mut p = WorkloadParams::paper();
        p.repo_capacity = 1234.5;
        let json = serde_json::to_string(&p).unwrap();
        let back: WorkloadParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
