//! Dimension-bearing newtypes.
//!
//! The cost model mixes three physical dimensions — bytes, seconds and
//! bytes-per-second — plus the dimensionless "HTTP requests per second" used
//! by the processing-capacity constraints. Keeping them in distinct types
//! means `overhead + size / rate` type-checks while `overhead + size` does
//! not, which is exactly the bug class that made the paper's own Eq. 3/4
//! notation ambiguous (see crate docs).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A byte count (object or document size, storage capacity).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// `n` kibibytes (1024 bytes). Table 1 sizes such as "1K-6K" use this.
    #[inline]
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// `n` mebibytes.
    #[inline]
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    #[inline]
    pub const fn gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count as `u64`.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Saturating subtraction — storage bookkeeping never goes negative.
    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a fraction, rounding to nearest byte. Used for
    /// storage-capacity sweeps ("x% of full storage"). Exact for the
    /// identity fractions even beyond `f64`'s 2^53 integer range, and a
    /// fraction `<= 1` never produces more than the original bytes.
    #[inline]
    pub fn scale(self, frac: f64) -> Bytes {
        assert!(frac >= 0.0, "storage fraction must be non-negative");
        if frac == 0.0 {
            return Bytes::ZERO;
        }
        if frac == 1.0 {
            return self;
        }
        let scaled = Bytes((self.0 as f64 * frac).round() as u64);
        if frac <= 1.0 {
            Bytes(scaled.0.min(self.0))
        } else {
            scaled
        }
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 * 1024 {
            write!(f, "{:.2} GiB", b as f64 / (1024.0 * 1024.0 * 1024.0))
        } else if b >= 1024 * 1024 {
            write!(f, "{:.2} MiB", b as f64 / (1024.0 * 1024.0))
        } else if b >= 1024 {
            write!(f, "{:.2} KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b} B")
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl Div<BytesPerSec> for Bytes {
    type Output = Secs;
    /// Transfer time: `size / rate`.
    #[inline]
    fn div(self, rate: BytesPerSec) -> Secs {
        debug_assert!(rate.0 > 0.0, "transfer rate must be positive");
        Secs(self.0 as f64 / rate.0)
    }
}

/// A duration in seconds (latency, overhead, response time).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Secs(pub f64);

impl Secs {
    /// Zero seconds.
    pub const ZERO: Secs = Secs(0.0);

    /// Raw seconds value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The larger of two durations — Eq. 5's `max` of the parallel streams.
    #[inline]
    pub fn max(self, other: Secs) -> Secs {
        Secs(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Secs) -> Secs {
        Secs(self.0.min(other.0))
    }

    /// Whether this duration is finite and non-negative — a sanity check
    /// applied after perturbation.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl fmt::Debug for Secs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}s", self.0)
    }
}

impl fmt::Display for Secs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}s", self.0)
    }
}

impl Add for Secs {
    type Output = Secs;
    #[inline]
    fn add(self, rhs: Secs) -> Secs {
        Secs(self.0 + rhs.0)
    }
}

impl AddAssign for Secs {
    #[inline]
    fn add_assign(&mut self, rhs: Secs) {
        self.0 += rhs.0;
    }
}

impl Sub for Secs {
    type Output = Secs;
    #[inline]
    fn sub(self, rhs: Secs) -> Secs {
        Secs(self.0 - rhs.0)
    }
}

impl SubAssign for Secs {
    #[inline]
    fn sub_assign(&mut self, rhs: Secs) {
        self.0 -= rhs.0;
    }
}

impl Neg for Secs {
    type Output = Secs;
    #[inline]
    fn neg(self) -> Secs {
        Secs(-self.0)
    }
}

impl Mul<f64> for Secs {
    type Output = Secs;
    #[inline]
    fn mul(self, rhs: f64) -> Secs {
        Secs(self.0 * rhs)
    }
}

impl Mul<Secs> for f64 {
    type Output = Secs;
    #[inline]
    fn mul(self, rhs: Secs) -> Secs {
        Secs(self * rhs.0)
    }
}

impl Div<f64> for Secs {
    type Output = Secs;
    #[inline]
    fn div(self, rhs: f64) -> Secs {
        Secs(self.0 / rhs)
    }
}

impl Sum for Secs {
    fn sum<I: Iterator<Item = Secs>>(iter: I) -> Secs {
        Secs(iter.map(|s| s.0).sum())
    }
}

/// A data transfer rate in bytes per second.
///
/// Table 1's "3 Kbytes/sec - 10 Kbytes/sec" local rates and
/// "0.3 - 2 Kbytes/sec" repository rates are constructed via
/// [`BytesPerSec::kib_per_sec`].
#[derive(Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct BytesPerSec(pub f64);

impl BytesPerSec {
    /// `n` KiB per second.
    #[inline]
    pub fn kib_per_sec(n: f64) -> Self {
        BytesPerSec(n * 1024.0)
    }

    /// Raw bytes-per-second value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Scales the rate by `factor` (perturbation model, Section 5.1).
    #[inline]
    pub fn scale(self, factor: f64) -> Self {
        BytesPerSec(self.0 * factor)
    }

    /// Whether the rate is usable (finite and strictly positive).
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 > 0.0
    }
}

impl fmt::Debug for BytesPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} B/s", self.0)
    }
}

impl fmt::Display for BytesPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} KiB/s", self.0 / 1024.0)
    }
}

/// HTTP requests per second — page access frequencies `f(W_j)` and
/// processing capacities `C(S_i)`, `C(R)`.
///
/// Serialization note: capacities can legitimately be infinite (Table 1
/// sets the repository's to "Infinite"), and JSON has no `Infinity`
/// literal, so the serde impls encode infinity as the string `"inf"`.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct ReqPerSec(pub f64);

impl Serialize for ReqPerSec {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        if self.0.is_infinite() && self.0 > 0.0 {
            s.serialize_str("inf")
        } else {
            s.serialize_f64(self.0)
        }
    }
}

impl<'de> Deserialize<'de> for ReqPerSec {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl serde::de::Visitor<'_> for V {
            type Value = ReqPerSec;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a number or the string \"inf\"")
            }
            fn visit_f64<E: serde::de::Error>(self, v: f64) -> Result<ReqPerSec, E> {
                Ok(ReqPerSec(v))
            }
            fn visit_u64<E: serde::de::Error>(self, v: u64) -> Result<ReqPerSec, E> {
                Ok(ReqPerSec(v as f64))
            }
            fn visit_i64<E: serde::de::Error>(self, v: i64) -> Result<ReqPerSec, E> {
                Ok(ReqPerSec(v as f64))
            }
            fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<ReqPerSec, E> {
                match v {
                    "inf" => Ok(ReqPerSec::INFINITE),
                    _ => Err(E::custom(format!("unexpected rate string {v:?}"))),
                }
            }
            fn visit_unit<E: serde::de::Error>(self) -> Result<ReqPerSec, E> {
                // Tolerate `null` from encoders that map infinity there.
                Ok(ReqPerSec::INFINITE)
            }
        }
        d.deserialize_any(V)
    }
}

impl ReqPerSec {
    /// Zero requests per second.
    pub const ZERO: ReqPerSec = ReqPerSec(0.0);

    /// Unbounded capacity — Table 1 sets the repository's processing
    /// capacity to "Infinite".
    pub const INFINITE: ReqPerSec = ReqPerSec(f64::INFINITY);

    /// Raw value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Scales by `factor` (capacity sweeps).
    #[inline]
    pub fn scale(self, factor: f64) -> Self {
        ReqPerSec(self.0 * factor)
    }

    /// `max(self - rhs, 0)` — remaining headroom.
    #[inline]
    pub fn headroom(self, used: ReqPerSec) -> ReqPerSec {
        ReqPerSec((self.0 - used.0).max(0.0))
    }
}

impl fmt::Debug for ReqPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} req/s", self.0)
    }
}

impl fmt::Display for ReqPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} req/s", self.0)
    }
}

impl Add for ReqPerSec {
    type Output = ReqPerSec;
    #[inline]
    fn add(self, rhs: ReqPerSec) -> ReqPerSec {
        ReqPerSec(self.0 + rhs.0)
    }
}

impl AddAssign for ReqPerSec {
    #[inline]
    fn add_assign(&mut self, rhs: ReqPerSec) {
        self.0 += rhs.0;
    }
}

impl Sub for ReqPerSec {
    type Output = ReqPerSec;
    #[inline]
    fn sub(self, rhs: ReqPerSec) -> ReqPerSec {
        ReqPerSec(self.0 - rhs.0)
    }
}

impl Sum for ReqPerSec {
    fn sum<I: Iterator<Item = ReqPerSec>>(iter: I) -> ReqPerSec {
        ReqPerSec(iter.map(|r| r.0).sum())
    }
}

impl Mul<f64> for ReqPerSec {
    type Output = ReqPerSec;
    #[inline]
    fn mul(self, rhs: f64) -> ReqPerSec {
        ReqPerSec(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::kib(1).get(), 1024);
        assert_eq!(Bytes::mib(1).get(), 1024 * 1024);
        assert_eq!(Bytes::gib(1).get(), 1024 * 1024 * 1024);
    }

    #[test]
    fn bytes_arithmetic() {
        let a = Bytes(100);
        let b = Bytes(40);
        assert_eq!(a + b, Bytes(140));
        assert_eq!(a - b, Bytes(60));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        assert_eq!(vec![a, b].into_iter().sum::<Bytes>(), Bytes(140));
    }

    #[test]
    fn bytes_scale_rounds() {
        assert_eq!(Bytes(1000).scale(0.5), Bytes(500));
        assert_eq!(Bytes(3).scale(0.5), Bytes(2)); // 1.5 rounds to 2
        assert_eq!(Bytes(1000).scale(0.0), Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn bytes_scale_rejects_negative() {
        let _ = Bytes(10).scale(-0.1);
    }

    #[test]
    fn transfer_time_is_size_over_rate() {
        let t = Bytes(2048) / BytesPerSec::kib_per_sec(1.0);
        assert!((t.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn secs_max_matches_eq5() {
        let local = Secs(3.5);
        let remote = Secs(7.25);
        assert_eq!(local.max(remote), remote);
        assert_eq!(remote.max(local), remote);
        assert_eq!(local.min(remote), local);
    }

    #[test]
    fn secs_arithmetic() {
        let mut t = Secs(1.0);
        t += Secs(0.5);
        assert_eq!(t, Secs(1.5));
        t -= Secs(0.25);
        assert_eq!(t, Secs(1.25));
        assert_eq!(t * 2.0, Secs(2.5));
        assert_eq!(2.0 * t, Secs(2.5));
        assert_eq!(t / 2.0, Secs(0.625));
        assert_eq!(-t, Secs(-1.25));
    }

    #[test]
    fn secs_validity() {
        assert!(Secs(0.0).is_valid());
        assert!(Secs(12.0).is_valid());
        assert!(!Secs(-1.0).is_valid());
        assert!(!Secs(f64::NAN).is_valid());
        assert!(!Secs(f64::INFINITY).is_valid());
    }

    #[test]
    fn rate_scale_and_validity() {
        let r = BytesPerSec::kib_per_sec(10.0);
        assert!((r.scale(0.5).get() - 5.0 * 1024.0).abs() < 1e-9);
        assert!(r.is_valid());
        assert!(!BytesPerSec(0.0).is_valid());
        assert!(!BytesPerSec(f64::NAN).is_valid());
    }

    #[test]
    fn req_per_sec_headroom_clamps_at_zero() {
        let cap = ReqPerSec(150.0);
        assert_eq!(cap.headroom(ReqPerSec(100.0)), ReqPerSec(50.0));
        assert_eq!(cap.headroom(ReqPerSec(200.0)), ReqPerSec::ZERO);
    }

    #[test]
    fn req_per_sec_infinite_capacity() {
        let cap = ReqPerSec::INFINITE;
        assert_eq!(cap.headroom(ReqPerSec(1e12)), ReqPerSec::INFINITE);
    }

    #[test]
    fn req_per_sec_serde_handles_infinity() {
        let json = serde_json::to_string(&ReqPerSec::INFINITE).unwrap();
        assert_eq!(json, "\"inf\"");
        let back: ReqPerSec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ReqPerSec::INFINITE);

        let json = serde_json::to_string(&ReqPerSec(150.0)).unwrap();
        let back: ReqPerSec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ReqPerSec(150.0));

        // Integer literals and nulls also deserialize.
        assert_eq!(
            serde_json::from_str::<ReqPerSec>("150").unwrap(),
            ReqPerSec(150.0)
        );
        assert_eq!(
            serde_json::from_str::<ReqPerSec>("null").unwrap(),
            ReqPerSec::INFINITE
        );
        assert!(serde_json::from_str::<ReqPerSec>("\"fast\"").is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bytes(512)), "512 B");
        assert_eq!(format!("{}", Bytes::kib(2)), "2.00 KiB");
        assert_eq!(format!("{}", Bytes::mib(3)), "3.00 MiB");
        assert_eq!(format!("{}", Bytes::gib(2)), "2.00 GiB");
        assert_eq!(format!("{}", Secs(1.5)), "1.5000s");
        assert_eq!(format!("{}", BytesPerSec::kib_per_sec(3.0)), "3.00 KiB/s");
    }
}
