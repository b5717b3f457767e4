//! Order statistics over timing samples and the peak-RSS probe.

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it. With 50 samples, `p = 0.8` picks the 40th
/// smallest, leaving exactly 10 samples beyond it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
    let mut xs = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.max(1) - 1]
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `VmHWM` (peak resident set size) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident set size, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p80_of_fifty_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        let p80 = percentile(&xs, 0.8);
        assert_eq!(p80, 40.0);
        assert_eq!(xs.iter().filter(|&&x| x > p80).count(), 10);
        assert_eq!(median(&xs), 25.0);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[3.0], 0.8), 3.0);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
        assert_eq!(percentile(&[2.0, 1.0, 3.0], 0.0), 1.0);
        assert_eq!(percentile(&[2.0, 1.0, 3.0], 1.0), 3.0);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tmmrepl-perfbench\nVmPeak:\t  912340 kB\n\
                      VmHWM:\t  523776 kB\nVmRSS:\t  401232 kB\nThreads:\t2\n";
        assert_eq!(vm_hwm_kib(status), Some(523_776));
        assert_eq!(vm_hwm_kib("VmRSS:\t 12 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t twelve kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }
}
