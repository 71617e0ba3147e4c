//! SNMP interface byte-count series.
//!
//! §VII-C: "ESnet configures its routers to collect byte counts
//! (incoming and outgoing) on all interfaces on a 30 second basis."
//! [`SnmpSeries`] is one interface's counter series: consecutive
//! fixed-width bins, each holding the bytes that egressed during that
//! bin. The analysis side (gvc-core) applies the paper's Eq. 1 to
//! prorate partial head/tail bins over a transfer's interval.

/// One 30-second (or configurable) bin of an interface counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnmpSample {
    /// Bin start, microseconds since the unix epoch.
    pub bin_start_us: i64,
    /// Bytes egressed during the bin.
    pub bytes: u64,
}

/// A contiguous per-interface counter series with a fixed bin width.
#[derive(Debug, Clone, PartialEq)]
pub struct SnmpSeries {
    /// Interface label, e.g. `"sunn-cr->denv-cr"`.
    pub interface: String,
    /// Bin width in microseconds (30 s = 30 000 000 in the study).
    pub bin_width_us: i64,
    /// First bin start, microseconds since the unix epoch.
    pub origin_us: i64,
    bins: Vec<u64>,
}

impl SnmpSeries {
    /// Creates an empty series starting at `origin_us`.
    ///
    /// # Panics
    /// Panics on a non-positive bin width.
    pub fn new(interface: &str, origin_us: i64, bin_width_us: i64) -> SnmpSeries {
        assert!(bin_width_us > 0, "bin width must be positive");
        SnmpSeries { interface: interface.to_owned(), bin_width_us, origin_us, bins: Vec::new() }
    }

    /// The conventional 30-second series.
    pub fn thirty_second(interface: &str, origin_us: i64) -> SnmpSeries {
        SnmpSeries::new(interface, origin_us, 30_000_000)
    }

    /// Number of bins recorded.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when no bins recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Bin index covering instant `t_us`, or `None` before the origin.
    /// (Indices beyond the recorded range are valid — they address
    /// zero-filled future bins.)
    pub fn bin_index(&self, t_us: i64) -> Option<usize> {
        if t_us < self.origin_us {
            return None;
        }
        Some(((t_us - self.origin_us) / self.bin_width_us) as usize)
    }

    /// Start instant of bin `i`.
    pub fn bin_start(&self, i: usize) -> i64 {
        self.origin_us + self.bin_width_us * i as i64
    }

    /// Adds `bytes` to the bin covering `t_us`, growing the series as
    /// needed. Instants before the origin are ignored (counted as
    /// pre-monitoring traffic).
    pub fn add_bytes(&mut self, t_us: i64, bytes: u64) {
        if let Some(i) = self.bin_index(t_us) {
            if i >= self.bins.len() {
                self.bins.resize(i + 1, 0);
            }
            self.bins[i] += bytes;
        }
    }

    /// Spreads `bytes` uniformly over `[start_us, end_us)`, splitting
    /// across bin boundaries pro rata — how a fluid flow deposits bytes
    /// into counters. Remainder bytes from integer division go to the
    /// final touched bin so totals are exact.
    pub fn add_interval(&mut self, start_us: i64, end_us: i64, bytes: u64) {
        if end_us <= start_us || bytes == 0 {
            if bytes > 0 {
                self.add_bytes(start_us, bytes); // instantaneous burst
            }
            return;
        }
        let total_span = (end_us - start_us) as f64;
        let mut t = start_us;
        let mut deposited: u64 = 0;
        while t < end_us {
            let bin_end = match self.bin_index(t.max(self.origin_us)) {
                Some(i) => self.bin_start(i) + self.bin_width_us,
                None => self.origin_us, // fast-forward to monitoring start
            };
            let seg_end = bin_end.min(end_us);
            if t >= self.origin_us {
                let frac = (seg_end - t) as f64 / total_span;
                let share = if seg_end == end_us {
                    bytes - deposited // exact remainder
                } else {
                    (bytes as f64 * frac).floor() as u64
                };
                self.add_bytes(t, share);
                deposited += share;
            }
            t = seg_end;
        }
    }

    /// Bytes recorded in bin `i` (0 for unrecorded bins).
    pub fn bytes_in_bin(&self, i: usize) -> u64 {
        self.bins.get(i).copied().unwrap_or(0)
    }

    /// The `(bin_start_us, bytes)` samples whose bins overlap
    /// `[start_us, end_us)` — the raw material for the paper's Eq. 1.
    pub fn samples_overlapping(&self, start_us: i64, end_us: i64) -> Vec<SnmpSample> {
        if end_us <= start_us {
            return Vec::new();
        }
        let first = self.bin_index(start_us.max(self.origin_us)).unwrap_or(0);
        let mut out = Vec::new();
        let mut i = first;
        while self.bin_start(i) < end_us {
            out.push(SnmpSample { bin_start_us: self.bin_start(i), bytes: self.bytes_in_bin(i) });
            i += 1;
        }
        out
    }

    /// Total bytes across all bins.
    pub fn total_bytes(&self) -> u64 {
        self.bins.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_bytes_lands_in_right_bin() {
        let mut s = SnmpSeries::thirty_second("if0", 0);
        s.add_bytes(0, 10);
        s.add_bytes(29_999_999, 5);
        s.add_bytes(30_000_000, 7);
        assert_eq!(s.bytes_in_bin(0), 15);
        assert_eq!(s.bytes_in_bin(1), 7);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn pre_origin_ignored() {
        let mut s = SnmpSeries::thirty_second("if0", 1_000_000_000);
        s.add_bytes(0, 99);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.bin_index(0), None);
    }

    #[test]
    fn interval_split_is_pro_rata_and_exact() {
        let mut s = SnmpSeries::new("if0", 0, 10);
        // 100 bytes over [5, 25): 5 us in bin0, 10 in bin1, 5 in bin2.
        s.add_interval(5, 25, 100);
        assert_eq!(s.bytes_in_bin(0), 25);
        assert_eq!(s.bytes_in_bin(1), 50);
        assert_eq!(s.bytes_in_bin(2), 25);
        assert_eq!(s.total_bytes(), 100);
    }

    #[test]
    fn interval_degenerate_burst() {
        let mut s = SnmpSeries::new("if0", 0, 10);
        s.add_interval(7, 7, 42);
        assert_eq!(s.bytes_in_bin(0), 42);
    }

    #[test]
    fn samples_overlapping_covers_partial_bins() {
        let mut s = SnmpSeries::new("if0", 0, 10);
        s.add_interval(0, 40, 400);
        let v = s.samples_overlapping(15, 35);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].bin_start_us, 10);
        assert_eq!(v[2].bin_start_us, 30);
    }

    #[test]
    fn samples_overlapping_empty_interval() {
        let s = SnmpSeries::new("if0", 0, 10);
        assert!(s.samples_overlapping(5, 5).is_empty());
        assert!(s.samples_overlapping(10, 5).is_empty());
    }

    #[test]
    fn overlap_extends_past_recorded_bins_with_zeros() {
        let mut s = SnmpSeries::new("if0", 0, 10);
        s.add_bytes(0, 1);
        let v = s.samples_overlapping(0, 35);
        assert_eq!(v.len(), 4);
        assert_eq!(v[1].bytes, 0);
    }

    proptest! {
        /// add_interval conserves bytes regardless of alignment.
        #[test]
        fn prop_interval_conserves_bytes(
            start in 0i64..1000,
            len in 1i64..500,
            bytes in 0u64..1_000_000,
            width in 1i64..50,
        ) {
            let mut s = SnmpSeries::new("if0", 0, width);
            s.add_interval(start, start + len, bytes);
            prop_assert_eq!(s.total_bytes(), bytes);
        }
    }
}
