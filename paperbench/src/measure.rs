//! Host measurements: wall and CPU clocks, peak memory, order
//! statistics, the benchmark's own spans and the metric table.

use std::collections::BTreeMap;

use gvc_telemetry::Stopwatch;

/// Process CPU time (user + system, every thread the process has run,
/// finished ones included), in seconds, from the C library's
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, which resolves
/// nanoseconds where `/proc/self/stat` counts 10 ms ticks.
///
/// `gvc-telemetry` has no CPU clock, so this one read lives here.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> Option<f64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec`.
    let ok = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) == 0 };
    ok.then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Process CPU time; no reader on this system.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> Option<f64> {
    None
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    gvc_telemetry::perf::peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}

/// Wall and CPU time of one measured call.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Host seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

/// A running wall + CPU meter.
pub struct Meter {
    wall: Stopwatch,
    cpu0: f64,
}

impl Meter {
    /// Starts both clocks.
    pub fn start() -> Meter {
        Meter { cpu0: cpu_seconds().unwrap_or(0.0), wall: Stopwatch::start() }
    }

    /// Reads both clocks.
    pub fn stop(&self) -> Cost {
        let wall_s = self.wall.elapsed_s();
        Cost { wall_s, cpu_s: cpu_seconds().unwrap_or(0.0) - self.cpu0 }
    }
}

/// The `q`-quantile of `values` (nearest rank on the sorted values);
/// `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * (v.len() - 1) as f64).round() as usize;
    Some(v[rank.min(v.len() - 1)])
}

/// The median of `values` (mean of the two middle values when even);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The benchmark's own spans around calls into the crates under test.
/// Off, a span is a plain call and reads no clock, which is how every
/// end-to-end metric is measured. On, each named span adds its wall
/// seconds to a per-name total.
pub struct Spans {
    totals: Option<BTreeMap<String, f64>>,
}

impl Spans {
    /// Spans that only call through.
    pub fn off() -> Spans {
        Spans { totals: None }
    }

    /// Spans that time each call.
    pub fn on() -> Spans {
        Spans { totals: Some(BTreeMap::new()) }
    }

    /// Runs `f` inside the span `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let Some(totals) = self.totals.as_mut() else {
            return f();
        };
        let sw = Stopwatch::start();
        let out = f();
        *totals.entry(name.to_owned()).or_insert(0.0) += sw.elapsed_s();
        out
    }

    /// Total seconds spent in `name` (`None` when spans are off or the
    /// span never ran).
    pub fn total(&self, name: &str) -> Option<f64> {
        self.totals.as_ref()?.get(name).copied()
    }
}

/// Metric name → (value, unit), printed in name order.
#[derive(Default)]
pub struct Metrics {
    map: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Sets a metric, replacing any earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.map.insert(name.into(), (value, unit));
    }

    /// Whether `name` has been set.
    pub fn has(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.map.get(name).map(|&(v, _)| v)
    }

    /// Every metric in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.map.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }

    /// The `metrics` object of the result line. Non-finite values
    /// become `null`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { format!("{v}") } else { "null".to_owned() };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 0.5), Some(50.0));
    }

    #[test]
    fn spans_off_read_no_clock() {
        let mut s = Spans::off();
        assert_eq!(s.time("x", || 7), 7);
        assert_eq!(s.total("x"), None);
        let mut s = Spans::on();
        s.time("x", || ());
        s.time("x", || ());
        assert!(s.total("x").is_some_and(|t| t >= 0.0));
    }

    #[test]
    fn clocks_read_on_linux() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mb().is_some_and(|m| m > 0.0));
    }
}
