//! The host-speed probe that the end-to-end times are scaled by.
//!
//! The benchmark host is a shared VM. For seconds to minutes at a
//! time, other tenants' load makes its vCPUs run the program up to 1.5
//! times slower, and process CPU time stretches with wall time, so
//! neither clock alone tells a slower program from a busier host. A
//! fixed, program-independent piece of work — the probe — runs for
//! about 0.2 ms every [`PROBE_PAUSE`] on each CPU the measured thread
//! runs on, and each run's times are scaled by the probe's median
//! round during that run. The probe's work is branchy ordered-map
//! churn with float division, like the simulator's event and solver
//! loops, so it slows down with the host much as the program does. No
//! change to the program changes the probe, so a program regression
//! shows in full.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gvc_telemetry::Stopwatch;

use crate::measure::median;

/// Probe seconds on the reference host. A scaled figure is the
/// measured one times `REFERENCE_PROBE_S` over the probe's median
/// round in the same interval: seconds on a host where one probe round
/// takes exactly 0.2 ms.
pub const REFERENCE_PROBE_S: f64 = 2e-4;

/// Pause between two probe rounds on one CPU. With a round of about
/// 0.2 ms the probe takes about 2 % of each CPU it watches.
pub const PROBE_PAUSE: Duration = Duration::from_millis(10);

/// One round of the probe's fixed work: ordered-map inserts, range
/// lookups and removals on pseudo-random keys, with a float division
/// per lookup. Returns a checksum so the work cannot be optimised
/// away.
pub fn probe_round() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map = std::collections::BTreeMap::new();
    let mut acc = 0.0f64;
    for i in 0..1_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, i);
        if let Some((_, v)) = map.range(x % 3000..).next() {
            acc += (*v as f64 + 1.0) / ((x % 97) as f64 + 1.5);
        }
        if i % 3 == 0 {
            map.remove(&((x % 4096) ^ 5));
        }
    }
    acc.to_bits() ^ map.len() as u64
}

/// One probe round: when it started and how long it took, in seconds
/// on the probe's clock.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Start, in seconds since the probe started.
    pub at_s: f64,
    /// Duration of the round.
    pub busy_s: f64,
}

/// Probe threads, one pinned to each watched CPU, sharing one clock.
pub struct SpeedProbe {
    clock: Arc<Stopwatch>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Vec<Reading>>>,
}

impl SpeedProbe {
    /// Starts one probe thread per CPU in `cpus` (one unpinned thread
    /// when `cpus` is empty). Each records at least one reading.
    pub fn start(cpus: &[usize]) -> SpeedProbe {
        let clock = Arc::new(Stopwatch::start());
        let stop = Arc::new(AtomicBool::new(false));
        let pins: Vec<Option<usize>> =
            if cpus.is_empty() { vec![None] } else { cpus.iter().copied().map(Some).collect() };
        let threads = pins
            .into_iter()
            .map(|cpu| {
                let (clock, stop) = (Arc::clone(&clock), Arc::clone(&stop));
                std::thread::spawn(move || {
                    if let Some(cpu) = cpu {
                        affinity::pin_current(&[cpu]);
                    }
                    let mut readings = Vec::new();
                    loop {
                        let at_s = clock.elapsed_s();
                        std::hint::black_box(probe_round());
                        readings.push(Reading { at_s, busy_s: clock.elapsed_s() - at_s });
                        // The flag publishes nothing; the readings come back
                        // through `join`.
                        if stop.load(Ordering::Relaxed) {
                            return readings;
                        }
                        std::thread::sleep(PROBE_PAUSE);
                    }
                })
            })
            .collect();
        SpeedProbe { clock, stop, threads }
    }

    /// Seconds on the probe's clock, for marking intervals.
    pub fn now(&self) -> f64 {
        self.clock.elapsed_s()
    }

    /// Stops every probe thread, waits for each, and returns all their
    /// readings.
    pub fn stop(self) -> Vec<Reading> {
        self.stop.store(true, Ordering::Relaxed);
        self.threads
            .into_iter()
            .flat_map(|t| t.join().expect("a probe round does not panic"))
            .collect()
    }
}

/// The factor that scales a time measured over `[from_s, to_s]` to the
/// reference host: [`REFERENCE_PROBE_S`] over the median probe round
/// that started in the interval, or over the median of all rounds
/// when none did. The median, because a round that the measured
/// thread preempts reads long. `None` without readings.
pub fn scale(readings: &[Reading], from_s: f64, to_s: f64) -> Option<f64> {
    let inside: Vec<f64> =
        readings.iter().filter(|r| r.at_s >= from_s && r.at_s <= to_s).map(|r| r.busy_s).collect();
    let busy = if inside.is_empty() {
        median(&readings.iter().map(|r| r.busy_s).collect::<Vec<_>>())
    } else {
        median(&inside)
    };
    busy.filter(|b| *b > 0.0).map(|b| REFERENCE_PROBE_S / b)
}

/// Thread CPU affinity through the C library's `sched_*affinity`
/// calls, which `std` does not wrap.
pub mod affinity {
    /// Words in the kernel's default `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    /// A CPU mask.
    pub type Mask = [u64; WORDS];

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask, if the system reports one.
    pub fn current() -> Option<Mask> {
        let mut mask = [0u64; WORDS];
        #[cfg(target_os = "linux")]
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) == 0 };
        #[cfg(not(target_os = "linux"))]
        let ok = false;
        ok.then_some(mask)
    }

    /// Restricts the calling thread to `mask`. Returns whether the
    /// system accepted it.
    pub fn set_current(mask: &Mask) -> bool {
        #[cfg(target_os = "linux")]
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        return unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 };
        #[cfg(not(target_os = "linux"))]
        {
            let _ = mask;
            false
        }
    }

    /// The CPUs in `mask`, in order.
    pub fn cpus(mask: &Mask) -> Vec<usize> {
        (0..WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Restricts the calling thread to `cpus`. Returns whether the
    /// system accepted it.
    pub fn pin_current(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        set_current(&mask)
    }
}

/// The CPUs the calling thread may run on, at most [`MAX_WATCHED`]
/// of them (empty when the system does not say).
pub fn watched_cpus() -> Vec<usize> {
    affinity::current()
        .map(|m| affinity::cpus(&m).into_iter().take(MAX_WATCHED).collect())
        .unwrap_or_default()
}

/// The most CPUs the probe watches, so that on a large host it stays a
/// small load.
pub const MAX_WATCHED: usize = 4;

/// The calling thread pinned to the first CPU it may run on; dropping
/// it restores the mask the thread had.
pub struct Pinned {
    /// The CPU the thread now runs on (`None` when pinning failed).
    pub cpu: Option<usize>,
    old: Option<affinity::Mask>,
}

impl Pinned {
    /// Pins the calling thread to the first CPU it may run on.
    pub fn first() -> Pinned {
        let old = affinity::current();
        let first = old.as_ref().and_then(|m| affinity::cpus(m).first().copied());
        let cpu = first.filter(|&c| affinity::pin_current(&[c]));
        Pinned { cpu, old }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(old) = &self.old {
            affinity::set_current(old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_rounds_inside_the_interval() {
        let r = |at_s, busy_s| Reading { at_s, busy_s };
        let readings = [r(0.0, 4e-3), r(1.0, 2e-3), r(2.0, 2e-3), r(2.5, 9e-3), r(3.0, 4e-3)];
        assert_eq!(scale(&readings, 0.5, 2.0), Some(REFERENCE_PROBE_S / 2e-3));
        assert_eq!(scale(&readings, 5.0, 6.0), Some(REFERENCE_PROBE_S / 4e-3));
        assert_eq!(scale(&[], 0.0, 1.0), None);
    }

    #[test]
    fn every_probe_thread_reads_and_stops() {
        let cpus = watched_cpus();
        assert!(cpus.len() <= MAX_WATCHED);
        let readings = SpeedProbe::start(&cpus).stop();
        assert!(readings.len() >= cpus.len().max(1));
        assert!(readings.iter().all(|r| r.busy_s > 0.0));
    }

    #[test]
    fn pinning_restores_the_old_mask() {
        let before = affinity::current();
        {
            let p = Pinned::first();
            assert_eq!(p.cpu.is_some(), before.is_some());
            if let Some(cpu) = p.cpu {
                assert_eq!(affinity::current().map(|m| affinity::cpus(&m)), Some(vec![cpu]));
            }
        }
        assert_eq!(affinity::current(), before);
    }
}
