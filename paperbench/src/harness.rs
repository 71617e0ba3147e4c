//! The end-to-end measurement loop and the ledger of operations and
//! checks that feeds `attempted`, `failed` and `ops_failed_frac`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gvc_telemetry::Stopwatch;

use crate::hostspeed::{scale, watched_cpus, Pinned, SpeedProbe};
use crate::measure::{median, peak_rss_mb, Metrics, Spans};
use crate::workloads::{
    input_seed, prepare, recorded_digest, run, Prepared, Run, Sizes, Workload, INPUTS_PER_SEED,
};

/// A preparation shorter than this is repeated in a batch that lasts
/// at least this long, so that a set-up of nanoseconds is timed as
/// steadily as one of milliseconds.
const SETUP_BATCH_S: f64 = 0.02;

/// Operations attempted and failed. An operation is one workload run
/// or one check of its outputs.
#[derive(Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, panicked or failed their check.
    pub failed: u64,
    /// What failed, in order.
    pub failures: Vec<String>,
    /// First digest seen per run kind; later runs must repeat it.
    digests: BTreeMap<String, u64>,
}

impl Ledger {
    /// Counts one operation.
    pub fn op(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_owned());
        }
    }

    /// Counts a run and its checks: each named check, the digest
    /// repeating every earlier run of the same `kind`, and the digest
    /// matching the recorded value when one is recorded.
    pub fn run(&mut self, kind: &str, r: &Run, expected: Option<u64>) {
        self.op(&format!("{kind}: run"), true);
        for (name, ok) in &r.checks {
            self.op(&format!("{kind}: {name}"), *ok);
        }
        let first = *self.digests.entry(kind.to_owned()).or_insert(r.digest);
        self.op(&format!("{kind}: digest repeats across runs"), first == r.digest);
        if let Some(want) = expected {
            self.op(
                &format!("{kind}: digest {:#018x} is the recorded {want:#018x}", r.digest),
                r.digest == want,
            );
        }
    }

    /// Runs `f`, counting a panic as a failed operation.
    pub fn guard<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        let out = catch_unwind(AssertUnwindSafe(f)).ok();
        if out.is_none() {
            self.op(&format!("{what}: panicked"), false);
        }
        out
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What a measurement produced.
pub struct Outcome {
    /// Metrics by name.
    pub metrics: Metrics,
    /// Operations and checks.
    pub ledger: Ledger,
    /// Workload runs timed.
    pub runs: usize,
    /// Digest of the last workload run (for recording).
    pub digest: Option<u64>,
    /// End-to-end runs only: the median wall seconds as measured, and
    /// the median factor the host-speed probe scaled the times by.
    pub host: Option<(f64, f64)>,
}

/// Prepares `w` on the input made from `seed` and times it. A
/// preparation shorter than [`SETUP_BATCH_S`] is repeated in batches of
/// 2, 4, 8, … until one batch lasts that long. Returns the last
/// preparation and the seconds per preparation of the last batch.
fn timed_prepare(w: Workload, sizes: Sizes, seed: u64) -> (Result<Prepared, String>, f64) {
    let mut reps = 1u32;
    loop {
        let sw = Stopwatch::start();
        let mut prepared = prepare(w, sizes, seed);
        for _ in 1..reps {
            drop(std::hint::black_box(prepared));
            prepared = prepare(w, sizes, seed);
        }
        let s = sw.elapsed_s();
        if s >= SETUP_BATCH_S || prepared.is_err() {
            return (prepared, s / f64::from(reps));
        }
        reps *= 2;
    }
}

/// One workload run as measured: its preparation, its cost, and the
/// interval on the probe's clock that both took.
struct Sample {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    transfers: u64,
    from_s: f64,
    to_s: f64,
}

/// Measures `w` end to end with the benchmark's spans off. A workload
/// that runs on one thread is pinned to one CPU and probed there;
/// `paper-repro` keeps every CPU and is probed on each. It then
/// prepares and runs the seed's inputs in turn until `seconds` have
/// passed (at least once). Each run's times are scaled by the
/// host-speed probe (see [`crate::hostspeed`]) and the medians are
/// reported. Every run is checked.
pub fn end_to_end(w: Workload, sizes: Sizes, seed: u64, seconds: f64) -> Outcome {
    let pinned = w.one_thread().then(Pinned::first);
    let cpus = match pinned.as_ref().and_then(|p| p.cpu) {
        Some(cpu) => vec![cpu],
        None => watched_cpus(),
    };
    let probe = SpeedProbe::start(&cpus);
    let mut ledger = Ledger::default();
    let mut samples = vec![];
    let mut digest = None;
    let clock = Stopwatch::start();
    for i in 0.. {
        let input = input_seed(seed, i);
        let from_s = probe.now();
        let (prepared, setup_s) = match ledger.guard("prepare", || timed_prepare(w, sizes, input)) {
            Some((Ok(p), setup_s)) => (p, setup_s),
            Some((Err(e), _)) => {
                ledger.op(&format!("prepare: {e}"), false);
                break;
            }
            None => break,
        };
        let Some(r) = ledger.guard(w.name(), || run(prepared, sizes, &mut Spans::off())) else {
            break;
        };
        let to_s = probe.now();
        let expected = recorded_digest(w, sizes, input);
        ledger.run(&format!("{} input {}", w.name(), i % INPUTS_PER_SEED), &r, expected);
        samples.push(Sample {
            setup_s,
            wall_s: r.cost.wall_s,
            cpu_s: r.cost.cpu_s,
            transfers: r.transfers,
            from_s,
            to_s,
        });
        digest = Some(r.digest);
        if clock.elapsed_s() >= seconds {
            break;
        }
    }
    let readings = probe.stop();
    drop(pinned);

    let (mut setups, mut walls, mut cpus, mut rates, mut scales) =
        (vec![], vec![], vec![], vec![], vec![]);
    for s in &samples {
        let k = scale(&readings, s.from_s, s.to_s).unwrap_or(f64::NAN);
        setups.push(s.setup_s * k);
        walls.push(s.wall_s * k);
        cpus.push(s.cpu_s * k);
        rates.push(s.transfers as f64 / (s.wall_s * k));
        scales.push(k);
    }
    let mut metrics = Metrics::default();
    let nan = f64::NAN;
    metrics.set("wall_s", median(&walls).unwrap_or(nan), "s");
    metrics.set("cpu_s", median(&cpus).unwrap_or(nan), "s");
    metrics.set("transfers_per_s", median(&rates).unwrap_or(nan), "1/s");
    metrics.set("peak_rss_mb", peak_rss_mb().unwrap_or(nan), "MB");
    metrics.set("setup_s", median(&setups).unwrap_or(nan), "s");
    let raw_wall_s = median(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    Outcome { metrics, ledger, runs: samples.len(), digest, host: raw_wall_s.zip(median(&scales)) }
}
