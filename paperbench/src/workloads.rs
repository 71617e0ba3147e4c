//! The three workloads. Each prepares its inputs from the seed, makes
//! one timed call sequence into the crates under test, and checks what
//! came out.
//!
//! * `slac-bulk` — the calibrated SLAC–BNL generator, then the
//!   `gvc generate` → `gvc sweep` path in memory. Solver-bound; no IDC,
//!   telemetry or SNMP monitoring attached.
//! * `vc-reserve` — a steady synthetic mix in which every session asks
//!   the IDC for a circuit, run with the observability
//!   `gvc scenario run` attaches. The only workload where `gvc-oscars`
//!   and `gvc-telemetry` carry the load.
//! * `paper-repro` — `repro --full all`: the four path generators
//!   joined, then every experiment renderer.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use gvc_bench::{run_experiment, Scale, Scenarios, EXPERIMENT_IDS};
use gvc_core::report::{feasibility_report, PAPER_GAPS_S, PAPER_SETUP_DELAYS_S};
use gvc_core::sweep::SessionStore;
use gvc_core::vc_suitability::DEFAULT_OVERHEAD_FACTOR;
use gvc_engine::SimTime;
use gvc_gridftp::driver::Driver;
use gvc_gridftp::ServerCaps;
use gvc_logs::{parse_dataset, write_dataset, Dataset};
use gvc_net::NetworkSim;
use gvc_oscars::{Idc, IdcStats, SetupDelayModel};
use gvc_scenario::spec::{ArrivalProfile, SyntheticWorkload};
use gvc_scenario::workload::synth_sessions;
use gvc_telemetry::{
    fnv1a64, BufferSink, Registry, Telemetry, TimelineHandle, TraceEvent, DEFAULT_WIDTH_US,
};
use gvc_topology::{study_topology, Site};
use gvc_workload::{builtin_generator, EPOCH_FEB_2012_US};

use crate::measure::{Cost, Meter, Spans};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SLAC–BNL generation plus the log write/parse/sweep path.
    SlacBulk,
    /// Circuit-reservation study on the study topology.
    VcReserve,
    /// The full paper reproduction.
    PaperRepro,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SlacBulk, Workload::VcReserve, Workload::PaperRepro];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SlacBulk => "slac-bulk",
            Workload::VcReserve => "vc-reserve",
            Workload::PaperRepro => "paper-repro",
        }
    }

    /// Whether the workload runs on one thread. `paper-repro` fans its
    /// generators out over threads; the others are one `Driver::run`.
    pub fn one_thread(self) -> bool {
        self != Workload::PaperRepro
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::PAPER`] is what the benchmark measures;
/// [`Sizes::TINY`] keeps the self-tests quick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// `gvc generate slac --scale` for `slac-bulk`.
    pub slac_scale: f64,
    /// Sessions in `vc-reserve`.
    pub vc_sessions: u32,
    /// The `repro` scale for `paper-repro`.
    pub repro: Scale,
}

impl Sizes {
    /// Paper scale: ≈243 k SLAC transfers, 8000 × 6 circuit-backed
    /// transfers, `repro --full`.
    pub const PAPER: Sizes = Sizes { slac_scale: 0.1, vc_sessions: 8000, repro: Scale::Full };
    /// Smoke-test scale.
    pub const TINY: Sizes = Sizes { slac_scale: 0.002, vc_sessions: 60, repro: Scale::Quick };

    /// The label digests are recorded under.
    pub fn label(self) -> &'static str {
        if self == Sizes::PAPER {
            "paper"
        } else {
            "tiny"
        }
    }
}

/// One named output check and whether it held.
pub type Check = (&'static str, bool);

/// What one workload run produced.
pub struct Run {
    /// Wall and CPU time of the timed call sequence.
    pub cost: Cost,
    /// GridFTP transfers logged.
    pub transfers: u64,
    /// Bytes of usage log written and parsed back (`slac-bulk` only).
    pub log_bytes: u64,
    /// FNV-1a digest of the run's outputs.
    pub digest: u64,
    /// The usage log of the transfers (empty for `paper-repro`).
    pub log: Dataset,
    /// Output checks.
    pub checks: Vec<Check>,
}

/// Digests recorded for known inputs, one
/// `<workload> <sizes> <seed> <hex digest>` line each; seed `*` stands
/// for every seed (`paper-repro` fixes its own).
const RECORDED_DIGESTS: &str = include_str!("../digests.txt");

type DigestTable = BTreeMap<(&'static str, &'static str, &'static str), u64>;

/// The recorded digest table, keyed by (workload, sizes, seed), parsed
/// once.
fn recorded_digests() -> &'static DigestTable {
    static TABLE: OnceLock<DigestTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        RECORDED_DIGESTS
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let f: Vec<&'static str> = l.split_whitespace().collect();
                let [name, label, seed, digest] = f.as_slice() else { return None };
                let digest = u64::from_str_radix(digest.trim_start_matches("0x"), 16).ok()?;
                Some(((*name, *label, *seed), digest))
            })
            .collect()
    })
}

/// The recorded digest of `w` at `sizes` and `seed`, if any.
pub fn recorded_digest(w: Workload, sizes: Sizes, seed: u64) -> Option<u64> {
    let table = recorded_digests();
    let seed = seed.to_string();
    table
        .get(&(w.name(), sizes.label(), seed.as_str()))
        .or_else(|| table.get(&(w.name(), sizes.label(), "*")))
        .copied()
}

/// A workload's prepared inputs: everything the benchmark builds
/// before the timed call, which is what `setup_s` times.
pub enum Prepared {
    /// `slac-bulk`: the registered generator and its seed.
    SlacBulk { generate: fn(u64, f64) -> Dataset, seed: u64 },
    /// `vc-reserve`: a driver with every session scheduled.
    VcReserve(Box<VcSetup>),
    /// `paper-repro`: nothing; `Scenarios::generate` fixes its seeds.
    PaperRepro,
}

/// Observability attached to a `vc-reserve` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Obs {
    /// What `gvc scenario run` attaches: registry, trace buffer sink
    /// and the 30 s timeline.
    On,
    /// No telemetry context at all.
    Off,
}

/// A `vc-reserve` driver ready to run.
pub struct VcSetup {
    driver: Driver,
    limit: SimTime,
    scheduled_transfers: u64,
    sessions: u64,
    with_vc: bool,
    obs: Option<VcObs>,
}

/// The observability handles of an instrumented `vc-reserve` run.
struct VcObs {
    registry: Arc<Registry>,
    sink: Arc<BufferSink>,
    timeline: TimelineHandle,
}

/// Servers per `vc-reserve` cluster; both clusters have the default
/// [`ServerCaps`].
pub const VC_SERVERS: u32 = 3;

/// The circuit rate every `vc-reserve` session requests, in Gbps. With
/// one transfer in flight per session, each flow holds all of it.
pub const VC_RATE_GBPS: f64 = 3.0;

/// The steady synthetic mix of `vc-reserve`: NERSC→ORNL, 6 transfers
/// per session, Poisson arrivals every 10 min on average, and a
/// 3 Gbps circuit request per session when `with_vc`.
fn vc_mix(sessions: u32, with_vc: bool) -> SyntheticWorkload {
    let mean_interarrival_s = 600.0;
    SyntheticWorkload {
        profile: ArrivalProfile::Steady,
        src: "dtn.nersc.gov".into(),
        dst: "dtn.ornl.gov".into(),
        sessions,
        // Room for every arrival: the Poisson sum of `sessions` gaps
        // stays far below twice its mean at these counts.
        horizon_s: 2.0 * mean_interarrival_s * f64::from(sessions) + 86_400.0,
        mean_interarrival_s,
        transfers_per_session: 6,
        vc_fraction: if with_vc { 1.0 } else { 0.0 },
        vc_rate_gbps: VC_RATE_GBPS,
        ..SyntheticWorkload::default()
    }
}

/// Drain-out slack past the arrival horizon (one simulated week, as
/// the scenario runner uses).
const DRAIN_SLACK_S: f64 = 604_800.0;

/// Builds the `vc-reserve` driver: study topology, the session
/// schedule from `seed`, IDC with the one-minute setup model, and the
/// requested observability. Without circuits the schedule is the same
/// (the synthesizer draws the circuit coin either way) and only the
/// circuit requests are absent.
pub fn prepare_vc(seed: u64, sessions: u32, with_vc: bool, obs: Obs) -> Result<VcSetup, String> {
    let topo = study_topology();
    let wl = vc_mix(sessions, with_vc);
    let schedule = synth_sessions(seed, &wl).map_err(|e| e.to_string())?;
    let idc = Idc::new(topo.graph.clone(), SetupDelayModel::one_minute());
    let sim = NetworkSim::new(topo.graph.clone(), EPOCH_FEB_2012_US);
    let mut driver = Driver::new(sim, seed).with_idc(idc);
    let obs = match obs {
        Obs::Off => None,
        Obs::On => {
            let sink = Arc::new(BufferSink::new());
            let timeline = TimelineHandle::new(DEFAULT_WIDTH_US);
            let telemetry = Telemetry::with_sink(sink.clone()).with_timeline(timeline.clone());
            driver = driver.with_telemetry(&telemetry);
            Some(VcObs { registry: telemetry.registry.clone(), sink, timeline })
        }
    };
    let src =
        driver.register_cluster(&wl.src, topo.dtn(Site::Nersc), ServerCaps::default(), VC_SERVERS);
    let dst =
        driver.register_cluster(&wl.dst, topo.dtn(Site::Ornl), ServerCaps::default(), VC_SERVERS);
    let scheduled_transfers = schedule.iter().map(|s| s.spec.jobs.len() as u64).sum();
    let n_sessions = schedule.len() as u64;
    for s in schedule {
        driver.schedule_session(SimTime::from_secs_f64(s.at_s), src, dst, s.spec);
    }
    let limit = SimTime::from_secs_f64(wl.horizon_s + DRAIN_SLACK_S);
    Ok(VcSetup { driver, limit, scheduled_transfers, sessions: n_sessions, with_vc, obs })
}

/// Inputs made from one benchmark seed. A run cycles through them, so
/// its medians stand for the seed's input mix rather than for one
/// input: SLAC session lengths are heavy-tailed, and one input's
/// transfer count varies by about 10 % from seed to seed. A 35 s
/// `slac-bulk` run reaches seven to ten inputs; with four, cycled
/// twice, the seed's mean input size still spread 10 % (quartile
/// distance over median) from seed to seed.
pub const INPUTS_PER_SEED: u64 = 8;

/// The seed of the `i`-th run's input (`i` counts from 0 and wraps at
/// [`INPUTS_PER_SEED`]) for benchmark seed `seed`.
pub fn input_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(INPUTS_PER_SEED).wrapping_add(i % INPUTS_PER_SEED)
}

/// Prepares `w` on the input made from `seed`: builds the workload's
/// inputs through the crates under test.
pub fn prepare(w: Workload, sizes: Sizes, seed: u64) -> Result<Prepared, String> {
    Ok(match w {
        Workload::SlacBulk => {
            let g = builtin_generator("slac").ok_or("no `slac` generator registered")?;
            Prepared::SlacBulk { generate: g.generate, seed }
        }
        Workload::VcReserve => {
            Prepared::VcReserve(Box::new(prepare_vc(seed, sizes.vc_sessions, true, Obs::On)?))
        }
        Workload::PaperRepro => Prepared::PaperRepro,
    })
}

/// Runs prepared inputs: the timed call sequence, then the checks.
pub fn run(p: Prepared, sizes: Sizes, spans: &mut Spans) -> Run {
    match p {
        Prepared::SlacBulk { generate, seed } => slac_bulk(generate, sizes.slac_scale, seed, spans),
        Prepared::VcReserve(setup) => run_vc(*setup, spans).run,
        Prepared::PaperRepro => paper_repro(sizes.repro, spans),
    }
}

fn slac_bulk(generate: fn(u64, f64) -> Dataset, scale: f64, seed: u64, spans: &mut Spans) -> Run {
    let meter = Meter::start();
    let ds = spans.time("workload.generate_s.slac", || generate(seed, scale));
    let mut log = Vec::new();
    let written = spans.time("logs.write_s", || write_dataset(&mut log, &ds));
    let parsed = spans.time("logs.parse_s", || parse_dataset(log.as_slice()));
    let sweep = parsed.as_ref().ok().map(|p| {
        spans.time("core.sweep_s", || {
            SessionStore::from_dataset(p).sweep(
                &PAPER_GAPS_S,
                &PAPER_SETUP_DELAYS_S,
                DEFAULT_OVERHEAD_FACTOR,
            )
        })
    });
    let cost = meter.stop();

    let text = String::from_utf8_lossy(&log);
    let sweep_text = format!("{:?}", sweep.as_ref().map(|s| (&s.gap_rows, &s.cells)));
    let checks = vec![
        ("log written", written.is_ok()),
        ("log parses back to the generated dataset", parsed.as_ref().is_ok_and(|p| *p == ds)),
        (
            "sweep covers every transfer",
            sweep.as_ref().is_some_and(|s| s.total_transfers + s.ungroupable == ds.len()),
        ),
    ];
    let digest = fnv1a64(&format!("{text}\n{sweep_text}"));
    Run { cost, transfers: ds.len() as u64, log_bytes: log.len() as u64, digest, checks, log: ds }
}

/// A finished `vc-reserve` run plus what the traced report reads from
/// it.
pub struct VcRun {
    /// The run itself.
    pub run: Run,
    /// The IDC's admission statistics.
    pub idc: IdcStats,
    /// The instrumented run's registry (`None` with observability off).
    pub registry: Option<Arc<Registry>>,
    /// The trace events the buffer sink captured (empty when off).
    pub events: Vec<TraceEvent>,
    /// Bytes of timeline JSON (0 when off).
    pub timeline_bytes: usize,
}

/// Runs a prepared `vc-reserve` driver to completion, then renders the
/// feasibility report and (with observability on) the timeline.
pub fn run_vc(setup: VcSetup, spans: &mut Spans) -> VcRun {
    let VcSetup { driver, limit, scheduled_transfers, sessions, with_vc, obs } = setup;
    let meter = Meter::start();
    let out = spans.time("gridftp.run_s", || driver.run(limit));
    let timeline_json = obs.as_ref().map(|o| {
        out.sim.record_timeline(&o.timeline);
        o.timeline.to_json()
    });
    let report = spans.time("core.feasibility_report_s", || feasibility_report(&out.log));
    let report_json = gvc_scenario::report_json(&report);
    let cost = meter.stop();

    let stats = out.idc_stats.unwrap_or_default();
    let mut checks = vec![
        ("every scheduled transfer logged once", out.log.len() as u64 == scheduled_transfers),
        ("requests == admitted + blocked", stats.requests == stats.admitted + stats.blocked),
        ("one circuit request per session", stats.requests == if with_vc { sessions } else { 0 }),
        ("no reservation open after the run", out.open_reservations.unwrap_or(0) == 0),
    ];
    if let Some(o) = &obs {
        let completed = o.registry.counter("gridftp_transfers_completed_total", &[]).get();
        checks.push(("transfer counter matches the log", completed == out.log.len() as u64));
    }
    let mut log = Vec::new();
    let written = write_dataset(&mut log, &out.log);
    checks.push(("log written", written.is_ok()));
    let digest = fnv1a64(&format!(
        "{}\n{report_json}\n{}",
        String::from_utf8_lossy(&log),
        timeline_json.as_deref().unwrap_or("")
    ));
    let (registry, events) = match obs {
        Some(o) => (Some(o.registry), o.sink.take()),
        None => (None, Vec::new()),
    };
    VcRun {
        run: Run {
            cost,
            transfers: out.log.len() as u64,
            log_bytes: 0,
            digest,
            checks,
            log: out.log,
        },
        idc: stats,
        registry,
        events,
        timeline_bytes: timeline_json.map_or(0, |j| j.len()),
    }
}

/// Total transfers across the four scenario datasets.
fn scenario_transfers(s: &Scenarios) -> u64 {
    (s.ncar.len() + s.slac.len() + s.ornl.log.len() + s.anl.len()) as u64
}

fn paper_repro(scale: Scale, spans: &mut Spans) -> Run {
    let meter = Meter::start();
    let scenarios = spans.time("bench.scenarios_generate_s", || Scenarios::generate(scale));
    let mut text = String::new();
    let mut rendered = 0;
    for id in EXPERIMENT_IDS {
        let out =
            spans.time(&format!("bench.experiment_s.{id}"), || run_experiment(&scenarios, id));
        if let Some(out) = out.filter(|o| !o.is_empty()) {
            rendered += 1;
            text.push_str(&out);
        }
    }
    let cost = meter.stop();
    Run {
        cost,
        transfers: scenario_transfers(&scenarios),
        log_bytes: 0,
        digest: fnv1a64(&text),
        checks: vec![("all 30 experiment ids render", rendered == EXPERIMENT_IDS.len())],
        log: Dataset::default(),
    }
}
