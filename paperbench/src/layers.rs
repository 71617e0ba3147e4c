//! The traced run: per-layer metrics from the benchmark's own spans
//! around calls into each crate, from the counters the crates already
//! keep, from layer-isolated replays, and from differential runs.
//!
//! Every ratio is printed with its base.

use std::collections::BTreeSet;

use gvc_engine::{SimSpan, SimTime};
use gvc_gridftp::transfer::{prepare_transfer, FailureModel, ServerNoise, TransferJob};
use gvc_gridftp::{ServerCaps, ServerCluster};
use gvc_logs::{Dataset, EndpointKind};
use gvc_net::tcp::TcpModel;
use gvc_net::{max_min_allocation, CapacityConstraint, FlowDemand, NetworkSim};
use gvc_oscars::{Idc, ReservationId, ReservationRequest, SetupDelayModel};
use gvc_stats::rng::component_rng;
use gvc_telemetry::{Histogram, Stopwatch, TraceEvent, Value};
use gvc_topology::{study_topology, Site};
use gvc_workload::nersc_anl::{self, NerscAnlConfig};
use gvc_workload::nersc_ornl::{self, NerscOrnlConfig};
use gvc_workload::{ncar_nics, slac_bnl, EPOCH_FEB_2012_US};

use crate::harness::{Ledger, Outcome};
use crate::measure::{median, quantile, Metrics, Spans};
use crate::workloads::{
    input_seed, prepare, prepare_vc, recorded_digest, run, run_vc, Obs, Run, Sizes, VcRun,
    Workload, VC_RATE_GBPS, VC_SERVERS,
};

/// Driver event classes the `vc-reserve` run exercises; the others
/// (background, resize, retry, preempt, flap) need inputs it leaves
/// out.
const HANDLE_CLASSES: [&str; 2] = ["start_session", "launch_next"];

/// Measures the per-layer metrics for `w`. The workload itself runs
/// with spans off, on, and off again, giving
/// `bench_trace_overhead_ratio`. The layers it does not exercise are
/// measured by the other workloads' call sequences, so every traced run
/// reports every per-layer metric.
pub fn per_layer(w: Workload, sizes: Sizes, seed: u64) -> Outcome {
    let seed = input_seed(seed, 0);
    let mut ledger = Ledger::default();
    let mut m = Metrics::default();

    // Untraced runs on both sides of the traced one, so that a drift
    // in host speed does not read as tracing overhead.
    let before = workload_run(&mut ledger, w, sizes, seed, Spans::off());
    let mut spans = Spans::on();
    let traced = match w {
        // vc-reserve's traced pass is the instrumented run the IDC,
        // engine and telemetry metrics are read from.
        Workload::VcReserve => vc_layers(&mut ledger, &mut m, seed, sizes, &mut spans),
        _ => workload_run(&mut ledger, w, sizes, seed, Spans::on()).map(|(r, s)| {
            spans = s;
            r
        }),
    };
    let after = workload_run(&mut ledger, w, sizes, seed, Spans::off());
    let digest = traced.as_ref().map(|r| r.digest);
    if let (Some((u1, _)), Some(t), Some((u2, _))) = (before, &traced, after) {
        let untraced = (u1.cost.wall_s + u2.cost.wall_s) / 2.0;
        m.set("bench_untraced_wall_s", untraced, "s");
        m.set("bench_traced_wall_s", t.cost.wall_s, "s");
        m.set("bench_trace_overhead_ratio", t.cost.wall_s / untraced, "ratio");
    }
    // The flow sets of the solver replays come from the slac-bulk and
    // vc-reserve runs' logs; paper-repro's transfer count checks the
    // serial generators.
    let (mut besteffort, mut guaranteed, mut repro_transfers) = (None, None, None);
    match (w, traced) {
        (Workload::SlacBulk, Some(r)) => {
            slac_metrics(&mut m, &spans, &r, true);
            besteffort = Some(in_flight_jobs(&r.log));
        }
        (Workload::VcReserve, Some(r)) => guaranteed = Some(in_flight_jobs(&r.log)),
        (Workload::PaperRepro, Some(r)) => {
            repro_metrics(&mut m, &spans);
            repro_transfers = Some(r.transfers);
        }
        _ => {}
    }

    if w != Workload::VcReserve {
        guaranteed = vc_layers(&mut ledger, &mut m, seed, sizes, &mut Spans::on())
            .map(|r| in_flight_jobs(&r.log));
    }
    if w != Workload::SlacBulk {
        besteffort = workload_run(&mut ledger, Workload::SlacBulk, sizes, seed, Spans::on()).map(
            |(r, s)| {
                slac_metrics(&mut m, &s, &r, false);
                in_flight_jobs(&r.log)
            },
        );
    }
    if w != Workload::PaperRepro {
        repro_transfers = workload_run(&mut ledger, Workload::PaperRepro, sizes, seed, Spans::on())
            .map(|(r, s)| {
                repro_metrics(&mut m, &s);
                r.transfers
            });
    }
    serial_generators(&mut ledger, &mut m, sizes, repro_transfers);
    solver_replays(&mut m, besteffort.as_deref(), guaranteed.as_deref());

    Outcome { metrics: m, ledger, runs: 1, digest, host: None }
}

/// Prepares and runs `w` once with `spans`, counting it in the ledger.
fn workload_run(
    ledger: &mut Ledger,
    w: Workload,
    sizes: Sizes,
    seed: u64,
    mut spans: Spans,
) -> Option<(Run, Spans)> {
    let prepared = match ledger.guard("prepare", || prepare(w, sizes, seed))? {
        Ok(p) => p,
        Err(e) => {
            ledger.op(&format!("prepare {}: {e}", w.name()), false);
            return None;
        }
    };
    let r = ledger.guard(w.name(), || run(prepared, sizes, &mut spans))?;
    ledger.run(w.name(), &r, recorded_digest(w, sizes, seed));
    Some((r, spans))
}

fn slac_metrics(m: &mut Metrics, spans: &Spans, r: &Run, own_generator: bool) {
    let nan = f64::NAN;
    if own_generator {
        m.set(
            "workload.generate_s.slac",
            spans.total("workload.generate_s.slac").unwrap_or(nan),
            "s",
        );
    }
    m.set("logs.write_s", spans.total("logs.write_s").unwrap_or(nan), "s");
    m.set("logs.parse_s", spans.total("logs.parse_s").unwrap_or(nan), "s");
    m.set("logs.bytes", r.log_bytes as f64, "bytes");
    m.set("core.sweep_s", spans.total("core.sweep_s").unwrap_or(nan), "s");
}

fn repro_metrics(m: &mut Metrics, spans: &Spans) {
    let nan = f64::NAN;
    m.set(
        "bench.scenarios_generate_s",
        spans.total("bench.scenarios_generate_s").unwrap_or(nan),
        "s",
    );
    let mut sum = 0.0;
    for id in gvc_bench::EXPERIMENT_IDS {
        let name = format!("bench.experiment_s.{id}");
        let t = spans.total(&name).unwrap_or(nan);
        sum += t;
        m.set(name, t, "s");
    }
    m.set("bench.experiments_s", sum, "s");
}

/// Runs one `vc-reserve` configuration, counting it in the ledger.
fn vc_run(
    ledger: &mut Ledger,
    kind: &str,
    seed: u64,
    sizes: Sizes,
    with_vc: bool,
    obs: Obs,
    spans: &mut Spans,
) -> Option<VcRun> {
    let setup = match ledger.guard(kind, || prepare_vc(seed, sizes.vc_sessions, with_vc, obs))? {
        Ok(s) => s,
        Err(e) => {
            ledger.op(&format!("prepare {kind}: {e}"), false);
            return None;
        }
    };
    let r = ledger.guard(kind, || run_vc(setup, spans))?;
    ledger.run(kind, &r.run, None);
    Some(r)
}

/// The `vc-reserve` layers: the instrumented run with spans on, its
/// registry counters, the IDC replay of its request sequence, and the
/// two differential runs (observability off; no circuits).
fn vc_layers(
    ledger: &mut Ledger,
    m: &mut Metrics,
    seed: u64,
    sizes: Sizes,
    spans: &mut Spans,
) -> Option<Run> {
    let on = vc_run(ledger, "vc-reserve", seed, sizes, true, Obs::On, spans)?;
    let nan = f64::NAN;
    m.set("gridftp.run_s", spans.total("gridftp.run_s").unwrap_or(nan), "s");
    m.set(
        "core.feasibility_report_s",
        spans.total("core.feasibility_report_s").unwrap_or(nan),
        "s",
    );
    if let Some(reg) = &on.registry {
        let count = |name: &str| reg.counter(name, &[]).get() as f64;
        m.set("net.recomputations", count("net_fairshare_recomputations_total"), "count");
        m.set("net.flows_started", count("net_flows_started_total"), "count");
        m.set("engine.events_dispatched", count("sim_events_dispatched_total"), "count");
        m.set(
            "engine.queue_depth_hwm",
            reg.gauge("sim_event_queue_depth_hwm", &[]).get() as f64,
            "count",
        );
        for class in HANDLE_CLASSES {
            let h =
                reg.histogram("sim_event_handle_seconds", &[("class", class)], Histogram::timing);
            m.set(format!("gridftp.handle_s.{class}"), h.sum(), "s");
            m.set(format!("gridftp.handle_n.{class}"), h.count() as f64, "count");
        }
    }
    m.set("oscars.requests", on.idc.requests as f64, "count");
    m.set("oscars.admitted", on.idc.admitted as f64, "count");
    m.set("oscars.blocked", on.idc.blocked as f64, "count");
    m.set("telemetry.trace_events", on.events.len() as f64, "count");
    m.set("telemetry.timeline_bytes", on.timeline_bytes as f64, "bytes");
    idc_replay(ledger, m, &on.events);

    let on_wall = on.run.cost.wall_s;
    let off = vc_run(ledger, "vc-reserve obs-off", seed, sizes, true, Obs::Off, &mut Spans::off());
    let novc =
        vc_run(ledger, "vc-reserve no-circuits", seed, sizes, false, Obs::Off, &mut Spans::off());
    if let Some(off) = &off {
        let off_wall = off.run.cost.wall_s;
        m.set("telemetry.obs_on_wall_s", on_wall, "s");
        m.set("telemetry.obs_off_wall_s", off_wall, "s");
        m.set("telemetry.overhead_ratio", on_wall / off_wall, "ratio");
        if let Some(novc) = &novc {
            let novc_wall = novc.run.cost.wall_s;
            m.set("oscars.novc_wall_s", novc_wall, "s");
            m.set("oscars.vc_share", (off_wall - novc_wall) / off_wall, "ratio");
        }
    }
    Some(on.run)
}

fn num(ev: &TraceEvent, key: &str) -> Option<f64> {
    ev.fields.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    })
}

/// Replays the run's IDC call sequence (`idc.admit`/`idc.block` for
/// each `create_reservation`, `idc.teardown` for each `teardown`, in
/// trace order) on a fresh controller, timing every call. The replay
/// must admit exactly the requests the run admitted, under the same
/// ids.
fn idc_replay(ledger: &mut Ledger, m: &mut Metrics, events: &[TraceEvent]) {
    let topo = study_topology();
    let (src, dst) = (topo.dtn(Site::Nersc), topo.dtn(Site::Ornl));
    let mut idc = Idc::new(topo.graph, SetupDelayModel::one_minute());
    let (mut create_us, mut teardown_us) = (Vec::new(), Vec::new());
    let mut same = true;
    for ev in events {
        let at = SimTime(ev.t_us.max(0) as u64);
        match ev.kind {
            "idc.admit" | "idc.block" => {
                let (Some(rate_bps), Some(window_s)) = (num(ev, "rate_bps"), num(ev, "window_s"))
                else {
                    same = false;
                    continue;
                };
                let req = ReservationRequest {
                    src,
                    dst,
                    rate_bps,
                    start: at,
                    end: at + SimSpan::from_secs_f64(window_s),
                };
                let sw = Stopwatch::start();
                let got = idc.create_reservation(req);
                create_us.push(sw.elapsed_s() * 1e6);
                let want = num(ev, "id").map(|id| ReservationId(id as u64));
                same &= got.ok() == want;
            }
            "idc.teardown" => {
                let Some(id) = num(ev, "id") else {
                    same = false;
                    continue;
                };
                let sw = Stopwatch::start();
                let ok = idc.teardown(ReservationId(id as u64), at).is_ok();
                teardown_us.push(sw.elapsed_s() * 1e6);
                same &= ok;
            }
            _ => {}
        }
    }
    ledger.op("idc replay admits the run's requests under the same ids", same);
    ledger.op("idc replay leaves no reservation open", idc.open_reservations() == 0);
    let nan = f64::NAN;
    for (name, v) in [("create", &create_us), ("teardown", &teardown_us)] {
        m.set(format!("oscars.{name}_us.p50"), quantile(v, 0.5).unwrap_or(nan), "us");
        m.set(format!("oscars.{name}_us.p99"), quantile(v, 0.99).unwrap_or(nan), "us");
        m.set(format!("oscars.{name}_calls"), v.len() as f64, "count");
    }
}

/// `paper-repro`'s four generators, one after another, at the configs
/// `Scenarios::generate` uses. Their sum over the joined wall time is
/// the fan-out speedup; their transfers must add up to the joined
/// run's.
fn serial_generators(ledger: &mut Ledger, m: &mut Metrics, sizes: Sizes, joined: Option<u64>) {
    let full = sizes.repro == gvc_bench::Scale::Full;
    let generators: [(&str, &dyn Fn() -> usize); 4] = [
        ("ncar", &|| {
            let scale = if full { 1.0 } else { 0.15 };
            ncar_nics::generate(ncar_nics::NcarNicsConfig { seed: 2009, scale }).len()
        }),
        ("slac", &|| {
            let scale = if full { 0.10 } else { 0.01 };
            slac_bnl::generate(slac_bnl::SlacBnlConfig { seed: 2012, scale }).len()
        }),
        ("ornl", &|| {
            let n_transfers = if full { 145 } else { 60 };
            nersc_ornl::generate(NerscOrnlConfig { seed: 2010, n_transfers, background: 1.0 })
                .log
                .len()
        }),
        ("anl", &|| {
            nersc_anl::generate(NerscAnlConfig {
                seed: 2012,
                scale: if full { 1.0 } else { 0.4 },
                production_sessions_per_day: 60.0,
                horizon_days: 50.0,
            })
            .len()
        }),
    ];
    let mut total = 0u64;
    let mut sum_s = 0.0;
    for (name, generate) in generators {
        let sw = Stopwatch::start();
        total += generate() as u64;
        let s = sw.elapsed_s();
        sum_s += s;
        let key = format!("workload.generate_s.{name}");
        if !m.has(&key) {
            m.set(key, s, "s");
        }
    }
    ledger.op("serial generators log as many transfers as the joined ones", Some(total) == joined);
    m.set("bench.generate_serial_s", sum_s, "s");
    let joined_s = m.get("bench.scenarios_generate_s").unwrap_or(f64::NAN);
    m.set("bench.fanout_speedup", sum_s / joined_s, "ratio");
}

/// The servers of the SLAC–BNL generator: `slac_bnl::generate`
/// registers two clusters of two servers with these caps, and does not
/// export them.
const SLAC_CAPS: ServerCaps = ServerCaps {
    node_cap_bps: 2.7e9,
    disk_read_bps: 2.4e9,
    disk_write_bps: 2.0e9,
    disk_stream_bps: 260e6,
    nic_bps: 10e9,
};
const SLAC_SERVERS: u32 = 2;

/// The transfers in flight at a typical rate recomputation of a run,
/// rebuilt from its usage log: those in flight at the first transfer
/// start or end after which as many are in flight as the median over
/// all starts and ends. A transfer counts from its logged start to its
/// logged end, which includes the driver's 0.2 s control overhead after
/// the flow itself has finished.
fn in_flight_jobs(log: &Dataset) -> Vec<TransferJob> {
    let records = log.records();
    // Ends sort before starts at the same instant (`false < true`).
    let mut events: Vec<(i64, bool, usize)> = records
        .iter()
        .enumerate()
        .flat_map(|(i, r)| [(r.start_unix_us, true, i), (r.end_unix_us(), false, i)])
        .collect();
    events.sort_unstable();
    let mut counts = Vec::with_capacity(events.len());
    let mut n = 0usize;
    for &(_, start, _) in &events {
        n = if start { n + 1 } else { n - 1 };
        if n > 0 {
            counts.push(n as f64);
        }
    }
    let target = median(&counts).map_or(0, |c| c.round() as usize);
    let mut active = BTreeSet::new();
    for &(_, start, i) in &events {
        if start {
            active.insert(i);
        } else {
            active.remove(&i);
        }
        if active.len() == target {
            break;
        }
    }
    active
        .into_iter()
        .map(|i| {
            let r = &records[i];
            TransferJob {
                size_bytes: r.size_bytes,
                streams: r.num_streams,
                stripes: r.num_stripes,
                tcp_buffer_bytes: r.tcp_buffer_bytes,
                block_size_bytes: r.block_size_bytes,
                src_kind: r.src_kind.unwrap_or(EndpointKind::Disk),
                dst_kind: r.dst_kind.unwrap_or(EndpointKind::Disk),
                logged_as: r.transfer_type,
            }
        })
        .collect()
}

/// The solver input the simulator builds for `jobs` from `from` to
/// `to`: the study topology's link capacities, then the server
/// resources of the two clusters (registered as the workload registers
/// them), and one flow per job with the rate cap `prepare_transfer`
/// gives it. Every flow holds `guarantee_bps`.
fn solver_input(
    jobs: &[TransferJob],
    (from, to): (Site, Site),
    (caps, servers): (ServerCaps, u32),
    guarantee_bps: f64,
) -> (Vec<CapacityConstraint>, Vec<FlowDemand>) {
    let topo = study_topology();
    let mut sim = NetworkSim::new(topo.graph.clone(), EPOCH_FEB_2012_US);
    let src = ServerCluster::register(&mut sim, "src", topo.dtn(from), caps, servers);
    let dst = ServerCluster::register(&mut sim, "dst", topo.dtn(to), caps, servers);
    // `ServerCluster::register` adds node aggregate, disk read and disk
    // write, each summed over the servers.
    let n = f64::from(servers);
    let cluster = [caps.node_cap_bps * n, caps.disk_read_bps * n, caps.disk_write_bps * n];
    let links = topo.graph.links();
    let constraints = links
        .iter()
        .map(|l| l.capacity_bps)
        .chain(cluster)
        .chain(cluster)
        .map(|capacity_bps| CapacityConstraint { capacity_bps })
        .collect();
    let path = topo.path(from, to);
    let (mut rng, mut fail_rng) = (component_rng(0, "solver"), component_rng(0, "solver-fail"));
    let flows = jobs
        .iter()
        .map(|job| {
            let t = prepare_transfer(
                &topo.graph,
                &path,
                &src,
                &dst,
                job.clone(),
                &TcpModel::default(),
                ServerNoise::default(),
                FailureModel::default(),
                0.0,
                &mut rng,
                &mut fail_rng,
            );
            let route = t.spec.route.iter().map(|l| l.0 as usize);
            let resources = t.spec.resources.iter().map(|r| links.len() + r.0 as usize);
            FlowDemand {
                constraints: route.chain(resources).collect(),
                min_rate_bps: guarantee_bps,
                max_rate_bps: t.spec.max_rate_bps,
            }
        })
        .collect();
    (constraints, flows)
}

/// Direct `max_min_allocation` calls on the flow sets of the two
/// workloads: `slac-bulk`'s best-effort SLAC→BNL transfers, and
/// `vc-reserve`'s NERSC→ORNL transfers, each holding its session's
/// whole circuit. Median µs per call over batches, with the flow
/// counts.
fn solver_replays(
    m: &mut Metrics,
    besteffort: Option<&[TransferJob]>,
    guaranteed: Option<&[TransferJob]>,
) {
    const BATCHES: usize = 9;
    const CALLS: usize = 4000;
    let cases = [
        ("besteffort", besteffort, (Site::Slac, Site::Bnl), (SLAC_CAPS, SLAC_SERVERS), 0.0),
        (
            "guaranteed",
            guaranteed,
            (Site::Nersc, Site::Ornl),
            (ServerCaps::default(), VC_SERVERS),
            VC_RATE_GBPS * 1e9,
        ),
    ];
    for (name, jobs, sites, cluster, guarantee_bps) in cases {
        let Some(jobs) = jobs else {
            m.set(format!("net.solve_us.{name}"), f64::NAN, "us");
            m.set(format!("net.solve_flows.{name}"), f64::NAN, "count");
            continue;
        };
        let (constraints, flows) = solver_input(jobs, sites, cluster, guarantee_bps);
        let per_call: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let sw = Stopwatch::start();
                for _ in 0..CALLS {
                    std::hint::black_box(max_min_allocation(
                        std::hint::black_box(&constraints),
                        std::hint::black_box(&flows),
                    ));
                }
                sw.elapsed_s() * 1e6 / CALLS as f64
            })
            .collect();
        m.set(format!("net.solve_us.{name}"), median(&per_call).unwrap_or(f64::NAN), "us");
        m.set(format!("net.solve_flows.{name}"), flows.len() as f64, "count");
    }
}
