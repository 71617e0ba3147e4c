//! Microbenchmarks of the max-min fair-share solver and CSPF — the two
//! inner loops of the fluid simulator and the IDC.
//!
//! The solver workload is `gvc_bench::perfsuite::fairshare_table`, the
//! input `gvc perf snapshot` measures as `net.fairshare.solves_per_sec`
//! (at 100 flows). Set `GVC_PERF_SNAPSHOT_DIR` to also drop a snapshot.

use criterion::{criterion_group, Criterion, Throughput};
use gvc_bench::perfsuite::{emit_snapshot_for_bench, fairshare_solves, fairshare_table};
use gvc_topology::{constrained_shortest_path, shortest_path, study_topology, Site};

fn bench_max_min(c: &mut Criterion) {
    let mut g = c.benchmark_group("max_min");
    for &nflows in &[10usize, 100, 1000] {
        let (constraints, flows) = fairshare_table(nflows);
        g.throughput(Throughput::Elements(nflows as u64));
        g.bench_function(format!("flows_{nflows}"), |b| {
            b.iter(|| fairshare_solves(&constraints, &flows, 1));
        });
    }
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let topo = study_topology();
    let (src, dst) = (topo.dtn(Site::Nersc), topo.dtn(Site::Ornl));
    c.bench_function("dijkstra_study_topology", |b| {
        b.iter(|| shortest_path(&topo.graph, std::hint::black_box(src), std::hint::black_box(dst)));
    });
    c.bench_function("cspf_study_topology", |b| {
        b.iter(|| {
            constrained_shortest_path(&topo.graph, src, dst, 4e9, |l| {
                topo.graph.link(l).capacity_bps
            })
        });
    });
}

criterion_group!(benches, bench_max_min, bench_routing);

fn main() {
    benches();
    if let Some(path) = emit_snapshot_for_bench("net") {
        println!("wrote perf snapshot {}", path.display());
    }
}
