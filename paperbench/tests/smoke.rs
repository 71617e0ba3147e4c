//! Self-tests: every workload runs clean at tiny scale, and the metric
//! names a run prints are exactly the names `BENCHMARK.json` declares.
//! Run with `cargo test --release` (the traced runs are slow in debug).

use gvc_paperbench::harness::end_to_end;
use gvc_paperbench::layers::per_layer;
use gvc_paperbench::measure::Spans;
use gvc_paperbench::workloads::{
    input_seed, prepare, recorded_digest, run, Sizes, Workload, INPUTS_PER_SEED,
};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `name`s listed in one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON.find(&format!("\"{section}\"")).expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let mut names: Vec<String> = body
        .split("\"name\"")
        .skip(1)
        .filter_map(|chunk| chunk.split('"').nth(1).map(str::to_owned))
        .collect();
    names.sort();
    names
}

fn printed(metrics: &gvc_paperbench::measure::Metrics) -> Vec<String> {
    metrics.iter().map(|(name, _, _)| name.to_owned()).collect()
}

#[test]
fn workloads_in_benchmark_json_are_the_benchmarks() {
    let mut ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    ours.sort();
    assert_eq!(declared("workloads"), ours);
}

#[test]
fn each_workload_runs_clean_and_prints_the_end_to_end_metrics() {
    for w in Workload::ALL {
        let out = end_to_end(w, Sizes::TINY, 1, 0.0);
        assert_eq!(out.ledger.failures, Vec::<String>::new(), "{}", w.name());
        let input = input_seed(1, 0);
        assert!(recorded_digest(w, Sizes::TINY, input).is_some(), "{}: recorded", w.name());
        assert_eq!(out.digest, recorded_digest(w, Sizes::TINY, input), "{}", w.name());
        assert_eq!(printed(&out.metrics), declared("end_to_end"), "{}", w.name());
        for (name, value, _) in out.metrics.iter() {
            assert!(value.is_finite() && value > 0.0, "{}: {name} = {value}", w.name());
        }
    }
}

#[test]
fn each_traced_run_prints_every_per_layer_metric() {
    for w in Workload::ALL {
        let out = per_layer(w, Sizes::TINY, 2);
        assert_eq!(out.ledger.failures, Vec::<String>::new(), "{}", w.name());
        assert_eq!(printed(&out.metrics), declared("per_layer"), "{}", w.name());
        for (name, value, _) in out.metrics.iter() {
            assert!(value.is_finite(), "{}: {name} = {value}", w.name());
        }
    }
}

#[test]
fn a_digest_other_than_the_recorded_one_is_a_failed_check() {
    let mut out = end_to_end(Workload::SlacBulk, Sizes::TINY, 1, 0.0);
    let digest = out.digest.expect("ran");
    let run = gvc_paperbench::workloads::Run {
        cost: gvc_paperbench::measure::Cost { wall_s: 1.0, cpu_s: 1.0 },
        transfers: 1,
        log_bytes: 0,
        digest,
        checks: Vec::new(),
        log: Default::default(),
    };
    let failed = out.ledger.failed;
    out.ledger.run("slac-bulk", &run, Some(digest ^ 1));
    assert_eq!(out.ledger.failed, failed + 1);
}

/// Prints the digest table for `digests.txt` after an intended output
/// change: `cargo test --release -- --ignored --nocapture digest_table`.
/// Inputs of benchmark seeds 0-1 at tiny sizes and 0-15 at paper sizes.
#[test]
#[ignore = "regenerates digests.txt; slow"]
fn digest_table() {
    for (sizes, seeds) in [(Sizes::TINY, 0..2u64), (Sizes::PAPER, 0..16u64)] {
        for w in [Workload::SlacBulk, Workload::VcReserve] {
            for input in seeds.start * INPUTS_PER_SEED..seeds.end * INPUTS_PER_SEED {
                let p = prepare(w, sizes, input).expect("prepares");
                let d = run(p, sizes, &mut Spans::off()).digest;
                println!("{} {} {input} {d:#018x}", w.name(), sizes.label());
            }
        }
        let p = prepare(Workload::PaperRepro, sizes, 0).expect("prepares");
        let d = run(p, sizes, &mut Spans::off()).digest;
        println!("{} {} * {d:#018x}", Workload::PaperRepro.name(), sizes.label());
    }
}
