//! Fault-plan scenarios tell exact stories: the maintenance-window
//! golden pins the full recovery ledger (retries, fallbacks, and zero
//! leaked reservations), and the interdomain chain proves multi-domain
//! teardown leaves nothing open.

use std::fs;
use std::path::{Path, PathBuf};

use gvc_scenario::{discover, run_scenario, CorpusEntry};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn entry(name: &str) -> CorpusEntry {
    discover(&corpus_dir())
        .expect("scenario corpus must be discoverable")
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} must stay in the corpus"))
}

/// One stat line of the form `key value`.
fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| panic!("stats must carry `{key}`:\n{stats}"))
}

#[test]
fn maintenance_window_storyline_is_exact() {
    let entry = entry("maintenance-window");
    assert!(entry.spec.fault_plan.is_some(), "maintenance-window must carry a fault plan");
    let outcome = run_scenario(&entry.spec).expect("run");
    assert!(outcome.violations.is_empty(), "storyline bounds must hold: {:?}", outcome.violations);

    // The spec's [expect] section pins the whole recovery ledger; the
    // run's report must agree field-for-field.
    let r = outcome.report.resilience.expect("fault scenario must report resilience");
    let expect = &entry.spec.expect;
    assert_eq!(Some(r.vc_requested), expect.vc_requested);
    assert_eq!(Some(r.vc_established), expect.vc_established);
    assert_eq!(Some(r.faults_injected), expect.faults_injected);
    assert_eq!(Some(r.retries), expect.retries);
    assert_eq!(Some(r.fallbacks), expect.fallbacks);

    // The story has real adversity in it: flaky provisioning forced
    // retries, some sessions fell back to IP, and some circuits never
    // came up — but every reservation was torn down.
    assert!(r.faults_injected > 0, "the maintenance window must inject faults");
    assert!(r.retries > 0, "flaky provisioning must force retries");
    assert!(r.fallbacks > 0, "exhausted sessions must fall back to IP");
    assert!(r.vc_established < r.vc_requested, "some circuits must fail outright");
    assert!(r.vc_established > 0, "recovery must still land most circuits");
    assert_eq!(stat(&outcome.stats_text, "resilience_preemptions"), 0);
    assert_eq!(
        stat(&outcome.stats_text, "open_reservations"),
        0,
        "a completed run must leak no reservations"
    );

    // And the committed golden carries the same ledger, so drift in
    // fault injection or recovery fails CI with a diff, not silently.
    let golden = fs::read_to_string(corpus_dir().join("goldens/maintenance-window/stats.txt"))
        .expect("maintenance-window stats golden");
    assert_eq!(stat(&golden, "resilience_retries"), r.retries);
    assert_eq!(stat(&golden, "resilience_fallbacks"), r.fallbacks);
    assert_eq!(stat(&golden, "resilience_faults"), r.faults_injected);
    assert_eq!(stat(&golden, "open_reservations"), 0);
}

#[test]
fn interdomain_chain_closes_every_reservation() {
    let entry = entry("interdomain-chain");
    let outcome = run_scenario(&entry.spec).expect("run");
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    assert_eq!(
        stat(&outcome.stats_text, "interdomain_requested"),
        stat(&outcome.stats_text, "interdomain_established"),
        "the scripted chain probe must establish every circuit"
    );
    assert_eq!(stat(&outcome.stats_text, "interdomain_blocked"), 0);
    assert_eq!(
        stat(&outcome.stats_text, "interdomain_open_after"),
        0,
        "multi-domain teardown must close every per-domain reservation"
    );
    assert_eq!(stat(&outcome.stats_text, "open_reservations"), 0);
}
