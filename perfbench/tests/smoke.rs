//! Tiny-horizon runs of every workload: each reports every metric that
//! BENCHMARK.json declares, with the declared unit, under a valid name,
//! and passes its output checks.

use perfbench::workload::Workload;
use perfbench::{measure, Metric};
use simcore::SimTime;

/// `(name, unit)` of every declared metric: each JSON object of
/// BENCHMARK.json with both a name and a unit (workloads have no unit).
fn declared() -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let string_after = |s: &str, key: &str| -> Option<String> {
        let at = s.find(key)? + key.len();
        let rest = s[at..]
            .trim_start_matches([' ', ':', '\n'])
            .strip_prefix('"')?;
        Some(rest[..rest.find('"')?].to_string())
    };
    let out: Vec<(String, String)> = text
        .split('}')
        .filter_map(|obj| {
            Some((
                string_after(obj, "\"name\"")?,
                string_after(obj, "\"unit\"")?,
            ))
        })
        .collect();
    assert!(out.len() > 30, "found only {} declared metrics", out.len());
    out
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn smoke(w: Workload, horizon_ms: u64) {
    let report =
        measure(w, 1, SimTime::from_millis(horizon_ms), true, false).expect("host counters");
    for c in &report.checks {
        assert!(c.ok, "{}: check {} failed: {}", w.name(), c.name, c.detail);
    }
    for Metric { name, value, .. } in &report.metrics {
        assert!(valid_name(name), "{}: bad metric name {name:?}", w.name());
        assert!(value.is_finite(), "{}: {name} = {value}", w.name());
    }
    for (name, unit) in declared() {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{}: declared metric {name} not reported", w.name()));
        assert_eq!(m.unit, unit, "{}: unit of {name}", w.name());
    }
}

#[test]
fn bulk2_reports_every_declared_metric() {
    smoke(Workload::Bulk2, 5);
}

#[test]
fn shorts2_reports_every_declared_metric() {
    smoke(Workload::Shorts2, 5);
}

#[test]
fn fabric16_reports_every_declared_metric() {
    smoke(Workload::Fabric16, 2);
}

#[test]
fn unfinished_flows_count_as_failed() {
    // Short flows arrive from 2 ms on; a 3 ms horizon leaves the last
    // arrivals mid-transfer.
    let report = measure(Workload::Shorts2, 1, SimTime::from_millis(3), false, false)
        .expect("host counters");
    let f = report.run.flows;
    assert!(f.started > 4, "short flows started: {f:?}");
    assert!(
        f.failed > 0,
        "an unfinished flow must count as failed: {f:?}"
    );
    assert_eq!(f.started, f.completed + f.failed);
    let frac = report
        .metrics
        .iter()
        .find(|m| m.name == "failed_flow_frac")
        .expect("failed_flow_frac reported")
        .value;
    assert_eq!(frac, f.failed as f64 / f.started as f64);
    assert!(
        report.ok(),
        "unfinished flows are an outcome, not a check failure"
    );
}
