//! Tiny-size smoke runs of every workload, untraced and traced, and the
//! agreement between `BENCHMARK.json` and the metrics the binary prints.

use std::time::Instant;

use e2ebench::spans::SpanLog;
use e2ebench::{logd, run, Opts, Workload, END_TO_END, PER_LAYER};

fn tiny() -> Opts {
    Opts {
        seed: 3,
        // Long enough for a closed-loop connection to see a batch commit.
        seconds: 2.0,
        tiny: true,
    }
}

fn smoke(workload: Workload) {
    for traced in [false, true] {
        let mut spans = SpanLog::new(traced, Instant::now(), 0);
        let out = run(workload, &tiny(), traced, &mut spans)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(out.ops.attempted > 0);
        assert_eq!(out.ops.failed, 0, "{:?}", out.failures);
        assert!(!out.latency_ms.is_empty());
        assert!(out.throughput > 0.0 && out.setup_s > 0.0 && out.cpu_ms_per_op > 0.0);
        assert_eq!(spans.spans().is_empty(), !traced);
        if traced {
            assert!(!out.layer.is_empty());
            for name in out.layer.keys() {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == name),
                    "unlisted layer metric {name}"
                );
            }
        } else {
            assert!(out.layer.is_empty());
        }
    }
}

#[test]
fn sim_consensus_smoke() {
    smoke(Workload::SimConsensus);
}

#[test]
fn net_consensus_smoke() {
    smoke(Workload::NetConsensus);
}

#[test]
fn logd_open_smoke() {
    smoke(Workload::LogdOpen);
}

#[test]
fn logd_closed_smoke() {
    smoke(Workload::LogdClosed);
}

#[test]
fn service_only_baseline_smoke() {
    for open in [true, false] {
        let acks = logd::baseline(&tiny(), open).unwrap();
        assert!(!acks.is_empty());
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let end = section.find(']').expect("array closes");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names(&json, "end_to_end"), e2e);
    assert_eq!(names(&json, "per_layer"), layer);
    // `logd-closed` is left out of the gated workloads on purpose (see
    // README.md); every workload listed must be one the binary runs.
    for name in names(&json, "workloads") {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}
