//! The repository's end-to-end benchmark: agreement latency in the
//! simulator and over localhost TCP, and the `logd` service's commit
//! latency, ack latency and throughput. See `README.md` beside this crate for
//! the metrics, the workloads and what each layer metric should move.
//!
//! The benchmark drives the system only through public functions
//! (`SyncEngine`, `run_local_cluster_with_byzantine`, `spawn_log_cluster`,
//! `LogClient`, `serve_clients`) and times those calls from outside.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use uba_trace::{Histogram, RuntimeMetrics};

pub mod check;
pub mod consensus;
pub mod logd;
pub mod spans;
pub mod stats;

use spans::SpanLog;
use stats::{FailedRatio, Quantile};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimConsensus,
    NetConsensus,
    LogdOpen,
    LogdClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimConsensus,
        Workload::NetConsensus,
        Workload::LogdOpen,
        Workload::LogdClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimConsensus => "sim-consensus",
            Workload::NetConsensus => "net-consensus",
            Workload::LogdOpen => "logd-open",
            Workload::LogdClosed => "logd-closed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's primary metric, compared between the untraced and
    /// the traced run: median latency, or throughput on `logd-closed`.
    /// Returns the value and whether higher is better.
    pub fn primary(self, outcome: &Outcome) -> (f64, bool) {
        match self {
            Workload::LogdClosed => (outcome.throughput, true),
            _ => (stats::median(&outcome.latency_ms), false),
        }
    }
}

/// Run parameters every workload takes.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Shrinks cluster sizes and rates for the self-tests.
    pub tiny: bool,
}

impl Opts {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One metric line for people: a name from the workload's own vocabulary.
#[derive(Debug, Clone)]
pub struct Named {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ops: FailedRatio,
    /// Median of the run's set-ups, in seconds, and their number.
    pub setup_s: f64,
    pub setups: usize,
    /// The workload's user-facing latency samples, in milliseconds:
    /// decide latency (consensus) or commit latency (`logd`).
    pub latency_ms: Vec<f64>,
    /// Completed operations per second.
    pub throughput: f64,
    /// Process CPU time per completed operation, in milliseconds: every
    /// thread of the system under test, and on `logd` the load generator's.
    pub cpu_ms_per_op: f64,
    /// Peak resident memory in MiB (`VmHWM`); see each workload for when
    /// it is read.
    pub peak_rss_mb: f64,
    pub named: Vec<Named>,
    /// The cause of every failed operation, for the report.
    pub failures: Vec<String>,
    /// Per-layer metrics; filled by the traced run only.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.named.push(Named {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Pushes `<base>_p50` and `<base>_p99` for a sample, the latter by the
    /// tail rule, each with its sample count.
    pub fn push_dist(&mut self, base: &str, unit: &'static str, samples: &[f64]) {
        let sorted = stats::sorted(samples.to_vec());
        let describe = |q: Quantile| format!("p{} of n={}, {} beyond", q.pct, q.samples, q.beyond);
        if let Some(q) = stats::percentile(&sorted, 50) {
            self.push(&format!("{base}_p50"), q.value, unit, describe(q));
        }
        if let Some(q) = stats::tail(&sorted) {
            self.push(&format!("{base}_p99"), q.value, unit, describe(q));
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    /// Sets a per-layer median and tail-rule pair from a sample.
    pub fn layer_dist(&mut self, p50: &'static str, p99: &'static str, samples: &[f64]) {
        self.layer(p50, stats::median(samples));
        self.layer(p99, stats::tail_value(samples));
    }

    /// Sets the `net.*_us_mean` phase timings from a runtime registry.
    pub fn net_phase_means(&mut self, m: &RuntimeMetrics) {
        for (layer, phase) in [
            ("net.step_us_mean", "step"),
            ("net.send_us_mean", "send"),
            ("net.deliver_us_mean", "deliver"),
            ("net.barrier_us_mean", "barrier"),
        ] {
            let name = format!("net_round_phase_micros{{phase=\"{phase}\"}}");
            self.layer(layer, timing_mean(m, &name));
        }
    }
}

/// Mean of a runtime-registry timing histogram, in microseconds.
pub fn timing_mean(m: &RuntimeMetrics, name: &str) -> f64 {
    m.timing(name).map_or(0.0, Histogram::mean)
}

/// Sum of every series of a runtime-registry counter family.
pub fn family(m: &RuntimeMetrics, prefix: &str) -> f64 {
    m.counters()
        .filter(|(name, _)| name.starts_with(prefix))
        .fold(0.0, |sum, (_, v)| sum + v as f64)
}

/// Microseconds elapsed between two instants, as a float.
pub fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_nanos() as f64 / 1e3
}

/// Runs one workload. `Err` is a correctness violation or a fatal error;
/// either fails the run.
pub fn run(
    workload: Workload,
    opts: &Opts,
    traced: bool,
    spans: &mut SpanLog,
) -> Result<Outcome, String> {
    match workload {
        Workload::SimConsensus => consensus::run_sim(opts, traced, spans),
        Workload::NetConsensus => consensus::run_net(opts, traced, spans),
        Workload::LogdOpen => logd::run(opts, true, traced, spans),
        Workload::LogdClosed => logd::run(opts, false, traced, spans),
    }
}

/// The end-to-end metrics of `BENCHMARK.json`, in order: name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of `BENCHMARK.json`, in order: name and unit. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("latency_tail_ms", "ms"),
    ("sim.round_us_p50", "us"),
    ("sim.round_us_p99", "us"),
    ("sim.step_us_mean", "us"),
    ("sim.adversary_us_mean", "us"),
    ("sim.deliver_us_mean", "us"),
    ("sim.rounds_per_instance", "count"),
    ("sim.envelopes_per_instance", "count"),
    ("sim.duplicate_drops_per_instance", "count"),
    ("net.round_us_p50", "us"),
    ("net.round_us_p99", "us"),
    ("net.step_us_mean", "us"),
    ("net.send_us_mean", "us"),
    ("net.deliver_us_mean", "us"),
    ("net.barrier_us_mean", "us"),
    ("net.rounds_per_instance", "count"),
    ("net.frames_per_instance", "count"),
    ("net.bytes_per_instance", "bytes"),
    ("net.bytes_per_record", "bytes"),
    ("net.timeouts", "count"),
    ("net.reconnects", "count"),
    ("byz.strikes", "count"),
    ("byz.evictions", "count"),
    ("service.submit_us_p50", "us"),
    ("service.submit_us_p99", "us"),
    ("service.ack_us_p50", "us"),
    ("service.ack_us_p99", "us"),
    ("service.read_us_p50", "us"),
    ("service.read_us_p99", "us"),
    ("service.read_records_per_call", "count"),
    ("service.records_per_batch", "count"),
    ("service.refused", "count"),
    ("service.dedup", "count"),
    ("setup.spawn_ms", "ms"),
    ("setup.first_ack_ms", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.lag_ms_max", "ms"),
    ("loadgen.offered_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.events", "count"),
    ("baseline.ack_us_p50", "us"),
    ("baseline.ack_us_p99", "us"),
    ("baseline.acks", "count"),
];
