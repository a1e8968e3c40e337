//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, checks its outputs, prints every metric by name with
//! its unit and sample count, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload untraced and traced for half the window each, plus the
//! service-only baseline on the `logd` workloads, reports the per-layer
//! metrics, and writes the benchmark-side spans as JSONL under `out/`.
//!
//! Exit codes: 0 on a checked run, 1 on a correctness violation or fatal
//! error (no JSON line then), 2 on a usage error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use e2ebench::spans::{self, SpanLog};
use e2ebench::{logd, stats, Opts, Outcome, Workload, END_TO_END, PER_LAYER};

struct Args {
    workload: Workload,
    opts: Opts,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload sim-consensus|net-consensus|logd-open|logd-closed \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            tiny: false,
        },
        trace: trace.unwrap_or(false),
    })
}

fn print_named(label: &str, outcome: &Outcome) {
    for m in &outcome.named {
        println!(
            "{label} {:<22} {:>14.4} {:<4} [{}]",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "{label} {:<22} {} [failed submits or undecided instances]",
        "failed_ratio",
        outcome.ops.describe()
    );
    for cause in &outcome.failures {
        println!("{label} failure: {cause}");
    }
}

/// The result line. Only a checked run gets here: a violation exits first.
fn json(outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.ops.attempted.max(1),
        outcome.ops.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn end_to_end(workload: Workload, args: &Args) -> Result<String, String> {
    let mut off = SpanLog::new(false, Instant::now(), 0);
    let outcome = e2ebench::run(workload, &args.opts, false, &mut off)?;
    print_named(workload.name(), &outcome);
    let tail =
        stats::tail(&stats::sorted(outcome.latency_ms.clone())).ok_or("no latency samples")?;
    let values: BTreeMap<&str, f64> = [
        ("cpu_ms_per_op", outcome.cpu_ms_per_op),
        ("setup_s", outcome.setup_s),
        ("peak_rss_mb", outcome.peak_rss_mb),
    ]
    .into();
    println!(
        "{} tail = p{} of n={} ({} beyond); setup = median of {}",
        workload.name(),
        tail.pct,
        tail.samples,
        tail.beyond,
        outcome.setups
    );
    let metrics: Vec<_> = END_TO_END.iter().map(|&(n, u)| (n, u, values[n])).collect();
    for (name, unit, value) in &metrics {
        println!("e2e {name:<18} {value:>14.4} {unit}");
    }
    json(&outcome, &metrics)
}

fn per_layer(workload: Workload, args: &Args) -> Result<String, String> {
    let half = Opts {
        seconds: args.opts.seconds / 2.0,
        ..args.opts
    };
    let origin = Instant::now();
    let mut off = SpanLog::new(false, origin, 0);
    let untraced = e2ebench::run(workload, &half, false, &mut off)?;
    let mut spans = SpanLog::new(true, origin, 0);
    let mut traced = e2ebench::run(workload, &half, true, &mut spans)?;
    print_named(&format!("{} traced", workload.name()), &traced);

    // Cost-positive: how much worse tracing made the primary metric.
    let (u, higher_better) = workload.primary(&untraced);
    let (t, _) = workload.primary(&traced);
    let overhead = if higher_better {
        (u - t) / u
    } else {
        (t - u) / u
    } * 100.0;
    println!("trace primary untraced {u:.4} traced {t:.4} overhead {overhead:.2}%");
    traced.layer("trace.overhead_pct", overhead);
    traced.layer("trace.spans", spans.spans().len() as f64);
    // Wall-clock latency and throughput are per-layer metrics: on a shared
    // host they follow other tenants' load (see README.md). They are taken
    // with tracing off.
    traced.layer("latency_p50_ms", stats::median(&untraced.latency_ms));
    traced.layer("throughput_per_s", untraced.throughput);
    traced.layer("latency_tail_ms", stats::tail_value(&untraced.latency_ms));

    if matches!(workload, Workload::LogdOpen | Workload::LogdClosed) {
        let base = Opts {
            seconds: (args.opts.seconds / 4.0).min(2.0),
            ..args.opts
        };
        let acks = logd::baseline(&base, workload == Workload::LogdOpen)?;
        traced.layer_dist("baseline.ack_us_p50", "baseline.ack_us_p99", &acks);
        traced.layer("baseline.acks", acks.len() as f64);
    }

    println!("self time by span (count, total ms, self ms):");
    for (name, (count, total, own)) in spans::by_name(spans.spans()) {
        println!("  {name:<34} {count:>8} {total:>12.3} {own:>12.3}");
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        workload.name(),
        args.opts.seed
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_jsonl(spans.spans())))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, traced.layer.get(n).copied().unwrap_or(0.0)))
        .collect();
    for (name, unit, value) in &metrics {
        println!("layer {name:<34} {value:>14.4} {unit}");
    }
    let mut ops = untraced.ops;
    ops.attempted += traced.ops.attempted;
    ops.failed += traced.ops.failed;
    traced.ops = ops;
    json(&traced, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        per_layer(args.workload, &args)
    } else {
        end_to_end(args.workload, &args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: FAILED: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
