//! `sim-consensus` and `net-consensus`: the paper's early-stopping
//! consensus (A3, `EarlyConsensus`) against equivocating Byzantine members,
//! one seeded instance after another — on the simulator's `SyncEngine`,
//! and over localhost TCP through `run_local_cluster_with_byzantine`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use uba_adversary::attacks::ConsensusEquivocator;
use uba_core::consensus::EarlyConsensus;
use uba_core::harness::Setup;
use uba_net::{run_local_cluster_with_byzantine, AttackKind, NetConfig};
use uba_sim::{NodeId, SyncEngine};
use uba_trace::{RuntimeMetrics, SharedRuntimeMetrics, SharedTracer};

use crate::spans::{CountTracer, SpanLog};
use crate::stats::{self, mix, Rng};
use crate::{check, family, timing_mean, us, Opts, Outcome};

/// Round budget of one instance, far above A3's early-stopping bound.
const MAX_ROUNDS: u64 = 400;
/// Request ids of the warm-up instances, apart from the timed ones.
const WARM_UP_REQ: u64 = 1 << 62;
/// Warm-up instances per run; `setup_s` is the median of their times.
const CONSENSUS_SETUPS: u64 = 15;
/// Networked instances per second of window, and at most this many harness
/// calls in one process. Every harness call leaves its members' acceptor
/// threads blocked in `accept`, holding their listeners and socket clones
/// (about 66 descriptors per call), so a process stops well before a
/// 20000-descriptor limit, which 300 calls reach. Instance `k` starts no
/// earlier than `k / NET_INSTANCES_PER_SECOND` into the window, so the
/// instances spread over it. The count is fixed, not cut short when the
/// window closes: each call also leaves memory behind, so peak RSS repeats
/// only if every run makes the same number of calls.
const NET_INSTANCES_PER_SECOND: f64 = 6.0;
const NET_CALLS_PER_PROCESS: u64 = 240;
static NET_CALLS: AtomicU64 = AtomicU64::new(0);

/// One instance's population: `n_correct` honest members with split
/// inputs and `f` equivocators, all derived from the instance seed.
struct Instance {
    setup: Setup,
    inputs: Vec<u64>,
}

impl Instance {
    fn new(n_correct: usize, f: usize, seed: u64) -> Self {
        let setup = Setup::new(n_correct, f, seed);
        let mut rng = Rng::new(mix(seed ^ 0x1a9u64));
        let mut inputs: Vec<u64> = (0..n_correct).map(|_| rng.next_u64() & 1).collect();
        // Split inputs: both values always present among the correct nodes.
        if inputs.iter().all(|&v| v == inputs[0]) {
            inputs[0] ^= 1;
        }
        Instance { setup, inputs }
    }

    fn members(&self) -> Vec<EarlyConsensus<u64>> {
        self.setup
            .correct
            .iter()
            .zip(&self.inputs)
            .map(|(&id, &input)| EarlyConsensus::new(id, input))
            .collect()
    }

    fn verdict(&self, outputs: &BTreeMap<NodeId, u64>) -> Result<bool, String> {
        Ok(check::consensus(outputs, &self.setup.correct, &self.inputs)?.is_some())
    }

    /// The simulator run of this instance: decision and decision round of
    /// every correct node.
    fn sim_twin(&self) -> Result<BTreeMap<NodeId, (u64, u64)>, String> {
        let mut engine = SyncEngine::builder()
            .correct_many(self.members())
            .faulty_many(self.setup.faulty.iter().copied())
            .adversary(ConsensusEquivocator::new(0u64, 1u64))
            .build();
        let done = engine
            .run_to_completion(MAX_ROUNDS)
            .map_err(|e| format!("sim twin failed: {e}"))?;
        Ok(done
            .outputs
            .iter()
            .map(|(&id, &v)| (id, (v, done.decided_round.get(&id).copied().unwrap_or(0))))
            .collect())
    }
}

fn instance_seed(seed: u64, i: u64) -> u64 {
    mix(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i)
}

/// `sim-consensus`: n = 64 with f = 21 equivocators (n = 7, f = 2 when
/// tiny), single thread, no sockets.
pub fn run_sim(opts: &Opts, traced: bool, spans: &mut SpanLog) -> Result<Outcome, String> {
    let (n_correct, f) = if opts.tiny { (5, 2) } else { (43, 21) };
    let registry = SharedRuntimeMetrics::new();
    let events = SharedTracer::new(CountTracer::default());
    let mut out = Outcome::default();
    let root = spans.begin("sim-consensus", 0, 0);

    // Build the engine and drive it round by round until every correct
    // node decided, timing only the rounds.
    let instance = |i: u64, req: u64, round_us: &mut Vec<f64>, spans: &mut SpanLog| {
        let inst = Instance::new(n_correct, f, instance_seed(opts.seed, i));
        let span = spans.begin("instance", root, req);
        let cpu_at = stats::cpu_s();
        let built_at = Instant::now();
        let mut builder = SyncEngine::builder()
            .correct_many(inst.members())
            .faulty_many(inst.setup.faulty.iter().copied())
            .adversary(ConsensusEquivocator::new(0u64, 1u64));
        if traced {
            builder = builder
                .runtime_metrics(registry.clone())
                .tracer(events.clone());
        }
        let mut engine = builder.build();
        let started = Instant::now();
        let mut failure = None;
        while !engine.all_correct_decided() {
            if engine.round() >= MAX_ROUNDS {
                failure = Some(format!(
                    "instance {req}: no decision within {MAX_ROUNDS} rounds"
                ));
                break;
            }
            let round_span = spans.begin("try_run_round", span, req);
            let t0 = Instant::now();
            let round = engine.try_run_round();
            let t1 = Instant::now();
            spans.end(round_span);
            if let Err(e) = round {
                failure = Some(format!("instance {req}: try_run_round failed: {e}"));
                break;
            }
            if traced {
                round_us.push(us(t0, t1));
            }
        }
        let done = Instant::now();
        let cpu_s = stats::cpu_s() - cpu_at;
        spans.end(span);
        // Agreement and validity must hold among the nodes that decided,
        // whether or not the instance finished.
        let decided = inst.verdict(&engine.outputs())?;
        let failure = failure.or_else(|| {
            (!decided).then(|| format!("instance {req}: a correct node did not decide"))
        });
        Ok::<_, String>((
            failure,
            us(built_at, started),
            us(started, done),
            engine.round(),
            cpu_s,
        ))
    };

    // A set-up is one warm-up instance: engine build and rounds. The
    // engine allocates lazily, so its build alone takes microseconds.
    let mut setups = Vec::new();
    let mut scratch = Vec::new();
    for k in 0..CONSENSUS_SETUPS {
        let (failure, build_us, run_us, _, _) =
            instance(u64::MAX - k, WARM_UP_REQ + k, &mut scratch, spans)?;
        if let Some(cause) = failure {
            return Err(format!("warm-up {cause}"));
        }
        setups.push((build_us + run_us) / 1e6);
    }
    registry.with(|m| *m = RuntimeMetrics::new());
    let warm_up_events = events.with(|t| t.0);
    out.setup_s = stats::median(&setups);
    out.setups = setups.len();

    let (mut busy_s, mut build_ms, mut rounds, mut round_us) =
        (Vec::new(), Vec::new(), 0u64, Vec::new());
    let mut cpu_s = 0.0;
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < opts.window() {
        let (failure, build, run, r, cpu) = instance(i, i, &mut round_us, spans)?;
        cpu_s += cpu;
        let decided = failure.is_none();
        out.ops.attempt(decided);
        out.failures.extend(failure);
        if decided {
            out.latency_ms.push(run / 1e3);
            busy_s.push((build + run) / 1e6);
        }
        build_ms.push(build / 1e3);
        rounds += r;
        i += 1;
    }
    spans.end(root);
    let decided = out.latency_ms.len() as f64;
    out.throughput = 1.0 / stats::median(&busy_s);
    out.cpu_ms_per_op = cpu_s * 1e3 / decided;
    out.peak_rss_mb = stats::peak_rss_mb();

    let latency = out.latency_ms.clone();
    out.push_dist("decide_ms", "ms", &latency);
    out.push(
        "decisions_per_s",
        out.throughput,
        "1/s",
        format!("1 / median instance time, {decided} instances"),
    );
    out.push(
        "cpu_ms_per_decision",
        out.cpu_ms_per_op,
        "ms",
        format!("engine build and rounds of {i} instances / {decided} decided"),
    );

    if traced {
        let m = registry.snapshot();
        let per = |v: f64| v / i as f64;
        out.layer_dist("sim.round_us_p50", "sim.round_us_p99", &round_us);
        out.layer(
            "sim.step_us_mean",
            timing_mean(&m, "sim_round_phase_micros{phase=\"step\"}"),
        );
        out.layer(
            "sim.adversary_us_mean",
            timing_mean(&m, "sim_round_phase_micros{phase=\"adversary\"}"),
        );
        out.layer(
            "sim.deliver_us_mean",
            timing_mean(&m, "sim_round_phase_micros{phase=\"deliver\"}"),
        );
        out.layer("sim.rounds_per_instance", per(rounds as f64));
        out.layer(
            "sim.envelopes_per_instance",
            per(m.counter("sim_envelopes_delivered_total") as f64),
        );
        out.layer(
            "sim.duplicate_drops_per_instance",
            per(m.counter("sim_duplicate_drops_total") as f64),
        );
        out.layer("setup.spawn_ms", stats::median(&build_ms));
        out.layer(
            "trace.events",
            (events.with(|t| t.0) - warm_up_events) as f64,
        );
    }
    Ok(out)
}

/// Transport config: unpaced rounds, with a barrier deadline far above a
/// localhost round (1-2 ms on two vCPUs), so a timeout only ever means a
/// peer left. The wire equivocator can leave before the last honest
/// decision when decisions are staggered across rounds; the honest members
/// then wait `round_timeout` for `give_up_after` rounds before writing it
/// off. The deadline and give-up bound that wait; it shows in
/// `net.timeouts` and in the harness call time, not in decide latency.
fn net_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_millis(300),
        give_up_after: 1,
        setup_timeout: Duration::from_secs(30),
        max_rounds: MAX_ROUNDS,
        ..NetConfig::default()
    }
}

/// What one networked instance yielded.
struct NetInstance {
    failure: Option<String>,
    decided: bool,
    /// Wall time of the harness call.
    call_us: f64,
    /// Process CPU time during the call, in seconds.
    cpu_s: f64,
    /// The call up to the last correct decision: the call minus the rounds
    /// that follow it (shutdown, and any wait for a departed peer).
    until_decided_us: f64,
    decide_ms: f64,
    rounds: u64,
    round_us: Vec<f64>,
    timeouts: u64,
    evictions: u64,
    events: u64,
}

/// `net-consensus`: 5 honest members and 2 wire equivocators (the T15
/// cell; 3 + 1 when tiny) over localhost TCP, instances back to back.
pub fn run_net(opts: &Opts, traced: bool, spans: &mut SpanLog) -> Result<Outcome, String> {
    let (n_correct, f) = if opts.tiny { (3, 1) } else { (5, 2) };
    let attack = AttackKind::parse("equivocate").ok_or("unknown attack")?;
    let registry = SharedRuntimeMetrics::new();
    let mut out = Outcome::default();
    let root = spans.begin("net-consensus", 0, 0);

    let instance = |i: u64, req: u64, spans: &mut SpanLog| -> Result<NetInstance, String> {
        NET_CALLS.fetch_add(1, Ordering::Relaxed);
        let seed = instance_seed(opts.seed, i);
        let inst = Instance::new(n_correct, f, seed);
        let span = spans.begin("instance", root, req);
        let call = spans.begin("run_local_cluster_with_byzantine", span, req);
        let cpu_at = stats::cpu_s();
        let t0 = Instant::now();
        let run = run_local_cluster_with_byzantine(
            inst.members(),
            &inst.setup.faulty,
            attack.clone(),
            seed,
            net_config(),
            |_| CountTracer::default(),
            |_| traced.then(|| registry.clone()),
        );
        let call_us = us(t0, Instant::now());
        let cpu_s = stats::cpu_s() - cpu_at;
        spans.end(call);
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                spans.end(span);
                return Ok(NetInstance {
                    failure: Some(format!("instance {req}: {e}")),
                    decided: false,
                    call_us,
                    cpu_s,
                    until_decided_us: call_us,
                    decide_ms: 0.0,
                    rounds: 0,
                    round_us: Vec::new(),
                    timeouts: 0,
                    evictions: 0,
                    events: 0,
                });
            }
        };
        let twin_span = spans.begin("sim_twin", span, req);
        let outputs: BTreeMap<NodeId, u64> = run
            .honest
            .iter()
            .filter_map(|(&id, r)| r.output.map(|v| (id, v)))
            .collect();
        let decided = inst.verdict(&outputs)?;
        if decided {
            let net = run
                .honest
                .iter()
                .filter_map(|(&id, r)| Some((id, (r.output?, r.decided_round?))))
                .collect();
            check::twin(&net, &inst.sim_twin()?)?;
        }
        spans.end(twin_span);
        spans.end(span);
        // Decide latency: the rounds before the last correct decision's
        // round, so mesh set-up, the deciding round's barrier and teardown
        // are excluded.
        let last = run
            .honest
            .values()
            .filter_map(|r| r.decided_round)
            .max()
            .unwrap_or(0);
        let before = |r: &uba_net::NetReport<u64, CountTracer>| -> u64 {
            r.round_micros
                .iter()
                .take(last.saturating_sub(1) as usize)
                .sum()
        };
        let decide_us = run.honest.values().map(before).max().unwrap_or(0);
        let after_us = run
            .honest
            .values()
            .map(|r| r.round_micros.iter().sum::<u64>() - before(r))
            .max()
            .unwrap_or(0);
        Ok(NetInstance {
            failure: (!decided).then(|| format!("instance {req}: a correct member did not decide")),
            decided,
            call_us,
            cpu_s,
            until_decided_us: call_us - after_us as f64,
            decide_ms: decide_us as f64 / 1e3,
            rounds: run.honest.values().map(|r| r.rounds).max().unwrap_or(0),
            round_us: run
                .honest
                .values()
                .flat_map(|r| r.round_micros.iter().map(|&u| u as f64))
                .collect(),
            timeouts: run.honest.values().map(|r| r.timeouts).sum(),
            evictions: run.honest.values().map(|r| r.evicted.len() as u64).sum(),
            events: run.honest.values().map(|r| r.tracer.0).sum(),
        })
    };

    let mut setups = Vec::new();
    for k in 0..CONSENSUS_SETUPS {
        let warm = instance(u64::MAX - k, WARM_UP_REQ + k, spans)?;
        if !warm.decided {
            return Err("warm-up instance did not decide".into());
        }
        setups.push(warm.call_us / 1e6);
    }
    registry.with(|m| *m = RuntimeMetrics::new());
    out.setup_s = stats::median(&setups);
    out.setups = setups.len();

    let (mut busy_s, mut rounds, mut round_us, mut spawn_ms) =
        (Vec::new(), 0, Vec::new(), Vec::new());
    let (mut timeouts, mut evictions, mut events, mut stalled) = (0, 0, 0, 0u64);
    let (mut calls_ms, mut cpu_s) = (Vec::new(), 0.0);
    let mut i = 0;
    let count = (NET_INSTANCES_PER_SECOND * opts.seconds).ceil() as u64;
    let start = Instant::now();
    while i < count && NET_CALLS.load(Ordering::Relaxed) < NET_CALLS_PER_PROCESS {
        let due = start + Duration::from_secs_f64(i as f64 / NET_INSTANCES_PER_SECOND);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let inst = instance(i, i, spans)?;
        cpu_s += inst.cpu_s;
        out.ops.attempt(inst.decided);
        out.failures.extend(inst.failure);
        if inst.decided {
            out.latency_ms.push(inst.decide_ms);
            busy_s.push(inst.until_decided_us / 1e6);
        }
        calls_ms.push(inst.call_us / 1e3);
        stalled += u64::from(inst.timeouts > 0);
        spawn_ms
            .push(inst.call_us / 1e3 - inst.round_us.iter().sum::<f64>() / 1e3 / n_correct as f64);
        rounds += inst.rounds;
        round_us.extend(inst.round_us);
        timeouts += inst.timeouts;
        evictions += inst.evictions;
        events += inst.events;
        i += 1;
    }
    spans.end(root);
    let decided = out.latency_ms.len() as f64;
    out.throughput = 1.0 / stats::median(&busy_s);
    out.cpu_ms_per_op = cpu_s * 1e3 / decided;
    out.peak_rss_mb = stats::peak_rss_mb();

    let latency = out.latency_ms.clone();
    out.push_dist("decide_ms", "ms", &latency);
    out.push(
        "decisions_per_s",
        out.throughput,
        "1/s",
        format!("1 / median time from call to last decision, {decided} instances"),
    );
    out.push(
        "cpu_ms_per_decision",
        out.cpu_ms_per_op,
        "ms",
        format!("harness calls of {i} instances, mesh set-up included / {decided} decided"),
    );
    out.push_dist("harness_call_ms", "ms", &calls_ms);
    out.push(
        "instances_with_timeouts",
        stalled as f64,
        "count",
        format!("of {i}; a member waited out a departed peer"),
    );

    if traced {
        let m = registry.snapshot();
        let per = |v: f64| v / i as f64;
        out.layer_dist("net.round_us_p50", "net.round_us_p99", &round_us);
        out.net_phase_means(&m);
        out.layer("net.rounds_per_instance", per(rounds as f64));
        out.layer(
            "net.frames_per_instance",
            per(family(&m, "net_frames_sent_total")),
        );
        out.layer(
            "net.bytes_per_instance",
            per(family(&m, "net_bytes_sent_total")),
        );
        out.layer("net.timeouts", timeouts as f64);
        out.layer("net.reconnects", family(&m, "net_reconnects_total"));
        out.layer("byz.strikes", family(&m, "net_misbehavior_total"));
        out.layer("byz.evictions", evictions as f64);
        out.layer("setup.spawn_ms", stats::median(&spawn_ms));
        out.layer("trace.events", events as f64);
    }
    Ok(out)
}
