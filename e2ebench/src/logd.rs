//! `logd-open` and `logd-closed`: the key-sharded log service
//! (`spawn_log_cluster`) under client load through `LogClient`, in the
//! same process as the load generator. No network delay is injected; the
//! only delay is localhost loopback.

use std::collections::{BTreeMap, HashMap};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use uba_net::{
    serve_clients, shard_of, spawn_log_cluster, LogClient, LogCluster, LogIngress, NetConfig,
};
use uba_sim::{sparse_ids, NodeId};
use uba_trace::{NoopTracer, SharedRuntimeMetrics};

use crate::check::{self, record_id, Ack};
use crate::spans::{CountTracer, SpanId, SpanLog};
use crate::stats::{self, mix, Rng};
use crate::{family, us, Opts, Outcome};

const MEMBERS: usize = 4;
const SHARDS: u32 = 4;
const ROUND_PACE: Duration = Duration::from_millis(10);
/// The tail reader polls every shard at least this often.
const READ_EVERY: Duration = Duration::from_millis(2);
/// Ingest window of the short-lived set-up clusters, in rounds.
const SETUP_INGEST_ROUNDS: u64 = 30;
/// Set-ups of throwaway clusters before the measured ones. `setup_s` is
/// the median over these and every measured cluster's set-up.
const THROWAWAY_SETUPS: u64 = 2;
/// The longest load window one cluster takes (see [`run`]).
const SEGMENT: Duration = Duration::from_secs(10);
/// Rounds allowed for set-up before the load starts, and spare rounds
/// after it ends: the ingest window outlasts the load by construction.
const PRE_LOAD_ROUNDS: u64 = 40;
const POST_LOAD_ROUNDS: u64 = 60;
/// How long acked records may take to reach the tail reader after the
/// load ends before the run fails.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(30);
/// Acked but unfinalized records a closed-loop connection may have
/// outstanding. Without a bound, ack-paced clients outrun the ordering
/// rounds: batches grow until members strike each other on the ingress
/// quotas, evict each other, and acked records go missing. With a bound,
/// committed records per second rise with the window until the service's
/// capacity. This is the largest window of the sweep in `README.md` whose
/// runs repeat well inside the benchmark's bound; at 1000, where the rate
/// stopped rising, runs split between two rates of window refills.
const COMMIT_WINDOW: u64 = 600;
/// Submission ids: warm-up records, closed-loop clients and the
/// service-only baseline live in ranges of their own.
const WARM_UP_ID: u64 = 1 << 50;
const CLIENT_ID_SHIFT: u32 = 40;
const BASELINE_ID: u64 = 1 << 52;

/// The load shape of one workload.
///
/// The open loop offers 500 records/s. Every round re-flattens each
/// shard's whole finalized prefix, so round time, and with it commit
/// latency, grows with the log. At 3000 records/s commit latency climbs
/// from about 0.3 s to 0.9 s within a 6 s window; at 1000 records/s from
/// about 0.16 s to 0.3 s, and its median still moved by a quarter between
/// runs. At 500 records/s the median stays near the round pace times the
/// finality depth, as the workload intends.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Open-loop submissions per second.
    rate: f64,
    keys: usize,
    /// Zipf-skewed keys (open loop) or uniform keys (closed loop).
    skewed: bool,
    payload: (usize, usize),
    /// Closed-loop commit window per connection.
    commit_window: u64,
}

impl Shape {
    fn new(open: bool, tiny: bool) -> Self {
        Shape {
            rate: 500.0,
            keys: if tiny { 64 } else { 1024 },
            skewed: open,
            payload: if open { (16, 64) } else { (512, 512) },
            // A tiny run must see commits within its 2 s window.
            commit_window: if tiny { 100 } else { COMMIT_WINDOW },
        }
    }
}

/// Every submission's key and payload, as a pure function of the seed and
/// the submission id — so the checker can regenerate what was sent.
struct Inputs {
    seed: u64,
    keys: Vec<String>,
    /// Cumulative Zipf(1) weights over the keys, when skewed.
    cdf: Option<Vec<f64>>,
    payload: (usize, usize),
}

impl Inputs {
    fn new(seed: u64, shape: &Shape) -> Self {
        let keys = (0..shape.keys as u64)
            .map(|i| format!("key-{:016x}", mix(seed ^ mix(i))))
            .collect();
        let cdf = shape.skewed.then(|| {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (1..=shape.keys)
                .map(|rank| {
                    acc += 1.0 / rank as f64;
                    acc
                })
                .collect();
            cdf.iter_mut().for_each(|c| *c /= acc);
            cdf
        });
        Inputs {
            seed,
            keys,
            cdf,
            payload: shape.payload,
        }
    }

    /// The submission with id `id`: its key, and a payload that starts
    /// with the id (so every payload is distinct and traceable).
    fn make(&self, id: u64) -> (String, Vec<u8>) {
        let mut rng = Rng::new(mix(self.seed ^ mix(id)));
        let key = match &self.cdf {
            Some(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
            }
            None => rng.range(0, self.keys.len() - 1),
        };
        let len = rng.range(self.payload.0, self.payload.1);
        let mut payload = id.to_le_bytes().to_vec();
        while payload.len() < len {
            payload.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        payload.truncate(len);
        (self.keys[key].clone(), payload)
    }
}

fn config(ingest_until: u64) -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_secs(10),
        setup_timeout: Duration::from_secs(30),
        max_rounds: uba_net::service_horizon(MEMBERS, ingest_until) + 100,
        round_pace: ROUND_PACE,
        ..NetConfig::default()
    }
}

fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// What one submitter connection observed.
#[derive(Debug, Default)]
struct SubmitLog {
    /// Acked submissions and where they were acked.
    acks: Vec<(u64, Ack)>,
    attempted: u64,
    refused: u64,
    /// Ack latency from the due time (open loop) or send time (closed).
    ack_us: Vec<f64>,
    /// `LogClient::submit` call time, from send.
    submit_us: Vec<f64>,
    /// How late each open-loop submission was sent.
    lag_ms: Vec<f64>,
    /// `read_prefix` call times and records returned per call.
    read_us: Vec<f64>,
    read_records: Vec<f64>,
    /// Closed loop: records the connection saw in a finalized prefix
    /// within the load window, and when it last saw new ones.
    committed: u64,
    last_commit: Option<Instant>,
    /// Closed loop: from send until the connection's own poll first saw
    /// the record in a finalized prefix.
    commit_ms: Vec<f64>,
    spans: Option<SpanLog>,
}

impl SubmitLog {
    fn merge(&mut self, other: SubmitLog) {
        self.acks.extend(other.acks);
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.ack_us.extend(other.ack_us);
        self.submit_us.extend(other.submit_us);
        self.lag_ms.extend(other.lag_ms);
        self.read_us.extend(other.read_us);
        self.read_records.extend(other.read_records);
        self.committed += other.committed;
        self.last_commit = self.last_commit.max(other.last_commit);
        self.commit_ms.extend(other.commit_ms);
    }
}

/// Submits one record and books the outcome. `due` is when it was
/// scheduled; `Ok(false)` means the service refused it.
#[allow(clippy::too_many_arguments)]
fn submit(
    client: &mut LogClient,
    inputs: &Inputs,
    id: u64,
    node: u64,
    due: Instant,
    log: &mut SubmitLog,
    spans: &mut SpanLog,
    parent: SpanId,
) -> Result<bool, String> {
    let (key, payload) = inputs.make(id);
    let sent = Instant::now();
    let reply = client.submit(&key, &payload).map_err(io("submit"))?;
    let acked = Instant::now();
    spans.record("submit", parent, id, sent, acked);
    log.attempted += 1;
    let Some((shard, seq)) = reply else {
        log.refused += 1;
        return Ok(false);
    };
    if shard != shard_of(&key, SHARDS) {
        return Err(format!(
            "submission {id} acked into the wrong shard {shard}"
        ));
    }
    log.acks.push((id, Ack { node, shard, seq }));
    log.ack_us.push(us(due, acked));
    log.submit_us.push(us(sent, acked));
    Ok(true)
}

/// One open-loop connection: submission `k` is due at `start + k / rate`
/// and is timed from that due time, however late it is actually sent.
#[allow(clippy::too_many_arguments)]
fn submit_open(
    mut client: LogClient,
    inputs: &Inputs,
    node: u64,
    rate: f64,
    start: Instant,
    window: Duration,
    mut spans: SpanLog,
    parent: SpanId,
) -> Result<SubmitLog, String> {
    let mut log = SubmitLog::default();
    let mut closed = false;
    for k in 0u64.. {
        let offset = Duration::from_secs_f64(k as f64 / rate);
        if offset >= window {
            break;
        }
        // Once the service closed its ingest, every submission still due
        // in the window counts as attempted and refused.
        if closed {
            log.attempted += 1;
            log.refused += 1;
            continue;
        }
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        log.lag_ms.push(us(due, Instant::now()) / 1e3);
        closed = !submit(
            &mut client,
            inputs,
            k,
            node,
            due,
            &mut log,
            &mut spans,
            parent,
        )?;
    }
    log.spans = Some(spans);
    Ok(log)
}

/// One closed-loop connection: the next submission goes out as soon as
/// the previous ack returns, until the window closes. With a commit
/// `window`, at most that many of the connection's acked records may be
/// unfinalized at once: when the window is full, the connection polls
/// `read_prefix` for its own records before submitting again. A refused
/// submission ends the connection: the service closes it on refusal.
#[allow(clippy::too_many_arguments)]
fn submit_closed(
    mut client: LogClient,
    inputs: &Inputs,
    node: u64,
    client_no: u64,
    deadline: Instant,
    window: Option<u64>,
    mut spans: SpanLog,
    parent: SpanId,
) -> Result<SubmitLog, String> {
    let mut log = SubmitLog::default();
    let base = (client_no + 1) << CLIENT_ID_SHIFT;
    let mut last = [0u64; SHARDS as usize];
    let mut next = 0u64;
    let mut sent_at = HashMap::new();
    while Instant::now() < deadline {
        if window.is_some_and(|w| log.acks.len() as u64 - log.committed >= w) {
            let mut seen = 0;
            for shard in 0..SHARDS {
                let t0 = Instant::now();
                let page = client
                    .read_prefix(shard, last[shard as usize])
                    .map_err(io("read_prefix"))?;
                let t1 = Instant::now();
                spans.record("read_prefix", parent, shard.into(), t0, t1);
                log.read_us.push(us(t0, t1));
                log.read_records.push(page.records.len() as f64);
                last[shard as usize] += page.records.len() as u64;
                for id in page.records.iter().filter_map(record_id) {
                    if let Some(sent) = sent_at.remove(&id) {
                        log.commit_ms.push(us(sent, t1) / 1e3);
                        seen += 1;
                    }
                }
            }
            if seen == 0 {
                thread::sleep(Duration::from_millis(1));
            } else {
                log.committed += seen;
                log.last_commit = Some(Instant::now());
            }
            continue;
        }
        let sent = Instant::now();
        if !submit(
            &mut client,
            inputs,
            base + next,
            node,
            sent,
            &mut log,
            &mut spans,
            parent,
        )? {
            break;
        }
        sent_at.insert(base + next, sent);
        next += 1;
    }
    log.spans = Some(spans);
    Ok(log)
}

/// A running cluster with the load generator's two connections, to
/// members A and B.
struct Live {
    cluster: LogCluster<CountTracer>,
    a: LogClient,
    b: LogClient,
}

/// Set-up timings, in milliseconds from the `spawn_log_cluster` call.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    spawn_ms: f64,
    first_ack_ms: f64,
    /// Until the warm-up record shows in member B's finalized prefix: the
    /// mesh is up and one record went through the whole pipeline.
    ready_ms: f64,
}

#[allow(clippy::too_many_arguments)]
fn set_up(
    ids: &[NodeId],
    ingest_until: u64,
    registry: Option<&SharedRuntimeMetrics>,
    inputs: &Inputs,
    warm_id: u64,
    acked: &mut HashMap<u64, Ack>,
    spans: &mut SpanLog,
    parent: SpanId,
) -> Result<(Live, SetupTimes), String> {
    let t0 = Instant::now();
    let span = spans.begin("spawn_log_cluster", parent, warm_id);
    let cluster = spawn_log_cluster(
        ids,
        SHARDS,
        ingest_until,
        config(ingest_until),
        |_| CountTracer::default(),
        |_| registry.cloned(),
    )
    .map_err(|e| format!("spawn_log_cluster: {e}"))?;
    spans.end(span);
    let spawn_ms = us(t0, Instant::now()) / 1e3;
    let connect =
        |id: NodeId| LogClient::connect(cluster.client_addrs()[&id]).map_err(io("connect"));
    let (mut a, mut b) = (connect(ids[0])?, connect(ids[1])?);

    let mut log = SubmitLog::default();
    if !submit(
        &mut a,
        inputs,
        warm_id,
        ids[0].raw(),
        Instant::now(),
        &mut log,
        spans,
        parent,
    )? {
        return Err("warm-up submission refused".into());
    }
    let first_ack_ms = us(t0, Instant::now()) / 1e3;
    let (_, ack) = log.acks[0];
    acked.insert(warm_id, ack);
    loop {
        let page = b.read_prefix(ack.shard, 0).map_err(io("read_prefix"))?;
        if page.records.iter().any(|r| record_id(r) == Some(warm_id)) {
            break;
        }
        if page.sealed || t0.elapsed() > COMMIT_TIMEOUT {
            return Err("warm-up record never reached the finalized prefix".into());
        }
        thread::sleep(Duration::from_millis(1));
    }
    let ready_ms = us(t0, Instant::now()) / 1e3;
    Ok((
        Live { cluster, a, b },
        SetupTimes {
            spawn_ms,
            first_ack_ms,
            ready_ms,
        },
    ))
}

/// Waits for the horizon, checks every member's sealed log against the
/// acks, and stops the cluster.
fn finish(
    mut cluster: LogCluster<CountTracer>,
    acked: &HashMap<u64, Ack>,
    inputs: &Inputs,
    spans: &mut SpanLog,
    parent: SpanId,
) -> Result<Finished, String> {
    let span = spans.begin("join_ordering", parent, 0);
    let reports = cluster
        .join_ordering()
        .map_err(|e| format!("ordering failed: {e}"))?;
    let joined_cpu_s = stats::cpu_s();
    spans.end(span);
    let mut prefixes = BTreeMap::new();
    for (&id, report) in &reports {
        let output = report
            .output
            .clone()
            .ok_or(format!("member {id} did not seal its log"))?;
        prefixes.insert(id, output);
    }
    let records = check::log(&prefixes, SHARDS, acked, |id| inputs.make(id))?;
    cluster.shutdown();
    Ok(Finished {
        joined_cpu_s,
        records,
        rounds: reports.values().map(|r| r.rounds as f64).collect(),
        round_us: reports
            .values()
            .flat_map(|r| r.round_micros.iter().map(|&u| u as f64))
            .collect(),
        timeouts: reports.values().map(|r| r.timeouts).sum(),
        evictions: reports.values().map(|r| r.evicted.len() as u64).sum(),
        events: reports.values().map(|r| r.tracer.0).sum(),
    })
}

struct Finished {
    /// Process CPU time when every member had sealed its log, in seconds.
    joined_cpu_s: f64,
    records: usize,
    rounds: Vec<f64>,
    round_us: Vec<f64>,
    timeouts: u64,
    evictions: u64,
    events: u64,
}

/// The tail reader: polls `read_prefix(shard, last)` on member B for every
/// shard at least every [`READ_EVERY`], and books when each load record
/// first shows. Returns once every acked load record was seen.
struct Reader {
    commit_ms: HashMap<u64, f64>,
    /// When the last load record first showed.
    last_commit: Instant,
    read_us: Vec<f64>,
    read_records: Vec<f64>,
}

fn read_tail(
    client: &mut LogClient,
    start: Instant,
    rate: f64,
    done: &AtomicBool,
    acked_load: &AtomicU64,
    spans: &mut SpanLog,
    parent: SpanId,
) -> Result<Reader, String> {
    let mut reader = Reader {
        commit_ms: HashMap::new(),
        last_commit: start,
        read_us: Vec::new(),
        read_records: Vec::new(),
    };
    let mut last = [0u64; SHARDS as usize];
    let mut done_at = None;
    let mut call = 0u64;
    loop {
        let cycle = Instant::now();
        for shard in 0..SHARDS {
            let t0 = Instant::now();
            let page = client
                .read_prefix(shard, last[shard as usize])
                .map_err(io("read_prefix"))?;
            let t1 = Instant::now();
            spans.record("read_prefix", parent, call, t0, t1);
            call += 1;
            reader.read_us.push(us(t0, t1));
            reader.read_records.push(page.records.len() as f64);
            last[shard as usize] += page.records.len() as u64;
            for record in &page.records {
                let id = record_id(record).ok_or("record without a submission id")?;
                if id < WARM_UP_ID {
                    let due = start + Duration::from_secs_f64(id as f64 / rate);
                    reader.commit_ms.entry(id).or_insert(us(due, t1) / 1e3);
                    reader.last_commit = t1;
                }
            }
        }
        if done.load(Ordering::SeqCst) {
            if reader.commit_ms.len() as u64 >= acked_load.load(Ordering::SeqCst) {
                return Ok(reader);
            }
            let since = *done_at.get_or_insert(cycle);
            if since.elapsed() > COMMIT_TIMEOUT {
                return Err("acked records did not reach the tail reader in time".into());
            }
        }
        let next = cycle + READ_EVERY;
        let now = Instant::now();
        if next > now {
            thread::sleep(next - now);
        }
    }
}

/// What one measured cluster yielded.
struct Segment {
    /// The submitters' log, with the tail reader's calls merged in.
    load: SubmitLog,
    /// Commit latency of every load record, in milliseconds.
    commit_ms: Vec<f64>,
    /// Records seen finalized, and the seconds from the start of the load
    /// until the last of them was.
    committed: usize,
    busy_s: f64,
    /// Process CPU time from the start of the load until every member
    /// sealed its log.
    cpu_s: f64,
    setup: SetupTimes,
    fin: Finished,
}

/// Runs one measured cluster: set-up, `window` of load, then the horizon
/// and the check of every member's sealed log.
#[allow(clippy::too_many_arguments)]
fn segment(
    ids: &[NodeId],
    shape: Shape,
    inputs: &Inputs,
    window: Duration,
    warm_id: u64,
    registry: Option<&SharedRuntimeMetrics>,
    spans: &mut SpanLog,
    root: SpanId,
) -> Result<Segment, String> {
    let open = shape.skewed;
    let window_rounds = (window.as_secs_f64() / ROUND_PACE.as_secs_f64()).ceil() as u64;
    let ingest_until = PRE_LOAD_ROUNDS + window_rounds + POST_LOAD_ROUNDS;
    let mut acked = HashMap::new();
    let (live, setup) = set_up(
        ids,
        ingest_until,
        registry,
        inputs,
        warm_id,
        &mut acked,
        spans,
        root,
    )?;
    let Live { cluster, a, mut b } = live;

    let (a_node, b_node) = (ids[0].raw(), ids[1].raw());
    let cpu_at = stats::cpu_s();
    let start = Instant::now();
    let deadline = start + window;
    let done = AtomicBool::new(false);
    let acked_load = AtomicU64::new(0);
    let (mut load, reader) = thread::scope(|s| -> Result<(SubmitLog, Option<Reader>), String> {
        if open {
            let (done, acked_load) = (&done, &acked_load);
            let sub_spans = spans.fork(1);
            let submitter = s.spawn(move || {
                let log = submit_open(
                    a, inputs, a_node, shape.rate, start, window, sub_spans, root,
                );
                if let Ok(log) = &log {
                    acked_load.store(log.acks.len() as u64, Ordering::SeqCst);
                }
                done.store(true, Ordering::SeqCst);
                log
            });
            let reader = read_tail(&mut b, start, shape.rate, done, acked_load, spans, root);
            let load = submitter.join().map_err(|_| "submitter panicked")??;
            Ok((load, Some(reader?)))
        } else {
            let handles: Vec<_> = [(a, a_node), (b, b_node)]
                .into_iter()
                .enumerate()
                .map(|(c, (client, node))| {
                    let sub_spans = spans.fork(1 + c as u64);
                    s.spawn(move || {
                        submit_closed(
                            client,
                            inputs,
                            node,
                            c as u64,
                            deadline,
                            Some(shape.commit_window),
                            sub_spans,
                            root,
                        )
                    })
                })
                .collect();
            let mut load = SubmitLog::default();
            for h in handles {
                let mut log = h.join().map_err(|_| "submitter panicked")??;
                if let Some(s) = log.spans.take() {
                    spans.absorb(s);
                }
                load.merge(log);
            }
            Ok((load, None))
        }
    })?;
    // Records over the time from the start of the load until the last of
    // them was seen finalized: by the tail reader (open loop), or by the
    // connections' own polls within the load window (closed loop). A
    // closed-loop connection's records finalize a window at a time, so
    // this rather than a count per second of window, which moves in steps
    // of a window.
    let (committed, last_commit) = match &reader {
        Some(reader) => (load.acks.len(), reader.last_commit),
        None => (
            load.committed as usize,
            load.last_commit.unwrap_or(deadline),
        ),
    };
    if let Some(s) = load.spans.take() {
        spans.absorb(s);
    }

    acked.extend(load.acks.iter().copied());
    let fin = finish(cluster, &acked, inputs, spans, root)?;
    let commit_ms = match reader {
        Some(reader) => {
            load.read_us.extend(reader.read_us);
            load.read_records.extend(reader.read_records);
            reader.commit_ms.into_values().collect()
        }
        None => std::mem::take(&mut load.commit_ms),
    };
    Ok(Segment {
        load,
        commit_ms,
        committed,
        busy_s: us(start, last_commit) / 1e6,
        cpu_s: fin.joined_cpu_s - cpu_at,
        setup,
        fin,
    })
}

/// Runs `logd-open` (`open`) or `logd-closed`.
///
/// The window is cut into segments of at most [`SEGMENT`], each on a fresh
/// cluster with inputs of its own. Round work grows with the log (finding
/// 4 in `README.md`), so a longer window on one cluster would be a heavier
/// workload, not a longer sample of the same one.
pub fn run(opts: &Opts, open: bool, traced: bool, spans: &mut SpanLog) -> Result<Outcome, String> {
    let shape = Shape::new(open, opts.tiny);
    let ids = sparse_ids(MEMBERS, mix(opts.seed ^ 0x10d));
    let registry = SharedRuntimeMetrics::new();
    let mut out = Outcome::default();
    let root = spans.begin(if open { "logd-open" } else { "logd-closed" }, 0, 0);

    // Throwaway set-ups first; each must show its warm-up record exactly
    // once.
    let inputs = Inputs::new(opts.seed, &shape);
    let mut times = Vec::new();
    for k in 0..THROWAWAY_SETUPS {
        let mut warm_acked = HashMap::new();
        let (live, t) = set_up(
            &ids,
            SETUP_INGEST_ROUNDS,
            None,
            &inputs,
            WARM_UP_ID + k,
            &mut warm_acked,
            spans,
            root,
        )?;
        times.push(t);
        finish(live.cluster, &warm_acked, &inputs, spans, root)?;
    }

    let segments = (opts.seconds / SEGMENT.as_secs_f64()).ceil().max(1.0) as u64;
    let window = opts.window() / segments as u32;
    let mut load = SubmitLog::default();
    let (mut committed, mut busy_s, mut cpu_s) = (0, 0.0, 0.0);
    let mut fins = Vec::new();
    for seg in 0..segments {
        let inputs = Inputs::new(mix(opts.seed ^ (seg + 1)), &shape);
        let part = segment(
            &ids,
            shape,
            &inputs,
            window,
            WARM_UP_ID + THROWAWAY_SETUPS + seg,
            traced.then_some(&registry),
            spans,
            root,
        )?;
        times.push(part.setup);
        out.latency_ms.extend(part.commit_ms);
        load.merge(part.load);
        committed += part.committed;
        busy_s += part.busy_s;
        cpu_s += part.cpu_s;
        fins.push(part.fin);
        // Peak memory through the first measured cluster. Later clusters
        // reuse memory the earlier ones freed, by amounts that differ from
        // run to run (whole-run peaks of 54 to 66 MiB over four runs at
        // three clusters), so their peaks would measure the allocator's
        // reuse rather than the service.
        if seg == 0 {
            out.peak_rss_mb = stats::peak_rss_mb();
        }
    }
    spans.end(root);
    let median_of =
        |f: fn(&SetupTimes) -> f64| stats::median(&times.iter().map(f).collect::<Vec<_>>());
    out.setup_s = median_of(|t| t.ready_ms) / 1e3;
    out.setups = times.len();
    let acked_count = load.acks.len();
    out.throughput = committed as f64 / busy_s;
    // Every thread's CPU from the start of each load until every member
    // sealed its log, per acked load record (all of which the check found
    // in the sealed logs).
    out.cpu_ms_per_op = cpu_s * 1e3 / acked_count as f64;
    out.ops.attempted = load.attempted;
    out.ops.failed = load.refused;
    if load.refused > 0 {
        out.failures.push(format!(
            "{} submissions refused: the ingest cutoff closed before the load ended",
            load.refused
        ));
    }

    let commit = out.latency_ms.clone();
    out.push_dist("commit_ms", "ms", &commit);
    out.push_dist("ack_us", "us", &load.ack_us);
    out.push(
        "committed_per_s",
        out.throughput,
        "1/s",
        format!(
            "{committed} records finalized, {acked_count} acked, measured clusters: {segments}"
        ),
    );
    out.push(
        "peak_rss_mb_whole_run",
        stats::peak_rss_mb(),
        "MiB",
        format!("VmHWM after all {segments} measured clusters"),
    );
    out.push(
        "cpu_ms_per_record",
        out.cpu_ms_per_op,
        "ms",
        format!("from each load's start until every log sealed / {acked_count} records"),
    );

    if traced {
        let m = registry.snapshot();
        let round_us: Vec<f64> = fins.iter().flat_map(|f| f.round_us.clone()).collect();
        let rounds: Vec<f64> = fins.iter().flat_map(|f| f.rounds.clone()).collect();
        let records: usize = fins.iter().map(|f| f.records).sum();
        let sum = |f: fn(&Finished) -> u64| fins.iter().map(f).sum::<u64>() as f64;
        out.layer_dist("net.round_us_p50", "net.round_us_p99", &round_us);
        out.net_phase_means(&m);
        let bytes = family(&m, "net_bytes_sent_total");
        out.layer("net.rounds_per_instance", stats::mean(&rounds));
        out.layer(
            "net.frames_per_instance",
            family(&m, "net_frames_sent_total") / segments as f64,
        );
        out.layer("net.bytes_per_instance", bytes / segments as f64);
        out.layer("net.bytes_per_record", bytes / records.max(1) as f64);
        out.layer("net.timeouts", sum(|f| f.timeouts));
        out.layer("net.reconnects", family(&m, "net_reconnects_total"));
        out.layer("byz.strikes", family(&m, "net_misbehavior_total"));
        out.layer("byz.evictions", sum(|f| f.evictions));
        out.layer_dist(
            "service.submit_us_p50",
            "service.submit_us_p99",
            &load.submit_us,
        );
        out.layer_dist("service.ack_us_p50", "service.ack_us_p99", &load.ack_us);
        out.layer_dist("service.read_us_p50", "service.read_us_p99", &load.read_us);
        out.layer(
            "service.read_records_per_call",
            stats::mean(&load.read_records),
        );
        out.layer(
            "service.records_per_batch",
            family(&m, "logd_batch_records_total") / family(&m, "logd_batches_total").max(1.0),
        );
        out.layer("service.refused", load.refused as f64);
        out.layer("service.dedup", family(&m, "logd_submit_dedup_total"));
        out.layer("setup.spawn_ms", median_of(|t| t.spawn_ms));
        out.layer("setup.first_ack_ms", median_of(|t| t.first_ack_ms));
        if open {
            out.layer("loadgen.lag_ms_p99", stats::tail_value(&load.lag_ms));
            out.layer(
                "loadgen.lag_ms_max",
                load.lag_ms.iter().copied().fold(0.0, f64::max),
            );
        }
        out.layer(
            "loadgen.offered_per_s",
            load.attempted as f64 / opts.seconds,
        );
        out.layer("trace.events", sum(|f| f.events));
    }
    Ok(out)
}

/// The service-only baseline: the same submitter against a lone
/// `serve_clients` over a bare `LogIngress`, with no round loop behind it.
/// Returns the ack latencies in microseconds.
pub fn baseline(opts: &Opts, open: bool) -> Result<Vec<f64>, String> {
    let shape = Shape::new(open, opts.tiny);
    let inputs = Inputs::new(opts.seed ^ BASELINE_ID, &shape);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io("bind"))?;
    let server = serve_clients(listener, LogIngress::new(SHARDS), 1, None, NoopTracer)
        .map_err(io("serve_clients"))?;
    let connect = || LogClient::connect(server.addr()).map_err(io("connect"));
    let spans = SpanLog::new(false, Instant::now(), 0);
    let start = Instant::now();
    let result = if open {
        submit_open(
            connect()?,
            &inputs,
            1,
            shape.rate,
            start,
            opts.window(),
            spans,
            0,
        )
    } else {
        let clients = [connect()?, connect()?];
        let deadline = start + opts.window();
        thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, client)| {
                    let (inputs, spans) = (&inputs, spans.fork(0));
                    s.spawn(move || {
                        submit_closed(client, inputs, 1, c as u64, deadline, None, spans, 0)
                    })
                })
                .collect();
            let mut all = SubmitLog::default();
            for h in handles {
                all.merge(h.join().map_err(|_| "submitter panicked")??);
            }
            Ok(all)
        })
    };
    server.shutdown();
    let log = result?;
    if log.refused > 0 {
        return Err("the bare ingress refused a submission".into());
    }
    Ok(log.ack_us)
}
