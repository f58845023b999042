//! The two timed phases.
//!
//! * Closed loop: `nproc` clients, each sending its next op only after the
//!   previous one completed (over TCP: after the oldest of its
//!   [`PIPELINE_DEPTH`] requests in flight completed).  Gives capacity.
//! * Open loop: ops due at a fixed rate, issued at their due time whether
//!   or not earlier ones have completed, and timed from the due time.  One
//!   thread issues, one collects (two threads in all):
//!   - in process, a query is issued with `MrqService::enqueue` and the
//!     collector waits for the answers in issue order.  An answer that
//!     overtakes an older one is stamped when the older one is collected,
//!     so the latency recorded is an upper bound;
//!   - over TCP, the issuer writes request frames onto one pipelined
//!     connection and the collector reads the replies, which the server
//!     sends in request order, so each stamp is exact;
//!   - updates and subscribes (write_mix) run on a third thread, in due
//!     order: in process a write executes on the caller's thread, and an
//!     update with standing queries takes tens of ms, so running writes on
//!     the issuer would hold back every query due meanwhile, and running
//!     them on the collector would hold back the stamps of answers already
//!     in.  That thread runs the service's write path, as a server
//!     connection thread would; it generates no load of its own.
//!
//! `driver.lag_p99_ms` reports how late the issuer was.

use crate::report::{diff, Diff};
use crate::stats::ratio;
use crate::sut::{
    derive_seed, execute, keep_sample, local_outcome, request_payload, since, Op, OpGen, OpKind,
    Outcome, Reply, Sampler, Sut,
};
use crate::trace::Trace;
use mrq_service::protocol::json::{self, Json};
use mrq_service::protocol::{read_frame, write_frame};
use mrq_service::service::PendingAnswer;
use mrq_service::{DatasetEntry, QueryReply, QueryRequest};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One measured op.
#[derive(Debug, Clone)]
pub struct Record {
    pub kind: OpKind,
    /// From the due time (open loop) or the send (closed loop) to the reply.
    pub latency_ns: u64,
    /// How late the op was issued after its due time (open loop).
    pub lag_ns: u64,
    pub outcome: Outcome,
}

/// Everything one phase (or several, merged) measured.
pub struct Phase {
    /// Every op except the closed loop's successful cache hits.
    pub records: Vec<Record>,
    /// Successful cache-hit queries of the closed loop: counted, not kept.
    /// They carry nothing the report reads beyond their number, and keeping
    /// each one (30 k/s on read_hot) made peak RSS follow throughput.
    pub hits: usize,
    pub elapsed_s: f64,
    pub trace: Trace,
    pub samplers: Vec<Sampler>,
    pub counters: Diff,
    /// Closed-loop throughput (ops/s) of each round.
    pub round_values: Vec<f64>,
    /// Closed-loop CPU time of the whole process per op (µs) of each round.
    pub round_cpu_us: Vec<f64>,
    /// Open-loop share of ops answered correctly within the latency limit,
    /// of each round.
    pub round_slo: Vec<f64>,
}

impl Phase {
    /// Merges the rounds of one kind of phase.
    pub fn merge(parts: Vec<Phase>) -> Phase {
        let mut parts = parts.into_iter();
        let mut out = parts.next().expect("at least one round");
        for p in parts {
            out.records.extend(p.records);
            out.hits += p.hits;
            out.elapsed_s += p.elapsed_s;
            out.trace.absorb(p.trace);
            out.samplers.extend(p.samplers);
            out.counters.add(&p.counters);
            out.round_values.extend(p.round_values);
            out.round_cpu_us.extend(p.round_cpu_us);
            out.round_slo.extend(p.round_slo);
        }
        out
    }

    /// Ops attempted.
    pub fn ops(&self) -> usize {
        self.records.len() + self.hits
    }
}

/// CPU time (user + system) of the whole process so far, every thread
/// included, from `/proc/self/stat` (10 ms ticks).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are the 12th and 13th fields after the command name.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Keeps `record`, or only counts it when it is a successful cache hit.
fn tally(records: &mut Vec<Record>, hits: &mut usize, record: Record) {
    if record.kind == OpKind::Query && record.outcome.ok && record.outcome.eval.is_none() {
        *hits += 1;
    } else {
        records.push(record);
    }
}

pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

/// Op ids: phase in the top bits, thread next, op counter below.
fn op_id(phase: u64, thread: u64, n: u64) -> u64 {
    (phase << 56) | (thread << 40) | n
}

/// Runs `nproc` closed-loop clients for `seconds`.
pub fn closed_loop(
    sut: &Sut,
    phase: u64,
    seconds: f64,
    seed: u64,
    traced: bool,
    epoch: Instant,
    sample_cap: usize,
) -> Result<Phase, String> {
    let threads = client_threads();
    let before = sut.service.stats();
    let cpu_before = process_cpu_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || -> Result<_, String> {
                    if let Some(server) = &sut.server {
                        let client = Pipelined {
                            sut,
                            addr: server.local_addr(),
                            phase,
                            thread: t as u64,
                            stream: 100 * phase + t as u64,
                        };
                        return client.run(deadline, seed, traced, epoch, sample_cap / threads);
                    }
                    let mut conn = sut.connect_local();
                    let stream = 100 * phase + t as u64;
                    let mut gen = OpGen::new(sut.workload, derive_seed(seed, 1000 + stream));
                    let mut trace = Trace::new(traced, epoch);
                    let mut sampler =
                        Sampler::new(derive_seed(seed, 2000 + stream), sample_cap / threads);
                    let mut records = Vec::new();
                    let mut hits = 0;
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let op = gen.next_op();
                        let id = op_id(phase, t as u64, n);
                        n += 1;
                        let sent = Instant::now();
                        let outcome = execute(sut, &mut conn, &op, id, &mut trace, &mut sampler);
                        let latency_ns = sent.elapsed().as_nanos() as u64;
                        if traced && op.kind == OpKind::Update {
                            let active = sut.service.stats().subscriptions.active;
                            trace.count("subscriptions.active", id, active);
                        }
                        let record = Record {
                            kind: op.kind,
                            latency_ns,
                            lag_ns: 0,
                            outcome,
                        };
                        tally(&mut records, &mut hits, record);
                    }
                    Ok((records, hits, trace, sampler, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut phase_out = Phase {
        records: Vec::new(),
        hits: 0,
        elapsed_s: 0.0,
        trace: Trace::new(traced, epoch),
        samplers: Vec::new(),
        counters: diff(&before, &sut.service.stats()),
        round_values: Vec::new(),
        round_cpu_us: Vec::new(),
        round_slo: Vec::new(),
    };
    let cpu_s = process_cpu_s() - cpu_before;
    let mut last_end = start;
    for (records, hits, trace, sampler, end) in results {
        phase_out.records.extend(records);
        phase_out.hits += hits;
        phase_out.trace.absorb(trace);
        phase_out.samplers.push(sampler);
        last_end = last_end.max(end);
    }
    phase_out.elapsed_s = (last_end - start).as_secs_f64();
    let ops = phase_out.ops() as f64;
    phase_out.round_values = vec![ratio(ops, phase_out.elapsed_s)];
    phase_out.round_cpu_us = vec![ratio(cpu_s * 1e6, ops)];
    Ok(phase_out)
}

/// Requests each closed-loop client keeps in flight on its connection
/// (read_hot).
pub const PIPELINE_DEPTH: usize = 8;

/// A closed-loop client over TCP: it keeps [`PIPELINE_DEPTH`] requests in
/// flight on one connection and sends the next as each reply arrives.
/// One request at a time made every op wait for four thread wake-ups in a
/// row (client, connection thread, pool worker, connection thread), the
/// machine sat idle between them, and throughput followed how fast the
/// host woke idle threads (4–16 k ops/s between rounds) rather than the
/// program.
struct Pipelined<'a> {
    sut: &'a Sut,
    addr: std::net::SocketAddr,
    phase: u64,
    thread: u64,
    stream: u64,
}

/// A request sent and not yet answered.
struct Sent {
    op: Op,
    id: u64,
    at: Instant,
    span: Option<usize>,
    check: Option<(usize, Arc<DatasetEntry>)>,
}

type ClientRun = (Vec<Record>, usize, Trace, Sampler, Instant);

impl Pipelined<'_> {
    fn run(
        &self,
        deadline: Instant,
        seed: u64,
        traced: bool,
        epoch: Instant,
        sample_cap: usize,
    ) -> Result<ClientRun, String> {
        let sut = self.sut;
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut writer = BufWriter::new(stream);
        let mut gen = OpGen::new(sut.workload, derive_seed(seed, 1000 + self.stream));
        let mut trace = Trace::new(traced, epoch);
        let mut sampler = Sampler::new(derive_seed(seed, 2000 + self.stream), sample_cap);
        let mut records = Vec::new();
        let mut hits = 0;
        let mut in_flight = std::collections::VecDeque::with_capacity(PIPELINE_DEPTH);
        let mut n = 0u64;
        loop {
            while in_flight.len() < PIPELINE_DEPTH && Instant::now() < deadline {
                let op = gen.next_op();
                let id = op_id(self.phase, self.thread, n);
                n += 1;
                let check = sampler
                    .choose()
                    .map(|slot| (slot, sut.snapshot(op.dataset)));
                let span = trace.begin("op.query", id, None);
                write_frame(&mut writer, &request_payload(sut, &op))
                    .map_err(|e| format!("send: {e}"))?;
                in_flight.push_back(Sent {
                    op,
                    id,
                    at: Instant::now(),
                    span,
                    check,
                });
            }
            let Some(sent) = in_flight.pop_front() else {
                break;
            };
            let reply = read_reply(&mut reader);
            trace.end(sent.span);
            let latency_ns = sent.at.elapsed().as_nanos() as u64;
            let outcome = match reply {
                Ok(reply) => {
                    let outcome = crate::sut::remote_outcome(&reply);
                    let reply = Reply::Remote(reply);
                    if traced {
                        crate::sut::beside_query(sut, &sent.op, sent.id, &mut trace, &reply);
                    }
                    if let Some((slot, entry)) = sent.check {
                        keep_sample(&mut sampler, slot, entry, sent.op.focal, &reply);
                    }
                    outcome
                }
                Err(e) => Outcome::failed(e),
            };
            let record = Record {
                kind: OpKind::Query,
                latency_ns,
                lag_ns: 0,
                outcome,
            };
            tally(&mut records, &mut hits, record);
        }
        Ok((records, hits, trace, sampler, Instant::now()))
    }
}

/// What the issuer hands the collector.
enum InFlight {
    Local {
        due_ns: u64,
        lag_ns: u64,
        id: u64,
        pending: Result<PendingAnswer, String>,
        check: Option<(usize, Arc<DatasetEntry>, mrq_data::RecordId)>,
    },
    Remote {
        due_ns: u64,
        lag_ns: u64,
        id: u64,
        /// When the frame was written, ns since the epoch.
        sent_ns: u64,
        check: Option<(usize, Arc<DatasetEntry>, mrq_data::RecordId)>,
    },
}

/// Runs the open-loop phase: `rate` ops/s for `seconds`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    sut: &Sut,
    phase: u64,
    seconds: f64,
    rate: f64,
    seed: u64,
    traced: bool,
    epoch: Instant,
    sample_cap: usize,
) -> Result<Phase, String> {
    let count = (rate * seconds).round().max(1.0) as usize;
    let mut gen = OpGen::new(sut.workload, derive_seed(seed, 3000 + phase));
    let ops: Vec<Op> = (0..count).map(|_| gen.next_op()).collect();
    let remote = sut.server.is_some();
    // The issuer sends pre-encoded frames, so encoding is not on its path.
    let payloads: Vec<String> = if remote {
        ops.iter().map(|op| request_payload(sut, op)).collect()
    } else {
        Vec::new()
    };
    let stream = match &sut.server {
        Some(server) => {
            let s = TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Some(s)
        }
        None => None,
    };
    let before = sut.service.stats();
    let (tx, rx) = mpsc::channel::<InFlight>();
    let (write_tx, write_rx) = mpsc::channel::<DueWrite>();
    let has_writes = ops.iter().any(|op| op.kind != OpKind::Query);
    let start = Instant::now() + Duration::from_millis(5);
    let start_ns = (start - epoch).as_nanos() as u64;
    let interval_ns = 1e9 / rate;
    let reader = match &stream {
        Some(s) => Some(BufReader::new(
            s.try_clone().map_err(|e| format!("clone: {e}"))?,
        )),
        None => None,
    };

    let schedule = Schedule {
        start,
        start_ns,
        interval_ns,
    };
    let (issued, collected, written) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx, reader, traced, epoch, sample_cap));
        let writer = has_writes
            .then(|| scope.spawn(|| run_writes(sut, phase, &ops, write_rx, traced, epoch)));
        let issued = issue(
            sut, phase, &ops, &payloads, stream, tx, write_tx, &schedule, traced, epoch, seed,
            sample_cap,
        );
        let collected = collector.join().expect("open-loop collector panicked");
        let written = writer.map(|w| w.join().expect("open-loop writer panicked"));
        (issued, collected, written)
    });
    let mut trace = issued?;
    let (mut records, collector_trace, collector_sampler, mut end) = collected?;
    trace.absorb(collector_trace);
    if let Some((more, writer_trace, writer_end)) = written {
        records.extend(more);
        trace.absorb(writer_trace);
        end = end.max(writer_end);
    }
    let counters = diff(&before, &sut.service.stats());
    let limit_ns = sut.workload.latency_limit_ms * 1e6;
    let met = records
        .iter()
        .filter(|r| r.outcome.ok && (r.latency_ns as f64) <= limit_ns)
        .count();
    Ok(Phase {
        round_values: Vec::new(),
        round_cpu_us: Vec::new(),
        round_slo: vec![ratio(met as f64, records.len() as f64)],
        hits: 0,
        records,
        elapsed_s: (end - start).as_secs_f64(),
        trace,
        samplers: vec![collector_sampler],
        counters,
    })
}

/// When each open-loop op is due.
struct Schedule {
    start: Instant,
    /// `start` in ns since the run's epoch.
    start_ns: u64,
    interval_ns: f64,
}

/// A write op handed to the writer thread at its due time.
struct DueWrite {
    index: usize,
    due_ns: u64,
    lag_ns: u64,
}

/// The issuing thread: sleeps until each op is due, then issues it without
/// waiting for any reply.
#[allow(clippy::too_many_arguments)]
fn issue(
    sut: &Sut,
    phase: u64,
    ops: &[Op],
    payloads: &[String],
    stream: Option<TcpStream>,
    tx: mpsc::Sender<InFlight>,
    write_tx: mpsc::Sender<DueWrite>,
    schedule: &Schedule,
    traced: bool,
    epoch: Instant,
    seed: u64,
    sample_cap: usize,
) -> Result<Trace, String> {
    let mut writer = stream.map(BufWriter::new);
    let mut trace = Trace::new(traced, epoch);
    // The collector keeps the answers at the slots this reservoir chooses.
    let mut check_pick = Sampler::new(derive_seed(seed, 4000 + phase), sample_cap);
    for (i, op) in ops.iter().enumerate() {
        let offset_ns = (i as f64 * schedule.interval_ns) as u64;
        let due = schedule.start + Duration::from_nanos(offset_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let due_ns = schedule.start_ns + offset_ns;
        let lag_ns = since(epoch).saturating_sub(due_ns);
        if op.kind != OpKind::Query {
            let write = DueWrite {
                index: i,
                due_ns,
                lag_ns,
            };
            if write_tx.send(write).is_err() {
                return Err("open-loop writer stopped early".into());
            }
            continue;
        }
        let check = check_pick
            .choose()
            .map(|slot| (slot, sut.snapshot(op.dataset), op.focal));
        let item = match &mut writer {
            Some(w) => {
                let sent_ns = since(epoch);
                write_frame(w, &payloads[i]).map_err(|e| format!("send: {e}"))?;
                InFlight::Remote {
                    due_ns,
                    lag_ns,
                    id: op_id(phase, 0, i as u64),
                    sent_ns,
                    check,
                }
            }
            None => {
                let id = op_id(phase, 0, i as u64);
                let request = QueryRequest::new(sut.names[op.dataset].as_str(), op.focal);
                let span = trace.begin("service.enqueue", id, None);
                let pending = sut.service.enqueue(&request).map_err(|e| e.to_string());
                trace.end(span);
                InFlight::Local {
                    due_ns,
                    lag_ns,
                    id,
                    pending,
                    check,
                }
            }
        };
        if tx.send(item).is_err() {
            return Err("open-loop collector stopped early".into());
        }
    }
    Ok(trace)
}

/// The writer thread: runs updates and subscribes in due order.  The
/// service serializes writes to a dataset anyway, so one writer loses no
/// concurrency; a write that waits for the previous one is timed from its
/// due time like any other op.
fn run_writes(
    sut: &Sut,
    phase: u64,
    ops: &[Op],
    rx: mpsc::Receiver<DueWrite>,
    traced: bool,
    epoch: Instant,
) -> (Vec<Record>, Trace, Instant) {
    let mut conn = sut.connect_local();
    let mut trace = Trace::new(traced, epoch);
    let mut no_samples = Sampler::new(0, 0);
    let mut records = Vec::new();
    for w in rx {
        let op = &ops[w.index];
        let id = op_id(phase, 1, w.index as u64);
        let outcome = execute(sut, &mut conn, op, id, &mut trace, &mut no_samples);
        let latency_ns = since(epoch).saturating_sub(w.due_ns);
        if traced && op.kind == OpKind::Update {
            let active = sut.service.stats().subscriptions.active;
            trace.count("subscriptions.active", id, active);
        }
        records.push(Record {
            kind: op.kind,
            latency_ns,
            lag_ns: w.lag_ns,
            outcome,
        });
    }
    (records, trace, Instant::now())
}

type Collected = (Vec<Record>, Trace, Sampler, Instant);

fn collect(
    rx: mpsc::Receiver<InFlight>,
    mut reader: Option<BufReader<TcpStream>>,
    traced: bool,
    epoch: Instant,
    sample_cap: usize,
) -> Result<Collected, String> {
    let mut trace = Trace::new(traced, epoch);
    // Filled at the slots the issuer's reservoir chose; never draws.
    let mut sampler = Sampler::new(0, sample_cap);
    let mut records = Vec::new();
    for item in rx {
        let (kind, due_ns, lag_ns, outcome, reply, check) = match item {
            InFlight::Local {
                due_ns,
                lag_ns,
                id,
                pending,
                check,
            } => {
                let span = trace.begin("pool.wait", id, None);
                let answer = pending.and_then(|p| p.wait().map_err(|e| e.to_string()));
                let wait_ns = trace.end(span);
                match answer {
                    Ok(answer) => {
                        let mut outcome = local_outcome(&answer);
                        outcome.wait_ns = wait_ns;
                        (
                            OpKind::Query,
                            due_ns,
                            lag_ns,
                            outcome,
                            Some(Reply::Local(answer)),
                            check,
                        )
                    }
                    Err(e) => (
                        OpKind::Query,
                        due_ns,
                        lag_ns,
                        Outcome::failed(e),
                        None,
                        check,
                    ),
                }
            }
            InFlight::Remote {
                due_ns,
                lag_ns,
                id,
                sent_ns,
                check,
            } => {
                let r = reader.as_mut().expect("remote ops come with a connection");
                let reply = read_reply(r);
                // The round trip of one request on an otherwise idle
                // connection (the closed loop keeps several in flight).
                trace.record("client.query", id, sent_ns);
                match reply {
                    Ok(reply) => (
                        OpKind::Query,
                        due_ns,
                        lag_ns,
                        crate::sut::remote_outcome(&reply),
                        Some(Reply::Remote(reply)),
                        check,
                    ),
                    Err(e) => (
                        OpKind::Query,
                        due_ns,
                        lag_ns,
                        Outcome::failed(e),
                        None,
                        check,
                    ),
                }
            }
        };
        let latency_ns = since(epoch).saturating_sub(due_ns);
        if let (Some(reply), Some((slot, entry, focal))) = (&reply, check) {
            keep_sample(&mut sampler, slot, entry, focal, reply);
        }
        records.push(Record {
            kind,
            latency_ns,
            lag_ns,
            outcome,
        });
    }
    Ok((records, trace, sampler, Instant::now()))
}

/// Reads one `query` reply frame.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<QueryReply, String> {
    let payload = read_frame(reader)
        .map_err(|e| format!("receive: {e}"))?
        .ok_or("server closed the connection")?;
    let value = json::parse(&payload)?;
    if value.get("ok").and_then(Json::as_bool) != Some(true) {
        let message = value.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("server error: {message}"));
    }
    let num = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("reply lacks '{key}'"))
    };
    let orders = value
        .get("orders")
        .and_then(Json::as_array)
        .ok_or("reply lacks 'orders'")?
        .iter()
        .map(|o| o.as_usize().ok_or("non-integer order"))
        .collect::<Result<Vec<usize>, _>>()?;
    Ok(QueryReply {
        k_star: num("k_star")?,
        tau: num("tau")?,
        algorithm: value
            .get("algorithm")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        region_count: num("region_count")?,
        cached: value
            .get("cached")
            .and_then(Json::as_bool)
            .ok_or("reply lacks 'cached'")?,
        version: num("version")? as u64,
        io_reads: num("io_reads")? as u64,
        cpu_us: num("cpu_us")? as u64,
        orders,
        witnesses: Vec::new(),
    })
}

/// Runs `ops` closed-loop on the calling thread, unmeasured (warm-up).
pub fn run_unmeasured(sut: &Sut, ops: &[Op]) -> Result<(), String> {
    let mut conn = sut.connect_local();
    let mut trace = Trace::new(false, Instant::now());
    let mut sampler = Sampler::new(0, 0);
    for op in ops {
        let outcome = execute(sut, &mut conn, op, 0, &mut trace, &mut sampler);
        if let Some(e) = outcome.error {
            return Err(format!("warm-up op failed: {e}"));
        }
    }
    Ok(())
}
