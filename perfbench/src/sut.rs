//! The system under test: set-up of the service (and server) for one
//! workload, the generated ops, and the calls the benchmark makes into each
//! module, with a span around every call.

use crate::trace::Trace;
use crate::workloads::{
    Access, Transport, Workload, DATASET_SEED, SUBSCRIPTION_CAP, UPDATE_BACKLOG_CAP,
};
use mrq_core::{
    triage_delete, triage_insert, DeltaTriage, MaxRankConfig, MaxRankQuery, MaxRankResult,
};
use mrq_data::{synthetic, Dataset, Distribution, RecordId, Update};
use mrq_index::RStarTree;
use mrq_service::protocol::{query_payload, Request};
use mrq_service::{
    DatasetEntry, DatasetRegistry, DurabilityOptions, MrqService, NotifyMailbox, QueryAnswer,
    QueryReply, QueryRequest, Server, ServiceConfig, Subscription,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Derives an independent stream seed from the run seed (SplitMix64 step).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn dataset_name(index: usize) -> String {
    format!("ind{index}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Query,
    Update,
    Subscribe,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Query, OpKind::Update, OpKind::Subscribe];
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    pub dataset: usize,
    pub focal: RecordId,
    /// The row an update inserts.
    pub row: Vec<f64>,
}

/// Zipf over ranks `0..n`: `P(r) ∝ 1/(r+1)^θ`.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(theta);
                total
            })
            .collect();
        Self { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty zipf table");
        let u = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Seeded op stream of one workload.
pub struct OpGen {
    workload: &'static Workload,
    rng: StdRng,
    zipf: Option<Zipf>,
}

impl OpGen {
    pub fn new(workload: &'static Workload, seed: u64) -> Self {
        let zipf = match workload.access {
            Access::Uniform => None,
            Access::Zipf(theta) => Some(Zipf::new(workload.records, theta)),
        };
        Self {
            workload,
            rng: StdRng::seed_from_u64(seed),
            zipf,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let w = self.workload;
        let mut draw = self.rng.gen_range(0..w.mix.iter().sum::<u32>());
        let mut kind = OpKind::Query;
        for (k, &weight) in OpKind::ALL.iter().zip(&w.mix) {
            if draw < weight {
                kind = *k;
                break;
            }
            draw -= weight;
        }
        let dataset = self.rng.gen_range(0..w.datasets);
        // Only the generated records are drawn as focals; updates delete
        // inserted rows only, so every focal stays live.
        let focal = match &self.zipf {
            None => self.rng.gen_range(0..w.records),
            Some(z) => z.sample(&mut self.rng),
        } as RecordId;
        let row = if kind == OpKind::Update {
            (0..w.dims).map(|_| self.rng.gen::<f64>()).collect()
        } else {
            Vec::new()
        };
        Op {
            kind,
            dataset,
            focal,
            row,
        }
    }
}

/// Rows and standing queries the write ops keep bounded.
#[derive(Default)]
pub struct WriteState {
    pub backlog: VecDeque<RecordId>,
    pub subs: VecDeque<Arc<Subscription>>,
}

/// A set-up service, plus its server on `read_hot`.
pub struct Sut {
    pub workload: &'static Workload,
    pub service: Arc<MrqService>,
    pub server: Option<Server>,
    pub names: Vec<String>,
    /// Root of the durable stores (write_mix).
    pub store_root: Option<PathBuf>,
    pub writes: Mutex<WriteState>,
}

impl Sut {
    /// Generates the datasets, registers them (durably on write_mix),
    /// starts the service and, on read_hot, binds the server.
    pub fn setup(
        workload: &'static Workload,
        store_root: Option<PathBuf>,
        trace: &mut Trace,
    ) -> Result<Sut, String> {
        let registry = Arc::new(DatasetRegistry::new());
        let mut names = Vec::new();
        for i in 0..workload.datasets {
            let mut rng = StdRng::seed_from_u64(derive_seed(DATASET_SEED, i as u64));
            let data = synthetic::generate(
                Distribution::Independent,
                workload.records,
                workload.dims,
                &mut rng,
            );
            if trace.enabled() {
                // The index build on its own, on the same data.
                let span = trace.begin("index.bulk_load", 0, None);
                black_box(RStarTree::bulk_load(black_box(&data)));
                trace.end(span);
            }
            let name = dataset_name(i);
            let span = trace.begin("registry.register", 0, None);
            match (&store_root, workload.checkpoint_wal_bytes) {
                (Some(root), Some(bytes)) => {
                    let options = DurabilityOptions {
                        checkpoint_wal_bytes: bytes,
                    };
                    registry
                        .register_loaded_durable(&name, data, root, options)
                        .map(|_| ())
                }
                _ => registry.register_loaded(&name, data).map(|_| ()),
            }?;
            trace.end(span);
            names.push(name);
        }
        let service = Arc::new(MrqService::new(registry, ServiceConfig::default()));
        let server = match workload.transport {
            Transport::InProcess => None,
            Transport::Tcp => Some(
                Server::start(Arc::clone(&service), "127.0.0.1:0")
                    .map_err(|e| format!("bind: {e}"))?,
            ),
        };
        Ok(Sut {
            workload,
            service,
            server,
            names,
            store_root,
            writes: Mutex::new(WriteState::default()),
        })
    }

    /// An in-process way in, whatever the workload's transport (the TCP
    /// clients live in `load`).
    pub fn connect_local(&self) -> Conn {
        Conn {
            mailbox: Arc::new(NotifyMailbox::new()),
        }
    }

    pub fn snapshot(&self, dataset: usize) -> Arc<DatasetEntry> {
        self.service
            .registry()
            .get(&self.names[dataset])
            .expect("registered dataset")
    }

    /// Stops the server (if any) and the worker pool.
    pub fn shutdown(&self) {
        match &self.server {
            Some(server) => server.shutdown(),
            None => self.service.shutdown(),
        }
    }
}

/// One client thread's way into the service in process: the mailbox its
/// standing queries notify.
pub struct Conn {
    mailbox: Arc<NotifyMailbox>,
}

/// A query answer as the benchmark received it.
pub enum Reply {
    Local(QueryAnswer),
    Remote(QueryReply),
}

impl Reply {
    pub fn version(&self) -> u64 {
        match self {
            Reply::Local(a) => a.version,
            Reply::Remote(r) => r.version,
        }
    }

    /// `(k*, region count, sorted region orders)`.
    pub fn summary(&self) -> (usize, usize, Vec<usize>) {
        match self {
            Reply::Local(a) => summarize(&a.result),
            Reply::Remote(r) => {
                let mut orders = r.orders.clone();
                orders.sort_unstable();
                (r.k_star, r.region_count, orders)
            }
        }
    }
}

pub fn summarize(result: &MaxRankResult) -> (usize, usize, Vec<usize>) {
    let mut orders: Vec<usize> = result.regions.iter().map(|r| r.order).collect();
    orders.sort_unstable();
    (result.k_star, result.region_count(), orders)
}

/// Evaluation cost of an answer that was not cached.
#[derive(Debug, Clone, Copy)]
pub struct Eval {
    pub cpu_ns: u64,
    /// `(halfspaces_inserted, leaves_processed)`; only known in process.
    pub quadtree: Option<(u32, u32)>,
}

/// What one op left behind, besides its latency.  Kept small: a run
/// records hundreds of thousands of them, and they count in the peak RSS.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub ok: bool,
    pub eval: Option<Eval>,
    /// Time spent in `PendingAnswer::wait` (traced runs).
    pub wait_ns: u64,
    pub error: Option<Box<str>>,
}

impl Outcome {
    pub fn failed(error: String) -> Self {
        Outcome {
            error: Some(error.into_boxed_str()),
            ..Outcome::default()
        }
    }
}

/// Where a checked answer came from: the snapshot it must match.
pub struct Sample {
    pub entry: Arc<DatasetEntry>,
    pub focal: RecordId,
    pub got: (usize, usize, Vec<usize>),
}

/// Reservoir of answers to re-evaluate when the run ends.
pub struct Sampler {
    rng: StdRng,
    seen: u64,
    cap: usize,
    pub kept: Vec<Sample>,
}

impl Sampler {
    pub fn new(seed: u64, cap: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            seen: 0,
            cap,
            kept: Vec::new(),
        }
    }

    /// Decides before the op whether its answer is kept; returns the slot.
    pub fn choose(&mut self) -> Option<usize> {
        self.seen += 1;
        if self.kept.len() < self.cap {
            return Some(self.kept.len());
        }
        let j = self.rng.gen_range(0..self.seen) as usize;
        (j < self.cap).then_some(j)
    }

    pub fn keep(&mut self, slot: usize, sample: Sample) {
        if slot == self.kept.len() {
            self.kept.push(sample);
        } else if slot < self.kept.len() {
            self.kept[slot] = sample;
        }
    }
}

/// Runs one op synchronously on the calling thread.  Spans go into `trace`
/// under a root span named after the op kind; work timed *beside* the call
/// (to split its cost by layer) runs only when tracing is on and lies
/// outside the root span.
pub fn execute(
    sut: &Sut,
    conn: &mut Conn,
    op: &Op,
    op_id: u64,
    trace: &mut Trace,
    sampler: &mut Sampler,
) -> Outcome {
    match op.kind {
        OpKind::Query => {
            let slot = sampler.choose();
            let entry = slot.map(|_| sut.snapshot(op.dataset));
            let root = trace.begin("op.query", op_id, None);
            let (outcome, reply) = local_query(sut, op, op_id, root, trace);
            trace.end(root);
            if let Some(reply) = &reply {
                if trace.enabled() {
                    beside_query(sut, op, op_id, trace, reply);
                }
                if let (Some(slot), Some(entry)) = (slot, entry) {
                    keep_sample(sampler, slot, entry, op.focal, reply);
                }
            }
            outcome
        }
        OpKind::Update => update(sut, conn, op, op_id, trace),
        OpKind::Subscribe => subscribe(sut, conn, op, op_id, trace),
    }
}

pub fn keep_sample(
    sampler: &mut Sampler,
    slot: usize,
    entry: Arc<DatasetEntry>,
    focal: RecordId,
    reply: &Reply,
) {
    // The snapshot was taken before the call; an update may have landed in
    // between, and then this answer cannot be checked against it.
    if entry.version() == reply.version() {
        sampler.keep(
            slot,
            Sample {
                entry,
                focal,
                got: reply.summary(),
            },
        );
    }
}

fn local_query(
    sut: &Sut,
    op: &Op,
    op_id: u64,
    root: Option<usize>,
    trace: &mut Trace,
) -> (Outcome, Option<Reply>) {
    let request = QueryRequest::new(sut.names[op.dataset].as_str(), op.focal);
    let span = trace.begin("service.enqueue", op_id, root);
    let pending = sut.service.enqueue(&request);
    trace.end(span);
    let pending = match pending {
        Ok(p) => p,
        Err(e) => return (Outcome::failed(e.to_string()), None),
    };
    let span = trace.begin("pool.wait", op_id, root);
    let answer = pending.wait();
    let wait_ns = trace.end(span);
    match answer {
        Ok(answer) => {
            let mut outcome = local_outcome(&answer);
            outcome.wait_ns = wait_ns;
            (outcome, Some(Reply::Local(answer)))
        }
        Err(e) => (Outcome::failed(e.to_string()), None),
    }
}

pub fn local_outcome(answer: &QueryAnswer) -> Outcome {
    let stats = &answer.result.stats;
    Outcome {
        ok: true,
        eval: (!answer.cached).then_some(Eval {
            cpu_ns: stats.cpu_time.as_nanos() as u64,
            quadtree: Some((
                stats.halfspaces_inserted as u32,
                stats.leaves_processed as u32,
            )),
        }),
        ..Outcome::default()
    }
}

pub fn remote_outcome(reply: &QueryReply) -> Outcome {
    Outcome {
        ok: true,
        eval: (!reply.cached).then_some(Eval {
            cpu_ns: reply.cpu_us * 1000,
            quadtree: None,
        }),
        ..Outcome::default()
    }
}

/// The request frame a query op is sent as.
pub fn request_payload(sut: &Sut, op: &Op) -> String {
    Request::Query {
        dataset: sut.names[op.dataset].clone(),
        focal: op.focal,
        algorithm: mrq_core::Algorithm::Auto,
        tau: 0,
        timeout_ms: None,
        no_cache: false,
        max_regions: None,
        threads: 1,
    }
    .encode()
}

/// Protocol cost of the op's request and answer, and over TCP the same
/// query in process (a cache hit), so the server's share of the round trip
/// can be told apart.
pub fn beside_query(sut: &Sut, op: &Op, op_id: u64, trace: &mut Trace, reply: &Reply) {
    let payload = request_payload(sut, op);
    let span = trace.begin("protocol.parse", op_id, None);
    let parsed = Request::parse(black_box(&payload));
    trace.end(span);
    black_box(parsed.ok());
    let local = match reply {
        Reply::Local(answer) => Some(answer.clone()),
        Reply::Remote(_) => {
            let request = QueryRequest::new(sut.names[op.dataset].as_str(), op.focal);
            let root = trace.begin("service.query_local", op_id, None);
            let span = trace.begin("service.enqueue", op_id, root);
            let pending = sut.service.enqueue(&request);
            trace.end(span);
            let span = trace.begin("pool.wait", op_id, root);
            let answer = pending.and_then(|p| p.wait());
            trace.end(span);
            trace.end(root);
            if let Ok(a) = &answer {
                trace.count("replay.cached", op_id, u64::from(a.cached));
            }
            answer.ok()
        }
    };
    if let Some(answer) = local {
        let span = trace.begin("protocol.encode", op_id, None);
        let encoded = query_payload(black_box(&answer), None);
        trace.end(span);
        trace.count("protocol.reply_bytes", op_id, encoded.len() as u64);
    }
}

fn update(sut: &Sut, conn: &mut Conn, op: &Op, op_id: u64, trace: &mut Trace) -> Outcome {
    let mailbox = &conn.mailbox;
    let delete = {
        let mut writes = sut.writes.lock().expect("write state lock");
        (writes.backlog.len() >= UPDATE_BACKLOG_CAP)
            .then(|| writes.backlog.pop_front())
            .flatten()
    };
    let mut batch = vec![Update::Insert(op.row.clone())];
    batch.extend(delete.map(Update::Delete));
    let name = &sut.names[op.dataset];
    // The standing results the update will triage (traced runs only).
    let held = if trace.enabled() {
        held_subscriptions(sut)
    } else {
        Vec::new()
    };
    let root = trace.begin("op.update", op_id, None);
    let span = trace.begin("service.update", op_id, root);
    let result = sut.service.update(name, &batch);
    trace.end(span);
    trace.end(root);
    mailbox.drain();
    match result {
        Ok(outcome) => {
            if let Some(&id) = outcome.inserted.first() {
                sut.writes
                    .lock()
                    .expect("write state lock")
                    .backlog
                    .push_back(id);
            }
            if trace.enabled() {
                beside_update(sut, op, op_id, trace, &batch, &held);
            }
            Outcome {
                ok: true,
                ..Outcome::default()
            }
        }
        Err(e) => Outcome::failed(e.to_string()),
    }
}

type Held = (Arc<MaxRankResult>, RecordId, mrq_core::Algorithm);

fn held_subscriptions(sut: &Sut) -> Vec<Held> {
    let writes = sut.writes.lock().expect("write state lock");
    writes
        .subs
        .iter()
        .map(|s| (s.snapshot().0, s.focal(), s.algorithm()))
        .collect()
}

/// The copy-on-write clone, the delta triage and the re-evaluations an
/// update runs, repeated outside it on the post-update snapshot against the
/// standing results held before it.
fn beside_update(
    sut: &Sut,
    op: &Op,
    op_id: u64,
    trace: &mut Trace,
    batch: &[Update],
    held: &[Held],
) {
    let entry = sut.snapshot(op.dataset);
    let span = trace.begin("registry.cow_clone", op_id, None);
    let data: Dataset = entry.data().clone();
    let tree: RStarTree = entry.tree().clone();
    trace.end(span);
    black_box((data, tree));
    let span = trace.begin("maintain.triage", op_id, None);
    let reenumerate: Vec<&Held> = held
        .iter()
        .filter(|(result, focal, _)| {
            let focal_row = entry.data().record(*focal);
            batch.iter().any(|update| {
                let verdict = match update {
                    Update::Insert(row) => triage_insert(result, focal_row, row),
                    Update::Delete(id) => {
                        triage_delete(result, focal_row, entry.data().record(*id))
                    }
                };
                verdict == DeltaTriage::ReEnumerate
            })
        })
        .collect();
    trace.end(span);
    let span = trace.begin("maintain.reeval", op_id, None);
    for (_, focal, algorithm) in reenumerate {
        let config = MaxRankConfig::new().with_algorithm(*algorithm);
        black_box(MaxRankQuery::new(entry.data(), entry.tree()).evaluate(*focal, &config));
    }
    trace.end(span);
}

fn subscribe(sut: &Sut, conn: &mut Conn, op: &Op, op_id: u64, trace: &mut Trace) -> Outcome {
    let mailbox = &conn.mailbox;
    let evict = {
        let mut writes = sut.writes.lock().expect("write state lock");
        (writes.subs.len() >= SUBSCRIPTION_CAP)
            .then(|| writes.subs.pop_front())
            .flatten()
    };
    let root = trace.begin("op.subscribe", op_id, None);
    if let Some(old) = evict {
        let span = trace.begin("service.unsubscribe", op_id, root);
        sut.service.unsubscribe(old.id());
        trace.end(span);
    }
    let span = trace.begin("service.subscribe", op_id, root);
    let result = sut.service.subscribe(
        &sut.names[op.dataset],
        op.focal,
        mrq_core::Algorithm::Auto,
        0,
        Arc::clone(mailbox),
    );
    trace.end(span);
    trace.end(root);
    mailbox.drain();
    match result {
        Ok(sub) => {
            sut.writes
                .lock()
                .expect("write state lock")
                .subs
                .push_back(sub);
            Outcome {
                ok: true,
                ..Outcome::default()
            }
        }
        Err(e) => Outcome::failed(e.to_string()),
    }
}

/// A fresh directory for the durable stores of one set-up.
pub fn fresh_dir(root: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = root.join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Nanoseconds since `epoch`.
pub fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}
